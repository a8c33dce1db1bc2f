(* Per-shard primary/backup replication (see replica.mli for the design
   story).  The invariant everything here leans on: every member
   reconciled with the current epoch holds a WAL that is a prefix of ONE
   logical record stream (the primary's append order, in global
   coordinates — compaction is disabled for replicated services).

   The stream is held once, in the primary's WAL.  The primary keeps only
   each record's frame offset there; a ship reads a batch's frames from
   its device as one byte range, buffered tail included.  Every member
   runs under one service name, so every member's WAL has one file name
   and one frame key: a backup checks each shipped frame's checksum where
   it lies and appends the checked frames to its own WAL unchanged, so
   its bytes equal the primary's.

   A member can fall OFF that invariant: a primary that syncs records
   locally, fails to ship them, and crashes leaves an unacked tail on its
   disk that the next epoch overwrites with different records at the same
   positions.  Two mechanisms repair this, VSR-style:

   - every promotion appends an {e epoch barrier} record to the stream
     (skipped by Service replay), so a log's own content names the last
     epoch it was reconciled with;
   - shipping verifies content, not just counts: a backup that re-reads
     its log after a crash or a promotion keeps what it read as a
     {e verification view}, and after a promotion resets every ack cursor
     to 0, the first batches re-walk the log against the stream and
     rewrite it at the first divergence (and truncate any tail reaching
     past the stream's end).  Once the re-walk has passed the view's end
     the view is dropped.  A member WITHOUT a view holds a log that is a
     prefix of the current stream, so a record it already holds needs no
     comparison.

   Promotion then picks, among the candidate's and all reachable peers'
   full logs, the one with the greatest (last barrier epoch, length) —
   which provably contains every acked record: an ack quorum and a
   promotion quorum always intersect, the intersection member's log embeds
   the acking epoch's barrier below the acked record, and logs of one
   epoch are prefixes of one stream.

   Fault model: fail-stop host crashes and restarts (the sim's fault
   plane).  Network partitions *between group members* are out of scope. *)

module Net = Oasis_sim.Net
module Engine = Oasis_sim.Engine
module Stats = Oasis_sim.Stats
module Frame = Oasis_util.Frame

type member = {
  m_svc : Service.t;
  m_journal : Journal.t option;  (* present in every K >= 2 group (checked by [create]) *)
  m_host : Net.host;
  mutable m_acked : int;  (* primary's view: stream records durable at this member *)
  mutable m_have : int;  (* receiver's view: records in its local log *)
  mutable m_view : string array;
      (* the log as re-read from disk, which shipped records are checked
         against until the re-walk passes its end; [||] when the log is
         known to be a stream prefix *)
  mutable m_have_dirty : bool;  (* re-read [m_have] and [m_view] from disk before trusting *)
  mutable m_inflight : bool;  (* one ship RPC outstanding to this member *)
  mutable m_promoting : bool;  (* this member has a promotion fetch in flight *)
  mutable m_last_hb : float;  (* when this member last heard the primary *)
}

type t = {
  g_net : Net.t;
  g_engine : Engine.t;
  g_name : string;
  g_members : member array;
  mutable g_primary : int;
  mutable g_epoch : int;
  mutable g_ready : bool;  (* primary finished its promotion replay *)
  mutable g_offs : int array;
      (* each stream record's frame offset in the primary's WAL, oldest
         first; grows by doubling *)
  mutable g_count : int;
  mutable g_end : int;  (* the offset past the last record's frame *)
  mutable g_local_durable : int;  (* stream records known durable at the primary *)
  mutable g_waiters : (int * (unit -> unit)) list;  (* newest first *)
  mutable g_on_promote : (Service.t -> unit) list;
  mutable g_promotions : int;
}

(* The member's journal; only K >= 2 groups ship, sync or repair. *)
let journal m = Option.get m.m_journal

let primary t = t.g_members.(t.g_primary).m_svc
let primary_index t = t.g_primary
let epoch t = t.g_epoch
let ready t = t.g_ready
let replica_count t = Array.length t.g_members
let promotions t = t.g_promotions
let members t = Array.to_list (Array.map (fun m -> m.m_svc) t.g_members)
let member t i = t.g_members.(i).m_svc

(* The records of the well-formed frames in [s] from [off] on. *)
let[@tail_mod_cons] rec records_from j s off =
  match Journal.frame_end j s off with
  | -1 -> []
  | e -> String.sub s (off + Frame.header) (e - off - Frame.header) :: records_from j s e

let stream t =
  if t.g_count = 0 then []
  else
    let j = journal t.g_members.(t.g_primary) in
    let off = t.g_offs.(0) in
    records_from j (Journal.log_bytes j ~off ~len:(t.g_end - off)) 0

let on_promote t f = t.g_on_promote <- f :: t.g_on_promote

(* Majority quorum for BOTH acks and promotion: any promotion majority
   intersects any ack majority, so an acknowledged record is always present
   in some log the promotion could reach — acked writes survive any
   minority of simultaneous crashes.  (Even K buys no extra tolerance over
   K-1; deploy odd K.) *)
let majority t = (Array.length t.g_members / 2) + 1

(* The failover clock, in sim seconds: the primary heartbeats every
   [heartbeat], and backup [j] promotes itself once it has heard none for
   [lease + stagger * j]. *)
let heartbeat = 0.2
let lease = 0.45
let stagger = 0.15

let push_frame t off len =
  if t.g_count = Array.length t.g_offs then begin
    let bigger = Array.make (max 64 (2 * Array.length t.g_offs)) 0 in
    Array.blit t.g_offs 0 bigger 0 t.g_count;
    t.g_offs <- bigger
  end;
  t.g_offs.(t.g_count) <- off;
  t.g_count <- t.g_count + 1;
  t.g_end <- off + len

let durable_at t i = if i = t.g_primary then t.g_local_durable else t.g_members.(i).m_acked

let quorum_durable t s =
  let n = ref 0 in
  Array.iteri (fun i _ -> if durable_at t i >= s then incr n) t.g_members;
  !n >= majority t

let check_waiters t =
  let fire, wait = List.partition (fun (s, _) -> quorum_durable t s) t.g_waiters in
  t.g_waiters <- wait;
  List.iter (fun (_, k) -> k ()) (List.rev fire)

(* --- the receiver's log --- *)

let set_log m n =
  m.m_have <- n;
  m.m_view <- [||];
  m.m_have_dirty <- false

let reload m =
  if m.m_have_dirty then begin
    let view = Array.of_list (Journal.log_records (journal m)) in
    set_log m (Array.length view);
    m.m_view <- view
  end

(* The first [k] records of the member's log: from the view when it
   reaches that far, else read from the log's own bytes. *)
let log_prefix m k =
  if k <= Array.length m.m_view then Array.to_list (Array.sub m.m_view 0 k)
  else
    let j = journal m in
    List.filteri (fun i _ -> i < k) (records_from j (Journal.log_bytes j ~off:0 ~len:max_int) 0)

(* --- log shipping (primary -> one backup, one RPC in flight each) --- *)

let ship_batch = 256

(* At backup [m]: take in the shipped [frames], stream records
   [start, start + n), walking them where they lie and checking each
   frame's checksum.  A record the log already holds is compared with the
   verification view, if there is one (without a view the log is a stream
   prefix and holds the same record); each record past the log's end is
   appended as it lies. *)
let receive t m ~start ~total frames reply =
  let j = journal m in
  let repair fixed =
    Journal.log_rewrite j fixed (fun () ->
        set_log m (List.length fixed);
        Stats.incr (Net.stats t.g_net) "repl.repair";
        reply (Ok m.m_have))
  in
  let rec walk i off =
    match Journal.frame_end j frames off with
    | -1 -> verified i
    | e ->
        let pos = start + i in
        if pos >= m.m_have then begin
          Journal.follower_append j frames off (e - off);
          m.m_have <- pos + 1;
          walk (i + 1) e
        end
        else if
          pos < Array.length m.m_view
          && not
               (String.equal m.m_view.(pos)
                  (String.sub frames (off + Frame.header) (e - off - Frame.header)))
        then
          (* Verify the overlap against the stream instead of blindly
             skipping it: after a failover our tail may be a dead epoch's
             unacked appends under different content at the same
             positions.  Diverged at [pos]: everything from there on is
             the dead epoch's junk; replace it with the shipped stream
             content. *)
          repair (log_prefix m pos @ records_from j frames off)
        else walk (i + 1) e
  and verified n =
    if start + n >= total && m.m_have > start + n then
      (* Verified up to the stream's end as of this ship; the remaining
         tail reaches past it — a dead epoch's junk.  Truncate. *)
      repair (log_prefix m (start + n))
    else begin
      (* The re-walk has passed the view's end: the log is a stream
         prefix again. *)
      if start + n >= Array.length m.m_view then m.m_view <- [||];
      (* Ack only the content-verified prefix [0, start+n): when our log
         runs past the shipped batch but the batch stops short of the
         stream's end, the tail beyond [start+n] has not been compared yet
         and may be a dead epoch's junk.  Acking [m_have] here would mark
         those positions quorum-durable, advance the primary's cursor past
         them, and leave the divergence unrepaired forever — the quorum
         intersection argument dies with it. *)
      let have = min m.m_have (start + n) in
      (* The ack rides the backup's own group commit: an acked record is
         durable AT THIS MEMBER, not merely received. *)
      Journal.sync j (fun () -> reply (Ok have))
    end
  in
  walk 0 0

let rec ship_to t j =
  let p = t.g_members.(t.g_primary) in
  let m = t.g_members.(j) in
  if
    t.g_ready
    && j <> t.g_primary
    && (not m.m_inflight)
    && m.m_acked < t.g_count
    && Net.host_up t.g_net p.m_host
    && Net.host_up t.g_net m.m_host
  then begin
    m.m_inflight <- true;
    let epoch = t.g_epoch in
    let shipper = t.g_primary in
    let start = max 0 m.m_acked in
    let total = t.g_count in
    let n = min (total - start) ship_batch in
    (* The batch's frames, one byte range of the primary's WAL read from
       its device (buffered tail included): the receiver checks them where
       they lie before it appends them. *)
    let off = t.g_offs.(start) in
    let stop = if start + n = total then t.g_end else t.g_offs.(start + n) in
    let frames = Journal.log_bytes (journal p) ~off ~len:(stop - off) in
    Net.rpc t.g_net ~category:"repl.ship"
      ~size:(32 + String.length frames)
      ~timeout:(3.0 *. heartbeat) ~src:p.m_host ~dst:m.m_host
      (fun reply ->
        (* At the backup.  Drain the group-commit buffer first: the log
           repair may rewrite the WAL, which must not race a buffered
           append from an earlier epoch's ship. *)
        if t.g_epoch <> epoch then reply (Error "stale epoch")
        else
          Journal.sync (journal m) (fun () ->
              if t.g_epoch <> epoch then reply (Error "stale epoch")
              else begin
                reload m;
                if start > m.m_have then
                  (* We lack records below [start]: tell the primary how
                     far we really are so it rewinds its cursor. *)
                  reply (Ok m.m_have)
                else receive t m ~start ~total frames reply
              end))
      (fun result ->
        (* Back at the primary. *)
        m.m_inflight <- false;
        if t.g_primary = shipper && t.g_epoch = epoch then
          match result with
          | Ok acked ->
              m.m_acked <- min acked t.g_count;
              check_waiters t;
              ship_to t j
          | Error _ -> () (* the next heartbeat tick re-kicks *))
  end

let ship_all t = Array.iteri (fun j _ -> ship_to t j) t.g_members

(* The primary's ship observer: the stream's next record is the frame just
   appended to its WAL. *)
let observe t =
  Some
    (fun off len ->
      push_frame t off len;
      ship_all t)

(* --- the quorum ack hook ({!Journal.ack} lands here) --- *)

let quorum_sync t j k =
  let m = t.g_members.(j) in
  if t.g_primary <> j then
    (* Direct (unrouted) use of a non-primary member: degrade to local
       durability rather than hanging; the routed path never gets here. *)
    Journal.sync (journal m) k
  else begin
    let s = t.g_count in
    let epoch = t.g_epoch in
    t.g_waiters <- (s, k) :: t.g_waiters;
    Journal.sync (journal m) (fun () ->
        if t.g_primary = j && t.g_epoch = epoch then begin
          if s > t.g_local_durable then t.g_local_durable <- s;
          check_waiters t
        end);
    ship_all t
  end

(* --- failover: epoch-CAS promotion --- *)

(* [promote t ~member ~from_epoch] makes [member] the primary of epoch
   [from_epoch + 1].  Phases:

   1. FETCH (read-only): ask every other member for its full durable log.
      Peers that are down just time out.
   2. CAS COMMIT (synchronous): abandoned unless the epoch is still
      [from_epoch] (another promotion won) and a majority was reachable
      (candidate + responders) — without that majority an acked record
      could exist only on unreachable logs.  Otherwise: bump the epoch,
      take primaryship, move the ship observer, clear waiters (their acks
      died with the old primary; clients retry against the new one).
   3. REPLAY (async, epoch-guarded): flush the candidate's own buffered
      tail, pick the winning log — greatest (last barrier epoch, length)
      among the candidate's and every fetched log, which is guaranteed to
      contain every acked record (see the module header) — append the new
      epoch's barrier, rewrite the candidate's WAL to exactly that,
      replay it (Service.recover), re-register under the logical name,
      open for business, resume shipping (which reconciles the others).

   Calling it twice with the same [from_epoch] — two backups racing after
   the same lease expiry, or a double force in a test — commits exactly
   once: the loser's CAS fails.  A candidate that crashes mid-replay
   leaves the group not-ready until another lease expiry promotes someone
   else (the epoch guard abandons the corpse's replay). *)
let promote t ~member:j ~from_epoch =
  let cand = t.g_members.(j) in
  if t.g_epoch = from_epoch && (not cand.m_promoting) && Net.host_up t.g_net cand.m_host
  then begin
    cand.m_promoting <- true;
    let others =
      Array.to_list t.g_members
      |> List.mapi (fun i m -> (i, m))
      |> List.filter (fun (i, _) -> i <> j)
    in
    let replies = ref [] in
    let pending = ref (List.length others) in
    let finished = ref false in
    let finish () =
      finished := true;
      cand.m_promoting <- false;
      if
        t.g_epoch = from_epoch
        && Net.host_up t.g_net cand.m_host
        && 1 + List.length !replies >= majority t
      then begin
        (* CAS commit. *)
        let target = from_epoch + 1 in
        t.g_epoch <- target;
        t.g_primary <- j;
        t.g_ready <- false;
        t.g_promotions <- t.g_promotions + 1;
        t.g_waiters <- [];
        let now = Engine.now t.g_engine in
        Array.iteri
          (fun i m ->
            m.m_inflight <- false;
            m.m_last_hb <- now;
            if i <> j then begin
              m.m_have_dirty <- true;
              m.m_acked <- 0;
              Journal.set_ship (journal m) None
            end)
          t.g_members;
        Journal.set_ship (journal cand) (observe t);
        Stats.incr (Net.stats t.g_net) "repl.promote";
        (* Replay phase.  First make the candidate's own buffered tail
           durable (shipped records still in its group-commit window must
           be on disk before the logs are compared), then select, rewrite,
           replay. *)
        Journal.sync (journal cand) (fun () ->
            if t.g_epoch = target && Net.host_up t.g_net cand.m_host then begin
              let mine = Journal.log_records (journal cand) in
              let won =
                List.fold_left
                  (fun best log ->
                    let score = (Journal.last_barrier log, List.length log) in
                    match best with
                    | Some (bscore, _) when bscore >= score -> best
                    | _ -> Some (score, log))
                  None
                  (mine :: List.map snd !replies)
                |> function Some (_, log) -> log | None -> mine
              in
              let full = won @ [ Journal.barrier target ] in
              Journal.log_rewrite (journal cand) full (fun () ->
                  if t.g_epoch = target && Net.host_up t.g_net cand.m_host then
                    Service.recover cand.m_svc ~on_done:(fun () ->
                        if t.g_epoch = target && Net.host_up t.g_net cand.m_host then begin
                          (* Rebuild the stream bookkeeping from what we
                             actually hold: anything beyond it was never
                             quorum-acked and is gone for good.  The
                             rewrite framed [full] from offset 0. *)
                          let n = List.length full in
                          let offs = Array.make (max 64 n) 0 in
                          t.g_end <-
                            List.fold_left
                              (fun (i, off) r ->
                                offs.(i) <- off;
                                (i + 1, off + Frame.header + String.length r))
                              (0, 0) full
                            |> snd;
                          t.g_offs <- offs;
                          t.g_count <- n;
                          t.g_local_durable <- n;
                          set_log cand n;
                          Service.reregister cand.m_svc;
                          t.g_ready <- true;
                          List.iter
                            (fun f -> f cand.m_svc)
                            (List.rev t.g_on_promote);
                          ship_all t
                        end))
            end)
      end
    in
    if others = [] then finish ()
    else
      List.iter
        (fun (i, other) ->
          Net.rpc t.g_net ~category:"repl.fetch" ~size:64
            ~timeout:(2.0 *. heartbeat) ~src:cand.m_host ~dst:other.m_host
            (fun reply -> reply (Ok (Journal.log_records (journal other))))
            (fun result ->
              (match result with
              | Ok log -> replies := (i, log) :: !replies
              | Error _ -> ());
              decr pending;
              (* Commit as soon as a majority is assembled instead of
                 sitting out the dead peers' fetch timeouts — a majority
                 already guarantees the winning log carries every acked
                 record, and failover latency is the product being sold
                 here.  Late replies find [finished] set.  With no
                 majority, the final reply still runs [finish] so the
                 abort path clears [m_promoting]. *)
              if
                (not !finished)
                && (1 + List.length !replies >= majority t || !pending = 0)
              then finish ()))
        others
  end

(* --- heartbeats and leases (one STATIC periodic timer per member) --- *)

(* The timers are created once and never cancelled: whether a member acts
   as primary (announce liveness, re-kick shipping) or as backup (check
   the lease) is decided by data each tick, so crash/restart cycles cannot
   leak or lose timers — the PR 1 heartbeat-leak class is structurally
   impossible here, and test_shard.ml asserts the pending-timer count is
   crash-invariant. *)
let tick t j () =
  let m = t.g_members.(j) in
  if Net.host_up t.g_net m.m_host then begin
    if t.g_primary = j then begin
      let epoch = t.g_epoch in
      Array.iteri
        (fun i other ->
          if i <> j then
            Net.send t.g_net ~category:"repl.hb" ~size:24 ~src:m.m_host ~dst:other.m_host
              (fun () ->
                if t.g_epoch = epoch && Net.host_up t.g_net other.m_host then
                  other.m_last_hb <- Engine.now t.g_engine))
        t.g_members;
      ship_all t
    end
    else begin
      (* Staggered leases: the lowest-indexed live backup's lease expires
         first, and its promotion commit refreshes everyone's [m_last_hb],
         so later candidates stand down — deterministic, no elections. *)
      let expiry = lease +. (stagger *. float_of_int j) in
      if Engine.now t.g_engine -. m.m_last_hb > expiry && not m.m_promoting then
        promote t ~member:j ~from_epoch:t.g_epoch
    end
  end

let create net ~members:svcs =
  if Array.length svcs = 0 then invalid_arg "Replica.create: empty group";
  if Array.length svcs > 1 && Array.exists (fun s -> Option.is_none (Service.journal s)) svcs then
    invalid_arg "Replica.create: every member of a replicated group needs a disk";
  let name = Service.name svcs.(0) in
  (* One name, one WAL file name, one frame key: a backup appends the
     primary's frames as they lie. *)
  if Array.exists (fun s -> Service.name s <> name) svcs then
    invalid_arg "Replica.create: every member of a group needs the same service name";
  let engine = Net.engine net in
  let now = Engine.now engine in
  let members =
    Array.map
      (fun svc ->
        {
          m_svc = svc;
          m_journal = Service.journal svc;
          m_host = Service.host svc;
          m_acked = 0;
          m_have = 0;
          m_view = [||];
          m_have_dirty = false;
          m_inflight = false;
          m_promoting = false;
          m_last_hb = now;
        })
      svcs
  in
  let t =
    {
      g_net = net;
      g_engine = engine;
      g_name = name;
      g_members = members;
      g_primary = 0;
      g_epoch = 0;
      g_ready = true;
      g_offs = Array.make 64 0;
      g_count = 0;
      g_end = 0;
      g_local_durable = 0;
      g_waiters = [];
      g_on_promote = [];
      g_promotions = 0;
    }
  in
  if Array.length members > 1 then begin
    Array.iteri
      (fun j m ->
        Service.set_auto_recover m.m_svc false;
        Journal.set_quorum (journal m) (fun k -> quorum_sync t j k);
        Net.on_crash net m.m_host (fun () ->
            m.m_have_dirty <- true;
            m.m_inflight <- false;
            m.m_promoting <- false;
            if t.g_primary = j then begin
              (* In-flight client acks die with the primary: the routed
                 retry re-runs the (idempotent) op against whoever leads
                 next. *)
              t.g_waiters <- [];
              Array.iter (fun o -> o.m_inflight <- false) t.g_members
            end);
        Net.on_restart net m.m_host (fun () ->
            m.m_have_dirty <- true;
            m.m_last_hb <- Engine.now engine;
            if t.g_primary = j then
              (* The group never moved off us (no majority could form, or
                 the lease never expired): resume through the same promote
                 path, re-fetching any suffix that out-lived our buffer. *)
              promote t ~member:j ~from_epoch:t.g_epoch);
        ignore
          (Engine.every engine
             ~tag:("t:" ^ Net.host_name m.m_host)
             ~period:heartbeat (tick t j)))
      members;
    Journal.set_ship (journal members.(0)) (observe t)
  end;
  t

(* --- fingerprint (model checking) --- *)

let fp_key = Oasis_util.Siphash.key_of_string "oasis.replica.fingerprint"

let fingerprint t =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "%s|e%d|p%d|r%b|c%d|d%d|w%d" t.g_name t.g_epoch t.g_primary t.g_ready
       t.g_count t.g_local_durable
       (List.length t.g_waiters));
  (* In-flight progress is state: two worlds with equal cursors but one
     pending promotion (or ship RPC, or un-fired ack waiter) reach
     different futures, and hashing them as identical would let the model
     checker prune interleavings that differ only in failover progress. *)
  Array.iter
    (fun m ->
      Buffer.add_string b
        (Printf.sprintf ";a%d,h%d,i%b,p%b" m.m_acked m.m_have m.m_inflight m.m_promoting))
    t.g_members;
  Oasis_util.Siphash.hash fp_key (Buffer.contents b)
