module Disk = Oasis_store.Disk
module Wal = Oasis_store.Wal
module Snapshot = Oasis_store.Snapshot
module Hex = Oasis_util.Hex

(* Constructor order is part of the log format: [issue] sorts dependency
   lists with the polymorphic compare. *)
type dep = Ext of string * string | Loc of string

type issued = {
  mutable i_alive : bool;  (* False once explicitly invalidated *)
  i_line : string;
      (* the record's [I] journal line, as logged: its dependency list and
         its (role, marshalled args, revoker role) §4.11 revocation arms,
         decoded only when recovery re-creates them; checkpoints copy it *)
}

type t = {
  disk : Disk.t;
  wal : Wal.t;
  snap : Snapshot.t;
  snapshot_every : int;  (* the checkpoint cadence's floor, in appends *)
  blacklist : (string * string, unit) Hashtbl.t;  (* the service's; F/H mirror it *)
  issued : (string, issued) Hashtbl.t;  (* marshalled local ref -> record *)
  mutable appends : int;  (* WAL appends since the last snapshot *)
  mutable snapshot_records : int;  (* records in the last snapshot written or loaded *)
  mutable tail : string list;
      (* newest-first records appended while a checkpoint is in flight: up
         to its rewrite, exactly what the log must still hold past the
         serialize point; empty when no checkpoint is in flight *)
  mutable compacting : bool;  (* a snapshot+rewrite cycle is in flight *)
  mutable quorum : ((unit -> unit) -> unit) option;
      (* the replica group's write-quorum hook; also disables compaction *)
}

let create disk ~name ~snapshot_every ~blacklist =
  {
    disk;
    wal = Wal.create disk ~file:("svc." ^ name ^ ".wal") ();
    snap = Snapshot.create disk ~file:("svc." ^ name ^ ".snap");
    snapshot_every;
    blacklist;
    issued = Hashtbl.create 64;
    appends = 0;
    snapshot_records = 0;
    tail = [];
    compacting = false;
    quorum = None;
  }

(* --- the record format ---

   One record per logged transition; fields are separated by ['\x1f'],
   list items by ['\x1e'], item subfields by ['\x1d'].  Free-form bytes
   (role names, marshalled argument strings, peer names) are hex-encoded
   so they cannot collide with the separators; record keys are already
   separator-free ([Credrec.marshal_ref] is hex plus a dot).  The grammar:

   - [F role args]       fire: blacklist the role instance (§4.11)
   - [H role args]       re-hire: drop the blacklist entry
   - [I key deps rbrs]   certificate issued over record [key]
   - [V key]             record [key] explicitly invalidated
   - [B epoch]           a replica group's epoch barrier: the log is a
                         prefix of that epoch's stream; replay skips it

   A snapshot payload is the same records (current blacklist, then each
   issued record followed by its [V] if dead) joined with ['\x1c'];
   replaying the full log over a snapshot is idempotent because every
   record is an upsert. *)

let rec_fire (role, argskey) = String.concat "\x1f" [ "F"; Hex.encode role; Hex.encode argskey ]
let rec_hire (role, argskey) = String.concat "\x1f" [ "H"; Hex.encode role; Hex.encode argskey ]
let rec_invalidate key = String.concat "\x1f" [ "V"; key ]
let barrier epoch = String.concat "\x1f" [ "B"; string_of_int epoch ]

let last_barrier records =
  List.fold_left
    (fun acc r ->
      match String.split_on_char '\x1f' r with
      | [ "B"; e ] -> ( match int_of_string_opt e with Some e -> e | None -> acc)
      | _ -> acc)
    0 records

let enc_dep = function
  | Ext (peer, rkey) -> String.concat "\x1d" [ "E"; Hex.encode peer; rkey ]
  | Loc key -> String.concat "\x1d" [ "L"; key ]

let dec_dep s =
  match String.split_on_char '\x1d' s with
  | [ "E"; peer; rkey ] -> Option.map (fun p -> Ext (p, rkey)) (Hex.decode peer)
  | [ "L"; key ] -> Some (Loc key)
  | _ -> None

let enc_rbr (role, argskey, revoker) =
  String.concat "\x1d" [ Hex.encode role; Hex.encode argskey; Hex.encode revoker ]

let dec_rbr s =
  match String.split_on_char '\x1d' s with
  | [ role; argskey; revoker ] ->
      let ( let* ) = Option.bind in
      let* role = Hex.decode role in
      let* argskey = Hex.decode argskey in
      let* revoker = Hex.decode revoker in
      Some (role, argskey, revoker)
  | _ -> None

let rec_issue key deps rbrs =
  String.concat "\x1f"
    [
      "I";
      key;
      String.concat "\x1e" (List.map enc_dep deps);
      String.concat "\x1e" (List.map enc_rbr rbrs);
    ]

let split_items s = if s = "" then [] else String.split_on_char '\x1e' s

(* The dependency list and revocation arms of an [I] line. *)
let dec_issue line =
  match String.split_on_char '\x1f' line with
  | [ "I"; _; deps; rbrs ] ->
      (List.filter_map dec_dep (split_items deps), List.filter_map dec_rbr (split_items rbrs))
  | _ -> ([], [])

(* Apply one log record to the mirror (blacklist + issued table).  Total
   and idempotent: recovery replays snapshot then log in order. *)
let apply_record j line =
  match String.split_on_char '\x1f' line with
  | [ "F"; role; argskey ] -> (
      match (Hex.decode role, Hex.decode argskey) with
      | Some role, Some argskey -> Hashtbl.replace j.blacklist (role, argskey) ()
      | _ -> ())
  | [ "H"; role; argskey ] -> (
      match (Hex.decode role, Hex.decode argskey) with
      | Some role, Some argskey -> Hashtbl.remove j.blacklist (role, argskey)
      | _ -> ())
  | [ "I"; key; _; _ ] -> Hashtbl.replace j.issued key { i_alive = true; i_line = line }
  | [ "V"; key ] -> (
      match Hashtbl.find_opt j.issued key with
      | Some i -> i.i_alive <- false
      | None -> ())
  | _ -> ()

(* --- checkpoint and compact --- *)

(* Dead issued records are dropped from the checkpoint (and purged from
   the in-memory mirror), so the snapshot stays O(live state) under churn
   instead of O(history).  Dropping is safe: a dropped identity is never
   restored, so references to it dangle and read permanently False — the
   paper's licence to delete records whose value is false forever — and a
   later fresh allocation of the slot bumps the magic past the dropped
   identity, so old references cannot resurrect against new records. *)
let serialize_mirror j =
  let dead =
    Hashtbl.fold (fun key i acc -> if i.i_alive then acc else key :: acc) j.issued []
  in
  List.iter (Hashtbl.remove j.issued) dead;
  let fires =
    Hashtbl.fold (fun key () acc -> rec_fire key :: acc) j.blacklist []
    |> List.sort String.compare
  in
  let issues =
    Hashtbl.fold (fun _ i acc -> i.i_line :: acc) j.issued [] |> List.sort String.compare
  in
  j.snapshot_records <- Hashtbl.length j.blacklist + Hashtbl.length j.issued;
  String.concat "\x1c" (fires @ issues)

(* Checkpoint: serialize the mirror (covering every record up to this
   instant), save it, then compact the log down to the records appended
   since the serialize point — [tail], which accumulates only while the
   snapshot write is in flight, and whose racing appends also survive the
   rewrite's atomic replace by {!Disk.write_atomic}'s append-preserving
   semantics.  Crash windows are safe at every step: before the snapshot
   is durable the old snapshot + old log recover; between snapshot and
   rewrite the new snapshot + old log recover (the log is a contiguous
   history suffix reaching past the snapshot point, so in-order replay
   over the snapshot converges on the pre-crash state).

   The cadence is amortized: a checkpoint starts once the log has grown
   by as many records as the last snapshot held, and never before
   [snapshot_every] appends.  A snapshot of S records then costs at most
   one snapshot record per append, whatever the live set; the log holds
   at most [max snapshot_every S] records plus those racing a checkpoint,
   and recovery replays at most 2S + [snapshot_every] of them.  Live
   state under the floor checkpoints every [snapshot_every] appends.

   Replicated journals never compact: the WAL is the replica group's
   shipped record stream, and every member's log must stay a prefix of it
   in GLOBAL coordinates — a compacted primary and an uncompacted backup
   would disagree about what "record #n" is.  Recovery is O(history) for
   them; the replica protocol (tail fetch at promotion) depends on exactly
   that full history being present. *)
let maybe_snapshot j =
  if
    Option.is_none j.quorum
    && j.appends >= max j.snapshot_every j.snapshot_records
    && not j.compacting
  then begin
    j.appends <- 0;
    j.compacting <- true;
    Snapshot.save j.snap (serialize_mirror j) (fun () ->
        let tail = List.rev j.tail in
        j.tail <- [];
        Wal.rewrite j.wal tail (fun () ->
            j.tail <- [];
            j.compacting <- false))
  end

let append j line =
  Wal.append j.wal line;
  if j.compacting then j.tail <- line :: j.tail;
  j.appends <- j.appends + 1;
  maybe_snapshot j

(* --- journalled transitions --- *)

let fire j key = append j (rec_fire key)
let hire j key = append j (rec_hire key)

let issue j ~key ~deps ~rbrs =
  if not (Hashtbl.mem j.issued key) then begin
    let line = rec_issue key (List.sort_uniq compare deps) (List.sort_uniq compare rbrs) in
    Hashtbl.replace j.issued key { i_alive = true; i_line = line };
    append j line
  end

let invalidate j key =
  match Hashtbl.find_opt j.issued key with
  | Some i when i.i_alive ->
      i.i_alive <- false;
      append j (rec_invalidate key)
  | _ -> ()

let ack j k = match j.quorum with Some quorum -> quorum k | None -> Wal.sync j.wal k

(* --- the issued mirror --- *)

let live_issued j = Hashtbl.fold (fun key i acc -> if i.i_alive then key :: acc else acc) j.issued []
let live_count j = Hashtbl.fold (fun _ i n -> if i.i_alive then n + 1 else n) j.issued 0
let iter_issued j f = Hashtbl.iter (fun key _ -> f key) j.issued

let reset j =
  Hashtbl.reset j.issued;
  j.appends <- 0;
  j.snapshot_records <- 0;
  j.tail <- [];
  j.compacting <- false

(* --- recovery --- *)

let stored_bytes j =
  Disk.durable_size j.disk ~file:(Wal.file j.wal)
  + Disk.durable_size j.disk ~file:(Snapshot.file j.snap)

let scan_delay j = Disk.scan_delay j.disk ~bytes:(stored_bytes j)

let replay j =
  let snap_records =
    match Snapshot.load j.snap with
    | None | Some "" -> []
    | Some payload -> String.split_on_char '\x1c' payload
  in
  let log_records = Wal.recover j.wal in
  j.snapshot_records <- List.length snap_records;
  List.iter (apply_record j) (snap_records @ log_records);
  j.snapshot_records + List.length log_records

type entry = Dead | Live of dep list * (string * string * string) list

let issued_keys j = Hashtbl.fold (fun k _ acc -> k :: acc) j.issued [] |> List.sort String.compare

let lookup j key =
  match Hashtbl.find_opt j.issued key with
  | None -> None
  | Some i when not i.i_alive -> Some Dead
  | Some i ->
      let deps, rbrs = dec_issue i.i_line in
      Some (Live (deps, rbrs))

(* --- replication --- *)

let set_quorum j quorum = j.quorum <- Some quorum
let set_ship j obs = Wal.on_append j.wal obs
let sync j k = Wal.sync j.wal k
let follower_append j frames off len = Wal.follower_append j.wal frames off len
let frame_end j s off = Wal.frame_end j.wal s off
let log_bytes j ~off ~len = Wal.read j.wal ~off ~len
let log_records j = Wal.recover j.wal

(* Mirror bookkeeping is not rebuilt here: only replicated journals
   rewrite, and they never compact, so the counters are inert. *)
let log_rewrite j records k = Wal.rewrite j.wal records k
let flush j = Wal.flush j.wal

(* --- fingerprint --- *)

let fingerprint j =
  let b = Buffer.create 256 in
  List.iter
    (fun x ->
      Buffer.add_string b x;
      Buffer.add_char b '\x02')
    (Hashtbl.fold (fun k i acc -> (k ^ if i.i_alive then "+" else "-") :: acc) j.issued []
    |> List.sort String.compare);
  Buffer.add_char b '\x03';
  Buffer.add_string b (Int64.to_string (Disk.fingerprint j.disk));
  Buffer.contents b
