module Value = Oasis_rdl.Value
module Stats = Oasis_sim.Stats
module Trace = Oasis_sim.Trace
module Net = Oasis_sim.Net
module Engine = Oasis_sim.Engine
module Broker = Oasis_events.Broker
module Event = Oasis_events.Event

(* A peer link: the local face of another service (fig 4.8): one broker
   session plus the external records mirroring that peer's credential
   records. *)
type link = {
  pl_peer : string;
  mutable pl_session : Broker.session option;
  mutable pl_connecting : bool;
  mutable pl_queued : (Broker.session -> unit) list;
  pl_externals : (string, Credrec.cref) Hashtbl.t;  (* remote ref -> local surrogate *)
  mutable pl_batch_reg : bool;  (* ModifiedBatch registration installed *)
  pl_reread_pending : (string, unit) Hashtbl.t;  (* keys awaiting post-heal reread *)
  mutable pl_rereading : bool;  (* a batched reread is in flight / scheduled *)
  mutable pl_bound_host : string;
      (* host the live session's broker runs on; when the peer's registry
         entry moves to another host (replica failover, see {!Replica}) the
         stale session can never heal and the link must rebind *)
  mutable pl_retargeting : bool;  (* a stale-session registry watch is scheduled *)
  pl_regs : (string, Broker.registration) Hashtbl.t;
      (* remote ref -> its own Modified registration, at an unbatched
         issuer only *)
}

type t = {
  c_net : Net.t;
  c_host : Net.host;
  c_name : string;
  c_table : Credrec.table;
  c_lookup : string -> t option;
  c_broker : Broker.server;
  c_batch : bool;
  c_peers : (string, link) Hashtbl.t;
  c_armed : (string, unit) Hashtbl.t;  (* local refs armed for Modified events *)
  c_pending : (string, string) Hashtbl.t;  (* local ref -> latest state *)
  c_pending_ctx : (string, Trace.ctx) Hashtbl.t;
      (* trace context ambient when each pending change was recorded, so
         the digest flush can join the revocation trace that caused it *)
}

let broker c = c.c_broker
let stats c = Net.stats c.c_net
let tracer c = Net.trace c.c_net

(* --- Modified events for records other services depend on --- *)

let arm c cref =
  let key = Credrec.marshal_ref cref in
  if not (Hashtbl.mem c.c_armed key) then begin
    Hashtbl.replace c.c_armed key ();
    Credrec.on_change c.c_table cref (fun st ->
        let state_str =
          match st with Credrec.True -> "true" | Credrec.False -> "false" | Credrec.Unknown -> "unknown"
        in
        if c.c_batch then begin
          (* Coalesce: only the latest state per record matters; the
             heartbeat-tick hook turns the buffer into one digest event. *)
          Hashtbl.replace c.c_pending key state_str;
          match Trace.current (tracer c) with
          | Some ctx -> Hashtbl.replace c.c_pending_ctx key ctx
          | None -> ()
        end
        else ignore (Broker.signal c.c_broker "Modified" [ Value.Str key; Value.Str state_str ]))
  end

(* Batched notification: record changes accumulate in [c_pending] and are
   flushed as ONE ModifiedBatch digest at the top of each broker heartbeat
   tick, so the digest rides that very tick's coalesced heartbeat message
   (steady-state: O(peers) messages per period, §4.10). *)
let flush c =
  if Hashtbl.length c.c_pending > 0 then begin
    let mods =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) c.c_pending []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    Hashtbl.reset c.c_pending;
    Stats.observe (stats c) "oasis.mods.flush" (List.length mods);
    let digest = String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) mods) in
    (* The flush span's parent is the buffered context with the earliest
       origin: a digest merging several bursts is attributed to the oldest
       one it carries, so no end-to-end latency is under-reported. *)
    let tr = tracer c in
    let parent =
      Hashtbl.fold
        (fun _ ctx acc ->
          match acc with
          | Some best when Trace.origin best <= Trace.origin ctx -> acc
          | _ -> Some ctx)
        c.c_pending_ctx None
    in
    Hashtbl.reset c.c_pending_ctx;
    let sp = Trace.start tr ?parent "revoke.flush" in
    Trace.add_attr sp "mods" (string_of_int (List.length mods));
    Trace.with_ctx tr
      (Some (Trace.ctx_of sp))
      (fun () -> ignore (Broker.signal c.c_broker "ModifiedBatch" [ Value.Str digest ]));
    Trace.finish tr sp
  end

let pending c = Hashtbl.fold (fun k v acc -> (k ^ "=" ^ v) :: acc) c.c_pending []

let create net host ~name ~table ~lookup ~heartbeat ~batch ~disk =
  let c =
    {
      c_net = net;
      c_host = host;
      c_name = name;
      c_table = table;
      c_lookup = lookup;
      c_broker = Broker.create_server net host ~name ~heartbeat ~coalesce:batch ?disk ();
      c_batch = batch;
      c_peers = Hashtbl.create 8;
      c_armed = Hashtbl.create 64;
      c_pending = Hashtbl.create 64;
      c_pending_ctx = Hashtbl.create 64;
    }
  in
  if batch then Broker.on_heartbeat_tick c.c_broker (fun () -> flush c);
  c

(* --- external records (§4.9, fig 4.8) --- *)

let link c peer_name =
  match Hashtbl.find_opt c.c_peers peer_name with
  | Some pl -> pl
  | None ->
      let pl =
        {
          pl_peer = peer_name;
          pl_session = None;
          pl_connecting = false;
          pl_queued = [];
          pl_externals = Hashtbl.create 16;
          pl_batch_reg = false;
          pl_reread_pending = Hashtbl.create 16;
          pl_rereading = false;
          pl_bound_host = "";
          pl_retargeting = false;
          pl_regs = Hashtbl.create 16;
        }
      in
      Hashtbl.replace c.c_peers peer_name pl;
      pl

(* Batched post-heal reread: one RPC per peer link carrying every pending
   key, instead of one RPC per external record.  The handler is a pure read,
   so when the RPC exhausts its retry budget mid-batch the WHOLE batch is
   simply retried after a heartbeat period — idempotent, and keys that were
   already answered by a racing digest event are reconciled last-writer-wins
   by [Credrec.set_leaf]. *)
let rec reread_pending c pl peer session =
  match pl.pl_session with
  | Some s when s == session && not (Broker.stale session) ->
      let keys =
        Hashtbl.fold (fun k () acc -> k :: acc) pl.pl_reread_pending []
        |> List.sort String.compare
      in
      if keys = [] then pl.pl_rereading <- false
      else begin
        pl.pl_rereading <- true;
        (* Post-heal recovery is its own trace root (staleness, not any one
           revocation, caused it); the span stays open across retries and
           closes when the batch lands or is rescheduled. *)
        let tr = tracer c in
        let sp = Trace.start tr "revoke.reread" in
        Trace.add_attr sp "keys" (string_of_int (List.length keys));
        Trace.with_ctx tr
          (Some (Trace.ctx_of sp))
          (fun () ->
            Net.rpc c.c_net ~category:"oasis.reread"
              ~size:(32 + (16 * List.length keys))
              ~attempts:Net.retry_attempts ~src:c.c_host ~dst:peer.c_host
              (fun reply ->
                reply
                  (Ok
                     (List.filter_map
                        (fun key ->
                          Option.map
                            (fun r -> (key, Credrec.state peer.c_table r))
                            (Credrec.unmarshal_ref key))
                        keys)))
              (function
                | Ok states ->
                    List.iter
                      (fun (key, st) ->
                        Hashtbl.remove pl.pl_reread_pending key;
                        match Hashtbl.find_opt pl.pl_externals key with
                        | Some local -> Credrec.set_leaf c.c_table local st
                        | None -> ())
                      states;
                    Trace.finish tr sp;
                    (* Anything queued while the batch was in flight. *)
                    reread_pending c pl peer session
                | Error _ ->
                    Trace.finish tr sp;
                    Engine.schedule (Net.engine c.c_net)
                      ~delay:(Broker.server_heartbeat peer.c_broker)
                      (fun () -> reread_pending c pl peer session)))
      end
  | _ -> pl.pl_rereading <- false

let state_of_string = function
  | "true" -> Credrec.True
  | "false" -> Credrec.False
  | _ -> Credrec.Unknown

(* Apply one ModifiedBatch digest ("key=state;key=state;...") to the link's
   mirrored externals.  Keys not mirrored here are skipped; re-application
   (retries, retained-log replays after reconnect) is idempotent. *)
let apply_mod_digest c pl digest =
  let tr = tracer c in
  Trace.with_span tr "revoke.apply" (fun () ->
      List.iter
        (fun item ->
          match String.index_opt item '=' with
          | None -> ()
          | Some i -> (
              let key = String.sub item 0 i in
              let state = String.sub item (i + 1) (String.length item - i - 1) in
              match Hashtbl.find_opt pl.pl_externals key with
              | None -> ()
              | Some local -> Credrec.set_leaf c.c_table local (state_of_string state)))
        (String.split_on_char ';' digest);
      (* This hop closes the paper's revocation path: invalidation at the
         issuer -> digest -> heartbeat flush -> this peer's recompute.  The
         context carries the root's start time, so the distance from it is
         the end-to-end propagation latency. *)
      match Trace.current tr with
      | Some ctx -> Stats.observe_latency (stats c) "oasis.revoke.e2e" (Trace.since_origin tr ctx)
      | None -> ())

let live_link c pl =
  match Hashtbl.find_opt c.c_peers pl.pl_peer with Some pl' -> pl' == pl | None -> false

(* One connect attempt to a peer's broker.  Failure does not abandon the
   link: if continuations are still queued (a recovery-time reread, a
   pending notification registration) the attempt is retried after a peer
   heartbeat, for as long as this link is still the live one in
   [c_peers] — a crash on our side resets the peer table and orphans the
   loop, which then stops. *)
let rec connect_peer c pl peer =
  pl.pl_connecting <- true;
  Broker.connect c.c_net c.c_host peer.c_broker
    ~credentials:[ "service:" ^ c.c_name ]
    ~on_result:(fun result ->
      pl.pl_connecting <- false;
      match result with
      | Error _ ->
          if pl.pl_queued <> [] then
            Engine.schedule (Net.engine c.c_net)
              ~delay:(Broker.server_heartbeat peer.c_broker)
              (fun () ->
                if
                  live_link c pl && pl.pl_session = None && (not pl.pl_connecting)
                  && pl.pl_queued <> []
                then connect_peer c pl peer)
      | Ok session ->
          pl.pl_session <- Some session;
          pl.pl_bound_host <- Net.host_name peer.c_host;
          (* §4.10: missed heartbeats mark every external record
             from this peer Unknown; recovery batch-rereads the
             states over one reliable RPC per link. *)
          Broker.on_staleness session (fun is_stale ->
              if is_stale then begin
                Hashtbl.iter
                  (fun _ local_ref ->
                    Credrec.set_leaf c.c_table local_ref Credrec.Unknown)
                  pl.pl_externals;
                (* While stale, watch the registry: if the peer's entry
                   moves to another host (replica failover), this session
                   can never heal — the watch rebinds the link to the new
                   primary's broker. *)
                if not pl.pl_retargeting then begin
                  pl.pl_retargeting <- true;
                  Engine.schedule (Net.engine c.c_net)
                    ~delay:(Broker.server_heartbeat c.c_broker)
                    (fun () -> retarget_watch c pl session)
                end
              end
              else resync c pl);
          let queued = List.rev pl.pl_queued in
          pl.pl_queued <- [];
          List.iter (fun k -> k session) queued)
    ()

and with_peer_session c pl k =
  match pl.pl_session with
  | Some s -> k s
  | None ->
      pl.pl_queued <- k :: pl.pl_queued;
      if not pl.pl_connecting then (
        match c.c_lookup pl.pl_peer with
        | None -> () (* unknown peer: queued actions never run; externals stay Unknown *)
        | Some peer -> connect_peer c pl peer)

(* Re-sync a link: queue every mirrored record for a reread, then start
   the batched reread once a session is up — after a stale session heals,
   after a failover rebinds the link, and after recovery re-mirrors the
   externals at Unknown. *)
and resync c pl =
  Hashtbl.iter (fun key _ -> Hashtbl.replace pl.pl_reread_pending key ()) pl.pl_externals;
  match c.c_lookup pl.pl_peer with
  | None -> ()
  | Some peer ->
      with_peer_session c pl (fun session ->
          if not pl.pl_rereading then reread_pending c pl peer session)

(* Subscribe the link to changes of the mirrored record [key], whose local
   surrogate is [local] — on first mirroring, and again for every mirrored
   record when a failover rebinds the link to another broker.  A batching
   issuer needs one ModifiedBatch registration per link, covering every
   record; otherwise each record needs its own Modified template (and the
   issuer's signal path scans O(records) registrations per change). *)
and subscribe c pl key local =
  let issuer_batches =
    match c.c_lookup pl.pl_peer with Some peer -> peer.c_batch | None -> false
  in
  if not issuer_batches then
    with_peer_session c pl (fun session ->
        (* A sweep may have dropped the mirror while the session was
           still connecting. *)
        if Hashtbl.find_opt pl.pl_externals key = Some local then begin
          let tpl = Event.template "Modified" [ Event.Lit (Value.Str key); Event.Any ] in
          Hashtbl.replace pl.pl_regs key
            (Broker.register session tpl (fun e ->
                 match e.Event.params with
                 | [| _; Value.Str state |] ->
                     Credrec.set_leaf c.c_table local (state_of_string state)
                 | _ -> ()))
        end)
  else if not pl.pl_batch_reg then begin
    pl.pl_batch_reg <- true;
    with_peer_session c pl (fun session ->
        let tpl = Event.template "ModifiedBatch" [ Event.Any ] in
        ignore
          (Broker.register session tpl (fun e ->
               match e.Event.params with
               | [| Value.Str digest |] -> apply_mod_digest c pl digest
               | _ -> ())))
  end

(* The stale-session registry watch (armed by the staleness hook in
   [connect_peer]): while a peer session is stale, poll the registry once
   per heartbeat.  If the peer's registered service has moved to a
   different host — a replica group promoted a backup — drop the dead
   session and rebind the link: re-subscribe every mirrored external at the
   new primary's broker and re-sync the link there, so revocation
   notifications flow again.  If the peer heals in place (same host
   restarted), the ordinary §4.10 reread path takes over and the watch
   stands down. *)
and retarget_watch c pl session =
  let current =
    match pl.pl_session with Some s -> s == session | None -> false
  in
  if not (live_link c pl && current) then pl.pl_retargeting <- false
  else if not (Broker.stale session) then pl.pl_retargeting <- false
  else
    match c.c_lookup pl.pl_peer with
    | Some peer when not (String.equal (Net.host_name peer.c_host) pl.pl_bound_host) ->
        pl.pl_retargeting <- false;
        Broker.close session;
        pl.pl_session <- None;
        pl.pl_batch_reg <- false;
        pl.pl_rereading <- false;
        Stats.incr (stats c) "oasis.peer.retarget";
        Hashtbl.iter (subscribe c pl) pl.pl_externals;
        resync c pl
    | _ ->
        Engine.schedule (Net.engine c.c_net)
          ~delay:(Broker.server_heartbeat c.c_broker)
          (fun () -> retarget_watch c pl session)

(* Create (or reuse) the local surrogate for a remote credential record and
   subscribe to its changes. *)
let mirror c ~peer ~remote ~initial =
  let pl = link c peer in
  let key = Credrec.marshal_ref remote in
  match Hashtbl.find_opt pl.pl_externals key with
  | Some local when Credrec.live c.c_table local ->
      Credrec.set_leaf c.c_table local initial;
      local
  | _ ->
      let local = Credrec.leaf c.c_table ~state:initial () in
      Hashtbl.replace pl.pl_externals key local;
      subscribe c pl key local;
      local

(* Check a certificate at its issuing service over the validation RPC
   (§2.10), then mirror its credential record here as an external record,
   so a later revocation at the issuer propagates like any other external
   dependency.  [check] runs at the issuer and answers through its reply;
   with [attempts] above 1 it may run again, so it must be idempotent. *)
let validate_at c ~issuer ~category ~attempts check k =
  Net.rpc c.c_net ~category ~attempts ~backoff:0.5 ~src:c.c_host ~dst:issuer.c_host check
    (function
      | Error e -> k (Error e)
      | Ok (roles, args, remote) ->
          let local = mirror c ~peer:issuer.c_name ~remote ~initial:Credrec.True in
          k (Ok (roles, args, remote, local)))

let resync_all c = Hashtbl.iter (fun _ pl -> resync c pl) c.c_peers

(* After a sweep: a mirror whose surrogate went lets go of its pending
   reread and, at an unbatched issuer, of its own registration. *)
let prune c =
  Hashtbl.iter
    (fun _ pl ->
      Hashtbl.filter_map_inplace
        (fun key local ->
          if Credrec.live c.c_table local then Some local
          else begin
            Hashtbl.remove pl.pl_reread_pending key;
            Option.iter Broker.deregister (Hashtbl.find_opt pl.pl_regs key);
            Hashtbl.remove pl.pl_regs key;
            None
          end)
        pl.pl_externals)
    c.c_peers

let crash c =
  Hashtbl.iter
    (fun _ pl ->
      Option.iter Broker.close pl.pl_session;
      Hashtbl.iter (fun _ surrogate -> Credrec.forget c.c_table surrogate) pl.pl_externals)
    c.c_peers

let reset c =
  Hashtbl.reset c.c_peers;
  Hashtbl.reset c.c_armed;
  Hashtbl.reset c.c_pending;
  Hashtbl.reset c.c_pending_ctx
