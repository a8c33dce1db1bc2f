module Net = Oasis_sim.Net
module Engine = Oasis_sim.Engine
module Clock = Oasis_sim.Clock
module Trace = Oasis_sim.Trace

(* Each item carries the trace context that was ambient when its event was
   signalled: a coalesced event sits in [ss_pending] until the heartbeat
   tick, by which time the ambient context at the flushing [Net.send] is the
   tick's, not the signaller's — restoring the per-item context around the
   client callback keeps causality through the batching. *)
type item = int * Event.t * Trace.ctx option

type delivery = { d_seq : int; d_items : item list; d_horizon : float }

(* Client-side registration state.  The template is kept so the session can
   re-register after a reconnection; [cr_last_seen] (the highest event seq
   processed) makes replayed/retried deliveries exactly-once per
   registration — server event seqs are monotone and survive crashes. *)
type creg = {
  cr_tpl : Event.template;
  cr_cb : Event.t -> unit;
  cr_floor : float;  (* replay floor: original ~since, or horizon at registration *)
  mutable cr_last_seen : int;
}

type session = {
  s_net : Net.t;
  s_host : Net.host;
  s_server : server;
  s_creds : string list;
  mutable s_id : int;
  mutable s_callbacks : (int * creg) list;
  mutable s_horizon : float;
  mutable s_last_seq : int;  (* last in-order delivery seq processed *)
  s_pending : (int, delivery) Hashtbl.t;  (* held out-of-order deliveries *)
  mutable s_stale : bool;
  mutable s_last_rx : float;  (* true time of last traffic; local measure *)
  mutable s_hb_seen : int;
  (* Horizon advances stashed while deliveries are known to be missing: the
     pair is (best horizon seen, delivery seq it is contingent on).  Without
     this, a heartbeat racing a resent event could release a [without]
     candidate that a late blocker should kill. *)
  mutable s_stash_horizon : float;
  mutable s_stash_upto : int;
  mutable s_on_horizon : (float -> unit) list;
  mutable s_on_stale : (bool -> unit) list;
  mutable s_closed : bool;
  mutable s_reconnecting : bool;
  mutable s_stale_timer : Engine.timer option;
  mutable s_next_reg : int;
}

and sess_srv = {
  ss_id : int;
  ss_client : session;
  ss_host : Net.host;
  mutable ss_regs : (int * Event.template) list;
  mutable ss_seq : int;  (* next delivery stream seq *)
  ss_buffer : (int, delivery) Hashtbl.t;  (* unacked deliveries *)
  mutable ss_pending : item list;  (* coalesced, reverse order *)
  mutable ss_acked : int;
  mutable ss_missed_acks : int;
  mutable ss_live : bool;
}

and server = {
  b_net : Net.t;
  b_host : Net.host;
  b_name : string;
  b_heartbeat : float;
  b_retention : float;
  b_horizon_lag : float;
  mutable b_seq : int;
  mutable b_last_stamp : float;
  mutable b_sessions : sess_srv list;
  b_retained : (float * Event.t) Queue.t;  (* (true_time_added, event) *)
  mutable b_admission : credentials:string list -> bool;
  mutable b_reg_filter : credentials:string list -> Event.template -> Event.template option;
  mutable b_next_session : int;
  b_creds : (int, string list) Hashtbl.t;  (* session id -> credentials *)
  b_coalesce : bool;
  mutable b_on_tick : (unit -> unit) list;
  mutable b_hb_timer : Engine.timer option;
  mutable b_stopped : bool;
  b_wal : Oasis_store.Wal.t option;  (* durable retained-event log *)
  mutable b_wal_signals : int;  (* appends since last compaction *)
}

type registration = {
  r_session : session;
  r_id : int;
  mutable r_active : bool;
}

let server_name srv = srv.b_name
let server_host srv = srv.b_host
let server_heartbeat srv = srv.b_heartbeat
let sessions srv = List.length srv.b_sessions
let session_server s = s.s_server

let purge_retained srv =
  let now = Engine.now (Net.engine srv.b_net) in
  let rec go () =
    match Queue.peek_opt srv.b_retained with
    | Some (t, _) when now -. t > srv.b_retention ->
        ignore (Queue.pop srv.b_retained);
        go ()
    | _ -> ()
  in
  go ()

(* --- durable retained-event log codec (used with [~disk]) ---

   One WAL record per retained event.  Fields are joined with ['\x1f'];
   strings are hex-encoded so arbitrary payload bytes cannot collide with
   the separator, and floats use the hexadecimal [%h] form for exact
   round-trips.  The decoder is total: a record it cannot parse is
   skipped (the WAL framing already discards torn bytes, so this only
   guards against a log written by a different version). *)

let hex_enc = Oasis_util.Hex.encode
let hex_dec = Oasis_util.Hex.decode

let encode_retained (t, (e : Event.t)) =
  String.concat "\x1f"
    [
      Printf.sprintf "%h" t;
      hex_enc e.Event.name;
      hex_enc e.Event.source;
      Printf.sprintf "%h" e.Event.stamp;
      string_of_int e.Event.seq;
      String.concat "\x1e"
        (Array.to_list (Array.map (fun v -> hex_enc (Oasis_rdl.Value.marshal v)) e.Event.params));
    ]

let decode_retained line =
  match String.split_on_char '\x1f' line with
  | [ t; name; source; stamp; seq; params ] ->
      let ( let* ) = Option.bind in
      let* t = float_of_string_opt t in
      let* name = hex_dec name in
      let* source = hex_dec source in
      let* stamp = float_of_string_opt stamp in
      let* seq = int_of_string_opt seq in
      let param_fields = if params = "" then [] else String.split_on_char '\x1e' params in
      let rec decode_params acc = function
        | [] -> Some (List.rev acc)
        | p :: rest ->
            let* raw = hex_dec p in
            let* v = Oasis_rdl.Value.unmarshal raw in
            decode_params (v :: acc) rest
      in
      let* params = decode_params [] param_fields in
      Some (t, Event.make ~name ~source ~stamp ~seq params)
  | _ -> None

(* A client acks once per this many heartbeats; a server drops a session
   that goes eight times as many without an ack. *)
let ack_every = 4

let rec create_server net host ~name ?(heartbeat = 1.0) ?(retention = 10.0) ?(horizon_lag = 0.0)
    ?(coalesce = false) ?disk () =
  let wal =
    match disk with
    | None -> None
    | Some disk ->
        Some (Oasis_store.Wal.create disk ~file:(Printf.sprintf "broker.%s.wal" name) ())
  in
  let srv =
    {
      b_net = net;
      b_host = host;
      b_name = name;
      b_heartbeat = heartbeat;
      b_retention = retention;
      b_horizon_lag = horizon_lag;
      b_seq = 0;
      b_last_stamp = neg_infinity;
      b_sessions = [];
      b_retained = Queue.create ();
      b_admission = (fun ~credentials:_ -> true);
      b_reg_filter = (fun ~credentials:_ tpl -> Some tpl);
      b_next_session = 0;
      b_creds = Hashtbl.create 8;
      b_coalesce = coalesce;
      b_on_tick = [];
      b_hb_timer = None;
      b_stopped = false;
      b_wal = wal;
      b_wal_signals = 0;
    }
  in
  (* A host crash loses the server's volatile state: live sessions and
     their delivery buffers.  Without [~disk] the retained-event log is
     assumed to sit on stable storage and survives by fiat; with [~disk]
     it lives in the simulated device's WAL, so the in-memory copy is
     dropped here and rebuilt from the durable bytes on restart (events
     whose group commit had not completed are genuinely lost — the
     durability window the e17 experiment measures).  The monotone
     event-seq / session-id / stamp counters survive either way (tiny
     NVRAM: a restart must not reuse identifiers still held by old
     clients). *)
  Net.on_crash net host (fun () ->
      srv.b_sessions <- [];
      Hashtbl.reset srv.b_creds;
      if Option.is_some srv.b_wal then Queue.clear srv.b_retained);
  (match wal with
  | None -> ()
  | Some w ->
      Net.on_restart net host (fun () ->
          Queue.clear srv.b_retained;
          List.iter
            (fun line ->
              match decode_retained line with
              | Some (t, e) ->
                  Queue.push (t, e) srv.b_retained;
                  if e.Event.seq >= srv.b_seq then srv.b_seq <- e.Event.seq + 1;
                  if e.Event.stamp > srv.b_last_stamp then srv.b_last_stamp <- e.Event.stamp
              | None -> ())
            (Oasis_store.Wal.recover w);
          purge_retained srv;
          srv.b_wal_signals <- 0));
  (* Heartbeats to every live session.  Tick hooks run first, so payloads
     they produce (e.g. a service's invalidation digest) are matched into
     the per-session coalesce buffers and ride this very tick; a session
     with pending coalesced items then gets ONE message that both delivers
     the batch and beats the heart, keeping steady-state traffic O(peers)
     per period rather than O(events). *)
  let engine = Net.engine net in
  srv.b_hb_timer <-
    Some
      (Engine.every engine ~tag:("t:" ^ Net.host_name host) ~period:heartbeat (fun () ->
           if (not srv.b_stopped) && Net.host_up net host then begin
             List.iter (fun f -> f ()) (List.rev srv.b_on_tick);
             let horizon = Clock.read (Net.host_clock host) -. srv.b_horizon_lag in
             List.iter
               (fun ss ->
                 if ss.ss_live then begin
                   (* A server drops a client that has not acknowledged for a
                      long period (§4.10: "can assume that it is no longer
                      running"). *)
                   ss.ss_missed_acks <- ss.ss_missed_acks + 1;
                   if ss.ss_missed_acks > 8 * ack_every then begin
                     ss.ss_live <- false;
                     srv.b_sessions <- List.filter (fun s -> s != ss) srv.b_sessions
                   end
                   else
                     let client = ss.ss_client in
                     let sid = ss.ss_id in
                     match ss.ss_pending with
                     | [] ->
                         let upto = ss.ss_seq - 1 in
                         Net.send net ~category:"evt.heartbeat" ~size:24 ~src:host
                           ~dst:ss.ss_host (fun () -> client_heartbeat client sid horizon upto)
                     | pending ->
                         let items = List.rev pending in
                         ss.ss_pending <- [];
                         (* Buffer under the next stream seq exactly like an
                            immediate delivery, so nack/resend and ack pruning
                            see nothing unusual. *)
                         let d = { d_seq = ss.ss_seq; d_items = items; d_horizon = horizon } in
                         ss.ss_seq <- ss.ss_seq + 1;
                         Hashtbl.replace ss.ss_buffer d.d_seq d;
                         let upto = ss.ss_seq - 1 in
                         Net.send net ~category:"evt.heartbeat"
                           ~size:(24 + (64 * List.length items))
                           ~src:host ~dst:ss.ss_host
                           (fun () ->
                             client_deliver client sid d;
                             client_heartbeat client sid horizon upto)
                 end)
               srv.b_sessions
           end));
  srv

(* Traffic from a superseded server-side incarnation (the client has since
   reconnected, or a reconnect it never heard about succeeded server-side)
   must not touch the current stream: sequence numbers restart per
   incarnation, so mixing them would corrupt gap detection and ack
   pruning.  Both heartbeats and deliveries therefore carry the session id
   they were emitted for, and the client drops mismatches. *)
and client_heartbeat s sid horizon upto =
  if (not s.s_closed) && sid = s.s_id then begin
    rx s;
    s.s_hb_seen <- s.s_hb_seen + 1;
    if s.s_last_seq >= upto then advance_horizon s horizon
    else begin
      (* Deliveries outstanding: the horizon is only safe once they land. *)
      if horizon > s.s_stash_horizon then begin
        s.s_stash_horizon <- horizon;
        s.s_stash_upto <- max s.s_stash_upto upto
      end;
      let srv = s.s_server in
      let from = s.s_last_seq + 1 in
      Net.send s.s_net ~category:"evt.nack" ~size:16 ~src:s.s_host ~dst:srv.b_host (fun () ->
          server_nack srv sid from)
    end;
    if s.s_hb_seen mod ack_every = 0 then
      let last = s.s_last_seq in
      let srv = s.s_server in
      Net.send s.s_net ~category:"evt.ack" ~size:16 ~src:s.s_host ~dst:srv.b_host (fun () ->
          server_ack srv sid last)
  end

and rx s =
  s.s_last_rx <- Engine.now (Net.engine s.s_net);
  if s.s_stale then begin
    s.s_stale <- false;
    List.iter (fun f -> f false) s.s_on_stale;
    (* Resynchronise: ask the server to resend anything we missed. *)
    let srv = s.s_server in
    let sid = s.s_id in
    let from = s.s_last_seq + 1 in
    Net.send s.s_net ~category:"evt.nack" ~size:16 ~src:s.s_host ~dst:srv.b_host (fun () ->
        server_nack srv sid from)
  end

and advance_horizon s h =
  if h > s.s_horizon then begin
    s.s_horizon <- h;
    List.iter (fun f -> f h) s.s_on_horizon
  end

and server_ack srv sid last =
  match List.find_opt (fun ss -> ss.ss_id = sid) srv.b_sessions with
  | None -> ()
  | Some ss ->
      ss.ss_missed_acks <- 0;
      if last > ss.ss_acked then begin
        for seq = ss.ss_acked + 1 to last do
          Hashtbl.remove ss.ss_buffer seq
        done;
        ss.ss_acked <- last
      end

and server_nack srv sid from =
  match List.find_opt (fun ss -> ss.ss_id = sid) srv.b_sessions with
  | None -> ()
  | Some ss ->
      let seqs = Hashtbl.fold (fun k _ acc -> if k >= from then k :: acc else acc) ss.ss_buffer [] in
      List.iter
        (fun seq ->
          (* Total even if the buffer entry vanished between the snapshot
             and this send (an ack pruning it, or adversarial reorderings
             the model checker drives): a missing delivery is simply no
             longer resendable — account it, never raise. *)
          match Hashtbl.find_opt ss.ss_buffer seq with
          | None -> Oasis_sim.Stats.incr (Net.stats srv.b_net) "evt.resend.gone"
          | Some d ->
              let client = ss.ss_client in
              Net.send srv.b_net ~category:"evt.resend" ~size:(64 * List.length d.d_items)
                ~src:srv.b_host ~dst:ss.ss_host (fun () -> client_deliver client ss.ss_id d))
        (List.sort Int.compare seqs)

and client_deliver s sid d =
  if (not s.s_closed) && sid = s.s_id then begin
    rx s;
    if d.d_seq <= s.s_last_seq then () (* duplicate *)
    else if d.d_seq = s.s_last_seq + 1 then begin
      process_delivery s d;
      let last_horizon = ref d.d_horizon in
      (* Drain any held out-of-order deliveries that are now in order. *)
      let rec drain () =
        match Hashtbl.find_opt s.s_pending (s.s_last_seq + 1) with
        | Some next ->
            Hashtbl.remove s.s_pending next.d_seq;
            process_delivery s next;
            last_horizon := next.d_horizon;
            drain ()
        | None -> ()
      in
      drain ();
      (* An in-order horizon is safe: everything the server sent before it
         has been processed.  Release any stashed heartbeat horizon that was
         waiting on these deliveries. *)
      advance_horizon s !last_horizon;
      if s.s_last_seq >= s.s_stash_upto then advance_horizon s s.s_stash_horizon
    end
    else begin
      (* Out of order: hold, stash the horizon contingent on the gap, nack. *)
      Hashtbl.replace s.s_pending d.d_seq d;
      if d.d_horizon > s.s_stash_horizon then begin
        s.s_stash_horizon <- d.d_horizon;
        s.s_stash_upto <- max s.s_stash_upto d.d_seq
      end;
      let srv = s.s_server in
      let from = s.s_last_seq + 1 in
      Net.send s.s_net ~category:"evt.nack" ~size:16 ~src:s.s_host ~dst:srv.b_host (fun () ->
          server_nack srv sid from)
    end
  end

and process_delivery s d =
  s.s_last_seq <- d.d_seq;
  let tracer = Net.trace s.s_net in
  List.iter
    (fun (reg_id, event, ctx) ->
      match List.assoc_opt reg_id s.s_callbacks with
      | Some cr ->
          (* Event seqs are monotone per server and survive restarts, so
             this suppresses duplicates introduced by retries, re-sent
             registrations and reconnection replays. *)
          if event.Event.seq > cr.cr_last_seen then begin
            cr.cr_last_seen <- event.Event.seq;
            match ctx with
            | None -> cr.cr_cb event
            | Some _ -> Trace.with_ctx tracer ctx (fun () -> cr.cr_cb event)
          end
      | None -> () (* deregistered while in flight *))
    d.d_items

let on_heartbeat_tick srv f = srv.b_on_tick <- f :: srv.b_on_tick

let set_admission srv f = srv.b_admission <- f
let set_registration_filter srv f = srv.b_reg_filter <- f

let server_horizon srv =
  Clock.read (Net.host_clock srv.b_host) -. srv.b_horizon_lag

let push_delivery srv ss items =
  let d = { d_seq = ss.ss_seq; d_items = items; d_horizon = server_horizon srv } in
  ss.ss_seq <- ss.ss_seq + 1;
  Hashtbl.replace ss.ss_buffer d.d_seq d;
  let client = ss.ss_client in
  Net.send srv.b_net ~category:"evt.deliver" ~size:(48 + (64 * List.length items))
    ~src:srv.b_host ~dst:ss.ss_host (fun () -> client_deliver client ss.ss_id d)

let signal srv ?stamp name params =
  let stamp =
    match stamp with
    | Some s -> s
    | None ->
        (* Monotone stamps keep the advertised horizon honest. *)
        let c = Clock.read (Net.host_clock srv.b_host) in
        max c (srv.b_last_stamp +. 1e-9)
  in
  srv.b_last_stamp <- max srv.b_last_stamp stamp;
  let event = Event.make ~name ~source:srv.b_name ~stamp ~seq:srv.b_seq params in
  srv.b_seq <- srv.b_seq + 1;
  purge_retained srv;
  let now = Engine.now (Net.engine srv.b_net) in
  Queue.push (now, event) srv.b_retained;
  (match srv.b_wal with
  | None -> ()
  | Some w ->
      Oasis_store.Wal.append w (encode_retained (now, event));
      srv.b_wal_signals <- srv.b_wal_signals + 1;
      (* Compaction: the log otherwise grows without bound while the
         in-memory queue stays at one retention window; rewrite it to the
         currently-retained suffix every so often (atomic, crash-safe). *)
      if srv.b_wal_signals >= 256 then begin
        srv.b_wal_signals <- 0;
        let records =
          Queue.fold (fun acc it -> encode_retained it :: acc) [] srv.b_retained |> List.rev
        in
        Oasis_store.Wal.rewrite w records (fun () -> ())
      end);
  List.iter
    (fun ss ->
      if ss.ss_live then
        let ctx = Trace.current (Net.trace srv.b_net) in
        let items =
          List.filter_map
            (fun (reg_id, tpl) ->
              match Event.matches tpl event with
              | Some _ -> Some (reg_id, event, ctx)
              | None -> None)
            ss.ss_regs
        in
        if items <> [] then
          if srv.b_coalesce then
            (* Hold for the next heartbeat tick; [rev_append] keeps the
               buffer in reverse-chronological order so the flush can
               restore chronology with one [List.rev]. *)
            ss.ss_pending <- List.rev_append items ss.ss_pending
          else push_delivery srv ss items)
    srv.b_sessions;
  event

(* --- client operations --- *)

let find_sess srv sid = List.find_opt (fun ss -> ss.ss_id = sid) srv.b_sessions

(* Server-side session establishment, shared by first connects and
   reconnections.  [replacing] cleans up the caller's previous incarnation
   so a reconnect after a network (rather than server) failure does not
   leave a zombie session accumulating missed acks. *)
let attach srv ~host ~credentials ~session ?replacing () =
  if srv.b_stopped then Error "server stopped"
  else if not (srv.b_admission ~credentials) then Error "admission denied"
  else begin
    (match replacing with
    | Some old ->
        srv.b_sessions <- List.filter (fun ss -> ss.ss_id <> old) srv.b_sessions;
        Hashtbl.remove srv.b_creds old
    | None -> ());
    let id = srv.b_next_session in
    srv.b_next_session <- id + 1;
    Hashtbl.replace srv.b_creds id credentials;
    let ss =
      {
        ss_id = id;
        ss_client = session;
        ss_host = host;
        ss_regs = [];
        ss_seq = 0;
        ss_buffer = Hashtbl.create 16;
        ss_pending = [];
        ss_acked = -1;
        ss_missed_acks = 0;
        ss_live = true;
      }
    in
    srv.b_sessions <- ss :: srv.b_sessions;
    Ok id
  end

(* The wire half of registration.  Reliable: a lost registration would
   leave the session deaf to matching events with nothing downstream to
   notice, so it rides [rpc_retry].  The handler is idempotent at the
   server (a re-sent registration replaces, not duplicates) and client-side
   duplicate suppression makes any resulting replay exactly-once, so
   retries are safe. *)
let send_register session ?since reg_id tpl =
  let srv = session.s_server in
  let sid = session.s_id in
  Net.rpc_retry session.s_net ~category:"evt.register" ~size:96 ~src:session.s_host
    ~dst:srv.b_host
    (fun () ->
      match find_sess srv sid with
      | None -> Ok ()
      | Some ss -> (
          let credentials = Option.value ~default:[] (Hashtbl.find_opt srv.b_creds sid) in
          match srv.b_reg_filter ~credentials tpl with
          | None -> Ok () (* policy rejected: the client simply never hears events *)
          | Some tpl ->
              ss.ss_regs <- (reg_id, tpl) :: List.remove_assoc reg_id ss.ss_regs;
              (* Retrospective registration: replay retained matching events
                 from [since] in stamp order (§6.8.1). *)
              (match since with
              | None -> ()
              | Some since ->
                  purge_retained srv;
                  let replay =
                    Queue.fold
                      (fun acc (_, e) ->
                        if e.Event.stamp >= since && Event.matches tpl e <> None then e :: acc
                        else acc)
                      [] srv.b_retained
                    |> List.rev
                  in
                  if replay <> [] then
                    push_delivery srv ss (List.map (fun e -> (reg_id, e, None)) replay));
              Ok ()))
    (fun (_ : (unit, string) result) -> ())

(* Bind the session to a fresh server-side incarnation and re-register
   everything retrospectively from the last safe horizon, so no retained
   event is lost across a server crash (§4.10 recovery). *)
let rebind session id =
  session.s_id <- id;
  session.s_last_seq <- -1;
  Hashtbl.reset session.s_pending;
  session.s_stash_horizon <- neg_infinity;
  session.s_stash_upto <- -1;
  rx session;
  (* recovery callbacks (e.g. external-record rereads) fired by [rx] *)
  List.iter
    (fun (reg_id, cr) ->
      let since = Float.max cr.cr_floor session.s_horizon in
      send_register session ~since reg_id cr.cr_tpl)
    (List.rev session.s_callbacks)

let try_reconnect session =
  session.s_reconnecting <- true;
  let srv = session.s_server in
  let old_id = session.s_id in
  Net.rpc_retry session.s_net ~category:"evt.reconnect"
    ~size:(64 + (16 * List.length session.s_creds))
    ~timeout:srv.b_heartbeat ~attempts:4
    ~backoff:(srv.b_heartbeat /. 4.0)
    ~src:session.s_host ~dst:srv.b_host
    (fun () ->
      attach srv ~host:session.s_host ~credentials:session.s_creds ~session ~replacing:old_id
        ())
    (fun result ->
      session.s_reconnecting <- false;
      match result with
      | Error _ -> () (* still unreachable: the staleness timer tries again *)
      | Ok id -> if not session.s_closed then rebind session id)

let connect net host srv ?(credentials = []) ~on_result () =
  let session =
    {
      s_net = net;
      s_host = host;
      s_server = srv;
      s_creds = credentials;
      s_id = -1;
      s_callbacks = [];
      s_horizon = neg_infinity;
      s_last_seq = -1;
      s_pending = Hashtbl.create 4;
      s_stale = false;
      s_last_rx = Engine.now (Net.engine net);
      s_hb_seen = 0;
      s_stash_horizon = neg_infinity;
      s_stash_upto = -1;
      s_on_horizon = [];
      s_on_stale = [];
      s_closed = false;
      s_reconnecting = false;
      s_stale_timer = None;
      s_next_reg = 0;
    }
  in
  Net.rpc net ~category:"evt.connect" ~size:(64 + (16 * List.length credentials)) ~src:host
    ~dst:srv.b_host
    (fun () -> attach srv ~host ~credentials ~session ())
    (fun result ->
      match result with
      | Error e -> on_result (Error e)
      | Ok id ->
          session.s_id <- id;
          (* Staleness detector: a local timer, needing no server traffic.
             Prolonged staleness means the server has probably lost this
             session (host crash, §4.10): reconnect with backoff and
             re-register retrospectively from the last horizon. *)
          let engine = Net.engine net in
          session.s_stale_timer <-
            Some
              (Engine.every engine
                 ~tag:("t:" ^ Net.host_name session.s_host)
                 ~period:(srv.b_heartbeat /. 2.0)
                 (fun () ->
                   if (not session.s_closed) && Net.host_up net session.s_host then begin
                     let silent = Engine.now engine -. session.s_last_rx in
                     if (not session.s_stale) && silent > 1.5 *. srv.b_heartbeat then begin
                       session.s_stale <- true;
                       List.iter (fun f -> f true) session.s_on_stale
                     end;
                     if
                       session.s_stale
                       && (not session.s_reconnecting)
                       && silent > 3.0 *. srv.b_heartbeat
                     then try_reconnect session
                   end));
          on_result (Ok session))

let register session ?since tpl callback =
  let reg_id = session.s_next_reg in
  session.s_next_reg <- reg_id + 1;
  let cr =
    {
      cr_tpl = tpl;
      cr_cb = callback;
      cr_floor = (match since with Some s -> s | None -> session.s_horizon);
      cr_last_seen = -1;
    }
  in
  session.s_callbacks <- (reg_id, cr) :: session.s_callbacks;
  send_register session ?since reg_id tpl;
  { r_session = session; r_id = reg_id; r_active = true }

let deregister reg =
  if reg.r_active then begin
    reg.r_active <- false;
    let session = reg.r_session in
    session.s_callbacks <- List.remove_assoc reg.r_id session.s_callbacks;
    let srv = session.s_server in
    let sid = session.s_id in
    let reg_id = reg.r_id in
    Net.send session.s_net ~category:"evt.deregister" ~size:16 ~src:session.s_host
      ~dst:srv.b_host (fun () ->
        match find_sess srv sid with
        | None -> ()
        | Some ss -> ss.ss_regs <- List.remove_assoc reg_id ss.ss_regs)
  end

let pre_register session tpl =
  let srv = session.s_server in
  Net.send session.s_net ~category:"evt.preregister" ~size:96 ~src:session.s_host
    ~dst:srv.b_host (fun () ->
      (* Retention is server-wide and shared between clients (§6.8.1), so
         pre-registration costs the server nothing extra per client; it is
         accounted so experiments can compare traffic. *)
      ignore tpl)

let horizon session = session.s_horizon
let stale session = session.s_stale
let on_horizon session f = session.s_on_horizon <- f :: session.s_on_horizon
let on_staleness session f = session.s_on_stale <- f :: session.s_on_stale

let close session =
  if not session.s_closed then begin
    session.s_closed <- true;
    (match session.s_stale_timer with
    | Some tm ->
        Engine.cancel tm;
        session.s_stale_timer <- None
    | None -> ());
    let srv = session.s_server in
    let sid = session.s_id in
    Net.send session.s_net ~category:"evt.close" ~size:16 ~src:session.s_host ~dst:srv.b_host
      (fun () -> srv.b_sessions <- List.filter (fun ss -> ss.ss_id <> sid) srv.b_sessions)
  end

let shutdown_server srv =
  if not srv.b_stopped then begin
    srv.b_stopped <- true;
    (match srv.b_hb_timer with
    | Some tm ->
        Engine.cancel tm;
        srv.b_hb_timer <- None
    | None -> ());
    srv.b_sessions <- [];
    Hashtbl.reset srv.b_creds
  end

let server_buffered srv =
  List.fold_left (fun acc ss -> acc + Hashtbl.length ss.ss_buffer) 0 srv.b_sessions

(* --- state fingerprint (model checking) --- *)

let fp_key = Oasis_util.Siphash.key_of_string "oasis.broker.fingerprint"

let fingerprint srv =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "%d,%h,%d,%b;" srv.b_seq srv.b_last_stamp srv.b_next_session srv.b_stopped);
  Queue.iter
    (fun entry ->
      Buffer.add_string b (encode_retained entry);
      Buffer.add_char b '\x1d')
    srv.b_retained;
  List.iter
    (fun ss ->
      Buffer.add_string b
        (Printf.sprintf "s%d:%d:%d:%b:" ss.ss_id ss.ss_seq ss.ss_acked ss.ss_live);
      let seqs =
        Hashtbl.fold (fun k _ acc -> k :: acc) ss.ss_buffer [] |> List.sort Int.compare
      in
      List.iter
        (fun s ->
          Buffer.add_string b (string_of_int s);
          Buffer.add_char b ',')
        seqs;
      Buffer.add_string b (string_of_int (List.length ss.ss_pending));
      Buffer.add_char b ';')
    (List.sort (fun a c -> Int.compare a.ss_id c.ss_id) srv.b_sessions);
  Oasis_util.Siphash.hash fp_key (Buffer.contents b)
