(* Deterministic chaos harness: host crash/restart, reliable RPC with
   backoff, broker crash-recovery and end-to-end revocation convergence
   under scripted fault schedules (§4.10).

   Every scenario is driven by seeded PRNGs and virtual time, so a failure
   reproduces exactly. *)

module Engine = Oasis_sim.Engine
module Net = Oasis_sim.Net
module Fault = Oasis_sim.Fault
module Stats = Oasis_sim.Stats
module Trace = Oasis_sim.Trace
module Prng = Oasis_util.Prng
module Event = Oasis_events.Event
module Broker = Oasis_events.Broker
module Disk = Oasis_store.Disk
module Service = Oasis_core.Service
module Group = Oasis_core.Group
module Principal = Oasis_core.Principal
module V = Oasis_rdl.Value

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- the fault plane itself --- *)

let test_fault_script () =
  let engine = Engine.create () in
  let stats = Stats.create () in
  let f = Fault.create engine stats in
  Fault.script f [ (1.0, Fault.Crash 0); (2.0, Fault.Restart 0); (1.5, Fault.Link_down (0, 1)) ];
  let up_at = ref [] in
  List.iter
    (fun t -> Engine.schedule_at engine ~at:t (fun () -> up_at := (t, Fault.up f 0) :: !up_at))
    [ 0.5; 1.25; 2.5 ];
  Engine.schedule_at engine ~at:1.75 (fun () ->
      checkb "link down while scripted" false (Fault.link_ok f 0 1));
  Engine.run engine;
  checkb "up before crash" true (List.assoc 0.5 !up_at);
  checkb "down between crash and restart" false (List.assoc 1.25 !up_at);
  checkb "up after restart" true (List.assoc 2.5 !up_at);
  checki "one crash counted" 1 (Stats.count stats "fault.crash");
  checki "one restart counted" 1 (Stats.count stats "fault.restart")

let test_fault_chaos_heals_and_repeats () =
  let run_once () =
    let engine = Engine.create () in
    let stats = Stats.create () in
    let f = Fault.create ~seed:99L engine stats in
    Fault.chaos f ~hosts:[ 0; 1; 2 ] ~mtbf:3.0 ~mttr:0.5 ~until:20.0;
    Engine.run ~until:25.0 engine;
    checkb "all hosts healed by the deadline" true (List.for_all (Fault.up f) [ 0; 1; 2 ]);
    (Stats.count stats "fault.crash", Stats.count stats "fault.restart")
  in
  let c1, r1 = run_once () in
  let c2, r2 = run_once () in
  checkb "chaos actually crashed something" true (c1 >= 1);
  checki "every crash restarted" c1 r1;
  checkb "same seed, same schedule" true (c1 = c2 && r1 = r2)

let test_send_to_dead_host_accounted () =
  let engine = Engine.create () in
  let net = Net.create ~latency:(Net.Fixed 0.01) engine in
  let a = Net.add_host net "a" and b = Net.add_host net "b" in
  Net.crash_host net b;
  let got = ref false in
  Net.send net ~category:"probe" ~src:a ~dst:b (fun () -> got := true);
  Engine.run ~until:1.0 engine;
  checkb "not delivered" false !got;
  checki "accounted as dead" 1 (Stats.count (Net.stats net) "probe.dead");
  Net.restart_host net b;
  Net.send net ~category:"probe" ~src:a ~dst:b (fun () -> got := true);
  Engine.run ~until:2.0 engine;
  checkb "delivered after restart" true !got

(* --- reliable RPC --- *)

let test_rpc_retry_recovers () =
  let engine = Engine.create () in
  let net = Net.create ~latency:(Net.Fixed 0.01) engine in
  let a = Net.add_host net "a" and b = Net.add_host net "b" in
  Net.crash_host net b;
  Engine.schedule_at engine ~at:3.0 (fun () -> Net.restart_host net b);
  let result = ref None in
  Net.rpc net ~category:"r" ~attempts:5 ~src:a ~dst:b
    (fun reply -> reply (Ok "pong"))
    (fun r -> result := Some r);
  Engine.run ~until:20.0 engine;
  checkb "eventually succeeds" true (!result = Some (Ok "pong"));
  let st = Net.stats net in
  checkb "took more than one attempt" true (Stats.count st "r.attempt" > 1);
  checki "no giveup" 0 (Stats.count st "r.giveup")

let test_rpc_retry_gives_up () =
  let engine = Engine.create () in
  let net = Net.create ~latency:(Net.Fixed 0.01) engine in
  let a = Net.add_host net "a" and b = Net.add_host net "b" in
  Net.crash_host net b;
  let result = ref None in
  Net.rpc net ~category:"r" ~attempts:5 ~src:a ~dst:b
    (fun reply -> reply (Ok ()))
    (fun r -> result := Some r);
  Engine.run ~until:60.0 engine;
  checkb "error surfaced" true (!result = Some (Error "timeout"));
  let st = Net.stats net in
  checki "all attempts used" 5 (Stats.count st "r.attempt");
  checki "one giveup" 1 (Stats.count st "r.giveup")

(* The default single attempt is one plain try: a timeout surfaces at
   once, and no retry accounting runs. *)
let test_rpc_single_attempt_is_one_try () =
  let engine = Engine.create () in
  let net = Net.create ~latency:(Net.Fixed 0.01) engine in
  let a = Net.add_host net "a" and b = Net.add_host net "b" in
  Net.crash_host net b;
  let result = ref None in
  Net.rpc net ~category:"r" ~src:a ~dst:b
    (fun reply -> reply (Ok ()))
    (fun r -> result := Some (r, Engine.now engine));
  Engine.run ~until:60.0 engine;
  checkb "timeout after one timeout period" true (!result = Some (Error "timeout", 2.0));
  let st = Net.stats net in
  checki "one timeout" 1 (Stats.count st "r.timeout");
  checki "no attempt counted" 0 (Stats.count st "r.attempt");
  checki "no giveup counted" 0 (Stats.count st "r.giveup")

let test_rpc_no_retry_on_application_error () =
  let engine = Engine.create () in
  let net = Net.create ~latency:(Net.Fixed 0.01) engine in
  let a = Net.add_host net "a" and b = Net.add_host net "b" in
  let result = ref None in
  Net.rpc net ~category:"r" ~attempts:5 ~src:a ~dst:b
    (fun reply -> reply (Error "denied"))
    (fun r -> result := Some r);
  Engine.run ~until:10.0 engine;
  checkb "application error passes through" true (!result = Some (Error "denied"));
  checki "single attempt" 1 (Stats.count (Net.stats net) "r.attempt")

let test_rpc_late_reply_counted () =
  let engine = Engine.create () in
  let net = Net.create ~latency:(Net.Fixed 0.01) engine in
  let a = Net.add_host net "a" and b = Net.add_host net "b" in
  (* Slow reply leg only: the request arrives, the reply outlives the
     timeout.  The caller sees a timeout; the reply is discarded and
     counted, not delivered twice. *)
  Net.set_link_latency net b a (Net.Fixed 3.0);
  let results = ref [] in
  Net.rpc net ~category:"r" ~timeout:2.0 ~src:a ~dst:b
    (fun reply -> reply (Ok ()))
    (fun r -> results := r :: !results);
  Engine.run ~until:10.0 engine;
  checkb "timeout surfaced once" true (!results = [ Error "timeout" ]);
  checki "timeout counted" 1 (Stats.count (Net.stats net) "r.timeout");
  checki "late reply counted" 1 (Stats.count (Net.stats net) "r.late_reply")

(* --- broker under faults --- *)

type bworld = {
  engine : Engine.t;
  net : Net.t;
  server_host : Net.host;
  client_host : Net.host;
  server : Broker.server;
}

let make_bworld ?seed ?(heartbeat = 0.3) () =
  let engine = Engine.create () in
  let net = Net.create ?seed ~latency:(Net.Fixed 0.01) engine in
  let server_host = Net.add_host net "server" in
  let client_host = Net.add_host net "client" in
  let server = Broker.create_server net server_host ~name:"svc" ~heartbeat () in
  { engine; net; server_host; client_host; server }

let connect_now w =
  let session = ref None in
  Broker.connect w.net w.client_host w.server
    ~on_result:(function Ok s -> session := Some s | Error e -> Alcotest.failf "connect: %s" e)
    ();
  Engine.run ~until:(Engine.now w.engine +. 1.0) w.engine;
  match !session with Some s -> s | None -> Alcotest.fail "no session"

let run_for w dt = Engine.run ~until:(Engine.now w.engine +. dt) w.engine

let seqs_exactly_once_in_order n seqs =
  let seqs = List.rev seqs in
  List.length seqs = n && seqs = List.sort_uniq compare seqs

let test_broker_server_crash_recovery () =
  let w = make_bworld () in
  let s = connect_now w in
  let got = ref [] in
  let _ = Broker.register s (Event.template "E" [ Event.Any ]) (fun e -> got := e.Event.seq :: !got) in
  run_for w 0.5;
  (* Five events delivered live... *)
  for i = 0 to 4 do
    ignore (Broker.signal w.server "E" [ V.Int i ]);
    run_for w 0.1
  done;
  run_for w 0.5;
  checki "live deliveries" 5 (List.length !got);
  (* ...then the server host dies, taking its volatile sessions with it. *)
  Net.crash_host w.net w.server_host;
  run_for w 1.0;
  Net.restart_host w.net w.server_host;
  (* Signalled after restart but (possibly) before the client has
     reconnected: only the retained log holds these. *)
  for i = 5 to 9 do
    ignore (Broker.signal w.server "E" [ V.Int i ]);
    run_for w 0.1
  done;
  run_for w 10.0;
  checkb "zero lost, exactly once, in order" true (seqs_exactly_once_in_order 10 !got);
  checkb "client reconnected" true (Broker.sessions w.server >= 1)

let crash_loss_scenario seed =
  let w = make_bworld ~seed ~heartbeat:0.3 () in
  let s = connect_now w in
  let got = ref [] in
  let _ = Broker.register s (Event.template "E" [ Event.Any ]) (fun e -> got := e.Event.seq :: !got) in
  (* Fault schedule: a lossy window while events are being signalled, then
     a server crash/restart shortly after. *)
  Engine.schedule_at w.engine ~at:1.5 (fun () -> Net.set_loss w.net 0.3);
  Engine.schedule_at w.engine ~at:4.0 (fun () -> Net.set_loss w.net 0.0);
  Fault.script (Net.fault w.net)
    [ (5.0, Fault.Crash (Net.host_addr w.server_host));
      (6.0, Fault.Restart (Net.host_addr w.server_host)) ];
  for i = 0 to 29 do
    Engine.schedule_at w.engine ~at:(1.5 +. (0.1 *. float_of_int i)) (fun () ->
        ignore (Broker.signal w.server "E" [ V.Int i ]))
  done;
  Engine.run ~until:40.0 w.engine;
  checkb "30 events exactly once in order" true (seqs_exactly_once_in_order 30 !got);
  Stats.report (Net.stats w.net)

let test_broker_exactly_once_under_loss_and_crash () =
  (* Several seeds must all converge... *)
  let r7 = crash_loss_scenario 7L in
  ignore (crash_loss_scenario 8L);
  ignore (crash_loss_scenario 9L);
  (* ...and the whole run — every counter of every category — must be
     bit-identical when replayed with the same seed. *)
  let r7' = crash_loss_scenario 7L in
  checkb "same seed replays identically" true (r7 = r7')

let test_broker_nack_resend_and_ack_pruning () =
  let w = make_bworld ~heartbeat:0.5 () in
  let s = connect_now w in
  (* t=1.0 now; heartbeats fire at 0.5, 1.0, 1.5, ... *)
  let got = ref [] in
  let _ = Broker.register s (Event.template "E" [ Event.Any ]) (fun e -> got := e.Event.seq :: !got) in
  run_for w 0.5;
  (* Delay both legs so that: delivery 0 is severely delayed, delivery 1
     arrives first (a gap), the heartbeat at t=2.0 beats the nacked resend
     to the client (stashing its horizon against the open gap), and the
     resend then fills the gap and releases the stashed horizon. *)
  Engine.schedule_at w.engine ~at:1.55 (fun () ->
      Net.set_link_latency w.net w.server_host w.client_host (Net.Fixed 1.0);
      Net.set_link_latency w.net w.client_host w.server_host (Net.Fixed 0.5));
  Engine.schedule_at w.engine ~at:1.6 (fun () -> ignore (Broker.signal w.server "E" [ V.Int 0 ]));
  Engine.schedule_at w.engine ~at:1.7 (fun () ->
      Net.set_link_latency w.net w.server_host w.client_host (Net.Fixed 0.01));
  Engine.schedule_at w.engine ~at:1.8 (fun () -> ignore (Broker.signal w.server "E" [ V.Int 1 ]));
  Engine.schedule_at w.engine ~at:2.1 (fun () ->
      Net.set_link_latency w.net w.client_host w.server_host (Net.Fixed 0.01));
  Engine.run ~until:2.4 w.engine;
  (* The resend triggered by the client's nack filled the gap; the
     heartbeat horizon (~2.0) stashed while the gap was open must now have
     been released, even though the last delivery carried only ~1.8. *)
  checkb "gap filled by resend" true (seqs_exactly_once_in_order 2 !got);
  checkb "stashed heartbeat horizon released" true (Broker.horizon s >= 1.99);
  (* The duplicate of delivery 0 (the slow original) lands at ~2.6 and
     must be suppressed; acks then prune the server's resend buffer. *)
  Engine.run ~until:8.0 w.engine;
  checkb "duplicate suppressed" true (seqs_exactly_once_in_order 2 !got);
  checki "resend buffer pruned by acks" 0 (Broker.server_buffered w.server)

let test_broker_timers_drain () =
  let w = make_bworld ~heartbeat:0.5 () in
  let s = connect_now w in
  let _ = Broker.register s (Event.template "E" [ Event.Any ]) (fun _ -> ()) in
  run_for w 2.0;
  ignore (Broker.signal w.server "E" [ V.Int 0 ]);
  run_for w 2.0;
  Broker.close s;
  Broker.shutdown_server w.server;
  (* Cancelled periodic timers must not re-arm: once in-flight one-shots
     (rpc timeouts etc.) expire, the queue drains to empty. *)
  run_for w 30.0;
  checki "no leaked timers" 0 (Engine.pending w.engine)

(* --- end-to-end: revocation convergence across a service crash --- *)

let login_rolefile = {|
def LoggedOn(u, h) u: String h: String
LoggedOn(u, h) <-
|}

type sworld = {
  s_engine : Engine.t;
  s_net : Net.t;
  s_client_host : Net.host;
}

let fresh_vci =
  let host = Principal.Host.create "faultclienthost" in
  let domain = Principal.Host.boot_domain host in
  fun () -> Principal.Host.new_vci host domain

let srun w dt = Engine.run ~until:(Engine.now w.s_engine +. dt) w.s_engine

let conference_world ~seed =
  let engine = Engine.create () in
  let net = Net.create ~seed ~latency:(Net.Fixed 0.005) engine in
  let reg = Service.create_registry () in
  let client_host = Net.add_host net "client" in
  let mk name rolefile =
    let host = Net.add_host net ("h." ^ name) in
    match Service.create net host reg ~name ~rolefile () with
    | Ok s -> s
    | Error e -> Alcotest.failf "service %s: %s" name e
  in
  let login = mk "Login" login_rolefile in
  let conf =
    mk "Conf"
      {|
Chair <- Login.LoggedOn("jmb", h)
Member(u) <- Login.LoggedOn(u, h)* <|* Chair : (u in staff)*
|}
  in
  ({ s_engine = engine; s_net = net; s_client_host = client_host }, login, conf)

let entry_ok w svc ~client ~role ?creds ?delegation () =
  let result = ref None in
  Service.request_entry svc ~client_host:w.s_client_host ~client ~role ?creds ?delegation
    (fun r -> result := Some r);
  srun w 2.0;
  match !result with
  | Some (Ok c) -> c
  | Some (Error e) -> Alcotest.failf "entry to %s failed: %s" role e
  | None -> Alcotest.fail "entry did not complete"

let delegate w svc ~delegator ~using ~role ~required () =
  let result = ref None in
  Service.request_delegation svc ~client_host:w.s_client_host ~delegator ~using ~role ~required
    (fun r -> result := Some r);
  srun w 2.0;
  match !result with
  | Some (Ok dr) -> dr
  | Some (Error e) -> Alcotest.failf "delegation failed: %s" e
  | None -> Alcotest.fail "delegation did not complete"

(* The paper's §4.10 bound, under a crash: a revocation that happens while
   the issuing service's host is down must reach dependent services within
   a few heartbeat periods of the host coming back.  Returns the
   convergence delay after the heal. *)
let revocation_convergence ~seed =
  let w, login, conf = conference_world ~seed in
  Group.add (Service.group conf "staff") (V.Str "dm");
  let jmb = fresh_vci () in
  let jmb_cert =
    Service.issue_arbitrary login ~client:jmb ~roles:[ "LoggedOn" ]
      ~args:[ V.Str "jmb"; V.Str "ely" ]
  in
  let chair = entry_ok w conf ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  let dm = fresh_vci () in
  let dm_cert =
    Service.issue_arbitrary login ~client:dm ~roles:[ "LoggedOn" ]
      ~args:[ V.Str "dm"; V.Str "ely" ]
  in
  let d, _ =
    delegate w conf ~delegator:jmb ~using:chair ~role:"Member"
      ~required:[ ("Login", "LoggedOn", [ V.Str "dm"; V.Str "*" ]) ] ()
  in
  let member = entry_ok w conf ~client:dm ~role:"Member" ~creds:[ dm_cert ] ~delegation:d () in
  srun w 3.0;
  checkb "valid before the fault" true (Service.validate conf ~client:dm member = Ok ());
  (* Login's host dies; dm is logged off while it is down.  The Modified
     event is retained on Login's stable log but every delivery is dropped
     on the floor. *)
  Net.crash_host w.s_net (Service.host login);
  srun w 1.0;
  Service.revoke_certificate login dm_cert;
  srun w 2.0;
  checkb "not validated as ok while issuer down" true
    (Service.validate conf ~client:dm member <> Ok ());
  Net.restart_host w.s_net (Service.host login);
  let healed = Engine.now w.s_engine in
  let heartbeat = 1.0 (* Service.create default *) in
  let deadline = healed +. (3.0 *. heartbeat) in
  let rec poll () =
    if Service.validate conf ~client:dm member = Error Service.Revoked then
      Some (Engine.now w.s_engine -. healed)
    else if Engine.now w.s_engine >= deadline then None
    else begin
      srun w 0.05;
      poll ()
    end
  in
  match poll () with
  | None -> Alcotest.failf "no convergence within 3 heartbeats (seed %Ld)" seed
  | Some dt -> dt

let test_revocation_converges_after_crash () =
  let d1 = revocation_convergence ~seed:11L in
  let d2 = revocation_convergence ~seed:23L in
  checkb "bounded for seed 11" true (d1 <= 3.0);
  checkb "bounded for seed 23" true (d2 <= 3.0);
  (* Replaying a seed gives the same convergence time to the tick. *)
  let d1' = revocation_convergence ~seed:11L in
  checkb "deterministic replay" true (Float.equal d1 d1')

(* With batched (heartbeat-coalesced) notifications — the default — and a
   chaos schedule tormenting the issuing service's host, a revocation fired
   mid-chaos must still reach dependents within 3 heartbeat periods of the
   final heal.  Batching may not weaken §4.10's convergence bound. *)
let member_of_conf w login conf =
  Group.add (Service.group conf "staff") (V.Str "dm");
  let jmb = fresh_vci () in
  let jmb_cert =
    Service.issue_arbitrary login ~client:jmb ~roles:[ "LoggedOn" ]
      ~args:[ V.Str "jmb"; V.Str "ely" ]
  in
  let chair = entry_ok w conf ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  let dm = fresh_vci () in
  let dm_cert =
    Service.issue_arbitrary login ~client:dm ~roles:[ "LoggedOn" ]
      ~args:[ V.Str "dm"; V.Str "ely" ]
  in
  let d, _ =
    delegate w conf ~delegator:jmb ~using:chair ~role:"Member"
      ~required:[ ("Login", "LoggedOn", [ V.Str "dm"; V.Str "*" ]) ] ()
  in
  let member = entry_ok w conf ~client:dm ~role:"Member" ~creds:[ dm_cert ] ~delegation:d () in
  (dm, dm_cert, member)

let batched_chaos_convergence ~seed =
  let w, login, conf = conference_world ~seed:(Int64.add 1000L seed) in
  let dm, dm_cert, member = member_of_conf w login conf in
  srun w 2.0;
  checkb "valid before the chaos" true (Service.validate conf ~client:dm member = Ok ());
  let f = Net.fault w.s_net in
  let addr = Net.host_addr (Service.host login) in
  Fault.chaos f ~hosts:[ addr ] ~mtbf:3.0 ~mttr:1.0 ~until:(Engine.now w.s_engine +. 15.0);
  srun w 6.0;
  (* Logoff in the middle of the chaos window, issuer up or not. *)
  Service.revoke_certificate login dm_cert;
  srun w 9.0;
  (* Chaos stops injecting; wait for the final heal. *)
  let rec await_heal budget =
    if Fault.up f addr then Engine.now w.s_engine
    else if budget <= 0.0 then Alcotest.fail "chaos never healed"
    else begin
      srun w 0.05;
      await_heal (budget -. 0.05)
    end
  in
  let healed = await_heal 5.0 in
  checkb "chaos actually crashed the issuer" true
    (Stats.count (Net.stats w.s_net) "fault.crash" >= 1);
  let deadline = healed +. 3.0 in
  let rec poll () =
    if Service.validate conf ~client:dm member = Error Service.Revoked then
      Engine.now w.s_engine -. healed
    else if Engine.now w.s_engine >= deadline then
      Alcotest.failf "no convergence within 3 heartbeats of heal (seed %Ld)" seed
    else begin
      srun w 0.05;
      poll ()
    end
  in
  poll ()

let test_batched_chaos_convergence () =
  let d1 = batched_chaos_convergence ~seed:3L in
  let d2 = batched_chaos_convergence ~seed:8L in
  checkb "bounded for seed 3" true (d1 <= 3.0);
  checkb "bounded for seed 8" true (d2 <= 3.0);
  let d1' = batched_chaos_convergence ~seed:3L in
  checkb "deterministic replay" true (Float.equal d1 d1')

(* Tracing under chaos: the revocation pipeline's causal spans must survive
   the crash schedule — the batching, the broker's retained-log replay and
   the reread retries may delay propagation, but every span must still
   close, and the peer-side completion (digest apply or reread) must land
   within the same 3-heartbeat bound the convergence tests assert. *)
let test_chaos_revocation_spans_complete () =
  let w, login, conf = conference_world ~seed:1003L in
  let dm, dm_cert, member = member_of_conf w login conf in
  srun w 2.0;
  checkb "valid before the chaos" true (Service.validate conf ~client:dm member = Ok ());
  let f = Net.fault w.s_net in
  let addr = Net.host_addr (Service.host login) in
  Fault.chaos f ~hosts:[ addr ] ~mtbf:3.0 ~mttr:1.0 ~until:(Engine.now w.s_engine +. 15.0);
  srun w 6.0;
  let tr = Net.trace w.s_net in
  Trace.set_enabled tr true;
  Trace.clear tr;
  Service.revoke_certificate login dm_cert;
  srun w 9.0;
  let rec await_heal budget =
    if Fault.up f addr then Engine.now w.s_engine
    else if budget <= 0.0 then Alcotest.fail "chaos never healed"
    else begin
      srun w 0.05;
      await_heal (budget -. 0.05)
    end
  in
  let healed = await_heal 5.0 in
  let deadline = healed +. 3.0 in
  let rec poll () =
    if Service.validate conf ~client:dm member = Error Service.Revoked then ()
    else if Engine.now w.s_engine >= deadline then
      Alcotest.fail "no convergence within 3 heartbeats of heal"
    else begin
      srun w 0.05;
      poll ()
    end
  in
  poll ();
  let spans = Trace.spans tr in
  let finished_by t name =
    List.exists (fun sp -> Trace.span_name sp = name && Trace.span_end sp <= t) spans
  in
  checkb "invalidation span recorded" true (finished_by deadline "revoke.invalidate");
  checkb "peer-side completion within 3 heartbeats of heal" true
    (finished_by deadline "revoke.apply" || finished_by deadline "revoke.reread");
  (* Give any straggling reread retries their full budget, then demand that
     no revocation span is left open: a leak here means an instrumented
     code path lost its finish under the fault schedule. *)
  srun w 25.0;
  let is_revocation sp =
    let n = Trace.span_name sp in
    String.length n >= 7 && String.sub n 0 7 = "revoke."
  in
  checkb "no revocation span left open" true
    (not (List.exists is_revocation (Trace.open_spans tr)));
  Trace.set_enabled tr false

(* The batched staleness reread is a single retried rpc carrying every pending
   key.  If the issuer dies again mid-batch, the RPC must exhaust its budget
   (accounted under oasis.reread.giveup) and the whole batch must be retried
   idempotently once the issuer is really back — converging to the same
   answer as if the first reread had succeeded. *)
let test_reread_gives_up_and_retries_batch () =
  let w, login, conf = conference_world ~seed:77L in
  let dm, dm_cert, member = member_of_conf w login conf in
  srun w 2.0;
  let stats = Net.stats w.s_net in
  Net.crash_host w.s_net (Service.host login);
  srun w 1.0;
  Service.revoke_certificate login dm_cert;
  srun w 2.0;
  checkb "unknown while issuer down" true
    (Service.validate conf ~client:dm member = Error Service.Unknown_state);
  (* Heal, then kill the issuer again the moment the batched reread has been
     sent but before its reply can land (2 x 5 ms latency): the in-flight
     exchange is dropped and every retry hits a dead host. *)
  let attempts0 = Stats.count stats "oasis.reread.attempt" in
  Net.restart_host w.s_net (Service.host login);
  let rec await_attempt budget =
    if Stats.count stats "oasis.reread.attempt" > attempts0 then ()
    else if budget <= 0.0 then Alcotest.fail "recovery never issued a reread"
    else begin
      srun w 0.002;
      await_attempt (budget -. 0.002)
    end
  in
  await_attempt 15.0;
  Net.crash_host w.s_net (Service.host login);
  (* Worst-case budget: 5 x 2 s timeouts plus jittered backoff < 16 s. *)
  srun w 16.0;
  checkb "mid-batch reread exhausted its retry budget" true
    (Stats.count stats "oasis.reread.giveup" >= 1);
  Net.restart_host w.s_net (Service.host login);
  srun w 8.0;
  checkb "batch retried idempotently after the real heal" true
    (Service.validate conf ~client:dm member = Error Service.Revoked)

(* --- durable state under crash interleavings ---

   A durable (disk-backed) service tormented by a seeded crash landing at a
   random point of the post-revocation-burst pipeline must, within 3
   heartbeats of the restart, present exactly the memberships a crash-free
   twin presents: fired principals revoked, everyone else valid.  And the
   whole recovered run must replay bit-identically from its seed. *)

let durable_meet_rolefile =
  {|
Chair <- Login.LoggedOn("jmb", h)
Member(u) <- Login.LoggedOn(u, h)* |>* Chair : u in staff
|}

let durable_burst_scenario ~crash seed =
  let engine = Engine.create () in
  let net = Net.create ~seed ~latency:(Net.Fixed 0.005) engine in
  let reg = Service.create_registry () in
  let client_host = Net.add_host net "client" in
  let login_host = Net.add_host net "h.login" in
  let meet_host = Net.add_host net "h.meet" in
  let disk = Disk.create net meet_host in
  let login =
    match Service.create net login_host reg ~name:"Login" ~rolefile:login_rolefile () with
    | Ok s -> s
    | Error e -> Alcotest.failf "login: %s" e
  in
  let meet =
    match
      Service.create net meet_host reg ~name:"Meet" ~rolefile:durable_meet_rolefile ~disk
        ~snapshot_every:6 ()
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "meet: %s" e
  in
  let w = { s_engine = engine; s_net = net; s_client_host = client_host } in
  let users = [ "u0"; "u1"; "u2"; "u3" ] in
  List.iter (fun u -> Group.add (Service.group meet "staff") (V.Str u)) users;
  let jmb = fresh_vci () in
  let jmb_cert =
    Service.issue_arbitrary login ~client:jmb ~roles:[ "LoggedOn" ]
      ~args:[ V.Str "jmb"; V.Str "ely" ]
  in
  let chair = entry_ok w meet ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  let members =
    List.map
      (fun u ->
        let vci = fresh_vci () in
        let cert =
          Service.issue_arbitrary login ~client:vci ~roles:[ "LoggedOn" ]
            ~args:[ V.Str u; V.Str "ely" ]
        in
        (u, vci, entry_ok w meet ~client:vci ~role:"Member" ~creds:[ cert ] ()))
      users
  in
  (* The revocation burst: u0 and u1 fired at seeded offsets.  The
     interleaving stream is independent of the network seed, so the same
     seed replays the same schedule. *)
  let prng = Prng.create (Int64.add 5000L seed) in
  let t0 = Engine.now engine in
  let fire_at u at =
    Engine.schedule_at engine ~at (fun () ->
        Service.revoke_role_instance meet ~client_host ~revoker:chair ~role:"Member"
          ~args:[ V.Str u ] (fun _ -> ()))
  in
  fire_at "u0" (t0 +. Prng.float prng 0.3);
  fire_at "u1" (t0 +. 0.3 +. Prng.float prng 0.3);
  (* Crash after the fires are on the platter (acks + the 50 ms group-commit
     window are over by t0+0.8) but while notification flushes, digest
     deliveries and heartbeats are still in flight. *)
  let t_crash = t0 +. 0.8 +. Prng.float prng 0.8 in
  let t_restart = t_crash +. 0.3 +. Prng.float prng 0.7 in
  if crash then
    Fault.script (Net.fault net)
      [
        (t_crash, Fault.Crash (Net.host_addr meet_host));
        (t_restart, Fault.Restart (Net.host_addr meet_host));
      ];
  (* Converged state is read 3 heartbeats after the (possible) restart. *)
  Engine.run ~until:(t_restart +. 3.0 +. 0.5) engine;
  let fingerprint =
    List.map
      (fun (u, vci, m) ->
        ( u,
          match Service.validate meet ~client:vci m with
          | Ok () -> "ok"
          | Error f -> Format.asprintf "%a" Service.pp_failure f ))
      members
  in
  (fingerprint, Stats.report (Net.stats net))

let test_durable_crash_equivalence_25_seeds () =
  let expected = [ ("u0", "revoked"); ("u1", "revoked"); ("u2", "ok"); ("u3", "ok") ] in
  for s = 1 to 25 do
    let seed = Int64.of_int s in
    let crashed, _ = durable_burst_scenario ~crash:true seed in
    let clean, _ = durable_burst_scenario ~crash:false seed in
    Alcotest.(check (list (pair string string)))
      (Printf.sprintf "seed %d: crash-free run has the expected memberships" s)
      expected clean;
    Alcotest.(check (list (pair string string)))
      (Printf.sprintf "seed %d: recovered state equals the crash-free state" s)
      clean crashed
  done;
  (* Replay identity: the full recovered run — every counter of every
     category — is bit-identical under the same seed. *)
  let r = durable_burst_scenario ~crash:true 7L in
  let r' = durable_burst_scenario ~crash:true 7L in
  checkb "same seed, same recovered run" true (r = r')

(* --- sharded chaos vs the crash-free single-node twin ---

   The sharded deployment (lib/oasis/shard.ml) under chaos faults on every
   shard host and the router must converge to exactly the memberships its
   crash-free SINGLE-NODE twin presents — the observable table may not
   betray either the partitioning or the faults.  (test/test_shard.ml
   holds sharded-vs-unsharded under the SAME weather on both sides; this
   one crosses the axes: faulty-and-sharded against calm-and-unsharded.) *)

module Shard = Oasis_core.Shard
module Cert = Oasis_core.Cert

(* Drive one routed operation to completion, retrying through the chaos
   (virtual-clock polling, so the schedule is a deterministic function of
   the seed). *)
let routed_ok w label op =
  let rec go tries last =
    if tries = 0 then Alcotest.failf "%s: retries exhausted (last: %s)" label last
    else begin
      let cell = ref None in
      op (fun r -> cell := Some r);
      let rec wait budget =
        match !cell with
        | Some (Ok v) -> v
        | Some (Error e) ->
            srun w 0.5;
            go (tries - 1) e
        | None ->
            if budget <= 0.0 then go (tries - 1) last
            else begin
              srun w 0.25;
              wait (budget -. 0.25)
            end
      in
      wait 30.0
    end
  in
  go 8 "never completed"

let sharded_burst_scenario ~chaos ~shards seed =
  let engine = Engine.create () in
  let net = Net.create ~seed ~latency:(Net.Fixed 0.005) engine in
  let reg = Service.create_registry () in
  let client_host = Net.add_host net "client" in
  let login_host = Net.add_host net "h.login" in
  let login =
    match Service.create net login_host reg ~name:"Login" ~rolefile:login_rolefile () with
    | Ok s -> s
    | Error e -> Alcotest.failf "login: %s" e
  in
  let users = [ "u0"; "u1"; "u2"; "u3" ] in
  let club =
    match
      Shard.create net reg ~name:"Meet" ~rolefile:durable_meet_rolefile ~shards ~durable:true
        ~snapshot_every:6 ~groups:[ ("staff", users) ] ()
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "shard deploy: %s" e
  in
  let w = { s_engine = engine; s_net = net; s_client_host = client_host } in
  srun w 0.2;
  let jmb = fresh_vci () in
  let jmb_cert =
    Service.issue_arbitrary login ~client:jmb ~roles:[ "LoggedOn" ]
      ~args:[ V.Str "jmb"; V.Str "ely" ]
  in
  let chair =
    routed_ok w "enter-chair" (fun k ->
        Shard.request_entry club ~client_host ~client:jmb ~role:"Chair" ~args:[]
          ~creds:[ jmb_cert ] k)
  in
  let members =
    List.map
      (fun u ->
        let vci = fresh_vci () in
        let cert =
          Service.issue_arbitrary login ~client:vci ~roles:[ "LoggedOn" ]
            ~args:[ V.Str u; V.Str "ely" ]
        in
        ( u,
          vci,
          routed_ok w ("enter-" ^ u) (fun k ->
              Shard.request_entry club ~client_host ~client:vci ~role:"Member"
                ~args:[ V.Str u ] ~creds:[ cert ] k) ))
      users
  in
  srun w 1.0;
  let f = Net.fault net in
  let hosts =
    Net.host_addr (Shard.router_host club)
    :: (Array.to_list (Shard.shards club) |> List.map (fun s -> Net.host_addr (Service.host s)))
  in
  if chaos then begin
    (* Same global fault pressure at every shard count (cf. test_shard). *)
    let mtbf = 1.5 *. float_of_int (List.length hosts) in
    Fault.chaos f ~hosts ~mtbf ~mttr:1.0 ~until:(Engine.now engine +. 6.0)
  end;
  let fire u =
    ignore
      (routed_ok w ("fire-" ^ u) (fun k ->
           Shard.revoke_role_instance club ~client_host ~revoker:chair ~role:"Member"
             ~args:[ V.Str u ] k))
  in
  fire "u0";
  fire "u1";
  srun w 6.0;
  let rec await_heal budget =
    if List.for_all (Fault.up f) hosts then ()
    else if budget <= 0.0 then Alcotest.fail "chaos never healed"
    else begin
      srun w 0.05;
      await_heal (budget -. 0.05)
    end
  in
  await_heal 5.0;
  if chaos then
    checkb "chaos actually crashed something" true
      (Stats.count (Net.stats net) "fault.crash" >= 1);
  (* The §4.10 bound: converged within 3 heartbeats of the final heal. *)
  srun w 3.0;
  let table =
    List.map
      (fun (u, vci, c) ->
        let issuer =
          Array.to_list (Shard.shards club)
          |> List.find (fun s -> String.equal (Service.name s) c.Cert.service)
        in
        ( u,
          match Service.validate issuer ~client:vci c with
          | Ok () -> "ok"
          | Error e -> Format.asprintf "%a" Service.pp_failure e ))
      members
  in
  (table, Stats.report (Net.stats net))

let test_sharded_chaos_equals_calm_single_node_25_seeds () =
  let expected = [ ("u0", "revoked"); ("u1", "revoked"); ("u2", "ok"); ("u3", "ok") ] in
  for s = 1 to 25 do
    let seed = Int64.of_int (4000 + s) in
    let stormy, _ = sharded_burst_scenario ~chaos:true ~shards:4 seed in
    let calm, _ = sharded_burst_scenario ~chaos:false ~shards:1 seed in
    Alcotest.(check (list (pair string string)))
      (Printf.sprintf "seed %d: calm single-node twin has the expected memberships" s)
      expected calm;
    Alcotest.(check (list (pair string string)))
      (Printf.sprintf "seed %d: sharded chaos state equals the calm twin" s)
      calm stormy
  done;
  (* Replay identity: every counter of every category, bit-identical. *)
  let r = sharded_burst_scenario ~chaos:true ~shards:4 4007L in
  let r' = sharded_burst_scenario ~chaos:true ~shards:4 4007L in
  checkb "same seed, same stormy sharded run" true (r = r')

let () =
  Alcotest.run "faults"
    [
      ( "fault-plane",
        [
          Alcotest.test_case "scripted crash and restart" `Quick test_fault_script;
          Alcotest.test_case "chaos heals by deadline" `Quick test_fault_chaos_heals_and_repeats;
          Alcotest.test_case "dead host drops accounted" `Quick test_send_to_dead_host_accounted;
        ] );
      ( "reliable-rpc",
        [
          Alcotest.test_case "retry recovers" `Quick test_rpc_retry_recovers;
          Alcotest.test_case "gives up after budget" `Quick test_rpc_retry_gives_up;
          Alcotest.test_case "single attempt is one try" `Quick test_rpc_single_attempt_is_one_try;
          Alcotest.test_case "application errors pass through" `Quick
            test_rpc_no_retry_on_application_error;
          Alcotest.test_case "late reply counted" `Quick test_rpc_late_reply_counted;
        ] );
      ( "broker-recovery",
        [
          Alcotest.test_case "server crash recovery" `Quick test_broker_server_crash_recovery;
          Alcotest.test_case "exactly once under loss and crash" `Quick
            test_broker_exactly_once_under_loss_and_crash;
          Alcotest.test_case "nack resend, ack pruning, stashed horizon" `Quick
            test_broker_nack_resend_and_ack_pruning;
          Alcotest.test_case "timers drain after shutdown" `Quick test_broker_timers_drain;
        ] );
      ( "convergence",
        [
          Alcotest.test_case "revocation within 3 heartbeats of heal" `Quick
            test_revocation_converges_after_crash;
          Alcotest.test_case "batched notifications under chaos" `Quick
            test_batched_chaos_convergence;
          Alcotest.test_case "revocation spans complete under chaos" `Quick
            test_chaos_revocation_spans_complete;
          Alcotest.test_case "reread gives up mid-batch, batch retried" `Quick
            test_reread_gives_up_and_retries_batch;
        ] );
      ( "durable-state",
        [
          Alcotest.test_case "crash interleavings equal the crash-free run (25 seeds)" `Quick
            test_durable_crash_equivalence_25_seeds;
          Alcotest.test_case "sharded chaos equals the calm single-node twin (25 seeds)" `Slow
            test_sharded_chaos_equals_calm_single_node_25_seeds;
        ] );
    ]
