(* Tests for generic events, templates and the broker: registration,
   delivery, retrospective registration, heartbeats/horizons, loss recovery
   and staleness (§6.2, §6.8, §4.10). *)

module Engine = Oasis_sim.Engine
module Net = Oasis_sim.Net
module Event = Oasis_events.Event
module Broker = Oasis_events.Broker
module V = Oasis_rdl.Value

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- templates --- *)

let seen b r = Event.make ~name:"Seen" ~source:"master" ~stamp:1.0 [ V.Int b; V.Str r ]

let test_template_literal_match () =
  let tpl = Event.template "Seen" [ Event.Lit (V.Int 12); Event.Any ] in
  checkb "matches" true (Event.matches tpl (seen 12 "T14") <> None);
  checkb "wrong literal" true (Event.matches tpl (seen 13 "T14") = None)

let test_template_name_and_source () =
  let tpl = Event.template ~source:"other" "Seen" [ Event.Any; Event.Any ] in
  checkb "source mismatch" true (Event.matches tpl (seen 1 "x") = None);
  let tpl2 = Event.template "Blah" [ Event.Any; Event.Any ] in
  checkb "name mismatch" true (Event.matches tpl2 (seen 1 "x") = None)

let test_template_arity () =
  let tpl = Event.template "Seen" [ Event.Any ] in
  checkb "arity mismatch" true (Event.matches tpl (seen 1 "x") = None)

let test_template_var_binding () =
  let tpl = Event.template "Seen" [ Event.Var "b"; Event.Var "r" ] in
  match Event.matches tpl (seen 12 "T14") with
  | Some env ->
      checkb "b bound" true (List.assoc_opt "b" env = Some (V.Int 12));
      checkb "r bound" true (List.assoc_opt "r" env = Some (V.Str "T14"))
  | None -> Alcotest.fail "should match"

let test_template_var_consistency () =
  let tpl = Event.template "Pair" [ Event.Var "x"; Event.Var "x" ] in
  let same = Event.make ~name:"Pair" ~source:"s" [ V.Int 1; V.Int 1 ] in
  let diff = Event.make ~name:"Pair" ~source:"s" [ V.Int 1; V.Int 2 ] in
  checkb "same binds" true (Event.matches tpl same <> None);
  checkb "different fails" true (Event.matches tpl diff = None)

let test_template_env_constrains () =
  let tpl = Event.template "Seen" [ Event.Var "b"; Event.Any ] in
  checkb "pre-bound matching" true
    (Event.matches ~env:[ ("b", V.Int 12) ] tpl (seen 12 "x") <> None);
  checkb "pre-bound mismatched" true
    (Event.matches ~env:[ ("b", V.Int 99) ] tpl (seen 12 "x") = None)

let test_template_instantiate () =
  let tpl = Event.template "Seen" [ Event.Var "b"; Event.Var "r" ] in
  let inst = Event.instantiate [ ("b", V.Int 7) ] tpl in
  checki "one literal now" 1 (Event.specificity inst);
  checkb "still matches" true (Event.matches inst (seen 7 "z") <> None)

(* --- broker plumbing --- *)

type world = {
  engine : Engine.t;
  net : Net.t;
  server_host : Net.host;
  client_host : Net.host;
  server : Broker.server;
}

let make_world ?(heartbeat = 1.0) ?(latency = Net.Fixed 0.01) () =
  let engine = Engine.create () in
  let net = Net.create ~latency engine in
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

let test_broker_deliver () =
  let w = make_world () in
  let s = connect_now w in
  let got = ref [] in
  let _ = Broker.register s (Event.template "Tick" [ Event.Any ]) (fun e -> got := e :: !got) in
  run_for w 0.5;
  ignore (Broker.signal w.server "Tick" [ V.Int 1 ]);
  ignore (Broker.signal w.server "Tock" [ V.Int 2 ]);
  ignore (Broker.signal w.server "Tick" [ V.Int 3 ]);
  run_for w 0.5;
  checki "two matching deliveries" 2 (List.length !got)

let test_broker_multiple_registrations () =
  let w = make_world () in
  let s = connect_now w in
  let a = ref 0 and b = ref 0 in
  let _ = Broker.register s (Event.template "E" [ Event.Lit (V.Int 1) ]) (fun _ -> incr a) in
  let _ = Broker.register s (Event.template "E" [ Event.Any ]) (fun _ -> incr b) in
  run_for w 0.5;
  ignore (Broker.signal w.server "E" [ V.Int 1 ]);
  ignore (Broker.signal w.server "E" [ V.Int 2 ]);
  run_for w 0.5;
  checki "specific" 1 !a;
  checki "wildcard" 2 !b

let test_broker_deregister () =
  let w = make_world () in
  let s = connect_now w in
  let got = ref 0 in
  let reg = Broker.register s (Event.template "E" []) (fun _ -> incr got) in
  run_for w 0.5;
  ignore (Broker.signal w.server "E" []);
  run_for w 0.5;
  Broker.deregister reg;
  run_for w 0.5;
  ignore (Broker.signal w.server "E" []);
  run_for w 0.5;
  checki "no delivery after deregister" 1 !got

let test_broker_retrospective () =
  let w = make_world () in
  let s = connect_now w in
  ignore (Broker.signal w.server "E" [ V.Int 1 ]);
  ignore (Broker.signal w.server "E" [ V.Int 2 ]);
  run_for w 0.5;
  let got = ref [] in
  let _ =
    Broker.register s ~since:0.0 (Event.template "E" [ Event.Any ]) (fun e -> got := e :: !got)
  in
  run_for w 0.5;
  checki "replayed both" 2 (List.length !got);
  (* And subsequent live events still arrive. *)
  ignore (Broker.signal w.server "E" [ V.Int 3 ]);
  run_for w 0.5;
  checki "live after replay" 3 (List.length !got)

let test_broker_retro_since_filters () =
  let w = make_world () in
  let s = connect_now w in
  ignore (Broker.signal w.server "E" [ V.Int 1 ]);
  run_for w 2.0;
  let cut = Engine.now w.engine in
  ignore (Broker.signal w.server "E" [ V.Int 2 ]);
  run_for w 0.2;
  let got = ref [] in
  let _ = Broker.register s ~since:cut (Event.template "E" [ Event.Any ]) (fun e -> got := e :: !got) in
  run_for w 0.5;
  checki "only the recent one" 1 (List.length !got)

let test_broker_retention_purge () =
  let w = make_world () in
  let engine = w.engine in
  let net = w.net in
  let host = w.server_host in
  let short = Broker.create_server net host ~name:"short" ~retention:1.0 () in
  let session = ref None in
  Broker.connect net w.client_host short
    ~on_result:(function Ok s -> session := Some s | Error _ -> ())
    ();
  Engine.run ~until:0.5 engine;
  ignore (Broker.signal short "E" [ V.Int 1 ]);
  Engine.run ~until:5.0 engine;
  ignore (Broker.signal short "F" [ V.Int 0 ]) (* trigger purge *);
  let got = ref 0 in
  let _ =
    Broker.register (Option.get !session) ~since:0.0 (Event.template "E" [ Event.Any ]) (fun _ ->
        incr got)
  in
  Engine.run ~until:6.0 engine;
  checki "expired event not replayed" 0 !got

let test_broker_horizon_advances () =
  let w = make_world ~heartbeat:0.5 () in
  let s = connect_now w in
  let initial = Broker.horizon s in
  run_for w 3.0;
  checkb "horizon advanced" true (Broker.horizon s > initial);
  checkb "roughly tracks time" true (Broker.horizon s <= Engine.now w.engine)

let test_broker_horizon_callbacks () =
  let w = make_world ~heartbeat:0.5 () in
  let s = connect_now w in
  let calls = ref 0 in
  Broker.on_horizon s (fun _ -> incr calls);
  run_for w 3.0;
  checkb "several advances" true (!calls >= 4)

let test_broker_staleness_on_partition () =
  let w = make_world ~heartbeat:0.5 () in
  let s = connect_now w in
  let transitions = ref [] in
  Broker.on_staleness s (fun st -> transitions := st :: !transitions);
  run_for w 2.0;
  checkb "fresh while connected" false (Broker.stale s);
  Net.partition w.net w.server_host w.client_host;
  run_for w 3.0;
  checkb "stale after partition" true (Broker.stale s);
  Net.heal w.net w.server_host w.client_host;
  run_for w 3.0;
  checkb "recovered" false (Broker.stale s);
  checkb "both transitions seen" true
    (List.mem true !transitions && List.mem false !transitions)

let test_broker_loss_recovery () =
  (* With heavy message loss, sequence-gap nacks and heartbeat-driven
     resends must still deliver every event eventually. *)
  let w = make_world ~heartbeat:0.5 () in
  let s = connect_now w in
  let got = ref [] in
  let _ = Broker.register s (Event.template "E" [ Event.Any ]) (fun e -> got := e :: !got) in
  run_for w 0.5;
  Net.set_loss w.net 0.4;
  for i = 1 to 20 do
    ignore (Broker.signal w.server "E" [ V.Int i ]);
    run_for w 0.2
  done;
  Net.set_loss w.net 0.0;
  run_for w 30.0;
  checki "all twenty delivered" 20 (List.length !got);
  (* In order despite resends. *)
  let seqs = List.rev_map (fun e -> e.Event.seq) !got in
  checkb "in order" true (seqs = List.sort compare seqs)

let test_broker_admission_control () =
  let w = make_world () in
  Broker.set_admission w.server (fun ~credentials -> List.mem "magic" credentials);
  let refused = ref false and admitted = ref false in
  Broker.connect w.net w.client_host w.server
    ~on_result:(function Error _ -> refused := true | Ok _ -> ())
    ();
  Broker.connect w.net w.client_host w.server ~credentials:[ "magic" ]
    ~on_result:(function Ok _ -> admitted := true | Error _ -> ())
    ();
  run_for w 1.0;
  checkb "refused without credential" true !refused;
  checkb "admitted with credential" true !admitted

let test_broker_registration_filter () =
  let w = make_world () in
  (* Policy: narrow any Seen template to room "T14" only. *)
  Broker.set_registration_filter w.server (fun ~credentials:_ tpl ->
      if tpl.Event.tname = "Seen" then
        Some (Event.template "Seen" [ Event.Any; Event.Lit (V.Str "T14") ])
      else None);
  let s = connect_now w in
  let seen_events = ref 0 and other = ref 0 in
  let _ = Broker.register s (Event.template "Seen" [ Event.Any; Event.Any ]) (fun _ -> incr seen_events) in
  let _ = Broker.register s (Event.template "Other" []) (fun _ -> incr other) in
  run_for w 0.5;
  ignore (Broker.signal w.server "Seen" [ V.Int 1; V.Str "T14" ]);
  ignore (Broker.signal w.server "Seen" [ V.Int 1; V.Str "T15" ]);
  ignore (Broker.signal w.server "Other" []);
  run_for w 0.5;
  checki "narrowed" 1 !seen_events;
  checki "rejected registration silent" 0 !other

let test_broker_close () =
  let w = make_world () in
  let s = connect_now w in
  let got = ref 0 in
  let _ = Broker.register s (Event.template "E" []) (fun _ -> incr got) in
  run_for w 0.5;
  Broker.close s;
  run_for w 0.5;
  ignore (Broker.signal w.server "E" []);
  run_for w 0.5;
  checki "closed session gets nothing" 0 !got;
  checki "server dropped session" 0 (Broker.sessions w.server);
  (* A closed session leaves nothing behind at the server: sessions
     connect and close in rounds of 50, each round run until its connect
     timeouts have expired and its closes have landed, and the server
     holds as many words after 1,050 closed sessions as after 550. *)
  let w = make_world () in
  let round () =
    let sessions = ref [] in
    for _ = 1 to 50 do
      Broker.connect w.net w.client_host w.server
        ~on_result:(function
          | Ok s -> sessions := s :: !sessions
          | Error e -> Alcotest.failf "connect: %s" e)
        ()
    done;
    run_for w 1.0;
    checki "every session connected" 50 (List.length !sessions);
    List.iter Broker.close !sessions;
    run_for w 3.0
  in
  let words_after rounds =
    for _ = 1 to rounds do
      round ()
    done;
    checki "server dropped every closed session" 0 (Broker.sessions w.server);
    Obj.reachable_words (Obj.repr w.server)
  in
  let at_550 = words_after 11 in
  let at_1050 = words_after 10 in
  checki "server words after 1,050 closed sessions = after 550" at_550 at_1050

let test_broker_stamps_monotone () =
  let w = make_world () in
  let e1 = Broker.signal w.server "E" [] in
  let e2 = Broker.signal w.server "E" [] in
  checkb "monotone stamps" true (e2.Event.stamp > e1.Event.stamp)

let () =
  Alcotest.run "events"
    [
      ( "templates",
        [
          Alcotest.test_case "literal match" `Quick test_template_literal_match;
          Alcotest.test_case "name and source" `Quick test_template_name_and_source;
          Alcotest.test_case "arity" `Quick test_template_arity;
          Alcotest.test_case "var binding" `Quick test_template_var_binding;
          Alcotest.test_case "var consistency" `Quick test_template_var_consistency;
          Alcotest.test_case "env constrains" `Quick test_template_env_constrains;
          Alcotest.test_case "instantiate" `Quick test_template_instantiate;
        ] );
      ( "broker",
        [
          Alcotest.test_case "deliver" `Quick test_broker_deliver;
          Alcotest.test_case "multiple registrations" `Quick test_broker_multiple_registrations;
          Alcotest.test_case "deregister" `Quick test_broker_deregister;
          Alcotest.test_case "retrospective" `Quick test_broker_retrospective;
          Alcotest.test_case "retro since filters" `Quick test_broker_retro_since_filters;
          Alcotest.test_case "retention purge" `Quick test_broker_retention_purge;
          Alcotest.test_case "horizon advances" `Quick test_broker_horizon_advances;
          Alcotest.test_case "horizon callbacks" `Quick test_broker_horizon_callbacks;
          Alcotest.test_case "staleness on partition" `Quick test_broker_staleness_on_partition;
          Alcotest.test_case "loss recovery" `Quick test_broker_loss_recovery;
          Alcotest.test_case "admission control" `Quick test_broker_admission_control;
          Alcotest.test_case "registration filter" `Quick test_broker_registration_filter;
          Alcotest.test_case "close" `Quick test_broker_close;
          Alcotest.test_case "stamps monotone" `Quick test_broker_stamps_monotone;
        ] );
    ]
