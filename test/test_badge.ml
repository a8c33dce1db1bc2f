(* Tests for the Active Badge system (§6.3) and event security (ch. 7):
   sites, the inter-site protocol, the Namer active database, the synthetic
   workload, ERDL policies and proxies. *)

module Engine = Oasis_sim.Engine
module Net = Oasis_sim.Net
module Stats = Oasis_sim.Stats
module Event = Oasis_events.Event
module Broker = Oasis_events.Broker
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Site = Oasis_badge.Site
module Workload = Oasis_badge.Workload
module Erdl = Oasis_esec.Erdl
module Policy = Oasis_esec.Policy
module V = Oasis_rdl.Value

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

type world = {
  engine : Engine.t;
  net : Net.t;
  reg : Service.registry;
  sites : Site.directory;
  tokens : Policy.tokens;
}

let make_world () =
  let engine = Engine.create () in
  let net = Net.create ~latency:(Net.Fixed 0.005) engine in
  let reg = Service.create_registry () in
  { engine; net; reg; sites = Site.directory (); tokens = Policy.tokens reg }

let run w dt = Engine.run ~until:(Engine.now w.engine +. dt) w.engine

(* --- sites and inter-site protocol --- *)

let test_home_registration_and_owner () =
  let w = make_world () in
  let cl = Site.create w.net w.sites ~name:"CL" ~rooms:[ "T14"; "T15" ] () in
  Site.register_badge cl ~badge:12 ~user:"rjh21";
  checkb "owner known" true (Site.owner cl ~badge:12 = Some "rjh21");
  checkb "unknown badge" true (Site.owner cl ~badge:99 = None);
  checkb "badge lookup" true (Site.lookup_badge cl ~user:"rjh21" = Some 12)

let test_sighting_signals_seen () =
  let w = make_world () in
  let cl = Site.create w.net w.sites ~name:"CL" ~rooms:[ "T14" ] () in
  Site.register_badge cl ~badge:12 ~user:"rjh21";
  let client = Net.add_host w.net "watcher" in
  let got = ref [] in
  Broker.connect w.net client (Site.master cl)
    ~on_result:(function
      | Ok s ->
          ignore
            (Broker.register s (Event.template "Seen" [ Event.Any; Event.Any ]) (fun e ->
                 got := e :: !got))
      | Error _ -> ())
    ();
  run w 1.0;
  Site.sight cl ~badge:12 ~home:"CL" ~room:"T14";
  run w 1.0;
  checki "one Seen event" 1 (List.length !got);
  match !got with
  | [ e ] -> checkb "params" true (e.Event.params = [| V.Int 12; V.Str "T14" |])
  | _ -> ()

let test_intersite_protocol_fig62 () =
  (* fig 6.2: badge homed at A is seen at B, then at C.  B learns naming
     info from A; when the badge moves to C, A purges B and signals
     MovedSite. *)
  let w = make_world () in
  let a = Site.create w.net w.sites ~name:"A" ~rooms:[ "a1" ] () in
  let b = Site.create w.net w.sites ~name:"B" ~rooms:[ "b1" ] () in
  let c = Site.create w.net w.sites ~name:"C" ~rooms:[ "c1" ] () in
  Site.register_badge a ~badge:7 ~user:"karen";
  (* Watch MovedSite events at A's namer. *)
  let moved = ref [] in
  let watcher = Net.add_host w.net "watcher" in
  Broker.connect w.net watcher (Site.namer a)
    ~on_result:(function
      | Ok s ->
          ignore
            (Broker.register s (Event.template "MovedSite" [ Event.Any; Event.Any; Event.Any ])
               (fun e -> moved := e :: !moved))
      | Error _ -> ())
    ();
  run w 1.0;
  (* Seen at B. *)
  Site.sight b ~badge:7 ~home:"A" ~room:"b1";
  run w 1.0;
  checkb "B learned the owner" true (Site.owner b ~badge:7 = Some "karen");
  checkb "home tracks location" true (Site.home_location a ~badge:7 = Some "B");
  checki "one move event" 1 (List.length !moved);
  (* Seen at C: B's cache must be purged by the home site. *)
  Site.sight c ~badge:7 ~home:"A" ~room:"c1";
  run w 1.0;
  checkb "C learned the owner" true (Site.owner c ~badge:7 = Some "karen");
  checkb "home now says C" true (Site.home_location a ~badge:7 = Some "C");
  checkb "B purged" true (Site.owner b ~badge:7 = None);
  checki "second move event" 2 (List.length !moved)

let test_intersite_message_efficiency () =
  (* E11's property: repeated sightings of a cached foreign badge cost no
     inter-site messages. *)
  let w = make_world () in
  let a = Site.create w.net w.sites ~name:"A" ~rooms:[ "a1" ] () in
  let b = Site.create w.net w.sites ~name:"B" ~rooms:[ "b1"; "b2" ] () in
  ignore a;
  Site.register_badge a ~badge:7 ~user:"karen";
  Site.sight b ~badge:7 ~home:"A" ~room:"b1";
  run w 1.0;
  let before = Stats.count (Net.stats w.net) "badge.intersite" in
  for _ = 1 to 50 do
    Site.sight b ~badge:7 ~home:"A" ~room:"b2"
  done;
  run w 1.0;
  checki "no further intersite traffic" before (Stats.count (Net.stats w.net) "badge.intersite")

let test_home_badge_returning () =
  let w = make_world () in
  let a = Site.create w.net w.sites ~name:"A" ~rooms:[ "a1" ] () in
  let b = Site.create w.net w.sites ~name:"B" ~rooms:[ "b1" ] () in
  Site.register_badge a ~badge:7 ~user:"karen";
  Site.sight b ~badge:7 ~home:"A" ~room:"b1";
  run w 1.0;
  checkb "away" true (Site.home_location a ~badge:7 = Some "B");
  Site.sight a ~badge:7 ~home:"A" ~room:"a1";
  run w 1.0;
  checkb "back home" true (Site.home_location a ~badge:7 = Some "A");
  checkb "B purged on return" true (Site.owner b ~badge:7 = None)

let test_worlds_share_no_sites () =
  (* Site names mean nothing outside their world: a second world's site A
     must not answer the first world's lookups for A. *)
  let w = make_world () in
  let a = Site.create w.net w.sites ~name:"A" ~rooms:[ "a1" ] () in
  let b = Site.create w.net w.sites ~name:"B" ~rooms:[ "b1" ] () in
  Site.register_badge a ~badge:7 ~user:"karen";
  let w2 = make_world () in
  ignore (Site.create w2.net w2.sites ~name:"A" ~rooms:[ "a1" ] ());
  Site.sight b ~badge:7 ~home:"A" ~room:"b1";
  run w 1.0;
  checkb "B learned the owner" true (Site.owner b ~badge:7 = Some "karen");
  checkb "home tracks location" true (Site.home_location a ~badge:7 = Some "B")

let test_namer_dbregister_pattern () =
  (* §6.3.3: atomic lookup+register via retrospective registration — no race
     between reading OwnsBadge and hearing about later changes. *)
  let w = make_world () in
  let cl = Site.create w.net w.sites ~name:"CL" ~rooms:[ "T14" ] () in
  Site.register_badge cl ~badge:12 ~user:"rjh21";
  run w 1.0;
  let client = Net.add_host w.net "monitor" in
  let events = ref [] in
  Broker.connect w.net client (Site.namer cl)
    ~on_result:(function
      | Ok s ->
          (* DBRegister: since:0 replays the existing tuple, then updates
             flow live. *)
          ignore
            (Broker.register s ~since:0.0
               (Event.template "OwnsBadge" [ Event.Lit (V.Str "rjh21"); Event.Any ])
               (fun e -> events := e :: !events))
      | Error _ -> ())
    ();
  run w 1.0;
  checki "existing tuple replayed" 1 (List.length !events);
  (* Flat battery: badge reassigned; the monitor hears about it. *)
  Site.reassign_badge cl ~user:"rjh21" ~badge:13;
  run w 1.0;
  checki "update delivered" 2 (List.length !events);
  match !events with
  | newest :: _ -> checkb "new badge" true (newest.Event.params = [| V.Str "rjh21"; V.Int 13 |])
  | [] -> ()

(* --- workload --- *)

let test_workload_generates_sightings () =
  let w = make_world () in
  let a = Site.create w.net w.sites ~name:"A" ~rooms:[ "a1"; "a2"; "a3" ] () in
  let b = Site.create w.net w.sites ~name:"B" ~rooms:[ "b1"; "b2" ] () in
  let wl =
    Workload.create w.engine ~seed:7L ~sites:[ a; b ] ~people_per_site:5 ~mean_dwell:1.0
      ~travel_probability:0.2 ()
  in
  checki "ten people" 10 (List.length (Workload.people wl));
  Workload.start wl;
  Engine.run ~until:60.0 w.engine;
  checkb "sightings happened" true (Workload.sightings wl > 100);
  checkb "site changes happened" true (Workload.site_changes wl > 0)

let test_workload_deterministic () =
  let run_once () =
    let w = make_world () in
    let a = Site.create w.net w.sites ~name:"A" ~rooms:[ "a1"; "a2" ] () in
    let wl = Workload.create w.engine ~seed:99L ~sites:[ a ] ~people_per_site:3 () in
    Workload.start wl;
    Engine.run ~until:30.0 w.engine;
    Workload.sightings wl
  in
  checki "same seed, same trace" (run_once ()) (run_once ())

(* --- ERDL --- *)

let parse_rules src =
  match Erdl.parse src with Ok r -> r | Error e -> Alcotest.failf "erdl: %s" e

let test_erdl_parse () =
  let rules =
    parse_rules
      {|
# visibility policy
allow Namer.OwnsBadge(u, b) : Seen(b, *)
allow Login.LoggedOn("boss", h) : Seen(*, *)
deny * : Seen(*, "directors-office")
|}
  in
  checki "three rules" 3 (List.length rules);
  let r0 = List.nth rules 0 in
  checkb "allow" true r0.Erdl.allow;
  checkb "deny star subject" true ((List.nth rules 2).Erdl.role = None)

let test_erdl_parse_errors () =
  checkb "bad line" true (Result.is_error (Erdl.parse "nonsense here"));
  checkb "missing colon" true (Result.is_error (Erdl.parse "allow Foo Seen(b)"))

let test_erdl_instantiate_binds_credential_args () =
  let rules = parse_rules "allow Namer.OwnsBadge(u, b) : Seen(b, *)" in
  let vis = Erdl.instantiate rules ~creds:[ ("Namer", [ "OwnsBadge" ], [ V.Str "rjh"; V.Int 12 ]) ] in
  checki "one allowed template" 1 (List.length vis.Erdl.vis_allowed);
  let tpl = List.hd vis.Erdl.vis_allowed in
  checkb "badge literal bound" true (tpl.Event.pats.(0) = Event.Lit (V.Int 12))

let test_erdl_filter_narrows () =
  let rules = parse_rules "allow Namer.OwnsBadge(u, b) : Seen(b, *)" in
  let vis = Erdl.instantiate rules ~creds:[ ("Namer", [ "OwnsBadge" ], [ V.Str "rjh"; V.Int 12 ]) ] in
  (* Client asks for everything; policy narrows to its own badge. *)
  let wide = Event.template "Seen" [ Event.Any; Event.Any ] in
  (match Erdl.filter vis wide with
  | Some narrowed -> checkb "narrowed to badge 12" true (narrowed.Event.pats.(0) = Event.Lit (V.Int 12))
  | None -> Alcotest.fail "should narrow, not reject");
  (* Asking for someone else's badge is rejected. *)
  let other = Event.template "Seen" [ Event.Lit (V.Int 99); Event.Any ] in
  checkb "other badge rejected" true (Erdl.filter vis other = None)

let test_erdl_deny_overrides () =
  let rules =
    parse_rules {|
allow Login.LoggedOn(u, h) : Seen(*, *)
deny * : Seen(*, "directors-office")
|}
  in
  let vis = Erdl.instantiate rules ~creds:[ ("Login", [ "LoggedOn" ], [ V.Str "u"; V.Str "h" ]) ] in
  let office = Event.template "Seen" [ Event.Any; Event.Lit (V.Str "directors-office") ] in
  checkb "denied room rejected" true (Erdl.filter vis office = None);
  let lab = Event.template "Seen" [ Event.Any; Event.Lit (V.Str "lab") ] in
  checkb "other room fine" true (Erdl.filter vis lab <> None)

let test_erdl_no_credentials_no_visibility () =
  let rules = parse_rules "allow Namer.OwnsBadge(u, b) : Seen(b, *)" in
  let vis = Erdl.instantiate rules ~creds:[] in
  checkb "nothing allowed" true (vis.Erdl.vis_allowed = [])

(* --- policy installation on brokers --- *)

let badge_policy_world () =
  let w = make_world () in
  let site = Site.create w.net w.sites ~name:"CL" ~rooms:[ "T14"; "T15" ] () in
  Site.register_badge site ~badge:12 ~user:"rjh21";
  Site.register_badge site ~badge:13 ~user:"other";
  (* An OASIS service issues OwnsBadge role certificates. *)
  let nsvc_host = Net.add_host w.net "namersvc" in
  let nsvc =
    Result.get_ok
      (Service.create w.net nsvc_host w.reg ~name:"Namer"
         ~rolefile:{|
def OwnsBadge(u, b) u: String b: Integer
OwnsBadge(u, b) <-
|} ())
  in
  let rules = parse_rules "allow Namer.OwnsBadge(u, b) : Seen(b, *)" in
  Policy.install (Site.master site) ~tokens:w.tokens ~rules;
  (w, site, nsvc)

let fresh_vci =
  let host = Principal.Host.create "clienthost" in
  let domain = Principal.Host.boot_domain host in
  fun () -> Principal.Host.new_vci host domain

let test_policy_admission_and_filtering () =
  let w, site, nsvc = badge_policy_world () in
  let me = fresh_vci () in
  let my_cert =
    Service.issue_arbitrary nsvc ~client:me ~roles:[ "OwnsBadge" ] ~args:[ V.Str "rjh21"; V.Int 12 ]
  in
  let client = Net.add_host w.net "monitor" in
  (* Without credentials: refused outright. *)
  let refused = ref false in
  Broker.connect w.net client (Site.master site)
    ~on_result:(function Error _ -> refused := true | Ok _ -> ())
    ();
  run w 1.0;
  checkb "no credentials, no session" true !refused;
  (* With a certificate: admitted, but sees only own badge. *)
  let got = ref [] in
  Broker.connect w.net client (Site.master site)
    ~credentials:[ Policy.token_of_cert w.tokens my_cert ]
    ~on_result:(function
      | Ok s ->
          ignore
            (Broker.register s (Event.template "Seen" [ Event.Any; Event.Any ]) (fun e ->
                 got := e :: !got))
      | Error e -> Alcotest.failf "connect: %s" e)
    ();
  run w 1.0;
  Site.sight site ~badge:12 ~home:"CL" ~room:"T14";
  Site.sight site ~badge:13 ~home:"CL" ~room:"T14";
  run w 1.0;
  checki "only own badge seen" 1 (List.length !got);
  match !got with
  | [ e ] -> checkb "badge 12" true (e.Event.params.(0) = V.Int 12)
  | _ -> ()

let test_policy_revoked_credential_no_visibility () =
  let w, site, nsvc = badge_policy_world () in
  let me = fresh_vci () in
  let my_cert =
    Service.issue_arbitrary nsvc ~client:me ~roles:[ "OwnsBadge" ] ~args:[ V.Str "rjh21"; V.Int 12 ]
  in
  Service.revoke_certificate nsvc my_cert;
  let client = Net.add_host w.net "monitor" in
  let refused = ref false in
  Broker.connect w.net client (Site.master site)
    ~credentials:[ Policy.token_of_cert w.tokens my_cert ]
    ~on_result:(function Error _ -> refused := true | Ok _ -> ())
    ();
  run w 1.0;
  checkb "revoked certificate refused" true !refused

let test_remote_policy_proxy () =
  (* fig 7.3: remote clients reach the site's Master only through a proxy
     that applies the exporting site's policy; the Master itself stays
     unpoliced for trusted local infrastructure. *)
  let w = make_world () in
  let site = Site.create w.net w.sites ~name:"CLX" ~rooms:[ "T14"; "T15" ] () in
  Site.register_badge site ~badge:12 ~user:"rjh21";
  Site.register_badge site ~badge:13 ~user:"other";
  let nsvc_host = Net.add_host w.net "namersvcx" in
  let nsvc =
    Result.get_ok
      (Service.create w.net nsvc_host w.reg ~name:"NamerX"
         ~rolefile:{|
def OwnsBadge(u, b) u: String b: Integer
OwnsBadge(u, b) <-
|} ())
  in
  let proxy_host = Net.add_host w.net "proxy" in
  let rules = parse_rules "allow NamerX.OwnsBadge(u, b) : Seen(b, *)" in
  let proxy =
    Policy.Proxy.create w.net proxy_host ~name:"CL-export" ~upstream:(Site.master site)
      ~tokens:w.tokens ~rules ()
  in
  run w 1.0;
  let me = fresh_vci () in
  let my_cert =
    Service.issue_arbitrary nsvc ~client:me ~roles:[ "OwnsBadge" ] ~args:[ V.Str "rjh21"; V.Int 12 ]
  in
  let remote_client = Net.add_host w.net "remote" in
  let got = ref [] in
  Broker.connect w.net remote_client (Policy.Proxy.broker proxy)
    ~credentials:[ Policy.token_of_cert w.tokens my_cert ]
    ~on_result:(function
      | Ok s ->
          ignore
            (Broker.register s (Event.template "Seen" [ Event.Any; Event.Any ]) (fun e ->
                 got := e :: !got))
      | Error e -> Alcotest.failf "proxy connect: %s" e)
    ();
  run w 1.0;
  Site.sight site ~badge:12 ~home:"CLX" ~room:"T14";
  Site.sight site ~badge:13 ~home:"CLX" ~room:"T15";
  run w 1.0;
  checki "policy applied at proxy" 1 (List.length !got);
  checkb "one upstream registration" true (Policy.Proxy.upstream_registrations proxy >= 1)

let () =
  Alcotest.run "badge"
    [
      ( "sites",
        [
          Alcotest.test_case "home registration" `Quick test_home_registration_and_owner;
          Alcotest.test_case "sighting signals Seen" `Quick test_sighting_signals_seen;
          Alcotest.test_case "inter-site protocol (fig 6.2)" `Quick test_intersite_protocol_fig62;
          Alcotest.test_case "message efficiency" `Quick test_intersite_message_efficiency;
          Alcotest.test_case "home badge returning" `Quick test_home_badge_returning;
          Alcotest.test_case "worlds share no sites" `Quick test_worlds_share_no_sites;
          Alcotest.test_case "namer DBRegister" `Quick test_namer_dbregister_pattern;
        ] );
      ( "workload",
        [
          Alcotest.test_case "generates sightings" `Quick test_workload_generates_sightings;
          Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
        ] );
      ( "erdl",
        [
          Alcotest.test_case "parse" `Quick test_erdl_parse;
          Alcotest.test_case "parse errors" `Quick test_erdl_parse_errors;
          Alcotest.test_case "instantiate binds args" `Quick test_erdl_instantiate_binds_credential_args;
          Alcotest.test_case "filter narrows" `Quick test_erdl_filter_narrows;
          Alcotest.test_case "deny overrides" `Quick test_erdl_deny_overrides;
          Alcotest.test_case "no credentials" `Quick test_erdl_no_credentials_no_visibility;
        ] );
      ( "policy",
        [
          Alcotest.test_case "admission and filtering" `Quick test_policy_admission_and_filtering;
          Alcotest.test_case "revoked credential" `Quick test_policy_revoked_credential_no_visibility;
          Alcotest.test_case "remote policy proxy (fig 7.3)" `Quick test_remote_policy_proxy;
        ] );
    ]
