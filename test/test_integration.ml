(* Cross-library integration tests: distributed composite event detection
   over real brokers (§6.7–6.8 on the badge system), the paper's §5.7
   meeting-minutes scenario tying OASIS roles to MSSA files, and an
   end-to-end secure badge monitor. *)

module Engine = Oasis_sim.Engine
module Net = Oasis_sim.Net
module Event = Oasis_events.Event
module Broker = Oasis_events.Broker
module Broker_io = Oasis_events.Broker_io
module Bead = Oasis_events.Bead
module Composite = Oasis_events.Composite
module Service = Oasis_core.Service
module Group = Oasis_core.Group
module Principal = Oasis_core.Principal
module Custode = Oasis_mssa.Custode
module Site = Oasis_badge.Site
module Workload = Oasis_badge.Workload
module V = Oasis_rdl.Value

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let fresh_vci =
  let host = Principal.Host.create "clienthost" in
  let domain = Principal.Host.boot_domain host in
  fun () -> Principal.Host.new_vci host domain

(* --- distributed composite detection over brokers --- *)

let test_together_over_brokers () =
  (* Two badge sites, a composite detector connected to both Masters:
     detect Roger and Giles in the same room, distributed end to end. *)
  let engine = Engine.create () in
  let net = Net.create ~latency:(Net.Fixed 0.01) engine in
  let a = Site.create net (Site.directory ()) ~name:"A" ~rooms:[ "T14"; "T15" ] ~heartbeat:0.5 () in
  Site.register_badge a ~badge:1 ~user:"roger";
  Site.register_badge a ~badge:2 ~user:"giles";
  let monitor_host = Net.add_host net "monitor" in
  let sessions = ref [] in
  Broker.connect net monitor_host (Site.master a)
    ~on_result:(function Ok s -> sessions := s :: !sessions | Error _ -> ())
    ();
  Engine.run ~until:1.0 engine;
  let io = Broker_io.make net monitor_host !sessions in
  let hits = ref [] in
  let _ =
    Bead.detect io ~start:0.0
      (Composite.parse "$Seen(A, R); $Seen(B, R) - Seen(A, Rp)")
      ~on_occur:(fun o -> hits := o :: !hits)
  in
  Engine.run ~until:2.0 engine;
  Site.sight a ~badge:1 ~home:"A" ~room:"T14";
  Engine.run ~until:3.0 engine;
  Site.sight a ~badge:2 ~home:"A" ~room:"T14";
  Engine.run ~until:6.0 engine;
  checkb "together detected over the network" true
    (List.exists
       (fun o ->
         List.assoc_opt "A" o.Bead.env = Some (V.Int 1)
         && List.assoc_opt "B" o.Bead.env = Some (V.Int 2))
       !hits)

let test_without_over_brokers_waits_for_slow_site () =
  (* fig 6.4 on real transport: B's source site is partitioned, so its
     horizon stalls; "A without B" holds its candidate until the partition
     heals and then decides correctly against the late B. *)
  let engine = Engine.create () in
  let net = Net.create ~latency:(Net.Fixed 0.01) engine in
  let sites = Site.directory () in
  let fast = Site.create net sites ~name:"Fast" ~rooms:[ "f1" ] ~heartbeat:0.5 () in
  let slow = Site.create net sites ~name:"Slow" ~rooms:[ "s1" ] ~heartbeat:0.5 () in
  Site.register_badge fast ~badge:1 ~user:"alice";
  Site.register_badge slow ~badge:2 ~user:"bob";
  let monitor_host = Net.add_host net "monitor" in
  let sessions = ref [] in
  List.iter
    (fun site ->
      Broker.connect net monitor_host (Site.master site)
        ~on_result:(function Ok s -> sessions := s :: !sessions | Error _ -> ())
        ())
    [ fast; slow ];
  Engine.run ~until:1.0 engine;
  let io = Broker_io.make net monitor_host !sessions in
  let hits = ref [] in
  let _ =
    Bead.detect io ~start:0.5
      (Composite.parse {|Master@Fast.Seen(b, r) - Master@Slow.Seen(c, s)|})
      ~on_occur:(fun o -> hits := o :: !hits)
  in
  Engine.run ~until:2.0 engine;
  (* Partition the slow site from the monitor. *)
  Net.partition net (Site.host slow) monitor_host;
  Engine.run ~until:3.0 engine;
  (* bob seen at the slow site (event cannot reach the monitor yet)... *)
  Site.sight slow ~badge:2 ~home:"Slow" ~room:"s1";
  Engine.run ~until:4.0 engine;
  (* ...then alice at the fast site. *)
  Site.sight fast ~badge:1 ~home:"Fast" ~room:"f1";
  Engine.run ~until:6.0 engine;
  checki "candidate held during partition" 0 (List.length !hits);
  (* Heal: the late blocker arrives (resend) and the candidate dies. *)
  Net.heal net (Site.host slow) monitor_host;
  Engine.run ~until:15.0 engine;
  checki "late B correctly blocks A" 0 (List.length !hits)

let test_without_over_brokers_fires_when_clear () =
  let engine = Engine.create () in
  let net = Net.create ~latency:(Net.Fixed 0.01) engine in
  let sites = Site.directory () in
  let fast = Site.create net sites ~name:"Fast2" ~rooms:[ "f1" ] ~heartbeat:0.5 () in
  let slow = Site.create net sites ~name:"Slow2" ~rooms:[ "s1" ] ~heartbeat:0.5 () in
  Site.register_badge fast ~badge:1 ~user:"alice";
  let monitor_host = Net.add_host net "monitor2" in
  let sessions = ref [] in
  List.iter
    (fun site ->
      Broker.connect net monitor_host (Site.master site)
        ~on_result:(function Ok s -> sessions := s :: !sessions | Error _ -> ())
        ())
    [ fast; slow ];
  Engine.run ~until:1.0 engine;
  let io = Broker_io.make net monitor_host !sessions in
  let hits = ref [] in
  let _ =
    Bead.detect io ~start:0.5
      (Composite.parse {|Master@Fast2.Seen(b, r) - Master@Slow2.Seen(c, s)|})
      ~on_occur:(fun o -> hits := o :: !hits)
  in
  Engine.run ~until:2.0 engine;
  Site.sight fast ~badge:1 ~home:"Fast2" ~room:"f1";
  (* No B at all: after Slow2's horizon passes A's stamp, A fires. *)
  Engine.run ~until:6.0 engine;
  checki "fires once clear of the horizon" 1 (List.length !hits)

(* --- §5.7: only members of the meeting may read the minutes --- *)

let test_meeting_minutes_acl () =
  let engine = Engine.create () in
  let net = Net.create ~latency:(Net.Fixed 0.005) engine in
  let reg = Service.create_registry () in
  let client_host = Net.add_host net "client" in
  let run dt = Engine.run ~until:(Engine.now engine +. dt) engine in
  let login_host = Net.add_host net "login" in
  let login =
    Result.get_ok
      (Service.create net login_host reg ~name:"Login"
         ~rolefile:{|
def LoggedOn(u, h) u: String h: String
LoggedOn(u, h) <-
|} ())
  in
  (* The meeting service: membership governs minutes access. *)
  let meet_host = Net.add_host net "meet" in
  let meet =
    Result.get_ok
      (Service.create net meet_host reg ~name:"Meet"
         ~rolefile:
           {|
Chair <- Login.LoggedOn("jmb", h)
Candidate(u) <- Login.LoggedOn(u, h)* : u in staff
Member(u) <- Candidate(u)* |>* Chair
|}
         ())
  in
  Group.add (Service.group meet "staff") (V.Str "dm");
  (* The storage custode: the minutes ACL grants read to the meeting group,
     which we keep in sync *by policy* — here the custode consults the Meet
     service's certificate directly via UseFile delegation from the Chair.
     Simpler and fully mechanised: the Chair (who owns the minutes) delegates
     per-file read access to each member, and ejection revokes it. *)
  let cust_host = Net.add_host net "ffc" in
  let cust =
    Result.get_ok (Custode.create net cust_host reg ~name:"FFC" ~admins:[ "jmb" ] ())
  in
  (* jmb logs on, becomes Chair, gets storage access, writes the minutes. *)
  let jmb = fresh_vci () in
  let jmb_login = Service.issue_arbitrary login ~client:jmb ~roles:[ "LoggedOn" ] ~args:[ V.Str "jmb"; V.Str "ely" ] in
  let chair = ref None in
  Service.request_entry meet ~client_host ~client:jmb ~role:"Chair" ~creds:[ jmb_login ]
    (function Ok c -> chair := Some c | Error e -> Alcotest.failf "chair: %s" e);
  run 2.0;
  let chair = Option.get !chair in
  let storage = ref None in
  Custode.request_access cust ~client_host ~client:jmb ~login:jmb_login ~acl:"system"
    (function Ok c -> storage := Some c | Error e -> Alcotest.failf "storage: %s" e);
  run 2.0;
  let storage = Option.get !storage in
  let minutes = Result.get_ok (Custode.create_file cust ~cert:storage ~acl:"system" ()) in
  ignore (Custode.write_file cust ~cert:storage ~file:minutes "AGENDA ...");
  (* dm joins the meeting. *)
  let dm = fresh_vci () in
  let dm_login = Service.issue_arbitrary login ~client:dm ~roles:[ "LoggedOn" ] ~args:[ V.Str "dm"; V.Str "ely" ] in
  let member = ref None in
  Service.request_entry meet ~client_host ~client:dm ~role:"Member" ~creds:[ dm_login ]
    (function Ok c -> member := Some c | Error e -> Alcotest.failf "member: %s" e);
  run 2.0;
  let member = Option.get !member in
  checkb "dm is a member" true (Service.validate meet ~client:dm member = Ok ());
  (* The Chair grants the member read access to the minutes file. *)
  let usefile = ref None in
  Custode.delegate_file_access cust ~client_host ~holder:storage ~file:minutes ~rights:"r"
    ~candidate:dm () (function Ok (c, _) -> usefile := Some c | Error e -> Alcotest.failf "delegate: %s" e);
  run 2.0;
  let usefile = Option.get !usefile in
  checkb "member reads minutes" true (Custode.read_file cust ~cert:usefile ~file:minutes = Ok "AGENDA ...");
  (* The Chair ejects dm from the meeting (role-based revocation) — and the
     minutes access, granted on the back of membership, is revoked by the
     Chair revoking the delegation... here we check the meeting side: *)
  let fired = ref None in
  Service.revoke_role_instance meet ~client_host ~revoker:chair ~role:"Member"
    ~args:[ V.Str "dm" ] (fun r -> fired := Some r);
  run 2.0;
  checkb "ejected" true (!fired = Some (Ok 1));
  checkb "membership revoked" true (Service.validate meet ~client:dm member <> Ok ())

(* --- end-to-end: secured badge monitoring under workload --- *)

let test_secured_monitor_under_workload () =
  let engine = Engine.create () in
  let net = Net.create ~latency:(Net.Fixed 0.005) engine in
  let reg = Service.create_registry () in
  let tokens = Oasis_esec.Policy.tokens reg in
  let site = Site.create net (Site.directory ()) ~name:"HQ" ~rooms:[ "r1"; "r2"; "r3" ] ~heartbeat:0.5 () in
  let wl = Workload.create engine ~seed:3L ~sites:[ site ] ~people_per_site:4 ~mean_dwell:2.0 () in
  (* Namer-issued ownership certificates drive ERDL policy on the Master. *)
  let nsvc_host = Net.add_host net "namersvc" in
  let nsvc =
    Result.get_ok
      (Service.create net nsvc_host reg ~name:"Namer"
         ~rolefile:{|
def OwnsBadge(u, b) u: String b: Integer
OwnsBadge(u, b) <-
|} ())
  in
  let rules =
    match Oasis_esec.Erdl.parse "allow Namer.OwnsBadge(u, b) : Seen(b, *)" with
    | Ok r -> r
    | Error e -> Alcotest.failf "erdl: %s" e
  in
  Oasis_esec.Policy.install (Site.master site) ~tokens ~rules;
  Workload.start wl;
  (* A user may only watch their own badge. *)
  let person = List.hd (Workload.people wl) in
  let me = fresh_vci () in
  let my_cert =
    Service.issue_arbitrary nsvc ~client:me ~roles:[ "OwnsBadge" ]
      ~args:[ V.Str person.Workload.p_name; V.Int person.Workload.p_badge ]
  in
  let monitor_host = Net.add_host net "monitor" in
  let mine = ref 0 and others = ref 0 in
  Broker.connect net monitor_host (Site.master site)
    ~credentials:[ Oasis_esec.Policy.token_of_cert tokens my_cert ]
    ~on_result:(function
      | Ok s ->
          ignore
            (Broker.register s (Event.template "Seen" [ Event.Any; Event.Any ]) (fun e ->
                 if e.Event.params.(0) = V.Int person.Workload.p_badge then incr mine
                 else incr others))
      | Error e -> Alcotest.failf "connect: %s" e)
    ();
  Engine.run ~until:120.0 engine;
  checkb "saw own movements" true (!mine > 0);
  checki "never saw others" 0 !others

let () =
  Alcotest.run "integration"
    [
      ( "distributed-composite",
        [
          Alcotest.test_case "together over brokers" `Quick test_together_over_brokers;
          Alcotest.test_case "without waits for slow site" `Quick test_without_over_brokers_waits_for_slow_site;
          Alcotest.test_case "without fires when clear" `Quick test_without_over_brokers_fires_when_clear;
        ] );
      ( "oasis-mssa",
        [ Alcotest.test_case "meeting minutes (§5.7)" `Quick test_meeting_minutes_acl ] );
      ( "end-to-end",
        [ Alcotest.test_case "secured monitor under workload" `Quick test_secured_monitor_under_workload ] );
    ]
