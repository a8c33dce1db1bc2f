(* Benchmark harness: regenerates the shape of every figure / quantitative
   claim in the paper's evaluation-bearing chapters.  One experiment per
   section below; the experiment index lives in DESIGN.md and the measured
   outcomes are recorded in EXPERIMENTS.md.

   Usage: dune exec bench/main.exe            -- run everything
          dune exec bench/main.exe -- e1 e5   -- run selected experiments *)

module Engine = Oasis_sim.Engine
module Net = Oasis_sim.Net
module Stats = Oasis_sim.Stats
module Trace = Oasis_sim.Trace
module Service = Oasis_core.Service
module Cert = Oasis_core.Cert
module Credrec = Oasis_core.Credrec
module Group = Oasis_core.Group
module Principal = Oasis_core.Principal
module Baseline = Oasis_core.Baseline
module Event = Oasis_events.Event
module Broker = Oasis_events.Broker
module Broker_io = Oasis_events.Broker_io
module Bead = Oasis_events.Bead
module Composite = Oasis_events.Composite
module Local_io = Oasis_events.Local_io
module Globalview = Oasis_events.Globalview
module Custode = Oasis_mssa.Custode
module Vac = Oasis_mssa.Vac
module Bypass = Oasis_mssa.Bypass
module Site = Oasis_badge.Site
module Workload = Oasis_badge.Workload
module Disk = Oasis_store.Disk
module Wal = Oasis_store.Wal
module J = Oasis_util.Json
module V = Oasis_rdl.Value

let header title = Printf.printf "\n=== %s ===\n" title
let row fmt = Printf.printf fmt

(* Write BENCH_<experiment>_<size>.json for the perf archive: [fields]
   stamped with the experiment and the backend and clock domain it ran
   on (every experiment here runs on the simulator), keys sorted so
   snapshots diff cleanly; then say so in the table. *)
let write_snapshot experiment size fields =
  let file = Printf.sprintf "BENCH_%s_%d.json" experiment size in
  let oc = open_out file in
  output_string oc
    (J.to_string
       (J.sorted
          (J.Obj
             (("experiment", J.Str experiment)
             :: ("backend", J.Str "sim")
             :: ("clock_domain", J.Str "sim")
             :: fields))));
  output_string oc "\n";
  close_out oc;
  row "         snapshot written to %s\n" file

let fresh_vci =
  let host = Principal.Host.create "benchclient" in
  let domain = Principal.Host.boot_domain host in
  fun () -> Principal.Host.new_vci host domain

type world = {
  engine : Engine.t;
  net : Net.t;
  reg : Service.registry;
  client_host : Net.host;
  mutable nhosts : int;
}

let make_world ?(latency = Net.Fixed 0.005) () =
  let engine = Engine.create () in
  let net = Net.create ~latency engine in
  let client_host = Net.add_host net "client" in
  { engine; net; reg = Service.create_registry (); client_host; nhosts = 0 }

let add_host w =
  w.nhosts <- w.nhosts + 1;
  Net.add_host w.net (Printf.sprintf "bh%d" w.nhosts)

let service ?batch w ~name ~rolefile =
  Result.get_ok (Service.create w.net (add_host w) w.reg ~name ~rolefile ?batch_notifications:batch ())

let run_for w dt = Engine.run ~until:(Engine.now w.engine +. dt) w.engine

let login_rolefile = {|
def LoggedOn(u, h) u: String h: String
LoggedOn(u, h) <-
|}

(* ------------------------------------------------------------------ *)
(* E1 — fig 4.4 vs 4.5: validation cost vs delegation-chain depth      *)
(* ------------------------------------------------------------------ *)

let e1 () =
  header "E1: validation cost vs delegation depth (fig 4.4 chaining vs fig 4.5 credential records)";
  row "%6s  %18s  %18s  %18s\n" "depth" "chain checks/use" "oasis cold checks" "oasis warm checks";
  List.iter
    (fun depth ->
      (* Baseline: capability chaining. *)
      let issuer = Baseline.Chain.create_issuer ~seed:101L () in
      let cap = ref (Baseline.Chain.issue issuer ~holder:"u0" ~role:"r" ~args:[]) in
      for i = 1 to depth - 1 do
        cap := Baseline.Chain.delegate issuer !cap ~to_:(Printf.sprintf "u%d" i)
      done;
      let c0 = Baseline.Chain.crypto_checks issuer in
      assert (Baseline.Chain.validate issuer !cap);
      let chain_checks = Baseline.Chain.crypto_checks issuer - c0 in
      (* OASIS: recursive delegation (open-meeting style), then validate. *)
      let w = make_world () in
      let svc =
        service w ~name:"Meet"
          ~rolefile:{|
def Member()
Member <- <|* Member
|}
      in
      let holder = ref (fresh_vci ()) in
      let cert =
        ref (Service.issue_arbitrary svc ~client:!holder ~roles:[ "Member" ] ~args:[])
      in
      for _ = 1 to depth - 1 do
        let next = fresh_vci () in
        let d = ref None in
        Service.request_delegation svc ~client_host:w.client_host ~delegator:!holder
          ~using:!cert ~role:"Member" ~required:[]
          (function Ok (dc, _) -> d := Some dc | Error e -> failwith e);
        run_for w 1.0;
        let got = ref None in
        Service.request_entry svc ~client_host:w.client_host ~client:next ~role:"Member"
          ~delegation:(Option.get !d)
          (function Ok c -> got := Some c | Error e -> failwith e);
        run_for w 1.0;
        holder := next;
        cert := Option.get !got
      done;
      let c1 = Service.crypto_checks svc in
      assert (Service.validate svc ~client:!holder !cert = Ok ());
      let cold = Service.crypto_checks svc - c1 in
      let c2 = Service.crypto_checks svc in
      for _ = 1 to 10 do
        ignore (Service.validate svc ~client:!holder !cert)
      done;
      let warm = Service.crypto_checks svc - c2 in
      row "%6d  %18d  %18d  %18d\n" depth chain_checks cold warm)
    [ 1; 2; 4; 8; 16; 32; 64 ];
  row "shape: chaining is O(depth) signature checks per use; OASIS is O(1) cold and 0 warm.\n"

(* ------------------------------------------------------------------ *)
(* E2 — §4.14: background traffic vs number of live credentials        *)
(* ------------------------------------------------------------------ *)

let e2 () =
  header "E2: background message traffic, refresh-based capabilities vs event-driven OASIS (§4.14)";
  let horizon = 60.0 in
  row "%8s  %22s  %26s\n" "ncerts" "refresh msgs/min" "oasis background msgs/min";
  List.iter
    (fun n ->
      (* Refresh-based: every capability re-requested before its 5 s
         lifetime expires. *)
      let w = make_world () in
      let issuer_host = add_host w in
      let issuer = Baseline.Refresh.create_issuer ~seed:77L ~lifetime:5.0 w.net issuer_host in
      for i = 1 to n do
        Baseline.Refresh.start_refresher issuer ~client_host:w.client_host
          ~holder:(Printf.sprintf "u%d" i) ~role:"r" ~on_refresh:(fun _ -> ())
      done;
      Engine.run ~until:horizon w.engine;
      let refresh_msgs =
        Stats.count (Net.stats w.net) "refresh" + Stats.count (Net.stats w.net) "refresh.reply"
      in
      (* OASIS: n certificates at a conference service resting on a login
         service; with no revocations the only background traffic is the
         single heartbeat stream between the two services. *)
      let w2 = make_world () in
      let login = service w2 ~name:"Login" ~rolefile:login_rolefile in
      let conf = service w2 ~name:"Conf" ~rolefile:{|
Member(u) <- Login.LoggedOn(u, h)*
|} in
      for i = 1 to n do
        let vci = fresh_vci () in
        let lc =
          Service.issue_arbitrary login ~client:vci ~roles:[ "LoggedOn" ]
            ~args:[ V.Str (Printf.sprintf "u%d" i); V.Str "h" ]
        in
        Service.request_entry conf ~client_host:w2.client_host ~client:vci ~role:"Member"
          ~creds:[ lc ]
          (fun _ -> ())
      done;
      Engine.run ~until:5.0 w2.engine;
      Stats.reset (Net.stats w2.net);
      Engine.run ~until:(5.0 +. horizon) w2.engine;
      let oasis_msgs =
        List.fold_left
          (fun acc (r : Stats.row) ->
            if String.length r.Stats.r_cat >= 4 && String.sub r.Stats.r_cat 0 4 = "evt." then
              acc + r.Stats.r_count
            else acc)
          0
          (Stats.report (Net.stats w2.net))
      in
      row "%8d  %22.1f  %26.1f\n" n
        (float_of_int refresh_msgs /. horizon *. 60.0)
        (float_of_int oasis_msgs /. horizon *. 60.0))
    [ 10; 50; 100; 200 ];
  row "shape: refresh traffic grows linearly with live certificates; OASIS background\n";
  row "       (heartbeats) is constant per service pair, independent of certificates.\n"

(* ------------------------------------------------------------------ *)
(* E3 — fig 5.8: custode bypassing                                     *)
(* ------------------------------------------------------------------ *)

let e3 () =
  header "E3: MSSA operation latency through a custode stack (fig 5.8)";
  row "%6s  %14s  %14s  %14s\n" "depth" "via stack (ms)" "bypass cold" "bypass warm";
  List.iter
    (fun depth ->
      let w = make_world () in
      let login = service w ~name:"Login" ~rolefile:login_rolefile in
      let bottom =
        Result.get_ok (Custode.create w.net (add_host w) w.reg ~name:"Bottom" ~admins:[ "root" ] ())
      in
      let get_access user acl =
        let vci = fresh_vci () in
        let lc =
          Service.issue_arbitrary login ~client:vci ~roles:[ "LoggedOn" ]
            ~args:[ V.Str user; V.Str "h" ]
        in
        let result = ref None in
        Custode.request_access bottom ~client_host:w.client_host ~client:vci ~login:lc ~acl
          (fun r -> result := Some r);
        run_for w 1.0;
        match !result with Some (Ok c) -> c | _ -> failwith "access"
      in
      let root_cert = get_access "root" "system" in
      ignore
        (Custode.create_acl bottom ~cert:root_cert ~id:"vacdata" ~entries:"+vac0=adrwx"
           ~meta:"system");
      let bottom_cert = get_access "vac0" "vacdata" in
      let file = Result.get_ok (Custode.create_file bottom ~cert:bottom_cert ~acl:"vacdata" ()) in
      ignore (Custode.write_file bottom ~cert:bottom_cert ~file "data");
      let rec build i below below_cert =
        if i > depth then (below, below_cert)
        else
          let vac =
            Result.get_ok
              (Vac.create w.net (add_host w) w.reg ~name:(Printf.sprintf "V%d_%d" depth i) ~below
                 ~below_cert)
          in
          build (i + 1) (Vac.Below_vac vac) (Vac.grant vac ~client:(fresh_vci ()))
      in
      let top, top_cert =
        match build 1 (Vac.Below_custode bottom) bottom_cert with
        | Vac.Below_vac v, c -> (v, c)
        | _ -> assert false
      in
      let time_read f =
        let t0 = Engine.now w.engine in
        let done_at = ref None in
        f (fun (_ : (string, string) result) -> done_at := Some (Engine.now w.engine));
        run_for w 5.0;
        match !done_at with Some t -> (t -. t0) *. 1000.0 | None -> nan
      in
      let via_stack =
        time_read (fun k -> Vac.read top ~client_host:w.client_host ~cert:top_cert ~file k)
      in
      let bp = Bypass.create bottom in
      Bypass.register_route bp ~top;
      let cold =
        time_read (fun k -> Bypass.read bp ~client_host:w.client_host ~cert:top_cert ~file k)
      in
      let warm =
        time_read (fun k -> Bypass.read bp ~client_host:w.client_host ~cert:top_cert ~file k)
      in
      row "%6d  %14.2f  %14.2f  %14.2f\n" depth via_stack cold warm)
    [ 1; 2; 3; 4; 5 ];
  row "shape: stack latency grows with depth; warm bypass is flat (~one round trip).\n"

(* ------------------------------------------------------------------ *)
(* E4 — §5.4–5.7: shared ACLs vs per-file ACLs                         *)
(* ------------------------------------------------------------------ *)

let e4 () =
  header "E4: ACL objects and signature checks, per-file vs shared ACLs (§5.4)";
  let nfiles = 60 in
  let login_and_custode name =
    let w = make_world () in
    let login = service w ~name:"Login" ~rolefile:login_rolefile in
    let cust =
      Result.get_ok (Custode.create w.net (add_host w) w.reg ~name ~admins:[ "root" ] ())
    in
    let get_access user acl =
      let vci = fresh_vci () in
      let lc =
        Service.issue_arbitrary login ~client:vci ~roles:[ "LoggedOn" ]
          ~args:[ V.Str user; V.Str "h" ]
      in
      let result = ref None in
      Custode.request_access cust ~client_host:w.client_host ~client:vci ~login:lc ~acl (fun r ->
          result := Some r);
      run_for w 1.0;
      match !result with Some (Ok c) -> c | _ -> failwith "access"
    in
    (w, cust, get_access)
  in
  (* Shared: one ACL, one certificate, N files. *)
  let _, cust, get_access = login_and_custode "FFC1" in
  let root = get_access "root" "system" in
  ignore (Custode.create_acl cust ~cert:root ~id:"proj" ~entries:"+dm=adrwx" ~meta:"system");
  let dm = get_access "dm" "proj" in
  let c0 = Service.crypto_checks (Custode.service cust) in
  let files =
    List.init nfiles (fun _ -> Result.get_ok (Custode.create_file cust ~cert:dm ~acl:"proj" ()))
  in
  List.iter (fun f -> ignore (Custode.read_file cust ~cert:dm ~file:f)) files;
  let shared_checks = Service.crypto_checks (Custode.service cust) - c0 in
  let shared_acls = Custode.acl_count cust in
  (* Per-file: one ACL and one certificate per file. *)
  let _, cust2, get_access2 = login_and_custode "FFC2" in
  let root2 = get_access2 "root" "system" in
  let certs = List.init nfiles (fun i ->
      let acl = Printf.sprintf "acl%d" i in
      ignore (Custode.create_acl cust2 ~cert:root2 ~id:acl ~entries:"+dm=adrwx" ~meta:"system");
      (get_access2 "dm" acl, acl))
  in
  let c1 = Service.crypto_checks (Custode.service cust2) in
  let certs_and_files =
    List.map (fun (cert, acl) ->
        (cert, Result.get_ok (Custode.create_file cust2 ~cert ~acl ()))) certs
  in
  List.iter (fun (cert, file) -> ignore (Custode.read_file cust2 ~cert ~file)) certs_and_files;
  let perfile_checks = Service.crypto_checks (Custode.service cust2) - c1 in
  let perfile_acls = Custode.acl_count cust2 in
  row "%-28s  %12s  %16s\n" "scheme" "ACL objects" "sig checks, create+read N";
  row "%-28s  %12d  %16d\n" "shared ACL (1 group)" shared_acls shared_checks;
  row "%-28s  %12d  %16d\n" "per-file ACLs" perfile_acls perfile_checks;
  row "shape: shared ACLs collapse both the policy objects and the crypto cost.\n"

(* ------------------------------------------------------------------ *)
(* E5 — fig 6.4: composite detection latency under per-source delay    *)
(* ------------------------------------------------------------------ *)

let e5 () =
  header "E5: composite-event detection latency under a delayed source (fig 6.4)";
  row "%12s  %18s  %20s\n" "delay (s)" "bead machine (s)" "global view (s)";
  List.iter
    (fun delta ->
      let run wrap =
        let l = Local_io.create () in
        let io = wrap (Local_io.io l) in
        let detected_at = ref None in
        let _ =
          Bead.detect io ~start:0.0
            (Composite.parse "$s15.Seen(A, R); $s15.Seen(B, R) - s15.Seen(A, Rp)")
            ~on_occur:(fun _ -> if !detected_at = None then detected_at := Some (Local_io.now l))
        in
        (* The delayed source (room T14's sensor) holds its horizon. *)
        Local_io.hold_horizon l "s14";
        ignore (Local_io.signal l ~source:"s14" ~stamp:0.1 "Ping" []);
        Local_io.set_time l 1.0;
        ignore (Local_io.signal l ~source:"s15" "Seen" [ V.Str "roger"; V.Str "T15" ]);
        Local_io.set_time l 2.0;
        ignore (Local_io.signal l ~source:"s15" "Seen" [ V.Str "giles"; V.Str "T15" ]);
        (* The delayed source catches up delta seconds later. *)
        Local_io.set_time l (2.0 +. delta);
        Local_io.release_horizon l "s14";
        Local_io.set_time l (3.0 +. delta);
        match !detected_at with Some t -> t -. 2.0 | None -> nan
      in
      let bead = run (fun io -> io) in
      let gv = run Globalview.wrap in
      row "%12.1f  %18.3f  %20.3f\n" delta bead gv)
    [ 0.0; 0.5; 1.0; 2.0; 4.0 ];
  row "shape: the bead machine's latency is independent of the delayed source;\n";
  row "       the global-view baseline inherits the worst source delay.\n"

(* ------------------------------------------------------------------ *)
(* E6 — §6.8.1: the registration race                                  *)
(* ------------------------------------------------------------------ *)

let e6 () =
  header "E6: registration race — pre/retrospective registration vs alternatives (§6.8.1)";
  (* Scenario: OwnsBadge(u, b) is learned, then Seen(b, r) fires before the
     (latency-delayed) registration for Seen can reach the server. *)
  let trial strategy =
    let engine = Engine.create () in
    let net = Net.create ~latency:(Net.Fixed 0.05) engine in
    let shost = Net.add_host net "server" in
    let chost = Net.add_host net "watcher" in
    let srv = Broker.create_server net shost ~name:"badge" ~heartbeat:0.5 () in
    let session = ref None in
    Broker.connect net chost srv ~on_result:(function Ok s -> session := Some s | Error _ -> ()) ();
    Engine.run ~until:1.0 engine;
    let s = Option.get !session in
    let detections = ref 0 and deliveries = ref 0 in
    let seen_tpl b = Event.template "Seen" [ Event.Lit (V.Int b); Event.Any ] in
    (match strategy with
    | `Eager ->
        (* Register for every Seen up front: correct but noisy. *)
        ignore
          (Broker.register s (Event.template "Seen" [ Event.Any; Event.Any ]) (fun e ->
               incr deliveries;
               if e.Event.params.(0) = V.Int 7 then incr detections))
    | `Naive | `Retro ->
        ignore
          (Broker.register s (Event.template "OwnsBadge" [ Event.Any; Event.Any ]) (fun e ->
               match e.Event.params with
               | [| _; V.Int b |] ->
                   let since = match strategy with `Retro -> Some e.Event.stamp | _ -> None in
                   ignore
                     (Broker.register s ?since (seen_tpl b) (fun _ ->
                          incr deliveries;
                          incr detections))
               | _ -> ())));
    Engine.run ~until:2.0 engine;
    (* Background sightings of other badges. *)
    for i = 0 to 199 do
      Engine.schedule engine ~delay:(0.01 *. float_of_int i) (fun () ->
          ignore (Broker.signal srv "Seen" [ V.Int (100 + (i mod 20)); V.Str "hall" ]))
    done;
    (* The race: ownership learned, the badge seen 20 ms later — inside the
       50 ms registration latency. *)
    Engine.schedule engine ~delay:1.0 (fun () ->
        ignore (Broker.signal srv "OwnsBadge" [ V.Str "rjh"; V.Int 7 ]));
    Engine.schedule engine ~delay:1.02 (fun () ->
        ignore (Broker.signal srv "Seen" [ V.Int 7; V.Str "T14" ]));
    Engine.run ~until:10.0 engine;
    (!detections, !deliveries)
  in
  let naive_d, naive_t = trial `Naive in
  let retro_d, retro_t = trial `Retro in
  let eager_d, eager_t = trial `Eager in
  row "%-34s  %10s  %14s\n" "strategy" "detected" "notifications";
  row "%-34s  %10d  %14d\n" "lookup-then-register (racy)" naive_d naive_t;
  row "%-34s  %10d  %14d\n" "retrospective registration" retro_d retro_t;
  row "%-34s  %10d  %14d\n" "eager wildcard registration" eager_d eager_t;
  row "shape: naive misses the raced event; retrospective catches it with minimal traffic;\n";
  row "       eager catches it but pays a notification per irrelevant sighting.\n"

(* ------------------------------------------------------------------ *)
(* E7 — §6.8.2–6.8.3: heartbeat period trade-off                       *)
(* ------------------------------------------------------------------ *)

let e7 () =
  header "E7: heartbeat period vs detection delay and message cost (§6.8.2-6.8.3)";
  row "%14s  %20s  %18s\n" "heartbeat (s)" "A-B detect delay (s)" "hb msgs / minute";
  List.iter
    (fun hb ->
      let engine = Engine.create () in
      let net = Net.create ~latency:(Net.Fixed 0.005) engine in
      let ahost = Net.add_host net "srvA" and bhost = Net.add_host net "srvB" in
      let chost = Net.add_host net "watcher" in
      let sa = Broker.create_server net ahost ~name:"A" ~heartbeat:hb () in
      let sb = Broker.create_server net bhost ~name:"B" ~heartbeat:hb () in
      ignore sb;
      let sessions = ref [] in
      List.iter
        (fun srv ->
          Broker.connect net chost srv
            ~on_result:(function Ok s -> sessions := s :: !sessions | Error _ -> ())
            ())
        [ sa; sb ];
      Engine.run ~until:1.0 engine;
      let io = Broker_io.make net chost !sessions in
      let detected = ref None in
      let _ =
        Bead.detect io ~start:1.0
          (Composite.parse "A.Evt() - B.Evt()")
          ~on_occur:(fun _ -> if !detected = None then detected := Some (Engine.now engine))
      in
      Engine.run ~until:2.0 engine;
      Stats.reset (Net.stats net);
      let fired_at = 5.0 in
      Engine.schedule engine ~delay:(fired_at -. Engine.now engine) (fun () ->
          ignore (Broker.signal sa "Evt" []));
      Engine.run ~until:60.0 engine;
      let delay = match !detected with Some t -> t -. fired_at | None -> nan in
      let msgs = Stats.count (Net.stats net) "evt.heartbeat" in
      row "%14.2f  %20.3f  %18.1f\n" hb delay (float_of_int msgs /. 58.0 *. 60.0))
    [ 0.25; 0.5; 1.0; 2.0; 4.0 ];
  row "shape: detection delay grows with the heartbeat period (~up to one period);\n";
  row "       heartbeat traffic falls as 1/period — the paper's tunable trade-off.\n"

(* ------------------------------------------------------------------ *)
(* E8 — §4.9–4.10: revocation cascade across service chains            *)
(* ------------------------------------------------------------------ *)

let e8 () =
  header "E8: revocation propagation latency across a chain of services (§4.9)";
  row "%8s  %22s\n" "services" "cascade latency (ms)";
  List.iter
    (fun chain ->
      let w = make_world () in
      (* Unbatched notifications: this experiment measures the ms-scale
         per-event cascade latency; batching trades that latency for
         message count (measured by e15). *)
      let first = service ~batch:false w ~name:"S1" ~rolefile:{|
def R(u) u: String
R(u) <-
|} in
      let services =
        first
        :: List.init (chain - 1) (fun i ->
               let n = i + 2 in
               service ~batch:false w ~name:(Printf.sprintf "S%d" n)
                 ~rolefile:(Printf.sprintf "R(u) <- S%d.R(u)*" (n - 1)))
      in
      let client = fresh_vci () in
      let base = Service.issue_arbitrary first ~client ~roles:[ "R" ] ~args:[ V.Str "u" ] in
      let cert =
        List.fold_left
          (fun prev svc ->
            if Service.name svc = "S1" then prev
            else begin
              let got = ref None in
              Service.request_entry svc ~client_host:w.client_host ~client ~role:"R"
                ~creds:[ prev ]
                (function Ok c -> got := Some c | Error e -> failwith e);
              run_for w 1.0;
              Option.get !got
            end)
          base services
      in
      let last = List.nth services (chain - 1) in
      run_for w 3.0;
      assert (Service.validate last ~client cert = Ok ());
      (* Revoke at the root and watch the leaf. *)
      let t0 = Engine.now w.engine in
      Service.revoke_certificate first base;
      let revoked_at = ref None in
      let rec poll () =
        if Service.validate last ~client cert <> Ok () then revoked_at := Some (Engine.now w.engine)
        else if Engine.now w.engine -. t0 < 10.0 then Engine.schedule w.engine ~delay:0.002 poll
      in
      poll ();
      run_for w 12.0;
      let latency = match !revoked_at with Some t -> (t -. t0) *. 1000.0 | None -> nan in
      row "%8d  %22.1f\n" chain latency)
    [ 1; 2; 3; 4; 6; 8 ];
  row "shape: cascade latency is linear in chain length (one event hop per service).\n"

(* ------------------------------------------------------------------ *)
(* E9 — micro-benchmarks (Bechamel)                                    *)
(* ------------------------------------------------------------------ *)

let e9 () =
  header "E9: micro-costs (Bechamel; ns per operation)";
  let open Bechamel in
  let rolefile_src =
    {|
def LoggedOn(u, h) u: String h: String
Chair <- Login.LoggedOn("jmb", h)
Member(u) <- Login.LoggedOn(u, h)* <|* Chair : (u in staff)*
|}
  in
  let secrets = Oasis_util.Signing.Rolling.create (Oasis_util.Prng.create 9L) in
  let cert =
    Cert.sign_rmc secrets ~length:16
      {
        Cert.holder = fresh_vci ();
        service = "svc";
        rolefile = "main";
        roles = Oasis_util.Bitset.of_list [ 0 ];
        args = [ V.Str "dm" ];
        crr = { Credrec.index = 0; magic = 1 };
        issued_at = 0.0;
        rmc_sig = "";
      }
  in
  let tpl = Event.template "Seen" [ Event.Var "b"; Event.Lit (V.Str "T14") ] in
  let ev = Event.make ~name:"Seen" ~source:"m" ~stamp:1.0 [ V.Int 12; V.Str "T14" ] in
  let table = Credrec.create_table () in
  let deep_leaf = Credrec.leaf table () in
  let _top =
    let rec build node n =
      if n = 0 then node
      else
        build (Credrec.combine_fresh table [ (node, false); (Credrec.leaf table (), false) ]) (n - 1)
    in
    build deep_leaf 10
  in
  let flip = ref Credrec.False in
  let conf, jmb, chair =
    let w = make_world () in
    let login = service w ~name:"Login" ~rolefile:login_rolefile in
    let conf = service w ~name:"Conf" ~rolefile:rolefile_src in
    Group.add (Service.group conf "staff") (V.Str "dm");
    let jmb = fresh_vci () in
    let jc =
      Service.issue_arbitrary login ~client:jmb ~roles:[ "LoggedOn" ]
        ~args:[ V.Str "jmb"; V.Str "h" ]
    in
    let chair = ref None in
    Service.request_entry conf ~client_host:w.client_host ~client:jmb ~role:"Chair" ~creds:[ jc ]
      (function Ok c -> chair := Some c | Error e -> failwith e);
    run_for w 2.0;
    (conf, jmb, Option.get !chair)
  in
  let tests =
    [
      Test.make ~name:"rdl-parse+infer"
        (Staged.stage (fun () ->
             match Oasis_rdl.Parser.parse_result rolefile_src with
             | Ok rf -> ignore (Oasis_rdl.Infer.infer rf)
             | Error _ -> assert false));
      Test.make ~name:"cert-sign"
        (Staged.stage (fun () -> ignore (Cert.sign_rmc secrets ~length:16 cert)));
      Test.make ~name:"cert-verify"
        (Staged.stage (fun () -> ignore (Cert.verify_rmc secrets cert)));
      Test.make ~name:"validate-cached"
        (Staged.stage (fun () -> ignore (Service.validate conf ~client:jmb chair)));
      Test.make ~name:"template-match" (Staged.stage (fun () -> ignore (Event.matches tpl ev)));
      Test.make ~name:"credrec-flip-depth10"
        (Staged.stage (fun () ->
             flip := (match !flip with Credrec.True -> Credrec.False | _ -> Credrec.True);
             Credrec.set_leaf table deep_leaf !flip));
      Test.make ~name:"composite-parse"
        (Staged.stage (fun () ->
             ignore (Composite.parse "$Seen(A, R); $Seen(B, R) - Seen(A, Rp)")));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analysed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> row "%-28s  %12.1f ns/op\n" name est
          | _ -> row "%-28s  %12s\n" name "n/a")
        analysed)
    tests

(* ------------------------------------------------------------------ *)
(* E10 — ch. 7: event-security overhead                                *)
(* ------------------------------------------------------------------ *)

let e10 () =
  header "E10: event security overhead — unpoliced vs ERDL-filtered vs proxy (fig 7.3)";
  let deliver_through ~policed ~proxied =
    let engine = Engine.create () in
    let net = Net.create ~latency:(Net.Fixed 0.005) engine in
    let reg = Service.create_registry () in
    let site = Site.create net reg ~name:"S" ~rooms:[ "r1" ] ~heartbeat:0.5 () in
    Site.register_badge site ~badge:7 ~user:"me";
    let nsvc =
      Result.get_ok
        (Service.create net (Net.add_host net "ns") reg ~name:"Namer"
           ~rolefile:{|
def OwnsBadge(u, b) u: String b: Integer
OwnsBadge(u, b) <-
|} ())
    in
    let rules =
      Result.get_ok (Oasis_esec.Erdl.parse "allow Namer.OwnsBadge(u, b) : Seen(b, *)")
    in
    if policed then Oasis_esec.Policy.install (Site.master site) ~registry:reg ~rules;
    let upstream = Site.master site in
    let target =
      if proxied then
        Oasis_esec.Policy.Proxy.broker
          (Oasis_esec.Policy.Proxy.create net (Net.add_host net "proxyh") ~name:"S-export"
             ~upstream ~registry:reg ~rules ())
      else upstream
    in
    Engine.run ~until:1.0 engine;
    let me = fresh_vci () in
    let cert =
      Service.issue_arbitrary nsvc ~client:me ~roles:[ "OwnsBadge" ] ~args:[ V.Str "me"; V.Int 7 ]
    in
    let chost = Net.add_host net "watcher" in
    let got_at = ref None in
    Broker.connect net chost target
      ~credentials:
        (if policed || proxied then [ Oasis_esec.Policy.token_of_cert cert ] else [])
      ~on_result:(function
        | Ok s ->
            ignore
              (Broker.register s (Event.template "Seen" [ Event.Any; Event.Any ]) (fun _ ->
                   if !got_at = None then got_at := Some (Engine.now engine)))
        | Error e -> failwith e)
      ();
    Engine.run ~until:3.0 engine;
    let t0 = Engine.now engine in
    Site.sight site ~badge:7 ~home:"S" ~room:"r1";
    Engine.run ~until:6.0 engine;
    match !got_at with Some t -> (t -. t0) *. 1000.0 | None -> nan
  in
  let plain = deliver_through ~policed:false ~proxied:false in
  let policed = deliver_through ~policed:true ~proxied:false in
  (* With a proxy the exporting site's policy lives at the proxy; the master
     itself stays open to trusted local infrastructure (fig 7.3). *)
  let proxied = deliver_through ~policed:false ~proxied:true in
  row "%-32s  %16s\n" "configuration" "delivery (ms)";
  row "%-32s  %16.2f\n" "unpoliced local" plain;
  row "%-32s  %16.2f\n" "ERDL-filtered local" policed;
  row "%-32s  %16.2f\n" "remote via policy proxy" proxied;
  row "shape: local filtering costs nothing at delivery time; the proxy adds one hop.\n"

(* ------------------------------------------------------------------ *)
(* E11 — figs 6.2–6.3: inter-site protocol message economy             *)
(* ------------------------------------------------------------------ *)

let e11 () =
  header "E11: inter-site badge protocol messages (fig 6.2) vs naive broadcast";
  let engine = Engine.create () in
  let net = Net.create ~latency:(Net.Fixed 0.005) engine in
  let reg = Service.create_registry () in
  let nsites = 3 in
  let sites =
    List.init nsites (fun i ->
        Site.create net reg
          ~name:(Printf.sprintf "Site%d" i)
          ~rooms:[ "a"; "b"; "c"; "d" ] ~heartbeat:1.0 ())
  in
  let wl =
    Workload.create engine ~seed:13L ~sites ~people_per_site:8 ~mean_dwell:2.0
      ~travel_probability:0.1 ()
  in
  Workload.start wl;
  Engine.run ~until:300.0 engine;
  let intersite =
    Stats.count (Net.stats net) "badge.intersite"
    + Stats.count (Net.stats net) "badge.intersite.reply"
    + Stats.count (Net.stats net) "badge.purge"
  in
  let naive = Workload.sightings wl * (nsites - 1) in
  row "sightings:             %8d\n" (Workload.sightings wl);
  row "site changes:          %8d\n" (Workload.site_changes wl);
  row "home-pointer protocol: %8d inter-site msgs (O(site changes))\n" intersite;
  row "naive broadcast:       %8d inter-site msgs (O(sightings x sites))\n" naive;
  row "shape: the protocol's traffic tracks movement between sites, not raw sightings.\n"

(* ------------------------------------------------------------------ *)
(* E12 — §3.2.2: role-entry engine scaling with rolefile size          *)
(* ------------------------------------------------------------------ *)

let e12 () =
  header "E12: role-entry cost vs rolefile size (§3.2.2, single-pass fig 3.2 semantics)";
  row "%12s  %20s  %20s\n" "statements" "single-pass (ms)" "fixpoint mode (ms)";
  List.iter
    (fun nstatements ->
      let time_mode fixpoint =
        let w = make_world ~latency:(Net.Fixed 0.0001) () in
        let buf = Buffer.create 1024 in
        Buffer.add_string buf "def Base()\nBase <-\n";
        for i = 1 to nstatements do
          Buffer.add_string buf
            (Printf.sprintf "R%d <- %s\n" i
               (if i = 1 then "Base" else Printf.sprintf "R%d" (i - 1)))
        done;
        let svc =
          Result.get_ok
            (Service.create w.net (add_host w) w.reg
               ~name:(Printf.sprintf "Scale%d%b" nstatements fixpoint)
               ~rolefile:(Buffer.contents buf) ~fixpoint_entry:fixpoint ())
        in
        let client = fresh_vci () in
        let base = Service.issue_arbitrary svc ~client ~roles:[ "Base" ] ~args:[] in
        let trials = 50 in
        let t0 = Sys.time () in
        for _ = 1 to trials do
          Service.request_entry svc ~client_host:w.client_host ~client
            ~role:(Printf.sprintf "R%d" nstatements) ~creds:[ base ]
            (fun _ -> ());
          run_for w 0.5
        done;
        (Sys.time () -. t0) /. float_of_int trials *. 1000.0
      in
      row "%12d  %20.3f  %20.3f\n" nstatements (time_mode false) (time_mode true))
    [ 1; 4; 16; 32; 60 ];
  row "shape: single-pass entry is linear in rolefile size; fixpoint mode pays extra passes.\n"

(* ------------------------------------------------------------------ *)
(* E13 — §4.8: credential-record garbage collection under churn        *)
(* ------------------------------------------------------------------ *)

let e13 () =
  header "E13: credential-record GC under membership churn (§4.8)";
  row "%10s  %12s  %12s  %14s\n" "certs" "live before" "live after" "sweep (ms)";
  List.iter
    (fun n ->
      let table = Credrec.create_table () in
      (* Each certificate: one group-membership leaf and one combining
         record; half of the certificates are then revoked (exited). *)
      let certs =
        List.init n (fun _ ->
            let leaf = Credrec.leaf table () in
            let crr = Credrec.combine_fresh table [ (leaf, false) ] in
            Credrec.set_direct_use table crr true;
            crr)
      in
      List.iteri (fun i crr -> if i mod 2 = 0 then Credrec.invalidate table crr) certs;
      let before = Credrec.live_records table in
      let t0 = Sys.time () in
      let reclaimed = ref (Credrec.gc_sweep table) in
      (* Iterate: unlinking permanent parents frees their leaves next pass. *)
      let rec settle () =
        let r = Credrec.gc_sweep table in
        if r > 0 then begin
          reclaimed := !reclaimed + r;
          settle ()
        end
      in
      settle ();
      let dt = (Sys.time () -. t0) *. 1000.0 in
      row "%10d  %12d  %12d  %14.2f\n" n before (Credrec.live_records table) dt)
    [ 100; 1000; 10000; 50000 ];
  row "shape: a sweep reclaims every revoked certificate's records; live certificates\n";
  row "       (and the leaves they depend on) survive.  Dangling references read False.\n"

(* ------------------------------------------------------------------ *)
(* E14 — §4.10: revocation convergence across a fault schedule         *)
(* ------------------------------------------------------------------ *)

let e14 () =
  header "E14: revocation convergence vs fault schedule (§4.10)";
  (* The issuing service's host crashes; the revocation happens while it
     is down; dependent services must converge (validation answers
     Revoked) shortly after the host heals.  §4.10's claim is that
     staleness — and hence recovery — is bounded by the heartbeat period,
     so the interesting number is the convergence delay measured in
     heartbeat periods, across heartbeat settings and outage lengths. *)
  let scenario ~heartbeat ~down =
    let w = make_world () in
    let svc name rolefile =
      Result.get_ok (Service.create w.net (add_host w) w.reg ~name ~rolefile ~heartbeat ())
    in
    let login = svc "Login" login_rolefile in
    let conf =
      svc "Conf"
        {|
Chair <- Login.LoggedOn("jmb", h)
Member(u) <- Login.LoggedOn(u, h)* <|* Chair : (u in staff)*
|}
    in
    Group.add (Service.group conf "staff") (V.Str "dm");
    let entry ~client ~role ?creds ?delegation () =
      let result = ref None in
      Service.request_entry conf ~client_host:w.client_host ~client ~role ?creds ?delegation
        (fun r -> result := Some r);
      run_for w 2.0;
      match !result with Some (Ok c) -> c | _ -> failwith "e14: entry failed"
    in
    let jmb = fresh_vci () in
    let jmb_cert =
      Service.issue_arbitrary login ~client:jmb ~roles:[ "LoggedOn" ]
        ~args:[ V.Str "jmb"; V.Str "ely" ]
    in
    let chair = entry ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
    let dm = fresh_vci () in
    let dm_cert =
      Service.issue_arbitrary login ~client:dm ~roles:[ "LoggedOn" ]
        ~args:[ V.Str "dm"; V.Str "ely" ]
    in
    let d =
      let result = ref None in
      Service.request_delegation conf ~client_host:w.client_host ~delegator:jmb ~using:chair
        ~role:"Member"
        ~required:[ ("Login", "LoggedOn", [ V.Str "dm"; V.Str "*" ]) ]
        (fun r -> result := Some r);
      run_for w 2.0;
      match !result with Some (Ok (d, _)) -> d | _ -> failwith "e14: delegation failed"
    in
    let member = entry ~client:dm ~role:"Member" ~creds:[ dm_cert ] ~delegation:d () in
    run_for w (4.0 *. heartbeat);
    assert (Service.validate conf ~client:dm member = Ok ());
    Net.crash_host w.net (Service.host login);
    run_for w 1.0;
    Service.revoke_certificate login dm_cert;
    run_for w (down -. 1.0);
    Net.restart_host w.net (Service.host login);
    let healed = Engine.now w.engine in
    let deadline = healed +. (20.0 *. heartbeat) in
    let rec poll () =
      if Service.validate conf ~client:dm member = Error Service.Revoked then
        Some (Engine.now w.engine -. healed)
      else if Engine.now w.engine >= deadline then None
      else begin
        run_for w 0.02;
        poll ()
      end
    in
    (poll (), Net.stats w.net)
  in
  row "%10s %10s %14s %14s\n" "heartbeat" "downtime" "converge (s)" "(hb periods)";
  let last_stats = ref None in
  List.iter
    (fun (heartbeat, down) ->
      let converged, stats = scenario ~heartbeat ~down in
      last_stats := Some stats;
      match converged with
      | Some dt -> row "%10.2f %10.1f %14.2f %14.2f\n" heartbeat down dt (dt /. heartbeat)
      | None -> row "%10.2f %10.1f %14s %14s\n" heartbeat down "-" "no convergence")
    [ (0.5, 2.0); (0.5, 5.0); (1.0, 2.0); (1.0, 5.0); (2.0, 2.0); (2.0, 5.0) ];
  (match !last_stats with
  | None -> ()
  | Some stats ->
      row "\nfault & reliability counters (last run: heartbeat 2.0, downtime 5.0):\n";
      List.iter
        (fun (r : Stats.row) ->
          let cat = r.Stats.r_cat and n = r.Stats.r_count in
          let keep =
            String.starts_with ~prefix:"fault." cat
            || List.exists
                 (fun suffix -> String.ends_with ~suffix cat)
                 [ ".attempt"; ".giveup"; ".late_reply"; ".dead"; ".partitioned" ]
          in
          if keep && n > 0 then row "  %-28s %8d\n" cat n)
        (Stats.report stats));
  row "shape: convergence delay scales with the heartbeat period (a bounded number of\n";
  row "       periods after the heal), not with how long the host stayed down.\n"

(* ------------------------------------------------------------------ *)
(* E15 — scaling the revocation hot path: batched heartbeats & the     *)
(* indexed credential graph (role-entry throughput, messages per       *)
(* revocation burst at 1k/10k/100k memberships)                        *)
(* ------------------------------------------------------------------ *)

let e15 () =
  header "E15: revocation hot path at scale (batched vs per-event notification)";
  let sizes =
    match Sys.getenv_opt "OASIS_E15_SIZES" with
    | Some s -> List.filter_map int_of_string_opt (String.split_on_char ',' s)
    | None -> [ 1000; 10_000; 100_000 ]
  in
  let total_msgs w =
    List.fold_left
      (fun acc (r : Stats.row) -> acc + r.Stats.r_count)
      0
      (Stats.report (Net.stats w.net))
  in
  (* n memberships of Conf.Member(u), each resting on an external record
     mirroring a Login credential, plus a compound residual constraint so
     repeated entry exercises the compiled-residual cache.  The burst
     revokes the first min(n,1000) Login certificates and counts every
     network message until the cascade settles. *)
  let scenario ~batch ~n =
    let w = make_world () in
    let svc name rolefile = service ~batch w ~name ~rolefile in
    let login = svc "Login" login_rolefile in
    let conf =
      svc "Conf" {|
Member(u) <- Login.LoggedOn(u, h)* : ((u in staff) and (u in eng))*
|}
    in
    let staff = Service.group conf "staff" and eng = Service.group conf "eng" in
    let users = Array.init n (fun i -> Printf.sprintf "u%d" i) in
    Array.iter
      (fun u ->
        Group.add staff (V.Str u);
        Group.add eng (V.Str u))
      users;
    let clients = Array.map (fun _ -> fresh_vci ()) users in
    let login_certs =
      Array.mapi
        (fun i u ->
          Service.issue_arbitrary login ~client:clients.(i) ~roles:[ "LoggedOn" ]
            ~args:[ V.Str u; V.Str "ely" ])
        users
    in
    let enter () =
      let certs = Array.make n None in
      let t0 = Sys.time () in
      Array.iteri
        (fun i _ ->
          Service.request_entry conf ~client_host:w.client_host ~client:clients.(i)
            ~role:"Member"
            ~creds:[ login_certs.(i) ]
            (function Ok c -> certs.(i) <- Some c | Error e -> failwith ("e15 entry: " ^ e)))
        users;
      run_for w 60.0;
      let dt = Sys.time () -. t0 in
      (Array.map (function Some c -> c | None -> failwith "e15: entry did not complete") certs, dt)
    in
    let _, dt_first = enter () in
    let member_certs, dt_again = enter () in
    run_for w 5.0;
    (* Revocation burst. *)
    let burst = min n 1000 in
    let before = total_msgs w in
    for i = 0 to burst - 1 do
      Service.revoke_certificate login login_certs.(i)
    done;
    run_for w 5.0;
    let burst_msgs = total_msgs w - before in
    let final =
      Array.mapi (fun i cert -> Service.validate conf ~client:clients.(i) cert = Ok ()) member_certs
    in
    (* The cascade must reach exactly the burst's dependent memberships. *)
    Array.iteri
      (fun i ok ->
        if ok <> (i >= burst) then
          failwith (Printf.sprintf "e15: membership %d in wrong final state" i))
      final;
    let s = Net.stats w.net in
    let residual_hits = Stats.count s "oasis.residual.hit" in
    let residual_misses = Stats.count s "oasis.residual.miss" in
    (dt_first, dt_again, burst, burst_msgs, final, residual_hits, residual_misses)
  in
  row "%8s %10s %14s %14s %10s %12s %16s\n" "n" "mode" "entry (e/s)" "re-entry (e/s)" "burst"
    "burst msgs" "residual hit/miss";
  List.iter
    (fun n ->
      let fn = float_of_int n in
      let batched = scenario ~batch:true ~n in
      let d1, d2, burst, msgs_b, final_b, rh, rm = batched in
      row "%8d %10s %14.0f %14.0f %10d %12d %11d/%d\n" n "batched" (fn /. d1) (fn /. d2) burst
        msgs_b rh rm;
      (* The unbatched scheme needs one registration and one message per
         record, so it is only feasible (and only measured) at the smallest
         size — which is where the acceptance comparison is defined. *)
      if n <= 1000 then begin
        let d1', d2', _, msgs_u, final_u, _, _ = scenario ~batch:false ~n in
        row "%8d %10s %14.0f %14.0f %10d %12d\n" n "per-event" (fn /. d1') (fn /. d2') burst
          msgs_u;
        assert (final_b = final_u);
        if msgs_u < 5 * msgs_b then
          failwith
            (Printf.sprintf "e15: expected >=5x fewer messages batched (%d vs %d)" msgs_b msgs_u)
      end)
    sizes;
  row "shape: batching turns a 1k-record revocation burst from O(records) messages into\n";
  row "       O(peer links) heartbeat-piggybacked digests (>=5x fewer, same final state);\n";
  row "       re-entry outpaces first entry via the compiled-residual and signature caches.\n"

(* ------------------------------------------------------------------ *)
(* E16 — end-to-end revocation-propagation latency: causal spans over   *)
(* the invalidate -> digest -> heartbeat flush -> peer apply pipeline,  *)
(* percentiles from both the span tree and the Stats histograms, JSON   *)
(* snapshot dumped for the perf trajectory (BENCH_e16_<n>.json)         *)
(* ------------------------------------------------------------------ *)

let e16 () =
  header "E16: revocation propagation latency, end to end (spans + histograms)";
  let sizes =
    match Sys.getenv_opt "OASIS_E16_SIZES" with
    | Some s -> List.filter_map int_of_string_opt (String.split_on_char ',' s)
    | None -> [ 1000; 10_000 ]
  in
  let heartbeat = 1.0 in
  let scenario ~n =
    let w = make_world () in
    let login = service ~batch:true w ~name:"Login" ~rolefile:login_rolefile in
    let conf = service ~batch:true w ~name:"Conf" ~rolefile:{|
Member(u) <- Login.LoggedOn(u, h)*
|} in
    let users = Array.init n (fun i -> Printf.sprintf "u%d" i) in
    let clients = Array.map (fun _ -> fresh_vci ()) users in
    let login_certs =
      Array.mapi
        (fun i u ->
          Service.issue_arbitrary login ~client:clients.(i) ~roles:[ "LoggedOn" ]
            ~args:[ V.Str u; V.Str "ely" ])
        users
    in
    Array.iteri
      (fun i _ ->
        Service.request_entry conf ~client_host:w.client_host ~client:clients.(i) ~role:"Member"
          ~creds:[ login_certs.(i) ]
          (function Ok _ -> () | Error e -> failwith ("e16 entry: " ^ e)))
      users;
    run_for w 60.0;
    (* Trace only the burst: entry-phase spans would otherwise age the
       ring buffer out from under the measurement. *)
    let tr = Net.trace w.net in
    Trace.set_enabled tr true;
    Trace.clear tr;
    Stats.reset (Net.stats w.net);
    (* Stagger the revocations across many heartbeat periods so their
       arrival phase relative to the coalescing tick varies: each flush
       window yields one end-to-end sample and the samples trace out the
       full 0..heartbeat coalescing-delay distribution, not one point. *)
    let burst = min n 500 in
    let gap = 0.2 in
    for i = 0 to burst - 1 do
      Engine.schedule w.engine
        ~delay:(float_of_int i *. gap)
        (fun () -> Service.revoke_certificate login login_certs.(i))
    done;
    run_for w ((float_of_int burst *. gap) +. 10.0);
    Trace.set_enabled tr false;
    (* End-to-end latency per flush window, derived from the spans: a
       window's trace is rooted at its earliest [revoke.invalidate] and
       closed by the peer's [revoke.apply]. *)
    let spans = Trace.spans tr in
    let roots = Hashtbl.create 64 in
    List.iter
      (fun sp ->
        if Trace.span_parent sp = None && Trace.span_name sp = "revoke.invalidate" then
          Hashtbl.replace roots (Trace.span_trace sp) (Trace.span_start sp))
      spans;
    let e2e =
      List.filter_map
        (fun sp ->
          if Trace.span_name sp = "revoke.apply" then
            Option.map
              (fun root_start -> Trace.span_end sp -. root_start)
              (Hashtbl.find_opt roots (Trace.span_trace sp))
          else None)
        spans
      |> List.sort compare |> Array.of_list
    in
    let pct p =
      match Array.length e2e with
      | 0 -> 0.0
      | len ->
          let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int len)) in
          e2e.(max 0 (min (len - 1) (rank - 1)))
    in
    let samples = Array.length e2e in
    if samples = 0 then failwith "e16: no end-to-end revocation spans recorded";
    if Trace.open_spans tr <> [] then failwith "e16: revocation spans left open after settling";
    let mx = Array.fold_left Float.max 0.0 e2e in
    (* Coalescing bounds propagation by one heartbeat of buffering plus
       delivery latency; anything beyond that is a regression. *)
    if mx > 2.0 *. heartbeat then
      failwith (Printf.sprintf "e16: propagation latency %.3fs exceeds 2 heartbeats" mx);
    let s = Net.stats w.net in
    if Stats.latency_samples s "oasis.revoke.e2e" <> samples then
      failwith "e16: span-derived and histogram sample counts disagree";
    (* Stats/Trace pre-render their own JSON; parse and re-emit through
       the shared emitter with sorted keys so the snapshot diffs cleanly
       against other runs (hash-iteration order used to leak into the
       byte layout). *)
    let reparse what s =
      match J.parse s with Ok j -> j | Error e -> failwith ("e16 " ^ what ^ " json: " ^ e)
    in
    let snapshot =
      [
        ("n", J.Int n);
        ("burst", J.Int burst);
        ("heartbeat", J.Float heartbeat);
        ( "e2e",
          J.Obj
            [
              ("samples", J.Int samples);
              ("p50", J.Float (pct 50.0));
              ("p99", J.Float (pct 99.0));
              ("max", J.Float mx);
            ] );
        ("stats", reparse "stats" (Stats.to_json s));
        ("trace", reparse "trace" (Trace.to_json tr));
      ]
    in
    (samples, pct 50.0, pct 99.0, mx,
     Stats.percentile s "oasis.revoke.e2e" 50.0,
     Stats.percentile s "oasis.revoke.e2e" 99.0, snapshot)
  in
  row "%8s %9s %12s %12s %12s %14s %14s\n" "n" "windows" "span p50 (s)" "span p99 (s)"
    "span max (s)" "hist p50 (s)" "hist p99 (s)";
  List.iter
    (fun n ->
      let samples, p50, p99, mx, h50, h99, snapshot = scenario ~n in
      row "%8d %9d %12.4f %12.4f %12.4f %14.4f %14.4f\n" n samples p50 p99 mx h50 h99;
      write_snapshot "e16" n snapshot)
    sizes;
  row "shape: propagation is bounded by one heartbeat of coalescing delay plus delivery\n";
  row "       latency, independent of membership count; the histogram percentiles agree\n";
  row "       with the span-derived ones to within one log-bucket octave.\n"

(* ------------------------------------------------------------------ *)
(* E17 — durable state: group-commit fsync coalescing, and crash        *)
(* recovery time vs log length with snapshot-bounded vs full replay.    *)
(* Snapshot emitted as BENCH_e17_<n>.json via the shared JSON emitter.  *)
(* ------------------------------------------------------------------ *)

let e17 () =
  header "E17: durability — group commit and recovery (snapshot vs full replay)";
  (* (a) Group commit: 1000 appends arriving 1 ms apart.  The coalesced
     flush must cut physical fsyncs by >=5x against fsync-per-append. *)
  let appends = 1000 in
  let fsyncs ~fsync_each =
    let engine = Engine.create () in
    let net = Net.create ~latency:(Net.Fixed 0.005) engine in
    let h = Net.add_host net "store" in
    let disk = Disk.create net h () in
    let wal = Wal.create disk ~file:"bench.wal" ~fsync_each () in
    for i = 0 to appends - 1 do
      Engine.schedule engine
        ~delay:(0.001 *. float_of_int i)
        (fun () -> Wal.append wal (Printf.sprintf "record-%04d" i))
    done;
    Engine.run ~until:5.0 engine;
    if List.length (Wal.recover wal) <> appends then failwith "e17: appends lost before crash";
    Stats.count (Net.stats net) "store.fsync"
  in
  let baseline = fsyncs ~fsync_each:true in
  let grouped = fsyncs ~fsync_each:false in
  if grouped * 5 > baseline then
    failwith (Printf.sprintf "e17: expected >=5x fsync reduction (%d vs %d)" grouped baseline);
  row "group commit: %d appends -> %d fsyncs coalesced vs %d per-append (%.1fx fewer)\n" appends
    grouped baseline
    (float_of_int baseline /. float_of_int grouped);
  (* (b) Recovery vs log length.  A fixed working set of members churns
     (enter, then revoke last round's certificates), so the log accumulates
     history while the live state stays O(members): full replay scans the
     whole history, a checkpointed service replays snapshot + short suffix. *)
  let sizes =
    match Sys.getenv_opt "OASIS_E17_SIZES" with
    | Some s -> List.filter_map int_of_string_opt (String.split_on_char ',' s)
    | None -> [ 500; 2000; 8000 ]
  in
  let members = 64 in
  let rounds_for n = max 2 ((n + (2 * members) - 1) / (2 * members)) in
  let meet_rolefile =
    {|
Chair <- Login.LoggedOn("jmb", h)
Member(u) <- Login.LoggedOn(u, h)* |>* Chair : u in staff
|}
  in
  let scenario ~rounds ~snapshot =
    let w = make_world () in
    let login = service w ~name:"Login" ~rolefile:login_rolefile in
    let meet_host = add_host w in
    let disk = Disk.create w.net meet_host () in
    let meet =
      Result.get_ok
        (Service.create w.net meet_host w.reg ~name:"Meet" ~rolefile:meet_rolefile ~disk
           ~snapshot_every:(if snapshot then 128 else max_int)
           ())
    in
    let staff = Service.group meet "staff" in
    let users = Array.init members (fun i -> Printf.sprintf "u%d" i) in
    Array.iter (fun u -> Group.add staff (V.Str u)) users;
    let clients = Array.map (fun _ -> fresh_vci ()) users in
    let logins =
      Array.mapi
        (fun i u ->
          Service.issue_arbitrary login ~client:clients.(i) ~roles:[ "LoggedOn" ]
            ~args:[ V.Str u; V.Str "ely" ])
        users
    in
    let jmb = fresh_vci () in
    let jmb_cert =
      Service.issue_arbitrary login ~client:jmb ~roles:[ "LoggedOn" ]
        ~args:[ V.Str "jmb"; V.Str "ely" ]
    in
    let chair = ref None in
    Service.request_entry meet ~client_host:w.client_host ~client:jmb ~role:"Chair"
      ~creds:[ jmb_cert ]
      (function Ok c -> chair := Some c | Error e -> failwith ("e17 chair entry: " ^ e));
    run_for w 2.0;
    let chair = match !chair with Some c -> c | None -> failwith "e17: chair entry stalled" in
    let last = Array.make members None in
    for r = 0 to rounds - 1 do
      Array.iteri
        (fun i _ ->
          Engine.schedule w.engine
            ~delay:(0.5 *. float_of_int r)
            (fun () ->
              Service.request_entry meet ~client_host:w.client_host ~client:clients.(i)
                ~role:"Member" ~creds:[ logins.(i) ]
                (function
                  | Ok c ->
                      last.(i) <- Some c;
                      if r < rounds - 1 then
                        Engine.schedule w.engine ~delay:0.25 (fun () ->
                            Service.revoke_certificate meet c)
                  | Error e -> failwith ("e17 entry: " ^ e))))
        users
    done;
    run_for w ((0.5 *. float_of_int rounds) +. 5.0);
    (* One role-based revocation so the blacklist has durable content. *)
    let fired = ref false in
    Service.revoke_role_instance meet ~client_host:w.client_host ~revoker:chair ~role:"Member"
      ~args:[ V.Str "u0" ]
      (function Ok _ -> fired := true | Error e -> failwith ("e17 fire: " ^ e));
    run_for w 2.0;
    if not !fired then failwith "e17: fire stalled";
    Option.iter Oasis_core.Journal.flush (Service.journal meet);
    run_for w 1.0;
    let log_bytes = Disk.durable_size disk ~file:"svc.Meet.wal" in
    let snap_bytes = Disk.durable_size disk ~file:"svc.Meet.snap" in
    Net.crash_host w.net meet_host;
    run_for w 1.0;
    Net.restart_host w.net meet_host;
    run_for w 5.0;
    let s = Net.stats w.net in
    if Stats.count s "oasis.recover" < 1 then failwith "e17: no recovery ran";
    let replayed = Stats.max_of s "oasis.recover.records" in
    let rec_latency = Stats.latency_max s "oasis.recover.e2e" in
    (* Correctness through the crash: the fired instance stays out, a
       surviving membership heals back to valid via reread. *)
    if not (Service.blacklisted meet ~role:"Member" ~args:[ V.Str "u0" ]) then
      failwith "e17: blacklist lost across the crash";
    (match last.(1) with
    | Some c when Service.validate meet ~client:clients.(1) c = Ok () -> ()
    | Some _ -> failwith "e17: surviving membership invalid after recovery"
    | None -> failwith "e17: no surviving certificate");
    (log_bytes, snap_bytes, replayed, rec_latency)
  in
  row "%8s %8s  %6s %11s %11s %9s %13s\n" "target" "rounds" "mode" "log bytes" "snap bytes"
    "replayed" "recover (s)";
  List.iter
    (fun n ->
      let rounds = rounds_for n in
      let flog, fsnap, frec, flat = scenario ~rounds ~snapshot:false in
      let slog, ssnap, srec, slat = scenario ~rounds ~snapshot:true in
      row "%8d %8d  %6s %11d %11d %9d %13.6f\n" n rounds "full" flog fsnap frec flat;
      row "%8d %8d  %6s %11d %11d %9d %13.6f\n" n rounds "snap" slog ssnap srec slat;
      if srec > frec then failwith "e17: snapshot recovery replayed more records than full replay";
      if rounds >= 8 && (srec * 2 > frec || slat > flat) then
        failwith
          (Printf.sprintf "e17: checkpointing did not bound replay (%d vs %d records, %.6f vs %.6f s)"
             srec frec slat flat);
      let mode tag (lb, sb, recs, lat) =
        ( tag,
          J.Obj
            [
              ("log_bytes", J.Int lb);
              ("snapshot_bytes", J.Int sb);
              ("records_replayed", J.Int recs);
              ("recover_latency_s", J.Float lat);
            ] )
      in
      write_snapshot "e17" n
        [
          ("n", J.Int n);
          ("churn_rounds", J.Int rounds);
          ("members", J.Int members);
          ( "group_commit",
            J.Obj
              [
                ("appends", J.Int appends);
                ("fsyncs_coalesced", J.Int grouped);
                ("fsyncs_per_append", J.Int baseline);
                ("reduction", J.Float (float_of_int baseline /. float_of_int grouped));
              ] );
          mode "full_replay" (flog, fsnap, frec, flat);
          mode "snapshot" (slog, ssnap, srec, slat);
        ])
    sizes;
  row "shape: group commit turns 1k appends into O(elapsed/flush-interval) fsyncs (>=5x\n";
  row "       fewer); recovery time grows with durable log length, and checkpointing\n";
  row "       bounds replay to snapshot + suffix regardless of history length.\n"

(* ------------------------------------------------------------------ *)
(* E18 — static policy analysis: rdl-analyze runtime scaling over        *)
(* generated N-role federations, plus defect-corpus recall (every        *)
(* planted defect class must be reported).  Snapshot: BENCH_e18_<n>.json *)
(* ------------------------------------------------------------------ *)

let e18 () =
  let module Analyze = Oasis_rdl.Analyze in
  let module FL = Oasis_core.Federation_lint in
  header "E18: static policy analysis — defect recall and analyzer scaling";
  (* (a) Recall over a seeded defect corpus: one planted defect per check
     family; the analyzer must report every planted code. *)
  let parse = Oasis_rdl.Parser.parse in
  let corpus =
    [
      (* RDL001 unbound, RDL011 unsat, RDL004 duplicate, RDL002 unused bind *)
      ( "Pol",
        {|
Base(u) <-
Leak(u, f) <- Base(u)
Never(u) <- Base(u) : x > 5 and x < 3
Dup(u) <- Base(u)*
Dup(u) <- Base(u)*
Sloppy(u) <- Base(u) : v <- 7
|}
      );
      (* RDL005 arity (external), OASIS003 unknown role, OASIS004 external star *)
      ( "Edge",
        {|
In(u) <- Pol.Base(u, u)
Ghost(u) <- Pol.NoSuchRole(u)
Out(u) <- Elsewhere.Thing(u)*
|}
      );
      (* OASIS001 cycle with no bootstrap, OASIS002 unreachable *)
      ("CycA", {|X(u) <- CycB.Y(u)|});
      ("CycB", {|Y(u) <- CycA.X(u)
Lonely(u) <- Y(u) : u in nowhere and not (u in nowhere)|});
    ]
  in
  let fed =
    FL.make
      (List.map
         (fun (name, src) -> { FL.fl_name = name; fl_file = name; fl_rolefile = parse src })
         corpus)
  in
  let diags = FL.check ~per_file:true fed in
  let planted =
    [
      "RDL001"; "RDL002"; "RDL004"; "RDL005"; "RDL011"; "OASIS001"; "OASIS002"; "OASIS003";
      "OASIS004";
    ]
  in
  let found code = List.exists (fun d -> String.equal d.Analyze.code code) diags in
  List.iter
    (fun code -> if not (found code) then failwith ("e18: planted defect not found: " ^ code))
    planted;
  row "recall: %d/%d planted defect classes reported (%d diagnostics total)\n"
    (List.length planted) (List.length planted) (List.length diags);
  (* (b) Scaling: chain federations of R-role services; lint runtime must be
     measured end to end (inference + per-file checks + federation graph). *)
  let sizes =
    match Sys.getenv_opt "OASIS_E18_SIZES" with
    | Some s -> List.filter_map int_of_string_opt (String.split_on_char ',' s)
    | None -> [ 64; 256; 1024 ]
  in
  let roles_per_service = 8 in
  let gen_federation nroles =
    let nservices = max 1 (nroles / roles_per_service) in
    List.init nservices (fun i ->
        let buf = Buffer.create 256 in
        for j = 0 to roles_per_service - 1 do
          if i = 0 && j = 0 then Buffer.add_string buf "R0(u) <-\n"
          else if j = 0 then
            Buffer.add_string buf
              (Printf.sprintf "R0(u) <- S%d.R%d(u)* : u <> \"root\"\n" (i - 1)
                 (roles_per_service - 1))
          else
            Buffer.add_string buf (Printf.sprintf "R%d(u) <- R%d(u)*\n" j (j - 1))
        done;
        {
          FL.fl_name = Printf.sprintf "S%d" i;
          fl_file = Printf.sprintf "S%d.rdl" i;
          fl_rolefile = parse (Buffer.contents buf);
        })
  in
  row "%12s %12s %12s %14s %14s\n" "roles" "services" "diags" "lint (ms)" "us/role";
  List.iter
    (fun nroles ->
      let members = gen_federation nroles in
      let t0 = Sys.time () in
      let fed = FL.make members in
      let diags = FL.check ~per_file:true fed in
      let dt = (Sys.time () -. t0) *. 1000.0 in
      let gating = List.filter (Analyze.gates ~strict:true) diags in
      if gating <> [] then
        failwith
          (Printf.sprintf "e18: clean corpus flagged: %s"
             (Analyze.diag_to_string (List.hd gating)));
      let total = roles_per_service * List.length members in
      row "%12d %12d %12d %14.2f %14.2f\n" total (List.length members) (List.length diags) dt
        (dt *. 1000.0 /. float_of_int total);
      write_snapshot "e18" total
        [
          ("roles", J.Int total);
          ("services", J.Int (List.length members));
          ("roles_per_service", J.Int roles_per_service);
          ("diagnostics", J.Int (List.length diags));
          ("lint_ms", J.Float dt);
          ("us_per_role", J.Float (dt *. 1000.0 /. float_of_int total));
        ])
    sizes;
  row "shape: analyzer cost is near-linear in total roles (per-file passes are\n";
  row "       per-entry; the federation fixpoint converges along the chain).\n"

(* ------------------------------------------------------------------ *)
(* E19 — scenario model checking: exhaustive fault-interleaving           *)
(* exploration of the paper scenarios, DPOR+fingerprint reduction ratio   *)
(* vs naive enumeration, and the planted bug seed sweeps cannot reach.    *)
(* Snapshot: BENCH_e19_<depth>.json                                       *)
(* ------------------------------------------------------------------ *)

let e19 () =
  let module Explore = Oasis_mc.Explore in
  let module Scenarios = Oasis_mc.Scenarios in
  header "E19: scenario model checking — exhaustive exploration and reduction";
  let params depth ~reduce = { Explore.default_params with depth; max_runs = 200_000; reduce } in
  (* (a) Exhaustive exploration of both paper scenarios across depths. *)
  let depths =
    match Sys.getenv_opt "OASIS_E19_DEPTHS" with
    | Some s -> List.filter_map int_of_string_opt (String.split_on_char ',' s)
    | None -> [ 8; 10; 12 ]
  in
  row "%12s %8s %10s %12s %10s %12s %12s\n" "scenario" "depth" "runs" "decisions" "states"
    "pruned" "wall (ms)";
  let scenario_rows =
    List.concat_map
      (fun depth ->
        List.map
          (fun spec ->
            let t0 = Sys.time () in
            let rp = Explore.explore spec (params depth ~reduce:true) in
            let dt = (Sys.time () -. t0) *. 1000.0 in
            if not rp.Explore.rp_exhaustive then
              failwith
                (Printf.sprintf "e19: %s depth %d not exhaustive within budget"
                   spec.Oasis_mc.Scenario.sc_name depth);
            if rp.Explore.rp_violations <> [] then
              failwith
                (Printf.sprintf "e19: %s depth %d violated an invariant"
                   spec.Oasis_mc.Scenario.sc_name depth);
            row "%12s %8d %10d %12d %10d %12d %12.1f\n" spec.Oasis_mc.Scenario.sc_name depth
              rp.Explore.rp_runs rp.Explore.rp_decisions rp.Explore.rp_distinct_states
              (rp.Explore.rp_pruned_sleep + rp.Explore.rp_pruned_fp)
              dt;
            (spec.Oasis_mc.Scenario.sc_name, depth, rp, dt))
          [ Scenarios.golf_club; Scenarios.mssa ])
      depths
  in
  (* (b) Reduction ratio at a depth where naive enumeration still completes. *)
  let ratio_depth =
    match Sys.getenv_opt "OASIS_E19_RATIO_DEPTH" with
    | Some s -> int_of_string s
    | None -> 10
  in
  let t0 = Sys.time () in
  let naive = Explore.explore Scenarios.golf_club (params ratio_depth ~reduce:false) in
  let naive_ms = (Sys.time () -. t0) *. 1000.0 in
  let t0 = Sys.time () in
  let reduced = Explore.explore Scenarios.golf_club (params ratio_depth ~reduce:true) in
  let reduced_ms = (Sys.time () -. t0) *. 1000.0 in
  let ratio = float_of_int naive.Explore.rp_runs /. float_of_int reduced.Explore.rp_runs in
  row "reduction @ depth %d: naive %d runs (%.0f ms) vs reduced %d runs (%.0f ms) = %.1fx\n"
    ratio_depth naive.Explore.rp_runs naive_ms reduced.Explore.rp_runs reduced_ms ratio;
  if ratio < 5.0 then failwith (Printf.sprintf "e19: reduction ratio %.1fx below 5x" ratio);
  (* (c) The planted bug: invisible to a 50-seed sweep, found exhaustively,
     counterexample minimized. *)
  let p = params 8 ~reduce:true in
  let sweep = Explore.seed_sweep Scenarios.planted p ~seeds:50 in
  if sweep <> [] then failwith "e19: seed sweep unexpectedly found the planted bug";
  let rp = Explore.explore Scenarios.planted p in
  (match rp.Explore.rp_violations with
  | [] -> failwith "e19: exhaustive exploration missed the planted bug"
  | cx :: _ ->
      let m = Explore.minimize Scenarios.planted p cx in
      row "planted bug: 0/50 seeds hit it; explorer found %d schedule(s), minimized to [%s]\n"
        (List.length rp.Explore.rp_violations)
        (String.concat ";" (List.map string_of_int m.Explore.cx_schedule)));
  List.iter
    (fun (name, depth, rp, dt) ->
      if name = "golf-club" then
        write_snapshot "e19" depth
          [
            ("scenario", J.Str name);
            ("depth", J.Int depth);
            ("runs", J.Int rp.Explore.rp_runs);
            ("decisions", J.Int rp.Explore.rp_decisions);
            ("distinct_states", J.Int rp.Explore.rp_distinct_states);
            ("pruned_sleep", J.Int rp.Explore.rp_pruned_sleep);
            ("pruned_fp", J.Int rp.Explore.rp_pruned_fp);
            ("wall_ms", J.Float dt);
            ("naive_runs_at_ratio_depth", J.Int naive.Explore.rp_runs);
            ("reduced_runs_at_ratio_depth", J.Int reduced.Explore.rp_runs);
            ("reduction_ratio", J.Float ratio);
          ])
    scenario_rows;
  row "shape: the explored state space grows geometrically with depth; sleep sets +\n";
  row "       fingerprint pruning keep exhaustive coverage >=5x cheaper than naive\n";
  row "       enumeration, and adversarial orderings catch what 50 seeds cannot.\n"

(* ------------------------------------------------------------------ *)
(* E20 — sharded credential plane: role-issue throughput vs shard       *)
(* count at large live-membership counts (amortized checkpoints keep    *)
(* the per-shard WAL/snapshot maintenance constant per append, so one   *)
(* shard keeps pace with many), and revocation-cascade latency          *)
(* re-measured by e16's span method to show the heartbeat-bounded       *)
(* propagation is independent of shard count.                           *)
(* Snapshot: BENCH_e20_<shards>.json                                    *)
(* ------------------------------------------------------------------ *)

let e20 () =
  let module Shard = Oasis_core.Shard in
  header "E20: sharded credential plane — issue throughput and revocation latency vs shards";
  let members =
    match Sys.getenv_opt "OASIS_E20_MEMBERS" with
    | Some s -> int_of_string s
    | None -> 100_000
  in
  let shard_counts =
    match Sys.getenv_opt "OASIS_E20_SHARDS" with
    | Some s -> List.filter_map int_of_string_opt (String.split_on_char ',' s)
    | None -> [ 1; 4; 16 ]
  in
  let heartbeat = 1.0 in
  let run ~shards:n =
    let w = make_world () in
    let login = service ~batch:true w ~name:"Login" ~rolefile:login_rolefile in
    let club =
      match
        Shard.create w.net w.reg ~name:"Club" ~rolefile:{|
Member(u) <- Login.LoggedOn(u, h)*
|}
          ~shards:n ~heartbeat ~durable:true ()
      with
      | Ok c -> c
      | Error e -> failwith ("e20: " ^ e)
    in
    let users = Array.init members (fun i -> Printf.sprintf "u%d" i) in
    let clients = Array.map (fun _ -> fresh_vci ()) users in
    let login_certs =
      Array.mapi
        (fun i u ->
          Service.issue_arbitrary login ~client:clients.(i) ~roles:[ "LoggedOn" ]
            ~args:[ V.Str u; V.Str "ely" ])
        users
    in
    (* Issue phase: every membership enters through the router.  Entries
       are paced in waves of virtual time (steady-state operation, not one
       burst) so each shard's checkpoint cadence actually runs: a single
       burst leaves the WAL compaction permanently in flight and silently
       skips most snapshots, hiding the checkpoint cost.  A checkpoint
       re-serializes the PER-SHARD live mirror, and starts once the log
       has grown by that mirror's size, so its cost per append stays
       constant however large one shard's table grows.  Wall clock over
       the full drain prices issue + journalling + checkpoint
       maintenance. *)
    let committed = ref 0 in
    let wave = 256 in
    let wave_gap = 0.25 in
    let t0 = Sys.time () in
    Array.iteri
      (fun i u ->
        Engine.schedule w.engine
          ~delay:(float_of_int (i / wave) *. wave_gap)
          (fun () ->
            Shard.request_entry club ~client_host:w.client_host ~client:clients.(i)
              ~role:"Member" ~args:[ V.Str u ]
              ~creds:[ login_certs.(i) ]
              (function Ok _ -> incr committed | Error e -> failwith ("e20 entry: " ^ e))))
      users;
    run_for w ((float_of_int (members / wave) *. wave_gap) +. 30.0);
    let wall = Sys.time () -. t0 in
    if !committed <> members then
      failwith (Printf.sprintf "e20: only %d/%d entries committed" !committed members);
    let thpt = float_of_int members /. wall in
    (* Revocation phase: e16's method verbatim — a staggered traced burst
       of login-certificate revocations, end-to-end latency from each
       window's [revoke.invalidate] root to the owning shard's
       [revoke.apply]. *)
    let tr = Net.trace w.net in
    Trace.set_enabled tr true;
    Trace.clear tr;
    Stats.reset (Net.stats w.net);
    let burst = min members 500 in
    let gap = 0.2 in
    for i = 0 to burst - 1 do
      Engine.schedule w.engine
        ~delay:(float_of_int i *. gap)
        (fun () -> Service.revoke_certificate login login_certs.(i))
    done;
    run_for w ((float_of_int burst *. gap) +. 10.0);
    Trace.set_enabled tr false;
    let spans = Trace.spans tr in
    let roots = Hashtbl.create 64 in
    List.iter
      (fun sp ->
        if Trace.span_parent sp = None && Trace.span_name sp = "revoke.invalidate" then
          Hashtbl.replace roots (Trace.span_trace sp) (Trace.span_start sp))
      spans;
    let e2e =
      List.filter_map
        (fun sp ->
          if Trace.span_name sp = "revoke.apply" then
            Option.map
              (fun root_start -> Trace.span_end sp -. root_start)
              (Hashtbl.find_opt roots (Trace.span_trace sp))
          else None)
        spans
      |> List.sort compare |> Array.of_list
    in
    let pct p =
      match Array.length e2e with
      | 0 -> 0.0
      | len ->
          let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int len)) in
          e2e.(max 0 (min (len - 1) (rank - 1)))
    in
    let samples = Array.length e2e in
    if samples = 0 then failwith "e20: no end-to-end revocation spans recorded";
    let mx = Array.fold_left Float.max 0.0 e2e in
    if mx > 2.0 *. heartbeat then
      failwith (Printf.sprintf "e20: propagation latency %.3fs exceeds 2 heartbeats" mx);
    let s = Net.stats w.net in
    if Stats.latency_samples s "oasis.revoke.e2e" <> samples then
      failwith "e20: span-derived and histogram sample counts disagree";
    let reparse what str =
      match J.parse str with Ok j -> j | Error e -> failwith ("e20 " ^ what ^ " json: " ^ e)
    in
    let snapshot =
      [
        ("shards", J.Int n);
        ("members", J.Int members);
        ("heartbeat", J.Float heartbeat);
        ("issue_wall_s", J.Float wall);
        ("issues_per_s", J.Float thpt);
        ( "e2e",
          J.Obj
            [
              ("samples", J.Int samples);
              ("p50", J.Float (pct 50.0));
              ("p99", J.Float (pct 99.0));
              ("max", J.Float mx);
            ] );
        ("stats", reparse "stats" (Stats.to_json s));
      ]
    in
    (thpt, pct 50.0, pct 99.0, mx, snapshot)
  in
  row "%8s %10s %14s %12s %12s %12s\n" "shards" "members" "issues/s" "p50 (s)" "p99 (s)" "max (s)";
  let results =
    List.map
      (fun n ->
        let thpt, p50, p99, mx, snapshot = run ~shards:n in
        row "%8d %10d %14.0f %12.4f %12.4f %12.4f\n" n members thpt p50 p99 mx;
        write_snapshot "e20" n snapshot;
        (n, thpt, p99))
      shard_counts
  in
  (* Gates: one shard's issue throughput is not capped by its live set
     (checkpoint cost per append is constant, so it stays within 2x of
     sixteen shards' in this one process) — only meaningful at the
     headline size — and shard-count-independent revocation latency. *)
  (match (List.assoc_opt 1 (List.map (fun (n, t, _) -> (n, t)) results),
          List.assoc_opt 16 (List.map (fun (n, t, _) -> (n, t)) results)) with
  | Some t1, Some t16 when members >= 100_000 ->
      let ratio = t1 /. t16 in
      row "issue throughput at 1 shard vs 16: %.2fx\n" ratio;
      if ratio < 0.5 then
        failwith (Printf.sprintf "e20: 1-shard/16-shard issue throughput %.2fx below 0.5x" ratio)
  | _ -> ());
  (match results with
  | (1, _, p99_1) :: rest ->
      List.iter
        (fun (n, _, p99) ->
          if p99 > p99_1 +. heartbeat then
            failwith
              (Printf.sprintf "e20: %d-shard revocation p99 %.3fs exceeds 1-shard %.3fs + 1 heartbeat"
                 n p99 p99_1))
        rest
  | _ -> ());
  row "shape: one shard issues about as fast as sixteen (checkpoints are amortized, so\n";
  row "       their cost per append does not grow with the per-shard live mirror);\n";
  row "       revocation p99 stays ~ heartbeat + 2 hops regardless of shard count.\n"

(* ------------------------------------------------------------------ *)
(* E21 — replicated shards: crash one replica of every shard            *)
(* mid-workload.  For each replication factor K the same seeded         *)
(* workload (an entry stream, a fire stream and a 50 ms-cadence         *)
(* validation probe) runs twice — crash-free twin, then with the        *)
(* current primary of every shard crashed at the midpoint (K = 1        *)
(* restarts it 2 s later; K = 3 never does: failover must carry the     *)
(* epoch).  Gates: no acked entry or fire is lost in any run, and for   *)
(* K >= 2 every probe answers and probe p99 stays within one service    *)
(* heartbeat of the twin's.  Snapshot: BENCH_e21_<K>.json               *)
(* ------------------------------------------------------------------ *)

let e21 () =
  let module Shard = Oasis_core.Shard in
  let module Replica = Oasis_core.Replica in
  header "E21: replicated shards — a primary crash per shard costs nothing";
  let members =
    match Sys.getenv_opt "OASIS_E21_MEMBERS" with Some s -> int_of_string s | None -> 200
  in
  let shards =
    match Sys.getenv_opt "OASIS_E21_SHARDS" with Some s -> int_of_string s | None -> 4
  in
  let ks =
    match Sys.getenv_opt "OASIS_E21_REPLICAS" with
    | Some s -> List.filter_map int_of_string_opt (String.split_on_char ',' s)
    | None -> [ 1; 3 ]
  in
  let heartbeat = 1.0 in
  let duration = 150.0 in
  let club_rolefile = {|
Chair <- Login.LoggedOn("jmb", h)
Member(u) <- Login.LoggedOn(u, h)* |>* Chair
|} in
  let nfires = min 60 (members / 4) in
  let pct arr p =
    match Array.length arr with
    | 0 -> 0.0
    | len ->
        let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int len)) in
        arr.(max 0 (min (len - 1) (rank - 1)))
  in
  let run ~k ~crash =
    let w = make_world () in
    let login = service ~batch:true w ~name:"Login" ~rolefile:login_rolefile in
    let club =
      match
        Shard.create w.net w.reg ~name:"Club" ~rolefile:club_rolefile ~shards ~heartbeat
          ~durable:true ~replicas:k ()
      with
      | Ok c -> c
      | Error e -> failwith ("e21: " ^ e)
    in
    let issue u vci =
      Service.issue_arbitrary login ~client:vci ~roles:[ "LoggedOn" ] ~args:[ V.Str u; V.Str "ely" ]
    in
    let jmb = fresh_vci () in
    let chair = ref None in
    Shard.request_entry club ~client_host:w.client_host ~client:jmb ~role:"Chair" ~args:[]
      ~creds:[ issue "jmb" jmb ]
      (function Ok c -> chair := Some c | Error e -> failwith ("e21 chair: " ^ e));
    run_for w 2.0;
    let chair = match !chair with Some c -> c | None -> failwith "e21: chair never entered" in
    (* Base memberships: everyone enters in waves (fault-free, so every
       entry must commit), and each ack is recorded — the audit below
       holds the crash run to never losing any of them. *)
    let users = Array.init members (fun i -> Printf.sprintf "u%d" i) in
    let clients = Array.map (fun _ -> fresh_vci ()) users in
    let base = Array.make members None in
    Array.iteri
      (fun i u ->
        Engine.schedule w.engine
          ~delay:(float_of_int (i / 64) *. 0.25)
          (fun () ->
            Shard.request_entry club ~client_host:w.client_host ~client:clients.(i)
              ~role:"Member" ~args:[ V.Str u ]
              ~creds:[ issue u clients.(i) ]
              (function Ok c -> base.(i) <- Some c | Error e -> failwith ("e21 entry: " ^ e))))
      users;
    run_for w ((float_of_int (members / 64) *. 0.25) +. 20.0);
    Array.iteri
      (fun i c -> if c = None then failwith (Printf.sprintf "e21: base entry %d never acked" i))
      base;
    (* The measured window: an entry stream (fresh users every 0.5 s), a
       fire stream (every 2.5 s, by the chair) and a validation probe
       rotating over four never-fired members every 50 ms. *)
    let acked_extra = ref [] in
    let acked_fires = ref [] in
    let probe_lat = ref [] in
    let probe_err = ref 0 in
    let nprobes = int_of_float (duration /. 0.05) in
    let probe_pool =
      Array.init 4 (fun j ->
          let i = members - 1 - j in
          (clients.(i), Option.get base.(i)))
    in
    for p = 0 to nprobes - 1 do
      Engine.schedule w.engine
        ~delay:(float_of_int p *. 0.05)
        (fun () ->
          let vci, cert = probe_pool.(p mod 4) in
          let t0 = Engine.now w.engine in
          Shard.validate club ~client_host:w.client_host ~client:vci cert (function
            | Ok () -> probe_lat := (Engine.now w.engine -. t0) :: !probe_lat
            | Error _ -> incr probe_err))
    done;
    let nextra = int_of_float (duration /. 0.5) in
    for x = 0 to nextra - 1 do
      Engine.schedule w.engine
        ~delay:(float_of_int x *. 0.5)
        (fun () ->
          let u = Printf.sprintf "x%d" x in
          let vci = fresh_vci () in
          Shard.request_entry club ~client_host:w.client_host ~client:vci ~role:"Member"
            ~args:[ V.Str u ]
            ~creds:[ issue u vci ]
            (function
              (* Errors are legitimate while the owning shard is failing
                 over — an op that was never acked may be refused.  Only
                 the acked ones are held to survive. *)
              | Ok c -> acked_extra := (u, vci, c) :: !acked_extra
              | Error _ -> ()))
    done;
    for f = 0 to nfires - 1 do
      Engine.schedule w.engine
        ~delay:(float_of_int f *. 2.5)
        (fun () ->
          let u = users.(f) in
          Shard.revoke_role_instance club ~client_host:w.client_host ~revoker:chair
            ~role:"Member" ~args:[ V.Str u ] (function
            | Ok _ -> acked_fires := u :: !acked_fires
            | Error _ -> ()))
    done;
    if crash then
      Engine.schedule w.engine ~delay:(duration /. 2.0) (fun () ->
          Array.iter
            (fun g ->
              let h = Service.host (Replica.primary g) in
              Net.crash_host w.net h;
              if k = 1 then
                Engine.schedule w.engine ~delay:2.0 (fun () -> Net.restart_host w.net h))
            (Shard.replica_groups club));
    run_for w (duration +. 20.0);
    (* Audit, synchronously at each certificate's issuing shard (its
       current primary): acked memberships of never-fired users are
       valid, acked fires are blacklisted and their certificates dead. *)
    let status cert ~client =
      let g =
        match
          Array.to_seq (Shard.replica_groups club)
          |> Seq.find (fun g -> String.equal (Service.name (Replica.primary g)) cert.Cert.service)
        with
        | Some g -> g
        | None -> failwith ("e21: no shard issued " ^ cert.Cert.service)
      in
      Service.validate (Replica.primary g) ~client cert
    in
    let lost = ref 0 in
    let fired u = List.mem u !acked_fires in
    Array.iteri
      (fun i u ->
        match base.(i) with
        | None -> ()
        | Some c -> (
            match (status c ~client:clients.(i), fired u) with
            | Ok (), false | Error _, true -> ()
            | Error _, false | Ok (), true -> incr lost))
      users;
    List.iter
      (fun (_u, vci, c) -> if status c ~client:vci <> Ok () then incr lost)
      !acked_extra;
    List.iter
      (fun u -> if not (Shard.blacklisted club ~role:"Member" ~args:[ V.Str u ]) then incr lost)
      !acked_fires;
    let lat = List.sort compare !probe_lat |> Array.of_list in
    ( !lost,
      List.length !acked_extra,
      List.length !acked_fires,
      Array.length lat,
      !probe_err,
      pct lat 50.0,
      pct lat 99.0,
      (if Array.length lat = 0 then 0.0 else lat.(Array.length lat - 1)) )
  in
  row "%4s %6s %8s %8s %8s %8s %10s %10s %10s\n" "K" "crash" "lost" "entries" "fires" "errs"
    "p50 (s)" "p99 (s)" "max (s)";
  List.iter
    (fun k ->
      let ( lost_f, extra_f, fires_f, samples_f, err_f, p50_f, p99_f, max_f ) =
        run ~k ~crash:false
      in
      row "%4d %6s %8d %8d %8d %8d %10.4f %10.4f %10.4f\n" k "no" lost_f extra_f fires_f err_f
        p50_f p99_f max_f;
      let lost, extra, fires, samples, err, p50, p99, mx = run ~k ~crash:true in
      row "%4d %6s %8d %8d %8d %8d %10.4f %10.4f %10.4f\n" k "yes" lost extra fires err p50 p99 mx;
      if lost_f <> 0 then failwith (Printf.sprintf "e21: crash-free K=%d lost %d acked ops" k lost_f);
      if lost <> 0 then
        failwith (Printf.sprintf "e21: K=%d lost %d acked ops to a single replica crash" k lost);
      if k > 1 then begin
        if err > 0 then
          failwith
            (Printf.sprintf "e21: K=%d: %d probes failed during failover (must all answer)" k err);
        if p99 > p99_f +. heartbeat then
          failwith
            (Printf.sprintf "e21: K=%d probe p99 %.4fs exceeds crash-free %.4fs + 1 heartbeat" k
               p99 p99_f)
      end;
      write_snapshot "e21" k
        [
          ("replicas", J.Int k);
          ("shards", J.Int shards);
          ("members", J.Int members);
          ("heartbeat", J.Float heartbeat);
          ("duration_s", J.Float duration);
          ("lost_acked", J.Int lost);
          ("acked_extra_entries", J.Int extra);
          ("acked_fires", J.Int fires);
          ( "probe",
            J.Obj
              [
                ("samples", J.Int samples);
                ("errors", J.Int err);
                ("p50", J.Float p50);
                ("p99", J.Float p99);
                ("max", J.Float mx);
                ("crash_free_samples", J.Int samples_f);
                ("crash_free_p99", J.Float p99_f);
              ] );
        ])
    ks;
  row "shape: K=1 pays the full outage (probes fail closed until the restart); K=3\n";
  row "       absorbs the same crash inside the lease window — zero lost acks, zero\n";
  row "       failed probes, probe p99 within a heartbeat of the crash-free twin.\n"

(* ------------------------------------------------------------------ *)
(* E23 — symbolic escalation prover: planted OASIS006-008 recall,        *)
(* symbolic tightening over the boolean bound, and prover scaling on     *)
(* generated chain federations.  Snapshot: BENCH_e23_<n>.json            *)
(* ------------------------------------------------------------------ *)

let e23 () =
  let module Analyze = Oasis_rdl.Analyze in
  let module FL = Oasis_core.Federation_lint in
  header "E23: symbolic escalation prover — recall, tightening and scaling";
  let parse = Oasis_rdl.Parser.parse in
  (* (a) Recall over a planted escalation corpus: one chain per new code.
     CorpA/CorpB form a bootstrap deadlock, so Locked and Peer are
     non-base holders with a non-empty escalation frontier; Prize consumes
     Locked without * (OASIS006), Gold needs a colluding Boss elector
     (OASIS007 at threshold 2), Bridge crosses realms through a reference
     to a service outside the federation (OASIS008). *)
  let corpus =
    [
      ( "CorpA",
        {|
Boss(c) <-
Locked(u) <- CorpB.Peer(u)*
Gold(u) <- Locked(u)* <| Boss(c)
|}
      );
      ( "CorpB",
        {|
Peer(u) <- CorpA.Locked(u)*
Prize(u) <- CorpA.Locked(u)
Bridge(u) <- CorpA.Locked(u)* /\ Outside.Badge(u)
|}
      );
    ]
  in
  let fed =
    FL.make
      (List.map
         (fun (name, src) -> { FL.fl_name = name; fl_file = name; fl_rolefile = parse src })
         corpus)
  in
  let diags = FL.check ~collusion_threshold:2 fed in
  let planted = [ "OASIS001"; "OASIS006"; "OASIS007"; "OASIS008" ] in
  List.iter
    (fun code ->
      if not (List.exists (fun d -> String.equal d.Analyze.code code) diags) then
        failwith ("e23: planted escalation defect not found: " ^ code))
    planted;
  row "recall: %d/%d planted escalation classes reported (%d diagnostics total)\n"
    (List.length planted) (List.length planted) (List.length diags);
  (* (b) Symbolic tightening: a chain whose per-hop constraints are each
     satisfiable but mutually contradictory along the path.  The boolean
     bound says reachable; the prover must prune it. *)
  let inf =
    FL.make
      [
        {
          FL.fl_name = "Inf";
          fl_file = "Inf";
          fl_rolefile =
            parse {|
A(u) <-
B(u) <- A(u)* : u = "a"
C(u) <- B(u)* : u = "b"
|};
        };
      ]
  in
  let holder = ("Inf", "A") and target = ("Inf", "C") in
  if not (FL.boolean_can_reach inf ~holder ~target) then
    failwith "e23: boolean bound lost the planted chain";
  if FL.can_reach inf ~holder ~target then
    failwith "e23: symbolic prover failed to prune an infeasible chain";
  row "tightening: infeasible A->B->C chain boolean-reachable, symbolically pruned\n";
  (* (c) Scaling: witness proving over e18-style chain federations from the
     deep axiom; every other role must be reached with a witness. *)
  let sizes =
    match Sys.getenv_opt "OASIS_E23_SIZES" with
    | Some s -> List.filter_map int_of_string_opt (String.split_on_char ',' s)
    | None -> [ 64; 256; 1024; 2048 ]
  in
  let roles_per_service = 8 in
  let gen_federation nroles =
    let nservices = max 1 (nroles / roles_per_service) in
    List.init nservices (fun i ->
        let buf = Buffer.create 256 in
        for j = 0 to roles_per_service - 1 do
          if i = 0 && j = 0 then Buffer.add_string buf "R0(u) <-\n"
          else if j = 0 then
            Buffer.add_string buf
              (Printf.sprintf "R0(u) <- S%d.R%d(u)* : u <> \"root\"\n" (i - 1)
                 (roles_per_service - 1))
          else Buffer.add_string buf (Printf.sprintf "R%d(u) <- R%d(u)*\n" j (j - 1))
        done;
        {
          FL.fl_name = Printf.sprintf "S%d" i;
          fl_file = Printf.sprintf "S%d.rdl" i;
          fl_rolefile = parse (Buffer.contents buf);
        })
  in
  row "%12s %12s %12s %14s %14s\n" "roles" "services" "witnesses" "prove (ms)" "us/role";
  List.iter
    (fun nroles ->
      let members = gen_federation nroles in
      let total = roles_per_service * List.length members in
      let fed = FL.make members in
      let t0 = Sys.time () in
      let wits = FL.witnesses fed ~holder:("S0", "R0") in
      let dt = (Sys.time () -. t0) *. 1000.0 in
      if List.length wits <> total - 1 then
        failwith
          (Printf.sprintf "e23: expected %d witnesses from the deep axiom, got %d" (total - 1)
             (List.length wits));
      List.iter
        (fun (w : FL.witness) ->
          if not w.FL.w_carried then
            failwith ("e23: all-starred chain reported blind at " ^ FL.node_str w.FL.w_target))
        wits;
      row "%12d %12d %12d %14.2f %14.2f\n" total (List.length members) (List.length wits) dt
        (dt *. 1000.0 /. float_of_int total);
      write_snapshot "e23" total
        [
          ("roles", J.Int total);
          ("services", J.Int (List.length members));
          ("roles_per_service", J.Int roles_per_service);
          ("witnesses", J.Int (List.length wits));
          ("prove_ms", J.Float dt);
          ("us_per_role", J.Float (dt *. 1000.0 /. float_of_int total));
          ("planted_recall", J.Int (List.length planted));
        ])
    sizes;
  row "shape: the agenda visits each (entry, witness) pair once (<=4 witnesses per\n";
  row "       node), but a witness carries its full chain, so on a single deep chain\n";
  row "       the materialized output is quadratic in roles; the per-path atom cap\n";
  row "       keeps each sat check bounded regardless of chain length.\n"

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12);
    ("e13", e13); ("e14", e14); ("e15", e15); ("e16", e16); ("e17", e17); ("e18", e18);
    ("e19", e19); ("e20", e20); ("e21", e21); ("e23", e23);
  ]

let () =
  let selected =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as picks) -> picks
    | _ -> List.map fst experiments
  in
  let unknown =
    List.filter
      (fun name -> not (List.mem_assoc (String.lowercase_ascii name) experiments))
      selected
  in
  if unknown <> [] then begin
    Printf.eprintf "unknown experiment%s: %s\nregistered experiments: %s\n"
      (if List.length unknown > 1 then "s" else "")
      (String.concat " " unknown)
      (String.concat " " (List.map fst experiments));
    exit 1
  end;
  Printf.printf "OASIS benchmark harness — experiments: %s\n" (String.concat " " selected);
  List.iter (fun name -> (List.assoc (String.lowercase_ascii name) experiments) ()) selected
