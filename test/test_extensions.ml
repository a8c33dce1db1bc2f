(* Tests for the extension modules: the event IDL (§6.2.1), the Unix
   legacy filesystem adapter (§3.3.3), the Probability parameter with
   drifting clocks (§6.8.4), and generator-based round-trip properties for
   the two languages. *)

module Engine = Oasis_sim.Engine
module Net = Oasis_sim.Net
module Service = Oasis_core.Service
module Group = Oasis_core.Group
module Principal = Oasis_core.Principal
module Unixfs = Oasis_core.Unixfs
module Idl = Oasis_events.Idl
module Event = Oasis_events.Event
module Composite = Oasis_events.Composite
module Bead = Oasis_events.Bead
module Local_io = Oasis_events.Local_io
module Ty = Oasis_rdl.Ty
module V = Oasis_rdl.Value

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* --- event IDL (§6.2.1) --- *)

let printer_idl =
  {|
interface Printer {
  Print(name: String) : Integer;
  Query(jobno: Integer) : String;
  event Finished(jobno: Integer);
  event Jammed(tray: Integer, code: String);
}
|}

let parse_iface src =
  match Idl.parse src with Ok i -> i | Error e -> Alcotest.failf "idl: %s" e

let test_idl_parse () =
  let iface = parse_iface printer_idl in
  checks "name" "Printer" iface.Idl.if_name;
  checki "ops" 2 (List.length iface.Idl.if_operations);
  checki "events" 2 (List.length iface.Idl.if_events);
  let print_op = List.hd iface.Idl.if_operations in
  checkb "return type" true (Ty.equal print_op.Idl.op_returns Ty.Int)

let test_idl_set_types () =
  let iface = parse_iface {|
interface Files {
  Open(path: String) : Integer;
  event Opened(path: String, mode: {rwx});
}
|} in
  match (List.hd iface.Idl.if_events).Idl.ev_params with
  | [ _; (_, ty) ] -> checkb "set type" true (Ty.equal ty (Ty.Set "rwx"))
  | _ -> Alcotest.fail "params"

let test_idl_parse_errors () =
  checkb "garbage" true (Result.is_error (Idl.parse "not an interface"));
  checkb "missing semi" true
    (Result.is_error (Idl.parse "interface X { event E(a: Integer) }"))

let test_idl_constructor_checks_types () =
  let iface = parse_iface printer_idl in
  (match Idl.construct iface "Finished" [ V.Int 27 ] ~source:"P" () with
  | Ok e ->
      checks "event name" "Finished" e.Event.name;
      checkb "param" true (e.Event.params = [| V.Int 27 |])
  | Error e -> Alcotest.failf "construct: %s" e);
  checkb "wrong type rejected" true
    (Result.is_error (Idl.construct iface "Finished" [ V.Str "27" ] ~source:"P" ()));
  checkb "wrong arity rejected" true
    (Result.is_error (Idl.construct iface "Finished" [] ~source:"P" ()));
  checkb "unknown event rejected" true
    (Result.is_error (Idl.construct iface "Exploded" [ V.Int 1 ] ~source:"P" ()))

let test_idl_destructor () =
  let iface = parse_iface printer_idl in
  let e = Result.get_ok (Idl.construct iface "Jammed" [ V.Int 2; V.Str "E77" ] ~source:"P" ()) in
  match Idl.destruct iface e with
  | Ok [ ("tray", V.Int 2); ("code", V.Str "E77") ] -> ()
  | Ok other ->
      Alcotest.failf "unexpected fields: %s"
        (String.concat "," (List.map fst other))
  | Error e -> Alcotest.failf "destruct: %s" e

let test_idl_template_of () =
  let iface = parse_iface printer_idl in
  (match Idl.template_of iface "Jammed" [ ("tray", Event.Lit (V.Int 2)) ] with
  | Ok tpl ->
      checkb "tray pinned, code wild" true
        (tpl.Event.pats = [| Event.Lit (V.Int 2); Event.Any |])
  | Error e -> Alcotest.failf "template: %s" e);
  checkb "unknown param" true
    (Result.is_error (Idl.template_of iface "Jammed" [ ("nozzle", Event.Any) ]))

let test_idl_pp_roundtrip () =
  let iface = parse_iface printer_idl in
  let printed = Format.asprintf "%a" Idl.pp iface in
  let again = parse_iface printed in
  checkb "pp round trip" true (again = iface)

(* --- Unix legacy filesystem (§3.3.3) --- *)

let make_fs_world tree =
  let engine = Engine.create () in
  let net = Net.create ~latency:(Net.Fixed 0.005) engine in
  let reg = Service.create_registry () in
  let login =
    Result.get_ok
      (Service.create net (Net.add_host net "lh") reg ~name:"Login"
         ~rolefile:{|
def LoggedOn(u, h) u: String h: String
LoggedOn(u, h) <-
|} ())
  in
  let fs = Result.get_ok (Unixfs.create net (Net.add_host net "fsh") reg ~name:"UnixFS" ~tree) in
  let client_host = Net.add_host net "client" in
  (engine, login, fs, client_host)

let fresh_vci =
  let host = Principal.Host.create "xclient" in
  let domain = Principal.Host.boot_domain host in
  fun () -> Principal.Host.new_vci host domain

let request engine login fs client_host user path =
  let vci = fresh_vci () in
  let login_cert =
    Service.issue_arbitrary login ~client:vci ~roles:[ "LoggedOn" ]
      ~args:[ V.Str user; V.Str "h" ]
  in
  let out = ref None in
  Unixfs.request_use fs ~client_host ~client:vci ~login:login_cert ~path (fun r -> out := Some r);
  Engine.run ~until:(Engine.now engine +. 2.0) engine;
  Option.get !out

let standard_tree =
  [
    ("/", "root=rwx other=r-x");
    ("/home", "other=r-x");
    ("/home/rjh21", "rjh21=rwx %staff=r-x");
    ("/home/rjh21/thesis.tex", "rjh21=rw- %staff=r--");
    ("/vault", "root=rwx");
    ("/vault/secret.txt", "other=rw-");
  ]

let test_unixfs_owner_access () =
  let engine, login, fs, client_host = make_fs_world standard_tree in
  match request engine login fs client_host "rjh21" "/home/rjh21/thesis.tex" with
  | Ok (_, rights) -> checks "owner rights" "rw" rights
  | Error e -> Alcotest.failf "owner access: %s" e

let test_unixfs_group_access () =
  let engine, login, fs, client_host = make_fs_world standard_tree in
  Group.add (Service.group (Unixfs.service fs) "staff") (V.Str "dm");
  match request engine login fs client_host "dm" "/home/rjh21/thesis.tex" with
  | Ok (_, rights) -> checks "staff rights" "r" rights
  | Error e -> Alcotest.failf "group access: %s" e

let test_unixfs_directory_blocks () =
  (* /vault denies 'x' to everyone but root: even though /vault/secret.txt's
     own ACL grants rw to other, the enclosing directory blocks access —
     the recursive UseDir rule at work. *)
  let engine, login, fs, client_host = make_fs_world standard_tree in
  (match request engine login fs client_host "alice" "/vault/secret.txt" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "directory permissions bypassed!");
  match request engine login fs client_host "root" "/vault/secret.txt" with
  | Error e -> Alcotest.failf "root blocked: %s" e
  | Ok _ -> ()

let test_unixfs_deep_path () =
  let tree =
    [
      ("/", "other=r-x");
      ("/a", "other=r-x");
      ("/a/b", "other=r-x");
      ("/a/b/c", "other=r-x");
      ("/a/b/c/d", "other=r-x");
      ("/a/b/c/d/leaf", "other=rw-");
    ]
  in
  let engine, login, fs, client_host = make_fs_world tree in
  match request engine login fs client_host "anyone" "/a/b/c/d/leaf" with
  | Ok (_, rights) -> checks "deep leaf rights" "rw" rights
  | Error e -> Alcotest.failf "deep path: %s" e

let test_unixfs_middle_block () =
  let tree =
    [
      ("/", "other=r-x");
      ("/a", "other=r-x");
      ("/a/b", "root=rwx") (* no x for others *);
      ("/a/b/leaf", "other=rw-");
    ]
  in
  let engine, login, fs, client_host = make_fs_world tree in
  match request engine login fs client_host "anyone" "/a/b/leaf" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "middle directory bypassed"

let test_unixfs_certificate_is_genuine () =
  let engine, login, fs, client_host = make_fs_world standard_tree in
  match request engine login fs client_host "rjh21" "/home/rjh21/thesis.tex" with
  | Ok (cert, _) ->
      checkb "validates at the adapter service" true
        (Service.validate (Unixfs.service fs) ~client:cert.Oasis_core.Cert.holder cert = Ok ());
      ignore engine
  | Error e -> Alcotest.failf "%s" e

let test_unixfs_requires_root () =
  checkb "missing root rejected" true
    (let engine = Engine.create () in
     let net = Net.create engine in
     let reg = Service.create_registry () in
     Result.is_error (Unixfs.create net (Net.add_host net "h") reg ~name:"X" ~tree:[ ("/a", "x=r") ]))

(* --- Probability parameter under clock uncertainty (§6.8.4) --- *)

let test_probability_margin_blocks_near_ties () =
  (* With clock uncertainty 1.0s and Probability 0.9, a B stamped up to
     0.8s *after* A must still be treated as a possible predecessor. *)
  let l = Local_io.create ~clock_uncertainty:1.0 () in
  let hits = ref 0 in
  let _ =
    Bead.detect (Local_io.io l) ~start:0.0
      (Composite.parse "srcA.A() - srcB.B() {Probability = 0.9}")
      ~on_occur:(fun _ -> incr hits)
  in
  Local_io.set_time l 2.0;
  ignore (Local_io.signal l ~source:"srcA" "A" []);
  Local_io.set_time l 2.5;
  ignore (Local_io.signal l ~source:"srcB" "B" []) (* 0.5s after A: within margin *);
  Local_io.set_time l 10.0;
  checki "ambiguous ordering blocked at high confidence" 0 !hits

let test_probability_low_confidence_fires () =
  (* Probability 0.5 means plain timestamp order: the same trace fires. *)
  let l = Local_io.create ~clock_uncertainty:1.0 () in
  let hits = ref 0 in
  let _ =
    Bead.detect (Local_io.io l) ~start:0.0
      (Composite.parse "srcA.A() - srcB.B() {Probability = 0.5}")
      ~on_occur:(fun _ -> incr hits)
  in
  Local_io.set_time l 2.0;
  ignore (Local_io.signal l ~source:"srcA" "A" []);
  Local_io.set_time l 2.5;
  ignore (Local_io.signal l ~source:"srcB" "B" []);
  Local_io.set_time l 10.0;
  checki "fires on plain order" 1 !hits

let test_probability_clear_separation_fires () =
  let l = Local_io.create ~clock_uncertainty:1.0 () in
  let hits = ref 0 in
  let _ =
    Bead.detect (Local_io.io l) ~start:0.0
      (Composite.parse "srcA.A() - srcB.B() {Probability = 0.9}")
      ~on_occur:(fun _ -> incr hits)
  in
  Local_io.set_time l 2.0;
  ignore (Local_io.signal l ~source:"srcA" "A" []);
  Local_io.set_time l 5.0;
  ignore (Local_io.signal l ~source:"srcB" "B" []) (* 3s after: beyond margin *);
  Local_io.set_time l 10.0;
  checki "clearly-later B does not block" 1 !hits

(* --- generator-based round trips --- *)

let ident_gen =
  QCheck.Gen.(
    map2
      (fun c s -> String.make 1 c ^ s)
      (char_range 'A' 'Z')
      (string_size ~gen:(char_range 'a' 'z') (int_range 0 6)))

let var_gen =
  (* Avoid RDL keywords ("or", "in", ...) surfacing as variable names. *)
  QCheck.Gen.(
    map
      (fun s ->
        if List.mem s [ "or"; "and"; "not"; "in"; "def"; "import"; "subset" ] then s ^ "v"
        else s)
      (string_size ~gen:(char_range 'a' 'z') (int_range 1 4)))

let pattern_gen =
  QCheck.Gen.(
    frequency
      [
        (2, return Event.Any);
        (3, map (fun v -> Event.Var v) var_gen);
        (2, map (fun n -> Event.Lit (V.Int n)) small_nat);
        (2, map (fun s -> Event.Lit (V.Str s)) (string_size ~gen:(char_range 'a' 'z') (int_range 0 5)));
      ])

let template_gen =
  QCheck.Gen.(
    map2
      (fun name pats -> Event.template name pats)
      ident_gen
      (list_size (int_range 0 3) pattern_gen))

let composite_gen =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 1 then map (fun tpl -> Composite.Base (tpl, [])) template_gen
        else
          frequency
            [
              (3, map (fun tpl -> Composite.Base (tpl, [])) template_gen);
              (2, map2 (fun a b -> Composite.Seq (a, b)) (self (n / 2)) (self (n / 2)));
              (2, map2 (fun a b -> Composite.Or (a, b)) (self (n / 2)) (self (n / 2)));
              ( 2,
                map2
                  (fun a b -> Composite.Without (a, b, Composite.no_params))
                  (self (n / 2)) (self (n / 2)) );
              (1, map (fun c -> Composite.Whenever c) (self (n - 1)));
              (1, return Composite.Null);
            ]))

let composite_arb = QCheck.make ~print:Composite.to_string composite_gen

let prop_composite_pp_parse_roundtrip =
  QCheck.Test.make ~name:"composite pp/parse round trip" ~count:300 composite_arb (fun c ->
      let printed = Composite.to_string c in
      match Composite.parse_result printed with
      | Ok c2 -> Composite.to_string c2 = printed
      | Error _ -> false)

(* RDL entry statements: generate ASTs, print, re-parse, compare. *)
let rdl_arg_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun v -> Oasis_rdl.Ast.Avar v) var_gen);
        (2, map (fun n -> Oasis_rdl.Ast.Alit (V.Int n)) small_nat);
        (2, map (fun s -> Oasis_rdl.Ast.Alit (V.Str s)) (string_size ~gen:(char_range 'a' 'z') (int_range 0 5)));
      ])

let role_ref_gen =
  QCheck.Gen.(
    map3
      (fun role args starred ->
        { Oasis_rdl.Ast.sref = Oasis_rdl.Ast.local_service; role; ref_args = args; starred })
      ident_gen
      (list_size (int_range 0 3) rdl_arg_gen)
      bool)

let entry_gen =
  QCheck.Gen.(
    map3
      (fun head creds (elector, starred) ->
        {
          Oasis_rdl.Ast.head;
          creds;
          elector;
          elect_starred = (match elector with Some _ -> starred | None -> false);
          revoker = None;
          constr = None;
          entry_line = 0;
        })
      (pair ident_gen (list_size (int_range 0 3) rdl_arg_gen))
      (list_size (int_range 0 3) role_ref_gen)
      (pair (option role_ref_gen) bool))

let entry_arb =
  QCheck.make
    ~print:(fun e -> Oasis_rdl.Pretty.entry_to_string e)
    entry_gen

let prop_rdl_entry_roundtrip =
  QCheck.Test.make ~name:"rdl entry pp/parse round trip" ~count:300 entry_arb (fun entry ->
      (* A generated entry with no creds and no elector prints as
         "Head <- " which needs a follow-up statement to terminate; append
         a dummy to make the file well-formed. *)
      let src = Oasis_rdl.Pretty.entry_to_string entry ^ "\nZzz <- \n" in
      match Oasis_rdl.Parser.parse_result src with
      | Error _ -> false
      | Ok rf -> (
          match Oasis_rdl.Ast.entries (Oasis_rdl.Ast.strip_lines rf) with
          | [ parsed; _ ] -> parsed = entry
          | _ -> false))


(* --- composite event service (§6.2.3, §6.8.2) --- *)

module Broker = Oasis_events.Broker
module Composite_service = Oasis_events.Composite_service
module Site = Oasis_badge.Site

let test_composite_service_resignals () =
  let engine = Engine.create () in
  let net = Net.create ~latency:(Net.Fixed 0.01) engine in
  let site = Site.create net (Site.directory ()) ~name:"CSite" ~rooms:[ "r1"; "r2" ] ~heartbeat:0.5 () in
  Site.register_badge site ~badge:1 ~user:"a";
  Site.register_badge site ~badge:2 ~user:"b";
  (* The composite server subscribes to the site's Master. *)
  let cs_host = Net.add_host net "cshost" in
  let sessions = ref [] in
  Broker.connect net cs_host (Site.master site)
    ~on_result:(function Ok sess -> sessions := [ sess ] | Error _ -> ())
    ();
  Engine.run ~until:1.0 engine;
  let cs =
    Composite_service.create net cs_host ~name:"CompositeSvc" ~upstreams:!sessions
      ~heartbeat:0.5 ()
  in
  checkb "define ok" true
    (Composite_service.define cs ~signal_as:"Together"
       (Composite.parse "$Seen(A, R); $Seen(B, R) - Seen(A, Rp)")
     = Ok ());
  checkb "duplicate rejected" true
    (Result.is_error (Composite_service.define cs ~signal_as:"Together" Composite.Null));
  (* A downstream client consumes detections as ordinary base events. *)
  let down_host = Net.add_host net "downstream" in
  let got = ref [] in
  Broker.connect net down_host (Composite_service.broker cs)
    ~on_result:(function
      | Ok sess ->
          ignore
            (Broker.register sess
               (Event.template "Together" [ Event.Any; Event.Any; Event.Any; Event.Any ])
               (fun e -> got := e :: !got))
      | Error _ -> ())
    ();
  Engine.run ~until:2.0 engine;
  Site.sight site ~badge:1 ~home:"CSite" ~room:"r1";
  Engine.run ~until:3.0 engine;
  Site.sight site ~badge:2 ~home:"CSite" ~room:"r1";
  Engine.run ~until:6.0 engine;
  checkb "detection re-signalled as base event" true (!got <> []);
  (match !got with
  | e :: _ ->
      (* Parameters are the bindings A, R, B, Rp in first-appearance order. *)
      checkb "A bound" true (e.Event.params.(0) = V.Int 1);
      checkb "B bound" true (e.Event.params.(2) = V.Int 2)
  | [] -> ());
  checkb "count recorded" true (Composite_service.detections cs "Together" >= 1);
  Composite_service.undefine cs "Together";
  checkb "undefined" true (Composite_service.definitions cs = [])

let test_composite_over_composite () =
  (* Second-level composition: detect "Together happened twice" over the
     re-signalled stream — the independence property of §6.8.2. *)
  let engine = Engine.create () in
  let net = Net.create ~latency:(Net.Fixed 0.01) engine in
  let site = Site.create net (Site.directory ()) ~name:"CSite2" ~rooms:[ "r1" ] ~heartbeat:0.5 () in
  Site.register_badge site ~badge:1 ~user:"a";
  Site.register_badge site ~badge:2 ~user:"b";
  let cs_host = Net.add_host net "cshost2" in
  let sessions = ref [] in
  Broker.connect net cs_host (Site.master site)
    ~on_result:(function Ok sess -> sessions := [ sess ] | Error _ -> ())
    ();
  Engine.run ~until:1.0 engine;
  let cs =
    Composite_service.create net cs_host ~name:"CompositeSvc2" ~upstreams:!sessions
      ~heartbeat:0.5 ()
  in
  ignore
    (Composite_service.define cs ~signal_as:"Meet"
       (Composite.parse "Seen(1, R); Seen(2, R)"));
  (* Downstream bead machine over the composite server's broker. *)
  let down_host = Net.add_host net "downstream2" in
  let dsess = ref [] in
  Broker.connect net down_host (Composite_service.broker cs)
    ~on_result:(function Ok sess -> dsess := [ sess ] | Error _ -> ())
    ();
  Engine.run ~until:2.0 engine;
  let io = Oasis_events.Broker_io.make net down_host !dsess in
  let hits = ref 0 in
  let _ = Bead.detect io ~start:0.0 (Composite.parse "Meet(R)") ~on_occur:(fun _ -> incr hits) in
  Engine.run ~until:3.0 engine;
  Site.sight site ~badge:1 ~home:"CSite2" ~room:"r1";
  Engine.run ~until:4.0 engine;
  Site.sight site ~badge:2 ~home:"CSite2" ~room:"r1";
  Engine.run ~until:8.0 engine;
  checki "composite-over-composite detection" 1 !hits

(* --- per-site local policies (fig 7.2) --- *)

let test_three_site_policies () =
  (* Three sites with different local policies (fig 7.2): Cambridge lets a
     logged-on user watch any badge; ORL only one's own badge; PARC exports
     nothing at all. *)
  let engine = Engine.create () in
  let net = Net.create ~latency:(Net.Fixed 0.005) engine in
  let reg = Service.create_registry () in
  let tokens = Oasis_esec.Policy.tokens reg in
  let sites = Site.directory () in
  let cam = Site.create net sites ~name:"Cam" ~rooms:[ "r" ] () in
  let orl = Site.create net sites ~name:"Orl" ~rooms:[ "r" ] () in
  let parc = Site.create net sites ~name:"Parc" ~rooms:[ "r" ] () in
  List.iter (fun s -> Site.register_badge s ~badge:1 ~user:"me") [ cam; orl; parc ];
  List.iter (fun s -> Site.register_badge s ~badge:2 ~user:"other") [ cam; orl; parc ];
  let nsvc =
    Result.get_ok
      (Service.create net (Net.add_host net "ns3") reg ~name:"Namer3"
         ~rolefile:{|
def LoggedOn(u) u: String
def OwnsBadge(u, b) u: String b: Integer
LoggedOn(u) <-
OwnsBadge(u, b) <-
|} ())
  in
  let install site rules_text =
    let rules = Result.get_ok (Oasis_esec.Erdl.parse rules_text) in
    Oasis_esec.Policy.install (Site.master site) ~tokens ~rules
  in
  install cam "allow Namer3.LoggedOn(u) : Seen(*, *)";
  install orl "allow Namer3.OwnsBadge(u, b) : Seen(b, *)";
  install parc "deny * : Seen(*, *)";
  let me = fresh_vci () in
  let logged =
    Service.issue_arbitrary nsvc ~client:me ~roles:[ "LoggedOn" ] ~args:[ V.Str "me" ]
  in
  let owns =
    Service.issue_arbitrary nsvc ~client:me ~roles:[ "OwnsBadge" ] ~args:[ V.Str "me"; V.Int 1 ]
  in
  let creds = List.map (Oasis_esec.Policy.token_of_cert tokens) [ logged; owns ] in
  let watch site =
    let host = Net.add_host net ("w-" ^ Site.name site) in
    let mine = ref 0 and others = ref 0 and admitted = ref false in
    Broker.connect net host (Site.master site) ~credentials:creds
      ~on_result:(function
        | Ok sess ->
            admitted := true;
            ignore
              (Broker.register sess (Event.template "Seen" [ Event.Any; Event.Any ]) (fun e ->
                   if e.Event.params.(0) = V.Int 1 then incr mine else incr others))
        | Error _ -> ())
      ();
    (admitted, mine, others)
  in
  let cam_adm, cam_mine, cam_others = watch cam in
  let orl_adm, orl_mine, orl_others = watch orl in
  let parc_adm, _, _ = watch parc in
  Engine.run ~until:1.0 engine;
  List.iter
    (fun site ->
      Site.sight site ~badge:1 ~home:(Site.name site) ~room:"r";
      Site.sight site ~badge:2 ~home:(Site.name site) ~room:"r")
    [ cam; orl; parc ];
  Engine.run ~until:3.0 engine;
  checkb "Cambridge admits" true !cam_adm;
  checki "Cambridge shows all badges" 1 !cam_others;
  checki "Cambridge shows mine" 1 !cam_mine;
  checkb "ORL admits" true !orl_adm;
  checki "ORL shows only my badge" 0 !orl_others;
  checki "ORL shows mine" 1 !orl_mine;
  checkb "PARC refuses outright" false !parc_adm


(* --- broker delivery invariant under random loss (robustness property) --- *)

(* Thirty events signalled under [loss_pct]% message loss reach a
   registered session exactly once each, in order. *)
let broker_delivers_exactly_once (seed, loss_pct) =
  let engine = Engine.create () in
  let net = Net.create ~seed:(Int64.of_int (seed + 1)) ~latency:(Net.Fixed 0.01) engine in
  let shost = Net.add_host net "s" and chost = Net.add_host net "c" in
  let srv = Broker.create_server net shost ~name:"s" ~heartbeat:0.3 () in
  let session = ref None in
  Broker.connect net chost srv
    ~on_result:(function Ok x -> session := Some x | Error _ -> ())
    ();
  Engine.run ~until:1.0 engine;
  let got = ref [] in
  (match !session with
  | Some sess ->
      ignore
        (Broker.register sess (Event.template "E" [ Event.Any ]) (fun e ->
             got := e.Event.seq :: !got))
  | None -> ());
  Engine.run ~until:1.5 engine;
  Net.set_loss net (float_of_int loss_pct /. 100.0);
  for i = 1 to 30 do
    Engine.schedule engine ~delay:(0.1 *. float_of_int i) (fun () ->
        ignore (Broker.signal srv "E" [ V.Int i ]))
  done;
  Engine.schedule engine ~delay:4.0 (fun () -> Net.set_loss net 0.0);
  Engine.run ~until:60.0 engine;
  let seqs = List.rev !got in
  List.length seqs = 30 && seqs = List.sort_uniq compare seqs

let prop_broker_exactly_once_in_order =
  QCheck.Test.make ~name:"broker delivers exactly once, in order, under loss" ~count:25
    QCheck.(pair (int_bound 1000) (int_bound 45))
    broker_delivers_exactly_once

(* On these inputs a reconnection replaced the session while its
   re-registration was still in flight, and the new incarnation's empty
   heartbeats had already carried the horizon past events the
   registration never saw.  The next re-registration replayed from that
   horizon, and events 0-25 were never delivered. *)
let test_broker_reregistration_on_replaced_session () =
  List.iter
    (fun input ->
      checkb
        (Printf.sprintf "all delivered at seed %d, %d%% loss" (fst input) (snd input))
        true
        (broker_delivers_exactly_once input))
    [ (697, 40); (697, 45) ]

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "extensions"
    [
      ( "idl",
        [
          Alcotest.test_case "parse" `Quick test_idl_parse;
          Alcotest.test_case "set types" `Quick test_idl_set_types;
          Alcotest.test_case "parse errors" `Quick test_idl_parse_errors;
          Alcotest.test_case "constructor checks types" `Quick test_idl_constructor_checks_types;
          Alcotest.test_case "destructor" `Quick test_idl_destructor;
          Alcotest.test_case "template_of" `Quick test_idl_template_of;
          Alcotest.test_case "pp round trip" `Quick test_idl_pp_roundtrip;
        ] );
      ( "unixfs",
        [
          Alcotest.test_case "owner access" `Quick test_unixfs_owner_access;
          Alcotest.test_case "group access" `Quick test_unixfs_group_access;
          Alcotest.test_case "directory blocks" `Quick test_unixfs_directory_blocks;
          Alcotest.test_case "deep path" `Quick test_unixfs_deep_path;
          Alcotest.test_case "middle block" `Quick test_unixfs_middle_block;
          Alcotest.test_case "certificate genuine" `Quick test_unixfs_certificate_is_genuine;
          Alcotest.test_case "requires root" `Quick test_unixfs_requires_root;
        ] );
      ( "probability",
        [
          Alcotest.test_case "margin blocks near ties" `Quick test_probability_margin_blocks_near_ties;
          Alcotest.test_case "low confidence fires" `Quick test_probability_low_confidence_fires;
          Alcotest.test_case "clear separation fires" `Quick test_probability_clear_separation_fires;
        ] );
      ( "roundtrips",
        [ qt prop_composite_pp_parse_roundtrip; qt prop_rdl_entry_roundtrip ] );
      ( "composite-service",
        [
          Alcotest.test_case "resignals detections" `Quick test_composite_service_resignals;
          Alcotest.test_case "composite over composite" `Quick test_composite_over_composite;
        ] );
      ( "site-policies",
        [ Alcotest.test_case "three sites (fig 7.2)" `Quick test_three_site_policies ] );
      ( "robustness",
        [
          qt prop_broker_exactly_once_in_order;
          Alcotest.test_case "re-registration on a replaced session" `Quick
            test_broker_reregistration_on_replaced_session;
        ] );
    ]
