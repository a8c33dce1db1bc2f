(* Tests for the static policy analyzer: per-rolefile checks (Analyze), the
   federation linter (Federation_lint), Service lint gating, and the
   satellite fixes riding with them — total relational comparison,
   accumulator variable collection, IDL set types, and the pretty round-trip
   property over generated rolefiles plus the on-disk examples.

   Every check has at least one positive case (flagged, with the right code
   and line) and at least one negative case (not flagged). *)

module Ast = Oasis_rdl.Ast
module Parser = Oasis_rdl.Parser
module Pretty = Oasis_rdl.Pretty
module Analyze = Oasis_rdl.Analyze
module Infer = Oasis_rdl.Infer
module Eval = Oasis_rdl.Eval
module Value = Oasis_rdl.Value
module Ty = Oasis_rdl.Ty
module FL = Oasis_core.Federation_lint
module Service = Oasis_core.Service
module Composite = Oasis_events.Composite
module Idl = Oasis_events.Idl
module Engine = Oasis_sim.Engine
module Net = Oasis_sim.Net

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let lint src = Analyze.check_src src
let has code ds = List.exists (fun d -> d.Analyze.code = code) ds
let count code ds = List.length (List.filter (fun d -> d.Analyze.code = code) ds)

let diag code ds =
  match List.find_opt (fun d -> d.Analyze.code = code) ds with
  | Some d -> d
  | None ->
      Alcotest.failf "no %s among: %s" code
        (String.concat "; " (List.map Analyze.diag_to_string ds))

let no_diags ds =
  checks "no diagnostics" "" (String.concat "; " (List.map Analyze.diag_to_string ds))

(* --- RDL000: parse errors become diagnostics --- *)

let test_rdl000 () =
  let ds = lint "Member( <-" in
  checki "one diag" 1 (List.length ds);
  let d = diag "RDL000" ds in
  checkb "error severity" true (d.Analyze.severity = Analyze.Error);
  checkb "line known" true (d.Analyze.line >= 1);
  no_diags (lint "Base(u) <-\n")

(* --- RDL001: variables that can never be bound --- *)

let test_rdl001_unbound () =
  (* The paper's login-service defect class: h appears only in the
     constraint, the engine starts from an empty environment, so the
     statement silently never fires. *)
  let ds = lint "Base(u) <-\nLogin(u, h) <- Base(u) : h in hosts\n" in
  checki "head + constraint" 2 (count "RDL001" ds);
  checki "anchored at line 2" 2 (diag "RDL001" ds).Analyze.line

let test_rdl001_negative () =
  (* Bound positionally, bound through a bind chain, or an axiom head. *)
  no_diags (lint "Base(u) <-\nX(u, v) <- Base(u) : v <- f(u) and v > 0\n");
  no_diags (lint "LoggedOn(u, h) <-\n")

let test_rdl001_unbindable_chain () =
  (* v <- f(w) cannot bind v because w is itself unbound. *)
  let ds = lint "Base(u) <-\nX(u) <- Base(u) : v <- f(w) and v > 0\n" in
  checkb "w and v both unbound" true (count "RDL001" ds = 2)

(* --- RDL002/RDL003: binder hygiene --- *)

let test_rdl002 () =
  let ds = lint "Base(u) <-\nS(u) <- Base(u) : v <- 7\n" in
  checki "unused binder" 1 (count "RDL002" ds);
  checkb "warning" true ((diag "RDL002" ds).Analyze.severity = Analyze.Warning);
  no_diags (lint "Base(u) <-\nS(u) <- Base(u) : v <- 7 and v > 3\n");
  (* used by the head: synthesised as a head argument, not dead *)
  no_diags (lint "Base(u) <-\nS(u, v) <- Base(u) : v <- 7\n")

let test_rdl003 () =
  let ds = lint "Base(u) <-\nT(u) <- Base(u) : v <- 1 and v <- u and v > 0\n" in
  checki "rebind flagged" 1 (count "RDL003" ds);
  no_diags (lint "Base(u) <-\nT(u) <- Base(u) : v <- 1 and v > 0\n")

(* --- RDL004: duplicate entries --- *)

let test_rdl004 () =
  let ds = lint "Base(u) <-\nD(u) <- Base(u)*\nD(u) <- Base(u)*\n" in
  checki "duplicate" 1 (count "RDL004" ds);
  checki "at the second occurrence" 3 (diag "RDL004" ds).Analyze.line;
  (* differing star/constraint = different statements *)
  no_diags (lint "Base(u) <-\nD(u) <- Base(u)*\nD(u) <- Base(u)\n");
  (* the golf-club quorum idiom: one entry naming a role twice is not a dup *)
  no_diags (lint "M(u) <-\nS(u) <- M(p)* /\\ M(q)* /\\ M(u)* : p <> q\n")

(* --- RDL005/RDL006: arity and types (via inference) --- *)

let test_rdl005 () =
  let ds = lint "def F(u)\nBase(u) <-\nF(u, v) <- Base(u) /\\ Base(v)\n" in
  checki "arity" 1 (count "RDL005" ds);
  checki "on the bad entry" 3 (diag "RDL005" ds).Analyze.line;
  no_diags (lint "def F(u)\nBase(u) <-\nF(u) <- Base(u)\n")

let test_rdl006 () =
  let ds = lint "Base(u) <-\nX(u) <- Base(u) : u > 5 and u = \"s\"\n" in
  checki "type clash" 1 (count "RDL006" ds);
  no_diags (lint "Base(u) <-\nX(u) <- Base(u) : u > 5 and u < 9\n")

(* --- RDL007/RDL008: unknown functions and groups --- *)

let funcs_ctx =
  {
    Analyze.default_context with
    Analyze.known_funcs = Some [ "unixacl" ];
    known_groups = Some [ "staff" ];
  }

let test_rdl007 () =
  let src = "Base(u) <-\nX(u) <- Base(u) : magic(u) > 0\n" in
  let ds = Analyze.check_src ~context:funcs_ctx src in
  checki "unknown func" 1 (count "RDL007" ds);
  checkb "error severity" true ((diag "RDL007" ds).Analyze.severity = Analyze.Error);
  (* without a known universe the check is off *)
  checki "disabled" 0 (count "RDL007" (lint src));
  no_diags
    (Analyze.check_src ~context:funcs_ctx
       "Base(u) <-\nX(u) <- Base(u) : unixacl(\"+u=rw\", u) subset {rw}\n")

let test_rdl008 () =
  let src = "Base(u) <-\nX(u) <- Base(u) : u in visitors\n" in
  let ds = Analyze.check_src ~context:funcs_ctx src in
  checki "unknown group" 1 (count "RDL008" ds);
  checkb "warning" true ((diag "RDL008" ds).Analyze.severity = Analyze.Warning);
  checki "disabled" 0 (count "RDL008" (lint src));
  no_diags (Analyze.check_src ~context:funcs_ctx "Base(u) <-\nX(u) <- Base(u) : u in staff\n")

(* --- RDL009/RDL010: import hygiene --- *)

let test_rdl009 () =
  let ds = lint "import Login.userid\nBase(u) <-\n" in
  checki "unused import" 1 (count "RDL009" ds);
  checki "at the import" 1 (diag "RDL009" ds).Analyze.line;
  no_diags (lint "import Login.userid\ndef Base(u) u: userid\nBase(u) <-\n")

let test_rdl010 () =
  let ds = lint "def Owner(f) f: fileid\nOwner(f) <-\n" in
  checki "missing import" 1 (count "RDL010" ds);
  no_diags (lint "import Store.fileid\ndef Owner(f) f: fileid\nOwner(f) <-\n")

(* --- RDL011: unsatisfiable constraints --- *)

let test_rdl011 () =
  let ds = lint "Base(c) <-\nX(c) <- Base(c) : c > 5 and c < 3\n" in
  checki "interval contradiction" 1 (count "RDL011" ds);
  checki "line" 2 (diag "RDL011" ds).Analyze.line;
  checki "negated tautology" 1 (count "RDL011" (lint "Base(u) <-\nX(u) <- Base(u) : not (u = u)\n"));
  checki "opaque contradiction" 1
    (count "RDL011" (lint "Base(u) <-\nX(u) <- Base(u) : u in g and not (u in g)\n"));
  no_diags (lint "Base(c) <-\nX(c) <- Base(c) : c > 5 or c < 3\n");
  no_diags (lint "Base(c) <-\nX(c) <- Base(c) : c > 5 and c < 9\n")

let test_sat_direct () =
  let open Ast in
  let x = Evar "x" in
  let i n = Elit (Value.Int n) in
  let is_ what v = checkb what true (v = what) in
  ignore is_;
  let chk name expected c =
    let got =
      match Analyze.sat c with `Sat -> "sat" | `Unsat -> "unsat" | `Unknown -> "unknown"
    in
    checks name expected got
  in
  chk "interval" "unsat" (Cand (Crel (Gt, x, i 5), Crel (Lt, x, i 3)));
  chk "or rescues" "sat" (Cor (Crel (Gt, x, i 5), Crel (Lt, x, i 3)));
  chk "not tautology" "unsat" (Cnot (Crel (Eq, x, x)));
  chk "same var lt" "unsat" (Crel (Lt, x, x));
  chk "const fold true" "sat" (Crel (Eq, i 1, i 1));
  chk "const fold false" "unsat" (Crel (Eq, i 1, i 2));
  chk "ill-typed ordering" "unsat" (Crel (Lt, Elit (Value.Str "a"), Elit (Value.Str "b")));
  chk "pinned point excluded" "unsat"
    (Cand (Crel (Ge, x, i 1), Cand (Crel (Le, x, i 2), Cand (Crel (Ne, x, i 1), Crel (Ne, x, i 2)))));
  chk "eq conflict" "unsat" (Cand (Crel (Eq, x, i 4), Crel (Eq, x, i 5)));
  chk "bind conflicts with eq" "unsat" (Cand (Cbind ("x", i 4), Crel (Eq, x, i 5)));
  chk "opaque polarity" "unsat" (Cand (Cin (x, "g"), Cnot (Cin (x, "g"))));
  chk "opaque alone" "unknown" (Cin (x, "g"));
  chk "star transparent" "unsat" (Cstar (Cand (Crel (Gt, x, i 5), Crel (Lt, x, i 3))));
  chk "subset const" "unsat"
    (Csubset (Elit (Value.set_of_chars "rw"), Elit (Value.set_of_chars "r")));
  (* DNF blow-up past the cap degrades to unknown, never wrong *)
  let big =
    let disj v = Cor (Cin (Evar v, "g"), Cin (Evar v, "h")) in
    List.fold_left
      (fun acc v -> Cand (acc, disj v))
      (disj "v0")
      (List.init 12 (fun j -> Printf.sprintf "v%d" (j + 1)))
  in
  chk "too wide" "unknown" big

(* --- line threading (satellite 1) --- *)

let test_item_lines () =
  let rf = Parser.parse "import A.t\n\ndef F(u) u: t\nBase(u) <-\n\nF(u) <- Base(u)\n" in
  checks "item lines" "1,3,4,6"
    (String.concat "," (List.map (fun it -> string_of_int (Ast.item_line it)) rf));
  let stripped = Ast.strip_lines rf in
  checks "stripped" "0,0,0,0"
    (String.concat "," (List.map (fun it -> string_of_int (Ast.item_line it)) stripped))

let test_infer_located_line () =
  let rf = Parser.parse "Base(u) <-\nX(u) <- Base(u) : u > 1 and u = \"s\"\n" in
  match Infer.infer_located rf with
  | Ok _ -> Alcotest.fail "expected type error"
  | Error (line, _) -> checki "error line" 2 line

(* --- federation checks --- *)

let member name src = { FL.fl_name = name; FL.fl_file = name ^ ".rdl"; fl_rolefile = Parser.parse src }

let test_federation_deadlock () =
  let fed =
    FL.make
      [ member "CycA" "X(u) <- CycB.Y(u)\n"; member "CycB" "Y(u) <- CycA.X(u)\n" ]
  in
  let ds = FL.check fed in
  checki "one cycle report" 1 (count "OASIS001" ds);
  checkb "names both nodes" true
    (let m = (diag "OASIS001" ds).Analyze.message in
     let mem s =
       let n = String.length s and l = String.length m in
       let rec go i = i + n <= l && (String.sub m i n = s || go (i + 1)) in
       go 0
     in
     mem "CycA.X" && mem "CycB.Y");
  (* deadlocked roles are not double-reported as merely unreachable *)
  checki "no OASIS002 for cycle members" 0 (count "OASIS002" ds)

let test_federation_bootstrapped_cycle () =
  (* The same shape plus an axiom inside the cycle: mutual recursion with a
     bootstrap is the paper's normal idiom, not a deadlock. *)
  let fed =
    FL.make
      [ member "A" "X(u) <-\nX(u) <- B.Y(u)\n"; member "B" "Y(u) <- A.X(u)\n" ]
  in
  let ds = FL.check fed in
  checki "no deadlock" 0 (count "OASIS001" ds);
  checki "no unreachable" 0 (count "OASIS002" ds)

let test_federation_unreachable () =
  let fed =
    FL.make [ member "A" "Base(u) <-\nStuck(u) <- Base(u) /\\ Gone(u)\nGone(u) <- Stuck(u)\n" ] in
  let ds = FL.check fed in
  (* Stuck <-> Gone is a cycle with no bootstrap *)
  checki "deadlock" 1 (count "OASIS001" ds);
  checki "base fine" 0
    (List.length (List.filter (fun d -> d.Analyze.severity = Analyze.Error) ds) - 1)

let test_federation_unreachable_constraint () =
  (* unreachable because its only entry's constraint is unsatisfiable *)
  let fed = FL.make [ member "A" "Base(u) <-\nNever(u) <- Base(u) : u > 5 and u < 3\n" ] in
  let ds = FL.check fed in
  checki "unreachable" 1 (count "OASIS002" ds);
  checki "line of entry" 2 (diag "OASIS002" ds).Analyze.line

let test_federation_unknown_role () =
  let fed =
    FL.make [ member "A" "Base(u) <-\n"; member "B" "In(u) <- A.Nope(u)\n" ] in
  let ds = FL.check fed in
  checki "unknown role" 1 (count "OASIS003" ds);
  checks "in B" "B.rdl" (diag "OASIS003" ds).Analyze.file;
  (* a role of a service outside the federation is not checkable *)
  checki "external ok" 0 (count "OASIS003" (FL.check (FL.make [ member "B" "In(u) <- Z.Nope(u)\n" ])))

let test_federation_revocation_gaps () =
  let fed =
    FL.make
      [
        member "A" "Base(u) <-\n";
        member "B" "In(u) <- A.Base(u)* /\\ Out.Thing(u)*\nSoft(u) <- A.Base(u)\n";
      ]
  in
  let ds = FL.check fed in
  (* starred prerequisite from outside the federation: no revocation channel *)
  checki "no channel" 1 (count "OASIS004" ds);
  checkb "warning" true ((diag "OASIS004" ds).Analyze.severity = Analyze.Warning);
  (* revocable prerequisite consumed without a star: info-level gap *)
  checki "gap info" 1 (count "OASIS005" ds);
  checkb "info" true ((diag "OASIS005" ds).Analyze.severity = Analyze.Info);
  checki "gap on line 2" 2 (diag "OASIS005" ds).Analyze.line

let test_federation_per_file () =
  let fed = FL.make [ member "A" "Base(u) <-\nX(u) <- Base(u) : w > 0\n" ] in
  checki "no per-file by default" 0 (count "RDL001" (FL.check fed));
  checkb "per-file included" true (has "RDL001" (FL.check ~per_file:true fed))

let test_federation_external_sig () =
  (* member_context resolves sibling signatures: B's bad call-out is a
     per-file arity error only when linted as part of the federation *)
  let a = member "A" "def Base(u, h) u: String h: String\nBase(u, h) <-\n" in
  let b = member "B" "In(u) <- A.Base(u)\n" in
  let fed = FL.make [ a; b ] in
  let ds = FL.check ~per_file:true fed in
  checkb "cross-service arity" true (has "RDL005" ds);
  checks "anchored in B" "B.rdl" (diag "RDL005" ds).Analyze.file

let test_escalation () =
  let fed =
    FL.make
      [
        member "A" "Boot(u) <-\nMember(u) <- Boot(u) /\\ B.Peer(u)*\n";
        member "B" "Peer(u) <- A.Member(u)\nEasy(u) <-\n";
      ]
  in
  checkb "holder escapes deadlock" true
    (FL.can_reach fed ~holder:("A", "Member") ~target:("B", "Peer"));
  checkb "axioms alone cannot" false
    (FL.can_reach fed ~holder:("B", "Easy") ~target:("A", "Member"));
  checks "frontier" "B.Peer"
    (String.concat "," (List.map FL.node_str (FL.escalation fed ~holder:("A", "Member"))));
  checks "nothing new" ""
    (String.concat "," (List.map FL.node_str (FL.escalation fed ~holder:("B", "Easy"))))

(* --- Service lint gating --- *)

let make_world () =
  let engine = Engine.create () in
  let net = Net.create ~latency:(Net.Fixed 0.005) engine in
  (engine, net, Service.create_registry ())

let try_create ?funcs ~rolefile () =
  let _, net, reg = make_world () in
  Service.create net (Net.add_host net "h") reg ~name:"S" ~rolefile ?funcs ()

let test_service_gating_errors () =
  let bad = "Base(u) <-\nBad(u) <- Base(u) : w > 5\n" in
  match try_create ~rolefile:bad () with
  | Error e ->
      checkb "mentions lint" true (String.length e >= 4 && String.sub e 0 4 = "lint");
      checkb "names the code" true
        (let rec go i =
           i + 6 <= String.length e && (String.sub e i 6 = "RDL001" || go (i + 1))
         in
         go 0)
  | Ok _ -> Alcotest.fail "lint should have failed registration"

(* A warning gates a strict lint run ([oasis_cli lint --strict]), never
   service creation. *)
let test_service_gating_warnings () =
  let dup = "Base(u) <-\nD(u) <- Base(u)\nD(u) <- Base(u)\n" in
  (match try_create ~rolefile:dup () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "warnings should not gate creation: %s" e);
  checkb "RDL004 gates a strict run only" true
    (List.exists
       (fun d ->
         d.Analyze.code = "RDL004" && Analyze.gates ~strict:true d
         && not (Analyze.gates ~strict:false d))
       (Analyze.check (Parser.parse dup)))

let test_service_gating_funcs () =
  let rf = "Base(u) <-\nF(u) <- Base(u) : magic(u) > 0\n" in
  (match try_create ~rolefile:rf () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown extension function should gate");
  match try_create ~funcs:[ ("magic", fun _ -> Ok (Value.Int 1)) ] ~rolefile:rf () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "declared function should pass: %s" e

let test_registry_services () =
  let _, net, reg = make_world () in
  List.iter
    (fun name ->
      match Service.create net (Net.add_host net name) reg ~name ~rolefile:"Base(u) <-\n" () with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "create %s: %s" name e)
    [ "Zeta"; "Alpha" ];
  checks "sorted enumeration" "Alpha,Zeta"
    (String.concat "," (List.map Service.name (Service.services reg)));
  let fed =
    FL.make
      (List.map
         (fun s ->
           { FL.fl_name = Service.name s; fl_file = Service.name s; fl_rolefile = Service.rolefile s })
         (Service.services reg))
  in
  checki "registry federation lints clean" 0 (List.length (Analyze.errors (FL.check fed)))

(* --- satellite 2: total relop arms --- *)

let test_compare_rel_total () =
  checkb "eq str" true (Eval.compare_rel Ast.Eq (Value.Str "a") (Value.Str "a") = Ok true);
  checkb "ne obj" true
    (Eval.compare_rel Ast.Ne (Value.Obj ("d", "1")) (Value.Obj ("d", "2")) = Ok true);
  checkb "eq set" true
    (Eval.compare_rel Ast.Eq (Value.set_of_chars "wr") (Value.set_of_chars "rw") = Ok true);
  checkb "lt ints" true (Eval.compare_rel Ast.Lt (Value.Int 1) (Value.Int 2) = Ok true);
  (match Eval.compare_rel Ast.Lt (Value.Str "a") (Value.Str "b") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ordering on strings must be an error");
  (* and through the evaluator: an error result, not a crash *)
  let env = [ ("a", Value.Str "x"); ("b", Value.Str "y") ] in
  (match Eval.eval Eval.pure_ctx env (Ast.Crel (Ast.Ge, Ast.Evar "a", Ast.Evar "b")) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected ordering type error");
  match Eval.eval Eval.pure_ctx env (Ast.Crel (Ast.Ne, Ast.Evar "a", Ast.Evar "b")) with
  | Ok (true, _, _) -> ()
  | _ -> Alcotest.fail "Ne on strings should hold"

let test_composite_relops_total () =
  let env v = [ ("x", Value.Int v); ("s", Value.Str "a") ] in
  let side op a b = [ Composite.Scmp (op, Composite.Svar a, Composite.Svar b) ] in
  checkb "eq int via generic path" true
    (Composite.eval_side ~now:0.0 (env 1) (side Ast.Eq "x" "x") <> None);
  checkb "ne same var fails" true
    (Composite.eval_side ~now:0.0 (env 1) (side Ast.Ne "x" "x") = None);
  checkb "eq str" true (Composite.eval_side ~now:0.0 (env 1) (side Ast.Eq "s" "s") <> None);
  (* ordering on non-integers rejects the candidate instead of crashing *)
  checkb "lt str rejects" true
    (Composite.eval_side ~now:0.0 (env 1) (side Ast.Lt "s" "s") = None)

let test_idl_set_type () =
  match Idl.parse "interface I { grant(r: {wrr}) : Integer; event E(s: {rwx}); }" with
  | Error e -> Alcotest.failf "idl parse: %s" e
  | Ok iface -> (
      (match iface.Idl.if_operations with
      | [ { Idl.op_params = [ (_, Ty.Set alphabet) ]; _ } ] ->
          checks "normalised alphabet" "rw" alphabet
      | _ -> Alcotest.fail "operation shape");
      match iface.Idl.if_events with
      | [ { Idl.ev_params = [ (_, Ty.Set a) ]; _ } ] -> checks "event alphabet" "rwx" a
      | _ -> Alcotest.fail "event shape")

(* --- satellite 3: accumulator variable collection --- *)

let test_constr_vars_deep () =
  let open Ast in
  let n = 20_000 in
  let atom i = Crel (Eq, Evar (Printf.sprintf "v%d" (i mod 7)), Evar "shared") in
  let deep = ref (atom 0) in
  for i = 1 to n do
    deep := Cand (atom i, !deep)
  done;
  (* linear-time collection: this would take minutes with quadratic append *)
  let t0 = Sys.time () in
  let vars = constr_vars !deep in
  let dt = Sys.time () -. t0 in
  checkb "fast enough" true (dt < 2.0);
  checki "deduplicated" 8 (List.length vars);
  (* first-occurrence order: outermost conjunct first *)
  checks "order head" (Printf.sprintf "v%d" (n mod 7)) (List.hd vars);
  checkb "bind targets included" true
    (constr_vars (Cbind ("x", Elit (Value.Int 1))) = [ "x" ]);
  checks "expr vars order" "a,b"
    (String.concat "," (expr_vars (Ecall ("f", [ Evar "a"; Evar "b"; Evar "a" ]))))

(* --- pretty round trip: on-disk examples and generated rolefiles --- *)

let example_dir =
  (* cwd is test/ under [dune runtest] but the workspace root under
     [dune exec test/test_analyze.exe] *)
  List.find Sys.file_exists [ "../examples/rolefiles"; "examples/rolefiles" ]

let test_roundtrip_examples () =
  let files =
    Sys.readdir example_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".rdl")
    |> List.sort compare
  in
  checkb "found the example rolefiles" true (List.length files >= 4);
  List.iter
    (fun f ->
      let src = In_channel.with_open_text (Filename.concat example_dir f) In_channel.input_all in
      let rf = Parser.parse src in
      let rf2 = Parser.parse (Pretty.to_string rf) in
      if Ast.strip_lines rf <> Ast.strip_lines rf2 then
        Alcotest.failf "round trip failed for %s:\n%s" f (Pretty.to_string rf);
      (* and the examples lint clean at error severity *)
      match Analyze.errors (Analyze.check rf) with
      | [] -> ()
      | d :: _ -> Alcotest.failf "%s: %s" f (Analyze.diag_to_string d))
    files

(* A seeded rolefile generator covering every AST constructor, including the
   printer's precedence corners (or under and, star on compounds, negated
   binds). *)
let gen_rolefile rng =
  let open Ast in
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  let var () = pick [ "x1"; "x2"; "x3"; "y"; "z" ] in
  let value () =
    match Random.State.int rng 4 with
    | 0 -> Value.Int (Random.State.int rng 100)
    | 1 -> Value.Str (pick [ "alpha"; "b2"; "curl" ])
    | 2 -> Value.set_of_chars (pick [ "rw"; "x"; "adr" ])
    | _ -> Value.Obj (pick [ "doc"; "fileid" ], pick [ "i1"; "i2" ])
  in
  let arg () = if Random.State.bool rng then Avar (var ()) else Alit (value ()) in
  let args () = List.init (Random.State.int rng 3) (fun _ -> arg ()) in
  let role () = pick [ "Member"; "Chair"; "LoggedOn"; "Rev" ] in
  let sref () =
    match Random.State.int rng 3 with
    | 0 -> { service = None; rolefile = None }
    | 1 -> { service = Some (pick [ "Login"; "Store" ]); rolefile = None }
    | _ -> { service = Some (pick [ "Login"; "Store" ]); rolefile = Some "main" }
  in
  let role_ref () =
    { sref = sref (); role = role (); ref_args = args (); starred = Random.State.bool rng }
  in
  let rec expr depth =
    if depth = 0 || Random.State.int rng 3 = 0 then
      if Random.State.bool rng then Evar (var ()) else Elit (value ())
    else
      Ecall
        ( pick [ "f"; "creator"; "unixacl" ],
          List.init (1 + Random.State.int rng 2) (fun _ -> expr (depth - 1)) )
  in
  let rec constr depth =
    if depth = 0 then Crel (pick [ Eq; Ne; Lt; Le; Gt; Ge ], expr 1, expr 1)
    else
      match Random.State.int rng 8 with
      | 0 -> Cand (constr (depth - 1), constr (depth - 1))
      | 1 -> Cor (constr (depth - 1), constr (depth - 1))
      | 2 -> Cnot (constr (depth - 1))
      | 3 -> Cstar (constr (depth - 1))
      | 4 -> Cin (expr 1, pick [ "staff"; "hosts" ])
      | 5 -> Csubset (expr 1, expr 1)
      | 6 -> Ccall (pick [ "p"; "q" ], [ expr 1 ])
      | _ -> Cbind (var (), expr 1)
  in
  let entry () =
    let elector = if Random.State.int rng 3 = 0 then Some (role_ref ()) else None in
    {
      head = (role (), args ());
      creds = List.init (Random.State.int rng 3) (fun _ -> role_ref ());
      elector;
      (* an election star is only printable when there is an elector *)
      elect_starred = (elector <> None && Random.State.bool rng);
      revoker = (if Random.State.int rng 4 = 0 then Some (role_ref ()) else None);
      constr = (if Random.State.bool rng then Some (constr 3) else None);
      entry_line = 0;
    }
  in
  let item () =
    match Random.State.int rng 6 with
    | 0 ->
        Import
          { line = 0; service = pick [ "Login"; "Store" ]; tyname = pick [ "userid"; "fileid" ] }
    | 1 ->
        let params = [ "u"; "v" ] in
        Def
          {
            decl_name = role ();
            params;
            param_types =
              (if Random.State.bool rng then [ ("u", pick [ Ty.Int; Ty.Str; Ty.Set "rw"; Ty.Obj "doc" ]) ]
               else []);
            decl_line = 0;
          }
    | _ -> Entry (entry ())
  in
  List.init (1 + Random.State.int rng 5) (fun _ -> item ())

let test_roundtrip_generated () =
  let rng = Random.State.make [| 0xA515 |] in
  for i = 1 to 200 do
    let rf = gen_rolefile rng in
    let printed = Pretty.to_string rf in
    match Parser.parse_result printed with
    | Error e -> Alcotest.failf "case %d: reparse failed: %s\nsource:\n%s" i e printed
    | Ok rf2 ->
        if Ast.strip_lines rf2 <> Ast.strip_lines rf then
          Alcotest.failf "case %d: round trip mismatch:\n%s\nvs\n%s" i printed
            (Pretty.to_string rf2)
  done

(* --- RDL012: statements subsumed by an earlier, weaker same-head one --- *)

let test_rdl012 () =
  (* positive: the later statement's constraint is strictly stronger than
     the earlier unconstrained one — it can never add a membership *)
  let ds = lint "Base(u) <-\nX(u) <- Base(u)*\nX(u) <- Base(u)* : u = \"a\"\n" in
  checki "one subsumption" 1 (count "RDL012" ds);
  let d = diag "RDL012" ds in
  checkb "warning" true (d.Analyze.severity = Analyze.Warning);
  checki "anchored at the later statement" 3 d.Analyze.line;
  (* positive: subsumption through implication between constraints *)
  let ds = lint "Base(u) <-\nY(u) <- Base(u)* : u <> \"z\"\nY(u) <- Base(u)* : u = \"a\"\n" in
  checkb "implied subsumption" true (has "RDL012" ds);
  (* negative: incomparable constraints both contribute *)
  checkb "incomparable" false
    (has "RDL012" (lint "Base(u) <-\nZ(u) <- Base(u)* : u = \"a\"\nZ(u) <- Base(u)* : u = \"b\"\n"));
  (* negative: weaker-later adds memberships; only RDL-clean order warns *)
  checkb "weaker later is fine" false
    (has "RDL012" (lint "Base(u) <-\nW(u) <- Base(u)* : u = \"a\"\nW(u) <- Base(u)*\n"));
  (* negative: identical statements are RDL004's business, not RDL012's *)
  let dup = lint "Base(u) <-\nD(u) <- Base(u) : u = \"a\"\nD(u) <- Base(u) : u = \"a\"\n" in
  checkb "duplicate" true (has "RDL004" dup);
  checkb "not subsumption" false (has "RDL012" dup);
  (* negative: different credentials *)
  checkb "different creds" false
    (has "RDL012" (lint "Base(u) <-\nOther(u) <-\nV(u) <- Base(u)*\nV(u) <- Other(u)* : u = \"a\"\n"))

(* --- every diagnostic from a parsed rolefile carries a source line --- *)

let assert_lines_known where ds =
  List.iter
    (fun d ->
      if d.Analyze.line <= 0 then
        Alcotest.failf "%s: %s has no source line" where (Analyze.diag_to_string d))
    ds

let test_diag_lines_known () =
  (* per-file: one source per diagnostic family *)
  List.iter
    (fun src -> assert_lines_known "per-file" (lint src))
    [
      "Member( <-";
      "Base(u) <-\nLogin(u, h) <- Base(u) : h in hosts\n";
      "Base(u) <-\nSloppy(u) <- Base(u) : v <- 7\n";
      "Base(u) <-\nR(u) <- Base(u) : u <- \"a\" and u <- \"b\"\n";
      "Base(u) <-\nDup(u) <- Base(u)\nDup(u) <- Base(u)\n";
      "def Base(u) u: String\nBase(u, h) <-\n";
      "Base(u) <-\nNever(u) <- Base(u) : x > 5 and x < 3\n";
      "Base(u) <-\nX(u) <- Base(u)*\nX(u) <- Base(u)* : u = \"a\"\n";
    ];
  (* federation-wide: the planted escalation corpus covers OASIS001-008 *)
  let fed =
    FL.make
      [
        member "CorpA" "Boss(c) <-\nLocked(u) <- CorpB.Peer(u)*\nGold(u) <- Locked(u)* <| Boss(c)\n";
        member "CorpB"
          "Peer(u) <- CorpA.Locked(u)*\nPrize(u) <- CorpA.Locked(u)\nBridge(u) <- CorpA.Locked(u)* /\\ Outside.Badge(u)\n";
      ]
  in
  let ds = FL.check ~per_file:true ~collusion_threshold:2 fed in
  List.iter
    (fun code -> checkb (code ^ " planted") true (has code ds))
    [ "OASIS001"; "OASIS006"; "OASIS007"; "OASIS008" ];
  assert_lines_known "federation" ds;
  (* and the on-disk examples *)
  let members =
    Sys.readdir example_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".rdl")
    |> List.sort compare
    |> List.map (fun f ->
           let src =
             In_channel.with_open_text (Filename.concat example_dir f) In_channel.input_all
           in
           { FL.fl_name = Filename.remove_extension f; fl_file = f; fl_rolefile = Parser.parse src })
  in
  assert_lines_known "examples" (FL.check ~per_file:true (FL.make members))

(* --- symbolic prover: soundness and witness structure --- *)

let test_prover_tightening () =
  (* each hop satisfiable, the accumulated path constraint contradictory:
     boolean bound reachable, symbolic prover prunes *)
  let fed =
    FL.make [ member "Inf" "A(u) <-\nB(u) <- A(u)* : u = \"a\"\nC(u) <- B(u)* : u = \"b\"\n" ]
  in
  let holder = ("Inf", "A") and target = ("Inf", "C") in
  checkb "boolean bound keeps it" true (FL.boolean_can_reach fed ~holder ~target);
  checkb "symbolic prover prunes it" false (FL.can_reach fed ~holder ~target);
  checkb "the feasible prefix survives" true (FL.can_reach fed ~holder ~target:("Inf", "B"))

let test_witness_structure () =
  (* blind vs carried chains *)
  let fed = FL.make [ member "G" "H(u) <-\nT(u) <- H(u)\nS(u) <- H(u)*\n" ] in
  let wit target =
    match List.find_opt (fun w -> w.FL.w_target = target) (FL.witnesses fed ~holder:("G", "H")) with
    | Some w -> w
    | None -> Alcotest.failf "no witness for %s" (FL.node_str target)
  in
  let blind = wit ("G", "T") and carried = wit ("G", "S") in
  checkb "unstarred hop is blind" false blind.FL.w_carried;
  checkb "starred hop carries" true carried.FL.w_carried;
  checkb "blind chain raises OASIS006" true (List.mem "OASIS006" (FL.witness_codes blind));
  checkb "carried chain does not" false (List.mem "OASIS006" (FL.witness_codes carried));
  (* elector obligations count as colluders *)
  let fed2 = FL.make [ member "E" "Boss(c) <-\nH(u) <-\nT(u) <- H(u)* <| Boss(c)\n" ] in
  let w =
    match
      List.find_opt (fun w -> w.FL.w_target = ("E", "T")) (FL.witnesses fed2 ~holder:("E", "H"))
    with
    | Some w -> w
    | None -> Alcotest.fail "no witness through the election"
  in
  checkb "holder plus elector" true (w.FL.w_colluders = 2);
  checkb "within threshold 2" true
    (List.mem "OASIS007" (FL.witness_codes ~collusion_threshold:2 w));
  checkb "beyond threshold 1" false (List.mem "OASIS007" (FL.witness_codes w));
  (match w.FL.w_hops with
  | [ h ] -> checkb "elector obligation recorded" true (h.FL.h_elector <> None)
  | hops -> Alcotest.failf "expected one hop, got %d" (List.length hops))

let test_prover_soundness_generated () =
  (* property: symbolic can_reach is never looser than the boolean bound,
     over randomly generated federations *)
  let rng = Random.State.make [| 0xE5CA; 7 |] in
  let constrs = [ ""; ""; " : u = \"a\""; " : u <> \"a\""; " : u = \"b\"" ] in
  for case = 1 to 30 do
    let nsvc = 2 + Random.State.int rng 2 in
    let nrole = 3 + Random.State.int rng 2 in
    let members =
      List.init nsvc (fun i ->
          let buf = Buffer.create 128 in
          for j = 0 to nrole - 1 do
            if Random.State.int rng 4 = 0 then Buffer.add_string buf (Printf.sprintf "R%d(u) <-\n" j)
            else begin
              let si = Random.State.int rng nsvc and sj = Random.State.int rng nrole in
              let star = if Random.State.bool rng then "*" else "" in
              let c = List.nth constrs (Random.State.int rng (List.length constrs)) in
              let prefix = if si = i then "" else Printf.sprintf "S%d." si in
              Buffer.add_string buf
                (Printf.sprintf "R%d(u) <- %sR%d(u)%s%s\n" j prefix sj star c)
            end
          done;
          member (Printf.sprintf "S%d" i) (Buffer.contents buf))
    in
    let fed = FL.make members in
    let nodes =
      List.concat_map (fun i -> List.init nrole (fun j -> (Printf.sprintf "S%d" i, Printf.sprintf "R%d" j)))
        (List.init nsvc Fun.id)
    in
    List.iter
      (fun holder ->
        List.iter
          (fun target ->
            if FL.can_reach fed ~holder ~target && not (FL.boolean_can_reach fed ~holder ~target)
            then
              Alcotest.failf "case %d: symbolic looser than boolean for %s -> %s" case
                (FL.node_str holder) (FL.node_str target))
          nodes;
        (* and every escalation target carries a witness chain ending at it *)
        List.iter
          (fun w ->
            match List.rev w.FL.w_hops with
            | last :: _ -> checkb "chain ends at target" true (last.FL.h_node = w.FL.w_target)
            | [] -> Alcotest.fail "empty witness chain")
          (FL.escalation_witnesses fed ~holder))
      nodes
  done

(* --- Service.create gating on the federation-wide codes --- *)

let test_service_gating_federation () =
  let mentions code e =
    let n = String.length code in
    let rec go i = i + n <= String.length e && (String.sub e i n = code || go (i + 1)) in
    go 0
  in
  let _, net, reg = make_world () in
  (match Service.create net (Net.add_host net "hA") reg ~name:"A" ~rolefile:"Base(u) <-\n" () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "A should register: %s" e);
  (* a joining service referencing a role A lacks: OASIS003 gates at `Warn *)
  (match
     Service.create net (Net.add_host net "hB") reg ~name:"B" ~rolefile:"In(u) <- A.Nope(u)\n" ()
   with
  | Error e -> checkb "names OASIS003" true (mentions "OASIS003" e)
  | Ok _ -> Alcotest.fail "federation error should gate registration");
  (* the same reference to an unregistered service is outside the
     federation: no error, registration proceeds *)
  (match
     Service.create net (Net.add_host net "hC") reg ~name:"C" ~rolefile:"In(u) <- Zed.Nope(u)\n" ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "external reference should not gate: %s" e);
  (* escalation diagnostics stay warnings: logged, not fatal, at `Warn *)
  match
    Service.create net (Net.add_host net "hD") reg ~name:"D"
      ~rolefile:"Locked(u) <- Zed.Key(u)*\nPrize(u) <- Locked(u)\n" ()
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "OASIS006 is a warning and should not gate: %s" e

let () =
  Alcotest.run "analyze"
    [
      ( "per-file",
        [
          Alcotest.test_case "RDL000 parse errors" `Quick test_rdl000;
          Alcotest.test_case "RDL001 unbound" `Quick test_rdl001_unbound;
          Alcotest.test_case "RDL001 negatives" `Quick test_rdl001_negative;
          Alcotest.test_case "RDL001 unbindable chain" `Quick test_rdl001_unbindable_chain;
          Alcotest.test_case "RDL002 unused binder" `Quick test_rdl002;
          Alcotest.test_case "RDL003 rebind" `Quick test_rdl003;
          Alcotest.test_case "RDL004 duplicates" `Quick test_rdl004;
          Alcotest.test_case "RDL005 arity" `Quick test_rdl005;
          Alcotest.test_case "RDL006 types" `Quick test_rdl006;
          Alcotest.test_case "RDL007 unknown function" `Quick test_rdl007;
          Alcotest.test_case "RDL008 unknown group" `Quick test_rdl008;
          Alcotest.test_case "RDL009 unused import" `Quick test_rdl009;
          Alcotest.test_case "RDL010 missing import" `Quick test_rdl010;
          Alcotest.test_case "RDL011 unsatisfiable" `Quick test_rdl011;
          Alcotest.test_case "satisfiability engine" `Quick test_sat_direct;
          Alcotest.test_case "item lines" `Quick test_item_lines;
          Alcotest.test_case "located inference errors" `Quick test_infer_located_line;
          Alcotest.test_case "RDL012 subsumed statements" `Quick test_rdl012;
          Alcotest.test_case "diagnostic lines known" `Quick test_diag_lines_known;
        ] );
      ( "federation",
        [
          Alcotest.test_case "deadlock cycle" `Quick test_federation_deadlock;
          Alcotest.test_case "bootstrapped cycle ok" `Quick test_federation_bootstrapped_cycle;
          Alcotest.test_case "deadlock pair" `Quick test_federation_unreachable;
          Alcotest.test_case "unsat entry unreachable" `Quick test_federation_unreachable_constraint;
          Alcotest.test_case "unknown peer role" `Quick test_federation_unknown_role;
          Alcotest.test_case "revocation gaps" `Quick test_federation_revocation_gaps;
          Alcotest.test_case "per-file toggle" `Quick test_federation_per_file;
          Alcotest.test_case "cross-service signatures" `Quick test_federation_external_sig;
          Alcotest.test_case "escalation queries" `Quick test_escalation;
          Alcotest.test_case "symbolic tightening" `Quick test_prover_tightening;
          Alcotest.test_case "witness structure" `Quick test_witness_structure;
          Alcotest.test_case "soundness on generated federations" `Quick
            test_prover_soundness_generated;
        ] );
      ( "service-gating",
        [
          Alcotest.test_case "errors gate" `Quick test_service_gating_errors;
          Alcotest.test_case "warnings gate only strictly" `Quick test_service_gating_warnings;
          Alcotest.test_case "function universe" `Quick test_service_gating_funcs;
          Alcotest.test_case "registry enumeration" `Quick test_registry_services;
          Alcotest.test_case "federation-wide gating" `Quick test_service_gating_federation;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "compare_rel total" `Quick test_compare_rel_total;
          Alcotest.test_case "composite relops total" `Quick test_composite_relops_total;
          Alcotest.test_case "idl set types" `Quick test_idl_set_type;
          Alcotest.test_case "constr_vars accumulator" `Quick test_constr_vars_deep;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "on-disk examples" `Quick test_roundtrip_examples;
          Alcotest.test_case "generated rolefiles" `Quick test_roundtrip_generated;
        ] );
    ]
