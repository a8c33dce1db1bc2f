(* Tests for the RDL language: values, types, lexer, parser, pretty printer
   round trips, type inference and constraint evaluation — including every
   rolefile example from chapter 3 of the paper. *)

module Value = Oasis_rdl.Value
module Ty = Oasis_rdl.Ty
module Ast = Oasis_rdl.Ast
module Lexer = Oasis_rdl.Lexer
module Parser = Oasis_rdl.Parser
module Pretty = Oasis_rdl.Pretty
module Infer = Oasis_rdl.Infer
module Eval = Oasis_rdl.Eval

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let parse_ok src =
  match Parser.parse_result src with
  | Ok rf -> rf
  | Error e -> Alcotest.failf "parse failed: %s" e

(* --- values --- *)

let test_value_set_normalisation () =
  checkb "sorted dedup" true (Value.equal (Value.set_of_chars "rrwx") (Value.set_of_chars "xwr"))

let test_value_set_ops () =
  let a = Value.set_of_chars "rw" and b = Value.set_of_chars "wx" in
  checkb "subset yes" true (Value.set_subset (Value.set_of_chars "r") a);
  checkb "subset no" false (Value.set_subset a b);
  checkb "union" true (Value.equal (Value.set_union a b) (Value.set_of_chars "rwx"));
  checkb "inter" true (Value.equal (Value.set_inter a b) (Value.set_of_chars "w"));
  checkb "diff" true (Value.equal (Value.set_diff a b) (Value.set_of_chars "r"));
  checkb "mem" true (Value.set_mem 'r' a);
  checkb "not mem" false (Value.set_mem 'x' a)

let test_value_obj_equality () =
  checkb "same" true (Value.equal (Value.Obj ("doc", "x1")) (Value.Obj ("doc", "x1")));
  checkb "different id" false (Value.equal (Value.Obj ("doc", "x1")) (Value.Obj ("doc", "x2")));
  checkb "different type" false (Value.equal (Value.Obj ("doc", "x1")) (Value.Obj ("file", "x1")))

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Value.Int n) small_signed_int;
        map (fun s -> Value.Str s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 10));
        map (fun s -> Value.set_of_chars s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 6));
        map2 (fun t i -> Value.Obj (t, i))
          (string_size ~gen:(char_range 'a' 'z') (int_range 1 6))
          (string_size ~gen:(char_range 'a' 'z') (int_range 0 8));
      ])

let value_arb = QCheck.make ~print:Value.to_string value_gen

let prop_value_marshal_roundtrip =
  QCheck.Test.make ~name:"value marshal roundtrip" ~count:500 value_arb (fun v ->
      match Value.unmarshal (Value.marshal v) with
      | Some v' -> Value.equal v v'
      | None -> false)

(* Unmarshalling reads bytes off the wire and off the broker's retained
   log, so it answers [None], and never raises, on bytes it cannot read. *)
let test_value_unmarshal_negative_length () =
  checkb "negative object type length" true (Value.unmarshal "O-1:x" = None);
  checkb "type longer than the rest" true (Value.unmarshal "O5:ab" = None);
  checkb "object round trip" true (Value.unmarshal "O3:docx1" = Some (Value.Obj ("doc", "x1")))

let never_raises s = match Value.unmarshal s with _ -> true | exception _ -> false

let prop_value_unmarshal_total =
  QCheck.Test.make ~name:"unmarshal total on arbitrary strings" ~count:1000
    QCheck.(pair (oneofl [ ""; "I"; "S"; "E"; "O" ]) string)
    (fun (tag, s) -> never_raises (tag ^ s))

let prop_value_unmarshal_total_obj =
  QCheck.Test.make ~name:"unmarshal total on object headers" ~count:1000
    QCheck.(triple (oneofl [ "O"; "I" ]) int string)
    (fun (tag, n, s) -> never_raises (tag ^ string_of_int n ^ ":" ^ s))

let prop_value_compare_consistent =
  QCheck.Test.make ~name:"compare consistent with equal" ~count:500
    (QCheck.pair value_arb value_arb)
    (fun (a, b) -> Value.equal a b = (Value.compare a b = 0))

(* --- types --- *)

let test_ty_unify_basic () =
  checkb "int/int" true (Ty.unify Ty.Int Ty.Int = Ok ());
  checkb "int/str fails" true (Result.is_error (Ty.unify Ty.Int Ty.Str));
  checkb "set alphabets equal" true (Ty.unify (Ty.Set "rw") (Ty.Set "rw") = Ok ());
  checkb "set alphabets differ" true (Result.is_error (Ty.unify (Ty.Set "rw") (Ty.Set "rx")))

let test_ty_unify_vars () =
  let v = Ty.var 1 in
  checkb "var binds" true (Ty.unify v Ty.Int = Ok ());
  checkb "bound var ground" true (Ty.is_ground v);
  checkb "transitively int" true (Ty.equal v Ty.Int)

let test_ty_unify_var_chain () =
  let a = Ty.var 1 and b = Ty.var 2 in
  checkb "var/var" true (Ty.unify a b = Ok ());
  checkb "chain binds both" true (Ty.unify a (Ty.Obj "userid") = Ok ());
  checkb "b resolved" true (Ty.equal b (Ty.Obj "userid"))

let test_ty_compatible_value () =
  checkb "set literal within alphabet" true
    (Ty.compatible_value (Ty.Set "aef") (Value.set_of_chars "ae"));
  checkb "set literal outside alphabet" false
    (Ty.compatible_value (Ty.Set "aef") (Value.set_of_chars "az"));
  checkb "obj type" true (Ty.compatible_value (Ty.Obj "doc") (Value.Obj ("doc", "1")));
  checkb "wrong obj type" false (Ty.compatible_value (Ty.Obj "doc") (Value.Obj ("x", "1")))

(* --- lexer --- *)

let test_lexer_tokens () =
  let toks = List.map fst (Lexer.tokenize {|Member(u) <- Login.LoggedOn(u, h)* <|* Chair : (u in staff)*|}) in
  checkb "has elect" true (List.mem Lexer.ELECT toks);
  checkb "has arrow" true (List.mem Lexer.ARROW toks);
  checkb "has star" true (List.mem Lexer.STAR toks);
  checkb "has in" true (List.mem Lexer.KW_IN toks)

let test_lexer_comments () =
  let toks = List.map fst (Lexer.tokenize "# comment line\nFoo <- Bar -- trailing\n") in
  (* Foo, <-, Bar, EOF: both comment styles stripped. *)
  checki "only four tokens" 4 (List.length toks)

let test_lexer_string_escapes () =
  match Lexer.tokenize {|"a\"b"|} with
  | (Lexer.STRING s, _) :: _ -> checks "escape" {|a"b|} s
  | _ -> Alcotest.fail "expected string token"

let test_lexer_errors () =
  checkb "unterminated string" true
    (match Lexer.tokenize "\"abc" with
    | exception Lexer.Lex_error _ -> true
    | _ -> false);
  checkb "stray pipe" true
    (match Lexer.tokenize "a | b" with exception Lexer.Lex_error _ -> true | _ -> false)

(* --- parser: chapter 3 examples --- *)

let conference = {|
Chair <- Login.LoggedOn("jmb", h)
Member(u) <- Login.LoggedOn(u, h)* <|* Chair : (u in staff)*
|}

let high_score = {|
def Write()
Write <- Loader.Running("game")
Read <- Login.LoggedOn(u, h)
|}

let open_meeting = {|
Chair <- Login.LoggedOn("jmb", h)
Member <- Login.LoggedOn(u, h) : u in staff
Member <- <|* Member
Candidate(u) <- Login.LoggedOn(u, h) : u in staff
Member2(u) <- Candidate(u) |>* Chair
|}

let login_service = {|
def Login(l, u) l: Integer
Login(3, u) <- Pw.Passwd(u, "Login") : h in secure
Login(2, u) <- Pw.Passwd(u, "Login") : h in hosts
Login(1, u) <- Pw.Passwd(u, "Login")
Login(0, u) <-
|}

let shared_authorship = {|
Author <- Login.LoggedOn(u) : u = creator("DOC")
Editor <- Login.LoggedOn("MrEd")
def Rights(r) r: {aef}
Rights({ae}) <- Author
Rights({af}) <- Editor
Rights({a}) <- Author
Rights({a}) <- Editor
|}

let golf_club = {|
def Candidate(p) p: String
def Member(p) p: String
Candidate(p) <- <| Member(q) : p <> q
Member(p) <- Candidate(p)* /\ Candidate(p)* <| Member(q) : p <> q
|}

let test_parse_conference () =
  let rf = parse_ok conference in
  checki "two entries" 2 (List.length (Ast.entries rf));
  let member = List.nth (Ast.entries rf) 1 in
  checkb "elector present" true (member.Ast.elector <> None);
  checkb "elect starred" true member.Ast.elect_starred;
  (match member.Ast.creds with
  | [ c ] ->
      checkb "starred cred" true c.Ast.starred;
      checkb "external service" true (c.Ast.sref.Ast.service = Some "Login")
  | _ -> Alcotest.fail "expected one credential");
  match member.Ast.constr with
  | Some (Ast.Cstar (Ast.Cin (Ast.Evar "u", "staff"))) -> ()
  | _ -> Alcotest.fail "expected starred group constraint"

let test_parse_high_score () = ignore (parse_ok high_score)

let test_parse_open_meeting () =
  let rf = parse_ok open_meeting in
  let entries = Ast.entries rf in
  checki "five entries" 5 (List.length entries);
  let rbr = List.nth entries 4 in
  checkb "revoker parsed" true (rbr.Ast.revoker <> None);
  match rbr.Ast.revoker with
  | Some r -> checks "revoker role" "Chair" r.Ast.role
  | None -> ()

let test_parse_login_levels () =
  let rf = parse_ok login_service in
  let entries = Ast.entries rf in
  checki "four rules" 4 (List.length entries);
  let visitor = List.nth entries 3 in
  checkb "empty credentials allowed" true (visitor.Ast.creds = []);
  match (List.nth entries 0).Ast.head with
  | _, [ Ast.Alit (Value.Int 3); Ast.Avar "u" ] -> ()
  | _ -> Alcotest.fail "literal head argument expected"

let test_parse_shared_authorship () =
  let rf = parse_ok shared_authorship in
  let entries = Ast.entries rf in
  checki "entries" 6 (List.length entries);
  (* Set literal argument checked against declared alphabet. *)
  match (List.nth entries 2).Ast.head with
  | "Rights", [ Ast.Alit (Value.Set "ae") ] -> ()
  | _ -> Alcotest.fail "set literal head expected"

let test_parse_golf_club () =
  let rf = parse_ok golf_club in
  let entries = Ast.entries rf in
  let member = List.nth entries 1 in
  checki "quorum needs two candidate creds" 2 (List.length member.Ast.creds);
  checkb "both starred" true (List.for_all (fun c -> c.Ast.starred) member.Ast.creds)

let test_parse_imports_and_rolefile_refs () =
  let rf = parse_ok {|
import Login.userid
def Member(u) u: userid
Member(u) <- Svc[rf42].Role(u)
|} in
  checkb "import recorded" true (Ast.imports rf = [ ("Login", "userid") ]);
  match Ast.entries rf with
  | [ { Ast.creds = [ c ]; _ } ] ->
      checkb "service and rolefile" true
        (c.Ast.sref = { Ast.service = Some "Svc"; rolefile = Some "rf42" })
  | _ -> Alcotest.fail "single entry expected"

let test_parse_object_literal () =
  let rf = parse_ok {|Author <- Login.LoggedOn(u) : u <- creator(@fileid"DOC")|} in
  match Ast.entries rf with
  | [ { Ast.constr = Some (Ast.Cbind ("u", Ast.Ecall ("creator", [ Ast.Elit (Value.Obj ("fileid", "DOC")) ]))); _ } ] -> ()
  | _ -> Alcotest.fail "object literal in call expected"

let test_parse_resolve_literal_table () =
  let resolve = function "DOC" -> Some (Value.Obj ("fileid", "doc-17")) | _ -> None in
  let rf =
    match Parser.parse_result ~resolve_literal:resolve {|Author <- L.On(u) : u = creator(DOC)|} with
    | Ok rf -> rf
    | Error e -> Alcotest.failf "parse: %s" e
  in
  match Ast.entries rf with
  | [ { Ast.constr = Some (Ast.Crel (Ast.Eq, _, Ast.Ecall ("creator", [ Ast.Elit (Value.Obj ("fileid", "doc-17")) ]))); _ } ] -> ()
  | _ -> Alcotest.fail "resolved literal expected"

let test_parse_acl_expression () =
  let rf = parse_ok {|UseFile(r) <- LoggedOn(u) /\ Helper(u) : r = unixacl("rjh21=rwx staff=rx other=r", u)
Helper(u) <- |} in
  checki "entries" 2 (List.length (Ast.entries rf))

let test_parse_errors () =
  let bad = [ "Foo <- : "; "def 42()"; "Foo(x <- Bar"; "import Login"; "Foo <- Bar : x" ] in
  List.iter
    (fun src ->
      match Parser.parse_result src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error for %S" src)
    bad

let test_parse_constraint_precedence () =
  let rf = parse_ok {|R <- A : x = 1 and y = 2 or z = 3
A <- |} in
  match Ast.entries rf with
  | { Ast.constr = Some (Ast.Cor (Ast.Cand (_, _), _)); _ } :: _ -> ()
  | _ -> Alcotest.fail "and binds tighter than or"

let test_parse_not_and_subset () =
  let rf = parse_ok {|R <- A : not (u in staff) and r subset {rwx}
A <- |} in
  match Ast.entries rf with
  | { Ast.constr = Some (Ast.Cand (Ast.Cnot (Ast.Cin _), Ast.Csubset _)); _ } :: _ -> ()
  | _ -> Alcotest.fail "not/subset structure"

(* --- pretty round trip --- *)

let roundtrip_sources =
  [ conference; open_meeting; login_service; shared_authorship; golf_club; high_score ]

let test_pretty_roundtrip () =
  List.iter
    (fun src ->
      let rf = parse_ok src in
      let printed = Pretty.to_string rf in
      let rf2 = parse_ok printed in
      (* Line annotations are positional, not syntax: strip before comparing. *)
      if Ast.strip_lines rf <> Ast.strip_lines rf2 then
        Alcotest.failf "round trip failed for:\n%s\nprinted as:\n%s" src printed)
    roundtrip_sources

let test_pretty_stable () =
  (* pp ∘ parse ∘ pp = pp *)
  List.iter
    (fun src ->
      let p1 = Pretty.to_string (parse_ok src) in
      let p2 = Pretty.to_string (parse_ok p1) in
      checks "fixpoint" p1 p2)
    roundtrip_sources

(* --- inference --- *)

let infer_ok ?callbacks src =
  match Infer.infer ?callbacks (parse_ok src) with
  | Ok r -> r
  | Error e -> Alcotest.failf "infer failed: %s" e

let test_infer_simple () =
  let r = infer_ok {|
def LoggedOn(u, h) u: String h: String
LoggedOn(u, h) <-
Chair <- LoggedOn("jmb", h)
Member(u) <- LoggedOn(u, h)
|} in
  (match Infer.signature r "Member" with
  | Some [ ty ] -> checkb "Member(u): String inferred" true (Ty.equal ty Ty.Str)
  | _ -> Alcotest.fail "Member signature");
  checki "nothing unresolved" 0 (List.length r.Infer.unresolved)

let test_infer_through_literals () =
  let r = infer_ok {|
Login(3, u) <- Passwd(u)
Passwd(u) <-
|} in
  match Infer.signature r "Login" with
  | Some [ t1; _t2 ] -> checkb "first param Integer" true (Ty.equal t1 Ty.Int)
  | _ -> Alcotest.fail "Login signature"

let test_infer_set_literals_against_def () =
  let r = infer_ok shared_authorship in
  match Infer.signature r "Rights" with
  | Some [ ty ] -> checkb "declared set type kept" true (Ty.equal ty (Ty.Set "aef"))
  | _ -> Alcotest.fail "Rights signature"

let test_infer_type_conflict () =
  match Infer.infer (parse_ok {|
def Foo(x) x: Integer
Foo("hello") <- Bar
Bar <-
|}) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected type conflict"

let test_infer_arity_conflict () =
  match Infer.infer (parse_ok {|
Foo(a) <- Bar
Foo(a, b) <- Bar
Bar <-
|}) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected arity error"

let test_infer_undefined_local_role () =
  match Infer.infer (parse_ok {|Foo <- Mystery|}) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected undefined-role error"

let test_infer_unresolved_reported () =
  let r = infer_ok {|Foo(x) <- Ext.Thing(x)|} in
  checkb "x unresolved" true (List.mem ("Foo", 0) r.Infer.unresolved)

(* Type variables are named per rolefile, so a signature prints the same
   however many rolefiles the process inferred before it. *)
let test_infer_names_repeat () =
  let printed () =
    let r = infer_ok "R(x) <-\nS(y) <-" in
    String.concat "; "
      (List.map
         (fun role ->
           let tys = Option.get (Infer.signature r role) in
           role ^ "(" ^ String.concat ", " (List.map Ty.to_string tys) ^ ")")
         [ "R"; "S" ])
  in
  let first = printed () in
  Alcotest.(check string) "same names the second time" first (printed ())

let test_infer_external_callback () =
  let callbacks =
    {
      Infer.no_callbacks with
      Infer.external_sig =
        (fun ~service ~role ->
          if service = "Login" && role = "LoggedOn" then Some [ Ty.Str; Ty.Str ] else None);
    }
  in
  let r = infer_ok ~callbacks {|Member(u) <- Login.LoggedOn(u, h)|} in
  match Infer.signature r "Member" with
  | Some [ ty ] -> checkb "propagated from external" true (Ty.equal ty Ty.Str)
  | _ -> Alcotest.fail "Member signature"

let test_infer_group_callback () =
  let callbacks =
    { Infer.no_callbacks with Infer.group_element = (fun g -> if g = "staff" then Some Ty.Str else None) }
  in
  let r = infer_ok ~callbacks {|Member(u) <- Cand(u) : u in staff
Cand(u) <- |} in
  match Infer.signature r "Cand" with
  | Some [ ty ] -> checkb "from group element type" true (Ty.equal ty Ty.Str)
  | _ -> Alcotest.fail "Cand signature"

(* --- constraint evaluation --- *)

let ctx_with ?(groups = []) ?(funcs = []) () =
  {
    Eval.lookup_group =
      (fun g v -> List.exists (fun (g', v') -> g = g' && Value.equal v v') groups);
    call =
      (fun f args ->
        match List.assoc_opt f funcs with
        | Some fn -> fn args
        | None -> Error ("no function " ^ f));
  }

let eval_ok ctx env c =
  match Eval.eval ctx env c with
  | Ok r -> r
  | Error e -> Alcotest.failf "eval failed: %s" e

let constr_of src =
  (* Parse "R <- A : <constr>" and extract the constraint. *)
  match Ast.entries (parse_ok ("R <- A : " ^ src ^ "\nA <- ")) with
  | { Ast.constr = Some c; _ } :: _ -> c
  | _ -> Alcotest.fail "no constraint parsed"

let test_eval_relops () =
  let ctx = ctx_with () in
  let t, _, _ = eval_ok ctx [ ("x", Value.Int 5) ] (constr_of "x > 3") in
  checkb "5 > 3" true t;
  let t, _, _ = eval_ok ctx [ ("x", Value.Int 5) ] (constr_of "x <= 4") in
  checkb "5 <= 4" false t

let test_eval_binding_by_equality () =
  let ctx = ctx_with ~funcs:[ ("f", fun _ -> Ok (Value.Int 9)) ] () in
  let t, env, _ = eval_ok ctx [] (constr_of "r = f() and r > 8") in
  checkb "bound and used" true t;
  checkb "r bound" true (List.assoc_opt "r" env = Some (Value.Int 9))

let test_eval_bind_form () =
  let ctx = ctx_with ~funcs:[ ("creator", fun _ -> Ok (Value.Str "rjh21")) ] () in
  let t, env, _ = eval_ok ctx [] (constr_of {|u <- creator(@fileid"D")|}) in
  checkb "true" true t;
  checkb "u bound" true (List.assoc_opt "u" env = Some (Value.Str "rjh21"))

let test_eval_bind_tests_when_bound () =
  let ctx = ctx_with ~funcs:[ ("f", fun _ -> Ok (Value.Int 1)) ] () in
  let t, _, _ = eval_ok ctx [ ("x", Value.Int 2) ] (constr_of "x <- f()") in
  checkb "mismatch fails" false t

let test_eval_group_membership () =
  let ctx = ctx_with ~groups:[ ("staff", Value.Str "dm") ] () in
  let t, _, _ = eval_ok ctx [ ("u", Value.Str "dm") ] (constr_of "u in staff") in
  checkb "member" true t;
  let t, _, _ = eval_ok ctx [ ("u", Value.Str "zz") ] (constr_of "u in staff") in
  checkb "not member" false t

let test_eval_or_backtracks_bindings () =
  let ctx = ctx_with ~funcs:[ ("f", fun _ -> Ok (Value.Int 1)) ] () in
  (* Left branch binds r then fails; right branch must not see the binding. *)
  let t, env, _ = eval_ok ctx [] (constr_of "(r = f() and r > 5) or r = f()") in
  checkb "true via right" true t;
  checkb "binding from right branch" true (List.assoc_opt "r" env = Some (Value.Int 1))

let test_eval_not_discards_bindings () =
  let ctx = ctx_with ~funcs:[ ("f", fun _ -> Ok (Value.Int 1)) ] () in
  let t, env, _ = eval_ok ctx [] (constr_of "not (r = f() and r > 5)") in
  checkb "negation true" true t;
  checkb "no leak" true (List.assoc_opt "r" env = None)

let test_eval_star_captures_mrule () =
  let ctx = ctx_with ~groups:[ ("staff", Value.Str "dm") ] () in
  let t, _, rules = eval_ok ctx [ ("u", Value.Str "dm") ] (constr_of "(u in staff)*") in
  checkb "true" true t;
  checki "one rule" 1 (List.length rules);
  match rules with
  | [ { Eval.residual = Ast.Cin (Ast.Evar "u", "staff"); bindings } ] ->
      checkb "bindings captured" true (List.assoc_opt "u" bindings = Some (Value.Str "dm"))
  | _ -> Alcotest.fail "rule shape"

let test_eval_star_under_not_polarity () =
  let ctx = ctx_with ~groups:[] () in
  let t, _, rules = eval_ok ctx [ ("u", Value.Str "dm") ] (constr_of "not (u in banned)*") in
  checkb "true (not banned)" true t;
  match rules with
  | [ { Eval.residual = Ast.Cnot (Ast.Cin _); _ } ] -> ()
  | _ -> Alcotest.fail "polarity-adjusted residual expected"

let test_eval_subset () =
  let ctx = ctx_with () in
  let t, _, _ =
    eval_ok ctx [ ("r", Value.set_of_chars "ae") ] (constr_of "r subset {aef}")
  in
  checkb "subset" true t;
  let t, _, _ =
    eval_ok ctx [ ("r", Value.set_of_chars "az") ] (constr_of "r subset {aef}")
  in
  checkb "not subset" false t

let test_eval_unbound_var_errors () =
  let ctx = ctx_with () in
  checkb "unbound errors" true (Result.is_error (Eval.eval ctx [] (constr_of "x > 3")))

let test_eval_groups_mentioned () =
  let c = constr_of "(u in staff)* and (u in opera)*" in
  let gs = Eval.groups_mentioned c [ ("u", Value.Str "dm") ] in
  Alcotest.(check (list (pair string (testable Value.pp Value.equal))))
    "both groups"
    [ ("staff", Value.Str "dm"); ("opera", Value.Str "dm") ]
    gs

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "rdl"
    [
      ( "value",
        [
          Alcotest.test_case "set normalisation" `Quick test_value_set_normalisation;
          Alcotest.test_case "set ops" `Quick test_value_set_ops;
          Alcotest.test_case "obj equality" `Quick test_value_obj_equality;
          qt prop_value_marshal_roundtrip;
          Alcotest.test_case "unmarshal refuses a negative length" `Quick
            test_value_unmarshal_negative_length;
          qt prop_value_unmarshal_total;
          qt prop_value_unmarshal_total_obj;
          qt prop_value_compare_consistent;
        ] );
      ( "types",
        [
          Alcotest.test_case "unify basic" `Quick test_ty_unify_basic;
          Alcotest.test_case "unify vars" `Quick test_ty_unify_vars;
          Alcotest.test_case "var chain" `Quick test_ty_unify_var_chain;
          Alcotest.test_case "compatible values" `Quick test_ty_compatible_value;
        ] );
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "string escapes" `Quick test_lexer_string_escapes;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "conference (fig 3.1)" `Quick test_parse_conference;
          Alcotest.test_case "high score (3.4.1)" `Quick test_parse_high_score;
          Alcotest.test_case "open meeting (3.4.2)" `Quick test_parse_open_meeting;
          Alcotest.test_case "login levels (3.4.3)" `Quick test_parse_login_levels;
          Alcotest.test_case "shared authorship (3.4.4)" `Quick test_parse_shared_authorship;
          Alcotest.test_case "golf club quorum (3.4.5)" `Quick test_parse_golf_club;
          Alcotest.test_case "imports and rolefile refs" `Quick test_parse_imports_and_rolefile_refs;
          Alcotest.test_case "object literal" `Quick test_parse_object_literal;
          Alcotest.test_case "literal resolver table" `Quick test_parse_resolve_literal_table;
          Alcotest.test_case "acl expression (3.3.3)" `Quick test_parse_acl_expression;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "constraint precedence" `Quick test_parse_constraint_precedence;
          Alcotest.test_case "not and subset" `Quick test_parse_not_and_subset;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "round trip" `Quick test_pretty_roundtrip;
          Alcotest.test_case "printing fixpoint" `Quick test_pretty_stable;
        ] );
      ( "infer",
        [
          Alcotest.test_case "simple" `Quick test_infer_simple;
          Alcotest.test_case "through literals" `Quick test_infer_through_literals;
          Alcotest.test_case "set literals vs def" `Quick test_infer_set_literals_against_def;
          Alcotest.test_case "type conflict" `Quick test_infer_type_conflict;
          Alcotest.test_case "arity conflict" `Quick test_infer_arity_conflict;
          Alcotest.test_case "undefined local role" `Quick test_infer_undefined_local_role;
          Alcotest.test_case "unresolved reported" `Quick test_infer_unresolved_reported;
          Alcotest.test_case "variable names repeat" `Quick test_infer_names_repeat;
          Alcotest.test_case "external callback" `Quick test_infer_external_callback;
          Alcotest.test_case "group callback" `Quick test_infer_group_callback;
        ] );
      ( "eval",
        [
          Alcotest.test_case "relops" `Quick test_eval_relops;
          Alcotest.test_case "binding by equality" `Quick test_eval_binding_by_equality;
          Alcotest.test_case "bind form" `Quick test_eval_bind_form;
          Alcotest.test_case "bind tests when bound" `Quick test_eval_bind_tests_when_bound;
          Alcotest.test_case "group membership" `Quick test_eval_group_membership;
          Alcotest.test_case "or backtracks bindings" `Quick test_eval_or_backtracks_bindings;
          Alcotest.test_case "not discards bindings" `Quick test_eval_not_discards_bindings;
          Alcotest.test_case "star captures mrule" `Quick test_eval_star_captures_mrule;
          Alcotest.test_case "star under not" `Quick test_eval_star_under_not_polarity;
          Alcotest.test_case "subset" `Quick test_eval_subset;
          Alcotest.test_case "unbound var errors" `Quick test_eval_unbound_var_errors;
          Alcotest.test_case "groups mentioned" `Quick test_eval_groups_mentioned;
        ] );
    ]
