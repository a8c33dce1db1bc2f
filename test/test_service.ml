(* Behavioural tests for the OASIS service: the role-entry engine, election
   and delegation, revocation (explicit, conditional, role-based),
   inter-service cascade via event notification, failure semantics and
   interworking (chapters 3 and 4). *)

module Service = Oasis_core.Service
module Cert = Oasis_core.Cert
module Group = Oasis_core.Group
module Principal = Oasis_core.Principal
module Interop = Oasis_core.Interop
module Engine = Oasis_sim.Engine
module Net = Oasis_sim.Net
module V = Oasis_rdl.Value

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

type world = {
  engine : Engine.t;
  net : Net.t;
  reg : Service.registry;
  client_host : Net.host;
  mutable hosts : int;
}

let make_world () =
  let engine = Engine.create () in
  let net = Net.create ~latency:(Net.Fixed 0.005) engine in
  let client_host = Net.add_host net "client" in
  { engine; net; reg = Service.create_registry (); client_host; hosts = 0 }

let add_service w ~name ~rolefile ?funcs ?fixpoint_entry ?compound_certificates () =
  w.hosts <- w.hosts + 1;
  let host = Net.add_host w.net (Printf.sprintf "h%d" w.hosts) in
  match
    Service.create w.net host w.reg ~name ~rolefile ?funcs ?fixpoint_entry ?compound_certificates
      ()
  with
  | Ok s -> s
  | Error e -> Alcotest.failf "service %s: %s" name e

let run w dt = Engine.run ~until:(Engine.now w.engine +. dt) w.engine

let fresh_vci =
  let host = Principal.Host.create "clienthost" in
  let domain = Principal.Host.boot_domain host in
  fun () -> Principal.Host.new_vci host domain

let entry w svc ~client ~role ?args ?creds ?delegation () =
  let result = ref None in
  Service.request_entry svc ~client_host:w.client_host ~client ~role ?args ?creds ?delegation
    (fun r -> result := Some r);
  run w 2.0;
  match !result with Some r -> r | None -> Alcotest.fail "entry did not complete"

let entry_ok w svc ~client ~role ?args ?creds ?delegation () =
  match entry w svc ~client ~role ?args ?creds ?delegation () with
  | Ok c -> c
  | Error e -> Alcotest.failf "entry to %s failed: %s" role e

let delegate w svc ~delegator ~using ~role ~required ?expires_in ?revoke_on_exit () =
  let result = ref None in
  Service.request_delegation svc ~client_host:w.client_host ~delegator ~using ~role ~required
    ?expires_in ?revoke_on_exit (fun r -> result := Some r);
  run w 2.0;
  match !result with
  | Some (Ok dr) -> dr
  | Some (Error e) -> Alcotest.failf "delegation failed: %s" e
  | None -> Alcotest.fail "delegation did not complete"

let login_rolefile = {|
def LoggedOn(u, h) u: String h: String
LoggedOn(u, h) <-
|}

(* A standard world: Login service + conference service. *)
let conference_world () =
  let w = make_world () in
  let login = add_service w ~name:"Login" ~rolefile:login_rolefile () in
  let conf =
    add_service w ~name:"Conf"
      ~rolefile:
        {|
Chair <- Login.LoggedOn("jmb", h)
Member(u) <- Login.LoggedOn(u, h)* <|* Chair : (u in staff)*
|}
      ()
  in
  (w, login, conf)

let logged_on login user host =
  let vci = fresh_vci () in
  (vci, Service.issue_arbitrary login ~client:vci ~roles:[ "LoggedOn" ] ~args:[ V.Str user; V.Str host ])

(* --- basic role entry --- *)

let test_entry_with_external_credential () =
  let w, login, conf = conference_world () in
  let jmb, jmb_cert = logged_on login "jmb" "ely" in
  let cert = entry_ok w conf ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  checkb "validates" true (Service.validate conf ~client:jmb ~need_role:"Chair" cert = Ok ())

let test_entry_denied_without_credential () =
  let w, _login, conf = conference_world () in
  let nobody = fresh_vci () in
  checkb "denied" true (Result.is_error (entry w conf ~client:nobody ~role:"Chair" ()))

(* §2.8: a certificate is bound to its holder's VCI, so a credential
   presented by another client is refused at entry as it is at
   validation, audited as fraud, and sends no validation RPC. *)
let check_entry_refuses_stolen w svc ~owner ~thief ~role cred =
  let rpcs () = Oasis_sim.Stats.count (Net.stats w.net) "oasis.validate.attempt" in
  let before = rpcs () in
  checkb "the thief is refused" true
    (Result.is_error (entry w svc ~client:thief ~role ~creds:[ cred ] ()));
  checki "no validation RPC sent" before (rpcs ());
  let detail =
    "certificate of " ^ Principal.vci_to_string owner ^ " presented by "
    ^ Principal.vci_to_string thief
  in
  checkb "fraud audited" true
    (List.exists
       (fun e -> e.Service.kind = Service.Fraud && e.Service.detail = detail)
       (Service.audit_log svc))

let test_entry_refuses_external_credential_of_another_client () =
  let w, login, conf = conference_world () in
  let jmb, jmb_cert = logged_on login "jmb" "ely" in
  check_entry_refuses_stolen w conf ~owner:jmb ~thief:(fresh_vci ()) ~role:"Chair" jmb_cert;
  ignore (entry_ok w conf ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] ())

let test_entry_refuses_local_credential_of_another_client () =
  let w = make_world () in
  let svc =
    add_service w ~name:"S" ~rolefile:{|
def Base(u) u: String
Base(u) <-
Top(u) <- Base(u)
|} ()
  in
  let owner = fresh_vci () in
  let base = Service.issue_arbitrary svc ~client:owner ~roles:[ "Base" ] ~args:[ V.Str "owner" ] in
  check_entry_refuses_stolen w svc ~owner ~thief:(fresh_vci ()) ~role:"Top" base;
  ignore (entry_ok w svc ~client:owner ~role:"Top" ~creds:[ base ] ())

let test_entry_literal_argument_discriminates () =
  let w, login, conf = conference_world () in
  let dm, dm_cert = logged_on login "dm" "ely" in
  (* dm is not jmb: cannot become Chair. *)
  checkb "dm refused Chair" true
    (Result.is_error (entry w conf ~client:dm ~role:"Chair" ~creds:[ dm_cert ] ()))

let test_entry_first_matching_rule_wins () =
  (* §3.4.3: Login levels — the first rule whose constraint holds is used. *)
  let w = make_world () in
  let pw = add_service w ~name:"Pw" ~rolefile:{|
def Passwd(u, k) u: String k: String
Passwd(u, k) <-
|} () in
  let login =
    add_service w ~name:"LoginSvc"
      ~rolefile:
        {|
def Login(l, u) l: Integer u: String
Login(3, u) <- Pw.Passwd(u, "Login") : u in secure
Login(2, u) <- Pw.Passwd(u, "Login") : u in hosts
Login(1, u) <- Pw.Passwd(u, "Login")
|}
      ()
  in
  Group.add (Service.group login "hosts") (V.Str "dm");
  let dm = fresh_vci () in
  let pwc = Service.issue_arbitrary pw ~client:dm ~roles:[ "Passwd" ] ~args:[ V.Str "dm"; V.Str "Login" ] in
  let cert = entry_ok w login ~client:dm ~role:"Login" ~creds:[ pwc ] () in
  (* dm is in hosts but not secure: level 2, not 3 or 1. *)
  checkb "level 2" true (List.hd cert.Cert.args = V.Int 2)

let test_entry_intermediate_roles_automatic () =
  (* §3.2.2: intermediate roles entered automatically; later statements can
     consume memberships produced by earlier ones (fig 3.2). *)
  let w = make_world () in
  let svc =
    add_service w ~name:"S"
      ~rolefile:{|
def Foo()
Foo <-
Bas(1) <- Foo
Bas(2) <- Foo
Bar(1) <- Bas(2)
Bar(2) <- Foo
|}
      ()
  in
  let c = fresh_vci () in
  let foo = Service.issue_arbitrary svc ~client:c ~roles:[ "Foo" ] ~args:[] in
  let cert = entry_ok w svc ~client:c ~role:"Bar" ~creds:[ foo ] () in
  (* fig 3.2: the list is Bas(1), Bas(2), Bar(1), Bar(2); first Bar is Bar(1). *)
  checkb "Bar(1) returned" true (cert.Cert.args = [ V.Int 1 ])

let test_entry_requested_args_select () =
  let w = make_world () in
  let svc = add_service w ~name:"S" ~rolefile:{|
def Foo()
Foo <-
Bar(1) <- Foo
Bar(2) <- Foo
|} () in
  let c = fresh_vci () in
  let foo = Service.issue_arbitrary svc ~client:c ~roles:[ "Foo" ] ~args:[] in
  let cert = entry_ok w svc ~client:c ~role:"Bar" ~args:[ V.Int 2 ] ~creds:[ foo ] () in
  checkb "explicit args honoured" true (cert.Cert.args = [ V.Int 2 ])

let test_entry_constraint_functions () =
  (* §3.4.4 shared authorship: creator() extension function. *)
  let w = make_world () in
  let svc =
    add_service w ~name:"Doc"
      ~funcs:[ ("creator", fun _ -> Ok (V.Str "rjh21")) ]
      ~rolefile:
        {|
import Login.userid
Author <- Login.LoggedOn(u, h) : u = creator(@fileid"DOC")
def Rights(r) r: {aef}
Rights({ae}) <- Author
|}
      ()
  in
  let login = add_service w ~name:"Login" ~rolefile:login_rolefile () in
  let rjh, rjh_cert = logged_on login "rjh21" "ely" in
  let dm, dm_cert = logged_on login "dm" "ely" in
  let rights = entry_ok w svc ~client:rjh ~role:"Rights" ~creds:[ rjh_cert ] () in
  checkb "author gets {ae}" true (rights.Cert.args = [ V.Set "ae" ]);
  checkb "non-creator refused" true
    (Result.is_error (entry w svc ~client:dm ~role:"Rights" ~creds:[ dm_cert ] ()))

let test_entry_compound_certificates () =
  let w = make_world () in
  let svc =
    add_service w ~name:"S" ~rolefile:{|
def Foo()
Foo <-
A <- Foo
B <- A
|} ()
  in
  let c = fresh_vci () in
  let foo = Service.issue_arbitrary svc ~client:c ~roles:[ "Foo" ] ~args:[] in
  let cert = entry_ok w svc ~client:c ~role:"B" ~creds:[ foo ] () in
  (* A and B both entered with identical (empty) args: compounded (§4.3). *)
  let bits = Service.role_bits svc in
  checkb "has A too" true (Cert.has_role ~role_bits:bits cert "A");
  checkb "has B" true (Cert.has_role ~role_bits:bits cert "B")

let test_entry_no_compound_when_disabled () =
  let w = make_world () in
  let svc =
    add_service w ~name:"S" ~compound_certificates:false
      ~rolefile:{|
def Foo()
Foo <-
A <- Foo
B <- A
|} ()
  in
  let c = fresh_vci () in
  let foo = Service.issue_arbitrary svc ~client:c ~roles:[ "Foo" ] ~args:[] in
  let cert = entry_ok w svc ~client:c ~role:"B" ~creds:[ foo ] () in
  checkb "only B" false (Cert.has_role ~role_bits:(Service.role_bits svc) cert "A")

let test_fixpoint_ablation () =
  (* A statement textually before its dependency only fires in fixpoint
     mode. *)
  let rolefile = {|
def Foo()
Foo <-
Bar <- Bas
Bas <- Foo
|} in
  let try_mode fixpoint =
    let w = make_world () in
    let svc = add_service w ~name:"S" ~fixpoint_entry:fixpoint ~rolefile () in
    let c = fresh_vci () in
    let foo = Service.issue_arbitrary svc ~client:c ~roles:[ "Foo" ] ~args:[] in
    Result.is_ok (entry w svc ~client:c ~role:"Bar" ~creds:[ foo ] ())
  in
  checkb "single pass misses forward dependency" false (try_mode false);
  checkb "fixpoint reaches it" true (try_mode true)

(* --- membership rules and revocation --- *)

let test_group_change_revokes () =
  let w, login, conf = conference_world () in
  Group.add (Service.group conf "staff") (V.Str "dm");
  let jmb, jmb_cert = logged_on login "jmb" "ely" in
  let chair = entry_ok w conf ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  let dm, dm_cert = logged_on login "dm" "ely" in
  let d, _r =
    delegate w conf ~delegator:jmb ~using:chair ~role:"Member"
      ~required:[ ("Login", "LoggedOn", [ V.Str "dm"; V.Str "*" ]) ] ()
  in
  let member = entry_ok w conf ~client:dm ~role:"Member" ~creds:[ dm_cert ] ~delegation:d () in
  checkb "valid" true (Service.validate conf ~client:dm member = Ok ());
  Group.remove (Service.group conf "staff") (V.Str "dm");
  checkb "revoked on group removal" true
    (Service.validate conf ~client:dm member = Error Service.Revoked)

let test_revocation_certificate () =
  let w, login, conf = conference_world () in
  Group.add (Service.group conf "staff") (V.Str "dm");
  let jmb, jmb_cert = logged_on login "jmb" "ely" in
  let chair = entry_ok w conf ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  let dm, dm_cert = logged_on login "dm" "ely" in
  let d, r =
    delegate w conf ~delegator:jmb ~using:chair ~role:"Member"
      ~required:[ ("Login", "LoggedOn", [ V.Str "dm"; V.Str "*" ]) ] ()
  in
  let member = entry_ok w conf ~client:dm ~role:"Member" ~creds:[ dm_cert ] ~delegation:d () in
  let result = ref None in
  Service.request_revocation conf ~client_host:w.client_host r (fun x -> result := Some x);
  run w 2.0;
  checkb "revocation accepted" true (!result = Some (Ok ()));
  checkb "member revoked" true (Service.validate conf ~client:dm member = Error Service.Revoked)

let test_revocation_denied_after_delegator_loses_role () =
  let w, login, conf = conference_world () in
  Group.add (Service.group conf "staff") (V.Str "dm");
  let jmb, jmb_cert = logged_on login "jmb" "ely" in
  let chair = entry_ok w conf ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  let _d, r =
    delegate w conf ~delegator:jmb ~using:chair ~role:"Member"
      ~required:[ ("Login", "LoggedOn", [ V.Str "dm"; V.Str "*" ]) ] ()
  in
  (* fig 4.3: the first CRR in the revocation certificate ensures the
     delegator still holds the delegating role. *)
  Service.revoke_certificate conf chair;
  let result = ref None in
  Service.request_revocation conf ~client_host:w.client_host r (fun x -> result := Some x);
  run w 2.0;
  checkb "refused" true (match !result with Some (Error _) -> true | _ -> false)

let test_delegation_expiry () =
  let w, login, conf = conference_world () in
  Group.add (Service.group conf "staff") (V.Str "dm");
  let jmb, jmb_cert = logged_on login "jmb" "ely" in
  let chair = entry_ok w conf ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  let dm, dm_cert = logged_on login "dm" "ely" in
  let d, _ =
    delegate w conf ~delegator:jmb ~using:chair ~role:"Member"
      ~required:[ ("Login", "LoggedOn", [ V.Str "dm"; V.Str "*" ]) ]
      ~expires_in:5.0 ()
  in
  let member = entry_ok w conf ~client:dm ~role:"Member" ~creds:[ dm_cert ] ~delegation:d () in
  checkb "valid before expiry" true (Service.validate conf ~client:dm member = Ok ());
  run w 10.0;
  checkb "auto-revoked at expiry" true
    (Service.validate conf ~client:dm member = Error Service.Revoked)

let test_delegation_revoke_on_exit () =
  let w, login, conf = conference_world () in
  Group.add (Service.group conf "staff") (V.Str "dm");
  let jmb, jmb_cert = logged_on login "jmb" "ely" in
  let chair = entry_ok w conf ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  let dm, dm_cert = logged_on login "dm" "ely" in
  let d, _ =
    delegate w conf ~delegator:jmb ~using:chair ~role:"Member"
      ~required:[ ("Login", "LoggedOn", [ V.Str "dm"; V.Str "*" ]) ]
      ~revoke_on_exit:true ()
  in
  let member = entry_ok w conf ~client:dm ~role:"Member" ~creds:[ dm_cert ] ~delegation:d () in
  (* jmb exits the Chair role: the delegation — and dm's membership — die. *)
  let result = ref None in
  Service.exit_role conf ~client_host:w.client_host chair (fun r -> result := Some r);
  run w 2.0;
  checkb "exit ok" true (!result = Some (Ok ()));
  checkb "delegated membership revoked" true
    (Service.validate conf ~client:dm member = Error Service.Revoked)

let test_delegation_requires_elector_role () =
  let w, login, conf = conference_world () in
  let dm, dm_cert = logged_on login "dm" "ely" in
  (* dm's login certificate is not a Chair certificate at Conf. *)
  let result = ref None in
  Service.request_delegation conf ~client_host:w.client_host ~delegator:dm ~using:dm_cert
    ~role:"Member" ~required:[] (fun r -> result := Some r);
  run w 2.0;
  checkb "refused" true (match !result with Some (Error _) -> true | _ -> false)

let test_delegation_electorless_role_refused () =
  (* Regression: a delegation request naming a role whose statements carry no
     elector used to be able to reach an [assert false] and kill the whole
     service host.  The request arrives off the wire, so it must be answered
     with a protocol error and the service must keep serving. *)
  let w, login, conf = conference_world () in
  let jmb, jmb_cert = logged_on login "jmb" "ely" in
  let chair = entry_ok w conf ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  (* "Chair" itself is defined without an elector ("<|*"), so it cannot be
     delegated — by anyone, including a Chair holder. *)
  let result = ref None in
  Service.request_delegation conf ~client_host:w.client_host ~delegator:jmb ~using:chair
    ~role:"Chair" ~required:[] (fun r -> result := Some r);
  run w 2.0;
  checkb "protocol error, not a crash" true
    (match !result with Some (Error _) -> true | _ -> false);
  (* The host survived: the service still answers entry requests. *)
  let jmb2, jmb2_cert = logged_on login "jmb" "cam" in
  let chair2 = entry_ok w conf ~client:jmb2 ~role:"Chair" ~creds:[ jmb2_cert ] () in
  checkb "service still alive" true (Service.validate conf ~client:jmb2 chair2 = Ok ())

let test_truncated_certificate_rejected () =
  (* Regression: verification used to take the expected signature length from
     the certificate itself, so a truncated signature prefix verified. *)
  let w, login, conf = conference_world () in
  let jmb, jmb_cert = logged_on login "jmb" "ely" in
  let chair = entry_ok w conf ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  let forged = { chair with Cert.rmc_sig = String.sub chair.Cert.rmc_sig 0 4 } in
  checkb "truncated signature is Forged" true
    (Service.validate conf ~client:jmb forged = Error Service.Forged)

let test_delegation_required_roles_enforced () =
  let w, login, conf = conference_world () in
  Group.add (Service.group conf "staff") (V.Str "dm");
  Group.add (Service.group conf "staff") (V.Str "eve");
  let jmb, jmb_cert = logged_on login "jmb" "ely" in
  let chair = entry_ok w conf ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  let d, _ =
    delegate w conf ~delegator:jmb ~using:chair ~role:"Member"
      ~required:[ ("Login", "LoggedOn", [ V.Str "dm"; V.Str "*" ]) ] ()
  in
  (* eve (staff, logged on) tries to use a delegation naming dm. *)
  let eve, eve_cert = logged_on login "eve" "ely" in
  checkb "eve cannot use dm's delegation" true
    (Result.is_error (entry w conf ~client:eve ~role:"Member" ~creds:[ eve_cert ] ~delegation:d ()))


let test_delegate_revocation_right () =
  (* §4.4: the Chair passes the right to revoke a delegation to another
     Chair-role holder; a non-Chair is refused (the fixed policy). *)
  let w = make_world () in
  let login = add_service w ~name:"Login" ~rolefile:login_rolefile () in
  let conf =
    add_service w ~name:"Conf"
      ~rolefile:
        {|
Chair <- Login.LoggedOn(u, h) : u in chairs
Member(u) <- Login.LoggedOn(u, h)* <|* Chair : (u in staff)*
|}
      ()
  in
  List.iter (fun u -> Group.add (Service.group conf "chairs") (V.Str u)) [ "jmb"; "km" ];
  Group.add (Service.group conf "staff") (V.Str "dm");
  let jmb, jmb_cert = logged_on login "jmb" "ely" in
  let km, km_cert = logged_on login "km" "ely" in
  let chair_jmb = entry_ok w conf ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  let chair_km = entry_ok w conf ~client:km ~role:"Chair" ~creds:[ km_cert ] () in
  let dm, dm_cert = logged_on login "dm" "ely" in
  let d, r =
    delegate w conf ~delegator:jmb ~using:chair_jmb ~role:"Member"
      ~required:[ ("Login", "LoggedOn", [ V.Str "dm"; V.Str "*" ]) ] ()
  in
  let member = entry_ok w conf ~client:dm ~role:"Member" ~creds:[ dm_cert ] ~delegation:d () in
  (* Passing the right to a non-Chair is refused. *)
  let refused = ref None in
  Service.delegate_revocation conf ~client_host:w.client_host ~rcert:r ~to_cert:dm_cert
    (fun x -> refused := Some x);
  run w 2.0;
  checkb "non-member of elector role refused" true
    (match !refused with Some (Error _) -> true | _ -> false);
  (* Passing it to km (a Chair) works, and km's certificate revokes. *)
  let km_rcert = ref None in
  Service.delegate_revocation conf ~client_host:w.client_host ~rcert:r ~to_cert:chair_km
    (fun x -> km_rcert := Some x);
  run w 2.0;
  let km_r = match !km_rcert with Some (Ok x) -> x | _ -> Alcotest.fail "redelegation failed" in
  let outcome = ref None in
  Service.request_revocation conf ~client_host:w.client_host km_r (fun x -> outcome := Some x);
  run w 2.0;
  checkb "km's revocation accepted" true (!outcome = Some (Ok ()));
  checkb "member revoked by the second chair" true
    (Service.validate conf ~client:dm member = Error Service.Revoked)

let test_delegate_revocation_dies_with_role () =
  (* The re-issued certificate is bound to the recipient's membership: if
     they lose the Chair role, the right to revoke goes with it. *)
  let w = make_world () in
  let login = add_service w ~name:"Login" ~rolefile:login_rolefile () in
  let conf =
    add_service w ~name:"Conf"
      ~rolefile:
        {|
Chair <- Login.LoggedOn(u, h) : (u in chairs)*
Member(u) <- Login.LoggedOn(u, h)* <|* Chair : (u in staff)*
|}
      ()
  in
  List.iter (fun u -> Group.add (Service.group conf "chairs") (V.Str u)) [ "jmb"; "km" ];
  Group.add (Service.group conf "staff") (V.Str "dm");
  let jmb, jmb_cert = logged_on login "jmb" "ely" in
  let km, km_cert = logged_on login "km" "ely" in
  let chair_jmb = entry_ok w conf ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  let chair_km = entry_ok w conf ~client:km ~role:"Chair" ~creds:[ km_cert ] () in
  let dm, dm_cert = logged_on login "dm" "ely" in
  let d, r =
    delegate w conf ~delegator:jmb ~using:chair_jmb ~role:"Member"
      ~required:[ ("Login", "LoggedOn", [ V.Str "dm"; V.Str "*" ]) ] ()
  in
  let _member = entry_ok w conf ~client:dm ~role:"Member" ~creds:[ dm_cert ] ~delegation:d () in
  let km_rcert = ref None in
  Service.delegate_revocation conf ~client_host:w.client_host ~rcert:r ~to_cert:chair_km
    (fun x -> km_rcert := Some x);
  run w 2.0;
  let km_r = match !km_rcert with Some (Ok x) -> x | _ -> Alcotest.fail "redelegation failed" in
  (* km loses the Chair role (removed from the chairs group). *)
  Group.remove (Service.group conf "chairs") (V.Str "km");
  let outcome = ref None in
  Service.request_revocation conf ~client_host:w.client_host km_r (fun x -> outcome := Some x);
  run w 2.0;
  checkb "ex-chair cannot revoke" true (match !outcome with Some (Error _) -> true | _ -> false)


let test_entry_fails_closed_when_issuer_unreachable () =
  (* The validation RPC to the issuing service times out during a
     partition: the credential is unusable and entry is denied (§4.2's
     fail-closed footnote applied at entry time). *)
  let w, login, conf = conference_world () in
  let jmb, jmb_cert = logged_on login "jmb" "ely" in
  Net.partition w.net (Service.host conf) (Service.host login);
  let result = ref None in
  Service.request_entry conf ~client_host:w.client_host ~client:jmb ~role:"Chair"
    ~creds:[ jmb_cert ] (fun r -> result := Some r);
  run w 10.0;
  checkb "denied while issuer unreachable" true
    (match !result with Some (Error _) -> true | _ -> false);
  (* After healing, the same request succeeds. *)
  Net.heal w.net (Service.host conf) (Service.host login);
  checkb "succeeds after heal" true
    (Result.is_ok (entry w conf ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] ()))

(* --- role-based revocation (§3.3.2, §4.11) --- *)

let meeting_world () =
  let w = make_world () in
  let login = add_service w ~name:"Login" ~rolefile:login_rolefile () in
  let meet =
    add_service w ~name:"Meet"
      ~rolefile:
        {|
Chair <- Login.LoggedOn("jmb", h)
Candidate(u) <- Login.LoggedOn(u, h) : u in staff
Member(u) <- Candidate(u) |>* Chair
|}
      ()
  in
  (w, login, meet)

let test_role_based_revocation_fire () =
  let w, login, meet = meeting_world () in
  Group.add (Service.group meet "staff") (V.Str "fred");
  let fred, fred_cert = logged_on login "fred" "ely" in
  let member = entry_ok w meet ~client:fred ~role:"Member" ~creds:[ fred_cert ] () in
  checkb "member valid" true (Service.validate meet ~client:fred member = Ok ());
  let jmb, jmb_cert = logged_on login "jmb" "ely" in
  let chair = entry_ok w meet ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  let result = ref None in
  Service.revoke_role_instance meet ~client_host:w.client_host ~revoker:chair ~role:"Member"
    ~args:[ V.Str "fred" ] (fun r -> result := Some r);
  run w 2.0;
  checkb "one revoked" true (!result = Some (Ok 1));
  checkb "fred ejected" true (Service.validate meet ~client:fred member = Error Service.Revoked);
  (* Blacklist: fred cannot re-enter (§4.11). *)
  checkb "re-entry blocked" true
    (Result.is_error (entry w meet ~client:fred ~role:"Member" ~creds:[ fred_cert ] ()))

let test_role_based_revocation_rehire () =
  let w, login, meet = meeting_world () in
  Group.add (Service.group meet "staff") (V.Str "fred");
  let fred, fred_cert = logged_on login "fred" "ely" in
  let _member = entry_ok w meet ~client:fred ~role:"Member" ~creds:[ fred_cert ] () in
  let jmb, jmb_cert = logged_on login "jmb" "ely" in
  let chair = entry_ok w meet ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  let done1 = ref false in
  Service.revoke_role_instance meet ~client_host:w.client_host ~revoker:chair ~role:"Member"
    ~args:[ V.Str "fred" ] (fun _ -> done1 := true);
  run w 2.0;
  (* Re-hire: the Chair removes the blacklist entry. *)
  let done2 = ref None in
  Service.reinstate_role_instance meet ~client_host:w.client_host ~revoker:chair ~role:"Member"
    ~args:[ V.Str "fred" ] (fun r -> done2 := Some r);
  run w 2.0;
  checkb "reinstate ok" true (!done2 = Some (Ok ()));
  checkb "fred can re-enter" true
    (Result.is_ok (entry w meet ~client:fred ~role:"Member" ~creds:[ fred_cert ] ()))

let test_role_based_revocation_wrong_revoker () =
  let w, login, meet = meeting_world () in
  Group.add (Service.group meet "staff") (V.Str "fred");
  Group.add (Service.group meet "staff") (V.Str "mallory");
  let fred, fred_cert = logged_on login "fred" "ely" in
  let _member = entry_ok w meet ~client:fred ~role:"Member" ~creds:[ fred_cert ] () in
  let mallory, mallory_cert = logged_on login "mallory" "ely" in
  let mcert = entry_ok w meet ~client:mallory ~role:"Member" ~creds:[ mallory_cert ] () in
  let result = ref None in
  Service.revoke_role_instance meet ~client_host:w.client_host ~revoker:mcert ~role:"Member"
    ~args:[ V.Str "fred" ] (fun r -> result := Some r);
  run w 2.0;
  checkb "member cannot fire member" true
    (match !result with Some (Error _) -> true | _ -> false)

(* Fire, re-hire, then fire again with no live membership.  The first
   fire emptied the instance's revoker arms; the second is judged against
   the rolefile, as a fire of an instance nobody holds is, so it
   blacklists the instance again and the fired member stays out. *)
let test_role_based_revocation_refire_after_rehire () =
  let w, login, meet = meeting_world () in
  Group.add (Service.group meet "staff") (V.Str "fred");
  Group.add (Service.group meet "staff") (V.Str "mallory");
  let fred, fred_cert = logged_on login "fred" "ely" in
  let _member = entry_ok w meet ~client:fred ~role:"Member" ~creds:[ fred_cert ] () in
  let jmb, jmb_cert = logged_on login "jmb" "ely" in
  let chair = entry_ok w meet ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  let mallory, mallory_cert = logged_on login "mallory" "ely" in
  let mcert = entry_ok w meet ~client:mallory ~role:"Member" ~creds:[ mallory_cert ] () in
  let fire revoker =
    let result = ref None in
    Service.revoke_role_instance meet ~client_host:w.client_host ~revoker ~role:"Member"
      ~args:[ V.Str "fred" ] (fun r -> result := Some r);
    run w 2.0;
    !result
  in
  let fred_blacklisted () = Service.blacklisted meet ~role:"Member" ~args:[ V.Str "fred" ] in
  checkb "first fire revokes one" true (fire chair = Some (Ok 1));
  let rehired = ref None in
  Service.reinstate_role_instance meet ~client_host:w.client_host ~revoker:chair ~role:"Member"
    ~args:[ V.Str "fred" ] (fun r -> rehired := Some r);
  run w 2.0;
  checkb "re-hire ok" true (!rehired = Some (Ok ()));
  checkb "member cannot fire member" true
    (match fire mcert with Some (Error _) -> true | _ -> false);
  checkb "nor blacklist the instance" false (fred_blacklisted ());
  checkb "second fire revokes none" true (fire chair = Some (Ok 0));
  checkb "instance blacklisted" true (fred_blacklisted ());
  checkb "re-entry refused" true
    (Result.is_error (entry w meet ~client:fred ~role:"Member" ~creds:[ fred_cert ] ()));
  checkb "member still cannot fire member" true
    (match fire mcert with Some (Error _) -> true | _ -> false)

(* --- quorum election (§3.4.5 golf club) --- *)

let test_golf_quorum () =
  let w = make_world () in
  let login = add_service w ~name:"Login" ~rolefile:login_rolefile () in
  let golf =
    add_service w ~name:"Golf"
      ~rolefile:
        {|
def Person(p) p: String
Person(p) <- Login.LoggedOn(p, h)
Rec1(p, q) <- Person(p) <| Member(q)
Rec2(p, q) <- Person(p) <| Member(q)
Member(p) <- Login.LoggedOn(p, h)
|}
      ()
  in
  (* Bootstrap one member. *)
  let alice = fresh_vci () in
  let alice_member = Service.issue_arbitrary golf ~client:alice ~roles:[ "Member" ] ~args:[ V.Str "alice" ] in
  checkb "bootstrap ok" true (Service.validate golf ~client:alice alice_member = Ok ());
  (* A recommendation requires an existing member's delegation. *)
  let bob, bob_login = logged_on login "bob" "ely" in
  let d, _ =
    delegate w golf ~delegator:alice ~using:alice_member ~role:"Rec1"
      ~required:[ ("Login", "LoggedOn", [ V.Str "bob"; V.Str "*" ]) ] ()
  in
  let rec1 = entry_ok w golf ~client:bob ~role:"Rec1" ~creds:[ bob_login ] ~delegation:d () in
  checkb "recommendation issued" true
    (Service.validate golf ~client:bob ~need_role:"Rec1" rec1 = Ok ())

(* --- validation failure classes and auditing (§4.2, §4.13) --- *)

let test_validation_failure_classes () =
  let w, login, conf = conference_world () in
  let jmb, jmb_cert = logged_on login "jmb" "ely" in
  let chair = entry_ok w conf ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  (* Wrong client (stolen certificate). *)
  let thief = fresh_vci () in
  checkb "stolen" true (Service.validate conf ~client:thief chair = Error Service.Wrong_client);
  (* Forged: tamper with the role bits. *)
  let forged = { chair with Cert.roles = Oasis_util.Bitset.of_list [ 0; 1 ] } in
  checkb "forged" true (Service.validate conf ~client:jmb forged = Error Service.Forged);
  (* Wrong context: a Login certificate at Conf. *)
  checkb "wrong context" true
    (Service.validate conf ~client:jmb jmb_cert = Error Service.Wrong_context);
  (* Insufficient: Chair certificate used for Member. *)
  checkb "insufficient" true
    (Service.validate conf ~client:jmb ~need_role:"Member" chair = Error Service.Insufficient);
  (* Revoked. *)
  Service.revoke_certificate conf chair;
  checkb "revoked" true (Service.validate conf ~client:jmb chair = Error Service.Revoked);
  (* Audit distinguishes fraud from erroneous use. *)
  let log = Service.audit_log conf in
  checkb "fraud audited" true (List.exists (fun e -> e.Service.kind = Service.Fraud) log);
  checkb "erroneous audited" true (List.exists (fun e -> e.Service.kind = Service.Erroneous) log)

(* The audit log is a ring: 10,000 audited exits leave the newest
   [audit_capacity], newest first. *)
let test_audit_log_bounded () =
  let w, _login, conf = conference_world () in
  let n = 10_000 in
  let holders = Array.init n (fun _ -> fresh_vci ()) in
  Array.iteri
    (fun i client ->
      let cert =
        Service.issue_arbitrary conf ~client ~roles:[ "Member" ] ~args:[ V.Str (string_of_int i) ]
      in
      Service.exit_role conf ~client_host:w.client_host cert (fun _ -> ()))
    holders;
  run w 2.0;
  let log = Service.audit_log conf in
  checki "capacity kept" Service.audit_capacity (List.length log);
  checkb "all exits" true (List.for_all (fun e -> e.Service.kind = Service.Exit) log);
  Alcotest.(check (list string))
    "newest first"
    (List.init Service.audit_capacity (fun i ->
         Principal.vci_to_string holders.(n - 1 - i) ^ " exited"))
    (List.map (fun e -> e.Service.detail) log)

let test_validation_cache () =
  let w, login, conf = conference_world () in
  let jmb, jmb_cert = logged_on login "jmb" "ely" in
  let chair = entry_ok w conf ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  let before = Service.crypto_checks conf in
  for _ = 1 to 50 do
    ignore (Service.validate conf ~client:jmb chair)
  done;
  let crypto_used = Service.crypto_checks conf - before in
  checkb "at most one crypto check for 50 validations" true (crypto_used <= 1);
  checkb "cache hits recorded" true (Service.cache_hits conf >= 49)

let test_rolling_secret_invalidates_old_certs () =
  let w, login, conf = conference_world () in
  let jmb, jmb_cert = logged_on login "jmb" "ely" in
  let chair = entry_ok w conf ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  (* Roll past the table capacity (default 4). *)
  for _ = 1 to 5 do
    Service.roll_secret conf
  done;
  checkb "old certificate no longer verifies" true
    (Service.validate conf ~client:jmb chair = Error Service.Forged)

(* --- inter-service cascade (§4.9–4.10) --- *)

let test_cross_service_cascade_on_logout () =
  let w, login, conf = conference_world () in
  Group.add (Service.group conf "staff") (V.Str "dm");
  let jmb, jmb_cert = logged_on login "jmb" "ely" in
  let chair = entry_ok w conf ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  let dm, dm_cert = logged_on login "dm" "ely" in
  let d, _ =
    delegate w conf ~delegator:jmb ~using:chair ~role:"Member"
      ~required:[ ("Login", "LoggedOn", [ V.Str "dm"; V.Str "*" ]) ] ()
  in
  let member = entry_ok w conf ~client:dm ~role:"Member" ~creds:[ dm_cert ] ~delegation:d () in
  run w 3.0 (* let the Modified-event subscription settle *);
  checkb "valid while logged on" true (Service.validate conf ~client:dm member = Ok ());
  (* dm logs off at the Login service: the starred LoggedOn credential dies,
     the external record at Conf flips by event notification, and the
     Member certificate is revoked — across services. *)
  Service.revoke_certificate login dm_cert;
  run w 3.0;
  checkb "revocation cascaded across services" true
    (Service.validate conf ~client:dm member = Error Service.Revoked)

let test_partition_marks_unknown () =
  let w, login, conf = conference_world () in
  Group.add (Service.group conf "staff") (V.Str "dm");
  let jmb, jmb_cert = logged_on login "jmb" "ely" in
  let chair = entry_ok w conf ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  let dm, dm_cert = logged_on login "dm" "ely" in
  let d, _ =
    delegate w conf ~delegator:jmb ~using:chair ~role:"Member"
      ~required:[ ("Login", "LoggedOn", [ V.Str "dm"; V.Str "*" ]) ] ()
  in
  let member = entry_ok w conf ~client:dm ~role:"Member" ~creds:[ dm_cert ] ~delegation:d () in
  run w 3.0;
  checkb "valid" true (Service.validate conf ~client:dm member = Ok ());
  (* Partition Conf from Login: heartbeats stop, external records go
     Unknown, and validation fails closed (§4.10, §4.2 footnote). *)
  Net.partition w.net (Service.host conf) (Service.host login);
  run w 5.0;
  checkb "unknown state fails closed" true
    (Service.validate conf ~client:dm member = Error Service.Unknown_state);
  (* Healing recovers: state is re-read and validity returns. *)
  Net.heal w.net (Service.host conf) (Service.host login);
  run w 5.0;
  checkb "recovers after heal" true (Service.validate conf ~client:dm member = Ok ())

(* --- interworking (§4.12, §3.4.1, §3.4.3) --- *)

let test_password_service () =
  let w = make_world () in
  let svc = add_service w ~name:"Pw" ~rolefile:{|
def Passwd(u, k) u: String k: String
Passwd(u, k) <-
|} () in
  let pw = Interop.Password.create svc in
  Interop.Password.set_secret pw ~user:"dm" ~key:"Login" ~secret:"hunter2";
  let dm = fresh_vci () in
  checkb "wrong password" true
    (Result.is_error (Interop.Password.authenticate pw ~client:dm ~user:"dm" ~key:"Login" ~secret:"nope"));
  let cert =
    match Interop.Password.authenticate pw ~client:dm ~user:"dm" ~key:"Login" ~secret:"hunter2" with
    | Ok c -> c
    | Error e -> Alcotest.failf "auth: %s" e
  in
  checkb "cert valid" true (Service.validate svc ~client:dm cert = Ok ());
  Interop.Password.revoke_user pw ~user:"dm";
  checkb "revoked on password change" true
    (Service.validate svc ~client:dm cert = Error Service.Revoked)

let test_loader_service () =
  let w = make_world () in
  let svc = add_service w ~name:"Loader" ~rolefile:{|
def Running(p) p: String
Running(p) <-
|} () in
  let loader = Interop.Loader.create ~trusted_hosts:[ "clienthost" ] svc in
  let c = fresh_vci () in
  (match Interop.Loader.certify loader ~client:c ~program:"game" with
  | Ok cert -> checkb "certified" true (Service.validate svc ~client:c cert = Ok ())
  | Error e -> Alcotest.failf "loader: %s" e);
  Interop.Loader.distrust_host loader "clienthost";
  checkb "untrusted host refused" true
    (Result.is_error (Interop.Loader.certify loader ~client:c ~program:"game"))

let test_orgrole_bridge () =
  let w = make_world () in
  let svc = add_service w ~name:"Org" ~rolefile:{|
def OrgRole(r) r: String
OrgRole(r) <-
|} () in
  let bridge = Interop.Orgroles.create svc in
  let c = fresh_vci () in
  let cert =
    match Interop.Orgroles.assert_role bridge ~client:c ~org_role:"manager" with
    | Ok cert -> cert
    | Error e -> Alcotest.failf "org: %s" e
  in
  checkb "bridged role valid" true (Service.validate svc ~client:c cert = Ok ());
  Interop.Orgroles.retract_role bridge ~client:c ~org_role:"manager";
  checkb "retraction revokes" true (Service.validate svc ~client:c cert = Error Service.Revoked)

(* --- high score table (§3.4.1) --- *)

let test_high_score_table () =
  let w = make_world () in
  let loader_svc = add_service w ~name:"Loader" ~rolefile:{|
def Running(p) p: String
Running(p) <-
|} () in
  let login = add_service w ~name:"Login" ~rolefile:login_rolefile () in
  let hst =
    add_service w ~name:"Scores"
      ~rolefile:{|
Write <- Loader.Running("game")
Read <- Login.LoggedOn(u, h)
|}
      ()
  in
  let loader = Interop.Loader.create ~trusted_hosts:[ "clienthost" ] loader_svc in
  let game = fresh_vci () in
  let game_cert = Result.get_ok (Interop.Loader.certify loader ~client:game ~program:"game") in
  let writer = entry_ok w hst ~client:game ~role:"Write" ~creds:[ game_cert ] () in
  checkb "game writes" true (Service.validate hst ~client:game ~need_role:"Write" writer = Ok ());
  let dm, dm_cert = logged_on login "dm" "ely" in
  let reader = entry_ok w hst ~client:dm ~role:"Read" ~creds:[ dm_cert ] () in
  checkb "user reads" true (Service.validate hst ~client:dm ~need_role:"Read" reader = Ok ());
  checkb "user cannot write" true
    (Result.is_error (entry w hst ~client:dm ~role:"Write" ~creds:[ dm_cert ] ()))

let test_gc_after_churn () =
  let w, login, conf = conference_world () in
  Group.add (Service.group conf "staff") (V.Str "dm");
  let jmb, jmb_cert = logged_on login "jmb" "ely" in
  for _ = 1 to 10 do
    let c = entry_ok w conf ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
    let done_ = ref false in
    Service.exit_role conf ~client_host:w.client_host c (fun _ -> done_ := true);
    run w 1.0
  done;
  let reclaimed = Service.gc conf in
  checkb "gc reclaims exited memberships" true (reclaimed > 0)

(* An exit releases the exited membership's §4.11 revoker arm: three
   entries and exits leave nothing a later fire counts, so the Chair's
   fire revokes exactly the one membership still live. *)
let test_exit_releases_revoker_arm () =
  let w, login, meet = meeting_world () in
  Group.add (Service.group meet "staff") (V.Str "fred");
  let fred, fred_cert = logged_on login "fred" "ely" in
  for _ = 1 to 3 do
    let m = entry_ok w meet ~client:fred ~role:"Member" ~creds:[ fred_cert ] () in
    let exited = ref None in
    Service.exit_role meet ~client_host:w.client_host m (fun r -> exited := Some r);
    run w 1.0;
    checkb "exit ok" true (!exited = Some (Ok ()))
  done;
  let member = entry_ok w meet ~client:fred ~role:"Member" ~creds:[ fred_cert ] () in
  let jmb, jmb_cert = logged_on login "jmb" "ely" in
  let chair = entry_ok w meet ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  let result = ref None in
  Service.revoke_role_instance meet ~client_host:w.client_host ~revoker:chair ~role:"Member"
    ~args:[ V.Str "fred" ] (fun r -> result := Some r);
  run w 2.0;
  checkb "the fire counts the live membership only" true (!result = Some (Ok 1));
  checkb "fred ejected" true (Service.validate meet ~client:fred member = Error Service.Revoked)

(* A service churned well past the sweep floor holds what is live, not what
   it ever issued: live words measured right after its last sweep in a
   round stay within 1.2x from the first round to the tenth.  Each round
   exits and re-enters every member a hundred times, over an external
   credential and a revoker arm, so it allocates past the floor several
   times over and the heartbeat tick sweeps on its own. *)
let test_churn_memory_bounded () =
  let w = make_world () in
  let login = add_service w ~name:"Login" ~rolefile:login_rolefile () in
  let gate =
    add_service w ~name:"Gate"
      ~rolefile:{|
Admin <-
User(u) <- Login.LoggedOn(u, h)* |>* Admin
|}
      ~compound_certificates:false ()
  in
  let users = Array.init 32 (fun i -> logged_on login (Printf.sprintf "u%d" i) "ely") in
  let current = Array.make (Array.length users) None in
  let sweeps = ref 0 and words = ref 0 in
  Service.on_sweep gate (fun () ->
      incr sweeps;
      Gc.compact ();
      words := (Gc.stat ()).Gc.live_words);
  let rec churn i n =
    if n > 0 then begin
      let vci, cert = users.(i) in
      let enter () =
        Service.request_entry gate ~client_host:w.client_host ~client:vci ~role:"User"
          ~creds:[ cert ] (function
          | Ok c ->
              current.(i) <- Some c;
              churn i (n - 1)
          | Error e -> Alcotest.failf "entry: %s" e)
      in
      match current.(i) with
      | None -> enter ()
      | Some c ->
          Service.exit_role gate ~client_host:w.client_host c (function
            | Ok () -> enter ()
            | Error e -> Alcotest.failf "exit: %s" e)
    end
  in
  let round () =
    let before = !sweeps in
    Array.iteri (fun i _ -> churn i 100) users;
    run w 60.0;
    checkb "the service swept on its own this round" true (!sweeps > before);
    !words
  in
  let first = round () in
  for _ = 2 to 9 do
    ignore (round ())
  done;
  let tenth = round () in
  checkb
    (Printf.sprintf "live words %d after ten rounds within 1.2x of %d after one" tenth first)
    true
    (float_of_int tenth <= 1.2 *. float_of_int first);
  Array.iteri
    (fun i c ->
      match c with
      | Some c ->
          checkb "the live membership validates" true
            (Service.validate gate ~client:(fst users.(i)) c = Ok ())
      | None -> Alcotest.fail "a user lost its membership")
    current

(* A sweep between an entry's credential checks must not free the
   surrogate of the credential checked first: it is a childless leaf until
   the entry combines it, exactly what the sweep takes for garbage. *)
let test_gc_between_issuer_replies () =
  let w = make_world () in
  let login = add_service w ~name:"Login" ~rolefile:login_rolefile () in
  let badge =
    add_service w ~name:"Badge" ~rolefile:{|
def Holder(u) u: String
Holder(u) <-
|} ()
  in
  let lab =
    add_service w ~name:"Lab"
      ~rolefile:{|
Worker(u) <- Login.LoggedOn(u, h)* /\ Badge.Holder(u)*
|} ()
  in
  let vci, login_cert = logged_on login "fred" "ely" in
  let badge_cert =
    Service.issue_arbitrary badge ~client:vci ~roles:[ "Holder" ] ~args:[ V.Str "fred" ]
  in
  (* Sweep every millisecond while the two validation round trips run. *)
  for k = 1 to 60 do
    Engine.schedule w.engine ~delay:(0.001 *. float_of_int k) (fun () -> ignore (Service.gc lab))
  done;
  let worker = entry_ok w lab ~client:vci ~role:"Worker" ~creds:[ login_cert; badge_cert ] () in
  checkb "the membership is valid" true (Service.validate lab ~client:vci worker = Ok ());
  ignore (Service.gc lab);
  checkb "and stays valid after another sweep" true
    (Service.validate lab ~client:vci worker = Ok ())

(* --- cache bounds and counters --- *)

module Stats = Oasis_sim.Stats

(* The signature-verification cache must stay within its cap of 1024
   under churn (two-generation eviction), and hits/misses must be
   accounted in the net's stats. *)
let test_sig_cache_cap_holds () =
  let w = make_world () in
  let login = add_service w ~name:"Login" ~rolefile:login_rolefile () in
  let stats = Net.stats w.net in
  let n = 1100 in
  let certs = List.init n (fun i -> logged_on login (Printf.sprintf "u%d" i) "ely") in
  let most = ref 0 in
  List.iter
    (fun (vci, cert) ->
      checkb "validates" true (Service.validate login ~client:vci cert = Ok ());
      most := max !most (Service.sig_cache_size login))
    certs;
  checki "the cache fills to its cap of 1024, and no further" 1024 !most;
  let misses = Stats.count stats "oasis.sigcache.miss" in
  checkb "every first check missed" true (misses >= n);
  (* An immediate re-validation of the newest certificate is a hit... *)
  let hits0 = Stats.count stats "oasis.sigcache.hit" in
  let vci, cert = List.nth certs (n - 1) in
  checkb "revalidates" true (Service.validate login ~client:vci cert = Ok ());
  checki "hot entry hits" (hits0 + 1) (Stats.count stats "oasis.sigcache.hit");
  (* ...while the oldest was evicted long ago and misses again. *)
  let vci0, cert0 = List.hd certs in
  ignore (Service.validate login ~client:vci0 cert0);
  checkb "evicted entry misses again" true (Stats.count stats "oasis.sigcache.miss" > misses);
  checkb "cap still holds" true (Service.sig_cache_size login <= 1024)

(* Repeated role entries with the same constraint and bindings reuse the
   compiled residual instead of recompiling it. *)
let test_residual_cache_reused () =
  let w = make_world () in
  let login = add_service w ~name:"Login" ~rolefile:login_rolefile () in
  let conf =
    add_service w ~name:"Conf"
      ~rolefile:{|
Member(u) <- Login.LoggedOn(u, h)* : ((u in staff) and (u in eng))*
|}
      ()
  in
  Group.add (Service.group conf "staff") (V.Str "dm");
  Group.add (Service.group conf "eng") (V.Str "dm");
  let stats = Net.stats w.net in
  let dm, dm_cert = logged_on login "dm" "ely" in
  let m1 = entry_ok w conf ~client:dm ~role:"Member" ~creds:[ dm_cert ] () in
  let misses = Stats.count stats "oasis.residual.miss" in
  checkb "first entry compiled the residual" true (misses >= 1);
  checkb "residual retained" true (Service.residual_cache_size conf >= 1);
  let m2 = entry_ok w conf ~client:dm ~role:"Member" ~creds:[ dm_cert ] () in
  checkb "re-entry hit the residual cache" true (Stats.count stats "oasis.residual.hit" >= 1);
  checki "no recompilation on re-entry" misses (Stats.count stats "oasis.residual.miss");
  (* The cached compilation must stay live policy: a group change still
     revokes both memberships. *)
  checkb "m1 valid" true (Service.validate conf ~client:dm m1 = Ok ());
  checkb "m2 valid" true (Service.validate conf ~client:dm m2 = Ok ());
  Group.remove (Service.group conf "eng") (V.Str "dm");
  checkb "cached residual still revocable (m1)" true
    (Service.validate conf ~client:dm m1 = Error Service.Revoked);
  checkb "cached residual still revocable (m2)" true
    (Service.validate conf ~client:dm m2 = Error Service.Revoked)

(* §4.3: role rights are a 62-bit set; a 63-role rolefile must be refused
   with a diagnostic, not mis-encoded. *)
let test_role_bitset_limit () =
  let roles n = String.concat "" (List.init n (fun i -> Printf.sprintf "R%d <-\n" i)) in
  let w = make_world () in
  let host = Net.add_host w.net "h.limit" in
  (match Service.create w.net host w.reg ~name:"Wide" ~rolefile:(roles 63) () with
  | Ok _ -> Alcotest.fail "63 roles must not fit a 62-bit set"
  | Error e ->
      Alcotest.(check string)
        "diagnostic" "too many roles for the role bit-set (max 62)" e);
  (* 62 is still fine. *)
  let host62 = Net.add_host w.net "h.limit62" in
  match Service.create w.net host62 w.reg ~name:"Wide62" ~rolefile:(roles 62) () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "62 roles must fit: %s" e

(* The registration gate covers the whole federation, not just the one
   rolefile: a service naming a role its peer does not define (OASIS003)
   is refused at create, and is not registered. *)
let test_federation_gate_refuses_undefined_role () =
  let w = make_world () in
  ignore
    (add_service w ~name:"Login" ~rolefile:"def LoggedOn(u) u: String\nLoggedOn(u) <-\n" ());
  (match
     Service.create w.net (Net.add_host w.net "h.club") w.reg ~name:"Club"
       ~rolefile:"Member(u) <- Login.SignedOn(u)\n" ()
   with
  | Ok _ -> Alcotest.fail "a reference to an undefined peer role must be refused"
  | Error e ->
      let rec has i = i + 8 <= String.length e && (String.sub e i 8 = "OASIS003" || has (i + 1)) in
      checkb (Printf.sprintf "OASIS003 reported (%s)" e) true (has 0));
  checkb "refused service not registered" true (Service.find_service w.reg "Club" = None);
  (* The same federation with the reference fixed registers. *)
  ignore (add_service w ~name:"Club" ~rolefile:"Member(u) <- Login.LoggedOn(u)\n" ())

let () =
  Alcotest.run "service"
    [
      ( "entry",
        [
          Alcotest.test_case "external credential" `Quick test_entry_with_external_credential;
          Alcotest.test_case "denied without credential" `Quick test_entry_denied_without_credential;
          Alcotest.test_case "another client's external credential" `Quick
            test_entry_refuses_external_credential_of_another_client;
          Alcotest.test_case "another client's local credential" `Quick
            test_entry_refuses_local_credential_of_another_client;
          Alcotest.test_case "literal discriminates" `Quick test_entry_literal_argument_discriminates;
          Alcotest.test_case "first rule wins (login levels)" `Quick test_entry_first_matching_rule_wins;
          Alcotest.test_case "intermediate roles (fig 3.2)" `Quick test_entry_intermediate_roles_automatic;
          Alcotest.test_case "requested args select" `Quick test_entry_requested_args_select;
          Alcotest.test_case "constraint functions (authorship)" `Quick test_entry_constraint_functions;
          Alcotest.test_case "compound certificates" `Quick test_entry_compound_certificates;
          Alcotest.test_case "compound disabled" `Quick test_entry_no_compound_when_disabled;
          Alcotest.test_case "fixpoint ablation" `Quick test_fixpoint_ablation;
        ] );
      ( "revocation",
        [
          Alcotest.test_case "group change revokes" `Quick test_group_change_revokes;
          Alcotest.test_case "revocation certificate" `Quick test_revocation_certificate;
          Alcotest.test_case "revoker must hold role" `Quick test_revocation_denied_after_delegator_loses_role;
          Alcotest.test_case "delegation expiry" `Quick test_delegation_expiry;
          Alcotest.test_case "revoke on exit" `Quick test_delegation_revoke_on_exit;
          Alcotest.test_case "delegation needs elector" `Quick test_delegation_requires_elector_role;
          Alcotest.test_case "elector-less role refused, host survives" `Quick
            test_delegation_electorless_role_refused;
          Alcotest.test_case "truncated certificate rejected" `Quick
            test_truncated_certificate_rejected;
          Alcotest.test_case "required roles enforced" `Quick test_delegation_required_roles_enforced;
          Alcotest.test_case "delegate revocation right" `Quick test_delegate_revocation_right;
          Alcotest.test_case "revocation right dies with role" `Quick test_delegate_revocation_dies_with_role;
        ] );
      ( "role-based-revocation",
        [
          Alcotest.test_case "fire" `Quick test_role_based_revocation_fire;
          Alcotest.test_case "rehire" `Quick test_role_based_revocation_rehire;
          Alcotest.test_case "wrong revoker" `Quick test_role_based_revocation_wrong_revoker;
          Alcotest.test_case "fire again after a re-hire" `Quick
            test_role_based_revocation_refire_after_rehire;
        ] );
      ("election", [ Alcotest.test_case "golf quorum" `Quick test_golf_quorum ]);
      ( "validation",
        [
          Alcotest.test_case "failure classes" `Quick test_validation_failure_classes;
          Alcotest.test_case "cache" `Quick test_validation_cache;
          Alcotest.test_case "audit log bounded" `Quick test_audit_log_bounded;
          Alcotest.test_case "rolling secrets" `Quick test_rolling_secret_invalidates_old_certs;
        ] );
      ( "distribution",
        [
          Alcotest.test_case "cascade on logout" `Quick test_cross_service_cascade_on_logout;
          Alcotest.test_case "partition marks unknown" `Quick test_partition_marks_unknown;
          Alcotest.test_case "entry fails closed" `Quick test_entry_fails_closed_when_issuer_unreachable;
        ] );
      ( "interop",
        [
          Alcotest.test_case "password service" `Quick test_password_service;
          Alcotest.test_case "loader service" `Quick test_loader_service;
          Alcotest.test_case "org role bridge" `Quick test_orgrole_bridge;
          Alcotest.test_case "high score table" `Quick test_high_score_table;
        ] );
      ( "gc",
        [
          Alcotest.test_case "after churn" `Quick test_gc_after_churn;
          Alcotest.test_case "exit releases its revoker arm" `Quick test_exit_releases_revoker_arm;
          Alcotest.test_case "churned service memory bounded" `Quick test_churn_memory_bounded;
          Alcotest.test_case "sweep between issuer replies" `Quick test_gc_between_issuer_replies;
        ] );
      ( "caches",
        [
          Alcotest.test_case "sig cache cap holds" `Quick test_sig_cache_cap_holds;
          Alcotest.test_case "residual cache reused" `Quick test_residual_cache_reused;
          Alcotest.test_case "62-role bit-set limit" `Quick test_role_bitset_limit;
        ] );
      ( "lint",
        [
          Alcotest.test_case "federation gate refuses an undefined peer role" `Quick
            test_federation_gate_refuses_undefined_role;
        ] );
    ]
