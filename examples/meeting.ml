(* Open meeting (§3.4.2) and golf-club quorum election (§3.4.5).

   - any member of staff may join the meeting;
   - any member may invite someone else (unrestricted recursive delegation);
   - the Chair may eject anyone — role-based revocation with the `|>`
     operator, including hire / fire / re-hire semantics (§4.11);
   - joining the golf club needs recommendations from two DIFFERENT members.

   Run with: dune exec examples/meeting.exe *)

module Engine = Oasis_sim.Engine
module Net = Oasis_sim.Net
module Service = Oasis_core.Service
module Group = Oasis_core.Group
module Principal = Oasis_core.Principal
module V = Oasis_rdl.Value

let say fmt = Printf.printf (fmt ^^ "\n")

let () =
  let engine = Engine.create () in
  let net = Net.create ~latency:(Net.Fixed 0.01) engine in
  let registry = Service.create_registry () in
  let client_host = Net.add_host net "client" in
  let run dt = Engine.run ~until:(Engine.now engine +. dt) engine in
  let host h = Net.add_host net h in

  let login =
    Result.get_ok
      (Service.create net (host "login") registry ~name:"Login"
         ~rolefile:{|
def LoggedOn(u, h) u: String h: String
LoggedOn(u, h) <-
|} ())
  in
  let principals = Principal.Host.create "office" in
  let dom = Principal.Host.boot_domain principals in
  let user name =
    let vci = Principal.Host.new_vci principals dom in
    ( vci,
      Service.issue_arbitrary login ~client:vci ~roles:[ "LoggedOn" ]
        ~args:[ V.Str name; V.Str "office" ] )
  in

  (* --------------------------------------------------------------- *)
  say "--- open meeting (§3.4.2) ---";
  let meet =
    Result.get_ok
      (Service.create net (host "meet") registry ~name:"Meet"
         ~rolefile:
           {|
Chair <- Login.LoggedOn("jmb", h)
Candidate(u) <- Login.LoggedOn(u, h) : u in staff
Member(u) <- Candidate(u)* |>* Chair
Guest(u) <- Login.LoggedOn(u, h)* <|* Member(m)
|}
         ())
  in
  List.iter (fun u -> Group.add (Service.group meet "staff") (V.Str u)) [ "fred"; "mary" ];

  let jmb, jmb_login = user "jmb" in
  let fred, fred_login = user "fred" in
  let visitor, visitor_login = user "visitor" in

  let enter svc client role ?delegation creds =
    let out = ref None in
    Service.request_entry svc ~client_host ~client ~role ~creds ?delegation (fun r -> out := Some r);
    run 1.0;
    Option.get !out
  in
  let chair = Result.get_ok (enter meet jmb "Chair" [ jmb_login ]) in
  say "jmb is Chair";
  let fred_member = Result.get_ok (enter meet fred "Member" [ fred_login ]) in
  say "fred (staff) joined as Member; the intermediate role Candidate was entered automatically";

  (* Any member may invite someone else — fred invites a visitor. *)
  let d = ref None in
  Service.request_delegation meet ~client_host ~delegator:fred ~using:fred_member ~role:"Guest"
    ~required:[ ("Login", "LoggedOn", [ V.Str "visitor"; V.Str "*" ]) ]
    (function Ok (dc, _) -> d := Some dc | Error e -> say "invite failed: %s" e);
  run 1.0;
  let guest = Result.get_ok (enter meet visitor "Guest" ~delegation:(Option.get !d) [ visitor_login ]) in
  say "fred invited a visitor (member-to-guest election)";

  (* The Chair ejects fred — role-based revocation. *)
  let fired = ref None in
  Service.revoke_role_instance meet ~client_host ~revoker:chair ~role:"Member"
    ~args:[ V.Str "fred" ] (fun r -> fired := Some r);
  run 1.0;
  (match !fired with
  | Some (Ok n) -> say "Chair ejected fred (%d membership revoked)" n
  | _ -> say "ejection failed");
  (match Service.validate meet ~client:fred fred_member with
  | Error _ -> say "fred's certificate is dead"
  | Ok () -> say "unexpected: fred still a member");
  (match enter meet fred "Member" [ fred_login ] with
  | Error _ -> say "fred cannot re-enter: the instance is blacklisted"
  | Ok _ -> say "unexpected re-entry");

  (* Hire / fire / re-hire: the Chair reinstates. *)
  let rehired = ref None in
  Service.reinstate_role_instance meet ~client_host ~revoker:chair ~role:"Member"
    ~args:[ V.Str "fred" ] (fun r -> rehired := Some r);
  run 1.0;
  (match enter meet fred "Member" [ fred_login ] with
  | Ok _ -> say "after re-hire, fred joined again"
  | Error e -> say "re-hire failed: %s" e);
  ignore guest;

  (* --------------------------------------------------------------- *)
  say "\n--- golf club quorum (§3.4.5) ---";
  (* Membership needs two members' recommendations, so someone must be a
     member first.  The bootstrap is declared in the rolefile — logged-on
     founders enter directly — rather than issued outside the policy:
     without it the Member/Rec cycle can never start, and the federation
     linter refuses the service as a deadlock (OASIS001). *)
  let golf =
    Result.get_ok
      (Service.create net (host "golf") registry ~name:"Golf"
         ~rolefile:
           {|
def Person(p) p: String
def Founder(p) p: String
Person(p) <- Login.LoggedOn(p, h)
Founder(p) <- Login.LoggedOn(p, h) : p in founders
Rec1(p, q) <- Person(p) <| Member(q)
Rec2(p, q) <- Person(p) <| Member(q)
Member(p) <- Founder(p)*
Member(p) <- Rec1(p, q1)* /\ Rec2(p, q2)* : q1 <> q2
|}
         ())
  in
  List.iter (fun u -> Group.add (Service.group golf "founders") (V.Str u)) [ "alice"; "bertie" ];
  let alice, alice_login = user "alice" in
  let bertie, bertie_login = user "bertie" in
  let charlie, charlie_login = user "charlie" in
  let alice_m = Result.get_ok (enter golf alice "Member" [ alice_login ]) in
  let bertie_m = Result.get_ok (enter golf bertie "Member" [ bertie_login ]) in
  say "alice and bertie are founding members";
  let recommend member_vci member_cert role =
    let d = ref None in
    Service.request_delegation golf ~client_host ~delegator:member_vci ~using:member_cert ~role
      ~required:[ ("Login", "LoggedOn", [ V.Str "charlie"; V.Str "*" ]) ]
      (function Ok (dc, _) -> d := Some dc | Error e -> say "recommendation failed: %s" e);
    run 1.0;
    Result.get_ok (enter golf charlie role ~delegation:(Option.get !d) [ charlie_login ])
  in
  let rec1 = recommend alice alice_m "Rec1" in
  say "alice recommended charlie";
  let rec2 = recommend bertie bertie_m "Rec2" in
  say "bertie recommended charlie";
  (* One recommendation is not enough: *)
  (match enter golf charlie "Member" [ charlie_login; rec1 ] with
  | Error _ -> say "one recommendation is not enough"
  | Ok _ -> say "unexpected");
  (* Two from the same member would fail the q1 <> q2 constraint; two from
     different members succeed: *)
  (match enter golf charlie "Member" [ charlie_login; rec1; rec2 ] with
  | Ok c ->
      say "charlie admitted with two distinct recommendations: %s"
        (Format.asprintf "%a" Oasis_core.Cert.pp_rmc c)
  | Error e -> say "quorum entry failed: %s" e);
  (* Revoking a recommendation revokes the membership (starred creds). *)
  Service.revoke_certificate golf rec1;
  run 1.0;
  say "alice withdrew her recommendation: charlie's membership dies with it"
