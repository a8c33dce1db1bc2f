(* Tests for the MSSA: byte-segment custode, file custode with shared ACLs,
   meta-access control, volatile ACLs, per-file delegation, VAC stacks and
   bypassing (chapter 5). *)

module Service = Oasis_core.Service
module Cert = Oasis_core.Cert
module Group = Oasis_core.Group
module Principal = Oasis_core.Principal
module Engine = Oasis_sim.Engine
module Net = Oasis_sim.Net
module Byte_segment = Oasis_mssa.Byte_segment
module Custode = Oasis_mssa.Custode
module Vac = Oasis_mssa.Vac
module Bypass = Oasis_mssa.Bypass
module Types = Oasis_mssa.Types
module V = Oasis_rdl.Value

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

type world = {
  engine : Engine.t;
  net : Net.t;
  reg : Service.registry;
  client_host : Net.host;
  login : Service.t;
  mutable hosts : int;
}

let login_rolefile = {|
def LoggedOn(u, h) u: String h: String
LoggedOn(u, h) <-
|}

let make_world () =
  let engine = Engine.create () in
  let net = Net.create ~latency:(Net.Fixed 0.005) engine in
  let client_host = Net.add_host net "client" in
  let reg = Service.create_registry () in
  let login_host = Net.add_host net "loginhost" in
  let login = Result.get_ok (Service.create net login_host reg ~name:"Login" ~rolefile:login_rolefile ()) in
  { engine; net; reg; client_host; login; hosts = 0 }

let add_host w =
  w.hosts <- w.hosts + 1;
  Net.add_host w.net (Printf.sprintf "mssa%d" w.hosts)

let run w dt = Engine.run ~until:(Engine.now w.engine +. dt) w.engine

let fresh_vci =
  let host = Principal.Host.create "clienthost" in
  let domain = Principal.Host.boot_domain host in
  fun () -> Principal.Host.new_vci host domain

let logged_on w user =
  let vci = fresh_vci () in
  (vci, Service.issue_arbitrary w.login ~client:vci ~roles:[ "LoggedOn" ] ~args:[ V.Str user; V.Str "ely" ])

let make_custode ?admins ?backing w name =
  Result.get_ok (Custode.create w.net (add_host w) w.reg ~name ?admins ?backing ())

(* Get a UseAcl certificate for a user on an ACL. *)
let access w custode ~user ~acl =
  let vci, login_cert = logged_on w user in
  let result = ref None in
  Custode.request_access custode ~client_host:w.client_host ~client:vci ~login:login_cert ~acl
    (fun r -> result := Some r);
  run w 2.0;
  match !result with
  | Some (Ok cert) -> (vci, login_cert, cert)
  | Some (Error e) -> Alcotest.failf "access to %s failed: %s" acl e
  | None -> Alcotest.fail "access did not complete"

let access_denied w custode ~user ~acl =
  let vci, login_cert = logged_on w user in
  let result = ref None in
  Custode.request_access custode ~client_host:w.client_host ~client:vci ~login:login_cert ~acl
    (fun r -> result := Some r);
  run w 2.0;
  match !result with
  | Some (Error _) -> ()
  | Some (Ok _) -> Alcotest.failf "access to %s unexpectedly granted to %s" acl user
  | None -> Alcotest.fail "no reply"

(* --- byte segment custode --- *)

let test_byte_segment_rw () =
  let w = make_world () in
  let bsc = Result.get_ok (Byte_segment.create w.net (add_host w) w.reg ~name:"BSC") in
  let fc = fresh_vci () in
  let cert = Byte_segment.attach bsc ~client:fc in
  let seg = Result.get_ok (Byte_segment.create_segment bsc ~cert) in
  checkb "write" true (Byte_segment.write bsc ~cert ~seg ~off:0 "hello" = Ok ());
  checkb "read" true (Byte_segment.read bsc ~cert ~seg = Ok "hello");
  checkb "overwrite middle" true (Byte_segment.write bsc ~cert ~seg ~off:2 "LL" = Ok ());
  checkb "merged" true (Byte_segment.read bsc ~cert ~seg = Ok "heLLo");
  checki "one segment" 1 (Byte_segment.segment_count bsc)

let test_byte_segment_isolation () =
  let w = make_world () in
  let bsc = Result.get_ok (Byte_segment.create w.net (add_host w) w.reg ~name:"BSC") in
  let a = fresh_vci () and b = fresh_vci () in
  let ca = Byte_segment.attach bsc ~client:a in
  let cb = Byte_segment.attach bsc ~client:b in
  let seg = Result.get_ok (Byte_segment.create_segment bsc ~cert:ca) in
  checkb "other client blocked" true (Result.is_error (Byte_segment.read bsc ~cert:cb ~seg));
  Service.revoke_certificate (Byte_segment.service bsc) ca;
  checkb "revoked blocked" true (Result.is_error (Byte_segment.read bsc ~cert:ca ~seg))

(* --- shared ACLs --- *)

let test_acl_grant_rights () =
  let w = make_world () in
  let c = make_custode ~admins:[ "root" ] w "FFC" in
  let _, _, root_cert = access w c ~user:"root" ~acl:"system" in
  checkb "create acl" true
    (Custode.create_acl c ~cert:root_cert ~id:"empire" ~entries:"+jeh=rw +%staff=r" ~meta:"system"
     = Ok ());
  Group.add (Service.group (Custode.service c) "staff") (V.Str "dm");
  let _, _, jeh = access w c ~user:"jeh" ~acl:"empire" in
  checkb "jeh gets rw" true (jeh.Cert.args = [ V.Str "empire"; V.Set "rw" ]);
  let _, _, dm = access w c ~user:"dm" ~acl:"empire" in
  checkb "dm gets r via staff" true (dm.Cert.args = [ V.Str "empire"; V.Set "r" ]);
  access_denied w c ~user:"nobody" ~acl:"empire"

let test_acl_meta_access_control () =
  (* §5.3.2: rights over an ACL are governed by its meta ACL. *)
  let w = make_world () in
  let c = make_custode ~admins:[ "root" ] w "FFC" in
  let _, _, root_cert = access w c ~user:"root" ~acl:"system" in
  ignore (Custode.create_acl c ~cert:root_cert ~id:"empire" ~entries:"+jeh=rw" ~meta:"system");
  let _, _, jeh = access w c ~user:"jeh" ~acl:"empire" in
  checkb "jeh cannot modify acl" true
    (Result.is_error (Custode.modify_acl c ~cert:jeh ~id:"empire" ~entries:"+jeh=rwxad"));
  checkb "root can" true
    (Custode.modify_acl c ~cert:root_cert ~id:"empire" ~entries:"+jeh=r" = Ok ())

let test_acl_read_needs_meta_read () =
  (* §5.4: reading an ACL takes the r right on its meta ACL. *)
  let w = make_world () in
  let c = make_custode ~admins:[ "root" ] w "FFC" in
  let _, _, root_cert = access w c ~user:"root" ~acl:"system" in
  ignore (Custode.create_acl c ~cert:root_cert ~id:"empire" ~entries:"+jeh=rw" ~meta:"system");
  checkb "system regranted" true
    (Custode.modify_acl c ~cert:root_cert ~id:"system" ~entries:"+root=adrwx +dm=r +jeh=w"
     = Ok ());
  let _, _, dm = access w c ~user:"dm" ~acl:"system" in
  let _, _, jeh = access w c ~user:"jeh" ~acl:"system" in
  checkb "r on the meta ACL reads it" true
    (Custode.read_acl c ~cert:dm ~id:"empire" = Ok "+jeh=rw");
  checkb "w alone is refused" true (Result.is_error (Custode.read_acl c ~cert:jeh ~id:"empire"))

let test_acl_placement_constraint () =
  (* §5.4.2: the ACL protecting an ACL must reside in the same custode. *)
  let w = make_world () in
  let c = make_custode ~admins:[ "root" ] w "FFC" in
  let _, _, root_cert = access w c ~user:"root" ~acl:"system" in
  checkb "remote meta rejected" true
    (Result.is_error
       (Custode.create_acl c ~cert:root_cert ~id:"bad" ~entries:"+x=r" ~meta:"elsewhere"))

let test_volatile_acl_revokes_on_modify () =
  (* §5.5.2: modifying an ACL revokes certificates issued under it. *)
  let w = make_world () in
  let c = make_custode ~admins:[ "root" ] w "FFC" in
  let _, _, root_cert = access w c ~user:"root" ~acl:"system" in
  ignore (Custode.create_acl c ~cert:root_cert ~id:"empire" ~entries:"+jeh=rw" ~meta:"system");
  let jeh_vci, _, jeh = access w c ~user:"jeh" ~acl:"empire" in
  checkb "valid" true (Service.validate (Custode.service c) ~client:jeh_vci jeh = Ok ());
  ignore (Custode.modify_acl c ~cert:root_cert ~id:"empire" ~entries:"+jeh=r");
  checkb "revoked after ACL change" true
    (Service.validate (Custode.service c) ~client:jeh_vci jeh = Error Service.Revoked);
  let _, _, jeh2 = access w c ~user:"jeh" ~acl:"empire" in
  checkb "fresh cert has new rights" true (jeh2.Cert.args = [ V.Str "empire"; V.Set "r" ])

let test_group_revocation_cascades_to_files () =
  let w = make_world () in
  let c = make_custode ~admins:[ "root" ] w "FFC" in
  let _, _, root_cert = access w c ~user:"root" ~acl:"system" in
  ignore (Custode.create_acl c ~cert:root_cert ~id:"empire" ~entries:"+%staff=rw" ~meta:"system");
  Group.add (Service.group (Custode.service c) "staff") (V.Str "dm");
  let dm_vci, _, dm = access w c ~user:"dm" ~acl:"empire" in
  checkb "valid" true (Service.validate (Custode.service c) ~client:dm_vci dm = Ok ());
  Group.remove (Service.group (Custode.service c) "staff") (V.Str "dm");
  checkb "fired from staff, access revoked" true
    (Service.validate (Custode.service c) ~client:dm_vci dm = Error Service.Revoked)

let test_logout_cascades_to_files () =
  let w = make_world () in
  let c = make_custode ~admins:[ "root" ] w "FFC" in
  let _, _, root_cert = access w c ~user:"root" ~acl:"system" in
  ignore (Custode.create_acl c ~cert:root_cert ~id:"p" ~entries:"+dm=rw" ~meta:"system");
  let dm_vci, dm_login, dm = access w c ~user:"dm" ~acl:"p" in
  run w 3.0;
  checkb "valid" true (Service.validate (Custode.service c) ~client:dm_vci dm = Ok ());
  Service.revoke_certificate w.login dm_login;
  run w 3.0;
  checkb "file access revoked on logout" true
    (Service.validate (Custode.service c) ~client:dm_vci dm <> Ok ())

(* --- files --- *)

let with_project_custode f =
  let w = make_world () in
  let c = make_custode ~admins:[ "root" ] w "FFC" in
  let _, _, root_cert = access w c ~user:"root" ~acl:"system" in
  ignore (Custode.create_acl c ~cert:root_cert ~id:"proj" ~entries:"+dm=adrwx +%staff=r" ~meta:"system");
  f w c root_cert

let test_file_lifecycle () =
  with_project_custode (fun w c _root ->
      let dm_vci, _, dm = access w c ~user:"dm" ~acl:"proj" in
      let fid = Result.get_ok (Custode.create_file c ~cert:dm ~acl:"proj" ()) in
      checkb "write" true (Custode.write_file c ~cert:dm ~file:fid "contents" = Ok ());
      checkb "read" true (Custode.read_file c ~cert:dm ~file:fid = Ok "contents");
      (match Custode.stat_file c ~cert:dm ~file:fid with
      | Ok (acl, kind) ->
          checks "acl" "proj" acl;
          checkb "flat" true (kind = Types.Flat)
      | Error e -> Alcotest.failf "stat: %s" e);
      checkb "delete" true (Custode.delete_file c ~cert:dm ~file:fid = Ok ());
      checkb "gone" true (Result.is_error (Custode.read_file c ~cert:dm ~file:fid));
      ignore dm_vci)

let test_file_rights_enforced () =
  with_project_custode (fun w c _root ->
      Group.add (Service.group (Custode.service c) "staff") (V.Str "bob");
      let _, _, dm = access w c ~user:"dm" ~acl:"proj" in
      let fid = Result.get_ok (Custode.create_file c ~cert:dm ~acl:"proj" ()) in
      ignore (Custode.write_file c ~cert:dm ~file:fid "secret");
      let _, _, bob = access w c ~user:"bob" ~acl:"proj" in
      checkb "staff read ok" true (Custode.read_file c ~cert:bob ~file:fid = Ok "secret");
      checkb "staff write denied" true
        (Result.is_error (Custode.write_file c ~cert:bob ~file:fid "vandalism"));
      checkb "staff cannot create" true
        (Result.is_error (Custode.create_file c ~cert:bob ~acl:"proj" ())))

let test_shared_acl_covers_many_files () =
  (* §5.4: one certificate covers every file under the ACL. *)
  with_project_custode (fun w c _root ->
      let _, _, dm = access w c ~user:"dm" ~acl:"proj" in
      let files =
        List.init 20 (fun _ -> Result.get_ok (Custode.create_file c ~cert:dm ~acl:"proj" ()))
      in
      List.iter
        (fun fid -> checkb "covered" true (Custode.write_file c ~cert:dm ~file:fid "x" = Ok ()))
        files;
      checki "two ACLs for 22 files" 2 (Custode.acl_count c))

let test_structured_files () =
  with_project_custode (fun w c _root ->
      let _, _, dm = access w c ~user:"dm" ~acl:"proj" in
      let parent =
        Result.get_ok (Custode.create_file c ~cert:dm ~acl:"proj" ~kind:Types.Structured ())
      in
      let child = Result.get_ok (Custode.create_file c ~cert:dm ~acl:"proj" ()) in
      let ref_ = { Types.fr_custode = Custode.name c; fr_id = child } in
      checkb "add child" true (Custode.add_child c ~cert:dm ~file:parent ref_ = Ok ());
      checkb "children listed" true (Custode.children c ~cert:dm ~file:parent = Ok [ ref_ ]);
      let flat = Result.get_ok (Custode.create_file c ~cert:dm ~acl:"proj" ()) in
      checkb "flat refuses children" true
        (Result.is_error (Custode.add_child c ~cert:dm ~file:flat ref_)))

let test_continuous_media_ops () =
  (* §5.3.1: continuous media protect play/record, not generic read/write
     semantics; a flat file refuses them. *)
  with_project_custode (fun w c _root ->
      let _, _, dm = access w c ~user:"dm" ~acl:"proj" in
      let media =
        Result.get_ok (Custode.create_file c ~cert:dm ~acl:"proj" ~kind:Types.Continuous ())
      in
      checkb "record" true (Custode.record_file c ~cert:dm ~file:media "AUDIO" = Ok ());
      checkb "play" true (Custode.play_file c ~cert:dm ~file:media = Ok "AUDIO");
      Group.add (Service.group (Custode.service c) "staff") (V.Str "bob");
      let _, _, bob = access w c ~user:"bob" ~acl:"proj" in
      checkb "staff plays" true (Custode.play_file c ~cert:bob ~file:media = Ok "AUDIO");
      checkb "staff cannot record" true
        (Result.is_error (Custode.record_file c ~cert:bob ~file:media "x"));
      let flat = Result.get_ok (Custode.create_file c ~cert:dm ~acl:"proj" ()) in
      checkb "flat refuses play" true (Result.is_error (Custode.play_file c ~cert:dm ~file:flat)))

let test_container_accounting () =
  with_project_custode (fun w c _root ->
      let _, _, dm = access w c ~user:"dm" ~acl:"proj" in
      let f1 = Result.get_ok (Custode.create_file c ~cert:dm ~acl:"proj" ~container:"acct" ()) in
      ignore (Custode.write_file c ~cert:dm ~file:f1 "12345");
      let files, bytes = Custode.container_usage c "acct" in
      checki "one file" 1 files;
      checki "five bytes" 5 bytes)

let test_backed_custode_uses_segments () =
  let w = make_world () in
  let bsc = Result.get_ok (Byte_segment.create w.net (add_host w) w.reg ~name:"BSC") in
  let c = make_custode ~admins:[ "root" ] ~backing:bsc w "FFC" in
  let _, _, root_cert = access w c ~user:"root" ~acl:"system" in
  ignore (Custode.create_acl c ~cert:root_cert ~id:"p" ~entries:"+dm=rw" ~meta:"system");
  let _, _, dm = access w c ~user:"dm" ~acl:"p" in
  let fid = Result.get_ok (Custode.create_file c ~cert:dm ~acl:"p" ()) in
  checkb "write through" true (Custode.write_file c ~cert:dm ~file:fid "backed data" = Ok ());
  checkb "read through" true (Custode.read_file c ~cert:dm ~file:fid = Ok "backed data");
  checkb "segment allocated below" true (Byte_segment.segment_count bsc >= 1)

(* --- per-file delegation (§5.4.3) --- *)

let test_delegate_file_access () =
  with_project_custode (fun w c _root ->
      let _, _, dm = access w c ~user:"dm" ~acl:"proj" in
      let fid = Result.get_ok (Custode.create_file c ~cert:dm ~acl:"proj" ()) in
      ignore (Custode.write_file c ~cert:dm ~file:fid "for the printer");
      let printer = fresh_vci () in
      let result = ref None in
      Custode.delegate_file_access c ~client_host:w.client_host ~holder:dm ~file:fid ~rights:"r"
        ~candidate:printer () (fun r -> result := Some r);
      run w 2.0;
      let usefile, rcert =
        match !result with
        | Some (Ok x) -> x
        | Some (Error e) -> Alcotest.failf "delegate: %s" e
        | None -> Alcotest.fail "no reply"
      in
      checkb "printer reads one file" true
        (Custode.read_file c ~cert:usefile ~file:fid = Ok "for the printer");
      checkb "but cannot write" true
        (Result.is_error (Custode.write_file c ~cert:usefile ~file:fid "x"));
      let done_ = ref None in
      Service.request_revocation (Custode.service c) ~client_host:w.client_host rcert (fun r ->
          done_ := Some r);
      run w 2.0;
      checkb "revocation ok" true (!done_ = Some (Ok ()));
      checkb "printer blocked" true (Result.is_error (Custode.read_file c ~cert:usefile ~file:fid)))

let test_delegate_cannot_exceed_rights () =
  with_project_custode (fun w c _root ->
      Group.add (Service.group (Custode.service c) "staff") (V.Str "bob");
      let _, _, bob = access w c ~user:"bob" ~acl:"proj" in
      let _, _, dm = access w c ~user:"dm" ~acl:"proj" in
      let fid = Result.get_ok (Custode.create_file c ~cert:dm ~acl:"proj" ()) in
      let result = ref None in
      Custode.delegate_file_access c ~client_host:w.client_host ~holder:bob ~file:fid ~rights:"w"
        ~candidate:(fresh_vci ()) () (fun r -> result := Some r);
      run w 2.0;
      checkb "refused" true (match !result with Some (Error _) -> true | _ -> false))

let test_delegated_cert_dies_with_acl () =
  with_project_custode (fun w c root ->
      let _, _, dm = access w c ~user:"dm" ~acl:"proj" in
      let fid = Result.get_ok (Custode.create_file c ~cert:dm ~acl:"proj" ()) in
      let result = ref None in
      Custode.delegate_file_access c ~client_host:w.client_host ~holder:dm ~file:fid ~rights:"r"
        ~candidate:(fresh_vci ()) () (fun r -> result := Some r);
      run w 2.0;
      let usefile, _ = match !result with Some (Ok x) -> x | _ -> Alcotest.fail "delegate" in
      ignore (Custode.modify_acl c ~cert:root ~id:"proj" ~entries:"+dm=r");
      checkb "ACL change kills delegated cert" true
        (Result.is_error (Custode.read_file c ~cert:usefile ~file:fid)))

(* --- VAC stacks and bypassing (§5.6) --- *)

let build_stack w ~depth =
  let bottom = make_custode ~admins:[ "root" ] w "Bottom" in
  let _, _, root_cert = access w bottom ~user:"root" ~acl:"system" in
  ignore (Custode.create_acl bottom ~cert:root_cert ~id:"vacdata" ~entries:"+vac0=adrwx" ~meta:"system");
  let _, _, bottom_cert = access w bottom ~user:"vac0" ~acl:"vacdata" in
  let file = Result.get_ok (Custode.create_file bottom ~cert:bottom_cert ~acl:"vacdata" ()) in
  ignore (Custode.write_file bottom ~cert:bottom_cert ~file "stack data");
  let rec build i below below_cert =
    if i > depth then (below, below_cert)
    else
      let name = Printf.sprintf "Vac%d" i in
      let vac =
        Result.get_ok (Vac.create w.net (add_host w) w.reg ~name ~below ~below_cert)
      in
      let client = fresh_vci () in
      let cert = Vac.grant vac ~client in
      build (i + 1) (Vac.Below_vac vac) cert
  in
  match build 1 (Vac.Below_custode bottom) bottom_cert with
  | Vac.Below_vac top, top_cert -> (bottom, top, top_cert, file)
  | _ -> Alcotest.fail "stack of depth 0"

let test_vac_stack_read () =
  let w = make_world () in
  let _, top, top_cert, file = build_stack w ~depth:3 in
  checki "stack depth" 4 (Vac.depth top);
  let result = ref None in
  Vac.read top ~client_host:w.client_host ~cert:top_cert ~file (fun r -> result := Some r);
  run w 3.0;
  checkb "read through stack" true (!result = Some (Ok "stack data"))

let test_vac_search_added_value () =
  let w = make_world () in
  let _, top, top_cert, file = build_stack w ~depth:1 in
  let done_ = ref None in
  Vac.write top ~client_host:w.client_host ~cert:top_cert ~file "hello indexed world"
    (fun r -> done_ := Some r);
  run w 3.0;
  checkb "write ok" true (!done_ = Some (Ok ()));
  let found = ref None in
  Vac.search top ~client_host:w.client_host ~cert:top_cert "indexed" (fun r -> found := Some r);
  run w 3.0;
  checkb "search finds file" true (!found = Some (Ok [ file ]))

let test_vac_rejects_foreign_cert () =
  let w = make_world () in
  let _, top, _top_cert, file = build_stack w ~depth:1 in
  let _bogus_holder, bogus = logged_on w "eve" in
  let result = ref None in
  Vac.read top ~client_host:w.client_host ~cert:bogus ~file (fun r -> result := Some r);
  run w 3.0;
  checkb "foreign cert refused" true (match !result with Some (Error _) -> true | _ -> false)

let test_bypass_cold_and_warm () =
  let w = make_world () in
  let bottom, top, top_cert, file = build_stack w ~depth:3 in
  let bp = Bypass.create bottom in
  Bypass.register_route bp ~top;
  let read () =
    let result = ref None in
    Bypass.read bp ~client_host:w.client_host ~cert:top_cert ~file (fun r -> result := Some r);
    run w 3.0;
    !result
  in
  checkb "cold bypass read" true (read () = Some (Ok "stack data"));
  checki "one callback" 1 (Bypass.callbacks_made bp);
  checkb "warm bypass read" true (read () = Some (Ok "stack data"));
  checki "no further callbacks (cached)" 1 (Bypass.callbacks_made bp);
  checki "one cache entry" 1 (Bypass.cache_size bp)

let test_bypass_revocation_respected () =
  (* fig 5.8: if a credential changes, the bottom custode learns by event
     notification and stops honouring the bypassed certificate. *)
  let w = make_world () in
  let bottom, top, top_cert, file = build_stack w ~depth:2 in
  let bp = Bypass.create bottom in
  Bypass.register_route bp ~top;
  let read () =
    let result = ref None in
    Bypass.read bp ~client_host:w.client_host ~cert:top_cert ~file (fun r -> result := Some r);
    run w 3.0;
    !result
  in
  checkb "works" true (read () = Some (Ok "stack data"));
  Vac.revoke_grants top;
  run w 3.0;
  checkb "revoked cert refused at bottom" true
    (match read () with Some (Error _) -> true | _ -> false)

let test_bypass_no_route () =
  let w = make_world () in
  let bottom, _top, top_cert, file = build_stack w ~depth:1 in
  let bp = Bypass.create bottom in
  let result = ref None in
  Bypass.read bp ~client_host:w.client_host ~cert:top_cert ~file (fun r -> result := Some r);
  run w 3.0;
  checkb "no route refused" true (match !result with Some (Error _) -> true | _ -> false)

let () =
  Alcotest.run "mssa"
    [
      ( "byte-segment",
        [
          Alcotest.test_case "read write" `Quick test_byte_segment_rw;
          Alcotest.test_case "isolation" `Quick test_byte_segment_isolation;
        ] );
      ( "shared-acl",
        [
          Alcotest.test_case "grant rights" `Quick test_acl_grant_rights;
          Alcotest.test_case "meta access control" `Quick test_acl_meta_access_control;
          Alcotest.test_case "read needs meta r" `Quick test_acl_read_needs_meta_read;
          Alcotest.test_case "placement constraint" `Quick test_acl_placement_constraint;
          Alcotest.test_case "volatile acl" `Quick test_volatile_acl_revokes_on_modify;
          Alcotest.test_case "group cascade" `Quick test_group_revocation_cascades_to_files;
          Alcotest.test_case "logout cascade" `Quick test_logout_cascades_to_files;
        ] );
      ( "files",
        [
          Alcotest.test_case "lifecycle" `Quick test_file_lifecycle;
          Alcotest.test_case "rights enforced" `Quick test_file_rights_enforced;
          Alcotest.test_case "shared acl covers many" `Quick test_shared_acl_covers_many_files;
          Alcotest.test_case "structured files" `Quick test_structured_files;
          Alcotest.test_case "container accounting" `Quick test_container_accounting;
          Alcotest.test_case "continuous media" `Quick test_continuous_media_ops;
          Alcotest.test_case "backed by segments" `Quick test_backed_custode_uses_segments;
        ] );
      ( "delegation",
        [
          Alcotest.test_case "delegate file access" `Quick test_delegate_file_access;
          Alcotest.test_case "cannot exceed rights" `Quick test_delegate_cannot_exceed_rights;
          Alcotest.test_case "dies with acl" `Quick test_delegated_cert_dies_with_acl;
        ] );
      ( "vac",
        [
          Alcotest.test_case "stack read" `Quick test_vac_stack_read;
          Alcotest.test_case "search added value" `Quick test_vac_search_added_value;
          Alcotest.test_case "rejects foreign cert" `Quick test_vac_rejects_foreign_cert;
        ] );
      ( "bypass",
        [
          Alcotest.test_case "cold and warm" `Quick test_bypass_cold_and_warm;
          Alcotest.test_case "revocation respected" `Quick test_bypass_revocation_respected;
          Alcotest.test_case "no route" `Quick test_bypass_no_route;
        ] );
    ]
