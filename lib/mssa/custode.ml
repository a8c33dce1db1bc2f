module Value = Oasis_rdl.Value
module Net = Oasis_sim.Net
module Service = Oasis_core.Service
module Cert = Oasis_core.Cert
module Credrec = Oasis_core.Credrec
module Acl = Oasis_core.Acl
module Group = Oasis_core.Group
module Principal = Oasis_core.Principal

type value = Value.t

type file = {
  f_id : int;
  f_kind : Types.kind;
  f_acl : string;
  f_container : string;
  mutable f_segment : int option;
  mutable f_data : string;
  mutable f_children : Types.file_ref list;
}

type aclrec = {
  a_id : string;
  a_fid : int;
  mutable a_entries : Acl.t;
  a_meta : string;
  mutable a_record : Credrec.cref;
}

type container = { mutable co_files : int; mutable co_bytes : int }

type t = {
  c_net : Net.t;
  c_host : Net.host;
  c_service : Service.t;
  c_registry : Service.registry;
  c_backing : (Byte_segment.t * Cert.rmc) option;
  c_files : (int, file) Hashtbl.t;
  c_acls : (string, aclrec) Hashtbl.t;
  c_containers : (string, container) Hashtbl.t;
  mutable c_next_fid : int;
}

let rolefile =
  {|
def UseAcl(a, r) a: String r: {adrwx}
def UseFile(f, r) f: String r: {adrwx}
|}

let name t = Service.name t.c_service
let service t = t.c_service
let host t = t.c_host
let net t = t.c_net

let container t cname =
  match Hashtbl.find_opt t.c_containers cname with
  | Some c -> c
  | None ->
      let c = { co_files = 0; co_bytes = 0 } in
      Hashtbl.replace t.c_containers cname c;
      c

let table t = Service.table t.c_service

let new_file t ~kind ~acl ~container:cname =
  let id = t.c_next_fid in
  t.c_next_fid <- id + 1;
  let f =
    {
      f_id = id;
      f_kind = kind;
      f_acl = acl;
      f_container = cname;
      f_segment = None;
      f_data = "";
      f_children = [];
    }
  in
  Hashtbl.replace t.c_files id f;
  let co = container t cname in
  co.co_files <- co.co_files + 1;
  f

let install_acl t ~id ~entries ~meta =
  match Acl.parse entries with
  | Error e -> Error e
  | Ok parsed ->
      let f = new_file t ~kind:Types.Acl_file ~acl:meta ~container:"system" in
      f.f_data <- entries;
      let record = Credrec.leaf (table t) () in
      Credrec.set_direct_use (table t) record true;
      Hashtbl.replace t.c_acls id
        { a_id = id; a_fid = f.f_id; a_entries = parsed; a_meta = meta; a_record = record };
      Ok ()

let create net host registry ~name ?(admins = []) ?backing () =
  match Service.create net host registry ~name ~rolefile () with
  | Error e -> Error e
  | Ok service ->
      let backing =
        Option.map
          (fun bsc ->
            (* The custode is itself a client of the byte-segment custode
               below (fig 5.1); it authenticates with its own VCI. *)
            let h = Principal.Host.create (Net.host_name host ^ ".os") in
            let vci = Principal.Host.new_vci h (Principal.Host.boot_domain h) in
            (bsc, Byte_segment.attach bsc ~client:vci))
          backing
      in
      let t =
        {
          c_net = net;
          c_host = host;
          c_service = service;
          c_registry = registry;
          c_backing = backing;
          c_files = Hashtbl.create 64;
          c_acls = Hashtbl.create 16;
          c_containers = Hashtbl.create 8;
          c_next_fid = 0;
        }
      in
      (* Bootstrap "system" ACL: protects itself — a logical cycle that the
         placement constraint makes harmless (fig 5.5). *)
      let admin_entries =
        String.concat " " (("+%admins=" ^ Types.full_rights) :: List.map (fun a -> "+" ^ a ^ "=" ^ Types.full_rights) admins)
      in
      (match install_acl t ~id:"system" ~entries:admin_entries ~meta:"system" with
      | Ok () -> ()
      | Error _ -> assert false);
      Ok t

(* --- rights evaluation against a certificate --- *)

let cert_rights cert =
  (* Both UseAcl(a, r) and UseFile(f, r) carry the rights set as the second
     argument. *)
  match cert.Cert.args with
  | [ _; Value.Set r ] -> Some r
  | _ -> None

let cert_scope cert =
  match cert.Cert.args with [ Value.Str s; _ ] -> Some s | _ -> None

(* Validate a certificate for an operation needing [right] on [file]. *)
let check_file_access t ~cert ~file ~right =
  match Hashtbl.find_opt t.c_files file with
  | None -> Error "no such file"
  | Some f -> (
      let role_needed =
        if Cert.has_role ~role_bits:(Service.role_bits t.c_service) cert "UseAcl" then `Acl
        else if Cert.has_role ~role_bits:(Service.role_bits t.c_service) cert "UseFile" then `File
        else `None
      in
      match role_needed with
      | `None -> Error "certificate embodies no storage role"
      | (`Acl | `File) as which -> (
          match Service.validate t.c_service ~client:cert.Cert.holder cert with
          | Error failure -> Error (Format.asprintf "%a" Service.pp_failure failure)
          | Ok () -> (
              match (cert_scope cert, cert_rights cert) with
              | Some scope, Some rights ->
                  let scope_ok =
                    match which with
                    | `Acl -> String.equal scope f.f_acl
                    | `File -> String.equal scope (string_of_int file)
                  in
                  if not scope_ok then Error "certificate does not cover this file"
                  else if not (String.contains rights right) then
                    Error (Printf.sprintf "right %c not granted" right)
                  else Ok f
              | _ -> Error "malformed certificate arguments")))

let check_acl_admin t ~cert ~acl_id ~right =
  (* Rights over an ACL are governed by its meta ACL (§5.3.2). *)
  match Hashtbl.find_opt t.c_acls acl_id with
  | None -> Error "no such ACL"
  | Some a -> (
      match check_file_access t ~cert ~file:a.a_fid ~right with
      | Ok _ -> Ok a
      | Error e -> Error e)

(* --- ACL management --- *)

let create_acl t ~cert ~id ~entries ~meta =
  if Hashtbl.mem t.c_acls id then Error ("ACL " ^ id ^ " already exists")
  else
    (* Placement constraint (§5.4.2): the protecting ACL must be local. *)
    match Hashtbl.find_opt t.c_acls meta with
    | None -> Error ("meta ACL " ^ meta ^ " does not reside in this custode")
    | Some _ -> (
        match check_acl_admin t ~cert ~acl_id:meta ~right:'a' with
        | Error e -> Error e
        | Ok _ -> install_acl t ~id ~entries ~meta)

let modify_acl t ~cert ~id ~entries =
  match Hashtbl.find_opt t.c_acls id with
  | None -> Error ("no such ACL " ^ id)
  | Some a -> (
      match check_acl_admin t ~cert ~acl_id:a.a_meta ~right:'a' with
      | Error e -> Error e
      | Ok _ -> (
          match Acl.parse entries with
          | Error e -> Error e
          | Ok parsed ->
              a.a_entries <- parsed;
              (Hashtbl.find t.c_files a.a_fid).f_data <- entries;
              (* Volatile ACLs (§5.5.2): retire the record representing
                 certificates issued from the old contents. *)
              Credrec.invalidate (table t) a.a_record;
              let fresh = Credrec.leaf (table t) () in
              Credrec.set_direct_use (table t) fresh true;
              a.a_record <- fresh;
              Ok ()))

let read_acl t ~cert ~id =
  match Hashtbl.find_opt t.c_acls id with
  | None -> Error ("no such ACL " ^ id)
  | Some a -> (
      match check_acl_admin t ~cert ~acl_id:a.a_meta ~right:'r' with
      | Error e -> Error e
      | Ok _ -> Ok (Acl.to_string a.a_entries))

let acl_count t = Hashtbl.length t.c_acls

(* --- access requests --- *)

let request_access t ~client_host ~client ~login ~acl k =
  Net.send t.c_net ~category:"mssa.access" ~size:160 ~src:client_host ~dst:t.c_host (fun () ->
      let reply r =
        Net.send t.c_net ~category:"mssa.access.reply" ~size:160 ~src:t.c_host ~dst:client_host
          (fun () -> k r)
      in
      match Hashtbl.find_opt t.c_acls acl with
      | None -> reply (Error ("no such ACL " ^ acl))
      | Some a -> (
          (* Validate the login certificate with its issuer, mirroring its
             credential record locally (§4.9). *)
          match Service.find_service t.c_registry login.Cert.service with
          | None -> reply (Error ("unknown login service " ^ login.Cert.service))
          | Some issuer ->
              Service.validate_at_issuer t.c_service issuer ~category:"mssa.validate" ~attempts:1
                login (function
                | Error e -> reply (Error ("login certificate: " ^ e))
                | Ok (_roles, args, _remote, login_record) -> (
                    match args with
                    | Value.Str user :: _ ->
                        (* Track which group memberships the grant used so
                           that only those become membership rules. *)
                        let used_groups = ref [] in
                        let in_group g =
                          let member = Group.mem (Service.group t.c_service g) (Value.Str user) in
                          if member && not (List.mem g !used_groups) then
                            used_groups := g :: !used_groups;
                          member
                        in
                        let rights =
                          Acl.rights a.a_entries ~user ~in_group ~full:Types.full_rights
                        in
                        if String.length rights = 0 then
                          reply (Error ("no rights for " ^ user ^ " on ACL " ^ acl))
                        else begin
                          let group_parents =
                            List.map
                              (fun g ->
                                (Group.credential (Service.group t.c_service g) (Value.Str user), false))
                              !used_groups
                          in
                          let crr =
                            Credrec.combine_fresh (table t)
                              ((login_record, false) :: (a.a_record, false) :: group_parents)
                          in
                          let cert =
                            Service.issue_with_record t.c_service ~client
                              ~roles:[ "UseAcl" ]
                              ~args:[ Value.Str acl; Value.Set rights ]
                              ~crr
                          in
                          reply (Ok cert)
                        end
                    | _ -> reply (Error "login certificate carries no user identity")))))

let delegate_file_access t ~client_host ~holder ~file ~rights ~candidate ?expires_in () k =
  Net.send t.c_net ~category:"mssa.delegate" ~size:160 ~src:client_host ~dst:t.c_host (fun () ->
      let reply r =
        Net.send t.c_net ~category:"mssa.delegate.reply" ~size:200 ~src:t.c_host ~dst:client_host
          (fun () -> k r)
      in
      (* The delegator needs the rights being delegated on the file. *)
      let rec check_rights = function
        | [] -> Ok ()
        | c :: rest -> (
            match check_file_access t ~cert:holder ~file ~right:c with
            | Ok _ -> check_rights rest
            | Error e -> Error e)
      in
      match check_rights (List.init (String.length rights) (String.get rights)) with
      | Error e -> reply (Error e)
      | Ok () ->
          let d_crr, rcert =
            Service.mint_delegation_record t.c_service ~delegator_crr:holder.Cert.crr
              ?expires_in ()
          in
          (* The delegated certificate depends on the delegation record and
             the file's ACL record — not on the delegator's own certificate
             (§5.5.2: the elector need no longer be present). *)
          let acl_parent =
            match Hashtbl.find_opt t.c_files file with
            | Some f -> (
                match Hashtbl.find_opt t.c_acls f.f_acl with
                | Some a -> [ (a.a_record, false) ]
                | None -> [])
            | None -> []
          in
          let crr = Credrec.combine_fresh (table t) ((d_crr, false) :: acl_parent) in
          let cert =
            Service.issue_with_record t.c_service ~client:candidate ~roles:[ "UseFile" ]
              ~args:[ Value.Str (string_of_int file); Value.set_of_chars rights ]
              ~crr
          in
          reply (Ok (cert, rcert)))

(* --- file operations --- *)

let create_file t ~cert ~acl ?(container = "default") ?(kind = Types.Flat) () =
  match Hashtbl.find_opt t.c_acls acl with
  | None -> Error ("no such ACL " ^ acl)
  | Some a ->
      (* Creating under an ACL requires 'w' on that ACL's file group: check
         against the ACL itself via a probe on rights. *)
      (match (cert_scope cert, cert_rights cert) with
      | Some scope, Some rights
        when String.equal scope acl && String.contains rights 'w' -> (
          match Service.validate t.c_service ~client:cert.Cert.holder ~need_role:"UseAcl" cert with
          | Error f -> Error (Format.asprintf "%a" Service.pp_failure f)
          | Ok () ->
              let f = new_file t ~kind ~acl:a.a_id ~container in
              Ok f.f_id)
      | _ -> Error "certificate does not grant write under this ACL")

let with_backing t f ~local ~backed =
  match t.c_backing with None -> local () | Some (bsc, cert) -> backed bsc cert f

let read_file t ~cert ~file =
  match check_file_access t ~cert ~file ~right:'r' with
  | Error e -> Error e
  | Ok f ->
      with_backing t f
        ~local:(fun () -> Ok f.f_data)
        ~backed:(fun bsc bcert f ->
          match f.f_segment with
          | None -> Ok ""
          | Some seg -> Byte_segment.read bsc ~cert:bcert ~seg)

let write_file t ~cert ~file data =
  match check_file_access t ~cert ~file ~right:'w' with
  | Error e -> Error e
  | Ok f ->
      let co = container t f.f_container in
      co.co_bytes <- co.co_bytes + String.length data - String.length f.f_data;
      with_backing t f
        ~local:(fun () ->
          f.f_data <- data;
          Ok ())
        ~backed:(fun bsc bcert f ->
          let seg =
            match f.f_segment with
            | Some s -> Ok s
            | None -> (
                match Byte_segment.create_segment bsc ~cert:bcert with
                | Ok s ->
                    f.f_segment <- Some s;
                    Ok s
                | Error e -> Error e)
          in
          match seg with
          | Error e -> Error e
          | Ok seg ->
              f.f_data <- data;
              Byte_segment.write bsc ~cert:bcert ~seg ~off:0 data)

let delete_file t ~cert ~file =
  match check_file_access t ~cert ~file ~right:'d' with
  | Error e -> Error e
  | Ok f ->
      Hashtbl.remove t.c_files file;
      let co = container t f.f_container in
      co.co_files <- co.co_files - 1;
      co.co_bytes <- co.co_bytes - String.length f.f_data;
      Ok ()

let stat_file t ~cert ~file =
  match check_file_access t ~cert ~file ~right:'r' with
  | Error e -> Error e
  | Ok f -> Ok (f.f_acl, f.f_kind)

let continuous_only f =
  if f.f_kind <> Types.Continuous then Error "not a continuous-medium file" else Ok f

let play_file t ~cert ~file =
  match check_file_access t ~cert ~file ~right:'r' with
  | Error e -> Error e
  | Ok f -> (
      match continuous_only f with
      | Error e -> Error e
      | Ok f ->
          with_backing t f
            ~local:(fun () -> Ok f.f_data)
            ~backed:(fun bsc bcert f ->
              match f.f_segment with
              | None -> Ok ""
              | Some seg -> Byte_segment.read bsc ~cert:bcert ~seg))

let record_file t ~cert ~file data =
  match check_file_access t ~cert ~file ~right:'w' with
  | Error e -> Error e
  | Ok f -> (
      match continuous_only f with
      | Error e -> Error e
      | Ok f ->
          f.f_data <- data;
          Ok ())

let add_child t ~cert ~file child =
  match check_file_access t ~cert ~file ~right:'w' with
  | Error e -> Error e
  | Ok f ->
      if f.f_kind <> Types.Structured then Error "not a structured file"
      else begin
        f.f_children <- f.f_children @ [ child ];
        Ok ()
      end

let children t ~cert ~file =
  match check_file_access t ~cert ~file ~right:'r' with
  | Error e -> Error e
  | Ok f -> Ok f.f_children

let container_usage t cname =
  match Hashtbl.find_opt t.c_containers cname with
  | Some c -> (c.co_files, c.co_bytes)
  | None -> (0, 0)
