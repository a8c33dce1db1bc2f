module Value = Oasis_rdl.Value

type value = Value.t

module Password = struct
  type t = {
    p_service : Service.t;
    p_secrets : (string * string, string) Hashtbl.t;
    p_issued : (string, Cert.rmc list ref) Hashtbl.t;  (* user -> live certs *)
  }

  let create service =
    { p_service = service; p_secrets = Hashtbl.create 16; p_issued = Hashtbl.create 16 }

  let set_secret t ~user ~key ~secret = Hashtbl.replace t.p_secrets (user, key) secret

  let authenticate t ~client ~user ~key ~secret =
    match Hashtbl.find_opt t.p_secrets (user, key) with
    | Some stored when String.equal stored secret ->
        let cert =
          Service.issue_arbitrary t.p_service ~client ~roles:[ "Passwd" ]
            ~args:[ Value.Str user; Value.Str key ]
        in
        let cell =
          match Hashtbl.find_opt t.p_issued user with
          | Some c -> c
          | None ->
              let c = ref [] in
              Hashtbl.replace t.p_issued user c;
              c
        in
        cell := cert :: !cell;
        Ok cert
    | Some _ | None -> Error "authentication failed"

  let revoke_user t ~user =
    match Hashtbl.find_opt t.p_issued user with
    | None -> ()
    | Some cell ->
        List.iter (Service.revoke_certificate t.p_service) !cell;
        cell := []
end

module Loader = struct
  type t = { l_service : Service.t; l_trusted : (string, unit) Hashtbl.t }

  let create ?(trusted_hosts = []) service =
    let t = { l_service = service; l_trusted = Hashtbl.create 8 } in
    List.iter (fun h -> Hashtbl.replace t.l_trusted h ()) trusted_hosts;
    t

  let certify t ~client ~program =
    let host = (Principal.vci_client client).Principal.host in
    if Hashtbl.mem t.l_trusted host then
      Ok
        (Service.issue_arbitrary t.l_service ~client ~roles:[ "Running" ]
           ~args:[ Value.Str program ])
    else Error ("host " ^ host ^ " is not trusted by the loader")

  let distrust_host t h = Hashtbl.remove t.l_trusted h
end

module Orgroles = struct
  type t = {
    o_service : Service.t;
    o_issued : (string * string, Cert.rmc) Hashtbl.t;  (* (client, org role) -> cert *)
  }

  let create service = { o_service = service; o_issued = Hashtbl.create 16 }

  let assert_role t ~client ~org_role =
    let cert =
      Service.issue_arbitrary t.o_service ~client ~roles:[ "OrgRole" ]
        ~args:[ Value.Str org_role ]
    in
    Hashtbl.replace t.o_issued (Principal.vci_to_string client, org_role) cert;
    Ok cert

  let retract_role t ~client ~org_role =
    let key = (Principal.vci_to_string client, org_role) in
    match Hashtbl.find_opt t.o_issued key with
    | Some cert ->
        Service.revoke_certificate t.o_service cert;
        Hashtbl.remove t.o_issued key
    | None -> ()
end
