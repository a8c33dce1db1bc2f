module Frame = Oasis_util.Frame
module Net = Oasis_sim.Net
module Value = Oasis_rdl.Value

let shard_port = "oasis.shard"
let router_port = "oasis.router"

(* ------------------------------------------------------------------ *)
(* Wire encoding                                                       *)
(* ------------------------------------------------------------------ *)

(* A request is its op and then its operands, in Frame's field packing.
   A list operand is itself a packing, a role argument is its
   [Value.marshal] form, and an absent option is the empty string (no
   shard id, role name or handle is empty).  A reply is one string: a
   handle, a shard id, a count, or empty. *)

type request =
  | Ping
  | Place of { role : string; args : Value.t list }
  | Bootstrap of {
      shard : int option;
      client : string;
      roles : string list;
      args : Value.t list;
    }
  | Issue of { client : string; role : string; args : Value.t list; creds : string list }
  | Validate of { client : string; handle : string; need_role : string option }
  | Fire of { revoker : string; role : string; args : Value.t list }
  | Rehire of { revoker : string; role : string; args : Value.t list }
  | Exit of { handle : string }

let some_or_empty = function Some s -> s | None -> ""
let args_field args = Frame.fields (List.map Value.marshal args)

let encode req =
  Frame.fields
    (match req with
    | Ping -> [ "ping" ]
    | Place { role; args } -> [ "place"; role; args_field args ]
    | Bootstrap { shard; client; roles; args } ->
        [
          "bootstrap";
          some_or_empty (Option.map string_of_int shard);
          client;
          Frame.fields roles;
          args_field args;
        ]
    | Issue { client; role; args; creds } ->
        [ "issue"; client; role; args_field args; Frame.fields creds ]
    | Validate { client; handle; need_role } ->
        [ "validate"; client; handle; some_or_empty need_role ]
    | Fire { revoker; role; args } -> [ "fire"; revoker; role; args_field args ]
    | Rehire { revoker; role; args } -> [ "rehire"; revoker; role; args_field args ]
    | Exit { handle } -> [ "exit"; handle ])

(* [Some] of the images of [l] when [f] maps every element to [Some]. *)
let all f l =
  List.fold_right
    (fun x acc ->
      match (f x, acc) with Some y, Some l -> Some (y :: l) | _ -> None)
    l (Some [])

let none_if_empty s = if s = "" then None else Some s

(* [None] for anything [encode] does not write, so a malformed request,
   a JSON document among them, is refused before it reaches a handler. *)
let decode s =
  let ( let* ) = Option.bind in
  let values f = Option.bind (Frame.of_fields f) (all Value.unmarshal) in
  match Frame.of_fields s with
  | Some [ "ping" ] -> Some Ping
  | Some [ "place"; role; args_f ] ->
      let* args = values args_f in
      Some (Place { role; args })
  | Some [ "bootstrap"; shard_f; client; roles_f; args_f ] ->
      let* shard =
        if shard_f = "" then Some None else Option.map Option.some (int_of_string_opt shard_f)
      in
      let* roles = Frame.of_fields roles_f in
      let* args = values args_f in
      if roles = [] then None else Some (Bootstrap { shard; client; roles; args })
  | Some [ "issue"; client; role; args_f; creds_f ] ->
      let* args = values args_f in
      let* creds = Frame.of_fields creds_f in
      Some (Issue { client; role; args; creds })
  | Some [ "validate"; client; handle; need_role ] ->
      Some (Validate { client; handle; need_role = none_if_empty need_role })
  | Some [ "fire"; revoker; role; args_f ] ->
      let* args = values args_f in
      Some (Fire { revoker; role; args })
  | Some [ "rehire"; revoker; role; args_f ] ->
      let* args = values args_f in
      Some (Rehire { revoker; role; args })
  | Some [ "exit"; handle ] -> Some (Exit { handle })
  | _ -> None

(* Certificate handles: certificates never cross the wire (a [vci] is
   meaningless outside its host, §2.8, and [Credrec.cref]s are
   table-relative) — the issuing shard keeps the certificate and hands the
   client an opaque handle ["<shard>:<idx>"].  The shard prefix is what
   lets the router route handle-bearing operations to the one table where
   the handle means anything. *)

let handle_to_string ~shard ~idx =
  let b = Buffer.create 16 in
  Oasis_util.Decimal.add_int b shard;
  Buffer.add_char b ':';
  Oasis_util.Decimal.add_int b idx;
  Buffer.contents b

let handle_of_string s =
  match String.index_opt s ':' with
  | None -> None
  | Some i -> (
      match
        ( int_of_string_opt (String.sub s 0 i),
          int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
      with
      | Some shard, Some idx when shard >= 0 && idx >= 0 -> Some (shard, idx)
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Shard server                                                        *)
(* ------------------------------------------------------------------ *)

type shard_server = {
  ss_service : Service.t;
  ss_id : int;
  ss_certs : (int, Cert.rmc) Hashtbl.t;
  mutable ss_next : int;
  ss_vcis : (string, Principal.vci) Hashtbl.t;
  ss_phost : Principal.Host.t;
  ss_pdom : Principal.Host.domain;
}

let vci_for ss client =
  match Hashtbl.find_opt ss.ss_vcis client with
  | Some v -> v
  | None ->
      let v = Principal.Host.new_vci ss.ss_phost ss.ss_pdom in
      Hashtbl.add ss.ss_vcis client v;
      v

let remember ss cert =
  let idx = ss.ss_next in
  ss.ss_next <- idx + 1;
  Hashtbl.add ss.ss_certs idx cert;
  handle_to_string ~shard:ss.ss_id ~idx

let resolve ss handle =
  match handle_of_string handle with
  | Some (shard, idx) when shard = ss.ss_id -> Hashtbl.find_opt ss.ss_certs idx
  | _ -> None

(* An exited certificate's handle goes at once; any other whose record a
   sweep freed goes after that sweep.  A dropped handle is refused as
   unknown, which fails closed like the revoked record it named. *)
let drop_handle ss handle =
  match handle_of_string handle with
  | Some (_, idx) -> Hashtbl.remove ss.ss_certs idx
  | None -> ()

let drop_swept ss =
  let table = Service.table ss.ss_service in
  Hashtbl.filter_map_inplace
    (fun _ (c : Cert.rmc) -> if Credrec.live table c.Cert.crr then Some c else None)
    ss.ss_certs

let shard_handle ss req reply =
  let svc = ss.ss_service in
  let self = Service.host svc in
  let issued = function
    | Error e -> reply (Error e)
    | Ok cert -> reply (Ok (remember ss cert))
  in
  let done_ r = reply (Result.map (fun () -> "") r) in
  match decode req with
  | None -> reply (Error "malformed request")
  | Some Ping -> reply (Ok "")
  | Some (Place _) -> reply (Error "place: the router answers it")
  | Some (Bootstrap { client; roles; args; shard = _ }) ->
      let cert = Service.issue_arbitrary svc ~client:(vci_for ss client) ~roles ~args in
      reply (Ok (remember ss cert))
  | Some (Issue { client; role; args; creds }) -> (
      match all (resolve ss) creds with
      | None -> reply (Error "issue: unknown credential handle")
      | Some creds ->
          Service.request_entry svc ~client_host:self ~client:(vci_for ss client) ~role ~args
            ~creds issued)
  | Some (Validate { client; handle; need_role }) -> (
      match resolve ss handle with
      | None -> reply (Error "validate: unknown handle")
      | Some cert -> (
          match Service.validate svc ~client:(vci_for ss client) ?need_role cert with
          | Ok () -> reply (Ok "")
          | Error f -> reply (Error (Format.asprintf "%a" Service.pp_failure f))))
  | Some (Fire { revoker; role; args }) -> (
      match resolve ss revoker with
      | None -> reply (Error "fire: unknown revoker handle")
      | Some cert ->
          Service.revoke_role_instance svc ~client_host:self ~revoker:cert ~role ~args (fun r ->
              reply (Result.map string_of_int r)))
  | Some (Rehire { revoker; role; args }) -> (
      match resolve ss revoker with
      | None -> reply (Error "rehire: unknown revoker handle")
      | Some cert ->
          Service.reinstate_role_instance svc ~client_host:self ~revoker:cert ~role ~args done_)
  | Some (Exit { handle }) -> (
      match resolve ss handle with
      | None -> reply (Error "exit: unknown handle")
      | Some cert ->
          Service.exit_role svc ~client_host:self cert (fun r ->
              if Result.is_ok r then drop_handle ss handle;
              done_ r))

let serve_shard net service ~shard_id =
  let phost = Principal.Host.create ("clients@" ^ Service.name service) in
  let ss =
    {
      ss_service = service;
      ss_id = shard_id;
      ss_certs = Hashtbl.create 64;
      ss_next = 0;
      ss_vcis = Hashtbl.create 16;
      ss_phost = phost;
      ss_pdom = Principal.Host.boot_domain phost;
    }
  in
  Net.bind net (Service.host service) ~port:shard_port (shard_handle ss);
  Service.on_sweep service (fun () -> drop_swept ss);
  ss

let shard_server_certs ss = Hashtbl.length ss.ss_certs

(* ------------------------------------------------------------------ *)
(* Router                                                              *)
(* ------------------------------------------------------------------ *)

type router = {
  r_net : Net.t;
  r_host : Net.host;
  r_ring : Shard.Ring.t;
  r_shards : string array;  (* wire name of shard [i]'s host *)
}

let router_owner r ~role ~args = Shard.Ring.owner r.r_ring (Shard.route_key ~role ~args)

let forward r ~shard req reply =
  if shard < 0 || shard >= Array.length r.r_shards then
    reply (Error (Printf.sprintf "no such shard: %d" shard))
  else
    Net.call_retry r.r_net ~category:"oasis.router.forward" ~src:r.r_host
      ~dst:r.r_shards.(shard) ~port:shard_port req reply

let router_handle r req reply =
  match decode req with
  | None -> reply (Error "malformed request")
  | Some Ping -> reply (Ok "")
  | Some (Place { role; args }) -> reply (Ok (string_of_int (router_owner r ~role ~args)))
  | Some (Bootstrap { shard; roles; args; client = _ }) ->
      (* §4.12 issue outside policy: placement is advisory, so an explicit
         [shard] wins over the ring — how clients colocate prerequisite
         certificates with the instance they will be used on.  [decode]
         refuses an empty role list. *)
      let owner =
        match shard with Some s -> s | None -> router_owner r ~role:(List.hd roles) ~args
      in
      forward r ~shard:owner req reply
  | Some (Issue { role; args; creds; client = _ }) ->
      let owner = router_owner r ~role ~args in
      let colocated h =
        match handle_of_string h with Some (s, _) -> s = owner | None -> false
      in
      if List.for_all colocated creds then forward r ~shard:owner req reply
      else
        reply
          (Error
             (Printf.sprintf
                "credential not colocated with %s's shard %d (handles are \
                 table-relative; bootstrap prerequisites at the owning shard)"
                role owner))
  | Some (Validate { handle; _ } | Exit { handle }) -> (
      match handle_of_string handle with
      | Some (shard, _) -> forward r ~shard req reply
      | None -> reply (Error "need a valid handle"))
  | Some (Fire { revoker; role; args } | Rehire { revoker; role; args }) -> (
      match handle_of_string revoker with
      | None -> reply (Error "need a valid handle")
      | Some (revoker_shard, _) ->
          let owner = router_owner r ~role ~args in
          if revoker_shard = owner then forward r ~shard:owner req reply
          else
            reply
              (Error
                 (Printf.sprintf
                    "revoker certificate lives at shard %d but %s's instance is owned \
                     by shard %d; present a revoker issued at the owning shard"
                    revoker_shard role owner)))

let serve_router net host ~ring ~shards =
  let r = { r_net = net; r_host = host; r_ring = ring; r_shards = shards } in
  Net.bind net host ~port:router_port (router_handle r);
  r

(* ------------------------------------------------------------------ *)
(* Client stubs                                                        *)
(* ------------------------------------------------------------------ *)

module Client = struct
  type t = { c_net : Net.t; c_host : Net.host; c_router : string }

  let create net host ~router = { c_net = net; c_host = host; c_router = router }

  let request c req k =
    Net.call_retry c.c_net ~category:"oasis.client" ~src:c.c_host ~dst:c.c_router
      ~port:router_port (encode req) k

  let unit_reply k r = k (Result.map ignore r)

  let int_reply k = function
    | Error e -> k (Error e)
    | Ok s -> (
        match int_of_string_opt s with
        | Some n -> k (Ok n)
        | None -> k (Error "malformed reply"))

  let ping c k = request c Ping (unit_reply k)
  let place c ~role ~args k = request c (Place { role; args }) (int_reply k)

  let bootstrap c ?shard ~client ~roles ~args k =
    request c (Bootstrap { shard; client; roles; args }) k

  let issue c ~client ~role ~args ~creds k = request c (Issue { client; role; args; creds }) k

  let validate c ~client ~handle ?need_role k =
    request c (Validate { client; handle; need_role }) (unit_reply k)

  let fire c ~revoker ~role ~args k = request c (Fire { revoker; role; args }) (int_reply k)

  let rehire c ~revoker ~role ~args k =
    request c (Rehire { revoker; role; args }) (unit_reply k)

  let exit_role c ~handle k = request c (Exit { handle }) (unit_reply k)
end
