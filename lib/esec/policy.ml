module Broker = Oasis_events.Broker
module Event = Oasis_events.Event
module Service = Oasis_core.Service
module Cert = Oasis_core.Cert

(* Token conveyance for certificates-in-session-credentials.  The token
   embeds the marshalled payload; a side table recovers the full
   certificate (the simulation's stand-in for wire marshalling). *)
let cert_table : (string, Cert.rmc) Hashtbl.t = Hashtbl.create 64

let token_of_cert cert =
  let token = "cert:" ^ cert.Cert.service ^ ":" ^ cert.Cert.rmc_sig in
  Hashtbl.replace cert_table token cert;
  token

let resolve_token registry token =
  match Hashtbl.find_opt cert_table token with
  | None -> None
  | Some cert -> (
      match Service.find_service registry cert.Cert.service with
      | None -> None
      | Some issuer -> (
          match Service.validate_for_peer issuer cert with
          | Ok (roles, args, _) -> Some (cert.Cert.service, roles, args)
          | Error _ -> None))

let visibility_of registry rules credentials =
  let creds = List.filter_map (resolve_token registry) credentials in
  Erdl.instantiate rules ~creds

let install broker ~registry ~rules =
  Broker.set_admission broker (fun ~credentials ->
      let vis = visibility_of registry rules credentials in
      vis.Erdl.vis_allowed <> []);
  Broker.set_registration_filter broker (fun ~credentials tpl ->
      let vis = visibility_of registry rules credentials in
      Erdl.filter vis tpl)

module Proxy = struct
  type t = {
    p_broker : Broker.server;
    mutable p_session : Broker.session option;
    mutable p_upstream_regs : int;
    mutable p_pending : (unit -> unit) list;
  }

  let broker t = t.p_broker
  let upstream_registrations t = t.p_upstream_regs

  let create net host ~name ~upstream ~registry ~rules ?(heartbeat = 1.0) () =
    let proxy_broker = Broker.create_server net host ~name ~heartbeat () in
    let t =
      {
        p_broker = proxy_broker;
        p_session = None;
        p_upstream_regs = 0;
        p_pending = [];
      }
    in
    Broker.connect net host upstream
      ~credentials:[ "proxy:" ^ name ]
      ~on_result:(fun result ->
        match result with
        | Error _ -> ()
        | Ok session ->
            t.p_session <- Some session;
            List.iter (fun k -> k ()) (List.rev t.p_pending);
            t.p_pending <- [])
      ();
    (* Remote clients are admitted if the exporting site's policy gives them
       any visibility at all; their registrations are narrowed by that
       policy, then mirrored upstream. *)
    Broker.set_admission proxy_broker (fun ~credentials ->
        (visibility_of registry rules credentials).Erdl.vis_allowed <> []);
    Broker.set_registration_filter proxy_broker (fun ~credentials tpl ->
        match Erdl.filter (visibility_of registry rules credentials) tpl with
        | None -> None
        | Some narrowed ->
            let mirror () =
              match t.p_session with
              | None -> ()
              | Some session ->
                  t.p_upstream_regs <- t.p_upstream_regs + 1;
                  (* Strip the source pin: the upstream broker only carries
                     its own events. *)
                  let up_tpl = { narrowed with Event.tsource = None } in
                  ignore
                    (Broker.register session up_tpl (fun e ->
                         ignore
                           (Broker.signal t.p_broker ~stamp:e.Event.stamp e.Event.name
                              (Array.to_list e.Event.params))))
            in
            if t.p_session = None then t.p_pending <- mirror :: t.p_pending else mirror ();
            Some narrowed);
    t
end
