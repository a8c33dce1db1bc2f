module Net = Oasis_sim.Net
module Service = Oasis_core.Service
module Cert = Oasis_core.Cert
module Credrec = Oasis_core.Credrec

type route = { rt_top : Vac.t; rt_exec : Cert.rmc }

type t = {
  bp_bottom : Custode.t;
  bp_routes : (string, route) Hashtbl.t;  (* top service name -> route *)
  bp_cache : (string, Credrec.cref) Hashtbl.t;  (* cert signature -> mirrored record *)
  mutable bp_callbacks : int;
}

let create bottom =
  { bp_bottom = bottom; bp_routes = Hashtbl.create 4; bp_cache = Hashtbl.create 64; bp_callbacks = 0 }

let register_route t ~top =
  Hashtbl.replace t.bp_routes (Vac.name top) { rt_top = top; rt_exec = Vac.bottom_exec_cert top }

let cache_size t = Hashtbl.length t.bp_cache
let callbacks_made t = t.bp_callbacks

let read t ~client_host ~cert ~file k =
  let bottom = t.bp_bottom in
  let net = Custode.net bottom in
  let bhost = Custode.host bottom in
  Net.send net ~category:"mssa.bypass" ~src:client_host ~dst:bhost (fun () ->
      let reply r =
        Net.send net ~category:"mssa.bypass.reply" ~src:bhost ~dst:client_host (fun () -> k r)
      in
      match Hashtbl.find_opt t.bp_routes cert.Cert.service with
      | None -> reply (Error ("no bypass route for certificates of " ^ cert.Cert.service))
      | Some route -> (
          let execute () = reply (Custode.read_file bottom ~cert:route.rt_exec ~file) in
          (* Warm path: the mirrored credential record answers locally,
             unless a sweep reclaimed it (nothing else holds a surrogate
             only this cache reads), which takes the cold path again. *)
          let table = Service.table (Custode.service bottom) in
          match Hashtbl.find_opt t.bp_cache cert.Cert.rmc_sig with
          | Some local when Credrec.live table local -> (
              match Credrec.state table local with
              | Credrec.True -> execute ()
              | Credrec.False -> reply (Error "certificate revoked")
              | Credrec.Unknown -> reply (Error "certificate state unknown"))
          | _ ->
              (* Cold path: callback to the issuing (top-level) service to
                 validate the cryptographic check (fig 5.8b). *)
              t.bp_callbacks <- t.bp_callbacks + 1;
              let top_service = Vac.service route.rt_top in
              Net.rpc net ~category:"mssa.bypass.callback" ~src:bhost
                ~dst:(Vac.host route.rt_top)
                (fun () ->
                  match Service.validate_for_peer top_service cert with
                  | Ok (_, _, remote_ref) -> Ok remote_ref
                  | Error f -> Error (Format.asprintf "%a" Service.pp_failure f))
                (function
                  | Error e -> reply (Error ("bypass callback: " ^ e))
                  | Ok remote_ref ->
                      let local =
                        Service.import_remote_record (Custode.service bottom)
                          ~peer:cert.Cert.service ~remote:remote_ref
                      in
                      Hashtbl.replace t.bp_cache cert.Cert.rmc_sig local;
                      execute ())))
