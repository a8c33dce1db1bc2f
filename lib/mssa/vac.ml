module Value = Oasis_rdl.Value
module Net = Oasis_sim.Net
module Service = Oasis_core.Service
module Cert = Oasis_core.Cert
module Credrec = Oasis_core.Credrec

type t = {
  v_net : Net.t;
  v_host : Net.host;
  v_service : Service.t;
  v_below : below;
  v_below_cert : Cert.rmc;
  mutable v_grant_record : Credrec.cref;
  v_index : (string, int list) Hashtbl.t;
}

and below = Below_custode of Custode.t | Below_vac of t

let rolefile = {|
def UseAcl(a, r) a: String r: {adrwx}
|}

let create net host registry ~name ~below ~below_cert =
  match Service.create net host registry ~name ~rolefile () with
  | Error e -> Error e
  | Ok service ->
      let grant_record = Credrec.leaf (Service.table service) () in
      Credrec.set_direct_use (Service.table service) grant_record true;
      Ok
        {
          v_net = net;
          v_host = host;
          v_service = service;
          v_below = below;
          v_below_cert = below_cert;
          v_grant_record = grant_record;
          v_index = Hashtbl.create 64;
        }

let name t = Service.name t.v_service
let service t = t.v_service
let host t = t.v_host
let below_cert t = t.v_below_cert

let rec bottom t =
  match t.v_below with Below_custode c -> c | Below_vac v -> bottom v

let rec bottom_exec_cert t =
  match t.v_below with Below_custode _ -> t.v_below_cert | Below_vac v -> bottom_exec_cert v

let rec depth t = match t.v_below with Below_custode _ -> 2 | Below_vac v -> 1 + depth v

let grant t ~client =
  let table = Service.table t.v_service in
  (* The grant depends on this VAC's own standing below: revocation at any
     level cascades to the VAC's clients.  The below-certificate's record
     lives in another service's table, so mirror it as an external record. *)
  let below_validity =
    Service.import_remote_record t.v_service ~peer:t.v_below_cert.Cert.service
      ~remote:t.v_below_cert.Cert.crr
  in
  let crr =
    Credrec.combine_fresh table [ (t.v_grant_record, false); (below_validity, false) ]
  in
  Service.issue_with_record t.v_service ~client ~roles:[ "UseAcl" ]
    ~args:[ Value.Str "vac"; Value.set_of_chars Types.full_rights ]
    ~crr

let revoke_grants t =
  Credrec.invalidate (Service.table t.v_service) t.v_grant_record;
  let fresh = Credrec.leaf (Service.table t.v_service) () in
  Credrec.set_direct_use (Service.table t.v_service) fresh true;
  t.v_grant_record <- fresh

let check t ~cert =
  match Service.validate t.v_service ~client:cert.Cert.holder ~need_role:"UseAcl" cert with
  | Ok () -> Ok ()
  | Error f -> Error (Format.asprintf "%a" Service.pp_failure f)

(* Forward an operation one level down.  [k] runs back at [t]'s host; every
   hop, down and up, is charged network latency (fig 5.8a). *)
let rec forward_read t ~file k =
  match t.v_below with
  | Below_custode c ->
      Net.rpc t.v_net ~category:"mssa.stack" ~src:t.v_host ~dst:(Custode.host c)
        (fun reply -> reply (Custode.read_file c ~cert:t.v_below_cert ~file))
        k
  | Below_vac v ->
      let reply r =
        Net.send t.v_net ~category:"mssa.stack.reply" ~src:v.v_host ~dst:t.v_host (fun () -> k r)
      in
      Net.send t.v_net ~category:"mssa.stack" ~src:t.v_host ~dst:v.v_host (fun () ->
          match check v ~cert:t.v_below_cert with
          | Error e -> reply (Error e)
          | Ok () -> forward_read v ~file reply)

let rec forward_write t ~file data k =
  match t.v_below with
  | Below_custode c ->
      Net.rpc t.v_net ~category:"mssa.stack" ~src:t.v_host ~dst:(Custode.host c)
        (fun reply -> reply (Custode.write_file c ~cert:t.v_below_cert ~file data))
        k
  | Below_vac v ->
      let reply r =
        Net.send t.v_net ~category:"mssa.stack.reply" ~src:v.v_host ~dst:t.v_host (fun () -> k r)
      in
      Net.send t.v_net ~category:"mssa.stack" ~src:t.v_host ~dst:v.v_host (fun () ->
          match check v ~cert:t.v_below_cert with
          | Error e -> reply (Error e)
          | Ok () -> forward_write v ~file data reply)

let index_words t ~file data =
  String.split_on_char ' ' data
  |> List.iter (fun w ->
         if w <> "" then
           let existing = Option.value ~default:[] (Hashtbl.find_opt t.v_index w) in
           if not (List.mem file existing) then Hashtbl.replace t.v_index w (file :: existing))

let read t ~client_host ~cert ~file k =
  Net.send t.v_net ~category:"mssa.op" ~src:client_host ~dst:t.v_host (fun () ->
      let reply r =
        Net.send t.v_net ~category:"mssa.op.reply" ~src:t.v_host ~dst:client_host (fun () -> k r)
      in
      match check t ~cert with
      | Error e -> reply (Error e)
      | Ok () -> forward_read t ~file reply)

let write t ~client_host ~cert ~file data k =
  Net.send t.v_net ~category:"mssa.op" ~src:client_host ~dst:t.v_host (fun () ->
      let reply r =
        Net.send t.v_net ~category:"mssa.op.reply" ~src:t.v_host ~dst:client_host (fun () -> k r)
      in
      match check t ~cert with
      | Error e -> reply (Error e)
      | Ok () ->
          index_words t ~file data;
          forward_write t ~file data reply)

let search t ~client_host ~cert word k =
  Net.rpc t.v_net ~category:"mssa.op" ~src:client_host ~dst:t.v_host
    (fun reply ->
      match check t ~cert with
      | Error e -> reply (Error e)
      | Ok () -> reply (Ok (Option.value ~default:[] (Hashtbl.find_opt t.v_index word))))
    k
