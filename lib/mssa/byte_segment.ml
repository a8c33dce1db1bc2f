module Service = Oasis_core.Service
module Cert = Oasis_core.Cert

type t = {
  b_service : Service.t;
  b_segments : (int, Buffer.t) Hashtbl.t;
  b_owners : (int, string) Hashtbl.t;  (* segment -> holder vci string *)
  mutable b_next : int;
}

let rolefile = {|
def Segment(owner) owner: String
|}

let create net host registry ~name =
  match Service.create net host registry ~name ~rolefile () with
  | Error e -> Error e
  | Ok service ->
      Ok { b_service = service; b_segments = Hashtbl.create 64; b_owners = Hashtbl.create 64; b_next = 0 }

let name t = Service.name t.b_service
let service t = t.b_service

let attach t ~client =
  Service.issue_arbitrary t.b_service ~client ~roles:[ "Segment" ]
    ~args:[ Oasis_rdl.Value.Str (Oasis_core.Principal.vci_to_string client) ]

let check t ~cert =
  match Service.validate t.b_service ~client:cert.Cert.holder ~need_role:"Segment" cert with
  | Ok () -> Ok (Oasis_core.Principal.vci_to_string cert.Cert.holder)
  | Error f -> Error (Format.asprintf "segment access: %a" Service.pp_failure f)

let create_segment t ~cert =
  match check t ~cert with
  | Error e -> Error e
  | Ok owner ->
      let id = t.b_next in
      t.b_next <- id + 1;
      Hashtbl.replace t.b_segments id (Buffer.create 64);
      Hashtbl.replace t.b_owners id owner;
      Ok id

let owned t ~owner seg =
  match Hashtbl.find_opt t.b_owners seg with
  | Some o -> String.equal o owner
  | None -> false

let write t ~cert ~seg ~off data =
  match check t ~cert with
  | Error e -> Error e
  | Ok owner -> (
      if not (owned t ~owner seg) then Error "segment not owned by this client"
      else
        match Hashtbl.find_opt t.b_segments seg with
        | None -> Error "no such segment"
        | Some buf ->
            let existing = Buffer.contents buf in
            let len = max (String.length existing) (off + String.length data) in
            let merged =
              String.init len (fun i ->
                  if i >= off && i < off + String.length data then data.[i - off]
                  else if i < String.length existing then existing.[i]
                  else '\x00')
            in
            Buffer.clear buf;
            Buffer.add_string buf merged;
            Ok ())

let read t ~cert ~seg =
  match check t ~cert with
  | Error e -> Error e
  | Ok owner -> (
      if not (owned t ~owner seg) then Error "segment not owned by this client"
      else
        match Hashtbl.find_opt t.b_segments seg with
        | None -> Error "no such segment"
        | Some buf -> Ok (Buffer.contents buf))

let segment_count t = Hashtbl.length t.b_segments
