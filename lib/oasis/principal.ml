type client_id = { host : string; local_id : int; boot_time : int }

module Decimal = Oasis_util.Decimal

let add_client_id b c =
  Buffer.add_string b c.host;
  Buffer.add_char b ':';
  Decimal.add_int b c.local_id;
  Buffer.add_char b '@';
  Decimal.add_int b c.boot_time

let client_id_to_string c =
  let b = Buffer.create 32 in
  add_client_id b c;
  Buffer.contents b

let equal_client_id a b =
  String.equal a.host b.host && a.local_id = b.local_id && a.boot_time = b.boot_time

type vci = { v_client : client_id; v_tag : int }

let vci_client v = v.v_client
let vci_tag v = v.v_tag
let equal_vci a b = equal_client_id a.v_client b.v_client && a.v_tag = b.v_tag
let add_vci b v =
  add_client_id b v.v_client;
  Buffer.add_string b "/v";
  Decimal.add_int b v.v_tag

let vci_to_string v =
  let b = Buffer.create 32 in
  add_vci b v;
  Buffer.contents b

module Host = struct
  type domain = { d_id : int; mutable d_vcis : int list (* tags *) }

  type t = {
    h_name : string;
    h_boot : int;
    mutable h_next_domain : int;
    mutable h_next_vci : int;
    mutable h_domains : domain list;
  }

  let create ?(boot_time = 1) name =
    let t =
      { h_name = name; h_boot = boot_time; h_next_domain = 0; h_next_vci = 0; h_domains = [] }
    in
    let d = { d_id = 0; d_vcis = [] } in
    t.h_next_domain <- 1;
    t.h_domains <- [ d ];
    t

  let name t = t.h_name

  let boot_domain t = List.nth t.h_domains (List.length t.h_domains - 1)

  let client_of t d = { host = t.h_name; local_id = d.d_id; boot_time = t.h_boot }

  let new_vci t d =
    let tag = t.h_next_vci in
    t.h_next_vci <- tag + 1;
    d.d_vcis <- tag :: d.d_vcis;
    { v_client = client_of t d; v_tag = tag }

  let holds d tag = List.mem tag d.d_vcis

  let fork t parent ~give =
    List.iter
      (fun v ->
        if not (holds parent v.v_tag) then
          invalid_arg "Principal.Host.fork: parent does not hold this VCI")
      give;
    let child = { d_id = t.h_next_domain; d_vcis = List.map (fun v -> v.v_tag) give } in
    t.h_next_domain <- t.h_next_domain + 1;
    t.h_domains <- child :: t.h_domains;
    child

  let may_use t d v = String.equal v.v_client.host t.h_name && holds d v.v_tag

  let delegate_vci t d v ~to_ =
    if not (may_use t d v) then invalid_arg "Principal.Host.delegate_vci: not held";
    if not (holds to_ v.v_tag) then to_.d_vcis <- v.v_tag :: to_.d_vcis
end
