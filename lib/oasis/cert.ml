module Value = Oasis_rdl.Value
module Bitset = Oasis_util.Bitset
module Signing = Oasis_util.Signing
module Decimal = Oasis_util.Decimal

type value = Value.t

type rmc = {
  holder : Principal.vci;
  service : string;
  rolefile : string;
  roles : Bitset.t;
  args : value list;
  crr : Credrec.cref;
  issued_at : float;
  rmc_sig : string;
}

type delegation = {
  d_service : string;
  d_rolefile : string;
  d_role : string;
  d_required : (string * string * value list) list;
  d_crr : Credrec.cref;
  d_delegator_crr : Credrec.cref;
  d_delegator_role : string;
  d_delegator_args : value list;
  d_expires : float option;
  d_sig : string;
}

type revocation = {
  r_service : string;
  r_role : string;
  r_delegator_crr : Credrec.cref;
  r_target_crr : Credrec.cref;
  r_sig : string;
}

(* Payloads are written field by field into one buffer: no field is
   rendered to a string of its own, and nothing goes through [Printf]
   except {!Decimal.add_fixed6}'s fallback for timestamps outside the
   range it renders exactly. *)

let rec add_args b = function
  | [] -> ()
  | [ v ] -> Value.add_marshal b v
  | v :: rest ->
      Value.add_marshal b v;
      Buffer.add_char b '\x01';
      add_args b rest

let rec add_required b = function
  | [] -> ()
  | (svc, role, args) :: rest ->
      Buffer.add_string b svc;
      Buffer.add_char b '\x01';
      Buffer.add_string b role;
      Buffer.add_char b '\x01';
      add_args b args;
      if rest <> [] then Buffer.add_char b '\x02';
      add_required b rest

let add_field b s =
  Buffer.add_string b s;
  Buffer.add_char b '\x00'

let rmc_payload c =
  let b = Buffer.create 128 in
  Principal.add_vci b c.holder;
  Buffer.add_char b '\x00';
  add_field b c.service;
  add_field b c.rolefile;
  Bitset.add_marshal b c.roles;
  Buffer.add_char b '\x00';
  add_args b c.args;
  Buffer.add_char b '\x00';
  Credrec.add_ref b c.crr;
  Buffer.add_char b '\x00';
  Decimal.add_fixed6 b c.issued_at;
  Buffer.contents b

let delegation_payload d =
  let b = Buffer.create 128 in
  add_field b d.d_service;
  add_field b d.d_rolefile;
  add_field b d.d_role;
  add_required b d.d_required;
  Buffer.add_char b '\x00';
  Credrec.add_ref b d.d_crr;
  Buffer.add_char b '\x00';
  Credrec.add_ref b d.d_delegator_crr;
  Buffer.add_char b '\x00';
  add_field b d.d_delegator_role;
  add_args b d.d_delegator_args;
  Buffer.add_char b '\x00';
  (match d.d_expires with Some e -> Decimal.add_fixed6 b e | None -> Buffer.add_char b '-');
  Buffer.contents b

let revocation_payload r =
  let b = Buffer.create 64 in
  add_field b r.r_service;
  add_field b r.r_role;
  Credrec.add_ref b r.r_delegator_crr;
  Buffer.add_char b '\x00';
  Credrec.add_ref b r.r_target_crr;
  Buffer.contents b

let sign_rmc secrets ~length c =
  { c with rmc_sig = Signing.Rolling.sign ~length secrets (rmc_payload c) }

let verify_rmc_payload ?length secrets ~payload c = Signing.Rolling.verify ?length secrets payload c.rmc_sig
let verify_rmc ?length secrets c = verify_rmc_payload ?length secrets ~payload:(rmc_payload c) c

let sign_delegation secrets ~length d =
  { d with d_sig = Signing.Rolling.sign ~length secrets (delegation_payload d) }

let verify_delegation ?length secrets d =
  Signing.Rolling.verify ?length secrets (delegation_payload d) d.d_sig

let sign_revocation secrets ~length r =
  { r with r_sig = Signing.Rolling.sign ~length secrets (revocation_payload r) }

let verify_revocation ?length secrets r =
  Signing.Rolling.verify ?length secrets (revocation_payload r) r.r_sig

let has_role ~role_bits c role =
  match List.assoc_opt role role_bits with
  | Some bit -> Bitset.mem bit c.roles
  | None -> false

let pp_rmc ppf c =
  Format.fprintf ppf "RMC{%s %s[%s] roles=%a args=(%s) crr=%s}"
    (Principal.vci_to_string c.holder)
    c.service c.rolefile Bitset.pp c.roles
    (String.concat ", " (List.map Value.to_string c.args))
    (Credrec.marshal_ref c.crr)
