module Value = Oasis_rdl.Value
module Signing = Oasis_util.Signing
module Prng = Oasis_util.Prng
module Net = Oasis_sim.Net
module Engine = Oasis_sim.Engine

type value = Value.t

(* Signature length in hex characters, for both schemes. *)
let sig_length = 16

module Chain = struct
  type cap = {
    c_holder : string;
    c_role : string;
    c_args : value list;
    c_parent : cap option;
    c_sig : string;
  }

  type issuer = {
    i_secret : Signing.secret;
    i_revoked : (string, unit) Hashtbl.t;  (* revoked link signatures *)
    mutable i_crypto : int;
  }

  let create_issuer ~seed =
    {
      i_secret = Signing.fresh_secret (Prng.create seed);
      i_revoked = Hashtbl.create 16;
      i_crypto = 0;
    }

  let payload cap =
    String.concat "\x00"
      [
        cap.c_holder;
        cap.c_role;
        String.concat "\x01" (List.map Value.marshal cap.c_args);
        (match cap.c_parent with Some p -> p.c_sig | None -> "root");
      ]

  let sign issuer cap =
    { cap with c_sig = Signing.sign ~length:sig_length issuer.i_secret (payload cap) }

  let issue issuer ~holder ~role ~args =
    sign issuer { c_holder = holder; c_role = role; c_args = args; c_parent = None; c_sig = "" }

  let delegate issuer cap ~to_ =
    sign issuer { cap with c_holder = to_; c_parent = Some cap; c_sig = "" }

  let rec validate issuer cap =
    issuer.i_crypto <- issuer.i_crypto + 1;
    Signing.verify ~length:sig_length issuer.i_secret (payload cap) cap.c_sig
    && (not (Hashtbl.mem issuer.i_revoked cap.c_sig))
    && match cap.c_parent with None -> true | Some p -> validate issuer p

  let revoke issuer cap = Hashtbl.replace issuer.i_revoked cap.c_sig ()

  let rec depth cap = match cap.c_parent with None -> 1 | Some p -> 1 + depth p

  let crypto_checks issuer = issuer.i_crypto
end

module Refresh = struct
  type cap = { rc_holder : string; rc_role : string; rc_expires : float; rc_sig : string }

  type issuer = {
    r_secret : Signing.secret;
    r_net : Net.t;
    r_host : Net.host;
    r_revoked : (string * string, unit) Hashtbl.t;
  }

  (* A capability's lifetime in seconds. *)
  let lifetime = 5.0

  let create_issuer ~seed net host =
    {
      r_secret = Signing.fresh_secret (Prng.create seed);
      r_net = net;
      r_host = host;
      r_revoked = Hashtbl.create 16;
    }

  let payload c = Printf.sprintf "%s\x00%s\x00%.6f" c.rc_holder c.rc_role c.rc_expires

  let issue issuer ~holder ~role =
    let expires = Engine.now (Net.engine issuer.r_net) +. lifetime in
    let c = { rc_holder = holder; rc_role = role; rc_expires = expires; rc_sig = "" } in
    { c with rc_sig = Signing.sign ~length:sig_length issuer.r_secret (payload c) }

  let valid issuer ~at c =
    at <= c.rc_expires
    && Signing.verify ~length:sig_length issuer.r_secret (payload c) c.rc_sig

  let revoke issuer ~holder ~role = Hashtbl.replace issuer.r_revoked (holder, role) ()

  let start_refresher issuer ~client_host ~holder ~role ~on_refresh =
    let engine = Net.engine issuer.r_net in
    let period = lifetime *. 0.8 in
    let rec refresh () =
      Net.rpc issuer.r_net ~category:"refresh" ~src:client_host ~dst:issuer.r_host
        (fun reply ->
          reply
            (if Hashtbl.mem issuer.r_revoked (holder, role) then Error "revoked"
             else Ok (issue issuer ~holder ~role)))
        (function
          | Ok cap ->
              on_refresh (Some cap);
              Engine.schedule engine ~delay:period refresh
          | Error _ -> on_refresh None)
    in
    refresh ()
end
