(** Baseline schemes OASIS is evaluated against (DESIGN.md experiments E1
    and E2).

    {b Capability chaining} (fig 4.4, after Redell): delegation indirects
    through the delegator's capability; use requires validating {e every}
    link of the chain, so validation cost grows linearly with delegation
    depth, and revocation breaks the chain at the severed link.

    {b Refresh-based capabilities} (§4.14's comparison with Lampson et al.):
    capabilities carry a lifetime and must be re-requested before expiry, so
    background traffic is proportional to the number of live capabilities
    regardless of whether any revocation happens; revocation latency is
    bounded by the lifetime.

    Both schemes sign with 16-hex-character signatures. *)

type value = Oasis_rdl.Value.t

module Chain : sig
  type issuer

  type cap

  val create_issuer : seed:int64 -> issuer

  val issue : issuer -> holder:string -> role:string -> args:value list -> cap
  (** A root capability. *)

  val delegate : issuer -> cap -> to_:string -> cap
  (** Extend the chain by one link (the issuing service must countersign,
      as in I-Cap). *)

  val validate : issuer -> cap -> bool
  (** Walk and verify the whole chain: O(depth) signature checks. *)

  val revoke : issuer -> cap -> unit
  (** Break the chain at this link: this capability and everything
      delegated from it stop validating. *)

  val depth : cap -> int
  val crypto_checks : issuer -> int
end

module Refresh : sig
  type issuer

  type cap = { rc_holder : string; rc_role : string; rc_expires : float; rc_sig : string }

  val create_issuer : seed:int64 -> Oasis_sim.Net.t -> Oasis_sim.Net.host -> issuer
  (** Capabilities live 5 s. *)

  val issue : issuer -> holder:string -> role:string -> cap

  val valid : issuer -> at:float -> cap -> bool

  val revoke : issuer -> holder:string -> role:string -> unit
  (** Takes effect when the current capability expires (no push). *)

  val start_refresher :
    issuer -> client_host:Oasis_sim.Net.host -> holder:string -> role:string ->
    on_refresh:(cap option -> unit) -> unit
  (** Client-side loop: re-request the capability every 4 s (0.8 of its
      lifetime) over the network (counted in Net stats under ["refresh"]);
      stops when the issuer refuses (revoked). *)
end
