(** Certificate formats (figs 4.2 and 4.3) and their signing payloads.

    A role membership certificate (RMC) names its holder (a VCI), the
    issuing service instance and rolefile, a {e set} of roles (compound
    certificates represent several roles with identical arguments, §4.3),
    the marshalled arguments, a credential record reference used for
    revocation (§4.6) and a variable-length signature.

    Delegation and revocation certificates implement the two-sided
    delegation protocol of §4.4: the delegator obtains a delegation
    certificate (and a matching revocation certificate); the candidate
    presents the delegation certificate, plus certificates for the
    {e required roles} the delegator named, to enter the role. *)

type value = Oasis_rdl.Value.t

type rmc = {
  holder : Principal.vci;
  service : string;  (** issuing service instance *)
  rolefile : string;
  roles : Oasis_util.Bitset.t;  (** bits under the service's role mapping *)
  args : value list;
  crr : Credrec.cref;  (** credential record reference *)
  issued_at : float;
  rmc_sig : string;
}

type delegation = {
  d_service : string;
  d_rolefile : string;
  d_role : string;  (** role the candidate may enter *)
  d_required : (string * string * value list) list;
      (** roles the candidate must hold: (issuing service, role, args);
          arguments may include [Value.Str "*"] wildcards *)
  d_crr : Credrec.cref;  (** the delegation's own credential record *)
  d_delegator_crr : Credrec.cref;  (** delegator's membership record *)
  d_delegator_role : string;  (** elector role the delegation was made under *)
  d_delegator_args : value list;
      (** the elector role's arguments — election statements may bind head
          variables from them (e.g. [Member(q)] in the golf-club example,
          §3.4.5) *)
  d_expires : float option;
  d_sig : string;
}

type revocation = {
  r_service : string;
  r_role : string;
      (** the delegating (elector) role; the fixed policy of §4.4 allows the
          right to revoke to be passed only to another member of it *)
  r_delegator_crr : Credrec.cref;
      (** checked at revocation time: the delegator must still hold the
          delegating role (fig 4.3) *)
  r_target_crr : Credrec.cref;  (** the credential to invalidate *)
  r_sig : string;
}

val rmc_payload : rmc -> string
(** The bytes protected by the RMC signature: holder, service, rolefile,
    role bits, marshalled args, CRR (fig 4.1: a change to any of these
    invalidates the signature). *)

val delegation_payload : delegation -> string
val revocation_payload : revocation -> string

val sign_rmc : Oasis_util.Signing.Rolling.t -> length:int -> rmc -> rmc

val verify_rmc : ?length:int -> Oasis_util.Signing.Rolling.t -> rmc -> bool
(** [length] is the signature length the verifying service is configured
    for (default 16); signatures of any other length — e.g. truncated ones
    — are rejected regardless of content. *)

val verify_rmc_payload :
  ?length:int -> Oasis_util.Signing.Rolling.t -> payload:string -> rmc -> bool
(** {!verify_rmc} with the payload already rendered: [payload] must be
    [rmc_payload c].  A caller that keys a cache on the payload checks the
    signature without rendering it a second time. *)

val sign_delegation : Oasis_util.Signing.Rolling.t -> length:int -> delegation -> delegation
val verify_delegation : ?length:int -> Oasis_util.Signing.Rolling.t -> delegation -> bool

val sign_revocation : Oasis_util.Signing.Rolling.t -> length:int -> revocation -> revocation
val verify_revocation : ?length:int -> Oasis_util.Signing.Rolling.t -> revocation -> bool

val has_role : role_bits:(string * int) list -> rmc -> string -> bool
(** Does the certificate embody the named role under the issuing service's
    role-bit mapping? *)

val pp_rmc : Format.formatter -> rmc -> unit
