(** Bootstrap and legacy-interworking services (§3.4.1, §3.4.3, §4.12).

    These services issue certificates for reasons {e not} expressed in RDL —
    the auxiliary mechanism without which a client could never acquire its
    first certificate.  Each wraps {!Service.issue_arbitrary} behind a
    domain-specific check. *)

type value = Oasis_rdl.Value.t

(** A central password service (§3.4.3): stores secrets per (user, key) and
    issues [Passwd(user, key)] certificates after a successful exchange. *)
module Password : sig
  type t

  val create : Service.t -> t
  (** Wrap an OASIS service whose rolefile declares
      [def Passwd(u, k) u: String k: String]. *)

  val set_secret : t -> user:string -> key:string -> secret:string -> unit

  val authenticate :
    t -> client:Principal.vci -> user:string -> key:string -> secret:string ->
    (Cert.rmc, string) result
  (** Issues [Passwd(user, key)]; failures are audited as fraud. *)

  val revoke_user : t -> user:string -> unit
  (** Invalidate every live certificate issued for the user (e.g. a
      password change). *)
end

(** A loader service (§3.4.1): a host-local part certifies which program
    image a client runs; the central part rules on the host's integrity and
    issues [Running(program)] certificates. *)
module Loader : sig
  type t

  val create : ?trusted_hosts:string list -> Service.t -> t

  val certify :
    t -> client:Principal.vci -> program:string -> (Cert.rmc, string) result
  (** Succeeds only when the client's host is in the trusted set — the
      central loader's ruling on "the assumed integrity of the client
      host". *)

  val distrust_host : t -> string -> unit
end

(** Organisational-role bridging (§4.12): mirror roles like [manager] or
    [project_leader] held in a non-OASIS scheme as OASIS certificates, and
    revoke them when the foreign scheme says so. *)
module Orgroles : sig
  type t

  val create : Service.t -> t

  val assert_role :
    t -> client:Principal.vci -> org_role:string -> (Cert.rmc, string) result

  val retract_role : t -> client:Principal.vci -> org_role:string -> unit
end
