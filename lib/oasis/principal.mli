(** Client identifiers, virtual client identifiers and protection domains
    (§2.8).

    A client identifier is [(host, id, boot_time)] — unique for all time.
    Hosts supporting multiple protection domains provide {e virtual client
    identifiers} (VCIs): a domain names itself with a VCI per task, and every
    credential acquired is bound to a VCI.  A domain may pass a subset of its
    VCIs to a child domain (the cheap, common form of delegation, §2.8.1);
    a credential bound to a VCI the child was not given is unusable by the
    child {e even if stolen}. *)

type client_id = { host : string; local_id : int; boot_time : int }

val client_id_to_string : client_id -> string
(** ["host:local_id@boot_time"], the integers in decimal. *)

val equal_client_id : client_id -> client_id -> bool

type vci
(** A virtual client identifier: meaningless outside its host. *)

val vci_client : vci -> client_id
val vci_tag : vci -> int
val equal_vci : vci -> vci -> bool
val vci_to_string : vci -> string
(** The client identifier, then ["/v"] and the tag in decimal: the holder
    field of a certificate's signed payload. *)

val add_vci : Buffer.t -> vci -> unit
(** {!vci_to_string}'s bytes, appended to the buffer. *)

(** {1 Host-side domain management} *)

module Host : sig
  type t
  (** The per-host operating-system state managing domains and VCIs. *)

  type domain

  val create : ?boot_time:int -> string -> t
  val name : t -> string

  val boot_domain : t -> domain
  (** The initial protection domain (e.g. the login process). *)

  val new_vci : t -> domain -> vci
  (** Mint a fresh VCI usable by (and only by) this domain. *)

  val fork : t -> domain -> give:vci list -> domain
  (** Create a child domain holding exactly the given VCIs; raises
      [Invalid_argument] if the parent does not hold one of them. *)

  val may_use : t -> domain -> vci -> bool
  (** Can the domain name itself with this VCI?  ([false] for stolen
      VCIs — the enforcement the paper asks of the local OS.) *)

  val delegate_vci : t -> domain -> vci -> to_:domain -> unit
  (** Explicitly share a VCI with another domain (both may then use it). *)
end
