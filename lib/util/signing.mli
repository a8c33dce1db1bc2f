(** Keyed signatures with variable length and rolling secret tables.

    §4.2 lets each service trade signature cost against security: short
    signatures for cheap services, long ones for careful services.  §5.5.1
    describes the MSSA's rolling table of secrets: a new secret is generated
    periodically, older secrets remain valid for verification until retired,
    so compromise of one secret has a bounded window. *)

type secret

val secret_of_string : string -> secret
val fresh_secret : Prng.t -> secret

type signature = string
(** Hexadecimal; length depends on [length] at signing time. *)

val sign : ?length:int -> secret -> string -> signature
(** [sign ~length secret payload] produces a signature of [length] hex
    characters (default 16, i.e. 64 bits; up to 32 by double hashing). *)

val verify : ?length:int -> secret -> string -> signature -> bool
(** [verify ~length secret payload signature] — [length] is the length the
    {e verifier} expects (default 16, matching {!sign}); a signature of any
    other length is rejected.  The expected length is never inferred from
    the signature itself, so a truncated prefix of a valid signature does
    not verify. *)

(** {1 Rolling secret tables} *)

module Rolling : sig
  type t

  val create : Prng.t -> t
  (** A table holding up to 4 live secrets. *)

  val roll : t -> unit
  (** Generate and install a fresh current secret, retiring the oldest if the
      table is full.  Certificates signed with retired secrets no longer
      verify. *)

  val sign : ?length:int -> t -> string -> signature
  (** Sign with the current secret; the signature embeds the secret's index
      so verification can locate it. *)

  val verify : ?length:int -> t -> string -> signature -> bool
  (** Verify against whichever live secret signed it; false if that secret
      has been retired or the signature does not match. *)

  val generation : t -> int
  (** Number of [roll]s performed; useful in tests. *)
end
