(** Small bit-sets with a stable marshalled form.

    Certificates carry role memberships as a bit-set (§4.3: "Each role is
    represented by a specific bit") and RDL set-typed arguments marshal to a
    bit-set permitting equality and subset tests (§4.3). *)

type t

val empty : t
val singleton : int -> t
val of_list : int list -> t
val to_list : t -> int list
val add : int -> t -> t
val remove : int -> t -> t
val mem : int -> t -> bool
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool
val is_empty : t -> bool
val cardinal : t -> int
val compare : t -> t -> int

val marshal : t -> string
(** Host-independent encoding (hex of the underlying word). *)

val add_marshal : Buffer.t -> t -> unit
(** {!marshal}'s bytes, appended to the buffer. *)

val unmarshal : string -> t option
(** Strict inverse of {!marshal}: bare hex digits only (no underscores,
    signs or prefixes), rejecting any value with bits above the maximum
    element (62).  [None] on anything {!marshal} could not have produced. *)

val pp : Format.formatter -> t -> unit
