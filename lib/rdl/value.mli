(** RDL runtime values.

    Certificate arguments are strongly typed and marshalled into a
    host-independent form so that other services can examine them (§4.3).
    Object identifiers may only be compared for equality, in marshalled form;
    sets marshal to a form permitting equality and subset tests. *)

type t =
  | Int of int
  | Str of string
  | Set of string
      (** Sorted string of distinct element characters, e.g. ["aer"] for the
          rights set [{aer}]. *)
  | Obj of string * string
      (** [(type_name, marshalled_identifier)].  Equality-only semantics. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val set_of_chars : string -> t
(** Normalise (sort, dedup) an arbitrary character string into a [Set]. *)

val normalise_set : string -> string
(** The normalised (sorted, deduplicated) element string itself — what
    [set_of_chars] wraps.  Lets alphabet consumers ({!Ty.Set}) share the
    normalisation without matching on the [Set] constructor. *)

val set_subset : t -> t -> bool
(** [set_subset a b] when both are sets and every element of [a] is in [b].
    Raises [Invalid_argument] on non-set values. *)

val set_union : t -> t -> t
val set_inter : t -> t -> t
val set_diff : t -> t -> t
val set_mem : char -> t -> bool

val marshal : t -> string
(** Stable, host-independent encoding: a tag character then the payload. *)

val add_marshal : Buffer.t -> t -> unit
(** {!marshal}'s bytes, appended to the buffer. *)

val unmarshal : string -> t option

val pp : Format.formatter -> t -> unit
val to_string : t -> string
