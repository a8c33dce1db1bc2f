(** RDL types and unification.

    Argument types are 'Integer', 'String', a set type such as [{rwx}] or the
    name of an object type (§3.2.1).  Types are simple: no sub-typing.  RDL
    provides comprehensive type inference; declaration statements may be
    omitted whenever types are inferable (§3.2.1). *)

type t =
  | Int
  | Str
  | Set of string  (** alphabet of admissible element characters, sorted *)
  | Obj of string  (** object type name *)
  | Var of var ref

and var = Unbound of int | Link of t

val var : int -> t
(** [var n] is a fresh unification variable, printed ['t<n>]: the number
    only names it ({!Infer} numbers from 1 in every rolefile). *)

val repr : t -> t
(** Follow links to the representative. *)

val unify : t -> t -> (unit, string) result
(** Unify two types; set alphabets must be equal. *)

val of_value : Value.t -> t
(** The (ground) type of a runtime value.  A [Set] value's type alphabet is
    its own element set; unification against a declared set type therefore
    uses {!compatible_value} rather than alphabet equality. *)

val compatible_value : t -> Value.t -> bool
(** Does the value inhabit the (resolved) type?  For set types the value's
    elements must be a subset of the alphabet. *)

val is_ground : t -> bool

val equal : t -> t -> bool
(** Structural equality of resolved types (unbound vars equal only to
    themselves). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
