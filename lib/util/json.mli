(** Minimal JSON emission and parsing (no external dependency in the image).

    The simulator exports metrics ({!Oasis_sim.Stats}), traces
    ({!Oasis_sim.Trace}) and bench snapshots as JSON.  Each of those used to
    carry its own hand-rolled escaper; this module is the single shared
    emitter, so string escaping has exactly one implementation.

    Parsing exists for exactly one consumer: the model checker's replayable
    counterexample schedules ([oasis_cli explore --replay]).  It is a small
    strict recursive-descent parser over the same {!t}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
      (** Rendered with enough digits to round-trip; non-finite values
          (nan/inf) are emitted as [null], since JSON has no spelling for
          them. *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val escape : string -> string
(** Escape a string for inclusion between double quotes: the quote and
    backslash characters and control characters (with the common short
    forms for newline, carriage return and tab, [\u00XX] otherwise).
    Does not add the surrounding quotes. *)

val to_buffer : Buffer.t -> t -> unit
val to_string : t -> string

val sorted : t -> t
(** The same document with every object's keys sorted (recursively,
    stable for duplicates).  [Obj] emission otherwise preserves field
    order, so emitters that assemble fields in data-dependent order
    produce byte-different documents run to run; the bench snapshots
    ([BENCH_*.json]) are emitted through this so they diff cleanly. *)

val parse : string -> (t, string) result
(** Parse one complete JSON document (strict: no trailing bytes, no
    comments).  Numbers without fraction or exponent parse as [Int]; all
    others as [Float].  Errors carry a byte offset. *)

(** {1 Typed accessors}

    Total helpers for walking parsed documents; each returns [None] on a
    shape mismatch rather than raising. *)

val member : string -> t -> t option
(** First binding of the key in an [Obj]; [None] otherwise. *)

val to_int : t -> int option
val to_float : t -> float option
(** [to_float] also accepts [Int] (promoted). *)

val to_str : t -> string option
val to_list : t -> t list option
