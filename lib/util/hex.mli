(** Lowercase hexadecimal: the byte-string codec and the fixed-width
    number fields of the framing and envelope formats.

    The byte-string codec makes arbitrary bytes (marshalled values, role
    arguments) safe to embed between the control-character field
    separators of write-ahead-log records.  The fixed-width helpers render
    and parse the length, checksum and identifier fields of
    {!Frame}, the TCP envelope and {!Signing.Rolling} key ids;
    {!add_int} writes the variable-width fields of record refs and role
    sets, and {!add_fixed8} and {!add_int64} a frame header into a
    device's buffer.  None goes through [Printf].  The frame header's fields (8 digits
    of length, 16 of checksum) are written, parsed and compared one 64-bit
    word at a time; the other widths a digit at a time. *)

val encode : string -> string
(** Two lowercase hex digits per input byte. *)

val decode : string -> string option
(** Inverse of {!encode}; [None] on odd length or non-hex characters
    (either case is accepted). *)

val put_int : bytes -> int -> width:int -> int -> unit
(** [put_int b off ~width n] writes [n] as exactly [width] lowercase hex
    digits at [off], zero-padded: the bytes [Printf.sprintf "%0*x" width n]
    renders.
    @raise Invalid_argument if [n] is negative or needs more than [width]
    digits. *)

val add_int : Buffer.t -> int -> unit
(** [add_int b n] appends [n] in as few lowercase hex digits as it takes:
    the bytes [Printf.sprintf "%x" n] renders (a negative [n] as its
    unsigned 63-bit word). *)

val of_int : width:int -> int -> string
(** {!put_int} into a fresh string of length [width]. *)

val get_int : string -> int -> width:int -> int
(** [get_int s off ~width] parses the [width] characters at [off]
    ([width <= 15]) as a hex number, accepting only the digits {!put_int}
    writes ([0-9a-f]); [-1] if any character is anything else, uppercase
    included. *)

val put_int64 : bytes -> int -> int64 -> unit
(** Sixteen lowercase hex digits of the 64-bit word at [off]
    ([Printf "%016Lx"]). *)

val add_fixed8 : Buffer.t -> int -> unit
(** [add_fixed8 b n] appends the eight digits [put_int ~width:8] writes.
    @raise Invalid_argument if [n] is negative or needs more than eight
    digits. *)

val add_int64 : Buffer.t -> int64 -> unit
(** Appends the sixteen digits {!put_int64} writes. *)

val equal_int64 : string -> int -> int64 -> bool
(** [equal_int64 s off x]: the 16 characters at [off] are exactly what
    {!put_int64} writes for [x]. *)
