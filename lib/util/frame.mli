(** Checksummed frames: the one byte format under every write-ahead-log
    record, snapshot, replica ship batch and TCP message; and the field
    packing of every message on the wire.

    {v [length: 8 hex][SipHash-2-4 of payload: 16 hex][payload] v}

    Both header fields are lowercase hex ({!Hex.put_int},
    {!Hex.put_int64}).  The checksum key is an already-derived
    {!Siphash.key}; it provides integrity against torn, truncated or
    desynchronized bytes, not secrecy.  The decoders accept exactly the
    headers the encoder writes: any other character in the length field,
    or a checksum that differs from the payload's, makes the frame
    corrupt.

    Frames are written and checked where their bytes lie: a writer puts
    the payload (or its fields) in place, then the header, whose checksum
    is computed over the payload's bytes in the same buffer
    ({!Siphash.hash_sub}); a decoder verifies the checksum in the buffer it
    reads before it copies out a payload or a field.  Every function here
    writes the same bytes for the same input: {!write_fields} is
    [encode key (fields l)], byte for byte. *)

val header : int
(** Header bytes before the payload: 24. *)

val encode : Siphash.key -> string -> string
(** One frame. *)

val encode_all : Siphash.key -> string list -> string
(** The frames of the payloads, in order, in one string. *)

val decode : Siphash.key -> string -> string list
(** Every payload of the longest prefix of well-formed frames: decoding
    stops at the first incomplete or corrupt frame, so a torn or corrupted
    log tail yields the records before it.  Total on arbitrary input. *)

exception Corrupt

(** {1 Field packing}

    The payload format of every message on the wire: a list of byte
    strings, each written as its length in 8 lowercase hex digits and then
    its bytes, with nothing between fields.  It is 8-bit clean, and a field
    may itself be a packing.  It has two users: [Backend_unix] packs its
    RPC envelope (the request and reply frames on a TCP stream) with it,
    and [Remote] packs the requests, and their list operands, that the
    envelope carries. *)

val fields : string list -> string
(** The packing of the fields, in order.  The empty list packs to [""]. *)

val of_fields : string -> string list option
(** Inverse of {!fields}; [None] unless the whole string is a sequence of
    complete fields.  Total on arbitrary input. *)

val split : (string -> int -> int -> 'a) -> string -> int -> int -> 'a list option
(** [split f s off len] reads the packing at [s.[off .. off + len - 1]]
    where it lies: [Some] of [f s o n] for each field in order, the
    field's bytes being [s.[o .. o + n - 1]], or [None] (and no call of
    [f]) unless the range is a sequence of complete fields.  {!of_fields}
    is [split String.sub s 0 (String.length s)].
    @raise Invalid_argument if the range is not within [s]. *)

val field_length : string -> int -> int
(** [field_length s o] is the length of the field whose bytes start at
    [o], one of the offsets a successful {!split} of [s] gave: a field
    of an outer packing can be split in turn, where it lies. *)

val fields_frame_size : string list -> int
(** The bytes {!write_fields} writes for the fields. *)

val write_fields : Siphash.key -> bytes -> int -> string list -> int
(** [write_fields key b off l] writes the frame whose payload is
    [fields l] at [off] in [b] and returns the offset past it: the fields
    first, then the header over them.  [b] must have room for
    [fields_frame_size l] bytes at [off]. *)

(** Frames arriving over a byte stream, in pieces of any size, each
    payload a field packing. *)
module Reader : sig
  type t

  val create : max_len:int -> Siphash.key -> t
  (** [max_len] caps a payload's length: a header claiming more is corrupt
      as soon as it is complete, so a peer cannot make the reader wait for
      (and buffer) an arbitrarily long frame. *)

  val feed : t -> bytes -> int -> int -> unit
  (** [feed t b off n] appends the [n] bytes of [b] at [off]. *)

  val next_fields : t -> string list option
  (** The fields of the next complete frame's payload, or [None] until
      more bytes are fed.  The checksum is verified in the reader's own
      buffer, and the fields are copied out of it: the payload is not
      copied whole.
      @raise Corrupt on a bad header or checksum, or a payload that is not
      a field packing: the stream has lost frame sync and cannot be
      resumed. *)
end
