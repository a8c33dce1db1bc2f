(** Checksummed frames: the one byte format under every write-ahead-log
    record, snapshot, replica ship batch and TCP message.

    {v [length: 8 hex][SipHash-2-4 of payload: 16 hex][payload] v}

    Both header fields are lowercase hex ({!Hex.put_int},
    {!Hex.put_int64}).  The checksum key is an already-derived
    {!Siphash.key}; it provides integrity against torn, truncated or
    desynchronized bytes, not secrecy.  The decoders accept exactly the
    headers the encoder writes: any other character in the length field,
    or a checksum that differs from the payload's, makes the frame
    corrupt. *)

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

(** Frames arriving over a byte stream, in pieces of any size. *)
module Reader : sig
  type t

  val create : max_len:int -> Siphash.key -> t
  (** [max_len] caps a payload's length: a header claiming more is corrupt
      as soon as it is complete, so a peer cannot make the reader wait for
      (and buffer) an arbitrarily long frame. *)

  val feed : t -> bytes -> int -> int -> unit
  (** [feed t b off n] appends the [n] bytes of [b] at [off]. *)

  val next : t -> string option
  (** The next complete frame's payload, or [None] until more bytes are
      fed.
      @raise Corrupt on a bad header or checksum: the stream has lost
      frame sync and cannot be resumed. *)
end
