(** SipHash-2-4: a fast keyed pseudo-random function.

    OASIS certificates are protected by a keyed integrity check known only to
    the issuing service (§4.2).  The architecture allows each service to pick
    its own signature function; SipHash-2-4 is the default provided here. *)

type key = { k0 : int64; k1 : int64 }

val key_of_string : string -> key
(** Derive a 128-bit key from an arbitrary string (padded/folded). *)

val key_of_int64s : int64 -> int64 -> key

val hash : key -> string -> int64
(** [hash key msg] is the 64-bit SipHash-2-4 of [msg] under [key]. *)

val hash_sub : key -> string -> int -> int -> int64
(** [hash_sub key s off len] is [hash key (String.sub s off len)], read
    where the bytes lie: nothing is copied, and the call allocates only
    its result.
    @raise Invalid_argument if the range is not within [s]. *)

val hash_hex : key -> string -> string
(** Hexadecimal rendering of {!hash}; 16 characters. *)
