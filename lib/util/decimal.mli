(** Decimal renderings written straight into a [Buffer.t]: the integer and
    timestamp fields of signed certificate payloads, principal names and
    handles.  Each writes exactly the bytes of the [Printf] conversion it
    names, without parsing a format. *)

val add_int : Buffer.t -> int -> unit
(** [Printf "%d"]: optional minus sign, no padding. *)

val add_fixed6 : Buffer.t -> float -> unit
(** [Printf "%.6f"], byte for byte, exact ties rounded half to even as the
    C library does.  Finite values in [\[0, 4.5e9)] are rendered here;
    [-0.0], negative, non-finite and larger values go through [Printf]. *)
