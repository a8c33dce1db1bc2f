type key = { k0 : int64; k1 : int64 }

let key_of_int64s k0 k1 = { k0; k1 }

let key_of_string s =
  (* Fold the string into two 64-bit lanes with a splitmix-style mixer so that
     short human-readable secrets still produce full-width keys. *)
  let g = Prng.create 0x5A17BEEFCAFED00DL in
  let a = ref (Prng.bits64 g) in
  let b = ref (Prng.bits64 g) in
  for i = 0 to String.length s - 1 do
    let x = Int64.of_int (Char.code (String.unsafe_get s i) + (i * 131)) in
    if i land 1 = 0 then a := Int64.mul (Int64.logxor !a x) 0x100000001B3L
    else b := Int64.mul (Int64.logxor !b x) 0xC6A4A7935BD1E995L
  done;
  { k0 = !a; k1 = !b }

let[@inline] rotl x b = Int64.logor (Int64.shift_left x b) (Int64.shift_right_logical x (64 - b))

external get64u : string -> int -> int64 = "%caml_string_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* The little-endian word at [i], unchecked: [hash_sub] checks its range
   once, on entry, rather than at every word. *)
let[@inline] word_le s i = if Sys.big_endian then bswap64 (get64u s i) else get64u s i

(* The state words live in local refs that no closure captures, so the
   native compiler keeps them unboxed: a call allocates only its result.
   Capturing them (say, in a local [sipround] function) would box every
   64-bit step. *)
let hash_sub { k0; k1 } msg off len =
  if off < 0 || len < 0 || off > String.length msg - len then invalid_arg "Siphash.hash_sub";
  let v0 = ref (Int64.logxor k0 0x736f6d6570736575L) in
  let v1 = ref (Int64.logxor k1 0x646f72616e646f6dL) in
  let v2 = ref (Int64.logxor k0 0x6c7967656e657261L) in
  let v3 = ref (Int64.logxor k1 0x7465646279746573L) in
  let nblocks = len / 8 in
  (* The last block: the remaining bytes plus the length in the top byte. *)
  let last = ref (Int64.shift_left (Int64.of_int (len land 0xff)) 56) in
  for i = 0 to (len land 7) - 1 do
    last :=
      Int64.logor !last
        (Int64.shift_left (Int64.of_int (Char.code (String.unsafe_get msg (off + (nblocks * 8) + i)))) (8 * i))
  done;
  (* Passes 0 .. nblocks compress the message words with two rounds each;
     pass nblocks + 1 is the finalisation: v2 ^= 0xff and four rounds, its
     message word 0 leaving v3 and v0 as they are. *)
  for i = 0 to nblocks + 1 do
    let m =
      if i < nblocks then word_le msg (off + (i * 8)) else if i = nblocks then !last else 0L
    in
    if i > nblocks then v2 := Int64.logxor !v2 0xffL;
    v3 := Int64.logxor !v3 m;
    for _ = 1 to if i > nblocks then 4 else 2 do
      v0 := Int64.add !v0 !v1;
      v1 := rotl !v1 13;
      v1 := Int64.logxor !v1 !v0;
      v0 := rotl !v0 32;
      v2 := Int64.add !v2 !v3;
      v3 := rotl !v3 16;
      v3 := Int64.logxor !v3 !v2;
      v0 := Int64.add !v0 !v3;
      v3 := rotl !v3 21;
      v3 := Int64.logxor !v3 !v0;
      v2 := Int64.add !v2 !v1;
      v1 := rotl !v1 17;
      v1 := Int64.logxor !v1 !v2;
      v2 := rotl !v2 32
    done;
    v0 := Int64.logxor !v0 m
  done;
  Int64.logxor (Int64.logxor !v0 !v1) (Int64.logxor !v2 !v3)

let hash key msg = hash_sub key msg 0 (String.length msg)

let hash_hex key msg =
  let b = Bytes.create 16 in
  Hex.put_int64 b 0 (hash key msg);
  Bytes.unsafe_to_string b
