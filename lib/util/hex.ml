let digits = "0123456789abcdef"

let encode s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set b (2 * i) digits.[c lsr 4];
    Bytes.unsafe_set b ((2 * i) + 1) digits.[c land 15]
  done;
  Bytes.unsafe_to_string b

(* The digits [encode] and the fixed-width writers produce; -1 otherwise. *)
let lower_nibble = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | _ -> -1

let nibble = function 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10 | c -> lower_nibble c

let decode s =
  let n = String.length s in
  if n mod 2 <> 0 then None
  else begin
    let b = Bytes.create (n / 2) in
    let rec go i =
      if i >= n then Some (Bytes.unsafe_to_string b)
      else
        let hi = nibble s.[i] and lo = nibble s.[i + 1] in
        if hi < 0 || lo < 0 then None
        else begin
          Bytes.unsafe_set b (i / 2) (Char.unsafe_chr ((hi * 16) + lo));
          go (i + 2)
        end
    in
    go 0
  end

(* The eight lowercase hex digits of the low 32 bits of [x], most
   significant first, as one big-endian word.  Each nibble is spread into
   a byte of its own, then every byte becomes its digit at once: ['0'] is
   added to each, and 39 more (['a' - '0' - 10]) to those over 9.  The
   first digit lands in the top byte, whose bit 6 every letter sets, so
   this is [Int64] arithmetic: in a 63-bit [int] that bit is the sign, and
   widening it would corrupt the byte. *)
let[@inline] word8 x =
  let x = Int64.logand x 0xffffffffL in
  let x = Int64.logor (Int64.shift_left (Int64.logand x 0xffff0000L) 16) (Int64.logand x 0xffffL) in
  let x =
    Int64.logor
      (Int64.shift_left (Int64.logand x 0x0000ff000000ff00L) 8)
      (Int64.logand x 0x000000ff000000ffL)
  in
  let x =
    Int64.logor
      (Int64.shift_left (Int64.logand x 0x00f000f000f000f0L) 4)
      (Int64.logand x 0x000f000f000f000fL)
  in
  let over9 =
    Int64.logand (Int64.shift_right_logical (Int64.add x 0x0606060606060606L) 4) 0x0101010101010101L
  in
  Int64.add (Int64.add x 0x3030303030303030L) (Int64.mul over9 39L)

let put_int b off ~width n =
  if n < 0 || (width < 16 && n lsr (4 * width) <> 0) then
    invalid_arg "Hex.put_int: value does not fit the width";
  if width = 8 then Bytes.set_int64_be b off (word8 (Int64.of_int n))
  else
    for i = 0 to width - 1 do
      Bytes.set b (off + width - 1 - i) digits.[(n lsr (4 * i)) land 15]
    done

(* [lsr] reads a negative [n] as its unsigned 63-bit word, as [%x] does. *)
let rec add_int b n =
  if n lsr 4 <> 0 then add_int b (n lsr 4);
  Buffer.add_char b (String.unsafe_get digits (n land 15))

let of_int ~width n =
  let b = Bytes.create width in
  put_int b 0 ~width n;
  Bytes.unsafe_to_string b

(* Digits [i..width-1] at [off]; top-level recursions like this one
   allocate no closure per call. *)
let rec get_int_from s off width i acc =
  if i = width then acc
  else
    let v = lower_nibble s.[off + i] in
    if v < 0 then -1 else get_int_from s off width (i + 1) ((acc lsl 4) lor v)

(* Eight digits read as one big-endian word and checked and converted a
   byte lane at a time.  With no lane's bit 7 set, adding [0x80 - c] to
   every lane sets a lane's bit 7 exactly when the lane is [>= c], and
   carries into no other lane: so each lane is tested against ['0'..'9']
   and ['a'..'f'] at once.  A digit's value is its low nibble, plus 9 for
   a letter (whose bit 6 is set); the nibbles are then packed pairwise. *)
let get_int8 s off =
  let x = String.get_int64_be s off in
  let digit =
    Int64.logand (Int64.add x 0x5050505050505050L) (Int64.lognot (Int64.add x 0x4646464646464646L))
  and letter =
    Int64.logand (Int64.add x 0x1f1f1f1f1f1f1f1fL) (Int64.lognot (Int64.add x 0x1919191919191919L))
  in
  let lanes = 0x8080808080808080L in
  if Int64.logand x lanes <> 0L || Int64.logand (Int64.logor digit letter) lanes <> lanes then -1
  else
    let v =
      Int64.add
        (Int64.logand x 0x0f0f0f0f0f0f0f0fL)
        (Int64.mul (Int64.logand (Int64.shift_right_logical x 6) 0x0101010101010101L) 9L)
    in
    let v = Int64.logand (Int64.logor v (Int64.shift_right_logical v 4)) 0x00ff00ff00ff00ffL in
    let v = Int64.logand (Int64.logor v (Int64.shift_right_logical v 8)) 0x0000ffff0000ffffL in
    Int64.to_int (Int64.logand (Int64.logor v (Int64.shift_right_logical v 16)) 0xffffffffL)

let get_int s off ~width = if width = 8 then get_int8 s off else get_int_from s off width 0 0

let put_int64 b off x =
  Bytes.set_int64_be b off (word8 (Int64.shift_right_logical x 32));
  Bytes.set_int64_be b (off + 8) (word8 x)

let equal_int64 s off x =
  Int64.equal (String.get_int64_be s off) (word8 (Int64.shift_right_logical x 32))
  && Int64.equal (String.get_int64_be s (off + 8)) (word8 x)
