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

let put_int b off ~width n =
  if n < 0 || (width < 16 && n lsr (4 * width) <> 0) then
    invalid_arg "Hex.put_int: value does not fit the width";
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

let rec get_int_from s off width i acc =
  if i = width then acc
  else
    let v = lower_nibble s.[off + i] in
    if v < 0 then -1 else get_int_from s off width (i + 1) ((acc lsl 4) lor v)

let get_int s off ~width = get_int_from s off width 0 0

let put_int64 b off x =
  for i = 0 to 15 do
    Bytes.set b (off + 15 - i)
      digits.[Int64.to_int (Int64.shift_right_logical x (4 * i)) land 15]
  done

(* Digits [i..15] of [x] at [off + i]; top-level recursions like this one
   and [get_int_from] allocate no closure per call. *)
let rec equal_int64_from s off x i =
  i = 16
  || Char.equal s.[off + i]
       digits.[Int64.to_int (Int64.shift_right_logical x (60 - (4 * i))) land 15]
     && equal_int64_from s off x (i + 1)

let equal_int64 s off x = equal_int64_from s off x 0
