(* Digits of [-n] for [n <= 0]: working on the non-positive side keeps
   [min_int], whose negation overflows, in range. *)
let rec add_neg_digits b n =
  if n <= -10 then add_neg_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_neg_digits b n
  end
  else add_neg_digits b (-n)

(* The low [width] digits of [n >= 0], zero-padded. *)
let rec add_padded b n width =
  if width > 0 then begin
    add_padded b (n / 10) (width - 1);
    Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))
  end

(* [%.6f] rounds x * 10^6 to the nearest integer, ties to even.  Below
   4.5e9 the rounded product [m] is under 2^52, so [m]'s fraction [f] is
   exact and [Float.fma x 1e6 (-. m)] is the product's exact error [e]:
   x * 10^6 is exactly [m +. e], and comparing [e] with [0.5 -. f] (also
   exact) decides the rounding, ties included.  [Printf] renders the rest:
   -0.0 and other negatives, nan, the infinities and larger values. *)
let add_fixed6 b x =
  if Float.sign_bit x || not (x < 4.5e9) then Buffer.add_string b (Printf.sprintf "%.6f" x)
  else begin
    let m = x *. 1e6 in
    let e = Float.fma x 1e6 (-.m) in
    let n = Float.to_int m in
    let half = 0.5 -. (m -. Float.of_int n) in
    let n = if e > half || (e = half && n land 1 = 1) then n + 1 else n in
    add_int b (n / 1_000_000);
    Buffer.add_char b '.';
    add_padded b (n mod 1_000_000) 6
  end
