(* Sets here are tiny (roles in a rolefile, rights characters), so a single
   63-bit word suffices; [singleton] rejects out-of-range elements loudly. *)

type t = int

let max_element = 62

let empty = 0

let check i =
  if i < 0 || i > max_element then invalid_arg (Printf.sprintf "Bitset: element %d out of range" i)

let singleton i =
  check i;
  1 lsl i

let add i s =
  check i;
  s lor (1 lsl i)

let remove i s =
  check i;
  s land lnot (1 lsl i)

let mem i s = i >= 0 && i <= max_element && s land (1 lsl i) <> 0
let of_list l = List.fold_left (fun s i -> add i s) empty l

let to_list s =
  let rec go i acc = if i < 0 then acc else go (i - 1) (if mem i s then i :: acc else acc) in
  go max_element []

let union = ( lor )
let inter = ( land )
let diff a b = a land lnot b
let subset a b = a land lnot b = 0
let equal = Int.equal
let is_empty s = s = 0

let cardinal s =
  let rec go s acc = if s = 0 then acc else go (s lsr 1) (acc + (s land 1)) in
  go s 0

let compare = Int.compare
let add_marshal b s = Hex.add_int b s

let marshal s =
  let b = Buffer.create 16 in
  add_marshal b s;
  Buffer.contents b

(* Strict inverse of [marshal]: bare lowercase/uppercase hex only.
   [int_of_string_opt ("0x" ^ str)] would also accept underscores ("1_0")
   and signs, and silently wrap values wider than the 63-bit word; here any
   non-hex character or any value with bits above [max_element] is rejected,
   so [unmarshal] only ever yields sets [marshal] could have produced. *)
let unmarshal str =
  let n = String.length str in
  if n = 0 || n > 16 then None
  else
    let rec go i acc =
      if i = n then Some acc
      else
        let d =
          match str.[i] with
          | '0' .. '9' as c -> Char.code c - Char.code '0'
          | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
          | _ -> -1
        in
        if d < 0 then None
          (* The next shift must not push anything past bit 62: [acc] still
             having headroom means bits 59..62 are clear. *)
        else if acc lsr 59 <> 0 then None
        else go (i + 1) ((acc lsl 4) lor d)
    in
    go 0 0

let pp ppf s =
  Format.fprintf ppf "{%s}" (String.concat "," (List.map string_of_int (to_list s)))
