type t = Int of int | Str of string | Set of string | Obj of string * string

let normalise_set s =
  let chars = List.init (String.length s) (String.get s) in
  let sorted = List.sort_uniq Char.compare chars in
  String.init (List.length sorted) (List.nth sorted)

let set_of_chars s = Set (normalise_set s)

let equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Str x, Str y -> String.equal x y
  | Set x, Set y -> String.equal x y
  | Obj (t1, i1), Obj (t2, i2) -> String.equal t1 t2 && String.equal i1 i2
  | (Int _ | Str _ | Set _ | Obj _), _ -> false

let rank = function Int _ -> 0 | Str _ -> 1 | Set _ -> 2 | Obj _ -> 3

let compare a b =
  match (a, b) with
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | Set x, Set y -> String.compare x y
  | Obj (t1, i1), Obj (t2, i2) ->
      let c = String.compare t1 t2 in
      if c <> 0 then c else String.compare i1 i2
  | _ -> Int.compare (rank a) (rank b)

let as_set ctx = function
  | Set s -> s
  | Int _ | Str _ | Obj _ -> invalid_arg (ctx ^ ": expected a set value")

let set_subset a b =
  let a = as_set "Value.set_subset" a and b = as_set "Value.set_subset" b in
  String.for_all (fun c -> String.contains b c) a

let set_mem c = function
  | Set s -> String.contains s c
  | Int _ | Str _ | Obj _ -> invalid_arg "Value.set_mem: expected a set value"

let set_union a b =
  set_of_chars (as_set "Value.set_union" a ^ as_set "Value.set_union" b)

let set_inter a b =
  let b = as_set "Value.set_inter" b in
  let a = as_set "Value.set_inter" a in
  let buf = Buffer.create 8 in
  String.iter (fun c -> if String.contains b c then Buffer.add_char buf c) a;
  set_of_chars (Buffer.contents buf)

let set_diff a b =
  let b = as_set "Value.set_diff" b in
  let a = as_set "Value.set_diff" a in
  let buf = Buffer.create 8 in
  String.iter (fun c -> if not (String.contains b c) then Buffer.add_char buf c) a;
  set_of_chars (Buffer.contents buf)

let add_marshal b = function
  | Int n ->
      Buffer.add_char b 'I';
      Oasis_util.Decimal.add_int b n
  | Str s ->
      Buffer.add_char b 'S';
      Buffer.add_string b s
  | Set s ->
      Buffer.add_char b 'E';
      Buffer.add_string b s
  | Obj (ty, id) ->
      Buffer.add_char b 'O';
      Oasis_util.Decimal.add_int b (String.length ty);
      Buffer.add_char b ':';
      Buffer.add_string b ty;
      Buffer.add_string b id

let marshal v =
  let b = Buffer.create 16 in
  add_marshal b v;
  Buffer.contents b

let unmarshal s =
  if String.length s = 0 then None
  else
    let body = String.sub s 1 (String.length s - 1) in
    match s.[0] with
    | 'I' -> Option.map (fun n -> Int n) (int_of_string_opt body)
    | 'S' -> Some (Str body)
    | 'E' -> Some (set_of_chars body)
    | 'O' -> (
        match String.index_opt body ':' with
        | None -> None
        | Some colon -> (
            match int_of_string_opt (String.sub body 0 colon) with
            | None -> None
            | Some tylen ->
                let rest = String.sub body (colon + 1) (String.length body - colon - 1) in
                if String.length rest < tylen then None
                else
                  Some
                    (Obj
                       ( String.sub rest 0 tylen,
                         String.sub rest tylen (String.length rest - tylen) ))))
    | _ -> None

let pp ppf = function
  | Int n -> Format.fprintf ppf "%d" n
  | Str s -> Format.fprintf ppf "%S" s
  | Set s -> Format.fprintf ppf "{%s}" s
  | Obj (ty, id) -> Format.fprintf ppf "@%s\"%s\"" ty id

let to_string v = Format.asprintf "%a" pp v
