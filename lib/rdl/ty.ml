type t = Int | Str | Set of string | Obj of string | Var of var ref
and var = Unbound of int | Link of t

let var n = Var (ref (Unbound n))

let rec repr = function
  | Var ({ contents = Link t } as r) ->
      let t' = repr t in
      r := Link t';
      t'
  | t -> t

let rec occurs r = function
  | Var r' when r == r' -> true
  | Var { contents = Link t } -> occurs r t
  | Var { contents = Unbound _ } | Int | Str | Set _ | Obj _ -> false

let rec pp ppf t =
  match repr t with
  | Int -> Format.pp_print_string ppf "Integer"
  | Str -> Format.pp_print_string ppf "String"
  | Set alphabet -> Format.fprintf ppf "{%s}" alphabet
  | Obj name -> Format.pp_print_string ppf name
  | Var { contents = Unbound n } -> Format.fprintf ppf "'t%d" n
  | Var { contents = Link _ } -> assert false

let to_string t = Format.asprintf "%a" pp t

let unify a b =
  let rec go a b =
    let a = repr a and b = repr b in
    match (a, b) with
    | Int, Int | Str, Str -> Ok ()
    | Set x, Set y when String.equal x y -> Ok ()
    | Obj x, Obj y when String.equal x y -> Ok ()
    | Var r, t | t, Var r ->
        if a == b then Ok ()
        else if occurs r t then Error "recursive type"
        else begin
          r := Link t;
          Ok ()
        end
    | (Int | Str | Set _ | Obj _), (Int | Str | Set _ | Obj _) ->
        Error (Printf.sprintf "type mismatch: %s vs %s" (to_string a) (to_string b))
  in
  go a b

let of_value = function
  | Value.Int _ -> Int
  | Value.Str _ -> Str
  | Value.Set s -> Set s
  | Value.Obj (ty, _) -> Obj ty

let compatible_value t v =
  match (repr t, v) with
  | Int, Value.Int _ -> true
  | Str, Value.Str _ -> true
  | Set alphabet, Value.Set elements -> String.for_all (fun c -> String.contains alphabet c) elements
  | Obj name, Value.Obj (ty, _) -> String.equal name ty
  | Var _, _ -> true
  | (Int | Str | Set _ | Obj _), _ -> false

let is_ground t = match repr t with Var _ -> false | Int | Str | Set _ | Obj _ -> true

let equal a b =
  match (repr a, repr b) with
  | Int, Int | Str, Str -> true
  | Set x, Set y | Obj x, Obj y -> String.equal x y
  | Var x, Var y -> x == y
  | (Int | Str | Set _ | Obj _ | Var _), _ -> false
