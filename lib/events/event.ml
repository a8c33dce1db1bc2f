module Value = Oasis_rdl.Value

type value = Value.t

type t = { name : string; source : string; params : value array; stamp : float; seq : int }

let make ~name ~source ?(stamp = 0.0) ?(seq = 0) params =
  { name; source; params = Array.of_list params; stamp; seq }

type pattern = Lit of value | Var of string | Any

type template = { tname : string; tsource : string option; pats : pattern array }

let template ?source tname pats = { tname; tsource = source; pats = Array.of_list pats }

type env = (string * value) list

let matches ?(env = []) tpl e =
  if not (String.equal tpl.tname e.name) then None
  else if (match tpl.tsource with Some s -> not (String.equal s e.source) | None -> false)
  then None
  else if Array.length tpl.pats <> Array.length e.params then None
  else
    let rec go i env =
      if i >= Array.length tpl.pats then Some env
      else
        let v = e.params.(i) in
        match tpl.pats.(i) with
        | Any -> go (i + 1) env
        | Lit expected -> if Value.equal expected v then go (i + 1) env else None
        | Var x -> (
            match List.assoc_opt x env with
            | Some bound -> if Value.equal bound v then go (i + 1) env else None
            | None -> go (i + 1) ((x, v) :: env))
    in
    go 0 env

let instantiate env tpl =
  {
    tpl with
    pats =
      Array.map
        (function
          | Var x as p -> (
              match List.assoc_opt x env with Some v -> Lit v | None -> p)
          | (Lit _ | Any) as p -> p)
        tpl.pats;
  }

let specificity tpl =
  Array.fold_left (fun n -> function Lit _ -> n + 1 | Var _ | Any -> n) 0 tpl.pats

let pp ppf e =
  Format.fprintf ppf "%s.%s(%s)@@%.4f" e.source e.name
    (String.concat ", " (Array.to_list (Array.map Value.to_string e.params)))
    e.stamp

let pp_template ppf tpl =
  let pat = function Lit v -> Value.to_string v | Var x -> x | Any -> "*" in
  Format.fprintf ppf "%s%s(%s)"
    (match tpl.tsource with Some s -> s ^ "." | None -> "")
    tpl.tname
    (String.concat ", " (Array.to_list (Array.map pat tpl.pats)))

let to_string e = Format.asprintf "%a" pp e

let marshal e =
  let buf = Buffer.create 64 in
  Buffer.add_string buf e.name;
  Buffer.add_char buf '\x00';
  Buffer.add_string buf e.source;
  Buffer.add_char buf '\x00';
  Array.iter
    (fun v ->
      Value.add_marshal buf v;
      Buffer.add_char buf '\x00')
    e.params;
  Buffer.add_string buf (Printf.sprintf "%f#%d" e.stamp e.seq);
  Buffer.contents buf
