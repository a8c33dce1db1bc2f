module Value = Oasis_rdl.Value
module Pqueue = Oasis_util.Pqueue

type value = Value.t

type handlers = {
  on_event : Bead.occurrence -> unit;
  on_fixed : Bead.occurrence -> unit;
  on_end : unit -> unit;
}

type t = {
  io : Bead.io;
  templates : Event.template list;
  queue : Bead.occurrence Pqueue.t;
  handlers : handlers;
  mutable detector : Bead.detector option;
  mutable until_detector : Bead.detector option;
  mutable unsub_horizon : unit -> unit;
  mutable ended : bool;
}

let queue_length t = Pqueue.length t.queue

let drain_fixed t =
  (* Pop every occurrence the covering horizon has passed: these form the
     newly fixed portion of the queue (fig 6.6). *)
  let horizon = t.io.Bead.io_horizon t.templates in
  while (not (Pqueue.is_empty t.queue)) && Pqueue.min_prio t.queue <= horizon do
    let o = Pqueue.take_min t.queue in
    if not t.ended then t.handlers.on_fixed o
  done

let stop t =
  if not t.ended then begin
    t.ended <- true;
    (* Whatever is queued is fixed by fiat at stream end. *)
    while not (Pqueue.is_empty t.queue) do
      t.handlers.on_fixed (Pqueue.take_min t.queue)
    done;
    t.unsub_horizon ();
    Option.iter Bead.stop t.detector;
    Option.iter Bead.stop t.until_detector;
    t.handlers.on_end ()
  end

let aggregate io ?(env = []) ?until comp handlers =
  let t =
    {
      io;
      templates = Composite.base_templates comp;
      queue = Pqueue.create ~vacant:{ Bead.at = 0.0; env = [] };
      handlers;
      detector = None;
      until_detector = None;
      unsub_horizon = (fun () -> ());
      ended = false;
    }
  in
  t.unsub_horizon <- io.Bead.on_horizon (fun () -> if not t.ended then drain_fixed t);
  t.detector <-
    Some
      (Bead.detect io ~env comp ~on_occur:(fun o ->
           if not t.ended then begin
             t.handlers.on_event o;
             ignore (Pqueue.push t.queue o.Bead.at o);
             drain_fixed t
           end));
  (match until with
  | None -> ()
  | Some u -> t.until_detector <- Some (Bead.detect io ~env u ~on_occur:(fun _ -> stop t)));
  t

(* --- the toy aggregation language (§6.10) --- *)

exception Program_error of string

type aexpr =
  | Aint of int
  | Astr of string
  | Alocal of string
  | Anew of string  (** [new.x] *)
  | Atime  (** [new.time] *)
  | Abin of char * aexpr * aexpr  (** '+' '-' '*' '/' '&' '|' *)
  | Acmp of string * aexpr * aexpr  (** "=" "<>" "<" "<=" ">" ">=" *)
  | Anot of aexpr
  | Aneg of aexpr

type stmt =
  | Sassign of string * aexpr
  | Sif of aexpr * stmt * stmt option
  | Ssignal of string * aexpr list
  | Sstop
  | Sblock of stmt list
  | Sskip

type program = {
  p_decls : (string * aexpr) list;
  p_expr : Composite.t;
  p_until : Composite.t option;
  p_event : stmt list;
  p_fixed : stmt list;
  p_end : stmt list;
}

(* lexer for the statement language *)

type atok =
  | AID of string
  | AINT of int
  | ASTR of string
  | APUNCT of string  (* ( ) { } , ; . = <> < <= > >= + - * / && || ! *)
  | AEOF

let alex src =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  let emit t = toks := t :: !toks in
  while !i < n do
    let c = src.[!i] in
    let two = if !i + 1 < n then String.sub src !i 2 else "" in
    match c with
    | ' ' | '\t' | '\n' | '\r' -> incr i
    | '"' ->
        incr i;
        let start = !i in
        while !i < n && src.[!i] <> '"' do
          incr i
        done;
        if !i >= n then raise (Program_error "unterminated string");
        emit (ASTR (String.sub src start (!i - start)));
        incr i
    | '0' .. '9' ->
        let start = !i in
        while !i < n && src.[!i] >= '0' && src.[!i] <= '9' do
          incr i
        done;
        emit (AINT (int_of_string (String.sub src start (!i - start))))
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        let start = !i in
        while
          !i < n
          && match src.[!i] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false
        do
          incr i
        done;
        emit (AID (String.sub src start (!i - start)))
    | _ when List.mem two [ "<>"; "<="; ">="; "&&"; "||" ] ->
        emit (APUNCT two);
        i := !i + 2
    | '(' | ')' | '{' | '}' | ',' | ';' | '.' | '=' | '<' | '>' | '+' | '-' | '*' | '/' | '!' ->
        emit (APUNCT (String.make 1 c));
        incr i
    | c -> raise (Program_error (Printf.sprintf "unexpected character %C" c))
  done;
  emit AEOF;
  List.rev !toks

type astate = { mutable atoks : atok list }

let apk st = match st.atoks with t :: _ -> t | [] -> AEOF
let aadv st = match st.atoks with _ :: r -> st.atoks <- r | [] -> ()

let apunct st p =
  match apk st with
  | APUNCT q when String.equal p q ->
      aadv st;
      true
  | _ -> false

let aexpect st p = if not (apunct st p) then raise (Program_error ("expected '" ^ p ^ "'"))

let rec parse_aexpr st = parse_or st

and parse_or st =
  let l = parse_and st in
  if apunct st "||" then Abin ('|', l, parse_or st) else l

and parse_and st =
  let l = parse_cmp st in
  if apunct st "&&" then Abin ('&', l, parse_and st) else l

and parse_cmp st =
  let l = parse_add st in
  let try_op op = match apk st with APUNCT p when String.equal p op -> true | _ -> false in
  let ops = [ "<>"; "<="; ">="; "="; "<"; ">" ] in
  match List.find_opt try_op ops with
  | Some op ->
      aadv st;
      Acmp (op, l, parse_add st)
  | None -> l

and parse_add st =
  let l = parse_mul st in
  if apunct st "+" then Abin ('+', l, parse_add st)
  else if apunct st "-" then
    (* Left-associate subtraction to keep a - b - c = (a - b) - c. *)
    let rec chain acc =
      let r = parse_mul st in
      let acc = Abin ('-', acc, r) in
      if apunct st "-" then chain acc
      else if apunct st "+" then Abin ('+', acc, parse_add st)
      else acc
    in
    chain l
  else l

and parse_mul st =
  let l = parse_unary st in
  if apunct st "*" then Abin ('*', l, parse_mul st)
  else if apunct st "/" then
    let rec chain acc =
      let r = parse_unary st in
      let acc = Abin ('/', acc, r) in
      if apunct st "/" then chain acc
      else if apunct st "*" then Abin ('*', acc, parse_mul st)
      else acc
    in
    chain l
  else l

and parse_unary st =
  if apunct st "!" then Anot (parse_unary st)
  else if apunct st "-" then Aneg (parse_unary st)
  else parse_primary st

and parse_primary st =
  match apk st with
  | AINT n ->
      aadv st;
      Aint n
  | ASTR s ->
      aadv st;
      Astr s
  | AID "new" ->
      aadv st;
      aexpect st ".";
      (match apk st with
      | AID "time" ->
          aadv st;
          Atime
      | AID x ->
          aadv st;
          Anew x
      | _ -> raise (Program_error "expected parameter name after 'new.'"))
  | AID x ->
      aadv st;
      Alocal x
  | APUNCT "(" ->
      aadv st;
      let e = parse_aexpr st in
      aexpect st ")";
      e
  | _ -> raise (Program_error "expected expression")

let rec parse_stmt st =
  match apk st with
  | APUNCT ";" -> Sskip
  | APUNCT "{" ->
      aadv st;
      let body = parse_stmts st in
      aexpect st "}";
      Sblock body
  | AID "if" ->
      aadv st;
      aexpect st "(";
      let cond = parse_aexpr st in
      aexpect st ")";
      let then_ = parse_stmt st in
      let else_ =
        match apk st with
        | AID "else" ->
            aadv st;
            Some (parse_stmt st)
        | _ -> None
      in
      Sif (cond, then_, else_)
  | AID "signal" ->
      aadv st;
      let name =
        match apk st with
        | AID n ->
            aadv st;
            n
        | _ -> raise (Program_error "expected event name after 'signal'")
      in
      aexpect st "(";
      let args =
        if apunct st ")" then []
        else
          let rec go acc =
            let e = parse_aexpr st in
            if apunct st "," then go (e :: acc)
            else begin
              aexpect st ")";
              List.rev (e :: acc)
            end
          in
          go []
      in
      Ssignal (name, args)
  | AID "stop" ->
      aadv st;
      Sstop
  | AID x ->
      aadv st;
      aexpect st "=";
      Sassign (x, parse_aexpr st)
  | _ -> raise (Program_error "expected statement")

and parse_stmts st =
  let rec go acc =
    match apk st with
    | AEOF | APUNCT "}" -> List.rev acc
    | APUNCT ";" ->
        aadv st;
        go acc
    | _ ->
        let s = parse_stmt st in
        go (s :: acc)
  in
  go []

let parse_stmt_text text =
  let st = { atoks = alex text } in
  let stmts = parse_stmts st in
  if apk st <> AEOF then raise (Program_error "trailing input in statements");
  stmts

let parse_decls text =
  (* "int x = e;" or "var x = e;" declarations. *)
  let st = { atoks = alex text } in
  let rec go acc =
    match apk st with
    | AEOF -> List.rev acc
    | APUNCT ";" ->
        aadv st;
        go acc
    | AID ("int" | "var") -> (
        aadv st;
        match apk st with
        | AID x ->
            aadv st;
            aexpect st "=";
            let e = parse_aexpr st in
            go ((x, e) :: acc)
        | _ -> raise (Program_error "expected name in declaration"))
    | _ -> raise (Program_error "expected declaration")
  in
  go []

(* Section splitting: a section header is a line starting (after blanks) with
   "expr:", "until:", "event:", "fixed:" or "end:". *)
let parse_program src =
  let src =
    (* Strip optional surrounding braces. *)
    let s = String.trim src in
    if String.length s >= 2 && s.[0] = '{' && s.[String.length s - 1] = '}' then
      String.sub s 1 (String.length s - 2)
    else s
  in
  let lines = String.split_on_char '\n' src in
  let header line =
    let line = String.trim line in
    List.find_map
      (fun h ->
        let tag = h ^ ":" in
        if String.length line >= String.length tag && String.sub line 0 (String.length tag) = tag
        then Some (h, String.sub line (String.length tag) (String.length line - String.length tag))
        else None)
      [ "expr"; "until"; "event"; "fixed"; "var"; "end" ]
  in
  let sections = Hashtbl.create 8 in
  let current = ref "decls" in
  Hashtbl.replace sections "decls" (Buffer.create 64);
  List.iter
    (fun line ->
      match header line with
      | Some (h, rest) ->
          current := h;
          let buf =
            match Hashtbl.find_opt sections h with
            | Some b -> b
            | None ->
                let b = Buffer.create 64 in
                Hashtbl.replace sections h b;
                b
          in
          Buffer.add_string buf rest;
          Buffer.add_char buf '\n'
      | None ->
          let buf = Hashtbl.find sections !current in
          Buffer.add_string buf line;
          Buffer.add_char buf '\n')
    lines;
  let text h = match Hashtbl.find_opt sections h with Some b -> Buffer.contents b | None -> "" in
  let expr_text = String.trim (text "expr") in
  if expr_text = "" then raise (Program_error "missing expr: section");
  let comp =
    match Composite.parse_result expr_text with
    | Ok c -> c
    | Error e -> raise (Program_error ("expr: " ^ e))
  in
  let until =
    match String.trim (text "until") with
    | "" -> None
    | u -> (
        match Composite.parse_result u with
        | Ok c -> Some c
        | Error e -> raise (Program_error ("until: " ^ e)))
  in
  {
    p_decls = parse_decls (text "decls");
    p_expr = comp;
    p_until = until;
    p_event = parse_stmt_text (text "event");
    (* The paper spells the fixed-portion section "var:" (§6.10); accept
       both names. *)
    p_fixed = parse_stmt_text (text "fixed" ^ "\n" ^ text "var");
    p_end = parse_stmt_text (text "end");
  }

(* --- interpreter --- *)

type frame = {
  locals : (string, value) Hashtbl.t;
  mutable occurrence : Bead.occurrence option;
  on_signal : string -> value list -> unit;
  mutable want_stop : bool;
}

let to_int ctx = function
  | Value.Int n -> n
  | v -> raise (Program_error (ctx ^ ": expected integer, got " ^ Value.to_string v))

let rec eval_a frame = function
  | Aint n -> Value.Int n
  | Astr s -> Value.Str s
  | Alocal x -> (
      match Hashtbl.find_opt frame.locals x with
      | Some v -> v
      | None -> raise (Program_error ("unbound local " ^ x)))
  | Anew x -> (
      match frame.occurrence with
      | None -> raise (Program_error "'new' outside event context")
      | Some o -> (
          match List.assoc_opt x o.Bead.env with
          | Some v -> v
          | None -> raise (Program_error ("occurrence has no binding " ^ x))))
  | Atime -> (
      match frame.occurrence with
      | None -> raise (Program_error "'new.time' outside event context")
      | Some o -> Value.Int (int_of_float (o.Bead.at *. 1000.0)))
  | Aneg e -> Value.Int (-to_int "negation" (eval_a frame e))
  | Anot e -> Value.Int (if to_int "not" (eval_a frame e) = 0 then 1 else 0)
  | Abin (op, a, b) -> (
      match op with
      | '&' ->
          if to_int "&&" (eval_a frame a) = 0 then Value.Int 0
          else Value.Int (if to_int "&&" (eval_a frame b) = 0 then 0 else 1)
      | '|' ->
          if to_int "||" (eval_a frame a) <> 0 then Value.Int 1
          else Value.Int (if to_int "||" (eval_a frame b) = 0 then 0 else 1)
      | _ -> (
          let x = to_int "arithmetic" (eval_a frame a) in
          let y = to_int "arithmetic" (eval_a frame b) in
          match op with
          | '+' -> Value.Int (x + y)
          | '-' -> Value.Int (x - y)
          | '*' -> Value.Int (x * y)
          | '/' -> if y = 0 then raise (Program_error "division by zero") else Value.Int (x / y)
          | _ -> assert false))
  | Acmp (op, a, b) ->
      let va = eval_a frame a and vb = eval_a frame b in
      let bool_ b = Value.Int (if b then 1 else 0) in
      (match op with
      | "=" -> bool_ (Value.equal va vb)
      | "<>" -> bool_ (not (Value.equal va vb))
      | _ ->
          let x = to_int "comparison" va and y = to_int "comparison" vb in
          bool_
            (match op with
            | "<" -> x < y
            | "<=" -> x <= y
            | ">" -> x > y
            | ">=" -> x >= y
            | _ -> assert false))

let rec exec frame = function
  | Sskip -> ()
  | Sassign (x, e) -> Hashtbl.replace frame.locals x (eval_a frame e)
  | Sblock stmts -> List.iter (exec frame) stmts
  | Sif (cond, then_, else_) ->
      if to_int "if" (eval_a frame cond) <> 0 then exec frame then_
      else Option.iter (exec frame) else_
  | Ssignal (name, args) -> frame.on_signal name (List.map (eval_a frame) args)
  | Sstop -> frame.want_stop <- true

let run_program io ?env prog ~on_signal =
  let frame =
    { locals = Hashtbl.create 8; occurrence = None; on_signal; want_stop = false }
  in
  List.iter (fun (x, e) -> Hashtbl.replace frame.locals x (eval_a frame e)) prog.p_decls;
  let agg = ref None in
  let maybe_stop () =
    if frame.want_stop then Option.iter stop !agg
  in
  let run_section stmts o =
    (* Once the program has executed [stop], later handler invocations (for
       example the end-of-stream flush of still-queued occurrences) are
       skipped — except the end section itself, run with [o = None]. *)
    if (not frame.want_stop) || o = None then begin
      frame.occurrence <- o;
      List.iter (exec frame) stmts;
      frame.occurrence <- None
    end
  in
  let handlers =
    {
      on_event =
        (fun o ->
          run_section prog.p_event (Some o);
          maybe_stop ());
      on_fixed =
        (fun o ->
          run_section prog.p_fixed (Some o);
          maybe_stop ());
      on_end = (fun () -> run_section prog.p_end None);
    }
  in
  let t = aggregate io ?env ?until:prog.p_until prog.p_expr handlers in
  agg := Some t;
  (* A 'stop' executed during initial replay must still take effect. *)
  maybe_stop ();
  t

(* --- library aggregations --- *)

let count_program ~expr ~until ~signal =
  parse_program
    (Printf.sprintf "int n = 0;\nexpr: %s\nuntil: %s\nevent: n = n + 1\nend: signal %s(n)" expr
       until signal)

let maximum_program ~expr ~param ~until ~signal =
  parse_program
    (Printf.sprintf
       "int best = 0 - 1000000000; int seen = 0;\n\
        expr: %s\n\
        until: %s\n\
        event: { if (new.%s > best) best = new.%s; seen = 1 }\n\
        end: if (seen) signal %s(best)"
       expr until param param signal)

let once_program ~expr ~signal =
  parse_program (Printf.sprintf "expr: %s\nevent: { signal %s(new.time); stop }" expr signal)

let first_program ~expr ~signal =
  (* FIRST needs the fixed section: arrival order can differ from occurrence
     order under delay (§6.9.1). *)
  parse_program
    (Printf.sprintf "expr: %s\nfixed: { signal %s(new.time); stop }" expr signal)
