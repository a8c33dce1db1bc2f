type token =
  | IDENT of string
  | INT of int
  | STRING of string
  | SETLIT of string
  | OBJLIT of string * string
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | COMMA
  | DOT
  | COLON
  | STAR
  | ARROW
  | WEDGE
  | ELECT
  | REVOKE
  | EQ
  | NE
  | LT
  | LE
  | GT
  | GE
  | KW_IMPORT
  | KW_DEF
  | KW_AND
  | KW_OR
  | KW_NOT
  | KW_IN
  | KW_SUBSET
  | EOF

exception Lex_error of string * int

let keyword = function
  | "import" -> Some KW_IMPORT
  | "def" -> Some KW_DEF
  | "and" -> Some KW_AND
  | "or" -> Some KW_OR
  | "not" -> Some KW_NOT
  | "in" -> Some KW_IN
  | "subset" -> Some KW_SUBSET
  | _ -> None

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let line = ref 1 in
  let tokens = ref [] in
  let emit tok = tokens := (tok, !line) :: !tokens in
  let error msg = raise (Lex_error (msg, !line)) in
  let pos = ref 0 in
  let peek off = if !pos + off < n then Some src.[!pos + off] else None in
  let read_while pred =
    let start = !pos in
    while !pos < n && pred src.[!pos] do
      incr pos
    done;
    String.sub src start (!pos - start)
  in
  let read_string () =
    (* Called with [pos] on the opening quote. *)
    incr pos;
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then error "unterminated string"
      else
        match src.[!pos] with
        | '"' -> incr pos
        | '\\' when !pos + 1 < n ->
            Buffer.add_char buf src.[!pos + 1];
            pos := !pos + 2;
            go ()
        | '\n' -> error "newline in string"
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents buf
  in
  while !pos < n do
    let c = src.[!pos] in
    match c with
    | ' ' | '\t' | '\r' -> incr pos
    | '\n' ->
        incr line;
        incr pos
    | '#' ->
        while !pos < n && src.[!pos] <> '\n' do
          incr pos
        done
    | '-' when peek 1 = Some '-' ->
        while !pos < n && src.[!pos] <> '\n' do
          incr pos
        done
    | '(' ->
        emit LPAREN;
        incr pos
    | ')' ->
        emit RPAREN;
        incr pos
    | '[' ->
        emit LBRACKET;
        incr pos
    | ']' ->
        emit RBRACKET;
        incr pos
    | ',' ->
        emit COMMA;
        incr pos
    | '.' ->
        emit DOT;
        incr pos
    | ':' ->
        emit COLON;
        incr pos
    | '*' ->
        emit STAR;
        incr pos
    | '=' ->
        emit EQ;
        incr pos
    | '{' -> (
        incr pos;
        let elements = read_while (fun c -> c <> '}' && c <> '\n') in
        match peek 0 with
        | Some '}' ->
            incr pos;
            emit (SETLIT elements)
        | _ -> error "unterminated set literal")
    | '"' -> emit (STRING (read_string ()))
    | '@' ->
        incr pos;
        let tyname = read_while is_ident_char in
        if String.length tyname = 0 then error "expected type name after '@'";
        if peek 0 <> Some '"' then error "expected string literal after '@typename'";
        emit (OBJLIT (tyname, read_string ()))
    | '<' -> (
        match peek 1 with
        | Some '-' ->
            emit ARROW;
            pos := !pos + 2
        | Some '|' ->
            emit ELECT;
            pos := !pos + 2
        | Some '>' ->
            emit NE;
            pos := !pos + 2
        | Some '=' ->
            emit LE;
            pos := !pos + 2
        | _ ->
            emit LT;
            incr pos)
    | '>' -> (
        match peek 1 with
        | Some '=' ->
            emit GE;
            pos := !pos + 2
        | _ ->
            emit GT;
            incr pos)
    | '|' -> (
        match peek 1 with
        | Some '>' ->
            emit REVOKE;
            pos := !pos + 2
        | _ -> error "unexpected '|'")
    | '/' -> (
        match peek 1 with
        | Some '\\' ->
            emit WEDGE;
            pos := !pos + 2
        | _ -> error "unexpected '/'")
    | '&' -> (
        match peek 1 with
        | Some '&' ->
            emit WEDGE;
            pos := !pos + 2
        | _ -> error "unexpected '&'")
    | c when is_digit c -> emit (INT (int_of_string (read_while is_digit)))
    | c when is_ident_start c -> (
        let word = read_while is_ident_char in
        match keyword word with Some kw -> emit kw | None -> emit (IDENT word))
    | c -> error (Printf.sprintf "unexpected character %C" c)
  done;
  emit EOF;
  List.rev !tokens
