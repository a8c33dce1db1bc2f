(** Tokeniser for RDL source text. *)

type token =
  | IDENT of string
  | INT of int
  | STRING of string
  | SETLIT of string  (** [{rwx}] — raw (unsorted) element characters *)
  | OBJLIT of string * string  (** [@typename"identifier"] *)
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | COMMA
  | DOT
  | COLON
  | STAR
  | ARROW  (** [<-] *)
  | WEDGE  (** [/\] or [&&] *)
  | ELECT  (** [<|], the paper's ◁ *)
  | REVOKE  (** [|>], the paper's ▷ *)
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

exception Lex_error of string * int  (** message, line *)

val tokenize : string -> (token * int) list
(** Token stream with line numbers.  Comments run from [--] or [#] to end of
    line.  Raises {!Lex_error} on malformed input. *)
