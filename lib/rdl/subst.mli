(** Substitution over RDL expressions and constraints.

    Support for the symbolic escalation prover: rename a statement's local
    variables into a path-global namespace and substitute symbolic arguments
    into its constraint.  See [Oasis.Federation_lint]. *)

type map = (string, Ast.expr) Hashtbl.t
(** Mutable variable-to-expression substitution. *)

val create : unit -> map
val find : map -> string -> Ast.expr option
val bind : map -> string -> Ast.expr -> unit

val expr : ?fresh:(string -> Ast.expr) -> map -> Ast.expr -> Ast.expr
(** Substitute through an expression.  Unmapped variables are passed to
    [fresh] (identity by default), which may mint — and record — a fresh
    path variable. *)

val constr : ?fresh:(string -> Ast.expr) -> map -> Ast.constr -> Ast.constr
(** Substitute through a constraint.  A binder [x <- e] whose left-hand side
    is pinned to a non-variable expression degenerates to the equality test
    the engine's bind-on-bound semantics (§3.2.4) give it. *)

val conj : Ast.constr option -> Ast.constr option -> Ast.constr option
(** Conjunction over optional constraints ([None] = true). *)
