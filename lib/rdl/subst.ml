(** Substitution over RDL expressions and constraints.

    The symbolic escalation prover (Oasis.Federation_lint) renames every
    statement's local variables into a path-global namespace and substitutes
    the symbolic arguments flowing along a derivation chain into each hop's
    constraint, so {!Analyze.sat} can prune infeasible paths.  A substitution
    maps variable names to expressions; variables without a mapping are
    handled by the [fresh] fallback (identity by default). *)

open Ast

type map = (string, expr) Hashtbl.t

let create () : map = Hashtbl.create 16

let find (m : map) v = Hashtbl.find_opt m v

let bind (m : map) v e = Hashtbl.replace m v e

(* Substitute [m] through an expression; unmapped variables go through
   [fresh], which may mint (and record) a new path variable. *)
let rec expr ?(fresh = fun v -> Evar v) (m : map) = function
  | Elit v -> Elit v
  | Evar v -> ( match find m v with Some e -> e | None -> fresh v)
  | Ecall (f, args) -> Ecall (f, List.map (expr ~fresh m) args)

(* Substitute through a constraint.  The only subtle form is the binder
   [x <- e]: its left-hand side is a variable position.  If the path already
   pins [x] to a literal (or a non-variable expression), the §3.2.4
   bind-on-bound semantics degenerate to an equality test, so the
   substituted form is [Crel (Eq, subst x, subst e)]; if [x] maps to another
   variable the binder is kept under the new name. *)
let rec constr ?(fresh = fun v -> Evar v) (m : map) = function
  | Cand (a, b) -> Cand (constr ~fresh m a, constr ~fresh m b)
  | Cor (a, b) -> Cor (constr ~fresh m a, constr ~fresh m b)
  | Cnot c -> Cnot (constr ~fresh m c)
  | Cstar c -> Cstar (constr ~fresh m c)
  | Crel (op, a, b) -> Crel (op, expr ~fresh m a, expr ~fresh m b)
  | Cin (e, g) -> Cin (expr ~fresh m e, g)
  | Csubset (a, b) -> Csubset (expr ~fresh m a, expr ~fresh m b)
  | Ccall (f, args) -> Ccall (f, List.map (expr ~fresh m) args)
  | Cbind (x, e) -> (
      let e' = expr ~fresh m e in
      match (match find m x with Some ex -> ex | None -> fresh x) with
      | Evar y -> Cbind (y, e')
      | pinned -> Crel (Eq, pinned, e'))

(* Conjunction over optional constraints (None = true). *)
let conj a b =
  match (a, b) with
  | None, c | c, None -> c
  | Some a, Some b -> Some (Cand (a, b))
