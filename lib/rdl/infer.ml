open Ast

type result = {
  sigs : (string, Ty.t list) Hashtbl.t;
  unresolved : (string * int) list;
}

type callbacks = {
  external_sig : service:string -> role:string -> Ty.t list option;
  func_sig : string -> (Ty.t list option * Ty.t) option;
  group_element : string -> Ty.t option;
}

let no_callbacks =
  {
    external_sig = (fun ~service:_ ~role:_ -> None);
    func_sig = (fun _ -> None);
    group_element = (fun _ -> None);
  }

exception Fail of string

let fail fmt = Format.kasprintf (fun msg -> raise (Fail msg)) fmt

let unify_exn ctx a b =
  match Ty.unify a b with Ok () -> () | Error msg -> fail "%s: %s" ctx msg

(* Unify an expected type with a literal value.  Resolved set types accept any
   literal whose elements fall within the alphabet (see Ty.compatible_value);
   unresolved variables are bound to the literal's own type. *)
let unify_literal ctx ty v =
  match Ty.repr ty with
  | Ty.Var _ -> unify_exn ctx ty (Ty.of_value v)
  | resolved ->
      if not (Ty.compatible_value resolved v) then
        fail "%s: literal %s does not inhabit type %s" ctx (Value.to_string v)
          (Ty.to_string resolved)

let infer_located ?(callbacks = no_callbacks) rolefile =
  let sigs : (string, Ty.t list) Hashtbl.t = Hashtbl.create 16 in
  (* The line of the item being checked, for located errors, and the last
     type variable's number: both per rolefile, so a report never depends
     on what the process inferred before. *)
  let cur_line = ref 0 and last_var = ref 0 in
  let fresh () =
    incr last_var;
    Ty.var !last_var
  in
  try
    (* Pass 1: explicit declarations. *)
    List.iter
      (fun d ->
        cur_line := d.decl_line;
        if Hashtbl.mem sigs d.decl_name then fail "duplicate def for role %s" d.decl_name;
        let types =
          List.map
            (fun p ->
              match List.assoc_opt p d.param_types with Some ty -> ty | None -> fresh ())
            d.params
        in
        Hashtbl.replace sigs d.decl_name types)
      (defs rolefile);
    (* Pass 2: seed signatures for roles defined by entry statements. *)
    List.iter
      (fun e ->
        cur_line := e.entry_line;
        let name, args = e.head in
        match Hashtbl.find_opt sigs name with
        | Some types ->
            if List.length types <> List.length args then
              fail "role %s used with %d argument(s) but declared with %d" name
                (List.length args) (List.length types)
        | None -> Hashtbl.replace sigs name (List.map (fun _ -> fresh ()) args))
      (entries rolefile);
    (* Per-statement inference. *)
    let infer_entry e =
      cur_line := e.entry_line;
      let vars : (string, Ty.t) Hashtbl.t = Hashtbl.create 8 in
      let var_ty v =
        match Hashtbl.find_opt vars v with
        | Some ty -> ty
        | None ->
            let ty = fresh () in
            Hashtbl.replace vars v ty;
            ty
      in
      let unify_args ctx types args =
        if List.length types <> List.length args then
          fail "%s: expected %d argument(s), got %d" ctx (List.length types) (List.length args);
        List.iter2
          (fun ty arg ->
            match arg with
            | Avar v -> unify_exn ctx ty (var_ty v)
            | Alit value -> unify_literal ctx ty value)
          types args
      in
      let role_ref_sig r =
        match r.sref.service with
        | None -> (
            match Hashtbl.find_opt sigs r.role with
            | Some types -> Some types
            | None -> fail "reference to undefined local role %s" r.role)
        | Some service -> callbacks.external_sig ~service ~role:r.role
      in
      let unify_role_ref r =
        match role_ref_sig r with
        | Some types -> unify_args ("role " ^ r.role) types r.ref_args
        | None ->
            (* Unknown external role: arguments are unconstrained but
               variables must still be brought into scope. *)
            List.iter (function Avar v -> ignore (var_ty v) | Alit _ -> ()) r.ref_args
      in
      let name, args = e.head in
      unify_args ("head of " ^ name) (Hashtbl.find sigs name) args;
      List.iter unify_role_ref e.creds;
      Option.iter unify_role_ref e.elector;
      Option.iter unify_role_ref e.revoker;
      (* Constraint expression types. *)
      let rec expr_ty = function
        | Elit v -> Ty.of_value v
        | Evar v -> var_ty v
        | Ecall (fname, fargs) -> (
            let arg_tys = List.map expr_ty fargs in
            match callbacks.func_sig fname with
            | Some (Some expected, ret) ->
                if List.length expected <> List.length arg_tys then
                  fail "function %s: arity mismatch" fname;
                List.iter2 (unify_exn ("function " ^ fname)) expected arg_tys;
                ret
            | Some (None, ret) -> ret
            | None -> fresh ())
      in
      (* Two set types with different alphabets still compare/subset
         sensibly when one side is a literal (e.g. [{x} subset r] with
         [r : {rwx}]), so set-vs-set positions skip alphabet unification. *)
      let unify_setish ctx ta tb =
        match (Ty.repr ta, Ty.repr tb) with
        | Ty.Set _, Ty.Set _ -> ()
        | _ -> unify_exn ctx ta tb
      in
      let rec constr_check = function
        | Cand (a, b) | Cor (a, b) ->
            constr_check a;
            constr_check b
        | Cnot c | Cstar c -> constr_check c
        | Crel ((Eq | Ne), a, b) -> unify_setish "comparison" (expr_ty a) (expr_ty b)
        | Crel ((Lt | Le | Gt | Ge), a, b) ->
            unify_exn "ordering" (expr_ty a) Ty.Int;
            unify_exn "ordering" (expr_ty b) Ty.Int
        | Cin (e, group) -> (
            let ty = expr_ty e in
            match callbacks.group_element group with
            | Some elem_ty -> unify_exn ("group " ^ group) ty elem_ty
            | None -> ())
        | Csubset (a, b) -> unify_setish "subset" (expr_ty a) (expr_ty b)
        | Ccall (fname, fargs) -> ignore (expr_ty (Ecall (fname, fargs)))
        | Cbind (x, e) -> unify_exn ("binding of " ^ x) (var_ty x) (expr_ty e)
      in
      Option.iter constr_check e.constr
    in
    List.iter infer_entry (entries rolefile);
    let unresolved =
      Hashtbl.fold
        (fun role types acc ->
          let _, pending =
            List.fold_left
              (fun (i, acc) ty ->
                (i + 1, if Ty.is_ground ty then acc else (role, i) :: acc))
              (0, acc) types
          in
          pending)
        sigs []
    in
    Ok { sigs; unresolved = List.sort compare unresolved }
  with Fail msg -> Error (!cur_line, msg)

let infer ?callbacks rolefile =
  Result.map_error (fun (_, msg) -> msg) (infer_located ?callbacks rolefile)

let signature result role = Hashtbl.find_opt result.sigs role
