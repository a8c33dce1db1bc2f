(** Federation-wide static analysis of the cross-service role graph.

    Per-rolefile checks ({!Oasis_rdl.Analyze}) see one policy at a time; a
    federation of services can still be mis-wired as a whole: services grant
    roles on the strength of roles of other services (§2.10), so the
    credential graph can contain cycles no statement bootstraps (every
    service waits on the other — a bootstrap deadlock), roles no chain of
    statements can ever reach, and revocation gaps where a prerequisite is
    revocable but its consumer never hears about it (§3.2.3's [*]
    annotations only cascade along event channels between known services).

    The escalation queries are answered by a {e symbolic prover}: instead of
    the boolean least-fixpoint upper bound (kept as {!boolean_can_reach}),
    reachability is explored over derivation chains that carry a per-path
    {e witness} — the sequence of entry statements, the binding
    substitutions that connect them, and the elector/appointment obligations
    along the way.  Every statement's local variables are renamed into a
    path-global namespace, the symbolic arguments flowing along the chain
    are substituted into each hop's constraint, and a path whose accumulated
    constraint {!Oasis_rdl.Analyze.sat} proves unsatisfiable is pruned.  A
    [false] answer therefore means "no feasible symbolic path", not merely
    "no edge"; a [true] answer comes with replayable evidence (the witness
    compiles to a model-checker scenario — [Oasis_mc.Witness]).

    Diagnostic codes (continuing {!Oasis_rdl.Analyze}'s space):

    - [OASIS001] error — credential cycle with no bootstrap (deadlock);
    - [OASIS002] warning — role is unreachable from the federation's axioms;
    - [OASIS003] error — reference to a role the named federation service
      does not define;
    - [OASIS004] warning — starred prerequisite from a service outside the
      federation: there is no revocation channel to cascade over;
    - [OASIS005] info — revocable prerequisite consumed without [*]:
      revoking it will not cascade to the derived role;
    - [OASIS006] warning — revocation-blind escalation: a witness chain in
      which some hop consumes the holder's flow without [*], so firing the
      holder does not cascade to the target (§4.11 silently lapses);
    - [OASIS007] warning — low collusion budget: an escalation chain needs
      at most the configured number of colluding principals;
    - [OASIS008] warning — cross-realm escalation through interop/bootstrap
      roles (the ROADMAP gateway item's precondition). *)

module Ast = Oasis_rdl.Ast
module Infer = Oasis_rdl.Infer
module Analyze = Oasis_rdl.Analyze
module Subst = Oasis_rdl.Subst
module Value = Oasis_rdl.Value

type member = { fl_name : string; fl_file : string; fl_rolefile : Ast.rolefile }

type node = string * string (* service, role *)

type t = {
  members : member list;
  sigs : (string, Infer.result) Hashtbl.t;  (** per-member self inference *)
  mutable sym_base : (node, unit) Hashtbl.t option;
      (** memoized symbolic axiom closure (see [sym_base]) *)
}

let make members =
  let sigs = Hashtbl.create 8 in
  List.iter
    (fun m ->
      match Infer.infer m.fl_rolefile with
      | Ok r -> Hashtbl.replace sigs m.fl_name r
      | Error _ -> () (* the per-file pass reports it; sigs stay unknown *))
    members;
  { members; sigs; sym_base = None }

let members t = t.members

let member_names t = List.map (fun m -> m.fl_name) t.members

let signature t (svc, role) =
  match Hashtbl.find_opt t.sigs svc with
  | Some r -> Infer.signature r role
  | None -> None

(* Analysis context for any one member: external signatures resolve against
   the sibling members' inferred signatures. *)
let member_context t =
  {
    Analyze.default_context with
    Analyze.infer =
      {
        Infer.no_callbacks with
        Infer.external_sig =
          (fun ~service ~role ->
            match Hashtbl.find_opt t.sigs service with
            | Some r -> Infer.signature r role
            | None -> None);
      };
  }

(* Roles a member defines: by entry statement or by [def] declaration. *)
let defined_roles m =
  List.sort_uniq compare
    (Ast.defined_roles m.fl_rolefile
    @ List.map (fun d -> d.Ast.decl_name) (Ast.defs m.fl_rolefile))

let resolve_ref me (r : Ast.role_ref) : node =
  match r.Ast.sref.Ast.service with None -> (me, r.Ast.role) | Some s -> (s, r.Ast.role)

(* Prerequisite nodes of an entry: credentials plus the elector role (an
   election cannot happen until someone holds the elector role). *)
let prereqs me e =
  List.map (resolve_ref me) e.Ast.creds
  @ (match e.Ast.elector with Some r -> [ resolve_ref me r ] | None -> [])

(* The set of nodes derivable from the federation's axioms: an entry fires
   once all its prerequisites are reachable and its constraint is not
   provably unsatisfiable.  Nodes of services outside the federation are
   assumed reachable (we cannot see their policies), so the verdict is an
   over-approximation: a role reported unreachable really is. *)
let closure t (init : node list) =
  let known = member_names t in
  let reach : (node, unit) Hashtbl.t = Hashtbl.create 64 in
  let reachable n = Hashtbl.mem reach n || not (List.mem (fst n) known) in
  List.iter (fun n -> Hashtbl.replace reach n ()) init;
  let firable m e =
    (match e.Ast.constr with Some c -> Analyze.sat c <> `Unsat | None -> true)
    && List.for_all reachable (prereqs m.fl_name e)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun m ->
        List.iter
          (fun e ->
            let head = (m.fl_name, fst e.Ast.head) in
            if (not (Hashtbl.mem reach head)) && firable m e then begin
              Hashtbl.replace reach head ();
              changed := true
            end)
          (Ast.entries m.fl_rolefile))
      t.members
  done;
  reach

let reachable t = closure t []

(* The PR 5 boolean bound, kept as the symbolic prover's soundness
   reference: symbolic reachability is never looser (property-tested). *)
let boolean_can_reach t ~holder ~target =
  Hashtbl.mem (closure t [ holder ]) target || not (List.mem (fst target) (member_names t))

let node_str (s, r) = s ^ "." ^ r

(* ------------------------------------------------------------------ *)
(* The symbolic escalation prover.                                     *)
(* ------------------------------------------------------------------ *)

type hop = {
  h_node : node;  (** the role this hop enters *)
  h_file : string;
  h_line : int;
  h_entry : Ast.entry;  (** the statement, as written *)
  h_via : node;  (** the chain prerequisite this hop consumes *)
  h_via_starred : bool;
  h_elector : (node * Ast.expr list) option;
  h_obligations : (node * Ast.expr list * bool) list;
  h_args : Ast.expr list;  (** symbolic head arguments (path namespace) *)
  h_constr : Ast.constr option;  (** hop constraint, substituted *)
}

type witness = {
  w_holder : node;
  w_holder_args : Ast.expr list;
  w_target : node;
  w_hops : hop list;
  w_constr : Ast.constr option;
  w_carried : bool;
  w_colluders : int;
  w_cross_realm : bool;
  w_interop : bool;
}

exception Infeasible

(* Bound on witnesses kept per node: the prover keeps up to this many
   distinct chains to a node so a later consumer whose constraint conflicts
   with the first chain can still connect through an alternative one. *)
let max_witnesses_per_node = 4

(* Full-path satisfiability re-checks are capped at this many constraint
   atoms; beyond it only each hop's own (substituted) constraint is checked,
   keeping long chains linear.  Skipping a prune never loses soundness —
   the symbolic set only shrinks relative to the boolean bound. *)
let path_sat_atoms_cap = 128

let rec constr_atoms = function
  | Ast.Cand (a, b) | Ast.Cor (a, b) -> constr_atoms a + constr_atoms b
  | Ast.Cnot c | Ast.Cstar c -> constr_atoms c
  | Ast.Crel _ | Ast.Cin _ | Ast.Csubset _ | Ast.Ccall _ | Ast.Cbind _ -> 1

let node_arity t ((svc, role) as n : node) =
  match List.find_opt (fun m -> String.equal m.fl_name svc) t.members with
  | None -> ( match signature t n with Some tys -> List.length tys | None -> 0)
  | Some m -> (
      match
        List.find_opt (fun d -> String.equal d.Ast.decl_name role) (Ast.defs m.fl_rolefile)
      with
      | Some d -> List.length d.Ast.param_types
      | None -> (
          match
            List.find_opt
              (fun e -> String.equal (fst e.Ast.head) role)
              (Ast.entries m.fl_rolefile)
          with
          | Some e -> List.length (snd e.Ast.head)
          | None -> 0))

(* Does the member define [role] by an axiom-form entry (the bootstrap /
   issue_arbitrary idiom, §4.12)? *)
let is_bootstrap t ((svc, role) : node) =
  match List.find_opt (fun m -> String.equal m.fl_name svc) t.members with
  | None -> false
  | Some m ->
      List.exists
        (fun e -> String.equal (fst e.Ast.head) role && Analyze.is_axiom e)
        (Ast.entries m.fl_rolefile)

(* Internal chain representation: hops newest-first, plus bookkeeping the
   public record does not need. *)
type iw = {
  iw_id : int;
  iw_target : node;
  iw_args : Ast.expr list;
  iw_hops_rev : hop list;
  iw_constr : Ast.constr option;
  iw_atoms : int;  (** atom count of [iw_constr] (incremental) *)
}

let finalize t ~holder ~holder_args iw =
  let hops = List.rev iw.iw_hops_rev in
  let known = member_names t in
  let electors =
    List.sort_uniq compare (List.filter_map (fun h -> Option.map fst h.h_elector) hops)
  in
  let entry_refs_external e me =
    List.exists
      (fun r -> not (List.mem (fst (resolve_ref me r)) known))
      (e.Ast.creds
      @ (match e.Ast.elector with Some r -> [ r ] | None -> []))
  in
  {
    w_holder = holder;
    w_holder_args = holder_args;
    w_target = iw.iw_target;
    w_hops = hops;
    w_constr = iw.iw_constr;
    w_carried = hops <> [] && List.for_all (fun h -> h.h_via_starred) hops;
    w_colluders = 1 + List.length electors;
    w_cross_realm = List.exists (fun h -> fst h.h_node <> fst holder) hops;
    w_interop =
      List.exists
        (fun h ->
          entry_refs_external h.h_entry (fst h.h_node)
          || (h.h_node <> holder && is_bootstrap t h.h_node))
        hops;
  }

(* All witness chains a [holder] can derive.  One (first-found, i.e.
   breadth-ordered) witness per reachable node; internally up to
   {!max_witnesses_per_node} chains per node feed further derivation. *)
let prove t ~holder =
  let known = member_names t in
  let base = reachable t in
  let arity = node_arity t holder in
  (* Path-global fresh variables. *)
  let ctr = ref 0 in
  let fresh_var () =
    let v = Printf.sprintf "p%d" !ctr in
    incr ctr;
    Ast.Evar v
  in
  let holder_args = List.init arity (fun _ -> fresh_var ()) in
  (* Indexed entries: id -> (member, entry); prereq node -> consumers. *)
  let all_entries =
    List.concat_map
      (fun m -> List.map (fun e -> (m, e)) (Ast.entries m.fl_rolefile))
      t.members
    |> List.mapi (fun i (m, e) -> (i, m, e))
  in
  (* Cred positions: node -> (entry_id, position).  Any-prereq (incl.
     elector): node -> entry_id. *)
  let cred_index : (node, int * int) Hashtbl.t = Hashtbl.create 64 in
  let any_index : (node, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (id, m, e) ->
      List.iteri
        (fun pos r -> Hashtbl.add cred_index (resolve_ref m.fl_name r) (id, pos))
        e.Ast.creds;
      List.iter (fun p -> Hashtbl.add any_index p id) (prereqs m.fl_name e))
    all_entries;
  let entry_of : (int, member * Ast.entry) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun (id, m, e) -> Hashtbl.replace entry_of id (m, e)) all_entries;
  (* Per-node witness lists (newest first) and the attempt agenda. *)
  let wits : (node, iw list) Hashtbl.t = Hashtbl.create 64 in
  let first : (node, iw) Hashtbl.t = Hashtbl.create 64 in
  let order : node list ref = ref [] in
  let next_id = ref 0 in
  let agenda : (int * int * iw) Queue.t = Queue.create () in
  let pushed : (int * int * int, unit) Hashtbl.t = Hashtbl.create 256 in
  let push entry_id pos via_wit =
    let key = (entry_id, pos, via_wit.iw_id) in
    if not (Hashtbl.mem pushed key) then begin
      Hashtbl.replace pushed key ();
      Queue.add (entry_id, pos, via_wit) agenda
    end
  in
  let witnessed n = Hashtbl.mem wits n in
  let sym_reachable n = Hashtbl.mem base n || witnessed n || not (List.mem (fst n) known) in
  let add_witness n iw =
    let existing = try Hashtbl.find wits n with Not_found -> [] in
    if List.length existing < max_witnesses_per_node then begin
      let was_first = existing = [] in
      Hashtbl.replace wits n (iw :: existing);
      if was_first then begin
        Hashtbl.replace first n iw;
        order := n :: !order
      end;
      (* Entries consuming [n] as a credential can extend this chain. *)
      List.iter (fun (id, pos) -> push id pos iw) (Hashtbl.find_all cred_index n);
      (* [n] becoming derivable for the first time may unlock entries where
         it is a non-via obligation: re-attempt them through every known
         chain to any of their credential prerequisites. *)
      if was_first then
        List.iter
          (fun id ->
            let m, e = Hashtbl.find entry_of id in
            List.iteri
              (fun pos r ->
                let p = resolve_ref m.fl_name r in
                List.iter (fun w -> push id pos w) (try Hashtbl.find wits p with Not_found -> []))
              e.Ast.creds)
          (List.sort_uniq compare (Hashtbl.find_all any_index n))
    end
  in
  (* Attempt to fire [entry] consuming chain [via_wit] at cred position
     [pos]: unify, substitute, prune, extend. *)
  let attempt entry_id pos via_wit =
    let m, e = Hashtbl.find entry_of entry_id in
    let me = m.fl_name in
    let head_node = (me, fst e.Ast.head) in
    let rename = Subst.create () in
    let eqs = ref [] in
    let fresh v =
      let x = fresh_var () in
      Subst.bind rename v x;
      x
    in
    let sym_of_arg = function
      | Ast.Alit l -> Ast.Elit l
      | Ast.Avar v -> ( match Subst.find rename v with Some x -> x | None -> fresh v)
    in
    let unify_args ref_args sym_args =
      let rec go ra sa =
        match (ra, sa) with
        | [], _ | _, [] -> ()
        | Ast.Avar v :: ra', se :: sa' ->
            (match Subst.find rename v with
            | None -> Subst.bind rename v se
            | Some e' -> if e' <> se then eqs := Ast.Crel (Ast.Eq, e', se) :: !eqs);
            go ra' sa'
        | Ast.Alit l :: ra', se :: sa' ->
            (match se with
            | Ast.Elit l' -> if not (Value.equal l l') then raise Infeasible
            | se -> eqs := Ast.Crel (Ast.Eq, Ast.Elit l, se) :: !eqs);
            go ra' sa'
      in
      go ref_args sym_args
    in
    try
      (* 1. the via credential consumes the chain's symbolic arguments. *)
      let via_ref = List.nth e.Ast.creds pos in
      let via_node = resolve_ref me via_ref in
      if via_node <> via_wit.iw_target then raise Infeasible;
      unify_args via_ref.Ast.ref_args via_wit.iw_args;
      (* 2. every other prerequisite must be independently derivable. *)
      let obligations =
        List.concat
          (List.mapi
             (fun i r ->
               if i = pos then []
               else begin
                 let p = resolve_ref me r in
                 if not (sym_reachable p) then raise Infeasible;
                 [ (p, List.map sym_of_arg r.Ast.ref_args, r.Ast.starred) ]
               end)
             e.Ast.creds)
      in
      let elector =
        match e.Ast.elector with
        | None -> None
        | Some r ->
            let p = resolve_ref me r in
            if not (sym_reachable p) then raise Infeasible;
            Some (p, List.map sym_of_arg r.Ast.ref_args)
      in
      (* 3. substitute the statement's constraint into the path namespace. *)
      let entry_c =
        Option.map (Subst.constr ~fresh:(fun v -> fresh v) rename) e.Ast.constr
      in
      let eqs_c = match !eqs with [] -> None | l -> Some (List.fold_left (fun a c -> Ast.Cand (a, c)) (List.hd l) (List.tl l)) in
      let hop_c = Subst.conj eqs_c entry_c in
      (match hop_c with
      | Some c when Analyze.sat c = `Unsat -> raise Infeasible
      | _ -> ());
      let path_c = Subst.conj via_wit.iw_constr hop_c in
      let hop_atoms = match hop_c with None -> 0 | Some c -> constr_atoms c in
      let atoms = via_wit.iw_atoms + hop_atoms in
      (match path_c with
      | Some c when atoms <= path_sat_atoms_cap && Analyze.sat c = `Unsat -> raise Infeasible
      | _ -> ());
      (* 4. the new chain head. *)
      let head_args = List.map sym_of_arg (snd e.Ast.head) in
      let hop =
        {
          h_node = head_node;
          h_file = m.fl_file;
          h_line = e.Ast.entry_line;
          h_entry = e;
          h_via = via_node;
          h_via_starred = via_ref.Ast.starred;
          h_elector = elector;
          h_obligations = obligations;
          h_args = head_args;
          h_constr = hop_c;
        }
      in
      let iw =
        {
          iw_id = (incr next_id; !next_id);
          iw_target = head_node;
          iw_args = head_args;
          iw_hops_rev = hop :: via_wit.iw_hops_rev;
          iw_constr = path_c;
          iw_atoms = atoms;
        }
      in
      add_witness head_node iw
    with Infeasible -> ()
  in
  (* Seed: the holder's own (empty) chain. *)
  let seed =
    { iw_id = 0; iw_target = holder; iw_args = holder_args; iw_hops_rev = []; iw_constr = None; iw_atoms = 0 }
  in
  add_witness holder seed;
  let steps = ref 0 in
  while (not (Queue.is_empty agenda)) && !steps < 200_000 do
    incr steps;
    let entry_id, pos, via_wit = Queue.pop agenda in
    attempt entry_id pos via_wit
  done;
  let results =
    List.rev_map (fun n -> finalize t ~holder ~holder_args (Hashtbl.find first n)) !order
  in
  List.filter (fun w -> w.w_target <> holder) results
  |> List.sort (fun a b -> compare a.w_target b.w_target)

let witnesses t ~holder = prove t ~holder

(* Nodes symbolically derivable from the federation's axioms: every
   bootstrap role plus the union of witness targets over all of them.
   Tighter than the boolean [reachable] closure, which admits chains whose
   hops are each satisfiable but whose accumulated path constraint is
   contradictory; memoized, since the frontier tests below consult it per
   holder. *)
let sym_base t =
  match t.sym_base with
  | Some tbl -> tbl
  | None ->
      let tbl : (node, unit) Hashtbl.t = Hashtbl.create 64 in
      let axioms =
        List.sort_uniq compare
          (List.concat_map
             (fun m ->
               List.filter_map
                 (fun e ->
                   if Analyze.is_axiom e then Some (m.fl_name, fst e.Ast.head) else None)
                 (Ast.entries m.fl_rolefile))
             t.members)
      in
      List.iter (fun a -> Hashtbl.replace tbl a ()) axioms;
      List.iter
        (fun a -> List.iter (fun w -> Hashtbl.replace tbl w.w_target ()) (prove t ~holder:a))
        axioms;
      t.sym_base <- Some tbl;
      tbl

let escalation_witnesses t ~holder =
  let base = sym_base t in
  List.filter (fun w -> not (Hashtbl.mem base w.w_target)) (prove t ~holder)

let escalation t ~holder = List.map (fun w -> w.w_target) (escalation_witnesses t ~holder)

let can_reach t ~holder ~target =
  (not (List.mem (fst target) (member_names t)))
  || Hashtbl.mem (sym_base t) target
  || List.exists (fun w -> w.w_target = target) (prove t ~holder)

(* Interesting default holders for an [--escalation all] sweep: bootstrap
   (axiom-entry) roles — what issue_arbitrary seeds — plus every role not
   derivable from the axioms (exactly the nodes with a potentially non-empty
   frontier). *)
let default_holders t =
  let base = sym_base t in
  let nodes =
    List.concat_map
      (fun m ->
        List.filter_map
          (fun e ->
            let n = (m.fl_name, fst e.Ast.head) in
            if Analyze.is_axiom e || not (Hashtbl.mem base n) then Some n else None)
          (Ast.entries m.fl_rolefile))
      t.members
  in
  List.sort_uniq compare nodes

(* Diagnostic codes a single witness chain triggers (shared by {!check} and
   the CLI's per-witness report). *)
let witness_codes ?(collusion_threshold = 1) w =
  (if w.w_carried then [] else [ "OASIS006" ])
  @ (if w.w_colluders <= collusion_threshold then [ "OASIS007" ] else [])
  @ if w.w_cross_realm && w.w_interop then [ "OASIS008" ] else []

(* Strongly connected components (Tarjan) of the role-dependency graph
   restricted to federation nodes. *)
let sccs nodes edges =
  let index : (node, int) Hashtbl.t = Hashtbl.create 64 in
  let low : (node, int) Hashtbl.t = Hashtbl.create 64 in
  let on_stack : (node, unit) Hashtbl.t = Hashtbl.create 64 in
  let stack = ref [] in
  let counter = ref 0 in
  let out = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace low v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find low w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find index w)))
      (try Hashtbl.find_all edges v with Not_found -> []);
    if Hashtbl.find low v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      out := pop [] :: !out
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) nodes;
  !out

let check ?(per_file = false) ?(collusion_threshold = 1) t =
  let diags = ref [] in
  let add ?(sev = Analyze.Error) ~file ~line code fmt =
    Format.kasprintf
      (fun message ->
        diags := { Analyze.code; severity = sev; file; line; message } :: !diags)
      fmt
  in
  let known = member_names t in
  let member name = List.find_opt (fun m -> String.equal m.fl_name name) t.members in
  (* Diagnostic anchor for a role: its first entry line, falling back to the
     [def] declaration, then the member's first item — never 0 for a parsed
     rolefile. *)
  let role_line name role =
    match member name with
    | None -> 0
    | Some m ->
        let first_entry =
          List.fold_left
            (fun acc e ->
              if acc = 0 && String.equal (fst e.Ast.head) role then e.Ast.entry_line else acc)
            0
            (Ast.entries m.fl_rolefile)
        in
        if first_entry > 0 then first_entry
        else
          let decl =
            List.fold_left
              (fun acc d ->
                if acc = 0 && String.equal d.Ast.decl_name role then d.Ast.decl_line else acc)
              0
              (Ast.defs m.fl_rolefile)
          in
          if decl > 0 then decl
          else
            List.fold_left (fun acc i -> if acc = 0 then Ast.item_line i else acc) 0 m.fl_rolefile
  in
  let role_file name = match member name with Some m -> m.fl_file | None -> name in

  (* Per-file diagnostics under each member's federation context. *)
  if per_file then
    List.iter
      (fun m ->
        diags :=
          List.rev_append
            (List.rev (Analyze.check ~file:m.fl_file ~context:(member_context t) m.fl_rolefile))
            !diags)
      t.members;

  (* OASIS003 / OASIS004 / OASIS005: per-reference checks. *)
  List.iter
    (fun m ->
      List.iter
        (fun e ->
          let line = e.Ast.entry_line in
          let refs =
            List.map (fun r -> (`Cred, r)) e.Ast.creds
            @ (match e.Ast.elector with Some r -> [ (`Elector, r) ] | None -> [])
            @ (match e.Ast.revoker with Some r -> [ (`Revoker, r) ] | None -> [])
          in
          List.iter
            (fun (kind, r) ->
              let svc, role = resolve_ref m.fl_name r in
              let external_ref = Option.is_some r.Ast.sref.Ast.service in
              if external_ref && List.mem svc known then begin
                match member svc with
                | Some peer when not (List.mem role (defined_roles peer)) ->
                    add ~file:m.fl_file ~line "OASIS003"
                      "service %s defines no role %s" svc role
                | _ -> ()
              end;
              if external_ref && r.Ast.starred && not (List.mem svc known) then
                add ~sev:Analyze.Warning ~file:m.fl_file ~line "OASIS004"
                  "starred prerequisite %s is issued outside the federation: there is \
                   no revocation channel to cascade over"
                  (node_str (svc, role));
              if kind = `Cred && (not r.Ast.starred) && List.mem svc known then
                add ~sev:Analyze.Info ~file:m.fl_file ~line "OASIS005"
                  "prerequisite %s is revocable but consumed without *; revoking it \
                   will not revoke %s"
                  (node_str (svc, role))
                  (fst e.Ast.head))
            refs)
        (Ast.entries m.fl_rolefile))
    t.members;

  (* Reachability and cycles. *)
  let reach = reachable t in
  let nodes =
    List.concat_map
      (fun m ->
        List.filter_map
          (fun role ->
            if
              List.exists
                (fun e -> String.equal (fst e.Ast.head) role)
                (Ast.entries m.fl_rolefile)
            then Some (m.fl_name, role)
            else None)
          (defined_roles m))
      t.members
  in
  (* head -> prerequisite edges, federation nodes only. *)
  let edges : (node, node) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun m ->
      List.iter
        (fun e ->
          let head = (m.fl_name, fst e.Ast.head) in
          List.iter
            (fun p -> if List.mem (fst p) known then Hashtbl.add edges head p)
            (prereqs m.fl_name e))
        (Ast.entries m.fl_rolefile))
    t.members;
  let in_deadlock : (node, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun scc ->
      let cyclic =
        match scc with
        | [ v ] -> List.exists (fun w -> w = v) (Hashtbl.find_all edges v)
        | _ -> List.length scc > 1
      in
      if cyclic && List.for_all (fun n -> not (Hashtbl.mem reach n)) scc then begin
        List.iter (fun n -> Hashtbl.replace in_deadlock n ()) scc;
        let anchor = List.hd (List.sort compare scc) in
        add
          ~file:(role_file (fst anchor))
          ~line:(role_line (fst anchor) (snd anchor))
          "OASIS001" "credential cycle %s has no bootstrap: no service can issue the \
                      first credential (deadlock)"
          (String.concat " -> " (List.map node_str (scc @ [ List.hd scc ])))
      end)
    (sccs nodes edges);
  List.iter
    (fun n ->
      if (not (Hashtbl.mem reach n)) && not (Hashtbl.mem in_deadlock n) then
        add ~sev:Analyze.Warning
          ~file:(role_file (fst n))
          ~line:(role_line (fst n) (snd n))
          "OASIS002" "role %s is unreachable: no chain of statements starting from the \
                      federation's axioms can enter it"
          (node_str n))
    nodes;

  (* OASIS006/OASIS007/OASIS008: escalation-frontier diagnostics.  Holders
     are the roles not derivable from the axioms — a base-reachable holder
     has an empty frontier by definition, so healthy federations pay
     nothing here. *)
  let holders =
    let base = sym_base t in
    List.filter (fun n -> not (Hashtbl.mem base n)) nodes
  in
  List.iter
    (fun h ->
      List.iter
        (fun w ->
          let file = role_file (fst w.w_target) and line = role_line (fst w.w_target) (snd w.w_target) in
          List.iter
            (fun code ->
              match code with
              | "OASIS006" ->
                  add ~sev:Analyze.Warning ~file ~line "OASIS006"
                    "revocation-blind escalation: a holder of %s can reach %s through a \
                     chain that consumes it without *; firing %s does not revoke %s \
                     (§4.11 lapses)"
                    (node_str h) (node_str w.w_target) (node_str h) (node_str w.w_target)
              | "OASIS007" ->
                  add ~sev:Analyze.Warning ~file ~line "OASIS007"
                    "low collusion budget: a holder of %s reaches %s with only %d \
                     colluding principal%s (threshold %d)"
                    (node_str h) (node_str w.w_target) w.w_colluders
                    (if w.w_colluders = 1 then "" else "s")
                    collusion_threshold
              | "OASIS008" ->
                  add ~sev:Analyze.Warning ~file ~line "OASIS008"
                    "cross-realm escalation: a holder of %s at %s reaches %s through \
                     interop/bootstrap roles"
                    (node_str h) (fst h) (node_str w.w_target)
              | _ -> ())
            (witness_codes ~collusion_threshold w))
        (escalation_witnesses t ~holder:h))
    holders;

  List.stable_sort
    (fun a b ->
      compare (a.Analyze.file, a.Analyze.line, a.Analyze.code)
        (b.Analyze.file, b.Analyze.line, b.Analyze.code))
    (List.rev !diags)
