type cref = { index : int; magic : int }

type state = True | False | Unknown

type op = And | Or | Nand | Nor

(* Adjacency is indexed: every parent->child edge gets a table-unique id,
   stored forward in the parent's [children] and backward in the child's
   [in_edges].  The back index is what makes detach O(1): freeing a record
   unlinks it from every parent by direct key removal instead of rebuilding
   the parent's child list.  [ph_true]/[ph_false] count "phantom" parents
   that were already dead when attached — they contribute a frozen input to
   the counters but need no edge, because a dangling reference reads
   permanently False and can never change again. *)
type record = {
  mutable magic : int;
  mutable used : bool;
  mutable is_leaf : bool;
  mutable op : op;
  mutable n_parents : int;
  mutable p_true : int;
  mutable p_false : int;
  mutable p_unknown : int;
  children : (int, cref * bool) Hashtbl.t;  (* edge id -> (child, edge negated) *)
  in_edges : (int, cref) Hashtbl.t;  (* edge id -> parent *)
  mutable ph_true : int;
  mutable ph_false : int;
  mutable st : state;
  mutable permanent : bool;
  mutable direct_use : bool;
  mutable hooks : (state -> unit) list;
  mutable gen : int;  (* cascade generation this record is queued under *)
}

type table = {
  mutable slots : record array;
  mutable free : int list;
  mutable high_water : int;
  mutable next_edge : int;
  mutable generation : int;  (* bumped once per cascade *)
  mutable edge_ops : int;  (* elementary edge attach/detach/visit counter *)
}

let blank () =
  {
    magic = 0;
    used = false;
    is_leaf = true;
    op = And;
    n_parents = 0;
    p_true = 0;
    p_false = 0;
    p_unknown = 0;
    children = Hashtbl.create 4;
    in_edges = Hashtbl.create 4;
    ph_true = 0;
    ph_false = 0;
    st = True;
    permanent = false;
    direct_use = false;
    hooks = [];
    gen = 0;
  }

let create_table () =
  {
    slots = Array.init 64 (fun _ -> blank ());
    free = [];
    high_water = 0;
    next_edge = 0;
    generation = 0;
    edge_ops = 0;
  }

let get t r =
  if r.index < 0 || r.index >= Array.length t.slots then None
  else
    let slot = t.slots.(r.index) in
    if slot.used && slot.magic = r.magic then Some slot else None

let alloc t =
  match t.free with
  | i :: rest ->
      t.free <- rest;
      i
  | [] ->
      if t.high_water >= Array.length t.slots then begin
        let bigger = Array.init (2 * Array.length t.slots) (fun _ -> blank ()) in
        Array.blit t.slots 0 bigger 0 (Array.length t.slots);
        t.slots <- bigger
      end;
      let i = t.high_water in
      t.high_water <- t.high_water + 1;
      i

let fresh t =
  let i = alloc t in
  let slot = t.slots.(i) in
  slot.used <- true;
  slot.magic <- slot.magic + 1;
  slot.is_leaf <- true;
  slot.op <- And;
  slot.n_parents <- 0;
  slot.p_true <- 0;
  slot.p_false <- 0;
  slot.p_unknown <- 0;
  Hashtbl.reset slot.children;
  Hashtbl.reset slot.in_edges;
  slot.ph_true <- 0;
  slot.ph_false <- 0;
  slot.st <- True;
  slot.permanent <- false;
  slot.direct_use <- false;
  slot.hooks <- [];
  slot.gen <- 0;
  ({ index = i; magic = slot.magic }, slot)

(* State of a combining record from its counters (§4.8). *)
let computed_state slot =
  let base =
    match slot.op with
    | And | Nand ->
        if slot.p_false > 0 then False else if slot.p_unknown > 0 then Unknown else True
    | Or | Nor ->
        if slot.p_true > 0 then True else if slot.p_unknown > 0 then Unknown else False
  in
  match (slot.op, base) with
  | (And | Or), s -> s
  | (Nand | Nor), True -> False
  | (Nand | Nor), False -> True
  | (Nand | Nor), Unknown -> Unknown

let seen_through negated s =
  if not negated then s else match s with True -> False | False -> True | Unknown -> Unknown

let update_counters child ~from ~into =
  if from <> into then begin
    (match from with
    | True -> child.p_true <- child.p_true - 1
    | False -> child.p_false <- child.p_false - 1
    | Unknown -> child.p_unknown <- child.p_unknown - 1);
    match into with
    | True -> child.p_true <- child.p_true + 1
    | False -> child.p_false <- child.p_false + 1
    | Unknown -> child.p_unknown <- child.p_unknown + 1
  end

(* Cascade machinery: a state change is applied to the children's counters
   immediately, but the children themselves are recomputed from a worklist.
   The per-table generation counter dedups enqueues, so a record reached
   over many diamond paths is recomputed once with its settled counters
   instead of once per path (the old recursion re-walked whole subtrees).
   The marker is cleared on dequeue: if a later counter update arrives after
   a record was processed, it is simply re-enqueued — needed for uneven-depth
   DAGs where a short path reaches a record before a long one. *)
let enqueue t q child_ref child =
  if child.gen <> t.generation then begin
    child.gen <- t.generation;
    Queue.push child_ref q
  end

(* Fire hooks for [slot]'s (already applied) old -> current transition and
   push the counter delta into every child.  The edge set is snapshotted
   because hooks may attach or detach edges re-entrantly. *)
let apply_change t q slot ~old_state =
  List.iter (fun hook -> hook slot.st) slot.hooks;
  let edges = Hashtbl.fold (fun _eid e acc -> e :: acc) slot.children [] in
  List.iter
    (fun (child_ref, negated) ->
      t.edge_ops <- t.edge_ops + 1;
      match get t child_ref with
      | None -> ()  (* unreachable: frees unlink their in-edges eagerly *)
      | Some child ->
          update_counters child ~from:(seen_through negated old_state)
            ~into:(seen_through negated slot.st);
          enqueue t q child_ref child)
    edges

let drain t q =
  while not (Queue.is_empty q) do
    let child_ref = Queue.pop q in
    match get t child_ref with
    | None -> ()
    | Some child ->
        child.gen <- 0;
        if not child.permanent then begin
          let old_state = child.st in
          let next = computed_state child in
          if next <> old_state then begin
            child.st <- next;
            apply_change t q child ~old_state
          end
        end
  done

let cascade t slot ~old_state =
  if slot.st <> old_state then begin
    t.generation <- t.generation + 1;
    let q = Queue.create () in
    apply_change t q slot ~old_state;
    drain t q
  end

let recompute t slot =
  if not slot.permanent then begin
    let old_state = slot.st in
    slot.st <- computed_state slot;
    cascade t slot ~old_state
  end

let leaf t ?(state = True) () =
  let r, slot = fresh t in
  slot.st <- state;
  r

let incr_counter child = function
  | True -> child.p_true <- child.p_true + 1
  | False -> child.p_false <- child.p_false + 1
  | Unknown -> child.p_unknown <- child.p_unknown + 1

let add_parent t ~child ?(negated = false) parent_ref =
  match get t child with
  | None -> ()
  | Some child_slot ->
      if child_slot.is_leaf then invalid_arg "Credrec.add_parent: child is a leaf";
      t.edge_ops <- t.edge_ops + 1;
      child_slot.n_parents <- child_slot.n_parents + 1;
      (match get t parent_ref with
      | Some p ->
          let eid = t.next_edge in
          t.next_edge <- t.next_edge + 1;
          Hashtbl.replace p.children eid (child, negated);
          Hashtbl.replace child_slot.in_edges eid parent_ref;
          incr_counter child_slot (seen_through negated p.st)
      | None ->
          (* A dead parent reads permanently False: record the frozen
             contribution, no edge needed. *)
          let c = seen_through negated False in
          (match c with
          | True -> child_slot.ph_true <- child_slot.ph_true + 1
          | False -> child_slot.ph_false <- child_slot.ph_false + 1
          | Unknown -> ());
          incr_counter child_slot c);
      recompute t child_slot

let combine_fresh t ?(op = And) parents =
  let r, slot = fresh t in
  slot.is_leaf <- false;
  slot.op <- op;
  slot.st <- computed_state slot;
  List.iter (fun (p, negated) -> add_parent t ~child:r ~negated p) parents;
  r

let combine t ?(op = And) parents =
  match (op, parents) with
  | And, [ (single, false) ] -> single (* §4.7's one-record optimisation *)
  | _ -> combine_fresh t ~op parents

let state t r = match get t r with Some slot -> slot.st | None -> False

let is_permanent t r = match get t r with Some slot -> slot.permanent | None -> true

let live t r = get t r <> None

let set_leaf t r new_state =
  match get t r with
  | None -> ()
  | Some slot ->
      if (not slot.permanent) && slot.st <> new_state then begin
        if not slot.is_leaf then invalid_arg "Credrec.set_leaf: not a leaf record";
        let old_state = slot.st in
        slot.st <- new_state;
        cascade t slot ~old_state
      end

let make_permanent t r =
  match get t r with None -> () | Some slot -> slot.permanent <- true

let invalidate t r =
  match get t r with
  | None -> ()
  | Some slot ->
      if not slot.permanent then begin
        let old_state = slot.st in
        slot.st <- False;
        slot.permanent <- true;
        cascade t slot ~old_state
      end

let set_direct_use t r v = match get t r with Some slot -> slot.direct_use <- v | None -> ()

let on_change t r hook =
  match get t r with Some slot -> slot.hooks <- hook :: slot.hooks | None -> ()

let clear_hooks t r = match get t r with Some slot -> slot.hooks <- [] | None -> ()

let children_count t r = match get t r with Some slot -> Hashtbl.length slot.children | None -> 0

let edge_ops t = t.edge_ops

(* Forced-input analysis for GC: for And/Nand a permanently-False parent
   forces the child; for Or/Nor a permanently-True parent does. *)
let forcing_input op = match op with And | Nand -> False | Or | Nor -> True

(* Detach the child end of edge [eid] (the parent keeps or clears its own
   entry at the call site).  O(1) per edge thanks to the back index. *)
let unlink_in_edge t child eid =
  t.edge_ops <- t.edge_ops + 1;
  Hashtbl.remove child.in_edges eid

let gc_sweep t =
  let reclaimed = ref 0 in
  (* Phase 1: unlink edges whose parent is permanent, baking the frozen
     contribution into the child. *)
  for i = 0 to t.high_water - 1 do
    let parent = t.slots.(i) in
    if parent.used && parent.permanent && Hashtbl.length parent.children > 0 then begin
      let edges = Hashtbl.fold (fun eid e acc -> (eid, e) :: acc) parent.children [] in
      Hashtbl.reset parent.children;
      List.iter
        (fun (eid, (child_ref, negated)) ->
          match get t child_ref with
          | None -> ()
          | Some child ->
              unlink_in_edge t child eid;
              let contribution = seen_through negated parent.st in
              child.n_parents <- child.n_parents - 1;
              (match contribution with
              | True -> child.p_true <- child.p_true - 1
              | False -> child.p_false <- child.p_false - 1
              | Unknown -> child.p_unknown <- child.p_unknown - 1);
              if contribution = forcing_input child.op then begin
                (* The frozen input pins the child's output forever. *)
                let forced =
                  match child.op with And | Or -> contribution | Nand | Nor ->
                    seen_through true contribution
                in
                if not child.permanent then begin
                  let old_state = child.st in
                  child.st <- forced;
                  child.permanent <- true;
                  cascade t child ~old_state
                end
              end
              else recompute t child)
        edges
    end
  done;
  (* Phase 2: delete records that can never again change an observable
     answer: a dangling reference reads permanently-False, so a record may
     go only when every future read would already be False (revoked) or when
     nobody can read it (uninteresting: no certificate embeds it, no
     children, no notify hooks).  Candidates are decided before any record
     is freed, so a parent whose last child dies this sweep is collected
     next sweep — the paper's iterated-sweep settling behaviour. *)
  let candidates = ref [] in
  for i = 0 to t.high_water - 1 do
    let slot = t.slots.(i) in
    if slot.used && Hashtbl.length slot.children = 0 && slot.hooks = [] then begin
      let uninteresting = not slot.direct_use in
      let dead_permanent = slot.permanent && (slot.st = False || not slot.direct_use) in
      if uninteresting || dead_permanent then candidates := i :: !candidates
    end
  done;
  List.iter
    (fun i ->
      let slot = t.slots.(i) in
      (* Detach from every parent in O(1) per edge via the back index
         (this is what the old per-sweep List.filter rebuild cost O(n) per
         dead child to discover). *)
      Hashtbl.iter
        (fun eid parent_ref ->
          t.edge_ops <- t.edge_ops + 1;
          match get t parent_ref with
          | Some p -> Hashtbl.remove p.children eid
          | None -> ())
        slot.in_edges;
      Hashtbl.reset slot.in_edges;
      slot.ph_true <- 0;
      slot.ph_false <- 0;
      slot.used <- false;
      slot.hooks <- [];
      Hashtbl.reset slot.children;
      t.free <- i :: t.free;
      incr reclaimed)
    !candidates;
  !reclaimed

(* --- Durable recovery support (lib/store) ---

   [forget] models a crash taking a record with it: the slot is freed
   without bumping the magic (so a persisted reference can later be
   [restore]d at the same identity), every child now holds a dangling
   reference — which reads permanently False — and that frozen
   contribution is baked into the child exactly as {!gc_sweep} bakes
   permanent parents.  [restore] re-materialises a slot at a persisted
   [(index, magic)] so that references embedded in certificates held by
   remote parties resolve again after recovery.  Recovery must restore
   {e every} persisted reference (including ones it will immediately
   invalidate) before allocating fresh records, otherwise a fresh
   allocation could reuse a persisted identity. *)

let forget t r =
  match get t r with
  | None -> ()
  | Some slot ->
      let old_st = slot.st in
      (* Unlink from every parent in O(1) per edge via the back index. *)
      Hashtbl.iter
        (fun eid parent_ref ->
          t.edge_ops <- t.edge_ops + 1;
          match get t parent_ref with
          | Some p -> Hashtbl.remove p.children eid
          | None -> ())
        slot.in_edges;
      Hashtbl.reset slot.in_edges;
      let edges = Hashtbl.fold (fun eid e acc -> (eid, e) :: acc) slot.children [] in
      Hashtbl.reset slot.children;
      slot.ph_true <- 0;
      slot.ph_false <- 0;
      slot.used <- false;
      slot.hooks <- [];
      slot.direct_use <- false;
      t.free <- r.index :: t.free;
      (* Children see a dangling (permanently-False) reference from now on;
         bake the frozen contribution, forcing the child permanent when the
         dangling value pins its operator. *)
      List.iter
        (fun (eid, (child_ref, negated)) ->
          match get t child_ref with
          | None -> ()
          | Some child ->
              unlink_in_edge t child eid;
              child.n_parents <- child.n_parents - 1;
              (match seen_through negated old_st with
              | True -> child.p_true <- child.p_true - 1
              | False -> child.p_false <- child.p_false - 1
              | Unknown -> child.p_unknown <- child.p_unknown - 1);
              let frozen = seen_through negated False in
              if frozen = forcing_input child.op then begin
                if not child.permanent then begin
                  let old_state = child.st in
                  child.st <-
                    (match child.op with
                    | And | Or -> frozen
                    | Nand | Nor -> seen_through true frozen);
                  child.permanent <- true;
                  cascade t child ~old_state
                end
              end
              else recompute t child)
        edges

let restore t r =
  if r.index < 0 || r.magic <= 0 then false
  else begin
    if r.index >= Array.length t.slots then begin
      let n = ref (Array.length t.slots) in
      while r.index >= !n do
        n := 2 * !n
      done;
      let bigger = Array.init !n (fun _ -> blank ()) in
      Array.blit t.slots 0 bigger 0 (Array.length t.slots);
      t.slots <- bigger
    end;
    let slot = t.slots.(r.index) in
    if r.index < t.high_water && (slot.used || slot.magic > r.magic) then false
    else begin
      if r.index >= t.high_water then begin
        for i = t.high_water to r.index - 1 do
          t.free <- i :: t.free
        done;
        t.high_water <- r.index + 1
      end
      else t.free <- List.filter (fun i -> i <> r.index) t.free;
      slot.used <- true;
      slot.magic <- r.magic;
      (* An empty And record: no parents, so it computes True — the caller
         re-attaches dependency parents (or invalidates it) afterwards. *)
      slot.is_leaf <- false;
      slot.op <- And;
      slot.n_parents <- 0;
      slot.p_true <- 0;
      slot.p_false <- 0;
      slot.p_unknown <- 0;
      Hashtbl.reset slot.children;
      Hashtbl.reset slot.in_edges;
      slot.ph_true <- 0;
      slot.ph_false <- 0;
      slot.st <- True;
      slot.permanent <- false;
      slot.direct_use <- false;
      slot.hooks <- [];
      slot.gen <- 0;
      true
    end
  end

let live_records t =
  let n = ref 0 in
  for i = 0 to t.high_water - 1 do
    if t.slots.(i).used then incr n
  done;
  !n

(* Structural audit used by the randomized credential-graph suite: edge
   symmetry, counter bookkeeping and state consistency.  Only meaningful at
   quiescence (not from inside a hook, where a cascade is mid-flight). *)
let self_check t =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let exception Bad of string in
  try
    for i = 0 to t.high_water - 1 do
      let slot = t.slots.(i) in
      if slot.used then begin
        let me = { index = i; magic = slot.magic } in
        Hashtbl.iter
          (fun eid (child_ref, _neg) ->
            match get t child_ref with
            | None -> raise (Bad (Printf.sprintf "slot %d: dangling child edge %d" i eid))
            | Some child -> (
                match Hashtbl.find_opt child.in_edges eid with
                | Some p when p = me -> ()
                | _ ->
                    raise
                      (Bad (Printf.sprintf "slot %d: edge %d missing from child back index" i eid))))
          slot.children;
        Hashtbl.iter
          (fun eid parent_ref ->
            match get t parent_ref with
            | None -> raise (Bad (Printf.sprintf "slot %d: dangling in-edge %d" i eid))
            | Some parent -> (
                match Hashtbl.find_opt parent.children eid with
                | Some (c, _) when c = me -> ()
                | _ ->
                    raise
                      (Bad (Printf.sprintf "slot %d: in-edge %d missing from parent" i eid))))
          slot.in_edges;
        if slot.p_true + slot.p_false + slot.p_unknown <> slot.n_parents then
          raise
            (Bad
               (Printf.sprintf "slot %d: counters sum %d <> n_parents %d" i
                  (slot.p_true + slot.p_false + slot.p_unknown)
                  slot.n_parents));
        (* Recount contributions from the back index plus phantoms. *)
        let rt = ref slot.ph_true and rf = ref slot.ph_false and ru = ref 0 in
        Hashtbl.iter
          (fun eid parent_ref ->
            match get t parent_ref with
            | None -> ()
            | Some parent -> (
                let negated =
                  match Hashtbl.find_opt parent.children eid with
                  | Some (_, n) -> n
                  | None -> false
                in
                match seen_through negated parent.st with
                | True -> incr rt
                | False -> incr rf
                | Unknown -> incr ru))
          slot.in_edges;
        if !rt <> slot.p_true || !rf <> slot.p_false || !ru <> slot.p_unknown then
          raise
            (Bad
               (Printf.sprintf "slot %d: counters (%d,%d,%d) <> recount (%d,%d,%d)" i slot.p_true
                  slot.p_false slot.p_unknown !rt !rf !ru));
        if (not slot.permanent) && not slot.is_leaf then
          if slot.st <> computed_state slot then
            raise (Bad (Printf.sprintf "slot %d: state out of date w.r.t. counters" i))
      end
    done;
    Ok ()
  with Bad m -> fail "%s" m

let fp_key = Oasis_util.Siphash.key_of_string "oasis.credrec.fingerprint"

let fingerprint t =
  let b = Buffer.create 1024 in
  let add_int n =
    Buffer.add_string b (string_of_int n);
    Buffer.add_char b ','
  in
  for i = 0 to t.high_water - 1 do
    let slot = t.slots.(i) in
    if slot.used then begin
      add_int i;
      add_int slot.magic;
      Buffer.add_char b (if slot.is_leaf then 'l' else 'c');
      Buffer.add_char b (match slot.op with And -> '&' | Or -> '|' | Nand -> '^' | Nor -> '!');
      Buffer.add_char b (match slot.st with True -> 'T' | False -> 'F' | Unknown -> 'U');
      Buffer.add_char b (if slot.permanent then 'P' else '-');
      Buffer.add_char b (if slot.direct_use then 'D' else '-');
      add_int slot.n_parents;
      add_int slot.p_true;
      add_int slot.p_false;
      add_int slot.p_unknown;
      add_int slot.ph_true;
      add_int slot.ph_false;
      (* Forward edges in edge-id order: edge ids are allocated by a
         deterministic counter, so equal histories render equal bytes. *)
      let edges = Hashtbl.fold (fun eid e acc -> (eid, e) :: acc) slot.children [] in
      let edges = List.sort (fun (a, _) (c, _) -> Int.compare a c) edges in
      List.iter
        (fun (eid, (child, negated)) ->
          add_int eid;
          add_int child.index;
          add_int child.magic;
          Buffer.add_char b (if negated then '~' else '.'))
        edges;
      Buffer.add_char b ';'
    end
  done;
  Oasis_util.Siphash.hash fp_key (Buffer.contents b)

let add_ref b r =
  Oasis_util.Hex.add_int b r.index;
  Buffer.add_char b '.';
  Oasis_util.Hex.add_int b r.magic

let marshal_ref r =
  let b = Buffer.create 16 in
  add_ref b r;
  Buffer.contents b

let unmarshal_ref s =
  match String.index_opt s '.' with
  | None -> None
  | Some dot -> (
      let a = String.sub s 0 dot and b = String.sub s (dot + 1) (String.length s - dot - 1) in
      match (int_of_string_opt ("0x" ^ a), int_of_string_opt ("0x" ^ b)) with
      | Some index, Some magic -> Some { index; magic }
      | _ -> None)

let pp_state ppf s =
  Format.pp_print_string ppf (match s with True -> "True" | False -> "False" | Unknown -> "Unknown")
