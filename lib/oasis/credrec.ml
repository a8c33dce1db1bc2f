type cref = { index : int; magic : int }

type state = True | False | Unknown

type op = And | Or | Nand | Nor

(* Slots.  [slots.(i)] is slot [i]'s record, or the one shared [vacant]
   record while the slot is free or was never used; [magics.(i)] is the
   slot's magic.  A freed slot keeps only its magic, so no old reference
   can match the record a later allocation puts there, and a reused slot
   gets a new record.  Free slots wait on a stack.  [restore] may take a
   slot that is still on it; the slot stays there, and [alloc] skips it
   while it is in use.

   Edges.  Adjacency is indexed: every parent->child edge is one entry of
   a table-wide pool of ints, [edge_words] per edge: a table-unique id
   shifted left one bit with the negation mark in bit 0, the parent and
   child slots, and next/prev links threading the edge onto the parent's
   child list and onto the child's parent list.  Unlinking an edge from
   either list is O(1), so freeing a record unlinks it from all its
   parents in O(1) per edge.  Free entries are chained through their id
   word.  An edge taken off its parent's list ahead of its child's (a
   sweep or [forget] detaching a whole child set) has parent slot -1 until
   it is unlinked from the child too.  [ph_true]/[ph_false] count
   "phantom" parents that were already dead when attached — they
   contribute a frozen input to the counters but need no edge, because a
   dangling reference reads permanently False and can never change again.

   Records.  A record's leaf mark, permanence, direct use, operator and
   state share its [flags] word; its parent count is
   [p_true + p_false + p_unknown].  Cascades, sweeps and [forget] visit a
   record's children oldest edge first (see [kids_in_order]). *)
type record = {
  mutable flags : int;
  mutable p_true : int;
  mutable p_false : int;
  mutable p_unknown : int;
  mutable ph_true : int;
  mutable ph_false : int;
  mutable kids : int;  (* newest edge on the child list, or -1 *)
  mutable n_kids : int;
  mutable parents : int;  (* newest edge on the parent list, or -1 *)
  mutable hooks : (state -> unit) list;
  mutable gen : int;  (* cascade generation this record is queued under *)
  mutable pins : int;  (* in-flight holders; a pinned record is never swept *)
}

type table = {
  mutable slots : record array;
  mutable magics : int array;
  mutable free : int array;  (* stack of free slots, [n_free] deep *)
  mutable n_free : int;
  mutable high_water : int;
  mutable pool : int array;  (* the edges, [edge_words] ints each *)
  mutable pool_free : int;  (* first free edge entry, or -1 *)
  mutable pool_high : int;  (* edge entries ever used *)
  mutable next_edge : int;
  mutable generation : int;  (* bumped once per cascade *)
  mutable edge_ops : int;  (* elementary edge attach/detach/visit counter *)
  mutable live : int;  (* slots in use *)
  mutable allocated : int;  (* records ever allocated by [fresh] *)
}

(* [flags] *)
let leaf_bit = 1
let permanent_bit = 2
let use_bit = 4
let op_shift = 3
let st_shift = 5

let op_code = function And -> 0 | Or -> 1 | Nand -> 2 | Nor -> 3
let st_code = function True -> 0 | False -> 1 | Unknown -> 2
let has slot bit = slot.flags land bit <> 0
let set_flag slot bit v = slot.flags <- (if v then slot.flags lor bit else slot.flags land lnot bit)
let op_of slot =
  match (slot.flags lsr op_shift) land 3 with 0 -> And | 1 -> Or | 2 -> Nand | _ -> Nor

let st_of slot =
  match (slot.flags lsr st_shift) land 3 with 0 -> True | 1 -> False | _ -> Unknown

let set_st slot s = slot.flags <- slot.flags land lnot (3 lsl st_shift) lor (st_code s lsl st_shift)

(* [pool] *)
let edge_words = 7
let e_id = 0
let e_parent = 1
let e_child = 2
let e_knext = 3  (* on the parent's child list *)
let e_kprev = 4
let e_pnext = 5  (* on the child's parent list *)
let e_pprev = 6

let record flags =
  {
    flags;
    p_true = 0;
    p_false = 0;
    p_unknown = 0;
    ph_true = 0;
    ph_false = 0;
    kids = -1;
    n_kids = 0;
    parents = -1;
    hooks = [];
    gen = 0;
    pins = 0;
  }

(* Never written: [find] returns it for a reference that designates
   nothing, and every mutation checks for it first. *)
let vacant = record 0

let create_table () =
  {
    slots = Array.make 64 vacant;
    magics = Array.make 64 0;
    free = Array.make 16 0;
    n_free = 0;
    high_water = 0;
    pool = Array.make (16 * edge_words) 0;
    pool_free = -1;
    pool_high = 0;
    next_edge = 0;
    generation = 0;
    edge_ops = 0;
    live = 0;
    allocated = 0;
  }

(* The record [r] designates, or [vacant]. *)
let find t r =
  if r.index < 0 || r.index >= Array.length t.slots then vacant
  else
    let slot = t.slots.(r.index) in
    if slot != vacant && t.magics.(r.index) = r.magic then slot else vacant

let grow t n =
  let slots = Array.make n vacant and magics = Array.make n 0 in
  Array.blit t.slots 0 slots 0 (Array.length t.slots);
  Array.blit t.magics 0 magics 0 (Array.length t.magics);
  t.slots <- slots;
  t.magics <- magics

let push_free t i =
  if t.n_free = Array.length t.free then begin
    let bigger = Array.make (2 * t.n_free) 0 in
    Array.blit t.free 0 bigger 0 t.n_free;
    t.free <- bigger
  end;
  t.free.(t.n_free) <- i;
  t.n_free <- t.n_free + 1

let rec alloc t =
  if t.n_free > 0 then begin
    t.n_free <- t.n_free - 1;
    let i = t.free.(t.n_free) in
    if t.slots.(i) == vacant then i else alloc t (* restored while it waited *)
  end
  else begin
    if t.high_water >= Array.length t.slots then grow t (2 * Array.length t.slots);
    let i = t.high_water in
    t.high_water <- i + 1;
    i
  end

(* Take free slot [i] into use at [magic] with a parentless record. *)
let occupy t i ~magic flags =
  let slot = record flags in
  t.slots.(i) <- slot;
  t.magics.(i) <- magic;
  t.live <- t.live + 1;
  slot

let fresh t flags =
  let i = alloc t in
  let magic = t.magics.(i) + 1 in
  let slot = occupy t i ~magic flags in
  t.allocated <- t.allocated + 1;
  ({ index = i; magic }, slot)

(* Free slot [i], whose record has no edge left on either list. *)
let release t i =
  t.slots.(i) <- vacant;
  t.live <- t.live - 1;
  push_free t i

(* --- the edge pool --- *)

let new_edge t =
  if t.pool_free >= 0 then begin
    let e = t.pool_free in
    t.pool_free <- t.pool.((e * edge_words) + e_id);
    e
  end
  else begin
    let e = t.pool_high in
    let n = Array.length t.pool in
    if (e + 1) * edge_words > n then begin
      let bigger = Array.make (2 * n) 0 in
      Array.blit t.pool 0 bigger 0 n;
      t.pool <- bigger
    end;
    t.pool_high <- e + 1;
    e
  end

let free_edge t e =
  t.pool.((e * edge_words) + e_id) <- t.pool_free;
  t.pool_free <- e

let edge_id t e = t.pool.((e * edge_words) + e_id) lsr 1
let negated t e = t.pool.((e * edge_words) + e_id) land 1 = 1
let edge_child t e = t.pool.((e * edge_words) + e_child)

(* A new edge [eid] from [parent] (slot [pi]) to [child] (slot [ci]), at
   the front of both lists. *)
let link t ~eid ~negated ~pi parent ~ci child =
  let e = new_edge t in
  let pool = t.pool and w = e * edge_words in
  pool.(w + e_id) <- (eid lsl 1) lor if negated then 1 else 0;
  pool.(w + e_parent) <- pi;
  pool.(w + e_child) <- ci;
  pool.(w + e_knext) <- parent.kids;
  pool.(w + e_kprev) <- -1;
  if parent.kids >= 0 then pool.((parent.kids * edge_words) + e_kprev) <- e;
  parent.kids <- e;
  pool.(w + e_pnext) <- child.parents;
  pool.(w + e_pprev) <- -1;
  if child.parents >= 0 then pool.((child.parents * edge_words) + e_pprev) <- e;
  child.parents <- e;
  parent.n_kids <- parent.n_kids + 1

(* Unlink edge [e] from [parent]'s child list. *)
let unlink_kid t parent e =
  let pool = t.pool and w = e * edge_words in
  let next = pool.(w + e_knext) and prev = pool.(w + e_kprev) in
  if prev >= 0 then pool.((prev * edge_words) + e_knext) <- next else parent.kids <- next;
  if next >= 0 then pool.((next * edge_words) + e_kprev) <- prev;
  parent.n_kids <- parent.n_kids - 1

(* Unlink edge [e], already off its parent's child list, from [child]'s
   parent list and return it to the pool. *)
let unlink_in_edge t child e =
  t.edge_ops <- t.edge_ops + 1;
  let pool = t.pool and w = e * edge_words in
  let next = pool.(w + e_pnext) and prev = pool.(w + e_pprev) in
  if prev >= 0 then pool.((prev * edge_words) + e_pnext) <- next else child.parents <- next;
  if next >= 0 then pool.((next * edge_words) + e_pprev) <- prev;
  free_edge t e

(* Free every edge on [slot]'s parent list, unlinking each from its
   parent's child list unless it is already off it. *)
let drop_in_edges t slot =
  let e = ref slot.parents in
  while !e >= 0 do
    t.edge_ops <- t.edge_ops + 1;
    let w = !e * edge_words in
    let pi = t.pool.(w + e_parent) in
    if pi >= 0 then unlink_kid t t.slots.(pi) !e;
    let next = t.pool.(w + e_pnext) in
    free_edge t !e;
    e := next
  done;
  slot.parents <- -1

(* [slot]'s child edges oldest first, the order a cascade visits them.  A
   child list runs newest first, so it is read into the array from the
   back. *)
let kids_in_order t slot =
  let n = slot.n_kids in
  let edges = Array.make n 0 in
  let e = ref slot.kids in
  for i = n - 1 downto 0 do
    edges.(i) <- !e;
    e := t.pool.((!e * edge_words) + e_knext)
  done;
  edges

(* Detach [slot]'s whole child set, in visit order, and start it afresh.
   Each edge stays on its child's parent list until the caller unlinks it;
   it comes with its child's reference, taken now, because a hook may free
   the child in the meantime. *)
let take_kids t slot =
  let edges = kids_in_order t slot in
  let children =
    Array.map
      (fun e ->
        let ci = edge_child t e in
        t.pool.((e * edge_words) + e_parent) <- -1;
        { index = ci; magic = t.magics.(ci) })
      edges
  in
  slot.kids <- -1;
  slot.n_kids <- 0;
  (edges, children)

(* State of a combining record from its counters (§4.8). *)
let computed_state slot =
  let op = op_of slot in
  let base =
    match op with
    | And | Nand ->
        if slot.p_false > 0 then False else if slot.p_unknown > 0 then Unknown else True
    | Or | Nor ->
        if slot.p_true > 0 then True else if slot.p_unknown > 0 then Unknown else False
  in
  match (op, base) with
  | (And | Or), s -> s
  | (Nand | Nor), True -> False
  | (Nand | Nor), False -> True
  | (Nand | Nor), Unknown -> Unknown

let seen_through negated s =
  if not negated then s else match s with True -> False | False -> True | Unknown -> Unknown

let incr_counter child = function
  | True -> child.p_true <- child.p_true + 1
  | False -> child.p_false <- child.p_false + 1
  | Unknown -> child.p_unknown <- child.p_unknown + 1

let decr_counter child = function
  | True -> child.p_true <- child.p_true - 1
  | False -> child.p_false <- child.p_false - 1
  | Unknown -> child.p_unknown <- child.p_unknown - 1

(* A frozen input with no edge behind it: a parent already dead when
   attached, or a permanent one a sweep unlinked (see [gc_sweep]). *)
let add_phantom child c =
  (match c with
  | True -> child.ph_true <- child.ph_true + 1
  | False -> child.ph_false <- child.ph_false + 1
  | Unknown -> ());
  incr_counter child c

let update_counters child ~from ~into =
  if from <> into then begin
    decr_counter child from;
    incr_counter child into
  end

(* Cascade machinery: a state change is applied to the children's counters
   immediately, but the children themselves are recomputed from a worklist.
   The per-table generation counter dedups enqueues, so a record reached
   over many diamond paths is recomputed once with its settled counters
   instead of once per path (the old recursion re-walked whole subtrees).
   The marker is cleared on dequeue: if a later counter update arrives after
   a record was processed, it is simply re-enqueued — needed for uneven-depth
   DAGs where a short path reaches a record before a long one. *)
let enqueue t q ci child =
  if child.gen <> t.generation then begin
    child.gen <- t.generation;
    Queue.push { index = ci; magic = t.magics.(ci) } q
  end

(* Fire hooks for [slot]'s (already applied) old -> current transition and
   push the counter delta into every child.  The child set is read after
   the hooks, which may attach or detach edges re-entrantly; nothing in the
   loop itself does. *)
let apply_change t q slot ~old_state =
  List.iter (fun hook -> hook (st_of slot)) slot.hooks;
  let now = st_of slot in
  let visit e =
    t.edge_ops <- t.edge_ops + 1;
    let ci = edge_child t e and negated = negated t e in
    let child = t.slots.(ci) in
    update_counters child ~from:(seen_through negated old_state) ~into:(seen_through negated now);
    enqueue t q ci child
  in
  match slot.n_kids with
  | 0 -> ()
  | 1 -> visit slot.kids
  | _ -> Array.iter visit (kids_in_order t slot)

let drain t q =
  while not (Queue.is_empty q) do
    let child = find t (Queue.pop q) in
    if child != vacant then begin
      child.gen <- 0;
      if not (has child permanent_bit) then begin
        let old_state = st_of child in
        let next = computed_state child in
        if next <> old_state then begin
          set_st child next;
          apply_change t q child ~old_state
        end
      end
    end
  done

let cascade t slot ~old_state =
  if st_of slot <> old_state then begin
    t.generation <- t.generation + 1;
    let q = Queue.create () in
    apply_change t q slot ~old_state;
    drain t q
  end

let recompute t slot =
  if not (has slot permanent_bit) then begin
    let old_state = st_of slot in
    set_st slot (computed_state slot);
    cascade t slot ~old_state
  end

(* Freeze [child] at [s] and propagate. *)
let force t child s =
  if not (has child permanent_bit) then begin
    let old_state = st_of child in
    set_st child s;
    set_flag child permanent_bit true;
    cascade t child ~old_state
  end

let leaf t ?(state = True) () =
  let r, _ = fresh t (leaf_bit lor (st_code state lsl st_shift)) in
  r

let add_parent t ~child ?(negated = false) parent_ref =
  let child_slot = find t child in
  if child_slot != vacant then begin
    if has child_slot leaf_bit then invalid_arg "Credrec.add_parent: child is a leaf";
    t.edge_ops <- t.edge_ops + 1;
    let p = find t parent_ref in
    if p != vacant then begin
      let eid = t.next_edge in
      t.next_edge <- eid + 1;
      link t ~eid ~negated ~pi:parent_ref.index p ~ci:child.index child_slot;
      incr_counter child_slot (seen_through negated (st_of p))
    end
    else begin
      (* A dead parent reads permanently False: record the frozen
         contribution, no edge needed. *)
      add_phantom child_slot (seen_through negated False)
    end;
    recompute t child_slot
  end

let combine_fresh t ?(op = And) parents =
  let r, slot = fresh t (op_code op lsl op_shift) in
  set_st slot (computed_state slot);
  List.iter (fun (p, negated) -> add_parent t ~child:r ~negated p) parents;
  r

let combine t ?(op = And) parents =
  match (op, parents) with
  | And, [ (single, false) ] -> single (* §4.7's one-record optimisation *)
  | _ -> combine_fresh t ~op parents

let state t r =
  let slot = find t r in
  if slot != vacant then st_of slot else False

let is_permanent t r =
  let slot = find t r in
  slot == vacant || has slot permanent_bit

let live t r = find t r != vacant

let set_leaf t r new_state =
  let slot = find t r in
  if slot != vacant && (not (has slot permanent_bit)) && st_of slot <> new_state then begin
    if not (has slot leaf_bit) then invalid_arg "Credrec.set_leaf: not a leaf record";
    let old_state = st_of slot in
    set_st slot new_state;
    cascade t slot ~old_state
  end

let make_permanent t r =
  let slot = find t r in
  if slot != vacant then set_flag slot permanent_bit true

let invalidate t r =
  let slot = find t r in
  if slot != vacant then force t slot False

let set_direct_use t r v =
  let slot = find t r in
  if slot != vacant then set_flag slot use_bit v

let on_change t r hook =
  let slot = find t r in
  if slot != vacant then slot.hooks <- hook :: slot.hooks

let clear_hooks t r =
  let slot = find t r in
  if slot != vacant then slot.hooks <- []

let children_count t r = (find t r).n_kids
let edge_ops t = t.edge_ops

(* Forced-input analysis for GC: for And/Nand a permanently-False parent
   forces the child; for Or/Nor a permanently-True parent does. *)
let forcing_input op = match op with And | Nand -> False | Or | Nor -> True

let gc_sweep t =
  let reclaimed = ref 0 in
  (* Phase 1: unlink edges whose parent is permanent, baking the frozen
     contribution into the child. *)
  for i = 0 to t.high_water - 1 do
    let parent = t.slots.(i) in
    if parent != vacant && has parent permanent_bit && parent.n_kids > 0 then begin
      let edges, children = take_kids t parent in
      Array.iteri
        (fun k e ->
          let child = find t children.(k) in
          if child != vacant then begin
            let negated = negated t e in
            unlink_in_edge t child e;
            let contribution = seen_through negated (st_of parent) in
            decr_counter child contribution;
            let op = op_of child in
            if contribution = forcing_input op then begin
              (* The frozen input pins the child's output forever. *)
              let forced =
                match op with
                | And | Or -> contribution
                | Nand | Nor -> seen_through true contribution
              in
              if forced = False then force t child forced
              else begin
                (* Forced True, the child must stay revocable: the
                   input stays as a phantom parent, and the child is not
                   frozen. *)
                add_phantom child contribution
              end
            end
            else recompute t child
          end)
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
    if slot != vacant && slot.n_kids = 0 && slot.hooks = [] && slot.pins = 0 then begin
      let uninteresting = not (has slot use_bit) in
      let dead_permanent = has slot permanent_bit && (st_of slot = False || uninteresting) in
      if uninteresting || dead_permanent then candidates := i :: !candidates
    end
  done;
  List.iter
    (fun i ->
      (* Detach from every parent in O(1) per edge through the parent
         list (the old per-sweep List.filter rebuild cost O(n) per dead
         child to discover). *)
      drop_in_edges t t.slots.(i);
      release t i;
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
  let slot = find t r in
  if slot != vacant then begin
    let old_st = st_of slot in
    drop_in_edges t slot;
    let edges, children = take_kids t slot in
    release t r.index;
    (* Children see a dangling (permanently-False) reference from now on;
       bake the frozen contribution, forcing the child permanent when the
       dangling value pins its operator. *)
    Array.iteri
      (fun k e ->
        let child = find t children.(k) in
        if child != vacant then begin
          let negated = negated t e in
          unlink_in_edge t child e;
          decr_counter child (seen_through negated old_st);
          let frozen = seen_through negated False in
          let op = op_of child in
          if frozen = forcing_input op then
            force t child
              (match op with And | Or -> frozen | Nand | Nor -> seen_through true frozen)
          else recompute t child
        end)
      edges
  end

let restore t r =
  if r.index < 0 || r.magic <= 0 then false
  else begin
    if r.index >= Array.length t.slots then begin
      let n = ref (Array.length t.slots) in
      while r.index >= !n do
        n := 2 * !n
      done;
      grow t !n
    end;
    if r.index < t.high_water && (t.slots.(r.index) != vacant || t.magics.(r.index) > r.magic)
    then false
    else begin
      if r.index >= t.high_water then begin
        for i = t.high_water to r.index - 1 do
          push_free t i
        done;
        t.high_water <- r.index + 1
      end;
      (* An empty And record: no parents, so it computes True — the caller
         re-attaches dependency parents (or invalidates it) afterwards.  A
         slot below the high-water mark stays on the free stack, where
         [alloc] skips it. *)
      ignore (occupy t r.index ~magic:r.magic (op_code And lsl op_shift));
      true
    end
  end

let live_records t = t.live
let allocations t = t.allocated

let pin t r =
  let slot = find t r in
  if slot != vacant then slot.pins <- slot.pins + 1

let unpin t r =
  let slot = find t r in
  if slot.pins > 0 then slot.pins <- slot.pins - 1

(* Structural audit used by the randomized credential-graph suite: edge
   symmetry across both lists, counter bookkeeping and state consistency.
   Only meaningful at quiescence (not from inside a hook, where a cascade
   is mid-flight). *)
let self_check t =
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  try
    (* [hooks] compared physically: a hook is a closure *)
    if vacant.hooks != [] || { vacant with hooks = [] } <> record 0 then
      bad "the shared vacant record was written";
    let pool = t.pool in
    (* 1: on its parent's child list; 2: on its child's parent list too *)
    let seen = Bytes.make t.pool_high '\000' in
    let edges = ref 0 in
    for i = 0 to t.high_water - 1 do
      let slot = t.slots.(i) in
      if slot != vacant then begin
        let n = ref 0 and prev = ref (-1) and e = ref slot.kids in
        while !e >= 0 do
          let w = !e * edge_words in
          let eid = edge_id t !e and ci = pool.(w + e_child) in
          if Bytes.get seen !e <> '\000' || pool.(w + e_kprev) <> !prev || pool.(w + e_parent) <> i
          then bad "slot %d: child list broken at edge %d" i eid;
          if ci < 0 || ci >= t.high_water || t.slots.(ci) == vacant then
            bad "slot %d: dangling child edge %d" i eid;
          Bytes.set seen !e '\001';
          incr n;
          prev := !e;
          e := pool.(w + e_knext)
        done;
        if !n <> slot.n_kids then bad "slot %d: %d child edges, n_kids %d" i !n slot.n_kids;
        edges := !edges + !n
      end
    done;
    for i = 0 to t.high_water - 1 do
      let slot = t.slots.(i) in
      if slot != vacant then begin
        (* Recount contributions from the parent list plus phantoms. *)
        let rt = ref slot.ph_true and rf = ref slot.ph_false and ru = ref 0 in
        let prev = ref (-1) and e = ref slot.parents in
        while !e >= 0 do
          let w = !e * edge_words in
          let eid = edge_id t !e in
          if pool.(w + e_pprev) <> !prev || pool.(w + e_child) <> i then
            bad "slot %d: parent list broken at edge %d" i eid;
          if Bytes.get seen !e <> '\001' then bad "slot %d: in-edge %d missing from parent" i eid;
          Bytes.set seen !e '\002';
          (match seen_through (negated t !e) (st_of t.slots.(pool.(w + e_parent))) with
          | True -> incr rt
          | False -> incr rf
          | Unknown -> incr ru);
          prev := !e;
          e := pool.(w + e_pnext)
        done;
        if !rt <> slot.p_true || !rf <> slot.p_false || !ru <> slot.p_unknown then
          bad "slot %d: counters (%d,%d,%d) <> recount (%d,%d,%d)" i slot.p_true slot.p_false
            slot.p_unknown !rt !rf !ru;
        if (not (has slot permanent_bit)) && (not (has slot leaf_bit))
           && st_of slot <> computed_state slot
        then bad "slot %d: state out of date w.r.t. counters" i
      end
    done;
    Bytes.iteri
      (fun e c ->
        if c = '\001' then bad "edge %d missing from its child's parent list" (edge_id t e))
      seen;
    let n_free = ref 0 and e = ref t.pool_free in
    while !e >= 0 do
      incr n_free;
      e := pool.((!e * edge_words) + e_id)
    done;
    if !edges + !n_free <> t.pool_high then
      bad "edge pool: %d linked + %d free <> %d used" !edges !n_free t.pool_high;
    Ok ()
  with Bad m -> Error m

let fp_key = Oasis_util.Siphash.key_of_string "oasis.credrec.fingerprint"

let fingerprint t =
  let b = Buffer.create 1024 in
  let add_int n =
    Buffer.add_string b (string_of_int n);
    Buffer.add_char b ','
  in
  for i = 0 to t.high_water - 1 do
    let slot = t.slots.(i) in
    if slot != vacant then begin
      add_int i;
      add_int t.magics.(i);
      Buffer.add_char b (if has slot leaf_bit then 'l' else 'c');
      Buffer.add_char b (match op_of slot with And -> '&' | Or -> '|' | Nand -> '^' | Nor -> '!');
      Buffer.add_char b (match st_of slot with True -> 'T' | False -> 'F' | Unknown -> 'U');
      Buffer.add_char b (if has slot permanent_bit then 'P' else '-');
      Buffer.add_char b (if has slot use_bit then 'D' else '-');
      add_int (slot.p_true + slot.p_false + slot.p_unknown);
      add_int slot.p_true;
      add_int slot.p_false;
      add_int slot.p_unknown;
      add_int slot.ph_true;
      add_int slot.ph_false;
      (* Forward edges in edge-id order, oldest first: edge ids are
         allocated by a deterministic counter, so equal histories render
         equal bytes. *)
      Array.iter
        (fun e ->
          let ci = edge_child t e in
          add_int (edge_id t e);
          add_int ci;
          add_int t.magics.(ci);
          Buffer.add_char b (if negated t e then '~' else '.'))
        (kids_in_order t slot);
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
