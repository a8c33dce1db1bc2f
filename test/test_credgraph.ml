(* Randomized credential-record DAG suite (§4.6–4.8).

   A seeded generator builds random DAGs (random depth, fan-out, operators
   and negated parent edges) and drives them through arbitrary interleavings
   of leaf flips, revocations, edge attachment, permanence and GC sweeps.
   After every operation the implementation is audited against a pure model
   evaluator:

   - {!Credrec.self_check}: edge symmetry across child and parent lists,
     counter recounts, state consistency with counters (no dangling child
     refs);
   - every live record's state equals the model's three-valued evaluation;
   - a cascade fires change hooks on a subset of the dependent set that
     covers every record whose settled state changed (the cascade reaches
     exactly the dependent set, up to transient glitches inside it);
   - replaying a seed reproduces the identical final state vector.

   A second, service-level half replays random revoke/crash interleavings
   against two identically-seeded worlds — one with batched (heartbeat
   coalesced) notifications, one with per-event notifications — and checks
   that both converge to identical validation outcomes. *)

module Credrec = Oasis_core.Credrec
module Service = Oasis_core.Service
module Group = Oasis_core.Group
module Principal = Oasis_core.Principal
module Engine = Oasis_sim.Engine
module Net = Oasis_sim.Net
module Prng = Oasis_util.Prng
module V = Oasis_rdl.Value

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* The pure model                                                      *)
(* ------------------------------------------------------------------ *)

(* A model edge remembers the parent's node id, the negation mark and
   whether the parent was already dead when the edge was added (a dead
   parent contributes a frozen False, §4.8's dangling-reference rule). *)
type medge = { pid : int; neg : bool; frozen_false : bool }

type mnode = {
  id : int;
  cref : Credrec.cref;
  is_leaf : bool;
  mop : Credrec.op;
  mutable leaf_st : Credrec.state;
  mutable parents : medge list;
  (* [Some s]: the node is frozen at [s] forever (explicit permanence,
     revocation, or observed initial pin).  GC-forced permanence is not
     tracked: a forced value is dominated by a pinned forcing input, so the
     plain evaluation below stays correct. *)
  mutable pinned : Credrec.state option;
  hooked : bool;
  mutable fired : int;
}

let seen neg s =
  if not neg then s
  else match s with Credrec.True -> Credrec.False | Credrec.False -> Credrec.True | u -> u

(* Mirrors [Credrec.computed_state]: counter logic over the inputs, with
   output inversion for Nand/Nor. *)
let comb_eval op inputs =
  let base =
    match op with
    | Credrec.And | Credrec.Nand ->
        if List.mem Credrec.False inputs then Credrec.False
        else if List.mem Credrec.Unknown inputs then Credrec.Unknown
        else Credrec.True
    | Credrec.Or | Credrec.Nor ->
        if List.mem Credrec.True inputs then Credrec.True
        else if List.mem Credrec.Unknown inputs then Credrec.Unknown
        else Credrec.False
  in
  match op with Credrec.And | Credrec.Or -> base | Credrec.Nand | Credrec.Nor -> seen true base

let rec meval nodes id =
  let n = nodes.(id) in
  match n.pinned with
  | Some s -> s
  | None ->
      if n.is_leaf then n.leaf_st
      else
        comb_eval n.mop
          (List.map
             (fun e -> seen e.neg (if e.frozen_false then Credrec.False else meval nodes e.pid))
             n.parents)

(* Transitive dependent set of [src] over the model adjacency (frozen edges
   never propagate), including [src] itself. *)
let descendants nodes src =
  let n = Array.length nodes in
  let inset = Array.make n false in
  inset.(src) <- true;
  let again = ref true in
  while !again do
    again := false;
    Array.iter
      (fun nd ->
        if not inset.(nd.id) then
          if
            List.exists (fun e -> (not e.frozen_false) && inset.(e.pid)) nd.parents
          then begin
            inset.(nd.id) <- true;
            again := true
          end)
      nodes
  done;
  inset

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let ops_arr = [| Credrec.And; Credrec.Or; Credrec.Nand; Credrec.Nor |]
let states_arr = [| Credrec.True; Credrec.False; Credrec.Unknown |]

let build_graph rng t =
  let n_leaves = 4 + Prng.int rng 6 in
  let n_combs = 6 + Prng.int rng 10 in
  let nodes = ref [] in
  let k = ref 0 in
  for _ = 1 to n_leaves do
    let st = Prng.pick rng states_arr in
    let r = Credrec.leaf t ~state:st () in
    nodes :=
      { id = !k; cref = r; is_leaf = true; mop = Credrec.And; leaf_st = st; parents = [];
        pinned = None; hooked = Prng.bool rng; fired = 0 }
      :: !nodes;
    incr k
  done;
  for _ = 1 to n_combs do
    let mop = Prng.pick rng ops_arr in
    let nparents = 1 + Prng.int rng 3 in
    let parents =
      List.init nparents (fun _ ->
          { pid = Prng.int rng !k; neg = Prng.bool rng; frozen_false = false })
    in
    let r =
      Credrec.combine_fresh t ~op:mop
        (List.map (fun e -> ((List.nth !nodes (!k - 1 - e.pid)).cref, e.neg)) parents)
    in
    nodes :=
      { id = !k; cref = r; is_leaf = false; mop; leaf_st = Credrec.True; parents;
        pinned = None; hooked = Prng.bool rng; fired = 0 }
      :: !nodes;
    incr k
  done;
  let arr = Array.of_list (List.rev !nodes) in
  Array.iter
    (fun nd ->
      Credrec.set_direct_use t nd.cref (Prng.bool rng);
      if nd.hooked then Credrec.on_change t nd.cref (fun _ -> nd.fired <- nd.fired + 1))
    arr;
  arr

let check_states t nodes ctx =
  (match Credrec.self_check t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: self_check: %s" ctx e);
  Array.iter
    (fun nd ->
      if Credrec.live t nd.cref then
        let want = meval nodes nd.id in
        let got = Credrec.state t nd.cref in
        if got <> want then
          Alcotest.failf "%s: node %d: impl %a, model %a" ctx nd.id Credrec.pp_state got
            Credrec.pp_state want)
    nodes

(* One random operation, mirrored on implementation and model.  Returns the
   source node id when the op is a direct state change (so the caller can
   check the fired set against the dependent set). *)
let random_op rng t nodes =
  let pick_node () = nodes.(Prng.int rng (Array.length nodes)) in
  match Prng.int rng 100 with
  | x when x < 35 -> (
      (* flip a leaf *)
      let nd = pick_node () in
      if nd.is_leaf && Credrec.live t nd.cref then begin
        let st = Prng.pick rng states_arr in
        Credrec.set_leaf t nd.cref st;
        match nd.pinned with
        | Some _ -> None (* permanent: implementation ignores it too *)
        | None ->
            let changed = nd.leaf_st <> st in
            nd.leaf_st <- st;
            if changed then Some nd.id else None
      end
      else None)
  | x when x < 45 ->
      (* revoke *)
      let nd = pick_node () in
      if Credrec.live t nd.cref && not (Credrec.is_permanent t nd.cref) then begin
        Credrec.invalidate t nd.cref;
        nd.pinned <- Some Credrec.False;
        Some nd.id
      end
      else None
  | x when x < 65 ->
      (* attach an extra parent to a combining record; keep the DAG by only
         wiring lower ids into higher ones *)
      let child = pick_node () in
      if (not child.is_leaf) && Credrec.live t child.cref && child.id > 0 then begin
        let parent = nodes.(Prng.int rng child.id) in
        let neg = Prng.bool rng in
        Credrec.add_parent t ~child:child.cref ~negated:neg parent.cref;
        child.parents <-
          { pid = parent.id; neg; frozen_false = not (Credrec.live t parent.cref) }
          :: child.parents
      end;
      None
  | x when x < 75 ->
      (* freeze at the current value (skip Unknown: baking a frozen Unknown
         input is not meaningful — permanence in OASIS freezes settled
         beliefs) *)
      let nd = pick_node () in
      if Credrec.live t nd.cref && not (Credrec.is_permanent t nd.cref) then begin
        let st = Credrec.state t nd.cref in
        if st <> Credrec.Unknown then begin
          Credrec.make_permanent t nd.cref;
          nd.pinned <- Some st
        end
      end;
      None
  | x when x < 85 ->
      let nd = pick_node () in
      if Credrec.live t nd.cref then Credrec.set_direct_use t nd.cref (Prng.bool rng);
      None
  | _ ->
      ignore (Credrec.gc_sweep t);
      None

let run_case seed =
  let rng = Prng.create (Int64.of_int (0x5eed0000 + seed)) in
  let t = Credrec.create_table () in
  let nodes = build_graph rng t in
  check_states t nodes (Printf.sprintf "seed %d: after build" seed);
  let n_ops = 30 + Prng.int rng 20 in
  for opi = 1 to n_ops do
    Array.iter (fun nd -> nd.fired <- 0) nodes;
    let live_before =
      Array.map (fun nd -> if Credrec.live t nd.cref then Some (meval nodes nd.id) else None) nodes
    in
    let source = random_op rng t nodes in
    let ctx = Printf.sprintf "seed %d: op %d" seed opi in
    check_states t nodes ctx;
    (* Cascade coverage: on a direct state change, hooks must have fired on
       every hooked dependent whose settled state changed, and only inside
       the dependent set. *)
    match source with
    | None -> ()
    | Some src ->
        let dep = descendants nodes src in
        Array.iteri
          (fun i nd ->
            if nd.fired > 0 && not dep.(i) then
              Alcotest.failf "%s: hook fired outside the dependent set (node %d)" ctx i;
            match live_before.(i) with
            | Some before
              when nd.hooked && Credrec.live t nd.cref && meval nodes i <> before
                   && nd.fired = 0 ->
                Alcotest.failf "%s: node %d changed state but its hook never fired" ctx i
            | _ -> ())
          nodes
  done;
  (* Final state vector for replay comparison. *)
  Array.map
    (fun nd -> if Credrec.live t nd.cref then Some (Credrec.state t nd.cref) else None)
    nodes

let test_randomized_dags () =
  for seed = 0 to 219 do
    let v1 = run_case seed in
    (* Replay-identical per seed. *)
    let v2 = run_case seed in
    if v1 <> v2 then Alcotest.failf "seed %d: replay diverged" seed
  done

(* ------------------------------------------------------------------ *)
(* Sweeps are invisible: a swept table reads like its unswept twin      *)
(* ------------------------------------------------------------------ *)

(* The same random operations drive two tables; only the first ever
   sweeps.  Node picks are taken modulo the nodes created so far, and a
   node a sweep freed takes part in nothing afterwards: nobody holds a
   reference to a record the sweep may free. *)
type twin_op =
  | T_leaf of int  (** state index *)
  | T_comb of int * (int * bool) list  (** op index; parent picks, negated *)
  | T_flip of int * int
  | T_revoke of int
  | T_attach of int * int * bool  (** child pick, parent pick, negated *)
  | T_freeze of int
  | T_use of int * bool
  | T_hook of int
  | T_pin of int
  | T_unpin of int
  | T_sweep

let twin_op_to_string = function
  | T_leaf s -> Printf.sprintf "leaf %d" s
  | T_comb (o, ps) ->
      Printf.sprintf "comb %d [%s]" o
        (String.concat ";"
           (List.map (fun (p, n) -> Printf.sprintf "%d%s" p (if n then "~" else "")) ps))
  | T_flip (n, s) -> Printf.sprintf "flip %d %d" n s
  | T_revoke n -> Printf.sprintf "revoke %d" n
  | T_attach (c, p, n) -> Printf.sprintf "attach %d<-%d%s" c p (if n then "~" else "")
  | T_freeze n -> Printf.sprintf "freeze %d" n
  | T_use (n, b) -> Printf.sprintf "use %d %b" n b
  | T_hook n -> Printf.sprintf "hook %d" n
  | T_pin n -> Printf.sprintf "pin %d" n
  | T_unpin n -> Printf.sprintf "unpin %d" n
  | T_sweep -> "sweep"

let twin_op_gen =
  QCheck.Gen.(
    let pick = int_bound 1000 in
    frequency
      [
        (3, map (fun s -> T_leaf s) (int_bound 2));
        ( 3,
          map2
            (fun o ps -> T_comb (o, ps))
            (int_bound 3)
            (list_size (int_range 1 3) (pair pick bool)) );
        (4, map2 (fun n s -> T_flip (n, s)) pick (int_bound 2));
        (2, map (fun n -> T_revoke n) pick);
        (2, map3 (fun c p n -> T_attach (c, p, n)) pick pick bool);
        (1, map (fun n -> T_freeze n) pick);
        (2, map2 (fun n b -> T_use (n, b)) pick bool);
        (1, map (fun n -> T_hook n) pick);
        (1, map (fun n -> T_pin n) pick);
        (1, map (fun n -> T_unpin n) pick);
        (2, return T_sweep);
      ])

let twin_ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat ", " (List.map twin_op_to_string ops))
    QCheck.Gen.(list_size (int_range 10 120) twin_op_gen)

type twin_node = {
  a : Credrec.cref;  (** in the swept table *)
  b : Credrec.cref;  (** in the twin *)
  leaf : bool;
  mutable use : bool;
  mutable hooked : bool;
  mutable pins : int;
  mutable fired_a : int;
  mutable fired_b : int;
  mutable freed : bool;  (** freed by a sweep of the first table *)
  mutable revoked : bool;  (** freed while a certificate held it *)
}

let prop_sweep_invisible ops =
  let ta = Credrec.create_table () and tb = Credrec.create_table () in
  let nodes = ref [||] in
  let fail fmt = Printf.ksprintf (fun m -> QCheck.Test.fail_report m) fmt in
  let add nd = nodes := Array.append !nodes [| nd |] in
  let pick k =
    let ns = !nodes in
    if Array.length ns = 0 then None
    else
      let i = k mod Array.length ns in
      if ns.(i).freed then None else Some (i, ns.(i))
  in
  let audit step =
    (match (Credrec.self_check ta, Credrec.self_check tb) with
    | Ok (), Ok () -> ()
    | Error e, _ -> fail "%s: swept table: %s" step e
    | _, Error e -> fail "%s: twin: %s" step e);
    Array.iteri
      (fun i nd ->
        if nd.freed then begin
          if Credrec.live ta nd.a || Credrec.state ta nd.a <> Credrec.False then
            fail "%s: freed node %d does not read False" step i;
          if nd.revoked && Credrec.state tb nd.b <> Credrec.False then
            fail "%s: node %d was freed as revoked, but the twin reads it otherwise now" step i
        end
        else begin
          if not (Credrec.live ta nd.a) then fail "%s: node %d vanished outside a sweep" step i;
          if Credrec.state ta nd.a <> Credrec.state tb nd.b then
            fail "%s: node %d reads %s swept, %s in the twin" step i
              (Format.asprintf "%a" Credrec.pp_state (Credrec.state ta nd.a))
              (Format.asprintf "%a" Credrec.pp_state (Credrec.state tb nd.b));
          if nd.fired_a <> nd.fired_b then fail "%s: node %d's hook fired differently" step i
        end)
      !nodes
  in
  let state_of k = states_arr.(k mod 3) in
  List.iteri
    (fun step op ->
      (match op with
      | T_leaf s ->
          let st = state_of s in
          add
            { a = Credrec.leaf ta ~state:st (); b = Credrec.leaf tb ~state:st (); leaf = true;
              use = false; hooked = false; pins = 0; fired_a = 0; fired_b = 0; freed = false;
              revoked = false }
      | T_comb (o, ps) ->
          let parents =
            List.filter_map (fun (p, neg) -> Option.map (fun x -> (x, neg)) (pick p)) ps
          in
          let op = ops_arr.(o mod 4) in
          let edges side = List.map (fun ((_, nd), neg) -> (side nd, neg)) parents in
          let a = Credrec.combine_fresh ta ~op (edges (fun nd -> nd.a)) in
          let b = Credrec.combine_fresh tb ~op (edges (fun nd -> nd.b)) in
          add
            { a; b; leaf = false; use = false; hooked = false; pins = 0; fired_a = 0; fired_b = 0;
              freed = false; revoked = false }
      | T_flip (n, s) -> (
          match pick n with
          | Some (_, nd) when nd.leaf ->
              Credrec.set_leaf ta nd.a (state_of s);
              Credrec.set_leaf tb nd.b (state_of s)
          | _ -> ())
      | T_revoke n ->
          Option.iter
            (fun (_, nd) ->
              Credrec.invalidate ta nd.a;
              Credrec.invalidate tb nd.b)
            (pick n)
      | T_attach (c, p, neg) -> (
          match (pick c, pick p) with
          | Some (ci, child), Some (pi, parent) when (not child.leaf) && pi < ci ->
              Credrec.add_parent ta ~child:child.a ~negated:neg parent.a;
              Credrec.add_parent tb ~child:child.b ~negated:neg parent.b
          | _ -> ())
      | T_freeze n -> (
          match pick n with
          | Some (_, nd) when Credrec.state ta nd.a <> Credrec.Unknown ->
              Credrec.make_permanent ta nd.a;
              Credrec.make_permanent tb nd.b
          | _ -> ())
      | T_use (n, u) ->
          Option.iter
            (fun (_, nd) ->
              nd.use <- u;
              Credrec.set_direct_use ta nd.a u;
              Credrec.set_direct_use tb nd.b u)
            (pick n)
      | T_hook n ->
          Option.iter
            (fun (_, nd) ->
              nd.hooked <- true;
              Credrec.on_change ta nd.a (fun _ -> nd.fired_a <- nd.fired_a + 1);
              Credrec.on_change tb nd.b (fun _ -> nd.fired_b <- nd.fired_b + 1))
            (pick n)
      | T_pin n ->
          Option.iter
            (fun (_, nd) ->
              nd.pins <- nd.pins + 1;
              Credrec.pin ta nd.a)
            (pick n)
      | T_unpin n -> (
          match pick n with
          | Some (_, nd) when nd.pins > 0 ->
              nd.pins <- nd.pins - 1;
              Credrec.unpin ta nd.a
          | _ -> ())
      | T_sweep ->
          ignore (Credrec.gc_sweep ta);
          (* Judge every record this sweep freed against the twin.  Hooks
             and pins hold a record.  A certificate does too, unless the
             record is False there, and then it must stay False for good
             (the audit checks this from now on).  Anything else nothing
             reads, except through children, whose every read the audit
             compares. *)
          Array.iteri
            (fun i nd ->
              if (not nd.freed) && not (Credrec.live ta nd.a) then begin
                nd.freed <- true;
                if nd.hooked || nd.pins > 0 then
                  fail "step %d: hooked or pinned node %d freed" step i;
                if nd.use then begin
                  if Credrec.state tb nd.b <> Credrec.False then
                    fail "step %d: node %d freed under a certificate that reads it" step i;
                  nd.revoked <- true
                end
              end)
            !nodes);
      audit (Printf.sprintf "step %d (%s)" step (twin_op_to_string op)))
    ops;
  true

(* ------------------------------------------------------------------ *)
(* Cascade shape: each record recomputed once per settled change        *)
(* ------------------------------------------------------------------ *)

(* A stack of diamonds: root -> (a_i, b_i) -> join_i -> (a_{i+1}, ...).
   Flipping the root must fire each join's hook exactly once — the
   generation-stamped worklist recomputes each record with settled
   counters instead of once per path (2^depth paths here). *)
let test_diamond_visits_once () =
  let t = Credrec.create_table () in
  let root = Credrec.leaf t () in
  let depth = 12 in
  let fires = Array.make depth 0 in
  let top = ref root in
  for i = 0 to depth - 1 do
    let a = Credrec.combine_fresh t [ (!top, false) ] in
    let b = Credrec.combine_fresh t [ (!top, false) ] in
    let join = Credrec.combine_fresh t [ (a, false); (b, false) ] in
    Credrec.on_change t join (fun _ -> fires.(i) <- fires.(i) + 1);
    top := join
  done;
  let ops_before = Credrec.edge_ops t in
  Credrec.set_leaf t root Credrec.False;
  checkb "cascade reached the sink" true (Credrec.state t !top = Credrec.False);
  Array.iteri (fun i n -> checki (Printf.sprintf "join %d fired once" i) 1 n) fires;
  (* 3 edges per diamond plus the root fan-out: strictly linear in depth. *)
  checkb "edge work linear in depth" true (Credrec.edge_ops t - ops_before <= 4 * depth)

(* ------------------------------------------------------------------ *)
(* O(1) detach under GC (the old code rebuilt the child list per death)  *)
(* ------------------------------------------------------------------ *)

let test_detach_is_constant_time () =
  let t = Credrec.create_table () in
  let parent = Credrec.leaf t () in
  let n = 10_000 in
  let kids =
    Array.init n (fun _ ->
        let c = Credrec.combine_fresh t [ (parent, false) ] in
        Credrec.set_direct_use t c true;
        c)
  in
  checki "all edges attached" n (Credrec.children_count t parent);
  (* Retire the first 2000 children one sweep at a time: each death must
     cost O(1) edge operations, not a rebuild of the 10k-entry child set. *)
  let singles = 2000 in
  let ops0 = Credrec.edge_ops t in
  for i = 0 to singles - 1 do
    Credrec.set_direct_use t kids.(i) false;
    checki (Printf.sprintf "sweep %d reclaims one" i) 1 (Credrec.gc_sweep t)
  done;
  let spent = Credrec.edge_ops t - ops0 in
  checkb
    (Printf.sprintf "detach cost linear in deaths (%d ops for %d deaths)" spent singles)
    true
    (spent < 50 * singles);
  checki "survivors still attached" (n - singles) (Credrec.children_count t parent);
  (* Bulk death: one sweep reclaims all remaining children... *)
  for i = singles to n - 1 do
    Credrec.set_direct_use t kids.(i) false
  done;
  checki "bulk sweep reclaims the rest" (n - singles) (Credrec.gc_sweep t);
  checki "parent now childless" 0 (Credrec.children_count t parent);
  (* ...and the parent itself goes on the next sweep (candidates are decided
     before frees — the paper's iterated-sweep settling). *)
  Credrec.set_direct_use t parent false;
  checki "parent collected next sweep" 1 (Credrec.gc_sweep t);
  checki "table empty" 0 (Credrec.live_records t);
  match Credrec.self_check t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "self_check after churn: %s" e

(* ------------------------------------------------------------------ *)
(* Visit order: a record's surviving edges, oldest first                 *)
(* ------------------------------------------------------------------ *)

(* Children of one parent come and go: attached (one edge, or an extra
   edge to a child that has one), forgotten, or swept when nothing holds
   them.  Every child sees the parent through edges of one polarity, so
   each flip of the parent changes every child, and the children's hooks
   fire in the order the cascade visited them, a child with two edges at
   its first.  That order must be the creation order of the edges still
   standing, which a reference list keeps; the order of every
   notification rests on it.  Up to 100 edges.  Last, the parent is set
   True and forgotten, which detaches the children in the same order: a
   child behind plain edges is forced False at its first edge, and one
   behind negated edges turns True once its last edge is gone. *)
type order_op = O_attach of bool * bool | O_extra of int | O_forget of int | O_sweep | O_flip

let order_op_to_string = function
  | O_attach (neg, hooked) ->
      Printf.sprintf "attach%s%s" (if neg then "~" else "") (if hooked then "" else "?")
  | O_extra k -> Printf.sprintf "extra %d" k
  | O_forget k -> Printf.sprintf "forget %d" k
  | O_sweep -> "sweep"
  | O_flip -> "flip"

let order_ops_arb =
  let op =
    QCheck.Gen.(
      frequency
        [
          ( 8,
            map2
              (fun neg hooked -> O_attach (neg, hooked))
              bool
              (frequencyl [ (3, true); (1, false) ]) );
          (2, map (fun k -> O_extra k) (int_bound 1000));
          (1, map (fun k -> O_forget k) (int_bound 1000));
          (1, return O_sweep);
          (2, return O_flip);
        ])
  in
  QCheck.make
    ~print:(fun ops -> String.concat ", " (List.map order_op_to_string ops))
    QCheck.Gen.(list_size (int_range 1 220) op)

type order_child = { o_ref : Credrec.cref; o_neg : bool; o_hooked : bool }

let prop_visit_order ops =
  let t = Credrec.create_table () in
  let parent = Credrec.leaf t () in
  Credrec.set_direct_use t parent true;
  (* One entry per surviving edge, newest first. *)
  let reference = ref [] in
  let children = ref [||] and fired = ref [] in
  let live () = List.filter (fun c -> Credrec.live t c.o_ref) (Array.to_list !children) in
  let pick k = match live () with [] -> None | l -> Some (List.nth l (k mod List.length l)) in
  let attach c = reference := c :: !reference in
  let drop c = reference := List.filter (fun c' -> c' != c) !reference in
  (* The reference's listing: one entry per edge, oldest first. *)
  let listed () = List.rev !reference in
  let hooked_at_first () =
    List.rev
      (List.fold_left
         (fun acc c -> if c.o_hooked && not (List.memq c acc) then c :: acc else acc)
         [] (listed ()))
  in
  let compare_fired what want =
    let got = List.rev !fired in
    fired := [];
    let ids l = String.concat " " (List.map (fun c -> string_of_int c.o_ref.Credrec.index) l) in
    if List.length got <> List.length want || not (List.for_all2 ( == ) got want) then
      QCheck.Test.fail_reportf "%s: hooks fired [%s], reference order [%s]" what (ids got)
        (ids want)
  in
  let edges () = List.length !reference in
  List.iter
    (fun op ->
      match op with
      | O_attach (neg, hooked) when edges () < 100 ->
          let r = Credrec.combine_fresh t [ (parent, neg) ] in
          let c = { o_ref = r; o_neg = neg; o_hooked = hooked } in
          if hooked then Credrec.on_change t r (fun _ -> fired := c :: !fired);
          Credrec.set_direct_use t r false;
          attach c;
          children := Array.append !children [| c |]
      | O_extra k when edges () < 100 ->
          Option.iter
            (fun c ->
              Credrec.add_parent t ~child:c.o_ref ~negated:c.o_neg parent;
              attach c)
            (pick k)
      | O_attach _ | O_extra _ -> ()
      | O_forget k ->
          Option.iter
            (fun c ->
              drop c;
              Credrec.forget t c.o_ref)
            (pick k)
      | O_sweep ->
          ignore (Credrec.gc_sweep t);
          List.iter (fun c -> if not c.o_hooked then drop c) (Array.to_list !children);
          fired := []
      | O_flip ->
          let st = if Credrec.state t parent = Credrec.True then Credrec.False else Credrec.True in
          Credrec.set_leaf t parent st;
          compare_fired "flip" (hooked_at_first ()))
    ops;
  if Credrec.children_count t parent <> edges () then
    QCheck.Test.fail_reportf "%d child edges, reference %d"
      (Credrec.children_count t parent)
      (edges ());
  Credrec.set_leaf t parent Credrec.True;
  fired := [];
  let listed = listed () in
  let last_edge c rest = c.o_neg && not (List.memq c rest) in
  let rec forget_order acc = function
    | [] -> List.rev acc
    | c :: rest ->
        let first = (not c.o_neg) && not (List.memq c acc) in
        forget_order (if c.o_hooked && (first || last_edge c rest) then c :: acc else acc) rest
  in
  Credrec.forget t parent;
  compare_fired "forgetting the parent" (forget_order [] listed);
  (match Credrec.self_check t with
  | Ok () -> ()
  | Error e -> QCheck.Test.fail_reportf "self_check: %s" e);
  true

(* ------------------------------------------------------------------ *)
(* Memory: a record costs its live set, a freed slot little more than    *)
(* its magic                                                             *)
(* ------------------------------------------------------------------ *)

(* [n] live records, each the child of one shared root through one edge,
   and then [freed] records swept away.  Words reachable from the table,
   shared vacant record and spare array capacity included: 27.7 per live
   record and 4.9 per freed slot at these sizes (when each record kept
   its edge tables as [Hashtbl]s and a freed slot its whole record, about
   57 and 23). *)
let test_table_words () =
  let table_words ~n ~freed =
    let t = Credrec.create_table () in
    let root = Credrec.leaf t () in
    Credrec.set_direct_use t root true;
    for _ = 1 to n do
      Credrec.set_direct_use t (Credrec.combine_fresh t [ (root, false) ]) true
    done;
    for _ = 1 to freed do
      ignore (Credrec.leaf t ())
    done;
    checki "the sweep frees the unused leaves" freed (Credrec.gc_sweep t);
    checki "live records" (n + 1) (Credrec.live_records t);
    Obj.reachable_words (Obj.repr t)
  in
  let n = 10_000 and freed = 10_000 in
  let live = table_words ~n ~freed:0 in
  let both = table_words ~n ~freed in
  let per_live = float_of_int live /. float_of_int (n + 1) in
  let per_freed = float_of_int (both - live) /. float_of_int freed in
  checkb (Printf.sprintf "%.1f words per live single-edge record, at most 30" per_live) true
    (per_live <= 30.0);
  checkb (Printf.sprintf "%.1f words per freed slot, at most 6" per_freed) true (per_freed <= 6.0)

(* ------------------------------------------------------------------ *)
(* Recovery restores in linear time                                     *)
(* ------------------------------------------------------------------ *)

(* Recovery restores references in the journal's order, sorted as
   strings, so the hex indexes arrive depth-first: 0, 1, 10, 100, 1000,
   10000, 10001...  Restoring 0x10000 early leaves every lower index not
   yet restored free, and each later restore takes its slot from among
   them.  That must cost O(1): a free list walked per restore took 105 s
   for these 2^17 references.  The loop gives up at the bound rather than
   waiting that out. *)
let test_restore_sorted_linear () =
  let n = 1 lsl 17 and bound = 5.0 in
  let refs =
    List.sort
      (fun a b -> String.compare (Credrec.marshal_ref a) (Credrec.marshal_ref b))
      (List.init n (fun index -> { Credrec.index; magic = 1 }))
  in
  let t = Credrec.create_table () in
  let t0 = Sys.time () in
  List.iteri
    (fun k r ->
      if not (Credrec.restore t r) then Alcotest.failf "restore %s refused" (Credrec.marshal_ref r);
      if k land 1023 = 0 && Sys.time () -. t0 > bound then
        Alcotest.failf "%d of %d references restored after %.0f s" k n bound)
    refs;
  checki "every reference restored" n (Credrec.live_records t);
  checkb "all restored live" true (List.for_all (Credrec.live t) refs);
  let fresh = Credrec.leaf t () in
  checki "a fresh record takes a new slot" n fresh.Credrec.index

(* ------------------------------------------------------------------ *)
(* Service level: batched and per-event notification are equivalent     *)
(* ------------------------------------------------------------------ *)

let login_rolefile = {|
def LoggedOn(u, h) u: String h: String
LoggedOn(u, h) <-
|}

let fresh_vci =
  let host = Principal.Host.create "credgraphclient" in
  let domain = Principal.Host.boot_domain host in
  fun () -> Principal.Host.new_vci host domain

type fault_op = Revoke of int | Crash | Restart | Wait of float

(* Pre-draw the schedule so both worlds replay the identical interleaving. *)
let draw_schedule rng ~users =
  List.init
    (4 + Prng.int rng 5)
    (fun _ ->
      match Prng.int rng 10 with
      | x when x < 4 -> Revoke (Prng.int rng users)
      | x when x < 6 -> Crash
      | x when x < 8 -> Restart
      | _ -> Wait (0.2 +. Prng.float rng 1.8))

(* Build a Login+Conf world, enter [users] memberships, replay [schedule]
   (crashes hit the issuing service's host only), heal, settle, and return
   the per-user validation outcome vector. *)
let interleaving_outcomes ~batch ~seed schedule users =
  let engine = Engine.create () in
  let net = Net.create ~seed ~latency:(Net.Fixed 0.005) engine in
  let reg = Service.create_registry () in
  let client_host = Net.add_host net "client" in
  let mk name rolefile =
    let host = Net.add_host net ("h." ^ name) in
    match
      Service.create net host reg ~name ~rolefile ~batch_notifications:batch ()
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "service %s: %s" name e
  in
  let login = mk "Login" login_rolefile in
  let conf = mk "Conf" {|
Member(u) <- Login.LoggedOn(u, h)* : (u in staff)*
|} in
  let staff = Service.group conf "staff" in
  let run dt = Engine.run ~until:(Engine.now engine +. dt) engine in
  let clients = Array.init users (fun _ -> fresh_vci ()) in
  let login_certs =
    Array.mapi
      (fun i u ->
        Group.add staff (V.Str u);
        Service.issue_arbitrary login ~client:clients.(i) ~roles:[ "LoggedOn" ]
          ~args:[ V.Str u; V.Str "ely" ])
      (Array.init users (fun i -> Printf.sprintf "u%d" i))
  in
  let members = Array.make users None in
  Array.iteri
    (fun i _ ->
      Service.request_entry conf ~client_host ~client:clients.(i) ~role:"Member"
        ~creds:[ login_certs.(i) ]
        (function Ok c -> members.(i) <- Some c | Error e -> Alcotest.failf "entry: %s" e))
    clients;
  run 3.0;
  let members = Array.map (function Some c -> c | None -> Alcotest.fail "entry hung") members in
  let down = ref false in
  List.iter
    (fun op ->
      match op with
      | Revoke i -> Service.revoke_certificate login login_certs.(i)
      | Crash ->
          if not !down then begin
            Net.crash_host net (Service.host login);
            down := true
          end
      | Restart ->
          if !down then begin
            Net.restart_host net (Service.host login);
            down := false
          end
      | Wait dt -> run dt)
    schedule;
  if !down then Net.restart_host net (Service.host login);
  run 10.0;
  Array.mapi (fun i m -> Service.validate conf ~client:clients.(i) m = Ok ()) members

let test_batched_equals_unbatched () =
  for seed = 0 to 24 do
    let rng = Prng.create (Int64.of_int (0xba7c4 + seed)) in
    let users = 4 + Prng.int rng 5 in
    let schedule = draw_schedule rng ~users in
    let revoked = Array.make users false in
    List.iter (function Revoke i -> revoked.(i) <- true | _ -> ()) schedule;
    let netseed = Int64.of_int (7000 + seed) in
    let batched = interleaving_outcomes ~batch:true ~seed:netseed schedule users in
    let unbatched = interleaving_outcomes ~batch:false ~seed:netseed schedule users in
    if batched <> unbatched then
      Alcotest.failf "seed %d: batched and unbatched final states diverge" seed;
    Array.iteri
      (fun i ok ->
        if ok <> not revoked.(i) then
          Alcotest.failf "seed %d: user %d converged to the wrong state" seed i)
      batched;
    (* Replay-identical per seed. *)
    if seed < 2 then begin
      let again = interleaving_outcomes ~batch:true ~seed:netseed schedule users in
      if again <> batched then Alcotest.failf "seed %d: batched replay diverged" seed
    end
  done

let () =
  Alcotest.run "credgraph"
    [
      ( "randomized",
        [
          Alcotest.test_case "220 seeded DAG interleavings" `Quick test_randomized_dags;
          Alcotest.test_case "batched = unbatched under faults (25 seeds)" `Quick
            test_batched_equals_unbatched;
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~name:"sweeps read like an unswept twin" ~count:400 twin_ops_arb
               prop_sweep_invisible);
        ] );
      ( "asymptotics",
        [
          Alcotest.test_case "diamond cascade visits once" `Quick test_diamond_visits_once;
          Alcotest.test_case "O(1) detach at 10k children" `Quick test_detach_is_constant_time;
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~name:"children visited oldest edge first" ~count:300
               order_ops_arb prop_visit_order);
          Alcotest.test_case "table words per live record and freed slot" `Quick test_table_words;
          Alcotest.test_case "restore 2^17 refs in sorted order" `Quick test_restore_sorted_linear;
        ] );
    ]
