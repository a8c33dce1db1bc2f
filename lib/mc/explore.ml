(* Exhaustive small-scope exploration of fault interleavings.

   Stateless, CHESS-style: a schedule is the list of choice indices taken at
   the counted decision points, and every run re-executes the whole
   deterministic scenario under its schedule (the engine and every PRNG are
   rebuilt from the seed, so a prefix of choices always reproduces the same
   prefix of states).  The DFS frontier holds schedules; running schedule
   [s] discovers, at every decision point at or beyond [length s], which
   alternative choices exist, and pushes [prefix @ [j]] for each.

   Two reductions, both sound:

   - {e sleep sets} (Godefroid).  When branch [j] of a node is explored,
     branches [0..j-1] join the child's sleep set; executing an event
     removes the sleeping events that do not commute with it.  A pending
     event found asleep at a node need not be explored there — the
     interleaving that runs it first is reachable from an already-pushed
     sibling.  Commutation is judged from the engine tags ([d:]/[t:]/[s:]
     events on different hosts commute) refined by observation: an event
     whose execution drew from the shared network PRNG is dependent on
     everything, since reordering it shifts the stream all later draws see.

   - {e fingerprint pruning}.  The world fingerprint (service credential
     tables, broker state, durable bytes, host liveness, pending event
     multiset) is taken at every frontier decision point.  If an equal
     state was already expanded with at least the remaining depth budget
     and a sleep set no larger than the current one, its alternatives are
     not pushed again.  The run itself still completes to the horizon so
     final invariants are always judged. *)

module Engine = Oasis_sim.Engine
module Net = Oasis_sim.Net
module Prng = Oasis_util.Prng
module Json = Oasis_util.Json

type params = {
  depth : int;  (* max counted decision points per run *)
  window : float;  (* reorder window: how far ahead of the earliest
                      deadline an event may be pulled *)
  max_branch : int;  (* eligible alternatives considered per point *)
  max_runs : int;
  reduce : bool;  (* sleep sets + fingerprint pruning *)
}

let default_params = { depth = 12; window = 0.1; max_branch = 3; max_runs = 100_000; reduce = true }

(* --- one run under a schedule --- *)

type decision = {
  d_fp : int64;
      (* world fingerprint at hook entry; 0 when not reducing, and at the
         decisions the schedule's own choices fix *)
  d_eligible : Engine.event array;
  d_choice : int;
  d_sleep : int list;  (* seqs asleep at node entry, sorted *)
}

type run_result = {
  r_decisions : decision list;  (* in execution order *)
  r_choices : int list;  (* the choices actually taken *)
  r_violations : (string * string) list;  (* (invariant, detail), oldest first *)
  r_marks : (string * string) list;
  r_outcomes : (string * string * string * string) list;
      (* principal, key, expected, found *)
}

let host_of_tag tag =
  let n = String.length tag in
  if n >= 2 && tag.[1] = ':' then
    match tag.[0] with
    | 'd' | 't' | 's' -> Some (String.sub tag 2 (n - 2))
    | _ -> None
  else None

let rec take n = function [] -> [] | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

let run_schedule ?seed ?twin (spec : Scenario.t) params schedule =
  let w = Scenario.instantiate ?seed spec in
  let engine = w.Scenario.w_engine in
  let prng = Net.prng w.Scenario.w_net in
  let lo, hi = spec.Scenario.sc_window in
  let schedule = Array.of_list schedule in
  let decisions = ref [] in
  let ndec = ref 0 in
  let sleep = ref [] in  (* (seq, tag) of pending events currently asleep *)
  let last = ref None in  (* tag of the event picked last step + draws then *)
  let sched evs =
    (* Attribute PRNG draws to the event executed since the previous hook
       call, and wake the sleeping events that do not commute with it. *)
    (match !last with
    | None -> ()
    | Some (tag, d0) ->
        let drew = Prng.draws prng > d0 in
        let h = host_of_tag tag in
        sleep :=
          List.filter
            (fun (_, tag') ->
              match (h, host_of_tag tag') with
              | Some a, Some b -> a <> b && not drew
              | _ -> false)
            !sleep);
    let default = List.hd evs in
    let min_at = default.Engine.ev_at in
    let chosen =
      if min_at < lo || min_at > hi || !ndec >= params.depth then default
      else begin
        let eligible =
          take params.max_branch
            (List.filter (fun e -> e.Engine.ev_at <= min_at +. params.window) evs)
        in
        match eligible with
        | [] | [ _ ] -> default
        | _ ->
            let eligible = Array.of_list eligible in
            let k = !ndec in
            let choice = if k < Array.length schedule then schedule.(k) else 0 in
            let choice = if choice >= Array.length eligible then 0 else choice in
            (* [explore] reads the fingerprint only past the replayed
               prefix, where this run's decisions are new. *)
            let fp =
              if params.reduce && k >= Array.length schedule then Scenario.fingerprint w else 0L
            in
            Scenario.check_safety w spec;
            decisions :=
              {
                d_fp = fp;
                d_eligible = eligible;
                d_choice = choice;
                d_sleep = List.sort compare (List.map fst !sleep);
              }
              :: !decisions;
            incr ndec;
            if params.reduce then
              (* Branches below the chosen one are explored as siblings of
                 this node; their continuations cover running them first, so
                 they sleep in this child until something dependent runs. *)
              for i = 0 to choice - 1 do
                let e = eligible.(i) in
                if not (List.mem_assoc e.Engine.ev_seq !sleep) then
                  sleep := (e.Engine.ev_seq, e.Engine.ev_tag) :: !sleep
              done;
            eligible.(choice)
      end
    in
    last := Some (chosen.Engine.ev_tag, Prng.draws prng);
    Some chosen.Engine.ev_seq
  in
  Engine.set_scheduler engine (Some sched);
  Engine.run ~until:spec.Scenario.sc_horizon engine;
  Engine.set_scheduler engine None;
  Scenario.check_final ?twin w spec;
  let decisions = List.rev !decisions in
  {
    r_decisions = decisions;
    r_choices = List.map (fun d -> d.d_choice) decisions;
    r_violations = List.rev w.Scenario.w_violations;
    r_marks = Scenario.commit_marks w spec;
    r_outcomes =
      List.map
        (fun (p, key, exp, got) -> (p, key, Scenario.outcome_str exp, Scenario.outcome_str got))
        (Scenario.outcomes w spec);
  }

(* --- the crash-free twin (for Crash_equiv) --- *)

let needs_twin spec =
  List.exists (fun i -> i = Scenario.Crash_equiv) spec.Scenario.sc_invariants

let twin_of ?seed spec params =
  if not (needs_twin spec) then None
  else begin
    let stripped = Scenario.strip_faults spec in
    let w = Scenario.instantiate ?seed stripped in
    Engine.run ~until:spec.Scenario.sc_horizon w.Scenario.w_engine;
    ignore params;
    Some
      {
        Scenario.tw_marks = Scenario.commit_marks w spec;
        tw_outcomes = Scenario.final_outcome_table w spec;
      }
  end

(* --- exploration --- *)

type counterexample = {
  cx_schedule : int list;
  cx_invariant : string;
  cx_detail : string;
}

type stats = {
  mutable st_runs : int;
  mutable st_decisions : int;
  mutable st_pruned_sleep : int;
  mutable st_pruned_fp : int;
  mutable st_frontier_peak : int;
  mutable st_truncated : bool;  (* max_runs exhausted before the frontier *)
}

type report = {
  rp_runs : int;
  rp_decisions : int;
  rp_distinct_states : int;
  rp_pruned_sleep : int;
  rp_pruned_fp : int;
  rp_frontier_peak : int;
  rp_exhaustive : bool;
  rp_violations : counterexample list;  (* first-found order *)
}

let subset small big =
  (* both sorted *)
  let rec go s b =
    match (s, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: s', y :: b' -> if x = y then go s' b' else if x > y then go s b' else false
  in
  go small big

let explore ?seed (spec : Scenario.t) params =
  let twin = twin_of ?seed spec params in
  let stats =
    {
      st_runs = 0;
      st_decisions = 0;
      st_pruned_sleep = 0;
      st_pruned_fp = 0;
      st_frontier_peak = 0;
      st_truncated = false;
    }
  in
  (* fp -> (remaining budget, sleep seqs) entries already expanded there *)
  let fp_table : (int64, (int * int list) list) Hashtbl.t = Hashtbl.create 1024 in
  let violations = ref [] in
  let nviol = ref 0 in
  let frontier = ref [ [] ] in
  let flen = ref 1 in
  let push s =
    frontier := s :: !frontier;
    incr flen;
    if !flen > stats.st_frontier_peak then stats.st_frontier_peak <- !flen
  in
  let covered fp budget slp =
    match Hashtbl.find_opt fp_table fp with
    | None -> false
    | Some entries -> List.exists (fun (b, s) -> b >= budget && subset s slp) entries
  in
  let record fp budget slp =
    let entries = Option.value (Hashtbl.find_opt fp_table fp) ~default:[] in
    if not (List.exists (fun (b, s) -> b >= budget && subset s slp) entries) then
      Hashtbl.replace fp_table fp ((budget, slp) :: entries)
  in
  let continue = ref true in
  while !continue do
    match !frontier with
    | [] -> continue := false
    | s :: rest ->
        frontier := rest;
        decr flen;
        if stats.st_runs >= params.max_runs then begin
          stats.st_truncated <- true;
          continue := false
        end
        else begin
          let r = run_schedule ?seed ?twin spec params s in
          stats.st_runs <- stats.st_runs + 1;
          stats.st_decisions <- stats.st_decisions + List.length r.r_decisions;
          (match r.r_violations with
          | [] -> ()
          | (inv, detail) :: _ ->
              if !nviol < 64 then begin
                violations :=
                  { cx_schedule = r.r_choices; cx_invariant = inv; cx_detail = detail }
                  :: !violations;
                incr nviol
              end);
          let base = List.length s in
          List.iteri
            (fun k d ->
              if k >= base then begin
                let budget = params.depth - k in
                let fresh = (not params.reduce) || not (covered d.d_fp budget d.d_sleep) in
                if not fresh then stats.st_pruned_fp <- stats.st_pruned_fp + 1
                else begin
                  let prefix = take k r.r_choices in
                  for j = Array.length d.d_eligible - 1 downto 1 do
                    let e = d.d_eligible.(j) in
                    if params.reduce && List.mem e.Engine.ev_seq d.d_sleep then
                      stats.st_pruned_sleep <- stats.st_pruned_sleep + 1
                    else push (prefix @ [ j ])
                  done
                end;
                if params.reduce then record d.d_fp budget d.d_sleep
              end)
            r.r_decisions
        end
  done;
  {
    rp_runs = stats.st_runs;
    rp_decisions = stats.st_decisions;
    rp_distinct_states = Hashtbl.length fp_table;
    rp_pruned_sleep = stats.st_pruned_sleep;
    rp_pruned_fp = stats.st_pruned_fp;
    rp_frontier_peak = stats.st_frontier_peak;
    rp_exhaustive = not stats.st_truncated;
    rp_violations = List.rev !violations;
  }

(* --- seed-sweep baseline --- *)

(* What testing without a model checker looks like: run the scenario under
   [n] different network seeds, default scheduling throughout.  Returns the
   violations found (with the seed in the detail). *)
let seed_sweep ?twin:_ (spec : Scenario.t) params ~seeds =
  let found = ref [] in
  for s = 1 to seeds do
    let seed = Int64.of_int s in
    let twin = twin_of ~seed spec params in
    let r = run_schedule ~seed ?twin spec { params with depth = 0 } [] in
    List.iter
      (fun (inv, detail) ->
        found :=
          {
            cx_schedule = [];
            cx_invariant = inv;
            cx_detail = Printf.sprintf "seed %d: %s" s detail;
          }
          :: !found)
      r.r_violations
  done;
  List.rev !found

(* --- counterexample minimization --- *)

(* Greedy: try zeroing each nonzero choice from the tail forward (a zero is
   the default schedule at that point), keep any zeroing that still violates
   the same invariant, then drop the trailing zeros.  Each probe is one
   re-execution. *)
let minimize ?seed (spec : Scenario.t) params cx =
  let twin = twin_of ?seed spec params in
  let still_fails choices =
    let r = run_schedule ?seed ?twin spec params choices in
    List.exists (fun (inv, _) -> inv = cx.cx_invariant) r.r_violations
  in
  let cur = Array.of_list cx.cx_schedule in
  for i = Array.length cur - 1 downto 0 do
    if cur.(i) <> 0 then begin
      let saved = cur.(i) in
      cur.(i) <- 0;
      if not (still_fails (Array.to_list cur)) then cur.(i) <- saved
    end
  done;
  let l = ref (Array.to_list cur) in
  let rec strip xs = match List.rev xs with 0 :: tl -> strip (List.rev tl) | _ -> xs in
  l := strip !l;
  let final = run_schedule ?seed ?twin spec params !l in
  let inv, detail =
    match List.find_opt (fun (inv, _) -> inv = cx.cx_invariant) final.r_violations with
    | Some v -> v
    | None -> (cx.cx_invariant, cx.cx_detail)
  in
  { cx_schedule = !l; cx_invariant = inv; cx_detail = detail }

(* --- persistent, replayable schedules --- *)

type schedule_file = {
  sf_scenario : string;
  sf_invariant : string;
  sf_detail : string;
  sf_choices : int list;
  sf_depth : int;
  sf_window : float;
  sf_max_branch : int;
  sf_seed : int64;
}

let schedule_file_of_cx (spec : Scenario.t) params ?seed cx =
  {
    sf_scenario = spec.Scenario.sc_name;
    sf_invariant = cx.cx_invariant;
    sf_detail = cx.cx_detail;
    sf_choices = cx.cx_schedule;
    sf_depth = params.depth;
    sf_window = params.window;
    sf_max_branch = params.max_branch;
    sf_seed = Option.value seed ~default:spec.Scenario.sc_seed;
  }

let schedule_to_json sf =
  Json.Obj
    [
      ("version", Json.Int 1);
      ("scenario", Json.Str sf.sf_scenario);
      ("invariant", Json.Str sf.sf_invariant);
      ("detail", Json.Str sf.sf_detail);
      ("choices", Json.Arr (List.map (fun c -> Json.Int c) sf.sf_choices));
      ("depth", Json.Int sf.sf_depth);
      ("window", Json.Float sf.sf_window);
      ("max_branch", Json.Int sf.sf_max_branch);
      ("seed", Json.Str (Int64.to_string sf.sf_seed));
    ]

let schedule_of_json j =
  let ( let* ) o f = match o with Some v -> f v | None -> Error "schedule: missing field" in
  let* scenario = Option.bind (Json.member "scenario" j) Json.to_str in
  let* invariant = Option.bind (Json.member "invariant" j) Json.to_str in
  let* choices = Option.bind (Json.member "choices" j) Json.to_list in
  let* depth = Option.bind (Json.member "depth" j) Json.to_int in
  let* window = Option.bind (Json.member "window" j) Json.to_float in
  let* max_branch = Option.bind (Json.member "max_branch" j) Json.to_int in
  let* seed = Option.bind (Json.member "seed" j) Json.to_str in
  let detail =
    Option.value (Option.bind (Json.member "detail" j) Json.to_str) ~default:""
  in
  match Int64.of_string_opt seed with
  | None -> Error "schedule: bad seed"
  | Some seed ->
      let choices = List.filter_map Json.to_int choices in
      Ok
        {
          sf_scenario = scenario;
          sf_invariant = invariant;
          sf_detail = detail;
          sf_choices = choices;
          sf_depth = depth;
          sf_window = window;
          sf_max_branch = max_branch;
          sf_seed = seed;
        }

let save_schedule path sf =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string (schedule_to_json sf));
      Out_channel.output_char oc '\n')

let load_schedule path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
      match Json.parse (String.trim text) with
      | Error e -> Error e
      | Ok j -> schedule_of_json j)

let replay (spec : Scenario.t) sf =
  let params =
    {
      default_params with
      depth = sf.sf_depth;
      window = sf.sf_window;
      max_branch = sf.sf_max_branch;
    }
  in
  let twin = twin_of ~seed:sf.sf_seed spec params in
  run_schedule ~seed:sf.sf_seed ?twin spec params sf.sf_choices
