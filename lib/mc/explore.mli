(** Exhaustive small-scope exploration of fault interleavings.

    Stateless (CHESS-style) model checking over {!Scenario} specs: a
    schedule is the list of choice indices taken at counted decision points,
    and each run re-executes the whole deterministic scenario under its
    schedule, driving the engine one event at a time
    ({!Oasis_sim.Engine.step_seq}).  Depth-first search over schedule
    prefixes covers every reachable interleaving of message deliveries,
    timers, stable-storage flushes, scenario actions and fault injections
    inside the scenario's branching window, up to the depth bound — reduced
    (soundly) by sleep sets over commuting events and by state-fingerprint
    pruning ({!Scenario.fingerprint}). *)

type params = {
  depth : int;  (** max counted decision points per run *)
  window : float;
      (** reorder window: an event is eligible at a decision point when its
          deadline is within this many seconds of the earliest pending one *)
  max_branch : int;  (** alternatives considered per decision point *)
  max_runs : int;  (** exploration budget; exceeding it is reported *)
  reduce : bool;  (** sleep sets + fingerprint pruning (off = naive) *)
}

val default_params : params
(** depth 12, window 0.1 s, max_branch 3, max_runs 100_000, reduce on. *)

(** {1 Single runs} *)

type decision = {
  d_fp : int64;
      (** world fingerprint before the pick; [0L] when not reducing, and at
          the decisions the schedule's own choices fix *)
  d_eligible : Oasis_sim.Engine.event array;
  d_choice : int;
  d_sleep : int list;
}

type run_result = {
  r_decisions : decision list;
  r_choices : int list;
  r_violations : (string * string) list;  (** (invariant, detail), oldest first *)
  r_marks : (string * string) list;
  r_outcomes : (string * string * string * string) list;
      (** principal, key, expected, found *)
}

val run_schedule :
  ?seed:int64 -> ?twin:Scenario.twin -> Scenario.t -> params -> int list -> run_result
(** Execute one schedule to the scenario horizon and judge all invariants.
    Choices beyond the schedule follow the default (earliest-deadline)
    order. *)

val host_of_tag : string -> string option
(** The commutation domain of an engine tag: [d:]/[t:]/[s:] events name
    their host; actions and fault injections ([a:]/[f:]) are global. *)

(** {1 Exploration} *)

type counterexample = { cx_schedule : int list; cx_invariant : string; cx_detail : string }

type report = {
  rp_runs : int;
  rp_decisions : int;
  rp_distinct_states : int;  (** distinct fingerprints expanded *)
  rp_pruned_sleep : int;  (** branches skipped by sleep sets *)
  rp_pruned_fp : int;  (** frontier nodes skipped as already-expanded states *)
  rp_frontier_peak : int;
  rp_exhaustive : bool;  (** false when [max_runs] cut exploration short *)
  rp_violations : counterexample list;
}

val explore : ?seed:int64 -> Scenario.t -> params -> report
(** Explore every (unreduced-reachable) interleaving within the window and
    depth bound.  With [reduce = false], pure enumeration — the naive
    baseline the reductions are measured against. *)

val seed_sweep : Scenario.t -> params -> seeds:int -> counterexample list
(** The conventional-testing baseline: the scenario under [seeds] different
    network seeds, default scheduling throughout.  Returns whatever
    violations those runs happen to hit. *)

val minimize : ?seed:int64 -> Scenario.t -> params -> counterexample -> counterexample
(** Greedily shrink a counterexample schedule (zero choices from the tail,
    keep what still violates the same invariant, strip trailing zeros).
    Every probe is one re-execution. *)

(** {1 Persistent, replayable schedules} *)

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

val schedule_file_of_cx : Scenario.t -> params -> ?seed:int64 -> counterexample -> schedule_file
val schedule_to_json : schedule_file -> Oasis_util.Json.t
val schedule_of_json : Oasis_util.Json.t -> (schedule_file, string) result
val save_schedule : string -> schedule_file -> unit
val load_schedule : string -> (schedule_file, string) result

val replay : Scenario.t -> schedule_file -> run_result
(** Re-execute a persisted schedule under its recorded parameters and
    seed. *)
