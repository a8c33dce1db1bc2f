(* The scenario model checker (§3.2.2, §4.11): exhaustive small-scope
   exploration of fault interleavings, its reductions, and the planted bug
   that seed sweeps cannot reach.

   Everything here is deterministic — the explorer re-executes the whole
   scenario per schedule, so a failing schedule is its own reproduction. *)

module Explore = Oasis_mc.Explore
module Scenarios = Oasis_mc.Scenarios

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let quick_params depth = { Explore.default_params with depth; max_runs = 50_000 }

(* dune runtest runs us in test/; `dune exec test/test_mc.exe` from the
   root.  Accept either. *)
let schedule_path name = if Sys.file_exists "schedules" then "schedules/" ^ name else "test/schedules/" ^ name

(* The explorer's work, pinned exactly: schedules run, decisions taken,
   distinct states expanded, and branches pruned by sleep sets and by
   fingerprints.  The simulation is deterministic, so these move only when
   what the explorer walks changes, and a change that moves them must say
   why. *)
let check_work ?(what = "") (rp : Explore.report) ~runs ~decisions ~distinct ~sleep ~fp =
  checki (what ^ "runs") runs rp.Explore.rp_runs;
  checki (what ^ "decisions") decisions rp.Explore.rp_decisions;
  checki (what ^ "distinct states") distinct rp.Explore.rp_distinct_states;
  checki (what ^ "pruned by sleep sets") sleep rp.Explore.rp_pruned_sleep;
  checki (what ^ "pruned by fingerprints") fp rp.Explore.rp_pruned_fp

(* --- the paper scenarios hold over every interleaving --- *)

let test_golf_club_exhaustive () =
  let rp = Explore.explore Scenarios.golf_club (quick_params 10) in
  checkb "exhaustive within budget" true rp.Explore.rp_exhaustive;
  check_work rp ~runs:859 ~decisions:8494 ~distinct:668 ~sleep:19 ~fp:1250;
  checki "no violations" 0 (List.length rp.Explore.rp_violations)

let test_mssa_exhaustive () =
  let rp = Explore.explore Scenarios.mssa (quick_params 12) in
  checkb "exhaustive within budget" true rp.Explore.rp_exhaustive;
  check_work rp ~runs:79 ~decisions:410 ~distinct:58 ~sleep:1 ~fp:25;
  checki "no violations" 0 (List.length rp.Explore.rp_violations)

let test_cross_shard_fire_exhaustive () =
  (* The sharded club: a fire whose cascade crosses a shard boundary while
     the owning shard crashes mid-flight.  Depth 10 reorders the crash
     against the revocation, the WAL group commit, the ack and the
     cross-shard ModifiedBatch digest. *)
  let rp = Explore.explore Scenarios.cross_shard_fire (quick_params 10) in
  checkb "exhaustive within budget" true rp.Explore.rp_exhaustive;
  check_work rp ~runs:2878 ~decisions:28780 ~distinct:1681 ~sleep:429 ~fp:1293;
  checki "no violations" 0 (List.length rp.Explore.rp_violations)

let test_replica_failover_exhaustive () =
  (* The replicated club: the primary crashes mid-cascade and never
     returns; a backup promotes itself.  Depth 8 reorders the crash
     against the revocation, the local group commit, the log-shipping
     batches and the quorum ack — including the orderings where the fire
     is durable on a majority but its ack died with the primary. *)
  let rp = Explore.explore Scenarios.replica_failover (quick_params 8) in
  checkb "exhaustive within budget" true rp.Explore.rp_exhaustive;
  check_work rp ~runs:605 ~decisions:4840 ~distinct:361 ~sleep:178 ~fp:386;
  checki "no violations" 0 (List.length rp.Explore.rp_violations)

(* --- soundness of the reductions: sleep sets + fingerprints must not
   change the verdict, only the work --- *)

let test_reduction_sound_on_clean_scenario () =
  let p = { (quick_params 6) with max_runs = 100_000 } in
  let naive = Explore.explore Scenarios.golf_club { p with reduce = false } in
  let reduced = Explore.explore Scenarios.golf_club p in
  checkb "naive exhaustive" true naive.Explore.rp_exhaustive;
  checkb "reduced exhaustive" true reduced.Explore.rp_exhaustive;
  checki "naive finds nothing" 0 (List.length naive.Explore.rp_violations);
  checki "reduced finds nothing" 0 (List.length reduced.Explore.rp_violations);
  check_work ~what:"naive " naive ~runs:431 ~decisions:2586 ~distinct:0 ~sleep:0 ~fp:0;
  check_work ~what:"reduced " reduced ~runs:190 ~decisions:1140 ~distinct:114 ~sleep:8 ~fp:49;
  checkb "reduction strictly cheaper" true (reduced.Explore.rp_runs < naive.Explore.rp_runs)

let test_reduction_sound_on_buggy_scenario () =
  let p = quick_params 6 in
  let naive = Explore.explore Scenarios.planted { p with reduce = false } in
  let reduced = Explore.explore Scenarios.planted p in
  check_work ~what:"naive " naive ~runs:146 ~decisions:760 ~distinct:0 ~sleep:0 ~fp:0;
  check_work ~what:"reduced " reduced ~runs:110 ~decisions:581 ~distinct:78 ~sleep:1 ~fp:12;
  checkb "naive finds the bug" true (naive.Explore.rp_violations <> []);
  checkb "reduced still finds the bug" true (reduced.Explore.rp_violations <> []);
  let inv cx = cx.Explore.cx_invariant in
  checkb "same invariant violated" true
    (List.map inv naive.Explore.rp_violations = List.map inv naive.Explore.rp_violations
    && inv (List.hd reduced.Explore.rp_violations) = inv (List.hd naive.Explore.rp_violations))

(* --- the planted bug: invisible to seed sweeps, found exhaustively --- *)

let test_planted_bug_beyond_seed_sweeps () =
  let p = quick_params 8 in
  (* The conventional baseline: 50 different network seeds under default
     scheduling.  The violating ordering is outside the latency envelope,
     so every seed delivers the revocation before the crash. *)
  let sweep = Explore.seed_sweep Scenarios.planted p ~seeds:50 in
  checki "50-seed sweep finds nothing" 0 (List.length sweep);
  let rp = Explore.explore Scenarios.planted p in
  checkb "exhaustive exploration finds it" true (rp.Explore.rp_violations <> []);
  let cx = List.hd rp.Explore.rp_violations in
  Alcotest.(check string) "the planted invariant" "lost-revocation" cx.Explore.cx_invariant;
  (* Minimization keeps the violation and the minimized schedule replays to
     the same verdict. *)
  let m = Explore.minimize Scenarios.planted p cx in
  checkb "minimized no longer than original" true
    (List.length m.Explore.cx_schedule <= List.length cx.Explore.cx_schedule);
  let r = Explore.run_schedule Scenarios.planted p m.Explore.cx_schedule in
  checkb "minimized schedule still violates" true
    (List.exists (fun (i, _) -> i = "lost-revocation") r.Explore.r_violations)

(* --- persisted regression schedules --- *)

(* Replay a persisted schedule and check the tags of the events its own
   choices pick.  A schedule names its choices by index among the eligible
   events, so a change to what the queue holds could make the same indices
   pick other events; a schedule that must stay clean would then pass
   without testing its ordering. *)
let replay_file name ~picks =
  match Explore.load_schedule (schedule_path name) with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok sf -> (
      match Scenarios.find sf.Explore.sf_scenario with
      | None -> Alcotest.failf "unknown scenario %s" sf.Explore.sf_scenario
      | Some spec ->
          let r = Explore.replay spec sf in
          let picked =
            List.filteri (fun i _ -> i < List.length sf.Explore.sf_choices) r.Explore.r_decisions
            |> List.map (fun d -> d.Explore.d_eligible.(d.Explore.d_choice).Oasis_sim.Engine.ev_tag)
          in
          Alcotest.(check (list string)) "the events the schedule picks" picks picked;
          r)

let test_regression_planted_replay () =
  let r =
    replay_file "planted_lost_revocation.json"
      ~picks:
        [ "a:revoke-alice"; "t:h.gate"; "d:h.door"; "t:h.door"; "d:h.gate"; "a:crash-door" ]
  in
  checkb "replayed schedule still violates lost-revocation" true
    (List.exists (fun (i, _) -> i = "lost-revocation") r.Explore.r_violations)

let test_regression_golf_club_ack_durable () =
  (* The adversarial ordering that once lost an acknowledged firing across a
     crash (fire ack outran the WAL group commit).  Fixed by deferring the
     ack until the record is durable; the schedule must stay clean. *)
  let r = replay_file "golf_club_ack_durable.json" ~picks:[ "t:h.Login"; "t:h.Club"; "d:h.Club" ] in
  checki "no violations on the fixed code" 0 (List.length r.Explore.r_violations)

let test_regression_cross_shard_fire_durable () =
  (* The ordering under which an unpersisted firing was forgotten by the
     owning shard's recovery — the blacklist emptied, the fired member
     re-entered, while the other shard had already revoked the derived
     Editor: the logical service split across its shards.  Fixed by
     persisting the blacklist entry and the cascade's record deaths at
     fire time; the schedule must stay clean. *)
  let r =
    replay_file "cross_shard_fire_fire_durable.json"
      ~picks:
        [
          "a:fire-alice"; "t:h.Login"; "t:h.Club.s0"; "t:h.Club.s1"; "d:h.Club.s0"; "d:h.Club.s1";
          "d:h.Club.s0"; "d:h.Club.s1"; "s:h.Club.s0"; "a:crash-s0";
        ]
  in
  checki "no violations on the fixed code" 0 (List.length r.Explore.r_violations)

(* --- schedule files round-trip --- *)

let test_schedule_roundtrip () =
  let sf =
    {
      Explore.sf_scenario = "golf-club";
      sf_invariant = "converges";
      sf_detail = "detail text";
      sf_choices = [ 0; 2; 1 ];
      sf_depth = 9;
      sf_window = 0.125;
      sf_max_branch = 4;
      sf_seed = 77L;
    }
  in
  match Explore.schedule_of_json (Explore.schedule_to_json sf) with
  | Error e -> Alcotest.failf "roundtrip: %s" e
  | Ok sf' -> checkb "roundtrip preserves everything" true (sf = sf')

(* --- witness compiler: static chains confirmed dynamically --- *)

module FL = Oasis_core.Federation_lint
module Witness = Oasis_mc.Witness

let example_dir =
  List.find Sys.file_exists [ "../examples/rolefiles"; "examples/rolefiles" ]

let examples_federation () =
  Sys.readdir example_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".rdl")
  |> List.sort compare
  |> List.map (fun f ->
         let src =
           In_channel.with_open_text (Filename.concat example_dir f) In_channel.input_all
         in
         {
           FL.fl_name = Filename.remove_extension f;
           fl_file = f;
           fl_rolefile = Oasis_rdl.Parser.parse src;
         })
  |> FL.make

let test_witnesses_confirmed () =
  (* every escalation chain the prover reports on the example federation
     must survive its own compiled scenario: zero static/dynamic
     disagreements (ISSUE acceptance) *)
  let fed = examples_federation () in
  let total = ref 0 in
  List.iter
    (fun holder ->
      List.iter
        (fun w ->
          incr total;
          match Witness.confirm ~fed w with
          | Witness.Confirmed _ -> ()
          | v ->
              Alcotest.failf "%s => %s: %s" (FL.node_str w.FL.w_holder)
                (FL.node_str w.FL.w_target) (Witness.verdict_str v))
        (FL.witnesses fed ~holder))
    (FL.default_holders fed);
  checkb "chains were actually exercised" true (!total > 0)

let test_witness_refutes_forgery () =
  (* sanity that Confirmed is not vacuous: lie about revocation carrying
     through a blind hop and the explorer must refute it *)
  let fed =
    FL.make
      [
        {
          FL.fl_name = "G";
          fl_file = "G.rdl";
          fl_rolefile = Oasis_rdl.Parser.parse "H(u) <-\nT(u) <- H(u)\n";
        };
      ]
  in
  match FL.witnesses fed ~holder:("G", "H") with
  | [ w ] -> (
      checkb "hop is blind" false w.FL.w_carried;
      match Witness.confirm ~fed { w with FL.w_carried = true } with
      | Witness.Refuted _ -> ()
      | v -> Alcotest.failf "forged carry flag not refuted: %s" (Witness.verdict_str v))
  | ws -> Alcotest.failf "expected one witness, got %d" (List.length ws)

let () =
  Alcotest.run "mc"
    [
      ( "scenarios",
        [
          Alcotest.test_case "golf club holds over every interleaving" `Quick
            test_golf_club_exhaustive;
          Alcotest.test_case "mssa holds over every interleaving" `Quick test_mssa_exhaustive;
          Alcotest.test_case "cross-shard fire holds over every interleaving" `Quick
            test_cross_shard_fire_exhaustive;
          Alcotest.test_case "replica failover holds over every interleaving" `Quick
            test_replica_failover_exhaustive;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "sound on a clean scenario" `Quick
            test_reduction_sound_on_clean_scenario;
          Alcotest.test_case "sound on a buggy scenario" `Quick
            test_reduction_sound_on_buggy_scenario;
        ] );
      ( "planted-bug",
        [
          Alcotest.test_case "found exhaustively, missed by 50 seeds" `Quick
            test_planted_bug_beyond_seed_sweeps;
        ] );
      ( "witnesses",
        [
          Alcotest.test_case "example-federation chains all confirmed" `Quick
            test_witnesses_confirmed;
          Alcotest.test_case "forged carry flag refuted" `Quick test_witness_refutes_forgery;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "planted counterexample still fails" `Quick
            test_regression_planted_replay;
          Alcotest.test_case "golf-club ack-durable schedule stays clean" `Quick
            test_regression_golf_club_ack_durable;
          Alcotest.test_case "cross-shard fire-durable schedule stays clean" `Quick
            test_regression_cross_shard_fire_durable;
          Alcotest.test_case "schedule files round-trip" `Quick test_schedule_roundtrip;
        ] );
    ]
