(* Command-line front end for the OASIS libraries: parse and type-check RDL
   rolefiles, parse composite event expressions, evaluate ACLs, and run a
   small interactive demonstration world.

   Examples:
     oasis_cli rdl --check rolefile.rdl
     echo 'Chair <- Login.LoggedOn("jmb", h)' | oasis_cli rdl -
     oasis_cli composite '$Seen(A, R); $Seen(B, R) - Seen(A, Rp)'
     oasis_cli acl --acl '+bob=rw -%student=w +other=r' --user bob --groups student
     oasis_cli demo *)

open Cmdliner

let read_input path =
  if path = "-" then In_channel.input_all In_channel.stdin
  else In_channel.with_open_text path In_channel.input_all

(* --- rdl subcommand --- *)

let rdl_cmd =
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"RDL rolefile ('-' for stdin)")
  in
  let check =
    Arg.(value & flag & info [ "check" ] ~doc:"Run type inference and report signatures")
  in
  let run path check =
    let src = read_input path in
    match Oasis_rdl.Parser.parse_result src with
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        1
    | Ok rolefile ->
        print_endline (Oasis_rdl.Pretty.to_string rolefile);
        if check then begin
          match Oasis_rdl.Infer.infer rolefile with
          | Error e ->
              Printf.eprintf "type error: %s\n" e;
              2
          | Ok result ->
              print_endline "\n-- inferred signatures --";
              Hashtbl.iter
                (fun role tys ->
                  Printf.printf "%s(%s)\n" role
                    (String.concat ", " (List.map Oasis_rdl.Ty.to_string tys)))
                result.Oasis_rdl.Infer.sigs;
              List.iter
                (fun (role, i) -> Printf.printf "warning: %s parameter %d unresolved\n" role i)
                result.Oasis_rdl.Infer.unresolved;
              0
        end
        else 0
  in
  let doc = "Parse (and optionally type-check) an RDL rolefile" in
  Cmd.v (Cmd.info "rdl" ~doc) Term.(const run $ path $ check)

(* --- lint subcommand --- *)

let lint_cmd =
  let module Analyze = Oasis_rdl.Analyze in
  let module FL = Oasis_core.Federation_lint in
  let module Json = Oasis_util.Json in
  let paths =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:
            "RDL rolefiles forming the federation.  Each file's service name \
             is its basename without extension (Login.rdl issues Login.* roles).")
  in
  let strict =
    Arg.(value & flag & info [ "strict" ] ~doc:"Fail on warnings as well as errors")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON on stdout") in
  let reach =
    Arg.(
      value
      & opt (some string) None
      & info [ "reach" ] ~docv:"SVC.ROLE"
          ~doc:
            "Also print the privilege-escalation frontier: every federation role a \
             holder of $(docv) can go on to acquire that is not derivable from the \
             axioms alone.")
  in
  let escalation =
    Arg.(
      value
      & opt ~vopt:(Some "all") (some string) None
      & info [ "escalation" ] ~docv:"HOLDER"
          ~doc:
            "Run the symbolic escalation prover from $(docv) (SVC.ROLE), or from \
             every bootstrap and non-axiom-derivable role when $(docv) is \
             $(b,all) (the default when the option is given bare).  Each \
             reachable target is reported with its witness chain's verdicts \
             (OASIS006-008).")
  in
  let witness =
    Arg.(
      value & flag
      & info [ "witness" ] ~doc:"Print each escalation chain hop by hop (implied by --confirm)")
  in
  let confirm =
    Arg.(
      value & flag
      & info [ "confirm" ]
          ~doc:
            "Compile every witness chain into a model-checker scenario and run it \
             under the explorer; exit 4 if any chain is refuted (a static/dynamic \
             disagreement).")
  in
  let threshold =
    Arg.(
      value & opt int 1
      & info [ "collusion-threshold" ] ~docv:"N"
          ~doc:"Arm OASIS007 for chains needing at most $(docv) colluding principals")
  in
  let service_name path = Filename.remove_extension (Filename.basename path) in
  let parse_node spec =
    match String.index_opt spec '.' with
    | None -> None
    | Some i ->
        Some (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
  in
  let run paths strict json reach escalation witness confirm threshold =
    let parsed, broken =
      List.partition_map
        (fun path ->
          let name = service_name path in
          match Oasis_rdl.Parser.parse_result (read_input path) with
          | Ok rf -> Left { FL.fl_name = name; fl_file = path; fl_rolefile = rf }
          | Error e ->
              let line =
                (* parse_result folds the line into the message; re-parse for it *)
                match Oasis_rdl.Parser.parse (read_input path) with
                | exception Oasis_rdl.Parser.Parse_error (_, l) -> l
                | exception Oasis_rdl.Lexer.Lex_error (_, l) -> l
                | _ -> 0
              in
              Right
                {
                  Analyze.code = "RDL000";
                  severity = Analyze.Error;
                  file = path;
                  line;
                  message = "parse error: " ^ e;
                })
        paths
    in
    let fed = FL.make parsed in
    let diags = broken @ FL.check ~per_file:true ~collusion_threshold:threshold fed in
    let count sev = List.length (List.filter (fun d -> d.Analyze.severity = sev) diags) in
    let errors = count Analyze.Error
    and warnings = count Analyze.Warning
    and infos = count Analyze.Info in
    let failed = List.exists (Analyze.gates ~strict) diags in
    let escal =
      match reach with
      | None -> None
      | Some spec ->
          Option.map (fun holder -> (holder, FL.escalation fed ~holder)) (parse_node spec)
    in
    (* --escalation: witness sweep (optionally model-checker confirmed) *)
    let module W = Oasis_mc.Witness in
    let base = FL.reachable fed in
    let sweep =
      match escalation with
      | None -> None
      | Some spec ->
          let holders =
            if spec = "all" then FL.default_holders fed
            else match parse_node spec with Some h -> [ h ] | None -> []
          in
          Some
            (List.concat_map
               (fun holder ->
                 List.map
                   (fun w -> (w, if confirm then Some (W.confirm ~fed w) else None))
                   (FL.witnesses fed ~holder))
               holders)
    in
    let refuted =
      match sweep with
      | None -> 0
      | Some rows ->
          List.length
            (List.filter
               (fun (_, v) -> match v with Some (W.Refuted _) -> true | _ -> false)
               rows)
    in
    let witness_json (w, verdict) =
      let hop_json (h : FL.hop) =
        Json.Obj
          ([
             ("node", Json.Str (FL.node_str h.FL.h_node));
             ("via", Json.Str (FL.node_str h.FL.h_via));
             ("starred", Json.Bool h.FL.h_via_starred);
             ("file", Json.Str h.FL.h_file);
             ("line", Json.Int h.FL.h_line);
           ]
          @
          match h.FL.h_elector with
          | None -> []
          | Some (n, _) -> [ ("elector", Json.Str (FL.node_str n)) ])
      in
      Json.Obj
        ([
           ("holder", Json.Str (FL.node_str w.FL.w_holder));
           ("target", Json.Str (FL.node_str w.FL.w_target));
           ("escalation", Json.Bool (not (Hashtbl.mem base w.FL.w_target)));
           ("carried", Json.Bool w.FL.w_carried);
           ("colluders", Json.Int w.FL.w_colluders);
           ( "codes",
             Json.Arr
               (List.map
                  (fun c -> Json.Str c)
                  (FL.witness_codes ~collusion_threshold:threshold w)) );
           ("hops", Json.Arr (List.map hop_json w.FL.w_hops));
         ]
        @
        match verdict with
        | None -> []
        | Some (W.Confirmed { vf_runs; vf_exhaustive }) ->
            [
              ( "confirm",
                Json.Obj
                  [
                    ("status", Json.Str "confirmed");
                    ("runs", Json.Int vf_runs);
                    ("exhaustive", Json.Bool vf_exhaustive);
                  ] );
            ]
        | Some (W.Refuted { vf_runs; vf_invariant; vf_detail }) ->
            [
              ( "confirm",
                Json.Obj
                  [
                    ("status", Json.Str "refuted");
                    ("runs", Json.Int vf_runs);
                    ("invariant", Json.Str vf_invariant);
                    ("detail", Json.Str vf_detail);
                  ] );
            ]
        | Some (W.Uncompilable reason) ->
            [
              ( "confirm",
                Json.Obj [ ("status", Json.Str "uncompilable"); ("reason", Json.Str reason) ]
              );
            ])
    in
    if json then
      print_endline
        (Json.to_string
           (Json.Obj
              ([
                 ("files", Json.Arr (List.map (fun p -> Json.Str p) paths));
                 ("diagnostics", Json.Arr (List.map Analyze.diag_to_json diags));
                 ( "summary",
                   Json.Obj
                     [
                       ("errors", Json.Int errors);
                       ("warnings", Json.Int warnings);
                       ("infos", Json.Int infos);
                       ("strict", Json.Bool strict);
                       ("ok", Json.Bool (not failed));
                     ] );
               ]
              @ (match escal with
                | None -> []
                | Some (holder, nodes) ->
                    [
                      ( "escalation",
                        Json.Obj
                          [
                            ("holder", Json.Str (FL.node_str holder));
                            ("reaches", Json.Arr (List.map (fun n -> Json.Str (FL.node_str n)) nodes));
                          ] );
                    ])
              @
              match sweep with
              | None -> []
              | Some rows ->
                  [
                    ("witnesses", Json.Arr (List.map witness_json rows));
                    ("refuted", Json.Int refuted);
                  ])))
    else begin
      List.iter (fun d -> print_endline (Analyze.diag_to_string d)) diags;
      (match escal with
      | None -> ()
      | Some (holder, nodes) ->
          Printf.printf "escalation: a holder of %s can also reach: %s\n" (FL.node_str holder)
            (match nodes with [] -> "(nothing)" | _ -> String.concat ", " (List.map FL.node_str nodes)));
      (match sweep with
      | None -> ()
      | Some rows ->
          List.iter
            (fun ((w : FL.witness), verdict) ->
              let codes = FL.witness_codes ~collusion_threshold:threshold w in
              Printf.printf "witness: %s => %s%s (%d hop(s), %d colluder(s))%s\n"
                (FL.node_str w.FL.w_holder) (FL.node_str w.FL.w_target)
                (if Hashtbl.mem base w.FL.w_target then "" else " [escalation]")
                (List.length w.FL.w_hops) w.FL.w_colluders
                (match codes with [] -> "" | _ -> " " ^ String.concat "," codes);
              if witness || confirm then
                List.iter
                  (fun (h : FL.hop) ->
                    Printf.printf "  enter %s via %s%s%s at %s:%d\n" (FL.node_str h.FL.h_node)
                      (FL.node_str h.FL.h_via)
                      (if h.FL.h_via_starred then "*" else "")
                      (match h.FL.h_elector with
                      | None -> ""
                      | Some (n, _) -> " elected by " ^ FL.node_str n)
                      h.FL.h_file h.FL.h_line)
                  w.FL.w_hops;
              match verdict with
              | None -> ()
              | Some v -> Printf.printf "  confirm: %s\n" (Oasis_mc.Witness.verdict_str v))
            rows;
          if confirm then
            Printf.printf "witnesses: %d chain(s), %d refuted\n" (List.length rows) refuted);
      Printf.printf "%d file(s): %d error(s), %d warning(s), %d info(s)%s\n" (List.length paths)
        errors warnings infos
        (if failed then " -- FAILED" else "")
    end;
    if refuted > 0 then 4 else if failed then 1 else 0
  in
  let doc = "Statically analyze RDL rolefiles and their cross-service role graph" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the per-rolefile analyzer (unbound variables, duplicate entries, \
         arity/type errors, unknown extension functions, unsatisfiable constraints, \
         subsumed statements, import hygiene: codes RDL001-RDL012) over every FILE, \
         then federation-wide checks over all of them together (credential cycles \
         with no bootstrap, unreachable roles, revocation gaps, escalation chains: \
         codes OASIS001-OASIS008).";
      `P
        "$(b,--escalation) runs the symbolic prover: reachability over the \
         cross-service role graph carrying per-path witness chains, with \
         constraint-infeasible paths pruned.  $(b,--confirm) compiles each chain \
         into a model-checker scenario (issue the holder, walk the chain, probe the \
         target, fire the holder) and explores it, checking the static verdict \
         dynamically.";
      `P
        "Exit status is 1 when any error-severity diagnostic is reported (with \
         $(b,--strict), warnings gate too), 4 when $(b,--confirm) refutes a \
         witness chain, 0 otherwise.";
    ]
  in
  Cmd.v
    (Cmd.info "lint" ~doc ~man)
    Term.(const run $ paths $ strict $ json $ reach $ escalation $ witness $ confirm $ threshold)

(* --- composite subcommand --- *)

let composite_cmd =
  let expr = Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPR" ~doc:"Composite event expression") in
  let run expr =
    match Oasis_events.Composite.parse_result expr with
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        1
    | Ok c ->
        Printf.printf "parsed: %s\n" (Oasis_events.Composite.to_string c);
        Printf.printf "base templates:\n";
        List.iter
          (fun tpl -> Printf.printf "  %s\n" (Format.asprintf "%a" Oasis_events.Event.pp_template tpl))
          (Oasis_events.Composite.base_templates c);
        0
  in
  let doc = "Parse a composite event expression (ch. 6 language)" in
  Cmd.v (Cmd.info "composite" ~doc) Term.(const run $ expr)

(* --- acl subcommand --- *)

let acl_cmd =
  let acl = Arg.(required & opt (some string) None & info [ "acl" ] ~docv:"ACL" ~doc:"ACL text") in
  let user = Arg.(required & opt (some string) None & info [ "user" ] ~docv:"USER" ~doc:"User name") in
  let groups =
    Arg.(value & opt (list string) [] & info [ "groups" ] ~docv:"G1,G2" ~doc:"Groups the user is in")
  in
  let full = Arg.(value & opt string "adrwx" & info [ "full" ] ~doc:"Universe of rights") in
  let run acl user groups full =
    match Oasis_core.Acl.parse acl with
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        1
    | Ok parsed ->
        let rights =
          Oasis_core.Acl.rights parsed ~user ~in_group:(fun g -> List.mem g groups) ~full
        in
        Printf.printf "%s gets {%s}\n" user rights;
        0
  in
  let doc = "Evaluate the §5.4.4 grant algorithm on an ACL" in
  Cmd.v (Cmd.info "acl" ~doc) Term.(const run $ acl $ user $ groups $ full)

(* --- erdl subcommand --- *)

let erdl_cmd =
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"ERDL policy ('-' for stdin)") in
  let run path =
    match Oasis_esec.Erdl.parse (read_input path) with
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        1
    | Ok rules ->
        List.iter (fun r -> Format.printf "%a@." Oasis_esec.Erdl.pp_rule r) rules;
        0
  in
  let doc = "Parse an ERDL event-visibility policy (ch. 7)" in
  Cmd.v (Cmd.info "erdl" ~doc) Term.(const run $ path)

(* --- idl subcommand --- *)

let idl_cmd =
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"IDL file ('-' for stdin)") in
  let run path =
    match Oasis_events.Idl.parse (read_input path) with
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        1
    | Ok iface ->
        Format.printf "%a@." Oasis_events.Idl.pp iface;
        0
  in
  let doc = "Parse an event/RPC interface definition (§6.2.1)" in
  Cmd.v (Cmd.info "idl" ~doc) Term.(const run $ path)

(* --- explore subcommand --- *)

let explore_cmd =
  let module Scenario = Oasis_mc.Scenario in
  let module Explore = Oasis_mc.Explore in
  let module Scenarios = Oasis_mc.Scenarios in
  let module Json = Oasis_util.Json in
  let scenario_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO"
          ~doc:"Scenario to explore (see $(b,--list)); not needed with $(b,--replay).")
  in
  let list_flag = Arg.(value & flag & info [ "list" ] ~doc:"List the built-in scenarios") in
  let depth =
    Arg.(value & opt int Explore.default_params.Explore.depth & info [ "depth" ] ~docv:"N" ~doc:"Max decision points per run")
  in
  let window =
    Arg.(
      value
      & opt float Explore.default_params.Explore.window
      & info [ "window" ] ~docv:"SEC" ~doc:"Reorder window in simulated seconds")
  in
  let max_branch =
    Arg.(
      value
      & opt int Explore.default_params.Explore.max_branch
      & info [ "max-branch" ] ~docv:"N" ~doc:"Alternatives considered per decision point")
  in
  let max_runs =
    Arg.(
      value
      & opt int Explore.default_params.Explore.max_runs
      & info [ "max-runs" ] ~docv:"N" ~doc:"Exploration budget in schedule executions")
  in
  let naive =
    Arg.(value & flag & info [ "naive" ] ~doc:"Disable sleep sets and fingerprint pruning")
  in
  let seeds =
    Arg.(
      value
      & opt (some int) None
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Instead of exploring, run the seed-sweep baseline over N seeds")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON on stdout") in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the first (minimized) counterexample schedule to FILE")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE" ~doc:"Replay a persisted counterexample schedule")
  in
  let cx_json cx =
    Json.Obj
      [
        ("invariant", Json.Str cx.Explore.cx_invariant);
        ("detail", Json.Str cx.Explore.cx_detail);
        ("choices", Json.Arr (List.map (fun c -> Json.Int c) cx.Explore.cx_schedule));
      ]
  in
  let run scenario list_flag depth window max_branch max_runs naive seeds json out replay =
    if list_flag then begin
      List.iter
        (fun s ->
          Printf.printf "%-12s %d service(s), %d action(s), horizon %.1fs\n"
            s.Scenario.sc_name
            (List.length s.Scenario.sc_services)
            (List.length s.Scenario.sc_actions) s.Scenario.sc_horizon)
        Scenarios.all;
      0
    end
    else
      match replay with
      | Some file -> (
          match Explore.load_schedule file with
          | Error e ->
              Printf.eprintf "error: %s\n" e;
              1
          | Ok sf -> (
              match Scenarios.find sf.Explore.sf_scenario with
              | None ->
                  Printf.eprintf "error: unknown scenario %s\n" sf.Explore.sf_scenario;
                  1
              | Some spec ->
                  let r = Explore.replay spec sf in
                  if json then
                    print_endline
                      (Json.to_string
                         (Json.Obj
                            [
                              ("scenario", Json.Str sf.Explore.sf_scenario);
                              ( "violations",
                                Json.Arr
                                  (List.map
                                     (fun (inv, d) ->
                                       Json.Obj
                                         [ ("invariant", Json.Str inv); ("detail", Json.Str d) ])
                                     r.Explore.r_violations) );
                            ]))
                  else begin
                    Printf.printf "replayed %s: %d decision point(s)\n" sf.Explore.sf_scenario
                      (List.length r.Explore.r_decisions);
                    match r.Explore.r_violations with
                    | [] -> print_endline "no violations (schedule no longer fails)"
                    | vs ->
                        List.iter (fun (inv, d) -> Printf.printf "VIOLATION %s: %s\n" inv d) vs
                  end;
                  if r.Explore.r_violations = [] then 0 else 3))
      | None -> (
          match scenario with
          | None ->
              Printf.eprintf "error: SCENARIO required (or --list / --replay)\n";
              1
          | Some name -> (
              match Scenarios.find name with
              | None ->
                  Printf.eprintf "error: unknown scenario %s (try --list)\n" name;
                  1
              | Some spec -> (
                  let params =
                    {
                      Explore.depth;
                      window;
                      max_branch;
                      max_runs;
                      reduce = not naive;
                    }
                  in
                  match seeds with
                  | Some n ->
                      let found = Explore.seed_sweep spec params ~seeds:n in
                      if json then
                        print_endline
                          (Json.to_string
                             (Json.Obj
                                [
                                  ("scenario", Json.Str name);
                                  ("seeds", Json.Int n);
                                  ("violations", Json.Arr (List.map cx_json found));
                                ]))
                      else begin
                        Printf.printf "seed sweep over %d seed(s): %d violation(s)\n" n
                          (List.length found);
                        List.iter
                          (fun cx ->
                            Printf.printf "VIOLATION %s: %s\n" cx.Explore.cx_invariant
                              cx.Explore.cx_detail)
                          found
                      end;
                      if found = [] then 0 else 3
                  | None ->
                      let rp = Explore.explore spec params in
                      let minimized =
                        match rp.Explore.rp_violations with
                        | [] -> None
                        | cx :: _ -> Some (Explore.minimize spec params cx)
                      in
                      (match (out, minimized) with
                      | Some path, Some cx ->
                          Explore.save_schedule path (Explore.schedule_file_of_cx spec params cx)
                      | Some path, None ->
                          Printf.eprintf "note: no counterexample to write to %s\n" path
                      | None, _ -> ());
                      if json then
                        print_endline
                          (Json.to_string
                             (Json.Obj
                                [
                                  ("scenario", Json.Str name);
                                  ("runs", Json.Int rp.Explore.rp_runs);
                                  ("decisions", Json.Int rp.Explore.rp_decisions);
                                  ("distinct_states", Json.Int rp.Explore.rp_distinct_states);
                                  ("pruned_sleep", Json.Int rp.Explore.rp_pruned_sleep);
                                  ("pruned_fp", Json.Int rp.Explore.rp_pruned_fp);
                                  ("exhaustive", Json.Bool rp.Explore.rp_exhaustive);
                                  ( "violations",
                                    Json.Arr (List.map cx_json rp.Explore.rp_violations) );
                                  ( "minimized",
                                    match minimized with
                                    | None -> Json.Null
                                    | Some cx -> cx_json cx );
                                ]))
                      else begin
                        Printf.printf
                          "%s: %d run(s), %d decision point(s), %d distinct state(s)%s\n" name
                          rp.Explore.rp_runs rp.Explore.rp_decisions
                          rp.Explore.rp_distinct_states
                          (if rp.Explore.rp_exhaustive then " (exhaustive)"
                           else " (budget exhausted)");
                        Printf.printf "pruned: %d by sleep sets, %d by fingerprints\n"
                          rp.Explore.rp_pruned_sleep rp.Explore.rp_pruned_fp;
                        (match rp.Explore.rp_violations with
                        | [] -> print_endline "all invariants hold over every explored interleaving"
                        | vs ->
                            let shown = List.filteri (fun i _ -> i < 5) vs in
                            List.iter
                              (fun cx ->
                                Printf.printf "VIOLATION %s: %s\n  schedule: [%s]\n"
                                  cx.Explore.cx_invariant cx.Explore.cx_detail
                                  (String.concat ";"
                                     (List.map string_of_int cx.Explore.cx_schedule)))
                              shown;
                            let rest = List.length vs - List.length shown in
                            if rest > 0 then
                              Printf.printf "... and %d more violating schedule(s)\n" rest);
                        match minimized with
                        | None -> ()
                        | Some cx ->
                            Printf.printf "minimized counterexample: [%s]\n"
                              (String.concat ";" (List.map string_of_int cx.Explore.cx_schedule))
                      end;
                      if rp.Explore.rp_violations = [] then 0 else 3)))
  in
  let doc = "Exhaustively explore fault interleavings of a scenario (model checker)" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Takes over the simulator's event queue and drives every message-delivery / \
         crash / fsync interleaving of the scenario inside its branching window, up to \
         a bounded depth, checking safety (no re-entry while fired; fired-stays-fired \
         across recovery) and convergence (cascades settle within the heartbeat bound; \
         recovered state equals the crash-free twin) on every explored schedule.  \
         Sleep-set and state-fingerprint reduction keep the run count far below naive \
         enumeration; $(b,--naive) turns them off for comparison.";
      `P
        "Exit status: 0 when all invariants hold, 3 when a violation was found, 1 on \
         usage errors.  A found violation is minimized and can be persisted with \
         $(b,--out) and re-executed later with $(b,--replay).";
    ]
  in
  Cmd.v (Cmd.info "explore" ~doc ~man)
    Term.(
      const run $ scenario_arg $ list_flag $ depth $ window $ max_branch $ max_runs $ naive
      $ seeds $ json $ out $ replay)

(* --- shard subcommand --- *)

let shard_cmd =
  let module Shard = Oasis_core.Shard in
  let module V = Oasis_rdl.Value in
  let shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N" ~doc:"Number of shards in the ring")
  in
  let vnodes =
    Arg.(
      value & opt int 64
      & info [ "vnodes" ] ~docv:"V" ~doc:"Virtual nodes per shard (placement granularity)")
  in
  let keys =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"INSTANCE"
          ~doc:
            "Role instances to place, as $(b,Role) or $(b,Role(arg,...)); arguments are \
             treated as strings.  With no instances, a synthetic population is placed \
             instead.")
  in
  let population =
    Arg.(
      value & opt int 10_000
      & info [ "population" ] ~docv:"K"
          ~doc:"Synthetic population size for the balance/movement report")
  in
  let moved =
    Arg.(
      value & flag
      & info [ "moved" ]
          ~doc:"Also report how much of the population moves when one shard is added")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON") in
  (* "Member(alice,pc5)" -> ("Member", [Str "alice"; Str "pc5"]). *)
  let parse_instance s =
    match String.index_opt s '(' with
    | None -> Ok (s, [])
    | Some i when String.length s > 0 && s.[String.length s - 1] = ')' ->
        let role = String.sub s 0 i in
        let inner = String.sub s (i + 1) (String.length s - i - 2) in
        let args =
          if inner = "" then []
          else
            String.split_on_char ',' inner |> List.map String.trim
            |> List.map (fun a -> V.Str a)
        in
        if role = "" then Error (Printf.sprintf "%S: empty role name" s) else Ok (role, args)
    | Some _ -> Error (Printf.sprintf "%S: unbalanced parentheses" s)
  in
  let run shards vnodes keys population moved json =
    if shards < 1 then begin
      Printf.eprintf "error: --shards must be >= 1\n";
      1
    end
    else begin
      let ring = Shard.Ring.make ~vnodes ~shards () in
      let place role args = Shard.Ring.owner ring (Shard.route_key ~role ~args) in
      match keys with
      | _ :: _ -> (
          (* Explicit instances: print each one's owner. *)
          let rec collect acc = function
            | [] -> Ok (List.rev acc)
            | k :: rest -> (
                match parse_instance k with
                | Error e -> Error e
                | Ok inst -> collect (inst :: acc) rest)
          in
          match collect [] keys with
          | Error e ->
              Printf.eprintf "error: %s\n" e;
              1
          | Ok instances ->
              let placed =
                List.map (fun (role, args) -> (role, args, place role args)) instances
              in
              if json then
                let module Json = Oasis_util.Json in
                print_endline
                  (Json.to_string
                     (Json.sorted
                        (Json.Obj
                           [
                             ("shards", Json.Int shards);
                             ("vnodes", Json.Int vnodes);
                             ( "placements",
                               Json.Arr
                                 (List.map
                                    (fun (role, args, owner) ->
                                      Json.Obj
                                        [
                                          ("role", Json.Str role);
                                          ( "args",
                                            Json.Arr
                                              (List.map
                                                 (function
                                                   | V.Str s -> Json.Str s
                                                   | v -> Json.Str (V.to_string v))
                                                 args) );
                                          ("owner", Json.Int owner);
                                        ])
                                    placed) );
                           ])))
              else
                List.iter
                  (fun (role, args, owner) ->
                    Printf.printf "%s(%s) -> shard %d\n" role
                      (String.concat ", "
                         (List.map (function V.Str s -> s | v -> V.to_string v) args))
                      owner)
                  placed;
              0)
      | [] ->
          (* Synthetic population: balance, and optionally movement when the
             ring grows by one shard. *)
          let counts = Array.make shards 0 in
          for i = 0 to population - 1 do
            let owner = place "Member" [ V.Str (Printf.sprintf "u%d" i) ] in
            counts.(owner) <- counts.(owner) + 1
          done;
          let ideal = float_of_int population /. float_of_int shards in
          let worst = Array.fold_left max 0 counts in
          let moved_count =
            if not moved then None
            else begin
              let grown = Shard.Ring.add_shard ring in
              let n = ref 0 in
              for i = 0 to population - 1 do
                let key =
                  Shard.route_key ~role:"Member" ~args:[ V.Str (Printf.sprintf "u%d" i) ]
                in
                if Shard.Ring.owner ring key <> Shard.Ring.owner grown key then incr n
              done;
              Some !n
            end
          in
          if json then
            let module Json = Oasis_util.Json in
            print_endline
              (Json.to_string
                 (Json.sorted
                    (Json.Obj
                       ([
                          ("shards", Json.Int shards);
                          ("vnodes", Json.Int vnodes);
                          ("population", Json.Int population);
                          ( "counts",
                            Json.Arr (Array.to_list (Array.map (fun c -> Json.Int c) counts))
                          );
                          ("worst_over_ideal", Json.Float (float_of_int worst /. ideal));
                        ]
                       @
                       match moved_count with
                       | None -> []
                       | Some n ->
                           [
                             ("moved_on_add", Json.Int n);
                             ( "moved_fraction",
                               Json.Float (float_of_int n /. float_of_int population) );
                           ]))))
          else begin
            Printf.printf "%d shard(s), %d vnode(s) each, %d synthetic instance(s)\n" shards
              vnodes population;
            Array.iteri
              (fun i c ->
                Printf.printf "  shard %2d: %6d (%.2fx ideal)\n" i c (float_of_int c /. ideal))
              counts;
            Printf.printf "worst shard holds %.2fx its ideal share\n"
              (float_of_int worst /. ideal);
            match moved_count with
            | None -> ()
            | Some n ->
                Printf.printf
                  "adding shard %d moves %d instance(s) (%.1f%%; consistent-hash bound ~%.1f%%)\n"
                  shards n
                  (100.0 *. float_of_int n /. float_of_int population)
                  (100.0 /. float_of_int (shards + 1))
          end;
          0
    end
  in
  let doc = "Inspect consistent-hash placement of the sharded credential plane" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Builds the same SipHash consistent-hash ring the sharded deployment \
         ($(b,Oasis_core.Shard)) uses and reports where role instances land.  With \
         explicit $(b,Role(arg,...)) operands it prints each instance's owning shard; \
         with none it places a synthetic population and reports per-shard balance, and \
         with $(b,--moved) also how many instances change owner when one shard is added \
         (the consistent-hashing guarantee: about 1/(N+1) of the keyspace, not a full \
         reshuffle).";
    ]
  in
  Cmd.v (Cmd.info "shard" ~doc ~man)
    Term.(const run $ shards $ vnodes $ keys $ population $ moved $ json)

(* --- serve / client subcommands: the sharded plane on the Unix backend --- *)

(* The deployment convention shared by [serve], [client] and the CI smoke:
   a port base B gives the router B and shard I the port B+1+I; shard I's
   wire (and sim-host) name is [h.<name>.sI], matching the in-process
   plane's host naming, and its service name is [<name>#I].  Service names
   are distinct per process on purpose: credential-record references are
   table-relative, so a certificate presented to the wrong shard must fail
   closed (Wrong_context / unknown handle), never alias. *)

let serve_rolefile =
  {|
Admin <-
Login(u) <-
User(u) <- Login(u)* |>* Admin
|}

let wire_shard_host name i = Printf.sprintf "h.%s.s%d" name i
let wire_shard_port base i = base + 1 + i

let serve_cmd =
  let module Backend = Oasis_backend.Backend in
  let module Backend_unix = Oasis_backend.Backend_unix in
  let module Net = Oasis_sim.Net in
  let module Service = Oasis_core.Service in
  let module Remote = Oasis_core.Remote in
  let module Shard = Oasis_core.Shard in
  let role =
    Arg.(
      value
      & opt (enum [ ("shard", `Shard); ("router", `Router) ]) `Shard
      & info [ "role" ] ~docv:"ROLE" ~doc:"Process role: $(b,shard) or $(b,router)")
  in
  let id = Arg.(value & opt int 0 & info [ "id" ] ~docv:"I" ~doc:"Shard id (shard role)") in
  let shards =
    Arg.(value & opt int 2 & info [ "shards" ] ~docv:"N" ~doc:"Shard count (router role)")
  in
  let port_base =
    Arg.(
      value & opt int 7640
      & info [ "port-base" ] ~docv:"B"
          ~doc:"Loopback port base: router at B, shard I at B+1+I")
  in
  let name_a =
    Arg.(value & opt string "Gate" & info [ "name" ] ~docv:"NAME" ~doc:"Logical service name")
  in
  let data_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "data-dir" ] ~docv:"DIR" ~doc:"Durable-state directory (shard role)")
  in
  let rolefile =
    Arg.(
      value
      & opt (some string) None
      & info [ "rolefile" ] ~docv:"FILE" ~doc:"RDL rolefile (default: built-in Admin/User)")
  in
  let vnodes =
    Arg.(value & opt int 64 & info [ "vnodes" ] ~docv:"V" ~doc:"Ring virtual nodes per shard")
  in
  let run role id shards port_base name data_dir rolefile vnodes =
    let rolefile =
      match rolefile with Some f -> read_input f | None -> serve_rolefile
    in
    let b = Backend_unix.create ?data_dir () in
    let backend = Backend_unix.pack b in
    let net = Backend.net backend in
    match role with
    | `Router ->
        let host = Net.add_host net "router" in
        let ring = Shard.Ring.make ~vnodes ~shards () in
        let shard_names = Array.init shards (wire_shard_host name) in
        Array.iteri
          (fun i peer ->
            Backend_unix.peer b ~name:peer ~port:(wire_shard_port port_base i))
          shard_names;
        let _router = Remote.serve_router net host ~ring ~shards:shard_names in
        let port = Backend_unix.listen b ~port:port_base () in
        Printf.printf "router: %d shards of %s, listening on %d\n%!" shards name port;
        Backend.run backend;
        0
    | `Shard -> (
        let host = Net.add_host net (wire_shard_host name id) in
        let disk = Backend.disk backend host in
        let reg = Service.create_registry () in
        match
          Service.create net host reg
            ~name:(Printf.sprintf "%s#%d" name id)
            ~rolefile_id:name ~rolefile ~compound_certificates:false ~disk ()
        with
        | Error e ->
            Printf.eprintf "shard %d: %s\n" id e;
            1
        | Ok svc ->
            let _server = Remote.serve_shard net svc ~shard_id:id in
            (* A restarted shard replays its journal before it takes a
               request: fired instances stay fired and issued records
               resolve again.  Certificate handles are not journalled, so
               those from before the restart are refused as unknown. *)
            Service.recover svc ~on_done:(fun () ->
                let port = Backend_unix.listen b ~port:(wire_shard_port port_base id) () in
                Printf.printf
                  "shard %d (%s): recovered %d issued records, listening on %d, data in %s\n%!" id
                  (Service.name svc) (Service.durable_issued svc) port (Backend_unix.data_dir b));
            Backend.run backend;
            0)
  in
  let doc = "Run one process of the sharded plane on the Unix backend (real sockets/disks)" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs a single shard (or the router) of the sharded OASIS credential plane as a \
         real process: wall-clock timers, loopback TCP with the WAL's length+SipHash \
         framing, and durable state on real files with fsync.  The protocol modules are \
         the same ones the simulator runs — only the backend differs.";
      `P
        "A 2-shard deployment on one machine:";
      `Pre
        "  oasis_cli serve --role shard --id 0 &\n\
        \  oasis_cli serve --role shard --id 1 &\n\
        \  oasis_cli serve --role router --shards 2 &\n\
        \  oasis_cli client smoke";
    ]
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(const run $ role $ id $ shards $ port_base $ name_a $ data_dir $ rolefile $ vnodes)

let client_cmd =
  let module Backend = Oasis_backend.Backend in
  let module Backend_unix = Oasis_backend.Backend_unix in
  let module Net = Oasis_sim.Net in
  let module Remote = Oasis_core.Remote in
  let module V = Oasis_rdl.Value in
  let port_base =
    Arg.(
      value & opt int 7640
      & info [ "port-base" ] ~docv:"B" ~doc:"Loopback port base the deployment uses")
  in
  let op =
    Arg.(
      required
      & pos 0 (some (enum
           [ ("ping", `Ping); ("place", `Place); ("bootstrap", `Bootstrap);
             ("issue", `Issue); ("validate", `Validate); ("fire", `Fire);
             ("rehire", `Rehire); ("exit", `Exit); ("smoke", `Smoke) ])) None
      & info [] ~docv:"OP"
          ~doc:
            "One of $(b,ping), $(b,place), $(b,bootstrap), $(b,issue), $(b,validate), \
             $(b,fire), $(b,rehire), $(b,exit), $(b,smoke)")
  in
  let client =
    Arg.(value & opt string "alice" & info [ "client" ] ~docv:"NAME" ~doc:"Client identity")
  in
  let role_a =
    Arg.(value & opt string "User" & info [ "target-role" ] ~docv:"ROLE" ~doc:"Role name")
  in
  let args_a =
    Arg.(value & opt_all string [] & info [ "arg" ] ~docv:"S" ~doc:"Role argument (repeatable)")
  in
  let roles_a =
    Arg.(
      value & opt_all string []
      & info [ "bootstrap-role" ] ~docv:"ROLE" ~doc:"Bootstrap role (repeatable)")
  in
  let handle_a =
    Arg.(value & opt (some string) None & info [ "handle" ] ~docv:"H" ~doc:"Certificate handle")
  in
  let shard_a =
    Arg.(value & opt (some int) None & info [ "shard" ] ~docv:"I" ~doc:"Bootstrap placement")
  in
  let timeout_a =
    Arg.(value & opt float 15.0 & info [ "timeout" ] ~docv:"S" ~doc:"Give up after S seconds")
  in
  let run port_base op client role args roles handle shard timeout =
    let b = Backend_unix.create () in
    let backend = Backend_unix.pack b in
    let net = Backend.net backend in
    let host = Net.add_host net "client" in
    Backend_unix.peer b ~name:"router" ~port:port_base;
    let c = Remote.Client.create net host ~router:"router" in
    let args = List.map (fun s -> V.Str s) args in
    let rc = ref 3 (* timed out *) in
    let finish code =
      rc := code;
      Backend.stop backend
    in
    let done_ok pp = function
      | Ok v ->
          pp v;
          finish 0
      | Error e ->
          Printf.eprintf "error: %s\n%!" e;
          finish 1
    in
    let need_handle k =
      match handle with
      | Some h -> k h
      | None ->
          Printf.eprintf "error: --handle required\n%!";
          finish 2
    in
    (match op with
    | `Ping -> Remote.Client.ping c (done_ok (fun () -> print_endline "pong"))
    | `Place ->
        Remote.Client.place c ~role ~args (done_ok (fun s -> Printf.printf "shard %d\n" s))
    | `Bootstrap ->
        let roles = if roles = [] then [ "Admin" ] else roles in
        Remote.Client.bootstrap c ?shard ~client ~roles ~args
          (done_ok (fun h -> print_endline h))
    | `Issue ->
        let creds = match handle with Some h -> [ h ] | None -> [] in
        Remote.Client.issue c ~client ~role ~args ~creds (done_ok print_endline)
    | `Validate ->
        need_handle (fun handle ->
            Remote.Client.validate c ~client ~handle ~need_role:role
              (done_ok (fun () -> print_endline "valid")))
    | `Fire ->
        need_handle (fun revoker ->
            Remote.Client.fire c ~revoker ~role ~args
              (done_ok (fun n -> Printf.printf "revoked %d\n" n)))
    | `Rehire ->
        need_handle (fun revoker ->
            Remote.Client.rehire c ~revoker ~role ~args
              (done_ok (fun () -> print_endline "reinstated")))
    | `Exit ->
        need_handle (fun handle ->
            Remote.Client.exit_role c ~handle (done_ok (fun () -> print_endline "exited")))
    | `Smoke ->
        (* End-to-end over the wire: place -> colocated bootstrap -> issue
           -> validate -> fire -> validate fails (one revocation converges,
           durable at the owning shard).  Each step chains on the last. *)
        let u = client in
        let fail step e =
          Printf.eprintf "smoke %s: %s\n%!" step e;
          finish 1
        in
        Remote.Client.ping c (function
          | Error e -> fail "ping" e
          | Ok () ->
              Remote.Client.place c ~role:"User" ~args:[ V.Str u ] (function
                | Error e -> fail "place" e
                | Ok owner ->
                    Remote.Client.bootstrap c ~shard:owner ~client ~roles:[ "Admin" ]
                      ~args:[] (function
                      | Error e -> fail "bootstrap" e
                      | Ok admin ->
                          Remote.Client.bootstrap c ~shard:owner ~client
                            ~roles:[ "Login" ] ~args:[ V.Str u ] (function
                      | Error e -> fail "bootstrap-login" e
                      | Ok login ->
                          Remote.Client.issue c ~client ~role:"User" ~args:[ V.Str u ]
                            ~creds:[ login ] (function
                            | Error e -> fail "issue" e
                            | Ok user ->
                                Remote.Client.validate c ~client ~handle:user
                                  ~need_role:"User" (function
                                  | Error e -> fail "validate" e
                                  | Ok () ->
                                      Remote.Client.fire c ~revoker:admin ~role:"User"
                                        ~args:[ V.Str u ] (function
                                        | Error e -> fail "fire" e
                                        | Ok n ->
                                            Remote.Client.validate c ~client ~handle:user
                                              (function
                                              | Ok () ->
                                                  fail "post-fire validate"
                                                    "certificate still valid after fire"
                                              | Error _ ->
                                                  Printf.printf
                                                    "smoke ok: shard %d, revoked %d, \
                                                     validation now refused\n\
                                                     %!"
                                                    owner n;
                                                  finish 0)))))))));
    let module Engine = Oasis_sim.Engine in
    let engine = Backend.engine backend in
    Engine.schedule engine ~delay:timeout (fun () -> Engine.stop engine);
    Backend.run backend;
    !rc
  in
  let doc = "Drive a running [serve] deployment over loopback" in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const run $ port_base $ op $ client $ role_a $ args_a $ roles_a $ handle_a $ shard_a
      $ timeout_a)

(* --- demo subcommand --- *)

let demo_cmd =
  let run () =
    (* A compressed tour: conference roles, revocation cascade, and a badge
       composite event, in one simulated world. *)
    let module Engine = Oasis_sim.Engine in
    let module Net = Oasis_sim.Net in
    let module Service = Oasis_core.Service in
    let module Group = Oasis_core.Group in
    let module Principal = Oasis_core.Principal in
    let module V = Oasis_rdl.Value in
    let engine = Engine.create () in
    let net = Net.create ~latency:(Net.Fixed 0.01) engine in
    let reg = Service.create_registry () in
    let client_host = Net.add_host net "client" in
    let login =
      Result.get_ok
        (Service.create net (Net.add_host net "lh") reg ~name:"Login"
           ~rolefile:{|
def LoggedOn(u, h) u: String h: String
LoggedOn(u, h) <-
|} ())
    in
    let conf =
      Result.get_ok
        (Service.create net (Net.add_host net "ch") reg ~name:"Conf"
           ~rolefile:{|
Chair <- Login.LoggedOn("jmb", h)
Member(u) <- Login.LoggedOn(u, h)* : (u in staff)*
|} ())
    in
    Group.add (Service.group conf "staff") (V.Str "dm");
    let ph = Principal.Host.create "client" in
    let dom = Principal.Host.boot_domain ph in
    let dm = Principal.Host.new_vci ph dom in
    let dm_login =
      Service.issue_arbitrary login ~client:dm ~roles:[ "LoggedOn" ]
        ~args:[ V.Str "dm"; V.Str "client" ]
    in
    let member = ref None in
    Service.request_entry conf ~client_host ~client:dm ~role:"Member" ~creds:[ dm_login ]
      (function Ok c -> member := Some c | Error e -> print_endline e);
    Engine.run ~until:2.0 engine;
    (match !member with
    | Some c ->
        Printf.printf "dm entered Member: %s\n" (Format.asprintf "%a" Oasis_core.Cert.pp_rmc c);
        Service.revoke_certificate login dm_login;
        Engine.run ~until:5.0 engine;
        (match Service.validate conf ~client:dm c with
        | Error _ -> print_endline "dm logged off at Login -> Member revoked at Conf (cascade)"
        | Ok () -> print_endline "unexpected: still valid")
    | None -> print_endline "entry failed");
    0
  in
  let doc = "Run a small end-to-end demonstration world" in
  Cmd.v (Cmd.info "demo" ~doc) Term.(const run $ const ())

let () =
  let doc = "OASIS: an open architecture for secure interworking services" in
  let info = Cmd.info "oasis_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            rdl_cmd;
            lint_cmd;
            composite_cmd;
            acl_cmd;
            erdl_cmd;
            idl_cmd;
            explore_cmd;
            shard_cmd;
            serve_cmd;
            client_cmd;
            demo_cmd;
          ]))
