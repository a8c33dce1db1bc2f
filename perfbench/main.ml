(* The benchmark runner.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --self-test

   Prints a report, then as its last line one JSON object:
   {"correct", "attempted", "failed", "metrics"} — the end-to-end metrics
   with [--trace 0], the per-layer metrics with [--trace 1].  Exits 1 when
   a correctness check fails, 2 on a usage error. *)

open Common

let workloads = [ "wire-churn"; "wire-validate"; "sim-session" ]

let usage () =
  prerr_endline
    ("usage: main.exe --workload (" ^ String.concat "|" workloads
   ^ ") --seed N --seconds S --trace 0|1\n       main.exe --self-test");
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false and self_test = ref false in
  let rec parse = function
    | "--workload" :: v :: r ->
        workload := v;
        parse r
    | "--seed" :: v :: r ->
        (match int_of_string_opt v with Some n -> seed := n | None -> usage ());
        parse r
    | "--seconds" :: v :: r ->
        (match float_of_string_opt v with Some x when x > 0.0 -> seconds := x | _ -> usage ());
        parse r
    | "--trace" :: v :: r ->
        (match v with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
        parse r
    | "--self-test" :: r ->
        self_test := true;
        parse r
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* The summary arithmetic checks itself on every run. *)
  (match Summary.self_test () with
  | [] -> if !self_test then (print_endline "summary self-test: ok"; exit 0)
  | fails ->
      List.iter (fun f -> prerr_endline ("summary self-test FAIL: " ^ f)) fails;
      exit 1);
  if not (List.mem !workload workloads) then usage ();
  Printf.printf "workload %s  seed %d  seconds %g  trace %d\n%!" !workload !seed !seconds (if !trace then 1 else 0);
  let o =
    match !workload with
    | "wire-churn" -> Wire.run Wire.Churn ~seed:!seed ~seconds:!seconds ~trace:!trace
    | "wire-validate" -> Wire.run Wire.Validate ~seed:!seed ~seconds:!seconds ~trace:!trace
    | _ -> Simsess.run ~seed:!seed ~seconds:!seconds ~trace:!trace
  in
  let left = leftover_dirs () in
  let checks = o.o_checks @ List.map (fun d -> "data directory left behind: " ^ d) left in
  List.iter print_endline o.o_report;
  let metrics = if !trace then o.o_layer else o.o_e2e in
  print_endline (if !trace then "per-layer metrics:" else "end-to-end metrics:");
  List.iter (fun m -> Printf.printf "  %-28s %14.4f %s\n" m.m_name m.m_value m.m_unit) metrics;
  List.iter (fun c -> Printf.printf "CHECK FAILED: %s\n" c) checks;
  let correct = checks = [] in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int (max 1 o.o_attempted));
            ("failed", J.Int o.o_failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun m -> (m.m_name, J.Obj [ ("value", J.Float m.m_value); ("unit", J.Str m.m_unit) ]))
                   metrics) );
          ]));
  exit (if correct then 0 else 1)
