(* Self-test of the benchmark's summary arithmetic. *)

let () =
  match Perfbench_summary.Summary.self_test () with
  | [] -> print_endline "perfbench summary self-test: ok"
  | fails ->
      List.iter (fun f -> prerr_endline ("FAIL " ^ f)) fails;
      exit 1
