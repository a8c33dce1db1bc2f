(* Helpers shared by the workloads: clocks, per-run data directories,
   GC accounting, seeded input generation and result records. *)

module Summary = Perfbench_summary.Summary
module Samples = Summary.Samples
module Prng = Oasis_util.Prng
module J = Oasis_util.Json

let wall () = Unix.gettimeofday ()

(* ---- data directories ------------------------------------------- *)

let rec rm_rf p =
  match Sys.is_directory p with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
  | false -> Sys.remove p
  | exception Sys_error _ -> ()

(* All run data lives under [.perfbench_data] in the working directory
   (the checkout root); each deployment gets its own directory, removed
   when the deployment is torn down, also on failure. *)
let data_root () = Filename.concat (Sys.getcwd ()) ".perfbench_data"

let dir_counter = ref 0

let fresh_dir tag =
  let root = data_root () in
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  incr dir_counter;
  let d = Filename.concat root (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) !dir_counter) in
  rm_rf d;
  Sys.mkdir d 0o755;
  d

let with_dir tag f =
  let d = fresh_dir tag in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

(* Removes the root when no run directory is left in it; reports any
   directory that outlived its deployment. *)
let leftover_dirs () =
  let root = data_root () in
  if not (Sys.file_exists root) then []
  else begin
    let mine = Printf.sprintf "-%d-" (Unix.getpid ()) in
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    let left = List.filter (fun f -> contains f mine) (Array.to_list (Sys.readdir root)) in
    (try if Sys.readdir root = [||] then Sys.rmdir root with Sys_error _ -> ());
    left
  end

(* ---- GC ---------------------------------------------------------- *)

type gc_mark = { g_words : float; g_major : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { g_words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words; g_major = s.Gc.major_collections }

(* Compacts the heap and returns the words still live, in MB: the memory
   the deployment retains, read at a fixed point of the run.  The
   compaction also gives every timed phase the same starting heap. *)
let live_heap_mb () =
  Gc.compact ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.0

(* ---- host speed -------------------------------------------------- *)

(* The benchmark runs on shared hosts whose speed drifts as other tenants
   load them: between runs minutes apart, the workloads' rates moved by up
   to 30% on the reference host, a 2-core x86-64 VM.  [host_work] is fixed
   work of the kind the system under test does, built from the standard
   library alone (string keys in a [Hashtbl] and a [Map], thousands of
   them kept past minor collections), so it shares no code with it; the
   drift moved its time with the workloads'.  A memory-latency chase
   through a 64 MB table and a register-only loop tracked little of it.
   A speed-bound figure is stated at the reference host's speed: a time
   divided by the slowdown, a capacity rate multiplied. *)
module String_map = Map.Make (String)

(* Wall time of the work over [keys] keys. *)
let host_work ~keys =
  let t0 = wall () in
  let key i = Printf.sprintf "k%d.%d" (i * 7919 mod 5003) i in
  let h = Hashtbl.create 16 and m = ref String_map.empty in
  for i = 0 to keys - 1 do
    let k = key i in
    Hashtbl.replace h k (i, [ i; i + 1 ]);
    if i land 3 = 0 then m := String_map.add k i !m;
    if i land 7 = 0 then Hashtbl.remove h (key (i - 8))
  done;
  ignore (Sys.opaque_identity (Hashtbl.length h + String_map.cardinal !m));
  wall () -. t0

(* [host_work ~keys:20_000]'s median wall time on the reference host. *)
let reference_host_work = 0.020

(* A slowdown sample light enough (about 5 ms) to take inside a timed
   phase: a quarter of the reference work, scaled to it. *)
let host_sample () = 4.0 *. host_work ~keys:5_000 /. reference_host_work

(* The slowdown read between phases, after a full major collection so
   that the heap a workload leaves behind does not change the reading. *)
let host_slowdown () =
  Gc.full_major ();
  Summary.median (Array.init 3 (fun _ -> host_work ~keys:20_000)) /. reference_host_work

(* ---- seeded inputs ---------------------------------------------- *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Zipf over ranks [0, n) with exponent [s]: a cumulative table sampled
   by binary search. *)
type zipf = float array

let zipf ~n ~s : zipf =
  let c = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) s);
    c.(i) <- !acc
  done;
  Array.map (fun x -> x /. !acc) c

let zipf_draw (c : zipf) rng =
  let u = Prng.float rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length c - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if c.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* ---- windowed summaries ------------------------------------------ *)

(* Ops completed in a timed phase, each with its completion instant and
   latency.  The phase is cut into fixed windows; a run reports the
   median over its full windows of each window's rate and median, which
   keeps a burst of outside interference from setting the figure. *)
module Windows = struct
  type t = { at : Samples.t; lat : Samples.t }

  let create () = { at = Samples.create (); lat = Samples.create () }

  let add t ~at ~lat =
    Samples.add t.at at;
    Samples.add t.lat lat

  let known l = List.filter (fun x -> not (Float.is_nan x)) l
  let latencies t = Array.of_list (known (Array.to_list (Samples.to_array t.lat)))

  type summary = { rate : float; p50 : float; tail : float; windows : int }

  (* Windows of [width] from [t0] up to [until]; an op whose latency is
     nan counts towards its window's rate only.  [tail] is the median of
     each window's tail (see [Summary.tail]). *)
  let summarize t ~t0 ~until ~width =
    let at = Samples.to_array t.at and lat = Samples.to_array t.lat in
    let full = max 1 (int_of_float ((until -. t0) /. width)) in
    let buckets = Array.make full [] in
    Array.iteri
      (fun i a ->
        let k = int_of_float ((a -. t0) /. width) in
        if k >= 0 && k < full then buckets.(k) <- lat.(i) :: buckets.(k))
      at;
    let per f = Summary.median (Array.map (fun l -> f (Array.of_list (known l))) buckets) in
    {
      rate = Summary.median (Array.map (fun l -> float_of_int (List.length l) /. width) buckets);
      p50 = per Summary.median;
      tail = per (fun a -> (Summary.tail a).Summary.t_value);
      windows = full;
    }
end

(* ---- results ---------------------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

(* What one workload run hands back to [Main]. *)
type outcome = {
  o_attempted : int;
  o_failed : int;
  o_checks : string list;  (** failed correctness checks *)
  o_e2e : metric list;
  o_layer : metric list;  (** per-layer metrics; only filled by traced runs *)
  o_report : string list;  (** human-readable lines printed before the result *)
}

let ms x = x *. 1000.0

(* "name  p50 / tail (pNN, n samples)" for the report. *)
let lat_line name unit_scale unit a =
  if Array.length a = 0 then Printf.sprintf "  %-22s (no samples)" name
  else begin
    let t = Summary.tail a in
    Printf.sprintf "  %-22s p50 %10.3f %s   p%.0f %10.3f %s   (%d samples)" name
      (Summary.median a *. unit_scale) unit t.Summary.t_p (t.Summary.t_value *. unit_scale) unit
      t.Summary.t_samples
  end

(* The report's figure block: each figure by name and unit, with all its
   digits. *)
let figure_line name unit v = Printf.sprintf "  %-22s %.17g %s" name v unit

(* A timing as its [NAME_p50_SUFFIX] and [NAME_p99_SUFFIX] figures.  The
   tail figure is the highest percentile, capped at p99, with ten samples
   beyond it; its actual rank and the sample count follow it. *)
let timing_figures name suffix unit scale a =
  let p50 = name ^ "_p50_" ^ suffix and p99 = name ^ "_p99_" ^ suffix in
  if Array.length a = 0 then [ Printf.sprintf "  %s, %s: no samples" p50 p99 ]
  else begin
    let t = Summary.tail a in
    [
      figure_line p50 unit (Summary.median a *. scale);
      Printf.sprintf "%s   (p%.0f of %d samples)" (figure_line p99 unit (t.Summary.t_value *. scale)) t.Summary.t_p
        t.Summary.t_samples;
    ]
  end

let top_heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* The latency profile above the median, for reading where a tail comes
   from. *)
let profile_line name unit_scale unit a =
  let s = Summary.sorted a in
  if Array.length s = 0 then Printf.sprintf "  %-22s (no samples)" name
  else
    Printf.sprintf "  %-22s %s  max %.3f %s" name
      (String.concat "  "
         (List.map
            (fun p -> Printf.sprintf "p%g %.3f" p (Summary.nearest_rank s p *. unit_scale))
            [ 90.0; 95.0; 98.0; 99.0; 99.9 ]))
      (s.(Array.length s - 1) *. unit_scale) unit

(* Median wall time of [reps] runs of [f], in seconds per call of the
   inner loop of [iters]. *)
let time_per_call ?(reps = 5) ~iters f =
  let runs =
    Array.init reps (fun _ ->
        let t0 = wall () in
        for _ = 1 to iters do
          f ()
        done;
        (wall () -. t0) /. float_of_int iters)
  in
  Summary.median runs
