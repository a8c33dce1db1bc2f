(* Summary arithmetic shared by the runner and its self-test: growable
   sample buffers, the percentile rule, failure counting and the
   run-to-run bound comparison. *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let length t = t.n
  let to_array t = Array.sub t.a 0 t.n
end

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Nearest-rank percentile of a sorted array, [p] in (0, 100]. *)
let nearest_rank s p =
  let n = Array.length s in
  if n = 0 then nan
  else
    let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    s.(max 0 (min (n - 1) (r - 1)))

let median a = nearest_rank (sorted a) 50.0

(* The tail rule: the highest whole percentile, capped at 99, that leaves
   at least ten samples beyond it.  [None] below eleven samples. *)
let tail_percentile n =
  if n < 11 then None else Some (Float.min 99.0 (float_of_int (100 * (n - 10) / n)))

type tail = { t_p : float; t_value : float; t_samples : int }

(* Below eleven samples the tail is the maximum, reported as p100. *)
let tail a =
  let s = sorted a in
  let n = Array.length s in
  match tail_percentile n with
  | Some p -> { t_p = p; t_value = nearest_rank s p; t_samples = n }
  | None -> { t_p = 100.0; t_value = (if n = 0 then nan else s.(n - 1)); t_samples = n }

let mean a =
  if Array.length a = 0 then nan
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* Failure counting.  Every attempted op is answered at most once by its
   continuation; an error, a timeout and a retry giveup all answer it as
   failed, and an op still unanswered when the run ends counts as timed
   out.  A late reply arrives after the op's timeout already answered it,
   so it never adds a failure of its own. *)
module Tally = struct
  type t = { mutable attempted : int; mutable answered : int; mutable failed_answers : int }

  let create () = { attempted = 0; answered = 0; failed_answers = 0 }
  let attempt t = t.attempted <- t.attempted + 1

  let answer t ~ok =
    t.answered <- t.answered + 1;
    if not ok then t.failed_answers <- t.failed_answers + 1

  let late_reply (_ : t) = ()
  let attempted t = t.attempted
  let failed t = t.failed_answers + (t.attempted - t.answered)

  let fail_ratio t =
    if t.attempted = 0 then 0.0 else float_of_int (failed t) /. float_of_int t.attempted
end

(* Python's [statistics.quantiles(values, n=4)] (the default exclusive
   method), which the run-to-run comparison is defined by. *)
let quartiles values =
  let d = sorted values in
  let ld = Array.length d in
  if ld < 2 then invalid_arg "quartiles: need at least two values";
  let m = ld + 1 in
  List.map
    (fun i ->
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0)
    [ 1; 2; 3 ]

(* Python's [statistics.median]: the mean of the middle pair for even n. *)
let py_median values =
  let d = sorted values in
  let n = Array.length d in
  if n = 0 then nan
  else if n mod 2 = 1 then d.(n / 2)
  else (d.((n / 2) - 1) +. d.(n / 2)) /. 2.0

(* Interquartile distance as a share of the median. *)
let spread values =
  match quartiles values with
  | [ q1; _; q3 ] -> (q3 -. q1) /. py_median values
  | _ -> assert false

type better = Lower | Higher

(* How much worse [cur] is than [base], as a share of [base]
   (negative when it is better). *)
let worse_by ~better ~base ~cur =
  match better with
  | Lower -> (cur -. base) /. base
  | Higher -> (base -. cur) /. base

let within_bound ~better ~bound ~base ~cur = worse_by ~better ~base ~cur <= bound

(* The self-test: returns the failed checks (empty when all pass). *)
let self_test () =
  let fails = ref [] in
  let check name ok = if not ok then fails := name :: !fails in
  let close a b = Float.abs (a -. b) < 1e-9 in
  (* percentile rule *)
  check "tail: <11 samples has no percentile" (tail_percentile 10 = None);
  check "tail: 11 samples -> p9" (tail_percentile 11 = Some 9.0);
  check "tail: 100 samples -> p90" (tail_percentile 100 = Some 90.0);
  check "tail: 600 samples -> p98" (tail_percentile 600 = Some 98.0);
  check "tail: 1000 samples -> p99" (tail_percentile 1000 = Some 99.0);
  check "tail: 100000 samples capped at p99" (tail_percentile 100_000 = Some 99.0);
  List.iter
    (fun n ->
      let a = Array.init n (fun i -> float_of_int (n - i)) in
      let t = tail a in
      let beyond = Array.fold_left (fun k x -> if x > t.t_value then k + 1 else k) 0 a in
      check (Printf.sprintf "tail: >=10 beyond at n=%d" n) (beyond >= 10))
    [ 11; 12; 57; 100; 333; 600; 1000; 4321 ];
  let a = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  check "tail: p99 of 1..1000 is 990" (close (tail a).t_value 990.0);
  check "median of 1..1000 is 500" (close (median a) 500.0);
  check "tail: max below 11 samples" (close (tail [| 3.0; 1.0; 2.0 |]).t_value 3.0);
  (* failure counting *)
  let t = Tally.create () in
  for _ = 1 to 10 do
    Tally.attempt t
  done;
  for _ = 1 to 7 do
    Tally.answer t ~ok:true
  done;
  Tally.answer t ~ok:false (* application error *);
  Tally.answer t ~ok:false (* retry giveup *);
  (* the tenth is never answered: a timeout at the end of the run *)
  Tally.late_reply t;
  Tally.late_reply t;
  check "fail: errors, giveups and unanswered count" (Tally.failed t = 3);
  check "fail: late replies not double-counted" (close (Tally.fail_ratio t) 0.3);
  check "fail: empty tally" (close (Tally.fail_ratio (Tally.create ())) 0.0);
  (* run-to-run bound comparison, against Python's statistics module:
     quantiles([1..10], n=4) = [2.75, 5.5, 8.25], median 5.5 *)
  let ten = Array.init 10 (fun i -> float_of_int (i + 1)) in
  (match quartiles ten with
  | [ q1; q2; q3 ] -> check "quartiles 1..10" (close q1 2.75 && close q2 5.5 && close q3 8.25)
  | _ -> check "quartiles arity" false);
  check "spread 1..10" (close (spread ten) (5.5 /. 5.5));
  (match quartiles [| 4.0; 1.0; 3.0; 2.0; 5.0 |] with
  | [ q1; q2; q3 ] -> check "quartiles 1..5" (close q1 1.5 && close q2 3.0 && close q3 4.5)
  | _ -> check "quartiles arity" false);
  check "bound: lower-is-better within" (within_bound ~better:Lower ~bound:0.1 ~base:100.0 ~cur:109.0);
  check "bound: lower-is-better beyond" (not (within_bound ~better:Lower ~bound:0.1 ~base:100.0 ~cur:111.0));
  check "bound: higher-is-better within" (within_bound ~better:Higher ~bound:0.1 ~base:100.0 ~cur:91.0);
  check "bound: higher-is-better beyond" (not (within_bound ~better:Higher ~bound:0.1 ~base:100.0 ~cur:89.0));
  check "bound: improvement always within" (within_bound ~better:Higher ~bound:0.0 ~base:100.0 ~cur:150.0);
  List.rev !fails
