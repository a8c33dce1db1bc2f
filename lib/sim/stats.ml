(* Latency histograms use fixed log-spaced buckets: bucket [i] holds samples
   of at most [1e-6 * 2^i] seconds (the last bucket is unbounded).  Fixed
   boundaries keep observation O(log range), merging trivial, and the
   percentile error bounded by one octave — plenty for the order-of-magnitude
   questions the experiments ask. *)

let lat_buckets = 64

let bucket_bound i = 1e-6 *. (2.0 ** float_of_int i)

let bucket_of v =
  let rec go i bound = if i >= lat_buckets - 1 || v <= bound then i else go (i + 1) (bound *. 2.0) in
  go 0 1e-6

type lat = { hist : int array; mutable n : int; mutable sum : float; mutable lmax : float }

(* One category's counters.  [touched] says whether anything updated them
   since the counter was created or last reset: a handle can be resolved
   long before (or without) its first update, and only updated categories
   are listed. *)
type counter = {
  mutable count : int;
  mutable bytes : int;
  mutable vmax : int;
  mutable lat : lat option;  (* allocated on first [sample_latency] *)
  mutable touched : bool;
}

module Tbl = Hashtbl.Make (String)

type t = counter Tbl.t

type row = {
  r_cat : string;
  r_count : int;
  r_bytes : int;
  r_max : int;
  r_samples : int;
  r_p50 : float;
  r_p99 : float;
  r_lat_max : float;
}

let create () : t = Tbl.create 32

let counter t cat =
  match Tbl.find t cat with
  | c -> c
  | exception Not_found ->
      let c = { count = 0; bytes = 0; vmax = 0; lat = None; touched = false } in
      Tbl.add t cat c;
      c

let bump c n =
  c.touched <- true;
  c.count <- c.count + n

let bump_bytes c n =
  c.touched <- true;
  c.bytes <- c.bytes + n

let sample c n =
  c.touched <- true;
  c.count <- c.count + 1;
  c.bytes <- c.bytes + n;
  if n > c.vmax then c.vmax <- n

let sample_latency c v =
  let v = if v < 0.0 || Float.is_nan v then 0.0 else v in
  c.touched <- true;
  let l =
    match c.lat with
    | Some l -> l
    | None ->
        let l = { hist = Array.make lat_buckets 0; n = 0; sum = 0.0; lmax = 0.0 } in
        c.lat <- Some l;
        l
  in
  let b = bucket_of v in
  l.hist.(b) <- l.hist.(b) + 1;
  l.n <- l.n + 1;
  l.sum <- l.sum +. v;
  if v > l.lmax then l.lmax <- v

let incr t ?(n = 1) cat = bump (counter t cat) n
let add_bytes t cat n = bump_bytes (counter t cat) n
let observe t cat n = sample (counter t cat) n
let observe_latency t cat v = sample_latency (counter t cat) v

let count t cat = match Tbl.find_opt t cat with Some c -> c.count | None -> 0
let max_of t cat = match Tbl.find_opt t cat with Some c -> c.vmax | None -> 0
let bytes t cat = match Tbl.find_opt t cat with Some c -> c.bytes | None -> 0

let lat_of t cat =
  match Tbl.find_opt t cat with Some { lat = Some l; _ } -> Some l | _ -> None

let latency_samples t cat = match lat_of t cat with Some l -> l.n | None -> 0
let latency_max t cat = match lat_of t cat with Some l -> l.lmax | None -> 0.0

let percentile t cat p =
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p must be in [0, 100]";
  match lat_of t cat with
  | None -> 0.0
  | Some l when l.n = 0 -> 0.0
  | Some l ->
      let rank = Stdlib.max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int l.n))) in
      let rec go i seen =
        let seen = seen + l.hist.(i) in
        if seen >= rank || i = lat_buckets - 1 then bucket_bound i else go (i + 1) seen
      in
      go 0 0

(* In place, so a handle resolved before the reset still counts into its
   category after it. *)
let reset t =
  Tbl.iter
    (fun _ c ->
      c.count <- 0;
      c.bytes <- 0;
      c.vmax <- 0;
      c.lat <- None;
      c.touched <- false)
    t

let categories t =
  Tbl.fold (fun k c acc -> if c.touched then k :: acc else acc) t []
  |> List.sort String.compare

let row t cat =
  {
    r_cat = cat;
    r_count = count t cat;
    r_bytes = bytes t cat;
    r_max = max_of t cat;
    r_samples = latency_samples t cat;
    r_p50 = percentile t cat 50.0;
    r_p99 = percentile t cat 99.0;
    r_lat_max = latency_max t cat;
  }

let report t = List.map (row t) (categories t)

let to_json t =
  let module J = Oasis_util.Json in
  let row_json r =
    let base = [ ("count", J.Int r.r_count); ("bytes", J.Int r.r_bytes); ("max", J.Int r.r_max) ] in
    let latency =
      if r.r_samples = 0 then []
      else
        let mean =
          match lat_of t r.r_cat with
          | Some l when l.n > 0 -> l.sum /. float_of_int l.n
          | _ -> 0.0
        in
        [
          ( "latency",
            J.Obj
              [
                ("samples", J.Int r.r_samples);
                ("p50", J.Float r.r_p50);
                ("p99", J.Float r.r_p99);
                ("mean", J.Float mean);
                ("max", J.Float r.r_lat_max);
              ] );
        ]
    in
    (r.r_cat, J.Obj (base @ latency))
  in
  J.to_string (J.Obj (List.map row_json (report t)))
