(** Per-category traffic, operation and latency accounting.

    Several experiments (E2, E6, E7, E11, E16 in DESIGN.md / EXPERIMENTS.md)
    compare message counts, bytes and latency distributions between schemes;
    every network send and every interesting operation increments a named
    counter here, and latency samples land in fixed log-bucket histograms. *)

type t

type row = {
  r_cat : string;
  r_count : int;
  r_bytes : int;
  r_max : int;  (** largest {!observe} value (0 if none) *)
  r_samples : int;  (** latency samples (0 if none) *)
  r_p50 : float;
  r_p99 : float;
  r_lat_max : float;
}

val create : unit -> t
val incr : t -> ?n:int -> string -> unit
val add_bytes : t -> string -> int -> unit

val observe : t -> string -> int -> unit
(** [observe t cat n] records one sample of value [n] under [cat]: the
    category's count becomes the number of samples, its bytes the running
    sum, and [max_of] the largest sample.  Used as a poor-man's gauge for
    batch sizes alongside the plain message counters. *)

val observe_latency : t -> string -> float -> unit
(** [observe_latency t cat seconds] records one latency sample into the
    category's histogram: 64 fixed log-spaced buckets, bucket [i] holding
    samples up to [1e-6 * 2^i] seconds, so percentiles are exact to within
    one octave.  Negative and NaN samples are clamped to 0.  Independent of
    the count/bytes/max counters of the same category. *)

val percentile : t -> string -> float -> float
(** [percentile t cat p] ([p] in [\[0, 100\]]) — upper bound of the bucket
    containing the [p]-th percentile latency sample, in seconds; [0.0] with
    no samples. *)

val latency_samples : t -> string -> int
val latency_max : t -> string -> float
(** Exact largest latency sample (not bucketed); [0.0] with no samples. *)

val count : t -> string -> int

val max_of : t -> string -> int
(** Largest value passed to {!observe} for the category (0 if none). *)

val bytes : t -> string -> int
val reset : t -> unit

val categories : t -> string list
(** Sorted list of categories seen since the last reset. *)

val report : t -> row list
(** One {!row} per category, sorted by category — counts, bytes, the
    {!observe} max, and the latency summary (sample count, p50/p99, max). *)

val to_json : t -> string
(** Snapshot as one JSON object keyed by category:
    [{"cat":{"count":..,"bytes":..,"max":..,"latency":{"samples","p50","p99","mean","max"}}}]
    (the [latency] member only for categories with samples). *)
