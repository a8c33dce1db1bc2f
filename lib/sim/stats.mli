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
  r_max : int;  (** largest sampled value (0 if none) *)
  r_samples : int;  (** latency samples (0 if none) *)
  r_p50 : float;
  r_p99 : float;
  r_lat_max : float;
}

val create : unit -> t

(** {1 Counter handles}

    A path that updates one category again and again (every simulated
    message, every log append) resolves the name once to its counter and
    updates the handle, which costs no hashing.  A handle stays valid for
    the life of its [t], across {!reset}. *)

type counter

val counter : t -> string -> counter
(** The category's counter, created on first use.  Resolving a handle is
    not an update: a category whose counter was never updated is not
    listed by {!categories}, {!report} or {!to_json}. *)

val bump : counter -> int -> unit
(** Add to the count. *)

val bump_bytes : counter -> int -> unit
(** Add to the byte total. *)

val sample : counter -> int -> unit
(** One sample of a value: the count becomes the number of samples, the
    bytes their running sum, and {!max_of} the largest.  Used as a
    poor-man's gauge for batch sizes alongside the plain message
    counters. *)

val sample_latency : counter -> float -> unit
(** One latency sample, in seconds, into the category's histogram: 64
    fixed log-spaced buckets, bucket [i] holding samples up to
    [1e-6 * 2^i] seconds, so percentiles are exact to within one octave.
    Negative and NaN samples are clamped to 0.  Independent of the
    count/bytes/max counters of the same category. *)

(** {1 By name}

    Each resolves the category and updates its counter. *)

val incr : t -> ?n:int -> string -> unit
(** {!bump}, by [n] (default 1). *)

val add_bytes : t -> string -> int -> unit
(** {!bump_bytes}. *)

val observe : t -> string -> int -> unit
(** {!sample}. *)

val observe_latency : t -> string -> float -> unit
(** {!sample_latency}. *)

(** {1 Reading and reset} *)

val percentile : t -> string -> float -> float
(** [percentile t cat p] ([p] in [\[0, 100\]]) — upper bound of the bucket
    containing the [p]-th percentile latency sample, in seconds; [0.0] with
    no samples. *)

val latency_samples : t -> string -> int
val latency_max : t -> string -> float
(** Exact largest latency sample (not bucketed); [0.0] with no samples. *)

val count : t -> string -> int

val max_of : t -> string -> int
(** Largest value sampled for the category (0 if none). *)

val bytes : t -> string -> int

val reset : t -> unit
(** Zero every counter in place.  Handles resolved before the reset stay
    valid and count into their categories after it. *)

val categories : t -> string list
(** Sorted list of the categories updated since the last reset (or since
    [create]), an update of 0 included. *)

val report : t -> row list
(** One {!row} per category of {!categories}, sorted by category —
    counts, bytes, the {!sample} max, and the latency summary (sample
    count, p50/p99, max). *)

val to_json : t -> string
(** Snapshot as one JSON object keyed by category:
    [{"cat":{"count":..,"bytes":..,"max":..,"latency":{"samples","p50","p99","mean","max"}}}]
    (the [latency] member only for categories with samples). *)
