(** Fault plane: host crash/restart lifecycle and link faults.

    The dissertation reasons explicitly about servers that die (§4.10: a
    server that misses enough acknowledgements "can assume [the client] is
    no longer running") but the simulator historically only modelled loss
    and partitions.  This module gives every host an up/down lifecycle and
    every link an independent fault state, both consulted by {!Net.send}
    and {!Net.rpc}; traffic addressed to (or emitted by) a dead host is
    dropped and accounted under [category ^ ".dead"] by {!Net}.

    Hosts are identified by their {!Net} address (an int) so this module
    carries no dependency on {!Net}; use the wrappers on {!Net} when a
    [Net.host] is at hand.

    Crash semantics are fail-stop: a crashed host emits and receives
    nothing.  What a crash does to {e state} is decided by the subsystems
    that own it, via {!on_crash}/{!on_restart} hooks (the event broker,
    for example, wipes its volatile per-session delivery state but keeps
    its retained-event log, modelling stable storage). *)

type t

type action =
  | Crash of int  (** host address *)
  | Restart of int
  | Link_down of int * int  (** symmetric: both directions fail *)
  | Link_up of int * int

val create : ?seed:int64 -> Engine.t -> Stats.t -> t
(** The seed drives {!chaos} schedules and is independent of the network's
    message-level PRNG, so fault schedules are reproducible on their own. *)

val up : t -> int -> bool
val link_ok : t -> int -> int -> bool

val crash : t -> int -> unit
(** Take the host down (idempotent).  Fires {!on_crash} hooks and counts
    ["fault.crash"] in {!Stats}. *)

val restart : t -> int -> unit
(** Bring the host back up (idempotent).  Fires {!on_restart} hooks and
    counts ["fault.restart"]. *)

val link_down : t -> int -> int -> unit
val link_up : t -> int -> int -> unit

val on_crash : t -> (int -> unit) -> unit
(** Hook called with the address of every host that crashes. *)

val on_restart : t -> (int -> unit) -> unit

val apply : t -> action -> unit

val script : t -> (float * action) list -> unit
(** Schedule a deterministic fault script: each action fires at its
    absolute virtual time (clamped to now if already past). *)

val chaos : t -> hosts:int list -> mtbf:float -> mttr:float -> until:float -> unit
(** Seeded random crash/restart cycles for each listed host: exponential
    time-between-failures with mean [mtbf], exponential repair time with
    mean [mttr].  Every host is guaranteed up again by [until].  The whole
    schedule is drawn eagerly from this module's own PRNG, so it depends
    only on the seed, not on simulation interleaving. *)
