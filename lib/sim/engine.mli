(** Discrete-event simulation engine.

    The paper evaluated OASIS on a live testbed; we substitute a deterministic
    simulator (see DESIGN.md, Substitutions).  Virtual time is a float in
    seconds.  All services, networks and workloads schedule closures here.

    Every scheduling entry point accepts an optional [tag] — a short string
    classifying the pending event ([d:<host>] message delivery, [t:<host>]
    timer, [s:<host>] stable-storage flush, [f:] fault injection, [a:<name>]
    scenario action).  Tags cost nothing in normal runs; the model checker
    ({!Oasis_mc.Explore}) reads them to decide which pending events commute
    and to label counterexample schedules. *)

type t

type source = {
  src_now : unit -> float;
  src_wait : until:float option -> bool;
}
(** An external substrate driving the engine in {e real} time — the seam the
    pluggable backend plugs into ({!Oasis_backend.Backend_unix}).  [src_now]
    is a monotonic clock in seconds; [src_wait ~until] blocks until roughly
    the absolute instant [until] (in [src_now]'s timebase) or until external
    work (socket readiness) was dispatched, and returns [false] only when no
    external work can ever arrive again — which lets {!run} terminate.
    Without a source the engine is the deterministic discrete-event
    simulator: virtual time jumps from deadline to deadline. *)

val create : ?source:source -> unit -> t
(** [create ()] is the deterministic simulator, byte-identical to the
    pre-backend engine.  [create ~source ()] runs the same timer queue
    against the external clock and waiter. *)

val now : t -> float
(** Current time: virtual by default, [src_now ()] under a source.  This is
    the {e single} time source for the whole stack — traces, latency
    histograms and host clocks all read it — so wall-clock runs report
    wall-clock latencies with no further threading. *)

val real_time : t -> bool
(** Whether a source is installed (time is wall-clock, not virtual). *)

val schedule : t -> ?tag:string -> delay:float -> (unit -> unit) -> unit
(** Run the closure [delay] seconds from now.  Negative delays are clamped to
    zero (fire this instant, after currently-queued same-time events). *)

val schedule_at : t -> ?tag:string -> at:float -> (unit -> unit) -> unit

type timer
(** A cancellable scheduled action. *)

val timer : t -> ?tag:string -> delay:float -> (unit -> unit) -> timer

val cancel : timer -> unit
(** The timer will not fire.  Cancelling it again, or after it fired,
    leaves the queue alone.  A cancelled timer stays queued until its
    deadline passes, unless cancelled timers come to fill more than half
    the queue and number more than {!compact_floor}: then all of them are
    dropped in one O(n) rebuild, which leaves the order of the live events
    unchanged.  A dropped timer no longer advances virtual time to its
    deadline. *)

val compact_floor : int
(** The number of cancelled timers the queue may hold before they are
    dropped early (512), so small worlds never compact. *)

val cancelled : timer -> bool

val every : t -> ?tag:string -> period:float -> (unit -> unit) -> timer
(** Periodic action, [period] seconds apart (which must be positive);
    cancelling the returned timer stops the series. *)

val step : t -> bool
(** Execute the next pending event; [false] if the queue is empty.  With a
    scheduler installed (see {!set_scheduler}), the scheduler picks which
    pending event runs instead of the earliest-deadline default. *)

val run : ?until:float -> t -> unit
(** Drain the event queue, or stop once the next event lies beyond [until]
    (advancing [now] to [until] in that case; [now] is never moved
    backwards).  Under a source, the loop instead fires timers as the real
    clock passes their deadlines, waits in [src_wait] between deadlines
    (dispatching I/O), and returns when [until] is reached, {!stop} is
    called from a handler, or the queue is empty and the source reports no
    further external work.

    {!step} without a scheduler, and the real-time loop, take events without
    allocating: they read the earliest deadline and take its event off the
    flat queue ({!Oasis_util.Pqueue.min_prio},
    {!Oasis_util.Pqueue.take_min}).  Scheduling an event still allocates its
    timer record, its closure and its deadline as a boxed float, and taking
    it boxes the deadline again for the clock. *)

val stop : t -> unit
(** Make a running real-time {!run} loop return after the current handler.
    No effect on the virtual-time loop (which always drains). *)

val pending : t -> int
(** Queued events, including cancelled timers not yet dropped (see
    {!cancel}). *)

val pending_tagged : t -> string -> int
(** Live (non-cancelled) pending events whose tag starts with the given
    prefix.  Used by tests asserting that crash/restart cycles do not leak
    timers: a component whose periodic timers are static has a constant
    tagged-pending count at quiescence. *)

(** {1 Single-step scheduling (model checking)} *)

type event = { ev_at : float; ev_seq : int; ev_tag : string }
(** A live pending entry: its deadline, its queue-lifetime-unique insertion
    sequence (stable across deterministic replays of the same prefix) and
    its tag. *)

type scheduler = event list -> int option
(** Consulted by {!step} with the live pending events in earliest-first
    order; returns the [ev_seq] to execute next, or [None] for the default
    (earliest) choice.  Executing an event whose deadline lies beyond the
    earliest one advances virtual time to that deadline; earlier events then
    run late, at the advanced clock — this is exactly the adversarial
    reordering the model checker explores. *)

val events : t -> event list
(** The live (non-cancelled) pending events, earliest first. *)

val set_scheduler : t -> scheduler option -> unit
(** Install or remove the single-step scheduler hook. *)
