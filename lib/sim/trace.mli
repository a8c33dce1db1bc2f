(** Causal spans over simulated time.

    The paper's revocation claim is about {e latency}: how long from a
    credential being invalidated at its issuer to every dependent service
    having recomputed.  Flat counters ({!Stats}) cannot answer that, so this
    module provides lightweight causal tracing: a {!span} is a named
    interval of sim time belonging to a trace; a {!ctx} is the portable part
    of a span (trace id, span id, root start time) that rides messages —
    {!Net.send} captures the ambient context at send time and restores it
    around delivery, and the event broker carries one per coalesced item, so
    causality survives batching, retries and heartbeat coalescing.

    Tracing is {b disabled by default} and, when disabled, every operation
    is a no-op returning a shared null span — instrumentation must not
    change behaviour or message counts of un-traced runs.  Finished spans
    land in a bounded ring buffer (oldest evicted, counted by {!dropped});
    the clock is the deterministic sim clock, so traces replay identically
    for a given seed. *)

type t

type span
(** A named interval; open until {!finish}ed. *)

type ctx
(** Portable causal context: trace id + span id + the true time the trace's
    root span started, so any hop can compute its distance from the root. *)

val create : (unit -> float) -> t
(** [create clock] — [clock] is the deterministic time source (e.g.
    [fun () -> Engine.now engine]).  The finished-span ring buffer holds
    4096 spans, and drops the oldest past that. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val clear : t -> unit
(** Drop all finished spans and the dropped counter (open spans too). *)

val start : t -> ?parent:ctx -> string -> span
(** Open a span.  [parent] defaults to the ambient context; with neither, a
    fresh trace is rooted here.  Returns the null span when disabled. *)

val finish : t -> span -> unit
(** Stamp the end time and move the span into the ring buffer.  Idempotent;
    no-op on the null span. *)

val add_attr : span -> string -> string -> unit

val ctx_of : span -> ctx

val current : t -> ctx option
(** The ambient context ([None] when disabled or outside any span). *)

val with_ctx : t -> ctx option -> (unit -> 'a) -> 'a
(** Run the closure with the ambient context replaced, restoring on exit
    (exception-safe).  This is what message-delivery wrappers use. *)

val with_span : t -> ?parent:ctx -> string -> (unit -> 'a) -> 'a
(** [start] + make it ambient + run + [finish], exception-safe. *)

val spans : t -> span list
(** Finished spans, oldest first. *)

val open_spans : t -> span list
(** Spans started but not yet finished (unordered) — a non-empty result
    after a burst has settled usually means lost instrumentation. *)

val dropped : t -> int
(** Finished spans evicted by ring-buffer overflow since the last {!clear}. *)

val span_name : span -> string
val span_trace : span -> int
val span_id : span -> int
val span_parent : span -> int option
val span_start : span -> float
val span_end : span -> float
(** [nan] while open. *)

val span_attrs : span -> (string * string) list
val duration : span -> float

val since_origin : t -> ctx -> float
(** Time elapsed since the context's trace root opened — the end-to-end
    latency of the causal chain at this hop. *)

val origin : ctx -> float

val to_json : t -> string
(** Snapshot of finished spans as one JSON object
    [{"dropped":n,"spans":[{"trace","span","parent","name","start","end","attrs"}...]}].
    Hand-rolled (no JSON dependency); strings are escaped. *)
