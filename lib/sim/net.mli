(** Simulated network: hosts, latency, loss, partitions and RPC.

    Messages are modelled as delayed closures executed "at" the destination;
    the network charges latency, applies loss and partitions, and accounts
    traffic per category in {!Stats}.

    Accounting a message costs one table lookup and builds no string: a
    category name resolves once to its {!type:Stats.counter}, and so do the
    names every call derives from it ([".reply"] on the first reply,
    [".attempt"] on the first retried try).  The failure suffixes
    ([".dead"], [".partitioned"], [".lost"], [".timeout"], [".late_reply"],
    [".giveup"]) are built only on their failure paths, so a category that
    never failed has no such counter.  With no host down, no link or pair
    of hosts cut and no per-link latency set, the fault, partition and
    latency checks each message makes answer without a table probe. *)

type t

type latency = Fixed of float | Uniform of float * float  (** [lo, hi) *)

type host

val create : ?seed:int64 -> ?latency:latency -> Engine.t -> t
val engine : t -> Engine.t
val stats : t -> Stats.t
val prng : t -> Oasis_util.Prng.t

val fault : t -> Fault.t
(** The network's fault plane (host crash/restart, link faults, chaos
    schedules).  Addresses passed to {!Fault} functions are
    {!host_addr}s; the wrappers below cover the common cases. *)

val trace : t -> Trace.t
(** The network's tracer (disabled by default).  {!send} captures the
    ambient {!Trace.ctx} at send time and restores it around the delivery
    closure — and around RPC timeout continuations and retry backoffs — so
    spans started by a message handler join the sender's trace. *)

val add_host : t -> ?clock_rate:float -> ?clock_offset:float -> string -> host
val host_name : host -> string
val host_clock : host -> Clock.t
val host_addr : host -> int
val find_host : t -> string -> host option

val set_link_latency : t -> host -> host -> latency -> unit
(** Override latency on the directed link from the first host to the second. *)

val set_loss : t -> float -> unit
(** Probability in [\[0,1\]] that any message is silently dropped. *)

val partition : t -> host -> host -> unit
(** Block traffic in both directions between the two hosts. *)

val heal : t -> host -> host -> unit

val host_up : t -> host -> bool

val crash_host : t -> host -> unit
(** Fail-stop the host: it emits and receives nothing until restarted.
    Messages sent by, in flight to, or addressed to a dead host are
    dropped and accounted under [category ^ ".dead"].  Subsystems holding
    volatile state for the host (e.g. the event broker) react through
    {!on_crash}. *)

val restart_host : t -> host -> unit

val on_crash : t -> host -> (unit -> unit) -> unit
(** Hook fired when this particular host crashes. *)

val on_restart : t -> host -> (unit -> unit) -> unit

val send : t -> category:string -> ?size:int -> src:host -> dst:host -> (unit -> unit) -> unit
(** One-way message: the closure runs at the destination after link latency,
    unless lost or partitioned. *)

val rpc :
  t ->
  category:string ->
  ?size:int ->
  ?timeout:float ->
  ?attempts:int ->
  ?backoff:float ->
  src:host ->
  dst:host ->
  ((('a, string) result -> unit) -> unit) ->
  (('a, string) result -> unit) ->
  unit
(** Request/response: runs the handler at [dst] after one latency, handing
    it a [reply] closure, and delivers what it replies back to [src] after
    another.  A handler that answers inline is written
    [fun reply -> reply (...)]; one whose answer is itself asynchronous (an
    ack that rides a WAL group commit, a nested RPC to another host) calls
    [reply] later, from any subsequent engine event.  A reply closure
    called twice sends two replies, of which the caller heeds at most one.

    If either leg is lost or the hosts are partitioned, the continuation
    receives [Error "timeout"] after [timeout] seconds (default 2.0).  A
    reply arriving after the timeout already fired is discarded and counted
    as [category ^ ".late_reply"]: the server-side effects stand.

    With [attempts] above 1 (default 1) a timeout is retried after an
    exponential backoff ([backoff * 2^n], default 0.25 s, capped at 8 s)
    plus seeded jitter, up to [attempts] tries; then the continuation gets
    [Error "timeout"].  Application errors are not retried.  Each try
    counts [category ^ ".attempt"], and running out counts
    [category ^ ".giveup"]; a single try counts neither.  A retried handler
    may run more than once, even concurrently with an earlier run still at
    work (a lost reply does not mean a lost request), so it must be
    idempotent under overlap.

    The continuation waits in one mutable cell, which the reply or the
    timeout empties, whichever comes first, so an answered call lets go of
    it as soon as the reply arrives.  The reply also cancels the timeout
    ({!Engine.cancel}), which leaves the queue at once: an answered call
    leaves no event behind.  This holds for {!call} to a host of this
    process too, which runs on [rpc]. *)

val retry_attempts : int
(** The attempt budget (5) of the library's requests that must survive a
    lost message: those that gate no prompt decision and have nothing
    downstream to notice the loss. *)

(** {1 Named-port messaging (backend-portable RPC)}

    The closure-based {!rpc} above only works when both endpoints
    live in one address space.  The named-port surface below carries
    {e serialized} requests instead, so the same calling code runs on the
    sim (in-process delivery through the ordinary latency/loss/fault
    machinery) and on a real backend (framed bytes over a socket to a host
    this process does not own).  Protocol adapters ({!Oasis_core.Remote})
    are written against this surface once and gain both deployments. *)

type remote = {
  rm_call :
    src:string ->
    dst:string ->
    port:string ->
    string ->
    ((string, string) result -> unit) ->
    unit ->
    unit;
}
(** The transport hook a real backend installs: deliver one serialized
    request to a named remote host and eventually hand back one reply.
    The hook owns the wire (framing, connections, incoming dispatch);
    {!call} owns timeouts, late-reply accounting and trace-ctx restoration,
    so both backends present identical RPC semantics.  A transport that
    cannot reach [dst] simply never calls back — the caller's timeout
    fires.  [rm_call] returns a [forget] function, which the caller's
    timeout runs: the transport then drops whatever it holds for the call,
    and a reply arriving later is discarded on the wire side. *)

val set_remote : t -> remote option -> unit

val bind :
  t -> host -> port:string -> (string -> ((string, string) result -> unit) -> unit) -> unit
(** Register the serialized-request handler for [port] at a local host.
    The handler may reply asynchronously, from any later engine event. *)

val dispatch :
  t -> dst:string -> port:string -> string -> ((string, string) result -> unit) -> unit
(** Deliver an incoming serialized request to a locally-bound handler —
    the entry point a backend's socket loop calls for requests arriving
    off the wire.  Unknown [dst]/[port] answers an [Error] rather than
    raising. *)

val call :
  t ->
  category:string ->
  ?size:int ->
  ?timeout:float ->
  ?attempts:int ->
  ?backoff:float ->
  src:host ->
  dst:string ->
  port:string ->
  string ->
  ((string, string) result -> unit) ->
  unit
(** One serialized request/response to the named host.  When [dst] is a
    host of this process, this is {!rpc} onto the port's bound handler
    (sim latency, loss, partitions and crashes all apply); when it is not
    and a remote transport is installed, the request crosses the wire.
    Timeout semantics, [".timeout"] accounting, trace-ctx propagation and
    the retry discipline of [attempts] and [backoff] are those of {!rpc}
    on both paths.  A reply that arrives after the timeout counts as
    [".late_reply"] on the local path only: on the wire the timeout makes
    the transport forget the call, and the transport drops the reply.
    Without a transport, unknown hosts answer
    [Error "unknown host: ..."]. *)
