(** Event broker: server-side signalling and client-side sessions (§6.2.2,
    §6.8, §4.10).

    A {!server} lives on a simulated host and signals events to connected
    {!session}s according to their registered templates.  The transport
    implements the paper's robustness machinery:

    - every notification carries a per-session stream sequence number; gaps
      are detected by the client, which nacks and triggers selective resend
      from the server's unacked buffer;
    - a {e heartbeat protocol}: the server sends a heartbeat every [t]
      seconds carrying an {e event-horizon timestamp} (a lower bound on the
      stamps of events yet to be signalled, §6.8.2); the client acknowledges
      every [i] heartbeats so the server can discard delivered state;
    - a client that sees neither events nor heartbeats for 1.5·[t] marks the
      session {e stale} and surfaces it (OASIS turns this into credential
      records entering the [Unknown] state, §4.10);
    - {e pre-registration} and {e retrospective registration} (§6.8.1): the
      server retains recent events for a bounded period, for every client
      at once, so no client declares its interest in advance; a
      registration with [~since] immediately replays retained matching
      events from that time before going live, closing the registration
      race;
    - {e crash recovery}: a host crash ({!Oasis_sim.Net.crash_host}) wipes
      the server's volatile per-session delivery state but not its
      retained-event log (stable storage) or its monotone identifier
      counters.  A client whose session stays stale for several heartbeat
      periods assumes the server died, reconnects with backed-off retries,
      and re-registers every template retrospectively from the last
      horizon that covered it (the session horizon once the replaced
      incarnation had confirmed the registration, its earlier floor
      otherwise) — so no retained event is lost, and per-registration
      duplicate suppression (by monotone event seq) keeps delivery
      exactly-once across replays. *)

type server
type session
type registration

(** {1 Server side} *)

val create_server :
  Oasis_sim.Net.t ->
  Oasis_sim.Net.host ->
  name:string ->
  ?heartbeat:float ->
  ?retention:float ->
  ?horizon_lag:float ->
  ?coalesce:bool ->
  ?disk:Oasis_store.Disk.t ->
  unit ->
  server
(** Defaults: heartbeat 1.0 s, retention 10 s of events for retrospective
    registration, horizon lag 0 (events are signalled with monotone
    stamps), coalescing off.  A client acks every 4 heartbeats, and the
    server drops a session that goes more than 32 heartbeats without an
    ack.

    With [~disk], the retained-event log is durable: every signalled
    event is appended to a write-ahead log ([broker.<name>.wal]) on the
    given simulated device.  A host crash then drops the in-memory
    retained queue and a restart rebuilds it from the durable bytes —
    events whose group commit had not completed by the crash are
    genuinely lost, which is the honest durability window of group
    commit.  The log is compacted (atomically rewritten to the retained
    suffix) every 256 signals.  Without [~disk] the retained log is
    assumed to survive crashes by fiat, as before.

    With [~coalesce:true], matched events are not delivered immediately:
    they are buffered per session and flushed on the next heartbeat tick as
    a single message that both delivers the batch and carries the
    heartbeat, so steady-state traffic is O(sessions) per period instead of
    O(events).  The batch is buffered under a normal stream sequence
    number, so gap detection, nack/resend and exactly-once duplicate
    suppression are unchanged; latency is bounded by one heartbeat
    period. *)

val server_name : server -> string
val server_host : server -> Oasis_sim.Net.host

val server_heartbeat : server -> float
(** The server's heartbeat period (peers pace retries off it). *)

val signal : server -> ?stamp:float -> string -> Event.value list -> Event.t
(** [signal srv name params] stamps (from the host clock unless [stamp] is
    given), sequences, retains and delivers the event to all matching
    sessions.  Returns the concrete event. *)

val set_admission : server -> (credentials:string list -> bool) -> unit
(** Admission control applied at session establishment (§6.2.2); the
    default admits everyone.  Event security (ch. 7) installs real checks. *)

val set_registration_filter :
  server -> (credentials:string list -> Event.template -> Event.template option) -> unit
(** Policy hook consulted at registration time: may narrow the template or
    reject it ([None]).  ERDL preprocessing (fig 7.1) plugs in here. *)

val server_horizon : server -> float
(** Current event-horizon timestamp the server would advertise. *)

val on_heartbeat_tick : server -> (unit -> unit) -> unit
(** Run [f] at the top of every heartbeat tick (host up, server running),
    before per-session coalesce buffers are flushed — anything [f] signals
    on a coalescing server piggybacks on that same tick's heartbeat
    message.  Services use this to flush their invalidation digests. *)

val sessions : server -> int

val server_buffered : server -> int
(** Deliveries sitting in per-session resend buffers, awaiting
    acknowledgement (pruned by client acks). *)

val shutdown_server : server -> unit
(** Stop the server: cancels its heartbeat timer (so the simulation can
    drain), drops all sessions and refuses new connections. *)

val fingerprint : server -> int64
(** Deterministic hash of the broker's protocol-visible state: monotone
    counters, the retained-event log, and every live session's stream
    position, unacked resend buffer and coalesce queue.  The model checker
    folds it into world state hashes for interleaving pruning. *)

(** {1 Client side} *)

val connect :
  Oasis_sim.Net.t ->
  Oasis_sim.Net.host ->
  server ->
  ?credentials:string list ->
  on_result:((session, string) result -> unit) ->
  unit ->
  unit
(** Establish a session (one network round trip; admission control runs at
    the server). *)

val register :
  session ->
  ?since:float ->
  Event.template ->
  (Event.t -> unit) ->
  registration
(** Register interest.  With [~since], performs retrospective registration:
    retained events with [stamp >= since] matching the template are
    delivered (in stamp order) before live ones.  The callback runs on the
    client host after notification latency.  Duplicate-suppressed. *)

val deregister : registration -> unit

val horizon : session -> float
(** Latest event-horizon timestamp received from this server (the client's
    knowledge of "no more events before ..."). *)

val stale : session -> bool

val on_horizon : session -> (float -> unit) -> unit
(** Called whenever the session's horizon advances. *)

val on_staleness : session -> (bool -> unit) -> unit
(** Called with [true] when the session goes stale (missed heartbeats) and
    [false] on recovery. *)

val close : session -> unit

val session_server : session -> server
