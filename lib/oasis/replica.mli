(** Per-shard primary/backup replication: K durable {!Service} hosts, one
    logical service, zero-cost crashes.

    A replica group runs K full services under ONE service name (so they
    share name-derived signing secrets: certificates issued by any epoch's
    primary verify at every later primary) on K distinct hosts.  The
    primary serves every request, and its WAL — in {e global} record
    coordinates, compaction disabled (see {!Journal.set_quorum}) — is the
    group's record stream, held nowhere else: the primary keeps only each
    record's frame offset in it, and ships a batch over the simulated
    network as one byte range of checksummed frames ({!Oasis_util.Frame})
    read from its device.  One name means one WAL file name, and so one
    frame key: a backup checks each frame where it lies, appends it to its
    own WAL unchanged ({!Journal.follower_append}), and acks only once it
    is durable there.  Client acks ({!Journal.ack}) wait for a majority
    write quorum (⌈(K+1)/2⌉): losing any minority of replicas — including
    the primary and its disk — loses no acknowledged operation.

    {b Failover} is deterministic lease/epoch promotion on the sim clock:
    the primary heartbeats every 0.2 s; a backup whose lease
    ([0.45 + 0.15·index] s, staggered so candidates do not race) expires
    promotes itself via an epoch compare-and-swap — fetch the durable log
    from every reachable peer, require a majority (which must intersect
    every ack quorum), bump the epoch, adopt the winning log, replay it
    ({!Service.recover}) and re-register under the logical name.  Every
    promotion stamps an {e epoch barrier} record into the stream, and the
    winning log is the greatest (last barrier, length) — VSR's view-change
    rule — so a dead epoch's unacked tail on a rejoining disk can never
    outrank a log carrying later acked records; shipping then repairs such
    tails by content comparison against the log a backup re-read after
    its crash or the promotion, which it keeps only until shipping has
    re-walked it ({!Journal.log_rewrite}).  Double promotion in one epoch
    commits exactly once; a candidate that dies mid-replay is superseded
    at the next lease expiry.  A restarted ex-primary re-promotes itself
    through the same path, re-fetching any acked suffix its crash lost.

    Members never cancel or re-arm timers: each has one static periodic
    timer whose primary/backup behaviour is decided by data per tick, so
    crash/restart cycles cannot leak timers (the PR 1 heartbeat-leak
    class), which [test_shard.ml] asserts via
    {!Oasis_sim.Engine.pending_tagged}.

    Fault model: fail-stop crashes and restarts.  Partitions {e between
    group members} are out of scope (the harnesses never create them);
    under crashes only, member logs cannot diverge.  [K = 1] is a trivial
    group: no hooks, no timers, byte-identical to an unreplicated
    service. *)

type t

val create : Oasis_sim.Net.t -> members:Service.t array -> t
(** Wrap [members] (same name, distinct hosts; index 0 is the initial
    primary, and only it should be registry-registered) into a group.
    Raises [Invalid_argument] when the members' service names differ:
    their WALs would frame under different keys, and a backup appends the
    primary's frames as they lie.  For K >= 2 every member needs a journal
    (raises [Invalid_argument] otherwise); [create] installs the
    quorum-ack and ship hooks on the
    journals, disables per-member auto-recovery, and arms the static
    heartbeat/lease timers: a 0.2 s heartbeat, a 0.45 s lease and a
    0.15 s stagger — failover in under a second of sim time.  Use odd K:
    an even K tolerates no more crashes than K-1. *)

val primary : t -> Service.t
(** The current epoch's primary — resolve per request, never cache across
    engine events (the router does exactly this). *)

val primary_index : t -> int
val epoch : t -> int

val ready : t -> bool
(** False from a promotion commit until its replay finishes; the router
    drops (does not answer) forwarded requests while false, so the
    client-side retry re-forwards to the settled primary. *)

val replica_count : t -> int
val members : t -> Service.t list
val member : t -> int -> Service.t

val promotions : t -> int
(** Committed promotions so far (the idempotence tests count these). *)

val stream : t -> string list
(** The authoritative record stream, oldest first (epoch barriers
    included), read from the primary's WAL, its buffered tail included.
    At quiescence every live member's durable log
    ({!Journal.log_records}) is a prefix of it — the log-shipping
    invariant; a freshly rejoined member may briefly hold a dead epoch's
    tail until shipping repairs it. *)

val promote : t -> member:int -> from_epoch:int -> unit
(** Begin promoting [member] against the epoch it observed.  A no-op
    unless the group's epoch still equals [from_epoch] when the fetch
    completes (the CAS), the candidate is up, and a majority of the group
    is reachable.  Exposed for tests; the lease timers and restart hooks
    call it internally. *)

val on_promote : t -> (Service.t -> unit) -> unit
(** Called (in registration order) each time a promotion's replay
    completes, with the new primary — how a scenario rebinds names that
    were resolved to a service value at build time. *)

val fingerprint : t -> int64
(** Replication-plane state hash (epoch, primary, readiness, stream and
    ack cursors); folded into {!Shard.fingerprint} for K >= 2 so the model
    checker distinguishes failover states. *)
