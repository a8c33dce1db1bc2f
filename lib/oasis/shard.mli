(** Sharded credential plane: one logical service partitioned across N
    {!Service} replicas on distinct sim hosts.

    The paper's coherence machinery already does the hard part: cross-shard
    parent/child edges in the credential-record DAG are ordinary
    external/surrogate records (§4.9.1), kept coherent by [ModifiedBatch]
    digests and the §4.10 staleness/reread protocol, so a revocation
    cascade crosses shard boundaries exactly the way it crosses service
    boundaries today.  This module adds only {e placement} and a
    {e router}:

    - a consistent-hash ring (SipHash over the role-instance routing key,
      configurable shard count and virtual nodes) decides which shard owns
      each role instance's records;
    - a front-end router host forwards role-entry, fire/re-hire and
      certificate-validation requests to the owning shard over a retried
      {!Oasis_sim.Net.rpc}, whose reply closure lets fire/re-hire acks ride
      the owning shard's WAL group commit rather than be answered early;
    - every shard journals to its own [lib/store] WAL/snapshot, so shards
      crash and recover independently.

    Shards are wired as {!Service.add_sibling} pairs: unqualified rolefile
    references accept sibling-issued memberships, and sibling certificates
    are accepted as revoker credentials after validation at their issuer.
    The router is itself a simulated host, not a replicated load balancer
    (see DESIGN.md, substitutions): it holds no credential state, so its
    loss is availability, never safety.

    With [replicas = K > 1] each shard is additionally a {!Replica} group:
    K durable service instances under the shard's one logical name, the
    primary shipping its WAL to backups and acking only at a majority, with
    deterministic lease/epoch failover.  The router re-resolves the owning
    group's {e current} primary at forward time, so requests follow a
    failover transparently; while a promotion is replaying, forwards are
    dropped (not answered) and the client-side retry re-delivers them.

    Correctness story: the differential harness in [test/test_shard.ml]
    runs identical seeded workloads against 1-shard and N-shard
    deployments (and against K = 1 vs K = 3 replica groups) and asserts
    observable equivalence under chaos faults; the [cross_shard_fire] and
    [replica_failover] model-checker scenarios explore shard/replica
    crashes in the middle of revocation cascades exhaustively. *)

type value = Oasis_rdl.Value.t

(** The consistent-hash ring, separated from any deployment so the
    placement function can be property-tested (and evolved) in isolation.
    Each shard contributes [vnodes] SipHash points; a key is owned by the
    first point clockwise from its own hash.  Adding or removing one shard
    therefore moves only the key ranges adjacent to that shard's points —
    at most ~[1/N] of the keyspace, bounded by [2/N] in the tests — and
    every other key keeps its owner, which is what makes resharding a
    record migration rather than a full reshuffle. *)
module Ring : sig
  type t

  val make : ?vnodes:int -> shards:int -> unit -> t
  (** A ring of shard ids [0 .. shards-1], [vnodes] (default 64) virtual
      points each.  Deterministic: same parameters, same placement. *)

  val shard_count : t -> int
  val vnodes : t -> int

  val shard_ids : t -> int list
  (** Live shard ids, ascending (contiguous only until {!remove_shard}). *)

  val owner : t -> string -> int
  (** The shard id owning a routing key. *)

  val add_shard : t -> t
  (** A new ring with one more shard (fresh id); existing keys move to the
      newcomer only where its points land. *)

  val remove_shard : t -> int -> t
  (** A new ring without [id]; only keys owned by [id] move.
      @raise Invalid_argument if [id] is not in the ring (a silent no-op
      here used to mask resharding bugs) or if removing it would empty
      the ring. *)
end

val route_key : role:string -> args:value list -> string
(** The routing key for a role instance: role name plus marshalled
    arguments.  Routing by instance (not by principal) lets one
    principal's roles land on different shards, so revocation cascades
    genuinely cross shard boundaries. *)

type t
(** A sharded deployment: router host, N shard services (named
    [name#0 .. name#N-1], each on its own host [h.name.sK]), and the
    ring binding them. *)

val create :
  Oasis_sim.Net.t ->
  Service.registry ->
  name:string ->
  rolefile:string ->
  shards:int ->
  ?vnodes:int ->
  ?heartbeat:float ->
  ?durable:bool ->
  ?snapshot_every:int ->
  ?groups:(string * string list) list ->
  ?replicas:int ->
  unit ->
  (t, string) result
(** Build the deployment: one router host plus [shards] shard services,
    every shard loaded with the same [rolefile] (and the same [groups],
    seeded as string members), all pairs wired as siblings.  [durable]
    gives each shard its own simulated disk (WAL + snapshots;
    [snapshot_every] is the checkpoint floor, see {!Journal.create});
    shards then crash and recover independently under the fault plane.  [shards = 1] is the unsharded
    twin the differential tests compare against: same code path, same
    naming, one shard.

    [replicas] (default 1) sets the replication factor K of each shard's
    {!Replica} group; K > 1 requires [durable] (backups journal the
    shipped stream) and disables snapshot compaction on group members (the
    stream is in global record coordinates).  Replica [j] of shard [i]
    runs on host [h.name.sI] for [j = 0] (the historical name, so K = 1 is
    byte-identical to the pre-replication plane) and [h.name.sI.rJ]
    otherwise.  See {!Replica.create} for the failover clock.  Use odd K.

    Compound certificates (§4.3) are disabled on every shard: folding
    same-argument roles into one record assumes all of a principal's roles
    live in one table, which is exactly what instance-sharding gives up.
    Each entered role gets its own certificate. *)

val name : t -> string
val ring : t -> Ring.t
val shard_count : t -> int
val router_host : t -> Oasis_sim.Net.host
val shards : t -> Service.t array
(** Current primaries, in shard order (a fresh array per call: primaries
    change across failovers, so do not cache across engine events). *)

val shard : t -> int -> Service.t
(** Shard [i]'s current primary. *)

val replica_groups : t -> Replica.t array
val replica_group : t -> int -> Replica.t
(** Shard [i]'s replica group (trivial when [replicas = 1]). *)

val owner_index : t -> role:string -> args:value list -> int
val owner : t -> role:string -> args:value list -> Service.t
(** The shard (current primary) owning a role instance (placement
    introspection for tests and scenarios). *)

val request_entry :
  t ->
  client_host:Oasis_sim.Net.host ->
  client:Principal.vci ->
  role:string ->
  args:value list ->
  ?creds:Cert.rmc list ->
  ((Cert.rmc, string) result -> unit) ->
  unit
(** Enter a role instance via the router, which forwards to the owning
    shard.  [args] is required (it is the routing key).  Clients should
    present exactly the credentials for the instance being entered;
    entry runs at the owning shard, validating cross-shard prerequisites
    at their issuers like any external credential (§2.10). *)

val revoke_role_instance :
  t ->
  client_host:Oasis_sim.Net.host ->
  revoker:Cert.rmc ->
  role:string ->
  args:value list ->
  ((int, string) result -> unit) ->
  unit
(** Fire via the router: the owning shard blacklists the instance,
    persists the fact, and acks only once durable; the cascade reaches
    other shards through the notification/reread machinery.  The revoker
    certificate may come from any sibling shard. *)

val reinstate_role_instance :
  t ->
  client_host:Oasis_sim.Net.host ->
  revoker:Cert.rmc ->
  role:string ->
  args:value list ->
  ((unit, string) result -> unit) ->
  unit

val validate :
  t ->
  client_host:Oasis_sim.Net.host ->
  client:Principal.vci ->
  ?need_role:string ->
  Cert.rmc ->
  ((unit, string) result -> unit) ->
  unit
(** Validate a certificate via the router: forwarded (one retried
    {!Oasis_sim.Net.rpc} hop) to the shard that issued it, which is the
    only table where its record reference means anything.

    If the issuing shard stays unreachable past the forward budget, the
    router backs off one broker heartbeat, re-resolves the shard's primary
    (it may have failed over) and retries once; only then does it answer
    [Error "fail-closed: ..."] — an explicit, deliberate verdict meaning
    "could not be checked, treat as invalid", distinguishable from both a
    transport error and a genuine validation failure.  Validation never
    fails {e open}. *)

val exit_role :
  t -> client_host:Oasis_sim.Net.host -> Cert.rmc -> ((unit, string) result -> unit) -> unit

val blacklisted : t -> role:string -> args:value list -> bool
(** §4.11 introspection at the owning shard (direct, for tests). *)

val fingerprint : t -> int64
(** Combined fingerprint over every shard's protocol-visible state, in
    shard order; folded into model-checker state hashes.  For [replicas =
    1] this is byte-for-byte the pre-replication fingerprint (persisted
    schedules replay unchanged); for K > 1 it additionally folds every
    member's service fingerprint and the group's {!Replica.fingerprint}. *)

val durable_flush : t -> unit
(** Force every replica's WAL to disk (test determinism helper). *)
