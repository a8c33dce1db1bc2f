(** An OASIS service: rolefile, role-entry engine, certificate issue and
    validation, delegation/election, revocation — chapters 3 and 4.

    A service lives on a simulated host, owns a credential-record table, a
    rolling secret table, a set of local groups and extension functions, and
    an event broker over which it publishes [Modified(crr, state)] events so
    that {e other} services holding certificates it issued can cascade
    revocation (§4.9).  Client-facing operations travel over the simulated
    network; inter-service certificate validation is an RPC to the issuing
    service (§2.10), with the result cached locally as an {e external
    record} kept coherent by event notification and marked [Unknown] when
    heartbeats stop (§4.10). *)

type value = Oasis_rdl.Value.t

type t

(** The name service / trader through which services resolve each other. *)
type registry

val create_registry : unit -> registry
val find_service : registry -> string -> t option

val services : registry -> t list
(** Every registered service, sorted by name. *)

val create :
  Oasis_sim.Net.t ->
  Oasis_sim.Net.host ->
  registry ->
  name:string ->
  ?rolefile_id:string ->
  rolefile:string ->
  ?funcs:(string * (value list -> (value, string) result)) list ->
  ?compound_certificates:bool ->
  ?fixpoint_entry:bool ->
  ?heartbeat:float ->
  ?batch_notifications:bool ->
  ?disk:Oasis_store.Disk.t ->
  ?snapshot_every:int ->
  ?register:bool ->
  unit ->
  (t, string) result
(** Parse and type-check the rolefile, run the lint gate, and install the
    service.

    [rolefile_id] (default ["main"]) names the rolefile in the
    certificates this service issues; a certificate presented under
    another id is out of context.  [funcs] are the extension functions the
    rolefile may call, besides the built-in [unixacl] and [acl].

    The lint gate runs static analysis at creation.  The per-rolefile
    analyzer ({!Oasis_rdl.Analyze}) always runs; when the service joins
    the registry, the federation-wide codes of {!Federation_lint}
    (OASIS001-008) run too, over the registered services plus this one,
    keeping only the diagnostics anchored at this service.
    Error-severity diagnostics fail [create] (never-fires statements,
    unsatisfiable constraints, unknown extension functions, arity or type
    errors, a credential cycle no statement bootstraps, a reference to a
    role its service does not define); warnings are logged via {!Logs}.

    [compound_certificates]: fold same-argument roles entered in one
    request into one certificate (§4.3; default true).  [fixpoint_entry]:
    ablation switch — iterate statement application to a fixpoint instead
    of the paper's single in-order pass (default false).  [heartbeat]:
    period of this service's broker heartbeats (default 1s).
    [batch_notifications] (default true): coalesce credential-record
    change notifications into one ModifiedBatch digest per peer link,
    flushed on the broker heartbeat tick (bounded by one heartbeat of
    extra latency); with [false], every record change is its own Modified
    event, as in the unbatched scheme benchmarked by e15.  The
    signature-verification cache holds at most 1024 entries
    (two-generation eviction).

    [disk] enables the durable plane ({!Journal}): the §4.11 hire/fire
    databases and issued certificates (with their dependency lists) are
    journalled on the given stable-storage device and replayed after a
    host crash+restart — restored certificates resolve again, externals
    re-mirror at [Unknown] until the reread machinery heals them, and
    fired instances stay fired.  A checkpoint starts once the log has
    grown by as many records as the last snapshot held, and never before
    [snapshot_every] (default 128) appends: the floor, which is the whole
    cadence while the live state stays under it (see {!Journal.create}).
    The broker's retained event log rides the same device.  Without
    [disk], a crash loses all service state.

    [register] (default true): install the service in [registry] under its
    name.  Backup replicas of a replica group (see {!Replica}) pass
    [false] — they share the primary's name and must not shadow it; a
    promotion calls {!reregister}. *)

val name : t -> string
val host : t -> Oasis_sim.Net.host

val add_sibling : t -> string -> unit
(** Declare another registered service a {e sibling shard} of the same
    logical service (same rolefile, disjoint slice of the credential
    records — see {!Shard}).  Unqualified role references in this
    service's rolefile then also accept memberships validated at the
    sibling, and sibling-issued certificates are accepted as fire/re-hire
    revoker credentials (checked at their issuer over the §2.10
    validation RPC and mirrored as external records, since credential
    record references are table-relative).  Symmetric sharding wires
    every pair both ways. *)

val table : t -> Credrec.table
val broker : t -> Oasis_events.Broker.server
val rolefile : t -> Oasis_rdl.Ast.rolefile
val registry : t -> registry

val group : t -> string -> Group.t
(** Find or create a local group. *)

val role_bits : t -> (string * int) list
(** The service's role→bit configuration mapping (§4.3). *)

val roll_secret : t -> unit
(** Install a fresh signing secret (§5.5.1); certificates signed with
    retired secrets stop verifying. *)

(** {1 Validation (§4.2)} *)

type failure =
  | Wrong_client  (** presented by a client other than its holder *)
  | Forged  (** signature check failed *)
  | Wrong_context  (** issued by another service or rolefile *)
  | Insufficient  (** valid but does not embody the needed role *)
  | Revoked  (** credential record is False *)
  | Unknown_state  (** possibly revoked (network failure); fails closed *)

val pp_failure : Format.formatter -> failure -> unit

val validate :
  t -> client:Principal.vci -> ?need_role:string -> Cert.rmc -> (unit, failure) result
(** Full local validation: holder binding, signature (cached when enabled),
    context, optional rights check, credential record state.  Fraudulent and
    erroneous failures are audited separately from revocation (§4.2). *)

val validate_for_peer :
  t -> Cert.rmc -> (string list * value list * Credrec.cref, failure) result
(** The inter-service validation interface (§2.10): returns role names,
    arguments and the CRR; also arms [Modified] event notification for that
    record. *)

(** {1 Role entry} *)

val request_entry :
  t ->
  client_host:Oasis_sim.Net.host ->
  client:Principal.vci ->
  role:string ->
  ?args:value list ->
  ?creds:Cert.rmc list ->
  ?delegation:Cert.delegation ->
  ((Cert.rmc, string) result -> unit) ->
  unit
(** Ask to enter [role], supplying credentials (certificates from this or
    other services) and optionally a delegation certificate.  Statements are
    applied in rolefile order; intermediate roles are entered automatically;
    the first suitable membership is returned (§3.2.2, fig 3.2). *)

(** {1 Delegation and revocation (§4.4–4.5)} *)

val request_delegation :
  t ->
  client_host:Oasis_sim.Net.host ->
  delegator:Principal.vci ->
  using:Cert.rmc ->
  role:string ->
  required:(string * string * value list) list ->
  ?expires_in:float ->
  ?revoke_on_exit:bool ->
  ((Cert.delegation * Cert.revocation, string) result -> unit) ->
  unit
(** The delegator must hold (via [using]) the elector role of an election
    statement for [role].  [required] names the roles the candidate must
    hold ([Value.Str "*"] is a wildcard argument).  [expires_in] arms
    automatic revocation (§4.4); [revoke_on_exit] ties the delegation to the
    delegator's own membership record. *)

val request_revocation :
  t ->
  client_host:Oasis_sim.Net.host ->
  Cert.revocation ->
  ((unit, string) result -> unit) ->
  unit
(** Uses the revocation certificate: checks the delegator still holds the
    delegating role, then invalidates the delegation record (cascades). *)

val delegate_revocation :
  t ->
  client_host:Oasis_sim.Net.host ->
  rcert:Cert.revocation ->
  to_cert:Cert.rmc ->
  ((Cert.revocation, string) result -> unit) ->
  unit
(** Delegate the {e right to revoke} (§4.4): re-issue a revocation
    certificate so that the holder of [to_cert] may exercise it.  The fixed
    policy applies: the recipient must themselves be a member of the
    delegating (elector) role; the new certificate is bound to the
    recipient's membership record, so it dies if they lose the role. *)

val exit_role :
  t ->
  client_host:Oasis_sim.Net.host ->
  Cert.rmc ->
  ((unit, string) result -> unit) ->
  unit
(** Voluntary exit (e.g. logoff): invalidates the certificate's record. *)

(** {1 Role-based revocation (§3.3.2, §4.11)} *)

val revoke_role_instance :
  t ->
  client_host:Oasis_sim.Net.host ->
  revoker:Cert.rmc ->
  role:string ->
  args:value list ->
  ((int, string) result -> unit) ->
  unit
(** A holder of the revoker role named by the [|>] clause revokes every
    live membership of [role(args)] and blacklists the instance ("fire").
    Returns the number of memberships revoked. *)

val reinstate_role_instance :
  t ->
  client_host:Oasis_sim.Net.host ->
  revoker:Cert.rmc ->
  role:string ->
  args:value list ->
  ((unit, string) result -> unit) ->
  unit
(** Remove the blacklist entry ("re-hire", §4.11). *)

(** {1 Interworking (§4.12)} *)

val issue_arbitrary :
  t -> client:Principal.vci -> roles:string list -> args:value list -> Cert.rmc
(** Issue a certificate outside RDL policy — the bootstrap mechanism used by
    password and loader services, and by adapters for legacy schemes. *)

val issue_with_record :
  t -> client:Principal.vci -> roles:string list -> args:value list ->
  crr:Credrec.cref -> Cert.rmc
(** Like {!issue_arbitrary} but embedding a caller-built credential record —
    used by embedding systems (the MSSA custodes) that assemble their own
    membership-rule graphs (§5.5.2). *)

val import_remote_record :
  t -> peer:string -> remote:Credrec.cref -> Credrec.cref
(** The external-record mechanism (§4.9.1) for embedding systems: a local
    surrogate for a record held by [peer], kept coherent by [Modified]
    event notification and marked [Unknown] on missed heartbeats. *)

val mint_delegation_record :
  t ->
  delegator_crr:Credrec.cref ->
  ?expires_in:float ->
  ?revoke_on_exit:bool ->
  unit ->
  Credrec.cref * Cert.revocation
(** Create a delegation credential record plus its matching revocation
    certificate, for embedding systems that implement their own election
    policy (e.g. MSSA per-file delegation, §5.4.3). *)

val revoke_certificate : t -> Cert.rmc -> unit
(** Invalidate the certificate's credential record directly. *)

(** {1 Auditing and accounting (§4.13)} *)

type audit_kind = Fraud | Erroneous | Revocation_denied | Entry | Delegation | Revocation | Exit

type audit_entry = { at : float; kind : audit_kind; detail : string }

val audit_capacity : int
(** The audit log keeps the newest 4,096 entries; an older one is
    overwritten, so a service that runs for ever holds a bounded log. *)

val audit_log : t -> audit_entry list
(** The newest {!audit_capacity} entries at most, newest first. *)

val crypto_checks : t -> int
(** Signature computations performed (cache misses). *)

val cache_hits : t -> int

val sig_cache_size : t -> int
(** Entries currently held by the (capped) signature cache; hit/miss
    counters also land in the net's {!Oasis_sim.Stats} under
    [oasis.sigcache.*]. *)

val residual_cache_size : t -> int
(** Entries in the compiled-residual cache ([oasis.residual.*] counters). *)

val gc : t -> int
(** Run a credential-record GC sweep now; returns slots reclaimed.  The
    service's own state keyed by records lets go of what the sweep freed:
    group interesting records, mirrored externals (and an unbatched
    issuer's per-record registration) and the §4.11 revoker arms of dead
    memberships.  Records with notify hooks (every one a peer validated),
    and records an entry request still holds between its credential
    checks, are never freed. *)

val sweep_floor : int
(** A running service sweeps from its broker's heartbeat tick, once the
    records allocated since the last sweep reach the live records that
    sweep left, and never before 4,096 of them: the floor.  Sweep work per
    allocation is then bounded, the table's live set follows what is
    live rather than what was ever issued, and a world that allocates
    fewer records than the floor never sweeps. *)

val on_sweep : t -> (unit -> unit) -> unit
(** Run [f] after every sweep, for state kept outside the service (such
    as {!Remote}'s certificate handles) that must let go of the records
    the sweep freed. *)

(** {1 Durability} *)

val journal : t -> Journal.t option
(** The durable plane, when the service was created with [disk].  A
    replica group ({!Replica}) ships, repairs and acks through it. *)

val durable_issued : t -> int
(** Issued records currently alive in the journal's mirror (0 without
    [disk]). *)

val blacklisted : t -> role:string -> args:value list -> bool
(** Is the role instance currently fired (§4.11)? *)

val recover : ?on_done:(unit -> unit) -> t -> unit
(** The restart hook: replay the journal and re-materialise issued state.
    Run automatically on host restart when [disk] was given (unless
    {!set_auto_recover} turned it off); exposed for tests and for the
    replica promotion protocol, whose [on_done] fires once the replay has
    actually run — never when a racing crash aborted it. *)

val set_auto_recover : t -> bool -> unit
(** Whether the host-restart hook replays the journal automatically
    (default true).  Replica-group members turn this off: a restarted
    member recovers through the epoch/promotion protocol, which must fetch
    any missing log suffix from its peers {e before} replaying. *)

val reregister : t -> unit
(** (Re-)install this service in the registry under its name — how a
    promoted backup takes over the logical service identity. *)

val fingerprint : t -> int64
(** Deterministic hash of the service's protocol-visible state: the
    credential-record table ({!Credrec.fingerprint}), the §4.11 blacklist,
    the pending invalidation digest, and — when durable — the journal's
    issued mirror and the stable-storage device bytes.  Equal fingerprints
    mean two runs reached equivalent service states; the model checker
    ({!Oasis_mc.Explore}) prunes interleavings on it. *)
