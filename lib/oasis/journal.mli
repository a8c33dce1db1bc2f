(** A service's durable plane: the §4.11 hire/fire database and the
    certificates the service has issued, journalled to a write-ahead log on
    stable storage and checkpointed by snapshots.

    The journal hides a record format and a compaction algorithm.  Each
    transition is one log record; what a certificate's validity depends on
    is recorded as a small dependency list, so recovery can re-materialise
    the credential-record subgraph backing issued certificates.  Delegation
    ties and group-derived residuals are not persisted: a recovered record
    that depended on them reads the dangling reference as permanently
    False (fail closed, per the reference-magic convention).

    A journal is built from its dependencies — the device, the service
    name that names its files, the checkpoint cadence and the service's
    blacklist table, which the fire/re-hire records mirror — and never
    calls into its service.  The only hooks it takes later are a replica
    group's: the write-quorum ack and the ship observer, part of the
    replication surface at the end, which {!Replica} drives. *)

type t

(** What an issued certificate's record depends on. *)
type dep =
  | Ext of string * string  (** issuing peer service, remote record key *)
  | Loc of string  (** key of a local record (itself issued, so journalled) *)

val create :
  Oasis_store.Disk.t ->
  name:string ->
  snapshot_every:int ->
  blacklist:(string * string, unit) Hashtbl.t ->
  t
(** The journal of service [name]: files [svc.<name>.wal] and
    [svc.<name>.snap] on the device.  A checkpoint (snapshot, then log
    compaction) starts once the appends since the last one reach
    [max snapshot_every S], where S is the record count of the last
    snapshot written or replayed: [snapshot_every] is the floor, and a
    live set under it checkpoints every [snapshot_every] appends.  Snapshot
    records written per append stay at most one whatever the live set,
    the log stays near [max snapshot_every S] records, and recovery
    replays at most about 2S + [snapshot_every].  [blacklist] is the
    service's §4.11 table of fired (role, marshalled args) instances:
    checkpoints serialise it and replay rebuilds it. *)

(** {1 Journalled transitions} *)

val fire : t -> string * string -> unit
(** Log that the instance was blacklisted. *)

val hire : t -> string * string -> unit
(** Log that the instance's blacklist entry was dropped (re-hire). *)

val issue :
  t -> key:string -> deps:dep list -> rbrs:(string * string * string) list -> unit
(** Log a certificate issued over record [key] (marshalled), with what its
    validity depends on and its §4.11 revoker arms as
    (role, marshalled args, revoker role).  A record already journalled
    (re-validation of an outstanding certificate) is not logged again. *)

val invalidate : t -> string -> unit
(** Log that issued record [key] died.  Only live issued records are
    logged: an invalidation of anything else cascades from a logged fact at
    recovery or is reconstructed conservatively (dangling reads False). *)

val ack : t -> (unit -> unit) -> unit
(** Run the callback once every record appended so far is durable: on the
    local device, or on a write quorum of the replica group once
    {!set_quorum} was called.  Fire and re-hire acknowledgements ride
    this, so a crash that loses the record also swallows the ack. *)

(** {1 The issued mirror} *)

val live_issued : t -> string list
(** Keys of the issued records still alive. *)

val live_count : t -> int

val iter_issued : t -> (string -> unit) -> unit
(** Every issued key in the mirror, alive or dead. *)

val reset : t -> unit
(** A crash: the in-memory mirror and checkpoint bookkeeping are lost (the
    blacklist is the service's to clear).  The device keeps its bytes. *)

(** {1 Recovery} *)

val stored_bytes : t -> int
(** Durable bytes of snapshot plus log: what a recovery scan reads. *)

val scan_delay : t -> float
(** Simulated time of that scan ({!Oasis_store.Disk.scan_delay}). *)

val replay : t -> int
(** Rebuild the mirror and the blacklist from the snapshot, then the whole
    log; returns the number of records applied.  Every record is an
    idempotent upsert, so an untruncated log over a snapshot is harmless,
    and unknown record tags (a replica group's epoch barriers) are
    skipped. *)

type entry =
  | Dead
  | Live of dep list * (string * string * string) list
      (** the dependency list and revoker arms it was issued with *)

val issued_keys : t -> string list
(** Every issued key in the mirror, sorted. *)

val lookup : t -> string -> entry option

(** {1 Replication (driven by {!Replica})}

    A replica group runs K services under one name.  The primary's log is
    the group's record stream; backups journal shipped copies of it. *)

val set_quorum : t -> ((unit -> unit) -> unit) -> unit
(** From now on {!ack} waits for the given write-quorum hook instead of
    the local group commit.  Also stops checkpoint-and-compact: every
    member's log must stay a prefix of the stream in global record
    coordinates (see DESIGN.md). *)

val set_ship : t -> (string -> unit) option -> unit
(** Install (or clear) the observer of local appends
    ({!Oasis_store.Wal.on_append}).  Only the group's primary carries one. *)

val sync : t -> (unit -> unit) -> unit
(** Run the callback once everything appended to the local log so far is
    durable. *)

val follower_append : t -> string -> unit
(** Journal one record shipped from the primary's stream: same framing and
    group commit as a local append, but invisible to the ship observer and
    to the mirror and checkpoint bookkeeping (a backup rebuilds its mirror
    by {!replay} at promotion). *)

val log_records : t -> string list
(** The durable (synced) prefix of the log, decoded. *)

val log_rewrite : t -> string list -> (unit -> unit) -> unit
(** Atomically replace the log with exactly [records] and run the callback
    once the replacement is durable.  Replication repair only: a rejoining
    member's diverged tail is cut back to a stream prefix, and a promotion
    adopts the winning log wholesale.  The caller must {!sync} first. *)

val flush : t -> unit
(** Force the log's group commit now. *)

(** {1 Model checking} *)

val fingerprint : t -> string
(** The issued mirror (each key marked live or dead, sorted) and the
    device bytes' fingerprint, rendered for the service's state hash. *)
