(** Write-ahead log with checksum framing and group commit.

    Records are opaque strings, each one {!Oasis_util.Frame} (length,
    SipHash-2-4 checksum, payload), appended to one {!Disk} file.  The
    checksum key is derived from the file name ({!key}) — it provides
    {e integrity} against torn/corrupt tails, not secrecy.

    {b Group commit}: appends land in the device's write buffer immediately,
    but the fsync making them durable is coalesced — it fires when the
    pending bytes reach 16384, or on a timer 0.05 s after the first
    uncommitted append, whichever comes first (mirroring the
    broker's heartbeat batching: many logical writes, one physical flush).
    [fsync_each:true] degrades to one fsync per append, the baseline the
    e17 experiment compares against.

    {b Recovery} scans the durable bytes and stops cleanly at the first
    record that is incomplete (torn) or fails its checksum, yielding a
    prefix of the appended records; it never raises on corrupt input. *)

type t

val create :
  Disk.t ->
  file:string ->
  ?fsync_each:bool ->
  unit ->
  t
(** [fsync_each] defaults to false. *)

val file : t -> string
val disk : t -> Disk.t

val append : t -> ?on_durable:(unit -> unit) -> string -> unit
(** Append one record.  [on_durable] fires when the record's group commit
    completes; after a crash, callbacks for unflushed records never fire. *)

val on_append : t -> (string -> unit) option -> unit
(** Install (or clear) the {e ship observer}: it sees every payload entering
    the log through {!append} — the authoritative record stream a
    replication layer forwards to followers.  Payloads arriving via
    {!follower_append} are invisible to it (they already came from the
    stream). *)

val follower_append : t -> string -> unit
(** Append a record that arrived {e from} the stream (a replicated copy of
    a primary's append): same framing, buffering and group commit as
    {!append}, but the ship observer is not notified, so a follower never
    re-ships what it was shipped. *)

val flush : t -> unit
(** Force the group commit now (no-op when nothing is pending). *)

val sync : t -> (unit -> unit) -> unit
(** Run the callback once everything appended so far is durable (flushes
    if needed; fires immediately when nothing is pending). *)

val truncate : t -> unit
(** Drop the log's contents (after a snapshot made them redundant). *)

val rewrite : t -> string list -> (unit -> unit) -> unit
(** Atomically replace the log's contents with exactly [records]
    (compaction).  Crash-safe: until the atomic write completes the old log
    remains.  Buffered appends may race a rewrite (compacting callers
    re-include them in [records]; appends landing while the replace is in
    flight survive it), but pending {!append}[ ~on_durable] callbacks may
    not — their commit bookkeeping would be forgotten, dropping acks — so
    the call raises [Invalid_argument] unless the caller {!sync}ed first. *)

val appended : t -> int
(** Records appended over this log's lifetime (not reset by truncation). *)

val recover : t -> string list
(** Decode the durable contents; records the scan in [store.recover]
    stats.  Use {!Disk.scan_delay} to charge the recovery time. *)

val decode_with : key:string -> string -> string list
(** Pure decoding of a framed byte string under the checksum key of the
    named file (the recovery scan): the longest valid prefix of records.
    Total on arbitrary input.  {!recover} is
    [decode_with ~key:(file t) (Disk.read ...)]. *)

val frame_with : key:string -> string -> string
(** Frame one record under the checksum key of the named file; exposed for
    the corruption property tests. *)

val key : string -> Oasis_util.Siphash.key
(** The checksum key of the named file.  Callers that frame many records
    under one name derive it once and use {!Oasis_util.Frame} directly. *)
