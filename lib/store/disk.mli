(** Simulated per-host stable-storage device.

    The paper's services keep their §4.11 revocation databases and issued
    memberships on stable storage; the reproduction substitutes a
    deterministic simulated device attached to the discrete-event engine
    (see DESIGN.md, Substitutions: real disks -> simulated device).

    The model is a set of named append-only byte files per host:

    - {!append} lands in a volatile write buffer instantly (page cache);
    - {!fsync} makes the buffered prefix durable after a configurable
      latency (a base seek/flush cost plus bytes/bandwidth);
    - a host crash ({!Oasis_sim.Fault}) discards the unsynced buffer,
      except that a seeded-random prefix of it may survive — so the final
      record on disk can be {e torn}, exactly the failure a write-ahead
      log's checksum framing must detect;
    - an in-flight fsync or atomic write dies with the crash (epoch check),
      so durability callbacks never fire for a dead incarnation.

    All byte traffic is accounted in the network's {!Oasis_sim.Stats}
    under [store.*] categories; fsyncs record a latency histogram. *)

type t

val create : Oasis_sim.Net.t -> Oasis_sim.Net.host -> t
(** A simulated device.  A flush costs 5e-4 s plus its bytes at a write
    throughput of 1e8 bytes/second; a recovery scan costs 5e-4 s plus its
    bytes at 2e8 bytes/second. *)

type ops = {
  o_append : file:string -> string -> int -> int -> unit;
  o_append_frame : file:string -> Oasis_util.Siphash.key -> string -> int;
  o_fsync : file:string -> (unit -> unit) -> unit;
  o_write_atomic : file:string -> string -> (unit -> unit) -> unit;
  o_truncate : file:string -> unit;
  o_read : file:string -> string;
  o_read_range : file:string -> off:int -> len:int -> string;
  o_durable_size : file:string -> int;
  o_unsynced : file:string -> int;
  o_scan_delay : bytes:int -> float;
  o_files : unit -> string list;
}
(** A real stable-storage device, injected by a backend
    ({!Oasis_backend.Backend_unix}): the same contract as the simulated
    device — [o_append] buffers a substring ({!append_sub}),
    [o_append_frame] frames a record into the buffer and returns its
    offset ({!append_frame}), [o_fsync] makes the buffered prefix durable
    and calls back (synchronously is fine), [o_read] returns the durable
    prefix only and [o_read_range] a range of everything appended,
    buffered bytes included ({!read_range}) — implemented against actual
    files.  A closure record rather than a functor keeps [lib/store] free
    of any unix dependency, so every existing test and model-checking
    schedule stays deterministic. *)

val create_ops : Oasis_sim.Net.t -> Oasis_sim.Net.host -> ops -> t
(** Wrap a real device behind the {!t} interface.  Byte accounting still
    lands in the network's stats; fsync latency histograms record
    {e measured} wall-clock costs read off the engine's backend clock
    (meaningful because {!Oasis_sim.Engine.now} dispatches to the backend
    time source). *)

val real : t -> bool
(** Whether this device is ops-backed (real files) rather than simulated. *)

val host : t -> Oasis_sim.Net.host
val net : t -> Oasis_sim.Net.t

val append : t -> file:string -> string -> unit
(** Buffer bytes at the end of [file].  Instant (page cache); not durable
    until a subsequent {!fsync} completes.  Ignored while the host is
    down. *)

val append_sub : t -> file:string -> string -> int -> int -> unit
(** [append_sub t ~file s off len] is {!append} of [s.[off .. off + len - 1]],
    buffered from where the bytes lie: a replica appends the frames it was
    shipped this way. *)

val append_frame : t -> file:string -> Oasis_util.Siphash.key -> string -> int
(** [append_frame t ~file key payload] buffers the frame
    {!Oasis_util.Frame.encode}[ key payload] at the end of [file]: the
    header, its checksum computed over [payload], and then the payload are
    written straight into the write buffer, with no framed copy between.
    Returns the frame's offset in [file], or [-1] when the host is down
    (nothing is buffered). *)

val fsync : t -> file:string -> (unit -> unit) -> unit
(** Make everything appended so far durable.  The callback fires once the
    flush completes, [fsync_latency + pending/write_bandwidth] seconds
    later — unless the host crashes first, in which case it never fires
    (and the pending bytes are subject to the crash semantics above). *)

val write_atomic : t -> file:string -> string -> (unit -> unit) -> unit
(** Replace everything [file] contained {e at the call} in one step (the
    classic write-temp then rename).  Until the operation completes the
    old contents remain; a crash before completion leaves the old
    contents intact, never a mixture.  Bytes appended while the write is
    in flight survive after the new contents, so compacting a live log
    cannot drop racing appends.  Used for snapshots and log rewrites. *)

val truncate : t -> file:string -> unit
(** Discard [file]'s contents, durable and buffered.  Immediate; the
    caller sequences it after the snapshot write it depends on. *)

val read : t -> file:string -> string
(** Current durable contents (after a crash this includes any torn tail
    that survived). *)

val read_range : t -> file:string -> off:int -> len:int -> string
(** The [len] bytes at [off] of everything appended to [file], its
    unsynced buffer included; shorter when the file ends first.  After a
    crash only what survived is there to read. *)

val durable_size : t -> file:string -> int
val unsynced : t -> file:string -> int

val scan_delay : t -> bytes:int -> float
(** Time a recovery scan of [bytes] takes on this device. *)

val files : t -> string list

val fingerprint : t -> int64
(** SipHash over every file's name, durable length and full byte contents
    (durable prefix plus unsynced buffer).  Two devices with the same
    fingerprint hold the same bytes in the same commit state; the model
    checker folds it into a service's state hash for interleaving
    pruning. *)
