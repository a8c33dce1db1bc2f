(** The wall-clock backend: a monotonic time source, a [select]-driven
    event loop, length-prefixed TCP messaging over loopback sockets, and
    real files with [fsync] behind the {!Oasis_store.Disk} interface.

    {b Clock} — {!Oasis_sim.Engine.now} reads [Unix.gettimeofday]
    normalized to the backend's start, so traces and percentiles are in
    seconds-since-start just like the simulator's virtual clock.

    {b Messaging} — in-process hosts talk through {!Oasis_sim.Net}
    unchanged (zero latency); the serialized named-port surface
    ({!Oasis_sim.Net.call}) additionally reaches {e remote} hosts
    registered with {!peer}.  Frames on the wire are the WAL's
    checksummed frames ({!Oasis_util.Frame}: 8 hex digits of payload
    length, 16 hex digits of SipHash-2-4 over the payload, then the
    payload).  Each frame's payload is an RPC envelope packed with
    {!Oasis_util.Frame.fields}: a request's id, source, destination, port
    and body, or a reply's id and its [K] (ok) or [E] (error) marked
    body.  Frames are queued on their connection and written in the
    order they were queued, with one [write] per connection per turn of
    the event loop: before the loop blocks in [select], after the ready
    descriptors are dispatched, and in {!shutdown}.  A frame queued in the
    turn that calls {!Backend.stop} goes out with the next [run] or
    [shutdown].  A bad header or checksum means a desynchronized stream and
    drops the connection.  Closing a connection drops the frames still
    queued on it and forgets the calls sent on it; those calls, like calls
    nobody answers, are answered by their {!Oasis_sim.Net} timeouts, which
    also make the backend forget them.  A write to a connection whose peer
    has gone fails with [EPIPE] and closes the connection the same way:
    {!create} sets the process to ignore [SIGPIPE], which would otherwise
    kill it.

    {b Storage} — one directory per host under {!data_dir}.  [append]
    buffers in memory (the page-cache analogue); [fsync] writes the
    buffered tail and calls [Unix.fsync]; abandoning the handle loses the
    unsynced tail, mirroring the simulated device's crash contract. *)

type t

val create :
  ?data_dir:string -> ?seed:int64 -> ?latency:Oasis_sim.Net.latency -> unit -> t
(** [data_dir] defaults to a per-pid directory under the system temp dir,
    shared by every backend the process creates without one and never
    removed: durable state outlives the process.  [latency] (default
    [Fixed 0.0]) applies to {e in-process} delivery only — the wire
    provides its own, real, latency.  [seed] seeds retry jitter.  Sets
    [SIGPIPE] to be ignored, for the whole process. *)

val with_temp_data_dir : (string -> 'a) -> 'a
(** [with_temp_data_dir f] calls [f dir] on a fresh, empty directory under
    the system temp dir, for a short-lived backend's [data_dir] (tests,
    benches), and removes the directory and everything in it when [f]
    returns or raises. *)

val pack : t -> Backend.t

val data_dir : t -> string

val listen : t -> ?port:int -> unit -> int
(** Accept remote connections on loopback.  [port] defaults to [0]
    (ephemeral); returns the actual port bound. *)

val peer : t -> name:string -> port:int -> unit
(** Register remote host [name] as reachable at loopback:[port].
    {!Oasis_sim.Net.call}s addressed to a name that is not a local host
    are framed and sent there. *)

val alias : t -> name:string -> local:string -> unit
(** Rewrite inbound envelope destination [name] to local host [local] —
    lets a process address its own hosts over the wire (the steady-state
    benchmark's wire workloads, the tests' loopback cases) and decouples
    wire names from host names. *)

val disk : t -> Oasis_sim.Net.host -> Oasis_store.Disk.t
(** The host's real-file device (memoized; directory
    [data_dir/<host name>]). *)

val reopen_disk : t -> Oasis_sim.Net.host -> Oasis_store.Disk.t
(** Crash-and-recover: drop the open handle — losing in-memory unsynced
    tails — and re-attach a fresh device to the same directory.  The new
    device sees exactly the durable prefix. *)

val pending_calls : t -> int
(** Calls sent over the wire and still awaiting their reply: an entry
    leaves when the reply arrives, when the call times out, or when its
    connection closes. *)

val shutdown : t -> unit
(** Write the frames still queued, then close all sockets (listeners and
    connections). *)
