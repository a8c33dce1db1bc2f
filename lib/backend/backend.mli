(** The pluggable runtime backend signature.

    The engine consumes three substrate capabilities, and only three:

    - {b scheduling/clock} — [now], timers, a run loop
      ({!Oasis_sim.Engine});
    - {b messaging} — [send]/[rpc] and the serialized named-port [call]
      surface ({!Oasis_sim.Net});
    - {b stable storage} — append/sync/scan with the WAL's checksum
      framing untouched ({!Oasis_store.Disk}).

    A backend is a first-class module supplying constructed instances of
    those three.  Protocol code ([Service]/[Broker]/[Shard]/[Replica])
    takes the constructed [Net.t]/[host]/[Disk.t] values exactly as it
    always has — it contains zero backend conditionals and compiles
    unchanged against both implementations:

    - {!Backend_sim}: the deterministic discrete-event simulator.
      Semantics are byte-identical to the pre-backend stack, so every
      existing test, chaos seed, model-checking schedule and bench replays
      unchanged.
    - {!Backend_unix}: a wall-clock monotonic time source, a
      [select]-driven event loop, length-prefixed TCP transport over
      loopback sockets (the WAL's length+SipHash framing idiom), and real
      files with [fsync] behind the {!Oasis_store.Disk} interface.

    The conformance suite ([test/test_backend.ml]) runs one
    send/rpc-timeout/timer-cancel/fsync-crash-tail matrix against both
    modules to keep the substrate contracts aligned. *)

module type S = sig
  val name : string
  (** ["sim"] or ["unix"] — stamped into [BENCH_*.json] snapshots as the
      [backend] field. *)

  val clock_domain : [ `Sim | `Wall ]
  (** What a second of {!Oasis_sim.Engine.now} means: virtual time or
      wall-clock time.  Stamped into snapshots as [clock_domain] so sim
      and wall-clock trajectories are never mixed by downstream tooling. *)

  val engine : Oasis_sim.Engine.t
  val net : Oasis_sim.Net.t

  val disk : Oasis_sim.Net.host -> Oasis_store.Disk.t
  (** The host's stable-storage device (one per host, memoized). *)

  val run : ?until:float -> unit -> unit
  val stop : unit -> unit
end

type t = (module S)

val name : t -> string
val clock_domain : t -> [ `Sim | `Wall ]

val clock_domain_label : t -> string
(** ["sim"] or ["wall"]. *)

val engine : t -> Oasis_sim.Engine.t
val net : t -> Oasis_sim.Net.t
val disk : t -> Oasis_sim.Net.host -> Oasis_store.Disk.t
val run : ?until:float -> t -> unit
val stop : t -> unit
