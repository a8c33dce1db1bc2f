(** The deterministic discrete-event backend — [lib/sim]/[lib/store]
    packaged behind the {!Backend.S} signature.

    This is a pure repackaging of the pre-backend construction idiom
    ([Engine.create] / [Net.create] / [Disk.create]); semantics are
    byte-identical, which the sim-ordering regression in
    [test/test_backend.ml] (replaying a persisted model-checking schedule)
    pins down. *)

val create :
  ?seed:int64 ->
  ?latency:Oasis_sim.Net.latency ->
  unit ->
  Backend.t
(** Defaults are exactly {!Oasis_sim.Net.create}'s, and each disk is a
    {!Oasis_store.Disk.create} device.  {!Backend.S.disk} memoizes one device
    per host. *)
