(** A composite event service (§6.2.3, §6.8.2).

    The paper's event libraries let services such as {e composite event
    servers} and multiplexers manipulate events without knowing their
    concrete types.  This module is that server: clients hand it composite
    expressions; it evaluates them (bead machine) against its upstream
    broker sessions and {b re-signals each occurrence as a base event} on
    its own broker, so other clients — including other composite servers —
    can consume detections as ordinary events.

    Re-signalled events carry the {e occurrence} time as their stamp, which
    is necessarily out of order with respect to the server's clock;
    the broker is therefore created with a horizon lag covering the longest
    possible detection delay, preserving the event-horizon guarantee for
    downstream [without] evaluations (§6.8.2: "event horizon time stamps do
    not preclude a service from producing events out of order, which is
    important for the independence of composite event activations that are
    re-signalled as base events"). *)

type t

val create :
  Oasis_sim.Net.t ->
  Oasis_sim.Net.host ->
  name:string ->
  upstreams:Broker.session list ->
  ?heartbeat:float ->
  ?clock_uncertainty:float ->
  unit ->
  t
(** The server may stamp re-signalled occurrences up to 2.0 s behind its
    clock (its broker's horizon lag). *)

val broker : t -> Broker.server
(** The broker on which detections are re-signalled. *)

val define :
  t ->
  signal_as:string ->
  ?env:Event.env ->
  Composite.t ->
  (unit, string) result
(** Install a composite definition: every occurrence is re-signalled as
    [signal_as(v1, ..., vn)] where the parameters are the occurrence's
    variable bindings in order of first appearance in the expression.
    Fails if a definition with that name already exists. *)

val undefine : t -> string -> unit

val definitions : t -> string list
val detections : t -> string -> int
