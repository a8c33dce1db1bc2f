(** Byte segment custode (§5.2): the lowest MSSA layer, responsible for
    physical storage.  It masks device details and provides a flat segment
    interface to the file custodes above.  Access is restricted to clients
    holding a [Segment] role certificate issued by the custode's service —
    file custodes obtain one at attach time (the levels are mutually
    distrustful, §5.2.1). *)

type t

val create :
  Oasis_sim.Net.t ->
  Oasis_sim.Net.host ->
  Oasis_core.Service.registry ->
  name:string ->
  (t, string) result

val name : t -> string
val service : t -> Oasis_core.Service.t

val attach : t -> client:Oasis_core.Principal.vci -> Oasis_core.Cert.rmc
(** Grant a file custode the [Segment] role covering its own segments. *)

val create_segment : t -> cert:Oasis_core.Cert.rmc -> (int, string) result

val write :
  t -> cert:Oasis_core.Cert.rmc -> seg:int -> off:int -> string -> (unit, string) result

val read : t -> cert:Oasis_core.Cert.rmc -> seg:int -> (string, string) result

val segment_count : t -> int
