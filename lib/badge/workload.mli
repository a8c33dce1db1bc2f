(** Synthetic badge-movement workload (DESIGN.md substitution for the real
    IR sensor hardware).

    People wander between rooms of their site with exponentially distributed
    dwell times and Zipf room popularity, and occasionally travel to another
    site.  Every movement drives {!Site.sight} — exactly the event stream
    the physical sensors would produce. *)

type t

type person = { p_name : string; p_badge : int; p_home : string }

val create :
  Oasis_sim.Engine.t ->
  seed:int64 ->
  sites:Site.t list ->
  people_per_site:int ->
  ?mean_dwell:float ->
  ?travel_probability:float ->
  unit ->
  t
(** Registers each person's badge at their home site.  Room popularity
    within a site is Zipf with exponent 1.1. *)

val start : t -> unit
(** Begin scheduling movements on the engine; runs until the engine stops
    being driven. *)

val people : t -> person list
val sightings : t -> int
(** Total sightings generated so far. *)

val site_changes : t -> int
