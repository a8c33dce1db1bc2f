(** One site of the global Active Badge system (§6.3, figs 6.2–6.3).

    Each site runs a {e Master} (interfacing with the sensors and signalling
    raw [Seen(badge, sensor)] events), a {e Sighting Cache} (a client of the
    Master that maintains the set of badges currently on site and drives the
    inter-site protocol when a previously unknown badge appears), and a
    {e Namer} (an active database mapping badges to users and signalling
    database changes as events, so long-running monitors never miss a badge
    re-assignment — the atomic lookup+register of §6.3.3 is the broker's
    retrospective registration).

    Inter-site protocol (fig 6.2): every badge carries a pointer to its home
    site.  When a site first sees a foreign badge it asks the badge's home
    for naming information; the home records the badge's current site,
    instructs the previous site to discard its cached information, and
    signals [MovedSite(badge, oldsite, newsite)] from its Namer. *)

type t

type directory
(** A world's site directory, the paper's name server, through which its
    sites find each other.  Names mean nothing outside their world. *)

val directory : unit -> directory

val create :
  Oasis_sim.Net.t ->
  directory ->
  name:string ->
  rooms:string list ->
  ?heartbeat:float ->
  unit ->
  t
(** A site, entered in the directory under [name] in place of any other. *)

val name : t -> string
val rooms : t -> string list
val host : t -> Oasis_sim.Net.host

val master : t -> Oasis_events.Broker.server
(** Signals [Seen(badge : Int, room : Str)]. *)

val namer : t -> Oasis_events.Broker.server
(** Signals [OwnsBadge(user : Str, badge : Int)], [MovedSite(badge : Int,
    oldsite : Str, newsite : Str)] and [BadgeArrived(badge : Int)]. *)

val register_badge : t -> badge:int -> user:string -> unit
(** Home registration: this site becomes the badge's home. *)

val sight : t -> badge:int -> home:string -> room:string -> unit
(** A sensor reading: badge (whose stored home pointer reads [home]) seen in
    [room].  Signals [Seen]; unknown foreign badges trigger the inter-site
    protocol. *)

val owner : t -> badge:int -> string option
(** Naming information available at this site (home or cached foreign). *)

val home_location : t -> badge:int -> string option
(** For a badge homed here: the site it is currently at. *)

val lookup_badge : t -> user:string -> int option
(** Namer database query: the badge currently assigned to the user. *)

val reassign_badge : t -> user:string -> badge:int -> unit
(** Change a user's badge (flat battery, lost badge); signals the database
    change so monitors can re-register (§6.3.3). *)
