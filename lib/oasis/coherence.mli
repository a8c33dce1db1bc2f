(** Peer coherence (§4.9–4.10, fig 4.8): the protocol one service runs
    with the others, and the only code in the plane that sends from one
    service to another.

    A service publishes the changes of its credential records that peers
    depend on over its event broker.  A peer that validated a certificate
    mirrors the certificate's record in an {e external record}: a local
    leaf kept true by [Modified] events (or, from a batching issuer, by
    [ModifiedBatch] digests flushed on the broker's heartbeat tick), marked
    [Unknown] when the link's heartbeats stop, and reread in one batched
    RPC per link when it heals.  When the issuer's registry entry moves to
    another host (a replica failover, see {!Replica}), the link rebinds to
    the new primary's broker.

    A coherence reaches its peers' coherences through the [lookup] it was
    created with: a subscriber reads the issuer's host, broker, table and
    batch flag from the issuer's own value. *)

type t

val create :
  Oasis_sim.Net.t ->
  Oasis_sim.Net.host ->
  name:string ->
  table:Credrec.table ->
  lookup:(string -> t option) ->
  heartbeat:float ->
  batch:bool ->
  disk:Oasis_store.Disk.t option ->
  t
(** The coherence of service [name] on [host], whose records live in
    [table].  It creates the service's broker, with heartbeat period
    [heartbeat], coalescing when [batch], and its retained-event log on
    [disk] when given.  With [batch], record changes are buffered and
    flushed as one [ModifiedBatch] digest at the top of each heartbeat
    tick; without it, each change is its own [Modified] event.  [lookup]
    finds a peer's coherence by service name, at the moment it is
    needed. *)

val broker : t -> Oasis_events.Broker.server

val arm : t -> Credrec.cref -> unit
(** Publish the changes of a local record, once per record however often
    it is armed. *)

val mirror : t -> peer:string -> remote:Credrec.cref -> initial:Credrec.state -> Credrec.cref
(** The local surrogate of [peer]'s record [remote], set to [initial] and
    subscribed to the record's changes; a live surrogate is reused. *)

val validate_at :
  t ->
  issuer:t ->
  category:string ->
  attempts:int ->
  (((string list * Oasis_rdl.Value.t list * Credrec.cref, string) result -> unit) -> unit) ->
  ((string list * Oasis_rdl.Value.t list * Credrec.cref * Credrec.cref, string) result ->
  unit) ->
  unit
(** [validate_at c ~issuer ~category ~attempts check k] runs [check] at
    [issuer], over one RPC of [category] tried up to [attempts] times;
    [check] answers through the reply it is handed.  On [Ok] the record it
    names is {!mirror}ed in [c], and [k] gets the roles, arguments, remote
    record and its local surrogate.  A timeout or [check]'s own error is
    passed on. *)

val resync_all : t -> unit
(** Queue every mirrored record for a reread and start each link's
    batched reread once its session is up: recovery's last step, when
    every external was re-mirrored at [Unknown]. *)

val prune : t -> unit
(** After a credential-record sweep: forget the mirrors whose surrogate
    was freed, with their pending rereads and per-record registrations. *)

val crash : t -> unit
(** The first half of a host crash: close every peer session and forget
    every surrogate from the table. *)

val reset : t -> unit
(** The second half, once the service has forgotten its own records
    (forgetting a record fires its children's hooks): drop the links, the
    armed set and the pending digest. *)

val pending : t -> string list
(** The pending digest's items, as [key=state], in no order. *)
