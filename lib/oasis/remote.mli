(** The serialized shard/router protocol: the sharded credential plane's
    client-facing operations (role entry, validation, fire/re-hire, exit —
    {!Shard}) expressed over {!Oasis_sim.Net.call}'s named-port surface,
    so the same adapters run in-process on the simulator and across
    processes on a real backend ([oasis_cli serve] / [client]).

    {b What crosses the wire.}  Requests in the field packing of the
    backend's envelope ({!Oasis_util.Frame.fields}), replies as one
    string, and never certificates.  A request is its op ([ping],
    [place], [bootstrap], [issue], [validate], [fire], [rehire] or
    [exit]) and then its operands, in the order of the {!Client} stub's
    parameters: a list operand (roles, role arguments, credential
    handles) is itself a packing, a role argument is its
    {!Oasis_rdl.Value.marshal} form, and an absent option ([bootstrap]'s
    shard, [validate]'s role) is the empty string.  A reply is a handle,
    a shard id or a count in decimal, or empty.  The router and the shard
    each decode a request once; bytes that do not decode (an unknown op, a
    missing or extra operand, a truncated field, a role argument that does
    not unmarshal, a JSON document) are answered
    [Error "malformed request"].

    A {!Principal.vci} is meaningless outside its host (§2.8) and a
    {!Credrec.cref} is table-relative, so the issuing shard retains each
    certificate it issues and hands back an opaque {e handle}
    ["<shard>:<idx>"].  It drops the certificate when it exits, or when a
    sweep ({!Service.gc}) frees its record; a dropped handle is refused as
    unknown, as a revoked one would be.  The shard prefix is the routing
    information: the router sends handle-bearing operations (validate,
    exit, fire) to the one table where the handle resolves.  A handle
    presented to any other shard fails closed ([unknown handle]), the
    wire analogue of {!Service.validate}'s [Wrong_context].

    {b Colocation.}  Cross-shard sibling validation ({!Service.add_sibling})
    rides the in-process registry, which a multi-process deployment does
    not share; the router therefore refuses [issue] with credentials from
    a shard other than the target instance's owner, and [fire]/[rehire]
    with a revoker not issued at the owning shard, each with an error
    naming the owner — clients discover placement with [place] and
    bootstrap prerequisites at the owning shard.  In-process deployments
    (the steady-state benchmark's wire workloads) share the same
    discipline so both paths exercise one protocol. *)

val shard_port : string
val router_port : string

(** {1 Shard server} *)

type shard_server

val serve_shard : Oasis_sim.Net.t -> Service.t -> shard_id:int -> shard_server
(** Bind the shard protocol on the service's host at {!shard_port}.
    Ops: [ping], [bootstrap] (§4.12 {!Service.issue_arbitrary}), [issue]
    ({!Service.request_entry}), [validate], [fire], [rehire], [exit].
    Client identities are per-name VCIs minted at this shard. *)

val shard_server_certs : shard_server -> int
(** Certificates retained in the handle table: those not yet exited or
    swept. *)

val handle_to_string : shard:int -> idx:int -> string
(** The handle ["<shard>:<idx>"], both in decimal. *)

(** {1 Router} *)

type router

val serve_router :
  Oasis_sim.Net.t ->
  Oasis_sim.Net.host ->
  ring:Shard.Ring.t ->
  shards:string array ->
  router
(** Bind the router protocol at {!router_port}.  [shards.(i)] is the wire
    name ({!Oasis_sim.Net.call} destination) of shard [i]'s host; instance
    ownership is [ring] over {!Shard.route_key}, exactly the in-process
    router's placement function. *)

(** {1 Client stubs} *)

module Client : sig
  type t

  val create : Oasis_sim.Net.t -> Oasis_sim.Net.host -> router:string -> t

  val ping : t -> ((unit, string) result -> unit) -> unit

  val place :
    t ->
    role:string ->
    args:Oasis_rdl.Value.t list ->
    ((int, string) result -> unit) ->
    unit
  (** The shard id owning the role instance. *)

  val bootstrap :
    t ->
    ?shard:int ->
    client:string ->
    roles:string list ->
    args:Oasis_rdl.Value.t list ->
    ((string, string) result -> unit) ->
    unit
  (** §4.12 bootstrap issue outside RDL policy; returns a handle.
      [shard] overrides ring placement (issue outside policy is also issue
      outside placement) — how prerequisites are colocated with the
      instance they will authorize. *)

  val issue :
    t ->
    client:string ->
    role:string ->
    args:Oasis_rdl.Value.t list ->
    creds:string list ->
    ((string, string) result -> unit) ->
    unit
  (** Role entry with credential handles; returns the new handle. *)

  val validate :
    t ->
    client:string ->
    handle:string ->
    ?need_role:string ->
    ((unit, string) result -> unit) ->
    unit

  val fire :
    t ->
    revoker:string ->
    role:string ->
    args:Oasis_rdl.Value.t list ->
    ((int, string) result -> unit) ->
    unit
  (** Returns the number of memberships revoked. *)

  val rehire :
    t ->
    revoker:string ->
    role:string ->
    args:Oasis_rdl.Value.t list ->
    ((unit, string) result -> unit) ->
    unit

  val exit_role : t -> handle:string -> ((unit, string) result -> unit) -> unit
end
