(** Installing ERDL policy on event brokers, and proxies for remote policy
    (§7.4–7.5, figs 7.1 and 7.3).

    Clients present role membership certificates as session credentials.
    Certificates are conveyed as opaque tokens ({!token_of_cert}); at
    admission the policy layer resolves each token, validates the
    certificate with its issuing service, and computes the session's
    visibility.  Registrations are then narrowed or rejected by
    {!Erdl.filter} — the event server never monitors what the client cannot
    see. *)

type tokens
(** A world's token store: a token means nothing in another world's. *)

val tokens : Oasis_core.Service.registry -> tokens
(** An empty store, whose tokens the registry's services validate. *)

val token_of_cert : tokens -> Oasis_core.Cert.rmc -> string
(** Turn a certificate into a session-credential token (also performs the
    marshalling a real transport would). *)

val install :
  Oasis_events.Broker.server ->
  tokens:tokens ->
  rules:Erdl.rule list ->
  unit
(** Arm the broker's admission control and registration filter with the
    policy.  Sessions presenting no valid certificate are admitted only if
    some rule has a [*] subject. *)

(** Remote policy enforcement by proxy (fig 7.3): a site's events are
    exported to other sites only through a proxy broker that applies the
    {e exporting} site's policy to the remote clients' credentials. *)
module Proxy : sig
  type t

  val create :
    Oasis_sim.Net.t ->
    Oasis_sim.Net.host ->
    name:string ->
    upstream:Oasis_events.Broker.server ->
    tokens:tokens ->
    rules:Erdl.rule list ->
    ?heartbeat:float ->
    unit ->
    t
  (** A broker that re-signals upstream events.  Remote clients connect to
      the proxy; their registrations are policy-filtered, then mirrored
      upstream, and matching upstream events are re-signalled (with their
      original stamps) on the proxy. *)

  val broker : t -> Oasis_events.Broker.server
  val upstream_registrations : t -> int
end
