(** Federation-wide static analysis of the cross-service role graph.

    {!Oasis_rdl.Analyze} checks one rolefile at a time; this module checks
    the federation as a whole — services grant roles on the strength of
    roles of other services (§2.10), so the credential graph can contain
    bootstrap deadlocks, unreachable roles and revocation gaps that no
    single-file analysis can see.

    Escalation queries are answered by a {e symbolic prover}: reachability
    is explored over derivation chains carrying a per-path {!witness} — the
    sequence of entry statements, the binding substitutions connecting them,
    and the elector/appointment obligations along the way.  Statement
    variables are renamed into a path-global namespace, the symbolic
    arguments flowing along the chain are substituted into each hop's
    constraint, and paths whose accumulated constraint
    {!Oasis_rdl.Analyze.sat} proves unsatisfiable are pruned: {!can_reach}
    answering [false] means "no feasible symbolic path" (up to the
    documented per-node chain bound), and [true] comes with replayable
    evidence — [Oasis_mc.Witness] compiles a witness into a model-checker
    scenario that executes the chain.

    Diagnostic codes (continuing the [RDLnnn] space):

    {v
    code      severity  meaning
    OASIS001  error     credential cycle with no bootstrap (deadlock)
    OASIS002  warning   role unreachable from the federation's axioms
    OASIS003  error     reference to a role a federation service lacks
    OASIS004  warning   starred prerequisite from outside the federation
                        (no revocation channel to cascade over)
    OASIS005  info      revocable prerequisite consumed without *
    OASIS006  warning   revocation-blind escalation: some hop of a witness
                        chain consumes the holder's flow without *, so
                        firing the holder does not cascade to the target
    OASIS007  warning   low collusion budget: an escalation chain needs at
                        most [collusion_threshold] colluding principals
    OASIS008  warning   cross-realm escalation through interop/bootstrap
                        roles
    v}

    OASIS006–008 are emitted for holders that are not themselves derivable
    from the federation's axioms (base-reachable holders have an empty
    escalation frontier by definition), so healthy federations stay
    diagnostic-free while the CLI's [--escalation] sweep can still print
    witness chains for any holder. *)

type member = {
  fl_name : string;  (** service name, as used in [Service.role] references *)
  fl_file : string;  (** diagnostic anchor, e.g. the rolefile path *)
  fl_rolefile : Oasis_rdl.Ast.rolefile;
}

type node = string * string
(** A role of a service: [(service, role)]. *)

type t

val make : member list -> t
(** Build the federation and run per-member type inference (members whose
    inference fails keep unknown signatures; the per-file pass reports the
    error itself). *)

val members : t -> member list

val member_context : t -> Oasis_rdl.Analyze.context
(** A per-file analysis context whose [external_sig] resolves against the
    other members' inferred signatures. *)

val signature : t -> node -> Oasis_rdl.Ty.t list option
(** The inferred parameter signature of a role, if its member inferred. *)

val check :
  ?per_file:bool -> ?collusion_threshold:int -> t -> Oasis_rdl.Analyze.diag list
(** Federation-wide diagnostics, sorted by (file, line, code).  With
    [per_file] (default false) the per-rolefile {!Oasis_rdl.Analyze.check}
    diagnostics for each member are included too, computed under
    {!member_context}.  [collusion_threshold] (default 1) arms OASIS007 for
    chains needing at most that many colluding principals. *)

val reachable : t -> (node, unit) Hashtbl.t
(** Least fixpoint of role derivability from the federation's axioms
    (entries with no prerequisites).  Roles of services outside the
    federation are assumed reachable, so "not in the table" is a proof of
    unreachability, not the converse. *)

(** {1 Symbolic escalation prover} *)

(** One derivation step of a witness chain: entering [h_node] by firing
    [h_entry], consuming the chain's previous credential ([h_via], starred
    or not) and — independently — the listed obligations.  All expressions
    are in the chain's path-global variable namespace. *)
type hop = {
  h_node : node;  (** the role this hop enters *)
  h_file : string;
  h_line : int;  (** source line of the fired statement *)
  h_entry : Oasis_rdl.Ast.entry;  (** the statement, as written *)
  h_via : node;  (** the chain prerequisite this hop consumes *)
  h_via_starred : bool;
      (** whether the chain credential is consumed with [*] — the §3.2.3
          cascade edge; a chain with any unstarred hop is revocation-blind *)
  h_elector : (node * Oasis_rdl.Ast.expr list) option;
      (** elector obligation: a colluding principal must hold this role *)
  h_obligations : (node * Oasis_rdl.Ast.expr list * bool) list;
      (** other prerequisite credentials (node, symbolic args, starred),
          assumed independently derivable *)
  h_args : Oasis_rdl.Ast.expr list;  (** symbolic head arguments *)
  h_constr : Oasis_rdl.Ast.constr option;
      (** the statement's constraint plus unification equalities,
          substituted into the path namespace *)
}

(** A feasible symbolic derivation chain from [w_holder] to [w_target]:
    the accumulated path constraint [w_constr] is not provably
    unsatisfiable. *)
type witness = {
  w_holder : node;
  w_holder_args : Oasis_rdl.Ast.expr list;  (** fresh symbolic arguments *)
  w_target : node;
  w_hops : hop list;  (** in derivation order; the first consumes the holder *)
  w_constr : Oasis_rdl.Ast.constr option;  (** conjunction over all hops *)
  w_carried : bool;
      (** every hop consumes its chain credential with [*]: firing the
          holder cascades all the way to the target (§4.11 holds) *)
  w_colluders : int;
      (** minimum distinct colluding principals: the holder plus one per
          distinct elector obligation *)
  w_cross_realm : bool;  (** some hop enters a role outside the holder's service *)
  w_interop : bool;
      (** the chain passes through an interop edge (a reference to a
          service outside the federation) or a bootstrap (axiom) role *)
}

val witnesses : t -> holder:node -> witness list
(** Every node a holder of [holder] can symbolically derive, with one
    (breadth-first, i.e. shortest-found) witness chain each; sorted by
    target, excluding [holder] itself.  Internally up to 4 distinct chains
    per node feed further derivation, so a consumer whose constraint
    conflicts with one chain can connect through an alternative. *)

val escalation_witnesses : t -> holder:node -> witness list
(** {!witnesses} restricted to the escalation frontier: targets that are
    not derivable from the federation's axioms alone. *)

val escalation : t -> holder:node -> node list
(** Targets of {!escalation_witnesses}, sorted.  Symbolically tightened
    relative to the PR 5 boolean bound: every listed node carries a
    feasible witness chain. *)

val can_reach : t -> holder:node -> target:node -> bool
(** Symbolic privilege-escalation query: [false] means no feasible symbolic
    path exists (up to the per-node chain bound); never looser than
    {!boolean_can_reach}. *)

val boolean_can_reach : t -> holder:node -> target:node -> bool
(** The PR 5 boolean least-fixpoint upper bound, kept as the prover's
    soundness reference (symbolic ⊆ boolean, property-tested). *)

val default_holders : t -> node list
(** Holders worth sweeping in [--escalation all]: bootstrap (axiom-entry)
    roles — what [issue_arbitrary] seeds — plus every role not derivable
    from the axioms.  Sorted. *)

val witness_codes : ?collusion_threshold:int -> witness -> string list
(** The OASIS006/007/008 codes a single chain triggers (threshold default
    1); shared by {!check} and the CLI's per-witness report. *)

val node_str : node -> string
(** ["service.role"]. *)
