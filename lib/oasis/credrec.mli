(** Credential records (§4.6–4.8, fig 4.7).

    A credential record is a small record representing a server's current
    belief about some fact.  Records form a DAG: a child's value is a boolean
    function (And/Or/Nand/Nor, with optional negation on each parent edge) of
    its parents' values.  As in the paper, each record keeps {e counters} of
    how many parents are currently true, false and unknown — all that is
    needed to compute its own state.  Adjacency is {e indexed}: every edge
    has a table-unique id and sits both on the parent's child list and on
    the child's parent list, so detaching a dying record from all its
    parents is O(1) per edge (the parent list goes beyond the paper's
    counters-only sketch, but is invisible to the semantics).  State
    changes propagate to children via a generation-stamped worklist, so a
    cascade recomputes each record once per settled counter change instead
    of once per DAG path; {e notify} callbacks fire so that other servers
    (via event notification) and certificate caches can react.

    References are [(table index, magic)] pairs; a slot's magic is bumped on
    reuse, so references are never resurrected: a dangling reference reads as
    permanently [False] — exactly the paper's licence to delete records
    whose value is false forever.

    The table pays for live records only.  Every edge is one entry of a
    table-wide pool of flat [int] arrays (its id and negation mark, its
    two ends, and the links of both lists); a live record is 13 words of
    counters, list heads and one flags word; and a freed slot keeps only
    its magic, in a flat [int] array, until its next use allocates a new
    record.  Cascades, sweeps and {!forget} visit a record's children
    oldest edge first, which fixes the order notify hooks fire in. *)

type table

type cref = { index : int; magic : int }

type state = True | False | Unknown

type op = And | Or | Nand | Nor

val create_table : unit -> table

(** {1 Construction} *)

val leaf : table -> ?state:state -> unit -> cref
(** A record representing a directly-asserted fact (default [True]). *)

val combine : table -> ?op:op -> (cref * bool) list -> cref
(** [combine t ~op parents] creates a record computing [op] over the parents;
    the [bool] marks a negated edge ([true] = child sees the parent
    inverted).  Default op is [And].  With a single non-negated [And] parent
    the parent itself is returned (the paper's small optimisation, §4.7). *)

val combine_fresh : table -> ?op:op -> (cref * bool) list -> cref
(** Like {!combine} but always allocates a new record, even for a single
    parent — needed when the child must be independently revocable (e.g. a
    delegation record tied to the delegator's membership, §4.4). *)

val add_parent : table -> child:cref -> ?negated:bool -> cref -> unit
(** Attach an additional parent to an existing (non-leaf) record. *)

(** {1 Reading} *)

val state : table -> cref -> state
(** Current belief; a deleted or never-valid reference reads [False]. *)

val is_permanent : table -> cref -> bool
val live : table -> cref -> bool
(** Does the reference designate a live slot? *)

(** {1 Mutation} *)

val set_leaf : table -> cref -> state -> unit
(** Assert a leaf's value (propagates).  No-op on permanent records. *)

val invalidate : table -> cref -> unit
(** Revocation: force [False], permanently (propagates). *)

val make_permanent : table -> cref -> unit
(** Freeze the record at its current state. *)

(** {1 Flags and hooks} *)

val set_direct_use : table -> cref -> bool -> unit
(** The record backs an issued certificate; protects it from GC. *)

val on_change : table -> cref -> (state -> unit) -> unit
(** Notify hook (sets the paper's [Notify] flag); fires after every state
    change of this record. *)

val clear_hooks : table -> cref -> unit

(** {1 Garbage collection (§4.8)} *)

val gc_sweep : table -> int
(** Unlink edges from permanent parents (baking their frozen contribution
    into each child: a child the input forces False becomes permanent too,
    one it forces True keeps it as a phantom parent and stays revocable),
    then delete permanent and uninteresting records.  A record with notify hooks, or
    one that is {!pin}ned, is never deleted.  Returns the number of slots
    reclaimed. *)

val live_records : table -> int

val allocations : table -> int
(** Records ever allocated by {!leaf} and {!combine} (monotone): what a
    caller compares against its last sweep to pace sweeps. *)

val pin : table -> cref -> unit
(** Hold a record against {!gc_sweep} while an in-flight request depends
    on it, such as an external surrogate validated before the request's
    other credentials.  Pins nest; a pin is volatile state, outside
    {!fingerprint}. *)

val unpin : table -> cref -> unit

(** {1 Durable recovery (lib/store)} *)

val forget : table -> cref -> unit
(** Model a crash taking the record with it: free the slot {e without}
    bumping its magic, so the same reference can later be {!restore}d.
    Children are detached as if the reference dangled — a frozen
    permanently-False contribution is baked in, forcing the child
    permanent when False pins its operator (And/Nand). *)

val restore : table -> cref -> bool
(** Re-materialise a slot at a persisted [(index, magic)] identity so
    that references embedded in certificates held by remote parties
    resolve again after recovery.  The slot comes back as an empty
    (parentless, state [True]) And record; the caller re-attaches
    dependency parents or invalidates it.  Returns [false] when the
    identity cannot be honoured (slot in use, or its magic has moved
    past the persisted one).  Recovery must restore every persisted
    reference before allocating fresh records, lest a fresh allocation
    reuse a persisted identity. *)

(** {1 Introspection (tests and benches)} *)

val children_count : table -> cref -> int
(** Number of live outgoing edges (0 for dead references). *)

val edge_ops : table -> int
(** Monotone counter of elementary edge operations (attach, detach, cascade
    visit).  Lets tests assert asymptotic behaviour — e.g. that detaching n
    children from a 10k-child parent costs O(n) edge work, not O(n²). *)

val fingerprint : table -> int64
(** Deterministic SipHash over every live record — identity, operator,
    state, permanence, counters and (edge-id ordered) adjacency.  Equal
    table histories hash equally across processes and replays; the model
    checker folds it into per-service state hashes to prune explored
    interleavings. *)

val self_check : table -> (unit, string) result
(** Structural audit: every edge on a child list is on its child's parent
    list and the reverse, no edge dangles, the edge pool holds nothing
    else, every record's counters match a recount over its parents, and
    non-permanent combining records agree with their counters.  Only
    meaningful at quiescence. *)

val marshal_ref : cref -> string
(** ["index.magic"], both in lowercase hex: the record reference in signed
    payloads, journal records and [Modified] events. *)

val add_ref : Buffer.t -> cref -> unit
(** {!marshal_ref}'s bytes, appended to the buffer. *)

val unmarshal_ref : string -> cref option
val pp_state : Format.formatter -> state -> unit
