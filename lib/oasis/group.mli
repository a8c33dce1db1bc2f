(** Group membership with "interesting credential" records (§4.8.1).

    A group service need not keep a credential record for every possible
    membership — only for the {e interesting} ones: memberships some
    certificate or external server currently depends on.  A hash table maps
    [(group, member)] to its record; lookup creates the record lazily, and a
    membership change flips the corresponding record, cascading revocation
    through the credential record graph. *)

type t

type value = Oasis_rdl.Value.t

val create : Credrec.table -> string -> t
val name : t -> string

val add : t -> value -> unit
val remove : t -> value -> unit
val mem : t -> value -> bool
val members : t -> value list

val credential : t -> value -> Credrec.cref
(** The credential record representing "[value] is a member" — created (with
    the current truth value) if not yet interesting; re-created if a GC
    sweep reclaimed it. *)

val prune : t -> unit
(** Forget the interesting records a sweep reclaimed ({!Credrec.gc_sweep}). *)

val interesting : t -> int
(** Number of live interesting-membership records (for tests/benches). *)
