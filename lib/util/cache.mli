(** Capped two-generation cache with cheap eviction.

    Bounded replacement for the unbounded [Hashtbl]s on hot paths (RMC
    signature verification, compiled-residual reuse).  Entries are kept in
    two generations; inserting into a full young generation drops the old
    one wholesale, so the cache holds at most [cap] entries, eviction is
    O(1) amortised, and entries touched since the last rotation survive it. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** [create cap] bounds the cache to at most [cap] entries.  It preallocates
    nothing: its tables grow as entries arrive.
    Raises [Invalid_argument] if [cap < 2]. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; a hit in the old generation is promoted so it survives the next
    rotation. *)

val set : ('k, 'v) t -> 'k -> 'v -> unit
val mem : ('k, 'v) t -> 'k -> bool

val length : ('k, 'v) t -> int
(** Current number of entries; always [<= capacity]. *)

val capacity : ('k, 'v) t -> int
val clear : ('k, 'v) t -> unit
