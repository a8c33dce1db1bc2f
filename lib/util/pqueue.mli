(** Imperative binary-heap priority queue, keyed by float priority with an
    insertion sequence number for stable FIFO tie-breaking.

    Used by the simulator's event loop and by the aggregation service's
    two-section queue (fig 6.6). *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> float -> 'a -> unit
(** [push q priority v] inserts [v]. Lower priorities pop first; equal
    priorities pop in insertion order. *)

val pop : 'a t -> (float * 'a) option
val peek : 'a t -> (float * 'a) option

val filter_inplace : 'a t -> ('a -> bool) -> unit
(** [filter_inplace q keep] drops every entry whose value fails [keep] and
    rebuilds the heap in one O(n) pass.  The kept entries pop in the same
    order as before: order depends only on each entry's priority and
    insertion sequence, and that pair is unique. *)

val to_list : 'a t -> (float * 'a) list
(** Non-destructive snapshot in pop order (O(n log n)). *)

val entries : 'a t -> (float * int * 'a) list
(** Like {!to_list} but exposing each entry's insertion sequence number.
    Sequence numbers are unique for the lifetime of the queue, so they
    identify a queued entry stably across {!to_list} snapshots — the model
    checker uses them to name pending simulator events. *)

val remove_seq : 'a t -> int -> (float * 'a) option
(** Remove and return the entry with the given insertion sequence, or
    [None] when no such entry is queued.  O(n) scan plus O(log n) repair;
    only the model checker's single-step scheduler uses it, on the small
    queues of bounded scenarios. *)
