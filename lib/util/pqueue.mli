(** Imperative binary-heap priority queue, keyed by float priority with an
    insertion sequence number for stable FIFO tie-breaking.

    Used by the simulator's event loop, the aggregation service's
    two-section queue (fig 6.6), the global-view buffer and the local
    event substrate's timers.

    The heap is flat: slot [i] is the [i]th element of three parallel
    arrays, the priorities in a [Float.Array.t], the insertion sequence
    numbers in an [int array] and the values in an ['a array], so a queued
    entry costs three words and no block of its own.  A value slot that no
    entry occupies holds the [vacant] filler given to {!create}, so a value
    that left the queue is not reachable from it.  {!min_prio} and
    {!take_min} together take the earliest entry without allocating. *)

type 'a t

val create : vacant:'a -> 'a t
(** An empty queue.  [vacant] fills every value slot no entry occupies; it
    is never returned. *)

val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> float -> 'a -> unit
(** [push q priority v] inserts [v]. Lower priorities pop first; equal
    priorities pop in insertion order. *)

val min_prio : 'a t -> float
(** The earliest entry's priority.  Raises [Invalid_argument] when the
    queue is empty. *)

val take_min : 'a t -> 'a
(** Remove the earliest entry and return its value, allocating nothing.
    Raises [Invalid_argument] when the queue is empty. *)

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
