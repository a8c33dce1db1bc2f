(** Imperative binary-heap priority queue, keyed by float priority with an
    insertion sequence number for stable FIFO tie-breaking.

    Used by the simulator's event loop, the aggregation service's
    two-section queue (fig 6.6), the global-view buffer and the local
    event substrate's timers.

    The heap is flat: slot [i] holds an entry's priority, in a
    [Float.Array.t], and its insertion sequence number and handle, in
    [int array]s, while its value stays put in an array indexed by handle.
    A sift therefore moves floats and ints only, and a queued entry costs
    five words and no block of its own.  A value place that no entry
    occupies holds the [vacant] filler given to {!create}, so a value that
    left the queue is not reachable from it.  {!min_prio} and {!take_min}
    together take the earliest entry without allocating. *)

type 'a t

val create : vacant:'a -> 'a t
(** An empty queue.  [vacant] fills every value place no entry occupies; it
    is never returned. *)

val is_empty : 'a t -> bool
val length : 'a t -> int

type handle = int
(** Names a queued entry for {!remove}: a small non-negative int, valid
    until the entry leaves the queue.  The queue then hands it to a later
    push, so a holder must forget it once its entry has left. *)

val push : 'a t -> float -> 'a -> handle
(** [push q priority v] inserts [v] and returns its handle.  Lower
    priorities pop first; equal priorities pop in insertion order. *)

val min_prio : 'a t -> float
(** The earliest entry's priority.  Raises [Invalid_argument] when the
    queue is empty. *)

val take_min : 'a t -> 'a
(** Remove the earliest entry and return its value, allocating nothing.
    Raises [Invalid_argument] when the queue is empty. *)

val remove : 'a t -> handle -> unit
(** [remove q h] takes the entry [h] names out of the queue in O(log n),
    allocating nothing.  The other entries pop in the same order as
    before: order depends only on each entry's priority and insertion
    sequence, and that pair is unique.  Raises [Invalid_argument] when [h]
    names no queued entry. *)

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
    only {!Oasis_sim.Engine.step_seq} uses it, for the model checker's
    picks on the small queues of bounded scenarios. *)
