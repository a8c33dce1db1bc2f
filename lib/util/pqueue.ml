(* A flat binary heap.  Slot [i] holds an entry's key ([prio.(i)],
   [seq.(i)]) and its handle [handle.(i)]; the entry's value stays put in
   [value.(handle.(i))] while the key and handle move.  So a sift moves
   only floats and ints, writing no pointer (no write barrier), a queued
   entry costs no block of its own and a take allocates nothing.

   [handle] is a permutation of [0 .. capacity - 1]: its first [size]
   places name the queued entries, and the places past [size] hold the
   handles free for the next pushes.  [slot] maps a queued entry's handle
   back to its slot, and every move of an entry writes both, so {!remove}
   finds its entry without a search.  A free handle's [value] holds
   [vacant], so a popped or removed entry's value is unreachable from the
   queue as soon as it leaves: an expired timer's closure is garbage then,
   not when its handle is next reused. *)
type 'a t = {
  mutable prio : Float.Array.t;
  mutable seq : int array;
  mutable handle : int array;
  mutable slot : int array;
  mutable value : 'a array;
  mutable size : int;
  mutable next_seq : int;
  vacant : 'a;
}

type handle = int

let create ~vacant =
  {
    prio = Float.Array.create 0;
    seq = [||];
    handle = [||];
    slot = [||];
    value = [||];
    size = 0;
    next_seq = 0;
    vacant;
  }

let is_empty q = q.size = 0
let length q = q.size

(* The one ordering rule: whether the key ([p], [s]) pops before slot
   [j].  Priority first; the sequence number breaks ties.  Keys are
   unique, so a key not before a slot other than its own is after it. *)
let[@inline] key_before q p s j =
  let pj = Float.Array.unsafe_get q.prio j in
  p < pj || (p = pj && s < Array.unsafe_get q.seq j)

(* Whether slot [i] pops before slot [j]. *)
let[@inline] before q i j = key_before q (Float.Array.unsafe_get q.prio i) (Array.unsafe_get q.seq i) j

(* Put the entry with key ([p], [s]) and handle [h] at slot [i]. *)
let[@inline] place q i p s h =
  Float.Array.unsafe_set q.prio i p;
  Array.unsafe_set q.seq i s;
  Array.unsafe_set q.handle i h;
  Array.unsafe_set q.slot h i

let[@inline] move q ~src ~dst =
  place q dst (Float.Array.unsafe_get q.prio src) (Array.unsafe_get q.seq src)
    (Array.unsafe_get q.handle src)

(* Both sifts lift the entry at slot [i] out, move a hole from [i] until
   the entry fits there, then put it back into the hole.  They are loops
   over unboxed locals: a float argument would be boxed at every call. *)
let sift_up q i =
  let p = Float.Array.unsafe_get q.prio i and s = q.seq.(i) and h = q.handle.(i) in
  let hole = ref i and moving = ref true in
  while !moving && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    if key_before q p s parent then begin
      move q ~src:parent ~dst:!hole;
      hole := parent
    end
    else moving := false
  done;
  place q !hole p s h

let sift_down q i =
  let p = Float.Array.unsafe_get q.prio i and s = q.seq.(i) and h = q.handle.(i) in
  let hole = ref i and moving = ref true in
  while !moving do
    let l = (2 * !hole) + 1 in
    if l >= q.size then moving := false
    else begin
      let c = if l + 1 < q.size && before q (l + 1) l then l + 1 else l in
      if key_before q p s c then moving := false
      else begin
        move q ~src:c ~dst:!hole;
        hole := c
      end
    end
  done;
  place q !hole p s h

(* Called when every handle is queued: the new places of [handle] hold the
   new handles, in order. *)
let grow q =
  let cap = max 16 (2 * q.size) in
  let prio = Float.Array.create cap in
  Float.Array.blit q.prio 0 prio 0 q.size;
  let seq = Array.make cap 0 in
  Array.blit q.seq 0 seq 0 q.size;
  let handle = Array.init cap Fun.id in
  Array.blit q.handle 0 handle 0 q.size;
  let slot = Array.make cap 0 in
  Array.blit q.slot 0 slot 0 q.size;
  let value = Array.make cap q.vacant in
  Array.blit q.value 0 value 0 q.size;
  q.prio <- prio;
  q.seq <- seq;
  q.handle <- handle;
  q.slot <- slot;
  q.value <- value

let push q p v =
  if q.size = Array.length q.seq then grow q;
  let i = q.size in
  let h = q.handle.(i) in
  q.value.(h) <- v;
  place q i p q.next_seq h;
  q.next_seq <- q.next_seq + 1;
  q.size <- i + 1;
  sift_up q i;
  h

(* Take slot [i] out and return its value: the last entry refills the slot
   (sifting up if it beats the new parent, otherwise down), and the
   departed entry's handle goes back past the end, free. *)
let take q i =
  let last = q.size - 1 in
  let h = q.handle.(i) in
  let v = q.value.(h) in
  q.value.(h) <- q.vacant;
  q.size <- last;
  if i < last then begin
    move q ~src:last ~dst:i;
    if i > 0 && before q i ((i - 1) / 2) then sift_up q i else sift_down q i
  end;
  q.handle.(last) <- h;
  v

let min_prio q =
  if q.size = 0 then invalid_arg "Pqueue.min_prio: empty queue";
  Float.Array.unsafe_get q.prio 0

let take_min q =
  if q.size = 0 then invalid_arg "Pqueue.take_min: empty queue";
  take q 0

(* A handle is queued exactly when its slot names it back: a free handle
   sits in [handle] past [size], so no slot below [size] names it. *)
let remove q h =
  let i = if h >= 0 && h < Array.length q.slot then q.slot.(h) else -1 in
  if i < 0 || i >= q.size || q.handle.(i) <> h then invalid_arg "Pqueue.remove: handle not queued";
  ignore (take q i)

(* The occupied slots in pop order, each mapped by [f].  The slots sorted
   are distinct and so are their keys: a slot not before another is after
   it. *)
let sorted q f =
  let slots = Array.init q.size Fun.id in
  Array.stable_sort (fun i j -> if before q i j then -1 else 1) slots;
  Array.fold_right (fun i acc -> f i :: acc) slots []

let entries q = sorted q (fun i -> (Float.Array.get q.prio i, q.seq.(i), q.value.(q.handle.(i))))
let to_list q = sorted q (fun i -> (Float.Array.get q.prio i, q.value.(q.handle.(i))))

let remove_seq q seq =
  let rec find i = if i >= q.size then -1 else if q.seq.(i) = seq then i else find (i + 1) in
  match find 0 with
  | -1 -> None
  | i ->
      let p = Float.Array.get q.prio i in
      Some (p, take q i)
