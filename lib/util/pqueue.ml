(* A flat binary heap: slot [i] is the triple ([prio.(i)], [seq.(i)],
   [value.(i)]) held in three parallel arrays, so a queued entry costs no
   block of its own and a take allocates nothing.  Slots past [size] hold
   [vacant] in [value], so a popped or removed entry's value is unreachable
   from the queue as soon as it leaves: an expired timer's closure is
   garbage then, not when its slot is next reused. *)
type 'a t = {
  mutable prio : Float.Array.t;
  mutable seq : int array;
  mutable value : 'a array;
  mutable size : int;
  mutable next_seq : int;
  vacant : 'a;
}

let create ~vacant =
  { prio = Float.Array.create 0; seq = [||]; value = [||]; size = 0; next_seq = 0; vacant }

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

let[@inline] move q ~src ~dst =
  Float.Array.unsafe_set q.prio dst (Float.Array.unsafe_get q.prio src);
  Array.unsafe_set q.seq dst (Array.unsafe_get q.seq src);
  Array.unsafe_set q.value dst (Array.unsafe_get q.value src)

(* Both sifts lift the entry at slot [i] out, move a hole from [i] until
   the entry fits there, then put it back into the hole.  They are loops
   over unboxed locals: a float argument would be boxed at every call. *)
let sift_up q i =
  let p = Float.Array.unsafe_get q.prio i and s = q.seq.(i) and v = q.value.(i) in
  let hole = ref i and moving = ref true in
  while !moving && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    if key_before q p s parent then begin
      move q ~src:parent ~dst:!hole;
      hole := parent
    end
    else moving := false
  done;
  Float.Array.unsafe_set q.prio !hole p;
  q.seq.(!hole) <- s;
  q.value.(!hole) <- v

let sift_down q i =
  let p = Float.Array.unsafe_get q.prio i and s = q.seq.(i) and v = q.value.(i) in
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
  Float.Array.unsafe_set q.prio !hole p;
  q.seq.(!hole) <- s;
  q.value.(!hole) <- v

let grow q =
  let cap = max 16 (2 * q.size) in
  let prio = Float.Array.create cap in
  Float.Array.blit q.prio 0 prio 0 q.size;
  let seq = Array.make cap 0 in
  Array.blit q.seq 0 seq 0 q.size;
  let value = Array.make cap q.vacant in
  Array.blit q.value 0 value 0 q.size;
  q.prio <- prio;
  q.seq <- seq;
  q.value <- value

let push q p v =
  if q.size = Array.length q.seq then grow q;
  let i = q.size in
  Float.Array.unsafe_set q.prio i p;
  q.seq.(i) <- q.next_seq;
  q.value.(i) <- v;
  q.next_seq <- q.next_seq + 1;
  q.size <- i + 1;
  sift_up q i

(* Take slot [i] out: the last entry refills it (sifting up if it beats the
   new parent, otherwise down) and its old slot is cleared. *)
let take q i =
  let last = q.size - 1 in
  q.size <- last;
  if i < last then begin
    move q ~src:last ~dst:i;
    if i > 0 && before q i ((i - 1) / 2) then sift_up q i else sift_down q i
  end;
  q.value.(last) <- q.vacant

let min_prio q =
  if q.size = 0 then invalid_arg "Pqueue.min_prio: empty queue";
  Float.Array.unsafe_get q.prio 0

let take_min q =
  if q.size = 0 then invalid_arg "Pqueue.take_min: empty queue";
  let v = q.value.(0) in
  take q 0;
  v

(* Keep the entries whose value passes [keep], packed to the front, then
   restore the heap bottom-up (Floyd): O(n) whatever the number dropped. *)
let filter_inplace q keep =
  let kept = ref 0 in
  for i = 0 to q.size - 1 do
    if keep q.value.(i) then begin
      move q ~src:i ~dst:!kept;
      incr kept
    end
  done;
  Array.fill q.value !kept (q.size - !kept) q.vacant;
  q.size <- !kept;
  for i = (q.size / 2) - 1 downto 0 do
    sift_down q i
  done

(* The occupied slots in pop order, each mapped by [f].  The slots sorted
   are distinct and so are their keys: a slot not before another is after
   it. *)
let sorted q f =
  let slots = Array.init q.size Fun.id in
  Array.stable_sort (fun i j -> if before q i j then -1 else 1) slots;
  Array.fold_right (fun i acc -> f i :: acc) slots []

let entries q = sorted q (fun i -> (Float.Array.get q.prio i, q.seq.(i), q.value.(i)))
let to_list q = sorted q (fun i -> (Float.Array.get q.prio i, q.value.(i)))

let remove_seq q seq =
  let rec find i = if i >= q.size then -1 else if q.seq.(i) = seq then i else find (i + 1) in
  match find 0 with
  | -1 -> None
  | i ->
      let p = Float.Array.get q.prio i and v = q.value.(i) in
      take q i;
      Some (p, v)
