(* Slots past [size] are [Vacant], so a popped or removed entry's value is
   unreachable from the queue as soon as it leaves: an expired timer's
   closure is garbage then, not when its slot is next reused. *)
type 'a slot = Vacant | Entry of { prio : float; seq : int; value : 'a }

type 'a t = { mutable heap : 'a slot array; mutable size : int; mutable next_seq : int }

let create () = { heap = [||]; size = 0; next_seq = 0 }
let is_empty q = q.size = 0
let length q = q.size

(* Only occupied slots (below [size]) are ever compared. *)
let before a b =
  match (a, b) with
  | Entry a, Entry b -> a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)
  | _ -> false

(* Both sifts move a hole at [i] until [e] fits there, then fill it. *)
let rec sift_up h i e =
  let p = (i - 1) / 2 in
  if i > 0 && before e h.(p) then begin
    h.(i) <- h.(p);
    sift_up h p e
  end
  else h.(i) <- e

let rec sift_down q i e =
  let l = (2 * i) + 1 in
  let c = if l + 1 < q.size && before q.heap.(l + 1) q.heap.(l) then l + 1 else l in
  if c < q.size && before q.heap.(c) e then begin
    q.heap.(i) <- q.heap.(c);
    sift_down q c e
  end
  else q.heap.(i) <- e

let push q prio value =
  let e = Entry { prio; seq = q.next_seq; value } in
  q.next_seq <- q.next_seq + 1;
  if q.size = Array.length q.heap then begin
    let heap = Array.make (max 16 (2 * q.size)) Vacant in
    Array.blit q.heap 0 heap 0 q.size;
    q.heap <- heap
  end;
  q.size <- q.size + 1;
  sift_up q.heap (q.size - 1) e

let peek q =
  if q.size = 0 then None
  else match q.heap.(0) with Entry e -> Some (e.prio, e.value) | Vacant -> None

(* Take slot [i] out: the last entry refills it (sifting up if it beats the
   new parent, otherwise down) and its old slot is cleared. *)
let take q i =
  q.size <- q.size - 1;
  let last = q.heap.(q.size) in
  q.heap.(q.size) <- Vacant;
  if i < q.size then
    if i > 0 && before last q.heap.((i - 1) / 2) then sift_up q.heap i last
    else sift_down q i last

let pop q =
  if q.size = 0 then None
  else
    match q.heap.(0) with
    | Entry top ->
        take q 0;
        Some (top.prio, top.value)
    | Vacant -> None

(* Keep the entries whose value passes [keep], packed to the front, then
   restore the heap bottom-up (Floyd): O(n) whatever the number dropped. *)
let filter_inplace q keep =
  let kept = ref 0 in
  for i = 0 to q.size - 1 do
    match q.heap.(i) with
    | Entry e as slot when keep e.value ->
        q.heap.(!kept) <- slot;
        incr kept
    | _ -> ()
  done;
  Array.fill q.heap !kept (q.size - !kept) Vacant;
  q.size <- !kept;
  for i = (q.size / 2) - 1 downto 0 do
    sift_down q i q.heap.(i)
  done

let sorted q =
  let slots = Array.sub q.heap 0 q.size in
  Array.sort (fun a b -> if before a b then -1 else if before b a then 1 else 0) slots;
  Array.to_list slots

let entries q =
  List.filter_map (function Entry e -> Some (e.prio, e.seq, e.value) | Vacant -> None) (sorted q)

let to_list q =
  List.filter_map (function Entry e -> Some (e.prio, e.value) | Vacant -> None) (sorted q)

let remove_seq q seq =
  let rec find i =
    if i >= q.size then None
    else
      match q.heap.(i) with
      | Entry e when e.seq = seq -> Some (i, e.prio, e.value)
      | _ -> find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some (i, prio, value) ->
      take q i;
      Some (prio, value)
