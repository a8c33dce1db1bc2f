(* Two-generation capped cache.

   Inserts land in the [young] generation; when [young] fills up to half the
   cap the [old] generation is dropped and the generations rotate, so the
   table never holds more than [cap] entries and recently-touched entries
   survive a rotation (lookups promote old hits into [young]).  This is the
   classic "2Q-lite" scheme: eviction is O(1) amortised and needs no
   per-entry bookkeeping, which is all the hot paths here (signature cache,
   compiled-residual cache) require. *)

type ('k, 'v) t = {
  cap : int;  (* total bound: young + old <= cap *)
  half : int;
  mutable young : ('k, 'v) Hashtbl.t;
  mutable old : ('k, 'v) Hashtbl.t;
}

(* The first young generation grows from empty.  A rotation creates the
   next at [half], where it never resizes (one created small doubles only
   past two entries per bucket, so it would stop at [half / 2] buckets).
   Nothing iterates the tables, so their bucket counts change no result. *)
let create cap =
  if cap < 2 then invalid_arg "Cache.create: cap must be >= 2";
  { cap; half = cap / 2; young = Hashtbl.create 1; old = Hashtbl.create 1 }

let rotate t =
  t.old <- t.young;
  t.young <- Hashtbl.create t.half

let set t k v =
  if not (Hashtbl.mem t.young k) && Hashtbl.length t.young >= t.half then rotate t;
  Hashtbl.replace t.young k v

let find t k =
  match Hashtbl.find_opt t.young k with
  | Some _ as hit -> hit
  | None -> (
      match Hashtbl.find_opt t.old k with
      | Some v ->
          (* Promote: a re-touched entry should survive the next rotation. *)
          Hashtbl.remove t.old k;
          set t k v;
          Some v
      | None -> None)

let mem t k = Hashtbl.mem t.young k || Hashtbl.mem t.old k

let length t = Hashtbl.length t.young + Hashtbl.length t.old

let capacity t = t.cap

let clear t =
  t.young <- Hashtbl.create 1;
  t.old <- Hashtbl.create 1
