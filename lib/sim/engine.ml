type event = { ev_at : float; ev_seq : int; ev_tag : string }

type scheduler = event list -> int option

(* An external substrate driving the engine in real time (see
   [Oasis_backend.Backend_unix]).  Without one, the engine is the classic
   deterministic discrete-event simulator: time is virtual and jumps from
   deadline to deadline. *)
type source = {
  src_now : unit -> float;
      (* monotonic seconds; the engine never writes time back *)
  src_wait : until:float option -> bool;
      (* block until roughly [until] (absolute, in [src_now]'s timebase) or
         until external work (e.g. socket readiness) was dispatched;
         [until = None] means "no pending timer — wait for external work
         only".  Returns [false] when no external work can ever arrive
         (no I/O sources registered), which lets [run] terminate. *)
}

(* While queued, a timer from [timer] reaches its engine through [home], so
   [cancel] can count it among the queue's dead entries.  [home] is [None]
   otherwise: for [schedule]'s events, which no caller can cancel, for
   [every]'s handle, which is never queued, and once the timer has left
   the queue. *)
type timer = {
  mutable alive : bool;
  mutable action : unit -> unit;
  tag : string;
  mutable home : t option;
}

and t = {
  mutable now : float;
  queue : timer Oasis_util.Pqueue.t;
  mutable dead : int;  (* cancelled timers still in [queue] *)
  mutable scheduler : scheduler option;
  source : source option;
  mutable stopped : bool;
}

(* What a queue slot holds when no event occupies it. *)
let vacant_timer = { alive = false; action = ignore; tag = ""; home = None }

let create ?source () =
  {
    now = 0.0;
    queue = Oasis_util.Pqueue.create ~vacant:vacant_timer;
    dead = 0;
    scheduler = None;
    source;
    stopped = false;
  }

let now t = match t.source with Some s -> s.src_now () | None -> t.now

let real_time t = t.source <> None

let schedule_at t ?(tag = "") ~at action =
  let at =
    let n = now t in
    if at < n then n else at
  in
  Oasis_util.Pqueue.push t.queue at { alive = true; action; tag; home = None }

let schedule t ?tag ~delay action = schedule_at t ?tag ~at:(now t +. delay) action

let timer t ?(tag = "") ~delay action =
  let at = now t +. max 0.0 delay in
  let tm = { alive = true; action; tag; home = Some t } in
  Oasis_util.Pqueue.push t.queue at tm;
  tm

(* Below this many, cancelled timers wait for their deadline: the small
   worlds of the tests and the model checker never compact. *)
let compact_floor = 512

let cancel tm =
  if tm.alive then begin
    tm.alive <- false;
    tm.action <- (fun () -> ());
    match tm.home with
    | None -> ()
    | Some t ->
        t.dead <- t.dead + 1;
        if t.dead > compact_floor && 2 * t.dead > Oasis_util.Pqueue.length t.queue then begin
          Oasis_util.Pqueue.filter_inplace t.queue (fun tm -> tm.alive);
          t.dead <- 0
        end
  end

let cancelled tm = not tm.alive

let every t ?tag ~period action =
  if period <= 0.0 then invalid_arg "Engine.every: period must be positive";
  (* The handle returned to the caller is distinct from the queued one-shot
     timers: cancelling it suppresses all future firings. *)
  let handle = { alive = true; action = (fun () -> ()); tag = ""; home = None } in
  let rec arm () =
    schedule t ?tag ~delay:period (fun () ->
        if handle.alive then begin
          action ();
          if handle.alive then arm ()
        end)
  in
  arm ();
  handle

let events t =
  List.filter_map
    (fun (at, seq, tm) ->
      if tm.alive then Some { ev_at = at; ev_seq = seq; ev_tag = tm.tag } else None)
    (Oasis_util.Pqueue.entries t.queue)

let set_scheduler t s = t.scheduler <- s

(* [tm] has just left the queue: a cancel from here on is not counted. *)
let exec t at tm =
  t.now <- max t.now at;
  tm.home <- None;
  if tm.alive then tm.action () else t.dead <- t.dead - 1;
  true

(* The earliest event, whose deadline [at] the caller has just read. *)
let exec_min t at = exec t at (Oasis_util.Pqueue.take_min t.queue)

let default_step t =
  (not (Oasis_util.Pqueue.is_empty t.queue)) && exec_min t (Oasis_util.Pqueue.min_prio t.queue)

let step t =
  match t.scheduler with
  | None -> default_step t
  | Some pick -> (
      match events t with
      | [] -> default_step t (* only cancelled timers left: drain them *)
      | evs -> (
          match pick evs with
          | None -> default_step t
          | Some seq -> (
              match Oasis_util.Pqueue.remove_seq t.queue seq with
              | Some (at, tm) -> exec t at tm
              | None -> default_step t (* stale choice; fall back to earliest *))))

let stop t = t.stopped <- true

(* Real-time loop: timers fire when the external clock passes their
   deadline; between deadlines the source waits (dispatching I/O).  The
   single-step scheduler hook does not apply here — adversarial reordering
   is a virtual-time instrument. *)
let run_real t s ?until () =
  t.stopped <- false;
  let continue = ref true in
  while !continue && not t.stopped do
    t.now <- s.src_now ();
    (match until with
    | Some u when t.now >= u -> continue := false
    | _ ->
        (* Fire everything due, refreshing the clock between events so a
           slow handler does not delay noticing later deadlines. *)
        let rec fire () =
          if (not t.stopped) && not (Oasis_util.Pqueue.is_empty t.queue) then begin
            let at = Oasis_util.Pqueue.min_prio t.queue in
            if at <= t.now then begin
              ignore (exec_min t at);
              t.now <- s.src_now ();
              fire ()
            end
          end
        in
        fire ();
        if t.stopped then continue := false
        else
          let deadline =
            if Oasis_util.Pqueue.is_empty t.queue then until
            else
              let at = Oasis_util.Pqueue.min_prio t.queue in
              match until with Some u -> Some (Float.min at u) | None -> Some at
          in
          match deadline with
          | None -> if not (s.src_wait ~until:None) then continue := false
          | Some d -> ignore (s.src_wait ~until:(Some d)))
  done

let run ?until t =
  match t.source with
  | Some s -> run_real t s ?until ()
  | None ->
      let continue = ref true in
      while !continue do
        if Oasis_util.Pqueue.is_empty t.queue then begin
          (match until with Some u when u > t.now -> t.now <- u | _ -> ());
          continue := false
        end
        else
          let at = Oasis_util.Pqueue.min_prio t.queue in
          match until with
          | Some u when at > u ->
              (* With a scheduler installed, [now] may already have run ahead
                 of [until] (the scheduler executes events out of earliest-
                 first order); never move time backwards. *)
              t.now <- max t.now u;
              continue := false
          | _ -> ignore (step t)
      done

let pending t = Oasis_util.Pqueue.length t.queue

let pending_tagged t prefix =
  let plen = String.length prefix in
  List.fold_left
    (fun n (_, _, tm) ->
      if
        tm.alive
        && String.length tm.tag >= plen
        && String.equal (String.sub tm.tag 0 plen) prefix
      then n + 1
      else n)
    0
    (Oasis_util.Pqueue.entries t.queue)
