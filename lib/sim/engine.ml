type event = { ev_at : float; ev_seq : int; ev_tag : string }

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

(* An engine event.  [state] folds where the event is into one int: a
   [timer]'s handle in [queue] while it is queued ([>= 0]), [idle] when it
   is live but not queued or not tracked (a [schedule]d event, which no
   caller can cancel; a timer that fired; [every]'s handle, never queued)
   and [cancelled_state].  [home] is the engine's preallocated [Some t] for a
   [timer], so [cancel] reaches its queue, and [None] otherwise. *)
type timer = {
  mutable state : int;
  mutable action : unit -> unit;
  tag : string;
  home : t option;
}

and t = {
  mutable now : float;
  queue : timer Oasis_util.Pqueue.t;
  self : t option;  (* [Some t], every timer's [home] *)
  source : source option;
  mutable stopped : bool;
}

let idle = -1
let cancelled_state = -2

(* What a queue slot holds when no event occupies it. *)
let vacant_timer = { state = idle; action = ignore; tag = ""; home = None }

let create ?source () =
  let queue = Oasis_util.Pqueue.create ~vacant:vacant_timer in
  let rec t = { now = 0.0; queue; self = Some t; source; stopped = false } in
  t

let now t = match t.source with Some s -> s.src_now () | None -> t.now

(* [Stdlib.max] on floats, compared directly rather than through the
   polymorphic compare. *)
let[@inline] fmax (a : float) b = if a >= b then a else b

let real_time t = t.source <> None

let schedule_at t ?(tag = "") ~at action =
  let at =
    let n = now t in
    if at < n then n else at
  in
  ignore (Oasis_util.Pqueue.push t.queue at { state = idle; action; tag; home = None })

let schedule t ?tag ~delay action = schedule_at t ?tag ~at:(now t +. delay) action

let timer t ?(tag = "") ~delay action =
  let at = now t +. fmax 0.0 delay in
  let tm = { state = idle; action; tag; home = t.self } in
  tm.state <- Oasis_util.Pqueue.push t.queue at tm;
  tm

let cancel tm =
  if tm.state <> cancelled_state then begin
    (match tm.home with
    | Some t when tm.state >= 0 -> Oasis_util.Pqueue.remove t.queue tm.state
    | _ -> ());
    tm.state <- cancelled_state;
    tm.action <- ignore
  end

let cancelled tm = tm.state = cancelled_state

let every t ?tag ~period action =
  if period <= 0.0 then invalid_arg "Engine.every: period must be positive";
  (* The handle returned to the caller is distinct from the queued one-shot
     timers: cancelling it suppresses all future firings. *)
  let handle = { state = idle; action = ignore; tag = ""; home = None } in
  let rec arm () =
    schedule t ?tag ~delay:period (fun () ->
        if not (cancelled handle) then begin
          action ();
          if not (cancelled handle) then arm ()
        end)
  in
  arm ();
  handle

let events t =
  List.map
    (fun (at, seq, tm) -> { ev_at = at; ev_seq = seq; ev_tag = tm.tag })
    (Oasis_util.Pqueue.entries t.queue)

let next_at t =
  if Oasis_util.Pqueue.is_empty t.queue then None else Some (Oasis_util.Pqueue.min_prio t.queue)

(* [tm] has just left the queue: a cancel from here on leaves the queue
   alone.  Only live events are queued. *)
let exec t at tm =
  t.now <- fmax t.now at;
  tm.state <- idle;
  tm.action ()

(* The earliest event, whose deadline [at] the caller has just read. *)
let exec_min t at = exec t at (Oasis_util.Pqueue.take_min t.queue)

let step t =
  if Oasis_util.Pqueue.is_empty t.queue then false
  else begin
    exec_min t (Oasis_util.Pqueue.min_prio t.queue);
    true
  end

let step_seq t seq =
  match Oasis_util.Pqueue.remove_seq t.queue seq with
  | Some (at, tm) -> exec t at tm
  | None -> invalid_arg "Engine.step_seq: no queued event has this sequence"

let stop t = t.stopped <- true

(* Real-time loop: timers fire when the external clock passes their
   deadline; between deadlines the source waits (dispatching I/O). *)
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
              exec_min t at;
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
              (* A caller that ran a later event first ([step_seq]) may
                 have moved [now] past [until]; never move time backwards. *)
              t.now <- fmax t.now u;
              continue := false
          | _ -> exec_min t at
      done

let pending t = Oasis_util.Pqueue.length t.queue

let pending_tagged t prefix =
  let plen = String.length prefix in
  List.fold_left
    (fun n (_, _, tm) ->
      if String.length tm.tag >= plen && String.equal (String.sub tm.tag 0 plen) prefix then n + 1
      else n)
    0
    (Oasis_util.Pqueue.entries t.queue)
