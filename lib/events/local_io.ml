module Pqueue = Oasis_util.Pqueue

type sub = {
  sub_tpl : Event.template;
  sub_cb : Event.t -> unit;
  mutable sub_live : bool;
}

type t = {
  mutable time : float;
  clock_uncertainty : float;
  retention : float;
  mutable subs : sub list;
  mutable retained : (float * Event.t) list;  (* newest first *)
  timers : (unit -> unit) Pqueue.t;
  horizons : (string, float) Hashtbl.t;  (* source -> horizon *)
  held : (string, unit) Hashtbl.t;
  mutable horizon_watchers : (unit -> unit) list;
}

let create ?(clock_uncertainty = 0.0) ?(retention = 1_000_000.0) () =
  {
    time = 0.0;
    clock_uncertainty;
    retention;
    subs = [];
    retained = [];
    timers = Pqueue.create ~vacant:ignore;
    horizons = Hashtbl.create 4;
    held = Hashtbl.create 4;
    horizon_watchers = [];
  }

let now t = t.time

let source_horizon t source =
  match Hashtbl.find_opt t.horizons source with Some h -> h | None -> t.time

let fire_horizon_watchers t = List.iter (fun f -> f ()) t.horizon_watchers

let advance_unheld t =
  Hashtbl.iter
    (fun source h ->
      if (not (Hashtbl.mem t.held source)) && h < t.time then
        Hashtbl.replace t.horizons source t.time)
    t.horizons

let set_time t at =
  if at < t.time then invalid_arg "Local_io.set_time: time cannot go backwards";
  while (not (Pqueue.is_empty t.timers)) && Pqueue.min_prio t.timers <= at do
    let due = Pqueue.min_prio t.timers in
    let action = Pqueue.take_min t.timers in
    t.time <- max t.time due;
    action ()
  done;
  t.time <- at;
  advance_unheld t;
  fire_horizon_watchers t

let signal t ?(source = "local") ?stamp name params =
  let stamp = match stamp with Some s -> s | None -> t.time in
  let e = Event.make ~name ~source ~stamp ~seq:(List.length t.retained) params in
  t.retained <- (t.time, e) :: List.filter (fun (tm, _) -> t.time -. tm <= t.retention) t.retained;
  if not (Hashtbl.mem t.held source) then begin
    let h = max (source_horizon t source) stamp in
    Hashtbl.replace t.horizons source h
  end
  else if not (Hashtbl.mem t.horizons source) then Hashtbl.replace t.horizons source 0.0;
  List.iter (fun sub -> if sub.sub_live && Event.matches sub.sub_tpl e <> None then sub.sub_cb e) t.subs;
  fire_horizon_watchers t;
  e

let hold_horizon t source =
  Hashtbl.replace t.held source ();
  if not (Hashtbl.mem t.horizons source) then Hashtbl.replace t.horizons source t.time

let release_horizon t source =
  Hashtbl.remove t.held source;
  Hashtbl.replace t.horizons source t.time;
  fire_horizon_watchers t

let io t =
  {
    Bead.subscribe =
      (fun tpl ~since cb ->
        let sub = { sub_tpl = tpl; sub_cb = cb; sub_live = true } in
        t.subs <- sub :: t.subs;
        (* Retrospective replay, oldest first. *)
        List.iter
          (fun (_, e) ->
            if sub.sub_live && e.Event.stamp >= since && Event.matches tpl e <> None then cb e)
          (List.rev t.retained);
        fun () ->
          sub.sub_live <- false;
          t.subs <- List.filter (fun s -> s != sub) t.subs);
    io_horizon =
      (fun tpls ->
        (* Min over the sources each template could match.  Unpinned
           templates cover every known source. *)
        let horizon_of tpl =
          match tpl.Event.tsource with
          | Some source -> source_horizon t source
          | None ->
              Hashtbl.fold (fun source _ acc -> min acc (source_horizon t source)) t.horizons t.time
        in
        List.fold_left (fun acc tpl -> min acc (horizon_of tpl)) infinity tpls);
    on_horizon =
      (fun f ->
        let live = ref true in
        let watcher () = if !live then f () in
        t.horizon_watchers <- watcher :: t.horizon_watchers;
        fun () -> live := false);
    io_now = (fun () -> t.time);
    io_after = (fun delay action -> ignore (Pqueue.push t.timers (t.time +. delay) action));
    clock_uncertainty = t.clock_uncertainty;
  }
