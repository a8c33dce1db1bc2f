module Pqueue = Oasis_util.Pqueue

type held = { h_event : Event.t; h_cb : Event.t -> unit; h_live : bool ref }

let wrap (io : Bead.io) : Bead.io =
  let buffer =
    Pqueue.create
      ~vacant:{ h_event = Event.make ~name:"" ~source:"" []; h_cb = ignore; h_live = ref false }
  in
  (* The global horizon: a template with no source pin covers all sources. *)
  let any_template = Event.template "(any)" [] in
  let global_horizon () = io.Bead.io_horizon [ any_template ] in
  let release () =
    let h = global_horizon () in
    while (not (Pqueue.is_empty buffer)) && Pqueue.min_prio buffer <= h do
      let held = Pqueue.take_min buffer in
      if !(held.h_live) then held.h_cb held.h_event
    done
  in
  let _unsub = io.Bead.on_horizon release in
  {
    io with
    Bead.subscribe =
      (fun tpl ~since cb ->
        let live = ref true in
        let unsub =
          io.Bead.subscribe tpl ~since (fun e ->
              if !live then begin
                Pqueue.push buffer e.Event.stamp { h_event = e; h_cb = cb; h_live = live };
                release ()
              end)
        in
        fun () ->
          live := false;
          unsub ());
    io_horizon = (fun _ -> global_horizon ());
  }
