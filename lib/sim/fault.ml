module Prng = Oasis_util.Prng

type action =
  | Crash of int
  | Restart of int
  | Link_down of int * int
  | Link_up of int * int

type t = {
  engine : Engine.t;
  stats : Stats.t;
  prng : Prng.t;
  down : (int, unit) Hashtbl.t;
  dead_links : (int * int, unit) Hashtbl.t;
  mutable crash_hooks : (int -> unit) list;
  mutable restart_hooks : (int -> unit) list;
}

let create ?(seed = 0xFA17L) engine stats =
  {
    engine;
    stats;
    prng = Prng.create seed;
    down = Hashtbl.create 8;
    dead_links = Hashtbl.create 8;
    crash_hooks = [];
    restart_hooks = [];
  }

(* Every message asks both; nothing is faulted on most runs, so an empty
   table answers without hashing (or, for a link, building its key). *)
let up t addr = Hashtbl.length t.down = 0 || not (Hashtbl.mem t.down addr)
let link_ok t a b = Hashtbl.length t.dead_links = 0 || not (Hashtbl.mem t.dead_links (a, b))

let crash t addr =
  if up t addr then begin
    Hashtbl.replace t.down addr ();
    Stats.incr t.stats "fault.crash";
    List.iter (fun f -> f addr) (List.rev t.crash_hooks)
  end

let restart t addr =
  if not (up t addr) then begin
    Hashtbl.remove t.down addr;
    Stats.incr t.stats "fault.restart";
    List.iter (fun f -> f addr) (List.rev t.restart_hooks)
  end

let link_down t a b =
  if link_ok t a b then begin
    Hashtbl.replace t.dead_links (a, b) ();
    Hashtbl.replace t.dead_links (b, a) ();
    Stats.incr t.stats "fault.link_down"
  end

let link_up t a b =
  if not (link_ok t a b) then begin
    Hashtbl.remove t.dead_links (a, b);
    Hashtbl.remove t.dead_links (b, a);
    Stats.incr t.stats "fault.link_up"
  end

let on_crash t f = t.crash_hooks <- f :: t.crash_hooks
let on_restart t f = t.restart_hooks <- f :: t.restart_hooks

let apply t = function
  | Crash a -> crash t a
  | Restart a -> restart t a
  | Link_down (a, b) -> link_down t a b
  | Link_up (a, b) -> link_up t a b

let script t steps =
  List.iter
    (fun (at, action) -> Engine.schedule_at t.engine ~tag:"f:" ~at (fun () -> apply t action))
    steps

let chaos t ~hosts ~mtbf ~mttr ~until =
  if mtbf <= 0.0 || mttr <= 0.0 then invalid_arg "Fault.chaos: means must be positive";
  List.iter
    (fun addr ->
      let rec cycle at =
        let at_crash = at +. Prng.exponential t.prng ~mean:mtbf in
        if at_crash < until then begin
          let at_restart = at_crash +. Prng.exponential t.prng ~mean:mttr in
          Engine.schedule_at t.engine ~tag:"f:" ~at:at_crash (fun () -> crash t addr);
          Engine.schedule_at t.engine ~tag:"f:" ~at:(min at_restart until) (fun () ->
              restart t addr);
          cycle at_restart
        end
      in
      cycle (Engine.now t.engine))
    hosts
