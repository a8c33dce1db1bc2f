module Prng = Oasis_util.Prng

type latency = Fixed of float | Uniform of float * float | Exponential of float

(* The tags of the engine events that deliver messages to the host
   (["d:" ^ name]) and that fire its callers' timers (["t:" ^ name]), built
   once in [add_host] rather than per message. *)
type host = {
  addr : int;
  name : string;
  clock : Clock.t;
  deliver_tag : string;
  timer_tag : string;
}

(* The remote-transport hook a non-sim backend installs: how to reach a
   named host this process does not own.  The closure owns the wire
   (framing, connections); {!call} owns the timeout and trace-ctx
   discipline, so both backends present identical semantics.  [rm_call]
   returns a function that forgets the call, which the timeout runs. *)
type remote = {
  rm_call :
    src:string ->
    dst:string ->
    port:string ->
    string ->
    ((string, string) result -> unit) ->
    unit ->
    unit;
}

type t = {
  engine : Engine.t;
  stats : Stats.t;
  prng : Prng.t;
  fault : Fault.t;
  trace : Trace.t;
  default_latency : latency;
  link_latency : (int * int, latency) Hashtbl.t;
  mutable loss : float;
  partitions : (int * int, unit) Hashtbl.t;
  mutable hosts : host list;
  mutable next_addr : int;
  bindings : (string * string, string -> ((string, string) result -> unit) -> unit) Hashtbl.t;
      (* (host name, port) -> serialized-request handler *)
  mutable remote : remote option;
}

let create ?(seed = 42L) ?(latency = Fixed 0.002) engine =
  let stats = Stats.create () in
  {
    engine;
    stats;
    prng = Prng.create seed;
    (* The fault plane draws from its own seeded PRNG so chaos schedules
       are independent of message-level randomness. *)
    fault = Fault.create ~seed:(Int64.logxor seed 0xFA17L) engine stats;
    trace = Trace.create (fun () -> Engine.now engine);
    default_latency = latency;
    link_latency = Hashtbl.create 16;
    loss = 0.0;
    partitions = Hashtbl.create 16;
    hosts = [];
    next_addr = 0;
    bindings = Hashtbl.create 16;
    remote = None;
  }

let engine t = t.engine
let stats t = t.stats
let prng t = t.prng
let fault t = t.fault
let trace t = t.trace

let add_host t ?(clock_rate = 1.0) ?(clock_offset = 0.0) name =
  let host =
    {
      addr = t.next_addr;
      name;
      clock = Clock.create ~rate:clock_rate ~offset:clock_offset t.engine;
      deliver_tag = "d:" ^ name;
      timer_tag = "t:" ^ name;
    }
  in
  t.next_addr <- t.next_addr + 1;
  t.hosts <- host :: t.hosts;
  host

let host_name h = h.name
let host_clock h = h.clock
let host_addr h = h.addr
let find_host t name = List.find_opt (fun h -> String.equal h.name name) t.hosts
let set_link_latency t src dst l = Hashtbl.replace t.link_latency (src.addr, dst.addr) l

let set_loss t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Net.set_loss: probability out of range";
  t.loss <- p

let partition t a b =
  Hashtbl.replace t.partitions (a.addr, b.addr) ();
  Hashtbl.replace t.partitions (b.addr, a.addr) ()

let heal t a b =
  Hashtbl.remove t.partitions (a.addr, b.addr);
  Hashtbl.remove t.partitions (b.addr, a.addr)

let partitioned t a b = Hashtbl.mem t.partitions (a.addr, b.addr)

(* --- host lifecycle (delegated to the fault plane) --- *)

let host_up t h = Fault.up t.fault h.addr
let crash_host t h = Fault.crash t.fault h.addr
let restart_host t h = Fault.restart t.fault h.addr

let on_crash t h f =
  Fault.on_crash t.fault (fun addr -> if addr = h.addr then f ())

let on_restart t h f =
  Fault.on_restart t.fault (fun addr -> if addr = h.addr then f ())

let sample_latency t src dst =
  let model =
    match Hashtbl.find_opt t.link_latency (src.addr, dst.addr) with
    | Some l -> l
    | None -> t.default_latency
  in
  match model with
  | Fixed d -> d
  | Uniform (lo, hi) -> Prng.uniform_in t.prng ~lo ~hi
  | Exponential mean -> 0.001 +. Prng.exponential t.prng ~mean

let account t category size =
  Stats.incr t.stats category;
  Stats.add_bytes t.stats category size

let send t ?(category = "msg") ?(size = 64) ~src ~dst action =
  account t category size;
  (* The ambient trace context at send time rides the message and is
     restored around delivery, so causality survives the latency queue. *)
  let ctx = Trace.current t.trace in
  if not (Fault.up t.fault src.addr) then
    (* A crashed host emits nothing (fail-stop). *)
    Stats.incr t.stats (category ^ ".dead")
  else
    (* Liveness of the destination is re-checked at delivery time, so a
       message in flight when its destination crashes is lost too. *)
    let deliver () =
      if Fault.up t.fault dst.addr then Trace.with_ctx t.trace ctx action
      else Stats.incr t.stats (category ^ ".dead")
    in
    if src.addr = dst.addr then
      Engine.schedule t.engine ~tag:dst.deliver_tag ~delay:0.0 deliver
    else if partitioned t src dst || not (Fault.link_ok t.fault src.addr dst.addr) then
      Stats.incr t.stats (category ^ ".partitioned")
    else if t.loss > 0.0 && Prng.float t.prng 1.0 < t.loss then
      Stats.incr t.stats (category ^ ".lost")
    else
      Engine.schedule t.engine ~tag:dst.deliver_tag ~delay:(sample_latency t src dst) deliver

(* The general request/response shape: the handler runs at [dst] and is
   handed a [reply] closure it may call later, from any engine event —
   which is what asynchronous servers (WAL group commit, nested RPCs)
   need.  [rpc] specialises this to handlers that answer inline.

   The caller's continuation waits in [pending], which the reply or the
   timeout empties, whichever comes first.  An answered call's timeout is
   not cancelled: a cancelled timer drops out of [Engine.events], which
   the model checker branches on and fingerprints. *)
let rpc_async t ?(category = "rpc") ?size ?(timeout = 2.0) ~src ~dst handler k =
  let pending = ref (Some k) in
  let ctx = Trace.current t.trace in
  Engine.schedule t.engine ~tag:src.timer_tag ~delay:timeout (fun () ->
      match !pending with
      | None -> ()
      | Some k ->
          pending := None;
          Stats.incr t.stats (category ^ ".timeout");
          (* The timeout continuation belongs to the caller's causal chain
             even though no message carried it. *)
          Trace.with_ctx t.trace ctx (fun () -> k (Error "timeout")));
  send t ~category ?size ~src ~dst (fun () ->
      handler (fun result ->
          send t ~category:(category ^ ".reply") ?size ~src:dst ~dst:src (fun () ->
              match !pending with
              | None ->
                  (* The caller already gave up: the server-side effects stand
                     but the answer is discarded.  Experiments need to see how
                     often this happens (retried requests must be idempotent). *)
                  Stats.incr t.stats (category ^ ".late_reply")
              | Some k ->
                  pending := None;
                  k result)))

let rpc t ?category ?size ?timeout ~src ~dst handler k =
  rpc_async t ?category ?size ?timeout ~src ~dst (fun reply -> reply (handler ())) k

(* The cap on one retry's backoff, before jitter. *)
let max_backoff = 8.0

let retry_loop t ~category ?(attempts = 5) ?(backoff = 0.25) ~src once k =
  if attempts < 1 then invalid_arg "Net.rpc_retry: attempts must be >= 1";
  let ctx = Trace.current t.trace in
  let rec go n =
    Stats.incr t.stats (category ^ ".attempt");
    once (function
      | Error "timeout" when n + 1 < attempts ->
          (* Exponential backoff with deterministic (seeded) jitter to
             decorrelate retry storms. *)
          let base = Float.min max_backoff (backoff *. (2.0 ** float_of_int n)) in
          let jitter = Prng.uniform_in t.prng ~lo:0.0 ~hi:(base *. 0.25) in
          Engine.schedule t.engine ~tag:src.timer_tag ~delay:(base +. jitter) (fun () ->
              Trace.with_ctx t.trace ctx (fun () -> go (n + 1)))
      | Error "timeout" ->
          Stats.incr t.stats (category ^ ".giveup");
          k (Error "timeout")
      | result -> k result)
  in
  go 0

let rpc_retry t ?(category = "rpc") ?size ?(timeout = 2.0) ?attempts ?backoff ~src ~dst handler k =
  retry_loop t ~category ?attempts ?backoff ~src
    (fun k1 -> rpc t ~category ?size ~timeout ~src ~dst handler k1)
    k

let rpc_async_retry t ?(category = "rpc") ?size ?(timeout = 2.0) ?attempts ?backoff ~src ~dst
    handler k =
  retry_loop t ~category ?attempts ?backoff ~src
    (fun k1 -> rpc_async t ~category ?size ~timeout ~src ~dst handler k1)
    k

(* --- named-port messaging (the backend-portable RPC surface) --- *)

let set_remote t rm = t.remote <- rm

let bind t host ~port handler = Hashtbl.replace t.bindings (host.name, port) handler

let dispatch t ~dst ~port payload reply =
  match Hashtbl.find_opt t.bindings (dst, port) with
  | Some handler -> handler payload reply
  | None -> reply (Error (Printf.sprintf "no handler bound at %s:%s" dst port))

let call t ?(category = "call") ?size ?(timeout = 2.0) ~src ~dst ~port payload k =
  let size = match size with Some s -> s | None -> String.length payload + 64 in
  match find_host t dst with
  | Some dh ->
      (* Both endpoints live in this process: the request rides the
         ordinary (sim-latency, loss, partition, fault-aware) rpc path. *)
      rpc_async t ~category ~size ~timeout ~src ~dst:dh
        (fun reply -> dispatch t ~dst ~port payload reply)
        k
  | None -> (
      match t.remote with
      | None ->
          Engine.schedule t.engine ~tag:src.timer_tag ~delay:0.0 (fun () ->
              k (Error ("unknown host: " ^ dst)))
      | Some rm ->
          account t category size;
          let done_ = ref false in
          let forget = ref ignore in
          let ctx = Trace.current t.trace in
          (* Cancelled when the reply lands, so a completed call does not
             keep its continuation queued for the rest of the timeout; on
             timeout the transport forgets the call. *)
          let timer =
            Engine.timer t.engine ~tag:src.timer_tag ~delay:timeout (fun () ->
                if not !done_ then begin
                  done_ := true;
                  !forget ();
                  Stats.incr t.stats (category ^ ".timeout");
                  Trace.with_ctx t.trace ctx (fun () -> k (Error "timeout"))
                end)
          in
          forget :=
            rm.rm_call ~src:src.name ~dst ~port payload (fun result ->
                if !done_ then Stats.incr t.stats (category ^ ".late_reply")
                else begin
                  done_ := true;
                  Engine.cancel timer;
                  Trace.with_ctx t.trace ctx (fun () -> k result)
                end))

let call_retry t ?(category = "call") ?size ?(timeout = 2.0) ?attempts ?backoff ~src ~dst ~port
    payload k =
  retry_loop t ~category ?attempts ?backoff ~src
    (fun k1 -> call t ~category ?size ~timeout ~src ~dst ~port payload k1)
    k
