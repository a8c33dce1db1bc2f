module Net = Oasis_sim.Net
module Engine = Oasis_sim.Engine
module Stats = Oasis_sim.Stats
module Prng = Oasis_util.Prng

(* One byte file: [data] is everything ever appended this incarnation,
   [synced] the length of the durable prefix.  A crash truncates [data] to
   [synced] plus a seeded-random surviving prefix of the unsynced tail, then
   marks the survivor durable — the classic torn final write. *)
type file = { mutable data : Buffer.t; mutable synced : int }

type sim = {
  d_files : (string, file) Hashtbl.t;
  mutable d_epoch : int;  (* bumped on crash: in-flight flushes die *)
}

(* A real stable-storage device, injected by a backend ([lib/backend]):
   the same contract as the simulated device — [o_append] buffers,
   [o_fsync] makes the buffered prefix durable and calls back (possibly
   synchronously), [o_read] returns the durable prefix only — against
   actual files.  Keeping it a closure record keeps [lib/store] free of
   any unix dependency. *)
type ops = {
  o_append : file:string -> string -> unit;
  o_fsync : file:string -> (unit -> unit) -> unit;
  o_write_atomic : file:string -> string -> (unit -> unit) -> unit;
  o_truncate : file:string -> unit;
  o_read : file:string -> string;
  o_durable_size : file:string -> int;
  o_unsynced : file:string -> int;
  o_scan_delay : bytes:int -> float;
  o_files : unit -> string list;
}

type impl = Sim of sim | Ops of ops

type t = { d_net : Net.t; d_host : Net.host; d_impl : impl }

let stats t = Net.stats t.d_net
let host t = t.d_host
let net t = t.d_net
let real t = match t.d_impl with Ops _ -> true | Sim _ -> false

let file s name =
  match Hashtbl.find_opt s.d_files name with
  | Some f -> f
  | None ->
      let f = { data = Buffer.create 256; synced = 0 } in
      Hashtbl.add s.d_files name f;
      f

(* The simulated device's costs: a flush's base cost in seconds, and the
   write and sequential recovery-scan throughputs in bytes per second. *)
let fsync_latency = 5e-4
let write_bandwidth = 1e8
let read_bandwidth = 2e8

let create net host =
  let s = { d_files = Hashtbl.create 4; d_epoch = 0 } in
  let t = { d_net = net; d_host = host; d_impl = Sim s } in
  Net.on_crash net host (fun () ->
      s.d_epoch <- s.d_epoch + 1;
      let prng = Net.prng net in
      Hashtbl.iter
        (fun _ f ->
          let len = Buffer.length f.data in
          let pending = len - f.synced in
          if pending > 0 then begin
            (* A random prefix of the unsynced tail reached the platter. *)
            let keep = Prng.int prng (pending + 1) in
            let survivor = Buffer.sub f.data 0 (f.synced + keep) in
            let b = Buffer.create (String.length survivor + 256) in
            Buffer.add_string b survivor;
            f.data <- b;
            f.synced <- f.synced + keep;
            Stats.add_bytes (stats t) "store.crash.lost" (pending - keep);
            if keep > 0 && keep < pending then Stats.incr (stats t) "store.crash.torn"
          end)
        s.d_files);
  t

let create_ops net host ops = { d_net = net; d_host = host; d_impl = Ops ops }

let append t ~file:name data =
  match t.d_impl with
  | Ops o ->
      o.o_append ~file:name data;
      Stats.observe (stats t) "store.write" (String.length data)
  | Sim s ->
      if Net.host_up t.d_net t.d_host then begin
        let f = file s name in
        Buffer.add_string f.data data;
        Stats.observe (stats t) "store.write" (String.length data)
      end

let flush_delay pending = fsync_latency +. (float_of_int pending /. write_bandwidth)

let fsync t ~file:name k =
  match t.d_impl with
  | Ops o ->
      (* Real device: the flush happens now (synchronously); the histogram
         records the measured wall-clock cost, read off the engine's
         backend clock. *)
      let engine = Net.engine t.d_net in
      let before = Engine.now engine in
      o.o_fsync ~file:name (fun () ->
          Stats.incr (stats t) "store.fsync";
          Stats.observe_latency (stats t) "store.fsync" (Engine.now engine -. before);
          k ())
  | Sim s ->
      if Net.host_up t.d_net t.d_host then begin
        let f = file s name in
        let target = Buffer.length f.data in
        let pending = target - f.synced in
        let epoch = s.d_epoch in
        let delay = flush_delay pending in
        Engine.schedule (Net.engine t.d_net) ~tag:("s:" ^ Net.host_name t.d_host) ~delay
          (fun () ->
            if epoch = s.d_epoch && Net.host_up t.d_net t.d_host then begin
              if target > f.synced then f.synced <- target;
              Stats.incr (stats t) "store.fsync";
              Stats.observe_latency (stats t) "store.fsync" delay;
              k ()
            end)
      end

let write_atomic t ~file:name data k =
  match t.d_impl with
  | Ops o ->
      let engine = Net.engine t.d_net in
      let before = Engine.now engine in
      Stats.observe (stats t) "store.write" (String.length data);
      o.o_write_atomic ~file:name data (fun () ->
          Stats.incr (stats t) "store.fsync";
          Stats.observe_latency (stats t) "store.fsync" (Engine.now engine -. before);
          k ())
  | Sim s ->
      if Net.host_up t.d_net t.d_host then begin
        let f = file s name in
        let epoch = s.d_epoch in
        let baseline = Buffer.length f.data in
        let delay = flush_delay (String.length data) in
        Stats.observe (stats t) "store.write" (String.length data);
        Engine.schedule (Net.engine t.d_net) ~tag:("s:" ^ Net.host_name t.d_host) ~delay
          (fun () ->
            if epoch = s.d_epoch && Net.host_up t.d_net t.d_host then begin
              (* The rename lands: everything that existed at the call is
                 replaced in one step.  Bytes appended while the write was in
                 flight are preserved after the new contents (the compacting
                 caller wrote a temp file, renamed it, then re-appended the
                 journal tail) — without this, a log compaction racing live
                 appends would silently drop records. *)
              let tail = Buffer.sub f.data baseline (Buffer.length f.data - baseline) in
              let synced_tail = max 0 (f.synced - baseline) in
              let b = Buffer.create (String.length data + String.length tail + 256) in
              Buffer.add_string b data;
              Buffer.add_string b tail;
              f.data <- b;
              f.synced <- String.length data + synced_tail;
              Stats.incr (stats t) "store.fsync";
              Stats.observe_latency (stats t) "store.fsync" delay;
              k ()
            end)
      end

let truncate t ~file:name =
  (match t.d_impl with
  | Ops o -> o.o_truncate ~file:name
  | Sim s ->
      let f = file s name in
      f.data <- Buffer.create 256;
      f.synced <- 0);
  Stats.incr (stats t) "store.truncate"

let read t ~file:name =
  match t.d_impl with
  | Ops o -> o.o_read ~file:name
  | Sim s ->
      let f = file s name in
      Buffer.sub f.data 0 f.synced

let durable_size t ~file:name =
  match t.d_impl with Ops o -> o.o_durable_size ~file:name | Sim s -> (file s name).synced

let unsynced t ~file:name =
  match t.d_impl with
  | Ops o -> o.o_unsynced ~file:name
  | Sim s ->
      let f = file s name in
      Buffer.length f.data - f.synced

let scan_delay t ~bytes =
  match t.d_impl with
  | Ops o -> o.o_scan_delay ~bytes
  | Sim _ -> fsync_latency +. (float_of_int bytes /. read_bandwidth)

let files t =
  match t.d_impl with
  | Ops o -> List.sort String.compare (o.o_files ())
  | Sim s -> Hashtbl.fold (fun k _ acc -> k :: acc) s.d_files [] |> List.sort String.compare

let fp_key = Oasis_util.Siphash.key_of_string "oasis.disk.fingerprint"

let fingerprint t =
  let b = Buffer.create 256 in
  List.iter
    (fun name ->
      Buffer.add_string b name;
      Buffer.add_char b '\x00';
      Buffer.add_string b (string_of_int (durable_size t ~file:name));
      Buffer.add_char b '\x00';
      (match t.d_impl with
      | Ops o -> Buffer.add_string b (o.o_read ~file:name)
      | Sim s -> Buffer.add_buffer b (file s name).data);
      Buffer.add_char b '\x01')
    (files t);
  Oasis_util.Siphash.hash fp_key (Buffer.contents b)
