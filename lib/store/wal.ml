module Net = Oasis_sim.Net
module Engine = Oasis_sim.Engine
module Stats = Oasis_sim.Stats
module Siphash = Oasis_util.Siphash
module Frame = Oasis_util.Frame

type t = {
  w_disk : Disk.t;
  w_file : string;
  w_key : Siphash.key;
  w_fsync_each : bool;
  mutable w_pending_bytes : int;
  mutable w_pending_records : int;
  mutable w_armed : bool;  (* a timer-tick flush is scheduled *)
  mutable w_on_durable : (unit -> unit) list;  (* reverse order *)
  mutable w_appended : int;
  mutable w_observer : (string -> unit) option;
      (* replication ship hook: sees every payload entering the log via
         [append] (the authoritative stream), but NOT via
         [follower_append] — records arriving from the stream must not
         re-enter it *)
}

let key file = Siphash.key_of_string ("oasis.wal:" ^ file)
let frame_with ~key:file payload = Frame.encode (key file) payload

let decode_with ~key:file bytes = Frame.decode (key file) bytes

let stats t = Net.stats (Disk.net t.w_disk)

(* Group commit fires once this many bytes are pending, or this many
   seconds after the first uncommitted append, whichever comes first. *)
let flush_bytes = 16384
let flush_interval = 0.05

let create disk ~file ?(fsync_each = false) () =
  let t =
    {
      w_disk = disk;
      w_file = file;
      w_key = key file;
      w_fsync_each = fsync_each;
      w_pending_bytes = 0;
      w_pending_records = 0;
      w_armed = false;
      w_on_durable = [];
      w_appended = 0;
      w_observer = None;
    }
  in
  (* The device already tears/loses the buffered bytes on crash; the log's
     own job is to forget the commit bookkeeping for them. *)
  Net.on_crash (Disk.net disk) (Disk.host disk) (fun () ->
      t.w_pending_bytes <- 0;
      t.w_pending_records <- 0;
      t.w_on_durable <- []);
  t

let file t = t.w_file
let disk t = t.w_disk
let appended t = t.w_appended

let flush t =
  if t.w_pending_records > 0 then begin
    let records = t.w_pending_records in
    let callbacks = List.rev t.w_on_durable in
    t.w_pending_bytes <- 0;
    t.w_pending_records <- 0;
    t.w_on_durable <- [];
    Stats.observe (stats t) "store.fsync.batch" records;
    Disk.fsync t.w_disk ~file:t.w_file (fun () -> List.iter (fun k -> k ()) callbacks)
  end

let append_common t ?on_durable ~notify payload =
  let framed = Frame.encode t.w_key payload in
  Disk.append t.w_disk ~file:t.w_file framed;
  t.w_appended <- t.w_appended + 1;
  t.w_pending_bytes <- t.w_pending_bytes + String.length framed;
  t.w_pending_records <- t.w_pending_records + 1;
  (match on_durable with Some k -> t.w_on_durable <- k :: t.w_on_durable | None -> ());
  Stats.observe (stats t) "store.wal.append" (String.length framed);
  (if notify then match t.w_observer with Some obs -> obs payload | None -> ());
  if t.w_fsync_each || t.w_pending_bytes >= flush_bytes then flush t
  else if not t.w_armed then begin
    (* One-shot arming: the first uncommitted append starts the clock; the
       tick commits everything that accumulated behind it. *)
    t.w_armed <- true;
    Engine.schedule
      (Net.engine (Disk.net t.w_disk))
      ~tag:("s:" ^ Net.host_name (Disk.host t.w_disk))
      ~delay:flush_interval
      (fun () ->
        t.w_armed <- false;
        flush t)
  end

let append t ?on_durable payload = append_common t ?on_durable ~notify:true payload
let follower_append t payload = append_common t ~notify:false payload
let on_append t obs = t.w_observer <- obs

let sync t k =
  if t.w_pending_records = 0 then k ()
  else begin
    t.w_on_durable <- k :: t.w_on_durable;
    flush t
  end

let truncate t =
  t.w_pending_bytes <- 0;
  t.w_pending_records <- 0;
  t.w_on_durable <- [];
  Disk.truncate t.w_disk ~file:t.w_file

let rewrite t records k =
  (* Buffered APPENDS may legally race a rewrite (the compacting callers
     re-include them in [records] via their own tail bookkeeping, and
     [Disk.write_atomic] preserves bytes appended while the replace is in
     flight), but buffered DURABILITY CALLBACKS may not: the rewrite
     forgets the commit bookkeeping, so a pending callback would be a
     client ack silently dropped.  Callers with commit traffic
     ([Replica]'s repair/adoption paths) must [sync] first; surface a
     violation instead of losing the ack. *)
  if t.w_on_durable <> [] then
    invalid_arg
      (Printf.sprintf "Wal.rewrite %s: %d durability callback(s) pending (sync first)"
         t.w_file
         (List.length t.w_on_durable));
  t.w_pending_bytes <- 0;
  t.w_pending_records <- 0;
  Disk.write_atomic t.w_disk ~file:t.w_file (Frame.encode_all t.w_key records) k

let recover t =
  let bytes = Disk.read t.w_disk ~file:t.w_file in
  let records = Frame.decode t.w_key bytes in
  let st = stats t in
  Stats.incr st "store.recover";
  Stats.add_bytes st "store.recover" (String.length bytes);
  Stats.observe (st : Stats.t) "store.recover.records" (List.length records);
  Stats.observe_latency st "store.recover" (Disk.scan_delay t.w_disk ~bytes:(String.length bytes));
  records
