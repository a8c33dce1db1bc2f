(* Per-layer costs, measured from outside the program: counters the
   stack already keeps in [Oasis_sim.Stats], and probes that call one
   layer's public functions on the workload's own inputs. *)

open Common
module Net = Oasis_sim.Net
module Engine = Oasis_sim.Engine
module Stats = Oasis_sim.Stats
module Backend = Oasis_backend.Backend
module Backend_sim = Oasis_backend.Backend_sim
module Backend_unix = Oasis_backend.Backend_unix
module Service = Oasis_core.Service
module Shard = Oasis_core.Shard
module Remote = Oasis_core.Remote
module Principal = Oasis_core.Principal
module Cert = Oasis_core.Cert
module Wal = Oasis_store.Wal
module Signing = Oasis_util.Signing
module V = Oasis_rdl.Value

let ok what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)

(* ---- counters ---------------------------------------------------- *)

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let is_accounting s =
  List.exists
    (fun suf ->
      let n = String.length s and m = String.length suf in
      n >= m && String.sub s (n - m) m = suf)
    [ ".attempt"; ".giveup"; ".timeout"; ".late_reply"; ".dead"; ".lost"; ".partitioned" ]

(* [client_calls]: client requests the workload made in the timed phase;
   [seconds]: the phase's length in the deployment's own clock. *)
let counters st ~ops ~seconds ~client_calls =
  let c = Stats.count st and by = Stats.bytes st in
  let fops = float_of_int (max 1 ops) in
  let per x = float_of_int x /. fops in
  let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b) in
  let family p f =
    List.fold_left
      (fun acc cat -> if has_prefix p cat && not (is_accounting cat) then acc + f cat else acc)
      0 (Stats.categories st)
  in
  let wire_cats = [ "oasis.client"; "oasis.router.forward" ] in
  let retries =
    List.fold_left
      (fun acc cat -> acc + c (cat ^ ".timeout") + c (cat ^ ".late_reply") + c (cat ^ ".giveup"))
      0 wire_cats
    + max 0 (c "oasis.client.attempt" - client_calls)
  in
  let appends = c "store.wal.append" and fsyncs = c "store.fsync" in
  let flushes = c "oasis.mods.flush" in
  [
    metric "backend_unix.calls_per_op" "count"
      (per (c "oasis.client.attempt" + c "oasis.router.forward.attempt"));
    metric "remote.bytes_per_op" "B" (per (List.fold_left (fun a cat -> a + by cat) 0 wire_cats));
    metric "remote.retries" "count" (float_of_int retries);
    metric "rdl.residual_hit_ratio" "ratio" (ratio (c "oasis.residual.hit") (c "oasis.residual.miss"));
    metric "sigcache.hit_ratio" "ratio" (ratio (c "oasis.sigcache.hit") (c "oasis.sigcache.miss"));
    metric "wal.appends_per_op" "count" (per appends);
    metric "wal.bytes_per_op" "B" (per (by "store.wal.append"));
    metric "wal.appends_per_fsync" "count"
      (if fsyncs = 0 then 0.0 else float_of_int appends /. float_of_int fsyncs);
    metric "snapshot.per_kop" "count" (1000.0 *. per (c "store.snapshot"));
    metric "snapshot.bytes_per_op" "B" (per (by "store.snapshot"));
    metric "broker.flushes_per_s" "1/s" (float_of_int flushes /. seconds);
    metric "broker.items_per_flush" "count"
      (if flushes = 0 then 0.0 else float_of_int (by "oasis.mods.flush") /. float_of_int flushes);
    metric "evt.msgs_per_op" "count" (per (family "evt." c));
    metric "replica.msgs_per_op" "count" (per (family "repl." c));
    metric "replica.bytes_per_op" "B" (per (family "repl." by));
  ]

(* Mean size of one journalled record, the size the WAL probe frames. *)
let record_bytes st =
  let n = Stats.count st "store.wal.append" in
  if n = 0 then 128 else max 1 (Stats.bytes st "store.wal.append" / n)

(* ---- probes ------------------------------------------------------ *)

(* Router-answered ping round trips at one in flight, in seconds. *)
let ping_rtts ~engine ~backend client n =
  let s = Samples.create () in
  let rec go k finish =
    if k = 0 then finish ()
    else begin
      let t0 = Engine.now engine in
      Remote.Client.ping client (function
        | Error e -> failwith ("ping probe: " ^ e)
        | Ok () ->
            Samples.add s (Engine.now engine -. t0);
            go (k - 1) finish)
    end
  in
  Engine.schedule engine ~delay:0.0 (fun () -> go n (fun () -> Backend.stop backend));
  let guard = Engine.timer engine ~delay:30.0 (fun () -> Backend.stop backend) in
  Backend.run backend;
  Engine.cancel guard;
  if Samples.length s < n then failwith "ping probe: stalled";
  Samples.to_array s

(* A router alone on loopback TCP, for workloads without a wire
   deployment of their own. *)
let standalone_hop n =
  with_dir "hop" (fun dir ->
      let b = Backend_unix.create ~data_dir:dir () in
      let backend = Backend_unix.pack b in
      let net = Backend.net backend and engine = Backend.engine backend in
      Fun.protect
        ~finally:(fun () -> Backend_unix.shutdown b)
        (fun () ->
          let port = Backend_unix.listen b () in
          let rh = Net.add_host net "h.hop.router" in
          ignore
            (Remote.serve_router net rh ~ring:(Shard.Ring.make ~shards:1 ())
               ~shards:[| "wire.hop.none" |]);
          Backend_unix.peer b ~name:"wire.hop.router" ~port;
          Backend_unix.alias b ~name:"wire.hop.router" ~local:"h.hop.router";
          let ch = Net.add_host net "h.hop.client" in
          ping_rtts ~engine ~backend (Remote.Client.create net ch ~router:"wire.hop.router") n))

(* JSON codec cost of one op: every request and reply document of the op
   rendered and parsed once. *)
let codec_us (docs : J.t list) =
  let iters = 2000 in
  1e6
  *. time_per_call ~iters (fun () ->
         List.iter
           (fun d ->
             match J.parse (J.to_string d) with Ok _ -> () | Error e -> failwith ("codec probe: " ^ e))
           docs)

let place_ns ~shards keys =
  let ring = Shard.Ring.make ~shards () in
  let n = Array.length keys in
  let i = ref 0 in
  1e9
  *. time_per_call ~iters:20_000 (fun () ->
         let role, args = keys.(!i mod n) in
         incr i;
         ignore (Shard.Ring.owner ring (Shard.route_key ~role ~args)))

(* Framing and decoding one record at the workload's record size. *)
let wal_ns ~record_bytes =
  let payload = String.init record_bytes (fun i -> Char.chr (97 + (i mod 26))) in
  let frame_ns = 1e9 *. time_per_call ~iters:20_000 (fun () -> ignore (Wal.frame_with ~key:"probe" payload)) in
  let batch = String.concat "" (List.init 64 (fun _ -> Wal.frame_with ~key:"probe" payload)) in
  let decode_ns =
    1e9
    *. time_per_call ~iters:300 (fun () ->
           if List.length (Wal.decode_with ~key:"probe" batch) <> 64 then failwith "wal probe: decode")
    /. 64.0
  in
  (frame_ns, decode_ns)

(* Real write+fsync of one record on the local disk, in seconds. *)
let fsync_samples ~record_bytes n =
  with_dir "fsync" (fun dir ->
      let fd = Unix.openfile (Filename.concat dir "probe") [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let buf = Bytes.make record_bytes 'r' in
          Array.init n (fun _ ->
              let t0 = wall () in
              ignore (Unix.write fd buf 0 record_bytes);
              Unix.fsync fd;
              wall () -. t0)))

(* ---- the in-process sim twin ------------------------------------- *)

type twin = {
  entry_us : float;
  validate_ns : float;
  revoke_us : float;
  sign_ns : float;
  verify_ns : float;
}

let step_until engine flag =
  while (not !flag) && Engine.step engine do
    ()
  done;
  if not !flag then failwith "twin: engine drained before the ack"

let cert_costs cert =
  let rolling = Signing.Rolling.create (Prng.create 11L) in
  let sign_ns = 1e9 *. time_per_call ~iters:20_000 (fun () -> ignore (Cert.sign_rmc rolling ~length:16 cert)) in
  let signed = Cert.sign_rmc rolling ~length:16 cert in
  let verify_ns =
    1e9
    *. time_per_call ~iters:20_000 (fun () ->
           if not (Cert.verify_rmc ~length:16 rolling signed) then failwith "cert probe: verify")
  in
  (sign_ns, verify_ns)

type twin_world = {
  tw_engine : Engine.t;
  tw_host : Net.host;
  tw_new_vci : unit -> Principal.vci;
}

let twin_world () =
  let backend = Backend_sim.create ~seed:5L ~latency:(Net.Fixed 0.005) () in
  let net = Backend.net backend in
  let phost = Principal.Host.create "twin.clients" in
  let dom = Principal.Host.boot_domain phost in
  ( backend,
    net,
    {
      tw_engine = Backend.engine backend;
      tw_host = Net.add_host net "h.twin.client";
      tw_new_vci = (fun () -> Principal.Host.new_vci phost dom);
    } )

let settle tw = Engine.run ~until:(Engine.now tw.tw_engine +. 3.0) tw.tw_engine

(* Enter [role] and step the engine until the ack; returns the cert and
   the wall time the entry took. *)
let timed_entry tw svc ~client ~role ~args ~creds =
  let got = ref None and fin = ref false in
  let t0 = wall () in
  Service.request_entry svc ~client_host:tw.tw_host ~client ~role ~args ~creds (fun r ->
      got := Some (ok "twin entry" r);
      fin := true);
  step_until tw.tw_engine fin;
  (Option.get !got, wall () -. t0)

let validate_cost svc pairs =
  let n = Array.length pairs in
  let i = ref 0 in
  1e9
  *. time_per_call ~iters:20_000 (fun () ->
         let client, cert = pairs.(!i mod n) in
         incr i;
         match Service.validate svc ~client cert with
         | Ok () -> ()
         | Error _ -> failwith "twin: live certificate refused")

(* The wire workloads' service: [User(u) <- Login(u)*] in one service,
   holding the workload's live set. *)
let wire_twin ~rolefile ~names =
  let _backend, net, tw = twin_world () in
  let svc =
    ok "twin service"
      (Service.create net (Net.add_host net "h.twin") (Service.create_registry ()) ~name:"Gate"
         ~rolefile_id:"Gate" ~rolefile ~compound_certificates:false ())
  in
  let n = Array.length names in
  let vcis = Array.init n (fun _ -> tw.tw_new_vci ()) in
  let logins =
    Array.mapi (fun i u -> Service.issue_arbitrary svc ~client:vcis.(i) ~roles:[ "Login" ] ~args:[ V.Str u ]) names
  in
  let enter i = timed_entry tw svc ~client:vcis.(i) ~role:"User" ~args:[ V.Str names.(i) ] ~creds:[ logins.(i) ] in
  let users = Array.init n (fun i -> fst (enter i)) in
  settle tw;
  let m = min n 400 in
  let entry = ref 0.0 in
  for i = 0 to m - 1 do
    let fin = ref false in
    Service.exit_role svc ~client_host:tw.tw_host users.(i) (fun r ->
        ok "twin exit" r;
        fin := true);
    step_until tw.tw_engine fin;
    let c, dt = enter i in
    users.(i) <- c;
    entry := !entry +. dt
  done;
  let validate_ns = validate_cost svc (Array.init n (fun i -> (vcis.(i), users.(i)))) in
  let t0 = wall () in
  for i = n - m to n - 1 do
    Service.revoke_certificate svc logins.(i)
  done;
  let revoke = wall () -. t0 in
  let sign_ns, verify_ns = cert_costs users.(0) in
  let fm = float_of_int m in
  { entry_us = 1e6 *. !entry /. fm; validate_ns; revoke_us = 1e6 *. revoke /. fm; sign_ns; verify_ns }

(* The sim-session services unsharded: [Login] plus one [Club]. *)
let session_twin ~login_rolefile ~club_rolefile ~names =
  let _backend, net, tw = twin_world () in
  let reg = Service.create_registry () in
  let login =
    ok "twin login" (Service.create net (Net.add_host net "h.twin.login") reg ~name:"Login" ~rolefile:login_rolefile ())
  in
  let club =
    ok "twin club"
      (Service.create net (Net.add_host net "h.twin.club") reg ~name:"Club" ~rolefile:club_rolefile
         ~compound_certificates:false ())
  in
  let n = Array.length names in
  let vcis = Array.init n (fun _ -> tw.tw_new_vci ()) in
  let logins =
    Array.mapi
      (fun i u -> Service.issue_arbitrary login ~client:vcis.(i) ~roles:[ "LoggedOn" ] ~args:[ V.Str u; V.Str "h" ])
      names
  in
  let entry = ref 0.0 in
  let teams =
    Array.init n (fun i ->
        let args = [ V.Str names.(i) ] in
        let member, dt1 = timed_entry tw club ~client:vcis.(i) ~role:"Member" ~args ~creds:[ logins.(i) ] in
        let team, dt2 = timed_entry tw club ~client:vcis.(i) ~role:"Team" ~args ~creds:[ member ] in
        entry := !entry +. dt1 +. dt2;
        team)
  in
  settle tw;
  let validate_ns = validate_cost club (Array.init n (fun i -> (vcis.(i), teams.(i)))) in
  let t0 = wall () in
  Array.iter (fun c -> Service.revoke_certificate login c) logins;
  let revoke = wall () -. t0 in
  let sign_ns, verify_ns = cert_costs teams.(0) in
  let fn = float_of_int n in
  { entry_us = 1e6 *. !entry /. (2.0 *. fn); validate_ns; revoke_us = 1e6 *. revoke /. fn; sign_ns; verify_ns }

(* ---- assembly ---------------------------------------------------- *)

type inputs = {
  hop : float array;  (** ping round trips, seconds *)
  docs : J.t list;  (** one op's request and reply documents *)
  keys : (string * V.t list) array;  (** the workload's routing keys *)
  shards : int;
  tw : twin;
  record_bytes : int;  (** mean journalled record size *)
}

(* The probe metrics; also returns the fsync samples for the report. *)
let probe_metrics i =
  let rb = i.record_bytes in
  let frame_ns, decode_ns = wal_ns ~record_bytes:rb in
  let fs = fsync_samples ~record_bytes:rb 200 in
  let fs_tail = Summary.tail fs in
  ( [
      metric "backend_unix.hop_us" "us" (1e6 *. Summary.median i.hop);
      metric "remote.codec_us" "us" (codec_us i.docs);
      metric "shard.place_ns" "ns" (place_ns ~shards:i.shards i.keys);
      metric "service.entry_us" "us" i.tw.entry_us;
      metric "service.validate_ns" "ns" i.tw.validate_ns;
      metric "cert.sign_ns" "ns" i.tw.sign_ns;
      metric "cert.verify_ns" "ns" i.tw.verify_ns;
      metric "credrec.revoke_us" "us" i.tw.revoke_us;
      metric "wal.frame_ns" "ns" frame_ns;
      metric "wal.decode_ns" "ns" decode_ns;
      metric "disk.fsync_p50_ms" "ms" (ms (Summary.median fs));
      metric "disk.fsync_p99_ms" "ms" (ms fs_tail.Summary.t_value);
    ],
    fs )

let find name l = (List.find (fun m -> m.m_name = name) l).m_value

(* The revocation path split into its heartbeat-batch stages (virtual
   ms, medians): the wait in the coalescing buffer, delivery and apply.
   Only the sim plane batches revocations; the wire workloads report 0. *)
let revoke_split_metrics ~coalesce ~delivery ~apply =
  let med a = if Array.length a = 0 then 0.0 else ms (Summary.median a) in
  [
    metric "revoke.coalesce_sim_ms" "ms" (med coalesce);
    metric "revoke.delivery_sim_ms" "ms" (med delivery);
    metric "revoke.apply_sim_ms" "ms" (med apply);
  ]

let no_revoke_split = revoke_split_metrics ~coalesce:[||] ~delivery:[||] ~apply:[||]
