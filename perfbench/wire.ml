(* The deployed plane: two durable shards, a router and one client in one
   process, every hop a framed message over loopback TCP and every commit
   a real fsync.  Workloads [wire-churn] and [wire-validate]. *)

open Common
module Net = Oasis_sim.Net
module Engine = Oasis_sim.Engine
module Stats = Oasis_sim.Stats
module Trace = Oasis_sim.Trace
module Backend = Oasis_backend.Backend
module Backend_unix = Oasis_backend.Backend_unix
module Service = Oasis_core.Service
module Shard = Oasis_core.Shard
module Remote = Oasis_core.Remote
module Tally = Summary.Tally
module V = Oasis_rdl.Value

(* The revoker arm gives each [User] membership a record of its own, so
   exiting it leaves the user's [Login] intact for the re-issue. *)
let rolefile = {|
Admin <-
Login(u) <-
User(u) <- Login(u)* |>* Admin
|}

let shards = 2

type user = {
  u_name : string;
  mutable u_owner : int;
  mutable u_login : string;
  mutable u_handle : string;  (** current [User(u)] handle; "" once lost *)
  mutable u_busy : bool;  (** an exit/re-issue is in flight *)
  mutable u_reads : int;  (** validations in flight *)
}

type dep = {
  b : Backend_unix.t;
  backend : Backend.t;
  net : Net.t;
  engine : Engine.t;
  services : Service.t array;
  client : Remote.Client.t;
  users : user array;
  mutable bad : string list;  (** correctness violations *)
}

let now d = Engine.now d.engine
let violation d msg = if List.length d.bad < 20 then d.bad <- msg :: d.bad

(* Run the socket loop until [start] calls its finish continuation; a
   wall-clock guard turns a wedged loop into a failed run. *)
let run_until d ~guard start =
  let finished = ref false in
  Engine.schedule d.engine ~delay:0.0 (fun () ->
      start (fun () ->
          finished := true;
          Backend.stop d.backend));
  let g = Engine.timer d.engine ~delay:guard (fun () -> Backend.stop d.backend) in
  Backend.run d.backend;
  Engine.cancel g;
  if not !finished then failwith "wire: event loop stalled"

(* Run jobs [0, n) at most [window] at a time, then [finish]. *)
let windowed ~window ~n job finish =
  let next = ref 0 and done_ = ref 0 in
  let rec launch () =
    if !next < n then begin
      let i = !next in
      incr next;
      job i (fun () ->
          incr done_;
          if !done_ = n then finish () else launch ())
    end
  in
  if n = 0 then finish ()
  else
    for _ = 1 to min window n do
      launch ()
    done

let handle_shard h = match String.index_opt h ':' with Some i -> int_of_string_opt (String.sub h 0 i) | None -> None

(* Every issued handle's shard prefix must be the [place] owner. *)
let check_prefix d u h =
  if handle_shard h <> Some u.u_owner then
    violation d (Printf.sprintf "handle %s for %s not at its owner shard %d" h u.u_name u.u_owner)

let args u = [ V.Str u.u_name ]

let need what = function Ok x -> x | Error e -> failwith (Printf.sprintf "wire %s: %s" what e)

(* Stand the deployment up under [dir] and bootstrap every user:
   [place] finds the owner of [User(u)], [Login(u)] is bootstrapped at
   that shard and [User(u)] issued on it. *)
let deploy_on b names =
  let backend = Backend_unix.pack b in
  let net = Backend.net backend and engine = Backend.engine backend in
  let reg = Service.create_registry () in
  let port = Backend_unix.listen b () in
  let wire i = Printf.sprintf "wire.pb.s%d" i in
  let services =
    Array.init shards (fun i ->
        let host = Net.add_host net (Printf.sprintf "h.pb.s%d" i) in
        let svc =
          need "shard"
            (Service.create net host reg ~name:(Printf.sprintf "Gate#%d" i) ~rolefile_id:"Gate" ~rolefile
               ~compound_certificates:false ~disk:(Backend.disk backend host) ())
        in
        ignore (Remote.serve_shard net svc ~shard_id:i);
        Backend_unix.peer b ~name:(wire i) ~port;
        Backend_unix.alias b ~name:(wire i) ~local:(Net.host_name host);
        svc)
  in
  let router_host = Net.add_host net "h.pb.router" in
  ignore (Remote.serve_router net router_host ~ring:(Shard.Ring.make ~shards ()) ~shards:(Array.init shards wire));
  Backend_unix.peer b ~name:"wire.pb.router" ~port;
  Backend_unix.alias b ~name:"wire.pb.router" ~local:"h.pb.router";
  let client = Remote.Client.create net (Net.add_host net "h.pb.client") ~router:"wire.pb.router" in
  let users =
    Array.map
      (fun n -> { u_name = n; u_owner = -1; u_login = ""; u_handle = ""; u_busy = false; u_reads = 0 })
      names
  in
  let d = { b; backend; net; engine; services; client; users; bad = [] } in
  run_until d ~guard:150.0 (fun finish ->
      windowed ~window:32 ~n:(Array.length users)
        (fun i k ->
          let u = users.(i) in
          Remote.Client.place client ~role:"User" ~args:(args u) (fun r ->
              u.u_owner <- need "place" r;
              Remote.Client.bootstrap client ~shard:u.u_owner ~client:u.u_name ~roles:[ "Login" ] ~args:(args u)
                (fun r ->
                  u.u_login <- need "bootstrap" r;
                  Remote.Client.issue client ~client:u.u_name ~role:"User" ~args:(args u) ~creds:[ u.u_login ]
                    (fun r ->
                      let h = need "issue" r in
                      check_prefix d u h;
                      u.u_handle <- h;
                      k ()))))
        finish);
  d

(* Closes the sockets of a deployment whose set-up failed part way. *)
let deploy ~dir ~seed names =
  let b = Backend_unix.create ~data_dir:dir ~seed:(Int64.of_int seed) () in
  try deploy_on b names
  with e ->
    Backend_unix.shutdown b;
    raise e

let teardown d = Backend_unix.shutdown d.b

(* ---- the timed phase --------------------------------------------- *)

type phase = {
  tally : Tally.t;
  mutable ops : int;  (** completed ops *)
  mutable client_calls : int;
  mutable t0 : float;
  mutable last : float;
  op_lat : Windows.t;
  issue_lat : Samples.t;
  exit_lat : Samples.t;
  validate_lat : Samples.t;
  late : Samples.t;  (** open-loop generator lag *)
  calib : Samples.t;  (** host slowdown samples (see [Common.host_sample]) *)
  mutable exited : (string * string) list;  (** (client, handle) sample *)
  mutable pending_max : int;
}

let new_phase () =
  {
    tally = Tally.create ();
    ops = 0;
    client_calls = 0;
    t0 = 0.0;
    last = 0.0;
    op_lat = Windows.create ();
    issue_lat = Samples.create ();
    exit_lat = Samples.create ();
    validate_lat = Samples.create ();
    late = Samples.create ();
    calib = Samples.create ();
    exited = [];
    pending_max = 0;
  }

(* Exit [u]'s current membership and re-issue it; latencies from [due]. *)
let churn_op d p u ~due k =
  let old = u.u_handle in
  u.u_busy <- true;
  p.client_calls <- p.client_calls + 1;
  Remote.Client.exit_role d.client ~handle:old (function
    | Error e ->
        violation d ("exit " ^ old ^ ": " ^ e);
        u.u_busy <- false;
        k false
    | Ok () ->
        let te = now d in
        Samples.add p.exit_lat (te -. due);
        if List.length p.exited < 200 && Hashtbl.hash u.u_name mod 8 = 0 then
          p.exited <- (u.u_name, old) :: p.exited;
        p.client_calls <- p.client_calls + 1;
        Remote.Client.issue d.client ~client:u.u_name ~role:"User" ~args:(args u) ~creds:[ u.u_login ] (fun r ->
            u.u_busy <- false;
            match r with
            | Error e ->
                violation d ("re-issue for " ^ u.u_name ^ ": " ^ e);
                u.u_handle <- "";
                k false
            | Ok h ->
                Samples.add p.issue_lat (now d -. te);
                check_prefix d u h;
                u.u_handle <- h;
                k true))

let finish_op d p ~due ok =
  Tally.answer p.tally ~ok;
  if ok then begin
    let t = now d in
    Windows.add p.op_lat ~at:t ~lat:(t -. due);
    p.ops <- p.ops + 1;
    p.last <- t
  end

(* Every 50 ms the engine's pending count; every 500 ms a host slowdown
   sample, which holds the loop for about 5 ms. *)
let sample d p =
  let tick = ref 0 in
  Engine.every d.engine ~period:0.05 (fun () ->
      p.pending_max <- max p.pending_max (Engine.pending d.engine);
      incr tick;
      if !tick mod 10 = 0 then Samples.add p.calib (host_sample ()))

(* Closed loop: [window] clients each exit and re-issue the next user in a
   seeded round-robin order, for [seconds]. *)
let churn ?(max_ops = max_int) d ~rng ~seconds ~window =
  let p = new_phase () in
  let order = Array.init (Array.length d.users) Fun.id in
  shuffle rng order;
  let q = Queue.create () in
  Array.iter (fun i -> Queue.push i q) order;
  let sampler = sample d p in
  run_until d ~guard:(seconds +. 90.0) (fun finish ->
      p.t0 <- now d;
      p.last <- p.t0;
      let deadline = p.t0 +. seconds in
      let inflight = ref window in
      let rec next () =
        if now d >= deadline || Queue.is_empty q || Tally.attempted p.tally >= max_ops then begin
          decr inflight;
          if !inflight = 0 then finish ()
        end
        else begin
          let i = Queue.pop q in
          let u = d.users.(i) in
          let due = now d in
          Tally.attempt p.tally;
          churn_op d p u ~due (fun ok ->
              finish_op d p ~due ok;
              if u.u_handle <> "" then Queue.push i q;
              next ())
        end
      in
      for _ = 1 to window do
        next ()
      done);
  Engine.cancel sampler;
  p

(* The first user at or after rank [r] that [usable] accepts. *)
let probe_user d perm r usable =
  let n = Array.length perm in
  let rec go k = if k = n then None else
      let u = d.users.(perm.((r + k) mod n)) in
      if usable u then Some u else go (k + 1)
  in
  go 0

(* Open loop at [rate] ops/s with exponential gaps: 19 in 20 ops validate
   a Zipf-picked user's handle, 1 in 20 exits and re-issues a uniformly
   picked one.  Each op is timed from when it was due. *)
let validate_open d ~rng ~seconds ~rate ~zipf:zt =
  let p = new_phase () in
  let n = Array.length d.users in
  let perm = Array.init n Fun.id in
  shuffle rng perm;
  let sampler = sample d p in
  run_until d ~guard:(seconds +. 90.0) (fun finish ->
      p.t0 <- now d;
      p.last <- p.t0;
      let deadline = p.t0 +. seconds in
      let inflight = ref 0 and generating = ref true in
      let maybe_finish () = if (not !generating) && !inflight = 0 then finish () in
      let done_op ~due ok =
        finish_op d p ~due ok;
        decr inflight;
        maybe_finish ()
      in
      let launch due =
        Samples.add p.late (now d -. due);
        let write = Prng.int rng 20 = 0 in
        let pick = if write then Prng.int rng n else zipf_draw zt rng in
        let usable u = u.u_handle <> "" && (not u.u_busy) && ((not write) || u.u_reads = 0) in
        match probe_user d perm pick usable with
        | None -> ()
        | Some u ->
            Tally.attempt p.tally;
            incr inflight;
            if write then churn_op d p u ~due (done_op ~due)
            else begin
              u.u_reads <- u.u_reads + 1;
              p.client_calls <- p.client_calls + 1;
              Remote.Client.validate d.client ~client:u.u_name ~handle:u.u_handle (fun r ->
                  u.u_reads <- u.u_reads - 1;
                  if r = Ok () then Samples.add p.validate_lat (now d -. due);
                  done_op ~due (r = Ok ()))
            end
      in
      let next_due = ref p.t0 in
      let rec tick () =
        let t = now d in
        while !next_due <= t && !next_due < deadline do
          launch !next_due;
          next_due := !next_due +. Prng.exponential rng ~mean:(1.0 /. rate)
        done;
        if !next_due < deadline then Engine.schedule d.engine ~delay:(!next_due -. now d) tick
        else begin
          generating := false;
          maybe_finish ()
        end
      in
      tick ());
  Engine.cancel sampler;
  p

(* ---- post-run checks --------------------------------------------- *)

(* Sampled live handles must validate, sampled exited handles must be
   refused, and the shards' durable mirrors must hold exactly the live
   population ([Login] plus [User] per user still holding a handle). *)
let checks d ~rng ~exited =
  let live = Array.of_list (List.filter (fun u -> u.u_handle <> "") (Array.to_list d.users)) in
  shuffle rng live;
  let live = Array.sub live 0 (min 100 (Array.length live)) in
  let jobs =
    Array.append
      (Array.map (fun u -> (u.u_name, u.u_handle, true)) live)
      (Array.of_list (List.map (fun (c, h) -> (c, h, false)) exited))
  in
  run_until d ~guard:60.0 (fun finish ->
      windowed ~window:8 ~n:(Array.length jobs)
        (fun i k ->
          let client, handle, expect = jobs.(i) in
          Remote.Client.validate d.client ~client ~handle (fun r ->
              (match (r, expect) with
              | Ok (), false -> violation d (Printf.sprintf "exited handle %s still validates" handle)
              | Error e, true -> violation d (Printf.sprintf "live handle %s refused: %s" handle e)
              | _ -> ());
              k ()))
        finish);
  if exited = [] then violation d "no exited handles were sampled";
  let expected = Array.fold_left (fun n u -> n + if u.u_handle <> "" then 2 else 1) 0 d.users in
  let durable = Array.fold_left (fun n s -> n + Service.durable_issued s) 0 d.services in
  if durable <> expected then
    violation d (Printf.sprintf "durable mirrors hold %d live records, expected %d" durable expected)

(* ---- a whole run ------------------------------------------------- *)

type kind = Churn | Validate

let population = function Churn -> 2000 | Validate -> 4096
let setups = 5

(* Seeded user names, drawn until each shard owns exactly its share of
   the population.  Every seed then loads the shards alike: per-shard
   state, checkpoint cadence and commit batches do not depend on how one
   seed's names happen to hash. *)
let population_names rng n =
  let ring = Shard.Ring.make ~shards () in
  let share = n / shards in
  let owned = Array.make shards 0 in
  let names = ref [] and kept = ref 0 and i = ref 0 in
  while !kept < share * shards do
    let name = Printf.sprintf "u%05d.%06x" !i (Prng.int rng 0xffffff) in
    incr i;
    let s = Shard.Ring.owner ring (Shard.route_key ~role:"User" ~args:[ V.Str name ]) in
    if owned.(s) < share then begin
      owned.(s) <- owned.(s) + 1;
      incr kept;
      names := name :: !names
    end
  done;
  Array.of_list (List.rev !names)

(* The workload's request and reply documents for one op, as the client
   stubs and shard server build them. *)
let docs kind d =
  let u = d.users.(0) in
  let o l = J.Obj l and s x = J.Str x in
  let issue =
    [
      o [ ("op", s "issue"); ("client", s u.u_name); ("role", s "User"); ("args", J.Arr [ s u.u_name ]); ("creds", J.Arr [ s u.u_login ]) ];
      o [ ("handle", s u.u_handle) ];
    ]
  in
  let exit = [ o [ ("op", s "exit"); ("handle", s u.u_handle) ]; o [ ("exited", J.Bool true) ] ] in
  match kind with
  | Churn -> exit @ issue
  | Validate -> [ o [ ("op", s "validate"); ("client", s u.u_name); ("handle", s u.u_handle) ]; o [ ("valid", J.Bool true) ] ]

let rate = 1600.0
let window = 16

let run kind ~seed ~seconds ~trace =
  let rng = Prng.create (Int64.of_int seed) in
  let names = population_names rng (population kind) in
  (* Set up [setups] times; the last deployment runs the workload.  Each
     one lives in a directory of its own, removed when the deployment is
     torn down, also when set-up or the run fails. *)
  let setup_times = Array.make setups 0.0 and setup_slow = Array.make setups 1.0 in
  let deployed k f =
    with_dir "wire" (fun dir ->
        setup_slow.(k) <- host_slowdown ();
        let t0 = wall () in
        let d = deploy ~dir ~seed names in
        setup_times.(k) <- wall () -. t0;
        Fun.protect ~finally:(fun () -> teardown d) (fun () -> f d))
  in
  for k = 0 to setups - 2 do
    deployed k ignore
  done;
  deployed (setups - 1) (fun d ->
      let zt = zipf ~n:(Array.length names) ~s:1.0 in
      (* Warm-up, untimed and of fixed size: fill caches and let lazy
         set-up finish.  The heap is read after it, so the figure does
         not grow with the timed phase's op count. *)
      ignore
        (match kind with
        | Churn -> churn d ~rng ~seconds:30.0 ~window ~max_ops:(Array.length names)
        | Validate -> validate_open d ~rng ~seconds:1.0 ~rate ~zipf:zt);
      (* Let the warm-up's call timeout timers (2 s) expire first: the
         closures they hold are not state the deployment keeps. *)
      Backend.run ~until:(now d +. 2.2) d.backend;
      let heap = live_heap_mb () in
      let st = Net.stats d.net in
      Stats.reset st;
      if trace then Trace.set_enabled (Net.trace d.net) true;
      let g0 = gc_mark () in
      let p =
        match kind with
        | Churn -> churn d ~rng ~seconds ~window
        | Validate -> validate_open d ~rng ~seconds ~rate ~zipf:zt
      in
      let g1 = gc_mark () in
      Trace.set_enabled (Net.trace d.net) false;
      let elapsed = p.last -. p.t0 in
      let win = Windows.summarize p.op_lat ~t0:p.t0 ~until:(p.t0 +. seconds) ~width:1.0 in
      (* At the reference host's speed: latencies always, the rate only
         on the closed loop, where it is the capacity the host allows;
         the open loop's rate is the offered load. *)
      let slow = Summary.median (Samples.to_array p.calib) in
      let ops_per_s = match kind with Churn -> win.Windows.rate *. slow | Validate -> win.Windows.rate in
      let op_p50 = win.Windows.p50 /. slow in
      let counters = Probes.counters st ~ops:p.ops ~seconds:elapsed ~client_calls:p.client_calls in
      let records = Probes.record_bytes st in
      checks d ~rng ~exited:p.exited;
      let op = Windows.latencies p.op_lat in
      let setup_s = Summary.median (Array.mapi (fun k t -> t /. setup_slow.(k)) setup_times) in
      let e2e =
        [
          metric "ops_per_s" "1/s" ops_per_s;
          metric "op_p50_ms" "ms" (ms op_p50);
          metric "setup_s" "s" setup_s;
          metric "live_heap_mb" "MB" heap;
        ]
      in
      let report =
        [
          Printf.sprintf "  %d users, %d shards, %s; %d ops in %.2fs" (Array.length names) shards
            (match kind with
            | Churn -> Printf.sprintf "closed loop, window %d" window
            | Validate -> Printf.sprintf "open loop at %.0f ops/s" rate)
            p.ops elapsed;
          lat_line "op (wall)" 1e3 "ms" op;
          profile_line "op profile" 1e3 "ms" op;
          Printf.sprintf "  per 1 s window, median of %d, as measured: %.1f ops/s, p50 %.3f ms, tail %.3f ms"
            win.Windows.windows win.Windows.rate (ms win.Windows.p50) (ms win.Windows.tail);
          Printf.sprintf "  host slowdown %.3f (%d samples)" slow (Samples.length p.calib);
          lat_line "gen.late_ms" 1e3 "ms" (Samples.to_array p.late);
          Printf.sprintf "  set-ups as measured (s): %s; host slowdown: %s"
            (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") setup_times)))
            (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.2f") setup_slow)));
          "  end-to-end figures (wall clock):";
          figure_line "ops_per_s" "1/s" ops_per_s;
        ]
        @ timing_figures "issue" "ms" "ms" 1e3 (Samples.to_array p.issue_lat)
        @ timing_figures "exit" "ms" "ms" 1e3 (Samples.to_array p.exit_lat)
        @ timing_figures "validate" "ms" "ms" 1e3 (Samples.to_array p.validate_lat)
        @ [
            Printf.sprintf "%s   (%d of %d)" (figure_line "fail_ratio" "ratio" (Tally.fail_ratio p.tally))
              (Tally.failed p.tally) (Tally.attempted p.tally);
            figure_line "setup_s" "s" setup_s;
            figure_line "top_heap_mb" "MB" (top_heap_mb ());
          ]
      in
      let layer, layer_report =
        if not trace then ([], [])
        else begin
          let hop = Probes.ping_rtts ~engine:d.engine ~backend:d.backend d.client 300 in
          let tw = Probes.wire_twin ~rolefile ~names:(Array.sub names 0 (min 2000 (Array.length names))) in
          let probes, _ =
            Probes.probe_metrics
              {
                Probes.hop;
                docs = docs kind d;
                keys = Array.map (fun u -> ("User", args u)) d.users;
                shards;
                tw;
                record_bytes = records;
              }
          in
          let fops = float_of_int (max 1 p.ops) in
          let extra =
            [
              metric "engine.pending_max" "count" (float_of_int p.pending_max);
              metric "gc.alloc_kb_per_op" "KB" ((g1.g_words -. g0.g_words) *. 8.0 /. 1024.0 /. fops);
              metric "gc.major_per_kop" "count" (1000.0 *. float_of_int (g1.g_major - g0.g_major) /. fops);
              metric "gen.late_ms_p99" "ms"
                (if Samples.length p.late = 0 then 0.0 else ms (Summary.tail (Samples.to_array p.late)).Summary.t_value);
              metric "trace.ops_per_s" "1/s" ops_per_s;
            ]
          in
          let layer = probes @ counters @ extra @ Probes.no_revoke_split in
          (* Per-op attribution: each client request crosses two TCP round
             trips (client-router, router-shard); entries, exits and
             validations cost what the twin measured; every durable ack
             waits for one fsync. *)
          let f = Probes.find in
          let issues = float_of_int (Samples.length p.issue_lat) /. fops in
          let exits = float_of_int (Samples.length p.exit_lat) /. fops in
          let validates = float_of_int (Samples.length p.validate_lat) /. fops in
          let requests = float_of_int p.client_calls /. fops in
          let rows =
            [
              ("hop (2 round trips/request)", requests *. 2.0 *. f "backend_unix.hop_us" layer);
              ("json codec", f "remote.codec_us" layer);
              ("service entry", issues *. f "service.entry_us" layer);
              ("service exit/revoke", exits *. f "credrec.revoke_us" layer);
              ("service validate", validates *. f "service.validate_ns" layer /. 1000.0);
              ("fsync wait (durable acks)", (issues +. exits) *. 1000.0 *. f "disk.fsync_p50_ms" layer);
            ]
          in
          let e2e_us = 1e6 *. Summary.mean op in
          let attributed = List.fold_left (fun a (_, v) -> a +. v) 0.0 rows in
          let table =
            Printf.sprintf "  per-op attribution (us, mean op %.1f us, %d records of %d B journalled):" e2e_us
              (Stats.count st "store.wal.append") records
            :: List.map (fun (k, v) -> Printf.sprintf "    %-30s %10.1f" k v) rows
            @ [ Printf.sprintf "    %-30s %10.1f" "unattributed" (e2e_us -. attributed) ]
          in
          (layer, table)
        end
      in
      {
        o_attempted = Tally.attempted p.tally;
        o_failed = Tally.failed p.tally;
        o_checks = List.rev d.bad;
        o_e2e = e2e;
        o_layer = layer;
        o_report = report @ layer_report;
      })
