(* The deterministic sim plane: a [Login] service and a 4-shard [Club]
   whose shards are 3-replica durable groups.  Workload [sim-session]:
   sessions arrive on an open loop in virtual time, log in, enter
   [Member] then [Team], hold, and log off; the login's revocation must
   cascade to the session's [Team] record across up to two shards. *)

open Common
module Net = Oasis_sim.Net
module Engine = Oasis_sim.Engine
module Stats = Oasis_sim.Stats
module Trace = Oasis_sim.Trace
module Backend = Oasis_backend.Backend
module Backend_sim = Oasis_backend.Backend_sim
module Service = Oasis_core.Service
module Shard = Oasis_core.Shard
module Principal = Oasis_core.Principal
module Cert = Oasis_core.Cert
module Credrec = Oasis_core.Credrec
module Tally = Summary.Tally
module V = Oasis_rdl.Value

let login_rolefile = {|
def LoggedOn(u, h) u: String h: String
LoggedOn(u, h) <-
|}

let club_rolefile = {|
Member(u) <- Login.LoggedOn(u, h)*
Team(u) <- Member(u)*
|}

let shards = 4
let replicas = 3
let heartbeat = 1.0
let arrival_rate = 200.0  (* sessions per virtual second *)
let hold_min = 4.0
let hold_span = 2.0
let prefill = 10.0  (* virtual seconds simulated during set-up *)

(* Sessions whose virtual latencies are reported: a fixed prefix of the
   seeded arrival stream, so the figures repeat exactly for a seed. *)
let fixed = 1000

type session = {
  s_id : int;
  s_user : string;
  s_hops : int;  (** shard hops from [Login] to the [Team] record *)
  s_measured : bool;  (** arrived during the timed phase *)
  s_arrive_w : float;
  mutable s_revoke_v : float;  (** virtual instant of the logoff; < 0 before *)
  mutable s_done : bool;
}

type world = {
  engine : Engine.t;
  net : Net.t;
  login : Service.t;
  club : Shard.t;
  client_host : Net.host;
  new_vci : unit -> Principal.vci;
  rng : Prng.t;
  salt : int;
  mutable next_id : int;
  mutable generating : bool;
  mutable measuring : bool;
  mutable live : int;
  mutable completed : int;  (** sessions completed while measuring *)
  tally : Tally.t;
  issue_v : Samples.t;
  revoke_v : Samples.t;
  op_lat : Samples.t;  (** wall time from arrival to revocation, sessions that arrived while measuring *)
  mutable pending_max : int;
  mutable bad : string list;
}

let now w = Engine.now w.engine
let violation w msg = if List.length w.bad < 20 then w.bad <- msg :: w.bad

let complete w s =
  if not s.s_done then begin
    s.s_done <- true;
    w.live <- w.live - 1;
    let lat = now w -. s.s_revoke_v in
    if s.s_id < fixed then Samples.add w.revoke_v lat;
    let bound = float_of_int (s.s_hops + 1) *. heartbeat in
    if lat > bound then
      violation w
        (Printf.sprintf "session %d: Team still True %.3fs after logoff (bound %.1fs over %d hops)" s.s_id lat bound
           s.s_hops);
    Tally.answer w.tally ~ok:true;
    if w.measuring then begin
      w.completed <- w.completed + 1;
      if s.s_measured then Samples.add w.op_lat (wall () -. s.s_arrive_w)
    end
  end

let fail w s what e =
  if not s.s_done then begin
    s.s_done <- true;
    w.live <- w.live - 1;
    Tally.answer w.tally ~ok:false;
    violation w (Printf.sprintf "session %d %s: %s" s.s_id what e)
  end

let start_session w =
  let id = w.next_id in
  w.next_id <- id + 1;
  let user = Printf.sprintf "s%d.%x" id w.salt in
  let args = [ V.Str user ] in
  let hold = hold_min +. Prng.float w.rng hold_span in
  let team_shard = Shard.owner_index w.club ~role:"Team" ~args in
  let s =
    {
      s_id = id;
      s_user = user;
      s_hops = (if Shard.owner_index w.club ~role:"Member" ~args = team_shard then 1 else 2);
      s_measured = w.measuring;
      s_arrive_w = wall ();
      s_revoke_v = -1.0;
      s_done = false;
    }
  in
  w.live <- w.live + 1;
  Tally.attempt w.tally;
  let vci = w.new_vci () in
  let login =
    Service.issue_arbitrary w.login ~client:vci ~roles:[ "LoggedOn" ] ~args:[ V.Str user; V.Str "h" ]
  in
  let record_issue t0 = if id < fixed then Samples.add w.issue_v (now w -. t0) in
  let t1 = now w in
  Shard.request_entry w.club ~client_host:w.client_host ~client:vci ~role:"Member" ~args ~creds:[ login ] (function
    | Error e -> fail w s "Member" e
    | Ok member ->
        record_issue t1;
        let t2 = now w in
        Shard.request_entry w.club ~client_host:w.client_host ~client:vci ~role:"Team" ~args ~creds:[ member ]
          (function
          | Error e -> fail w s "Team" e
          | Ok team ->
              record_issue t2;
              let table = Service.table (Shard.shard w.club team_shard) in
              Credrec.on_change table team.Cert.crr (fun st ->
                  if st <> Credrec.True && s.s_revoke_v >= 0.0 then complete w s);
              Engine.schedule w.engine ~delay:hold (fun () ->
                  s.s_revoke_v <- now w;
                  Service.revoke_certificate w.login login;
                  if Credrec.state table team.Cert.crr <> Credrec.True then complete w s)))

let rec schedule_arrival w at =
  Engine.schedule_at w.engine ~at (fun () ->
      if w.generating then begin
        start_session w;
        schedule_arrival w (at +. Prng.exponential w.rng ~mean:(1.0 /. arrival_rate))
      end)

let build ~seed =
  let backend = Backend_sim.create ~seed:(Int64.of_int seed) ~latency:(Net.Fixed 0.005) () in
  let net = Backend.net backend and engine = Backend.engine backend in
  let reg = Service.create_registry () in
  let need what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e) in
  let login =
    need "sim login" (Service.create net (Net.add_host net "h.login") reg ~name:"Login" ~rolefile:login_rolefile ())
  in
  let club =
    need "sim club" (Shard.create net reg ~name:"Club" ~rolefile:club_rolefile ~shards ~heartbeat ~durable:true ~replicas ())
  in
  let phost = Principal.Host.create "sessions" in
  let dom = Principal.Host.boot_domain phost in
  let rng = Prng.create (Int64.of_int (seed * 7919 + 1)) in
  let w =
    {
      engine;
      net;
      login;
      club;
      client_host = Net.add_host net "h.clients";
      new_vci = (fun () -> Principal.Host.new_vci phost dom);
      rng;
      salt = Prng.int rng 0xffffff;
      next_id = 0;
      generating = true;
      measuring = false;
      live = 0;
      completed = 0;
      tally = Tally.create ();
      issue_v = Samples.create ();
      revoke_v = Samples.create ();
      op_lat = Samples.create ();
      pending_max = 0;
      bad = [];
    }
  in
  schedule_arrival w (Engine.now engine);
  w

(* Step the engine until [stop ()]; [stop] is polled every 64 events. *)
let drive w stop =
  let steps = ref 0 in
  let fin = ref false in
  while not !fin do
    if not (Engine.step w.engine) then failwith "sim: event queue drained";
    incr steps;
    if !steps land 63 = 0 then begin
      w.pending_max <- max w.pending_max (Engine.pending w.engine);
      fin := stop ()
    end
  done

(* Revocation split from the trace: per cascade, the time its changes
   waited in heartbeat coalescing buffers, the delivery time of the
   batches, and the time spent applying them (virtual seconds). *)
let revoke_split tr =
  let spans = Trace.spans tr in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun sp -> Hashtbl.replace by_id (Trace.span_id sp) sp) spans;
  let parent sp = Option.bind (Trace.span_parent sp) (Hashtbl.find_opt by_id) in
  let coalesce = Samples.create () and delivery = Samples.create () and apply = Samples.create () in
  List.iter
    (fun sp ->
      match (Trace.span_name sp, parent sp) with
      | "revoke.flush", Some p -> Samples.add coalesce (Trace.span_start sp -. Trace.span_start p)
      | "revoke.apply", Some p ->
          Samples.add delivery (Trace.span_start sp -. Trace.span_end p);
          Samples.add apply (Trace.duration sp)
      | _ -> ())
    spans;
  (Samples.to_array coalesce, Samples.to_array delivery, Samples.to_array apply)

(* Virtual seconds measured per round, after the round's prefill. *)
let span = 20.0
let min_rounds = 3

(* What one round leaves behind; the world itself is dropped. *)
type round = {
  r_setup : float;  (** wall seconds to build the world and prefill it *)
  r_rate : float;  (** sessions completed in the span per CPU second *)
  r_lat : float array;  (** wall seconds from arrival to revocation *)
  r_cpu : float;
  r_completed : int;
  r_attempted : int;
  r_failed : int;
  r_bad : string list;
  r_issue_v : float array;
  r_revoke_v : float array;
  r_durable : int;
  r_counters : metric list;
  r_record_bytes : int;  (** mean journalled record size *)
  r_split : float array * float array * float array;
  r_alloc_kb : float;
  r_majors : int;
  r_pending_max : int;
  r_salt : int;
}

(* One round: build a fresh world and prefill it (the set-up), simulate
   [span] virtual seconds with measuring on, then stop arrivals and
   drain until every session has seen its revocation.  Each round starts
   from the same state, so none is slowed by what an earlier one left.
   [on_setup] runs between the set-up and the span. *)
let round ~seed ~trace ~on_setup =
  let t0 = wall () in
  let w = build ~seed in
  drive w (fun () -> now w >= prefill);
  let setup = wall () -. t0 in
  on_setup ();
  let st = Net.stats w.net and tr = Net.trace w.net in
  Stats.reset st;
  if trace then begin
    Trace.clear tr;
    Trace.set_enabled tr true
  end;
  w.measuring <- true;
  let v0 = now w in
  let g0 = gc_mark () and cpu0 = Sys.time () in
  drive w (fun () -> now w >= v0 +. span);
  let cpu = Sys.time () -. cpu0 and g1 = gc_mark () in
  w.measuring <- false;
  Trace.set_enabled tr false;
  let counters = Probes.counters st ~ops:w.completed ~seconds:(now w -. v0) ~client_calls:0 in
  w.generating <- false;
  let drain_until = now w +. 60.0 in
  drive w (fun () -> w.live = 0 || now w > drain_until);
  if w.live > 0 then violation w (Printf.sprintf "%d sessions never saw their Team record revoked" w.live);
  {
    r_setup = setup;
    r_rate = float_of_int w.completed /. cpu;
    r_lat = Samples.to_array w.op_lat;
    r_cpu = cpu;
    r_completed = w.completed;
    r_attempted = Tally.attempted w.tally;
    r_failed = Tally.failed w.tally;
    r_bad = List.rev w.bad;
    r_issue_v = Samples.to_array w.issue_v;
    r_revoke_v = Samples.to_array w.revoke_v;
    (* Not a check: replica-group members never compact their logs, and
       records that die by cascade from another service stay in the
       durable mirror, so it grows with the sessions served. *)
    r_durable = Array.fold_left (fun n s -> n + Service.durable_issued s) 0 (Shard.shards w.club);
    r_counters = counters;
    r_record_bytes = Probes.record_bytes st;
    r_split = (if trace then revoke_split tr else ([||], [||], [||]));
    r_alloc_kb = (g1.g_words -. g0.g_words) *. 8.0 /. 1024.0;
    r_majors = g1.g_major - g0.g_major;
    r_pending_max = w.pending_max;
    r_salt = w.salt;
  }

(* Rounds of the same seeded world until [seconds] of wall time have
   passed (at least [min_rounds]), with a [host_slowdown] reading before
   the first and after each, when no world is live.  The rates and
   latencies are medians over the rounds; the virtual latencies, counters
   and checks of the first round are the run's, and every round's checks
   must pass. *)
let run ~seed ~seconds ~trace =
  let t_end = wall () +. seconds in
  let heap = ref nan in
  let rounds = ref [] and speeds = ref [ host_slowdown () ] in
  let go on_setup =
    rounds := round ~seed ~trace ~on_setup :: !rounds;
    speeds := host_slowdown () :: !speeds
  in
  go (fun () -> heap := live_heap_mb ());
  while List.length !rounds < min_rounds || wall () < t_end do
    go ignore
  done;
  let rounds = Array.of_list (List.rev !rounds) and speeds = Array.of_list (List.rev !speeds) in
  let first = rounds.(0) in
  (* A round's slowdown: the mean of the readings on either side of it. *)
  let slow = Array.mapi (fun i _ -> (speeds.(i) +. speeds.(i + 1)) /. 2.0) rounds in
  let med f = Summary.median (Array.mapi (fun i r -> f r slow.(i)) rounds) in
  (* Each round's figures at the reference host's speed. *)
  let ops_per_s = med (fun r k -> r.r_rate *. k) in
  let op_p50 = med (fun r k -> Summary.median r.r_lat /. k) in
  let setup_s = med (fun r k -> r.r_setup /. k) in
  let sum f = Array.fold_left (fun n r -> n + f r) 0 rounds in
  let attempted = sum (fun r -> r.r_attempted) and failed = sum (fun r -> r.r_failed) in
  let fail_ratio = if attempted = 0 then 0.0 else float_of_int failed /. float_of_int attempted in
  let op = first.r_lat in
  let e2e =
    [
      metric "ops_per_s" "1/s" ops_per_s;
      metric "op_p50_ms" "ms" (ms op_p50);
      metric "setup_s" "s" setup_s;
      metric "live_heap_mb" "MB" !heap;
    ]
  in
  let each f = String.concat " " (Array.to_list (Array.map f rounds)) in
  let report =
    [
      Printf.sprintf
        "  %d shards x %d replicas, %.0f sessions/virtual s; %d rounds, each %.0f virtual s measured after %.0f of prefill"
        shards replicas arrival_rate (Array.length rounds) span prefill;
      Printf.sprintf "  first round: %d sessions completed in %.3f CPU s" first.r_completed first.r_cpu;
      lat_line "op (wall, session)" 1e3 "ms" op;
      profile_line "op profile" 1e3 "ms" op;
      Printf.sprintf "  per round, as measured (host slowdown / sessions per CPU s / op p50 ms / setup s):";
      Printf.sprintf "    %s" (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.2f") slow)));
      Printf.sprintf "    %s" (each (fun r -> Printf.sprintf "%.0f" r.r_rate));
      Printf.sprintf "    %s" (each (fun r -> Printf.sprintf "%.1f" (ms (Summary.median r.r_lat))));
      Printf.sprintf "    %s" (each (fun r -> Printf.sprintf "%.3f" r.r_setup));
      Printf.sprintf "  durable mirrors hold %d issued records after the first round's drain (0 sessions live)"
        first.r_durable;
      Printf.sprintf "  end-to-end figures (_sim_ms: virtual time over the first %d sessions of the seeded stream):"
        fixed;
      figure_line "ops_per_s" "1/s" ops_per_s;
    ]
    @ timing_figures "issue" "sim_ms" "ms" 1e3 first.r_issue_v
    @ timing_figures "revoke" "sim_ms" "ms" 1e3 first.r_revoke_v
    @ [
        Printf.sprintf "%s   (%d of %d)" (figure_line "fail_ratio" "ratio" fail_ratio) failed attempted;
        figure_line "setup_s" "s" setup_s;
        figure_line "top_heap_mb" "MB" (top_heap_mb ());
      ]
  in
  let layer, layer_report =
    if not trace then ([], [])
    else begin
      let coalesce, delivery, apply = first.r_split in
      let names = Array.init 300 (fun i -> Printf.sprintf "t%d.%x" i first.r_salt) in
      let tw = Probes.session_twin ~login_rolefile ~club_rolefile ~names in
      let keys = Array.concat [ Array.map (fun n -> ("Member", [ V.Str n ])) names; Array.map (fun n -> ("Team", [ V.Str n ])) names ] in
      let o l = J.Obj l and s x = J.Str x in
      let issue role cred =
        [
          o [ ("op", s "issue"); ("client", s names.(0)); ("role", s role); ("args", J.Arr [ s names.(0) ]); ("creds", J.Arr [ s cred ]) ];
          o [ ("handle", s "3:1024") ];
        ]
      in
      let probes, _ =
        Probes.probe_metrics
          {
            Probes.hop = Probes.standalone_hop 300;
            docs = issue "Member" "0:1024" @ issue "Team" "3:1024";
            keys;
            shards;
            tw;
            record_bytes = first.r_record_bytes;
          }
      in
      let fops = float_of_int (max 1 first.r_completed) in
      let extra =
        [
          metric "engine.pending_max" "count" (float_of_int first.r_pending_max);
          metric "gc.alloc_kb_per_op" "KB" (first.r_alloc_kb /. fops);
          metric "gc.major_per_kop" "count" (1000.0 *. float_of_int first.r_majors /. fops);
          (* Arrivals are events of the virtual clock: never late. *)
          metric "gen.late_ms_p99" "ms" 0.0;
          metric "trace.ops_per_s" "1/s" ops_per_s;
        ]
      in
      ( probes @ first.r_counters @ extra @ Probes.revoke_split_metrics ~coalesce ~delivery ~apply,
        [
          "  revocation split (virtual ms per batch hop):";
          lat_line "  heartbeat coalescing" 1e3 "ms" coalesce;
          lat_line "  delivery" 1e3 "ms" delivery;
          lat_line "  apply" 1e3 "ms" apply;
        ] )
    end
  in
  {
    o_attempted = attempted;
    o_failed = failed;
    o_checks = List.concat_map (fun r -> r.r_bad) (Array.to_list rounds);
    o_e2e = e2e;
    o_layer = layer;
    o_report = report @ layer_report;
  }
