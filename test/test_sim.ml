(* Tests for the discrete-event engine, clocks and the simulated network. *)

module Engine = Oasis_sim.Engine
module Clock = Oasis_sim.Clock
module Net = Oasis_sim.Net
module Stats = Oasis_sim.Stats
module Trace = Oasis_sim.Trace

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* --- engine --- *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:2.0 (fun () -> log := "b" :: !log);
  Engine.schedule e ~delay:1.0 (fun () -> log := "a" :: !log);
  Engine.schedule e ~delay:3.0 (fun () -> log := "c" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log)

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log);
  Engine.schedule e ~delay:1.0 (fun () -> log := 2 :: !log);
  Engine.schedule e ~delay:1.0 (fun () -> log := 3 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "fifo at same instant" [ 1; 2; 3 ] (List.rev !log)

let test_engine_now_advances () =
  let e = Engine.create () in
  let seen = ref 0.0 in
  Engine.schedule e ~delay:5.5 (fun () -> seen := Engine.now e);
  Engine.run e;
  checkf "now at event" 5.5 !seen

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.schedule e ~delay:1.0 (fun () -> incr fired);
  Engine.schedule e ~delay:10.0 (fun () -> incr fired);
  Engine.run ~until:5.0 e;
  checki "only first fired" 1 !fired;
  checkf "now clamped to until" 5.0 (Engine.now e);
  Engine.run e;
  checki "second fires later" 2 !fired

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:1.0 (fun () ->
      log := "outer" :: !log;
      Engine.schedule e ~delay:1.0 (fun () -> log := "inner" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  checkf "time" 2.0 (Engine.now e)

let test_engine_cancel_timer () =
  let e = Engine.create () in
  let fired = ref false in
  let tm = Engine.timer e ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel tm;
  Engine.run e;
  checkb "cancelled timer silent" false !fired;
  checkb "cancelled" true (Engine.cancelled tm)

(* Cancelled timers leave the queue once they are more than half of it and
   more than the floor, and the live events around them keep their order. *)
let test_engine_cancelled_timers_compact () =
  let e = Engine.create () in
  let fired = ref [] in
  for i = 1 to 10 do
    Engine.schedule e ~delay:(float_of_int (i * 1000)) (fun () -> fired := i :: !fired)
  done;
  let timers =
    List.init 10_000 (fun i ->
        Engine.timer e ~delay:(float_of_int i) (fun () -> Alcotest.fail "cancelled timer fired"))
  in
  List.iter Engine.cancel timers;
  checkb "a burst of cancelled timers is dropped" true
    (Engine.pending e <= Engine.compact_floor + 10);
  (* A call-timer churn: each timer is cancelled once the next is armed. *)
  let prev = ref None and peak = ref 0 in
  for _ = 1 to 10_000 do
    let tm = Engine.timer e ~delay:2.0 ignore in
    Option.iter Engine.cancel !prev;
    prev := Some tm;
    peak := max !peak (Engine.pending e)
  done;
  checkb "churn peaks within the floor plus the live events" true
    (!peak <= Engine.compact_floor + 12);
  Engine.run e;
  Alcotest.(check (list int)) "live events fire in order" (List.init 10 succ) (List.rev !fired)

(* Cancelling a timer after it fired does not count it as queued: were it
   counted, the floor would be passed one cancel early. *)
let test_engine_cancel_after_fire_not_counted () =
  let e = Engine.create () in
  let early = List.init 10 (fun _ -> Engine.timer e ~delay:1.0 ignore) in
  Engine.run e;
  List.iter Engine.cancel early;
  let live = ref 0 in
  for _ = 1 to 100 do
    ignore (Engine.timer e ~delay:3.0 (fun () -> incr live))
  done;
  let arm () = Engine.timer e ~delay:2.0 (fun () -> Alcotest.fail "cancelled timer fired") in
  List.iter Engine.cancel (List.init Engine.compact_floor (fun _ -> arm ()));
  checki "at the floor nothing is dropped" (100 + Engine.compact_floor) (Engine.pending e);
  Engine.cancel (arm ());
  checki "one past the floor drops every cancelled timer" 100 (Engine.pending e);
  Engine.run e;
  checki "no live timer lost" 100 !live

let test_engine_every () =
  let e = Engine.create () in
  let count = ref 0 in
  let handle = Engine.every e ~period:1.0 (fun () -> incr count) in
  Engine.run ~until:5.5 e;
  checki "five periods" 5 !count;
  Engine.cancel handle;
  Engine.run ~until:10.0 e;
  checki "stopped after cancel" 5 !count

let test_engine_negative_delay_clamped () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.schedule e ~delay:5.0 (fun () ->
      Engine.schedule e ~delay:(-3.0) (fun () -> fired := true));
  Engine.run e;
  checkb "fired at clamped time" true !fired;
  checkf "no time travel" 5.0 (Engine.now e)

(* --- clock --- *)

let test_clock_drift () =
  let e = Engine.create () in
  let fast = Clock.create ~rate:1.01 e in
  let slow = Clock.create ~rate:0.99 ~offset:0.5 e in
  Engine.schedule e ~delay:100.0 (fun () -> ());
  Engine.run e;
  checkf "fast clock" 101.0 (Clock.read fast);
  checkf "slow clock" (99.0 +. 0.5) (Clock.read slow);
  checkf "true time" 100.0 (Clock.true_time fast)

(* --- stats --- *)

let test_stats_counting () =
  let s = Stats.create () in
  Stats.incr s "a";
  Stats.incr s ~n:4 "a";
  Stats.add_bytes s "a" 100;
  checki "count" 5 (Stats.count s "a");
  checki "bytes" 100 (Stats.bytes s "a");
  checki "missing" 0 (Stats.count s "zzz");
  Stats.reset s;
  checki "after reset" 0 (Stats.count s "a")

let test_stats_report_includes_max () =
  (* Regression: [report]/[pp] used to drop the observed max entirely. *)
  let s = Stats.create () in
  Stats.observe s "batch" 3;
  Stats.observe s "batch" 11;
  Stats.observe s "batch" 7;
  checki "max_of" 11 (Stats.max_of s "batch");
  match Stats.report s with
  | [ r ] ->
      Alcotest.(check string) "category" "batch" r.Stats.r_cat;
      checki "count" 3 r.Stats.r_count;
      checki "max surfaced in report" 11 r.Stats.r_max
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

let test_stats_latency_histogram () =
  let s = Stats.create () in
  List.iter (fun v -> Stats.observe_latency s "lat" v) [ 0.001; 0.002; 0.004; 0.008; 0.8 ];
  checki "samples" 5 (Stats.latency_samples s "lat");
  checkf "exact max kept" 0.8 (Stats.latency_max s "lat");
  (* Bucket upper bounds are 1e-6 * 2^i: percentiles are exact to an octave. *)
  let p50 = Stats.percentile s "lat" 50.0 in
  checkb "p50 brackets the median" true (p50 >= 0.002 && p50 <= 0.008);
  let p99 = Stats.percentile s "lat" 99.0 in
  checkb "p99 brackets the max" true (p99 >= 0.8 && p99 <= 1.6);
  checkf "no samples" 0.0 (Stats.percentile s "other" 50.0);
  Alcotest.check_raises "percentile out of range"
    (Invalid_argument "Stats.percentile: p must be in [0, 100]") (fun () ->
      ignore (Stats.percentile s "lat" 101.0));
  (* Negative and NaN samples are clamped, not dropped or propagated. *)
  Stats.observe_latency s "lat" (-1.0);
  Stats.observe_latency s "lat" Float.nan;
  checki "clamped samples counted" 7 (Stats.latency_samples s "lat");
  (* The latency summary rides the report rows and the JSON snapshot. *)
  (match List.find_opt (fun r -> r.Stats.r_cat = "lat") (Stats.report s) with
  | Some r ->
      checki "row samples" 7 r.Stats.r_samples;
      checkb "row p99 positive" true (r.Stats.r_p99 > 0.0)
  | None -> Alcotest.fail "lat row missing");
  let js = Stats.to_json s in
  checkb "json has latency member" true (contains js "\"latency\"")

(* --- trace --- *)

let test_trace_disabled_noop () =
  let now = ref 0.0 in
  let tr = Trace.create (fun () -> !now) in
  checkb "disabled by default" false (Trace.enabled tr);
  let sp = Trace.start tr "x" in
  Trace.finish tr sp;
  checkb "no spans recorded" true (Trace.spans tr = []);
  checkb "no ambient ctx" true (Trace.current tr = None);
  checki "nothing dropped" 0 (Trace.dropped tr)

let test_trace_parenting_and_duration () =
  let now = ref 1.0 in
  let tr = Trace.create (fun () -> !now) in
  Trace.set_enabled tr true;
  let root = Trace.start tr "root" in
  Trace.add_attr root "k" "v";
  now := 2.0;
  let child = Trace.start tr ~parent:(Trace.ctx_of root) "child" in
  now := 3.5;
  Trace.finish tr child;
  now := 4.0;
  Trace.finish tr root;
  match Trace.spans tr with
  | [ c; r ] ->
      Alcotest.(check string) "child first (finish order)" "child" (Trace.span_name c);
      checkb "same trace" true (Trace.span_trace c = Trace.span_trace r);
      checkb "child parented to root" true (Trace.span_parent c = Some (Trace.span_id r));
      checkb "root has no parent" true (Trace.span_parent r = None);
      checkf "child duration" 1.5 (Trace.duration c);
      checkf "root duration" 3.0 (Trace.duration r);
      checkb "attr kept" true (List.mem_assoc "k" (Trace.span_attrs r));
      checkf "origin is root start" 1.0 (Trace.origin (Trace.ctx_of c));
      checkf "since_origin" 3.0 (Trace.since_origin tr (Trace.ctx_of c))
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let test_trace_ctx_rides_net_send () =
  let e = Engine.create () in
  let net = Net.create ~latency:(Net.Fixed 0.25) e in
  let tr = Net.trace net in
  Trace.set_enabled tr true;
  let a = Net.add_host net "a" and b = Net.add_host net "b" in
  let remote_ctx = ref None in
  Trace.with_span tr "send-side" (fun () ->
      Net.send net ~src:a ~dst:b (fun () -> remote_ctx := Trace.current tr));
  Engine.run e;
  (match (!remote_ctx, Trace.spans tr) with
  | Some ctx, [ s ] ->
      checkb "delivery sees sender's trace" true
        (Trace.origin ctx = Trace.span_start s && Trace.span_name s = "send-side")
  | None, _ -> Alcotest.fail "ambient context did not ride the message"
  | Some _, l -> Alcotest.failf "expected 1 span, got %d" (List.length l));
  checkb "ctx cleared outside delivery" true (Trace.current tr = None)

let test_trace_ctx_rides_rpc_retry () =
  let e = Engine.create () in
  let net = Net.create ~latency:(Net.Fixed 0.01) e in
  let tr = Net.trace net in
  Trace.set_enabled tr true;
  let a = Net.add_host net "a" and b = Net.add_host net "b" in
  Net.partition net a b;
  Engine.schedule e ~delay:2.0 (fun () -> Net.heal net a b);
  let seen = ref None in
  Trace.with_span tr "origin" (fun () ->
      Net.rpc_retry net ~timeout:0.5 ~src:a ~dst:b
        (fun () ->
          seen := Trace.current tr;
          Ok ())
        (fun _ -> ()));
  Engine.run ~until:30.0 e;
  checkb "retried rpc still carries the originating ctx" true (!seen <> None)

let test_trace_ring_bound () =
  let now = ref 0.0 in
  let tr = Trace.create (fun () -> !now) in
  Trace.set_enabled tr true;
  for i = 1 to 4100 do
    now := float_of_int i;
    let sp = Trace.start tr (Printf.sprintf "s%d" i) in
    Trace.finish tr sp
  done;
  let kept = Trace.spans tr in
  checki "ring keeps 4096 spans" 4096 (List.length kept);
  checki "evictions counted" 4 (Trace.dropped tr);
  Alcotest.(check (list string)) "oldest evicted, order kept"
    (List.init 4096 (fun i -> Printf.sprintf "s%d" (i + 5)))
    (List.map Trace.span_name kept);
  Trace.clear tr;
  checki "clear resets" 0 (Trace.dropped tr);
  checkb "clear empties" true (Trace.spans tr = [])

let test_trace_json_shape () =
  let now = ref 0.0 in
  let tr = Trace.create (fun () -> !now) in
  Trace.set_enabled tr true;
  let sp = Trace.start tr "na\"me" in
  Trace.add_attr sp "key" "va\\lue";
  now := 0.5;
  Trace.finish tr sp;
  let js = Trace.to_json tr in
  checkb "dropped field" true (contains js "\"dropped\":0");
  checkb "escaped name" true (contains js "na\\\"me");
  checkb "escaped attr" true (contains js "va\\\\lue");
  checkb "start field" true (contains js "\"start\":")

(* --- net --- *)

let make_net ?latency () =
  let e = Engine.create () in
  let net = Net.create ?latency e in
  (e, net)

let test_net_send_latency () =
  let e, net = make_net ~latency:(Net.Fixed 0.25) () in
  let a = Net.add_host net "a" and b = Net.add_host net "b" in
  let arrived = ref 0.0 in
  Net.send net ~src:a ~dst:b (fun () -> arrived := Engine.now e);
  Engine.run e;
  checkf "one hop latency" 0.25 !arrived

let test_net_same_host_instant () =
  let e, net = make_net ~latency:(Net.Fixed 0.25) () in
  let a = Net.add_host net "a" in
  let arrived = ref (-1.0) in
  Net.send net ~src:a ~dst:a (fun () -> arrived := Engine.now e);
  Engine.run e;
  checkf "local delivery" 0.0 !arrived

let test_net_rpc_roundtrip () =
  let e, net = make_net ~latency:(Net.Fixed 0.1) () in
  let a = Net.add_host net "a" and b = Net.add_host net "b" in
  let got = ref None and at = ref 0.0 in
  Net.rpc net ~src:a ~dst:b
    (fun () -> Ok 42)
    (fun r ->
      got := Some r;
      at := Engine.now e);
  Engine.run ~until:10.0 e;
  checkb "result" true (!got = Some (Ok 42));
  checkf "two hops" 0.2 !at

let test_net_partition_blocks () =
  let e, net = make_net () in
  let a = Net.add_host net "a" and b = Net.add_host net "b" in
  Net.partition net a b;
  let arrived = ref false in
  Net.send net ~src:a ~dst:b (fun () -> arrived := true);
  Engine.run ~until:5.0 e;
  checkb "blocked" false !arrived;
  Net.heal net a b;
  Net.send net ~src:a ~dst:b (fun () -> arrived := true);
  Engine.run ~until:10.0 e;
  checkb "healed" true !arrived

let test_net_rpc_timeout_on_partition () =
  let e, net = make_net () in
  let a = Net.add_host net "a" and b = Net.add_host net "b" in
  Net.partition net a b;
  let result = ref None in
  Net.rpc net ~timeout:1.0 ~src:a ~dst:b (fun () -> Ok ()) (fun r -> result := Some r);
  Engine.run ~until:5.0 e;
  checkb "timed out" true (!result = Some (Error "timeout"))

let test_net_loss () =
  let e, net = make_net () in
  let a = Net.add_host net "a" and b = Net.add_host net "b" in
  Net.set_loss net 1.0;
  let arrived = ref false in
  Net.send net ~src:a ~dst:b (fun () -> arrived := true);
  Engine.run ~until:1.0 e;
  checkb "all lost" false !arrived;
  checki "loss accounted" 1 (Stats.count (Net.stats net) "msg.lost")

let test_net_loss_bounds () =
  let _, net = make_net () in
  Alcotest.check_raises "negative loss" (Invalid_argument "Net.set_loss: probability out of range")
    (fun () -> Net.set_loss net (-0.1))

let test_net_stats_categories () =
  let e, net = make_net () in
  let a = Net.add_host net "a" and b = Net.add_host net "b" in
  Net.send net ~category:"foo" ~size:10 ~src:a ~dst:b (fun () -> ());
  Net.send net ~category:"foo" ~size:20 ~src:a ~dst:b (fun () -> ());
  Net.send net ~category:"bar" ~src:a ~dst:b (fun () -> ());
  Engine.run e;
  checki "foo count" 2 (Stats.count (Net.stats net) "foo");
  checki "foo bytes" 30 (Stats.bytes (Net.stats net) "foo");
  checki "bar count" 1 (Stats.count (Net.stats net) "bar")

let test_net_link_latency_override () =
  let e, net = make_net ~latency:(Net.Fixed 0.1) () in
  let a = Net.add_host net "a" and b = Net.add_host net "b" in
  Net.set_link_latency net a b (Net.Fixed 2.0);
  let at = ref 0.0 in
  Net.send net ~src:a ~dst:b (fun () -> at := Engine.now e);
  Engine.run e;
  checkf "slow link" 2.0 !at;
  let back = ref 0.0 in
  Net.send net ~src:b ~dst:a (fun () -> back := Engine.now e);
  Engine.run e;
  checkf "reverse default" 2.1 !back

let test_net_find_host () =
  let _, net = make_net () in
  let a = Net.add_host net "alpha" in
  (* A host reaches its engine, whose queue holds closures: compare it by
     identity, not structurally. *)
  checkb "found" true (match Net.find_host net "alpha" with Some h -> h == a | None -> false);
  checkb "missing" true (Net.find_host net "beta" = None)

(* An answered call lets go of its continuation at once: its timeout stays
   queued to its deadline, tag and all, but holds only the emptied cell.
   The block only the continuation holds is made in a non-inlined
   function, so no stack slot of the test pins it. *)
let[@inline never] issue_holding weak i issue =
  let block = Bytes.make 8 'k' in
  Weak.set weak i (Some block);
  issue (fun r -> ignore (Sys.opaque_identity (block, r)))

let test_net_answered_call_releases_continuation () =
  let e, net = make_net ~latency:(Net.Fixed 0.1) () in
  let a = Net.add_host net "a" and b = Net.add_host net "b" in
  Net.bind net b ~port:"echo" (fun payload reply -> reply (Ok payload));
  let answered = ref 0 in
  let counted k r =
    incr answered;
    k r
  in
  let weak = Weak.create 3 in
  issue_holding weak 0 (fun k ->
      Net.rpc_async net ~src:a ~dst:b (fun reply -> reply (Ok ())) (counted k));
  issue_holding weak 1 (fun k -> Net.rpc_retry net ~src:a ~dst:b (fun () -> Ok ()) (counted k));
  issue_holding weak 2 (fun k -> Net.call net ~src:a ~dst:"b" ~port:"echo" "ping" (counted k));
  Engine.run ~until:1.0 e;
  checki "all three answered" 3 !answered;
  Gc.full_major ();
  List.iter
    (fun i -> checkb (Printf.sprintf "continuation %d collected" i) false (Weak.check weak i))
    [ 0; 1; 2 ];
  let timeouts =
    List.filter (fun ev -> ev.Engine.ev_tag = "t:a") (Engine.events e)
    |> List.map (fun ev -> ev.Engine.ev_at)
  in
  Alcotest.(check (list (float 1e-9))) "timeouts still queued" [ 2.0; 2.0; 2.0 ] timeouts;
  Engine.run e;
  checki "answered once each" 3 !answered;
  checki "no timeout counted" 0 (Stats.count (Net.stats net) "rpc.timeout");
  checki "no late reply counted" 0 (Stats.count (Net.stats net) "rpc.late_reply")

let prop_uniform_latency_in_range =
  QCheck.Test.make ~name:"uniform latency within bounds" ~count:50 QCheck.unit (fun () ->
      let e = Engine.create () in
      let net = Net.create ~latency:(Net.Uniform (0.1, 0.2)) e in
      let a = Net.add_host net "a" and b = Net.add_host net "b" in
      let at = ref 0.0 in
      Net.send net ~src:a ~dst:b (fun () -> at := Engine.now e);
      Engine.run e;
      !at >= 0.1 && !at < 0.2)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "same-time fifo" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "now advances" `Quick test_engine_now_advances;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "cancel timer" `Quick test_engine_cancel_timer;
          Alcotest.test_case "cancelled timers compact" `Quick test_engine_cancelled_timers_compact;
          Alcotest.test_case "cancel after fire not counted" `Quick
            test_engine_cancel_after_fire_not_counted;
          Alcotest.test_case "every" `Quick test_engine_every;
          Alcotest.test_case "negative delay clamped" `Quick test_engine_negative_delay_clamped;
        ] );
      ("clock", [ Alcotest.test_case "drift and offset" `Quick test_clock_drift ]);
      ( "stats",
        [
          Alcotest.test_case "counting" `Quick test_stats_counting;
          Alcotest.test_case "report includes max" `Quick test_stats_report_includes_max;
          Alcotest.test_case "latency histogram" `Quick test_stats_latency_histogram;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_trace_disabled_noop;
          Alcotest.test_case "parenting and duration" `Quick test_trace_parenting_and_duration;
          Alcotest.test_case "ctx rides Net.send" `Quick test_trace_ctx_rides_net_send;
          Alcotest.test_case "ctx rides rpc_retry" `Quick test_trace_ctx_rides_rpc_retry;
          Alcotest.test_case "ring bound" `Quick test_trace_ring_bound;
          Alcotest.test_case "json shape" `Quick test_trace_json_shape;
        ] );
      ( "net",
        [
          Alcotest.test_case "send latency" `Quick test_net_send_latency;
          Alcotest.test_case "same host instant" `Quick test_net_same_host_instant;
          Alcotest.test_case "rpc roundtrip" `Quick test_net_rpc_roundtrip;
          Alcotest.test_case "partition blocks" `Quick test_net_partition_blocks;
          Alcotest.test_case "rpc timeout" `Quick test_net_rpc_timeout_on_partition;
          Alcotest.test_case "loss" `Quick test_net_loss;
          Alcotest.test_case "loss bounds" `Quick test_net_loss_bounds;
          Alcotest.test_case "stats categories" `Quick test_net_stats_categories;
          Alcotest.test_case "link latency override" `Quick test_net_link_latency_override;
          Alcotest.test_case "find host" `Quick test_net_find_host;
          Alcotest.test_case "answered call releases its continuation" `Quick
            test_net_answered_call_releases_continuation;
          qt prop_uniform_latency_in_range;
        ] );
    ]
