(* Backend conformance: the three substrate capabilities (scheduling/clock,
   messaging, stable storage) behave identically behind Backend_sim and
   Backend_unix, so protocol modules compile and run against either with
   zero backend conditionals.  The same check matrix runs against both
   backends; Unix-only tests add the real wire (loopback TCP with the WAL
   framing) and real-file crash-tail semantics; a persisted model-checking
   schedule replays unchanged to pin the sim ordering across the engine
   refactor. *)

module Engine = Oasis_sim.Engine
module Net = Oasis_sim.Net
module Disk = Oasis_store.Disk
module Backend = Oasis_backend.Backend
module Backend_sim = Oasis_backend.Backend_sim
module Backend_unix = Oasis_backend.Backend_unix
module Explore = Oasis_mc.Explore
module Scenarios = Oasis_mc.Scenarios

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* Each conformance case builds a fresh backend: wall-clock backends cannot
   rewind, and a drained unix run loop exits only when no sockets are
   open — which these in-process cases guarantee. *)
type flavour = Sim | Ux

let flavour_name = function Sim -> "sim" | Ux -> "unix"

(* [with_backend fl f] runs [f] on a fresh backend of the flavour; a unix
   backend gets its own data directory, removed with it afterwards. *)
let with_backend fl f =
  match fl with
  | Sim -> f (Backend_sim.create ()) None
  | Ux ->
      Backend_unix.with_temp_data_dir (fun dir ->
          let b = Backend_unix.create ~data_dir:dir () in
          Fun.protect
            ~finally:(fun () -> Backend_unix.shutdown b)
            (fun () -> f (Backend_unix.pack b) (Some b)))

(* Run until [p] holds or the deadline passes.  The sim jumps virtual
   time; the unix backend waits out the real clock, so deadlines here are
   kept short. *)
let run_until_done backend ~deadline p =
  let engine = Backend.engine backend in
  let t = ref None in
  t :=
    Some
      (Engine.every engine ~period:0.005 (fun () ->
           if p () then begin
             Option.iter Engine.cancel !t;
             Engine.stop (Backend.engine backend)
           end));
  Backend.run ~until:(Engine.now engine +. deadline) backend;
  Option.iter Engine.cancel !t;
  checkb "completed before deadline" true (p ())

let test_clock_domain fl () =
  with_backend fl @@ fun backend _ ->
  let label = Backend.clock_domain_label backend in
  checks "label matches flavour"
    (match fl with Sim -> "sim" | Ux -> "wall")
    label;
  checkb "real_time agrees" (fl = Ux) (Engine.real_time (Backend.engine backend))

let test_send_delivery fl () =
  with_backend fl @@ fun backend _ ->
  let net = Backend.net backend in
  let a = Net.add_host net "a" and b = Net.add_host net "b" in
  ignore b;
  let got = ref 0 in
  Net.send net ~src:a ~dst:b (fun () -> incr got);
  Net.send net ~src:a ~dst:b (fun () -> incr got);
  run_until_done backend ~deadline:2.0 (fun () -> !got = 2)

let test_call_roundtrip fl () =
  with_backend fl @@ fun backend _ ->
  let net = Backend.net backend in
  let a = Net.add_host net "a" and b = Net.add_host net "b" in
  Net.bind net b ~port:"echo" (fun req reply -> reply (Ok ("echo:" ^ req)));
  let answer = ref "" in
  Net.call net ~src:a ~dst:"b" ~port:"echo" "hi" (function
    | Ok s -> answer := s
    | Error e -> answer := "error:" ^ e);
  run_until_done backend ~deadline:2.0 (fun () -> !answer <> "");
  checks "served by the bound handler" "echo:hi" !answer

let test_call_error_paths fl () =
  with_backend fl @@ fun backend _ ->
  let net = Backend.net backend in
  let a = Net.add_host net "a" and b = Net.add_host net "b" in
  (* A silent handler: the caller's timeout must answer. *)
  Net.bind net b ~port:"void" (fun _req _reply -> ());
  let timed_out = ref false and unknown = ref "" in
  Net.call net ~timeout:0.1 ~src:a ~dst:"b" ~port:"void" "x" (function
    | Error "timeout" -> timed_out := true
    | _ -> ());
  (match fl with
  | Sim ->
      (* No remote transport: a non-local destination answers explicitly. *)
      Net.call net ~timeout:0.1 ~src:a ~dst:"elsewhere" ~port:"p" "x" (function
        | Error e -> unknown := e
        | Ok _ -> ())
  | Ux ->
      (* A transport is installed but has no peer for the name: the frame
         is dropped and the timeout answers, like a dead remote. *)
      Net.call net ~timeout:0.1 ~src:a ~dst:"elsewhere" ~port:"p" "x" (function
        | Error "timeout" -> unknown := "unknown host: elsewhere"
        | _ -> ()));
  run_until_done backend ~deadline:3.0 (fun () -> !timed_out && !unknown <> "");
  checks "unreachable destination fails closed" "unknown host: elsewhere" !unknown

let test_timer_cancel fl () =
  with_backend fl @@ fun backend _ ->
  let engine = Backend.engine backend in
  let fired = ref 0 and cancelled_fired = ref false in
  let t = Engine.timer engine ~delay:0.02 (fun () -> cancelled_fired := true) in
  Engine.cancel t;
  ignore (Engine.timer engine ~delay:0.03 (fun () -> incr fired));
  run_until_done backend ~deadline:2.0 (fun () -> !fired = 1);
  checkb "cancelled timer never fires" false !cancelled_fired

let test_every_cancel fl () =
  with_backend fl @@ fun backend _ ->
  let engine = Backend.engine backend in
  let ticks = ref 0 in
  let t = ref None in
  t :=
    Some
      (Engine.every engine ~period:0.01 (fun () ->
           incr ticks;
           if !ticks = 3 then Option.iter Engine.cancel !t));
  run_until_done backend ~deadline:2.0 (fun () -> !ticks >= 3);
  (* Let any leaked period elapse, then confirm the series stopped. *)
  let engine = Backend.engine backend in
  let settled = ref false in
  ignore (Engine.timer engine ~delay:0.05 (fun () -> settled := true));
  run_until_done backend ~deadline:2.0 (fun () -> !settled);
  checki "cancelled series stops at 3" 3 !ticks

(* The Disk crash contract, same on both substrates: synced bytes survive,
   the unsynced tail does not outlive the device (the sim may keep a torn
   seeded prefix of it; the real device loses buffered bytes wholesale). *)
let test_fsync_crash_tail fl () =
  with_backend fl @@ fun backend ub ->
  let net = Backend.net backend in
  let h = Net.add_host net "h" in
  let disk = Backend.disk backend h in
  let synced = ref false in
  Disk.append disk ~file:"log" "durable-prefix";
  Disk.fsync disk ~file:"log" (fun () -> synced := true);
  run_until_done backend ~deadline:2.0 (fun () -> !synced);
  Disk.append disk ~file:"log" "+unsynced-tail";
  checki "tail buffered, not durable" (String.length "durable-prefix")
    (Disk.durable_size disk ~file:"log");
  let disk' =
    match (fl, ub) with
    | Ux, Some b -> Backend_unix.reopen_disk b h
    | _ ->
        Net.crash_host net h;
        Net.restart_host net h;
        disk
  in
  let contents = Disk.read disk' ~file:"log" in
  let plen = String.length "durable-prefix" in
  checkb "synced prefix survives the crash"
    true
    (String.length contents >= plen && String.sub contents 0 plen = "durable-prefix");
  checkb "lost tail is a prefix of what was appended" true
    (String.length contents <= String.length "durable-prefix+unsynced-tail");
  (match fl with
  | Ux -> checki "real device loses the whole unsynced tail" plen (String.length contents)
  | Sim -> ());
  checki "fresh device has no unsynced bytes" 0 (Disk.unsynced disk' ~file:"log")

let conformance fl =
  [
    Alcotest.test_case (flavour_name fl ^ ": clock domain") `Quick (test_clock_domain fl);
    Alcotest.test_case (flavour_name fl ^ ": send delivers") `Quick (test_send_delivery fl);
    Alcotest.test_case (flavour_name fl ^ ": call round-trips") `Quick (test_call_roundtrip fl);
    Alcotest.test_case
      (flavour_name fl ^ ": call timeout / unreachable")
      `Quick (test_call_error_paths fl);
    Alcotest.test_case (flavour_name fl ^ ": timer cancel") `Quick (test_timer_cancel fl);
    Alcotest.test_case (flavour_name fl ^ ": every cancel") `Quick (test_every_cancel fl);
    Alcotest.test_case
      (flavour_name fl ^ ": fsync crash-tail contract")
      `Quick (test_fsync_crash_tail fl);
  ]

(* --- the real wire: loopback TCP with the WAL's length+SipHash framing --- *)

let test_unix_loopback_call () =
  (* One process, one select loop — but the call crosses a real socket:
     the wire name is not a local host, so the frame goes out through the
     loopback listener and is dispatched back in via the alias, exactly
     the path a remote process takes. *)
  Backend_unix.with_temp_data_dir @@ fun dir ->
  let b = Backend_unix.create ~data_dir:dir () in
  let backend = Backend_unix.pack b in
  let net = Backend.net backend in
  let a = Net.add_host net "a" and srv = Net.add_host net "srv" in
  ignore srv;
  Net.bind net srv ~port:"sum" (fun req reply ->
      reply (Ok (string_of_int (String.length req))));
  let port = Backend_unix.listen b () in
  Backend_unix.peer b ~name:"wire.srv" ~port;
  Backend_unix.alias b ~name:"wire.srv" ~local:"srv";
  let answer = ref "" in
  Net.call net ~src:a ~dst:"wire.srv" ~port:"sum" "12345" (function
    | Ok s -> answer := s
    | Error e -> answer := "error:" ^ e);
  run_until_done backend ~deadline:5.0 (fun () -> !answer <> "");
  Backend_unix.shutdown b;
  checks "request crossed the socket and back" "5" !answer

(* A remote call's timeout timer is cancelled when the reply lands: after
   a burst of completed calls no caller timer is left pending, so none
   holds its call's continuation for the rest of the timeout. *)
let test_unix_completed_calls_leave_no_timers () =
  Backend_unix.with_temp_data_dir @@ fun dir ->
  let b = Backend_unix.create ~data_dir:dir () in
  let backend = Backend_unix.pack b in
  let engine = Backend.engine backend in
  let net = Backend.net backend in
  let a = Net.add_host net "a" and srv = Net.add_host net "srv" in
  Net.bind net srv ~port:"echo" (fun req reply -> reply (Ok req));
  let port = Backend_unix.listen b () in
  Backend_unix.peer b ~name:"wire.srv" ~port;
  Backend_unix.alias b ~name:"wire.srv" ~local:"srv";
  let burst = 32 in
  let answered = ref 0 in
  for i = 1 to burst do
    Net.call net ~src:a ~dst:"wire.srv" ~port:"echo" (string_of_int i) (function
      | Ok _ -> incr answered
      | Error e -> Alcotest.failf "call %d: %s" i e)
  done;
  checki "one caller timer per call in flight" burst (Engine.pending_tagged engine "t:");
  run_until_done backend ~deadline:5.0 (fun () -> !answered = burst);
  Backend_unix.shutdown b;
  checki "no caller timer outlives its call" 0 (Engine.pending_tagged engine "t:")

let test_unix_wal_roundtrip () =
  let module Wal = Oasis_store.Wal in
  Backend_unix.with_temp_data_dir @@ fun dir ->
  let b = Backend_unix.create ~data_dir:dir () in
  let backend = Backend_unix.pack b in
  let net = Backend.net backend in
  let h = Net.add_host net "h" in
  let disk = Backend.disk backend h in
  let wal = Wal.create disk ~file:"wal" () in
  let records = List.init 20 (fun i -> Printf.sprintf "rec-%d" i) in
  List.iter (fun r -> Wal.append wal r) records;
  Wal.flush wal;
  let flushed = ref false in
  Wal.append wal ~on_durable:(fun () -> flushed := true) "last";
  Wal.flush wal;
  run_until_done backend ~deadline:5.0 (fun () -> !flushed);
  (* Recover through a fresh device over the same directory: the checksum
     framing must decode every synced record from the real file. *)
  let disk' = Backend_unix.reopen_disk b h in
  let wal' = Wal.create disk' ~file:"wal" () in
  Alcotest.(check (list string)) "recovered = appended" (records @ [ "last" ]) (Wal.recover wal')

(* --- sim ordering regression: the engine refactor is invisible --- *)

let test_sim_schedule_replays_unchanged () =
  let path =
    if Sys.file_exists "schedules" then "schedules/golf_club_ack_durable.json"
    else "test/schedules/golf_club_ack_durable.json"
  in
  match Explore.load_schedule path with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok sf -> (
      match Scenarios.find sf.Explore.sf_scenario with
      | None -> Alcotest.failf "unknown scenario %s" sf.Explore.sf_scenario
      | Some spec ->
          let r = Explore.replay spec sf in
          checki "persisted schedule still replays clean" 0 (List.length r.Explore.r_violations))

let () =
  Alcotest.run "backend"
    [
      ("conformance-sim", conformance Sim);
      ("conformance-unix", conformance Ux);
      ( "unix-wire",
        [
          Alcotest.test_case "loopback socket call" `Quick test_unix_loopback_call;
          Alcotest.test_case "completed calls leave no timers" `Quick
            test_unix_completed_calls_leave_no_timers;
          Alcotest.test_case "WAL round-trips on a real disk" `Quick test_unix_wal_roundtrip;
        ] );
      ( "sim-ordering",
        [
          Alcotest.test_case "persisted MC schedule replays unchanged" `Quick
            test_sim_schedule_replays_unchanged;
        ] );
    ]
