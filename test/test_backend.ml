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

(* [with_wire f] runs [f] on a unix backend whose host "srv" is reachable
   only as "wire.srv": the name is not a local host, so a call to it goes
   out through a real socket and comes back in through the loopback
   listener and the alias, exactly the path a remote process takes. *)
let with_wire f =
  with_backend Ux @@ fun backend ub ->
  let b = Option.get ub in
  let net = Backend.net backend in
  let a = Net.add_host net "a" and srv = Net.add_host net "srv" in
  let port = Backend_unix.listen b () in
  Backend_unix.peer b ~name:"wire.srv" ~port;
  Backend_unix.alias b ~name:"wire.srv" ~local:"srv";
  f b backend net a srv

let writes net = Oasis_sim.Stats.count (Net.stats net) "backend_unix.write"

let test_unix_loopback_call () =
  with_wire @@ fun _ backend net a srv ->
  Net.bind net srv ~port:"sum" (fun req reply ->
      reply (Ok (string_of_int (String.length req))));
  let answer = ref "" in
  Net.call net ~src:a ~dst:"wire.srv" ~port:"sum" "12345" (function
    | Ok s -> answer := s
    | Error e -> answer := "error:" ^ e);
  run_until_done backend ~deadline:5.0 (fun () -> !answer <> "");
  checks "request crossed the socket and back" "5" !answer

(* The clock reads CLOCK_MONOTONIC: [Engine.now] never decreases, read
   back to back, in timers, in a handler serving a frame read off the
   socket, and in the callbacks of replies read back.  (Stepping the
   system's wall clock, which the clock must ignore, is a machine setting
   this test does not touch.) *)
let test_unix_clock_monotonic () =
  with_wire @@ fun _ backend net a srv ->
  let engine = Backend.engine backend in
  let last = ref (Engine.now engine) in
  let observe what =
    let now = Engine.now engine in
    if now < !last then Alcotest.failf "%s: Engine.now went back from %.9f to %.9f" what !last now;
    last := now
  in
  checkb "the clock starts at the backend's creation" true (!last >= 0.0 && !last < 1.0);
  for _ = 1 to 10_000 do
    observe "back to back"
  done;
  Net.bind net srv ~port:"echo" (fun req reply ->
      observe "handler";
      reply (Ok req));
  let burst = 64 and answered = ref 0 and fired = ref 0 in
  for i = 1 to burst do
    Engine.schedule engine ~delay:(0.001 *. float_of_int (i mod 8)) (fun () ->
        observe "timer";
        incr fired);
    Net.call net ~src:a ~dst:"wire.srv" ~port:"echo" (string_of_int i) (function
      | Ok _ ->
          observe "reply";
          incr answered
      | Error e -> Alcotest.failf "call %d: %s" i e)
  done;
  run_until_done backend ~deadline:5.0 (fun () ->
      observe "poll";
      !answered = burst && !fired = burst);
  checkb "the clock advanced" true (Engine.now engine > 0.0)

(* A remote call's timeout timer is cancelled when the reply lands: after
   a burst of completed calls no caller timer is left pending, so none
   holds its call's continuation for the rest of the timeout. *)
let test_unix_completed_calls_leave_no_timers () =
  with_wire @@ fun _ backend net a srv ->
  let engine = Backend.engine backend in
  Net.bind net srv ~port:"echo" (fun req reply -> reply (Ok req));
  let burst = 32 in
  let answered = ref 0 in
  for i = 1 to burst do
    Net.call net ~src:a ~dst:"wire.srv" ~port:"echo" (string_of_int i) (function
      | Ok _ -> incr answered
      | Error e -> Alcotest.failf "call %d: %s" i e)
  done;
  checki "one caller timer per call in flight" burst (Engine.pending_tagged engine "t:");
  run_until_done backend ~deadline:5.0 (fun () -> !answered = burst);
  checki "no caller timer outlives its call" 0 (Engine.pending_tagged engine "t:")

(* Frames queued in one turn leave in one write per connection: 64 calls
   from one handler cost one write out and one write of replies back. *)
let test_unix_writes_coalesce () =
  with_wire @@ fun _ backend net a srv ->
  Net.bind net srv ~port:"echo" (fun req reply -> reply (Ok req));
  let answers = ref [] in
  Engine.schedule (Backend.engine backend) ~delay:0.0 (fun () ->
      for i = 1 to 64 do
        Net.call net ~src:a ~dst:"wire.srv" ~port:"echo" (string_of_int i) (function
          | Ok s -> answers := s :: !answers
          | Error e -> Alcotest.failf "call %d: %s" i e)
      done);
  run_until_done backend ~deadline:5.0 (fun () -> List.length !answers = 64);
  Alcotest.(check (list string))
    "answered in the order issued"
    (List.init 64 (fun i -> string_of_int (i + 1)))
    (List.rev !answers);
  checki "one write each way" 2 (writes net)

(* A bare loopback listener standing in for a remote process, registered
   as peer "raw": the test reads and writes its end of the connection by
   hand, with the envelope and frame format spelled out independently. *)
let wire_key = Oasis_util.Siphash.key_of_string "oasis.wal:tcp"

let envelope fields =
  String.concat "" (List.map (fun f -> Printf.sprintf "%08x%s" (String.length f) f) fields)

let fields_of payload =
  let rec go off acc =
    if off >= String.length payload then List.rev acc
    else
      let n = int_of_string ("0x" ^ String.sub payload off 8) in
      go (off + 8 + n) (String.sub payload (off + 8) n :: acc)
  in
  go 0 []

let with_raw_peer b f =
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close lfd) @@ fun () ->
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 4;
  (match Unix.getsockname lfd with
  | Unix.ADDR_INET (_, port) -> Backend_unix.peer b ~name:"raw" ~port
  | _ -> assert false);
  (* The backend connects synchronously, so once a call is queued the
     connection waits in the backlog. *)
  let conn = ref None in
  let accept () =
    match !conn with
    | Some fd -> fd
    | None ->
        let fd, _ = Unix.accept lfd in
        conn := Some fd;
        fd
  in
  Fun.protect ~finally:(fun () -> Option.iter Unix.close !conn) (fun () -> f accept)

let readable ?(within = 0.0) fd =
  match Unix.select [ fd ] [] [] within with [], _, _ -> false | _ -> true

(* Read until [stop] holds of the bytes so far, the peer closes, or no
   byte arrives for 2 s. *)
let read_raw fd ~stop =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec go () =
    if (not (stop (Buffer.contents buf))) && readable ~within:2.0 fd then
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ()
  in
  go ();
  Buffer.contents buf

(* A frame queued in the turn that stops the loop stays queued, and the
   next run or shutdown writes it. *)
let test_unix_stop_keeps_queued_frames () =
  with_wire @@ fun b backend net a srv ->
  Net.bind net srv ~port:"echo" (fun req reply -> reply (Ok req));
  let engine = Backend.engine backend in
  let answer = ref "" in
  Engine.schedule engine ~delay:0.0 (fun () ->
      Net.call net ~src:a ~dst:"wire.srv" ~port:"echo" "again" (function
        | Ok s -> answer := s
        | Error e -> answer := "error:" ^ e);
      Backend.stop backend);
  Backend.run ~until:(Engine.now engine +. 5.0) backend;
  checki "stopped before the flush" 0 (writes net);
  run_until_done backend ~deadline:5.0 (fun () -> !answer <> "");
  checks "the next run delivers it" "again" !answer;
  with_raw_peer b @@ fun accept ->
  Engine.schedule engine ~delay:0.0 (fun () ->
      Net.call net ~src:a ~dst:"raw" ~port:"p" "last" (fun _ -> ());
      Backend.stop backend);
  Backend.run ~until:(Engine.now engine +. 5.0) backend;
  let fd = accept () in
  checkb "nothing on the wire before the flush" false (readable fd);
  Backend_unix.shutdown b;
  match Oasis_util.Frame.decode wire_key (read_raw fd ~stop:(fun _ -> false)) with
  | [ payload ] -> (
      match fields_of payload with
      | [ "Q"; _id; "a"; "raw"; "p"; "last" ] -> ()
      | fields -> Alcotest.failf "unexpected envelope: %s" (String.concat "|" fields))
  | frames -> Alcotest.failf "shutdown wrote %d frames, expected 1" (List.length frames)

(* A connection that loses frame sync closes before the turn's flush: the
   frame queued on it in that turn is dropped, not written, and its call
   is answered by its timeout. *)
let test_unix_closed_conn_drops_queued_frame () =
  with_backend Ux @@ fun backend ub ->
  let b = Option.get ub in
  let net = Backend.net backend in
  let a = Net.add_host net "a" in
  with_raw_peer b @@ fun accept ->
  let second = ref None in
  Net.call net ~timeout:0.2 ~src:a ~dst:"raw" ~port:"p" "first" (function
    | Ok _ ->
        Net.call net ~timeout:0.2 ~src:a ~dst:"raw" ~port:"p" "second" (fun r ->
            second := Some r)
    | Error e -> Alcotest.failf "first call: %s" e);
  let fd = accept () in
  Backend.run ~until:(Engine.now (Backend.engine backend) +. 0.05) backend;
  let id =
    match
      Oasis_util.Frame.decode wire_key
        (read_raw fd ~stop:(fun s -> Oasis_util.Frame.decode wire_key s <> []))
    with
    | [ payload ] -> (
        match fields_of payload with
        | [ "Q"; id; "a"; "raw"; "p"; "first" ] -> id
        | fields -> Alcotest.failf "unexpected envelope: %s" (String.concat "|" fields))
    | frames -> Alcotest.failf "expected 1 frame, read %d" (List.length frames)
  in
  (* The reply and, in the same read, bytes that are not a frame: the
     reply's continuation queues the second call, then the garbage closes
     the connection before the flush. *)
  let reply = Oasis_util.Frame.encode wire_key (envelope [ "R"; id; "Kok" ]) in
  ignore (Unix.write_substring fd (reply ^ String.make 24 'z') 0 (String.length reply + 24));
  run_until_done backend ~deadline:2.0 (fun () -> !second <> None);
  checkb "the dropped call times out" true (!second = Some (Error "timeout"));
  checki "and is forgotten" 0 (Backend_unix.pending_calls b);
  checks "its frame never reached the wire" "" (read_raw fd ~stop:(fun _ -> false))

(* A reply completes a call only on the connection the call went out on.
   Call ids are a counter, so anyone who can reach the backend's listener
   can guess the first one: a reply forged on a connection of their own is
   ignored, and the call is answered by its timeout. *)
let test_unix_reply_only_on_call_conn () =
  with_backend Ux @@ fun backend ub ->
  let b = Option.get ub in
  let net = Backend.net backend in
  let a = Net.add_host net "a" in
  let port = Backend_unix.listen b () in
  with_raw_peer b @@ fun accept ->
  let answer = ref None in
  Net.call net ~timeout:0.3 ~src:a ~dst:"raw" ~port:"p" "x" (fun r -> answer := Some r);
  ignore (accept ());
  let forger = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close forger) @@ fun () ->
  Unix.connect forger (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let forged =
    Oasis_util.Frame.encode wire_key (envelope [ "R"; "0000000000000000"; "Kforged" ])
  in
  ignore (Unix.write_substring forger forged 0 (String.length forged));
  run_until_done backend ~deadline:2.0 (fun () -> !answer <> None);
  checkb "the forged reply is ignored; the call times out" true
    (!answer = Some (Error "timeout"));
  checki "and is forgotten" 0 (Backend_unix.pending_calls b)

(* A call nobody answers leaves no entry behind once its timeout fires. *)
let test_unix_timed_out_calls_forgotten () =
  with_wire @@ fun b backend net a srv ->
  Net.bind net srv ~port:"void" (fun _ _ -> ());
  let timed_out = ref 0 in
  for _ = 1 to 3 do
    Net.call net ~timeout:0.1 ~src:a ~dst:"wire.srv" ~port:"void" "x" (function
      | Error "timeout" -> incr timed_out
      | _ -> ())
  done;
  checki "three calls in flight" 3 (Backend_unix.pending_calls b);
  run_until_done backend ~deadline:2.0 (fun () -> !timed_out = 3);
  checki "timed-out calls forgotten" 0 (Backend_unix.pending_calls b)

(* A peer that closes while frames are queued for it.  The first write
   after its close draws a reset, and the next write on the connection
   raises SIGPIPE, whose default action ends the process.  The frames
   queued here are larger than the largest socket send buffer (4 MiB), so
   the turn's flush takes that second write.  With SIGPIPE ignored, the
   write fails with EPIPE instead and closes the connection: the calls
   sent on it are forgotten, then answered by their timeouts. *)
let peer_closes_with_frames_queued () =
  with_backend Ux @@ fun backend ub ->
  let b = Option.get ub in
  let net = Backend.net backend in
  let engine = Backend.engine backend in
  let a = Net.add_host net "a" in
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close lfd) @@ fun () ->
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 4;
  (match Unix.getsockname lfd with
  | Unix.ADDR_INET (_, port) -> Backend_unix.peer b ~name:"raw" ~port
  | _ -> assert false);
  let answers = ref [] in
  let call payload =
    Net.call net ~timeout:0.3 ~src:a ~dst:"raw" ~port:"p" payload (fun r ->
        answers := r :: !answers)
  in
  call (String.make (8 lsl 20) 'x');
  call "small";
  (* The backend connected when the first call was queued. *)
  Unix.close (fst (Unix.accept lfd));
  Backend.run ~until:(Engine.now engine +. 0.05) backend;
  checki "the connection closed and forgot its calls" 0 (Backend_unix.pending_calls b);
  checki "none answered before its timeout" 0 (List.length !answers);
  call "again";
  checkb "the next call opens a new connection" true (readable ~within:1.0 lfd);
  run_until_done backend ~deadline:2.0 (fun () -> List.length !answers = 3);
  checkb "every call answered by its timeout" true
    (List.for_all (fun r -> r = Error "timeout") !answers);
  checki "and none left pending" 0 (Backend_unix.pending_calls b)

(* The case runs in a forked child with SIGPIPE at its default action, so
   a process the signal kills shows as the child's exit status instead of
   ending the test runner. *)
let test_unix_peer_closes_with_frames_queued () =
  Stdlib.flush_all ();
  match Unix.fork () with
  | 0 ->
      let code =
        match
          Sys.set_signal Sys.sigpipe Sys.Signal_default;
          peer_closes_with_frames_queued ()
        with
        | () -> 0
        | exception e ->
            prerr_endline (Printexc.to_string e);
            1
      in
      Unix._exit code
  | pid -> (
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n -> Alcotest.failf "a check failed in the child (exit %d)" n
      | Unix.WSIGNALED s ->
          Alcotest.failf "the child was killed by signal %d (SIGPIPE is %d)" s Sys.sigpipe
      | Unix.WSTOPPED s -> Alcotest.failf "the child stopped on signal %d" s)

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

(* Start [op] and run the backend until its continuation has run. *)
let await backend op =
  let res = ref None in
  op (fun x -> res := Some x);
  run_until_done backend ~deadline:5.0 (fun () -> !res <> None);
  Option.get !res

let ok what = function Ok x -> x | Error e -> Alcotest.failf "%s: %s" what e

(* A shard server drops a certificate handle when the certificate exits,
   and when a sweep frees the certificate's record.  Either way the handle
   is then refused as unknown: it fails closed, as the revoked record it
   named would have. *)
let test_unix_dropped_handles_unknown () =
  let module Service = Oasis_core.Service in
  let module Remote = Oasis_core.Remote in
  let module Shard = Oasis_core.Shard in
  let module V = Oasis_rdl.Value in
  with_wire @@ fun b backend net a srv ->
  let svc =
    match
      Service.create net srv (Service.create_registry ()) ~name:"Gate#0" ~rolefile_id:"Gate"
        ~rolefile:"Admin <-\nLogin(u) <-\nUser(u) <- Login(u)* |>* Admin\n"
        ~compound_certificates:false ()
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "shard: %s" e
  in
  ignore (Remote.serve_shard net svc ~shard_id:0);
  let port = Backend_unix.listen b () in
  let r = Net.add_host net "r" in
  Backend_unix.peer b ~name:"wire.r" ~port;
  Backend_unix.alias b ~name:"wire.r" ~local:"r";
  ignore (Remote.serve_router net r ~ring:(Shard.Ring.make ~shards:1 ()) ~shards:[| "wire.srv" |]);
  let c = Remote.Client.create net a ~router:"wire.r" in
  let await op = await backend op in
  let args = [ V.Str "u1" ] in
  let bootstrap client roles args =
    await (Remote.Client.bootstrap c ~shard:0 ~client ~roles ~args)
  in
  let admin = ok "admin" (bootstrap "root" [ "Admin" ] []) in
  let login = ok "login" (bootstrap "u1" [ "Login" ] args) in
  let issue () =
    ok "issue" (await (Remote.Client.issue c ~client:"u1" ~role:"User" ~args ~creds:[ login ]))
  in
  let validate h = await (Remote.Client.validate c ~client:"u1" ~handle:h ?need_role:None) in
  let unknown what = function
    | Ok () -> Alcotest.failf "%s handle still validates" what
    | Error e -> checks (what ^ " handle refused as unknown") "validate: unknown handle" e
  in
  let exited = issue () in
  ok "exit" (await (Remote.Client.exit_role c ~handle:exited));
  unknown "exited" (validate exited);
  let fired = issue () in
  ok "validate" (validate fired);
  checki "fire revokes one membership" 1
    (ok "fire" (await (Remote.Client.fire c ~revoker:admin ~role:"User" ~args)));
  checkb "a fired handle is refused" true (Result.is_error (validate fired));
  checkb "the sweep frees the fired record" true (Service.gc svc > 0);
  unknown "swept" (validate fired);
  ok "the login handle survives" (validate login)

(* --- Remote on the sim: every op of the shard/router protocol --- *)

module Remote = Oasis_core.Remote

(* Two shard services, each with its own registry as in a multi-process
   deployment, a router over both, and a client host, all on the sim;
   [f] gets the shard servers last. *)
let with_remote f =
  let module Service = Oasis_core.Service in
  let module Shard = Oasis_core.Shard in
  with_backend Sim @@ fun backend _ ->
  let net = Backend.net backend in
  let shards = Array.init 2 (Printf.sprintf "s%d") in
  let servers =
    Array.mapi
      (fun i name ->
        match
          Service.create net (Net.add_host net name) (Service.create_registry ())
            ~name:(Printf.sprintf "Gate#%d" i) ~rolefile_id:"Gate"
            ~rolefile:"Admin <-\nLogin(u) <-\nUser(u) <- Login(u)* |>* Admin\n"
            ~compound_certificates:false ()
        with
        | Ok svc -> Remote.serve_shard net svc ~shard_id:i
        | Error e -> Alcotest.failf "shard %d: %s" i e)
      shards
  in
  let r = Net.add_host net "r" in
  ignore (Remote.serve_router net r ~ring:(Shard.Ring.make ~shards:2 ()) ~shards);
  let c = Net.add_host net "c" in
  f backend net c (Remote.Client.create net c ~router:"r") servers

let refused what ~expect = function
  | Ok _ -> Alcotest.failf "%s succeeded" what
  | Error e -> checks what expect e

let shard_of handle = int_of_string (List.hd (String.split_on_char ':' handle))

let test_remote_ops () =
  let module V = Oasis_rdl.Value in
  with_remote @@ fun backend _ _ c _ ->
  let module C = Remote.Client in
  let await op = await backend op in
  let u = [ V.Str "u1" ] in
  ok "ping" (await (C.ping c));
  let owner = ok "place" (await (C.place c ~role:"User" ~args:u)) in
  let other = 1 - owner in
  let bootstrap ?shard client roles args =
    ok "bootstrap" (await (C.bootstrap c ?shard ~client ~roles ~args))
  in
  let placed = bootstrap "u1" [ "Login" ] u in
  checki "an unplaced bootstrap follows the ring"
    (ok "place Login" (await (C.place c ~role:"Login" ~args:u)))
    (shard_of placed);
  let login = bootstrap ~shard:owner "u1" [ "Login" ] u in
  let stray_login = bootstrap ~shard:other "u1" [ "Login" ] u in
  let admin = bootstrap ~shard:owner "root" [ "Admin" ] [] in
  let stray_admin = bootstrap ~shard:other "root" [ "Admin" ] [] in
  checki "an explicit shard wins" other (shard_of stray_login);
  let issue creds = await (C.issue c ~client:"u1" ~role:"User" ~args:u ~creds) in
  refused "issue with the other shard's credential"
    ~expect:
      (Printf.sprintf
         "credential not colocated with User's shard %d (handles are table-relative; \
          bootstrap prerequisites at the owning shard)"
         owner)
    (issue [ stray_login ]);
  let user = ok "issue" (issue [ login ]) in
  checki "issued at the owning shard" owner (shard_of user);
  let validate ?need_role h = await (C.validate c ~client:"u1" ~handle:h ?need_role) in
  ok "validate" (validate user);
  ok "validate as User" (validate ~need_role:"User" user);
  refused "validate as Admin" ~expect:"insufficient-rights" (validate ~need_role:"Admin" user);
  let fire revoker = await (C.fire c ~revoker ~role:"User" ~args:u) in
  refused "fire with the other shard's revoker"
    ~expect:
      (Printf.sprintf
         "revoker certificate lives at shard %d but User's instance is owned by shard %d; \
          present a revoker issued at the owning shard"
         other owner)
    (fire stray_admin);
  checki "fire at the owning shard" 1 (ok "fire" (fire admin));
  checkb "a fired certificate is refused" true (Result.is_error (validate user));
  refused "re-entry while fired" ~expect:"entry to role User denied" (issue [ login ]);
  ok "rehire" (await (C.rehire c ~revoker:admin ~role:"User" ~args:u));
  let again = ok "issue after rehire" (issue [ login ]) in
  ok "validate after rehire" (validate ~need_role:"User" again);
  ok "exit" (await (C.exit_role c ~handle:again));
  refused "validate after exit" ~expect:"validate: unknown handle" (validate again)

(* A shard keeps a client name's VCI only while the name holds a handle
   or has a request in flight: 1,000 names that each bootstrap and exit
   leave the table as they found it, and so does a request by a name that
   holds nothing.  A name that returns starts over with a new VCI. *)
let test_remote_client_names_bounded () =
  let module V = Oasis_rdl.Value in
  with_remote @@ fun backend _ _ c servers ->
  let module C = Remote.Client in
  let await op = await backend op in
  let s0 = servers.(0) in
  let clients0 = Remote.shard_server_clients s0 and certs0 = Remote.shard_server_certs s0 in
  for i = 1 to 1000 do
    let name = Printf.sprintf "u%d" i in
    let login =
      ok "bootstrap"
        (await (C.bootstrap c ~shard:0 ~client:name ~roles:[ "Login" ] ~args:[ V.Str name ]))
    in
    if i = 1 then
      checki "a name with a handle holds a VCI" (clients0 + 1) (Remote.shard_server_clients s0);
    ok "exit" (await (C.exit_role c ~handle:login))
  done;
  checki "every name let go" clients0 (Remote.shard_server_clients s0);
  checki "every handle dropped" certs0 (Remote.shard_server_certs s0);
  (* The name that returns is the first whose User instance shard 0 owns,
     so it comes back to the shard that let it go. *)
  let rec returning i =
    let name = Printf.sprintf "u%d" i in
    if ok "place" (await (C.place c ~role:"User" ~args:[ V.Str name ])) = 0 then name
    else returning (i + 1)
  in
  let name = returning 1 in
  let args = [ V.Str name ] in
  let login =
    ok "bootstrap again" (await (C.bootstrap c ~shard:0 ~client:name ~roles:[ "Login" ] ~args))
  in
  let user = ok "issue" (await (C.issue c ~client:name ~role:"User" ~args ~creds:[ login ])) in
  ok "validate" (await (C.validate c ~client:name ~handle:user ?need_role:None));
  checki "the returning name holds a VCI again" (clients0 + 1) (Remote.shard_server_clients s0);
  checkb "a stranger's validation is refused" true
    (Result.is_error (await (C.validate c ~client:"stranger" ~handle:user ?need_role:None)));
  checki "and leaves no name behind" (clients0 + 1) (Remote.shard_server_clients s0)

(* Requests written byte by byte in the wire format, sent straight to the
   router's port and to a shard's.  Well-formed ones are served; anything
   else, the JSON document an older client sends among them, is answered
   with an error, and nothing raises out of the engine. *)
let test_remote_raw_requests () =
  let module Frame = Oasis_util.Frame in
  with_remote @@ fun backend net c client _ ->
  let call dst port req = await backend (Net.call net ~src:c ~dst ~port req) in
  let f = Frame.fields in
  let place = f [ "place"; "User"; f [ "Su1" ] ] in
  let owner =
    ok "place"
      (await backend (Remote.Client.place client ~role:"User" ~args:[ Oasis_rdl.Value.Str "u1" ]))
  in
  checks "ping" "" (ok "ping" (call "r" Remote.router_port (f [ "ping" ])));
  checks "place names the owner" (string_of_int owner)
    (ok "place" (call "r" Remote.router_port place));
  let login =
    ok "bootstrap"
      (call "s0" Remote.shard_port (f [ "bootstrap"; ""; "u1"; f [ "Login" ]; f [ "Su1" ] ]))
  in
  checks "a shard's handles carry its id" "0:" (String.sub login 0 2);
  let malformed =
    [
      ("an unknown op", f [ "promote"; "User"; f [ "Su1" ] ]);
      ("an empty request", "");
      ("a truncated field", String.sub place 0 (String.length place - 1));
      ("a missing operand", f [ "place"; "User" ]);
      ("an argument O-1:x", f [ "place"; "User"; f [ "O-1:x" ] ]);
      ("a bootstrap argument O-1:x", f [ "bootstrap"; ""; "u1"; f [ "Login" ]; f [ "O-1:x" ] ]);
      ("a fire argument O-1:x", f [ "fire"; login; "User"; f [ "O-1:x" ] ]);
      ("a JSON document", {|{"op":"place","role":"User","args":[{"marshalled":"O-1:x"}]}|});
    ]
  in
  List.iter
    (fun (dst, port) ->
      List.iter
        (fun (what, req) ->
          refused (what ^ " at " ^ dst) ~expect:"malformed request" (call dst port req))
        malformed)
    [ ("r", Remote.router_port); ("s0", Remote.shard_port) ]

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
          Alcotest.test_case "one write per connection per turn" `Quick test_unix_writes_coalesce;
          Alcotest.test_case "stop keeps queued frames" `Quick test_unix_stop_keeps_queued_frames;
          Alcotest.test_case "closed connection drops its queued frame" `Quick
            test_unix_closed_conn_drops_queued_frame;
          Alcotest.test_case "timed-out calls are forgotten" `Quick
            test_unix_timed_out_calls_forgotten;
          Alcotest.test_case "a reply counts only on its call's connection" `Quick
            test_unix_reply_only_on_call_conn;
          Alcotest.test_case "peer closes with frames queued" `Quick
            test_unix_peer_closes_with_frames_queued;
          Alcotest.test_case "WAL round-trips on a real disk" `Quick test_unix_wal_roundtrip;
          Alcotest.test_case "exited and swept handles are unknown" `Quick
            test_unix_dropped_handles_unknown;
          Alcotest.test_case "the clock never goes back" `Quick test_unix_clock_monotonic;
        ] );
      ( "remote",
        [
          Alcotest.test_case "every op through the client" `Quick test_remote_ops;
          Alcotest.test_case "raw requests in the wire format" `Quick test_remote_raw_requests;
          Alcotest.test_case "client names let go with their handles" `Quick
            test_remote_client_names_bounded;
        ] );
      ( "sim-ordering",
        [
          Alcotest.test_case "persisted MC schedule replays unchanged" `Quick
            test_sim_schedule_replays_unchanged;
        ] );
    ]
