(* The durable-state plane: simulated stable storage, the write-ahead log
   with group commit and checksum framing, snapshots, and crash recovery of
   services (§4.11 databases + issued memberships).

   Everything runs on the deterministic simulator: crashes tear the log at
   seeded points, so a failing case replays exactly. *)

module Engine = Oasis_sim.Engine
module Net = Oasis_sim.Net
module Stats = Oasis_sim.Stats
module Prng = Oasis_util.Prng
module Disk = Oasis_store.Disk
module Wal = Oasis_store.Wal
module Snapshot = Oasis_store.Snapshot
module Frame = Oasis_util.Frame
module Service = Oasis_core.Service
module Cert = Oasis_core.Cert
module Credrec = Oasis_core.Credrec
module Group = Oasis_core.Group
module Principal = Oasis_core.Principal
module V = Oasis_rdl.Value

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

type dworld = { engine : Engine.t; net : Net.t; host : Net.host; disk : Disk.t }

let make_dworld ?seed () =
  let engine = Engine.create () in
  let net = Net.create ?seed ~latency:(Net.Fixed 0.005) engine in
  let host = Net.add_host net "store" in
  let disk = Disk.create net host () in
  { engine; net; host; disk }

let drun w dt = Engine.run ~until:(Engine.now w.engine +. dt) w.engine

(* --- write-ahead log --- *)

let test_wal_roundtrip () =
  let w = make_dworld () in
  let wal = Wal.create w.disk ~file:"log" () in
  let records = List.init 50 (fun i -> Printf.sprintf "record-%d-%s" i (String.make (i mod 7) 'x')) in
  List.iter (fun r -> Wal.append wal r) records;
  let synced = ref false in
  Wal.sync wal (fun () -> synced := true);
  drun w 1.0;
  checkb "sync completed" true !synced;
  checkb "recover returns every record in order" true (Wal.recover wal = records);
  checki "lifetime append counter" 50 (Wal.appended wal)

let test_wal_group_commit_coalesces_fsyncs () =
  let appends = 1000 in
  let fsyncs_with each =
    let w = make_dworld () in
    let wal = Wal.create w.disk ~file:"log" ~flush_interval:0.01 ~fsync_each:each () in
    for i = 0 to appends - 1 do
      Engine.schedule_at w.engine ~at:(0.001 *. float_of_int i) (fun () ->
          Wal.append wal (Printf.sprintf "r%d" i))
    done;
    Engine.run ~until:5.0 w.engine;
    checkb "no record lost" true (List.length (Wal.recover wal) = appends);
    Stats.count (Net.stats w.net) "store.fsync"
  in
  let baseline = fsyncs_with true in
  let grouped = fsyncs_with false in
  checki "fsync-per-append baseline" appends baseline;
  checkb
    (Printf.sprintf "group commit reduces fsyncs >= 5x (%d -> %d)" baseline grouped)
    true
    (grouped * 5 <= baseline)

let test_wal_durability_callback_after_crash () =
  let w = make_dworld ~seed:5L () in
  let wal = Wal.create w.disk ~file:"log" () in
  let durable = ref [] in
  Wal.append wal ~on_durable:(fun () -> durable := "a" :: !durable) "a";
  Wal.sync wal (fun () -> ());
  drun w 1.0;
  (* The second record's group commit dies with the host: its callback must
     never fire, even after restart. *)
  Wal.append wal ~on_durable:(fun () -> durable := "b" :: !durable) "b";
  Net.crash_host w.net w.host;
  drun w 1.0;
  Net.restart_host w.net w.host;
  drun w 2.0;
  checkb "only the synced record's callback fired" true (!durable = [ "a" ])

(* A crash with unsynced appends leaves a (possibly torn) tail; recovery
   must yield a checksum-valid prefix, never raise, and keep everything
   that was fsynced. *)
let test_wal_crash_recovers_synced_prefix () =
  let torn = ref 0 in
  List.iter
    (fun seed ->
      let w = make_dworld ~seed () in
      let wal = Wal.create w.disk ~file:"log" () in
      let records = List.init 20 (fun i -> Printf.sprintf "record-%d" i) in
      let synced_part, unsynced_part =
        (List.filteri (fun i _ -> i < 10) records, List.filteri (fun i _ -> i >= 10) records)
      in
      List.iter (fun r -> Wal.append wal r) synced_part;
      Wal.sync wal (fun () -> ());
      drun w 1.0;
      List.iter (fun r -> Wal.append wal r) unsynced_part;
      Net.crash_host w.net w.host;
      drun w 0.5;
      Net.restart_host w.net w.host;
      let recovered = Wal.recover wal in
      let n = List.length recovered in
      checkb "at least the synced prefix" true (n >= 10);
      checkb "no record invented" true (n <= 20);
      checkb "exactly a prefix of what was appended" true
        (recovered = List.filteri (fun i _ -> i < n) records);
      if Stats.count (Net.stats w.net) "store.crash.torn" > 0 then incr torn)
    [ 1L; 2L; 3L; 4L; 5L; 6L; 7L; 8L ];
  (* The seeds must actually exercise the torn-write path, not only clean
     losses, or the checksum scan is untested. *)
  checkb "some seed tore the final record" true (!torn >= 1)

(* A rewrite over buffered plain appends is legal (compacting callers
   re-include them in the new contents), but a rewrite over a pending
   [on_durable] callback would silently drop a client ack — it must raise
   instead, and go through again once the buffer is synced. *)
let test_wal_rewrite_refuses_pending_callbacks () =
  let w = make_dworld () in
  let wal = Wal.create w.disk ~file:"log" () in
  Wal.append wal "keep-1";
  Wal.rewrite wal [ "keep-1" ] (fun () -> ());
  drun w 1.0;
  checkb "rewrite over a plain buffered append is legal" true (Wal.recover wal = [ "keep-1" ]);
  Wal.append wal ~on_durable:(fun () -> ()) "acked";
  (match Wal.rewrite wal [ "other" ] (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "rewrite over a pending durability callback must raise");
  let synced = ref false in
  Wal.sync wal (fun () -> synced := true);
  drun w 1.0;
  checkb "sync completed" true !synced;
  Wal.rewrite wal [ "fresh" ] (fun () -> ());
  drun w 1.0;
  checkb "rewrite goes through once the buffer is drained" true
    (Wal.recover wal = [ "fresh" ])

(* Feed [bytes] to a stream reader in seeded pieces of 1..[max_piece]
   bytes, the way TCP reads arrive, collecting payloads until the reader
   reports corruption (the connection would be dropped there). *)
let read_stream ?(max_len = 4096) ~prng ~max_piece key bytes =
  let r = Frame.Reader.create ~max_len key in
  let src = Bytes.of_string bytes in
  let rec go off acc =
    match Frame.Reader.next r with
    | Some p -> go off (p :: acc)
    | exception Frame.Corrupt -> (List.rev acc, `Corrupt)
    | None ->
        if off = Bytes.length src then (List.rev acc, `Waiting)
        else begin
          let n = min (Bytes.length src - off) (1 + Prng.int prng max_piece) in
          Frame.Reader.feed r src off n;
          go (off + n) acc
        end
  in
  go 0 []

(* Property: the one frame decoder is total and prefix-stable under
   arbitrary single-byte corruption and truncation, both as the recovery
   scan reads a log and as TCP reads a stream split across reads.  A
   corrupt header or checksum never yields its payload: the scan stops
   there, keeping the valid prefix, and the stream reader reports the
   corruption (the connection is dropped) without delivering it. *)
let test_wal_decoder_fuzz () =
  let records = List.init 12 (fun i -> Printf.sprintf "payload-%d-%s" i (String.make i 'y')) in
  let framed = String.concat "" (List.map (Wal.frame_with ~key:"log") records) in
  let key = Wal.key "log" in
  (* The offset just past each frame. *)
  let frame_end =
    List.rev
      (snd
         (List.fold_left
            (fun (off, acc) r ->
              let e = off + Frame.header + String.length r in
              (e, e :: acc))
            (0, []) records))
  in
  let frames_before pos = List.length (List.filter (fun e -> e <= pos) frame_end) in
  let prefix k = List.filteri (fun i _ -> i < k) records in
  for seed = 1 to 50 do
    let prng = Prng.create (Int64.of_int seed) in
    let flipped, mutated =
      if Prng.bool prng then begin
        (* Flip one random byte. *)
        let b = Bytes.of_string framed in
        let i = Prng.int prng (Bytes.length b) in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + Prng.int prng 255)));
        (Some i, Bytes.to_string b)
      end
      else (None, String.sub framed 0 (Prng.int prng (String.length framed + 1)))
    in
    (* Frames wholly before the damage: all of them must come through. *)
    let intact =
      match flipped with Some i -> frames_before i | None -> frames_before (String.length mutated)
    in
    let decoded =
      try Wal.decode_with ~key:"log" mutated
      with e -> Alcotest.failf "decoder raised on seed %d: %s" seed (Printexc.to_string e)
    in
    Alcotest.(check (list string))
      (Printf.sprintf "seed %d: scan keeps the valid prefix" seed)
      (prefix intact) decoded;
    (* Wrong key: nothing validates. *)
    checkb "other file's key rejects all" true (Wal.decode_with ~key:"other" mutated = []);
    let streamed, ending = read_stream ~prng ~max_piece:40 key mutated in
    Alcotest.(check (list string))
      (Printf.sprintf "seed %d: stream delivers the valid prefix" seed)
      (prefix intact) streamed;
    (match flipped with
    | None ->
        checkb (Printf.sprintf "seed %d: truncated stream waits" seed) true (ending = `Waiting)
    | Some i ->
        let frame_start = if intact = 0 then 0 else List.nth frame_end (intact - 1) in
        (* A flipped checksum or payload byte is corruption; a flipped
           length digit is too, unless it now claims more bytes than the
           stream holds, in which case the reader waits for them. *)
        if i - frame_start >= 8 then
          checkb
            (Printf.sprintf "seed %d: bad checksum drops the stream" seed)
            true (ending = `Corrupt))
  done;
  (* A header claiming more than the cap is corrupt as soon as it is
     complete, before any of the payload arrives. *)
  let big = Frame.encode key (String.make 100 'b') in
  let streamed, ending =
    read_stream ~max_len:64 ~prng:(Prng.create 7L) ~max_piece:1 key (String.sub big 0 Frame.header)
  in
  checkb "over-cap header delivers nothing" true (streamed = []);
  checkb "over-cap header drops the stream" true (ending = `Corrupt)

(* Property: the shard/router request decoder is total.  Seeded mutations
   of a valid request of each op go to the router's port and to a shard's:
   byte flips, truncation at every length, fields added, dropped and
   replaced, and random bytes.  No exception escapes the engine, and each
   call's continuation runs once, with its handler's answer, never its
   timeout. *)
let test_remote_decoder_fuzz () =
  let module Remote = Oasis_core.Remote in
  let engine = Engine.create () in
  let net = Net.create ~latency:(Net.Fixed 0.005) engine in
  let shards = [| "s0"; "s1" |] in
  Array.iteri
    (fun i name ->
      match
        Service.create net (Net.add_host net name) (Service.create_registry ())
          ~name:(Printf.sprintf "Gate#%d" i) ~rolefile_id:"Gate"
          ~rolefile:"Admin <-\nLogin(u) <-\nUser(u) <- Login(u)* |>* Admin\n"
          ~compound_certificates:false ()
      with
      | Ok svc -> ignore (Remote.serve_shard net svc ~shard_id:i)
      | Error e -> Alcotest.failf "shard %d: %s" i e)
    shards;
  let r = Net.add_host net "r" and c = Net.add_host net "c" in
  ignore (Remote.serve_router net r ~ring:(Oasis_core.Shard.Ring.make ~shards:2 ()) ~shards);
  let run () = Engine.run ~until:(Engine.now engine +. 30.0) engine in
  (* Handles that resolve at shard 0, so mutations can reach its service. *)
  let client = Remote.Client.create net c ~router:"r" in
  let bootstrap roles args =
    let h = ref "" in
    Remote.Client.bootstrap client ~shard:0 ~client:"u1" ~roles ~args (function
      | Ok x -> h := x
      | Error e -> Alcotest.failf "bootstrap: %s" e);
    run ();
    !h
  in
  let login = bootstrap [ "Login" ] [ V.Str "u1" ] and admin = bootstrap [ "Admin" ] [] in
  let f = Frame.fields and args = Frame.fields [ "Su1" ] in
  let valid =
    [
      f [ "ping" ];
      f [ "place"; "User"; args ];
      f [ "bootstrap"; "0"; "u1"; f [ "Login" ]; args ];
      f [ "issue"; "u1"; "User"; args; f [ login ] ];
      f [ "validate"; "u1"; login; "Login" ];
      f [ "fire"; admin; "User"; args ];
      f [ "rehire"; admin; "User"; args ];
      f [ "exit"; login ];
    ]
  in
  List.iter
    (fun v ->
      Net.call net ~src:c ~dst:"s0" ~port:Remote.shard_port v (function
        | Error "malformed request" -> Alcotest.failf "a valid request was refused"
        | _ -> ()))
    valid;
  run ();
  let prng = Prng.create 19L in
  let random_bytes n = String.init n (fun _ -> Char.chr (Prng.int prng 256)) in
  let extra () =
    match Prng.int prng 4 with
    | 0 -> ""
    | 1 -> "O-1:x"
    | 2 -> f [ "O-1:x"; random_bytes 3 ]
    | _ -> random_bytes (Prng.int prng 12)
  in
  let mutations = ref [] in
  let add m = mutations := m :: !mutations in
  List.iter
    (fun v ->
      for n = 0 to String.length v - 1 do
        add (String.sub v 0 n)
      done;
      for _ = 1 to 100 do
        let b = Bytes.of_string v in
        let i = Prng.int prng (Bytes.length b) in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + Prng.int prng 255)));
        add (Bytes.to_string b)
      done;
      let fields = Option.get (Frame.of_fields v) in
      let n = List.length fields in
      for _ = 1 to 40 do
        let k = Prng.int prng (n + 1) in
        let before = List.filteri (fun i _ -> i < k) fields
        and after = List.filteri (fun i _ -> i >= k) fields in
        add (f (before @ (extra () :: after)));
        if k < n then begin
          add (f (before @ List.tl after));
          add (f (before @ (extra () :: List.tl after)))
        end
      done)
    valid;
  for _ = 1 to 300 do
    add (random_bytes (Prng.int prng 80))
  done;
  let mutations = Array.of_list (List.rev !mutations) in
  checkb "at least 2,000 mutations" true (Array.length mutations >= 2000);
  let targets = [| ("r", Remote.router_port); ("s0", Remote.shard_port) |] in
  let answers = Array.make (2 * Array.length mutations) [] in
  let send i req =
    let dst, port = targets.(i mod 2) in
    Net.call net ~src:c ~dst ~port req (fun r -> answers.(i) <- r :: answers.(i))
  in
  Array.iteri
    (fun i m ->
      send (2 * i) m;
      send ((2 * i) + 1) m)
    mutations;
  (match run () with
  | () -> ()
  | exception e -> Alcotest.failf "raised out of the engine: %s" (Printexc.to_string e));
  Array.iteri
    (fun i a ->
      match a with
      | [ Error "timeout" ] ->
          Alcotest.failf "mutation %d timed out at %s" (i / 2) (fst targets.(i mod 2))
      | [ _ ] -> ()
      | l -> Alcotest.failf "mutation %d answered %d times" (i / 2) (List.length l))
    answers

(* --- snapshots --- *)

let test_snapshot_atomic_across_crash () =
  let w = make_dworld ~seed:9L () in
  let snap = Snapshot.create w.disk ~file:"snap" in
  checkb "empty before first save" true (Snapshot.load snap = None);
  Snapshot.save snap "state-v1" (fun () -> ());
  drun w 1.0;
  checkb "v1 loads" true (Snapshot.load snap = Some "state-v1");
  (* Crash while the second save is in flight: the old image survives
     whole — never a torn mixture. *)
  Snapshot.save snap "state-v2-much-longer-payload" (fun () -> ());
  Net.crash_host w.net w.host;
  drun w 1.0;
  Net.restart_host w.net w.host;
  checkb "old snapshot intact after crashed save" true (Snapshot.load snap = Some "state-v1");
  Snapshot.save snap "state-v3" (fun () -> ());
  drun w 1.0;
  checkb "fresh save replaces it" true (Snapshot.load snap = Some "state-v3")

let test_snapshot_bounds_replay () =
  let w = make_dworld () in
  let wal = Wal.create w.disk ~file:"log" () in
  let snap = Snapshot.create w.disk ~file:"snap" in
  List.iter (fun r -> Wal.append wal r) [ "a"; "b"; "c" ];
  Wal.sync wal (fun () -> ());
  drun w 1.0;
  (* Checkpoint: image covers a,b,c; the log restarts empty. *)
  let truncated = ref false in
  Snapshot.save snap "a|b|c" (fun () ->
      Wal.truncate wal;
      truncated := true);
  drun w 1.0;
  checkb "log truncated after durable snapshot" true !truncated;
  List.iter (fun r -> Wal.append wal r) [ "d"; "e" ];
  Wal.sync wal (fun () -> ());
  drun w 1.0;
  checkb "snapshot + suffix" true
    (Snapshot.load snap = Some "a|b|c" && Wal.recover wal = [ "d"; "e" ])

(* --- service recovery (§4.11 persistence) --- *)

let meet_rolefile =
  {|
Chair <- Login.LoggedOn("jmb", h)
Member(u) <- Login.LoggedOn(u, h)* |>* Chair : u in staff
|}

let login_rolefile = {|
def LoggedOn(u, h) u: String h: String
LoggedOn(u, h) <-
|}

type sworld = {
  s_engine : Engine.t;
  s_net : Net.t;
  s_client_host : Net.host;
  s_login : Service.t;
  s_meet : Service.t;
}

let fresh_vci =
  let host = Principal.Host.create "storeclienthost" in
  let domain = Principal.Host.boot_domain host in
  fun () -> Principal.Host.new_vci host domain

let srun w dt = Engine.run ~until:(Engine.now w.s_engine +. dt) w.s_engine

let durable_world ?(seed = 42L) ?snapshot_every () =
  let engine = Engine.create () in
  let net = Net.create ~seed ~latency:(Net.Fixed 0.005) engine in
  let reg = Service.create_registry () in
  let client_host = Net.add_host net "client" in
  let login_host = Net.add_host net "h.login" in
  let meet_host = Net.add_host net "h.meet" in
  let disk = Disk.create net meet_host () in
  let mk name host rolefile extra =
    match extra (Service.create net host reg ~name ~rolefile) with
    | Ok s -> s
    | Error e -> Alcotest.failf "service %s: %s" name e
  in
  let login = mk "Login" login_host login_rolefile (fun f -> f ()) in
  let meet = mk "Meet" meet_host meet_rolefile (fun f -> f ~disk ?snapshot_every ()) in
  { s_engine = engine; s_net = net; s_client_host = client_host; s_login = login; s_meet = meet }

let entry w svc ~client ~role ?creds () =
  let result = ref None in
  Service.request_entry svc ~client_host:w.s_client_host ~client ~role ?creds (fun r ->
      result := Some r);
  srun w 2.0;
  match !result with Some r -> r | None -> Alcotest.fail "entry did not complete"

let entry_ok w svc ~client ~role ?creds () =
  match entry w svc ~client ~role ?creds () with
  | Ok c -> c
  | Error e -> Alcotest.failf "entry to %s failed: %s" role e

let logged_on w user =
  let vci = fresh_vci () in
  ( vci,
    Service.issue_arbitrary w.s_login ~client:vci ~roles:[ "LoggedOn" ]
      ~args:[ V.Str user; V.Str "ely" ] )

let fire w ~chair ~user =
  let result = ref None in
  Service.revoke_role_instance w.s_meet ~client_host:w.s_client_host ~revoker:chair
    ~role:"Member" ~args:[ V.Str user ] (fun r -> result := Some r);
  srun w 2.0;
  match !result with
  | Some (Ok n) -> n
  | Some (Error e) -> Alcotest.failf "fire %s: %s" user e
  | None -> Alcotest.fail "fire did not complete"

let crash_restart_meet w =
  (* Past the group-commit window, so acknowledged operations are on the
     platter; then a full crash/restart cycle plus recovery and reread. *)
  srun w 0.2;
  Net.crash_host w.s_net (Service.host w.s_meet);
  srun w 1.0;
  Net.restart_host w.s_net (Service.host w.s_meet);
  srun w 3.0

(* §4.11 regression: "fired is forever" must survive a crash of the
   service host.  The fired principal stays locked out after recovery; the
   control principal's certificate comes back to life. *)
let test_fired_stays_fired_across_crash () =
  let w = durable_world () in
  Group.add (Service.group w.s_meet "staff") (V.Str "fred");
  Group.add (Service.group w.s_meet "staff") (V.Str "mary");
  let jmb, jmb_cert = logged_on w "jmb" in
  let chair = entry_ok w w.s_meet ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  let fred, fred_cert = logged_on w "fred" in
  let mary, mary_cert = logged_on w "mary" in
  let fred_member = entry_ok w w.s_meet ~client:fred ~role:"Member" ~creds:[ fred_cert ] () in
  let mary_member = entry_ok w w.s_meet ~client:mary ~role:"Member" ~creds:[ mary_cert ] () in
  checki "fred revoked by role" 1 (fire w ~chair ~user:"fred");
  checkb "fred out before the crash" true
    (Service.validate w.s_meet ~client:fred fred_member = Error Service.Revoked);
  crash_restart_meet w;
  checkb "blacklist recovered" true
    (Service.blacklisted w.s_meet ~role:"Member" ~args:[ V.Str "fred" ]);
  checkb "fred still revoked after recovery" true
    (Service.validate w.s_meet ~client:fred fred_member = Error Service.Revoked);
  checkb "fred cannot re-enter after recovery" true
    (Result.is_error (entry w w.s_meet ~client:fred ~role:"Member" ~creds:[ fred_cert ] ()));
  (* Control: an unfired membership must recover to valid... *)
  checkb "mary's certificate survives the crash" true
    (Service.validate w.s_meet ~client:mary mary_member = Ok ());
  (* ...and the recovered revoker arm still works: firing mary AFTER
     recovery revokes the restored record. *)
  checki "mary fired after recovery" 1 (fire w ~chair ~user:"mary");
  checkb "mary revoked via recovered arm" true
    (Service.validate w.s_meet ~client:mary mary_member = Error Service.Revoked)

let test_rehire_survives_crash () =
  let w = durable_world ~seed:43L () in
  Group.add (Service.group w.s_meet "staff") (V.Str "fred");
  let jmb, jmb_cert = logged_on w "jmb" in
  let chair = entry_ok w w.s_meet ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  let fred, fred_cert = logged_on w "fred" in
  let _ = entry_ok w w.s_meet ~client:fred ~role:"Member" ~creds:[ fred_cert ] () in
  checki "fired" 1 (fire w ~chair ~user:"fred");
  let rehired = ref None in
  Service.reinstate_role_instance w.s_meet ~client_host:w.s_client_host ~revoker:chair
    ~role:"Member" ~args:[ V.Str "fred" ] (fun r -> rehired := Some r);
  srun w 2.0;
  checkb "re-hired" true (!rehired = Some (Ok ()));
  crash_restart_meet w;
  checkb "re-hire survived the crash" true
    (not (Service.blacklisted w.s_meet ~role:"Member" ~args:[ V.Str "fred" ]));
  checkb "fred can re-enter after recovery" true
    (Result.is_ok (entry w w.s_meet ~client:fred ~role:"Member" ~creds:[ fred_cert ] ()))

(* A fire after a re-hire, with no membership left to revoke, journals its
   blacklist entry like any other fire: recovery keeps the instance
   blacklisted. *)
let test_refire_after_rehire_survives_crash () =
  let w = durable_world ~seed:45L () in
  Group.add (Service.group w.s_meet "staff") (V.Str "fred");
  let jmb, jmb_cert = logged_on w "jmb" in
  let chair = entry_ok w w.s_meet ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  let fred, fred_cert = logged_on w "fred" in
  let _ = entry_ok w w.s_meet ~client:fred ~role:"Member" ~creds:[ fred_cert ] () in
  checki "fired" 1 (fire w ~chair ~user:"fred");
  let rehired = ref None in
  Service.reinstate_role_instance w.s_meet ~client_host:w.s_client_host ~revoker:chair
    ~role:"Member" ~args:[ V.Str "fred" ] (fun r -> rehired := Some r);
  srun w 2.0;
  checkb "re-hired" true (!rehired = Some (Ok ()));
  checki "fired again, nothing to revoke" 0 (fire w ~chair ~user:"fred");
  crash_restart_meet w;
  checkb "second fire survived the crash" true
    (Service.blacklisted w.s_meet ~role:"Member" ~args:[ V.Str "fred" ]);
  checkb "fred cannot re-enter after recovery" true
    (Result.is_error (entry w w.s_meet ~client:fred ~role:"Member" ~creds:[ fred_cert ] ()))

(* An unsynced issue lost with the crash must fail CLOSED: the certificate
   is unknown to the recovered service and validates as revoked, never as
   valid. *)
let test_lost_tail_fails_closed () =
  let w = durable_world ~seed:44L () in
  Group.add (Service.group w.s_meet "staff") (V.Str "fred");
  let fred, fred_cert = logged_on w "fred" in
  let member = entry_ok w w.s_meet ~client:fred ~role:"Member" ~creds:[ fred_cert ] () in
  (* Crash IMMEDIATELY: the issue record is (with these seeds) still in the
     group-commit window.  Whatever survives, validation must never say
     Ok while the backing record was not recovered. *)
  Net.crash_host w.s_net (Service.host w.s_meet);
  srun w 1.0;
  Net.restart_host w.s_net (Service.host w.s_meet);
  srun w 4.0;
  (match Service.validate w.s_meet ~client:fred member with
  | Ok () ->
      (* Legal only if the record made it to the platter and was restored. *)
      checkb "validated Ok implies the issue was recovered" true
        (Service.durable_issued w.s_meet >= 1)
  | Error _ -> ());
  (* And re-entry still works: recovery leaves a functioning service. *)
  checkb "service still issues after recovery" true
    (Result.is_ok (entry w w.s_meet ~client:fred ~role:"Member" ~creds:[ fred_cert ] ()))

(* A swept slot is reused under a higher magic, and both identities stay
   in the journal's issued mirror: the dead one and the live one.
   Recovery into a fresh table must restore the live one, never let the
   dead one take the slot first. *)
let test_recover_reused_slot () =
  let engine = Engine.create () in
  let net = Net.create ~seed:47L ~latency:(Net.Fixed 0.005) engine in
  let reg = Service.create_registry () in
  let host = Net.add_host net "h.meet" in
  let disk = Disk.create net host () in
  let create name host rolefile extra =
    match extra (Service.create net host reg ~name ~rolefile) with
    | Ok s -> s
    | Error e -> Alcotest.failf "service %s: %s" name e
  in
  ignore (create "Login" (Net.add_host net "h.login") login_rolefile (fun f -> f ()));
  let meet ~register = create "Meet" host meet_rolefile (fun f -> f ~disk ~register ()) in
  let run dt = Engine.run ~until:(Engine.now engine +. dt) engine in
  let s = meet ~register:true in
  let jmb = fresh_vci () in
  let first = Service.issue_arbitrary s ~client:jmb ~roles:[ "Chair" ] ~args:[] in
  Service.revoke_certificate s first;
  checkb "the revoked record is swept" true (Service.gc s > 0);
  let second = Service.issue_arbitrary s ~client:jmb ~roles:[ "Chair" ] ~args:[] in
  checkb "the slot is reused" true
    (first.Cert.crr.Credrec.index = second.Cert.crr.Credrec.index
    && second.Cert.crr.Credrec.magic > first.Cert.crr.Credrec.magic);
  run 1.0;
  let fresh = meet ~register:false in
  let recovered = ref false in
  Service.recover fresh ~on_done:(fun () -> recovered := true);
  run 1.0;
  checkb "recovered" true !recovered;
  checkb "the live certificate validates after recovery" true
    (Service.validate fresh ~client:jmb second = Ok ());
  checkb "the revoked one stays refused" true
    (Result.is_error (Service.validate fresh ~client:jmb first))

let test_snapshot_checkpoint_in_service () =
  (* snapshot_every=8 forces several checkpoint cycles; recovery must load
     snapshot + suffix and still refuse the fired principal. *)
  let engine = Engine.create () in
  let net = Net.create ~seed:45L ~latency:(Net.Fixed 0.005) engine in
  let reg = Service.create_registry () in
  let client_host = Net.add_host net "client" in
  let login_host = Net.add_host net "h.login" in
  let meet_host = Net.add_host net "h.meet" in
  let disk = Disk.create net meet_host () in
  let login =
    match Service.create net login_host reg ~name:"Login" ~rolefile:login_rolefile () with
    | Ok s -> s
    | Error e -> Alcotest.failf "login: %s" e
  in
  let meet =
    match
      Service.create net meet_host reg ~name:"Meet" ~rolefile:meet_rolefile ~disk
        ~snapshot_every:8 ()
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "meet: %s" e
  in
  let w =
    { s_engine = engine; s_net = net; s_client_host = client_host; s_login = login; s_meet = meet }
  in
  let users = List.init 12 (fun i -> Printf.sprintf "u%d" i) in
  List.iter (fun u -> Group.add (Service.group meet "staff") (V.Str u)) users;
  let jmb, jmb_cert = logged_on w "jmb" in
  let chair = entry_ok w meet ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  let members =
    List.map
      (fun u ->
        let vci, cert = logged_on w u in
        (u, vci, entry_ok w meet ~client:vci ~role:"Member" ~creds:[ cert ] ()))
      users
  in
  checki "fired u3" 1 (fire w ~chair ~user:"u3");
  checkb "snapshot actually written" true
    (Stats.count (Net.stats net) "store.snapshot" >= 1);
  crash_restart_meet w;
  List.iter
    (fun (u, vci, m) ->
      if u = "u3" then
        checkb "fired user stays revoked" true
          (Service.validate meet ~client:vci m = Error Service.Revoked)
      else
        checkb (Printf.sprintf "%s survives via snapshot+log" u) true
          (Service.validate meet ~client:vci m = Ok ()))
    members;
  checkb "recovery instrumented" true (Stats.count (Net.stats net) "oasis.recover" >= 1)

(* A live set far above the [snapshot_every] floor, churned at a steady
   pace: a checkpoint starts once the log has grown by the last
   snapshot's size, so the churn writes about one snapshot per live set's
   worth of appends (not one per 8), and a crash still recovers from a
   bounded replay with every live membership intact. *)
let test_checkpoints_amortized () =
  let live = 240 and rounds = 4 and floor = 8 in
  let w = durable_world ~seed:46L ~snapshot_every:floor () in
  let stats = Net.stats w.s_net in
  let users = Array.init live (Printf.sprintf "m%d") in
  Array.iter (fun u -> Group.add (Service.group w.s_meet "staff") (V.Str u)) users;
  let logins = Array.map (logged_on w) users in
  let current = Array.make live None and exited = ref [] in
  let enter i =
    let vci, cert = logins.(i) in
    Service.request_entry w.s_meet ~client_host:w.s_client_host ~client:vci ~role:"Member"
      ~creds:[ cert ] (function
      | Ok m -> current.(i) <- Some m
      | Error e -> Alcotest.failf "%s entry: %s" users.(i) e)
  in
  let paced f =
    Array.iteri
      (fun i _ -> Engine.schedule w.s_engine ~delay:(0.002 *. float_of_int i) (fun () -> f i))
      users;
    srun w ((0.002 *. float_of_int live) +. 2.0)
  in
  paced enter;
  let snaps0 = Stats.count stats "store.snapshot" in
  let appends0 = Stats.count stats "store.wal.append" in
  for _ = 1 to rounds do
    paced (fun i ->
        match current.(i) with
        | None -> Alcotest.failf "%s holds no membership" users.(i)
        | Some m ->
            current.(i) <- None;
            Service.exit_role w.s_meet ~client_host:w.s_client_host m (function
              | Ok () ->
                  exited := (fst logins.(i), m) :: !exited;
                  enter i
              | Error e -> Alcotest.failf "%s exit: %s" users.(i) e))
  done;
  let appends = Stats.count stats "store.wal.append" - appends0 in
  let snaps = Stats.count stats "store.snapshot" - snaps0 in
  checki "each churn op logs an exit and an issue" (2 * rounds * live) appends;
  checkb
    (Printf.sprintf "%d snapshots over %d appends: at most 2 + one per %d" snaps appends live)
    true
    (snaps <= 2 + (appends / live));
  crash_restart_meet w;
  let replayed = Stats.max_of stats "oasis.recover.records" in
  checkb
    (Printf.sprintf "recovery replayed %d records, at most 2 x %d + %d" replayed live floor)
    true
    (replayed > 0 && replayed <= (2 * live) + floor);
  Array.iteri
    (fun i m ->
      match m with
      | None -> Alcotest.failf "%s lost its membership" users.(i)
      | Some m ->
          checkb (users.(i) ^ " revalidates after recovery") true
            (Service.validate w.s_meet ~client:(fst logins.(i)) m = Ok ()))
    current;
  checki "every exit recorded" (rounds * live) (List.length !exited);
  List.iter
    (fun (vci, m) ->
      checkb "exited membership refused after recovery" true
        (Result.is_error (Service.validate w.s_meet ~client:vci m)))
    !exited

let () =
  Alcotest.run "store"
    [
      ( "wal",
        [
          Alcotest.test_case "append/sync/recover roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "group commit coalesces fsyncs" `Quick
            test_wal_group_commit_coalesces_fsyncs;
          Alcotest.test_case "durability callbacks die with the host" `Quick
            test_wal_durability_callback_after_crash;
          Alcotest.test_case "crash recovers a checksummed prefix" `Quick
            test_wal_crash_recovers_synced_prefix;
          Alcotest.test_case "rewrite refuses pending durability callbacks" `Quick
            test_wal_rewrite_refuses_pending_callbacks;
          Alcotest.test_case "decoder total under corruption (fuzz)" `Quick test_wal_decoder_fuzz;
          Alcotest.test_case "request decoder total under mutation (fuzz)" `Quick
            test_remote_decoder_fuzz;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "atomic across crash" `Quick test_snapshot_atomic_across_crash;
          Alcotest.test_case "bounds replay to the log suffix" `Quick test_snapshot_bounds_replay;
        ] );
      ( "service-recovery",
        [
          Alcotest.test_case "fired stays fired across crash (§4.11)" `Quick
            test_fired_stays_fired_across_crash;
          Alcotest.test_case "re-hire survives crash" `Quick test_rehire_survives_crash;
          Alcotest.test_case "fire after a re-hire survives crash" `Quick
            test_refire_after_rehire_survives_crash;
          Alcotest.test_case "lost tail fails closed" `Quick test_lost_tail_fails_closed;
          Alcotest.test_case "recovery restores a reused slot's live record" `Quick
            test_recover_reused_slot;
          Alcotest.test_case "snapshot checkpointing in the service" `Quick
            test_snapshot_checkpoint_in_service;
          Alcotest.test_case "checkpoints amortized, recovery bounded" `Quick
            test_checkpoints_amortized;
        ] );
    ]
