(* The sharded credential plane, attacked from two sides:

   - property tests on the consistent-hash ring (determinism, bounded key
     movement on membership change, balance);
   - a differential harness: the same seeded workload — entries, a
     cross-shard revocation cascade, fire/re-hire, chaos faults on every
     shard host and the router — run against a 1-shard and an N-shard
     deployment, asserting the observable credential state converges to
     the same table within 3 heartbeats of the final heal, for
     N in {2, 4, 16} over 25 seeds, with bit-identical replays. *)

module Engine = Oasis_sim.Engine
module Net = Oasis_sim.Net
module Fault = Oasis_sim.Fault
module Stats = Oasis_sim.Stats
module Prng = Oasis_util.Prng
module Service = Oasis_core.Service
module Shard = Oasis_core.Shard
module Replica = Oasis_core.Replica
module Journal = Oasis_core.Journal
module Principal = Oasis_core.Principal
module Cert = Oasis_core.Cert
module V = Oasis_rdl.Value

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- the ring --- *)

(* 10k routing keys shaped like real ones (role name + marshalled args),
   generated from a seeded stream so the sample is arbitrary but fixed. *)
let sample_keys n =
  let prng = Prng.create 424242L in
  Array.init n (fun _ ->
      Shard.route_key
        ~role:(Printf.sprintf "Role%d" (Prng.int prng 7))
        ~args:[ V.Str (Printf.sprintf "u%Ld" (Prng.bits64 prng)) ])

let test_ring_deterministic () =
  let r1 = Shard.Ring.make ~shards:8 () in
  let r2 = Shard.Ring.make ~shards:8 () in
  let keys = sample_keys 1_000 in
  Array.iter
    (fun k -> checki "same placement on equal rings" (Shard.Ring.owner r1 k) (Shard.Ring.owner r2 k))
    keys;
  checki "shard count" 8 (Shard.Ring.shard_count r1);
  checki "vnodes default" 64 (Shard.Ring.vnodes r1)

(* Adding one shard may steal at most ~1/(n+1) of the keyspace (we allow
   2x for hash variance), and every stolen key must land on the newcomer —
   nobody else's keys are allowed to move. *)
let test_ring_movement_on_add () =
  let keys = sample_keys 10_000 in
  List.iter
    (fun n ->
      let before = Shard.Ring.make ~shards:n () in
      let after = Shard.Ring.add_shard before in
      let fresh =
        List.filter (fun i -> not (List.mem i (Shard.Ring.shard_ids before)))
          (Shard.Ring.shard_ids after)
      in
      let fresh = match fresh with [ f ] -> f | _ -> Alcotest.fail "exactly one fresh id" in
      let moved = ref 0 in
      Array.iter
        (fun k ->
          let o = Shard.Ring.owner before k and o' = Shard.Ring.owner after k in
          if o <> o' then begin
            incr moved;
            checki (Printf.sprintf "moved key goes to the newcomer (n=%d)" n) fresh o'
          end)
        keys;
      let bound = 2 * Array.length keys / (n + 1) in
      checkb
        (Printf.sprintf "n=%d: %d moved <= %d" n !moved bound)
        true (!moved <= bound);
      checkb (Printf.sprintf "n=%d: something moved" n) true (!moved > 0))
    [ 2; 4; 8; 16 ]

(* Removing a shard evicts exactly its own keys, at most ~2/n of the
   keyspace; every other key keeps its owner. *)
let test_ring_movement_on_remove () =
  let keys = sample_keys 10_000 in
  List.iter
    (fun n ->
      let before = Shard.Ring.make ~shards:n () in
      let victim = n / 2 in
      let after = Shard.Ring.remove_shard before victim in
      checki "one fewer shard" (n - 1) (Shard.Ring.shard_count after);
      let moved = ref 0 in
      Array.iter
        (fun k ->
          let o = Shard.Ring.owner before k and o' = Shard.Ring.owner after k in
          if o <> o' then begin
            incr moved;
            checki (Printf.sprintf "only the victim's keys move (n=%d)" n) victim o
          end;
          checkb "no key maps to the removed shard" true (o' <> victim))
        keys;
      let bound = 2 * Array.length keys / n in
      checkb
        (Printf.sprintf "n=%d: %d moved <= %d" n !moved bound)
        true (!moved <= bound))
    [ 2; 4; 8; 16 ]

let test_ring_balance () =
  let keys = sample_keys 10_000 in
  List.iter
    (fun n ->
      let ring = Shard.Ring.make ~vnodes:64 ~shards:n () in
      let counts = Array.make n 0 in
      Array.iter (fun k -> let o = Shard.Ring.owner ring k in counts.(o) <- counts.(o) + 1) keys;
      let ideal = Array.length keys / n in
      Array.iteri
        (fun i c ->
          checkb
            (Printf.sprintf "shard %d/%d load %d <= 2x ideal %d" i n c ideal)
            true (c <= 2 * ideal))
        counts)
    [ 8; 16 ]

(* The ring's points are the SipHashes of the vnode names "<id>/<v>":
   placement equals that of a ring spelled with [Printf], on made rings
   and on rings grown and shrunk. *)
let test_ring_matches_printf_names () =
  let key = Oasis_util.Siphash.key_of_string "oasis.shard.ring.v1" in
  let reference ~vnodes ids =
    let pts =
      List.concat_map
        (fun id ->
          List.init vnodes (fun v ->
              (Oasis_util.Siphash.hash key (Printf.sprintf "%d/%d" id v), id)))
        ids
      |> Array.of_list
    in
    Array.sort
      (fun (p1, i1) (p2, i2) ->
        match Int64.unsigned_compare p1 p2 with 0 -> compare i1 i2 | c -> c)
      pts;
    fun k ->
      let h = Oasis_util.Siphash.hash key k in
      match Array.find_opt (fun (p, _) -> Int64.unsigned_compare p h >= 0) pts with
      | Some (_, id) -> id
      | None -> snd pts.(0)
  in
  let keys = List.init 2000 (fun i -> Printf.sprintf "Member(u%d)" i) in
  List.iter
    (fun (vnodes, shards) ->
      let ring = Shard.Ring.make ~vnodes ~shards () in
      let grown = Shard.Ring.add_shard ring in
      let shrunk = Shard.Ring.remove_shard grown 0 in
      List.iter
        (fun (label, ring, ids) ->
          let want = reference ~vnodes ids in
          List.iter
            (fun k ->
              checki
                (Printf.sprintf "%s ring (%d vnodes, %d shards): %s" label vnodes shards k)
                (want k) (Shard.Ring.owner ring k))
            keys)
        [
          ("made", ring, List.init shards Fun.id);
          ("grown", grown, List.init (shards + 1) Fun.id);
          ("shrunk", shrunk, List.init shards (fun i -> i + 1));
        ])
    [ (1, 1); (7, 3); (64, 12) ]

(* Removing an id the ring does not hold used to be a silent no-op; it
   must raise like [make] does, and a real removal must still work. *)
let test_ring_remove_unknown_raises () =
  let r = Shard.Ring.make ~shards:4 () in
  (match Shard.Ring.remove_shard r 7 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "remove of unknown shard id must raise");
  (match Shard.Ring.remove_shard r (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "remove of negative shard id must raise");
  let r' = Shard.Ring.remove_shard r 2 in
  checki "real removal still works" 3 (Shard.Ring.shard_count r');
  (match Shard.Ring.remove_shard r' 2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double removal must raise the second time")

(* --- the differential harness --- *)

let login_rolefile = {|
def LoggedOn(u, h) u: String h: String
LoggedOn(u, h) <-
|}

(* Editor depends on an unqualified Member reference: when the two role
   instances land on different shards, the dependency is an external
   record between siblings — the cross-shard cascade under test. *)
let club_rolefile =
  {|
Chair <- Login.LoggedOn("jmb", h)
Member(u) <- Login.LoggedOn(u, h)* |>* Chair : u in staff
Editor(u) <- Member(u)* |>* Chair
|}

type world = { w_engine : Engine.t; w_net : Net.t; w_client : Net.host }

let srun w dt = Engine.run ~until:(Engine.now w.w_engine +. dt) w.w_engine

let fresh_vci =
  let host = Principal.Host.create "shardclienthost" in
  let domain = Principal.Host.boot_domain host in
  fun () -> Principal.Host.new_vci host domain

let users = [ "u0"; "u1"; "u2"; "u3"; "u4"; "u5" ]

let make_world ?(replicas = 1) ?(batch = true) ~seed ~shards () =
  let engine = Engine.create () in
  let net = Net.create ~seed ~latency:(Net.Fixed 0.005) engine in
  let reg = Service.create_registry () in
  let client = Net.add_host net "client" in
  let login_host = Net.add_host net "h.Login" in
  let login =
    match
      Service.create net login_host reg ~name:"Login" ~rolefile:login_rolefile
        ~batch_notifications:batch ()
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "login: %s" e
  in
  let club =
    match
      Shard.create net reg ~name:"Club" ~rolefile:club_rolefile ~shards ~durable:true
        ~snapshot_every:8 ~groups:[ ("staff", users) ] ~replicas ()
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "shard deploy: %s" e
  in
  ({ w_engine = engine; w_net = net; w_client = client }, login, club)

(* Drive one routed operation to completion, retrying the whole operation
   when it fails or stalls: under chaos an attempt can exhaust its retry
   budget (router or owning shard down too long) or be denied transiently
   (sibling revoker validation giving up).  Completions are polled on the
   virtual clock, so the schedule stays a deterministic function of the
   seed.  Stale completions of an abandoned attempt land in that attempt's
   own cell — harmless, all the routed ops are idempotent. *)
let rec until_ok ?(last = "never completed") w label tries op =
  if tries = 0 then Alcotest.failf "%s: retries exhausted (last: %s)" label last
  else begin
    let cell = ref None in
    op (fun r -> cell := Some r);
    let rec wait budget =
      match !cell with
      | Some (Ok v) -> v
      | Some (Error e) ->
          srun w 0.5;
          until_ok ~last:e w label (tries - 1) op
      | None ->
          if budget <= 0.0 then until_ok ~last w label (tries - 1) op
          else begin
            srun w 0.25;
            wait (budget -. 0.25)
          end
    in
    wait 40.0
  end

type creds = {
  c_chair : Cert.rmc;
  c_members : (string * Principal.vci * Cert.rmc) list;
  c_editors : (string * Principal.vci * Cert.rmc) list;
}

let setup w login club =
  let jmb = fresh_vci () in
  let jmb_login =
    Service.issue_arbitrary login ~client:jmb ~roles:[ "LoggedOn" ]
      ~args:[ V.Str "jmb"; V.Str "ely" ]
  in
  let enter ~client ~role ~args ~creds label =
    until_ok w label 8 (fun k ->
        Shard.request_entry club ~client_host:w.w_client ~client ~role ~args ~creds k)
  in
  let chair = enter ~client:jmb ~role:"Chair" ~args:[] ~creds:[ jmb_login ] "enter-chair" in
  let members =
    List.map
      (fun u ->
        let vci = fresh_vci () in
        let lc =
          Service.issue_arbitrary login ~client:vci ~roles:[ "LoggedOn" ]
            ~args:[ V.Str u; V.Str "ely" ]
        in
        let m =
          enter ~client:vci ~role:"Member" ~args:[ V.Str u ] ~creds:[ lc ] ("enter-member-" ^ u)
        in
        (u, vci, m))
      users
  in
  let editors =
    List.filter_map
      (fun (u, vci, m) ->
        if List.mem u [ "u0"; "u1"; "u2"; "u3" ] then
          Some
            (u, vci, enter ~client:vci ~role:"Editor" ~args:[ V.Str u ] ~creds:[ m ] ("enter-editor-" ^ u))
        else None)
      members
  in
  { c_chair = chair; c_members = members; c_editors = editors }

let status_at_issuer club ~client cert =
  let issuer =
    match
      Array.to_seq (Shard.shards club)
      |> Seq.find (fun s -> String.equal (Service.name s) cert.Cert.service)
    with
    | Some s -> s
    | None -> Alcotest.failf "no shard issued %s" cert.Cert.service
  in
  match Service.validate issuer ~client cert with
  | Ok () -> "ok"
  | Error f -> Format.asprintf "%a" Service.pp_failure f

(* The observable table: per-certificate status as seen at the issuing
   shard, plus the §4.11 blacklist bits.  Shard names vary with N
   (Club#0..Club#N-1), so rows are keyed by workload-level labels. *)
let observe club creds ~u1_new ~u1_vci =
  let member_row (u, vci, m) = ("member." ^ u, status_at_issuer club ~client:vci m) in
  let editor_row (u, vci, e) = ("editor." ^ u, status_at_issuer club ~client:vci e) in
  let chair_row =
    ("chair", status_at_issuer club ~client:creds.c_chair.Cert.holder creds.c_chair)
  in
  (chair_row :: List.map member_row creds.c_members)
  @ List.map editor_row creds.c_editors
  @ [ ("member.u1.new", status_at_issuer club ~client:u1_vci u1_new) ]
  @ List.map
      (fun u -> ("bl.member." ^ u, string_of_bool (Shard.blacklisted club ~role:"Member" ~args:[ V.Str u ])))
      users
  @ List.map
      (fun u -> ("bl.editor." ^ u, string_of_bool (Shard.blacklisted club ~role:"Editor" ~args:[ V.Str u ])))
      users

(* One full run: setup, chaos over every shard host and the router, the
   mutation workload driven to completion during the chaos, heal,
   convergence within 3 heartbeats, then the observable table. *)
let differential_run ?(replicas = 1) ~seed ~shards () =
  let w, login, club = make_world ~replicas ~seed ~shards () in
  srun w 0.2;
  let creds = setup w login club in
  srun w 2.0;
  (* Everyone's in; start the storm.  Chaos targets every replica of every
     shard, not just the primaries. *)
  let f = Net.fault w.w_net in
  let hosts =
    Net.host_addr (Shard.router_host club)
    :: (Array.to_list (Shard.replica_groups club)
       |> List.concat_map (fun g ->
              List.map (fun s -> Net.host_addr (Service.host s)) (Replica.members g)))
  in
  (* Per-host MTBF scales with the host count so the GLOBAL fault pressure
     is the same at every shard count (~3-4 crashes per window): the
     differential compares deployments under comparable weather, and the
     routed operations keep a fighting chance of finding the router and
     the owning shard up within one retry budget even at 16 shards. *)
  let mtbf = 1.5 *. float_of_int (List.length hosts) in
  Fault.chaos f ~hosts ~mtbf ~mttr:1.0 ~until:(Engine.now w.w_engine +. 10.0);
  srun w 1.0;
  let fire u =
    ignore
      (until_ok w ("fire-" ^ u) 8 (fun k ->
           Shard.revoke_role_instance club ~client_host:w.w_client ~revoker:creds.c_chair
             ~role:"Member" ~args:[ V.Str u ] k))
  in
  (* u0: fired, cascading into Editor(u0) on (usually) another shard.
     u1: fired, re-hired, re-enters — old certs stay revoked, the new
     membership is valid.  u3 loses Editor only.  u2/u4/u5 untouched. *)
  fire "u0";
  fire "u1";
  until_ok w "rehire-u1" 8 (fun k ->
      Shard.reinstate_role_instance club ~client_host:w.w_client ~revoker:creds.c_chair
        ~role:"Member" ~args:[ V.Str "u1" ] k);
  let u1_vci, u1_login =
    let _, vci, _ = List.find (fun (u, _, _) -> u = "u1") creds.c_members in
    ( vci,
      Service.issue_arbitrary login ~client:vci ~roles:[ "LoggedOn" ]
        ~args:[ V.Str "u1"; V.Str "ely" ] )
  in
  let u1_new =
    until_ok w "reenter-u1" 8 (fun k ->
        Shard.request_entry club ~client_host:w.w_client ~client:u1_vci ~role:"Member"
          ~args:[ V.Str "u1" ] ~creds:[ u1_login ] k)
  in
  ignore
    (until_ok w "fire-editor-u3" 8 (fun k ->
         Shard.revoke_role_instance club ~client_host:w.w_client ~revoker:creds.c_chair
           ~role:"Editor" ~args:[ V.Str "u3" ] k));
  (* Let chaos run its course, then wait for the final heal of every host. *)
  srun w 10.0;
  let rec await_heal budget =
    if List.for_all (Fault.up f) hosts then Engine.now w.w_engine
    else if budget <= 0.0 then Alcotest.fail "chaos never healed"
    else begin
      srun w 0.05;
      await_heal (budget -. 0.05)
    end
  in
  let healed = await_heal 5.0 in
  checkb "chaos actually crashed something" true
    (Stats.count (Net.stats w.w_net) "fault.crash" >= 1);
  (* §4.10 under sharding: the cross-shard cascade must be visible
     everywhere within 3 heartbeats (heartbeat = 1.0) of the heal. *)
  let sentinel (u, vci, c) want =
    String.equal (status_at_issuer club ~client:vci c) want
  in
  let member u = List.find (fun (x, _, _) -> x = u) creds.c_members in
  let editor u = List.find (fun (x, _, _) -> x = u) creds.c_editors in
  let converged () =
    sentinel (member "u0") "revoked"
    && sentinel (member "u1") "revoked"
    && sentinel (editor "u0") "revoked"
    && sentinel (editor "u1") "revoked"
    && sentinel (editor "u3") "revoked"
    && sentinel ("u1", u1_vci, u1_new) "ok"
  in
  let deadline = healed +. 3.0 in
  let rec poll () =
    if converged () then ()
    else if Engine.now w.w_engine >= deadline then
      let s (u, vci, c) = status_at_issuer club ~client:vci c in
      Alcotest.failf
        "no convergence within 3 heartbeats of heal (seed %Ld, %d shards): m.u0=%s m.u1=%s \
         e.u0=%s e.u1=%s e.u3=%s m.u1.new=%s"
        seed shards
        (s (member "u0")) (s (member "u1")) (s (editor "u0")) (s (editor "u1"))
        (s (editor "u3"))
        (s ("u1", u1_vci, u1_new))
    else begin
      srun w 0.05;
      poll ()
    end
  in
  poll ();
  (observe club creds ~u1_new ~u1_vci, Stats.report (Net.stats w.w_net))

let expected_table =
  [
    ("chair", "ok");
    ("member.u0", "revoked");
    ("member.u1", "revoked");
    ("member.u2", "ok");
    ("member.u3", "ok");
    ("member.u4", "ok");
    ("member.u5", "ok");
    ("editor.u0", "revoked");
    ("editor.u1", "revoked");
    ("editor.u2", "ok");
    ("editor.u3", "revoked");
    ("member.u1.new", "ok");
    ("bl.member.u0", "true");
    ("bl.member.u1", "false");
    ("bl.member.u2", "false");
    ("bl.member.u3", "false");
    ("bl.member.u4", "false");
    ("bl.member.u5", "false");
    ("bl.editor.u0", "false");
    ("bl.editor.u1", "false");
    ("bl.editor.u2", "false");
    ("bl.editor.u3", "true");
    ("bl.editor.u4", "false");
    ("bl.editor.u5", "false");
  ]

let table = Alcotest.(list (pair string string))

let test_differential_sharded_equals_unsharded () =
  for s = 1 to 25 do
    let seed = Int64.of_int (100 + s) in
    let base, _ = differential_run ~seed ~shards:1 () in
    Alcotest.check table
      (Printf.sprintf "seed %d: unsharded run reaches the expected state" s)
      expected_table base;
    List.iter
      (fun n ->
        let t, _ = differential_run ~seed ~shards:n () in
        Alcotest.check table
          (Printf.sprintf "seed %d: %d-shard state equals unsharded" s n)
          base t)
      [ 2; 4; 16 ]
  done

(* Same differential, replication axis: K = 3 replica groups under chaos
   over every replica host must converge to the same observable table as
   the unreplicated deployment — a replica (or primary) crash is invisible
   to the workload's final state. *)
let test_differential_replicated_equals_unreplicated () =
  for s = 1 to 25 do
    let seed = Int64.of_int (300 + s) in
    let base, _ = differential_run ~seed ~shards:2 ~replicas:1 () in
    Alcotest.check table
      (Printf.sprintf "seed %d: K=1 run reaches the expected state" s)
      expected_table base;
    let repl, _ = differential_run ~seed ~shards:2 ~replicas:3 () in
    Alcotest.check table
      (Printf.sprintf "seed %d: K=3 state equals K=1" s)
      base repl
  done

let test_differential_replay_identical () =
  List.iter
    (fun n ->
      let r = differential_run ~seed:7L ~shards:n () in
      let r' = differential_run ~seed:7L ~shards:n () in
      checkb (Printf.sprintf "%d shards: same seed, same run" n) true (r = r'))
    [ 1; 2; 4 ];
  let r = differential_run ~seed:7L ~shards:2 ~replicas:3 () in
  let r' = differential_run ~seed:7L ~shards:2 ~replicas:3 () in
  checkb "K=3: same seed, same run" true (r = r')

(* The router path itself (entry, validate, exit) in calm weather: routed
   validation answers from the issuing shard, exit revokes. *)
let test_router_validate_and_exit () =
  let w, login, club = make_world ~seed:5L ~shards:4 () in
  srun w 0.2;
  let creds = setup w login club in
  srun w 2.0;
  let _, u4, m4 = List.find (fun (u, _, _) -> u = "u4") creds.c_members in
  let vres = ref None in
  Shard.validate club ~client_host:w.w_client ~client:u4 m4 (fun r -> vres := Some r);
  srun w 2.0;
  checkb "routed validate ok" true (!vres = Some (Ok ()));
  let eres = ref None in
  Shard.exit_role club ~client_host:w.w_client m4 (fun r -> eres := Some r);
  srun w 2.0;
  checkb "routed exit ok" true (!eres = Some (Ok ()));
  srun w 3.0;
  checkb "exited membership no longer validates" true
    (status_at_issuer club ~client:u4 m4 <> "ok");
  (* Instances really are spread: with 4 shards and 11 instances the ring
     must use more than one shard (holds for this fixed workload). *)
  let owners =
    List.sort_uniq compare
      (List.map (fun u -> Shard.owner_index club ~role:"Member" ~args:[ V.Str u ]) users)
  in
  checkb "members spread over several shards" true (List.length owners > 1)

(* --- replication (K = 3 replica groups) --- *)

let is_prefix xs ys =
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | (a : string) :: at, b :: bt -> String.equal a b && go (at, bt)
  in
  go (xs, ys)

(* The log-shipping invariant, checked at quiescence: every live member's
   durable WAL is a prefix of its group's record stream. *)
let assert_stream_prefixes w club label =
  Array.iteri
    (fun i g ->
      let stream = Replica.stream g in
      List.iteri
        (fun j svc ->
          if Net.host_up w.w_net (Service.host svc) then
            checkb
              (Printf.sprintf "%s: shard %d replica %d log is a stream prefix" label i j)
              true
              (is_prefix (Journal.log_records (Option.get (Service.journal svc))) stream))
        (Replica.members g))
    (Shard.replica_groups club)

(* The stream is held once: a backup appends the frames it is shipped as
   they lie in the primary's WAL, so at quiescence every live member's
   WAL bytes are the primary's up to the member's length.  Nothing is
   buffered then, so the bytes read are the durable ones. *)
let assert_wal_bytes_prefixes w club label =
  let wal_bytes svc =
    let j = Option.get (Service.journal svc) in
    let bytes = Journal.log_bytes j ~off:0 ~len:max_int in
    checki (label ^ ": the WAL is all durable") (Journal.stored_bytes j) (String.length bytes);
    bytes
  in
  Array.iteri
    (fun i g ->
      let primary = wal_bytes (Replica.primary g) in
      List.iteri
        (fun j svc ->
          if Net.host_up w.w_net (Service.host svc) then begin
            let mine = wal_bytes svc in
            checkb
              (Printf.sprintf "%s: shard %d replica %d WAL bytes are the primary's prefix" label i j)
              true
              (String.length mine <= String.length primary
              && String.equal mine (String.sub primary 0 (String.length mine)))
          end)
        (Replica.members g))
    (Shard.replica_groups club)

let fire_member w club creds u =
  ignore
    (until_ok w ("fire-" ^ u) 8 (fun k ->
         Shard.revoke_role_instance club ~client_host:w.w_client ~revoker:creds.c_chair
           ~role:"Member" ~args:[ V.Str u ] k))

let test_log_shipping_prefix () =
  let w, login, club = make_world ~replicas:3 ~seed:21L ~shards:2 () in
  srun w 0.2;
  let creds = setup w login club in
  srun w 2.0;
  let quiesce () =
    Shard.durable_flush club;
    srun w 1.5
  in
  quiesce ();
  assert_stream_prefixes w club "after setup";
  assert_wal_bytes_prefixes w club "after setup";
  let f = Net.fault w.w_net in
  let g0 = Shard.replica_group club 0 in
  (* A backup crash loses its unsynced tail; the primary's cursor rewinds
     and re-ships.  The workload keeps running meanwhile (quorum 2/3). *)
  let backup = Replica.member g0 ((Replica.primary_index g0 + 1) mod 3) in
  Fault.crash f (Net.host_addr (Service.host backup));
  fire_member w club creds "u0";
  srun w 1.0;
  Fault.restart f (Net.host_addr (Service.host backup));
  quiesce ();
  assert_stream_prefixes w club "after a backup crash cycle";
  (* A primary crash forces a failover; the ex-primary rejoins holding a
     possibly-divergent unacked tail, which shipping must repair. *)
  let old_primary = Replica.primary g0 in
  Fault.crash f (Net.host_addr (Service.host old_primary));
  fire_member w club creds "u1";
  srun w 3.0;
  checkb "the crash actually failed over" true (Replica.promotions g0 >= 1);
  Fault.restart f (Net.host_addr (Service.host old_primary));
  quiesce ();
  assert_stream_prefixes w club "after failover and ex-primary rejoin";
  (* The stream carries what was acked: both fires are visible. *)
  checkb "fire u0 survived" true (Shard.blacklisted club ~role:"Member" ~args:[ V.Str "u0" ]);
  checkb "fire u1 survived" true (Shard.blacklisted club ~role:"Member" ~args:[ V.Str "u1" ]);
  ignore login

(* The ack-overrun bug: shipping verifies content batch by batch (256
   records), and the no-divergence branch used to ack the backup's WHOLE
   log length whenever the log ran past the shipped batch — so a rejoining
   ex-primary whose dead-epoch tail diverged only beyond the first batch
   was marked quorum-durable for junk positions, shipping stopped short,
   and the divergence survived forever.  Build that world directly: pad
   every log past one ship batch with ignorable records (unknown tags are
   skipped by replay, exactly like epoch barriers), give the primary a
   divergent never-shipped tail on top, crash it, fail over (the new
   stream = padded log + its barrier, > 256 records), rejoin the
   ex-primary — shipping must walk past batch #1, find the divergence and
   repair the tail back to a true stream prefix. *)
let test_repair_divergence_past_first_batch () =
  let w, login, club = make_world ~replicas:3 ~seed:71L ~shards:1 () in
  srun w 0.2;
  let creds = setup w login club in
  srun w 2.0;
  let g = Shard.replica_group club 0 in
  let quiesce () =
    Shard.durable_flush club;
    srun w 1.5
  in
  quiesce ();
  let base = Replica.stream g in
  let pad = List.init 300 (fun i -> Printf.sprintf "P\x1fpad%d" i) in
  let junk = List.init 30 (fun i -> Printf.sprintf "D\x1fjunk%d" i) in
  let padded = base @ pad in
  checkb "padded history exceeds one ship batch" true (List.length padded > 256);
  let old_primary = Replica.primary g in
  let rewrote = ref 0 in
  List.iteri
    (fun j svc ->
      let log = if j = Replica.primary_index g then padded @ junk else padded in
      Journal.log_rewrite (Option.get (Service.journal svc)) log (fun () -> incr rewrote))
    (Replica.members g);
  srun w 2.0;
  checki "all three logs rewritten" 3 !rewrote;
  let f = Net.fault w.w_net in
  Fault.crash f (Net.host_addr (Service.host old_primary));
  srun w 3.0;
  checkb "a backup took over" true (Replica.promotions g >= 1 && Replica.ready g);
  checkb "the new stream runs past one ship batch" true
    (List.length (Replica.stream g) > 256);
  Fault.restart f (Net.host_addr (Service.host old_primary));
  srun w 3.0;
  quiesce ();
  let rejoined = Journal.log_records (Option.get (Service.journal old_primary)) in
  checkb "ex-primary's junk tail was repaired away" true
    (not (List.exists (fun r -> String.length r >= 1 && r.[0] = 'D') rejoined));
  checkb "ex-primary's log is a stream prefix again" true
    (is_prefix rejoined (Replica.stream g));
  assert_wal_bytes_prefixes w club "after the repair";
  (* And the group still quorum-acks new writes over the repaired logs. *)
  fire_member w club creds "u4";
  srun w 3.0;
  checkb "post-repair fire acked and applied" true
    (Shard.blacklisted club ~role:"Member" ~args:[ V.Str "u4" ]);
  quiesce ();
  assert_stream_prefixes w club "after repair and new appends";
  assert_wal_bytes_prefixes w club "after repair and new appends";
  ignore login

(* A backup appends the primary's frames unchanged, which is sound only
   when every member frames under the same key: the key derives from the
   WAL's file name, and that from the service name. *)
let test_create_refuses_mixed_names () =
  let engine = Engine.create () in
  let net = Net.create ~latency:(Net.Fixed 0.005) engine in
  let reg = Service.create_registry () in
  let member ~name ~host ~register =
    let h = Net.add_host net host in
    match
      Service.create net h reg ~name ~rolefile:login_rolefile
        ~disk:(Oasis_store.Disk.create net h) ~register ()
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "%s: %s" name e
  in
  let a = member ~name:"Login" ~host:"h.a" ~register:true in
  let b = member ~name:"Logon" ~host:"h.b" ~register:false in
  match Replica.create net ~members:[| a; b |] with
  | _ -> Alcotest.fail "a group of two service names was accepted"
  | exception Invalid_argument _ -> ()

let test_failover_idempotent () =
  let w, login, club = make_world ~replicas:3 ~seed:31L ~shards:1 () in
  srun w 0.2;
  let creds = setup w login club in
  srun w 2.0;
  let g = Shard.replica_group club 0 in
  checki "initial epoch" 0 (Replica.epoch g);
  checki "no promotions yet" 0 (Replica.promotions g);
  let f = Net.fault w.w_net in
  Fault.crash f (Net.host_addr (Service.host (Replica.primary g)));
  (* Two candidates race the same epoch (plus a literal double call):
     exactly one CAS commits. *)
  Replica.promote g ~member:1 ~from_epoch:0;
  Replica.promote g ~member:1 ~from_epoch:0;
  Replica.promote g ~member:2 ~from_epoch:0;
  srun w 3.0;
  checki "exactly one promotion committed" 1 (Replica.promotions g);
  checki "epoch bumped exactly once" 1 (Replica.epoch g);
  checkb "replay finished" true (Replica.ready g);
  checkb "a backup took over" true (Replica.primary_index g <> 0);
  (* A late promotion against the dead epoch is a no-op. *)
  Replica.promote g ~member:2 ~from_epoch:0;
  srun w 2.0;
  checki "stale-epoch promotion is a no-op" 1 (Replica.promotions g);
  checki "epoch unchanged" 1 (Replica.epoch g);
  (* And the promoted primary actually serves. *)
  let _, vci, m = List.find (fun (u, _, _) -> u = "u2") creds.c_members in
  let res = ref None in
  Shard.validate club ~client_host:w.w_client ~client:vci m (fun r -> res := Some r);
  srun w 3.0;
  checkb "validates at the new primary" true (!res = Some (Ok ()));
  ignore login

(* PR 1's bug class, replication edition: crash/restart/failover cycles
   must not leave extra timers armed.  Measured at a quiesced state (all
   replicas down, in-flight one-shots drained) before and after the
   cycles: the per-host armed-timer counts must be identical. *)
let test_failover_timer_hygiene () =
  let w, login, club = make_world ~replicas:3 ~seed:41L ~shards:1 () in
  srun w 0.2;
  let creds = setup w login club in
  srun w 2.0;
  let g = Shard.replica_group club 0 in
  let f = Net.fault w.w_net in
  let hosts = List.map Service.host (Replica.members g) in
  let measure () =
    List.iter (fun h -> Fault.crash f (Net.host_addr h)) hosts;
    srun w 3.0;
    let counts =
      List.concat_map
        (fun h ->
          let n = Net.host_name h in
          List.map (fun p -> Engine.pending_tagged w.w_engine (p ^ n)) [ "t:"; "s:"; "d:" ])
        hosts
    in
    List.iter (fun h -> Fault.restart f (Net.host_addr h)) hosts;
    srun w 3.0;
    counts
  in
  let base = measure () in
  for _ = 1 to 3 do
    Fault.crash f (Net.host_addr (Service.host (Replica.primary g)));
    srun w 2.0;
    fire_member w club creds "u5";
    List.iter
      (fun h -> if not (Fault.up f (Net.host_addr h)) then Fault.restart f (Net.host_addr h))
      hosts;
    srun w 2.0;
    ignore
      (until_ok w "rehire-u5" 8 (fun k ->
           Shard.reinstate_role_instance club ~client_host:w.w_client ~revoker:creds.c_chair
             ~role:"Member" ~args:[ V.Str "u5" ] k))
  done;
  let after = measure () in
  checkb
    (Printf.sprintf "armed-timer counts are crash-invariant (%s -> %s)"
       (String.concat "," (List.map string_of_int base))
       (String.concat "," (List.map string_of_int after)))
    true (base = after);
  ignore login

(* Satellite regression: with the owning shard down, routed validation
   must answer an explicit fail-closed verdict, not leak the transport's
   "timeout" giveup — and must recover once the shard does. *)
let test_validate_fail_closed () =
  let w, login, club = make_world ~seed:51L ~shards:2 () in
  srun w 0.2;
  let creds = setup w login club in
  srun w 2.0;
  let _, u4, m4 = List.find (fun (u, _, _) -> u = "u4") creds.c_members in
  let issuer =
    match
      Array.to_seq (Shard.shards club)
      |> Seq.find (fun s -> String.equal (Service.name s) m4.Cert.service)
    with
    | Some s -> s
    | None -> Alcotest.fail "no shard issued m4"
  in
  let f = Net.fault w.w_net in
  Fault.crash f (Net.host_addr (Service.host issuer));
  let res = ref None in
  Shard.validate club ~client_host:w.w_client ~client:u4 m4 (fun r -> res := Some r);
  srun w 8.0;
  (match !res with
  | Some (Error e) ->
      checkb
        (Printf.sprintf "explicit fail-closed verdict (got %S)" e)
        true
        (String.length e >= 11 && String.equal (String.sub e 0 11) "fail-closed")
  | Some (Ok ()) -> Alcotest.fail "validated against a dead shard"
  | None -> Alcotest.fail "validate never answered");
  Fault.restart f (Net.host_addr (Service.host issuer));
  srun w 3.0;
  let res2 = ref None in
  Shard.validate club ~client_host:w.w_client ~client:u4 m4 (fun r -> res2 := Some r);
  srun w 3.0;
  checkb "validates again after the shard heals" true (!res2 = Some (Ok ()));
  ignore login

(* The tentpole's headline: killing one replica of each shard mid-workload
   loses nothing acked and keeps validation down for at most one (service)
   heartbeat. *)
let test_single_replica_crash_costs_nothing () =
  let w, login, club = make_world ~replicas:3 ~seed:61L ~shards:2 () in
  srun w 0.2;
  let creds = setup w login club in
  srun w 2.0;
  fire_member w club creds "u0";
  srun w 5.0;
  let obs () =
    List.map
      (fun (u, vci, m) -> ("m." ^ u, status_at_issuer club ~client:vci m))
      creds.c_members
    @ List.map
        (fun (u, vci, e) -> ("e." ^ u, status_at_issuer club ~client:vci e))
        creds.c_editors
    @ List.map
        (fun u ->
          ("bl." ^ u, string_of_bool (Shard.blacklisted club ~role:"Member" ~args:[ V.Str u ])))
        users
  in
  let before = obs () in
  let f = Net.fault w.w_net in
  let g0 = Shard.replica_group club 0 and g1 = Shard.replica_group club 1 in
  (* One replica of EACH shard: the primary of shard 0 (forcing a
     failover) and a backup of shard 1 (which must cost nothing at all). *)
  let crash_t = Engine.now w.w_engine in
  Fault.crash f (Net.host_addr (Service.host (Replica.primary g0)));
  Fault.crash f
    (Net.host_addr (Service.host (Replica.member g1 ((Replica.primary_index g1 + 1) mod 3))));
  (* Probe with a certificate issued by shard 0 — the failover path.
     Unavailability = time until a freshly issued validate answers Ok
     PROMPTLY (within 0.1 s, so the answer cannot be the product of the
     router's internal backoff-retry); must be within one service
     heartbeat (1.0 s) of the crash. *)
  let _, pvci, pm =
    List.find (fun (_, _, m) -> String.equal m.Cert.service "Club#0") creds.c_members
  in
  let ok_starts = ref [] in
  for _ = 1 to 60 do
    let t0 = Engine.now w.w_engine in
    Shard.validate club ~client_host:w.w_client ~client:pvci pm (fun r ->
        if r = Ok () && Engine.now w.w_engine -. t0 <= 0.1 then ok_starts := t0 :: !ok_starts);
    srun w 0.05
  done;
  srun w 2.0;
  let gap =
    match List.sort compare !ok_starts with
    | [] -> Alcotest.fail "validation never came back promptly"
    | first :: _ -> first -. crash_t
  in
  checkb (Printf.sprintf "validation gap %.2fs within one heartbeat" gap) true (gap <= 1.0);
  (* Acked operations survived: the observable table is unchanged. *)
  srun w 3.0;
  Alcotest.check table "no acked state lost across the crashes" before (obs ());
  (* And the group still takes writes (quorum 2/3 on both shards). *)
  fire_member w club creds "u3";
  srun w 3.0;
  checkb "post-crash fire acked and applied" true
    (Shard.blacklisted club ~role:"Member" ~args:[ V.Str "u3" ]);
  ignore login

(* An issuer that does not batch its notifications must keep feeding a
   mirroring peer across a failover: the peer's link rebinds to the new
   primary's broker and must re-subscribe to every mirrored record there,
   not only to the batched digest.  Login is a 3-replica durable group;
   Club mirrors one LoggedOn record through a Member certificate.  After
   the primary crashes and a backup takes over, revoking LoggedOn at the
   new primary must reach Club's Member certificate, for both notification
   schemes.  Returns the world, Club, Login's members and replica group,
   and Club's verdict on the Member certificate. *)
let failover_run ?(traced = false) ~batch () =
  let engine = Engine.create () in
  let net = Net.create ~seed:5L ~latency:(Net.Fixed 0.005) engine in
  Oasis_sim.Trace.set_enabled (Net.trace net) traced;
  let w = { w_engine = engine; w_net = net; w_client = Net.add_host net "client" } in
  let reg = Service.create_registry () in
  let logins =
    Array.init 3 (fun j ->
        let host = Net.add_host net (Printf.sprintf "h.Login.r%d" j) in
        match
          Service.create net host reg ~name:"Login" ~rolefile:login_rolefile
            ~batch_notifications:batch ~disk:(Oasis_store.Disk.create net host)
            ~register:(j = 0) ()
        with
        | Ok s -> s
        | Error e -> Alcotest.failf "login replica %d: %s" j e)
  in
  let group = Replica.create net ~members:logins in
  let club =
    match
      Service.create net (Net.add_host net "h.Club") reg ~name:"Club"
        ~rolefile:"Member(u) <- Login.LoggedOn(u, h)*\n" ()
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "club: %s" e
  in
  let vci = fresh_vci () in
  let logged_on =
    Service.issue_arbitrary (Replica.primary group) ~client:vci ~roles:[ "LoggedOn" ]
      ~args:[ V.Str "u0"; V.Str "ely" ]
  in
  let member =
    until_ok w "enter-member" 8 (fun k ->
        Service.request_entry club ~client_host:w.w_client ~client:vci ~role:"Member"
          ~args:[ V.Str "u0" ] ~creds:[ logged_on ] k)
  in
  srun w 2.0;
  let old_primary = Replica.primary group in
  Fault.crash (Net.fault net) (Net.host_addr (Service.host old_primary));
  srun w 5.0;
  let primary = Replica.primary group in
  checkb "a backup took over" true (primary != old_primary && Replica.ready group);
  Service.revoke_certificate primary logged_on;
  srun w 10.0;
  let status =
    match Service.validate club ~client:vci member with
    | Ok () -> "ok"
    | Error f -> Format.asprintf "%a" Service.pp_failure f
  in
  (w, club, logins, group, status)

let failover_revocation_status ~batch =
  let _, _, _, _, status = failover_run ~batch () in
  status

let test_unbatched_failover_revocation () =
  Alcotest.(check string) "batched issuer" "revoked" (failover_revocation_status ~batch:true);
  Alcotest.(check string) "unbatched issuer" "revoked" (failover_revocation_status ~batch:false)

(* --- trace digest ---

   One SipHash over everything a run observably did: the Stats snapshot
   (JSON, keys sorted), every finished span as (name, parent, start, end)
   in finish order, and the shard fingerprint.  The workload is this
   suite's world at 2 shards: entries, a cross-shard fire, an editor
   fire, a fire and re-hire, and a routed exit.  It runs either under the
   seeded chaos of the differential harness (every shard replica and the
   router crash and restart) or with one scripted crash and restart of
   shard 0's primary in the middle, and with Login batching its
   notifications or signalling each record change on its own.  One more
   world is the failover above, traced: a K = 3 Login fails over under a
   mirroring Club, under both notification schemes.  The pinned constants
   are the digests of the implementation they were minted on; a refactor
   that claims identical behaviour must leave every one of them
   unchanged. *)

let digest_key = Oasis_util.Siphash.key_of_string "test_shard.trace-digest"

let trace_digest w fingerprint =
  let module J = Oasis_util.Json in
  let module Trace = Oasis_sim.Trace in
  let tr = Net.trace w.w_net in
  let b = Buffer.create 65536 in
  (match J.parse (Stats.to_json (Net.stats w.w_net)) with
  | Ok j -> J.to_buffer b (J.sorted j)
  | Error e -> Alcotest.failf "stats json: %s" e);
  List.iter
    (fun sp ->
      Printf.bprintf b "\n%s|%s|%h|%h" (Trace.span_name sp)
        (match Trace.span_parent sp with Some p -> string_of_int p | None -> "-")
        (Trace.span_start sp) (Trace.span_end sp))
    (Trace.spans tr);
  Printf.bprintf b "\ndropped=%d fp=%s" (Trace.dropped tr) fingerprint;
  Oasis_util.Siphash.hash_hex digest_key (Buffer.contents b)

let digest_run ~batch ~faults ~replicas ~seed () =
  let w, login, club = make_world ~replicas ~batch ~seed ~shards:2 () in
  Oasis_sim.Trace.set_enabled (Net.trace w.w_net) true;
  srun w 0.2;
  let creds = setup w login club in
  srun w 2.0;
  let f = Net.fault w.w_net in
  let calm_at =
    match faults with
    | `Chaos ->
        let hosts =
          Net.host_addr (Shard.router_host club)
          :: (Array.to_list (Shard.replica_groups club)
             |> List.concat_map (fun g ->
                    List.map (fun s -> Net.host_addr (Service.host s)) (Replica.members g)))
        in
        let until = Engine.now w.w_engine +. 8.0 in
        Fault.chaos f ~hosts ~mtbf:(1.5 *. float_of_int (List.length hosts)) ~mttr:1.0 ~until;
        until
    | `Crash ->
        fire_member w club creds "u0";
        let victim = Net.host_addr (Service.host (Shard.shard club 0)) in
        Fault.crash f victim;
        srun w 2.0;
        Fault.restart f victim;
        srun w 3.0;
        Engine.now w.w_engine
  in
  fire_member w club creds "u0";
  ignore
    (until_ok w "fire-editor-u3" 8 (fun k ->
         Shard.revoke_role_instance club ~client_host:w.w_client ~revoker:creds.c_chair
           ~role:"Editor" ~args:[ V.Str "u3" ] k));
  fire_member w club creds "u1";
  until_ok w "rehire-u1" 8 (fun k ->
      Shard.reinstate_role_instance club ~client_host:w.w_client ~revoker:creds.c_chair
        ~role:"Member" ~args:[ V.Str "u1" ] k);
  let _, _, m4 = List.find (fun (u, _, _) -> u = "u4") creds.c_members in
  until_ok w "exit-u4" 8 (fun k -> Shard.exit_role club ~client_host:w.w_client m4 k);
  srun w (max 0.0 (calm_at -. Engine.now w.w_engine) +. 5.0);
  checkb "a host actually crashed" true (Stats.count (Net.stats w.w_net) "fault.crash" >= 1);
  trace_digest w (Int64.to_string (Shard.fingerprint club))

let failover_digest ~batch () =
  let w, club, logins, group, status = failover_run ~traced:true ~batch () in
  Alcotest.(check string) "traced failover revokes" "revoked" status;
  trace_digest w
    (String.concat ","
       (List.map
          (fun s -> Int64.to_string (Service.fingerprint s))
          (club :: Array.to_list logins)
       @ [ Int64.to_string (Replica.fingerprint group) ]))

let test_trace_digest () =
  let chaos ~batch replicas seed = digest_run ~batch ~faults:`Chaos ~replicas ~seed in
  List.iter
    (fun (label, run, want) ->
      Alcotest.(check string) (label ^ ": digest unchanged") want (run ()))
    [
      ("K=1 seed 7", chaos ~batch:true 1 7L, "33a39b28a3f7f179");
      ("K=3 seed 7", chaos ~batch:true 3 7L, "8761d77eaf289016");
      ("K=1 seed 21", chaos ~batch:true 1 21L, "616b717ac9a08fbf");
      ("K=3 seed 21", chaos ~batch:true 3 21L, "c0c4effb26ef8bd7");
      ( "K=1 seed 7, crash and recover",
        digest_run ~batch:true ~faults:`Crash ~replicas:1 ~seed:7L,
        "70eea455cb4dcabc" );
      ("K=1 seed 7, unbatched Login", chaos ~batch:false 1 7L, "17dfd45f17108d5d");
      ("K=3 seed 7, unbatched Login", chaos ~batch:false 3 7L, "c838f0cb47a109f4");
      ("Login failover, batched", failover_digest ~batch:true, "5a3a881fe0a8f704");
      ("Login failover, unbatched", failover_digest ~batch:false, "2a59a54b5bda0b4d");
    ]

let () =
  Alcotest.run "shard"
    [
      ( "ring",
        [
          Alcotest.test_case "deterministic placement" `Quick test_ring_deterministic;
          Alcotest.test_case "bounded movement on add" `Quick test_ring_movement_on_add;
          Alcotest.test_case "bounded movement on remove" `Quick test_ring_movement_on_remove;
          Alcotest.test_case "balance within 2x ideal" `Quick test_ring_balance;
          Alcotest.test_case "remove of unknown shard raises" `Quick
            test_ring_remove_unknown_raises;
          Alcotest.test_case "points of the Printf-spelled vnode names" `Quick
            test_ring_matches_printf_names;
        ] );
      ( "router",
        [
          Alcotest.test_case "routed validate and exit" `Quick test_router_validate_and_exit;
          Alcotest.test_case "validate fails closed while owner is down" `Quick
            test_validate_fail_closed;
        ] );
      ( "replication",
        [
          Alcotest.test_case "log shipping keeps prefix invariant" `Quick
            test_log_shipping_prefix;
          Alcotest.test_case "divergence past the first ship batch is repaired, not acked"
            `Quick test_repair_divergence_past_first_batch;
          Alcotest.test_case "failover is epoch-idempotent" `Quick test_failover_idempotent;
          Alcotest.test_case "failover leaves no timers armed" `Quick
            test_failover_timer_hygiene;
          Alcotest.test_case "one replica crash per shard costs nothing" `Quick
            test_single_replica_crash_costs_nothing;
          Alcotest.test_case "revocation survives an unbatched issuer's failover" `Quick
            test_unbatched_failover_revocation;
          Alcotest.test_case "members of two service names are refused" `Quick
            test_create_refuses_mixed_names;
        ] );
      ( "differential",
        [
          Alcotest.test_case "sharded = unsharded under chaos (25 seeds, N in {2,4,16})" `Slow
            test_differential_sharded_equals_unsharded;
          Alcotest.test_case "replicated = unreplicated under chaos (25 seeds, K in {1,3})"
            `Slow test_differential_replicated_equals_unreplicated;
          Alcotest.test_case "replay identity" `Quick test_differential_replay_identical;
          Alcotest.test_case "trace digest pinned (2 shards, K in {1,3}, seeds 7 and 21)" `Quick
            test_trace_digest;
        ] );
    ]
