(* Scenario DSL: the paper's membership narratives (§3.2.2, §4.11, §5) as
   executable specs the model checker can instantiate, drive and judge.

   A scenario is declarative data: service specs, principal names, a timed
   action script (issue / enter / fire / re-hire / logoff / crash / restart /
   partition / heal), an expected-outcome table and a set of invariants.
   [instantiate] builds a fresh deterministic world from it; every action is
   scheduled as an engine event tagged [a:<label>], so the explorer can
   reorder actions against message deliveries, fsyncs and timers just like
   any other pending event.

   Outcome expectations are *conditional on action-completion marks*: under
   an adversarial ordering an action's request can legitimately be dropped
   (e.g. delivered into a crashed host) and never complete.  That is not a
   bug — the bug would be the action completing and its effect then being
   lost.  So [sc_expect] receives a [done_] predicate over action labels and
   states what must hold for the actions that actually committed. *)

module Engine = Oasis_sim.Engine
module Net = Oasis_sim.Net
module Fault = Oasis_sim.Fault
module Broker = Oasis_events.Broker
module Disk = Oasis_store.Disk
module Service = Oasis_core.Service
module Group = Oasis_core.Group
module Principal = Oasis_core.Principal
module Cert = Oasis_core.Cert
module V = Oasis_rdl.Value

(* --- specs --- *)

type svc_spec = {
  ss_name : string;
  ss_rolefile : string;
  ss_durable : bool;
  ss_snapshot_every : int;
  ss_heartbeat : float;
  ss_groups : (string * string list) list;
}

let svc ?(durable = false) ?(snapshot_every = 6) ?(heartbeat = 1.0) ?(groups = []) name rolefile =
  {
    ss_name = name;
    ss_rolefile = rolefile;
    ss_durable = durable;
    ss_snapshot_every = snapshot_every;
    ss_heartbeat = heartbeat;
    ss_groups = groups;
  }

type world = {
  w_engine : Engine.t;
  w_net : Net.t;
  w_reg : Service.registry;
  w_client_host : Net.host;
  mutable w_services : (string * Service.t) list;
  mutable w_hosts : (string * Net.host) list;
  w_principals : (string, principal) Hashtbl.t;
  w_marks : (string, string) Hashtbl.t;
  w_fired : (string, bool) Hashtbl.t;
  w_box : (string, string) Hashtbl.t;
  mutable w_brokers : (string * Broker.server) list;
  mutable w_violations : (string * string) list;
  mutable w_extra_fp : (unit -> int64) list;
}

and principal = {
  p_name : string;
  p_vci : Principal.vci;
  mutable p_login : Cert.rmc option;
  mutable p_certs : (string * Cert.rmc) list;  (* "Svc.Role" -> certs, newest first *)
}

type action =
  | Issue of { service : string; who : string }
  | Enter of { who : string; service : string; role : string }
  | Enter_with of { who : string; service : string; role : string; use : string list }
  | Fire of { by : string; service : string; role : string; arg : string }
  | Rehire of { by : string; service : string; role : string; arg : string }
  | Logoff of { service : string; who : string }
  | Crash of { host : string }
  | Restart of { host : string }
  | Partition of { a : string; b : string }
  | Heal of { a : string; b : string }
  | Act of (world -> unit)

type timed = { at : float; label : string; act : action }

let step ~at label act = { at; label; act }

type outcome = Valid | Revoked | Absent

let outcome_str = function Valid -> "valid" | Revoked -> "revoked" | Absent -> "absent"

type invariant =
  | No_reentry_without_rehire
  | Fired_stays_fired
  | Converges
  | Crash_equiv
  | Custom_safety of string * (world -> (unit, string) result)
  | Custom_final of string * (world -> (unit, string) result)

let invariant_name = function
  | No_reentry_without_rehire -> "no-reentry-without-rehire"
  | Fired_stays_fired -> "fired-stays-fired"
  | Converges -> "converges"
  | Crash_equiv -> "crash-equiv"
  | Custom_safety (n, _) | Custom_final (n, _) -> n

type t = {
  sc_name : string;
  sc_services : svc_spec list;
  sc_principals : string list;
  sc_actions : timed list;
  sc_expect : done_:(string -> bool) -> (string * string * outcome) list;
  sc_invariants : invariant list;
  sc_horizon : float;
  sc_window : float * float;
  sc_latency : Net.latency;
  sc_seed : int64;
  sc_custom : (world -> unit) option;
}

(* --- world helpers --- *)

let find_service w name =
  match List.assoc_opt name w.w_services with
  | Some s -> s
  | None -> invalid_arg ("scenario: unknown service " ^ name)

let principal w name =
  match Hashtbl.find_opt w.w_principals name with
  | Some p -> p
  | None -> invalid_arg ("scenario: unknown principal " ^ name)

let host_of w name =
  match List.assoc_opt name w.w_services with
  | Some s -> Service.host s
  | None -> (
      match List.assoc_opt name w.w_hosts with
      | Some h -> h
      | None -> invalid_arg ("scenario: unknown host " ^ name))

let mark w label status = Hashtbl.replace w.w_marks label status

let mark_done w label = Hashtbl.find_opt w.w_marks label = Some "ok"

let violate w inv detail =
  if not (List.mem (inv, detail) w.w_violations) then
    w.w_violations <- (inv, detail) :: w.w_violations

let instance_key service role arg = Printf.sprintf "%s.%s(%s)" service role arg

let fired w key = Hashtbl.find_opt w.w_fired key = Some true

(* The revoker credential for fire/re-hire: the principal's newest
   certificate at that service (in the scenarios this is the Chair/Custos
   membership obtained during setup). *)
let revoker_cert p service =
  let prefix = service ^ "." in
  List.find_map
    (fun (key, c) ->
      if String.length key >= String.length prefix
         && String.sub key 0 (String.length prefix) = prefix
      then Some c
      else None)
    p.p_certs

(* --- performing actions --- *)

(* Shared entry body: request entry at [service] presenting the login
   credential plus the listed ["Svc.Role"] certificates from the
   principal's wallet (missing keys are simply not presented — under an
   adversarial ordering the earlier entry may never have completed). *)
let do_enter w label ~who ~service ~role ~use =
  let p = principal w who in
  let svc = find_service w service in
  let login = match p.p_login with Some c -> [ c ] | None -> [] in
  let picked = List.filter_map (fun key -> List.assoc_opt key p.p_certs) use in
  Service.request_entry svc ~client_host:w.w_client_host ~client:p.p_vci ~role
    ~creds:(login @ picked)
    (function
      | Ok cert ->
          (* Safety, checked online: an entry that commits while the
             instance is fired is exactly the §4.11 violation. *)
          if fired w (instance_key service role who) then
            violate w "no-reentry-without-rehire"
              (Printf.sprintf "%s re-entered %s.%s while fired (action %s)" who service role
                 label);
          p.p_certs <- (service ^ "." ^ role, cert) :: p.p_certs;
          mark w label "ok"
      | Error e -> mark w label ("err:" ^ e))

let perform w { label; act; _ } =
  match act with
  | Issue { service; who } ->
      let p = principal w who in
      let cert =
        Service.issue_arbitrary (find_service w service) ~client:p.p_vci ~roles:[ "LoggedOn" ]
          ~args:[ V.Str who; V.Str "ely" ]
      in
      p.p_login <- Some cert;
      mark w label "ok"
  | Enter { who; service; role } -> do_enter w label ~who ~service ~role ~use:[]
  | Enter_with { who; service; role; use } -> do_enter w label ~who ~service ~role ~use
  | Fire { by; service; role; arg } -> (
      let p = principal w by in
      let svc = find_service w service in
      match revoker_cert p service with
      | None -> mark w label "err:no revoker credential"
      | Some rc ->
          Service.revoke_role_instance svc ~client_host:w.w_client_host ~revoker:rc ~role
            ~args:[ V.Str arg ] (function
            | Ok _n ->
                Hashtbl.replace w.w_fired (instance_key service role arg) true;
                mark w label "ok"
            | Error e -> mark w label ("err:" ^ e)))
  | Rehire { by; service; role; arg } -> (
      let p = principal w by in
      let svc = find_service w service in
      match revoker_cert p service with
      | None -> mark w label "err:no revoker credential"
      | Some rc ->
          Service.reinstate_role_instance svc ~client_host:w.w_client_host ~revoker:rc ~role
            ~args:[ V.Str arg ] (function
            | Ok () ->
                Hashtbl.replace w.w_fired (instance_key service role arg) false;
                mark w label "ok"
            | Error e -> mark w label ("err:" ^ e)))
  | Logoff { service; who } -> (
      let p = principal w who in
      match p.p_login with
      | None -> mark w label "err:not logged on"
      | Some c ->
          Service.revoke_certificate (find_service w service) c;
          mark w label "ok")
  | Crash { host } ->
      Net.crash_host w.w_net (host_of w host);
      mark w label "ok"
  | Restart { host } ->
      Net.restart_host w.w_net (host_of w host);
      mark w label "ok"
  | Partition { a; b } ->
      Net.partition w.w_net (host_of w a) (host_of w b);
      mark w label "ok"
  | Heal { a; b } ->
      Net.heal w.w_net (host_of w a) (host_of w b);
      mark w label "ok"
  | Act run ->
      run w;
      mark w label "ok"

(* Labels of the fault-injection actions; the crash-free twin run strips
   these, and crash-equivalence compares marks only over the rest. *)
let fault_labels spec =
  List.filter_map
    (fun s ->
      match s.act with
      | Crash _ | Restart _ | Partition _ | Heal _ -> Some s.label
      | _ -> None)
    spec.sc_actions

let strip_faults spec =
  {
    spec with
    sc_actions =
      List.filter
        (fun s -> match s.act with Crash _ | Restart _ | Partition _ | Heal _ -> false | _ -> true)
        spec.sc_actions;
  }

(* --- instantiation --- *)

let instantiate ?seed spec =
  let engine = Engine.create () in
  let seed = Option.value seed ~default:spec.sc_seed in
  let net = Net.create ~seed ~latency:spec.sc_latency engine in
  let reg = Service.create_registry () in
  let client_host = Net.add_host net "client" in
  let services =
    List.map
      (fun ss ->
        let host = Net.add_host net ("h." ^ ss.ss_name) in
        let disk = if ss.ss_durable then Some (Disk.create net host) else None in
        let svc =
          match
            Service.create net host reg ~name:ss.ss_name ~rolefile:ss.ss_rolefile ?disk
              ~snapshot_every:ss.ss_snapshot_every ~heartbeat:ss.ss_heartbeat ()
          with
          | Ok s -> s
          | Error e -> invalid_arg (Printf.sprintf "scenario %s: %s: %s" spec.sc_name ss.ss_name e)
        in
        List.iter
          (fun (g, members) ->
            List.iter (fun m -> Group.add (Service.group svc g) (V.Str m)) members)
          ss.ss_groups;
        (ss.ss_name, svc))
      spec.sc_services
  in
  let phost = Principal.Host.create "client" in
  let dom = Principal.Host.boot_domain phost in
  let principals = Hashtbl.create 8 in
  List.iter
    (fun name ->
      Hashtbl.replace principals name
        { p_name = name; p_vci = Principal.Host.new_vci phost dom; p_login = None; p_certs = [] })
    spec.sc_principals;
  let w =
    {
      w_engine = engine;
      w_net = net;
      w_reg = reg;
      w_client_host = client_host;
      w_services = services;
      w_hosts =
        ("client", client_host)
        :: List.map (fun (n, s) -> ("h." ^ n, Service.host s)) services;
      w_principals = principals;
      w_marks = Hashtbl.create 16;
      w_fired = Hashtbl.create 8;
      w_box = Hashtbl.create 8;
      w_brokers = [];
      w_violations = [];
      w_extra_fp = [];
    }
  in
  (match spec.sc_custom with Some f -> f w | None -> ());
  List.iter
    (fun s -> Engine.schedule_at engine ~tag:("a:" ^ s.label) ~at:s.at (fun () -> perform w s))
    spec.sc_actions;
  w

(* --- state fingerprint --- *)

let fp_key = Oasis_util.Siphash.key_of_string "oasis.mc.world.fingerprint"

(* Everything protocol-visible that distinguishes two world states: every
   service (credential tables, blacklists, durable bytes) and its broker,
   action marks and fired flags, host liveness and link state, the pending
   event set (deadline + tag, *not* queue sequence numbers, which depend on
   insertion order and would split equal states), and any extra hooks a
   custom scenario registered. *)
let fingerprint w =
  let b = Buffer.create 512 in
  List.iter
    (fun (name, svc) ->
      Printf.bprintf b "%s=%Lx,%Lx;" name (Service.fingerprint svc)
        (Broker.fingerprint (Service.broker svc)))
    w.w_services;
  let sorted tbl render =
    Hashtbl.fold (fun k v acc -> render k v :: acc) tbl [] |> List.sort compare
  in
  List.iter (fun s -> Buffer.add_string b s; Buffer.add_char b '\x02')
    (sorted w.w_marks (fun k v -> k ^ "=" ^ v));
  Buffer.add_char b '\x03';
  List.iter (fun s -> Buffer.add_string b s; Buffer.add_char b '\x02')
    (sorted w.w_fired (fun k v -> k ^ "=" ^ string_of_bool v));
  Buffer.add_char b '\x03';
  List.iter (fun s -> Buffer.add_string b s; Buffer.add_char b '\x02')
    (sorted w.w_box (fun k v -> k ^ "=" ^ v));
  List.iter
    (fun (n, srv) -> Printf.bprintf b "%s@%Lx;" n (Broker.fingerprint srv))
    (List.sort compare w.w_brokers);
  Buffer.add_char b '\x03';
  let f = Net.fault w.w_net in
  let hosts = List.sort compare w.w_hosts in
  List.iter
    (fun (n, h) -> Printf.bprintf b "%s%c" n (if Fault.up f (Net.host_addr h) then '+' else '-'))
    hosts;
  List.iter
    (fun (na, ha) ->
      List.iter
        (fun (nb, hb) ->
          if na < nb && not (Fault.link_ok f (Net.host_addr ha) (Net.host_addr hb)) then
            Printf.bprintf b "!%s/%s;" na nb)
        hosts)
    hosts;
  Buffer.add_char b '\x03';
  let pend =
    List.map (fun e -> (e.Engine.ev_at, e.Engine.ev_tag)) (Engine.events w.w_engine)
    |> List.sort compare
  in
  List.iter (fun (at, tag) -> Printf.bprintf b "%h:%s;" at tag) pend;
  List.iter (fun f -> Printf.bprintf b "x%Lx;" (f ())) w.w_extra_fp;
  Oasis_util.Siphash.hash fp_key (Buffer.contents b)

(* --- invariant evaluation --- *)

(* Safety invariants are cheap and side-effect-free; the explorer calls this
   at every decision point so a violation is pinned to the shortest prefix
   that exhibits it. *)
let check_safety w spec =
  List.iter
    (function
      | Custom_safety (name, f) -> (
          match f w with Ok () -> () | Error d -> violate w name d)
      | _ -> ())
    spec.sc_invariants

let outcome w pname key =
  let p = principal w pname in
  match List.assoc_opt key p.p_certs with
  | None -> Absent
  | Some cert -> (
      let service = String.sub key 0 (String.index key '.') in
      match Service.validate (find_service w service) ~client:p.p_vci cert with
      | Ok () -> Valid
      | Error _ -> Revoked)

let outcomes w spec =
  let done_ l = mark_done w l in
  List.map (fun (p, key, exp) -> (p, key, exp, outcome w p key)) (spec.sc_expect ~done_)

(* Marks of the non-fault actions, sorted — the completion signature a run
   is compared on for crash equivalence. *)
let commit_marks w spec =
  let faulty = fault_labels spec in
  Hashtbl.fold
    (fun k v acc -> if List.mem k faulty then acc else (k, v) :: acc)
    w.w_marks []
  |> List.sort compare

type twin = { tw_marks : (string * string) list; tw_outcomes : (string * string * string) list }

let final_outcome_table w spec =
  List.map (fun (p, key, _exp, got) -> (p, key, outcome_str got)) (outcomes w spec)

let check_final ?twin w spec =
  List.iter
    (function
      | No_reentry_without_rehire | Custom_safety _ -> () (* enforced online *)
      | Converges ->
          List.iter
            (fun (p, key, exp, got) ->
              if got <> exp then
                violate w "converges"
                  (Printf.sprintf "%s %s: expected %s, found %s at horizon" p key
                     (outcome_str exp) (outcome_str got)))
            (outcomes w spec)
      | Fired_stays_fired ->
          Hashtbl.iter
            (fun ik is_fired ->
              if is_fired then begin
                (* ik = "Svc.Role(arg)" *)
                let dot = String.index ik '.' in
                let paren = String.index ik '(' in
                let service = String.sub ik 0 dot in
                let role = String.sub ik (dot + 1) (paren - dot - 1) in
                let arg = String.sub ik (paren + 1) (String.length ik - paren - 2) in
                let svc = find_service w service in
                if not (Service.blacklisted svc ~role ~args:[ V.Str arg ]) then
                  violate w "fired-stays-fired" (ik ^ " no longer blacklisted at horizon");
                match Hashtbl.find_opt w.w_principals arg with
                | None -> ()
                | Some p ->
                    List.iter
                      (fun (key, cert) ->
                        if key = service ^ "." ^ role then
                          match Service.validate svc ~client:p.p_vci cert with
                          | Ok () ->
                              violate w "fired-stays-fired"
                                (Printf.sprintf "%s holds a live %s certificate while fired" arg ik)
                          | Error _ -> ())
                      p.p_certs
              end)
            w.w_fired
      | Crash_equiv -> (
          match twin with
          | None -> ()
          | Some tw ->
              (* Only comparable when the same set of operations committed:
                 an ordering that drops an action into a crash is a
                 different history, not a divergence. *)
              if commit_marks w spec = tw.tw_marks then begin
                let got = final_outcome_table w spec in
                if got <> tw.tw_outcomes then
                  let diff =
                    List.filter_map
                      (fun (p, key, o) ->
                        match
                          List.find_opt (fun (p', key', _) -> p' = p && key' = key) tw.tw_outcomes
                        with
                        | Some (_, _, o') when o' <> o ->
                            Some (Printf.sprintf "%s %s: crash-free %s, recovered %s" p key o' o)
                        | _ -> None)
                      got
                  in
                  violate w "crash-equiv"
                    (match diff with [] -> "outcome tables differ" | d -> String.concat "; " d)
              end)
      | Custom_final (name, f) -> (
          match f w with Ok () -> () | Error d -> violate w name d))
    spec.sc_invariants
