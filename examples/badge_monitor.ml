(* The Active Badge system end to end (chapters 6 and 7).

   Three sites run Masters, Sighting Caches and Namers; a synthetic
   workload walks people between rooms and sites.  On top:

   - a composite-event monitor detecting when two specific people are
     together ($Seen(A,R); $Seen(B,R) - Seen(A,Rp));
   - an aggregation program counting sightings per minute;
   - ERDL event security: a user may only register for their own badge.

   Run with: dune exec examples/badge_monitor.exe *)

module Engine = Oasis_sim.Engine
module Net = Oasis_sim.Net
module Broker = Oasis_events.Broker
module Broker_io = Oasis_events.Broker_io
module Event = Oasis_events.Event
module Bead = Oasis_events.Bead
module Composite = Oasis_events.Composite
module Aggregate = Oasis_events.Aggregate
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Site = Oasis_badge.Site
module Workload = Oasis_badge.Workload
module V = Oasis_rdl.Value

let say fmt = Printf.printf (fmt ^^ "\n")

let () =
  let engine = Engine.create () in
  let net = Net.create ~latency:(Net.Fixed 0.01) engine in
  let registry = Service.create_registry () in
  let directory = Site.directory () in

  (* Three sites, as in the dissertation's Cambridge / ORL / PARC setting. *)
  let sites =
    List.map
      (fun (name, rooms) -> Site.create net directory ~name ~rooms ~heartbeat:0.5 ())
      [
        ("Cambridge", [ "T14"; "T15"; "library"; "machine-room" ]);
        ("ORL", [ "lab1"; "lab2" ]);
        ("PARC", [ "office1"; "office2"; "commons" ]);
      ]
  in
  let cambridge = List.hd sites in
  let workload =
    Workload.create engine ~seed:2026L ~sites ~people_per_site:6 ~mean_dwell:3.0
      ~travel_probability:0.05 ()
  in
  let people = Workload.people workload in
  let alice = List.nth people 0 and bob = List.nth people 1 in
  say "badge world: %d sites, %d people; watching %s (badge %d) and %s (badge %d)"
    (List.length sites) (List.length people) alice.Workload.p_name alice.Workload.p_badge
    bob.Workload.p_name bob.Workload.p_badge;

  (* A monitor host with sessions to every Master. *)
  let monitor = Net.add_host net "monitor" in
  let sessions = ref [] in
  List.iter
    (fun site ->
      Broker.connect net monitor (Site.master site)
        ~on_result:(function Ok s -> sessions := s :: !sessions | Error _ -> ())
        ())
    sites;
  Engine.run ~until:1.0 engine;
  let io = Broker_io.make net monitor !sessions in

  (* Composite event: alice and bob together in a room. *)
  let expr =
    Composite.parse
      (Printf.sprintf "$Seen(%d, R); $Seen(%d, R) - Seen(%d, Rp)" alice.Workload.p_badge
         bob.Workload.p_badge alice.Workload.p_badge)
  in
  let meetings = ref 0 in
  let _ =
    Bead.detect io ~start:1.0 expr ~on_occur:(fun o ->
        incr meetings;
        if !meetings <= 5 then
          say "  [%7.2fs] %s and %s together in %s" o.Bead.at alice.Workload.p_name
            bob.Workload.p_name
            (match List.assoc_opt "R" o.Bead.env with
            | Some (V.Str r) -> r
            | _ -> "?"))
  in

  (* Aggregation: count Cambridge sightings until a Stop event. *)
  let count_prog =
    Aggregate.count_program
      ~expr:(Printf.sprintf "$Master@%s.Seen(b, r)" (Site.name cambridge))
      ~until:(Printf.sprintf "Master@%s.Shutdown()" (Site.name cambridge))
      ~signal:"SightingCount"
  in
  let _ =
    Aggregate.run_program io count_prog ~on_signal:(fun _name args ->
        match args with
        | [ V.Int n ] -> say "aggregation: %d sightings recorded at Cambridge" n
        | _ -> ())
  in

  (* Run the world. *)
  Workload.start workload;
  Engine.run ~until:600.0 engine;
  say "after 10 simulated minutes: %d sightings, %d site changes, %d meetings detected"
    (Workload.sightings workload)
    (Workload.site_changes workload)
    !meetings;
  ignore (Broker.signal (Site.master cambridge) "Shutdown" []);
  Engine.run ~until:605.0 engine;

  (* --------------------------------------------------------------- *)
  say "\n--- event security (ch. 7) ---";
  (* A Namer-backed OASIS service certifies badge ownership; ERDL policy on
     the Cambridge Master lets a user see only their own badge. *)
  let nsvc =
    Result.get_ok
      (Service.create net (Net.add_host net "namer-svc") registry ~name:"Namer"
         ~rolefile:{|
def OwnsBadge(u, b) u: String b: Integer
OwnsBadge(u, b) <-
|} ())
  in
  let rules =
    Result.get_ok (Oasis_esec.Erdl.parse "allow Namer.OwnsBadge(u, b) : Seen(b, *)")
  in
  let tokens = Oasis_esec.Policy.tokens registry in
  Oasis_esec.Policy.install (Site.master cambridge) ~tokens ~rules;
  let ph = Principal.Host.create "monitor" in
  let me = Principal.Host.new_vci ph (Principal.Host.boot_domain ph) in
  let my_cert =
    Service.issue_arbitrary nsvc ~client:me ~roles:[ "OwnsBadge" ]
      ~args:[ V.Str alice.Workload.p_name; V.Int alice.Workload.p_badge ]
  in
  let watcher = Net.add_host net "secure-watcher" in
  let mine = ref 0 and others = ref 0 in
  Broker.connect net watcher (Site.master cambridge)
    ~credentials:[ Oasis_esec.Policy.token_of_cert tokens my_cert ]
    ~on_result:(function
      | Ok s ->
          ignore
            (Broker.register s (Event.template "Seen" [ Event.Any; Event.Any ]) (fun e ->
                 if e.Event.params.(0) = V.Int alice.Workload.p_badge then incr mine
                 else incr others))
      | Error e -> say "secure connect failed: %s" e)
    ();
  Engine.run ~until:900.0 engine;
  say "policed monitor (holder of OwnsBadge(%s, %d)): saw %d own sightings, %d others"
    alice.Workload.p_name alice.Workload.p_badge !mine !others;
  say "the registration was narrowed by ERDL before any monitoring happened (§7.4)"
