module Value = Oasis_rdl.Value
module Net = Oasis_sim.Net
module Trace = Oasis_sim.Trace
module Broker = Oasis_events.Broker

type home_record = {
  mutable hr_user : string;
  mutable hr_site : string;  (* current site, as known at home *)
}

type t = {
  s_net : Net.t;
  s_name : string;
  s_rooms : string list;
  s_host : Net.host;
  s_master : Broker.server;
  s_namer : Broker.server;
  s_home_badges : (int, home_record) Hashtbl.t;  (* badges homed here *)
  s_foreign : (int, string * string) Hashtbl.t;  (* badge -> (user, home site) *)
  s_on_site : (int, string) Hashtbl.t;  (* badge -> current room *)
  s_user_badge : (string, int) Hashtbl.t;  (* namer db: user -> badge *)
}

(* The per-simulation site directory: the paper's name server, through which
   sites resolve each other's Masters and Namers. *)
let directory : (string, t) Hashtbl.t = Hashtbl.create 8

let create net _registry ~name ~rooms ?(heartbeat = 1.0) () =
  let host = Net.add_host net ("site." ^ name) in
  let master = Broker.create_server net host ~name:("Master@" ^ name) ~heartbeat () in
  let namer = Broker.create_server net host ~name:("Namer@" ^ name) ~heartbeat ~retention:1e9 () in
  let t =
    {
      s_net = net;
      s_name = name;
      s_rooms = rooms;
      s_host = host;
      s_master = master;
      s_namer = namer;
      s_home_badges = Hashtbl.create 32;
      s_foreign = Hashtbl.create 32;
      s_on_site = Hashtbl.create 32;
      s_user_badge = Hashtbl.create 32;
    }
  in
  Hashtbl.replace directory name t;
  t

let name t = t.s_name
let rooms t = t.s_rooms
let host t = t.s_host
let master t = t.s_master
let namer t = t.s_namer

let register_badge t ~badge ~user =
  Hashtbl.replace t.s_home_badges badge { hr_user = user; hr_site = t.s_name };
  Hashtbl.replace t.s_user_badge user badge;
  ignore (Broker.signal t.s_namer "OwnsBadge" [ Value.Str user; Value.Int badge ])

let lookup_badge t ~user = Hashtbl.find_opt t.s_user_badge user

let reassign_badge t ~user ~badge =
  Hashtbl.replace t.s_user_badge user badge;
  (match Hashtbl.find_opt t.s_home_badges badge with
  | Some hr -> hr.hr_user <- user
  | None -> Hashtbl.replace t.s_home_badges badge { hr_user = user; hr_site = t.s_name });
  ignore (Broker.signal t.s_namer "OwnsBadge" [ Value.Str user; Value.Int badge ])

let owner t ~badge =
  match Hashtbl.find_opt t.s_home_badges badge with
  | Some hr -> Some hr.hr_user
  | None -> Option.map fst (Hashtbl.find_opt t.s_foreign badge)

let on_site t = Hashtbl.fold (fun b _ acc -> b :: acc) t.s_on_site []

let home_location t ~badge =
  Option.map (fun hr -> hr.hr_site) (Hashtbl.find_opt t.s_home_badges badge)

(* Home-side handling of "badge b arrived at site s" (fig 6.2): record the
   new location, tell the previous site to discard its cache, answer with
   naming information, and signal the movement. *)
let badge_arrived_at_home t ~badge ~at_site =
  match Hashtbl.find_opt t.s_home_badges badge with
  | None -> Error "badge not homed here"
  | Some hr ->
      let old_site = hr.hr_site in
      if not (String.equal old_site at_site) then begin
        hr.hr_site <- at_site;
        (* Invalidate the cache at the previous holder (if not home itself). *)
        (match Hashtbl.find_opt directory old_site with
        | Some prev when not (String.equal old_site t.s_name) ->
            Net.send t.s_net ~category:"badge.purge" ~src:t.s_host ~dst:prev.s_host (fun () ->
                Hashtbl.remove prev.s_foreign badge;
                Hashtbl.remove prev.s_on_site badge)
        | _ ->
            Hashtbl.remove t.s_on_site badge);
        ignore
          (Broker.signal t.s_namer "MovedSite"
             [ Value.Int badge; Value.Str old_site; Value.Str at_site ])
      end;
      Ok hr.hr_user

let sight t ~badge ~home ~room =
  (* One trace per sensor sighting: the Master/Namer signals, the inter-site
     lookup (with its retries) and the home side's purge all join it. *)
  Trace.with_span (Net.trace t.s_net) "badge.sight" @@ fun () ->
  (* Raw sensor event, always signalled by the Master (fig 6.3). *)
  ignore (Broker.signal t.s_master "Seen" [ Value.Int badge; Value.Str room ]);
  let known = Hashtbl.mem t.s_home_badges badge || Hashtbl.mem t.s_foreign badge in
  Hashtbl.replace t.s_on_site badge room;
  if String.equal home t.s_name then begin
    (* A home badge returning (possibly from another site). *)
    match Hashtbl.find_opt t.s_home_badges badge with
    | Some hr when not (String.equal hr.hr_site t.s_name) ->
        ignore (badge_arrived_at_home t ~badge ~at_site:t.s_name)
    | _ -> ()
  end
  else if not known then begin
    (* Foreign, previously unknown badge: consult its home (fig 6.2). *)
    ignore (Broker.signal t.s_namer "BadgeArrived" [ Value.Int badge ]);
    match Hashtbl.find_opt directory home with
    | None -> ()
    | Some home_site ->
        (* Reliable: a lost lookup would leave the badge anonymous here
           until it moves again.  [badge_arrived_at_home] is idempotent
           for a repeated (badge, at_site) pair, so retries are safe. *)
        Net.rpc_retry t.s_net ~category:"badge.intersite" ~src:t.s_host ~dst:home_site.s_host
          (fun () -> badge_arrived_at_home home_site ~badge ~at_site:t.s_name)
          (function
            | Ok user ->
                Hashtbl.replace t.s_foreign badge (user, home);
                ignore (Broker.signal t.s_namer "OwnsBadge" [ Value.Str user; Value.Int badge ])
            | Error _ -> ())
  end
  (* Known badges need no inter-site traffic: the home purges our cached
     naming information when the badge moves on, so a cache hit means the
     home already believes the badge is here. *)
