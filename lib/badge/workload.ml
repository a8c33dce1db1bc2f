module Engine = Oasis_sim.Engine
module Prng = Oasis_util.Prng

type person = { p_name : string; p_badge : int; p_home : string }

type roamer = {
  r_person : person;
  mutable r_site : Site.t;
}

type t = {
  w_engine : Engine.t;
  w_prng : Prng.t;
  w_sites : Site.t array;
  w_roamers : roamer list;
  w_mean_dwell : float;
  w_travel_probability : float;
  mutable w_sightings : int;
  mutable w_site_changes : int;
  mutable w_started : bool;
}

(* The Zipf exponent of room popularity within a site. *)
let zipf_s = 1.1

let create engine ~seed ~sites ~people_per_site ?(mean_dwell = 5.0) ?(travel_probability = 0.05)
    () =
  let prng = Prng.create seed in
  let next_badge = ref 100 in
  let roamers =
    List.concat_map
      (fun site ->
        List.init people_per_site (fun i ->
            let badge = !next_badge in
            incr next_badge;
            let name = Printf.sprintf "%s-user%d" (Site.name site) i in
            Site.register_badge site ~badge ~user:name;
            { r_person = { p_name = name; p_badge = badge; p_home = Site.name site }; r_site = site }))
      sites
  in
  {
    w_engine = engine;
    w_prng = prng;
    w_sites = Array.of_list sites;
    w_roamers = roamers;
    w_mean_dwell = mean_dwell;
    w_travel_probability = travel_probability;
    w_sightings = 0;
    w_site_changes = 0;
    w_started = false;
  }

let move t roamer =
  (* Occasionally travel to a uniformly chosen other site; otherwise pick a
     room by Zipf popularity within the current site. *)
  if Array.length t.w_sites > 1 && Prng.float t.w_prng 1.0 < t.w_travel_probability then begin
    let rec other () =
      let s = t.w_sites.(Prng.int t.w_prng (Array.length t.w_sites)) in
      if String.equal (Site.name s) (Site.name roamer.r_site) then other () else s
    in
    roamer.r_site <- other ();
    t.w_site_changes <- t.w_site_changes + 1
  end;
  let site = roamer.r_site in
  let rooms = Array.of_list (Site.rooms site) in
  let room = rooms.(Prng.zipf t.w_prng ~n:(Array.length rooms) ~s:zipf_s) in
  Site.sight site ~badge:roamer.r_person.p_badge ~home:roamer.r_person.p_home ~room;
  t.w_sightings <- t.w_sightings + 1

let start t =
  if not t.w_started then begin
    t.w_started <- true;
    List.iter
      (fun roamer ->
        let rec schedule () =
          let dwell = Prng.exponential t.w_prng ~mean:t.w_mean_dwell in
          Engine.schedule t.w_engine ~delay:dwell (fun () ->
              move t roamer;
              schedule ())
        in
        schedule ())
      t.w_roamers
  end

let people t = List.map (fun r -> r.r_person) t.w_roamers
let sightings t = t.w_sightings
let site_changes t = t.w_site_changes
