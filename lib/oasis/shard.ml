(* Sharded credential plane: consistent-hash placement plus a router in
   front of N sibling Service replicas.  See shard.mli for the design
   story; the invariant that keeps this module small is that credential
   coherence never lives here — cross-shard edges are external records and
   the §4.10 machinery, exactly as between unrelated services. *)

module Net = Oasis_sim.Net
module Engine = Oasis_sim.Engine
module Siphash = Oasis_util.Siphash
module Decimal = Oasis_util.Decimal
module Value = Oasis_rdl.Value
module Broker = Oasis_events.Broker

type value = Oasis_rdl.Value.t

(* One fixed key: placement must be a pure function of the routing key and
   the ring membership, identical across processes and runs. *)
let ring_key = Siphash.key_of_string "oasis.shard.ring.v1"

module Ring = struct
  type t = {
    r_vnodes : int;
    r_ids : int list;  (* ascending *)
    r_points : (int64 * int) array;  (* (point, shard id), ascending unsigned *)
  }

  (* Shard [id]'s vnode [v] is the point of the name "<id>/<v>".  Every
     name is spelled into one buffer and hashed where it lies. *)
  let of_ids ~vnodes ids =
    let ids = Array.of_list ids in
    let n = Array.length ids * vnodes in
    let b = Buffer.create (8 * n) in
    let ends = Array.make (n + 1) 0 in
    Array.iteri
      (fun i id ->
        for v = 0 to vnodes - 1 do
          Decimal.add_int b id;
          Buffer.add_char b '/';
          Decimal.add_int b v;
          ends.((i * vnodes) + v + 1) <- Buffer.length b
        done)
      ids;
    let names = Buffer.contents b in
    let pts =
      Array.init n (fun k ->
          (Siphash.hash_sub ring_key names ends.(k) (ends.(k + 1) - ends.(k)), ids.(k / vnodes)))
    in
    Array.sort
      (fun (p1, i1) (p2, i2) ->
        match Int64.unsigned_compare p1 p2 with 0 -> compare i1 i2 | c -> c)
      pts;
    { r_vnodes = vnodes; r_ids = List.sort compare (Array.to_list ids); r_points = pts }

  let make ?(vnodes = 64) ~shards () =
    if shards < 1 then invalid_arg "Ring.make: shards must be >= 1";
    if vnodes < 1 then invalid_arg "Ring.make: vnodes must be >= 1";
    of_ids ~vnodes (List.init shards Fun.id)

  let shard_count t = List.length t.r_ids
  let vnodes t = t.r_vnodes
  let shard_ids t = t.r_ids

  (* First point clockwise from the key's hash, wrapping at the top. *)
  let owner t key =
    let h = Siphash.hash ring_key key in
    let pts = t.r_points in
    let n = Array.length pts in
    let rec bsearch lo hi =
      (* invariant: points below [lo] are < h, points at/above [hi] are >= h *)
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if Int64.unsigned_compare (fst pts.(mid)) h < 0 then bsearch (mid + 1) hi
        else bsearch lo mid
    in
    let i = bsearch 0 n in
    snd pts.(if i = n then 0 else i)

  let add_shard t =
    let fresh = 1 + List.fold_left max (-1) t.r_ids in
    of_ids ~vnodes:t.r_vnodes (t.r_ids @ [ fresh ])

  let remove_shard t id =
    (* An unknown id used to no-op silently (the filter removed nothing),
       masking caller bugs — resharding code that "removed" a shard it had
       already removed, or mistyped an id, saw a healthy ring.  Raise, as
       [make] does for invalid parameters. *)
    if not (List.mem id t.r_ids) then
      invalid_arg (Printf.sprintf "Ring.remove_shard: shard %d is not in the ring" id);
    let rest = List.filter (fun i -> i <> id) t.r_ids in
    if rest = [] then invalid_arg "Ring.remove_shard: cannot empty the ring";
    of_ids ~vnodes:t.r_vnodes rest
end

(* Route by role instance, not by principal: one principal's roles may land
   on different shards, which is precisely what exercises cross-shard
   cascades.  The separator cannot occur in marshalled values. *)
let route_key ~role ~args =
  role ^ "(" ^ String.concat "\x01" (List.map Value.marshal args) ^ ")"

type t = {
  sh_net : Net.t;
  sh_name : string;
  sh_router : Net.host;
  sh_ring : Ring.t;
  sh_groups : Replica.t array;  (* index = shard id *)
}

let shard_service_name name i = Printf.sprintf "%s#%d" name i

(* Replica 0 keeps the historical host name so K = 1 deployments are
   byte-identical to the pre-replication plane (the persisted model-checker
   schedules replay against those host names). *)
let replica_host_name name i j =
  if j = 0 then Printf.sprintf "h.%s.s%d" name i
  else Printf.sprintf "h.%s.s%d.r%d" name i j

let create net reg ~name ~rolefile ~shards ?(vnodes = 64) ?(heartbeat = 1.0) ?(durable = false)
    ?(snapshot_every = 128) ?(groups = []) ?(replicas = 1) () =
  if shards < 1 then Error "Shard.create: shards must be >= 1"
  else if replicas < 1 then Error "Shard.create: replicas must be >= 1"
  else if replicas > 1 && not durable then
    (* Shipping replays the WAL; a memory-only backup would promote empty. *)
    Error "Shard.create: replicas > 1 requires durable:true"
  else
    let router = Net.add_host net ("h." ^ name ^ ".router") in
    let ring = Ring.make ~vnodes ~shards () in
    let build_replica i j =
      let host = Net.add_host net (replica_host_name name i j) in
      let disk = if durable then Some (Oasis_store.Disk.create net host) else None in
      match
        (* §4.3 compound folding is disabled: it bakes every same-argument
           role derived during an entry into one certificate record, but
           instance-sharding deliberately places those roles on different
           shards — a fold can only ever see its own shard's slice, so the
           sharded and unsharded deployments would diverge.  One
           certificate per entered role instead. *)
        Service.create net host reg ~name:(shard_service_name name i) ~rolefile ~heartbeat
          ?disk ~snapshot_every ~compound_certificates:false ~register:(j = 0) ()
      with
      | Error e -> Error (Printf.sprintf "shard %d replica %d: %s" i j e)
      | Ok svc ->
          (* Seed static groups on every replica: group allocation consumes
             record ids, and replicas must agree on the id prefix so the
             shipped stream lands at the same coordinates everywhere. *)
          List.iter
            (fun (g, members) ->
              let grp = Service.group svc g in
              List.iter (fun m -> Group.add grp (Value.Str m)) members)
            groups;
          Ok svc
    in
    let rec build i acc =
      if i = shards then Ok (List.rev acc)
      else
        let rec build_members j macc =
          if j = replicas then Ok (List.rev macc)
          else
            match build_replica i j with
            | Error e -> Error e
            | Ok svc -> build_members (j + 1) (svc :: macc)
        in
        match build_members 0 [] with
        | Error e -> Error e
        | Ok members ->
            let grp = Replica.create net ~members:(Array.of_list members) in
            build (i + 1) ((grp, members) :: acc)
    in
    match build 0 [] with
    | Error e -> Error e
    | Ok built ->
        (* Every replica of every shard knows the sibling *names* of the
           other shards; name-based wiring survives failover because the
           promoted backup re-registers under the same logical name. *)
        List.iteri
          (fun i (_, members) ->
            List.iter
              (fun svc ->
                List.iteri
                  (fun i' _ ->
                    if i' <> i then Service.add_sibling svc (shard_service_name name i'))
                  built)
              members)
          built;
        let arr = Array.of_list (List.map fst built) in
        Ok { sh_net = net; sh_name = name; sh_router = router; sh_ring = ring; sh_groups = arr }

let name t = t.sh_name
let ring t = t.sh_ring
let shard_count t = Array.length t.sh_groups
let router_host t = t.sh_router
let shards t = Array.map Replica.primary t.sh_groups
let shard t i = Replica.primary t.sh_groups.(i)
let replica_groups t = t.sh_groups
let replica_group t i = t.sh_groups.(i)
let owner_index t ~role ~args = Ring.owner t.sh_ring (route_key ~role ~args)
let owner_group t ~role ~args = t.sh_groups.(owner_index t ~role ~args)
let owner t ~role ~args = Replica.primary (owner_group t ~role ~args)

let group_by_service_name t svc =
  let n = Array.length t.sh_groups in
  let rec go i =
    if i = n then None
    else if String.equal (Service.name (Replica.primary t.sh_groups.(i))) svc then
      Some t.sh_groups.(i)
    else go (i + 1)
  in
  go 0

(* Routed operations.  The router holds no state: each handler re-derives
   the owner from the request, so retried (hence possibly re-delivered)
   requests are idempotent exactly when the shard-side operation is.  The
   handlers answer through their reply closure because the acks are
   themselves asynchronous — a fire ack rides the owning shard's WAL group
   commit (Service.ack_when_durable), and answering before the work is done
   would resurrect the acked-but-lost-firing bug the model checker once
   found.  Timeouts are generous: the forwarded leg may itself run a
   cross-shard validation RPC with its own retry budget. *)

let routed_timeout = 4.0

(* A promotion that has committed but not finished replaying must not serve:
   the new primary's table is mid-rebuild, and answering from it could hand
   out record ids that collide with not-yet-restored identities.  Dropping
   the forward (no reply at all) lets the outer retry loop re-forward after
   the replay settles — indistinguishable, to the client, from one lost
   message. *)
let forward g f = if Replica.ready g then f (Replica.primary g)

(* A routed request: the client's RPC to the router, under the routed
   timeout and retry budget; [handler] runs at the router. *)
let routed t ~client_host ~category ~size handler k =
  Net.rpc t.sh_net ~category ~size ~timeout:routed_timeout ~attempts:Net.retry_attempts
    ~src:client_host ~dst:t.sh_router handler k

(* Forward to the primary owning a role instance, derived afresh. *)
let to_owner t ~role ~args f = forward (owner_group t ~role ~args) f

let request_entry t ~client_host ~client ~role ~args ?(creds = []) k =
  routed t ~client_host ~category:"shard.entry" ~size:(128 + (96 * List.length creds))
    (fun reply ->
      to_owner t ~role ~args (fun svc ->
          Service.request_entry svc ~client_host:t.sh_router ~client ~role ~args ~creds reply))
    k

let revoke_role_instance t ~client_host ~revoker ~role ~args k =
  routed t ~client_host ~category:"shard.rbr" ~size:160
    (fun reply ->
      to_owner t ~role ~args (fun svc ->
          Service.revoke_role_instance svc ~client_host:t.sh_router ~revoker ~role ~args reply))
    k

let reinstate_role_instance t ~client_host ~revoker ~role ~args k =
  routed t ~client_host ~category:"shard.rbr" ~size:160
    (fun reply ->
      to_owner t ~role ~args (fun svc ->
          Service.reinstate_role_instance svc ~client_host:t.sh_router ~revoker ~role ~args reply))
    k

let fail_closed_verdict service =
  Printf.sprintf
    "fail-closed: issuing shard %s unreachable; certificate treated as invalid until it \
     answers"
    service

let validate t ~client_host ~client ?need_role cert k =
  routed t ~client_host ~category:"shard.validate" ~size:96
    (fun reply ->
      match group_by_service_name t cert.Cert.service with
      | None -> reply (Error ("certificate for foreign service " ^ cert.Cert.service))
      | Some g ->
          (* Synchronous at the issuing shard; the record reference in the
             certificate is only meaningful against that shard's table.

             The forwarded leg used to surface a raw retry giveup —
             [Error "timeout"] — as a hard verdict whenever the owning
             shard was down or mid-recovery, so a transient crash turned
             into a spurious "certificate invalid" at the caller.  Mirror
             Service's §4.10 reread-giveup handling instead: back off one
             broker heartbeat (re-resolving the primary, which may have
             failed over meanwhile), retry once, and only then return an
             {e explicit} fail-closed verdict — a deliberate decision the
             caller can distinguish from a validation failure, not a leaked
             transport error.  The budget (≈1.2 s per attempt + one
             heartbeat backoff) stays inside one [routed_timeout] attempt,
             so the outer loop still re-forwards cleanly on top of this. *)
          let rec attempt retries_left =
            let svc = Replica.primary g in
            let backoff_or_fail () =
              if retries_left > 0 then
                Engine.schedule (Net.engine t.sh_net)
                  ~delay:(Broker.server_heartbeat (Service.broker svc))
                  (fun () -> attempt (retries_left - 1))
              else reply (Error (fail_closed_verdict cert.Cert.service))
            in
            if not (Replica.ready g) then
              (* A promotion is mid-replay: the new primary's table is
                 being rebuilt and could answer wrongly.  Same treatment
                 as unreachable. *)
              backoff_or_fail ()
            else
              Net.rpc t.sh_net ~category:"shard.validate.fwd" ~timeout:0.5 ~attempts:2
                ~backoff:0.2 ~src:t.sh_router ~dst:(Service.host svc)
                (fun reply ->
                  (* The handler wraps the whole verdict — including a
                     validation failure — in [Ok], so by construction the
                     only [Error _] the continuation can see is the
                     transport layer's giveup.  String-matching the
                     "timeout" sentinel here would silently misroute any
                     future [pp_failure] value that happened to collide
                     with it. *)
                  reply
                    (Ok
                       (match Service.validate svc ~client ?need_role cert with
                       | Ok () -> Ok ()
                       | Error f -> Error (Format.asprintf "%a" Service.pp_failure f))))
                (function
                  | Ok verdict -> reply verdict
                  | Error _ -> backoff_or_fail ())
          in
          attempt 1)
    k

let exit_role t ~client_host cert k =
  routed t ~client_host ~category:"shard.exit" ~size:96
    (fun reply ->
      match group_by_service_name t cert.Cert.service with
      | None -> reply (Error ("certificate for foreign service " ^ cert.Cert.service))
      | Some g -> forward g (fun svc -> Service.exit_role svc ~client_host:t.sh_router cert reply))
    k

let blacklisted t ~role ~args = Service.blacklisted (owner t ~role ~args) ~role ~args

let fingerprint t =
  let buf = Buffer.create 64 in
  Array.iter
    (fun g ->
      if Replica.replica_count g = 1 then
        (* Byte-identical to the pre-replication fingerprint so persisted
           model-checker schedules keep replaying. *)
        let s = Replica.primary g in
        Buffer.add_string buf
          (Printf.sprintf "%s=%Lx;" (Service.name s) (Service.fingerprint s))
      else begin
        List.iteri
          (fun j s ->
            Buffer.add_string buf
              (Printf.sprintf "%s/%d=%Lx;" (Service.name s) j (Service.fingerprint s)))
          (Replica.members g);
        Buffer.add_string buf (Printf.sprintf "repl=%Lx;" (Replica.fingerprint g))
      end)
    t.sh_groups;
  Siphash.hash ring_key (Buffer.contents buf)

let durable_flush t =
  Array.iter
    (fun g -> List.iter (fun s -> Option.iter Journal.flush (Service.journal s)) (Replica.members g))
    t.sh_groups
