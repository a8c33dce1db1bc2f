module Engine = Oasis_sim.Engine
module Net = Oasis_sim.Net
module Disk = Oasis_store.Disk

let create ?seed ?latency () : Backend.t =
  let engine = Engine.create () in
  let net = Net.create ?seed ?latency engine in
  let disks : (int, Disk.t) Hashtbl.t = Hashtbl.create 8 in
  (module struct
    let name = "sim"
    let clock_domain = `Sim
    let engine = engine
    let net = net

    let disk host =
      let addr = Net.host_addr host in
      match Hashtbl.find_opt disks addr with
      | Some d -> d
      | None ->
          let d = Disk.create net host in
          Hashtbl.add disks addr d;
          d

    let run ?until () = Engine.run ?until engine
    let stop () = Engine.stop engine
  end)
