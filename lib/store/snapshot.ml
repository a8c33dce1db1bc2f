module Net = Oasis_sim.Net
module Stats = Oasis_sim.Stats
module Frame = Oasis_util.Frame

type t = { s_disk : Disk.t; s_file : string; s_key : Oasis_util.Siphash.key }

let create disk ~file = { s_disk = disk; s_file = file; s_key = Wal.key file }
let file t = t.s_file
let disk t = t.s_disk

let save t payload k =
  let framed = Frame.encode t.s_key payload in
  Stats.incr (Net.stats (Disk.net t.s_disk)) "store.snapshot";
  Stats.add_bytes (Net.stats (Disk.net t.s_disk)) "store.snapshot" (String.length framed);
  Disk.write_atomic t.s_disk ~file:t.s_file framed k

let load t =
  match Frame.decode t.s_key (Disk.read t.s_disk ~file:t.s_file) with
  | [ payload ] -> Some payload
  | _ -> None
