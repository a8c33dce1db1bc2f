module Value = Oasis_rdl.Value

type value = Value.t

type t = {
  g_table : Credrec.table;
  g_name : string;
  mutable g_members : value list;
  g_interesting : (string, Credrec.cref) Hashtbl.t;  (* marshalled member -> record *)
}

let create table name =
  { g_table = table; g_name = name; g_members = []; g_interesting = Hashtbl.create 16 }

let name g = g.g_name

let mem g v = List.exists (Value.equal v) g.g_members

let members g = g.g_members

let credential g v =
  let key = Value.marshal v in
  match Hashtbl.find_opt g.g_interesting key with
  | Some r when Credrec.live g.g_table r -> r
  | _ ->
      let state = if mem g v then Credrec.True else Credrec.False in
      let r = Credrec.leaf g.g_table ~state () in
      Hashtbl.replace g.g_interesting key r;
      r

let flip g v state =
  let key = Value.marshal v in
  match Hashtbl.find_opt g.g_interesting key with
  | Some r when Credrec.live g.g_table r -> Credrec.set_leaf g.g_table r state
  | Some _ -> Hashtbl.remove g.g_interesting key
  | None -> ()

let add g v =
  if not (mem g v) then begin
    g.g_members <- v :: g.g_members;
    flip g v Credrec.True
  end

let remove g v =
  if mem g v then begin
    g.g_members <- List.filter (fun m -> not (Value.equal m v)) g.g_members;
    flip g v Credrec.False
  end

let prune g =
  Hashtbl.filter_map_inplace
    (fun _ r -> if Credrec.live g.g_table r then Some r else None)
    g.g_interesting

let interesting g =
  Hashtbl.fold
    (fun _ r acc -> if Credrec.live g.g_table r then acc + 1 else acc)
    g.g_interesting 0
