module Engine = Oasis_sim.Engine
module Net = Oasis_sim.Net
module Stats = Oasis_sim.Stats
module Disk = Oasis_store.Disk
module Siphash = Oasis_util.Siphash
module Frame = Oasis_util.Frame
module Hex = Oasis_util.Hex

(* ------------------------------------------------------------------ *)
(* Wire framing: the WAL's checksummed frame (Oasis_util.Frame) over a *)
(* TCP byte stream.  The checksum provides integrity against a         *)
(* desynchronized or truncated stream, not secrecy.                    *)
(* ------------------------------------------------------------------ *)

let frame_key = Siphash.key_of_string "oasis.wal:tcp"

let max_frame = 1 lsl 26 (* 64 MiB: anything larger is a desynced stream *)

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

type conn = {
  c_fd : Unix.file_descr;
  c_frames : Frame.Reader.t;  (* received, not yet decoded *)
  (* Frames queued since the last flush, in order: the first [c_out_len]
     bytes of [c_out]. *)
  mutable c_out : Bytes.t;
  mutable c_out_len : int;
  mutable c_alive : bool;
}

let new_conn fd =
  {
    c_fd = fd;
    c_frames = Frame.Reader.create ~max_len:max_frame frame_key;
    c_out = Bytes.create 4096;
    c_out_len = 0;
    c_alive = true;
  }

(* A call sent and not yet answered, with the connection it went out on. *)
type call = { k_conn : conn; k_reply : (string, string) result -> unit }

type t = {
  b_engine : Engine.t Lazy.t ref;
      (* tied after Engine.create because the source closes over [t] *)
  mutable b_net : Net.t option;
  mutable b_writes : Stats.counter option;  (* "backend_unix.write", set with [b_net] *)
  b_t0 : int64;  (* CLOCK_MONOTONIC at creation, in ns *)
  b_data_dir : string;
  mutable b_listeners : Unix.file_descr list;
  mutable b_conns : conn list;
  b_peers : (string, Unix.sockaddr) Hashtbl.t;
  b_outgoing : (string, conn) Hashtbl.t;
  b_aliases : (string, string) Hashtbl.t;
  b_pending : (string, call) Hashtbl.t;
  mutable b_next_id : int;
  b_disks : (int, Disk.t) Hashtbl.t;
  b_read : Bytes.t;  (* [read]'s buffer; its bytes are fed to a reader at once *)
}

let now t () = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t.b_t0) *. 1e-9

let engine t = Lazy.force !(t.b_engine)
let net t = match t.b_net with Some n -> n | None -> assert false
let writes t = match t.b_writes with Some c -> c | None -> assert false

(* Frames still queued on the connection are dropped, and so are the calls
   sent on it: their callers are answered by their timeouts. *)
let close_conn t c =
  if c.c_alive then begin
    c.c_alive <- false;
    c.c_out <- Bytes.empty;
    c.c_out_len <- 0;
    (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
    t.b_conns <- List.filter (fun c' -> c' != c) t.b_conns;
    Hashtbl.filter_map_inplace (fun _ c' -> if c' == c then None else Some c') t.b_outgoing;
    Hashtbl.filter_map_inplace
      (fun _ call -> if call.k_conn == c then None else Some call)
      t.b_pending
  end

(* The frame is written and checksummed where it is queued. *)
let enqueue c fields =
  if c.c_alive then begin
    let n = Frame.fields_frame_size fields in
    if c.c_out_len + n > Bytes.length c.c_out then begin
      let out = Bytes.create (max (2 * Bytes.length c.c_out) (c.c_out_len + n)) in
      Bytes.blit c.c_out 0 out 0 c.c_out_len;
      c.c_out <- out
    end;
    c.c_out_len <- Frame.write_fields frame_key c.c_out c.c_out_len fields
  end

(* One [write] carries every frame queued on the connection since its last
   flush, straight from the queue (a copy of a large batch would be
   allocated on the major heap); only a short write, a batch over 64 KiB
   or [EINTR] takes another. *)
let flush t c =
  let len = c.c_out_len in
  c.c_out_len <- 0;
  let rec go off =
    if off < len then begin
      Stats.bump (writes t) 1;
      match Unix.single_write c.c_fd c.c_out off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (_, _, _) -> close_conn t c
    end
  in
  go 0

let flush_all t = List.iter (flush t) t.b_conns

(* --- the RPC envelope, in Frame's field packing ---

   Q frames: ["Q"; id; src; dst; port; payload]   (request)
   R frames: ["R"; id; marker ^ payload]          (reply; marker K=Ok, E=Error)

   Replies return over the connection the request arrived on, so only the
   caller needs to know addresses. *)

let send_reply c id result =
  let body = match result with Ok s -> "K" ^ s | Error e -> "E" ^ e in
  enqueue c [ "R"; id; body ]

let on_frame t c = function
  | [ "Q"; id; _src; dst; port; body ] ->
      let dst =
        match Hashtbl.find_opt t.b_aliases dst with Some local -> local | None -> dst
      in
      Net.dispatch (net t) ~dst ~port body (fun result -> send_reply c id result)
  | [ "R"; id; body ] -> (
      match Hashtbl.find_opt t.b_pending id with
      | None -> () (* the caller timed out and forgot the call *)
      | Some { k_conn; _ } when k_conn != c ->
          (* A reply completes a call only on the connection the call went
             out on: ids are a counter, easy to guess from anywhere else. *)
          ()
      | Some { k_reply = k; _ } ->
          Hashtbl.remove t.b_pending id;
          if String.length body >= 1 && body.[0] = 'K' then
            k (Ok (String.sub body 1 (String.length body - 1)))
          else if String.length body >= 1 && body.[0] = 'E' then
            k (Error (String.sub body 1 (String.length body - 1)))
          else k (Error "malformed reply"))
  | _ -> close_conn t c

(* A bad header or checksum, or a payload that is not a packing, means the
   stream lost frame sync: drop the connection; its outstanding calls are
   answered by their timeouts. *)
let drain_conn t c =
  let rec go () =
    match Frame.Reader.next_fields c.c_frames with
    | None -> ()
    | Some fields ->
        on_frame t c fields;
        if c.c_alive then go ()
    | exception Frame.Corrupt -> close_conn t c
  in
  go ()

let on_readable t c =
  match Unix.read c.c_fd t.b_read 0 (Bytes.length t.b_read) with
  | 0 -> close_conn t c
  | n ->
      Frame.Reader.feed c.c_frames t.b_read 0 n;
      drain_conn t c
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> close_conn t c

let accept_conn t lfd =
  match Unix.accept lfd with
  | fd, _ ->
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      t.b_conns <- new_conn fd :: t.b_conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> ()

let connect_to t name =
  match Hashtbl.find_opt t.b_outgoing name with
  | Some c when c.c_alive -> Some c
  | _ -> (
      match Hashtbl.find_opt t.b_peers name with
      | None -> None
      | Some addr -> (
          let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
          match Unix.connect fd addr with
          | () ->
              Unix.setsockopt fd Unix.TCP_NODELAY true;
              let c = new_conn fd in
              t.b_conns <- c :: t.b_conns;
              Hashtbl.replace t.b_outgoing name c;
              Some c
          | exception Unix.Unix_error (_, _, _) ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              None))

let rm_call t ~src ~dst ~port payload k =
  match connect_to t dst with
  | None -> ignore (* unreachable peer: the caller's timeout answers *)
  | Some c ->
      let id = Hex.of_int ~width:16 t.b_next_id in
      t.b_next_id <- t.b_next_id + 1;
      Hashtbl.replace t.b_pending id { k_conn = c; k_reply = k };
      enqueue c [ "Q"; id; src; dst; port; payload ];
      fun () -> Hashtbl.remove t.b_pending id

let pending_calls t = Hashtbl.length t.b_pending

(* ------------------------------------------------------------------ *)
(* The waiter: the engine's real-time run loop parks here between      *)
(* timer deadlines; socket readiness is dispatched inline.  Queued     *)
(* frames go out before the loop blocks and again once the ready       *)
(* descriptors are dispatched: one write per connection per turn.      *)
(* ------------------------------------------------------------------ *)

let wait t ~until =
  flush_all t;
  let fds = t.b_listeners @ List.map (fun c -> c.c_fd) t.b_conns in
  if fds = [] && until = None then false
  else begin
    let timeout =
      match until with None -> -1.0 | Some d -> Float.max 0.0 (d -. now t ())
    in
    (match Unix.select fds [] [] timeout with
    | ready, _, _ ->
        List.iter
          (fun fd ->
            if List.mem fd t.b_listeners then accept_conn t fd
            else
              match List.find_opt (fun c -> c.c_fd == fd && c.c_alive) t.b_conns with
              | Some c -> on_readable t c
              | None -> ())
          ready;
        flush_all t
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    true
  end

(* ------------------------------------------------------------------ *)
(* Real stable storage: one directory per host, one file per WAL /     *)
(* snapshot.  Appends buffer in memory (the page-cache analogue);      *)
(* fsync writes the buffered tail and calls Unix.fsync, so the durable *)
(* prefix on disk is exactly what the Disk contract promises —         *)
(* abandoning the handle (a process crash) loses the unsynced tail,    *)
(* mirroring the simulated device's crash semantics.                   *)
(* ------------------------------------------------------------------ *)

let sanitize name =
  String.map (fun c -> if c = '/' || c = '\\' || c = '\x00' then '_' else c) name

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let write_file fd data =
  let rec go off =
    if off < String.length data then
      go (off + Unix.write_substring fd data off (String.length data - off))
  in
  go 0

type rfile = {
  rf_path : string;
  mutable rf_fd : Unix.file_descr;
  rf_pending : Buffer.t;
  mutable rf_durable : int;
}

let disk_ops dir =
  mkdir_p dir;
  let files : (string, rfile) Hashtbl.t = Hashtbl.create 4 in
  let rfile name =
    let name = sanitize name in
    match Hashtbl.find_opt files name with
    | Some f -> f
    | None ->
        let path = Filename.concat dir name in
        let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
        let durable = (Unix.fstat fd).Unix.st_size in
        let f = { rf_path = path; rf_fd = fd; rf_pending = Buffer.create 256; rf_durable = durable }
        in
        Hashtbl.add files name f;
        f
  in
  (* Reads [len] durable bytes at [off] into [b] at [boff]; stops short
     at the end of the file. *)
  let read_durable f off b boff len =
    ignore (Unix.lseek f.rf_fd off Unix.SEEK_SET);
    let rec go got =
      if got < len then
        match Unix.read f.rf_fd b (boff + got) (len - got) with 0 -> got | n -> go (got + n)
      else got
    in
    go 0
  in
  {
    Disk.o_append =
      (fun ~file data off len -> Buffer.add_substring (rfile file).rf_pending data off len);
    o_append_frame =
      (fun ~file key payload ->
        let f = rfile file in
        let off = f.rf_durable + Buffer.length f.rf_pending in
        Frame.add key f.rf_pending payload;
        off);
    o_fsync =
      (fun ~file k ->
        let f = rfile file in
        if Buffer.length f.rf_pending > 0 then begin
          let data = Buffer.contents f.rf_pending in
          Buffer.clear f.rf_pending;
          ignore (Unix.lseek f.rf_fd 0 Unix.SEEK_END);
          write_file f.rf_fd data;
          Unix.fsync f.rf_fd;
          f.rf_durable <- f.rf_durable + String.length data
        end;
        k ());
    o_write_atomic =
      (fun ~file data k ->
        let f = rfile file in
        let tmp = f.rf_path ^ ".tmp" in
        let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
        write_file fd data;
        Unix.fsync fd;
        Unix.close fd;
        Unix.rename tmp f.rf_path;
        Unix.close f.rf_fd;
        f.rf_fd <- Unix.openfile f.rf_path [ Unix.O_RDWR ] 0o644;
        f.rf_durable <- String.length data;
        (* Bytes appended while the replace was "in flight" stay pending:
           the next fsync lands them after the new contents, which is the
           contract the compacting callers rely on. *)
        k ());
    o_truncate =
      (fun ~file ->
        let f = rfile file in
        Unix.ftruncate f.rf_fd 0;
        Buffer.clear f.rf_pending;
        f.rf_durable <- 0);
    o_read =
      (fun ~file ->
        let f = rfile file in
        let b = Bytes.create f.rf_durable in
        let got = read_durable f 0 b 0 f.rf_durable in
        Bytes.sub_string b 0 got);
    o_read_range =
      (fun ~file ~off ~len ->
        let f = rfile file in
        let total = f.rf_durable + Buffer.length f.rf_pending in
        let off = min (max off 0) total in
        let len = min (max len 0) (total - off) in
        let b = Bytes.create len in
        (* The durable part from the file, the rest from the buffer. *)
        let durable = max 0 (min len (f.rf_durable - off)) in
        let got = read_durable f off b 0 durable in
        if got < durable then Bytes.sub_string b 0 got
        else begin
          Buffer.blit f.rf_pending (off + durable - f.rf_durable) b durable (len - durable);
          Bytes.unsafe_to_string b
        end);
    o_durable_size = (fun ~file -> (rfile file).rf_durable);
    o_unsynced = (fun ~file -> Buffer.length (rfile file).rf_pending);
    o_scan_delay = (fun ~bytes:_ -> 0.0);
    o_files =
      (fun () ->
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun n -> not (Filename.check_suffix n ".tmp")));
  }

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let default_data_dir () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "oasis-unix-%d" (Unix.getpid ()))

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_data_dir f =
  let dir = Filename.temp_dir "oasis-unix-" "" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then remove_tree dir) (fun () -> f dir)

let create ?data_dir ?seed ?(latency = Net.Fixed 0.0) () =
  (* A write to a connection the peer closed raises SIGPIPE, whose default
     action ends the process; ignored, the write fails with EPIPE and
     [flush] closes the connection. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t =
    {
      b_engine = ref (lazy (assert false));
      b_net = None;
      b_writes = None;
      b_t0 = Monotonic_clock.now ();
      b_data_dir = (match data_dir with Some d -> d | None -> default_data_dir ());
      b_listeners = [];
      b_conns = [];
      b_peers = Hashtbl.create 8;
      b_outgoing = Hashtbl.create 8;
      b_aliases = Hashtbl.create 8;
      b_pending = Hashtbl.create 64;
      b_next_id = 0;
      b_disks = Hashtbl.create 8;
      b_read = Bytes.create 65536;
    }
  in
  let source =
    { Engine.src_now = now t; src_wait = (fun ~until -> wait t ~until) }
  in
  let engine = Engine.create ~source () in
  t.b_engine := lazy engine;
  let net = Net.create ?seed ~latency engine in
  t.b_net <- Some net;
  t.b_writes <- Some (Stats.counter (Net.stats net) "backend_unix.write");
  Net.set_remote net
    (Some { Net.rm_call = (fun ~src ~dst ~port payload k -> rm_call t ~src ~dst ~port payload k) });
  t

let data_dir t = t.b_data_dir

let listen t ?(port = 0) () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  t.b_listeners <- fd :: t.b_listeners;
  match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port

let peer t ~name ~port =
  Hashtbl.replace t.b_peers name (Unix.ADDR_INET (Unix.inet_addr_loopback, port))

let alias t ~name ~local = Hashtbl.replace t.b_aliases name local

let disk t host =
  let addr = Net.host_addr host in
  match Hashtbl.find_opt t.b_disks addr with
  | Some d -> d
  | None ->
      let dir = Filename.concat t.b_data_dir (sanitize (Net.host_name host)) in
      let d = Disk.create_ops (net t) host (disk_ops dir) in
      Hashtbl.add t.b_disks addr d;
      d

let reopen_disk t host =
  (* Forget the open handle — in-memory pending buffers and all — and
     re-attach to the same directory: the new device sees exactly the
     durable bytes, which is what surviving a process crash means. *)
  Hashtbl.remove t.b_disks (Net.host_addr host);
  disk t host

let shutdown t =
  flush_all t;
  List.iter (fun c -> close_conn t c) t.b_conns;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.b_listeners;
  t.b_listeners <- []

let pack t : Backend.t =
  let e = engine t and n = net t in
  (module struct
    let name = "unix"
    let clock_domain = `Wall
    let engine = e
    let net = n
    let disk host = disk t host
    let run ?until () = Engine.run ?until e
    let stop () = Engine.stop e
  end)
