(* Causal spans over simulated time.

   A context is deliberately tiny — trace id, span id, and the true time at
   which the trace's root opened — so it can ride any message: [Net.send]
   captures the ambient context at send time and restores it around the
   delivery closure, and the event broker stores one per coalesced item.
   Carrying [origin] in the context means any downstream hop can compute
   the end-to-end latency of the causal chain it sits on without a registry
   of open spans. *)

type ctx = { c_trace : int; c_span : int; c_origin : float }

type span = {
  sp_trace : int;
  sp_id : int;
  sp_parent : int option;
  sp_name : string;
  sp_origin : float;  (* root start of the enclosing trace *)
  sp_start : float;
  mutable sp_end : float;  (* [nan] while the span is open *)
  mutable sp_attrs : (string * string) list;  (* reverse order of addition *)
}

type t = {
  clock : unit -> float;  (* deterministic sim-time source *)
  mutable enabled : bool;
  ring : span option array;  (* finished spans, circular *)
  mutable head : int;  (* next write slot *)
  mutable stored : int;
  mutable dropped : int;
  mutable next_trace : int;
  mutable next_span : int;
  mutable ambient : ctx option;
  open_tbl : (int, span) Hashtbl.t;  (* span id -> still-open span *)
}

(* Finished spans kept; the oldest is dropped past this. *)
let capacity = 4096

let create clock =
  {
    clock;
    enabled = false;
    ring = Array.make capacity None;
    head = 0;
    stored = 0;
    dropped = 0;
    next_trace = 1;
    next_span = 1;
    ambient = None;
    open_tbl = Hashtbl.create 64;
  }

let enabled t = t.enabled
let set_enabled t on = t.enabled <- on

let clear t =
  Array.fill t.ring 0 capacity None;
  t.head <- 0;
  t.stored <- 0;
  t.dropped <- 0;
  Hashtbl.reset t.open_tbl

let current t = if t.enabled then t.ambient else None

let with_ctx t ctx f =
  if not t.enabled then f ()
  else begin
    let saved = t.ambient in
    t.ambient <- ctx;
    Fun.protect ~finally:(fun () -> t.ambient <- saved) f
  end

(* Spans from a disabled tracer are this shared placeholder: [finish] and
   [add_attr] recognise it physically and do nothing, so instrumented code
   needs no enabled-checks of its own. *)
let null_span =
  {
    sp_trace = 0;
    sp_id = 0;
    sp_parent = None;
    sp_name = "";
    sp_origin = 0.0;
    sp_start = 0.0;
    sp_end = 0.0;
    sp_attrs = [];
  }

let start t ?parent name =
  if not t.enabled then null_span
  else begin
    let parent = match parent with Some _ as p -> p | None -> t.ambient in
    let now = t.clock () in
    let trace, origin, parent_id =
      match parent with
      | Some c -> (c.c_trace, c.c_origin, Some c.c_span)
      | None ->
          let id = t.next_trace in
          t.next_trace <- id + 1;
          (id, now, None)
    in
    let id = t.next_span in
    t.next_span <- id + 1;
    let sp =
      {
        sp_trace = trace;
        sp_id = id;
        sp_parent = parent_id;
        sp_name = name;
        sp_origin = origin;
        sp_start = now;
        sp_end = Float.nan;
        sp_attrs = [];
      }
    in
    Hashtbl.replace t.open_tbl id sp;
    sp
  end

let ctx_of sp = { c_trace = sp.sp_trace; c_span = sp.sp_id; c_origin = sp.sp_origin }

let add_attr sp k v = if sp != null_span then sp.sp_attrs <- (k, v) :: sp.sp_attrs

let finish t sp =
  if sp != null_span && Float.is_nan sp.sp_end then begin
    sp.sp_end <- t.clock ();
    Hashtbl.remove t.open_tbl sp.sp_id;
    if t.ring.(t.head) <> None then t.dropped <- t.dropped + 1 else t.stored <- t.stored + 1;
    t.ring.(t.head) <- Some sp;
    t.head <- (t.head + 1) mod capacity
  end

let with_span t ?parent name f =
  if not t.enabled then f ()
  else begin
    let sp = start t ?parent name in
    let saved = t.ambient in
    t.ambient <- Some (ctx_of sp);
    Fun.protect
      ~finally:(fun () ->
        t.ambient <- saved;
        finish t sp)
      f
  end

let spans t =
  (* Oldest first: the slot after [head] (when full) is the oldest survivor. *)
  let acc = ref [] in
  for i = capacity - 1 downto 0 do
    match t.ring.((t.head + i) mod capacity) with
    | Some sp -> acc := sp :: !acc
    | None -> ()
  done;
  !acc

let open_spans t = Hashtbl.fold (fun _ sp acc -> sp :: acc) t.open_tbl []
let dropped t = t.dropped

(* --- span accessors --- *)

let span_name sp = sp.sp_name
let span_trace sp = sp.sp_trace
let span_id sp = sp.sp_id
let span_parent sp = sp.sp_parent
let span_start sp = sp.sp_start
let span_end sp = sp.sp_end
let span_attrs sp = List.rev sp.sp_attrs
let duration sp = sp.sp_end -. sp.sp_start

let since_origin t ctx = t.clock () -. ctx.c_origin
let origin ctx = ctx.c_origin

(* --- JSON export (via the shared Oasis_util.Json emitter) --- *)

let span_to_json sp =
  let module J = Oasis_util.Json in
  let base =
    [
      ("trace", J.Int sp.sp_trace);
      ("span", J.Int sp.sp_id);
      ("parent", match sp.sp_parent with Some p -> J.Int p | None -> J.Null);
      ("name", J.Str sp.sp_name);
      ("start", J.Float sp.sp_start);
      ("end", J.Float sp.sp_end);
    ]
  in
  let attrs =
    match span_attrs sp with
    | [] -> []
    | attrs -> [ ("attrs", J.Obj (List.map (fun (k, v) -> (k, J.Str v)) attrs)) ]
  in
  J.Obj (base @ attrs)

let to_json t =
  let module J = Oasis_util.Json in
  J.to_string
    (J.Obj
       [ ("dropped", J.Int t.dropped); ("spans", J.Arr (List.map span_to_json (spans t))) ])
