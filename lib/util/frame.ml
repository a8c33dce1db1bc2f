let header = 24

let write b off key payload =
  let n = String.length payload in
  Hex.put_int b off ~width:8 n;
  Hex.put_int64 b (off + 8) (Siphash.hash key payload);
  Bytes.blit_string payload 0 b (off + header) n

let encode key payload =
  let b = Bytes.create (header + String.length payload) in
  write b 0 key payload;
  Bytes.unsafe_to_string b

let encode_all key payloads =
  let total = List.fold_left (fun acc p -> acc + header + String.length p) 0 payloads in
  let b = Bytes.create total in
  ignore
    (List.fold_left
       (fun off p ->
         write b off key p;
         off + header + String.length p)
       0 payloads);
  Bytes.unsafe_to_string b

exception Corrupt

(* The frame at [off] in [s.[off .. stop - 1]]: its payload and the offset
   past it, or [None] when the bytes end first.  The length cap is checked
   as soon as the header is complete. *)
let frame_at ~max_len key s ~off ~stop =
  if off + header > stop then None
  else
    let len = Hex.get_int s off ~width:8 in
    if len < 0 || len > max_len then raise Corrupt
    else if off + header + len > stop then None
    else
      let payload = String.sub s (off + header) len in
      if Hex.equal_int64 s (off + 8) (Siphash.hash key payload) then
        Some (payload, off + header + len)
      else raise Corrupt

let decode key s =
  let stop = String.length s in
  let rec go off acc =
    match frame_at ~max_len:max_int key s ~off ~stop with
    | Some (payload, off) -> go off (payload :: acc)
    | None -> List.rev acc
    | exception Corrupt -> List.rev acc
  in
  go 0 []

module Reader = struct
  type t = {
    key : Siphash.key;
    max_len : int;
    mutable buf : bytes;
    mutable start : int;  (* first byte not yet decoded *)
    mutable stop : int;  (* end of the bytes received *)
  }

  let create ~max_len key = { key; max_len; buf = Bytes.create 4096; start = 0; stop = 0 }

  let feed t src off n =
    if t.stop + n > Bytes.length t.buf then begin
      let live = t.stop - t.start in
      let buf =
        if live + n <= Bytes.length t.buf then t.buf
        else Bytes.create (max (live + n) (2 * Bytes.length t.buf))
      in
      Bytes.blit t.buf t.start buf 0 live;
      t.buf <- buf;
      t.start <- 0;
      t.stop <- live
    end;
    Bytes.blit src off t.buf t.stop n;
    t.stop <- t.stop + n

  let next t =
    (* The string view of [buf] lives only for this call, which writes
       nothing to [buf]; the payload is copied out of it. *)
    let s = Bytes.unsafe_to_string t.buf in
    match frame_at ~max_len:t.max_len t.key s ~off:t.start ~stop:t.stop with
    | None -> None
    | Some (payload, off) ->
        if off = t.stop then begin
          t.start <- 0;
          t.stop <- 0
        end
        else t.start <- off;
        Some payload
end

(* Each field is its length in 8 hex digits, then its bytes. *)
let fields l =
  let b = Bytes.create (List.fold_left (fun acc f -> acc + 8 + String.length f) 0 l) in
  ignore
    (List.fold_left
       (fun off f ->
         let n = String.length f in
         Hex.put_int b off ~width:8 n;
         Bytes.blit_string f 0 b (off + 8) n;
         off + 8 + n)
       0 l);
  Bytes.unsafe_to_string b

let of_fields s =
  let total = String.length s in
  let rec go off acc =
    if off = total then Some (List.rev acc)
    else if off + 8 > total then None
    else
      let len = Hex.get_int s off ~width:8 in
      if len < 0 || off + 8 + len > total then None
      else go (off + 8 + len) (String.sub s (off + 8) len :: acc)
  in
  go 0 []
