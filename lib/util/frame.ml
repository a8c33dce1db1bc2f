let header = 24

exception Corrupt

(* The header of the [len] payload bytes already written at [off + header]
   in [b]: their length, then their SipHash, computed where they lie. *)
let seal key b off len =
  Hex.put_int b off ~width:8 len;
  Hex.put_int64 b (off + 8) (Siphash.hash_sub key (Bytes.unsafe_to_string b) (off + header) len)

let write b off key payload =
  let n = String.length payload in
  Bytes.blit_string payload 0 b (off + header) n;
  seal key b off n

let encode key payload =
  let b = Bytes.create (header + String.length payload) in
  write b 0 key payload;
  Bytes.unsafe_to_string b

let add key b payload =
  Hex.add_fixed8 b (String.length payload);
  Hex.add_int64 b (Siphash.hash key payload);
  Buffer.add_string b payload

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

(* The offset past the frame at [off] in [s.[off .. stop - 1]], or -1 when
   the bytes end first.  The length cap is checked as soon as the header
   is complete; the checksum is computed over the payload where it lies,
   and must match before the frame's end is returned. *)
let frame_end ~max_len key s ~off ~stop =
  if stop - off < header then -1
  else
    let len = Hex.get_int s off ~width:8 in
    if len < 0 || len > max_len then raise Corrupt
    else if len > stop - off - header then -1
    else if Hex.equal_int64 s (off + 8) (Siphash.hash_sub key s (off + header) len) then
      off + header + len
    else raise Corrupt

let check key s off =
  match frame_end ~max_len:max_int key s ~off ~stop:(String.length s) with
  | e -> e
  | exception Corrupt -> -1

let decode key s =
  let rec go off acc =
    match check key s off with
    | -1 -> List.rev acc
    | e -> go e (String.sub s (off + header) (e - off - header) :: acc)
  in
  go 0 []

(* --- field packing: each field is its length in 8 hex digits, then its
   bytes --- *)

(* Whether [s.[off .. stop - 1]] is a sequence of complete fields. *)
let rec packed s off stop =
  off = stop
  || stop - off >= 8
     &&
     let n = Hex.get_int s off ~width:8 in
     n >= 0 && n <= stop - off - 8 && packed s (off + 8 + n) stop

(* The fields of a range [packed] accepted, in order, built front to back. *)
let[@tail_mod_cons] rec split_packed f s off stop =
  if off = stop then []
  else
    let n = Hex.get_int s off ~width:8 in
    f s (off + 8) n :: split_packed f s (off + 8 + n) stop

let split f s off len =
  if off < 0 || len < 0 || off > String.length s - len then invalid_arg "Frame.split";
  if packed s off (off + len) then Some (split_packed f s off (off + len)) else None

let field_length s off = Hex.get_int s (off - 8) ~width:8

let of_fields s = split String.sub s 0 (String.length s)

let rec put_fields b off = function
  | [] -> off
  | f :: l ->
      let n = String.length f in
      Hex.put_int b off ~width:8 n;
      Bytes.blit_string f 0 b (off + 8) n;
      put_fields b (off + 8 + n) l

let packed_size l = List.fold_left (fun acc f -> acc + 8 + String.length f) 0 l

let fields l =
  let b = Bytes.create (packed_size l) in
  ignore (put_fields b 0 l);
  Bytes.unsafe_to_string b

let fields_frame_size l = header + packed_size l

let write_fields key b off l =
  let stop = put_fields b (off + header) l in
  seal key b off (stop - off - header);
  stop

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

  let next_fields t =
    (* The string view of [buf] lives only for this call, which writes
       nothing to [buf]: the checksum is computed and the fields copied
       out where the bytes lie. *)
    let s = Bytes.unsafe_to_string t.buf in
    match frame_end ~max_len:t.max_len t.key s ~off:t.start ~stop:t.stop with
    | -1 -> None
    | e -> (
        match split String.sub s (t.start + header) (e - t.start - header) with
        | None -> raise Corrupt
        | fields ->
            if e = t.stop then begin
              t.start <- 0;
              t.stop <- 0
            end
            else t.start <- e;
            fields)
end
