(* Unit and property tests for lib/util: prng, siphash, signing, hex,
   frame, bitset, pqueue. *)

module Prng = Oasis_util.Prng
module Siphash = Oasis_util.Siphash
module Signing = Oasis_util.Signing
module Bitset = Oasis_util.Bitset
module Pqueue = Oasis_util.Pqueue
module Cache = Oasis_util.Cache
module Hex = Oasis_util.Hex
module Frame = Oasis_util.Frame

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* --- prng --- *)

let test_prng_deterministic () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1L and b = Prng.create 2L in
  checkb "different seeds diverge" true (Prng.bits64 a <> Prng.bits64 b)

let test_prng_split_independent () =
  let a = Prng.create 7L in
  let b = Prng.split a in
  let xs = List.init 50 (fun _ -> Prng.bits64 a) in
  let ys = List.init 50 (fun _ -> Prng.bits64 b) in
  checkb "split streams differ" true (xs <> ys)

let test_prng_int_bounds () =
  let g = Prng.create 3L in
  for _ = 1 to 1000 do
    let v = Prng.int g 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_invalid () =
  let g = Prng.create 3L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let test_prng_float_bounds () =
  let g = Prng.create 11L in
  for _ = 1 to 1000 do
    let v = Prng.float g 2.5 in
    checkb "in range" true (v >= 0.0 && v < 2.5)
  done

let test_prng_exponential_positive () =
  let g = Prng.create 5L in
  let sum = ref 0.0 in
  for _ = 1 to 2000 do
    let v = Prng.exponential g ~mean:3.0 in
    checkb "positive" true (v >= 0.0);
    sum := !sum +. v
  done;
  let mean = !sum /. 2000.0 in
  checkb "mean approx 3" true (mean > 2.5 && mean < 3.5)

let test_prng_zipf_skew () =
  let g = Prng.create 9L in
  let counts = Array.make 10 0 in
  for _ = 1 to 5000 do
    let k = Prng.zipf g ~n:10 ~s:1.2 in
    counts.(k) <- counts.(k) + 1
  done;
  checkb "rank 0 most popular" true (counts.(0) > counts.(5));
  checkb "all in range" true (Array.for_all (fun c -> c >= 0) counts)

let test_prng_pick_shuffle () =
  let g = Prng.create 21L in
  let a = [| 1; 2; 3; 4; 5 |] in
  let picked = Prng.pick g a in
  checkb "picked member" true (Array.exists (( = ) picked) a);
  let b = Array.copy a in
  Prng.shuffle g b;
  Alcotest.(check (list int)) "permutation" (List.sort compare (Array.to_list a))
    (List.sort compare (Array.to_list b))

(* --- siphash --- *)

(* The published SipHash-2-4 vectors from the Aumasson/Bernstein paper:
   key = 000102...0f, input = 00 01 02 ... (n-1). *)
let test_siphash_reference_vector () =
  let key = Siphash.key_of_int64s 0x0706050403020100L 0x0f0e0d0c0b0a0908L in
  List.iter
    (fun (n, want) ->
      Alcotest.(check string)
        (Printf.sprintf "reference vector n=%d" n)
        want
        (Siphash.hash_hex key (String.init n Char.chr)))
    [
      (0, "726fdb47dd0e0e31");
      (1, "74f839c593dc67fd");
      (7, "ab0200f58b01d137");
      (8, "93f5f5799a932462");
      (15, "a129ca6149be45e5");
      (63, "958a324ceb064572");
    ]

(* Outputs of the closure-based implementation this one replaced, for every
   length 0..64 under the same key: every tail length, and one to eight full
   blocks. *)
let siphash_pinned =
  [|
    "726fdb47dd0e0e31"; "74f839c593dc67fd"; "0d6c8009d9a94f5a"; "85676696d7fb7e2d";
    "cf2794e0277187b7"; "18765564cd99a68d"; "cbc9466e58fee3ce"; "ab0200f58b01d137";
    "93f5f5799a932462"; "9e0082df0ba9e4b0"; "7a5dbbc594ddb9f3"; "f4b32f46226bada7";
    "751e8fbc860ee5fb"; "14ea5627c0843d90"; "f723ca908e7af2ee"; "a129ca6149be45e5";
    "3f2acc7f57c29bdb"; "699ae9f52cbe4794"; "4bc1b3f0968dd39c"; "bb6dc91da77961bd";
    "bed65cf21aa2ee98"; "d0f2cbb02e3b67c7"; "93536795e3a33e88"; "a80c038ccd5ccec8";
    "b8ad50c6f649af94"; "bce192de8a85b8ea"; "17d835b85bbb15f3"; "2f2e6163076bcfad";
    "de4daaaca71dc9a5"; "a6a2506687956571"; "ad87a3535c49ef28"; "32d892fad841c342";
    "7127512f72f27cce"; "a7f32346f95978e3"; "12e0b01abb051238"; "15e034d40fa197ae";
    "314dffbe0815a3b4"; "027990f029623981"; "cadcd4e59ef40c4d"; "9abfd8766a33735c";
    "0e3ea96b5304a7d0"; "ad0c42d6fc585992"; "187306c89bc215a9"; "d4a60abcf3792b95";
    "f935451de4f21df2"; "a9538f0419755787"; "db9acddff56ca510"; "d06c98cd5c0975eb";
    "e612a3cb9ecba951"; "c766e62cfcadaf96"; "ee64435a9752fe72"; "a192d576b245165a";
    "0a8787bf8ecb74b2"; "81b3e73d20b49b6f"; "7fa8220ba3b2ecea"; "245731c13ca42499";
    "b78dbfaf3a8d83bd"; "ea1ad565322a1a0b"; "60e61c23a3795013"; "6606d7e446282b93";
    "6ca4ecb15c5f91e1"; "9f626da15c9625f3"; "e51b38608ef25f57"; "958a324ceb064572";
    "acd2c40b8502cad8";
  |]

let test_siphash_pinned_lengths () =
  let key = Siphash.key_of_int64s 0x0706050403020100L 0x0f0e0d0c0b0a0908L in
  Array.iteri
    (fun n want ->
      let msg = String.init n Char.chr in
      Alcotest.(check string) (Printf.sprintf "n=%d" n) want (Siphash.hash_hex key msg);
      Alcotest.(check string) "hash_hex renders hash"
        (Printf.sprintf "%016Lx" (Siphash.hash key msg))
        want)
    siphash_pinned

let test_siphash_key_derivation_pinned () =
  List.iter
    (fun (s, k0, k1) ->
      let k = Siphash.key_of_string s in
      Alcotest.(check int64) (s ^ " k0") k0 k.Siphash.k0;
      Alcotest.(check int64) (s ^ " k1") k1 k.Siphash.k1)
    [
      ("", 0x2c792a9a14aa38d5L, 0x80324924a5bf7817L);
      ("a", 0x3c1c17d11d3e59dcL, 0x80324924a5bf7817L);
      ("oasis.wal:tcp", 0x3defebc277799c35L, 0xb140da41d9306e33L);
      ("hunter2", 0x6bb2a2a3ea228d44L, 0xdf53916a75d92dcbL);
    ]

(* A closure capturing the state words would box every 64-bit step (about
   100 KB for this input); the unboxed kernel allocates only its result. *)
let test_siphash_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let k = Siphash.key_of_string "alloc" and msg = String.make 4096 'x' in
    ignore (Siphash.hash k msg);
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Siphash.hash k msg));
    let words = Gc.minor_words () -. before in
    checkb (Printf.sprintf "hashing 4 KiB allocated %.0f words (< 64)" words) true (words < 64.0)
  end

let test_siphash_key_sensitivity () =
  let k1 = Siphash.key_of_string "secret-1" and k2 = Siphash.key_of_string "secret-2" in
  checkb "different keys, different hash" true (Siphash.hash k1 "payload" <> Siphash.hash k2 "payload")

let test_siphash_input_sensitivity () =
  let k = Siphash.key_of_string "k" in
  checkb "bit flip changes hash" true (Siphash.hash k "payloadA" <> Siphash.hash k "payloadB")

let test_siphash_empty_and_long () =
  let k = Siphash.key_of_string "k" in
  let h1 = Siphash.hash k "" in
  let h2 = Siphash.hash k (String.make 1000 'x') in
  checkb "defined on empty" true (h1 <> 0L || true);
  checkb "long inputs hash" true (h1 <> h2)

let prop_siphash_deterministic =
  QCheck.Test.make ~name:"siphash deterministic" ~count:200 QCheck.string (fun s ->
      let k = Siphash.key_of_string "fixed" in
      Siphash.hash k s = Siphash.hash k s)

let prop_siphash_length_distinguishes =
  QCheck.Test.make ~name:"siphash distinguishes s from s+nul" ~count:200 QCheck.string (fun s ->
      let k = Siphash.key_of_string "fixed" in
      Siphash.hash k s <> Siphash.hash k (s ^ "\x00"))

(* [hash_sub] hashes a range where it lies: the same word as hashing a
   copy of the range, for every offset and length, and no copy is made. *)
let prop_siphash_sub_is_hash_of_copy =
  QCheck.Test.make ~name:"hash_sub = hash of the range's copy" ~count:500
    QCheck.(triple string small_nat small_nat)
    (fun (s, a, b) ->
      let k = Siphash.key_of_string "sub" and n = String.length s in
      let off = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - off = 0 then 0 else b mod (n - off + 1) in
      Siphash.hash_sub k s off len = Siphash.hash k (String.sub s off len))

let test_siphash_sub_bounds_and_allocation () =
  let k = Siphash.key_of_string "sub" in
  List.iter
    (fun (off, len) ->
      Alcotest.check_raises
        (Printf.sprintf "range %d+%d of 8 bytes" off len)
        (Invalid_argument "Siphash.hash_sub")
        (fun () -> ignore (Siphash.hash_sub k "01234567" off len)))
    [ (-1, 1); (0, 9); (8, 1); (4, -1); (max_int, 1) ];
  if Sys.backend_type = Sys.Native then begin
    let msg = String.make 4096 'x' in
    ignore (Siphash.hash_sub k msg 7 4000);
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Siphash.hash_sub k msg 7 4000));
    let words = Gc.minor_words () -. before in
    checkb (Printf.sprintf "hashing 4,000 bytes in place allocated %.0f words (< 64)" words) true
      (words < 64.0)
  end

(* --- signing --- *)

let test_sign_verify_roundtrip () =
  let s = Signing.secret_of_string "hunter2" in
  let signature = Signing.sign s "hello" in
  checkb "verifies" true (Signing.verify s "hello" signature)

let test_sign_tamper_detected () =
  let s = Signing.secret_of_string "hunter2" in
  let signature = Signing.sign s "hello" in
  checkb "tampered payload fails" false (Signing.verify s "hellO" signature);
  checkb "tampered signature fails" false
    (Signing.verify s "hello" (String.mapi (fun i c -> if i = 0 then (if c = '0' then '1' else '0') else c) signature))

let test_sign_lengths () =
  let s = Signing.secret_of_string "k" in
  List.iter
    (fun len ->
      let signature = Signing.sign ~length:len s "data" in
      checki "length respected" len (String.length signature);
      checkb "verifies at length" true (Signing.verify ~length:len s "data" signature))
    [ 4; 8; 16; 24; 32 ]

let test_sign_length_bounds () =
  let s = Signing.secret_of_string "k" in
  Alcotest.check_raises "too short" (Invalid_argument "Signing.sign: length must be in [4, 32]")
    (fun () -> ignore (Signing.sign ~length:2 s "x"))

let test_sign_key_separation () =
  let s1 = Signing.secret_of_string "a" and s2 = Signing.secret_of_string "b" in
  let signature = Signing.sign s1 "data" in
  checkb "wrong key fails" false (Signing.verify s2 "data" signature)

let test_verify_rejects_truncated () =
  (* Regression: verify used to take the expected length from the presented
     signature, so a prefix of a valid signature verified.  The expected
     length must come from the verifier's configuration. *)
  let s = Signing.secret_of_string "hunter2" in
  let signature = Signing.sign ~length:16 s "hello" in
  checkb "full signature verifies" true (Signing.verify ~length:16 s "hello" signature);
  List.iter
    (fun len ->
      checkb
        (Printf.sprintf "truncated to %d rejected" len)
        false
        (Signing.verify ~length:16 s "hello" (String.sub signature 0 len)))
    [ 4; 8; 15 ];
  checkb "default length is 16" false (Signing.verify s "hello" (String.sub signature 0 4))

let test_rolling_basic () =
  let t = Signing.Rolling.create (Prng.create 1L) in
  let signature = Signing.Rolling.sign t "payload" in
  checkb "verifies" true (Signing.Rolling.verify t "payload" signature);
  checkb "tamper fails" false (Signing.Rolling.verify t "payloadx" signature)

let test_rolling_old_secret_survives_within_capacity () =
  let t = Signing.Rolling.create (Prng.create 2L) in
  let signature = Signing.Rolling.sign t "p" in
  for _ = 1 to 3 do
    Signing.Rolling.roll t
  done;
  checkb "still valid after 3 rolls (4 live secrets)" true (Signing.Rolling.verify t "p" signature);
  Signing.Rolling.roll t;
  checkb "retired after the 4th roll" false (Signing.Rolling.verify t "p" signature)

let test_rolling_new_secret_signs () =
  let t = Signing.Rolling.create (Prng.create 3L) in
  Signing.Rolling.roll t;
  let signature = Signing.Rolling.sign t "q" in
  checkb "current secret verifies" true (Signing.Rolling.verify t "q" signature);
  checki "generation counted" 1 (Signing.Rolling.generation t)

let test_rolling_garbage_signature () =
  let t = Signing.Rolling.create (Prng.create 4L) in
  checkb "garbage rejected" false (Signing.Rolling.verify t "p" "zzzz");
  checkb "short rejected" false (Signing.Rolling.verify t "p" "ab")

let test_rolling_rejects_truncated () =
  let t = Signing.Rolling.create (Prng.create 5L) in
  let signature = Signing.Rolling.sign ~length:16 t "payload" in
  checkb "full verifies" true (Signing.Rolling.verify ~length:16 t "payload" signature);
  checkb "truncated rejected" false
    (Signing.Rolling.verify ~length:16 t "payload" (String.sub signature 0 4));
  checkb "truncated rejected at default" false
    (Signing.Rolling.verify t "payload" (String.sub signature 0 4))

(* The key id is exactly four lowercase hex digits: other spellings of the
   same number are not the signature [sign] wrote. *)
let test_rolling_rejects_noncanonical_key_id () =
  let t = Signing.Rolling.create (Prng.create 6L) in
  let s0 = Signing.Rolling.sign t "payload" in
  checkb "canonical id 0000 verifies" true (Signing.Rolling.verify t "payload" s0);
  let body0 = String.sub s0 4 (String.length s0 - 4) in
  checkb "0_00 refused" false (Signing.Rolling.verify t "payload" ("0_00" ^ body0));
  for _ = 1 to 10 do
    Signing.Rolling.roll t
  done;
  let s10 = Signing.Rolling.sign t "payload" in
  checks "id 10 is written 000a" "000a" (String.sub s10 0 4);
  checkb "canonical id 000a verifies" true (Signing.Rolling.verify t "payload" s10);
  let body10 = String.sub s10 4 (String.length s10 - 4) in
  checkb "000A refused" false (Signing.Rolling.verify t "payload" ("000A" ^ body10));
  checkb "+00a refused" false (Signing.Rolling.verify t "payload" ("+00a" ^ body10))

(* Signatures are unchanged by the rewrite of the kernels under them. *)
let test_rolling_signatures_pinned () =
  let t = Signing.Rolling.create (Prng.create 5L) in
  checks "length 16" "0000708d855fb11eedcc" (Signing.Rolling.sign ~length:16 t "payload");
  checks "length 32" "0000708d855fb11eedcceed20de97dcaf389"
    (Signing.Rolling.sign ~length:32 t "payload");
  checks "length 6" "0000708d85" (Signing.Rolling.sign ~length:6 t "payload")

(* --- hex --- *)

let prop_hex_encode_matches_printf =
  QCheck.Test.make ~name:"hex encode = per-byte %02x" ~count:300 QCheck.string (fun s ->
      let per_byte = String.to_seq s |> Seq.map (fun c -> Printf.sprintf "%02x" (Char.code c)) in
      Hex.encode s = String.concat "" (List.of_seq per_byte)
      && Hex.decode (Hex.encode s) = Some s)

let prop_hex_fixed_width_matches_printf =
  QCheck.Test.make ~name:"fixed-width hex = %0*x, and parses back" ~count:500
    QCheck.(pair (int_range 1 15) (int_bound max_int))
    (fun (width, n) ->
      let n = n land ((1 lsl (4 * width)) - 1) in
      let s = Hex.of_int ~width n in
      s = Printf.sprintf "%0*x" width n && Hex.get_int s 0 ~width = n)

let prop_hex_int64_matches_printf =
  QCheck.Test.make ~name:"put_int64 = %016Lx, equal_int64 agrees" ~count:500 QCheck.int64 (fun x ->
      let b = Bytes.create 16 in
      Hex.put_int64 b 0 x;
      let s = Bytes.to_string b in
      s = Printf.sprintf "%016Lx" x
      && Hex.equal_int64 s 0 x
      && not (Hex.equal_int64 s 0 (Int64.logxor x 1L)))

let test_hex_strict_fields () =
  checki "lowercase parses" 0xbeef (Hex.get_int "beef" 0 ~width:4);
  checki "uppercase refused" (-1) (Hex.get_int "BEEF" 0 ~width:4);
  checki "underscore refused" (-1) (Hex.get_int "0_00" 0 ~width:4);
  checki "sign refused" (-1) (Hex.get_int "+000" 0 ~width:4);
  checkb "uppercase digest refused" false
    (Hex.equal_int64 "0123456789ABCDEF" 0 0x0123456789abcdefL);
  Alcotest.check_raises "too wide" (Invalid_argument "Hex.put_int: value does not fit the width")
    (fun () -> ignore (Hex.of_int ~width:4 0x10000))

(* The fixed-width fields against the Printf renderings their interface
   promises, at the digit boundaries and at random values.  The header
   words are written word at a time, so a digit's neighbours, the top
   digit (whose letters set the top byte's bit 6) and the bytes either
   side of the field are where a mistake would show. *)
let test_hex_fixed_width_reference () =
  let prng = Prng.create 2024L in
  let put8 n =
    let b = Bytes.make 12 '#' in
    Hex.put_int b 2 ~width:8 n;
    Bytes.to_string b
  in
  let edges = [ 0; 9; 10; 15; 16; 0xff; 0x100; 0xa0000000; 0xf0000000; (1 lsl 32) - 1 ] in
  let randoms = List.init 2000 (fun _ -> Prng.int prng (1 lsl 30) lor (Prng.int prng 4 lsl 30)) in
  List.iter
    (fun n ->
      let want = Printf.sprintf "%08x" n in
      checks (Printf.sprintf "put_int ~width:8 %d" n) ("##" ^ want ^ "##") (put8 n);
      checks (Printf.sprintf "of_int ~width:8 %d" n) want (Hex.of_int ~width:8 n);
      checki (Printf.sprintf "get_int %s" want) n (Hex.get_int ("..." ^ want) 3 ~width:8))
    (edges @ randoms);
  let words =
    [ 0L; 9L; 10L; 15L; 16L; 0xffffffffL; 0x100000000L; -1L; Int64.min_int; Int64.max_int ]
    @ List.init 2000 (fun _ -> Prng.bits64 prng)
  in
  List.iter
    (fun x ->
      let want = Printf.sprintf "%016Lx" x in
      let b = Bytes.make 20 '#' in
      Hex.put_int64 b 2 x;
      checks (Printf.sprintf "put_int64 %Ld" x) ("##" ^ want ^ "##") (Bytes.to_string b);
      checkb (Printf.sprintf "equal_int64 %s" want) true (Hex.equal_int64 ("." ^ want) 1 x);
      for i = 0 to 15 do
        let neighbour = Int64.logxor x (Int64.shift_left 1L (4 * i)) in
        checkb "a word one digit away differs" false (Hex.equal_int64 want 0 neighbour)
      done)
    words;
  List.iter
    (fun n ->
      Alcotest.check_raises (Printf.sprintf "put_int ~width:8 %d" n)
        (Invalid_argument "Hex.put_int: value does not fit the width") (fun () -> ignore (put8 n)))
    [ 1 lsl 32; (1 lsl 32) + 5; max_int; -1; min_int ]

(* Every byte but the sixteen digits the encoder writes is refused in every
   position of a length or checksum field, uppercase included. *)
let test_hex_refuses_other_bytes () =
  let lower = "0123456789abcdef" in
  let x = 0x0123456789abcdefL in
  for c = 0 to 255 do
    let ch = Char.chr c in
    if not (String.contains lower ch) then begin
      for pos = 0 to 7 do
        let f = Bytes.of_string "3fa0c9e1" in
        Bytes.set f pos ch;
        checki
          (Printf.sprintf "byte %d at digit %d of a length" c pos)
          (-1)
          (Hex.get_int (Bytes.to_string f) 0 ~width:8)
      done;
      for pos = 0 to 15 do
        let f = Bytes.of_string (Printf.sprintf "%016Lx" x) in
        Bytes.set f pos ch;
        checkb
          (Printf.sprintf "byte %d at digit %d of a checksum" c pos)
          false
          (Hex.equal_int64 (Bytes.to_string f) 0 x)
      done
    end
  done

(* --- frame --- *)

let test_frame_pinned () =
  let key = Siphash.key_of_string "oasis.wal:log" in
  checks "one frame" "0000000b0b79128bf1fc39e1hello\000world" (Frame.encode key "hello\000world");
  checks "empty payload" "000000001f2b26ce1c10bd48"
    (Frame.encode (Siphash.key_of_string "oasis.wal:") "");
  let payloads = [ ""; "a"; String.make 300 'z'; "x\000y" ] in
  let framed = Frame.encode_all key payloads in
  checks "encode_all concatenates" (String.concat "" (List.map (Frame.encode key) payloads)) framed;
  Alcotest.(check (list string)) "decode inverts" payloads (Frame.decode key framed);
  let b = Buffer.create 16 in
  List.iter (Frame.add key b) payloads;
  checks "add appends what encode returns" framed (Buffer.contents b);
  let rec ends off = match Frame.check key framed off with -1 -> [] | e -> e :: ends e in
  Alcotest.(check (list int)) "check finds each frame's end" [ 24; 49; 373; 400 ] (ends 0);
  let torn = String.sub framed 0 399 in
  checki "a torn frame does not check" (-1) (Frame.check key torn 373);
  checki "nor does a frame under another key" (-1)
    (Frame.check (Siphash.key_of_string "oasis.wal:other") framed 24)

(* The field packing, pinned byte for byte: the TCP envelope and the
   shard/router requests are written in it. *)
let test_fields_pinned () =
  checks "two fields" "00000002ab0000000000000003x\000y" (Frame.fields [ "ab"; ""; "x\000y" ]);
  checks "no fields" "" (Frame.fields []);
  let refused s = Alcotest.(check (option (list string))) s None (Frame.of_fields s) in
  refused "0000000";
  refused "00000003ab";
  refused "0000000Gab";
  refused "00000002abc"

let fields_arb = QCheck.(small_list string)

let prop_fields_roundtrip =
  QCheck.Test.make ~name:"of_fields inverts fields" ~count:500 fields_arb (fun l ->
      Frame.of_fields (Frame.fields l) = Some l)

let prop_fields_nested_roundtrip =
  QCheck.Test.make ~name:"a field may be a packing" ~count:300 QCheck.(small_list fields_arb)
    (fun ls ->
      match Frame.of_fields (Frame.fields (List.map Frame.fields ls)) with
      | Some outer -> List.map Frame.of_fields outer = List.map Option.some ls
      | None -> false)

let prop_of_fields_total =
  QCheck.Test.make ~name:"of_fields total on arbitrary strings" ~count:1000
    QCheck.(pair (oneofl [ ""; "00000000"; "00000001"; "0000000f"; "ffffffff" ]) string)
    (fun (head, s) ->
      match Frame.of_fields (head ^ s) with
      | Some l -> Frame.fields l = head ^ s
      | None -> true
      | exception _ -> false)

(* Reference encoders for frames and field packings, spelled with Printf
   from the formats' definition: every writer must match them byte for
   byte. *)
let ref_fields l =
  String.concat "" (List.map (fun f -> Printf.sprintf "%08x%s" (String.length f) f) l)

let ref_encode key payload =
  Printf.sprintf "%08x%016Lx%s" (String.length payload) (Siphash.hash key payload) payload

let prop_write_fields_is_reference =
  QCheck.Test.make ~name:"write_fields = encode (fields l), in place" ~count:300
    QCheck.(pair (small_list (small_list small_string)) (int_range 0 40))
    (fun (frames, pad) ->
      let key = Siphash.key_of_string "oasis.wal:tcp" in
      let size = List.fold_left (fun acc l -> acc + Frame.fields_frame_size l) 0 frames in
      let b = Bytes.make (pad + size + 3) '#' in
      let stop = List.fold_left (fun off l -> Frame.write_fields key b off l) pad frames in
      let want = String.concat "" (List.map (fun l -> ref_encode key (ref_fields l)) frames) in
      stop = pad + size
      && Bytes.to_string b = String.make pad '#' ^ want ^ "###"
      && List.for_all (fun l -> Frame.fields l = ref_fields l) frames
      && List.for_all
           (fun l -> Frame.encode key (Frame.fields l) = ref_encode key (ref_fields l))
           frames)

(* A reference stream reader that copies before it checks: the next
   payload of the bytes fed so far, its header checked against what the
   reference encoder writes; then, apart, the payload's fields, or [None]
   when it is not a packing. *)
module Ref_reader = struct
  exception Corrupt

  type t = { key : Siphash.key; max_len : int; buf : Buffer.t; mutable pos : int }

  let create ~max_len key = { key; max_len; buf = Buffer.create 64; pos = 0 }
  let feed t b off n = Buffer.add_subbytes t.buf b off n
  let digits s = String.for_all (fun c -> String.contains "0123456789abcdef" c) s

  let next t =
    let avail = Buffer.length t.buf - t.pos in
    if avail < 24 then None
    else
      let len_field = Buffer.sub t.buf t.pos 8 in
      if not (digits len_field) then raise Corrupt;
      let len = int_of_string ("0x" ^ len_field) in
      if len > t.max_len then raise Corrupt
      else if avail < 24 + len then None
      else
        let payload = Buffer.sub t.buf (t.pos + 24) len in
        if Buffer.sub t.buf (t.pos + 8) 16 <> Printf.sprintf "%016Lx" (Siphash.hash t.key payload)
        then raise Corrupt
        else begin
          t.pos <- t.pos + 24 + len;
          Some payload
        end

  let rec of_fields s =
    if s = "" then Some []
    else if String.length s < 8 || not (digits (String.sub s 0 8)) then None
    else
      let n = int_of_string ("0x" ^ String.sub s 0 8) in
      if String.length s - 8 < n then None
      else
        Option.map
          (fun rest -> String.sub s 8 n :: rest)
          (of_fields (String.sub s (8 + n) (String.length s - 8 - n)))
end

(* Seeded mutations of multi-frame streams, fed to the in-place reader and
   to the reference in the same random pieces: after every piece both
   deliver the same fields, frame for frame, and report corruption at the
   same frame.  [Frame.decode] keeps the same prefix of payloads as the
   reference scan of the whole stream. *)
let test_reader_matches_reference () =
  let key = Siphash.key_of_string "oasis.wal:tcp" in
  let prng = Prng.create 22L in
  let rand_string n = String.init n (fun _ -> Char.chr (Prng.int prng 256)) in
  let payload () =
    match Prng.int prng 8 with
    | 0 -> rand_string (Prng.int prng 20) (* rarely a packing *)
    | 1 -> ref_fields [ rand_string (Prng.int prng 200) ]
    | _ -> ref_fields (List.init (Prng.int prng 7) (fun _ -> rand_string (Prng.int prng 24)))
  in
  let mutate s =
    let b = Bytes.of_string s in
    let n = Bytes.length b in
    match Prng.int prng 7 with
    | 0 when n > 0 ->
        let i = Prng.int prng n in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + Prng.int prng 255)));
        Bytes.to_string b
    | 1 -> String.sub s 0 (Prng.int prng (n + 1))
    | 2 when n > 0 ->
        (* An uppercase or other non-digit byte in a header's place. *)
        let i = Prng.int prng n in
        Bytes.set b i (String.get "ABCDEFgxyz +-_\000\255" (Prng.int prng 16));
        Bytes.to_string b
    | 3 ->
        let i = Prng.int prng (n + 1) in
        String.sub s 0 i ^ rand_string (1 + Prng.int prng 8) ^ String.sub s i (n - i)
    | 4 when n > 0 ->
        let i = Prng.int prng n in
        let k = min (n - i) (1 + Prng.int prng 8) in
        String.sub s 0 i ^ String.sub s (i + k) (n - i - k)
    | 5 -> s ^ Printf.sprintf "%08x" (Prng.int prng 0x200) ^ rand_string (Prng.int prng 40)
    | _ -> s
  in
  let mutations = 2400 in
  let corrupt_seen = ref 0 and fields_seen = ref 0 in
  for m = 1 to mutations do
    let frames = List.init (1 + Prng.int prng 6) (fun _ -> payload ()) in
    let clean = String.concat "" (List.map (ref_encode key) frames) in
    let stream = mutate clean in
    let max_len = if Prng.int prng 4 = 0 then 64 else 4096 in
    let r = Frame.Reader.create ~max_len key and rf = Ref_reader.create ~max_len key in
    let src = Bytes.of_string stream in
    let rec drain () =
      let got =
        match Frame.Reader.next_fields r with
        | None -> `Wait
        | Some l -> `Fields l
        | exception Frame.Corrupt -> `Corrupt
      in
      let want =
        match Ref_reader.next rf with
        | None -> `Wait
        | Some p -> ( match Ref_reader.of_fields p with Some l -> `Fields l | None -> `Corrupt)
        | exception Ref_reader.Corrupt -> `Corrupt
      in
      if got <> want then Alcotest.failf "mutation %d: the readers disagree" m;
      match got with
      | `Fields _ ->
          incr fields_seen;
          drain ()
      | `Corrupt ->
          incr corrupt_seen;
          false
      | `Wait -> true
    in
    let rec feed off =
      if off < Bytes.length src then begin
        let n = min (Bytes.length src - off) (1 + Prng.int prng 64) in
        Frame.Reader.feed r src off n;
        Ref_reader.feed rf src off n;
        if drain () then feed (off + n)
      end
    in
    if drain () then feed 0;
    let rec ref_decode rf acc =
      match Ref_reader.next rf with
      | Some p -> ref_decode rf (p :: acc)
      | None | (exception Ref_reader.Corrupt) -> List.rev acc
    in
    let whole = Ref_reader.create ~max_len:max_int key in
    Ref_reader.feed whole src 0 (Bytes.length src);
    if Frame.decode key stream <> ref_decode whole [] then
      Alcotest.failf "mutation %d: decode keeps another prefix" m
  done;
  checkb "some streams delivered fields" true (!fields_seen > mutations);
  checkb "some streams were corrupt" true (!corrupt_seen > mutations / 4)

(* --- bitset --- *)

let small_int_list = QCheck.(small_list (int_bound Bitset.(62)))

let prop_bitset_roundtrip =
  QCheck.Test.make ~name:"bitset marshal roundtrip" ~count:300 small_int_list (fun l ->
      let s = Bitset.of_list l in
      match Bitset.unmarshal (Bitset.marshal s) with
      | Some s' -> Bitset.equal s s'
      | None -> false)

let prop_bitset_mem_add =
  QCheck.Test.make ~name:"mem after add" ~count:300
    QCheck.(pair (int_bound 62) small_int_list)
    (fun (x, l) -> Bitset.mem x (Bitset.add x (Bitset.of_list l)))

let prop_bitset_union_superset =
  QCheck.Test.make ~name:"union is superset" ~count:300
    QCheck.(pair small_int_list small_int_list)
    (fun (a, b) ->
      let sa = Bitset.of_list a and sb = Bitset.of_list b in
      let u = Bitset.union sa sb in
      Bitset.subset sa u && Bitset.subset sb u)

let prop_bitset_inter_subset =
  QCheck.Test.make ~name:"intersection is subset" ~count:300
    QCheck.(pair small_int_list small_int_list)
    (fun (a, b) ->
      let sa = Bitset.of_list a and sb = Bitset.of_list b in
      let i = Bitset.inter sa sb in
      Bitset.subset i sa && Bitset.subset i sb)

let prop_bitset_diff_disjoint =
  QCheck.Test.make ~name:"diff disjoint from subtrahend" ~count:300
    QCheck.(pair small_int_list small_int_list)
    (fun (a, b) ->
      let d = Bitset.diff (Bitset.of_list a) (Bitset.of_list b) in
      Bitset.is_empty (Bitset.inter d (Bitset.of_list b)))

let prop_bitset_to_list_sorted =
  QCheck.Test.make ~name:"to_list sorted unique" ~count:300 small_int_list (fun l ->
      let out = Bitset.to_list (Bitset.of_list l) in
      out = List.sort_uniq compare l)

let test_bitset_range () =
  Alcotest.check_raises "negative element" (Invalid_argument "Bitset: element -1 out of range")
    (fun () -> ignore (Bitset.singleton (-1)));
  Alcotest.check_raises "too large" (Invalid_argument "Bitset: element 63 out of range") (fun () ->
      ignore (Bitset.singleton 63))

let test_bitset_cardinal () =
  checki "cardinal" 3 (Bitset.cardinal (Bitset.of_list [ 1; 5; 30 ]));
  checki "empty" 0 (Bitset.cardinal Bitset.empty)

let test_bitset_unmarshal_strict () =
  (* Regression: unmarshal used [int_of_string_opt ("0x" ^ s)], which accepts
     underscores anywhere and hex wider than the 0..62 domain. *)
  let rejects s = checkb (Printf.sprintf "%S rejected" s) true (Bitset.unmarshal s = None) in
  rejects "";
  rejects "1_0";
  rejects "_1";
  rejects "0x1";
  rejects "zz";
  rejects "-1";
  rejects " 1";
  rejects "8000000000000000";  (* bit 63: out of domain *)
  rejects "ffffffffffffffff";
  rejects "10000000000000000" (* 17 digits: wider than 64 bits *);
  (* The full 0..62 set is the widest legal value. *)
  (match Bitset.unmarshal "7fffffffffffffff" with
  | Some s -> checki "full set cardinal" 63 (Bitset.cardinal s)
  | None -> Alcotest.fail "full 0..62 set must unmarshal");
  (* Mixed-case hex and high single elements still roundtrip. *)
  (match Bitset.unmarshal (Bitset.marshal (Bitset.singleton 62)) with
  | Some s -> checkb "bit 62 roundtrips" true (Bitset.mem 62 s)
  | None -> Alcotest.fail "bit 62 must roundtrip");
  match Bitset.unmarshal "aB3" with
  | Some s -> checkb "mixed case accepted" true (Bitset.equal s (Bitset.of_list [ 0; 1; 4; 5; 7; 9; 11 ]))
  | None -> Alcotest.fail "mixed-case hex must parse"

(* --- pqueue --- *)

(* The earliest entry with its priority, [None] when the queue is empty. *)
let pqueue_pop q =
  if Pqueue.is_empty q then None
  else
    let p = Pqueue.min_prio q in
    Some (p, Pqueue.take_min q)

let test_pqueue_order () =
  let q = Pqueue.create ~vacant:"" in
  List.iter (fun (p, v) -> ignore (Pqueue.push q p v)) [ (3.0, "c"); (1.0, "a"); (2.0, "b") ];
  let pop () = match pqueue_pop q with Some (_, v) -> v | None -> "?" in
  let x1 = pop () in
  let x2 = pop () in
  let x3 = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] [ x1; x2; x3 ]

let test_pqueue_fifo_ties () =
  let q = Pqueue.create ~vacant:"" in
  List.iter (fun v -> ignore (Pqueue.push q 1.0 v)) [ "first"; "second"; "third" ];
  let pop () = match pqueue_pop q with Some (_, v) -> v | None -> "?" in
  let x1 = pop () in
  let x2 = pop () in
  let x3 = pop () in
  Alcotest.(check (list string)) "insertion order on ties" [ "first"; "second"; "third" ]
    [ x1; x2; x3 ]

let test_pqueue_empty () =
  let q = Pqueue.create ~vacant:() in
  Alcotest.check_raises "empty min_prio" (Invalid_argument "Pqueue.min_prio: empty queue")
    (fun () -> ignore (Pqueue.min_prio q));
  Alcotest.check_raises "empty take_min" (Invalid_argument "Pqueue.take_min: empty queue")
    (fun () -> Pqueue.take_min q);
  checkb "is_empty" true (Pqueue.is_empty q)

let prop_pqueue_pop_sorted =
  QCheck.Test.make ~name:"pqueue pops in priority order" ~count:200
    QCheck.(small_list (float_bound_inclusive 100.0))
    (fun priorities ->
      let q = Pqueue.create ~vacant:0 in
      List.iteri (fun i p -> ignore (Pqueue.push q p i)) priorities;
      let rec drain acc =
        match pqueue_pop q with Some (p, _) -> drain (p :: acc) | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort compare priorities)

let prop_pqueue_length =
  QCheck.Test.make ~name:"pqueue length tracks pushes/pops" ~count:200
    QCheck.(small_list (float_bound_inclusive 10.0))
    (fun ps ->
      let q = Pqueue.create ~vacant:() in
      List.iter (fun p -> ignore (Pqueue.push q p ())) ps;
      let n1 = Pqueue.length q = List.length ps in
      ignore (pqueue_pop q);
      let n2 = Pqueue.length q = max 0 (List.length ps - 1) in
      n1 && n2)

(* Random pushes, removals by handle, removals by sequence number,
   snapshots and pops, against a reference list kept sorted by (priority,
   insertion order).  Each value is its entry's insertion sequence number,
   and [handles] maps it to the handle its push returned.  Coarse
   priorities make ties common. *)
let prop_pqueue_removals_keep_order =
  QCheck.Test.make ~name:"pqueue removals keep pop order" ~count:1000
    QCheck.(list_of_size Gen.(0 -- 60) (pair (int_bound 7) (int_bound 20)))
    (fun ops ->
      let q = Pqueue.create ~vacant:(-1) in
      let reference = ref [] and handles = Hashtbl.create 16 and next = ref 0 in
      let step (op, x) =
        match op with
        | 0 | 1 | 2 ->
            let entry = (float_of_int x, !next) in
            Hashtbl.replace handles !next (Pqueue.push q (fst entry) (snd entry));
            incr next;
            reference := List.merge compare !reference [ entry ];
            true
        | 3 -> (
            match List.nth_opt !reference x with
            | None -> true
            | Some (_, id) ->
                Pqueue.remove q (Hashtbl.find handles id);
                reference := List.filter (fun (_, id') -> id' <> id) !reference;
                Pqueue.length q = List.length !reference)
        | 4 -> (
            (* A departed entry's handle, unless a queued entry now holds
               it, names nothing. *)
            let queued h = List.exists (fun (_, id) -> Hashtbl.find handles id = h) !reference in
            match Hashtbl.find_opt handles x with
            | Some h when not (queued h) -> (
                match Pqueue.remove q h with
                | () -> false
                | exception Invalid_argument _ -> true)
            | _ -> true)
        | 5 ->
            (* The [x]th queued entry or, when fewer are queued, sequence
               number [x], which may have departed or never been pushed. *)
            let id = match List.nth_opt !reference x with Some (_, id) -> id | None -> x in
            let expected = List.find_opt (fun (_, id') -> id' = id) !reference in
            reference := List.filter (fun (_, id') -> id' <> id) !reference;
            Pqueue.remove_seq q id = expected
        | 6 -> Pqueue.entries q = List.map (fun (p, id) -> (p, id, id)) !reference
        | _ -> (
            let got = pqueue_pop q in
            match !reference with
            | [] -> got = None
            | top :: rest ->
                reference := rest;
                got = Some top)
      in
      let rec drain acc = match pqueue_pop q with Some e -> drain (e :: acc) | None -> List.rev acc in
      List.for_all step ops && drain [] = !reference)

let test_pqueue_to_list_nondestructive () =
  let q = Pqueue.create ~vacant:0 in
  List.iter (fun p -> ignore (Pqueue.push q p (int_of_float p))) [ 2.0; 1.0; 3.0 ];
  let snapshot = Pqueue.to_list q in
  checki "still 3" 3 (Pqueue.length q);
  Alcotest.(check (list int)) "snapshot sorted" [ 1; 2; 3 ] (List.map snd snapshot)

(* Values that left the queue must not stay reachable from it: the
   engine queues closures, and an expired timer's closure held by a
   vacated slot stays live until the slot is reused.  Pushes and pops run
   in a non-inlined function so no stack slot of the test pins a value. *)
let[@inline never] fill_and_drain q weak =
  for i = 0 to Weak.length weak - 1 do
    let v = Bytes.make 8 (Char.chr (65 + i)) in
    Weak.set weak i (Some v);
    ignore (Pqueue.push q (float_of_int i) v)
  done;
  (* Pop the three earliest, remove one by sequence, keep the rest. *)
  for _ = 1 to 3 do
    ignore (Sys.opaque_identity (Pqueue.take_min q))
  done;
  ignore (Sys.opaque_identity (Pqueue.remove_seq q 4))

let test_pqueue_releases_departed () =
  let q = Pqueue.create ~vacant:Bytes.empty in
  let weak = Weak.create 6 in
  fill_and_drain q weak;
  Gc.full_major ();
  List.iter
    (fun i -> checkb (Printf.sprintf "departed value %d collected" i) false (Weak.check weak i))
    [ 0; 1; 2; 4 ];
  List.iter
    (fun i -> checkb (Printf.sprintf "queued value %d kept" i) true (Weak.check weak i))
    [ 3; 5 ];
  checki "two still queued" 2 (Pqueue.length q)

(* --- json: sorted keys make emission order-independent --- *)

module Json = Oasis_util.Json

let test_json_sorted_key_order_independent () =
  (* The same document assembled in two different field orders (nested
     objects included) must render byte-identically after [sorted] — this
     is what keeps BENCH_*.json diffable run to run. *)
  let doc fields inner =
    Json.Obj
      (List.map
         (fun k ->
           ( k,
             if k = "nested" then Json.Obj (List.map (fun k' -> (k', Json.Int 1)) inner)
             else Json.Str k ))
         fields)
  in
  let a = doc [ "b"; "a"; "nested"; "c" ] [ "z"; "y"; "x" ] in
  let b = doc [ "c"; "nested"; "a"; "b" ] [ "x"; "z"; "y" ] in
  checkb "permuted fields render differently unsorted" true
    (Json.to_string a <> Json.to_string b);
  Alcotest.(check string)
    "sorted renders identically" (Json.to_string (Json.sorted a))
    (Json.to_string (Json.sorted b));
  (* Arrays keep their order — only object keys are sorted. *)
  let arr = Json.Arr [ Json.Int 3; Json.Int 1; Json.Int 2 ] in
  Alcotest.(check string) "arrays untouched" (Json.to_string arr)
    (Json.to_string (Json.sorted arr))

(* --- cache --- *)

(* The cache against a reference two-generation model: association lists,
   newest first, for the young and the old generation.  The model promotes
   an old hit into the young generation, so a cache that did not would
   lose the entry at the next rotation and answer a later [find]
   differently.  Values are the operation's index, so a stale value shows. *)
let prop_cache_model =
  QCheck.Test.make ~name:"cache = two-generation model" ~count:500
    QCheck.(pair (int_range 2 9) (list_of_size Gen.(0 -- 80) (pair (int_bound 15) (int_bound 11))))
    (fun (cap, ops) ->
      let c = Cache.create cap in
      let young = ref [] and old = ref [] in
      let set k v =
        if (not (List.mem_assoc k !young)) && List.length !young >= cap / 2 then begin
          old := !young;
          young := []
        end;
        young := (k, v) :: List.remove_assoc k !young
      in
      let step i (op, k) =
        let agrees =
          match op with
          | 0 | 1 | 2 | 3 | 4 | 5 ->
              Cache.set c k i;
              set k i;
              true
          | 6 | 7 | 8 | 9 | 10 | 11 ->
              let expected =
                match (List.assoc_opt k !young, List.assoc_opt k !old) with
                | (Some _ as hit), _ -> hit
                | None, (Some v as hit) ->
                    old := List.remove_assoc k !old;
                    set k v;
                    hit
                | None, None -> None
              in
              Cache.find c k = expected
          | 12 -> Cache.mem c k = (List.mem_assoc k !young || List.mem_assoc k !old)
          | 13 -> Cache.length c = List.length !young + List.length !old
          | _ ->
              Cache.clear c;
              young := [];
              old := [];
              true
        in
        agrees && Cache.length c <= cap
      in
      let rec run i = function [] -> true | op :: rest -> step i op && run (i + 1) rest in
      Cache.capacity c = cap && run 0 ops)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_prng_int_invalid;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "exponential" `Quick test_prng_exponential_positive;
          Alcotest.test_case "zipf skew" `Quick test_prng_zipf_skew;
          Alcotest.test_case "pick and shuffle" `Quick test_prng_pick_shuffle;
        ] );
      ( "siphash",
        [
          Alcotest.test_case "reference vector" `Quick test_siphash_reference_vector;
          Alcotest.test_case "pinned outputs, lengths 0..64" `Quick test_siphash_pinned_lengths;
          Alcotest.test_case "pinned key derivation" `Quick test_siphash_key_derivation_pinned;
          Alcotest.test_case "4 KiB hash allocates < 64 words" `Quick test_siphash_allocation;
          Alcotest.test_case "key sensitivity" `Quick test_siphash_key_sensitivity;
          Alcotest.test_case "input sensitivity" `Quick test_siphash_input_sensitivity;
          Alcotest.test_case "empty and long" `Quick test_siphash_empty_and_long;
          qt prop_siphash_deterministic;
          qt prop_siphash_length_distinguishes;
          qt prop_siphash_sub_is_hash_of_copy;
          Alcotest.test_case "hash_sub bounds, and no copy" `Quick
            test_siphash_sub_bounds_and_allocation;
        ] );
      ( "signing",
        [
          Alcotest.test_case "roundtrip" `Quick test_sign_verify_roundtrip;
          Alcotest.test_case "tamper detected" `Quick test_sign_tamper_detected;
          Alcotest.test_case "lengths" `Quick test_sign_lengths;
          Alcotest.test_case "length bounds" `Quick test_sign_length_bounds;
          Alcotest.test_case "key separation" `Quick test_sign_key_separation;
          Alcotest.test_case "truncated signature rejected" `Quick test_verify_rejects_truncated;
          Alcotest.test_case "rolling basic" `Quick test_rolling_basic;
          Alcotest.test_case "rolling retires old" `Quick test_rolling_old_secret_survives_within_capacity;
          Alcotest.test_case "rolling new signs" `Quick test_rolling_new_secret_signs;
          Alcotest.test_case "rolling garbage" `Quick test_rolling_garbage_signature;
          Alcotest.test_case "rolling truncated rejected" `Quick test_rolling_rejects_truncated;
          Alcotest.test_case "rolling non-canonical key id rejected" `Quick
            test_rolling_rejects_noncanonical_key_id;
          Alcotest.test_case "rolling signatures pinned" `Quick test_rolling_signatures_pinned;
        ] );
      ( "hex",
        [
          qt prop_hex_encode_matches_printf;
          qt prop_hex_fixed_width_matches_printf;
          qt prop_hex_int64_matches_printf;
          Alcotest.test_case "strict fields" `Quick test_hex_strict_fields;
          Alcotest.test_case "fixed-width fields = %08x, %016Lx" `Quick
            test_hex_fixed_width_reference;
          Alcotest.test_case "only lowercase digits parse" `Quick test_hex_refuses_other_bytes;
        ] );
      ( "frame",
        [
          Alcotest.test_case "pinned bytes, round trip" `Quick test_frame_pinned;
          Alcotest.test_case "field packing pinned" `Quick test_fields_pinned;
          qt prop_fields_roundtrip;
          qt prop_fields_nested_roundtrip;
          qt prop_of_fields_total;
          qt prop_write_fields_is_reference;
          Alcotest.test_case "in-place reader = reference reader" `Quick
            test_reader_matches_reference;
        ] );
      ( "bitset",
        [
          qt prop_bitset_roundtrip;
          qt prop_bitset_mem_add;
          qt prop_bitset_union_superset;
          qt prop_bitset_inter_subset;
          qt prop_bitset_diff_disjoint;
          qt prop_bitset_to_list_sorted;
          Alcotest.test_case "range errors" `Quick test_bitset_range;
          Alcotest.test_case "cardinal" `Quick test_bitset_cardinal;
          Alcotest.test_case "strict unmarshal" `Quick test_bitset_unmarshal_strict;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "order" `Quick test_pqueue_order;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "empty" `Quick test_pqueue_empty;
          qt prop_pqueue_pop_sorted;
          qt prop_pqueue_length;
          qt prop_pqueue_removals_keep_order;
          Alcotest.test_case "to_list" `Quick test_pqueue_to_list_nondestructive;
          Alcotest.test_case "departed values are not pinned" `Quick
            test_pqueue_releases_departed;
        ] );
      ("cache", [ qt prop_cache_model ]);
      ( "json",
        [
          Alcotest.test_case "sorted keys are order-independent" `Quick
            test_json_sorted_key_order_independent;
        ] );
    ]
