(* Unit and property tests for lib/util: prng, siphash, signing, hex,
   frame, bitset, pqueue. *)

module Prng = Oasis_util.Prng
module Siphash = Oasis_util.Siphash
module Signing = Oasis_util.Signing
module Bitset = Oasis_util.Bitset
module Pqueue = Oasis_util.Pqueue
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
  let t = Signing.Rolling.create ~capacity:3 (Prng.create 2L) in
  let signature = Signing.Rolling.sign t "p" in
  Signing.Rolling.roll t;
  Signing.Rolling.roll t;
  checkb "still valid (capacity 3)" true (Signing.Rolling.verify t "p" signature);
  Signing.Rolling.roll t;
  checkb "retired after capacity rolls" false (Signing.Rolling.verify t "p" signature)

let test_rolling_new_secret_signs () =
  let t = Signing.Rolling.create ~capacity:2 (Prng.create 3L) in
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
  let t = Signing.Rolling.create ~capacity:16 (Prng.create 6L) in
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

(* --- frame --- *)

let test_frame_pinned () =
  let key = Siphash.key_of_string "oasis.wal:log" in
  checks "one frame" "0000000b0b79128bf1fc39e1hello\000world" (Frame.encode key "hello\000world");
  checks "empty payload" "000000001f2b26ce1c10bd48"
    (Frame.encode (Siphash.key_of_string "oasis.wal:") "");
  let payloads = [ ""; "a"; String.make 300 'z'; "x\000y" ] in
  let framed = Frame.encode_all key payloads in
  checks "encode_all concatenates" (String.concat "" (List.map (Frame.encode key) payloads)) framed;
  Alcotest.(check (list string)) "decode inverts" payloads (Frame.decode key framed)

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

let test_pqueue_order () =
  let q = Pqueue.create () in
  List.iter (fun (p, v) -> Pqueue.push q p v) [ (3.0, "c"); (1.0, "a"); (2.0, "b") ];
  let pop () = match Pqueue.pop q with Some (_, v) -> v | None -> "?" in
  let x1 = pop () in
  let x2 = pop () in
  let x3 = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] [ x1; x2; x3 ]

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iter (fun v -> Pqueue.push q 1.0 v) [ "first"; "second"; "third" ];
  let pop () = match Pqueue.pop q with Some (_, v) -> v | None -> "?" in
  let x1 = pop () in
  let x2 = pop () in
  let x3 = pop () in
  Alcotest.(check (list string)) "insertion order on ties" [ "first"; "second"; "third" ]
    [ x1; x2; x3 ]

let test_pqueue_empty () =
  let q = Pqueue.create () in
  checkb "empty pop" true (Pqueue.pop q = None);
  checkb "empty peek" true (Pqueue.peek q = None);
  checkb "is_empty" true (Pqueue.is_empty q)

let prop_pqueue_pop_sorted =
  QCheck.Test.make ~name:"pqueue pops in priority order" ~count:200
    QCheck.(small_list (float_bound_inclusive 100.0))
    (fun priorities ->
      let q = Pqueue.create () in
      List.iteri (fun i p -> Pqueue.push q p i) priorities;
      let rec drain acc =
        match Pqueue.pop q with Some (p, _) -> drain (p :: acc) | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort compare priorities)

let prop_pqueue_length =
  QCheck.Test.make ~name:"pqueue length tracks pushes/pops" ~count:200
    QCheck.(small_list (float_bound_inclusive 10.0))
    (fun ps ->
      let q = Pqueue.create () in
      List.iter (fun p -> Pqueue.push q p ()) ps;
      let n1 = Pqueue.length q = List.length ps in
      ignore (Pqueue.pop q);
      let n2 = Pqueue.length q = max 0 (List.length ps - 1) in
      n1 && n2)

(* Random pushes, cancels (marking a queued entry dead), rebuilds that drop
   the dead, and pops, against a reference list kept sorted by (priority,
   insertion order).  Coarse priorities make ties common. *)
let prop_pqueue_filter_keeps_order =
  QCheck.Test.make ~name:"pqueue rebuild keeps pop order" ~count:300
    QCheck.(small_list (pair (int_bound 5) (int_bound 20)))
    (fun ops ->
      let q = Pqueue.create () in
      let reference = ref [] and dead = Hashtbl.create 16 and next = ref 0 in
      let live id = not (Hashtbl.mem dead id) in
      let step (op, x) =
        match op with
        | 0 | 1 | 2 ->
            let entry = (float_of_int x, !next) in
            Pqueue.push q (fst entry) (snd entry);
            incr next;
            reference := List.merge compare !reference [ entry ];
            true
        | 3 ->
            Option.iter (fun (_, id) -> Hashtbl.replace dead id ()) (List.nth_opt !reference x);
            true
        | 4 ->
            Pqueue.filter_inplace q live;
            reference := List.filter (fun (_, id) -> live id) !reference;
            Pqueue.length q = List.length !reference
        | _ -> (
            let got = Pqueue.pop q in
            match !reference with
            | [] -> got = None
            | top :: rest ->
                reference := rest;
                got = Some top)
      in
      let rec drain acc = match Pqueue.pop q with Some e -> drain (e :: acc) | None -> List.rev acc in
      List.for_all step ops && drain [] = !reference)

let test_pqueue_to_list_nondestructive () =
  let q = Pqueue.create () in
  List.iter (fun p -> Pqueue.push q p (int_of_float p)) [ 2.0; 1.0; 3.0 ];
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
    Pqueue.push q (float_of_int i) v
  done;
  (* Pop the three earliest, remove one by sequence, keep the rest. *)
  for _ = 1 to 3 do
    ignore (Sys.opaque_identity (Pqueue.pop q))
  done;
  ignore (Sys.opaque_identity (Pqueue.remove_seq q 4))

let test_pqueue_releases_departed () =
  let q = Pqueue.create () in
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
        ] );
      ( "frame",
        [
          Alcotest.test_case "pinned bytes, round trip" `Quick test_frame_pinned;
          Alcotest.test_case "field packing pinned" `Quick test_fields_pinned;
          qt prop_fields_roundtrip;
          qt prop_fields_nested_roundtrip;
          qt prop_of_fields_total;
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
          qt prop_pqueue_filter_keeps_order;
          Alcotest.test_case "to_list" `Quick test_pqueue_to_list_nondestructive;
          Alcotest.test_case "departed values are not pinned" `Quick
            test_pqueue_releases_departed;
        ] );
      ( "json",
        [
          Alcotest.test_case "sorted keys are order-independent" `Quick
            test_json_sorted_key_order_independent;
        ] );
    ]
