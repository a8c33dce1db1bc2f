type secret = Siphash.key

let secret_of_string = Siphash.key_of_string

let fresh_secret g = Siphash.key_of_int64s (Prng.bits64 g) (Prng.bits64 g)

type signature = string

let sign ?(length = 16) secret payload =
  if length < 4 || length > 32 then invalid_arg "Signing.sign: length must be in [4, 32]";
  let h1 = Siphash.hash_hex secret payload in
  if length = 16 then h1
  else if length < 16 then String.sub h1 0 length
  else
    let h2 = Siphash.hash_hex secret (h1 ^ payload) in
    h1 ^ String.sub h2 0 (length - 16)

(* The expected length must come from the verifier's configuration, never
   from the signature being checked: deriving it from the attacker-supplied
   string would let a 4-hex-char prefix of a valid signature verify against
   a service configured for 16. *)
let verify ?(length = 16) secret payload signature =
  String.length signature = length && String.equal (sign ~length secret payload) signature

module Rolling = struct
  type slot = { id : int; secret : secret }

  (* Live secrets a table holds; a roll past this retires the oldest. *)
  let capacity = 4

  type t = {
    mutable slots : slot list; (* newest first *)
    mutable next_id : int;
    prng : Prng.t;
  }

  let create prng =
    let t = { slots = []; next_id = 0; prng } in
    t.slots <- [ { id = 0; secret = fresh_secret prng } ];
    t.next_id <- 1;
    t

  let roll t =
    let slot = { id = t.next_id; secret = fresh_secret t.prng } in
    t.next_id <- t.next_id + 1;
    let keep = if List.length t.slots >= capacity then capacity - 1 else List.length t.slots in
    t.slots <- slot :: List.filteri (fun i _ -> i < keep) t.slots

  let current t =
    match t.slots with
    | s :: _ -> s
    | [] -> assert false

  let sign ?length t payload =
    let s = current t in
    Hex.of_int ~width:4 (s.id land 0xffff) ^ sign ?length s.secret payload

  (* The key id is exactly the four lowercase hex digits [sign] writes:
     a lenient parse would let several spellings ("0_00", "000A") of one
     id verify as the same signature. *)
  let verify ?length t payload signature =
    if String.length signature < 4 then false
    else
      let id = Hex.get_int signature 0 ~width:4 in
      if id < 0 then false
      else
        let body = String.sub signature 4 (String.length signature - 4) in
        match List.find_opt (fun s -> s.id land 0xffff = id) t.slots with
        | None -> false
        | Some s -> verify ?length s.secret payload body

  let generation t = t.next_id - 1
end
