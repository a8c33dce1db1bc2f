module Value = Oasis_rdl.Value
module Ast = Oasis_rdl.Ast
module Eval = Oasis_rdl.Eval
module Parser = Oasis_rdl.Parser
module Infer = Oasis_rdl.Infer
module Analyze = Oasis_rdl.Analyze
module Bitset = Oasis_util.Bitset
module Signing = Oasis_util.Signing
module Prng = Oasis_util.Prng
module Cache = Oasis_util.Cache
module Pretty = Oasis_rdl.Pretty
module Stats = Oasis_sim.Stats
module Trace = Oasis_sim.Trace
module Net = Oasis_sim.Net
module Engine = Oasis_sim.Engine
module Clock = Oasis_sim.Clock

type value = Value.t

type failure =
  | Wrong_client
  | Forged
  | Wrong_context
  | Insufficient
  | Revoked
  | Unknown_state

let pp_failure ppf f =
  Format.pp_print_string ppf
    (match f with
    | Wrong_client -> "wrong-client"
    | Forged -> "forged"
    | Wrong_context -> "wrong-context"
    | Insufficient -> "insufficient-rights"
    | Revoked -> "revoked"
    | Unknown_state -> "unknown-state")

type audit_kind = Fraud | Erroneous | Revocation_denied | Entry | Delegation | Revocation | Exit

type audit_entry = { at : float; kind : audit_kind; detail : string }

(* A compiled residual membership rule (§4.7): either a constant or a
   credential record seen through an optional negation. *)
type compiled = Const of bool | Ref of Credrec.cref * bool  (* negated *)

(* A §4.11 revoker arm: the record a fire of role instance [a_key]
   invalidates to revoke one membership, and the revoker role it answers
   to.  An exit releases the arm: a fire passes it over, and sweeps take it
   out of its cell. *)
type arm = {
  a_key : string * string;
  a_revoker : Ast.role_ref;
  a_rbr : Credrec.cref;
  mutable a_held : bool;  (* the membership can still be fired *)
}

type t = {
  sv_net : Net.t;
  sv_host : Net.host;
  sv_registry : registry;
  sv_name : string;
  sv_rolefile_id : string;
  sv_rolefile : Ast.rolefile;
  sv_sigs : Infer.result;
  sv_role_bits : (string * int) list;
  sv_secrets : Signing.Rolling.t;
  sv_compound : bool;
  sv_fixpoint : bool;
  sv_table : Credrec.table;
  sv_groups : (string, Group.t) Hashtbl.t;
  sv_funcs : (string * (value list -> (value, string) result)) list;
  sv_coherence : Coherence.t;  (* this service's links to its peers (§4.9-4.10) *)
  sv_family : (string, unit) Hashtbl.t;
      (* sibling shards of the same logical service (see {!Shard}): their
         names satisfy unqualified rolefile references, their certificates
         are accepted as revoker credentials after validation at the
         issuing sibling.  Empty for an unsharded service. *)
  (* role-based revocation state (§4.11) *)
  sv_rbr : (string * string, arm list ref) Hashtbl.t;
      (* (role, marshalled args) -> one arm per membership not yet swept *)
  sv_arms : (Credrec.cref, arm list) Hashtbl.t;
      (* issued record -> the arms of the memberships it was built from,
         which its exit releases *)
  sv_blacklist : (string * string, unit) Hashtbl.t;
  mutable sv_audit : audit_entry array;
      (* a ring of the newest [audit_capacity] entries; it grows by
         doubling until it reaches the capacity *)
  mutable sv_audited : int;  (* entries ever audited *)
  sv_sig_cache : (string, string) Cache.t;
      (* RMC payload -> the signature verified for it *)
  sv_policy_hash : int;
  sv_residuals : (string, compiled) Cache.t;
  sv_journal : Journal.t option;
      (* §4.11 databases and issued certificates on stable storage, with
         [~disk]; the blacklist it mirrors is [sv_blacklist] *)
  mutable sv_auto_recover : bool;
      (* run [recover] automatically from the host-restart hook; a replica
         group disables this and drives recovery through its epoch/promote
         protocol instead *)
  mutable sv_swept_at : int;  (* [Credrec.allocations] at the last sweep *)
  mutable sv_sweep_live : int;  (* live records the last sweep left *)
  mutable sv_on_sweep : (unit -> unit) list;
  sv_sig_hit : Stats.counter;  (* "oasis.sigcache.hit" *)
  sv_sig_miss : Stats.counter;
  sv_res_hit : Stats.counter;  (* "oasis.residual.hit" *)
  sv_res_miss : Stats.counter;
}

and registry = (string, t) Hashtbl.t

let create_registry () : registry = Hashtbl.create 16
let find_service reg n : t option = Hashtbl.find_opt reg n

let services reg =
  Hashtbl.fold (fun _ t acc -> t :: acc) reg []
  |> List.sort (fun a b -> String.compare a.sv_name b.sv_name)

let name t = t.sv_name
let host t = t.sv_host

let add_sibling t n = if not (String.equal n t.sv_name) then Hashtbl.replace t.sv_family n ()

(* A service name that unqualified rolefile references resolve to: the
   service itself, or any sibling shard of the same logical service. *)
let in_family t n = String.equal n t.sv_name || Hashtbl.mem t.sv_family n
let table t = t.sv_table
let broker t = Coherence.broker t.sv_coherence
let rolefile t = t.sv_rolefile
let registry t = t.sv_registry
let role_bits t = t.sv_role_bits
let audit_capacity = 4096

let audit_log t =
  let ring = t.sv_audit in
  let len = Array.length ring in
  List.init (min t.sv_audited len) (fun i -> ring.((t.sv_audited - 1 - i) mod len))

let now t = Clock.read (Net.host_clock t.sv_host)

let audit t kind detail =
  let e = { at = now t; kind; detail } in
  let len = Array.length t.sv_audit in
  if t.sv_audited = len && len < audit_capacity then begin
    let ring = Array.make (min audit_capacity (max 16 (2 * len))) e in
    Array.blit t.sv_audit 0 ring 0 len;
    t.sv_audit <- ring
  end
  else t.sv_audit.(t.sv_audited mod len) <- e;
  t.sv_audited <- t.sv_audited + 1

(* Every entry and exit writes one of these details, so each is rendered
   in one buffer. *)
let entered_detail client roles =
  let b = Buffer.create 64 in
  Principal.add_vci b client;
  Buffer.add_string b " entered ";
  Buffer.add_string b (String.concat "+" roles);
  Buffer.contents b

let exited_detail holder =
  let b = Buffer.create 48 in
  Principal.add_vci b holder;
  Buffer.add_string b " exited";
  Buffer.contents b

let stats t = Net.stats t.sv_net
let tracer t = Net.trace t.sv_net

(* Signature length in hex characters (§4.2's per-service trade-off). *)
let sig_length = 16

(* Verified signatures the cache holds (two-generation eviction). *)
let sig_cache_cap = 1024

(* --- the journal (see {!Journal}) --- *)

let journal t = t.sv_journal

(* Fire/re-hire acks must not outrun the journal: if the service crashed in
   the group-commit window after replying Ok, recovery would resurrect a
   membership the revoker was told is gone.  So success replies ride the
   next fsync — or, in a replica group, a write quorum; a crash that loses
   the record also swallows the ack. *)
let ack_when_durable t k = match t.sv_journal with None -> k () | Some j -> Journal.ack j k

let set_auto_recover t b = t.sv_auto_recover <- b
let reregister t = Hashtbl.replace t.sv_registry t.sv_name t

(* Root a revocation trace at an invalidation entry point: the cascade runs
   inside the span, so the record-change hooks, the buffered digest, the
   broker flush and the peers' applies all inherit its context and the span
   tree reconstructs the paper's end-to-end revocation path. *)
let with_revocation_span t ~reason f =
  let tr = tracer t in
  let sp = Trace.start tr "revoke.invalidate" in
  Trace.add_attr sp "reason" reason;
  Fun.protect
    ~finally:(fun () -> Trace.finish tr sp)
    (fun () -> Trace.with_ctx tr (Some (Trace.ctx_of sp)) f)

let invalidate_traced t ~reason cref =
  with_revocation_span t ~reason (fun () -> Credrec.invalidate t.sv_table cref);
  match t.sv_journal with Some j -> Journal.invalidate j (Credrec.marshal_ref cref) | None -> ()

let roll_secret t =
  Signing.Rolling.roll t.sv_secrets;
  Cache.clear t.sv_sig_cache

let sig_cache_size t = Cache.length t.sv_sig_cache
let residual_cache_size t = Cache.length t.sv_residuals

let group t gname =
  match Hashtbl.find_opt t.sv_groups gname with
  | Some g -> g
  | None ->
      let g = Group.create t.sv_table gname in
      Hashtbl.replace t.sv_groups gname g;
      g

(* --- signature verification with caching (§4.2) --- *)

(* The cache holds, per payload, the signature verified for it: a hit
   needs the presented signature to be that one, and any other signature
   takes the verify path. *)
let verify_rmc_sig t cert =
  let payload = Cert.rmc_payload cert in
  match Cache.find t.sv_sig_cache payload with
  | Some verified when String.equal verified cert.Cert.rmc_sig ->
      Stats.bump t.sv_sig_hit 1;
      true
  | _ ->
      Stats.bump t.sv_sig_miss 1;
      let ok = Cert.verify_rmc_payload ~length:sig_length t.sv_secrets ~payload cert in
      if ok then Cache.set t.sv_sig_cache payload cert.Cert.rmc_sig;
      ok

let roles_of_cert t cert =
  List.filter_map
    (fun (role, bit) -> if Bitset.mem bit cert.Cert.roles then Some role else None)
    t.sv_role_bits

let check_crr t cert =
  match Credrec.state t.sv_table cert.Cert.crr with
  | Credrec.True -> Ok ()
  | Credrec.False -> Error Revoked
  | Credrec.Unknown -> Error Unknown_state

(* A certificate is bound to its holder's VCI (§2.8): presented by anyone
   else, it is audited as fraud and refused. *)
let held_by t cert client =
  let held = Principal.equal_vci cert.Cert.holder client in
  if not held then
    audit t Fraud
      ("certificate of " ^ Principal.vci_to_string cert.Cert.holder ^ " presented by "
     ^ Principal.vci_to_string client);
  held

let validate t ~client ?need_role cert =
  if not (String.equal cert.Cert.service t.sv_name && String.equal cert.Cert.rolefile t.sv_rolefile_id)
  then begin
    audit t Erroneous ("certificate for " ^ cert.Cert.service ^ " presented out of context");
    Error Wrong_context
  end
  else if not (held_by t cert client) then Error Wrong_client
  else if not (verify_rmc_sig t cert) then begin
    audit t Fraud "forged or tampered certificate";
    Error Forged
  end
  else
    match need_role with
    | Some role when not (Cert.has_role ~role_bits:t.sv_role_bits cert role) ->
        audit t Erroneous ("certificate lacks role " ^ role);
        Error Insufficient
    | _ -> check_crr t cert

let validate_for_peer t cert =
  if not (String.equal cert.Cert.service t.sv_name) then Error Wrong_context
  else if not (verify_rmc_sig t cert) then Error Forged
  else
    match check_crr t cert with
    | Error e -> Error e
    | Ok () ->
        Coherence.arm t.sv_coherence cert.Cert.crr;
        Ok (roles_of_cert t cert, cert.Cert.args, cert.Cert.crr)

(* --- constraint-evaluation context --- *)

let builtin_funcs t =
  [
    ( "unixacl",
      fun args ->
        match args with
        | [ Value.Str acl; Value.Str user ] ->
            let in_group g = Group.mem (group t g) (Value.Str user) in
            Ok (Value.set_of_chars (Acl.unixacl acl ~user ~in_group))
        | _ -> Error "unixacl(acl, user) expects two strings" );
    ( "acl",
      fun args ->
        match args with
        | [ Value.Str acl_text; Value.Str full; Value.Str user ] -> (
            match Acl.parse acl_text with
            | Error e -> Error e
            | Ok acl ->
                let in_group g = Group.mem (group t g) (Value.Str user) in
                Ok (Value.set_of_chars (Acl.rights acl ~user ~in_group ~full)) )
        | _ -> Error "acl(list, full, user) expects three strings" );
  ]

let eval_ctx t =
  {
    Eval.lookup_group = (fun gname v -> Group.mem (group t gname) v);
    call =
      (fun fname args ->
        match List.assoc_opt fname (t.sv_funcs @ builtin_funcs t) with
        | Some f -> f args
        | None -> Error ("unknown extension function " ^ fname));
  }

(* --- residual membership-rule compilation (§4.7) --- *)

let rec compile_residual t env constr =
  let ctx = eval_ctx t in
  match constr with
  | Ast.Cin (e, gname) -> (
      match Eval.eval_expr ctx env e with
      | Error _ -> Const false
      | Ok v -> Ref (Group.credential (group t gname) v, false))
  | Ast.Cstar c -> compile_residual t env c
  | Ast.Cnot c -> (
      match compile_residual t env c with
      | Const b -> Const (not b)
      | Ref (r, neg) -> Ref (r, not neg))
  | Ast.Cand (a, b) -> combine_residual t env Credrec.And false [ a; b ]
  | Ast.Cor (a, b) -> combine_residual t env Credrec.Or true [ a; b ]
  | Ast.Crel _ | Ast.Csubset _ | Ast.Ccall _ | Ast.Cbind _ -> (
      (* Constant under the captured bindings: evaluate once (§3.2.3's
         "substituting in the value of all the other subexpressions"). *)
      match Eval.eval ctx env constr with
      | Ok (truth, _, _) -> Const truth
      | Error _ -> Const false)

and combine_residual t env op unit_is_true parts =
  (* [unit_is_true]: the absorbing constant for Or is true, for And false. *)
  let compiled = List.map (compile_residual t env) parts in
  let absorbing = unit_is_true in
  if List.exists (function Const b -> b = absorbing | Ref _ -> false) compiled then
    Const absorbing
  else
    let refs = List.filter_map (function Ref (r, n) -> Some (r, n) | Const _ -> None) compiled in
    match refs with
    | [] -> Const (not absorbing)
    | [ (r, n) ] -> Ref (r, n)
    | refs -> Ref (Credrec.combine t.sv_table ~op refs, false)

(* Residual compile cache.  Only "pure-record" constraints — built solely
   from [in]-tests on variables/literals under and/or/not/star — are
   cacheable: their compiled form is a record DAG whose truth tracks group
   changes dynamically, so reusing it is semantics-preserving (the group
   credential leaves are already memoised by [Group.credential]).  Anything
   involving relations, subset tests, extension calls or binds is evaluated
   per entry as before, since those evaluate to constants captured at
   compile time. *)
let pure_expr = function Ast.Elit _ | Ast.Evar _ -> true | Ast.Ecall _ -> false

let rec pure_residual = function
  | Ast.Cin (e, _) -> pure_expr e
  | Ast.Cstar c | Ast.Cnot c -> pure_residual c
  | Ast.Cand (a, b) | Ast.Cor (a, b) -> pure_residual a && pure_residual b
  | Ast.Crel _ | Ast.Csubset _ | Ast.Ccall _ | Ast.Cbind _ -> false

let residual_key t env constr =
  let vars = List.sort_uniq String.compare (Ast.constr_vars constr) in
  let binding x =
    match List.assoc_opt x env with Some v -> x ^ "=" ^ Value.marshal v | None -> x ^ "=?"
  in
  Printf.sprintf "%d|%s|%s" t.sv_policy_hash
    (Pretty.constr_to_string constr)
    (String.concat "," (List.map binding vars))

let compile_residual_cached t env constr =
  if not (pure_residual constr) then compile_residual t env constr
  else
    let key = residual_key t env constr in
    let hit =
      match Cache.find t.sv_residuals key with
      | Some (Const _ as c) -> Some c
      | Some (Ref (r, _) as c) when Credrec.live t.sv_table r -> Some c
      | _ -> None (* absent, or the record was reclaimed by GC: recompile *)
    in
    match hit with
    | Some c ->
        Stats.bump t.sv_res_hit 1;
        c
    | None ->
        Stats.bump t.sv_res_miss 1;
        let c = compile_residual t env constr in
        Cache.set t.sv_residuals key c;
        c

(* --- memberships and the entry engine (fig 3.2) --- *)

type membership = {
  m_service : string;
  m_roles : string list;
  m_args : value list;
  m_crr : Credrec.cref;
  m_fresh : bool;  (* produced during this request (eligible for compounding) *)
  m_deps : Journal.dep list;  (* durable dependencies feeding [m_crr] *)
  m_arms : arm list;  (* §4.11 revoker arms under [m_crr] *)
}

let match_args env ref_args actual =
  if List.length ref_args <> List.length actual then None
  else
    let rec go env = function
      | [] -> Some env
      | (Ast.Alit v, actual) :: rest -> if Value.equal v actual then go env rest else None
      | (Ast.Avar x, actual) :: rest -> (
          match List.assoc_opt x env with
          | Some bound -> if Value.equal bound actual then go env rest else None
          | None -> go ((x, actual) :: env) rest)
    in
    go env (List.combine ref_args actual)

let head_args_values env args =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | Ast.Alit v :: rest -> go (v :: acc) rest
    | Ast.Avar x :: rest -> (
        match List.assoc_opt x env with Some v -> go (v :: acc) rest | None -> None)
  in
  go [] args

let blacklist_key role args = (role, String.concat "\x01" (List.map Value.marshal args))

(* The §4.11 revoker arms of one role instance, created empty on first use. *)
let rbr_cell t key =
  match Hashtbl.find_opt t.sv_rbr key with
  | Some c -> c
  | None ->
      let c = ref [] in
      Hashtbl.replace t.sv_rbr key c;
      c

(* Release the arms an issued record was built from: its memberships can
   no longer be fired.  They stay in their cells until a sweep collects
   them, so a crash before it forgets their records in the order it always
   has. *)
let release_arms t crr =
  match Hashtbl.find_opt t.sv_arms crr with
  | None -> ()
  | Some arms ->
      Hashtbl.remove t.sv_arms crr;
      List.iter (fun a -> a.a_held <- false) arms

(* Enumerate the ways a statement's credential references can be matched
   against the membership list.  Single-pass (fig 3.2) semantics use only
   the first assignment; the fixpoint ablation (and the Unix legacy
   adapter, which chains UseDir rules along a path) needs them all,
   Datalog-style. *)
let enumerate_matches t memberships creds =
  let rec go env used = function
    | [] -> [ (env, List.rev used) ]
    | (role_ref : Ast.role_ref) :: rest ->
        let service_matches m =
          match role_ref.Ast.sref.Ast.service with
          | None -> in_family t m.m_service
          | Some svc -> String.equal m.m_service svc
        in
        List.concat_map
          (fun m ->
            if service_matches m && List.mem role_ref.Ast.role m.m_roles then
              match match_args env role_ref.Ast.ref_args m.m_args with
              | Some env' -> go env' ((role_ref, m) :: used) rest
              | None -> []
            else [])
          memberships
  in
  go [] [] creds

(* Complete one credential assignment into a membership: elector-argument
   unification, constraint evaluation, head-argument synthesis, blacklist
   check, and credential-record assembly (fig 4.6). *)
let complete_match t (entry : Ast.entry) dcerts (env, used) =
  let head_name, head_args = entry.Ast.head in
  let env =
    List.fold_left
      (fun acc d ->
        match (acc, entry.Ast.elector) with
        | None, _ | _, None -> acc
        | Some env, Some er ->
            if not (String.equal er.Ast.role d.Cert.d_delegator_role) then None
            else if er.Ast.ref_args = [] then Some env
            else match_args env er.Ast.ref_args d.Cert.d_delegator_args)
      (Some env) dcerts
  in
  match env with
  | None -> None
  | Some env -> (
      let constraint_result =
        match entry.Ast.constr with
        | None -> Some (env, [])
        | Some c -> (
            match Eval.eval (eval_ctx t) env c with
            | Ok (true, env', mrules) -> Some (env', mrules)
            | Ok (false, _, _) | Error _ -> None)
      in
      match constraint_result with
      | None -> None
      | Some (env, mrules) -> (
          match head_args_values env head_args with
          | None -> None
          | Some args ->
              if
                entry.Ast.revoker <> None
                && Hashtbl.mem t.sv_blacklist (blacklist_key head_name args)
              then None (* negated Revoked(instance) fails (§3.3.2) *)
              else begin
                (* Assemble membership-rule parents (fig 4.6).  Durable
                   dependencies and revoker arms propagate from the starred
                   credentials actually used, so an eventually-issued
                   certificate's log record names every persisted fact its
                   validity hangs on. *)
                let parents = ref [] in
                let deps = ref [] in
                let arms = ref [] in
                List.iter
                  (fun ((role_ref : Ast.role_ref), m) ->
                    if role_ref.Ast.starred then begin
                      parents := (m.m_crr, false) :: !parents;
                      deps := m.m_deps @ !deps;
                      arms := m.m_arms @ !arms
                    end)
                  used;
                List.iter
                  (fun d ->
                    if entry.Ast.elect_starred then parents := (d.Cert.d_crr, false) :: !parents;
                    match entry.Ast.elector with
                    | Some er when er.Ast.starred ->
                        parents := (d.Cert.d_delegator_crr, false) :: !parents
                    | _ -> ())
                  dcerts;
                List.iter
                  (fun (mr : Eval.mrule) ->
                    match compile_residual_cached t mr.Eval.bindings mr.Eval.residual with
                    | Const true -> ()
                    | Const false ->
                        (* A membership rule already false: represent it
                           with a permanently-false parent. *)
                        parents :=
                          (Credrec.leaf t.sv_table ~state:Credrec.False (), false) :: !parents
                    | Ref (r, neg) -> parents := (r, neg) :: !parents)
                  mrules;
                (* Role-based revocation arms its own record (fig 4.9). *)
                (match entry.Ast.revoker with
                | None -> ()
                | Some revoker ->
                    let rbr = Credrec.leaf t.sv_table ~state:Credrec.True () in
                    Credrec.set_direct_use t.sv_table rbr true;
                    parents := (rbr, false) :: !parents;
                    let arm =
                      {
                        a_key = blacklist_key head_name args;
                        a_revoker = revoker;
                        a_rbr = rbr;
                        a_held = true;
                      }
                    in
                    let cell = rbr_cell t arm.a_key in
                    cell := arm :: !cell;
                    arms := arm :: !arms);
                let crr =
                  match !parents with
                  | [] -> Credrec.combine t.sv_table []
                  | parents -> Credrec.combine t.sv_table parents
                in
                Some
                  {
                    m_service = t.sv_name;
                    m_roles = [ head_name ];
                    m_args = args;
                    m_crr = crr;
                    m_fresh = true;
                    m_deps = !deps;
                    m_arms = !arms;
                  }
              end))

(* Try to apply one entry statement given current memberships.  In
   single-pass mode the first suitable credential assignment yields at most
   one membership (fig 3.2); with [all_matches] every distinct assignment
   is completed. *)
let apply_statement t ~delegation ~deleg_required_ok ~all_matches (entry : Ast.entry) memberships
    =
  let head_name, _ = entry.Ast.head in
  (* Election statements only fire when a matching delegation certificate
     accompanies the request (§4.4: separate entry paths). *)
  let delegation_ok =
    match entry.Ast.elector with
    | None -> Some []
    | Some _ -> (
        match delegation with
        | Some d
          when String.equal d.Cert.d_role head_name
               && String.equal d.Cert.d_service t.sv_name
               && deleg_required_ok ->
            if Credrec.state t.sv_table d.Cert.d_crr = Credrec.True then Some [ d ] else None
        | _ -> None)
  in
  match delegation_ok with
  | None -> []
  | Some dcerts ->
      let assignments = enumerate_matches t memberships entry.Ast.creds in
      if all_matches then List.filter_map (complete_match t entry dcerts) assignments
      else
        (* First suitable assignment only (fig 3.2). *)
        let rec first = function
          | [] -> []
          | a :: rest -> (
              match complete_match t entry dcerts a with
              | Some m -> [ m ]
              | None -> first rest)
        in
        first assignments

let run_entry_engine t ~delegation ~deleg_required_ok ~initial =
  Trace.with_span (tracer t) "rdl.entry" @@ fun () ->
  let memberships = ref initial in
  let have m =
    List.exists
      (fun m' ->
        String.equal m'.m_service m.m_service
        && m'.m_roles = m.m_roles
        && List.length m'.m_args = List.length m.m_args
        && List.for_all2 Value.equal m'.m_args m.m_args)
      !memberships
  in
  let pass ~all_matches =
    let produced = ref false in
    List.iter
      (fun entry ->
        List.iter
          (fun m ->
            (* In single-pass mode duplicates cannot arise (each statement
               fires once); in fixpoint mode they must not count as
               progress or the loop never converges. *)
            if not (all_matches && have m) then begin
              memberships := !memberships @ [ m ];
              produced := true
            end)
          (apply_statement t ~delegation ~deleg_required_ok ~all_matches entry !memberships))
      (Ast.entries t.sv_rolefile);
    !produced
  in
  if t.sv_fixpoint then begin
    (* Fixpoint mode: iterate with full credential enumeration until no new
       membership appears (bounded).  Needed for recursive rule sets such
       as the Unix directory rules of section 3.3.3. *)
    let rec loop n = if n > 0 && pass ~all_matches:true then loop (n - 1) in
    loop 16
  end
  else ignore (pass ~all_matches:false);
  !memberships

(* --- certificate issue --- *)

(* Journal the issue: the record's identity plus what it depends on, so
   recovery can re-materialise the backing subgraph. *)
let issue_cert t ?(deps = []) ?(arms = []) ~client ~roles ~args ~crr () =
  Credrec.set_direct_use t.sv_table crr true;
  (match t.sv_journal with
  | Some j ->
      let rbrs = List.map (fun a -> (fst a.a_key, snd a.a_key, a.a_revoker.Ast.role)) arms in
      Journal.issue j ~key:(Credrec.marshal_ref crr) ~deps ~rbrs
  | None -> ());
  if arms <> [] then Hashtbl.replace t.sv_arms crr arms;
  let bits =
    List.fold_left
      (fun acc role ->
        match List.assoc_opt role t.sv_role_bits with
        | Some bit -> Bitset.add bit acc
        | None -> acc)
      Bitset.empty roles
  in
  let cert =
    {
      Cert.holder = client;
      service = t.sv_name;
      rolefile = t.sv_rolefile_id;
      roles = bits;
      args;
      crr;
      issued_at = now t;
      rmc_sig = "";
    }
  in
  Cert.sign_rmc t.sv_secrets ~length:sig_length cert

(* Sequentially run an async action over a list. *)
let rec seq_map f list k =
  match list with
  | [] -> k []
  | x :: rest -> f x (fun y -> seq_map f rest (fun ys -> k (y :: ys)))

(* Check a certificate at its issuing service over the validation RPC
   (§2.10), then mirror its credential record here as an external record
   (see {!Coherence.validate_at}).  The service's own callers retry: a
   dropped reply would reject a perfectly good credential, and
   [validate_for_peer] is idempotent (the Modified-notification arm is
   guarded).  Their budget is kept short (~7.5 s worst case at 3
   attempts): validation gates a decision, which must still fail closed
   promptly when the issuer is genuinely unreachable (§4.2).  A failure is
   formatted only on its error branch: formatting allocates a formatter,
   which every validation would pay. *)
let validate_at_issuer t issuer ~category ~attempts (cert : Cert.rmc) k =
  Coherence.validate_at t.sv_coherence ~issuer:issuer.sv_coherence ~category ~attempts
    (fun reply ->
      match validate_for_peer issuer cert with
      | Ok r -> reply (Ok r)
      | Error f -> reply (Error (Format.asprintf "%a" pp_failure f)))
    k

(* Validate one credential [client] supplied, local or external, producing
   a membership (or None, with audit).  One issued to another client is
   refused before any validation RPC goes out. *)
let validate_credential t ~client (cert : Cert.rmc) k =
  if not (held_by t cert client) then k None
  else if String.equal cert.Cert.service t.sv_name then
    (* Local certificate: direct validation. *)
    if not (verify_rmc_sig t cert) then begin
      audit t Fraud "forged local credential in entry request";
      k None
    end
    else (
      match check_crr t cert with
      | Error _ -> k None
      | Ok () ->
          k
            (Some
               {
                 m_service = t.sv_name;
                 m_roles = roles_of_cert t cert;
                 m_args = cert.Cert.args;
                 m_crr = cert.Cert.crr;
                 m_fresh = false;
                 m_deps = [ Journal.Loc (Credrec.marshal_ref cert.Cert.crr) ];
                 m_arms = [];
               }))
  else
    (* External certificate: checked at its issuer, mirrored locally. *)
    match find_service t.sv_registry cert.Cert.service with
    | None ->
        audit t Erroneous ("credential from unknown service " ^ cert.Cert.service);
        k None
    | Some issuer ->
        validate_at_issuer t issuer ~category:"oasis.validate" ~attempts:3 cert (function
          | Error _ -> k None
          | Ok (roles, args, remote_ref, local) ->
              (* The surrogate is a childless leaf until the request
                 combines it, which a sweep would take for garbage while
                 the request's later credentials are checked. *)
              Credrec.pin t.sv_table local;
              k
                (Some
                   {
                     m_service = cert.Cert.service;
                     m_roles = roles;
                     m_args = args;
                     m_crr = local;
                     m_fresh = false;
                     m_deps = [ Journal.Ext (cert.Cert.service, Credrec.marshal_ref remote_ref) ];
                     m_arms = [];
                   }))

let delegation_required_ok t (d : Cert.delegation) memberships =
  (* Every required (service, role, args) must be covered by a validated
     membership; Str "*" arguments are wildcards. *)
  List.for_all
    (fun (svc, role, req_args) ->
      List.exists
        (fun m ->
          String.equal m.m_service svc && List.mem role m.m_roles
          && List.length req_args = List.length m.m_args
          && List.for_all2
               (fun req actual ->
                 match req with Value.Str "*" -> true | v -> Value.equal v actual)
               req_args m.m_args)
        memberships)
    d.Cert.d_required

(* The envelope of a client's request: the request travels to the
   service's host under [category] and [size], where [handler] runs with a
   [reply] that carries the answer back under [reply_category] and
   [reply_size]. *)
let client_request t ~client_host (category, size) (reply_category, reply_size) handler k =
  Net.send t.sv_net ~category ~size ~src:client_host ~dst:t.sv_host (fun () ->
      handler (fun result ->
          Net.send t.sv_net ~category:reply_category ~size:reply_size ~src:t.sv_host
            ~dst:client_host (fun () -> k result)))

let request_entry t ~client_host ~client ~role ?args ?(creds = []) ?delegation k =
  (* Client -> service request, then async validation of each credential. *)
  client_request t ~client_host
    ("oasis.entry", 128 + (96 * List.length creds))
    ("oasis.entry.reply", 160)
    (fun send_reply ->
      seq_map (validate_credential t ~client) creds (fun validated ->
          let initial = List.filter_map Fun.id validated in
          let reply result =
            (* The external surrogates [validate_credential] pinned now
               feed the new membership's record, or nothing. *)
            List.iter
              (fun m ->
                if not (String.equal m.m_service t.sv_name) then Credrec.unpin t.sv_table m.m_crr)
              initial;
            send_reply result
          in
          (* Delegation certificate checks (§4.4). *)
          let delegation_checked =
            match delegation with
            | None -> Ok None
            | Some d ->
                if not (String.equal d.Cert.d_service t.sv_name) then Error "delegation for another service"
                else if not (Cert.verify_delegation ~length:sig_length t.sv_secrets d) then
                  Error "bad delegation signature"
                else (
                  match d.Cert.d_expires with
                  | Some e when now t > e -> Error "delegation expired"
                  | _ -> Ok (Some d))
          in
          match delegation_checked with
          | Error e -> reply (Error e)
          | Ok delegation -> (
              let deleg_required_ok =
                match delegation with
                | None -> true
                | Some d -> delegation_required_ok t d initial
              in
              let memberships =
                run_entry_engine t ~delegation ~deleg_required_ok ~initial
              in
              (* First suitable membership (fig 3.2). *)
              let suitable m =
                String.equal m.m_service t.sv_name
                && List.mem role m.m_roles
                &&
                match args with
                | None -> true
                | Some want ->
                    List.length want = List.length m.m_args
                    && List.for_all2 Value.equal want m.m_args
              in
              match List.find_opt suitable memberships with
              | None ->
                  audit t Erroneous
                    (Printf.sprintf "entry to %s denied for %s" role
                       (Principal.vci_to_string client));
                  reply (Error ("entry to role " ^ role ^ " denied"))
              | Some chosen ->
                  (* Compound certificate: fold in other fresh local roles
                     with identical arguments (§4.3). *)
                  let companions =
                    if t.sv_compound then
                      List.filter
                        (fun m ->
                          m.m_fresh && m != chosen
                          && String.equal m.m_service t.sv_name
                          && List.length m.m_args = List.length chosen.m_args
                          && List.for_all2 Value.equal m.m_args chosen.m_args)
                        memberships
                    else []
                  in
                  let roles = List.concat_map (fun m -> m.m_roles) (chosen :: companions) in
                  let crr =
                    match companions with
                    | [] -> chosen.m_crr
                    | _ ->
                        Credrec.combine t.sv_table
                          (List.map (fun m -> (m.m_crr, false)) (chosen :: companions))
                  in
                  let cert =
                    issue_cert t
                      ~deps:(List.concat_map (fun m -> m.m_deps) (chosen :: companions))
                      ~arms:(List.concat_map (fun m -> m.m_arms) (chosen :: companions))
                      ~client ~roles ~args:chosen.m_args ~crr ()
                  in
                  audit t Entry (entered_detail client roles);
                  reply (Ok cert))))
    k

(* --- delegation (§4.4) --- *)

(* A delegation's own credential record and the revocation certificate
   that kills it: tied to the delegator's record when [revoke_on_exit],
   invalidated [expire_after] seconds from now when given. *)
let mint_delegation t ~delegator_crr ~revoker_role ~revoke_on_exit ~expire_after =
  let d_crr =
    if revoke_on_exit then Credrec.combine_fresh t.sv_table [ (delegator_crr, false) ]
    else Credrec.leaf t.sv_table ()
  in
  Credrec.set_direct_use t.sv_table d_crr true;
  Option.iter
    (fun delay ->
      Engine.schedule (Net.engine t.sv_net) ~delay (fun () ->
          invalidate_traced t ~reason:"expire" d_crr))
    expire_after;
  let r =
    {
      Cert.r_service = t.sv_name;
      r_role = revoker_role;
      r_delegator_crr = delegator_crr;
      r_target_crr = d_crr;
      r_sig = "";
    }
  in
  (d_crr, Cert.sign_revocation t.sv_secrets ~length:sig_length r)

let election_statements t role =
  List.filter
    (fun (e : Ast.entry) -> fst e.Ast.head = role && e.Ast.elector <> None)
    (Ast.entries t.sv_rolefile)

let request_delegation t ~client_host ~delegator ~using ~role ~required ?expires_in
    ?(revoke_on_exit = false) k =
  client_request t ~client_host ("oasis.delegate", 160) ("oasis.delegate.reply", 200)
    (fun reply ->
      (* The delegator must hold an elector role for some election statement
         defining [role]. *)
      match validate t ~client:delegator using with
      | Error f -> reply (Error (Format.asprintf "delegator credential: %a" pp_failure f))
      | Ok () -> (
          let holder_roles = roles_of_cert t using in
          let statement_ok (e : Ast.entry) =
            match e.Ast.elector with
            | Some er -> (
                (* The elector reference must be a local role the delegator
                   holds; argument constraints are checked against the
                   delegator's certificate arguments. *)
                er.Ast.sref.Ast.service = None
                && List.mem er.Ast.role holder_roles
                &&
                match match_args [] er.Ast.ref_args using.Cert.args with
                | Some _ -> true
                | None -> er.Ast.ref_args = [])
            | None -> false
          in
          match List.find_opt statement_ok (election_statements t role) with
          | None ->
              audit t Revocation_denied ("delegation of " ^ role ^ " refused");
              reply (Error ("no election statement permits delegating " ^ role))
          | Some chosen_statement -> (
            match chosen_statement.Ast.elector with
            | None ->
                (* A matched statement without an elector cannot name the
                   delegator's role.  This request arrives off the wire, so
                   a malformed shape must be answered with a protocol error
                   — crashing the whole host here would let any client take
                   the service down. *)
                audit t Erroneous
                  ("delegation request for " ^ role ^ " matched a statement with no elector");
                reply (Error ("statement defining " ^ role ^ " has no elector"))
            | Some er ->
              let delegator_role = er.Ast.role in
              let expires = Option.map (fun dt -> now t +. dt) expires_in in
              let d_crr, r =
                mint_delegation t ~delegator_crr:using.Cert.crr ~revoker_role:delegator_role
                  ~revoke_on_exit
                  ~expire_after:(Option.map (fun at -> max 0.0 (at -. now t)) expires)
              in
              let d =
                {
                  Cert.d_service = t.sv_name;
                  d_rolefile = t.sv_rolefile_id;
                  d_role = role;
                  d_required = required;
                  d_crr;
                  d_delegator_crr = using.Cert.crr;
                  d_delegator_role = delegator_role;
                  d_delegator_args = using.Cert.args;
                  d_expires = expires;
                  d_sig = "";
                }
              in
              let d = Cert.sign_delegation t.sv_secrets ~length:sig_length d in
              audit t Delegation
                (Printf.sprintf "%s delegated %s" (Principal.vci_to_string delegator) role);
              reply (Ok (d, r)))))
    k

let request_revocation t ~client_host (rcert : Cert.revocation) k =
  client_request t ~client_host ("oasis.revoke", 96) ("oasis.revoke.reply", 32)
    (fun reply ->
      if not (String.equal rcert.Cert.r_service t.sv_name) then
        reply (Error "revocation certificate for another service")
      else if not (Cert.verify_revocation ~length:sig_length t.sv_secrets rcert) then begin
        audit t Fraud "forged revocation certificate";
        reply (Error "bad revocation signature")
      end
      else if Credrec.state t.sv_table rcert.Cert.r_delegator_crr <> Credrec.True then begin
        (* fig 4.3: the delegator must still be a member of the delegating
           role to revoke. *)
        audit t Revocation_denied "revoker no longer holds the delegating role";
        reply (Error "revoker no longer holds the delegating role")
      end
      else begin
        invalidate_traced t ~reason:"revoke" rcert.Cert.r_target_crr;
        audit t Revocation "delegation revoked";
        reply (Ok ())
      end)
    k

let exit_role t ~client_host (cert : Cert.rmc) k =
  client_request t ~client_host ("oasis.exit", 96) ("oasis.exit.reply", 32)
    (fun reply ->
      if not (verify_rmc_sig t cert) then reply (Error "bad certificate")
      else begin
        invalidate_traced t ~reason:"exit" cert.Cert.crr;
        release_arms t cert.Cert.crr;
        audit t Exit (exited_detail cert.Cert.holder);
        reply (Ok ())
      end)
    k

(* --- role-based revocation (§4.11) --- *)

let revoker_matches t (revoker_ref : Ast.role_ref) (cert : Cert.rmc) =
  revoker_ref.Ast.sref.Ast.service = None
  && Cert.has_role ~role_bits:t.sv_role_bits cert revoker_ref.Ast.role

(* Does the rolefile give [revoker]'s holder the right to fire [role]? *)
let may_revoke t ~role revoker =
  List.exists
    (fun (e : Ast.entry) ->
      fst e.Ast.head = role
      && match e.Ast.revoker with Some r -> revoker_matches t r revoker | None -> false)
    (Ast.entries t.sv_rolefile)

(* Validate a fire/re-hire revoker credential, which may have been issued
   by a sibling shard of the same logical service (see {!Shard}).  Sibling
   certificates are checked at their issuer over the reliable validation
   RPC (§2.10) and mirrored here as external records, so the revocation
   right is judged against the issuer's own signature and live credential
   state — never against this shard's table, whose record refs the
   sibling's (index, magic) pairs would silently alias. *)
let validate_revoker t (revoker : Cert.rmc) k =
  if String.equal revoker.Cert.service t.sv_name then
    match validate t ~client:revoker.Cert.holder revoker with
    | Error f -> k (Error (Format.asprintf "%a" pp_failure f))
    | Ok () -> k (Ok ())
  else if not (Hashtbl.mem t.sv_family revoker.Cert.service) then begin
    audit t Erroneous
      ("revoker certificate for " ^ revoker.Cert.service ^ " presented out of context");
    k (Error (Format.asprintf "%a" pp_failure Wrong_context))
  end
  else
    match find_service t.sv_registry revoker.Cert.service with
    | None -> k (Error ("unknown sibling shard " ^ revoker.Cert.service))
    | Some issuer ->
        validate_at_issuer t issuer ~category:"oasis.validate" ~attempts:3 revoker (fun r ->
            k (Result.map ignore r))

let revoke_role_instance t ~client_host ~revoker ~role ~args k =
  client_request t ~client_host ("oasis.rbr", 128) ("oasis.rbr.reply", 32)
    (fun reply ->
      validate_revoker t revoker (function
      | Error e -> reply (Error ("revoker credential: " ^ e))
      | Ok () -> (
          let key = blacklist_key role args in
          (* No live membership is armed for this revoker: the right is
             judged against the rolefile, and the instance is blacklisted
             even though nothing is revoked. *)
          let blacklist_unarmed () =
            Hashtbl.replace t.sv_blacklist key ();
            (match t.sv_journal with Some j -> Journal.fire j key | None -> ());
            audit t Revocation (role ^ "() blacklisted");
            ack_when_durable t (fun () -> reply (Ok 0))
          in
          match Hashtbl.find_opt t.sv_rbr key with
          | None ->
              if may_revoke t ~role revoker then blacklist_unarmed ()
              else reply (Error "no revocation right for this role")
          | Some cell ->
              let eligible, rest =
                List.partition (fun a -> a.a_held && revoker_matches t a.a_revoker revoker) !cell
              in
              if eligible = [] then begin
                (* Nothing armed for this revoker.  A RETRY of a fire that
                   already committed (the first attempt emptied the cell
                   and blacklisted the key, then its ack was lost to a
                   crash or a dropped reply) is idempotent success, acked
                   durably like the original: the ack waits out any
                   still-pending group commit.  Otherwise the fire is
                   judged as in the no-membership branch; a cell a fire
                   emptied before a re-hire is dropped. *)
                if not (may_revoke t ~role revoker) then reply (Error "revoker role does not match")
                else if Hashtbl.mem t.sv_blacklist key then
                  ack_when_durable t (fun () -> reply (Ok 0))
                else begin
                  if !cell = [] then Hashtbl.remove t.sv_rbr key;
                  blacklist_unarmed ()
                end
              end
              else begin
                with_revocation_span t ~reason:"role" (fun () ->
                    List.iter (fun a -> Credrec.invalidate t.sv_table a.a_rbr) eligible);
                (* The F record alone is not durable evidence of these
                   deaths: a later re-hire removes the blacklist entry, and
                   recovery would then re-arm the revoker records and
                   resurrect the fired memberships.  Persist the death of
                   each issued record the cascade just killed. *)
                (match t.sv_journal with
                | None -> ()
                | Some j ->
                    List.iter
                      (fun issued ->
                        match Credrec.unmarshal_ref issued with
                        | Some cref when Credrec.state t.sv_table cref = Credrec.False ->
                            Journal.invalidate j issued
                        | _ -> ())
                      (Journal.live_issued j));
                cell := List.filter (fun a -> a.a_held) rest;
                Hashtbl.replace t.sv_blacklist key ();
                (match t.sv_journal with Some j -> Journal.fire j key | None -> ());
                audit t Revocation
                  (Printf.sprintf "%d membership(s) of %s revoked by role" (List.length eligible)
                     role);
                ack_when_durable t (fun () -> reply (Ok (List.length eligible)))
              end)))
    k

let reinstate_role_instance t ~client_host ~revoker ~role ~args k =
  client_request t ~client_host ("oasis.rbr", 128) ("oasis.rbr.reply", 32)
    (fun reply ->
      validate_revoker t revoker (function
      | Error e -> reply (Error ("revoker credential: " ^ e))
      | Ok () ->
          if not (may_revoke t ~role revoker) then reply (Error "no revocation right for this role")
          else begin
            Hashtbl.remove t.sv_blacklist (blacklist_key role args);
            (match t.sv_journal with
            | Some j -> Journal.hire j (blacklist_key role args)
            | None -> ());
            ack_when_durable t (fun () -> reply (Ok ()))
          end))
    k

(* --- interworking (§4.12) --- *)

let issue_arbitrary t ~client ~roles ~args =
  let crr = Credrec.leaf t.sv_table () in
  issue_cert t ~client ~roles ~args ~crr ()

let issue_with_record t ~client ~roles ~args ~crr = issue_cert t ~client ~roles ~args ~crr ()

let import_remote_record t ~peer ~remote =
  Coherence.mirror t.sv_coherence ~peer ~remote ~initial:Credrec.True

let mint_delegation_record t ~delegator_crr ?expires_in ?(revoke_on_exit = false) () =
  mint_delegation t ~delegator_crr ~revoker_role:"" ~revoke_on_exit ~expire_after:expires_in

let revoke_certificate t (cert : Cert.rmc) =
  invalidate_traced t ~reason:"certificate" cert.Cert.crr

(* Delegating the right to revoke (§4.4): a special delegation that passes a
   revocation certificate on, under the fixed policy that the recipient must
   themselves be a member of the elector role. *)
let delegate_revocation t ~client_host ~rcert ~to_cert k =
  client_request t ~client_host ("oasis.redelegate", 128) ("oasis.redelegate.reply", 160)
    (fun reply ->
      if not (String.equal rcert.Cert.r_service t.sv_name) then
        reply (Error "revocation certificate for another service")
      else if not (Cert.verify_revocation ~length:sig_length t.sv_secrets rcert) then
        reply (Error "bad revocation signature")
      else if String.equal rcert.Cert.r_role "" then
        reply (Error "this revocation certificate cannot be re-delegated")
      else if not (verify_rmc_sig t to_cert) then reply (Error "bad candidate certificate")
      else if not (Cert.has_role ~role_bits:t.sv_role_bits to_cert rcert.Cert.r_role) then begin
        (* The fixed policy of §4.4. *)
        audit t Revocation_denied
          ("revocation right refused: candidate does not hold " ^ rcert.Cert.r_role);
        reply (Error ("candidate must hold the " ^ rcert.Cert.r_role ^ " role"))
      end
      else begin
        let fresh =
          {
            Cert.r_service = t.sv_name;
            r_role = rcert.Cert.r_role;
            r_delegator_crr = to_cert.Cert.crr;
            r_target_crr = rcert.Cert.r_target_crr;
            r_sig = "";
          }
        in
        audit t Delegation ("revocation right re-delegated for role " ^ rcert.Cert.r_role);
        reply (Ok (Cert.sign_revocation t.sv_secrets ~length:sig_length fresh))
      end)
    k

(* --- crash recovery (the restart hook registered by [create]) --- *)

(* Replay the journal and re-materialise the credential-record subgraph
   backing issued certificates:

   1. Rebuild the journal's mirror (blacklist + issued table) from the
      snapshot, then the whole log ({!Journal.replay}).
   2. Restore EVERY persisted record identity (alive and dead) before any
      fresh allocation, so a fresh record can never mint an (index, magic)
      pair colliding with a reference embedded in an outstanding
      certificate.
   3. Re-attach what each record's validity hangs on: local dependency
      parents (dangling ones read permanently False — certificates whose
      issue record was lost with the unsynced tail fail closed), external
      surrogates re-mirrored at Unknown and healed by the §4.10 reread
      machinery, and §4.11 revoker arms — re-armed, or invalidated
      outright when the instance is blacklisted.

   The whole pass is charged the device's scan time for the durable bytes
   read and traced as one [oasis.recover.e2e] span. *)
let recover ?on_done t =
  match t.sv_journal with
  | None -> Option.iter (fun k -> k ()) on_done
  | Some j ->
      let tr = tracer t in
      let sp = Trace.start tr "oasis.recover.e2e" in
      Trace.add_attr sp "bytes" (string_of_int (Journal.stored_bytes j));
      let t0 = Engine.now (Net.engine t.sv_net) in
      Engine.schedule (Net.engine t.sv_net) ~delay:(Journal.scan_delay j) (fun () ->
          let up = Net.host_up t.sv_net t.sv_host in
          (if up then
             Trace.with_ctx tr
               (Some (Trace.ctx_of sp))
               (fun () ->
                 let replayed = Journal.replay j in
                 let issued =
                   List.filter_map
                     (fun key -> Option.map (fun cref -> (key, cref)) (Credrec.unmarshal_ref key))
                     (Journal.issued_keys j)
                 in
                 (* A swept slot is reused under a higher magic, so only the
                    newest identity at an index can still be live. *)
                 let newest = Hashtbl.create 64 in
                 List.iter
                   (fun (_, (cref : Credrec.cref)) ->
                     match Hashtbl.find_opt newest cref.index with
                     | Some m when m >= cref.magic -> ()
                     | _ -> Hashtbl.replace newest cref.index cref.magic)
                   issued;
                 let restored =
                   List.filter
                     (fun (_, (cref : Credrec.cref)) ->
                       Hashtbl.find newest cref.index = cref.magic
                       && Credrec.restore t.sv_table cref)
                     issued
                 in
                 List.iter
                   (fun (_, cref) ->
                     Credrec.set_direct_use t.sv_table cref true;
                     Coherence.arm t.sv_coherence cref)
                   restored;
                 List.iter
                   (fun (key, cref) ->
                     match Journal.lookup j key with
                     | None ->
                         (* The mirror lost this record between the restore
                            scan and re-attachment (a crash racing the
                            delayed recovery closure can do this).  Fail
                            safe — the orphaned slot reads False — and
                            audit instead of raising out of the engine. *)
                         audit t Erroneous ("recovery: issued record vanished: " ^ key);
                         Credrec.invalidate t.sv_table cref
                     | Some Journal.Dead -> Credrec.invalidate t.sv_table cref
                     | Some (Journal.Live (deps, rbrs)) ->
                         List.iter
                           (fun dep ->
                             match dep with
                             | Journal.Loc dkey -> (
                                 match Credrec.unmarshal_ref dkey with
                                 | Some dref -> Credrec.add_parent t.sv_table ~child:cref dref
                                 | None -> ())
                             | Journal.Ext (peer_name, rkey) -> (
                                 match Credrec.unmarshal_ref rkey with
                                 | None -> ()
                                 | Some remote_ref ->
                                     let local =
                                       Coherence.mirror t.sv_coherence ~peer:peer_name
                                         ~remote:remote_ref ~initial:Credrec.Unknown
                                     in
                                     Credrec.add_parent t.sv_table ~child:cref local))
                           deps;
                         let arms =
                           List.filter_map
                             (fun (role, argskey, revoker_role) ->
                               let rbr = Credrec.leaf t.sv_table ~state:Credrec.True () in
                               Credrec.set_direct_use t.sv_table rbr true;
                               Credrec.add_parent t.sv_table ~child:cref rbr;
                               if Hashtbl.mem t.sv_blacklist (role, argskey) then begin
                                 Credrec.invalidate t.sv_table rbr;
                                 None
                               end
                               else
                                 let revoker_ref =
                                   {
                                     Ast.sref = Ast.local_service;
                                     role = revoker_role;
                                     ref_args = [];
                                     starred = false;
                                   }
                                 in
                                 let arm =
                                   {
                                     a_key = (role, argskey);
                                     a_revoker = revoker_ref;
                                     a_rbr = rbr;
                                     a_held = true;
                                   }
                                 in
                                 let cell = rbr_cell t arm.a_key in
                                 cell := arm :: !cell;
                                 Some arm)
                             rbrs
                         in
                         if arms <> [] then Hashtbl.replace t.sv_arms cref arms)
                   restored;
                 (* Kick the reread machinery: every re-mirrored external is
                    Unknown until its issuer answers (§4.10). *)
                 Coherence.resync_all t.sv_coherence;
                 Stats.incr (stats t) "oasis.recover";
                 Stats.observe (stats t) "oasis.recover.records" replayed));
          Trace.finish tr sp;
          Stats.observe_latency (stats t) "oasis.recover.e2e"
            (Engine.now (Net.engine t.sv_net) -. t0);
          (* The completion hook only fires when the replay actually ran: a
             crash racing the delayed closure aborts the recovery, and the
             caller (a replica promotion) must not treat it as finished. *)
          if up then Option.iter (fun k -> k ()) on_done)

(* --- creation --- *)

let assign_role_bits rolefile =
  let from_entries = Ast.defined_roles rolefile in
  let from_defs = List.map (fun d -> d.Ast.decl_name) (Ast.defs rolefile) in
  let all = List.sort_uniq String.compare (from_entries @ from_defs) in
  (* Deterministic mapping fixed at initialisation (§4.3). *)
  if List.length all > 62 then Error "too many roles for the role bit-set (max 62)"
  else Ok (List.mapi (fun i r -> (r, i)) all)

(* The registration gate: the per-rolefile analyzer, plus — when the
   service joins the registry — the federation-wide codes (OASIS001-008)
   over the registered peers and this service, keeping only the
   diagnostics anchored here: joining must not fail on a defect that is a
   peer's alone.  Errors gate; warnings are logged. *)
let lint_gate reg ~name ~register ~funcs ~callbacks parsed =
  let context =
    {
      Analyze.default_context with
      Analyze.infer = callbacks;
      known_funcs = Some (List.map fst funcs @ [ "unixacl"; "acl" ]);
    }
  in
  let diags = Analyze.check ~file:name ~context parsed in
  let diags =
    if register then
      let member name rolefile =
        { Federation_lint.fl_name = name; fl_file = name; fl_rolefile = rolefile }
      in
      let federation =
        Federation_lint.make
          (List.map (fun s -> member s.sv_name s.sv_rolefile) (services reg)
          @ [ member name parsed ])
      in
      diags
      @ List.filter
          (fun d -> String.equal d.Analyze.file name)
          (Federation_lint.check federation)
    else diags
  in
  match Analyze.errors diags with
  | [] ->
      (* Non-gating findings are logged, not fatal. *)
      List.iter (fun d -> Logs.warn (fun m -> m "%s" (Analyze.diag_to_string d))) diags;
      Ok ()
  | d :: rest ->
      Error
        (Printf.sprintf "lint: %s%s" (Analyze.diag_to_string d)
           (match List.length rest with
           | 0 -> ""
           | n -> Printf.sprintf " (and %d more issue(s))" n))

(* --- the §4.8 sweep, in service ---

   A sweep frees the records that can no longer change an observable
   answer ({!Credrec.gc_sweep}); then everything keyed by a freed record
   lets go of it.  The heartbeat tick runs one once the records allocated
   since the last sweep reach what that sweep left alive, and never before
   [sweep_floor] of them: the same amortized cadence as journal
   checkpoints, so sweep work per allocation stays bounded whatever the
   live set.  No world below the floor ever sweeps. *)
let sweep_floor = 4096

let sweep t =
  let table = t.sv_table in
  (* Nothing live hangs on a released arm.  Frozen, and no longer held up
     by its cell, its record goes in this very sweep, with its dead
     membership's: freezing unlinks it from its children first, without
     the cascade a revocation would run. *)
  Hashtbl.iter
    (fun _ cell ->
      List.iter
        (fun a ->
          if not a.a_held then begin
            Credrec.make_permanent table a.a_rbr;
            Credrec.set_direct_use table a.a_rbr false
          end)
        !cell)
    t.sv_rbr;
  let freed = Credrec.gc_sweep table in
  let live r = Credrec.live table r in
  Hashtbl.iter (fun _ g -> Group.prune g) t.sv_groups;
  Coherence.prune t.sv_coherence;
  (* An arm whose record went leaves its cell, and so does a cell left
     empty, unless its instance is blacklisted: there it marks a fire
     already committed (see [revoke_role_instance]).  An issued record
     swept away releases its memberships' arms, for the next sweep. *)
  Hashtbl.filter_map_inplace
    (fun key cell ->
      cell := List.filter (fun a -> live a.a_rbr) !cell;
      if !cell = [] && not (Hashtbl.mem t.sv_blacklist key) then None else Some cell)
    t.sv_rbr;
  let dead = Hashtbl.fold (fun crr _ acc -> if live crr then acc else crr :: acc) t.sv_arms [] in
  List.iter (release_arms t) dead;
  t.sv_swept_at <- Credrec.allocations table;
  t.sv_sweep_live <- Credrec.live_records table;
  List.iter (fun f -> f ()) t.sv_on_sweep;
  freed

let maybe_sweep t =
  if Credrec.allocations t.sv_table - t.sv_swept_at >= max sweep_floor t.sv_sweep_live then
    ignore (sweep t)

let gc = sweep
let on_sweep t f = t.sv_on_sweep <- t.sv_on_sweep @ [ f ]

(* Crash: volatile state dies.  Every credential record backing an issued
   certificate, every §4.11 revoker arm and every external surrogate is
   forgotten from the in-memory table (their children now read a dangling
   — permanently False — reference: fail closed), sessions drop, caches
   clear.  The journal's device survives and is replayed by the restart
   hook.  The coherence drops its links, armed set and pending digest
   only after the forgetting, which fires the children's hooks. *)
let crash t j =
  Coherence.crash t.sv_coherence;
  Hashtbl.iter
    (fun _ cell -> List.iter (fun a -> Credrec.forget t.sv_table a.a_rbr) !cell)
    t.sv_rbr;
  Journal.iter_issued j (fun key ->
      match Credrec.unmarshal_ref key with
      | Some cref -> Credrec.forget t.sv_table cref
      | None -> ());
  (* Only issued records are armed, and every one is forgotten above. *)
  Coherence.reset t.sv_coherence;
  Hashtbl.reset t.sv_rbr;
  Hashtbl.reset t.sv_arms;
  Hashtbl.reset t.sv_blacklist;
  Journal.reset j;
  Cache.clear t.sv_sig_cache;
  Cache.clear t.sv_residuals

let create net host reg ~name:sv_name ?(rolefile_id = "main") ~rolefile ?(funcs = [])
    ?(compound_certificates = true) ?(fixpoint_entry = false) ?(heartbeat = 1.0)
    ?(batch_notifications = true) ?disk ?(snapshot_every = 128) ?(register = true) () =
  let ( let* ) = Result.bind in
  let* parsed = Parser.parse_result rolefile in
  let callbacks =
    {
      Infer.no_callbacks with
      Infer.external_sig =
        (fun ~service ~role ->
          match find_service reg service with
          | None -> None
          | Some peer -> Infer.signature peer.sv_sigs role);
    }
  in
  let* sigs = Result.map_error (fun e -> "type error: " ^ e) (Infer.infer ~callbacks parsed) in
  let* () = lint_gate reg ~name:sv_name ~register ~funcs ~callbacks parsed in
  let* bits = assign_role_bits parsed in
  let prng = Prng.create (Int64.of_int (Hashtbl.hash sv_name + 7)) in
  let blacklist = Hashtbl.create 16 in
  let journal = Option.map (fun d -> Journal.create d ~name:sv_name ~snapshot_every ~blacklist) disk in
  let stats = Net.stats net in
  let table = Credrec.create_table () in
  let coherence =
    Coherence.create net host ~name:sv_name ~table
      ~lookup:(fun n ->
        match Hashtbl.find reg n with
        | peer -> Some peer.sv_coherence
        | exception Not_found -> None)
      ~heartbeat ~batch:batch_notifications ~disk
  in
  let t =
    {
      sv_net = net;
      sv_host = host;
      sv_registry = reg;
      sv_name;
      sv_rolefile_id = rolefile_id;
      sv_rolefile = parsed;
      sv_sigs = sigs;
      sv_role_bits = bits;
      sv_secrets = Signing.Rolling.create prng;
      sv_compound = compound_certificates;
      sv_fixpoint = fixpoint_entry;
      sv_table = table;
      sv_groups = Hashtbl.create 8;
      sv_funcs = funcs;
      sv_coherence = coherence;
      sv_family = Hashtbl.create 4;
      sv_rbr = Hashtbl.create 16;
      sv_blacklist = blacklist;
      sv_audit = [||];
      sv_audited = 0;
      sv_sig_cache = Cache.create sig_cache_cap;
      sv_policy_hash = Hashtbl.hash rolefile;
      sv_residuals = Cache.create 4096;
      sv_journal = journal;
      sv_auto_recover = true;
      sv_arms = Hashtbl.create 16;
      sv_swept_at = 0;
      sv_sweep_live = 0;
      sv_on_sweep = [];
      sv_sig_hit = Stats.counter stats "oasis.sigcache.hit";
      sv_sig_miss = Stats.counter stats "oasis.sigcache.miss";
      sv_res_hit = Stats.counter stats "oasis.residual.hit";
      sv_res_miss = Stats.counter stats "oasis.residual.miss";
    }
  in
  (* Backup replicas share the primary's name but must not shadow it in
     the registry; promotion re-registers. *)
  if register then Hashtbl.replace reg sv_name t;
  Option.iter
    (fun j ->
      Net.on_crash net host (fun () -> crash t j);
      Net.on_restart net host (fun () -> if t.sv_auto_recover then recover t))
    journal;
  (* After the coherence's digest flush, which it registered first. *)
  Oasis_events.Broker.on_heartbeat_tick (broker t) (fun () -> maybe_sweep t);
  Ok t

(* --- durability introspection (tests and benches) --- *)

let durable_issued t = match t.sv_journal with None -> 0 | Some j -> Journal.live_count j
let blacklisted t ~role ~args = Hashtbl.mem t.sv_blacklist (blacklist_key role args)

(* --- state fingerprint (model checking) --- *)

let fp_key = Oasis_util.Siphash.key_of_string "oasis.service.fingerprint"

let fingerprint t =
  let b = Buffer.create 512 in
  let add_sorted xs =
    List.iter
      (fun x ->
        Buffer.add_string b x;
        Buffer.add_char b '\x02')
      (List.sort String.compare xs)
  in
  Buffer.add_string b (Int64.to_string (Credrec.fingerprint t.sv_table));
  Buffer.add_char b '\x03';
  add_sorted
    (Hashtbl.fold (fun (r, a) () acc -> (r ^ "\x01" ^ a) :: acc) t.sv_blacklist []);
  Buffer.add_char b '\x03';
  add_sorted (Coherence.pending t.sv_coherence);
  Buffer.add_char b '\x03';
  Option.iter (fun j -> Buffer.add_string b (Journal.fingerprint j)) t.sv_journal;
  Oasis_util.Siphash.hash fp_key (Buffer.contents b)
