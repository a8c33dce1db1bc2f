(** A file custode with shared ACLs (§5.2–5.5).

    Files are grouped for access control by {e shared ACLs} (§5.4): each ACL
    is itself a file with a meaningful name, protecting a set of files; an
    ACL is protected by a second ACL, subject to the placement constraint of
    §5.4.2 — {b the ACL file protecting an ACL file must reside in the same
    custode} — which bounds access checks to at most one remote call and
    tames cyclic meta-ACL structures (figs 5.4/5.5).

    Enforcement is by OASIS role membership certificates (§5.5):
    [UseAcl(acl, rights)] covers every file under the ACL;
    [UseFile(file, rights)] is file-specific and used for per-file
    delegation (§5.4.3).  Each ACL has a credential record representing the
    validity of certificates issued from its current contents; modifying the
    ACL invalidates the record, revoking those certificates through the
    standard machinery ({e volatile ACLs}, §5.5.2). *)

type t

type value = Oasis_rdl.Value.t

val create :
  Oasis_sim.Net.t ->
  Oasis_sim.Net.host ->
  Oasis_core.Service.registry ->
  name:string ->
  ?admins:string list ->
  ?backing:Byte_segment.t ->
  unit ->
  (t, string) result
(** [admins] seeds the custode's bootstrap ["system"] ACL (which protects
    itself, a legal local cycle).  With [backing], file contents live in
    segments of the byte-segment custode, accessed with the custode's own
    [Segment] certificate. *)

val name : t -> string
val service : t -> Oasis_core.Service.t
val host : t -> Oasis_sim.Net.host
val net : t -> Oasis_sim.Net.t

(** {1 ACL management (§5.4)} *)

val create_acl :
  t -> cert:Oasis_core.Cert.rmc -> id:string -> entries:string -> meta:string ->
  (unit, string) result
(** Create a shared ACL named [id], protected by the (local) ACL [meta];
    requires the ['a'] right on [meta].  [entries] uses {!Oasis_core.Acl}
    syntax. *)

val modify_acl :
  t -> cert:Oasis_core.Cert.rmc -> id:string -> entries:string -> (unit, string) result
(** Replace the ACL's entries; requires ['a'] on its meta ACL.  Invalidates
    the ACL's credential record: every certificate issued under the old
    contents is revoked (§5.5.2). *)

val read_acl : t -> cert:Oasis_core.Cert.rmc -> id:string -> (string, string) result
val acl_count : t -> int

(** {1 Access requests} *)

val request_access :
  t ->
  client_host:Oasis_sim.Net.host ->
  client:Oasis_core.Principal.vci ->
  login:Oasis_core.Cert.rmc ->
  acl:string ->
  ((Oasis_core.Cert.rmc, string) result -> unit) ->
  unit
(** Obtain a [UseAcl(acl, rights)] certificate.  The login certificate is
    validated with its issuing service over the network; the issued
    certificate's credential record conjoins the (external) login record,
    the ACL's volatility record, and the group memberships the grant
    actually depended on — any of them failing revokes the certificate. *)

val delegate_file_access :
  t ->
  client_host:Oasis_sim.Net.host ->
  holder:Oasis_core.Cert.rmc ->
  file:int ->
  rights:string ->
  candidate:Oasis_core.Principal.vci ->
  ?expires_in:float ->
  unit ->
  ((Oasis_core.Cert.rmc * Oasis_core.Cert.revocation, string) result -> unit) ->
  unit
(** A [UseAcl] holder delegates access to one file: issues the candidate a
    [UseFile(file, rights)] certificate (rights must be a subset of the
    holder's) plus a revocation certificate for the delegator (§5.4.3).
    The delegated certificate survives the delegator re-entering or
    refreshing their own certificate, but dies with the delegation record
    or the ACL (§5.5.2). *)

(** {1 File operations (server-side; remote invocation lives in {!Vac})} *)

val create_file :
  t -> cert:Oasis_core.Cert.rmc -> acl:string -> ?container:string ->
  ?kind:Types.kind -> unit -> (int, string) result
(** Requires ['w'] on [acl]; the new file is protected by [acl]. *)

val read_file : t -> cert:Oasis_core.Cert.rmc -> file:int -> (string, string) result
val write_file : t -> cert:Oasis_core.Cert.rmc -> file:int -> string -> (unit, string) result
val delete_file : t -> cert:Oasis_core.Cert.rmc -> file:int -> (unit, string) result

val stat_file : t -> cert:Oasis_core.Cert.rmc -> file:int -> (string * Types.kind, string) result
(** Returns (protecting ACL id, kind); requires ['r']. *)

(** {1 Continuous media (§5.3.1)}

    Continuous-medium files do not fit generic read/write semantics: their
    protected operations are [play] and [record], mapped onto the ['r'] and
    ['w'] rights of the protecting ACL but refused on non-continuous
    files. *)

val play_file : t -> cert:Oasis_core.Cert.rmc -> file:int -> (string, string) result
val record_file : t -> cert:Oasis_core.Cert.rmc -> file:int -> string -> (unit, string) result

(** {1 Structured files (§5.3.1)} *)

val add_child :
  t -> cert:Oasis_core.Cert.rmc -> file:int -> Types.file_ref -> (unit, string) result
val children : t -> cert:Oasis_core.Cert.rmc -> file:int -> (Types.file_ref list, string) result

(** {1 Containers (accounting, §5.3.1)} *)

val container_usage : t -> string -> int * int
(** (files, bytes) accounted to the container. *)
