(** The FastVer verifier: the trusted state machine inside the enclave.

    One verifier is one verifier thread of §5.3: a bounded record cache, a
    Lamport clock, and per-epoch add-/evict-multiset hashes. The paper runs
    several such threads in one enclave and sums their epoch hashes; this
    system runs one verifier per shard instead and sums the shards' hashes
    with {!aggregate_epoch_certificate}. The untrusted host drives the
    verifier through the operations below; any check failure means the host
    deviated from the protocol (or the data was tampered with), and poisons
    the verifier permanently — it will never validate anything again.

    Records move between three protection states (§6):
    - {b cached}: present in the verifier's cache (trusted memory);
    - {b merkle-protected}: hash stored at the tree parent, [in_blum = false];
    - {b blum-protected}: value captured in an epoch's evict-set hash,
      [in_blum = true] at the tree parent (for records that have one).

    Transitions: [add_m] (merkle → cached), [evict_m] (cached → merkle),
    [evict_bm] (cached-via-merkle → blum), [add_b] (blum → cached),
    [evict_b] (cached-via-blum → blum). [flush_m] refreshes a cached
    record's Merkle hash in place. [vget]/[vput] validate client
    operations against cached records.

    All checks mirror the paper's F*-verified design, including the
    cross-mechanism guard: a record handed to Blum protection ([evict_bm])
    leaves an [in_blum] mark at its Merkle parent, so the stale Merkle hash
    can no longer be used to re-introduce an old version of the record. *)

type config = {
  cache_capacity : int;  (** cache entries (512 per thread in the paper) *)
  algo : Record_enc.algo;  (** Merkle hash function *)
  mac_secret : string;  (** shared secret with clients, for validations *)
  mset_secret : string;  (** 16-byte PRF key for multiset hashing *)
}

val default_config : config

type t

val create : ?enclave:Enclave.t -> config -> t
(** A fresh verifier over the all-null database: its cache holds the
    (empty) root record, pinned. All validations reflect updates applied
    through the verifier from this state. *)

val config : t -> config
val enclave : t -> Enclave.t

(** {2 Failure} *)

val failure : t -> string option
(** [Some reason] once any check has failed; the verifier is then poisoned. *)

type 'a result := ('a, string) Stdlib.result

(** {2 State-machine operations}

    Each returns [Error reason] — and poisons the verifier — if a check
    fails. *)

val add_m :
  t -> key:Key.t -> value:Value.t -> parent:Key.t ->
  Value.ptr option result
(** Add a merkle-protected record to the cache. [parent] must be cached
    and its slot towards [key] must authenticate [value] (pointing case), be
    empty ([value] must be the initial value), or point below [key] ([value]
    must be the new internal node preserving the pointer). Returns the
    pointer newly installed in the parent, if the slot changed (fresh or
    split adds), so the host can mirror it. *)

val evict_m : t -> key:Key.t -> parent:Key.t -> Value.ptr result
(** Evict a cached record to Merkle protection: stores the hash of its
    current value in the cached parent (lazy update propagation, §4.3.1) and
    returns that pointer so the (untrusted) host can mirror the
    verifier-computed hash without recomputing it. *)

val flush_m : t -> key:Key.t -> parent:Key.t -> Value.ptr result
(** Write a cached Merkle-added record back to Merkle protection without
    evicting it: {!evict_m} followed by {!add_m} of the same value. Stores
    the hash of its current value in the cached parent, returns that
    pointer for the host to mirror, and leaves the record cached and no
    longer stale (see {!checkpoint_summary}). *)

val add_b :
  t -> key:Key.t -> value:Value.t -> timestamp:Timestamp.t ->
  unit result
(** Add a blum-protected record: folds [(key, value, timestamp)] into the
    add-set of [timestamp]'s epoch and advances the Lamport clock. The value
    is {e not} checked here — it is checked by the epoch's set equality. *)

val evict_b : t -> key:Key.t -> timestamp:Timestamp.t -> unit result
(** Evict a cached record (added via {!add_b}) to Blum protection under a
    fresh timestamp, which must not precede the clock. *)

val evict_bm :
  t -> key:Key.t -> timestamp:Timestamp.t -> parent:Key.t ->
  unit result
(** Evict a cached record (added via {!add_m}) to Blum protection, marking
    [in_blum] at the cached parent. *)

val vget : t -> key:Key.t -> string option -> unit result
(** Validate that the cached data record [key] currently has this value
    ([None] = key absent from the database). *)

val vget_absent : t -> key:Key.t -> parent:Key.t -> unit result
(** Validate that data key [key] is absent, from the cached [parent] alone
    (Example 4.1): the slot towards [key] is either empty or names a key
    that is neither [key] nor one of its ancestors. No state changes. *)

val vput : t -> key:Key.t -> string option -> unit result
(** Validate an update of the cached data record [key]. *)

(** {2 Epochs} *)

val current_epoch : t -> int
(** The lowest unverified epoch. *)

val verified_epoch : t -> int
(** Highest verified epoch; -1 initially. *)

val close_epoch : t -> epoch:int -> unit result
(** The verifier certifies it will take no further elements into [epoch]:
    its clock is advanced past the epoch. Epochs must be closed in order. *)

val verify_epoch : t -> epoch:int -> string result
(** Once [epoch] is closed, compare its add- and evict-set hashes. On
    success returns the epoch certificate — an HMAC under the client secret
    over the epoch number — and advances {!verified_epoch}. On mismatch the
    verifier is poisoned: some provisional validation in this epoch was
    inconsistent. *)

(** {2 Sharded epoch aggregation}

    A sharded store runs one verifier per keyspace partition. Sealing an
    epoch is two-level: each shard checks its local add/evict balance
    ({!seal_epoch_shard}) and exports its set-hash values; the store level
    then folds every shard's values order-independently
    ({!aggregate_epoch_certificate}) and signs the same message
    {!verify_epoch} signs — so the aggregated certificate is
    bit-identical whether one shard or N produced it. *)

val seal_epoch_shard :
  t -> shard:int -> epoch:int -> (string * string) result
(** {!verify_epoch} for one shard of a sharded store: the same checks, the
    same advance of {!verified_epoch} and the same certificate count, but it
    returns this shard's [(add, evict)] multiset-hash values for
    {!aggregate_epoch_certificate} instead of a certificate. [shard] names
    the shard in failure reasons. Poisons this shard's verifier on
    mismatch. *)

val aggregate_epoch_certificate :
  mset_secret:string -> mac_secret:string -> epoch:int ->
  folds:(string * string) list -> string result
(** Fold per-shard [(add, evict)] multiset-hash values (from
    {!seal_epoch_shard}) into store-level accumulators, check the global
    balance, and return the store-level epoch certificate — an HMAC over
    {!epoch_certificate_message}, identical to a single-verifier
    {!verify_epoch} certificate. Pure: takes the secrets directly and
    poisons nothing (per-shard verifiers were already poisoned by their own
    local checks if anything was wrong). *)

(** {2 Certificate message} *)

val epoch_certificate_message : epoch:int -> string
(** The canonical byte string signed by {!verify_epoch}. *)

(** {2 Trusted bulk initialisation}

    Loading an [N]-record database through per-operation proofs costs
    [O(N log N)] hashing. Deployments instead authenticate an initial
    database out of band (the data owner computes the Merkle root before
    handing data to the untrusted host). [install_root] models this: it
    overwrites the pinned root record. *)

val install_root : t -> Value.t -> unit result
(** Only permitted while the verifier is in its initial state (no operations
    processed yet). *)

val install_blum :
  t -> key:Key.t -> value:Value.t -> timestamp:Timestamp.t ->
  unit result
(** Trusted initialisation of a deferred-verification baseline: folds
    [(key, value, timestamp)] into the evict-set of [timestamp]'s epoch, as
    if the record had been legitimately evicted — Blum's initial write pass
    over the memory. Only permitted before any untrusted operation. *)

(** {2 Trusted checkpointing (§7 durability)}

    The entire trusted state compresses to a small summary: the verified
    epoch, the clock, the still-open epochs' set hashes, and the root
    record. The caller seals this blob in rollback-protected storage; on
    recovery {!of_summary} rebuilds an equivalent verifier with empty
    caches. The summary is taken with records still cached: it describes
    the state that evicting every cached record would leave, and leaves
    this verifier as it was. *)

val checkpoint_summary : t -> floor:Timestamp.t -> (string, string) Stdlib.result
(** Refused while any Merkle-added record is {e stale} — its value changed
    since its hash was last stored at its parent ({!add_m}, {!evict_m} and
    {!flush_m} store it) — so the caller must {!flush_m} those first,
    children before parents. Clean Merkle-added records are Merkle-protected
    as they stand. Every blum-added record counts as evicted by {!evict_b}
    at [max clock floor] into that epoch's evict set, in the summary only;
    refused if that epoch is closed. *)

val of_summary :
  ?enclave:Enclave.t -> config -> string -> (t, string) Stdlib.result

(** {2 Introspection (trusted-side diagnostics and tests)} *)

val cached : t -> Key.t -> Value.t option
val cache_size : t -> int
val clock : t -> Timestamp.t

val cache_capacity : t -> int
(** Cache capacity ([config.cache_capacity]). *)

val entry_bytes : int
(** Trusted bytes of one cache entry holding a full Merkle node record (the
    largest record the cache holds): 176. *)

type op_stats = {
  mutable n_add_m : int;
  mutable n_evict_m : int;
  mutable n_add_b : int;
  mutable n_evict_b : int;
  mutable n_evict_bm : int;
  mutable n_vget : int;
  mutable n_vput : int;
  mutable n_certificates : int;
      (** epochs sealed ({!verify_epoch} and {!seal_epoch_shard} successes) *)
  mutable n_flush_m : int;  (** {!flush_m} write-backs *)
}

val stats : t -> op_stats

(** {2 Certificate-chain checking (replication followers)}

    A process that consumes epoch certificates without running a verifier —
    a replication follower replaying the primary's op stream — tracks only
    the last epoch whose certificate authenticated. [check] enforces that
    epochs arrive densely in order and that each certificate is a valid HMAC
    over {!epoch_certificate_message} under the shared secret; the first
    failure is terminal and preserved (epoch + reason) as evidence. *)
module Cert_chain : sig
  type t

  val create : mac_secret:string -> verified:int -> t
  (** [verified] is the highest already-verified epoch ([-1] for a fresh
      store; the sealed epoch after checkpoint recovery). *)

  val verified_epoch : t -> int

  val failure : t -> (int * string) option
  (** [Some (epoch, reason)] once a certificate was rejected; the chain then
      refuses to advance forever. *)

  val check : t -> epoch:int -> cert:string -> (unit, string) Stdlib.result
  (** Verify the certificate for [epoch], which must be exactly
      [verified_epoch t + 1]. Advances the chain on success; poisons it on
      the first failure. *)
end
