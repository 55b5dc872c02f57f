(** The FastVer verifier: the trusted state machine inside the enclave.

    The verifier maintains [n] minimally-interacting verifier threads (§5.3).
    Each thread owns a bounded record cache, a Lamport clock, and per-epoch
    add-/evict-multiset hashes. The untrusted host drives the verifier
    through the operations below; any check failure means the host deviated
    from the protocol (or the data was tampered with), and poisons the
    verifier permanently — it will never validate anything again.

    Records move between three protection states (§6):
    - {b cached}: present in some verifier thread's cache (trusted memory);
    - {b merkle-protected}: hash stored at the tree parent, [in_blum = false];
    - {b blum-protected}: value captured in an epoch's evict-set hash,
      [in_blum = true] at the tree parent (for records that have one).

    Transitions: [add_m] (merkle → cached), [evict_m] (cached → merkle),
    [evict_bm] (cached-via-merkle → blum), [add_b] (blum → cached),
    [evict_b] (cached-via-blum → blum). [vget]/[vput] validate client
    operations against cached records.

    All checks mirror the paper's F*-verified design, including the
    cross-mechanism guard: a record handed to Blum protection ([evict_bm])
    leaves an [in_blum] mark at its Merkle parent, so the stale Merkle hash
    can no longer be used to re-introduce an old version of the record. *)

type config = {
  n_threads : int;
  cache_capacity : int;  (** per-thread cache entries (512 in the paper) *)
  algo : Record_enc.algo;  (** Merkle hash function *)
  mac_secret : string;  (** shared secret with clients, for validations *)
  mset_secret : string;  (** 16-byte PRF key for multiset hashing *)
}

val default_config : config

type t

val create : ?enclave:Enclave.t -> config -> t
(** A fresh verifier over the all-null database: thread 0's cache holds the
    (empty) root record, pinned. All validations reflect updates applied
    through the verifier from this state. *)

val config : t -> config
val enclave : t -> Enclave.t

(** {2 Failure} *)

val failure : t -> string option
(** [Some reason] once any check has failed; the verifier is then poisoned. *)

type 'a result := ('a, string) Stdlib.result

(** {2 State-machine operations}

    [tid] selects the verifier thread; all cache/clock checks are local to
    it. Each returns [Error reason] — and poisons the verifier — if a check
    fails. *)

val add_m :
  t -> tid:int -> key:Key.t -> value:Value.t -> parent:Key.t ->
  Value.ptr option result
(** Add a merkle-protected record to the cache. [parent] must be cached in
    the same thread and its slot towards [key] must authenticate [value]
    (pointing case), be empty ([value] must be the initial value), or point
    below [key] ([value] must be the new internal node preserving the
    pointer). Returns the pointer newly installed in the parent, if the slot
    changed (fresh or split adds), so the host can mirror it. *)

val evict_m : t -> tid:int -> key:Key.t -> parent:Key.t -> Value.ptr result
(** Evict a cached record to Merkle protection: stores the hash of its
    current value in the cached parent (lazy update propagation, §4.3.1) and
    returns that pointer so the (untrusted) host can mirror the
    verifier-computed hash without recomputing it. *)

val add_b :
  t -> tid:int -> key:Key.t -> value:Value.t -> timestamp:Timestamp.t ->
  unit result
(** Add a blum-protected record: folds [(key, value, timestamp)] into the
    add-set of [timestamp]'s epoch and advances the Lamport clock. The value
    is {e not} checked here — it is checked by the epoch's set equality. *)

val evict_b : t -> tid:int -> key:Key.t -> timestamp:Timestamp.t -> unit result
(** Evict a cached record (added via {!add_b}) to Blum protection under a
    fresh timestamp, which must not precede the thread clock. *)

val evict_bm :
  t -> tid:int -> key:Key.t -> timestamp:Timestamp.t -> parent:Key.t ->
  unit result
(** Evict a cached record (added via {!add_m}) to Blum protection, marking
    [in_blum] at the cached parent. *)

val vget : t -> tid:int -> key:Key.t -> string option -> unit result
(** Validate that the cached data record [key] currently has this value
    ([None] = key absent from the database). *)

val vget_absent : t -> tid:int -> key:Key.t -> parent:Key.t -> unit result
(** Validate that data key [key] is absent, from the cached [parent] alone
    (Example 4.1): the slot towards [key] is either empty or names a key
    that is neither [key] nor one of its ancestors. No state changes. *)

val vput : t -> tid:int -> key:Key.t -> string option -> unit result
(** Validate an update of the cached data record [key]. *)

(** {2 Epochs} *)

val current_epoch : t -> int
(** The lowest unverified epoch. *)

val verified_epoch : t -> int
(** Highest verified epoch; -1 initially. *)

val close_epoch : t -> tid:int -> epoch:int -> unit result
(** Thread [tid] certifies it will contribute no further elements to
    [epoch]: its clock is advanced past the epoch. Epochs must be closed in
    order. *)

val verify_epoch : t -> epoch:int -> string result
(** Once every thread has closed [epoch], compare the aggregated add- and
    evict-set hashes. On success returns the epoch certificate — an HMAC
    under the client secret over the epoch number — and advances
    {!verified_epoch}. On mismatch the verifier is poisoned: some provisional
    validation in this epoch was inconsistent. *)

val detach_epoch : t -> tid:int -> epoch:int -> (string * string) result
(** [(add, evict)] multiset-hash values of thread [tid]'s contributions to
    [epoch], removed from the thread's open-epoch tables. Requires the
    thread to have closed [epoch] (its contributions are then frozen). Call
    under whatever lock serializes [tid]'s operations: afterwards the serial
    {!verify_epoch_detached} aggregation never reads thread state that
    foreground traffic mutates, so verification of epoch [e] can run
    concurrently with operations folding into epoch [e+1]. *)

val verify_epoch_detached :
  t -> epoch:int -> detached:(string * string) array -> string result
(** {!verify_epoch} over pre-{!detach_epoch}ed per-thread set hashes (one
    pair per thread, indexed by [tid]) instead of the live thread tables.
    Same certificate, same poisoning semantics. *)

(** {2 Sharded epoch aggregation}

    A sharded store runs one verifier per keyspace partition. Sealing an
    epoch is two-level: each shard checks its local add/evict balance
    ({!seal_epoch_shard}), issuing a shard certificate and exporting its
    folded set-hash values; the store level then folds every shard's values
    order-independently ({!aggregate_epoch_certificate}) and signs the same
    message {!verify_epoch} signs — so the aggregated certificate is
    bit-identical whether one shard or N produced it. *)

val seal_epoch_shard :
  t -> shard:int -> epoch:int -> detached:(string * string) array ->
  (string * (string * string)) result
(** {!verify_epoch_detached} for one shard: checks this verifier's local
    add/evict balance over the detached per-thread hashes, advances
    {!verified_epoch}, and returns [(shard_certificate, (add, evict))] where
    the second component is this shard's folded multiset-hash pair for
    {!aggregate_epoch_certificate}. Poisons this shard's verifier on
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

val shard_certificate_message : shard:int -> epoch:int -> string
(** The canonical byte string signed by {!seal_epoch_shard}. *)

(** {2 Validation signatures} *)

val sign : t -> string -> string
(** MAC an arbitrary validation message under the client-shared secret.
    Returns a poisoned-verifier-refuses signature only when healthy:
    @raise Invalid_argument if the verifier is poisoned. *)

val epoch_certificate_message : epoch:int -> string
(** The canonical byte string signed by {!verify_epoch}. *)

(** {2 Trusted bulk initialisation}

    Loading an [N]-record database through per-operation proofs costs
    [O(N log N)] hashing. Deployments instead authenticate an initial
    database out of band (the data owner computes the Merkle root before
    handing data to the untrusted host). [install_root] models this: it
    overwrites the pinned root record inside thread 0. *)

val install_root : t -> Value.t -> unit result
(** Only permitted while the verifier is in its initial state (no operations
    processed yet). *)

val install_blum :
  t -> tid:int -> key:Key.t -> value:Value.t -> timestamp:Timestamp.t ->
  unit result
(** Trusted initialisation of a deferred-verification baseline: folds
    [(key, value, timestamp)] into the evict-set of [timestamp]'s epoch, as
    if the record had been legitimately evicted — Blum's initial write pass
    over the memory. Only permitted before any untrusted operation. *)

(** {2 Trusted checkpointing (§7 durability)}

    Right after an epoch verifies — caches empty apart from the pinned root —
    the entire trusted state compresses to a small summary: the verified
    epoch, per-thread clocks, the still-open epochs' set hashes, and the root
    record. The caller seals this blob in rollback-protected storage; on
    recovery {!of_summary} rebuilds an equivalent verifier. *)

val checkpoint_summary : t -> (string, string) Stdlib.result
(** Fails unless every cache except the root is empty (run it right after
    {!verify_epoch} once all records are evicted). *)

val of_summary :
  ?enclave:Enclave.t -> config -> string -> (t, string) Stdlib.result

(** {2 Introspection (trusted-side diagnostics and tests)} *)

val cached : t -> tid:int -> Key.t -> Value.t option
val cache_size : t -> tid:int -> int
val clock : t -> tid:int -> Timestamp.t

val cache_capacity : t -> int
(** Per-thread cache capacity ([config.cache_capacity]). *)

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
      (** epoch certificates issued ({!verify_epoch} successes) *)
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
