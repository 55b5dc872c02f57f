(** FastVer: a verified key-value store (the paper's end-to-end system).

    A {!t} couples the untrusted host machinery — a FASTER-style store for
    data records, per-shard Patricia sparse-Merkle-tree stores for merkle
    records, per-shard verification-log buffers — with the in-enclave
    verifier. The key space is partitioned into [Config.shards] independent
    {e shards} (range partitions by data key, boundaries chosen from the
    loaded key distribution and sealed with the verifier state): each shard
    owns its own Merkle tree, verifier thread, dirty set, frontier cut and
    epoch clock, guarded by its own locks, so operations and verification
    slices on different shards never contend. Every get/put is validated by
    its shard's verifier using the hybrid scheme of §6:

    - records written this epoch ride the {e deferred} tier: O(1)
      [add_b]/[evict_b] calls and a multiset-hash fold, no Merkle hashing;
    - a get of a record not written this epoch pays the Merkle chain from
      its nearest blum-protected ancestor (the depth-[d] frontier) and is
      verified in place ([add_m], [vget], [evict_m]): the record stays
      Merkle-protected;
    - a record's first put in an epoch pays the same chain, after which it
      is handed to the deferred tier ([evict_bm]);
    - {!verify} runs the verification scan: written records are re-applied
      to their shard's Merkle tree in sorted key order (§6.3), frontier
      merkle records migrate to the next epoch, each shard seals its own
      epoch-balance certificate, and the per-shard multiset folds aggregate
      into one store-level epoch certificate — bit-identical whether the
      epoch ran on 1 shard or N.

    Operations are {e provisionally} validated when processed; validation
    becomes final when the surrounding epoch verifies. {!Integrity_violation}
    is raised if any verifier check fails — with an honest host that means
    the backing state was tampered with. *)

exception Integrity_violation of string

module Config : module type of Config
(** Re-exported so that [Fastver.Config] is the single entry point. *)

module Auth : module type of Auth
(** Client/verifier MAC encodings (TCB on both ends). *)

module Bounded_queue : module type of Bounded_queue
(** Bounded blocking MPMC queue (re-exported for the network server's
    executor pool). *)

type t

val create : ?config:Config.t -> unit -> t
(** Every shard's verifier cache is charged, at full capacity, to the
    enclave's 192 MiB trusted-memory budget here, once.

    @raise Invalid_argument if [Config.cold_dir] is set but the cold tier
    cannot be opened (unwritable directory, segment size below the record
    overhead), or if [shards × cache_capacity × Verifier.entry_bytes]
    exceeds the trusted-memory budget (the message names both). *)

val config : t -> Config.t

val load : t -> (int64 * string) array -> unit
(** Trusted initial load: installs the database (distinct keys) and its
    Merkle root before the system is handed to the untrusted host, then
    pushes the frontier merkle records into the deferred tier. Must be
    called once, before any operation. *)

(** {2 Operations} *)

val get : t -> int64 -> string option
val put : t -> int64 -> string -> unit

val get_key : t -> Key.t -> string option
(** Operate on a full 256-bit data key directly (the int64 API is the
    paper's zero-padded YCSB convenience). *)

val put_key : t -> Key.t -> string -> unit
val delete_key : t -> Key.t -> unit

val scan : t -> int64 -> int -> (int64 * string option) array
(** [scan t k len] reads keys [k .. k+len-1] (YCSB-E style; not atomic, as in
    the paper — neither FastVer nor FASTER is transactional). *)

val delete : t -> int64 -> unit
(** Validated update to the null value (the key reverts to non-existent). *)

(** {2 Authenticated client sessions} *)

module Session : sig
  type session
  (** Client-side state (part of the TCB): the shared secret, the nonce
      counter, and the latest verified epoch certificate. *)

  val connect : t -> client_id:int -> session

  type 'v receipt = {
    value : 'v;
    nonce : int64;
    epoch : int;  (** validation is final once this epoch verifies *)
    mac : string;
  }

  val get : session -> int64 -> string option receipt
  (** Validated read; checks the verifier's MAC before returning.
      @raise Integrity_violation if the receipt does not authenticate. *)

  val put : session -> int64 -> string -> unit receipt
  (** Signed update; the verifier rejects puts without a valid client MAC. *)

  val await_certainty : session -> 'v receipt -> unit
  (** Force a verification scan if needed, and check the epoch certificate
      covering the receipt — after this returns, the result is final, not
      provisional. *)
end

(** {2 Batch submission}

    The serving-path entry point ([lib/net]): a whole batch of decoded
    client requests is driven through the worker loop, then every worker's
    verification-log buffer is drained through the enclave {e once} —
    amortising transition cost over the batch exactly as §7 amortises
    ecalls — and the per-operation validation receipts are collected
    afterwards from per-operation receipt cells (safe under concurrent
    [submit] calls from executor domains).

    Errors isolate per operation: a put with a bad client MAC or replayed
    nonce is rejected at admission, before it can touch verifier state, and
    surfaces as [Failed] without affecting its neighbours. *)

module Batch : sig
  type op =
    | Get of { client : int; nonce : int64; key : int64 }
    | Put of { client : int; nonce : int64; mac : string; key : int64;
               value : string option }
        (** [mac] must be [Auth.put_request] over the operation when
            [authenticate_clients] is set; [value = None] deletes. *)
    | Scan of { client : int; nonce : int64; start : int64; len : int }

  type item = {
    ikey : int64;
    ivalue : string option;
    mutable iepoch : int;
    mutable imac : string;
        (** [Auth.receipt] over the item (empty when auth is disabled). *)
  }

  type reply =
    | Got of item
    | Put_done of item
    | Scanned of item array
    | Failed of string

  val submit : ?pre_admitted:bool -> t -> op array -> reply array
  (** [submit t ops] processes every operation (honouring [batch_size]
      verification scans) and returns replies in submission order. Does not
      raise on per-operation integrity failures — they come back as
      [Failed].

      Every operation routes to the log buffer of the shard owning its key
      ({!owner_of_key}), whichever domain calls [submit].
      [?pre_admitted] skips the gateway admission check on puts — for
      callers that already ran {!admit_put} on the dispatching domain to
      consume client nonces in arrival order; re-checking would burn the
      nonce twice and reject the put as a replay. *)
end

val admit_put :
  t -> client:int -> nonce:int64 -> mac:string -> key:int64 ->
  value:string option -> (unit, string) result
(** Run the gateway admission check (client MAC + nonce freshness) for a
    put without processing it. Used by the server's I/O domain to admit
    puts in per-client arrival order before handing them to executor
    domains via [Batch.submit ~pre_admitted:true]. No-op [Ok ()] when
    client authentication is disabled. *)

val owner_of_key : t -> int64 -> int
(** The shard id owning a data key (the shard whose Merkle tree, verifier,
    log buffer and dirty set its operations touch). Lock-free; the routing
    table is static once {!load} / {!recover} completes. The server uses it
    to route operations to executor domains so each batch stays inside one
    shard's locks. *)

val n_shards : t -> int
(** Number of verifier shards (= [Config.shards config] for a fresh system;
    adopted from the sealed checkpoint payload after {!recover}). *)

(** {2 Verification} *)

val verify : t -> string
(** Run the verification scan for the current epoch (§8.1 "batching"):
    migrate deferred records, apply sorted Merkle updates, seal each shard
    and aggregate the shard folds into the store-level epoch certificate,
    which is returned.

    With [n_shards > 1] the scan is parallel end-to-end: each shard's
    sorted dirty set, frontier migration, epoch close and shard seal run on
    the shard's own spawned domain (slice timings land in [worker_busy_s]
    and [fastver_verify_shard_seconds]); only the O(shards) fold
    aggregation and the final certificate MAC stay serial. The multiset
    folds are order-independent, so the certificate is bit-identical to the
    1-shard scan's.

    The scan stops the world: it holds every shard's tree and worker lock
    from the seal to the certificate, so gets and puts on any shard wait
    for the whole scan ([fastver_verify_pause_seconds]). *)

val live_epoch : t -> int
(** The epoch operations fold into right now, readable without a lock.
    Equal to {!current_epoch} except while a scan holds the world, when
    the verifier still holds the sealed epoch open and [live_epoch] is
    already one ahead. *)

val current_epoch : t -> int
val check_epoch_certificate : t -> epoch:int -> string -> bool
(** Client-side check of a certificate returned by {!verify}. *)

(** {2 Durability} *)

val checkpoint : t -> dir:string -> (unit, string) result
(** Persist the data records, per-shard merkle records and sealed verifier
    summaries (§7): run after {!verify} so that the on-disk state
    corresponds to a verified epoch. Serializes with verification scans (a
    checkpoint issued during a scan waits for the scan to finish) and
    writes back stale cached merkle records first — so a mid-epoch
    checkpoint under live traffic is well-defined: still-deferred records
    persist with their blum protection state, and recovery re-seeds the
    dirty sets from it. A recovered system therefore resumes from the last
    {e sealed} (checkpointed) epoch; work from any in-flight scan or later
    epoch is simply re-done.

    Crash-safe: each checkpoint is a fresh generation [dir/ckpt-<n>/] whose
    files are written temp-file + fsync + rename and committed by a MANIFEST
    (written last, same protocol) carrying the SHA-256 of every component —
    a crash at any byte offset leaves the previous generation untouched.

    Incremental: a generation is a {e delta} holding only the data records
    and merkle records changed since its parent generation, whose number
    and MANIFEST digest its own MANIFEST records; a {e base} is a delta
    with no parent. The first checkpoint a system makes into a directory
    (unless it recovered from it) is a base, and so is the next one once
    the deltas since the last base add up to its size. Changes are tracked
    from a system's first checkpoint (or its recovery) on, and a failed
    attempt's changes carry over to the next. Retention is decided from
    memory: the new chain and the chain it replaced are kept without being
    read, and every other generation is deleted.

    Total on I/O and encoding failure: a full disk, an unwritable
    directory, or state that cannot be encoded yields [Error _] with the
    new generation left uncommitted (no manifest, so recovery classifies
    the attempt as torn and the previous generation stays authoritative) —
    the system itself remains live and consistent. Only genuine integrity
    failures ({!Integrity_violation}) and test-injected crashes still
    raise. *)

val recover : ?config:Config.t -> dir:string -> unit -> (t, string) result
(** Rebuild a system from the newest committed checkpoint generation and
    the chain of parents it rests on, applied base first.
    Generations are scanned newest-first; a {e torn} one — no manifest, or
    a manifest that doesn't parse, which is all a crash can leave behind —
    is deleted and skipped. A {e tampered} one — a well-formed manifest
    whose checksums fail, that lacks a component entry, or whose recorded
    generation disagrees with its [ckpt-<n>] directory name — stops
    recovery with [Error _] and is left in place as evidence: silently
    falling back to an older generation would turn one flipped bit into a
    rollback primitive. So does a chain link that is missing, torn,
    tampered, or whose MANIFEST digest differs from the one its child
    records. The verifier summaries are validated against the
    enclave's rollback-protected sealed slot, and the data version the
    chain produces must match every sealed shard summary's verified epoch.
    The shard count and routing boundaries are adopted from the sealed
    payload ([config.n_shards] only governs fresh systems); a payload from
    a pre-sharding release is rejected with an explicit [Error _], and so
    are verifier caches that do not fit the trusted-memory budget (as in
    {!create}, for the adopted shard count). Total on
    corrupt input: malformed checkpoints yield [Error _], never an
    exception. *)

val checkpoint_chain : t -> dir:string -> int list
(** The generation numbers of the chain this system last committed to, or
    recovered from, [dir]: base first, then its deltas. [[]] if none. *)

val err_no_checkpoint : string
(** The exact [Error] payload {!recover} returns when [dir] holds no
    checkpoint at all (missing or empty directory). This is the only
    recovery error after which starting fresh is safe; every other error —
    tampering, corruption, an unsupported legacy layout — means a
    checkpoint exists but could not be trusted, and overwriting it should
    require explicit operator intent. *)

(** {2 String-keyed view}

    The paper assumes 32-byte keys and maps other application key domains
    onto them with a cryptographic hash, transparently to clients (§2.1).
    [String_keys] is that adapter: arbitrary string keys, hashed with
    SHA-256 onto the 256-bit Merkle key space. Range scans are unavailable
    through this view (hashing destroys order), as in the paper. *)

module String_keys : sig
  val key : string -> Key.t
  (** The underlying 256-bit data key for an application key. *)

  val get : t -> string -> string option
  val put : t -> string -> string -> unit
  val delete : t -> string -> unit
end

val set_batch_size : t -> int -> unit
(** Retune the auto-verification cadence on a live store. Replication
    election uses it at promotion: a follower runs with [batch_size = 0]
    (epochs sealed by the primary's stream), and the winner must start
    sealing epochs itself to emit boundary records. Takes effect from the
    next admitted operation.
    @raise Invalid_argument on a negative size. *)

val set_auto_checkpoint : t -> dir:string -> unit
(** Checkpoint after every successful verification scan — the paper's §7
    guarantee that a completed epoch is also a persisted epoch (CPR-aligned
    epochs). A failed auto-checkpoint is logged as a warning; the epoch
    remains verified in memory and the previous generation stays
    authoritative on disk. *)

val clear_auto_checkpoint : t -> unit

(** {2 Replication tee}

    A replication primary installs two hooks. [on_op] fires for every
    applied put ([value = Some _]) or delete ([value = None]), tagged with
    the epoch the op folded into, under the owning shard's worker lock — so
    per-key stream order equals apply order, and every op tagged epoch [e]
    fires before [on_seal] can fire for [e]. [on_seal] fires once per
    verified epoch, in epoch order, carrying the store-level certificate
    (the same value {!verify} returns). Hooks run under core locks: they
    must only hand the event off (append to a leaf-locked log), never
    re-enter this API or block. Bulk {!load} is not teed — an initial
    database is authenticated out of band, exactly as on the primary. *)

val set_replication_hooks :
  t ->
  on_op:(epoch:int -> key:Key.t -> value:string option -> unit) ->
  on_seal:(epoch:int -> cert:string -> unit) ->
  unit

val clear_replication_hooks : t -> unit

(** {2 Statistics} *)

type stats = {
  ops : int;  (** validated elementary operations: [gets + puts] *)
  gets : int;  (** validated reads, one per scanned key *)
  puts : int;  (** validated updates and deletes *)
  scans : int;
  blum_fast_path : int;  (** ops served entirely in the deferred tier *)
  merkle_path : int;  (** ops that paid a Merkle chain *)
  verifies : int;
  migrated_data : int;
  migrated_frontier : int;
  verify_time_s : float;  (** total time in verification scans *)
  last_verify_latency_s : float;
  verifier_time_s : float;  (** wall time spent applying verifier ops *)
  cas_retries : int;
  worker_busy_s : float array;
      (** per-shard attributed processing time (indexed by shard id);
          the scalability simulator derives modelled makespans from it *)
  serial_s : float;
      (** inherently serial verification work (fold aggregation and the
          store-level certificate MAC) *)
}

val stats : t -> stats
(** A snapshot of the counters, taken at the call. The operation counts
    ([ops] through [merkle_path], [verifies], [cas_retries]) are the
    registry's atomic [fastver_*_total] counters, exact under any number of
    domains and kept whatever [Config.metrics_enabled] says. The time sums
    are diagnostics that concurrent domains add to without
    synchronisation. *)

val registry : t -> Fastver_obs.Registry.t
(** The system's metric registry ({!Fastver_obs}). Always present; the
    histograms honour [Config.metrics_enabled], and the counters that
    {!stats} reads always count. Core metrics:

    - [fastver_ops_total{tier="blum"|"merkle"|"cached"}] — validated
      elementary ops by the tier that served them; the three sum to the
      number of validated ops ([blum] = deferred fast path, [merkle] = slow
      path that loaded chain records, [cached] = slow path with the whole
      chain already resident in the verifier cache);
    - [fastver_gets_total] / [fastver_puts_total] / [fastver_scans_total],
      [fastver_cas_retries_total], [fastver_verifies_total];
    - [fastver_log_flush_entries], [fastver_verify_scan_seconds],
      [fastver_verify_shard_seconds{shard=...}] (per-shard parallel scan
      slices incl. close/seal), [fastver_verify_touched_records],
      [fastver_verify_pause_seconds] (the foreground pause per
      verification: the whole stop-the-world scan, seal to certificate),
      [fastver_checkpoint_write_seconds],
      [fastver_recover_seconds] (histograms);
    - [fastver_verify_in_flight] (gauge, 0/1: a scan is running);
    - callback-backed: [fastver_epoch], [fastver_verified_epoch],
      [fastver_epoch_certificates_total],
      [fastver_verifier_ops_total{op=...}] (summed over shards),
      [fastver_shard_ops_total{shard=...}] (per-shard totals),
      [fastver_store_records],
      [fastver_store_reads_total], [fastver_store_writes_total],
      [fastver_store_rcu_copies_total], [fastver_enclave_overhead_ns].

    [lib/net]'s server registers its own metrics here too. *)

val enclave_overhead_ns : t -> int64
(** Modelled enclave-transition time accumulated so far; add to wall time
    when computing effective throughput. *)

val cold_stats : t -> Fastver_kvstore.Store.Cold.stats option
(** Cold-tier counters (segments, live/dead bytes, authenticated reads,
    GC rewrites); [None] when [Config.cold_dir] is unset. *)

val close_cold : t -> unit
(** Close the cold tier's segment descriptors, if one is attached. Reads
    of cold records fail afterwards; for a system that will not serve
    again, such as one that crashed mid-maintenance. *)

val verifier_stats : t -> Fastver_verifier.Verifier.op_stats
(** Verifier operation counters summed across shards ([n_certificates] is
    the per-shard maximum — every shard seals once per store epoch). *)

val verifier_failure : t -> string option
(** The first shard verifier's recorded poison failure, if any ([None]
    means every shard is healthy). *)

val verified_epoch : t -> int
(** The newest epoch verified by {e every} shard (the store-level verified
    epoch; the minimum over shards). *)

val enclave_handle : t -> Fastver_enclave.Enclave.t
(** The (simulated) enclave shared by all shard verifiers — read-only uses:
    cost accounting, transition counts. *)

(** {2 Parallel runtime}

    The paper's thread model (§5.3, §7): each worker is an OS thread paired
    with its own verifier thread; workers race compare-and-swaps on shared
    records (Example 5.2) and interact only through the store, the Merkle
    tree (coarse lock) and stop-the-world verification scans. Here workers
    are OCaml domains, and each operation routes to its key's shard, whose
    single verifier stands in for the paper's per-worker verifier thread.
    This is the real shared-memory runtime — on a multi-core machine it
    parallelises; the benchmarks use the modelled variant
    ({!Fastver_simthreads}) because the reproduction container has one
    core.

    Caveat: authenticated {!Session}s are not supported inside a parallel
    run. *)

module Parallel : sig
  exception Worker_failed of int * exn

  val run_ycsb :
    t -> spec:Fastver_workload.Ycsb.spec -> db_size:int ->
    ops_per_worker:int -> unit
  (** Drive [ops_per_worker] YCSB operations through every worker
      concurrently, honouring [config.batch_size] verification scans.
      Per-worker generator seeds are derived by mixing the worker id
      through a SplitMix64 finaliser, so any two configured seeds produce
      disjoint per-worker streams (a plain [seed + wid * k] collides for
      seeds differing by [k]).
      @raise Worker_failed if any domain raised. *)
end

(** {2 Batch driver} *)

val run_ops : t -> Fastver_workload.Ycsb.t -> int -> unit
(** Process [n] operations from a YCSB generator, honouring
    [config.batch_size] by running {!verify} between batches. *)

(** {2 Failure injection (tests only)}

    Simulates an adversary with full control of the untrusted host (§2.2).
    Production code has no business here. *)

module Testing : sig
  val corrupt_store : t -> int64 -> string option -> unit
  (** Overwrite a data record directly in the host store, bypassing the
      verifier. The forgery must be detected on the record's next
      validation, or at the latest when its epoch verifies. *)

  val corrupt_merkle_record : t -> Key.t -> unit
  (** Flip a hash inside a stored merkle record. *)

  val some_merkle_key : t -> Key.t option
  (** Any currently merkle-protected internal record. *)

  val store_contents : t -> (Key.t * string option * int64) list
  (** Every live data record — key, value, aux — sorted by key. *)

  val tree_entries : t -> int -> (Key.t * Value.t * string * int) list
  (** Shard [sid]'s merkle records — key, value, protection state
      (["merkle"], ["blum <ts>"], or ["cached"] for the pinned root) and
      owner — sorted by key. A record in the verifier cache has the state a
      checkpoint taken now would record for it. *)

  val pending : t -> int * int
  (** Summed over shards: the records on the dirty lists (handed to
      deferred verification since the last scan) and the cached Merkle
      records marked stale. *)

  val drain_caches : t -> unit
  (** Evict every cached record of every shard, children first, into the
      live epoch: what checkpoints did before they wrote stale records
      back in place. Checkpointing after it seals the same payload as
      checkpointing without it. *)

  val sealed_payload : t -> (string, string) result
  (** The plaintext of the payload the last checkpoint sealed. *)

  val chain : t -> int64 -> (Key.t * bool) list
  (** The Merkle records on a data key's path, root first and ending at its
      pointing parent, each paired with whether it is resident in its
      shard's verifier cache (the pinned root always is). *)

  val enforce_lock_order : bool -> unit
  (** Globally enable the lock-order shadow: every lock acquisition in the
      core checks the documented order — shard tree locks in ascending
      shard id, then worker locks in ascending id, with [cold_lock] as a
      leaf (it may be taken under tree/worker locks but nothing may be
      taken under it) — and raises [Invalid_argument] naming both locks on a violation. Off
      by default (one atomic load per lock operation when off). *)

  val with_shard_lock : t -> int -> (unit -> 'a) -> 'a
  val with_worker_lock : t -> int -> (unit -> 'a) -> 'a
  val with_cold_lock : t -> (unit -> 'a) -> 'a
  (** Order-checked lock acquisition, exposed so tests can provoke
      violations deliberately. *)
end
