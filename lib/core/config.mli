(** FastVer system configuration.

    The two latency/throughput knobs of §8.1 are [batch_size] (operations
    between verification scans) and [frontier_levels] (the depth-[d] cut of
    merkle records kept under deferred protection). *)

type t = {
  n_workers : int;
      (** Worker threads; each pairs with one verifier thread (§5.3). *)
  n_shards : int;
      (** Keyspace partitions, each with its own Merkle tree, verifier
          state, and epoch clock; per-shard epoch certificates fold into one
          store-level certificate. [0] (the default) follows [n_workers] —
          use {!shards} to resolve. *)
  cache_capacity : int;
      (** Verifier cache entries per shard (default 65,536). Each entry is
          charged [Verifier.entry_bytes] (176) of trusted memory, so the
          default costs 11 MiB per shard; {!Fastver.create} refuses a
          configuration whose caches exceed the 192 MiB enclave budget.
          The cache stays resident across verification scans. *)
  frontier_levels : int;
      (** Patricia levels below the root whose nodes stay blum-protected;
          roughly [2^d] records migrate on every verification. *)
  batch_size : int;
      (** Operations processed between automatic verification scans; [0]
          disables automatic verification. *)
  log_buffer_size : int;
      (** Verifier-log entries buffered per worker before entering the
          enclave (§7, amortising transition cost). *)
  algo : Record_enc.algo;  (** Merkle hash function. *)
  cost_model : Cost_model.t;  (** Enclave cost accounting. *)
  authenticate_clients : bool;
      (** Check client MACs on puts and MAC every validated result. *)
  sorted_migration : bool;
      (** Apply deferred records back to the Merkle tree in sorted key order
          during verification scans (§6.3). Disabling this is the ablation of
          the paper's sorted-Merkle-updates optimisation. *)
  mac_secret : string;  (** Secret shared between clients and verifier. *)
  mset_secret : string;  (** 16-byte multiset-hash PRF key. *)
  seed : int;
  metrics_enabled : bool;
      (** Record hot-path observability histograms (flush sizes, scan and
          checkpoint timings) into the system's {!Fastver_obs.Registry}.
          The operation counters behind [Fastver.stats] (tier attribution,
          gets, puts, scans, CAS retries, verifies) and the callback-backed
          metrics count either way. *)
  background_verify : bool;
      (** Run epoch verification scans concurrently with foreground
          traffic: the epoch boundary is sealed under a brief O(workers)
          barrier, the live epoch is bumped so gets/puts resume
          immediately, and the scan runs over the sealed snapshot on
          background domains. Off by default: [Fastver.verify] then holds
          the world lock for the whole scan (quiesced semantics). *)
  cold_dir : string option;
      (** Directory for the authenticated cold tier; [None] keeps every
          record in memory. Larger-than-memory datasets demote cooling
          records here after each verification scan. *)
  cold_threshold : int;
      (** In-memory record budget: log entries older than the newest
          [cold_threshold] are demoted to the cold tier. *)
  cold_segment_bytes : int;  (** Cold segment seal threshold. *)
  cold_gc_ratio : float;
      (** Compact a sealed segment once this fraction of its bytes is dead. *)
}

val default : t
(** 1 worker, 65,536-entry caches per shard, d = 6, 64K batch, simulated
    enclave. *)

val shards : t -> int
(** Resolved shard count: [n_shards] if positive, else [max 1 n_workers]. *)

val pp : Format.formatter -> t -> unit
