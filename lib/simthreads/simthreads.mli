(** Multi-worker scalability modelling (Figs. 14a/14c of the paper).

    On machines with several cores the system is measured directly: the
    verification scan fans out to one {!Domain.spawn} slice per worker and
    [Fastver.Parallel.run_ycsb] drives real domains (the bench harness's
    [scale] figure reports those wall-clock numbers). This module carries
    the scaling curve {e past} the machine's cores — and is the only
    number available on a single-core container, where the paper's
    32-thread experiments cannot be measured. It executes the {e real}
    FastVer system configured with [w] logical workers — the production
    code paths route operations, partition the Merkle tree and run
    one verifier per shard exactly as a multi-core deployment would — and
    derives a modelled parallel makespan from the measured per-worker busy
    times (the same per-slice [worker_busy_s] timings the parallel scan
    reports when it runs on real domains):

    {v makespan = max_w busy(w) / interference(w) + serial v}

    The algorithmic scaling behaviour (worker partitioning, deferred
    verification's embarrassing parallelism, Merkle-tree partitioning) comes
    from real execution; only the memory-system interference between
    hardware threads is a calibrated factor. The paper reports roughly a 75%
    throughput gain per doubling of workers for cache-resident data (§8.5),
    i.e. ~0.875 parallel efficiency per doubling; {!paper_interference}
    encodes that. Pass [Fun.const 1.0] for an ideal-memory model. *)

type result = {
  workers : int;
  ops : int;
  modeled_seconds : float;  (** parallel makespan under the model *)
  throughput : float;  (** ops / modeled_seconds *)
  per_worker_busy_s : float array;
  serial_s : float;
  verify_latency_s : float;  (** mean modelled verification-scan latency *)
}

val paper_interference : int -> float
(** [0.875 ^ log2 w]: the per-doubling memory-contention efficiency the
    paper measured for cache-resident micro-benchmarks. *)

val run_hybrid :
  ?interference:(int -> float) ->
  config:Fastver.Config.t ->
  db_size:int ->
  ops:int ->
  spec:Fastver_workload.Ycsb.spec ->
  unit ->
  result
(** Load a [db_size]-record database, run [ops] operations of [spec] through
    the hybrid system with one logical worker per shard
    ([config.n_workers] of them), verify, and model the makespan. *)

val run_dv_micro :
  ?interference:(int -> float) ->
  workers:int ->
  db_size:int ->
  ops:int ->
  unit ->
  result
(** The Fig. 14c micro-benchmark: array-backed records, all records under
    deferred verification, a 50/50 read/update uniform workload sharded
    across [workers] independent verifiers. *)
