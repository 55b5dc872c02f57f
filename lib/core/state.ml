open Fastver_verifier
open Fastver_kvstore

exception Integrity_violation of string

module Reg = Fastver_obs.Registry

(* ------------------------------------------------------------------ *)
(* Protection state in the 64-bit aux field of data records (§7)       *)
(* ------------------------------------------------------------------ *)

let aux_merkle = 0L
let aux_blum ts = Int64.logor Int64.min_int ts
let aux_is_blum aux = Int64.compare aux 0L < 0
let aux_timestamp aux = Int64.logand aux Int64.max_int

(* Host-side at-rest protection state of merkle records: the state a
   record is in whenever its shard's verifier cache does not hold it.
   Residency is the shard's [lru]; a cached record keeps the state it was
   added from. The pinned root is [M_merkle]. *)
type mstate = M_merkle | M_blum of Timestamp.t

type maux = { mstate : mstate; owner : int }
(** [owner >= 0] marks a frontier record and names its shard. Immutable:
    a change goes through {!Tree.set_aux}, which records the key for the
    next incremental checkpoint. *)

(* ------------------------------------------------------------------ *)
(* Shards                                                              *)
(* ------------------------------------------------------------------ *)

type meta = {
  client : int;
  nonce : int64;
  mac : string;
  receipt : (string * int) option ref;
      (* validated-result receipt (mac, epoch), written when the op's log
         entry flushes through the enclave. A per-op cell rather than a
         per-worker FIFO: concurrent batch submissions (the server's
         executor pool) would interleave positional queues. *)
}

let mk_meta ~client ~nonce ~mac = { client; nonce; mac; receipt = ref None }

type entry =
  | E_add_b of Key.t * Value.t * Timestamp.t
  | E_evict_b of Key.t * Timestamp.t
  | E_vget of Key.t * string option * meta option
  | E_vput of Key.t * string option * meta option

(* How a record in a shard's verifier cache got there: the payload of its
   [lru] entry. One added via merkle names its pointing parent and mirrors
   the verifier's staleness: its value changed since its hash was last
   stored at that parent, so a checkpoint must write it back. One added via
   blum is a frontier record, with no parent in the verifier. *)
type cached_merkle = { mutable parent : Key.t; mutable stale : bool }
type cached = Via_blum | Via_merkle of cached_merkle

(* One keyspace partition: its own Merkle tree, its own single-threaded
   verifier, its own dirty set, frontier and epoch clock — and its own
   lock, so partitions never contend. The worker-side mirror state
   (lru/log) lives here too: routing is forced by key, so a shard {e is}
   its worker. *)
type shard = {
  sid : int;
  tree : maux Tree.t; (* this partition's merkle records *)
  verifier : Verifier.t; (* sharing the system enclave *)
  lock : Mutex.t; (* guards everything below, the tree and the verifier *)
  mutable frontier : Key.t list; (* this shard's frontier merkle keys *)
  mutable clock : Timestamp.t; (* exact mirror of the verifier thread clock *)
  lru : cached Key_lru.t; (* the merkle records in the verifier cache *)
  mutable log : entry list; (* buffered verifier calls, newest first *)
  mutable log_len : int;
  mutable dirty : Key.t list; (* data keys handed to blum this epoch *)
  mutable dirty_len : int;
}

(* Scan and timing accumulators behind {!stats}; the event counts live in
   [Metrics]. The scan fields are written under [verify_mutex]. The two
   time sums [verifier_time_s] and [worker_busy_s] are diagnostics, added
   to without synchronisation from whichever domain did the work. *)
type acc = {
  mutable migrated_data : int;
  mutable migrated_frontier : int;
  mutable verify_time_s : float;
  mutable last_verify_latency_s : float;
  mutable verifier_time_s : float;
  worker_busy_s : float array;
      (* per-shard attributed processing time, for scalability modelling *)
  mutable serial_s : float;
      (* inherently serial work: the store-level multiset fold + signature *)
}

(* Replication tee. [on_op] fires for every applied put/delete, under the
   owning shard's lock at the instant the op folds into its epoch —
   so for any single key the stream order equals the apply order, and every
   op tagged epoch [e] is teed before [on_seal] can fire for [e] (the seal
   barrier holds all shard locks). [on_seal] fires once per verified epoch,
   in epoch order (serialized by [verify_mutex]), with the store-level
   certificate. Hooks must be lock-free leaf code: they run under core
   locks. *)
type replication = {
  on_op : epoch:int -> key:Key.t -> value:string option -> unit;
  on_seal : epoch:int -> cert:string -> unit;
}

(* One committed checkpoint generation, as this process wrote or recovered
   it: its number, the SHA-256 (hex) of its MANIFEST — the parent link its
   child records — and its bytes on disk. *)
type ckpt_link = { gen : int; manifest_sha : string; bytes : int }

(* The chain a checkpoint directory's newest committed generation rests
   on, tip first and base last, plus the generations of the chain it
   replaced: retention keeps both without reading either. *)
type ckpt_chain = { links : ckpt_link list; fallback : int list }

type t = {
  mutable config : Config.t;
      (* mutable only for [set_batch_size]: election promotion re-enables
         auto-sealing on a live store that was created as a follower
         (batch_size 0). The field swap is a single word store of an
         immutable record, so concurrent readers see either value whole. *)
  enclave : Enclave.t;
  shards : shard array;
  mutable boundaries : Key.t array;
      (* [shards - 1] sorted data keys partitioning the keyspace into
         ranges; shard [i] owns keys in [boundaries.(i-1), boundaries.(i)).
         Computed from key quantiles at load time and sealed inside the
         enclave payload at checkpoint: routing decides which shard proves
         a key's (non-)existence, so a tampered boundary would let the host
         ask the wrong shard for a false absence proof. *)
  store : string option Store.t; (* data records; None = null value *)
  auth : Auth.key;
  nonces : (int, int64) Hashtbl.t; (* gateway: last put nonce per client *)
  sealed : Enclave.Sealed_slot.slot;
  mutable loaded : bool;
  gateway_lock : Mutex.t;
  ops_since_verify : int Atomic.t;
  live_epoch : int Atomic.t;
      (* the epoch operations and evictions fold into. A scan's seal bumps
         it to [e+1] while the verifiers still hold epoch [e] open, so an
         eviction made by the scan itself lands in [e+1]; equal to the
         verifiers' current epoch whenever no scan holds the world. Read
         without locks by [Batch]'s fallback receipt stamp and by the
         replication primary. *)
  verify_mutex : Mutex.t;
      (* serializes verification scans and checkpoints with each other;
         acquired before (never inside) the shard locks *)
  mutable on_verified : (unit -> unit) option;
      (* e.g. auto-checkpoint: runs after each successful scan *)
  mutable repl : replication option;
      (* replication tee, if a primary is streaming this store *)
  cold : Store.Cold.t option;
  cold_lock : Mutex.t;
      (* serialises cold maintenance (demotion + compaction) with itself
         and with checkpointing, so one demotion pass's segment rotations
         are never interleaved with another's manifest encoding *)
  mutable chains : (string * ckpt_chain) list;
      (* per checkpoint directory; written under [verify_mutex] *)
  acc : acc;
  metrics : Metrics.t;
}

(* Callback-backed metrics: surface the subsystems' own counters at render
   time instead of double-accounting them on the hot path. Runs once per
   system (in [make]); re-registration on the same registry is
   idempotent. *)
let wire_metrics t =
  let module V = Fastver_verifier.Verifier in
  let reg = Metrics.registry t.metrics in
  Reg.gauge_fn reg ~help:"Current (in-progress) epoch" "fastver_epoch"
    (fun () -> float_of_int (V.current_epoch t.shards.(0).verifier));
  Reg.gauge_fn reg ~help:"Newest verified epoch" "fastver_verified_epoch"
    (fun () ->
      float_of_int
        (Array.fold_left
           (fun acc sh -> min acc (V.verified_epoch sh.verifier))
           max_int t.shards));
  (* Epochs certify in lockstep across shards, so shard 0 counts them all. *)
  Reg.counter_fn reg ~help:"Epoch certificates issued"
    "fastver_epoch_certificates_total" (fun () ->
      (V.stats t.shards.(0).verifier).n_certificates);
  let sum read =
    Array.fold_left (fun acc sh -> acc + read (V.stats sh.verifier)) 0 t.shards
  in
  List.iter
    (fun (op, read) ->
      Reg.counter_fn reg
        ~labels:[ ("op", op) ]
        ~help:"In-enclave verifier calls by operation"
        "fastver_verifier_ops_total"
        (fun () -> sum read))
    [
      ("add_m", fun (s : V.op_stats) -> s.n_add_m);
      ("evict_m", fun s -> s.n_evict_m);
      ("add_b", fun s -> s.n_add_b);
      ("evict_b", fun s -> s.n_evict_b);
      ("evict_bm", fun s -> s.n_evict_bm);
      ("vget", fun s -> s.n_vget);
      ("vput", fun s -> s.n_vput);
    ];
  Reg.counter_fn reg
    ~help:"Stale cached Merkle records written back in place by checkpoints"
    "fastver_checkpoint_writebacks_total" (fun () ->
      sum (fun s -> s.n_flush_m));
  Array.iter
    (fun sh ->
      Reg.counter_fn reg
        ~labels:[ ("shard", string_of_int sh.sid) ]
        ~help:"In-enclave verifier calls by shard"
        "fastver_shard_ops_total"
        (fun () ->
          let s = V.stats sh.verifier in
          s.n_add_m + s.n_evict_m + s.n_add_b + s.n_evict_b + s.n_evict_bm
          + s.n_vget + s.n_vput))
    t.shards;
  Reg.gauge_fn reg ~help:"Live data records in the host store"
    "fastver_store_records" (fun () ->
      float_of_int (Fastver_kvstore.Store.length t.store));
  Reg.counter_fn reg ~help:"Host store reads" "fastver_store_reads_total"
    (fun () -> (Fastver_kvstore.Store.stats t.store).reads);
  Reg.counter_fn reg ~help:"Host store writes" "fastver_store_writes_total"
    (fun () -> (Fastver_kvstore.Store.stats t.store).writes);
  Reg.counter_fn reg
    ~help:"Updates that appended a new immutable version"
    "fastver_store_rcu_copies_total" (fun () ->
      (Fastver_kvstore.Store.stats t.store).rcu_copies);
  (* Registered whether or not a cold tier is attached, so the documented
     fastver_cold_* names are always present in a snapshot. *)
  Store.Cold.wire_metrics t.cold reg;
  Reg.gauge_fn reg
    ~help:"Modelled enclave-transition nanoseconds accumulated"
    "fastver_enclave_overhead_ns" (fun () ->
      Int64.to_float (Enclave.charged_ns t.enclave));
  (* Register the per-shard scan-slice series eagerly so every shard's
     histogram is present in snapshots before the first verification scan. *)
  for sid = 0 to Array.length t.shards - 1 do
    ignore (Metrics.verify_shard_seconds t.metrics ~sid)
  done

(* Open the cold tier named by the configuration. [manifest] is the
   committed cold manifest when recovering from a checkpoint; [None] means a
   fresh start, where any leftover segment files are uncommitted garbage. *)
let cold_of_config ?manifest (config : Config.t) =
  match config.cold_dir with
  | None -> Ok None
  | Some dir -> (
      let ccfg =
        {
          Store.Cold.dir;
          mac_secret = config.mac_secret;
          segment_bytes = config.cold_segment_bytes;
        }
      in
      match manifest with
      | Some m -> Result.map Option.some (Store.Cold.recover ccfg ~manifest:m)
      | None ->
          Result.map Option.some (Store.Cold.create ~clear_stray:true ccfg))

let vconfig_of (config : Config.t) =
  {
    Verifier.cache_capacity = config.cache_capacity;
    algo = config.algo;
    mac_secret = config.mac_secret;
    mset_secret = config.mset_secret;
  }

let mk_shard ?tree verifier sid =
  let tree =
    match tree with
    | Some tr -> tr
    | None -> Tree.create ~root_aux:{ mstate = M_merkle; owner = -1 }
  in
  {
    sid;
    tree;
    verifier;
    lock = Mutex.create ();
    frontier = [];
    clock = Verifier.clock verifier;
    lru = Key_lru.create ();
    log = [];
    log_len = 0;
    dirty = [];
    dirty_len = 0;
  }

(* Charge every shard's verifier cache, at full capacity, to the enclave's
   trusted-memory budget. This happens once, when the system is built, so a
   configuration that does not fit is refused at start-up and never fails
   mid-run. *)
let reserve_caches enclave (config : Config.t) ~shards =
  let cap = config.cache_capacity and entry = Verifier.entry_bytes in
  let budget = Enclave.memory_budget enclave in
  (* Exact, and compared by division so a huge capacity cannot overflow. *)
  if cap > budget / entry / shards then
    Error
      (Printf.sprintf
         "verifier caches need %.0f trusted bytes (%d shards x %d entries x \
          %d B), over the enclave's %d-byte budget"
         (float_of_int shards *. float_of_int cap *. float_of_int entry)
         shards cap entry budget)
  else Ok (Enclave.alloc_trusted enclave (shards * cap * entry))

(* The one constructor of [t]: a fresh system ([create]) and a recovered
   one ([recover_generation]) differ only in these arguments. Fails if the
   verifier caches do not fit the enclave's trusted-memory budget. *)
let make ~config ~enclave ~shards ~boundaries ~store ~nonces ~sealed ~loaded
    ~live_epoch ~cold =
  let ( let* ) = Result.bind in
  let* () = reserve_caches enclave config ~shards:(Array.length shards) in
  let t =
    {
      config;
      enclave;
      shards;
      boundaries;
      store;
      auth = Auth.key_of_secret config.Config.mac_secret;
      nonces;
      sealed;
      loaded;
      gateway_lock = Mutex.create ();
      ops_since_verify = Atomic.make 0;
      live_epoch = Atomic.make live_epoch;
      verify_mutex = Mutex.create ();
      on_verified = None;
      repl = None;
      cold;
      cold_lock = Mutex.create ();
      chains = [];
      acc =
        {
          migrated_data = 0;
          migrated_frontier = 0;
          verify_time_s = 0.0;
          last_verify_latency_s = 0.0;
          verifier_time_s = 0.0;
          worker_busy_s = Array.make (Array.length shards) 0.0;
          serial_s = 0.0;
        };
      metrics = Metrics.create ~enabled:config.metrics_enabled ();
    }
  in
  wire_metrics t;
  Ok t

let verified_epoch t =
  Array.fold_left
    (fun acc sh -> min acc (Verifier.verified_epoch sh.verifier))
    max_int t.shards

(* Replication tee call sites. No-ops unless a primary installed hooks. *)
let repl_op t ~epoch ~key ~value =
  match t.repl with None -> () | Some r -> r.on_op ~epoch ~key ~value

let repl_seal t ~epoch ~cert =
  match t.repl with None -> () | Some r -> r.on_seal ~epoch ~cert

let ok = function Ok x -> x | Error e -> raise (Integrity_violation e)

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Shadow of the documented lock order: shard locks in ascending sid
   ([merkle_slow], [blum_fast] and the receipt flushes take one,
   [lock_world] takes them all); [cold_lock] comes after the world (it may
   be taken under the world lock) and is a leaf: nothing is acquired while
   it is held. Each domain tracks what it holds in domain-local state;
   enforcement is off by default (a single [Atomic.get] per lock
   operation) and switched on by tests via
   [Testing.enforce_lock_order]. A violation raises [Invalid_argument] at
   the acquisition that breaks the order, naming both locks. *)
module Lock_order = struct
  type held = { mutable shards : int list; (* desc *) mutable cold : bool }

  let enforce = Atomic.make false
  let dls = Domain.DLS.new_key (fun () -> { shards = []; cold = false })
  let fail fmt = Printf.ksprintf invalid_arg ("lock order: " ^^ fmt)

  (* [cold_lock] is a leaf: nothing further may be acquired under it. *)
  let check_leaf h what =
    if h.cold then fail "%s requested while holding cold_lock" what

  let note_shard_lock sid =
    if Atomic.get enforce then begin
      let h = Domain.DLS.get dls in
      check_leaf h (Printf.sprintf "shard lock %d" sid);
      (match h.shards with
      | top :: _ when top >= sid ->
          fail "shard lock %d requested while holding shard lock %d" sid top
      | _ -> ());
      h.shards <- sid :: h.shards
    end

  let note_shard_unlock sid =
    if Atomic.get enforce then begin
      let h = Domain.DLS.get dls in
      h.shards <- List.filter (fun s -> s <> sid) h.shards
    end

  (* Acquirable under the world lock (checkpoint commits the cold manifest
     with the world stopped) — but itself a leaf. *)
  let note_cold_lock () =
    if Atomic.get enforce then begin
      let h = Domain.DLS.get dls in
      check_leaf h "cold_lock";
      h.cold <- true
    end

  let note_cold_unlock () =
    if Atomic.get enforce then (Domain.DLS.get dls).cold <- false
end

let with_shard_lock t sid f =
  Lock_order.note_shard_lock sid;
  Mutex.lock t.shards.(sid).lock;
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock t.shards.(sid).lock;
      Lock_order.note_shard_unlock sid)
    f

let with_cold_lock t f =
  Lock_order.note_cold_lock ();
  Mutex.lock t.cold_lock;
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock t.cold_lock;
      Lock_order.note_cold_unlock ())
    f

(* Stop-the-world acquisition (verification scans, checkpoints): every
   shard lock in ascending sid. *)
let lock_world t =
  Array.iter
    (fun sh ->
      Lock_order.note_shard_lock sh.sid;
      Mutex.lock sh.lock)
    t.shards

let unlock_world t =
  Array.iter
    (fun sh ->
      Mutex.unlock sh.lock;
      Lock_order.note_shard_unlock sh.sid)
    t.shards

let now = Fastver_obs.Span.now

let maux sh k = (Tree.get_exn sh.tree k).aux

let set_mstate sh k (e : maux Tree.entry) mstate =
  Tree.set_aux sh.tree k e { e.aux with mstate }

(* Mirror the verifier's Lamport-clock rules so the host can predict evict
   timestamps without a verifier round trip (§5.3). *)
let mirror_add_b sh ts = sh.clock <- Timestamp.max sh.clock (Timestamp.next ts)

(* ------------------------------------------------------------------ *)
(* Routing: keyspace partitioning                                      *)
(* ------------------------------------------------------------------ *)

(* The shard owning [key]: the number of range boundaries <= key (binary
   search). Total by construction — every key lands in exactly one shard,
   whatever bytes it holds — and lock-free: boundaries are immutable after
   load/recover, so external dispatchers (the server's executor pool)
   route without coordination. *)
let shard_of_data_key t key =
  let b = t.boundaries in
  let lo = ref 0 and hi = ref (Array.length b) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Key.compare b.(mid) key <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let check_loaded t =
  if not t.loaded then invalid_arg "Fastver: call load before operating"
