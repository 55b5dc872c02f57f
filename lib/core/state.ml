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

(* Host-side protection state of merkle records. [M_cached sid] names the
   shard whose (single) verifier thread holds the record. *)
type mstate = M_merkle | M_blum of Timestamp.t | M_cached of int

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

(* One keyspace partition: its own Merkle tree, its own single-threaded
   verifier (tid is always 0), its own dirty set, frontier and epoch
   clock — and its own pair of locks, so partitions never contend. The
   worker-side mirror state (lru/via/parents/log) lives here too: shard
   routing is forced by key, so a shard {e is} its worker. *)
type shard = {
  sid : int;
  tree : maux Tree.t; (* this partition's merkle records *)
  verifier : Verifier.t; (* n_threads = 1, sharing the system enclave *)
  tree_lock : Mutex.t;
  worker_lock : Mutex.t;
  mutable frontier : Key.t list; (* this shard's frontier merkle keys *)
  mutable clock : Timestamp.t; (* exact mirror of the verifier thread clock *)
  lru : Key_lru.t; (* mirror of the merkle records in the verifier cache *)
  via : [ `M | `B ] Key.Tbl.t;
  parents : Key.t Key.Tbl.t; (* pointing parent of each cached-via-merkle key *)
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
   owning shard's worker lock at the instant the op folds into its epoch —
   so for any single key the stream order equals the apply order, and every
   op tagged epoch [e] is teed before [on_seal] can fire for [e] (the seal
   barrier holds all worker locks). [on_seal] fires once per verified epoch,
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
      (* [n_shards - 1] sorted data keys partitioning the keyspace into
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
      (* the epoch operations are folding into right now. Trails the
         verifiers' current epoch during a background scan: the seal barrier
         bumps it to [e+1] while the verifiers still hold epoch [e] open
         until the scan closes it. Equal to the verifiers' current epoch
         whenever no scan is in flight. *)
  verify_mutex : Mutex.t;
      (* serializes verification scans and checkpoints with each other;
         acquired before (never inside) the shard locks *)
  verify_inflight : bool Atomic.t;
  bg_lock : Mutex.t;
      (* guards the [bg_join] handoff so racing dispatchers cannot leak an
         unjoined domain; nothing else may be acquired while held *)
  bg_join : unit Domain.t option Atomic.t;
      (* the background scan domain, if one was spawned; joined by the next
         verify/checkpoint/shutdown so domains never leak *)
  mutable redeferred : Key.t list;
  redeferred_lock : Mutex.t;
      (* leaf lock (no other lock taken while held): data keys whose
         fast-path touch crossed the epoch boundary during a background
         scan; the next seal barrier routes them to their shards' dirty
         snapshots *)
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

let option_codec : string option Store.codec =
  {
    encode = (function None -> "\x00" | Some v -> "\x01" ^ v);
    decode =
      (fun s ->
        if s = "\x00" then None else Some (String.sub s 1 (String.length s - 1)));
  }

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
    Verifier.n_threads = 1;
    cache_capacity = config.cache_capacity;
    algo = config.algo;
    mac_secret = config.mac_secret;
    mset_secret = config.mset_secret;
  }

let mk_shard ?tree verifier sid =
  let tree =
    match tree with
    | Some tr -> tr
    | None -> Tree.create ~root_aux:{ mstate = M_cached sid; owner = -1 }
  in
  {
    sid;
    tree;
    verifier;
    tree_lock = Mutex.create ();
    worker_lock = Mutex.create ();
    frontier = [];
    clock = Verifier.clock verifier ~tid:0;
    lru = Key_lru.create ();
    via = Key.Tbl.create 64;
    parents = Key.Tbl.create 64;
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
      verify_inflight = Atomic.make false;
      bg_lock = Mutex.create ();
      bg_join = Atomic.make None;
      redeferred = [];
      redeferred_lock = Mutex.create ();
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

(* Shadow of the documented lock order — shard tree locks in ascending sid,
   then worker locks in ascending sid ([merkle_slow], [verify_inner] and
   [checkpoint] all follow it); [redeferred_lock] and [cold_lock] come
   after the world (redeferred under any shard/worker lock, cold under the
   world lock), and both are leaves: nothing is acquired while they are
   held. [bg_lock] stands alone: it is only ever taken with nothing held,
   and nothing is acquired under it. Each domain tracks what it holds in
   domain-local state; enforcement is off by default (a single [Atomic.get]
   per lock operation) and switched on by tests via
   [Testing.enforce_lock_order]. A violation raises [Invalid_argument] at
   the acquisition that breaks the order, naming both locks. *)
module Lock_order = struct
  type held = {
    mutable trees : int list; (* desc *)
    mutable workers : int list; (* desc *)
    mutable bg : bool;
    mutable redeferred : bool;
    mutable cold : bool;
  }

  let enforce = Atomic.make false

  let dls =
    Domain.DLS.new_key (fun () ->
        { trees = []; workers = []; bg = false; redeferred = false;
          cold = false })

  let fail fmt = Printf.ksprintf invalid_arg ("lock order: " ^^ fmt)

  (* Locks under which nothing further may be acquired. *)
  let leaf_held h =
    if h.bg then Some "bg_lock"
    else if h.redeferred then Some "redeferred_lock"
    else if h.cold then Some "cold_lock"
    else None

  let check_leaf h what =
    match leaf_held h with
    | Some l -> fail "%s requested while holding %s" what l
    | None -> ()

  let note_tree_lock sid =
    if Atomic.get enforce then begin
      let h = Domain.DLS.get dls in
      check_leaf h (Printf.sprintf "shard tree lock %d" sid);
      (match h.workers with
      | wid :: _ ->
          fail "shard tree lock %d requested while holding worker lock %d" sid
            wid
      | [] -> ());
      (match h.trees with
      | top :: _ when top >= sid ->
          fail "shard tree lock %d requested while holding shard tree lock %d"
            sid top
      | _ -> ());
      h.trees <- sid :: h.trees
    end

  let note_tree_unlock sid =
    if Atomic.get enforce then begin
      let h = Domain.DLS.get dls in
      h.trees <- List.filter (fun s -> s <> sid) h.trees
    end

  let note_worker_lock wid =
    if Atomic.get enforce then begin
      let h = Domain.DLS.get dls in
      check_leaf h (Printf.sprintf "worker lock %d" wid);
      (match h.workers with
      | top :: _ when top >= wid ->
          fail "worker lock %d requested while holding worker lock %d" wid top
      | _ -> ());
      h.workers <- wid :: h.workers
    end

  let note_worker_unlock wid =
    if Atomic.get enforce then begin
      let h = Domain.DLS.get dls in
      h.workers <- List.filter (fun w -> w <> wid) h.workers
    end

  let note_bg_lock () =
    if Atomic.get enforce then begin
      let h = Domain.DLS.get dls in
      check_leaf h "bg_lock";
      (match h.trees with
      | sid :: _ -> fail "bg_lock requested while holding shard tree lock %d" sid
      | [] -> ());
      (match h.workers with
      | wid :: _ -> fail "bg_lock requested while holding worker lock %d" wid
      | [] -> ());
      h.bg <- true
    end

  let note_bg_unlock () =
    if Atomic.get enforce then (Domain.DLS.get dls).bg <- false

  (* Acquirable under shard/worker locks (the fast path parks keys while
     holding its worker lock; the seal barrier routes them under the world
     lock) — but itself a leaf. *)
  let note_redeferred_lock () =
    if Atomic.get enforce then begin
      let h = Domain.DLS.get dls in
      check_leaf h "redeferred_lock";
      h.redeferred <- true
    end

  let note_redeferred_unlock () =
    if Atomic.get enforce then (Domain.DLS.get dls).redeferred <- false

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
  Lock_order.note_tree_lock sid;
  Mutex.lock t.shards.(sid).tree_lock;
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock t.shards.(sid).tree_lock;
      Lock_order.note_tree_unlock sid)
    f

let with_worker_lock t wid f =
  Lock_order.note_worker_lock wid;
  Mutex.lock t.shards.(wid).worker_lock;
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock t.shards.(wid).worker_lock;
      Lock_order.note_worker_unlock wid)
    f

let with_bg_lock t f =
  Lock_order.note_bg_lock ();
  Mutex.lock t.bg_lock;
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock t.bg_lock;
      Lock_order.note_bg_unlock ())
    f

let with_redeferred_lock t f =
  Lock_order.note_redeferred_lock ();
  Mutex.lock t.redeferred_lock;
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock t.redeferred_lock;
      Lock_order.note_redeferred_unlock ())
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
   shard tree lock in ascending sid, then every worker lock in ascending
   sid — the same order [merkle_slow] uses for its single shard. *)
let lock_world t =
  Array.iter
    (fun sh ->
      Lock_order.note_tree_lock sh.sid;
      Mutex.lock sh.tree_lock)
    t.shards;
  Array.iter
    (fun sh ->
      Lock_order.note_worker_lock sh.sid;
      Mutex.lock sh.worker_lock)
    t.shards

let unlock_world t =
  Array.iter
    (fun sh ->
      Mutex.unlock sh.worker_lock;
      Lock_order.note_worker_unlock sh.sid)
    t.shards;
  Array.iter
    (fun sh ->
      Mutex.unlock sh.tree_lock;
      Lock_order.note_tree_unlock sh.sid)
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
