open Fastver_verifier
open Fastver_kvstore
open State
open Gateway
open Tiers

(* ------------------------------------------------------------------ *)
(* Verification scan (§6.3, §8.1)                                      *)
(* ------------------------------------------------------------------ *)

let verifier_op_count t =
  Array.fold_left
    (fun acc sh ->
      let s = Verifier.stats sh.verifier in
      acc + s.n_add_m + s.n_evict_m + s.n_add_b + s.n_evict_b + s.n_evict_bm
      + s.n_vget + s.n_vput)
    0 t.shards

(* One shard's slice of the verification scan: steps 1–2 (sorted dirty
   re-apply, frontier migration), leaving the verifier cache's working set
   resident across the seal. Because routing confines every record — and
   therefore every buffered log entry — to its own shard, the epoch close
   and seal also ride the slice ([close_and_seal_shard] below): a shard
   certifies its partition the moment its own migration finishes, without
   waiting for the others. Only the store-level multiset fold remains
   serial. The coordinator holds every shard's tree and worker lock, so
   no foreground operation runs while a slice does. *)
let scan_shard t ~epoch sh dirty =
  let migrated_data = ref 0 and migrated_frontier = ref 0 in
  let in_enclave len f =
    if len > 0 then Enclave.call t.enclave (fun () -> f len)
  in
  (* 1. Sorted merkle updates: re-apply every written data record to the
     tree in key order, exploiting chain-prefix locality (the snapshot
     array is sorted in place — no per-node allocation). Duplicates cannot
     arise today (a dirty key is blum-protected and re-touches take the
     fast path), but the sorted pass skips adjacent equals so a duplicate
     could never double-migrate. *)
  if t.config.sorted_migration then Array.sort Key.compare dirty;
  let rec migrate_dirty key =
    match ok (Store.get t.store key) with
    | Some (v, aux) when aux_is_blum aux ->
        let ts = aux_timestamp aux in
        if
          not (Store.try_cas t.store key ~expected_aux:aux v ~aux:aux_merkle)
        then
          (* The store is not frozen with the shards: cold-tier demotion
             ([cold_maintain]) rewrites record bodies under the store's
             stripe locks, outside [verify_mutex]. Claiming by CAS keeps
             the read and the claim one step; re-read and retry. *)
          migrate_dirty key
        else begin
          let descent = Tree.descend sh.tree key in
          assert (descent.outcome = Tree.Exists);
          let parent = ensure_chain t sh descent.path in
          ensure_room t sh ~protect:parent ();
          ok
            (Verifier.add_b sh.verifier ~key ~value:(Value.Data v)
               ~timestamp:ts);
          mirror_add_b sh ts;
          let ptr = ok (Verifier.evict_m sh.verifier ~key ~parent) in
          apply_ptr sh parent ptr;
          incr migrated_data
        end
    | Some _ | None ->
        raise (Integrity_violation "dirty record not in blum state")
  in
  in_enclave (Array.length dirty) (fun len ->
      for i = 0 to len - 1 do
        let key = dirty.(i) in
        if not (i > 0 && Key.equal key dirty.(i - 1)) then migrate_dirty key
      done);
  (* 2. Migrate this shard's frontier merkle records that were not touched
     (still in the deferred tier) to the next epoch. *)
  let frontier = Array.of_list sh.frontier in
  in_enclave (Array.length frontier) (fun len ->
      for i = 0 to len - 1 do
        let f = frontier.(i) in
        let entry = Tree.get_exn sh.tree f in
        match entry.aux.mstate with
        | M_blum ts when Timestamp.epoch ts <= epoch ->
            ensure_room t sh ();
            ok
              (Verifier.add_b sh.verifier ~key:f ~value:entry.value
                 ~timestamp:ts);
            mirror_add_b sh ts;
            let ts' =
              Timestamp.max sh.clock (Timestamp.first_of_epoch (epoch + 1))
            in
            ok (Verifier.evict_b sh.verifier ~key:f ~timestamp:ts');
            sh.clock <- ts';
            set_mstate sh f entry (M_blum ts');
            incr migrated_frontier
        | M_blum _ ->
            (* Already carried into the live epoch by a mid-scan cache
               eviction; the next scan migrates it. *)
            ()
        | M_cached sid ->
            (* Cached: it stays resident across the seal. A
               record cached in epoch [e] contributes nothing further to
               [e] (its add already balanced the evict that made it
               cached), and its own eventual eviction — by capacity, or
               the virtual one a checkpoint's sealed summary records —
               lands at the live-epoch floor, balanced by that epoch's
               scan. Only ever cached by its own shard (routing is forced
               by key). *)
            assert (sid = sh.sid)
        | M_merkle -> assert false
      done);
  (!migrated_data, !migrated_frontier)

(* 4a. Per-shard epoch close + seal, at the tail of each shard's own slice
   (routing confines a shard's log entries to its own partition, so a
   shard may seal the moment its migration finishes — this is what
   keeps the per-shard close and seal in the parallel phase). The
   store-level aggregation reads only the returned fold. *)
let close_and_seal_shard t ~epoch sh =
  flush_worker t sh;
  let fold =
    Enclave.call t.enclave (fun () ->
        ok (Verifier.close_epoch sh.verifier ~epoch);
        ok (Verifier.seal_epoch_shard sh.verifier ~shard:sh.sid ~epoch))
  in
  sh.clock <- Timestamp.max sh.clock (Timestamp.first_of_epoch (epoch + 1));
  fold

(* The verification scan (§6.3, §8.1), stop-the-world: the coordinator
   owns every shard for the whole scan (lock order: tree locks ascending,
   then worker locks ascending — the same order [merkle_slow] uses, so
   scans and operations cannot deadlock). The seal flushes every log
   buffer, snapshots every dirty set and bumps the live epoch, so a cache
   eviction made by a slice lands in epoch [e+1]; then the per-shard
   slices fan out to real domains (§8.5).

   Each slice ends by closing and sealing its own shard's epoch
   ([close_and_seal_shard]); the serial tail is only the store-level
   multiset fold over the per-shard values plus one HMAC. The fold is
   order-independent, so the aggregated certificate is bit-identical
   whether one shard or N produced it — and identical to the certificate a
   single unsharded verifier would sign.

   The caller must hold [verify_mutex]. Returns [(epoch, certificate)]. *)
let verify_inner t =
  let t0 = now () in
  let charged0 = Enclave.charged_ns t.enclave in
  let vops0 = verifier_op_count t in
  let touched0 = t.acc.migrated_data + t.acc.migrated_frontier in
  Metrics.verify_in_flight t.metrics 1;
  Fun.protect ~finally:(fun () -> Metrics.verify_in_flight t.metrics 0)
  @@ fun () ->
  lock_world t;
  let scan () =
    let epoch = Verifier.current_epoch t.shards.(0).verifier in
    Array.iter (flush_worker t) t.shards;
    let dirty =
      Array.map
        (fun sh ->
          let d = Array.of_list sh.dirty in
          sh.dirty <- [];
          sh.dirty_len <- 0;
          d)
        t.shards
    in
    (* From here on, operations and the slices' own cache evictions fold
       into the next epoch. *)
    Atomic.set t.live_epoch (epoch + 1);
    Atomic.set t.ops_since_verify 0;
    let n = Array.length t.shards in
    let results = Array.make n (0, 0) in
    let folds = Array.make n ("", "") in
    let failures = Array.make n None in
    let slice sid () =
      let sh = t.shards.(sid) in
      let tw = now () in
      (match
         let r = scan_shard t ~epoch sh dirty.(sid) in
         let fold = close_and_seal_shard t ~epoch sh in
         (r, fold)
       with
      | r, fold ->
          results.(sid) <- r;
          folds.(sid) <- fold
      | exception e -> failures.(sid) <- Some e);
      let dt = now () -. tw in
      t.acc.worker_busy_s.(sid) <- t.acc.worker_busy_s.(sid) +. dt;
      Metrics.verify_shard t.metrics ~sid ~seconds:dt
    in
    (* Dispatch the slices over at most [recommended_domain_count]
       domains: spawning one domain per shard on a machine with fewer
       cores makes the domains time-share, which both adds scheduler
       overhead and corrupts the per-slice wall-clock accounting (each
       slice's elapsed time would absorb the others' work). Each lane
       drains a strided subset of shards sequentially; lane 0 runs on
       the coordinator domain. Failures are collected per shard and
       re-raised only after every domain has joined, so a tampering
       detection on one partition never leaves another domain running
       unsupervised. *)
    let lanes = min n (Domain.recommended_domain_count ()) in
    let lane l () =
      let sid = ref l in
      while !sid < n do
        slice !sid ();
        sid := !sid + lanes
      done
    in
    (if lanes = 1 then lane 0 ()
     else begin
       let domains =
         Array.init (lanes - 1) (fun i -> Domain.spawn (lane (i + 1)))
       in
       lane 0 ();
       Array.iter Domain.join domains
     end);
    Array.iter (function Some e -> raise e | None -> ()) failures;
    Array.iter
      (fun (d, f) ->
        t.acc.migrated_data <- t.acc.migrated_data + d;
        t.acc.migrated_frontier <- t.acc.migrated_frontier + f)
      results;
    (* 4b. Serial tail: fold every shard's sealed set-hash values into
       the store-level accumulators and sign the epoch certificate. The
       per-shard balance checks already ran inside the slices; this is
       O(shards) multiset merges plus one HMAC — the only inherently
       serial work left in a scan. *)
    let ts = now () in
    let cert =
      Enclave.call t.enclave (fun () ->
          match
            Verifier.aggregate_epoch_certificate
              ~mset_secret:t.config.mset_secret
              ~mac_secret:t.config.mac_secret ~epoch
              ~folds:(Array.to_list folds)
          with
          | Ok c -> c
          | Error e -> raise (Integrity_violation e))
    in
    t.acc.serial_s <- t.acc.serial_s +. (now () -. ts);
    (epoch, cert)
  in
  let epoch, cert = Fun.protect ~finally:(fun () -> unlock_world t) scan in
  (* Epoch-boundary record for replication followers: emitted after the
     scan proved the epoch balanced, in epoch order ([verify_mutex]
     serializes scans). Every op teed with this epoch tag preceded the
     seal above, so followers hold the full epoch when this record
     reaches them. *)
  repl_seal t ~epoch ~cert;
  Metrics.verify_pause t.metrics ~seconds:(now () -. t0);
  (* Account the enclave crossings this scan would have cost: its verifier
     calls stream through log buffers in a real deployment. *)
  let vops = verifier_op_count t - vops0 in
  Enclave.charge_transitions t.enclave (vops / t.config.log_buffer_size);
  let elapsed =
    now () -. t0
    +. Int64.to_float (Int64.sub (Enclave.charged_ns t.enclave) charged0)
       /. 1e9
  in
  t.acc.last_verify_latency_s <- elapsed;
  t.acc.verify_time_s <- t.acc.verify_time_s +. elapsed;
  t.acc.verifier_time_s <- t.acc.verifier_time_s +. (now () -. t0);
  Metrics.verify_scan t.metrics ~seconds:elapsed
    ~touched:(t.acc.migrated_data + t.acc.migrated_frontier - touched0);
  (epoch, cert)

(* Cold-tier maintenance rides the verification cadence: right after a scan
   every record's aux is freshly installed, so demotion moves settled
   versions, and the records just migrated to merkle are exactly the cooling
   ones. Runs outside [verify_mutex] (demotion flips bodies under stripe
   locks, safe against live traffic) but under [cold_lock] so two scans
   finishing close together don't compact concurrently. Maintenance errors
   are soft — the tier degrades to serving what it has and the next cycle
   retries — but injected crash faults propagate (the crash tests need the
   exception to escape). *)
let cold_maintain t =
  match t.cold with
  | None -> ()
  | Some _ ->
      with_cold_lock t (fun () ->
          (match Store.demote_now t.store ~budget:t.config.cold_threshold with
          | Ok _ -> ()
          | Error e -> Logs.warn (fun m -> m "cold demotion: %s" e));
          match
            Store.compact_cold t.store
              ~min_dead_ratio:t.config.cold_gc_ratio
          with
          | Ok _ -> ()
          | Error e -> Logs.warn (fun m -> m "cold compaction: %s" e))

let verify_pair t =
  let pair = with_lock t.verify_mutex (fun () -> verify_inner t) in
  cold_maintain t;
  (* post-verification hooks (auto-checkpoint) run outside the locks: they
     re-enter the public API *)
  (match t.on_verified with Some hook -> hook () | None -> ());
  pair

let verify t = snd (verify_pair t)

let maybe_verify t =
  if
    Atomic.fetch_and_add t.ops_since_verify 1 + 1 >= t.config.batch_size
    && t.config.batch_size > 0
  then ignore (verify t)
