(* The domain-parallel runtime (§5.3 thread model): integrity must hold under
   genuine concurrency — contended CAS retries, cross-domain Merkle routing,
   stop-the-world verification scans. *)

let vo = Alcotest.(option string)

let mk ?(workers = 4) ?(batch = 0) ?(bg = false) n =
  let config =
    {
      Fastver.Config.default with
      n_workers = workers;
      batch_size = batch;
      frontier_levels = 3;
      cost_model = Cost_model.zero;
      authenticate_clients = false;
      background_verify = bg;
    }
  in
  let t = Fastver.create ~config () in
  Fastver.load t
    (Array.init n (fun i -> (Int64.of_int i, Printf.sprintf "v%06d" i)));
  t

let test_parallel_updates_and_verify () =
  let n = 2_000 in
  let t = mk n in
  Fastver.Parallel.run_ycsb t ~spec:Fastver_workload.Ycsb.workload_a
    ~db_size:n ~ops_per_worker:5_000;
  ignore (Fastver.verify t);
  (* every record must hold either its initial value or a value some worker
     legitimately wrote (8-byte YCSB update payloads) *)
  for i = 0 to n - 1 do
    match Fastver.get t (Int64.of_int i) with
    | None -> Alcotest.failf "record %d vanished" i
    | Some v ->
        if
          not
            (String.length v = 8
            || String.equal v (Printf.sprintf "v%06d" i))
        then Alcotest.failf "record %d has impossible value %S" i v
  done;
  ignore (Fastver.verify t);
  let s = Fastver.stats t in
  Alcotest.(check bool) "verifier healthy" true
    (Fastver.verifier_failure t = None);
  Alcotest.(check bool) "work happened" true (s.blum_fast_path > 0)

let test_parallel_with_auto_verify () =
  let n = 1_000 in
  let t = mk ~batch:2_000 n in
  Fastver.Parallel.run_ycsb t ~spec:Fastver_workload.Ycsb.workload_a
    ~db_size:n ~ops_per_worker:4_000;
  ignore (Fastver.verify t);
  Alcotest.(check bool) "several epochs verified concurrently" true
    (Fastver.current_epoch t >= 3);
  Alcotest.(check bool) "verifier healthy" true
    (Fastver.verifier_failure t = None)

let test_parallel_disjoint_ranges_deterministic () =
  (* With each domain confined to its own key range, the final state is the
     same as a sequential run of each stream. *)
  let workers = 3 and per_range = 200 in
  let n = workers * per_range in
  let t = mk ~workers n in
  let expected = Hashtbl.create 64 in
  (* emulate Parallel.run_ycsb's effect with hand-rolled disjoint streams:
     run them through domains via the public API *)
  let body wid () =
    let rng = Random.State.make [| 77; wid |] in
    for i = 1 to 2_000 do
      let k = Int64.of_int ((wid * per_range) + Random.State.int rng per_range) in
      if Random.State.int rng 2 = 0 then ignore (Fastver.get t k)
      else Fastver.put t k (Printf.sprintf "w%d-%d" wid i)
    done
  in
  let domains =
    Array.init (workers - 1) (fun i -> Domain.spawn (body (i + 1)))
  in
  body 0 ();
  Array.iter Domain.join domains;
  (* replay sequentially into a model *)
  for wid = 0 to workers - 1 do
    let rng = Random.State.make [| 77; wid |] in
    for i = 1 to 2_000 do
      let k = Int64.of_int ((wid * per_range) + Random.State.int rng per_range) in
      if Random.State.int rng 2 = 0 then ()
      else Hashtbl.replace expected k (Printf.sprintf "w%d-%d" wid i)
    done
  done;
  ignore (Fastver.verify t);
  Hashtbl.iter
    (fun k v -> Alcotest.(check vo) "disjoint-range determinism" (Some v) (Fastver.get t k))
    expected

let test_parallel_contention_cas () =
  (* All domains hammer a tiny keyspace: the speculative CAS of §5.3 must
     retry (Example 5.2) and never lose integrity. *)
  let n = 8 in
  let t = mk ~workers:4 n in
  Fastver.Parallel.run_ycsb t ~spec:Fastver_workload.Ycsb.workload_a
    ~db_size:n ~ops_per_worker:10_000;
  ignore (Fastver.verify t);
  Alcotest.(check bool) "verifier healthy under contention" true
    (Fastver.verifier_failure t = None)

let test_worker_failed_propagates () =
  (* A tampered record raises Integrity_violation inside whichever worker
     domain touches it first; run_ycsb must join every domain and surface
     the failure as Worker_failed, never swallow it or leave a domain
     running. *)
  let n = 64 in
  let t = mk n in
  Fastver.Testing.corrupt_store t 3L (Some "EVIL");
  match
    Fastver.Parallel.run_ycsb t ~spec:Fastver_workload.Ycsb.workload_a
      ~db_size:n ~ops_per_worker:5_000
  with
  | () -> Alcotest.fail "tampering survived a parallel run"
  | exception Fastver.Parallel.Worker_failed (wid, Fastver.Integrity_violation _)
    ->
      Alcotest.(check bool) "worker id in range" true (wid >= 0 && wid < 4)
  | exception e ->
      Alcotest.failf "expected Worker_failed(_, Integrity_violation), got %s"
        (Printexc.to_string e)

let test_verify_races_concurrent_process () =
  (* Stop-the-world verification scans (which themselves fan out to slice
     domains) racing live operations from other domains: no deadlock, every
     certificate checks out, verifier stays healthy. *)
  let n = 512 in
  let t = mk ~workers:4 n in
  let stop = Atomic.make false in
  let writer wid () =
    let rng = Random.State.make [| 11; wid |] in
    while not (Atomic.get stop) do
      let k = Int64.of_int (Random.State.int rng n) in
      if Random.State.int rng 3 = 0 then ignore (Fastver.get t k)
      else Fastver.put t k (Printf.sprintf "w%d" wid)
    done
  in
  let domains = Array.init 3 (fun i -> Domain.spawn (writer (i + 1))) in
  let e0 = Fastver.current_epoch t in
  let certs = Array.init 20 (fun _ -> Fastver.verify t) in
  Atomic.set stop true;
  Array.iter Domain.join domains;
  Array.iteri
    (fun i cert ->
      Alcotest.(check bool)
        (Printf.sprintf "certificate %d valid" i)
        true
        (Fastver.check_epoch_certificate t ~epoch:(e0 + i) cert))
    certs;
  Alcotest.(check bool) "verifier healthy" true
    (Fastver.verifier_failure t = None);
  (* per-worker scan timings surfaced for every worker *)
  let busy = (Fastver.stats t).worker_busy_s in
  Array.iteri
    (fun wid s ->
      Alcotest.(check bool)
        (Printf.sprintf "worker %d scan time recorded" wid)
        true (s > 0.))
    busy

let test_parallel_scan_cert_matches_sequential () =
  (* The multiset fold is order-independent: the domain-parallel scan must
     seal the same epoch certificate as a single-worker sequential scan of
     the same logical history. *)
  let run workers =
    let t = mk ~workers 64 in
    for i = 0 to 299 do
      Fastver.put t (Int64.of_int (i mod 50)) (Printf.sprintf "x%d" i)
    done;
    let e = Fastver.current_epoch t in
    let c = Fastver.verify t in
    Alcotest.(check bool) "certificate checks" true
      (Fastver.check_epoch_certificate t ~epoch:e c);
    (e, c)
  in
  let e1, c1 = run 1 in
  let e4, c4 = run 4 in
  Alcotest.(check int) "same epoch" e1 e4;
  Alcotest.(check string) "identical certificate" c1 c4

let test_background_cert_matches_quiesced () =
  (* The tentpole guarantee: a background scan — epoch sealed under the
     brief barrier, verification run against the snapshot while later
     traffic lands in the next epoch — must verify the same epochs and seal
     bit-identical certificates to a stop-the-world scan of the same
     logical history. *)
  let run bg =
    let t = mk ~workers:4 ~bg 64 in
    for i = 0 to 299 do
      Fastver.put t (Int64.of_int (i mod 50)) (Printf.sprintf "x%d" i)
    done;
    let e1 = Fastver.current_epoch t in
    let c1 = Fastver.verify t in
    (* second epoch: traffic that crossed the first seal must balance *)
    for i = 0 to 99 do
      Fastver.put t (Int64.of_int (i mod 50)) (Printf.sprintf "y%d" i)
    done;
    let e2 = Fastver.current_epoch t in
    let c2 = Fastver.verify t in
    Alcotest.(check bool) "certificates check" true
      (Fastver.check_epoch_certificate t ~epoch:e1 c1
      && Fastver.check_epoch_certificate t ~epoch:e2 c2);
    ((e1, c1), (e2, c2))
  in
  let (e1q, c1q), (e2q, c2q) = run false in
  let (e1b, c1b), (e2b, c2b) = run true in
  Alcotest.(check int) "same first epoch" e1q e1b;
  Alcotest.(check string) "identical first certificate" c1q c1b;
  Alcotest.(check int) "same second epoch" e2q e2b;
  Alcotest.(check string) "identical second certificate" c2q c2b

let test_background_verify_races_writers () =
  (* Writer domains keep hammering while verify_async scans run truly in
     the background: every scan must certify its sealed epoch, consecutive
     scans must cover consecutive epochs, and the foreground must make
     progress while a scan is in flight. *)
  let n = 512 in
  let t = mk ~workers:4 ~bg:true n in
  let stop = Atomic.make false in
  let writer wid () =
    let rng = Random.State.make [| 23; wid |] in
    while not (Atomic.get stop) do
      let k = Int64.of_int (Random.State.int rng n) in
      if Random.State.int rng 3 = 0 then ignore (Fastver.get t k)
      else Fastver.put t k (Printf.sprintf "w%d" wid)
    done
  in
  let domains = Array.init 3 (fun i -> Domain.spawn (writer (i + 1))) in
  let e0 = Fastver.current_epoch t in
  let scans = 12 in
  let results = Array.init scans (fun _ -> Atomic.make None) in
  let overlap = ref 0 in
  for i = 0 to scans - 1 do
    let ops_before = (Fastver.stats t).ops in
    Fastver.verify_async t ~on_complete:(fun r ->
        Atomic.set results.(i) (Some r));
    while Atomic.get results.(i) = None do
      if Fastver.verify_in_flight t && (Fastver.stats t).ops > ops_before
      then incr overlap;
      Domain.cpu_relax ()
    done
  done;
  Atomic.set stop true;
  Array.iter Domain.join domains;
  Fastver.wait_verify t;
  Array.iteri
    (fun i r ->
      match Atomic.get r with
      | Some (Ok (epoch, cert)) ->
          Alcotest.(check int) (Printf.sprintf "scan %d epoch" i) (e0 + i)
            epoch;
          Alcotest.(check bool)
            (Printf.sprintf "scan %d certificate" i)
            true
            (Fastver.check_epoch_certificate t ~epoch cert)
      | Some (Error e) ->
          Alcotest.failf "background scan %d failed: %s" i
            (Printexc.to_string e)
      | None -> Alcotest.failf "background scan %d never completed" i)
    results;
  Alcotest.(check bool) "foreground progressed during in-flight scans" true
    (!overlap > 0);
  ignore (Fastver.verify t);
  Alcotest.(check bool) "verifier healthy" true
    (Fastver.verifier_failure t = None)

let test_background_auto_verify () =
  (* With background_verify and a batch size, maybe_verify launches scans
     from whichever domain trips the threshold; they must all certify and
     the epoch counter must advance well past the start. *)
  let n = 1_000 in
  let t = mk ~batch:2_000 ~bg:true n in
  Fastver.Parallel.run_ycsb t ~spec:Fastver_workload.Ycsb.workload_a ~db_size:n
    ~ops_per_worker:4_000;
  Fastver.wait_verify t;
  ignore (Fastver.verify t);
  Alcotest.(check bool) "several epochs verified in the background" true
    (Fastver.current_epoch t >= 3);
  Alcotest.(check bool) "verifier healthy" true
    (Fastver.verifier_failure t = None)

let test_lock_order_enforced () =
  let t = mk ~workers:3 8 in
  Fastver.Testing.enforce_lock_order true;
  Fun.protect ~finally:(fun () -> Fastver.Testing.enforce_lock_order false)
  @@ fun () ->
  (* the documented order is accepted: tree first, workers ascending *)
  Fastver.Testing.with_shard_lock t 0 (fun () ->
      Fastver.Testing.with_worker_lock t 0 (fun () ->
          Fastver.Testing.with_worker_lock t 2 (fun () -> ())));
  let expect_violation name f =
    match f () with
    | () -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s names the order" name)
          true
          (String.length msg >= 10 && String.sub msg 0 10 = "lock order")
  in
  expect_violation "worker-then-tree" (fun () ->
      Fastver.Testing.with_worker_lock t 1 (fun () ->
          Fastver.Testing.with_shard_lock t 0 (fun () -> ())));
  expect_violation "descending workers" (fun () ->
      Fastver.Testing.with_worker_lock t 2 (fun () ->
          Fastver.Testing.with_worker_lock t 1 (fun () -> ())));
  expect_violation "same worker twice" (fun () ->
      Fastver.Testing.with_worker_lock t 1 (fun () ->
          Fastver.Testing.with_worker_lock t 1 (fun () -> ())));
  (* shard tree locks compose in ascending shard id, before workers *)
  Fastver.Testing.with_shard_lock t 0 (fun () ->
      Fastver.Testing.with_shard_lock t 2 (fun () ->
          Fastver.Testing.with_worker_lock t 1 (fun () -> ())));
  expect_violation "descending shards" (fun () ->
      Fastver.Testing.with_shard_lock t 2 (fun () ->
          Fastver.Testing.with_shard_lock t 0 (fun () -> ())));
  expect_violation "worker-then-shard" (fun () ->
      Fastver.Testing.with_worker_lock t 0 (fun () ->
          Fastver.Testing.with_shard_lock t 1 (fun () -> ())));
  (* the leaves: redeferred and cold may sit under tree/worker locks, but
     nothing nests under a leaf, and bg requires nothing held at all *)
  Fastver.Testing.with_shard_lock t 1 (fun () ->
      Fastver.Testing.with_redeferred_lock t (fun () -> ()));
  Fastver.Testing.with_worker_lock t 2 (fun () ->
      Fastver.Testing.with_cold_lock t (fun () -> ()));
  Fastver.Testing.with_bg_lock t (fun () -> ());
  expect_violation "shard under redeferred" (fun () ->
      Fastver.Testing.with_redeferred_lock t (fun () ->
          Fastver.Testing.with_shard_lock t 0 (fun () -> ())));
  expect_violation "worker under cold" (fun () ->
      Fastver.Testing.with_cold_lock t (fun () ->
          Fastver.Testing.with_worker_lock t 0 (fun () -> ())));
  expect_violation "cold under redeferred" (fun () ->
      Fastver.Testing.with_redeferred_lock t (fun () ->
          Fastver.Testing.with_cold_lock t (fun () -> ())));
  expect_violation "bg under tree" (fun () ->
      Fastver.Testing.with_shard_lock t 0 (fun () ->
          Fastver.Testing.with_bg_lock t (fun () -> ())));
  expect_violation "redeferred under bg" (fun () ->
      Fastver.Testing.with_bg_lock t (fun () ->
          Fastver.Testing.with_redeferred_lock t (fun () -> ())));
  (* real operations — fast path, slow path, a full parallel scan — all
     follow the documented order under enforcement *)
  for i = 0 to 7 do
    Fastver.put t (Int64.of_int i) "x"
  done;
  ignore (Fastver.verify t);
  Alcotest.(check bool) "verifier healthy under enforcement" true
    (Fastver.verifier_failure t = None)

let test_parallel_then_tamper () =
  let n = 500 in
  let t = mk n in
  Fastver.Parallel.run_ycsb t ~spec:Fastver_workload.Ycsb.workload_a
    ~db_size:n ~ops_per_worker:2_000;
  ignore (Fastver.verify t);
  Fastver.Testing.corrupt_store t 7L (Some "EVIL");
  match
    ignore (Fastver.get t 7L);
    ignore (Fastver.verify t)
  with
  | exception Fastver.Integrity_violation _ -> ()
  | () -> Alcotest.fail "tampering survived a parallel run"

let suite =
  ( "parallel",
    [
      Alcotest.test_case "updates + verify" `Slow test_parallel_updates_and_verify;
      Alcotest.test_case "auto verify across domains" `Slow
        test_parallel_with_auto_verify;
      Alcotest.test_case "disjoint ranges deterministic" `Slow
        test_parallel_disjoint_ranges_deterministic;
      Alcotest.test_case "contended CAS" `Slow test_parallel_contention_cas;
      Alcotest.test_case "tamper after parallel run" `Slow
        test_parallel_then_tamper;
      Alcotest.test_case "Worker_failed propagates" `Slow
        test_worker_failed_propagates;
      Alcotest.test_case "verify races concurrent process" `Slow
        test_verify_races_concurrent_process;
      Alcotest.test_case "parallel scan certificate = sequential" `Quick
        test_parallel_scan_cert_matches_sequential;
      Alcotest.test_case "background certificate = quiesced" `Quick
        test_background_cert_matches_quiesced;
      Alcotest.test_case "background verify races writers" `Slow
        test_background_verify_races_writers;
      Alcotest.test_case "background auto verify" `Slow
        test_background_auto_verify;
      Alcotest.test_case "lock order enforced" `Quick test_lock_order_enforced;
    ] )
