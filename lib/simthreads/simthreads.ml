type result = {
  workers : int;
  ops : int;
  modeled_seconds : float;
  throughput : float;
  per_worker_busy_s : float array;
  serial_s : float;
  verify_latency_s : float;
}

let paper_interference w =
  if w <= 1 then 1.0 else Float.pow 0.875 (Float.log2 (float_of_int w))

let makespan ~interference ~workers busy serial =
  let max_busy = Array.fold_left Float.max 0.0 busy in
  (max_busy /. interference workers) +. serial

let run_hybrid ?(interference = paper_interference) ~config ~db_size ~ops
    ~spec () =
  let t = Fastver.create ~config () in
  Fastver.load t
    (Array.init db_size (fun i ->
         (Int64.of_int i, Fastver_workload.Ycsb.initial_value (Int64.of_int i))));
  let gen =
    Fastver_workload.Ycsb.create ~seed:config.seed ~db_size spec
  in
  Fastver.run_ops t gen ops;
  ignore (Fastver.verify t);
  let s = Fastver.stats t in
  let workers = Fastver.n_shards t in
  let enclave_s = Int64.to_float (Fastver.enclave_overhead_ns t) /. 1e9 in
  (* Enclave transitions are per-worker work; spread them like busy time. *)
  let busy =
    Array.map
      (fun b -> b +. (enclave_s /. float_of_int workers))
      s.worker_busy_s
  in
  let modeled = makespan ~interference ~workers busy s.serial_s in
  let verifies = max 1 s.verifies in
  let verify_latency =
    (((s.verify_time_s -. s.serial_s) /. float_of_int workers)
    /. interference workers
    +. s.serial_s)
    /. float_of_int verifies
  in
  {
    workers;
    ops = s.ops;
    modeled_seconds = modeled;
    throughput = float_of_int s.ops /. modeled;
    per_worker_busy_s = busy;
    serial_s = s.serial_s;
    verify_latency_s = verify_latency;
  }

let run_dv_micro ?(interference = paper_interference) ~workers ~db_size ~ops
    () =
  let open Fastver_baselines in
  let shard_size = max 1 (db_size / workers) in
  let shard_ops = ops / workers in
  let busy = Array.make workers 0.0 in
  let latencies = ref 0.0 in
  for w = 0 to workers - 1 do
    Gc.full_major ();
    let records =
      Array.init shard_size (fun i ->
          (Int64.of_int i, Fastver_workload.Ycsb.initial_value (Int64.of_int i)))
    in
    let dv = Dv_store.create records in
    let rng = Random.State.make [| 97; w |] in
    let t0 = Unix.gettimeofday () in
    for i = 1 to shard_ops do
      let k = Int64.of_int (Random.State.int rng shard_size) in
      if i land 1 = 0 then ignore (Dv_store.get dv k)
      else Dv_store.put dv k "01234567"
    done;
    Dv_store.verify dv;
    busy.(w) <- Unix.gettimeofday () -. t0;
    latencies := !latencies +. Dv_store.last_verify_latency_s dv
  done;
  let modeled = makespan ~interference ~workers busy 0.0 in
  {
    workers;
    ops = shard_ops * workers;
    modeled_seconds = modeled;
    throughput = float_of_int (shard_ops * workers) /. modeled;
    per_worker_busy_s = busy;
    serial_s = 0.0;
    verify_latency_s = !latencies /. float_of_int workers;
  }
