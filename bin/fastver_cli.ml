(* Command-line driver for FastVer: load a database, run YCSB workloads,
   inspect verification statistics, or demonstrate tamper detection. *)

open Cmdliner

let ( $$ ) f a = Term.(const f $ a)

(* ------------------------------------------------------------------ *)
(* Shared options                                                      *)
(* ------------------------------------------------------------------ *)

let db_size =
  Arg.(value & opt int 100_000 & info [ "n"; "db-size" ] ~docv:"N"
         ~doc:"Number of records loaded initially.")

let ops =
  Arg.(value & opt int 200_000 & info [ "ops" ] ~docv:"OPS"
         ~doc:"Operations to run.")

let workers =
  Arg.(value & opt int 4 & info [ "w"; "workers" ] ~docv:"W"
         ~doc:"Shards: keyspace partitions, each with its own Merkle tree, \
               verifier and worker (an executor when serving).")

let batch =
  Arg.(value & opt int 32_768 & info [ "batch" ] ~docv:"B"
         ~doc:"Operations between verification scans (0 = only at the end).")

let depth =
  Arg.(value & opt int 6 & info [ "d"; "depth" ] ~docv:"D"
         ~doc:"Merkle frontier depth kept under deferred verification.")

let cache =
  let default = Fastver.Config.default.cache_capacity
  and entry = Fastver_verifier.Verifier.entry_bytes in
  Arg.(value & opt int default & info [ "cache" ] ~docv:"ENTRIES"
         ~doc:(Printf.sprintf
                 "Verifier cache entries per shard. Each entry is charged %d \
                  bytes of the enclave's 192 MiB trusted memory (the default \
                  of %d costs %d MiB per shard); a configuration over that \
                  budget is refused at start-up."
                 entry default
                 (default * entry / (1024 * 1024))))

let workload =
  let wl = Arg.enum [ ("a", `A); ("b", `B); ("c", `C); ("e", `E) ] in
  Arg.(value & opt wl `A & info [ "workload" ] ~docv:"A|B|C|E"
         ~doc:"YCSB workload mix.")

let theta =
  Arg.(value & opt float 0.9 & info [ "theta" ] ~docv:"T"
         ~doc:"Zipfian skew (0 = uniform).")

let algo =
  let alg =
    Arg.enum
      [ ("blake2s", Record_enc.Blake2s); ("blake2b", Record_enc.Blake2b);
        ("sha256", Record_enc.Sha256) ]
  in
  Arg.(value & opt alg Record_enc.Blake2s & info [ "hash" ]
         ~docv:"ALGO" ~doc:"Merkle hash function.")

let enclave_model =
  let model =
    Arg.enum
      [ ("zero", Cost_model.zero); ("sim", Cost_model.simulated);
        ("sgx", Cost_model.sgx) ]
  in
  Arg.(value & opt model Cost_model.simulated & info [ "enclave" ]
         ~docv:"zero|sim|sgx" ~doc:"Enclave cost model.")

let no_auth =
  Arg.(value & flag & info [ "no-auth" ]
         ~doc:"Skip client MACs and result signatures (benchmark mode).")

let parallel =
  Arg.(value & flag & info [ "parallel" ]
         ~doc:"Drive the workload through OCaml domains (one per worker) \
               instead of the sequential driver.")

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")

let die fmt = Fmt.kstr (fun s -> Logs.err (fun m -> m "%s" s); exit 2) fmt

let mk_config workers batch depth cache algo enclave_model no_auth seed =
  {
    Fastver.Config.default with
    n_workers = workers;
    batch_size = batch;
    frontier_levels = depth;
    cache_capacity = cache;
    algo;
    cost_model = enclave_model;
    authenticate_clients = not no_auth;
    seed;
  }

let spec_of workload theta =
  let open Fastver_workload.Ycsb in
  let base =
    match workload with
    | `A -> workload_a
    | `B -> workload_b
    | `C -> workload_c
    | `E -> workload_e
  in
  with_dist base (Zipfian theta)

let load_system config db_size =
  let t =
    try Fastver.create ~config () with Invalid_argument e -> die "%s" e
  in
  Logs.app (fun m -> m "loading %d records…" db_size);
  let t0 = Unix.gettimeofday () in
  Fastver.load t
    (Array.init db_size (fun i ->
         (Int64.of_int i, Fastver_workload.Ycsb.initial_value (Int64.of_int i))));
  Logs.app (fun m -> m "loaded in %.2fs" (Unix.gettimeofday () -. t0));
  t

let report t ops wall =
  let s = Fastver.stats t in
  let eff = wall +. (Int64.to_float (Fastver.enclave_overhead_ns t) /. 1e9) in
  let v = Fastver.verifier_stats t in
  Logs.app (fun m ->
      m "@[<v>ops            : %d in %.2fs wall (%.2fs effective)@,\
         throughput     : %.0f ops/s@,\
         fast path      : %d ops (%.1f%%), merkle path: %d ops@,\
         verifications  : %d scans, mean latency %.3fs, max pending batch %d@,\
         verifier ops   : addm=%d evictm=%d addb=%d evictb=%d evictbm=%d@,\
         migrations     : %d data, %d frontier records@,\
         enclave        : %d transitions, %.3fs charged@]"
        ops wall eff
        (float_of_int ops /. eff)
        s.blum_fast_path
        (100.0 *. float_of_int s.blum_fast_path /. float_of_int (max 1 s.ops))
        s.merkle_path s.verifies
        (s.verify_time_s /. float_of_int (max 1 s.verifies))
        (Fastver.config t).batch_size v.n_add_m v.n_evict_m v.n_add_b
        v.n_evict_b v.n_evict_bm s.migrated_data s.migrated_frontier
        (Enclave.transitions (Fastver.enclave_handle t))
        (Int64.to_float (Fastver.enclave_overhead_ns t) /. 1e9))

(* ------------------------------------------------------------------ *)
(* run: drive a workload                                               *)
(* ------------------------------------------------------------------ *)

let run_cmd db_size ops workers batch depth cache workload theta algo
    enclave_model no_auth parallel seed =
  if db_size < 1 then die "--db-size must be at least 1";
  if ops < 0 then die "--ops must be non-negative";
  if workers < 1 then die "--workers must be at least 1";
  if theta < 0.0 || theta >= 1.0 then die "--theta must be in [0, 1)";
  let config =
    mk_config workers batch depth cache algo enclave_model no_auth seed
  in
  Logs.app (fun m -> m "config: %a" Fastver.Config.pp config);
  let t = load_system config db_size in
  let gen = Fastver_workload.Ycsb.create ~seed ~db_size (spec_of workload theta) in
  let t0 = Unix.gettimeofday () in
  if parallel then
    Fastver.Parallel.run_ycsb t ~spec:(spec_of workload theta) ~db_size
      ~ops_per_worker:(ops / workers)
  else Fastver.run_ops t gen ops;
  let epoch = Fastver.current_epoch t in
  let cert = Fastver.verify t in
  let wall = Unix.gettimeofday () -. t0 in
  report t ops wall;
  Logs.app (fun m ->
      m "epoch %d certificate: %s… (checks: %b)" epoch
        (Fastver_crypto.Bytes_util.to_hex (String.sub cert 0 8))
        (Fastver.check_epoch_certificate t ~epoch cert))

(* ------------------------------------------------------------------ *)
(* attack: tamper with the host and watch detection                    *)
(* ------------------------------------------------------------------ *)

let attack_cmd db_size workers depth =
  if db_size < 8 then die "--db-size must be at least 8";
  let config =
    mk_config workers 0 depth 512 Record_enc.Blake2s Cost_model.zero false 42
  in
  let t = load_system config db_size in
  ignore (Fastver.get t 7L);
  ignore (Fastver.verify t);
  Logs.app (fun m -> m "tampering with record 7 in the untrusted store…");
  Fastver.Testing.corrupt_store t 7L (Some "EVIL!!");
  (try
     let v = Fastver.get t 7L in
     Logs.app (fun m ->
         m "forged read returned %a — provisional only; verifying…"
           Fmt.(option ~none:(any "null") string) v);
     ignore (Fastver.verify t);
     Logs.err (fun m -> m "BUG: tampering not detected")
   with Fastver.Integrity_violation reason ->
     Logs.app (fun m -> m "DETECTED: %s" reason))

(* ------------------------------------------------------------------ *)
(* serve / client-bench: the network layer                             *)
(* ------------------------------------------------------------------ *)

module Net = Fastver_net

let parse_addr s =
  match Net.Addr.parse s with Ok a -> a | Error e -> die "%s" e

(* Bulk loads are trusted and out-of-band (not streamed): a store that
   bootstraps from a primary's stream installs the same initial database
   the primary's [load_system] did. *)
let initial_load db_size sys =
  Logs.app (fun m -> m "fresh follower: loading %d records…" db_size);
  Fastver.load sys
    (Array.init db_size (fun i ->
         (Int64.of_int i, Fastver_workload.Ycsb.initial_value (Int64.of_int i))))

let stopping = Atomic.make false

(* Block until SIGINT or SIGTERM (or until [halted] holds), dumping the
   registry every [metrics_interval] seconds. *)
let await_signal ?(halted = fun () -> false) ?metrics_interval sys =
  let on_signal _ = Atomic.set stopping true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  let last_dump = ref (Unix.gettimeofday ()) in
  while not (Atomic.get stopping || halted ()) do
    (try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    match metrics_interval with
    | Some secs when Unix.gettimeofday () -. !last_dump >= secs ->
        last_dump := Unix.gettimeofday ();
        Logs.app (fun m ->
            m "metrics %s"
              (Fastver_obs.Registry.to_json (Fastver.registry (sys ()))))
    | _ -> ()
  done

(* A stopped read server's closing counters. *)
let report_served srv t =
  let c = Net.Server.counters srv and s = Fastver.stats t in
  Logs.app (fun m ->
      m
        "served %d requests on %d connections in %d drains (largest %d); %d \
         protocol errors, %d failed ops; store at %d ops, epoch %d"
        c.served c.accepted c.batches c.max_batch c.proto_errors c.op_failures
        s.ops (Fastver.current_epoch t))

(* The tail [serve --replication-listen] and [follow] share: run the node
   until a signal. A halted node logs its evidence and keeps serving its
   already-verified state until told to stop, then exits 3. *)
let run_node ?metrics_interval f =
  let module F = Fastver_replica.Follower in
  F.start f;
  let sys () = F.system f in
  await_signal ~halted:(fun () -> F.state f = F.Halted) ?metrics_interval sys;
  (match F.failure f with
  | Some (epoch, reason) ->
      Logs.err (fun m ->
          m "INTEGRITY VIOLATION at epoch %d: %s — follower halted; \
             already-verified state still serves"
            epoch reason);
      await_signal ?metrics_interval sys
  | None -> ());
  F.stop f;
  Option.iter (fun srv -> report_served srv (sys ())) (F.server f);
  Logs.app (fun m ->
      m "node stopped: %d ops applied over %d verified epochs; served %d gets \
         locally"
        (F.applied_ops f) (F.verified_epoch f + 1) (Fastver.stats (sys ())).gets);
  if F.failure f <> None then exit 3

let serve_cmd listen db_size workers batch depth cache algo
    enclave_model no_auth seed batch_limit ckpt_dir metrics_interval cold_dir
    cold_threshold repl_listen repl_peers =
  if db_size < 1 then die "--db-size must be at least 1";
  if workers < 1 then die "--workers must be at least 1";
  if cold_threshold < 1 then die "--cold-threshold must be at least 1";
  let addr = parse_addr listen in
  let config =
    {
      (mk_config workers batch depth cache algo enclave_model no_auth seed)
      with
      cold_dir;
      cold_threshold;
    }
  in
  let t =
    match ckpt_dir with
    | None -> load_system config db_size
    | Some dir -> (
        (* Durable serving: resume from the newest committed checkpoint
           generation if there is one, or load fresh when the directory
           holds no checkpoint at all; either way, checkpoint after every
           verification scan from here on. Any other recovery error —
           tampering, corruption, a legacy layout — is fatal: serving fresh
           with auto-checkpointing into the same directory would prune the
           old generations a couple of scans later, converting a transient
           or adversarial recovery failure into permanent data loss. *)
        match Fastver.recover ~config ~dir () with
        | Ok t ->
            Logs.app (fun m ->
                m "recovered from checkpoint in %s (verified epoch %d)" dir
                  (Fastver.current_epoch t));
            t
        | Error e when e = Fastver.err_no_checkpoint ->
            Logs.app (fun m -> m "no checkpoint in %s; loading fresh" dir);
            load_system config db_size
        | Error e ->
            die
              "cannot recover from %s: %s — refusing to serve fresh over an \
               existing checkpoint directory (point --checkpoint-dir \
               elsewhere to start over)"
              dir e)
  in
  Option.iter (fun dir -> Fastver.set_auto_checkpoint t ~dir) ckpt_dir;
  if repl_peers <> [] && repl_listen = None then
    die "--repl-peer requires --replication-listen";
  let scfg = { Net.Server.default_config with batch_limit } in
  let srv =
    match Net.Server.create ~config:scfg t ~listen:addr with
    | Error e -> die "%s" e
    | Ok srv -> srv
  in
  Logs.app (fun m ->
      m "serving on %a (auth %s) — Ctrl-C to stop" Net.Addr.pp
        (Net.Server.bound_addr srv)
        (if no_auth then "off" else "on"));
  match repl_listen with
  | None ->
      Net.Server.start srv;
      await_signal ?metrics_interval (fun () -> t);
      Net.Server.stop srv;
      report_served srv t
  | Some s -> (
      (* A replication node that starts out leading: lib/replica owns its
         tee ordering, its watch for a rival primary and its demotion. *)
      let election =
        Fastver_replica.Follower.electable
          ~peers:(List.map parse_addr repl_peers)
          ~promote_batch:batch ?checkpoint_dir:ckpt_dir (parse_addr s)
      in
      match
        Fastver_replica.Follower.leading ~load:(initial_load db_size)
          ~election ~server:srv ~dir:(Filename.get_temp_dir_name ()) t
      with
      | Error e -> die "replication listener: %s" e
      | Ok f -> run_node ?metrics_interval f)

let recover_cmd dir workers batch depth cache algo enclave_model no_auth seed
    cold_dir cold_threshold =
  let config =
    {
      (mk_config workers batch depth cache algo enclave_model no_auth seed)
      with cold_dir; cold_threshold;
    }
  in
  match Fastver.recover ~config ~dir () with
  | Error e -> die "recover: %s" e
  | Ok t -> (
      (match Fastver.checkpoint_chain t ~dir with
      | [] -> ()
      | base :: deltas ->
          Logs.app (fun m ->
              m "applied checkpoint chain: base ckpt-%d, %d delta%s%s" base
                (List.length deltas)
                (if List.length deltas = 1 then "" else "s")
                (match deltas with
                | [] -> ""
                | _ ->
                    " ("
                    ^ String.concat " "
                        (List.map (Printf.sprintf "ckpt-%d") deltas)
                    ^ ")")));
      let epoch = Fastver.current_epoch t in
      match Fastver.verify t with
      | exception Fastver.Integrity_violation reason ->
          die "recovered state failed verification: %s" reason
      | cert ->
          if not (Fastver.check_epoch_certificate t ~epoch cert) then
            die "recovered state failed certificate check";
          Logs.app (fun m ->
              m "recovered from %s: epoch %d verified, certificate OK" dir
                epoch))

(* ------------------------------------------------------------------ *)
(* follow: replication follower serving verified reads                 *)
(* ------------------------------------------------------------------ *)

let follow_cmd primary listen db_size workers depth cache algo
    enclave_model no_auth seed dir electable peers priority =
  if db_size < 1 then die "--db-size must be at least 1";
  if workers < 1 then die "--workers must be at least 1";
  let primary_addr = parse_addr primary in
  let listen_addr = Option.map parse_addr listen in
  if electable = None && (peers <> [] || priority <> 0) then
    die "--peer/--priority require --electable";
  let election =
    Option.map
      (fun s ->
        Fastver_replica.Follower.electable
          ~peers:(List.map parse_addr peers)
          ~priority ~checkpoint_dir:dir (parse_addr s))
      electable
  in
  let config = mk_config workers 0 depth cache algo enclave_model no_auth seed in
  match
    Fastver_replica.Follower.create ~config ~load:(initial_load db_size)
      ?election
      ~primary:primary_addr ?listen:listen_addr ~dir ()
  with
  | Error e -> die "follow: %s" e
  | Ok f ->
      Logs.app (fun m ->
          m "follower of %a serving reads on %s%s" Net.Addr.pp primary_addr
            (Option.value listen ~default:"no listener")
            (match electable with
            | Some s ->
                Printf.sprintf "; electable on %s (priority %d, %d peers)" s
                  priority (List.length peers)
            | None -> ""));
      run_node f

(* ------------------------------------------------------------------ *)
(* stats: fetch and reconcile a live metrics snapshot                  *)
(* ------------------------------------------------------------------ *)

(* The registry's JSON renderer emits a fixed field order
   ("name","labels",…) with label keys sorted, so an exact-prefix substring
   search extracts any value deterministically — no JSON parser needed. *)
let find_sub hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i =
    if i + n > h then None
    else if String.sub hay i n = needle then Some (i + n)
    else go (i + 1)
  in
  go 0

let num_after s i =
  let j = ref i in
  while
    !j < String.length s
    &&
    match s.[!j] with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  do
    incr j
  done;
  float_of_string_opt (String.sub s i (!j - i))

let counter_of json ?(labels = "{}") name =
  match
    find_sub json
      (Printf.sprintf "{\"name\":\"%s\",\"labels\":%s,\"value\":" name labels)
  with
  | None -> None
  | Some i -> num_after json i

(* A histogram object holds no nested braces after its labels, so the
   first '}' past the prefix closes it. *)
let hist_of json ?(labels = "{}") name field =
  match
    find_sub json (Printf.sprintf "{\"name\":\"%s\",\"labels\":%s," name labels)
  with
  | None -> None
  | Some i -> (
      match String.index_from_opt json i '}' with
      | None -> None
      | Some fin -> (
          let seg = String.sub json i (fin - i) in
          match find_sub seg (Printf.sprintf "\"%s\":" field) with
          | None -> None
          | Some j -> num_after seg j))

let stats_cmd connect format check =
  let addr = parse_addr connect in
  match Net.Client.connect addr with
  | Error e -> die "%s" e
  | Ok conn ->
      let json = Net.Client.metrics conn ~format:Net.Wire.Json in
      (match format with
      | `Json -> print_endline json
      | `Prometheus ->
          print_string (Net.Client.metrics conn ~format:Net.Wire.Prometheus)
      | `Table ->
          let row name v = Printf.printf "%-36s %s\n" name v in
          let c ?labels disp name =
            row disp
              (match counter_of json ?labels name with
              | Some v -> Printf.sprintf "%.0f" v
              | None -> "-")
          in
          let tier tier =
            c
              ~labels:(Printf.sprintf "{\"tier\":\"%s\"}" tier)
              (Printf.sprintf "ops (%s tier)" tier)
              "fastver_ops_total"
          in
          tier "blum";
          tier "merkle";
          tier "cached";
          List.iter
            (fun kind ->
              let labels = Printf.sprintf "{\"kind\":\"%s\"}" kind in
              c ~labels
                (Printf.sprintf "checkpoint generations (%s)" kind)
                "fastver_checkpoint_generations_total";
              c ~labels
                (Printf.sprintf "checkpoint bytes (%s)" kind)
                "fastver_checkpoint_bytes_total")
            [ "base"; "delta" ];
          c "checkpoint write-backs" "fastver_checkpoint_writebacks_total";
          List.iter
            (fun phase ->
              row
                (Printf.sprintf "checkpoint %s (mean)" phase)
                (match
                   hist_of json
                     ~labels:(Printf.sprintf "{\"phase\":\"%s\"}" phase)
                     "fastver_checkpoint_phase_seconds" "mean"
                 with
                | Some v -> Printf.sprintf "%.6fs" v
                | None -> "-"))
            [ "writeback"; "summary"; "data"; "trees"; "manifest"; "retention" ];
          List.iter
            (fun (disp, name) -> c disp name)
            [
              ("gets", "fastver_gets_total");
              ("puts", "fastver_puts_total");
              ("scans", "fastver_scans_total");
              ("verification scans", "fastver_verifies_total");
              ("cas retries", "fastver_cas_retries_total");
              ("epoch", "fastver_epoch");
              ("verified epoch", "fastver_verified_epoch");
              ("epoch certificates", "fastver_epoch_certificates_total");
              ("checkpoint chain links", "fastver_checkpoint_chain_links");
              ("store records", "fastver_store_records");
              ("store reads", "fastver_store_reads_total");
              ("store writes", "fastver_store_writes_total");
              ("cold segments", "fastver_cold_segments");
              ("cold live bytes", "fastver_cold_live_bytes");
              ("cold dead bytes", "fastver_cold_dead_bytes");
              ("cold reads", "fastver_cold_reads_total");
              ("cold writes", "fastver_cold_writes_total");
              ("cold gc rewrites", "fastver_cold_gc_rewrites_total");
              ("cold scrub failures", "fastver_cold_scrub_failures_total");
              ("net connections", "fastver_net_connections_total");
              ("net requests", "fastver_net_requests_total");
              ("net batches", "fastver_net_batches_total");
              ("net protocol errors", "fastver_net_proto_errors_total");
              ("net op failures", "fastver_net_op_failures_total");
              ("repl frames streamed", "fastver_repl_frames_total");
            ];
          let lat field disp =
            row disp
              (match hist_of json "fastver_request_seconds" field with
              | Some v -> Printf.sprintf "%.6fs" v
              | None -> "-")
          in
          lat "p50" "request latency p50";
          lat "p99" "request latency p99";
          lat "max" "request latency max");
      Net.Client.close conn;
      if check then begin
        (* Reconcile the snapshot against itself: the per-tier attribution
           must account for every validated elementary op, and every served
           request must have left a latency sample. *)
        let geti ?labels name =
          match counter_of json ?labels name with
          | Some v -> int_of_float v
          | None -> die "stats --check: metric %s missing from snapshot" name
        in
        let t l = geti ~labels:(Printf.sprintf "{\"tier\":\"%s\"}" l)
            "fastver_ops_total" in
        let by_tier = t "blum" + t "merkle" + t "cached" in
        let data_ops = geti "fastver_gets_total" + geti "fastver_puts_total" in
        let served = geti "fastver_net_requests_total" in
        let sampled =
          match hist_of json "fastver_request_seconds" "count" with
          | Some v -> int_of_float v
          | None -> die "stats --check: fastver_request_seconds missing"
        in
        if served <= 0 then die "stats --check: no requests served yet";
        if by_tier <> data_ops then
          die "stats --check: tier attribution %d <> %d validated ops" by_tier
            data_ops;
        if sampled <> served then
          die "stats --check: %d latency samples <> %d served requests" sampled
            served;
        Logs.app (fun m ->
            m "checks OK: %d ops attributed across tiers, %d requests sampled"
              by_tier served)
      end

let client_bench_cmd connect clients window ops db_size put_ratio secret
    no_verify seed first_client =
  if clients < 1 then die "--clients must be at least 1";
  if window < 1 then die "--window must be at least 1";
  if put_ratio < 0.0 || put_ratio > 1.0 then die "--put-ratio must be in [0, 1]";
  if first_client < 1 then die "--first-client must be at least 1";
  let addr = parse_addr connect in
  let r =
    Net.Net_bench.run ~addr ~clients ~window ~ops ~db_size ~put_ratio
      ~verify:(not no_verify) ~secret ~seed ~first_client ()
  in
  Logs.app (fun m -> m "%a" Net.Net_bench.pp_result r);
  let open Net.Net_bench in
  if r.integrity_failures > 0 then die "integrity failures detected";
  if r.errors > 0 then die "client errors occurred"

(* ------------------------------------------------------------------ *)
(* scale: measured + modelled multi-worker scalability                 *)
(* ------------------------------------------------------------------ *)

let scale_cmd db_size ops depth =
  (* measured: real Domain.spawn workers running the YCSB mix wall-clock,
     including the domain-parallel verification scans (only on machines
     with more than one core — a single-core sweep just measures domain
     context-switching) *)
  let cores = Domain.recommended_domain_count () in
  if cores > 1 then begin
    Logs.app (fun m -> m "measured (%d cores recommended):" cores);
    Logs.app (fun m -> m "workers  throughput            speedup  max-scan-slice");
    let base = ref 0.0 in
    List.iter
      (fun w ->
        let config =
          {
            (mk_config w 16384 depth 512 Record_enc.Blake2s Cost_model.zero
               true 42)
            with log_buffer_size = 4096;
          }
        in
        let t = load_system config db_size in
        let per_worker = ops / w in
        let t0 = Unix.gettimeofday () in
        Fastver.Parallel.run_ycsb t ~spec:Fastver_workload.Ycsb.workload_a
          ~db_size ~ops_per_worker:per_worker;
        ignore (Fastver.verify t);
        let wall = Unix.gettimeofday () -. t0 in
        let throughput = float_of_int (per_worker * w) /. wall in
        if w = 1 then base := throughput;
        let slice =
          Array.fold_left max 0.0 (Fastver.stats t).worker_busy_s
        in
        Logs.app (fun m ->
            m "%7d  %12.0f ops/s  %8.2fx  %11.3fs" w throughput
              (throughput /. !base) slice))
      (List.filter (fun w -> w = 1 || w <= cores) [ 1; 2; 4; 8 ])
  end
  else
    Logs.app (fun m ->
        m "single core recommended: skipping the measured sweep");
  Logs.app (fun m -> m "modelled:");
  Logs.app (fun m -> m "workers  modelled-throughput  verify-latency");
  List.iter
    (fun w ->
      let config =
        {
          (mk_config w 65536 depth 512 Record_enc.Blake2s Cost_model.zero true 42)
          with log_buffer_size = 4096;
        }
      in
      let r =
        Fastver_simthreads.Simthreads.run_hybrid ~config ~db_size ~ops
          ~spec:Fastver_workload.Ycsb.workload_a ()
      in
      Logs.app (fun m ->
          m "%7d  %12.0f ops/s  %11.3fs" w r.throughput r.verify_latency_s))
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)

let setup_logs =
  (fun () ->
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Warning))
  $$ Term.const ()

let run_term =
  Term.(
    const (fun () -> run_cmd)
    $ setup_logs $ db_size $ ops $ workers $ batch $ depth $ cache
    $ workload $ theta $ algo $ enclave_model $ no_auth $ parallel $ seed)

let attack_term =
  Term.(const (fun () -> attack_cmd) $ setup_logs $ db_size $ workers $ depth)

let listen =
  Arg.(value & opt string "tcp:127.0.0.1:4433" & info [ "listen" ]
         ~docv:"ADDR" ~doc:"Address to serve on: tcp:HOST:PORT or unix:PATH.")

let connect =
  Arg.(value & opt string "tcp:127.0.0.1:4433" & info [ "connect" ]
         ~docv:"ADDR" ~doc:"Server address: tcp:HOST:PORT or unix:PATH.")

let batch_limit =
  Arg.(value & opt int Fastver_net.Server.default_config.batch_limit
       & info [ "batch-limit" ] ~docv:"N"
           ~doc:"Max requests drained through the worker loop per batch.")

let clients =
  Arg.(value & opt int 4 & info [ "clients" ] ~docv:"C"
         ~doc:"Concurrent client sessions.")

let window =
  Arg.(value & opt int 32 & info [ "window" ] ~docv:"W"
         ~doc:"Pipelined requests kept in flight per client.")

let put_ratio =
  Arg.(value & opt float 0.5 & info [ "put-ratio" ] ~docv:"R"
         ~doc:"Fraction of operations that are puts.")

let secret =
  Arg.(value & opt string Fastver.Config.default.mac_secret
       & info [ "secret" ] ~docv:"S"
           ~doc:"Shared MAC secret (must match the server's).")

let no_verify =
  Arg.(value & flag & info [ "no-verify" ]
         ~doc:"Skip client-side signature checks (for --no-auth servers).")

let ckpt_dir =
  Arg.(value & opt (some string) None & info [ "checkpoint-dir" ] ~docv:"DIR"
         ~doc:"Recover from (and auto-checkpoint to) crash-safe checkpoint \
               generations under this directory.")

let cold_dir =
  Arg.(value & opt (some string) None & info [ "cold-dir" ] ~docv:"DIR"
         ~doc:"Enable the authenticated cold tier: records beyond the \
               in-memory budget are demoted to log-structured segments \
               under DIR after each verification scan, and read back with \
               their MACs checked.")

let cold_threshold =
  Arg.(value & opt int Fastver.Config.default.cold_threshold
       & info [ "cold-threshold" ] ~docv:"N"
           ~doc:"In-memory record budget when --cold-dir is set: log \
                 entries older than the newest N stay on disk.")

let recover_dir =
  Arg.(required & opt (some string) None & info [ "dir" ] ~docv:"DIR"
         ~doc:"Checkpoint directory to recover from.")

let repl_listen =
  Arg.(value & opt (some string) None & info [ "replication-listen" ]
         ~docv:"ADDR"
         ~doc:"Also serve the replication stream (op records + epoch \
               certificates) to followers on this address.")

let follow_primary =
  Arg.(required & opt (some string) None & info [ "primary" ] ~docv:"ADDR"
         ~doc:"The primary's replication listener (its \
               --replication-listen address).")

let follow_listen =
  Arg.(value & opt (some string) None & info [ "listen" ] ~docv:"ADDR"
         ~doc:"Serve read-only verified reads on this address (clients check \
               receipt MACs exactly as against the primary).")

let follow_dir =
  Arg.(required & opt (some string) None & info [ "dir" ] ~docv:"DIR"
         ~doc:"Follower state directory: checkpoint generations fetched \
               from the primary during catch-up land here.")

let follow_electable =
  Arg.(value & opt (some string) None & info [ "electable" ] ~docv:"ADDR"
         ~doc:"Stand for election. Binds ADDR as this candidate's \
               replication listener from the start (answering term probes); \
               when the primary stays unreachable, the candidate holding \
               the highest chain-verified sealed epoch (ties broken by \
               --priority, then run id) promotes in place — it starts \
               serving writes, and the replication stream on ADDR, under a \
               new fencing term.")

let follow_peers =
  Arg.(value & opt_all string [] & info [ "peer" ] ~docv:"ADDR"
         ~doc:"Another candidate's --electable address (repeatable). \
               Election rounds probe every peer; unreachable peers do not \
               vote.")

let follow_priority =
  Arg.(value & opt int 0 & info [ "priority" ] ~docv:"N"
         ~doc:"Static election priority: breaks equal-sealed-epoch ties, \
               higher wins (default 0).")

let repl_peers =
  Arg.(value & opt_all string [] & info [ "repl-peer" ] ~docv:"ADDR"
         ~doc:"A peer replication listener to probe while serving \
               (repeatable). If a peer is a primary that outranks this one \
               (a higher fencing term: an election happened while this \
               process was down), the server steps down to a read-only \
               follower of it. It keeps its store only if it applied no \
               write and sealed no epoch while leading; otherwise it \
               re-bootstraps from the new primary. The peers also vote in \
               later elections this node takes part in.")

let metrics_interval =
  Arg.(value & opt (some float) None & info [ "metrics-interval" ]
         ~docv:"SECS"
         ~doc:"Dump the metric registry as one JSON line (via the log) every \
               SECS seconds while serving.")

let serve_term =
  Term.(
    const (fun () -> serve_cmd)
    $ setup_logs $ listen $ db_size $ workers $ batch $ depth $ cache
    $ algo $ enclave_model $ no_auth $ seed $ batch_limit $ ckpt_dir
    $ metrics_interval $ cold_dir $ cold_threshold $ repl_listen $ repl_peers)

let follow_term =
  Term.(
    const (fun () -> follow_cmd)
    $ setup_logs $ follow_primary $ follow_listen $ db_size $ workers
    $ depth $ cache $ algo $ enclave_model $ no_auth $ seed $ follow_dir
    $ follow_electable $ follow_peers $ follow_priority)

let stats_format =
  let f =
    Arg.enum [ ("table", `Table); ("json", `Json); ("prometheus", `Prometheus) ]
  in
  Arg.(value & opt f `Table & info [ "format" ] ~docv:"table|json|prometheus"
         ~doc:"Output format: a human-readable table, the raw JSON snapshot, \
               or Prometheus text exposition.")

let stats_check =
  Arg.(value & flag & info [ "check" ]
         ~doc:"Reconcile the snapshot against itself: per-tier op counts \
               must sum to validated ops, and the request-latency histogram \
               must hold one sample per served request. Exits non-zero on \
               any mismatch.")

let stats_term =
  Term.(
    const (fun () -> stats_cmd) $ setup_logs $ connect $ stats_format
    $ stats_check)

let recover_term =
  Term.(
    const (fun () -> recover_cmd)
    $ setup_logs $ recover_dir $ workers $ batch $ depth $ cache $ algo
    $ enclave_model $ no_auth $ seed $ cold_dir $ cold_threshold)

let client_bench_ops =
  Arg.(value & opt int 100_000 & info [ "ops" ] ~docv:"OPS"
         ~doc:"Total operations across all clients.")

let client_bench_first_client =
  Arg.(value & opt int 1 & info [ "first-client" ] ~docv:"ID"
         ~doc:"Client id of the first bench session; ids count up from \
               here. A server that recovered from a checkpoint remembers \
               each client's put nonces, so benching it again with the \
               same ids is (correctly) rejected as replay — pass a fresh \
               range instead.")

let client_bench_term =
  Term.(
    const (fun () -> client_bench_cmd)
    $ setup_logs $ connect $ clients $ window $ client_bench_ops $ db_size
    $ put_ratio $ secret $ no_verify $ seed $ client_bench_first_client)

let scale_term =
  Term.(const (fun () -> scale_cmd) $ setup_logs $ db_size $ ops $ depth)

(* ------------------------------------------------------------------ *)
(* bench diff: regression gate over archived benchmark runs            *)
(* ------------------------------------------------------------------ *)

(* The bench harness archives every run as
   bench/results/<figure>-<timestamp>.json (git rev + scale + the figure's
   rows, no nested snapshots). `bench diff` compares the newest archive of
   each figure against the previous one: per metric, the mean over the
   figure's rows, with a per-figure tolerance. Config keys (db, batch,
   workers…) carry no direction and are ignored; only keys matching the
   direction table below are compared. *)

(* Higher-is-better checked first: "ops_per_s" would otherwise match the
   lower-is-better "_s" suffix family. *)
let metric_direction key =
  let has needle = find_sub key needle <> None in
  if has "ops_per_s" || has "throughput" || has "speedup" then Some `Higher
  else if
    has "latency" || has "bytes_per_msg" || has "ns_per_op" || has "pause"
    || has "lat_p" || has "lat_max" || has "p50" || has "p99" || has "mean_ms"
  then Some `Lower
  else None

(* One archived row per line; pull every "key": <number> pair off it. *)
let kv_pairs line =
  let n = String.length line in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    (match String.index_from_opt line !i '"' with
    | None -> i := n
    | Some q0 -> (
        match String.index_from_opt line (q0 + 1) '"' with
        | None -> i := n
        | Some q1 ->
            let key = String.sub line (q0 + 1) (q1 - q0 - 1) in
            let j = ref (q1 + 1) in
            while !j < n && (line.[!j] = ':' || line.[!j] = ' ') do incr j done;
            (if !j < n && line.[q1 + 1] = ':' then
               match num_after line !j with
               | Some v -> out := (key, v) :: !out
               | None -> ());
            i := q1 + 1))
  done;
  List.rev !out

let default_threshold fig =
  if fig = "wirealloc" then 0.10
  else if fig = "scale" then 0.35
  else if fig = "coldtier" then 0.35 (* disk-bound rows jitter more than CPU *)
  else 0.30

(* Mean of each direction-carrying metric over a figure archive's rows. *)
let archive_metrics path =
  let ic = open_in path in
  let tbl = Hashtbl.create 8 in
  (try
     while true do
       let line = input_line ic in
       if find_sub (String.trim line) "{\"" = Some 2 then
         List.iter
           (fun (key, v) ->
             if metric_direction key <> None then
               let sum, count =
                 Option.value ~default:(0.0, 0) (Hashtbl.find_opt tbl key)
               in
               Hashtbl.replace tbl key (sum +. v, count + 1))
           (kv_pairs line)
     done
   with End_of_file -> close_in ic);
  Hashtbl.fold (fun k (sum, n) acc -> (k, sum /. float_of_int n) :: acc) tbl []

(* Archive names are <figure>-<YYYYMMDDTHHMMSSZ>[-<n>].json, where the
   optional -<n> disambiguates several runs within one second. Parse out
   (figure, stamp, n) so grouping survives dashes in figure names and the
   newest-run ordering survives same-second collisions ("-1" sorts before
   ".json" bytewise, so a plain filename sort would invert them). *)
let parse_archive f =
  if not (Filename.check_suffix f ".json") then None
  else
    let base = Filename.chop_suffix f ".json" in
    let n = String.length base in
    let is_digit c = '0' <= c && c <= '9' in
    let stamp_at i =
      i + 16 <= n
      && base.[i + 8] = 'T'
      && base.[i + 15] = 'Z'
      &&
      let ok = ref true in
      for j = 0 to 15 do
        if j <> 8 && j <> 15 && not (is_digit base.[i + j]) then ok := false
      done;
      !ok
    in
    let rec scan i =
      if i >= n then None
      else if base.[i] = '-' && stamp_at (i + 1) then
        let fig = String.sub base 0 i in
        let stamp = String.sub base (i + 1) 16 in
        let rest = String.sub base (i + 17) (n - i - 17) in
        let seq =
          if rest = "" then Some 0
          else if String.length rest > 1 && rest.[0] = '-' then
            int_of_string_opt (String.sub rest 1 (String.length rest - 1))
          else None
        in
        match seq with Some s when fig <> "" -> Some (fig, stamp, s) | _ -> None
      else scan (i + 1)
    in
    scan 0

(* --ci: instead of a fixed tolerance against the single previous run,
   derive each metric's band from the spread of up to [ci_window] prior
   archives — two run-to-run standard deviations around their mean, floored
   at --threshold (or 5%). A metric seen in fewer than two prior runs falls
   back to the fixed-tolerance comparison. *)
let ci_window = 8

let mean_sd vals =
  let k = float_of_int (List.length vals) in
  let mean = List.fold_left ( +. ) 0.0 vals /. k in
  let var =
    List.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 vals
    /. Float.max 1.0 (k -. 1.0)
  in
  (mean, sqrt var)

let bench_diff_cmd results_dir figures threshold ci =
  if not (Sys.file_exists results_dir && Sys.is_directory results_dir) then
    die "no archived benchmark runs in %s — run the bench harness first"
      results_dir;
  (* group the timestamped archives by figure (latest.json copies carry no
     stamp and are excluded by the parse) *)
  let archives = Hashtbl.create 8 in
  Array.iter
    (fun f ->
      match parse_archive f with
      | Some (fig, stamp, seq) ->
          Hashtbl.replace archives fig
            ((stamp, seq, f)
            :: Option.value ~default:[] (Hashtbl.find_opt archives fig))
      | None -> ())
    (Sys.readdir results_dir);
  let selected =
    match figures with
    | [] -> List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) archives [])
    | l -> l
  in
  let regressions = ref 0 in
  List.iter
    (fun fig ->
      match Hashtbl.find_opt archives fig with
      | None -> Printf.printf "%-12s no archived runs\n" fig
      | Some files when List.length files < 2 ->
          Printf.printf "%-12s only one archived run — nothing to compare\n" fig
      | Some files -> (
          (* order by (stamp, same-second sequence number), newest first *)
          match
            List.rev (List.sort compare files) |> List.map (fun (_, _, f) -> f)
          with
          | newest :: (prev :: _ as priors) ->
              let tol =
                match threshold with
                | Some t -> t
                | None -> default_threshold fig
              in
              let base = archive_metrics (Filename.concat results_dir prev) in
              let cur = archive_metrics (Filename.concat results_dir newest) in
              let samples =
                if ci then
                  List.filteri (fun i _ -> i < ci_window) priors
                  |> List.map (fun f ->
                         archive_metrics (Filename.concat results_dir f))
                else []
              in
              let ci_floor = Option.value ~default:0.05 threshold in
              if ci then
                Printf.printf
                  "%-12s %s vs mean of %d prior run(s) (ci: ±2 sd, floor \
                   %.0f%%)\n"
                  fig newest (List.length samples) (100.0 *. ci_floor)
              else
                Printf.printf "%-12s %s vs %s (tolerance %.0f%%)\n" fig newest
                  prev (100.0 *. tol);
              List.iter
                (fun (key, v) ->
                  let band =
                    (* (baseline, tolerance, annotation) for this metric *)
                    match List.filter_map (List.assoc_opt key) samples with
                    | _ :: _ :: _ as vals ->
                        let mean, sd = mean_sd vals in
                        if mean = 0.0 then None
                        else
                          let tol =
                            Float.max ci_floor (2.0 *. (sd /. Float.abs mean))
                          in
                          Some
                            ( mean,
                              tol,
                              Printf.sprintf "  (±%.1f%% over %d runs)"
                                (100.0 *. tol) (List.length vals) )
                    | _ -> (
                        match List.assoc_opt key base with
                        | Some b when b <> 0.0 -> Some (b, tol, "")
                        | _ -> None)
                  in
                  match (band, metric_direction key) with
                  | Some (b, tol, note), Some dir ->
                      let ratio = v /. b in
                      let regressed =
                        match dir with
                        | `Higher -> ratio < 1.0 -. tol
                        | `Lower -> ratio > 1.0 +. tol
                      in
                      if regressed then incr regressions;
                      Printf.printf "  %-28s %12.4g -> %12.4g  %+6.1f%%%s%s\n"
                        key b v
                        (100.0 *. (ratio -. 1.0))
                        note
                        (if regressed then "  REGRESSION" else "")
                  | _ -> ())
                (List.sort compare cur)
          | _ -> ()))
    selected;
  if !regressions > 0 then
    die "%d metric(s) regressed beyond tolerance" !regressions
  else Logs.app (fun m -> m "no regressions beyond tolerance")

(* ------------------------------------------------------------------ *)
(* bench history: a figure's performance trajectory over archived runs *)
(* ------------------------------------------------------------------ *)

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Archive headers render as ["key": "value"] — pull the string value. *)
let string_field json key =
  match find_sub json (Printf.sprintf "\"%s\": \"" key) with
  | None -> None
  | Some i -> (
      match String.index_from_opt json i '"' with
      | None -> None
      | Some j -> Some (String.sub json i (j - i)))

let bench_history_cmd results_dir fig last as_json =
  if not (Sys.file_exists results_dir && Sys.is_directory results_dir) then
    die "no archived benchmark runs in %s — run the bench harness first"
      results_dir;
  let runs =
    Sys.readdir results_dir |> Array.to_list
    |> List.filter_map (fun f ->
           match parse_archive f with
           | Some (g, stamp, seq) when g = fig -> Some (stamp, seq, f)
           | _ -> None)
    |> List.sort compare
  in
  let runs =
    let n = List.length runs in
    if last > 0 && n > last then List.filteri (fun i _ -> i >= n - last) runs
    else runs
  in
  if runs = [] then die "no archived runs for figure %s in %s" fig results_dir;
  let entries =
    List.map
      (fun (stamp, _, f) ->
        let path = Filename.concat results_dir f in
        let header = read_all path in
        ( stamp,
          Option.value ~default:"unknown" (string_field header "git_rev"),
          Option.value ~default:"?" (string_field header "scale"),
          List.sort compare (archive_metrics path) ))
      runs
  in
  if as_json then begin
    let n = List.length entries in
    print_string "[\n";
    List.iteri
      (fun i (stamp, rev, scale, metrics) ->
        Printf.printf
          "  {\"stamp\": \"%s\", \"git_rev\": \"%s\", \"scale\": \"%s\", \
           \"metrics\": {"
          stamp rev scale;
        List.iteri
          (fun j (k, v) ->
            Printf.printf "%s\"%s\": %.6g" (if j = 0 then "" else ", ") k v)
          metrics;
        Printf.printf "}}%s\n" (if i = n - 1 then "" else ","))
      entries;
    print_string "]\n"
  end
  else begin
    Printf.printf "%s: %d archived run(s), oldest first\n" fig
      (List.length entries);
    let prev = ref [] in
    List.iter
      (fun (stamp, rev, scale, metrics) ->
        Printf.printf "%s  %-10s %-6s" stamp rev scale;
        List.iter
          (fun (k, v) ->
            match List.assoc_opt k !prev with
            | Some p when p <> 0.0 ->
                Printf.printf "  %s=%.4g (%+.1f%%)" k v
                  (100.0 *. ((v /. p) -. 1.0))
            | _ -> Printf.printf "  %s=%.4g" k v)
          metrics;
        print_newline ();
        prev := metrics)
      entries
  end

let results_dir =
  Arg.(value & opt string (Filename.concat "bench" "results")
       & info [ "results-dir" ] ~docv:"DIR"
           ~doc:"Directory holding the archived benchmark runs.")

let diff_figures =
  Arg.(value & opt_all string [] & info [ "figure" ] ~docv:"FIG"
         ~doc:"Only diff this figure (repeatable; default: every figure \
               with archives).")

let diff_threshold =
  Arg.(value & opt (some float) None & info [ "threshold" ] ~docv:"FRAC"
         ~doc:"Override the per-figure tolerance (fraction, e.g. 0.1 = \
               10%). Defaults: 0.10 for wirealloc, 0.30 elsewhere.")

let diff_ci =
  Arg.(value & flag & info [ "ci" ]
         ~doc:"Derive each metric's tolerance from the spread of up to 8 \
               prior archived runs (two run-to-run standard deviations \
               around their mean, floored at --threshold or 5%) instead of \
               the fixed per-figure default. Metrics with fewer than two \
               prior samples fall back to the fixed comparison.")

let bench_diff_term =
  Term.(
    const (fun () -> bench_diff_cmd)
    $ setup_logs $ results_dir $ diff_figures $ diff_threshold $ diff_ci)

let history_fig =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FIG"
         ~doc:"The figure whose archived runs to list (e.g. fig12, scale).")

let history_last =
  Arg.(value & opt int 0 & info [ "last" ] ~docv:"N"
         ~doc:"Only show the newest N runs (0 = all).")

let history_json =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Emit the trajectory as a JSON array instead of a table.")

let bench_history_term =
  Term.(
    const (fun () -> bench_history_cmd)
    $ setup_logs $ results_dir $ history_fig $ history_last $ history_json)

let bench_cmd_group =
  Cmd.group
    (Cmd.info "bench"
       ~doc:"Operate on archived benchmark results (the harness itself is \
             the separate bench/main.exe)")
    [
      Cmd.v
        (Cmd.info "diff"
           ~doc:"Compare each figure's newest archived run against the \
                 previous one and fail on metric regressions beyond a \
                 per-figure tolerance")
        bench_diff_term;
      Cmd.v
        (Cmd.info "history"
           ~doc:"Show a figure's performance trajectory across every \
                 archived run: timestamp, git revision, scale, and the mean \
                 of each direction-carrying metric, with run-over-run \
                 deltas")
        bench_history_term;
    ]

let cmds =
  [
    Cmd.v (Cmd.info "run" ~doc:"Run a YCSB workload over a verified store")
      run_term;
    Cmd.v (Cmd.info "attack" ~doc:"Demonstrate tamper detection") attack_term;
    Cmd.v (Cmd.info "scale" ~doc:"Modelled multi-worker scalability")
      scale_term;
    Cmd.v
      (Cmd.info "serve"
         ~doc:"Serve a verified store over TCP or a Unix socket")
      serve_term;
    Cmd.v
      (Cmd.info "recover"
         ~doc:"Recover a verified store from its newest committed checkpoint \
               generation and run a verification scan")
      recover_term;
    Cmd.v
      (Cmd.info "follow"
         ~doc:"Run a replication follower: replay the primary's op stream, \
               verify the epoch-certificate chain at every boundary, and \
               serve integrity-checked reads")
      follow_term;
    Cmd.v
      (Cmd.info "client-bench"
         ~doc:"Closed-loop benchmark against a running fastver server, \
               verifying every response signature")
      client_bench_term;
    Cmd.v
      (Cmd.info "stats"
         ~doc:"Fetch a live metrics snapshot from a running fastver server \
               and optionally reconcile it against itself")
      stats_term;
    bench_cmd_group;
  ]

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "fastver" ~version:"1.0.0"
             ~doc:"FastVer: a key-value store with verified data integrity")
          cmds))
