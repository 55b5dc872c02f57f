(* Benchmark harness: regenerates every figure of the paper's evaluation
   (§8, Figures 8-14). Absolute numbers differ from the paper (pure-OCaml
   crypto on one core vs AES-NI on a 36-core Xeon); the harness reports the
   same rows/series so the *shapes* can be compared. EXPERIMENTS.md records
   paper-vs-measured for each figure.

   Scale: paper database sizes are mapped at 1/64 by default
   (2M -> 31,250 and so on); pass --full for the 128M-equivalent tier and
   --quick for a fast sanity pass at 1/512. *)

let pf fmt = Printf.printf fmt

let line () =
  print_endline (String.make 78 '-')

let header title =
  print_newline ();
  line ();
  pf "%s\n" title;
  line ()

(* ------------------------------------------------------------------ *)
(* Machine-readable results                                            *)
(* ------------------------------------------------------------------ *)

(* Every row printed for a figure is also recorded here and dumped as
   JSON to bench/results/latest.json, so regression tooling can diff
   runs without scraping the tables. *)
module Results = struct
  type v = S of string | I of int | F of float | J of string
  (* [J] is pre-rendered JSON spliced in verbatim — the metric registry's
     snapshot renderer already emits valid JSON. *)

  let rows : (string * (string * v) list) list ref = ref []
  let record fig kvs = rows := (fig, kvs) :: !rows

  let escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let json_of_v = function
    | S s -> Printf.sprintf "\"%s\"" (escape s)
    | I i -> string_of_int i
    | F f -> if Float.is_finite f then Printf.sprintf "%.6g" f else "null"
    | J s -> s

  let rec mkdir_p dir =
    if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
    then begin
      mkdir_p (Filename.dirname dir);
      try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end

  let git_rev () =
    match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
    | exception _ -> "unknown"
    | ic -> (
        let rev = try String.trim (input_line ic) with End_of_file -> "" in
        ignore (Unix.close_process_in ic);
        if rev = "" then "unknown" else rev)

  (* Per-figure archives for regression tracking: each run leaves
     [<fig>-<utc-timestamp>.json] (kept forever) plus [<fig>-latest.json]
     (overwritten), both stamped with the git revision and scale so
     `fastver bench diff` can compare like against like. Pre-rendered [J]
     splices (metric snapshots) are dropped — archives hold only the
     numbers the diff reads. *)
  let write_figure_archives ~dir ~scale ~stamp =
    mkdir_p dir;
    let by_fig = Hashtbl.create 8 in
    List.iter
      (fun (fig, kvs) ->
        let kvs = List.filter (function _, J _ -> false | _ -> true) kvs in
        Hashtbl.replace by_fig fig
          (kvs :: Option.value ~default:[] (Hashtbl.find_opt by_fig fig)))
      !rows;
    let rev = git_rev () in
    let emit fig rows_for_fig path =
      let oc = open_out path in
      let out fmt = Printf.fprintf oc fmt in
      out "{\n  \"figure\": %s,\n" (json_of_v (S fig));
      out "  \"generated_utc\": \"%s\",\n" stamp;
      out "  \"git_rev\": \"%s\",\n" (escape rev);
      out "  \"scale\": \"%s\",\n" (escape scale);
      out "  \"rows\": [\n";
      let last = List.length rows_for_fig - 1 in
      List.iteri
        (fun i kvs ->
          out "    {%s}%s\n"
            (String.concat ", "
               (List.map
                  (fun (k, v) ->
                    Printf.sprintf "\"%s\": %s" (escape k) (json_of_v v))
                  kvs))
            (if i = last then "" else ","))
        rows_for_fig;
      out "  ]\n}\n";
      close_out oc
    in
    Hashtbl.iter
      (fun fig rows_for_fig ->
        (* [!rows] is newest-first, and the per-figure cons above reversed
           it back: rows land here in run order already. *)
        let base = Filename.concat dir (Printf.sprintf "%s-%s" fig stamp) in
        let rec fresh n =
          let p =
            if n = 0 then base ^ ".json"
            else Printf.sprintf "%s-%d.json" base n
          in
          if Sys.file_exists p then fresh (n + 1) else p
        in
        emit fig rows_for_fig (fresh 0);
        emit fig rows_for_fig
          (Filename.concat dir (Printf.sprintf "%s-latest.json" fig)))
      by_fig

  let write ~scale ~figs path =
    mkdir_p (Filename.dirname path);
    let oc = open_out path in
    let out fmt = Printf.fprintf oc fmt in
    let tm = Unix.gmtime (Unix.time ()) in
    out "{\n";
    out "  \"generated_utc\": \"%04d-%02d-%02dT%02d:%02d:%02dZ\",\n"
      (tm.tm_year + 1900) (tm.tm_mon + 1) tm.tm_mday tm.tm_hour tm.tm_min
      tm.tm_sec;
    out "  \"scale\": \"%s\",\n" (escape scale);
    out "  \"figures\": [%s],\n"
      (String.concat ", " (List.map (fun f -> json_of_v (S f)) figs));
    out "  \"rows\": [\n";
    let emit_row i (fig, kvs) =
      out "    {\"figure\": %s" (json_of_v (S fig));
      List.iter (fun (k, v) -> out ", \"%s\": %s" (escape k) (json_of_v v)) kvs;
      out "}%s\n" (if i = List.length !rows - 1 then "" else ",")
    in
    List.iteri emit_row (List.rev !rows);
    out "  ]\n}\n";
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* Scaling                                                             *)
(* ------------------------------------------------------------------ *)

type scale = { div : int; label : string; quick : bool }

(* The root [BENCH_*.json] summaries are tracked in the repository and
   record a default-scale run: a --quick pass leaves them untouched and
   only archives its figures under bench/results/. *)
let write_summary s path contents =
  if s.quick then pf "  [quick scale: %s left as committed]\n%!" path
  else begin
    let oc = open_out path in
    output_string oc contents;
    close_out oc;
    pf "  wrote %s\n%!" path
  end

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let paper_sizes = [ (2_000_000, "2M"); (8_000_000, "8M"); (32_000_000, "32M") ]
let paper_large = (128_000_000, "128M")

let scaled s (n, label) = (n / s.div, label)

let initial_value = Fastver_workload.Ycsb.initial_value

let records n =
  Array.init n (fun i -> (Int64.of_int i, initial_value (Int64.of_int i)))

(* ------------------------------------------------------------------ *)
(* Hybrid-system measurement window                                    *)
(* ------------------------------------------------------------------ *)

let mk_system ?(workers = 4) ?(d = 6) ?(cache = 512)
    ?(cost = Cost_model.simulated) n =
  let config =
    {
      Fastver.Config.default with
      n_workers = workers;
      frontier_levels = d;
      cache_capacity = cache;
      batch_size = 0;
      cost_model = cost;
      authenticate_clients = false;
    }
  in
  Gc.compact ();
  let t = Fastver.create ~config () in
  let t0 = Unix.gettimeofday () in
  Fastver.load t (records n);
  pf "  [loaded %d records in %.1fs]\n%!" n (Unix.gettimeofday () -. t0);
  t

type point = { throughput : float; latency : float }

(* Run [ops] operations in verification batches of [batch]; report effective
   throughput (wall + modelled enclave time) and mean scan latency. *)
let run_point t gen ~ops ~batch =
  Gc.full_major ();
  let s = Fastver.stats t in
  let w0 = Unix.gettimeofday () in
  let ops0 = s.ops
  and vt0 = s.verify_time_s
  and nv0 = s.verifies
  and ov0 = Fastver.enclave_overhead_ns t in
  let remaining = ref ops in
  while !remaining > 0 do
    let chunk = min batch !remaining in
    Fastver.run_ops t gen chunk;
    ignore (Fastver.verify t);
    remaining := !remaining - chunk
  done;
  let wall = Unix.gettimeofday () -. w0 in
  let s = Fastver.stats t in
  let dops = s.ops - ops0
  and dvt = s.verify_time_s -. vt0
  and dnv = s.verifies - nv0
  and dov = Int64.to_float (Int64.sub (Fastver.enclave_overhead_ns t) ov0) /. 1e9 in
  {
    throughput = float_of_int dops /. (wall +. dov);
    latency = dvt /. float_of_int (max 1 dnv);
  }

(* ------------------------------------------------------------------ *)
(* Figures 8-12: throughput vs verification latency, YCSB-A zipf 0.9   *)
(* ------------------------------------------------------------------ *)

let fig12 s ~full =
  header
    "Figures 8-12: FastVer throughput vs verification latency\n\
     (YCSB-A, 50% reads / 50% updates, zipfian theta=0.9; sweep of batch\n\
     size x deferred-frontier depth d; paper: >50M ops/s peak, sub-second\n\
     latency reachable at every size by shrinking the batch)";
  let sizes =
    List.map (scaled s) (paper_sizes @ if full then [ paper_large ] else [])
  in
  pf "%-10s %-4s %-9s %12s %14s\n" "db(paper)" "d" "batch" "ops/s" "latency(s)";
  List.iter
    (fun (n, label) ->
      List.iter
        (fun d ->
          let t = mk_system ~d n in
          let gen =
            Fastver_workload.Ycsb.create ~db_size:n
              Fastver_workload.Ycsb.workload_a
          in
          List.iter
            (fun batch ->
              let ops = min 150_000 (max 30_000 (2 * batch)) in
              let p = run_point t gen ~ops ~batch in
              pf "%-10s %-4d %-9d %12.0f %14.3f\n%!" label d batch
                p.throughput p.latency;
              Results.(record "fig12"
                [ ("db", S label); ("records", I n); ("d", I d);
                  ("batch", I batch); ("ops_per_s", F p.throughput);
                  ("latency_s", F p.latency);
                  ("metrics_snapshot",
                   J (Fastver_obs.Registry.to_json (Fastver.registry t))) ]))
            [ 2_048; 8_192; 32_768; 131_072 ])
        [ 4; 8 ])
    sizes

(* ------------------------------------------------------------------ *)
(* Figure 13a: YCSB-E scans                                            *)
(* ------------------------------------------------------------------ *)

let fig13a s =
  header
    "Figure 13a: throughput vs latency, YCSB-E (95% scans of length 100),\n\
     64M-equivalent database, zipf 0.9 (paper: same per-key rate as YCSB-A,\n\
     flatter curve at low latencies)";
  let n = 32_000_000 / s.div in
  let t = mk_system ~d:8 n in
  let gen =
    Fastver_workload.Ycsb.create ~db_size:n Fastver_workload.Ycsb.workload_e
  in
  pf "%-9s %12s %14s\n" "batch" "key-ops/s" "latency(s)";
  List.iter
    (fun batch ->
      let ops = min 120_000 (max 30_000 (2 * batch)) in
      let p = run_point t gen ~ops ~batch in
      pf "%-9d %12.0f %14.3f\n%!" batch p.throughput p.latency;
      Results.(record "fig13a"
        [ ("records", I n); ("batch", I batch);
          ("key_ops_per_s", F p.throughput); ("latency_s", F p.latency) ]))
    [ 4_096; 16_384; 65_536 ]

(* ------------------------------------------------------------------ *)
(* Figure 13b: SGX vs simulated enclave                                *)
(* ------------------------------------------------------------------ *)

let fig13b s =
  header
    "Figure 13b: SGX-model vs simulated-enclave throughput at ~1s latency\n\
     (YCSB-A uniform keys, 8 workers; paper: SGX reaches ~90% of simulated)";
  pf "%-10s %-11s %12s %14s %8s\n" "db(paper)" "enclave" "ops/s" "latency(s)"
    "ratio";
  List.iter
    (fun (n, label) ->
      let run cost =
        let t = mk_system ~workers:8 ~d:8 ~cost n in
        let gen =
          Fastver_workload.Ycsb.create ~db_size:n
            (Fastver_workload.Ycsb.with_dist Fastver_workload.Ycsb.workload_a
               (Fastver_workload.Ycsb.Zipfian 0.0))
        in
        (* warm an epoch, then measure twice and average out GC noise *)
        ignore (run_point t gen ~ops:16_384 ~batch:16_384);
        let a = run_point t gen ~ops:49_152 ~batch:16_384 in
        let b = run_point t gen ~ops:49_152 ~batch:16_384 in
        {
          throughput = (a.throughput +. b.throughput) /. 2.0;
          latency = (a.latency +. b.latency) /. 2.0;
        }
      in
      let sim = run Cost_model.simulated in
      let sgx = run Cost_model.sgx in
      pf "%-10s %-11s %12.0f %14.3f %8s\n" label "simulated" sim.throughput
        sim.latency "";
      pf "%-10s %-11s %12.0f %14.3f %7.0f%%\n%!" label "sgx" sgx.throughput
        sgx.latency
        (100.0 *. sgx.throughput /. sim.throughput);
      List.iter
        (fun (enclave, (p : point)) ->
          Results.(record "fig13b"
            [ ("db", S label); ("enclave", S enclave);
              ("ops_per_s", F p.throughput); ("latency_s", F p.latency) ]))
        [ ("simulated", sim); ("sgx", sgx) ])
    [ scaled s (8_000_000, "8M"); scaled s (32_000_000, "32M") ]

(* ------------------------------------------------------------------ *)
(* Figures 13c/13d: FASTER baseline vs FastVer                         *)
(* ------------------------------------------------------------------ *)

let host_only_throughput n spec =
  Gc.compact ();
  let h = Fastver_baselines.Host_only.create (records n) in
  let gen = Fastver_workload.Ycsb.create ~db_size:n spec in
  let target = 300_000 in
  let t0 = Unix.gettimeofday () in
  let i = ref 0 in
  while !i < target do
    (match Fastver_workload.Ycsb.next gen with
    | Fastver_workload.Ycsb.Read k -> ignore (Fastver_baselines.Host_only.get h k)
    | Fastver_workload.Ycsb.Update (k, v) -> Fastver_baselines.Host_only.put h k v
    | Fastver_workload.Ycsb.Scan (k, len) ->
        ignore (Fastver_baselines.Host_only.scan h k len));
    incr i
  done;
  float_of_int target /. (Unix.gettimeofday () -. t0)

(* Largest batch (of the sweep) whose scan latency stays under a second. *)
let tune_for_latency t gen ~budget =
  let rec go best = function
    | [] -> best
    | batch :: rest ->
        let p = run_point t gen ~ops:(max 20_000 batch) ~batch in
        if p.latency <= budget then
          match best with
          | Some (b : point) when b.throughput >= p.throughput -> go best rest
          | _ -> go (Some p) rest
        else best
  in
  go None [ 4_096; 16_384; 65_536; 262_144 ]

let fig13cd s =
  header
    "Figures 13c/13d: FASTER baseline vs FastVer (best) vs FastVer (1s)\n\
     (paper: FastVer within 2x of FASTER given tens-of-seconds latency;\n\
     up to 10x slower at sub-second latency on the largest database)";
  pf "%-10s %-9s %14s %14s %16s\n" "db(paper)" "workload" "FASTER ops/s"
    "FastVer best" "FastVer(1s lat)";
  List.iter
    (fun (n, label) ->
      let fastver spec =
        let t = mk_system ~d:8 n in
        let gen = Fastver_workload.Ycsb.create ~db_size:n spec in
        let best = run_point t gen ~ops:131_072 ~batch:131_072 in
        let tuned = tune_for_latency t gen ~budget:1.0 in
        (best, tuned)
      in
      List.iter
        (fun (wl_label, spec) ->
          let faster = host_only_throughput n spec in
          let best, tuned = fastver spec in
          pf "%-10s %-9s %14.0f %14.0f %16s\n%!" label wl_label faster
            best.throughput
            (match tuned with
            | Some p -> Printf.sprintf "%.0f" p.throughput
            | None -> "n/a");
          Results.(record "fig13cd"
            (( "db", S label) :: ("workload", S wl_label)
             :: ("faster_ops_per_s", F faster)
             :: ("fastver_best_ops_per_s", F best.throughput)
             ::
             (match tuned with
             | Some p -> [ ("fastver_1s_ops_per_s", F p.throughput) ]
             | None -> []))))
        [
          ("50%read", Fastver_workload.Ycsb.workload_a);
          ("readonly", Fastver_workload.Ycsb.workload_c);
        ])
    (List.map (scaled s) paper_sizes)

(* ------------------------------------------------------------------ *)
(* Figure 14a: scalability with worker threads                         *)
(* ------------------------------------------------------------------ *)

let fig14a s =
  header
    "Figure 14a: modelled throughput vs worker threads (cost-model\n\
     simulation on measured per-worker busy time; paper: near-linear\n\
     scaling with a small super-linear effect from Merkle partitioning)";
  pf "%-10s %-8s %14s %12s\n" "db(paper)" "workers" "ops/s(model)" "speedup";
  List.iter
    (fun (n, label) ->
      let base = ref 0.0 in
      List.iter
        (fun w ->
          let config =
            {
              Fastver.Config.default with
              n_workers = w;
              (* 32 shards at the default capacity would exceed the
                 enclave's trusted-memory budget *)
              cache_capacity = 512;
              frontier_levels = 8;
              batch_size = 16_384;
              cost_model = Cost_model.simulated;
              authenticate_clients = false;
            }
          in
          let r =
            Fastver_simthreads.Simthreads.run_hybrid ~config ~db_size:n
              ~ops:60_000 ~spec:Fastver_workload.Ycsb.workload_a ()
          in
          if w = 4 then base := r.throughput /. 4.0;
          pf "%-10s %-8d %14.0f %11.1fx\n%!" label w r.throughput
            (r.throughput /. !base);
          Results.(record "fig14a"
            [ ("db", S label); ("workers", I w);
              ("modelled_ops_per_s", F r.throughput);
              ("speedup", F (r.throughput /. !base)) ]))
        [ 4; 8; 16; 32 ])
    [ scaled s (8_000_000, "8M"); scaled s (32_000_000, "32M") ]

(* ------------------------------------------------------------------ *)
(* Figure 14b: single-threaded micro-benchmarks                        *)
(* ------------------------------------------------------------------ *)

let fig14b s =
  header
    "Figure 14b: single-threaded throughput of verification techniques\n\
     (64M-equivalent records; paper: Merkle variants cluster ~100K ops/s,\n\
     sequential Merkle ~1M, deferred verification >10M; verifier-time\n\
     fraction drops as caching grows)";
  let n = 32_000_000 / s.div in
  let ops = 8_000 in
  let data = records n in
  pf "%-10s %12s %18s\n" "variant" "ops/s" "verifier-time-frac";
  let rng = Random.State.make [| 7 |] in
  let run_merkle label variant ~sequential =
    Gc.compact ();
    let m = Fastver_baselines.Merkle_store.create variant data in
    let t0 = Unix.gettimeofday () in
    for i = 0 to ops - 1 do
      let k =
        if sequential then Int64.of_int (i mod n)
        else Int64.of_int (Random.State.int rng n)
      in
      if i land 1 = 0 then ignore (Fastver_baselines.Merkle_store.get m k)
      else Fastver_baselines.Merkle_store.put m k "01234567"
    done;
    let wall = Unix.gettimeofday () -. t0 in
    pf "%-10s %12.0f %17.0f%%\n%!" label
      (float_of_int ops /. wall)
      (100.0 *. Fastver_baselines.Merkle_store.verifier_time_s m /. wall);
    Results.(record "fig14b"
      [ ("variant", S label); ("ops_per_s", F (float_of_int ops /. wall));
        ("verifier_time_frac",
         F (Fastver_baselines.Merkle_store.verifier_time_s m /. wall)) ])
  in
  run_merkle "M" `Plain ~sequential:false;
  run_merkle "M1K" (`Cached 1_024) ~sequential:false;
  run_merkle "M32K" (`Cached 32_768) ~sequential:false;
  run_merkle "MV" (`Propagate_to_root 32_768) ~sequential:false;
  run_merkle "M1K(seq)" (`Cached 1_024) ~sequential:true;
  (* DV *)
  Gc.compact ();
  let dv = Fastver_baselines.Dv_store.create data in
  let dv_ops = 200_000 in
  let t0 = Unix.gettimeofday () in
  for i = 0 to dv_ops - 1 do
    let k = Int64.of_int (Random.State.int rng n) in
    if i land 1 = 0 then ignore (Fastver_baselines.Dv_store.get dv k)
    else Fastver_baselines.Dv_store.put dv k "01234567"
  done;
  let wall = Unix.gettimeofday () -. t0 in
  pf "%-10s %12.0f %17.0f%%\n%!" "DV"
    (float_of_int dv_ops /. wall)
    (100.0 *. Fastver_baselines.Dv_store.verifier_time_s dv /. wall);
  Results.(record "fig14b"
    [ ("variant", S "DV"); ("ops_per_s", F (float_of_int dv_ops /. wall));
      ("verifier_time_frac",
       F (Fastver_baselines.Dv_store.verifier_time_s dv /. wall)) ])

(* ------------------------------------------------------------------ *)
(* Figure 14c: multithreaded micro (cache-fit vs large DB)             *)
(* ------------------------------------------------------------------ *)

let fig14c s =
  header
    "Figure 14c: modelled deferred-verification scaling, 16K records\n\
     (cache-resident) vs 64M-equivalent (paper: ~75% gain per doubling of\n\
     workers; constant-factor gap for the larger database)";
  pf "%-10s %-8s %14s %12s\n" "db" "workers" "ops/s(model)" "speedup";
  List.iter
    (fun (n, label) ->
      let base = ref 0.0 in
      List.iter
        (fun w ->
          let r =
            Fastver_simthreads.Simthreads.run_dv_micro ~workers:w ~db_size:n
              ~ops:240_000 ()
          in
          if w = 1 then base := r.throughput;
          pf "%-10s %-8d %14.0f %11.1fx\n%!" label w r.throughput
            (r.throughput /. !base);
          Results.(record "fig14c"
            [ ("db", S label); ("workers", I w);
              ("modelled_ops_per_s", F r.throughput);
              ("speedup", F (r.throughput /. !base)) ]))
        [ 1; 2; 4; 8; 16; 32 ])
    [ (16_384, "16K"); (32_000_000 / s.div, "64M-eq") ]

(* ------------------------------------------------------------------ *)
(* Scale: measured multi-domain throughput + modelled extension        *)
(* ------------------------------------------------------------------ *)

let scale_json_rows : string list ref = ref []

let fig_scale s =
  header
    "Scale: hybrid throughput vs worker domains. Measured rows run\n\
     Parallel.run_ycsb on real Domain.spawn workers (wall-clock, zero\n\
     cost model, parallel verification scans included in the window);\n\
     modelled rows extend the curve with the fig14a cost-model simulation";
  let n = 8_000_000 / s.div in
  let cores = Domain.recommended_domain_count () in
  pf "  [runtime recommends %d domain(s) on this machine]\n%!" cores;
  let record_row ~mode ~workers ~ops_per_s ~speedup ~max_slice =
    Results.(record "scale"
      [ ("mode", S mode); ("workers", I workers);
        ("ops_per_s", F ops_per_s); ("speedup", F speedup);
        ("max_scan_slice_s", F max_slice) ]);
    scale_json_rows :=
      Printf.sprintf
        "    {\"mode\": \"%s\", \"workers\": %d, \"ops_per_s\": %.1f, \
         \"speedup\": %.3f, \"max_scan_slice_s\": %.6f}"
        mode workers ops_per_s speedup max_slice
      :: !scale_json_rows
  in
  pf "%-10s %-8s %12s %10s %18s\n" "mode" "workers" "ops/s" "speedup"
    "max-scan-slice(s)";
  (* measured: real worker domains, wall clock; total ops held constant so
     the sweep compares the same work at every width *)
  let total = 60_000 in
  let measured_point w =
    let config =
      {
        Fastver.Config.default with
        n_workers = w;
        frontier_levels = 8;
        cache_capacity = 512;
        batch_size = 16_384;
        cost_model = Cost_model.zero;
        authenticate_clients = false;
      }
    in
    Gc.compact ();
    let t = Fastver.create ~config () in
    Fastver.load t (records n);
    let spec = Fastver_workload.Ycsb.workload_a in
    (* warm an epoch so steady state is measured *)
    Fastver.Parallel.run_ycsb t ~spec ~db_size:n ~ops_per_worker:(4_096 / w);
    ignore (Fastver.verify t);
    let per_worker = total / w in
    let t0 = Unix.gettimeofday () in
    Fastver.Parallel.run_ycsb t ~spec ~db_size:n ~ops_per_worker:per_worker;
    ignore (Fastver.verify t);
    let wall = Unix.gettimeofday () -. t0 in
    let busy = (Fastver.stats t).worker_busy_s in
    (float_of_int (per_worker * w) /. wall, Array.fold_left max 0.0 busy)
  in
  let widths = if cores > 1 then [ 1; 2; 4 ] else [ 1 ] in
  if cores = 1 then
    pf "  [single core: measured sweep reduced to 1 worker; modelled rows\n\
       \   carry the scaling curve]\n%!";
  (* One sweep point is noisy on a shared host (single runs swing ±18%), so
     every width is measured [repeats] times. The repeats interleave the
     widths, and each repeat's speedup divides by its own 1-worker run, so
     slow drift of the host cancels; a row records the medians. *)
  let repeats = 5 in
  let sweep mode widths point =
    let runs =
      List.init repeats (fun _ ->
          List.map (fun w -> (w, point w)) widths)
    in
    List.iter
      (fun w ->
        let at f = median (List.map (fun r -> f (List.assoc w r)) runs) in
        let ops_per_s = at fst and max_slice = at snd in
        let speedup =
          median
            (List.map (fun r -> fst (List.assoc w r) /. fst (List.assoc 1 r))
               runs)
        in
        pf "%-10s %-8d %12.0f %9.2fx %18s\n%!" mode w ops_per_s speedup
          (if mode = "measured" then Printf.sprintf "%.6f" max_slice else "-");
        record_row ~mode ~workers:w ~ops_per_s ~speedup ~max_slice)
      widths
  in
  sweep "measured" widths measured_point;
  (* modelled: the cost-model simulation carries the curve past the
     machine's cores, fed by the same measured per-worker busy times *)
  sweep "modelled" [ 1; 2; 4; 8 ] (fun w ->
      let config =
        {
          Fastver.Config.default with
          n_workers = w;
          frontier_levels = 8;
          batch_size = 16_384;
          cost_model = Cost_model.simulated;
          authenticate_clients = false;
        }
      in
      let r =
        Fastver_simthreads.Simthreads.run_hybrid ~config ~db_size:n
          ~ops:60_000 ~spec:Fastver_workload.Ycsb.workload_a ()
      in
      (r.throughput, 0.0));
  (* top-level summary consumed by EXPERIMENTS.md *)
  write_summary s "BENCH_scale.json"
    (Printf.sprintf
       "{\n  \"figure\": \"scale\",\n  \"recommended_domains\": %d,\n\
       \  \"rows\": [\n%s\n  ]\n}\n"
       cores
       (String.concat ",\n" (List.rev !scale_json_rows)))

(* ------------------------------------------------------------------ *)
(* Wire-encoding allocation regression gate                            *)
(* ------------------------------------------------------------------ *)

let fig_wire_alloc () =
  header
    "Wire encoding allocation: bytes allocated per message when reusing a\n\
     per-connection encode buffer (regression gate — the single-pass\n\
     encoder must allocate only the final frame string)";
  let b = Buffer.create 256 in
  let mac = String.make 16 'm' in
  let reqs =
    [|
      Fastver_net.Wire.Get { key = 42L; nonce = 7L };
      Fastver_net.Wire.Put
        { key = 42L; nonce = 8L; mac; value = Some "01234567" };
      Fastver_net.Wire.Scan { start = 1L; len = 100; nonce = 9L };
    |]
  in
  (* warm: grow the reused buffer to its steady-state capacity *)
  Array.iter
    (fun r -> ignore (Fastver_net.Wire.encode_request_into b ~id:0L r))
    reqs;
  let iters = 50_000 in
  let a0 = Gc.allocated_bytes () in
  for i = 1 to iters do
    Array.iter
      (fun r ->
        ignore (Fastver_net.Wire.encode_request_into b ~id:(Int64.of_int i) r))
      reqs
  done;
  let per_msg =
    (Gc.allocated_bytes () -. a0) /. float_of_int (iters * Array.length reqs)
  in
  let bound = 192.0 in
  pf "  %.1f bytes/message (bound %.0f)\n%!" per_msg bound;
  Results.(record "wirealloc"
    [ ("bytes_per_msg", F per_msg); ("bound", F bound) ]);
  if per_msg > bound then
    failwith
      (Printf.sprintf
         "wire encode allocation regression: %.1f bytes/message exceeds %.0f"
         per_msg bound)

(* ------------------------------------------------------------------ *)
(* Concerto comparison (§8.1 discussion)                               *)
(* ------------------------------------------------------------------ *)

let concerto s =
  header
    "Comparison with Concerto-style deferred-only verification (§8.1:\n\
     Concerto peaks ~3M ops/s but its verification latency grows linearly\n\
     with the database — 10s+ at 10M records; FastVer's latency is bounded\n\
     by the batch and the tree frontier instead, and its verification work\n\
     parallelises where Concerto's single log serialises)";
  pf "%-26s %-10s %12s %18s\n" "system" "records" "ops/s" "verify-latency(s)";
  let dv_row n =
    Gc.compact ();
    let dv = Fastver_baselines.Dv_store.create (records n) in
    let rng = Random.State.make [| 3 |] in
    let dv_ops = 60_000 in
    let t0 = Unix.gettimeofday () in
    for i = 0 to dv_ops - 1 do
      let k = Int64.of_int (Random.State.int rng n) in
      if i land 1 = 0 then ignore (Fastver_baselines.Dv_store.get dv k)
      else Fastver_baselines.Dv_store.put dv k "01234567"
    done;
    let dv_wall = Unix.gettimeofday () -. t0 in
    Fastver_baselines.Dv_store.verify dv;
    pf "%-26s %-10d %12.0f %18.3f\n%!" "Concerto (DV only)" n
      (float_of_int dv_ops /. dv_wall)
      (Fastver_baselines.Dv_store.last_verify_latency_s dv);
    Results.(record "concerto"
      [ ("system", S "concerto-dv"); ("records", I n);
        ("ops_per_s", F (float_of_int dv_ops /. dv_wall));
        ("verify_latency_s",
         F (Fastver_baselines.Dv_store.last_verify_latency_s dv)) ])
  in
  (* DV latency grows linearly with the database... *)
  let base = 10_000_000 / s.div in
  List.iter dv_row [ base; 4 * base; 16 * base ];
  (* ...while FastVer's stays batch-bound at any size. *)
  let t = mk_system ~d:8 base in
  let gen =
    Fastver_workload.Ycsb.create ~db_size:base Fastver_workload.Ycsb.workload_a
  in
  List.iter
    (fun batch ->
      let p = run_point t gen ~ops:(max 30_000 batch) ~batch in
      pf "%-26s %-10d %12.0f %18.3f\n%!"
        (Printf.sprintf "FastVer (batch %d)" batch)
        base p.throughput p.latency;
      Results.(record "concerto"
        [ ("system", S "fastver"); ("records", I base); ("batch", I batch);
          ("ops_per_s", F p.throughput); ("verify_latency_s", F p.latency) ]))
    [ 8_192; 32_768 ]

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices of §6, measured                       *)
(* ------------------------------------------------------------------ *)

let hybrid_point ?(workers = 4) ?(d = 8) ?(cache = 512) ?(logbuf = 4096)
    ?(sorted = true) ?(algo = Record_enc.Blake2s)
    ?(cost = Cost_model.simulated) ?(theta = 0.9) ~n ~ops ~batch () =
  let config =
    {
      Fastver.Config.default with
      n_workers = workers;
      frontier_levels = d;
      cache_capacity = cache;
      log_buffer_size = logbuf;
      batch_size = 0;
      sorted_migration = sorted;
      algo;
      cost_model = cost;
      authenticate_clients = false;
    }
  in
  let t = Fastver.create ~config () in
  Fastver.load t (records n);
  let gen =
    Fastver_workload.Ycsb.create ~db_size:n
      (Fastver_workload.Ycsb.with_dist Fastver_workload.Ycsb.workload_a
         (Fastver_workload.Ycsb.Zipfian theta))
  in
  (* warm one epoch so steady-state is measured *)
  Fastver.run_ops t gen (min batch 8_192);
  ignore (Fastver.verify t);
  run_point t gen ~ops ~batch

let ablations s =
  let n = 8_000_000 / s.div in
  let ops = 60_000 and batch = 16_384 in
  header
    "Ablation: sorted vs unsorted Merkle updates during the scan (§6.3;\n\
     the paper reports an order-of-magnitude locality effect, cf. M1K(seq))";
  pf "%-10s %12s %14s\n" "migration" "ops/s" "latency(s)";
  List.iter
    (fun (label, sorted) ->
      let p = hybrid_point ~sorted ~n ~ops ~batch () in
      pf "%-10s %12.0f %14.3f\n%!" label p.throughput p.latency;
      Results.(record "ablation_migration"
        [ ("migration", S label); ("ops_per_s", F p.throughput);
          ("latency_s", F p.latency) ]))
    [ ("sorted", true); ("unsorted", false) ];

  header
    "Ablation: workload skew (extended paper: zipf 0.9 is ~30% faster\n\
     than uniform)";
  pf "%-10s %12s %14s\n" "theta" "ops/s" "latency(s)";
  List.iter
    (fun theta ->
      let p = hybrid_point ~theta ~n ~ops ~batch () in
      pf "%-10.1f %12.0f %14.3f\n%!" theta p.throughput p.latency;
      Results.(record "ablation_skew"
        [ ("theta", F theta); ("ops_per_s", F p.throughput);
          ("latency_s", F p.latency) ]))
    [ 0.0; 0.9 ];

  header "Ablation: Merkle hash function";
  pf "%-10s %12s %14s\n" "hash" "ops/s" "latency(s)";
  List.iter
    (fun algo ->
      let p = hybrid_point ~algo ~n ~ops ~batch () in
      pf "%-10s %12.0f %14.3f\n%!"
        (Format.asprintf "%a" Record_enc.pp_algo algo)
        p.throughput p.latency;
      Results.(record "ablation_hash"
        [ ("hash", S (Format.asprintf "%a" Record_enc.pp_algo algo));
          ("ops_per_s", F p.throughput); ("latency_s", F p.latency) ]))
    [ Record_enc.Blake2s; Record_enc.Blake2b; Record_enc.Sha256 ];

  header
    "Ablation: verifier cache size per shard (P1: graceful degradation\n\
     with enclave memory)";
  pf "%-10s %12s %14s\n" "cache" "ops/s" "latency(s)";
  List.iter
    (fun cache ->
      let p = hybrid_point ~cache ~n ~ops ~batch () in
      pf "%-10d %12.0f %14.3f\n%!" cache p.throughput p.latency;
      Results.(record "ablation_cache"
        [ ("cache", I cache); ("ops_per_s", F p.throughput);
          ("latency_s", F p.latency) ]))
    [ 64; 128; 512; 4096 ];

  header
    "Ablation: verification-log buffer size (§7: amortising enclave\n\
     transitions; simulated 8µs transitions)";
  pf "%-10s %12s %14s\n" "logbuf" "ops/s" "latency(s)";
  List.iter
    (fun logbuf ->
      let p = hybrid_point ~logbuf ~n ~ops ~batch () in
      pf "%-10d %12.0f %14.3f\n%!" logbuf p.throughput p.latency;
      Results.(record "ablation_logbuf"
        [ ("logbuf", I logbuf); ("ops_per_s", F p.throughput);
          ("latency_s", F p.latency) ]))
    [ 16; 128; 1024; 8192 ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: per-operation latency of the primitives  *)
(* behind each figure                                                  *)
(* ------------------------------------------------------------------ *)

let bechamel_micro () =
  header
    "Micro: per-operation cost of the primitives behind the figures\n\
     (Bechamel OLS estimates; record-shaped inputs match the served path)";
  let open Bechamel in
  let cmac_key = Fastver_crypto.Cmac.of_aes_key "0123456789abcdef" in
  let aes_key = Fastver_crypto.Aes128.expand_key "0123456789abcdef" in
  let block = String.make 16 'b' in
  let sample_value = Value.Data (Some "01234567") in
  let sample_elem =
    Record_enc.blum_element (Key.of_int64 17L) sample_value 123456L
  in
  (* A Merkle node with both slots set: 137 encoded bytes, the record that
     every add_m, evict_m and write-back hashes; its Blum element is 179. *)
  let leaf = Key.of_int64 0x5a5a_1234L in
  let ptr depth =
    Some { Value.key = Key.prefix leaf depth; hash = String.make 32 'h'; in_blum = false }
  in
  let node = Value.Node { left = ptr 19; right = ptr 23 } in
  let node_key = Key.prefix leaf 17 in
  let node_elem = Record_enc.blum_element node_key node 123456L in
  let mset =
    Fastver_crypto.Multiset_hash.create
      (Fastver_crypto.Multiset_hash.key_of_string "0123456789abcdef")
  in
  let hmac_key = Fastver_crypto.Hmac.key "secret" in
  let auth_key = Fastver.Auth.key_of_secret "secret" in
  (* A cold-tier record MAC covers a 20-byte domain, a 46-byte header and
     the value: 100 bytes for a 34-byte value. *)
  let cold_record = String.make 100 'c' in
  let stream = Bytes.make (1 lsl 20) 's' in
  let tests =
    [
      Test.make ~name:"aes128-block (DV PRF core)"
        (Staged.stage (fun () ->
             ignore (Fastver_crypto.Aes128.encrypt_block aes_key block)));
      Test.make ~name:"cmac-blum-element (fig12 hot path)"
        (Staged.stage (fun () ->
             ignore (Fastver_crypto.Cmac.mac cmac_key sample_elem)));
      Test.make ~name:"cmac-node-blum-element (179 B)"
        (Staged.stage (fun () ->
             ignore (Fastver_crypto.Cmac.mac cmac_key node_elem)));
      Test.make ~name:"cmac-receipt (served get)"
        (Staged.stage (fun () ->
             ignore
               (Fastver.Auth.receipt auth_key ~kind:Fastver.Auth.Get ~client:3
                  ~nonce:42L leaf (Some "01234567") ~epoch:7)));
      Test.make ~name:"multiset-add (deferred verification)"
        (Staged.stage (fun () ->
             Fastver_crypto.Multiset_hash.add mset sample_elem));
      Test.make ~name:"blake2s-record-hash (fig14b merkle)"
        (Staged.stage (fun () ->
             ignore (Record_enc.hash_value ~algo:Record_enc.Blake2s sample_value)));
      Test.make ~name:"blake2s-node-hash (137 B)"
        (Staged.stage (fun () ->
             ignore (Record_enc.hash_value ~algo:Record_enc.Blake2s node)));
      Test.make ~name:"node-blum-element (encode, 179 B)"
        (Staged.stage (fun () ->
             ignore (Record_enc.blum_element node_key node 123456L)));
      Test.make ~name:"blake2b-record-hash (ablation)"
        (Staged.stage (fun () ->
             ignore (Record_enc.hash_value ~algo:Record_enc.Blake2b sample_value)));
      Test.make ~name:"sha256-record-hash (ablation)"
        (Staged.stage (fun () ->
             ignore (Record_enc.hash_value ~algo:Record_enc.Sha256 sample_value)));
      Test.make ~name:"hmac-sha256 (epoch certificate)"
        (Staged.stage (fun () ->
             ignore (Fastver_crypto.Hmac.mac_with hmac_key "epoch:42")));
      Test.make ~name:"hmac-sha256-cold-record (100 B)"
        (Staged.stage (fun () ->
             ignore (Fastver_crypto.Hmac.mac_with hmac_key cold_record)));
      Test.make ~name:"sha256-stream (1 MiB)"
        (Staged.stage (fun () ->
             let ctx = Fastver_crypto.Sha256.init () in
             Fastver_crypto.Sha256.update_bytes ctx stream 0 (Bytes.length stream);
             ignore (Fastver_crypto.Sha256.finalize ctx)));
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
    let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
    let results =
      Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                     ~predictors:[| Measure.run |]) instance raw
    in
    Hashtbl.iter
      (fun name result ->
        let short =
          match String.index_opt name '/' with
          | Some i -> String.sub name (i + 1) (String.length name - i - 1)
          | None -> name
        in
        match Analyze.OLS.estimates result with
        | Some [ est ] ->
            (* The stream case also reads as a rate: 1 MiB per op. *)
            let rate =
              if String.starts_with ~prefix:"sha256-stream" short then
                Printf.sprintf " (%.0f MB/s)" (1.048576e9 /. est)
              else ""
            in
            pf "  %-40s %10.0f ns/op%s\n%!" short est rate;
            Results.(record "micro"
              [ ("primitive", S short); ("ns_per_op", F est) ])
        | Some _ | None -> pf "  %-40s (no estimate)\n%!" name)
      results
  in
  List.iter benchmark tests

(* ------------------------------------------------------------------ *)
(* Observability overhead: metrics-on vs metrics-off                   *)
(* ------------------------------------------------------------------ *)

let fig_obs s =
  header
    "Observability overhead: hot-path metric recording on vs off,\n\
     single-thread YCSB-C (read-only, zipf 0.9; acceptance: <= 5%\n\
     throughput cost — callback-backed metrics are scrape-time only and\n\
     don't appear here)";
  let n = 2_000_000 / s.div in
  let ops = 120_000 and batch = 32_768 in
  let run_mode enabled =
    let config =
      {
        Fastver.Config.default with
        n_workers = 1;
        frontier_levels = 8;
        batch_size = 0;
        cost_model = Cost_model.zero;
        authenticate_clients = false;
        metrics_enabled = enabled;
      }
    in
    Gc.compact ();
    let t = Fastver.create ~config () in
    Fastver.load t (records n);
    let gen =
      Fastver_workload.Ycsb.create ~db_size:n
        (Fastver_workload.Ycsb.with_dist Fastver_workload.Ycsb.workload_c
           (Fastver_workload.Ycsb.Zipfian 0.9))
    in
    (* warm one epoch so steady-state is measured *)
    Fastver.run_ops t gen 8_192;
    ignore (Fastver.verify t);
    (t, run_point t gen ~ops ~batch)
  in
  (* interleave the modes and take the best of three each, so a scheduler
     hiccup hits both sides rather than biasing the ratio *)
  ignore (run_mode false) (* throwaway: first run pays page-faults for all *);
  let samples = ref [] in
  List.iter
    (fun enabled ->
      let t, p = run_mode enabled in
      samples := (enabled, t, p.throughput) :: !samples)
    [ false; true; false; true; false; true ];
  let best enabled =
    List.fold_left
      (fun acc (e, _, th) -> if e = enabled then max acc th else acc)
      0.0 !samples
  in
  let off = { throughput = best false; latency = 0.0 } in
  let on = { throughput = best true; latency = 0.0 } in
  let t_on =
    match List.find (fun (e, _, _) -> e) !samples with _, t, _ -> t
  in
  let overhead = 100.0 *. (1.0 -. (on.throughput /. off.throughput)) in
  pf "%-12s %12s\n" "metrics" "ops/s";
  pf "%-12s %12.0f\n" "off" off.throughput;
  pf "%-12s %12.0f   (overhead %+.1f%%)\n%!" "on" on.throughput overhead;
  Results.(record "obs"
    [ ("metrics", S "off"); ("records", I n); ("ops_per_s", F off.throughput) ]);
  Results.(record "obs"
    [ ("metrics", S "on"); ("records", I n); ("ops_per_s", F on.throughput);
      ("overhead_pct", F overhead);
      ("metrics_snapshot",
       J (Fastver_obs.Registry.to_json (Fastver.registry t_on))) ])

(* ------------------------------------------------------------------ *)
(* Cold tier: authenticated larger-than-memory serving                 *)
(* ------------------------------------------------------------------ *)

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fig_coldtier s =
  header
    "Cold tier: verified serving of larger-than-memory databases. The\n\
     in-memory budget is fixed; databases 2x/4x/8x that size overflow to\n\
     the authenticated log-structured cold tier after each verification\n\
     scan. Every cold read is MAC-checked and re-enters deferred\n\
     verification as an ordinary blum add; verification stays ON";
  let budget = 2_048 in
  let json_rows = ref [] in
  pf "%-6s %-9s %12s %14s %10s %10s %9s %12s\n" "mult" "records" "ops/s"
    "latency(s)" "cold-rd" "cold-wr" "segments" "gc-rewrites";
  List.iter
    (fun mult ->
      let n = mult * budget in
      let dir = Filename.temp_file "fastver" "-coldtier" in
      Sys.remove dir;
      let config =
        {
          Fastver.Config.default with
          n_workers = 2;
          frontier_levels = 6;
          batch_size = 0;
          cost_model = Cost_model.zero;
          authenticate_clients = false;
          cold_dir = Some dir;
          cold_threshold = budget;
          cold_segment_bytes = 128 * 1024;
          cold_gc_ratio = 0.4;
        }
      in
      Gc.compact ();
      let t = Fastver.create ~config () in
      Fastver.load t (records n);
      let gen =
        Fastver_workload.Ycsb.create ~db_size:n
          (Fastver_workload.Ycsb.with_dist Fastver_workload.Ycsb.workload_a
             (Fastver_workload.Ycsb.Zipfian 0.9))
      in
      (* warm one epoch: the first verify demotes the overflow to disk *)
      Fastver.run_ops t gen 2_048;
      ignore (Fastver.verify t);
      let p = run_point t gen ~ops:24_000 ~batch:4_096 in
      let cs =
        match Fastver.cold_stats t with
        | Some cs -> cs
        | None -> failwith "coldtier: no cold tier attached"
      in
      let open Fastver_kvstore.Store.Cold in
      if mult >= 4 && cs.reads = 0 then
        failwith "coldtier: no reads were served from the cold tier";
      if cs.scrub_failures > 0 then
        failwith "coldtier: integrity failures on cold reads";
      pf "%-6s %-9d %12.0f %14.3f %10d %10d %9d %12d\n%!"
        (Printf.sprintf "%dx" mult) n p.throughput p.latency cs.reads
        cs.writes cs.segments cs.gc_rewrites;
      Results.(record "coldtier"
        [ ("mult", I mult); ("records", I n); ("budget", I budget);
          ("ops_per_s", F p.throughput); ("latency_s", F p.latency);
          ("cold_reads", I cs.reads); ("cold_writes", I cs.writes);
          ("segments", I cs.segments); ("dead_segments", I cs.dead_segments);
          ("live_bytes", I cs.live_bytes); ("dead_bytes", I cs.dead_bytes);
          ("gc_rewrites", I cs.gc_rewrites) ]);
      json_rows :=
        Printf.sprintf
          "    {\"mult\": %d, \"records\": %d, \"budget\": %d, \
           \"ops_per_s\": %.1f, \"latency_s\": %.6f, \"cold_reads\": %d, \
           \"cold_writes\": %d, \"segments\": %d, \"gc_rewrites\": %d}"
          mult n budget p.throughput p.latency cs.reads cs.writes cs.segments
          cs.gc_rewrites
        :: !json_rows;
      remove_tree dir)
    [ 2; 4; 8 ];
  write_summary s "BENCH_cold.json"
    (Printf.sprintf
       "{\n  \"figure\": \"coldtier\",\n  \"rows\": [\n%s\n  ]\n}\n"
       (String.concat ",\n" (List.rev !json_rows)))

(* ------------------------------------------------------------------ *)
(* Replication: follower read scaling + failover                       *)
(* ------------------------------------------------------------------ *)

let fig_repl s =
  header
    "Verified read replication: followers replay the primary's op stream,\n\
     verify the certificate chain at every epoch boundary, and serve\n\
     reads through the ordinary network path (clients re-check receipt\n\
     MACs unchanged). Aggregate verified-read throughput vs follower\n\
     count, plus failover: reads keep flowing after the primary dies";
  let n = 20_000 in
  let tmp suffix =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fastver-repl-%d-%s" (Unix.getpid ()) suffix)
  in
  let json_rows = ref [] in
  let failover_ms = ref 0.0 in
  let write_failover_ms = ref 0.0 in
  let single = ref 0.0 in
  pf "%-10s %14s %16s %10s\n" "followers" "agg ops/s" "ideal ops/s" "p99(ms)";
  List.iter
    (fun fcount ->
      let config =
        {
          Fastver.Config.default with
          n_workers = 2;
          batch_size = 0;
          cost_model = Cost_model.zero;
        }
      in
      Gc.compact ();
      let t = Fastver.create ~config () in
      Fastver.load t (records n);
      let rsock = tmp (Printf.sprintf "%d-pri.sock" fcount) in
      let prim =
        match
          Fastver_replica.Primary.create t
            ~listen:(Fastver_net.Addr.Unix_sock rsock)
        with
        | Ok p -> p
        | Error e -> failwith ("repl: " ^ e)
      in
      Fastver_replica.Primary.start prim;
      (* a few sealed epochs of writes for the followers to replay *)
      for e = 0 to 3 do
        for i = 0 to 499 do
          Fastver.put t
            (Int64.of_int ((e * 500) + i))
            (Printf.sprintf "v%d-%d" e i)
        done;
        ignore (Fastver.verify t)
      done;
      let sealed = Fastver.verified_epoch t in
      (* followers serve reads only; one worker each keeps the per-node
         domain count low so follower processes pack onto the machine *)
      let fconfig = { config with Fastver.Config.n_workers = 1 } in
      let followers =
        List.init fcount (fun i ->
            let lsock = tmp (Printf.sprintf "%d-f%d.sock" fcount i) in
            match
              Fastver_replica.Follower.create ~config:fconfig
                ~load:(fun sys -> Fastver.load sys (records n))
                ~primary:(Fastver_net.Addr.Unix_sock rsock)
                ~listen:(Fastver_net.Addr.Unix_sock lsock)
                ~dir:(tmp (Printf.sprintf "%d-f%d-state" fcount i))
                ()
            with
            | Ok f ->
                Fastver_replica.Follower.start f;
                f
            | Error e -> failwith ("repl follower: " ^ e))
      in
      let deadline = Unix.gettimeofday () +. 30.0 in
      List.iter
        (fun f ->
          while
            Fastver_replica.Follower.verified_epoch f < sealed
            && Unix.gettimeofday () < deadline
          do
            Unix.sleepf 0.01
          done;
          if Fastver_replica.Follower.verified_epoch f < sealed then
            failwith "repl: follower failed to catch up")
        followers;
      (* one closed-loop verified-read benchmark per follower, concurrently.
         One client domain per follower: aggregate throughput then scales
         with follower count up to the machine's core budget (the JSON
         records the core count so flat curves on small boxes read as a
         hardware ceiling, not a replication bottleneck). *)
      let bench f =
        let srv = Option.get (Fastver_replica.Follower.server f) in
        Fastver_net.Net_bench.run
          ~addr:(Fastver_net.Server.bound_addr srv)
          ~clients:1 ~window:32 ~ops:20_000 ~db_size:n ~put_ratio:0.0 ()
      in
      let doms =
        List.map (fun f -> Domain.spawn (fun () -> bench f)) followers
      in
      let rs = List.map Domain.join doms in
      let open Fastver_net.Net_bench in
      let agg = List.fold_left (fun a r -> a +. r.ops_per_s) 0.0 rs in
      let p99 = List.fold_left (fun a r -> max a r.p99_ms) 0.0 rs in
      let fails =
        List.fold_left
          (fun a r -> a + r.integrity_failures + r.errors)
          0 rs
      in
      if fails > 0 then failwith "repl: follower reads failed verification";
      if fcount = 1 then single := agg;
      let ideal = !single *. float_of_int fcount in
      pf "%-10d %14.0f %16.0f %10.3f\n%!" fcount agg ideal p99;
      (* failover on the largest round: kill the primary mid-stream, then
         time verified reads against a follower that just lost it *)
      (if fcount = 4 then begin
         let f0 = List.hd followers in
         let srv = Option.get (Fastver_replica.Follower.server f0) in
         let faddr = Fastver_net.Server.bound_addr srv in
         let t0 = Unix.gettimeofday () in
         Fastver_replica.Primary.stop prim;
         let r =
           Fastver_net.Net_bench.run ~addr:faddr ~clients:1 ~window:1
             ~ops:200 ~db_size:n ~put_ratio:0.0 ~first_client:64 ()
         in
         if r.integrity_failures + r.errors > 0 then
           failwith "repl: post-failover reads failed";
         failover_ms := (Unix.gettimeofday () -. t0) *. 1000.0;
         pf "  failover: %.1f ms for 200 verified reads after primary death\n%!"
           !failover_ms
       end);
      Results.(record "repl"
        [ ("followers", I fcount); ("records", I n);
          ("agg_ops_per_s", F agg); ("ideal_ops_per_s", F ideal);
          ("p99_ms", F p99) ]);
      json_rows :=
        Printf.sprintf
          "    {\"followers\": %d, \"records\": %d, \"agg_ops_per_s\": %.1f, \
           \"ideal_ops_per_s\": %.1f, \"p99_ms\": %.3f}"
          fcount n agg ideal p99
        :: !json_rows;
      List.iter Fastver_replica.Follower.stop followers;
      Fastver_replica.Primary.stop prim)
    [ 1; 2; 4 ];
  (* Write failover: an electable candidate loses the primary, elects
     itself over its verified chain, and starts taking writes — time from
     primary death until 200 verified writes have been accepted by the
     promoted node through the ordinary client path. *)
  (let config =
     {
       Fastver.Config.default with
       n_workers = 1;
       batch_size = 0;
       cost_model = Cost_model.zero;
     }
   in
   let t = Fastver.create ~config () in
   Fastver.load t (records n);
   let rsock = tmp "wf-pri.sock" in
   let prim =
     match
       Fastver_replica.Primary.create t
         ~listen:(Fastver_net.Addr.Unix_sock rsock)
     with
     | Ok p -> p
     | Error e -> failwith ("repl: " ^ e)
   in
   Fastver_replica.Primary.start prim;
   for e = 0 to 3 do
     for i = 0 to 499 do
       Fastver.put t
         (Int64.of_int ((e * 500) + i))
         (Printf.sprintf "w%d-%d" e i)
     done;
     ignore (Fastver.verify t)
   done;
   let sealed = Fastver.verified_epoch t in
   let election =
     Fastver_replica.Follower.electable ~priority:1 ~election_timeout:0.25
       ~probe_timeout:0.25 ~probe_interval:0.1 ~promote_batch:500
       (Fastver_net.Addr.Unix_sock (tmp "wf-cand.sock"))
   in
   let f =
     match
       Fastver_replica.Follower.create ~config
         ~load:(fun sys -> Fastver.load sys (records n))
         ~reconnect_delay:0.05 ~election
         ~primary:(Fastver_net.Addr.Unix_sock rsock)
         ~listen:(Fastver_net.Addr.Unix_sock (tmp "wf-f.sock"))
         ~dir:(tmp "wf-f-state") ()
     with
     | Ok f ->
         Fastver_replica.Follower.start f;
         f
     | Error e -> failwith ("repl write-failover: " ^ e)
   in
   let deadline = Unix.gettimeofday () +. 30.0 in
   while
     Fastver_replica.Follower.verified_epoch f < sealed
     && Unix.gettimeofday () < deadline
   do
     Unix.sleepf 0.01
   done;
   if Fastver_replica.Follower.verified_epoch f < sealed then
     failwith "repl: write-failover candidate failed to catch up";
   let srv = Option.get (Fastver_replica.Follower.server f) in
   let faddr = Fastver_net.Server.bound_addr srv in
   let t0 = Unix.gettimeofday () in
   Fastver_replica.Primary.stop prim;
   let deadline = Unix.gettimeofday () +. 30.0 in
   while
     Fastver_replica.Follower.state f <> Fastver_replica.Follower.Leading
     && Unix.gettimeofday () < deadline
   do
     Unix.sleepf 0.005
   done;
   if Fastver_replica.Follower.state f <> Fastver_replica.Follower.Leading
   then failwith "repl: candidate never promoted after primary death";
   let r =
     Fastver_net.Net_bench.run ~addr:faddr ~clients:1 ~window:1 ~ops:200
       ~db_size:n ~put_ratio:1.0 ~first_client:80 ()
   in
   if
     r.Fastver_net.Net_bench.integrity_failures
     + r.Fastver_net.Net_bench.errors
     > 0
   then failwith "repl: post-promotion writes failed";
   write_failover_ms := (Unix.gettimeofday () -. t0) *. 1000.0;
   pf
     "  write failover: %.1f ms from primary death to 200 verified writes \
      on the promoted candidate\n\
      %!"
     !write_failover_ms;
   Fastver_replica.Follower.stop f);
  write_summary s "BENCH_repl.json"
    (Printf.sprintf
       "{\n  \"figure\": \"repl\",\n  \"cores\": %d,\n  \
        \"failover_200_reads_ms\": %.1f,\n  \
        \"write_failover_200_writes_ms\": %.1f,\n  \
        \"rows\": [\n%s\n  ]\n}\n"
       (Domain.recommended_domain_count ())
       !failover_ms !write_failover_ms
       (String.concat ",\n" (List.rev !json_rows)))

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let all_figs =
  [ "fig12"; "fig13a"; "fig13b"; "fig13cd"; "fig14a"; "fig14b"; "fig14c";
    "scale"; "concerto"; "ablations"; "coldtier"; "repl";
    "wirealloc"; "obs"; "micro" ]

let run_bench only quick full =
  (* Reduce GC-induced variance: larger minor heap, and each measurement
     starts from a compacted major heap. *)
  Gc.set { (Gc.get ()) with minor_heap_size = 4 * 1024 * 1024 };
  let s =
    if quick then { div = 512; label = "1/512"; quick }
    else { div = 64; label = "1/64"; quick }
  in
  let selected = match only with [] -> all_figs | l -> l in
  pf "FastVer benchmark harness — scale %s of paper database sizes\n" s.label;
  pf "figures: %s\n%!" (String.concat ", " selected);
  let t0 = Unix.gettimeofday () in
  let run name f = if List.mem name selected then f () in
  run "fig12" (fun () -> fig12 s ~full);
  run "fig13a" (fun () -> fig13a s);
  run "fig13b" (fun () -> fig13b s);
  run "fig13cd" (fun () -> fig13cd s);
  run "fig14a" (fun () -> fig14a s);
  run "fig14b" (fun () -> fig14b s);
  run "fig14c" (fun () -> fig14c s);
  run "scale" (fun () -> fig_scale s);
  run "concerto" (fun () -> concerto s);
  run "ablations" (fun () -> ablations s);
  run "coldtier" (fun () -> fig_coldtier s);
  run "repl" (fun () -> fig_repl s);
  run "wirealloc" fig_wire_alloc;
  run "obs" (fun () -> fig_obs s);
  run "micro" bechamel_micro;
  let results_path = Filename.concat "bench" (Filename.concat "results" "latest.json") in
  Results.write ~scale:s.label ~figs:selected results_path;
  let stamp =
    let tm = Unix.gmtime (Unix.time ()) in
    Printf.sprintf "%04d%02d%02dT%02d%02d%02dZ" (tm.tm_year + 1900)
      (tm.tm_mon + 1) tm.tm_mday tm.tm_hour tm.tm_min tm.tm_sec
  in
  Results.write_figure_archives
    ~dir:(Filename.concat "bench" "results")
    ~scale:s.label ~stamp;
  print_newline ();
  line ();
  pf "results JSON: %s\n" results_path;
  pf "done in %.1f minutes\n" ((Unix.gettimeofday () -. t0) /. 60.0)

let () =
  let open Cmdliner in
  let only =
    Arg.(value & opt_all (enum (List.map (fun f -> (f, f)) all_figs)) []
           & info [ "only" ] ~docv:"FIG" ~doc:"Run only this figure (repeatable).")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Tiny scale for sanity checks.")
  in
  let full =
    Arg.(value & flag
           & info [ "full" ] ~doc:"Include the 128M-equivalent database tier.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "bench" ~doc:"Regenerate the paper's evaluation figures")
      Term.(const run_bench $ only $ quick $ full)
  in
  exit (Cmd.eval cmd)
