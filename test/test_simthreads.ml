(* The scalability simulator. *)

(* Each side is timed as the best of 3 runs: a single run lasts tens of
   milliseconds, so one scheduling hiccup on a shared host can swing it by
   more than the margin under test. *)
let test_dv_micro_scales () =
  let best workers =
    let run () =
      Fastver_simthreads.Simthreads.run_dv_micro ~workers ~db_size:4096
        ~ops:40_000 ()
    in
    let better (a : Fastver_simthreads.Simthreads.result) b =
      if b.Fastver_simthreads.Simthreads.throughput > a.throughput then b else a
    in
    better (better (run ()) (run ())) (run ())
  in
  let r1 = best 1 in
  let r4 = best 4 in
  Alcotest.(check bool)
    (Printf.sprintf "4 workers beat 1 (%.0f vs %.0f ops/s)" r4.throughput
       r1.throughput)
    true
    (r4.throughput > 2.0 *. r1.throughput);
  Alcotest.(check int) "ops accounted" 40_000 r1.ops

let test_interference_model () =
  let open Fastver_simthreads.Simthreads in
  Alcotest.(check (float 0.0001)) "1 worker" 1.0 (paper_interference 1);
  Alcotest.(check (float 0.0001)) "2 workers" 0.875 (paper_interference 2);
  Alcotest.(check bool) "monotone" true
    (paper_interference 32 < paper_interference 8)

let test_hybrid_modeled () =
  let config =
    {
      Fastver.Config.default with
      n_workers = 4;
      batch_size = 10_000;
      frontier_levels = 4;
      cost_model = Cost_model.zero;
      authenticate_clients = false;
    }
  in
  let r =
    Fastver_simthreads.Simthreads.run_hybrid ~config ~db_size:5_000 ~ops:20_000
      ~spec:Fastver_workload.Ycsb.workload_a ()
  in
  Alcotest.(check int) "worker count" 4 r.workers;
  Alcotest.(check bool) "positive throughput" true (r.throughput > 0.0);
  Alcotest.(check bool) "busy time attributed to all workers" true
    (Array.for_all (fun b -> b > 0.0) r.per_worker_busy_s)

let suite =
  ( "simthreads",
    [
      Alcotest.test_case "dv micro scales" `Slow test_dv_micro_scales;
      Alcotest.test_case "interference model" `Quick test_interference_model;
      Alcotest.test_case "hybrid modeled run" `Slow test_hybrid_modeled;
    ] )
