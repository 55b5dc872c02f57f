(* A deterministic cost ledger. Wall clocks drift between hosts and runs;
   verifier op counts for a fixed seed do not. This runs a reduced,
   in-process version of perfbench's durable-write shape — 90% puts over
   uniform keys, one shard, a verification scan and a checkpoint every
   2,048 ops, a fixed seed — over 10,000 keys instead of 50,000, and
   checks each verifier cost per user op against a committed upper bound.
   A change that lowers a cost tightens its bound; one that raises a
   bound says why. *)

module Ycsb = Fastver_workload.Ycsb

let db_size = 10_000
let epoch_ops = 2048
let warm_epochs = 1
let epochs = 4

(* Per user op. A Merkle-record hash is one per [add_m], [evict_m] and
   write-back. When checkpoints drained the verifier cache instead of
   writing stale records back, this shape cost 3.25 [add_m], 3.25
   [evict_m] and so 6.50 hashes. *)
let bounds =
  [ ("add_m", 1.25); ("evict_m", 0.85); ("write-backs", 2.45); ("merkle hashes", 4.50) ]

let test_durable_write () =
  let config =
    {
      Fastver.Config.default with
      batch_size = 0;
      cost_model = Cost_model.zero;
    }
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fv-ledger-%d" (Unix.getpid ()))
  in
  Fastver_kvstore.Ckpt_io.remove_tree dir;
  let t = Fastver.create ~config () in
  Fastver.load t
    (Array.init db_size (fun i ->
         let k = Int64.of_int i in
         (k, Ycsb.initial_value k)));
  let gen =
    Ycsb.create ~seed:1 ~db_size
      { Ycsb.workload_a with read_prop = 0.1; update_prop = 0.9; dist = Zipfian 0.0 }
  in
  let epoch () =
    Fastver.run_ops t gen epoch_ops;
    ignore (Fastver.verify t);
    match Fastver.checkpoint t ~dir with
    | Ok () -> ()
    | Error e -> Alcotest.failf "checkpoint: %s" e
  in
  for _ = 1 to warm_epochs do epoch () done;
  let s0 = Fastver.verifier_stats t in
  let a0 = s0.n_add_m and e0 = s0.n_evict_m and f0 = s0.n_flush_m in
  for _ = 1 to epochs do epoch () done;
  Fastver_kvstore.Ckpt_io.remove_tree dir;
  let s = Fastver.verifier_stats t in
  let per n = float_of_int n /. float_of_int (epochs * epoch_ops) in
  let add_m = per (s.n_add_m - a0)
  and evict_m = per (s.n_evict_m - e0)
  and flush_m = per (s.n_flush_m - f0) in
  let costs =
    [
      ("add_m", add_m);
      ("evict_m", evict_m);
      ("write-backs", flush_m);
      ("merkle hashes", add_m +. evict_m +. flush_m);
    ]
  in
  List.iter
    (fun (name, v) ->
      let bound = List.assoc name bounds in
      Printf.printf "ledger durable-write %-14s %.3f per user op (bound %.2f)\n"
        name v bound;
      if v > bound then
        Alcotest.failf "%s per user op %.3f is over its bound %.2f" name v bound)
    costs

let suite =
  ("ledger", [ Alcotest.test_case "durable-write shape" `Quick test_durable_write ])
