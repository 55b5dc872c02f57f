(* A deterministic cost ledger. Wall clocks drift between hosts and runs;
   verifier op counts for a fixed seed do not. This runs reduced, in-process
   versions of three perfbench shapes over 10,000 keys, with one shard, a
   verification scan every 2,048 ops and a fixed seed, and checks each
   verifier cost, and the enclave transitions, per user op against a
   committed upper bound. The transition bounds are the exact counts over
   the 8,192 counted ops (7,906, 7,898 and 5,373), so one more transition
   fails them. A change that lowers a cost tightens its bound; one that
   raises a bound says why.
   - durable-write: 90% puts over uniform keys, a checkpoint every epoch
     (perfbench runs 50,000 keys);
   - cold-read: 95% gets over uniform keys, with a cold tier that keeps a
     quarter of the records in memory (perfbench: 25,000 of 100,000);
   - hot-rw: 50% puts over zipf 0.99 keys, all in memory (perfbench runs
     100,000 keys, two shards and 8,192-op epochs). *)

module Ycsb = Fastver_workload.Ycsb
module Verifier = Fastver_verifier.Verifier

let db_size = 10_000
let epoch_ops = 2048
let warm_epochs = 1
let epochs = 4

let temp_dir shape =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "fv-ledger-%s-%d" shape (Unix.getpid ()))

(* Loads the keys, runs [warm_epochs] uncounted and [epochs] counted epochs
   of gets and puts over zipf [theta] keys (0 = uniform), each closed by a
   verification scan and [after_scan], and returns the system with each
   verifier counter's growth per counted user op, and the enclave
   transitions per counted user op. *)
let run_shape ~theta ~config ~read_prop ~after_scan =
  let t = Fastver.create ~config () in
  Fastver.load t
    (Array.init db_size (fun i ->
         let k = Int64.of_int i in
         (k, Ycsb.initial_value k)));
  let gen =
    Ycsb.create ~seed:1 ~db_size
      {
        Ycsb.workload_a with
        read_prop;
        update_prop = 1.0 -. read_prop;
        dist = Zipfian theta;
      }
  in
  let epoch () =
    Fastver.run_ops t gen epoch_ops;
    ignore (Fastver.verify t);
    after_scan t
  in
  for _ = 1 to warm_epochs do epoch () done;
  let enclave = Fastver.enclave_handle t in
  let s0 = Fastver.verifier_stats t and tr0 = Enclave.transitions enclave in
  for _ = 1 to epochs do epoch () done;
  let s = Fastver.verifier_stats t and tr = Enclave.transitions enclave in
  let per_op n = float_of_int n /. float_of_int (epochs * epoch_ops) in
  ( t,
    (fun (count : Verifier.op_stats -> int) -> per_op (count s - count s0)),
    per_op (tr - tr0) )

let check shape costs =
  List.iter
    (fun (name, v, bound) ->
      Printf.printf "ledger %s %-14s %.4f per user op (bound %.4f)\n" shape name
        v bound;
      if v > bound then
        Alcotest.failf "%s: %s per user op %.3f is over its bound %.2f" shape
          name v bound)
    costs

(* A Merkle-record hash is one per [add_m], [evict_m] and write-back. When
   checkpoints drained the verifier cache instead of writing stale records
   back, this shape cost 3.25 [add_m], 3.25 [evict_m] and so 6.50 hashes. *)
let test_durable_write () =
  let dir = temp_dir "dw" in
  Fastver_kvstore.Ckpt_io.remove_tree dir;
  let config =
    { Fastver.Config.default with batch_size = 0; cost_model = Cost_model.zero }
  in
  let _, per, transitions =
    run_shape ~theta:0.0 ~config ~read_prop:0.1 ~after_scan:(fun t ->
        match Fastver.checkpoint t ~dir with
        | Ok () -> ()
        | Error e -> Alcotest.failf "checkpoint: %s" e)
  in
  Fastver_kvstore.Ckpt_io.remove_tree dir;
  let add_m = per (fun s -> s.n_add_m)
  and evict_m = per (fun s -> s.n_evict_m)
  and flush_m = per (fun s -> s.n_flush_m) in
  check "durable-write"
    [
      ("add_m", add_m, 1.25);
      ("evict_m", evict_m, 0.85);
      ("write-backs", flush_m, 2.45);
      ("merkle hashes", add_m +. evict_m +. flush_m, 4.50);
      ("transitions", transitions, 0.9651);
    ]

(* The same keys as durable-write (the key stream does not depend on the op
   mix) and so the same Merkle-path costs, but most gets find their record
   in the cold tier. *)
let test_cold_read () =
  let dir = temp_dir "cr" in
  Fastver_kvstore.Ckpt_io.remove_tree dir;
  let config =
    {
      Fastver.Config.default with
      batch_size = 0;
      cost_model = Cost_model.zero;
      cold_dir = Some dir;
      cold_threshold = db_size / 4;
    }
  in
  let t, per, transitions =
    run_shape ~theta:0.0 ~config ~read_prop:0.95 ~after_scan:ignore
  in
  let cold_reads = (Option.get (Fastver.cold_stats t)).reads in
  Fastver_kvstore.Ckpt_io.remove_tree dir;
  if cold_reads = 0 then Alcotest.fail "cold-read: no get reached the cold tier";
  check "cold-read"
    [
      ("add_m", per (fun s -> s.n_add_m), 1.25);
      ("evict_m", per (fun s -> s.n_evict_m), 0.85);
      ("add_b", per (fun s -> s.n_add_b), 1.02);
      ("evict_b", per (fun s -> s.n_evict_b), 0.19);
      ("transitions", transitions, 0.9642);
    ]

(* Under zipf 0.99 most ops re-touch a key already deferred this epoch: one
   [add_b] and one [evict_b] on the fast path. Each first touch pays its
   Merkle chain ([add_m]) and one scan migration ([add_b] + [evict_m]).
   The counts did not change when the background scan mode was deleted. *)
let test_hot_rw () =
  let config =
    { Fastver.Config.default with batch_size = 0; cost_model = Cost_model.zero }
  in
  let _, per, transitions =
    run_shape ~theta:0.99 ~config ~read_prop:0.5 ~after_scan:ignore
  in
  check "hot-rw"
    [
      ("add_m", per (fun s -> s.n_add_m), 0.80);
      ("evict_m", per (fun s -> s.n_evict_m), 0.44);
      ("add_b", per (fun s -> s.n_add_b), 1.02);
      ("evict_b", per (fun s -> s.n_evict_b), 0.60);
      ("transitions", transitions, 0.6559);
    ]

let suite =
  ( "ledger",
    [
      Alcotest.test_case "durable-write shape" `Quick test_durable_write;
      Alcotest.test_case "cold-read shape" `Quick test_cold_read;
      Alcotest.test_case "hot-rw shape" `Quick test_hot_rw;
    ] )
