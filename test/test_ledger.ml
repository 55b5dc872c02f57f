(* A deterministic cost ledger. Wall clocks drift between hosts and runs;
   verifier op counts for a fixed seed do not. This runs reduced, in-process
   versions of three perfbench shapes over 10,000 keys, with one shard, a
   verification scan every 2,048 ops and a fixed seed, and checks each
   verifier cost, and the enclave transitions, per user op against a
   committed upper bound (cold reads are per user get). The transition
   bounds are the exact counts over the 8,192 counted ops (7,957, 8,207
   and 6,057), so one more transition fails them. A change that lowers a
   cost tightens its bound; one that raises a bound says why.
   - durable-write: 90% puts over uniform keys, a checkpoint every epoch
     (perfbench runs 50,000 keys);
   - cold-read: 95% gets over uniform keys, with a cold tier that keeps a
     quarter of the records in memory (perfbench: 25,000 of 100,000);
   - hot-rw: 50% puts over zipf 0.99 keys, all in memory (perfbench runs
     100,000 keys, two shards and 8,192-op epochs).

   A get of a Merkle-protected record is verified where it sits ([add_m],
   [vget], [evict_m]); only puts hand a record to deferred (Blum)
   verification. When gets deferred too, every record read once in an
   epoch paid [evict_bm], a scan migration ([add_b] + [evict_m]) and,
   cold, a re-promotion. Merkle hashes plus Blum elements per user op went
   from 6.478 to 6.202 (durable-write), 4.054 to 2.496 (cold-read) and
   3.207 to 2.870 (hot-rw), and cold-read's cold reads per get from 1.10
   to 0.77: routing reads only the aux word, so a get reads a cold body
   once, and a record read from cold stays there. The rises this costs,
   and why:
   - [add_m] (cold-read 1.23 to 1.39, hot-rw 0.79 to 0.87) and [evict_m]
     (cold-read 0.83 to 0.99, hot-rw 0.42 to 0.50): a record read twice
     in an epoch is added and evicted twice, where its second read used
     to take the fast path;
   - transitions (durable-write 7,906 to 7,957, cold-read 7,898 to 8,207,
     hot-rw 5,373 to 6,057): each Merkle-path get is one enclave call,
     where a re-read used to ride the fast path's log buffer. *)

module Ycsb = Fastver_workload.Ycsb
module Verifier = Fastver_verifier.Verifier

let db_size = 10_000
let epoch_ops = 2048
let warm_epochs = 1
let epochs = 4

let temp_dir shape =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "fv-ledger-%s-%d" shape (Unix.getpid ()))

(* What a shape's counted epochs cost, per counted user op. *)
type costs = {
  per : (Verifier.op_stats -> int) -> float;  (** a verifier counter *)
  transitions : float;  (** enclave transitions *)
  cold_reads_per_get : float;  (** cold-tier reads per user get *)
}

(* Loads the keys, runs [warm_epochs] uncounted and [epochs] counted epochs
   of gets and puts over zipf [theta] keys (0 = uniform), each closed by a
   verification scan and [after_scan], and returns what the counted epochs
   cost. *)
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
  let cold_reads () =
    match Fastver.cold_stats t with Some c -> c.reads | None -> 0
  in
  let s0 = Fastver.verifier_stats t and tr0 = Enclave.transitions enclave in
  let gets0 = (Fastver.stats t).gets and cr0 = cold_reads () in
  for _ = 1 to epochs do epoch () done;
  let s = Fastver.verifier_stats t and tr = Enclave.transitions enclave in
  let gets = (Fastver.stats t).gets - gets0 in
  let per_op n = float_of_int n /. float_of_int (epochs * epoch_ops) in
  {
    per = (fun count -> per_op (count s - count s0));
    transitions = per_op (tr - tr0);
    cold_reads_per_get =
      float_of_int (cold_reads () - cr0) /. float_of_int (max 1 gets);
  }

(* A Merkle-record hash is one per [add_m], [evict_m] and write-back; a
   Blum element one per [add_b], [evict_b] and [evict_bm]. *)
let merkle_hashes c =
  c.per (fun s -> s.n_add_m + s.n_evict_m + s.n_flush_m)

let blum_elements c = c.per (fun s -> s.n_add_b + s.n_evict_b + s.n_evict_bm)

let check shape costs =
  List.iter
    (fun (name, v, bound) ->
      Printf.printf "ledger %s %-14s %.4f (bound %.4f)\n" shape name v bound;
      if v > bound then
        Alcotest.failf "%s: %s %.4f is over its bound %.4f" shape name v
          bound)
    costs

let test_durable_write () =
  let dir = temp_dir "dw" in
  Fastver_kvstore.Ckpt_io.remove_tree dir;
  let config =
    { Fastver.Config.default with batch_size = 0; cost_model = Cost_model.zero }
  in
  let c =
    run_shape ~theta:0.0 ~config ~read_prop:0.1 ~after_scan:(fun t ->
        match Fastver.checkpoint t ~dir with
        | Ok () -> ()
        | Error e -> Alcotest.failf "checkpoint: %s" e)
  in
  Fastver_kvstore.Ckpt_io.remove_tree dir;
  check "durable-write"
    [
      ("add_m", c.per (fun s -> s.n_add_m), 1.25);
      ("evict_m", c.per (fun s -> s.n_evict_m), 0.85);
      ("write-backs", c.per (fun s -> s.n_flush_m), 2.30);
      ("merkle hashes", merkle_hashes c, 4.40);
      ("blum elements", blum_elements c, 1.83);
      ("transitions", c.transitions, 0.9714);
    ]

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
  let c = run_shape ~theta:0.0 ~config ~read_prop:0.95 ~after_scan:ignore in
  Fastver_kvstore.Ckpt_io.remove_tree dir;
  if c.cold_reads_per_get = 0.0 then
    Alcotest.fail "cold-read: no get reached the cold tier";
  check "cold-read"
    [
      ("add_m", c.per (fun s -> s.n_add_m), 1.40);
      ("evict_m", c.per (fun s -> s.n_evict_m), 1.00);
      ("add_b", c.per (fun s -> s.n_add_b), 0.06);
      ("evict_b", c.per (fun s -> s.n_evict_b), 0.01);
      ("merkle hashes", merkle_hashes c, 2.40);
      ("blum elements", blum_elements c, 0.12);
      ("transitions", c.transitions, 1.0019);
      ("cold reads/get", c.cold_reads_per_get, 0.77);
    ]

let test_hot_rw () =
  let config =
    { Fastver.Config.default with batch_size = 0; cost_model = Cost_model.zero }
  in
  let c = run_shape ~theta:0.99 ~config ~read_prop:0.5 ~after_scan:ignore in
  check "hot-rw"
    [
      ("add_m", c.per (fun s -> s.n_add_m), 0.87);
      ("evict_m", c.per (fun s -> s.n_evict_m), 0.51);
      ("add_b", c.per (fun s -> s.n_add_b), 0.76);
      ("evict_b", c.per (fun s -> s.n_evict_b), 0.51);
      ("merkle hashes", merkle_hashes c, 1.38);
      ("blum elements", blum_elements c, 1.51);
      ("transitions", c.transitions, 0.7394);
    ]

let suite =
  ( "ledger",
    [
      Alcotest.test_case "durable-write shape" `Quick test_durable_write;
      Alcotest.test_case "cold-read shape" `Quick test_cold_read;
      Alcotest.test_case "hot-rw shape" `Quick test_hot_rw;
    ] )
