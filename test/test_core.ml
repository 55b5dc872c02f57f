(* End-to-end tests of the hybrid FastVer system. *)

let mk ?(n = 1000) ?(workers = 2) ?(d = 3) ?(batch = 0) () =
  let config =
    {
      Fastver.Config.default with
      n_workers = workers;
      batch_size = batch;
      frontier_levels = d;
      cost_model = Cost_model.zero;
    }
  in
  let t = Fastver.create ~config () in
  Fastver.load t
    (Array.init n (fun i -> (Int64.of_int i, Printf.sprintf "v%06d" i)));
  t

let vo = Alcotest.(option string)

let ckpt t ~dir =
  match Fastver.checkpoint t ~dir with
  | Ok () -> ()
  | Error e -> Alcotest.failf "checkpoint: %s" e


let test_basic_ops () =
  let t = mk () in
  Alcotest.(check vo) "get first" (Some "v000000") (Fastver.get t 0L);
  Alcotest.(check vo) "get last" (Some "v000999") (Fastver.get t 999L);
  Alcotest.(check vo) "get missing" None (Fastver.get t 5555L);
  Fastver.put t 1L "updated";
  Alcotest.(check vo) "read own write" (Some "updated") (Fastver.get t 1L);
  Fastver.put t 7777L "inserted";
  Alcotest.(check vo) "insert" (Some "inserted") (Fastver.get t 7777L);
  Fastver.delete t 2L;
  Alcotest.(check vo) "delete" None (Fastver.get t 2L)

let test_verify_preserves_state () =
  let t = mk () in
  Fastver.put t 1L "x";
  Fastver.put t 8888L "y";
  Fastver.delete t 2L;
  let e = Fastver.current_epoch t in
  let cert = Fastver.verify t in
  Alcotest.(check bool) "certificate checks" true
    (Fastver.check_epoch_certificate t ~epoch:e cert);
  Alcotest.(check vo) "update survives" (Some "x") (Fastver.get t 1L);
  Alcotest.(check vo) "insert survives" (Some "y") (Fastver.get t 8888L);
  Alcotest.(check vo) "delete survives" None (Fastver.get t 2L);
  (* and across several more epochs *)
  for _ = 1 to 3 do
    ignore (Fastver.verify t)
  done;
  Alcotest.(check vo) "still there" (Some "x") (Fastver.get t 1L)

let test_empty_epochs () =
  let t = mk () in
  (* verification scans with no operations at all must balance *)
  for _ = 1 to 5 do
    ignore (Fastver.verify t)
  done;
  Alcotest.(check int) "five epochs verified" 5 (Fastver.current_epoch t)

let test_differential_model () =
  (* Random ops vs a Hashtbl model, with periodic verification scans. *)
  let n = 500 in
  let t = mk ~n ~workers:3 ~d:2 () in
  let model = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    Hashtbl.replace model (Int64.of_int i) (Printf.sprintf "v%06d" i)
  done;
  let rng = Random.State.make [| 2025 |] in
  for step = 1 to 4000 do
    let k = Int64.of_int (Random.State.int rng (2 * n)) in
    (match Random.State.int rng 4 with
    | 0 ->
        let v = Printf.sprintf "s%d" step in
        Fastver.put t k v;
        Hashtbl.replace model k v
    | 1 ->
        Fastver.delete t k;
        Hashtbl.remove model k
    | _ ->
        Alcotest.(check vo)
          (Printf.sprintf "step %d key %Ld" step k)
          (Hashtbl.find_opt model k) (Fastver.get t k));
    if step mod 500 = 0 then ignore (Fastver.verify t)
  done;
  ignore (Fastver.verify t);
  Hashtbl.iter
    (fun k v -> Alcotest.(check vo) "final state" (Some v) (Fastver.get t k))
    model

let test_scan () =
  let t = mk ~n:200 () in
  let r = Fastver.scan t 10L 20 in
  Alcotest.(check int) "length" 20 (Array.length r);
  Array.iteri
    (fun i (k, v) ->
      Alcotest.(check int64) "key" (Int64.of_int (10 + i)) k;
      Alcotest.(check vo) "value" (Some (Printf.sprintf "v%06d" (10 + i))) v)
    r;
  (* scan off the end of the population: absences verified *)
  let r = Fastver.scan t 195L 10 in
  Alcotest.(check vo) "within" (Some "v000195") (snd r.(0));
  Alcotest.(check vo) "beyond" None (snd r.(9))

let test_batching_auto_verify () =
  let t = mk ~batch:100 () in
  let gen =
    Fastver_workload.Ycsb.create ~db_size:1000 Fastver_workload.Ycsb.workload_a
  in
  Fastver.run_ops t gen 1000;
  let s = Fastver.stats t in
  Alcotest.(check bool) "around 10 automatic verifies" true
    (s.verifies >= 9 && s.verifies <= 11)

let test_sessions () =
  let t = mk () in
  let alice = Fastver.Session.connect t ~client_id:1 in
  let bob = Fastver.Session.connect t ~client_id:2 in
  let r1 = Fastver.Session.put alice 5L "from-alice" in
  let r2 = Fastver.Session.get bob 5L in
  Alcotest.(check vo) "bob reads alice's write" (Some "from-alice") r2.value;
  Fastver.Session.await_certainty alice r1;
  Fastver.Session.await_certainty bob r2;
  Alcotest.(check bool) "epochs advanced past receipts" true
    (Fastver.current_epoch t > r2.epoch)

let test_workers_one_and_many () =
  (* same outcomes regardless of worker count *)
  List.iter
    (fun workers ->
      let t = mk ~workers () in
      Fastver.put t 3L "w";
      ignore (Fastver.verify t);
      Alcotest.(check vo)
        (Printf.sprintf "workers=%d" workers)
        (Some "w") (Fastver.get t 3L))
    [ 1; 2; 4; 8 ]

let test_frontier_depths () =
  List.iter
    (fun d ->
      let t = mk ~d () in
      Fastver.put t 3L "x";
      ignore (Fastver.verify t);
      ignore (Fastver.verify t);
      Alcotest.(check vo) (Printf.sprintf "d=%d" d) (Some "x") (Fastver.get t 3L))
    [ 0; 1; 4; 8 ]

let test_empty_database () =
  let config = { Fastver.Config.default with batch_size = 0 } in
  let t = Fastver.create ~config () in
  Fastver.load t [||];
  Alcotest.(check vo) "nothing there" None (Fastver.get t 1L);
  Fastver.put t 1L "first";
  Alcotest.(check vo) "first insert" (Some "first") (Fastver.get t 1L);
  ignore (Fastver.verify t);
  Alcotest.(check vo) "survives" (Some "first") (Fastver.get t 1L)

let test_checkpoint_recover () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "fv-test-ckpt" in
  let config =
    { Fastver.Config.default with batch_size = 0; frontier_levels = 2 }
  in
  let t = Fastver.create ~config () in
  Fastver.load t (Array.init 50 (fun i -> (Int64.of_int i, string_of_int i)));
  Fastver.put t 10L "before-ckpt";
  ignore (Fastver.verify t);
  ckpt t ~dir;
  match Fastver.recover ~config ~dir () with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok t2 ->
      Alcotest.(check vo) "state back" (Some "before-ckpt") (Fastver.get t2 10L);
      Fastver.put t2 10L "after";
      ignore (Fastver.verify t2);
      Alcotest.(check vo) "works after recovery" (Some "after")
        (Fastver.get t2 10L)

let test_recover_tampered_tree () =
  let module C = Fastver_kvstore.Ckpt_io in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "fv-test-tamper" in
  C.remove_tree dir;
  let config =
    { Fastver.Config.default with batch_size = 0; frontier_levels = 1 }
  in
  let t = Fastver.create ~config () in
  Fastver.load t (Array.init 50 (fun i -> (Int64.of_int i, string_of_int i)));
  ignore (Fastver.verify t);
  ckpt t ~dir;
  let gdir =
    match C.generations dir with
    | (_, g) :: _ -> g
    | [] -> Alcotest.fail "checkpoint wrote no generation"
  in
  (* corrupt one byte of the untrusted merkle-tree file *)
  let path = Filename.concat gdir "merkle-0.tree" in
  let ic = open_in_bin path in
  let raw = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  Bytes.set raw (Bytes.length raw / 2)
    (Char.chr (Char.code (Bytes.get raw (Bytes.length raw / 2)) lxor 1));
  let oc = open_out_bin path in
  output_bytes oc raw;
  close_out oc;
  (* The manifest is untrusted too: a host-controlled adversary re-hashes it
     so the generation still looks committed. Detection must come from the
     verifier, not the crash checksums. *)
  (match C.Manifest.read ~dir:gdir with
  | Error e -> Alcotest.fail e
  | Ok m ->
      let entries =
        List.map
          (fun (e : C.Manifest.entry) ->
            if e.name = "merkle-0.tree" then
              match C.Manifest.entry_of_file ~dir:gdir "merkle-0.tree" with
              | Ok e' -> e'
              | Error err -> Alcotest.fail err
            else e)
          m.entries
      in
      C.Manifest.write ~dir:gdir { m with entries });
  match Fastver.recover ~config ~dir () with
  | Error _ -> () (* rejected at parse time: fine *)
  | Ok t2 -> (
      (* or accepted structurally — then integrity checks must fire *)
      match
        for i = 0 to 49 do
          ignore (Fastver.get t2 (Int64.of_int i))
        done;
        ignore (Fastver.verify t2)
      with
      | exception Fastver.Integrity_violation _ -> ()
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "tampered tree file never detected")

let test_stats_accounting () =
  let t = mk ~n:100 () in
  for i = 0 to 49 do
    ignore (Fastver.get t (Int64.of_int i))
  done;
  let s = Fastver.stats t in
  Alcotest.(check int) "ops counted" 50 s.ops;
  Alcotest.(check int) "paths partition ops" 50 (s.blum_fast_path + s.merkle_path);
  Alcotest.(check bool) "enclave transitions charged" true
    (Fastver.enclave_overhead_ns t >= 0L)

(* Several domains drive operations at once; every one of them is counted
   exactly once in the stats snapshot, however the domains interleave. *)
let test_stats_exact_under_domains () =
  let n = 2000 and workers = 4 and ops_per_worker = 3000 in
  let config =
    {
      Fastver.Config.default with
      n_workers = workers;
      batch_size = 0;
      frontier_levels = 3;
      cost_model = Cost_model.zero;
      authenticate_clients = false;
    }
  in
  let t = Fastver.create ~config () in
  Fastver.load t
    (Array.init n (fun i -> (Int64.of_int i, Printf.sprintf "v%06d" i)));
  Fastver.Parallel.run_ycsb t ~spec:Fastver_workload.Ycsb.workload_a
    ~db_size:n ~ops_per_worker;
  ignore (Fastver.verify t);
  let s = Fastver.stats t in
  Alcotest.(check int) "gets + puts" (workers * ops_per_worker)
    (s.gets + s.puts);
  Alcotest.(check int) "ops" (workers * ops_per_worker) s.ops;
  Alcotest.(check int) "paths partition ops" s.ops
    (s.blum_fast_path + s.merkle_path)

(* A get of a Merkle-protected record is verified where it sits: its aux,
   the dirty lists, the stale marks and every host Merkle record stay as
   they were. A put in the same epoch hands the record to deferred
   verification, and the next get takes the fast path. *)
let test_get_verifies_in_place () =
  let t = mk ~n:200 () in
  ignore (Fastver.verify t);
  let k = 17L in
  let aux () =
    List.find_map
      (fun (key, _, aux) ->
        if Key.equal key (Key.of_int64 k) then Some aux else None)
      (Fastver.Testing.store_contents t)
  in
  let tree () =
    List.map (fun (key, v, _, _) -> (key, v)) (Fastver.Testing.tree_entries t 0)
  in
  let aux0 = aux () and pending0 = Fastver.Testing.pending t and tree0 = tree () in
  let s0 = Fastver.stats t in
  Alcotest.(check vo) "get" (Some "v000017") (Fastver.get t k);
  let s1 = Fastver.stats t in
  Alcotest.(check int) "took the merkle path" (s0.merkle_path + 1) s1.merkle_path;
  Alcotest.(check (option int64)) "aux unchanged" aux0 (aux ());
  Alcotest.(check (pair int int)) "no dirty record, no stale mark" pending0
    (Fastver.Testing.pending t);
  Alcotest.(check bool) "host tree, root included, unchanged" true
    (List.equal (fun (a, v) (b, w) -> Key.equal a b && Value.equal v w)
       tree0 (tree ()));
  Fastver.put t k "fresh";
  Alcotest.(check bool) "put defers" true (aux () <> aux0);
  Alcotest.(check int) "put joins the dirty list" (fst pending0 + 1)
    (fst (Fastver.Testing.pending t));
  Alcotest.(check vo) "get after put" (Some "fresh") (Fastver.get t k);
  Alcotest.(check int) "next get takes the fast path" (s1.blum_fast_path + 1)
    (Fastver.stats t).blum_fast_path;
  let e = Fastver.current_epoch t in
  Alcotest.(check bool) "epoch certifies" true
    (Fastver.check_epoch_certificate t ~epoch:e (Fastver.verify t))

let suite =
  ( "core",
    [
      Alcotest.test_case "basic ops" `Quick test_basic_ops;
      Alcotest.test_case "verify preserves state" `Quick test_verify_preserves_state;
      Alcotest.test_case "empty epochs" `Quick test_empty_epochs;
      Alcotest.test_case "differential vs model" `Slow test_differential_model;
      Alcotest.test_case "scan" `Quick test_scan;
      Alcotest.test_case "auto verify batching" `Quick test_batching_auto_verify;
      Alcotest.test_case "sessions" `Quick test_sessions;
      Alcotest.test_case "worker counts" `Quick test_workers_one_and_many;
      Alcotest.test_case "frontier depths" `Quick test_frontier_depths;
      Alcotest.test_case "empty database" `Quick test_empty_database;
      Alcotest.test_case "checkpoint/recover" `Quick test_checkpoint_recover;
      Alcotest.test_case "tampered tree file" `Quick test_recover_tampered_tree;
      Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
      Alcotest.test_case "stats exact under domains" `Quick
        test_stats_exact_under_domains;
      Alcotest.test_case "get verifies in place" `Quick
        test_get_verifies_in_place;
    ] )

(* Values far larger than the 8-byte benchmark payloads flow through every
   tier: merkle hashing, blum elements, migration, store RCU. *)
let test_large_values () =
  let t = mk ~n:100 () in
  let big = String.init 4096 (fun i -> Char.chr (i mod 251)) in
  Fastver.put t 5L big;
  Alcotest.(check vo) "4KB value" (Some big) (Fastver.get t 5L);
  ignore (Fastver.verify t);
  Alcotest.(check vo) "4KB value after scan" (Some big) (Fastver.get t 5L);
  Fastver.put t 5L "";
  Alcotest.(check vo) "empty value distinct from null" (Some "")
    (Fastver.get t 5L);
  ignore (Fastver.verify t);
  Alcotest.(check vo) "empty value persists" (Some "") (Fastver.get t 5L)

(* Every shard's verifier cache is charged to the enclave's 192 MiB
   trusted-memory budget when the system is built: the default fits at 8
   shards, and a configuration over the budget is refused up front — by
   [create] and by [recover] — with the bytes asked for and the budget. *)
let test_trusted_budget () =
  let budget = 192 * 1024 * 1024 in
  let entry = Fastver_verifier.Verifier.entry_bytes in
  let default = Fastver.Config.default.cache_capacity in
  let cfg cache workers =
    {
      Fastver.Config.default with
      n_workers = workers;
      cache_capacity = cache;
      batch_size = 0;
      frontier_levels = 2;
      cost_model = Cost_model.zero;
    }
  in
  let t8 = Fastver.create ~config:(cfg default 8) () in
  Alcotest.(check int) "default at -w 8 charged" (8 * default * entry)
    (Enclave.trusted_bytes_in_use (Fastver.enclave_handle t8));
  let names_both msg =
    let has needle =
      let n = String.length needle in
      let rec at i =
        i + n <= String.length msg && (String.sub msg i n = needle || at (i + 1))
      in
      at 0
    in
    Alcotest.(check bool)
      ("names the budget: " ^ msg) true
      (has (string_of_int budget) && has "trusted bytes")
  in
  let refused cache workers =
    match Fastver.create ~config:(cfg cache workers) () with
    | exception Invalid_argument msg -> names_both msg
    | _ -> Alcotest.failf "cache %d at %d shards accepted" cache workers
  in
  refused ((budget / entry) + 1) 1;
  refused ((budget / entry / 16) + 1) 16;
  refused max_int 1;
  (* recovery adopts the sealed shard count and checks its caches too *)
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "fv-test-budget" in
  Fastver_kvstore.Ckpt_io.remove_tree dir;
  let t = Fastver.create ~config:(cfg 512 2) () in
  Fastver.load t (Array.init 50 (fun i -> (Int64.of_int i, string_of_int i)));
  ignore (Fastver.verify t);
  ckpt t ~dir;
  (match Fastver.recover ~config:(cfg (budget / entry) 2) ~dir () with
  | Error msg -> names_both msg
  | Ok _ -> Alcotest.fail "over-budget recovery accepted");
  match Fastver.recover ~config:(cfg default 2) ~dir () with
  | Error e -> Alcotest.failf "recover at the default: %s" e
  | Ok t' ->
      Alcotest.(check vo) "recovered" (Some "7") (Fastver.get t' 7L);
      Fastver_kvstore.Ckpt_io.remove_tree dir

let suite =
  ( fst suite,
    snd suite
    @ [
        Alcotest.test_case "large values" `Quick test_large_values;
        Alcotest.test_case "trusted memory budget" `Quick test_trusted_budget;
      ] )
