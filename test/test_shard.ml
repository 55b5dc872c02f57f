(* Sharded verification (§8.2): the aggregated epoch certificate must be
   bit-identical whatever the shard count, because the per-shard multiset
   folds merge order-independently into the same store-level accumulators
   a single verifier would have built. These tests pin that equivalence —
   fixed scenarios across a sweep of widths, a seeded stream across a sweep
   of cache capacities and frontier depths, plus a QCheck property over
   random workloads — and exercise the total recover/checkpoint paths that
   the sharded layout leans on: hostile bytes in any per-shard component
   must yield [Error] (never an exception), a failed checkpoint must leave
   the system live, and recovery must adopt the sealed shard layout rather
   than trust the caller's config. *)

module C = Fastver_kvstore.Ckpt_io

let vo = Alcotest.(option string)

let config ?(shards = 1) ?(cache = 512) ?(depth = 2) () =
  {
    Fastver.Config.default with
    n_workers = shards;
    batch_size = 0;
    frontier_levels = depth;
    cache_capacity = cache;
    cost_model = Cost_model.zero;
  }

let fresh_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  C.remove_tree dir;
  dir

(* Run one scripted workload at a given shard count: load [n] records,
   then apply [ops] as epochs of puts, collecting every epoch certificate
   the store seals along the way. *)
let run_epochs ~shards ~n ops =
  let t = Fastver.create ~config:(config ~shards ()) () in
  Fastver.load t
    (Array.init n (fun i -> (Int64.of_int i, Printf.sprintf "v%06d" i)));
  let certs =
    List.map
      (fun epoch_ops ->
        List.iter
          (fun (k, v) -> Fastver.put t (Int64.of_int (k mod n)) v)
          epoch_ops;
        let epoch = Fastver.current_epoch t in
        (epoch, Fastver.verify t))
      ops
  in
  (t, certs)

(* ------------------------------------------------------------------ *)
(* Certificates are independent of the shard count                     *)
(* ------------------------------------------------------------------ *)

let scripted_ops =
  [
    [ (1, "a"); (17, "b"); (3, "c") ];
    [ (1, "a2"); (29, "d"); (5, "e"); (12, "f") ];
    [];
    [ (31, "g"); (0, "h") ];
  ]

(* The host's one record of verifier-cache residency mirrors the verifier:
   the same non-root records, and each entry's child count equal to the
   number of entries that name it as their pointing parent. *)
let check_mirror ~cache ~depth t =
  for sid = 0 to Fastver.n_shards t - 1 do
    let held, entries = Fastver.Testing.residency t sid in
    if
      List.length entries <> held
      || List.exists (fun (_, in_verifier, _, _) -> not in_verifier) entries
    then
      Alcotest.failf
        "cache %d depth %d: shard %d records %d cached entries, its verifier \
         holds %d"
        cache depth sid (List.length entries) held;
    let named = Key.Tbl.create 64 in
    List.iter
      (fun (_, _, _, parent) ->
        Option.iter
          (fun p ->
            Key.Tbl.replace named p
              (1 + Option.value (Key.Tbl.find_opt named p) ~default:0))
          parent)
      entries;
    List.iter
      (fun (k, _, children, _) ->
        let n = Option.value (Key.Tbl.find_opt named k) ~default:0 in
        if n <> children then
          Alcotest.failf
            "cache %d depth %d: %a counts %d cached children, %d entries name \
             it"
            cache depth Key.pp k children n)
      entries
  done

(* Tier placement is invisible to clients: the verifier-cache capacity and
   the frontier depth only decide which records ride the merkle chain, the
   verifier cache or the deferred tier. One seeded stream of gets and puts
   over a skewed key set must return every get's latest value (checked
   against a model) and certify the same epochs and certificates at every
   point of the sweep. *)
let run_placement ~cache ~depth =
  let n = 2048 in
  let t = Fastver.create ~config:(config ~cache ~depth ()) () in
  let model = Hashtbl.create n in
  Fastver.load t
    (Array.init n (fun i ->
         let k = Int64.of_int i and v = Printf.sprintf "v%06d" i in
         Hashtbl.replace model k v;
         (k, v)));
  let rng = Random.State.make [| 20 |] in
  let certs = ref [] in
  for e = 1 to 6 do
    for i = 1 to 400 do
      (* half the touches go to a 16-key hot set that moves every epoch *)
      let k =
        if Random.State.bool rng then (e * 37) + Random.State.int rng 16
        else Random.State.int rng n
      in
      let k = Int64.of_int (k mod n) in
      if Random.State.int rng 4 = 0 then begin
        let v = Printf.sprintf "e%d-%d" e i in
        Fastver.put t k v;
        Hashtbl.replace model k v
      end
      else if Fastver.get t k <> Some (Hashtbl.find model k) then
        Alcotest.failf "cache %d depth %d: get %Ld returned a stale value"
          cache depth k
    done;
    let epoch = Fastver.current_epoch t in
    certs := (epoch, Fastver.verify t) :: !certs;
    check_mirror ~cache ~depth t
  done;
  (Fastver.verifier_stats t, List.rev !certs)

let test_cert_equal_across_widths () =
  let _, base = run_epochs ~shards:1 ~n:32 scripted_ops in
  List.iter
    (fun shards ->
      let t, certs = run_epochs ~shards ~n:32 scripted_ops in
      Alcotest.(check int)
        (Printf.sprintf "%d shards materialised" shards)
        shards (Fastver.n_shards t);
      List.iter2
        (fun (e1, c1) (en, cn) ->
          Alcotest.(check int)
            (Printf.sprintf "epoch number @ %d shards" shards)
            e1 en;
          Alcotest.(check string)
            (Printf.sprintf "epoch %d cert @ %d shards" e1 shards)
            c1 cn)
        base certs)
    [ 2; 3; 5; 8 ];
  (* and across tier placements, at one shard *)
  let points =
    List.concat_map
      (fun cache -> List.map (fun depth -> (cache, depth)) [ 2; 6; 10 ])
      [ 32; 128; 4096; Fastver.Config.default.cache_capacity ]
  in
  let runs =
    List.map
      (fun (cache, depth) -> ((cache, depth), run_placement ~cache ~depth))
      points
  in
  let _, (_, certs0) = List.hd runs in
  List.iter
    (fun ((cache, depth), (_, certs)) ->
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "epochs and certificates @ cache %d depth %d" cache
           depth)
        certs0 certs)
    runs;
  let mix point =
    let (st : Fastver_verifier.Verifier.op_stats), _ = List.assoc point runs in
    (st.n_add_m, st.n_evict_m, st.n_add_b, st.n_evict_b, st.n_evict_bm)
  in
  (* every point below the default capacity is a different placement: its
     verifier op mix differs *)
  let default = Fastver.Config.default.cache_capacity in
  let below = List.filter (fun (cache, _) -> cache < default) points in
  Alcotest.(check int)
    "distinct verifier op mixes" (List.length below)
    (List.length (List.sort_uniq compare (List.map mix below)));
  (* 4,096 entries already hold the whole 2,048-key tree, so the default
     capacity places every record exactly as 4,096 does *)
  List.iter
    (fun depth ->
      Alcotest.(check bool)
        (Printf.sprintf "default cache places as 4096 @ depth %d" depth)
        true
        (mix (4096, depth) = mix (default, depth)))
    [ 2; 6; 10 ]

(* A certificate sealed by an N-shard store must check out against a
   1-shard store at the same epoch: clients cannot tell the layouts
   apart. *)
let test_cert_cross_checks () =
  let _, certs1 = run_epochs ~shards:1 ~n:32 scripted_ops in
  let t4, _ = run_epochs ~shards:4 ~n:32 scripted_ops in
  List.iter
    (fun (epoch, cert) ->
      Alcotest.(check bool)
        (Printf.sprintf "epoch %d cert accepted by 4-shard store" epoch)
        true
        (Fastver.check_epoch_certificate t4 ~epoch cert))
    certs1

let prop_cert_shard_invariant =
  QCheck.Test.make
    ~name:"aggregated certificate independent of shard count" ~count:30
    QCheck.(
      pair
        (int_range 2 8)
        (small_list (small_list (pair (int_bound 63) (string_of_size (Gen.return 6))))))
    (fun (shards, ops) ->
      let _, base = run_epochs ~shards:1 ~n:64 ops in
      let _, certs = run_epochs ~shards ~n:64 ops in
      List.for_all2
        (fun (e1, c1) (en, cn) -> e1 = en && String.equal c1 cn)
        base certs)

(* ------------------------------------------------------------------ *)
(* Checkpoint is total: a failed write is an Error, not a crash         *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_error_leaves_system_live () =
  (* Point the checkpoint at a path occupied by a regular file: every
     write must fail cleanly, and the store must keep serving. *)
  let dir = fresh_dir "fv-shard-ckpt-err" in
  let oc = open_out dir in
  output_string oc "not a directory";
  close_out oc;
  let t, _ = run_epochs ~shards:3 ~n:32 scripted_ops in
  (match Fastver.checkpoint t ~dir with
  | Ok () -> Alcotest.fail "checkpoint into a regular file succeeded"
  | Error _ -> ());
  Fastver.put t 7L "after-failed-checkpoint";
  ignore (Fastver.verify t);
  Alcotest.(check vo) "system still serves" (Some "after-failed-checkpoint")
    (Fastver.get t 7L);
  Sys.remove dir

(* ------------------------------------------------------------------ *)
(* Recovery adopts the sealed shard layout                              *)
(* ------------------------------------------------------------------ *)

let test_recover_adopts_sealed_layout () =
  let dir = fresh_dir "fv-shard-adopt" in
  let t, _ = run_epochs ~shards:4 ~n:32 scripted_ops in
  (match Fastver.checkpoint t ~dir with
  | Ok () -> ()
  | Error e -> Alcotest.failf "checkpoint: %s" e);
  (* The caller asks for 1 shard; the sealed payload says 4. Routing is
     integrity-critical, so the payload wins. *)
  match Fastver.recover ~config:(config ~shards:1 ()) ~dir () with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok t2 ->
      Alcotest.(check int) "payload layout adopted" 4 (Fastver.n_shards t2);
      Alcotest.(check int) "shard count adopted as n_workers" 4
        (Fastver.config t2).n_workers;
      Alcotest.(check vo) "state intact" (Some "h") (Fastver.get t2 0L);
      ignore (Fastver.verify t2);
      C.remove_tree dir

(* ------------------------------------------------------------------ *)
(* Hostile bytes in sharded components: recover stays total            *)
(* ------------------------------------------------------------------ *)

let mutate_file path f =
  let ic = open_in_bin path in
  let raw = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let raw = f raw in
  let oc = open_out_bin path in
  output_bytes oc raw;
  close_out oc

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    Sys.mkdir dst 0o755;
    Array.iter
      (fun name ->
        copy_tree (Filename.concat src name) (Filename.concat dst name))
      (Sys.readdir src)
  end
  else begin
    let ic = open_in_bin src in
    let raw = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let oc = open_out_bin dst in
    output_string oc raw;
    close_out oc
  end

let rehash_manifest gdir =
  match C.Manifest.read ~dir:gdir with
  | Error e -> Alcotest.fail e
  | Ok m ->
      let entries =
        List.map
          (fun (e : C.Manifest.entry) ->
            match C.Manifest.entry_of_file ~dir:gdir e.name with
            | Ok e' -> e'
            | Error err -> Alcotest.fail err)
          m.entries
      in
      C.Manifest.write ~dir:gdir { m with entries }

(* One committed 3-shard checkpoint, copied per fuzz case. *)
let pristine =
  lazy
    (let dir = fresh_dir "fv-shard-pristine" in
     let t, _ = run_epochs ~shards:3 ~n:32 scripted_ops in
     (match Fastver.checkpoint t ~dir with
     | Ok () -> ()
     | Error e -> Alcotest.failf "pristine checkpoint: %s" e);
     dir)

let shard_files = [ "merkle-0.tree"; "merkle-1.tree"; "merkle-2.tree"; "verifier.sealed" ]

let prop_sharded_recover_total =
  QCheck.Test.make
    ~name:"recover total under hostile bytes in sharded components"
    ~count:60
    QCheck.(quad (int_bound 3) (int_bound 1000) (int_bound 255) bool)
    (fun (file_idx, frac_millis, byte, fixup) ->
      let dir = fresh_dir "fv-shard-fuzz" in
      copy_tree (Lazy.force pristine) dir;
      let gdir =
        match C.generations dir with
        | (_, g) :: _ -> g
        | [] -> failwith "no generation"
      in
      mutate_file
        (Filename.concat gdir (List.nth shard_files file_idx))
        (fun raw ->
          if Bytes.length raw = 0 then raw
          else begin
            let i =
              min
                (Bytes.length raw - 1)
                (int_of_float
                   (float_of_int frac_millis /. 1000.0
                   *. float_of_int (Bytes.length raw)))
            in
            Bytes.set raw i (Char.chr byte);
            raw
          end);
      if fixup then rehash_manifest gdir;
      let ok =
        match Fastver.recover ~config:(config ~shards:3 ()) ~dir () with
        | Ok _ | Error _ -> true
        | exception _ -> false
      in
      C.remove_tree dir;
      ok)

(* A put that splits an edge, under a cache small enough that making room
   for the new internal node evicts the displaced pointee: the new node
   must carry the pointer as that eviction rewrote it. These seeded streams
   raised "add_m: new internal node ... must preserve pointer" while the
   room was made after the pointer was read. *)
let test_split_under_eviction () =
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let config = { (config ~cache:16 ()) with n_workers = 2 } in
      let t = Fastver.create ~config () in
      Fastver.load t
        (Array.init 120 (fun i -> (Int64.of_int (2 * i), Printf.sprintf "v%d" i)));
      for round = 1 to 14 do
        for _ = 1 to 25 do
          let k = Int64.of_int (Random.State.int rng 300) in
          match Random.State.int rng 10 with
          | 0 | 1 -> Fastver.delete t k
          | 2 | 3 -> ignore (Fastver.get t k)
          | _ ->
              Fastver.put t k
                (Printf.sprintf "r%d-%d" round (Random.State.bits rng))
        done;
        if round mod 3 = 0 then ignore (Fastver.verify t)
      done;
      ignore (Fastver.verify t))
    [ 125; 162; 174; 178 ]

(* A fresh key can split the edge above a cached frontier record. That
   record was added via blum: it has no parent in the verifier and counts
   as nobody's child, so the split must not move a child count for it.
   This seeded stream did, which let a pointing parent be evicted under a
   cached child; the next checkpoint's drain then raised "cycle in cached
   merkle records" (a write-back would find the parent gone). *)
let test_split_over_cached_frontier () =
  let dir = fresh_dir "fv-split-frontier" in
  let t = Fastver.create ~config:(config ~cache:65_536 ()) () in
  Fastver.load t
    (Array.init 150 (fun i -> (Int64.of_int (2 * i), Printf.sprintf "v%d" i)));
  let rng = Random.State.make [| 0; 65_536; 1 |] in
  for round = 1 to 4 do
    for _ = 1 to 40 do
      let k = Int64.of_int (Random.State.int rng 400) in
      if Random.State.int rng 10 < 3 then ignore (Fastver.get t k)
      else Fastver.put t k (Printf.sprintf "r%d" (Random.State.bits rng))
    done;
    if round = 2 then ignore (Fastver.verify t);
    match Fastver.checkpoint t ~dir with
    | Ok () -> ()
    | Error e -> Alcotest.failf "round %d: checkpoint: %s" round e
  done;
  Fastver.Testing.drain_caches t;
  ignore (Fastver.verify t);
  C.remove_tree dir

let suite =
  ( "shard",
    [
      Alcotest.test_case "certificates equal across widths" `Quick
        test_cert_equal_across_widths;
      Alcotest.test_case "N-shard certificate cross-checks" `Quick
        test_cert_cross_checks;
      Alcotest.test_case "failed checkpoint leaves system live" `Quick
        test_checkpoint_error_leaves_system_live;
      Alcotest.test_case "recover adopts sealed shard layout" `Quick
        test_recover_adopts_sealed_layout;
      Alcotest.test_case "split under capacity eviction" `Quick
        test_split_under_eviction;
      Alcotest.test_case "split over a cached frontier record" `Quick
        test_split_over_cached_frontier;
      QCheck_alcotest.to_alcotest prop_cert_shard_invariant;
      QCheck_alcotest.to_alcotest prop_sharded_recover_total;
    ] )
