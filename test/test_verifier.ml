(* The verifier state machine: honest flows. Adversarial flows (which must be
   detected) live in test_adversary.ml. *)

open Fastver_verifier

let ok_exn name = function
  | Ok x -> x
  | Error e -> Alcotest.failf "%s failed: %s" name e

(* A small world: data keys 0..n-1 with values "v<i>", a host tree, and a
   verifier with the matching root installed. *)
type world = {
  v : Verifier.t;
  tree : unit Tree.t;
  values : (int64, string) Hashtbl.t;
}

let mk_world n =
  let tree = Tree.create ~root_aux:() in
  let values = Hashtbl.create 64 in
  let records =
    Array.init n (fun i ->
        let k = Int64.of_int i in
        let s = Printf.sprintf "v%d" i in
        Hashtbl.replace values k s;
        (Key.of_int64 k, Value.Data (Some s)))
  in
  Tree.bulk_build tree ~aux:(fun _ _ -> ()) records;
  let v = Verifier.create Verifier.default_config in
  ok_exn "install_root"
    (Verifier.install_root v (Tree.get_exn tree Key.root).Tree.value);
  { v; tree; values }

(* Add the merkle chain for [key] into the verifier's cache; returns the
   pointing parent. Assumes chain nodes not yet cached. *)
let add_chain w key =
  let d = Tree.descend w.tree key in
  let arr = Array.of_list d.Tree.path in
  Array.iteri
    (fun j k ->
      if j > 0 && Verifier.cached w.v k = None then
        ignore
          (ok_exn "add_m chain"
             (Verifier.add_m w.v ~key:k
                ~value:(Tree.get_exn w.tree k).Tree.value ~parent:arr.(j - 1))))
    arr;
  (arr.(Array.length arr - 1), d.Tree.outcome)

let test_add_get_evict () =
  let w = mk_world 64 in
  let key = Key.of_int64 7L in
  let parent, outcome = add_chain w key in
  Alcotest.(check bool) "exists" true (outcome = Tree.Exists);
  ignore
    (ok_exn "add_m leaf"
       (Verifier.add_m w.v ~key ~value:(Value.Data (Some "v7")) ~parent));
  ok_exn "vget" (Verifier.vget w.v ~key (Some "v7"));
  let ptr = ok_exn "evict_m" (Verifier.evict_m w.v ~key ~parent) in
  Alcotest.(check bool) "evict ptr names key" true (Key.equal ptr.Value.key key);
  Alcotest.(check bool) "healthy" true (Verifier.failure w.v = None)

let test_put_then_reread () =
  let w = mk_world 64 in
  let key = Key.of_int64 3L in
  let parent, _ = add_chain w key in
  ignore
    (ok_exn "add" (Verifier.add_m w.v ~key ~value:(Value.Data (Some "v3")) ~parent));
  ok_exn "vput" (Verifier.vput w.v ~key (Some "new"));
  ok_exn "vget sees update" (Verifier.vget w.v ~key (Some "new"));
  let ptr = ok_exn "evict" (Verifier.evict_m w.v ~key ~parent) in
  (* re-adding with the updated value authenticates against the new hash *)
  (let pe = Tree.get_exn w.tree parent in
   Tree.set_value w.tree parent pe
     (match pe.Tree.value with
     | Value.Node n ->
         Value.Node (Value.set_slot n (Key.dir key ~ancestor:parent) (Some ptr))
     | Value.Data _ -> assert false));
  ignore
    (ok_exn "re-add new value"
       (Verifier.add_m w.v ~key ~value:(Value.Data (Some "new")) ~parent));
  ok_exn "vget" (Verifier.vget w.v ~key (Some "new"))

let test_absence_proof () =
  let w = mk_world 8 in
  let missing = Key.of_int64 1_000_000L in
  let parent, outcome = add_chain w missing in
  Alcotest.(check bool) "not exists" true (outcome <> Tree.Exists);
  ok_exn "vget_absent" (Verifier.vget_absent w.v ~key:missing ~parent)

let test_fresh_insert () =
  let w = mk_world 4 in
  (* keys 0..3 exist; insert 1M: splits or lands in an empty slot *)
  let key = Key.of_int64 1_000_000L in
  let parent, outcome = add_chain w key in
  (match outcome with
  | Tree.Empty_slot ->
      ignore
        (ok_exn "fresh add"
           (Verifier.add_m w.v ~key ~value:(Value.Data None) ~parent))
  | Tree.Split pointee ->
      let node_key = Key.lca key pointee in
      let old_ptr =
        match (Tree.get_exn w.tree parent).Tree.value with
        | Value.Node n -> Option.get (Value.slot n (Key.dir key ~ancestor:parent))
        | Value.Data _ -> assert false
      in
      let node_value =
        Value.Node
          (Value.set_slot { left = None; right = None }
             (Key.dir pointee ~ancestor:node_key)
             (Some old_ptr))
      in
      ignore
        (ok_exn "split node"
           (Verifier.add_m w.v ~key:node_key ~value:node_value ~parent));
      ignore
        (ok_exn "fresh add under split"
           (Verifier.add_m w.v ~key ~value:(Value.Data None)
              ~parent:node_key))
  | Tree.Exists -> Alcotest.fail "fresh key exists");
  ok_exn "vput" (Verifier.vput w.v ~key (Some "inserted"));
  ok_exn "vget" (Verifier.vget w.v ~key (Some "inserted"))

let test_blum_cycle_and_epoch () =
  let w = mk_world 16 in
  let key = Key.of_int64 5L in
  let parent, _ = add_chain w key in
  ignore
    (ok_exn "add" (Verifier.add_m w.v ~key ~value:(Value.Data (Some "v5")) ~parent));
  (* hand over to blum *)
  let ts0 = Timestamp.make ~epoch:0 ~counter:1 in
  ok_exn "evict_bm" (Verifier.evict_bm w.v ~key ~timestamp:ts0 ~parent);
  (* blum round trip *)
  ok_exn "add_b"
    (Verifier.add_b w.v ~key ~value:(Value.Data (Some "v5")) ~timestamp:ts0);
  ok_exn "vput in blum" (Verifier.vput w.v ~key (Some "v5'"));
  let ts1 = Verifier.clock w.v in
  ok_exn "evict_b" (Verifier.evict_b w.v ~key ~timestamp:ts1);
  (* migrate back to merkle so epoch 0 balances *)
  ok_exn "re-add_b"
    (Verifier.add_b w.v ~key ~value:(Value.Data (Some "v5'")) ~timestamp:ts1);
  ignore (ok_exn "evict_m back" (Verifier.evict_m w.v ~key ~parent));
  ok_exn "close" (Verifier.close_epoch w.v ~epoch:0);
  let cert = ok_exn "verify" (Verifier.verify_epoch w.v ~epoch:0) in
  Alcotest.(check int) "32-byte cert" 32 (String.length cert);
  Alcotest.(check int) "verified epoch" 0 (Verifier.verified_epoch w.v)

let test_lazy_updates_stay_consistent () =
  (* Example 4.3: update a record, evict it (parent hash updated), then
     evict the parent — the grandparent's stale hash must have been
     refreshed by the parent's eviction for a later re-add to succeed. *)
  let w = mk_world 256 in
  let key = Key.of_int64 100L in
  let parent, _ = add_chain w key in
  ignore
    (ok_exn "add"
       (Verifier.add_m w.v ~key ~value:(Value.Data (Some "v100")) ~parent));
  ok_exn "vput" (Verifier.vput w.v ~key (Some "updated"));
  let ptr = ok_exn "evict leaf" (Verifier.evict_m w.v ~key ~parent) in
  let update_tree k p =
    let e = Tree.get_exn w.tree k in
    match e.Tree.value with
    | Value.Node n ->
        Tree.set_value w.tree k e
          (Value.Node (Value.set_slot n (Key.dir p.Value.key ~ancestor:k) (Some p)))
    | Value.Data _ -> assert false
  in
  update_tree parent ptr;
  (* now evict the whole chain bottom-up *)
  let d = Tree.descend w.tree key in
  let rec evict_up = function
    | [] | [ _ ] -> ()
    | p :: (k :: _ as rest) ->
        evict_up rest;
        if not (Key.equal k Key.root) then begin
          let ptr = ok_exn "evict chain" (Verifier.evict_m w.v ~key:k ~parent:p) in
          update_tree p ptr
        end
  in
  evict_up d.Tree.path;
  (* everything out of cache: a fresh chain walk must authenticate *)
  let parent', _ = add_chain w key in
  ignore
    (ok_exn "re-add after lazy propagation"
       (Verifier.add_m w.v ~key ~value:(Value.Data (Some "updated"))
          ~parent:parent'));
  ok_exn "vget" (Verifier.vget w.v ~key (Some "updated"))

let test_cache_capacity () =
  (* A bounded cache eventually rejects adds: the P1 enforcement point. *)
  let v = Verifier.create { Verifier.default_config with cache_capacity = 4 } in
  let rec fill i =
    if i > 16 then Alcotest.fail "capacity never enforced"
    else
      match
        Verifier.add_b v ~key:(Key.of_int64 (Int64.of_int (1000 + i)))
          ~value:(Value.Data None) ~timestamp:Timestamp.zero
      with
      | Ok () -> fill (i + 1)
      | Error _ -> i
  in
  let filled = fill 0 in
  Alcotest.(check int) "rejects at capacity (root occupies one slot)" 3 filled;
  Alcotest.(check bool) "poisoned afterwards" true (Verifier.failure v <> None)

let test_install_blum_setup () =
  let v = Verifier.create Verifier.default_config in
  let key = Key.of_int64 1L in
  ok_exn "install"
    (Verifier.install_blum v ~key ~value:(Value.Data (Some "x"))
       ~timestamp:Timestamp.zero);
  ok_exn "add_b matches install"
    (Verifier.add_b v ~key ~value:(Value.Data (Some "x"))
       ~timestamp:Timestamp.zero);
  let ts = Verifier.clock v in
  ok_exn "evict into epoch 1"
    (Verifier.evict_b v ~key
       ~timestamp:(Timestamp.max ts (Timestamp.first_of_epoch 1)));
  ok_exn "close" (Verifier.close_epoch v ~epoch:0);
  ignore (ok_exn "verify" (Verifier.verify_epoch v ~epoch:0))

let test_checkpoint_summary_roundtrip () =
  let w = mk_world 16 in
  let key = Key.of_int64 2L in
  let parent, _ = add_chain w key in
  ignore
    (ok_exn "add" (Verifier.add_m w.v ~key ~value:(Value.Data (Some "v2")) ~parent));
  ok_exn "evict_bm"
    (Verifier.evict_bm w.v ~key ~timestamp:(Timestamp.make ~epoch:0 ~counter:1)
       ~parent);
  let update_tree k p =
    let e = Tree.get_exn w.tree k in
    match e.Tree.value with
    | Value.Node n ->
        Tree.set_value w.tree k e
          (Value.Node (Value.set_slot n (Key.dir p.Value.key ~ancestor:k) (Some p)))
    | Value.Data _ -> assert false
  in
  (* mirror the in_blum mark the verifier just set in the cached parent *)
  (match (Verifier.cached w.v parent : Value.t option) with
  | Some v -> Tree.set_value w.tree parent (Tree.get_exn w.tree parent) v
  | None -> assert false);
  (* evict the chain so caches are clean, mirroring returned pointers *)
  let d = Tree.descend w.tree key in
  let rec evict_up = function
    | [] | [ _ ] -> ()
    | p :: (k :: _ as rest) ->
        evict_up rest;
        if not (Key.equal k Key.root) then begin
          let ptr = ok_exn "evict" (Verifier.evict_m w.v ~key:k ~parent:p) in
          update_tree p ptr
        end
  in
  evict_up d.Tree.path;
  let summary =
    ok_exn "summary" (Verifier.checkpoint_summary w.v ~floor:Timestamp.zero)
  in
  let v2 = ok_exn "restore" (Verifier.of_summary (Verifier.config w.v) summary) in
  Alcotest.(check int) "verified epoch preserved"
    (Verifier.verified_epoch w.v) (Verifier.verified_epoch v2);
  Alcotest.(check bool) "clock preserved" true
    (Timestamp.compare (Verifier.clock w.v) (Verifier.clock v2) = 0);
  (* the restored verifier accepts the pending blum record and verifies *)
  ok_exn "add_b after restore"
    (Verifier.add_b v2 ~key ~value:(Value.Data (Some "v2"))
       ~timestamp:(Timestamp.make ~epoch:0 ~counter:1));
  let parent', _ = add_chain { w with v = v2 } key in
  ignore (ok_exn "evict_m" (Verifier.evict_m v2 ~key ~parent:parent'));
  ok_exn "close" (Verifier.close_epoch v2 ~epoch:0);
  ignore (ok_exn "verify" (Verifier.verify_epoch v2 ~epoch:0))

(* A summary taken with records still cached. It is refused while a
   Merkle-added record is stale. Once [flush_m] has written the chain back,
   children first, it is byte-identical to the summary that evicting
   everything gives, with the blum-added record folded in as a virtual
   [evict_b] at the floor; and the verifier keeps its cache. *)
let test_writeback_summary () =
  let floor = Timestamp.first_of_epoch 0 in
  let key = Key.of_int64 2L in
  let ts1 = Timestamp.make ~epoch:0 ~counter:1 in
  let build () =
    let w = mk_world 16 in
    let parent, _ = add_chain w key in
    ignore
      (ok_exn "add"
         (Verifier.add_m w.v ~key ~value:(Value.Data (Some "v2"))
            ~parent));
    ok_exn "vput" (Verifier.vput w.v ~key (Some "new"));
    ok_exn "evict_bm" (Verifier.evict_bm w.v ~key ~timestamp:ts1 ~parent);
    ok_exn "add_b"
      (Verifier.add_b w.v ~key ~value:(Value.Data (Some "new"))
         ~timestamp:ts1);
    (w.v, Array.of_list (Tree.descend w.tree key).Tree.path)
  in
  let v, path = build () in
  let n = Array.length path in
  (match Verifier.checkpoint_summary v ~floor with
  | Ok _ -> Alcotest.fail "summary taken over a stale record"
  | Error _ -> ());
  Alcotest.(check bool) "refusal does not poison" true
    (Verifier.failure v = None);
  for j = n - 1 downto 1 do
    ignore
      (ok_exn "flush_m" (Verifier.flush_m v ~key:path.(j) ~parent:path.(j - 1)))
  done;
  let clock = Verifier.clock v in
  let s1 = ok_exn "summary after write-back" (Verifier.checkpoint_summary v ~floor) in
  Alcotest.(check string) "summary leaves the verifier as it was" s1
    (ok_exn "again" (Verifier.checkpoint_summary v ~floor));
  Alcotest.(check bool) "clock untouched" true
    (Timestamp.compare clock (Verifier.clock v) = 0);
  Alcotest.(check int) "chain and blum record still cached" (n + 1)
    (Verifier.cache_size v);
  let v', _ = build () in
  for j = n - 1 downto 1 do
    ignore
      (ok_exn "evict_m" (Verifier.evict_m v' ~key:path.(j) ~parent:path.(j - 1)))
  done;
  let vts = Timestamp.max (Verifier.clock v') floor in
  ok_exn "evict_b" (Verifier.evict_b v' ~key ~timestamp:vts);
  Alcotest.(check string) "same summary as a full eviction"
    (ok_exn "summary after eviction" (Verifier.checkpoint_summary v' ~floor))
    s1;
  (* restored, the record is blum-protected at the virtual timestamp *)
  let r = ok_exn "restore" (Verifier.of_summary (Verifier.config v) s1) in
  ok_exn "add_b at the virtual timestamp"
    (Verifier.add_b r ~key ~value:(Value.Data (Some "new")) ~timestamp:vts);
  ok_exn "close" (Verifier.close_epoch r ~epoch:0);
  ignore (ok_exn "epoch balances" (Verifier.verify_epoch r ~epoch:0))

(* The sealed summary's bytes are a format: checkpoint images and sealed
   payloads carry them. A fixed script across two epochs, with records
   added via Merkle and via Blum, one epoch verified, and one blum-added
   record still cached (a virtual eviction into a later epoch), pins the
   layout by its SHA-256. *)
let test_summary_golden () =
  let w = mk_world 16 in
  let k2 = Key.of_int64 2L and k5 = Key.of_int64 5L in
  let flush_path key =
    let path = Array.of_list (Tree.descend w.tree key).Tree.path in
    for j = Array.length path - 1 downto 1 do
      ignore
        (ok_exn "flush_m"
           (Verifier.flush_m w.v ~key:path.(j) ~parent:path.(j - 1)))
    done
  in
  let parent, _ = add_chain w k2 in
  ignore
    (ok_exn "add_m k2"
       (Verifier.add_m w.v ~key:k2 ~value:(Value.Data (Some "v2"))
          ~parent));
  let ts01 = Timestamp.make ~epoch:0 ~counter:1 in
  ok_exn "evict_bm k2" (Verifier.evict_bm w.v ~key:k2 ~timestamp:ts01 ~parent);
  ok_exn "add_b k2"
    (Verifier.add_b w.v ~key:k2 ~value:(Value.Data (Some "v2"))
       ~timestamp:ts01);
  ok_exn "vput k2" (Verifier.vput w.v ~key:k2 (Some "w2"));
  let ts0c = Verifier.clock w.v in
  ok_exn "evict_b k2" (Verifier.evict_b w.v ~key:k2 ~timestamp:ts0c);
  ok_exn "re-add_b k2"
    (Verifier.add_b w.v ~key:k2 ~value:(Value.Data (Some "w2"))
       ~timestamp:ts0c);
  let ts1 =
    Timestamp.max (Verifier.clock w.v) (Timestamp.first_of_epoch 1)
  in
  ok_exn "evict_b k2 into epoch 1"
    (Verifier.evict_b w.v ~key:k2 ~timestamp:ts1);
  ok_exn "close 0" (Verifier.close_epoch w.v ~epoch:0);
  ignore (ok_exn "verify 0" (Verifier.verify_epoch w.v ~epoch:0));
  let parent5, _ = add_chain w k5 in
  ignore
    (ok_exn "add_m k5"
       (Verifier.add_m w.v ~key:k5 ~value:(Value.Data (Some "v5"))
          ~parent:parent5));
  let ts5 = Verifier.clock w.v in
  ok_exn "evict_bm k5"
    (Verifier.evict_bm w.v ~key:k5 ~timestamp:ts5 ~parent:parent5);
  ok_exn "add_b k5"
    (Verifier.add_b w.v ~key:k5 ~value:(Value.Data (Some "v5"))
       ~timestamp:ts5);
  ok_exn "vput k5" (Verifier.vput w.v ~key:k5 (Some "w5"));
  flush_path k2;
  flush_path k5;
  let summary =
    ok_exn "summary"
      (Verifier.checkpoint_summary w.v ~floor:(Timestamp.first_of_epoch 2))
  in
  Alcotest.(check string) "summary sha-256"
    "5bd171446b2de1d90dd6707e80c858f55d88febb22728f2a835342b4ee21b032"
    (Fastver_crypto.Bytes_util.to_hex (Fastver_crypto.Sha256.digest summary))

let test_timestamp_packing () =
  let ts = Timestamp.make ~epoch:7 ~counter:42 in
  Alcotest.(check int) "epoch" 7 (Timestamp.epoch ts);
  Alcotest.(check int) "counter" 42 (Timestamp.counter ts);
  Alcotest.(check int) "next counter" 43 (Timestamp.counter (Timestamp.next ts));
  Alcotest.(check bool) "epoch order dominates" true
    (Timestamp.compare (Timestamp.make ~epoch:1 ~counter:0)
       (Timestamp.make ~epoch:0 ~counter:99999) > 0);
  Alcotest.(check bool) "first_of_epoch" true
    (Timestamp.compare (Timestamp.first_of_epoch 3)
       (Timestamp.make ~epoch:3 ~counter:0) = 0)

let suite =
  ( "verifier",
    [
      Alcotest.test_case "add/get/evict" `Quick test_add_get_evict;
      Alcotest.test_case "put then reread" `Quick test_put_then_reread;
      Alcotest.test_case "absence proof" `Quick test_absence_proof;
      Alcotest.test_case "fresh insert" `Quick test_fresh_insert;
      Alcotest.test_case "blum cycle + epoch" `Quick test_blum_cycle_and_epoch;
      Alcotest.test_case "lazy updates" `Quick test_lazy_updates_stay_consistent;
      Alcotest.test_case "cache capacity" `Quick test_cache_capacity;
      Alcotest.test_case "install_blum setup" `Quick test_install_blum_setup;
      Alcotest.test_case "summary roundtrip" `Quick test_checkpoint_summary_roundtrip;
      Alcotest.test_case "write-back summary" `Quick test_writeback_summary;
      Alcotest.test_case "summary golden" `Quick test_summary_golden;
      Alcotest.test_case "timestamp packing" `Quick test_timestamp_packing;
    ] )

(* The split case must preserve the displaced pointer verbatim — including
   its in_blum mark, or Blum protection could be silently shed. *)
let test_split_preserves_in_blum () =
  let w = mk_world 4 in
  (* move key 2 into the deferred tier so its parent slot is marked *)
  let victim = Key.of_int64 2L in
  let parent, _ = add_chain w victim in
  ignore
    (ok_exn "add"
       (Verifier.add_m w.v ~key:victim ~value:(Value.Data (Some "v2"))
          ~parent));
  ok_exn "evict_bm"
    (Verifier.evict_bm w.v ~key:victim
       ~timestamp:(Timestamp.make ~epoch:0 ~counter:1) ~parent);
  (* double evict_bm of the same record is impossible: not cached anymore *)
  (match
     Verifier.evict_bm w.v ~key:victim
       ~timestamp:(Timestamp.make ~epoch:0 ~counter:2) ~parent
   with
  | Ok () -> Alcotest.fail "evicted a non-cached record"
  | Error _ -> ());
  Alcotest.(check bool) "poisoned after bogus evict" true
    (Verifier.failure w.v <> None)

let test_enclave_cost_models () =
  let e = Enclave.create Cost_model.simulated in
  Alcotest.(check int) "no transitions yet" 0 (Enclave.transitions e);
  let x = Enclave.call e (fun () -> 6 * 7) in
  Alcotest.(check int) "call result" 42 x;
  Alcotest.(check int) "one transition" 1 (Enclave.transitions e);
  Alcotest.(check int64) "8us charged" 8000L (Enclave.charged_ns e);
  (* nested calls charge once *)
  ignore (Enclave.call e (fun () -> Enclave.call e (fun () -> 1)));
  Alcotest.(check int) "nested = one transition" 2 (Enclave.transitions e);
  Enclave.charge_transitions e 10;
  Alcotest.(check int) "manual accounting" 12 (Enclave.transitions e);
  (* the sgx model surcharges in-enclave time *)
  let sgx = Enclave.create Cost_model.sgx in
  ignore
    (Enclave.call sgx (fun () ->
         let t0 = Unix.gettimeofday () in
         while Unix.gettimeofday () -. t0 < 0.01 do () done));
  (* ~10ms inside * (1.11 - 1) ≈ 1.1ms surcharge, plus the 8µs transition *)
  Alcotest.(check bool) "memory factor charged" true
    (Int64.compare (Enclave.charged_ns sgx) 500_000L > 0)

let test_timestamp_overflow () =
  let ts = Timestamp.make ~epoch:1 ~counter:0xffff_ffff in
  Alcotest.check_raises "counter overflow"
    (Invalid_argument "Timestamp.next: counter overflow") (fun () ->
      ignore (Timestamp.next ts))

let suite =
  ( fst suite,
    snd suite
    @ [
        Alcotest.test_case "split preserves in_blum" `Quick
          test_split_preserves_in_blum;
        Alcotest.test_case "enclave cost models" `Quick test_enclave_cost_models;
        Alcotest.test_case "timestamp overflow" `Quick test_timestamp_overflow;
      ] )
