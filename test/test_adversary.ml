(* Adversarial tests: a byzantine host drives the raw verifier API (§2.2 —
   the attacker can make arbitrary calls). Every deviation must be caught by
   some check, either immediately or at epoch verification. *)

open Fastver_verifier

let ok_exn name = function
  | Ok x -> x
  | Error e -> Alcotest.failf "%s failed unexpectedly: %s" name e

let expect_fail name = function
  | Ok _ -> Alcotest.failf "%s: attack was not detected" name
  | Error _ -> ()

type world = {
  v : Verifier.t;
  tree : unit Tree.t;
}

let mk_world ?(threads = 1) n =
  let tree = Tree.create ~root_aux:() in
  let records =
    Array.init n (fun i ->
        (Key.of_int64 (Int64.of_int i), Value.Data (Some (Printf.sprintf "v%d" i))))
  in
  Tree.bulk_build tree ~aux:(fun _ _ -> ()) records;
  let v =
    Verifier.create { Verifier.default_config with n_threads = threads }
  in
  ok_exn "install_root"
    (Verifier.install_root v (Tree.get_exn tree Key.root).Tree.value);
  { v; tree }

let add_chain w ~tid key =
  let d = Tree.descend w.tree key in
  let arr = Array.of_list d.Tree.path in
  Array.iteri
    (fun j k ->
      if j > 0 && Verifier.cached w.v ~tid k = None then
        ignore
          (ok_exn "chain"
             (Verifier.add_m w.v ~tid ~key:k
                ~value:(Tree.get_exn w.tree k).Tree.value ~parent:arr.(j - 1))))
    arr;
  arr.(Array.length arr - 1)

(* 1. Presenting a tampered data value under a Merkle proof. *)
let test_tampered_value () =
  let w = mk_world 64 in
  let key = Key.of_int64 7L in
  let parent = add_chain w ~tid:0 key in
  expect_fail "tampered value"
    (Verifier.add_m w.v ~tid:0 ~key ~value:(Value.Data (Some "EVIL")) ~parent)

(* 2. Presenting a tampered merkle record on the chain. *)
let test_tampered_merkle_record () =
  let w = mk_world 64 in
  let key = Key.of_int64 7L in
  let d = Tree.descend w.tree key in
  match d.Tree.path with
  | _root :: (second :: _ as _rest) when not (Key.is_data_key second) ->
      let good = Tree.get_exn w.tree second in
      let evil =
        match good.Tree.value with
        | Value.Node { left = Some p; right } ->
            Value.Node { left = Some { p with hash = String.make 32 'X' }; right }
        | Value.Node { left = None; right = Some p } ->
            Value.Node { left = Some p; right = Some p }
        | _ -> Alcotest.fail "unexpected shape"
      in
      expect_fail "tampered merkle value"
        (Verifier.add_m w.v ~tid:0 ~key:second ~value:evil ~parent:Key.root)
  | _ -> Alcotest.fail "tree too shallow"

(* 3. Claiming a wrong parent for add_m. *)
let test_wrong_parent () =
  let w = mk_world 64 in
  let key = Key.of_int64 7L in
  let _parent = add_chain w ~tid:0 key in
  (* the root is an ancestor but not the pointing parent *)
  expect_fail "wrong parent"
    (Verifier.add_m w.v ~tid:0 ~key ~value:(Value.Data (Some "v7"))
       ~parent:Key.root);
  (* a non-ancestor is rejected outright *)
  let w2 = mk_world 64 in
  expect_fail "non-ancestor parent"
    (Verifier.add_m w2.v ~tid:0 ~key ~value:(Value.Data (Some "v7"))
       ~parent:(Key.of_int64 3L))

(* 4. The cross-mechanism replay the in_blum bit exists to stop: hand a
   record to Blum, then try to re-introduce its old version via Merkle. *)
let test_in_blum_replay () =
  let w = mk_world 64 in
  let key = Key.of_int64 9L in
  let parent = add_chain w ~tid:0 key in
  ignore
    (ok_exn "add" (Verifier.add_m w.v ~tid:0 ~key ~value:(Value.Data (Some "v9")) ~parent));
  ok_exn "vput" (Verifier.vput w.v ~tid:0 ~key (Some "v9-new"));
  ok_exn "evict_bm"
    (Verifier.evict_bm w.v ~tid:0 ~key ~timestamp:(Timestamp.make ~epoch:0 ~counter:5)
       ~parent);
  (* parent still holds the hash of the OLD value, but marked in_blum *)
  expect_fail "stale merkle re-add"
    (Verifier.add_m w.v ~tid:0 ~key ~value:(Value.Data (Some "v9")) ~parent)

(* 5. Replaying an old blum record (stale timestamp): detected at epoch
   verification because the multisets cannot balance. *)
let test_blum_stale_replay () =
  let w = mk_world 64 in
  let key = Key.of_int64 4L in
  let parent = add_chain w ~tid:0 key in
  ignore
    (ok_exn "add" (Verifier.add_m w.v ~tid:0 ~key ~value:(Value.Data (Some "v4")) ~parent));
  let ts0 = Timestamp.make ~epoch:0 ~counter:1 in
  ok_exn "evict_bm" (Verifier.evict_bm w.v ~tid:0 ~key ~timestamp:ts0 ~parent);
  (* honest round: add, update to "v4b", evict at ts1 *)
  ok_exn "add_b"
    (Verifier.add_b w.v ~tid:0 ~key ~value:(Value.Data (Some "v4")) ~timestamp:ts0);
  ok_exn "vput" (Verifier.vput w.v ~tid:0 ~key (Some "v4b"));
  let ts1 = Verifier.clock w.v ~tid:0 in
  ok_exn "evict_b" (Verifier.evict_b w.v ~tid:0 ~key ~timestamp:ts1);
  (* ATTACK: serve the old value (v4, ts0) to a reader *)
  ok_exn "replayed add_b accepted provisionally"
    (Verifier.add_b w.v ~tid:0 ~key ~value:(Value.Data (Some "v4")) ~timestamp:ts0);
  ok_exn "stale read validated provisionally"
    (Verifier.vget w.v ~tid:0 ~key (Some "v4"));
  let ts2 = Verifier.clock w.v ~tid:0 in
  ok_exn "evict" (Verifier.evict_b w.v ~tid:0 ~key ~timestamp:ts2);
  (* balance as well as the host can... *)
  ok_exn "migrate"
    (Verifier.add_b w.v ~tid:0 ~key ~value:(Value.Data (Some "v4b")) ~timestamp:ts1);
  let ts3 = Timestamp.max (Verifier.clock w.v ~tid:0) (Timestamp.first_of_epoch 1) in
  ok_exn "evict fwd" (Verifier.evict_b w.v ~tid:0 ~key ~timestamp:ts3);
  ok_exn "close" (Verifier.close_epoch w.v ~tid:0 ~epoch:0);
  expect_fail "epoch verification catches replay"
    (Verifier.verify_epoch w.v ~epoch:0)

(* 6. Forking a record across two verifier threads by double-adding: the
   additive multiset hash counts multiplicities, so epoch checks fail. *)
let test_cross_thread_fork () =
  let w = mk_world ~threads:2 64 in
  let key = Key.of_int64 11L in
  let parent = add_chain w ~tid:0 key in
  ignore
    (ok_exn "add" (Verifier.add_m w.v ~tid:0 ~key ~value:(Value.Data (Some "v11")) ~parent));
  let ts0 = Timestamp.make ~epoch:0 ~counter:1 in
  ok_exn "evict_bm" (Verifier.evict_bm w.v ~tid:0 ~key ~timestamp:ts0 ~parent);
  (* ATTACK: add the same (record, ts) into BOTH threads *)
  ok_exn "fork copy 1"
    (Verifier.add_b w.v ~tid:0 ~key ~value:(Value.Data (Some "v11")) ~timestamp:ts0);
  ok_exn "fork copy 2"
    (Verifier.add_b w.v ~tid:1 ~key ~value:(Value.Data (Some "v11")) ~timestamp:ts0);
  (* both copies evicted into the next epoch, "balancing" naively *)
  let e1 = Timestamp.first_of_epoch 1 in
  ok_exn "evict 1" (Verifier.evict_b w.v ~tid:0 ~key ~timestamp:e1);
  ok_exn "evict 2" (Verifier.evict_b w.v ~tid:1 ~key ~timestamp:e1);
  ok_exn "close 0" (Verifier.close_epoch w.v ~tid:0 ~epoch:0);
  ok_exn "close 1" (Verifier.close_epoch w.v ~tid:1 ~epoch:0);
  expect_fail "fork detected at epoch verification"
    (Verifier.verify_epoch w.v ~epoch:0)

(* 7. Same-thread double add of a cached key is rejected immediately. *)
let test_double_add_same_thread () =
  let w = mk_world 64 in
  let key = Key.of_int64 3L in
  let parent = add_chain w ~tid:0 key in
  ignore
    (ok_exn "add" (Verifier.add_m w.v ~tid:0 ~key ~value:(Value.Data (Some "v3")) ~parent));
  expect_fail "double add_m"
    (Verifier.add_m w.v ~tid:0 ~key ~value:(Value.Data (Some "v3")) ~parent);
  let w = mk_world 64 in
  let key = Key.of_int64 3L in
  ok_exn "add_b"
    (Verifier.add_b w.v ~tid:0 ~key ~value:(Value.Data (Some "x"))
       ~timestamp:Timestamp.zero);
  expect_fail "double add_b"
    (Verifier.add_b w.v ~tid:0 ~key ~value:(Value.Data (Some "x"))
       ~timestamp:Timestamp.zero)

(* 8. Evict-method confusion. *)
let test_evict_method_confusion () =
  let w = mk_world 64 in
  let key = Key.of_int64 5L in
  let parent = add_chain w ~tid:0 key in
  ignore
    (ok_exn "add" (Verifier.add_m w.v ~tid:0 ~key ~value:(Value.Data (Some "v5")) ~parent));
  expect_fail "evict_b of merkle-added record"
    (Verifier.evict_b w.v ~tid:0 ~key ~timestamp:(Timestamp.make ~epoch:0 ~counter:9));
  let w = mk_world 64 in
  let key = Key.of_int64 5L in
  let parent = add_chain w ~tid:0 key in
  ok_exn "add_b"
    (Verifier.add_b w.v ~tid:0 ~key ~value:(Value.Data (Some "v5"))
       ~timestamp:Timestamp.zero);
  expect_fail "evict_bm of blum-added record"
    (Verifier.evict_bm w.v ~tid:0 ~key
       ~timestamp:(Timestamp.make ~epoch:0 ~counter:9) ~parent)

(* 9. Timestamp discipline on evictions. *)
let test_timestamp_regression () =
  let w = mk_world 64 in
  let key = Key.of_int64 6L in
  ok_exn "add_b"
    (Verifier.add_b w.v ~tid:0 ~key ~value:(Value.Data (Some "x"))
       ~timestamp:(Timestamp.make ~epoch:0 ~counter:50));
  (* clock is now (0,51); evicting at (0,10) would let elements collide *)
  expect_fail "backwards evict timestamp"
    (Verifier.evict_b w.v ~tid:0 ~key ~timestamp:(Timestamp.make ~epoch:0 ~counter:10))

(* 10. Contributing to an already-verified epoch. *)
let test_closed_epoch_write () =
  let w = mk_world 64 in
  ok_exn "close" (Verifier.close_epoch w.v ~tid:0 ~epoch:0);
  ignore (ok_exn "verify" (Verifier.verify_epoch w.v ~epoch:0));
  expect_fail "add_b into verified epoch"
    (Verifier.add_b w.v ~tid:0 ~key:(Key.of_int64 1L) ~value:(Value.Data None)
       ~timestamp:(Timestamp.make ~epoch:0 ~counter:99))

(* 11. Wrong-value validation is immediate. *)
let test_vget_wrong_value () =
  let w = mk_world 64 in
  let key = Key.of_int64 8L in
  let parent = add_chain w ~tid:0 key in
  ignore
    (ok_exn "add" (Verifier.add_m w.v ~tid:0 ~key ~value:(Value.Data (Some "v8")) ~parent));
  expect_fail "wrong value" (Verifier.vget w.v ~tid:0 ~key (Some "forged"));
  Alcotest.(check bool) "poisoned" true (Verifier.failure w.v <> None)

(* 12. False absence claims. *)
let test_false_absence () =
  let w = mk_world 64 in
  let key = Key.of_int64 8L in
  let parent = add_chain w ~tid:0 key in
  (* key 8 exists: its pointing parent's slot names it *)
  expect_fail "absence of existing key"
    (Verifier.vget_absent w.v ~tid:0 ~key ~parent)

(* 13. Poisoning is permanent. *)
let test_poison_permanent () =
  let w = mk_world 64 in
  let key = Key.of_int64 8L in
  let parent = add_chain w ~tid:0 key in
  expect_fail "bad add"
    (Verifier.add_m w.v ~tid:0 ~key ~value:(Value.Data (Some "EVIL")) ~parent);
  expect_fail "all later ops refused"
    (Verifier.add_m w.v ~tid:0 ~key ~value:(Value.Data (Some "v8")) ~parent);
  expect_fail "epochs refused" (Verifier.close_epoch w.v ~tid:0 ~epoch:0)

(* 14. Sealed-slot rollback protection (§2.2's persistent hash). *)
let test_sealed_slot () =
  let open Enclave.Sealed_slot in
  let slot = create () in
  store slot "state-1";
  let old_blob = external_blob slot in
  store slot "state-2";
  Alcotest.(check (result string string)) "load latest" (Ok "state-2") (load slot);
  (* tamper *)
  let tampered = Bytes.of_string (external_blob slot) in
  Bytes.set tampered 9 'X';
  inject_blob slot (Bytes.to_string tampered);
  (match load slot with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered blob accepted");
  (* rollback to the old (validly MAC'd) blob *)
  inject_blob slot old_blob;
  (match load slot with
  | Error e ->
      Alcotest.(check bool) "rollback named" true
        (String.length e > 0)
  | Ok _ -> Alcotest.fail "rollback accepted")

(* 15. End-to-end: tamper with the host store behind FastVer's back. *)
let test_end_to_end_tamper () =
  let config =
    { Fastver.Config.default with batch_size = 0; frontier_levels = 2 }
  in
  let t = Fastver.create ~config () in
  Fastver.load t (Array.init 100 (fun i -> (Int64.of_int i, Printf.sprintf "v%d" i)));
  ignore (Fastver.get t 5L);
  ignore (Fastver.verify t);
  (* flip a record via an unauthorised direct write to the host store *)
  Fastver.Testing.corrupt_store t 5L (Some "EVIL");
  (match Fastver.get t 5L with
  | exception Fastver.Integrity_violation _ -> ()
  | v ->
      (* the forged value may be validated provisionally; verification of the
         epoch must then fail *)
      Alcotest.(check (option string)) "forged value surfaced" (Some "EVIL") v;
      (match Fastver.verify t with
      | exception Fastver.Integrity_violation _ -> ()
      | _ -> Alcotest.fail "tampering never detected"))

(* 16. End-to-end: client signature forgery and nonce replay. *)
let test_client_auth () =
  let config = { Fastver.Config.default with batch_size = 0 } in
  let t = Fastver.create ~config () in
  Fastver.load t [| (1L, "one") |];
  let s = Fastver.Session.connect t ~client_id:1 in
  ignore (Fastver.Session.put s 1L "legit");
  (* replaying the same nonce (the session's first, 1) verbatim must be
     rejected by the gateway *)
  let auth = Fastver.Auth.key_of_secret config.mac_secret in
  let mac =
    Fastver.Auth.put_request auth ~client:1 ~nonce:1L (Key.of_int64 1L) "legit"
  in
  match
    Fastver.admit_put t ~client:1 ~nonce:1L ~mac ~key:1L ~value:(Some "legit")
  with
  | Error e ->
      Alcotest.(check string) "rejected as a replay"
        "gateway: put nonce replayed" e
  | Ok () -> Alcotest.fail "nonce replay accepted"

(* 17. Long-lived residency: Merkle ancestors that stay in the verifier
   cache across several seals must not shield the host copies below them —
   neither the data record they point to nor an uncached Merkle node that
   a cached ancestor anchors. *)
let test_resident_ancestors ~background () =
  let n = 2000 in
  let mk () =
    let config =
      {
        Fastver.Config.default with
        batch_size = 0;
        frontier_levels = 2;
        background_verify = background;
      }
    in
    let t = Fastver.create ~config () in
    Fastver.load t
      (Array.init n (fun i -> (Int64.of_int i, Printf.sprintf "v%d" i)));
    (* warm key 5's ancestors, then seal three epochs that keep them *)
    ignore (Fastver.get t 5L);
    for e = 1 to 3 do
      Fastver.put t (Int64.of_int (100 * e)) "other";
      ignore (Fastver.verify t)
    done;
    (* the chain is loaded from its frontier anchor (Patricia level 2,
       blum-protected) down to the pointing parent; the records above the
       anchor never need to be *)
    let below_frontier =
      List.filteri (fun i _ -> i >= 2) (Fastver.Testing.chain t 5L)
    in
    Alcotest.(check bool) "chain deeper than the frontier" true
      (List.length below_frontier >= 3);
    Alcotest.(check bool) "ancestors resident after three seals" true
      (List.for_all snd below_frontier);
    t
  in
  let detected name t op =
    match op () with
    | exception Fastver.Integrity_violation _ -> ()
    | _ -> (
        match Fastver.verify t with
        | exception Fastver.Integrity_violation _ -> ()
        | _ -> Alcotest.failf "%s: tampering never detected" name)
  in
  (* (a) the data record below the resident chain *)
  let t = mk () in
  Fastver.Testing.corrupt_store t 5L (Some "EVIL");
  detected "data record under cached ancestors" t (fun () -> Fastver.get t 5L);
  (* (b) an uncached Merkle node whose nearest resident ancestor is a
     cached record, not the pinned root *)
  let t = mk () in
  let rec anchored_uncached = function
    | (a, true) :: ((u, false) :: _) when not (Key.equal a Key.root) -> Some u
    | _ :: rest -> anchored_uncached rest
    | [] -> None
  in
  let rec pick k =
    if k >= n then Alcotest.fail "no uncached node under a cached ancestor"
    else
      match anchored_uncached (Fastver.Testing.chain t (Int64.of_int k)) with
      | Some u -> (Int64.of_int k, u)
      | None -> pick (k + 1)
  in
  let k, u = pick 0 in
  Fastver.Testing.corrupt_merkle_record t u;
  detected "uncached merkle node under cached ancestors" t (fun () ->
      Fastver.get t k)

let suite =
  ( "adversary",
    [
      Alcotest.test_case "tampered data value" `Quick test_tampered_value;
      Alcotest.test_case "tampered merkle record" `Quick test_tampered_merkle_record;
      Alcotest.test_case "wrong parent" `Quick test_wrong_parent;
      Alcotest.test_case "in_blum replay" `Quick test_in_blum_replay;
      Alcotest.test_case "blum stale replay" `Quick test_blum_stale_replay;
      Alcotest.test_case "cross-thread fork" `Quick test_cross_thread_fork;
      Alcotest.test_case "double add" `Quick test_double_add_same_thread;
      Alcotest.test_case "evict-method confusion" `Quick test_evict_method_confusion;
      Alcotest.test_case "timestamp regression" `Quick test_timestamp_regression;
      Alcotest.test_case "write to verified epoch" `Quick test_closed_epoch_write;
      Alcotest.test_case "wrong value" `Quick test_vget_wrong_value;
      Alcotest.test_case "false absence" `Quick test_false_absence;
      Alcotest.test_case "poison permanent" `Quick test_poison_permanent;
      Alcotest.test_case "sealed slot" `Quick test_sealed_slot;
      Alcotest.test_case "end-to-end store tamper" `Quick test_end_to_end_tamper;
      Alcotest.test_case "client auth" `Quick test_client_auth;
      Alcotest.test_case "tamper under resident ancestors" `Quick
        (test_resident_ancestors ~background:false);
      Alcotest.test_case "tamper under resident ancestors (background)"
        `Quick
        (test_resident_ancestors ~background:true);
    ] )
