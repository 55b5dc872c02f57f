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

let mk_world n =
  let tree = Tree.create ~root_aux:() in
  let records =
    Array.init n (fun i ->
        (Key.of_int64 (Int64.of_int i), Value.Data (Some (Printf.sprintf "v%d" i))))
  in
  Tree.bulk_build tree ~aux:(fun _ _ -> ()) records;
  let v = Verifier.create Verifier.default_config in
  ok_exn "install_root"
    (Verifier.install_root v (Tree.get_exn tree Key.root).Tree.value);
  { v; tree }

let add_chain w key =
  let d = Tree.descend w.tree key in
  let arr = Array.of_list d.Tree.path in
  Array.iteri
    (fun j k ->
      if j > 0 && Verifier.cached w.v k = None then
        ignore
          (ok_exn "chain"
             (Verifier.add_m w.v ~key:k
                ~value:(Tree.get_exn w.tree k).Tree.value ~parent:arr.(j - 1))))
    arr;
  arr.(Array.length arr - 1)

(* 1. Presenting a tampered data value under a Merkle proof. *)
let test_tampered_value () =
  let w = mk_world 64 in
  let key = Key.of_int64 7L in
  let parent = add_chain w key in
  expect_fail "tampered value"
    (Verifier.add_m w.v ~key ~value:(Value.Data (Some "EVIL")) ~parent)

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
        (Verifier.add_m w.v ~key:second ~value:evil ~parent:Key.root)
  | _ -> Alcotest.fail "tree too shallow"

(* 3. Claiming a wrong parent for add_m. *)
let test_wrong_parent () =
  let w = mk_world 64 in
  let key = Key.of_int64 7L in
  let _parent = add_chain w key in
  (* the root is an ancestor but not the pointing parent *)
  expect_fail "wrong parent"
    (Verifier.add_m w.v ~key ~value:(Value.Data (Some "v7"))
       ~parent:Key.root);
  (* a non-ancestor is rejected outright *)
  let w2 = mk_world 64 in
  expect_fail "non-ancestor parent"
    (Verifier.add_m w2.v ~key ~value:(Value.Data (Some "v7"))
       ~parent:(Key.of_int64 3L))

(* 4. The cross-mechanism replay the in_blum bit exists to stop: hand a
   record to Blum, then try to re-introduce its old version via Merkle. *)
let test_in_blum_replay () =
  let w = mk_world 64 in
  let key = Key.of_int64 9L in
  let parent = add_chain w key in
  ignore
    (ok_exn "add" (Verifier.add_m w.v ~key ~value:(Value.Data (Some "v9")) ~parent));
  ok_exn "vput" (Verifier.vput w.v ~key (Some "v9-new"));
  ok_exn "evict_bm"
    (Verifier.evict_bm w.v ~key ~timestamp:(Timestamp.make ~epoch:0 ~counter:5)
       ~parent);
  (* parent still holds the hash of the OLD value, but marked in_blum *)
  expect_fail "stale merkle re-add"
    (Verifier.add_m w.v ~key ~value:(Value.Data (Some "v9")) ~parent)

(* 5. Replaying an old blum record (stale timestamp): detected at epoch
   verification because the multisets cannot balance. *)
let test_blum_stale_replay () =
  let w = mk_world 64 in
  let key = Key.of_int64 4L in
  let parent = add_chain w key in
  ignore
    (ok_exn "add" (Verifier.add_m w.v ~key ~value:(Value.Data (Some "v4")) ~parent));
  let ts0 = Timestamp.make ~epoch:0 ~counter:1 in
  ok_exn "evict_bm" (Verifier.evict_bm w.v ~key ~timestamp:ts0 ~parent);
  (* honest round: add, update to "v4b", evict at ts1 *)
  ok_exn "add_b"
    (Verifier.add_b w.v ~key ~value:(Value.Data (Some "v4")) ~timestamp:ts0);
  ok_exn "vput" (Verifier.vput w.v ~key (Some "v4b"));
  let ts1 = Verifier.clock w.v in
  ok_exn "evict_b" (Verifier.evict_b w.v ~key ~timestamp:ts1);
  (* ATTACK: serve the old value (v4, ts0) to a reader *)
  ok_exn "replayed add_b accepted provisionally"
    (Verifier.add_b w.v ~key ~value:(Value.Data (Some "v4")) ~timestamp:ts0);
  ok_exn "stale read validated provisionally"
    (Verifier.vget w.v ~key (Some "v4"));
  let ts2 = Verifier.clock w.v in
  ok_exn "evict" (Verifier.evict_b w.v ~key ~timestamp:ts2);
  (* balance as well as the host can... *)
  ok_exn "migrate"
    (Verifier.add_b w.v ~key ~value:(Value.Data (Some "v4b")) ~timestamp:ts1);
  let ts3 = Timestamp.max (Verifier.clock w.v) (Timestamp.first_of_epoch 1) in
  ok_exn "evict fwd" (Verifier.evict_b w.v ~key ~timestamp:ts3);
  ok_exn "close" (Verifier.close_epoch w.v ~epoch:0);
  expect_fail "epoch verification catches replay"
    (Verifier.verify_epoch w.v ~epoch:0)

(* 6. Forking a record across two shard verifiers: both [add_b] the same
   (record, timestamp), so the record is read twice from Blum protection
   but written once. The forked shard's epoch cannot balance: its seal
   fails, while the honest shard's seals. *)
let test_cross_verifier_fork () =
  let w = mk_world 64 in
  let forked = Verifier.create Verifier.default_config in
  let key = Key.of_int64 11L and value = Value.Data (Some "v11") in
  let parent = add_chain w key in
  ignore (ok_exn "add" (Verifier.add_m w.v ~key ~value ~parent));
  let ts0 = Timestamp.make ~epoch:0 ~counter:1 in
  ok_exn "evict_bm" (Verifier.evict_bm w.v ~key ~timestamp:ts0 ~parent);
  (* ATTACK: add the same (record, ts) into BOTH shards' verifiers *)
  ok_exn "fork copy 1" (Verifier.add_b w.v ~key ~value ~timestamp:ts0);
  ok_exn "fork copy 2" (Verifier.add_b forked ~key ~value ~timestamp:ts0);
  (* both copies evicted into the next epoch, "balancing" naively *)
  let e1 = Timestamp.first_of_epoch 1 in
  ok_exn "evict 1" (Verifier.evict_b w.v ~key ~timestamp:e1);
  ok_exn "evict 2" (Verifier.evict_b forked ~key ~timestamp:e1);
  ok_exn "close 0" (Verifier.close_epoch w.v ~epoch:0);
  ok_exn "close 1" (Verifier.close_epoch forked ~epoch:0);
  ignore
    (ok_exn "honest shard seals" (Verifier.seal_epoch_shard w.v ~shard:0 ~epoch:0));
  expect_fail "fork detected at the forked shard's seal"
    (Verifier.seal_epoch_shard forked ~shard:1 ~epoch:0);
  Alcotest.(check bool) "forked shard poisoned" true
    (Verifier.failure forked <> None)

(* 7. A double add of a cached key is rejected immediately. *)
let test_double_add () =
  let w = mk_world 64 in
  let key = Key.of_int64 3L in
  let parent = add_chain w key in
  ignore
    (ok_exn "add" (Verifier.add_m w.v ~key ~value:(Value.Data (Some "v3")) ~parent));
  expect_fail "double add_m"
    (Verifier.add_m w.v ~key ~value:(Value.Data (Some "v3")) ~parent);
  let w = mk_world 64 in
  let key = Key.of_int64 3L in
  ok_exn "add_b"
    (Verifier.add_b w.v ~key ~value:(Value.Data (Some "x"))
       ~timestamp:Timestamp.zero);
  expect_fail "double add_b"
    (Verifier.add_b w.v ~key ~value:(Value.Data (Some "x"))
       ~timestamp:Timestamp.zero)

(* 8. Evict-method confusion. *)
let test_evict_method_confusion () =
  let w = mk_world 64 in
  let key = Key.of_int64 5L in
  let parent = add_chain w key in
  ignore
    (ok_exn "add" (Verifier.add_m w.v ~key ~value:(Value.Data (Some "v5")) ~parent));
  expect_fail "evict_b of merkle-added record"
    (Verifier.evict_b w.v ~key ~timestamp:(Timestamp.make ~epoch:0 ~counter:9));
  let w = mk_world 64 in
  let key = Key.of_int64 5L in
  let parent = add_chain w key in
  ok_exn "add_b"
    (Verifier.add_b w.v ~key ~value:(Value.Data (Some "v5"))
       ~timestamp:Timestamp.zero);
  expect_fail "evict_bm of blum-added record"
    (Verifier.evict_bm w.v ~key
       ~timestamp:(Timestamp.make ~epoch:0 ~counter:9) ~parent)

(* 9. Timestamp discipline on evictions. *)
let test_timestamp_regression () =
  let w = mk_world 64 in
  let key = Key.of_int64 6L in
  ok_exn "add_b"
    (Verifier.add_b w.v ~key ~value:(Value.Data (Some "x"))
       ~timestamp:(Timestamp.make ~epoch:0 ~counter:50));
  (* clock is now (0,51); evicting at (0,10) would let elements collide *)
  expect_fail "backwards evict timestamp"
    (Verifier.evict_b w.v ~key ~timestamp:(Timestamp.make ~epoch:0 ~counter:10))

(* 10. Contributing to an already-verified epoch. *)
let test_closed_epoch_write () =
  let w = mk_world 64 in
  ok_exn "close" (Verifier.close_epoch w.v ~epoch:0);
  ignore (ok_exn "verify" (Verifier.verify_epoch w.v ~epoch:0));
  expect_fail "add_b into verified epoch"
    (Verifier.add_b w.v ~key:(Key.of_int64 1L) ~value:(Value.Data None)
       ~timestamp:(Timestamp.make ~epoch:0 ~counter:99))

(* 11. Wrong-value validation is immediate. *)
let test_vget_wrong_value () =
  let w = mk_world 64 in
  let key = Key.of_int64 8L in
  let parent = add_chain w key in
  ignore
    (ok_exn "add" (Verifier.add_m w.v ~key ~value:(Value.Data (Some "v8")) ~parent));
  expect_fail "wrong value" (Verifier.vget w.v ~key (Some "forged"));
  Alcotest.(check bool) "poisoned" true (Verifier.failure w.v <> None)

(* 12. False absence claims. *)
let test_false_absence () =
  let w = mk_world 64 in
  let key = Key.of_int64 8L in
  let parent = add_chain w key in
  (* key 8 exists: its pointing parent's slot names it *)
  expect_fail "absence of existing key"
    (Verifier.vget_absent w.v ~key ~parent)

(* 13. Poisoning is permanent. *)
let test_poison_permanent () =
  let w = mk_world 64 in
  let key = Key.of_int64 8L in
  let parent = add_chain w key in
  expect_fail "bad add"
    (Verifier.add_m w.v ~key ~value:(Value.Data (Some "EVIL")) ~parent);
  expect_fail "all later ops refused"
    (Verifier.add_m w.v ~key ~value:(Value.Data (Some "v8")) ~parent);
  expect_fail "epochs refused" (Verifier.close_epoch w.v ~epoch:0)

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
let test_resident_ancestors () =
  let n = 2000 in
  let mk () =
    let config =
      {
        Fastver.Config.default with
        batch_size = 0;
        frontier_levels = 2;
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

(* 18–19. A checkpoint keeps the verifier cache and records each cached
   record in its tree image as the sealed summary evicts it: a record
   written back in place as Merkle-protected, a cached frontier record as
   blum-protected at its virtual eviction timestamp. A host that rewrites
   either on disk, re-hashing the unkeyed MANIFEST, must be caught. *)
module C = Fastver_kvstore.Ckpt_io

(* Key 5's chain, written back and still resident, checkpointed into
   [dir]: the scan migrates the put record 5 under its pointing parent,
   which makes the chain up to the frontier stale. *)
let resident_checkpoint dir =
  let config =
    {
      Fastver.Config.default with
      batch_size = 0;
      frontier_levels = 2;
      cost_model = Cost_model.zero;
    }
  in
  let t = Fastver.create ~config () in
  Fastver.load t (Array.init 2000 (fun i -> (Int64.of_int i, Printf.sprintf "v%d" i)));
  Fastver.put t 5L "five";
  ignore (Fastver.verify t);
  C.remove_tree dir;
  (match Fastver.checkpoint t ~dir with
  | Ok () -> ()
  | Error e -> Alcotest.failf "checkpoint: %s" e);
  (config, Fastver.Testing.chain t 5L)

(* Rewrite the record of [key] in the newest generation's tree image with
   [f] (its value and protection tag bytes), then fix up the MANIFEST. *)
let tamper_image_record dir key f =
  let gdir =
    match C.generations dir with
    | (_, g) :: _ -> g
    | [] -> Alcotest.fail "no generation"
  in
  let path = Filename.concat gdir "merkle-0.tree" in
  let raw =
    let ic = open_in_bin path in
    let r = really_input_string ic (in_channel_length ic) in
    close_in ic;
    r
  in
  let buf = Buffer.create (String.length raw) in
  let rec walk pos =
    if pos < String.length raw then begin
      let vlen = Int32.to_int (String.get_int32_le raw (pos + 34)) in
      let tag_at = pos + 38 + vlen in
      let rlen = 38 + vlen + (if raw.[tag_at] = 'b' then 9 else 1) + 4 in
      let record = String.sub raw pos rlen in
      Buffer.add_string buf
        (if String.equal (String.sub raw pos 34) (Key.encode key) then
           f ~vlen record
         else record);
      walk (pos + rlen)
    end
  in
  walk 0;
  let oc = open_out_bin path in
  Buffer.output_buffer oc buf;
  close_out oc;
  match C.Manifest.read ~dir:gdir with
  | Error e -> Alcotest.fail e
  | Ok m ->
      C.Manifest.write ~dir:gdir
        {
          m with
          entries =
            List.map
              (fun (e : C.Manifest.entry) ->
                match C.Manifest.entry_of_file ~dir:gdir e.name with
                | Ok e' -> e'
                | Error err -> Alcotest.fail err)
              m.entries;
        }

(* Recovery fails, or the recovered system raises at the op or the scan. *)
let caught name config dir op =
  match Fastver.recover ~config ~dir () with
  | Error _ -> ()
  | Ok t -> (
      match op t with
      | exception Fastver.Integrity_violation _ -> ()
      | _ -> (
          match Fastver.verify t with
          | exception Fastver.Integrity_violation _ -> ()
          | _ -> Alcotest.failf "%s: tampering never detected" name))

let test_tamper_written_back_record () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "fv-adv-wb" in
  let config, chain = resident_checkpoint dir in
  let parent, resident = List.nth chain (List.length chain - 1) in
  Alcotest.(check bool) "pointing parent still resident" true resident;
  tamper_image_record dir parent (fun ~vlen record ->
      let value =
        match Value.decode (String.sub record 38 vlen) with
        | Ok (Value.Node { left = Some p; right }) ->
            Value.Node { left = Some { p with hash = String.make 32 'Z' }; right }
        | Ok (Value.Node { left = None; right = Some p }) ->
            Value.Node { left = None; right = Some { p with hash = String.make 32 'Z' } }
        | Ok _ | Error _ -> Alcotest.fail "no pointer to tamper"
      in
      String.sub record 0 38 ^ Value.encode value
      ^ String.sub record (38 + vlen) (String.length record - 38 - vlen));
  caught "written-back record" config dir (fun t -> Fastver.get t 5L);
  C.remove_tree dir

let test_tamper_frontier_timestamp () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "fv-adv-fts" in
  let config, chain = resident_checkpoint dir in
  let frontier, resident = List.nth chain config.frontier_levels in
  Alcotest.(check bool) "frontier record still resident" true resident;
  tamper_image_record dir frontier (fun ~vlen record ->
      let b = Bytes.of_string record in
      Alcotest.(check char) "recorded blum-protected" 'b' (Bytes.get b (38 + vlen));
      let at = 38 + vlen + 1 in
      Bytes.set_int64_le b at (Int64.add (Bytes.get_int64_le b at) 1L);
      Bytes.to_string b);
  caught "frontier timestamp" config dir (fun t -> Fastver.get t 5L);
  C.remove_tree dir

let suite =
  ( "adversary",
    [
      Alcotest.test_case "tampered data value" `Quick test_tampered_value;
      Alcotest.test_case "tampered merkle record" `Quick test_tampered_merkle_record;
      Alcotest.test_case "wrong parent" `Quick test_wrong_parent;
      Alcotest.test_case "in_blum replay" `Quick test_in_blum_replay;
      Alcotest.test_case "blum stale replay" `Quick test_blum_stale_replay;
      Alcotest.test_case "cross-verifier fork" `Quick test_cross_verifier_fork;
      Alcotest.test_case "double add" `Quick test_double_add;
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
        test_resident_ancestors;
      Alcotest.test_case "tampered written-back image record" `Quick
        test_tamper_written_back_record;
      Alcotest.test_case "tampered frontier image timestamp" `Quick
        test_tamper_frontier_timestamp;
    ] )
