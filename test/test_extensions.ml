(* Extension features: string-keyed view, key-level API, auto-checkpointing,
   sorted-migration ablation flag, and a randomized adversary property. *)

let ckpt t ~dir =
  match Fastver.checkpoint t ~dir with
  | Ok () -> ()
  | Error e -> Alcotest.failf "checkpoint: %s" e

let vo = Alcotest.(option string)

let mk ?(d = 3) ?(sorted = true) ?(n = 500) () =
  let config =
    {
      Fastver.Config.default with
      n_workers = 2;
      batch_size = 0;
      frontier_levels = d;
      sorted_migration = sorted;
      cost_model = Cost_model.zero;
    }
  in
  let t = Fastver.create ~config () in
  Fastver.load t
    (Array.init n (fun i -> (Int64.of_int i, Printf.sprintf "v%06d" i)));
  t

let test_string_keys () =
  let t = mk () in
  let open Fastver.String_keys in
  Alcotest.(check vo) "missing" None (get t "alice");
  put t "alice" "wonderland";
  put t "bob" "builder";
  Alcotest.(check vo) "alice" (Some "wonderland") (get t "alice");
  Alcotest.(check vo) "bob" (Some "builder") (get t "bob");
  ignore (Fastver.verify t);
  Alcotest.(check vo) "alice survives verify" (Some "wonderland") (get t "alice");
  delete t "alice";
  Alcotest.(check vo) "deleted" None (get t "alice");
  Alcotest.(check vo) "bob untouched" (Some "builder") (get t "bob");
  (* distinct application keys map to distinct merkle keys *)
  Alcotest.(check bool) "key mapping injective-ish" false
    (Key.equal (key "alice") (key "bob"));
  Alcotest.(check bool) "keys are data keys" true (Key.is_data_key (key "x"))

let test_key_level_api () =
  let t = mk () in
  let k = Key.of_bytes32 (Fastver_crypto.Sha256.digest "some-key") in
  Alcotest.(check vo) "missing" None (Fastver.get_key t k);
  Fastver.put_key t k "direct";
  Alcotest.(check vo) "roundtrip" (Some "direct") (Fastver.get_key t k);
  Fastver.delete_key t k;
  Alcotest.(check vo) "deleted" None (Fastver.get_key t k);
  Alcotest.check_raises "merkle keys rejected"
    (Invalid_argument "Fastver: not a data key") (fun () ->
      ignore (Fastver.get_key t Key.root))

let test_auto_checkpoint () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "fv-auto-ckpt" in
  let t = mk () in
  Fastver.set_auto_checkpoint t ~dir;
  Fastver.put t 3L "persisted";
  ignore (Fastver.verify t);
  (* the scan checkpointed; recover a fresh system from it *)
  (match Fastver.recover ~config:(Fastver.config t) ~dir () with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok t2 ->
      Alcotest.(check vo) "auto-checkpointed state" (Some "persisted")
        (Fastver.get t2 3L));
  (* updates after the scan are not yet persisted (provisional epoch) *)
  Fastver.put t 3L "only-in-memory";
  (match Fastver.recover ~config:(Fastver.config t) ~dir () with
  | Error e -> Alcotest.failf "recover2: %s" e
  | Ok t2 ->
      Alcotest.(check vo) "post-scan update not persisted yet"
        (Some "persisted") (Fastver.get t2 3L));
  Fastver.clear_auto_checkpoint t;
  ignore (Fastver.verify t)

let test_unsorted_migration_correct () =
  (* the ablation flag changes performance, never results *)
  let t = mk ~sorted:false () in
  let model = Hashtbl.create 64 in
  let rng = Random.State.make [| 31 |] in
  for i = 0 to 1500 do
    let k = Int64.of_int (Random.State.int rng 600) in
    if Random.State.bool rng then begin
      let v = Printf.sprintf "u%d" i in
      Fastver.put t k v;
      Hashtbl.replace model k v
    end
    else begin
      let expected =
        match Hashtbl.find_opt model k with
        | Some v -> Some v
        | None ->
            if Int64.to_int k < 500 then
              Some (Printf.sprintf "v%06d" (Int64.to_int k))
            else None
      in
      Alcotest.(check vo) "unsorted read" expected (Fastver.get t k)
    end;
    if i mod 300 = 0 then ignore (Fastver.verify t)
  done;
  ignore (Fastver.verify t)

(* Randomised adversary soundness property. Corrupting host state the
   verifier never observes is legitimately undetected (and harmless — the
   paper's guarantee is about *validated results*, §2.2). The real invariant:
   no reads inside a successfully verified epoch may disagree with the honest
   history. So: run a random trace, corrupt one random piece of host state,
   keep reading against a model — if any read lies, the epoch's verification
   scan must fail (poisoning the verifier) rather than certify it. *)
let prop_random_corruption_detected =
  QCheck.Test.make ~name:"no verified epoch contains a lying read" ~count:30
    QCheck.(triple (int_bound 1_000_000) (int_bound 99) small_nat)
    (fun (seed, victim, warmup_epochs) ->
      let n = 100 in
      let t = mk ~n () in
      let model = Hashtbl.create 64 in
      for i = 0 to n - 1 do
        Hashtbl.replace model (Int64.of_int i) (Printf.sprintf "v%06d" i)
      done;
      let rng = Random.State.make [| seed |] in
      let lied = ref false in
      let detected = ref false in
      let step k =
        try
          if Random.State.bool rng then begin
            let v = Fastver.get t k in
            if v <> Hashtbl.find_opt model k then lied := true
          end
          else begin
            Fastver.put t k "x";
            Hashtbl.replace model k "x"
          end
        with Fastver.Integrity_violation _ -> detected := true
      in
      let run_ops count =
        for _ = 1 to count do
          if not !detected then
            step (Int64.of_int (Random.State.int rng n))
        done
      in
      (* honest warmup *)
      run_ops 50;
      for _ = 1 to warmup_epochs mod 3 do
        ignore (Fastver.verify t)
      done;
      (* the corruption: a data record or a merkle record *)
      (if seed land 1 = 0 then begin
         Fastver.Testing.corrupt_store t (Int64.of_int victim) (Some "EVIL");
         (* the host value diverges from the honest history *)
         if Hashtbl.find_opt model (Int64.of_int victim) <> Some "EVIL" then ()
       end
       else
         match Fastver.Testing.some_merkle_key t with
         | Some mk -> Fastver.Testing.corrupt_merkle_record t mk
         | None ->
             Fastver.Testing.corrupt_store t (Int64.of_int victim) (Some "EVIL"));
      if not !detected then
        step (Int64.of_int victim) (* expose the victim *);
      run_ops 100;
      let verified =
        if !detected then false
        else
          match Fastver.verify t with
          | (_ : string) -> true
          | exception Fastver.Integrity_violation _ ->
              detected := true;
              false
      in
      (* the one forbidden outcome: a lying read inside a certified epoch *)
      not (!lied && verified))

let suite =
  ( "extensions",
    [
      Alcotest.test_case "string keys" `Quick test_string_keys;
      Alcotest.test_case "key-level api" `Quick test_key_level_api;
      Alcotest.test_case "auto checkpoint" `Quick test_auto_checkpoint;
      Alcotest.test_case "unsorted migration correct" `Quick
        test_unsorted_migration_correct;
      QCheck_alcotest.to_alcotest prop_random_corruption_detected;
    ] )

(* nonce table survives recovery: pre-crash puts cannot be replayed *)
let test_nonce_replay_across_recovery () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "fv-nonce-ckpt" in
  let t = mk () in
  let s = Fastver.Session.connect t ~client_id:9 in
  ignore (Fastver.Session.put s 1L "legit");
  ignore (Fastver.verify t);
  ckpt t ~dir;
  match Fastver.recover ~config:(Fastver.config t) ~dir () with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok t2 -> (
      (* replay the pre-crash put (the session's first nonce) verbatim
         against the recovered system *)
      let auth =
        Fastver.Auth.key_of_secret (Fastver.config t).Fastver.Config.mac_secret
      in
      let mac =
        Fastver.Auth.put_request auth ~client:9 ~nonce:1L (Key.of_int64 1L)
          "legit"
      in
      match
        Fastver.admit_put t2 ~client:9 ~nonce:1L ~mac ~key:1L
          ~value:(Some "legit")
      with
      | Error e ->
          Alcotest.(check string) "rejected as a replay"
            "gateway: put nonce replayed" e
      | Ok () -> Alcotest.fail "pre-crash put replayed after recovery")

let suite =
  ( fst suite,
    snd suite
    @ [
        Alcotest.test_case "nonce replay across recovery" `Quick
          test_nonce_replay_across_recovery;
      ] )
