(* The prior-approach baselines of §4/§5/§3. *)

open Fastver_baselines

let vo = Alcotest.(option string)

let records n = Array.init n (fun i -> (Int64.of_int i, Printf.sprintf "v%d" i))

let exercise_merkle variant =
  let m = Merkle_store.create variant (records 200) in
  Alcotest.(check vo) "read" (Some "v7") (Merkle_store.get m 7L);
  Alcotest.(check vo) "missing" None (Merkle_store.get m 99999L);
  Merkle_store.put m 7L "new";
  Alcotest.(check vo) "update" (Some "new") (Merkle_store.get m 7L);
  Merkle_store.put m 5000L "ins";
  Alcotest.(check vo) "insert" (Some "ins") (Merkle_store.get m 5000L);
  (* mixed random churn *)
  let rng = Random.State.make [| 5 |] in
  for i = 0 to 500 do
    let k = Int64.of_int (Random.State.int rng 300) in
    if i land 1 = 0 then ignore (Merkle_store.get m k)
    else Merkle_store.put m k (Printf.sprintf "x%d" i)
  done;
  Alcotest.(check bool) "verifier healthy" true
    (Fastver_verifier.Verifier.failure (Merkle_store.verifier m) = None)

let test_merkle_plain () = exercise_merkle `Plain
let test_merkle_cached () = exercise_merkle (`Cached 64)
let test_merkle_mv () = exercise_merkle (`Propagate_to_root 64)

let test_merkle_differential () =
  let m = Merkle_store.create (`Cached 128) (records 100) in
  let model = Hashtbl.create 64 in
  Array.iter (fun (k, v) -> Hashtbl.replace model k v) (records 100);
  let rng = Random.State.make [| 11 |] in
  for i = 0 to 800 do
    let k = Int64.of_int (Random.State.int rng 200) in
    if Random.State.bool rng then begin
      let v = Printf.sprintf "d%d" i in
      Merkle_store.put m k v;
      Hashtbl.replace model k v
    end
    else
      Alcotest.(check vo)
        (Printf.sprintf "step %d" i)
        (Hashtbl.find_opt model k) (Merkle_store.get m k)
  done

let test_dv_basic () =
  let dv = Dv_store.create (records 100) in
  Alcotest.(check vo) "read" (Some "v9") (Dv_store.get dv 9L);
  Dv_store.put dv 9L "nine";
  Alcotest.(check vo) "update" (Some "nine") (Dv_store.get dv 9L);
  Dv_store.verify dv;
  Alcotest.(check vo) "state across epochs" (Some "nine") (Dv_store.get dv 9L);
  Dv_store.verify dv;
  Dv_store.verify dv;
  Alcotest.(check int) "epochs advanced" 3
    (Fastver_verifier.Verifier.current_epoch (Dv_store.verifier dv))

let test_dv_detects_tamper () =
  (* Bypass the API: perform a raw add_b with a forged value; the epoch check
     must fail even though each op was provisionally accepted. *)
  let dv = Dv_store.create (records 10) in
  let v = Dv_store.verifier dv in
  let open Fastver_verifier in
  (match
     Verifier.add_b v ~key:(Key.of_int64 3L)
       ~value:(Value.Data (Some "FORGED")) ~timestamp:Timestamp.zero
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "provisional add rejected early: %s" e);
  (match
     Verifier.evict_b v ~key:(Key.of_int64 3L)
       ~timestamp:(Timestamp.make ~epoch:1 ~counter:0)
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "evict: %s" e);
  match Dv_store.verify dv with
  | exception Dv_store.Failed _ -> ()
  | () -> Alcotest.fail "forged DV record not detected"

let test_dv_latency_linear () =
  (* verification latency grows with database size (the point of Fig 12) *)
  let t1 =
    let dv = Dv_store.create (records 1000) in
    Dv_store.verify dv;
    Dv_store.last_verify_latency_s dv
  in
  let t2 =
    let dv = Dv_store.create (records 16000) in
    Dv_store.verify dv;
    Dv_store.last_verify_latency_s dv
  in
  Alcotest.(check bool)
    (Printf.sprintf "16x data takes longer to verify (%.4f vs %.4f)" t1 t2)
    true (t2 > t1 *. 4.0)

let test_host_only () =
  let h = Host_only.create (records 100) in
  Alcotest.(check vo) "read" (Some "v4") (Host_only.get h 4L);
  Host_only.put h 4L "four";
  Alcotest.(check vo) "update" (Some "four") (Host_only.get h 4L);
  Alcotest.(check int) "scan finds population" 50 (Host_only.scan h 50L 50);
  Alcotest.(check int) "scan past the end" 10 (Host_only.scan h 90L 50)

let suite =
  ( "baselines",
    [
      Alcotest.test_case "merkle plain" `Quick test_merkle_plain;
      Alcotest.test_case "merkle cached" `Quick test_merkle_cached;
      Alcotest.test_case "merkle MV" `Quick test_merkle_mv;
      Alcotest.test_case "merkle differential" `Quick test_merkle_differential;
      Alcotest.test_case "dv basic" `Quick test_dv_basic;
      Alcotest.test_case "dv detects tamper" `Quick test_dv_detects_tamper;
      Alcotest.test_case "dv latency linear" `Slow test_dv_latency_linear;
      Alcotest.test_case "host only" `Quick test_host_only;
    ] )
