(* A walkthrough of Figure 5 from the paper: Blum-style offline memory
   checking on a toy database with one key, driven against the real verifier.

   The host performs put(k,4) and get(k); the verifier folds each operation's
   pre-image into a read-set (add-set) hash and its post-image into a
   write-set (evict-set) hash. The verification scan re-adds the final
   record, and the two multisets must then be equal. We also replay the
   figure's attack — the host answering get(k) with (k,5) — and watch the
   scan fail.

   Run with: dune exec examples/offline_checking.exe *)

open Fastver_verifier

let k = Key.of_int64 1L

let show v step =
  let stats = Verifier.stats v in
  Printf.printf "  after %-28s adds=%d evicts=%d clock=%s\n" step
    (stats.n_add_b) (stats.n_evict_b)
    (Format.asprintf "%a" Timestamp.pp (Verifier.clock v))

let ok = function Ok x -> x | Error e -> failwith e

let honest_run () =
  print_endline "-- honest host (Figure 5, left to right) --";
  let v = Verifier.create Verifier.default_config in
  (* initial state: Write-Set = {(k, null)} — Blum's initialising write *)
  ok
    (Verifier.install_blum v ~key:k ~value:(Value.Data None)
       ~timestamp:Timestamp.zero);
  show v "init (write-set={(k,nil)})";

  (* put(k, 4): pre-image (k,nil) joins the read-set, post-image (k,4) the
     write-set *)
  ok (Verifier.add_b v ~key:k ~value:(Value.Data None) ~timestamp:Timestamp.zero);
  ok (Verifier.vput v ~key:k (Some "4"));
  let t1 = Verifier.clock v in
  ok (Verifier.evict_b v ~key:k ~timestamp:t1);
  show v "put(k,4)";

  (* get(k): the host presents (k,4); both sets receive it *)
  ok (Verifier.add_b v ~key:k ~value:(Value.Data (Some "4")) ~timestamp:t1);
  ok (Verifier.vget v ~key:k (Some "4"));
  let t2 = Verifier.clock v in
  ok (Verifier.evict_b v ~key:k ~timestamp:t2);
  show v "get(k) -> 4";

  (* verification scan: the one outstanding write-set entry is read back *)
  ok (Verifier.add_b v ~key:k ~value:(Value.Data (Some "4")) ~timestamp:t2);
  let t3 = Timestamp.max (Verifier.clock v) (Timestamp.first_of_epoch 1) in
  ok (Verifier.evict_b v ~key:k ~timestamp:t3);
  ok (Verifier.close_epoch v ~epoch:0);
  (match Verifier.verify_epoch v ~epoch:0 with
  | Ok _ -> print_endline "  verification scan: sets EQUAL -> epoch certified"
  | Error e -> Printf.printf "  unexpected failure: %s\n" e)

let malicious_run () =
  print_endline "-- malicious host: answers get(k) with (k,5) --";
  let v = Verifier.create Verifier.default_config in
  ok
    (Verifier.install_blum v ~key:k ~value:(Value.Data None)
       ~timestamp:Timestamp.zero);
  ok (Verifier.add_b v ~key:k ~value:(Value.Data None) ~timestamp:Timestamp.zero);
  ok (Verifier.vput v ~key:k (Some "4"));
  let t1 = Verifier.clock v in
  ok (Verifier.evict_b v ~key:k ~timestamp:t1);
  show v "put(k,4)";

  (* the forged pre-image: (k,5) — provisionally accepted! *)
  ok (Verifier.add_b v ~key:k ~value:(Value.Data (Some "5")) ~timestamp:t1);
  ok (Verifier.vget v ~key:k (Some "5"));
  let t2 = Verifier.clock v in
  ok (Verifier.evict_b v ~key:k ~timestamp:t2);
  show v "get(k) -> 5 (forged)";
  print_endline "  note: the read was only PROVISIONALLY validated";

  ok (Verifier.add_b v ~key:k ~value:(Value.Data (Some "5")) ~timestamp:t2);
  let t3 = Timestamp.max (Verifier.clock v) (Timestamp.first_of_epoch 1) in
  ok (Verifier.evict_b v ~key:k ~timestamp:t3);
  ok (Verifier.close_epoch v ~epoch:0);
  match Verifier.verify_epoch v ~epoch:0 with
  | Ok _ -> print_endline "  BUG: forged read slipped through"
  | Error e -> Printf.printf "  verification scan FAILS as it must: %s\n" e

let () =
  honest_run ();
  print_newline ();
  malicious_run ()
