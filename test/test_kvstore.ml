(* The FASTER-style host store. *)

open Fastver_kvstore

let k i = Key.of_int64 (Int64.of_int i)

let mk () = Store.create ~mutable_region_entries:64 ~codec:Store.string_codec ()

(* Reads and maintenance are result-typed (disk tiers can fail); in these
   tests any [Error _] is a test failure. *)
let get_ok s key =
  match Store.get s key with
  | Ok r -> r
  | Error e -> Alcotest.failf "Store.get: %s" e

let ok_unit label = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" label e

let test_put_get () =
  let s = mk () in
  Alcotest.(check (option (pair string int64))) "missing" None (get_ok s (k 1));
  Store.put s (k 1) "one" ~aux:7L;
  Alcotest.(check (option (pair string int64))) "found" (Some ("one", 7L))
    (get_ok s (k 1));
  Store.put s (k 1) "uno" ~aux:8L;
  Alcotest.(check (option (pair string int64))) "updated" (Some ("uno", 8L))
    (get_ok s (k 1));
  Alcotest.(check int) "one live record" 1 (Store.length s)

let test_cas () =
  let s = mk () in
  Store.put s (k 1) "a" ~aux:10L;
  Alcotest.(check bool) "wrong aux fails" false
    (Store.try_cas s (k 1) ~expected_aux:9L "b" ~aux:11L);
  Alcotest.(check bool) "right aux wins" true
    (Store.try_cas s (k 1) ~expected_aux:10L "b" ~aux:11L);
  Alcotest.(check (option (pair string int64))) "applied" (Some ("b", 11L))
    (get_ok s (k 1));
  Alcotest.(check bool) "missing key fails" false
    (Store.try_cas s (k 2) ~expected_aux:0L "x" ~aux:0L)

let test_rcu_versions () =
  (* With a tiny mutable region, updates to old records append versions. *)
  let s = Store.create ~mutable_region_entries:4 ~codec:Store.string_codec () in
  for i = 0 to 15 do
    Store.put s (k i) (string_of_int i) ~aux:0L
  done;
  (* key 0 is far outside the mutable region now *)
  Store.put s (k 0) "copy" ~aux:1L;
  Alcotest.(check (option (pair string int64))) "rcu update visible"
    (Some ("copy", 1L)) (get_ok s (k 0));
  Alcotest.(check bool) "log grew" true (Store.log_size s > 16);
  Alcotest.(check bool) "rcu copies counted" true ((Store.stats s).rcu_copies >= 1)

let test_delete_iter () =
  let s = mk () in
  for i = 0 to 9 do
    Store.put s (k i) (string_of_int i) ~aux:0L
  done;
  Store.delete s (k 3);
  Alcotest.(check int) "9 live" 9 (Store.length s);
  let seen = ref 0 in
  ok_unit "iter_live" (Store.iter_live s (fun _ _ _ -> incr seen));
  Alcotest.(check int) "iter sees 9" 9 !seen

let test_update_rmw () =
  let s = mk () in
  Store.put s (k 1) "x" ~aux:1L;
  ok_unit "update"
    (Store.update s (k 1) (function
      | Some (v, aux) -> (v ^ "y", Int64.add aux 1L)
      | None -> Alcotest.fail "missing"));
  Alcotest.(check (option (pair string int64))) "rmw" (Some ("xy", 2L))
    (get_ok s (k 1))

let test_checkpoint_recover () =
  let dir = Filename.temp_file "fv" "ckpt" in
  Sys.remove dir;
  let s = mk () in
  for i = 0 to 99 do
    Store.put s (k i) (Printf.sprintf "val%d" i) ~aux:(Int64.of_int i)
  done;
  Store.delete s (k 50);
  Store.checkpoint s ~path:dir ~version:3;
  (match Store.recover ~codec:Store.string_codec ~path:dir () with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok (s2, version) ->
      Alcotest.(check int) "version" 3 version;
      Alcotest.(check int) "count" 99 (Store.length s2);
      Alcotest.(check (option (pair string int64))) "record"
        (Some ("val7", 7L)) (get_ok s2 (k 7));
      Alcotest.(check (option (pair string int64))) "deleted stays deleted"
        None (get_ok s2 (k 50)));
  Sys.remove dir

let test_recover_corrupt () =
  let dir = Filename.temp_file "fv" "bad" in
  let oc = open_out_bin dir in
  output_string oc "NOTACKPT";
  close_out oc;
  (match Store.recover ~codec:Store.string_codec ~path:dir () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted corrupt checkpoint");
  Sys.remove dir

(* A checkpoint from the FVCKPT01 or FVCKPT02 era must be called out as a
   format change, not lumped in with arbitrary corruption. *)
let test_recover_legacy_magic () =
  let path = Filename.temp_file "fv" "legacy" in
  List.iter
    (fun (magic, header) ->
      let oc = open_out_bin path in
      output_string oc magic;
      output_string oc (String.make header '\000');
      close_out oc;
      match Store.recover ~codec:Store.string_codec ~path () with
      | Ok _ -> Alcotest.failf "accepted a legacy %s checkpoint" magic
      | Error e ->
          let mentions_legacy =
            let n = String.length e and m = String.length "legacy" in
            let rec at i =
              i + m <= n && (String.sub e i m = "legacy" || at (i + 1))
            in
            at 0
          in
          Alcotest.(check bool) ("explicit legacy error: " ^ e) true
            mentions_legacy)
    [ ("FVCKPT01", 12) (* int32-version header *); ("FVCKPT02", 16) ];
  Sys.remove path

(* The verified epoch is an int64 on disk: versions past 2^31 must
   round-trip instead of truncating through int32. *)
let test_checkpoint_version_64bit () =
  let path = Filename.temp_file "fv" "v64" in
  let s = mk () in
  Store.put s (k 1) "x" ~aux:0L;
  let version = 0x1_2345_6789 in
  Store.checkpoint s ~path ~version;
  (match Store.recover ~codec:Store.string_codec ~path () with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok (_, v) -> Alcotest.(check int) "version survives 32 bits" version v);
  Sys.remove path

(* A base image and two deltas applied in order give the live store: the
   deltas carry only the changed keys, deletions included, and a delta
   written by an attempt that never committed is covered by the next. *)
let test_delta_chain () =
  let path i = Filename.temp_file "fv" (Printf.sprintf "chain%d" i) in
  let s = mk () in
  for i = 0 to 49 do
    Store.put s (k i) (Printf.sprintf "v%d" i) ~aux:(Int64.of_int i)
  done;
  Store.track_changes s;
  let p0 = path 0 and p1 = path 1 and p2 = path 2 in
  ignore (Store.write_image s ~path:p0 ~version:1 ~base:true);
  Store.commit_changes s;
  Store.put s (k 3) "three" ~aux:30L;
  Store.delete s (k 4);
  Store.put s (k 60) "sixty" ~aux:60L;
  (* written, never committed: its keys stay pending *)
  ignore (Store.write_image s ~path:p1 ~version:2 ~base:false);
  Store.delete s (k 60);
  Store.put s (k 5) "five" ~aux:50L;
  let d = Store.write_image s ~path:p1 ~version:2 ~base:false in
  Store.commit_changes s;
  Store.put s (k 4) "four-again" ~aux:40L;
  ignore (Store.write_image s ~path:p2 ~version:3 ~base:false);
  Alcotest.(check bool) "the delta is smaller than the base" true
    (d.size < (Unix.stat p0).Unix.st_size);
  (match
     Store.recover_chain ~codec:Store.string_codec ~paths:[ p0; p1; p2 ] ()
   with
  | Error e -> Alcotest.failf "recover_chain: %s" e
  | Ok (s2, version) ->
      Alcotest.(check int) "tip version" 3 version;
      Alcotest.(check int) "count" (Store.length s) (Store.length s2);
      List.iter
        (fun i ->
          Alcotest.(check (option (pair string int64)))
            (Printf.sprintf "key %d" i) (get_ok s (k i)) (get_ok s2 (k i)))
        [ 0; 3; 4; 5; 49; 60 ]);
  List.iter Sys.remove [ p0; p1; p2 ]

let valid_checkpoint_bytes () =
  let path = Filename.temp_file "fv" "fuzzsrc" in
  let s = mk () in
  for i = 0 to 19 do
    Store.put s (k i) (Printf.sprintf "value-%03d" i) ~aux:(Int64.of_int i)
  done;
  Store.checkpoint s ~path ~version:5;
  let ic = open_in_bin path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  raw

(* Recovery is total: header fields claiming more records or longer
   payloads than the file holds (or negative ones) must be an [Error]
   before any allocation, never an exception. *)
let test_recover_hostile_lengths () =
  let base = valid_checkpoint_bytes () in
  let path = Filename.temp_file "fv" "hostile" in
  let try_recover raw =
    let oc = open_out_bin path in
    output_string oc raw;
    close_out oc;
    match Store.recover ~codec:Store.string_codec ~path () with
    | Ok _ -> Alcotest.fail "accepted a hostile checkpoint"
    | Error _ -> ()
  in
  let patch64 off v =
    let b = Bytes.of_string base in
    Bytes.set_int64_le b off v;
    Bytes.to_string b
  in
  let patch32 off v =
    let b = Bytes.of_string base in
    Bytes.set_int32_le b off v;
    Bytes.to_string b
  in
  try_recover (patch64 16 (-1L)) (* negative count *);
  try_recover (patch64 16 Int64.max_int) (* absurd count *);
  try_recover (patch64 16 1_000_000L) (* count beyond file size *);
  try_recover (patch64 8 (-3L)) (* negative version *);
  (* first record's len field: magic(8) header(16) key(34) aux(8) *)
  try_recover (patch32 66 (-5l)) (* negative len *);
  try_recover (patch32 66 Int32.max_int) (* len beyond file size *);
  try_recover (String.sub base 0 (String.length base - 3)) (* truncated *);
  Sys.remove path

let prop_recover_fuzz =
  let base = lazy (valid_checkpoint_bytes ()) in
  QCheck.Test.make ~name:"Store.recover never raises on mutated checkpoints"
    ~count:300
    QCheck.(
      pair (list (pair (int_bound 10_000) (int_bound 255))) (int_bound 10_000))
    (fun (mutations, cut) ->
      let base = Lazy.force base in
      let b = Bytes.of_string base in
      List.iter
        (fun (off, byte) ->
          if off < Bytes.length b then Bytes.set b off (Char.chr byte))
        mutations;
      let raw = Bytes.to_string b in
      let raw =
        if cut < String.length raw then String.sub raw 0 cut else raw
      in
      let path = Filename.temp_file "fv" "fuzz" in
      let oc = open_out_bin path in
      output_string oc raw;
      close_out oc;
      let ok =
        match Store.recover ~codec:Store.string_codec ~path () with
        | Ok _ | Error _ -> true
        | exception _ -> false
      in
      Sys.remove path;
      ok)

let prop_model_check =
  (* differential test against a Hashtbl model *)
  QCheck.Test.make ~name:"store = hashtable model" ~count:60
    QCheck.(
      list
        (pair (int_bound 50)
           (make
              Gen.(
                oneof
                  [
                    return None;
                    map Option.some (string_size (return 4));
                  ]))))
    (fun ops ->
      let s = Store.create ~mutable_region_entries:8 ~codec:Store.string_codec () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (i, op) ->
          match op with
          | None -> (
              (* read and compare *)
              match (Store.get s (k i), Hashtbl.find_opt model i) with
              | Ok None, None -> ()
              | Ok (Some (v, _)), Some v' when v = v' -> ()
              | _ -> failwith "divergence")
          | Some v ->
              Store.put s (k i) v ~aux:0L;
              Hashtbl.replace model i v)
        ops;
      Hashtbl.fold
        (fun i v acc ->
          acc
          &&
          match Store.get s (k i) with
          | Ok (Some (v', _)) -> v = v'
          | Ok None | Error _ -> false)
        model true)

let suite =
  ( "kvstore",
    [
      Alcotest.test_case "put/get" `Quick test_put_get;
      Alcotest.test_case "cas" `Quick test_cas;
      Alcotest.test_case "rcu versions" `Quick test_rcu_versions;
      Alcotest.test_case "delete/iter" `Quick test_delete_iter;
      Alcotest.test_case "read-modify-write" `Quick test_update_rmw;
      Alcotest.test_case "checkpoint/recover" `Quick test_checkpoint_recover;
      Alcotest.test_case "corrupt checkpoint" `Quick test_recover_corrupt;
      Alcotest.test_case "legacy checkpoint magic" `Quick
        test_recover_legacy_magic;
      Alcotest.test_case "64-bit checkpoint version" `Quick
        test_checkpoint_version_64bit;
      Alcotest.test_case "delta image chain" `Quick test_delta_chain;
      Alcotest.test_case "hostile checkpoint lengths" `Quick
        test_recover_hostile_lengths;
      QCheck_alcotest.to_alcotest prop_model_check;
      QCheck_alcotest.to_alcotest prop_recover_fuzz;
    ] )

(* The store is shared state under OCaml 5 domains: striped locks must keep
   per-key operations atomic even with preemptive interleaving. *)
let test_domain_safety () =
  let s = Store.create ~codec:Store.string_codec () in
  let n_keys = 64 and per_domain = 20_000 in
  for i = 0 to n_keys - 1 do
    Store.put s (k i) "0" ~aux:0L
  done;
  (* each domain increments counters via try_cas retry loops *)
  let work () =
    let rng = Random.State.make_self_init () in
    let done_ = ref 0 in
    while !done_ < per_domain do
      let key = k (Random.State.int rng n_keys) in
      match Store.get s key with
      | Ok None | Error _ -> ()
      | Ok (Some (v, aux)) ->
          let v' = string_of_int (int_of_string v + 1) in
          if Store.try_cas s key ~expected_aux:aux v' ~aux:(Int64.succ aux)
          then incr done_
    done
  in
  let d1 = Domain.spawn work and d2 = Domain.spawn work in
  work ();
  Domain.join d1;
  Domain.join d2;
  (* every successful CAS bumped aux once; increments must all survive *)
  let total = ref 0L and count = ref 0 in
  ok_unit "iter_live"
    (Store.iter_live s (fun _ v aux ->
         total := Int64.add !total aux;
         count := !count + int_of_string v));
  Alcotest.(check int) "no lost updates (values)" (3 * per_domain) !count;
  Alcotest.(check int64) "no lost updates (aux)"
    (Int64.of_int (3 * per_domain))
    !total

let suite =
  ( fst suite,
    snd suite
    @ [
        Alcotest.test_case "domain safety" `Slow test_domain_safety;
      ] )
