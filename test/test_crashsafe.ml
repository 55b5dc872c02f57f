(* Crash-fault injection over the durability layer (§7).

   The sweep drives a checkpoint-under-load into every interesting cut
   point — mid-write at a range of byte offsets, plus pre-fsync and
   pre-rename for every component file and the manifest — "kills" the
   process there (Ckpt_io.Injected_crash), recovers from disk, and asserts
   the recovered system is a consistent committed state: full verification
   passes, the pre-crash authenticated put cannot be replayed, and the
   system keeps working. The corruption tests then attack the files of a
   committed generation directly (truncation, bit flips, with and without
   an adversarial manifest fix-up): recovery must stay total (Error, never
   an exception) and must never yield a system that verifies a lie. *)

module C = Fastver_kvstore.Ckpt_io

let vo = Alcotest.(option string)

let ckpt t ~dir =
  match Fastver.checkpoint t ~dir with
  | Ok () -> ()
  | Error e -> Alcotest.failf "checkpoint: %s" e

let fresh_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  C.remove_tree dir;
  dir

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec at i = i + m <= n && (String.sub hay i m = needle || at (i + 1)) in
  at 0

let config =
  {
    Fastver.Config.default with
    n_workers = 2;
    batch_size = 0;
    frontier_levels = 2;
    cost_model = Cost_model.zero;
  }

let mk ?(n = 40) () =
  let t = Fastver.create ~config () in
  Fastver.load t
    (Array.init n (fun i -> (Int64.of_int i, Printf.sprintf "v%06d" i)));
  t

(* Build a system with one committed checkpoint generation (the fallback),
   then more updates, and return it poised for a second checkpoint. The
   last *authenticated* put happens before the committed checkpoint, so its
   nonce is in every recoverable nonce table and a replay must always be
   rejected. *)
let poised dir =
  let t = mk () in
  let s = Fastver.Session.connect t ~client_id:3 in
  ignore (Fastver.Session.put s 1L "committed-v1");
  ignore (Fastver.verify t);
  ckpt t ~dir;
  Fastver.put t 1L "in-flight-v2";
  Fastver.put t 41L "new-record";
  ignore (Fastver.verify t);
  t

(* After recovery from any cut point the state must be the committed
   generation: old (only gen 0 committed) or new (crash after the second
   manifest committed — only possible when the fault never fired). *)
let assert_recovered_consistent ~dir ~crashed =
  match Fastver.recover ~config ~dir () with
  | Error e -> Alcotest.failf "recover after crash: %s" e
  | Ok t2 ->
      let v1 = Fastver.get t2 1L in
      (if crashed then
         Alcotest.(check vo) "old generation state" (Some "committed-v1") v1
       else
         Alcotest.(check vo) "new generation state" (Some "in-flight-v2") v1);
      (* the pre-crash authenticated put (the session's first nonce) must
         not be replayable *)
      let mac =
        Fastver.Auth.put_request
          (Fastver.Auth.key_of_secret config.mac_secret)
          ~client:3 ~nonce:1L (Key.of_int64 1L) "committed-v1"
      in
      (match
         Fastver.Batch.submit t2
           [| Fastver.Batch.Put
                { client = 3; nonce = 1L; mac; key = 1L;
                  value = Some "committed-v1" } |]
       with
      | [| Fastver.Batch.Failed e |] ->
          Alcotest.(check string) "rejected as a replay"
            "gateway: put nonce replayed" e
      | _ -> Alcotest.fail "pre-crash put replayed after crash recovery");
      (* full verification over every record, then continued service *)
      for i = 0 to 39 do
        ignore (Fastver.get t2 (Int64.of_int i))
      done;
      ignore (Fastver.verify t2);
      Fastver.put t2 5L "post-recovery";
      ignore (Fastver.verify t2);
      Alcotest.(check vo) "usable after recovery" (Some "post-recovery")
        (Fastver.get t2 5L)

let run_cut_point name fault =
  let dir = fresh_dir ("fv-crash-" ^ name) in
  let t = poised dir in
  C.arm fault;
  let crashed =
    match Fastver.checkpoint t ~dir with
    | Ok () -> false
    | Error e -> Alcotest.failf "checkpoint: %s" e
    | exception C.Injected_crash _ -> true
  in
  C.disarm ();
  assert_recovered_consistent ~dir ~crashed;
  C.remove_tree dir;
  crashed

(* Total bytes a second checkpoint writes, to place the mid-write cuts. *)
let checkpoint_write_volume () =
  let dir = fresh_dir "fv-crash-measure" in
  let t = poised dir in
  C.arm (C.Die_after_bytes max_int);
  ckpt t ~dir;
  C.disarm ();
  let total = C.bytes_written () in
  C.remove_tree dir;
  total

let test_sweep_mid_write () =
  let total = checkpoint_write_volume () in
  Alcotest.(check bool) "checkpoint writes something" true (total > 0);
  (* cut at every eighth of the write volume, plus the first and last byte *)
  let cuts =
    [ 0; 1 ]
    @ List.init 7 (fun i -> (i + 1) * total / 8)
    @ [ total - 1 ]
  in
  let n_crashed =
    List.fold_left
      (fun acc cut ->
        let crashed =
          run_cut_point
            (Printf.sprintf "byte-%d" cut)
            (C.Die_after_bytes cut)
        in
        acc + if crashed then 1 else 0)
      0 cuts
  in
  Alcotest.(check int) "every cut point crashed" (List.length cuts) n_crashed

let component_files =
  [ "data.ckpt"; "merkle-0.tree"; "merkle-1.tree"; "verifier.sealed"; "tpm.state";
    "MANIFEST" ]

let test_sweep_pre_fsync () =
  List.iter
    (fun file ->
      let crashed =
        run_cut_point ("fsync-" ^ file) (C.Die_before_fsync file)
      in
      Alcotest.(check bool) ("crashed before fsync of " ^ file) true crashed)
    component_files

let test_sweep_pre_rename () =
  List.iter
    (fun file ->
      let crashed =
        run_cut_point ("rename-" ^ file) (C.Die_before_rename file)
      in
      Alcotest.(check bool) ("crashed before rename of " ^ file) true crashed)
    component_files

(* Two crashes in a row (the second checkpoint *and* the one after it) must
   still fall back to the oldest committed generation. *)
let test_double_crash () =
  let dir = fresh_dir "fv-crash-double" in
  let t = poised dir in
  C.arm (C.Die_after_bytes 100);
  (try ckpt t ~dir with C.Injected_crash _ -> ());
  C.arm (C.Die_before_rename "MANIFEST");
  (try ckpt t ~dir with C.Injected_crash _ -> ());
  C.disarm ();
  assert_recovered_consistent ~dir ~crashed:true;
  C.remove_tree dir

(* A crash mid-checkpoint must leave the *running* system intact too: the
   invariant protects the next checkpoint attempt after a transient fault
   (full disk, say) when the process did not actually die. *)
let test_survivor_can_checkpoint_again () =
  let dir = fresh_dir "fv-crash-retry" in
  let t = poised dir in
  C.arm (C.Die_after_bytes 1000);
  (try ckpt t ~dir with C.Injected_crash _ -> ());
  C.disarm ();
  ignore (Fastver.verify t);
  ckpt t ~dir;
  (match Fastver.recover ~config ~dir () with
  | Error e -> Alcotest.failf "recover after retry: %s" e
  | Ok t2 ->
      Alcotest.(check vo) "retry checkpointed the live state"
        (Some "in-flight-v2") (Fastver.get t2 1L));
  C.remove_tree dir

(* Checkpoints are no longer pinned to a just-verified boundary: one taken
   mid-epoch — slow-path records cached, blum-dirty records outstanding —
   must drain the caches into the checkpoint, and recovery must rebuild the
   dirty lists from the persisted record states so the next scan balances. *)
let test_mid_epoch_checkpoint_recovers () =
  let dir = fresh_dir "fv-ckpt-midepoch" in
  let t = mk () in
  (* one sealed epoch behind us; the interesting state is all mid-epoch *)
  ignore (Fastver.verify t);
  for i = 0 to 39 do
    ignore (Fastver.get t (Int64.of_int i))
  done;
  for i = 0 to 39 do
    Fastver.put t (Int64.of_int i) (Printf.sprintf "mid-%d" i)
  done;
  ckpt t ~dir;
  (match Fastver.recover ~config ~dir () with
  | Error e -> Alcotest.failf "mid-epoch recover: %s" e
  | Ok t2 ->
      for i = 0 to 39 do
        Alcotest.(check vo) "mid-epoch state"
          (Some (Printf.sprintf "mid-%d" i))
          (Fastver.get t2 (Int64.of_int i))
      done;
      ignore (Fastver.verify t2);
      Fastver.put t2 3L "post";
      ignore (Fastver.verify t2);
      Alcotest.(check vo) "usable after mid-epoch recovery" (Some "post")
        (Fastver.get t2 3L));
  (* the survivor — caches drained by the checkpoint — keeps verifying *)
  ignore (Fastver.verify t);
  C.remove_tree dir

(* ------------------------------------------------------------------ *)
(* Corrupt committed generations: recovery total, tampering detected   *)
(* ------------------------------------------------------------------ *)

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

(* One committed checkpoint, built once and copied per corruption case. *)
let pristine =
  lazy
    (let dir = fresh_dir "fv-crash-pristine" in
     let t = mk () in
     let s = Fastver.Session.connect t ~client_id:7 in
     ignore (Fastver.Session.put s 2L "sealed-in");
     ignore (Fastver.verify t);
     ckpt t ~dir;
     dir)

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

let mutate_file path f =
  let ic = open_in_bin path in
  let raw = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let raw = f raw in
  let oc = open_out_bin path in
  output_bytes oc raw;
  close_out oc

(* Corrupt [file] of a copy of the pristine generation with [f], optionally
   re-hash the manifest (host adversary), then recover: it must return —
   and if it returns [Ok], reading everything and verifying must trip the
   verifier rather than certify the corrupt state. *)
let check_corruption ?(fixup = true) ~file ~name f =
  let dir = fresh_dir ("fv-corrupt-" ^ name) in
  copy_tree (Lazy.force pristine) dir;
  let gdir =
    match C.generations dir with
    | (_, g) :: _ -> g
    | [] -> Alcotest.fail "pristine checkpoint has no generation"
  in
  mutate_file (Filename.concat gdir file) f;
  if fixup then rehash_manifest gdir;
  (match Fastver.recover ~config ~dir () with
  | Error _ -> ()
  | Ok t2 -> (
      match
        for i = 0 to 39 do
          ignore (Fastver.get t2 (Int64.of_int i))
        done;
        ignore (Fastver.get t2 2L);
        ignore (Fastver.verify t2)
      with
      | exception Fastver.Integrity_violation _ -> ()
      | () ->
          (* Structurally-dead bytes may legitimately decode to the honest
             state; anything else must have been caught above. *)
          Alcotest.(check vo)
            (name ^ ": surviving state must be honest")
            (Some "sealed-in") (Fastver.get t2 2L)));
  C.remove_tree dir

let truncate_half raw = Bytes.sub raw 0 (Bytes.length raw / 2)

let flip_middle raw =
  let i = Bytes.length raw / 2 in
  Bytes.set raw i (Char.chr (Char.code (Bytes.get raw i) lxor 0x10));
  raw

let test_corrupt_components () =
  List.iter
    (fun file ->
      check_corruption ~file ~name:(file ^ "-trunc") truncate_half;
      check_corruption ~file ~name:(file ^ "-flip") flip_middle;
      (* without the fix-up the well-formed manifest's checksum mismatch is
         surfaced as tampering (an [Error], never a silent fallback) *)
      check_corruption ~fixup:false ~file ~name:(file ^ "-mismatch")
        flip_middle)
    [ "data.ckpt"; "merkle-0.tree"; "merkle-1.tree"; "verifier.sealed"; "tpm.state" ]

let test_corrupt_manifest () =
  List.iter
    (fun (name, f) -> check_corruption ~fixup:false ~file:"MANIFEST" ~name f)
    [
      ("manifest-trunc", truncate_half);
      ("manifest-flip", flip_middle);
      ("manifest-garbage", fun _ -> Bytes.of_string "not a manifest at all");
    ]

(* The rollback primitive the scheme must deny: one flipped bit in the
   newest committed generation (manifest left alone, so its checksums no
   longer verify) must surface an error — not silently recover the older
   generation — and must leave the tampered directory in place as
   evidence. *)
let test_tamper_does_not_roll_back () =
  let dir = fresh_dir "fv-tamper-rollback" in
  let t = mk () in
  Fastver.put t 1L "old-state";
  ignore (Fastver.verify t);
  ckpt t ~dir;
  Fastver.put t 1L "new-state";
  ignore (Fastver.verify t);
  ckpt t ~dir;
  let gdir =
    match C.generations dir with
    | (_, g) :: _ -> g
    | [] -> Alcotest.fail "no generation"
  in
  mutate_file (Filename.concat gdir "data.ckpt") flip_middle;
  (match Fastver.recover ~config ~dir () with
  | Ok _ -> Alcotest.fail "tampered newest generation accepted"
  | Error e ->
      Alcotest.(check bool) ("surfaced as tampering: " ^ e) true
        (contains e "tampering"));
  Alcotest.(check bool) "tampered generation preserved as evidence" true
    (Sys.file_exists (Filename.concat gdir "MANIFEST"));
  C.remove_tree dir

(* Replaying an old committed generation under a higher ckpt-<n> number must
   not let it shadow the newest one: the manifest records its own generation
   and a disagreement with the directory name is tampering. *)
let test_generation_number_pinned () =
  let dir = fresh_dir "fv-gen-rename" in
  let t = mk () in
  Fastver.put t 1L "old-state";
  ignore (Fastver.verify t);
  ckpt t ~dir;
  Fastver.put t 1L "new-state";
  ignore (Fastver.verify t);
  ckpt t ~dir;
  copy_tree (Filename.concat dir "ckpt-0") (Filename.concat dir "ckpt-5");
  (match Fastver.recover ~config ~dir () with
  | Ok _ -> Alcotest.fail "replayed generation accepted under a new number"
  | Error e ->
      Alcotest.(check bool) ("surfaced as tampering: " ^ e) true
        (contains e "tampering"));
  C.remove_tree dir

(* Retention must keep the newest *committed* predecessor: after a failed
   checkpoint attempt (non-fatal — the process kept serving) the torn
   directory occupies the numeric predecessor slot, and the next successful
   checkpoint must prune it rather than the last good generation. *)
let test_retention_keeps_committed_fallback () =
  let dir = fresh_dir "fv-retention" in
  let t = poised dir in
  (* torn ckpt-1: the attempt dies mid-write *)
  C.arm (C.Die_after_bytes 100);
  (try ckpt t ~dir with C.Injected_crash _ -> ());
  C.disarm ();
  ignore (Fastver.verify t);
  (* committed ckpt-2: retention runs *)
  ckpt t ~dir;
  Alcotest.(check bool) "committed ckpt-0 retained as fallback" true
    (Sys.file_exists (Filename.concat dir "ckpt-0/MANIFEST"));
  Alcotest.(check bool) "torn ckpt-1 pruned" false
    (Sys.file_exists (Filename.concat dir "ckpt-1"));
  (* if the newest generation is later lost wholesale, the fallback must be
     recoverable *)
  C.remove_tree (Filename.concat dir "ckpt-2");
  (match Fastver.recover ~config ~dir () with
  | Error e -> Alcotest.failf "fallback recovery: %s" e
  | Ok t2 ->
      Alcotest.(check vo) "fallback is the committed generation"
        (Some "committed-v1") (Fastver.get t2 1L));
  C.remove_tree dir

(* Retention decides from memory and never reads what it keeps: a byte
   flipped in the fallback chain while the system runs survives the next
   checkpoint untouched, and once the newest generation is lost, recovery
   walks into the tampered link and refuses instead of skipping it. *)
let test_retention_keeps_tampered_fallback () =
  let dir = fresh_dir "fv-retention-evidence" in
  let t = mk () in
  Fastver.put t 1L "base";
  ignore (Fastver.verify t);
  ckpt t ~dir;
  Fastver.put t 1L "delta-1";
  ignore (Fastver.verify t);
  ckpt t ~dir;
  Alcotest.(check (list int)) "a base and one delta" [ 0; 1 ]
    (Fastver.checkpoint_chain t ~dir);
  let base_data = Filename.concat dir "ckpt-0/data.ckpt" in
  mutate_file base_data flip_middle;
  let flipped = In_channel.with_open_bin base_data In_channel.input_all in
  Fastver.put t 1L "delta-2";
  ignore (Fastver.verify t);
  ckpt t ~dir;
  Alcotest.(check string) "tampered base kept as it was" flipped
    (In_channel.with_open_bin base_data In_channel.input_all);
  C.remove_tree (Filename.concat dir "ckpt-2");
  (match Fastver.recover ~config ~dir () with
  | Ok _ -> Alcotest.fail "chain with a tampered link recovered"
  | Error e ->
      Alcotest.(check bool) ("surfaced as tampering: " ^ e) true
        (contains e "tampering"));
  Alcotest.(check bool) "tampered generation preserved as evidence" true
    (Sys.file_exists (Filename.concat dir "ckpt-0/MANIFEST"));
  C.remove_tree dir

(* Dirty tracking is complete: after every committed generation, the system
   recovered from the chain holds exactly the live system's store records
   and, per shard, its merkle records (value, protection state, owner).
   The stream mixes puts, deletes and gets over existing and fresh keys
   (fresh keys split tree nodes), a cache small enough to force capacity
   evictions, verification scans, and one checkpoint attempt that dies
   mid-write; it runs long enough to roll over to a second base. *)
let prop_delta_chain_equivalence =
  QCheck.Test.make ~name:"recovered chain equals the live system" ~count:4
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let config = { config with cache_capacity = 16 } in
      let dir = fresh_dir "fv-delta-equiv" in
      let t = Fastver.create ~config () in
      Fastver.load t
        (Array.init 120 (fun i -> (Int64.of_int (2 * i), Printf.sprintf "v%d" i)));
      let same t2 =
        Fastver.Testing.store_contents t = Fastver.Testing.store_contents t2
        && List.for_all
             (fun sid ->
               Fastver.Testing.tree_entries t sid
               = Fastver.Testing.tree_entries t2 sid)
             [ 0; 1 ]
      in
      let bases = ref 0 and deltas = ref 0 in
      let ok = ref true in
      for round = 1 to 14 do
        for _ = 1 to 25 do
          let k = Int64.of_int (Random.State.int rng 300) in
          match Random.State.int rng 10 with
          | 0 | 1 -> Fastver.delete t k
          | 2 | 3 -> ignore (Fastver.get t k)
          | _ -> Fastver.put t k (Printf.sprintf "r%d-%d" round (Random.State.bits rng))
        done;
        if round mod 3 = 0 then ignore (Fastver.verify t);
        if round = 5 then begin
          C.arm (C.Die_after_bytes 2000);
          (try ckpt t ~dir with C.Injected_crash _ -> ());
          C.disarm ()
        end;
        ckpt t ~dir;
        if List.length (Fastver.checkpoint_chain t ~dir) = 1 then incr bases
        else incr deltas;
        match Fastver.recover ~config ~dir () with
        | Error e -> QCheck.Test.fail_reportf "round %d: recover: %s" round e
        | Ok t2 -> if not (same t2) then ok := false
      done;
      C.remove_tree dir;
      if !bases < 2 || !deltas = 0 then
        QCheck.Test.fail_reportf "%d bases and %d deltas: no delta, or no second base"
          !bases !deltas;
      !ok)

(* A checkpoint keeps the verifier cache and writes its stale records back
   in place; it must seal exactly what draining the cache first would.
   Two systems take the same seeded get/put stream (over existing and
   fresh keys) and the same write-back checkpoints, mid-epoch and after
   verification; at the last one, one system drains its cache first. The
   sealed payloads must be byte-identical and both chains must recover to
   the same store and trees — which needs every delta to rewrite the
   cached frontier records, changed or not, at their moving virtual
   timestamps. *)
let prop_writeback_seals_like_drain =
  QCheck.Test.make ~name:"write-back checkpoint seals what a drain seals"
    ~count:2
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let flushes = ref 0 in
      let agree i (cache, shards) =
        let config =
          { config with cache_capacity = cache; n_workers = 1; n_shards = shards }
        in
        let mk () =
          let t = Fastver.create ~config () in
          Fastver.load t
            (Array.init 150 (fun i -> (Int64.of_int (2 * i), Printf.sprintf "v%d" i)));
          t
        in
        let a = mk () and b = mk () in
        let dir_a = fresh_dir "fv-wb-a" and dir_b = fresh_dir "fv-wb-b" in
        let rng = Random.State.make [| seed; cache; shards |] in
        (* Two wide rounds, then two that stay under a few keys: their
           deltas leave cached frontier records untouched, and the last
           one is mid-epoch at every other point. *)
        let rounds =
          [ (60, 400, false); (40, 400, true); (10, 30, false); (10, 30, i mod 2 = 0) ]
        in
        List.iteri
          (fun round (ops, range, verify) ->
            for _ = 1 to ops do
              let k = Int64.of_int (Random.State.int rng range) in
              if Random.State.int rng 10 < 3 then begin
                ignore (Fastver.get a k);
                ignore (Fastver.get b k)
              end
              else begin
                let v = Printf.sprintf "r%d" (Random.State.bits rng) in
                Fastver.put a k v;
                Fastver.put b k v
              end
            done;
            if verify then begin
              ignore (Fastver.verify a);
              ignore (Fastver.verify b)
            end;
            if round < List.length rounds - 1 then begin
              ckpt a ~dir:dir_a;
              ckpt b ~dir:dir_b
            end)
          rounds;
        ckpt a ~dir:dir_a;
        Fastver.Testing.drain_caches b;
        ckpt b ~dir:dir_b;
        flushes := !flushes + (Fastver.verifier_stats a).n_flush_m;
        let payload t =
          match Fastver.Testing.sealed_payload t with
          | Ok p -> p
          | Error e -> QCheck.Test.fail_reportf "sealed payload: %s" e
        in
        let recovered dir =
          match Fastver.recover ~config ~dir () with
          | Ok t -> t
          | Error e -> QCheck.Test.fail_reportf "recover %s: %s" dir e
        in
        let ra = recovered dir_a and rb = recovered dir_b in
        let same =
          String.equal (payload a) (payload b)
          && Fastver.Testing.store_contents ra = Fastver.Testing.store_contents rb
          && List.for_all
               (fun sid ->
                 Fastver.Testing.tree_entries ra sid
                 = Fastver.Testing.tree_entries rb sid)
               (List.init shards Fun.id)
        in
        C.remove_tree dir_a;
        C.remove_tree dir_b;
        if not same then
          QCheck.Test.fail_reportf "cache %d, %d shards: write-back differs" cache
            shards;
        same
      in
      let points =
        List.concat_map
          (fun cache -> List.map (fun sh -> (cache, sh)) [ 1; 2; 4 ])
          [ 16; 128; Fastver.Config.default.cache_capacity ]
      in
      let all = List.for_all Fun.id (List.mapi agree points) in
      if !flushes = 0 then QCheck.Test.fail_report "nothing was written back";
      all)

(* An empty or missing directory is the one error after which a fresh start
   is safe (the CLI keys on its exact payload); a flat pre-generation layout
   is a format change and must say so. *)
let test_no_checkpoint_vs_legacy_layout () =
  let dir = fresh_dir "fv-empty" in
  (match Fastver.recover ~config ~dir () with
  | Ok _ -> Alcotest.fail "recovered from nothing"
  | Error e ->
      Alcotest.(check string) "exact no-checkpoint error"
        Fastver.err_no_checkpoint e);
  Sys.mkdir dir 0o755;
  let oc = open_out_bin (Filename.concat dir "data.ckpt") in
  output_string oc "FVCKPT01legacy-flat-layout";
  close_out oc;
  (match Fastver.recover ~config ~dir () with
  | Ok _ -> Alcotest.fail "recovered from a legacy layout"
  | Error e ->
      Alcotest.(check bool) ("explicit legacy error: " ^ e) true
        (contains e "legacy"));
  C.remove_tree dir

(* A data checkpoint whose version was doctored must be rejected against the
   sealed verifier epoch even though its checksums can be made to agree. *)
let test_version_epoch_mismatch () =
  let dir = fresh_dir "fv-corrupt-version" in
  copy_tree (Lazy.force pristine) dir;
  let gdir =
    match C.generations dir with
    | (_, g) :: _ -> g
    | [] -> Alcotest.fail "no generation"
  in
  mutate_file (Filename.concat gdir "data.ckpt") (fun raw ->
      (* version int64 lives right after the 8-byte magic *)
      Bytes.set_int64_le raw 8 (Int64.add (Bytes.get_int64_le raw 8) 7L);
      raw);
  rehash_manifest gdir;
  (match Fastver.recover ~config ~dir () with
  | Error e ->
      Alcotest.(check bool) ("rejected for epoch disagreement: " ^ e) true
        (contains e "disagrees")
  | Ok _ -> Alcotest.fail "doctored checkpoint version accepted");
  C.remove_tree dir

(* ------------------------------------------------------------------ *)
(* Fuzz: recovery is total on arbitrary corruption                     *)
(* ------------------------------------------------------------------ *)

let prop_recover_never_raises =
  QCheck.Test.make ~name:"Fastver.recover total under random corruption"
    ~count:60
    QCheck.(
      quad (int_bound 4) (int_bound 1000) (int_bound 255) bool)
    (fun (file_idx, frac_millis, byte, fixup) ->
      let frac = float_of_int frac_millis /. 1000.0 in
      let dir = fresh_dir "fv-fuzz-recover" in
      copy_tree (Lazy.force pristine) dir;
      let gdir =
        match C.generations dir with
        | (_, g) :: _ -> g
        | [] -> failwith "no generation"
      in
      let file =
        List.nth
          [ "data.ckpt"; "merkle-0.tree"; "merkle-1.tree"; "verifier.sealed"; "tpm.state" ]
          file_idx
      in
      mutate_file (Filename.concat gdir file) (fun raw ->
          if Bytes.length raw = 0 then raw
          else begin
            let i =
              min
                (Bytes.length raw - 1)
                (int_of_float (frac *. float_of_int (Bytes.length raw)))
            in
            Bytes.set raw i (Char.chr byte);
            raw
          end);
      if fixup then rehash_manifest gdir;
      let ok =
        match Fastver.recover ~config ~dir () with
        | Ok _ | Error _ -> true
        | exception _ -> false
      in
      C.remove_tree dir;
      ok)

(* ------------------------------------------------------------------ *)
(* Cold-tier crashes: mid-segment-write and mid-compaction            *)
(* ------------------------------------------------------------------ *)

module Cold = Fastver_kvstore.Store.Cold

let k i = Key.of_int64 (Int64.of_int i)

(* Kill the process (Cold.Injected_crash) part-way through a torn segment
   append during cold maintenance, then recover from the last committed
   generation: the torn tail must be truncated away and the recovered state
   must be exactly the checkpointed one. *)
let test_crash_mid_cold_append () =
  let cdir = fresh_dir "fv-crash-coldapp-tier" in
  let dir = fresh_dir "fv-crash-coldapp-ckpt" in
  let cold_config =
    {
      config with
      cold_dir = Some cdir;
      cold_threshold = 16;
      cold_segment_bytes = 2048;
    }
  in
  let t = Fastver.create ~config:cold_config () in
  let n = 64 in
  Fastver.load t
    (Array.init n (fun i -> (Int64.of_int i, Printf.sprintf "v%06d" i)));
  ignore (Fastver.verify t) (* demotes the cooling tail to cold *);
  ckpt t ~dir;
  (* dirty the store so the next maintenance pass has records to demote,
     then die torn: half a record hits the disk before the "kill" *)
  for i = 0 to n - 1 do
    Fastver.put t (Int64.of_int i) (Printf.sprintf "doomed-%d" i)
  done;
  Cold.arm_fault { Cold.after_appends = 3; torn = true };
  let crashed =
    match Fastver.verify t with
    | _ -> false
    | exception Cold.Injected_crash _ -> true
  in
  Cold.disarm_fault ();
  Alcotest.(check bool) "crashed mid segment write" true crashed;
  Fastver.close_cold t;
  match Fastver.recover ~config:cold_config ~dir () with
  | Error e -> Alcotest.failf "recover after cold append crash: %s" e
  | Ok t2 ->
      for i = 0 to n - 1 do
        Alcotest.(check vo) "committed prefix only"
          (Some (Printf.sprintf "v%06d" i))
          (Fastver.get t2 (Int64.of_int i))
      done;
      ignore (Fastver.verify t2);
      Fastver.put t2 1L "post-crash";
      ignore (Fastver.verify t2);
      Alcotest.(check vo) "usable after recovery" (Some "post-crash")
        (Fastver.get t2 1L);
      Fastver.close_cold t2;
      C.remove_tree dir;
      C.remove_tree cdir

(* Same, but the kill lands inside compaction's rewrite loop: segments were
   part-rewritten but never retired in any committed manifest, so recovery
   must land on the pre-compaction committed state with nothing lost. *)
let test_crash_mid_compaction () =
  let cdir = fresh_dir "fv-crash-compact-tier" in
  let path =
    Filename.concat (Filename.get_temp_dir_name ()) "fv-crash-compact.ckpt"
  in
  if Sys.file_exists path then Sys.remove path;
  let module Store = Fastver_kvstore.Store in
  let cold =
    match
      Cold.create
        { Cold.dir = cdir; mac_secret = "crash-secret"; segment_bytes = 512 }
    with
    | Ok c -> c
    | Error e -> Alcotest.failf "Cold.create: %s" e
  in
  let s =
    Store.create ~mutable_region_entries:4 ~cold ~codec:Store.string_codec ()
  in
  let n = 64 in
  for i = 0 to n - 1 do
    Store.put s (k i) (Printf.sprintf "v%06d" i) ~aux:(Int64.of_int i)
  done;
  (match Store.demote_now s ~budget:0 with
  | Ok moved -> Alcotest.(check bool) "demoted" true (moved > 0)
  | Error e -> Alcotest.failf "demote_now: %s" e);
  (* commit point: manifest first, then the store checkpoint of the same
     generation (mirrors Fastver.checkpoint's ordering) *)
  let manifest = Cold.manifest_encode cold in
  Store.checkpoint s ~path ~version:1;
  (* supersede half the demoted records so compaction has work *)
  for i = 0 to (n / 2) - 1 do
    Store.put s (k i) (Printf.sprintf "doomed-%d" i) ~aux:(Int64.of_int i)
  done;
  Cold.arm_fault { Cold.after_appends = 2; torn = true };
  let crashed =
    match Store.compact_cold s ~min_dead_ratio:0.2 with
    | Ok _ | Error _ -> false
    | exception Cold.Injected_crash _ -> true
  in
  Cold.disarm_fault ();
  Alcotest.(check bool) "crashed mid compaction" true crashed;
  Cold.close cold;
  (* restart: recover the tier from the committed manifest (truncating the
     torn rewrite tail), then the store against it *)
  let cold2 =
    match
      Cold.recover
        { Cold.dir = cdir; mac_secret = "crash-secret"; segment_bytes = 512 }
        ~manifest
    with
    | Ok c -> c
    | Error e -> Alcotest.failf "Cold.recover after crash: %s" e
  in
  (match
     Store.recover ~cold:cold2 ~codec:Store.string_codec ~path ()
   with
  | Error e -> Alcotest.failf "Store.recover after crash: %s" e
  | Ok (s2, version) ->
      Alcotest.(check int) "committed version" 1 version;
      for i = 0 to n - 1 do
        match Store.get s2 (k i) with
        | Ok (Some (v, _)) ->
            Alcotest.(check string) "committed prefix only"
              (Printf.sprintf "v%06d" i) v
        | Ok None -> Alcotest.failf "key %d lost to the crash" i
        | Error e -> Alcotest.failf "get %d after crash recovery: %s" i e
      done);
  Cold.close cold2;
  Sys.remove path;
  C.remove_tree cdir

let suite =
  ( "crashsafe",
    [
      Alcotest.test_case "sweep: mid-write cut points" `Quick
        test_sweep_mid_write;
      Alcotest.test_case "sweep: pre-fsync cut points" `Quick
        test_sweep_pre_fsync;
      Alcotest.test_case "sweep: pre-rename cut points" `Quick
        test_sweep_pre_rename;
      Alcotest.test_case "double crash" `Quick test_double_crash;
      Alcotest.test_case "survivor checkpoints again" `Quick
        test_survivor_can_checkpoint_again;
      Alcotest.test_case "mid-epoch checkpoint recovers" `Quick
        test_mid_epoch_checkpoint_recovers;
      Alcotest.test_case "corrupt component files" `Quick
        test_corrupt_components;
      Alcotest.test_case "corrupt manifest" `Quick test_corrupt_manifest;
      Alcotest.test_case "tampering does not roll back" `Quick
        test_tamper_does_not_roll_back;
      Alcotest.test_case "generation number pinned in manifest" `Quick
        test_generation_number_pinned;
      Alcotest.test_case "retention keeps committed fallback" `Quick
        test_retention_keeps_committed_fallback;
      Alcotest.test_case "retention keeps a tampered fallback" `Quick
        test_retention_keeps_tampered_fallback;
      QCheck_alcotest.to_alcotest prop_delta_chain_equivalence;
      QCheck_alcotest.to_alcotest prop_writeback_seals_like_drain;
      Alcotest.test_case "no-checkpoint vs legacy layout" `Quick
        test_no_checkpoint_vs_legacy_layout;
      Alcotest.test_case "version/epoch mismatch" `Quick
        test_version_epoch_mismatch;
      QCheck_alcotest.to_alcotest prop_recover_never_raises;
      Alcotest.test_case "crash mid cold append" `Quick
        test_crash_mid_cold_append;
      Alcotest.test_case "crash mid compaction" `Quick
        test_crash_mid_compaction;
    ] )
