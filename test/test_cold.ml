(* The authenticated cold tier (lib/cold).

   Coverage: append/get round trips across segment rotation; tamper
   detection for every interesting byte region — record value, the
   aux/evict-timestamp word, the key, and the sealed-segment footer —
   surfacing as [`Fail]/[Error], never a wrong value; codec totality under
   QCheck (hostile lengths, truncation, single-byte mutations); the
   GC/retire/stale protocol; concurrent reads from different segments; the
   larger-than-memory path through the full Fastver stack with verification
   on; and misconfiguration totality (cold tier absent). *)

let ckpt t ~dir =
  match Fastver.checkpoint t ~dir with
  | Ok () -> ()
  | Error e -> Alcotest.failf "checkpoint: %s" e

open Fastver_kvstore
module Cold = Fastver_cold.Cold
module Segment = Fastver_cold.Segment

let secret = "test-cold-secret"

let fresh_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  Ckpt_io.remove_tree dir;
  dir

let cold_cfg ?(segment_bytes = 1024) dir =
  { Cold.dir; mac_secret = secret; segment_bytes }

let create_ok cfg =
  match Cold.create cfg with
  | Ok c -> c
  | Error e -> Alcotest.failf "Cold.create: %s" e

let append_ok c ~key ~aux ~value =
  match Cold.append c ~key ~aux ~value with
  | Ok r -> r
  | Error e -> Alcotest.failf "Cold.append: %s" e

let k i = Key.of_int64 (Int64.of_int i)
let seg_path dir id = Filename.concat dir (Printf.sprintf "seg-%08d.cold" id)

let flip_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let b = Bytes.create 1 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  (match Unix.read fd b 0 1 with
  | 1 -> ()
  | _ -> Alcotest.failf "flip_byte: short read at %d in %s" off path);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

let value_of i = Printf.sprintf "cold-value-%06d" i
let aux_of i = Int64.of_int (1_000 + i)

(* ------------------------------------------------------------------ *)
(* Round trips                                                        *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  let dir = fresh_dir "fv-cold-rt" in
  let c = create_ok (cold_cfg dir) in
  let n = 50 in
  let refs =
    Array.init n (fun i ->
        append_ok c ~key:(k i) ~aux:(aux_of i) ~value:(value_of i))
  in
  Cold.flush c;
  Array.iteri
    (fun i r ->
      match Cold.get c ~key:(k i) r with
      | Ok (v, aux) ->
          Alcotest.(check string) "value round trip" (value_of i) v;
          Alcotest.(check int64) "aux round trip" (aux_of i) aux
      | Error (`Fail e) -> Alcotest.failf "get %d: %s" i e
      | Error `Stale -> Alcotest.failf "get %d: stale" i)
    refs;
  Array.iter
    (fun r ->
      match Cold.validate_ref c r with
      | Ok () -> ()
      | Error e -> Alcotest.failf "validate_ref: %s" e)
    refs;
  let st = Cold.stats c in
  Alcotest.(check int) "every append counted" n st.Cold.writes;
  Alcotest.(check int) "every get counted" n st.Cold.reads;
  Alcotest.(check bool) "rotation sealed segments" true (st.Cold.segments > 1);
  Alcotest.(check int) "clean tier" 0 st.Cold.scrub_failures;
  (match Cold.scrub c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "scrub of a clean tier: %s" e);
  Cold.close c

(* A second open on the same directory without a manifest must refuse (the
   segments were never committed) unless told to clear the strays. *)
let test_reopen_requires_manifest () =
  let dir = fresh_dir "fv-cold-reopen" in
  let c = create_ok (cold_cfg dir) in
  ignore (append_ok c ~key:(k 1) ~aux:1L ~value:"v");
  Cold.flush c;
  Cold.close c;
  (match Cold.create (cold_cfg dir) with
  | Ok _ -> Alcotest.fail "create over leftover segments succeeded"
  | Error _ -> ());
  let c2 =
    match Cold.create ~clear_stray:true (cold_cfg dir) with
    | Ok c -> c
    | Error e -> Alcotest.failf "create ~clear_stray: %s" e
  in
  Alcotest.(check int) "strays cleared" 0 (Cold.stats c2).Cold.live_bytes;
  Cold.close c2

(* Manifest round trip: recover truncates the uncommitted tail. *)
let test_recover_truncates_uncommitted () =
  let dir = fresh_dir "fv-cold-trunc" in
  let c = create_ok (cold_cfg dir) in
  let committed =
    Array.init 5 (fun i ->
        append_ok c ~key:(k i) ~aux:(aux_of i) ~value:(value_of i))
  in
  let manifest = Cold.manifest_encode c in
  (* appended after the manifest: uncommitted, must vanish on recover *)
  let stray = append_ok c ~key:(k 99) ~aux:99L ~value:"uncommitted" in
  Cold.close c;
  let c2 =
    match Cold.recover (cold_cfg dir) ~manifest with
    | Ok c -> c
    | Error e -> Alcotest.failf "recover: %s" e
  in
  Array.iteri
    (fun i r ->
      match Cold.get c2 ~key:(k i) r with
      | Ok (v, _) -> Alcotest.(check string) "committed survives" (value_of i) v
      | Error (`Fail e) -> Alcotest.failf "committed get %d: %s" i e
      | Error `Stale -> Alcotest.failf "committed get %d stale" i)
    committed;
  (match Cold.get c2 ~key:(k 99) stray with
  | Ok _ -> Alcotest.fail "uncommitted tail survived recovery"
  | Error _ -> ());
  Cold.close c2

(* ------------------------------------------------------------------ *)
(* Tamper detection (acceptance: body, timestamp, footer)             *)
(* ------------------------------------------------------------------ *)

(* Record layout offsets within a segment file: the record starts at
   [r.off]; key at +0, aux at +34, vlen at +42, value at +46. *)
let mk_tampered_tier name =
  let dir = fresh_dir name in
  let c = create_ok (cold_cfg dir) in
  let refs =
    Array.init 6 (fun i ->
        append_ok c ~key:(k i) ~aux:(aux_of i) ~value:(value_of i))
  in
  Cold.flush c;
  (dir, c, refs)

let expect_fail label = function
  | Error (`Fail _) -> ()
  | Error `Stale -> Alcotest.failf "%s: stale, expected integrity failure" label
  | Ok _ -> Alcotest.failf "%s: tampered read returned Ok" label

let test_tamper_value_body () =
  let dir, c, refs = mk_tampered_tier "fv-cold-tamper-body" in
  let r = refs.(2) in
  flip_byte (seg_path dir r.Cold.seg) (r.Cold.off + 46);
  expect_fail "flipped value byte" (Cold.get c ~key:(k 2) r);
  Alcotest.(check bool) "failure counted" true
    ((Cold.stats c).Cold.scrub_failures > 0);
  (* neighbours are untouched *)
  (match Cold.get c ~key:(k 1) refs.(1) with
  | Ok (v, _) -> Alcotest.(check string) "neighbour intact" (value_of 1) v
  | Error _ -> Alcotest.fail "neighbour read failed");
  Cold.close c

let test_tamper_timestamp () =
  let dir, c, refs = mk_tampered_tier "fv-cold-tamper-aux" in
  let r = refs.(3) in
  (* the aux word (Blum tier bit + evict timestamp) lives at +34 *)
  flip_byte (seg_path dir r.Cold.seg) (r.Cold.off + 34);
  expect_fail "flipped timestamp byte" (Cold.get c ~key:(k 3) r);
  Cold.close c

let test_tamper_key () =
  let dir, c, refs = mk_tampered_tier "fv-cold-tamper-key" in
  let r = refs.(4) in
  flip_byte (seg_path dir r.Cold.seg) (r.Cold.off + 8);
  expect_fail "flipped key byte" (Cold.get c ~key:(k 4) r);
  Cold.close c

let test_tamper_footer () =
  let dir = fresh_dir "fv-cold-tamper-footer" in
  let c = create_ok (cold_cfg ~segment_bytes:256 dir) in
  (* enough appends to seal segment 0 and move on *)
  let refs =
    Array.init 12 (fun i ->
        append_ok c ~key:(k i) ~aux:(aux_of i) ~value:(value_of i))
  in
  Alcotest.(check bool) "segment 0 sealed" true
    (Array.exists (fun r -> r.Cold.seg > 0) refs);
  (match Cold.scrub c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "pre-tamper scrub: %s" e);
  let manifest = Cold.manifest_encode c in
  (* flip a byte inside the sealed footer (last [footer_len] bytes) *)
  let p0 = seg_path dir 0 in
  let size = (Unix.stat p0).Unix.st_size in
  flip_byte p0 (size - Segment.footer_len + 20);
  (match Cold.scrub c with
  | Ok () -> Alcotest.fail "scrub accepted a tampered footer"
  | Error _ -> ());
  Alcotest.(check bool) "footer failure counted" true
    ((Cold.stats c).Cold.scrub_failures > 0);
  Cold.close c;
  (* recovery must reject the tampered footer, too *)
  (match Cold.recover (cold_cfg ~segment_bytes:256 dir) ~manifest with
  | Ok _ -> Alcotest.fail "recover accepted a tampered footer"
  | Error _ -> ())

(* ------------------------------------------------------------------ *)
(* Codec totality (QCheck)                                            *)
(* ------------------------------------------------------------------ *)

let prop_decode_record_total =
  QCheck.Test.make ~name:"Segment.decode_record total on random bytes"
    ~count:400
    QCheck.(string_of_size Gen.(int_bound 300))
    (fun s ->
      match Segment.decode_record ~mac_key:(Fastver_crypto.Hmac.key secret) s with
      | Ok _ | Error _ -> true
      | exception _ -> false)

let prop_decode_footer_total =
  QCheck.Test.make ~name:"Segment.decode_footer total on random bytes"
    ~count:400
    QCheck.(string_of_size Gen.(int_bound 150))
    (fun s ->
      match Segment.decode_footer ~mac_key:(Fastver_crypto.Hmac.key secret) s with
      | Ok _ | Error _ -> true
      | exception _ -> false)

let prop_record_flip_detected =
  QCheck.Test.make ~name:"one flipped byte in a record is an Error"
    ~count:300
    QCheck.(triple (string_of_size Gen.(int_bound 64)) small_nat small_nat)
    (fun (value, pos, x) ->
      let enc =
        Segment.encode_record ~mac_key:(Fastver_crypto.Hmac.key secret) ~key:(k 42)
          ~aux:0x7777_0042L ~value
      in
      let i = pos mod String.length enc in
      let b = Bytes.of_string enc in
      Bytes.set b i
        (Char.chr (Char.code (Bytes.get b i) lxor (1 + (x mod 255))));
      match Segment.decode_record ~mac_key:(Fastver_crypto.Hmac.key secret) (Bytes.to_string b) with
      | Error _ -> true
      | Ok _ -> false
      | exception _ -> false)

let prop_footer_flip_detected =
  QCheck.Test.make ~name:"one flipped byte in a footer is an Error"
    ~count:300
    QCheck.(pair small_nat small_nat)
    (fun (pos, x) ->
      let enc =
        Segment.encode_footer ~mac_key:(Fastver_crypto.Hmac.key secret) ~n_records:7L ~data_len:900L
          ~summary:(String.init 16 (fun i -> Char.chr (i * 5)))
      in
      let i = pos mod String.length enc in
      let b = Bytes.of_string enc in
      Bytes.set b i
        (Char.chr (Char.code (Bytes.get b i) lxor (1 + (x mod 255))));
      match Segment.decode_footer ~mac_key:(Fastver_crypto.Hmac.key secret) (Bytes.to_string b) with
      | Error _ -> true
      | Ok _ -> false
      | exception _ -> false)

(* Every strict prefix of a valid record or footer is an [Error]. *)
let test_codec_truncation () =
  let rec_enc =
    Segment.encode_record ~mac_key:(Fastver_crypto.Hmac.key secret) ~key:(k 7) ~aux:9L
      ~value:"truncate-me"
  in
  for l = 0 to String.length rec_enc - 1 do
    match Segment.decode_record ~mac_key:(Fastver_crypto.Hmac.key secret) (String.sub rec_enc 0 l) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "record prefix of %d bytes decoded" l
    | exception e ->
        Alcotest.failf "record prefix of %d bytes raised %s" l
          (Printexc.to_string e)
  done;
  let f_enc =
    Segment.encode_footer ~mac_key:(Fastver_crypto.Hmac.key secret) ~n_records:1L ~data_len:100L
      ~summary:(String.make 16 '\x01')
  in
  for l = 0 to String.length f_enc - 1 do
    match Segment.decode_footer ~mac_key:(Fastver_crypto.Hmac.key secret) (String.sub f_enc 0 l) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "footer prefix of %d bytes decoded" l
    | exception e ->
        Alcotest.failf "footer prefix of %d bytes raised %s" l
          (Printexc.to_string e)
  done

(* Hostile references: get/validate_ref are total on any (seg, off, len). *)
let prop_hostile_refs_total =
  QCheck.Test.make ~name:"Cold.get total on hostile references" ~count:200
    QCheck.(triple small_nat int int)
    (fun (seg, off, len) ->
      let dir = fresh_dir "fv-cold-hostile" in
      let c = create_ok (cold_cfg dir) in
      ignore (append_ok c ~key:(k 0) ~aux:0L ~value:"x");
      let r = { Cold.seg; off; len } in
      let ok =
        (match Cold.get c ~key:(k 0) r with
         | Ok _ | Error (`Fail _) | Error `Stale -> true
         | exception _ -> false)
        &&
        match Cold.validate_ref c r with
        | Ok _ | Error _ -> true
        | exception _ -> false
      in
      Cold.close c;
      ok)

(* ------------------------------------------------------------------ *)
(* GC / retirement / stale protocol                                   *)
(* ------------------------------------------------------------------ *)

let test_gc_retire_stale () =
  let dir = fresh_dir "fv-cold-gc" in
  let c = create_ok (cold_cfg ~segment_bytes:512 dir) in
  let refs =
    Array.init 30 (fun i ->
        append_ok c ~key:(k i) ~aux:(aux_of i) ~value:(value_of i))
  in
  Alcotest.(check bool) "several segments" true
    ((Cold.stats c).Cold.segments > 2);
  (* everything in segment 0 dies *)
  let seg0 = Array.to_list refs |> List.filter (fun r -> r.Cold.seg = 0) in
  List.iter (Cold.note_dead c) seg0;
  Alcotest.(check bool) "dead bytes accounted" true
    ((Cold.stats c).Cold.dead_bytes > 0);
  let cands = Cold.gc_candidates c ~min_dead_ratio:0.9 in
  Alcotest.(check bool) "fully-dead segment is a candidate" true
    (List.mem 0 cands);
  Alcotest.(check bool) "fully-live segments are not candidates" true
    (List.for_all (fun id -> id = 0) cands);
  Cold.retire_segments c [ 0 ];
  (* no checkpoint ever committed: the file goes away immediately and the
     old reference turns stale, not wrong *)
  Alcotest.(check bool) "segment file unlinked" false
    (Sys.file_exists (seg_path dir 0));
  (match Cold.get c ~key:(k 0) (List.hd seg0) with
  | Error `Stale -> ()
  | Ok _ -> Alcotest.fail "retired segment still served a read"
  | Error (`Fail e) -> Alcotest.failf "expected stale, got failure: %s" e);
  (* records in other segments are unaffected *)
  Array.iteri
    (fun i r ->
      if r.Cold.seg <> 0 then
        match Cold.get c ~key:(k i) r with
        | Ok (v, _) -> Alcotest.(check string) "survivor intact" (value_of i) v
        | Error _ -> Alcotest.failf "survivor read %d failed" i)
    refs;
  Cold.close c

(* Store-level compaction: overwriting demoted records leaves dead bytes;
   compact_cold rewrites the live ones and retires the carcasses; every
   value still reads back authenticated. *)
let test_store_compaction () =
  let dir = fresh_dir "fv-cold-compact" in
  let c = create_ok (cold_cfg ~segment_bytes:512 dir) in
  let s =
    Store.create ~mutable_region_entries:4 ~cold:c ~codec:Store.string_codec ()
  in
  for i = 0 to 63 do
    Store.put s (k i) (value_of i) ~aux:(aux_of i)
  done;
  (match Store.demote_now s ~budget:0 with
  | Ok n -> Alcotest.(check bool) "records demoted" true (n > 0)
  | Error e -> Alcotest.failf "demote_now: %s" e);
  (* supersede half the demoted records: their cold bytes are now dead *)
  for i = 0 to 31 do
    Store.put s (k i) ("fresh-" ^ value_of i) ~aux:(aux_of i)
  done;
  Alcotest.(check bool) "supersession left dead bytes" true
    ((Cold.stats c).Cold.dead_bytes > 0);
  (match Store.compact_cold s ~min_dead_ratio:0.3 with
  | Ok n -> Alcotest.(check bool) "compaction rewrote live records" true (n > 0)
  | Error e -> Alcotest.failf "compact_cold: %s" e);
  Alcotest.(check bool) "rewrites counted" true
    ((Cold.stats c).Cold.gc_rewrites > 0);
  for i = 0 to 63 do
    let expect = if i <= 31 then "fresh-" ^ value_of i else value_of i in
    match Store.get s (k i) with
    | Ok (Some (v, _)) ->
        Alcotest.(check string) "value survives compaction" expect v
    | Ok None -> Alcotest.failf "key %d lost by compaction" i
    | Error e -> Alcotest.failf "get %d after compaction: %s" i e
  done

(* ------------------------------------------------------------------ *)
(* Concurrency: reads from different segments do not contend           *)
(* ------------------------------------------------------------------ *)

let test_concurrent_segment_reads () =
  let dir = fresh_dir "fv-cold-conc" in
  let c = create_ok (cold_cfg ~segment_bytes:512 dir) in
  let n = 40 in
  let refs =
    Array.init n (fun i ->
        append_ok c ~key:(k i) ~aux:(aux_of i) ~value:(value_of i))
  in
  Cold.flush c;
  let fails = Atomic.make 0 in
  let reader lo hi =
    Domain.spawn (fun () ->
        for _round = 1 to 100 do
          for i = lo to hi do
            match Cold.get c ~key:(k i) refs.(i) with
            | Ok (v, aux)
              when String.equal v (value_of i) && Int64.equal aux (aux_of i)
              ->
                ()
            | _ -> Atomic.incr fails
          done
        done)
  in
  let d1 = reader 0 ((n / 2) - 1) and d2 = reader (n / 2) (n - 1) in
  Domain.join d1;
  Domain.join d2;
  Alcotest.(check int) "all concurrent reads authenticated" 0
    (Atomic.get fails);
  Cold.close c

(* ------------------------------------------------------------------ *)
(* Misconfiguration is a total Error, never an exception              *)
(* ------------------------------------------------------------------ *)

let test_cold_refs_need_tier () =
  let cdir = fresh_dir "fv-cold-misconf-tier" in
  let path =
    Filename.concat (Filename.get_temp_dir_name ()) "fv-cold-misconf.ckpt"
  in
  if Sys.file_exists path then Sys.remove path;
  let c = create_ok (cold_cfg cdir) in
  let s =
    Store.create ~mutable_region_entries:4 ~cold:c ~codec:Store.string_codec ()
  in
  for i = 0 to 31 do
    Store.put s (k i) (value_of i) ~aux:(aux_of i)
  done;
  (match Store.demote_now s ~budget:0 with
  | Ok n -> Alcotest.(check bool) "demoted before checkpoint" true (n > 0)
  | Error e -> Alcotest.failf "demote_now: %s" e);
  Store.checkpoint s ~path ~version:1;
  (* recovering a checkpoint full of cold references without a cold tier
     must be a total configuration error *)
  (match Store.recover ~codec:Store.string_codec ~path () with
  | Ok _ -> Alcotest.fail "cold references recovered without a cold tier"
  | Error _ -> ()
  | exception e ->
      Alcotest.failf "recover raised instead of Error: %s"
        (Printexc.to_string e));
  Sys.remove path;
  Cold.close c

let test_demote_without_tier_is_noop () =
  let s = Store.create ~codec:Store.string_codec () in
  Store.put s (k 1) "x" ~aux:0L;
  match Store.demote_now s ~budget:0 with
  | Ok 0 -> ()
  | Ok n -> Alcotest.failf "demoted %d records with no cold tier" n
  | Error e -> Alcotest.failf "demote_now without tier: %s" e

(* ------------------------------------------------------------------ *)
(* Metrics surface                                                    *)
(* ------------------------------------------------------------------ *)

let cold_metric_names =
  [
    "fastver_cold_segments";
    "fastver_cold_dead_segments";
    "fastver_cold_live_bytes";
    "fastver_cold_dead_bytes";
    "fastver_cold_reads_total";
    "fastver_cold_writes_total";
    "fastver_cold_gc_rewrites_total";
    "fastver_cold_scrub_failures_total";
    "fastver_cold_read_wait_seconds";
  ]

(* The documented names must be present even with the tier disabled, so the
   check.sh metrics leg (and any dashboard) never sees a hole. *)
let test_metrics_always_registered () =
  let reg = Fastver_obs.Registry.create () in
  Cold.wire_metrics None reg;
  let names =
    List.map (fun (n, _, _) -> n) (Fastver_obs.Registry.dump reg)
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) ("registered with tier off: " ^ n) true
        (List.mem n names))
    cold_metric_names

let test_metrics_live_values () =
  let dir = fresh_dir "fv-cold-metrics" in
  let c = create_ok (cold_cfg dir) in
  let reg = Fastver_obs.Registry.create () in
  Cold.wire_metrics (Some c) reg;
  let r = append_ok c ~key:(k 1) ~aux:1L ~value:"metric" in
  (match Cold.get c ~key:(k 1) r with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "get for metrics");
  let find name =
    List.find_map
      (fun (n, _, v) -> if String.equal n name then Some v else None)
      (Fastver_obs.Registry.dump reg)
  in
  (match find "fastver_cold_writes_total" with
  | Some (Fastver_obs.Registry.Counter_v n) ->
      Alcotest.(check int) "writes metric tracks appends" 1 n
  | _ -> Alcotest.fail "writes metric missing or mistyped");
  (match find "fastver_cold_reads_total" with
  | Some (Fastver_obs.Registry.Counter_v n) ->
      Alcotest.(check int) "reads metric tracks gets" 1 n
  | _ -> Alcotest.fail "reads metric missing or mistyped");
  Cold.close c

(* ------------------------------------------------------------------ *)
(* Larger than memory, end to end through the stack                   *)
(* ------------------------------------------------------------------ *)

let fv_config cdir =
  {
    Fastver.Config.default with
    n_workers = 2;
    batch_size = 0;
    frontier_levels = 4;
    cost_model = Cost_model.zero;
    cold_dir = Some cdir;
    cold_threshold = 32;
    cold_segment_bytes = 2048;
    cold_gc_ratio = 0.4;
  }

let test_larger_than_memory () =
  let cdir = fresh_dir "fv-cold-e2e-tier" in
  let dir = fresh_dir "fv-cold-e2e-ckpt" in
  let config = fv_config cdir in
  let t = Fastver.create ~config () in
  (* 8x the cold threshold: most of the dataset must live on disk *)
  let n = 8 * config.cold_threshold in
  Fastver.load t (Array.init n (fun i -> (Int64.of_int i, value_of i)));
  ignore (Fastver.verify t);
  let cs =
    match Fastver.cold_stats t with
    | Some cs -> cs
    | None -> Alcotest.fail "cold tier not attached"
  in
  Alcotest.(check bool) "bulk of the dataset demoted" true
    (cs.Cold.writes >= n / 2);
  Alcotest.(check bool) "rotation produced segments" true (cs.Cold.segments > 1);
  (* every record reads back through the authenticated cold path *)
  for i = 0 to n - 1 do
    Alcotest.(check (option string)) "value survives demotion"
      (Some (value_of i))
      (Fastver.get t (Int64.of_int i))
  done;
  let cs = Option.get (Fastver.cold_stats t) in
  Alcotest.(check bool) "reads served from cold" true (cs.Cold.reads > 0);
  Alcotest.(check int) "no integrity failures" 0 cs.Cold.scrub_failures;
  (* records read from cold stay there, Merkle-protected *)
  ignore (Fastver.verify t);
  (* checkpoint/recover round trip carries the cold manifest *)
  ckpt t ~dir;
  (match Fastver.recover ~config ~dir () with
  | Error e -> Alcotest.failf "recover with cold tier: %s" e
  | Ok t2 ->
      for i = 0 to n - 1 do
        Alcotest.(check (option string)) "value survives recovery"
          (Some (value_of i))
          (Fastver.get t2 (Int64.of_int i))
      done;
      ignore (Fastver.verify t2);
      (* keep serving: overwrites supersede cold records, maintenance
         (demotion + GC) runs behind the next scans, reads stay honest *)
      for i = 0 to (n / 2) - 1 do
        Fastver.put t2 (Int64.of_int i) ("fresh-" ^ value_of i)
      done;
      ignore (Fastver.verify t2);
      ignore (Fastver.verify t2);
      for i = 0 to n - 1 do
        let expect =
          if i < n / 2 then "fresh-" ^ value_of i else value_of i
        in
        Alcotest.(check (option string)) "value after churn" (Some expect)
          (Fastver.get t2 (Int64.of_int i))
      done;
      let cs2 = Option.get (Fastver.cold_stats t2) in
      Alcotest.(check int) "still no integrity failures" 0
        cs2.Cold.scrub_failures);
  Ckpt_io.remove_tree dir;
  Ckpt_io.remove_tree cdir

(* A get of a cold-resident record reads its body from disk once, and
   leaves it there: a second get reads it from the cold tier again. *)
let test_cold_get_reads_once () =
  let cdir = fresh_dir "fv-cold-get-once" in
  let config = fv_config cdir in
  let t = Fastver.create ~config () in
  let n = 8 * config.cold_threshold in
  Fastver.load t (Array.init n (fun i -> (Int64.of_int i, value_of i)));
  ignore (Fastver.verify t);
  let reads () = (Option.get (Fastver.cold_stats t)).Cold.reads in
  for pass = 1 to 2 do
    let r0 = reads () in
    Alcotest.(check (option string)) "value" (Some (value_of 0))
      (Fastver.get t 0L);
    Alcotest.(check int) (Printf.sprintf "get %d: one cold read" pass) 1
      (reads () - r0)
  done;
  ignore (Fastver.verify t);
  Fastver.close_cold t;
  Ckpt_io.remove_tree cdir

let suite =
  ( "cold",
    [
      Alcotest.test_case "append/get round trip" `Quick test_roundtrip;
      Alcotest.test_case "reopen requires manifest" `Quick
        test_reopen_requires_manifest;
      Alcotest.test_case "recover truncates uncommitted tail" `Quick
        test_recover_truncates_uncommitted;
      Alcotest.test_case "tamper: record value body" `Quick
        test_tamper_value_body;
      Alcotest.test_case "tamper: evict timestamp" `Quick test_tamper_timestamp;
      Alcotest.test_case "tamper: record key" `Quick test_tamper_key;
      Alcotest.test_case "tamper: sealed footer" `Quick test_tamper_footer;
      Alcotest.test_case "codec: truncation" `Quick test_codec_truncation;
      QCheck_alcotest.to_alcotest prop_decode_record_total;
      QCheck_alcotest.to_alcotest prop_decode_footer_total;
      QCheck_alcotest.to_alcotest prop_record_flip_detected;
      QCheck_alcotest.to_alcotest prop_footer_flip_detected;
      QCheck_alcotest.to_alcotest prop_hostile_refs_total;
      Alcotest.test_case "gc: retire and stale refs" `Quick test_gc_retire_stale;
      Alcotest.test_case "gc: store compaction" `Quick test_store_compaction;
      Alcotest.test_case "concurrent segment reads" `Quick
        test_concurrent_segment_reads;
      Alcotest.test_case "cold refs need a tier" `Quick test_cold_refs_need_tier;
      Alcotest.test_case "demote without tier is a no-op" `Quick
        test_demote_without_tier_is_noop;
      Alcotest.test_case "metrics registered with tier off" `Quick
        test_metrics_always_registered;
      Alcotest.test_case "metrics track live tier" `Quick
        test_metrics_live_values;
      Alcotest.test_case "larger than memory end to end" `Quick
        test_larger_than_memory;
      Alcotest.test_case "cold get reads once" `Quick test_cold_get_reads_once;
    ] )
