open Fastver_verifier
open Fastver_kvstore
open State
open Gateway
open Tiers

(* ------------------------------------------------------------------ *)
(* Durability (§7)                                                     *)
(* ------------------------------------------------------------------ *)

let data_file = "data.ckpt"
let sealed_file = "verifier.sealed"
let tpm_file = "tpm.state"

(* One merkle image per shard: untrusted files; tampering surfaces as
   verification failures after recovery. *)
let shard_tree_file sid = Printf.sprintf "merkle-%d.tree" sid

(* Present only when a cold tier is configured; checksummed by the MANIFEST
   like every other component. Written after the data checkpoint so every
   cold reference the data file holds points at a segment the manifest
   commits. *)
let cold_manifest_file = "cold.manifest"

(* Checkpoints are versioned generations [dir/ckpt-<n>/] holding the
   component files plus a MANIFEST with the SHA-256 of each. Every file —
   the manifest included — is written temp-file + fsync + rename
   ({!Ckpt_io}), and the manifest is written last, so the manifest's
   presence-and-validity is the generation's commit point: a crash at any
   byte offset leaves either a committed generation (old or new) or a torn
   one that recovery can recognise and discard.

   The shard count lives in the sealed payload, so the static component
   check below names only the shard-count-independent files; the per-shard
   tree files are still checksummed by the manifest (its [verify] covers
   every entry), and a missing one surfaces as a read failure during
   recovery of a generation whose manifest vouches for it — Tampered by
   construction. *)
let static_component_files = [ data_file; sealed_file; tpm_file ]

(* A generation commits only when its manifest lists every component file,
   records the directory's own generation number, and every checksum
   verifies. The two failure modes are not interchangeable:

   [Torn] — no manifest, or one that doesn't parse. Components are fsync'd
   and renamed before the manifest commits, so this is what a crash leaves
   behind; the generation never happened and is safe to delete and skip.

   [Tampered] — a well-formed manifest whose claims don't hold: a checksum
   or size mismatch, a missing component entry, or a generation number that
   disagrees with the [ckpt-<n>] directory name. No crash can produce this
   (the manifest only ever commits over fully-synced components), so it
   implies tampering or corruption and must be surfaced, never silently
   skipped — deleting it and falling back would hand an adversary a
   one-bit-flip rollback primitive and destroy the evidence. *)
type generation_status = Committed | Torn of string | Tampered of string

let classify_generation ~number gdir =
  match Ckpt_io.Manifest.read ~dir:gdir with
  | Error e -> Torn e
  | Ok m ->
      if m.Ckpt_io.Manifest.generation <> number then
        Tampered
          (Printf.sprintf "manifest records generation %d"
             m.Ckpt_io.Manifest.generation)
      else if
        not
          (List.for_all
             (fun name ->
               List.exists
                 (fun e -> e.Ckpt_io.Manifest.name = name)
                 m.Ckpt_io.Manifest.entries)
             static_component_files)
      then Tampered "manifest missing a component file"
      else
        match Ckpt_io.Manifest.verify ~dir:gdir m with
        | Ok () -> Committed
        | Error e -> Tampered e

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Internal: aborts a checkpoint attempt with an [Error], leaving the new
   generation uncommitted (no manifest was written, so recovery classifies
   the directory as torn and the previous generation stays authoritative). *)
exception Ckpt_error of string

let mstate_encode buf st ~is_root =
  match st with
  | M_merkle -> Buffer.add_char buf 'm'
  | M_blum ts ->
      Buffer.add_char buf 'b';
      Buffer.add_string buf (Timestamp.encode ts)
  | M_cached _ when is_root -> Buffer.add_char buf 'm' (* re-pinned on recover *)
  | M_cached _ -> raise (Ckpt_error "checkpoint: record still cached")

(* Sealed-payload layout (version 2, sharded):
     u64  nonce_blob length
     ...  nonce blob (16 bytes per client: u64 client, u64 last nonce)
     8    magic "FVSHARD1"
     u64  shard count
     ...  (shards - 1) range boundaries, 34 bytes each (Key.encode)
     per shard: u64 summary length, then the shard verifier's summary
   The boundaries and shard count ride the *sealed* (trusted,
   rollback-protected) payload because routing is integrity-critical: a
   host free to re-aim routing could ask the wrong shard for an absence
   proof of a key the right shard holds. *)
let shard_magic = "FVSHARD1"

let encode_sealed_payload t ~summaries =
  let nonce_blob =
    let buf = Buffer.create 64 in
    Hashtbl.iter
      (fun client nonce ->
        Buffer.add_string buf
          (Fastver_crypto.Bytes_util.string_of_u64_le (Int64.of_int client));
        Buffer.add_string buf (Fastver_crypto.Bytes_util.string_of_u64_le nonce))
      t.nonces;
    Buffer.contents buf
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Fastver_crypto.Bytes_util.string_of_u64_le
       (Int64.of_int (String.length nonce_blob)));
  Buffer.add_string buf nonce_blob;
  Buffer.add_string buf shard_magic;
  Buffer.add_string buf
    (Fastver_crypto.Bytes_util.string_of_u64_le
       (Int64.of_int (Array.length t.shards)));
  Array.iter (fun b -> Buffer.add_string buf (Key.encode b)) t.boundaries;
  Array.iter
    (fun summary ->
      Buffer.add_string buf
        (Fastver_crypto.Bytes_util.string_of_u64_le
           (Int64.of_int (String.length summary)));
      Buffer.add_string buf summary)
    summaries;
  Buffer.contents buf

(* Total parser for the sealed payload: hostile bytes yield [Error], never
   an exception (the slot's MAC already vouched for it, but recovery's
   contract is that no decoder raises on corrupt input). *)
let parse_sealed_payload payload =
  let exception Corrupt of string in
  let fail fmt = Printf.ksprintf (fun e -> raise (Corrupt e)) fmt in
  let pos = ref 0 and n = String.length payload in
  let need k = if k < 0 || !pos + k > n then fail "sealed payload truncated" in
  let u64 () =
    need 8;
    let v = Fastver_crypto.Bytes_util.get_u64_le payload !pos in
    pos := !pos + 8;
    v
  in
  let str k =
    need k;
    let s = String.sub payload !pos k in
    pos := !pos + k;
    s
  in
  try
    let nonce_len = Int64.to_int (u64 ()) in
    let nonce_blob = str nonce_len in
    if String.length nonce_blob mod 16 <> 0 then
      fail "sealed payload: ragged nonce table";
    let nonces = Hashtbl.create 8 in
    let rec entries off =
      if off < String.length nonce_blob then begin
        Hashtbl.replace nonces
          (Int64.to_int (Fastver_crypto.Bytes_util.get_u64_le nonce_blob off))
          (Fastver_crypto.Bytes_util.get_u64_le nonce_blob (off + 8));
        entries (off + 16)
      end
    in
    entries 0;
    let magic = str (String.length shard_magic) in
    if magic <> shard_magic then
      fail
        "unsupported pre-sharding sealed payload; re-checkpoint with this \
         release";
    let n_shards = Int64.to_int (u64 ()) in
    if n_shards < 1 || n_shards > 65536 then
      fail "sealed payload: implausible shard count %d" n_shards;
    let boundaries =
      Array.init (n_shards - 1) (fun _ ->
          let kenc = str 34 in
          let depth = String.get_uint16_le kenc 0 in
          if depth > Key.max_depth then fail "sealed payload: bad boundary key";
          let p = Key.of_bytes32 (String.sub kenc 2 32) in
          if depth = Key.max_depth then p else Key.prefix p depth)
    in
    let summaries =
      Array.init n_shards (fun _ -> str (Int64.to_int (u64 ())))
    in
    if !pos <> n then fail "sealed payload: trailing bytes";
    Ok (nonces, boundaries, summaries)
  with Corrupt e -> Error e

let checkpoint t ~dir =
  check_loaded t;
  let ck0 = now () in
  match
    (if not (Sys.file_exists dir) then Sys.mkdir dir 0o755);
    (* Serialize against verification scans: a checkpoint taken mid-scan
       would capture half-migrated protection state and lose the scan's
       sealed snapshot (which lives only in the scan's arrays). Taken before
       any world lock — the same order the scans use. *)
    with_lock t.verify_mutex
    @@ fun () ->
    (* Stop the world: snapshotting the store and tries while other domains
       mutate them would tear the images (and race Hashtbl internals). *)
    lock_world t;
    Fun.protect ~finally:(fun () -> unlock_world t)
    @@ fun () ->
    Array.iter (flush_worker t) t.shards;
    (* Scans leave the working set cached; the sealed summaries require
       empty caches and the tree images cannot encode cached records, so
       evict them all (children first) into the live epoch. *)
    Array.iter
      (fun sh ->
        Enclave.call t.enclave (fun () ->
            drain_cache t sh ~epoch_floor:(Atomic.get t.live_epoch)))
      t.shards;
    let summaries =
      Array.map
        (fun sh ->
          Enclave.call t.enclave (fun () ->
              ok (Verifier.checkpoint_summary sh.verifier)))
        t.shards
    in
    (* The gateway's anti-replay nonce table is trusted state too: without it
       a recovered system would accept replays of pre-crash puts. It is
       sealed alongside the shard summaries and routing boundaries. *)
    Enclave.Sealed_slot.store t.sealed (encode_sealed_payload t ~summaries);
    (* A fresh generation directory: higher than anything on disk, committed
       or torn. Its files all land inside it, so a crash mid-checkpoint can
       never touch a previous generation. *)
    let generation =
      match Ckpt_io.generations dir with (g, _) :: _ -> g + 1 | [] -> 0
    in
    let gdir = Filename.concat dir (Ckpt_io.generation_dir_name generation) in
    Ckpt_io.remove_tree gdir;
    Sys.mkdir gdir 0o755;
    Ckpt_io.write_file_atomic (Filename.concat gdir sealed_file)
      (Enclave.Sealed_slot.external_blob t.sealed);
    (* Simulated TPM NVRAM: hardware state that survives restarts. *)
    Ckpt_io.write_file_atomic (Filename.concat gdir tpm_file)
      (Fastver_crypto.Bytes_util.to_hex (Enclave.Sealed_slot.hw_key t.sealed)
      ^ "\n"
      ^ Int64.to_string (Enclave.Sealed_slot.counter t.sealed));
    Store.checkpoint t.store
      ~path:(Filename.concat gdir data_file)
      ~version:(verified_epoch t);
    (* Cold tier: the segment files themselves stay in [cold_dir] (they are
       append-only and immutable once sealed); the generation records only
       the manifest naming the committed prefix of each. [manifest_encode]
       fsyncs the active segment first, so every record the data checkpoint
       references is durable before the manifest that vouches for it. Under
       [cold_lock] so a racing maintenance pass's segment rotation is never
       interleaved with the encoding. *)
    (match t.cold with
    | None -> ()
    | Some c ->
        let encoded = with_cold_lock t (fun () -> Store.Cold.manifest_encode c) in
        Ckpt_io.write_file_atomic
          (Filename.concat gdir cold_manifest_file)
          encoded);
    (* Per-shard merkle images. *)
    Array.iter
      (fun sh ->
        let buf = Buffer.create 4096 in
        Tree.iter sh.tree (fun k entry ->
            Buffer.add_string buf (Key.encode k);
            let venc = Value.encode entry.value in
            let b4 = Bytes.create 4 in
            Bytes.set_int32_le b4 0 (Int32.of_int (String.length venc));
            Buffer.add_bytes buf b4;
            Buffer.add_string buf venc;
            mstate_encode buf entry.aux.mstate
              ~is_root:(Key.equal k Key.root);
            Bytes.set_int32_le b4 0 (Int32.of_int entry.aux.owner);
            Buffer.add_bytes buf b4);
        Ckpt_io.write_file_atomic
          (Filename.concat gdir (shard_tree_file sh.sid))
          (Buffer.contents buf))
      t.shards;
    (* Commit point: the manifest, checksumming every component, goes last. *)
    let components =
      static_component_files
      @ List.init (Array.length t.shards) shard_tree_file
      @ (match t.cold with None -> [] | Some _ -> [ cold_manifest_file ])
    in
    let entries =
      List.map
        (fun name ->
          match Ckpt_io.Manifest.entry_of_file ~dir:gdir name with
          | Ok e -> e
          | Error e -> raise (Ckpt_error ("checkpoint: " ^ name ^ ": " ^ e)))
        components
    in
    Ckpt_io.Manifest.write ~dir:gdir { generation; entries };
    Ckpt_io.fsync_dir dir;
    (* Retention: keep this generation plus its newest *committed*
       predecessor (the fallback for a crash during the *next* checkpoint);
       prune everything else. The fallback is chosen by commit status, not by
       number: a checkpoint attempt that failed non-fatally (disk full, say,
       with the process still serving) leaves a torn directory in the numeric
       predecessor slot, and keeping that instead of the last good generation
       would leave no usable fallback at all. *)
    let older =
      List.filter (fun (g, _) -> g < generation) (Ckpt_io.generations dir)
    in
    let fallback =
      List.find_opt
        (fun (g, path) -> classify_generation ~number:g path = Committed)
        older
    in
    List.iter
      (fun (g, path) ->
        match fallback with
        | Some (fg, _) when g = fg -> ()
        | Some _ | None -> Ckpt_io.remove_tree path)
      older;
    (* Only now — after the new generation committed and old ones were
       pruned — may segments retired two checkpoints ago be unlinked: no
       retained manifest can still name them. *)
    (match t.cold with
    | None -> ()
    | Some c -> with_cold_lock t (fun () -> Store.Cold.note_checkpoint c))
  with
  | () ->
      Metrics.checkpoint_write t.metrics (now () -. ck0);
      Ok ()
  | exception Ckpt_error e -> Error e
  | exception Sys_error e -> Error ("checkpoint: " ^ e)
  | exception Failure e -> Error ("checkpoint: " ^ e)

(* Total parser for one shard's merkle image: every malformed-input path is
   an [Error] — truncation, a data key where an internal node belongs, a
   negative length, an unknown protection tag. The enclosing generation was
   already classified Committed, so any of these means the manifest was
   forged around tampered bytes; the caller treats the generation as
   tampered and refuses to fall back. *)
let parse_tree_file ~sid raw =
  let exception Corrupt of string in
  let fail fmt = Printf.ksprintf (fun e -> raise (Corrupt e)) fmt in
  let tree = Tree.create ~root_aux:{ mstate = M_cached sid; owner = -1 } in
  let pos = ref 0 and n = String.length raw in
  let need k = if k < 0 || !pos + k > n then fail "tree file truncated" in
  try
    while !pos < n do
      need 34;
      let kenc = String.sub raw !pos 34 in
      let depth = String.get_uint16_le kenc 0 in
      if depth >= Key.max_depth then fail "data key in tree file";
      let key = Key.prefix (Key.of_bytes32 (String.sub kenc 2 32)) depth in
      pos := !pos + 34;
      need 4;
      let vlen = Int32.to_int (String.get_int32_le raw !pos) in
      pos := !pos + 4;
      need vlen;
      let value =
        match Value.decode (String.sub raw !pos vlen) with
        | Ok v -> v
        | Error e -> fail "%s" e
      in
      pos := !pos + vlen;
      need 1;
      let mstate =
        match raw.[!pos] with
        | 'm' ->
            incr pos;
            M_merkle
        | 'b' ->
            need 9;
            let ts = String.get_int64_le raw (!pos + 1) in
            pos := !pos + 9;
            M_blum ts
        | c -> fail "bad mstate tag 0x%02x" (Char.code c)
      in
      need 4;
      let owner = Int32.to_int (String.get_int32_le raw !pos) in
      pos := !pos + 4;
      if Key.equal key Key.root then begin
        let e = Tree.get_exn tree Key.root in
        e.value <- value;
        e.aux <- { mstate = M_cached sid; owner }
      end
      else Tree.set tree key value ~aux:{ mstate; owner }
    done;
    (* Structural consistency: every pointer must target either a data key
       (whose record lives in the store) or an internal record present in
       this file, strictly inside its pointing record's subtree. No honest
       checkpoint writes anything else, and a dangling or upward pointer
       would crash or loop tree descent after recovery instead of
       surfacing as the tampering it is. *)
    Tree.iter tree (fun k e ->
        match e.value with
        | Value.Data _ -> fail "data value under merkle key in tree file"
        | Value.Node node ->
            List.iter
              (function
                | None -> ()
                | Some (p : Value.ptr) ->
                    if not (Key.is_proper_ancestor k p.key) then
                      fail "pointer outside its subtree in tree file";
                    if not (Key.is_data_key p.key) then (
                      match Tree.find tree p.key with
                      | Some { value = Value.Node _; _ } -> ()
                      | Some _ | None ->
                          fail "dangling pointer in tree file"))
              [ node.left; node.right ]);
    Ok tree
  with Corrupt e -> Error e

(* Rebuild a system from one committed generation directory. Total: every
   decoder failure is an [Error]; nothing here may raise on corrupt input.
   The shard count and routing boundaries are adopted from the sealed
   payload — the configuration's [n_shards] only governs fresh systems. *)
let recover_generation ?(config = Config.default) ~gdir () =
  let ( let* ) = Result.bind in
  let* tpm =
    try Ok (read_file (Filename.concat gdir tpm_file))
    with Sys_error e | Failure e -> Error e
  in
  let* hw_key, counter =
    match String.split_on_char '\n' tpm with
    | [ k; c ] -> (
        try Ok (Fastver_crypto.Bytes_util.of_hex k, Int64.of_string c)
        with _ -> Error "corrupt tpm state")
    | _ -> Error "corrupt tpm state"
  in
  let sealed = Enclave.Sealed_slot.create_with ~hw_key ~counter in
  let* blob =
    try Ok (read_file (Filename.concat gdir sealed_file))
    with Sys_error e | Failure e -> Error e
  in
  Enclave.Sealed_slot.inject_blob sealed blob;
  let* sealed_payload = Enclave.Sealed_slot.load sealed in
  let* nonces, boundaries, summaries = parse_sealed_payload sealed_payload in
  let n_sh = Array.length summaries in
  let enclave = Enclave.create config.cost_model in
  let vconfig = vconfig_of config in
  let* verifiers =
    let rec build acc sid =
      if sid >= n_sh then Ok (Array.of_list (List.rev acc))
      else
        match Verifier.of_summary ~enclave vconfig summaries.(sid) with
        | Ok v -> build (v :: acc) (sid + 1)
        | Error e -> Error (Printf.sprintf "shard %d: %s" sid e)
    in
    build [] 0
  in
  (* The cold tier recovers from the manifest this generation committed:
     sealed segments are re-verified against their footers and the torn
     tail of the active segment is truncated back to the committed length.
     A generation without a cold manifest (written with the tier off)
     recovers with a fresh tier when one is now configured. *)
  let* cold =
    let mpath = Filename.concat gdir cold_manifest_file in
    if Sys.file_exists mpath then
      let* manifest =
        try Ok (read_file mpath) with Sys_error e | Failure e -> Error e
      in
      cold_of_config ~manifest config
    else cold_of_config config
  in
  let* store, data_version =
    Store.recover ?cold ~codec:option_codec
      ~path:(Filename.concat gdir data_file)
      ()
  in
  (* The data checkpoint's version must equal every sealed shard summary's
     verified epoch: they were written by the same checkpoint, and a
     disagreement means the generation was stitched together from mixed
     states (the sealed summaries are the trusted side of the pair). *)
  let* () =
    let rec check sid =
      if sid >= n_sh then Ok ()
      else
        let epoch = Verifier.verified_epoch verifiers.(sid) in
        if data_version <> epoch then
          Error
            (Printf.sprintf
               "data checkpoint version %d disagrees with shard %d's sealed \
                verifier epoch %d"
               data_version sid epoch)
        else check (sid + 1)
    in
    check 0
  in
  let* shards =
    let rec build acc sid =
      if sid >= n_sh then Ok (Array.of_list (List.rev acc))
      else
        let* raw =
          try Ok (read_file (Filename.concat gdir (shard_tree_file sid)))
          with Sys_error e | Failure e -> Error e
        in
        let* tree =
          Result.map_error
            (fun e -> Printf.sprintf "shard %d: %s" sid e)
            (parse_tree_file ~sid raw)
        in
        build (mk_shard ~tree verifiers.(sid) sid :: acc) (sid + 1)
    in
    build [] 0
  in
  let* t =
    make ~config ~enclave ~shards ~boundaries ~store ~nonces ~sealed
      ~loaded:true
      ~live_epoch:(Verifier.current_epoch verifiers.(0))
      ~cold
  in
  Array.iter
    (fun sh ->
      Tree.iter sh.tree (fun k entry ->
          if entry.aux.owner >= 0 then sh.frontier <- k :: sh.frontier))
    t.shards;
  (* Re-seed the dirty sets from the persisted protection state: a
     checkpoint may land mid-epoch (with background verification it
     routinely does), so data records still riding the deferred tier
     persist with blum aux, and their evict-set entries came back with the
     sealed summaries. Without their keys in the shards' dirty lists the
     next scan could never balance those entries. The store aux is the
     source of truth — it also covers keys that were sitting in the
     in-memory re-deferral list when the process died. *)
  Store.iter_aux t.store (fun k aux ->
      if aux_is_blum aux then begin
        let sh = t.shards.(shard_of_data_key t k) in
        sh.dirty <- k :: sh.dirty;
        sh.dirty_len <- sh.dirty_len + 1
      end);
  Ok t

let err_no_checkpoint = "no checkpoint found"

(* Newest-first scan over the generations, applying the torn/tampered
   distinction of {!classify_generation}: torn crash artifacts are deleted
   and skipped (they never committed and can never shadow the good
   generation behind them); a tampered generation stops recovery cold, with
   the directory left in place as evidence. *)
let recover ?(config = Config.default) ~dir () =
  let t0 = now () in
  let rec scan = function
    | [] -> Error "no valid checkpoint generation"
    | (number, gdir) :: older -> (
        match classify_generation ~number gdir with
        | Torn _ ->
            Ckpt_io.remove_tree gdir;
            scan older
        | Tampered e ->
            Error
              (Printf.sprintf
                 "%s: %s — a committed manifest that fails validation \
                  implies tampering, not a crash; refusing to fall back to \
                  an older generation"
                 (Filename.basename gdir) e)
        | Committed -> recover_generation ~config ~gdir ())
  in
  match Ckpt_io.generations dir with
  | [] ->
      (* Distinguish "nothing here" (fresh start is safe) from a checkpoint
         written by the pre-generation flat layout, which this release can
         no longer read. *)
      if
        List.exists
          (fun f -> Sys.file_exists (Filename.concat dir f))
          ("merkle.tree" :: static_component_files)
      then
        Error
          "unsupported legacy checkpoint format (flat pre-generation \
           layout); re-checkpoint with this release"
      else Error err_no_checkpoint
  | gens -> (
      match scan gens with
      | Ok t ->
          Metrics.recover_done t.metrics (now () -. t0);
          Ok t
      | Error _ as e -> e)
