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

(* The committed prefix of every cold segment; empty when no cold tier is
   configured. Written after the data image so every cold reference the
   image holds points at a segment the manifest commits. *)
let cold_manifest_file = "cold.manifest"

(* Checkpoints are versioned generations [dir/ckpt-<n>/] holding the
   component files plus a MANIFEST with the SHA-256 of each. Every file —
   the manifest included — is written temp-file + fsync + rename
   ({!Ckpt_io}), and the manifest is written last, so the manifest's
   presence-and-validity is the generation's commit point: a crash at any
   byte offset leaves either a committed generation (old or new) or a torn
   one that recovery can recognise and discard.

   A generation is a delta: its data and tree images hold only what changed
   since its parent generation, whose number and MANIFEST digest its own
   MANIFEST records. A base is a delta with no parent. Recovery applies a
   chain base-first, and a new base is written once the deltas since the
   last one add up to its size, which bounds recovery at about twice one
   base.

   The shard count lives in the sealed payload, so the static component
   check below names only the shard-count-independent files; the per-shard
   tree files are still checksummed by the manifest (its [verify] covers
   every entry), and a missing one surfaces as a read failure during
   recovery of a generation whose manifest vouches for it — Tampered by
   construction. *)
let static_component_files =
  [ data_file; sealed_file; tpm_file; cold_manifest_file ]

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
   one-bit-flip rollback primitive and destroy the evidence.

   [Unsupported] — a manifest an earlier release wrote. *)
type generation_status =
  | Committed of Ckpt_io.Manifest.t
  | Torn of string
  | Tampered of string
  | Unsupported of string

let classify_generation ~number gdir =
  match Ckpt_io.Manifest.read ~dir:gdir with
  | Error e -> (
      match Ckpt_io.Manifest.legacy ~dir:gdir with
      | Some magic ->
          Unsupported
            (Printf.sprintf
               "unsupported legacy manifest format %s; re-checkpoint with \
                this release"
               magic)
      | None -> Torn e)
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
        | Ok () -> Committed m
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

(* A checkpoint leaves the verifier cache as it is, so a tree image
   records each cached record as the state the sealed summary evicts it
   to ({!Verifier.checkpoint_summary}): a Merkle-cached record, written
   back in place, as Merkle-protected, and a blum-cached frontier record
   as blum-protected at [vts], the timestamp of its virtual eviction. A
   cached record keeps the state it was added from, so only a blum-cached
   one differs from its at-rest state. *)
let image_mstate sh ~vts k (e : maux Tree.entry) =
  match e.aux.mstate with
  | M_blum _ when Key_lru.mem sh.lru k -> M_blum vts
  | st -> st

(* The timestamp of [sh]'s virtual evictions: the verifier's, since
   [sh.clock] mirrors its clock. *)
let virtual_evict_ts t sh =
  Timestamp.max sh.clock (Timestamp.first_of_epoch (Atomic.get t.live_epoch))

let mstate_encode buf = function
  | M_merkle -> Buffer.add_char buf 'm'
  | M_blum ts ->
      Buffer.add_char buf 'b';
      Buffer.add_string buf (Timestamp.encode ts)

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

(* Merkle image record: key(34), value length(4), value, protection tag
   ('m', or 'b' and a timestamp(8)), owner(4). *)
let encode_tree_record buf k st (entry : maux Tree.entry) =
  Buffer.add_string buf (Key.encode k);
  let venc = Value.encode entry.value in
  Buffer.add_int32_le buf (Int32.of_int (String.length venc));
  Buffer.add_string buf venc;
  mstate_encode buf st;
  Buffer.add_int32_le buf (Int32.of_int entry.aux.owner)

(* Streams through the writer in blocks, never a whole-image buffer. A
   delta holds the changed records plus every cached frontier record:
   its virtual eviction timestamp moves with each checkpoint. *)
let write_tree_image t sh ~path ~base =
  let vts = virtual_evict_ts t sh in
  Ckpt_io.with_atomic_file path (fun w ->
      let buf = Buffer.create 65536 in
      let emit k entry =
        encode_tree_record buf k (image_mstate sh ~vts k entry) entry;
        if Buffer.length buf >= 65536 - 256 then begin
          Ckpt_io.write w (Buffer.contents buf);
          Buffer.clear buf
        end
      in
      if base then Tree.iter sh.tree emit
      else begin
        Tree.iter_changed sh.tree emit;
        List.iter
          (fun f ->
            let e = Tree.get_exn sh.tree f in
            if Key_lru.mem sh.lru f && not e.changed then emit f e)
          sh.frontier
      end;
      Ckpt_io.write w (Buffer.contents buf))

let chain_of t ~dir = List.assoc_opt dir t.chains

let remember_chain t ~dir chain =
  t.chains <- (dir, chain) :: List.remove_assoc dir t.chains

(* A new base once the deltas since the last one reach its size: recovery
   then reads at most about twice one base. *)
let needs_base { links; _ } =
  match List.rev links with
  | [] -> true
  | base :: deltas ->
      List.fold_left (fun acc l -> acc + l.bytes) 0 deltas >= base.bytes

(* Start recording changes for the next delta. Called when a checkpoint
   begins (before anything is written) and after recovery, so a system that
   never checkpoints pays nothing. *)
let track_changes t =
  Store.track_changes t.store;
  Array.iter (fun sh -> Tree.track_changes sh.tree) t.shards

let checkpoint t ~dir =
  check_loaded t;
  let ck0 = now () in
  (* Each phase runs from the end of the one before, so together they
     cover the whole checkpoint. *)
  let mark = ref ck0 in
  let phase p =
    let n = now () in
    Metrics.checkpoint_phase t.metrics p (n -. !mark);
    mark := n
  in
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
    track_changes t;
    Array.iter (flush_worker t) t.shards;
    (* The working set stays cached. Stale cached records are written back
       in place, so the summaries and tree images below describe exactly
       the state a full eviction into the live epoch would leave. *)
    Array.iter
      (fun sh -> Enclave.call t.enclave (fun () -> write_back sh))
      t.shards;
    phase Writeback;
    let floor = Timestamp.first_of_epoch (Atomic.get t.live_epoch) in
    let summaries =
      Array.map
        (fun sh ->
          Enclave.call t.enclave (fun () ->
              ok (Verifier.checkpoint_summary sh.verifier ~floor)))
        t.shards
    in
    (* The gateway's anti-replay nonce table is trusted state too: without it
       a recovered system would accept replays of pre-crash puts. It is
       sealed alongside the shard summaries and routing boundaries. *)
    Enclave.Sealed_slot.store t.sealed (encode_sealed_payload t ~summaries);
    (* The chain this process last committed to [dir] (or recovered from
       it); with none, or once the deltas outweigh their base, a base. *)
    let prev = chain_of t ~dir in
    let base = match prev with None -> true | Some c -> needs_base c in
    (* A fresh generation directory: higher than anything on disk, committed
       or torn. Its files all land inside it, so a crash mid-checkpoint can
       never touch a previous generation. *)
    let generation =
      match Ckpt_io.generations dir with (g, _) :: _ -> g + 1 | [] -> 0
    in
    let gdir = Filename.concat dir (Ckpt_io.generation_dir_name generation) in
    Ckpt_io.remove_tree gdir;
    Sys.mkdir gdir 0o755;
    let component name write =
      let d : Ckpt_io.digest = write (Filename.concat gdir name) in
      { Ckpt_io.Manifest.name; size = d.size; sha256_hex = d.sha256_hex }
    in
    let sealed =
      component sealed_file (fun p ->
          Ckpt_io.write_file_atomic p
            (Enclave.Sealed_slot.external_blob t.sealed))
    in
    (* Simulated TPM NVRAM: hardware state that survives restarts. *)
    let tpm =
      component tpm_file (fun p ->
          Ckpt_io.write_file_atomic p
            (Fastver_crypto.Bytes_util.to_hex
               (Enclave.Sealed_slot.hw_key t.sealed)
            ^ "\n"
            ^ Int64.to_string (Enclave.Sealed_slot.counter t.sealed)))
    in
    phase Summary;
    (* Cold tier: the segment files themselves stay in [cold_dir] (they are
       append-only and immutable once sealed); the generation records only
       the manifest naming the committed prefix of each. [manifest_encode]
       fsyncs the active segment first, so every record the data image
       references is durable before the manifest that vouches for it. Under
       [cold_lock] so a racing maintenance pass can neither demote nor
       compact while the data image is written, nor rotate segments during
       the encoding. *)
    let data, cold =
      with_cold_lock t (fun () ->
          let data =
            component data_file (fun path ->
                Store.write_image t.store ~path ~version:(verified_epoch t)
                  ~base)
          in
          let encoded =
            match t.cold with
            | None -> ""
            | Some c -> Store.Cold.manifest_encode c
          in
          (data, component cold_manifest_file (fun p ->
               Ckpt_io.write_file_atomic p encoded)))
    in
    phase Data;
    let trees =
      Array.to_list
        (Array.map
           (fun sh ->
             component (shard_tree_file sh.sid) (fun path ->
                 write_tree_image t sh ~path ~base))
           t.shards)
    in
    phase Trees;
    (* Commit point: the manifest, checksumming every component and naming
       the parent, goes last. *)
    let parent =
      match prev with
      | Some { links = tip :: _; _ } when not base ->
          Some (tip.gen, tip.manifest_sha)
      | Some _ | None -> None
    in
    let entries = data :: sealed :: tpm :: cold :: trees in
    let m = { Ckpt_io.Manifest.generation; parent; entries } in
    let mdigest =
      Ckpt_io.write_file_atomic
        (Filename.concat gdir Ckpt_io.Manifest.filename)
        (Ckpt_io.Manifest.encode m)
    in
    Ckpt_io.fsync_dir dir;
    (* Committed: the next delta starts from here. *)
    Store.commit_changes t.store;
    Array.iter (fun sh -> Tree.clear_changed sh.tree) t.shards;
    let link =
      {
        gen = generation;
        manifest_sha = mdigest.sha256_hex;
        bytes =
          List.fold_left
            (fun acc e -> acc + e.Ckpt_io.Manifest.size)
            mdigest.size entries;
      }
    in
    let chain =
      {
        links =
          (match (prev, base) with
          | Some c, false -> link :: c.links
          | _ -> [ link ]);
        fallback =
          (match prev with
          | Some c -> List.map (fun l -> l.gen) c.links
          | None -> []);
      }
    in
    remember_chain t ~dir chain;
    Metrics.checkpoint_committed t.metrics ~base ~bytes:link.bytes
      ~links:(List.length chain.links);
    phase Manifest;
    (* Retention, decided from memory: keep this chain and the one it
       replaced (the fallback should the newest generation be lost), delete
       everything else — torn attempts included — without reading any of
       it. A tampered generation on either chain stays as evidence. *)
    let keep = List.map (fun l -> l.gen) chain.links @ chain.fallback in
    List.iter
      (fun (g, path) -> if not (List.mem g keep) then Ckpt_io.remove_tree path)
      (Ckpt_io.generations dir);
    (* Only now — after the new generation committed and old ones were
       pruned — may segments retired two checkpoints ago be unlinked: no
       retained manifest can still name them. *)
    (match t.cold with
    | None -> ()
    | Some c -> with_cold_lock t (fun () -> Store.Cold.note_checkpoint c))
  with
  | () ->
      phase Retention;
      Metrics.checkpoint_write t.metrics (!mark -. ck0);
      Ok ()
  | exception Ckpt_error e -> Error e
  | exception Sys_error e -> Error ("checkpoint: " ^ e)
  | exception Failure e -> Error ("checkpoint: " ^ e)

(* Total parser for one shard's merkle image, applied onto [tree]: every
   malformed-input path is an [Error] — truncation, a data key where an
   internal node belongs, a negative length, an unknown protection tag.
   The enclosing generation was already classified Committed, so any of
   these means the manifest was forged around tampered bytes; the caller
   treats the chain as tampered and refuses to fall back. *)
let apply_tree_image tree raw =
  let exception Corrupt of string in
  let fail fmt = Printf.ksprintf (fun e -> raise (Corrupt e)) fmt in
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
      Tree.set tree key value ~aux:{ mstate; owner }
    done;
    Ok ()
  with Corrupt e -> Error e

(* Structural consistency of the tree a chain produced: every pointer must
   target either a data key (whose record lives in the store) or an
   internal record present in the tree, strictly inside its pointing
   record's subtree. No honest chain produces anything else, and a dangling
   or upward pointer would crash or loop tree descent after recovery
   instead of surfacing as the tampering it is. *)
let check_tree_pointers tree =
  let exception Corrupt of string in
  try
    Tree.iter tree (fun k (e : maux Tree.entry) ->
        match e.value with
        | Value.Data _ -> raise (Corrupt "data value under merkle key in tree file")
        | Value.Node node ->
            List.iter
              (function
                | None -> ()
                | Some (p : Value.ptr) ->
                    if not (Key.is_proper_ancestor k p.key) then
                      raise (Corrupt "pointer outside its subtree in tree file");
                    if not (Key.is_data_key p.key) then (
                      match Tree.find tree p.key with
                      | Some { value = Value.Node _; _ } -> ()
                      | Some _ | None ->
                          raise (Corrupt "dangling pointer in tree file")))
              [ node.left; node.right ]);
    Ok ()
  with Corrupt e -> Error e

(* Rebuild a system from a committed chain, given base first. Total: every
   decoder failure is an [Error]; nothing here may raise on corrupt input.
   The trusted state — sealed payload, TPM counter, cold manifest — comes
   from the tip alone; the data and tree images of every link are applied
   in order, and the checks that tie them to the trusted state run once, on
   the result. The shard count and routing boundaries are adopted from the
   sealed payload, and the shard count becomes the system's [n_workers]. *)
let recover_chain ?(config = Config.default) ~gdirs () =
  let ( let* ) = Result.bind in
  let read name gdir =
    try Ok (read_file (Filename.concat gdir name))
    with Sys_error e | Failure e -> Error e
  in
  let tip = List.nth gdirs (List.length gdirs - 1) in
  let* tpm = read tpm_file tip in
  let* hw_key, counter =
    match String.split_on_char '\n' tpm with
    | [ k; c ] -> (
        try Ok (Fastver_crypto.Bytes_util.of_hex k, Int64.of_string c)
        with _ -> Error "corrupt tpm state")
    | _ -> Error "corrupt tpm state"
  in
  let sealed = Enclave.Sealed_slot.create_with ~hw_key ~counter in
  let* blob = read sealed_file tip in
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
  (* The cold tier recovers from the manifest the tip committed: sealed
     segments are re-verified against their footers and the torn tail of
     the active segment is truncated back to the committed length. A
     generation written with the tier off (an empty cold manifest) recovers
     with a fresh tier when one is now configured. *)
  let* cold =
    let* manifest = read cold_manifest_file tip in
    if manifest = "" then cold_of_config config
    else cold_of_config ~manifest config
  in
  let* store, data_version =
    Store.recover_chain ?cold ~codec:Store.option_codec
      ~paths:(List.map (fun g -> Filename.concat g data_file) gdirs)
      ()
  in
  (* The data version must equal every sealed shard summary's verified
     epoch: the tip's images and summaries were written by the same
     checkpoint, and a disagreement means the chain was stitched together
     from mixed states (the sealed summaries are the trusted side of the
     pair). *)
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
        let tree = Tree.create ~root_aux:{ mstate = M_merkle; owner = -1 } in
        let* () =
          List.fold_left
            (fun acc gdir ->
              let* () = acc in
              let* raw = read (shard_tree_file sid) gdir in
              apply_tree_image tree raw)
            (Ok ()) gdirs
          |> Result.map_error (fun e -> Printf.sprintf "shard %d: %s" sid e)
        in
        let* () =
          Result.map_error
            (fun e -> Printf.sprintf "shard %d: %s" sid e)
            (check_tree_pointers tree)
        in
        build (mk_shard ~tree verifiers.(sid) sid :: acc) (sid + 1)
    in
    build [] 0
  in
  let* t =
    make ~config:{ config with Config.n_workers = n_sh } ~enclave ~shards
      ~boundaries ~store ~nonces ~sealed
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
     checkpoint may land mid-epoch, so data records still riding the
     deferred tier persist with blum aux, and their evict-set entries came
     back with the sealed summaries. Without their keys in the shards'
     dirty lists the next scan could never balance those entries. The
     store aux is the source of truth. *)
  Store.iter_aux t.store (fun k aux ->
      if aux_is_blum aux then begin
        let sh = t.shards.(shard_of_data_key t k) in
        sh.dirty <- k :: sh.dirty;
        sh.dirty_len <- sh.dirty_len + 1
      end);
  Ok t

let err_no_checkpoint = "no checkpoint found"

let tampering gdir e =
  Error
    (Printf.sprintf
       "%s: %s — a committed manifest that fails validation implies \
        tampering, not a crash; refusing to fall back to an older generation"
       (Filename.basename gdir) e)

(* From a committed tip back to its base: returns the parents, base first,
   each with its manifest and that manifest's digest. Each parent must
   exist, hash to the digest its child's manifest records, and be committed
   itself; a link that fails any of these is tampering, never a reason to
   skip. *)
let walk_chain ~dir gdir (m : Ckpt_io.Manifest.t) =
  let rec walk acc gdir (m : Ckpt_io.Manifest.t) =
    match m.parent with
    | None -> Ok acc
    | Some (p, sha) -> (
        let pdir = Filename.concat dir (Ckpt_io.generation_dir_name p) in
        match
          Ckpt_io.sha256_file (Filename.concat pdir Ckpt_io.Manifest.filename)
        with
        | Error _ ->
            tampering gdir (Printf.sprintf "parent generation %d is missing" p)
        | Ok actual when not (String.equal actual sha) ->
            tampering gdir
              (Printf.sprintf "parent generation %d's manifest digest differs" p)
        | Ok _ -> (
            match classify_generation ~number:p pdir with
            | Committed pm -> walk ((p, pdir, pm, sha) :: acc) pdir pm
            | Torn e | Tampered e | Unsupported e -> tampering pdir e))
  in
  walk [] gdir m

(* Newest-first scan over the generations, applying the torn/tampered
   distinction of {!classify_generation}: torn crash artifacts are deleted
   and skipped (they never committed and can never shadow the good
   generation behind them); a tampered generation or chain link stops
   recovery cold, with the directory left in place as evidence. *)
let recover ?(config = Config.default) ~dir () =
  let t0 = now () in
  let rec scan = function
    | [] -> Error "no valid checkpoint generation"
    | (number, gdir) :: older -> (
        match classify_generation ~number gdir with
        | Torn _ ->
            Ckpt_io.remove_tree gdir;
            scan older
        | Unsupported e -> Error e
        | Tampered e -> tampering gdir e
        | Committed m -> (
            let ( let* ) = Result.bind in
            let* parents = walk_chain ~dir gdir m in
            let* tip_sha =
              Ckpt_io.sha256_file
                (Filename.concat gdir Ckpt_io.Manifest.filename)
            in
            let chain = parents @ [ (number, gdir, m, tip_sha) ] in
            let* t =
              recover_chain ~config
                ~gdirs:(List.map (fun (_, d, _, _) -> d) chain)
                ()
            in
            let link (gen, _, (pm : Ckpt_io.Manifest.t), manifest_sha) =
              let bytes =
                List.fold_left
                  (fun acc e -> acc + e.Ckpt_io.Manifest.size)
                  (String.length (Ckpt_io.Manifest.encode pm))
                  pm.entries
              in
              { gen; manifest_sha; bytes }
            in
            remember_chain t ~dir
              { links = List.rev_map link chain; fallback = [] };
            Metrics.checkpoint_chain_links t.metrics (List.length chain);
            track_changes t;
            Ok t))
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

(* The generations of the chain this system last committed to (or
   recovered from) [dir], base first. *)
let chain_generations t ~dir =
  match chain_of t ~dir with
  | None -> []
  | Some c -> List.rev_map (fun l -> l.gen) c.links
