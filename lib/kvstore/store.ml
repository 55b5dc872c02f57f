type 'v codec = { encode : 'v -> string; decode : string -> 'v }

let string_codec = { encode = Fun.id; decode = Fun.id }

let option_codec =
  {
    encode = (function None -> "\x00" | Some v -> "\x01" ^ v);
    decode =
      (fun s ->
        if s = "\x00" then None else Some (String.sub s 1 (String.length s - 1)));
  }

module Cold = Fastver_cold.Cold

type 'v body =
  | In_memory of { mutable value : 'v; mutable aux : int64 }
  | Cold_ref of { cref : Cold.rref; aux : int64 }

type 'v slot = { key : Key.t; mutable body : 'v body; prev : int }

let aux_of_body = function
  | In_memory { aux; _ } | Cold_ref { aux; _ } -> aux

type stats = {
  reads : int;
  writes : int;
  rcu_copies : int;
}

(* Live counters: atomics, so gets in one domain and stats snapshots in
   another never race (reads were bumped outside the stripe lock). *)
type stats_live = {
  a_reads : int Atomic.t;
  a_writes : int Atomic.t;
  a_rcu_copies : int Atomic.t;
}

let bump a = ignore (Atomic.fetch_and_add a 1)

let chunk_bits = 16
let chunk_size = 1 lsl chunk_bits

type 'v t = {
  index : int Key.Tbl.t;
  mutable chunks : 'v slot option array array;
  mutable tail : int; (* next free address *)
  mutable_region : int;
  codec : 'v codec;
  stripes : Mutex.t array;
  cold : Cold.t option;
  mutable demoted_through : int; (* addresses < this may be in the cold tier *)
  stats : stats_live;
  mutable tracking : bool;
  mutable changed : unit Key.Tbl.t array;
      (* per stripe, under that stripe's lock: keys installed, demoted or
         compacted since the last {!take_changes}; empty until
         {!track_changes} *)
  pending : unit Key.Tbl.t;
      (* keys taken by image writes that have not committed yet *)
}

let create ?(mutable_region_entries = 1 lsl 20) ?cold ~codec () =
  {
    index = Key.Tbl.create 4096;
    chunks = Array.make 16 [||];
    tail = 0;
    mutable_region = mutable_region_entries;
    codec;
    stripes = Array.init 256 (fun _ -> Mutex.create ());
    cold;
    demoted_through = 0;
    stats =
      {
        a_reads = Atomic.make 0;
        a_writes = Atomic.make 0;
        a_rcu_copies = Atomic.make 0;
      };
    tracking = false;
    changed = [||];
    pending = Key.Tbl.create 16;
  }

let stats t =
  {
    reads = Atomic.get t.stats.a_reads;
    writes = Atomic.get t.stats.a_writes;
    rcu_copies = Atomic.get t.stats.a_rcu_copies;
  }
let length t = Key.Tbl.length t.index
let log_size t = t.tail

let slot t addr =
  match t.chunks.(addr lsr chunk_bits).(addr land (chunk_size - 1)) with
  | Some s -> s
  | None -> assert false

let ensure_chunk t ci =
  if ci >= Array.length t.chunks then begin
    let chunks = Array.make (2 * Array.length t.chunks) [||] in
    Array.blit t.chunks 0 chunks 0 (Array.length t.chunks);
    t.chunks <- chunks
  end;
  if Array.length t.chunks.(ci) = 0 then
    t.chunks.(ci) <- Array.make chunk_size None

let append t s =
  let addr = t.tail in
  let ci = addr lsr chunk_bits in
  ensure_chunk t ci;
  t.chunks.(ci).(addr land (chunk_size - 1)) <- Some s;
  t.tail <- addr + 1;
  addr

let readonly_boundary t = max 0 (t.tail - t.mutable_region)

let stripe_of key = Key.hash key land 255

let with_stripe t key f =
  let m = t.stripes.(stripe_of key) in
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Caller holds [key]'s stripe. *)
let mark t key =
  if t.tracking then Key.Tbl.replace t.changed.(stripe_of key) key ()

let track_changes t =
  if not t.tracking then begin
    t.changed <- Array.init 256 (fun _ -> Key.Tbl.create 64);
    t.tracking <- true
  end

let decode_value t raw =
  match t.codec.decode raw with
  | v -> Ok v
  | exception _ -> Error "Store: undecodable record payload"

(* Misconfiguration (a cold record with no cold tier) is a total
   [Error _], not an exception: the server answers the one request with a
   failure instead of dying mid-request. A cold read that raced compaction
   (the segment was rewritten and retired between fetching the reference
   and reading it) reports [`Stale]; the rewrite installed a fresh
   reference first, so re-reading the slot body succeeds. Bounded retries:
   anything persistent is a real error. *)
let rec current ?(retries = 3) t key =
  match Key.Tbl.find_opt t.index key with
  | None -> Ok None
  | Some addr -> (
      let s = slot t addr in
      match s.body with
      | In_memory { value; aux } -> Ok (Some (addr, value, aux))
      | Cold_ref { cref; aux } -> (
          match t.cold with
          | None -> Error "Store: cold tier not configured"
          | Some c -> (
              match Cold.get c ~key cref with
              | Ok (raw, rec_aux) ->
                  if not (Int64.equal rec_aux aux) then
                    Error "Store: cold record aux disagrees with index"
                  else
                    Result.map (fun v -> Some (addr, v, aux)) (decode_value t raw)
              | Error `Stale when retries > 0 ->
                  current ~retries:(retries - 1) t key
              | Error `Stale -> Error "Store: cold segment retired during read"
              | Error (`Fail e) -> Error e)))

let get t key =
  bump t.stats.a_reads;
  with_stripe t key (fun () ->
      Result.map (Option.map (fun (_, v, a) -> (v, a))) (current t key))

let aux t key =
  with_stripe t key (fun () ->
      Option.map
        (fun addr -> aux_of_body (slot t addr).body)
        (Key.Tbl.find_opt t.index key))

let note_dead_body t body =
  match (body, t.cold) with
  | Cold_ref { cref; _ }, Some c -> Cold.note_dead c cref
  | _ -> ()

(* Install a new (value, aux) for [key]; in place when the current version is
   in the mutable region, copy-on-write otherwise. Caller holds the stripe. *)
let install t key value aux =
  bump t.stats.a_writes;
  mark t key;
  let in_place =
    match Key.Tbl.find_opt t.index key with
    | Some addr when addr >= readonly_boundary t -> (
        (* Recovery can land cold references in the mutable region; those
           update copy-on-write like any other on-disk version. *)
        match (slot t addr).body with
        | In_memory _ -> Some addr
        | Cold_ref _ -> None)
    | Some _ | None -> None
  in
  match in_place with
  | Some addr -> (
      match (slot t addr).body with
      | In_memory b ->
          b.value <- value;
          b.aux <- aux
      | Cold_ref _ -> assert false)
  | None ->
      (match Key.Tbl.find_opt t.index key with
      | Some prev ->
          bump t.stats.a_rcu_copies;
          note_dead_body t (slot t prev).body;
          let addr = append t { key; body = In_memory { value; aux }; prev } in
          Key.Tbl.replace t.index key addr
      | None ->
          let addr =
            append t { key; body = In_memory { value; aux }; prev = -1 }
          in
          Key.Tbl.replace t.index key addr)

let put t key value ~aux =
  with_stripe t key (fun () -> install t key value aux)

(* Aux-only compare: every body variant carries its aux word, so the CAS
   never needs the value bytes — a cold record CASes without touching
   disk. *)
let try_cas t key ~expected_aux value ~aux =
  with_stripe t key (fun () ->
      match Key.Tbl.find_opt t.index key with
      | None -> false
      | Some addr ->
          if Int64.equal (aux_of_body (slot t addr).body) expected_aux then begin
            install t key value aux;
            true
          end
          else false)

let update t key f =
  with_stripe t key (fun () ->
      match current t key with
      | Error _ as e -> e
      | Ok prior ->
          let value, aux = f (Option.map (fun (_, v, a) -> (v, a)) prior) in
          install t key value aux;
          Ok ())

exception Iter_stop of string

let iter_live t f =
  match
    Key.Tbl.iter
      (fun key addr ->
        match (slot t addr).body with
        | In_memory { value; aux } -> f key value aux
        | Cold_ref { cref; aux } -> (
            match t.cold with
            | None -> raise (Iter_stop "Store: cold tier not configured")
            | Some c -> (
                match Cold.get c ~key cref with
                | Ok (raw, _) -> (
                    match decode_value t raw with
                    | Ok v -> f key v aux
                    | Error e -> raise (Iter_stop e))
                | Error `Stale -> raise (Iter_stop "Store: stale cold read")
                | Error (`Fail e) -> raise (Iter_stop e))))
      t.index
  with
  | () -> Ok ()
  | exception Iter_stop e -> Error e

let iter_aux t f = Key.Tbl.iter (fun key addr -> f key (aux_of_body (slot t addr).body)) t.index

(* {2 Cold-tier demotion and compaction} *)

(* Demote cooling record versions (older than the in-memory budget, outside
   the mutable region) to the cold tier. This runs under each key's stripe
   lock, so it is safe while serving: the body flip cannot race an install
   or a read of the same key. *)
let demote_now t ~budget =
  match t.cold with
  | None -> Ok 0
  | Some c ->
      let keep_from = max (readonly_boundary t) (t.tail - budget) in
      if keep_from <= t.demoted_through then Ok 0
      else begin
        let demoted = ref 0 in
        let err = ref None in
        let addr = ref t.demoted_through in
        while !err = None && !addr < keep_from do
          let a = !addr in
          let ci = a lsr chunk_bits in
          (match t.chunks.(ci).(a land (chunk_size - 1)) with
          | None -> ()
          | Some s ->
              with_stripe t s.key (fun () ->
                  if Key.Tbl.find_opt t.index s.key = Some a then begin
                    match s.body with
                    | Cold_ref _ -> ()
                    | In_memory { value; aux } -> (
                        let data = t.codec.encode value in
                        match Cold.append c ~key:s.key ~aux ~value:data with
                        | Ok cref ->
                            s.body <- Cold_ref { cref; aux };
                            mark t s.key;
                            incr demoted
                        | Error e -> err := Some e)
                  end
                  else begin
                    (* superseded version: drop it, account dead cold bytes *)
                    note_dead_body t s.body;
                    t.chunks.(ci).(a land (chunk_size - 1)) <- None
                  end));
          if !err = None then begin
            incr addr;
            t.demoted_through <- !addr
          end
        done;
        match !err with Some e -> Error e | None -> Ok !demoted
      end

(* Rewrite the live records out of garbage-heavy sealed segments, then retire
   those segments. Raw record bytes move without a decode round-trip; the
   authenticated read validates them before the rewrite. *)
let compact_cold t ~min_dead_ratio =
  match t.cold with
  | None -> Ok 0
  | Some c -> (
      match Cold.gc_candidates c ~min_dead_ratio with
      | [] -> Ok 0
      | cands ->
          let in_cand seg = List.mem seg cands in
          let chunks = t.chunks and tail = t.tail in
          let rewritten = ref 0 in
          let err = ref None in
          let addr = ref 0 in
          while !err = None && !addr < tail do
            let a = !addr in
            let ci = a lsr chunk_bits in
            (match chunks.(ci).(a land (chunk_size - 1)) with
            | None -> ()
            | Some s ->
                with_stripe t s.key (fun () ->
                    match s.body with
                    | Cold_ref { cref; aux }
                      when in_cand cref.Cold.seg
                           && Key.Tbl.find_opt t.index s.key = Some a -> (
                        match Cold.get c ~key:s.key cref with
                        | Ok (raw, _) -> (
                            match Cold.append c ~key:s.key ~aux ~value:raw with
                            | Ok cref' ->
                                s.body <- Cold_ref { cref = cref'; aux };
                                mark t s.key;
                                Cold.note_dead c cref;
                                Cold.note_gc_rewrite c;
                                incr rewritten
                            | Error e -> err := Some e)
                        | Error `Stale -> ()
                        | Error (`Fail e) -> err := Some e)
                    | _ -> ()));
            incr addr
          done;
          (match !err with
          | Some e -> Error e
          | None ->
              Cold.retire_segments c cands;
              Ok !rewritten))

(* Checkpoint format FVCKPT03: magic, version(8), count(8), then per record
   key(34) aux(8) tag(1) and either an inline payload (tag 0: len(4) data),
   a cold-tier reference (tag 1: seg(4) off(8) len(4)) — cold values are
   already durable in their segment, so the checkpoint stores the pointer
   and the cold manifest vouches for the segment. A base image holds every
   live record; a delta image holds the records changed since its parent.
   A store never drops a key (the system deletes by storing a null value),
   so there is no removal record; a tag 2 that older deltas used is an
   unknown tag. Earlier formats are rejected explicitly:
   FVCKPT02 had no tag byte, and FVCKPT01 truncated the version through
   int32. *)
let magic = "FVCKPT03"
let legacy_magics = [ "FVCKPT01"; "FVCKPT02" ]
let tag_inline = '\000'
let tag_cold = '\001'

(* The smallest record: key, aux, tag and length of an empty payload. *)
let min_record_len = 34 + 8 + 1 + 4

(* Move every stripe's changed keys into [pending]. *)
let take_changes t =
  Array.iteri
    (fun i tbl ->
      Mutex.protect t.stripes.(i) (fun () ->
          Key.Tbl.iter (fun k () -> Key.Tbl.replace t.pending k ()) tbl;
          Key.Tbl.reset tbl))
    t.changed

let commit_changes t = Key.Tbl.reset t.pending

let write_image t ~path ~version ~base =
  take_changes t;
  Ckpt_io.with_atomic_file path @@ fun w ->
  Ckpt_io.write w magic;
  let header = Bytes.create 16 in
  Bytes.set_int64_le header 0 (Int64.of_int version);
  Bytes.set_int64_le header 8
    (Int64.of_int (if base then length t else Key.Tbl.length t.pending));
  Ckpt_io.write_bytes w header;
  let meta = Bytes.create 25 in
  let write_meta aux tag len =
    Bytes.set_int64_le meta 0 aux;
    Bytes.set meta 8 tag;
    Ckpt_io.write w (Bytes.sub_string meta 0 len)
  in
  let write_record key addr =
    Ckpt_io.write w (Key.encode key);
    match (slot t addr).body with
    | In_memory { value; aux } ->
        let data = t.codec.encode value in
        Bytes.set_int32_le meta 9 (Int32.of_int (String.length data));
        write_meta aux tag_inline 13;
        Ckpt_io.write w data
    | Cold_ref { cref; aux } ->
        Bytes.set_int32_le meta 9 (Int32.of_int cref.Cold.seg);
        Bytes.set_int64_le meta 13 (Int64.of_int cref.Cold.off);
        Bytes.set_int32_le meta 21 (Int32.of_int cref.Cold.len);
        write_meta aux tag_cold 25
  in
  if base then Key.Tbl.iter write_record t.index
  else
    Key.Tbl.iter
      (fun key () -> write_record key (Key.Tbl.find t.index key))
      t.pending

let checkpoint t ~path ~version =
  ignore (write_image t ~path ~version ~base:true)

(* Recovery installs bodies raw: a key already present is overwritten in
   place, so no superseded version of an earlier link survives in the log,
   and cold-tier accounting waits for
   {!finish_load}, which sees only the final state. *)
let load_body t key body =
  match Key.Tbl.find_opt t.index key with
  | Some addr -> (slot t addr).body <- body
  | None -> Key.Tbl.replace t.index key (append t { key; body; prev = -1 })

(* Every length and count read from disk is validated against the bytes
   actually remaining in the file before it is used for allocation or
   arithmetic: the checkpoint is untrusted input, and recovery must be total
   — any malformed file is an [Error], never an exception (and never an
   attempt to allocate a record the file could not possibly contain). *)
let load_image t ~path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic -> (
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let size = in_channel_length ic in
          match really_input_string ic (String.length magic) with
          | exception End_of_file -> Error "checkpoint truncated"
          | m when List.mem m legacy_magics ->
              Error
                (Printf.sprintf
                   "unsupported legacy checkpoint format %s; re-checkpoint \
                    with this release"
                   m)
          | m when m <> magic -> Error "bad checkpoint magic"
          | _ -> (
              try
                let header = really_input_string ic 16 in
                let version64 = String.get_int64_le header 0 in
                (* -1: checkpointed before the first verified epoch *)
                if version64 < -1L || Int64.of_int (Int64.to_int version64) <> version64
                then failwith "checkpoint: bad version";
                let version = Int64.to_int version64 in
                let count64 = String.get_int64_le header 8 in
                let remaining = size - String.length magic - 16 in
                if
                  count64 < 0L
                  || Int64.of_int (Int64.to_int count64) <> count64
                  || Int64.to_int count64 > remaining / min_record_len
                then failwith "checkpoint: implausible record count";
                let count = Int64.to_int count64 in
                let decode_key kenc =
                  let depth = String.get_uint16_le kenc 0 in
                  let path32 = String.sub kenc 2 32 in
                  if depth = Key.max_depth then Key.of_bytes32 path32
                  else
                    (* Only data keys appear in data checkpoints; merkle
                       trees are rebuilt by the integrity layer. *)
                    failwith "non-data key in checkpoint"
                in
                for _ = 1 to count do
                  let key = decode_key (really_input_string ic 34) in
                  let meta = really_input_string ic 9 in
                  let aux = String.get_int64_le meta 0 in
                  match meta.[8] with
                  | '\000' ->
                      let len32 = really_input_string ic 4 in
                      let len = Int32.to_int (String.get_int32_le len32 0) in
                      if len < 0 || len > size - pos_in ic then
                        failwith "checkpoint: record length exceeds file";
                      let data = really_input_string ic len in
                      let value =
                        match t.codec.decode data with
                        | v -> v
                        | exception _ ->
                            failwith "checkpoint: undecodable record"
                      in
                      load_body t key (In_memory { value; aux })
                  | '\001' ->
                      let refb = really_input_string ic 16 in
                      let seg = Int32.to_int (String.get_int32_le refb 0) in
                      let off64 = String.get_int64_le refb 4 in
                      let len = Int32.to_int (String.get_int32_le refb 12) in
                      if
                        off64 < 0L
                        || Int64.of_int (Int64.to_int off64) <> off64
                        || seg < 0 || len < 0
                      then failwith "checkpoint: malformed cold reference";
                      let cref = { Cold.seg; off = Int64.to_int off64; len } in
                      load_body t key (Cold_ref { cref; aux })
                  | _ -> failwith "checkpoint: unknown record tag"
                done;
                Ok version
              with
              | End_of_file -> Error "checkpoint truncated"
              | Invalid_argument _ -> Error "checkpoint corrupt"
              | Failure e -> Error e)))

(* Cold references are checked on the state the whole chain produced: an
   earlier link may name a segment that compaction since retired, which a
   later link's record for the same key supersedes. *)
let finish_load t =
  let exception Bad of string in
  match
    Key.Tbl.iter
      (fun _ addr ->
        match (slot t addr).body with
        | In_memory _ -> ()
        | Cold_ref { cref; _ } -> (
            match t.cold with
            | None ->
                raise
                  (Bad
                     "checkpoint references cold segments but no cold tier \
                      is configured")
            | Some c -> (
                match Cold.validate_ref c cref with
                | Error e -> raise (Bad ("checkpoint: " ^ e))
                | Ok () -> Cold.note_live c cref)))
      t.index
  with
  | () -> Ok ()
  | exception Bad e -> Error e

let recover_chain ?mutable_region_entries ?cold ~codec ~paths () =
  let t = create ?mutable_region_entries ?cold ~codec () in
  let rec apply version = function
    | [] -> (
        match version with
        | None -> Error "checkpoint chain is empty"
        | Some v -> Result.map (fun () -> (t, v)) (finish_load t))
    | path :: rest -> (
        match load_image t ~path with
        | Ok v -> apply (Some v) rest
        | Error _ as e -> e)
  in
  apply None paths

let recover ?mutable_region_entries ?cold ~codec ~path () =
  recover_chain ?mutable_region_entries ?cold ~codec ~paths:[ path ] ()
