open Fastver_crypto

type config = {
  n_threads : int;
  cache_capacity : int;
  algo : Record_enc.algo;
  mac_secret : string;
  mset_secret : string;
}

let default_config =
  {
    n_threads = 1;
    cache_capacity = 512;
    algo = Record_enc.Blake2s;
    mac_secret = "fastver-default-client-secret";
    mset_secret = "fastver-mset-k3y";
  }

type add_method = Via_merkle | Via_blum

type cache_entry = { mutable value : Value.t; mutable added_via : add_method }

type thread = {
  tid : int;
  cache : cache_entry Key.Tbl.t;
  mutable clock : Timestamp.t;
  mutable closed_through : int; (* no more set elements for epochs <= this *)
  add_sets : (int, Multiset_hash.t) Hashtbl.t;
  evict_sets : (int, Multiset_hash.t) Hashtbl.t;
}

type op_stats = {
  mutable n_add_m : int;
  mutable n_evict_m : int;
  mutable n_add_b : int;
  mutable n_evict_b : int;
  mutable n_evict_bm : int;
  mutable n_vget : int;
  mutable n_vput : int;
  mutable n_certificates : int;
}

type t = {
  config : config;
  enclave : Enclave.t;
  threads : thread array;
  mac_key : Hmac.key; (* [config.mac_secret]: certificate MACs *)
  mset_key : Multiset_hash.key;
  mutable verified : int;
  mutable failure : string option;
  mutable ops_processed : int;
  stats : op_stats;
}

let create ?enclave config =
  if config.n_threads < 1 then invalid_arg "Verifier.create: n_threads";
  if config.cache_capacity < 2 then invalid_arg "Verifier.create: capacity";
  if String.length config.mset_secret <> 16 then
    invalid_arg "Verifier.create: mset_secret must be 16 bytes";
  let enclave =
    match enclave with
    | Some e -> e
    | None -> Enclave.create Cost_model.zero
  in
  let thread tid =
    {
      tid;
      cache = Key.Tbl.create 64;
      clock = Timestamp.zero;
      closed_through = -1;
      add_sets = Hashtbl.create 4;
      evict_sets = Hashtbl.create 4;
    }
  in
  let threads = Array.init config.n_threads thread in
  (* The root record is pinned in thread 0 and never evicted. *)
  Key.Tbl.replace threads.(0).cache Key.root
    { value = Value.empty_node; added_via = Via_merkle };
  {
    config;
    enclave;
    threads;
    mac_key = Hmac.key config.mac_secret;
    mset_key = Multiset_hash.key_of_string config.mset_secret;
    verified = -1;
    failure = None;
    ops_processed = 0;
    stats =
      {
        n_add_m = 0;
        n_evict_m = 0;
        n_add_b = 0;
        n_evict_b = 0;
        n_evict_bm = 0;
        n_vget = 0;
        n_vput = 0;
        n_certificates = 0;
      };
  }

let config t = t.config
let enclave t = t.enclave
let failure t = t.failure
let stats t = t.stats
let verified_epoch t = t.verified
let current_epoch t = t.verified + 1

let fail t fmt =
  Fmt.kstr
    (fun reason ->
      if t.failure = None then t.failure <- Some reason;
      Error reason)
    fmt

let thread t tid =
  if tid < 0 || tid >= Array.length t.threads then
    invalid_arg "Verifier: bad thread id";
  t.threads.(tid)

(* Every operation begins here: poisoned verifiers refuse all work. *)
let guard t =
  match t.failure with
  | Some reason -> Error ("verifier poisoned: " ^ reason)
  | None ->
      t.ops_processed <- t.ops_processed + 1;
      Ok ()

let ( let* ) = Result.bind

let hash_value t v = Record_enc.hash_value ~algo:t.config.algo v

let set_hash sets epoch key =
  match Hashtbl.find_opt sets epoch with
  | Some h -> h
  | None ->
      let h = Multiset_hash.create key in
      Hashtbl.replace sets epoch h;
      h

let parent_node t th ~key ~parent =
  if not (Key.is_proper_ancestor parent key) then
    fail t "%a is not a proper ancestor of %a" Key.pp parent Key.pp key
  else
    match Key.Tbl.find_opt th.cache parent with
    | None -> fail t "parent %a not in cache of thread %d" Key.pp parent th.tid
    | Some ({ value = Value.Node n; _ } as entry) -> Ok (entry, n)
    | Some { value = Value.Data _; _ } ->
        fail t "parent %a holds a data value" Key.pp parent

let add_m t ~tid ~key ~value ~parent =
  let* () = guard t in
  t.stats.n_add_m <- t.stats.n_add_m + 1;
  let th = thread t tid in
  if Key.equal key Key.root then fail t "add_m: root is pinned"
  else if not (Value.compatible key value) then
    fail t "add_m: value incompatible with key %a" Key.pp key
  else if Key.Tbl.mem th.cache key then
    fail t "add_m: %a already cached in thread %d" Key.pp key tid
  else if Key.Tbl.length th.cache >= t.config.cache_capacity then
    fail t "add_m: cache of thread %d full" tid
  else
    let* parent_entry, n = parent_node t th ~key ~parent in
    let d = Key.dir key ~ancestor:parent in
    let finish installed =
      Key.Tbl.replace th.cache key { value; added_via = Via_merkle };
      Ok installed
    in
    match Value.slot n d with
    | None ->
        (* Empty slot: only the initial (null) value may appear here. *)
        if not (Value.is_init key value) then
          fail t "add_m: fresh record %a must carry its initial value" Key.pp
            key
        else begin
          let ptr =
            { Value.key; hash = hash_value t value; in_blum = false }
          in
          parent_entry.value <- Value.Node (Value.set_slot n d (Some ptr));
          finish (Some ptr)
        end
    | Some ({ Value.key = pointee; hash; in_blum } as ptr) ->
        if Key.equal pointee key then
          if in_blum then
            fail t "add_m: %a is blum-protected (must use add_b)" Key.pp key
          else if not (String.equal hash (hash_value t value)) then
            fail t "add_m: hash mismatch for %a" Key.pp key
          else finish None
        else if Key.is_proper_ancestor key pointee then begin
          (* [key] is a new internal node between [parent] and [pointee]: its
             value must carry exactly the existing pointer and nothing else. *)
          let d2 = Key.dir pointee ~ancestor:key in
          let expected =
            Value.Node
              (Value.set_slot { left = None; right = None } d2 (Some ptr))
          in
          if not (Value.equal value expected) then
            fail t "add_m: new internal node %a must preserve pointer to %a"
              Key.pp key Key.pp pointee
          else begin
            let ptr' =
              { Value.key; hash = hash_value t value; in_blum = false }
            in
            parent_entry.value <- Value.Node (Value.set_slot n d (Some ptr'));
            finish (Some ptr')
          end
        end
        else
          fail t "add_m: slot of %a points to unrelated key %a" Key.pp parent
            Key.pp pointee

let evict_m t ~tid ~key ~parent =
  let* () = guard t in
  t.stats.n_evict_m <- t.stats.n_evict_m + 1;
  let th = thread t tid in
  if Key.equal key Key.root then fail t "evict_m: root is pinned"
  else
    match Key.Tbl.find_opt th.cache key with
    | None -> fail t "evict_m: %a not cached in thread %d" Key.pp key tid
    | Some entry ->
        let* parent_entry, n = parent_node t th ~key ~parent in
        let d = Key.dir key ~ancestor:parent in
        (match Value.slot n d with
        | Some { Value.key = pointee; _ } when Key.equal pointee key ->
            let ptr =
              {
                Value.key;
                hash = hash_value t entry.value;
                in_blum = false;
              }
            in
            parent_entry.value <- Value.Node (Value.set_slot n d (Some ptr));
            Key.Tbl.remove th.cache key;
            Ok ptr
        | Some _ | None ->
            fail t "evict_m: %a does not point to %a" Key.pp parent Key.pp key)

let add_b t ~tid ~key ~value ~timestamp =
  let* () = guard t in
  t.stats.n_add_b <- t.stats.n_add_b + 1;
  let th = thread t tid in
  let epoch = Timestamp.epoch timestamp in
  if Key.equal key Key.root then fail t "add_b: root is pinned"
  else if not (Value.compatible key value) then
    fail t "add_b: value incompatible with key %a" Key.pp key
  else if Key.Tbl.mem th.cache key then
    fail t "add_b: %a already cached in thread %d" Key.pp key tid
  else if Key.Tbl.length th.cache >= t.config.cache_capacity then
    fail t "add_b: cache of thread %d full" tid
  else if epoch <= t.verified then
    fail t "add_b: timestamp epoch %d already verified" epoch
  else if epoch <= th.closed_through then
    fail t "add_b: thread %d already closed epoch %d" tid epoch
  else begin
    Multiset_hash.add
      (set_hash th.add_sets epoch t.mset_key)
      (Record_enc.blum_element key value timestamp);
    th.clock <- Timestamp.max th.clock (Timestamp.next timestamp);
    Key.Tbl.replace th.cache key { value; added_via = Via_blum };
    Ok ()
  end

(* Shared tail of evict_b / evict_bm: fold the evict element, advance the
   clock, drop the cache entry. *)
let evict_to_blum t th ~key ~(entry : cache_entry) ~timestamp =
  let epoch = Timestamp.epoch timestamp in
  if Timestamp.compare timestamp th.clock < 0 then
    fail t "evict to blum: timestamp %a behind clock %a of thread %d"
      Timestamp.pp timestamp Timestamp.pp th.clock th.tid
  else if epoch <= t.verified then
    fail t "evict to blum: epoch %d already verified" epoch
  else if epoch <= th.closed_through then
    fail t "evict to blum: thread %d already closed epoch %d" th.tid epoch
  else begin
    Multiset_hash.add
      (set_hash th.evict_sets epoch t.mset_key)
      (Record_enc.blum_element key entry.value timestamp);
    th.clock <- timestamp;
    Key.Tbl.remove th.cache key;
    Ok ()
  end

let evict_b t ~tid ~key ~timestamp =
  let* () = guard t in
  t.stats.n_evict_b <- t.stats.n_evict_b + 1;
  let th = thread t tid in
  match Key.Tbl.find_opt th.cache key with
  | None -> fail t "evict_b: %a not cached in thread %d" Key.pp key tid
  | Some entry -> (
      match entry.added_via with
      | Via_merkle ->
          fail t "evict_b: %a was added via merkle (must use evict_bm)" Key.pp
            key
      | Via_blum -> evict_to_blum t th ~key ~entry ~timestamp)

let evict_bm t ~tid ~key ~timestamp ~parent =
  let* () = guard t in
  t.stats.n_evict_bm <- t.stats.n_evict_bm + 1;
  let th = thread t tid in
  match Key.Tbl.find_opt th.cache key with
  | None -> fail t "evict_bm: %a not cached in thread %d" Key.pp key tid
  | Some entry -> (
      match entry.added_via with
      | Via_blum ->
          fail t "evict_bm: %a was added via blum (must use evict_b)" Key.pp
            key
      | Via_merkle -> (
          let* parent_entry, n = parent_node t th ~key ~parent in
          let d = Key.dir key ~ancestor:parent in
          match Value.slot n d with
          | Some ({ Value.key = pointee; in_blum = false; _ } as ptr)
            when Key.equal pointee key ->
              (* The stale hash stays; the [in_blum] mark invalidates it for
                 future add_m until an evict_m refreshes it. *)
              parent_entry.value <-
                Value.Node
                  (Value.set_slot n d (Some { ptr with in_blum = true }));
              evict_to_blum t th ~key ~entry ~timestamp
          | Some { Value.key = pointee; in_blum = true; _ }
            when Key.equal pointee key ->
              fail t "evict_bm: %a already marked in_blum" Key.pp key
          | Some _ | None ->
              fail t "evict_bm: %a does not point to %a" Key.pp parent Key.pp
                key))

let vget t ~tid ~key value =
  let* () = guard t in
  t.stats.n_vget <- t.stats.n_vget + 1;
  let th = thread t tid in
  if not (Key.is_data_key key) then fail t "vget: %a not a data key" Key.pp key
  else
    match Key.Tbl.find_opt th.cache key with
    | None -> fail t "vget: %a not cached in thread %d" Key.pp key tid
    | Some { value = Value.Data v; _ } ->
        if Option.equal String.equal v value then Ok ()
        else fail t "vget: stale or tampered value for %a" Key.pp key
    | Some { value = Value.Node _; _ } ->
        fail t "vget: merkle value under data key %a" Key.pp key

let vget_absent t ~tid ~key ~parent =
  let* () = guard t in
  t.stats.n_vget <- t.stats.n_vget + 1;
  let th = thread t tid in
  if not (Key.is_data_key key) then
    fail t "vget_absent: %a not a data key" Key.pp key
  else
    let* _, n = parent_node t th ~key ~parent in
    let d = Key.dir key ~ancestor:parent in
    match Value.slot n d with
    | None -> Ok ()
    | Some { Value.key = pointee; _ } ->
        if
          Key.equal pointee key
          || Key.is_proper_ancestor pointee key
        then
          fail t "vget_absent: %a does not prove absence of %a" Key.pp parent
            Key.pp key
        else Ok ()

let vput t ~tid ~key value =
  let* () = guard t in
  t.stats.n_vput <- t.stats.n_vput + 1;
  let th = thread t tid in
  if not (Key.is_data_key key) then fail t "vput: %a not a data key" Key.pp key
  else
    match Key.Tbl.find_opt th.cache key with
    | None -> fail t "vput: %a not cached in thread %d" Key.pp key tid
    | Some entry ->
        entry.value <- Value.Data value;
        Ok ()

let close_epoch t ~tid ~epoch =
  let* () = guard t in
  let th = thread t tid in
  if epoch <> th.closed_through + 1 then
    fail t "close_epoch: thread %d must close epoch %d next" tid
      (th.closed_through + 1)
  else begin
    th.closed_through <- epoch;
    th.clock <- Timestamp.max th.clock (Timestamp.first_of_epoch (epoch + 1));
    Ok ()
  end

let epoch_certificate_message ~epoch =
  Printf.sprintf "fastver-epoch-verified:%d" epoch

(* Background verification: once a thread has closed [epoch], its epoch set
   hashes are frozen. [detach_epoch] removes them from the thread's open-set
   tables (under whatever lock serializes that thread's operations) and
   returns the raw values, so the serial aggregation in
   [verify_epoch_detached] never touches per-thread hashtables that
   foreground traffic is concurrently folding epoch e+1 elements into. *)
let detach_epoch t ~tid ~epoch =
  let* () = guard t in
  let th = thread t tid in
  if th.closed_through < epoch then
    fail t "detach_epoch: thread %d has not closed epoch %d" tid epoch
  else begin
    let take sets =
      match Hashtbl.find_opt sets epoch with
      | Some h ->
          Hashtbl.remove sets epoch;
          Multiset_hash.value h
      | None -> Multiset_hash.empty_value
    in
    let add = take th.add_sets in
    let evict = take th.evict_sets in
    Ok (add, evict)
  end

let verify_epoch_detached t ~epoch ~detached =
  let* () = guard t in
  if epoch <> t.verified + 1 then
    fail t "verify_epoch: expected epoch %d" (t.verified + 1)
  else if Array.length detached <> Array.length t.threads then
    fail t "verify_epoch: detached sets for %d threads, have %d"
      (Array.length detached) (Array.length t.threads)
  else if Array.exists (fun th -> th.closed_through < epoch) t.threads then
    fail t "verify_epoch: not all threads closed epoch %d" epoch
  else begin
    let adds = Multiset_hash.create t.mset_key
    and evicts = Multiset_hash.create t.mset_key in
    Array.iter
      (fun (add, evict) ->
        Multiset_hash.merge adds (Multiset_hash.of_value t.mset_key add);
        Multiset_hash.merge evicts (Multiset_hash.of_value t.mset_key evict))
      detached;
    if not (Multiset_hash.equal adds evicts) then
      fail t "verify_epoch: add/evict multiset mismatch in epoch %d" epoch
    else begin
      t.verified <- epoch;
      t.stats.n_certificates <- t.stats.n_certificates + 1;
      Ok (Hmac.mac_with t.mac_key (epoch_certificate_message ~epoch))
    end
  end

let verify_epoch t ~epoch =
  let* () = guard t in
  if epoch <> t.verified + 1 then
    fail t "verify_epoch: expected epoch %d" (t.verified + 1)
  else if
    Array.exists (fun th -> th.closed_through < epoch) t.threads
  then fail t "verify_epoch: not all threads closed epoch %d" epoch
  else begin
    let adds = Multiset_hash.create t.mset_key
    and evicts = Multiset_hash.create t.mset_key in
    let take sets acc =
      match Hashtbl.find_opt sets epoch with
      | Some h ->
          Multiset_hash.merge acc h;
          Hashtbl.remove sets epoch
      | None -> ()
    in
    Array.iter
      (fun th ->
        take th.add_sets adds;
        take th.evict_sets evicts)
      t.threads;
    if not (Multiset_hash.equal adds evicts) then
      fail t "verify_epoch: add/evict multiset mismatch in epoch %d" epoch
    else begin
      t.verified <- epoch;
      t.stats.n_certificates <- t.stats.n_certificates + 1;
      Ok (Hmac.mac_with t.mac_key (epoch_certificate_message ~epoch))
    end
  end

(* Sharded stores (§5.3 extended across trees): each shard runs its own
   verifier over a disjoint keyspace slice. Sealing an epoch is two-level:
   every shard checks its local add/evict balance and issues a shard
   certificate, exporting its folded (add, evict) values; the store-level
   certificate then folds the per-shard values order-independently and signs
   the unchanged store-level message — so the aggregated certificate is
   bit-identical whether one shard or N produced it. *)

let shard_certificate_message ~shard ~epoch =
  Printf.sprintf "fastver-shard-verified:%d:%d" shard epoch

let seal_epoch_shard t ~shard ~epoch ~detached =
  let* () = guard t in
  if epoch <> t.verified + 1 then
    fail t "seal_epoch: shard %d expected epoch %d" shard (t.verified + 1)
  else if Array.length detached <> Array.length t.threads then
    fail t "seal_epoch: detached sets for %d threads, have %d"
      (Array.length detached) (Array.length t.threads)
  else if Array.exists (fun th -> th.closed_through < epoch) t.threads then
    fail t "seal_epoch: not all threads closed epoch %d" epoch
  else begin
    let adds = Multiset_hash.create t.mset_key
    and evicts = Multiset_hash.create t.mset_key in
    Array.iter
      (fun (add, evict) ->
        Multiset_hash.merge adds (Multiset_hash.of_value t.mset_key add);
        Multiset_hash.merge evicts (Multiset_hash.of_value t.mset_key evict))
      detached;
    if not (Multiset_hash.equal adds evicts) then
      fail t "seal_epoch: add/evict multiset mismatch in shard %d epoch %d"
        shard epoch
    else begin
      t.verified <- epoch;
      t.stats.n_certificates <- t.stats.n_certificates + 1;
      let cert =
        Hmac.mac_with t.mac_key
          (shard_certificate_message ~shard ~epoch)
      in
      Ok (cert, (Multiset_hash.value adds, Multiset_hash.value evicts))
    end
  end

let aggregate_epoch_certificate ~mset_secret ~mac_secret ~epoch ~folds =
  let key = Multiset_hash.key_of_string mset_secret in
  let adds = Multiset_hash.create key and evicts = Multiset_hash.create key in
  List.iter
    (fun (add, evict) ->
      Multiset_hash.merge adds (Multiset_hash.of_value key add);
      Multiset_hash.merge evicts (Multiset_hash.of_value key evict))
    folds;
  if not (Multiset_hash.equal adds evicts) then
    Error
      (Printf.sprintf
         "aggregate_epoch: add/evict multiset mismatch in epoch %d" epoch)
  else Ok (Hmac.mac ~key:mac_secret (epoch_certificate_message ~epoch))

let sign t msg =
  if t.failure <> None then invalid_arg "Verifier.sign: poisoned";
  Hmac.mac_with t.mac_key msg

let install_root t value =
  let* () = guard t in
  t.ops_processed <- t.ops_processed - 1;
  if t.ops_processed > 0 || t.verified >= 0 then
    fail t "install_root: verifier already in use"
  else
    match value with
    | Value.Data _ -> fail t "install_root: root must be a merkle value"
    | Value.Node _ ->
        (Key.Tbl.find t.threads.(0).cache Key.root).value <- value;
        Ok ()

let install_blum t ~tid ~key ~value ~timestamp =
  let* () = guard t in
  t.ops_processed <- t.ops_processed - 1;
  if t.ops_processed > 0 || t.verified >= 0 then
    fail t "install_blum: verifier already in use"
  else if not (Value.compatible key value) then
    fail t "install_blum: value incompatible with key %a" Key.pp key
  else begin
    let th = thread t tid in
    Multiset_hash.add
      (set_hash th.evict_sets (Timestamp.epoch timestamp) t.mset_key)
      (Record_enc.blum_element key value timestamp);
    th.clock <- Timestamp.max th.clock timestamp;
    Ok ()
  end

(* Summary layout: verified(8) | root_len(4) root_enc | per thread:
   clock(8) closed(8) n_epochs(4) { epoch(8) add(16) evict(16) }. *)
let checkpoint_summary t =
  let* () = guard t in
  t.ops_processed <- t.ops_processed - 1;
  let clean =
    Array.for_all
      (fun th ->
        Key.Tbl.length th.cache = if th.tid = 0 then 1 else 0)
      t.threads
  in
  if not clean then Error "checkpoint_summary: caches not empty"
  else begin
    let buf = Buffer.create 256 in
    let u64 v = Buffer.add_string buf (Bytes_util.string_of_u64_le v) in
    let u32 v =
      let b = Bytes.create 4 in
      Bytes.set_int32_le b 0 (Int32.of_int v);
      Buffer.add_bytes buf b
    in
    u64 (Int64.of_int t.verified);
    let root_enc =
      Value.encode (Key.Tbl.find t.threads.(0).cache Key.root).value
    in
    u32 (String.length root_enc);
    Buffer.add_string buf root_enc;
    Array.iter
      (fun th ->
        u64 th.clock;
        u64 (Int64.of_int th.closed_through);
        let epochs =
          List.sort_uniq Stdlib.compare
            (Hashtbl.fold (fun e _ acc -> e :: acc) th.add_sets []
            @ Hashtbl.fold (fun e _ acc -> e :: acc) th.evict_sets [])
        in
        u32 (List.length epochs);
        List.iter
          (fun e ->
            u64 (Int64.of_int e);
            let v sets =
              match Hashtbl.find_opt sets e with
              | Some h -> Multiset_hash.value h
              | None -> Multiset_hash.empty_value
            in
            Buffer.add_string buf (v th.add_sets);
            Buffer.add_string buf (v th.evict_sets))
          epochs)
      t.threads;
    Ok (Buffer.contents buf)
  end

let of_summary ?enclave config summary =
  let t = create ?enclave config in
  let pos = ref 0 in
  let fail msg = Error ("Verifier.of_summary: " ^ msg) in
  try
    let u64 () =
      let v = Bytes_util.get_u64_le summary !pos in
      pos := !pos + 8;
      v
    in
    let u32 () =
      let v = Int32.to_int (String.get_int32_le summary !pos) in
      pos := !pos + 4;
      v
    in
    let str n =
      let s = String.sub summary !pos n in
      pos := !pos + n;
      s
    in
    t.verified <- Int64.to_int (u64 ());
    let root_len = u32 () in
    (match Value.decode (str root_len) with
    | Ok (Value.Node _ as v) ->
        (Key.Tbl.find t.threads.(0).cache Key.root).value <- v
    | Ok (Value.Data _) -> failwith "root is a data value"
    | Error e -> failwith e);
    Array.iter
      (fun th ->
        th.clock <- u64 ();
        th.closed_through <- Int64.to_int (u64 ());
        let n_epochs = u32 () in
        for _ = 1 to n_epochs do
          let e = Int64.to_int (u64 ()) in
          let add = str 16 and evict = str 16 in
          if not (Multiset_hash.equal_value add Multiset_hash.empty_value)
          then
            Hashtbl.replace th.add_sets e
              (Multiset_hash.of_value t.mset_key add);
          if not (Multiset_hash.equal_value evict Multiset_hash.empty_value)
          then
            Hashtbl.replace th.evict_sets e
              (Multiset_hash.of_value t.mset_key evict)
        done)
      t.threads;
    if !pos <> String.length summary then fail "trailing bytes" else Ok t
  with
  | Invalid_argument _ -> fail "truncated"
  | Failure msg -> fail msg

let cached t ~tid key =
  Option.map
    (fun e -> e.value)
    (Key.Tbl.find_opt (thread t tid).cache key)

let cache_size t ~tid = Key.Tbl.length (thread t tid).cache
let clock t ~tid = (thread t tid).clock
let cache_capacity t = t.config.cache_capacity

(* A full Merkle node record as the cache holds it: its key (2-byte depth +
   32-byte path = 34), its add method (1), and its value in the layout of
   [Value.encode] — a tag byte plus two set pointer slots, each presence (1)
   + key (34) + hash (32) + in_blum (1) = 68, so 137. That is 172 bytes,
   rounded up to 8-byte alignment. *)
let entry_bytes = 176

(* A follower consuming the primary's epoch-certificate stream holds no
   verifier state of its own for the chain — just the last epoch whose
   certificate authenticated. Certificates are HMACs over the epoch number
   alone, so the chain check is: epochs arrive densely in order, and each
   certificate authenticates under the shared secret. Any gap, regression or
   forged byte stops the chain permanently at the offending epoch. *)
module Cert_chain = struct
  type nonrec t = {
    mac_key : Hmac.key;
    mutable verified : int;
    mutable failed : (int * string) option;
  }

  let create ~mac_secret ~verified =
    { mac_key = Hmac.key mac_secret; verified; failed = None }
  let verified_epoch t = t.verified
  let failure t = t.failed

  let check t ~epoch ~cert =
    match t.failed with
    | Some (e, reason) ->
        Error (Printf.sprintf "chain already failed at epoch %d: %s" e reason)
    | None ->
        if epoch <> t.verified + 1 then begin
          let reason =
            Printf.sprintf "expected epoch %d next, got %d" (t.verified + 1)
              epoch
          in
          t.failed <- Some (epoch, reason);
          Error reason
        end
        else if
          not
            (Hmac.verify_with t.mac_key
               (epoch_certificate_message ~epoch)
               ~tag:cert)
        then begin
          let reason =
            Printf.sprintf "epoch %d certificate does not authenticate" epoch
          in
          t.failed <- Some (epoch, reason);
          Error reason
        end
        else begin
          t.verified <- epoch;
          Ok ()
        end
end
