open Fastver_crypto

type config = {
  cache_capacity : int;
  algo : Record_enc.algo;
  mac_secret : string;
  mset_secret : string;
}

let default_config =
  {
    cache_capacity = 512;
    algo = Record_enc.Blake2s;
    mac_secret = "fastver-default-client-secret";
    mset_secret = "fastver-mset-k3y";
  }

type add_method = Via_merkle | Via_blum

(* [stale]: a Merkle-added record whose value has changed since its hash
   was last written to its parent's slot. *)
type cache_entry = {
  mutable value : Value.t;
  mutable added_via : add_method;
  mutable stale : bool;
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
  mutable n_flush_m : int;
}

type t = {
  config : config;
  enclave : Enclave.t;
  cache : cache_entry Key.Tbl.t;
  mutable clock : Timestamp.t;
  mutable closed_through : int; (* no more set elements for epochs <= this *)
  add_sets : (int, Multiset_hash.t) Hashtbl.t;
  evict_sets : (int, Multiset_hash.t) Hashtbl.t;
  mutable n_stale : int; (* cached entries with [stale] set *)
  mac_key : Hmac.key; (* [config.mac_secret]: certificate MACs *)
  mset_key : Multiset_hash.key;
  mutable verified : int;
  mutable failure : string option;
  mutable ops_processed : int;
  stats : op_stats;
}

let create ?enclave config =
  if config.cache_capacity < 2 then invalid_arg "Verifier.create: capacity";
  if String.length config.mset_secret <> 16 then
    invalid_arg "Verifier.create: mset_secret must be 16 bytes";
  let enclave =
    match enclave with
    | Some e -> e
    | None -> Enclave.create Cost_model.zero
  in
  let cache = Key.Tbl.create 64 in
  (* The root record is pinned and never evicted. *)
  Key.Tbl.replace cache Key.root
    { value = Value.empty_node; added_via = Via_merkle; stale = false };
  {
    config;
    enclave;
    cache;
    clock = Timestamp.zero;
    closed_through = -1;
    add_sets = Hashtbl.create 4;
    evict_sets = Hashtbl.create 4;
    n_stale = 0;
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
        n_flush_m = 0;
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

let parent_node t ~key ~parent =
  if not (Key.is_proper_ancestor parent key) then
    fail t "%a is not a proper ancestor of %a" Key.pp parent Key.pp key
  else
    match Key.Tbl.find_opt t.cache parent with
    | None -> fail t "parent %a not in cache" Key.pp parent
    | Some ({ value = Value.Node n; _ } as entry) -> Ok (entry, n)
    | Some { value = Value.Data _; _ } ->
        fail t "parent %a holds a data value" Key.pp parent

(* Every change to a cached value goes through here. A Merkle-added
   record becomes stale; the pinned root has no parent slot and never
   does. *)
let set_value t key entry value =
  entry.value <- value;
  if
    (not entry.stale) && entry.added_via = Via_merkle
    && not (Key.equal key Key.root)
  then begin
    entry.stale <- true;
    t.n_stale <- t.n_stale + 1
  end

let uncache t key entry =
  if entry.stale then t.n_stale <- t.n_stale - 1;
  Key.Tbl.remove t.cache key

let add_m t ~key ~value ~parent =
  let* () = guard t in
  t.stats.n_add_m <- t.stats.n_add_m + 1;
  if Key.equal key Key.root then fail t "add_m: root is pinned"
  else if not (Value.compatible key value) then
    fail t "add_m: value incompatible with key %a" Key.pp key
  else if Key.Tbl.mem t.cache key then
    fail t "add_m: %a already cached" Key.pp key
  else if Key.Tbl.length t.cache >= t.config.cache_capacity then
    fail t "add_m: cache full"
  else
    let* parent_entry, n = parent_node t ~key ~parent in
    let d = Key.dir key ~ancestor:parent in
    let finish installed =
      Key.Tbl.replace t.cache key
        { value; added_via = Via_merkle; stale = false };
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
          set_value t parent parent_entry
            (Value.Node (Value.set_slot n d (Some ptr)));
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
            set_value t parent parent_entry
              (Value.Node (Value.set_slot n d (Some ptr')));
            finish (Some ptr')
          end
        end
        else
          fail t "add_m: slot of %a points to unrelated key %a" Key.pp parent
            Key.pp pointee

let evict_m t ~key ~parent =
  let* () = guard t in
  t.stats.n_evict_m <- t.stats.n_evict_m + 1;
  if Key.equal key Key.root then fail t "evict_m: root is pinned"
  else
    match Key.Tbl.find_opt t.cache key with
    | None -> fail t "evict_m: %a not cached" Key.pp key
    | Some entry ->
        let* parent_entry, n = parent_node t ~key ~parent in
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
            set_value t parent parent_entry
              (Value.Node (Value.set_slot n d (Some ptr)));
            uncache t key entry;
            Ok ptr
        | Some _ | None ->
            fail t "evict_m: %a does not point to %a" Key.pp parent Key.pp key)

(* [evict_m] then [add_m] of the same value, fused: the parent's slot
   takes the record's hash and the record stays cached, no longer stale.
   The add half cannot fail — the slot now holds exactly this hash — so
   the pair needs no room in the cache. *)
let flush_m t ~key ~parent =
  let* () = guard t in
  t.stats.n_flush_m <- t.stats.n_flush_m + 1;
  if Key.equal key Key.root then fail t "flush_m: root is pinned"
  else
    match Key.Tbl.find_opt t.cache key with
    | None -> fail t "flush_m: %a not cached" Key.pp key
    | Some { added_via = Via_blum; _ } ->
        fail t "flush_m: %a was added via blum" Key.pp key
    | Some entry -> (
        let* parent_entry, n = parent_node t ~key ~parent in
        let d = Key.dir key ~ancestor:parent in
        match Value.slot n d with
        | Some { Value.key = pointee; _ } when Key.equal pointee key ->
            let ptr =
              { Value.key; hash = hash_value t entry.value; in_blum = false }
            in
            set_value t parent parent_entry
              (Value.Node (Value.set_slot n d (Some ptr)));
            if entry.stale then begin
              entry.stale <- false;
              t.n_stale <- t.n_stale - 1
            end;
            Ok ptr
        | Some _ | None ->
            fail t "flush_m: %a does not point to %a" Key.pp parent Key.pp key)

let add_b t ~key ~value ~timestamp =
  let* () = guard t in
  t.stats.n_add_b <- t.stats.n_add_b + 1;
  let epoch = Timestamp.epoch timestamp in
  if Key.equal key Key.root then fail t "add_b: root is pinned"
  else if not (Value.compatible key value) then
    fail t "add_b: value incompatible with key %a" Key.pp key
  else if Key.Tbl.mem t.cache key then
    fail t "add_b: %a already cached" Key.pp key
  else if Key.Tbl.length t.cache >= t.config.cache_capacity then
    fail t "add_b: cache full"
  else if epoch <= t.verified then
    fail t "add_b: timestamp epoch %d already verified" epoch
  else if epoch <= t.closed_through then
    fail t "add_b: epoch %d already closed" epoch
  else begin
    Multiset_hash.add
      (set_hash t.add_sets epoch t.mset_key)
      (Record_enc.blum_element key value timestamp);
    t.clock <- Timestamp.max t.clock (Timestamp.next timestamp);
    Key.Tbl.replace t.cache key { value; added_via = Via_blum; stale = false };
    Ok ()
  end

(* Shared tail of evict_b / evict_bm: fold the evict element, advance the
   clock, drop the cache entry. *)
let evict_to_blum t ~key ~(entry : cache_entry) ~timestamp =
  let epoch = Timestamp.epoch timestamp in
  if Timestamp.compare timestamp t.clock < 0 then
    fail t "evict to blum: timestamp %a behind clock %a"
      Timestamp.pp timestamp Timestamp.pp t.clock
  else if epoch <= t.verified then
    fail t "evict to blum: epoch %d already verified" epoch
  else if epoch <= t.closed_through then
    fail t "evict to blum: epoch %d already closed" epoch
  else begin
    Multiset_hash.add
      (set_hash t.evict_sets epoch t.mset_key)
      (Record_enc.blum_element key entry.value timestamp);
    t.clock <- timestamp;
    uncache t key entry;
    Ok ()
  end

let evict_b t ~key ~timestamp =
  let* () = guard t in
  t.stats.n_evict_b <- t.stats.n_evict_b + 1;
  match Key.Tbl.find_opt t.cache key with
  | None -> fail t "evict_b: %a not cached" Key.pp key
  | Some entry -> (
      match entry.added_via with
      | Via_merkle ->
          fail t "evict_b: %a was added via merkle (must use evict_bm)" Key.pp
            key
      | Via_blum -> evict_to_blum t ~key ~entry ~timestamp)

let evict_bm t ~key ~timestamp ~parent =
  let* () = guard t in
  t.stats.n_evict_bm <- t.stats.n_evict_bm + 1;
  match Key.Tbl.find_opt t.cache key with
  | None -> fail t "evict_bm: %a not cached" Key.pp key
  | Some entry -> (
      match entry.added_via with
      | Via_blum ->
          fail t "evict_bm: %a was added via blum (must use evict_b)" Key.pp
            key
      | Via_merkle -> (
          let* parent_entry, n = parent_node t ~key ~parent in
          let d = Key.dir key ~ancestor:parent in
          match Value.slot n d with
          | Some ({ Value.key = pointee; in_blum = false; _ } as ptr)
            when Key.equal pointee key ->
              (* The stale hash stays; the [in_blum] mark invalidates it for
                 future add_m until an evict_m refreshes it. *)
              set_value t parent parent_entry
                (Value.Node
                   (Value.set_slot n d (Some { ptr with in_blum = true })));
              evict_to_blum t ~key ~entry ~timestamp
          | Some { Value.key = pointee; in_blum = true; _ }
            when Key.equal pointee key ->
              fail t "evict_bm: %a already marked in_blum" Key.pp key
          | Some _ | None ->
              fail t "evict_bm: %a does not point to %a" Key.pp parent Key.pp
                key))

let vget t ~key value =
  let* () = guard t in
  t.stats.n_vget <- t.stats.n_vget + 1;
  if not (Key.is_data_key key) then fail t "vget: %a not a data key" Key.pp key
  else
    match Key.Tbl.find_opt t.cache key with
    | None -> fail t "vget: %a not cached" Key.pp key
    | Some { value = Value.Data v; _ } ->
        if Option.equal String.equal v value then Ok ()
        else fail t "vget: stale or tampered value for %a" Key.pp key
    | Some { value = Value.Node _; _ } ->
        fail t "vget: merkle value under data key %a" Key.pp key

let vget_absent t ~key ~parent =
  let* () = guard t in
  t.stats.n_vget <- t.stats.n_vget + 1;
  if not (Key.is_data_key key) then
    fail t "vget_absent: %a not a data key" Key.pp key
  else
    let* _, n = parent_node t ~key ~parent in
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

let vput t ~key value =
  let* () = guard t in
  t.stats.n_vput <- t.stats.n_vput + 1;
  if not (Key.is_data_key key) then fail t "vput: %a not a data key" Key.pp key
  else
    match Key.Tbl.find_opt t.cache key with
    | None -> fail t "vput: %a not cached" Key.pp key
    | Some entry ->
        set_value t key entry (Value.Data value);
        Ok ()

let close_epoch t ~epoch =
  let* () = guard t in
  if epoch <> t.closed_through + 1 then
    fail t "close_epoch: must close epoch %d next"
      (t.closed_through + 1)
  else begin
    t.closed_through <- epoch;
    t.clock <- Timestamp.max t.clock (Timestamp.first_of_epoch (epoch + 1));
    Ok ()
  end

let epoch_certificate_message ~epoch =
  Printf.sprintf "fastver-epoch-verified:%d" epoch

(* Takes [epoch]'s add and evict set hashes out of the open tables and
   checks that they balance: every record read from Blum protection in the
   epoch was written to it, with the same value and timestamp. Advances
   {!verified_epoch} and counts one certificate on success. *)
let seal t ~what ~epoch =
  let* () = guard t in
  if epoch <> t.verified + 1 then
    fail t "%s: expected epoch %d" what (t.verified + 1)
  else if t.closed_through < epoch then
    fail t "%s: epoch %d not closed" what epoch
  else begin
    let take sets =
      match Hashtbl.find_opt sets epoch with
      | Some h ->
          Hashtbl.remove sets epoch;
          Multiset_hash.value h
      | None -> Multiset_hash.empty_value
    in
    let add = take t.add_sets in
    let evict = take t.evict_sets in
    if not (Multiset_hash.equal_value add evict) then
      fail t "%s: add/evict multiset mismatch in epoch %d" what epoch
    else begin
      t.verified <- epoch;
      t.stats.n_certificates <- t.stats.n_certificates + 1;
      Ok (add, evict)
    end
  end

let verify_epoch t ~epoch =
  let* _ = seal t ~what:"verify_epoch" ~epoch in
  Ok (Hmac.mac_with t.mac_key (epoch_certificate_message ~epoch))

(* Sharded stores (§5.3 extended across trees): each shard runs its own
   verifier over a disjoint keyspace slice. Sealing an epoch is two-level:
   every shard checks its local add/evict balance and exports its (add,
   evict) values; the store-level certificate then folds the per-shard
   values order-independently and signs the unchanged store-level message
   — so the aggregated certificate is bit-identical whether one shard or N
   produced it. *)
let seal_epoch_shard t ~shard ~epoch =
  seal t ~what:(Printf.sprintf "seal_epoch: shard %d" shard) ~epoch

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

let root_entry t = Key.Tbl.find t.cache Key.root

let install_root t value =
  let* () = guard t in
  t.ops_processed <- t.ops_processed - 1;
  if t.ops_processed > 0 || t.verified >= 0 then
    fail t "install_root: verifier already in use"
  else
    match value with
    | Value.Data _ -> fail t "install_root: root must be a merkle value"
    | Value.Node _ ->
        (root_entry t).value <- value;
        Ok ()

let install_blum t ~key ~value ~timestamp =
  let* () = guard t in
  t.ops_processed <- t.ops_processed - 1;
  if t.ops_processed > 0 || t.verified >= 0 then
    fail t "install_blum: verifier already in use"
  else if not (Value.compatible key value) then
    fail t "install_blum: value incompatible with key %a" Key.pp key
  else begin
    Multiset_hash.add
      (set_hash t.evict_sets (Timestamp.epoch timestamp) t.mset_key)
      (Record_enc.blum_element key value timestamp);
    t.clock <- Timestamp.max t.clock timestamp;
    Ok ()
  end

(* Summary layout: verified(8) | root_len(4) root_enc | clock(8) closed(8)
   n_epochs(4) { epoch(8) add(16) evict(16) }.

   The summary describes the state an eviction of every cached record
   would leave, without evicting any. A clean Merkle-added record is
   already what its parent's slot says, so its [evict_m] would change
   nothing; a stale one would, so the summary is refused while any is
   stale. Each blum-added record is folded in as an [evict_b] at
   [max clock floor] — into a copy of the clock and of that epoch's evict
   set — so the caller must record those records as blum-protected at
   that timestamp. *)
let checkpoint_summary t ~floor =
  let* () = guard t in
  t.ops_processed <- t.ops_processed - 1;
  (* The clock and evict sets after the virtual evictions. *)
  let virtual_evicts () =
    let blum =
      Key.Tbl.fold
        (fun key e acc ->
          if e.added_via = Via_blum then (key, e.value) :: acc else acc)
        t.cache []
    in
    let ts = Timestamp.max t.clock floor in
    let epoch = Timestamp.epoch ts in
    if blum = [] then Ok (t.clock, t.evict_sets)
    else if epoch <= t.verified || epoch <= t.closed_through then
      Error
        (Printf.sprintf
           "checkpoint_summary: cannot evict into closed epoch %d" epoch)
    else begin
      let h =
        match Hashtbl.find_opt t.evict_sets epoch with
        | Some h -> Multiset_hash.of_value t.mset_key (Multiset_hash.value h)
        | None -> Multiset_hash.create t.mset_key
      in
      List.iter
        (fun (key, value) ->
          Multiset_hash.add h (Record_enc.blum_element key value ts))
        blum;
      let evict_sets = Hashtbl.copy t.evict_sets in
      Hashtbl.replace evict_sets epoch h;
      Ok (ts, evict_sets)
    end
  in
  if t.n_stale > 0 then
    Error
      (Printf.sprintf "checkpoint_summary: %d stale merkle records cached"
         t.n_stale)
  else
    let* clock, evict_sets = virtual_evicts () in
    let buf = Buffer.create 256 in
    let u64 v = Buffer.add_string buf (Bytes_util.string_of_u64_le v) in
    let u32 v =
      let b = Bytes.create 4 in
      Bytes.set_int32_le b 0 (Int32.of_int v);
      Buffer.add_bytes buf b
    in
    u64 (Int64.of_int t.verified);
    let root_enc = Value.encode (root_entry t).value in
    u32 (String.length root_enc);
    Buffer.add_string buf root_enc;
    u64 clock;
    u64 (Int64.of_int t.closed_through);
    let epochs =
      List.sort_uniq Stdlib.compare
        (Hashtbl.fold (fun e _ acc -> e :: acc) t.add_sets []
        @ Hashtbl.fold (fun e _ acc -> e :: acc) evict_sets [])
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
        Buffer.add_string buf (v t.add_sets);
        Buffer.add_string buf (v evict_sets))
      epochs;
    Ok (Buffer.contents buf)

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
    | Ok (Value.Node _ as v) -> (root_entry t).value <- v
    | Ok (Value.Data _) -> failwith "root is a data value"
    | Error e -> failwith e);
    t.clock <- u64 ();
    t.closed_through <- Int64.to_int (u64 ());
    let n_epochs = u32 () in
    for _ = 1 to n_epochs do
      let e = Int64.to_int (u64 ()) in
      let add = str 16 and evict = str 16 in
      if not (Multiset_hash.equal_value add Multiset_hash.empty_value) then
        Hashtbl.replace t.add_sets e (Multiset_hash.of_value t.mset_key add);
      if not (Multiset_hash.equal_value evict Multiset_hash.empty_value) then
        Hashtbl.replace t.evict_sets e
          (Multiset_hash.of_value t.mset_key evict)
    done;
    if !pos <> String.length summary then fail "trailing bytes" else Ok t
  with
  | Invalid_argument _ -> fail "truncated"
  | Failure msg -> fail msg

let cached t key = Option.map (fun e -> e.value) (Key.Tbl.find_opt t.cache key)
let cache_size t = Key.Tbl.length t.cache
let clock t = t.clock
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
