open Fastver_verifier
open Fastver_kvstore
open State
open Gateway
open Tiers
open Epoch_scan

exception Integrity_violation = State.Integrity_violation

module Config = Config
module Auth = Auth
module Bounded_queue = Bounded_queue

type t = State.t

let create ?(config = Config.default) () =
  let enclave = Enclave.create config.cost_model in
  let cold =
    match cold_of_config config with
    | Ok c -> c
    | Error e -> invalid_arg ("Fastver.create: " ^ e)
  in
  let vconfig = vconfig_of config in
  match
    make ~config ~enclave
      ~shards:
        (Array.init (Config.shards config) (fun sid ->
             mk_shard (Verifier.create ~enclave vconfig) sid))
      ~boundaries:[||]
      ~store:(Store.create ?cold ~codec:Store.option_codec ())
      ~nonces:(Hashtbl.create 8) ~sealed:(Enclave.Sealed_slot.create ())
      ~loaded:false ~live_epoch:0 ~cold
  with
  | Ok t -> t
  | Error e -> invalid_arg ("Fastver.create: " ^ e)

let config t = t.config

type stats = {
  ops : int;
  gets : int;
  puts : int;
  scans : int;
  blum_fast_path : int;
  merkle_path : int;
  verifies : int;
  migrated_data : int;
  migrated_frontier : int;
  verify_time_s : float;
  last_verify_latency_s : float;
  verifier_time_s : float;
  cas_retries : int;
  worker_busy_s : float array;
  serial_s : float;
}

let stats t =
  let c = Metrics.counts t.metrics and a = t.acc in
  {
    ops = c.c_gets + c.c_puts;
    gets = c.c_gets;
    puts = c.c_puts;
    scans = c.c_scans;
    blum_fast_path = c.c_blum;
    merkle_path = c.c_merkle + c.c_cached;
    verifies = c.c_verifies;
    migrated_data = a.migrated_data;
    migrated_frontier = a.migrated_frontier;
    verify_time_s = a.verify_time_s;
    last_verify_latency_s = a.last_verify_latency_s;
    verifier_time_s = a.verifier_time_s;
    cas_retries = c.c_cas_retries;
    worker_busy_s = Array.copy a.worker_busy_s;
    serial_s = a.serial_s;
  }

let registry t = Metrics.registry t.metrics
let n_shards t = Array.length t.shards

let enclave_handle t = t.enclave
let enclave_overhead_ns t = Enclave.charged_ns t.enclave
let cold_stats t = Option.map Store.Cold.stats t.cold
let close_cold t = Option.iter Store.Cold.close t.cold
let current_epoch t = Verifier.current_epoch t.shards.(0).verifier
let verified_epoch = State.verified_epoch

let verifier_failure t =
  Array.fold_left
    (fun acc sh ->
      match acc with Some _ -> acc | None -> Verifier.failure sh.verifier)
    None t.shards

let verifier_stats t =
  let acc =
    {
      Verifier.n_add_m = 0;
      n_evict_m = 0;
      n_add_b = 0;
      n_evict_b = 0;
      n_evict_bm = 0;
      n_vget = 0;
      n_vput = 0;
      n_certificates = 0;
      n_flush_m = 0;
    }
  in
  Array.iter
    (fun sh ->
      let s = Verifier.stats sh.verifier in
      acc.n_add_m <- acc.n_add_m + s.n_add_m;
      acc.n_evict_m <- acc.n_evict_m + s.n_evict_m;
      acc.n_add_b <- acc.n_add_b + s.n_add_b;
      acc.n_evict_b <- acc.n_evict_b + s.n_evict_b;
      acc.n_evict_bm <- acc.n_evict_bm + s.n_evict_bm;
      acc.n_vget <- acc.n_vget + s.n_vget;
      acc.n_vput <- acc.n_vput + s.n_vput;
      acc.n_flush_m <- acc.n_flush_m + s.n_flush_m;
      acc.n_certificates <- max acc.n_certificates s.n_certificates)
    t.shards;
  acc

let live_epoch t = Atomic.get t.live_epoch

let set_replication_hooks t ~on_op ~on_seal =
  t.repl <- Some { on_op; on_seal }

let clear_replication_hooks t = t.repl <- None

let owner_of_key t k = shard_of_data_key t (Key.of_int64 k)

(* Boundaries for an empty load: evenly spaced top-byte cuts. Real loads
   use key quantiles instead (uniform cuts would put every key in one
   shard under [Key.of_int64], which populates the low bits). *)
let synth_boundaries n =
  Array.init (n - 1) (fun i ->
      let b = Bytes.make 32 '\x00' in
      Bytes.set b 0 (Char.chr ((i + 1) * 256 / n mod 256));
      Key.of_bytes32 (Bytes.to_string b))

let verify = Epoch_scan.verify

(* ------------------------------------------------------------------ *)
(* Public operations                                                   *)
(* ------------------------------------------------------------------ *)

let data_key k =
  if not (Key.is_data_key k) then invalid_arg "Fastver: not a data key";
  k

(* Admission for external dispatchers: validate and consume a put's client
   MAC + nonce in arrival order on the dispatching domain, then process the
   op (with [~admitted:true]) on any executor. Splitting admission from
   execution is what keeps per-client nonce monotonicity exact when batches
   execute concurrently. *)
let admit_put t ~client ~nonce ~mac ~key ~value =
  check_loaded t;
  let meta = Some (mk_meta ~client ~nonce ~mac) in
  match gateway_check_put t (data_key (Key.of_int64 key)) value meta with
  | () -> Ok ()
  | exception Integrity_violation e -> Error e

let get_key t k =
  check_loaded t;
  let v, _ = process t (data_key k) (A_get None) in
  maybe_verify t;
  v

let put_key t k v =
  check_loaded t;
  ignore (process t (data_key k) (A_put (Some v, None)));
  maybe_verify t

let delete_key t k =
  check_loaded t;
  ignore (process t (data_key k) (A_put (None, None)));
  maybe_verify t

let get t k = get_key t (Key.of_int64 k)

let put t k v = put_key t (Key.of_int64 k) v
let delete t k = delete_key t (Key.of_int64 k)

let scan t k len =
  check_loaded t;
  Metrics.scan_op t.metrics;
  Array.init len (fun i ->
      let ki = Int64.add k (Int64.of_int i) in
      let v, _ = process t (Key.of_int64 ki) (A_get None) in
      maybe_verify t;
      (ki, v))

let check_epoch_certificate t ~epoch cert =
  Fastver_crypto.Hmac.verify ~key:t.config.mac_secret
    (Verifier.epoch_certificate_message ~epoch)
    ~tag:cert

(* ------------------------------------------------------------------ *)
(* Trusted load                                                        *)
(* ------------------------------------------------------------------ *)

let load t records =
  if t.loaded then invalid_arg "Fastver.load: already loaded";
  let n_sh = Array.length t.shards in
  let keyed = Array.map (fun (k, v) -> (Key.of_int64 k, v)) records in
  (* Range boundaries from key quantiles, so shards start balanced on the
     loaded distribution. Duplicate quantiles (tiny loads) just leave some
     shards empty — routing stays total either way. *)
  let sorted = Array.copy keyed in
  Array.sort (fun (a, _) (b, _) -> Key.compare a b) sorted;
  let len = Array.length sorted in
  t.boundaries <-
    (if len = 0 then synth_boundaries n_sh
     else Array.init (n_sh - 1) (fun i -> fst sorted.((i + 1) * len / n_sh)));
  let buckets = Array.make n_sh [] in
  Array.iter
    (fun (k, v) ->
      let sid = shard_of_data_key t k in
      buckets.(sid) <- (k, Value.Data (Some v)) :: buckets.(sid))
    keyed;
  Array.iter (fun (k, v) -> Store.put t.store k (Some v) ~aux:aux_merkle) keyed;
  Array.iter
    (fun sh ->
      Tree.bulk_build sh.tree ~algo:t.config.algo
        ~aux:(fun _ _ -> { mstate = M_merkle; owner = -1 })
        (Array.of_list buckets.(sh.sid));
      set_mstate sh Key.root (Tree.get_exn sh.tree Key.root) (M_cached sh.sid);
      ok
        (Verifier.install_root sh.verifier
           (Tree.get_exn sh.tree Key.root).value))
    t.shards;
  t.loaded <- true;
  (* Push each shard's depth-d frontier into the deferred tier (§6.2), on
     that shard's own verifier. *)
  Array.iter
    (fun sh ->
      let frontier =
        Tree.frontier sh.tree ~levels:t.config.frontier_levels
        |> List.filter (fun k -> not (Key.equal k Key.root))
        |> List.sort Key.compare
      in
      Enclave.call t.enclave (fun () ->
          List.iter
            (fun f ->
              let entry = Tree.get_exn sh.tree f in
              Tree.set_aux sh.tree f entry { entry.aux with owner = sh.sid };
              sh.frontier <- f :: sh.frontier;
              let descent = Tree.descend sh.tree f in
              assert (descent.outcome = Tree.Exists);
              let parent = ensure_chain t sh descent.path in
              ensure_room t sh ~protect:parent ();
              let installed =
                ok
                  (Verifier.add_m sh.verifier ~key:f
                     ~value:entry.value ~parent)
              in
              assert (installed = None);
              let ts' = sh.clock in
              ok
                (Verifier.evict_bm sh.verifier ~key:f ~timestamp:ts'
                   ~parent);
              mark_in_blum sh parent f;
              set_mstate sh f entry (M_blum ts'))
            frontier;
          (* Clear the chain nodes so every shard starts symmetric. *)
          drain_cache t sh ~epoch_floor:0))
    t.shards

(* ------------------------------------------------------------------ *)
(* Batch driver                                                        *)
(* ------------------------------------------------------------------ *)

let run_ops t gen n =
  let open Fastver_workload in
  let i = ref 0 in
  while !i < n do
    (match Ycsb.next gen with
    | Ycsb.Read k ->
        ignore (get t k);
        incr i
    | Ycsb.Update (k, v) ->
        put t k v;
        incr i
    | Ycsb.Scan (k, len) ->
        ignore (scan t k len);
        i := !i + len)
  done

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

module Session = struct
  type session = {
    sys : t;
    client_id : int;
    auth : Auth.key;
    mutable nonce : int64;
  }

  let connect t ~client_id =
    { sys = t; client_id; auth = Auth.key_of_secret t.config.mac_secret; nonce = 0L }

  type 'v receipt = { value : 'v; nonce : int64; epoch : int; mac : string }

  let take_receipt s sh meta ~kind ~key ~value ~nonce =
    (* The op's receipt cell fills when its log entry flushes; flushing under
       the shard's worker lock also orders any cell write made by a
       concurrent domain's scan before this read. *)
    with_worker_lock s.sys sh.sid (fun () -> flush_worker s.sys sh);
    match !(meta.receipt) with
    | None -> raise (Integrity_violation "missing validation receipt")
    | Some (mac, epoch) ->
        let expected =
          Auth.receipt s.auth ~kind ~client:s.client_id ~nonce key value ~epoch
        in
        if not (Auth.check ~expected mac) then
          raise (Integrity_violation "result MAC check failed");
        (mac, epoch)

  let get s k =
    check_loaded s.sys;
    s.nonce <- Int64.succ s.nonce;
    let nonce = s.nonce in
    let key = Key.of_int64 k in
    let meta = mk_meta ~client:s.client_id ~nonce ~mac:"" in
    let value, sh = process s.sys key (A_get (Some meta)) in
    let mac, epoch = take_receipt s sh meta ~kind:Auth.Get ~key ~value ~nonce in
    maybe_verify s.sys;
    { value; nonce; epoch; mac }

  let put s k v =
    check_loaded s.sys;
    s.nonce <- Int64.succ s.nonce;
    let nonce = s.nonce in
    let key = Key.of_int64 k in
    let mac = Auth.put_request s.auth ~client:s.client_id ~nonce key v in
    let meta = mk_meta ~client:s.client_id ~nonce ~mac in
    let _, sh = process s.sys key (A_put (Some v, Some meta)) in
    let mac, epoch =
      take_receipt s sh meta ~kind:Auth.Put ~key ~value:(Some v) ~nonce
    in
    maybe_verify s.sys;
    { value = (); nonce; epoch; mac }

  let await_certainty s r =
    while verified_epoch s.sys < r.epoch do
      (* [verify_pair] reports which epoch the certificate covers — reading
         the verifier's current epoch separately would race a concurrent
         scan and check the certificate against the wrong epoch. *)
      let epoch, cert = verify_pair s.sys in
      if not (check_epoch_certificate s.sys ~epoch cert) then
        raise (Integrity_violation "bad epoch certificate")
    done
end

(* ------------------------------------------------------------------ *)
(* Batch submission (network serving path)                             *)
(* ------------------------------------------------------------------ *)

module Batch = struct
  type op =
    | Get of { client : int; nonce : int64; key : int64 }
    | Put of { client : int; nonce : int64; mac : string; key : int64;
               value : string option }
    | Scan of { client : int; nonce : int64; start : int64; len : int }

  type item = {
    ikey : int64;
    ivalue : string option;
    mutable iepoch : int;
    mutable imac : string;
  }

  type reply =
    | Got of item
    | Put_done of item
    | Scanned of item array
    | Failed of string

  (* One elementary validated operation (a scan of length n is n of them),
     waiting for its receipt cell to fill when its log entry flushes. *)
  type pending = { p_meta : meta option; p_item : item; p_op : int }

  let submit ?(pre_admitted = false) t ops =
    check_loaded t;
    let auth = t.config.authenticate_clients in
    let n = Array.length ops in
    let errors = Array.make n None in
    let pendings = ref [] (* newest first *) in
    let meta_of ~client ~nonce ~mac =
      if auth then Some (mk_meta ~client ~nonce ~mac) else None
    in
    let touched = Array.make (Array.length t.shards) false in
    let one i action ~client ~nonce ~mac key =
      let meta = meta_of ~client ~nonce ~mac in
      let returned, sh =
        process t ~admitted:pre_admitted
          (data_key (Key.of_int64 key))
          (match action with
          | `Get -> A_get meta
          | `Put v -> A_put (v, meta))
      in
      touched.(sh.sid) <- true;
      (* what the receipt MAC covers: the read value for gets, the new
         value for puts (process returns the overwritten value) *)
      let value = match action with `Get -> returned | `Put v -> v in
      let item = { ikey = key; ivalue = value; iepoch = 0; imac = "" } in
      pendings := { p_meta = meta; p_item = item; p_op = i } :: !pendings;
      maybe_verify t;
      item
    in
    let replies =
      Array.mapi
        (fun i op ->
          match op with
          | Get { client; nonce; key } -> (
              match one i `Get ~client ~nonce ~mac:"" key with
              | item -> Got item
              | exception Integrity_violation e ->
                  errors.(i) <- Some e;
                  Failed e)
          | Put { client; nonce; mac; key; value } -> (
              match one i (`Put value) ~client ~nonce ~mac key with
              | item -> Put_done item
              | exception Integrity_violation e ->
                  errors.(i) <- Some e;
                  Failed e)
          | Scan { client; nonce; start; len } -> (
              Metrics.scan_op t.metrics;
              let items = ref [] in
              match
                for j = 0 to len - 1 do
                  let k = Int64.add start (Int64.of_int j) in
                  items := one i `Get ~client ~nonce ~mac:"" k :: !items
                done
              with
              | () -> Scanned (Array.of_list (List.rev !items))
              | exception Integrity_violation e ->
                  errors.(i) <- Some e;
                  Failed e))
        ops
    in
    (* One drain per shard this batch actually ran on covers every receipt:
       this is where the enclave-transition amortisation happens (§7) —
       and flushing only touched shards means a batch confined to one
       partition never blocks on another partition's (possibly stalled)
       executor. A violation here is real tampering surfacing on a deferred
       validation; ops whose receipts never materialise are failed below. *)
    let flush_error =
      match
        Array.iteri
          (fun sid sh ->
            if touched.(sid) then
              with_worker_lock t sid (fun () -> flush_worker t sh))
          t.shards
      with
      | () -> None
      | exception Integrity_violation e -> Some e
    in
    (if auth then
       (* Live epoch, not the verifier's: a concurrent scan keeps the
          sealed epoch open in the verifier after bumping the live one; a
          later fallback stamp is merely conservative. *)
       let fallback_epoch = Atomic.get t.live_epoch in
       List.iter
         (fun p ->
           (* The flush above took every touched shard's worker lock, which
              also orders any receipt-cell write made by a concurrent
              domain's verification scan before these reads. *)
           match p.p_meta with
           | None -> assert false
           | Some m -> (
               match !(m.receipt) with
               | Some (mac, epoch) ->
                   p.p_item.imac <- mac;
                   p.p_item.iepoch <- epoch
               | None ->
                   p.p_item.iepoch <- fallback_epoch;
                   if errors.(p.p_op) = None then
                     errors.(p.p_op) <-
                       Some
                         (Option.value flush_error
                            ~default:"validation receipt missing")))
         !pendings
     else
       let epoch = Atomic.get t.live_epoch in
       List.iter (fun p -> p.p_item.iepoch <- epoch) !pendings);
    Array.mapi
      (fun i reply ->
        match errors.(i) with Some e -> Failed e | None -> reply)
      replies
end

let checkpoint = Durability.checkpoint
let recover = Durability.recover
let err_no_checkpoint = Durability.err_no_checkpoint
let checkpoint_chain = Durability.chain_generations

module String_keys = struct
  let key s =
    Key.of_bytes32 (Fastver_crypto.Sha256.digest ("fastver-skey:" ^ s))

  let get t k = get_key t (key k)
  let put t k v = put_key t (key k) v
  let delete t k = delete_key t (key k)
end

let set_auto_checkpoint t ~dir =
  t.on_verified <-
    Some
      (fun () ->
        match checkpoint t ~dir with
        | Ok () -> ()
        | Error e -> Logs.warn (fun m -> m "auto-checkpoint: %s" e))

let clear_auto_checkpoint t = t.on_verified <- None

(* Promotion support: a store created as a replication follower runs with
   batch_size 0 (its epochs are sealed by the primary's stream). When the
   follower wins an election it must start sealing epochs itself again, so
   the new primary's boundary records flow. *)
let set_batch_size t n =
  if n < 0 then invalid_arg "Fastver.set_batch_size: negative batch size";
  t.config <- { t.config with Config.batch_size = n }

(* ------------------------------------------------------------------ *)
(* Parallel runtime (§5.3, §7 thread model)                            *)
(* ------------------------------------------------------------------ *)

module Parallel = struct
  exception Worker_failed of int * exn

  let () =
    Printexc.register_printer (function
      | Worker_failed (wid, e) ->
          Some
            (Printf.sprintf "Parallel.Worker_failed(worker %d, %s)" wid
               (Printexc.to_string e))
      | _ -> None)

  (* SplitMix64 finaliser mixing the worker id into the configured seed.
     The previous [seed + wid * 7919] made configured seeds differing by a
     multiple of 7919 replay each other's worker streams shifted by one
     worker; a bijective avalanche mix decorrelates every (seed, wid)
     pair. *)
  let mix_seed seed wid =
    let z =
      ref
        (Int64.add (Int64.of_int seed)
           (Int64.mul (Int64.of_int (wid + 1)) 0x9e3779b97f4a7c15L))
    in
    z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 30))
           0xbf58476d1ce4e5b9L;
    z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 27))
           0x94d049bb133111ebL;
    z := Int64.logxor !z (Int64.shift_right_logical !z 31);
    Int64.to_int (Int64.logand !z 0x3fffffffffffffffL)

  let run_ycsb t ~spec ~db_size ~ops_per_worker =
    check_loaded t;
    let open Fastver_workload in
    (* Driver domains: [n_workers] of them. Each operation still routes to
       its key's shard — the domains only generate and drive traffic. *)
    let n = max 1 t.config.n_workers in
    let failures = Array.make n None in
    let body wid () =
      let gen =
        Ycsb.create ~seed:(mix_seed t.config.seed wid) ~db_size spec
      in
      try
        let i = ref 0 in
        while !i < ops_per_worker do
          (match Ycsb.next gen with
          | Ycsb.Read k ->
              ignore (process t (Key.of_int64 k) (A_get None));
              incr i
          | Ycsb.Update (k, v) ->
              ignore (process t (Key.of_int64 k) (A_put (Some v, None)));
              incr i
          | Ycsb.Scan (k, len) ->
              for j = 0 to len - 1 do
                ignore
                  (process t
                     (Key.of_int64 (Int64.add k (Int64.of_int j)))
                     (A_get None))
              done;
              i := !i + len);
          maybe_verify t
        done
      with e -> failures.(wid) <- Some e
    in
    let domains = Array.init (n - 1) (fun i -> Domain.spawn (body (i + 1))) in
    body 0 ();
    Array.iter Domain.join domains;
    Array.iteri
      (fun wid failure ->
        match failure with
        | Some e -> raise (Worker_failed (wid, e))
        | None -> ())
      failures
end

(* ------------------------------------------------------------------ *)
(* Failure injection for adversarial tests                             *)
(* ------------------------------------------------------------------ *)

module Testing = struct
  let corrupt_store t k value =
    let key = Key.of_int64 k in
    match Store.get t.store key with
    | Ok (Some (_, aux)) -> Store.put t.store key value ~aux
    | Ok None | Error _ -> Store.put t.store key value ~aux:aux_merkle

  let corrupt_merkle_record t k =
    let rec entry_of sid =
      if sid >= Array.length t.shards then
        invalid_arg "corrupt_merkle_record: key not present"
      else
        match Tree.find t.shards.(sid).tree k with
        | Some e -> (t.shards.(sid).tree, e)
        | None -> entry_of (sid + 1)
    in
    let tree, e = entry_of 0 in
    match e.value with
    | Value.Node { left = Some p; right } ->
        Tree.set_value tree k e
          (Value.Node { left = Some { p with hash = String.make 32 'Z' }; right })
    | Value.Node { left = None; right = Some p } ->
        Tree.set_value tree k e
          (Value.Node { left = None; right = Some { p with hash = String.make 32 'Z' } })
    | Value.Node { left = None; right = None } | Value.Data _ ->
        invalid_arg "corrupt_merkle_record: nothing to corrupt"

  let some_merkle_key t =
    let found = ref None in
    Array.iter
      (fun sh ->
        Tree.iter sh.tree (fun k e ->
            if !found = None && (not (Key.equal k Key.root)) then
              match e.aux.mstate with M_merkle -> found := Some k | _ -> ()))
      t.shards;
    !found

  let store_contents t =
    let acc = ref [] in
    (match
       Store.iter_live t.store (fun k v aux -> acc := (k, v, aux) :: !acc)
     with
    | Ok () -> ()
    | Error e -> failwith e);
    List.sort (fun (a, _, _) (b, _, _) -> Key.compare a b) !acc

  let tree_entries t sid =
    let sh = t.shards.(sid) in
    let vts = Durability.virtual_evict_ts t sh in
    let acc = ref [] in
    Tree.iter sh.tree (fun k (e : maux Tree.entry) ->
        let st =
          match Durability.image_mstate sh ~vts k e with
          | M_merkle -> "merkle"
          | M_blum ts -> Printf.sprintf "blum %Ld" ts
          | M_cached _ -> "cached"
        in
        acc := (k, e.value, st, e.aux.owner) :: !acc);
    List.sort (fun (a, _, _, _) (b, _, _, _) -> Key.compare a b) !acc

  let pending t =
    Array.fold_left
      (fun (dirty, stale) sh ->
        ( dirty + sh.dirty_len,
          Key.Tbl.fold
            (fun _ via n ->
              match via with Via_merkle { stale = true; _ } -> n + 1 | _ -> n)
            sh.via stale ))
      (0, 0) t.shards

  let drain_caches t =
    with_lock t.verify_mutex @@ fun () ->
    lock_world t;
    Fun.protect ~finally:(fun () -> unlock_world t) @@ fun () ->
    Array.iter
      (fun sh ->
        flush_worker t sh;
        drain_cache t sh ~epoch_floor:(Atomic.get t.live_epoch))
      t.shards

  let sealed_payload t = Enclave.Sealed_slot.load t.sealed

  let chain t k =
    let key = Key.of_int64 k in
    let sh = t.shards.(shard_of_data_key t key) in
    List.map
      (fun p -> (p, Key.equal p Key.root || Key_lru.mem sh.lru p))
      (Tree.descend sh.tree key).path

  (* Lock-order assertion hooks: with enforcement on, every acquisition in
     the core checks the documented order — shard tree locks ascending,
     then worker locks ascending, with [cold_lock] as an annotated leaf —
     and these helpers let tests provoke violations directly. *)
  let enforce_lock_order on = Atomic.set Lock_order.enforce on
  let with_shard_lock t sid f = with_shard_lock t sid f
  let with_worker_lock t wid f = with_worker_lock t wid f
  let with_cold_lock t f = with_cold_lock t f
end
