open Fastver_verifier
open Fastver_kvstore
open State
open Gateway

(* ------------------------------------------------------------------ *)
(* Mirror cache management (direct, in-enclave sections)               *)
(* ------------------------------------------------------------------ *)

(* A cached-via-merkle record's value just changed. *)
let mark_stale sh k =
  match Key_lru.find sh.lru k with
  | Some e -> (
      match Key_lru.payload e with
      | Via_merkle m -> m.stale <- true
      | Via_blum -> ())
  | None -> ()

(* Update the host copy of [parent]'s slot with a pointer computed and
   returned by the verifier (the eviction hand-back of §4.3). A slot that
   already holds it is left alone, as the verifier leaves its own: the
   parent neither goes stale nor joins the next checkpoint delta. *)
let apply_ptr sh parent (ptr : Value.ptr) =
  let pe = Tree.get_exn sh.tree parent in
  match pe.value with
  | Value.Node n -> (
      let d = Key.dir ptr.key ~ancestor:parent in
      match Value.slot n d with
      | Some p
        when Key.equal p.key ptr.key && (not p.in_blum)
             && String.equal p.hash ptr.hash ->
          ()
      | Some _ | None ->
          Tree.set_value sh.tree parent pe
            (Value.Node (Value.set_slot n d (Some ptr)));
          mark_stale sh parent)
  | Value.Data _ -> assert false

let mark_in_blum sh parent key =
  let pe = Tree.get_exn sh.tree parent in
  match pe.value with
  | Value.Node n -> (
      let d = Key.dir key ~ancestor:parent in
      match Value.slot n d with
      | Some p when Key.equal p.key key ->
          Tree.set_value sh.tree parent pe
            (Value.Node (Value.set_slot n d (Some { p with in_blum = true })));
          mark_stale sh parent
      | Some _ | None -> assert false)
  | Value.Data _ -> assert false

let decr_parent_children sh parent =
  match Key_lru.find sh.lru parent with
  | Some pe -> Key_lru.decr_children pe
  | None -> assert (Key.equal parent Key.root)

(* Evict one merkle record from the verifier cache (and its mirror). A
   record added via merkle was [M_merkle] at rest all along, so only a
   blum eviction rewrites the tree entry. *)
let evict_mirror _t sh e ~epoch_floor =
  let k = Key_lru.key e in
  assert (Key_lru.children e = 0);
  (match Key_lru.payload e with
  | Via_merkle { parent; _ } ->
      let ptr = ok (Verifier.evict_m sh.verifier ~key:k ~parent) in
      apply_ptr sh parent ptr;
      decr_parent_children sh parent
  | Via_blum ->
      let ts' = Timestamp.max sh.clock (Timestamp.first_of_epoch epoch_floor) in
      ok (Verifier.evict_b sh.verifier ~key:k ~timestamp:ts');
      sh.clock <- ts';
      set_mstate sh k (Tree.get_exn sh.tree k) (M_blum ts'));
  Key_lru.remove sh.lru e

(* Empty [sh]'s verifier cache, children first, landing every blum
   re-eviction at [epoch_floor]. Only the end of [load]'s frontier install
   needs it: scans and checkpoints leave the working set resident. *)
let drain_cache t sh ~epoch_floor =
  while Key_lru.length sh.lru > 0 do
    match Key_lru.victim sh.lru with
    | Some e -> evict_mirror t sh e ~epoch_floor
    | None -> raise (Integrity_violation "cycle in cached merkle records")
  done

(* Store the hash of every stale cached record in its parent's slot,
   deepest first: writing a record back makes its parent stale, and the
   parent, shallower, comes later. The records stay cached. *)
let write_back sh =
  let by_depth = Array.make Key.max_depth [] in
  let push k m = by_depth.(Key.depth k) <- (k, m) :: by_depth.(Key.depth k) in
  Key_lru.iter sh.lru (fun e ->
      match Key_lru.payload e with
      | Via_merkle m when m.stale -> push (Key_lru.key e) m
      | Via_merkle _ | Via_blum -> ());
  for d = Key.max_depth - 1 downto 1 do
    List.iter
      (fun (k, (m : cached_merkle)) ->
        m.stale <- false;
        let ptr =
          ok (Verifier.flush_m sh.verifier ~key:k ~parent:m.parent)
        in
        (match Option.map Key_lru.payload (Key_lru.find sh.lru m.parent) with
        | Some (Via_merkle pm) when not pm.stale -> push m.parent pm
        | Some (Via_merkle _ | Via_blum) | None -> ());
        apply_ptr sh m.parent ptr)
      by_depth.(d)
  done

let ensure_room t sh ?protect () =
  (* Keep two slots of headroom: one for the record being added, one for the
     transient data record of the operation in flight. *)
  while Key_lru.length sh.lru >= Verifier.cache_capacity sh.verifier - 2 do
    match Key_lru.victim ?exclude:protect sh.lru with
    | Some e ->
        (* Evictions must land in the live epoch: during a scan of the
           sealed epoch, an evict timestamped into the sealed epoch would
           add an element the scan's migration can no longer balance. *)
        evict_mirror t sh e ~epoch_floor:(Atomic.get t.live_epoch)
    | None ->
        raise
          (Integrity_violation
             "verifier cache too small for the active merkle chain")
  done

(* Make every merkle record on [path] (root-first, ending at the pointing
   parent) resident in [sh]'s verifier cache; returns the pointing parent.
   [loaded] counts chain records that were not already resident — the
   operation's tier attribution hinges on it. *)
let ensure_chain ?loaded t sh path =
  let note_load () =
    match loaded with Some r -> incr r | None -> ()
  in
  let arr = Array.of_list path in
  let n = Array.length arr in
  (* The deepest node already cached or blum-protected anchors the chain:
     everything below it is plain merkle-protected. Each shard's verifier
     pins its own tree's root, so the root always anchors. *)
  let rec find_anchor i =
    if i < 0 then -1
    else
      let k = arr.(i) in
      if Key.equal k Key.root then i
      else if Key_lru.mem sh.lru k then i
      else
        match (maux sh k).mstate with
        | M_blum _ -> i
        | M_merkle -> find_anchor (i - 1)
  in
  let anchor = find_anchor (n - 1) in
  if anchor < 0 then
    raise (Integrity_violation "routing: chain has no anchor for this shard");
  for j = anchor to n - 1 do
    let k = arr.(j) in
    if Key.equal k Key.root then () (* pinned in the shard's verifier *)
    else
      match Key_lru.find sh.lru k with
      | Some e -> Key_lru.touch sh.lru e
      | None -> (
          let entry = Tree.get_exn sh.tree k in
          match entry.aux.mstate with
          | M_blum ts ->
              note_load ();
              ensure_room t sh ();
              ok
                (Verifier.add_b sh.verifier ~key:k ~value:entry.value
                   ~timestamp:ts);
              mirror_add_b sh ts;
              ignore (Key_lru.add sh.lru k Via_blum)
          | M_merkle ->
              note_load ();
              let parent = arr.(j - 1) in
              ensure_room t sh ~protect:parent ();
              let installed =
                ok
                  (Verifier.add_m sh.verifier ~key:k
                     ~value:entry.value ~parent)
              in
              assert (installed = None);
              ignore
                (Key_lru.add sh.lru k (Via_merkle { parent; stale = false }));
              match Key_lru.find sh.lru parent with
              | Some pe -> Key_lru.incr_children pe
              | None -> assert (Key.equal parent Key.root))
  done;
  arr.(n - 1)

(* ------------------------------------------------------------------ *)
(* Operation processing                                                *)
(* ------------------------------------------------------------------ *)

type action = A_get of meta option | A_put of string option * meta option

exception Raced
(* The record changed protection tier between the optimistic read and the
   lock acquisition (a verification scan migrated it, §5.3's CAS races);
   the operation is retried from routing. *)

(* Fast path: the record rides the deferred tier — one CAS plus three O(1)
   log entries, no Merkle hashing (§5.3). *)
let rec blum_fast t sh key cur ts action =
  (* The evict lands no earlier than the live epoch: never in an epoch a
     scan has already sealed. *)
  let clock' = Timestamp.max sh.clock (Timestamp.next ts) in
  let ts' =
    Timestamp.max clock' (Timestamp.first_of_epoch (Atomic.get t.live_epoch))
  in
  let new_v = match action with A_get _ -> cur | A_put (v, _) -> v in
  if
    Store.try_cas t.store key ~expected_aux:(aux_blum ts) new_v
      ~aux:(aux_blum ts')
  then begin
    sh.clock <- ts';
    push t sh (E_add_b (key, Value.Data cur, ts));
    (match action with
    | A_get meta -> push t sh (E_vget (key, cur, meta))
    | A_put (v, meta) -> push t sh (E_vput (key, v, meta)));
    push t sh (E_evict_b (key, ts'));
    (match action with
    | A_put (v, _) -> repl_op t ~epoch:(Timestamp.epoch ts') ~key ~value:v
    | A_get _ -> ());
    Metrics.tier t.metrics Metrics.Blum;
    cur
  end
  else begin
    (* Another domain won the CAS; retry against the fresh state. *)
    Metrics.cas_retry t.metrics;
    match ok (Store.get t.store key) with
    | Some (cur', aux) when aux_is_blum aux ->
        blum_fast t sh key cur' (aux_timestamp aux) action
    | Some _ | None -> raise Raced
  end

(* Validate the client-visible operation against the cached record. *)
let client_validate t sh key cur action =
  match action with
  | A_get meta ->
      ok (Verifier.vget sh.verifier ~key cur);
      gateway_receipt t ~kind:Auth.Get key cur meta;
      cur
  | A_put (v, meta) ->
      ok (Verifier.vput sh.verifier ~key v);
      gateway_receipt t ~kind:Auth.Put key v meta;
      v

(* Hand the (cached, just-written) data record to the deferred tier for the
   rest of the epoch (§6.1), where later touches take [blum_fast], and tee
   the write to replication. Only writes come here: a read verifies a
   Merkle-protected record in place. *)
let defer_data t sh key parent new_v =
  (* Same live-epoch floor as [blum_fast]. *)
  let ts' =
    Timestamp.max sh.clock (Timestamp.first_of_epoch (Atomic.get t.live_epoch))
  in
  ok (Verifier.evict_bm sh.verifier ~key ~timestamp:ts' ~parent);
  sh.clock <- ts';
  mark_in_blum sh parent key;
  Store.put t.store key new_v ~aux:(aux_blum ts');
  sh.dirty <- key :: sh.dirty;
  sh.dirty_len <- sh.dirty_len + 1;
  repl_op t ~epoch:(Timestamp.epoch ts') ~key ~value:new_v

(* Slow path: the record is merkle-protected (not yet written this epoch),
   or absent. Pays the chain from the nearest blum anchor (§6). Holds the
   shard's lock across the descent and the verification; if the record
   turned blum-protected while we raced for the lock (another domain's
   first write), returns [None] and the caller retries on the fast path. *)
let merkle_slow t sh key action =
  with_shard_lock t sh.sid @@ fun () ->
  let descent = Tree.descend sh.tree key in
  match ok (Store.get t.store key) with
  | Some (_, aux) when aux_is_blum aux -> None
  | store_state ->
  flush_worker t sh;
  let t0 = now () in
  let loaded = ref 0 in
  let result =
    Enclave.call t.enclave (fun () ->
        match (descent.outcome, action) with
        | Tree.Exists, _ ->
            let cur, aux =
              match store_state with Some s -> s | None -> assert false
            in
            assert (Int64.equal aux aux_merkle);
            let parent = ensure_chain ~loaded t sh descent.path in
            let installed =
              ok
                (Verifier.add_m sh.verifier ~key
                   ~value:(Value.Data cur) ~parent)
            in
            assert (installed = None);
            let new_v = client_validate t sh key cur action in
            (match action with
            | A_get _ ->
                (* Verified where it sits: the record stays
                   Merkle-protected, its host copy is not rewritten, and
                   its unchanged hash leaves the parent as it was. *)
                apply_ptr sh parent
                  (ok (Verifier.evict_m sh.verifier ~key ~parent))
            | A_put _ -> defer_data t sh key parent new_v);
            cur
        | (Tree.Empty_slot | Tree.Split _), A_get meta ->
            (* Non-existence proof from the pointing parent (Example 4.1). *)
            let parent = ensure_chain ~loaded t sh descent.path in
            ok (Verifier.vget_absent sh.verifier ~key ~parent);
            gateway_receipt t ~kind:Auth.Get key None meta;
            None
        | Tree.Empty_slot, (A_put (_, _) as action) ->
            let parent = ensure_chain ~loaded t sh descent.path in
            let installed =
              ok
                (Verifier.add_m sh.verifier ~key
                   ~value:(Value.Data None) ~parent)
            in
            (match installed with
            | Some ptr -> apply_ptr sh parent ptr
            | None -> assert false);
            let new_v = client_validate t sh key None action in
            defer_data t sh key parent new_v;
            None
        | Tree.Split pointee, (A_put (_, _) as action) ->
            let parent = ensure_chain ~loaded t sh descent.path in
            (* Fabricate the internal node splitting the edge to [pointee] —
               new chain material, so the op is Merkle-tier regardless of
               cache residency. *)
            incr loaded;
            let node_key = Key.lca key pointee in
            (* Make room first: an eviction may be the pointee itself (a
               cached child of [parent]), and its hand-back rewrites the
               parent's slot that the new node must carry over. *)
            ensure_room t sh ~protect:parent ();
            let pn = Tree.get_exn sh.tree parent in
            let old_ptr =
              match pn.value with
              | Value.Node n -> (
                  match Value.slot n (Key.dir key ~ancestor:parent) with
                  | Some p -> p
                  | None -> assert false)
              | Value.Data _ -> assert false
            in
            assert (Key.equal old_ptr.key pointee);
            let node_value =
              Value.Node
                (Value.set_slot { left = None; right = None }
                   (Key.dir pointee ~ancestor:node_key)
                   (Some old_ptr))
            in
            let installed =
              ok
                (Verifier.add_m sh.verifier ~key:node_key
                   ~value:node_value ~parent)
            in
            Tree.set sh.tree node_key node_value
              ~aux:{ mstate = M_merkle; owner = -1 };
            (match installed with
            | Some ptr -> apply_ptr sh parent ptr
            | None -> assert false);
            ignore
              (Key_lru.add sh.lru node_key
                 (Via_merkle { parent; stale = false }));
            (match Key_lru.find sh.lru parent with
            | Some pe -> Key_lru.incr_children pe
            | None -> assert (Key.equal parent Key.root));
            (* If the displaced pointee is cached via merkle, its pointing
               parent is now the new node. One cached via blum (a frontier
               record) has no parent in the verifier and counts as nobody's
               child. *)
            (match Option.map Key_lru.payload (Key_lru.find sh.lru pointee) with
            | Some (Via_merkle m) ->
                m.parent <- node_key;
                decr_parent_children sh parent;
                (match Key_lru.find sh.lru node_key with
                | Some ne -> Key_lru.incr_children ne
                | None -> assert false)
            | Some Via_blum | None -> ());
            (* Now a plain fresh insert under the new node. *)
            let installed =
              ok
                (Verifier.add_m sh.verifier ~key
                   ~value:(Value.Data None) ~parent:node_key)
            in
            (match installed with
            | Some ptr -> apply_ptr sh node_key ptr
            | None -> assert false);
            let new_v = client_validate t sh key None action in
            defer_data t sh key node_key new_v;
            None)
  in
  t.acc.verifier_time_s <- t.acc.verifier_time_s +. (now () -. t0);
  Metrics.tier t.metrics
    (if !loaded = 0 then Metrics.Cached else Metrics.Merkle);
  Some (result, sh)

let rec process_inner t key action =
  (* Routing is forced by the key: each record belongs to exactly one
     shard, so a worker's log buffer only ever holds entries for its own
     partition — which is what lets a shard close and seal its own epoch
     slice without waiting for the others. *)
  let sh = t.shards.(shard_of_data_key t key) in
  (* Route on the aux word alone: a Merkle-protected record's body is read
     once, under the locks in [merkle_slow], never here. *)
  match Store.aux t.store key with
  | Some aux when aux_is_blum aux -> (
      match ok (Store.get t.store key) with
      | Some (cur, aux) when aux_is_blum aux -> (
          match
            with_shard_lock t sh.sid (fun () ->
                blum_fast t sh key cur (aux_timestamp aux) action)
          with
          | value -> (value, sh)
          | exception Raced -> process_inner t key action)
      | Some _ | None -> process_inner t key action)
  | Some _ | None -> (
      match merkle_slow t sh key action with
      | Some result -> result
      | None ->
          (* lost a first-write race; the record is deferred now *)
          process_inner t key action)

let process t ?(admitted = false) key action =
  (* Admission control runs up front, before any verifier mutation or log
     entry: a put with a forged client MAC or a replayed nonce is rejected
     here with the system state untouched, so one bad request cannot poison
     the epoch for everyone else (needed by the batching server).
     [admitted] skips the check for ops the dispatcher already admitted in
     arrival order on its own domain — re-running it here would burn the
     nonce twice and reject every such put as a replay. *)
  (match action with
  | A_put (v, (Some _ as meta)) when not admitted ->
      gateway_check_put t key v meta
  | A_put _ | A_get _ -> ());
  let t0 = now () in
  let ((_, sh) as result) = process_inner t key action in
  (match action with
  | A_get _ -> Metrics.get_op t.metrics
  | A_put _ -> Metrics.put_op t.metrics);
  t.acc.worker_busy_s.(sh.sid) <-
    t.acc.worker_busy_s.(sh.sid) +. (now () -. t0);
  result
