open Fastver_verifier

exception Failed of string

let ok = function Ok x -> x | Error e -> raise (Failed e)

type variant = [ `Plain | `Cached of int | `Propagate_to_root of int ]

type maux = { mutable cached : bool }

type t = {
  verifier : Verifier.t;
  tree : maux Tree.t;
  data : (int64, string option) Hashtbl.t; (* host copy of data values *)
  lru : Key_lru.t;
  parents : Key.t Key.Tbl.t;
  capacity : int;
  propagate : bool;
  evict_all : bool;
  algo : Record_enc.algo;
  mutable ops : int;
  mutable verifier_time : float;
}

let now = Unix.gettimeofday

let create ?(algo = Record_enc.Blake2s) variant records =
  let capacity, propagate, evict_all =
    match variant with
    | `Plain -> (300, false, true) (* room for one root-to-leaf chain *)
    | `Cached n -> (n, false, false)
    | `Propagate_to_root n -> (n, true, false)
  in
  let verifier =
    Verifier.create
      {
        Verifier.default_config with
        cache_capacity = capacity + 2;
        algo;
      }
  in
  let tree = Tree.create ~root_aux:{ cached = true } in
  let data = Hashtbl.create (Array.length records * 2) in
  Tree.bulk_build tree ~algo
    ~aux:(fun _ _ -> { cached = false })
    (Array.map (fun (k, v) -> (Key.of_int64 k, Value.Data (Some v))) records);
  (Tree.get_exn tree Key.root).aux.cached <- true;
  Array.iter (fun (k, v) -> Hashtbl.replace data k (Some v)) records;
  ok (Verifier.install_root verifier (Tree.get_exn tree Key.root).value);
  {
    verifier;
    tree;
    data;
    lru = Key_lru.create ();
    parents = Key.Tbl.create 64;
    capacity;
    propagate;
    evict_all;
    algo;
    ops = 0;
    verifier_time = 0.0;
  }

let apply_ptr t parent (ptr : Value.ptr) =
  let pe = Tree.get_exn t.tree parent in
  match pe.value with
  | Value.Node n ->
      let d = Key.dir ptr.key ~ancestor:parent in
      Tree.set_value t.tree parent pe
        (Value.Node (Value.set_slot n d (Some ptr)))
  | Value.Data _ -> assert false

let evict_one t e =
  let k = Key_lru.key e in
  let parent = Key.Tbl.find t.parents k in
  let ptr = ok (Verifier.evict_m t.verifier ~tid:0 ~key:k ~parent) in
  apply_ptr t parent ptr;
  (match Key_lru.find t.lru parent with
  | Some pe -> Key_lru.decr_children pe
  | None -> assert (Key.equal parent Key.root));
  Key_lru.remove t.lru e;
  Key.Tbl.remove t.parents k;
  (Tree.get_exn t.tree k).aux.cached <- false

let ensure_room t ?protect () =
  while Key_lru.length t.lru >= t.capacity do
    match Key_lru.victim ?exclude:protect t.lru with
    | Some e -> evict_one t e
    | None -> raise (Failed "merkle cache too small for chain")
  done

(* Cache the whole chain down to the pointing parent of [k]. *)
let ensure_chain t path =
  let arr = Array.of_list path in
  for j = 0 to Array.length arr - 1 do
    let k = arr.(j) in
    if not (Key.equal k Key.root) then
      match Key_lru.find t.lru k with
      | Some e -> Key_lru.touch t.lru e
      | None ->
          let parent = arr.(j - 1) in
          ensure_room t ~protect:parent ();
          let entry = Tree.get_exn t.tree k in
          let installed =
            ok
              (Verifier.add_m t.verifier ~tid:0 ~key:k ~value:entry.value
                 ~parent)
          in
          assert (installed = None);
          ignore (Key_lru.add t.lru k);
          Key.Tbl.replace t.parents k parent;
          (match Key_lru.find t.lru parent with
          | Some pe -> Key_lru.incr_children pe
          | None -> assert (Key.equal parent Key.root));
          entry.aux.cached <- true
  done;
  arr.(Array.length arr - 1)

(* VeritasDB-style caching still refreshes every ancestor hash up to the
   root on each update. We charge that cost directly — one hash per chain
   node — rather than replaying evict/re-add pairs through the verifier,
   which would perturb the cache-residency the variant is meant to keep. *)
let propagate_to_root t path =
  List.iter
    (fun k ->
      ignore (Record_enc.hash_value ~algo:t.algo (Tree.get_exn t.tree k).value))
    path

let finish_op t path =
  if t.evict_all then
    while Key_lru.length t.lru > 0 do
      match Key_lru.victim t.lru with
      | Some e -> evict_one t e
      | None -> assert false
    done
  else if t.propagate then propagate_to_root t path

let get t k =
  t.ops <- t.ops + 1;
  let key = Key.of_int64 k in
  let descent = Tree.descend t.tree key in
  let t0 = now () in
  let result =
    match descent.outcome with
    | Tree.Exists ->
        let cur = Hashtbl.find t.data k in
        let parent = ensure_chain t descent.path in
        let installed =
          ok
            (Verifier.add_m t.verifier ~tid:0 ~key ~value:(Value.Data cur)
               ~parent)
        in
        assert (installed = None);
        ok (Verifier.vget t.verifier ~tid:0 ~key cur);
        let ptr = ok (Verifier.evict_m t.verifier ~tid:0 ~key ~parent) in
        apply_ptr t parent ptr;
        cur
    | Tree.Empty_slot | Tree.Split _ ->
        let parent = ensure_chain t descent.path in
        ok (Verifier.vget_absent t.verifier ~tid:0 ~key ~parent);
        None
  in
  finish_op t descent.path;
  t.verifier_time <- t.verifier_time +. (now () -. t0);
  result

let put t k v =
  t.ops <- t.ops + 1;
  let key = Key.of_int64 k in
  let descent = Tree.descend t.tree key in
  let t0 = now () in
  (match descent.outcome with
  | Tree.Exists ->
      let cur = Hashtbl.find t.data k in
      let parent = ensure_chain t descent.path in
      let installed =
        ok
          (Verifier.add_m t.verifier ~tid:0 ~key ~value:(Value.Data cur)
             ~parent)
      in
      assert (installed = None);
      ok (Verifier.vput t.verifier ~tid:0 ~key (Some v));
      let ptr = ok (Verifier.evict_m t.verifier ~tid:0 ~key ~parent) in
      apply_ptr t parent ptr;
      Hashtbl.replace t.data k (Some v)
  | Tree.Empty_slot ->
      let parent = ensure_chain t descent.path in
      (match
         ok
           (Verifier.add_m t.verifier ~tid:0 ~key ~value:(Value.Data None)
              ~parent)
       with
      | Some ptr -> apply_ptr t parent ptr
      | None -> assert false);
      ok (Verifier.vput t.verifier ~tid:0 ~key (Some v));
      let ptr = ok (Verifier.evict_m t.verifier ~tid:0 ~key ~parent) in
      apply_ptr t parent ptr;
      Hashtbl.replace t.data k (Some v)
  | Tree.Split pointee ->
      let parent = ensure_chain t descent.path in
      let node_key = Key.lca key pointee in
      let old_ptr =
        match (Tree.get_exn t.tree parent).value with
        | Value.Node n -> (
            match Value.slot n (Key.dir key ~ancestor:parent) with
            | Some p -> p
            | None -> assert false)
        | Value.Data _ -> assert false
      in
      let node_value =
        Value.Node
          (Value.set_slot { left = None; right = None }
             (Key.dir pointee ~ancestor:node_key)
             (Some old_ptr))
      in
      ensure_room t ~protect:parent ();
      (match
         ok
           (Verifier.add_m t.verifier ~tid:0 ~key:node_key ~value:node_value
              ~parent)
       with
      | Some ptr ->
          Tree.set t.tree node_key node_value ~aux:{ cached = true };
          apply_ptr t parent ptr
      | None -> assert false);
      ignore (Key_lru.add t.lru node_key);
      Key.Tbl.replace t.parents node_key parent;
      (match Key_lru.find t.lru parent with
      | Some pe -> Key_lru.incr_children pe
      | None -> assert (Key.equal parent Key.root));
      (if (not (Key.is_data_key pointee)) && Key_lru.mem t.lru pointee then begin
         Key.Tbl.replace t.parents pointee node_key;
         (match Key_lru.find t.lru parent with
         | Some pe -> Key_lru.decr_children pe
         | None -> assert (Key.equal parent Key.root));
         match Key_lru.find t.lru node_key with
         | Some ne -> Key_lru.incr_children ne
         | None -> assert false
       end);
      (match
         ok
           (Verifier.add_m t.verifier ~tid:0 ~key ~value:(Value.Data None)
              ~parent:node_key)
       with
      | Some ptr -> apply_ptr t node_key ptr
      | None -> assert false);
      ok (Verifier.vput t.verifier ~tid:0 ~key (Some v));
      let ptr = ok (Verifier.evict_m t.verifier ~tid:0 ~key ~parent:node_key) in
      apply_ptr t node_key ptr;
      Hashtbl.replace t.data k (Some v));
  finish_op t descent.path;
  t.verifier_time <- t.verifier_time +. (now () -. t0)

let verifier t = t.verifier
let verifier_time_s t = t.verifier_time
let ops t = t.ops
