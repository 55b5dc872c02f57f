type 'aux entry = {
  mutable value : Value.t;
  mutable aux : 'aux;
  mutable changed : bool; (* its key is on [changed_keys] *)
}

type 'aux t = {
  records : 'aux entry Key.Tbl.t;
  mutable tracking : bool;
  mutable changed_keys : Key.t list;
      (* keys set or removed since [clear_changed], newest first; a key
         removed and set again may repeat. A per-entry flag keeps marking
         to a test and, once per key, a cons. *)
}

let create ~root_aux =
  let records = Key.Tbl.create 1024 in
  Key.Tbl.replace records Key.root
    { value = Value.empty_node; aux = root_aux; changed = false };
  { records; tracking = false; changed_keys = [] }

let mark t k e =
  if t.tracking && not e.changed then begin
    e.changed <- true;
    t.changed_keys <- k :: t.changed_keys
  end

let track_changes t = t.tracking <- true

let iter_changed t f =
  List.iter (fun k -> f k (Key.Tbl.find_opt t.records k)) t.changed_keys

let clear_changed t =
  List.iter
    (fun k ->
      match Key.Tbl.find_opt t.records k with
      | Some e -> e.changed <- false
      | None -> ())
    t.changed_keys;
  t.changed_keys <- []

let find t k = Key.Tbl.find_opt t.records k

let get_exn t k =
  match find t k with
  | Some e -> e
  | None ->
      Fmt.invalid_arg "Tree.get_exn: no merkle record for key %a" Key.pp k

let mem t k = Key.Tbl.mem t.records k

(* A new entry under tracking is born marked. *)
let add t k value aux =
  Key.Tbl.replace t.records k { value; aux; changed = t.tracking };
  if t.tracking then t.changed_keys <- k :: t.changed_keys

let set t k value ~aux =
  if Key.is_data_key k then invalid_arg "Tree.set: data key";
  match Key.Tbl.find_opt t.records k with
  | Some e ->
      mark t k e;
      e.value <- value;
      e.aux <- aux
  | None -> add t k value aux

let set_value t k e value =
  mark t k e;
  e.value <- value

let set_aux t k e aux =
  mark t k e;
  e.aux <- aux

let remove t k =
  if t.tracking && Key.Tbl.mem t.records k then t.changed_keys <- k :: t.changed_keys;
  Key.Tbl.remove t.records k

let length t = Key.Tbl.length t.records
let iter t f = Key.Tbl.iter f t.records

type outcome = Exists | Empty_slot | Split of Key.t

type descent = { path : Key.t list; outcome : outcome }

let node_value_exn t k =
  match (get_exn t k).value with
  | Value.Node n -> n
  | Value.Data _ ->
      Fmt.invalid_arg "Tree.descend: data value under merkle key %a" Key.pp k

let descend t k =
  if Key.equal k Key.root then invalid_arg "Tree.descend: root";
  let rec go cur acc =
    let n = node_value_exn t cur in
    let d = Key.dir k ~ancestor:cur in
    let acc = cur :: acc in
    match Value.slot n d with
    | None -> { path = List.rev acc; outcome = Empty_slot }
    | Some { key = k2; _ } ->
        if Key.equal k2 k then { path = List.rev acc; outcome = Exists }
        else if Key.is_proper_ancestor k2 k then go k2 acc
        else { path = List.rev acc; outcome = Split k2 }
  in
  go Key.root []

let pointing_parent t k =
  match List.rev (descend t k).path with
  | parent :: _ -> parent
  | [] -> assert false

let root_hash t ?algo () = Record_enc.hash_value ?algo (get_exn t Key.root).value

(* Bottom-up Patricia construction over a sorted slice of data records.
   Returns the pointer to install in the parent. *)
let bulk_build t ?algo ~aux records =
  if t.tracking then Key.Tbl.iter (fun k _ -> t.changed_keys <- k :: t.changed_keys) t.records;
  Key.Tbl.reset t.records;
  Array.sort (fun (a, _) (b, _) -> Key.compare a b) records;
  Array.iteri
    (fun i (k, _) ->
      if not (Key.is_data_key k) then invalid_arg "Tree.bulk_build: merkle key";
      if i > 0 && Key.equal (fst records.(i - 1)) k then
        invalid_arg "Tree.bulk_build: duplicate key")
    records;
  let rec build lo hi =
    if hi - lo = 1 then
      let k, v = records.(lo) in
      { Value.key = k; hash = Record_enc.hash_value ?algo v; in_blum = false }
    else
      let k_lo, _ = records.(lo) and k_hi, _ = records.(hi - 1) in
      let node_key = Key.lca k_lo k_hi in
      let split_bit = Key.depth node_key in
      (* First index whose key goes right at [split_bit]. *)
      let rec bsearch lo' hi' =
        if lo' >= hi' then lo'
        else
          let mid = (lo' + hi') / 2 in
          if Key.bit (fst records.(mid)) split_bit then bsearch lo' mid
          else bsearch (mid + 1) hi'
      in
      let mid = bsearch lo hi in
      assert (mid > lo && mid < hi);
      let left = build lo mid and right = build mid hi in
      let value = Value.Node { left = Some left; right = Some right } in
      add t node_key value (aux node_key value);
      { Value.key = node_key; hash = Record_enc.hash_value ?algo value;
        in_blum = false }
  in
  let root_value =
    if Array.length records = 0 then Value.empty_node
    else
      let p = build 0 (Array.length records) in
      if Key.equal p.key Key.root then (get_exn t Key.root).value
      else
        let d = Key.bit p.key 0 in
        Value.Node
          (Value.set_slot { left = None; right = None } d (Some p))
  in
  match Key.Tbl.find_opt t.records Key.root with
  | Some _ -> () (* build already produced the depth-0 node *)
  | None -> add t Key.root root_value (aux Key.root root_value)

let frontier t ~levels =
  if levels < 0 then invalid_arg "Tree.frontier";
  let rec walk k level acc =
    if level = levels then k :: acc
    else
      match (get_exn t k).value with
      | Value.Data _ -> acc
      | Value.Node n ->
          let follow p acc =
            match p with
            | Some { Value.key; _ } when not (Key.is_data_key key) ->
                walk key (level + 1) acc
            | Some _ | None -> acc
          in
          follow n.left (follow n.right acc)
  in
  walk Key.root 0 []

let check_structure t =
  let reached = Key.Tbl.create (length t) in
  let exception Bad of string in
  let fail fmt = Fmt.kstr (fun s -> raise (Bad s)) fmt in
  let rec walk k =
    if Key.Tbl.mem reached k then fail "cycle or sharing at %a" Key.pp k;
    Key.Tbl.replace reached k ();
    match find t k with
    | None -> fail "dangling pointer to %a" Key.pp k
    | Some { value = Value.Data _; _ } -> fail "data value at %a" Key.pp k
    | Some { value = Value.Node n; _ } ->
        let side d p =
          match p with
          | None -> ()
          | Some { Value.key = k2; _ } ->
              if not (Key.is_proper_ancestor k k2) then
                fail "%a not ancestor of pointee %a" Key.pp k Key.pp k2;
              if Key.dir k2 ~ancestor:k <> d then
                fail "pointee %a on wrong side of %a" Key.pp k2 Key.pp k;
              if not (Key.is_data_key k2) then walk k2
        in
        side false n.left;
        side true n.right
  in
  match walk Key.root with
  | () ->
      if Key.Tbl.length reached <> length t then
        Error
          (Printf.sprintf "%d merkle records unreachable from root"
             (length t - Key.Tbl.length reached))
      else Ok ()
  | exception Bad msg -> Error msg
