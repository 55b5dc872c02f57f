(* Doubly-linked intrusive list plus a key index. The list head is the
   most-recently-used end. *)

type 'a entry = {
  key : Key.t;
  payload : 'a;
  mutable children : int;
  mutable prev : 'a entry option; (* towards MRU *)
  mutable next : 'a entry option; (* towards LRU *)
}

type 'a t = {
  index : 'a entry Key.Tbl.t;
  mutable head : 'a entry option; (* MRU *)
  mutable tail : 'a entry option; (* LRU *)
}

let create () = { index = Key.Tbl.create 64; head = None; tail = None }
let length t = Key.Tbl.length t.index
let mem t k = Key.Tbl.mem t.index k
let find t k = Key.Tbl.find_opt t.index k

let unlink t e =
  (match e.prev with
  | Some p -> p.next <- e.next
  | None -> t.head <- e.next);
  (match e.next with
  | Some n -> n.prev <- e.prev
  | None -> t.tail <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front t e =
  e.next <- t.head;
  e.prev <- None;
  (match t.head with Some h -> h.prev <- Some e | None -> t.tail <- Some e);
  t.head <- Some e

let add t k payload =
  if Key.Tbl.mem t.index k then invalid_arg "Key_lru.add: present";
  let e = { key = k; payload; children = 0; prev = None; next = None } in
  Key.Tbl.replace t.index k e;
  push_front t e;
  e

let touch t e =
  unlink t e;
  push_front t e

let remove t e =
  unlink t e;
  Key.Tbl.remove t.index e.key

let iter t f = Key.Tbl.iter (fun _ e -> f e) t.index
let key e = e.key
let payload e = e.payload
let children e = e.children
let incr_children e = e.children <- e.children + 1

let decr_children e =
  assert (e.children > 0);
  e.children <- e.children - 1

(* Second-chance scan: chain-interior entries (children > 0) accumulate at
   the LRU tail because their children are always touched after them; naive
   tail walks would then cost O(cache) per eviction. Skipped entries are
   promoted to the MRU end, so each is inspected at most once per round. *)
let victim ?exclude t =
  let excluded e =
    match exclude with Some k -> Key.equal e.key k | None -> false
  in
  let budget = ref (Key.Tbl.length t.index) in
  let rec go () =
    match t.tail with
    | None -> None
    | Some e ->
        if e.children = 0 && not (excluded e) then Some e
        else if !budget <= 0 then None
        else begin
          decr budget;
          unlink t e;
          push_front t e;
          go ()
        end
  in
  go ()
