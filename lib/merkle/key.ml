let max_depth = 256

type t = { w0 : int64; w1 : int64; w2 : int64; w3 : int64; depth : int }

let root = { w0 = 0L; w1 = 0L; w2 = 0L; w3 = 0L; depth = 0 }
let depth k = k.depth
let is_data_key k = k.depth = max_depth

let word k j =
  match j with
  | 0 -> k.w0
  | 1 -> k.w1
  | 2 -> k.w2
  | 3 -> k.w3
  | _ -> invalid_arg "Key.word"

let with_word k j v =
  match j with
  | 0 -> { k with w0 = v }
  | 1 -> { k with w1 = v }
  | 2 -> { k with w2 = v }
  | 3 -> { k with w3 = v }
  | _ -> invalid_arg "Key.with_word"

(* Bits [r..63] of a word cleared; i.e. keep the top [r] bits. *)
let keep_top_bits w r =
  if r <= 0 then 0L
  else if r >= 64 then w
  else Int64.logand w (Int64.shift_left (-1L) (64 - r))

let of_bytes32 s =
  if String.length s <> 32 then invalid_arg "Key.of_bytes32";
  {
    w0 = String.get_int64_be s 0;
    w1 = String.get_int64_be s 8;
    w2 = String.get_int64_be s 16;
    w3 = String.get_int64_be s 24;
    depth = max_depth;
  }

let to_bytes32 k =
  let b = Bytes.create 32 in
  Bytes.set_int64_be b 0 k.w0;
  Bytes.set_int64_be b 8 k.w1;
  Bytes.set_int64_be b 16 k.w2;
  Bytes.set_int64_be b 24 k.w3;
  Bytes.unsafe_to_string b

let of_int64 v = { w0 = 0L; w1 = 0L; w2 = 0L; w3 = v; depth = max_depth }
let to_int64 k = k.w3

let bit k i =
  if i < 0 || i >= max_depth then invalid_arg "Key.bit";
  let w = word k (i / 64) in
  Int64.logand (Int64.shift_right_logical w (63 - (i mod 64))) 1L = 1L

let child k d =
  if k.depth >= max_depth then invalid_arg "Key.child: data key";
  let i = k.depth in
  let k' = { k with depth = i + 1 } in
  if d then
    let j = i / 64 in
    with_word k' j
      (Int64.logor (word k j) (Int64.shift_left 1L (63 - (i mod 64))))
  else k'

let prefix k n =
  if n < 0 || n > k.depth then invalid_arg "Key.prefix";
  {
    w0 = keep_top_bits k.w0 n;
    w1 = keep_top_bits k.w1 (n - 64);
    w2 = keep_top_bits k.w2 (n - 128);
    w3 = keep_top_bits k.w3 (n - 192);
    depth = n;
  }

(* Number of leading zeros of a 64-bit word (64 for zero). *)
let clz64 w =
  if w = 0L then 64
  else
    let n = ref 0 and w = ref w in
    if Int64.shift_right_logical !w 32 = 0L then begin
      n := !n + 32;
      w := Int64.shift_left !w 32
    end;
    if Int64.shift_right_logical !w 48 = 0L then begin
      n := !n + 16;
      w := Int64.shift_left !w 16
    end;
    if Int64.shift_right_logical !w 56 = 0L then begin
      n := !n + 8;
      w := Int64.shift_left !w 8
    end;
    if Int64.shift_right_logical !w 60 = 0L then begin
      n := !n + 4;
      w := Int64.shift_left !w 4
    end;
    if Int64.shift_right_logical !w 62 = 0L then begin
      n := !n + 2;
      w := Int64.shift_left !w 2
    end;
    if Int64.shift_right_logical !w 63 = 0L then n := !n + 1;
    !n

(* Position of the first bit where [a] and [b] differ, or 256 if their
   256-bit paths agree everywhere. *)
let first_diff a b =
  let rec go j =
    if j = 4 then max_depth
    else
      let x = Int64.logxor (word a j) (word b j) in
      if x = 0L then go (j + 1) else (64 * j) + clz64 x
  in
  go 0

let lca a b =
  let d = min (min a.depth b.depth) (first_diff a b) in
  prefix a d

let equal a b =
  a.depth = b.depth && a.w0 = b.w0 && a.w1 = b.w1 && a.w2 = b.w2
  && a.w3 = b.w3

let is_proper_ancestor a k =
  a.depth < k.depth && equal a (prefix k a.depth)

let dir k ~ancestor =
  assert (is_proper_ancestor ancestor k);
  bit k ancestor.depth

let compare a b =
  (* Trailing bits are zero, so unsigned word comparison is lexicographic on
     the bit strings; prefixes order before their extensions via depth. *)
  let rec words j =
    if j = 4 then Stdlib.compare a.depth b.depth
    else
      let c = Int64.unsigned_compare (word a j) (word b j) in
      if c <> 0 then c else words (j + 1)
  in
  words 0

let hash k =
  let h = Int64.to_int (Int64.mul k.w3 0x9e3779b97f4a7c15L) in
  let h = h lxor Int64.to_int (Int64.mul k.w2 0xc2b2ae3d27d4eb4fL) in
  let h = h lxor Int64.to_int (Int64.mul k.w1 0x165667b19e3779f9L) in
  let h = h lxor Int64.to_int k.w0 in
  (h lxor k.depth) land max_int

let encode_into k b off =
  Bytes.set_uint16_le b off k.depth;
  Bytes.set_int64_be b (off + 2) k.w0;
  Bytes.set_int64_be b (off + 10) k.w1;
  Bytes.set_int64_be b (off + 18) k.w2;
  Bytes.set_int64_be b (off + 26) k.w3

let encode k =
  let b = Bytes.create 34 in
  encode_into k b 0;
  Bytes.unsafe_to_string b

let to_bit_string k = String.init k.depth (fun i -> if bit k i then '1' else '0')

let of_bit_string s =
  let n = String.length s in
  if n > max_depth then invalid_arg "Key.of_bit_string: too long";
  let k = ref { root with depth = 0 } in
  String.iter
    (fun c ->
      match c with
      | '0' -> k := child !k false
      | '1' -> k := child !k true
      | _ -> invalid_arg "Key.of_bit_string: bad char")
    s;
  !k

let pp ppf k =
  if k.depth = 0 then Format.fprintf ppf "<root>"
  else if k.depth <= 32 then Format.fprintf ppf "%d:%s" k.depth (to_bit_string k)
  else
    Format.fprintf ppf "%d:%s…" k.depth
      (Fastver_crypto.Bytes_util.to_hex (String.sub (to_bytes32 k) 0 8))

module Ordered = struct
  type nonrec t = t

  let compare = compare
end

module Hashed = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Tbl = Hashtbl.Make (Hashed)
module Set = Set.Make (Ordered)
module Map = Map.Make (Ordered)
