type key = Cmac.key

let key_of_string s =
  if String.length s <> 16 then invalid_arg "Multiset_hash.key_of_string";
  Cmac.of_aes_key s

type t = { key : key; acc : Bytes.t }

let create key = { key; acc = Bytes.make 16 '\000' }
let reset t = Bytes.fill t.acc 0 16 '\000'

(* dst := dst + src mod 2^128, little-endian byte order. *)
let add_128 (dst : Bytes.t) (src : string) =
  let carry = ref 0 in
  for i = 0 to 15 do
    let s = Char.code (Bytes.unsafe_get dst i) + Char.code src.[i] + !carry in
    Bytes.unsafe_set dst i (Char.unsafe_chr (s land 0xff));
    carry := s lsr 8
  done

let add t elem =
  add_128 t.acc (Cmac.mac t.key elem)

let of_value key v =
  if String.length v <> 16 then invalid_arg "Multiset_hash.of_value";
  { key; acc = Bytes.of_string v }

let merge dst src = add_128 dst.acc (Bytes.to_string src.acc)
let value t = Bytes.to_string t.acc
let equal a b = Bytes_util.equal_constant_time (value a) (value b)
let equal_value a b = Bytes_util.equal_constant_time a b
let empty_value = String.make 16 '\000'

let hash_elements key elems =
  let t = create key in
  List.iter (add t) elems;
  value t
