(* The subkeys are derived here once per key; the MAC loop runs in C
   (aes128_stubs.c). *)

external cmac : Aes128.key -> string -> string -> Bytes.t -> unit
  = "fv_aes128_cmac"
[@@noalloc]

type key = { aes : Aes128.key; subkeys : string (* K1 ‖ K2 *) }

(* Left-shift a 16-byte string by one bit. *)
let shift_left_1 s =
  let out = Bytes.create 16 in
  let carry = ref 0 in
  for i = 15 downto 0 do
    let v = (Char.code s.[i] lsl 1) lor !carry in
    carry := (v lsr 8) land 1;
    Bytes.set out i (Char.chr (v land 0xff))
  done;
  (Bytes.unsafe_to_string out, !carry = 1)

let rb = "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x87"

let derive_subkey block =
  let shifted, msb = shift_left_1 block in
  if msb then Bytes_util.xor shifted rb else shifted

let of_aes_key key_str =
  let aes = Aes128.expand_key key_str in
  let l = Aes128.encrypt_block aes (String.make 16 '\000') in
  let k1 = derive_subkey l in
  let k2 = derive_subkey k1 in
  { aes; subkeys = k1 ^ k2 }

let mac { aes; subkeys } msg =
  let out = Bytes.create 16 in
  cmac aes subkeys msg out;
  Bytes.unsafe_to_string out
