(* Block encryption and key expansion run in C (aes128_stubs.c). *)

external init_tables : unit -> unit = "fv_aes128_init" [@@noalloc]
external expand : string -> Bytes.t -> unit = "fv_aes128_expand" [@@noalloc]
external encrypt : string -> Bytes.t -> Bytes.t -> unit = "fv_aes128_encrypt"
[@@noalloc]

let () = init_tables ()

type key = string (* 44 round-key words, in the C kernel's layout *)

let expand_key key_str =
  if String.length key_str <> 16 then invalid_arg "Aes128.expand_key";
  let rk = Bytes.create 176 in
  expand key_str rk;
  Bytes.unsafe_to_string rk

let encrypt_block w block =
  if String.length block <> 16 then invalid_arg "Aes128.encrypt_block";
  let dst = Bytes.create 16 in
  encrypt w (Bytes.unsafe_of_string block) dst;
  Bytes.unsafe_to_string dst
