open Fastver_crypto

type algo = Blake2b | Blake2s | Sha256

let pp_algo ppf = function
  | Blake2b -> Format.pp_print_string ppf "blake2b"
  | Blake2s -> Format.pp_print_string ppf "blake2s"
  | Sha256 -> Format.pp_print_string ppf "sha256"

let hash_value ?(algo = Blake2s) v =
  let enc = Value.encode v in
  match algo with
  | Blake2b -> Blake2b.digest ~digest_size:32 enc
  | Blake2s -> Blake2s.digest ~digest_size:32 enc
  | Sha256 -> Sha256.digest enc

let blum_element k v t =
  (* Fixed-width key and timestamp bracket the variable-width value, so the
     encoding is injective. *)
  let n = Value.encoded_size v in
  let b = Bytes.create (34 + n + 8) in
  Key.encode_into k b 0;
  Value.encode_into v b 34;
  Bytes.set_int64_le b (34 + n) t;
  Bytes.unsafe_to_string b
