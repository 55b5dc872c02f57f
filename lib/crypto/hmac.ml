let block_size = 64

let normalize_key key =
  let key =
    if String.length key > block_size then Sha256.digest key else key
  in
  key ^ String.make (block_size - String.length key) '\000'

(* The SHA-256 states after the inner and outer pads: every MAC under the
   key continues from copies of them, saving two of the compressions (and
   the key normalisation) per call. *)
type key = { inner : Sha256.ctx; outer : Sha256.ctx }

let key secret =
  let k = normalize_key secret in
  let pad c = String.map (fun ch -> Char.chr (Char.code ch lxor c)) k in
  let inner = Sha256.init () and outer = Sha256.init () in
  Sha256.update inner (pad 0x36);
  Sha256.update outer (pad 0x5c);
  { inner; outer }

let mac_with k msg =
  let inner = Sha256.copy k.inner in
  Sha256.update inner msg;
  let outer = Sha256.copy k.outer in
  Sha256.update outer (Sha256.finalize inner);
  Sha256.finalize outer

let verify_with k msg ~tag = Bytes_util.equal_constant_time (mac_with k msg) tag
let mac ~key:secret msg = mac_with (key secret) msg
let verify ~key:secret msg ~tag = verify_with (key secret) msg ~tag
