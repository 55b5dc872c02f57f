(* The replication stream's integrity layer.

   An epoch certificate authenticates only the epoch number (that is its
   point: a compact, transferable proof that the primary's verifier found
   epoch [e] balanced). It says nothing about which ops were streamed for
   [e] — so a hostile network (or host) could alter streamed values and
   still present a valid certificate. The stream therefore carries a second
   authenticator: each side folds every op record into a per-epoch running
   digest, and the epoch-boundary record MACs that digest (together with the
   epoch number) under the shared secret. A follower accepts an epoch's ops
   only when both the certificate and the stream MAC authenticate. *)

let digest_size = Fastver_crypto.Sha256.digest_size
let empty_digest = String.make digest_size '\000'

let add_u32 b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xff))

(* digest' = SHA256(digest || epoch || key || value): injective framing —
   the key is fixed-width and the value carries an explicit length — so two
   distinct op sequences can only collide by breaking the hash. *)
let fold digest ~epoch ~key ~value =
  if String.length digest <> digest_size then
    invalid_arg "Stream.fold: bad digest size";
  if String.length key <> 32 then invalid_arg "Stream.fold: key must be 32 bytes";
  let b = Buffer.create (digest_size + 4 + 32 + 8) in
  Buffer.add_string b digest;
  add_u32 b epoch;
  Buffer.add_string b key;
  (match value with
  | None -> Buffer.add_char b '\000'
  | Some v ->
      Buffer.add_char b '\001';
      add_u32 b (String.length v);
      Buffer.add_string b v);
  Fastver_crypto.Sha256.digest (Buffer.contents b)

(* The fencing term rides under the boundary MAC too — otherwise a relay
   could re-stamp a deposed primary's records with the current term and
   defeat the monotone-term check. *)
let boundary_message ~term ~epoch ~digest =
  Printf.sprintf "fastver-repl-epoch:%d:t%d:%s" epoch term digest

let boundary_mac ~mac_secret ~term ~epoch ~digest =
  Fastver_crypto.Hmac.mac ~key:mac_secret (boundary_message ~term ~epoch ~digest)

let check_boundary_mac ~mac_secret ~term ~epoch ~digest ~tag =
  Fastver_crypto.Hmac.verify ~key:mac_secret
    (boundary_message ~term ~epoch ~digest)
    ~tag
