(** Cryptographic encodings of records.

    Two hash roles, mirroring the paper's implementation (§7):
    - {b Merkle hashing} of a record value (Blake3 in the paper; BLAKE2s here,
      BLAKE2b/SHA-256 selectable for ablation);
    - {b Blum elements}: the byte string representing [(record, timestamp)]
      that is folded into the deferred-verification multiset hashes with
      AES-CMAC. Elements embed the raw value bytes, not a value hash, so the
      deferred path never pays the Merkle hash cost. *)

type algo = Blake2b | Blake2s | Sha256

val pp_algo : Format.formatter -> algo -> unit

val hash_value : ?algo:algo -> Value.t -> string
(** 32-byte Merkle hash of a value. Defaults to BLAKE2s. *)

val blum_element : Key.t -> Value.t -> int64 -> string
(** [blum_element k v t] is the injective encoding of [(k, v, t)]. *)
