(** SHA-256 (FIPS 180-4), implemented from scratch.

    Used for HMAC (certificates, cold-segment records), checkpoint digests,
    and as an alternative Merkle hash. Compression is a portable C kernel
    (no SHA-NI) that takes every whole block of an update in one call. *)

type ctx
(** Mutable hashing context for incremental use. *)

val init : unit -> ctx
val copy : ctx -> ctx
(** An independent context in the same state: hash a shared prefix once,
    then continue several messages from it. *)

val update : ctx -> string -> unit
val update_bytes : ctx -> Bytes.t -> int -> int -> unit

val finalize : ctx -> string
(** Returns the 32-byte digest. The context must not be reused afterwards. *)

val digest : string -> string
(** One-shot convenience: [digest msg] is the 32-byte SHA-256 of [msg]. *)

val digest_size : int
(** 32. *)
