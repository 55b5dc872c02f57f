(** BLAKE2s (RFC 7693), implemented from scratch.

    The 32-bit sibling of BLAKE2b, and the Merkle record hash: it plays the
    role of the paper's Blake3 (a fast 32-bit cryptographic hash).
    Compression is a portable C kernel that reads message bytes one at a
    time (no SIMD, no byte-order dependence); {!digest} is a single call
    into it, and {!finalize} makes that same call over everything an
    incremental context was given. *)

type ctx

val init : ?digest_size:int -> unit -> ctx
(** [digest_size] defaults to 32. @raise Invalid_argument unless
    [1 <= digest_size <= 32]. *)

val update : ctx -> string -> unit
val finalize : ctx -> string

val digest : ?digest_size:int -> string -> string
(** One-shot hash. *)
