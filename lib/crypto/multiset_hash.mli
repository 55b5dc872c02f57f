(** Incremental multiset hash for deferred memory verification.

    The hash of a multiset is [Σ AES-CMAC_k(element) mod 2^128] — the
    MSet-Add-Hash construction (Clarke et al.) instantiated with AES-CMAC as
    the PRF, which is what Concerto-style deferred verification needs: the
    accumulator is incremental (elements fold in, in any order, on any
    verifier thread) and aggregating per-thread accumulators is a single
    128-bit addition.

    Addition — not XOR — matters for soundness: with XOR, an element added an
    even number of times vanishes from the accumulator, so a malicious host
    could replay one [AddB] into several verifier caches (forking the record)
    while keeping the epoch hashes balanced. Modular addition counts
    multiplicities, so the add- and evict-multisets must match exactly. *)

type key

val key_of_string : string -> key
(** Derive the PRF key from a 16-byte secret.
    @raise Invalid_argument on any other length. *)

type t
(** A mutable accumulator holding the 16-byte running hash. *)

val create : key -> t
val reset : t -> unit

val add : t -> string -> unit
(** Fold one element into the accumulator. *)

val merge : t -> t -> unit
(** [merge dst src] folds [src]'s accumulator into [dst] (multiset union). *)

val value : t -> string
(** The current 16-byte hash (little-endian 128-bit integer). *)

val of_value : key -> string -> t
(** Rebuild an accumulator from a persisted {!value} (trusted input only —
    e.g. an unsealed verifier checkpoint). *)

val equal : t -> t -> bool
val equal_value : string -> string -> bool
val empty_value : string

val hash_elements : key -> string list -> string
(** One-shot: hash of a whole multiset. *)
