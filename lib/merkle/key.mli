(** Keys of the sparse Merkle tree (§4.2 of the paper).

    A key is a bit string of length [0..256]. Data keys have length exactly
    256; merkle keys are strictly shorter. The set of all keys forms a binary
    tree: the empty string is the root and key [k] is the parent of [k·0] and
    [k·1]. A key [k'] is an ancestor of [k] iff [k'] is a prefix of [k].

    Keys are packed into four [int64] words (bit 0 = most significant bit of
    word 0) plus a depth; bits at positions [>= depth] are kept zero so that
    structural equality coincides with key equality. *)

type t

val max_depth : int
(** 256. *)

val root : t
(** The empty bit string — the Merkle root key. *)

val depth : t -> int

val is_data_key : t -> bool
(** True iff [depth k = 256]. *)

val of_bytes32 : string -> t
(** A data key from a 32-byte string. @raise Invalid_argument otherwise. *)

val to_bytes32 : t -> string
(** The 32 path bytes (positions beyond [depth] are zero). *)

val of_int64 : int64 -> t
(** A data key from an 8-byte application key, placed in the low 64 bits of
    the 256-bit path (the paper's zero-padding of 8-byte YCSB keys). *)

val to_int64 : t -> int64
(** Inverse of {!of_int64} for keys produced by it. *)

val bit : t -> int -> bool
(** [bit k i] is bit [i] of the path, [0 <= i < 256]. *)

val child : t -> bool -> t
(** [child k d] extends [k] by one bit ([false] = left/0, [true] = right/1).
    @raise Invalid_argument if [k] is a data key. *)

val prefix : t -> int -> t
(** [prefix k n] truncates [k] to depth [n]. @raise Invalid_argument if
    [n > depth k]. *)

val is_proper_ancestor : t -> t -> bool
(** [is_proper_ancestor a k]: [a] is a strict prefix of [k]. *)

val dir : t -> ancestor:t -> bool
(** Which subtree of [ancestor] contains [k]: bit [depth ancestor] of [k].
    Precondition: [is_proper_ancestor ancestor k]. *)

val lca : t -> t -> t
(** Least common ancestor (longest common prefix). *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Total order: lexicographic on the bit string, shorter prefixes first.
    Sorting data keys with this order yields the paper's "sorted Merkle
    updates" locality. *)

val hash : t -> int
(** For use in [Hashtbl]-style containers. *)

val encode : t -> string
(** Canonical 34-byte encoding (2-byte depth + 32 path bytes), injective;
    used inside hash and MAC computations. *)

val encode_into : t -> Bytes.t -> int -> unit
(** [encode_into k b off] writes {!encode}[ k] into [b] at [off], for
    callers that assemble a larger record in one buffer. *)

val pp : Format.formatter -> t -> unit
(** Renders as [depth:hex-prefix], e.g. [5:0b...]. *)

val to_bit_string : t -> string
(** The key as a literal string of ['0']/['1'] characters (debugging). *)

val of_bit_string : string -> t
(** Inverse of {!to_bit_string}. @raise Invalid_argument on bad input. *)

module Tbl : Hashtbl.S with type key = t
module Set : Set.S with type elt = t
module Map : Map.S with type key = t
