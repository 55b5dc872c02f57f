(** A small LRU index over the merkle keys resident in a verifier cache: the
    host's one record of which records are cached and how. Each entry
    carries its owner's payload (how the record was added, its pointing
    parent) and a count of cached children: a record may only be evicted to
    Merkle protection while no cached record was added through it, keeping
    eviction chains bottom-up. *)

type 'a t
type 'a entry

val create : unit -> 'a t
val length : 'a t -> int
val mem : 'a t -> Key.t -> bool
val find : 'a t -> Key.t -> 'a entry option

val add : 'a t -> Key.t -> 'a -> 'a entry
(** Insert as most-recently-used. @raise Invalid_argument if present. *)

val touch : 'a t -> 'a entry -> unit
(** Move to most-recently-used. *)

val remove : 'a t -> 'a entry -> unit

val iter : 'a t -> ('a entry -> unit) -> unit
(** Every entry, in no particular order. *)

val key : 'a entry -> Key.t
val payload : 'a entry -> 'a
val children : 'a entry -> int
val incr_children : 'a entry -> unit
val decr_children : 'a entry -> unit

val victim : ?exclude:Key.t -> 'a t -> 'a entry option
(** The least-recently-used entry with no cached children, skipping
    [exclude] (the chain tip currently being extended). *)
