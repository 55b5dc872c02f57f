(** A small LRU index over merkle keys, used by workers to pick verifier-cache
    eviction victims. Entries carry a count of cached children: a record may
    only be evicted to Merkle protection while no cached record was added
    through it, keeping eviction chains bottom-up. *)

type t
type entry

val create : unit -> t
val length : t -> int
val mem : t -> Key.t -> bool
val find : t -> Key.t -> entry option

val add : t -> Key.t -> entry
(** Insert as most-recently-used. @raise Invalid_argument if present. *)

val touch : t -> entry -> unit
(** Move to most-recently-used. *)

val remove : t -> entry -> unit

val key : entry -> Key.t
val children : entry -> int
val incr_children : entry -> unit
val decr_children : entry -> unit

val victim : ?exclude:Key.t -> t -> entry option
(** The least-recently-used entry with no cached children, skipping
    [exclude] (the chain tip currently being extended). *)
