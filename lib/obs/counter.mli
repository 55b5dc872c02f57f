(** Monotone event counter.

    A single [int Atomic.t]: increments are lock-free and safe from any
    domain; reads are wait-free and may be taken concurrently with writers
    (each read observes some committed prefix of the increments). *)

type t

val create : unit -> t
val incr : t -> unit
val add : t -> int -> unit
val get : t -> int
