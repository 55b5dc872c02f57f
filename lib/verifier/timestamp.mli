(** Verifier timestamps: an (epoch, counter) pair packed into an [int64].

    Deferred verification tags every record with the timestamp of its last
    eviction. The high 32 bits carry the verification epoch the eviction
    belongs to; the low 32 bits are a per-verifier Lamport counter. Comparing
    packed values as integers is exactly the lexicographic (epoch, counter)
    order the protocol needs. *)

type t = int64

val make : epoch:int -> counter:int -> t
val epoch : t -> int
val counter : t -> int

val zero : t
(** Epoch 0, counter 0 — the timestamp of trusted initial state. *)

val next : t -> t
(** Same epoch, counter + 1. @raise Invalid_argument on counter overflow. *)

val first_of_epoch : int -> t
val compare : t -> t -> int
val max : t -> t -> t
val encode : t -> string
val pp : Format.formatter -> t -> unit
