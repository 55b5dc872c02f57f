(** The trusted-database approach (§3): the entire store lives inside the
    enclave. Validation is trivial (the enclave's copy {e is} the truth) but
    the design fails performance goal P1 — it cannot hold databases larger
    than the enclave memory budget. *)

type t

val create :
  ?enclave:Enclave.t -> record_overhead_bytes:int -> (int64 * string) array ->
  t
(** @raise Enclave.Out_of_enclave_memory when the database does not fit the
    enclave's trusted-memory budget (the P1 failure mode). *)

val get : t -> int64 -> string option
val put : t -> int64 -> string -> unit
val memory_bytes : t -> int
