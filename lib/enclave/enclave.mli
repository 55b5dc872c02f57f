(** A simulated enclave: a protected execution context with a call gate.

    The enclave owns trusted state (the verifier threads live inside one) and
    meters every host-to-enclave transition against a {!Cost_model}. It also
    tracks a trusted-memory budget so experiments can enforce the paper's P1
    goal (graceful degradation with limited enclave memory). *)

type t

val create : ?memory_budget_bytes:int -> Cost_model.t -> t
(** [create model] builds an enclave. [memory_budget_bytes] defaults to
    192 MiB (the usable EPC of a Coffee Lake SGX part, §3). *)

val call : t -> (unit -> 'a) -> 'a
(** [call e f] runs [f] "inside" the enclave: charges one transition and
    scales the inside-time by the memory access factor. Nested calls charge
    only once. *)

val charge_transitions : t -> int -> unit
(** Account [n] additional host->enclave round trips without running code —
    used when a batch of verifier work is applied directly but would have
    crossed the call gate [n] times in a real deployment. *)

val charged_ns : t -> int64
(** Total nanoseconds of modelled enclave overhead accumulated so far
    (transitions + memory-factor surcharge). *)

val transitions : t -> int
(** Number of host->enclave round trips so far. *)

val cost_model : t -> Cost_model.t

(** {2 Trusted memory budget} *)

val alloc_trusted : t -> int -> unit
(** Record an allocation of trusted memory.
    @raise Out_of_enclave_memory if the budget would be exceeded. *)

val memory_budget : t -> int
(** The trusted-memory budget in bytes. *)

val free_trusted : t -> int -> unit
val trusted_bytes_in_use : t -> int

exception Out_of_enclave_memory

(** {2 Rollback-protected persistent state}

    Models the TPM/Memoir-style monotonic storage the paper assumes for a
    single hash value (§2.2): a slot holding [counter, payload] sealed under
    a hardware key. Tampering with the sealed blob is detected; replaying an
    old blob is detected through the counter. *)

module Sealed_slot : sig
  type slot

  val create : unit -> slot
  (** A fresh slot with its own (hidden) hardware key. *)

  val create_with : hw_key:string -> counter:int64 -> slot
  (** Rebuild a slot from persisted hardware state ([hw_key] and monotonic
      [counter] survive restarts on a TPM; this simulates that NVRAM). *)

  val hw_key : slot -> string
  val counter : slot -> int64

  val store : slot -> string -> unit
  (** Persist a payload; bumps the internal monotonic counter. *)

  val load : slot -> (string, string) result
  (** Retrieve the latest payload, or [Error reason] if the backing blob was
      tampered with or rolled back. *)

  val external_blob : slot -> string
  (** The sealed blob as the untrusted host sees it (for tamper tests). *)

  val inject_blob : slot -> string -> unit
  (** Overwrite the backing blob, as an adversary with host control would. *)
end
