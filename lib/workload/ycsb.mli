(** YCSB workload generation (§8, "Benchmark").

    Keys are 8-byte integers in [0 .. db_size-1] (the paper pads them to 32
    bytes; {!Fastver_merkle.Key.of_int64} plays that role downstream). Values
    are 8-byte strings. *)

type op =
  | Read of int64
  | Update of int64 * string
  | Scan of int64 * int  (** start key, length *)

type distribution = Zipfian of float  (** theta; 0.0 = uniform *)
  | Sequential

type spec = {
  read_prop : float;
  update_prop : float;
  scan_prop : float;
  scan_len : int;
  dist : distribution;
}

val workload_a : spec
(** 50% reads / 50% updates, zipf 0.9 — the paper's main workload. *)

val workload_b : spec
(** 95% reads / 5% updates. *)

val workload_c : spec
(** Read-only. *)

val workload_e : spec
(** 95% scans (length 100) / 5% updates. *)

val with_dist : spec -> distribution -> spec

type t

val create : ?seed:int -> db_size:int -> spec -> t
val next : t -> op

val initial_value : int64 -> string
(** The 8-byte value loaded for a key at database-load time. *)
