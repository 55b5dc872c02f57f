(** Log-bucketed histogram of non-negative integer samples (HDR-style).

    The value range [0 .. 2^47-1] is covered by a fixed array of buckets:
    values below [2^sub_bits] get exact unit buckets, and every further
    power-of-two octave is split into [2^sub_bits] equal sub-buckets. With
    [sub_bits = 5] a bucket spans at most [1/32] of its lower bound, so any
    quantile estimated from bucket boundaries is within relative error
    [1/32] of the exact sample (plus 1 for integer rounding). Samples
    outside the range are clamped.

    [record] is lock-free (one [fetch_and_add] on the bucket, plus atomic
    sum/min/max maintenance) and safe from any domain. Snapshots are plain
    immutable values: mergeable, and usable long after the live histogram
    moved on. A snapshot taken concurrently with writers is not a
    linearizable cut, but every sample lands in exactly one bucket, so
    [count] / [sum] never double-count. *)

type t

val create : unit -> t

val record : t -> int -> unit
(** Record one sample (clamped to [0 .. max_value]). *)

val record_span : t -> float -> unit
(** Record a duration in seconds as integer nanoseconds. *)

(** {2 Snapshots} *)

type snapshot = {
  counts : int array;  (** per-bucket sample counts, [n_buckets] long *)
  count : int;  (** total samples (sum of [counts]) *)
  sum : int;  (** sum of recorded (clamped) values *)
  min : int;  (** smallest sample, [0] when empty *)
  max : int;  (** largest sample, [0] when empty *)
}

val snapshot : t -> snapshot
val empty : snapshot

val merge : snapshot -> snapshot -> snapshot
(** Pointwise union: commutative and associative, [empty] is the unit. *)

val quantile : snapshot -> float -> float
(** [quantile s q] for [q] in [0,1]: an upper bound on the sample at rank
    [ceil (q * count)], exact to within one bucket width ([<= v/32 + 1] above
    the true value [v]). [0.] when the snapshot is empty. *)

val mean : snapshot -> float

(** {2 Bucket geometry (exposed for tests and documentation)} *)

val n_buckets : int
val max_value : int
val bucket_of_value : int -> int
val bucket_bounds : int -> int * int
(** [bucket_bounds i] is the inclusive [(lo, hi)] value range of bucket [i]. *)
