(** Lightweight stage timing: a start mark on the monotonic clock whose
    elapsed time lands in a {!Histogram}. A wall-clock step (NTP, an
    operator setting the date) cannot make a duration negative or huge. *)

val now : unit -> float
(** Seconds on the monotonic clock from an arbitrary origin: only the
    difference of two readings means anything. *)

type t

val start : unit -> t
val elapsed_s : t -> float

val finish : t -> Histogram.t -> unit
(** Record the elapsed time (as nanoseconds) into the histogram. *)

val time : Histogram.t -> (unit -> 'a) -> 'a
(** Run the thunk and record its duration; records even when the thunk
    raises (the stage still happened). *)
