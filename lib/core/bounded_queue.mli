(** A bounded blocking queue for handing work between domains.

    Multi-producer/multi-consumer; one mutex, two condition variables. The
    network server uses it as the SPMC job channel between the I/O loop and
    its executor pool: the bounded capacity turns a saturated pool into
    backpressure on the producer instead of unbounded queue growth. *)

type 'a t

val create : int -> 'a t
(** [create capacity] — @raise Invalid_argument if [capacity <= 0]. *)

val push : 'a t -> 'a -> bool
(** Blocks while the queue is full. Returns [true] once the element is
    enqueued, [false] if the queue is (or becomes, while blocked) closed —
    the element is dropped and the caller must fail the work it carries.
    Total: never raises, so a producer racing {!close} cannot crash. *)

val pop : 'a t -> 'a option
(** Blocks while the queue is empty and open; [None] once the queue is
    closed and drained. *)

val close : 'a t -> unit
(** Idempotent. Wakes all blocked producers and consumers; subsequent
    pushes return [false], pops drain the remaining elements then return
    [None]. *)
