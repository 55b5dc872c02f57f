(** Incremental frame extraction from a byte stream.

    A {!reader} buffers whatever the socket delivered — any chunking, down
    to one byte at a time — and yields complete frame payloads as they
    become available. Malformed framing (a length below the fixed header
    size or above {!Wire.max_frame}) is reported as [Error] before any
    allocation proportional to the claimed length; the reader never raises
    and never loops on hostile input. *)

type reader

val create : unit -> reader

val feed : reader -> Bytes.t -> int -> int -> unit
(** [feed r buf off len] appends [len] bytes of [buf] starting at [off]. *)

val feed_string : reader -> string -> unit

val next : reader -> (string option, string) result
(** The next complete frame payload, [Ok None] if more bytes are needed, or
    [Error _] if the stream is unrecoverably malformed (the connection
    should be dropped). *)
