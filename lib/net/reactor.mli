(** The non-blocking select loop behind every FastVer listener: the
    serving layer's ({!Server}) and the replication primary's.

    A reactor owns a listening socket, its connections and one wake pipe.
    It reads framed input, keeps an ordered output queue per connection,
    writes it as sockets accept it, reaps closed connections and drains
    output at shutdown. The owner says what a frame means, when a
    connection may read, when its replies are complete and when the loop
    must wake on its own. The transport holds no integrity logic: clients
    check every reply's receipt MAC, followers every boundary MAC.

    {!run} and the connection functions belong to the loop domain (after
    {!run} returns, to the caller of {!shutdown}); {!wake} and {!stop} may
    be called from any domain. *)

type 'a conn
(** A connection carrying the owner's state ['a]. *)

val data : 'a conn -> 'a

val send : 'a conn -> string -> unit
(** Queue a frame behind earlier output; dropped once the connection is
    dead. *)

val out_bytes : 'a conn -> int
(** Bytes queued and not yet written. *)

val close : 'a conn -> unit
(** Stop reading; close once the output is written and [settled] holds. *)

val drop : 'a conn -> unit
(** Close at the end of this pass, discarding output. *)

val is_open : 'a conn -> bool
(** Neither closing nor dead. *)

val is_dead : 'a conn -> bool

type 'a t

val listen : Fastver_obs.Registry.t -> Addr.t -> ('a t, string) result
(** Bind and listen at once (a stale Unix-socket file is removed first).
    Registers [fastver_net_lost_wakeups_total],
    [fastver_net_connections_refused_total] and
    [fastver_net_accept_pauses_total]. *)

val addr : 'a t -> Addr.t
(** The bound address, TCP port 0 resolved. *)

val conns : 'a t -> 'a conn list

val wake : 'a t -> unit
(** Make {!run} start a pass. A wake-up lost to anything but a full pipe
    or a stop in progress is logged and counted in
    [fastver_net_lost_wakeups_total]. *)

type 'a handlers = {
  accept : unit -> 'a;  (** state for a new connection *)
  input : 'a conn -> (string, string) result -> unit;
      (** a frame payload, or the framing error that closes the
          connection *)
  wants_input : 'a conn -> bool;  (** [false] pauses reading it *)
  settled : 'a conn -> bool;  (** a closing connection owes no more output *)
  pass : unit -> unit;  (** after each pass's input, before its writes *)
  deadline : unit -> float option;
      (** wall-clock time by which the next pass must run; [None] waits
          for input, output room or a wake-up *)
  closed : 'a conn -> unit;  (** a connection was reaped *)
}

val run : 'a t -> 'a handlers -> unit
(** Serve until {!stop}. A connection whose descriptor [select] cannot
    hold (at or above FD_SETSIZE) is closed at accept and counted in
    [fastver_net_connections_refused_total]; the loop keeps serving. When
    accept runs out of descriptors (EMFILE/ENFILE) the listener is left
    out of [select] until a connection is reaped or 100 ms pass, so the
    queued connection waits instead of the loop spinning; each such pause
    counts once in [fastver_net_accept_pauses_total]. *)

val stop : 'a t -> bool
(** Ask {!run} to return; [true] only on the first call. *)

val shutdown : 'a t -> unit
(** After {!run} returned or never ran: write queued output for up to one
    second, then shut down and close every connection, the listener and
    the wake pipe, and remove a Unix-socket file. The owner must ensure
    nothing calls {!wake} from here on: descriptor numbers get reused. *)
