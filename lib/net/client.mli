(** FastVer client library: sessions, pipelining, and — the point of the
    whole exercise — client-side verification of every response.

    A {!session} holds the shared secret and a nonce counter (the client
    half of the TCB, mirroring {!Fastver.Session}). Every validated result
    arriving over the wire carries the verifier's receipt MAC; the client
    re-derives the expected MAC from (kind, client id, nonce, key, value,
    epoch) and raises {!Fastver.Integrity_violation} on any mismatch — a
    byte flipped anywhere between the enclave and this process is detected
    here, whether by the network or by the untrusted host itself.

    Requests may be pipelined: [send_*] enqueue without waiting, {!await}
    completes them strictly in order (the server guarantees per-connection
    ordering). The blocking helpers ({!get}, {!put}, …) are
    send-one-await-one. *)

exception Server_error of string
(** The server answered this request with an error (e.g. a rejected put). *)

exception Protocol_error of string
(** The byte stream is not a well-formed FastVer conversation. *)

exception Timeout
(** {!recv}'s deadline expired before a full response arrived. The
    connection may be mid-frame and must be closed. *)

type t
(** A connection. *)

val connect : Addr.t -> (t, string) result
val close : t -> unit

(** {2 Raw frames}

    Low-level request/response exchange on a connection, used by tooling
    that speaks opcodes outside the session protocol (the replication
    follower's subscription and checkpoint-fetch conversations). Plain
    sessions never need these. *)

val send : t -> Wire.request -> int64
(** Encode and write one request; returns its frame id. *)

val recv : ?timeout:float -> t -> int64 * Wire.response
(** Block for the next response frame. [?timeout] (seconds) bounds the
    whole wait — the replication follower uses it to keep a half-open
    primary (SIGSTOP, mid-handshake kill) from hanging the subscribe
    handshake forever.
    @raise Protocol_error on EOF or a malformed frame.
    @raise Timeout when the deadline passes first. *)

val expect_id : int64 -> int64 * Wire.response -> Wire.response
(** [expect_id id (recv t)] unwraps a response after checking it answers
    frame [id].
    @raise Protocol_error on an out-of-order id. *)

type session

val open_session :
  ?verify:bool -> ?max_staleness:int -> t -> client:int -> secret:string ->
  session
(** Opens an authenticated session. [verify] (default [true]) controls
    client-side receipt checking — switch it off only when the server runs
    with [authenticate_clients = false]. [max_staleness] (default [1])
    bounds epoch staleness against the session's certified anchor: the
    session remembers the highest epoch any checked {!verify_now}
    certificate carried, and a later receipt stamped more than
    [max_staleness] epochs below that anchor — or a later certificate
    regressing below it — raises {!Fastver.Integrity_violation},
    catching a rolled-back or lagging server replaying
    authentic-but-old state. Sessions that never call {!verify_now}
    have no anchor and skip the staleness check (receipt MACs are still
    verified). The default of [1] tolerates reads racing the scan that
    produced the anchor certificate. *)

val session_epoch : session -> int
(** Highest certified epoch observed by this session so far (0 until the
    first {!verify_now}). *)

val close_session : session -> unit
(** Drains in-flight requests, then closes the session (not the
    connection). *)

(** {2 Pipelined interface} *)

val send_get : session -> int64 -> int64
(** Enqueue; returns the request id (for latency bookkeeping). *)

val send_put : session -> int64 -> string -> int64

type reply =
  | Value of string option
  | Stored
  | Scan_result of (int64 * string option) array

val await : session -> int64 * reply
(** Complete the oldest in-flight request: reads, checks the receipt MAC
    and nonce, returns (request id, result).
    @raise Fastver.Integrity_violation on a signature mismatch.
    @raise Server_error if the server reported an error for it. *)

val in_flight : session -> int

val drain : session -> unit
(** Await (and verify) everything in flight. *)

(** {2 Blocking helpers} *)

val get : session -> int64 -> string option
val put : session -> int64 -> string -> unit
val delete : session -> int64 -> unit
val scan : session -> int64 -> int -> (int64 * string option) array

val verify_now : session -> int * string
(** Ask the server to run a verification scan; returns (epoch, certificate)
    after checking the certificate against the shared secret.
    @raise Fastver.Integrity_violation if the certificate does not check. *)

val stats : t -> Wire.stats
(** Server statistics (no session needed). *)

val metrics : t -> format:Wire.metrics_format -> string
(** The server's metric registry rendered as JSON or Prometheus text (no
    session needed). Diagnostics only — the payload carries no receipt
    MAC. *)
