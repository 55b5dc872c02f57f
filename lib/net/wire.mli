(** The FastVer wire protocol: length-prefixed binary frames.

    Every message travels as [u32-le length] followed by [length] payload
    bytes. The payload starts with a fixed header — 2 magic bytes ["FV"], a
    1-byte protocol version, a 1-byte message type, and a u64-le request id
    that correlates pipelined responses with their requests — and continues
    with the type-specific body.

    Integers are little-endian; byte strings are length-prefixed (u16 for
    MACs, u32 for values). The per-session nonces and AES-CMAC signatures of
    {!Fastver.Auth} are carried verbatim: a put request ships the client's
    request MAC, every validated result ships the verifier's receipt MAC, so
    the client re-derives and checks each signature locally.

    Decoders are total: any truncated or corrupted payload yields [Error _],
    never an exception and never unbounded work or allocation. *)

val version : int
(** Protocol version carried in every encoded frame (2). The decoders
    accept this version only. *)

val header_len : int
(** Bytes of the fixed payload header (magic, version, type, request id). *)

val max_frame : int
(** Upper bound on a sane payload length (decoders and frame readers reject
    anything larger before allocating). *)

type metrics_format = Json | Prometheus
(** Rendering requested from the server's {!Fastver_obs.Registry}. *)

type request =
  | Open_session of { client : int }
  | Close_session
  | Get of { key : int64; nonce : int64 }
  | Put of { key : int64; nonce : int64; mac : string; value : string option }
  | Scan of { start : int64; len : int; nonce : int64 }
  | Verify
  | Stats
  | Metrics of { format : metrics_format }
  | Subscribe of { from_epoch : int; term : int }
      (** Replication: stream every op and epoch-boundary record for epochs
          [>= from_epoch]; the subscriber's state already reflects all
          sealed epochs below it. [term] is the fencing term under which the
          subscriber's newest verified epoch was sealed — a primary refuses
          a subscriber from a *higher* term (the refusal is proof the
          primary was deposed) and fences one whose stale term claims
          epochs this primary re-sealed after an election. *)
  | Fetch_checkpoint
      (** Replication catch-up: ship the newest committed checkpoint
          generation so a follower too far behind the primary's replication
          log can bootstrap, then re-subscribe from its sealed epoch. A
          delta generation's MANIFEST names its parent, which the follower
          fetches with [Fetch_generation], back to the chain's base. *)
  | Fetch_generation of { generation : int }
      (** Ship one named committed generation (a parent on the chain the
          newest generation rests on). One generation per reply, so the
          frame limit bounds a generation, not a chain. *)
  | Announce_term of {
      term : int;
      sealed : int;
      priority : int;
      run_id : int64;
    }
      (** Election state exchange: the sender's fencing term, newest
          chain-verified sealed epoch ([-1] if none), static election
          priority and incarnation id. Candidates send it to every peer
          when the primary is lost, and primaries probe peers with it to
          detect a rival with a higher term. Answered by
          {!response.Term_info}. *)
  | Promote of { term : int; addr : string }
      (** Directive from an election winner: "I am primary for [term],
          serving replication at [addr]" ({!Addr.to_string} form). A
          standby that receives it abandons its own candidacy and
          re-subscribes at [addr]; a primary that receives it with a
          higher term knows it has been deposed. *)

type item = { key : int64; value : string option; epoch : int; mac : string }
(** One validated result: the receipt MAC covers (kind, client, nonce, key,
    value, epoch) — see {!Fastver.Auth.receipt}. *)

type stats = {
  ops : int64;
  gets : int64;
  puts : int64;
  scans : int64;
  verifies : int64;
  fast_path : int64;
  merkle_path : int64;
  epoch : int64;
}

type response =
  | Session_opened of { client : int }
  | Session_closed
  | Got of { nonce : int64; item : item }
  | Put_ok of { nonce : int64; item : item }
  | Scanned of { nonce : int64; items : item array }
  | Verified of { epoch : int; cert : string }
  | Stats_reply of stats
  | Metrics_reply of { format : metrics_format; data : string }
      (** [data] is the rendered snapshot (untrusted diagnostics — metrics
          are host-side state and carry no receipt MAC). *)
  | Subscribed of { from_epoch : int; run_id : int64; term : int }
      (** Ack for {!request.Subscribe}: streaming starts at [from_epoch].
          [run_id] identifies this primary incarnation; a follower that
          reconnects and sees a different [run_id] must re-bootstrap (the
          primary may have restarted from an older checkpoint). [term] is
          the primary's current fencing term; followers adopt it (terms
          only move forward). *)
  | Checkpoint_reply of {
      generation : int;
      files : (string * string) array;
      term : int;
    }
      (** The newest committed generation's component files as
          [(basename, contents)] pairs — MANIFEST included, so the receiver
          re-verifies every checksum through the normal recovery path and
          trusts nothing about the transport. [term] is the fencing term the
          sender holds: checkpoints carry state sealed under that term, and
          terms are not persisted inside generations, so a bootstrapping
          follower adopts it once the generation passes tamper-evident
          recovery (the field itself is unauthenticated — lying about it
          costs availability at the next subscribe, never integrity, since
          divergent state is still caught by the local re-verification
          scan against the streamed certificates). *)
  | Repl_batch of { epoch : int; ops : (string * string option) array }
      (** A run of consecutive applied ops from one epoch, in apply order,
          flushed by the primary at each epoch seal (plus size/time caps).
          Each [key] is the raw 32-byte data-key path ({!Key.to_bytes32});
          [value = None] is a delete. Untrusted until the epoch's boundary
          record authenticates: followers fold every op into a per-epoch
          digest that {!response.Repl_epoch}'s [stream_mac] must match. *)
  | Repl_epoch of { epoch : int; cert : string; stream_mac : string; term : int }
      (** Epoch-boundary record: [cert] is the store-level epoch certificate
          (HMAC over {!Fastver_verifier.Verifier.epoch_certificate_message});
          [stream_mac] authenticates the exact op sequence streamed for
          [epoch] (see {!Fastver_replica.Stream}). [term] is the fencing
          term the epoch was sealed under — followers reject a record whose
          term moves backwards (a deposed primary replaying old state). *)
  | Term_info of {
      term : int;
      sealed : int;
      priority : int;
      run_id : int64;
      primary : bool;
    }
      (** Reply to {!request.Announce_term} / {!request.Promote}: the
          responder's election state. [primary] says whether the responder
          is currently serving writes — a prober that finds a primary with
          a greater (term, sealed, priority, run_id) tuple than its own
          must defer to it (candidates re-subscribe, rival primaries
          demote). *)
  | Error of string

val encode_request : id:int64 -> request -> string
(** The full frame, length prefix included. *)

val encode_response : id:int64 -> response -> string

val encode_request_into : Buffer.t -> id:int64 -> request -> string
(** Like {!encode_request}, but encodes through the caller's scratch buffer
    (cleared first). With a per-connection buffer the only steady-state
    allocation per message is the returned frame string — the server and
    client use this on their hot paths. *)

val encode_response_into : Buffer.t -> id:int64 -> response -> string

val decode_request : string -> (int64 * request, string) result
(** Decode one frame payload (as returned by {!Frame.next}). *)

val decode_response : string -> (int64 * response, string) result

val pp_request : Format.formatter -> request -> unit
val pp_response : Format.formatter -> response -> unit
