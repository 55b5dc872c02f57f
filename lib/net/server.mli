(** The FastVer serving loop: an I/O event loop feeding an executor pool.

    A single event loop ({!Reactor}, shared with the replication primary;
    TCP or Unix-domain) reads requests into per-connection buffers and drains them through the FastVer worker loop
    in batches via {!Fastver.Batch.submit}, so the whole batch shares one
    verification-log flush — the same enclave-transition amortisation the
    paper applies to ecalls (§7).

    With [n_workers > 1] the select loop keeps I/O only: decoded batches
    are grouped by owning worker ({!Fastver.owner_of_key}) and handed to
    one executor domain per worker over bounded queues (a full queue
    blocks the dispatcher — backpressure, not unbounded growth). Puts are
    admitted (client MAC + nonce) on the I/O domain in arrival order
    before dispatch. Responses are written back in per-connection request
    order regardless of execution order (per-request reply slots), so
    clients may pipeline freely; operations on the {e same} key execute in
    arrival order (same key → same owner → same FIFO queue), while
    independent keys may execute in parallel. Cross-partition requests —
    scans, verify, stats, metrics, session admin — quiesce the pool first
    and run at their exact position.

    Exception: with {!Fastver.Config.t.background_verify} set, [Verify]
    does {e not} quiesce. The epoch boundary is sealed under a brief
    O(workers) barrier and the scan runs on a background domain
    ({!Fastver.verify_async}) while executors keep serving gets and puts
    into the next epoch; the response is emitted when the scan completes
    (the completion wakes the loop, so the reply never waits for unrelated
    traffic). The certificate is bit-identical to the
    one a quiescent scan of the same epoch would produce.

    Robustness properties:
    - {e backpressure}: a connection is not read while the pending-request
      queue holds 1024 requests or its own unsent replies reach 4 MiB —
      TCP flow control pushes back on that client, and the others keep
      being served;
    - {e error isolation}: a malformed frame or forged request poisons only
      its own connection/operation, never the loop or other clients;
    - {e clean shutdown}: {!stop} wakes the loop, which closes the executor
      queues, fails any batch that raced the close with an explicit
      [shutdown] error (never a crash: {!Fastver.Bounded_queue.push} is
      total), joins executors and any in-flight background verification,
      writes the replies they filled within a one-second grace, then
      closes every socket and removes the Unix socket file;
    - {e no busy-wait}: the loop always blocks in [select] — completions
      from executor domains and background scans wake it through the
      reactor's one wake pipe, and wake-up writes that fail for a real
      reason (not a full pipe, not an orderly shutdown) are logged and
      counted ([fastver_net_lost_wakeups_total]) instead of silently
      dropped;
    - {e descriptor ceiling}: a connection whose descriptor [select] cannot
      hold is closed at accept and counted
      ([fastver_net_connections_refused_total]); the loop keeps serving.
      Scans longer than 65536 keys are refused. *)

type config = {
  batch_limit : int;  (** max requests drained per batch (default 256) *)
  read_only : bool;
      (** replication-follower mode (default [false]): [Put] requests are
          refused, and [Verify] answers with the follower's already-verified
          epoch — re-signing its certificate under the shared secret — rather
          than sealing an epoch locally (a follower's epochs advance only
          with the primary's authenticated boundary records, so the client's
          [verify_now] check works unchanged). Gets, scans, stats and
          metrics are served normally. *)
}

val default_config : config

type counters = {
  accepted : int;  (** connections accepted *)
  served : int;  (** requests answered *)
  batches : int;  (** worker-loop drains *)
  max_batch : int;  (** largest single drain *)
  proto_errors : int;  (** malformed frames / requests *)
  op_failures : int;  (** operations answered with an error *)
}
(** A point-in-time snapshot. The live counters are [Atomic.t]s registered
    on the system's {!Fastver.registry} (names [fastver_net_*]), so reading
    from outside the server domain is sound. *)

type t

val create : ?config:config -> Fastver.t -> listen:Addr.t -> (t, string) result
(** Binds and listens immediately (so [listen] may use TCP port 0 and the
    effective address read back with {!bound_addr}). *)

val bound_addr : t -> Addr.t

val set_read_only : t -> bool -> unit
(** Flip follower mode on a running server. Election promotion calls
    [set_read_only t false] so a follower starts admitting puts without
    restarting its loop (demotion flips it back). Requests already past
    classification keep the mode they saw. *)

val counters : t -> counters

val start : t -> unit
(** Run the loop in a background domain. *)

val stop : t -> unit
(** Signal shutdown, join the loop domain (if {!start} ran) and close
    everything. Idempotent. *)
