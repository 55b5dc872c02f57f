(** The replication primary: tees every admitted op into a framed stream and
    serves it, with epoch-boundary certificate records, to subscribed
    followers on its own listener, driven by the same select loop as the
    serving layer ({!Fastver_net.Reactor}).

    {!create} installs the {!Fastver.set_replication_hooks} tee, so it must
    run {e before} the store serves traffic: ops applied earlier are not in
    the retained log and their epoch could never authenticate downstream.
    The stream layer keeps the last 64 sealed epochs of records; a
    follower subscribing from below that floor is told to fetch
    the newest committed checkpoint generation instead (shipped verbatim,
    manifest included — the follower re-verifies every checksum through the
    normal recovery path).

    Ops are coalesced into [Repl_batch] frames of up to 512 ops; a batch is
    also flushed 20 ms after its first op, at every epoch seal, at any
    epoch change and before a subscriber's replay snapshot. The per-op
    stream digest and boundary MAC do not depend on where batches split.
    The tee hooks only append frames to an outbox and wake the loop; the
    loop alone writes to connections, and disconnects a follower whose
    unsent backlog exceeds 64 MiB.

    Wire conversation (see {!Fastver_net.Wire}): a follower sends
    [Subscribe { from_epoch; term }] meaning "my state reflects every sealed
    epoch below [from_epoch], newest verified under fencing [term]"; the
    primary acks with [Subscribed] (carrying this incarnation's [run_id] and
    current term), replays the retained records for epochs [>= from_epoch]
    and then streams live. [Fetch_checkpoint] may be sent on the same
    connection before subscribing. [Announce_term] and [Promote] are the
    election opcodes: every listener (leading or standby) answers them with
    [Term_info].

    {b Fencing.} Every boundary record is stamped with the primary's term
    (covered by the stream MAC). At subscribe time: a subscriber speaking a
    {e higher} term proves this primary was deposed (the refusal is
    recorded as evidence, read through {!deposed} by the owning
    {!Follower}, which demotes once a primary at that term answers); a
    subscriber whose {e older} term claims epochs at or past {!promote}'s
    [term_start] is fenced off with a "fetch a checkpoint" refusal,
    because those epochs were re-sealed under the new term and its chain
    may diverge. {!refusal} classifies every
    refusal text for the subscriber.

    Metrics (on the system's registry): [fastver_repl_ops_streamed_total],
    [fastver_repl_epochs_streamed_total], [fastver_repl_followers],
    [fastver_repl_stream_lag_bytes], [fastver_repl_term]. *)

type config = {
  checkpoint_dir : string option;
      (** where [Fetch_checkpoint] reads generations from; [None] disables
          checkpoint catch-up *)
  priority : int;
      (** static election priority reported in [Term_info] (default 0);
          higher wins equal-epoch ties. *)
}

val default_config : config

type role = Leading | Standby
(** [Leading] tees and streams; [Standby] is an election candidate — the
    listener answers [Announce_term]/[Promote] probes and refuses
    subscribers until {!promote}. *)

type t

val create :
  ?config:config ->
  ?role:role ->
  Fastver.t ->
  listen:Fastver_net.Addr.t ->
  (t, string) result
(** Binds the replication listener; with [~role:Leading] (the default) also
    installs the tee hooks, so it must run before the store serves any
    traffic. [~role:Standby] installs nothing — an electable follower binds
    its future replication address this way and {!promote}s in place. *)

val bound_addr : t -> Fastver_net.Addr.t
(** Effective listen address (TCP port 0 resolved). *)

val start : t -> unit
(** Run the loop in a background domain. *)

val stop : t -> unit
(** Clear the tee hooks, wake and join the loop, close every connection and
    the listener. Idempotent. *)

val frames_emitted : t -> int
(** [Repl_batch] frames emitted so far (boundary records excluded);
    ops/frames is the realised coalescing factor. *)

val run_id : t -> int64

(** {2 Election} *)

val term : t -> int

val deposed : t -> (int * Fastver_net.Addr.t option) option
(** Evidence of a strictly higher term: a peer spoke from one
    ([Some (term, addr)]; [addr] names the new primary's replication
    address when a [Promote] directive carried a valid one). On a leader
    the evidence stands until {!demote}; on a standby reading it consumes
    it, so the owner re-homes once per directive. *)

val refusal : string -> [ `Retry | `Rebootstrap | `Halt ]
(** How a subscriber answers a [Subscribe] refusal's text: [`Retry] a
    standby or deposed primary (the cluster is mid-election),
    [`Rebootstrap] a "fetch a checkpoint" refusal (stale term, or below
    the retained floor), [`Halt] anything else — a subscriber ahead of the
    primary is evidence of a rollback. *)

val promote : t -> term:int -> unit
(** Standby → Leading in place: install the tee hooks on the live store and
    start serving the stream under [term]. The first epoch sealed after this
    call is the fencing boundary ([term_start]) for stale-term subscribers.
    The caller is responsible for re-enabling auto-sealing
    ({!Fastver.set_batch_size}) and flipping its net server out of
    read-only.
    @raise Invalid_argument if already leading. *)

val demote : t -> term:int -> unit
(** Leading → Standby in place: clear the tee hooks, adopt [term] (terms
    never move backwards), and disconnect every subscriber so they re-home
    to the new primary. The listener keeps answering election probes. *)
