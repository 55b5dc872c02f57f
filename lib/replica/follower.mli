(** A replication follower: rebuilds store state by replaying the primary's
    framed op stream, verifies the epoch-certificate chain at every epoch
    boundary, and (optionally) serves integrity-checked reads through the
    ordinary {!Fastver_net.Server} path — read-only, so clients re-check
    receipt MACs exactly as against the primary.

    Trust model: the follower holds the shared [mac_secret], so its own
    verifier re-derives every receipt and epoch certificate. The stream is
    untrusted transport — ops are buffered per epoch and applied only after
    the boundary record authenticates (stream digest MAC + certificate
    chain), then the follower's local verification scan re-checks the epoch
    balance. A single flipped bit in a streamed op or certificate halts the
    follower with {!Fastver.Integrity_violation} naming the epoch; the
    evidence stays readable via {!failure} and already-verified state keeps
    serving.

    {b Election.} An {!electable} follower binds its advertised replication
    address immediately, as a standby {!Primary} that answers term probes.
    When the primary stays unreachable past [election_timeout], candidates
    run a deterministic round: each probes the others with [Announce_term]
    and the one holding the greatest (verified epoch, priority, run-id)
    tuple promotes in place under a fencing term above every term seen —
    sound because a sealed epoch is chain-authenticated, so the highest
    verified epoch provably contains every certified write. Losers receive
    the winner's [Promote] directive and re-subscribe there.

    {b Demotion.} A leader — promoted here, or started by {!leading} —
    steps down only to a live primary that outranks it by (term, verified
    epoch, priority, run-id), at or above any (unauthenticated) deposition
    evidence's term. Stopping its read server drains every admitted put. A
    leader that then applied no write and sealed no epoch while leading
    keeps its store, a prefix of the history it followed. Any other serves
    no read until it re-bootstraps from its successor as {!create} does,
    on the same addresses; its standby listener stays meanwhile, so it
    still votes. A node with no peer to probe never promotes itself. *)

type t

type state =
  | Streaming  (** connected, applying verified epochs *)
  | Disconnected  (** between reconnect attempts *)
  | Leading  (** elected, or built by {!leading}: writes and the stream *)
  | Halted
      (** integrity failure — evidence in {!failure}; reads still served *)
  | Stopped

type election = {
  listen : Fastver_net.Addr.t;
      (** this candidate's replication address, bound from the start *)
  peers : Fastver_net.Addr.t list;
      (** the other candidates' replication addresses *)
  priority : int;  (** static tie-break, higher wins (default 0) *)
  election_timeout : float;
      (** seconds of primary unreachability before a candidacy round
          (default 1.0) *)
  probe_timeout : float;
      (** per-peer announce/promote exchange budget (default 1.0) *)
  probe_interval : float;
      (** leader's rival-probe cadence after promotion (default 0.5) *)
  promote_batch : int;
      (** auto-seal batch size re-enabled at promotion (default 256) *)
  checkpoint_dir : string option;
      (** enable auto-checkpointing there once leading *)
}

val electable :
  ?peers:Fastver_net.Addr.t list ->
  ?priority:int ->
  ?election_timeout:float ->
  ?probe_timeout:float ->
  ?probe_interval:float ->
  ?promote_batch:int ->
  ?checkpoint_dir:string ->
  Fastver_net.Addr.t ->
  election
(** [electable listen] with the defaults above. *)

val create :
  ?reconnect_delay:float ->
  ?handshake_timeout:float ->
  ?election:election ->
  ?config:Fastver.Config.t ->
  ?load:(Fastver.t -> unit) ->
  primary:Fastver_net.Addr.t ->
  ?listen:Fastver_net.Addr.t ->
  dir:string ->
  unit ->
  (t, string) result
(** Connect to the primary and bootstrap. A fresh follower subscribes from
    epoch 0 and, when it holds no sealed state, installs the initial
    database via [load] (which must perform the same trusted bulk load the
    primary did — bulk loads are out-of-band, not streamed). If the
    primary's retained stream no longer reaches back to epoch 0 the
    follower fetches the newest committed checkpoint generation into [dir],
    recovers through the manifest-verified recovery path, and tails from the
    recovered epoch. [config.batch_size] is forced to [0]: a follower never
    seals epochs on its own, it advances only at authenticated boundary
    records (until an election promotes it).

    [reconnect_delay] (default 0.2 s) is the {e base} of an exponential
    backoff with full jitter, capped at 5 s and reset by every successful
    subscribe — a fleet of followers losing one primary does not
    reconnect-storm the candidate. [handshake_timeout] (default 5 s) bounds
    every subscribe/fetch conversation; a primary that accepts the
    connection but never answers is treated as down, not waited on forever.

    [election] requires [listen] (the read server) to make promotion
    meaningful, but they are independent: [election.listen] is the
    {e replication} address.

    Follower metrics (on the system's registry):
    [fastver_repl_ops_applied_total], [fastver_repl_certs_verified_total],
    [fastver_repl_certs_rejected_total], [fastver_repl_lag_epochs],
    [fastver_repl_follower_reads_total], [fastver_repl_elections_total],
    [fastver_repl_promotion_seconds]. *)

val leading :
  load:(Fastver.t -> unit) ->
  election:election ->
  server:Fastver_net.Server.t ->
  dir:string ->
  Fastver.t ->
  (t, string) result
(** A node that starts [Leading] around an already-loaded store: binds
    [election.listen] as the replication {!Primary} (installing its tee),
    then starts [server], which must not have served traffic yet. It then
    leads, and steps down, like a promoted follower. [load] and [dir] serve
    a re-bootstrap after demotion, as in {!create}; a checkpoint fetch
    lands in a new directory under [dir]. *)

val start : t -> unit
(** Run the node in a background domain until {!stop}: stream, or lead.
    Disconnects reconnect automatically from the first unverified epoch.
    A refused re-subscription is classified by {!Primary.refusal}: "not
    primary"/"deposed" mean the cluster is mid-election and are retried;
    a "fetch a checkpoint" refusal (the stream floor passed the follower,
    or its chain term is stale) re-bootstraps the store as a deposed
    leader does; anything else (a rolled-back primary) halts. A halt is
    recorded (see {!failure}) and reads keep serving. *)

val stop : t -> unit
(** Stop streaming, join the domain, stop the standby listener and the read
    server. *)

val system : t -> Fastver.t
(** The current store: a re-bootstrap replaces it. *)

val server : t -> Fastver_net.Server.t option
val state : t -> state

val failure : t -> (int * string) option
(** The halting [(epoch, reason)], if an integrity failure occurred. *)

val verified_epoch : t -> int
(** Highest epoch applied and locally verified ([-1] if none). *)

val applied_ops : t -> int
(** Streamed ops applied to the local store (verified epochs only). *)

val run_id : t -> int64 option
(** The primary incarnation last subscribed to. *)

val term : t -> int
(** The chain term: the fencing term of the newest authenticated boundary
    record (or the term this node promoted under). *)

val standby : t -> Primary.t option
(** The standby/leading replication listener, when electable. *)
