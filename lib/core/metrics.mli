(** Core-layer observability: the {!Fastver_obs} metrics a {!Fastver.t}
    maintains about itself.

    One instance per system, created alongside it (both [create] and
    checkpoint recovery). The event counters below always count: they are
    also the source of {!Fastver.stats}. The histograms are no-ops when the
    config disables metrics; the registry itself always exists, so
    callback-backed metrics (store stats, verifier op counts, epochs) can
    be attached and rendered either way. *)

type tier = Blum | Merkle | Cached

type t

val create : enabled:bool -> unit -> t
val registry : t -> Fastver_obs.Registry.t
val enabled : t -> bool

(** {2 Event counters} (atomic, never gated by [enabled]) *)

val tier : t -> tier -> unit
(** One validated elementary operation, attributed to the tier that served
    it: [Blum] = deferred fast path, [Merkle] = slow path that had to load
    chain records into the verifier cache, [Cached] = slow path whose whole
    chain was already resident. *)

val get_op : t -> unit
val put_op : t -> unit
val scan_op : t -> unit
val cas_retry : t -> unit

type counts = {
  c_gets : int;
  c_puts : int;
  c_scans : int;
  c_blum : int;
  c_merkle : int;
  c_cached : int;
  c_cas_retries : int;
  c_verifies : int;
}

val counts : t -> counts
(** The event counters, each read atomically (the record as a whole is
    not one atomic snapshot). *)

(** {2 Gated recording} (each a no-op unless [enabled]) *)

val flush : t -> int -> unit
(** Verification-log entries in one enclave flush. *)

val verify_scan : t -> seconds:float -> touched:int -> unit
(** One verification scan: counted always; its wall+modelled duration and
    the number of migrated records (data + frontier) it touched are
    recorded when enabled. *)

val verify_pause : t -> seconds:float -> unit
(** Foreground pause one verification imposed: the world-lock hold time,
    which is the whole scan from seal to certificate. *)

val verify_in_flight : t -> int -> unit
(** Set the in-flight-verification gauge (0 or 1). Not gated by [enabled]:
    the gauge is cheap, and a metrics dump taken on another thread (for
    example [serve --metrics-interval]) sees it at 1 while a scan holds
    the world. *)

val verify_shard_seconds : t -> sid:int -> Fastver_obs.Histogram.t
(** The per-shard scan-slice histogram ([fastver_verify_shard_seconds]
    labeled [shard=<sid>]). Registration is idempotent; call once per
    shard at wiring time so the series exists before the first scan. *)

val verify_shard : t -> sid:int -> seconds:float -> unit
(** One shard's share of a verification scan (dirty re-apply + frontier
    migration + epoch close/seal on its own domain). *)

val checkpoint_write : t -> float -> unit

(** The stages of one checkpoint, in order: writing stale cached records
    back (with the locks and log flush before it), the sealed summaries,
    the data image and cold manifest, the tree images, the MANIFEST
    commit, and retention. *)
type checkpoint_phase =
  | Writeback
  | Summary
  | Data
  | Trees
  | Manifest
  | Retention

val checkpoint_phase : t -> checkpoint_phase -> float -> unit
(** One phase's seconds ([fastver_checkpoint_phase_seconds{phase}]); a
    checkpoint's phases add up to its {!checkpoint_write} duration. *)

val checkpoint_committed : t -> base:bool -> bytes:int -> links:int -> unit
(** A generation committed: its kind, its bytes, and the length of the
    chain it now tips. *)

val checkpoint_chain_links : t -> int -> unit
(** The chain length after recovery. *)

val recover_done : t -> float -> unit
