(** A FASTER-style key-value store (the untrusted host database).

    Records live in a log-structured address space split, like FASTER's
    HybridLog, into a {e mutable region} (newest addresses, updated in
    place), a {e read-only region} (updates go copy-on-write: a new version
    is appended and the hash index is swung to it), and an optional on-disk
    region for the oldest versions: an authenticated {e cold tier}
    ({!Fastver_cold.Cold}) whose reads are MAC-checked end to end. A hash
    index maps each key to the address of its newest version.

    Every record carries the paper's 64-bit [aux] field (§7), updated
    atomically together with the value: {!try_cas} emulates FASTER's 128-bit
    compare-and-swap on (value, aux), which FastVer workers use for
    speculative timestamp installation (§5.3). Mutations are serialised per
    key through striped locks, so the store is safe under OCaml domains.

    Reads that may touch the cold tier are total: a missing tier, a torn
    read or a failed integrity check is an [Error _],
    never an exception — the server fails the one request and keeps serving.

    The store is polymorphic in the value type; a {!codec} is needed only
    when records leave memory or are checkpointed. *)

module Cold = Fastver_cold.Cold

type 'v codec = { encode : 'v -> string; decode : string -> 'v }

val string_codec : string codec

val option_codec : string option codec
(** [None] is the null value a deleted key holds. *)

type 'v t

val create :
  ?mutable_region_entries:int ->
  ?cold:Cold.t ->
  codec:'v codec ->
  unit ->
  'v t
(** [create ~codec ()] builds an empty store. [mutable_region_entries]
    bounds the in-place-updatable suffix of the log (default 1 M entries).
    [cold] attaches an authenticated cold tier; {!demote_now} moves cooling
    versions into it. *)

val length : 'v t -> int
(** Number of live records. *)

val log_size : 'v t -> int
(** Number of allocated log entries (live + superseded versions). *)

val get : 'v t -> Key.t -> (('v * int64) option, string) result
(** Current value and aux field of a key. [Ok None] when absent; [Error _]
    when the record lives on disk and the read failed (misconfigured tier,
    torn read, or — for the cold tier — a failed MAC check). *)

val put : 'v t -> Key.t -> 'v -> aux:int64 -> unit
(** Insert or update unconditionally. *)

val try_cas : 'v t -> Key.t -> expected_aux:int64 -> 'v -> aux:int64 -> bool
(** Atomically update value and aux iff the key exists and its current aux
    equals [expected_aux] — the speculative-update primitive of §5.3/§7.
    Returns [false] (no change) otherwise. Compares the aux word carried by
    the slot, so it never reads a disk tier. *)

val update :
  'v t -> Key.t -> (('v * int64) option -> 'v * int64) -> (unit, string) result
(** Read-modify-write under the key's stripe lock. [Error _] if the prior
    value could not be read back from its disk tier (no update happens). *)

val iter_live :
  'v t -> (Key.t -> 'v -> int64 -> unit) -> (unit, string) result
(** Iterate over current versions, in unspecified order. Stops at the first
    record whose disk tier fails to produce it. *)

val iter_aux : 'v t -> (Key.t -> int64 -> unit) -> unit
(** Iterate over the (key, aux) of every current version without touching
    any disk tier. Total. *)

(** {2 Maintenance} *)

val demote_now : 'v t -> budget:int -> (int, string) result
(** Demote record versions older than the newest [budget] log entries (and
    outside the mutable region) to the cold tier; returns how many moved.
    Each body flip happens under the key's stripe lock, so demotion is safe
    while the store is serving. [Ok 0] when no cold tier is attached. *)

val compact_cold : 'v t -> min_dead_ratio:float -> (int, string) result
(** Rewrite live records out of sealed segments whose dead-byte ratio is at
    least [min_dead_ratio], then retire those segments; returns how many
    records were rewritten. Every rewrite re-validates the record's MAC. *)

type stats = {
  reads : int;
  writes : int;
  rcu_copies : int;  (** updates that had to append a new version *)
}

val stats : 'v t -> stats
(** A consistent-enough snapshot: the live counters are [Atomic.t]s bumped
    from any domain; each field reads one atomic. Cold-tier counters live in
    {!Cold.stats}. *)

(** {2 Checkpointing (CPR-style)}

    [checkpoint] persists a prefix-consistent snapshot of all live records;
    [recover] reloads it. FastVer synchronises these with verification
    epochs so that a verified epoch is also durable (§7). Incremental
    checkpoints write {e delta} images — the records changed since the
    previous image — and recovery applies a base image and its deltas in
    order. *)

val track_changes : 'v t -> unit
(** Start recording which keys are installed, demoted or compacted
    (idempotent). Until then the mutation paths pay nothing. *)

val write_image :
  'v t -> path:string -> version:int -> base:bool -> Ckpt_io.digest
(** Write one image atomically ({!Ckpt_io.with_atomic_file}) and return its
    digest. A base ([~base:true]) holds every live record; a delta holds
    the keys changed since the last {!commit_changes}, including those of
    images that never committed (a failed attempt loses nothing). Both
    first move the keys recorded so far into the uncommitted set. [version]
    (the verified epoch) is stored as a full int64. Cold records are stored
    as segment references (their bytes are already durable in the cold
    tier); pair the image with the cold manifest of the same generation. *)

val commit_changes : 'v t -> unit
(** The last written image committed: forget the keys it covered. *)

val checkpoint : 'v t -> path:string -> version:int -> unit
(** A base {!write_image}: the snapshot is streamed to [path ^ ".tmp"],
    fsynced and renamed over [path], so a crash mid-checkpoint leaves the
    previous file intact. *)

val recover_chain :
  ?mutable_region_entries:int ->
  ?cold:Cold.t ->
  codec:'v codec ->
  paths:string list ->
  unit ->
  ('v t * int, string) result
(** Apply a base image and then its deltas, in list order, and return the
    store and the last image's version. Cold references are validated
    against [cold] (recovered from the newest generation's manifest) only
    on the resulting state, so an earlier image may name a segment that
    compaction has since retired. A state that references cold segments
    recovers to [Error _] when no cold tier is configured. Reads the
    [FVCKPT03] format only; the legacy [FVCKPT01] (int32 version header)
    and [FVCKPT02] (no record tag) magics are rejected with an explicit
    unsupported-format error rather than a generic bad-magic one. Total on
    untrusted input: every on-disk length and count is validated against
    the file size before use, so arbitrary byte corruption yields
    [Error _], never an exception or an oversized allocation. *)

val recover :
  ?mutable_region_entries:int ->
  ?cold:Cold.t ->
  codec:'v codec ->
  path:string ->
  unit ->
  ('v t * int, string) result
(** {!recover_chain} over one image. *)
