(** Authenticated log-structured cold tier.

    A cold tier is a directory of fixed-size append-only segment files. Records
    demoted from the in-memory store are appended to the active segment; when
    it fills it is sealed with a {!Segment} footer (record count, data length,
    multiset summary of the record MACs) and a fresh active segment is opened.

    Integrity model: the disk is untrusted, exactly like the host memory the
    verifier already defends against. Every record carries its Blum aux word
    (evict timestamp) and a keyed MAC, so reading a record back from disk is
    authenticated twice over — by the MAC at read time, and by the verifier,
    which checks the record against its Merkle parent's hash before the read
    is answered. Sealed-segment footers let scrubbing and GC validate a
    whole segment without consulting the verifier.

    Concurrency: appends, sealing, retirement and manifest encoding serialise
    on one writer lock; reads take only the target segment's lock (positional
    reads on a per-segment descriptor), so concurrent gets from different
    segments never contend — the wait is recorded in the
    [fastver_cold_read_wait_seconds] histogram as proof.

    Crash safety: the tier's durable state is committed by the checkpoint
    manifest (see {!manifest_encode}); recovery truncates the active segment
    back to the committed length and deletes stray segments, so a crash
    mid-append or mid-compaction always lands on a committed prefix. *)

type t

type config = {
  dir : string;
  mac_secret : string;  (** keys the record and footer MACs *)
  segment_bytes : int;  (** seal threshold for a segment's record area *)
}

type rref = { seg : int; off : int; len : int }
(** A cold record reference: segment id, byte offset of the record, and the
    {e value} length (the on-disk record occupies
    [Segment.record_len ~value_len:len] bytes). *)

val create : ?clear_stray:bool -> config -> (t, string) result
(** Open a fresh tier: creates [dir] if needed; [Error] if it already
    contains segment files (those need {!recover} with their manifest).
    [clear_stray] instead deletes such leftovers — correct when starting
    fresh with no checkpoint, since segments not named by any manifest were
    never committed. *)

val recover : config -> manifest:string -> (t, string) result
(** Reopen a tier from a checkpoint manifest (the exact string produced by
    {!manifest_encode}). Sealed segments are checked against their footers
    (size, record count, summary, footer MAC — a flipped footer byte is an
    [Error]); the active segment is truncated back to the committed length;
    segment files the manifest does not know are deleted. Total. *)

val manifest_encode : t -> string
(** Fsync the active segment and render the tier's durable state (segment
    list, lengths, record counts, summaries) for inclusion in a checkpoint
    generation. Everything appended after this call is uncommitted and will
    be truncated away by {!recover}. *)

val flush : t -> unit
(** Fsync the active segment. *)

val close : t -> unit

val append :
  t -> key:Key.t -> aux:int64 -> value:string -> (rref, string) result
(** Append one encoded record (sealing and rotating the active segment as
    needed) and return its reference. [value] is the store-codec encoding of
    the record's value; [aux] is the slot's aux word, Blum tier bit and evict
    timestamp included. *)

val get :
  t -> key:Key.t -> rref -> (string * int64, [ `Stale | `Fail of string ]) result
(** Authenticated positional read: [Ok (value, aux)] after the record's MAC
    verifies and its embedded key matches [key]. [`Stale] means the segment
    was compacted away after the caller fetched the reference — re-read the
    index and retry. [`Fail _] is an integrity or I/O failure: a flipped byte
    in the value, the aux/timestamp or the length field surfaces here as a
    MAC mismatch. *)

val validate_ref : t -> rref -> (unit, string) result
(** Bounds-check a reference against the live segment table (recovery-time
    validation of checkpoint records). *)

val note_dead : t -> rref -> unit
(** The referenced record was superseded or deleted; its bytes are garbage
    for the next compaction. *)

val note_live : t -> rref -> unit
(** Recovery-time accounting: the reference is live in the recovered index. *)

val note_checkpoint : t -> unit
(** A checkpoint generation committed. Retired segments are unlinked once two
    further checkpoints have committed (the newest generation and its
    retained fallback no longer reference them). *)

val gc_candidates : t -> min_dead_ratio:float -> int list
(** Sealed segments whose dead-byte ratio is at least [min_dead_ratio]. *)

val retire_segments : t -> int list -> unit
(** Mark segments dead after compaction rewrote their live records. Files
    are unlinked immediately if no checkpoint ever committed, otherwise
    deferred (see {!note_checkpoint}). *)

val note_gc_rewrite : t -> unit

val scrub : t -> (unit, string) result
(** Re-validate every sealed segment end to end: walk the records (hostile
    lengths are an [Error], never a crash), re-verify each MAC, re-derive the
    multiset summary and compare with the footer, re-verify the footer MAC.
    Any failure bumps [scrub_failures] and is returned. *)

type stats = {
  segments : int;  (** live segments (active + sealed) *)
  dead_segments : int;  (** retired, awaiting unlink *)
  live_bytes : int;
  dead_bytes : int;
  reads : int;
  writes : int;
  gc_rewrites : int;
  scrub_failures : int;
}

val stats : t -> stats

val wire_metrics : t option -> Fastver_obs.Registry.t -> unit
(** Register the [fastver_cold_*] metric family. With [None] every metric is
    registered at a constant zero, so the documented names are always present
    in a snapshot even when the cold tier is disabled. *)

(** {2 Crash-fault injection (tests)} *)

exception Injected_crash of string

type fault = {
  after_appends : int;  (** let this many appends succeed first *)
  torn : bool;  (** write half the next record before dying (torn tail) *)
}

val arm_fault : fault -> unit
val disarm_fault : unit -> unit
