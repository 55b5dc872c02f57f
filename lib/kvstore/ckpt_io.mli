(** Crash-safe checkpoint I/O.

    Checkpoint component files are written with the classic durable-write
    protocol: stream into [file.tmp], [fsync] the data, atomically [rename]
    over the final name, then [fsync] the containing directory so the rename
    itself is durable. A crash at any byte offset therefore leaves either the
    previous complete file or a stray [.tmp] — never a half-written file
    under the committed name.

    A checkpoint {e generation} ([ckpt-<n>/]) is committed by its manifest: a
    file, written last with the same protocol, carrying the SHA-256 of every
    component file and, for a delta generation, the number of its parent
    generation and the SHA-256 of the parent's manifest. The writer hashes
    every byte it streams, so a component's entry costs no re-read.
    Recovery trusts a generation only after re-hashing every component
    against the manifest, so torn or partially-synced generations are
    detectable and can be discarded in favour of the previous one.

    The module also hosts the crash-fault-injection hook used by the sweep
    tests: an armed fault makes the writer raise {!Injected_crash} at a
    chosen cut point (after N bytes, before a file's fsync — simulated by
    truncating the temp file, as a real crash would tear the unsynced tail —
    or before its rename), leaving the directory exactly as a [kill -9] at
    that instant would. *)

exception Injected_crash of string
(** Simulated crash: the process "died" at the armed cut point. Only raised
    while a fault is armed (tests); production writes never see it. *)

type fault =
  | Die_after_bytes of int
      (** Crash once this many bytes have been written, cumulatively across
          every file since {!arm}. The byte at the cut point and everything
          after it are lost. *)
  | Die_before_fsync of string
      (** Crash while finalising the file with this basename, before its
          data reaches disk: the temp file is torn (truncated to half) and
          never renamed. *)
  | Die_before_rename of string
      (** Crash after the named file's data is synced but before the rename
          commits it: the complete temp file is left behind, the committed
          name untouched. *)

val arm : fault -> unit
(** Arm a fault (resetting the cumulative byte counter). Test-only. *)

val disarm : unit -> unit

val bytes_written : unit -> int
(** Cumulative bytes written through {!write} since the last {!arm} — lets a
    sweep test measure a checkpoint's total write volume (arm a fault that
    never fires, checkpoint, read this) and then pick cut points. *)

(** {2 Atomic file writing} *)

type writer

type digest = { size : int; sha256_hex : string }
(** Size and lowercase-hex SHA-256 of the bytes a writer streamed. *)

val write : writer -> string -> unit
val write_bytes : writer -> Bytes.t -> unit

val with_atomic_file : string -> (writer -> unit) -> digest
(** [with_atomic_file path f] runs [f] writing to [path ^ ".tmp"], then
    fsyncs, renames onto [path] and fsyncs the directory, and returns the
    digest of what [f] wrote. If [f] raises (or an armed fault fires) the
    committed [path] is left untouched. *)

val write_file_atomic : string -> string -> digest
(** Whole-string convenience over {!with_atomic_file}. *)

val fsync_dir : string -> unit
(** Best-effort directory fsync (no-op where unsupported). *)

(** {2 Manifests and generations} *)

val sha256_file : string -> (string, string) result
(** Streaming SHA-256 of a file, as lowercase hex. *)

module Manifest : sig
  type entry = { name : string; size : int; sha256_hex : string }

  type t = {
    generation : int;
    parent : (int * string) option;
        (** [Some (g, sha)]: a delta over generation [g], whose MANIFEST has
            SHA-256 [sha] (hex). [None]: a base. *)
    entries : entry list;
  }

  val filename : string
  (** ["MANIFEST"]. *)

  val entry_of_file : dir:string -> string -> (entry, string) result
  (** Hash an existing component file into a manifest entry. *)

  val encode : t -> string
  (** The [FVMANIFEST2] text of a manifest. *)

  val write : dir:string -> t -> unit
  (** Atomically write [dir/MANIFEST] — the generation's commit point. *)

  val read : dir:string -> (t, string) result
  (** Total: any malformed manifest is an [Error], never an exception. A
      parent number must be below the generation's own. *)

  val legacy : dir:string -> string option
  (** The magic of a manifest written by an earlier release ([FVMANIFEST1],
      no parent line), which {!read} rejects as malformed. *)

  val verify : dir:string -> t -> (unit, string) result
  (** Re-hash every entry's file; [Error] on a missing file, size mismatch
      or digest mismatch. *)
end

val generation_dir_name : int -> string
(** [ckpt-<n>]. *)

val generations : string -> (int * string) list
(** All [ckpt-<n>] subdirectories of a checkpoint directory as
    [(n, absolute_path)], newest first. Missing or unreadable directories
    yield []. *)

val remove_tree : string -> unit
(** Recursively delete a file or directory, ignoring errors (used to discard
    torn generations and stray temp files). *)
