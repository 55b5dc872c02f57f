(** Host-side (untrusted) storage of merkle records, organised as the record
    encoding of a Patricia sparse Merkle tree (§4.2).

    The tree stores only merkle records (internal nodes, including the root).
    Data records live in the host key-value store; pointers reference them by
    key. Each record carries a caller-supplied mutable ['aux] field — the
    64-bit bookkeeping field of the paper (§7) generalised to any type.

    Everything here is prover-side machinery: it maintains structure, not
    trust. Integrity comes from the verifier replaying the corresponding
    operations. *)

type 'aux t

type 'aux entry = private {
  mutable value : Value.t;
  mutable aux : 'aux;
  mutable changed : bool;  (** recorded since {!clear_changed} *)
}
(** Read freely; change only through {!set}, {!set_value} and {!set_aux},
    which record the key for incremental checkpoints. *)

val create : root_aux:'aux -> 'aux t
(** A tree over the all-null database: the root record with two empty slots. *)

val find : 'aux t -> Key.t -> 'aux entry option
val get_exn : 'aux t -> Key.t -> 'aux entry
val mem : 'aux t -> Key.t -> bool

val set : 'aux t -> Key.t -> Value.t -> aux:'aux -> unit
(** Insert or overwrite a merkle record.
    @raise Invalid_argument if [k] is a data key. *)

val set_value : 'aux t -> Key.t -> 'aux entry -> Value.t -> unit
(** [set_value t k e v] replaces the value of [e], the entry of [k]. *)

val set_aux : 'aux t -> Key.t -> 'aux entry -> 'aux -> unit
(** [set_aux t k e a] replaces the aux of [e], the entry of [k]. *)

val remove : 'aux t -> Key.t -> unit
val length : 'aux t -> int
val iter : 'aux t -> (Key.t -> 'aux entry -> unit) -> unit

(** {2 Change tracking}

    For incremental checkpoints. Off until {!track_changes}, so a tree that
    is never checkpointed pays one branch per mutation. *)

val track_changes : 'aux t -> unit
(** Start recording every key set or removed (idempotent). *)

val iter_changed : 'aux t -> (Key.t -> 'aux entry option -> unit) -> unit
(** Every key recorded since {!clear_changed}, with its current entry
    ([None]: removed since). A key removed and set again may come twice,
    each time with its current entry. *)

val clear_changed : 'aux t -> unit

(** {2 Navigation} *)

type outcome =
  | Exists  (** the pointing parent's slot names the looked-up key *)
  | Empty_slot  (** the slot in the key's direction is empty *)
  | Split of Key.t
      (** the slot names an unrelated key; a new internal node at the LCA
          must be introduced. Carries the current pointee. *)

type descent = {
  path : Key.t list;  (** merkle nodes from the root down to the pointing
                          parent (inclusive), in root-first order *)
  outcome : outcome;
}

val descend : 'aux t -> Key.t -> descent
(** Walk the trie from the root towards [k] (which must not be the root).
    The last element of [path] is the {e pointing parent} of [k] — the node
    whose slot either names [k], is empty where [k] would attach, or names a
    key that [k] splits. *)

val pointing_parent : 'aux t -> Key.t -> Key.t
(** Last element of [(descend t k).path]. *)

(** {2 Bulk construction} *)

val bulk_build :
  'aux t ->
  ?algo:Record_enc.algo ->
  aux:(Key.t -> Value.t -> 'aux) ->
  (Key.t * Value.t) array ->
  unit
(** [bulk_build t ~aux records] (re)builds the complete Patricia tree over the
    given data records (which must have distinct data keys, sorted per
    {!Key.compare}; they are sorted in place if not). All internal-node hashes
    are computed bottom-up, so the resulting tree is fully propagated (no lazy
    staleness). The data records themselves are not stored here. *)

val root_hash : 'aux t -> ?algo:Record_enc.algo -> unit -> string
(** Hash of the current root record value. Meaningful after {!bulk_build} or
    full propagation. *)

(** {2 Policy helpers} *)

val frontier : 'aux t -> levels:int -> Key.t list
(** Merkle nodes at Patricia level exactly [levels] (root = level 0), the
    paper's depth-[d] cut kept under deferred protection (§8.1). Nodes whose
    whole subtree sits above the cut are not included. *)

val check_structure : 'aux t -> (unit, string) result
(** Structural invariants: every slot points to a proper descendant on the
    correct side; every pointed merkle key exists; nodes are reachable from
    the root. Does not check hashes (lazy updates legitimately leave them
    stale). *)
