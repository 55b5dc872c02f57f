(** Record values: data payloads and merkle-node payloads (§4.2, Fig. 4).

    A merkle value is a pair of optional pointers. Pointer slot [false] (left)
    covers descendants through bit 0, slot [true] (right) through bit 1. Each
    pointer names a descendant key, the hash of that descendant's value, and
    an [in_blum] flag recording that the descendant was handed over to
    deferred (Blum) protection — the hybrid scheme's cross-mechanism guard
    (§6, "EvictBM"). *)

type ptr = { key : Key.t; hash : string; in_blum : bool }

type node = { left : ptr option; right : ptr option }

type t =
  | Data of string option
      (** A data record; [None] is the null value of a non-existent key. *)
  | Node of node  (** A merkle record. *)

val empty_node : t
(** [Node] with both slots empty. *)

val init : Key.t -> t
(** The initial value of a key in the all-null sparse tree: [Data None] for
    data keys, {!empty_node} for merkle keys. *)

val is_init : Key.t -> t -> bool

val compatible : Key.t -> t -> bool
(** Data keys carry [Data] values, merkle keys carry [Node] values. *)

val slot : node -> bool -> ptr option
val set_slot : node -> bool -> ptr option -> node

val encode : t -> string
(** Injective binary encoding, input to {!Record_enc} hashing. *)

val encoded_size : t -> int
(** [String.length (encode v)], computed without encoding. *)

val encode_into : t -> Bytes.t -> int -> unit
(** [encode_into v b off] writes {!encode}[ v] into [b] at [off]; [b] must
    have {!encoded_size}[ v] bytes free there. *)

val decode : string -> (t, string) result
(** Inverse of {!encode}; used when reloading untrusted persisted records
    (any tampering surfaces later as a verifier check failure). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
