(** HMAC-SHA256 (RFC 2104), over {!Sha256}'s C compression.

    Used for client request signatures and verifier result signatures: the
    paper allows message authentication codes over a shared secret in place of
    digital signatures (§2.1, footnote 2). *)

type key
(** A secret with its inner and outer pad states precomputed: MACs under
    one secret should share one [key]. *)

val key : string -> key
(** Any secret length. *)

val mac_with : key -> string -> string
(** The 32-byte HMAC-SHA256 tag; equal to [mac ~key:secret msg]. *)

val verify_with : key -> string -> tag:string -> bool
(** Constant-time tag check. *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the 32-byte HMAC-SHA256 tag. Any key length. *)

val verify : key:string -> string -> tag:string -> bool
(** Constant-time tag check. *)
