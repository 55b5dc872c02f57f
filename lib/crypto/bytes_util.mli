(** Byte-string helpers shared by the cryptographic primitives.

    All functions operate on immutable [string] values unless the name says
    otherwise; mutation is confined to freshly allocated [Bytes.t]. *)

val xor : string -> string -> string
(** [xor a b] is the byte-wise exclusive-or of two equal-length strings.
    @raise Invalid_argument if the lengths differ. *)

val equal_constant_time : string -> string -> bool
(** Timing-safe equality: always scans the full length of both inputs. *)

val to_hex : string -> string
(** Lower-case hexadecimal rendering. *)

val of_hex : string -> string
(** Inverse of {!to_hex}. @raise Invalid_argument on odd length or bad digit. *)

val get_u64_le : string -> int -> int64
val set_u64_le : Bytes.t -> int -> int64 -> unit

val string_of_u64_le : int64 -> string
(** 8-byte little-endian encoding. *)
