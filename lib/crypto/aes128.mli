(** AES-128 block encryption (FIPS 197), implemented from scratch as a
    portable C kernel: the 32-bit T-table formulation, with blocks read and
    written byte by byte, so results do not depend on the host's byte order.
    There are no AES-NI instructions and no CPU dispatch.

    Only encryption is provided; FastVer uses AES strictly as a PRF inside
    AES-CMAC for multiset hashing (the paper uses AES-NI for the same
    construction, following Concerto). *)

type key
(** An expanded 128-bit key schedule. *)

val expand_key : string -> key
(** @raise Invalid_argument unless the key is exactly 16 bytes. *)

val encrypt_block : key -> string -> string
(** [encrypt_block k block] encrypts one 16-byte block.
    @raise Invalid_argument unless [block] is 16 bytes. *)

val encrypt_block_into : key -> Bytes.t -> Bytes.t -> unit
(** [encrypt_block_into k src dst] is an allocation-light variant; [src] and
    [dst] are 16-byte buffers and may alias. *)
