(** AES-CMAC (RFC 4493): a PRF / MAC over arbitrary-length messages.

    FastVer uses AES-CMAC as the pseudo-random function underlying the
    multiset hash, following Concerto, and for put MACs and receipts.
    {!mac} runs the whole chaining loop in one call into the C kernel of
    {!Aes128}. *)

type key

val of_aes_key : string -> key
(** Derive the CMAC subkeys from a 16-byte AES-128 key. *)

val mac : key -> string -> string
(** [mac k msg] is the 16-byte CMAC tag of [msg] (any length, including 0). *)
