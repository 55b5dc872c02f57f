(** On-disk record and footer codec for cold-tier segments.

    A segment is an append-only file of self-authenticating records followed,
    once sealed, by a fixed-size footer. Every record carries the key, the
    Blum aux word (evict timestamp + tier bit) and a keyed MAC, so a record
    read back from untrusted disk is authenticated exactly like a record
    evicted to untrusted memory — plus the MAC gives eager, per-read
    detection before the value ever reaches the verifier.

    Record layout ([record_overhead] + value bytes):
    {v
      key    34  Key.encode (2-byte depth LE + 32 path bytes)
      aux     8  int64 LE (sign bit = Blum tier, low 63 bits = timestamp)
      vlen    4  u32 LE, length of value
      value  vlen
      mac    32  HMAC-SHA256(mac_secret, domain-sep || key || aux || vlen || value)
    v}

    Footer layout ([footer_len] bytes, present only on sealed segments):
    {v
      magic      8  "FVCOLDS1"
      n_records  8  int64 LE
      data_len   8  int64 LE, record bytes preceding the footer
      summary   16  multiset hash over the record MACs of the segment
      mac       32  HMAC-SHA256(mac_secret, domain-sep || first 40 bytes)
    v}

    All decoders are total: hostile lengths, truncation or a flipped byte
    yield [Error _], never an exception or a silently short value. *)

val record_header_len : int
(** 46 — key + aux + vlen. *)

val record_overhead : int
(** 78 — header + MAC; a record occupies [record_overhead + value length]. *)

val record_len : value_len:int -> int

val footer_len : int
(** 72. *)

val footer_magic : string

val encode_record :
  mac_key:Fastver_crypto.Hmac.key -> key:Key.t -> aux:int64 -> value:string -> string
(** The full on-disk record, MAC included. *)

val record_mac : string -> string
(** The trailing 32-byte MAC of an encoded record (for segment summaries).
    @raise Invalid_argument if shorter than [record_overhead]. *)

type record = { key_enc : string; aux : int64; value : string }

val decode_record :
  mac_key:Fastver_crypto.Hmac.key -> string -> (record, string) result
(** Decode and authenticate one record occupying the whole input string.
    [Error] on bad framing, a length that disagrees with the input, or a MAC
    mismatch (any flipped byte in key, aux/timestamp, length or value). *)

type footer = { n_records : int64; data_len : int64; summary : string }

val encode_footer :
  mac_key:Fastver_crypto.Hmac.key -> n_records:int64 -> data_len:int64 -> summary:string ->
  string
(** @raise Invalid_argument if [summary] is not 16 bytes. *)

val decode_footer : mac_key:Fastver_crypto.Hmac.key -> string -> (footer, string) result
(** [Error] on wrong length, bad magic, negative fields or MAC mismatch. *)
