module B = Fastver_crypto.Bytes_util
module Hmac = Fastver_crypto.Hmac

let key_len = 34
let record_header_len = key_len + 8 + 4
let mac_len = 32
let record_overhead = record_header_len + mac_len
let record_len ~value_len = record_overhead + value_len
let footer_len = 8 + 8 + 8 + 16 + mac_len
let footer_magic = "FVCOLDS1"
let record_domain = "fastver-cold-record\x01"
let footer_domain = "fastver-cold-footer\x01"

let encode_record ~mac_key ~key ~aux ~value =
  let vlen = String.length value in
  let hdr = Bytes.create record_header_len in
  Bytes.blit_string (Key.encode key) 0 hdr 0 key_len;
  B.set_u64_le hdr key_len aux;
  Bytes.set_int32_le hdr (key_len + 8) (Int32.of_int vlen);
  let hdr = Bytes.unsafe_to_string hdr in
  let mac = Hmac.mac_with mac_key (record_domain ^ hdr ^ value) in
  hdr ^ value ^ mac

let record_mac r =
  if String.length r < record_overhead then
    invalid_arg "Segment.record_mac: record too short";
  String.sub r (String.length r - mac_len) mac_len

type record = { key_enc : string; aux : int64; value : string }

let decode_record ~mac_key r =
  let n = String.length r in
  if n < record_overhead then Error "cold record: truncated header"
  else
    let vlen32 = Bytes.get_int32_le (Bytes.unsafe_of_string r) (key_len + 8) in
    let vlen = Int32.to_int vlen32 in
    if vlen < 0 || vlen <> n - record_overhead then
      Error "cold record: length field disagrees with record size"
    else
      let hdr = String.sub r 0 record_header_len in
      let value = String.sub r record_header_len vlen in
      let tag = String.sub r (record_header_len + vlen) mac_len in
      if not (Hmac.verify_with mac_key (record_domain ^ hdr ^ value) ~tag)
      then Error "cold record: MAC mismatch"
      else
        let key_enc = String.sub r 0 key_len in
        let aux = B.get_u64_le r key_len in
        Ok { key_enc; aux; value }

type footer = { n_records : int64; data_len : int64; summary : string }

let encode_footer ~mac_key ~n_records ~data_len ~summary =
  if String.length summary <> 16 then
    invalid_arg "Segment.encode_footer: summary must be 16 bytes";
  let body = Bytes.create (footer_len - mac_len) in
  Bytes.blit_string footer_magic 0 body 0 8;
  B.set_u64_le body 8 n_records;
  B.set_u64_le body 16 data_len;
  Bytes.blit_string summary 0 body 24 16;
  let body = Bytes.unsafe_to_string body in
  body ^ Hmac.mac_with mac_key (footer_domain ^ body)

let decode_footer ~mac_key f =
  if String.length f <> footer_len then Error "cold footer: wrong length"
  else if String.sub f 0 8 <> footer_magic then Error "cold footer: bad magic"
  else
    let body = String.sub f 0 (footer_len - mac_len) in
    let tag = String.sub f (footer_len - mac_len) mac_len in
    if not (Hmac.verify_with mac_key (footer_domain ^ body) ~tag) then
      Error "cold footer: MAC mismatch"
    else
      let n_records = B.get_u64_le f 8 in
      let data_len = B.get_u64_le f 16 in
      if Int64.compare n_records 0L < 0 || Int64.compare data_len 0L < 0 then
        Error "cold footer: negative field"
      else Ok { n_records; data_len; summary = String.sub f 24 16 }
