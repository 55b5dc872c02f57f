let version = 2
let magic = "FV"
let header_len = 2 + 1 + 1 + 8
let max_frame = 16 * 1024 * 1024

type metrics_format = Json | Prometheus

type request =
  | Open_session of { client : int }
  | Close_session
  | Get of { key : int64; nonce : int64 }
  | Put of { key : int64; nonce : int64; mac : string; value : string option }
  | Scan of { start : int64; len : int; nonce : int64 }
  | Verify
  | Stats
  | Metrics of { format : metrics_format }
  | Subscribe of { from_epoch : int; term : int }
  | Fetch_checkpoint
  | Fetch_generation of { generation : int }
  | Announce_term of {
      term : int;
      sealed : int;
      priority : int;
      run_id : int64;
    }
  | Promote of { term : int; addr : string }

type item = { key : int64; value : string option; epoch : int; mac : string }

type stats = {
  ops : int64;
  gets : int64;
  puts : int64;
  scans : int64;
  verifies : int64;
  fast_path : int64;
  merkle_path : int64;
  epoch : int64;
}

type response =
  | Session_opened of { client : int }
  | Session_closed
  | Got of { nonce : int64; item : item }
  | Put_ok of { nonce : int64; item : item }
  | Scanned of { nonce : int64; items : item array }
  | Verified of { epoch : int; cert : string }
  | Stats_reply of stats
  | Metrics_reply of { format : metrics_format; data : string }
  | Subscribed of { from_epoch : int; run_id : int64; term : int }
  | Checkpoint_reply of {
      generation : int;
      files : (string * string) array;
      term : int;
    }
  | Repl_batch of { epoch : int; ops : (string * string option) array }
      (* a run of one epoch's buffered ops, in apply order *)
  | Repl_epoch of { epoch : int; cert : string; stream_mac : string; term : int }
  | Term_info of {
      term : int;
      sealed : int;
      priority : int;
      run_id : int64;
      primary : bool;
    }
  | Error of string

(* ------------------------------------------------------------------ *)
(* Message type tags (requests 0x01-0x7f, responses 0x81-0xff)         *)
(* ------------------------------------------------------------------ *)

let tag_open = 0x01
let tag_close = 0x02
let tag_get = 0x03
let tag_put = 0x04
let tag_scan = 0x05
let tag_verify = 0x06
let tag_stats = 0x07
let tag_metrics = 0x08
let tag_subscribe = 0x09
let tag_fetch_checkpoint = 0x0a
let tag_announce_term = 0x0b
let tag_promote = 0x0c
let tag_fetch_generation = 0x0d
let tag_opened = 0x81
let tag_closed = 0x82
let tag_got = 0x83
let tag_put_ok = 0x84
let tag_scanned = 0x85
let tag_verified = 0x86
let tag_stats_reply = 0x87
let tag_metrics_reply = 0x88
let tag_subscribed = 0x89
let tag_checkpoint_reply = 0x8a
let tag_repl_epoch = 0x8c
let tag_repl_batch = 0x8d
let tag_term_info = 0x8e
let tag_error = 0xff

let metrics_format_byte = function Json -> 0 | Prometheus -> 1

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

(* The field writers append characters directly — no scratch [Bytes] per
   field — so that encoding into a reused buffer stays allocation-free up
   to the final frame string. *)

let add_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let add_u16 b v =
  add_u8 b v;
  add_u8 b (v lsr 8)

let add_u32 b v =
  add_u8 b v;
  add_u8 b (v lsr 8);
  add_u8 b (v lsr 16);
  add_u8 b (v lsr 24)

let add_i64 b v = Buffer.add_int64_le b v

let add_mac b s =
  add_u16 b (String.length s);
  Buffer.add_string b s

let add_value_opt b = function
  | None -> add_u8 b 0
  | Some v ->
      add_u8 b 1;
      add_u32 b (String.length v);
      Buffer.add_string b v

let add_item b (it : item) =
  add_i64 b it.key;
  add_u32 b it.epoch;
  add_value_opt b it.value;
  add_mac b it.mac

(* A message is encoded in one pass into the caller's scratch buffer
   (header + body, no intermediate body string), then copied once into the
   exact-size frame string with the length prefix patched in front. With a
   reused buffer the only steady-state allocation is that result string. *)

let begin_frame b ~id tag =
  Buffer.clear b;
  Buffer.add_string b magic;
  add_u8 b version;
  add_u8 b tag;
  add_i64 b id

let to_frame b =
  let n = Buffer.length b in
  let out = Bytes.create (4 + n) in
  Bytes.set_int32_le out 0 (Int32.of_int n);
  Buffer.blit b 0 out 4 n;
  Bytes.unsafe_to_string out

let encode_request_into b ~id req =
  (match req with
  | Open_session { client } ->
      begin_frame b ~id tag_open;
      add_u32 b client
  | Close_session -> begin_frame b ~id tag_close
  | Get { key; nonce } ->
      begin_frame b ~id tag_get;
      add_i64 b key;
      add_i64 b nonce
  | Put { key; nonce; mac; value } ->
      begin_frame b ~id tag_put;
      add_i64 b key;
      add_i64 b nonce;
      add_mac b mac;
      add_value_opt b value
  | Scan { start; len; nonce } ->
      begin_frame b ~id tag_scan;
      add_i64 b start;
      add_u32 b len;
      add_i64 b nonce
  | Verify -> begin_frame b ~id tag_verify
  | Stats -> begin_frame b ~id tag_stats
  | Metrics { format } ->
      begin_frame b ~id tag_metrics;
      add_u8 b (metrics_format_byte format)
  | Subscribe { from_epoch; term } ->
      begin_frame b ~id tag_subscribe;
      add_u32 b from_epoch;
      add_u32 b term
  | Fetch_checkpoint -> begin_frame b ~id tag_fetch_checkpoint
  | Fetch_generation { generation } ->
      begin_frame b ~id tag_fetch_generation;
      add_u32 b generation
  | Announce_term { term; sealed; priority; run_id } ->
      begin_frame b ~id tag_announce_term;
      add_u32 b term;
      (* sealed can be -1 (nothing verified yet): ship it as a signed 64 *)
      add_i64 b (Int64.of_int sealed);
      add_u32 b priority;
      add_i64 b run_id
  | Promote { term; addr } ->
      begin_frame b ~id tag_promote;
      add_u32 b term;
      add_mac b addr);
  to_frame b

let encode_response_into b ~id resp =
  (match resp with
  | Session_opened { client } ->
      begin_frame b ~id tag_opened;
      add_u32 b client
  | Session_closed -> begin_frame b ~id tag_closed
  | Got { nonce; item } ->
      begin_frame b ~id tag_got;
      add_i64 b nonce;
      add_item b item
  | Put_ok { nonce; item } ->
      begin_frame b ~id tag_put_ok;
      add_i64 b nonce;
      add_item b item
  | Scanned { nonce; items } ->
      begin_frame b ~id tag_scanned;
      add_i64 b nonce;
      add_u32 b (Array.length items);
      Array.iter (add_item b) items
  | Verified { epoch; cert } ->
      begin_frame b ~id tag_verified;
      add_u32 b epoch;
      add_mac b cert
  | Stats_reply s ->
      begin_frame b ~id tag_stats_reply;
      add_i64 b s.ops;
      add_i64 b s.gets;
      add_i64 b s.puts;
      add_i64 b s.scans;
      add_i64 b s.verifies;
      add_i64 b s.fast_path;
      add_i64 b s.merkle_path;
      add_i64 b s.epoch
  | Metrics_reply { format; data } ->
      begin_frame b ~id tag_metrics_reply;
      add_u8 b (metrics_format_byte format);
      add_u32 b (String.length data);
      Buffer.add_string b data
  | Subscribed { from_epoch; run_id; term } ->
      begin_frame b ~id tag_subscribed;
      add_u32 b from_epoch;
      add_i64 b run_id;
      add_u32 b term
  | Checkpoint_reply { generation; files; term } ->
      begin_frame b ~id tag_checkpoint_reply;
      add_u32 b generation;
      add_u32 b term;
      add_u32 b (Array.length files);
      Array.iter
        (fun (name, data) ->
          add_mac b name;
          add_u32 b (String.length data);
          Buffer.add_string b data)
        files
  | Repl_batch { epoch; ops } ->
      begin_frame b ~id tag_repl_batch;
      add_u32 b epoch;
      add_u32 b (Array.length ops);
      Array.iter
        (fun (key, value) ->
          if String.length key <> 32 then
            invalid_arg "Wire.Repl_batch: key must be 32 bytes";
          Buffer.add_string b key;
          add_value_opt b value)
        ops
  | Repl_epoch { epoch; cert; stream_mac; term } ->
      begin_frame b ~id tag_repl_epoch;
      add_u32 b epoch;
      add_mac b cert;
      add_mac b stream_mac;
      add_u32 b term
  | Term_info { term; sealed; priority; run_id; primary } ->
      begin_frame b ~id tag_term_info;
      add_u32 b term;
      add_i64 b (Int64.of_int sealed);
      add_u32 b priority;
      add_i64 b run_id;
      add_u8 b (if primary then 1 else 0)
  | Error msg ->
      begin_frame b ~id tag_error;
      add_u32 b (String.length msg);
      Buffer.add_string b msg);
  to_frame b

let encode_request ~id req = encode_request_into (Buffer.create 64) ~id req
let encode_response ~id resp = encode_response_into (Buffer.create 64) ~id resp

(* ------------------------------------------------------------------ *)
(* Decoding: a bounds-checked cursor; [Bad] converts to [Error] at the *)
(* message boundary, so decoders never raise on hostile input          *)
(* ------------------------------------------------------------------ *)

exception Bad of string

type cursor = { s : string; mutable pos : int }

let need c n =
  if c.pos + n > String.length c.s then raise (Bad "truncated payload")

let u8 c =
  need c 1;
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

let u16 c =
  need c 2;
  let v = String.get_uint16_le c.s c.pos in
  c.pos <- c.pos + 2;
  v

let u32 c =
  need c 4;
  let v = Int32.to_int (String.get_int32_le c.s c.pos) land 0xffffffff in
  c.pos <- c.pos + 4;
  v

let i64 c =
  need c 8;
  let v = String.get_int64_le c.s c.pos in
  c.pos <- c.pos + 8;
  v

let str c n =
  need c n;
  let v = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  v

let mac_str c =
  let n = u16 c in
  str c n

let value_opt c =
  match u8 c with
  | 0 -> None
  | 1 ->
      let n = u32 c in
      Some (str c n)
  | t -> raise (Bad (Printf.sprintf "bad value tag 0x%02x" t))

let metrics_format c =
  match u8 c with
  | 0 -> Json
  | 1 -> Prometheus
  | t -> raise (Bad (Printf.sprintf "bad metrics format 0x%02x" t))

let item c =
  let key = i64 c in
  let epoch = u32 c in
  let value = value_opt c in
  let mac = mac_str c in
  { key; value; epoch; mac }

let finish c v =
  if c.pos <> String.length c.s then raise (Bad "trailing bytes in payload");
  v

let header payload =
  if String.length payload < header_len then raise (Bad "payload too short");
  if String.sub payload 0 2 <> magic then raise (Bad "bad magic");
  let c = { s = payload; pos = 2 } in
  let ver = u8 c in
  if ver <> version then
    raise (Bad (Printf.sprintf "unsupported version %d" ver));
  let tag = u8 c in
  let id = i64 c in
  (c, tag, id)

let decode decode_tag payload =
  match
    let c, tag, id = header payload in
    (id, finish c (decode_tag c tag))
  with
  | v -> Ok v
  | exception Bad e -> Error e

let decode_request =
  decode (fun c tag ->
      if tag = tag_open then Open_session { client = u32 c }
      else if tag = tag_close then Close_session
      else if tag = tag_get then
        let key = i64 c in
        let nonce = i64 c in
        Get { key; nonce }
      else if tag = tag_put then
        let key = i64 c in
        let nonce = i64 c in
        let mac = mac_str c in
        let value = value_opt c in
        Put { key; nonce; mac; value }
      else if tag = tag_scan then
        let start = i64 c in
        let len = u32 c in
        let nonce = i64 c in
        Scan { start; len; nonce }
      else if tag = tag_verify then Verify
      else if tag = tag_stats then Stats
      else if tag = tag_metrics then Metrics { format = metrics_format c }
      else if tag = tag_subscribe then
        let from_epoch = u32 c in
        let term = u32 c in
        Subscribe { from_epoch; term }
      else if tag = tag_fetch_checkpoint then Fetch_checkpoint
      else if tag = tag_fetch_generation then
        Fetch_generation { generation = u32 c }
      else if tag = tag_announce_term then
        let term = u32 c in
        let sealed = Int64.to_int (i64 c) in
        let priority = u32 c in
        let run_id = i64 c in
        Announce_term { term; sealed; priority; run_id }
      else if tag = tag_promote then
        let term = u32 c in
        let addr = mac_str c in
        Promote { term; addr }
      else raise (Bad (Printf.sprintf "unknown request tag 0x%02x" tag)))

let decode_response =
  decode (fun c tag ->
      if tag = tag_opened then Session_opened { client = u32 c }
      else if tag = tag_closed then Session_closed
      else if tag = tag_got then
        let nonce = i64 c in
        Got { nonce; item = item c }
      else if tag = tag_put_ok then
        let nonce = i64 c in
        Put_ok { nonce; item = item c }
      else if tag = tag_scanned then begin
        let nonce = i64 c in
        let count = u32 c in
        (* each item consumes >= 15 bytes, so [count] is implicitly bounded
           by the payload length: check before building the array *)
        if count * 15 > String.length c.s - c.pos then
          raise (Bad "scan count exceeds payload");
        let items = Array.init count (fun _ -> item c) in
        Scanned { nonce; items }
      end
      else if tag = tag_verified then
        let epoch = u32 c in
        let cert = mac_str c in
        Verified { epoch; cert }
      else if tag = tag_stats_reply then
        let ops = i64 c in
        let gets = i64 c in
        let puts = i64 c in
        let scans = i64 c in
        let verifies = i64 c in
        let fast_path = i64 c in
        let merkle_path = i64 c in
        let epoch = i64 c in
        Stats_reply
          { ops; gets; puts; scans; verifies; fast_path; merkle_path; epoch }
      else if tag = tag_metrics_reply then
        let format = metrics_format c in
        let n = u32 c in
        Metrics_reply { format; data = str c n }
      else if tag = tag_subscribed then
        let from_epoch = u32 c in
        let run_id = i64 c in
        let term = u32 c in
        Subscribed { from_epoch; run_id; term }
      else if tag = tag_checkpoint_reply then begin
        let generation = u32 c in
        let term = u32 c in
        let count = u32 c in
        (* each file entry consumes >= 6 bytes (two length prefixes), so
           [count] is implicitly bounded by the payload: check before
           building the array *)
        if count * 6 > String.length c.s - c.pos then
          raise (Bad "checkpoint file count exceeds payload");
        let files =
          Array.init count (fun _ ->
              let name = mac_str c in
              let n = u32 c in
              (name, str c n))
        in
        Checkpoint_reply { generation; files; term }
      end
      else if tag = tag_repl_batch then begin
        let epoch = u32 c in
        let count = u32 c in
        (* each op consumes >= 33 bytes (32-byte key + value tag), so
           [count] is implicitly bounded by the payload: check before
           building the array *)
        if count * 33 > String.length c.s - c.pos then
          raise (Bad "repl batch count exceeds payload");
        let ops =
          Array.init count (fun _ ->
              let key = str c 32 in
              let value = value_opt c in
              (key, value))
        in
        Repl_batch { epoch; ops }
      end
      else if tag = tag_repl_epoch then
        let epoch = u32 c in
        let cert = mac_str c in
        let stream_mac = mac_str c in
        let term = u32 c in
        Repl_epoch { epoch; cert; stream_mac; term }
      else if tag = tag_term_info then
        let term = u32 c in
        let sealed = Int64.to_int (i64 c) in
        let priority = u32 c in
        let run_id = i64 c in
        let primary =
          match u8 c with
          | 0 -> false
          | 1 -> true
          | t -> raise (Bad (Printf.sprintf "bad primary flag 0x%02x" t))
        in
        Term_info { term; sealed; priority; run_id; primary }
      else if tag = tag_error then
        let n = u32 c in
        Error (str c n)
      else raise (Bad (Printf.sprintf "unknown response tag 0x%02x" tag)))

(* ------------------------------------------------------------------ *)
(* Pretty-printing (logs, debugging)                                   *)
(* ------------------------------------------------------------------ *)

let pp_request ppf = function
  | Open_session { client } -> Format.fprintf ppf "open-session(client %d)" client
  | Close_session -> Format.fprintf ppf "close-session"
  | Get { key; _ } -> Format.fprintf ppf "get(%Ld)" key
  | Put { key; value; _ } ->
      Format.fprintf ppf "put(%Ld, %s)" key
        (match value with None -> "null" | Some _ -> "value")
  | Scan { start; len; _ } -> Format.fprintf ppf "scan(%Ld, %d)" start len
  | Verify -> Format.fprintf ppf "verify"
  | Stats -> Format.fprintf ppf "stats"
  | Metrics { format } ->
      Format.fprintf ppf "metrics(%s)"
        (match format with Json -> "json" | Prometheus -> "prometheus")
  | Subscribe { from_epoch; term } ->
      Format.fprintf ppf "subscribe(from epoch %d, term %d)" from_epoch term
  | Fetch_checkpoint -> Format.fprintf ppf "fetch-checkpoint"
  | Fetch_generation { generation } ->
      Format.fprintf ppf "fetch-generation(%d)" generation
  | Announce_term { term; sealed; priority; run_id } ->
      Format.fprintf ppf "announce-term(term %d, sealed %d, prio %d, run %Ld)"
        term sealed priority run_id
  | Promote { term; addr } ->
      Format.fprintf ppf "promote(term %d, %s)" term addr

let pp_response ppf = function
  | Session_opened { client } -> Format.fprintf ppf "session-opened(%d)" client
  | Session_closed -> Format.fprintf ppf "session-closed"
  | Got _ -> Format.fprintf ppf "got"
  | Put_ok _ -> Format.fprintf ppf "put-ok"
  | Scanned { items; _ } -> Format.fprintf ppf "scanned(%d)" (Array.length items)
  | Verified { epoch; _ } -> Format.fprintf ppf "verified(epoch %d)" epoch
  | Stats_reply _ -> Format.fprintf ppf "stats-reply"
  | Metrics_reply { data; _ } ->
      Format.fprintf ppf "metrics-reply(%d bytes)" (String.length data)
  | Subscribed { from_epoch; run_id; term } ->
      Format.fprintf ppf "subscribed(from epoch %d, run %Ld, term %d)"
        from_epoch run_id term
  | Checkpoint_reply { generation; files; term } ->
      Format.fprintf ppf "checkpoint-reply(gen %d, %d files, term %d)"
        generation (Array.length files) term
  | Repl_batch { epoch; ops } ->
      Format.fprintf ppf "repl-batch(epoch %d, %d ops)" epoch (Array.length ops)
  | Repl_epoch { epoch; term; _ } ->
      Format.fprintf ppf "repl-epoch(%d, term %d)" epoch term
  | Term_info { term; sealed; priority; run_id; primary } ->
      Format.fprintf ppf "term-info(term %d, sealed %d, prio %d, run %Ld, %s)"
        term sealed priority run_id
        (if primary then "primary" else "standby")
  | Error e -> Format.fprintf ppf "error(%s)" e
