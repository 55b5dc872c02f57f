(* Wire-protocol properties: every message round-trips through
   encode -> frame extraction -> decode, under any stream chunking; and the
   decoders are total — truncated, corrupted or outright hostile payloads
   yield [Error], never an exception, never unbounded allocation. *)

module Wire = Fastver_net.Wire
module Frame = Fastver_net.Frame

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_mac = QCheck.Gen.(string_size (0 -- 48))
let gen_value = QCheck.Gen.(opt (string_size (0 -- 200)))
let gen_i64 = QCheck.Gen.(map Int64.of_int int)

let gen_metrics_format =
  QCheck.Gen.(oneofl [ Wire.Json; Wire.Prometheus ])

let gen_request =
  QCheck.Gen.(
    oneof
      [
        map (fun client -> Wire.Open_session { client }) (0 -- 0xFFFF);
        return Wire.Close_session;
        map2 (fun key nonce -> Wire.Get { key; nonce }) gen_i64 gen_i64;
        map3
          (fun key nonce (mac, value) -> Wire.Put { key; nonce; mac; value })
          gen_i64 gen_i64 (pair gen_mac gen_value);
        map3
          (fun start len nonce -> Wire.Scan { start; len; nonce })
          gen_i64 (0 -- 1000) gen_i64;
        return Wire.Verify;
        return Wire.Stats;
        map (fun format -> Wire.Metrics { format }) gen_metrics_format;
        map2
          (fun from_epoch term -> Wire.Subscribe { from_epoch; term })
          (0 -- 1_000_000) (0 -- 1_000_000);
        return Wire.Fetch_checkpoint;
        map (fun generation -> Wire.Fetch_generation { generation }) (0 -- 1_000_000);
        map
          (fun (term, sealed, priority, run_id) ->
            Wire.Announce_term { term; sealed; priority; run_id })
          (quad (0 -- 1_000_000)
             (map (fun s -> s - 1) (0 -- 1_000_000))
             (0 -- 1000) gen_i64);
        map2
          (fun term addr -> Wire.Promote { term; addr })
          (0 -- 1_000_000) (string_size (0 -- 48));
      ])

let gen_item =
  QCheck.Gen.(
    map
      (fun (key, value, epoch, mac) -> { Wire.key; value; epoch; mac })
      (quad gen_i64 gen_value (0 -- 1_000_000) gen_mac))

let gen_stats =
  QCheck.Gen.(
    map
      (fun (a, b, c, d) ->
        {
          Wire.ops = a;
          gets = b;
          puts = c;
          scans = d;
          verifies = a;
          fast_path = b;
          merkle_path = c;
          epoch = d;
        })
      (quad gen_i64 gen_i64 gen_i64 gen_i64))

let gen_response =
  QCheck.Gen.(
    oneof
      [
        map (fun client -> Wire.Session_opened { client }) (0 -- 0xFFFF);
        return Wire.Session_closed;
        map2 (fun nonce item -> Wire.Got { nonce; item }) gen_i64 gen_item;
        map2 (fun nonce item -> Wire.Put_ok { nonce; item }) gen_i64 gen_item;
        map2
          (fun nonce items -> Wire.Scanned { nonce; items = Array.of_list items })
          gen_i64 (list_size (0 -- 12) gen_item);
        map2 (fun epoch cert -> Wire.Verified { epoch; cert }) (0 -- 1_000_000)
          gen_mac;
        map (fun s -> Wire.Stats_reply s) gen_stats;
        map2
          (fun format data -> Wire.Metrics_reply { format; data })
          gen_metrics_format
          (string_size (0 -- 400));
        map (fun e -> Wire.Error e) (string_size (0 -- 80));
        map3
          (fun from_epoch run_id term ->
            Wire.Subscribed { from_epoch; run_id; term })
          (0 -- 1_000_000) gen_i64 (0 -- 1_000_000);
        map3
          (fun generation files term ->
            Wire.Checkpoint_reply
              { generation; files = Array.of_list files; term })
          (0 -- 1_000_000)
          (list_size (0 -- 6)
             (pair (string_size (0 -- 24)) (string_size (0 -- 120))))
          (0 -- 1_000_000);
        map2
          (fun epoch ops ->
            Wire.Repl_batch { epoch; ops = Array.of_list ops })
          (0 -- 1_000_000)
          (list_size (0 -- 20) (pair (string_size (32 -- 32)) gen_value));
        map
          (fun ((epoch, cert, stream_mac), term) ->
            Wire.Repl_epoch { epoch; cert; stream_mac; term })
          (pair (triple (0 -- 1_000_000) gen_mac gen_mac) (0 -- 1_000_000));
        map
          (fun ((term, sealed, priority), (run_id, primary)) ->
            Wire.Term_info { term; sealed; priority; run_id; primary })
          (pair
             (triple (0 -- 1_000_000)
                (map (fun s -> s - 1) (0 -- 1_000_000))
                (0 -- 1000))
             (pair gen_i64 bool));
      ])

let arb_request =
  QCheck.make gen_request ~print:(Format.asprintf "%a" Wire.pp_request)

let arb_response =
  QCheck.make gen_response ~print:(Format.asprintf "%a" Wire.pp_response)

(* ------------------------------------------------------------------ *)
(* Round trips                                                         *)
(* ------------------------------------------------------------------ *)

(* Strip the length prefix with a Frame reader, as the real stack does. *)
let payload_of_frame frame =
  let r = Frame.create () in
  Frame.feed_string r frame;
  match Frame.next r with
  | Ok (Some p) -> p
  | Ok None -> failwith "frame incomplete"
  | Error e -> failwith e

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request encode|>decode = id" ~count:1000
    QCheck.(pair arb_request int64)
    (fun (req, id) ->
      Wire.decode_request (payload_of_frame (Wire.encode_request ~id req))
      = Ok (id, req))

let prop_response_roundtrip =
  QCheck.Test.make ~name:"response encode|>decode = id" ~count:1000
    QCheck.(pair arb_response int64)
    (fun (resp, id) ->
      Wire.decode_response (payload_of_frame (Wire.encode_response ~id resp))
      = Ok (id, resp))

(* Any chunking of a message sequence yields the same frames. *)
let prop_chunked_feed =
  QCheck.Test.make ~name:"frame reader is chunking-invariant" ~count:200
    QCheck.(pair (small_list arb_request) (list small_nat))
    (fun (reqs, cuts) ->
      let stream =
        String.concat ""
          (List.mapi (fun i r -> Wire.encode_request ~id:(Int64.of_int i) r) reqs)
      in
      let r = Frame.create () in
      let got = ref [] in
      let pos = ref 0 in
      let take n =
        let n = min n (String.length stream - !pos) in
        Frame.feed_string r (String.sub stream !pos n);
        pos := !pos + n;
        let rec drain () =
          match Frame.next r with
          | Ok (Some p) ->
              got := Wire.decode_request p :: !got;
              drain ()
          | Ok None -> ()
          | Error e -> failwith e
        in
        drain ()
      in
      List.iter (fun c -> take (1 + c)) cuts;
      take (String.length stream);
      List.rev !got
      = List.mapi (fun i r -> Ok (Int64.of_int i, r)) reqs)

(* ------------------------------------------------------------------ *)
(* Hostile input: decoders must be total                               *)
(* ------------------------------------------------------------------ *)

let decodes_without_raising payload =
  match (Wire.decode_request payload, Wire.decode_response payload) with
  | (Ok _ | Error _), (Ok _ | Error _) -> true

let prop_truncation =
  QCheck.Test.make ~name:"truncated payloads never raise" ~count:1000
    QCheck.(triple arb_request arb_response (float_bound_inclusive 1.0))
    (fun (req, resp, frac) ->
      let check frame =
        let payload = payload_of_frame frame in
        let cut = int_of_float (frac *. float_of_int (String.length payload)) in
        let truncated = String.sub payload 0 cut in
        decodes_without_raising truncated
        && (cut = String.length payload
           || Result.is_error (Wire.decode_request truncated))
      in
      check (Wire.encode_request ~id:7L req)
      && check (Wire.encode_response ~id:7L resp))

let prop_corruption =
  QCheck.Test.make ~name:"corrupted payloads never raise" ~count:1000
    QCheck.(triple arb_response small_nat char)
    (fun (resp, pos, c) ->
      let payload = payload_of_frame (Wire.encode_response ~id:3L resp) in
      let b = Bytes.of_string payload in
      Bytes.set b (pos mod Bytes.length b) c;
      decodes_without_raising (Bytes.to_string b))

let prop_garbage =
  QCheck.Test.make ~name:"random garbage never raises" ~count:1000
    QCheck.(string_of_size QCheck.Gen.(0 -- 256))
    decodes_without_raising

(* Trailing bytes after a well-formed body are a protocol error. *)
let prop_trailing_junk =
  QCheck.Test.make ~name:"trailing bytes rejected" ~count:500 arb_request
    (fun req ->
      let payload = payload_of_frame (Wire.encode_request ~id:1L req) in
      Result.is_error (Wire.decode_request (payload ^ "x")))

let test_frame_length_bounds () =
  let mk len =
    let b = Buffer.create 8 in
    Buffer.add_char b (Char.chr (len land 0xff));
    Buffer.add_char b (Char.chr ((len lsr 8) land 0xff));
    Buffer.add_char b (Char.chr ((len lsr 16) land 0xff));
    Buffer.add_char b (Char.chr ((len lsr 24) land 0xff));
    Buffer.contents b
  in
  let r = Frame.create () in
  Frame.feed_string r (mk 5);
  (match Frame.next r with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "undersized frame length accepted");
  let r = Frame.create () in
  Frame.feed_string r (mk (Wire.max_frame + 1));
  (match Frame.next r with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized frame length accepted");
  (* the error is sticky: the stream cannot be resynchronised *)
  match Frame.next r with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "frame error must be sticky"

(* A Scanned response claiming 2^32-ish items must be rejected before any
   allocation proportional to the claim. *)
let test_scan_count_bomb () =
  let b = Buffer.create 32 in
  Buffer.add_string b "FV";
  Buffer.add_char b (Char.chr Wire.version);
  Buffer.add_char b '\x85' (* Scanned *);
  Buffer.add_string b (String.make 8 '\x00') (* id *);
  Buffer.add_string b (String.make 8 '\x00') (* nonce *);
  Buffer.add_string b "\xff\xff\xff\x7f" (* count *);
  let t0 = Unix.gettimeofday () in
  (match Wire.decode_response (Buffer.contents b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "item-count bomb accepted");
  if Unix.gettimeofday () -. t0 > 0.5 then
    Alcotest.fail "item-count bomb took too long"

(* A metrics request whose format byte is neither 0 nor 1 must be rejected,
   not mapped to some default rendering. *)
let test_bad_metrics_format () =
  let payload =
    payload_of_frame (Wire.encode_request ~id:9L (Wire.Metrics { format = Wire.Json }))
  in
  let b = Bytes.of_string payload in
  (* the format byte is the last body byte *)
  Bytes.set b (Bytes.length b - 1) '\x02';
  match Wire.decode_request (Bytes.to_string b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown metrics format byte accepted"

(* ------------------------------------------------------------------ *)
(* Protocol version                                                    *)
(* ------------------------------------------------------------------ *)

let le32 v =
  let b = Buffer.create 4 in
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xff));
  Buffer.contents b

let le64 v =
  let b = Buffer.create 8 in
  Buffer.add_int64_le b v;
  Buffer.contents b

(* Every well-formed message, re-stamped with any header version other than
   2, is refused: there is one framing, and no version-dependent field. *)
let prop_other_versions_rejected =
  QCheck.Test.make ~name:"any header version but 2 is an error"
    ~count:500
    QCheck.(triple (int_bound 255) arb_request arb_response)
    (fun (ver, req, resp) ->
      QCheck.assume (ver <> Wire.version);
      let restamp frame =
        let b = Bytes.of_string (payload_of_frame frame) in
        Bytes.set b 2 (Char.chr ver);
        Bytes.to_string b
      in
      Result.is_error
        (Wire.decode_request (restamp (Wire.encode_request ~id:1L req)))
      && Result.is_error
           (Wire.decode_response (restamp (Wire.encode_response ~id:1L resp))))

(* A version-1 Subscribe carrying a trailing term field is refused, not
   read as a version-2 frame with the term smuggled through. *)
let prop_v1_subscribe_trailing_term =
  QCheck.Test.make ~name:"v1 Subscribe with smuggled term field errors"
    ~count:300
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (from_epoch, term) ->
      let frame =
        Printf.sprintf "FV\x01\x09%s%s%s" (le64 1L) (le32 from_epoch)
          (le32 term)
      in
      Result.is_error (Wire.decode_request frame))

(* A Subscribe without its term field is short, not ambiguous. *)
let test_v2_requires_term () =
  let frame = Printf.sprintf "FV\x02\x09%s%s" (le64 4L) (le32 17) in
  match Wire.decode_request frame with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "v2 Subscribe without a term field accepted"

(* The Term_info primary flag is a strict 0/1 byte: any other value is a
   hostile peer, not a truthy boolean. *)
let test_term_info_bad_flag () =
  let payload =
    payload_of_frame
      (Wire.encode_response ~id:5L
         (Wire.Term_info
            { term = 3; sealed = 7; priority = 1; run_id = 9L; primary = false }))
  in
  let b = Bytes.of_string payload in
  Bytes.set b (Bytes.length b - 1) '\x02';
  match Wire.decode_response (Bytes.to_string b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-range primary flag accepted"

(* Hostile handshake/term fields: arbitrary u32 terms and i64 run-ids must
   decode totally (no exception, no huge allocation) whether or not the
   remaining body is well-formed. *)
let prop_hostile_election_fields =
  QCheck.Test.make ~name:"hostile election payloads never raise" ~count:500
    QCheck.(pair (oneofl [ 0x09; 0x0b; 0x0c; 0x89; 0x8c; 0x8e ])
              (string_of_size QCheck.Gen.(0 -- 64)))
    (fun (tag, body) ->
      decodes_without_raising
        (Printf.sprintf "FV\x02%c%s%s" (Char.chr tag) (le64 0L) body))

let test_version_rejected () =
  let payload = payload_of_frame (Wire.encode_request ~id:0L Wire.Verify) in
  let b = Bytes.of_string payload in
  Bytes.set b 2 '\x63';
  match Wire.decode_request (Bytes.to_string b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong protocol version accepted"

let suite =
  ( "wire",
    [
      Alcotest.test_case "frame length bounds" `Quick test_frame_length_bounds;
      Alcotest.test_case "scan count bomb" `Quick test_scan_count_bomb;
      Alcotest.test_case "bad version rejected" `Quick test_version_rejected;
      Alcotest.test_case "bad metrics format rejected" `Quick
        test_bad_metrics_format;
      Alcotest.test_case "v2 subscribe requires term" `Quick
        test_v2_requires_term;
      Alcotest.test_case "term-info flag strict" `Quick test_term_info_bad_flag;
      QCheck_alcotest.to_alcotest prop_other_versions_rejected;
      QCheck_alcotest.to_alcotest prop_v1_subscribe_trailing_term;
      QCheck_alcotest.to_alcotest prop_hostile_election_fields;
      QCheck_alcotest.to_alcotest prop_request_roundtrip;
      QCheck_alcotest.to_alcotest prop_response_roundtrip;
      QCheck_alcotest.to_alcotest prop_chunked_feed;
      QCheck_alcotest.to_alcotest prop_truncation;
      QCheck_alcotest.to_alcotest prop_corruption;
      QCheck_alcotest.to_alcotest prop_garbage;
      QCheck_alcotest.to_alcotest prop_trailing_junk;
    ] )
