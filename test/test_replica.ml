(* Verified read replication, end to end: the stream-integrity layer, the
   certificate-chain checker, a live primary/follower pair over Unix
   sockets, and the adversarial cases — a flipped bit in a streamed op or
   an epoch certificate halts the follower with the offending epoch
   preserved, a mid-frame disconnect tears down cleanly, and a client
   detects receipts from a stale epoch. *)

module Net = Fastver_net
module Replica = Fastver_replica
module Verifier = Fastver_verifier.Verifier

let initial_value = Fastver_workload.Ycsb.initial_value

let test_config =
  {
    Fastver.Config.default with
    n_workers = 2;
    batch_size = 0;
    cost_model = Cost_model.zero;
  }

let secret = Fastver.Config.default.mac_secret
let auth_key = Fastver.Auth.key_of_secret secret

let records n =
  Array.init n (fun i -> (Int64.of_int i, initial_value (Int64.of_int i)))

let mk_system ?(n = 256) () =
  let t = Fastver.create ~config:test_config () in
  Fastver.load t (records n);
  t

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "fastver-repl-test-%d-%d.sock" (Unix.getpid ())
       !sock_counter)

let fresh_dir () =
  let d = Filename.temp_file "fastver" "-repl" in
  Sys.remove d;
  d

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let wait_for ?(timeout = 20.0) msg pred =
  let deadline = Unix.gettimeofday () +. timeout in
  while (not (pred ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  if not (pred ()) then Alcotest.fail ("timed out waiting for " ^ msg)

let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn > 0 && go 0

(* ------------------------------------------------------------------ *)
(* Stream digests                                                      *)
(* ------------------------------------------------------------------ *)

let test_stream_digest () =
  let k i = Key.to_bytes32 (Key.of_int64 (Int64.of_int i)) in
  let d1 =
    Replica.Stream.(
      fold
        (fold empty_digest ~epoch:3 ~key:(k 1) ~value:(Some "a"))
        ~epoch:3 ~key:(k 2) ~value:None)
  in
  let d1' =
    Replica.Stream.(
      fold
        (fold empty_digest ~epoch:3 ~key:(k 1) ~value:(Some "a"))
        ~epoch:3 ~key:(k 2) ~value:None)
  in
  Alcotest.(check bool) "fold is deterministic" true (String.equal d1 d1');
  let reordered =
    Replica.Stream.(
      fold
        (fold empty_digest ~epoch:3 ~key:(k 2) ~value:None)
        ~epoch:3 ~key:(k 1) ~value:(Some "a"))
  in
  Alcotest.(check bool) "fold is order-sensitive" false
    (String.equal d1 reordered);
  let other_epoch =
    Replica.Stream.(
      fold
        (fold empty_digest ~epoch:4 ~key:(k 1) ~value:(Some "a"))
        ~epoch:4 ~key:(k 2) ~value:None)
  in
  Alcotest.(check bool) "epoch tag is folded in" false
    (String.equal d1 other_epoch);
  (* None and Some "" are distinct ops *)
  let del = Replica.Stream.(fold empty_digest ~epoch:0 ~key:(k 9) ~value:None) in
  let emp =
    Replica.Stream.(fold empty_digest ~epoch:0 ~key:(k 9) ~value:(Some ""))
  in
  Alcotest.(check bool) "delete <> empty put" false (String.equal del emp);
  let mac =
    Replica.Stream.boundary_mac ~mac_secret:secret ~term:0 ~epoch:3 ~digest:d1
  in
  Alcotest.(check bool) "boundary mac checks" true
    (Replica.Stream.check_boundary_mac ~mac_secret:secret ~term:0 ~epoch:3
       ~digest:d1 ~tag:mac);
  Alcotest.(check bool) "wrong epoch rejected" false
    (Replica.Stream.check_boundary_mac ~mac_secret:secret ~term:0 ~epoch:4
       ~digest:d1 ~tag:mac);
  let flipped = Bytes.of_string mac in
  Bytes.set flipped 0 (Char.chr (Char.code (Bytes.get flipped 0) lxor 1));
  Alcotest.(check bool) "flipped mac rejected" false
    (Replica.Stream.check_boundary_mac ~mac_secret:secret ~term:0 ~epoch:3
       ~digest:d1 ~tag:(Bytes.to_string flipped));
  (* the fencing term is covered by the MAC — a relay cannot re-stamp a
     boundary record under a different term *)
  let mac_t2 =
    Replica.Stream.boundary_mac ~mac_secret:secret ~term:2 ~epoch:3 ~digest:d1
  in
  Alcotest.(check bool) "term folded into the mac" false
    (String.equal mac mac_t2);
  Alcotest.(check bool) "term mac checks under its term" true
    (Replica.Stream.check_boundary_mac ~mac_secret:secret ~term:2 ~epoch:3
       ~digest:d1 ~tag:mac_t2);
  Alcotest.(check bool) "re-stamped term rejected" false
    (Replica.Stream.check_boundary_mac ~mac_secret:secret ~term:1 ~epoch:3
       ~digest:d1 ~tag:mac_t2)

(* ------------------------------------------------------------------ *)
(* Certificate chain                                                   *)
(* ------------------------------------------------------------------ *)

let cert_for epoch =
  Fastver_crypto.Hmac.mac ~key:secret
    (Verifier.epoch_certificate_message ~epoch)

let test_cert_chain () =
  let ch = Verifier.Cert_chain.create ~mac_secret:secret ~verified:(-1) in
  (match Verifier.Cert_chain.check ch ~epoch:0 ~cert:(cert_for 0) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Verifier.Cert_chain.check ch ~epoch:1 ~cert:(cert_for 1) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "verified advances" 1
    (Verifier.Cert_chain.verified_epoch ch);
  (* a forged certificate is terminal, with evidence preserved *)
  (match Verifier.Cert_chain.check ch ~epoch:2 ~cert:(cert_for 99) with
  | Ok () -> Alcotest.fail "forged certificate accepted"
  | Error e ->
      Alcotest.(check bool) "reason names the epoch" true (find_sub e "2"));
  (match Verifier.Cert_chain.failure ch with
  | Some (2, _) -> ()
  | _ -> Alcotest.fail "failure evidence not preserved");
  (match Verifier.Cert_chain.check ch ~epoch:2 ~cert:(cert_for 2) with
  | Ok () -> Alcotest.fail "chain kept going after a terminal failure"
  | Error _ -> ());
  (* gaps and reordering are terminal too: a dense in-order chain is the
     only thing a follower may advance along *)
  let ch2 = Verifier.Cert_chain.create ~mac_secret:secret ~verified:0 in
  (match Verifier.Cert_chain.check ch2 ~epoch:3 ~cert:(cert_for 3) with
  | Ok () -> Alcotest.fail "gap accepted"
  | Error e ->
      Alcotest.(check bool) "gap reason names both epochs" true
        (find_sub e "1" && find_sub e "3"));
  match Verifier.Cert_chain.failure ch2 with
  | Some (3, _) -> ()
  | None | Some _ -> Alcotest.fail "gap evidence not preserved"

(* ------------------------------------------------------------------ *)
(* Replication wire opcodes                                            *)
(* ------------------------------------------------------------------ *)

let roundtrip_response resp =
  let frame = Net.Wire.encode_response ~id:7L resp in
  let r = Net.Frame.create () in
  Net.Frame.feed_string r frame;
  match Net.Frame.next r with
  | Ok (Some p) -> Net.Wire.decode_response p
  | _ -> Alcotest.fail "frame did not round-trip"

let test_wire_repl_opcodes () =
  let key = Key.to_bytes32 (Key.of_int64 42L) in
  List.iter
    (fun resp ->
      match roundtrip_response resp with
      | Ok (7L, got) when got = resp -> ()
      | Ok _ -> Alcotest.fail "decoded to a different value"
      | Error e -> Alcotest.fail e)
    [
      Net.Wire.Subscribed { from_epoch = 12; run_id = 0x1234_5678L; term = 4 };
      Net.Wire.Checkpoint_reply
        { generation = 3; files = [| ("MANIFEST", "x"); ("a.bin", "\x00\xff") |];
          term = 1 };
      Net.Wire.Repl_batch
        { epoch = 5; ops = [| (key, Some "a"); (key, None); (key, Some "") |] };
      Net.Wire.Repl_batch { epoch = 0; ops = [||] };
      Net.Wire.Repl_epoch
        { epoch = 9; cert = cert_for 9; stream_mac = String.make 32 'm';
          term = 2 };
      Net.Wire.Term_info
        { term = 7; sealed = 12; priority = 3; run_id = 0xdeadL;
          primary = true };
    ];
  (* the election request opcodes round-trip too (including sealed = -1,
     "nothing verified yet") *)
  List.iter
    (fun req ->
      let frame = Net.Wire.encode_request ~id:7L req in
      let r = Net.Frame.create () in
      Net.Frame.feed_string r frame;
      match Net.Frame.next r with
      | Ok (Some p) -> (
          match Net.Wire.decode_request p with
          | Ok (7L, got) when got = req -> ()
          | Ok _ -> Alcotest.fail "request decoded to a different value"
          | Error e -> Alcotest.fail e)
      | _ -> Alcotest.fail "request frame did not round-trip")
    [
      Net.Wire.Announce_term
        { term = 7; sealed = -1; priority = 3; run_id = 0xdeadL };
      Net.Wire.Promote { term = 7; addr = "unix:/tmp/x.sock" };
    ];
  (* the encoder refuses a key that is not the raw 32-byte path *)
  (match
     Net.Wire.encode_response ~id:0L
       (Net.Wire.Repl_batch { epoch = 0; ops = [| ("short", None) |] })
   with
  | _ -> Alcotest.fail "short batched key accepted"
  | exception Invalid_argument _ -> ());
  (* a checkpoint reply claiming 2^31-ish files is rejected before any
     allocation proportional to the claim *)
  let b = Buffer.create 32 in
  Buffer.add_string b "FV";
  Buffer.add_char b (Char.chr Net.Wire.version);
  Buffer.add_char b '\x8a' (* Checkpoint_reply *);
  Buffer.add_string b (String.make 8 '\x00') (* id *);
  Buffer.add_string b "\x00\x00\x00\x00" (* generation *);
  Buffer.add_string b "\x00\x00\x00\x00" (* term *);
  Buffer.add_string b "\xff\xff\xff\x7f" (* file count *);
  let t0 = Unix.gettimeofday () in
  (match Net.Wire.decode_response (Buffer.contents b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "file-count bomb accepted");
  if Unix.gettimeofday () -. t0 > 0.5 then
    Alcotest.fail "file-count bomb took too long"

(* QCheck: hostile bytes under the replication tags never raise and never
   decode to a malformed value (keys always come back 32 bytes wide). *)
let prop_repl_hostile =
  QCheck.Test.make ~name:"hostile Repl_batch/Repl_epoch bytes are total"
    ~count:1000
    QCheck.(pair (oneofl [ '\x8b'; '\x8c'; '\x8d'; '\x89'; '\x8a' ])
              (string_of_size QCheck.Gen.(0 -- 200)))
    (fun (tag, junk) ->
      let b = Buffer.create 64 in
      Buffer.add_string b "FV";
      Buffer.add_char b (Char.chr Net.Wire.version);
      Buffer.add_char b tag;
      Buffer.add_string b (String.make 8 '\x00');
      Buffer.add_string b junk;
      match Net.Wire.decode_response (Buffer.contents b) with
      | Error _ -> true
      | Ok (_, Net.Wire.Repl_batch { ops; _ }) ->
          Array.for_all (fun (key, _) -> String.length key = 32) ops
      | Ok _ -> true)

(* ------------------------------------------------------------------ *)
(* Primary + follower, end to end                                      *)
(* ------------------------------------------------------------------ *)

let mk_primary ?(pconfig = Replica.Primary.default_config) ?(n = 256) () =
  let t = mk_system ~n () in
  let path = fresh_sock () in
  match Replica.Primary.create ~config:pconfig t ~listen:(Net.Addr.Unix_sock path) with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Replica.Primary.start p;
      (t, p, Net.Addr.Unix_sock path)

let mk_follower ?(n = 256) ?listen primary =
  let dir = fresh_dir () in
  match
    Replica.Follower.create ~config:test_config
      ~load:(fun sys -> Fastver.load sys (records n))
      ~primary ?listen ~dir ()
  with
  | Error e -> Alcotest.fail e
  | Ok f ->
      Replica.Follower.start f;
      (f, dir)

let caught_up t f () =
  Replica.Follower.verified_epoch f >= Fastver.verified_epoch t

let test_follower_replays_and_serves () =
  let t, p, addr = mk_primary () in
  (* two sealed epochs before the follower exists (replayed from the
     retained log), including a delete *)
  Fastver.put t 5L "epoch0";
  Fastver.delete_key t (Key.of_int64 7L);
  ignore (Fastver.verify t);
  Fastver.put t 5L "epoch1";
  Fastver.put t 9L "nine";
  ignore (Fastver.verify t);
  let lsock = fresh_sock () in
  let f, fdir = mk_follower ~listen:(Net.Addr.Unix_sock lsock) addr in
  wait_for "replay catch-up" (caught_up t f);
  (* live streaming after the subscription *)
  Fastver.put t 5L "epoch2";
  ignore (Fastver.verify t);
  wait_for "live catch-up" (caught_up t f);
  let ft = Replica.Follower.system f in
  Alcotest.(check (option string)) "replayed put" (Some "epoch2")
    (Fastver.get ft 5L);
  Alcotest.(check (option string)) "replayed delete" None (Fastver.get ft 7L);
  Alcotest.(check (option string)) "untouched key" (Some (initial_value 3L))
    (Fastver.get ft 3L);
  (* reads through the ordinary network path, receipt MACs checked by the
     unchanged client *)
  (match Net.Client.connect (Net.Addr.Unix_sock lsock) with
  | Error e -> Alcotest.fail e
  | Ok conn ->
      let s = Net.Client.open_session conn ~client:1 ~secret in
      Alcotest.(check (option string)) "verified read via follower"
        (Some "epoch2") (Net.Client.get s 5L);
      Alcotest.(check (option string)) "verified read of delete" None
        (Net.Client.get s 7L);
      (* a put must be refused: followers are read-only *)
      (match Net.Client.put s 3L "nope" with
      | () -> Alcotest.fail "follower accepted a put"
      | exception Net.Client.Server_error e ->
          Alcotest.(check bool) "put refusal names the primary" true
            (find_sub e "primary"));
      Net.Client.close conn);
  (* metrics: both ends expose the replication families *)
  let pm = Fastver_obs.Registry.to_json (Fastver.registry t) in
  let fm = Fastver_obs.Registry.to_json (Fastver.registry ft) in
  List.iter
    (fun (json, name) ->
      Alcotest.(check bool) (name ^ " present") true (find_sub json name))
    [
      (pm, "fastver_repl_ops_streamed_total");
      (pm, "fastver_repl_epochs_streamed_total");
      (pm, "fastver_repl_followers");
      (fm, "fastver_repl_ops_applied_total");
      (fm, "fastver_repl_certs_verified_total");
      (fm, "fastver_repl_lag_epochs");
      (fm, "fastver_repl_follower_reads_total");
    ];
  Alcotest.(check int) "applied ops counted" 5
    (Replica.Follower.applied_ops f);
  Replica.Follower.stop f;
  Replica.Primary.stop p;
  remove_tree fdir

let test_follower_survives_primary_death () =
  let t, p, addr = mk_primary () in
  Fastver.put t 11L "alive";
  ignore (Fastver.verify t);
  let lsock = fresh_sock () in
  let f, fdir = mk_follower ~listen:(Net.Addr.Unix_sock lsock) addr in
  wait_for "catch-up" (caught_up t f);
  (* the primary dies mid-stream; the follower must keep serving verified
     reads and settle into its reconnect loop, never an exception *)
  Replica.Primary.stop p;
  wait_for "disconnect noticed" (fun () ->
      Replica.Follower.state f = Replica.Follower.Disconnected);
  (match Net.Client.connect (Net.Addr.Unix_sock lsock) with
  | Error e -> Alcotest.fail e
  | Ok conn ->
      let s = Net.Client.open_session conn ~client:1 ~secret in
      Alcotest.(check (option string)) "read survives primary death"
        (Some "alive") (Net.Client.get s 11L);
      Net.Client.close conn);
  Alcotest.(check bool) "no integrity failure recorded" true
    (Replica.Follower.failure f = None);
  (* the primary comes back (same store, same address): the follower
     re-subscribes from its verified epoch and resumes *)
  (match Replica.Primary.create t ~listen:addr with
  | Error e -> Alcotest.fail e
  | Ok p2 ->
      Replica.Primary.start p2;
      Fastver.put t 11L "back";
      ignore (Fastver.verify t);
      wait_for "resumed streaming" (caught_up t f);
      Alcotest.(check (option string)) "post-restart put replicated"
        (Some "back")
        (Fastver.get (Replica.Follower.system f) 11L);
      Replica.Primary.stop p2);
  Replica.Follower.stop f;
  remove_tree fdir

(* ------------------------------------------------------------------ *)
(* Checkpoint catch-up                                                 *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_bootstrap () =
  let ckpt = fresh_dir () in
  let t = mk_system ~n:64 () in
  Fastver.set_auto_checkpoint t ~dir:ckpt;
  Fastver.put t 3L "before";
  ignore (Fastver.verify t);
  Fastver.put t 4L "also before";
  ignore (Fastver.verify t);
  (* the primary starts with sealed history: its retained stream begins at
     the current epoch, so a from-zero subscriber must fetch a checkpoint *)
  let path = fresh_sock () in
  let pcfg =
    { Replica.Primary.default_config with checkpoint_dir = Some ckpt }
  in
  (match Replica.Primary.create ~config:pcfg t ~listen:(Net.Addr.Unix_sock path) with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Replica.Primary.start p;
      let fdir = fresh_dir () in
      (match
         Replica.Follower.create ~config:test_config
           ~load:(fun _ -> Alcotest.fail "fresh-load path taken")
           ~primary:(Net.Addr.Unix_sock path) ~dir:fdir ()
       with
      | Error e -> Alcotest.fail e
      | Ok f ->
          Alcotest.(check bool) "recovered a verified epoch" true
            (Replica.Follower.verified_epoch f >= 0);
          Replica.Follower.start f;
          Fastver.put t 5L "after";
          ignore (Fastver.verify t);
          wait_for "tail after bootstrap" (caught_up t f);
          let ft = Replica.Follower.system f in
          Alcotest.(check (option string)) "checkpointed put" (Some "before")
            (Fastver.get ft 3L);
          Alcotest.(check (option string)) "streamed put" (Some "after")
            (Fastver.get ft 5L);
          Replica.Follower.stop f;
          remove_tree fdir);
      Replica.Primary.stop p);
  remove_tree ckpt

(* ------------------------------------------------------------------ *)
(* Tampering with the stream                                           *)
(* ------------------------------------------------------------------ *)

(* A frame-aware person-in-the-middle on the replication stream: requests
   pass verbatim; [tamper] may rewrite one primary->follower payload. *)
let start_proxy ~listen_path ~server_addr ~tamper =
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX listen_path);
  Unix.listen lfd 1;
  Domain.spawn (fun () ->
      let cfd, _ = Unix.accept lfd in
      let sfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (match Net.Addr.to_sockaddr server_addr with
      | Ok a -> Unix.connect sfd a
      | Error e -> failwith e);
      let reader = Net.Frame.create () in
      let buf = Bytes.create 4096 in
      let tampered = ref false in
      let prefix len =
        let b = Bytes.create 4 in
        Bytes.set_int32_le b 0 (Int32.of_int len);
        Bytes.to_string b
      in
      let forward payload =
        let payload =
          if !tampered then payload
          else
            match tamper payload with
            | Some p ->
                tampered := true;
                p
            | None -> payload
        in
        Net.Sockio.send_all cfd (prefix (String.length payload) ^ payload)
      in
      (try
         let running = ref true in
         while !running do
           let rs, _, _ = Unix.select [ cfd; sfd ] [] [] 10.0 in
           if rs = [] then running := false;
           List.iter
             (fun fd ->
               let n = Unix.read fd buf 0 (Bytes.length buf) in
               if n = 0 then running := false
               else if fd == cfd then
                 Net.Sockio.send_all sfd (Bytes.sub_string buf 0 n)
               else begin
                 Net.Frame.feed reader buf 0 n;
                 let rec drain () =
                   match Net.Frame.next reader with
                   | Ok (Some payload) ->
                       forward payload;
                       drain ()
                   | Ok None -> ()
                   | Error _ -> running := false
                 in
                 drain ()
               end)
             rs
         done
       with Unix.Unix_error _ | Failure _ -> ());
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ cfd; sfd; lfd ])

let flip_byte tag index payload =
  if String.length payload <= Net.Wire.header_len
     || Char.code payload.[3] <> tag
  then None
  else begin
    let b = Bytes.of_string payload in
    let i = if index < 0 then Bytes.length b + index else index in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    Some (Bytes.to_string b)
  end

let halted_with_evidence ~what ~tamper () =
  let t, p, addr = mk_primary () in
  Fastver.put t 5L "target";
  Fastver.put t 6L "decoy";
  ignore (Fastver.verify t);
  let proxy_path = fresh_sock () in
  let proxy = start_proxy ~listen_path:proxy_path ~server_addr:addr ~tamper in
  let fdir = fresh_dir () in
  (match
     Replica.Follower.create ~config:test_config
       ~load:(fun sys -> Fastver.load sys (records 256))
       ~primary:(Net.Addr.Unix_sock proxy_path) ~dir:fdir ()
   with
  | Error e -> Alcotest.fail e
  | Ok f ->
      Replica.Follower.start f;
      wait_for "halt" (fun () ->
          Replica.Follower.state f = Replica.Follower.Halted);
      (match Replica.Follower.failure f with
      | Some (epoch, reason) ->
          Alcotest.(check int) (what ^ ": halting epoch preserved") 0 epoch;
          Alcotest.(check bool) (what ^ ": reason names the epoch") true
            (find_sub reason "epoch 0" || find_sub reason "0 cert")
      | None -> Alcotest.fail (what ^ ": no failure evidence"));
      (* nothing tampered was applied: the follower still holds only the
         trusted initial load *)
      Alcotest.(check (option string)) (what ^ ": tampered op not served")
        (Some (initial_value 5L))
        (Fastver.get (Replica.Follower.system f) 5L);
      Replica.Follower.stop f);
  Replica.Primary.stop p;
  Domain.join proxy;
  remove_tree fdir;
  try Sys.remove proxy_path with Sys_error _ -> ()

(* Flip one bit inside the streamed batch (the last byte is part of the
   final op's value): the boundary stream MAC no longer matches the
   follower's digest. *)
let test_flipped_op_halts () =
  halted_with_evidence ~what:"flipped batched op"
    ~tamper:(flip_byte 0x8d (-1)) ()

(* Flip one bit of the epoch certificate inside the boundary record: the
   stream digest still matches, but the certificate chain rejects it. *)
let test_flipped_cert_halts () =
  let cert_off = Net.Wire.header_len + 4 + 2 (* epoch + u16 len *) in
  halted_with_evidence ~what:"flipped cert" ~tamper:(flip_byte 0x8c cert_off) ()

(* ------------------------------------------------------------------ *)
(* Frame batching                                                      *)
(* ------------------------------------------------------------------ *)

(* Batching must carry 10k ops in at most 1k op-carrying frames, and a
   follower replaying the batches converges to the same verified state. *)
let test_batching_cuts_frames () =
  let t, p, addr = mk_primary () in
  for e = 0 to 1 do
    for i = 0 to 4999 do
      Fastver.put t (Int64.of_int (i mod 200)) (Printf.sprintf "%d-%d" e i)
    done;
    ignore (Fastver.verify t)
  done;
  let frames = Replica.Primary.frames_emitted p in
  let f, fdir = mk_follower addr in
  wait_for "catch-up" (caught_up t f);
  Alcotest.(check (option string)) "last write replayed" (Some "1-4999")
    (Fastver.get (Replica.Follower.system f) 199L);
  Alcotest.(check int) "every op applied" 10_000
    (Replica.Follower.applied_ops f);
  Replica.Follower.stop f;
  Replica.Primary.stop p;
  remove_tree fdir;
  Alcotest.(check bool)
    (Printf.sprintf "10k ops in at most 1k frames (%d)" frames)
    true
    (frames > 0 && frames <= 1_000)

(* ------------------------------------------------------------------ *)
(* Subscribe under live load                                           *)
(* ------------------------------------------------------------------ *)

(* A follower subscribes while another domain streams puts across several
   seals, so the replay snapshot is taken with frames in flight to the
   live stream. The stream digest turns a frame duplicated or skipped
   between the two into a halt; applying exactly the streamed puts and
   verifying every epoch shows they met exactly. *)
let test_subscribe_under_load () =
  let t, p, addr = mk_primary () in
  let subscribed = Atomic.make false and started = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        (* keep writing until well after the subscription *)
        let n = ref 0 and after = ref 0 in
        while !after < 2_000 do
          Fastver.put t (Int64.of_int (!n mod 256)) (Printf.sprintf "live-%d" !n);
          incr n;
          if !n = 200 then Atomic.set started true;
          if Atomic.get subscribed then incr after;
          if !n mod 400 = 0 then ignore (Fastver.verify t)
        done;
        ignore (Fastver.verify t);
        !n)
  in
  wait_for "writer under way" (fun () -> Atomic.get started);
  let f, fdir = mk_follower addr in
  Atomic.set subscribed true;
  let puts = Domain.join writer in
  wait_for "catch-up" (caught_up t f);
  Alcotest.(check bool) "no halt" true
    (Replica.Follower.failure f = None
    && Replica.Follower.state f = Replica.Follower.Streaming);
  Alcotest.(check int) "every put applied once" puts
    (Replica.Follower.applied_ops f);
  let ft = Replica.Follower.system f in
  for k = 0 to 255 do
    let k = Int64.of_int k in
    Alcotest.(check (option string)) "replicated value" (Fastver.get t k)
      (Fastver.get ft k)
  done;
  Replica.Follower.stop f;
  Replica.Primary.stop p;
  remove_tree fdir

(* ------------------------------------------------------------------ *)
(* Stream teardown totality                                            *)
(* ------------------------------------------------------------------ *)

(* A byte-truncating proxy: forwards the first [limit] primary->follower
   bytes — enough for the Subscribed ack, then mid-frame — and drops the
   connection. The follower must land in its reconnect loop, never an
   exception and never a halt. *)
let start_truncating_proxy ~listen_path ~server_addr ~limit =
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX listen_path);
  Unix.listen lfd 1;
  Domain.spawn (fun () ->
      let cfd, _ = Unix.accept lfd in
      let sfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (match Net.Addr.to_sockaddr server_addr with
      | Ok a -> Unix.connect sfd a
      | Error e -> failwith e);
      let buf = Bytes.create 4096 in
      let sent = ref 0 in
      (try
         let running = ref true in
         while !running do
           let rs, _, _ = Unix.select [ cfd; sfd ] [] [] 10.0 in
           if rs = [] then running := false;
           List.iter
             (fun fd ->
               let n = Unix.read fd buf 0 (Bytes.length buf) in
               if n = 0 then running := false
               else if fd == cfd then
                 Net.Sockio.send_all sfd (Bytes.sub_string buf 0 n)
               else begin
                 let keep = min n (limit - !sent) in
                 if keep > 0 then begin
                   Net.Sockio.send_all cfd (Bytes.sub_string buf 0 keep);
                   sent := !sent + keep
                 end;
                 if !sent >= limit then running := false
               end)
             rs
         done
       with Unix.Unix_error _ | Failure _ -> ());
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ cfd; sfd; lfd ])

let test_truncated_stream_reconnects () =
  let t, p, addr = mk_primary () in
  Fastver.put t 2L "x";
  ignore (Fastver.verify t);
  let proxy_path = fresh_sock () in
  (* 28 bytes of Subscribed ack + 12 bytes into the replayed first frame *)
  let proxy =
    start_truncating_proxy ~listen_path:proxy_path ~server_addr:addr ~limit:40
  in
  let fdir = fresh_dir () in
  (match
     Replica.Follower.create ~config:test_config
       ~load:(fun sys -> Fastver.load sys (records 256))
       ~primary:(Net.Addr.Unix_sock proxy_path) ~dir:fdir ()
   with
  | Error e -> Alcotest.fail e
  | Ok f ->
      Replica.Follower.start f;
      wait_for "clean disconnect" (fun () ->
          Replica.Follower.state f = Replica.Follower.Disconnected);
      Alcotest.(check bool) "mid-frame cut is not an integrity failure" true
        (Replica.Follower.failure f = None);
      (* no partial epoch leaked into the store *)
      Alcotest.(check (option string)) "partial frame not applied"
        (Some (initial_value 2L))
        (Fastver.get (Replica.Follower.system f) 2L);
      Replica.Follower.stop f);
  Replica.Primary.stop p;
  Domain.join proxy;
  remove_tree fdir;
  try Sys.remove proxy_path with Sys_error _ -> ()

(* The primary side of the same property: a subscriber that sends garbage
   gets a clean Error frame and a closed connection, and the listener keeps
   serving well-formed subscribers afterwards. *)
let test_primary_survives_garbage () =
  let t, p, addr = mk_primary () in
  Fastver.put t 1L "v";
  ignore (Fastver.verify t);
  (match Net.Addr.to_sockaddr addr with
  | Error e -> Alcotest.fail e
  | Ok sa ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd sa;
      (* an insane length prefix: the frame layer rejects it outright *)
      Net.Sockio.send_all fd "\xff\xff\xff\xffgarbage";
      let buf = Bytes.create 4096 in
      let got = Buffer.create 64 in
      (try
         let rec drain () =
           let n = Unix.read fd buf 0 (Bytes.length buf) in
           if n > 0 then begin
             Buffer.add_subbytes got buf 0 n;
             drain ()
           end
         in
         drain ()
       with Unix.Unix_error _ -> ());
      Unix.close fd;
      Alcotest.(check bool) "error frame before close" true
        (find_sub (Buffer.contents got) "malformed"));
  (* the loop survived: a well-formed follower still gets served *)
  let f, fdir = mk_follower addr in
  wait_for "subscriber after garbage" (caught_up t f);
  Replica.Follower.stop f;
  Replica.Primary.stop p;
  remove_tree fdir

(* ------------------------------------------------------------------ *)
(* Client stale-epoch detection                                        *)
(* ------------------------------------------------------------------ *)

(* A fake server holding the shared secret (receipts authenticate!) that
   certifies the store at [cert_epoch] but serves correctly-signed read
   receipts from OLDER epochs — the replay a stale or rolled-back replica
   would produce. Only the session's staleness check against its certified
   anchor can catch it. *)
let start_stale_server ~listen_path ~cert_epoch ~epochs =
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX listen_path);
  Unix.listen lfd 1;
  Domain.spawn (fun () ->
      let cfd, _ = Unix.accept lfd in
      let reader = Net.Frame.create () in
      let buf = Bytes.create 4096 in
      let remaining = ref epochs in
      let client = ref 0 in
      (try
         let running = ref true in
         while !running do
           let n = Unix.read cfd buf 0 (Bytes.length buf) in
           if n = 0 then running := false
           else begin
             Net.Frame.feed reader buf 0 n;
             let rec drain () =
               match Net.Frame.next reader with
               | Ok (Some payload) ->
                   (match Net.Wire.decode_request payload with
                   | Ok (id, Net.Wire.Open_session { client = c }) ->
                       client := c;
                       Net.Sockio.send_all cfd
                         (Net.Wire.encode_response ~id
                            (Net.Wire.Session_opened { client = c }))
                   | Ok (id, Net.Wire.Get { key; nonce }) ->
                       let epoch =
                         match !remaining with
                         | e :: rest ->
                             remaining := rest;
                             e
                         | [] -> 0
                       in
                       let value = Some "v" in
                       let mac =
                         Fastver.Auth.receipt auth_key ~kind:Fastver.Auth.Get
                           ~client:!client ~nonce (Key.of_int64 key) value
                           ~epoch
                       in
                       Net.Sockio.send_all cfd
                         (Net.Wire.encode_response ~id
                            (Net.Wire.Got
                               { nonce; item = { key; value; epoch; mac } }))
                   | Ok (id, Net.Wire.Verify) ->
                       let cert =
                         Fastver_crypto.Hmac.mac ~key:secret
                           (Verifier.epoch_certificate_message
                              ~epoch:cert_epoch)
                       in
                       Net.Sockio.send_all cfd
                         (Net.Wire.encode_response ~id
                            (Net.Wire.Verified { epoch = cert_epoch; cert }))
                   | Ok (id, Net.Wire.Close_session) ->
                       Net.Sockio.send_all cfd
                         (Net.Wire.encode_response ~id Net.Wire.Session_closed);
                       running := false
                   | Ok _ | Error _ -> running := false);
                   drain ()
               | Ok None -> ()
               | Error _ -> running := false
             in
             drain ()
           end
         done
       with Unix.Unix_error _ -> ());
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ cfd; lfd ])

let test_client_stale_epoch () =
  let path = fresh_sock () in
  let srv = start_stale_server ~listen_path:path ~cert_epoch:5 ~epochs:[ 4; 3 ] in
  (match Net.Client.connect (Net.Addr.Unix_sock path) with
  | Error e -> Alcotest.fail e
  | Ok conn ->
      let s = Net.Client.open_session conn ~client:4 ~secret in
      (* anchor the session: the server certifies the store at epoch 5 *)
      let epoch, _cert = Net.Client.verify_now s in
      Alcotest.(check int) "anchor epoch" 5 epoch;
      Alcotest.(check int) "session epoch" 5 (Net.Client.session_epoch s);
      (* a receipt one epoch behind the anchor is a read racing the scan *)
      Alcotest.(check (option string)) "epoch 4 within default slack"
        (Some "v") (Net.Client.get s 1L);
      (* the next receipt authenticates but comes from epoch 3, two behind
         the certified anchor: authentic-but-old state *)
      (match Net.Client.get s 2L with
      | _ -> Alcotest.fail "stale-epoch receipt accepted"
      | exception Fastver.Integrity_violation reason ->
          Alcotest.(check bool) "reason names staleness" true
            (find_sub reason "stale"));
      Net.Client.close conn);
  Domain.join srv;
  try Sys.remove path with Sys_error _ -> ()

let test_client_staleness_budget () =
  let path = fresh_sock () in
  let srv = start_stale_server ~listen_path:path ~cert_epoch:5 ~epochs:[ 3; 2 ] in
  (match Net.Client.connect (Net.Addr.Unix_sock path) with
  | Error e -> Alcotest.fail e
  | Ok conn ->
      (* an explicit staleness budget tolerates a bounded lag... *)
      let s = Net.Client.open_session conn ~client:4 ~secret ~max_staleness:2 in
      ignore (Net.Client.verify_now s);
      Alcotest.(check (option string)) "epoch 3 within budget" (Some "v")
        (Net.Client.get s 1L);
      (* ...but not beyond it *)
      (match Net.Client.get s 2L with
      | _ -> Alcotest.fail "epoch 2 exceeds the staleness budget"
      | exception Fastver.Integrity_violation _ -> ());
      Net.Client.close conn);
  Domain.join srv;
  try Sys.remove path with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Handshake bounding                                                  *)
(* ------------------------------------------------------------------ *)

(* A stalled fake primary: accepts connections, reads and discards, never
   answers. The pathological peer a recv deadline exists for. *)
let start_stalled_listener path =
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 8;
  let stop = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        let conns = ref [] in
        let buf = Bytes.create 4096 in
        (try
           while not (Atomic.get stop) do
             let rs, _, _ = Unix.select (lfd :: !conns) [] [] 0.1 in
             List.iter
               (fun fd ->
                 if fd == lfd then begin
                   let c, _ = Unix.accept lfd in
                   conns := c :: !conns
                 end
                 else
                   let n =
                     try Unix.read fd buf 0 4096 with Unix.Unix_error _ -> 0
                   in
                   if n = 0 then begin
                     conns := List.filter (fun c -> not (c == fd)) !conns;
                     try Unix.close fd with Unix.Unix_error _ -> ()
                   end)
               rs
           done
         with Unix.Unix_error _ -> ());
        List.iter
          (fun c -> try Unix.close c with Unix.Unix_error _ -> ())
          !conns;
        try Unix.close lfd with Unix.Unix_error _ -> ())
  in
  (stop, d)

let test_handshake_timeout () =
  (* bootstrap: create against a stalled primary must return an error in
     bounded time, never hang in recv *)
  let path = fresh_sock () in
  let stop, d = start_stalled_listener path in
  let fdir = fresh_dir () in
  let t0 = Unix.gettimeofday () in
  (match
     Replica.Follower.create ~config:test_config ~handshake_timeout:0.3
       ~load:(fun _ -> ())
       ~primary:(Net.Addr.Unix_sock path) ~dir:fdir ()
   with
  | Ok _ -> Alcotest.fail "subscribe against a stalled primary succeeded"
  | Error e ->
      Alcotest.(check bool) "error names the timeout" true
        (find_sub e "timed out"));
  Alcotest.(check bool) "create returned within bounds" true
    (Unix.gettimeofday () -. t0 < 5.0);
  Atomic.set stop true;
  Domain.join d;
  (try Sys.remove path with Sys_error _ -> ());
  remove_tree fdir

let test_handshake_timeout_reconnect () =
  (* a running follower whose reconnect lands on a stalled listener must
     fall back to its reconnect loop — and resume once a real primary is
     back on the address *)
  let t, p, addr = mk_primary () in
  Fastver.put t 21L "before";
  ignore (Fastver.verify t);
  let fdir = fresh_dir () in
  let f =
    match
      Replica.Follower.create ~config:test_config ~reconnect_delay:0.05
        ~handshake_timeout:0.3
        ~load:(fun sys -> Fastver.load sys (records 256))
        ~primary:addr ~dir:fdir ()
    with
    | Error e -> Alcotest.fail e
    | Ok f ->
        Replica.Follower.start f;
        f
  in
  wait_for "caught up" (caught_up t f);
  Replica.Primary.stop p;
  let path = match addr with Net.Addr.Unix_sock p -> p | _ -> assert false in
  (try Sys.remove path with Sys_error _ -> ());
  let stop, d = start_stalled_listener path in
  (* reconnects now reach a listener that never completes the handshake:
     the follower must keep cycling, not park in recv forever *)
  Unix.sleepf 1.5;
  Alcotest.(check bool) "still disconnected, not hung or halted" true
    (Replica.Follower.state f = Replica.Follower.Disconnected
    && Replica.Follower.failure f = None);
  Atomic.set stop true;
  Domain.join d;
  (try Sys.remove path with Sys_error _ -> ());
  (match Replica.Primary.create t ~listen:addr with
  | Error e -> Alcotest.fail e
  | Ok p2 ->
      Replica.Primary.start p2;
      Fastver.put t 21L "after";
      ignore (Fastver.verify t);
      wait_for "resumed after the stall" (caught_up t f);
      Alcotest.(check (option string)) "post-stall write replicated"
        (Some "after")
        (Fastver.get (Replica.Follower.system f) 21L);
      Replica.Primary.stop p2);
  Replica.Follower.stop f;
  remove_tree fdir

(* ------------------------------------------------------------------ *)
(* Shutdown vs in-flight checkpoint fetch                              *)
(* ------------------------------------------------------------------ *)

(* Race [Primary.stop] against an in-flight [Fetch_checkpoint], at several
   offsets. The frame layer makes the reply all-or-nothing; the shutdown
   drain must make "nothing" a clean EOF or error frame — never a torn
   frame, never a hang. *)
let test_shutdown_fetch_race () =
  let ckpt = fresh_dir () in
  let t = mk_system ~n:64 () in
  Fastver.set_auto_checkpoint t ~dir:ckpt;
  for i = 0 to 4 do
    Fastver.put t (Int64.of_int i) "x";
    ignore (Fastver.verify t)
  done;
  List.iter
    (fun delay ->
      let path = fresh_sock () in
      let pcfg =
        { Replica.Primary.default_config with checkpoint_dir = Some ckpt }
      in
      match Replica.Primary.create ~config:pcfg t ~listen:(Net.Addr.Unix_sock path) with
      | Error e -> Alcotest.fail e
      | Ok p -> (
          Replica.Primary.start p;
          match Net.Client.connect (Net.Addr.Unix_sock path) with
          | Error e -> Alcotest.fail e
          | Ok conn ->
              let id = Net.Client.send conn Net.Wire.Fetch_checkpoint in
              let stopper =
                Domain.spawn (fun () ->
                    Unix.sleepf delay;
                    Replica.Primary.stop p)
              in
              (match Net.Client.recv ~timeout:10.0 conn with
              | id', Net.Wire.Checkpoint_reply { files; _ }
                when Int64.equal id id' ->
                  (* a complete frame: the whole generation arrived *)
                  Alcotest.(check bool) "generation includes its manifest"
                    true
                    (Array.exists (fun (n, _) -> n = "MANIFEST") files)
              | _, Net.Wire.Error _ -> ()
              | _ -> Alcotest.fail "unexpected reply to checkpoint fetch"
              | exception Net.Client.Protocol_error _ -> () (* clean EOF *)
              | exception Net.Client.Timeout ->
                  Alcotest.fail "checkpoint fetch hung across shutdown"
              | exception Unix.Unix_error _ -> ());
              Domain.join stopper;
              Net.Client.close conn))
    [ 0.0; 0.002; 0.01; 0.05 ];
  (* mid-fetch loss, then a successful retry against a fresh primary *)
  let path = fresh_sock () in
  let pcfg =
    { Replica.Primary.default_config with checkpoint_dir = Some ckpt }
  in
  (match Replica.Primary.create ~config:pcfg t ~listen:(Net.Addr.Unix_sock path) with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Replica.Primary.start p;
      let fdir = fresh_dir () in
      (match
         Replica.Follower.create ~config:test_config
           ~load:(fun _ -> Alcotest.fail "fresh-load path taken")
           ~primary:(Net.Addr.Unix_sock path) ~dir:fdir ()
       with
      | Error e -> Alcotest.fail e
      | Ok f ->
          Alcotest.(check bool) "bootstrap after the raced fetches" true
            (Replica.Follower.verified_epoch f >= 0);
          Replica.Follower.stop f);
      remove_tree fdir;
      Replica.Primary.stop p);
  remove_tree ckpt

(* ------------------------------------------------------------------ *)
(* Primary loss at every protocol stage                                *)
(* ------------------------------------------------------------------ *)

(* Lose the primary mid-epoch (streamed ops, no boundary) and right at a
   boundary seal: the follower must come back clean each time and resume
   against the restarted primary from its verified epoch. *)
let test_primary_loss_stage_sweep () =
  let t, p, addr = mk_primary () in
  let f, fdir = mk_follower addr in
  wait_for "caught up" (caught_up t f);
  (* stage 1: mid-epoch — an op is in the stream, its boundary never is *)
  Fastver.put t 80L "unsealed";
  Unix.sleepf 0.1;
  Replica.Primary.stop p;
  wait_for "mid-epoch loss noticed" (fun () ->
      Replica.Follower.state f = Replica.Follower.Disconnected);
  Alcotest.(check bool) "mid-epoch loss is not an integrity failure" true
    (Replica.Follower.failure f = None);
  Alcotest.(check (option string)) "unsealed op never applied"
    (Some (initial_value 80L))
    (Fastver.get (Replica.Follower.system f) 80L);
  (* the primary restarts with the op still unsealed; seal and catch up *)
  (match Replica.Primary.create t ~listen:addr with
  | Error e -> Alcotest.fail e
  | Ok p2 ->
      Fastver.put t 80L "sealed";
      ignore (Fastver.verify t);
      Replica.Primary.start p2;
      wait_for "resumed after mid-epoch loss" (caught_up t f);
      Alcotest.(check (option string)) "sealed value replicated"
        (Some "sealed")
        (Fastver.get (Replica.Follower.system f) 80L);
      (* stage 2: loss at the boundary — seal and stop with no settling
         time, so the boundary record races the teardown *)
      Fastver.put t 81L "boundary";
      ignore (Fastver.verify t);
      Replica.Primary.stop p2);
  wait_for "boundary-race loss noticed" (fun () ->
      Replica.Follower.state f = Replica.Follower.Disconnected);
  Alcotest.(check bool) "boundary race is not an integrity failure" true
    (Replica.Follower.failure f = None);
  (* whether or not the boundary made it, the restart must converge *)
  (match Replica.Primary.create t ~listen:addr with
  | Error e -> Alcotest.fail e
  | Ok p3 ->
      Replica.Primary.start p3;
      Fastver.put t 82L "converged";
      ignore (Fastver.verify t);
      wait_for "resumed after boundary race" (caught_up t f);
      Alcotest.(check (option string)) "boundary epoch applied exactly once"
        (Some "boundary")
        (Fastver.get (Replica.Follower.system f) 81L);
      Alcotest.(check (option string)) "post-race epoch applied"
        (Some "converged")
        (Fastver.get (Replica.Follower.system f) 82L);
      Replica.Primary.stop p3);
  Replica.Follower.stop f;
  remove_tree fdir

(* ------------------------------------------------------------------ *)
(* Election & failover                                                 *)
(* ------------------------------------------------------------------ *)

let mk_electable ?(n = 256) ?(promote_batch = 1) ~priority ~peers ~repl ~lsock
    primary =
  let dir = fresh_dir () in
  let e =
    Replica.Follower.electable ~peers ~priority ~election_timeout:0.3
      ~probe_timeout:0.5 ~probe_interval:0.15 ~promote_batch repl
  in
  match
    Replica.Follower.create ~config:test_config ~reconnect_delay:0.05
      ~handshake_timeout:2.0 ~election:e
      ~load:(fun sys -> Fastver.load sys (records n))
      ~primary ~listen:(Net.Addr.Unix_sock lsock) ~dir ()
  with
  | Error err -> Alcotest.fail err
  | Ok f ->
      Replica.Follower.start f;
      (f, dir)

(* Kill the primary under two electable followers: the higher-priority one
   must promote in place and serve *verified writes*; the loser must
   re-subscribe to it with its certificate chain unbroken across the term
   change. *)
let test_election_failover () =
  let t, p, addr = mk_primary () in
  Fastver.put t 50L "pre-failover";
  ignore (Fastver.verify t);
  let r1 = fresh_sock () and r2 = fresh_sock () in
  let l1 = fresh_sock () and l2 = fresh_sock () in
  let f1, d1 =
    mk_electable ~priority:2
      ~peers:[ Net.Addr.Unix_sock r2 ]
      ~repl:(Net.Addr.Unix_sock r1) ~lsock:l1 addr
  in
  let f2, d2 =
    mk_electable ~priority:1
      ~peers:[ Net.Addr.Unix_sock r1 ]
      ~repl:(Net.Addr.Unix_sock r2) ~lsock:l2 addr
  in
  wait_for "both caught up" (fun () -> caught_up t f1 () && caught_up t f2 ());
  let chain_checks_before =
    Replica.Follower.verified_epoch f2
  in
  Replica.Primary.stop p;
  wait_for "priority winner promotes" (fun () ->
      Replica.Follower.state f1 = Replica.Follower.Leading);
  Alcotest.(check bool) "fencing term advanced" true
    (Replica.Follower.term f1 >= 1);
  wait_for "loser re-homes to the winner" (fun () ->
      Replica.Follower.state f2 = Replica.Follower.Streaming
      && Replica.Follower.run_id f2
         = Some
             (Replica.Primary.run_id
                (Option.get (Replica.Follower.standby f1))));
  (* verified writes against the promoted node, via the ordinary client
     path: receipt MACs and a fresh epoch certificate, post-election *)
  (match Net.Client.connect (Net.Addr.Unix_sock l1) with
  | Error e -> Alcotest.fail e
  | Ok conn ->
      let s = Net.Client.open_session conn ~client:1 ~secret in
      Net.Client.put s 60L "failover-write";
      let epoch, _cert = Net.Client.verify_now s in
      Alcotest.(check bool) "cert chain alive across the term change" true
        (epoch > chain_checks_before);
      Alcotest.(check (option string)) "verified read-back"
        (Some "failover-write") (Net.Client.get s 60L);
      Net.Client.close conn);
  wait_for "write replicated to the loser" (fun () ->
      Fastver.get (Replica.Follower.system f2) 60L = Some "failover-write");
  Alcotest.(check bool) "loser chain unbroken" true
    (Replica.Follower.failure f2 = None);
  Alcotest.(check bool) "loser verified past its pre-failover chain" true
    (Replica.Follower.verified_epoch f2 > chain_checks_before);
  Alcotest.(check bool) "loser adopted the new term" true
    (Replica.Follower.term f2 >= 1);
  let m1 =
    Fastver_obs.Registry.to_json (Fastver.registry (Replica.Follower.system f1))
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " present") true (find_sub m1 name))
    [
      "fastver_repl_elections_total";
      "fastver_repl_promotion_seconds";
      "fastver_repl_term";
    ];
  Replica.Follower.stop f2;
  Replica.Follower.stop f1;
  remove_tree d1;
  remove_tree d2

(* Primary-side fencing at subscribe time, all three refusal classes. *)
let test_subscribe_fencing () =
  let t = mk_system ~n:16 () in
  let path = fresh_sock () in
  (match Replica.Primary.create t ~listen:(Net.Addr.Unix_sock path) with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Replica.Primary.start p;
      (match Net.Client.connect (Net.Addr.Unix_sock path) with
      | Error e -> Alcotest.fail e
      | Ok conn ->
          (* a subscriber speaking a higher term proves this primary was
             deposed: refusal plus recorded evidence *)
          let id =
            Net.Client.send conn (Net.Wire.Subscribe { from_epoch = 0; term = 5 })
          in
          (match Net.Client.recv ~timeout:5.0 conn with
          | id', Net.Wire.Error e when Int64.equal id id' ->
              Alcotest.(check bool) "refusal names deposition" true
                (find_sub e "deposed")
          | _ -> Alcotest.fail "higher-term subscriber was not refused");
          Net.Client.close conn);
      (match Replica.Primary.deposed p with
      | Some (5, _) -> ()
      | _ -> Alcotest.fail "deposition evidence not recorded");
      Replica.Primary.stop p);
  (* a standby candidate refuses subscribers outright *)
  let path2 = fresh_sock () in
  (match
     Replica.Primary.create ~role:Replica.Primary.Standby t
       ~listen:(Net.Addr.Unix_sock path2)
   with
  | Error e -> Alcotest.fail e
  | Ok sb ->
      Replica.Primary.start sb;
      (match Net.Client.connect (Net.Addr.Unix_sock path2) with
      | Error e -> Alcotest.fail e
      | Ok conn ->
          let id =
            Net.Client.send conn (Net.Wire.Subscribe { from_epoch = 0; term = 0 })
          in
          (match Net.Client.recv ~timeout:5.0 conn with
          | id', Net.Wire.Error e when Int64.equal id id' ->
              Alcotest.(check bool) "standby refusal is retryable" true
                (find_sub e "not primary")
          | _ -> Alcotest.fail "standby accepted a subscriber");
          Net.Client.close conn);
      (* after promotion, a stale-term subscriber claiming re-sealed epochs
         is fenced onto the checkpoint path *)
      Replica.Primary.promote sb ~term:3;
      (match Net.Client.connect (Net.Addr.Unix_sock path2) with
      | Error e -> Alcotest.fail e
      | Ok conn ->
          let from_epoch = Fastver.verified_epoch t + 2 in
          let id =
            Net.Client.send conn (Net.Wire.Subscribe { from_epoch; term = 0 })
          in
          (match Net.Client.recv ~timeout:5.0 conn with
          | id', Net.Wire.Error e when Int64.equal id id' ->
              Alcotest.(check bool) "stale term fenced to checkpoint" true
                (find_sub e "checkpoint")
          | _ -> Alcotest.fail "stale-term subscriber was not fenced");
          Net.Client.close conn);
      Replica.Primary.stop sb)

(* A bidirectional splice forwarder: healing a simulated partition means
   binding these at the peer addresses the candidates were configured
   with. Handles any number of sequential connections (election probes are
   one connection each). *)
let start_forwarder ~listen_path ~target =
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX listen_path);
  Unix.listen lfd 8;
  let stop = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        let buf = Bytes.create 4096 in
        let conns = ref [] in
        let close_pair (a, b) =
          (try Unix.close a with Unix.Unix_error _ -> ());
          try Unix.close b with Unix.Unix_error _ -> ()
        in
        (try
           while not (Atomic.get stop) do
             let fds =
               lfd :: List.concat_map (fun (a, b) -> [ a; b ]) !conns
             in
             let rs, _, _ = Unix.select fds [] [] 0.1 in
             List.iter
               (fun fd ->
                 if fd == lfd then begin
                   let cfd, _ = Unix.accept lfd in
                   match Net.Addr.to_sockaddr target with
                   | Ok a -> (
                       let sfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
                       try
                         Unix.connect sfd a;
                         conns := (cfd, sfd) :: !conns
                       with Unix.Unix_error _ ->
                         Unix.close cfd;
                         Unix.close sfd)
                   | Error _ -> Unix.close cfd
                 end
                 else
                   match
                     List.find_opt (fun (a, b) -> fd == a || fd == b) !conns
                   with
                   | None -> ()
                   | Some ((a, b) as pair) ->
                       let dst = if fd == a then b else a in
                       let n =
                         try Unix.read fd buf 0 4096
                         with Unix.Unix_error _ -> 0
                       in
                       if n = 0 then begin
                         conns := List.filter (fun p -> p != pair) !conns;
                         close_pair pair
                       end
                       else Net.Sockio.send_all dst (Bytes.sub_string buf 0 n))
               rs
           done
         with Unix.Unix_error _ -> ());
        List.iter close_pair !conns;
        try Unix.close lfd with Unix.Unix_error _ -> ())
  in
  (stop, d)

(* Partition two electable followers (peer addresses unbound), kill the
   primary: both promote at the same term. Heal the partition: the rival
   probes find each other and exactly one primary survives — the other
   demotes in place and re-subscribes, chain intact. *)
let test_dual_promotion_heals () =
  let t, p, addr = mk_primary () in
  let ra = fresh_sock () and rb = fresh_sock () in
  let pa = fresh_sock () and pb = fresh_sock () in
  let la = fresh_sock () and lb = fresh_sock () in
  let fa, da =
    mk_electable ~priority:2
      ~peers:[ Net.Addr.Unix_sock pb ]
      ~repl:(Net.Addr.Unix_sock ra) ~lsock:la addr
  in
  let fb, db =
    mk_electable ~priority:1
      ~peers:[ Net.Addr.Unix_sock pa ]
      ~repl:(Net.Addr.Unix_sock rb) ~lsock:lb addr
  in
  wait_for "both caught up" (fun () -> caught_up t fa () && caught_up t fb ());
  Replica.Primary.stop p;
  wait_for "both promote during the partition" (fun () ->
      Replica.Follower.state fa = Replica.Follower.Leading
      && Replica.Follower.state fb = Replica.Follower.Leading);
  (* heal: bind the peer addresses with splices to the real listeners *)
  let stop_a, dfa = start_forwarder ~listen_path:pa ~target:(Net.Addr.Unix_sock ra) in
  let stop_b, dfb = start_forwarder ~listen_path:pb ~target:(Net.Addr.Unix_sock rb) in
  wait_for "exactly one primary survives the heal" (fun () ->
      Replica.Follower.state fa = Replica.Follower.Leading
      && Replica.Follower.state fb = Replica.Follower.Streaming);
  Alcotest.(check bool) "loser demoted with chain intact" true
    (Replica.Follower.failure fb = None);
  (* the surviving primary serves writes; the demoted rival replicates them *)
  Fastver.put (Replica.Follower.system fa) 70L "post-heal";
  wait_for "post-heal write reaches the demoted rival" (fun () ->
      Fastver.get (Replica.Follower.system fb) 70L = Some "post-heal");
  Replica.Follower.stop fb;
  Replica.Follower.stop fa;
  Atomic.set stop_a true;
  Atomic.set stop_b true;
  Domain.join dfa;
  Domain.join dfb;
  remove_tree da;
  remove_tree db;
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ pa; pb ]

(* Reads through a node's read server, receipts checked by the client. *)
let read_via lsock key =
  match Net.Client.connect (Net.Addr.Unix_sock lsock) with
  | Error e -> Alcotest.fail e
  | Ok conn ->
      let s = Net.Client.open_session conn ~client:1 ~secret in
      let v = Net.Client.get s key in
      Net.Client.close conn;
      v

(* The partitioned dual promotion of [test_dual_promotion_heals], but the
   loser takes a write while leading — left unsealed, or sealed. After the
   heal it must discard that store and re-bootstrap from the winner: it
   may never serve a value outside the winner's history, nor halt. *)
let test_divergent_loser ~seal () =
  let t, p, addr = mk_primary () in
  let ra = fresh_sock () and rb = fresh_sock () in
  let pa = fresh_sock () and pb = fresh_sock () in
  let la = fresh_sock () and lb = fresh_sock () in
  let fa, da =
    mk_electable ~promote_batch:1000 ~priority:2
      ~peers:[ Net.Addr.Unix_sock pb ]
      ~repl:(Net.Addr.Unix_sock ra) ~lsock:la addr
  in
  let fb, db =
    mk_electable ~promote_batch:1000 ~priority:1
      ~peers:[ Net.Addr.Unix_sock pa ]
      ~repl:(Net.Addr.Unix_sock rb) ~lsock:lb addr
  in
  wait_for "both caught up" (fun () -> caught_up t fa () && caught_up t fb ());
  Replica.Primary.stop p;
  wait_for "both promote during the partition" (fun () ->
      Replica.Follower.state fa = Replica.Follower.Leading
      && Replica.Follower.state fb = Replica.Follower.Leading);
  let sys_a = Replica.Follower.system fa in
  Fastver.put sys_a 91L "a-history";
  ignore (Fastver.verify sys_a);
  let sys_b = Replica.Follower.system fb in
  Fastver.put sys_b 92L "b-only";
  if seal then ignore (Fastver.verify sys_b);
  let stop_a, dfa =
    start_forwarder ~listen_path:pa ~target:(Net.Addr.Unix_sock ra)
  in
  let stop_b, dfb =
    start_forwarder ~listen_path:pb ~target:(Net.Addr.Unix_sock rb)
  in
  wait_for "the loser follows the winner's history" (fun () ->
      Replica.Follower.state fb = Replica.Follower.Streaming
      && Replica.Follower.verified_epoch fb >= Fastver.verified_epoch sys_a);
  Alcotest.(check bool) "winner still leads" true
    (Replica.Follower.state fa = Replica.Follower.Leading);
  Alcotest.(check bool) "loser did not halt" true
    (Replica.Follower.failure fb = None);
  let sys_b = Replica.Follower.system fb in
  Alcotest.(check (option string)) "loser's write is gone"
    (Some (initial_value 92L)) (Fastver.get sys_b 92L);
  Alcotest.(check (option string)) "winner's write replicated"
    (Some "a-history") (Fastver.get sys_b 91L);
  Alcotest.(check (option string)) "verified read of the loser's key"
    (Some (initial_value 92L)) (read_via lb 92L);
  Fastver.put sys_a 93L "post-heal";
  ignore (Fastver.verify sys_a);
  wait_for "post-heal write reaches the loser" (fun () ->
      Fastver.get (Replica.Follower.system fb) 93L = Some "post-heal");
  Replica.Follower.stop fb;
  Replica.Follower.stop fa;
  Atomic.set stop_a true;
  Atomic.set stop_b true;
  Domain.join dfa;
  Domain.join dfb;
  remove_tree da;
  remove_tree db;
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ pa; pb ]

(* What [serve --replication-listen] runs: a loaded store and its read
   server, wrapped by [Follower.leading] (not yet started). *)
let mk_leading ~peers () =
  let t = mk_system () in
  let lsock = fresh_sock () and repl = Net.Addr.Unix_sock (fresh_sock ()) in
  let dir = fresh_dir () in
  let srv =
    match Net.Server.create t ~listen:(Net.Addr.Unix_sock lsock) with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let e =
    Replica.Follower.electable ~peers ~election_timeout:0.3 ~probe_timeout:0.5
      ~probe_interval:0.15 repl
  in
  match
    Replica.Follower.leading
      ~load:(fun sys -> Fastver.load sys (records 256))
      ~election:e ~server:srv ~dir t
  with
  | Ok f -> (t, f, lsock, repl, dir)
  | Error e -> Alcotest.fail e

(* A primary at term 3 on [addr], over a history holding one sealed write
   (key 95) that no leading node under test has. *)
let mk_rival addr =
  let w = mk_system () in
  match Replica.Primary.create ~role:Replica.Primary.Standby w ~listen:addr with
  | Error e -> Alcotest.fail e
  | Ok wp ->
      Replica.Primary.start wp;
      Replica.Primary.promote wp ~term:3;
      Fastver.put w 95L "new-history";
      ignore (Fastver.verify w);
      (w, wp)

let wait_rejoined f w =
  wait_for "the old leader rejoins under the new term" (fun () ->
      Replica.Follower.state f = Replica.Follower.Streaming
      && Replica.Follower.verified_epoch f >= Fastver.verified_epoch w
      && Replica.Follower.term f = 3);
  Alcotest.(check bool) "no integrity failure" true
    (Replica.Follower.failure f = None)

(* A serving node built with [Follower.leading] — what [serve
   --replication-listen] runs — takes a write, then a peer proves a higher
   term: it must rejoin as a follower of that peer and serve its history
   on the same read address. *)
let test_leading_node_rejoins () =
  let wrepl = Net.Addr.Unix_sock (fresh_sock ()) in
  let t, f, lsock, _, dir = mk_leading ~peers:[ wrepl ] () in
  Replica.Follower.start f;
  Fastver.put t 94L "old-leader";
  ignore (Fastver.verify t);
  Alcotest.(check (option string)) "the leader serves its write"
    (Some "old-leader") (read_via lsock 94L);
  let w, wp = mk_rival wrepl in
  wait_rejoined f w;
  Alcotest.(check (option string)) "new history served"
    (Some "new-history") (read_via lsock 95L);
  Alcotest.(check (option string)) "old leader's write gone"
    (Some (initial_value 94L)) (read_via lsock 94L);
  Replica.Follower.stop f;
  Replica.Primary.stop wp;
  remove_tree dir

(* Puts pipelined into a leading node's read server as a rival primary
   outranks it: applied before the step-down or still queued in the
   server when it happens, none may survive into what the node serves
   once it follows the rival. *)
let test_queued_put_at_step_down () =
  let wrepl = Net.Addr.Unix_sock (fresh_sock ()) in
  let w, wp = mk_rival wrepl in
  let _, f, lsock, _, dir = mk_leading ~peers:[ wrepl ] () in
  (match Net.Client.connect (Net.Addr.Unix_sock lsock) with
  | Error e -> Alcotest.fail e
  | Ok conn ->
      let s = Net.Client.open_session conn ~client:1 ~secret in
      for i = 0 to 1999 do
        ignore (Net.Client.send_put s (Int64.of_int (100 + (i mod 100))) "queued")
      done;
      Replica.Follower.start f;
      (* refused once read-only, cut off when the server stops *)
      (try Net.Client.drain s with _ -> ());
      Net.Client.close conn);
  wait_rejoined f w;
  let sys = Replica.Follower.system f in
  for k = 100 to 199 do
    let k = Int64.of_int k in
    Alcotest.(check (option string)) "no queued put survives"
      (Some (initial_value k)) (Fastver.get sys k)
  done;
  Alcotest.(check (option string)) "verified read of a queued key"
    (Some (initial_value 100L)) (read_via lsock 100L);
  Replica.Follower.stop f;
  Replica.Primary.stop wp;
  remove_tree dir

(* A leading node with no peers hears of a higher term from an
   unauthenticated announce. No primary answers to confirm it, so the node
   must keep leading under its own term and taking writes — never step
   down, then elect itself alone above the claimed term. *)
let test_unconfirmed_deposition () =
  let _, f, lsock, repl, dir = mk_leading ~peers:[] () in
  Replica.Follower.start f;
  (match Net.Client.connect repl with
  | Error e -> Alcotest.fail e
  | Ok conn ->
      let id =
        Net.Client.send conn
          (Net.Wire.Announce_term
             { term = 5; sealed = 0; priority = 0; run_id = 1L })
      in
      ignore (Net.Client.expect_id id (Net.Client.recv ~timeout:5.0 conn));
      Net.Client.close conn);
  (* past the election timeout, several probe rounds *)
  Unix.sleepf 1.5;
  Alcotest.(check bool) "still leading" true
    (Replica.Follower.state f = Replica.Follower.Leading);
  Alcotest.(check int) "under its own term" 0 (Replica.Follower.term f);
  (match Net.Client.connect (Net.Addr.Unix_sock lsock) with
  | Error e -> Alcotest.fail e
  | Ok conn ->
      let s = Net.Client.open_session conn ~client:1 ~secret in
      Net.Client.put s 98L "still-writable";
      Alcotest.(check (option string)) "writes still served"
        (Some "still-writable") (Net.Client.get s 98L);
      Net.Client.close conn);
  Replica.Follower.stop f;
  remove_tree dir

(* The primary restarts with sealed epochs the follower never saw: its
   retained stream starts past the follower's verified epoch. The follower
   must re-bootstrap from a checkpoint and tail on, not halt. *)
let test_floor_passed_rebootstraps () =
  let ckpt = fresh_dir () in
  let t = mk_system () in
  Fastver.set_auto_checkpoint t ~dir:ckpt;
  let path = fresh_sock () in
  let addr = Net.Addr.Unix_sock path in
  let pcfg =
    { Replica.Primary.default_config with checkpoint_dir = Some ckpt }
  in
  let start_primary () =
    match Replica.Primary.create ~config:pcfg t ~listen:addr with
    | Ok p ->
        Replica.Primary.start p;
        p
    | Error e -> Alcotest.fail e
  in
  let p = start_primary () in
  Fastver.put t 96L "first";
  ignore (Fastver.verify t);
  let f, fdir = mk_follower addr in
  wait_for "caught up" (caught_up t f);
  Replica.Primary.stop p;
  wait_for "loss noticed" (fun () ->
      Replica.Follower.state f = Replica.Follower.Disconnected);
  Fastver.put t 96L "second";
  ignore (Fastver.verify t);
  let p2 = start_primary () in
  Fastver.put t 97L "tail";
  ignore (Fastver.verify t);
  wait_for "re-bootstrapped and tailing" (fun () ->
      Replica.Follower.state f = Replica.Follower.Streaming && caught_up t f ());
  Alcotest.(check bool) "no halt" true (Replica.Follower.failure f = None);
  let ft = Replica.Follower.system f in
  Alcotest.(check (option string)) "missed epoch recovered" (Some "second")
    (Fastver.get ft 96L);
  Alcotest.(check (option string)) "tail streamed" (Some "tail")
    (Fastver.get ft 97L);
  Replica.Follower.stop f;
  Replica.Primary.stop p2;
  remove_tree fdir;
  remove_tree ckpt

(* ------------------------------------------------------------------ *)

let suite =
  ( "replica",
    [
      Alcotest.test_case "stream digest" `Quick test_stream_digest;
      Alcotest.test_case "certificate chain" `Quick test_cert_chain;
      Alcotest.test_case "replication wire opcodes" `Quick
        test_wire_repl_opcodes;
      QCheck_alcotest.to_alcotest prop_repl_hostile;
      Alcotest.test_case "follower replays and serves" `Quick
        test_follower_replays_and_serves;
      Alcotest.test_case "follower survives primary death" `Quick
        test_follower_survives_primary_death;
      Alcotest.test_case "checkpoint bootstrap" `Quick
        test_checkpoint_bootstrap;
      Alcotest.test_case "batching cuts stream frames" `Quick
        test_batching_cuts_frames;
      Alcotest.test_case "subscribe under live load" `Quick
        test_subscribe_under_load;
      Alcotest.test_case "flipped op halts follower" `Quick
        test_flipped_op_halts;
      Alcotest.test_case "flipped cert halts follower" `Quick
        test_flipped_cert_halts;
      Alcotest.test_case "truncated stream reconnects" `Quick
        test_truncated_stream_reconnects;
      Alcotest.test_case "primary survives garbage" `Quick
        test_primary_survives_garbage;
      Alcotest.test_case "client stale-epoch detection" `Quick
        test_client_stale_epoch;
      Alcotest.test_case "client staleness budget" `Quick
        test_client_staleness_budget;
      Alcotest.test_case "handshake timeout bounds create" `Quick
        test_handshake_timeout;
      Alcotest.test_case "handshake timeout falls back to reconnect" `Quick
        test_handshake_timeout_reconnect;
      Alcotest.test_case "shutdown vs checkpoint fetch race" `Quick
        test_shutdown_fetch_race;
      Alcotest.test_case "primary loss stage sweep" `Quick
        test_primary_loss_stage_sweep;
      Alcotest.test_case "election failover" `Quick test_election_failover;
      Alcotest.test_case "subscribe fencing" `Quick test_subscribe_fencing;
      Alcotest.test_case "dual promotion heals" `Quick
        test_dual_promotion_heals;
      Alcotest.test_case "divergent loser re-bootstraps (unsealed write)"
        `Quick (test_divergent_loser ~seal:false);
      Alcotest.test_case "divergent loser re-bootstraps (sealed write)" `Quick
        (test_divergent_loser ~seal:true);
      Alcotest.test_case "leading node rejoins a higher term" `Quick
        test_leading_node_rejoins;
      Alcotest.test_case "queued put at step-down never survives" `Quick
        test_queued_put_at_step_down;
      Alcotest.test_case "unconfirmed deposition keeps the leader" `Quick
        test_unconfirmed_deposition;
      Alcotest.test_case "floor-passed follower re-bootstraps" `Quick
        test_floor_passed_rebootstraps;
    ] )
