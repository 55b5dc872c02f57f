(* The network serving layer, end to end: Batch.submit semantics, an
   in-process server spoken to over a Unix socket (results matching a direct
   in-process run), and the adversarial case — a proxy flips one bit of a
   response and the client's signature check catches it. *)

module Net = Fastver_net

let initial_value = Fastver_workload.Ycsb.initial_value

let test_config =
  {
    Fastver.Config.default with
    n_workers = 2;
    batch_size = 64;
    cost_model = Cost_model.zero;
  }

let mk_system ?(config = test_config) ?(n = 256) () =
  let t = Fastver.create ~config () in
  Fastver.load t
    (Array.init n (fun i -> (Int64.of_int i, initial_value (Int64.of_int i))));
  t

(* ------------------------------------------------------------------ *)
(* Batch.submit                                                        *)
(* ------------------------------------------------------------------ *)

let auth_key = Fastver.Auth.key_of_secret Fastver.Config.default.mac_secret

let put_mac ~client ~nonce key value =
  Fastver.Auth.put_request auth_key ~client ~nonce (Key.of_int64 key)
    (Option.value value ~default:"")

let check_receipt ~kind ~client ~nonce (it : Fastver.Batch.item) =
  let expected =
    Fastver.Auth.receipt auth_key ~kind ~client ~nonce (Key.of_int64 it.ikey)
      it.ivalue ~epoch:it.iepoch
  in
  Alcotest.(check bool) "receipt MAC" true (Fastver.Auth.check ~expected it.imac)

let test_batch_submit () =
  let t = mk_system () in
  let client = 9 in
  let ops =
    [|
      Fastver.Batch.Get { client; nonce = 1L; key = 5L };
      Fastver.Batch.Put
        {
          client;
          nonce = 2L;
          mac = put_mac ~client ~nonce:2L 5L (Some "hello");
          key = 5L;
          value = Some "hello";
        };
      Fastver.Batch.Get { client; nonce = 3L; key = 5L };
      Fastver.Batch.Scan { client; nonce = 4L; start = 4L; len = 3 };
    |]
  in
  (match Fastver.Batch.submit t ops with
  | [| Got a; Put_done b; Got c; Scanned items |] ->
      Alcotest.(check (option string)) "initial get" (Some (initial_value 5L))
        a.ivalue;
      check_receipt ~kind:Fastver.Auth.Get ~client ~nonce:1L a;
      Alcotest.(check (option string)) "put echoes new value" (Some "hello")
        b.ivalue;
      check_receipt ~kind:Fastver.Auth.Put ~client ~nonce:2L b;
      Alcotest.(check (option string)) "get sees the put" (Some "hello")
        c.ivalue;
      check_receipt ~kind:Fastver.Auth.Get ~client ~nonce:3L c;
      Alcotest.(check int) "scan length" 3 (Array.length items);
      Array.iteri
        (fun i it ->
          Alcotest.(check int64) "scan key" (Int64.add 4L (Int64.of_int i))
            it.Fastver.Batch.ikey;
          check_receipt ~kind:Fastver.Auth.Get ~client ~nonce:4L it)
        items
  | _ -> Alcotest.fail "unexpected reply shapes");
  ignore (Fastver.verify t)

let test_batch_isolates_forgeries () =
  let t = mk_system () in
  let client = 3 in
  let good nonce key value =
    Fastver.Batch.Put
      { client; nonce; mac = put_mac ~client ~nonce key (Some value); key;
        value = Some value }
  in
  let ops =
    [|
      good 1L 10L "a";
      (* forged MAC: must fail alone, not poison the batch *)
      Fastver.Batch.Put
        { client; nonce = 2L; mac = String.make 16 'x'; key = 11L;
          value = Some "evil" };
      good 3L 12L "c";
      (* nonce replay: rejected by the gateway *)
      good 1L 13L "d";
      Fastver.Batch.Get { client; nonce = 4L; key = 10L };
    |]
  in
  (match Fastver.Batch.submit t ops with
  | [| Put_done _; Failed _; Put_done _; Failed _; Got g |] ->
      Alcotest.(check (option string)) "batch survived the forgery" (Some "a")
        g.ivalue
  | _ -> Alcotest.fail "expected [ok; failed; ok; failed; ok]");
  Alcotest.(check (option string)) "forged put not applied"
    (Some (initial_value 11L)) (Fastver.get t 11L);
  Alcotest.(check (option string)) "replayed put not applied"
    (Some (initial_value 13L)) (Fastver.get t 13L);
  (* the epoch still verifies: rejected ops left no trace *)
  ignore (Fastver.verify t)

(* ------------------------------------------------------------------ *)
(* Server + client over a Unix socket                                  *)
(* ------------------------------------------------------------------ *)

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "fastver-test-%d-%d.sock" (Unix.getpid ()) !sock_counter)

let with_server ?config ?n f =
  let t = mk_system ?config ?n () in
  let path = fresh_sock () in
  match Net.Server.create t ~listen:(Net.Addr.Unix_sock path) with
  | Error e -> Alcotest.fail e
  | Ok srv ->
      Net.Server.start srv;
      Fun.protect
        ~finally:(fun () -> Net.Server.stop srv)
        (fun () -> f t (Net.Addr.Unix_sock path))

let connect addr =
  match Net.Client.connect addr with
  | Ok c -> c
  | Error e -> Alcotest.fail e

let secret = Fastver.Config.default.mac_secret

let test_session_matches_direct () =
  with_server (fun _t addr ->
      let conn = connect addr in
      let s = Net.Client.open_session conn ~client:1 ~secret in
      (* reference model: what a direct in-process run would return *)
      let model = Hashtbl.create 256 in
      for i = 0 to 255 do
        Hashtbl.replace model (Int64.of_int i) (Some (initial_value (Int64.of_int i)))
      done;
      let model_get k =
        match Hashtbl.find_opt model k with Some v -> v | None -> None
      in
      let rng = Random.State.make [| 11 |] in
      for i = 0 to 299 do
        let k = Int64.of_int (Random.State.int rng 256) in
        match Random.State.int rng 4 with
        | 0 ->
            Alcotest.(check (option string)) "get" (model_get k)
              (Net.Client.get s k)
        | 1 ->
            let v = Printf.sprintf "v%d" i in
            Net.Client.put s k v;
            Hashtbl.replace model k (Some v)
        | 2 ->
            Net.Client.delete s k;
            Hashtbl.replace model k None
        | _ ->
            let start = Int64.of_int (Random.State.int rng 250) in
            let len = 1 + Random.State.int rng 5 in
            let items = Net.Client.scan s start len in
            Alcotest.(check int) "scan len" len (Array.length items);
            Array.iter
              (fun (k, v) ->
                Alcotest.(check (option string)) "scan item" (model_get k) v)
              items
      done;
      (* pipelining: a window of sends, then drain (verifying each) *)
      for i = 0 to 49 do
        ignore (Net.Client.send_get s (Int64.of_int (i mod 256)))
      done;
      Alcotest.(check int) "in flight" 50 (Net.Client.in_flight s);
      Net.Client.drain s;
      let epoch, _cert = Net.Client.verify_now s in
      Alcotest.(check bool) "epochs advanced" true (epoch > 0);
      Net.Client.close_session s;
      let st = Net.Client.stats conn in
      Alcotest.(check bool) "server counted ops" true (st.Net.Wire.ops > 300L);
      Net.Client.close conn)

let test_two_sessions () =
  with_server (fun _t addr ->
      let c1 = connect addr and c2 = connect addr in
      let s1 = Net.Client.open_session c1 ~client:1 ~secret
      and s2 = Net.Client.open_session c2 ~client:2 ~secret in
      Net.Client.put s1 7L "from-one";
      Alcotest.(check (option string)) "cross-session read" (Some "from-one")
        (Net.Client.get s2 7L);
      (* a second session may not steal a live client id *)
      (try
         ignore (Net.Client.open_session c2 ~client:1 ~secret);
         Alcotest.fail "duplicate client id accepted"
       with Net.Client.Server_error _ -> ());
      Net.Client.close_session s1;
      Net.Client.close_session s2;
      Net.Client.close c1;
      Net.Client.close c2)

(* ------------------------------------------------------------------ *)
(* Multi-domain stress: executor pool under concurrent clients         *)
(* ------------------------------------------------------------------ *)

(* Several client domains hammer a pooled server ([n_workers = 4], so the
   select loop dispatches to executor domains) with blocking ops, pipelined
   put->get windows on the same key, bursts, and scans. Each client owns a
   disjoint key range, so read-your-writes must hold exactly: a reordered
   reply, a lost same-key FIFO, or a put admitted out of nonce order all
   surface as a hard failure (receipt MACs are checked on every reply). *)
let test_multi_domain_stress () =
  let config = { test_config with n_workers = 4; batch_size = 512 } in
  with_server ~config (fun t addr ->
      let n_clients = 4 and keys_per_client = 64 and ops = 300 in
      let failures = Array.make n_clients None in
      let body idx () =
        try
          let cid = idx + 1 in
          let conn = connect addr in
          let s = Net.Client.open_session conn ~client:cid ~secret in
          let base = idx * keys_per_client in
          let rng = Random.State.make [| 42; cid |] in
          let model = Hashtbl.create 64 in
          let expect_of k =
            match Hashtbl.find_opt model k with
            | Some v -> v
            | None -> Some (initial_value k)
          in
          for i = 0 to ops - 1 do
            let k =
              Int64.of_int (base + Random.State.int rng keys_per_client)
            in
            match Random.State.int rng 5 with
            | 0 ->
                let got = Net.Client.get s k in
                if got <> expect_of k then
                  Printf.ksprintf failwith
                    "client %d key %Ld: lost read-your-writes" cid k
            | 1 ->
                let v = Printf.sprintf "c%d-%d" cid i in
                Net.Client.put s k v;
                Hashtbl.replace model k (Some v)
            | 2 -> (
                (* pipelined put;put;get on one key: same key -> same owner
                   queue, so the get must observe the second put *)
                let v1 = Printf.sprintf "c%d-%d-a" cid i in
                let v2 = Printf.sprintf "c%d-%d-b" cid i in
                ignore (Net.Client.send_put s k v1);
                ignore (Net.Client.send_put s k v2);
                ignore (Net.Client.send_get s k);
                (match Net.Client.await s with
                | _, Net.Client.Stored -> ()
                | _ -> failwith "bad reply kind for pipelined put");
                (match Net.Client.await s with
                | _, Net.Client.Stored -> ()
                | _ -> failwith "bad reply kind for pipelined put");
                match Net.Client.await s with
                | _, Net.Client.Value got ->
                    if got <> Some v2 then
                      Printf.ksprintf failwith
                        "client %d key %Ld: pipelined get saw %s, not the \
                         second put"
                        cid k
                        (Option.value got ~default:"<none>");
                    Hashtbl.replace model k (Some v2)
                | _ -> failwith "bad reply kind for pipelined get")
            | 3 ->
                (* a burst of pipelined gets: replies must come back in
                   request order even when executors finish out of order *)
                for j = 0 to 9 do
                  ignore
                    (Net.Client.send_get s
                       (Int64.of_int (base + ((i + j) mod keys_per_client))))
                done;
                Net.Client.drain s
            | _ ->
                (* scans quiesce the pool: they must observe every earlier
                   put of this client *)
                let start = base + Random.State.int rng (keys_per_client - 4) in
                let items = Net.Client.scan s (Int64.of_int start) 4 in
                Array.iter
                  (fun (k, v) ->
                    if v <> expect_of k then
                      Printf.ksprintf failwith
                        "client %d key %Ld: scan missed a put" cid k)
                  items
          done;
          ignore (Net.Client.verify_now s);
          Net.Client.close_session s;
          Net.Client.close conn
        with e -> failures.(idx) <- Some e
      in
      let domains =
        Array.init (n_clients - 1) (fun i -> Domain.spawn (body (i + 1)))
      in
      body 0 ();
      Array.iter Domain.join domains;
      Array.iteri
        (fun i -> function
          | Some e ->
              Alcotest.failf "client %d failed: %s" (i + 1)
                (Printexc.to_string e)
          | None -> ())
        failures;
      ignore (Fastver.verify t);
      Alcotest.(check bool) "verifier healthy" true
        (Fastver.verifier_failure t = None))

(* ------------------------------------------------------------------ *)
(* Background verification over the wire                               *)
(* ------------------------------------------------------------------ *)

(* With [background_verify] the Verify request no longer quiesces the
   executor pool: session A's verify_now blocks only its own connection
   while session B (on another connection) keeps being served. Across a few
   cycles the foreground must demonstrably progress during in-flight scans,
   every certificate must check out, and the pause histogram must have
   recorded one seal barrier per scan. *)
let test_background_verify_serves_foreground () =
  let config =
    {
      test_config with
      n_workers = 4;
      batch_size = 0;
      background_verify = true;
    }
  in
  with_server ~config (fun t addr ->
      let conn_a = connect addr and conn_b = connect addr in
      let s_a = Net.Client.open_session conn_a ~client:1 ~secret in
      let s_b = Net.Client.open_session conn_b ~client:2 ~secret in
      let cycles = 8 in
      let in_verify = Atomic.make false in
      let overlap = Atomic.make 0 in
      let fail_b = Atomic.make None in
      let stop_b = Atomic.make false in
      let b_driver =
        Domain.spawn (fun () ->
            try
              let i = ref 0 in
              while not (Atomic.get stop_b) do
                incr i;
                Net.Client.put s_b
                  (Int64.of_int (128 + (!i mod 64)))
                  (Printf.sprintf "b%d" !i);
                if Atomic.get in_verify then Atomic.incr overlap
              done
            with e -> Atomic.set fail_b (Some e))
      in
      let epochs = ref [] in
      for i = 0 to cycles - 1 do
        for j = 0 to 63 do
          Net.Client.put s_a (Int64.of_int j) (Printf.sprintf "a%d-%d" i j)
        done;
        Atomic.set in_verify true;
        let epoch, _cert = Net.Client.verify_now s_a in
        Atomic.set in_verify false;
        epochs := epoch :: !epochs
      done;
      Atomic.set stop_b true;
      Domain.join b_driver;
      (match Atomic.get fail_b with
      | Some e ->
          Alcotest.failf "foreground client failed: %s" (Printexc.to_string e)
      | None -> ());
      (* consecutive scans sealed consecutive epochs *)
      (match List.rev !epochs with
      | e0 :: rest ->
          ignore
            (List.fold_left
               (fun prev e ->
                 Alcotest.(check int) "consecutive sealed epochs" (prev + 1) e;
                 e)
               e0 rest)
      | [] -> Alcotest.fail "no scans ran");
      Alcotest.(check bool) "foreground served during in-flight scans" true
        (Atomic.get overlap > 0);
      (* the pause histogram saw one seal barrier per scan *)
      let dump = Fastver_obs.Registry.dump (Fastver.registry t) in
      (match
         List.find_opt
           (fun (n, _, _) -> n = "fastver_verify_pause_seconds")
           dump
       with
      | Some (_, _, Fastver_obs.Registry.Histogram_v (snap, _)) ->
          Alcotest.(check bool) "pause recorded per scan" true
            (snap.Fastver_obs.Histogram.count >= cycles)
      | _ -> Alcotest.fail "fastver_verify_pause_seconds missing");
      Net.Client.close_session s_a;
      Net.Client.close_session s_b;
      Net.Client.close conn_a;
      Net.Client.close conn_b;
      Fastver.wait_verify t;
      ignore (Fastver.verify t))

(* ------------------------------------------------------------------ *)
(* Executor-pool robustness: stalls and shutdown races                 *)
(* ------------------------------------------------------------------ *)

(* A stalled executor must not busy-spin the I/O domain. Hold worker 0's
   lock so its executor blocks mid-job, keep a request for it outstanding,
   and serve light traffic on the other worker: everything else stays
   live, and process CPU over the stall window stays far below the window
   itself (a spinning select loop would burn a full core). *)
let test_stalled_executor_no_spin () =
  let config = { test_config with n_workers = 2; batch_size = 0 } in
  with_server ~config (fun t addr ->
      let key_of owner =
        let rec go k =
          if Fastver.owner_of_key t k = owner then k else go (Int64.add k 1L)
        in
        go 0L
      in
      let k0 = key_of 0 and k1 = key_of 1 in
      let conn_a = connect addr and conn_b = connect addr in
      let s_a = Net.Client.open_session conn_a ~client:1 ~secret in
      let s_b = Net.Client.open_session conn_b ~client:2 ~secret in
      Net.Client.put s_b k1 "warm";
      (* deferred-tier both keys: the op parked on the held worker lock
         must be a fast-path one, holding no lock other workers need *)
      Net.Client.put s_a k0 "warm";
      let lock = Mutex.create () and cond = Condition.create () in
      let release = ref false in
      let stalled = Atomic.make false in
      let blocker =
        Domain.spawn (fun () ->
            Fastver.Testing.with_worker_lock t 0 (fun () ->
                Atomic.set stalled true;
                Mutex.lock lock;
                while not !release do
                  Condition.wait cond lock
                done;
                Mutex.unlock lock))
      in
      while not (Atomic.get stalled) do
        Domain.cpu_relax ()
      done;
      (* this put parks worker 0's executor on the held lock *)
      ignore (Net.Client.send_put s_a k0 "stalled");
      Unix.sleepf 0.05;
      let cpu_of (tm : Unix.process_times) = tm.tms_utime +. tm.tms_stime in
      let cpu0 = cpu_of (Unix.times ()) in
      let wall0 = Unix.gettimeofday () in
      let served = ref 0 in
      while Unix.gettimeofday () -. wall0 < 0.4 do
        Alcotest.(check (option string)) "healthy worker still serves"
          (Some "warm") (Net.Client.get s_b k1);
        incr served;
        Unix.sleepf 0.01
      done;
      let cpu = cpu_of (Unix.times ()) -. cpu0 in
      Alcotest.(check bool) "other partition stayed live" true (!served > 10);
      Alcotest.(check bool)
        (Printf.sprintf "I/O domain slept during the stall (%.3fs cpu)" cpu)
        true (cpu < 0.25);
      (* release: the parked job completes and its reply arrives *)
      Mutex.lock lock;
      release := true;
      Condition.broadcast cond;
      Mutex.unlock lock;
      Domain.join blocker;
      (match Net.Client.await s_a with
      | _, Net.Client.Stored -> ()
      | _ -> Alcotest.fail "stalled put did not complete");
      Alcotest.(check (option string)) "stalled put applied" (Some "stalled")
        (Net.Client.get s_a k0);
      Net.Client.close_session s_a;
      Net.Client.close_session s_b;
      Net.Client.close conn_a;
      Net.Client.close conn_b)

(* Shutdown racing live dispatch: stop the server while a client hammers
   it. The closed executor queues must fail in-flight jobs gracefully
   ([Bounded_queue.push] answering false — never an exception), [stop] must
   return (no hung barrier, no unjoined domain), and the client sees
   either normal replies or a clean error/EOF. *)
let test_stop_under_load () =
  let config = { test_config with n_workers = 2; batch_size = 0 } in
  let t = mk_system ~config () in
  let path = fresh_sock () in
  match Net.Server.create t ~listen:(Net.Addr.Unix_sock path) with
  | Error e -> Alcotest.fail e
  | Ok srv ->
      Net.Server.start srv;
      let stop_client = Atomic.make false in
      let client =
        Domain.spawn (fun () ->
            try
              let conn = connect (Net.Addr.Unix_sock path) in
              let s = Net.Client.open_session conn ~client:1 ~secret in
              (try
                 let i = ref 0 in
                 while not (Atomic.get stop_client) do
                   incr i;
                   if !i mod 2 = 0 then
                     ignore (Net.Client.get s (Int64.of_int (!i mod 256)))
                   else
                     Net.Client.put s
                       (Int64.of_int (!i mod 256))
                       (Printf.sprintf "s%d" !i)
                 done
               with
              | Net.Client.Server_error _ | End_of_file
              | Unix.Unix_error _ | Failure _ ->
                  (* shutdown may sever mid-request; that is the point *)
                  ());
              try Net.Client.close conn with _ -> ()
            with _ -> ())
      in
      Unix.sleepf 0.15;
      Net.Server.stop srv;
      Atomic.set stop_client true;
      Domain.join client

(* ------------------------------------------------------------------ *)
(* Metrics reconcile with ground truth                                 *)
(* ------------------------------------------------------------------ *)

module Reg = Fastver_obs.Registry

let test_metrics_reconcile () =
  with_server (fun t addr ->
      let conn = connect addr in
      let s = Net.Client.open_session conn ~client:1 ~secret in
      let n_puts = 60 and n_gets = 120 and scan_len = 5 in
      for i = 0 to n_puts - 1 do
        Net.Client.put s (Int64.of_int (i mod 256)) (Printf.sprintf "m%d" i)
      done;
      for i = 0 to n_gets - 1 do
        ignore (Net.Client.get s (Int64.of_int (i mod 256)))
      done;
      ignore (Net.Client.scan s 10L scan_len);
      (* drain returned every response, so the server has fully accounted
         for everything submitted — the registry is quiescent now *)
      let dump = Reg.dump (Fastver.registry t) in
      let counter ?(labels = []) name =
        match
          List.find_opt (fun (n, l, _) -> n = name && l = labels) dump
        with
        | Some (_, _, Reg.Counter_v v) -> v
        | _ -> Alcotest.failf "counter %s missing from registry" name
      in
      let hist name =
        match
          List.find_opt (fun (n, l, _) -> n = name && l = []) dump
        with
        | Some (_, _, Reg.Histogram_v (snap, _)) -> snap
        | _ -> Alcotest.failf "histogram %s missing from registry" name
      in
      let tier l = counter ~labels:[ ("tier", l) ] "fastver_ops_total" in
      let by_tier = tier "blum" + tier "merkle" + tier "cached" in
      let gets = counter "fastver_gets_total"
      and puts = counter "fastver_puts_total" in
      (* every submitted elementary op is attributed to exactly one tier *)
      Alcotest.(check int) "tier attribution sums to validated ops"
        (gets + puts) by_tier;
      Alcotest.(check int) "elementary ops as submitted"
        (n_puts + n_gets + scan_len) by_tier;
      Alcotest.(check int) "scan expansion lands in gets" (n_gets + scan_len)
        gets;
      Alcotest.(check int) "puts as submitted" n_puts puts;
      Alcotest.(check int) "one scan" 1 (counter "fastver_scans_total");
      (* every emitted response left exactly one latency sample *)
      let served = counter "fastver_net_requests_total" in
      let lat = hist "fastver_request_seconds" in
      Alcotest.(check int) "latency histogram count = served requests" served
        lat.Fastver_obs.Histogram.count;
      Alcotest.(check bool) "requests were served" true (served > 0);
      (* the same snapshot is reachable over the wire, in both formats *)
      let json = Net.Client.metrics conn ~format:Net.Wire.Json in
      let contains hay needle =
        let n = String.length needle and l = String.length hay in
        let rec go i = i + n <= l && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "wire JSON carries the served counter" true
        (contains json
           (Printf.sprintf
              "{\"name\":\"fastver_net_requests_total\",\"labels\":{},\"value\":%d}"
              served));
      let prom = Net.Client.metrics conn ~format:Net.Wire.Prometheus in
      Alcotest.(check bool) "wire Prometheus carries the latency summary" true
        (contains prom "fastver_request_seconds_count ");
      Net.Client.close_session s;
      Net.Client.close conn)

(* ------------------------------------------------------------------ *)
(* Backpressure and the descriptor ceiling                             *)
(* ------------------------------------------------------------------ *)

let reg_counter reg name =
  match List.find_opt (fun (n, l, _) -> n = name && l = []) (Reg.dump reg) with
  | Some (_, _, Reg.Counter_v v) -> v
  | _ -> Alcotest.failf "counter %s missing from registry" name

let counter_value t name = reg_counter (Fastver.registry t) name

let sockaddr addr =
  match Net.Addr.to_sockaddr addr with
  | Ok a -> a
  | Error e -> Alcotest.fail e

(* A [Stats] round trip with a deadline: a server whose loop died leaves
   the request unanswered, which must fail the test, not hang it. *)
let answers conn =
  let id = Net.Client.send conn Net.Wire.Stats in
  match Net.Client.recv ~timeout:5.0 conn with
  | id', Net.Wire.Stats_reply _ -> Int64.equal id id'
  | _ -> false
  | exception Net.Client.Timeout -> false

(* A client that pipelines gets and never reads a response: the server
   stops reading it once its unsent replies reach the per-connection
   bound, so its requests stop entering the pending queue (its own writes
   block instead), while a second client keeps being served. *)
let test_backpressure () =
  with_server (fun t addr ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (sockaddr addr);
      Net.Sockio.send_all fd
        (Net.Wire.encode_request ~id:0L (Net.Wire.Open_session { client = 7 }));
      Unix.set_nonblock fd;
      (* write pipelined gets until the server has not taken a byte for
         0.3 s; a server that never pushes back fails the cap *)
      let sent = ref 0 and frame = ref "" and off = ref 0 in
      let stalled_since = ref None in
      while
        match !stalled_since with
        | Some since -> Unix.gettimeofday () -. since < 0.3
        | None -> true
      do
        if !off = String.length !frame then begin
          incr sent;
          if !sent > 2_000_000 then Alcotest.fail "the server never pushed back";
          let nonce = Int64.of_int !sent in
          frame :=
            Net.Wire.encode_request ~id:nonce
              (Net.Wire.Get { key = Int64.of_int (!sent mod 256); nonce });
          off := 0
        end;
        match Unix.write_substring fd !frame !off (String.length !frame - !off) with
        | n ->
            off := !off + n;
            stalled_since := None
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            if !stalled_since = None then
              stalled_since := Some (Unix.gettimeofday ());
            Unix.sleepf 0.01
      done;
      let served = counter_value t "fastver_net_requests_total" in
      Alcotest.(check bool)
        (Printf.sprintf "pushed back after %d requests, %d answered" !sent
           served)
        true
        (served > 0 && served < !sent);
      (* the second client is served while the first stays blocked *)
      let conn = connect addr in
      let s = Net.Client.open_session conn ~client:8 ~secret in
      for i = 0 to 49 do
        Alcotest.(check (option string)) "second client served"
          (Some (initial_value (Int64.of_int i)))
          (Net.Client.get s (Int64.of_int i))
      done;
      Alcotest.(check int) "the blocked client was not read further"
        (served + 51)
        (counter_value t "fastver_net_requests_total");
      Net.Client.close conn;
      Unix.close fd)

(* Unix.select cannot hold a descriptor at or above FD_SETSIZE (1024):
   with 1,100 connections open, this process's descriptors cross it. The
   loop must refuse those connections at accept and keep serving — an
   early client, and a new one once the excess is gone. *)
let test_fd_ceiling () =
  with_server (fun t addr ->
      let early = connect addr in
      Alcotest.(check bool) "early client served" true (answers early);
      let sa = sockaddr addr in
      let deadline = Unix.gettimeofday () +. 30.0 in
      (* non-blocking connects: a listener whose loop died fills its
         backlog, and EAGAIN past the deadline fails instead of hanging *)
      let rec open_one () =
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.set_nonblock fd;
        match Unix.connect fd sa with
        | () -> fd
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            Unix.close fd;
            if Unix.gettimeofday () > deadline then
              Alcotest.fail "the server stopped accepting connections";
            Unix.sleepf 0.001;
            open_one ()
      in
      let flood = List.init 1100 (fun _ -> open_one ()) in
      let refused () =
        counter_value t "fastver_net_connections_refused_total"
      in
      while
        counter_value t "fastver_net_connections_total" + refused () < 1101
      do
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "the server stopped accepting connections";
        Unix.sleepf 0.01
      done;
      Alcotest.(check bool) "early client still served" true (answers early);
      Alcotest.(check bool) "connections above the ceiling refused" true
        (refused () > 0);
      List.iter Unix.close flood;
      let late = connect addr in
      Alcotest.(check bool) "new client served after the excess closed" true
        (answers late);
      Net.Client.close late;
      Net.Client.close early)

(* Set in the child that {!test_emfile_backoff} starts; the test
   executable then runs {!emfile_child} instead of the suites. *)
let emfile_child_env = "FASTVER_TEST_EMFILE_CHILD"

(* The child's half, under [ulimit -n 64]: a bare reactor whose [pass]
   counts loop passes, and a client that connects after every other
   descriptor is taken, so the listener stays readable while accept fails
   with EMFILE. Over half a second the loop may pass only a bounded number
   of times and must count the pause; once the descriptors are released
   the queued client must get its reply. Exits 0 on success. *)
let emfile_child () =
  let path = fresh_sock () in
  let reg = Reg.create () in
  match Net.Reactor.listen reg (Net.Addr.Unix_sock path) with
  | Error e ->
      prerr_endline e;
      exit 2
  | Ok r ->
      let passes = Atomic.make 0 in
      let handlers =
        {
          Net.Reactor.accept = (fun () -> ());
          input =
            (fun c -> function
              | Ok _ ->
                  Net.Reactor.send c
                    (Net.Wire.encode_response ~id:1L (Net.Wire.Error "served"))
              | Error _ -> ());
          wants_input = (fun _ -> true);
          settled = (fun _ -> true);
          pass = (fun () -> Atomic.incr passes);
          deadline = (fun () -> None);
          closed = (fun _ -> ());
        }
      in
      let loop = Domain.spawn (fun () -> Net.Reactor.run r handlers) in
      let rec hog acc =
        match Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 with
        | fd -> hog (fd :: acc)
        | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) -> acc
      in
      let held =
        match hog [] with
        | spare :: rest ->
            Unix.close spare;
            rest
        | [] -> exit 2
      in
      let client = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect client (Unix.ADDR_UNIX path);
      Net.Sockio.send_all client (Net.Wire.encode_request ~id:1L Net.Wire.Stats);
      let before = Atomic.get passes in
      Unix.sleepf 0.5;
      let spun = Atomic.get passes - before in
      List.iter Unix.close held;
      let served =
        match Unix.select [ client ] [] [] 5.0 with
        | [], _, _ -> false
        | _ -> Unix.read client (Bytes.create 256) 0 256 > 0
      in
      ignore (Net.Reactor.stop r);
      Domain.join loop;
      Net.Reactor.shutdown r;
      Unix.close client;
      let pauses = reg_counter reg "fastver_net_accept_pauses_total" in
      Printf.printf
        "passes while out of descriptors: %d; accept pauses: %d; client \
         served: %b\n"
        spun pauses served;
      exit (if spun <= 50 && pauses >= 1 && served then 0 else 1)

(* accept failing with EMFILE leaves the listener readable: a loop that
   keeps polling it spins at full CPU until a descriptor frees up. The
   scenario runs in a child under its own descriptor limit, so it does
   not depend on the host's. *)
let test_emfile_backoff () =
  let cmd =
    Printf.sprintf "ulimit -n 64; %s=1 exec %s" emfile_child_env
      (Filename.quote Sys.executable_name)
  in
  Alcotest.(check int) "child exits 0" 0 (Sys.command cmd)

(* ------------------------------------------------------------------ *)
(* Tampering on the wire                                               *)
(* ------------------------------------------------------------------ *)

(* A frame-aware person-in-the-middle: forwards both directions verbatim,
   except that [tamper] may rewrite one response payload (it is applied
   until it first returns [Some]). *)
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
      let forward_response payload =
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
                       forward_response payload;
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

(* Flip one byte of the first Got response (tag 0x83) at [index] — counted
   from the end when negative, so [-1] is the receipt MAC's last byte. *)
let flip_got_byte index payload =
  if String.length payload <= Net.Wire.header_len
     || Char.code payload.[3] <> 0x83
  then None
  else begin
    let b = Bytes.of_string payload in
    let i = if index < 0 then Bytes.length b + index else index in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    Some (Bytes.to_string b)
  end

let test_tampered_response_detected () =
  with_server (fun _t addr ->
      let proxy_path = fresh_sock () in
      let proxy =
        start_proxy ~listen_path:proxy_path ~server_addr:addr
          ~tamper:(flip_got_byte (-1))
      in
      let conn = connect (Net.Addr.Unix_sock proxy_path) in
      let s = Net.Client.open_session conn ~client:1 ~secret in
      (* puts pass through untouched... *)
      Net.Client.put s 3L "real";
      (* ...then the proxy corrupts the first Got response *)
      (try
         let v = Net.Client.get s 3L in
         Alcotest.fail
           (Printf.sprintf "tampered response accepted: %s"
              (Option.value v ~default:"<none>"))
       with Fastver.Integrity_violation _ -> ());
      Net.Client.close conn;
      Domain.join proxy;
      try Sys.remove proxy_path with Sys_error _ -> ())

(* Without signatures (auth off server-side, checking off client-side) the
   same kind of flip sails through: it is the MAC that detects tampering,
   not the framing. Flipping the first value byte turns "real" into "seal"
   and nobody notices. *)
let test_tamper_needs_verification () =
  let config = { test_config with authenticate_clients = false } in
  with_server ~config (fun _t addr ->
      let proxy_path = fresh_sock () in
      (* value bytes of a Got payload start after header, nonce, key,
         epoch, present byte and u32 length *)
      let value_off = Net.Wire.header_len + 8 + 8 + 4 + 1 + 4 in
      let proxy =
        start_proxy ~listen_path:proxy_path ~server_addr:addr
          ~tamper:(flip_got_byte value_off)
      in
      let conn = connect (Net.Addr.Unix_sock proxy_path) in
      let s = Net.Client.open_session ~verify:false conn ~client:1 ~secret in
      Net.Client.put s 3L "real";
      Alcotest.(check (option string)) "flip invisible without signatures"
        (Some "seal") (Net.Client.get s 3L);
      Net.Client.close conn;
      Domain.join proxy;
      try Sys.remove proxy_path with Sys_error _ -> ())

let suite =
  ( "net",
    [
      Alcotest.test_case "batch submit" `Quick test_batch_submit;
      Alcotest.test_case "batch isolates forgeries" `Quick
        test_batch_isolates_forgeries;
      Alcotest.test_case "session matches direct run" `Quick
        test_session_matches_direct;
      Alcotest.test_case "two sessions" `Quick test_two_sessions;
      Alcotest.test_case "multi-domain stress" `Slow test_multi_domain_stress;
      Alcotest.test_case "background verify serves foreground" `Slow
        test_background_verify_serves_foreground;
      Alcotest.test_case "stalled executor does not spin" `Slow
        test_stalled_executor_no_spin;
      Alcotest.test_case "stop under load" `Quick test_stop_under_load;
      Alcotest.test_case "metrics reconcile with ground truth" `Quick
        test_metrics_reconcile;
      Alcotest.test_case "backpressure bounds a non-reading client" `Quick
        test_backpressure;
      Alcotest.test_case "descriptor ceiling refuses, loop survives" `Quick
        test_fd_ceiling;
      Alcotest.test_case "descriptor exhaustion backs off accept" `Quick
        test_emfile_backoff;
      Alcotest.test_case "tampered response detected" `Quick
        test_tampered_response_detected;
      Alcotest.test_case "tamper needs verification" `Quick
        test_tamper_needs_verification;
    ] )
