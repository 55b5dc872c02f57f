let src = Logs.Src.create "fastver.net.server" ~doc:"FastVer serving loop"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  batch_limit : int;
  queue_limit : int;
  conn_out_limit : int;
  max_frame : int;
  max_scan_len : int;
  read_only : bool;
      (* replication follower mode: refuse puts, and answer [Verify] from
         the already-verified epoch instead of running a scan (a follower's
         epochs are sealed by the primary's stream, never locally) *)
}

let default_config =
  {
    batch_limit = 256;
    queue_limit = 1024;
    conn_out_limit = 4 * 1024 * 1024;
    max_frame = Wire.max_frame;
    max_scan_len = 65536;
    read_only = false;
  }

type counters = {
  accepted : int;
  served : int;
  batches : int;
  max_batch : int;
  proto_errors : int;
  op_failures : int;
}

(* Live counters ride the system's metric registry as [Atomic.t]s: they are
   mutated in the server's domain and read from callers' threads (tests,
   the CLI), which plain [mutable int]s cannot do soundly. *)
type metrics = {
  m_accepted : Fastver_obs.Counter.t;
  m_served : Fastver_obs.Counter.t;
  m_batches : Fastver_obs.Counter.t;
  m_proto_errors : Fastver_obs.Counter.t;
  m_op_failures : Fastver_obs.Counter.t;
  m_lost_wakeups : Fastver_obs.Counter.t;
  m_batch_requests : Fastver_obs.Histogram.t;
  m_request_seconds : Fastver_obs.Histogram.t;
}

let make_metrics sys =
  let module Reg = Fastver_obs.Registry in
  let reg = Fastver.registry sys in
  {
    m_accepted =
      Reg.counter reg ~help:"Connections accepted"
        "fastver_net_connections_total";
    m_served =
      Reg.counter reg ~help:"Requests answered (including errors)"
        "fastver_net_requests_total";
    m_batches =
      Reg.counter reg ~help:"Worker-loop drains" "fastver_net_batches_total";
    m_proto_errors =
      Reg.counter reg ~help:"Malformed frames or requests"
        "fastver_net_proto_errors_total";
    m_op_failures =
      Reg.counter reg ~help:"Operations answered with an error"
        "fastver_net_op_failures_total";
    m_lost_wakeups =
      Reg.counter reg
        ~help:
          "Select-loop wake-up writes that failed for a reason other than \
           a full pipe or an orderly shutdown"
        "fastver_net_lost_wakeups_total";
    m_batch_requests =
      Reg.histogram reg ~help:"Requests per worker-loop drain"
        "fastver_net_batch_requests";
    m_request_seconds =
      Reg.histogram reg ~scale:1e-9
        ~help:"End-to-end request latency (decode to response enqueue)"
        "fastver_request_seconds";
  }

type conn = {
  fd : Unix.file_descr;
  reader : Frame.reader;
  outq : string Queue.t;
  slots : (int64 * float * Wire.response option Atomic.t) Queue.t;
      (* (id, arrival, reply slot) in request order: responses — filled by
         executor domains or inline — are emitted strictly from the head,
         so per-connection reply order survives parallel execution *)
  enc : Buffer.t; (* reused encode buffer (one frame string per response) *)
  mutable out_off : int; (* written prefix of the head of [outq] *)
  mutable out_bytes : int; (* total queued output *)
  mutable client : int option;
  mutable closing : bool; (* close once output drains *)
  mutable dead : bool; (* close now, discard output *)
}

(* One executor batch: data operations for a single owning worker, run
   through [Fastver.Batch.submit] off the I/O domain, as (wire nonce, op,
   reply slot) triples. Executors never see a [conn] or an fd — they only
   fill the reply slots. *)
type job = (int64 * Fastver.Batch.op * Wire.response option Atomic.t) array

(* Executor pool (active when the system has more than one shard): one
   domain per verifier shard, fed over a bounded queue each. Routing jobs
   by key owner keeps every shard's locks, tree and verification-log buffer
   touched from one executor at a time, and the per-owner FIFO makes
   operations on the same key execute in arrival order (same key -> same
   shard -> same queue). Cross-shard requests (scans, verify, admin)
   quiesce the pool first. *)
type pool = {
  n_execs : int;
  queues : job Fastver.Bounded_queue.t array; (* one SPSC queue per executor *)
  mutable execs : unit Domain.t array;
  in_flight : int Atomic.t; (* jobs pushed but not yet completed *)
  idle_lock : Mutex.t;
  idle_cond : Condition.t; (* signalled when [in_flight] drops to 0 *)
  wake_r : Unix.file_descr; (* executor completion -> select wake-up *)
  wake_w : Unix.file_descr;
}

type t = {
  sys : Fastver.t;
  cfg : config;
  read_only : bool Atomic.t;
      (* starts as cfg.read_only; election promotion flips it off on a live
         follower (and demotion flips it back) without restarting the loop *)
  listener : Unix.file_descr;
  addr : Addr.t;
  pending : (conn * int64 * Wire.request * float) Queue.t;
      (* (conn, id, request, arrival time) — the timestamp feeds the
         end-to-end latency histogram when the response is enqueued *)
  mutable conns : conn list;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  vwake_r : Unix.file_descr;
      (* background-verification completion -> select wake-up: the
         [Fastver.verify_async] callback runs on the scan domain, where
         filling a reply slot alone would leave the response sitting until
         unrelated traffic re-entered the event loop *)
  vwake_w : Unix.file_descr;
  stopping : bool Atomic.t;
  mutable domain : unit Domain.t option;
  metrics : metrics;
  clients_in_use : (int, conn) Hashtbl.t;
  scratch : Bytes.t;
  pool : pool option;
}

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let create ?(config = default_config) sys ~listen =
  (* A client that disconnects with a server write still pending would
     otherwise deliver a fatal SIGPIPE to the whole process. Ignore it so
     the failure surfaces as EPIPE, which the per-connection write path
     turns into [conn.dead]. *)
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Addr.to_sockaddr listen with
  | Error e -> Error e
  | Ok sockaddr -> (
      let fd = Unix.socket (Addr.domain listen) Unix.SOCK_STREAM 0 in
      match
        (match listen with
        | Addr.Unix_sock path ->
            if Sys.file_exists path then Unix.unlink path
        | Addr.Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
        Unix.bind fd sockaddr;
        Unix.listen fd 128;
        Unix.set_nonblock fd
      with
      | () ->
          let addr =
            (* read the effective address back (supports tcp port 0) *)
            match (listen, Unix.getsockname fd) with
            | Addr.Tcp (host, _), Unix.ADDR_INET (_, port) ->
                Addr.Tcp (host, port)
            | a, _ -> a
          in
          let stop_r, stop_w = Unix.pipe ~cloexec:true () in
          Unix.set_nonblock stop_r;
          let vwake_r, vwake_w = Unix.pipe ~cloexec:true () in
          Unix.set_nonblock vwake_r;
          Unix.set_nonblock vwake_w;
          let pool =
            (* One executor per verifier shard: batches are grouped by
               {!Fastver.owner_of_key}, which names shards, so the queue
               array must cover every shard id even when shards exceed
               workers. *)
            let n = Fastver.n_shards sys in
            if n <= 1 then None
            else begin
              let wake_r, wake_w = Unix.pipe ~cloexec:true () in
              Unix.set_nonblock wake_r;
              Unix.set_nonblock wake_w;
              Some
                {
                  n_execs = n;
                  queues =
                    Array.init n (fun _ -> Fastver.Bounded_queue.create 8);
                  execs = [||];
                  in_flight = Atomic.make 0;
                  idle_lock = Mutex.create ();
                  idle_cond = Condition.create ();
                  wake_r;
                  wake_w;
                }
            end
          in
          Ok
            {
              sys;
              cfg = config;
              read_only = Atomic.make config.read_only;
              listener = fd;
              addr;
              pending = Queue.create ();
              conns = [];
              stop_r;
              stop_w;
              vwake_r;
              vwake_w;
              stopping = Atomic.make false;
              domain = None;
              metrics = make_metrics sys;
              clients_in_use = Hashtbl.create 16;
              scratch = Bytes.create 65536;
              pool;
            }
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error
            (Printf.sprintf "cannot listen on %s: %s" (Addr.to_string listen)
               (Unix.error_message e)))

let bound_addr t = t.addr
let read_only t = Atomic.get t.read_only
let set_read_only t v = Atomic.set t.read_only v

let counters t =
  let module C = Fastver_obs.Counter in
  let batch = Fastver_obs.Histogram.snapshot t.metrics.m_batch_requests in
  {
    accepted = C.get t.metrics.m_accepted;
    served = C.get t.metrics.m_served;
    batches = C.get t.metrics.m_batches;
    max_batch = batch.Fastver_obs.Histogram.max;
    proto_errors = C.get t.metrics.m_proto_errors;
    op_failures = C.get t.metrics.m_op_failures;
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

(* Emit the filled prefix of the reply-slot queue. Slots behind an
   operation still running on an executor stay queued, so responses leave
   in request order even when later operations finished first. *)
let emit_ready t conn =
  if not conn.dead then begin
    let continue = ref true in
    while !continue && not (Queue.is_empty conn.slots) do
      let _, _, slot = Queue.peek conn.slots in
      match Atomic.get slot with
      | None -> continue := false
      | Some resp ->
          let id, arrived, _ = Queue.pop conn.slots in
          let s = Wire.encode_response_into conn.enc ~id resp in
          Queue.push s conn.outq;
          conn.out_bytes <- conn.out_bytes + String.length s;
          Fastver_obs.Counter.incr t.metrics.m_served;
          Fastver_obs.Histogram.record_span t.metrics.m_request_seconds
            (Unix.gettimeofday () -. arrived)
    done
  end

(* Queue an already-computed response at this request's position. *)
let post t conn id ~arrived resp =
  if not conn.dead then begin
    Queue.push (id, arrived, Atomic.make (Some resp)) conn.slots;
    emit_ready t conn
  end

let flush_output conn =
  try
    let continue = ref true in
    while !continue && not (Queue.is_empty conn.outq) do
      let head = Queue.peek conn.outq in
      match Sockio.write_sub conn.fd head conn.out_off with
      | `Again -> continue := false
      | `Wrote n ->
          conn.out_off <- conn.out_off + n;
          conn.out_bytes <- conn.out_bytes - n;
          if conn.out_off = String.length head then begin
            ignore (Queue.pop conn.outq);
            conn.out_off <- 0
          end
    done
  with Unix.Unix_error _ -> conn.dead <- true

(* ------------------------------------------------------------------ *)
(* Request processing                                                  *)
(* ------------------------------------------------------------------ *)

let item_of (b : Fastver.Batch.item) : Wire.item =
  { key = b.ikey; value = b.ivalue; epoch = b.iepoch; mac = b.imac }

let stats_reply t =
  let s = Fastver.stats t.sys in
  let i = Int64.of_int in
  Wire.Stats_reply
    {
      ops = i s.ops;
      gets = i s.gets;
      puts = i s.puts;
      scans = i s.scans;
      verifies = i s.verifies;
      fast_path = i s.blum_fast_path;
      merkle_path = i s.merkle_path;
      epoch = i (Fastver.current_epoch t.sys);
    }

(* Classify a request: [`Data] ops accumulate into the next worker-loop
   drain; [`Admin] ops run inline at their position so per-connection
   ordering is exact. *)
let classify t conn req =
  let auth = (Fastver.config t.sys).authenticate_clients in
  let client () =
    match conn.client with
    | Some c -> Ok c
    | None -> if auth then Error "no open session" else Ok 0
  in
  match (req : Wire.request) with
  | Wire.Get { key; nonce } -> (
      match client () with
      | Error e -> `Err e
      | Ok client -> `Data (Fastver.Batch.Get { client; nonce; key }))
  | Wire.Put { key; nonce; mac; value } -> (
      if Atomic.get t.read_only then
        `Err "read-only follower: puts go to the primary"
      else
        match client () with
        | Error e -> `Err e
        | Ok client ->
            `Data (Fastver.Batch.Put { client; nonce; mac; key; value }))
  | Wire.Scan { start; len; nonce } -> (
      if len < 0 || len > t.cfg.max_scan_len then `Err "scan length out of range"
      else
        match client () with
        | Error e -> `Err e
        | Ok client -> `Data (Fastver.Batch.Scan { client; nonce; start; len }))
  | Wire.Open_session { client } ->
      `Admin
        (fun conn ->
          match (conn.client, Hashtbl.find_opt t.clients_in_use client) with
          | Some _, _ -> Wire.Error "session already open on this connection"
          | None, Some other when other != conn ->
              Wire.Error "client id already in use"
          | None, _ ->
              conn.client <- Some client;
              Hashtbl.replace t.clients_in_use client conn;
              Wire.Session_opened { client })
  | Wire.Close_session ->
      `Admin
        (fun conn ->
          (match conn.client with
          | Some c -> Hashtbl.remove t.clients_in_use c
          | None -> ());
          conn.client <- None;
          Wire.Session_closed)
  | Wire.Verify ->
      if Atomic.get t.read_only then
        (* A follower never seals epochs itself — its verified epoch only
           advances when the primary's boundary certificate authenticates.
           Re-sign the certificate for the epoch we already hold so the
           client's [verify_now] check works unchanged. *)
        `Admin
          (fun _conn ->
            let epoch = Fastver.verified_epoch t.sys in
            if epoch < 0 then Wire.Error "read-only follower: no epoch verified yet"
            else
              let cert =
                Fastver_crypto.Hmac.mac
                  ~key:(Fastver.config t.sys).mac_secret
                  (Fastver_verifier.Verifier.epoch_certificate_message ~epoch)
              in
              Wire.Verified { epoch; cert })
      else if (Fastver.config t.sys).background_verify then
        (* No quiesce, no blocking the I/O domain: the scan runs on a
           background domain and the reply slot is filled from its
           completion callback (see [`Verify] in [drain]). *)
        `Verify
      else
        `Admin
          (fun _conn ->
            let epoch = Fastver.current_epoch t.sys in
            match Fastver.verify t.sys with
            | cert -> Wire.Verified { epoch; cert }
            | exception Fastver.Integrity_violation e ->
                Wire.Error ("integrity: " ^ e))
  | Wire.Stats -> `Admin (fun _conn -> stats_reply t)
  | Wire.Metrics { format } ->
      `Admin
        (fun _conn ->
          let reg = Fastver.registry t.sys in
          let data =
            match format with
            | Wire.Json -> Fastver_obs.Registry.to_json reg
            | Wire.Prometheus -> Fastver_obs.Registry.to_prometheus reg
          in
          Wire.Metrics_reply { format; data })
  | Wire.Subscribe _ | Wire.Fetch_checkpoint | Wire.Announce_term _
  | Wire.Promote _ ->
      `Err "replication opcodes are served on the replication listener"

let response_of_reply nonce (reply : Fastver.Batch.reply) =
  match reply with
  | Fastver.Batch.Got item -> Wire.Got { nonce; item = item_of item }
  | Fastver.Batch.Put_done item -> Wire.Put_ok { nonce; item = item_of item }
  | Fastver.Batch.Scanned items ->
      Wire.Scanned { nonce; items = Array.map item_of items }
  | Fastver.Batch.Failed e -> Wire.Error ("integrity: " ^ e)

let nonce_of = function
  | Wire.Get { nonce; _ } | Wire.Put { nonce; _ } | Wire.Scan { nonce; _ } ->
      nonce
  | Wire.Open_session _ | Wire.Close_session | Wire.Verify | Wire.Stats
  | Wire.Metrics _ | Wire.Subscribe _ | Wire.Fetch_checkpoint
  | Wire.Announce_term _ | Wire.Promote _ ->
      0L

(* ------------------------------------------------------------------ *)
(* Executor pool                                                       *)
(* ------------------------------------------------------------------ *)

(* Run one batch of data operations and fill its reply slots. Puts were
   already admitted on the I/O domain (client MAC + nonce consumed in
   arrival order), so the submit skips re-admission. Called from executor
   domains and, in single-worker mode, inline on the I/O domain. *)
let run_job t (job : job) =
  let ops = Array.map (fun (_, op, _) -> op) job in
  let replies =
    try Fastver.Batch.submit ~pre_admitted:true t.sys ops
    with exn ->
      (* [Batch.submit] maps per-op failures to [Failed] itself; anything
         escaping (e.g. a tampering detection in an auto-triggered
         verification scan) must not kill an executor domain. *)
      Array.map (fun _ -> Fastver.Batch.Failed (Printexc.to_string exn)) ops
  in
  Array.iteri
    (fun i (nonce, _, slot) ->
      (match replies.(i) with
      | Fastver.Batch.Failed _ ->
          Fastver_obs.Counter.incr t.metrics.m_op_failures
      | _ -> ());
      Atomic.set slot (Some (response_of_reply nonce replies.(i))))
    job

(* One-byte wake-up write into a select-loop pipe. EAGAIN/EWOULDBLOCK are
   success: a full pipe already guarantees a pending wake-up. EPIPE/EBADF
   during an orderly shutdown are expected — the loop closed its end and
   will not select again. Anything else really did lose a wake-up (the
   select loop may sleep on a filled reply slot until unrelated traffic
   arrives), so make it loud instead of swallowing it. *)
let wake t fd =
  try ignore (Unix.write_substring fd "x" 0 1) with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _)
    when Atomic.get t.stopping ->
      ()
  | Unix.Unix_error (e, fn, _) ->
      Fastver_obs.Counter.incr t.metrics.m_lost_wakeups;
      Log.err (fun m ->
          m "lost select-loop wake-up: %s failed with %s" fn
            (Unix.error_message e))

let executor t p wid () =
  let rec loop () =
    match Fastver.Bounded_queue.pop p.queues.(wid) with
    | None -> () (* closed and drained: shutdown *)
    | Some job ->
        run_job t job;
        Mutex.lock p.idle_lock;
        ignore (Atomic.fetch_and_add p.in_flight (-1));
        if Atomic.get p.in_flight = 0 then Condition.broadcast p.idle_cond;
        Mutex.unlock p.idle_lock;
        wake t p.wake_w;
        loop ()
  in
  loop ()

(* Wait until every dispatched job has completed (its slots filled). The
   barrier before cross-partition work: verify, stats, metrics, session
   admin and multi-key scans all observe a quiescent pool. *)
let barrier p =
  Mutex.lock p.idle_lock;
  while Atomic.get p.in_flight > 0 do
    Condition.wait p.idle_cond p.idle_lock
  done;
  Mutex.unlock p.idle_lock

let dispatch t p ~owner job =
  Atomic.incr p.in_flight;
  if not (Fastver.Bounded_queue.push p.queues.(owner) job) then begin
    (* The queue closed under us: [stop] raced this drain. No executor will
       run the job, so fail its operations in place — the reply slots must
       fill (a [closing] connection waits on them) and [in_flight] must
       come back down or the final [barrier] would hang the shutdown. *)
    Array.iter
      (fun (_, _, slot) ->
        Fastver_obs.Counter.incr t.metrics.m_op_failures;
        Atomic.set slot (Some (Wire.Error "shutdown: server stopping")))
      job;
    Mutex.lock p.idle_lock;
    ignore (Atomic.fetch_and_add p.in_flight (-1));
    if Atomic.get p.in_flight = 0 then Condition.broadcast p.idle_cond;
    Mutex.unlock p.idle_lock
  end

let admit t (op : Fastver.Batch.op) =
  match op with
  | Fastver.Batch.Put { client; nonce; mac; key; value } ->
      Fastver.admit_put t.sys ~client ~nonce ~mac ~key ~value
  | Fastver.Batch.Get _ | Fastver.Batch.Scan _ -> Ok ()

(* Drain up to [batch_limit] pending requests. Data operations accumulate
   into per-owner groups — one [Batch.submit] (one log flush) per owner per
   drain — dispatched to the executor pool, or run inline as a single
   unpinned batch when there is no pool. Admin operations and scans
   quiesce the pool and run at their exact position; reply slots keep
   per-connection response order either way. *)
let drain t =
  if not (Queue.is_empty t.pending) then begin
    let batch = ref [] and n = ref 0 in
    while !n < t.cfg.batch_limit && not (Queue.is_empty t.pending) do
      batch := Queue.pop t.pending :: !batch;
      incr n
    done;
    let batch = List.rev !batch in
    Fastver_obs.Counter.incr t.metrics.m_batches;
    Fastver_obs.Histogram.record t.metrics.m_batch_requests !n;
    let n_groups = match t.pool with Some p -> p.n_execs | None -> 1 in
    let groups = Array.make n_groups [] in
    (* (nonce, op, slot), newest first *)
    let any = ref false in
    let flush_acc () =
      if !any then begin
        any := false;
        Array.iteri
          (fun owner -> function
            | [] -> ()
            | entries ->
                groups.(owner) <- [];
                let job = Array.of_list (List.rev entries) in
                match t.pool with
                | None -> run_job t job
                | Some p -> dispatch t p ~owner job)
          groups
      end
    in
    let quiesce () =
      flush_acc ();
      match t.pool with Some p -> barrier p | None -> ()
    in
    List.iter
      (fun (conn, id, req, arrived) ->
        if not conn.dead then
          match classify t conn req with
          | `Data op -> (
              match admit t op with
              | Error e ->
                  Fastver_obs.Counter.incr t.metrics.m_op_failures;
                  post t conn id ~arrived (Wire.Error ("integrity: " ^ e))
              | Ok () -> (
                  let slot = Atomic.make None in
                  Queue.push (id, arrived, slot) conn.slots;
                  let entry = (nonce_of req, op, slot) in
                  match (t.pool, op) with
                  | Some _, (Fastver.Batch.Get { key; _ }
                            | Fastver.Batch.Put { key; _ }) ->
                      let owner = Fastver.owner_of_key t.sys key in
                      groups.(owner) <- entry :: groups.(owner);
                      any := true
                  | Some _, Fastver.Batch.Scan _ ->
                      (* A scan may span owner partitions: run it inline
                         against a quiescent pool so it observes every
                         earlier put. *)
                      quiesce ();
                      run_job t [| entry |]
                  | None, _ ->
                      groups.(0) <- entry :: groups.(0);
                      any := true))
          | `Verify ->
              (* Dispatch (not barrier) the data ops accumulated so far, so
                 this connection's earlier puts are at least in executor
                 queues when the scan domain seals the epoch boundary; the
                 certificate covers whatever prefix beat the seal, exactly
                 the contract of a concurrent verification. *)
              flush_acc ();
              let slot = Atomic.make None in
              Queue.push (id, arrived, slot) conn.slots;
              Fastver.verify_async t.sys ~on_complete:(fun res ->
                  (match res with
                  | Ok (epoch, cert) ->
                      Atomic.set slot (Some (Wire.Verified { epoch; cert }))
                  | Error e ->
                      Fastver_obs.Counter.incr t.metrics.m_op_failures;
                      let reason =
                        match e with
                        | Fastver.Integrity_violation r -> r
                        | e -> Printexc.to_string e
                      in
                      Atomic.set slot (Some (Wire.Error ("integrity: " ^ reason))));
                  wake t t.vwake_w)
          | `Admin f ->
              quiesce ();
              post t conn id ~arrived (f conn)
          | `Err e ->
              Fastver_obs.Counter.incr t.metrics.m_op_failures;
              post t conn id ~arrived (Wire.Error e))
      batch;
    flush_acc ();
    (* opportunistic write: the sockets are almost always writable *)
    List.iter
      (fun (conn, _, _, _) ->
        emit_ready t conn;
        if not (Queue.is_empty conn.outq) then flush_output conn)
      batch
  end

(* ------------------------------------------------------------------ *)
(* Input                                                               *)
(* ------------------------------------------------------------------ *)

let protocol_error t conn msg =
  Fastver_obs.Counter.incr t.metrics.m_proto_errors;
  (* arrival = now: a malformed frame has no decoded request to timestamp,
     but every emitted response must carry a latency sample so that the
     request histogram's count always equals [served] *)
  post t conn 0L ~arrived:(Unix.gettimeofday ())
    (Wire.Error ("protocol: " ^ msg));
  conn.closing <- true

let parse_frames t conn =
  let continue = ref true in
  while !continue && not conn.closing do
    match Frame.next conn.reader with
    | Ok None -> continue := false
    | Ok (Some payload) -> (
        match Wire.decode_request payload with
        | Ok (id, req) ->
            Queue.push (conn, id, req, Unix.gettimeofday ()) t.pending
        | Error e -> protocol_error t conn e)
    | Error e -> protocol_error t conn e
  done

let handle_readable t conn =
  let continue = ref true in
  while !continue do
    match Sockio.read_chunk conn.fd t.scratch with
    | `Again -> continue := false
    | `Eof ->
        conn.closing <- true;
        continue := false
    | `Data n -> Frame.feed conn.reader t.scratch 0 n
    | exception Unix.Unix_error _ ->
        conn.dead <- true;
        continue := false
  done;
  parse_frames t conn

let accept_loop t =
  let continue = ref true in
  while !continue do
    match Unix.accept ~cloexec:true t.listener with
    | fd, _peer ->
        Unix.set_nonblock fd;
        (match t.addr with
        | Addr.Tcp _ -> Unix.setsockopt fd Unix.TCP_NODELAY true
        | Addr.Unix_sock _ -> ());
        Fastver_obs.Counter.incr t.metrics.m_accepted;
        t.conns <-
          {
            fd;
            reader = Frame.create ~max_frame:t.cfg.max_frame ();
            outq = Queue.create ();
            slots = Queue.create ();
            enc = Buffer.create 256;
            out_off = 0;
            out_bytes = 0;
            client = None;
            closing = false;
            dead = false;
          }
          :: t.conns
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> continue := false
  done

let close_conn t conn =
  (match conn.client with
  | Some c -> Hashtbl.remove t.clients_in_use c
  | None -> ());
  (try Unix.close conn.fd with Unix.Unix_error _ -> ())

let reap t =
  let gone, kept =
    List.partition
      (fun c ->
        (* a closing connection waits for replies still in flight on the
           pool ([slots]) as well as unwritten output *)
        c.dead
        || (c.closing && Queue.is_empty c.outq && Queue.is_empty c.slots))
      t.conns
  in
  List.iter (close_conn t) gone;
  t.conns <- kept

(* ------------------------------------------------------------------ *)
(* Event loop                                                          *)
(* ------------------------------------------------------------------ *)

let run t =
  Log.info (fun m -> m "serving on %a" Addr.pp t.addr);
  (match t.pool with
  | Some p ->
      Log.info (fun m -> m "executor pool: %d shard domains" p.n_execs);
      p.execs <- Array.init p.n_execs (fun wid -> Domain.spawn (executor t p wid))
  | None -> ());
  while not (Atomic.get t.stopping) do
    let backpressured = Queue.length t.pending >= t.cfg.queue_limit in
    let read_fds =
      t.stop_r :: t.vwake_r :: t.listener
      :: List.filter_map
           (fun c ->
             if
               (not c.closing) && (not c.dead) && (not backpressured)
               && c.out_bytes < t.cfg.conn_out_limit
             then Some c.fd
             else None)
           t.conns
    in
    let read_fds =
      match t.pool with Some p -> p.wake_r :: read_fds | None -> read_fds
    in
    let write_fds =
      List.filter_map
        (fun c ->
          if (not c.dead) && not (Queue.is_empty c.outq) then Some c.fd
          else None)
        t.conns
    in
    (* Block until an fd is ready: [drain] below always empties [pending],
       and every other wake source — stop, pool completions, background
       verification completions, new frames — is a pipe or socket in
       [read_fds]. A zero timeout here would busy-spin the I/O domain
       whenever a single slow executor kept any request pending. *)
    match Unix.select read_fds write_fds [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.EBADF, _, _) ->
        (* a connection died under us between loop passes *)
        reap t
    | readable, writable, _ ->
        if List.mem t.stop_r readable then begin
          let buf = Bytes.create 64 in
          try ignore (Unix.read t.stop_r buf 0 64) with Unix.Unix_error _ -> ()
        end;
        (match t.pool with
        | Some p when List.mem p.wake_r readable -> (
            (* drain coalesced completion wake-ups *)
            let buf = Bytes.create 256 in
            try
              while Unix.read p.wake_r buf 0 256 = 256 do
                ()
              done
            with Unix.Unix_error _ -> ())
        | _ -> ());
        (if List.mem t.vwake_r readable then
           let buf = Bytes.create 256 in
           try
             while Unix.read t.vwake_r buf 0 256 = 256 do
               ()
             done
           with Unix.Unix_error _ -> ());
        if List.mem t.listener readable then accept_loop t;
        List.iter
          (fun c -> if List.mem c.fd readable then handle_readable t c)
          t.conns;
        (* to empty: the blocking select above relies on it *)
        while not (Queue.is_empty t.pending) do
          drain t
        done;
        ignore writable;
        List.iter
          (fun c ->
            emit_ready t c;
            (* opportunistic write for pool completions too, not just fds
               select reported writable: a failed attempt is one EAGAIN *)
            if not (Queue.is_empty c.outq) then flush_output c)
          t.conns;
        reap t
  done;
  (match t.pool with
  | Some p ->
      Array.iter Fastver.Bounded_queue.close p.queues;
      Array.iter Domain.join p.execs;
      p.execs <- [||];
      (try Unix.close p.wake_r with Unix.Unix_error _ -> ());
      (try Unix.close p.wake_w with Unix.Unix_error _ -> ())
  | None -> ());
  (* Executors are gone, so no new scan can start; join any background
     verification still running before its completion callback could write
     a closed vwake fd. *)
  Fastver.wait_verify t.sys;
  (try Unix.close t.vwake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.vwake_w with Unix.Unix_error _ -> ());
  List.iter (close_conn t) t.conns;
  t.conns <- [];
  (try Unix.close t.listener with Unix.Unix_error _ -> ());
  (match t.addr with
  | Addr.Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | Addr.Tcp _ -> ());
  let c = counters t in
  Log.info (fun m ->
      m "stopped: %d conns accepted, %d requests, %d batches (max %d)"
        c.accepted c.served c.batches c.max_batch)

let start t = t.domain <- Some (Domain.spawn (fun () -> run t))

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (try ignore (Unix.write_substring t.stop_w "x" 0 1)
     with Unix.Unix_error _ -> ());
    (match t.domain with Some d -> Domain.join d | None -> ());
    t.domain <- None;
    try Unix.close t.stop_w with Unix.Unix_error _ -> ()
  end
