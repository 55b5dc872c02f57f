let src = Logs.Src.create "fastver.net.server" ~doc:"FastVer serving loop"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  batch_limit : int;
  read_only : bool;
      (* replication follower mode: refuse puts, and answer [Verify] from
         the already-verified epoch instead of running a scan (a follower's
         epochs are sealed by the primary's stream, never locally) *)
}

let default_config = { batch_limit = 256; read_only = false }

(* Backpressure: a connection stops being read while the pending-request
   queue holds [queue_limit] requests or its own unsent replies reach
   [conn_out_limit] bytes; TCP flow control then pushes back on the
   client. *)
let queue_limit = 1024
let conn_out_limit = 4 * 1024 * 1024
let max_scan_len = 65536

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
    m_batch_requests =
      Reg.histogram reg ~help:"Requests per worker-loop drain"
        "fastver_net_batch_requests";
    m_request_seconds =
      Reg.histogram reg ~scale:1e-9
        ~help:"End-to-end request latency (decode to response enqueue)"
        "fastver_request_seconds";
  }

(* Per-connection serving state; the transport half lives in the
   reactor's connection. *)
type peer = {
  slots : (int64 * Fastver_obs.Span.t * Wire.response option Atomic.t) Queue.t;
      (* (id, arrival, reply slot) in request order: responses — filled by
         executor domains or inline — are emitted strictly from the head,
         so per-connection reply order survives parallel execution *)
  enc : Buffer.t; (* reused encode buffer (one frame string per response) *)
  mutable client : int option;
}

type conn = peer Reactor.conn

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
}

type t = {
  sys : Fastver.t;
  cfg : config;
  read_only : bool Atomic.t;
      (* starts as cfg.read_only; election promotion flips it off on a live
         follower (and demotion flips it back) without restarting the loop *)
  reactor : peer Reactor.t;
      (* executor and background-verification completions wake it: the
         next pass emits every connection's filled reply slots *)
  pending : (conn * int64 * Wire.request * Fastver_obs.Span.t) Queue.t;
      (* (conn, id, request, arrival time) — the timestamp feeds the
         end-to-end latency histogram when the response is enqueued *)
  mutable domain : unit Domain.t option;
  metrics : metrics;
  clients_in_use : (int, conn) Hashtbl.t;
  pool : pool option;
}

let create ?(config = default_config) sys ~listen =
  match Reactor.listen (Fastver.registry sys) listen with
  | Error e -> Error e
  | Ok reactor ->
      let pool =
        (* One executor per verifier shard: batches are grouped by
           {!Fastver.owner_of_key}, which names shards, so the queue array
           must cover every shard id even when shards exceed workers. *)
        let n = Fastver.n_shards sys in
        if n <= 1 then None
        else
          Some
            {
              n_execs = n;
              queues = Array.init n (fun _ -> Fastver.Bounded_queue.create 8);
              execs = [||];
              in_flight = Atomic.make 0;
              idle_lock = Mutex.create ();
              idle_cond = Condition.create ();
            }
      in
      Ok
        {
          sys;
          cfg = config;
          read_only = Atomic.make config.read_only;
          reactor;
          pending = Queue.create ();
          domain = None;
          metrics = make_metrics sys;
          clients_in_use = Hashtbl.create 16;
          pool;
        }

let bound_addr t = Reactor.addr t.reactor
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

(* Emit the filled prefix of the reply-slot queue. Slots behind an
   operation still running on an executor stay queued, so responses leave
   in request order even when later operations finished first. *)
let emit_ready t conn =
  if not (Reactor.is_dead conn) then begin
    let p = Reactor.data conn in
    let continue = ref true in
    while !continue && not (Queue.is_empty p.slots) do
      let _, _, slot = Queue.peek p.slots in
      match Atomic.get slot with
      | None -> continue := false
      | Some resp ->
          let id, arrived, _ = Queue.pop p.slots in
          Reactor.send conn (Wire.encode_response_into p.enc ~id resp);
          Fastver_obs.Counter.incr t.metrics.m_served;
          Fastver_obs.Span.finish arrived t.metrics.m_request_seconds
    done
  end

(* Queue an already-computed response at this request's position. *)
let post t conn id ~arrived resp =
  if not (Reactor.is_dead conn) then begin
    Queue.push (id, arrived, Atomic.make (Some resp)) (Reactor.data conn).slots;
    emit_ready t conn
  end

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
  let p = Reactor.data conn in
  let client () =
    match p.client with
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
      if len < 0 || len > max_scan_len then `Err "scan length out of range"
      else
        match client () with
        | Error e -> `Err e
        | Ok client -> `Data (Fastver.Batch.Scan { client; nonce; start; len }))
  | Wire.Open_session { client } ->
      `Admin
        (fun () ->
          match (p.client, Hashtbl.find_opt t.clients_in_use client) with
          | Some _, _ -> Wire.Error "session already open on this connection"
          | None, Some other when other != conn ->
              Wire.Error "client id already in use"
          | None, _ ->
              p.client <- Some client;
              Hashtbl.replace t.clients_in_use client conn;
              Wire.Session_opened { client })
  | Wire.Close_session ->
      `Admin
        (fun () ->
          (match p.client with
          | Some c -> Hashtbl.remove t.clients_in_use c
          | None -> ());
          p.client <- None;
          Wire.Session_closed)
  | Wire.Verify ->
      if Atomic.get t.read_only then
        (* A follower never seals epochs itself — its verified epoch only
           advances when the primary's boundary certificate authenticates.
           Re-sign the certificate for the epoch we already hold so the
           client's [verify_now] check works unchanged. *)
        `Admin
          (fun () ->
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
          (fun () ->
            let epoch = Fastver.current_epoch t.sys in
            match Fastver.verify t.sys with
            | cert -> Wire.Verified { epoch; cert }
            | exception Fastver.Integrity_violation e ->
                Wire.Error ("integrity: " ^ e))
  | Wire.Stats -> `Admin (fun () -> stats_reply t)
  | Wire.Metrics { format } ->
      `Admin
        (fun () ->
          let reg = Fastver.registry t.sys in
          let data =
            match format with
            | Wire.Json -> Fastver_obs.Registry.to_json reg
            | Wire.Prometheus -> Fastver_obs.Registry.to_prometheus reg
          in
          Wire.Metrics_reply { format; data })
  | Wire.Subscribe _ | Wire.Fetch_checkpoint | Wire.Fetch_generation _
  | Wire.Announce_term _ | Wire.Promote _ ->
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
  | Wire.Fetch_generation _ | Wire.Announce_term _ | Wire.Promote _ ->
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

let job_done p =
  Mutex.lock p.idle_lock;
  ignore (Atomic.fetch_and_add p.in_flight (-1));
  if Atomic.get p.in_flight = 0 then Condition.broadcast p.idle_cond;
  Mutex.unlock p.idle_lock

let executor t p wid () =
  let rec loop () =
    match Fastver.Bounded_queue.pop p.queues.(wid) with
    | None -> () (* closed and drained: shutdown *)
    | Some job ->
        run_job t job;
        job_done p;
        Reactor.wake t.reactor;
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
    (* The queue is closed: no executor will run the job, so fail its
       operations in place — the reply slots must fill (a closing
       connection waits on them) and [in_flight] must come back down or a
       later [barrier] would hang. *)
    Array.iter
      (fun (_, _, slot) ->
        Fastver_obs.Counter.incr t.metrics.m_op_failures;
        Atomic.set slot (Some (Wire.Error "shutdown: server stopping")))
      job;
    job_done p
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
        if not (Reactor.is_dead conn) then
          match classify t conn req with
          | `Data op -> (
              match admit t op with
              | Error e ->
                  Fastver_obs.Counter.incr t.metrics.m_op_failures;
                  post t conn id ~arrived (Wire.Error ("integrity: " ^ e))
              | Ok () -> (
                  let slot = Atomic.make None in
                  Queue.push (id, arrived, slot) (Reactor.data conn).slots;
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
              Queue.push (id, arrived, slot) (Reactor.data conn).slots;
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
                  (* the scan domain filled the slot: wake the loop so the
                     reply does not wait for unrelated traffic *)
                  Reactor.wake t.reactor)
          | `Admin f ->
              quiesce ();
              post t conn id ~arrived (f ())
          | `Err e ->
              Fastver_obs.Counter.incr t.metrics.m_op_failures;
              post t conn id ~arrived (Wire.Error e))
      batch;
    flush_acc ()
  end

(* ------------------------------------------------------------------ *)
(* Event loop                                                          *)
(* ------------------------------------------------------------------ *)

let protocol_error t conn msg =
  Fastver_obs.Counter.incr t.metrics.m_proto_errors;
  (* arrival = now: a malformed frame has no decoded request to timestamp,
     but every emitted response must carry a latency sample so that the
     request histogram's count always equals [served] *)
  post t conn 0L ~arrived:(Fastver_obs.Span.start ())
    (Wire.Error ("protocol: " ^ msg));
  Reactor.close conn

let input t conn = function
  | Error e -> protocol_error t conn e
  | Ok payload -> (
      match Wire.decode_request payload with
      | Ok (id, req) ->
          Queue.push (conn, id, req, Fastver_obs.Span.start ()) t.pending
      | Error e -> protocol_error t conn e)

let handlers t =
  {
    Reactor.accept =
      (fun () ->
        Fastver_obs.Counter.incr t.metrics.m_accepted;
        { slots = Queue.create (); enc = Buffer.create 256; client = None });
    input = input t;
    wants_input =
      (fun c ->
        Queue.length t.pending < queue_limit
        && Reactor.out_bytes c < conn_out_limit);
    settled =
      (* a closing connection waits for replies still in flight on the
         pool as well as for unwritten output *)
      (fun c -> Queue.is_empty (Reactor.data c).slots);
    pass =
      (fun () ->
        (* to empty: the loop blocks in select with no timeout, and every
           other source of work — pool completions, background
           verification — wakes it *)
        while not (Queue.is_empty t.pending) do
          drain t
        done;
        List.iter (emit_ready t) (Reactor.conns t.reactor));
    deadline = (fun () -> None);
    closed =
      (fun c ->
        match (Reactor.data c).client with
        | Some id -> Hashtbl.remove t.clients_in_use id
        | None -> ());
  }

let start t =
  Log.info (fun m -> m "serving on %a" Addr.pp (bound_addr t));
  (match t.pool with
  | Some p ->
      Log.info (fun m -> m "executor pool: %d shard domains" p.n_execs);
      p.execs <- Array.init p.n_execs (fun wid -> Domain.spawn (executor t p wid))
  | None -> ());
  t.domain <- Some (Domain.spawn (fun () -> Reactor.run t.reactor (handlers t)))

let stop t =
  if Reactor.stop t.reactor then begin
    (match t.domain with Some d -> Domain.join d | None -> ());
    t.domain <- None;
    (match t.pool with
    | Some p ->
        Array.iter Fastver.Bounded_queue.close p.queues;
        Array.iter Domain.join p.execs;
        p.execs <- [||]
    | None -> ());
    (* Executors are gone, so no new scan can start; join any background
       verification still running before its completion callback could
       wake a closed pipe. *)
    Fastver.wait_verify t.sys;
    (* replies the pool finished after the loop's last pass still go out,
       within the reactor's shutdown grace *)
    List.iter (emit_ready t) (Reactor.conns t.reactor);
    Reactor.shutdown t.reactor;
    let c = counters t in
    Log.info (fun m ->
        m "stopped: %d conns accepted, %d requests, %d batches (max %d)"
          c.accepted c.served c.batches c.max_batch)
  end
