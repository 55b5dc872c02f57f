let src = Logs.Src.create "fastver.replica.primary" ~doc:"Replication primary"

module Log = (val Logs.src_log src : Logs.LOG)
module Wire = Fastver_net.Wire
module Frame = Fastver_net.Frame
module Sockio = Fastver_net.Sockio
module Addr = Fastver_net.Addr
module Client = Fastver_net.Client

type config = {
  retain_epochs : int;
  conn_out_limit : int;
  checkpoint_dir : string option;
  batch_delay : float;
  term : int;
  priority : int;
}

let default_config =
  {
    retain_epochs = 64;
    conn_out_limit = 64 * 1024 * 1024;
    checkpoint_dir = None;
    batch_delay = 0.02;
    term = 0;
    priority = 0;
  }

type role = Leading | Standby

type conn = {
  fd : Unix.file_descr;
  reader : Frame.reader;
  outq : string Queue.t; (* filled under [t.lock] (hooks + loop) *)
  pending : string Queue.t; (* loop-private: frames being written *)
  mutable out_off : int; (* written prefix of the head of [pending] *)
  mutable out_bytes : int; (* total queued bytes, under [t.lock] *)
  mutable subscribed : bool; (* under [t.lock] *)
  mutable closing : bool; (* flush, then close *)
  mutable dead : bool; (* close now, discard output *)
}

type t = {
  sys : Fastver.t;
  cfg : config;
  listen_fd : Unix.file_descr;
  addr : Addr.t;
  run_id : int64;
  lock : Mutex.t;
      (* LEAF lock: the op hook runs under core worker locks and the seal
         hook under the verify mutex, so nothing may be acquired (and no
         blocking call made) while holding it *)
  mutable log : (int * string) list; (* (epoch, frame), newest first *)
  mutable floor : int; (* lowest epoch completely present in [log] *)
  mutable sealed : int; (* highest epoch whose boundary record was emitted *)
  mutable role : role; (* Standby = election candidate: answers term probes,
                          refuses subscribers, tees nothing until promoted *)
  mutable term : int; (* fencing term every boundary record is stamped with *)
  mutable term_start : int;
      (* first epoch sealed under [term]: a subscriber whose verified state
         reaches into [term_start, ..] but carries an older term verified a
         chain this primary re-sealed after winning an election — it must
         discard and re-bootstrap (checkpoint fetch) *)
  mutable deposed_by : (int * string option) option;
      (* evidence this primary lost its mandate: a peer spoke from a higher
         term (optionally naming the new primary's address). The owner polls
         {!deposed} and demotes. *)
  digests : (int, string) Hashtbl.t; (* per-open-epoch running digest *)
  mutable batch : (string * string option) list;
      (* ops buffered toward the next [Repl_batch] frame, newest first;
         all batch fields under [t.lock] *)
  mutable batch_epoch : int; (* epoch every buffered op belongs to *)
  mutable batch_n : int;
  mutable batch_since : float; (* arrival time of the oldest buffered op *)
  mutable frames : int; (* op-carrying stream frames emitted so far *)
  enc : Buffer.t; (* frame encode scratch, under [t.lock] *)
  mutable conns : conn list; (* mutated by the loop; read under [t.lock] *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable stopping : bool;
  mutable loop_domain : unit Domain.t option;
  scratch : Bytes.t;
  m_ops : Fastver_obs.Counter.t;
  m_frames : Fastver_obs.Counter.t;
  m_epochs : Fastver_obs.Counter.t;
  m_followers : Fastver_obs.Gauge.t;
  m_lag_bytes : Fastver_obs.Gauge.t;
  m_term : Fastver_obs.Gauge.t;
}

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let wake t =
  match Unix.write t.wake_w (Bytes.make 1 '!') 0 1 with
  | _ -> ()
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EPIPE | EBADF), _, _) ->
      () (* full pipe = wake-up already pending; EPIPE/EBADF = stopping *)

(* Enqueue a frame to one subscribed connection; a follower that cannot
   drain [conn_out_limit] bytes of backlog is cut off rather than allowed
   to pin unbounded memory (it will re-subscribe, or re-bootstrap from a
   checkpoint if it fell past the retained floor). Caller holds [t.lock]. *)
let enqueue t c frame =
  if (not c.dead) && not c.closing then begin
    Queue.push frame c.outq;
    c.out_bytes <- c.out_bytes + String.length frame;
    if c.out_bytes > t.cfg.conn_out_limit then begin
      Log.warn (fun m ->
          m "follower too slow (%d bytes queued): dropping connection"
            c.out_bytes);
      c.dead <- true
    end
  end

let broadcast t frame =
  List.iter (fun c -> if c.subscribed then enqueue t c frame) t.conns

(* Emit the buffered ops as one [Repl_batch] frame. Caller holds [t.lock].
   The per-epoch stream digest was already folded op by op at admission, so
   batching changes only the framing — a follower sees the identical op
   sequence and authenticates the identical boundary MAC. *)
let flush_batch t =
  if t.batch_n > 0 then begin
    let ops = Array.of_list (List.rev t.batch) in
    let frame =
      Wire.encode_response_into t.enc ~id:0L
        (Wire.Repl_batch { epoch = t.batch_epoch; ops })
    in
    t.log <- (t.batch_epoch, frame) :: t.log;
    t.batch <- [];
    t.batch_n <- 0;
    t.frames <- t.frames + 1;
    Fastver_obs.Counter.incr t.m_frames;
    broadcast t frame
  end

(* Ops coalesced into one [Repl_batch] frame before a forced flush. *)
let batch_ops = 512

(* ---- Tee hooks (see Fastver.set_replication_hooks for the contract) ---- *)

let on_op t ~epoch ~key ~value =
  let key = Key.to_bytes32 key in
  let now = Unix.gettimeofday () in
  let want_wake =
    with_lock t.lock (fun () ->
        let digest =
          match Hashtbl.find_opt t.digests epoch with
          | Some d -> d
          | None -> Stream.empty_digest
        in
        Hashtbl.replace t.digests epoch (Stream.fold digest ~epoch ~key ~value);
        Fastver_obs.Counter.incr t.m_ops;
        if t.batch_n > 0 && t.batch_epoch <> epoch then flush_batch t;
        if t.batch_n = 0 then begin
          t.batch_epoch <- epoch;
          t.batch_since <- now
        end;
        t.batch <- (key, value) :: t.batch;
        t.batch_n <- t.batch_n + 1;
        if t.batch_n >= batch_ops then begin
          flush_batch t;
          true
        end
        else
          (* Wake only on the first buffered op, so the loop re-arms its
             select timeout to the batch_delay time cap. *)
          t.batch_n = 1)
  in
  if want_wake then wake t

let on_seal t ~epoch ~cert =
  with_lock t.lock (fun () ->
      (* The boundary record commits the epoch's op sequence: everything
         buffered must be framed and in the log ahead of it. *)
      flush_batch t;
      let digest =
        match Hashtbl.find_opt t.digests epoch with
        | Some d ->
            Hashtbl.remove t.digests epoch;
            d
        | None -> Stream.empty_digest (* an epoch with no puts *)
      in
      let stream_mac =
        Stream.boundary_mac
          ~mac_secret:(Fastver.config t.sys).mac_secret
          ~term:t.term ~epoch ~digest
      in
      let frame =
        Wire.encode_response_into t.enc ~id:0L
          (Wire.Repl_epoch { epoch; cert; stream_mac; term = t.term })
      in
      t.log <- (epoch, frame) :: t.log;
      t.sealed <- epoch;
      Fastver_obs.Counter.incr t.m_epochs;
      broadcast t frame;
      (* Prune: keep the last [retain_epochs] sealed epochs for tailing
         subscribers; anything older must catch up via checkpoint fetch. *)
      let new_floor = epoch - t.cfg.retain_epochs + 1 in
      if new_floor > t.floor then begin
        t.floor <- new_floor;
        t.log <- List.filter (fun (e, _) -> e >= new_floor) t.log
      end);
  wake t

(* ---- Request handling (loop domain) ---- *)

let reply t c ~id resp =
  with_lock t.lock (fun () ->
      enqueue t c (Wire.encode_response ~id resp))

let handle_subscribe t c ~id ~from_epoch ~term:sub_term =
  with_lock t.lock (fun () ->
      if t.role = Standby then
        enqueue t c
          (Wire.encode_response ~id
             (Wire.Error
                (Printf.sprintf
                   "not primary: standby candidate at term %d" t.term)))
      else if sub_term > t.term then begin
        (* The subscriber verified an epoch sealed under a term this primary
           has never seen: an election happened behind our back, so *we* are
           the deposed one. Record the evidence (the owner demotes) and
           refuse — accepting would fork the chain. *)
        if t.deposed_by = None then t.deposed_by <- Some (sub_term, None);
        enqueue t c
          (Wire.encode_response ~id
             (Wire.Error
                (Printf.sprintf
                   "deposed: subscriber speaks term %d, this primary is at \
                    term %d"
                   sub_term t.term)))
      end
      else if sub_term < t.term && from_epoch - 1 >= t.term_start then
        (* Fencing: the subscriber claims verified epochs that this primary
           (re-)sealed under a newer term, but its own chain for them was
           sealed under an older one — a deposed primary's descendant. Its
           state may diverge from ours at those epochs, so replaying the
           retained tail is unsound: it must discard and re-bootstrap. *)
        enqueue t c
          (Wire.encode_response ~id
             (Wire.Error
                (Printf.sprintf
                   "stale term %d: epochs from %d were re-sealed under term \
                    %d — fetch a checkpoint"
                   sub_term t.term_start t.term)))
      else if from_epoch < t.floor then
        enqueue t c
          (Wire.encode_response ~id
             (Wire.Error
                (Printf.sprintf
                   "subscribe from epoch %d predates the retained stream \
                    (floor %d): fetch a checkpoint"
                   from_epoch t.floor)))
      else if from_epoch > t.sealed + 1 then
        enqueue t c
          (Wire.encode_response ~id
             (Wire.Error
                (Printf.sprintf
                   "subscribe from epoch %d is ahead of this primary (next \
                    boundary is %d): possible primary rollback"
                   from_epoch (t.sealed + 1))))
      else begin
        (* Ack, replay the retained tail, and mark subscribed — atomically
           under the lock, so no hook-teed frame can slip between the replay
           snapshot and the live stream. Flush the open batch first so the
           log is complete up to this instant. *)
        flush_batch t;
        enqueue t c
          (Wire.encode_response ~id
             (Wire.Subscribed { from_epoch; run_id = t.run_id; term = t.term }));
        List.iter
          (fun (e, frame) -> if e >= from_epoch then enqueue t c frame)
          (List.rev t.log);
        c.subscribed <- true
      end);
  wake t

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Ship the newest checkpoint generation that has a manifest. The follower
   re-verifies every checksum through the normal recovery path, so nothing
   about this transport is trusted — a torn or tampered shipment is caught
   exactly like a torn or tampered local generation. *)
let checkpoint_reply t =
  match t.cfg.checkpoint_dir with
  | None -> Wire.Error "primary has no checkpoint directory configured"
  | Some dir -> (
      let gens =
        List.filter
          (fun (_, gdir) ->
            Sys.file_exists (Filename.concat gdir Fastver_kvstore.Ckpt_io.Manifest.filename))
          (Fastver_kvstore.Ckpt_io.generations dir)
      in
      match gens with
      | [] -> Wire.Error "primary has no committed checkpoint generation yet"
      | (gen, gdir) :: _ -> (
          match
            let names =
              Array.to_list (Sys.readdir gdir)
              |> List.filter (fun n ->
                     not (Sys.is_directory (Filename.concat gdir n)))
              |> List.sort String.compare
            in
            let files =
              Array.of_list
                (List.map (fun n -> (n, read_file (Filename.concat gdir n))) names)
            in
            let total =
              Array.fold_left (fun a (_, d) -> a + String.length d) 0 files
            in
            if total + 4096 > Wire.max_frame then
              Wire.Error "checkpoint generation too large to stream"
            else
              Wire.Checkpoint_reply
                { generation = gen; files; term = with_lock t.lock (fun () -> t.term) }
          with
          | resp -> resp
          | exception Sys_error e ->
              Wire.Error ("cannot read checkpoint generation: " ^ e)))

(* The responder's election state, under [t.lock]. A standby's newest
   sealed epoch is whatever its follower verified; a leader's is what its
   own boundary records reached. *)
let term_info_locked t =
  Wire.Term_info
    {
      term = t.term;
      sealed =
        (match t.role with
        | Leading -> t.sealed
        | Standby -> Fastver.verified_epoch t.sys);
      priority = t.cfg.priority;
      run_id = t.run_id;
      primary = (t.role = Leading && t.deposed_by = None);
    }

let handle_announce t c ~id ~term ~sealed ~priority ~run_id =
  with_lock t.lock (fun () ->
      Log.debug (fun m ->
          m "announce-term from peer (term %d, sealed %d, prio %d, run %Ld)"
            term sealed priority run_id);
      if term > t.term then begin
        (* Any peer speaking from a higher term proves a newer election
           committed. A leader records the evidence and lets its owner
           demote; a standby just adopts the term so its next candidacy
           starts above it. *)
        match t.role with
        | Leading -> if t.deposed_by = None then t.deposed_by <- Some (term, None)
        | Standby ->
            t.term <- term;
            Fastver_obs.Gauge.set t.m_term (float_of_int term)
      end;
      enqueue t c (Wire.encode_response ~id (term_info_locked t)));
  wake t

let handle_promote t c ~id ~term ~addr =
  with_lock t.lock (fun () ->
      (match t.role with
      | Leading ->
          if term > t.term && t.deposed_by = None then begin
            Log.warn (fun m ->
                m "deposed: peer promoted to term %d (serving at %s)" term addr);
            t.deposed_by <- Some (term, Some addr)
          end
      | Standby ->
          if term >= t.term then begin
            t.term <- max t.term term;
            Fastver_obs.Gauge.set t.m_term (float_of_int t.term);
            if t.deposed_by = None then t.deposed_by <- Some (term, Some addr)
          end);
      enqueue t c (Wire.encode_response ~id (term_info_locked t)));
  wake t

let handle_request t c ~id req =
  match (req : Wire.request) with
  | Wire.Subscribe { from_epoch; term } ->
      handle_subscribe t c ~id ~from_epoch ~term
  | Wire.Fetch_checkpoint ->
      reply t c ~id (checkpoint_reply t);
      wake t
  | Wire.Announce_term { term; sealed; priority; run_id } ->
      handle_announce t c ~id ~term ~sealed ~priority ~run_id
  | Wire.Promote { term; addr } -> handle_promote t c ~id ~term ~addr
  | _ ->
      reply t c ~id (Wire.Error "not a replication opcode");
      wake t

(* ---- The select loop ---- *)

let drain_reader t c =
  let rec frames () =
    match Frame.next c.reader with
    | Error e ->
        Log.info (fun m -> m "malformed replication frame: %s" e);
        reply t c ~id:0L (Wire.Error ("malformed frame: " ^ e));
        c.closing <- true
    | Ok None -> ()
    | Ok (Some payload) ->
        (match Wire.decode_request payload with
        | Error e ->
            reply t c ~id:0L (Wire.Error ("malformed request: " ^ e));
            c.closing <- true
        | Ok (id, req) -> handle_request t c ~id req);
        if not (c.closing || c.dead) then frames ()
  in
  match Sockio.read_chunk c.fd t.scratch with
  | `Eof -> c.dead <- true
  | `Again -> ()
  | `Data n ->
      Frame.feed c.reader t.scratch 0 n;
      frames ()
  | exception Unix.Unix_error _ -> c.dead <- true

let flush_conn t c =
  with_lock t.lock (fun () -> Queue.transfer c.outq c.pending);
  let rec go () =
    match Queue.peek_opt c.pending with
    | None -> if c.closing then c.dead <- true
    | Some head -> (
        match Sockio.write_sub c.fd head c.out_off with
        | `Again -> ()
        | `Wrote n ->
            c.out_off <- c.out_off + n;
            if c.out_off >= String.length head then begin
              ignore (Queue.pop c.pending);
              c.out_off <- 0;
              with_lock t.lock (fun () ->
                  c.out_bytes <- c.out_bytes - String.length head);
              go ()
            end
        | exception Unix.Unix_error _ -> c.dead <- true)
  in
  go ()

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let accept_conns t =
  let rec go () =
    match Unix.accept ~cloexec:true t.listen_fd with
    | fd, _ ->
        Unix.set_nonblock fd;
        (match t.addr with
        | Addr.Tcp _ -> (
            try Unix.setsockopt fd Unix.TCP_NODELAY true
            with Unix.Unix_error _ -> ())
        | Addr.Unix_sock _ -> ());
        let c =
          {
            fd;
            reader = Frame.create ();
            outq = Queue.create ();
            pending = Queue.create ();
            out_off = 0;
            out_bytes = 0;
            subscribed = false;
            closing = false;
            dead = false;
          }
        in
        with_lock t.lock (fun () -> t.conns <- c :: t.conns);
        go ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let loop t =
  while not t.stopping do
    let conns = with_lock t.lock (fun () -> t.conns) in
    let rd =
      t.listen_fd :: t.wake_r
      :: List.filter_map (fun c -> if c.dead then None else Some c.fd) conns
    in
    let wr =
      List.filter_map
        (fun c ->
          if (not c.dead) && (c.out_bytes > 0 || not (Queue.is_empty c.pending))
          then Some c.fd
          else None)
        conns
    in
    let timeout =
      (* Shorten the select timeout while a batch is buffered so the
         batch_delay time cap actually fires. *)
      with_lock t.lock (fun () ->
          if t.batch_n > 0 then Float.min t.cfg.batch_delay 1.0 else 1.0)
    in
    (match Unix.select rd wr [] timeout with
    | rd_ready, wr_ready, _ ->
        if List.mem t.wake_r rd_ready then (
          try ignore (Unix.read t.wake_r t.scratch 0 64)
          with Unix.Unix_error _ -> ());
        if List.mem t.listen_fd rd_ready then accept_conns t;
        List.iter
          (fun c ->
            if (not c.dead) && List.mem c.fd wr_ready then flush_conn t c)
          conns;
        List.iter
          (fun c ->
            if (not c.dead) && (not c.closing) && List.mem c.fd rd_ready then
              drain_reader t c)
          conns
    | exception Unix.Unix_error (EINTR, _, _) -> ());
    (* Time cap: a batch older than batch_delay goes out now even if it
       never filled; the broadcast frames get written next iteration. *)
    with_lock t.lock (fun () ->
        if
          t.batch_n > 0
          && Unix.gettimeofday () -. t.batch_since >= t.cfg.batch_delay
        then flush_batch t);
    (* Reap the dead; account follower + lag gauges. *)
    let died, lag =
      with_lock t.lock (fun () ->
          let died = List.filter (fun c -> c.dead) t.conns in
          t.conns <- List.filter (fun c -> not c.dead) t.conns;
          let lag =
            List.fold_left (fun a c -> max a c.out_bytes) 0 t.conns
          in
          Fastver_obs.Gauge.set t.m_followers
            (float_of_int
               (List.length (List.filter (fun c -> c.subscribed) t.conns)));
          (died, lag))
    in
    List.iter close_conn died;
    Fastver_obs.Gauge.set t.m_lag_bytes (float_of_int lag)
  done;
  (* Shutdown: drain queued output first, under a short grace budget, so a
     follower mid-[Fetch_checkpoint] receives its complete reply (or, if it
     cannot drain in time, a frame cut at the transport — which its decoder
     rejects whole; it never sees a torn generation it would try to recover
     from). Then shut the sockets down explicitly: readers get a clean EOF
     rather than a reset, and retry against the elected primary. *)
  let conns = with_lock t.lock (fun () -> t.conns) in
  let deadline = Unix.gettimeofday () +. 1.0 in
  let busy () =
    List.filter
      (fun c ->
        (not c.dead)
        && (not (Queue.is_empty c.pending)
           || with_lock t.lock (fun () -> not (Queue.is_empty c.outq))))
      conns
  in
  let rec drain () =
    match busy () with
    | [] -> ()
    | busy when Unix.gettimeofday () < deadline -> (
        match Unix.select [] (List.map (fun c -> c.fd) busy) [] 0.05 with
        | _, wr, _ ->
            List.iter (fun c -> if List.mem c.fd wr then flush_conn t c) busy;
            drain ()
        | exception Unix.Unix_error (EINTR, _, _) -> drain ())
    | _ ->
        Log.info (fun m ->
            m "shutdown: dropping undrained follower output after grace")
  in
  drain ();
  List.iter
    (fun c ->
      (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      close_conn c)
    conns;
  with_lock t.lock (fun () -> t.conns <- [])

(* ---- Lifecycle ---- *)

let bound_addr t = t.addr

let listen_on addr =
  match Addr.to_sockaddr addr with
  | Error e -> Error e
  | Ok sockaddr -> (
      (match addr with
      | Addr.Unix_sock path when Sys.file_exists path -> (
          try Unix.unlink path with Unix.Unix_error _ -> ())
      | _ -> ());
      let fd = Unix.socket ~cloexec:true (Addr.domain addr) Unix.SOCK_STREAM 0 in
      match
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd sockaddr;
        Unix.listen fd 64;
        Unix.set_nonblock fd;
        match (addr, Unix.getsockname fd) with
        | Addr.Tcp (host, 0), Unix.ADDR_INET (_, port) -> Addr.Tcp (host, port)
        | _ -> addr
      with
      | bound -> Ok (fd, bound)
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error
            (Printf.sprintf "cannot listen on %s: %s" (Addr.to_string addr)
               (Unix.error_message e)))

let install_hooks t =
  Fastver.set_replication_hooks t.sys
    ~on_op:(fun ~epoch ~key ~value -> on_op t ~epoch ~key ~value)
    ~on_seal:(fun ~epoch ~cert -> on_seal t ~epoch ~cert)

let create ?(config = default_config) ?(role = Leading) sys ~listen =
  match listen_on listen with
  | Error e -> Error e
  | Ok (listen_fd, addr) ->
      let wake_r, wake_w = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock wake_r;
      Unix.set_nonblock wake_w;
      let module Reg = Fastver_obs.Registry in
      let reg = Fastver.registry sys in
      let run_id =
        (* unique per primary incarnation, so a follower can tell a
           restarted primary from the one it first subscribed to *)
        Int64.logxor
          (Int64.of_float (Unix.gettimeofday () *. 1e6))
          (Int64.shift_left (Int64.of_int (Unix.getpid ())) 40)
      in
      let t =
        {
          sys;
          cfg = config;
          listen_fd;
          addr;
          run_id;
          lock = Mutex.create ();
          log = [];
          floor = Fastver.live_epoch sys;
          sealed = Fastver.verified_epoch sys;
          role;
          term = config.term;
          term_start = Fastver.verified_epoch sys + 1;
          deposed_by = None;
          digests = Hashtbl.create 4;
          batch = [];
          batch_epoch = 0;
          batch_n = 0;
          batch_since = 0.;
          frames = 0;
          enc = Buffer.create 256;
          conns = [];
          wake_r;
          wake_w;
          stopping = false;
          loop_domain = None;
          scratch = Bytes.create 65536;
          m_ops =
            Reg.counter reg ~help:"Ops teed into the replication stream"
              "fastver_repl_ops_streamed_total";
          m_frames =
            Reg.counter reg
              ~help:"Op-carrying frames emitted to the replication stream"
              "fastver_repl_frames_total";
          m_epochs =
            Reg.counter reg
              ~help:"Epoch-boundary records emitted to the replication stream"
              "fastver_repl_epochs_streamed_total";
          m_followers =
            Reg.gauge reg ~help:"Subscribed follower connections"
              "fastver_repl_followers";
          m_lag_bytes =
            Reg.gauge reg
              ~help:"Largest per-follower backlog of unsent stream bytes"
              "fastver_repl_stream_lag_bytes";
          m_term =
            Reg.gauge reg
              ~help:"Replication fencing term this node is operating under"
              "fastver_repl_term";
        }
      in
      Fastver_obs.Gauge.set t.m_term (float_of_int t.term);
      (* A standby is an election candidate: it answers term probes and
         refuses subscribers, but tees nothing until {!promote}. *)
      if role = Leading then install_hooks t;
      Ok t

let run t = loop t
let start t = t.loop_domain <- Some (Domain.spawn (fun () -> loop t))

let stop t =
  if not t.stopping then begin
    t.stopping <- true;
    Fastver.clear_replication_hooks t.sys;
    wake t;
    (match t.loop_domain with
    | Some d ->
        t.loop_domain <- None;
        Domain.join d
    | None -> ());
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ t.listen_fd; t.wake_r; t.wake_w ];
    match t.addr with
    | Addr.Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Addr.Tcp _ -> ()
  end

let sealed_epoch t = with_lock t.lock (fun () -> t.sealed)
let frames_emitted t = with_lock t.lock (fun () -> t.frames)
let followers t = with_lock t.lock (fun () -> List.length t.conns)
let run_id t = t.run_id
let role t = with_lock t.lock (fun () -> t.role)
let term t = with_lock t.lock (fun () -> t.term)
let priority t = t.cfg.priority
let deposed t = with_lock t.lock (fun () -> t.deposed_by)

let take_directive t =
  with_lock t.lock (fun () ->
      let d = t.deposed_by in
      if t.role = Standby then t.deposed_by <- None;
      d)

(* ---- Election transitions ---- *)

(* Promotion in place: install the tee hooks on the live store and start
   serving the stream this listener has been refusing. The follower that
   owns this standby flips its net server out of read-only and re-enables
   auto-sealing around this call. The retained log restarts empty — every
   epoch this primary seals is stamped with the new term, so [term_start]
   is exactly the first post-election epoch and the subscribe-time fencing
   check falls out of it. *)
let promote t ~term =
  with_lock t.lock (fun () ->
      if t.role = Leading then invalid_arg "Primary.promote: already leading";
      t.role <- Leading;
      t.term <- term;
      t.deposed_by <- None;
      t.sealed <- Fastver.verified_epoch t.sys;
      t.floor <- Fastver.live_epoch t.sys;
      t.term_start <- t.sealed + 1;
      t.log <- [];
      t.batch <- [];
      t.batch_n <- 0;
      Hashtbl.reset t.digests;
      Fastver_obs.Gauge.set t.m_term (float_of_int term));
  install_hooks t;
  Log.info (fun m ->
      m "promoted: leading term %d from epoch %d at %s" term
        (with_lock t.lock (fun () -> t.term_start))
        (Addr.to_string t.addr));
  wake t

(* Demotion in place: stop teeing, adopt the deposing term, and cut every
   subscriber loose — they must re-subscribe to whoever deposed us. The
   listener stays up as a standby candidate (it keeps answering probes). *)
let demote t ~term =
  Fastver.clear_replication_hooks t.sys;
  with_lock t.lock (fun () ->
      t.role <- Standby;
      t.term <- max t.term term;
      t.deposed_by <- None;
      List.iter (fun c -> c.dead <- true) t.conns;
      Fastver_obs.Gauge.set t.m_term (float_of_int t.term));
  Log.info (fun m ->
      m "demoted to standby at term %d (%s)"
        (with_lock t.lock (fun () -> t.term))
        (Addr.to_string t.addr));
  wake t

(* ---- Peer probing (election rounds, rival detection, rejoin checks) ---- *)

type peer_info = {
  p_term : int;
  p_sealed : int;
  p_priority : int;
  p_run_id : int64;
  p_primary : bool;
}

let rpc ?(timeout = 2.0) peer req ~k =
  match Client.connect peer with
  | Error e -> `Unreachable e
  | Ok conn ->
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          match
            let id = Client.send conn req in
            Client.expect_id id (Client.recv ~timeout conn)
          with
          | resp -> k resp
          | exception Client.Timeout -> `Unreachable "peer timed out"
          | exception Client.Protocol_error e -> `Unreachable e
          | exception Client.Server_error e -> `Unreachable e
          | exception Unix.Unix_error (e, _, _) ->
              `Unreachable (Unix.error_message e))

(* One [Announce_term] exchange with a peer's replication listener: "here
   is my election state, what is yours?". Total — any failure is just
   [`Unreachable], which election treats as that peer not voting. *)
let announce ?timeout peer ~term ~sealed ~priority ~run_id =
  rpc ?timeout peer (Wire.Announce_term { term; sealed; priority; run_id })
    ~k:(function
    | Wire.Term_info { term; sealed; priority; run_id; primary } ->
        `Info
          {
            p_term = term;
            p_sealed = sealed;
            p_priority = priority;
            p_run_id = run_id;
            p_primary = primary;
          }
    | Wire.Error e -> `Unreachable ("peer refused announce-term: " ^ e)
    | _ -> `Unreachable "unexpected reply to announce-term")

(* Best-effort winner directive: "I am primary for [term] at [self]". *)
let send_promote ?timeout peer ~term ~self =
  rpc ?timeout peer (Wire.Promote { term; addr = Addr.to_string self })
    ~k:(function
    | Wire.Term_info _ -> `Ok
    | Wire.Error e -> `Unreachable ("peer refused promote: " ^ e)
    | _ -> `Unreachable "unexpected reply to promote")
