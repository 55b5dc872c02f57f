let src = Logs.Src.create "fastver.replica.primary" ~doc:"Replication primary"

module Log = (val Logs.src_log src : Logs.LOG)
module Wire = Fastver_net.Wire
module Reactor = Fastver_net.Reactor
module Addr = Fastver_net.Addr

type config = { checkpoint_dir : string option; priority : int }

let default_config = { checkpoint_dir = None; priority = 0 }

(* Sealed epochs kept replayable for tailing subscribers; anything older
   must catch up via checkpoint fetch. *)
let retain_epochs = 64

(* A follower whose unsent backlog exceeds this is disconnected rather
   than allowed to pin unbounded memory. *)
let conn_out_limit = 64 * 1024 * 1024

(* Ops coalesced into one [Repl_batch] frame before a forced flush, and
   the longest a buffered op waits for its frame. *)
let batch_ops = 512
let batch_delay = 0.02

type role = Leading | Standby

(* Per-connection state, private to the loop domain. *)
type peer = { mutable subscribed : bool }

type t = {
  sys : Fastver.t;
  cfg : config;
  reactor : peer Reactor.t;
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
  mutable deposed_by : (int * Addr.t option) option;
      (* evidence of a higher term: a peer spoke from one (optionally
         naming the new primary's address). A leader's owner reads it
         through {!deposed} and demotes once a primary at that term
         answers; a standby's reads it as a directive to re-home. *)
  digests : (int, string) Hashtbl.t; (* per-open-epoch running digest *)
  mutable batch : (string * string option) list;
      (* ops buffered toward the next [Repl_batch] frame, newest first;
         all batch fields under [t.lock] *)
  mutable batch_epoch : int; (* epoch every buffered op belongs to *)
  mutable batch_n : int;
  mutable batch_since : float; (* arrival time of the oldest buffered op *)
  mutable frames : int; (* op-carrying stream frames emitted so far *)
  enc : Buffer.t; (* frame encode scratch, under [t.lock] *)
  outbox : string Queue.t;
      (* frames teed since the loop's last fan-out, under [t.lock]: the
         hooks only append here and wake the loop, which alone touches
         connections *)
  mutable domain : unit Domain.t option;
  m_ops : Fastver_obs.Counter.t;
  m_frames : Fastver_obs.Counter.t;
  m_epochs : Fastver_obs.Counter.t;
  m_followers : Fastver_obs.Gauge.t;
  m_lag_bytes : Fastver_obs.Gauge.t;
  m_term : Fastver_obs.Gauge.t;
}

(* Queue a frame to one connection; a follower that cannot drain
   [conn_out_limit] bytes of backlog is cut off (it will re-subscribe, or
   re-bootstrap from a checkpoint if it fell past the retained floor).
   Loop domain only. *)
let enqueue c frame =
  if Reactor.is_open c then begin
    Reactor.send c frame;
    if Reactor.out_bytes c > conn_out_limit then begin
      Log.warn (fun m ->
          m "follower too slow (%d bytes queued): dropping connection"
            (Reactor.out_bytes c));
      Reactor.drop c
    end
  end

let subscribers t =
  List.filter (fun c -> (Reactor.data c).subscribed) (Reactor.conns t.reactor)

let fan_out frames subscribed =
  if not (Queue.is_empty frames) then
    List.iter (fun c -> Queue.iter (enqueue c) frames) subscribed

let take_outbox t =
  let q = Queue.create () in
  Queue.transfer t.outbox q;
  q

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
    Queue.push frame t.outbox
  end

(* ---- Tee hooks (see Fastver.set_replication_hooks for the contract) ---- *)

let on_op t ~epoch ~key ~value =
  let key = Key.to_bytes32 key in
  let now = Unix.gettimeofday () in
  let want_wake =
    Mutex.protect t.lock (fun () ->
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
             select deadline to the batch_delay time cap. *)
          t.batch_n = 1)
  in
  if want_wake then Reactor.wake t.reactor

let on_seal t ~epoch ~cert =
  Mutex.protect t.lock (fun () ->
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
      Queue.push frame t.outbox;
      let new_floor = epoch - retain_epochs + 1 in
      if new_floor > t.floor then begin
        t.floor <- new_floor;
        t.log <- List.filter (fun (e, _) -> e >= new_floor) t.log
      end);
  Reactor.wake t.reactor

(* ---- Request handling (loop domain) ---- *)

let reply c ~id resp = enqueue c (Wire.encode_response ~id resp)

let handle_subscribe t c ~id ~from_epoch ~term:sub_term =
  let verdict =
    Mutex.protect t.lock (fun () ->
        if t.role = Standby then
          Error
            (Printf.sprintf "not primary: standby candidate at term %d" t.term)
        else if sub_term > t.term then begin
          (* The subscriber verified an epoch sealed under a term this
             primary has never seen: an election happened behind our back,
             so *we* are the deposed one. Record the evidence (the owner
             demotes) and refuse — accepting would fork the chain. *)
          if t.deposed_by = None then t.deposed_by <- Some (sub_term, None);
          Error
            (Printf.sprintf
               "deposed: subscriber speaks term %d, this primary is at term %d"
               sub_term t.term)
        end
        else if sub_term < t.term && from_epoch - 1 >= t.term_start then
          (* Fencing: the subscriber claims verified epochs that this
             primary (re-)sealed under a newer term, but its own chain for
             them was sealed under an older one — a deposed primary's
             descendant. Its state may diverge from ours at those epochs,
             so replaying the retained tail is unsound: it must discard and
             re-bootstrap. *)
          Error
            (Printf.sprintf
               "stale term %d: epochs from %d were re-sealed under term %d — \
                fetch a checkpoint"
               sub_term t.term_start t.term)
        else if from_epoch < t.floor then
          Error
            (Printf.sprintf
               "subscribe from epoch %d predates the retained stream (floor \
                %d): fetch a checkpoint"
               from_epoch t.floor)
        else if from_epoch > t.sealed + 1 then
          Error
            (Printf.sprintf
               "subscribe from epoch %d is ahead of this primary (next \
                boundary is %d): possible primary rollback"
               from_epoch (t.sealed + 1))
        else begin
          (* Snapshot the log, complete up to this instant once the open
             batch is flushed, together with the frames not yet fanned
             out: those are in the snapshot, so they go to the earlier
             subscribers only, and every later frame reaches this one
             through the outbox — none is duplicated or skipped. *)
          flush_batch t;
          let replay =
            List.filter_map
              (fun (e, frame) -> if e >= from_epoch then Some frame else None)
              (List.rev t.log)
          in
          Ok (take_outbox t, replay, t.term)
        end)
  in
  match verdict with
  | Error e -> reply c ~id (Wire.Error e)
  | Ok (unsent, replay, term) ->
      fan_out unsent (subscribers t);
      reply c ~id (Wire.Subscribed { from_epoch; run_id = t.run_id; term });
      List.iter (enqueue c) replay;
      (Reactor.data c).subscribed <- true

(* What a subscriber does about each refusal [handle_subscribe] writes: a
   standby or a deposed primary may lead again after an election, a fenced
   or floor-passed subscriber must replace its store, and anything else
   (a subscriber ahead of us: a rolled-back primary) is evidence. *)
let refusal e =
  if String.starts_with ~prefix:"not primary" e
     || String.starts_with ~prefix:"deposed" e
  then `Retry
  else if String.ends_with ~suffix:"fetch a checkpoint" e then `Rebootstrap
  else `Halt

(* Ship one checkpoint generation that has a manifest: the newest one, or
   the one a follower names while walking a delta chain back to its base.
   The follower re-verifies every checksum and chain link through the
   normal recovery path, so nothing about this transport is trusted — a
   torn or tampered shipment is caught exactly like a torn or tampered
   local generation. *)
let checkpoint_reply t ~generation =
  let module Ckpt_io = Fastver_kvstore.Ckpt_io in
  match t.cfg.checkpoint_dir with
  | None -> Wire.Error "primary has no checkpoint directory configured"
  | Some dir -> (
      let gens =
        List.filter
          (fun (g, gdir) ->
            Sys.file_exists (Filename.concat gdir Ckpt_io.Manifest.filename)
            && match generation with Some n -> g = n | None -> true)
          (Ckpt_io.generations dir)
      in
      match gens with
      | [] -> (
          match generation with
          | None -> Wire.Error "primary has no committed checkpoint generation yet"
          | Some n ->
              Wire.Error (Printf.sprintf "primary has no generation %d" n))
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
                (List.map
                   (fun n ->
                     ( n,
                       In_channel.with_open_bin (Filename.concat gdir n)
                         In_channel.input_all ))
                   names)
            in
            let total =
              Array.fold_left (fun a (_, d) -> a + String.length d) 0 files
            in
            if total + 4096 > Wire.max_frame then
              Wire.Error "checkpoint generation too large to stream"
            else
              Wire.Checkpoint_reply
                { generation = gen; files; term = Mutex.protect t.lock (fun () -> t.term) }
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
  reply c ~id
  @@ Mutex.protect t.lock (fun () ->
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
      term_info_locked t)

let handle_promote t c ~id ~term ~addr =
  let named = Result.to_option (Addr.parse addr) in
  reply c ~id
  @@ Mutex.protect t.lock (fun () ->
      (match t.role with
      | Leading ->
          if term > t.term && t.deposed_by = None then begin
            Log.warn (fun m ->
                m "deposed: peer promoted to term %d (serving at %s)" term addr);
            t.deposed_by <- Some (term, named)
          end
      | Standby ->
          if term >= t.term then begin
            t.term <- max t.term term;
            Fastver_obs.Gauge.set t.m_term (float_of_int t.term);
            if t.deposed_by = None then t.deposed_by <- Some (term, named)
          end);
      term_info_locked t)

let handle_request t c ~id req =
  match (req : Wire.request) with
  | Wire.Subscribe { from_epoch; term } ->
      handle_subscribe t c ~id ~from_epoch ~term
  | Wire.Fetch_checkpoint -> reply c ~id (checkpoint_reply t ~generation:None)
  | Wire.Fetch_generation { generation } ->
      reply c ~id (checkpoint_reply t ~generation:(Some generation))
  | Wire.Announce_term { term; sealed; priority; run_id } ->
      handle_announce t c ~id ~term ~sealed ~priority ~run_id
  | Wire.Promote { term; addr } -> handle_promote t c ~id ~term ~addr
  | _ -> reply c ~id (Wire.Error "not a replication opcode")

(* ---- The loop ---- *)

let input t c = function
  | Error e ->
      Log.info (fun m -> m "malformed replication frame: %s" e);
      reply c ~id:0L (Wire.Error ("malformed frame: " ^ e))
  | Ok payload -> (
      match Wire.decode_request payload with
      | Error e ->
          reply c ~id:0L (Wire.Error ("malformed request: " ^ e));
          Reactor.close c
      | Ok (id, req) -> handle_request t c ~id req)

(* Every pass: send an aged batch on its way, then fan the teed frames out
   to the subscribers — or, once demoted, cut them loose so they re-home
   to whoever deposed us. The gauges sample the connections as the
   previous pass left them, after its writes and reaping. *)
let pass t () =
  let conns = Reactor.conns t.reactor and subscribed = subscribers t in
  Fastver_obs.Gauge.set t.m_followers
    (float_of_int (List.length (List.filter Reactor.is_open subscribed)));
  Fastver_obs.Gauge.set t.m_lag_bytes
    (float_of_int (List.fold_left (fun a c -> max a (Reactor.out_bytes c)) 0 conns));
  let frames, leading =
    Mutex.protect t.lock (fun () ->
        if t.batch_n > 0 && Unix.gettimeofday () -. t.batch_since >= batch_delay
        then flush_batch t;
        (take_outbox t, t.role = Leading))
  in
  if not leading then List.iter Reactor.drop subscribed;
  fan_out frames subscribed

let handlers t =
  {
    Reactor.accept = (fun () -> { subscribed = false });
    input = input t;
    wants_input = (fun _ -> true);
    settled = (fun _ -> true);
    pass = pass t;
    deadline =
      (fun () ->
        Mutex.protect t.lock (fun () ->
            if t.batch_n > 0 then Some (t.batch_since +. batch_delay) else None));
    closed = (fun _ -> ());
  }

(* ---- Lifecycle ---- *)

let bound_addr t = Reactor.addr t.reactor

let install_hooks t =
  Fastver.set_replication_hooks t.sys
    ~on_op:(fun ~epoch ~key ~value -> on_op t ~epoch ~key ~value)
    ~on_seal:(fun ~epoch ~cert -> on_seal t ~epoch ~cert)

let create ?(config = default_config) ?(role = Leading) sys ~listen =
  match Reactor.listen (Fastver.registry sys) listen with
  | Error e -> Error e
  | Ok reactor ->
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
          reactor;
          run_id;
          lock = Mutex.create ();
          log = [];
          floor = Fastver.live_epoch sys;
          sealed = Fastver.verified_epoch sys;
          role;
          term = 0;
          term_start = Fastver.verified_epoch sys + 1;
          deposed_by = None;
          digests = Hashtbl.create 4;
          batch = [];
          batch_epoch = 0;
          batch_n = 0;
          batch_since = 0.;
          frames = 0;
          enc = Buffer.create 256;
          outbox = Queue.create ();
          domain = None;
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

let start t =
  t.domain <- Some (Domain.spawn (fun () -> Reactor.run t.reactor (handlers t)))

let stop t =
  if Reactor.stop t.reactor then begin
    Fastver.clear_replication_hooks t.sys;
    (match t.domain with Some d -> Domain.join d | None -> ());
    t.domain <- None;
    Reactor.shutdown t.reactor
  end

let frames_emitted t = Mutex.protect t.lock (fun () -> t.frames)
let run_id t = t.run_id
let term t = Mutex.protect t.lock (fun () -> t.term)

let deposed t =
  Mutex.protect t.lock (fun () ->
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
  Mutex.protect t.lock (fun () ->
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
        (Mutex.protect t.lock (fun () -> t.term_start))
        (Addr.to_string (bound_addr t)));
  Reactor.wake t.reactor

(* Demotion in place: stop teeing, adopt the deposing term, and cut every
   subscriber loose — they must re-subscribe to whoever deposed us. The
   listener stays up as a standby candidate (it keeps answering probes). *)
let demote t ~term =
  Fastver.clear_replication_hooks t.sys;
  Mutex.protect t.lock (fun () ->
      t.role <- Standby;
      t.term <- max t.term term;
      t.deposed_by <- None;
      Queue.clear t.outbox;
      Fastver_obs.Gauge.set t.m_term (float_of_int t.term));
  Log.info (fun m ->
      m "demoted to standby at term %d (%s)"
        (Mutex.protect t.lock (fun () -> t.term))
        (Addr.to_string (bound_addr t)));
  Reactor.wake t.reactor
