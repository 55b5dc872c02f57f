let src = Logs.Src.create "fastver.replica.follower" ~doc:"Replication follower"

module Log = (val Logs.src_log src : Logs.LOG)
module Wire = Fastver_net.Wire
module Addr = Fastver_net.Addr
module Client = Fastver_net.Client
module Server = Fastver_net.Server
module Verifier = Fastver_verifier.Verifier

type state = Streaming | Disconnected | Leading | Halted | Stopped

type election = {
  listen : Addr.t;
      (* bound as a standby listener from the start: answers term probes,
         refuses subscribers; serves the stream once promoted *)
  peers : Addr.t list; (* the other candidates' replication addresses *)
  priority : int;
  election_timeout : float;
      (* primary unreachable this long before a candidacy round *)
  probe_timeout : float; (* per-peer announce/promote exchange budget *)
  probe_interval : float; (* leader's rival-probe cadence *)
  promote_batch : int; (* auto-seal cadence re-enabled at promotion *)
  checkpoint_dir : string option; (* auto-checkpoint once leading *)
}

let electable ?(peers = []) ?(priority = 0) ?(election_timeout = 1.0)
    ?(probe_timeout = 1.0) ?(probe_interval = 0.5) ?(promote_batch = 256)
    ?checkpoint_dir listen =
  {
    listen;
    peers;
    priority;
    election_timeout;
    probe_timeout;
    probe_interval;
    promote_batch;
    checkpoint_dir;
  }

let backoff_cap = 5.0

type t = {
  sys : Fastver.t;
  server : Server.t option;
  mutable primary : Addr.t; (* current subscription target *)
  orig_primary : Addr.t; (* as configured: probed so a rejoining deposed
                            primary learns of the new term *)
  chain : Verifier.Cert_chain.t;
  lock : Mutex.t;
  mutable conn : Client.t option;
  mutable state : state;
  mutable failure : (int * string) option;
  mutable run_id : int64 option;
  mutable applied : int;
  mutable max_seen : int; (* highest epoch tag seen in the stream *)
  pending : (int, (string * string option) list) Hashtbl.t;
      (* buffered ops per unsealed epoch, newest first: nothing is applied
         to the store until the epoch's boundary record authenticates *)
  digests : (int, string) Hashtbl.t;
  stop_flag : bool Atomic.t;
  mutable domain : unit Domain.t option;
  reconnect_delay : float; (* backoff base *)
  mutable backoff : float; (* current exponential ceiling, [base, cap] *)
  rng : Random.State.t; (* full jitter: N followers losing one primary
                           must not hammer the candidate in lockstep *)
  handshake_timeout : float;
  mutable term : int;
      (* chain term: the fencing term the newest *authenticated* boundary
         record carried. This — and only this — is what Subscribe claims;
         adopting a term any earlier would let a divergent chain bypass the
         primary's stale-term fence. *)
  mutable seen_term : int;
      (* highest term observed anywhere (acks, probes, boundaries) — a
         candidacy must outbid it *)
  mutable lost_since : float option;
      (* when the primary first became unreachable; election grace timer *)
  election : election option;
  standby : Primary.t option; (* Some iff electable *)
  self_id : int64; (* candidate identity, final election tie-break *)
  m_applied : Fastver_obs.Counter.t;
  m_certs_ok : Fastver_obs.Counter.t;
  m_certs_bad : Fastver_obs.Counter.t;
  m_lag : Fastver_obs.Gauge.t;
  m_elections : Fastver_obs.Counter.t;
  m_promote_s : Fastver_obs.Histogram.t;
}

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn > 0 && go 0

(* ---- Bootstrap conversations ---- *)

(* One deadline-bounded request/response exchange: a half-open primary
   socket (frozen under SIGSTOP, or killed mid-handshake) otherwise parks
   the follower in recv forever. A timeout, a malformed reply or a socket
   error is a failed handshake like any other, which callers answer by
   giving up or reconnecting. *)
let handshake ~timeout what f =
  match f () with
  | r -> r
  | exception Client.Timeout ->
      Error (Printf.sprintf "%s timed out after %.1fs" what timeout)
  | exception Client.Protocol_error e -> Error e
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let subscribe ~timeout conn ~from_epoch ~term =
  handshake ~timeout "subscribe handshake" (fun () ->
      let id = Client.send conn (Wire.Subscribe { from_epoch; term }) in
      match Client.recv ~timeout conn with
      | id', Wire.Subscribed { from_epoch = f; run_id; term }
        when Int64.equal id id' ->
          Ok (`Subscribed (f, run_id, term))
      | id', Wire.Error e when Int64.equal id id' -> Ok (`Refused e)
      | _ -> Error "unexpected response to subscribe")

let valid_component name =
  name <> "" && name <> "." && name <> ".."
  && Filename.basename name = name
  && not (String.contains name '/')

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ()
  end

(* Fetch the primary's newest committed generation into [dir] and recover
   from it. The shipped bytes are untrusted: component names are confined to
   the generation directory and [Fastver.recover] re-verifies the manifest's
   checksums (and the sealed shard layout) before any of it becomes state.
   Also returns the sender's fencing term: the generation's epochs were
   sealed under it, and terms are not persisted inside checkpoints, so the
   bootstrapping follower must claim it when re-subscribing or the primary's
   own stale-term fence sends it straight back here. The field itself is
   unauthenticated — a lie costs availability at the next subscribe, never
   integrity (divergent state still fails the local re-verification scan
   against the streamed certificates). *)
let fetch_checkpoint conn ~config ~dir =
  let timeout = 60.0 in
  handshake ~timeout "checkpoint fetch" @@ fun () ->
  let id = Client.send conn Wire.Fetch_checkpoint in
  match Client.recv ~timeout conn with
  | id', Wire.Checkpoint_reply { generation; files; term } when Int64.equal id id' ->
      let gdir =
        Filename.concat dir
          (Fastver_kvstore.Ckpt_io.generation_dir_name generation)
      in
      if
        Array.for_all (fun (name, _) -> valid_component name) files
        && Array.length files > 0
      then begin
        Fastver_kvstore.Ckpt_io.remove_tree gdir;
        mkdir_p gdir;
        Array.iter
          (fun (name, data) ->
            Out_channel.with_open_bin (Filename.concat gdir name) (fun oc ->
                output_string oc data))
          files;
        Result.map (fun sys -> (sys, term)) (Fastver.recover ~config ~dir ())
      end
      else Error "checkpoint reply contains unsafe file names"
  | id', Wire.Error e when Int64.equal id id' ->
      Error ("checkpoint fetch refused: " ^ e)
  | _ -> Error "unexpected response to checkpoint fetch"

(* ---- Stream handling ---- *)

let gauge_lag t =
  Fastver_obs.Gauge.set t.m_lag
    (float_of_int (max 0 (t.max_seen - Fastver.verified_epoch t.sys)))

let halt t ~epoch reason =
  Mutex.protect t.lock (fun () ->
      if t.failure = None then t.failure <- Some (epoch, reason);
      t.state <- Halted);
  Fastver_obs.Counter.incr t.m_certs_bad;
  (match t.conn with Some c -> Client.close c | None -> ());
  t.conn <- None;
  Log.err (fun m -> m "follower halted at epoch %d: %s" epoch reason);
  raise
    (Fastver.Integrity_violation
       (Printf.sprintf "replication follower halted at epoch %d: %s" epoch
          reason))

let record_op t ~epoch ~key ~value =
  Mutex.protect t.lock (fun () ->
      let digest =
        match Hashtbl.find_opt t.digests epoch with
        | Some d -> d
        | None -> Stream.empty_digest
      in
      Hashtbl.replace t.digests epoch (Stream.fold digest ~epoch ~key ~value);
      Hashtbl.replace t.pending epoch
        ((key, value)
        :: Option.value (Hashtbl.find_opt t.pending epoch) ~default:[]);
      if epoch > t.max_seen then t.max_seen <- epoch);
  gauge_lag t

(* An epoch-boundary record: the commit point for everything streamed under
   this epoch's tag. Nothing was applied yet — a flipped bit in any op (or
   in the certificate itself) halts the follower here, before any client
   could read the altered value. *)
let handle_boundary t ~epoch ~cert ~stream_mac ~term =
  let digest, ops =
    Mutex.protect t.lock (fun () ->
        ( Option.value (Hashtbl.find_opt t.digests epoch)
            ~default:Stream.empty_digest,
          List.rev (Option.value (Hashtbl.find_opt t.pending epoch) ~default:[])
        ))
  in
  (* Fencing: terms only move forward along an authenticated chain. A
     boundary stamped below the chain term is a deposed primary's record
     (or a replay) — reject before any MAC work. *)
  if term < t.term then
    halt t ~epoch
      (Printf.sprintf
         "fencing violation: boundary record for epoch %d carries term %d \
          but the chain is already at term %d"
         epoch term t.term);
  let mac_secret = (Fastver.config t.sys).mac_secret in
  if
    not
      (Stream.check_boundary_mac ~mac_secret ~term ~epoch ~digest
         ~tag:stream_mac)
  then
    halt t ~epoch
      (Printf.sprintf
         "stream MAC mismatch for epoch %d: a streamed op or the boundary \
          record was altered"
         epoch);
  (match Verifier.Cert_chain.check t.chain ~epoch ~cert with
  | Error reason -> halt t ~epoch reason
  | Ok () -> ());
  let local_epoch = Fastver.current_epoch t.sys in
  if local_epoch <> epoch then
    halt t ~epoch
      (Printf.sprintf "epoch desync: follower is at epoch %d, stream sealed %d"
         local_epoch epoch);
  List.iter
    (fun (key, value) ->
      let k = Key.of_bytes32 key in
      (match value with
      | Some v -> Fastver.put_key t.sys k v
      | None -> Fastver.delete_key t.sys k);
      Fastver_obs.Counter.incr t.m_applied)
    ops;
  (* Seal locally: the follower's own verifier re-checks the epoch balance
     over the replayed ops, and its live epoch advances in lockstep with
     the primary's — receipts served from here on are stamped [>= epoch]. *)
  (match Fastver.verify t.sys with
  | _cert -> ()
  | exception Fastver.Integrity_violation e ->
      halt t ~epoch ("local verification failed: " ^ e));
  Mutex.protect t.lock (fun () ->
      Hashtbl.remove t.pending epoch;
      Hashtbl.remove t.digests epoch;
      t.applied <- t.applied + List.length ops;
      if epoch > t.max_seen then t.max_seen <- epoch;
      (* The chain term advances only here: the boundary authenticated, so
         our newest verified epoch really was sealed under [term]. *)
      if term > t.term then t.term <- term;
      if term > t.seen_term then t.seen_term <- term);
  Fastver_obs.Counter.incr t.m_certs_ok;
  gauge_lag t

exception Disconnected_exn

let stream_once t conn =
  match Client.recv conn with
  | _, Wire.Repl_batch { epoch; ops } ->
      (* Fold and buffer each op in order; authentication happens only at
         the boundary record. *)
      Array.iter (fun (key, value) -> record_op t ~epoch ~key ~value) ops
  | _, Wire.Repl_epoch { epoch; cert; stream_mac; term } ->
      handle_boundary t ~epoch ~cert ~stream_mac ~term
  | _, Wire.Error e ->
      Log.warn (fun m -> m "primary sent error mid-stream: %s" e);
      raise Disconnected_exn
  | _, _ -> raise (Client.Protocol_error "unexpected frame on replication stream")

let drop_unsealed t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.reset t.pending;
      Hashtbl.reset t.digests;
      t.max_seen <- Fastver.verified_epoch t.sys)

(* ---- Reconnect pacing: exponential backoff with full jitter ---- *)

(* Sleep until [until] unless stopping, sliced so [stop] never waits out a
   multi-second delay. *)
let rec nap_until t until =
  let left = until -. Unix.gettimeofday () in
  if left > 0.0 && not (Atomic.get t.stop_flag) then begin
    Unix.sleepf (Float.min 0.05 left);
    nap_until t until
  end

(* Sleep uniform(0, backoff) then double the ceiling toward the cap; a
   successful subscribe resets it to the base. *)
let backoff_sleep t =
  let d = Random.State.float t.rng t.backoff in
  t.backoff <- Float.min backoff_cap (t.backoff *. 2.0);
  nap_until t (Unix.gettimeofday () +. d)

let reset_backoff t =
  t.backoff <- t.reconnect_delay;
  t.lost_since <- None

let note_seen_term t term =
  if term > t.seen_term then t.seen_term <- term

(* ---- Election ---- *)

(* A candidate outranks another by (sealed, priority, run-id), compared
   lexicographically. Soundness of leading with the *highest verified
   epoch*: every sealed epoch is chain-authenticated back to the shared
   secret, so the candidate holding the largest one provably contains every
   write any client could have had certified — there is nothing newer to
   lose. Priority and run-id only break exact ties deterministically. *)
let my_rank t e = (Fastver.verified_epoch t.sys, e.priority, t.self_id)

let retarget t ~addr ~term reason =
  Log.app (fun m ->
      m "re-homing to %s (term %d): %s" (Addr.to_string addr) term reason);
  t.primary <- addr;
  note_seen_term t term;
  reset_backoff t

(* Consume a [Promote] directive the standby listener may have received
   from an election winner. *)
let check_directive t =
  match t.standby with
  | None -> ()
  | Some sb -> (
      match Primary.take_directive sb with
      | Some (term, Some addr_s) -> (
          match Addr.parse addr_s with
          | Ok addr -> retarget t ~addr ~term "promote directive from winner"
          | Error _ ->
              Log.warn (fun m ->
                  m "promote directive carried unparseable address %S" addr_s))
      | Some (term, None) -> note_seen_term t term
      | None -> ())

let probe_targets e orig =
  if List.mem orig e.peers then e.peers else orig :: e.peers

(* One candidacy round. Deterministic given the reachable peer set: every
   candidate compares the same (sealed, priority, run-id) tuples, so the
   maximum is the unique winner; unreachable peers simply do not vote
   (a healed partition is reconciled by the leader's rival probes). *)
let run_election t e sb =
  Fastver_obs.Counter.incr t.m_elections;
  let t0 = Unix.gettimeofday () in
  let sealed = Fastver.verified_epoch t.sys in
  let mine = my_rank t e in
  let infos =
    List.filter_map
      (fun peer ->
        match
          Primary.announce ~timeout:e.probe_timeout peer ~term:t.seen_term
            ~sealed ~priority:e.priority ~run_id:t.self_id
        with
        | `Info i -> Some (peer, i)
        | `Unreachable why ->
            Log.debug (fun m ->
                m "election: peer %s unreachable (%s)" (Addr.to_string peer)
                  why);
            None)
      (probe_targets e t.orig_primary)
  in
  match
    List.find_opt
      (fun (_, i) -> i.Primary.p_primary && i.Primary.p_term >= t.seen_term)
      infos
  with
  | Some (peer, i) ->
      (* Someone already leads at a current term: no election needed. *)
      retarget t ~addr:peer ~term:i.Primary.p_term "found a live primary"
  | None ->
      let beaten =
        List.exists
          (fun (_, i) ->
            (i.Primary.p_sealed, i.Primary.p_priority, i.Primary.p_run_id)
            > mine)
          infos
      in
      let max_term =
        List.fold_left
          (fun a (_, i) -> max a i.Primary.p_term)
          (max t.seen_term (Primary.term sb))
          infos
      in
      note_seen_term t max_term;
      if beaten then begin
        (* A better candidate is live: restart the grace timer and let it
           claim the term (we will find it as primary next round, or get
           its Promote directive on the standby listener). *)
        Log.info (fun m ->
            m "election: deferring to a better-ranked candidate (our sealed \
               epoch %d)"
              sealed);
        t.lost_since <- Some (Unix.gettimeofday ())
      end
      else begin
        (* We hold the highest verified epoch among reachable candidates:
           promote in place under a term above everything seen. *)
        let term = max_term + 1 in
        Primary.promote sb ~term;
        Fastver.set_batch_size t.sys e.promote_batch;
        (match e.checkpoint_dir with
        | Some dir -> Fastver.set_auto_checkpoint t.sys ~dir
        | None -> ());
        (match t.server with Some s -> Server.set_read_only s false | None -> ());
        Mutex.protect t.lock (fun () ->
            t.term <- term;
            t.seen_term <- term;
            t.state <- Leading);
        reset_backoff t;
        Fastver_obs.Histogram.record_span t.m_promote_s
          (Unix.gettimeofday () -. t0);
        Log.app (fun m ->
            m
              "elected: promoted to primary for term %d at %s (sealed epoch \
               %d, priority %d)"
              term
              (Addr.to_string e.listen)
              sealed e.priority);
        (* Winner directive, best-effort: losers re-subscribe here and a
           rejoining deposed primary learns it was fenced. *)
        List.iter
          (fun peer ->
            match
              Primary.send_promote ~timeout:e.probe_timeout peer ~term
                ~self:e.listen
            with
            | `Ok | `Unreachable _ -> ())
          (probe_targets e t.orig_primary)
      end

(* Leading → Standby: a rival with a greater claim is primary. Hand the
   write role back, re-enter the follower loop against the rival. *)
let step_down t sb ~term ~addr reason =
  Primary.demote sb ~term;
  Fastver.set_batch_size t.sys 0;
  Fastver.clear_auto_checkpoint t.sys;
  (match t.server with Some s -> Server.set_read_only s true | None -> ());
  Mutex.protect t.lock (fun () ->
      note_seen_term t term;
      t.state <- Disconnected);
  (match addr with
  | Some a -> retarget t ~addr:a ~term reason
  | None -> reset_backoff t);
  Log.app (fun m -> m "stepped down at term %d: %s" term reason)

(* ---- The follower loop ---- *)

let rec run t =
  match Mutex.protect t.lock (fun () -> t.state) with
  | Leading -> lead t
  | Halted | Stopped -> ()
  | Streaming | Disconnected -> (
      match t.conn with
      | None -> reconnect t
      | Some conn -> (
          match stream_once t conn with
          | () -> run t
          | exception
              ( Client.Protocol_error _ | Unix.Unix_error _ | Disconnected_exn
              | Client.Timeout ) ->
              if Atomic.get t.stop_flag then t.state <- Stopped
              else begin
                Log.info (fun m -> m "replication stream lost; reconnecting");
                Client.close conn;
                t.conn <- None;
                t.state <- Disconnected;
                reconnect t
              end))

(* Reconnect with the follower's existing state: drop buffered unsealed
   epochs (the primary replays them in full) and re-subscribe from the first
   epoch we have not verified, claiming the chain term. Refusals split three
   ways: "not primary"/"deposed" peers are retryable (the cluster is mid
   election — back off and, if electable, run a candidacy round once the
   grace timer fires); a floor/stale-term refusal needs a checkpoint
   re-bootstrap (terminal here — restart the follower, as the CLI demotion
   path does); a rollback refusal is integrity evidence and halts. *)
and reconnect t =
  if Atomic.get t.stop_flag then t.state <- Stopped
  else begin
    drop_unsealed t;
    check_directive t;
    if Mutex.protect t.lock (fun () -> t.state) = Leading then lead t
    else begin
      match try_subscribe t with
      | `Streaming -> run t
      | `Retry ->
          (match (t.election, t.standby) with
          | Some e, Some sb -> (
              let now = Unix.gettimeofday () in
              match t.lost_since with
              | None -> t.lost_since <- Some now
              | Some since when now -. since >= e.election_timeout ->
                  run_election t e sb
              | Some _ -> ())
          | _ -> ());
          if Mutex.protect t.lock (fun () -> t.state) = Leading then lead t
          else begin
            backoff_sleep t;
            reconnect t
          end
    end
  end

and try_subscribe t =
  match Client.connect t.primary with
  | Error _ -> `Retry
  | Ok conn -> (
      let from_epoch = Fastver.verified_epoch t.sys + 1 in
      let close_retry () =
        Client.close conn;
        `Retry
      in
      match
        subscribe ~timeout:t.handshake_timeout conn ~from_epoch ~term:t.term
      with
      | Ok (`Subscribed (_, rid, srv_term)) ->
          if srv_term < t.term then begin
            (* An ack below our chain term means this primary never saw the
               election that sealed our newest epoch — a stale (probably
               legacy) incarnation. Do not regress onto it. *)
            Log.warn (fun m ->
                m
                  "primary at %s speaks term %d below our chain term %d; \
                   refusing to regress"
                  (Addr.to_string t.primary) srv_term t.term);
            close_retry ()
          end
          else begin
            note_seen_term t srv_term;
            (match t.run_id with
            | Some old when not (Int64.equal old rid) ->
                Log.warn (fun m ->
                    m
                      "primary restarted (run %Ld -> %Ld); resuming from \
                       epoch %d"
                      old rid from_epoch)
            | _ -> ());
            t.run_id <- Some rid;
            t.conn <- Some conn;
            Mutex.protect t.lock (fun () -> t.state <- Streaming);
            reset_backoff t;
            `Streaming
          end
      | Ok (`Refused e) when contains e "not primary" || contains e "deposed"
        ->
          Log.info (fun m -> m "subscribe refused (%s); will retry" e);
          close_retry ()
      | Ok (`Refused e) ->
          Client.close conn;
          halt t ~epoch:(Fastver.verified_epoch t.sys)
            ("primary refused re-subscription: " ^ e)
      | Error e ->
          Log.info (fun m -> m "subscribe failed (%s); will retry" e);
          close_retry ())

(* The leader loop: stream hooks do the real work; this domain only watches
   for rivals (healed partitions) and deposition evidence, at
   probe_interval cadence. *)
and lead t =
  match (t.election, t.standby) with
  | Some e, Some sb ->
      let rec go () =
        if Atomic.get t.stop_flag then t.state <- Stopped
        else begin
          (match Primary.deposed sb with
          | Some (term, addr_s) ->
              let addr =
                Option.bind addr_s (fun s -> Result.to_option (Addr.parse s))
              in
              step_down t sb ~term ~addr "deposed by a higher term"
          | None ->
              let my =
                ( Primary.term sb,
                  Fastver.verified_epoch t.sys,
                  e.priority,
                  t.self_id )
              in
              List.iter
                (fun peer ->
                  if Mutex.protect t.lock (fun () -> t.state) = Leading then
                    match
                      Primary.announce ~timeout:e.probe_timeout peer
                        ~term:(Primary.term sb)
                        ~sealed:(Fastver.verified_epoch t.sys)
                        ~priority:e.priority ~run_id:t.self_id
                    with
                    | `Info i
                      when i.Primary.p_primary
                           && ( i.Primary.p_term,
                                i.Primary.p_sealed,
                                i.Primary.p_priority,
                                i.Primary.p_run_id )
                              > my ->
                        step_down t sb ~term:i.Primary.p_term
                          ~addr:(Some peer) "rival primary outranks us"
                    | `Info _ | `Unreachable _ -> ())
                (probe_targets e t.orig_primary));
          match Mutex.protect t.lock (fun () -> t.state) with
          | Leading ->
              nap_until t (Unix.gettimeofday () +. e.probe_interval);
              go ()
          | Disconnected -> reconnect t
          | _ -> ()
        end
      in
      go ()
  | _ -> ()

(* ---- Lifecycle ---- *)

let mk ?(reconnect_delay = 0.2) ?(handshake_timeout = 5.0)
    ?election ~init_term ~primary ?listen ~conn ~run_id sys =
  let module Reg = Fastver_obs.Registry in
  let reg = Fastver.registry sys in
  Reg.counter_fn reg ~help:"Validated reads served by this follower"
    "fastver_repl_follower_reads_total" (fun () ->
      (Fastver.stats sys).gets + (Fastver.stats sys).scans);
  let server =
    match listen with
    | None -> Ok None
    | Some addr -> (
        let config = { Server.default_config with read_only = true } in
        match Server.create ~config sys ~listen:addr with
        | Ok s ->
            Server.start s;
            Ok (Some s)
        | Error e -> Error e)
  in
  let standby =
    match (server, election) with
    | Error _, _ | _, None -> Ok None
    | Ok _, Some e -> (
        let pconfig =
          { Primary.checkpoint_dir = e.checkpoint_dir; priority = e.priority }
        in
        match Primary.create ~config:pconfig ~role:Primary.Standby sys
                ~listen:e.listen
        with
        | Ok sb ->
            Primary.start sb;
            Ok (Some sb)
        | Error err -> Error ("cannot bind election listener: " ^ err))
  in
  match (server, standby) with
  | Error e, _ | _, Error e -> Error e
  | Ok server, Ok standby ->
      let rng = Random.State.make_self_init () in
      Ok
        {
          sys;
          server;
          primary;
          orig_primary = primary;
          chain =
            Verifier.Cert_chain.create
              ~mac_secret:(Fastver.config sys).mac_secret
              ~verified:(Fastver.verified_epoch sys);
          lock = Mutex.create ();
          conn = Some conn;
          state = Streaming;
          failure = None;
          run_id = Some run_id;
          applied = 0;
          max_seen = Fastver.verified_epoch sys;
          pending = Hashtbl.create 4;
          digests = Hashtbl.create 4;
          stop_flag = Atomic.make false;
          domain = None;
          reconnect_delay;
          backoff = reconnect_delay;
          rng;
          handshake_timeout;
          term = init_term;
          seen_term = init_term;
          lost_since = None;
          election;
          standby;
          self_id =
            Int64.logxor
              (Int64.of_float (Unix.gettimeofday () *. 1e6))
              (Random.State.int64 rng Int64.max_int);
          m_applied =
            Reg.counter reg ~help:"Replicated ops applied after verification"
              "fastver_repl_ops_applied_total";
          m_certs_ok =
            Reg.counter reg ~help:"Epoch boundary records that authenticated"
              "fastver_repl_certs_verified_total";
          m_certs_bad =
            Reg.counter reg ~help:"Epoch boundary records rejected"
              "fastver_repl_certs_rejected_total";
          m_lag =
            Reg.gauge reg
              ~help:"Epochs seen in the stream but not yet verified locally"
              "fastver_repl_lag_epochs";
          m_elections =
            Reg.counter reg ~help:"Election rounds started by this node"
              "fastver_repl_elections_total";
          m_promote_s =
            Reg.histogram reg ~scale:1e-9
              ~help:
                "Election-start to serving-writes latency of in-place \
                 promotions"
              "fastver_repl_promotion_seconds";
        }

let create ?reconnect_delay ?handshake_timeout ?election
    ?(config = Fastver.Config.default) ?load ~primary ?listen ~dir () =
  (* A follower never seals epochs on its own: batch-triggered auto
     verification is disabled; epochs advance only at authenticated
     boundary records (until an election promotes it). *)
  let config = { config with Fastver.Config.batch_size = 0 } in
  let hs_timeout = Option.value handshake_timeout ~default:5.0 in
  match Client.connect primary with
  | Error e -> Error e
  | Ok conn ->
      let ( let* ) = Result.bind in
      (* A fresh follower's state reflects no sealed epoch: subscribe from
         0 at term 0. If the primary's retained stream starts later,
         bootstrap from its newest committed checkpoint generation and tail
         from the sealed epoch — exactly the recovery path a restarted
         primary takes. *)
      let result =
        let* first = subscribe ~timeout:hs_timeout conn ~from_epoch:0 ~term:0 in
        let* sys, init_term, run_id =
          match first with
          | `Subscribed (_, run_id, _) ->
              let sys = Fastver.create ~config () in
              Option.iter (fun f -> f sys) load;
              Ok (sys, 0, run_id)
          | `Refused reason when not (contains reason "fetch a checkpoint") ->
              Error ("primary refused subscription: " ^ reason)
          | `Refused _ -> (
              let* sys, ck_term = fetch_checkpoint conn ~config ~dir in
              let from_epoch = Fastver.verified_epoch sys + 1 in
              Log.app (fun m ->
                  m
                    "bootstrapped from primary checkpoint (verified epoch %d, \
                     term %d); tailing from %d"
                    (Fastver.verified_epoch sys)
                    ck_term from_epoch);
              let* again =
                subscribe ~timeout:hs_timeout conn ~from_epoch ~term:ck_term
              in
              match again with
              | `Subscribed (_, run_id, _) -> Ok (sys, ck_term, run_id)
              | `Refused e ->
                  Error ("primary refused post-checkpoint subscription: " ^ e))
        in
        mk ?reconnect_delay ?handshake_timeout ?election
          ~init_term ~primary ?listen ~conn ~run_id sys
      in
      if Result.is_error result then Client.close conn;
      result

let start t =
  t.domain <-
    Some
      (Domain.spawn (fun () ->
           match run t with
           | () -> ()
           | exception Fastver.Integrity_violation _ ->
               () (* evidence preserved in [failure t]; reads keep serving *)
           | exception e ->
               Log.err (fun m ->
                   m "follower stream loop died: %s" (Printexc.to_string e))))

let stop t =
  Atomic.set t.stop_flag true;
  (match t.conn with Some c -> Client.close c | None -> ());
  (match t.domain with
  | Some d ->
      t.domain <- None;
      Domain.join d
  | None -> ());
  (match t.standby with Some sb -> Primary.stop sb | None -> ());
  (match t.server with Some s -> Server.stop s | None -> ());
  t.state <- Stopped

let system t = t.sys
let server t = t.server
let state t = Mutex.protect t.lock (fun () -> t.state)
let failure t = Mutex.protect t.lock (fun () -> t.failure)
let verified_epoch t = Fastver.verified_epoch t.sys
let applied_ops t = Mutex.protect t.lock (fun () -> t.applied)
let run_id t = t.run_id
let term t = Mutex.protect t.lock (fun () -> t.term)
let standby t = t.standby
