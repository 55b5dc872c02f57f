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

type metrics = {
  m_applied : Fastver_obs.Counter.t;
  m_certs_ok : Fastver_obs.Counter.t;
  m_certs_bad : Fastver_obs.Counter.t;
  m_lag : Fastver_obs.Gauge.t;
  m_elections : Fastver_obs.Counter.t;
  m_promote_s : Fastver_obs.Histogram.t;
}

(* Where a leader began: verified epoch, store puts and chain term. *)
type led_from = { epoch : int; puts : int; chain_term : int }

type t = {
  config : Fastver.Config.t; (* a re-bootstrapped store's, batch_size 0 *)
  load : (Fastver.t -> unit) option;
  dir : string; (* fetched checkpoint generations land under it *)
  listen : Addr.t option; (* the read server's address *)
  mutable sys : Fastver.t;
  mutable server : Server.t option;
  mutable standby : Primary.t option;
      (* Some iff electable, unless a re-bootstrap could not rebind it *)
  mutable chain : Verifier.Cert_chain.t;
  mutable m : metrics;
  mutable primary : Addr.t; (* current subscription target *)
  orig_primary : Addr.t; (* as configured: probed so a rejoining deposed
                            primary learns of the new term *)
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
  self_id : int64; (* candidate identity, final election tie-break *)
  mutable led_from : led_from option;
      (* while leading, and after stepping down until streaming again *)
  mutable rebootstrap : bool;
      (* the store may hold state outside the cluster's history: no reads
         are served from it, and the next connection bootstraps anew *)
  mutable fetched : string option; (* the rejoin directory of [sys] *)
}

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

(* Fetch the primary's newest committed generation into [dir], then each
   parent its MANIFEST names back to the chain's base (one generation per
   reply), and recover from them. The shipped bytes are untrusted:
   component names are confined to the generation directory and
   [Fastver.recover] re-verifies every manifest's checksums, every parent
   link (and the sealed shard layout) before any of it becomes state. A
   manifest's parent number is always below its own generation, so the
   walk ends.
   Also returns the sender's fencing term: the generation's epochs were
   sealed under it, and terms are not persisted inside checkpoints, so the
   bootstrapping follower must claim it when re-subscribing or the primary's
   own stale-term fence sends it straight back here. The field itself is
   unauthenticated — a lie costs availability at the next subscribe, never
   integrity (divergent state still fails the local re-verification scan
   against the streamed certificates). *)
let fetch_checkpoint conn ~config ~dir =
  let module Ckpt_io = Fastver_kvstore.Ckpt_io in
  let timeout = 60.0 in
  let rec fetch ~tip_term want =
    let req =
      match want with
      | None -> Wire.Fetch_checkpoint
      | Some generation -> Wire.Fetch_generation { generation }
    in
    let id = Client.send conn req in
    match Client.recv ~timeout conn with
    | id', Wire.Checkpoint_reply { generation; files; term }
      when Int64.equal id id'
           && Option.fold ~none:true ~some:(( = ) generation) want ->
        let gdir = Filename.concat dir (Ckpt_io.generation_dir_name generation) in
        if
          Array.for_all (fun (name, _) -> valid_component name) files
          && Array.length files > 0
        then begin
          Ckpt_io.remove_tree gdir;
          mkdir_p gdir;
          Array.iter
            (fun (name, data) ->
              Out_channel.with_open_bin (Filename.concat gdir name) (fun oc ->
                  output_string oc data))
            files;
          let tip_term = Option.value tip_term ~default:term in
          match Ckpt_io.Manifest.read ~dir:gdir with
          | Ok { parent = Some (p, _); _ } -> fetch ~tip_term:(Some tip_term) (Some p)
          | Ok { parent = None; _ } | Error _ -> Ok tip_term
        end
        else Error "checkpoint reply contains unsafe file names"
    | id', Wire.Error e when Int64.equal id id' ->
        Error ("checkpoint fetch refused: " ^ e)
    | _ -> Error "unexpected response to checkpoint fetch"
  in
  handshake ~timeout "checkpoint fetch" @@ fun () ->
  Result.bind (fetch ~tip_term:None None) (fun term ->
      Result.map (fun sys -> (sys, term)) (Fastver.recover ~config ~dir ()))

let primary_config (e : election) =
  { Primary.checkpoint_dir = e.checkpoint_dir; priority = e.priority }

(* Bootstrap a store on a new connection. Subscribe from epoch 0 at term 0:
   if the primary still retains epoch 0, install the initial database with
   [load] and replay the stream; otherwise fetch the newest committed
   checkpoint generation into [dir], recover it and tail from its epoch —
   the recovery path a restarted primary takes. Returns the store, its
   chain term and the primary's run id. *)
let bootstrap ~timeout ~config ~load ~dir conn =
  let ( let* ) = Result.bind in
  let* first = subscribe ~timeout conn ~from_epoch:0 ~term:0 in
  match first with
  | `Subscribed (_, run_id, _) -> (
      match Fastver.create ~config () with
      | exception Invalid_argument e -> Error e
      | sys ->
          Option.iter (fun f -> f sys) load;
          Ok (sys, 0, run_id))
  | `Refused reason when Primary.refusal reason <> `Rebootstrap ->
      Error ("primary refused subscription: " ^ reason)
  | `Refused _ -> (
      let* sys, ck_term = fetch_checkpoint conn ~config ~dir in
      let from_epoch = Fastver.verified_epoch sys + 1 in
      Log.app (fun m ->
          m
            "bootstrapped from primary checkpoint (verified epoch %d, term \
             %d); tailing from %d"
            (Fastver.verified_epoch sys)
            ck_term from_epoch);
      let* again = subscribe ~timeout conn ~from_epoch ~term:ck_term in
      match again with
      | `Subscribed (_, run_id, _) -> Ok (sys, ck_term, run_id)
      | `Refused e -> Error ("primary refused post-checkpoint subscription: " ^ e))

let metrics sys =
  let module Reg = Fastver_obs.Registry in
  let reg = Fastver.registry sys in
  Reg.counter_fn reg ~help:"Validated reads served by this follower"
    "fastver_repl_follower_reads_total" (fun () ->
      (Fastver.stats sys).gets + (Fastver.stats sys).scans);
  {
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
          "Election-start to serving-writes latency of in-place promotions"
        "fastver_repl_promotion_seconds";
  }

let new_chain sys =
  Verifier.Cert_chain.create ~mac_secret:(Fastver.config sys).mac_secret
    ~verified:(Fastver.verified_epoch sys)

(* ---- Stream handling ---- *)

let gauge_lag t =
  Fastver_obs.Gauge.set t.m.m_lag
    (float_of_int (max 0 (t.max_seen - Fastver.verified_epoch t.sys)))

let halt t ~epoch reason =
  Mutex.protect t.lock (fun () ->
      if t.failure = None then t.failure <- Some (epoch, reason);
      t.state <- Halted);
  Fastver_obs.Counter.incr t.m.m_certs_bad;
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
      Fastver_obs.Counter.incr t.m.m_applied)
    ops;
  (* counted before the local scan makes the epoch visible as verified, so
     a reader that sees the epoch also sees its ops *)
  Mutex.protect t.lock (fun () -> t.applied <- t.applied + List.length ops);
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
      if epoch > t.max_seen then t.max_seen <- epoch;
      (* The chain term advances only here: the boundary authenticated, so
         our newest verified epoch really was sealed under [term]. *)
      if term > t.term then t.term <- term;
      if term > t.seen_term then t.seen_term <- term);
  Fastver_obs.Counter.incr t.m.m_certs_ok;
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

let state t = Mutex.protect t.lock (fun () -> t.state)

(* Subscribed on [conn]: stream from here on. *)
let streaming t conn ~run_id ~term =
  t.run_id <- Some run_id;
  t.conn <- Some conn;
  Mutex.protect t.lock (fun () -> t.state <- Streaming);
  reset_backoff t;
  if t.led_from <> None then begin
    t.led_from <- None;
    Log.app (fun m ->
        m "demoted: serving verified reads as a follower of %s (term %d)"
          (Addr.to_string t.primary) term)
  end

(* ---- Listeners ---- *)

(* Stop the read server. Its stop drains every request it already
   admitted, so no put reaches the store after this returns. *)
let close_reads t =
  Option.iter Server.stop t.server;
  t.server <- None

(* Serve the current store on the read address, binding a new server if
   none runs. *)
let open_reads t ~read_only =
  match (t.server, t.listen) with
  | Some s, _ -> Ok (Server.set_read_only s read_only)
  | None, None -> Ok ()
  | None, Some addr ->
      Server.create ~config:{ Server.default_config with read_only } t.sys
        ~listen:addr
      |> Result.map (fun s ->
             Server.start s;
             t.server <- Some s)

let log_error = Result.iter_error (fun e -> Log.err (fun m -> m "%s" e))

(* A freshly bootstrapped store's listeners: the read-only server and, if
   electable, the standby. *)
let open_listeners t =
  let ( let* ) = Result.bind in
  let* () = open_reads t ~read_only:true in
  match t.election with
  | None -> Ok ()
  | Some e ->
      Primary.create ~config:(primary_config e) ~role:Primary.Standby t.sys
        ~listen:e.listen
      |> Result.map_error (fun err -> "cannot bind election listener: " ^ err)
      |> Result.map (fun sb ->
             Primary.start sb;
             t.standby <- Some sb)

(* ---- Election ---- *)

let retarget t ~addr ~term reason =
  Log.app (fun m ->
      m "re-homing to %s (term %d): %s" (Addr.to_string addr) term reason);
  t.primary <- addr;
  note_seen_term t term;
  reset_backoff t

(* Act on a [Promote] directive the standby listener may have received
   from an election winner. *)
let check_directive t =
  match Option.bind t.standby Primary.deposed with
  | Some (term, Some addr) ->
      retarget t ~addr ~term "promote directive from winner"
  | Some (term, None) -> note_seen_term t term
  | None -> ()

(* One exchange with a peer's replication listener ([Announce_term] or
   [Promote]; both answer [Term_info]) on its own connection, giving the
   peer's term, whether it leads, and its candidate rank. Total: any
   failure is [None], and election treats that peer as not voting. *)
let ask ~timeout peer req =
  match Client.connect peer with
  | Error _ -> None
  | Ok conn -> (
      Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
      match
        handshake ~timeout "peer probe" (fun () ->
            let id = Client.send conn req in
            Ok (Client.expect_id id (Client.recv ~timeout conn)))
      with
      | Ok (Wire.Term_info { term; sealed; priority; run_id; primary }) ->
          Some (term, primary, (sealed, priority, run_id))
      | Ok _ | Error _ -> None)

(* The configured primary and the peers, never this node's own listener. *)
let probe_targets t (e : election) =
  List.filter (( <> ) e.listen)
    (if List.mem t.orig_primary e.peers then e.peers
     else t.orig_primary :: e.peers)

(* The election state of every reachable target. *)
let survey t (e : election) ~term targets =
  let sealed = Fastver.verified_epoch t.sys in
  List.filter_map
    (fun peer ->
      ask ~timeout:e.probe_timeout peer
        (Wire.Announce_term
           { term; sealed; priority = e.priority; run_id = t.self_id })
      |> Option.map (fun i -> (peer, i)))
    targets

(* Where this node begins leading, compared at step-down by {!watch}. *)
let led_from t =
  {
    epoch = Fastver.verified_epoch t.sys;
    puts = (Fastver.stats t.sys).puts;
    chain_term = t.term;
  }

(* A candidate outranks another by (sealed, priority, run-id), compared
   lexicographically. Soundness of leading with the *highest verified
   epoch*: every sealed epoch is chain-authenticated back to the shared
   secret, so the candidate holding the largest one provably contains every
   write any client could have had certified — there is nothing newer to
   lose. Priority and run-id only break exact ties deterministically. A
   leader meeting a rival leader puts the term first. *)
let rank t (e : election) = (Fastver.verified_epoch t.sys, e.priority, t.self_id)

(* One candidacy round. Deterministic given the reachable peer set: every
   candidate compares the same ranks, so the maximum is the unique winner;
   unreachable peers simply do not vote (a healed partition is reconciled
   by the leader's rival probes). A node with nothing to probe is no
   candidate, nor is one without a standby listener; they only look for a
   live primary. *)
let run_election t e =
  Fastver_obs.Counter.incr t.m.m_elections;
  let t0 = Unix.gettimeofday () in
  let targets = probe_targets t e in
  let infos = survey t e ~term:t.seen_term targets in
  match
    ( List.find_opt
        (fun (_, (term, primary, _)) -> primary && term >= t.seen_term)
        infos,
      t.standby )
  with
  | Some (peer, (term, _, _)), _ ->
      (* Someone already leads at a current term: no election needed. *)
      retarget t ~addr:peer ~term "found a live primary"
  | None, Some sb when targets <> [] ->
      let sealed = Fastver.verified_epoch t.sys in
      let max_term =
        List.fold_left
          (fun a (_, (term, _, _)) -> max a term)
          (max t.seen_term (Primary.term sb))
          infos
      in
      note_seen_term t max_term;
      if List.exists (fun (_, (_, _, r)) -> r > rank t e) infos then begin
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
        t.led_from <- Some (led_from t);
        Primary.promote sb ~term;
        Fastver.set_batch_size t.sys e.promote_batch;
        Option.iter (fun dir -> Fastver.set_auto_checkpoint t.sys ~dir)
          e.checkpoint_dir;
        (* a store awaiting re-bootstrap may lead again: it may hold the
           highest sealed epoch still reachable *)
        t.rebootstrap <- false;
        log_error (open_reads t ~read_only:false);
        Mutex.protect t.lock (fun () ->
            t.term <- term;
            t.seen_term <- term;
            t.state <- Leading);
        reset_backoff t;
        Fastver_obs.Histogram.record_span t.m.m_promote_s
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
            ignore
              (ask ~timeout:e.probe_timeout peer
                 (Wire.Promote { term; addr = Addr.to_string e.listen })))
          targets
      end
  | None, _ -> t.lost_since <- Some t0

(* The leader watch and the one demotion path. A leader steps down only to
   a live primary that outranks it by (term, rank), at a term no lower
   than any deposition evidence's: that evidence (a higher-term subscribe,
   announce or directive) is unauthenticated, so it only says whom to ask.
   Stopping the read server drains every put it admitted. A leader that
   then applied nothing while leading still holds a prefix of the history
   it followed: it serves reads again and claims its old chain term. Any
   other serves no read until {!rejoin} replaces its store; its standby
   listener stays, so it still votes and may still be elected. *)
let watch t (e : election) sb =
  let floor, named =
    match Primary.deposed sb with
    | Some (term, addr) -> (term, Option.to_list addr)
    | None -> (0, [])
  in
  let mine = (Primary.term sb, rank t e) in
  match
    List.find_opt
      (fun (_, (term, primary, r)) ->
        primary && term >= floor && (term, r) > mine)
      (survey t e ~term:(Primary.term sb) (named @ probe_targets t e))
  with
  | None -> ()
  | Some (addr, (term, _, _)) ->
      Primary.demote sb ~term;
      Fastver.set_batch_size t.sys 0;
      Fastver.clear_auto_checkpoint t.sys;
      close_reads t;
      let keep =
        match t.led_from with
        | Some l ->
            Fastver.verified_epoch t.sys = l.epoch
            && (Fastver.stats t.sys).puts = l.puts
        | None -> true
      in
      Mutex.protect t.lock (fun () ->
          (match t.led_from with
          | Some l when keep -> t.term <- l.chain_term
          | _ -> ());
          t.rebootstrap <- not keep;
          t.state <- Disconnected);
      if keep then log_error (open_reads t ~read_only:true);
      retarget t ~addr ~term
        (if keep then "stepped down, nothing written while leading"
         else "stepped down, no reads until its store is re-bootstrapped")

(* ---- The follower loop ---- *)

let rec run t =
  match state t with
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
   epochs (the primary replays them in full) and re-subscribe from the
   first epoch we have not verified, claiming the chain term. A refusal is
   retried (the cluster is mid-election — back off and, if electable, run
   a candidacy round once the grace timer fires), re-bootstraps the store,
   or halts on integrity evidence, as {!Primary.refusal} says. *)
and reconnect t =
  if Atomic.get t.stop_flag then t.state <- Stopped
  else begin
    drop_unsealed t;
    check_directive t;
    match try_subscribe t with
    | `Streaming -> run t
    | `Retry ->
        (match (t.election, t.lost_since) with
        | Some _, None -> t.lost_since <- Some (Unix.gettimeofday ())
        | Some e, Some since
          when Unix.gettimeofday () -. since >= e.election_timeout ->
            run_election t e
        | _ -> ());
        if state t = Leading then lead t
        else begin
          backoff_sleep t;
          reconnect t
        end
  end

and try_subscribe t =
  match Client.connect t.primary with
  | Error _ -> `Retry
  | Ok conn when t.rebootstrap -> rejoin t conn
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
            streaming t conn ~run_id:rid ~term:srv_term;
            `Streaming
          end
      | Ok (`Refused e) -> (
          match Primary.refusal e with
          | `Retry ->
              Log.info (fun m -> m "subscribe refused (%s); will retry" e);
              close_retry ()
          | `Rebootstrap ->
              Log.app (fun m -> m "subscribe refused (%s); re-bootstrapping" e);
              rejoin t conn
          | `Halt ->
              Client.close conn;
              halt t ~epoch:(Fastver.verified_epoch t.sys)
                ("primary refused re-subscription: " ^ e))
      | Error e ->
          Log.info (fun m -> m "subscribe failed (%s); will retry" e);
          close_retry ())

(* Replace the store: no read is served from the old one meanwhile.
   Bootstrap exactly as {!create} does, its checkpoint fetch in a new
   directory under [t.dir] (never one holding this node's own, possibly
   diverged, generations). Only once the successor has supplied the new
   store does the old one stop answering election probes; the new one is
   served on the same addresses and the previous rejoin directory goes. *)
and rejoin t conn =
  close_reads t;
  t.rebootstrap <- true;
  t.conn <- Some conn (* so [stop] can cut a long fetch short *);
  mkdir_p t.dir;
  let dir = Filename.temp_file ~temp_dir:t.dir "rejoin-" "" in
  Sys.remove dir;
  match
    bootstrap ~timeout:t.handshake_timeout ~config:t.config ~load:t.load ~dir
      conn
  with
  | Error e ->
      Log.warn (fun m -> m "re-bootstrap failed (%s); will retry" e);
      Fastver_kvstore.Ckpt_io.remove_tree dir;
      t.conn <- None;
      Client.close conn;
      `Retry
  | Ok (sys, term, run_id) ->
      Option.iter Primary.stop t.standby;
      Option.iter Fastver_kvstore.Ckpt_io.remove_tree t.fetched;
      Mutex.protect t.lock (fun () ->
          t.sys <- sys;
          t.standby <- None;
          t.fetched <- Some dir;
          t.chain <- new_chain sys;
          t.m <- metrics sys;
          t.max_seen <- Fastver.verified_epoch sys;
          t.term <- term;
          note_seen_term t term;
          t.rebootstrap <- false);
      log_error (open_listeners t);
      streaming t conn ~run_id ~term;
      `Streaming

(* The leader loop: stream hooks do the real work; this domain only watches
   for rivals (healed partitions) and deposition evidence, at
   probe_interval cadence. *)
and lead t =
  match (t.election, t.standby) with
  | Some e, Some sb -> (
      if Atomic.get t.stop_flag then t.state <- Stopped
      else begin
        watch t e sb;
        match state t with
        | Leading ->
            nap_until t (Unix.gettimeofday () +. e.probe_interval);
            lead t
        | Disconnected -> reconnect t
        | _ -> ()
      end)
  | _ -> ()

(* ---- Lifecycle ---- *)

let mk ?(reconnect_delay = 0.2) ?(handshake_timeout = 5.0) ?election ~config
    ~load ~dir ~listen ~primary ~conn ~run_id (sys, server, standby, term) =
  let rng = Random.State.make_self_init () in
  {
    config;
    load;
    dir;
    listen;
    sys;
    server;
    standby;
    chain = new_chain sys;
    m = metrics sys;
    primary;
    orig_primary = primary;
    lock = Mutex.create ();
    conn;
    state = (if conn = None then Leading else Streaming);
    failure = None;
    run_id;
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
    term;
    seen_term = term;
    lost_since = None;
    election;
    self_id =
      Int64.logxor
        (Int64.of_float (Unix.gettimeofday () *. 1e6))
        (Random.State.int64 rng Int64.max_int);
    led_from = None;
    rebootstrap = false;
    fetched = None;
  }

let create ?reconnect_delay ?handshake_timeout ?election
    ?(config = Fastver.Config.default) ?load ~primary ?listen ~dir () =
  (* A follower never seals epochs on its own: batch-triggered auto
     verification is disabled; epochs advance only at authenticated
     boundary records (until an election promotes it). *)
  let config = { config with Fastver.Config.batch_size = 0 } in
  match Client.connect primary with
  | Error e -> Error e
  | Ok conn -> (
      let fail e =
        Client.close conn;
        Error e
      in
      match
        bootstrap
          ~timeout:(Option.value handshake_timeout ~default:5.0)
          ~config ~load ~dir conn
      with
      | Error e -> fail e
      | Ok (sys, term, run_id) -> (
          let t =
            mk ?reconnect_delay ?handshake_timeout ?election ~config ~load ~dir
              ~listen ~primary ~conn:(Some conn) ~run_id:(Some run_id)
              (sys, None, None, term)
          in
          match open_listeners t with
          | Ok () -> Ok t
          | Error e ->
              close_reads t;
              fail e))

let leading ~load ~election:e ~server ~dir sys =
  match Primary.create ~config:(primary_config e) sys ~listen:e.listen with
  | Error err -> Error ("cannot bind replication listener: " ^ err)
  | Ok p ->
      let config = { (Fastver.config sys) with Fastver.Config.batch_size = 0 } in
      let t =
        mk ~election:e ~config ~load:(Some load) ~dir
          ~listen:(Some (Server.bound_addr server))
          ~primary:e.listen ~conn:None ~run_id:None
          (sys, Some server, Some p, 0)
      in
      (* recorded before the first request can write *)
      t.led_from <- Some (led_from t);
      Primary.start p;
      Server.start server;
      Log.app (fun m ->
          m "replicating on %s" (Addr.to_string (Primary.bound_addr p)));
      Ok t

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
  Option.iter Primary.stop t.standby;
  Option.iter Server.stop t.server;
  t.state <- Stopped

let system t = t.sys
let server t = t.server
let failure t = Mutex.protect t.lock (fun () -> t.failure)
let verified_epoch t = Fastver.verified_epoch t.sys
let applied_ops t = Mutex.protect t.lock (fun () -> t.applied)
let run_id t = t.run_id
let term t = Mutex.protect t.lock (fun () -> t.term)
let standby t = t.standby
