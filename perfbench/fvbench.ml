(* fvbench: the served-path benchmark.

   Starts the real system as separate processes (`fastver serve`, plus
   `fastver follow` on durable-write), drives one closed-loop workload from
   this process, checks every output, and prints the end-to-end metrics
   (--trace 0) or the per-layer metrics (--trace 1) as one JSON line.

     fvbench --workload hot-rw|cold-read|durable-write --seed N
             --seconds S --trace 0|1

   Run from the root of the repository, after building bin/fastver_cli.exe
   (perfbench/run.sh does both). Runtime files go under perfbench/_work. *)

module Client = Fastver_net.Client
module Addr = Fastver_net.Addr

let now = Proc.now

type workload = {
  name : string;
  db : int;  (** records loaded *)
  theta : float;  (** zipf skew; 0 = uniform *)
  put_frac : float;
  conns : int;  (** connections, all driven from one domain *)
  workers : int;  (** server executor domains ([-w]) *)
  epoch_ops : int;  (** ops per certified epoch, over all connections *)
  warm_epochs : int;
  cold_threshold : int option;  (** [--cold-dir] with this budget *)
  durable : bool;  (** checkpoints + replication + one follower *)
  epoch_rate : float;  (** nominal epochs per second, sizing the timed phase *)
}

(* Set-ups per untraced run (setup_s is their median), and epochs replayed
   in-process after the warm-up in a traced run. *)
let setups = 3
let replay_epochs = 4

(* Pipelined requests kept in flight per connection. *)
let window = 32

let workloads =
  [
    { name = "hot-rw"; db = 100_000; theta = 0.99; put_frac = 0.5; conns = 2;
      workers = 2; epoch_ops = 8192; warm_epochs = 2;
      cold_threshold = None; durable = false; epoch_rate = 0.9 };
    { name = "cold-read"; db = 100_000; theta = 0.0; put_frac = 0.05; conns = 1;
      workers = 1; epoch_ops = 2048; warm_epochs = 2;
      cold_threshold = Some 25_000; durable = false; epoch_rate = 1.5 };
    { name = "durable-write"; db = 50_000; theta = 0.0; put_frac = 0.9;
      conns = 1; workers = 1; epoch_ops = 2048; warm_epochs = 1;
      cold_threshold = None; durable = true; epoch_rate = 0.65 };
  ]

let secret = Fastver.Config.default.mac_secret

(* ------------------------------------------------------------------ *)
(* Correctness gates                                                   *)
(* ------------------------------------------------------------------ *)

let gate_failures = ref []

let gate name ok =
  if not ok then begin
    Printf.eprintf "GATE FAILED: %s\n%!" name;
    gate_failures := name :: !gate_failures
  end

(* ------------------------------------------------------------------ *)
(* Set-up: spawn the system and wait for its first verified reply      *)
(* ------------------------------------------------------------------ *)

type system = {
  dir : string;
  primary : int;
  follower : int option;
  conn : Client.t;
  session : Client.session;
  fconn : Client.t option;
  setup_wall_s : float;
  setup_s : float;  (** [setup_wall_s] net of stolen time *)
  mutable epoch : int;  (** newest epoch certified to this client *)
  mutable cert : string;
}

let addr s = match Addr.parse s with Ok a -> a | Error e -> failwith e

(* A duration net of the CPU time stolen from the VM meanwhile. Stolen time
   is summed over the vCPUs, and a stall of any vCPU stalls the served
   path, so each stolen second is a lost wall-clock second (while the
   stalls do not overlap; the floor keeps a heavy overlap finite). On ten
   runs made during bursts of up to 30% steal, this took the run-to-run
   spread of throughput from 0.2-0.45 to about 0.05. *)
let net_of_stolen d stolen = Float.max (0.1 *. d) (d -. stolen)
let path sys f = Filename.concat sys f

(* Poll the follower's Stats until its epoch has moved past [e], i.e. its
   own verification scan of epoch [e] has sealed. *)
let wait_follower ?(timeout = 60.0) fconn e =
  let deadline = now () +. timeout in
  let rec go () =
    let s = Client.stats fconn in
    if Int64.to_int s.Fastver_net.Wire.epoch > e then now ()
    else if now () > deadline then failwith "follower did not catch up"
    else begin
      Unix.sleepf 0.0005;
      go ()
    end
  in
  go ()

let setup wl dir =
  Proc.rm_rf dir;
  Proc.mkdir_p dir;
  let p = path dir in
  let serve_args =
    [ "serve"; "--listen"; "unix:" ^ p "p.sock"; "-n"; string_of_int wl.db;
      "-w"; string_of_int wl.workers; "--batch"; "0" ]
    @ (match wl.cold_threshold with
      | Some n -> [ "--cold-dir"; p "cold"; "--cold-threshold"; string_of_int n ]
      | None -> [])
    @
    if wl.durable then
      [ "--checkpoint-dir"; p "ckpt"; "--replication-listen"; "unix:" ^ p "r.sock" ]
    else []
  in
  let t0 = now () and stolen0 = Proc.stolen_s () in
  let primary = Proc.spawn ~log:(p "serve.log") "serve" serve_args in
  let conn =
    Proc.connect_when_ready ~pid:primary ~name:"serve" (addr ("unix:" ^ p "p.sock"))
  in
  let session = Client.open_session conn ~client:1 ~secret in
  let first = Client.get session 0L in
  gate "first reply is the loaded value"
    (first = Some (Fastver_workload.Ycsb.initial_value 0L));
  let follower, fconn, epoch, cert =
    if not wl.durable then (None, None, -1, "")
    else begin
      let f =
        Proc.spawn ~log:(p "follow.log") "follow"
          [ "follow"; "--primary"; "unix:" ^ p "r.sock"; "--listen";
            "unix:" ^ p "f.sock"; "-n"; string_of_int wl.db; "-w"; "1";
            "--dir"; p "fdir" ]
      in
      let fconn =
        Proc.connect_when_ready ~pid:f ~name:"follow" (addr ("unix:" ^ p "f.sock"))
      in
      (* the follower has subscribed and verified the first sealed epoch *)
      let e, cert = Client.verify_now session in
      ignore (wait_follower fconn e);
      (Some f, Some fconn, e, cert)
    end
  in
  let setup_wall_s = now () -. t0 in
  let setup_s = net_of_stolen setup_wall_s (Proc.stolen_s () -. stolen0) in
  { dir; primary; follower; conn; session; fconn; setup_wall_s; setup_s; epoch; cert }

let discard sys =
  Client.close sys.conn;
  Option.iter Client.close sys.fconn;
  Proc.kill sys.primary;
  Option.iter Proc.kill sys.follower

(* ------------------------------------------------------------------ *)
(* The follower-lag poller (durable-write's second connection)         *)
(* ------------------------------------------------------------------ *)

type poller = {
  pm : Mutex.t;
  pcv : Condition.t;
  targets : (int * float) Queue.t;  (** (epoch, time the client held its cert) *)
  mutable pstop : bool;
  lags : Load.samples;
}

let poll_loop fconn p =
  let rec next () =
    Mutex.lock p.pm;
    while Queue.is_empty p.targets && not p.pstop do
      Condition.wait p.pcv p.pm
    done;
    let t = Queue.take_opt p.targets in
    Mutex.unlock p.pm;
    match t with
    | None -> ()
    | Some (e, t_cert) ->
        let reached = wait_follower fconn e in
        Load.add p.lags (reached -. t_cert);
        next ()
  in
  next ()

let post p target =
  Mutex.lock p.pm;
  Queue.push target p.targets;
  Condition.signal p.pcv;
  Mutex.unlock p.pm

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)
(* ------------------------------------------------------------------ *)

type phase = {
  ops : int;
  wall_s : float;
  stolen_s : float;  (** CPU time stolen from the VM during the phase *)
  epoch_s : float list;  (** per epoch: ops + certify, seconds, in order *)
  epoch_stolen : float list;  (** per epoch: CPU seconds stolen *)
  certify : float list;  (** per epoch: verify_now round trip, seconds *)
  certify_stolen : float list;  (** per epoch: CPU seconds stolen during it *)
  marks : int array list;  (** per epoch end: each connection's latency count *)
  ticks : (float * float) array;
      (** (time, stolen_s) samples at least 20 ms apart, bracketing every
          epoch and certify *)
  traced_rate : float;  (** ops/s over traced epochs (trace runs) *)
  untraced_rate : float;
  lag_samples : float list;  (** stream lag bytes at epoch ends (trace runs) *)
}

(* Run [epochs] epochs. With [trace], odd epochs record spans and even
   ones do not, so the tracing overhead is measured inside one run. *)
let run_phase wl sys conns ~epochs ~trace ~poller ~sample_lag =
  let share = wl.epoch_ops / wl.conns in
  let ticks = ref [] in
  let tick () =
    let x = (now (), Proc.stolen_s ()) in
    ticks := x :: !ticks;
    snd x
  in
  let on_reply () =
    match !ticks with
    | (t, _) :: _ when now () -. t < 0.02 -> ()
    | _ -> ignore (tick ())
  in
  let epoch_s = ref [] and epoch_stolen = ref [] in
  let certify = ref [] and certify_stolen = ref [] in
  let marks = ref [] and lag_samples = ref [] in
  let traced_ops = ref 0 and traced_s = ref 0.0 in
  let untraced_ops = ref 0 and untraced_s = ref 0.0 in
  let stolen0 = tick () in
  let start = now () in
  for k = 0 to epochs - 1 do
    let traced = trace && k mod 2 = 1 in
    let epoch_start = now () in
    let st0 = tick () in
    Load.run_shares conns ~n:share ~traced ~on_reply;
    let t0 = now () in
    let st1 = tick () in
    let e, cert = Client.verify_now sys.session in
    let t1 = now () in
    let st2 = tick () in
    gate "each certify seals the next epoch" (e = sys.epoch + 1);
    sys.epoch <- e;
    sys.cert <- cert;
    Option.iter (fun p -> post p (e, t1)) poller;
    certify := (t1 -. t0) :: !certify;
    certify_stolen := (st2 -. st1) :: !certify_stolen;
    epoch_s := (t1 -. epoch_start) :: !epoch_s;
    epoch_stolen := (st2 -. st0) :: !epoch_stolen;
    marks := Array.map (fun (c : Load.conn) -> c.lat.n) conns :: !marks;
    if traced then begin
      traced_ops := !traced_ops + wl.epoch_ops;
      traced_s := !traced_s +. (t1 -. epoch_start)
    end
    else begin
      untraced_ops := !untraced_ops + wl.epoch_ops;
      untraced_s := !untraced_s +. (t1 -. epoch_start)
    end;
    if sample_lag then
      lag_samples :=
        Snap.scalar (Snap.fetch sys.conn) "fastver_repl_stream_lag_bytes" :: !lag_samples
  done;
  let rate o s = if s > 0.0 then float_of_int o /. s else 0.0 in
  {
    ops = epochs * wl.epoch_ops;
    wall_s = now () -. start;
    stolen_s = tick () -. stolen0;
    epoch_s = List.rev !epoch_s;
    epoch_stolen = List.rev !epoch_stolen;
    certify = List.rev !certify;
    certify_stolen = List.rev !certify_stolen;
    marks = List.rev !marks;
    ticks = Array.of_list (List.rev !ticks);
    traced_rate = rate !traced_ops !traced_s;
    untraced_rate = rate !untraced_ops !untraced_s;
    lag_samples = !lag_samples;
  }

(* Fixed work per run: the number of timed epochs is [--seconds] times the
   workload's nominal epoch rate, not a wall-clock cut-off, so a run does
   the same work however fast the machine is at the moment. *)
let timed_epochs wl seconds =
  max 4 (int_of_float (Float.round (seconds *. wl.epoch_rate)))

let reset (c : Load.conn) =
  c.lat.n <- 0;
  c.done_at.n <- 0;
  c.spans.n <- 0;
  c.attempted <- 0;
  c.completed <- 0;
  c.failed <- 0

let open_conns wl sys ~seed =
  let sent_seq = Array.init wl.conns (fun _ -> Atomic.make 0) in
  Array.init wl.conns (fun i ->
      let session =
        if i = 0 then sys.session
        else
          let c =
            match Client.connect (addr ("unix:" ^ path sys.dir "p.sock")) with
            | Ok c -> c
            | Error e -> failwith e
          in
          Client.open_session c ~client:(i + 1) ~secret
      in
      Load.make_conn ~id:i ~session ~window
        ~st:(Load.stream ~seed ~db:wl.db ~theta:wl.theta ~put_frac:wl.put_frac i)
        ~sent_seq)

(* Untimed epochs; their samples are dropped but their reads are checked. *)
let warm_up wl sys conns =
  ignore
    (run_phase wl sys conns ~epochs:wl.warm_epochs ~trace:false ~poller:None
       ~sample_lag:false);
  Array.iter reset conns

let start_poller sys =
  match sys.fconn with
  | None -> (None, None)
  | Some fconn ->
      let p =
        { pm = Mutex.create (); pcv = Condition.create (); targets = Queue.create ();
          pstop = false; lags = Load.samples () }
      in
      (Some p, Some (Domain.spawn (fun () -> poll_loop fconn p)))

let stop_poller p d =
  Option.iter
    (fun p ->
      Mutex.lock p.pm;
      p.pstop <- true;
      Condition.broadcast p.pcv;
      Mutex.unlock p.pm)
    p;
  Option.iter Domain.join d

let processes sys = sys.primary :: Option.to_list sys.follower

(* After the timed phase. Durable-write: the follower's certificate for the
   final epoch must equal the primary's; then kill -9 the primary, recover
   its checkpoint directory with `fastver recover` and in-process, and
   read back a seeded sample of certified writes. Every system: the
   processes must exit cleanly. *)
let teardown wl sys conns ~seed =
  (match sys.fconn with
  | None -> ()
  | Some fconn ->
      ignore (wait_follower fconn sys.epoch);
      let fs = Client.open_session fconn ~client:100 ~secret in
      let fe, fcert = Client.verify_now fs in
      gate "follower certificate for the final epoch equals the primary's"
        (fe = sys.epoch && fcert = sys.cert));
  Array.iteri
    (fun i (c : Load.conn) ->
      if i > 0 then Client.close_session c.session)
    conns;
  Client.close_session sys.session;
  if wl.durable then begin
    Proc.kill sys.primary;
    let ckpt = path sys.dir "ckpt" in
    let log = path sys.dir "recover.log" in
    let pid = Proc.spawn ~log "recover" [ "recover"; "--dir"; ckpt; "-w"; "1" ] in
    let status = Proc.wait pid in
    gate "fastver recover exits 0" (status = Unix.WEXITED 0);
    let text = Proc.read_file log in
    let recovered =
      try
        let i = Proc.find_sub text "epoch " in
        Scanf.sscanf (String.sub text i (String.length text - i)) "epoch %d verified"
          (fun e -> e)
      with _ -> -1
    in
    Printf.printf "  fastver recover: epoch %d; last epoch certified to the client: %d\n"
      recovered sys.epoch;
    gate "fastver recover reports an epoch >= the last certified one"
      (recovered >= sys.epoch);
    (match Fastver.recover ~config:{ Fastver.Config.default with n_workers = 1 } ~dir:ckpt () with
    | Error e -> gate ("in-process recovery: " ^ e) false
    | Ok t ->
        Printf.printf "  in-process recovery: verified epoch %d\n" (Fastver.verified_epoch t);
        gate "recovered verified epoch >= last certified epoch"
          (Fastver.verified_epoch t >= sys.epoch);
        let c = conns.(0) in
        let keys = Hashtbl.fold (fun k _ acc -> k :: acc) c.last [] |> List.sort compare in
        let keys = Array.of_list keys in
        let rng = Random.State.make [| seed; 0x5a17 |] in
        let n = min 64 (Array.length keys) in
        gate "certified writes to sample" (n > 0);
        for _ = 1 to n do
          let k = keys.(Random.State.int rng (Array.length keys)) in
          let expect = Load.value_of ~conn:0 ~seq:(Hashtbl.find c.last k) in
          gate (Printf.sprintf "certified write to key %Ld reads back" k)
            (Fastver.get t k = Some expect)
        done);
    Client.close sys.conn
  end
  else begin
    Client.close sys.conn;
    gate "server exits cleanly" (Proc.stop sys.primary = Unix.WEXITED 0)
  end;
  Option.iter Client.close sys.fconn;
  Option.iter
    (fun f -> gate "follower exits cleanly (no integrity halt)" (Proc.stop f = Unix.WEXITED 0))
    sys.follower

(* Latencies of the ops that no stolen time touched: ops whose whole
   send-to-receipt interval falls between [ticks] samples with no steal in
   between. Steal stalls every op in flight, so it sets the tail of any
   epoch it hits; these ops give the system's own latency. *)
let undisturbed conns ticks =
  let n = Array.length ticks in
  (* stolen.(j) = how many of the intervals before sample j saw steal *)
  let stolen = Array.make (max n 1) 0 in
  for j = 1 to n - 1 do
    stolen.(j) <- stolen.(j - 1) + if snd ticks.(j) > snd ticks.(j - 1) then 1 else 0
  done;
  (* the last sample at or before [t], or -1 *)
  let find t =
    let lo = ref (-1) and hi = ref n in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if fst ticks.(mid) <= t then lo := mid else hi := mid
    done;
    !lo
  in
  let s = Load.samples () in
  Array.iter
    (fun (c : Load.conn) ->
      for i = 0 to c.lat.n - 1 do
        let fin = c.done_at.a.(i) and l = c.lat.a.(i) in
        let a = find (fin -. l) and b = find fin in
        if a >= 0 && b < n - 1 && stolen.(b + 1) = stolen.(a) then Load.add s l
      done)
    conns;
  s

(* Each epoch's op latencies, in epoch order. *)
let epoch_latencies conns marks =
  let prev = Array.make (Array.length conns) 0 in
  List.map
    (fun mark ->
      let s = Load.samples () in
      Array.iteri
        (fun i (c : Load.conn) ->
          for j = prev.(i) to mark.(i) - 1 do
            Load.add s c.lat.a.(j)
          done;
          prev.(i) <- mark.(i))
        conns;
      s)
    marks

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

type metric = { mname : string; value : float; unit_ : string }

let m mname unit_ value = { mname; value; unit_ }

type outcome = {
  metrics : metric list;
  attempted : int;
  failed : int;
}

let tally conns =
  let sum f = Array.fold_left (fun a c -> a + f c) 0 conns in
  let bad = sum (fun (c : Load.conn) -> c.bad_reads) in
  Array.iter
    (fun (c : Load.conn) ->
      Option.iter (fun msg -> Printf.eprintf "connection %d: %s\n%!" c.id msg) c.first_bad)
    conns;
  gate "every read returns a value it may legally observe" (bad = 0);
  let attempted = sum (fun c -> c.attempted) in
  let failed = sum (fun c -> c.failed) in
  gate "no failed or refused ops" (failed = 0);
  gate "every attempted op completed" (sum (fun c -> c.completed) = attempted);
  (attempted, failed)

let latencies conns =
  Load.sorted (Load.merge (Array.to_list (Array.map (fun (c : Load.conn) -> c.lat) conns)))

(* ---- --trace 0: the end-to-end metrics ---- *)

let untraced wl ~seed ~seconds ~work =
  (* set up [setups] times; the last system serves the timed phase *)
  let setups =
    List.init (setups - 1) (fun i ->
        let sys = setup wl (Filename.concat work (Printf.sprintf "setup%d" i)) in
        discard sys;
        (sys.setup_wall_s, sys.setup_s))
  in
  let sys = setup wl (Filename.concat work "run") in
  let conns = open_conns wl sys ~seed in
  let poller, pd = start_poller sys in
  warm_up wl sys conns;
  let ph =
    run_phase wl sys conns ~epochs:(timed_epochs wl seconds) ~trace:false ~poller
      ~sample_lag:false
  in
  stop_poller poller pd;
  let rss = List.fold_left (fun a p -> a +. Proc.peak_rss_mb p) 0.0 (processes sys) in
  teardown wl sys conns ~seed;
  let attempted, failed = tally conns in
  let lat = latencies conns in
  let lags = Option.fold ~none:[||] ~some:(fun p -> Load.sorted p.lags) poller in
  let per_epoch = epoch_latencies conns ph.marks in
  let clean = Load.sorted (undisturbed conns ph.ticks) in
  (* p99 needs 10 samples beyond it; with fewer undisturbed ops, use all *)
  let pct = if Array.length clean >= 1000 then clean else lat in
  let series name f l =
    Printf.printf "  per epoch: %s %s\n" name (String.concat " " (List.map f l))
  in
  Printf.printf
    "  %d epochs of %d ops; %.1f%% of the VM's CPU time stolen; %d of %d ops \
     undisturbed%s; all ops: p50/p99 %.3f/%.3f ms\n"
    (List.length ph.epoch_s) wl.epoch_ops
    (100.0 *. ph.stolen_s /. (2.0 *. ph.wall_s))
    (Array.length clean) (Array.length lat)
    (if pct == lat then " (too few: p50/p99 below use all ops)" else "")
    (1000.0 *. Load.quantile lat 0.5)
    (1000.0 *. Load.quantile lat 0.99);
  series "ops/s" (fun e -> Printf.sprintf "%.0f" (float_of_int wl.epoch_ops /. e)) ph.epoch_s;
  series "stolen ms" (fun x -> Printf.sprintf "%.0f" (1000. *. x)) ph.epoch_stolen;
  series "p99 ms"
    (fun s -> Printf.sprintf "%.2f" (1000. *. Load.quantile (Load.sorted s) 0.99))
    per_epoch;
  series "certify ms" (fun x -> Printf.sprintf "%.0f" (1000. *. x)) ph.certify;
  Printf.printf "  set-ups (wall / net of stolen time, s): %s\n"
    (String.concat " "
       (List.map (fun (w, n) -> Printf.sprintf "%.4f/%.4f" w n)
          (setups @ [ (sys.setup_wall_s, sys.setup_s) ])));
  Printf.printf "  op_fail_frac %.6g ratio (%d of %d)\n"
    (float_of_int failed /. float_of_int (max 1 attempted)) failed attempted;
  if wl.durable then
    Printf.printf "  follower_lag_p50_ms %.4f ms (%d samples)\n"
      (1000.0 *. Load.quantile lags 0.5) (Array.length lags);
  {
    metrics =
      [
        m "ops_per_s" "ops/s"
          (float_of_int wl.epoch_ops
          /. median (List.map2 net_of_stolen ph.epoch_s ph.epoch_stolen));
        m "op_p50_ms" "ms" (1000.0 *. Load.quantile pct 0.50);
        m "op_p99_ms" "ms" (1000.0 *. Load.quantile pct 0.99);
        m "certify_p50_ms" "ms"
          (1000.0 *. median (List.map2 net_of_stolen ph.certify ph.certify_stolen));
        m "setup_s" "s" (median (sys.setup_s :: List.map snd setups));
        m "server_rss_mb" "MB" rss;
      ];
    attempted;
    failed;
  }

(* ---- --trace 1: the per-layer metrics ---- *)

(* Served spans: per traced op, (send start, send end, await start, await
   end); the op span is send start -> await end, with the send and await
   spans as its children. *)
let span_stats conns =
  let send = ref 0.0 and await = ref 0.0 and self = ref 0.0 and n = ref 0 in
  Array.iter
    (fun (c : Load.conn) ->
      let a = c.spans.a in
      for i = 0 to (c.spans.n / 4) - 1 do
        let s0 = a.(4 * i) and s1 = a.((4 * i) + 1) in
        let a0 = a.((4 * i) + 2) and a1 = a.((4 * i) + 3) in
        send := !send +. (s1 -. s0);
        await := !await +. (a1 -. a0);
        self := !self +. (a1 -. s0) -. (s1 -. s0) -. (a1 -. a0);
        incr n
      done)
    conns;
  let per x = if !n = 0 then 0.0 else x /. float_of_int !n in
  (per !send, per !await, per !self, !n)

let max_served_ops_written = 20_000

let write_trace file conns (r : Replay.result) =
  let oc = open_out file in
  output_string oc "request,span,parent,name,start_us,end_us\n";
  let us t = t *. 1e6 in
  let written = ref 0 in
  Array.iter
    (fun (c : Load.conn) ->
      let a = c.spans.a in
      for i = 0 to (c.spans.n / 4) - 1 do
        if !written < max_served_ops_written then begin
          incr written;
          let req = Printf.sprintf "c%d-%d" c.id i in
          Printf.fprintf oc "%s,0,,op,%.3f,%.3f\n" req (us a.(4 * i)) (us a.((4 * i) + 3));
          Printf.fprintf oc "%s,1,0,client.send,%.3f,%.3f\n" req (us a.(4 * i))
            (us a.((4 * i) + 1));
          Printf.fprintf oc "%s,2,0,client.await,%.3f,%.3f\n" req (us a.((4 * i) + 2))
            (us a.((4 * i) + 3))
        end
      done)
    conns;
  List.iteri
    (fun i (name, id, t0, t1) ->
      Printf.fprintf oc "replay-%d,%d,,%s,%.3f,%.3f\n" id (i + 1) name (us t0) (us t1))
    r.spans;
  close_out oc

let traced wl ~seed ~seconds ~work =
  let sys = setup wl (Filename.concat work "run") in
  let conns = open_conns wl sys ~seed in
  let poller, pd = start_poller sys in
  warm_up wl sys conns;
  let snap_p0 = Snap.fetch sys.conn in
  let snap_f0 = Option.map Snap.fetch sys.fconn in
  let cpu0 = List.map Proc.cpu_s (processes sys) and ccpu0 = Proc.self_cpu_s () in
  let ph =
    run_phase wl sys conns ~epochs:(timed_epochs wl seconds) ~trace:true ~poller
      ~sample_lag:wl.durable
  in
  let cpu1 = List.map Proc.cpu_s (processes sys) and ccpu1 = Proc.self_cpu_s () in
  let snap_p1 = Snap.fetch sys.conn in
  let snap_f1 = Option.map Snap.fetch sys.fconn in
  stop_poller poller pd;
  teardown wl sys conns ~seed;
  let attempted, failed = tally conns in
  let lat = latencies conns in
  let op_p50_ms = 1000.0 *. Load.quantile lat 0.5 in
  let lags = Option.fold ~none:[||] ~some:(fun p -> Load.sorted p.lags) poller in
  (* registry deltas over the timed phase *)
  let d ?labels n = Snap.delta ?labels snap_p0 snap_p1 n in
  let dm = Snap.delta_mean snap_p0 snap_p1 in
  let tier t = d ~labels:[ ("tier", t) ] "fastver_ops_total" in
  let tiers = tier "blum" +. tier "merkle" +. tier "cached" in
  let vops =
    List.fold_left
      (fun a op -> a +. d ~labels:[ ("op", op) ] "fastver_verifier_ops_total")
      0.0
      [ "add_b"; "add_m"; "evict_b"; "evict_bm"; "evict_m"; "vget"; "vput" ]
  in
  let user_ops = float_of_int ph.ops in
  let gets = d "fastver_gets_total" and puts = d "fastver_puts_total" in
  let ops_per_drain = dm "fastver_net_batch_requests" in
  let request_p50_ms = 1000.0 *. (Snap.hist snap_p1 "fastver_request_seconds").p50 in
  let kop = user_ops /. 1000.0 in
  let cpu_ms i =
    match (List.nth_opt cpu0 i, List.nth_opt cpu1 i) with
    | Some a, Some b -> 1000.0 *. (b -. a) /. kop
    | _ -> 0.0
  in
  (* the in-process replay, drained like the server drained *)
  let replay_dir = Filename.concat work "replay" in
  Proc.rm_rf replay_dir;
  Proc.mkdir_p replay_dir;
  let r =
    Replay.run
      {
        Replay.config =
          {
            Fastver.Config.default with
            n_workers = wl.workers;
            batch_size = 0;
            cold_dir =
              Option.map (fun _ -> Filename.concat replay_dir "cold") wl.cold_threshold;
            cold_threshold =
              Option.value wl.cold_threshold
                ~default:Fastver.Config.default.cold_threshold;
          };
        db = wl.db;
        conns = wl.conns;
        epoch_ops = wl.epoch_ops;
        epochs = replay_epochs;
        warm_epochs = wl.warm_epochs;
        drain = max 1 (int_of_float (Float.round ops_per_drain));
        streams =
          (fun c -> Load.stream ~seed ~db:wl.db ~theta:wl.theta ~put_frac:wl.put_frac c);
        ckpt_dir =
          (if wl.durable then Some (Filename.concat replay_dir "ckpt") else None);
      }
  in
  write_trace (Filename.concat work "trace.csv") conns r;
  let st s = Replay.stage_total r s in
  let per_call s =
    let n = Replay.stage_calls r s in
    if n = 0 then 0.0 else st s /. float_of_int n
  in
  let per_op x = if r.ops = 0 then 0.0 else x /. float_of_int r.ops in
  let codec = st Encode_req +. st Decode_req +. st Encode_resp +. st Decode_resp in
  let server_per_op = per_op (st Decode_req +. st Admit +. st Submit +. st Encode_resp) in
  let client_per_op = per_op (st Put_mac +. st Encode_req +. st Decode_resp +. st Receipt) in
  (* Little's law for a closed loop: an op's latency is the ops in flight
     times the time to serve one, so the replayed per-op stage times times
     the window predict op_p50 for a serial server. *)
  let in_flight = float_of_int (wl.conns * window) in
  let predicted_ms = 1000.0 *. in_flight *. (server_per_op +. client_per_op) in
  let send_s, await_s, inflight_s, traced_ops = span_stats conns in
  let overhead =
    if ph.untraced_rate > 0.0 then 1.0 -. (ph.traced_rate /. ph.untraced_rate) else 0.0
  in
  let served_rate = float_of_int ph.ops /. ph.wall_s in
  let fsnap f = match (snap_f0, snap_f1) with Some a, Some b -> f a b | _ -> 0.0 in
  let mean l = match l with [] -> 0.0 | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  Printf.printf "  reconciliation (served op_p50 %.4f ms, %d traced ops):\n" op_p50_ms traced_ops;
  Printf.printf "    server request p50 (registry)          %.4f ms\n" request_p50_ms;
  Printf.printf "    transport/scheduling (op - request)    %.4f ms\n" (op_p50_ms -. request_p50_ms);
  Printf.printf "    replayed server stages per op          %.2f us (drains of %.1f ops)\n"
    (1e6 *. server_per_op) ops_per_drain;
  Printf.printf "    replayed client stages per op          %.2f us\n" (1e6 *. client_per_op);
  Printf.printf
    "    %.0f in flight x replayed stages = %.4f ms = %.1f%% of op_p50 (over 100%% \
     when executors overlap)\n"
    in_flight predicted_ms (100.0 *. Snap.ratio predicted_ms op_p50_ms);
  Printf.printf "    client self times per op: send %.2f us, await %.2f us, in flight %.2f us\n"
    (1e6 *. send_s) (1e6 *. await_s) (1e6 *. inflight_s);
  List.iter
    (fun s ->
      Printf.printf "    replay %-22s %10.3f us/call  %8d calls\n" (Replay.stage_name s)
        (1e6 *. per_call s) (Replay.stage_calls r s))
    Replay.stages;
  Printf.printf "    tracing overhead: traced epochs %.1f ops/s vs untraced %.1f ops/s (%.2f%%)\n"
    ph.traced_rate ph.untraced_rate (100.0 *. overhead);
  {
    metrics =
      [
        m "net.client.send_us" "us" (1e6 *. send_s);
        m "net.client.await_us" "us" (1e6 *. await_s);
        m "net.server.request_p50_ms" "ms" request_p50_ms;
        m "net.transport_ms" "ms" (op_p50_ms -. request_p50_ms);
        m "net.server.ops_per_drain" "ops" ops_per_drain;
        m "net.wire.bytes_per_op" "B" (per_op (float_of_int r.wire_bytes));
        m "net.wire.codec_us_per_op" "us" (1e6 *. per_op codec);
        m "crypto.put_mac_us" "us" (1e6 *. per_call Put_mac);
        m "crypto.receipt_mac_us" "us" (1e6 *. per_call Receipt);
        m "core.gateway.admit_us" "us" (1e6 *. per_call Admit);
        m "core.batch.submit_us_per_op" "us" (1e6 *. per_op (st Submit));
        m "core.batch.flush_entries" "entries" (dm "fastver_log_flush_entries");
        m "enclave.transitions_per_op" "count" (per_op (float_of_int r.transitions));
        m "verifier.blum_share" "ratio" (Snap.ratio (tier "blum") tiers);
        m "verifier.merkle_share" "ratio" (Snap.ratio (tier "merkle") tiers);
        m "verifier.cached_share" "ratio" (Snap.ratio (tier "cached") tiers);
        m "verifier.ops_per_user_op" "count" (Snap.ratio vops user_ops);
        m "core.verify.scan_ms" "ms" (1000.0 *. per_call Verify);
        m "core.verify.touched_per_scan" "count" (dm "fastver_verify_touched_records");
        m "core.verify.pause_ms" "ms" (1000.0 *. dm "fastver_verify_pause_seconds");
        m "kvstore.rcu_copies_per_put" "count"
          (Snap.ratio (d "fastver_store_rcu_copies_total") puts);
        m "kvstore.spill_reads_per_get" "count"
          (Snap.ratio (d "fastver_store_spill_reads_total") gets);
        m "cold.reads_per_get" "count" (Snap.ratio (d "fastver_cold_reads_total") gets);
        m "cold.read_wait_ms" "ms" (1000.0 *. dm "fastver_cold_read_wait_seconds");
        m "cold.gc_rewrites_per_kput" "count"
          (Snap.ratio (d "fastver_cold_gc_rewrites_total") (puts /. 1000.0));
        m "core.checkpoint.write_ms" "ms" (1000.0 *. per_call Checkpoint);
        m "core.checkpoint.bytes_per_user_byte" "ratio" r.ckpt_ratio;
        m "replica.primary.ops_per_frame" "ops"
          (Snap.ratio (d "fastver_repl_ops_streamed_total") (d "fastver_repl_frames_total"));
        m "replica.primary.stream_lag_bytes" "B" (mean ph.lag_samples);
        m "replica.follower.scan_ms" "ms"
          (fsnap (fun a b -> 1000.0 *. Snap.delta_mean a b "fastver_verify_scan_seconds"));
        m "follower_lag_p50_ms" "ms" (1000.0 *. Load.quantile lags 0.5);
        m "cpu.server_ms_per_kop" "ms/kop" (cpu_ms 0);
        m "cpu.follower_ms_per_kop" "ms/kop" (cpu_ms 1);
        m "cpu.client_ms_per_kop" "ms/kop" (1000.0 *. (ccpu1 -. ccpu0) /. kop);
        m "op_fail_frac" "ratio" (float_of_int failed /. float_of_int (max 1 attempted));
        m "trace.ops_per_s" "ops/s" served_rate;
        m "trace.overhead_frac" "ratio" overhead;
        m "trace.replay_server_us_per_op" "us" (1e6 *. server_per_op);
        m "trace.replay_client_us_per_op" "us" (1e6 *. client_per_op);
        m "trace.replay_share_of_op" "ratio" (Snap.ratio predicted_ms op_p50_ms);
      ];
    attempted;
    failed;
  }

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let print_result ~correct o =
  List.iter (fun x -> Printf.printf "  %-38s %14.6g %s\n" x.mname x.value x.unit_) o.metrics;
  let metrics =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.mname (Json.num x.value)
             x.unit_)
         o.metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 o.attempted) o.failed metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME hot-rw | cold-read | durable-write");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fvbench --workload NAME --seed N --seconds S --trace 0|1";
  let wl =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  if not (Sys.file_exists Proc.cli) then begin
    prerr_endline ("missing " ^ Proc.cli ^ ": build it first (perfbench/run.sh does)");
    exit 2
  end;
  (* Every process this run starts dies with it, and a stuck run ends
     within 180 seconds. *)
  at_exit Proc.kill_all;
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "fvbench: watchdog expired";
         Proc.kill_all ();
         exit 3));
  ignore (Unix.alarm 170);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let work = Filename.concat "perfbench" (Filename.concat "_work" wl.name) in
  Proc.rm_rf work;
  Proc.mkdir_p work;
  Printf.printf "fvbench %s seed %d seconds %d trace %d\n%!" wl.name !seed !seconds !trace;
  let seconds = float_of_int !seconds in
  match
    if !trace = 0 then untraced wl ~seed:!seed ~seconds ~work
    else traced wl ~seed:!seed ~seconds ~work
  with
  | o ->
      let correct = !gate_failures = [] in
      print_result ~correct o;
      (* keep only the trace file *)
      Array.iter
        (fun f -> if f <> "trace.csv" then Proc.rm_rf (Filename.concat work f))
        (Sys.readdir work);
      exit (if correct then 0 else 1)
  | exception e ->
      Printf.eprintf "fvbench: %s\n%!" (Printexc.to_string e);
      Proc.kill_all ();
      exit 1
