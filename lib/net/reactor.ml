let src = Logs.Src.create "fastver.net.reactor" ~doc:"FastVer select loop"

module Log = (val Logs.src_log src : Logs.LOG)

type 'a conn = {
  fd : Unix.file_descr;
  reader : Frame.reader;
  outq : string Queue.t;
  mutable out_off : int; (* written prefix of the head of [outq] *)
  mutable out_bytes : int; (* total queued output *)
  mutable closing : bool; (* close once output drains *)
  mutable dead : bool; (* close now, discard output *)
  data : 'a;
}

let data c = c.data

let send c s =
  if not c.dead then begin
    Queue.push s c.outq;
    c.out_bytes <- c.out_bytes + String.length s
  end

let out_bytes c = c.out_bytes
let close c = c.closing <- true
let drop c = c.dead <- true
let is_open c = not (c.closing || c.dead)
let is_dead c = c.dead

type 'a t = {
  listener : Unix.file_descr;
  addr : Addr.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  stopping : bool Atomic.t;
  mutable conns : 'a conn list;
  mutable accept_paused_until : float;
      (* accept failed for want of descriptors: leave the listener out of
         select until a connection is reaped or this time passes *)
  scratch : Bytes.t;
  m_lost_wakeups : Fastver_obs.Counter.t;
  m_refused : Fastver_obs.Counter.t;
  m_accept_pauses : Fastver_obs.Counter.t;
}

type 'a handlers = {
  accept : unit -> 'a;
  input : 'a conn -> (string, string) result -> unit;
  wants_input : 'a conn -> bool;
  settled : 'a conn -> bool;
  pass : unit -> unit;
  deadline : unit -> float option;
  closed : 'a conn -> unit;
}

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* How long a listener stays out of select after accept ran out of
   descriptors: a listener with a queued connection stays readable, so
   polling it would spin the loop until a descriptor frees up. *)
let accept_backoff = 0.1

(* OCaml's [Unix.select] raises EINVAL for a descriptor at or above
   FD_SETSIZE, before any system call: a zero-timeout probe tells whether
   the loop could ever wait on [fd]. *)
let fits_select fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | exception Unix.Unix_error (Unix.EINVAL, _, _) -> false
  | _ | (exception Unix.Unix_error _) -> true

let listen reg addr =
  (* A peer that disconnects with a write pending would otherwise deliver
     a fatal SIGPIPE to the whole process; ignored, it surfaces as EPIPE
     and kills only that connection. *)
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Addr.to_sockaddr addr with
  | Error e -> Error e
  | Ok sockaddr -> (
      let fd = Unix.socket ~cloexec:true (Addr.domain addr) Unix.SOCK_STREAM 0 in
      match
        (match addr with
        | Addr.Unix_sock path -> if Sys.file_exists path then Unix.unlink path
        | Addr.Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
        Unix.bind fd sockaddr;
        Unix.listen fd 128;
        Unix.set_nonblock fd;
        (* read the effective address back (supports tcp port 0) *)
        match (addr, Unix.getsockname fd) with
        | Addr.Tcp (host, _), Unix.ADDR_INET (_, port) -> Addr.Tcp (host, port)
        | a, _ -> a
      with
      | bound ->
          let wake_r, wake_w = Unix.pipe ~cloexec:true () in
          Unix.set_nonblock wake_r;
          Unix.set_nonblock wake_w;
          let module Reg = Fastver_obs.Registry in
          Ok
            {
              listener = fd;
              addr = bound;
              wake_r;
              wake_w;
              stopping = Atomic.make false;
              conns = [];
              accept_paused_until = 0.0;
              scratch = Bytes.create 65536;
              m_lost_wakeups =
                Reg.counter reg
                  ~help:
                    "Select-loop wake-up writes that failed for a reason \
                     other than a full pipe or an orderly shutdown"
                  "fastver_net_lost_wakeups_total";
              m_refused =
                Reg.counter reg
                  ~help:
                    "Accepted connections closed at once because their \
                     descriptor exceeds the select limit"
                  "fastver_net_connections_refused_total";
              m_accept_pauses =
                Reg.counter reg
                  ~help:
                    "Times accept ran out of descriptors and the listener \
                     was paused"
                  "fastver_net_accept_pauses_total";
            }
      | exception Unix.Unix_error (e, _, _) ->
          close_fd fd;
          Error
            (Printf.sprintf "cannot listen on %s: %s" (Addr.to_string addr)
               (Unix.error_message e)))

let addr t = t.addr
let conns t = t.conns

(* One-byte write into the wake pipe. EAGAIN/EWOULDBLOCK are success: a
   full pipe already guarantees a pending wake-up. EPIPE/EBADF during an
   orderly shutdown are expected. Anything else really did lose a wake-up
   (the loop may sleep on finished work until unrelated traffic arrives),
   so make it loud instead of swallowing it. *)
let wake t =
  try ignore (Unix.write_substring t.wake_w "x" 0 1) with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _)
    when Atomic.get t.stopping ->
      ()
  | Unix.Unix_error (e, fn, _) ->
      Fastver_obs.Counter.incr t.m_lost_wakeups;
      Log.err (fun m ->
          m "lost select-loop wake-up: %s failed with %s" fn
            (Unix.error_message e))

let accept_all t h =
  let rec go () =
    match Unix.accept ~cloexec:true t.listener with
    | fd, _peer ->
        if not (fits_select fd) then begin
          Fastver_obs.Counter.incr t.m_refused;
          Log.warn (fun m ->
              m "%a: refused a connection above the select limit" Addr.pp
                t.addr);
          close_fd fd
        end
        else begin
          Unix.set_nonblock fd;
          (match t.addr with
          | Addr.Tcp _ -> (
              try Unix.setsockopt fd Unix.TCP_NODELAY true
              with Unix.Unix_error _ -> ())
          | Addr.Unix_sock _ -> ());
          t.conns <-
            {
              fd;
              reader = Frame.create ();
              outq = Queue.create ();
              out_off = 0;
              out_bytes = 0;
              closing = false;
              dead = false;
              data = h.accept ();
            }
            :: t.conns
        end;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
        if t.accept_paused_until = 0.0 then begin
          Fastver_obs.Counter.incr t.m_accept_pauses;
          Log.warn (fun m ->
              m "%a: out of descriptors; pausing accept" Addr.pp t.addr)
        end;
        t.accept_paused_until <- Unix.gettimeofday () +. accept_backoff
    | exception Unix.Unix_error _ ->
        (* EAGAIN: the backlog is empty. Anything else is retried on the
           next pass. *)
        ()
  in
  go ()

(* One read per ready connection per pass, then every complete frame it
   finished; a framing error is delivered once and closes the
   connection. *)
let read_input t h c =
  (match Sockio.read_chunk c.fd t.scratch with
  | `Again -> ()
  | `Eof -> c.closing <- true
  | `Data n -> Frame.feed c.reader t.scratch 0 n
  | exception Unix.Unix_error _ -> c.dead <- true);
  let rec frames () =
    if not c.dead then
      match Frame.next c.reader with
      | Ok None -> ()
      | Ok (Some payload) ->
          h.input c (Ok payload);
          if is_open c then frames ()
      | Error e ->
          h.input c (Error e);
          c.closing <- true
  in
  frames ()

let flush c =
  try
    let continue = ref true in
    while !continue && not (Queue.is_empty c.outq) do
      let head = Queue.peek c.outq in
      match Sockio.write_sub c.fd head c.out_off with
      | `Again -> continue := false
      | `Wrote n ->
          c.out_off <- c.out_off + n;
          c.out_bytes <- c.out_bytes - n;
          if c.out_off = String.length head then begin
            ignore (Queue.pop c.outq);
            c.out_off <- 0
          end
    done
  with Unix.Unix_error _ -> c.dead <- true

let has_output c = (not c.dead) && not (Queue.is_empty c.outq)

let reap t h =
  let gone, kept =
    List.partition
      (fun c ->
        c.dead || (c.closing && Queue.is_empty c.outq && h.settled c))
      t.conns
  in
  List.iter (fun c -> h.closed c; close_fd c.fd) gone;
  if gone <> [] then t.accept_paused_until <- 0.0;
  t.conns <- kept

let run t h =
  while not (Atomic.get t.stopping) do
    let now = Unix.gettimeofday () in
    let paused = now < t.accept_paused_until in
    let read_fds =
      t.wake_r
      :: (if paused then [] else [ t.listener ])
      @ List.filter_map
          (fun c -> if is_open c && h.wants_input c then Some c.fd else None)
          t.conns
    in
    let write_fds =
      List.filter_map (fun c -> if has_output c then Some c.fd else None) t.conns
    in
    let timeout =
      match (h.deadline (), if paused then Some t.accept_paused_until else None) with
      | None, None -> -1.0
      | Some d, None | None, Some d -> Float.max 0.0 (d -. now)
      | Some d, Some resume -> Float.max 0.0 (Float.min d resume -. now)
    in
    match Unix.select read_fds write_fds [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        let ready = Hashtbl.create 16 in
        List.iter (fun fd -> Hashtbl.replace ready fd ()) readable;
        (* wake-ups coalesce: one read empties any realistic backlog, and
           a remainder only costs another pass *)
        if Hashtbl.mem ready t.wake_r then
          (try ignore (Unix.read t.wake_r t.scratch 0 4096)
           with Unix.Unix_error _ -> ());
        if Hashtbl.mem ready t.listener then accept_all t h;
        List.iter
          (fun c ->
            (* re-asked here: input read earlier in this pass may have
               filled the owner's queue *)
            if Hashtbl.mem ready c.fd && is_open c && h.wants_input c then
              read_input t h c)
          t.conns;
        h.pass ();
        (* every connection with output, not only those select reported
           writable: the owner's pass may just have queued it, and a
           failed attempt costs one EAGAIN *)
        List.iter (fun c -> if has_output c then flush c) t.conns;
        reap t h
  done

let stop t =
  let first = not (Atomic.exchange t.stopping true) in
  if first then wake t;
  first

(* Drain queued output under a short grace budget, so a peer mid-reply
   (a follower fetching a checkpoint) receives the complete frame — or,
   if it cannot drain in time, a frame cut at the transport, which its
   decoder rejects whole. Then shut the sockets down explicitly: readers
   get a clean EOF rather than a reset. *)
let shutdown t =
  let deadline = Unix.gettimeofday () +. 1.0 in
  let rec drain () =
    List.iter (fun c -> if has_output c then flush c) t.conns;
    match List.filter has_output t.conns with
    | [] -> ()
    | busy when Unix.gettimeofday () < deadline ->
        (try
           ignore (Unix.select [] (List.map (fun c -> c.fd) busy) [] 0.05)
         with Unix.Unix_error (Unix.EINTR, _, _) -> ());
        drain ()
    | _ -> Log.info (fun m -> m "shutdown: dropping undrained output after grace")
  in
  drain ();
  List.iter
    (fun c ->
      (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      close_fd c.fd)
    t.conns;
  t.conns <- [];
  List.iter close_fd [ t.listener; t.wake_r; t.wake_w ];
  match t.addr with
  | Addr.Unix_sock path -> (
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | Addr.Tcp _ -> ()
