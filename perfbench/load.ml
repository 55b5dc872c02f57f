(* The closed-loop load generator: one session per connection, a fixed
   window of pipelined requests, and every receipt checked by the client
   library. One domain drives all connections; the caller certifies
   ([verify_now]) after each epoch of a fixed number of ops, with nothing in
   flight, so every epoch seals exactly the next ops of the seeded
   streams and no op waits behind a scan. *)

module Client = Fastver_net.Client
module Ycsb = Fastver_workload.Ycsb

let now = Proc.now

(* ---- Seeded op streams ---- *)

(* Put values are 8 bytes: a connection tag and that connection's put
   sequence number, so a read can be checked against the writes it may
   legally observe. *)
let value_of ~conn ~seq =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0
    (Int64.logor (Int64.of_int seq) (Int64.shift_left (Int64.of_int (conn + 1)) 56));
  Bytes.unsafe_to_string b

let decode_value v =
  if String.length v <> 8 then None
  else
    let x = String.get_int64_le v 0 in
    let conn = Int64.to_int (Int64.shift_right_logical x 56) - 1 in
    Some (conn, Int64.to_int (Int64.logand x 0x00ffffffffffffffL))

type op = Get of int64 | Put of int64 * int  (** key, this connection's put seq *)

type stream = { gen : Ycsb.t; conn : int; mutable puts : int }

let stream ~seed ~db ~theta ~put_frac conn =
  let spec =
    Ycsb.with_dist
      { Ycsb.workload_a with read_prop = 1.0 -. put_frac; update_prop = put_frac }
      (Ycsb.Zipfian theta)
  in
  { gen = Ycsb.create ~seed:(Hashtbl.hash (seed, conn, "fvbench")) ~db_size:db spec;
    conn; puts = 0 }

let next st =
  match Ycsb.next st.gen with
  | Ycsb.Read k -> Get k
  | Ycsb.Update (k, _) ->
      st.puts <- st.puts + 1;
      Put (k, st.puts)
  | Ycsb.Scan _ -> invalid_arg "scan in a get/put stream"

(* ---- Growable float samples ---- *)

type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 4096 0.0; n = 0 }

let add s x =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0.0 in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let sorted s =
  let a = Array.sub s.a 0 s.n in
  Array.sort compare a;
  a

(* Nearest-rank quantile of a sorted array. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let merge l =
  let s = samples () in
  List.iter (fun x -> for i = 0 to x.n - 1 do add s x.a.(i) done) l;
  s

(* ---- Per-connection state ---- *)

let ring = 4096 (* > any window; request ids are sequential per connection *)

type conn = {
  id : int;
  session : Client.session;
  window : int;
  st : stream;
  last : (int64, int) Hashtbl.t;  (** key -> this connection's last put seq *)
  sent_seq : int Atomic.t array;  (** per connection: highest put seq sent *)
  r_key : int64 array;
  r_seq : int array;  (** put seq, or 0 for a get *)
  r_sent : float array;
  r_send_end : float array;
  order : int64 Queue.t;
  lat : samples;  (** send -> verified receipt, seconds *)
  done_at : samples;  (** time of each verified receipt *)
  (* spans of traced epochs: send start/end, await start/end per op *)
  spans : samples;
  mutable attempted : int;
  mutable completed : int;
  mutable failed : int;
  mutable bad_reads : int;
  mutable first_bad : string option;
}

let make_conn ~id ~session ~window ~st ~sent_seq =
  {
    id; session; window; st; last = Hashtbl.create 1024; sent_seq;
    r_key = Array.make ring 0L; r_seq = Array.make ring 0;
    r_sent = Array.make ring 0.0; r_send_end = Array.make ring 0.0;
    order = Queue.create (); lat = samples (); done_at = samples (); spans = samples ();
    attempted = 0; completed = 0; failed = 0; bad_reads = 0; first_bad = None;
  }

let bad c msg =
  c.bad_reads <- c.bad_reads + 1;
  if c.first_bad = None then c.first_bad <- Some msg

(* A get returns the initial value only if this connection never wrote the
   key; this connection's own value only as its latest write; another
   connection's value only if that connection already sent it. *)
let check_read c key v =
  match v with
  | None -> bad c (Printf.sprintf "key %Ld read as absent" key)
  | Some v when v = Ycsb.initial_value key ->
      if Hashtbl.mem c.last key then
        bad c (Printf.sprintf "key %Ld lost this connection's write" key)
  | Some v -> (
      match decode_value v with
      | Some (w, seq) when w = c.id ->
          if Hashtbl.find_opt c.last key <> Some seq then
            bad c (Printf.sprintf "key %Ld read a stale own write" key)
      | Some (w, seq) when w >= 0 && w < Array.length c.sent_seq ->
          if seq < 1 || seq > Atomic.get c.sent_seq.(w) then
            bad c (Printf.sprintf "key %Ld read an unsent value" key)
      | _ -> bad c (Printf.sprintf "key %Ld read a foreign value" key))

let send_one c ~traced =
  let op = next c.st in
  let t0 = now () in
  let id =
    match op with
    | Get k -> Client.send_get c.session k
    | Put (k, seq) ->
        Atomic.set c.sent_seq.(c.id) seq;
        Client.send_put c.session k (value_of ~conn:c.id ~seq)
  in
  let t1 = now () in
  let i = Int64.to_int id land (ring - 1) in
  (match op with
  | Get k -> c.r_key.(i) <- k; c.r_seq.(i) <- 0
  | Put (k, seq) -> c.r_key.(i) <- k; c.r_seq.(i) <- seq);
  c.r_sent.(i) <- t0;
  if traced then c.r_send_end.(i) <- t1;
  Queue.push id c.order;
  c.attempted <- c.attempted + 1

(* Integrity violations are not caught here: they fail the whole run. *)
let await_one c ~traced =
  let id = Queue.pop c.order in
  let i = Int64.to_int id land (ring - 1) in
  let t0 = now () in
  (match Client.await c.session with
  | id', reply ->
      if id' <> id then failwith "reply for an unexpected request id";
      let t1 = now () in
      add c.lat (t1 -. c.r_sent.(i));
      add c.done_at t1;
      if traced then begin
        add c.spans c.r_sent.(i);
        add c.spans c.r_send_end.(i);
        add c.spans t0;
        add c.spans t1
      end;
      let key = c.r_key.(i) in
      (match reply with
      | Client.Value v -> check_read c key v
      | Client.Stored -> Hashtbl.replace c.last key c.r_seq.(i)
      | Client.Scan_result _ -> bad c "unexpected scan reply")
  | exception Client.Server_error _ -> c.failed <- c.failed + 1);
  c.completed <- c.completed + 1

(* Run one epoch from this domain: every connection sends its share of
   [n] ops, keeping its window full, and the replies are awaited
   round-robin over the connections. [on_reply] runs after each reply. *)
let run_shares conns ~n ~traced ~on_reply =
  let k = Array.length conns in
  let sent = Array.make k 0 and finished = Array.make k 0 in
  let left = ref (k * n) in
  while !left > 0 do
    Array.iteri
      (fun i c ->
        while sent.(i) < n && Client.in_flight c.session < c.window do
          send_one c ~traced;
          sent.(i) <- sent.(i) + 1
        done)
      conns;
    Array.iteri
      (fun i c ->
        if finished.(i) < n then begin
          await_one c ~traced;
          on_reply ();
          finished.(i) <- finished.(i) + 1;
          decr left
        end)
      conns
  done
