(* A bounded blocking queue for handing work between domains (the network
   server's I/O loop and its executor pool). Single lock + two condition
   variables: [push] blocks while full — which is exactly the backpressure
   the producer wants — and [pop] blocks while empty. [close] wakes
   everyone; a closed queue answers [push] with [false] (total, never
   raises — a producer racing [close] must not crash) and drains pops to
   [None]. *)

type 'a t = {
  buf : 'a option array;
  mutable head : int; (* index of the next pop *)
  mutable len : int;
  mutable closed : bool;
  lock : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
}

let create capacity =
  if capacity <= 0 then invalid_arg "Bounded_queue.create: capacity <= 0";
  {
    buf = Array.make capacity None;
    head = 0;
    len = 0;
    closed = false;
    lock = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
  }

let push t x =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  while (not t.closed) && t.len = Array.length t.buf do
    Condition.wait t.not_full t.lock
  done;
  if t.closed then false
  else begin
    t.buf.((t.head + t.len) mod Array.length t.buf) <- Some x;
    t.len <- t.len + 1;
    Condition.signal t.not_empty;
    true
  end

let pop t =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  while t.len = 0 && not t.closed do
    Condition.wait t.not_empty t.lock
  done;
  if t.len = 0 then None
  else begin
    let x = t.buf.(t.head) in
    t.buf.(t.head) <- None;
    t.head <- (t.head + 1) mod Array.length t.buf;
    t.len <- t.len - 1;
    Condition.signal t.not_full;
    x
  end

let close t =
  Mutex.lock t.lock;
  t.closed <- true;
  Condition.broadcast t.not_empty;
  Condition.broadcast t.not_full;
  Mutex.unlock t.lock
