type t = int Atomic.t

let create () = Atomic.make 0
let incr t = ignore (Atomic.fetch_and_add t 1)
let add t n = ignore (Atomic.fetch_and_add t n)
let get t = Atomic.get t
