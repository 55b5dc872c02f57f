let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type t = float

let start = now
let elapsed_s t = now () -. t
let finish t h = Histogram.record_span h (elapsed_s t)

let time h f =
  let t = start () in
  Fun.protect ~finally:(fun () -> finish t h) f
