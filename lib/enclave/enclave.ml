exception Out_of_enclave_memory

type t = {
  model : Cost_model.t;
  memory_budget : int;
  mutable in_use : int;
  mutable charged : int64;
  mutable transitions : int;
  mutable depth : int; (* nesting level: only the outermost call charges *)
}

let create ?(memory_budget_bytes = 192 * 1024 * 1024) model =
  {
    model;
    memory_budget = memory_budget_bytes;
    in_use = 0;
    charged = 0L;
    transitions = 0;
    depth = 0;
  }

let call t f =
  if t.depth > 0 then f ()
  else begin
    t.depth <- 1;
    t.transitions <- t.transitions + 1;
    t.charged <- Int64.add t.charged (Int64.of_int t.model.transition_ns);
    let t0 = if t.model.memory_access_factor > 1.0 then Unix.gettimeofday () else 0.0 in
    Fun.protect
      ~finally:(fun () ->
        t.depth <- 0;
        if t.model.memory_access_factor > 1.0 then begin
          let inside = Unix.gettimeofday () -. t0 in
          t.charged <-
            Int64.add t.charged
              (Int64.of_float
                 (inside *. (t.model.memory_access_factor -. 1.0) *. 1e9))
        end)
      f
  end

let charge_transitions t n =
  t.transitions <- t.transitions + n;
  t.charged <-
    Int64.add t.charged (Int64.of_int (n * t.model.transition_ns))

let charged_ns t = t.charged
let transitions t = t.transitions

let cost_model t = t.model

let alloc_trusted t n =
  if t.in_use + n > t.memory_budget then raise Out_of_enclave_memory;
  t.in_use <- t.in_use + n

let memory_budget t = t.memory_budget
let trusted_bytes_in_use t = t.in_use

module Sealed_slot = struct
  open Fastver_crypto

  type slot = {
    hw_key : string; (* never leaves the "hardware" *)
    mutable counter : int64; (* trusted monotonic counter *)
    mutable blob : string; (* untrusted persistent storage *)
  }

  let create () =
    {
      hw_key = String.init 32 (fun _ -> Char.chr (Random.int 256));
      counter = 0L;
      blob = "";
    }

  let create_with ~hw_key ~counter = { hw_key; counter; blob = "" }
  let hw_key slot = slot.hw_key
  let counter slot = slot.counter

  (* Blob layout: counter (8 bytes LE) + payload + HMAC(counter + payload). *)
  let store slot payload =
    slot.counter <- Int64.succ slot.counter;
    let body = Bytes_util.string_of_u64_le slot.counter ^ payload in
    slot.blob <- body ^ Hmac.mac ~key:slot.hw_key body

  let load slot =
    let blob = slot.blob in
    let n = String.length blob in
    if n < 8 + 32 then Error "sealed blob missing or truncated"
    else
      let body = String.sub blob 0 (n - 32) in
      let tag = String.sub blob (n - 32) 32 in
      if not (Hmac.verify ~key:slot.hw_key body ~tag) then
        Error "sealed blob MAC mismatch (tampered)"
      else
        let counter = Bytes_util.get_u64_le body 0 in
        if counter <> slot.counter then
          Error "sealed blob counter mismatch (rollback)"
        else Ok (String.sub body 8 (String.length body - 8))

  let external_blob slot = slot.blob
  let inject_blob slot blob = slot.blob <- blob
end
