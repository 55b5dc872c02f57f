open Fastver_verifier

exception Failed of string

let ok = function Ok x -> x | Error e -> raise (Failed e)

type record = {
  key : Key.t;
  mutable value : string option;
  mutable ts : Timestamp.t;
}

type t = {
  verifier : Verifier.t;
  records : (int64, record) Hashtbl.t;
  mutable clock : Timestamp.t; (* mirror of the verifier clock *)
  mutable ops : int;
  mutable verifier_time : float;
  mutable last_latency : float;
}

let now = Unix.gettimeofday

let create ?(algo = Record_enc.Blake2s) data =
  let verifier =
    Verifier.create { Verifier.default_config with cache_capacity = 8; algo }
  in
  let records = Hashtbl.create (Array.length data * 2) in
  Array.iter
    (fun (k, v) ->
      let key = Key.of_int64 k in
      let r = { key; value = Some v; ts = Timestamp.zero } in
      Hashtbl.replace records k r;
      ok
        (Verifier.install_blum verifier ~key ~value:(Value.Data (Some v))
           ~timestamp:Timestamp.zero))
    data;
  {
    verifier;
    records;
    clock = Timestamp.zero;
    ops = 0;
    verifier_time = 0.0;
    last_latency = 0.0;
  }

(* One operation: add, validate, evict — all O(1). *)
let operate t k update =
  t.ops <- t.ops + 1;
  let r =
    match Hashtbl.find_opt t.records k with
    | Some r -> r
    | None -> raise (Failed "DV baseline operates on a fixed key population")
  in
  let t0 = now () in
  ok
    (Verifier.add_b t.verifier ~key:r.key ~value:(Value.Data r.value)
       ~timestamp:r.ts);
  t.clock <- Timestamp.max t.clock (Timestamp.next r.ts);
  let result =
    match update with
    | None ->
        ok (Verifier.vget t.verifier ~key:r.key r.value);
        r.value
    | Some v ->
        ok (Verifier.vput t.verifier ~key:r.key (Some v));
        r.value <- Some v;
        r.value
  in
  let ts' = t.clock in
  ok (Verifier.evict_b t.verifier ~key:r.key ~timestamp:ts');
  t.clock <- ts';
  r.ts <- ts';
  t.verifier_time <- t.verifier_time +. (now () -. t0);
  result

let get t k = operate t k None
let put t k v = ignore (operate t k (Some v))

(* The verification scan: every record migrates to the next epoch. *)
let verify t =
  let t0 = now () in
  let epoch = Verifier.current_epoch t.verifier in
  let floor = Timestamp.first_of_epoch (epoch + 1) in
  Hashtbl.iter
    (fun _ r ->
      ok
        (Verifier.add_b t.verifier ~key:r.key ~value:(Value.Data r.value)
           ~timestamp:r.ts);
      t.clock <- Timestamp.max t.clock (Timestamp.next r.ts);
      let ts' = Timestamp.max t.clock floor in
      ok (Verifier.evict_b t.verifier ~key:r.key ~timestamp:ts');
      t.clock <- ts';
      r.ts <- ts')
    t.records;
  ok (Verifier.close_epoch t.verifier ~epoch);
  t.clock <- Timestamp.max t.clock floor;
  ignore (ok (Verifier.verify_epoch t.verifier ~epoch));
  let dt = now () -. t0 in
  t.last_latency <- dt;
  t.verifier_time <- t.verifier_time +. dt

let verifier t = t.verifier
let verifier_time_s t = t.verifier_time
let last_verify_latency_s t = t.last_latency
let ops t = t.ops
let size t = Hashtbl.length t.records
