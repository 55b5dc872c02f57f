open Fastver_verifier
open State

(* ------------------------------------------------------------------ *)
(* Gateway: client authentication inside the enclave                   *)
(* ------------------------------------------------------------------ *)

let gateway_check_put t key value meta =
  match meta with
  | Some m when t.config.authenticate_clients ->
      with_lock t.gateway_lock (fun () ->
          let last =
            Option.value
              (Hashtbl.find_opt t.nonces m.client)
              ~default:Int64.min_int
          in
          if Int64.compare m.nonce last <= 0 then
            raise (Integrity_violation "gateway: put nonce replayed");
          let v = match value with Some v -> v | None -> "" in
          let expected =
            Auth.put_request t.auth ~client:m.client ~nonce:m.nonce key v
          in
          if not (Auth.check ~expected m.mac) then
            raise (Integrity_violation "gateway: bad client signature on put");
          Hashtbl.replace t.nonces m.client m.nonce)
  | Some _ | None -> ()

let gateway_receipt t ~kind key value meta =
  match meta with
  | Some m when t.config.authenticate_clients ->
      (* The epoch this op folds into. Receipts are stamped under the
         shard's lock, which a scan holds from its seal to its
         close, so this is never an epoch the scan has sealed. *)
      let epoch = Atomic.get t.live_epoch in
      let mac =
        Auth.receipt t.auth ~kind ~client:m.client ~nonce:m.nonce key value
          ~epoch
      in
      m.receipt := Some (mac, epoch)
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Verification log                                                    *)
(* ------------------------------------------------------------------ *)

let apply_entry t sh = function
  | E_add_b (k, v, ts) ->
      ok (Verifier.add_b sh.verifier ~key:k ~value:v ~timestamp:ts)
  | E_evict_b (k, ts) ->
      ok (Verifier.evict_b sh.verifier ~key:k ~timestamp:ts)
  | E_vget (k, v, meta) ->
      ok (Verifier.vget sh.verifier ~key:k v);
      gateway_receipt t ~kind:Auth.Get k v meta
  | E_vput (k, v, meta) ->
      ok (Verifier.vput sh.verifier ~key:k v);
      gateway_receipt t ~kind:Auth.Put k v meta

let flush_worker t sh =
  if sh.log_len > 0 then begin
    Metrics.flush t.metrics sh.log_len;
    let entries = List.rev sh.log in
    sh.log <- [];
    sh.log_len <- 0;
    let t0 = now () in
    Enclave.call t.enclave (fun () -> List.iter (apply_entry t sh) entries);
    t.acc.verifier_time_s <- t.acc.verifier_time_s +. (now () -. t0)
  end

let push t sh e =
  sh.log <- e :: sh.log;
  sh.log_len <- sh.log_len + 1;
  if sh.log_len >= t.config.log_buffer_size then flush_worker t sh
