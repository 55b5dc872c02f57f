(* The in-process replay of a served run: the same seeded op streams,
   drained in batches of the server's measured drain size, pushed through
   the public client, wire, gateway, batch and verification functions one
   stage at a time. Each stage is a span; a stage has no child spans, so
   its self time is its duration. *)

module Wire = Fastver_net.Wire
module Auth = Fastver.Auth
module Key = Fastver_merkle.Key

let now = Proc.now

type stage =
  | Put_mac  (** client: [Auth.put_request] *)
  | Encode_req  (** client: [Wire.encode_request] *)
  | Decode_req  (** server: [Wire.decode_request] *)
  | Admit  (** server: [Fastver.admit_put] *)
  | Submit  (** server: [Fastver.Batch.submit ~pre_admitted:true] *)
  | Encode_resp  (** server: [Wire.encode_response] *)
  | Decode_resp  (** client: [Wire.decode_response] *)
  | Receipt  (** client: [Auth.receipt] + [Auth.check] *)
  | Verify  (** [Fastver.verify] at each epoch end *)
  | Checkpoint  (** [Fastver.checkpoint] after it, on durable workloads *)

let stages =
  [ Put_mac; Encode_req; Decode_req; Admit; Submit; Encode_resp; Decode_resp;
    Receipt; Verify; Checkpoint ]

let stage_name = function
  | Put_mac -> "auth.put_request"
  | Encode_req -> "wire.encode_request"
  | Decode_req -> "wire.decode_request"
  | Admit -> "core.admit_put"
  | Submit -> "core.batch_submit"
  | Encode_resp -> "wire.encode_response"
  | Decode_resp -> "wire.decode_response"
  | Receipt -> "auth.receipt"
  | Verify -> "core.verify"
  | Checkpoint -> "core.checkpoint"

let index s =
  let rec go i = function
    | [] -> assert false
    | x :: r -> if x = s then i else go (i + 1) r
  in
  go 0 stages

type result = {
  total_s : float array;  (** per stage *)
  calls : int array;
  ops : int;
  wire_bytes : int;
  transitions : int;
  ckpt_ratio : float;  (** mean generation bytes / user bytes put *)
  spans : (string * int * float * float) list;
      (** (name, drain/epoch id, start, end), parent = the drain span *)
}

type spec = {
  config : Fastver.Config.t;
  db : int;
  conns : int;
  epoch_ops : int;
  epochs : int;
  warm_epochs : int;
  drain : int;
  streams : int -> Load.stream;  (** a fresh seeded stream per connection *)
  ckpt_dir : string option;
}

(* Spans kept for the trace file; stage totals count every call. *)
let max_spans = 50_000

let run spec =
  let t = Fastver.create ~config:spec.config () in
  Fastver.load t
    (Array.init spec.db (fun i ->
         (Int64.of_int i, Fastver_workload.Ycsb.initial_value (Int64.of_int i))));
  let auth = Auth.key_of_secret spec.config.mac_secret in
  let streams = Array.init spec.conns spec.streams in
  let nonces = Array.make spec.conns 0L in
  let total_s = Array.make (List.length stages) 0.0 in
  let calls = Array.make (List.length stages) 0 in
  let spans = ref [] and n_spans = ref 0 in
  (* Warm-up epochs run the same code with recording off. *)
  let recording = ref false in
  let span stage id f =
    if not !recording then f ()
    else begin
      let t0 = now () in
      let r = f () in
      let t1 = now () in
      let i = index stage in
      total_s.(i) <- total_s.(i) +. (t1 -. t0);
      calls.(i) <- calls.(i) + 1;
      if !n_spans < max_spans then begin
        spans := (stage_name stage, id, t0, t1) :: !spans;
        incr n_spans
      end;
      r
    end
  in
  let ops = ref 0 and drains = ref 0 and wire_bytes = ref 0 in
  let ratios = ref [] in
  let frame_id = ref 0L in
  let payload frame = String.sub frame 4 (String.length frame - 4) in
  (* One drain: [batch] holds (connection, op) pairs. *)
  let drain_ops batch =
    let id = !drains in
    let client_side =
      Array.map
        (fun (c, op) ->
          nonces.(c) <- Int64.succ nonces.(c);
          let nonce = nonces.(c) and client = c + 1 in
          let req =
            match op with
            | Load.Get key -> Wire.Get { key; nonce }
            | Load.Put (key, seq) ->
                let value = Load.value_of ~conn:c ~seq in
                let mac =
                  span Put_mac id (fun () ->
                      Auth.put_request auth ~client ~nonce (Key.of_int64 key) value)
                in
                Wire.Put { key; nonce; mac; value = Some value }
          in
          frame_id := Int64.succ !frame_id;
          let frame = span Encode_req id (fun () -> Wire.encode_request ~id:!frame_id req) in
          if !recording then wire_bytes := !wire_bytes + String.length frame;
          (client, nonce, frame))
        batch
    in
    let decoded =
      Array.map
        (fun (client, _, frame) ->
          match span Decode_req id (fun () -> Wire.decode_request (payload frame)) with
          | Ok (fid, req) -> (client, fid, req)
          | Error e -> failwith ("replay: request decode: " ^ e))
        client_side
    in
    let batch_ops =
      Array.map
        (fun (client, _, req) ->
          match req with
          | Wire.Get { key; nonce } -> Fastver.Batch.Get { client; nonce; key }
          | Wire.Put { key; nonce; mac; value } ->
              (match
                 span Admit id (fun () ->
                     Fastver.admit_put t ~client ~nonce ~mac ~key ~value)
               with
              | Ok () -> ()
              | Error e -> failwith ("replay: admission refused: " ^ e));
              Fastver.Batch.Put { client; nonce; mac; key; value }
          | _ -> failwith "replay: unexpected request")
        decoded
    in
    let replies =
      span Submit id (fun () -> Fastver.Batch.submit ~pre_admitted:true t batch_ops)
    in
    Array.iteri
      (fun i reply ->
        let client, fid, _ = decoded.(i) in
        let _, nonce, _ = client_side.(i) in
        let item (b : Fastver.Batch.item) =
          { Wire.key = b.ikey; value = b.ivalue; epoch = b.iepoch; mac = b.imac }
        in
        let resp, kind =
          match reply with
          | Fastver.Batch.Got b -> (Wire.Got { nonce; item = item b }, Auth.Get)
          | Fastver.Batch.Put_done b -> (Wire.Put_ok { nonce; item = item b }, Auth.Put)
          | Fastver.Batch.Failed e -> failwith ("replay: op failed: " ^ e)
          | Fastver.Batch.Scanned _ -> failwith "replay: unexpected scan"
        in
        let frame = span Encode_resp id (fun () -> Wire.encode_response ~id:fid resp) in
        if !recording then wire_bytes := !wire_bytes + String.length frame;
        let it =
          match span Decode_resp id (fun () -> Wire.decode_response (payload frame)) with
          | Ok (_, (Wire.Got { item; _ } | Wire.Put_ok { item; _ })) -> item
          | _ -> failwith "replay: response decode"
        in
        let ok =
          span Receipt id (fun () ->
              let expected =
                Auth.receipt auth ~kind ~client ~nonce (Key.of_int64 it.key) it.value
                  ~epoch:it.epoch
              in
              Auth.check ~expected it.mac)
        in
        if not ok then raise (Fastver.Integrity_violation "replay: receipt MAC");
        if !recording then incr ops)
      replies;
    if !recording then incr drains
  in
  let user_bytes = ref 0 in
  let epoch () =
    let share = spec.epoch_ops / spec.conns in
    (* Round-robin the connections' shares into drains, as the server's
       I/O loop sees two pipelined connections. *)
    let per_conn = Array.map (fun st -> Array.init share (fun _ -> Load.next st)) streams in
    let all =
      Array.init (share * spec.conns) (fun i ->
          let c = i mod spec.conns in
          (c, per_conn.(c).(i / spec.conns)))
    in
    Array.iter (function _, Load.Put _ -> user_bytes := !user_bytes + 8 | _ -> ()) all;
    let n = Array.length all in
    let i = ref 0 in
    while !i < n do
      drain_ops (Array.sub all !i (min spec.drain (n - !i)));
      i := !i + spec.drain
    done;
    let vid = - (!drains) - 1 in
    span Verify vid (fun () -> ignore (Fastver.verify t));
    Option.iter
      (fun dir ->
        let f () =
          match Fastver.checkpoint t ~dir with
          | Ok () -> ()
          | Error e -> failwith ("replay: checkpoint: " ^ e)
        in
        span Checkpoint vid f;
        if !recording then begin
          let newest =
            Sys.readdir dir |> Array.to_list
            |> List.filter_map (fun f -> Scanf.sscanf_opt f "ckpt-%d%!" (fun g -> (g, f)))
            |> List.sort compare |> List.rev
          in
          match newest with
          | (_, f) :: _ when !user_bytes > 0 ->
              ratios :=
                float_of_int (Proc.du (Filename.concat dir f)) /. float_of_int !user_bytes
                :: !ratios
          | _ -> ()
        end)
      spec.ckpt_dir;
    user_bytes := 0
  in
  for _ = 1 to spec.warm_epochs do epoch () done;
  recording := true;
  let tr0 = Fastver_enclave.Enclave.transitions (Fastver.enclave_handle t) in
  for _ = 1 to spec.epochs do epoch () done;
  let tr1 = Fastver_enclave.Enclave.transitions (Fastver.enclave_handle t) in
  let mean l = match l with [] -> 0.0 | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  {
    total_s; calls; ops = !ops;
    wire_bytes = !wire_bytes; transitions = tr1 - tr0;
    ckpt_ratio = mean !ratios; spans = List.rev !spans;
  }

let stage_total r s = r.total_s.(index s)
let stage_calls r s = r.calls.(index s)
