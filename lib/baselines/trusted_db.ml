type t = {
  enclave : Enclave.t;
  table : (int64, string) Hashtbl.t;
  overhead : int;
}

let record_cost t v = t.overhead + 8 + String.length v

let create ?enclave ~record_overhead_bytes records =
  let enclave =
    match enclave with
    | Some e -> e
    | None -> Enclave.create Cost_model.simulated
  in
  let t =
    {
      enclave;
      table = Hashtbl.create (Array.length records * 2);
      overhead = record_overhead_bytes;
    }
  in
  Array.iter
    (fun (k, v) ->
      Enclave.alloc_trusted enclave (record_cost t v);
      Hashtbl.replace t.table k v)
    records;
  t

let get t k =
  Enclave.call t.enclave (fun () -> Hashtbl.find_opt t.table k)

let put t k v =
  Enclave.call t.enclave (fun () ->
      (match Hashtbl.find_opt t.table k with
      | Some old -> Enclave.free_trusted t.enclave (record_cost t old)
      | None -> ());
      Enclave.alloc_trusted t.enclave (record_cost t v);
      Hashtbl.replace t.table k v)

let memory_bytes t = Enclave.trusted_bytes_in_use t.enclave
