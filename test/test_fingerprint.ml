(* Behaviour fingerprint of the core. An epoch certificate is an HMAC over
   the epoch number alone, so two runs that certify the same epochs have
   equal certificates whatever work they did. These golden runs therefore
   pin three things for fixed, seeded, single-domain [run_ops] workloads:
   the final epoch, its certificate, and the verifier's count of every op
   kind. A refactor of the host core that keeps all three keeps the exact
   sequence of verifier calls (up to reordering within a count). *)

module C = Fastver_kvstore.Ckpt_io
module Ycsb = Fastver_workload.Ycsb

let db_size = 2000
let n_ops = 3000

let base =
  {
    Fastver.Config.default with
    n_workers = 1;
    cache_capacity = 64;
    frontier_levels = 4;
    batch_size = 500;
    log_buffer_size = 256;
    cost_model = Cost_model.zero;
  }

let fresh_dir name =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fv-fp-%s-%d" name (Unix.getpid ()))
  in
  C.remove_tree dir;
  dir

let mk config =
  let t = Fastver.create ~config () in
  Fastver.load t
    (Array.init db_size (fun i ->
         let k = Int64.of_int i in
         (k, Ycsb.initial_value k)));
  t

let gen () = Ycsb.create ~seed:7 ~db_size Ycsb.workload_a

(* "epoch cert-hex add_m evict_m add_b evict_b evict_bm vget vput certs" *)
let fingerprint t =
  let epoch = Fastver.current_epoch t in
  let cert = Fastver.verify t in
  let s = Fastver.verifier_stats t in
  Printf.sprintf "%d %s %d %d %d %d %d %d %d %d" epoch
    (Fastver_crypto.Bytes_util.to_hex cert)
    s.n_add_m s.n_evict_m s.n_add_b s.n_evict_b s.n_evict_bm s.n_vget s.n_vput
    s.n_certificates

let straight config () =
  let t = mk config in
  Fastver.run_ops t (gen ()) n_ops;
  fingerprint t

let with_cold () =
  let dir = fresh_dir "cold" in
  Fun.protect ~finally:(fun () -> C.remove_tree dir) @@ fun () ->
  straight { base with cold_dir = Some dir; cold_threshold = 300 } ()

(* Half the ops, a verified checkpoint, recovery into a fresh system, then
   the other half from the same generator on the recovered one. *)
let recovered () =
  let dir = fresh_dir "ckpt" in
  Fun.protect ~finally:(fun () -> C.remove_tree dir) @@ fun () ->
  let g = gen () in
  let t = mk base in
  Fastver.run_ops t g (n_ops / 2);
  ignore (Fastver.verify t);
  (match Fastver.checkpoint t ~dir with
  | Ok () -> ()
  | Error e -> Alcotest.failf "checkpoint: %s" e);
  match Fastver.recover ~config:base ~dir () with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok t' ->
      Fastver.run_ops t' g (n_ops - (n_ops / 2));
      fingerprint t'

let golden name run expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) name expected (run ()))

let suite =
  ( "fingerprint",
    [
      golden "1 shard" (straight base)
        "6 90102dff966d59efb000ee2a541b0f1de52357f9831af59038bcc5f98f48757e 15725 15658 2328 1418 916 1524 1476 7";
      golden "4 shards" (straight { base with n_shards = 4 })
        "6 90102dff966d59efb000ee2a541b0f1de52357f9831af59038bcc5f98f48757e 10794 10537 2292 1365 940 1524 1476 7";
      golden "cold tier" with_cold
        "6 90102dff966d59efb000ee2a541b0f1de52357f9831af59038bcc5f98f48757e 15725 15658 2328 1418 916 1524 1476 7";
      golden "checkpoint, recover, continue" recovered
        "7 e7615e9d54e7a598d42d3e89e9f058ba667722753af4083095776f21b089539c 7944 7885 1157 699 456 757 743 4";
    ] )
