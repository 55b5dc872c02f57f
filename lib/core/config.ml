type t = {
  n_workers : int;
  cache_capacity : int;
  frontier_levels : int;
  batch_size : int;
  log_buffer_size : int;
  algo : Record_enc.algo;
  cost_model : Cost_model.t;
  authenticate_clients : bool;
  sorted_migration : bool;
  mac_secret : string;
  mset_secret : string;
  seed : int;
  metrics_enabled : bool;
  cold_dir : string option;
  cold_threshold : int;
  cold_segment_bytes : int;
  cold_gc_ratio : float;
}

let default =
  {
    n_workers = 1;
    cache_capacity = 65_536;
    frontier_levels = 6;
    batch_size = 65536;
    log_buffer_size = 4096;
    algo = Record_enc.Blake2s;
    cost_model = Cost_model.simulated;
    authenticate_clients = true;
    sorted_migration = true;
    mac_secret = "fastver-shared-client-secret";
    mset_secret = "fastver-mset-k3y";
    seed = 42;
    metrics_enabled = true;
    cold_dir = None;
    cold_threshold = 100_000;
    cold_segment_bytes = 4 * 1024 * 1024;
    cold_gc_ratio = 0.5;
  }

let pp ppf t =
  Format.fprintf ppf
    "workers=%d cache=%d d=%d batch=%d log=%d algo=%a enclave=%a \
     auth=%b sorted=%b metrics=%b cold=%s"
    t.n_workers t.cache_capacity t.frontier_levels t.batch_size
    t.log_buffer_size Record_enc.pp_algo t.algo Cost_model.pp t.cost_model
    t.authenticate_clients t.sorted_migration t.metrics_enabled
    (match t.cold_dir with
    | None -> "off"
    | Some d -> Printf.sprintf "%s@%d" d t.cold_threshold)
