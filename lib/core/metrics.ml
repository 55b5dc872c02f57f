open Fastver_obs

type tier = Blum | Merkle | Cached

type t = {
  enabled : bool;
  registry : Registry.t;
  ops_blum : Counter.t;
  ops_merkle : Counter.t;
  ops_cached : Counter.t;
  gets : Counter.t;
  puts : Counter.t;
  scans : Counter.t;
  cas_retries : Counter.t;
  verifies : Counter.t;
  flush_entries : Histogram.t;
  verify_seconds : Histogram.t;
  verify_touched : Histogram.t;
  verify_pause_seconds : Histogram.t;
  verify_in_flight : Gauge.t;
  checkpoint_seconds : Histogram.t;
  checkpoint_bytes_base : Counter.t;
  checkpoint_bytes_delta : Counter.t;
  checkpoint_gens_base : Counter.t;
  checkpoint_gens_delta : Counter.t;
  checkpoint_chain_links : Gauge.t;
  recover_seconds : Histogram.t;
}

let create ~enabled () =
  let r = Registry.create () in
  let tier_counter tier =
    Registry.counter r ~labels:[ ("tier", tier) ]
      ~help:"Validated elementary operations by protection tier"
      "fastver_ops_total"
  in
  let ckpt_counter name help kind =
    Registry.counter r ~labels:[ ("kind", kind) ] ~help name
  in
  let ckpt_bytes =
    ckpt_counter "fastver_checkpoint_bytes_total"
      "Bytes of committed checkpoint generations (components and manifest)"
  and ckpt_gens =
    ckpt_counter "fastver_checkpoint_generations_total"
      "Committed checkpoint generations"
  in
  {
    enabled;
    registry = r;
    ops_blum = tier_counter "blum";
    ops_merkle = tier_counter "merkle";
    ops_cached = tier_counter "cached";
    gets =
      Registry.counter r ~help:"Validated elementary reads" "fastver_gets_total";
    puts =
      Registry.counter r ~help:"Validated elementary updates"
        "fastver_puts_total";
    scans =
      Registry.counter r ~help:"Range scans submitted" "fastver_scans_total";
    cas_retries =
      Registry.counter r ~help:"Fast-path CAS losses retried"
        "fastver_cas_retries_total";
    verifies =
      Registry.counter r ~help:"Verification scans completed"
        "fastver_verifies_total";
    flush_entries =
      Registry.histogram r
        ~help:"Verification-log entries per enclave flush"
        "fastver_log_flush_entries";
    verify_seconds =
      Registry.histogram r ~scale:1e-9
        ~help:"Verification scan duration (incl. modelled enclave cost)"
        "fastver_verify_scan_seconds";
    verify_touched =
      Registry.histogram r
        ~help:"Records migrated per verification scan (data + frontier)"
        "fastver_verify_touched_records";
    verify_pause_seconds =
      Registry.histogram r ~scale:1e-9
        ~help:
          "Foreground pause per verification (world-lock hold: the whole \
           scan when quiesced, only the O(workers) seal barrier in \
           background mode)"
        "fastver_verify_pause_seconds";
    verify_in_flight =
      Registry.gauge r
        ~help:"Verification scans currently in flight (0 or 1)"
        "fastver_verify_in_flight";
    checkpoint_seconds =
      Registry.histogram r ~scale:1e-9
        ~help:"Checkpoint generation write duration"
        "fastver_checkpoint_write_seconds";
    checkpoint_bytes_base = ckpt_bytes "base";
    checkpoint_bytes_delta = ckpt_bytes "delta";
    checkpoint_gens_base = ckpt_gens "base";
    checkpoint_gens_delta = ckpt_gens "delta";
    checkpoint_chain_links =
      Registry.gauge r
        ~help:
          "Generations in the newest checkpoint chain (its base and deltas)"
        "fastver_checkpoint_chain_links";
    recover_seconds =
      Registry.histogram r ~scale:1e-9
        ~help:"Checkpoint recovery duration" "fastver_recover_seconds";
  }

let registry t = t.registry
let enabled t = t.enabled

let tier t which =
  Counter.incr
    (match which with
    | Blum -> t.ops_blum
    | Merkle -> t.ops_merkle
    | Cached -> t.ops_cached)

let get_op t = Counter.incr t.gets
let put_op t = Counter.incr t.puts
let scan_op t = Counter.incr t.scans
let cas_retry t = Counter.incr t.cas_retries

type counts = {
  c_gets : int;
  c_puts : int;
  c_scans : int;
  c_blum : int;
  c_merkle : int;
  c_cached : int;
  c_cas_retries : int;
  c_verifies : int;
}

let counts t =
  {
    c_gets = Counter.get t.gets;
    c_puts = Counter.get t.puts;
    c_scans = Counter.get t.scans;
    c_blum = Counter.get t.ops_blum;
    c_merkle = Counter.get t.ops_merkle;
    c_cached = Counter.get t.ops_cached;
    c_cas_retries = Counter.get t.cas_retries;
    c_verifies = Counter.get t.verifies;
  }

let flush t n = if t.enabled then Histogram.record t.flush_entries n

let verify_shard_seconds t ~sid =
  Registry.histogram t.registry ~scale:1e-9
    ~labels:[ ("shard", string_of_int sid) ]
    ~help:"Per-shard verification-scan time (parallel slice incl. seal)"
    "fastver_verify_shard_seconds"

let verify_shard t ~sid ~seconds =
  if t.enabled then Histogram.record_span (verify_shard_seconds t ~sid) seconds

let verify_pause t ~seconds =
  if t.enabled then Histogram.record_span t.verify_pause_seconds seconds

let verify_in_flight t n = Gauge.set t.verify_in_flight (float_of_int n)

let verify_scan t ~seconds ~touched =
  Counter.incr t.verifies;
  if t.enabled then begin
    Histogram.record_span t.verify_seconds seconds;
    Histogram.record t.verify_touched touched
  end

let checkpoint_write t seconds =
  if t.enabled then Histogram.record_span t.checkpoint_seconds seconds

let checkpoint_chain_links t links =
  Gauge.set t.checkpoint_chain_links (float_of_int links)

let checkpoint_committed t ~base ~bytes ~links =
  if base then begin
    Counter.add t.checkpoint_bytes_base bytes;
    Counter.incr t.checkpoint_gens_base
  end
  else begin
    Counter.add t.checkpoint_bytes_delta bytes;
    Counter.incr t.checkpoint_gens_delta
  end;
  checkpoint_chain_links t links

let recover_done t seconds =
  if t.enabled then Histogram.record_span t.recover_seconds seconds
