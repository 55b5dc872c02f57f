#!/bin/sh
# Full pre-merge check: build every target (library, CLI, bench harness,
# examples, perfbench) with one `dune build @all`, then run the test suite.
# Any failure stops the script.
set -eu
cd "$(dirname "$0")/.."

# wait_sock PATH WHAT: wait up to 10 s for the Unix socket PATH to appear
wait_sock() {
  i=0
  while [ ! -S "$1" ]; do
    i=$((i + 1)); [ $i -gt 100 ] && { echo "$2 never came up"; exit 1; }
    sleep 0.1
  done
}

echo "== dune build @all"
dune build @all

echo "== dune runtest"
# pin the property-test seed for reproducibility; override by exporting
# QCHECK_SEED, and reuse the printed value to replay a failure exactly
QCHECK_SEED=${QCHECK_SEED:-468041275}
export QCHECK_SEED
echo "  (QCheck seed: $QCHECK_SEED)"
dune runtest || { echo "runtest failed (QCHECK_SEED=$QCHECK_SEED)"; exit 1; }

echo "== crash round-trip (serve + kill -9 mid-load + recover)"
FV=_build/default/bin/fastver_cli.exe
WORK=$(mktemp -d)
trap 'kill -9 $SRV 2>/dev/null || true; rm -rf "$WORK"' EXIT
$FV serve --listen "unix:$WORK/sock" -n 2000 --batch 500 --enclave zero \
  --checkpoint-dir "$WORK/ckpt" &
SRV=$!
wait_sock "$WORK/sock" "server"
# drive load until at least one checkpoint generation has committed
$FV client-bench --connect "unix:$WORK/sock" --ops 3000 --clients 2 -n 2000
i=0
until ls "$WORK"/ckpt/ckpt-*/MANIFEST >/dev/null 2>&1; do
  i=$((i + 1)); [ $i -gt 100 ] && { echo "no checkpoint committed"; exit 1; }
  sleep 0.1
done
# newest committed generation number (0 if none)
newest_gen() {
  ls -d "$WORK"/ckpt/ckpt-*/MANIFEST 2>/dev/null \
    | sed 's|.*/ckpt-\([0-9]*\)/MANIFEST|\1|' | sort -n | tail -1
}
# kill_under_load CLIENT: more load in flight from client ids CLIENT and
# CLIENT+1 (earlier benches spent the lower ids' put nonces), then kill -9
# — most likely mid-delta. The kill waits until the load has committed a
# generation newer than the newest one now and is still running, so it
# lands on a server under load
kill_under_load() {
  before=$(newest_gen)
  $FV client-bench --connect "unix:$WORK/sock" --ops 20000 --clients 2 \
    -n 2000 --first-client "$1" &
  BENCH=$!
  i=0
  until [ "$(newest_gen)" -gt "$before" ]; do
    i=$((i + 1)); [ $i -gt 100 ] && { echo "load committed no new generation"; exit 1; }
    kill -0 $BENCH 2>/dev/null || { echo "load ended before a new generation"; exit 1; }
    sleep 0.1
  done
  sleep 0.2
  kill -0 $BENCH 2>/dev/null || { echo "load was not live at the kill"; exit 1; }
  kill -9 $SRV
  wait $BENCH 2>/dev/null || true
  echo "  killed under load after generation $(newest_gen) (before: $before)"
}
kill_under_load 3
# recovery must land on a committed generation and pass full verification
$FV recover --dir "$WORK/ckpt" --enclave zero
# the recovered chain must take new generations and recover again: a
# restarted server recovers from the same directory and extends its chain
rm -f "$WORK/sock"
$FV serve --listen "unix:$WORK/sock" -n 2000 --batch 500 --enclave zero \
  --checkpoint-dir "$WORK/ckpt" &
SRV=$!
wait_sock "$WORK/sock" "restarted server"
kill_under_load 5
$FV recover --dir "$WORK/ckpt" --enclave zero

echo "== observability smoke (serve + client ops + stats --check)"
$FV serve --listen "unix:$WORK/obs.sock" -n 2000 --batch 0 --enclave zero &
OBS_SRV=$!
trap 'kill -9 $SRV $OBS_SRV 2>/dev/null || true; rm -rf "$WORK"' EXIT
wait_sock "$WORK/obs.sock" "obs server"
$FV client-bench --connect "unix:$WORK/obs.sock" --ops 2000 --clients 2 -n 2000
# reconciliation: served > 0, per-tier op counts sum to validated ops,
# one latency sample per served request — the CLI exits non-zero otherwise
$FV stats --connect "unix:$WORK/obs.sock" --check
# every metric documented in README's Observability section must be present
# in the live snapshot
$FV stats --connect "unix:$WORK/obs.sock" --format json > "$WORK/metrics.json"
sed -n '/<!-- metrics:begin -->/,/<!-- metrics:end -->/p' README.md \
  | grep -o 'fastver_[a-z_]*' | sort -u > "$WORK/documented"
[ -s "$WORK/documented" ] || { echo "README metric list not found"; exit 1; }
while read -r name; do
  grep -q "\"name\":\"$name\"" "$WORK/metrics.json" \
    || { echo "documented metric $name missing from live snapshot"; exit 1; }
done < "$WORK/documented"
echo "  $(wc -l < "$WORK/documented") documented metrics all present"
kill -9 $OBS_SRV 2>/dev/null || true

echo "== verification under load (serve --batch 400)"
# small --batch so auto-verifies fire while client-bench traffic is in
# flight: each stop-the-world scan runs on the executor that trips the
# batch, and the other executors' ops wait for it
$FV serve --listen "unix:$WORK/load.sock" -n 2000 --batch 400 --enclave zero \
  --workers 4 &
LOAD_SRV=$!
trap 'kill -9 $SRV $OBS_SRV $LOAD_SRV 2>/dev/null || true; rm -rf "$WORK"' EXIT
wait_sock "$WORK/load.sock" "load server"
# the bench completing with verified responses shows the foreground kept
# being served between scans
$FV client-bench --connect "unix:$WORK/load.sock" --ops 6000 --clients 4 \
  --window 32 -n 2000
$FV stats --connect "unix:$WORK/load.sock" --check
$FV stats --connect "unix:$WORK/load.sock" --format json > "$WORK/load-metrics.json"
VERIFIES=$(sed -n 's/.*"name":"fastver_verifies_total","labels":{[^}]*},"value":\([0-9]*\).*/\1/p' \
  "$WORK/load-metrics.json")
[ "${VERIFIES:-0}" -ge 1 ] \
  || { echo "no verification fired during load"; exit 1; }
PAUSES=$(sed -n 's/.*"name":"fastver_verify_pause_seconds","labels":{[^}]*},"count":\([0-9]*\).*/\1/p' \
  "$WORK/load-metrics.json")
[ "${PAUSES:-0}" -ge 1 ] \
  || { echo "verify pause histogram empty under load"; exit 1; }
echo "  $VERIFIES verifications during load, pause histogram count $PAUSES"
kill -9 $LOAD_SRV 2>/dev/null || true

echo "== multi-domain stress under verbose GC"
# the parallel suite (real Domain.spawn workers, parallel verification
# scans), the net suite (executor pool, n_workers > 1) and the replica
# suite (the primary's tee hooks wake the shared select loop from core
# domains) re-run with GC statistics printed at exit, so heap corruption
# or a runaway allocation under concurrency is caught here rather than in
# production
TEST=_build/default/test/test_main.exe
OCAMLRUNPARAM=v=0x400 $TEST test parallel > "$WORK/stress-parallel.log" 2>&1 \
  || { cat "$WORK/stress-parallel.log"; exit 1; }
OCAMLRUNPARAM=v=0x400 $TEST test net > "$WORK/stress-net.log" 2>&1 \
  || { cat "$WORK/stress-net.log"; exit 1; }
OCAMLRUNPARAM=v=0x400 $TEST test replica > "$WORK/stress-replica.log" 2>&1 \
  || { cat "$WORK/stress-replica.log"; exit 1; }
echo "  parallel + net + replica suites clean under OCAMLRUNPARAM=v=0x400"

echo "== cold tier (tamper detection + bench regression gate)"
# the cold suite includes the three byte-flip tamper legs (record value,
# evict timestamp, sealed footer) and the larger-than-memory end-to-end run
$TEST test cold > "$WORK/cold.log" 2>&1 \
  || { cat "$WORK/cold.log"; exit 1; }
# crash legs: killed mid-segment-write and mid-compaction, recovery must
# land on the committed prefix
$TEST test crashsafe > "$WORK/cold-crash.log" 2>&1 \
  || { cat "$WORK/cold-crash.log"; exit 1; }
echo "  cold + crashsafe suites clean"
# two quick allocation-figure runs archive under bench/results/, then
# `bench diff` gates the newest against the previous at wirealloc's tight
# 10% tolerance (same-machine back-to-back runs must agree)
dune exec bench/main.exe -- --quick --only wirealloc > /dev/null
dune exec bench/main.exe -- --quick --only wirealloc > /dev/null
$FV bench diff --ci --figure wirealloc
# same gate for the scale figure (modelled scaling sweep; looser 35%
# tolerance — the measured row rides the machine's scheduler)
dune exec bench/main.exe -- --quick --only scale > /dev/null
dune exec bench/main.exe -- --quick --only scale > /dev/null
$FV bench diff --ci --figure scale
# cold-tier figure: disk-bound rows jitter more than CPU-bound ones, so
# the diff gate applies its direction-aware 35% tolerance per metric
dune exec bench/main.exe -- --quick --only coldtier > /dev/null
dune exec bench/main.exe -- --quick --only coldtier > /dev/null
$FV bench diff --ci --figure coldtier

echo "== sharded serve round trip (4 shards, one executor domain each)"
$FV serve --listen "unix:$WORK/pool.sock" -n 2000 --batch 0 --enclave zero \
  --workers 4 &
POOL_SRV=$!
trap 'kill -9 $SRV $OBS_SRV $POOL_SRV 2>/dev/null || true; rm -rf "$WORK"' EXIT
wait_sock "$WORK/pool.sock" "pool server"
# parallel pipelined clients through the executor pool: routing honours
# the sealed shard boundaries, so every op lands on its owner's executor;
# every response signature is verified client-side, and the stats
# reconciliation must balance across all four partitions
$FV client-bench --connect "unix:$WORK/pool.sock" --ops 4000 --clients 4 \
  --window 32 -n 2000
$FV stats --connect "unix:$WORK/pool.sock" --check
kill -9 $POOL_SRV 2>/dev/null || true

echo "== replication (primary + 2 followers, kill -9 failover, checkpoint rejoin)"
# primary with a replication listener; --batch so epochs seal (and
# checkpoints commit) while client traffic is in flight
$FV serve --listen "unix:$WORK/rp.sock" --replication-listen "unix:$WORK/repl.sock" \
  -n 2000 --batch 400 --enclave zero --checkpoint-dir "$WORK/rckpt" &
RP_SRV=$!
F1=; F2=; F3=; RP2_SRV=
trap 'kill -9 $SRV $OBS_SRV $POOL_SRV $RP_SRV $F1 $F2 $F3 $RP2_SRV 2>/dev/null || true; rm -rf "$WORK"' EXIT
wait_sock "$WORK/repl.sock" "replication listener"
$FV follow --primary "unix:$WORK/repl.sock" --listen "unix:$WORK/f1.sock" \
  -n 2000 --dir "$WORK/f1" > "$WORK/f1.log" 2>&1 &
F1=$!
$FV follow --primary "unix:$WORK/repl.sock" --listen "unix:$WORK/f2.sock" \
  -n 2000 --dir "$WORK/f2" > "$WORK/f2.log" 2>&1 &
F2=$!
for s in f1 f2; do
  wait_sock "$WORK/$s.sock" "follower $s"
done
# write traffic on the primary seals epochs the followers must replay,
# verify at each boundary, and mirror into their local stores
$FV client-bench --connect "unix:$WORK/rp.sock" --ops 4000 --clients 2 -n 2000
i=0
until ls "$WORK"/rckpt/ckpt-*/MANIFEST >/dev/null 2>&1; do
  i=$((i + 1)); [ $i -gt 100 ] && { echo "primary committed no checkpoint"; exit 1; }
  sleep 0.1
done
# verified reads against both followers: the client re-checks every
# receipt MAC, so a follower serving tampered state would fail here
$FV client-bench --connect "unix:$WORK/f1.sock" --ops 2000 --clients 2 \
  -n 2000 --put-ratio 0
$FV client-bench --connect "unix:$WORK/f2.sock" --ops 1000 --clients 1 \
  -n 2000 --put-ratio 0
# reconciliation on every node: primary and both followers
$FV stats --connect "unix:$WORK/rp.sock" --check
$FV stats --connect "unix:$WORK/f1.sock" --check
$FV stats --connect "unix:$WORK/f2.sock" --check
# kill -9 the primary: already-verified follower state keeps serving
kill -9 $RP_SRV
$FV client-bench --connect "unix:$WORK/f1.sock" --ops 1000 --clients 1 \
  -n 2000 --put-ratio 0
echo "  follower survived primary kill -9, reads still verify"
# restart the primary from its checkpoint directory on the same
# replication address; a follower joining now predates the retained
# stream and must catch up via checkpoint fetch, not a fresh load
$FV serve --listen "unix:$WORK/rp2.sock" --replication-listen "unix:$WORK/repl.sock" \
  -n 2000 --batch 400 --enclave zero --checkpoint-dir "$WORK/rckpt" &
RP2_SRV=$!
wait_sock "$WORK/rp2.sock" "restarted primary"
$FV follow --primary "unix:$WORK/repl.sock" --listen "unix:$WORK/f3.sock" \
  -n 2000 --dir "$WORK/f3" > "$WORK/f3.log" 2>&1 &
F3=$!
wait_sock "$WORK/f3.sock" "rejoining follower"
# the rejoining follower's state dir must hold a fetched generation, and
# its log must show the checkpoint path rather than the fresh-load path
ls "$WORK"/f3/ckpt-*/MANIFEST >/dev/null 2>&1 \
  || { echo "rejoining follower did not fetch a checkpoint"; cat "$WORK/f3.log"; exit 1; }
if grep -q "fresh follower" "$WORK/f3.log"; then
  echo "rejoining follower took the fresh-load path"; exit 1
fi
# the recovered verifier remembers client put nonces from before the
# crash, so the post-restart bench must use a fresh client-id range
$FV client-bench --connect "unix:$WORK/rp2.sock" --ops 1000 --clients 1 \
  -n 2000 --first-client 10
$FV client-bench --connect "unix:$WORK/f3.sock" --ops 1000 --clients 1 \
  -n 2000 --put-ratio 0
$FV stats --connect "unix:$WORK/rp2.sock" --check
$FV stats --connect "unix:$WORK/f3.sock" --check
echo "  rejoining follower caught up from checkpoint, all nodes reconcile"
kill -9 $F1 $F2 $F3 $RP2_SRV 2>/dev/null || true

echo "== election failover (kill -9 primary, candidate promotes, writes move)"
# primary plus two electable candidates with crossed peer lists; e1 carries
# the higher priority so the election outcome is deterministic
$FV serve --listen "unix:$WORK/ep.sock" --replication-listen "unix:$WORK/erepl.sock" \
  -n 2000 --batch 400 --enclave zero --checkpoint-dir "$WORK/eckpt" > "$WORK/ep.log" 2>&1 &
EP_SRV=$!
E1=; E2=; EP2_SRV=
trap 'kill -9 $SRV $OBS_SRV $POOL_SRV $RP_SRV $F1 $F2 $F3 $RP2_SRV $EP_SRV $E1 $E2 $EP2_SRV 2>/dev/null || true; rm -rf "$WORK"' EXIT
wait_sock "$WORK/erepl.sock" "election primary"
$FV follow --primary "unix:$WORK/erepl.sock" --listen "unix:$WORK/e1.sock" \
  --electable "unix:$WORK/e1r.sock" --peer "unix:$WORK/e2r.sock" --priority 2 \
  -n 2000 --dir "$WORK/e1" > "$WORK/e1.log" 2>&1 &
E1=$!
$FV follow --primary "unix:$WORK/erepl.sock" --listen "unix:$WORK/e2.sock" \
  --electable "unix:$WORK/e2r.sock" --peer "unix:$WORK/e1r.sock" --priority 1 \
  -n 2000 --dir "$WORK/e2" > "$WORK/e2.log" 2>&1 &
E2=$!
for s in e1 e2; do
  wait_sock "$WORK/$s.sock" "candidate $s"
done
# seal verified epochs on the primary so the candidates hold certified
# state to elect over
$FV client-bench --connect "unix:$WORK/ep.sock" --ops 3000 --clients 2 -n 2000
# verified reads against both candidates before the failover
$FV client-bench --connect "unix:$WORK/e1.sock" --ops 500 --clients 1 \
  -n 2000 --put-ratio 0
$FV client-bench --connect "unix:$WORK/e2.sock" --ops 500 --clients 1 \
  -n 2000 --put-ratio 0
$FV stats --connect "unix:$WORK/e1.sock" --check
$FV stats --connect "unix:$WORK/e2.sock" --check
# kill -9 the primary: the higher-priority candidate must win the election
# and promote in place; the loser re-homes onto the winner
kill -9 $EP_SRV
i=0
until grep -q "elected: promoted to primary" "$WORK/e1.log"; do
  i=$((i + 1)); [ $i -gt 200 ] && { echo "no candidate promoted after primary kill -9"; cat "$WORK/e1.log" "$WORK/e2.log"; exit 1; }
  sleep 0.1
done
i=0
until grep -q "re-homing to" "$WORK/e2.log"; do
  i=$((i + 1)); [ $i -gt 200 ] && { echo "losing candidate never re-homed onto the winner"; cat "$WORK/e2.log"; exit 1; }
  sleep 0.1
done
# writes now land on the promoted node through the ordinary verified
# client path (fresh client-id range), and replicate to the loser
$FV client-bench --connect "unix:$WORK/e1.sock" --ops 2000 --clients 2 \
  -n 2000 --first-client 30
$FV client-bench --connect "unix:$WORK/e2.sock" --ops 1000 --clients 1 \
  -n 2000 --put-ratio 0
$FV stats --connect "unix:$WORK/e1.sock" --check
$FV stats --connect "unix:$WORK/e2.sock" --check
if grep -q "INTEGRITY VIOLATION" "$WORK/e2.log"; then
  echo "loser halted on the promoted stream"; cat "$WORK/e2.log"; exit 1
fi
echo "  failover complete: writes verify against the promoted candidate"
# the promoted node must commit a checkpoint so the fenced ex-primary can
# re-bootstrap through the checkpoint-fetch path
i=0
until ls "$WORK"/e1/ckpt-*/MANIFEST >/dev/null 2>&1; do
  i=$((i + 1)); [ $i -gt 100 ] && { echo "promoted candidate committed no checkpoint"; exit 1; }
  sleep 0.1
done
# restart the deposed primary with the candidates as probe peers: it must
# discover the higher fencing term and demote itself to a follower
$FV serve --listen "unix:$WORK/ep2.sock" --replication-listen "unix:$WORK/erepl.sock" \
  --repl-peer "unix:$WORK/e1r.sock" --repl-peer "unix:$WORK/e2r.sock" \
  -n 2000 --batch 400 --enclave zero --checkpoint-dir "$WORK/eckpt" > "$WORK/ep2.log" 2>&1 &
EP2_SRV=$!
i=0
until grep -q "demoted: serving verified reads" "$WORK/ep2.log"; do
  i=$((i + 1)); [ $i -gt 200 ] && { echo "rejoining ex-primary never demoted"; cat "$WORK/ep2.log"; exit 1; }
  sleep 0.1
done
wait_sock "$WORK/ep2.sock" "demoted follower"
# the demoted node serves verified reads of the post-failover history
$FV client-bench --connect "unix:$WORK/ep2.sock" --ops 1000 --clients 1 \
  -n 2000 --put-ratio 0
$FV stats --connect "unix:$WORK/ep2.sock" --check
if grep -q "INTEGRITY VIOLATION" "$WORK/ep2.log"; then
  echo "deposed primary halted after demoting"; cat "$WORK/ep2.log"; exit 1
fi
echo "  deposed primary rejoined as a follower, every node reconciles"
kill -9 $E1 $E2 $EP2_SRV 2>/dev/null || true

echo "== tracked bench summaries untouched"
# the --quick bench legs above archive under bench/results/ only; the root
# BENCH_*.json files record default-scale runs and must come out unchanged
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  git diff --quiet -- 'BENCH_*.json' \
    || { git diff --stat -- 'BENCH_*.json'; echo "check rewrote tracked BENCH_*.json"; exit 1; }
  echo "  BENCH_*.json unchanged"
else
  echo "  (not a git checkout; skipped)"
fi

echo "OK"
