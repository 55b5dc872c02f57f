#!/usr/bin/env bash
# Build the system and the load generator from source, then run one
# benchmark run. Run from the root of the repository:
#   bash perfbench/run.sh --workload hot-rw --seed 1 --seconds 20 --trace 0
set -euo pipefail
dune build --root . ./bin/fastver_cli.exe ./perfbench/fvbench.exe 1>&2
exec ./_build/default/perfbench/fvbench.exe "$@"
