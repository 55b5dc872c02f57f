#!/bin/sh
# Net lines of code since a base revision, per top-level directory.
#   scripts/netloc.sh <base-rev>
# Counts added and deleted lines of OCaml sources (.ml, .mli), C stubs (.c)
# and dune files between <base-rev> and the working tree, from
# `git diff --numstat`. Files at the root of the repository count under ".".
set -eu
[ $# -eq 1 ] || { echo "usage: $0 <base-rev>" >&2; exit 2; }
cd "$(dirname "$0")/.."

git diff --numstat --no-renames "$1" -- \
  '*.ml' '*.mli' '*.c' 'dune' '**/dune' |
  awk -F '\t' '
    {
      dir = $3
      if (index(dir, "/") > 0) sub(/\/.*/, "", dir); else dir = "."
      add[dir] += $1; del[dir] += $2; all_add += $1; all_del += $2
    }
    END {
      printf "%-12s %8s %8s %8s\n", "dir", "+", "-", "net"
      n = 0
      for (d in add) names[++n] = d
      # insertion sort: awk has no portable sort
      for (i = 2; i <= n; i++) {
        v = names[i]
        for (j = i - 1; j > 0 && names[j] > v; j--) names[j + 1] = names[j]
        names[j + 1] = v
      }
      for (i = 1; i <= n; i++) {
        d = names[i]
        printf "%-12s %8d %8d %+8d\n", d, add[d], del[d], add[d] - del[d]
      }
      printf "%-12s %8d %8d %+8d\n", "total", all_add, all_del, all_add - all_del
    }'
