#!/usr/bin/env python3
"""Run the benchmark repeatedly and report how steady each metric is.

Run from the root of the repository:

    python3 perfbench/steadiness.py --workloads hot-rw,cold-read,durable-write \
        --seeds 1-10 --seconds 20 --out perfbench/STEADINESS.md

For every workload x end-to-end metric it reports the median, the quartiles
(statistics.quantiles(n=4)) and the spread (q3 - q1) / median, plus the
medians of the first and second half of the seeds as a two-set drift check.
With --traced N it also makes one traced run on each of the first N seeds
and reports the per-layer medians and the tracing overhead. Raw result
lines, with each run's printed report, are kept next to the report
(<out>.jsonl).
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    p = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect")
    return {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall,
            "report": lines[:-1], "result": res}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="hot-rw,cold-read,durable-write")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    ap.add_argument("--out", default="perfbench/STEADINESS.md")
    ap.add_argument("--rerender", action="store_true",
                    help="make no runs; rewrite the report from <out>.jsonl")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seeds_of(a.seeds)
    if a.rerender:
        rows = [json.loads(line) for line in open(a.out + ".jsonl")]
    else:
        rows = []
        with open(a.out + ".jsonl", "a") as raw:
            for w in a.workloads.split(","):
                for s in seeds:
                    for trace in ([0, 1] if seeds.index(s) < a.traced else [0]):
                        r = run(w, s, a.seconds, trace)
                        raw.write(json.dumps(r) + "\n")
                        raw.flush()
                        rows.append(r)
                        print(f"{w} seed {s} trace {trace}: {r['wall_s']:.1f}s",
                              file=sys.stderr)
    out = ["# Steadiness of the served-path benchmark", "",
           f"{len(seeds)} seeds ({a.seeds}) per workload, --seconds {a.seconds}.",
           "spread = (q3 - q1) / median; halves = medians of the first and second",
           "half of the seeds, a two-set check in miniature.", "",
           "| workload | metric | median | q1 | q3 | spread | bound | halves |",
           "|---|---|---|---|---|---|---|---|"]
    for w in a.workloads.split(","):
        runs = [r for r in rows if r["workload"] == w and r["trace"] == 0]
        for name in bounds:
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            med, q1, q3, spread = summary(vals)
            h = len(vals) // 2
            halves = f"{statistics.median(vals[:h]):.4g} / {statistics.median(vals[h:]):.4g}"
            out.append(f"| {w} | {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                       f"{spread:.3f} | {bounds[name]} | {halves} |")
        walls = [r["wall_s"] for r in runs]
        out.append(f"| {w} | (run wall time, s) | {statistics.median(walls):.1f} | "
                   f"{min(walls):.1f} | {max(walls):.1f} | | | |")
    out += ["", "## The three metrics an earlier, wall-clock design was too noisy on", "",
            "| workload | metric | spread | bound | halves |", "|---|---|---|---|---|"]
    for w in a.workloads.split(","):
        runs = [r for r in rows if r["workload"] == w and r["trace"] == 0]
        for name in ("setup_s", "certify_p50_ms", "op_p99_ms"):
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            h = len(vals) // 2
            out.append(f"| {w} | {name} | {summary(vals)[3]:.3f} | {bounds[name]} | "
                       f"{statistics.median(vals[:h]):.4g} / {statistics.median(vals[h:]):.4g} |")
    if a.traced:
        out += ["", "## Tracing overhead", "",
                "| workload | untraced ops_per_s (median) | traced run ops/s (median) | "
                "in-run overhead (median) |", "|---|---|---|---|"]
        for w in a.workloads.split(","):
            un = [r["result"]["metrics"]["ops_per_s"]["value"]
                  for r in rows if r["workload"] == w and r["trace"] == 0]
            tr = [r["result"]["metrics"] for r in rows if r["workload"] == w and r["trace"] == 1]
            out.append(f"| {w} | {statistics.median(un):.4g} | "
                       f"{statistics.median(m['trace.ops_per_s']['value'] for m in tr):.4g} | "
                       f"{statistics.median(m['trace.overhead_frac']['value'] for m in tr):.4f} |")
        names = [m["name"] for m in bench["per_layer"]]
        ws = a.workloads.split(",")
        out += ["", f"## Per-layer medians ({a.traced} traced runs per workload)", "",
                "| metric | unit | " + " | ".join(ws) + " |", "|---|---|" + "---|" * len(ws)]
        for name in names:
            cells = []
            for w in ws:
                vals = [r["result"]["metrics"][name]["value"]
                        for r in rows if r["workload"] == w and r["trace"] == 1]
                cells.append(f"{statistics.median(vals):.4g}")
            unit = next(m["unit"] for m in bench["per_layer"] if m["name"] == name)
            out.append(f"| {name} | {unit} | " + " | ".join(cells) + " |")
    open(a.out, "w").write("\n".join(out) + "\n")
    print("\n".join(out))


if __name__ == "__main__":
    main()
