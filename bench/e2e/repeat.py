#!/usr/bin/env python3
"""Repeat the end-to-end benchmark and report its run-to-run spread.

    python3 bench/e2e/repeat.py N [--seeds 1,2] [--workloads a,b]
                                  [--seconds S] [--grouped]

Runs every workload N times through bench/e2e/run.sh, each run in its own
process, with the seeds cycled in order (default 1 and 2 alternating).
Prints, per workload and metric, the median, the first and third quartile
(statistics.quantiles, n=4) and the spread: (q3 - q1) / median.

For each end-to-end metric in BENCHMARK.json it flags a spread wider than
the metric's bound (setup_s is judged by drift alone: set-up time is not
expected to be steady, only not to grow), and compares the medians of the
first and second half of the runs: a drift wider than the bound is
flagged too, and so is a workload on which any op failed. A spread above
a third of the bound is marked. Exits 1 when anything is flagged or a run
failed. Use it to set the bounds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["cold_explore", "hot_serve", "durable_mix", "restart"]


def run_once(root, workload, seed, seconds):
    """One timed run.sh invocation; returns its result line as a dict."""
    cmd = ["bash", os.path.join(root, "bench/e2e/run.sh"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    p = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if p.returncode != 0 or result is None or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed (exit "
                           f"{p.returncode}): {lines[-1] if lines else ''}")
    return result


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int, help="runs per workload")
    ap.add_argument("--seeds", default="1,2")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--grouped", action="store_true",
                    help="all runs of one workload back to back (default: "
                    "one run of every workload per iteration)")
    args = ap.parse_args()

    bench = load_benchmark(ROOT)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",")

    runs = {w: [] for w in workloads}
    failed = {w: 0 for w in workloads}
    order = [(i, w) for i in range(args.n) for w in workloads]
    if args.grouped:
        order = [(i, w) for w in workloads for i in range(args.n)]
    for i, w in order:
        seed = seeds[i % len(seeds)]
        r = run_once(ROOT, w, seed, seconds)
        runs[w].append(r["metrics"])
        failed[w] += r["failed"]
        print(f"# run {i + 1}/{args.n} {w} seed {seed}", file=sys.stderr)

    flagged = []
    half = args.n // 2
    print(f"{'workload':<13} {'metric':<34} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'drift':>7}  flag")
    for w in workloads:
        if failed[w]:
            flagged.append((w, "failed", f"{failed[w]} ops failed"))
        for name in runs[w][0]:
            values = [m[name]["value"] for m in runs[w]]
            q1, med, q3 = quartiles(values)
            s = spread(values)
            drift = 0.0
            if half >= 1 and args.n - half >= 1:
                a = statistics.median(values[:half])
                b = statistics.median(values[half:])
                drift = (b - a) / a if a else 0.0
            flag = ""
            bound = bounds.get(name, {}).get("bound")
            if bound is not None:
                if name != "setup_s" and s > bound:
                    flag = f"spread > bound {bound}"
                elif abs(drift) > bound:
                    flag = f"drift > bound {bound}"
                elif name != "setup_s" and s > bound / 3:
                    flag = f"(spread > bound/3)"
            if flag and not flag.startswith("("):
                flagged.append((w, name, flag))
            print(f"{w:<13} {name:<34} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{s:>7.3f} {drift:>+7.3f}  {flag}")

    if flagged:
        print(f"\n{len(flagged)} flagged: " +
              "; ".join(f"{w}/{n}: {f}" for w, n, f in flagged))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
