#!/usr/bin/env python3
"""Compare a parent and a change checkout on the end-to-end benchmark.

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR [--pairs 10]
                                 [--workloads a,b] [--seconds S]

Each directory is a full checkout; each builds its own build-e2e/. Pair i
runs both sides on seed i+1, parent first on even pairs and change first
on odd ones, every workload in its own process. Per workload (one row per
metric) it prints each side's median and quartiles, the change's wins and
a verdict:

  gain          the change wins at least 9/10 of the pairs (ties count for
                neither), its median is better by more than the parent's
                interquartile range, and no more ops failed than at the
                parent;
  unresolved    otherwise, when either side's spread ((q3 - q1) / median)
                is wider than the metric's bound, unless every change run
                reads better than every parent run;
  regression    the change's median is worse than the parent's by more than
                the bound;
  no regression otherwise.

Bounds and directions come from the parent's BENCHMARK.json, which sets the
baseline, so a change cannot judge itself against a gate it loosened; when
the change's end_to_end section differs, a warning names the difference.
Exits 1 when any metric regressed or is unresolved.
"""

import argparse
import json
import math
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from repeat import WORKLOADS, load_benchmark, quartiles, run_once  # noqa: E402


def verdict(parent, change, better, bound, failed_p, failed_c):
    lower = better == "lower"
    is_better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    wins = sum(1 for p, c in zip(parent, change) if is_better(c, p))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = max((p3 - p1) / pm if pm else 0, (c3 - c1) / cm if cm else 0)
    every_better = (max(change) < min(parent)) if lower else \
        (min(change) > max(parent))
    worse_by = ((cm - pm) if lower else (pm - cm)) / pm if pm else 0
    if (wins >= math.ceil(0.9 * len(parent)) and is_better(cm, pm)
            and abs(cm - pm) > p3 - p1 and failed_c <= failed_p):
        v = "gain"
    elif spread > bound and not every_better:
        v = "unresolved"
    elif worse_by > bound:
        v = "regression"
    else:
        v = "no regression"
    return wins, v, (p1, pm, p3), (c1, cm, c3), worse_by


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()
    if args.pairs < 10:
        print("compare.py: the rule needs at least 10 pairs", file=sys.stderr)
        return 2

    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    bench = load_benchmark(sides["parent"])
    seconds = args.seconds or bench["run_seconds"]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    changed = load_benchmark(sides["change"])["end_to_end"]
    if changed != bench["end_to_end"]:
        print("compare.py: warning: the change's end_to_end metrics differ "
              "from the parent's; judging by the parent's:\n"
              f"  parent {json.dumps(bench['end_to_end'])}\n"
              f"  change {json.dumps(changed)}", file=sys.stderr)
    workloads = args.workloads.split(",")

    runs = {s: {w: [] for w in workloads} for s in sides}
    failed = {s: {w: 0 for w in workloads} for s in sides}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in order:
                r = run_once(sides[side], w, i + 1, seconds)
                runs[side][w].append(r["metrics"])
                failed[side][w] += r["failed"]
            print(f"# pair {i + 1}/{args.pairs} {w} done", file=sys.stderr)

    bad = 0
    print(f"{'workload':<13} {'metric':<15} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'worse':>7} {'wins':>6}  verdict")
    for w in workloads:
        for name, m in e2e.items():
            p = [r[name]["value"] for r in runs["parent"][w]]
            c = [r[name]["value"] for r in runs["change"][w]]
            wins, v, pq, cq, worse = verdict(p, c, m["better"], m["bound"],
                                             failed["parent"][w],
                                             failed["change"][w])
            bad += v in ("regression", "unresolved")
            fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
            print(f"{w:<13} {name:<15} {fmt(pq):>34} {fmt(cq):>34} "
                  f"{worse:>+7.3f} {wins:>3}/{len(p):<2}  {v}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
