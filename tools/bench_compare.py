#!/usr/bin/env python3
"""Regression-gate fresh bench JSON against committed baselines.

Every figure bench writes `BENCH_<fig>.json` (via HOLIX_BENCH_JSON) with the
shape ReportTable::SaveJson emits:

    {"title": ..., "generated_unix": ..., "header": [...], "rows": [[...]]}

This tool joins a fresh run against the committed baseline in
`bench/results/` row-by-row (first column is the row key, e.g. the client
count) and cell-by-cell, and fails when any timing cell regressed beyond
the threshold ratio, or when any answer cell changed. Answer cells are the
columns whose header names a checksum or a match flag: a fresh answer must
equal the baseline cell exactly, since a faster wrong answer is no pass.
Timing gates skip the row-key column, non-numeric cells (labels like
"u1w1x2"), the other non-timing columns (e.g. "clients") and sub-5ms
cells (pure noise at smoke scale).

Each row is ADDITIONALLY gated on the sum of its timing cells: at smoke
scale a figure like fig17_socket can have every individual cell under the
5ms noise floor while the row's aggregate wall time is comfortably
measurable — per-cell skipping alone would leave such figures entirely
ungated (a regression could grow every cell 10x and still "pass"). The
aggregate comparison uses the same threshold and noise floor, so a row
whose total cost regresses fails even when no single cell does.

Usage:
    tools/bench_compare.py --baseline bench/results --fresh bench-json \
        --figs fig17,fig17_socket --threshold 2.5
    tools/bench_compare.py ... --update   # refresh the baselines instead

Exit status: 0 = no regression, 1 = regression, changed answer or missing
input.
"""

import argparse
import json
import os
import shutil
import sys

# Cells faster than this many seconds are noise at smoke scale; never gate
# on them.
MIN_GATED_SECONDS = 0.005

# Column headers whose cells are answers (correctness probes): gated for
# exact equality instead of time.
ANSWER_HEADERS = ("checksum", "match")

# Column headers that carry other non-timing numerics (row labels); gating
# them would flag intentional workload changes as "regressions".
NON_TIMING_HEADERS = ("clients", "#attrs", "variation")


def column_name(header, col):
    return header[col] if col < len(header) else f"col{col}"


def is_answer_column(header, col):
    name = column_name(header, col).lower()
    return col != 0 and any(tag in name for tag in ANSWER_HEADERS)


def is_timing_column(header, col):
    if col == 0:
        return False  # the row key
    name = (header[col] if col < len(header) else "").lower()
    return not any(tag in name for tag in NON_TIMING_HEADERS)


def parse_cell(text):
    """Returns the cell as float seconds, or None for labels/row keys."""
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def load(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {row[0]: row for row in doc.get("rows", []) if row}
    return doc.get("header", []), rows


def compare_fig(fig, baseline_dir, fresh_dir, threshold):
    """Returns (checked_cells, list of problem strings) or None if a file
    is missing. A baseline row absent from the fresh run is a problem —
    a bench that crashed mid-run must not sail through the gate."""
    base_path = os.path.join(baseline_dir, f"BENCH_{fig}.json")
    fresh_path = os.path.join(fresh_dir, f"BENCH_{fig}.json")
    for path in (base_path, fresh_path):
        if not os.path.exists(path):
            print(f"bench_compare: missing {path}", file=sys.stderr)
            return None
    base_header, base_rows = load(base_path)
    fresh_header, fresh_rows = load(fresh_path)
    if base_header != fresh_header:
        print(f"bench_compare: {fig}: header changed "
              f"({base_header} -> {fresh_header}); re-baseline with --update",
              file=sys.stderr)
        return None

    checked = 0
    regressions = []
    for key, base_row in base_rows.items():
        fresh_row = fresh_rows.get(key)
        if fresh_row is None:
            regressions.append(
                f"{fig}: baseline row '{key}' missing from the fresh run")
            continue
        base_sum = 0.0
        fresh_sum = 0.0
        summed = 0
        for col, (b_cell, f_cell) in enumerate(zip(base_row, fresh_row)):
            if is_answer_column(base_header, col):
                checked += 1
                if f_cell != b_cell:
                    regressions.append(
                        f"{fig} row '{key}' {column_name(base_header, col)}: "
                        f"answer changed {b_cell!r} -> {f_cell!r}")
                continue
            if not is_timing_column(base_header, col):
                continue
            b, f = parse_cell(b_cell), parse_cell(f_cell)
            if b is None or f is None:
                continue
            base_sum += b
            fresh_sum += f
            summed += 1
            if b < MIN_GATED_SECONDS and f < MIN_GATED_SECONDS:
                continue
            checked += 1
            floor = max(b, MIN_GATED_SECONDS)
            if f > floor * threshold:
                regressions.append(
                    f"{fig} row '{key}' {column_name(base_header, col)}: "
                    f"{b:.4f}s -> {f:.4f}s "
                    f"({f / floor:.2f}x > {threshold:.2f}x)")
        # Aggregate row gate: catches figures whose individual cells all
        # sit under the noise floor (see the module docstring).
        if summed > 0 and (base_sum >= MIN_GATED_SECONDS
                           or fresh_sum >= MIN_GATED_SECONDS):
            checked += 1
            floor = max(base_sum, MIN_GATED_SECONDS)
            if fresh_sum > floor * threshold:
                regressions.append(
                    f"{fig} row '{key}' aggregate: {base_sum:.4f}s -> "
                    f"{fresh_sum:.4f}s "
                    f"({fresh_sum / floor:.2f}x > {threshold:.2f}x)")
    return checked, regressions


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", default="bench/results",
                    help="directory with committed BENCH_*.json baselines")
    ap.add_argument("--fresh", required=True,
                    help="directory with the fresh run's BENCH_*.json")
    ap.add_argument("--figs", default="fig17,fig17_socket",
                    help="comma-separated figure slugs to gate")
    ap.add_argument("--threshold", type=float, default=2.5,
                    help="fail when fresh > baseline * threshold")
    ap.add_argument("--update", action="store_true",
                    help="copy the fresh JSON over the baselines and exit")
    args = ap.parse_args()

    figs = [f.strip() for f in args.figs.split(",") if f.strip()]
    if args.update:
        os.makedirs(args.baseline, exist_ok=True)
        for fig in figs:
            src = os.path.join(args.fresh, f"BENCH_{fig}.json")
            dst = os.path.join(args.baseline, f"BENCH_{fig}.json")
            shutil.copyfile(src, dst)
            print(f"bench_compare: baselined {dst}")
        return 0

    failed = False
    total_checked = 0
    for fig in figs:
        result = compare_fig(fig, args.baseline, args.fresh, args.threshold)
        if result is None:
            failed = True
            continue
        checked, regressions = result
        total_checked += checked
        if regressions:
            failed = True
            for r in regressions:
                print(f"REGRESSION: {r}", file=sys.stderr)
        else:
            print(f"bench_compare: {fig}: {checked} cells within "
                  f"{args.threshold:.2f}x of baseline, answers equal")
    if total_checked == 0 and not failed:
        # An empty comparison is a broken gate, not a pass.
        print("bench_compare: nothing compared — empty rows or all cells "
              "sub-threshold; failing the gate", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
