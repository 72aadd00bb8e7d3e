#!/usr/bin/env bash
# The end-to-end benchmark of holix, in one command.
#
#   bench/e2e/run.sh --seed S [--workloads a,b,...] [--seconds N]
#                    [--trace [0|1]] [--smoke]
#
# Builds build-e2e/holix_e2e (Release) from this checkout, then runs each
# workload in its own process (default: all four). Prints every metric as
# `workload metric value unit` and ends with one JSON line
#   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
# (with several workloads its metric names read "<workload>/<metric>").
# --trace runs the per-layer replays instead of the timed run. Results and
# spans land in build-e2e/results/ and build-e2e/trace/. Exits non-zero on
# a wrong answer or a failed run. --workload is accepted for --workloads.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/build-e2e"

seed=""
workloads="cold_explore,hot_serve,durable_mix,restart"
seconds=20
trace=0
smoke=()
while (($#)); do
  case "$1" in
    --seed) seed=${2:?--seed needs a value}; shift 2 ;;
    --workload | --workloads) workloads=${2:?--workloads needs a value}; shift 2 ;;
    --seconds) seconds=${2:?--seconds needs a value}; shift 2 ;;
    --trace)
      if [[ ${2:-} == [01] ]]; then trace=$2; shift 2; else trace=1; shift; fi ;;
    --smoke) smoke=(--smoke); shift ;;
    -h | --help) sed -n '2,15p' "$0"; exit 0 ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
[[ $seed =~ ^[0-9]+$ ]] || { echo "run.sh: --seed N is required" >&2; exit 2; }
if [[ ! -f $root/CMakeLists.txt || ! -d $root/src ]]; then
  echo "run.sh: no holix source tree at $root" >&2
  exit 1
fi

mkdir -p "$build/tmp" "$build/results"
export TMPDIR="$build/tmp"
if ! {
  [[ -f $build/CMakeCache.txt ]] ||
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build" -j "$(nproc)" --target holix_e2e
} >"$build/build.log" 2>&1; then
  cat "$build/build.log" >&2
  echo "run.sh: build failed" >&2
  exit 1
fi
rev=$(git --git-dir="$root/.git" rev-parse --short HEAD 2>/dev/null || echo unknown)

IFS=',' read -r -a list <<<"$workloads"
status=0
for w in "${list[@]}"; do
  set +e
  "$build/holix_e2e" --workload "$w" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" ${smoke[@]+"${smoke[@]}"} --out "$build" --git-rev "$rev" |
    tee "$build/results/$w.stdout"
  rc=${PIPESTATUS[0]}
  set -e
  ((rc == 0)) || status=$rc
done

if ((${#list[@]} > 1)); then
  python3 - "$build/results" "${list[@]}" <<'PY'
import json, sys
results, workloads = sys.argv[1], sys.argv[2:]
merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
for w in workloads:
    lines = open(f"{results}/{w}.stdout").read().splitlines()
    try:
        r = json.loads(lines[-1])
    except (IndexError, ValueError):
        merged["correct"] = False
        continue
    merged["correct"] = merged["correct"] and r["correct"]
    merged["attempted"] += r["attempted"]
    merged["failed"] += r["failed"]
    for name, m in r["metrics"].items():
        merged["metrics"][f"{w}/{name}"] = m
print(json.dumps(merged))
PY
fi
exit "$status"
