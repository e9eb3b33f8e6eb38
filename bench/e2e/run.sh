#!/usr/bin/env bash
# Builds the end-to-end benchmark, runs every workload --runs times with the
# end-to-end metrics (--trace 0) and --runs times traced (--trace 1), each
# run in fresh processes with seeds FIRST, FIRST+1, ..., appends every result
# as one JSON line to OUT, and prints a median/quartile table per metric.
#
#   bench/e2e/run.sh [--runs N] [--seconds S] [--seed FIRST] [--same-seed]
#                    [--out FILE]
#
# --same-seed runs every repeat at FIRST. Compare two result files with
# bench/e2e/compare.py PARENT.jsonl CHANGE.jsonl.
set -euo pipefail
cd "$(dirname "$0")/../.."

runs=5 seconds=25 seed=100 step=1 out=build-e2e/results.jsonl
while [[ $# -gt 0 ]]; do
  case "$1" in
    --runs) runs=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --same-seed) step=0; shift ;;
    --out) out=$2; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

mkdir -p build-e2e "$(dirname "$out")"
cmake -S bench/e2e -B build-e2e >/dev/null
cmake --build build-e2e -j "$(nproc)" --target falcon_e2e >/dev/null
binary=build-e2e/falcon_e2e

for workload in products_spec songs_zipf matcher_only service_mix; do
  for trace in 0 1; do
    for ((i = 0; i < runs; i++)); do
      s=$((seed + i * step))
      line=$(python3 bench/e2e/run.py --workload "$workload" --seed "$s" \
               --seconds "$seconds" --trace "$trace" --binary "$binary" |
             tail -n 1) || true
      printf '{"workload": "%s", "trace": %d, "seed": %d, "result": %s}\n' \
        "$workload" "$trace" "$s" "${line:-null}" >> "$out"
      echo "run.sh: $workload trace=$trace seed=$s done" >&2
    done
  done
done
python3 bench/e2e/compare.py --summary "$out"
