#!/usr/bin/env bash
# Runs the benchmark once per seed for each workload and keeps every run's
# standard output, as input to the steadiness check. Run from the
# repository root:
#
#   bash perfbench/runset.sh OUTDIR FIRST_SEED COUNT WORKLOAD...
#   bash perfbench/run.sh compare OUTDIR [OTHER_OUTDIR]
#
# Seeds FIRST_SEED .. FIRST_SEED+COUNT-1; run length from BENCHMARK.json.
set -euo pipefail
if [ $# -lt 4 ]; then
  echo "usage: $0 OUTDIR FIRST_SEED COUNT WORKLOAD..." >&2
  exit 2
fi
out=$1 first=$2 count=$3
shift 3
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
mkdir -p "$out"
for wl in "$@"; do
  for ((s = first; s < first + count; s++)); do
    bash perfbench/run.sh --workload "$wl" --seed "$s" --seconds "$seconds" --trace 0 >"$out/$wl.$s.out"
    tail -n 1 "$out/$wl.$s.out" | cut -c1-200
  done
done
