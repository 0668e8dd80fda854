#!/usr/bin/env bash
# A/A harness: run the whole benchmark N times (default 2) on the same
# commit and seed, then print, per (workload, end-to-end metric), the spread
# between the runs against the metric's bound. Exits non-zero if any pair
# disagrees by more than its bound or an exact count (dispatches per trial,
# instruction counts, output digest) does not repeat. When one disagrees,
# lengthen that workload; do not widen the bound.
#
#   benchmark/aa.sh [N] [--seed S] [--seconds S]
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
n=2
if [[ ${1:-} =~ ^[0-9]+$ ]]; then
    n=$1
    shift
fi
dirs=()
for i in $(seq "$n"); do
    dir="benchmark/out/aa_$i"
    "$here/run.sh" "$@" --out "$dir" >/dev/null
    dirs+=("$dir")
done
exec "$here/run.sh" aa "${dirs[@]}"
