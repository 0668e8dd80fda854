#!/usr/bin/env bash
# Build the benchmark and the product's sweep worker, then run.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of standard output is the
#       result object {"correct", "attempted", "failed", "metrics"}
#   benchmark/run.sh [--seed N] [--seconds S] [--out DIR]
#       every workload once measured (--trace 0) and once traced (--trace 1),
#       each in its own process; prints every metric by name and writes
#       DIR/results.json and DIR/trace_<workload>.json (DIR: benchmark/out)
#   benchmark/run.sh aa DIR DIR [DIR...]
#       compare the runs left in those directories (see aa.sh)
#
# Exits non-zero when the build fails or any run's outputs do not match
# their reference.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"

# Ambient overrides must not change what is measured.
unset DISTILL_TIER DISTILL_CHAOS DISTILL_DSWEEP_FAULTS DISTILL_TELEMETRY
export CARGO_NET_OFFLINE=true

target=${CARGO_TARGET_DIR:-benchmark/target}
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Cargo's chatter goes to standard error: standard output belongs to the runs.
cargo build --release --offline --locked -p distill-sweep --bin distill-sweep-worker >&2
(cd benchmark && cargo build --release --offline --locked >&2)
export DISTILL_SWEEP_WORKER="$target/release/distill-sweep-worker"
bin="$target/release/distill-benchmark"

seed=1 seconds=8 out=benchmark/out
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    case "${args[i]}" in
    --seed) seed=${args[i + 1]} ;;
    --seconds) seconds=${args[i + 1]} ;;
    --out) out=${args[i + 1]} ;;
    esac
done

# dsweep binds its sockets under temp_dir(): keep them inside the checkout,
# and relative so the path stays under the 108-byte limit of a socket name.
mkdir -p "$out/tmp"
export TMPDIR="$out/tmp"

if [[ ${1:-} == aa ]]; then
    exec "$bin" "$@"
fi
if [[ " $* " == *" --workload "* ]]; then
    exec "$bin" "$@" --out "$out"
fi

status=0
reports=()
for workload in $("$bin" list | cut -f1); do
    for trace in 0 1; do
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" --out "$out" |
            sed '$d' || status=1
        reports+=("$out/$workload.trace$trace.json")
    done
done

{
    printf '{"meta": {"seed": %s, "seconds": %s, "nproc": %s, "rustc": "%s", "commit": "%s"},\n "runs": [\n' \
        "$seed" "$seconds" "$(nproc)" "$(rustc --version)" \
        "$(git rev-parse HEAD 2>/dev/null || echo unknown)"
    sep=""
    for report in "${reports[@]}"; do
        [[ -f $report ]] || continue
        printf '%s' "$sep"
        cat "$report"
        sep=","
    done
    printf ']}\n'
} >"$out/results.json"
echo "wrote $out/results.json" >&2
exit $status
