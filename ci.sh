#!/usr/bin/env bash
# Offline CI for the Distill reproduction: the tier-1 verify plus a
# compile-check of every bench target, the smokes, a reduced-workload run of
# the paper's figures and the benchmark package's own tests.
# No step may touch the network; CARGO_NET_OFFLINE makes cargo fail fast if
# anything ever tries.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "== build (release)"
cargo build --release --workspace

echo "== clippy (warnings denied, tests, benches and examples included)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== test"
cargo test -q --workspace

echo "== test on the fused tier (session-level suites run the default, threaded, tier)"
# serve_differential, sweep_determinism, serve_faults and telemetry run
# whatever TierPolicy::default() picks; this pass keeps the fused
# interpreter, a tier-ladder rung, covered by them too.
DISTILL_TIER=fused cargo test -q

echo "== benches compile"
cargo bench --no-run --workspace

echo "== docs (warnings denied, so API-doc drift fails the gate)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== examples (release; exercises the Session/Runner API end to end)"
cargo run --release --example quickstart
cargo run --release --example predator_prey_attention
cargo run --release --example model_analysis

echo "== serving smoke (bounded open-loop run, served-vs-solo bit-identity, trace export)"
# Starts a distill-serve daemon, drives the registry's serve mix with
# concurrent open-loop clients, and verifies a sample of coalesced
# responses bitwise against solo reruns; exits non-zero on any mismatch.
# Also exports the daemon's chrome://tracing trace to
# bench_results/trace_serve.json and re-parses it, failing unless it is
# well-formed trace_event JSON containing the documented serve spans.
cargo run --release -p distill-serve --example open_loop_smoke

echo "== serving chaos smoke (seeded worker panic absorbed, all responses still served bit-identically)"
# Same smoke with a chaos plan armed through the unified DISTILL_CHAOS
# injector: one worker panic fires mid-run on trial 3, the panicked chunk
# is quarantined, its span-mates are requeued, the client retries the
# quarantined range, and the run must still complete every request with
# responses bitwise identical to solo reruns (exit non-zero otherwise).
DISTILL_CHAOS="panic=3,seed=7"   cargo run --release -p distill-serve --example open_loop_smoke

echo "== distributed sweep smoke (2 worker processes, injected kill, bitwise vs serial, trace export)"
# Spawns a coordinator plus two true worker processes over local sockets,
# kills one worker mid-sweep via the seeded fault plan, and requires the
# merged result to be bitwise identical to a serial run with the killed
# worker's lease visibly re-issued; exits non-zero otherwise. Also exports
# the coordinator's lease-lifecycle trace to bench_results/trace_dsweep.json
# and validates it the same way.
cargo run --release -p distill-sweep --example dsweep_smoke

echo "== figures (the paper's figures 2-7, reduced workloads, JSON to bench_results/)"
cargo run --release -p distill-bench --bin figures

echo "== benchmark package (builds against the product crates; replay bit-identity, 8-workload smoke)"
# benchmark/ is the performance harness the PR pipeline runs. Its own tests
# fail here first when a product API change breaks its build or the layer
# replay stops being bit-identical to the opaque call. The dsweep workload
# spawns the worker built above, never a stale one left in benchmark/target.
(cd benchmark && DISTILL_SWEEP_WORKER="$PWD/../target/release/distill-sweep-worker" \
  cargo test --release --offline)

echo "== chaos-hook race guard (process-global chaos hooks armed only by shard_panic; x10 each, tier-1 serially)"
# The chaos hooks are process-global atomics: a test that arms them races
# every other test of its binary that runs a trial chunk or reads an
# artifact. Only tests/shard_panic.rs arms them, sequentially; distill's
# unit tests run chunks and artifact reads on 16 threads and must never be
# hit, and tier-1 must also pass on one test thread.
for _ in $(seq 1 10); do
  cargo test -q -p distill-repro --test shard_panic
  cargo test -q -p distill --lib -- --test-threads 16
done
cargo test -q -- --test-threads 1

echo "CI OK"
