//! The metric tables: what the benchmark reports, in which unit, which way
//! is better, and — for per-layer metrics — which layer owns the number and
//! which end-to-end metric it should move on which workload. `BENCHMARK.json`
//! at the repository root lists exactly these names (a test compares them).

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

/// What a user of the system sees. An *op* is one call a user makes: one
/// `Runner::run`, one build + first trial, one served request, one
/// `dsweep_family`. Failed ops are reported beside these as
/// `failed / attempted` (they can be 0, so they cannot carry a relative
/// bound).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "trials_per_s",
        unit: "trials/s",
        better: Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "op_latency_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_latency_p95_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.15,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Crate that does the work (`loadgen` is the benchmark itself).
    pub layer: &'static str,
    /// End-to-end metric this number should move.
    pub moves: &'static str,
    /// Workloads on which it should move it.
    pub on: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        moves,
        on,
    }
}

const P50: &str = "op_latency_p50_ms";
const P95: &str = "op_latency_p95_ms";
const TPS: &str = "trials_per_s";
const FAILED: &str = "failed";

/// Per-layer metrics, timed from the benchmark's own files in the traced
/// run. A metric a workload does not exercise reads 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    pl(
        "cogmodel.sanitize_ns",
        "ns",
        Lower,
        "cogmodel",
        P50,
        "cold_build",
    ),
    pl(
        "cogmodel.baseline_ns_per_trial",
        "ns",
        Lower,
        "cogmodel",
        TPS,
        "baseline_py",
    ),
    pl(
        "pyvm.expr_evals_per_trial",
        "count",
        Lower,
        "pyvm",
        TPS,
        "baseline_py",
    ),
    pl(
        "pyvm.ns_per_expr_eval",
        "ns",
        Lower,
        "pyvm",
        TPS,
        "baseline_py",
    ),
    pl(
        "codegen.lower_ns",
        "ns",
        Lower,
        "codegen",
        P50,
        "cold_build",
    ),
    pl(
        "codegen.insts_emitted",
        "count",
        Lower,
        "codegen",
        P50,
        "cold_build",
    ),
    pl(
        "codegen.flatten_input_ns_per_op",
        "ns",
        Lower,
        "codegen",
        P50,
        "boundary_heavy serve_burst",
    ),
    pl(
        "codegen.stage_batch_ns_per_trial",
        "ns",
        Lower,
        "codegen",
        P50,
        "boundary_heavy serve_burst",
    ),
    pl("ir.verify_ns", "ns", Lower, "ir", P50, "cold_build"),
    pl("opt.O2.pipeline_ns", "ns", Lower, "opt", P50, "cold_build"),
    pl("opt.O3.pipeline_ns", "ns", Lower, "opt", P95, "cold_build"),
    pl(
        "opt.O2.insts_after",
        "count",
        Lower,
        "opt",
        TPS,
        "dispatch_heavy cold_build",
    ),
    pl(
        "opt.O3.insts_after",
        "count",
        Lower,
        "opt",
        TPS,
        "dispatch_heavy cold_build",
    ),
    pl(
        "opt.O2.changes.mem2reg",
        "count",
        Higher,
        "opt",
        TPS,
        "dispatch_heavy cold_build",
    ),
    pl(
        "opt.O2.changes.fold",
        "count",
        Higher,
        "opt",
        TPS,
        "dispatch_heavy cold_build",
    ),
    pl(
        "opt.O2.changes.dce",
        "count",
        Higher,
        "opt",
        TPS,
        "dispatch_heavy cold_build",
    ),
    pl(
        "opt.O2.changes.cse",
        "count",
        Higher,
        "opt",
        TPS,
        "dispatch_heavy cold_build",
    ),
    pl(
        "opt.O2.changes.cfg",
        "count",
        Higher,
        "opt",
        TPS,
        "dispatch_heavy cold_build",
    ),
    pl(
        "opt.O2.changes.licm",
        "count",
        Higher,
        "opt",
        TPS,
        "dispatch_heavy cold_build",
    ),
    pl(
        "opt.O2.changes.inline",
        "count",
        Higher,
        "opt",
        TPS,
        "dispatch_heavy cold_build",
    ),
    pl(
        "exec.decode_ns",
        "ns",
        Lower,
        "exec",
        P50,
        "cold_build dsweep_procs",
    ),
    pl(
        "exec.fuse_ns",
        "ns",
        Lower,
        "exec",
        P50,
        "cold_build dsweep_procs",
    ),
    pl(
        "exec.thread_ns",
        "ns",
        Lower,
        "exec",
        P50,
        "cold_build dsweep_procs",
    ),
    pl(
        "exec.engine_new_ns",
        "ns",
        Lower,
        "exec",
        P50,
        "cold_build dsweep_procs",
    ),
    pl(
        "exec.static_ops.decoded",
        "count",
        Lower,
        "exec",
        P50,
        "cold_build",
    ),
    pl(
        "exec.static_ops.fused",
        "count",
        Lower,
        "exec",
        P50,
        "cold_build",
    ),
    pl(
        "exec.static_ops.threaded",
        "count",
        Lower,
        "exec",
        P50,
        "cold_build",
    ),
    pl(
        "exec.frame_slots",
        "count",
        Lower,
        "exec",
        P50,
        "cold_build",
    ),
    pl(
        "exec.dispatches_per_trial",
        "count",
        Lower,
        "exec",
        TPS,
        "dispatch_heavy shard_sweep",
    ),
    pl(
        "exec.fused_op_rate",
        "ratio",
        Higher,
        "exec",
        TPS,
        "dispatch_heavy",
    ),
    pl(
        "exec.ns_per_dispatch",
        "ns",
        Lower,
        "exec",
        TPS,
        "dispatch_heavy shard_sweep serve_steady",
    ),
    pl(
        "exec.call_ns_per_trial",
        "ns",
        Lower,
        "exec",
        TPS,
        "dispatch_heavy shard_sweep",
    ),
    pl(
        "exec.frame_pool_hit_rate",
        "ratio",
        Higher,
        "exec",
        TPS,
        "dispatch_heavy",
    ),
    pl(
        "exec.tier_ns_per_trial.reference",
        "ns",
        Lower,
        "exec",
        TPS,
        "dispatch_heavy",
    ),
    pl(
        "exec.tier_ns_per_trial.decoded",
        "ns",
        Lower,
        "exec",
        TPS,
        "dispatch_heavy",
    ),
    pl(
        "exec.tier_ns_per_trial.fused",
        "ns",
        Lower,
        "exec",
        TPS,
        "dispatch_heavy",
    ),
    pl(
        "exec.tier_ns_per_trial.threaded",
        "ns",
        Lower,
        "exec",
        TPS,
        "dispatch_heavy",
    ),
    pl(
        "exec.write_global_ns_per_trial",
        "ns",
        Lower,
        "exec",
        P50,
        "boundary_heavy serve_burst",
    ),
    pl(
        "exec.read_global_ns_per_trial",
        "ns",
        Lower,
        "exec",
        P50,
        "boundary_heavy serve_burst",
    ),
    pl(
        "exec.engine_clone_ns",
        "ns",
        Lower,
        "exec",
        P50,
        "shard_sweep",
    ),
    pl(
        "exec.chunkqueue_grab_ns",
        "ns",
        Lower,
        "exec",
        P50,
        "shard_sweep",
    ),
    pl("core.build_ns", "ns", Lower, "core", P50, "cold_build"),
    pl(
        "core.run_fixed_ns",
        "ns",
        Lower,
        "core",
        P50,
        "boundary_heavy",
    ),
    pl(
        "core.batch_vs_unbatched_ratio",
        "ratio",
        Higher,
        "core",
        P50,
        "boundary_heavy",
    ),
    pl(
        "core.attributed_frac",
        "ratio",
        Higher,
        "core",
        P50,
        "dispatch_heavy boundary_heavy cold_build",
    ),
    pl(
        "core.artifact.serialize_ns",
        "ns",
        Lower,
        "core",
        P50,
        "cold_build dsweep_procs",
    ),
    pl(
        "core.artifact.deserialize_ns",
        "ns",
        Lower,
        "core",
        P50,
        "cold_build dsweep_procs",
    ),
    pl(
        "core.artifact.bytes",
        "count",
        Lower,
        "core",
        P50,
        "cold_build dsweep_procs",
    ),
    pl(
        "core.shard.speedup_vs_serial",
        "ratio",
        Higher,
        "core",
        TPS,
        "shard_sweep",
    ),
    pl(
        "core.shard.efficiency",
        "ratio",
        Higher,
        "core",
        TPS,
        "shard_sweep",
    ),
    pl(
        "core.shard.chunks",
        "count",
        Lower,
        "core",
        TPS,
        "shard_sweep",
    ),
    pl(
        "core.shard.steals",
        "count",
        Lower,
        "core",
        TPS,
        "shard_sweep",
    ),
    pl(
        "core.speedup_vs_baseline_geomean",
        "ratio",
        Higher,
        "core",
        "none",
        "baseline_py",
    ),
    pl(
        "serve.submit_ns_p50",
        "ns",
        Lower,
        "serve",
        P50,
        "serve_burst",
    ),
    pl(
        "serve.server_latency_p50_ms",
        "ms",
        Lower,
        "serve",
        P50,
        "serve_steady serve_burst",
    ),
    pl(
        "serve.server_latency_p99_ms",
        "ms",
        Lower,
        "serve",
        P95,
        "serve_steady serve_burst",
    ),
    pl(
        "serve.wait_ns_p50",
        "ns",
        Lower,
        "serve",
        P95,
        "serve_burst",
    ),
    pl(
        "serve.service_ns_p50",
        "ns",
        Lower,
        "serve",
        P50,
        "serve_steady",
    ),
    pl(
        "serve.worker_busy_frac",
        "ratio",
        Lower,
        "serve",
        P95,
        "serve_steady serve_burst",
    ),
    pl("serve.spans", "count", Lower, "serve", P95, "serve_burst"),
    pl(
        "serve.coalesced_span_frac",
        "ratio",
        Higher,
        "serve",
        P95,
        "serve_burst",
    ),
    pl(
        "serve.requests_per_span",
        "ratio",
        Higher,
        "serve",
        P95,
        "serve_burst",
    ),
    pl(
        "serve.trials_per_batch_call",
        "ratio",
        Higher,
        "serve",
        P95,
        "serve_burst",
    ),
    pl(
        "serve.shed",
        "count",
        Lower,
        "serve",
        FAILED,
        "serve_steady serve_burst",
    ),
    pl(
        "serve.expired",
        "count",
        Lower,
        "serve",
        FAILED,
        "serve_steady serve_burst",
    ),
    pl(
        "serve.worker_panics",
        "count",
        Lower,
        "serve",
        FAILED,
        "serve_steady serve_burst",
    ),
    pl(
        "serve.requeued_trials",
        "count",
        Lower,
        "serve",
        FAILED,
        "serve_steady serve_burst",
    ),
    pl(
        "serve.cache.hits",
        "count",
        Higher,
        "serve",
        "setup_s",
        "serve_steady serve_burst",
    ),
    pl(
        "serve.cache.misses",
        "count",
        Lower,
        "serve",
        "setup_s",
        "serve_steady serve_burst",
    ),
    pl(
        "serve.cache.evictions",
        "count",
        Lower,
        "serve",
        "setup_s",
        "serve_steady serve_burst",
    ),
    pl(
        "sweep.encode_ns_per_frame",
        "ns",
        Lower,
        "sweep",
        P50,
        "dsweep_procs",
    ),
    pl(
        "sweep.decode_ns_per_frame",
        "ns",
        Lower,
        "sweep",
        P50,
        "dsweep_procs",
    ),
    pl(
        "sweep.frame_bytes",
        "count",
        Lower,
        "sweep",
        P50,
        "dsweep_procs",
    ),
    pl(
        "sweep.fixed_ms_per_call",
        "ms",
        Lower,
        "sweep",
        P50,
        "dsweep_procs",
    ),
    pl(
        "sweep.lease_phase_trials_per_s",
        "trials/s",
        Higher,
        "sweep",
        TPS,
        "dsweep_procs",
    ),
    pl(
        "sweep.overhead_vs_sharded",
        "ratio",
        Lower,
        "sweep",
        TPS,
        "dsweep_procs",
    ),
    pl(
        "sweep.leases",
        "count",
        Lower,
        "sweep",
        FAILED,
        "dsweep_procs",
    ),
    pl(
        "sweep.reissued",
        "count",
        Lower,
        "sweep",
        FAILED,
        "dsweep_procs",
    ),
    pl(
        "sweep.fenced_stale",
        "count",
        Lower,
        "sweep",
        FAILED,
        "dsweep_procs",
    ),
    pl(
        "sweep.worker_deaths",
        "count",
        Lower,
        "sweep",
        FAILED,
        "dsweep_procs",
    ),
    pl(
        "sweep.fallback_leases",
        "count",
        Lower,
        "sweep",
        FAILED,
        "dsweep_procs",
    ),
    pl(
        "telemetry.traced_overhead_ratio",
        "ratio",
        Lower,
        "telemetry",
        "none",
        "all",
    ),
    pl(
        "telemetry.snapshot_ns",
        "ns",
        Lower,
        "telemetry",
        "none",
        "all",
    ),
    pl(
        "loadgen.slip_p95_ms",
        "ms",
        Lower,
        "loadgen",
        "validity",
        "serve_steady serve_burst",
    ),
    pl(
        "loadgen.offered_rps",
        "1/s",
        Higher,
        "loadgen",
        "validity",
        "serve_steady serve_burst",
    ),
    pl(
        "loadgen.achieved_rps",
        "1/s",
        Higher,
        "loadgen",
        "validity",
        "serve_steady serve_burst",
    ),
    pl(
        "loadgen.client_observed_p50_ms",
        "ms",
        Lower,
        "loadgen",
        "validity",
        "serve_steady serve_burst",
    ),
    pl(
        "loadgen.slo_miss_frac",
        "ratio",
        Lower,
        "loadgen",
        P95,
        "serve_steady serve_burst",
    ),
    pl(
        "loadgen.output_digest_lo32",
        "count",
        Lower,
        "loadgen",
        "correct",
        "all",
    ),
];

/// Named values of one run. Setting a name the tables do not list is a bug
/// in the benchmark, so it panics.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "metric `{name}` is not in the metric tables"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
