//! `distill-sweep` — sweep orchestration over the workload registry.
//!
//! The paper's headline results come from parameter sweeps: grid searches
//! over control signals, run across model families and hardware targets.
//! This crate is the layer that drives those sweeps declaratively instead of
//! with hand-rolled per-figure loops:
//!
//! * [`distill_models::registry`] says *what* to run — each
//!   [`WorkloadSpec`] is a model family with scale presets, a target matrix
//!   and a throughput trial count;
//! * a [`SweepConfig`] says *how* — scale, worker threads, trials per
//!   compiled batch;
//! * [`run_sweep`] / [`sweep_workload`] compile each family **once**, then
//!   execute the trial space twice through the `Session`/`Runner` contract —
//!   serially, and sharded across workers in `trials_batch`-sized chunks
//!   ([`distill::RunSpec::with_shards`]) — plus once per registered target
//!   kind, and report timings, steal counts and bit-identity verdicts.
//!
//! Sharding composes the batched entry point with the work-stealing chunk
//! queue: workers pull `batch`-sized chunks of trials, each runs them inside
//! compiled code on its own engine copy, and because per-trial PRNG streams
//! are derived from the trial index, the stitched outputs are bit-identical
//! to the serial run at any thread count — which every sweep verifies on
//! every workload rather than assuming.

use distill::{
    compile, CompileConfig, CompiledModel, DistillError, ExecMode, GpuConfig, RunResult, RunSpec,
    Session, Target,
};
use distill_models::{registry, Scale, Tag, TargetKind, Workload, WorkloadSpec};
use std::time::Instant;

pub mod coordinator;
pub(crate) mod probes;
pub mod proto;
pub mod worker;

pub use coordinator::{dsweep_family, find_worker_bin, DsweepConfig, DsweepReport, WorkerMode};
pub use proto::{worker_faults, FaultPlan, WorkerFaults};

/// How a sweep executes its workloads.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Workload scale preset.
    pub scale: Scale,
    /// Worker threads for the sharded trial run (and the multicore grid
    /// target's thread count).
    pub threads: usize,
    /// Trials per compiled batch on the sharded run.
    pub batch: usize,
    /// Override of the registry's per-scale throughput trial count.
    pub trials: Option<usize>,
    /// Compile-time knobs, applied to every family.
    pub compile: CompileConfig,
}

/// The default worker-thread count: the host's available parallelism.
/// The single definition of this policy — the sweep config, the `figures`
/// binary and the bench harness all consult it.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            scale: Scale::Reduced,
            threads: default_threads(),
            batch: 32,
            trials: None,
            compile: CompileConfig::default(),
        }
    }
}

/// One cell of a workload's target matrix: the figure workload timed on one
/// registered execution target.
#[derive(Debug, Clone)]
pub struct TargetCell {
    /// The registry target kind (`baseline`, `single-core`, …).
    pub kind: String,
    /// The backend's own label (e.g. `multi-core:4`).
    pub label: String,
    /// Wall-clock seconds for the probe run, or the failure annotation.
    pub result: Result<f64, String>,
    /// Whether the cell's outputs *and* pass counts matched the single-core
    /// reference bit-for-bit (compiled parallel targets only; `None` where
    /// not applicable).
    pub matches_serial: Option<bool>,
    /// Grid-scheduler steals (multicore cells).
    pub steals: Option<u64>,
    /// Modelled occupancy (GPU cells).
    pub occupancy: Option<f64>,
    /// Modelled register demand before throttling (GPU cells).
    pub registers_wanted: Option<usize>,
}

/// One workload family's sweep result.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Registry key.
    pub name: String,
    /// Built model name (includes the scale-dependent suffix).
    pub model: String,
    /// Trials the serial/sharded throughput comparison executed.
    pub trials: usize,
    /// Worker threads the sharded run actually used (the driver clamps to
    /// the chunk count; `1` when the family fell back to serial).
    pub threads: usize,
    /// Trials per chunk the sharded run actually used.
    pub batch: usize,
    /// Serial wall-clock seconds (per-trial engine re-entry).
    pub serial_s: f64,
    /// Sharded + batched wall-clock seconds.
    pub sharded_s: f64,
    /// `serial_s / sharded_s`.
    pub speedup: f64,
    /// Chunks the trial space was split into.
    pub chunks: usize,
    /// Chunk grabs beyond each worker's first.
    pub steals: u64,
    /// Whether sharded outputs and pass counts were bit-identical to serial.
    pub identical: bool,
    /// Engine counters of the sharded run (per-run delta, worker threads
    /// included) — attributes instructions, fusion rate and frame-pool
    /// traffic to this family's trial space.
    pub run_stats: distill::EngineStats,
    /// The target matrix cells.
    pub targets: Vec<TargetCell>,
}

/// A whole sweep: one [`WorkloadReport`] per swept family.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Scale the sweep ran at.
    pub scale: Scale,
    /// Worker threads used.
    pub threads: usize,
    /// Trials per compiled batch.
    pub batch: usize,
    /// Label of the execution tier policy every family ran on (e.g.
    /// `fused`, `threaded`) — archived so sweep records from different
    /// tiers are never compared as like-for-like.
    pub tier: String,
    /// Per-family results, in registry order.
    pub workloads: Vec<WorkloadReport>,
}

impl SweepReport {
    /// Whether every family's sharded run was bit-identical to its serial
    /// run — the property the orchestrator exists to preserve.
    pub fn all_identical(&self) -> bool {
        self.workloads.iter().all(|w| w.identical)
    }
}

/// Bit-level equality of per-trial output sets: the identity verdicts the
/// sweep reports (and CI gates) must match the determinism suite's
/// definition — `to_bits` comparison, so NaNs compare equal to themselves
/// and `+0.0` vs `-0.0` counts as divergence. Public because the
/// distributed sweep's callers (figures, CI smoke, determinism tests) gate
/// on exactly this predicate.
pub fn outputs_bits_equal(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len()
                && x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits())
        })
}

/// Map a registry target kind onto a concrete session target. The
/// configured thread count is used as-is, so every arm of a comparison
/// (sharded, grid-parallel, and the report describing them) runs at the
/// same configured parallelism.
fn concrete_target(kind: TargetKind, threads: usize) -> Target {
    match kind {
        TargetKind::Baseline => Target::Baseline(ExecMode::CPython),
        TargetKind::SingleCore => Target::SingleCore,
        TargetKind::MultiCore => Target::MultiCore { threads },
        TargetKind::Gpu => Target::Gpu(GpuConfig::default()),
    }
}

fn kind_label(kind: TargetKind) -> &'static str {
    match kind {
        TargetKind::Baseline => "baseline",
        TargetKind::SingleCore => "single-core",
        TargetKind::MultiCore => "multi-core",
        TargetKind::Gpu => "gpu",
    }
}

fn timed_run(
    session: Session,
    artifact: &CompiledModel,
    spec: &RunSpec,
) -> Result<(f64, RunResult, String), DistillError> {
    let mut runner = session.build_with(artifact.clone())?;
    let label = runner.target_label();
    let start = Instant::now();
    let result = runner.run(spec)?;
    Ok((start.elapsed().as_secs_f64(), result, label))
}

/// Sweep one registered family: compile once, time the serial vs the
/// sharded-batched trial space, then probe every registered target with the
/// family's figure workload.
///
/// # Errors
/// Compilation failures and compiled-backend run failures are hard errors
/// (the sweep's subject is broken); per-target probe failures are *recorded*
/// in the cell instead, since baseline environments legitimately fail on
/// some families (Fig. 4's annotations).
pub fn sweep_workload(
    spec: &WorkloadSpec,
    cfg: &SweepConfig,
) -> Result<WorkloadReport, DistillError> {
    let w: Workload = spec.build(cfg.scale);
    let trials = cfg.trials.unwrap_or_else(|| spec.sweep_trials(cfg.scale));
    let artifact = compile(&w.model, cfg.compile)?;

    // --- serial vs sharded-batched trial throughput ------------------------
    let serial_spec = RunSpec::new(w.inputs.clone(), trials);
    let (serial_s, serial, _) =
        timed_run(Session::new(&w.model).compile_config(cfg.compile), &artifact, &serial_spec)?;
    let sharded_spec = serial_spec
        .clone()
        .with_batch(cfg.batch)
        .with_shards(cfg.threads);
    let (sharded_s, sharded, _) =
        timed_run(Session::new(&w.model).compile_config(cfg.compile), &artifact, &sharded_spec)?;
    let identical =
        outputs_bits_equal(&serial.outputs, &sharded.outputs) && serial.passes == sharded.passes;
    let shard_stats = sharded.shards;
    let run_stats = sharded.stats;

    // --- target matrix ------------------------------------------------------
    let probe_spec = RunSpec::new(w.inputs.clone(), w.trials);
    // One single-core probe, run up-front: it provides both the
    // `single-core` cell's timing and the reference outputs for the
    // parallel cells' bit-identity verdicts — so neither the target order
    // in the spec nor a failed probe cell can silently drop a verdict, and
    // the probe workload runs exactly once.
    let needs_single_core = spec.targets.iter().any(|k| {
        matches!(
            k,
            TargetKind::SingleCore | TargetKind::MultiCore | TargetKind::Gpu
        )
    });
    let single_core: Option<(f64, RunResult, String)> = if needs_single_core {
        Some(timed_run(
            Session::new(&w.model).compile_config(cfg.compile),
            &artifact,
            &probe_spec,
        )?)
    } else {
        None
    };
    let reference = single_core.as_ref().map(|(_, r, _)| r);
    let mut targets = Vec::new();
    for &kind in spec.targets {
        let mut cell = TargetCell {
            kind: kind_label(kind).into(),
            label: String::new(),
            result: Err("did not run".into()),
            matches_serial: None,
            steals: None,
            occupancy: None,
            registers_wanted: None,
        };
        let probe = match (kind, &single_core) {
            (TargetKind::SingleCore, Some((seconds, result, label))) => {
                Ok((*seconds, result.clone(), label.clone()))
            }
            _ => {
                let mut session = Session::new(&w.model)
                    .compile_config(cfg.compile)
                    .target(concrete_target(kind, cfg.threads));
                if kind == TargetKind::Baseline {
                    // Fig. 4 semantics: a baseline that cannot finish is a
                    // recorded "did not finish" cell, not a stalled sweep.
                    session = session.eval_budget(PROBE_EVAL_BUDGET);
                }
                timed_run(session, &artifact, &probe_spec)
            }
        };
        match probe {
            Ok((seconds, result, label)) => {
                cell.label = label;
                cell.result = Ok(seconds);
                if matches!(kind, TargetKind::MultiCore | TargetKind::Gpu) {
                    cell.matches_serial = reference.map(|r| {
                        outputs_bits_equal(&r.outputs, &result.outputs)
                            && r.passes == result.passes
                    });
                }
                if let Some(grid) = &result.grid {
                    cell.steals = Some(grid.steals);
                }
                if let Some(gpu) = &result.gpu {
                    cell.occupancy = Some(gpu.occupancy);
                    cell.registers_wanted = Some(gpu.registers_wanted);
                }
            }
            Err(e) => cell.result = Err(e.to_string()),
        }
        targets.push(cell);
    }

    Ok(WorkloadReport {
        name: spec.name.into(),
        model: w.model.name.clone(),
        trials,
        // Report what actually executed: the driver clamps workers to the
        // chunk count (and stateful models fall back to a 1-worker serial
        // run), so the config's requested values would overstate small runs.
        threads: shard_stats.map(|s| s.threads).unwrap_or(1),
        batch: shard_stats.map(|s| s.batch).unwrap_or(cfg.batch),
        serial_s,
        sharded_s,
        speedup: serial_s / sharded_s.max(1e-12),
        chunks: shard_stats.map(|s| s.chunks).unwrap_or(0),
        steals: shard_stats.map(|s| s.steals).unwrap_or(0),
        identical,
        run_stats,
        targets,
    })
}

/// Run the default sweep: every registry family tagged [`Tag::Sweep`].
///
/// # Errors
/// Propagates the first hard failure (see [`sweep_workload`]).
pub fn run_sweep(cfg: &SweepConfig) -> Result<SweepReport, DistillError> {
    let mut workloads = Vec::new();
    for spec in registry::by_tag(Tag::Sweep) {
        workloads.push(sweep_workload(spec, cfg)?);
    }
    Ok(SweepReport {
        scale: cfg.scale,
        threads: cfg.threads,
        batch: cfg.batch,
        tier: cfg.compile.tier.to_string(),
        workloads,
    })
}

/// Registry key of the anchor family (the Fig. 2 model, predator-prey S).
pub const ANCHOR_FAMILY: &str = "predator_prey_2";

/// Expression-evaluation budget for baseline target probes, standing in for
/// the paper's 24-hour cutoff exactly like the Fig. 4 harness's DNF budget:
/// a baseline that exceeds it becomes a recorded failure cell.
pub const PROBE_EVAL_BUDGET: u64 = 200_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> SweepConfig {
        SweepConfig {
            threads: 4,
            batch: 4,
            trials: Some(9),
            ..SweepConfig::default()
        }
    }

    #[test]
    fn sweep_covers_every_tagged_family_and_stays_identical() {
        let report = run_sweep(&tiny_cfg()).expect("sweep runs");
        assert_eq!(
            report.workloads.len(),
            registry::by_tag(Tag::Sweep).len(),
            "one report per swept family"
        );
        assert!(report.all_identical(), "sharded must equal serial: {report:?}");
        for w in &report.workloads {
            assert!(w.serial_s > 0.0 && w.sharded_s > 0.0);
            assert_eq!(w.trials, 9);
            assert!(!w.targets.is_empty());
        }
    }

    #[test]
    fn skewed_family_reports_multicore_cell_matching_serial() {
        let spec = registry::by_name("predator_prey_skewed").unwrap();
        let report = sweep_workload(spec, &tiny_cfg()).expect("sweep runs");
        assert!(report.identical);
        let mcpu = report
            .targets
            .iter()
            .find(|c| c.kind == "multi-core")
            .expect("skewed family probes the multicore target");
        assert!(mcpu.result.is_ok(), "{:?}", mcpu.result);
        assert_eq!(mcpu.matches_serial, Some(true));
        assert!(mcpu.steals.is_some());
    }

    #[test]
    fn gpu_stress_cell_reports_high_register_demand() {
        let spec = registry::by_name("gpu_stress").unwrap();
        let report = sweep_workload(spec, &tiny_cfg()).expect("sweep runs");
        let gpu = report
            .targets
            .iter()
            .find(|c| c.kind == "gpu")
            .expect("gpu stress family probes the gpu target");
        let regs = gpu.registers_wanted.expect("gpu cell reports registers");
        // The point of the family: the kernel's register demand saturates
        // the ISA cap, which is where the Fig. 6 throttle trade-off lives.
        assert!(regs >= 200, "expected a register-heavy kernel, got {regs}");
        assert!(gpu.occupancy.unwrap() > 0.0);
        assert_eq!(gpu.matches_serial, Some(true), "gpu grid diverged from single-core");
    }
}
