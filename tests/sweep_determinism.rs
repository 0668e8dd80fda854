//! Sweep determinism: the sharded + batched trial path must be bit-identical
//! to the serial path for **every registered workload family**, across
//! thread counts {1, 2, 4, 8} and batch sizes {1, N} — any schedule, any
//! chunking, same bits.
//!
//! This is the contract the sweep subsystem rests on: per-trial PRNG streams
//! are derived from the trial index (so trials are random-access units), the
//! chunk queue partitions the trial space exactly once, and stitching
//! preserves trial order. A single flipped bit on any family under any
//! configuration fails this suite.

use distill::{compile, RunResult, RunSpec, Session};
use distill_models::{registry, Scale};
use distill_sweep::{
    dsweep_family, outputs_bits_equal, run_sweep, DsweepConfig, FaultPlan, SweepConfig, WorkerMode,
    ANCHOR_FAMILY,
};

/// Odd trial count so every batch size produces a ragged final chunk.
const TRIALS: usize = 11;

fn bits(r: &RunResult) -> Vec<Vec<u64>> {
    r.outputs
        .iter()
        .map(|trial| trial.iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn every_registered_family_shards_bit_identically() {
    for spec in registry::registry() {
        let w = spec.build(Scale::Reduced);
        // Compile once; the runner is rebuilt (cheaply) per configuration.
        let artifact = compile(&w.model, Session::new(&w.model).config())
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", spec.name));
        let serial_spec = RunSpec::new(w.inputs.clone(), TRIALS);
        let serial = Session::new(&w.model)
            .build_with(artifact.clone())
            .unwrap()
            .run(&serial_spec)
            .unwrap_or_else(|e| panic!("{}: serial run failed: {e}", spec.name));
        let serial_bits = bits(&serial);
        for threads in [1usize, 2, 4, 8] {
            for batch in [1usize, 5] {
                let sharded = Session::new(&w.model)
                    .build_with(artifact.clone())
                    .unwrap()
                    .run(&serial_spec.clone().with_batch(batch).with_shards(threads))
                    .unwrap_or_else(|e| {
                        panic!(
                            "{}: sharded run (t={threads}, b={batch}) failed: {e}",
                            spec.name
                        )
                    });
                assert_eq!(
                    serial_bits,
                    bits(&sharded),
                    "{}: outputs diverged at threads={threads}, batch={batch}",
                    spec.name
                );
                assert_eq!(
                    serial.passes, sharded.passes,
                    "{}: pass counts diverged at threads={threads}, batch={batch}",
                    spec.name
                );
                // Models whose state persists across trials legitimately
                // fall back to the serial path (no shard stats) — identity
                // above is still required of them.
                if threads > 1 && w.model.reset_state_each_trial {
                    let stats = sharded
                        .shards
                        .unwrap_or_else(|| panic!("{}: sharded run reports no stats", spec.name));
                    assert!(stats.threads >= 1);
                    assert_eq!(stats.chunks, TRIALS.div_ceil(stats.batch));
                }
            }
        }
    }
}

#[test]
fn orchestrated_sweep_verifies_identity_on_every_family() {
    // The end-to-end path: the Sweep orchestrator itself reports the
    // bit-identity verdict per family — and it must hold everywhere.
    let report = run_sweep(&SweepConfig {
        threads: 4,
        batch: 4,
        trials: Some(TRIALS),
        ..SweepConfig::default()
    })
    .expect("sweep runs");
    for w in &report.workloads {
        assert!(
            w.identical,
            "{}: sharded sweep diverged from serial",
            w.name
        );
    }
    assert!(report.all_identical());
}

// ---------------------------------------------------------------------------
// Distributed (multi-process) sweep
// ---------------------------------------------------------------------------

/// Enough trials for several leases per worker at every topology.
const DTRIALS: usize = 36;

/// Serial reference for the distributed cases.
fn serial_reference() -> RunResult {
    let spec = registry::by_name(ANCHOR_FAMILY).expect("anchor registered");
    let w = spec.build(Scale::Reduced);
    Session::new(&w.model)
        .build()
        .unwrap()
        .run(&RunSpec::new(w.inputs.clone(), DTRIALS))
        .unwrap()
}

fn dcfg(workers: usize, threads: usize) -> DsweepConfig {
    DsweepConfig {
        workers,
        threads,
        batch: 4,
        lease_trials: 5, // ragged final lease on purpose
        trials: Some(DTRIALS),
        // Worker processes are not built when only this test binary is; the
        // in-process worker threads speak the identical socket protocol, so
        // the coordinator/lease/epoch machinery is exercised either way
        // (`ci.sh` runs the true multi-process smoke against release bins).
        mode: WorkerMode::Auto,
        ..DsweepConfig::default()
    }
}

#[test]
fn distributed_sweep_is_bit_identical_at_every_topology() {
    let serial = serial_reference();
    for workers in [1usize, 2, 4] {
        for threads in [1usize, 2] {
            let report = dsweep_family(ANCHOR_FAMILY, &dcfg(workers, threads))
                .unwrap_or_else(|e| panic!("dsweep w={workers} t={threads}: {e}"));
            assert!(
                outputs_bits_equal(&serial.outputs, &report.outputs),
                "outputs diverged at workers={workers} threads={threads} (mode={})",
                report.mode
            );
            assert_eq!(
                serial.passes, report.passes,
                "pass counts diverged at workers={workers} threads={threads}"
            );
            assert_eq!(report.trials, DTRIALS);
            assert_eq!(report.leases, DTRIALS.div_ceil(5));
            assert_eq!(report.reissued, 0, "clean run must not re-issue");
            assert_eq!(report.fenced_stale, 0);
        }
    }
}

#[test]
fn distributed_sweep_survives_a_seeded_worker_kill_bit_identically() {
    let serial = serial_reference();
    let cfg = DsweepConfig {
        faults: FaultPlan::seeded(0xFA11, 2),
        ..dcfg(2, 2)
    };
    let report = dsweep_family(ANCHOR_FAMILY, &cfg).expect("faulted dsweep completes");
    assert!(
        outputs_bits_equal(&serial.outputs, &report.outputs),
        "kill-recovery outputs diverged (mode={}, reissued={})",
        report.mode,
        report.reissued
    );
    assert_eq!(serial.passes, report.passes);
    if report.workers_connected > 0 {
        assert!(
            report.worker_deaths >= 1,
            "the seeded kill must be observed"
        );
        assert!(
            report.reissued >= 1,
            "the killed worker's lease must re-issue"
        );
        assert!(report.max_epoch >= 1, "re-issue must bump the epoch");
        assert!(
            report.shards.steals >= report.reissued,
            "recovery must be visible in merged ShardStats"
        );
    }
}

#[test]
fn distributed_sweep_fences_dropped_results_and_stays_identical() {
    let serial = serial_reference();
    let cfg = DsweepConfig {
        // Worker 0 computes its first lease but never sends it; the lease
        // deadline must expire and the window re-issue under a new epoch.
        faults: FaultPlan::parse("drop=0@0").unwrap(),
        lease_timeout: std::time::Duration::from_millis(250),
        ..dcfg(2, 1)
    };
    let report = dsweep_family(ANCHOR_FAMILY, &cfg).expect("drop-faulted dsweep completes");
    assert!(
        outputs_bits_equal(&serial.outputs, &report.outputs),
        "drop-recovery outputs diverged (mode={})",
        report.mode
    );
    assert_eq!(serial.passes, report.passes);
    if report.workers_connected > 0 {
        assert!(report.reissued >= 1, "the dropped lease must re-issue");
    }
}
