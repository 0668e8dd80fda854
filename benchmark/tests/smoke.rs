//! End-to-end smoke of the benchmark itself: every workload runs, checks its
//! outputs and reports every metric; a seed fixes what runs.
//!
//! One test function, run serially: a run pins process-wide state (the
//! telemetry switch, environment variables for worker processes).
//! `dsweep_procs` needs the product's `distill-sweep-worker` binary, which
//! `benchmark/run.sh` builds into the same target directory; without it the
//! workload must refuse to run rather than fall back to threads.

use distill_benchmark::metrics::{END_TO_END, PER_LAYER};
use distill_benchmark::workloads::WORKLOADS;
use distill_benchmark::{run, Args};
use std::path::Path;
use std::time::Instant;

fn args(workload: &str, seed: u64, trace: bool) -> Args {
    Args {
        workload: workload.into(),
        seed,
        seconds: 0.16,
        trace,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-smoke"),
    }
}

#[test]
fn every_workload_runs_checks_and_reports() {
    let start = Instant::now();
    assert_eq!(WORKLOADS.len(), 8);
    for (name, why) in WORKLOADS {
        assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        if *name == "dsweep_procs" && distill_sweep::find_worker_bin().is_none() {
            let err = run(&args(name, 1, false)).unwrap_err();
            assert!(err.contains("distill-sweep-worker"), "{err}");
            continue;
        }
        let o = run(&args(name, 1, false)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(o.correct, "{name}: {:?}", o.mismatches);
        assert_eq!(o.failed, 0, "{name}: {:?}", o.notes);
        assert!(o.attempted >= 1);
        let names: Vec<&str> = o.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        for (metric, value, _) in &o.metrics {
            assert!(
                *value > 0.0 && value.is_finite(),
                "{name}: {metric} = {value}"
            );
        }
        let line = o.line().to_string();
        for key in [
            "\"correct\": true",
            "\"attempted\": ",
            "\"failed\": 0",
            "\"metrics\": {\"setup_s\": {\"value\": ",
        ] {
            assert!(line.contains(key), "{line}");
        }
    }
    let smoke_s = start.elapsed().as_secs_f64();

    // Same seed, same digest; another seed, other inputs, another digest.
    for name in ["boundary_heavy", "serve_burst"] {
        let a = run(&args(name, 7, false)).unwrap();
        let b = run(&args(name, 7, false)).unwrap();
        let c = run(&args(name, 8, false)).unwrap();
        assert_eq!(a.digest, b.digest, "{name}");
        assert_ne!(a.digest, c.digest, "{name}");
    }

    // A traced run reports every per-layer metric, attributes the opaque
    // calls to layers, and leaves a trace behind.
    let o = run(&args("boundary_heavy", 1, true)).unwrap();
    assert!(
        o.correct && o.failed == 0,
        "{:?} {:?}",
        o.mismatches,
        o.notes
    );
    assert_eq!(o.metrics.len(), PER_LAYER.len());
    let get = |n: &str| o.metrics.iter().find(|m| m.0 == n).unwrap().1;
    let frac = get("core.attributed_frac");
    assert!((0.7..=1.3).contains(&frac), "attributed_frac {frac}");
    assert!(get("exec.dispatches_per_trial") > 1000.0);
    assert!(get("opt.O2.insts_after") > 0.0 && get("exec.tier_ns_per_trial.reference") > 0.0);
    assert_eq!(
        get("sweep.leases"),
        0.0,
        "a layer the workload does not exercise reads 0"
    );
    let trace = std::fs::read_to_string(
        args("boundary_heavy", 1, true)
            .out
            .join("trace_boundary_heavy.json"),
    )
    .unwrap();
    assert!(
        trace.contains("\"traceEvents\"")
            && trace.contains("Engine::call")
            && trace.contains("\"parent\": ")
    );

    assert!(run(&args("no_such_workload", 1, false)).is_err());
    // Five set-ups per workload are a fixed cost however short the rounds
    // are (about 17 s in all on 2 cores). Debug builds interpret an order of
    // magnitude slower; the budget is for `cargo test --release`.
    if !cfg!(debug_assertions) {
        assert!(smoke_s < 25.0, "smoke of all workloads took {smoke_s:.1}s");
    }
}
