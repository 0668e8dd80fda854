//! Integration: the compiled path reproduces the dynamic baseline exactly on
//! every benchmark model that CPython can run, and the failure annotations of
//! Fig. 4 appear in the right places — all through the `Session`/`Runner`
//! API.

use distill::{CompileMode, DistillError, ExecMode, GpuConfig, RunSpec, Session, Target};
use distill_models::*;

/// Bitwise equality of every trial output (the invariant is bit-identity,
/// not closeness).
fn assert_outputs_match(name: &str, a: &[Vec<f64>], b: &[Vec<f64>]) {
    assert_eq!(a.len(), b.len(), "{name}: trial counts differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.len(), y.len(), "{name}: trial {i} output sizes differ");
        for (u, v) in x.iter().zip(y) {
            assert_eq!(
                u.to_bits(),
                v.to_bits(),
                "{name}: trial {i}: baseline {u} vs compiled {v}"
            );
        }
    }
}

#[test]
fn compiled_matches_baseline_on_deterministic_models() {
    for w in [
        necker_cube_s(),
        necker_cube_m(),
        vectorized_necker_cube(),
        botvinick_stroop(),
        extended_stroop_a(),
        extended_stroop_b(),
    ] {
        let trials = 3.min(w.trials);
        let spec = RunSpec::new(w.inputs.clone(), trials);
        let baseline = Session::new(&w.model)
            .target(Target::Baseline(ExecMode::CPython))
            .build()
            .unwrap()
            .run(&spec)
            .unwrap_or_else(|e| panic!("{}: baseline failed: {e}", w.model.name));
        let compiled = Session::new(&w.model)
            .build()
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", w.model.name))
            .run(&spec)
            .unwrap_or_else(|e| panic!("{}: compiled run failed: {e}", w.model.name));
        assert_outputs_match(&w.model.name, &baseline.outputs, &compiled.outputs);
        assert_eq!(
            baseline.passes, compiled.passes,
            "{}: pass counts differ",
            w.model.name
        );
    }
}

#[test]
fn compiled_matches_baseline_on_stochastic_models() {
    // Predator-prey draws random observations per grid evaluation; the
    // compiled path replicates the PRNG streams so results match exactly.
    // The skewed and GPU-stress registry families ride along: their
    // attention-gated deliberation draws and wide kernels must consume
    // streams identically on both paths too.
    for w in [
        predator_prey_s(),
        predator_prey_m(),
        predator_prey_skewed(4),
        gpu_stress(4),
        multitasking(),
    ] {
        let spec = RunSpec::new(w.inputs.clone(), 2);
        let baseline = Session::new(&w.model)
            .target(Target::Baseline(ExecMode::CPython))
            .build()
            .unwrap()
            .run(&spec)
            .unwrap_or_else(|e| panic!("{}: baseline failed: {e}", w.model.name));
        let compiled = Session::new(&w.model).build().unwrap().run(&spec).unwrap();
        assert_outputs_match(&w.model.name, &baseline.outputs, &compiled.outputs);
    }
}

#[test]
fn per_node_and_whole_model_agree() {
    let w = botvinick_stroop();
    let spec = RunSpec::new(w.inputs.clone(), 3);
    let a = Session::new(&w.model).build().unwrap().run(&spec).unwrap();
    let b = Session::new(&w.model)
        .mode(CompileMode::PerNode)
        .build()
        .unwrap()
        .run(&spec)
        .unwrap();
    assert_eq!(a.outputs, b.outputs);
}

#[test]
fn figure4_failure_annotations() {
    // PyTorch-backed multitasking is rejected by Pyston and PyPy.
    let w = multitasking();
    for mode in [ExecMode::Pyston, ExecMode::PyPy, ExecMode::PyPyNoJit] {
        let err = Session::new(&w.model)
            .target(Target::Baseline(mode))
            .build()
            .unwrap()
            .run(&RunSpec::new(w.inputs.clone(), 1))
            .unwrap_err();
        assert!(matches!(err, DistillError::Baseline(_)), "{mode:?}: {err}");
    }
    // The Botvinick Stroop workload exhausts the simulated PyPy trace budget.
    let w = botvinick_stroop();
    let err = Session::new(&w.model)
        .target(Target::Baseline(ExecMode::PyPy))
        .build()
        .unwrap()
        .run(&RunSpec::new(w.inputs.clone(), w.trials))
        .unwrap_err();
    assert!(
        matches!(
            err,
            DistillError::Baseline(distill::RunError::OutOfMemory { .. })
        ),
        "{err}"
    );
    // ...but completes under CPython and under Distill.
    assert!(Session::new(&w.model)
        .target(Target::Baseline(ExecMode::CPython))
        .build()
        .unwrap()
        .run(&RunSpec::new(w.inputs.clone(), 3))
        .is_ok());
}

#[test]
fn parallel_grid_matches_serial_grid() {
    let w = predator_prey(4);
    let spec = RunSpec::new(w.inputs.clone(), 1);
    let serial = Session::new(&w.model)
        .target(Target::MultiCore { threads: 1 })
        .build()
        .unwrap()
        .run(&spec)
        .unwrap();
    let parallel = Session::new(&w.model)
        .target(Target::MultiCore { threads: 8 })
        .build()
        .unwrap()
        .run(&spec)
        .unwrap();
    let s = serial.grid.expect("grid stats");
    let p = parallel.grid.expect("grid stats");
    assert_eq!((s.evaluations, p.evaluations), (64, 64));
    // The full trial results agree — the parallel grid fills the same cost
    // window, so the one fold commits the same allocation before the pass
    // loop runs.
    assert_eq!(serial.outputs, parallel.outputs);
    assert_eq!(serial.passes, parallel.passes);
    let gpu = Session::new(&w.model)
        .target(Target::Gpu(GpuConfig::default()))
        .build()
        .unwrap()
        .run(&spec)
        .unwrap();
    assert_eq!(gpu.gpu.expect("gpu report").evaluations, s.evaluations);
    assert_eq!(gpu.outputs, serial.outputs);
}
