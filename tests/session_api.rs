//! Integration tests of the `Session`/`Runner` API: every batch size is
//! bit-identical to one trial per engine entry on every target and across
//! model families, and malformed specs fail loudly with driver errors
//! instead of panicking or truncating silently.

use distill::{CompileMode, DistillError, ExecMode, GpuConfig, RunSpec, Runner, Session, Target};
use distill_models::{botvinick_stroop, necker_cube_s, predator_prey_s, Workload};

fn targets() -> Vec<(&'static str, Target)> {
    vec![
        ("baseline", Target::Baseline(ExecMode::CPython)),
        ("single-core", Target::SingleCore),
        ("multi-core", Target::MultiCore { threads: 3 }),
        ("gpu", Target::Gpu(GpuConfig::default())),
    ]
}

fn families() -> Vec<Workload> {
    // Three model families: deterministic recurrent (Necker cube),
    // stochastic with a grid-search controller (predator-prey), and the
    // threshold-terminated Stroop network.
    vec![necker_cube_s(), predator_prey_s(), botvinick_stroop()]
}

/// Property: for every target and model family, `batch = 1` and `batch = N`
/// produce identical outputs and pass counts.
#[test]
fn batched_equals_per_trial_on_every_target_and_family() {
    for w in families() {
        let trials = 7.min(w.trials.max(5));
        for (label, target) in targets() {
            let per_trial = Session::new(&w.model)
                .target(target)
                .build()
                .unwrap_or_else(|e| panic!("{label}/{}: build failed: {e}", w.model.name))
                .run(&RunSpec::new(w.inputs.clone(), trials))
                .unwrap_or_else(|e| panic!("{label}/{}: run failed: {e}", w.model.name));
            for batch in [2usize, 5, 64] {
                let batched = Session::new(&w.model)
                    .target(target)
                    .build()
                    .unwrap()
                    .run(&RunSpec::new(w.inputs.clone(), trials).with_batch(batch))
                    .unwrap_or_else(|e| {
                        panic!("{label}/{} batch={batch}: run failed: {e}", w.model.name)
                    });
                assert_eq!(
                    per_trial.outputs, batched.outputs,
                    "{label}/{} batch={batch}: outputs differ",
                    w.model.name
                );
                assert_eq!(
                    per_trial.passes, batched.passes,
                    "{label}/{} batch={batch}: pass counts differ",
                    w.model.name
                );
            }
        }
    }
}

/// Batching also holds when the batch does not divide the trial count, when
/// it exceeds the compiled staging capacity (the driver runs capacity-sized
/// windows), and when a caller sets the pub field to 0.
#[test]
fn batch_chunking_handles_remainders_and_capacity() {
    let w = necker_cube_s();
    let trials = 150;
    let mut runner = Session::new(&w.model).build().unwrap();
    let capacity = runner.compiled().unwrap().batch_capacity;
    let reference = runner.run(&RunSpec::new(w.inputs.clone(), trials)).unwrap();
    let mut zero = RunSpec::new(w.inputs.clone(), trials);
    zero.batch = 0;
    for spec in [
        RunSpec::new(w.inputs.clone(), trials).with_batch(7),
        // Batch 1000 over capacity 64 forces ceil(150/64) = 3 windows.
        RunSpec::new(w.inputs.clone(), trials).with_batch(1000),
        RunSpec::new(w.inputs.clone(), trials)
            .with_batch(1000)
            .with_shards(2),
        zero,
    ] {
        let got = runner.run(&spec).unwrap();
        assert_eq!(reference.outputs, got.outputs, "batch {}", spec.batch);
        assert_eq!(reference.passes, got.passes, "batch {}", spec.batch);
        if let Some(shards) = got.shards {
            assert_eq!(shards.batch, capacity);
            assert_eq!(shards.chunks, trials.div_ceil(capacity));
        }
    }
}

/// Regression: empty inputs with a non-zero trial count used to panic with a
/// modulo-by-zero inside the drivers; now every backend returns a
/// `DistillError::Driver`.
#[test]
fn empty_inputs_are_a_driver_error_on_every_target() {
    let w = necker_cube_s();
    for (label, target) in targets() {
        let err = Session::new(&w.model)
            .target(target)
            .build()
            .unwrap()
            .run(&RunSpec::new(vec![], 4))
            .unwrap_err();
        assert!(
            matches!(err, DistillError::Driver(_)),
            "{label}: expected a driver error, got {err}"
        );
    }
    // Zero trials with zero inputs is a valid empty run everywhere.
    for (label, target) in targets() {
        let r = Session::new(&w.model)
            .target(target)
            .build()
            .unwrap()
            .run(&RunSpec::new(vec![], 0))
            .unwrap_or_else(|e| panic!("{label}: empty run failed: {e}"));
        assert!(r.outputs.is_empty(), "{label}");
    }
}

/// Regression: wrong-arity inputs used to be silently truncated or
/// zero-padded by `write_trial_input`; now they fail loudly.
#[test]
fn shape_mismatches_are_driver_errors() {
    let w = necker_cube_s();
    let n = w.inputs[0][0].len();
    // One value too many.
    let too_long = vec![vec![vec![0.5; n + 1]]];
    // One value short.
    let too_short = vec![vec![vec![0.5; n - 1]]];
    // An extra input-node vector.
    let extra_port = vec![vec![vec![0.5; n], vec![1.0]]];
    for bad in [too_long, too_short, extra_port] {
        for (label, target) in targets() {
            let err = Session::new(&w.model)
                .target(target)
                .build()
                .unwrap()
                .run(&RunSpec::new(bad.clone(), 1))
                .unwrap_err();
            assert!(
                matches!(err, DistillError::Driver(_)),
                "{label}: expected a driver error, got {err}"
            );
        }
    }
}

/// The per-node compiled driver honors the same contract, including batch
/// requests (which fall back to trial-by-trial execution).
#[test]
fn per_node_mode_honors_the_contract() {
    let w = botvinick_stroop();
    let spec = RunSpec::new(w.inputs.clone(), 4);
    let whole = Session::new(&w.model).build().unwrap().run(&spec).unwrap();
    let per_node = Session::new(&w.model)
        .mode(CompileMode::PerNode)
        .build()
        .unwrap()
        .run(&spec.clone().with_batch(4))
        .unwrap();
    assert_eq!(whole.outputs, per_node.outputs);
    assert_eq!(whole.passes, per_node.passes);
}

/// Runner metadata: labels name the target, compiled backends expose their
/// artifact, the baseline does not.
#[test]
fn runner_metadata_reflects_the_target() {
    let w = predator_prey_s();
    let baseline = Session::new(&w.model)
        .target(Target::Baseline(ExecMode::CPython))
        .build()
        .unwrap();
    assert!(baseline.target_label().starts_with("baseline:"));
    assert!(baseline.compiled().is_none());
    let single = Session::new(&w.model).build().unwrap();
    assert_eq!(single.target_label(), "single-core");
    let compiled = single.compiled().expect("compiled backend has an artifact");
    assert!(compiled.trial_func.is_some());
    assert!(compiled.batch_func.is_some());
    assert!(compiled.grid_size > 0);
    let mcpu = Session::new(&w.model)
        .target(Target::MultiCore { threads: 2 })
        .build()
        .unwrap();
    assert_eq!(mcpu.target_label(), "multi-core:2");
}

/// Property: the session's tier knob (here through the legacy `fuse`
/// spelling) selects the engine's execution form — identical outputs either
/// way, superinstructions only when fused.
#[test]
fn fusion_knob_is_a_pure_performance_switch() {
    let w = predator_prey_s();
    let spec = RunSpec::new(w.inputs.clone(), 4);
    let mut fused = Session::new(&w.model).build().unwrap();
    let mut unfused = Session::new(&w.model)
        .tier(distill::TierPolicy::Fixed(distill::Tier::Decoded))
        .build()
        .unwrap();
    let a = fused.run(&spec).unwrap();
    let b = unfused.run(&spec).unwrap();
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(a.passes, b.passes);
    if distill::TierPolicy::from_env().is_some() {
        // A DISTILL_TIER environment request overrides the
        // session knob by design; the fusion-specific assertions below
        // would be vacuous.
        return;
    }
    assert!(
        a.stats.fused_ops > 0,
        "fused runner must execute superinstructions: {:?}",
        a.stats
    );
    assert_eq!(
        b.stats.fused_ops, 0,
        "unfused runner must not report superinstructions: {:?}",
        b.stats
    );
    // Liveness compaction shows up as fewer frame slots for the same work.
    assert!(
        a.stats.frame_slots < b.stats.frame_slots,
        "fused frames must be smaller: {:?} vs {:?}",
        a.stats,
        b.stats
    );
}

/// Regression: an explicit `Session::tier` must win over the tier recorded
/// in a pre-compiled artifact (`build_with` used to ignore it), and an
/// unset one must leave the artifact's tier alone.
#[test]
fn session_tier_overrides_the_artifacts_tier_in_build_with() {
    use distill::{Tier, TierPolicy};
    if TierPolicy::from_env().is_some() {
        return; // DISTILL_TIER overrides every runner by design.
    }
    let w = predator_prey_s();
    let spec = RunSpec::new(w.inputs.clone(), 4);
    let artifact = distill::compile(&w.model, distill::CompileConfig::default()).unwrap();
    let build = |tier: Option<Tier>| {
        let session = Session::new(&w.model);
        match tier {
            Some(t) => session.tier(TierPolicy::Fixed(t)),
            None => session,
        }
        .build_with(artifact.clone())
        .unwrap()
    };
    let policy = |r: &dyn Runner| r.engine().expect("compiled runner").tier_policy();

    let mut reference = build(Some(Tier::Reference));
    let mut threaded = build(Some(Tier::Threaded));
    assert_eq!(policy(&*reference), TierPolicy::Fixed(Tier::Reference));
    assert_eq!(policy(&*threaded), TierPolicy::Fixed(Tier::Threaded));
    assert_eq!(policy(&*build(None)), artifact.config.tier);
    // A default-config artifact built with no explicit tier runs the
    // production tier.
    assert_eq!(policy(&*build(None)), TierPolicy::Fixed(Tier::Threaded));

    let a = reference.run(&spec).unwrap();
    let b = threaded.run(&spec).unwrap();
    let bits = |r: &distill::RunResult| -> Vec<Vec<u64>> {
        r.outputs
            .iter()
            .map(|o| o.iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    assert_eq!(bits(&a), bits(&b));
    assert_eq!(a.passes, b.passes);
}

/// The boxed runner can be driven generically.
fn drive(runner: &mut dyn Runner, spec: &RunSpec) -> usize {
    runner.run(spec).map(|r| r.outputs.len()).unwrap_or(0)
}

#[test]
fn runners_are_object_safe_and_interchangeable() {
    let w = necker_cube_s();
    let spec = RunSpec::new(w.inputs.clone(), 2);
    for (label, target) in targets() {
        let mut runner = Session::new(&w.model).target(target).build().unwrap();
        assert_eq!(drive(runner.as_mut(), &spec), 2, "{label}");
    }
}
