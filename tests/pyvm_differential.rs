//! Differential smoke test pinning the `pyvm` baseline interpreter against
//! `Engine::call_reference` — the first step of putting the baseline on the
//! same differential-testing diet as the exec engine.
//!
//! The exec crate already pins its predecoded hot path against the retained
//! IR-walking reference interpreter (`tests/interp_differential.rs`). This
//! suite closes the remaining gap across the stack: the *dynamic* baseline
//! (boxed values, string-keyed dictionaries, per-node `pyvm` expression
//! interpretation) must agree with the reference interpreter executing the
//! *compiled* trial function — same trials, same PRNG streams, same pass
//! counts — on a stochastic, controller-bearing model family. A mismatch
//! here means codegen and the baseline disagree about model semantics, which
//! is exactly the regression neither engine-level suite can see.

use distill::{compile, global_names as gn, BaselineRunner, CompileConfig, Engine, Value};
use distill_models::predator_prey_s;
use distill_pyvm::ExecMode;

#[test]
fn baseline_interpreter_matches_reference_engine_on_predator_prey() {
    let w = predator_prey_s();
    let trials = 6;

    // The dynamic baseline: pyvm expression interpretation per node.
    let baseline = BaselineRunner::new(ExecMode::CPython)
        .run(&w.model, &w.inputs, trials)
        .expect("baseline runs");

    // The compiled trial function, executed by the *reference* IR
    // interpreter (not the predecoded hot path).
    let config = CompileConfig::default();
    let artifact = compile(&w.model, config).expect("compilation succeeds");
    let trial_fn = artifact
        .trial_func
        .expect("whole-model artifact has a trial function");
    let out_len = artifact.layout.trial_output_len;
    let mut engine = Engine::new(artifact.module.clone());

    assert_eq!(baseline.outputs.len(), trials);
    for trial in 0..trials {
        let input = &w.inputs[trial % w.inputs.len()];
        let flat = artifact.layout.flatten_input(&w.model.input_nodes, input);
        engine.write_global_f64(gn::EXT_INPUT, &flat).unwrap();
        engine
            .call_reference(trial_fn, &[Value::I64(trial as i64)])
            .expect("reference trial executes");
        let out = engine.read_global_f64(gn::TRIAL_OUTPUT).unwrap();
        let passes = engine.read_global_i64(gn::PASSES, 0).unwrap() as u64;

        let expected = &baseline.outputs[trial];
        assert_eq!(expected.len(), out_len, "trial {trial}: output arity");
        for (i, (b, c)) in expected.iter().zip(&out[..out_len]).enumerate() {
            assert_eq!(
                b.to_bits(),
                c.to_bits(),
                "trial {trial}, element {i}: baseline {b} vs reference-compiled {c}"
            );
        }
        assert_eq!(baseline.passes[trial], passes, "trial {trial}: pass counts");
    }

    // The grid search ran on both sides: S-scale predator-prey evaluates 8
    // allocations per trial.
    assert_eq!(baseline.controller_evaluations, trials as u64 * 8);
}
