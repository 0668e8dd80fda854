//! `distill` — the top-level API of the Distill reproduction.
//!
//! This crate ties the substrates together into the tool the paper
//! describes: take a PsyNeuLink-style [`Composition`], compile it with
//! domain-specific knowledge, and execute the compiled model orders of
//! magnitude faster than the dynamic baseline — on one core, on all cores,
//! or on the (simulated) GPU — while also exposing the model-level analyses
//! of §4 through the re-exported `analysis` module.
//!
//! # Quickstart
//!
//! Execution is unified behind a [`Session`] builder and the [`Runner`]
//! trait: pick a [`Target`], build, and run a [`RunSpec`]. Every backend —
//! baseline interpreter, compiled single-core, multicore grid search,
//! simulated GPU — answers the same contract with a [`RunResult`].
//!
//! ```
//! use distill::{RunSpec, Session, Target};
//! use distill_models::predator_prey_s;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let workload = predator_prey_s();
//!
//! // Compiled, single core (the default target).
//! let mut compiled = Session::new(&workload.model).build()?;
//! let result = compiled.run(&RunSpec::new(workload.inputs.clone(), 2))?;
//! assert_eq!(result.outputs.len(), 2);
//!
//! // The same trials through the dynamic baseline for comparison.
//! let mut baseline = Session::new(&workload.model)
//!     .target(Target::Baseline(distill::ExecMode::CPython))
//!     .build()?;
//! let reference = baseline.run(&RunSpec::new(workload.inputs.clone(), 2))?;
//! assert_eq!(reference.outputs, result.outputs);
//!
//! // Every compiled run goes through the `trials_batch` entry point; the
//! // batch size only sets how many trials one engine entry covers (one by
//! // default), so the results are the same.
//! let mut batched = Session::new(&workload.model).build()?;
//! let spec = RunSpec::new(workload.inputs.clone(), 2).with_batch(32);
//! assert_eq!(batched.run(&spec)?.outputs, result.outputs);
//! # Ok(())
//! # }
//! ```
//!
//! Other targets: `Target::MultiCore { threads }` splits a controller's
//! grid search across OS threads; `Target::Gpu(GpuConfig::default())` runs
//! it on the simulated SIMT GPU and reports modelled timing in
//! [`RunResult::gpu`].

pub use distill_analysis as analysis;
pub use distill_codegen::{compile, global_names, CompileConfig, CompileMode, CompiledModel};
pub use distill_cogmodel::{BaselineRunner, Composition, RunError};
pub use distill_exec::{
    grid_costs, ChunkQueue, Engine, EngineStats, ExecConfig, ExecError, FuseSummary, GpuConfig,
    GpuRunReport, ParallelResult, Tier, TierPolicy, Value,
};
pub use distill_opt::OptLevel;
pub use distill_pyvm::ExecMode;

pub mod artifact;
pub mod chaos;
mod runner;
mod session;

pub use artifact::{
    artifact_key, deserialize_artifact, read_artifact, serialize_artifact, write_artifact,
    ArtifactError, ARTIFACT_VERSION,
};
pub use chaos::ChaosPlan;
pub use runner::{ChunkExecutor, RunResult, RunSpec, Runner, ShardStats};
pub use session::{Session, Target};

/// One trial's external input: one vector per input node, in
/// `Composition::input_nodes` order (re-exported from the cogmodel crate).
pub use distill_cogmodel::runner::TrialInput;

use std::fmt;

/// Errors surfaced when building or driving a model.
#[derive(Debug)]
pub enum DistillError {
    /// Code generation failed.
    Codegen(distill_codegen::CodegenError),
    /// The execution engine failed.
    Exec(ExecError),
    /// The baseline interpreter failed (unsupported framework, simulated
    /// OOM, exceeded budget, …).
    Baseline(RunError),
    /// The request does not match the model or artifact (empty inputs for a
    /// non-zero trial count, wrong input arity, missing controller, …).
    Driver(String),
}

impl fmt::Display for DistillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistillError::Codegen(e) => write!(f, "{e}"),
            DistillError::Exec(e) => write!(f, "{e}"),
            DistillError::Baseline(e) => write!(f, "{e}"),
            DistillError::Driver(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for DistillError {}

impl From<distill_codegen::CodegenError> for DistillError {
    fn from(e: distill_codegen::CodegenError) -> Self {
        DistillError::Codegen(e)
    }
}

impl From<ExecError> for DistillError {
    fn from(e: ExecError) -> Self {
        DistillError::Exec(e)
    }
}

impl From<RunError> for DistillError {
    fn from(e: RunError) -> Self {
        DistillError::Baseline(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_cogmodel::functions::{identity, linear, logistic};

    fn chain_model() -> (Composition, Vec<TrialInput>) {
        let mut c = Composition::new("chain");
        let a = c.add(identity("in", 2));
        let b = c.add(linear("double", 2, 2.0, 0.0));
        let d = c.add(logistic("squash", 2, 1.0, 0.0));
        c.connect(a, 0, b, 0, 0);
        c.connect(b, 0, d, 0, 0);
        c.input_nodes = vec![a];
        c.output_nodes = vec![d];
        (c, vec![vec![vec![0.25, -1.5]], vec![vec![1.0, 2.0]]])
    }

    #[test]
    fn compiled_whole_model_matches_baseline() {
        let (model, inputs) = chain_model();
        let spec = RunSpec::new(inputs, 4);
        let baseline = Session::new(&model)
            .target(Target::Baseline(ExecMode::CPython))
            .build()
            .unwrap()
            .run(&spec)
            .unwrap();
        let compiled = Session::new(&model).build().unwrap().run(&spec).unwrap();
        assert_eq!(baseline.outputs.len(), compiled.outputs.len());
        for (b, c) in baseline.outputs.iter().zip(&compiled.outputs) {
            for (x, y) in b.iter().zip(c) {
                assert!((x - y).abs() < 1e-12, "baseline {x} vs compiled {y}");
            }
        }
    }

    #[test]
    fn per_node_mode_matches_whole_model() {
        let (model, inputs) = chain_model();
        let spec = RunSpec::new(inputs, 3);
        let a = Session::new(&model).build().unwrap().run(&spec).unwrap();
        let b = Session::new(&model)
            .mode(CompileMode::PerNode)
            .build()
            .unwrap()
            .run(&spec)
            .unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.passes, b.passes);
    }

    #[test]
    fn batched_execution_matches_windows_of_one() {
        let (model, inputs) = chain_model();
        let per_trial = Session::new(&model)
            .build()
            .unwrap()
            .run(&RunSpec::new(inputs.clone(), 7))
            .unwrap();
        let batched = Session::new(&model)
            .build()
            .unwrap()
            .run(&RunSpec::new(inputs, 7).with_batch(3))
            .unwrap();
        assert_eq!(per_trial.outputs, batched.outputs);
        assert_eq!(per_trial.passes, batched.passes);
    }

    #[test]
    fn empty_inputs_fail_loudly_not_by_panic() {
        let (model, _) = chain_model();
        for target in [Target::SingleCore, Target::Baseline(ExecMode::CPython)] {
            let err = Session::new(&model)
                .target(target)
                .build()
                .unwrap()
                .run(&RunSpec::new(vec![], 3))
                .unwrap_err();
            assert!(matches!(err, DistillError::Driver(_)), "{target:?}: {err}");
        }
    }

    #[test]
    fn wrong_arity_inputs_fail_loudly() {
        let (model, _) = chain_model();
        // Three values for a 2-wide input node.
        let err = Session::new(&model)
            .build()
            .unwrap()
            .run(&RunSpec::new(vec![vec![vec![1.0, 2.0, 3.0]]], 1))
            .unwrap_err();
        assert!(matches!(err, DistillError::Driver(_)), "{err}");
        // Two port vectors for a single input node.
        let err = Session::new(&model)
            .build()
            .unwrap()
            .run(&RunSpec::new(vec![vec![vec![1.0, 2.0], vec![3.0]]], 1))
            .unwrap_err();
        assert!(matches!(err, DistillError::Driver(_)), "{err}");
    }

    #[test]
    fn sharded_execution_matches_serial_bitwise() {
        // Stochastic model with a controller: the strongest determinism case.
        let w = distill_models::predator_prey_s();
        let serial = Session::new(&w.model)
            .build()
            .unwrap()
            .run(&RunSpec::new(w.inputs.clone(), 17))
            .unwrap();
        assert!(serial.shards.is_none());
        for (shards, batch) in [(4, 8), (4, 1), (2, 5), (8, 64)] {
            let spec = RunSpec::new(w.inputs.clone(), 17)
                .with_batch(batch)
                .with_shards(shards);
            let sharded = Session::new(&w.model).build().unwrap().run(&spec).unwrap();
            assert_eq!(
                serial.outputs, sharded.outputs,
                "shards={shards} batch={batch}"
            );
            assert_eq!(serial.passes, sharded.passes);
            let stats = sharded.shards.expect("sharded run reports stats");
            assert!(stats.threads >= 1 && stats.chunks >= 1);
        }
    }

    #[test]
    fn build_with_reuses_a_precompiled_artifact() {
        let (model, inputs) = chain_model();
        let artifact = compile(&model, CompileConfig::default()).unwrap();
        let spec = RunSpec::new(inputs, 3);
        let reused = Session::new(&model)
            .build_with(artifact.clone())
            .unwrap()
            .run(&spec)
            .unwrap();
        let fresh = Session::new(&model).build().unwrap().run(&spec).unwrap();
        assert_eq!(reused.outputs, fresh.outputs);
    }

    #[test]
    fn oversized_grid_search_inputs_are_driver_errors() {
        // Regression (formerly guarded via the deleted shims): a wrong-arity
        // input on a grid-searching target used to panic inside input
        // flattening; it must be a driver error like every other entry point.
        let w = distill_models::predator_prey_s();
        let oversized: TrialInput = vec![vec![0.5; 70]];
        for target in [
            Target::MultiCore { threads: 2 },
            Target::Gpu(GpuConfig::default()),
        ] {
            let err = Session::new(&w.model)
                .target(target)
                .build()
                .unwrap()
                .run(&RunSpec::new(vec![oversized.clone()], 1))
                .unwrap_err();
            assert!(matches!(err, DistillError::Driver(_)), "{err}");
        }
        // Well-formed inputs still work.
        assert!(Session::new(&w.model)
            .target(Target::MultiCore { threads: 2 })
            .build()
            .unwrap()
            .run(&RunSpec::new(w.inputs.clone(), 1))
            .is_ok());
    }
}
