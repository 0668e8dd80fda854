//! The [`Session`] builder: one model, one compile configuration, one
//! execution [`Target`] — built into a boxed [`Runner`].

use crate::runner::{BaselineBackend, CompiledBackend, CompiledDriver, GridStrategy, Runner};
use crate::DistillError;
use distill_cogmodel::{BaselineRunner, Composition};
use distill_codegen::{compile, CompileConfig, CompileMode, CompiledModel};
use distill_exec::GpuConfig;
use distill_opt::OptLevel;
use distill_pyvm::ExecMode;

/// Where a [`Session`] executes its model.
#[derive(Debug, Clone, Copy, PartialEq)]
#[derive(Default)]
pub enum Target {
    /// The dynamic baseline interpreter in one of the §5 environments; no
    /// compilation happens.
    Baseline(ExecMode),
    /// Compiled execution on a single core (the default). Whole-model
    /// artifacts run the compiled trial function — batched through
    /// `trials_batch` when the spec asks for `batch > 1`; per-node artifacts
    /// keep the scheduler outside the compiled code.
    #[default]
    SingleCore,
    /// Compiled execution with the controller's grid search split across OS
    /// threads (Fig. 5c, `mCPU`). The scheduler is driven per node so the
    /// grid phase can be extracted; models without a controller execute like
    /// a per-node single-core run.
    MultiCore {
        /// Worker thread count for the grid search.
        threads: usize,
    },
    /// Compiled execution with the grid search on the simulated SIMT GPU
    /// (Fig. 5c / Fig. 6); the run result carries the modelled
    /// [`distill_exec::GpuRunReport`].
    Gpu(GpuConfig),
}


/// Builder tying a model to compile-time knobs and an execution target.
///
/// ```
/// use distill::{RunSpec, Session, Target};
/// use distill_models::predator_prey_s;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let workload = predator_prey_s();
/// let mut runner = Session::new(&workload.model).build()?;
/// let result = runner.run(&RunSpec::new(workload.inputs.clone(), 2).with_batch(2))?;
/// assert_eq!(result.outputs.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Session {
    model: Composition,
    config: CompileConfig,
    target: Target,
    eval_budget: Option<u64>,
    /// Whether [`Session::tier`] chose `config.tier` (as opposed to it
    /// being the default): only then does it override a pre-compiled
    /// artifact's own tier in [`Session::build_with`].
    tier_set: bool,
}

impl Session {
    /// Start a session for `model` with the default compile configuration
    /// and the [`Target::SingleCore`] target.
    pub fn new(model: &Composition) -> Session {
        Session {
            model: model.clone(),
            config: CompileConfig::default(),
            target: Target::default(),
            eval_budget: None,
            tier_set: false,
        }
    }

    /// Select the execution target.
    #[must_use]
    pub fn target(mut self, target: Target) -> Session {
        self.target = target;
        self
    }

    /// Set the optimization level (Fig. 7's O0–O3).
    #[must_use]
    pub fn opt_level(mut self, level: OptLevel) -> Session {
        self.config.opt_level = level;
        self
    }

    /// Select per-node vs whole-model compilation (Fig. 5b).
    #[must_use]
    pub fn mode(mut self, mode: CompileMode) -> Session {
        self.config.mode = mode;
        self
    }

    /// Set the model seed (shared by compiled PRNG streams and the baseline).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Session {
        self.config.seed = seed;
        self
    }

    /// Set the batched entry point's capacity (trials per engine entry);
    /// `0` disables batched codegen.
    #[must_use]
    pub fn batch_capacity(mut self, capacity: usize) -> Session {
        self.config.batch_capacity = capacity;
        self
    }

    /// Select the execution tier the runner's engine uses — see
    /// [`distill_exec::TierPolicy`]. Defaults to the fused interpreter, or
    /// under [`Session::build_with`] to the tier the artifact was compiled
    /// for.
    ///
    /// The `DISTILL_TIER` environment override wins over an explicit
    /// policy: when the environment requests a tier, every runner of the
    /// process uses it regardless of this knob, so a whole A/B sweep can be
    /// forced without touching call sites.
    #[must_use]
    pub fn tier(mut self, policy: distill_exec::TierPolicy) -> Session {
        self.config.tier = policy;
        self.tier_set = true;
        self
    }

    /// Replace the whole compile configuration at once (including any
    /// earlier [`Session::tier`] choice).
    #[must_use]
    pub fn compile_config(mut self, config: CompileConfig) -> Session {
        self.config = config;
        self.tier_set = false;
        self
    }

    /// Budget (expression evaluations) for baseline targets; exceeding it
    /// fails the run with the paper's "did not finish" annotation. Ignored
    /// by compiled targets.
    #[must_use]
    pub fn eval_budget(mut self, budget: u64) -> Session {
        self.eval_budget = Some(budget);
        self
    }

    /// The model this session will run.
    pub fn model(&self) -> &Composition {
        &self.model
    }

    /// The compile configuration the session will use.
    pub fn config(&self) -> CompileConfig {
        self.config
    }

    /// Build the runner for the selected target.
    ///
    /// # Errors
    /// [`DistillError::Codegen`] when compilation fails (compiled targets
    /// only; baseline targets never compile).
    pub fn build(self) -> Result<Box<dyn Runner>, DistillError> {
        self.build_inner(None)
    }

    /// Build the runner for the selected target around a pre-compiled
    /// artifact, skipping compilation.
    ///
    /// The artifact must come from this session's model (e.g. [`compile`] or
    /// a previous runner's [`Runner::compiled`]); this is the reuse path for
    /// sweeps over run-time-only knobs such as [`Target::Gpu`]
    /// configurations, where recompiling identical IR per configuration
    /// would dominate. Baseline targets ignore the artifact. The runner
    /// executes on the artifact's own tier unless [`Session::tier`] was
    /// called (the tier is a run-time knob; codegen ignores it).
    ///
    /// # Errors
    /// Same surface as [`Session::build`].
    pub fn build_with(self, compiled: CompiledModel) -> Result<Box<dyn Runner>, DistillError> {
        self.build_inner(Some(compiled))
    }

    fn build_inner(
        self,
        artifact: Option<CompiledModel>,
    ) -> Result<Box<dyn Runner>, DistillError> {
        let grid = match self.target {
            Target::Baseline(mode) => {
                let mut runner = BaselineRunner::new(mode).with_seed(self.config.seed);
                runner.eval_budget = self.eval_budget;
                return Ok(Box::new(BaselineBackend {
                    model: self.model,
                    runner,
                }));
            }
            Target::SingleCore => GridStrategy::Serial,
            Target::MultiCore { threads } => GridStrategy::MultiCore { threads },
            Target::Gpu(config) => GridStrategy::Gpu(config),
        };
        // Parallel grid targets drive the scheduler per node — the grid
        // phase must live outside the compiled trial function — but codegen
        // itself runs as configured, so the artifact keeps its whole-model
        // entry points for anything else that inspects it.
        let compiled = match artifact {
            Some(mut compiled) => {
                if self.tier_set {
                    compiled.config.tier = self.config.tier;
                }
                compiled
            }
            None => compile(&self.model, self.config)?,
        };
        Ok(Box::new(CompiledBackend {
            driver: CompiledDriver::new(compiled, self.model),
            grid,
        }))
    }
}
