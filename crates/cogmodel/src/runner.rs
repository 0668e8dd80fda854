//! The baseline execution engine: PsyNeuLink's scheduler loop (Listing 1 of
//! the paper) interpreted over dynamic values in one of the four §5
//! environments.
//!
//! The structure deliberately mirrors the paper's description: an outer
//! trial loop reading one input per trial, an inner pass loop that asks
//! every node's activation condition whether it is ready and then executes
//! the ready nodes, a double-buffered current/previous output store, and —
//! when the model has an optimizing controller — an exhaustive grid search
//! over control allocations at the start of every trial. Execution switches
//! between this scheduling logic and the node computations on every single
//! node execution, which is precisely the overhead whole-model compilation
//! eliminates (§6.2).

use crate::composition::{Composition, CompositionError, Projection};
use crate::condition::TrialEndSpec;
use crate::mechanism::Framework;
use distill_pyvm::{DynValue, EvalContext, ExecMode, Interpreter, PyVmError, SplitMix64};
use std::collections::HashMap;
use std::fmt;

/// One trial's external input: one vector per input node, in
/// `Composition::input_nodes` order.
pub type TrialInput = Vec<Vec<f64>>;

/// Why a baseline run stopped without producing results.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The composition itself is malformed.
    Model(CompositionError),
    /// The dynamic interpreter failed (missing names, type errors).
    Vm(PyVmError),
    /// The environment cannot run a component of this framework
    /// ("PyTorch not supported" annotations in Fig. 4).
    UnsupportedFramework {
        /// The offending framework.
        framework: &'static str,
        /// The execution environment.
        mode: ExecMode,
    },
    /// The simulated tracing JIT ran out of memory ("Out of Memory"
    /// annotations in Fig. 4).
    OutOfMemory {
        /// Bytes of trace metadata at the point of failure.
        needed_bytes: usize,
    },
    /// The run exceeded its execution budget ("Python did not finish"
    /// annotation in Fig. 5a/5c).
    DidNotFinish {
        /// The configured budget in expression evaluations.
        budget: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Model(e) => write!(f, "{e}"),
            RunError::Vm(e) => write!(f, "{e}"),
            RunError::UnsupportedFramework { framework, mode } => {
                write!(f, "{mode} does not support {framework}")
            }
            RunError::OutOfMemory { needed_bytes } => {
                write!(f, "out of memory ({needed_bytes} bytes of trace metadata)")
            }
            RunError::DidNotFinish { budget } => {
                write!(f, "did not finish within {budget} expression evaluations")
            }
        }
    }
}

impl std::error::Error for RunError {}

impl From<CompositionError> for RunError {
    fn from(e: CompositionError) -> Self {
        RunError::Model(e)
    }
}

impl From<PyVmError> for RunError {
    fn from(e: PyVmError) -> Self {
        match e {
            PyVmError::OutOfMemory { needed_bytes, .. } => RunError::OutOfMemory { needed_bytes },
            other => RunError::Vm(other),
        }
    }
}

/// The outcome of a run attempt, preserving the paper's figure annotations.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// The run completed.
    Completed(RunResult),
    /// The run failed in a way Fig. 4 / Fig. 5 annotates.
    Failed(RunError),
}

/// Results of a completed baseline run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Per trial, the concatenated output-node values at trial end.
    pub outputs: Vec<Vec<f64>>,
    /// Per trial, how many passes the scheduler executed.
    pub passes: Vec<u64>,
    /// Total node executions across the run.
    pub node_executions: u64,
    /// Total controller grid evaluations across the run.
    pub controller_evaluations: u64,
    /// Total expression-node evaluations performed by the interpreter.
    pub expr_evaluations: u64,
}

/// The baseline runner for one execution environment.
#[derive(Debug, Clone)]
pub struct BaselineRunner {
    /// Which §5 environment to simulate.
    pub mode: ExecMode,
    /// Model-level seed: node PRNG streams and controller evaluation streams
    /// derive from it, identically to the compiled path.
    pub seed: u64,
    /// Optional budget on expression evaluations; exceeding it aborts the
    /// run with [`RunError::DidNotFinish`].
    pub eval_budget: Option<u64>,
    /// Optional override of the PyPy trace memory budget.
    pub trace_budget_bytes: Option<usize>,
}

impl BaselineRunner {
    /// A runner for the given mode with the default seed and no budget.
    pub fn new(mode: ExecMode) -> BaselineRunner {
        BaselineRunner {
            mode,
            seed: 0xD15_711,
            eval_budget: None,
            trace_budget_bytes: None,
        }
    }

    /// Set the model seed.
    pub fn with_seed(mut self, seed: u64) -> BaselineRunner {
        self.seed = seed;
        self
    }

    /// Set the execution budget.
    pub fn with_eval_budget(mut self, budget: u64) -> BaselineRunner {
        self.eval_budget = Some(budget);
        self
    }

    /// Run `trials` trials of the model, cycling through `inputs`.
    ///
    /// # Errors
    /// Returns a [`RunError`] on malformed models, unsupported frameworks,
    /// simulated out-of-memory, exceeded budgets or interpreter failures.
    pub fn run(
        &self,
        model: &Composition,
        inputs: &[TrialInput],
        trials: usize,
    ) -> Result<RunResult, RunError> {
        model.validate()?;
        if model.uses_framework(Framework::PyTorch) && !self.mode.supports_pytorch() {
            return Err(RunError::UnsupportedFramework {
                framework: "PyTorch",
                mode: self.mode,
            });
        }
        if inputs.is_empty() {
            return Err(RunError::Model(CompositionError(
                "no trial inputs provided".into(),
            )));
        }

        let mut interp = Interpreter::new(self.mode);
        if let Some(b) = self.trace_budget_bytes {
            interp.trace_budget_bytes = b;
        }
        let topo = model.topological_order()?;
        let incoming = model.incoming();

        // Mutable copies of parameter dictionaries (the controller writes
        // chosen allocations into them) and of state dictionaries.
        let mut params: Vec<DynValue> = model.mechanisms.iter().map(|m| m.params_dict()).collect();
        let init_state: Vec<DynValue> = model.mechanisms.iter().map(|m| m.state_dict()).collect();
        let mut state = init_state.clone();

        // One PRNG stream per node, derived at the start of every trial from
        // `(seed, trial, node)` so trials are independent random-access
        // units (compiled drivers rely on this to shard the trial space).
        // The placeholder states are overwritten before any draw.
        let mut node_rngs: Vec<SplitMix64> = vec![SplitMix64::new(0); model.mechanisms.len()];

        let shapes: Vec<Vec<usize>> = model
            .mechanisms
            .iter()
            .map(|m| m.output_sizes.clone())
            .collect();
        let zero_buffers = || -> Vec<Vec<Vec<f64>>> {
            shapes
                .iter()
                .map(|ports| ports.iter().map(|&s| vec![0.0; s]).collect())
                .collect()
        };

        let mut result = RunResult {
            outputs: Vec::with_capacity(trials),
            passes: Vec::with_capacity(trials),
            node_executions: 0,
            controller_evaluations: 0,
            expr_evaluations: 0,
        };

        for trial in 0..trials {
            let input = &inputs[trial % inputs.len()];
            if model.reset_state_each_trial {
                state = init_state.clone();
            }
            for (node, rng) in node_rngs.iter_mut().enumerate() {
                *rng = SplitMix64::trial_node_stream(self.seed, trial as u64, node as u64);
            }
            let mut prev = zero_buffers();
            let mut cur = zero_buffers();
            let mut calls = vec![0u64; model.mechanisms.len()];

            // ---- controller grid search (start of trial) ------------------
            if let Some(ctrl) = &model.controller {
                let grid = ctrl.grid_size();
                let mut reservoir =
                    crate::controller::ReservoirArgmin::new(self.seed ^ trial as u64);
                for g in 0..grid {
                    let allocation = ctrl.allocation(g);
                    // Streams are indexed by grid point (not by trial), so a
                    // given evaluation draws the same numbers in every trial
                    // and in every backend (§3.6 reproducibility).
                    let objective = self.evaluate_allocation(
                        model,
                        &topo,
                        &incoming,
                        &params,
                        &init_state,
                        input,
                        &allocation,
                        ctrl,
                        g as u64,
                        &mut interp,
                    )?;
                    let cost = ctrl.total_cost(objective, &allocation);
                    reservoir.offer(g, cost);
                    result.controller_evaluations += 1;
                    self.check_budget(&interp, &result)?;
                }
                // Commit the winning allocation to the live parameters.
                let best = ctrl.allocation(reservoir.best_index());
                for (sig, level) in ctrl.signals.iter().zip(&best) {
                    apply_allocation(&mut params[sig.node], &sig.param, sig.index, *level);
                }
            }

            // ---- pass loop -----------------------------------------------
            let mut pass: u64 = 0;
            loop {
                let mut executed: Vec<bool> = vec![false; model.mechanisms.len()];
                for &node in &topo {
                    let m = &model.mechanisms[node];
                    if !m.condition.is_ready(pass, calls[node], &calls) {
                        continue;
                    }
                    let node_inputs =
                        gather_inputs(model, &incoming, node, input, &prev, &cur, &executed);
                    self.execute_node(
                        model,
                        node,
                        &node_inputs,
                        &params[node],
                        &mut state[node],
                        &mut node_rngs[node],
                        &mut cur,
                        &mut interp,
                    )?;
                    calls[node] += 1;
                    executed[node] = true;
                    result.node_executions += 1;
                }
                pass += 1;
                self.check_budget(&interp, &result)?;

                let done = match &model.trial_end {
                    TrialEndSpec::AfterNPasses(n) => pass >= *n,
                    TrialEndSpec::Threshold {
                        node,
                        port,
                        threshold,
                        max_passes,
                    } => {
                        let v = cur[*node][*port].first().copied().unwrap_or(0.0);
                        v.abs() >= *threshold || pass >= *max_passes
                    }
                };
                prev = cur.clone();
                if done {
                    break;
                }
            }

            // ---- record trial output -------------------------------------
            let mut out = Vec::new();
            for &o in &model.output_nodes {
                out.extend_from_slice(&cur[o][0]);
            }
            result.outputs.push(out);
            result.passes.push(pass);
        }
        result.expr_evaluations = interp.stats().ops;
        Ok(result)
    }

    /// Run the model attempt for `model.run(...)` but fold failures into a
    /// [`RunOutcome`] instead of an `Err`, which is how the figure harness
    /// records "OOM" / "not supported" / "did not finish" annotations.
    pub fn run_outcome(
        &self,
        model: &Composition,
        inputs: &[TrialInput],
        trials: usize,
    ) -> RunOutcome {
        match self.run(model, inputs, trials) {
            Ok(r) => RunOutcome::Completed(r),
            Err(e) => RunOutcome::Failed(e),
        }
    }

    fn check_budget(&self, interp: &Interpreter, result: &RunResult) -> Result<(), RunError> {
        let _ = result;
        if let Some(budget) = self.eval_budget {
            if interp.stats().ops > budget {
                return Err(RunError::DidNotFinish { budget });
            }
        }
        Ok(())
    }

    /// Evaluate one controller allocation: a single pass over all nodes on
    /// scratch state, with the allocation applied and an evaluation-specific
    /// PRNG stream (§3.6), returning the objective node's output.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_allocation(
        &self,
        model: &Composition,
        topo: &[usize],
        incoming: &HashMap<(usize, usize), Vec<Projection>>,
        params: &[DynValue],
        init_state: &[DynValue],
        input: &TrialInput,
        allocation: &[f64],
        ctrl: &crate::controller::Controller,
        eval_index: u64,
        interp: &mut Interpreter,
    ) -> Result<f64, RunError> {
        // Thread-local copies of the read-write structures (§3.3, §3.6).
        let mut scratch_params: Vec<DynValue> = params.to_vec();
        for (sig, level) in ctrl.signals.iter().zip(allocation) {
            apply_allocation(&mut scratch_params[sig.node], &sig.param, sig.index, *level);
        }
        let mut scratch_state: Vec<DynValue> = init_state.to_vec();
        let mut rng = SplitMix64::stream_for(ctrl.seed, eval_index);

        let shapes: Vec<Vec<usize>> = model
            .mechanisms
            .iter()
            .map(|m| m.output_sizes.clone())
            .collect();
        let prev: Vec<Vec<Vec<f64>>> = shapes
            .iter()
            .map(|ports| ports.iter().map(|&s| vec![0.0; s]).collect())
            .collect();
        let mut cur = prev.clone();
        let mut executed = vec![false; model.mechanisms.len()];

        for &node in topo {
            let node_inputs = gather_inputs(model, incoming, node, input, &prev, &cur, &executed);
            self.execute_node(
                model,
                node,
                &node_inputs,
                &scratch_params[node],
                &mut scratch_state[node],
                &mut rng,
                &mut cur,
                interp,
            )?;
            executed[node] = true;
        }
        Ok(cur[ctrl.objective_node][ctrl.objective_port]
            .first()
            .copied()
            .unwrap_or(0.0))
    }

    /// Execute one node: evaluate each output element and then the state
    /// updates, writing results into the current-pass buffer.
    #[allow(clippy::too_many_arguments)]
    fn execute_node(
        &self,
        model: &Composition,
        node: usize,
        node_inputs: &[DynValue],
        params: &DynValue,
        state: &mut DynValue,
        rng: &mut SplitMix64,
        cur: &mut [Vec<Vec<f64>>],
        interp: &mut Interpreter,
    ) -> Result<(), RunError> {
        let m = &model.mechanisms[node];
        for (port, exprs) in m.computation.outputs.iter().enumerate() {
            for (elem, e) in exprs.iter().enumerate() {
                let mut ctx = EvalContext {
                    inputs: node_inputs,
                    params,
                    state,
                    rng,
                    cache_key: Some((node, port * 1024 + elem)),
                };
                let v = interp.eval(e, &mut ctx)?;
                cur[node][port][elem] = v;
            }
        }
        // State updates read pre-update state, then commit.
        let mut pending = Vec::with_capacity(m.computation.state_updates.len());
        for (name, index, e) in &m.computation.state_updates {
            let mut ctx = EvalContext {
                inputs: node_inputs,
                params,
                state,
                rng,
                cache_key: Some((node, 1 << 20)),
            };
            let v = interp.eval(e, &mut ctx)?;
            pending.push((name.clone(), *index, v));
        }
        for (name, index, v) in pending {
            let mut ctx = EvalContext {
                inputs: node_inputs,
                params,
                state,
                rng,
                cache_key: None,
            };
            interp.store_state(&mut ctx, &name, index, v)?;
        }
        Ok(())
    }
}

/// Write a control allocation level into a node's parameter dictionary.
fn apply_allocation(params: &mut DynValue, name: &str, index: usize, level: f64) {
    if let Some(entry) = params.get_mut(name) {
        if let Some(slot) = entry.index_mut(index) {
            *slot = DynValue::Float(level);
        } else if index == 0 {
            *entry = DynValue::Float(level);
        }
    }
}

/// Assemble a node's boxed input port values from external inputs and
/// incoming projections (feed-forward edges read the current pass when the
/// source already executed, feedback edges always read the previous pass).
fn gather_inputs(
    model: &Composition,
    incoming: &HashMap<(usize, usize), Vec<Projection>>,
    node: usize,
    external: &TrialInput,
    prev: &[Vec<Vec<f64>>],
    cur: &[Vec<Vec<f64>>],
    executed: &[bool],
) -> Vec<DynValue> {
    let m = &model.mechanisms[node];
    let mut ports: Vec<Vec<f64>> = m.input_sizes.iter().map(|&s| vec![0.0; s]).collect();
    // External trial input lands on input port 0 of designated input nodes.
    if let Some(pos) = model.input_nodes.iter().position(|&i| i == node) {
        if let (Some(port0), Some(ext)) = (ports.get_mut(0), external.get(pos)) {
            for (dst, src) in port0.iter_mut().zip(ext) {
                *dst = *src;
            }
        }
    }
    for (port_idx, port) in ports.iter_mut().enumerate() {
        if let Some(projs) = incoming.get(&(node, port_idx)) {
            for p in projs {
                let source = if p.feedback || !executed[p.from_node] {
                    &prev[p.from_node][p.from_port]
                } else {
                    &cur[p.from_node][p.from_port]
                };
                for (i, v) in source.iter().enumerate() {
                    if let Some(slot) = port.get_mut(p.to_offset + i) {
                        *slot = *v;
                    }
                }
            }
        }
    }
    ports.into_iter().map(|p| DynValue::vector(&p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composition::Composition;
    use crate::condition::TrialEndSpec;
    use crate::controller::{ControlSignal, Controller};
    use crate::functions::{ddm_integrator, gaussian_observer, identity, linear, logistic};
    use crate::nn::{build_mlp, MlpSpec};

    fn chain_model() -> Composition {
        let mut c = Composition::new("chain");
        let a = c.add(identity("in", 2));
        let b = c.add(linear("double", 2, 2.0, 0.0));
        let d = c.add(logistic("squash", 2, 1.0, 0.0));
        c.connect(a, 0, b, 0, 0);
        c.connect(b, 0, d, 0, 0);
        c.input_nodes = vec![a];
        c.output_nodes = vec![d];
        c
    }

    #[test]
    fn feedforward_chain_computes_expected_values() {
        let model = chain_model();
        let runner = BaselineRunner::new(ExecMode::CPython);
        let r = runner
            .run(&model, &[vec![vec![0.0, 1.0]]], 1)
            .expect("run succeeds");
        assert_eq!(r.outputs.len(), 1);
        let out = &r.outputs[0];
        // logistic(2*0) = 0.5, logistic(2*1) = 1/(1+e^-2)
        assert!((out[0] - 0.5).abs() < 1e-12);
        assert!((out[1] - 1.0 / (1.0 + (-2.0f64).exp())).abs() < 1e-12);
        assert_eq!(r.passes, vec![1]);
        assert_eq!(r.node_executions, 3);
    }

    #[test]
    fn all_modes_agree_on_deterministic_models() {
        let model = chain_model();
        let inputs = vec![vec![vec![0.3, -0.7]]];
        let reference = BaselineRunner::new(ExecMode::CPython)
            .run(&model, &inputs, 2)
            .unwrap();
        for mode in [ExecMode::Pyston, ExecMode::PyPy, ExecMode::PyPyNoJit] {
            let r = BaselineRunner::new(mode).run(&model, &inputs, 2).unwrap();
            assert_eq!(r.outputs, reference.outputs, "mode {mode}");
        }
    }

    #[test]
    fn ddm_trial_ends_at_threshold() {
        let mut c = Composition::new("ddm");
        let stim = c.add(identity("stim", 1));
        let ddm = c.add(ddm_integrator("ddm", 1.0, 0.0, 0.125, 0.0));
        c.connect(stim, 0, ddm, 0, 0);
        c.input_nodes = vec![stim];
        c.output_nodes = vec![ddm];
        c.reset_state_each_trial = true;
        c.trial_end = TrialEndSpec::Threshold {
            node: ddm,
            port: 0,
            threshold: 1.0,
            max_passes: 1000,
        };
        let runner = BaselineRunner::new(ExecMode::CPython);
        let r = runner.run(&c, &[vec![vec![1.0]]], 1).unwrap();
        // rate*stim*dt = 0.125 per pass (exactly representable), threshold
        // 1.0 → 8 passes.
        assert_eq!(r.passes, vec![8]);
        assert!((r.outputs[0][0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn controller_grid_search_picks_low_cost_allocation() {
        // An observer whose noise shrinks with attention feeds an objective
        // that rewards accurate observation; with zero attention cost, the
        // controller should pick the highest attention level.
        let mut c = Composition::new("ctrl");
        let stim = c.add(identity("stim", 1));
        let obs = c.add(gaussian_observer("obs", 1, 1.0, 0.99));
        // Objective: negative squared error between observation and truth.
        let err = {
            use distill_pyvm::Expr as E;
            let diff = E::sub(E::input_elem(0, 0), E::input_elem(1, 0));
            crate::mechanism::Mechanism::new(
                "objective",
                crate::mechanism::NodeComputation::scalar(E::Neg(Box::new(E::mul(
                    diff.clone(),
                    diff,
                )))),
            )
            .with_inputs(vec![1, 1])
        };
        let obj = c.add(err);
        c.connect(stim, 0, obs, 0, 0);
        c.connect(obs, 0, obj, 0, 0);
        c.connect(stim, 0, obj, 1, 0);
        c.input_nodes = vec![stim];
        c.output_nodes = vec![obj];
        c.controller = Some(Controller {
            signals: vec![ControlSignal {
                node: obs,
                param: "attention".into(),
                index: 0,
                levels: vec![0.0, 0.5, 1.0],
                cost_coeff: 0.0,
            }],
            objective_node: obj,
            objective_port: 0,
            seed: 3,
        });
        let runner = BaselineRunner::new(ExecMode::CPython);
        let r = runner.run(&c, &[vec![vec![2.0]]], 1).unwrap();
        assert_eq!(r.controller_evaluations, 3);
        // With attention = 1.0 the observation noise is tiny, so the final
        // objective (squared error) should be near zero.
        assert!(r.outputs[0][0] > -0.1, "objective {}", r.outputs[0][0]);
    }

    #[test]
    fn pytorch_models_rejected_by_jit_modes() {
        let mut c = Composition::new("nn");
        let input = c.add(identity("in", 2));
        let layers = build_mlp("net", &MlpSpec::new(vec![2, 2], false, 1));
        let l0 = c.add(layers[0].clone());
        c.connect(input, 0, l0, 0, 0);
        c.input_nodes = vec![input];
        c.output_nodes = vec![l0];
        for mode in [ExecMode::Pyston, ExecMode::PyPy, ExecMode::PyPyNoJit] {
            let err = BaselineRunner::new(mode)
                .run(&c, &[vec![vec![0.1, 0.2]]], 1)
                .unwrap_err();
            assert!(
                matches!(err, RunError::UnsupportedFramework { .. }),
                "{mode}"
            );
        }
        assert!(BaselineRunner::new(ExecMode::CPython)
            .run(&c, &[vec![vec![0.1, 0.2]]], 1)
            .is_ok());
    }

    #[test]
    fn eval_budget_reproduces_did_not_finish() {
        let model = chain_model();
        let runner = BaselineRunner::new(ExecMode::CPython).with_eval_budget(10);
        let err = runner
            .run(&model, &[vec![vec![0.0, 1.0]]], 100)
            .unwrap_err();
        assert!(matches!(err, RunError::DidNotFinish { .. }));
    }

    #[test]
    fn pypy_oom_reproduced_on_long_runs() {
        let model = chain_model();
        let mut runner = BaselineRunner::new(ExecMode::PyPy);
        runner.trace_budget_bytes = Some(50_000);
        let err = runner
            .run(&model, &[vec![vec![0.0, 1.0]]], 1000)
            .unwrap_err();
        assert!(matches!(err, RunError::OutOfMemory { .. }), "{err}");
        // CPython completes the same workload.
        assert!(BaselineRunner::new(ExecMode::CPython)
            .run(&model, &[vec![vec![0.0, 1.0]]], 1000)
            .is_ok());
    }

    #[test]
    fn run_outcome_wraps_failures() {
        let model = chain_model();
        let runner = BaselineRunner::new(ExecMode::CPython).with_eval_budget(1);
        match runner.run_outcome(&model, &[vec![vec![0.0, 1.0]]], 10) {
            RunOutcome::Failed(RunError::DidNotFinish { .. }) => {}
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn recurrent_feedback_uses_previous_pass_values() {
        use distill_pyvm::Expr as E;
        // Two nodes that copy each other's previous output; seeded by an
        // external input on the first node for pass 0 only.
        let mut c = Composition::new("pingpong");
        let a = c.add(
            crate::mechanism::Mechanism::new(
                "a",
                crate::mechanism::NodeComputation::scalar(E::add(
                    E::input_elem(0, 0),
                    E::input_elem(0, 1),
                )),
            )
            .with_inputs(vec![2]),
        );
        let b = c.add(
            crate::mechanism::Mechanism::new(
                "b",
                crate::mechanism::NodeComputation::scalar(E::input(0)),
            )
            .with_inputs(vec![1]),
        );
        c.connect(a, 0, b, 0, 0);
        c.connect_feedback(b, 0, a, 0, 1);
        c.input_nodes = vec![a];
        c.output_nodes = vec![a, b];
        c.trial_end = TrialEndSpec::AfterNPasses(3);
        let r = BaselineRunner::new(ExecMode::CPython)
            .run(&c, &[vec![vec![1.0, 0.0]]], 1)
            .unwrap();
        // pass0: a = 1 + prev(b)=0 = 1; b = a = 1
        // pass1: a = 1 + prev(b)=1 = 2; b = 2
        // pass2: a = 1 + 2 = 3; b = 3
        assert_eq!(r.outputs[0], vec![3.0, 3.0]);
    }
}
