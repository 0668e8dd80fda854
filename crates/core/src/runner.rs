//! The unified execution contract: [`RunSpec`] in, [`RunResult`] out,
//! whatever the backend.
//!
//! Every execution target — the dynamic baseline interpreter, the compiled
//! whole-model and per-node drivers, the multicore grid-search driver and
//! the simulated GPU — implements [`Runner`]. Backends are built from a
//! [`crate::Session`]; the trait object hides which backend is running so
//! benches, examples and tests can switch targets without changing the
//! driving code.

use crate::DistillError;
use distill_cogmodel::composition::TrialEnd;
use distill_cogmodel::runner::TrialInput;
use distill_cogmodel::{BaselineRunner, Composition};
use distill_codegen::global_names as gn;
use distill_codegen::CompiledModel;
use distill_exec::{
    gpu, mcpu, ChunkQueue, Engine, GpuConfig, GpuRunReport, GrabCount, ParallelResult, Value,
};
use distill_pyvm::SplitMix64;

/// What to execute: the trial inputs (cycled), how many trials, and how many
/// trials a compiled backend may run per engine entry.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// One external input per trial, cycled when `trials > inputs.len()`.
    pub inputs: Vec<TrialInput>,
    /// Number of trials to execute.
    pub trials: usize,
    /// Trials per engine entry on compiled backends (`1` = re-enter the
    /// engine per trial). Backends without a batched path — the baseline
    /// interpreter, per-node drivers — execute trial-by-trial regardless;
    /// results are identical either way.
    pub batch: usize,
    /// Worker threads sharding the trial space on whole-model compiled
    /// backends (`1` = serial). Workers pull `batch`-sized chunks of trials
    /// from a work-stealing queue, each on its own engine copy; per-trial
    /// PRNG streams are derived from the trial index, so outputs are
    /// bit-identical to a serial run at any thread count. Backends without
    /// the sharded path — the baseline interpreter, per-node drivers, models
    /// whose state persists across trials — run serially regardless; results
    /// are identical either way.
    pub shards: usize,
    /// First absolute trial index of this run (default 0). A distributed
    /// worker holding a lease over `[offset, offset + trials)` of a larger
    /// trial space sets this so per-trial PRNG streams and input cycling are
    /// derived from the *global* trial index — the property that makes its
    /// outputs bitwise identical to the same window of a serial run. The
    /// baseline interpreter has no random-access trial path and rejects a
    /// non-zero offset.
    pub offset: usize,
}

impl RunSpec {
    /// A spec running `trials` trials with per-trial engine entry.
    pub fn new(inputs: Vec<TrialInput>, trials: usize) -> RunSpec {
        RunSpec {
            inputs,
            trials,
            batch: 1,
            shards: 1,
            offset: 0,
        }
    }

    /// Set the batch size (clamped to at least 1).
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> RunSpec {
        self.batch = batch.max(1);
        self
    }

    /// Set the trial-sharding worker count (clamped to at least 1).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> RunSpec {
        self.shards = shards.max(1);
        self
    }

    /// Set the first absolute trial index (for leased windows of a larger
    /// trial space — see the field docs).
    #[must_use]
    pub fn with_offset(mut self, offset: usize) -> RunSpec {
        self.offset = offset;
        self
    }
}

/// Statistics of a sharded trial run ([`RunSpec::with_shards`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardStats {
    /// Worker threads that drained the trial queue.
    pub threads: usize,
    /// Chunks the trial space was split into (one `trials_batch` call — or
    /// one per-trial loop — per chunk).
    pub chunks: usize,
    /// Trials per chunk (the effective batch size).
    pub batch: usize,
    /// Chunk grabs beyond each worker's first — the same redistribution
    /// measure the grid scheduler reports.
    pub steals: u64,
    /// Engine counters the shard workers accumulated (summed deltas), so
    /// sweep reports attribute work to the trial space that produced it
    /// rather than to engine lifetimes.
    pub stats: distill_exec::EngineStats,
}

impl ShardStats {
    /// Fold another shard's statistics into this one: additive counters
    /// (chunks, steals, engine stats) are summed; topology descriptors
    /// (threads, batch) take the maximum, since merged stats describe work
    /// drained by heterogeneous workers rather than one queue. This is how
    /// the distributed sweep coordinator accumulates per-lease stats into
    /// one sweep-level view.
    pub fn merge(&mut self, other: &ShardStats) {
        self.threads = self.threads.max(other.threads);
        self.batch = self.batch.max(other.batch);
        self.chunks += other.chunks;
        self.steals += other.steals;
        self.stats.add(&other.stats);
    }
}

/// Results of a run, uniform across backends.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Per trial, the concatenated output-node values at trial end.
    pub outputs: Vec<Vec<f64>>,
    /// Per trial, the number of scheduler passes executed.
    pub passes: Vec<u64>,
    /// Grid-search statistics of the last trial, when the multicore backend
    /// parallelized a controller's grid search.
    pub grid: Option<ParallelResult>,
    /// The simulated GPU's report for the last trial, when running on
    /// [`crate::Target::Gpu`].
    pub gpu: Option<GpuRunReport>,
    /// Shard statistics, when the run sharded its trial space across worker
    /// threads ([`RunSpec::with_shards`]).
    pub shards: Option<ShardStats>,
    /// Engine counters accumulated by **this run** (worker-thread deltas
    /// included): the per-run view of `EngineStats`, so harnesses attribute
    /// instructions, fusion rates and frame-pool traffic to the spec that
    /// produced them instead of reading engine-lifetime aggregates. Zero for
    /// baseline targets, which have no engine.
    pub stats: distill_exec::EngineStats,
}

impl RunResult {
    fn with_capacity(trials: usize) -> RunResult {
        RunResult {
            outputs: Vec::with_capacity(trials),
            passes: Vec::with_capacity(trials),
            grid: None,
            gpu: None,
            shards: None,
            stats: distill_exec::EngineStats::default(),
        }
    }
}

/// The single backend contract: execute a [`RunSpec`].
///
/// Obtain implementations through [`Session::build`](crate::Session::build).
pub trait Runner {
    /// Execute the spec.
    ///
    /// # Errors
    /// [`DistillError::Driver`] when the spec does not match the model (no
    /// inputs for a non-zero trial count, wrong input arity); backend errors
    /// otherwise.
    fn run(&mut self, spec: &RunSpec) -> Result<RunResult, DistillError>;

    /// A short human-readable label of the backend (e.g. `single-core`).
    fn target_label(&self) -> String;

    /// The compiled artifact driving this backend, when there is one.
    fn compiled(&self) -> Option<&CompiledModel> {
        None
    }

    /// The execution engine, when the backend has one.
    fn engine(&self) -> Option<&Engine> {
        None
    }
}

/// Validate a spec against the model before touching any engine memory:
/// empty inputs with a non-zero trial count and wrong-arity inputs are
/// driver errors, not panics or silent truncation.
pub(crate) fn validate_spec(model: &Composition, spec: &RunSpec) -> Result<(), DistillError> {
    if spec.trials > 0 && spec.inputs.is_empty() {
        return Err(DistillError::Driver(format!(
            "no trial inputs provided for a {}-trial run",
            spec.trials
        )));
    }
    for (t, input) in spec.inputs.iter().enumerate() {
        if input.len() != model.input_nodes.len() {
            return Err(DistillError::Driver(format!(
                "trial input {t} has {} port vectors but the model has {} input nodes",
                input.len(),
                model.input_nodes.len()
            )));
        }
        for (pos, values) in input.iter().enumerate() {
            let node = model.input_nodes[pos];
            let want = model.mechanisms[node]
                .input_sizes
                .first()
                .copied()
                .unwrap_or(0);
            if values.len() != want {
                return Err(DistillError::Driver(format!(
                    "trial input {t}, input node {} ({}): expected {} values, got {}",
                    node, model.mechanisms[node].name, want, values.len()
                )));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Baseline backend
// ---------------------------------------------------------------------------

/// The dynamic-interpreter backend ([`crate::Target::Baseline`]).
pub(crate) struct BaselineBackend {
    pub(crate) model: Composition,
    pub(crate) runner: BaselineRunner,
}

impl Runner for BaselineBackend {
    fn run(&mut self, spec: &RunSpec) -> Result<RunResult, DistillError> {
        validate_spec(&self.model, spec)?;
        if spec.offset > 0 {
            return Err(DistillError::Driver(
                "the baseline interpreter cannot run an offset trial window: it executes \
                 trials sequentially from 0 and has no random-access trial path"
                    .into(),
            ));
        }
        if spec.trials == 0 {
            return Ok(RunResult::with_capacity(0));
        }
        // The interpreter has no batched path; `spec.batch` is accepted (the
        // contract is uniform) and results are identical for any batch size.
        let r = self
            .runner
            .run(&self.model, &spec.inputs, spec.trials)
            .map_err(DistillError::Baseline)?;
        Ok(RunResult {
            outputs: r.outputs,
            passes: r.passes,
            grid: None,
            gpu: None,
            shards: None,
            stats: distill_exec::EngineStats::default(),
        })
    }

    fn target_label(&self) -> String {
        format!("baseline:{}", self.runner.mode)
    }
}

// ---------------------------------------------------------------------------
// Compiled backends
// ---------------------------------------------------------------------------

/// How a compiled backend executes a controller's grid search.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum GridStrategy {
    /// Inside the compiled trial function (whole-model) or as a serial
    /// driver loop (per-node).
    Serial,
    /// Split across OS threads via [`mcpu::parallel_argmin`].
    MultiCore {
        /// Worker thread count.
        threads: usize,
    },
    /// On the simulated SIMT GPU via [`gpu::run_grid`].
    Gpu(GpuConfig),
}

/// Shared driver of every compiled backend: owns the artifact, the source
/// model and the engine, and implements per-trial, batched and per-node
/// execution over them.
pub(crate) struct CompiledDriver {
    pub(crate) compiled: CompiledModel,
    pub(crate) model: Composition,
    pub(crate) engine: Engine,
}

impl CompiledDriver {
    pub(crate) fn new(compiled: CompiledModel, model: Composition) -> CompiledDriver {
        // The session's tier policy decides which execution form the engine
        // runs; a `DISTILL_TIER` environment request wins over it, so a
        // whole-process A/B can be forced without touching call sites.
        let policy = distill_exec::TierPolicy::from_env().unwrap_or(compiled.config.tier);
        let engine = Engine::with_config(
            compiled.module.clone(),
            distill_exec::ExecConfig { policy },
        );
        CompiledDriver {
            compiled,
            model,
            engine,
        }
    }

    /// Flatten every distinct trial input into the `ext_input` layout once,
    /// so per-trial (and per-batch) writes are a single memcpy-style global
    /// write instead of a re-flattening.
    fn flatten_inputs(&self, inputs: &[TrialInput]) -> Vec<Vec<f64>> {
        inputs
            .iter()
            .map(|input| {
                self.compiled
                    .layout
                    .flatten_input(&self.model.input_nodes, input)
            })
            .collect()
    }

    /// Run a spec with the given grid strategy. Whole-model artifacts with a
    /// serial grid run the compiled trial (batched when `spec.batch > 1`);
    /// everything else goes through the per-node driver, which keeps the
    /// scheduler and grid search outside the compiled code.
    pub(crate) fn run(
        &mut self,
        spec: &RunSpec,
        grid: &GridStrategy,
    ) -> Result<RunResult, DistillError> {
        // Snapshot the engine's counters so the result can report the
        // *per-run* delta (worker-thread deltas are absorbed into the
        // template engine before the run returns, so they are included).
        let base_stats = self.engine.stats();
        let mut span = distill_telemetry::span("run");
        span.arg_i64("trials", spec.trials as i64);
        span.arg_i64("shards", spec.shards as i64);
        let mut result = self.run_inner(spec, grid)?;
        drop(span);
        result.stats = self.engine.stats_since(&base_stats);
        if distill_telemetry::enabled() {
            mirror_run_stats(&result.stats);
        }
        Ok(result)
    }

    fn run_inner(
        &mut self,
        spec: &RunSpec,
        grid: &GridStrategy,
    ) -> Result<RunResult, DistillError> {
        validate_spec(&self.model, spec)?;
        if spec.trials == 0 {
            return Ok(RunResult::with_capacity(0));
        }
        let flats = self.flatten_inputs(&spec.inputs);
        match (self.compiled.trial_func, grid) {
            (Some(trial_fn), GridStrategy::Serial) => {
                // The sharded path requires trial independence: per-trial
                // PRNG streams always hold (trial prologue), but state that
                // persists across trials serializes them — such models fall
                // back to the (identical-output) serial path.
                if spec.shards > 1 && spec.trials > 1 && self.model.reset_state_each_trial {
                    self.run_sharded(spec, &flats, trial_fn)
                } else {
                    self.run_whole(spec, &flats, trial_fn)
                }
            }
            _ => self.run_per_node(spec, &flats, grid),
        }
    }

    /// Resolve the batched entry point for a spec: `Some` when the spec
    /// batches and the artifact was compiled with batch capacity, `None` for
    /// the per-trial path.
    ///
    /// # Errors
    /// A batching spec against an artifact without the entry point is a
    /// driver error.
    fn resolve_batch_fn(&self, spec: &RunSpec) -> Result<Option<distill_ir::FuncId>, DistillError> {
        if spec.batch > 1 && self.compiled.batch_capacity > 0 {
            Ok(Some(self.compiled.batch_func.ok_or_else(|| {
                DistillError::Driver("artifact has no batched entry point".into())
            })?))
        } else {
            Ok(None)
        }
    }

    /// Trials per chunk for a resolved batch mode: one `trials_batch` call
    /// per chunk when batching (capped by the staging capacity), the whole
    /// requested batch as a per-trial loop otherwise.
    fn chunk_trials(&self, spec: &RunSpec, batch_fn: Option<distill_ir::FuncId>) -> usize {
        match batch_fn {
            Some(_) => spec.batch.min(self.compiled.batch_capacity),
            None => spec.batch,
        }
        .max(1)
    }

    /// Whole-model execution: one compiled call per trial, or one per batch
    /// through the generated `trials_batch` entry point. Chunk execution is
    /// shared with the sharded path ([`run_trial_chunk`]), so the two can
    /// never drift apart.
    fn run_whole(
        &mut self,
        spec: &RunSpec,
        flats: &[Vec<f64>],
        trial_fn: distill_ir::FuncId,
    ) -> Result<RunResult, DistillError> {
        let mut result = RunResult::with_capacity(spec.trials);
        let batch_fn = self.resolve_batch_fn(spec)?;
        let chunk = self.chunk_trials(spec, batch_fn);
        let mut done = 0usize;
        while done < spec.trials {
            let n = chunk.min(spec.trials - done);
            let (outs, passes) = run_trial_chunk(
                &mut self.engine,
                &self.compiled.layout,
                batch_fn,
                trial_fn,
                flats,
                spec.offset + done,
                n,
            )?;
            result.outputs.extend(outs);
            result.passes.extend(passes);
            done += n;
        }
        Ok(result)
    }

    /// Sharded whole-model execution ([`RunSpec::with_shards`]): worker
    /// threads pull `batch`-sized chunks of the trial space from a
    /// work-stealing [`ChunkQueue`] — the same scheduling substrate as the
    /// multicore grid search, lifted from grid level to trial level. Each
    /// worker owns an engine copy (module and predecoded code shared behind
    /// `Arc`, only the memory image is cloned), stages its chunk through
    /// [`distill_codegen::Layout::stage_batch`] and runs it through the
    /// compiled `trials_batch` entry point (or trial-by-trial when the spec
    /// does not batch). Trial outputs depend only on the trial index and its
    /// input — the trial prologue re-derives PRNG streams per trial — so the
    /// stitched result is bit-identical to [`CompiledDriver::run_whole`] at
    /// any thread count and any schedule.
    fn run_sharded(
        &mut self,
        spec: &RunSpec,
        flats: &[Vec<f64>],
        trial_fn: distill_ir::FuncId,
    ) -> Result<RunResult, DistillError> {
        let batch_fn = self.resolve_batch_fn(spec)?;
        // Trials per chunk: one `trials_batch` call when batching, a
        // per-trial loop otherwise (grouping keeps queue traffic amortized
        // either way).
        let chunk = self.chunk_trials(spec, batch_fn);
        let n_chunks = spec.trials.div_ceil(chunk);
        let threads = spec.shards.min(n_chunks).max(1);
        let layout = &self.compiled.layout;
        // Chunks (not trials) are the queue's unit; balance the grab size so
        // a shared-counter RMW amortizes over many chunks on fine-grained
        // specs while skew can still redistribute (same policy as the grid
        // scheduler).
        let queue = ChunkQueue::balanced(n_chunks, threads, 8, 1024);

        type ChunkResult = (usize, Vec<Vec<f64>>, Vec<u64>);
        type WorkerResult = (Vec<ChunkResult>, u64, distill_exec::EngineStats);
        let worker_results: Vec<Result<WorkerResult, DistillError>> =
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for _ in 0..threads {
                    let queue = &queue;
                    // Thread-local copy of every read-write structure.
                    let mut engine = self.engine.clone();
                    handles.push(scope.spawn(move || {
                        let mut mine: Vec<ChunkResult> = Vec::new();
                        let mut grabs = GrabCount::default();
                        // Worker stats start from the template's snapshot;
                        // only the delta is this worker's own work.
                        let base_stats = engine.stats();
                        while let Some(range) = queue.grab() {
                            grabs.record();
                            for c in range {
                                let lo = c * chunk;
                                let n = chunk.min(spec.trials - lo);
                                let (outs, passes) = run_trial_chunk(
                                    &mut engine,
                                    layout,
                                    batch_fn,
                                    trial_fn,
                                    flats,
                                    spec.offset + lo,
                                    n,
                                )?;
                                mine.push((c, outs, passes));
                            }
                        }
                        Ok((mine, grabs.steals(), engine.stats_since(&base_stats)))
                    }));
                }
                handles
                    .into_iter()
                    .map(|h| {
                        // A panicking worker is a driver error, not a
                        // propagated unwind: the caller gets a typed
                        // `DistillError` and every other worker's handle is
                        // still joined (scope exit), so no thread leaks and
                        // no partial result is silently returned.
                        h.join().unwrap_or_else(|p| {
                            Err(DistillError::Driver(format!(
                                "shard worker panicked: {}",
                                distill_exec::panic_message(&*p)
                            )))
                        })
                    })
                    .collect()
            });

        // Stitch chunks back into trial order; every chunk arrives exactly
        // once (the queue partitions the index space).
        type ChunkOutput = (Vec<Vec<f64>>, Vec<u64>);
        let mut slots: Vec<Option<ChunkOutput>> = (0..n_chunks).map(|_| None).collect();
        let mut steals = 0u64;
        let mut worker_stats = distill_exec::EngineStats::default();
        for r in worker_results {
            let (mine, s, stats) = r?;
            steals += s;
            worker_stats.add(&stats);
            self.engine.absorb_stats(&stats);
            for (c, outs, passes) in mine {
                slots[c] = Some((outs, passes));
            }
        }
        // A lone worker draining the queue is self-scheduling, not stealing.
        if threads <= 1 {
            steals = 0;
        }
        self.engine.record_steals(steals);
        let mut result = RunResult::with_capacity(spec.trials);
        for slot in slots {
            let (outs, passes) = slot.expect("chunk executed");
            result.outputs.extend(outs);
            result.passes.extend(passes);
        }
        result.shards = Some(ShardStats {
            threads,
            chunks: n_chunks,
            batch: chunk,
            steals,
            stats: worker_stats,
        });
        Ok(result)
    }

    /// The per-node driver (Fig. 5b, `Distill-per-node`): node computations
    /// run compiled, but the scheduler — readiness checks, pass loop, double
    /// buffering, grid-search driving — stays outside the compiled code and
    /// crosses the engine boundary on every step. The grid search itself is
    /// pluggable: serial, multicore, or simulated GPU.
    fn run_per_node(
        &mut self,
        spec: &RunSpec,
        flats: &[Vec<f64>],
        grid: &GridStrategy,
    ) -> Result<RunResult, DistillError> {
        use distill_cogmodel::Condition;
        let layout = self.compiled.layout.clone();
        let node_funcs = self.compiled.node_funcs.clone();
        let topo = self
            .model
            .topological_order()
            .map_err(|e| DistillError::Driver(e.to_string()))?;
        let mut result = RunResult::with_capacity(spec.trials);
        for local in 0..spec.trials {
            // Absolute trial index: PRNG streams and input cycling key off
            // it, so an offset window reproduces the same slice of a full
            // serial run.
            let trial = spec.offset + local;
            self.engine
                .write_global_f64(gn::EXT_INPUT, &flats[trial % flats.len()])?;
            // Reset read-write structures, exactly like the trial prologue.
            let state_init = self.engine.read_global_f64(gn::STATE_INIT)?;
            if self.model.reset_state_each_trial {
                self.engine.write_global_f64(gn::STATE, &state_init)?;
            }
            let zeros = vec![0.0; layout.out_len.max(1)];
            self.engine.write_global_f64(gn::OUT_CUR, &zeros)?;
            self.engine.write_global_f64(gn::OUT_PREV, &zeros)?;
            for i in 0..self.model.mechanisms.len() {
                self.engine.write_global_i64(gn::COUNTERS, i, 0)?;
            }
            // Per-trial node PRNG streams, exactly like the compiled trial
            // prologue and the baseline runner.
            let seed = self.compiled.config.seed;
            for i in 0..self.model.mechanisms.len() {
                let stream = SplitMix64::trial_node_stream(seed, trial as u64, i as u64);
                self.engine
                    .write_global_i64(gn::RNG, i, stream.state as i64)?;
            }

            // Grid search driven from outside the compiled code.
            if let (Some(ctrl), Some(eval_fn)) = (&self.model.controller, self.compiled.eval_func)
            {
                let grid_size = ctrl.grid_size();
                let best_index = match grid {
                    GridStrategy::Serial => {
                        let mut best = (0usize, f64::INFINITY);
                        for g in 0..grid_size {
                            let cost = self
                                .engine
                                .call(eval_fn, &[Value::I64(g as i64)])?
                                .as_f64()
                                .unwrap_or(f64::INFINITY);
                            if cost < best.1 {
                                best = (g, cost);
                            }
                        }
                        best.0
                    }
                    GridStrategy::MultiCore { threads } => {
                        let r = mcpu::parallel_argmin(&self.engine, eval_fn, grid_size, *threads)?;
                        // Worker engines died with their threads; fold their
                        // counter deltas and the scheduler's steal count into
                        // the template engine.
                        self.engine.absorb_stats(&r.stats);
                        self.engine.record_steals(r.steals);
                        let best = r.best_index;
                        result.grid = Some(r);
                        best
                    }
                    GridStrategy::Gpu(config) => {
                        let r = gpu::run_grid(&self.engine, eval_fn, grid_size, config)?;
                        self.engine.absorb_stats(&r.stats);
                        let best = r.best_index;
                        result.gpu = Some(r);
                        best
                    }
                };
                let alloc = ctrl.allocation(best_index);
                let mut cur = self.engine.read_global_f64(gn::CTRL_PARAMS)?;
                for (s, level) in alloc.iter().enumerate() {
                    cur[s] = *level;
                }
                self.engine.write_global_f64(gn::CTRL_PARAMS, &cur)?;
            }

            // The pass loop, with a boundary crossing per node execution.
            let mut pass: u64 = 0;
            let mut calls = vec![0u64; self.model.mechanisms.len()];
            loop {
                for &node in &topo {
                    let ready = match &self.model.mechanisms[node].condition {
                        Condition::Always => true,
                        Condition::Never => false,
                        Condition::EveryNPasses(n) => *n != 0 && pass.is_multiple_of(*n),
                        Condition::AfterNCalls { node: other, n } => calls[*other] >= *n,
                        Condition::AtMostNCalls(n) => calls[node] < *n,
                    };
                    if !ready {
                        continue;
                    }
                    self.engine.call(node_funcs[node], &[])?;
                    calls[node] += 1;
                    self.engine
                        .write_global_i64(gn::COUNTERS, node, calls[node] as i64)?;
                }
                pass += 1;
                let cur = self.engine.read_global_f64(gn::OUT_CUR)?;
                self.engine.write_global_f64(gn::OUT_PREV, &cur)?;
                let done = match &self.model.trial_end {
                    TrialEnd::AfterNPasses(n) => pass >= *n,
                    TrialEnd::Threshold {
                        node,
                        port,
                        threshold,
                        max_passes,
                    } => {
                        let off = layout.out_offset(*node, *port, 0);
                        cur[off].abs() >= *threshold || pass >= *max_passes
                    }
                };
                if done {
                    break;
                }
            }
            let cur = self.engine.read_global_f64(gn::OUT_CUR)?;
            let mut out = Vec::new();
            for &o in &self.model.output_nodes {
                let size = self.model.mechanisms[o]
                    .output_sizes
                    .first()
                    .copied()
                    .unwrap_or(0);
                let base = layout.out_offset(o, 0, 0);
                out.extend_from_slice(&cur[base..base + size]);
            }
            result.outputs.push(out);
            result.passes.push(pass);
        }
        Ok(result)
    }

}

/// Execute one chunk of `n` consecutive trials starting at absolute trial
/// index `lo` on `engine`: through the `trials_batch` entry point when
/// `batch_fn` is resolved, trial-by-trial otherwise. Returns the chunk's
/// per-trial outputs and pass counts.
///
/// This is the *single* definition of compiled trial-chunk execution —
/// [`CompiledDriver::run_whole`] drives it over the template engine and
/// every sharded worker drives it over its own engine copy, which is what
/// keeps serial and sharded runs bit-identical by construction rather than
/// by parallel maintenance of two loops.
fn run_trial_chunk(
    engine: &mut Engine,
    layout: &distill_codegen::Layout,
    batch_fn: Option<distill_ir::FuncId>,
    trial_fn: distill_ir::FuncId,
    flats: &[Vec<f64>],
    lo: usize,
    n: usize,
) -> Result<(Vec<Vec<f64>>, Vec<u64>), DistillError> {
    let out_len = layout.trial_output_len;
    crate::chaos::chunk_delay();
    crate::chaos::check_panic_trial(lo, n);
    let mut outs = Vec::with_capacity(n);
    let mut passes = Vec::with_capacity(n);
    match batch_fn {
        Some(bf) => {
            // Stage the chunk's inputs in one global write.
            if layout.ext_len > 0 {
                let staging = layout.stage_batch(flats, lo, n);
                engine.write_global_f64(gn::BATCH_EXT, &staging)?;
            }
            engine.call(bf, &[Value::I64(lo as i64), Value::I64(n as i64)])?;
            // Read only the chunk's slots, one global read each.
            let o = engine.read_global_f64_prefix(gn::BATCH_OUT, n * out_len)?;
            let p = engine.read_global_f64_prefix(gn::BATCH_PASSES, n)?;
            for k in 0..n {
                outs.push(o[k * out_len..(k + 1) * out_len].to_vec());
                passes.push(p[k] as u64);
            }
        }
        None => {
            for t in lo..lo + n {
                engine.write_global_f64(gn::EXT_INPUT, &flats[t % flats.len()])?;
                engine.call(trial_fn, &[Value::I64(t as i64)])?;
                let out = engine.read_global_f64(gn::TRIAL_OUTPUT)?;
                outs.push(out[..out_len].to_vec());
                passes.push(engine.read_global_i64(gn::PASSES, 0)? as u64);
            }
        }
    }
    Ok((outs, passes))
}

/// Mirror a finished run's [`EngineStats`] delta into the global telemetry
/// registry, one `run.*` counter per stats field. Because the mirror adds
/// exactly [`RunResult::stats`], a registry snapshot taken before and after
/// a run reproduces the result's deltas — the equality the telemetry
/// integration tests pin down.
fn mirror_run_stats(stats: &distill_exec::EngineStats) {
    use distill_telemetry::Counter;
    use std::sync::OnceLock;
    struct RunProbes {
        instructions: &'static Counter,
        calls: &'static Counter,
        loads: &'static Counter,
        stores: &'static Counter,
        frame_pool_hits: &'static Counter,
        steals: &'static Counter,
        fused_ops: &'static Counter,
        frame_slots: &'static Counter,
        runs: &'static Counter,
    }
    static PROBES: OnceLock<RunProbes> = OnceLock::new();
    let p = PROBES.get_or_init(|| {
        let reg = distill_telemetry::registry();
        RunProbes {
            instructions: reg.counter("run.instructions"),
            calls: reg.counter("run.calls"),
            loads: reg.counter("run.loads"),
            stores: reg.counter("run.stores"),
            frame_pool_hits: reg.counter("run.frame_pool_hits"),
            steals: reg.counter("run.steals"),
            fused_ops: reg.counter("run.fused_ops"),
            frame_slots: reg.counter("run.frame_slots"),
            runs: reg.counter("run.completed"),
        }
    });
    p.instructions.add(stats.instructions);
    p.calls.add(stats.calls);
    p.loads.add(stats.loads);
    p.stores.add(stats.stores);
    p.frame_pool_hits.add(stats.frame_pool_hits);
    p.steals.add(stats.steals);
    p.fused_ops.add(stats.fused_ops);
    p.frame_slots.add(stats.frame_slots);
    p.runs.inc();
}

/// A compiled backend: the driver plus the grid strategy the target selects.
pub(crate) struct CompiledBackend {
    pub(crate) driver: CompiledDriver,
    pub(crate) grid: GridStrategy,
}

impl Runner for CompiledBackend {
    fn run(&mut self, spec: &RunSpec) -> Result<RunResult, DistillError> {
        self.driver.run(spec, &self.grid)
    }

    fn target_label(&self) -> String {
        match &self.grid {
            GridStrategy::Serial => "single-core".into(),
            GridStrategy::MultiCore { threads } => format!("multi-core:{threads}"),
            GridStrategy::Gpu(_) => "gpu".into(),
        }
    }

    fn compiled(&self) -> Option<&CompiledModel> {
        Some(&self.driver.compiled)
    }

    fn engine(&self) -> Option<&Engine> {
        Some(&self.driver.engine)
    }
}
