//! `distill-codegen` — the Distill frontend: lowering cognitive models to IR.
//!
//! This crate implements §3 of the paper:
//!
//! * **Type and shape extraction** (§3.1) — the composition's sanitization
//!   run ([`distill_cogmodel::Composition::sanitize`]) yields every port,
//!   parameter and state shape; [`Layout`] turns them into statically-sized
//!   structures.
//! * **Dynamic → static data structure conversion** (§3.3) — node outputs go
//!   into double-buffered `out_cur` / `out_prev` globals, read-only
//!   parameters into an immutable `params_ro` global, read-write state and
//!   controlled parameters into mutable globals, trial inputs/outputs into
//!   flat arrays, and string keys become compile-time offsets (the "enums"
//!   of the paper).
//! * **Code generation** (§3.4) — every mechanism's scalarized computation
//!   (including components from other frameworks, e.g. the PyTorch MLP of
//!   the Multitasking model) is lowered to one IR function per node, plus an
//!   *evaluation variant* used by the controller's grid search, a
//!   `grid_eval(index)` kernel, and — in whole-model mode — a `trial(n)`
//!   function containing the scheduler loop, condition checks, the grid
//!   search and the double-buffer swap.
//! * **Per-node vs model-wide compilation** (§6.2, Fig. 5b) —
//!   [`CompileMode::PerNode`] stops at node functions (the scheduler stays
//!   outside the compiled code), [`CompileMode::WholeModel`] compiles the
//!   entire trial and lets the optimizer inline across node and scheduler
//!   boundaries.
//! * **Parallelism extraction** (§3.6) — the `grid_eval` kernel derives a
//!   per-evaluation PRNG stream from its index, so `distill-exec`'s
//!   multicore and GPU backends can split the grid freely while drawing the
//!   same random numbers as the sequential baseline.

use distill_cogmodel::{Composition, Controller};
use distill_ir::{
    Constant, FuncId, FunctionBuilder, GlobalId, Module, Ty, ValueId,
};
use distill_opt::{OptLevel, PassManager, PassStats};
use distill_pyvm::{CmpOp, Expr, MathFn, NumBinOp};
use std::collections::HashMap;
use std::fmt;

/// How much of the model is compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompileMode {
    /// Compile node functions only; scheduling stays outside the compiled
    /// code (the `CPython-Distill-per-node` configuration of Fig. 5b).
    PerNode,
    /// Compile the entire trial — scheduler, conditions, controller grid
    /// search and nodes — into one optimizable unit (default Distill).
    #[default]
    WholeModel,
}

/// Compilation options.
///
/// Equality compares every knob; the serving-side artifact cache keys on it
/// (via `distill::artifact_key`), so two configs compare equal exactly when
/// they can share one compiled artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileConfig {
    /// Per-node vs whole-model compilation.
    pub mode: CompileMode,
    /// Optimization level applied after code generation (Fig. 7).
    pub opt_level: OptLevel,
    /// Model seed; must match the baseline runner's seed for bit-identical
    /// stochastic results.
    pub seed: u64,
    /// Capacity (in trials) of the batched entry point's staging buffers.
    /// Whole-model compilation emits a `trials_batch(start, count)` function
    /// that executes up to this many trials per engine entry; drivers chunk
    /// larger batch requests. `0` disables the batched entry point.
    pub batch_capacity: usize,
    /// Which execution tier the engine runs the compiled module on — see
    /// [`distill_exec::TierPolicy`]. Defaults to the fused interpreter;
    /// `Fixed(Tier::Decoded)` is the unfused A/B baseline,
    /// `Fixed(Tier::Threaded)` the direct-threaded dispatcher. Codegen
    /// itself ignores the knob — it rides along so drivers construct their engines
    /// accordingly (the `DISTILL_TIER` environment override still wins at
    /// engine construction).
    pub tier: distill_exec::TierPolicy,
}

impl Default for CompileConfig {
    fn default() -> Self {
        CompileConfig {
            mode: CompileMode::WholeModel,
            opt_level: OptLevel::O2,
            seed: 0xD15_711,
            batch_capacity: 64,
            tier: distill_exec::TierPolicy::default(),
        }
    }
}

/// Codegen failures.
#[derive(Debug, Clone, PartialEq)]
pub struct CodegenError(pub String);

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codegen error: {}", self.0)
    }
}

impl std::error::Error for CodegenError {}

/// Where every model entity lives in the generated module's globals
/// ("strings become enums", §3.3).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layout {
    /// Offset of `(node, param name)` within `params_ro`.
    pub param_offsets: HashMap<(usize, String), usize>,
    /// Total read-only parameter slots.
    pub params_len: usize,
    /// `(node, param, element)` → control-signal index for controlled
    /// parameters (these live in `ctrl_params` / `eval_ctrl`).
    pub controlled: HashMap<(usize, String, usize), usize>,
    /// Offset of `(node, state name)` within `state` / `state_init` /
    /// `eval_state`.
    pub state_offsets: HashMap<(usize, String), usize>,
    /// Total state slots.
    pub state_len: usize,
    /// Offset of `(node, port)` element 0 within `out_cur` / `out_prev` /
    /// `eval_out`.
    pub out_offsets: Vec<Vec<usize>>,
    /// Total output slots.
    pub out_len: usize,
    /// Offset of each input node's external input within `ext_input`.
    pub ext_offsets: HashMap<usize, usize>,
    /// Total external input slots.
    pub ext_len: usize,
    /// Total trial output slots.
    pub trial_output_len: usize,
}

impl Layout {
    fn build(model: &Composition) -> Layout {
        let mut l = Layout::default();
        let controlled: HashMap<(usize, String, usize), usize> = model
            .controller
            .as_ref()
            .map(|c| {
                c.signals
                    .iter()
                    .enumerate()
                    .map(|(i, s)| ((s.node, s.param.clone(), s.index), i))
                    .collect()
            })
            .unwrap_or_default();
        l.controlled = controlled;
        for (i, m) in model.mechanisms.iter().enumerate() {
            for (name, values) in &m.params {
                l.param_offsets.insert((i, name.clone()), l.params_len);
                l.params_len += values.len();
            }
            for (name, values) in &m.state {
                l.state_offsets.insert((i, name.clone()), l.state_len);
                l.state_len += values.len();
            }
            let mut ports = Vec::new();
            for size in &m.output_sizes {
                ports.push(l.out_len);
                l.out_len += size;
            }
            l.out_offsets.push(ports);
        }
        for &node in &model.input_nodes {
            l.ext_offsets.insert(node, l.ext_len);
            l.ext_len += model.mechanisms[node].input_sizes.first().copied().unwrap_or(0);
        }
        l.trial_output_len = model
            .output_nodes
            .iter()
            .map(|&n| model.mechanisms[n].output_sizes.first().copied().unwrap_or(0))
            .sum();
        l
    }

    /// Offset of output element `(node, port, index)` in the output buffers.
    pub fn out_offset(&self, node: usize, port: usize, index: usize) -> usize {
        self.out_offsets[node][port] + index
    }

    /// Flatten one trial's external input (one value vector per input node,
    /// in `input_nodes` order) into the `ext_input` buffer layout: a
    /// zero-filled vector of `ext_len.max(1)` slots with each input node's
    /// values copied to its offset. The single definition the drivers,
    /// benches and differential tests all share — anything that stages
    /// inputs by hand must match what compiled code reads.
    pub fn flatten_input(&self, input_nodes: &[usize], input: &[Vec<f64>]) -> Vec<f64> {
        let mut flat = vec![0.0; self.ext_len.max(1)];
        for (pos, values) in input.iter().enumerate() {
            if let Some(&node) = input_nodes.get(pos) {
                if let Some(&off) = self.ext_offsets.get(&node) {
                    flat[off..off + values.len()].copy_from_slice(values);
                }
            }
        }
        flat
    }

    /// Build the `batch_ext` staging image for `count` trials starting at
    /// absolute trial index `start`: trial `start + k`'s flattened input
    /// (cycled through `flats`) lands at stride `ext_len * k`, matching what
    /// the generated `trials_batch(start, count)` entry point copies into
    /// `ext_input` per iteration. One definition serves every driver that
    /// stages a batch — the serial batched path and each worker of the
    /// sharded multicore path stage chunks identically, which is what keeps
    /// their outputs bit-identical.
    pub fn stage_batch(&self, flats: &[Vec<f64>], start: usize, count: usize) -> Vec<f64> {
        let stride = self.ext_len;
        let mut staging = vec![0.0; count * stride];
        if stride == 0 || flats.is_empty() {
            return staging;
        }
        for k in 0..count {
            let flat = &flats[(start + k) % flats.len()];
            staging[k * stride..(k + 1) * stride].copy_from_slice(&flat[..stride]);
        }
        staging
    }

    /// A reusable [`StagingBuffer`] sized for `capacity` trials of this
    /// layout's external-input stride.
    pub fn staging_buffer(&self, capacity: usize) -> StagingBuffer {
        let stride = self.ext_len;
        StagingBuffer {
            stride,
            capacity,
            bufs: [vec![0.0; capacity * stride], vec![0.0; capacity * stride]],
            staged: [0, 0],
            front: 0,
        }
    }
}

/// A double-buffered, allocation-free handle for `batch_ext` staging images.
///
/// [`Layout::stage_batch`] allocates a fresh image per chunk; a long-lived
/// driver that stages thousands of chunks (the serving scheduler) instead
/// keeps one `StagingBuffer` per worker and rotates two fixed buffers:
/// [`StagingBuffer::stage`] writes the *next* chunk's image into the back
/// buffer while the previously [published](StagingBuffer::publish) front
/// image is still live (being copied into an engine's `batch_ext` global or
/// read by in-flight bookkeeping), and `publish` then flips the pair. The
/// staged bytes are identical to `stage_batch`'s — same cycling of `flats`
/// by absolute trial index — so drivers switching to the reusable handle
/// keep bit-identical results.
#[derive(Debug, Clone)]
pub struct StagingBuffer {
    stride: usize,
    capacity: usize,
    bufs: [Vec<f64>; 2],
    staged: [usize; 2],
    front: usize,
}

impl StagingBuffer {
    /// Trials the buffers can hold per staging.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Slots per trial (the layout's `ext_len`).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Stage `count` trials starting at absolute trial index `start` into
    /// the back buffer, leaving the front image untouched.
    ///
    /// # Panics
    /// Panics when `count` exceeds the capacity.
    pub fn stage(&mut self, flats: &[Vec<f64>], start: usize, count: usize) {
        assert!(
            count <= self.capacity,
            "staging {count} trials into a buffer of capacity {}",
            self.capacity
        );
        let back = 1 - self.front;
        let stride = self.stride;
        self.staged[back] = count * stride;
        if stride == 0 {
            return;
        }
        let buf = &mut self.bufs[back];
        if flats.is_empty() {
            buf[..count * stride].fill(0.0);
            return;
        }
        for k in 0..count {
            let flat = &flats[(start + k) % flats.len()];
            buf[k * stride..(k + 1) * stride].copy_from_slice(&flat[..stride]);
        }
    }

    /// Flip the pair: the staged back buffer becomes the front image and is
    /// returned.
    pub fn publish(&mut self) -> &[f64] {
        self.front = 1 - self.front;
        self.front_image()
    }

    /// The most recently published image.
    pub fn front_image(&self) -> &[f64] {
        &self.bufs[self.front][..self.staged[self.front]]
    }
}

/// The product of compilation: the IR module, the layout, and handles to the
/// generated functions.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    /// The generated (and optimized) module.
    pub module: Module,
    /// Data layout used by drivers to exchange inputs/outputs with the
    /// engine.
    pub layout: Layout,
    /// One function per node (trial variant), indexed like the composition.
    pub node_funcs: Vec<FuncId>,
    /// The whole-trial function (whole-model mode only); takes the trial
    /// index as its single `i64` parameter.
    pub trial_func: Option<FuncId>,
    /// The batched entry point `trials_batch(start, count)` (whole-model mode
    /// with a non-zero [`CompileConfig::batch_capacity`]): runs `count`
    /// consecutive trials starting at trial index `start` without leaving
    /// compiled code, reading per-trial inputs from the `batch_ext` staging
    /// global and writing per-trial outputs/pass counts to `batch_out` /
    /// `batch_passes`.
    pub batch_func: Option<FuncId>,
    /// Trials the batched staging buffers can hold per engine entry.
    pub batch_capacity: usize,
    /// The grid-evaluation kernel `grid_eval(index) -> cost`, present when
    /// the model has a controller.
    pub eval_func: Option<FuncId>,
    /// Grid size of the controller (0 when there is none).
    pub grid_size: usize,
    /// Optimization statistics (Fig. 7's "compilation" component uses the
    /// change counts as its work measure).
    pub opt_stats: PassStats,
    /// Compile configuration used.
    pub config: CompileConfig,
}

/// Names of the well-known globals the drivers interact with.
pub mod global_names {
    /// Read-only parameters.
    pub const PARAMS_RO: &str = "params_ro";
    /// Committed control allocation.
    pub const CTRL_PARAMS: &str = "ctrl_params";
    /// Read-write state.
    pub const STATE: &str = "state";
    /// Immutable copy of the initial state (per-trial reset source).
    pub const STATE_INIT: &str = "state_init";
    /// Current-pass node outputs.
    pub const OUT_CUR: &str = "out_cur";
    /// Previous-pass node outputs.
    pub const OUT_PREV: &str = "out_prev";
    /// External trial input.
    pub const EXT_INPUT: &str = "ext_input";
    /// Trial outputs (concatenated output-node port 0 values).
    pub const TRIAL_OUTPUT: &str = "trial_output";
    /// Per-node PRNG states.
    pub const RNG: &str = "rng";
    /// Per-node execution counters (this trial).
    pub const COUNTERS: &str = "counters";
    /// Number of passes executed by the last trial.
    pub const PASSES: &str = "passes";
    /// Scratch state for controller evaluations.
    pub const EVAL_STATE: &str = "eval_state";
    /// Scratch outputs for controller evaluations.
    pub const EVAL_OUT: &str = "eval_out";
    /// PRNG state for the current controller evaluation.
    pub const EVAL_RNG: &str = "eval_rng";
    /// Candidate allocation for the current controller evaluation.
    pub const EVAL_CTRL: &str = "eval_ctrl";
    /// Tie-breaking PRNG state for the reservoir argmin.
    pub const TIEBREAK_RNG: &str = "tiebreak_rng";
    /// Staging area for batched execution: `batch_capacity` consecutive
    /// trials' external inputs, laid out as `trial-in-batch * ext_len`.
    pub const BATCH_EXT: &str = "batch_ext";
    /// Batched per-trial outputs: `trial-in-batch * trial_output_len`.
    pub const BATCH_OUT: &str = "batch_out";
    /// Batched per-trial scheduler pass counts.
    pub const BATCH_PASSES: &str = "batch_passes";
}

struct Globals {
    params_ro: GlobalId,
    ctrl_params: GlobalId,
    state: GlobalId,
    state_init: GlobalId,
    out_cur: GlobalId,
    out_prev: GlobalId,
    ext_input: GlobalId,
    trial_output: GlobalId,
    rng: GlobalId,
    counters: GlobalId,
    passes: GlobalId,
    eval_state: GlobalId,
    eval_out: GlobalId,
    eval_rng: GlobalId,
    eval_ctrl: GlobalId,
    tiebreak_rng: GlobalId,
    batch_ext: GlobalId,
    batch_out: GlobalId,
    batch_passes: GlobalId,
    levels: Vec<GlobalId>,
    global_tys: Vec<Ty>,
}

/// Which memory a generated function binds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// The real trial: persistent state, per-node PRNG streams, double
    /// buffer.
    Trial,
    /// A controller evaluation: scratch state/outputs, per-evaluation PRNG,
    /// candidate allocation, feedback edges read zeros.
    Eval,
}

/// Compile a composition.
///
/// # Errors
/// Returns a [`CodegenError`] if the model fails sanitization or refers to
/// shapes the lowering cannot resolve.
pub fn compile(model: &Composition, config: CompileConfig) -> Result<CompiledModel, CodegenError> {
    let shape_info = model
        .sanitize()
        .map_err(|e| CodegenError(format!("sanitization failed: {e}")))?;
    let _ = shape_info;
    let layout = Layout::build(model);
    let mut module = Module::new(format!("distill_{}", model.name));
    // Batch staging buffers only exist where a batched entry point will: in
    // whole-model mode with a non-zero capacity (per-node artifacts get
    // 1-slot placeholders so the engine carries no dead buffer memory).
    let effective_batch_capacity = if config.mode == CompileMode::WholeModel {
        config.batch_capacity
    } else {
        0
    };
    let globals = declare_globals(&mut module, model, &layout, effective_batch_capacity);

    // --- node functions (both variants) ------------------------------------
    let mut node_funcs = Vec::with_capacity(model.mechanisms.len());
    let mut eval_node_funcs = Vec::with_capacity(model.mechanisms.len());
    for i in 0..model.mechanisms.len() {
        node_funcs.push(gen_node_fn(&mut module, model, &layout, &globals, i, Variant::Trial)?);
    }
    for i in 0..model.mechanisms.len() {
        eval_node_funcs.push(gen_node_fn(&mut module, model, &layout, &globals, i, Variant::Eval)?);
    }

    // --- grid evaluation kernel --------------------------------------------
    let (eval_func, grid_size) = if let Some(ctrl) = &model.controller {
        let f = gen_grid_eval(&mut module, model, &layout, &globals, ctrl, &eval_node_funcs)?;
        (Some(f), ctrl.grid_size())
    } else {
        (None, 0)
    };

    // --- whole-trial function ----------------------------------------------
    let trial_func = if config.mode == CompileMode::WholeModel {
        Some(gen_trial_fn(
            &mut module,
            model,
            &layout,
            &globals,
            &node_funcs,
            eval_func,
            config.seed,
        )?)
    } else {
        None
    };

    // --- batched entry point -----------------------------------------------
    let batch_func = match trial_func {
        Some(trial_fid) if config.batch_capacity > 0 => Some(gen_batch_fn(
            &mut module,
            &layout,
            &globals,
            trial_fid,
        )?),
        _ => None,
    };

    distill_ir::verify::verify_module(&module)
        .map_err(|e| CodegenError(format!("generated IR failed verification: {e}")))?;

    // --- optimization (Fig. 7's O0–O3) -------------------------------------
    let opt_stats = PassManager::new(config.opt_level).run(&mut module);
    distill_ir::verify::verify_module(&module)
        .map_err(|e| CodegenError(format!("optimized IR failed verification: {e}")))?;

    Ok(CompiledModel {
        module,
        layout,
        node_funcs,
        trial_func,
        batch_func,
        batch_capacity: if batch_func.is_some() {
            config.batch_capacity
        } else {
            0
        },
        eval_func,
        grid_size,
        opt_stats,
        config,
    })
}

fn declare_globals(
    module: &mut Module,
    model: &Composition,
    layout: &Layout,
    batch_capacity: usize,
) -> Globals {
    let f64_arr = |n: usize| Ty::array(Ty::F64, n.max(1));
    let i64_arr = |n: usize| Ty::array(Ty::I64, n.max(1));
    let n_nodes = model.mechanisms.len();
    let n_signals = model
        .controller
        .as_ref()
        .map(|c| c.signals.len())
        .unwrap_or(0);

    // Read-only parameters with their model values as the initializer.
    let mut params_init = vec![Constant::F64(0.0); layout.params_len.max(1)];
    for (i, m) in model.mechanisms.iter().enumerate() {
        for (name, values) in &m.params {
            let base = layout.param_offsets[&(i, name.clone())];
            for (k, v) in values.iter().enumerate() {
                params_init[base + k] = Constant::F64(*v);
            }
        }
    }
    let params_ro = module.add_global(
        global_names::PARAMS_RO,
        f64_arr(layout.params_len),
        params_init.clone(),
        false,
    );

    let mut state_init_vals = vec![Constant::F64(0.0); layout.state_len.max(1)];
    for (i, m) in model.mechanisms.iter().enumerate() {
        for (name, values) in &m.state {
            let base = layout.state_offsets[&(i, name.clone())];
            for (k, v) in values.iter().enumerate() {
                state_init_vals[base + k] = Constant::F64(*v);
            }
        }
    }
    let state = module.add_global(
        global_names::STATE,
        f64_arr(layout.state_len),
        state_init_vals.clone(),
        true,
    );
    let state_init = module.add_global(
        global_names::STATE_INIT,
        f64_arr(layout.state_len),
        state_init_vals.clone(),
        false,
    );
    let eval_state = module.add_global(
        global_names::EVAL_STATE,
        f64_arr(layout.state_len),
        state_init_vals,
        true,
    );

    let ctrl_params =
        module.add_zeroed_global(global_names::CTRL_PARAMS, f64_arr(n_signals), true);
    let eval_ctrl = module.add_zeroed_global(global_names::EVAL_CTRL, f64_arr(n_signals), true);
    let out_cur = module.add_zeroed_global(global_names::OUT_CUR, f64_arr(layout.out_len), true);
    let out_prev = module.add_zeroed_global(global_names::OUT_PREV, f64_arr(layout.out_len), true);
    let eval_out = module.add_zeroed_global(global_names::EVAL_OUT, f64_arr(layout.out_len), true);
    let ext_input =
        module.add_zeroed_global(global_names::EXT_INPUT, f64_arr(layout.ext_len), true);
    let trial_output = module.add_zeroed_global(
        global_names::TRIAL_OUTPUT,
        f64_arr(layout.trial_output_len),
        true,
    );

    // Per-node PRNG state slots. No seeded initializer: every execution
    // path — the trial prologue, the batched entry point (which calls it),
    // and the per-node driver — derives the streams from (seed, trial,
    // node) before any draw, exactly like the baseline runner.
    let rng = module.add_zeroed_global(global_names::RNG, i64_arr(n_nodes), true);
    let counters = module.add_zeroed_global(global_names::COUNTERS, i64_arr(n_nodes), true);
    let passes = module.add_zeroed_global(global_names::PASSES, i64_arr(1), true);
    let eval_rng = module.add_zeroed_global(global_names::EVAL_RNG, i64_arr(1), true);
    let tiebreak_rng = module.add_zeroed_global(global_names::TIEBREAK_RNG, i64_arr(1), true);

    // Staging buffers for the batched entry point. Sized by the compile-time
    // batch capacity; drivers chunk longer runs into capacity-sized batches.
    let batch_ext = module.add_zeroed_global(
        global_names::BATCH_EXT,
        f64_arr(batch_capacity * layout.ext_len),
        true,
    );
    let batch_out = module.add_zeroed_global(
        global_names::BATCH_OUT,
        f64_arr(batch_capacity * layout.trial_output_len),
        true,
    );
    let batch_passes =
        module.add_zeroed_global(global_names::BATCH_PASSES, i64_arr(batch_capacity), true);

    // Per-signal constant level tables.
    let mut levels = Vec::new();
    if let Some(ctrl) = &model.controller {
        for (s, sig) in ctrl.signals.iter().enumerate() {
            let init: Vec<Constant> = sig.levels.iter().map(|v| Constant::F64(*v)).collect();
            let g = module.add_global(
                format!("levels_{s}"),
                Ty::array(Ty::F64, sig.levels.len().max(1)),
                if init.is_empty() {
                    vec![Constant::F64(0.0)]
                } else {
                    init
                },
                false,
            );
            levels.push(g);
        }
    }

    let global_tys: Vec<Ty> = module.globals.iter().map(|g| g.ty.clone()).collect();
    Globals {
        params_ro,
        ctrl_params,
        state,
        state_init,
        out_cur,
        out_prev,
        ext_input,
        trial_output,
        rng,
        counters,
        passes,
        eval_state,
        eval_out,
        eval_rng,
        eval_ctrl,
        tiebreak_rng,
        batch_ext,
        batch_out,
        batch_passes,
        levels,
        global_tys,
    }
}

/// How one input element of a node is fed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InputSource {
    /// External trial input at this offset of `ext_input`.
    External(usize),
    /// Output element of another node; `prev` selects the previous-pass
    /// buffer (feedback edges).
    Output {
        node: usize,
        port: usize,
        index: usize,
        prev: bool,
    },
    /// Nothing feeds this element.
    Zero,
}

/// Resolve every input element of `node` to its source, mirroring the
/// baseline runner's `gather_inputs` (projections override external input,
/// later projections override earlier ones).
fn resolve_inputs(model: &Composition, layout: &Layout, node: usize) -> Vec<Vec<InputSource>> {
    let m = &model.mechanisms[node];
    let mut ports: Vec<Vec<InputSource>> = m
        .input_sizes
        .iter()
        .map(|&s| vec![InputSource::Zero; s])
        .collect();
    if let Some(pos) = model.input_nodes.iter().position(|&i| i == node) {
        let _ = pos;
        if let Some(base) = layout.ext_offsets.get(&node) {
            if let Some(port0) = ports.get_mut(0) {
                for (i, slot) in port0.iter_mut().enumerate() {
                    *slot = InputSource::External(base + i);
                }
            }
        }
    }
    for p in &model.projections {
        if p.to_node != node {
            continue;
        }
        let src_size = model.mechanisms[p.from_node].output_sizes[p.from_port];
        if let Some(port) = ports.get_mut(p.to_port) {
            for i in 0..src_size {
                if let Some(slot) = port.get_mut(p.to_offset + i) {
                    *slot = InputSource::Output {
                        node: p.from_node,
                        port: p.from_port,
                        index: i,
                        prev: p.feedback,
                    };
                }
            }
        }
    }
    ports
}

struct LowerCtx<'a> {
    layout: &'a Layout,
    globals: &'a Globals,
    node: usize,
    variant: Variant,
    inputs: Vec<Vec<InputSource>>,
}

impl LowerCtx<'_> {
    fn load_array_elem(&self, b: &mut FunctionBuilder<'_>, global: GlobalId, offset: usize) -> ValueId {
        let base = b.global_addr(global);
        let p = b.const_elem_addr(base, offset);
        b.load(p)
    }

    fn store_array_elem(
        &self,
        b: &mut FunctionBuilder<'_>,
        global: GlobalId,
        offset: usize,
        value: ValueId,
    ) {
        let base = b.global_addr(global);
        let p = b.const_elem_addr(base, offset);
        b.store(p, value);
    }

    fn rng_ptr(&self, b: &mut FunctionBuilder<'_>) -> ValueId {
        match self.variant {
            Variant::Trial => {
                let base = b.global_addr(self.globals.rng);
                b.const_elem_addr(base, self.node)
            }
            Variant::Eval => {
                let base = b.global_addr(self.globals.eval_rng);
                b.const_elem_addr(base, 0)
            }
        }
    }

    fn state_global(&self) -> GlobalId {
        match self.variant {
            Variant::Trial => self.globals.state,
            Variant::Eval => self.globals.eval_state,
        }
    }

    fn out_global(&self) -> GlobalId {
        match self.variant {
            Variant::Trial => self.globals.out_cur,
            Variant::Eval => self.globals.eval_out,
        }
    }

    fn lower(&self, b: &mut FunctionBuilder<'_>, expr: &Expr) -> Result<ValueId, CodegenError> {
        Ok(match expr {
            Expr::Const(v) => b.const_f64(*v),
            Expr::Input { port, index } => {
                let src = self
                    .inputs
                    .get(*port)
                    .and_then(|p| p.get(*index))
                    .copied()
                    .ok_or_else(|| {
                        CodegenError(format!(
                            "node {} reads input [{port}][{index}] outside its declared shape",
                            self.node
                        ))
                    })?;
                match src {
                    InputSource::Zero => b.const_f64(0.0),
                    InputSource::External(off) => {
                        self.load_array_elem(b, self.globals.ext_input, off)
                    }
                    InputSource::Output {
                        node,
                        port,
                        index,
                        prev,
                    } => {
                        let offset = self.layout.out_offset(node, port, index);
                        match (self.variant, prev) {
                            (Variant::Trial, false) => {
                                self.load_array_elem(b, self.globals.out_cur, offset)
                            }
                            (Variant::Trial, true) => {
                                self.load_array_elem(b, self.globals.out_prev, offset)
                            }
                            (Variant::Eval, false) => {
                                self.load_array_elem(b, self.globals.eval_out, offset)
                            }
                            // Evaluations run a single pass: feedback edges
                            // see the zero-initialized previous state.
                            (Variant::Eval, true) => b.const_f64(0.0),
                        }
                    }
                }
            }
            Expr::Param { name, index } => {
                if let Some(&sig) = self
                    .layout
                    .controlled
                    .get(&(self.node, name.clone(), *index))
                {
                    let g = match self.variant {
                        Variant::Trial => self.globals.ctrl_params,
                        Variant::Eval => self.globals.eval_ctrl,
                    };
                    self.load_array_elem(b, g, sig)
                } else {
                    let base = self
                        .layout
                        .param_offsets
                        .get(&(self.node, name.clone()))
                        .copied()
                        .ok_or_else(|| {
                            CodegenError(format!("unknown parameter {name} on node {}", self.node))
                        })?;
                    self.load_array_elem(b, self.globals.params_ro, base + index)
                }
            }
            Expr::State { name, index } => {
                let base = self
                    .layout
                    .state_offsets
                    .get(&(self.node, name.clone()))
                    .copied()
                    .ok_or_else(|| {
                        CodegenError(format!("unknown state {name} on node {}", self.node))
                    })?;
                self.load_array_elem(b, self.state_global(), base + index)
            }
            Expr::Bin(op, x, y) => {
                let a = self.lower(b, x)?;
                let c = self.lower(b, y)?;
                match op {
                    NumBinOp::Add => b.fadd(a, c),
                    NumBinOp::Sub => b.fsub(a, c),
                    NumBinOp::Mul => b.fmul(a, c),
                    NumBinOp::Div => b.fdiv(a, c),
                }
            }
            Expr::Neg(x) => {
                let a = self.lower(b, x)?;
                b.fneg(a)
            }
            Expr::Cmp(op, x, y) => {
                let a = self.lower(b, x)?;
                let c = self.lower(b, y)?;
                let pred = match op {
                    CmpOp::Lt => distill_ir::CmpPred::FLt,
                    CmpOp::Le => distill_ir::CmpPred::FLe,
                    CmpOp::Gt => distill_ir::CmpPred::FGt,
                    CmpOp::Ge => distill_ir::CmpPred::FGe,
                    CmpOp::Eq => distill_ir::CmpPred::FEq,
                    CmpOp::Ne => distill_ir::CmpPred::FNe,
                };
                let flag = b.cmp(pred, a, c);
                let one = b.const_f64(1.0);
                let zero = b.const_f64(0.0);
                b.select(flag, one, zero)
            }
            Expr::If(c, t, e) => {
                let cond_val = self.lower(b, c)?;
                let zero = b.const_f64(0.0);
                let flag = b.cmp(distill_ir::CmpPred::FNe, cond_val, zero);
                if t.uses_rng() || e.uses_rng() {
                    // Branch so that only the taken arm draws random numbers,
                    // matching the baseline interpreter's evaluation order.
                    let then_blk = b.create_block("if.then");
                    let else_blk = b.create_block("if.else");
                    let join = b.create_block("if.join");
                    b.cond_br(flag, then_blk, else_blk);
                    b.switch_to_block(then_blk);
                    let tv = self.lower(b, t)?;
                    let then_end = b.current_block();
                    b.br(join);
                    b.switch_to_block(else_blk);
                    let ev = self.lower(b, e)?;
                    let else_end = b.current_block();
                    b.br(join);
                    b.switch_to_block(join);
                    b.phi(Ty::F64, vec![(then_end, tv), (else_end, ev)])
                } else {
                    let tv = self.lower(b, t)?;
                    let ev = self.lower(b, e)?;
                    b.select(flag, tv, ev)
                }
            }
            Expr::Call(m, args) => {
                let vals: Result<Vec<ValueId>, CodegenError> =
                    args.iter().map(|a| self.lower(b, a)).collect();
                let vals = vals?;
                let intr = match m {
                    MathFn::Exp => distill_ir::Intrinsic::Exp,
                    MathFn::Log => distill_ir::Intrinsic::Log,
                    MathFn::Sqrt => distill_ir::Intrinsic::Sqrt,
                    MathFn::Tanh => distill_ir::Intrinsic::Tanh,
                    MathFn::Abs => distill_ir::Intrinsic::FAbs,
                    MathFn::Min => distill_ir::Intrinsic::FMin,
                    MathFn::Max => distill_ir::Intrinsic::FMax,
                    MathFn::Pow => distill_ir::Intrinsic::Pow,
                    MathFn::Floor => distill_ir::Intrinsic::Floor,
                };
                b.intrinsic(intr, vals)
            }
            Expr::RandNormal => {
                let ptr = self.rng_ptr(b);
                b.intrinsic(distill_ir::Intrinsic::RandNormal, vec![ptr])
            }
            Expr::RandUniform => {
                let ptr = self.rng_ptr(b);
                b.intrinsic(distill_ir::Intrinsic::RandUniform, vec![ptr])
            }
        })
    }
}

/// Generate one node function (either variant).
fn gen_node_fn(
    module: &mut Module,
    model: &Composition,
    layout: &Layout,
    globals: &Globals,
    node: usize,
    variant: Variant,
) -> Result<FuncId, CodegenError> {
    let m = &model.mechanisms[node];
    let prefix = match variant {
        Variant::Trial => "node",
        Variant::Eval => "eval_node",
    };
    let fid = module.declare_function(format!("{prefix}_{}_{}", node, m.name), vec![], Ty::Void);
    let global_tys = globals.global_tys.clone();
    let computation = m.computation.clone();
    let cx = LowerCtx {
        layout,
        globals,
        node,
        variant,
        inputs: resolve_inputs(model, layout, node),
    };
    let func = module.function_mut(fid);
    let mut b = FunctionBuilder::new(func).with_global_types(global_tys);
    let entry = b.create_block("entry");
    b.switch_to_block(entry);

    // Outputs: evaluate and store in port/element order (the same order the
    // baseline interpreter uses, so PRNG draws line up).
    for (port, exprs) in computation.outputs.iter().enumerate() {
        for (elem, e) in exprs.iter().enumerate() {
            let v = cx.lower(&mut b, e)?;
            let offset = layout.out_offset(node, port, elem);
            cx.store_array_elem(&mut b, cx.out_global(), offset, v);
        }
    }
    // State updates: compute all values first (reading pre-update state),
    // then commit.
    let mut pending = Vec::new();
    for (name, index, e) in &computation.state_updates {
        let v = cx.lower(&mut b, e)?;
        let base = layout
            .state_offsets
            .get(&(node, name.clone()))
            .copied()
            .ok_or_else(|| CodegenError(format!("unknown state {name} on node {node}")))?;
        pending.push((base + index, v));
    }
    for (offset, v) in pending {
        cx.store_array_elem(&mut b, cx.state_global(), offset, v);
    }
    b.ret(None);
    Ok(fid)
}

/// Emit IR computing `SplitMix64::stream_for(seed, index).state`: one
/// splitmix64 step of `seed ^ index * 0xA0761D6478BD642F`. Shared by the
/// grid-evaluation kernel (per-evaluation streams) and the trial prologue
/// (per-trial node streams); both must mirror the host implementation in
/// `distill_pyvm::SplitMix64` bit-for-bit, so the derivation lives in one
/// place.
fn emit_stream_for(b: &mut FunctionBuilder<'_>, seed: u64, index: ValueId) -> ValueId {
    let mix_const = b.const_i64(0xA076_1D64_78BD_642Fu64 as i64);
    let seed_const = b.const_i64(seed as i64);
    let mixed = b.imul(index, mix_const);
    let state0 = b.bin(distill_ir::BinOp::Xor, seed_const, mixed);
    let golden = b.const_i64(0x9E37_79B9_7F4A_7C15u64 as i64);
    let s1 = b.iadd(state0, golden);
    let sh30 = b.const_i64(30);
    let sh27 = b.const_i64(27);
    let sh31 = b.const_i64(31);
    let c1 = b.const_i64(0xBF58_476D_1CE4_E5B9u64 as i64);
    let c2 = b.const_i64(0x94D0_49BB_1331_11EBu64 as i64);
    let z1 = b.bin(distill_ir::BinOp::LShr, s1, sh30);
    let z1x = b.bin(distill_ir::BinOp::Xor, s1, z1);
    let z1m = b.imul(z1x, c1);
    let z2 = b.bin(distill_ir::BinOp::LShr, z1m, sh27);
    let z2x = b.bin(distill_ir::BinOp::Xor, z1m, z2);
    let z2m = b.imul(z2x, c2);
    let z3 = b.bin(distill_ir::BinOp::LShr, z2m, sh31);
    b.bin(distill_ir::BinOp::Xor, z2m, z3)
}

/// Generate `grid_eval(index) -> cost` (§3.6).
fn gen_grid_eval(
    module: &mut Module,
    model: &Composition,
    layout: &Layout,
    globals: &Globals,
    ctrl: &Controller,
    eval_node_funcs: &[FuncId],
) -> Result<FuncId, CodegenError> {
    let topo = model
        .topological_order()
        .map_err(|e| CodegenError(e.to_string()))?;
    let fid = module.declare_function("grid_eval", vec![Ty::I64], Ty::F64);
    let sigs: Vec<(Vec<Ty>, Ty)> = module
        .functions
        .iter()
        .map(|f| (f.params.clone(), f.ret_ty.clone()))
        .collect();
    let global_tys = globals.global_tys.clone();
    let ctrl = ctrl.clone();
    let func = module.function_mut(fid);
    let mut b = FunctionBuilder::new(func)
        .with_global_types(global_tys)
        .with_signatures(sigs);
    let entry = b.create_block("entry");
    b.switch_to_block(entry);
    let index = b.param(0);

    // ---- derive the per-evaluation PRNG stream ----------------------------
    let stream = emit_stream_for(&mut b, ctrl.seed, index);
    let eval_rng_base = b.global_addr(globals.eval_rng);
    let eval_rng_ptr = b.const_elem_addr(eval_rng_base, 0);
    b.store(eval_rng_ptr, stream);

    // ---- reset scratch state and outputs ----------------------------------
    for i in 0..layout.state_len {
        let init_base = b.global_addr(globals.state_init);
        let ip = b.const_elem_addr(init_base, i);
        let v = b.load(ip);
        let sbase = b.global_addr(globals.eval_state);
        let sp = b.const_elem_addr(sbase, i);
        b.store(sp, v);
    }
    let zero = b.const_f64(0.0);
    for i in 0..layout.out_len {
        let obase = b.global_addr(globals.eval_out);
        let op = b.const_elem_addr(obase, i);
        b.store(op, zero);
    }

    // ---- decode the allocation --------------------------------------------
    let mut level_values = Vec::new();
    let mut stride = 1usize;
    for (s, sig) in ctrl.signals.iter().enumerate() {
        let n = sig.levels.len().max(1);
        let stride_c = b.const_i64(stride as i64);
        let n_c = b.const_i64(n as i64);
        let q = b.sdiv(index, stride_c);
        let idx = b.srem(q, n_c);
        let lbase = b.global_addr(globals.levels[s]);
        let lp = b.elem_addr(lbase, idx);
        let level = b.load(lp);
        let cbase = b.global_addr(globals.eval_ctrl);
        let cp = b.const_elem_addr(cbase, s);
        b.store(cp, level);
        level_values.push(level);
        stride *= n;
    }

    // ---- run one pass of every node ---------------------------------------
    for &n in &topo {
        b.call(eval_node_funcs[n], vec![]);
    }

    // ---- cost = -objective + Σ cost_coeff · level --------------------------
    let obj_offset = layout.out_offset(ctrl.objective_node, ctrl.objective_port, 0);
    let obase = b.global_addr(globals.eval_out);
    let op = b.const_elem_addr(obase, obj_offset);
    let objective = b.load(op);
    let mut cost = b.fneg(objective);
    for (sig, level) in ctrl.signals.iter().zip(&level_values) {
        let coeff = b.const_f64(sig.cost_coeff);
        let term = b.fmul(coeff, *level);
        cost = b.fadd(cost, term);
    }
    b.ret(Some(cost));
    Ok(fid)
}

/// Generate the whole-trial function `trial(trial_index)` (§3.5, §6.2).
#[allow(clippy::too_many_arguments)]
fn gen_trial_fn(
    module: &mut Module,
    model: &Composition,
    layout: &Layout,
    globals: &Globals,
    node_funcs: &[FuncId],
    eval_func: Option<FuncId>,
    seed: u64,
) -> Result<FuncId, CodegenError> {
    use distill_cogmodel::Condition;
    use distill_cogmodel::composition::TrialEnd;

    let topo = model
        .topological_order()
        .map_err(|e| CodegenError(e.to_string()))?;
    let fid = module.declare_function("trial", vec![Ty::I64], Ty::Void);
    let sigs: Vec<(Vec<Ty>, Ty)> = module
        .functions
        .iter()
        .map(|f| (f.params.clone(), f.ret_ty.clone()))
        .collect();
    let global_tys = globals.global_tys.clone();
    let model = model.clone();
    let func = module.function_mut(fid);
    let mut b = FunctionBuilder::new(func)
        .with_global_types(global_tys)
        .with_signatures(sigs);
    let entry = b.create_block("entry");
    b.switch_to_block(entry);
    let trial_idx = b.param(0);
    let zero_f = b.const_f64(0.0);
    let zero_i = b.const_i64(0);
    let one_i = b.const_i64(1);

    // Reset counters, output buffers, and (optionally) state.
    for i in 0..model.mechanisms.len() {
        let cbase = b.global_addr(globals.counters);
        let cp = b.const_elem_addr(cbase, i);
        b.store(cp, zero_i);
    }
    for i in 0..layout.out_len {
        let cur_base = b.global_addr(globals.out_cur);
        let cp = b.const_elem_addr(cur_base, i);
        b.store(cp, zero_f);
        let prev_base = b.global_addr(globals.out_prev);
        let pp = b.const_elem_addr(prev_base, i);
        b.store(pp, zero_f);
    }
    if model.reset_state_each_trial {
        for i in 0..layout.state_len {
            let ibase = b.global_addr(globals.state_init);
            let ip = b.const_elem_addr(ibase, i);
            let v = b.load(ip);
            let sbase = b.global_addr(globals.state);
            let sp = b.const_elem_addr(sbase, i);
            b.store(sp, v);
        }
    }

    // Re-derive every node's PRNG stream from (seed, trial, node) — the
    // mirror of `SplitMix64::trial_node_stream` the baseline runner applies
    // at the top of each trial. Trials become independent random-access
    // units: any execution order (per-trial re-entry, `trials_batch`, or the
    // sharded multicore driver) draws identical numbers for trial `t`.
    let shift32 = b.const_i64(1i64 << 32);
    let trial_stream_base = b.imul(trial_idx, shift32);
    for i in 0..model.mechanisms.len() {
        let node_c = b.const_i64(i as i64);
        let idx = b.iadd(trial_stream_base, node_c);
        let stream = emit_stream_for(&mut b, seed, idx);
        let rbase = b.global_addr(globals.rng);
        let rp = b.const_elem_addr(rbase, i);
        b.store(rp, stream);
    }

    // ---- controller grid search -------------------------------------------
    if let (Some(ctrl), Some(eval_fid)) = (&model.controller, eval_func) {
        let grid = ctrl.grid_size();
        // Tie-break PRNG state = runner_seed ^ trial_index.
        let seed_c = b.const_i64(seed as i64);
        let tb_state = b.bin(distill_ir::BinOp::Xor, seed_c, trial_idx);
        let tb_base = b.global_addr(globals.tiebreak_rng);
        let tb_ptr = b.const_elem_addr(tb_base, 0);
        b.store(tb_ptr, tb_state);

        let best_cost = b.alloca(Ty::F64);
        let best_idx = b.alloca(Ty::I64);
        let ties = b.alloca(Ty::F64);
        let inf = b.const_f64(f64::INFINITY);
        b.store(best_cost, inf);
        b.store(best_idx, zero_i);
        b.store(ties, zero_f);

        let header = b.create_block("grid.header");
        let body = b.create_block("grid.body");
        let better = b.create_block("grid.better");
        let tie_check = b.create_block("grid.tie_check");
        let tie = b.create_block("grid.tie");
        let tie_replace = b.create_block("grid.tie_replace");
        let next = b.create_block("grid.next");
        let done = b.create_block("grid.done");

        let g_slot = b.alloca(Ty::I64);
        b.store(g_slot, zero_i);
        b.br(header);

        b.switch_to_block(header);
        let g = b.load(g_slot);
        let grid_c = b.const_i64(grid as i64);
        let cont = b.cmp(distill_ir::CmpPred::ILt, g, grid_c);
        b.cond_br(cont, body, done);

        b.switch_to_block(body);
        let g2 = b.load(g_slot);
        let cost = b.call(eval_fid, vec![g2]);
        let cur_best = b.load(best_cost);
        let is_better = b.cmp(distill_ir::CmpPred::FLt, cost, cur_best);
        b.cond_br(is_better, better, tie_check);

        b.switch_to_block(better);
        b.store(best_cost, cost);
        b.store(best_idx, g2);
        let one_f = b.const_f64(1.0);
        b.store(ties, one_f);
        b.br(next);

        b.switch_to_block(tie_check);
        let cur_best2 = b.load(best_cost);
        let is_tie = b.cmp(distill_ir::CmpPred::FEq, cost, cur_best2);
        b.cond_br(is_tie, tie, next);

        b.switch_to_block(tie);
        let t_old = b.load(ties);
        let one_f2 = b.const_f64(1.0);
        let t_new = b.fadd(t_old, one_f2);
        b.store(ties, t_new);
        let tb_base2 = b.global_addr(globals.tiebreak_rng);
        let tb_ptr2 = b.const_elem_addr(tb_base2, 0);
        let u = b.intrinsic(distill_ir::Intrinsic::RandUniform, vec![tb_ptr2]);
        let inv = b.fdiv(one_f2, t_new);
        let replace = b.cmp(distill_ir::CmpPred::FLt, u, inv);
        b.cond_br(replace, tie_replace, next);

        b.switch_to_block(tie_replace);
        b.store(best_idx, g2);
        b.br(next);

        b.switch_to_block(next);
        let g3 = b.load(g_slot);
        let g4 = b.iadd(g3, one_i);
        b.store(g_slot, g4);
        b.br(header);

        b.switch_to_block(done);
        // Decode the winning allocation into the live control parameters.
        let winner = b.load(best_idx);
        let mut stride = 1usize;
        for (s, sig) in ctrl.signals.iter().enumerate() {
            let n = sig.levels.len().max(1);
            let stride_c = b.const_i64(stride as i64);
            let n_c = b.const_i64(n as i64);
            let q = b.sdiv(winner, stride_c);
            let idx = b.srem(q, n_c);
            let lbase = b.global_addr(globals.levels[s]);
            let lp = b.elem_addr(lbase, idx);
            let level = b.load(lp);
            let cbase = b.global_addr(globals.ctrl_params);
            let cp = b.const_elem_addr(cbase, s);
            b.store(cp, level);
            stride *= n;
        }
    }

    // ---- pass loop ----------------------------------------------------------
    let pass_slot = b.alloca(Ty::I64);
    b.store(pass_slot, zero_i);
    let pass_header = b.create_block("pass.header");
    let pass_exit = b.create_block("pass.exit");
    b.br(pass_header);
    b.switch_to_block(pass_header);

    for &node in &topo {
        let m = &model.mechanisms[node];
        let call_blk = b.create_block(format!("run.{}", m.name));
        let skip_blk = b.create_block(format!("skip.{}", m.name));
        // Condition check.
        let ready = match &m.condition {
            Condition::Always => b.const_bool(true),
            Condition::Never => b.const_bool(false),
            Condition::EveryNPasses(n) => {
                let pass = b.load(pass_slot);
                let n_c = b.const_i64(*n as i64);
                let r = b.srem(pass, n_c);
                b.cmp(distill_ir::CmpPred::IEq, r, zero_i)
            }
            Condition::AfterNCalls { node: other, n } => {
                let cbase = b.global_addr(globals.counters);
                let cp = b.const_elem_addr(cbase, *other);
                let calls = b.load(cp);
                let n_c = b.const_i64(*n as i64);
                b.cmp(distill_ir::CmpPred::IGe, calls, n_c)
            }
            Condition::AtMostNCalls(n) => {
                let cbase = b.global_addr(globals.counters);
                let cp = b.const_elem_addr(cbase, node);
                let calls = b.load(cp);
                let n_c = b.const_i64(*n as i64);
                b.cmp(distill_ir::CmpPred::ILt, calls, n_c)
            }
        };
        b.cond_br(ready, call_blk, skip_blk);
        b.switch_to_block(call_blk);
        b.call(node_funcs[node], vec![]);
        let cbase = b.global_addr(globals.counters);
        let cp = b.const_elem_addr(cbase, node);
        let calls = b.load(cp);
        let calls2 = b.iadd(calls, one_i);
        b.store(cp, calls2);
        b.br(skip_blk);
        b.switch_to_block(skip_blk);
    }

    // pass += 1
    let pass = b.load(pass_slot);
    let pass2 = b.iadd(pass, one_i);
    b.store(pass_slot, pass2);

    // Copy current outputs to the previous-pass buffer.
    for i in 0..layout.out_len {
        let cur_base = b.global_addr(globals.out_cur);
        let cp = b.const_elem_addr(cur_base, i);
        let v = b.load(cp);
        let prev_base = b.global_addr(globals.out_prev);
        let pp = b.const_elem_addr(prev_base, i);
        b.store(pp, v);
    }

    // Trial-end check.
    let end = match &model.trial_end {
        TrialEnd::AfterNPasses(n) => {
            let n_c = b.const_i64(*n as i64);
            b.cmp(distill_ir::CmpPred::IGe, pass2, n_c)
        }
        TrialEnd::Threshold {
            node,
            port,
            threshold,
            max_passes,
        } => {
            let offset = layout.out_offset(*node, *port, 0);
            let cur_base = b.global_addr(globals.out_cur);
            let cp = b.const_elem_addr(cur_base, offset);
            let v = b.load(cp);
            let av = b.fabs(v);
            let thr = b.const_f64(*threshold);
            let crossed = b.cmp(distill_ir::CmpPred::FGe, av, thr);
            let max_c = b.const_i64(*max_passes as i64);
            let exhausted = b.cmp(distill_ir::CmpPred::IGe, pass2, max_c);
            let crossed_i = b.cast(distill_ir::CastKind::ZExtBool, crossed, Ty::I64);
            let exhausted_i = b.cast(distill_ir::CastKind::ZExtBool, exhausted, Ty::I64);
            let any = b.bin(distill_ir::BinOp::Or, crossed_i, exhausted_i);
            b.cmp(distill_ir::CmpPred::INe, any, zero_i)
        }
    };
    b.cond_br(end, pass_exit, pass_header);

    // ---- epilogue -----------------------------------------------------------
    b.switch_to_block(pass_exit);
    let mut out_offset = 0usize;
    for &o in &model.output_nodes {
        let size = model.mechanisms[o].output_sizes.first().copied().unwrap_or(0);
        for i in 0..size {
            let src = layout.out_offset(o, 0, i);
            let cur_base = b.global_addr(globals.out_cur);
            let cp = b.const_elem_addr(cur_base, src);
            let v = b.load(cp);
            let tbase = b.global_addr(globals.trial_output);
            let tp = b.const_elem_addr(tbase, out_offset + i);
            b.store(tp, v);
        }
        out_offset += size;
    }
    let final_pass = b.load(pass_slot);
    let pbase = b.global_addr(globals.passes);
    let pp = b.const_elem_addr(pbase, 0);
    b.store(pp, final_pass);
    b.ret(None);
    Ok(fid)
}

/// Generate the batched entry point `trials_batch(start, count)`.
///
/// The function loops `count` trials inside compiled code: for each trial it
/// copies that trial's external input from the `batch_ext` staging buffer
/// into `ext_input`, invokes the whole-trial function with the absolute trial
/// index `start + k` (so tie-break PRNG streams match the per-trial path
/// exactly), and stores `trial_output` / `passes` into the per-trial slots of
/// `batch_out` / `batch_passes`. Drivers make one engine entry per batch
/// instead of one per trial.
fn gen_batch_fn(
    module: &mut Module,
    layout: &Layout,
    globals: &Globals,
    trial_func: FuncId,
) -> Result<FuncId, CodegenError> {
    let fid = module.declare_function("trials_batch", vec![Ty::I64, Ty::I64], Ty::Void);
    let sigs: Vec<(Vec<Ty>, Ty)> = module
        .functions
        .iter()
        .map(|f| (f.params.clone(), f.ret_ty.clone()))
        .collect();
    let global_tys = globals.global_tys.clone();
    let func = module.function_mut(fid);
    let mut b = FunctionBuilder::new(func)
        .with_global_types(global_tys)
        .with_signatures(sigs);
    let entry = b.create_block("entry");
    b.switch_to_block(entry);
    let start = b.param(0);
    let count = b.param(1);
    let zero_i = b.const_i64(0);
    let one_i = b.const_i64(1);

    let k_slot = b.alloca(Ty::I64);
    b.store(k_slot, zero_i);
    let header = b.create_block("batch.header");
    let body = b.create_block("batch.body");
    let exit = b.create_block("batch.exit");
    b.br(header);

    b.switch_to_block(header);
    let k = b.load(k_slot);
    let cont = b.cmp(distill_ir::CmpPred::ILt, k, count);
    b.cond_br(cont, body, exit);

    b.switch_to_block(body);
    let k2 = b.load(k_slot);
    // ext_input <- batch_ext[k * ext_len ..][.. ext_len]
    if layout.ext_len > 0 {
        let stride = b.const_i64(layout.ext_len as i64);
        let base_off = b.imul(k2, stride);
        for j in 0..layout.ext_len {
            let j_c = b.const_i64(j as i64);
            let off = b.iadd(base_off, j_c);
            let sbase = b.global_addr(globals.batch_ext);
            let sp = b.elem_addr(sbase, off);
            let v = b.load(sp);
            let dbase = b.global_addr(globals.ext_input);
            let dp = b.const_elem_addr(dbase, j);
            b.store(dp, v);
        }
    }
    // Run the trial with its absolute index.
    let trial_idx = b.iadd(start, k2);
    b.call(trial_func, vec![trial_idx]);
    // batch_out[k * trial_output_len ..] <- trial_output
    if layout.trial_output_len > 0 {
        let stride = b.const_i64(layout.trial_output_len as i64);
        let base_off = b.imul(k2, stride);
        for j in 0..layout.trial_output_len {
            let sbase = b.global_addr(globals.trial_output);
            let sp = b.const_elem_addr(sbase, j);
            let v = b.load(sp);
            let j_c = b.const_i64(j as i64);
            let off = b.iadd(base_off, j_c);
            let dbase = b.global_addr(globals.batch_out);
            let dp = b.elem_addr(dbase, off);
            b.store(dp, v);
        }
    }
    // batch_passes[k] <- passes[0]
    let pbase = b.global_addr(globals.passes);
    let pp = b.const_elem_addr(pbase, 0);
    let pv = b.load(pp);
    let bpbase = b.global_addr(globals.batch_passes);
    let bpp = b.elem_addr(bpbase, k2);
    b.store(bpp, pv);

    let k3 = b.iadd(k2, one_i);
    b.store(k_slot, k3);
    b.br(header);

    b.switch_to_block(exit);
    b.ret(None);
    Ok(fid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_cogmodel::functions::{identity, linear, logistic};
    use distill_cogmodel::Composition;

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
    fn compiles_and_verifies_whole_model() {
        let model = chain_model();
        let compiled = compile(&model, CompileConfig::default()).unwrap();
        assert!(compiled.trial_func.is_some());
        assert_eq!(compiled.node_funcs.len(), 3);
        assert!(compiled.eval_func.is_none());
        distill_ir::verify::verify_module(&compiled.module).unwrap();
        assert!(compiled.opt_stats.total_changes() > 0);
    }

    #[test]
    fn whole_model_emits_batch_entry_point() {
        let model = chain_model();
        let compiled = compile(&model, CompileConfig::default()).unwrap();
        assert!(compiled.batch_func.is_some());
        assert_eq!(compiled.batch_capacity, 64);
        assert!(compiled.module.function_by_name("trials_batch").is_some());
        // Capacity 0 disables the batched entry point.
        let no_batch = compile(
            &model,
            CompileConfig {
                batch_capacity: 0,
                ..CompileConfig::default()
            },
        )
        .unwrap();
        assert!(no_batch.batch_func.is_none());
        assert_eq!(no_batch.batch_capacity, 0);
        // Per-node mode has no trial function and therefore nothing to batch.
        let per_node = compile(
            &model,
            CompileConfig {
                mode: CompileMode::PerNode,
                ..CompileConfig::default()
            },
        )
        .unwrap();
        assert!(per_node.batch_func.is_none());
    }

    #[test]
    fn per_node_mode_has_no_trial_function() {
        let model = chain_model();
        let compiled = compile(
            &model,
            CompileConfig {
                mode: CompileMode::PerNode,
                ..CompileConfig::default()
            },
        )
        .unwrap();
        assert!(compiled.trial_func.is_none());
        assert_eq!(compiled.node_funcs.len(), 3);
    }

    #[test]
    fn layout_assigns_disjoint_offsets() {
        let model = chain_model();
        let layout = Layout::build(&model);
        assert_eq!(layout.out_len, 6);
        assert_eq!(layout.ext_len, 2);
        assert_eq!(layout.trial_output_len, 2);
        // Parameter offsets are unique.
        let mut seen = std::collections::HashSet::new();
        for off in layout.param_offsets.values() {
            assert!(seen.insert(*off));
        }
    }

    #[test]
    fn whole_model_optimization_reduces_code_size() {
        // Compare without the batched entry point: inlining the trial body
        // into `trials_batch` intentionally duplicates code.
        let model = chain_model();
        let o0 = compile(
            &model,
            CompileConfig {
                opt_level: OptLevel::O0,
                batch_capacity: 0,
                ..CompileConfig::default()
            },
        )
        .unwrap();
        let o2 = compile(
            &model,
            CompileConfig {
                batch_capacity: 0,
                ..CompileConfig::default()
            },
        )
        .unwrap();
        let size = |c: &CompiledModel| {
            c.module
                .function(c.trial_func.unwrap())
                .inst_count()
        };
        // After O2 the node calls are inlined into the trial function and the
        // parameter loads fold, so the trial body shrinks relative to the sum
        // of its O0 parts.
        let o0_total: usize = o0.module.inst_count();
        let o2_total: usize = o2.module.inst_count();
        assert!(o2_total <= o0_total);
        assert!(size(&o2) > 0);
    }

    #[test]
    fn staging_buffer_matches_stage_batch() {
        let mut layout = Layout::default();
        layout.ext_offsets.insert(0, 0);
        layout.ext_len = 3;
        let flats = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let mut buf = layout.staging_buffer(4);
        assert_eq!(buf.capacity(), 4);
        assert_eq!(buf.stride(), 3);
        for (start, count) in [(0, 4), (3, 2), (7, 1), (2, 0)] {
            buf.stage(&flats, start, count);
            assert_eq!(buf.publish(), &layout.stage_batch(&flats, start, count)[..]);
        }
    }

    #[test]
    fn staging_buffer_keeps_front_while_staging_back() {
        let mut layout = Layout::default();
        layout.ext_offsets.insert(0, 0);
        layout.ext_len = 1;
        let flats = vec![vec![1.0], vec![2.0], vec![3.0]];
        let mut buf = layout.staging_buffer(2);
        buf.stage(&flats, 0, 2);
        let front: Vec<f64> = buf.publish().to_vec();
        assert_eq!(front, vec![1.0, 2.0]);
        // Staging the next chunk must not disturb the published image.
        buf.stage(&flats, 2, 2);
        assert_eq!(buf.front_image(), &front[..]);
        assert_eq!(buf.publish(), &[3.0, 1.0]);
    }

    #[test]
    fn staging_buffer_zero_stride_and_empty_flats() {
        let layout = Layout::default();
        let mut buf = layout.staging_buffer(8);
        buf.stage(&[], 0, 8);
        assert!(buf.publish().is_empty());
        let mut layout = Layout::default();
        layout.ext_len = 2;
        let mut buf = layout.staging_buffer(2);
        buf.stage(&[], 0, 2);
        assert_eq!(buf.publish(), &[0.0; 4]);
    }
}
