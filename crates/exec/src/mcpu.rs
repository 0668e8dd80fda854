//! The multicore grid-search backend (§3.6): phase 1 of a grid search.
//!
//! A grid search has two phases. Phase 1 evaluates every grid point into an
//! index-addressed cost window; phase 2 folds that window, in index order,
//! through the one tie-breaking argmin (`ReservoirArgmin` in
//! `distill-cogmodel`), which the driver owns. This module implements phase
//! 1 only, so no schedule here can pick a different winner.
//!
//! Distill extracts the exhaustive parameter evaluation of grid-search
//! controllers and runs it on as many threads as there are cores. Each
//! worker receives work through a **work-stealing chunk queue** (an atomic
//! next-index counter over `std::thread::scope`; no external dependencies):
//! workers repeatedly grab the next chunk of grid indices until the grid is
//! drained, so a skewed grid — evaluation cost varying wildly across
//! parameter points, as in the Fig. 5c controllers — no longer serializes on
//! the slowest statically-assigned chunk. At one thread the same drain runs
//! inline on the caller's thread.
//!
//! Every worker owns an [`EvalContext`]: a clone of the engine (sharing the
//! immutable module and predecoded code, copying only the mutable memory
//! image) whose register-frame pool is reused across every grid point the
//! worker evaluates — the "thread-local copy of the read-write structures"
//! strategy of §3.6 without per-evaluation allocation. Per-evaluation PRNG
//! streams are derived inside the kernel from the evaluation index, so the
//! numbers drawn are identical regardless of which thread executes which
//! point — the paper's reproducibility requirement — and therefore the cost
//! window is bit-identical under any schedule.

use crate::engine::{Engine, EngineStats, ExecError, Value};
use crate::shard::{ChunkQueue, GrabCount};
use distill_ir::FuncId;

/// What filling a grid's cost window reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelResult {
    /// Number of evaluations performed.
    pub evaluations: usize,
    /// Number of worker threads used.
    pub threads: usize,
    /// Chunk grabs beyond each worker's first under the work-stealing
    /// scheduler — redistribution another worker could have absorbed. Zero
    /// for single-worker runs (a lone worker draining the queue is
    /// self-scheduling, not stealing).
    pub steals: u64,
    /// Engine counters the evaluation contexts accumulated (summed across
    /// workers). Worker engines die with their threads, so the scheduler
    /// hands the deltas back for the driver to fold into its template
    /// engine's [`EngineStats`].
    pub stats: EngineStats,
}

/// A pooled grid-evaluation context: one mutable engine copy (module and
/// predecoded code shared with the template behind `Arc`) driving the
/// compiled evaluation kernel. Each worker of [`grid_costs`] owns one, and
/// so does the simulated GPU.
pub struct EvalContext {
    engine: Engine,
    eval_func: FuncId,
}

impl EvalContext {
    /// Clone the template's mutable state into a fresh context (§3.6's
    /// thread-local read-write copy).
    pub fn new(template: &Engine, eval_func: FuncId) -> EvalContext {
        EvalContext {
            engine: template.clone(),
            eval_func,
        }
    }

    /// Evaluate one grid point.
    ///
    /// # Errors
    /// Propagates engine failures; a kernel not returning `f64` is a type
    /// error.
    pub fn eval(&mut self, index: usize) -> Result<f64, ExecError> {
        as_cost(
            self.engine
                .call(self.eval_func, &[Value::I64(index as i64)]),
        )
    }

    /// Evaluate one grid point through the **unfused** decoded path. The
    /// simulated GPU uses this so its per-thread instruction counts
    /// approximate the kernel's architectural instruction stream rather
    /// than the host interpreter's dispatch count, which depends on the
    /// production tier's superinstructions.
    ///
    /// # Errors
    /// Same surface as [`EvalContext::eval`].
    pub fn eval_decoded(&mut self, index: usize) -> Result<f64, ExecError> {
        as_cost(
            self.engine
                .call_decoded(self.eval_func, &[Value::I64(index as i64)]),
        )
    }

    /// The context's engine (e.g. to inspect statistics after a sweep).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

/// Interpret a kernel result as a cost (the one definition of the
/// "kernel must return f64" contract, shared by both evaluation paths).
fn as_cost(result: Result<Value, ExecError>) -> Result<f64, ExecError> {
    result?
        .as_f64()
        .ok_or_else(|| ExecError::Type("evaluation kernel must return f64".into()))
}

/// One worker's share of a grid: the chunks it evaluated (first index and
/// costs), its steal count and its engine-counter delta.
type WorkerOut = (Vec<(usize, Vec<f64>)>, u64, EngineStats);

/// Drain `queue` through one evaluation context.
fn drain(mut ctx: EvalContext, queue: &ChunkQueue) -> Result<WorkerOut, ExecError> {
    let mut chunks = Vec::new();
    let mut grabs = GrabCount::default();
    // The clone starts from the template's counters; only the delta is this
    // worker's own work.
    let base_stats = ctx.engine().stats();
    while let Some(range) = queue.grab() {
        grabs.record();
        let lo = range.start;
        let costs = range
            .map(|i| ctx.eval(i))
            .collect::<Result<Vec<f64>, _>>()?;
        chunks.push((lo, costs));
    }
    Ok((
        chunks,
        grabs.steals(),
        ctx.engine().stats_since(&base_stats),
    ))
}

/// Phase 1 of a grid search: set `costs[i] = eval_func(i)` for every grid
/// point `i in 0..costs.len()`, on `threads` workers pulling chunks from a
/// shared work-stealing queue (inline on the caller's thread when one
/// worker suffices). Choosing the winner is the caller's phase 2.
///
/// The window is bit-identical for any thread count and any schedule:
/// costs depend only on the evaluation index, and the reduction scatters
/// each chunk's costs back to their indices.
///
/// # Errors
/// Returns the first [`ExecError`] any worker encountered; a kernel not
/// returning `f64` is [`ExecError::Type`].
pub fn grid_costs(
    engine: &Engine,
    eval_func: FuncId,
    costs: &mut [f64],
    threads: usize,
) -> Result<ParallelResult, ExecError> {
    let grid_size = costs.len();
    let threads = threads.max(1).min(grid_size.max(1));
    // Chunked stealing through the shared [`ChunkQueue`]: coarse enough to
    // amortize the shared counter, fine enough (≥ 8 chunks per worker) that
    // one expensive tail region cannot serialize the sweep.
    let queue = ChunkQueue::balanced(grid_size, threads, 8, 1024);
    let results: Vec<Result<WorkerOut, ExecError>> = if threads == 1 {
        vec![drain(EvalContext::new(engine, eval_func), &queue)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    // Thread-local copy of every read-write structure (§3.6).
                    let ctx = EvalContext::new(engine, eval_func);
                    let queue = &queue;
                    scope.spawn(move || drain(ctx, queue))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|p| {
                        Err(ExecError::WorkerPanicked(crate::shard::panic_message(&*p)))
                    })
                })
                .collect()
        })
    };

    // Worker engines die with their threads, so steal counts and counter
    // deltas come back with the costs; drivers fold both into their
    // template engine.
    let mut steals = 0u64;
    let mut stats = EngineStats::default();
    for r in results {
        let (chunks, s, worker_stats) = r?;
        steals += s;
        stats.add(&worker_stats);
        for (lo, chunk) in chunks {
            costs[lo..lo + chunk.len()].copy_from_slice(&chunk);
        }
    }
    // A lone worker draining the queue is self-scheduling, not stealing;
    // only report redistribution that another worker could have absorbed.
    if threads <= 1 {
        steals = 0;
    }
    Ok(ParallelResult {
        evaluations: grid_size,
        threads,
        steals,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_ir::{FunctionBuilder, Module, Ty};

    /// cost(i) = (i - 37)^2 as a compiled kernel.
    fn quadratic_kernel() -> (Engine, FuncId) {
        let mut m = Module::new("m");
        let fid = m.declare_function("eval", vec![Ty::I64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let i = b.param(0);
            let x = b.sitofp(i);
            let c = b.const_f64(37.0);
            let d = b.fsub(x, c);
            let sq = b.fmul(d, d);
            b.ret(Some(sq));
        }
        (Engine::new(m), fid)
    }

    /// Fill a fresh window of `grid` costs on `threads` workers.
    fn window(engine: &Engine, fid: FuncId, grid: usize, threads: usize) -> Vec<f64> {
        let mut costs = vec![f64::NAN; grid];
        let r = grid_costs(engine, fid, &mut costs, threads).unwrap();
        assert_eq!(r.evaluations, grid);
        costs
    }

    fn bits(costs: &[f64]) -> Vec<u64> {
        costs.iter().map(|c| c.to_bits()).collect()
    }

    #[test]
    fn parallel_matches_serial() {
        let (engine, fid) = quadratic_kernel();
        let serial = window(&engine, fid, 100, 1);
        let expected: Vec<f64> = (0..100).map(|i| (i as f64 - 37.0).powi(2)).collect();
        assert_eq!(bits(&serial), bits(&expected));
        for threads in [2, 4, 7, 12] {
            let par = window(&engine, fid, 100, threads);
            assert_eq!(bits(&par), bits(&serial), "threads={threads}");
        }
    }

    #[test]
    fn empty_grid_is_handled() {
        let (engine, fid) = quadratic_kernel();
        for threads in [1, 4] {
            assert!(window(&engine, fid, 0, threads).is_empty());
        }
    }

    #[test]
    fn stealing_drains_the_whole_grid() {
        // Grid much larger than threads * chunk: every worker must go back
        // to the queue, so grabs beyond the first are recorded as steals.
        let (engine, fid) = quadratic_kernel();
        let mut costs = vec![f64::NAN; 500];
        let r = grid_costs(&engine, fid, &mut costs, 2).unwrap();
        assert!(r.steals > 0, "expected chunked re-grabs, got {r:?}");
        assert_eq!(bits(&costs), bits(&window(&engine, fid, 500, 1)));
    }

    #[test]
    fn a_kernel_without_a_cost_is_a_type_error() {
        let mut m = Module::new("m");
        let fid = m.declare_function("void", vec![Ty::I64], Ty::Void);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            b.ret(None);
        }
        let engine = Engine::new(m);
        for threads in [1, 2] {
            let err = grid_costs(&engine, fid, &mut [0.0; 8], threads).unwrap_err();
            assert!(matches!(err, ExecError::Type(_)), "{err:?}");
        }
    }

    #[test]
    fn worker_state_does_not_leak_into_the_template_engine() {
        // A kernel that mutates a global; the template engine must stay
        // untouched because every worker gets its own copy.
        let mut m = Module::new("m");
        let g = m.add_zeroed_global("scratch", Ty::F64, true);
        let tys: Vec<Ty> = m.globals.iter().map(|g| g.ty.clone()).collect();
        let fid = m.declare_function("eval", vec![Ty::I64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f).with_global_types(tys);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let i = b.param(0);
            let x = b.sitofp(i);
            let base = b.global_addr(g);
            b.store(base, x);
            let v = b.load(base);
            b.ret(Some(v));
        }
        let engine = Engine::new(m);
        window(&engine, fid, 64, 8);
        assert_eq!(engine.read_global_f64("scratch").unwrap(), vec![0.0]);
    }
}
