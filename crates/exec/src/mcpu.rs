//! The multicore grid-search backend (§3.6).
//!
//! Distill extracts the exhaustive parameter evaluation of grid-search
//! controllers and runs it on as many threads as there are cores. Each
//! worker receives work through a **work-stealing chunk queue** (an atomic
//! next-index counter over `std::thread::scope`; no external dependencies):
//! workers repeatedly grab the next chunk of grid indices until the grid is
//! drained, so a skewed grid — evaluation cost varying wildly across
//! parameter points, as in the Fig. 5c controllers — no longer serializes on
//! the slowest statically-assigned chunk.
//!
//! Every worker owns an [`EvalContext`]: a clone of the engine (sharing the
//! immutable module and predecoded code, copying only the mutable memory
//! image) whose register-frame pool is reused across every grid point the
//! worker evaluates — the "thread-local copy of the read-write structures"
//! strategy of §3.6 without per-evaluation allocation. Per-evaluation PRNG
//! streams are derived inside the kernel from the evaluation index, so the
//! numbers drawn are identical regardless of which thread executes which
//! point — the paper's reproducibility requirement — and therefore the
//! argmin is deterministic under any schedule.

use crate::engine::{Engine, EngineStats, ExecError, Value};
use crate::shard::{ChunkQueue, GrabCount};
use distill_ir::FuncId;

/// Result of a parallel argmin over the grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelResult {
    /// Index of the winning grid point.
    pub best_index: usize,
    /// Its cost.
    pub best_cost: f64,
    /// Number of evaluations performed.
    pub evaluations: usize,
    /// Number of worker threads used.
    pub threads: usize,
    /// Chunk grabs beyond each worker's first under the work-stealing
    /// scheduler — redistribution another worker could have absorbed. Zero
    /// for the serial path and for single-worker runs
    /// (a lone worker draining the queue is self-scheduling, not stealing).
    pub steals: u64,
    /// Engine counters the evaluation contexts accumulated (summed across
    /// workers). Worker engines die with their threads, so the scheduler
    /// hands the deltas back for the driver to fold into its template
    /// engine's [`EngineStats`].
    pub stats: EngineStats,
}

/// The argmin accumulator's initial state.
const ARGMIN_INIT: (usize, f64) = (usize::MAX, f64::INFINITY);

/// Fold one `(index, cost)` observation into an argmin accumulator.
///
/// Ties are broken towards the lowest index, which matches what the
/// compiled single-thread driver does when its tie-breaking PRNG is
/// disabled; the stochastic reservoir tie-break lives inside the whole-model
/// trial function where determinism against the baseline matters. This one
/// helper is shared by the serial path, every parallel worker, and the
/// cross-worker reduction, so all schedules agree on the winner.
#[inline]
pub fn argmin_better(best: (usize, f64), index: usize, cost: f64) -> (usize, f64) {
    if cost < best.1 || (cost == best.1 && index < best.0) {
        (index, cost)
    } else {
        best
    }
}

/// A pooled grid-evaluation context: one mutable engine copy (module and
/// predecoded code shared with the template behind `Arc`) driving the
/// compiled evaluation kernel. The serial path uses a single context; the
/// parallel paths give one to each worker thread.
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
        as_cost(self.engine.call(self.eval_func, &[Value::I64(index as i64)]))
    }

    /// Evaluate one grid point through the **unfused** decoded path. The
    /// simulated GPU uses this so its per-thread instruction counts
    /// approximate the kernel's architectural instruction stream rather
    /// than the host interpreter's (fusion-dependent) dispatch count.
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

fn empty_result(threads: usize) -> ParallelResult {
    ParallelResult {
        best_index: 0,
        best_cost: f64::INFINITY,
        evaluations: 0,
        threads,
        steals: 0,
        stats: EngineStats::default(),
    }
}

/// Evaluate `eval_func(i)` for every `i in 0..grid_size` across `threads`
/// workers pulling chunks from a shared work-stealing queue, and return the
/// argmin of the returned costs.
///
/// The result is bit-identical to [`serial_argmin`] for any thread count and
/// any schedule: costs depend only on the evaluation index, and both paths
/// share the [`argmin_better`] tie-break.
///
/// # Errors
/// Returns the first [`ExecError`] any worker encountered.
pub fn parallel_argmin(
    engine: &Engine,
    eval_func: FuncId,
    grid_size: usize,
    threads: usize,
) -> Result<ParallelResult, ExecError> {
    let threads = threads.max(1).min(grid_size.max(1));
    if grid_size == 0 {
        return Ok(empty_result(threads));
    }
    // Chunked stealing through the shared [`ChunkQueue`]: coarse enough to
    // amortize the shared counter, fine enough (≥ 8 chunks per worker) that
    // one expensive tail region cannot serialize the sweep.
    let queue = ChunkQueue::balanced(grid_size, threads, 8, 1024);
    type WorkerOut = ((usize, f64), u64, EngineStats);
    let results: Vec<Result<WorkerOut, ExecError>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..threads {
            let queue = &queue;
            // Thread-local copy of every read-write structure (§3.6).
            let mut ctx = EvalContext::new(engine, eval_func);
            handles.push(scope.spawn(move || {
                let mut best = ARGMIN_INIT;
                let mut grabs = GrabCount::default();
                // The clone starts from the template's counters; only the
                // delta is this worker's own work.
                let base_stats = ctx.engine().stats();
                while let Some(range) = queue.grab() {
                    grabs.record();
                    for i in range {
                        best = argmin_better(best, i, ctx.eval(i)?);
                    }
                }
                // Every grab beyond the worker's first is a steal from the
                // shared queue. Worker engines die with their thread, so the
                // count and the counter delta are returned for the
                // reduction; drivers fold both into their template engine.
                Ok((best, grabs.steals(), ctx.engine().stats_since(&base_stats)))
            }));
        }
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|p| {
                    Err(ExecError::WorkerPanicked(crate::shard::panic_message(&*p)))
                })
            })
            .collect()
    });

    let mut best = ARGMIN_INIT;
    let mut steals = 0u64;
    let mut stats = EngineStats::default();
    for r in results {
        let ((i, c), s, worker_stats) = r?;
        steals += s;
        stats.add(&worker_stats);
        if i != usize::MAX {
            best = argmin_better(best, i, c);
        }
    }
    // A lone worker draining the queue is self-scheduling, not stealing;
    // only report redistribution that another worker could have absorbed.
    if threads <= 1 {
        steals = 0;
    }
    Ok(ParallelResult {
        best_index: best.0,
        best_cost: best.1,
        evaluations: grid_size,
        threads,
        steals,
        stats,
    })
}

/// Sequential reference implementation used to validate the parallel
/// backends and to time the single-thread compiled path in Fig. 5c. Takes
/// the template engine by shared reference and evaluates through a single
/// pooled [`EvalContext`] — the same context type the parallel workers use.
///
/// # Errors
/// Propagates the first [`ExecError`].
pub fn serial_argmin(
    engine: &Engine,
    eval_func: FuncId,
    grid_size: usize,
) -> Result<ParallelResult, ExecError> {
    if grid_size == 0 {
        return Ok(empty_result(1));
    }
    let mut ctx = EvalContext::new(engine, eval_func);
    let mut best = ARGMIN_INIT;
    let base_stats = ctx.engine().stats();
    for i in 0..grid_size {
        best = argmin_better(best, i, ctx.eval(i)?);
    }
    Ok(ParallelResult {
        best_index: best.0,
        best_cost: best.1,
        evaluations: grid_size,
        threads: 1,
        steals: 0,
        stats: ctx.engine().stats_since(&base_stats),
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

    #[test]
    fn parallel_matches_serial() {
        let (engine, fid) = quadratic_kernel();
        let serial = serial_argmin(&engine, fid, 100).unwrap();
        for threads in [1, 2, 4, 7, 12] {
            let par = parallel_argmin(&engine, fid, 100, threads).unwrap();
            assert_eq!(par.best_index, serial.best_index, "threads={threads}");
            assert_eq!(par.best_cost, serial.best_cost);
            assert_eq!(par.evaluations, 100);
        }
    }

    #[test]
    fn finds_the_minimum() {
        let (engine, fid) = quadratic_kernel();
        let r = parallel_argmin(&engine, fid, 100, 4).unwrap();
        assert_eq!(r.best_index, 37);
        assert_eq!(r.best_cost, 0.0);
    }

    #[test]
    fn empty_grid_is_handled() {
        let (engine, fid) = quadratic_kernel();
        let r = parallel_argmin(&engine, fid, 0, 4).unwrap();
        assert_eq!(r.evaluations, 0);
        let r = serial_argmin(&engine, fid, 0).unwrap();
        assert_eq!(r.evaluations, 0);
    }

    #[test]
    fn stealing_drains_the_whole_grid() {
        // Grid much larger than threads * chunk: every worker must go back
        // to the queue, so grabs beyond the first are recorded as steals.
        let (engine, fid) = quadratic_kernel();
        let r = parallel_argmin(&engine, fid, 500, 2).unwrap();
        assert_eq!(r.best_index, 37);
        assert!(r.steals > 0, "expected chunked re-grabs, got {r:?}");
    }

    #[test]
    fn ties_break_towards_the_lowest_index() {
        // cost(i) = 0 everywhere: index 0 must win under every scheduler.
        let mut m = Module::new("m");
        let fid = m.declare_function("flat", vec![Ty::I64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let z = b.const_f64(0.0);
            b.ret(Some(z));
        }
        let engine = Engine::new(m);
        assert_eq!(serial_argmin(&engine, fid, 64).unwrap().best_index, 0);
        for threads in [2, 4, 8] {
            assert_eq!(
                parallel_argmin(&engine, fid, 64, threads).unwrap().best_index,
                0
            );
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
        parallel_argmin(&engine, fid, 64, 8).unwrap();
        assert_eq!(engine.read_global_f64("scratch").unwrap(), vec![0.0]);
    }
}
