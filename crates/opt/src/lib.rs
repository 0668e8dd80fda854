//! `distill-opt` — optimization passes over the Distill IR.
//!
//! The paper's §3.5 runs LLVM's standard optimization pipeline over the
//! whole-model IR once Python's dynamic structures have been stripped away;
//! the large speedups come from that combination. This crate reproduces the
//! pass infrastructure from scratch:
//!
//! * [`mem2reg`] — promote `alloca`/`load`/`store` of scalars to SSA values
//!   (the enabling pass: code generation emits locals as stack slots).
//! * [`fold`] — constant folding, constant propagation and algebraic
//!   simplification (`x + 0`, `x * 1`, `x * 0`, …).
//! * [`dce`] — dead code elimination.
//! * [`memopt`] — load/store optimization over globals: folds loads of
//!   immutable globals, forwards stores to loads, merges repeated loads and
//!   removes overwritten stores, under one coarse alias model.
//! * [`cse`] — dominator-scoped common subexpression elimination of pure
//!   instructions.
//! * [`simplify_cfg`] — unreachable-block removal, constant-branch folding
//!   and straight-line block merging.
//! * [`licm`] — loop-invariant code motion (including loads of read-only
//!   parameter globals, which is where Distill's "read-only vs read-write
//!   parameter structure" split pays off).
//! * [`inline`] — function inlining, the pass that makes *model-wide*
//!   optimization (Fig. 5b) and whole-model clone detection (§4.4) possible.
//!
//! [`pipeline`] assembles them into `O0`–`O3` pipelines mirroring Fig. 7.

pub mod cse;
pub mod dce;
pub mod fold;
pub mod inline;
pub mod licm;
pub mod mem2reg;
pub mod memopt;
pub mod pipeline;
pub mod simplify_cfg;

pub use pipeline::{OptLevel, PassManager, PassStats};

/// Convenience: run the full `O2` pipeline over every function of a module.
///
/// Returns the accumulated statistics.
///
/// # Example
/// ```
/// use distill_ir::{Module, Ty, FunctionBuilder};
///
/// let mut m = Module::new("m");
/// let fid = m.declare_function("f", vec![Ty::F64], Ty::F64);
/// {
///     let f = m.function_mut(fid);
///     let mut b = FunctionBuilder::new(f);
///     let e = b.create_block("entry");
///     b.switch_to_block(e);
///     let x = b.param(0);
///     let zero = b.const_f64(0.0);
///     let y = b.fadd(x, zero);
///     b.ret(Some(y));
/// }
/// let stats = distill_opt::optimize(&mut m);
/// assert!(stats.total_changes() > 0);
/// ```
pub fn optimize(module: &mut distill_ir::Module) -> PassStats {
    PassManager::new(OptLevel::O2).run(module)
}
