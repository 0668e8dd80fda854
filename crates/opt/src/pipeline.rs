//! Pass pipelines mirroring the `O0`–`O3` levels used in the paper's
//! compilation-cost study (Fig. 7).

use crate::{cse, dce, fold, inline, licm, mem2reg, memopt, simplify_cfg};
use distill_ir::Module;
use std::fmt;

/// Optimization level.
///
/// * `O0` — no optimization (straight from code generation).
/// * `O1` — mem2reg, constant folding, DCE and CFG simplification.
/// * `O2` — `O1` plus inlining, then load/store optimization, CSE and LICM,
///   iterated twice.
/// * `O3` — `O2` with an extra iteration and a larger inlining budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum OptLevel {
    /// No optimization.
    O0,
    /// Scalar cleanups only.
    O1,
    /// The default pipeline used by Distill.
    #[default]
    O2,
    /// Aggressive: more iterations, bigger inline budget.
    O3,
}

impl OptLevel {
    /// All levels, in increasing aggressiveness.
    pub fn all() -> [OptLevel; 4] {
        [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3]
    }
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptLevel::O0 => write!(f, "O0"),
            OptLevel::O1 => write!(f, "O1"),
            OptLevel::O2 => write!(f, "O2"),
            OptLevel::O3 => write!(f, "O3"),
        }
    }
}

/// Per-pass change counts accumulated over a pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Stack slots promoted to SSA.
    pub promoted_allocas: usize,
    /// Instructions folded to constants or simplified away.
    pub folded: usize,
    /// Dead instructions removed.
    pub dce_removed: usize,
    /// Redundant expressions eliminated.
    pub cse_removed: usize,
    /// CFG edits (branches folded, blocks merged or removed).
    pub cfg_simplified: usize,
    /// Instructions hoisted out of loops.
    pub licm_hoisted: usize,
    /// Call sites inlined.
    pub inlined_calls: usize,
    /// Loads folded, forwarded or merged and overwritten stores removed.
    pub memory_ops_removed: usize,
}

impl PassStats {
    /// Sum of all recorded changes.
    pub fn total_changes(&self) -> usize {
        self.promoted_allocas
            + self.folded
            + self.dce_removed
            + self.cse_removed
            + self.cfg_simplified
            + self.licm_hoisted
            + self.inlined_calls
            + self.memory_ops_removed
    }

    /// Merge another run's statistics into this one.
    pub fn merge(&mut self, other: &PassStats) {
        self.promoted_allocas += other.promoted_allocas;
        self.folded += other.folded;
        self.dce_removed += other.dce_removed;
        self.cse_removed += other.cse_removed;
        self.cfg_simplified += other.cfg_simplified;
        self.licm_hoisted += other.licm_hoisted;
        self.inlined_calls += other.inlined_calls;
        self.memory_ops_removed += other.memory_ops_removed;
    }
}

impl fmt::Display for PassStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mem2reg={} fold={} dce={} cse={} cfg={} licm={} inline={} memopt={}",
            self.promoted_allocas,
            self.folded,
            self.dce_removed,
            self.cse_removed,
            self.cfg_simplified,
            self.licm_hoisted,
            self.inlined_calls,
            self.memory_ops_removed
        )
    }
}

/// Runs a fixed sequence of passes determined by an [`OptLevel`].
#[derive(Debug, Clone, Copy)]
pub struct PassManager {
    level: OptLevel,
}

impl PassManager {
    /// Create a pass manager for the given level.
    pub fn new(level: OptLevel) -> PassManager {
        PassManager { level }
    }

    /// The configured level.
    pub fn level(&self) -> OptLevel {
        self.level
    }

    /// Run the pipeline over a module and return accumulated statistics.
    ///
    /// Debug builds verify the module after every pass and panic naming the
    /// pass that left it invalid.
    pub fn run(&self, module: &mut Module) -> PassStats {
        let mut stats = PassStats::default();
        let (iterations, inline_options) = match self.level {
            OptLevel::O0 => return stats,
            OptLevel::O1 => {
                self.scalar_cleanup(module, &mut stats);
                return stats;
            }
            OptLevel::O2 => (2, inline::InlineOptions::default()),
            OptLevel::O3 => (
                3,
                inline::InlineOptions {
                    max_callee_insts: 20_000,
                    max_inlined_calls: 50_000,
                },
            ),
        };
        stats.inlined_calls += self.pass(module, "inline", |m| {
            inline::run_with_options(m, inline_options)
        });
        for _ in 0..iterations {
            self.scalar_cleanup(module, &mut stats);
            stats.memory_ops_removed += self.pass(module, "memopt", memopt::run);
            stats.folded += self.pass(module, "fold", fold::run);
            stats.cse_removed += self.pass(module, "cse", cse::run);
            stats.licm_hoisted += self.pass(module, "licm", licm::run);
            stats.dce_removed += self.pass(module, "dce", dce::run);
        }
        stats
    }

    fn scalar_cleanup(&self, module: &mut Module, stats: &mut PassStats) {
        stats.promoted_allocas += self.pass(module, "mem2reg", mem2reg::run);
        stats.folded += self.pass(module, "fold", fold::run);
        stats.cfg_simplified += self.pass(module, "simplify_cfg", simplify_cfg::run);
        stats.folded += self.pass(module, "fold", fold::run);
        stats.dce_removed += self.pass(module, "dce", dce::run);
    }

    /// Run one pass and return its change count. In debug builds, verify
    /// the module afterwards and name the pass if it broke the IR.
    fn pass(
        &self,
        module: &mut Module,
        name: &str,
        pass: impl FnOnce(&mut Module) -> usize,
    ) -> usize {
        let changes = pass(module);
        if cfg!(debug_assertions) {
            if let Err(e) = distill_ir::verify::verify_module(module) {
                panic!("pass {name} at {} produced invalid IR: {e}", self.level);
            }
        }
        changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_ir::{CmpPred, FunctionBuilder, Ty};

    /// A function shaped like a tiny node body: a stack slot, a branch on a
    /// constant "parameter", and a helper call.
    fn build_demo_module() -> (Module, distill_ir::FuncId) {
        let mut m = Module::new("demo");
        let helper = m.declare_function("gain2", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(helper);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let two = b.const_f64(2.0);
            let r = b.fmul(x, two);
            b.ret(Some(r));
        }
        let fid = m.declare_function("node", vec![Ty::F64], Ty::F64);
        {
            let sigs: Vec<(Vec<Ty>, Ty)> = m
                .functions
                .iter()
                .map(|f| (f.params.clone(), f.ret_ty.clone()))
                .collect();
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f).with_signatures(sigs);
            let e = b.create_block("entry");
            let t = b.create_block("t");
            let u = b.create_block("u");
            let j = b.create_block("j");
            b.switch_to_block(e);
            let x = b.param(0);
            let slot = b.alloca(Ty::F64);
            b.store(slot, x);
            let one = b.const_f64(1.0);
            let two = b.const_f64(2.0);
            let c = b.cmp(CmpPred::FLt, one, two); // constant condition
            b.cond_br(c, t, u);
            b.switch_to_block(t);
            let v = b.load(slot);
            let g = b.call(helper, vec![v]);
            b.store(slot, g);
            b.br(j);
            b.switch_to_block(u);
            b.br(j);
            b.switch_to_block(j);
            let out = b.load(slot);
            b.ret(Some(out));
        }
        (m, fid)
    }

    #[test]
    fn o0_changes_nothing() {
        let (mut m, fid) = build_demo_module();
        let before = m.function(fid).inst_count();
        let stats = PassManager::new(OptLevel::O0).run(&mut m);
        assert_eq!(stats.total_changes(), 0);
        assert_eq!(m.function(fid).inst_count(), before);
    }

    #[test]
    fn o1_promotes_and_folds() {
        let (mut m, _) = build_demo_module();
        let stats = PassManager::new(OptLevel::O1).run(&mut m);
        assert!(stats.promoted_allocas >= 1);
        assert!(stats.folded >= 1);
        distill_ir::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn o2_inlines_and_collapses_to_straightline_code() {
        let (mut m, fid) = build_demo_module();
        let stats = PassManager::new(OptLevel::O2).run(&mut m);
        assert!(stats.inlined_calls >= 1);
        let f = m.function(fid);
        assert_eq!(f.layout.len(), 1, "whole node collapses to one block");
        // Only the multiply by 2.0 should remain.
        assert_eq!(f.inst_count(), 1);
        distill_ir::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn levels_are_ordered_by_aggressiveness() {
        let (mut m0, f0) = build_demo_module();
        let (mut m3, f3) = build_demo_module();
        PassManager::new(OptLevel::O0).run(&mut m0);
        PassManager::new(OptLevel::O3).run(&mut m3);
        assert!(m3.function(f3).inst_count() <= m0.function(f0).inst_count());
    }

    #[test]
    fn stats_merge_adds_fields() {
        let a = PassStats {
            folded: 2,
            inlined_calls: 1,
            ..PassStats::default()
        };
        let mut b = PassStats {
            folded: 3,
            dce_removed: 4,
            ..PassStats::default()
        };
        b.merge(&a);
        assert_eq!(b.folded, 5);
        assert_eq!(b.dce_removed, 4);
        assert_eq!(b.inlined_calls, 1);
        assert_eq!(b.total_changes(), 10);
    }
}
