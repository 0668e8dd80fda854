//! Floating-point scalar evolution (§4.2).
//!
//! LLVM's scalar evolution recognises integer add-recurrences of the form
//! `{init, +, step}` and uses them to compute loop trip counts. The paper
//! extends the analysis to floating point so that evidence-accumulation
//! models (drift-diffusion and related integrators) can be asked, *without
//! running them*, "after how many time steps does the accumulated evidence
//! cross the decision threshold?" — the minimum trip count of the
//! accumulation loop.
//!
//! The implementation recognises the canonical loop shape produced by
//! `distill-codegen`: a header phi `x = phi(init from preheader, next from
//! latch)` whose latch value is `x + step` (or `x - step`) with a
//! loop-invariant `step`, and an exit condition comparing an add-recurrence
//! (or the phi directly) against a loop-invariant bound.

use distill_ir::cfg::{find_loops, Cfg, DomTree, Loop};
use distill_ir::{BinOp, CmpPred, Function, Inst, Terminator, ValueId, ValueKind};
use std::collections::HashMap;

/// An add-recurrence `{init, +, step}` attached to a loop header phi.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AddRec {
    /// Value on loop entry.
    pub init: f64,
    /// Amount added on every iteration (negative for down-counting loops).
    pub step: f64,
}

impl AddRec {
    /// The value of the recurrence at the start of iteration `n` (0-based):
    /// `init + n * step`.
    pub fn value_at(&self, n: f64) -> f64 {
        self.init + n * self.step
    }

    /// The smallest non-negative `n` such that `value_at(n)` crosses
    /// `bound` in the direction implied by the step sign, or `None` if the
    /// recurrence never reaches it.
    pub fn iterations_to_reach(&self, bound: f64) -> Option<f64> {
        if self.step == 0.0 {
            return None;
        }
        let n = (bound - self.init) / self.step;
        if n.is_nan() || n < 0.0 {
            None
        } else {
            Some(n.ceil())
        }
    }
}

/// What scalar evolution discovered about one natural loop.
#[derive(Debug, Clone)]
pub struct LoopEvolution {
    /// The loop header block.
    pub header: distill_ir::BlockId,
    /// Add-recurrences per header phi value.
    pub recurrences: HashMap<ValueId, AddRec>,
    /// Minimum number of iterations before the exit condition can become
    /// false (i.e. before the loop can exit), when computable. This is the
    /// quantity the paper uses as the convergence-time estimate.
    pub min_trip_count: Option<u64>,
}

/// Analyze every natural loop of `func` and return its evolutions.
pub fn analyze_loops(func: &Function) -> Vec<LoopEvolution> {
    if func.layout.is_empty() {
        return Vec::new();
    }
    let cfg = Cfg::new(func);
    let dom = DomTree::new(func, &cfg);
    let loops = find_loops(func, &cfg, &dom);
    loops
        .iter()
        .map(|lp| analyze_loop(func, &cfg, lp))
        .collect()
}

fn constant_f64(func: &Function, v: ValueId) -> Option<f64> {
    func.as_constant(v).and_then(|c| c.as_f64())
}

fn analyze_loop(func: &Function, cfg: &Cfg, lp: &Loop) -> LoopEvolution {
    let mut recurrences = HashMap::new();
    let preheader = lp.preheader(cfg);

    // Find header phis of the shape {init, +, step}.
    for &v in &func.block(lp.header).insts {
        let Some(Inst::Phi { incoming, .. }) = func.as_inst(v) else {
            continue;
        };
        let mut init: Option<f64> = None;
        let mut step: Option<f64> = None;
        for (pred, val) in incoming {
            let from_outside = Some(*pred) == preheader || !lp.contains(*pred);
            if from_outside {
                init = constant_f64(func, *val);
            } else {
                // The latch value must be phi ± constant.
                if let Some(Inst::Bin { op, lhs, rhs }) = func.as_inst(*val) {
                    let s = match op {
                        BinOp::FAdd | BinOp::Add => {
                            if *lhs == v {
                                constant_f64(func, *rhs)
                            } else if *rhs == v {
                                constant_f64(func, *lhs)
                            } else {
                                None
                            }
                        }
                        BinOp::FSub | BinOp::Sub => {
                            if *lhs == v {
                                constant_f64(func, *rhs).map(|s| -s)
                            } else {
                                None
                            }
                        }
                        _ => None,
                    };
                    step = s;
                }
            }
        }
        if let (Some(init), Some(step)) = (init, step) {
            recurrences.insert(v, AddRec { init, step });
        }
    }

    let min_trip_count = min_trip_count(func, cfg, lp, &recurrences);
    LoopEvolution {
        header: lp.header,
        recurrences,
        min_trip_count,
    }
}

/// Derive the minimum trip count from the loop's exit condition when it
/// compares an add-recurrence (possibly through `fabs`) against a
/// loop-invariant constant bound.
fn min_trip_count(
    func: &Function,
    _cfg: &Cfg,
    lp: &Loop,
    recs: &HashMap<ValueId, AddRec>,
) -> Option<u64> {
    // The exiting block is the header (rotated loops also exit from the
    // latch; check both).
    let mut candidates: Vec<distill_ir::BlockId> = vec![lp.header];
    candidates.extend(lp.latches.iter().copied());

    for blk in candidates {
        let Some(Terminator::CondBr {
            cond,
            then_blk,
            else_blk,
        }) = func.block(blk).term.clone()
        else {
            continue;
        };
        let exits_loop = !lp.contains(then_blk) || !lp.contains(else_blk);
        if !exits_loop {
            continue;
        }
        let Some(Inst::Cmp { pred, lhs, rhs }) = func.as_inst(cond) else {
            continue;
        };
        // Which side is the evolving value and which the bound?
        let (evolving, bound, pred) = if let Some(b) = constant_f64(func, *rhs) {
            (*lhs, b, *pred)
        } else if let Some(b) = constant_f64(func, *lhs) {
            (*rhs, b, pred.swapped())
        } else {
            continue;
        };
        // The evolving side may be the phi itself or |phi|.
        let rec = resolve_recurrence(func, evolving, recs)?;
        // "Loop continues while evolving < bound" style conditions: the loop
        // runs at least until the recurrence reaches the bound.
        let continues_while_less = matches!(
            pred,
            CmpPred::FLt | CmpPred::FLe | CmpPred::ILt | CmpPred::ILe
        ) == lp.contains(then_blk);
        let target = bound;
        let n = if continues_while_less {
            rec.iterations_to_reach(target)
        } else {
            // Loop continues while evolving > bound (down-counting).
            rec.iterations_to_reach(target)
        }?;
        if n.is_finite() && n >= 0.0 {
            return Some(n as u64);
        }
    }
    None
}

/// Resolve `v` to an add-recurrence: either a header phi directly or
/// `fabs(phi)` / `phi op invariant` one level deep.
fn resolve_recurrence(
    func: &Function,
    v: ValueId,
    recs: &HashMap<ValueId, AddRec>,
) -> Option<AddRec> {
    if let Some(r) = recs.get(&v) {
        return Some(*r);
    }
    match &func.value(v).kind {
        ValueKind::Inst(Inst::IntrinsicCall { kind, args })
            if *kind == distill_ir::Intrinsic::FAbs =>
        {
            recs.get(&args[0]).map(|r| AddRec {
                init: r.init.abs(),
                step: r.step.abs(),
            })
        }
        ValueKind::Inst(Inst::Bin { op, lhs, rhs }) => {
            // recurrence + invariant constant, or recurrence that the latch
            // already advanced (e.g. comparing `next` instead of the phi).
            let k_rhs = constant_f64(func, *rhs);
            let k_lhs = constant_f64(func, *lhs);
            match op {
                BinOp::FAdd | BinOp::Add => {
                    if let (Some(r), Some(k)) = (recs.get(lhs), k_rhs) {
                        Some(AddRec {
                            init: r.init + k,
                            step: r.step,
                        })
                    } else if let (Some(r), Some(k)) = (recs.get(rhs), k_lhs) {
                        Some(AddRec {
                            init: r.init + k,
                            step: r.step,
                        })
                    } else {
                        None
                    }
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Convenience used by the DDM convergence experiment: estimated number of
/// integration steps for a drift-diffusion style accumulator starting at
/// `start`, drifting by `rate * dt` per step, to reach `threshold` (in
/// absolute value). Pure closed form — this is the quantity the compiler
/// derives from the IR via [`analyze_loops`], exposed directly so tests and
/// benches can compare against it.
pub fn ddm_expected_steps(start: f64, rate: f64, dt: f64, threshold: f64) -> Option<u64> {
    let rec = AddRec {
        init: start,
        step: rate * dt,
    };
    let target = if rate >= 0.0 { threshold } else { -threshold };
    rec.iterations_to_reach(target).map(|n| n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_ir::{FunctionBuilder, Module, Ty};

    /// Build the canonical evidence-accumulation loop:
    /// `x = 0; while x < threshold { x += rate * dt; n += 1 } return n`
    /// with `rate * dt` pre-folded into a single constant step.
    fn accumulation_loop(step: f64, threshold: f64) -> (Module, distill_ir::FuncId) {
        let mut m = Module::new("m");
        let fid = m.declare_function("ddm_steps", vec![], Ty::I64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let entry = b.create_block("entry");
            let header = b.create_block("header");
            let body = b.create_block("body");
            let exit = b.create_block("exit");
            b.switch_to_block(entry);
            let zero = b.const_f64(0.0);
            let zero_i = b.const_i64(0);
            let one_i = b.const_i64(1);
            let step_c = b.const_f64(step);
            let thr = b.const_f64(threshold);
            b.br(header);
            b.switch_to_block(header);
            let x = b.empty_phi(Ty::F64);
            let n = b.empty_phi(Ty::I64);
            b.add_phi_incoming(x, entry, zero);
            b.add_phi_incoming(n, entry, zero_i);
            let c = b.cmp(distill_ir::CmpPred::FLt, x, thr);
            b.cond_br(c, body, exit);
            b.switch_to_block(body);
            let x2 = b.fadd(x, step_c);
            let n2 = b.iadd(n, one_i);
            b.add_phi_incoming(x, body, x2);
            b.add_phi_incoming(n, body, n2);
            b.br(header);
            b.switch_to_block(exit);
            b.ret(Some(n));
        }
        (m, fid)
    }

    #[test]
    fn recognizes_fp_add_recurrence() {
        let (m, fid) = accumulation_loop(0.1, 1.0);
        let evs = analyze_loops(m.function(fid));
        assert_eq!(evs.len(), 1);
        let ev = &evs[0];
        // Two recurrences: the float accumulator and the integer counter.
        assert_eq!(ev.recurrences.len(), 2);
        let float_rec = ev
            .recurrences
            .values()
            .find(|r| (r.step - 0.1).abs() < 1e-12)
            .expect("float add-recurrence found");
        assert_eq!(float_rec.init, 0.0);
    }

    #[test]
    fn min_trip_count_matches_closed_form() {
        for (step, thr) in [(0.1, 1.0), (0.05, 2.0), (0.25, 1.0), (0.001, 0.5)] {
            let (m, fid) = accumulation_loop(step, thr);
            let evs = analyze_loops(m.function(fid));
            let got = evs[0].min_trip_count.expect("trip count computable");
            let expected = (thr / step).ceil() as u64;
            assert_eq!(got, expected, "step={step} thr={thr}");
        }
    }

    #[test]
    fn ddm_expected_steps_closed_form() {
        assert_eq!(ddm_expected_steps(0.0, 1.0, 0.01, 1.0), Some(100));
        assert_eq!(ddm_expected_steps(0.0, 2.0, 0.01, 1.0), Some(50));
        assert_eq!(ddm_expected_steps(0.5, 1.0, 0.01, 1.0), Some(50));
        // Negative drift towards the negative threshold.
        assert_eq!(ddm_expected_steps(0.0, -1.0, 0.01, 1.0), Some(100));
        // Zero drift never converges by drift alone.
        assert_eq!(ddm_expected_steps(0.0, 0.0, 0.01, 1.0), None);
    }

    #[test]
    fn value_at_and_iterations_to_reach() {
        let rec = AddRec {
            init: 0.5,
            step: 0.25,
        };
        assert!((rec.value_at(4.0) - 1.5).abs() < 1e-12);
        assert_eq!(rec.iterations_to_reach(1.0), Some(2.0));
        // Already past the bound: not reachable going forward.
        assert_eq!(rec.iterations_to_reach(0.25), None);
        let down = AddRec {
            init: 1.0,
            step: -0.1,
        };
        assert_eq!(down.iterations_to_reach(0.0), Some(10.0));
    }

    #[test]
    fn loops_without_constant_bounds_report_no_trip_count() {
        // Same loop but the threshold is a parameter, not a constant.
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![Ty::F64], Ty::I64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let entry = b.create_block("entry");
            let header = b.create_block("header");
            let body = b.create_block("body");
            let exit = b.create_block("exit");
            b.switch_to_block(entry);
            let zero = b.const_f64(0.0);
            let zero_i = b.const_i64(0);
            let one_i = b.const_i64(1);
            let step_c = b.const_f64(0.1);
            b.br(header);
            b.switch_to_block(header);
            let x = b.empty_phi(Ty::F64);
            let n = b.empty_phi(Ty::I64);
            b.add_phi_incoming(x, entry, zero);
            b.add_phi_incoming(n, entry, zero_i);
            let thr = b.param(0);
            let c = b.cmp(distill_ir::CmpPred::FLt, x, thr);
            b.cond_br(c, body, exit);
            b.switch_to_block(body);
            let x2 = b.fadd(x, step_c);
            let n2 = b.iadd(n, one_i);
            b.add_phi_incoming(x, body, x2);
            b.add_phi_incoming(n, body, n2);
            b.br(header);
            b.switch_to_block(exit);
            b.ret(Some(n));
        }
        let evs = analyze_loops(m.function(fid));
        assert_eq!(evs.len(), 1);
        assert!(evs[0].min_trip_count.is_none());
        // The recurrence itself is still recognised.
        assert!(!evs[0].recurrences.is_empty());
    }
}
