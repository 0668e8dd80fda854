//! Clone detection (§4.4, Fig. 3).
//!
//! Reimplements the role LLVM's `FunctionComparator` plays in the paper:
//! a structural, order-aware comparison of two functions in the same module
//! that decides whether they compute the identical function. Two levels are
//! offered:
//!
//! * [`functions_equivalent`] — direct structural comparison of two
//!   functions (after the standard pipeline has canonicalized both). This is
//!   the node-level check that recognises an LCA configured with
//!   `rate = 0, offset = 0, noise = N(0,1)` as identical to a DDM
//!   integrator (Fig. 3).
//! * [`models_equivalent`] — aggressively inlines every call in both
//!   functions, re-runs the cleanup pipeline, and then compares. Because the
//!   comparison happens at the IR level it is independent of how the model
//!   was factored into nodes, which is how the paper shows a hand-vectorized
//!   Necker-cube model equivalent to the original, and Extended Stroop A
//!   equivalent to Extended Stroop B.

use distill_ir::{Constant, FuncId, Function, Inst, Module, Terminator, ValueId, ValueKind};
use distill_opt::{inline, OptLevel, PassManager};
use std::collections::HashMap;

/// Outcome of a clone-detection query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CloneReport {
    /// Whether the two functions were proven structurally equivalent.
    pub equivalent: bool,
    /// Number of instruction pairs matched before success or first mismatch.
    pub matched_instructions: usize,
    /// Human-readable reason when not equivalent.
    pub mismatch: Option<String>,
}

impl CloneReport {
    fn ok(matched: usize) -> CloneReport {
        CloneReport {
            equivalent: true,
            matched_instructions: matched,
            mismatch: None,
        }
    }

    fn fail(matched: usize, why: impl Into<String>) -> CloneReport {
        CloneReport {
            equivalent: false,
            matched_instructions: matched,
            mismatch: Some(why.into()),
        }
    }
}

/// Structurally compare two functions of the same module.
///
/// The comparison walks both functions' blocks in layout order, pairing them
/// up, and requires instruction-for-instruction equality modulo a value
/// renaming that is built incrementally (the same discipline LLVM's
/// `FunctionComparator` uses). Run the optimizer over both functions first:
/// canonicalization is what makes superficially different models comparable.
pub fn functions_equivalent(module: &Module, a: FuncId, b: FuncId) -> CloneReport {
    let fa = module.function(a);
    let fb = module.function(b);
    compare_functions(fa, fb)
}

/// Compare two functions structurally (exposed for testing on detached
/// [`Function`] values).
pub fn compare_functions(fa: &Function, fb: &Function) -> CloneReport {
    let mut matched = 0usize;
    if fa.params.len() != fb.params.len() {
        return CloneReport::fail(matched, "parameter counts differ");
    }
    for (i, (pa, pb)) in fa.params.iter().zip(&fb.params).enumerate() {
        if pa != pb {
            return CloneReport::fail(matched, format!("parameter {i} types differ"));
        }
    }
    if fa.ret_ty != fb.ret_ty {
        return CloneReport::fail(matched, "return types differ");
    }
    if fa.layout.len() != fb.layout.len() {
        return CloneReport::fail(
            matched,
            format!(
                "block counts differ ({} vs {})",
                fa.layout.len(),
                fb.layout.len()
            ),
        );
    }

    // Value correspondence map (a-value -> b-value), seeded with parameters.
    let mut vmap: HashMap<ValueId, ValueId> = HashMap::new();
    for i in 0..fa.params.len() {
        vmap.insert(fa.param_value(i), fb.param_value(i));
    }
    // Block correspondence follows layout order.
    let mut bmap: HashMap<distill_ir::BlockId, distill_ir::BlockId> = HashMap::new();
    for (ba, bb) in fa.layout.iter().zip(&fb.layout) {
        bmap.insert(*ba, *bb);
    }

    for (ba, bb) in fa.layout.iter().zip(&fb.layout) {
        let blk_a = fa.block(*ba);
        let blk_b = fb.block(*bb);
        if blk_a.insts.len() != blk_b.insts.len() {
            return CloneReport::fail(
                matched,
                format!(
                    "block {} instruction counts differ ({} vs {})",
                    blk_a.name,
                    blk_a.insts.len(),
                    blk_b.insts.len()
                ),
            );
        }
        for (&va, &vb) in blk_a.insts.iter().zip(&blk_b.insts) {
            let ia = fa.as_inst(va).expect("scheduled value is an instruction");
            let ib = fb.as_inst(vb).expect("scheduled value is an instruction");
            if !insts_match(fa, fb, ia, ib, &vmap, &bmap) {
                return CloneReport::fail(
                    matched,
                    format!("instructions differ: `{ia:?}` vs `{ib:?}`"),
                );
            }
            if fa.ty(va) != fb.ty(vb) {
                return CloneReport::fail(matched, "instruction result types differ");
            }
            vmap.insert(va, vb);
            matched += 1;
        }
        let ta = blk_a.term.as_ref();
        let tb = blk_b.term.as_ref();
        match (ta, tb) {
            (Some(ta), Some(tb)) => {
                if !terms_match(fa, fb, ta, tb, &vmap, &bmap) {
                    return CloneReport::fail(matched, "terminators differ");
                }
            }
            _ => return CloneReport::fail(matched, "missing terminator"),
        }
    }
    CloneReport::ok(matched)
}

fn values_match(
    fa: &Function,
    fb: &Function,
    va: ValueId,
    vb: ValueId,
    vmap: &HashMap<ValueId, ValueId>,
) -> bool {
    // Constants compare by value; everything else through the mapping.
    match (&fa.value(va).kind, &fb.value(vb).kind) {
        (ValueKind::Const(ca), ValueKind::Const(cb)) => constants_match(ca, cb),
        _ => match vmap.get(&va) {
            Some(mapped) => *mapped == vb,
            // Forward reference (e.g. a loop phi's back-edge value defined in
            // a later block): compare by position, as LLVM's
            // FunctionComparator does; the referenced instructions are still
            // compared structurally when their block is reached.
            None => va == vb,
        },
    }
}

fn constants_match(a: &Constant, b: &Constant) -> bool {
    // Numeric equality rather than bit equality: 1.0 written as f64 in one
    // model and produced by folding in another should still match, but
    // 0.0 vs -0.0 are kept distinct (they behave differently under
    // division).
    match (a, b) {
        (Constant::F64(x), Constant::F64(y)) => x.to_bits() == y.to_bits(),
        (Constant::F32(x), Constant::F32(y)) => x.to_bits() == y.to_bits(),
        (Constant::I64(x), Constant::I64(y)) => x == y,
        (Constant::Bool(x), Constant::Bool(y)) => x == y,
        (Constant::Undef, Constant::Undef) => true,
        _ => false,
    }
}

fn operand_lists_match(
    fa: &Function,
    fb: &Function,
    a: &[ValueId],
    b: &[ValueId],
    vmap: &HashMap<ValueId, ValueId>,
) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| values_match(fa, fb, *x, *y, vmap))
}

fn insts_match(
    fa: &Function,
    fb: &Function,
    ia: &Inst,
    ib: &Inst,
    vmap: &HashMap<ValueId, ValueId>,
    bmap: &HashMap<distill_ir::BlockId, distill_ir::BlockId>,
) -> bool {
    use Inst::*;
    match (ia, ib) {
        (
            Bin {
                op: oa,
                lhs: la,
                rhs: ra,
            },
            Bin {
                op: ob,
                lhs: lb,
                rhs: rb,
            },
        ) => {
            if oa != ob {
                return false;
            }
            if operand_lists_match(fa, fb, &[*la, *ra], &[*lb, *rb], vmap) {
                return true;
            }
            // Commutative operations may have swapped operands.
            oa.is_commutative() && operand_lists_match(fa, fb, &[*la, *ra], &[*rb, *lb], vmap)
        }
        (Un { op: oa, val: va }, Un { op: ob, val: vb }) => {
            oa == ob && values_match(fa, fb, *va, *vb, vmap)
        }
        (
            Cmp {
                pred: pa,
                lhs: la,
                rhs: ra,
            },
            Cmp {
                pred: pb,
                lhs: lb,
                rhs: rb,
            },
        ) => {
            (pa == pb && operand_lists_match(fa, fb, &[*la, *ra], &[*lb, *rb], vmap))
                || (pa.swapped() == *pb
                    && operand_lists_match(fa, fb, &[*la, *ra], &[*rb, *lb], vmap))
        }
        (
            Select {
                cond: ca,
                then_val: ta,
                else_val: ea,
            },
            Select {
                cond: cb,
                then_val: tb,
                else_val: eb,
            },
        ) => operand_lists_match(fa, fb, &[*ca, *ta, *ea], &[*cb, *tb, *eb], vmap),
        (
            Call {
                callee: ca,
                args: aa,
            },
            Call {
                callee: cb,
                args: ab,
            },
        ) => ca == cb && operand_lists_match(fa, fb, aa, ab, vmap),
        (IntrinsicCall { kind: ka, args: aa }, IntrinsicCall { kind: kb, args: ab }) => {
            ka == kb && operand_lists_match(fa, fb, aa, ab, vmap)
        }
        (Alloca { ty: ta }, Alloca { ty: tb }) => ta == tb,
        (Load { ptr: pa }, Load { ptr: pb }) => values_match(fa, fb, *pa, *pb, vmap),
        (Store { ptr: pa, value: va }, Store { ptr: pb, value: vb }) => {
            operand_lists_match(fa, fb, &[*pa, *va], &[*pb, *vb], vmap)
        }
        (
            Gep {
                base: ba,
                indices: ia,
            },
            Gep {
                base: bb,
                indices: ib,
            },
        ) => {
            if !values_match(fa, fb, *ba, *bb, vmap) || ia.len() != ib.len() {
                return false;
            }
            ia.iter().zip(ib).all(|(x, y)| match (x, y) {
                (distill_ir::inst::GepIndex::Const(a), distill_ir::inst::GepIndex::Const(b)) => {
                    a == b
                }
                (distill_ir::inst::GepIndex::Dyn(a), distill_ir::inst::GepIndex::Dyn(b)) => {
                    values_match(fa, fb, *a, *b, vmap)
                }
                _ => false,
            })
        }
        (
            Phi {
                ty: ta,
                incoming: ia,
            },
            Phi {
                ty: tb,
                incoming: ib,
            },
        ) => {
            if ta != tb || ia.len() != ib.len() {
                return false;
            }
            // Incoming edges must match under the block mapping, order
            // insensitive.
            ia.iter().all(|(pa, va)| {
                let Some(pb) = bmap.get(pa) else { return false };
                ib.iter()
                    .any(|(qb, vb)| qb == pb && values_match(fa, fb, *va, *vb, vmap))
            })
        }
        (
            Cast {
                kind: ka,
                val: va,
                to: ta,
            },
            Cast {
                kind: kb,
                val: vb,
                to: tb,
            },
        ) => ka == kb && ta == tb && values_match(fa, fb, *va, *vb, vmap),
        (GlobalAddr { global: ga }, GlobalAddr { global: gb }) => ga == gb,
        _ => false,
    }
}

fn terms_match(
    fa: &Function,
    fb: &Function,
    ta: &Terminator,
    tb: &Terminator,
    vmap: &HashMap<ValueId, ValueId>,
    bmap: &HashMap<distill_ir::BlockId, distill_ir::BlockId>,
) -> bool {
    match (ta, tb) {
        (Terminator::Br(a), Terminator::Br(b)) => bmap.get(a) == Some(b),
        (
            Terminator::CondBr {
                cond: ca,
                then_blk: tba,
                else_blk: eba,
            },
            Terminator::CondBr {
                cond: cb,
                then_blk: tbb,
                else_blk: ebb,
            },
        ) => {
            values_match(fa, fb, *ca, *cb, vmap)
                && bmap.get(tba) == Some(tbb)
                && bmap.get(eba) == Some(ebb)
        }
        (Terminator::Ret(Some(a)), Terminator::Ret(Some(b))) => values_match(fa, fb, *a, *b, vmap),
        (Terminator::Ret(None), Terminator::Ret(None)) => true,
        (Terminator::Unreachable, Terminator::Unreachable) => true,
        _ => false,
    }
}

/// Whole-model equivalence: clone the module, aggressively inline every call
/// inside both functions, run the `O2` pipeline to canonicalize, and compare
/// the flattened bodies.
pub fn models_equivalent(module: &Module, a: FuncId, b: FuncId) -> CloneReport {
    let mut work = module.clone();
    let opts = inline::InlineOptions {
        max_callee_insts: usize::MAX / 2,
        max_inlined_calls: 100_000,
    };
    inline::inline_all_calls_in(&mut work, a, opts);
    inline::inline_all_calls_in(&mut work, b, opts);
    PassManager::new(OptLevel::O2).run(&mut work);
    functions_equivalent(&work, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_ir::{FunctionBuilder, Ty};

    /// Build a module containing two integrator step functions:
    /// a DDM step `x + rate*dt*stimulus + noise*sqrt(dt)*z` and an LCA step
    /// `x + dt*(stimulus - leak*x) + noise*sqrt(dt)*z` — with `leak = 0`,
    /// `rate = 1`, identical noise, the LCA collapses to the DDM (Fig. 3).
    fn integrator_module(lca_leak: f64, ddm_rate: f64) -> (Module, FuncId, FuncId) {
        let mut m = Module::new("integrators");
        // Parameters: x (current evidence), stimulus, z (unit normal draw).
        let ddm = m.declare_function("ddm_step", vec![Ty::F64, Ty::F64, Ty::F64], Ty::F64);
        let dt = 0.01;
        let noise = 1.0;
        {
            let f = m.function_mut(ddm);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let stim = b.param(1);
            let z = b.param(2);
            let rate = b.const_f64(ddm_rate);
            let dt_c = b.const_f64(dt);
            let drift = b.fmul(rate, stim);
            let drift_dt = b.fmul(drift, dt_c);
            let noise_c = b.const_f64(noise);
            let sqrt_dt = b.const_f64(dt.sqrt());
            let diff = b.fmul(noise_c, sqrt_dt);
            let shock = b.fmul(diff, z);
            let x1 = b.fadd(x, drift_dt);
            let x2 = b.fadd(x1, shock);
            b.ret(Some(x2));
        }
        let lca = m.declare_function("lca_step", vec![Ty::F64, Ty::F64, Ty::F64], Ty::F64);
        {
            let f = m.function_mut(lca);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let stim = b.param(1);
            let z = b.param(2);
            let leak = b.const_f64(lca_leak);
            let dt_c = b.const_f64(dt);
            // input = stimulus - leak * x
            let leak_x = b.fmul(leak, x);
            let input = b.fsub(stim, leak_x);
            let drift_dt = b.fmul(input, dt_c);
            let noise_c = b.const_f64(noise);
            let sqrt_dt = b.const_f64(dt.sqrt());
            let diff = b.fmul(noise_c, sqrt_dt);
            let shock = b.fmul(diff, z);
            let x1 = b.fadd(x, drift_dt);
            let x2 = b.fadd(x1, shock);
            b.ret(Some(x2));
        }
        (m, ddm, lca)
    }

    #[test]
    fn lca_with_zero_leak_equals_ddm() {
        // rate_DDM = 1, leak_LCA = 0: with bounded evidence/stimulus ranges
        // (proved by the sanitization run), range-guided fast-math removes
        // the `0 * x` leak term and constant folding reduces both bodies to
        // x + stim*dt + noise*sqrt(dt)*z, which the comparator then proves
        // identical (Fig. 3).
        let (mut m, ddm, lca) = integrator_module(0.0, 1.0);
        let mut vrp_opts = crate::vrp::VrpOptions::default();
        for i in 0..3 {
            vrp_opts
                .param_ranges
                .insert(i, crate::vrp::Interval::new(-100.0, 100.0));
        }
        crate::fastmath::apply_fast_math_module(&mut m, &vrp_opts);
        PassManager::new(OptLevel::O2).run(&mut m);
        let report = functions_equivalent(&m, ddm, lca);
        assert!(report.equivalent, "mismatch: {:?}", report.mismatch);
        assert!(report.matched_instructions >= 4);
    }

    #[test]
    fn lca_with_nonzero_leak_differs_from_ddm() {
        let (mut m, ddm, lca) = integrator_module(0.5, 1.0);
        PassManager::new(OptLevel::O2).run(&mut m);
        let report = functions_equivalent(&m, ddm, lca);
        assert!(!report.equivalent);
        assert!(report.mismatch.is_some());
    }

    #[test]
    fn identical_functions_are_clones_without_optimization() {
        let (m, ddm, _) = integrator_module(0.0, 1.0);
        let report = functions_equivalent(&m, ddm, ddm);
        assert!(report.equivalent);
    }

    #[test]
    fn commutative_operand_order_does_not_matter() {
        let mut m = Module::new("m");
        let a = m.declare_function("a", vec![Ty::F64, Ty::F64], Ty::F64);
        {
            let f = m.function_mut(a);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let y = b.param(1);
            let r = b.fadd(x, y);
            b.ret(Some(r));
        }
        let bfun = m.declare_function("b", vec![Ty::F64, Ty::F64], Ty::F64);
        {
            let f = m.function_mut(bfun);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let y = b.param(1);
            let r = b.fadd(y, x);
            b.ret(Some(r));
        }
        assert!(functions_equivalent(&m, a, bfun).equivalent);
    }

    #[test]
    fn whole_model_equivalence_through_inlining() {
        // Model A calls a helper twice; model B writes the same computation
        // out by hand. They are structurally different until inlining.
        let mut m = Module::new("m");
        let helper = m.declare_function("double_it", vec![Ty::F64], Ty::F64);
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
        let model_a = m.declare_function("model_a", vec![Ty::F64], Ty::F64);
        {
            let sigs: Vec<(Vec<Ty>, Ty)> = m
                .functions
                .iter()
                .map(|f| (f.params.clone(), f.ret_ty.clone()))
                .collect();
            let f = m.function_mut(model_a);
            let mut b = FunctionBuilder::new(f).with_signatures(sigs);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let d1 = b.call(helper, vec![x]);
            let d2 = b.call(helper, vec![d1]);
            b.ret(Some(d2));
        }
        let model_b = m.declare_function("model_b", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(model_b);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let two = b.const_f64(2.0);
            let d1 = b.fmul(x, two);
            let d2 = b.fmul(d1, two);
            b.ret(Some(d2));
        }
        // Direct comparison fails (one has calls, the other arithmetic)...
        assert!(!functions_equivalent(&m, model_a, model_b).equivalent);
        // ...whole-model comparison after inlining succeeds.
        let report = models_equivalent(&m, model_a, model_b);
        assert!(report.equivalent, "mismatch: {:?}", report.mismatch);
    }

    #[test]
    fn different_parameter_counts_are_rejected_early() {
        let mut m = Module::new("m");
        let a = m.declare_function("a", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(a);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            b.ret(Some(x));
        }
        let b2 = m.declare_function("b", vec![Ty::F64, Ty::F64], Ty::F64);
        {
            let f = m.function_mut(b2);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            b.ret(Some(x));
        }
        let r = functions_equivalent(&m, a, b2);
        assert!(!r.equivalent);
        assert_eq!(r.matched_instructions, 0);
    }
}
