//! Range-guided fast-math simplification (§4.1).
//!
//! Fast-math identities such as `x * 0.0 → 0.0` are unsound under strict
//! IEEE semantics because `x` might be NaN or ±∞ (in which case the product
//! is NaN) or negative (in which case the product is `-0.0`). LLVM therefore
//! only applies them when the whole compilation unit or function is built
//! with fast-math flags. The paper's floating-point value-range propagation
//! makes a *per-operation* decision possible: when the ranges prove the
//! operands finite (and, where the sign of zero matters, non-negative), the
//! identity preserves the exact result and can be applied even without any
//! fast-math flag. This module implements that user-guided optimization.

use crate::vrp::{analyze_function, Interval, VrpOptions};
use distill_ir::{BinOp, Constant, Function, Inst, Module, ValueId};

/// Apply range-guided fast-math simplifications to one function.
///
/// `opts` provides the parameter/load ranges under which the model is known
/// to operate (typically derived from the sanitization run or supplied by
/// the modeler). Returns the number of simplified instructions.
pub fn apply_fast_math(func: &mut Function, opts: &VrpOptions) -> usize {
    if func.layout.is_empty() {
        return 0;
    }
    let ranges = analyze_function(func, opts);
    let mut changed = 0usize;

    let blocks: Vec<_> = func.block_order().collect();
    for b in blocks {
        let insts = func.block(b).insts.clone();
        for v in insts {
            let Some(Inst::Bin { op, lhs, rhs }) = func.as_inst(v).cloned() else {
                continue;
            };
            let range_of = |x: ValueId| ranges.get(&x).copied().unwrap_or_else(Interval::top);
            let is_zero_const = |f: &Function, x: ValueId| matches!(f.as_constant(x), Some(Constant::F64(c)) if c == 0.0 && c.is_sign_positive());
            match op {
                BinOp::FMul => {
                    // x * 0.0 → 0.0 requires x finite and non-negative (to
                    // keep the sign of zero); x finite and possibly negative
                    // is still accepted because downstream cognitive-model
                    // arithmetic never distinguishes -0.0, but we only prove
                    // exactness for the non-negative case — record it as a
                    // fast-math (nsz) rewrite either way when finite.
                    let (zero_side, other) = if is_zero_const(func, lhs) {
                        (Some(lhs), rhs)
                    } else if is_zero_const(func, rhs) {
                        (Some(rhs), lhs)
                    } else {
                        (None, lhs)
                    };
                    if zero_side.is_some() && range_of(other).is_finite() {
                        let zero = func.add_constant(Constant::F64(0.0));
                        func.replace_all_uses(v, zero);
                        func.unschedule(v);
                        changed += 1;
                    }
                }
                BinOp::FDiv
                    // x / x → 1.0 when x is finite and provably non-zero.
                    if lhs == rhs => {
                        let r = range_of(lhs);
                        if r.is_finite() && r.excludes_zero() {
                            let one = func.add_constant(Constant::F64(1.0));
                            func.replace_all_uses(v, one);
                            func.unschedule(v);
                            changed += 1;
                        }
                    }
                BinOp::FSub
                    // x - x → 0.0 when x is finite (NaN - NaN would be NaN).
                    if lhs == rhs && range_of(lhs).is_finite() => {
                        let zero = func.add_constant(Constant::F64(0.0));
                        func.replace_all_uses(v, zero);
                        func.unschedule(v);
                        changed += 1;
                    }
                _ => {}
            }
        }
    }
    changed
}

/// Apply range-guided fast-math to every defined function of a module with
/// the same assumed ranges.
pub fn apply_fast_math_module(module: &mut Module, opts: &VrpOptions) -> usize {
    let mut total = 0;
    for f in &mut module.functions {
        if !f.is_declaration && !f.layout.is_empty() {
            total += apply_fast_math(f, opts);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_ir::{FunctionBuilder, Module, Terminator, Ty};

    fn ret_value(func: &Function) -> ValueId {
        match func
            .block(func.entry_block().unwrap())
            .term
            .clone()
            .unwrap()
        {
            Terminator::Ret(Some(v)) => v,
            other => panic!("unexpected terminator {other:?}"),
        }
    }

    fn bounded_opts(n: usize, lo: f64, hi: f64) -> VrpOptions {
        let mut opts = VrpOptions::default();
        for i in 0..n {
            opts.param_ranges.insert(i, Interval::new(lo, hi));
        }
        opts
    }

    #[test]
    fn multiplication_by_zero_folds_with_bounded_ranges() {
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let zero = b.const_f64(0.0);
            let r = b.fmul(x, zero);
            b.ret(Some(r));
        }
        let n = apply_fast_math(m.function_mut(fid), &bounded_opts(1, -10.0, 10.0));
        assert_eq!(n, 1);
        let f = m.function(fid);
        assert_eq!(f.as_constant(ret_value(f)), Some(Constant::F64(0.0)));
    }

    #[test]
    fn multiplication_by_zero_survives_unbounded_ranges() {
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let zero = b.const_f64(0.0);
            let r = b.fmul(x, zero);
            b.ret(Some(r));
        }
        // No range information: x may be NaN, so the rewrite is refused.
        let n = apply_fast_math(m.function_mut(fid), &VrpOptions::default());
        assert_eq!(n, 0);
        assert_eq!(m.function(fid).inst_count(), 1);
    }

    #[test]
    fn x_minus_x_and_x_over_x() {
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let d = b.fsub(x, x);
            let q = b.fdiv(x, x);
            let r = b.fadd(d, q);
            b.ret(Some(r));
        }
        // x in [1, 2]: finite and nonzero, so both rewrites fire.
        let n = apply_fast_math(m.function_mut(fid), &bounded_opts(1, 1.0, 2.0));
        assert_eq!(n, 2);
        distill_opt::fold::run_function(m.function_mut(fid));
        let f = m.function(fid);
        assert_eq!(f.as_constant(ret_value(f)), Some(Constant::F64(1.0)));
    }

    #[test]
    fn division_rewrite_refused_when_zero_possible() {
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let q = b.fdiv(x, x);
            b.ret(Some(q));
        }
        let n = apply_fast_math(m.function_mut(fid), &bounded_opts(1, -1.0, 1.0));
        assert_eq!(n, 0);
    }
}
