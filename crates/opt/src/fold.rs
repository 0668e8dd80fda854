//! Constant folding, constant propagation and algebraic simplification.
//!
//! This pass is the workhorse that, combined with [`mem2reg`](crate::mem2reg)
//! and [`inline`](crate::inline), collapses the scheduler bookkeeping and
//! fixed parameters of a cognitive model into straight-line arithmetic — the
//! effect the paper attributes to "standard optimizations on LLVM IR"
//! becoming possible once dynamic structures are gone (§3.5).

use distill_ir::{
    BinOp, CastKind, CmpPred, Constant, Function, Inst, Intrinsic, Module, Replacements, UnOp,
    ValueId,
};

/// Fold constants in a single function. Returns the number of instructions
/// replaced by constants or simplified operands.
pub fn run_function(func: &mut Function) -> usize {
    let mut changes = 0;
    loop {
        // A round records its replacements and applies them at its end; an
        // instruction's operands are resolved before it is folded.
        let mut repl = Replacements::default();
        let block_ids: Vec<_> = func.block_order().collect();
        for b in block_ids {
            let insts = func.block(b).insts.clone();
            for v in insts {
                func.resolve_operands(v, &repl);
                match try_fold(func, v) {
                    Some(Folded::Const(c)) => {
                        let k = func.add_constant(c);
                        repl.insert(v, k);
                    }
                    Some(Folded::Value(other)) => repl.insert(v, other),
                    None => continue,
                }
                changes += 1;
            }
        }
        if repl.is_empty() {
            break;
        }
        func.replace_uses(&repl);
        func.unschedule_if(|v| repl.contains(v));
    }
    changes
}

/// Fold constants in every defined function of a module.
pub fn run(module: &mut Module) -> usize {
    let mut total = 0;
    for f in &mut module.functions {
        if !f.is_declaration && !f.layout.is_empty() {
            total += run_function(f);
        }
    }
    total
}

enum Folded {
    Const(Constant),
    Value(ValueId),
}

fn constant_of(func: &Function, v: ValueId) -> Option<Constant> {
    func.as_constant(v)
}

fn f64_of(func: &Function, v: ValueId) -> Option<f64> {
    constant_of(func, v).and_then(|c| match c {
        Constant::F64(x) => Some(x),
        Constant::F32(x) => Some(x as f64),
        _ => None,
    })
}

fn i64_of(func: &Function, v: ValueId) -> Option<i64> {
    constant_of(func, v).and_then(|c| c.as_i64())
}

fn is_f64_const(func: &Function, v: ValueId, k: f64) -> bool {
    matches!(f64_of(func, v), Some(x) if x == k)
}

fn try_fold(func: &Function, v: ValueId) -> Option<Folded> {
    let inst = func.as_inst(v)?.clone();
    match inst {
        Inst::Bin { op, lhs, rhs } => fold_bin(func, op, lhs, rhs),
        Inst::Un { op, val } => fold_un(func, op, val),
        Inst::Cmp { pred, lhs, rhs } => fold_cmp(func, pred, lhs, rhs),
        Inst::Select {
            cond,
            then_val,
            else_val,
        } => match constant_of(func, cond).and_then(|c| c.as_bool()) {
            Some(true) => Some(Folded::Value(then_val)),
            Some(false) => Some(Folded::Value(else_val)),
            None => {
                if then_val == else_val {
                    Some(Folded::Value(then_val))
                } else {
                    None
                }
            }
        },
        Inst::IntrinsicCall { kind, args } => fold_intrinsic(func, kind, &args),
        Inst::Cast { kind, val, .. } => fold_cast(func, kind, val),
        _ => None,
    }
}

fn fold_bin(func: &Function, op: BinOp, lhs: ValueId, rhs: ValueId) -> Option<Folded> {
    // Full constant folding first.
    if op.is_float() {
        if let (Some(a), Some(b)) = (f64_of(func, lhs), f64_of(func, rhs)) {
            let r = match op {
                BinOp::FAdd => a + b,
                BinOp::FSub => a - b,
                BinOp::FMul => a * b,
                BinOp::FDiv => a / b,
                BinOp::FRem => a % b,
                _ => unreachable!(),
            };
            return Some(Folded::Const(Constant::F64(r)));
        }
    } else if let (Some(a), Some(b)) = (i64_of(func, lhs), i64_of(func, rhs)) {
        let r = match op {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::SDiv => {
                if b == 0 {
                    return None;
                }
                a.wrapping_div(b)
            }
            BinOp::SRem => {
                if b == 0 {
                    return None;
                }
                a.wrapping_rem(b)
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl(b as u32),
            BinOp::LShr => ((a as u64).wrapping_shr(b as u32)) as i64,
            BinOp::AShr => a.wrapping_shr(b as u32),
            _ => return None,
        };
        return Some(Folded::Const(Constant::I64(r)));
    }

    // Algebraic identities. Floating point identities that are only valid
    // under fast-math (`x * 0 => 0`, which is wrong for NaN/Inf inputs) are
    // *not* applied here; the value-range-guided fast-math described in §4.1
    // lives in `distill-analysis` where the absence of special values can be
    // proven first.
    match op {
        BinOp::FAdd => {
            if is_f64_const(func, rhs, 0.0) {
                return Some(Folded::Value(lhs));
            }
            if is_f64_const(func, lhs, 0.0) {
                return Some(Folded::Value(rhs));
            }
        }
        BinOp::FSub if is_f64_const(func, rhs, 0.0) => {
            return Some(Folded::Value(lhs));
        }
        BinOp::FMul => {
            if is_f64_const(func, rhs, 1.0) {
                return Some(Folded::Value(lhs));
            }
            if is_f64_const(func, lhs, 1.0) {
                return Some(Folded::Value(rhs));
            }
        }
        BinOp::FDiv if is_f64_const(func, rhs, 1.0) => {
            return Some(Folded::Value(lhs));
        }
        BinOp::Add => {
            if i64_of(func, rhs) == Some(0) {
                return Some(Folded::Value(lhs));
            }
            if i64_of(func, lhs) == Some(0) {
                return Some(Folded::Value(rhs));
            }
        }
        BinOp::Sub if i64_of(func, rhs) == Some(0) => {
            return Some(Folded::Value(lhs));
        }
        BinOp::Mul => {
            if i64_of(func, rhs) == Some(1) {
                return Some(Folded::Value(lhs));
            }
            if i64_of(func, lhs) == Some(1) {
                return Some(Folded::Value(rhs));
            }
            if i64_of(func, rhs) == Some(0) || i64_of(func, lhs) == Some(0) {
                return Some(Folded::Const(Constant::I64(0)));
            }
        }
        BinOp::And if lhs == rhs => {
            return Some(Folded::Value(lhs));
        }
        BinOp::Or if lhs == rhs => {
            return Some(Folded::Value(lhs));
        }
        BinOp::Xor if lhs == rhs => {
            return Some(Folded::Const(Constant::I64(0)));
        }
        _ => {}
    }
    None
}

fn fold_un(func: &Function, op: UnOp, val: ValueId) -> Option<Folded> {
    match op {
        UnOp::FNeg => f64_of(func, val).map(|x| Folded::Const(Constant::F64(-x))),
        UnOp::Not => constant_of(func, val).and_then(|c| match c {
            Constant::Bool(b) => Some(Folded::Const(Constant::Bool(!b))),
            Constant::I64(i) => Some(Folded::Const(Constant::I64(!i))),
            _ => None,
        }),
    }
}

fn fold_cmp(func: &Function, pred: CmpPred, lhs: ValueId, rhs: ValueId) -> Option<Folded> {
    if pred.is_float() {
        let (a, b) = (f64_of(func, lhs)?, f64_of(func, rhs)?);
        let r = match pred {
            CmpPred::FEq => a == b,
            CmpPred::FNe => a != b,
            CmpPred::FLt => a < b,
            CmpPred::FLe => a <= b,
            CmpPred::FGt => a > b,
            CmpPred::FGe => a >= b,
            _ => unreachable!(),
        };
        Some(Folded::Const(Constant::Bool(r)))
    } else {
        let (a, b) = (i64_of(func, lhs)?, i64_of(func, rhs)?);
        let r = match pred {
            CmpPred::IEq => a == b,
            CmpPred::INe => a != b,
            CmpPred::ILt => a < b,
            CmpPred::ILe => a <= b,
            CmpPred::IGt => a > b,
            CmpPred::IGe => a >= b,
            _ => unreachable!(),
        };
        Some(Folded::Const(Constant::Bool(r)))
    }
}

fn fold_intrinsic(func: &Function, kind: Intrinsic, args: &[ValueId]) -> Option<Folded> {
    if kind.has_side_effects() {
        return None;
    }
    let a = f64_of(func, args[0])?;
    let r = match kind {
        Intrinsic::Exp => a.exp(),
        Intrinsic::Log => a.ln(),
        Intrinsic::Sqrt => a.sqrt(),
        Intrinsic::Sin => a.sin(),
        Intrinsic::Cos => a.cos(),
        Intrinsic::Tanh => a.tanh(),
        Intrinsic::FAbs => a.abs(),
        Intrinsic::Floor => a.floor(),
        Intrinsic::Ceil => a.ceil(),
        Intrinsic::Pow => {
            let b = f64_of(func, args[1])?;
            a.powf(b)
        }
        Intrinsic::FMin => {
            let b = f64_of(func, args[1])?;
            a.min(b)
        }
        Intrinsic::FMax => {
            let b = f64_of(func, args[1])?;
            a.max(b)
        }
        Intrinsic::RandUniform | Intrinsic::RandNormal => return None,
    };
    Some(Folded::Const(Constant::F64(r)))
}

fn fold_cast(func: &Function, kind: CastKind, val: ValueId) -> Option<Folded> {
    let c = constant_of(func, val)?;
    let folded = match kind {
        CastKind::SiToFp => Constant::F64(c.as_i64()? as f64),
        CastKind::FpToSi => Constant::I64(c.as_f64()? as i64),
        CastKind::FpTrunc => Constant::F32(c.as_f64()? as f32),
        CastKind::FpExt => Constant::F64(c.as_f64()?),
        CastKind::ZExtBool => Constant::I64(c.as_bool()? as i64),
        CastKind::TruncBool => Constant::Bool(c.as_i64()? != 0),
    };
    Some(Folded::Const(folded))
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_ir::{FunctionBuilder, Module, Terminator, Ty};

    fn ret_value(func: &Function) -> ValueId {
        let entry = func.entry_block().unwrap();
        let mut cur = entry;
        loop {
            match func.block(cur).term.clone().unwrap() {
                Terminator::Ret(Some(v)) => return v,
                Terminator::Br(b) => cur = b,
                other => panic!("unexpected terminator {other:?}"),
            }
        }
    }

    #[test]
    fn folds_constant_arithmetic_chain() {
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let two = b.const_f64(2.0);
            let three = b.const_f64(3.0);
            let six = b.fmul(two, three);
            let e1 = b.exp(six);
            let r = b.fadd(e1, six);
            b.ret(Some(r));
        }
        let changed = run(&mut m);
        assert!(changed >= 3);
        let f = m.function(fid);
        let rv = ret_value(f);
        let c = f.as_constant(rv).expect("fully folded");
        assert!((c.as_f64().unwrap() - (6.0f64.exp() + 6.0)).abs() < 1e-12);
        assert_eq!(f.inst_count(), 0);
    }

    #[test]
    fn identity_simplifications() {
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let zero = b.const_f64(0.0);
            let one = b.const_f64(1.0);
            let a = b.fadd(x, zero);
            let c = b.fmul(a, one);
            let d = b.fdiv(c, one);
            b.ret(Some(d));
        }
        run(&mut m);
        let f = m.function(fid);
        assert_eq!(ret_value(f), f.param_value(0));
        assert_eq!(f.inst_count(), 0);
    }

    #[test]
    fn does_not_fold_x_times_zero_for_floats() {
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
        run(&mut m);
        // x could be NaN or Inf, so x*0 must survive strict folding.
        assert_eq!(m.function(fid).inst_count(), 1);
    }

    #[test]
    fn folds_integer_ops_and_comparisons() {
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![], Ty::Bool);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let a = b.const_i64(10);
            let c = b.const_i64(3);
            let q = b.sdiv(a, c);
            let r = b.cmp(CmpPred::IEq, q, c);
            b.ret(Some(r));
        }
        run(&mut m);
        let f = m.function(fid);
        assert_eq!(f.as_constant(ret_value(f)), Some(Constant::Bool(true)));
    }

    #[test]
    fn folds_select_with_constant_condition() {
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![Ty::F64, Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let y = b.param(1);
            let t = b.const_bool(true);
            let r = b.select(t, x, y);
            b.ret(Some(r));
        }
        run(&mut m);
        let f = m.function(fid);
        assert_eq!(ret_value(f), f.param_value(0));
    }

    #[test]
    fn never_folds_prng_intrinsics() {
        let mut m = Module::new("m");
        let g = m.add_zeroed_global("rng", Ty::array(Ty::I64, 5), true);
        let tys: Vec<Ty> = m.globals.iter().map(|g| g.ty.clone()).collect();
        let fid = m.declare_function("f", vec![], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f).with_global_types(tys);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let state = b.global_addr(g);
            let r = b.intrinsic(Intrinsic::RandNormal, vec![state]);
            b.ret(Some(r));
        }
        run(&mut m);
        assert_eq!(m.function(fid).inst_count(), 2);
    }

    #[test]
    fn cast_folding() {
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![], Ty::I64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.const_f64(3.7);
            let i = b.fptosi(x);
            b.ret(Some(i));
        }
        run(&mut m);
        let f = m.function(fid);
        assert_eq!(f.as_constant(ret_value(f)), Some(Constant::I64(3)));
    }
}
