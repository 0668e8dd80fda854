//! Structural and type verification of IR.
//!
//! The verifier checks the invariants the optimizer and the execution engine
//! rely on: every scheduled block has a terminator, operands are type
//! correct, phi nodes list exactly the predecessors of their block, calls
//! match callee signatures, and GEP index paths match the aggregate they
//! traverse. It is run after code generation and after every pass pipeline
//! in debug builds and tests.

use crate::cfg::Cfg;
use crate::function::{Function, Terminator, ValueId, ValueKind};
use crate::inst::{GepIndex, Inst};
use crate::module::Module;
use crate::types::Ty;
use std::fmt;

/// A verification failure, naming the function and describing the violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Name of the offending function.
    pub function: String,
    /// Human-readable description of the violated invariant.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "verification of `{}` failed: {}",
            self.function, self.message
        )
    }
}

impl std::error::Error for VerifyError {}

/// Verify every function of a module.
///
/// # Errors
/// Returns the first [`VerifyError`] encountered.
pub fn verify_module(module: &Module) -> Result<(), VerifyError> {
    for (_, f) in module.iter_functions() {
        if !f.is_declaration {
            verify_function(module, f)?;
        }
    }
    Ok(())
}

/// Verify a single function.
///
/// # Errors
/// Returns the first [`VerifyError`] encountered.
pub fn verify_function(module: &Module, func: &Function) -> Result<(), VerifyError> {
    let err = |msg: String| VerifyError {
        function: func.name.clone(),
        message: msg,
    };

    if func.layout.is_empty() {
        return Err(err("function has no blocks".into()));
    }

    // Each scheduled value must be an instruction, scheduled exactly once.
    let mut scheduled = vec![0usize; func.values.len()];
    for b in func.block_order() {
        let blk = func.block(b);
        if blk.term.is_none() {
            return Err(err(format!("block {} has no terminator", blk.name)));
        }
        let mut seen_non_phi = false;
        for &v in &blk.insts {
            scheduled[v.index()] += 1;
            match &func.value(v).kind {
                ValueKind::Inst(inst) => {
                    if inst.is_phi() {
                        if seen_non_phi {
                            return Err(err(format!(
                                "phi {v} is not at the start of block {}",
                                blk.name
                            )));
                        }
                    } else {
                        seen_non_phi = true;
                    }
                }
                _ => {
                    return Err(err(format!(
                        "block {} schedules non-instruction value {v}",
                        blk.name
                    )))
                }
            }
        }
    }
    for (i, count) in scheduled.iter().enumerate() {
        if *count > 1 {
            return Err(err(format!("value %{i} is scheduled {count} times")));
        }
    }

    let cfg = Cfg::new(func);

    // Type-check instructions and phi structure.
    for b in func.block_order() {
        let blk = func.block(b);
        for &v in &blk.insts {
            let inst = func.as_inst(v).expect("checked above");
            check_inst(module, func, &cfg, b, v, inst).map_err(&err)?;
        }
        match blk.term.as_ref().unwrap() {
            Terminator::CondBr { cond, .. } if *func.ty(*cond) != Ty::Bool => {
                return Err(err(format!(
                    "conditional branch in {} on non-boolean {cond}",
                    blk.name
                )));
            }
            Terminator::Ret(val) => match (val, &func.ret_ty) {
                (None, Ty::Void) => {}
                (Some(v), ret_ty) => {
                    if func.ty(*v) != ret_ty {
                        return Err(err(format!(
                            "return of {} from function returning {ret_ty}",
                            func.ty(*v)
                        )));
                    }
                }
                (None, ret_ty) => {
                    return Err(err(format!(
                        "missing return value in function returning {ret_ty}"
                    )))
                }
            },
            _ => {}
        }
    }
    Ok(())
}

fn check_inst(
    module: &Module,
    func: &Function,
    cfg: &Cfg,
    block: crate::function::BlockId,
    id: ValueId,
    inst: &Inst,
) -> Result<(), String> {
    // All operands must exist (arena bounds) — guaranteed by construction —
    // and must not be Void-typed.
    for op in inst.operands() {
        if op.index() >= func.values.len() {
            return Err(format!("instruction {id} has out-of-range operand {op}"));
        }
        if *func.ty(op) == Ty::Void && !matches!(inst, Inst::Call { .. }) {
            return Err(format!("instruction {id} uses void value {op}"));
        }
    }

    match inst {
        Inst::Bin { op, lhs, rhs } => {
            let lt = func.ty(*lhs);
            let rt = func.ty(*rhs);
            if lt != rt {
                return Err(format!("binary {id}: operand types {lt} and {rt} differ"));
            }
            if op.is_float() && !lt.is_float() {
                return Err(format!("binary {id}: float op on non-float type {lt}"));
            }
            if !op.is_float() && !lt.is_int() && !lt.is_bool() {
                return Err(format!("binary {id}: integer op on type {lt}"));
            }
        }
        Inst::Cmp { pred, lhs, rhs } => {
            let lt = func.ty(*lhs);
            let rt = func.ty(*rhs);
            if lt != rt {
                return Err(format!("cmp {id}: operand types {lt} and {rt} differ"));
            }
            if pred.is_float() != lt.is_float() {
                return Err(format!("cmp {id}: predicate/type mismatch on {lt}"));
            }
        }
        Inst::Select {
            cond,
            then_val,
            else_val,
        } => {
            if *func.ty(*cond) != Ty::Bool {
                return Err(format!("select {id}: condition is not boolean"));
            }
            if func.ty(*then_val) != func.ty(*else_val) {
                return Err(format!("select {id}: arm types differ"));
            }
        }
        Inst::Call { callee, args } => {
            if callee.index() >= module.functions.len() {
                return Err(format!("call {id}: unknown callee {callee}"));
            }
            let cf = module.function(*callee);
            if cf.params.len() != args.len() {
                return Err(format!(
                    "call {id} to {}: expected {} arguments, got {}",
                    cf.name,
                    cf.params.len(),
                    args.len()
                ));
            }
            for (i, (a, p)) in args.iter().zip(&cf.params).enumerate() {
                if func.ty(*a) != p {
                    return Err(format!(
                        "call {id} to {}: argument {i} has type {} but parameter expects {p}",
                        cf.name,
                        func.ty(*a)
                    ));
                }
            }
        }
        Inst::IntrinsicCall { kind, args } => {
            if args.len() != kind.arity() {
                return Err(format!(
                    "intrinsic {id} {}: expected {} operands, got {}",
                    kind.name(),
                    kind.arity(),
                    args.len()
                ));
            }
            if kind.has_side_effects() {
                if !func.ty(args[0]).is_ptr() {
                    return Err(format!(
                        "intrinsic {id} {}: PRNG state operand must be a pointer",
                        kind.name()
                    ));
                }
            } else {
                for a in args {
                    if !func.ty(*a).is_float() {
                        return Err(format!(
                            "intrinsic {id} {}: operand {a} is not a float",
                            kind.name()
                        ));
                    }
                }
            }
        }
        Inst::Load { ptr } => {
            if !func.ty(*ptr).is_ptr() {
                return Err(format!("load {id}: operand is not a pointer"));
            }
            if !func.ty(*ptr).pointee().is_scalar() {
                return Err(format!("load {id}: loads of aggregates are not allowed"));
            }
        }
        Inst::Store { ptr, value } => {
            if !func.ty(*ptr).is_ptr() {
                return Err(format!("store {id}: destination is not a pointer"));
            }
            let pointee = func.ty(*ptr).pointee();
            if pointee != func.ty(*value) {
                return Err(format!(
                    "store {id}: storing {} into {pointee}",
                    func.ty(*value)
                ));
            }
        }
        Inst::Gep { base, indices } => {
            if !func.ty(*base).is_ptr() {
                return Err(format!("gep {id}: base is not a pointer"));
            }
            let mut cur = func.ty(*base).pointee().clone();
            for idx in indices {
                cur = match (&cur, idx) {
                    (Ty::Array(elem, len), GepIndex::Const(i)) => {
                        if i >= len {
                            return Err(format!(
                                "gep {id}: constant index {i} out of bounds for array of {len}"
                            ));
                        }
                        (**elem).clone()
                    }
                    (Ty::Array(elem, _), GepIndex::Dyn(v)) => {
                        if !func.ty(*v).is_int() {
                            return Err(format!("gep {id}: dynamic index is not an integer"));
                        }
                        (**elem).clone()
                    }
                    (Ty::Struct(fields), GepIndex::Const(i)) => {
                        if *i >= fields.len() {
                            return Err(format!("gep {id}: struct field {i} out of range"));
                        }
                        fields[*i].clone()
                    }
                    (Ty::Struct(_), GepIndex::Dyn(_)) => {
                        return Err(format!("gep {id}: dynamic index into struct"))
                    }
                    (other, _) => {
                        return Err(format!("gep {id}: cannot index into scalar {other}"))
                    }
                };
            }
        }
        Inst::Phi { ty, incoming } => {
            let preds = cfg.preds_of(block);
            if cfg.is_reachable(block) && incoming.len() != preds.len() {
                return Err(format!(
                    "phi {id}: {} incoming edges but block has {} predecessors",
                    incoming.len(),
                    preds.len()
                ));
            }
            for (pred, val) in incoming {
                if cfg.is_reachable(block) && !preds.contains(pred) {
                    return Err(format!(
                        "phi {id}: incoming block {pred} is not a predecessor"
                    ));
                }
                if func.ty(*val) != ty {
                    return Err(format!(
                        "phi {id}: incoming value {val} has type {} but phi is {ty}",
                        func.ty(*val)
                    ));
                }
            }
        }
        Inst::Cast { kind, val, to } => {
            use crate::inst::CastKind::*;
            let from = func.ty(*val);
            let ok = match kind {
                SiToFp => from.is_int() && to.is_float(),
                FpToSi => from.is_float() && to.is_int(),
                FpTrunc => *from == Ty::F64 && *to == Ty::F32,
                FpExt => *from == Ty::F32 && *to == Ty::F64,
                ZExtBool => from.is_bool() && to.is_int(),
                TruncBool => from.is_int() && to.is_bool(),
            };
            if !ok {
                return Err(format!("cast {id}: invalid {kind:?} from {from} to {to}"));
            }
        }
        Inst::GlobalAddr { global } => {
            if global.index() >= module.globals.len() {
                return Err(format!("global_addr {id}: unknown global {global}"));
            }
            let expected = Ty::ptr(module.global(*global).ty.clone());
            if *func.ty(id) != expected {
                return Err(format!(
                    "global_addr {id}: declared type {} but global has {expected}",
                    func.ty(id)
                ));
            }
        }
        Inst::Un { .. } | Inst::Alloca { .. } => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::ValueData;
    use crate::inst::BinOp;
    use crate::types::Ty;

    fn empty_module_with(name: &str, params: Vec<Ty>, ret: Ty) -> (Module, crate::FuncId) {
        let mut m = Module::new("m");
        let fid = m.declare_function(name, params, ret);
        (m, fid)
    }

    #[test]
    fn valid_function_passes() {
        let (mut m, fid) = empty_module_with("f", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let y = b.fadd(x, x);
            b.ret(Some(y));
        }
        assert!(verify_module(&m).is_ok());
    }

    #[test]
    fn missing_terminator_is_rejected() {
        let (mut m, fid) = empty_module_with("f", vec![], Ty::Void);
        m.function_mut(fid).add_block("entry");
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("no terminator"), "{e}");
    }

    #[test]
    fn mixed_operand_types_are_rejected() {
        let (mut m, fid) = empty_module_with("f", vec![Ty::F64, Ty::I64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let entry = f.add_block("entry");
            let a = f.param_value(0);
            let b = f.param_value(1);
            let bad = f.add_value(ValueData {
                kind: ValueKind::Inst(Inst::Bin {
                    op: BinOp::FAdd,
                    lhs: a,
                    rhs: b,
                }),
                ty: Ty::F64,
                name: None,
            });
            f.block_mut(entry).insts.push(bad);
            f.block_mut(entry).term = Some(Terminator::Ret(Some(bad)));
        }
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("differ"), "{e}");
    }

    #[test]
    fn wrong_return_type_is_rejected() {
        let (mut m, fid) = empty_module_with("f", vec![Ty::I64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            b.ret(Some(x));
        }
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn call_arity_mismatch_is_rejected() {
        let mut m = Module::new("m");
        let callee = m.declare_function("callee", vec![Ty::F64, Ty::F64], Ty::F64);
        {
            let f = m.function_mut(callee);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            b.ret(Some(x));
        }
        let caller = m.declare_function("caller", vec![Ty::F64], Ty::F64);
        {
            let sigs: Vec<(Vec<Ty>, Ty)> = m
                .functions
                .iter()
                .map(|f| (f.params.clone(), f.ret_ty.clone()))
                .collect();
            let f = m.function_mut(caller);
            let mut b = FunctionBuilder::new(f).with_signatures(sigs);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let r = b.call(callee, vec![x]);
            b.ret(Some(r));
        }
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("expected 2 arguments"), "{e}");
    }

    #[test]
    fn gep_out_of_bounds_constant_is_rejected() {
        let mut m = Module::new("m");
        let g = m.add_zeroed_global("arr", Ty::array(Ty::F64, 2), true);
        let tys: Vec<Ty> = m.globals.iter().map(|g| g.ty.clone()).collect();
        let fid = m.declare_function("f", vec![], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f).with_global_types(tys);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let base = b.global_addr(g);
            let p = b.const_elem_addr(base, 5);
            let v = b.load(p);
            b.ret(Some(v));
        }
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("out of bounds"), "{e}");
    }

    #[test]
    fn phi_edge_count_must_match_predecessors() {
        let (mut m, fid) = empty_module_with("f", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let entry = b.create_block("entry");
            let t = b.create_block("t");
            let u = b.create_block("u");
            let join = b.create_block("join");
            b.switch_to_block(entry);
            let x = b.param(0);
            let zero = b.const_f64(0.0);
            let c = b.cmp(crate::inst::CmpPred::FGt, x, zero);
            b.cond_br(c, t, u);
            b.switch_to_block(t);
            b.br(join);
            b.switch_to_block(u);
            b.br(join);
            b.switch_to_block(join);
            // Only one incoming edge although there are two predecessors.
            let p = b.phi(Ty::F64, vec![(t, x)]);
            b.ret(Some(p));
        }
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("incoming edges"), "{e}");
    }
}
