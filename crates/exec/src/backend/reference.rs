//! The reference tier: the original pre-predecode IR-walking interpreter,
//! retained verbatim as the behavioural oracle. It deep-clones the callee
//! per call and resolves operands against the value arena on every read —
//! deliberately unoptimized, because every other tier is differentially
//! pinned against it.

use super::interp::{exec_bin, exec_cast, exec_cmp, exec_math, exec_rand, exec_un};
use crate::engine::{EngineCtx, ExecError, Value};
use distill_ir::inst::GepIndex;
use distill_ir::{FuncId, Function, Inst, Module, Terminator, Ty, ValueId, ValueKind};

/// Call a function through the IR walker.
pub(crate) fn call_in(
    ctx: &mut EngineCtx,
    module: &Module,
    func_id: FuncId,
    args: &[Value],
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    ctx.stats.calls += 1;
    if depth > 256 {
        return Err(ExecError::DepthExceeded);
    }
    let func: Function = module.function(func_id).clone();
    if func.layout.is_empty() {
        return Err(ExecError::MissingBody(func.name.clone()));
    }
    let frame_base = ctx.memory.len();
    let mut regs: Vec<Option<Value>> = vec![None; func.values.len()];
    for (i, a) in args.iter().enumerate() {
        regs[i] = Some(*a);
    }

    let mut block = func.entry_block().expect("function has entry block");
    let mut prev_block: Option<distill_ir::BlockId> = None;
    let result = 'outer: loop {
        // Phi nodes are evaluated together against the incoming edge.
        let blk = func.block(block);
        let mut phi_updates: Vec<(ValueId, Value)> = Vec::new();
        for &v in &blk.insts {
            if let Some(Inst::Phi { incoming, .. }) = func.as_inst(v) {
                if let Some(pb) = prev_block {
                    let Some((_, src)) = incoming.iter().find(|(b, _)| *b == pb) else {
                        break 'outer Err(ExecError::Type(format!(
                            "phi {v} has no edge from {pb}"
                        )));
                    };
                    let val = operand(&func, &regs, *src)?;
                    phi_updates.push((v, val));
                } else {
                    break 'outer Err(ExecError::Undef(format!(
                        "phi {v} evaluated in entry block"
                    )));
                }
            }
        }
        for (v, val) in phi_updates {
            regs[v.index()] = Some(val);
        }

        for &v in &blk.insts {
            let inst = func.as_inst(v).expect("scheduled value is an instruction");
            if inst.is_phi() {
                continue;
            }
            if *fuel == 0 {
                break 'outer Err(ExecError::FuelExhausted);
            }
            *fuel -= 1;
            ctx.stats.instructions += 1;
            let val = exec_inst(ctx, module, &func, &mut regs, inst, fuel, depth)?;
            regs[v.index()] = Some(val);
        }

        match blk.term.clone().expect("block has terminator") {
            Terminator::Br(next) => {
                prev_block = Some(block);
                block = next;
            }
            Terminator::CondBr {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = operand(&func, &regs, cond)?
                    .as_bool()
                    .ok_or_else(|| ExecError::Type("branch on non-bool".into()))?;
                prev_block = Some(block);
                block = if c { then_blk } else { else_blk };
            }
            Terminator::Ret(val) => {
                let out = match val {
                    Some(v) => operand(&func, &regs, v)?,
                    None => Value::Unit,
                };
                break Ok(out);
            }
            Terminator::Unreachable => {
                break Err(ExecError::Type("reached unreachable".into()));
            }
        }
    };
    // Pop this frame's allocas.
    ctx.truncate_stack(frame_base);
    result
}

fn operand(func: &Function, regs: &[Option<Value>], v: ValueId) -> Result<Value, ExecError> {
    match &func.value(v).kind {
        ValueKind::Const(c) => Ok(match c {
            distill_ir::Constant::F64(x) => Value::F64(*x),
            distill_ir::Constant::F32(x) => Value::F64(*x as f64),
            distill_ir::Constant::I64(x) => Value::I64(*x),
            distill_ir::Constant::Bool(b) => Value::Bool(*b),
            distill_ir::Constant::Undef => return Err(ExecError::Undef(format!("{v}"))),
        }),
        _ => regs[v.index()]
            .ok_or_else(|| ExecError::Undef(format!("value {v} used before definition"))),
    }
}

#[allow(clippy::too_many_arguments)]
fn exec_inst(
    ctx: &mut EngineCtx,
    module: &Module,
    func: &Function,
    regs: &mut [Option<Value>],
    inst: &Inst,
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    let op = |regs: &[Option<Value>], v: ValueId| operand(func, regs, v);
    match inst {
        Inst::Bin { op: o, lhs, rhs } => {
            let a = op(regs, *lhs)?;
            let b = op(regs, *rhs)?;
            exec_bin(*o, a, b)
        }
        Inst::Un { op: o, val } => exec_un(*o, op(regs, *val)?),
        Inst::Cmp { pred, lhs, rhs } => {
            let a = op(regs, *lhs)?;
            let b = op(regs, *rhs)?;
            exec_cmp(*pred, a, b)
        }
        Inst::Select {
            cond,
            then_val,
            else_val,
        } => {
            let c = op(regs, *cond)?
                .as_bool()
                .ok_or_else(|| ExecError::Type("select condition".into()))?;
            if c {
                op(regs, *then_val)
            } else {
                op(regs, *else_val)
            }
        }
        Inst::Call { callee, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(op(regs, *a)?);
            }
            call_in(ctx, module, *callee, &vals, fuel, depth + 1)
        }
        Inst::IntrinsicCall { kind, args } => {
            if kind.has_side_effects() {
                let state = op(regs, args[0])?;
                exec_rand(ctx, *kind, state)
            } else {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(
                        op(regs, *a)?
                            .as_f64()
                            .ok_or_else(|| ExecError::Type("intrinsic arg".into()))?,
                    );
                }
                Ok(Value::F64(exec_math(*kind, &vals)))
            }
        }
        Inst::Alloca { ty } => Ok(Value::Ptr(ctx.alloca(ty.slot_count()))),
        Inst::Load { ptr } => {
            ctx.stats.loads += 1;
            let addr = match op(regs, *ptr)? {
                Value::Ptr(p) => p,
                other => return Err(ExecError::Type(format!("load from non-pointer {other:?}"))),
            };
            ctx.load_slot(addr)
        }
        Inst::Store { ptr, value } => {
            ctx.stats.stores += 1;
            let addr = match op(regs, *ptr)? {
                Value::Ptr(p) => p,
                other => return Err(ExecError::Type(format!("store to non-pointer {other:?}"))),
            };
            let v = op(regs, *value)?;
            ctx.store_slot(addr, v)?;
            Ok(Value::Unit)
        }
        Inst::Gep { base, indices } => {
            let addr = match op(regs, *base)? {
                Value::Ptr(p) => p,
                other => return Err(ExecError::Type(format!("gep on non-pointer {other:?}"))),
            };
            let mut ty = func.ty(*base).pointee().clone();
            let mut offset = 0usize;
            for idx in indices {
                match (&ty, idx) {
                    (Ty::Array(elem, _), GepIndex::Const(i)) => {
                        offset += i * elem.slot_count();
                        ty = (**elem).clone();
                    }
                    (Ty::Array(elem, _), GepIndex::Dyn(v)) => {
                        let i = op(regs, *v)?
                            .as_i64()
                            .ok_or_else(|| ExecError::Type("gep index".into()))?;
                        if i < 0 {
                            return Err(ExecError::OutOfBounds {
                                addr,
                                size: ctx.memory.len(),
                            });
                        }
                        offset += i as usize * elem.slot_count();
                        ty = (**elem).clone();
                    }
                    // Out-of-range field indices are the same typed error
                    // the decoded path's poison form raises (the one
                    // deviation from the pre-predecode code, which panicked
                    // here).
                    (Ty::Struct(fields), GepIndex::Const(i)) if *i < fields.len() => {
                        offset += ty.field_offset(*i);
                        ty = fields[*i].clone();
                    }
                    _ => return Err(ExecError::Type("invalid gep".into())),
                }
            }
            Ok(Value::Ptr(addr + offset))
        }
        Inst::Phi { .. } => unreachable!("phis handled at block entry"),
        Inst::Cast { kind, val, .. } => exec_cast(*kind, op(regs, *val)?),
        Inst::GlobalAddr { global } => Ok(Value::Ptr(ctx.global_base[global.index()])),
    }
}
