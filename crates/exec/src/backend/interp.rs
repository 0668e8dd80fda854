//! The predecoded interpreter core — the dispatch loop shared by the
//! decoded and fused tiers (the fused tier runs the same loop over the
//! superinstruction stream).
//!
//! Moved verbatim out of the engine when execution was split into tiers;
//! the loop never touches the IR, never clones, and never string-formats on
//! the happy path. The scalar helpers at the bottom (`exec_bin`,
//! `exec_cmp`, `exec_math`, `read_operand`, and the `float_bin` /
//! `int_bin` / `float_cmp` / `rand_draw` cores they share with the threaded
//! tier's fast paths) are the single definition of operator semantics,
//! shared by the reference and threaded tiers. `exec_decoded_inst` is also
//! the threaded tier's fallback for every op whose fast path declines.

use crate::decode::{DecodedFunction, DecodedInst, DecodedTerm, Operand, PhiEdge};
use crate::engine::{EngineCtx, ExecError, Frame, Value};
use distill_ir::{BinOp, CastKind, CmpPred, Intrinsic, UnOp};
use distill_pyvm::SplitMix64;

/// Call a function within a decoded (or fused) code stream.
pub(crate) fn call_in(
    ctx: &mut EngineCtx,
    code: &[DecodedFunction],
    func: usize,
    args: &[Value],
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    ctx.stats.calls += 1;
    if depth > 256 {
        return Err(ExecError::DepthExceeded);
    }
    let df = &code[func];
    let Some(entry) = df.entry else {
        return Err(ExecError::MissingBody(df.name.clone()));
    };
    let frame_base = ctx.memory.len();
    let mut regs = ctx.acquire_frame(df.num_values as usize);
    for (i, a) in args.iter().enumerate() {
        regs[i] = Some(*a);
    }
    let result = exec_in(ctx, code, df, entry, &mut regs, fuel, depth);
    ctx.release_frame(regs);
    // Pop this frame's allocas.
    ctx.truncate_stack(frame_base);
    result
}

/// Run the phi parallel copies for entry into `blk` from predecessor `prev`.
/// Shared with the threaded tier, whose blocks reuse the decoded phi tables.
pub(crate) fn enter_block(
    ctx: &mut EngineCtx,
    phi_edges: &[(u32, PhiEdge)],
    first_phi: u32,
    prev: Option<u32>,
    regs: &mut Frame,
) -> Result<(), ExecError> {
    let Some(p) = prev else {
        return Err(ExecError::Undef(format!(
            "phi %{first_phi} evaluated in entry block"
        )));
    };
    let (_, edge) = phi_edges
        .iter()
        .find(|(pred, _)| *pred == p)
        .expect("phi edge decoded for every static predecessor");
    match edge {
        PhiEdge::Missing { phi, pred } => Err(ExecError::Type(format!(
            "phi %{phi} has no edge from bb{pred}"
        ))),
        PhiEdge::Copies(copies) => {
            // Parallel copy: all sources are read against the pre-entry
            // register state before any destination is written (a phi may
            // feed another phi of the block).
            let mut scratch = std::mem::take(&mut ctx.phi_scratch);
            scratch.clear();
            let mut failed = None;
            for (_, src) in copies.iter() {
                match read_operand(src, regs) {
                    Ok(v) => scratch.push(v),
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                }
            }
            if failed.is_none() {
                for ((dst, _), v) in copies.iter().zip(scratch.iter()) {
                    regs[*dst as usize] = Some(*v);
                }
            }
            ctx.phi_scratch = scratch;
            match failed {
                Some(e) => Err(e),
                None => Ok(()),
            }
        }
    }
}

/// Outcome of a decoded terminator: continue at a block or return a value.
pub(crate) enum Flow {
    Goto(u32),
    Ret(Value),
}

/// Execute a decoded terminator. Fused compare-and-branch forms charge the
/// fuel of every instruction they absorbed so a branch-only loop cannot spin
/// past the budget; they count the absorbed dispatches in both
/// `instructions` and `fused_ops`. Shared with the threaded tier.
pub(crate) fn exec_term(
    ctx: &mut EngineCtx,
    term: &DecodedTerm,
    regs: &mut Frame,
    fuel: &mut u64,
) -> Result<Flow, ExecError> {
    match term {
        DecodedTerm::Br(next) => Ok(Flow::Goto(*next)),
        DecodedTerm::CondBr {
            cond,
            then_blk,
            else_blk,
        } => {
            let c = read_operand(cond, regs)?
                .as_bool()
                .ok_or_else(|| ExecError::Type("branch on non-bool".into()))?;
            Ok(Flow::Goto(if c { *then_blk } else { *else_blk }))
        }
        DecodedTerm::CmpBr {
            pred,
            lhs,
            rhs,
            then_blk,
            else_blk,
        } => {
            charge_fuel(fuel)?;
            ctx.stats.instructions += 1;
            ctx.stats.fused_ops += 1;
            let c = match exec_cmp(*pred, read_operand(lhs, regs)?, read_operand(rhs, regs)?)? {
                Value::Bool(b) => b,
                _ => unreachable!("cmp yields bool"),
            };
            Ok(Flow::Goto(if c { *then_blk } else { *else_blk }))
        }
        DecodedTerm::BinRICmpBr {
            op,
            src,
            imm,
            dst,
            pred,
            other,
            bin_is_lhs,
            then_blk,
            else_blk,
        } => {
            // Two absorbed dispatches: the immediate-specialized binop and
            // the compare. The binop's destination is still written — phis
            // and later blocks may read it.
            charge_fuel(fuel)?;
            charge_fuel(fuel)?;
            ctx.stats.instructions += 2;
            ctx.stats.fused_ops += 2;
            let v = exec_bin(*op, read_reg(regs, *src)?, *imm)?;
            regs[*dst as usize] = Some(v);
            let o = read_operand(other, regs)?;
            let (a, b) = if *bin_is_lhs { (v, o) } else { (o, v) };
            let c = match exec_cmp(*pred, a, b)? {
                Value::Bool(b) => b,
                _ => unreachable!("cmp yields bool"),
            };
            Ok(Flow::Goto(if c { *then_blk } else { *else_blk }))
        }
        DecodedTerm::Ret(Some(v)) => Ok(Flow::Ret(read_operand(v, regs)?)),
        DecodedTerm::Ret(None) => Ok(Flow::Ret(Value::Unit)),
        DecodedTerm::Unreachable => Err(ExecError::Type("reached unreachable".into())),
        DecodedTerm::Missing => panic!("block has terminator"),
    }
}

fn exec_in(
    ctx: &mut EngineCtx,
    code: &[DecodedFunction],
    df: &DecodedFunction,
    entry: u32,
    regs: &mut Frame,
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    let mut block = entry as usize;
    let mut prev: Option<u32> = None;
    loop {
        let blk = &df.blocks[block];
        if blk.has_phis {
            enter_block(ctx, &blk.phi_edges, blk.first_phi, prev, regs)?;
        }

        for op in blk.code.iter() {
            if *fuel == 0 {
                return Err(ExecError::FuelExhausted);
            }
            *fuel -= 1;
            ctx.stats.instructions += 1;
            let val = exec_decoded_inst(ctx, code, &op.inst, regs, fuel, depth)?;
            regs[op.dst as usize] = Some(val);
        }

        match exec_term(ctx, &blk.term, regs, fuel)? {
            Flow::Goto(next) => {
                prev = Some(block as u32);
                block = next as usize;
            }
            Flow::Ret(v) => return Ok(v),
        }
    }
}

pub(crate) fn exec_decoded_inst(
    ctx: &mut EngineCtx,
    code: &[DecodedFunction],
    inst: &DecodedInst,
    regs: &mut Frame,
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    match inst {
        DecodedInst::Bin { op, lhs, rhs } => {
            exec_bin(*op, read_operand(lhs, regs)?, read_operand(rhs, regs)?)
        }
        DecodedInst::Un { op, val } => exec_un(*op, read_operand(val, regs)?),
        DecodedInst::Cmp { pred, lhs, rhs } => {
            exec_cmp(*pred, read_operand(lhs, regs)?, read_operand(rhs, regs)?)
        }
        DecodedInst::Select {
            cond,
            then_val,
            else_val,
        } => {
            let c = read_operand(cond, regs)?
                .as_bool()
                .ok_or_else(|| ExecError::Type("select condition".into()))?;
            if c {
                read_operand(then_val, regs)
            } else {
                read_operand(else_val, regs)
            }
        }
        DecodedInst::Call { callee, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args.iter() {
                vals.push(read_operand(a, regs)?);
            }
            call_in(ctx, code, *callee as usize, &vals, fuel, depth + 1)
        }
        DecodedInst::MathCall { kind, args } => {
            let mut vals = [0.0f64; 2];
            for (i, a) in args.iter().enumerate() {
                vals[i] = read_operand(a, regs)?
                    .as_f64()
                    .ok_or_else(|| ExecError::Type("intrinsic arg".into()))?;
            }
            Ok(Value::F64(exec_math(*kind, &vals[..args.len()])))
        }
        DecodedInst::RandCall { kind, state } => exec_rand(ctx, *kind, read_operand(state, regs)?),
        DecodedInst::Alloca { slots } => Ok(Value::Ptr(ctx.alloca(*slots as usize))),
        DecodedInst::Load { ptr } => {
            ctx.stats.loads += 1;
            let addr = match read_operand(ptr, regs)? {
                Value::Ptr(p) => p,
                other => return Err(ExecError::Type(format!("load from non-pointer {other:?}"))),
            };
            ctx.load_slot(addr)
        }
        DecodedInst::Store { ptr, value } => {
            ctx.stats.stores += 1;
            let addr = match read_operand(ptr, regs)? {
                Value::Ptr(p) => p,
                other => return Err(ExecError::Type(format!("store to non-pointer {other:?}"))),
            };
            let v = read_operand(value, regs)?;
            ctx.store_slot(addr, v)?;
            Ok(Value::Unit)
        }
        DecodedInst::Gep {
            base,
            const_offset,
            dyn_steps,
        } => Ok(Value::Ptr(gep_addr(
            ctx,
            base,
            *const_offset,
            dyn_steps,
            regs,
        )?)),
        DecodedInst::InvalidGep { base } => match read_operand(base, regs)? {
            Value::Ptr(_) => Err(ExecError::Type("invalid gep".into())),
            other => Err(ExecError::Type(format!("gep on non-pointer {other:?}"))),
        },
        DecodedInst::Cast { kind, val } => exec_cast(*kind, read_operand(val, regs)?),
        DecodedInst::GlobalAddr { addr } => Ok(Value::Ptr(*addr)),

        // -- Fused superinstructions (emitted by `crate::fuse` only) --------
        DecodedInst::LoadAbs { addr } => {
            ctx.stats.loads += 1;
            ctx.stats.fused_ops += 1;
            ctx.load_slot(*addr)
        }
        DecodedInst::StoreAbs { addr, value } => {
            ctx.stats.stores += 1;
            ctx.stats.fused_ops += 1;
            let v = read_operand(value, regs)?;
            ctx.store_slot(*addr, v)?;
            Ok(Value::Unit)
        }
        DecodedInst::GepLoad {
            base,
            const_offset,
            dyn_steps,
        } => {
            // Pair superinstructions charge the absorbed dispatch's fuel
            // (like the fused cmp+branch terminator), so fuel accounting
            // matches the decoded path op-for-op.
            charge_fuel(fuel)?;
            let addr = gep_addr(ctx, base, *const_offset, dyn_steps, regs)?;
            ctx.stats.loads += 1;
            ctx.stats.fused_ops += 1;
            ctx.load_slot(addr)
        }
        DecodedInst::GepStore {
            base,
            const_offset,
            dyn_steps,
            value,
        } => {
            charge_fuel(fuel)?;
            let addr = gep_addr(ctx, base, *const_offset, dyn_steps, regs)?;
            ctx.stats.stores += 1;
            ctx.stats.fused_ops += 1;
            let v = read_operand(value, regs)?;
            ctx.store_slot(addr, v)?;
            Ok(Value::Unit)
        }
        DecodedInst::BinRI { op, reg, imm } => exec_bin(*op, read_reg(regs, *reg)?, *imm),
        DecodedInst::BinIR { op, imm, reg } => exec_bin(*op, *imm, read_reg(regs, *reg)?),
        DecodedInst::LoadBin {
            op,
            ptr,
            other,
            load_lhs,
        } => {
            charge_fuel(fuel)?;
            ctx.stats.loads += 1;
            ctx.stats.fused_ops += 1;
            let addr = match read_operand(ptr, regs)? {
                Value::Ptr(p) => p,
                other => return Err(ExecError::Type(format!("load from non-pointer {other:?}"))),
            };
            let loaded = ctx.load_slot(addr)?;
            let o = read_operand(other, regs)?;
            if *load_lhs {
                exec_bin(*op, loaded, o)
            } else {
                exec_bin(*op, o, loaded)
            }
        }
        DecodedInst::BinStore { op, lhs, rhs, ptr } => {
            charge_fuel(fuel)?;
            let v = exec_bin(*op, read_operand(lhs, regs)?, read_operand(rhs, regs)?)?;
            ctx.stats.stores += 1;
            ctx.stats.fused_ops += 1;
            let addr = match read_operand(ptr, regs)? {
                Value::Ptr(p) => p,
                other => return Err(ExecError::Type(format!("store to non-pointer {other:?}"))),
            };
            ctx.store_slot(addr, v)?;
            Ok(Value::Unit)
        }
    }
}

/// Execute a unary operator.
pub(crate) fn exec_un(op: UnOp, a: Value) -> Result<Value, ExecError> {
    match op {
        UnOp::FNeg => Ok(Value::F64(
            -a.as_f64().ok_or_else(|| ExecError::Type("fneg".into()))?,
        )),
        UnOp::Not => match a {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            Value::I64(i) => Ok(Value::I64(!i)),
            _ => Err(ExecError::Type("not on float".into())),
        },
    }
}

/// Execute a cast.
pub(crate) fn exec_cast(kind: CastKind, a: Value) -> Result<Value, ExecError> {
    Ok(match kind {
        CastKind::SiToFp => {
            Value::F64(a.as_i64().ok_or_else(|| ExecError::Type("sitofp".into()))? as f64)
        }
        CastKind::FpToSi => {
            Value::I64(a.as_f64().ok_or_else(|| ExecError::Type("fptosi".into()))? as i64)
        }
        CastKind::FpTrunc | CastKind::FpExt => {
            Value::F64(a.as_f64().ok_or_else(|| ExecError::Type("fpcast".into()))?)
        }
        CastKind::ZExtBool => {
            Value::I64(a.as_bool().ok_or_else(|| ExecError::Type("zext".into()))? as i64)
        }
        CastKind::TruncBool => {
            Value::Bool(a.as_i64().ok_or_else(|| ExecError::Type("trunc".into()))? != 0)
        }
    })
}

/// Execute a PRNG intrinsic against its memory-resident state slot.
pub(crate) fn exec_rand(
    ctx: &mut EngineCtx,
    kind: Intrinsic,
    state: Value,
) -> Result<Value, ExecError> {
    let addr = match state {
        Value::Ptr(p) => p,
        _ => return Err(ExecError::Type("PRNG state must be a pointer".into())),
    };
    let state_bits = ctx
        .load_slot(addr)?
        .as_i64()
        .ok_or_else(|| ExecError::Type("PRNG state must be an integer".into()))?;
    let (out, next) = rand_draw(kind, state_bits);
    ctx.store_slot(addr, Value::I64(next))?;
    Ok(Value::F64(out))
}

/// One PRNG draw from generator state `state`: the sample and the state to
/// write back.
#[inline(always)]
pub(crate) fn rand_draw(kind: Intrinsic, state: i64) -> (f64, i64) {
    let mut rng = SplitMix64::new(state as u64);
    let out = match kind {
        Intrinsic::RandUniform => rng.uniform(),
        Intrinsic::RandNormal => rng.normal(),
        _ => unreachable!(),
    };
    (out, rng.state as i64)
}

/// Resolve a folded GEP address: base pointer, constant offset, dynamic
/// steps. Shared by the plain and the fused GEP forms on every tier.
pub(crate) fn gep_addr(
    ctx: &EngineCtx,
    base: &Operand,
    const_offset: u32,
    dyn_steps: &[(Operand, u32)],
    regs: &Frame,
) -> Result<usize, ExecError> {
    let addr = match read_operand(base, regs)? {
        Value::Ptr(p) => p,
        other => return Err(ExecError::Type(format!("gep on non-pointer {other:?}"))),
    };
    let mut offset = const_offset as usize;
    for (idx, stride) in dyn_steps.iter() {
        let i = read_operand(idx, regs)?
            .as_i64()
            .ok_or_else(|| ExecError::Type("gep index".into()))?;
        if i < 0 {
            return Err(ExecError::OutOfBounds {
                addr,
                size: ctx.memory.len(),
            });
        }
        offset += i as usize * *stride as usize;
    }
    Ok(addr + offset)
}

/// Read a pre-resolved operand against the current frame.
#[inline]
pub(crate) fn read_operand(op: &Operand, regs: &[Option<Value>]) -> Result<Value, ExecError> {
    match op {
        Operand::Imm(v) => Ok(*v),
        Operand::Reg(i) => regs[*i as usize]
            .ok_or_else(|| ExecError::Undef(format!("value %{i} used before definition"))),
        Operand::Undef(i) => Err(ExecError::Undef(format!("%{i}"))),
    }
}

/// Read a frame register directly (the specialized register fields of the
/// fused `BinRI`/`BinIR` forms).
#[inline]
pub(crate) fn read_reg(regs: &[Option<Value>], i: u32) -> Result<Value, ExecError> {
    regs[i as usize].ok_or_else(|| ExecError::Undef(format!("value %{i} used before definition")))
}

/// Charge one extra unit of fuel for an instruction a superinstruction
/// absorbed, so fused pair forms consume the same fuel as their decoded
/// expansion.
#[inline]
pub(crate) fn charge_fuel(fuel: &mut u64) -> Result<(), ExecError> {
    if *fuel == 0 {
        return Err(ExecError::FuelExhausted);
    }
    *fuel -= 1;
    Ok(())
}

pub(crate) fn exec_bin(op: BinOp, a: Value, b: Value) -> Result<Value, ExecError> {
    if op.is_float() {
        let (x, y) = (
            a.as_f64()
                .ok_or_else(|| ExecError::Type("float op".into()))?,
            b.as_f64()
                .ok_or_else(|| ExecError::Type("float op".into()))?,
        );
        Ok(Value::F64(float_bin(op, x, y)))
    } else {
        let (x, y) = (
            a.as_i64().ok_or_else(|| ExecError::Type("int op".into()))?,
            b.as_i64().ok_or_else(|| ExecError::Type("int op".into()))?,
        );
        int_bin(op, x, y)
            .map(Value::I64)
            .ok_or(ExecError::DivisionByZero)
    }
}

/// What a float binop computes. Inlined everywhere, so a call with a
/// constant `op` (the threaded tier's per-operator handlers) folds to the
/// one instruction.
#[inline(always)]
pub(crate) fn float_bin(op: BinOp, x: f64, y: f64) -> f64 {
    match op {
        BinOp::FAdd => x + y,
        BinOp::FSub => x - y,
        BinOp::FMul => x * y,
        BinOp::FDiv => x / y,
        BinOp::FRem => x % y,
        _ => unreachable!(),
    }
}

/// What an integer binop computes; `None` is a division by zero.
#[inline(always)]
pub(crate) fn int_bin(op: BinOp, x: i64, y: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::SDiv => {
            if y == 0 {
                return None;
            }
            x.wrapping_div(y)
        }
        BinOp::SRem => {
            if y == 0 {
                return None;
            }
            x.wrapping_rem(y)
        }
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Shl => x.wrapping_shl(y as u32),
        BinOp::LShr => ((x as u64).wrapping_shr(y as u32)) as i64,
        BinOp::AShr => x.wrapping_shr(y as u32),
        _ => unreachable!(),
    })
}

pub(crate) fn exec_cmp(pred: CmpPred, a: Value, b: Value) -> Result<Value, ExecError> {
    let r = if pred.is_float() {
        let (x, y) = (
            a.as_f64().ok_or_else(|| ExecError::Type("fcmp".into()))?,
            b.as_f64().ok_or_else(|| ExecError::Type("fcmp".into()))?,
        );
        float_cmp(pred, x, y)
    } else {
        let (x, y) = (
            a.as_i64().ok_or_else(|| ExecError::Type("icmp".into()))?,
            b.as_i64().ok_or_else(|| ExecError::Type("icmp".into()))?,
        );
        match pred {
            CmpPred::IEq => x == y,
            CmpPred::INe => x != y,
            CmpPred::ILt => x < y,
            CmpPred::ILe => x <= y,
            CmpPred::IGt => x > y,
            CmpPred::IGe => x >= y,
            _ => unreachable!(),
        }
    };
    Ok(Value::Bool(r))
}

/// What a float comparison computes (inlined like [`float_bin`]).
#[inline(always)]
pub(crate) fn float_cmp(pred: CmpPred, x: f64, y: f64) -> bool {
    match pred {
        CmpPred::FEq => x == y,
        CmpPred::FNe => x != y,
        CmpPred::FLt => x < y,
        CmpPred::FLe => x <= y,
        CmpPred::FGt => x > y,
        CmpPred::FGe => x >= y,
        _ => unreachable!(),
    }
}

pub(crate) fn exec_math(kind: Intrinsic, args: &[f64]) -> f64 {
    match kind {
        Intrinsic::Exp => args[0].exp(),
        Intrinsic::Log => args[0].ln(),
        Intrinsic::Sqrt => args[0].sqrt(),
        Intrinsic::Sin => args[0].sin(),
        Intrinsic::Cos => args[0].cos(),
        Intrinsic::Tanh => args[0].tanh(),
        Intrinsic::Pow => args[0].powf(args[1]),
        Intrinsic::FAbs => args[0].abs(),
        Intrinsic::Floor => args[0].floor(),
        Intrinsic::Ceil => args[0].ceil(),
        Intrinsic::FMin => args[0].min(args[1]),
        Intrinsic::FMax => args[0].max(args[1]),
        Intrinsic::RandUniform | Intrinsic::RandNormal => unreachable!(),
    }
}
