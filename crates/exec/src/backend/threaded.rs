//! The direct-threaded tier — the production tier (`TierPolicy::default()`):
//! dispatch over the fused stream via indirect calls instead of the
//! interpreter's big `match`.
//!
//! At prepare time every fused instruction is paired with a **handler
//! function pointer** selected once from its opcode and operand shape, so a
//! block becomes a flat array of `(handler, packed operands)` and the
//! dispatch loop is one indirect call per instruction — the classic
//! direct-threading structure, minus computed goto (not expressible in safe
//! Rust).
//!
//! Every (variant × operand shape) row that is at least 1 % of the dynamic
//! dispatches of a `dispatch_heavy` or `boundary_heavy` benchmark family has
//! a handler of its own, monomorphized per operator, so neither the opcode
//! nor the operand kinds are re-matched at run time. Each of them has a
//! **tag-checked fast path** for the tags the IR's static types promise
//! (`Some(Value::F64(x))` in a register, `Slot::F64` in memory, a
//! `Value::Bool` condition, …) and no side effect until every check has
//! passed. Otherwise it hands the whole op to the interpreter's arm, so
//! coercions, errors and counters stay defined once in [`super::interp`].
//! Shapes without a row of their own run that arm directly.
//!
//! Fuel and the `instructions` counter are charged **per block** on entry
//! rather than per op: totals on successful runs are identical to the fused
//! interpreter op-for-op (each op still costs 1, superinstructions still
//! charge their absorbed dispatches inside the handler), but a run that
//! exhausts its budget mid-block fails at the block boundary instead of the
//! exact op. Error *kind* and success/failure behaviour are unchanged — a
//! run succeeds under this tier iff it succeeds under the fused tier.

use super::interp::{
    self, enter_block, exec_math, exec_term, float_bin, float_cmp, int_bin, rand_draw,
    read_operand, Flow,
};
use crate::decode::{DecodedFunction, DecodedInst, DecodedTerm, Operand, PhiEdge};
use crate::engine::{EngineCtx, ExecError, Frame, Slot, Value};
use distill_ir::{BinOp, CmpPred, UnOp};
use ops::{Op, Pred};

/// A handler executes one packed op against the engine state and returns
/// the value for the op's destination register. `code` is the whole
/// threaded module, so call handlers can recurse within the tier.
type Handler = fn(
    ctx: &mut EngineCtx,
    code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError>;

/// One instruction of the threaded stream: the pre-selected handler plus
/// the packed operands it interprets (the fused instruction, kept whole so
/// the fallback can hand it to the interpreter's arm).
#[derive(Debug, Clone)]
pub struct ThreadedOp {
    handler: Handler,
    dst: u32,
    inst: DecodedInst,
}

/// One basic block: the phi tables of the fused form plus the handler
/// array.
#[derive(Debug, Clone)]
pub struct ThreadedBlock {
    pub(crate) has_phis: bool,
    pub(crate) first_phi: u32,
    pub(crate) phi_edges: Box<[(u32, PhiEdge)]>,
    pub(crate) code: Box<[ThreadedOp]>,
    pub(crate) term: DecodedTerm,
}

/// A function lowered to the threaded form.
#[derive(Debug, Clone)]
pub struct ThreadedFunction {
    pub(crate) name: String,
    pub(crate) entry: Option<u32>,
    pub(crate) num_values: u32,
    pub(crate) blocks: Vec<ThreadedBlock>,
}

/// Lower every fused function to its threaded form.
pub(crate) fn thread_module(fused: &[DecodedFunction]) -> Vec<ThreadedFunction> {
    fused.iter().map(thread_function).collect()
}

fn thread_function(df: &DecodedFunction) -> ThreadedFunction {
    ThreadedFunction {
        name: df.name.clone(),
        entry: df.entry,
        num_values: df.num_values,
        blocks: df
            .blocks
            .iter()
            .map(|b| ThreadedBlock {
                has_phis: b.has_phis,
                first_phi: b.first_phi,
                phi_edges: b.phi_edges.clone(),
                code: b
                    .code
                    .iter()
                    .map(|op| ThreadedOp {
                        handler: select_handler(&op.inst),
                        dst: op.dst,
                        inst: op.inst.clone(),
                    })
                    .collect(),
                term: b.term.clone(),
            })
            .collect(),
    }
}

/// Operator markers: a handler generic over `O: Op` (or `P: Pred`) is
/// monomorphized per operator, and the shared scalar definitions in
/// `interp` fold to one instruction once the operator is a constant.
mod ops {
    use distill_ir::{BinOp, CmpPred};

    pub(super) trait Op {
        const OP: BinOp;
    }

    pub(super) trait Pred {
        const PRED: CmpPred;
    }

    macro_rules! markers {
        ($tr:ident::$c:ident: $ty:ident [$($name:ident),*]) => {$(
            pub(super) struct $name;
            impl $tr for $name {
                const $c: $ty = $ty::$name;
            }
        )*};
    }

    markers!(Op::OP: BinOp [
        FAdd, FSub, FMul, FDiv, FRem, Add, Sub, Mul, SDiv, SRem, And, Or, Xor, Shl, LShr, AShr
    ]);
    markers!(Pred::PRED: CmpPred [FEq, FNe, FLt, FLe, FGt, FGe]);
}

/// `$h` monomorphized for the runtime operator `$val`, or `None` when the
/// operator is not in the list.
macro_rules! monomorphize {
    ($val:expr, $h:ident, $ty:ident [$($name:ident),*]) => {
        match $val {
            $($ty::$name => Some($h::<ops::$name> as Handler),)*
            _ => None,
        }
    };
}

macro_rules! float_op {
    ($val:expr, $h:ident) => {
        monomorphize!($val, $h, BinOp [FAdd, FSub, FMul, FDiv, FRem])
    };
}

macro_rules! int_op {
    ($val:expr, $h:ident) => {
        monomorphize!($val, $h, BinOp [Add, Sub, Mul, SDiv, SRem, And, Or, Xor, Shl, LShr, AShr])
    };
}

/// Pick the handler for an instruction from its opcode and operand shape.
fn select_handler(inst: &DecodedInst) -> Handler {
    use DecodedInst as D;
    use Operand::{Imm, Reg};
    let special = match inst {
        D::Bin {
            op,
            lhs: Reg(_),
            rhs: Reg(_),
        } => float_op!(*op, h_bin_rr_f).or(int_op!(*op, h_bin_rr_i)),
        D::BinRI {
            op,
            imm: Value::F64(_),
            ..
        }
        | D::BinIR {
            op,
            imm: Value::F64(_),
            ..
        } => float_op!(*op, h_bin_imm_f),
        D::BinRI {
            op,
            imm: Value::I64(_),
            ..
        }
        | D::BinIR {
            op,
            imm: Value::I64(_),
            ..
        } => int_op!(*op, h_bin_imm_i),
        D::LoadBin {
            op,
            ptr: Imm(Value::Ptr(_)),
            other: Reg(_),
            ..
        } => float_op!(*op, h_load_bin_f),
        D::LoadBin {
            op,
            ptr: Imm(Value::Ptr(_)),
            other: Imm(Value::I64(_)),
            ..
        } => int_op!(*op, h_load_bin_imm_i),
        D::BinStore {
            op,
            ptr: Imm(Value::Ptr(_)),
            ..
        } => float_op!(*op, h_bin_store_f),
        D::LoadAbs { .. } => Some(h_load_abs as Handler),
        D::StoreAbs { value: Reg(_), .. } => Some(h_store_abs_r as Handler),
        D::StoreAbs {
            value: Imm(Value::F64(_)),
            ..
        } => Some(h_store_abs_imm as Handler),
        D::RandCall {
            state: Imm(Value::Ptr(_)),
            ..
        } => Some(h_rand_abs as Handler),
        D::MathCall { .. } => Some(h_math as Handler),
        D::Cmp {
            pred,
            lhs: Reg(_),
            rhs: Reg(_),
        } => monomorphize!(*pred, h_fcmp_rr, CmpPred [FEq, FNe, FLt, FLe, FGt, FGe]),
        D::Select { cond: Reg(_), .. } => Some(h_select_r as Handler),
        D::Un {
            op: UnOp::FNeg,
            val: Reg(_),
        } => Some(h_fneg_r as Handler),
        D::GepLoad {
            base: Imm(Value::Ptr(_)),
            dyn_steps,
            ..
        } if matches!(**dyn_steps, [(Reg(_), _)]) => Some(h_gep_load_abs as Handler),
        // Calls must recurse within this tier.
        D::Call { .. } => Some(h_call as Handler),
        _ => None,
    };
    special.unwrap_or(h_generic)
}

/// Call a function within the threaded stream.
pub(crate) fn call_in(
    ctx: &mut EngineCtx,
    code: &[ThreadedFunction],
    func: usize,
    args: &[Value],
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    ctx.stats.calls += 1;
    if depth > 256 {
        return Err(ExecError::DepthExceeded);
    }
    let tf = &code[func];
    let Some(entry) = tf.entry else {
        return Err(ExecError::MissingBody(tf.name.clone()));
    };
    let frame_base = ctx.memory.len();
    let mut regs = ctx.acquire_frame(tf.num_values as usize);
    for (i, a) in args.iter().enumerate() {
        regs[i] = Some(*a);
    }
    let result = exec_in(ctx, code, tf, entry, &mut regs, fuel, depth);
    ctx.release_frame(regs);
    ctx.truncate_stack(frame_base);
    result
}

fn exec_in(
    ctx: &mut EngineCtx,
    code: &[ThreadedFunction],
    tf: &ThreadedFunction,
    entry: u32,
    regs: &mut Frame,
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    let mut block = entry as usize;
    let mut prev: Option<u32> = None;
    loop {
        let blk = &tf.blocks[block];
        if blk.has_phis {
            enter_block(ctx, &blk.phi_edges, blk.first_phi, prev, regs)?;
        }

        // Block-granular accounting (see the module docs): one decrement
        // and one add for the whole array, then a straight run of indirect
        // calls.
        let cost = blk.code.len() as u64;
        if *fuel < cost {
            return Err(ExecError::FuelExhausted);
        }
        *fuel -= cost;
        ctx.stats.instructions += cost;
        for op in blk.code.iter() {
            let val = (op.handler)(ctx, code, op, regs, fuel, depth)?;
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

// ---------------------------------------------------------------------------
// Tag probes for the fast paths: `None` means "not the promised tag", never
// an error — the caller then falls back to the interpreter's arm.
// ---------------------------------------------------------------------------

#[inline(always)]
fn f64_reg(regs: &Frame, i: u32) -> Option<f64> {
    match regs[i as usize] {
        Some(Value::F64(x)) => Some(x),
        _ => None,
    }
}

#[inline(always)]
fn i64_reg(regs: &Frame, i: u32) -> Option<i64> {
    match regs[i as usize] {
        Some(Value::I64(x)) => Some(x),
        _ => None,
    }
}

#[inline(always)]
fn f64_operand(o: &Operand, regs: &Frame) -> Option<f64> {
    match *o {
        Operand::Reg(i) => f64_reg(regs, i),
        Operand::Imm(Value::F64(x)) => Some(x),
        _ => None,
    }
}

#[inline(always)]
fn f64_slot(ctx: &EngineCtx, addr: usize) -> Option<f64> {
    match ctx.memory.get(addr) {
        Some(Slot::F64(x)) => Some(*x),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Shape-specialized handlers. Each destructures the shape `select_handler`
// chose it for, so the `else` arms are unreachable.
// ---------------------------------------------------------------------------

/// Float `reg OP reg`.
fn h_bin_rr_f<O: Op>(
    ctx: &mut EngineCtx,
    code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    let DecodedInst::Bin {
        lhs: Operand::Reg(a),
        rhs: Operand::Reg(b),
        ..
    } = op.inst
    else {
        unreachable!("handler selected for reg-reg Bin");
    };
    if let (Some(x), Some(y)) = (f64_reg(regs, a), f64_reg(regs, b)) {
        return Ok(Value::F64(float_bin(O::OP, x, y)));
    }
    h_generic(ctx, code, op, regs, fuel, depth)
}

/// Integer `reg OP reg`.
fn h_bin_rr_i<O: Op>(
    ctx: &mut EngineCtx,
    code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    let DecodedInst::Bin {
        lhs: Operand::Reg(a),
        rhs: Operand::Reg(b),
        ..
    } = op.inst
    else {
        unreachable!("handler selected for reg-reg Bin");
    };
    if let (Some(x), Some(y)) = (i64_reg(regs, a), i64_reg(regs, b)) {
        if let Some(r) = int_bin(O::OP, x, y) {
            return Ok(Value::I64(r));
        }
    }
    h_generic(ctx, code, op, regs, fuel, depth)
}

/// Float `reg OP imm` (`BinRI`) or `imm OP reg` (`BinIR`).
fn h_bin_imm_f<O: Op>(
    ctx: &mut EngineCtx,
    code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    let (imm_lhs, reg, k) = match op.inst {
        DecodedInst::BinRI {
            reg,
            imm: Value::F64(k),
            ..
        } => (false, reg, k),
        DecodedInst::BinIR {
            reg,
            imm: Value::F64(k),
            ..
        } => (true, reg, k),
        _ => unreachable!("handler selected for float BinRI/BinIR"),
    };
    if let Some(x) = f64_reg(regs, reg) {
        let (a, b) = if imm_lhs { (k, x) } else { (x, k) };
        return Ok(Value::F64(float_bin(O::OP, a, b)));
    }
    h_generic(ctx, code, op, regs, fuel, depth)
}

/// Integer `reg OP imm` (`BinRI`) or `imm OP reg` (`BinIR`) — the loop
/// counters and the PRNG seed mixing.
fn h_bin_imm_i<O: Op>(
    ctx: &mut EngineCtx,
    code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    let (imm_lhs, reg, k) = match op.inst {
        DecodedInst::BinRI {
            reg,
            imm: Value::I64(k),
            ..
        } => (false, reg, k),
        DecodedInst::BinIR {
            reg,
            imm: Value::I64(k),
            ..
        } => (true, reg, k),
        _ => unreachable!("handler selected for integer BinRI/BinIR"),
    };
    if let Some(x) = i64_reg(regs, reg) {
        let (a, b) = if imm_lhs { (k, x) } else { (x, k) };
        if let Some(r) = int_bin(O::OP, a, b) {
            return Ok(Value::I64(r));
        }
    }
    h_generic(ctx, code, op, regs, fuel, depth)
}

/// Float `load [abs] OP reg`, the load on either side.
fn h_load_bin_f<O: Op>(
    ctx: &mut EngineCtx,
    code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    let DecodedInst::LoadBin {
        ptr: Operand::Imm(Value::Ptr(addr)),
        other: Operand::Reg(r),
        load_lhs,
        ..
    } = op.inst
    else {
        unreachable!("handler selected for absolute float LoadBin");
    };
    if *fuel > 0 {
        if let (Some(m), Some(x)) = (f64_slot(ctx, addr), f64_reg(regs, r)) {
            *fuel -= 1;
            ctx.stats.loads += 1;
            ctx.stats.fused_ops += 1;
            let (a, b) = if load_lhs { (m, x) } else { (x, m) };
            return Ok(Value::F64(float_bin(O::OP, a, b)));
        }
    }
    h_generic(ctx, code, op, regs, fuel, depth)
}

/// Integer `load [abs] OP imm` — the trial loops' counter reads.
fn h_load_bin_imm_i<O: Op>(
    ctx: &mut EngineCtx,
    code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    let DecodedInst::LoadBin {
        ptr: Operand::Imm(Value::Ptr(addr)),
        other: Operand::Imm(Value::I64(k)),
        load_lhs,
        ..
    } = op.inst
    else {
        unreachable!("handler selected for absolute integer LoadBin");
    };
    if *fuel > 0 {
        if let Some(Slot::I64(m)) = ctx.memory.get(addr) {
            let (a, b) = if load_lhs { (*m, k) } else { (k, *m) };
            if let Some(r) = int_bin(O::OP, a, b) {
                *fuel -= 1;
                ctx.stats.loads += 1;
                ctx.stats.fused_ops += 1;
                return Ok(Value::I64(r));
            }
        }
    }
    h_generic(ctx, code, op, regs, fuel, depth)
}

/// Float `store [abs] <- lhs OP rhs`.
fn h_bin_store_f<O: Op>(
    ctx: &mut EngineCtx,
    code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    let DecodedInst::BinStore {
        lhs,
        rhs,
        ptr: Operand::Imm(Value::Ptr(addr)),
        ..
    } = &op.inst
    else {
        unreachable!("handler selected for absolute float BinStore");
    };
    if *fuel > 0 && *addr < ctx.memory.len() {
        if let (Some(x), Some(y)) = (f64_operand(lhs, regs), f64_operand(rhs, regs)) {
            ctx.memory[*addr] = Slot::F64(float_bin(O::OP, x, y));
            *fuel -= 1;
            ctx.stats.stores += 1;
            ctx.stats.fused_ops += 1;
            return Ok(Value::Unit);
        }
    }
    h_generic(ctx, code, op, regs, fuel, depth)
}

fn h_load_abs(
    ctx: &mut EngineCtx,
    code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    let DecodedInst::LoadAbs { addr } = op.inst else {
        unreachable!("handler selected for LoadAbs");
    };
    if let Some(x) = f64_slot(ctx, addr) {
        ctx.stats.loads += 1;
        ctx.stats.fused_ops += 1;
        return Ok(Value::F64(x));
    }
    h_generic(ctx, code, op, regs, fuel, depth)
}

/// `store [abs] <- reg` of a float or an integer (the trial counters).
fn h_store_abs_r(
    ctx: &mut EngineCtx,
    code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    let DecodedInst::StoreAbs {
        addr,
        value: Operand::Reg(r),
    } = op.inst
    else {
        unreachable!("handler selected for register StoreAbs");
    };
    let value = match regs[r as usize] {
        Some(Value::F64(x)) => Slot::F64(x),
        Some(Value::I64(x)) => Slot::I64(x),
        _ => return h_generic(ctx, code, op, regs, fuel, depth),
    };
    if let Some(slot) = ctx.memory.get_mut(addr) {
        *slot = value;
        ctx.stats.stores += 1;
        ctx.stats.fused_ops += 1;
        return Ok(Value::Unit);
    }
    h_generic(ctx, code, op, regs, fuel, depth)
}

/// `store [abs] <- float imm` — state resets.
fn h_store_abs_imm(
    ctx: &mut EngineCtx,
    code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    let DecodedInst::StoreAbs {
        addr,
        value: Operand::Imm(Value::F64(x)),
    } = op.inst
    else {
        unreachable!("handler selected for float-immediate StoreAbs");
    };
    if let Some(slot) = ctx.memory.get_mut(addr) {
        *slot = Slot::F64(x);
        ctx.stats.stores += 1;
        ctx.stats.fused_ops += 1;
        return Ok(Value::Unit);
    }
    h_generic(ctx, code, op, regs, fuel, depth)
}

/// A PRNG draw whose state lives at an absolute address.
fn h_rand_abs(
    ctx: &mut EngineCtx,
    code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    let DecodedInst::RandCall {
        kind,
        state: Operand::Imm(Value::Ptr(addr)),
    } = op.inst
    else {
        unreachable!("handler selected for absolute RandCall");
    };
    if let Some(Slot::I64(state)) = ctx.memory.get_mut(addr) {
        let (out, next) = rand_draw(kind, *state);
        *state = next;
        return Ok(Value::F64(out));
    }
    h_generic(ctx, code, op, regs, fuel, depth)
}

/// A pure `f64` intrinsic (one or two arguments).
fn h_math(
    ctx: &mut EngineCtx,
    code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    let DecodedInst::MathCall { kind, args } = &op.inst else {
        unreachable!("handler selected for MathCall");
    };
    let mut vals = [0.0f64; 2];
    for (v, a) in vals.iter_mut().zip(args.iter()) {
        match f64_operand(a, regs) {
            Some(x) => *v = x,
            None => return h_generic(ctx, code, op, regs, fuel, depth),
        }
    }
    Ok(Value::F64(exec_math(*kind, &vals[..args.len()])))
}

/// Float `reg PRED reg`.
fn h_fcmp_rr<P: Pred>(
    ctx: &mut EngineCtx,
    code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    let DecodedInst::Cmp {
        lhs: Operand::Reg(a),
        rhs: Operand::Reg(b),
        ..
    } = op.inst
    else {
        unreachable!("handler selected for reg-reg Cmp");
    };
    if let (Some(x), Some(y)) = (f64_reg(regs, a), f64_reg(regs, b)) {
        return Ok(Value::Bool(float_cmp(P::PRED, x, y)));
    }
    h_generic(ctx, code, op, regs, fuel, depth)
}

/// `select` on a register condition.
fn h_select_r(
    ctx: &mut EngineCtx,
    code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    let DecodedInst::Select {
        cond: Operand::Reg(c),
        then_val,
        else_val,
    } = &op.inst
    else {
        unreachable!("handler selected for register Select");
    };
    if let Some(Value::Bool(b)) = regs[*c as usize] {
        return read_operand(if b { then_val } else { else_val }, regs);
    }
    h_generic(ctx, code, op, regs, fuel, depth)
}

/// Float negation of a register.
fn h_fneg_r(
    ctx: &mut EngineCtx,
    code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    let DecodedInst::Un {
        val: Operand::Reg(r),
        ..
    } = op.inst
    else {
        unreachable!("handler selected for register FNeg");
    };
    if let Some(x) = f64_reg(regs, r) {
        return Ok(Value::F64(-x));
    }
    h_generic(ctx, code, op, regs, fuel, depth)
}

/// `load [abs + reg * stride]`: one dynamic index into a global array.
fn h_gep_load_abs(
    ctx: &mut EngineCtx,
    code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    let DecodedInst::GepLoad {
        base: Operand::Imm(Value::Ptr(base)),
        const_offset,
        dyn_steps,
    } = &op.inst
    else {
        unreachable!("handler selected for absolute GepLoad");
    };
    let [(Operand::Reg(i), stride)] = **dyn_steps else {
        unreachable!("handler selected for one register GEP step");
    };
    if *fuel > 0 {
        if let Some(idx) = i64_reg(regs, i).filter(|idx| *idx >= 0) {
            let addr = base + *const_offset as usize + idx as usize * stride as usize;
            if let Some(x) = f64_slot(ctx, addr) {
                *fuel -= 1;
                ctx.stats.loads += 1;
                ctx.stats.fused_ops += 1;
                return Ok(Value::F64(x));
            }
        }
    }
    h_generic(ctx, code, op, regs, fuel, depth)
}

// ---------------------------------------------------------------------------
// Handlers without a fast path.
// ---------------------------------------------------------------------------

/// Calls recurse within the threaded tier, so a function's whole dynamic
/// extent runs threaded.
fn h_call(
    ctx: &mut EngineCtx,
    code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    let DecodedInst::Call { callee, args } = &op.inst else {
        unreachable!("handler selected for Call");
    };
    let mut vals = Vec::with_capacity(args.len());
    for a in args.iter() {
        vals.push(read_operand(a, regs)?);
    }
    call_in(ctx, code, *callee as usize, &vals, fuel, depth + 1)
}

/// The interpreter's arm for the op: the handler of every shape without a
/// row of its own, and every fast path's fallback. It is never handed a
/// `Call` (which needs the threaded `code`), so the empty decoded module is
/// never indexed.
fn h_generic(
    ctx: &mut EngineCtx,
    _code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    interp::exec_decoded_inst(ctx, &[], &op.inst, regs, fuel, depth)
}
