//! Predecoded execution form: the bridge between the IR and the hot loop.
//!
//! The reference interpreter walks the IR directly: it deep-clones the callee
//! [`Function`] on every call, re-matches `ValueKind::Const` on every operand
//! read, and clones each block terminator per block visit. For the workloads
//! the paper cares about — a tiny evaluation kernel executed millions of
//! times — that constant re-interpretation of *static* structure dominates
//! the run time.
//!
//! [`decode_function`] lowers a [`Function`] once, at engine construction,
//! into a [`DecodedFunction`]:
//!
//! * every instruction operand is pre-resolved to an [`Operand`]: a register
//!   index into the call frame, or an inlined immediate [`Value`] for
//!   constants (so the hot loop never looks at the value arena again);
//! * phi nodes are split out of the instruction stream into per-edge copy
//!   tables keyed by predecessor block ([`PhiEdge`]), evaluated as one
//!   parallel copy at block entry;
//! * GEP index paths are folded into a constant slot offset plus a list of
//!   `(dynamic index, element stride)` steps;
//! * global addresses are resolved to absolute slot addresses (the engine's
//!   global layout is fixed at construction);
//! * terminators are stored by value as [`DecodedTerm`] — nothing is cloned
//!   per block visit.
//!
//! Error behaviour is preserved: malformed edges (a phi without an incoming
//! value for a taken edge, an `undef` operand, an invalid GEP shape) decode
//! into poison entries that reproduce the reference interpreter's
//! [`ExecError`](crate::engine::ExecError) when — and only when — they are
//! actually executed.

use crate::engine::Value;
use distill_ir::inst::GepIndex;
use distill_ir::{
    BinOp, CastKind, CmpPred, Constant, Function, Inst, Intrinsic, Module, Terminator, Ty, UnOp,
    ValueKind,
};

/// A pre-resolved instruction operand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// Read the call frame register with this index.
    Reg(u32),
    /// An immediate value inlined at decode time (IR constants).
    Imm(Value),
    /// `Constant::Undef` — reading it is an error carrying the value id,
    /// exactly like the reference interpreter.
    Undef(u32),
}

/// One decoded instruction plus the frame register its result lands in.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedOp {
    /// Destination register (the defining value's arena index).
    pub dst: u32,
    /// The operation.
    pub inst: DecodedInst,
}

/// A non-phi instruction with operands pre-resolved.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodedInst {
    /// Binary arithmetic.
    Bin {
        /// The operation.
        op: BinOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// Unary arithmetic.
    Un {
        /// The operation.
        op: UnOp,
        /// Operand.
        val: Operand,
    },
    /// Comparison.
    Cmp {
        /// The predicate.
        pred: CmpPred,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// Branch-free conditional.
    Select {
        /// Condition.
        cond: Operand,
        /// Value when true.
        then_val: Operand,
        /// Value when false.
        else_val: Operand,
    },
    /// Call to another function in the module (by arena index).
    Call {
        /// Callee function index.
        callee: u32,
        /// Pre-resolved arguments.
        args: Box<[Operand]>,
    },
    /// Pure math intrinsic (1 or 2 arguments).
    MathCall {
        /// Which intrinsic.
        kind: Intrinsic,
        /// Pre-resolved arguments.
        args: Box<[Operand]>,
    },
    /// PRNG intrinsic reading and writing in-memory generator state.
    RandCall {
        /// `RandUniform` or `RandNormal`.
        kind: Intrinsic,
        /// Pointer to the generator state.
        state: Operand,
    },
    /// Stack allocation with the slot count precomputed.
    Alloca {
        /// Slots to reserve.
        slots: u32,
    },
    /// Load through a pointer.
    Load {
        /// Pointer operand.
        ptr: Operand,
    },
    /// Store through a pointer.
    Store {
        /// Pointer operand.
        ptr: Operand,
        /// Value to store.
        value: Operand,
    },
    /// Address computation with the constant part of the index path folded.
    Gep {
        /// Base pointer operand.
        base: Operand,
        /// Sum of all constant index contributions, in slots.
        const_offset: u32,
        /// Remaining dynamic steps: `(index operand, element stride)`.
        dyn_steps: Box<[(Operand, u32)]>,
    },
    /// A GEP whose index path does not match the pointee type; executing it
    /// reproduces the reference interpreter's type error.
    InvalidGep {
        /// Base pointer operand (evaluated for the error message).
        base: Operand,
    },
    /// Scalar cast.
    Cast {
        /// Cast kind.
        kind: CastKind,
        /// Operand.
        val: Operand,
    },
    /// The absolute slot address of a module global.
    GlobalAddr {
        /// Pre-resolved base slot address.
        addr: usize,
    },

    // -- Fused superinstructions ------------------------------------------
    // The variants below are never produced by `decode_function`; they are
    // emitted by the peephole/fusion pass in [`crate::fuse`], which rewrites
    // decoded blocks so that common instruction pairs execute as a single
    // dispatch. The executor handles both dialects with one loop.
    /// Load from a fully-resolved absolute slot address (a
    /// `global_addr`/constant-GEP addressing chain folded away).
    LoadAbs {
        /// Absolute slot address.
        addr: usize,
    },
    /// Store to a fully-resolved absolute slot address.
    StoreAbs {
        /// Absolute slot address.
        addr: usize,
        /// Value to store.
        value: Operand,
    },
    /// `gep` + `load` fused: compute the address and read through it in one
    /// dispatch.
    GepLoad {
        /// Base pointer operand.
        base: Operand,
        /// Constant part of the folded index path, in slots.
        const_offset: u32,
        /// Remaining dynamic steps: `(index operand, element stride)`.
        dyn_steps: Box<[(Operand, u32)]>,
    },
    /// `gep` + `store` fused.
    GepStore {
        /// Base pointer operand.
        base: Operand,
        /// Constant part of the folded index path, in slots.
        const_offset: u32,
        /// Remaining dynamic steps: `(index operand, element stride)`.
        dyn_steps: Box<[(Operand, u32)]>,
        /// Value to store.
        value: Operand,
    },
    /// Binary op with a register left operand and an immediate right operand
    /// (`reg OP imm`): skips one operand resolution per execution.
    BinRI {
        /// The operation.
        op: BinOp,
        /// Frame register of the left operand.
        reg: u32,
        /// Immediate right operand.
        imm: Value,
    },
    /// Binary op with an immediate left operand (`imm OP reg`).
    BinIR {
        /// The operation.
        op: BinOp,
        /// Immediate left operand.
        imm: Value,
        /// Frame register of the right operand.
        reg: u32,
    },
    /// `load` + binary op fused: the loaded value feeds one side of the op.
    LoadBin {
        /// The operation.
        op: BinOp,
        /// Pointer operand of the absorbed load.
        ptr: Operand,
        /// The other (non-loaded) operand.
        other: Operand,
        /// Whether the loaded value is the left operand.
        load_lhs: bool,
    },
    /// Binary op + `store` fused: the result goes straight to memory.
    BinStore {
        /// The operation.
        op: BinOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
        /// Pointer operand of the absorbed store.
        ptr: Operand,
    },
}

/// The phi copies to perform when entering a block through one predecessor.
#[derive(Debug, Clone, PartialEq)]
pub enum PhiEdge {
    /// `(destination register, source operand)` pairs, applied as a parallel
    /// copy (all sources read before any destination is written).
    Copies(Box<[(u32, Operand)]>),
    /// Some phi lacks an incoming value for this edge; taking it is a type
    /// error naming the phi and the predecessor, like the reference path.
    Missing {
        /// Value id of the offending phi.
        phi: u32,
        /// Arena index of the predecessor block.
        pred: u32,
    },
}

/// A decoded terminator, stored by value.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodedTerm {
    /// Unconditional branch to a block arena index.
    Br(u32),
    /// Two-way conditional branch.
    CondBr {
        /// Pre-resolved condition.
        cond: Operand,
        /// Successor when true.
        then_blk: u32,
        /// Successor when false.
        else_blk: u32,
    },
    /// Return, with a pre-resolved operand unless the function is `Void`.
    Ret(Option<Operand>),
    /// Control must never reach the end of this block.
    Unreachable,
    /// The source block had no terminator (only possible for dead blocks of
    /// a function under construction); executing it panics like the
    /// reference interpreter's `expect`.
    Missing,
    /// A `cmp` fused into the conditional branch it fed (emitted only by
    /// [`crate::fuse`]): predicate evaluation and the two-way branch execute
    /// as one dispatch, with no intermediate register write.
    CmpBr {
        /// The comparison predicate.
        pred: CmpPred,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
        /// Successor when true.
        then_blk: u32,
        /// Successor when false.
        else_blk: u32,
    },
    /// An immediate-specialized binop chained into the fused
    /// compare-and-branch that consumes it (emitted only by [`crate::fuse`]):
    /// `dst = src <op> imm; branch on (cmp dst, other)` in one dispatch. The
    /// binop's destination register is still written, because phis and later
    /// blocks may read it.
    BinRICmpBr {
        /// The binop's operator.
        op: BinOp,
        /// The binop's register operand.
        src: u32,
        /// The binop's inline immediate.
        imm: Value,
        /// The binop's destination register (written before the compare).
        dst: u32,
        /// The comparison predicate.
        pred: CmpPred,
        /// The compare operand that is *not* the binop result.
        other: Operand,
        /// Whether the binop result is the compare's left operand.
        bin_is_lhs: bool,
        /// Successor when true.
        then_blk: u32,
        /// Successor when false.
        else_blk: u32,
    },
}

/// A decoded basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedBlock {
    /// Whether the block schedules any phi node.
    pub has_phis: bool,
    /// Value id of the first phi (entry-through-no-edge error message).
    pub first_phi: u32,
    /// One copy table per static predecessor, keyed by block arena index.
    pub phi_edges: Box<[(u32, PhiEdge)]>,
    /// Non-phi instructions in execution order.
    pub code: Box<[DecodedOp]>,
    /// The terminator.
    pub term: DecodedTerm,
}

/// A function lowered to its predecoded execution form.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedFunction {
    /// Function name (for `MissingBody` diagnostics).
    pub name: String,
    /// Entry block arena index, `None` for declarations / empty bodies.
    pub entry: Option<u32>,
    /// Register file size: the value arena size as decoded, or the compacted
    /// slot count after [`crate::fuse`] renumbers the frame.
    pub num_values: u32,
    /// Number of parameters (always the first `num_params` registers, on
    /// both the decoded and the fused form).
    pub num_params: u32,
    /// Blocks indexed by arena index (branch targets are arena ids).
    pub blocks: Box<[DecodedBlock]>,
}

/// Decode every function of a module. `global_base` maps global arena
/// indices to absolute slot addresses (the engine computes it from the
/// module's global declarations before decoding).
pub fn decode_module(module: &Module, global_base: &[usize]) -> Vec<DecodedFunction> {
    module
        .functions
        .iter()
        .map(|f| decode_function(f, global_base))
        .collect()
}

/// Decode one function. See the module docs for what is precomputed.
pub fn decode_function(func: &Function, global_base: &[usize]) -> DecodedFunction {
    let blocks = func
        .blocks
        .iter()
        .enumerate()
        .map(|(i, _)| decode_block(func, i, global_base))
        .collect();
    DecodedFunction {
        name: func.name.clone(),
        entry: func.entry_block().map(|b| b.index() as u32),
        num_values: func.value_count() as u32,
        num_params: func.param_count() as u32,
        blocks,
    }
}

fn operand(func: &Function, v: distill_ir::ValueId) -> Operand {
    match &func.value(v).kind {
        ValueKind::Const(c) => match c {
            Constant::F64(x) => Operand::Imm(Value::F64(*x)),
            Constant::F32(x) => Operand::Imm(Value::F64(*x as f64)),
            Constant::I64(x) => Operand::Imm(Value::I64(*x)),
            Constant::Bool(b) => Operand::Imm(Value::Bool(*b)),
            Constant::Undef => Operand::Undef(v.index() as u32),
        },
        _ => Operand::Reg(v.index() as u32),
    }
}

fn decode_block(func: &Function, index: usize, global_base: &[usize]) -> DecodedBlock {
    let id = distill_ir::BlockId::from_index(index);
    let blk = func.block(id);

    // Split phis out of the instruction stream.
    let mut phis: Vec<(u32, &[(distill_ir::BlockId, distill_ir::ValueId)])> = Vec::new();
    let mut code = Vec::new();
    for &v in &blk.insts {
        let inst = func.as_inst(v).expect("scheduled value is an instruction");
        if let Inst::Phi { incoming, .. } = inst {
            phis.push((v.index() as u32, incoming.as_slice()));
        } else {
            code.push(DecodedOp {
                dst: v.index() as u32,
                inst: decode_inst(func, inst, global_base),
            });
        }
    }

    // One parallel-copy table per static predecessor.
    let phi_edges: Vec<(u32, PhiEdge)> = if phis.is_empty() {
        Vec::new()
    } else {
        func.static_predecessors(id)
            .into_iter()
            .map(|pred| {
                let mut copies = Vec::with_capacity(phis.len());
                for (phi, incoming) in &phis {
                    match incoming.iter().find(|(b, _)| *b == pred) {
                        Some((_, src)) => copies.push((*phi, operand(func, *src))),
                        None => {
                            return (
                                pred.index() as u32,
                                PhiEdge::Missing {
                                    phi: *phi,
                                    pred: pred.index() as u32,
                                },
                            )
                        }
                    }
                }
                (pred.index() as u32, PhiEdge::Copies(copies.into()))
            })
            .collect()
    };

    let term = match &blk.term {
        Some(Terminator::Br(b)) => DecodedTerm::Br(b.index() as u32),
        Some(Terminator::CondBr {
            cond,
            then_blk,
            else_blk,
        }) => DecodedTerm::CondBr {
            cond: operand(func, *cond),
            then_blk: then_blk.index() as u32,
            else_blk: else_blk.index() as u32,
        },
        Some(Terminator::Ret(v)) => DecodedTerm::Ret(v.map(|v| operand(func, v))),
        Some(Terminator::Unreachable) => DecodedTerm::Unreachable,
        None => DecodedTerm::Missing,
    };

    DecodedBlock {
        has_phis: !phis.is_empty(),
        first_phi: phis.first().map(|(v, _)| *v).unwrap_or(0),
        phi_edges: phi_edges.into(),
        code: code.into(),
        term,
    }
}

fn decode_inst(func: &Function, inst: &Inst, global_base: &[usize]) -> DecodedInst {
    let op = |v: &distill_ir::ValueId| operand(func, *v);
    match inst {
        Inst::Bin { op: o, lhs, rhs } => DecodedInst::Bin {
            op: *o,
            lhs: op(lhs),
            rhs: op(rhs),
        },
        Inst::Un { op: o, val } => DecodedInst::Un {
            op: *o,
            val: op(val),
        },
        Inst::Cmp { pred, lhs, rhs } => DecodedInst::Cmp {
            pred: *pred,
            lhs: op(lhs),
            rhs: op(rhs),
        },
        Inst::Select {
            cond,
            then_val,
            else_val,
        } => DecodedInst::Select {
            cond: op(cond),
            then_val: op(then_val),
            else_val: op(else_val),
        },
        Inst::Call { callee, args } => DecodedInst::Call {
            callee: callee.index() as u32,
            args: args.iter().map(|a| operand(func, *a)).collect(),
        },
        Inst::IntrinsicCall { kind, args } => {
            if kind.has_side_effects() {
                DecodedInst::RandCall {
                    kind: *kind,
                    state: op(&args[0]),
                }
            } else {
                DecodedInst::MathCall {
                    kind: *kind,
                    args: args.iter().map(|a| operand(func, *a)).collect(),
                }
            }
        }
        Inst::Alloca { ty } => DecodedInst::Alloca {
            slots: ty.slot_count() as u32,
        },
        Inst::Load { ptr } => DecodedInst::Load { ptr: op(ptr) },
        Inst::Store { ptr, value } => DecodedInst::Store {
            ptr: op(ptr),
            value: op(value),
        },
        Inst::Gep { base, indices } => decode_gep(func, base, indices),
        Inst::Phi { .. } => unreachable!("phis are split out at block decode"),
        Inst::Cast { kind, val, .. } => DecodedInst::Cast {
            kind: *kind,
            val: op(val),
        },
        Inst::GlobalAddr { global } => DecodedInst::GlobalAddr {
            addr: global_base[global.index()],
        },
    }
}

fn decode_gep(func: &Function, base: &distill_ir::ValueId, indices: &[GepIndex]) -> DecodedInst {
    let base_op = operand(func, *base);
    let Ty::Ptr(pointee) = func.ty(*base) else {
        // The reference path would evaluate the base and fail on its runtime
        // value; the poison form reproduces that.
        return DecodedInst::InvalidGep { base: base_op };
    };
    let mut ty: &Ty = pointee;
    let mut const_offset = 0usize;
    let mut dyn_steps = Vec::new();
    for idx in indices {
        match (ty, idx) {
            (Ty::Array(elem, _), GepIndex::Const(i)) => {
                const_offset += i * elem.slot_count();
                ty = elem;
            }
            (Ty::Array(elem, _), GepIndex::Dyn(v)) => {
                dyn_steps.push((operand(func, *v), elem.slot_count() as u32));
                ty = elem;
            }
            // An out-of-range field index is poison like any other invalid
            // shape — it must not panic at decode time (the reference path
            // only fails if the instruction actually executes).
            (Ty::Struct(fields), GepIndex::Const(i)) if *i < fields.len() => {
                const_offset += ty.field_offset(*i);
                ty = &fields[*i];
            }
            _ => return DecodedInst::InvalidGep { base: base_op },
        }
    }
    DecodedInst::Gep {
        base: base_op,
        const_offset: const_offset as u32,
        dyn_steps: dyn_steps.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_ir::{FunctionBuilder, Module, Ty};

    #[test]
    fn out_of_range_struct_index_decodes_to_poison_not_panic() {
        // The builder rejects this shape, so assemble it through the raw
        // arenas: a gep with Const(5) into a two-field struct, sitting in a
        // dead block. Decoding must not panic; only execution may fail.
        use distill_ir::{BlockData, Inst, Terminator, ValueData, ValueKind};
        let mut m = Module::new("m");
        let fid = m.declare_function(
            "f",
            vec![Ty::ptr(Ty::Struct(vec![Ty::F64, Ty::I64]))],
            Ty::I64,
        );
        {
            let f = m.function_mut(fid);
            let base = f.param_value(0);
            let bad = f.add_value(ValueData {
                kind: ValueKind::Inst(Inst::Gep {
                    base,
                    indices: vec![GepIndex::Const(5)],
                }),
                ty: Ty::ptr(Ty::I64),
                name: None,
            });
            let k = f.add_constant(distill_ir::Constant::I64(3));
            let entry = f.add_block("entry");
            f.block_mut(entry).term = Some(Terminator::Ret(Some(k)));
            // Dead block scheduling the malformed gep; nothing branches here.
            f.blocks.push(BlockData {
                name: "dead".into(),
                insts: vec![bad],
                term: Some(Terminator::Ret(Some(bad))),
            });
        }
        let d = decode_function(m.function(fid), &[]);
        assert!(matches!(
            d.blocks[1].code[0].inst,
            DecodedInst::InvalidGep { .. }
        ));
        assert_eq!(d.entry, Some(0));
    }

    #[test]
    fn constants_become_immediates() {
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let c = b.const_f64(2.5);
            let r = b.fmul(x, c);
            b.ret(Some(r));
        }
        let d = decode_function(m.function(fid), &[]);
        assert_eq!(d.entry, Some(0));
        let code = &d.blocks[0].code;
        assert_eq!(code.len(), 1);
        match &code[0].inst {
            DecodedInst::Bin { lhs, rhs, .. } => {
                assert_eq!(*lhs, Operand::Reg(0));
                assert_eq!(*rhs, Operand::Imm(Value::F64(2.5)));
            }
            other => panic!("expected Bin, got {other:?}"),
        }
    }

    #[test]
    fn phis_become_per_edge_copy_tables() {
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![Ty::I64], Ty::I64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let entry = b.create_block("entry");
            let header = b.create_block("header");
            let body = b.create_block("body");
            let exit = b.create_block("exit");
            b.switch_to_block(entry);
            let n = b.param(0);
            let zero = b.const_i64(0);
            b.br(header);
            b.switch_to_block(header);
            let i = b.empty_phi(Ty::I64);
            b.add_phi_incoming(i, entry, zero);
            let c = b.cmp(distill_ir::CmpPred::ILt, i, n);
            b.cond_br(c, body, exit);
            b.switch_to_block(body);
            let one = b.const_i64(1);
            let i2 = b.iadd(i, one);
            b.add_phi_incoming(i, body, i2);
            b.br(header);
            b.switch_to_block(exit);
            b.ret(Some(i));
        }
        let d = decode_function(m.function(fid), &[]);
        let header = &d.blocks[1];
        assert!(header.has_phis);
        assert_eq!(header.phi_edges.len(), 2, "entry edge + back edge");
        for (_, edge) in header.phi_edges.iter() {
            match edge {
                PhiEdge::Copies(copies) => assert_eq!(copies.len(), 1),
                PhiEdge::Missing { .. } => panic!("all edges have incoming values"),
            }
        }
        // No phi appears in the linear instruction stream.
        assert!(header
            .code
            .iter()
            .all(|op| !matches!(op.inst, DecodedInst::Call { .. })));
    }

    #[test]
    fn gep_paths_fold_constant_offsets() {
        let mut m = Module::new("m");
        let g = m.add_zeroed_global(
            "buf",
            Ty::Struct(vec![Ty::F64, Ty::array(Ty::F64, 4)]),
            true,
        );
        let tys: Vec<Ty> = m.globals.iter().map(|g| g.ty.clone()).collect();
        let fid = m.declare_function("f", vec![Ty::I64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f).with_global_types(tys);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let idx = b.param(0);
            let base = b.global_addr(g);
            let arr = b.field_addr(base, 1);
            let p = b.elem_addr(arr, idx);
            let v = b.load(p);
            b.ret(Some(v));
        }
        let d = decode_function(m.function(fid), &[7]);
        let code = &d.blocks[0].code;
        // global_addr resolves to the absolute base slot address.
        assert!(code
            .iter()
            .any(|op| matches!(op.inst, DecodedInst::GlobalAddr { addr: 7 })));
        // The struct-field step folds into a constant offset; the dynamic
        // element step stays a (operand, stride) pair.
        let gep_shapes: Vec<(u32, usize)> = code
            .iter()
            .filter_map(|op| match &op.inst {
                DecodedInst::Gep {
                    const_offset,
                    dyn_steps,
                    ..
                } => Some((*const_offset, dyn_steps.len())),
                _ => None,
            })
            .collect();
        assert!(
            gep_shapes.contains(&(1, 0)),
            "field step folded: {gep_shapes:?}"
        );
        assert!(
            gep_shapes.contains(&(0, 1)),
            "dynamic step kept: {gep_shapes:?}"
        );
    }
}
