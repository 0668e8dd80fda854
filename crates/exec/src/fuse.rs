//! Superinstruction fusion over the predecoded form — the peephole layer
//! between [`crate::decode`] and the execution loop.
//!
//! PR 3's predecode pass removed per-call IR walking, but
//! [`Engine::call`](crate::engine::Engine::call) still pays one dispatch —
//! a fuel check, a statistics bump, one big match, operand resolution, a
//! frame write — per *decoded instruction*. For the
//! compiled cognitive-model kernels that dispatch tax dominates: the hot
//! blocks are long chains of `global_addr → gep → load/store` addressing,
//! compare-and-branch loop headers and immediate-operand arithmetic, each
//! step tiny compared to its dispatch envelope.
//!
//! [`fuse_module`] rewrites each [`DecodedBlock`]'s flat instruction array
//! so the common chains execute as one dispatch:
//!
//! * **absolute addressing** — `global_addr` results and constant GEPs over
//!   them are folded to `Operand::Imm(Value::Ptr(_))` at fuse time
//!   (function-level constant propagation; the address of a global never
//!   depends on runtime state), the now-dead address ops are dropped, and
//!   loads/stores through a constant pointer become [`DecodedInst::LoadAbs`]
//!   / [`DecodedInst::StoreAbs`];
//! * **GEP + memory access** — a single-use dynamic `gep` feeding a `load`
//!   or `store` fuses into [`DecodedInst::GepLoad`] /
//!   [`DecodedInst::GepStore`];
//! * **arithmetic** — binops with one immediate operand specialize to
//!   [`DecodedInst::BinRI`] / [`DecodedInst::BinIR`]; a single-use `load`
//!   feeding a binop fuses to [`DecodedInst::LoadBin`], a single-use binop
//!   feeding a `store` to [`DecodedInst::BinStore`];
//! * **compare + branch** — a single-use `cmp` that is the block's last
//!   instruction and feeds its conditional terminator fuses into the
//!   terminator itself ([`DecodedTerm::CmpBr`]); when the fused compare is
//!   in turn fed by a block-final immediate-specialized binop (the
//!   `i += 1; i < n` shape of every counted loop), the chain collapses
//!   further into [`DecodedTerm::BinRICmpBr`] — increment, compare and
//!   branch in one dispatch, with the increment's register still written
//!   for the phis that read it.
//!
//! After fusion a **per-block register-liveness pass** compacts the frame:
//! the decoded frame has one slot per SSA *value* (constants and dead
//! values included), while the fused frame keeps dedicated slots only for
//! parameters, phi registers and values live across block boundaries, and
//! lets block-local temporaries share slots via a linear scan. Pooled
//! frames in [`crate::engine`] shrink accordingly and stay cache-resident.
//!
//! # Semantics
//!
//! For verifier-clean IR (every use dominated by its definition — true of
//! everything codegen emits) the fused form is **bit-identical** to the
//! decoded form in results, memory image and error *variants*; the
//! registry-driven differential suite enforces this for every workload
//! family. Accepted, documented deviations: fused `Undef` messages print
//! compacted slot numbers rather than value ids;
//! [`EngineStats::instructions`](crate::engine::EngineStats) counts
//! *dispatches*, so a fused run reports fewer instructions for the same
//! work (the `fused_ops` counter says how many dispatches were
//! superinstructions); and while pair superinstructions and fused
//! terminators charge the same fuel as their decoded expansion, folded
//! addressing chains genuinely execute fewer instructions, so a run
//! brushing its `fuel_limit` can exhaust fuel at a different point than
//! the decoded path would.

use crate::decode::{
    DecodedBlock, DecodedFunction, DecodedInst, DecodedOp, DecodedTerm, Operand, PhiEdge,
};
use crate::engine::Value;
use std::collections::HashMap;

/// Static accounting of what fusion did to a module, reported by
/// [`Engine::fuse_summary`](crate::engine::Engine::fuse_summary).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuseSummary {
    /// Decoded instructions before fusion (sum over all functions).
    pub decoded_ops: u64,
    /// Instructions after fusion (each superinstruction counts once).
    pub fused_ops: u64,
    /// Ops that absorbed at least one neighbouring instruction or a folded
    /// addressing chain (fused terminators included).
    pub superinstructions: u64,
    /// Frame slots before compaction (sum of per-function register files).
    pub decoded_frame_slots: u64,
    /// Frame slots after liveness compaction.
    pub fused_frame_slots: u64,
}

/// Fuse every function of a decoded module. Returns the rewritten functions
/// and the before/after accounting.
pub fn fuse_module(decoded: &[DecodedFunction]) -> (Vec<DecodedFunction>, FuseSummary) {
    let mut summary = FuseSummary::default();
    let fused = decoded
        .iter()
        .map(|f| fuse_function(f, &mut summary))
        .collect();
    (fused, summary)
}

/// Visit every operand an instruction reads, in evaluation order.
fn visit_operands<'a>(inst: &'a DecodedInst, f: &mut impl FnMut(&'a Operand)) {
    match inst {
        DecodedInst::Bin { lhs, rhs, .. } | DecodedInst::Cmp { lhs, rhs, .. } => {
            f(lhs);
            f(rhs);
        }
        DecodedInst::Un { val, .. } | DecodedInst::Cast { val, .. } => f(val),
        DecodedInst::Select {
            cond,
            then_val,
            else_val,
        } => {
            f(cond);
            f(then_val);
            f(else_val);
        }
        DecodedInst::Call { args, .. } | DecodedInst::MathCall { args, .. } => {
            for a in args.iter() {
                f(a);
            }
        }
        DecodedInst::RandCall { state, .. } => f(state),
        DecodedInst::Alloca { .. }
        | DecodedInst::GlobalAddr { .. }
        | DecodedInst::LoadAbs { .. } => {}
        DecodedInst::Load { ptr } => f(ptr),
        DecodedInst::Store { ptr, value } => {
            f(ptr);
            f(value);
        }
        DecodedInst::Gep {
            base, dyn_steps, ..
        } => {
            f(base);
            for (idx, _) in dyn_steps.iter() {
                f(idx);
            }
        }
        DecodedInst::InvalidGep { base } => f(base),
        DecodedInst::StoreAbs { value, .. } => f(value),
        DecodedInst::GepLoad {
            base, dyn_steps, ..
        } => {
            f(base);
            for (idx, _) in dyn_steps.iter() {
                f(idx);
            }
        }
        DecodedInst::GepStore {
            base,
            dyn_steps,
            value,
            ..
        } => {
            f(base);
            for (idx, _) in dyn_steps.iter() {
                f(idx);
            }
            f(value);
        }
        DecodedInst::BinRI { .. } | DecodedInst::BinIR { .. } => {}
        DecodedInst::LoadBin { ptr, other, .. } => {
            f(ptr);
            f(other);
        }
        DecodedInst::BinStore { lhs, rhs, ptr, .. } => {
            f(lhs);
            f(rhs);
            f(ptr);
        }
    }
}

/// Mutably visit every operand an instruction reads.
fn map_operands(inst: &mut DecodedInst, f: &mut impl FnMut(&mut Operand)) {
    match inst {
        DecodedInst::Bin { lhs, rhs, .. } | DecodedInst::Cmp { lhs, rhs, .. } => {
            f(lhs);
            f(rhs);
        }
        DecodedInst::Un { val, .. } | DecodedInst::Cast { val, .. } => f(val),
        DecodedInst::Select {
            cond,
            then_val,
            else_val,
        } => {
            f(cond);
            f(then_val);
            f(else_val);
        }
        DecodedInst::Call { args, .. } | DecodedInst::MathCall { args, .. } => {
            for a in args.iter_mut() {
                f(a);
            }
        }
        DecodedInst::RandCall { state, .. } => f(state),
        DecodedInst::Alloca { .. }
        | DecodedInst::GlobalAddr { .. }
        | DecodedInst::LoadAbs { .. } => {}
        DecodedInst::Load { ptr } => f(ptr),
        DecodedInst::Store { ptr, value } => {
            f(ptr);
            f(value);
        }
        DecodedInst::Gep {
            base, dyn_steps, ..
        } => {
            f(base);
            for (idx, _) in dyn_steps.iter_mut() {
                f(idx);
            }
        }
        DecodedInst::InvalidGep { base } => f(base),
        DecodedInst::StoreAbs { value, .. } => f(value),
        DecodedInst::GepLoad {
            base, dyn_steps, ..
        } => {
            f(base);
            for (idx, _) in dyn_steps.iter_mut() {
                f(idx);
            }
        }
        DecodedInst::GepStore {
            base,
            dyn_steps,
            value,
            ..
        } => {
            f(base);
            for (idx, _) in dyn_steps.iter_mut() {
                f(idx);
            }
            f(value);
        }
        DecodedInst::BinRI { .. } | DecodedInst::BinIR { .. } => {}
        DecodedInst::LoadBin { ptr, other, .. } => {
            f(ptr);
            f(other);
        }
        DecodedInst::BinStore { lhs, rhs, ptr, .. } => {
            f(lhs);
            f(rhs);
            f(ptr);
        }
    }
}

/// Visit every operand a terminator reads.
fn visit_term_operands<'a>(term: &'a DecodedTerm, f: &mut impl FnMut(&'a Operand)) {
    match term {
        DecodedTerm::CondBr { cond, .. } => f(cond),
        DecodedTerm::Ret(Some(v)) => f(v),
        DecodedTerm::CmpBr { lhs, rhs, .. } => {
            f(lhs);
            f(rhs);
        }
        DecodedTerm::BinRICmpBr { other, .. } => f(other),
        _ => {}
    }
}

fn map_term_operands(term: &mut DecodedTerm, f: &mut impl FnMut(&mut Operand)) {
    match term {
        DecodedTerm::CondBr { cond, .. } => f(cond),
        DecodedTerm::Ret(Some(v)) => f(v),
        DecodedTerm::CmpBr { lhs, rhs, .. } => {
            f(lhs);
            f(rhs);
        }
        DecodedTerm::BinRICmpBr { other, .. } => f(other),
        _ => {}
    }
}

/// Registers a terminator reads, including the bare `src` register field of
/// `BinRICmpBr` (the register-level analogue of [`inst_read_regs`] — the
/// operand visitors above by design do not see bare `u32` fields).
fn term_read_regs(term: &DecodedTerm, out: &mut Vec<u32>) {
    out.clear();
    visit_term_operands(term, &mut |o| {
        if let Operand::Reg(r) = o {
            out.push(*r);
        }
    });
    if let DecodedTerm::BinRICmpBr { src, .. } = term {
        out.push(*src);
    }
}

/// Successor block indices of a terminator.
fn successors(term: &DecodedTerm) -> Vec<u32> {
    match term {
        DecodedTerm::Br(b) => vec![*b],
        DecodedTerm::CondBr {
            then_blk, else_blk, ..
        }
        | DecodedTerm::CmpBr {
            then_blk, else_blk, ..
        }
        | DecodedTerm::BinRICmpBr {
            then_blk, else_blk, ..
        } => vec![*then_blk, *else_blk],
        _ => Vec::new(),
    }
}

/// Count how many times each register is read anywhere in the function
/// (instruction operands, phi-copy sources, terminator operands).
fn use_counts(blocks: &[DecodedBlock], num_values: usize) -> Vec<u32> {
    let mut counts = vec![0u32; num_values];
    let mut regs = Vec::new();
    for blk in blocks {
        for op in blk.code.iter() {
            inst_read_regs(&op.inst, &mut regs);
            for &r in &regs {
                counts[r as usize] += 1;
            }
        }
        for (_, edge) in blk.phi_edges.iter() {
            if let PhiEdge::Copies(copies) = edge {
                for (_, src) in copies.iter() {
                    if let Operand::Reg(r) = src {
                        counts[*r as usize] += 1;
                    }
                }
            }
        }
        term_read_regs(&blk.term, &mut regs);
        for &r in &regs {
            counts[r as usize] += 1;
        }
    }
    counts
}

/// An instruction whose removal (when its result is unused) cannot change
/// behaviour: no side effects and no possible runtime error.
fn pure_and_infallible(inst: &DecodedInst) -> bool {
    match inst {
        DecodedInst::GlobalAddr { .. } => true,
        // A GEP over a constant base with a fully folded index path is a
        // compile-time address; with dynamic steps it can still fail on a
        // negative index, so it must stay.
        DecodedInst::Gep {
            base: Operand::Imm(Value::Ptr(_)),
            dyn_steps,
            ..
        } => dyn_steps.is_empty(),
        _ => false,
    }
}

fn fuse_function(df: &DecodedFunction, summary: &mut FuseSummary) -> DecodedFunction {
    let num_values = df.num_values as usize;
    let mut blocks: Vec<DecodedBlock> = df.blocks.to_vec();
    summary.decoded_ops += blocks.iter().map(|b| b.code.len() as u64).sum::<u64>();
    summary.decoded_frame_slots += df.num_values as u64;

    // -- Pass 1: absolute-address constant propagation ----------------------
    // `global_addr` produces the same Ptr on every execution, and a constant
    // GEP over a constant pointer folds to another constant pointer. Iterate
    // to a fixpoint so chains (global_addr → field gep → element gep) fold
    // completely regardless of block order (LICM hoists the roots into
    // dominating blocks).
    let mut abs: HashMap<u32, usize> = HashMap::new();
    loop {
        let mut changed = false;
        for blk in &blocks {
            for op in blk.code.iter() {
                let addr = match &op.inst {
                    DecodedInst::GlobalAddr { addr } => Some(*addr),
                    DecodedInst::Gep {
                        base: Operand::Imm(Value::Ptr(p)),
                        const_offset,
                        dyn_steps,
                    } if dyn_steps.is_empty() => Some(p + *const_offset as usize),
                    _ => None,
                };
                if let Some(a) = addr {
                    if abs.insert(op.dst, a) != Some(a) {
                        changed = true;
                    }
                }
            }
        }
        let mut rewrite = |o: &mut Operand| {
            if let Operand::Reg(r) = o {
                if let Some(a) = abs.get(r) {
                    *o = Operand::Imm(Value::Ptr(*a));
                    changed = true;
                }
            }
        };
        for blk in &mut blocks {
            for op in blk.code.iter_mut() {
                map_operands(&mut op.inst, &mut rewrite);
            }
            // Phi copies and terminators read registers too; a hoisted
            // global_addr can legitimately flow into either.
            let mut edges = std::mem::take(&mut blk.phi_edges).into_vec();
            for (_, edge) in &mut edges {
                if let PhiEdge::Copies(copies) = edge {
                    let mut c = std::mem::take(copies).into_vec();
                    for (_, src) in &mut c {
                        rewrite(src);
                    }
                    *copies = c.into();
                }
            }
            blk.phi_edges = edges.into();
            map_term_operands(&mut blk.term, &mut rewrite);
        }
        if !changed {
            break;
        }
    }

    // -- Pass 2: drop dead address computations -----------------------------
    // Propagation rewrote every read of a constant-address register into an
    // immediate, so the producing ops are typically unread; removing the
    // pure, infallible ones keeps the executed stream dense. Loop because a
    // dropped GEP can make the `global_addr` feeding it dead in turn.
    loop {
        let counts = use_counts(&blocks, num_values);
        let mut dropped = false;
        for blk in &mut blocks {
            let before = blk.code.len();
            let kept: Vec<DecodedOp> = blk
                .code
                .iter()
                .filter(|op| !(counts[op.dst as usize] == 0 && pure_and_infallible(&op.inst)))
                .cloned()
                .collect();
            if kept.len() != before {
                dropped = true;
                blk.code = kept.into();
            }
        }
        if !dropped {
            break;
        }
    }

    // -- Pass 3: peephole pair fusion + operand specialization --------------
    let counts = use_counts(&blocks, num_values);
    let single_use = |dst: u32| counts[dst as usize] == 1;
    let reads_reg = |op: &DecodedInst, reg: u32| {
        let mut found = false;
        visit_operands(op, &mut |o| {
            if *o == Operand::Reg(reg) {
                found = true;
            }
        });
        found
    };
    for blk in &mut blocks {
        let code = std::mem::take(&mut blk.code).into_vec();
        let mut out: Vec<DecodedOp> = Vec::with_capacity(code.len());
        let mut i = 0;
        while i < code.len() {
            let cur = &code[i];
            if i + 1 < code.len() && single_use(cur.dst) {
                let next = &code[i + 1];
                let fused = match (&cur.inst, &next.inst) {
                    (
                        DecodedInst::Gep {
                            base,
                            const_offset,
                            dyn_steps,
                        },
                        DecodedInst::Load { ptr },
                    ) if *ptr == Operand::Reg(cur.dst) => Some(DecodedInst::GepLoad {
                        base: *base,
                        const_offset: *const_offset,
                        dyn_steps: dyn_steps.clone(),
                    }),
                    (
                        DecodedInst::Gep {
                            base,
                            const_offset,
                            dyn_steps,
                        },
                        DecodedInst::Store { ptr, value },
                    ) if *ptr == Operand::Reg(cur.dst) && *value != Operand::Reg(cur.dst) => {
                        Some(DecodedInst::GepStore {
                            base: *base,
                            const_offset: *const_offset,
                            dyn_steps: dyn_steps.clone(),
                            value: *value,
                        })
                    }
                    (DecodedInst::Load { ptr }, DecodedInst::Bin { op, lhs, rhs })
                        if *lhs == Operand::Reg(cur.dst) || *rhs == Operand::Reg(cur.dst) =>
                    {
                        // Single use guarantees exactly one side is the load.
                        let load_lhs = *lhs == Operand::Reg(cur.dst);
                        Some(DecodedInst::LoadBin {
                            op: *op,
                            ptr: *ptr,
                            other: if load_lhs { *rhs } else { *lhs },
                            load_lhs,
                        })
                    }
                    (DecodedInst::Bin { op, lhs, rhs }, DecodedInst::Store { ptr, value })
                        if *value == Operand::Reg(cur.dst) && *ptr != Operand::Reg(cur.dst) =>
                    {
                        Some(DecodedInst::BinStore {
                            op: *op,
                            lhs: *lhs,
                            rhs: *rhs,
                            ptr: *ptr,
                        })
                    }
                    _ => None,
                };
                if let Some(inst) = fused {
                    out.push(DecodedOp {
                        dst: next.dst,
                        inst,
                    });
                    summary.superinstructions += 1;
                    i += 2;
                    continue;
                }
            }
            // Single-instruction specializations.
            let spec = match &cur.inst {
                DecodedInst::Load {
                    ptr: Operand::Imm(Value::Ptr(p)),
                } => {
                    summary.superinstructions += 1;
                    Some(DecodedInst::LoadAbs { addr: *p })
                }
                DecodedInst::Store {
                    ptr: Operand::Imm(Value::Ptr(p)),
                    value,
                } => {
                    summary.superinstructions += 1;
                    Some(DecodedInst::StoreAbs {
                        addr: *p,
                        value: *value,
                    })
                }
                DecodedInst::Bin {
                    op,
                    lhs: Operand::Reg(r),
                    rhs: Operand::Imm(v),
                } => Some(DecodedInst::BinRI {
                    op: *op,
                    reg: *r,
                    imm: *v,
                }),
                DecodedInst::Bin {
                    op,
                    lhs: Operand::Imm(v),
                    rhs: Operand::Reg(r),
                } => Some(DecodedInst::BinIR {
                    op: *op,
                    imm: *v,
                    reg: *r,
                }),
                _ => None,
            };
            out.push(DecodedOp {
                dst: cur.dst,
                inst: spec.unwrap_or_else(|| cur.inst.clone()),
            });
            i += 1;
        }

        // -- Pass 4: fuse a trailing cmp into the conditional terminator ----
        if let DecodedTerm::CondBr {
            cond: Operand::Reg(c),
            then_blk,
            else_blk,
        } = blk.term
        {
            if let Some(last) = out.last() {
                if last.dst == c && single_use(c) && !reads_reg(&last.inst, c) {
                    if let DecodedInst::Cmp { pred, lhs, rhs } = last.inst {
                        blk.term = DecodedTerm::CmpBr {
                            pred,
                            lhs,
                            rhs,
                            then_blk,
                            else_blk,
                        };
                        out.pop();
                        summary.superinstructions += 1;
                    }
                }
            }
        }

        // -- Pass 4b: chain a block-final immediate-specialized binop into
        // the fused compare it feeds (`i += 1; i < n; br` — the back edge of
        // every counted loop — becomes one dispatch). The terminator keeps
        // writing the binop's destination register, so no use-count
        // restriction applies: the loop phis read the same register they
        // always did. Execution order inside the terminator matches the
        // unfused sequence (read src, write dst, read the other compare
        // operand), so `src == dst` and `other == dst` both stay exact.
        if let DecodedTerm::CmpBr {
            pred,
            lhs,
            rhs,
            then_blk,
            else_blk,
        } = blk.term
        {
            if let Some(last) = out.last() {
                if let DecodedInst::BinRI { op, reg, imm } = last.inst {
                    let bin_is_lhs = lhs == Operand::Reg(last.dst);
                    if bin_is_lhs || rhs == Operand::Reg(last.dst) {
                        blk.term = DecodedTerm::BinRICmpBr {
                            op,
                            src: reg,
                            imm,
                            dst: last.dst,
                            pred,
                            other: if bin_is_lhs { rhs } else { lhs },
                            bin_is_lhs,
                            then_blk,
                            else_blk,
                        };
                        out.pop();
                        summary.superinstructions += 1;
                    }
                }
            }
        }
        blk.code = out.into();
    }

    summary.fused_ops += blocks.iter().map(|b| b.code.len() as u64).sum::<u64>();

    // -- Pass 5: liveness-based frame compaction ----------------------------
    let num_slots = compact_frame(&mut blocks, num_values, df.num_params as usize);
    summary.fused_frame_slots += num_slots as u64;

    DecodedFunction {
        name: df.name.clone(),
        entry: df.entry,
        num_values: num_slots as u32,
        num_params: df.num_params,
        blocks: blocks.into(),
    }
}

/// Registers an instruction reads, including the specialized register fields
/// of `BinRI`/`BinIR`. With [`map_regs`], this is the canonical
/// register-level view of an instruction: passes that reason about frame
/// registers must use these two rather than the operand visitors (which by
/// design do not see the bare `u32` register fields).
fn inst_read_regs(inst: &DecodedInst, out: &mut Vec<u32>) {
    out.clear();
    visit_operands(inst, &mut |o| {
        if let Operand::Reg(r) = o {
            out.push(*r);
        }
    });
    match inst {
        DecodedInst::BinRI { reg, .. } | DecodedInst::BinIR { reg, .. } => out.push(*reg),
        _ => {}
    }
}

/// Mutably visit every frame register an instruction reads — `Operand::Reg`
/// operands *and* the bare register fields of `BinRI`/`BinIR` — so a
/// register-renumbering pass cannot silently miss the specialized forms.
fn map_regs(inst: &mut DecodedInst, f: &mut impl FnMut(&mut u32)) {
    map_operands(inst, &mut |o| {
        if let Operand::Reg(r) = o {
            f(r);
        }
    });
    match inst {
        DecodedInst::BinRI { reg, .. } | DecodedInst::BinIR { reg, .. } => f(reg),
        _ => {}
    }
}

/// Compute per-block liveness over frame registers and renumber them into a
/// compact slot space: parameters keep slots `0..num_params`, registers live
/// across any block boundary (plus every phi register) get dedicated slots,
/// and block-local temporaries share slots via a per-block linear scan.
/// Returns the compacted frame size and rewrites every register reference in
/// `blocks` in place.
fn compact_frame(blocks: &mut [DecodedBlock], num_values: usize, num_params: usize) -> usize {
    let words = num_values.div_ceil(64).max(1);
    let idx = |r: u32| (r as usize / 64, 1u64 << (r as usize % 64));
    let mut scratch = Vec::new();

    // Upward-exposed uses and definitions per block. Phi destinations are
    // definitions at block entry; phi *sources* are edge-specific and belong
    // to the predecessor's live-out, handled in the dataflow below.
    let nblocks = blocks.len();
    let mut ue = vec![vec![0u64; words]; nblocks];
    let mut def = vec![vec![0u64; words]; nblocks];
    let mut phi_regs = vec![0u64; words];
    let mut term_defs = vec![0u64; words];
    for (b, blk) in blocks.iter().enumerate() {
        for (_, edge) in blk.phi_edges.iter() {
            if let PhiEdge::Copies(copies) = edge {
                for (dst, src) in copies.iter() {
                    let (w, m) = idx(*dst);
                    def[b][w] |= m;
                    phi_regs[w] |= m;
                    if let Operand::Reg(r) = src {
                        let (w, m) = idx(*r);
                        phi_regs[w] |= m;
                    }
                }
            }
        }
        for op in blk.code.iter() {
            inst_read_regs(&op.inst, &mut scratch);
            for &r in &scratch {
                let (w, m) = idx(r);
                if def[b][w] & m == 0 {
                    ue[b][w] |= m;
                }
            }
            let (w, m) = idx(op.dst);
            def[b][w] |= m;
        }
        // Terminator accesses in execution order: `BinRICmpBr` reads its bare
        // `src` register, *then* writes `dst`, then reads the other compare
        // operand — so comparing against the just-written register is not an
        // upward-exposed use. The written register is forced into the global
        // slot set below: it may never be read (the loop phis can bypass it),
        // and a local that is only ever defined would otherwise stay
        // unmapped.
        if let DecodedTerm::BinRICmpBr { src, dst, .. } = &blk.term {
            let (w, m) = idx(*src);
            if def[b][w] & m == 0 {
                ue[b][w] |= m;
            }
            let (w, m) = idx(*dst);
            def[b][w] |= m;
            term_defs[w] |= m;
        }
        visit_term_operands(&blk.term, &mut |o| {
            if let Operand::Reg(r) = o {
                let (w, m) = idx(*r);
                if def[b][w] & m == 0 {
                    ue[b][w] |= m;
                }
            }
        });
    }

    // Backwards dataflow to a fixpoint:
    //   live_out[b] = ∪_{s ∈ succ(b)} (live_in[s] ∪ phi_sources(s, edge b))
    //   live_in[b]  = ue[b] ∪ (live_out[b] − def[b])
    let succs: Vec<Vec<u32>> = blocks.iter().map(|b| successors(&b.term)).collect();
    let mut phi_src_on_edge: HashMap<(u32, u32), Vec<u32>> = HashMap::new();
    for (s, blk) in blocks.iter().enumerate() {
        for (pred, edge) in blk.phi_edges.iter() {
            if let PhiEdge::Copies(copies) = edge {
                let regs: Vec<u32> = copies
                    .iter()
                    .filter_map(|(_, src)| match src {
                        Operand::Reg(r) => Some(*r),
                        _ => None,
                    })
                    .collect();
                if !regs.is_empty() {
                    phi_src_on_edge.insert((*pred, s as u32), regs);
                }
            }
        }
    }
    let mut live_in = vec![vec![0u64; words]; nblocks];
    let mut live_out = vec![vec![0u64; words]; nblocks];
    loop {
        let mut changed = false;
        for b in (0..nblocks).rev() {
            let mut out = vec![0u64; words];
            for &s in &succs[b] {
                let s = s as usize;
                for w in 0..words {
                    out[w] |= live_in[s][w];
                }
                if let Some(regs) = phi_src_on_edge.get(&(b as u32, s as u32)) {
                    for &r in regs {
                        let (w, m) = idx(r);
                        out[w] |= m;
                    }
                }
            }
            if out != live_out[b] {
                live_out[b] = out;
                changed = true;
            }
            let mut inn = vec![0u64; words];
            for w in 0..words {
                inn[w] = ue[b][w] | (live_out[b][w] & !def[b][w]);
            }
            if inn != live_in[b] {
                live_in[b] = inn;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Global registers: parameters, phi registers, anything live into a
    // block. Everything else is block-local and may share slots.
    let mut global = vec![0u64; words];
    for (w, g) in global.iter_mut().enumerate() {
        *g |= phi_regs[w] | term_defs[w];
        for b in live_in.iter().take(nblocks) {
            *g |= b[w];
        }
    }
    const UNMAPPED: u32 = u32::MAX;
    let mut slot = vec![UNMAPPED; num_values];
    let mut next = 0u32;
    for s in slot.iter_mut().take(num_params.min(num_values)) {
        *s = next;
        next += 1;
    }
    for (r, s) in slot.iter_mut().enumerate() {
        let (w, m) = idx(r as u32);
        if global[w] & m != 0 && *s == UNMAPPED {
            *s = next;
            next += 1;
        }
    }
    let global_count = next;

    // Per-block linear scan for the locals. A local is always defined before
    // any use within its block (anything else would be upward-exposed and
    // therefore global), so slots free up at each register's last in-block
    // use and can be handed to the next definition.
    let mut max_slots = global_count;
    for blk in blocks.iter_mut() {
        let len = blk.code.len();
        let mut last_use: HashMap<u32, usize> = HashMap::new();
        for (i, op) in blk.code.iter().enumerate() {
            inst_read_regs(&op.inst, &mut scratch);
            for &r in &scratch {
                if slot[r as usize] == UNMAPPED || last_use.contains_key(&r) {
                    last_use.insert(r, i);
                }
            }
        }
        term_read_regs(&blk.term, &mut scratch);
        for &r in &scratch {
            last_use.insert(r, len);
        }
        let mut free: Vec<u32> = Vec::new();
        let mut local_next = global_count;
        for (i, op) in blk.code.iter().enumerate() {
            inst_read_regs(&op.inst, &mut scratch);
            scratch.sort_unstable();
            scratch.dedup();
            for &r in &scratch {
                let (w, m) = idx(r);
                if global[w] & m == 0 && last_use.get(&r) == Some(&i) {
                    // Final in-block read of a local: its slot is reusable by
                    // the very next definition (the executor reads all
                    // operands before writing any destination).
                    if slot[r as usize] != UNMAPPED {
                        free.push(slot[r as usize]);
                    }
                }
            }
            let d = op.dst as usize;
            let (w, m) = idx(op.dst);
            if global[w] & m == 0 {
                slot[d] = free.pop().unwrap_or_else(|| {
                    local_next += 1;
                    local_next - 1
                });
                if !last_use.contains_key(&op.dst) {
                    // Result never read: the slot is written and immediately
                    // reusable.
                    free.push(slot[d]);
                }
            }
        }
        max_slots = max_slots.max(local_next);
    }

    // Rewrite every register reference through the slot map. References to
    // registers that are never defined anywhere (malformed dead-block code)
    // were collected as upward-exposed, so the map covers them.
    let remap = |r: u32| -> u32 {
        debug_assert_ne!(slot[r as usize], UNMAPPED, "register {r} left unmapped");
        slot[r as usize]
    };
    for blk in blocks.iter_mut() {
        for op in blk.code.iter_mut() {
            op.dst = remap(op.dst);
            map_regs(&mut op.inst, &mut |r| *r = remap(*r));
        }
        let mut edges = std::mem::take(&mut blk.phi_edges).into_vec();
        for (_, edge) in &mut edges {
            if let PhiEdge::Copies(copies) = edge {
                let mut c = std::mem::take(copies).into_vec();
                for (dst, src) in &mut c {
                    *dst = remap(*dst);
                    if let Operand::Reg(r) = src {
                        *src = Operand::Reg(remap(*r));
                    }
                }
                *copies = c.into();
            }
        }
        blk.phi_edges = edges.into();
        if let DecodedTerm::BinRICmpBr { src, dst, .. } = &mut blk.term {
            *src = remap(*src);
            *dst = remap(*dst);
        }
        map_term_operands(&mut blk.term, &mut |o| {
            if let Operand::Reg(r) = o {
                *o = Operand::Reg(remap(*r));
            }
        });
    }
    max_slots as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode_function;
    use distill_ir::{BinOp, CmpPred, FunctionBuilder, Module, Ty};

    fn fuse_one(
        m: &Module,
        fid: distill_ir::FuncId,
        global_base: &[usize],
    ) -> (DecodedFunction, FuseSummary) {
        let d = decode_function(m.function(fid), global_base);
        let mut s = FuseSummary::default();
        let f = fuse_function(&d, &mut s);
        (f, s)
    }

    #[test]
    fn global_addressing_chains_fold_to_absolute_ops() {
        // global_addr → const gep → load / store becomes LoadAbs / StoreAbs
        // and the addressing ops disappear.
        let mut m = Module::new("m");
        let g = m.add_zeroed_global("buf", Ty::array(Ty::F64, 4), true);
        let tys: Vec<Ty> = m.globals.iter().map(|g| g.ty.clone()).collect();
        let fid = m.declare_function("bump", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f).with_global_types(tys);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let inc = b.param(0);
            let base = b.global_addr(g);
            let p = b.const_elem_addr(base, 2);
            let old = b.load(p);
            let new = b.fadd(old, inc);
            b.store(p, new);
            b.ret(Some(new));
        }
        let (f, s) = fuse_one(&m, fid, &[10]);
        let code = &f.blocks[0].code;
        // global_addr + gep dropped; load+fadd fuse; store becomes absolute.
        assert!(
            code.iter().any(|op| matches!(
                op.inst,
                DecodedInst::LoadBin {
                    ptr: Operand::Imm(Value::Ptr(12)),
                    ..
                }
            )),
            "expected fused absolute load+add: {code:?}"
        );
        assert!(
            code.iter()
                .any(|op| matches!(op.inst, DecodedInst::StoreAbs { addr: 12, .. })),
            "expected absolute store: {code:?}"
        );
        assert!(
            !code.iter().any(|op| matches!(
                op.inst,
                DecodedInst::GlobalAddr { .. } | DecodedInst::Gep { .. }
            )),
            "addressing ops must be folded away: {code:?}"
        );
        assert!(s.fused_ops < s.decoded_ops);
        assert!(s.superinstructions >= 2);
    }

    #[test]
    fn dynamic_gep_load_fuses_and_cmp_feeds_the_terminator() {
        let mut m = Module::new("m");
        let g = m.add_zeroed_global("buf", Ty::array(Ty::F64, 8), true);
        let tys: Vec<Ty> = m.globals.iter().map(|g| g.ty.clone()).collect();
        let fid = m.declare_function("sum", vec![Ty::I64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f).with_global_types(tys);
            let entry = b.create_block("entry");
            let header = b.create_block("header");
            let body = b.create_block("body");
            let exit = b.create_block("exit");
            b.switch_to_block(entry);
            let n = b.param(0);
            let zero = b.const_i64(0);
            let zf = b.const_f64(0.0);
            b.br(header);
            b.switch_to_block(header);
            let i = b.empty_phi(Ty::I64);
            let acc = b.empty_phi(Ty::F64);
            b.add_phi_incoming(i, entry, zero);
            b.add_phi_incoming(acc, entry, zf);
            let c = b.cmp(CmpPred::ILt, i, n);
            b.cond_br(c, body, exit);
            b.switch_to_block(body);
            let base = b.global_addr(g);
            let p = b.elem_addr(base, i);
            let v = b.load(p);
            let acc2 = b.fadd(acc, v);
            let one = b.const_i64(1);
            let i2 = b.iadd(i, one);
            b.add_phi_incoming(i, body, i2);
            b.add_phi_incoming(acc, body, acc2);
            b.br(header);
            b.switch_to_block(exit);
            b.ret(Some(acc));
        }
        let (f, _) = fuse_one(&m, fid, &[0]);
        // Header: the cmp fused into the terminator.
        assert!(f.blocks[1].code.is_empty(), "{:?}", f.blocks[1].code);
        assert!(matches!(f.blocks[1].term, DecodedTerm::CmpBr { .. }));
        // Body: gep (constant base after propagation) + load fused; the
        // increment specialized to a reg-imm add.
        let body = &f.blocks[2].code;
        assert!(
            body.iter().any(|op| matches!(
                op.inst,
                DecodedInst::GepLoad {
                    base: Operand::Imm(_),
                    ..
                }
            )),
            "{body:?}"
        );
        assert!(
            body.iter()
                .any(|op| matches!(op.inst, DecodedInst::BinRI { .. })),
            "{body:?}"
        );
    }

    #[test]
    fn block_final_binri_chains_into_the_fused_compare() {
        // A do-while loop back edge: `i2 = iadd i, 1; c = cmp i2 < n;
        // cond_br c, body, exit`. Pass 4 fuses the cmp into the terminator,
        // pass 4b then chains the immediate-specialized increment into it —
        // the whole back edge is a single `BinRICmpBr` dispatch. The
        // increment's destination register survives (the loop phi reads it).
        let mut m = Module::new("m");
        let g = m.add_zeroed_global("buf", Ty::array(Ty::F64, 8), true);
        let tys: Vec<Ty> = m.globals.iter().map(|g| g.ty.clone()).collect();
        let fid = m.declare_function("sum_dw", vec![Ty::I64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f).with_global_types(tys);
            let entry = b.create_block("entry");
            let body = b.create_block("body");
            let exit = b.create_block("exit");
            b.switch_to_block(entry);
            let n = b.param(0);
            let zero = b.const_i64(0);
            let zf = b.const_f64(0.0);
            b.br(body);
            b.switch_to_block(body);
            let i = b.empty_phi(Ty::I64);
            let acc = b.empty_phi(Ty::F64);
            b.add_phi_incoming(i, entry, zero);
            b.add_phi_incoming(acc, entry, zf);
            let base = b.global_addr(g);
            let p = b.elem_addr(base, i);
            let v = b.load(p);
            let acc2 = b.fadd(acc, v);
            let one = b.const_i64(1);
            let i2 = b.iadd(i, one);
            let c = b.cmp(CmpPred::ILt, i2, n);
            b.add_phi_incoming(i, body, i2);
            b.add_phi_incoming(acc, body, acc2);
            b.cond_br(c, body, exit);
            b.switch_to_block(exit);
            b.ret(Some(acc));
        }
        let (f, s) = fuse_one(&m, fid, &[0]);
        let body = &f.blocks[1];
        assert!(
            matches!(
                body.term,
                DecodedTerm::BinRICmpBr {
                    op: BinOp::Add,
                    imm: Value::I64(1),
                    bin_is_lhs: true,
                    ..
                }
            ),
            "back edge must be a single chained dispatch: {:?}",
            body.term
        );
        assert!(
            !body
                .code
                .iter()
                .any(|op| matches!(op.inst, DecodedInst::BinRI { .. } | DecodedInst::Cmp { .. })),
            "increment and compare must both leave the block body: {:?}",
            body.code
        );
        // Both folded instructions still count toward the executed-op
        // bookkeeping (the terminator charges and tallies them itself).
        assert!(s.superinstructions >= 2, "{s:?}");
    }

    #[test]
    fn frame_compaction_shrinks_and_keeps_params_in_place() {
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![Ty::F64, Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let y = b.param(1);
            // A chain of temporaries, each dead after one use: locals must
            // share slots instead of each taking its own.
            let mut acc = b.fadd(x, y);
            for _ in 0..10 {
                let c = b.const_f64(1.5);
                acc = b.fmul(acc, c);
            }
            b.ret(Some(acc));
        }
        let d = decode_function(m.function(fid), &[]);
        let mut s = FuseSummary::default();
        let f = fuse_function(&d, &mut s);
        assert_eq!(f.num_params, 2);
        assert!(
            f.num_values < d.num_values,
            "frame must shrink: {} -> {}",
            d.num_values,
            f.num_values
        );
        // Params keep identity slots; the chain shares one or two locals.
        assert!(
            f.num_values <= 4,
            "locals must share slots: {}",
            f.num_values
        );
        assert_eq!(s.decoded_frame_slots, d.num_values as u64);
        assert_eq!(s.fused_frame_slots, f.num_values as u64);
    }

    #[test]
    fn multi_use_results_are_not_fused_away() {
        // The gep result feeds both a load and a store: it must survive as a
        // standalone op (fusing it into the load would recompute or lose it).
        let mut m = Module::new("m");
        let g = m.add_zeroed_global("buf", Ty::array(Ty::F64, 8), true);
        let tys: Vec<Ty> = m.globals.iter().map(|g| g.ty.clone()).collect();
        let fid = m.declare_function("f", vec![Ty::I64, Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f).with_global_types(tys);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let i = b.param(0);
            let v = b.param(1);
            let base = b.global_addr(g);
            let p = b.elem_addr(base, i);
            let old = b.load(p);
            b.store(p, v);
            let r = b.fadd(old, v);
            b.ret(Some(r));
        }
        let (f, _) = fuse_one(&m, fid, &[0]);
        let code = &f.blocks[0].code;
        assert!(
            code.iter()
                .any(|op| matches!(op.inst, DecodedInst::Gep { .. })),
            "multi-use gep must survive: {code:?}"
        );
        assert!(
            !code
                .iter()
                .any(|op| matches!(op.inst, DecodedInst::GepLoad { .. })),
            "multi-use gep must not fuse: {code:?}"
        );
    }
}
