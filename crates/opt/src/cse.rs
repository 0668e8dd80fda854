//! Dominator-scoped common subexpression elimination.
//!
//! Pure instructions (arithmetic, comparisons, selects, GEPs, global
//! addresses, casts and side-effect-free intrinsics) with identical operands
//! are deduplicated when an equivalent instruction is available in a
//! dominating block. Loads are deliberately excluded: they are redundant
//! only in the absence of intervening stores, which [`licm`](crate::licm)
//! handles for the read-only parameter case.

use distill_ir::cfg::{Cfg, DomTree};
use distill_ir::{BinOp, Function, Inst, Module, Replacements, ValueId};
use std::collections::hash_map::{Entry, HashMap};

/// Key identifying a pure computation up to operand order for commutative
/// binary operations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ExprKey {
    Bin(BinOp, ValueId, ValueId),
    Un(distill_ir::UnOp, ValueId),
    Cmp(distill_ir::CmpPred, ValueId, ValueId),
    Select(ValueId, ValueId, ValueId),
    Intrinsic(distill_ir::Intrinsic, Vec<ValueId>),
    Gep(ValueId, Vec<GepKey>),
    GlobalAddr(usize),
    Cast(distill_ir::CastKind, ValueId, distill_ir::Ty),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum GepKey {
    Const(usize),
    Dyn(ValueId),
}

fn key_of(inst: &Inst) -> Option<ExprKey> {
    match inst {
        Inst::Bin { op, lhs, rhs } => {
            let (a, b) = if op.is_commutative() && rhs < lhs {
                (*rhs, *lhs)
            } else {
                (*lhs, *rhs)
            };
            Some(ExprKey::Bin(*op, a, b))
        }
        Inst::Un { op, val } => Some(ExprKey::Un(*op, *val)),
        Inst::Cmp { pred, lhs, rhs } => Some(ExprKey::Cmp(*pred, *lhs, *rhs)),
        Inst::Select {
            cond,
            then_val,
            else_val,
        } => Some(ExprKey::Select(*cond, *then_val, *else_val)),
        Inst::IntrinsicCall { kind, args } if !kind.has_side_effects() => {
            Some(ExprKey::Intrinsic(*kind, args.clone()))
        }
        Inst::Gep { base, indices } => Some(ExprKey::Gep(
            *base,
            indices
                .iter()
                .map(|i| match i {
                    distill_ir::inst::GepIndex::Const(c) => GepKey::Const(*c),
                    distill_ir::inst::GepIndex::Dyn(v) => GepKey::Dyn(*v),
                })
                .collect(),
        )),
        Inst::GlobalAddr { global } => Some(ExprKey::GlobalAddr(global.index())),
        Inst::Cast { kind, val, to } => Some(ExprKey::Cast(*kind, *val, to.clone())),
        _ => None,
    }
}

/// Run CSE over one function; returns the number of instructions replaced.
pub fn run_function(func: &mut Function) -> usize {
    if func.layout.is_empty() {
        return 0;
    }
    let cfg = Cfg::new(func);
    let dom = DomTree::new(func, &cfg);

    // Children lists of the dominator tree.
    let nblocks = func.blocks.len();
    let mut children: Vec<Vec<distill_ir::BlockId>> = vec![Vec::new(); nblocks];
    for b in func.block_order() {
        if let Some(p) = dom.idom_of(b) {
            children[p.index()].push(b);
        }
    }

    let mut replaced = 0;
    let entry = func.entry_block().unwrap();
    // Replacements are recorded as the walk goes and applied once at the
    // end. An instruction's operands are resolved before it is keyed, so it
    // keys as it would with each replacement applied eagerly.
    let mut repl = Replacements::default();

    // Pre-order DFS over the dominator tree with a scoped table implemented
    // as an undo log of the keys each block inserted.
    let mut table: HashMap<ExprKey, ValueId> = HashMap::new();
    let mut stack: Vec<(distill_ir::BlockId, bool)> = vec![(entry, false)];
    let mut scopes: Vec<Vec<ExprKey>> = Vec::new();

    while let Some((block, processed)) = stack.pop() {
        if processed {
            // Leaving the block's dominator subtree: undo its insertions.
            for key in scopes.pop().unwrap_or_default() {
                table.remove(&key);
            }
            continue;
        }
        stack.push((block, true));
        let mut undo: Vec<ExprKey> = Vec::new();

        for i in 0..func.block(block).insts.len() {
            let v = func.block(block).insts[i];
            func.resolve_operands(v, &repl);
            let Some(inst) = func.as_inst(v) else {
                continue;
            };
            let Some(key) = key_of(inst) else { continue };
            match table.entry(key) {
                Entry::Occupied(existing) => {
                    repl.insert(v, *existing.get());
                    replaced += 1;
                }
                Entry::Vacant(slot) => {
                    undo.push(slot.key().clone());
                    slot.insert(v);
                }
            }
        }
        scopes.push(undo);
        for &c in &children[block.index()] {
            stack.push((c, false));
        }
    }
    func.replace_uses(&repl);
    func.unschedule_if(|v| repl.contains(v));
    replaced
}

/// Run CSE over every defined function of a module.
pub fn run(module: &mut Module) -> usize {
    let mut total = 0;
    for f in &mut module.functions {
        if !f.is_declaration && !f.layout.is_empty() {
            total += run_function(f);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_ir::{CmpPred, FunctionBuilder, Intrinsic, Module, Ty};

    #[test]
    fn deduplicates_identical_arithmetic() {
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![Ty::F64, Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let y = b.param(1);
            let a = b.fadd(x, y);
            let c = b.fadd(y, x); // commutatively identical
            let r = b.fmul(a, c);
            b.ret(Some(r));
        }
        let replaced = run(&mut m);
        assert_eq!(replaced, 1);
        assert_eq!(m.function(fid).inst_count(), 2);
    }

    #[test]
    fn a_replaced_value_feeding_a_later_candidate_is_resolved_before_keying() {
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![Ty::F64, Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let (x, y) = (b.param(0), b.param(1));
            let two = b.const_f64(2.0);
            let a = b.fadd(x, y);
            let bb = b.fadd(x, y);
            let c = b.fmul(a, two);
            let d = b.fmul(bb, two); // `b*2` keys as `a*2` once `b → a`
            let r = b.fsub(c, d);
            b.ret(Some(r));
        }
        assert_eq!(run(&mut m), 2);
        let f = m.function(fid);
        assert_eq!(f.inst_count(), 3);
        distill_ir::verify::verify_module(&m).unwrap();
        let entry = f.entry_block().unwrap();
        let (a, c) = (f.block(entry).insts[0], f.block(entry).insts[1]);
        assert_eq!(
            f.as_inst(f.block(entry).insts[2]).unwrap().operands(),
            vec![c, c]
        );
        assert_eq!(f.as_inst(c).unwrap().operands()[0], a);
    }

    #[test]
    fn reuses_values_from_dominating_blocks() {
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            let t = b.create_block("t");
            let u = b.create_block("u");
            let j = b.create_block("join");
            b.switch_to_block(e);
            let x = b.param(0);
            let sq = b.fmul(x, x);
            let zero = b.const_f64(0.0);
            let c = b.cmp(CmpPred::FGt, x, zero);
            b.cond_br(c, t, u);
            b.switch_to_block(t);
            let sq2 = b.fmul(x, x); // redundant with entry's sq
            let a = b.fadd(sq2, sq2);
            b.br(j);
            b.switch_to_block(u);
            b.br(j);
            b.switch_to_block(j);
            let p = b.phi(Ty::F64, vec![(t, a), (u, sq)]);
            b.ret(Some(p));
        }
        let replaced = run(&mut m);
        assert_eq!(replaced, 1);
        distill_ir::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn does_not_merge_across_sibling_branches() {
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            let t = b.create_block("t");
            let u = b.create_block("u");
            let j = b.create_block("join");
            b.switch_to_block(e);
            let x = b.param(0);
            let zero = b.const_f64(0.0);
            let c = b.cmp(CmpPred::FGt, x, zero);
            b.cond_br(c, t, u);
            b.switch_to_block(t);
            let a = b.fmul(x, x);
            b.br(j);
            b.switch_to_block(u);
            let b2 = b.fmul(x, x); // same expression but in a sibling block
            b.br(j);
            b.switch_to_block(j);
            let p = b.phi(Ty::F64, vec![(t, a), (u, b2)]);
            b.ret(Some(p));
        }
        // Neither dominates the other, so nothing may be merged.
        assert_eq!(run(&mut m), 0);
    }

    #[test]
    fn never_merges_prng_calls() {
        let mut m = Module::new("m");
        let g = m.add_zeroed_global("state", Ty::array(Ty::I64, 5), true);
        let tys: Vec<Ty> = m.globals.iter().map(|g| g.ty.clone()).collect();
        let fid = m.declare_function("f", vec![], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f).with_global_types(tys);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let s = b.global_addr(g);
            let r1 = b.intrinsic(Intrinsic::RandNormal, vec![s]);
            let r2 = b.intrinsic(Intrinsic::RandNormal, vec![s]);
            let sum = b.fadd(r1, r2);
            b.ret(Some(sum));
        }
        assert_eq!(run(&mut m), 0);
        assert_eq!(m.function(fid).inst_count(), 4);
    }
}
