//! Control-flow graph simplification.
//!
//! Three transformations, iterated to a fixpoint:
//!
//! 1. fold conditional branches whose condition is a constant,
//! 2. remove blocks that became unreachable (fixing up phi nodes),
//! 3. merge a block into its unique successor when that successor has no
//!    other predecessors.
//!
//! After inlining a whole model (Fig. 5b), most of the scheduler's per-node
//! readiness checks become constant branches, and this pass is what removes
//! them.

use distill_ir::cfg::Cfg;
use distill_ir::{BlockId, Function, Inst, Module, Replacements, Terminator};
use std::collections::HashSet;

/// Simplify the CFG of one function; returns the number of changes applied.
pub fn run_function(func: &mut Function) -> usize {
    if func.layout.is_empty() {
        return 0;
    }
    let mut changes = 0;
    loop {
        let mut round = 0;
        round += fold_constant_branches(func);
        round += remove_unreachable_blocks(func);
        round += merge_straightline_blocks(func);
        changes += round;
        if round == 0 {
            break;
        }
    }
    changes
}

/// Run the pass over every defined function of a module.
pub fn run(module: &mut Module) -> usize {
    let mut total = 0;
    for f in &mut module.functions {
        if !f.is_declaration && !f.layout.is_empty() {
            total += run_function(f);
        }
    }
    total
}

fn fold_constant_branches(func: &mut Function) -> usize {
    let mut changes = 0;
    for b in func.block_order().collect::<Vec<_>>() {
        let Some(Terminator::CondBr {
            cond,
            then_blk,
            else_blk,
        }) = func.block(b).term.clone()
        else {
            continue;
        };
        if then_blk == else_blk {
            func.block_mut(b).term = Some(Terminator::Br(then_blk));
            remove_phi_duplicate_edge(func, then_blk, b);
            changes += 1;
            continue;
        }
        let Some(c) = func.as_constant(cond).and_then(|c| c.as_bool()) else {
            continue;
        };
        let (taken, dropped) = if c {
            (then_blk, else_blk)
        } else {
            (else_blk, then_blk)
        };
        func.block_mut(b).term = Some(Terminator::Br(taken));
        remove_phi_incoming(func, dropped, b);
        changes += 1;
    }
    changes
}

/// Remove `pred` from the phi nodes of `block`.
fn remove_phi_incoming(func: &mut Function, block: BlockId, pred: BlockId) {
    let insts = func.block(block).insts.clone();
    for v in insts {
        if let Some(Inst::Phi { incoming, .. }) = func.as_inst_mut(v) {
            incoming.retain(|(b, _)| *b != pred);
        }
    }
}

/// When a cond-br with both edges to the same block is folded, the phi nodes
/// of the target briefly have two entries for the same predecessor; drop one.
fn remove_phi_duplicate_edge(func: &mut Function, block: BlockId, pred: BlockId) {
    let insts = func.block(block).insts.clone();
    for v in insts {
        if let Some(Inst::Phi { incoming, .. }) = func.as_inst_mut(v) {
            let mut seen = false;
            incoming.retain(|(b, _)| {
                if *b == pred {
                    if seen {
                        return false;
                    }
                    seen = true;
                }
                true
            });
        }
    }
}

fn remove_unreachable_blocks(func: &mut Function) -> usize {
    let cfg = Cfg::new(func);
    let reachable: HashSet<BlockId> = cfg.rpo.iter().copied().collect();
    let dead: Vec<BlockId> = func
        .block_order()
        .filter(|b| !reachable.contains(b))
        .collect();
    if dead.is_empty() {
        return 0;
    }
    // Remove phi edges coming from dead blocks.
    for b in func.block_order().collect::<Vec<_>>() {
        if !reachable.contains(&b) {
            continue;
        }
        let insts = func.block(b).insts.clone();
        for v in insts {
            if let Some(Inst::Phi { incoming, .. }) = func.as_inst_mut(v) {
                incoming.retain(|(p, _)| reachable.contains(p));
            }
        }
    }
    let ndead = dead.len();
    func.layout.retain(|b| reachable.contains(b));
    ndead
}

/// Merge every block into its successor while the successor has no other
/// predecessor.
///
/// Merging `succ` into `b` hands `succ`'s terminator, and with it `succ`'s
/// out-edges, to `b`. No block's predecessor count changes, and no block
/// laid out before `b` becomes mergeable. So one walk in layout order, that
/// keeps merging each block's new successor, makes the same merges in the
/// same order as restarting the scan after every merge would.
fn merge_straightline_blocks(func: &mut Function) -> usize {
    let mut changes = 0;
    // The single-edge phis of merged blocks, replaced once all merges are
    // done.
    let mut repl = Replacements::default();
    let preds = Cfg::new(func).preds;
    let entry = func.entry_block().unwrap();
    let mut merged_away = vec![false; func.blocks.len()];
    for i in 0..func.layout.len() {
        let b = func.layout[i];
        if merged_away[b.index()] {
            continue;
        }
        while let Some(Terminator::Br(succ)) = func.block(b).term {
            if succ == b || succ == entry || preds[succ.index()].len() != 1 {
                break;
            }
            // Replace phi nodes in `succ` (they have a single incoming edge)
            // and move the remaining instructions and the terminator up
            // into `b`.
            let succ_insts = std::mem::take(&mut func.block_mut(succ).insts);
            let succ_term = func.block_mut(succ).term.take();
            for v in succ_insts {
                if let Some(Inst::Phi { incoming, .. }) = func.as_inst(v) {
                    assert!(incoming.len() <= 1, "single-pred block with multi-edge phi");
                    if let Some((_, val)) = incoming.first().copied() {
                        repl.insert(v, val);
                    }
                } else {
                    func.block_mut(b).insts.push(v);
                }
            }
            func.block_mut(b).term = succ_term;
            // Phi nodes in the successors of `succ` must now name `b`.
            if let Some(term) = func.block(b).term.clone() {
                for s in term.successors() {
                    let insts = func.block(s).insts.clone();
                    for v in insts {
                        if let Some(Inst::Phi { incoming, .. }) = func.as_inst_mut(v) {
                            for (p, _) in incoming.iter_mut() {
                                if *p == succ {
                                    *p = b;
                                }
                            }
                        }
                    }
                }
            }
            merged_away[succ.index()] = true;
            changes += 1;
        }
    }
    func.layout.retain(|x| !merged_away[x.index()]);
    func.replace_uses(&repl);
    changes
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_ir::{CmpPred, FunctionBuilder, Module, Ty};

    #[test]
    fn folds_constant_branch_and_removes_dead_arm() {
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![Ty::F64, Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            let t = b.create_block("then");
            let u = b.create_block("else");
            let j = b.create_block("join");
            b.switch_to_block(e);
            let x = b.param(0);
            let y = b.param(1);
            let c = b.const_bool(true);
            b.cond_br(c, t, u);
            b.switch_to_block(t);
            b.br(j);
            b.switch_to_block(u);
            b.br(j);
            b.switch_to_block(j);
            let p = b.phi(Ty::F64, vec![(t, x), (u, y)]);
            b.ret(Some(p));
        }
        let changes = run(&mut m);
        assert!(changes >= 3);
        let f = m.function(fid);
        // Everything should collapse into the entry block returning param 0.
        assert_eq!(f.layout.len(), 1);
        distill_ir::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn merges_chain_of_straightline_blocks() {
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let b0 = b.create_block("b0");
            let b1 = b.create_block("b1");
            let b2 = b.create_block("b2");
            b.switch_to_block(b0);
            let x = b.param(0);
            let a = b.fadd(x, x);
            b.br(b1);
            b.switch_to_block(b1);
            let c = b.fmul(a, a);
            b.br(b2);
            b.switch_to_block(b2);
            b.ret(Some(c));
        }
        run(&mut m);
        let f = m.function(fid);
        assert_eq!(f.layout.len(), 1);
        assert_eq!(f.inst_count(), 2);
        distill_ir::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn keeps_real_branches_intact() {
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            let t = b.create_block("t");
            let u = b.create_block("u");
            let j = b.create_block("j");
            b.switch_to_block(e);
            let x = b.param(0);
            let zero = b.const_f64(0.0);
            let c = b.cmp(CmpPred::FGt, x, zero);
            b.cond_br(c, t, u);
            b.switch_to_block(t);
            let a = b.fadd(x, x);
            b.br(j);
            b.switch_to_block(u);
            let d = b.fmul(x, x);
            b.br(j);
            b.switch_to_block(j);
            let p = b.phi(Ty::F64, vec![(t, a), (u, d)]);
            b.ret(Some(p));
        }
        run(&mut m);
        // The diamond is irreducible to a single block without speculation.
        assert_eq!(m.function(fid).layout.len(), 4);
        distill_ir::verify::verify_module(&m).unwrap();
    }
}
