//! Promotion of stack slots to SSA registers (the classic `mem2reg`).
//!
//! Distill's code generator lowers node-local mutable variables (evidence
//! accumulators, loop counters, running minima of the grid search) as
//! `alloca` slots with explicit loads and stores. This pass promotes every
//! slot whose address never escapes into SSA form, inserting phi nodes at
//! iterated dominance frontiers and renaming uses along a dominator-tree
//! walk. It is the enabling pass for everything downstream: constant
//! propagation, CSE, LICM, the value-range and scalar-evolution analyses of
//! `distill-analysis` all work on the SSA values this pass exposes.

use distill_ir::cfg::{Cfg, DomTree};
use distill_ir::{
    BlockId, Constant, Function, Inst, Module, Replacements, Ty, ValueData, ValueId, ValueKind,
};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Promote allocas in one function; returns the number of promoted slots.
pub fn run_function(func: &mut Function) -> usize {
    if func.layout.is_empty() {
        return 0;
    }
    let candidates = promotable_allocas(func);
    if candidates.is_empty() {
        return 0;
    }
    let cfg = Cfg::new(func);
    let dom = DomTree::new(func, &cfg);
    let frontiers = dominance_frontiers(func, &cfg, &dom);

    // Definition and use blocks per alloca.
    let mut def_blocks: HashMap<ValueId, Vec<BlockId>> = HashMap::new();
    for b in func.block_order().collect::<Vec<_>>() {
        for &v in &func.block(b).insts {
            if let Some(Inst::Store { ptr, .. }) = func.as_inst(v) {
                if candidates.contains_key(ptr) {
                    def_blocks.entry(*ptr).or_default().push(b);
                }
            }
        }
    }

    // Insert phi nodes at iterated dominance frontiers.
    // phi_for[(block, alloca)] = phi value id
    let mut phi_for: HashMap<(BlockId, ValueId), ValueId> = HashMap::new();
    for (&alloca, ty) in &candidates {
        let mut work: Vec<BlockId> = def_blocks.get(&alloca).cloned().unwrap_or_default();
        let mut placed: HashSet<BlockId> = HashSet::new();
        let mut visited: HashSet<BlockId> = work.iter().copied().collect();
        while let Some(b) = work.pop() {
            for &df in frontiers.get(&b).map(|v| v.as_slice()).unwrap_or(&[]) {
                if placed.insert(df) {
                    let phi = func.add_value(ValueData {
                        kind: ValueKind::Inst(Inst::Phi {
                            ty: ty.clone(),
                            incoming: Vec::new(),
                        }),
                        ty: ty.clone(),
                        name: Some("mem2reg.phi".into()),
                    });
                    func.block_mut(df).insts.insert(0, phi);
                    phi_for.insert((df, alloca), phi);
                    if visited.insert(df) {
                        work.push(df);
                    }
                }
            }
        }
    }

    // Rename along the dominator tree.
    let nblocks = func.blocks.len();
    let mut children: Vec<Vec<BlockId>> = vec![Vec::new(); nblocks];
    for b in func.block_order() {
        if let Some(p) = dom.idom_of(b) {
            children[p.index()].push(b);
        }
    }
    let entry = func.entry_block().unwrap();
    let undef = func.add_constant(Constant::Undef);

    // Current reaching definition per alloca, managed as a stack of scopes.
    let mut current: HashMap<ValueId, Vec<ValueId>> =
        candidates.keys().map(|&a| (a, vec![undef])).collect();

    let mut repl = Replacements::default();
    rename_block(
        func,
        &cfg,
        &children,
        &candidates,
        &phi_for,
        &mut current,
        &mut repl,
        entry,
    );
    func.replace_uses(&repl);

    // Remove the now-dead allocas, loads and stores.
    let mut to_remove: HashSet<ValueId> = HashSet::new();
    for b in func.block_order() {
        for &v in &func.block(b).insts {
            let slot = match func.as_inst(v) {
                Some(Inst::Alloca { .. }) => v,
                Some(Inst::Store { ptr, .. } | Inst::Load { ptr }) => *ptr,
                _ => continue,
            };
            if candidates.contains_key(&slot) {
                to_remove.insert(v);
            }
        }
    }
    func.unschedule_if(|v| to_remove.contains(&v));
    prune_dead_phis(func, phi_for.values().copied());
    candidates.len()
}

/// Unschedule the placed phis that no live instruction needs. Phis go to
/// every iterated dominance frontier, live or not, and a dead one may take
/// `undef` from a path on which its slot was never stored, which is not
/// valid IR. A placed phi is live when a scheduled instruction other than a
/// placed phi, or a terminator, uses it, or when a live placed phi does.
fn prune_dead_phis(func: &mut Function, placed: impl Iterator<Item = ValueId>) {
    let mut is_placed = vec![false; func.values.len()];
    for phi in placed {
        is_placed[phi.index()] = true;
    }
    let mut live = vec![false; func.values.len()];
    let mut work: Vec<ValueId> = Vec::new();
    let mut mark = |op: ValueId, work: &mut Vec<ValueId>| {
        if is_placed[op.index()] && !live[op.index()] {
            live[op.index()] = true;
            work.push(op);
        }
    };
    for b in func.block_order() {
        let blk = func.block(b);
        for &v in blk.insts.iter().filter(|v| !is_placed[v.index()]) {
            for op in func.as_inst(v).map(Inst::operands).unwrap_or_default() {
                mark(op, &mut work);
            }
        }
        for op in blk.term.as_ref().map(|t| t.operands()).unwrap_or_default() {
            mark(op, &mut work);
        }
    }
    while let Some(phi) = work.pop() {
        for op in func.as_inst(phi).map(Inst::operands).unwrap_or_default() {
            mark(op, &mut work);
        }
    }
    func.unschedule_if(|v| is_placed[v.index()] && !live[v.index()]);
}

#[allow(clippy::too_many_arguments)]
fn rename_block(
    func: &mut Function,
    cfg: &Cfg,
    children: &[Vec<BlockId>],
    candidates: &BTreeMap<ValueId, Ty>,
    phi_for: &HashMap<(BlockId, ValueId), ValueId>,
    current: &mut HashMap<ValueId, Vec<ValueId>>,
    repl: &mut Replacements,
    block: BlockId,
) {
    let mut pushed: Vec<ValueId> = Vec::new();

    // Phi nodes placed in this block become the new reaching definitions.
    for (&(b, alloca), &phi) in phi_for.iter() {
        if b == block {
            current.get_mut(&alloca).unwrap().push(phi);
            pushed.push(alloca);
        }
    }

    // Walk instructions: replace loads, record stores. Load replacements
    // are applied once the whole walk is done; operands are resolved first,
    // so a stored value is never a replaced load.
    let insts = func.block(block).insts.clone();
    for v in insts {
        func.resolve_operands(v, repl);
        let inst = match func.as_inst(v) {
            Some(i) => i.clone(),
            None => continue,
        };
        match inst {
            Inst::Load { ptr } if candidates.contains_key(&ptr) => {
                let cur = *current[&ptr].last().unwrap();
                repl.insert(v, cur);
            }
            Inst::Store { ptr, value } if candidates.contains_key(&ptr) => {
                current.get_mut(&ptr).unwrap().push(value);
                pushed.push(ptr);
            }
            _ => {}
        }
    }

    // Fill phi incoming edges of successors.
    for &succ in cfg.succs_of(block) {
        for (&(b, alloca), &phi) in phi_for.iter() {
            if b != succ {
                continue;
            }
            let cur = *current[&alloca].last().unwrap();
            if let Some(Inst::Phi { incoming, .. }) = func.as_inst_mut(phi) {
                incoming.push((block, cur));
            }
        }
    }

    // Recurse into dominator-tree children.
    for &c in &children[block.index()] {
        rename_block(func, cfg, children, candidates, phi_for, current, repl, c);
    }

    // Pop this block's definitions.
    for alloca in pushed {
        current.get_mut(&alloca).unwrap().pop();
    }
}

/// Allocas of scalar type whose address is only ever used as the pointer
/// operand of loads and stores.
fn promotable_allocas(func: &Function) -> BTreeMap<ValueId, Ty> {
    let mut allocas: BTreeMap<ValueId, Ty> = BTreeMap::new();
    for b in func.block_order() {
        for &v in &func.block(b).insts {
            if let Some(Inst::Alloca { ty }) = func.as_inst(v) {
                if ty.is_scalar() {
                    allocas.insert(v, ty.clone());
                }
            }
        }
    }
    if allocas.is_empty() {
        return allocas;
    }
    // Disqualify any alloca that escapes.
    for b in func.block_order() {
        for &v in &func.block(b).insts {
            let Some(inst) = func.as_inst(v) else {
                continue;
            };
            match inst {
                Inst::Load { .. } => {}
                Inst::Store { ptr, value } => {
                    // Storing the address itself disqualifies it.
                    if allocas.contains_key(value) {
                        allocas.remove(value);
                    }
                    let _ = ptr;
                }
                other => {
                    for op in other.operands() {
                        allocas.remove(&op);
                    }
                }
            }
        }
        if let Some(term) = &func.block(b).term {
            for op in term.operands() {
                allocas.remove(&op);
            }
        }
    }
    allocas
}

fn dominance_frontiers(
    func: &Function,
    cfg: &Cfg,
    dom: &DomTree,
) -> HashMap<BlockId, Vec<BlockId>> {
    let mut df: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
    for b in func.block_order() {
        if !cfg.is_reachable(b) {
            continue;
        }
        let preds = cfg.preds_of(b);
        if preds.len() < 2 {
            continue;
        }
        let Some(idom_b) = dom.idom_of(b) else {
            continue;
        };
        for &p in preds {
            if !cfg.is_reachable(p) {
                continue;
            }
            let mut runner = p;
            while runner != idom_b {
                let entry = df.entry(runner).or_default();
                if !entry.contains(&b) {
                    entry.push(b);
                }
                match dom.idom_of(runner) {
                    Some(next) => runner = next,
                    None => break,
                }
            }
        }
    }
    df
}

/// Run mem2reg over every defined function of a module.
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
    use distill_ir::{CmpPred, FunctionBuilder, Module};

    /// abs(x) computed through a stack slot with a conditional store.
    fn abs_via_memory() -> (Module, distill_ir::FuncId) {
        let mut m = Module::new("m");
        let fid = m.declare_function("abs", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let entry = b.create_block("entry");
            let neg = b.create_block("neg");
            let done = b.create_block("done");
            b.switch_to_block(entry);
            let x = b.param(0);
            let slot = b.alloca(Ty::F64);
            b.store(slot, x);
            let zero = b.const_f64(0.0);
            let isneg = b.cmp(CmpPred::FLt, x, zero);
            b.cond_br(isneg, neg, done);
            b.switch_to_block(neg);
            let nx = b.fneg(x);
            b.store(slot, nx);
            b.br(done);
            b.switch_to_block(done);
            let r = b.load(slot);
            b.ret(Some(r));
        }
        (m, fid)
    }

    #[test]
    fn promotes_slot_and_inserts_phi() {
        let (mut m, fid) = abs_via_memory();
        let promoted = run(&mut m);
        assert_eq!(promoted, 1);
        let f = m.function(fid);
        // No loads/stores/allocas remain.
        for b in f.block_order() {
            for &v in &f.block(b).insts {
                let inst = f.as_inst(v).unwrap();
                assert!(
                    !matches!(
                        inst,
                        Inst::Alloca { .. } | Inst::Load { .. } | Inst::Store { .. }
                    ),
                    "memory op survived mem2reg"
                );
            }
        }
        // A phi must have appeared in the join block.
        let done = BlockId::from_index(2);
        let has_phi = f
            .block(done)
            .insts
            .iter()
            .any(|&v| matches!(f.as_inst(v), Some(Inst::Phi { .. })));
        assert!(has_phi);
        distill_ir::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn straightline_slot_needs_no_phi() {
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let slot = b.alloca(Ty::F64);
            b.store(slot, x);
            let v = b.load(slot);
            let y = b.fadd(v, v);
            b.store(slot, y);
            let v2 = b.load(slot);
            b.ret(Some(v2));
        }
        run(&mut m);
        let f = m.function(fid);
        assert_eq!(f.inst_count(), 1); // only the fadd remains
        let has_phi = f
            .block(f.entry_block().unwrap())
            .insts
            .iter()
            .any(|&v| matches!(f.as_inst(v), Some(Inst::Phi { .. })));
        assert!(!has_phi);
        distill_ir::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn escaping_alloca_is_not_promoted() {
        let mut m = Module::new("m");
        // Callee that takes a pointer.
        let callee = m.declare_function("writes", vec![Ty::ptr(Ty::F64)], Ty::Void);
        {
            let f = m.function_mut(callee);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let p = b.param(0);
            let one = b.const_f64(1.0);
            b.store(p, one);
            b.ret(None);
        }
        let fid = m.declare_function("f", vec![], Ty::F64);
        {
            let sigs: Vec<(Vec<Ty>, Ty)> = m
                .functions
                .iter()
                .map(|f| (f.params.clone(), f.ret_ty.clone()))
                .collect();
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f).with_signatures(sigs);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let slot = b.alloca(Ty::F64);
            let zero = b.const_f64(0.0);
            b.store(slot, zero);
            b.call(callee, vec![slot]);
            let v = b.load(slot);
            b.ret(Some(v));
        }
        // The alloca in `f` escapes through the call and must survive.
        let promoted = run(&mut m);
        assert_eq!(promoted, 0);
        distill_ir::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn loop_counter_gets_phi_in_header() {
        let mut m = Module::new("m");
        let fid = m.declare_function("sum", vec![Ty::I64], Ty::I64);
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
            let one = b.const_i64(1);
            let islot = b.alloca(Ty::I64);
            b.store(islot, zero);
            b.br(header);
            b.switch_to_block(header);
            let i = b.load(islot);
            let c = b.cmp(CmpPred::ILt, i, n);
            b.cond_br(c, body, exit);
            b.switch_to_block(body);
            let i2 = b.load(islot);
            let next = b.iadd(i2, one);
            b.store(islot, next);
            b.br(header);
            b.switch_to_block(exit);
            let r = b.load(islot);
            b.ret(Some(r));
        }
        assert_eq!(run(&mut m), 1);
        let f = m.function(fid);
        let header = BlockId::from_index(1);
        let has_phi = f
            .block(header)
            .insts
            .iter()
            .any(|&v| matches!(f.as_inst(v), Some(Inst::Phi { .. })));
        assert!(has_phi, "loop-carried variable should get a header phi");
        distill_ir::verify::verify_module(&m).unwrap();
    }
}
