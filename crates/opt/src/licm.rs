//! Loop-invariant code motion.
//!
//! Hoists pure computations whose operands are defined outside the loop into
//! the loop preheader. Loads are hoisted when they read from provably
//! loop-invariant addresses rooted at *immutable* globals — exactly the
//! read-only parameter structures that Distill's dynamic-to-static
//! conversion separates from read-write state (§3.3), which is what makes
//! this hoisting legal without a full alias analysis.

use distill_ir::cfg::{find_loops, Cfg, DomTree};
use distill_ir::{Function, Inst, Module, ValueId, ValueKind};
use std::collections::HashSet;

/// Run LICM on one function; returns the number of hoisted instructions.
pub fn run_function(module_globals_immutable: &[bool], func: &mut Function) -> usize {
    if func.layout.is_empty() {
        return 0;
    }
    let mut hoisted_total = 0;
    loop {
        let cfg = Cfg::new(func);
        let dom = DomTree::new(func, &cfg);
        let loops = find_loops(func, &cfg, &dom);
        let mut hoisted_this_round = 0;

        for lp in &loops {
            let Some(preheader) = lp.preheader(&cfg) else {
                continue;
            };
            // A loop containing stores or calls may clobber memory; in that
            // case loads are not hoisted (arithmetic still is).
            let mut loop_writes_memory = false;
            for &b in &lp.blocks {
                for &v in &func.block(b).insts {
                    if let Some(inst) = func.as_inst(v) {
                        if inst.writes_memory() {
                            loop_writes_memory = true;
                        }
                    }
                }
            }

            // Values defined inside the loop.
            let mut defined_in_loop: HashSet<ValueId> = HashSet::new();
            for &b in &lp.blocks {
                for &v in &func.block(b).insts {
                    defined_in_loop.insert(v);
                }
            }

            // Iterate blocks in layout order for determinism.
            let blocks_in_loop: Vec<_> = func
                .block_order()
                .filter(|b| lp.blocks.contains(b))
                .collect();
            let mut to_hoist: Vec<ValueId> = Vec::new();
            let mut hoisted_set: HashSet<ValueId> = HashSet::new();
            // Fixpoint inside the loop so chains of invariant ops hoist
            // together in one round.
            loop {
                let mut changed = false;
                for &b in &blocks_in_loop {
                    for &v in &func.block(b).insts {
                        if hoisted_set.contains(&v) {
                            continue;
                        }
                        let Some(inst) = func.as_inst(v) else {
                            continue;
                        };
                        if !is_hoistable(func, inst, module_globals_immutable, loop_writes_memory) {
                            continue;
                        }
                        let invariant = inst
                            .operands()
                            .iter()
                            .all(|op| !defined_in_loop.contains(op) || hoisted_set.contains(op));
                        if invariant {
                            to_hoist.push(v);
                            hoisted_set.insert(v);
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }

            if to_hoist.is_empty() {
                continue;
            }
            // Move them to the preheader, before its terminator, preserving
            // the discovered order (defs before uses).
            func.unschedule_if(|v| hoisted_set.contains(&v));
            let ph = func.block_mut(preheader);
            for v in to_hoist {
                ph.insts.push(v);
                hoisted_this_round += 1;
            }
        }
        hoisted_total += hoisted_this_round;
        if hoisted_this_round == 0 {
            break;
        }
    }
    hoisted_total
}

fn is_hoistable(
    func: &Function,
    inst: &Inst,
    globals_immutable: &[bool],
    loop_writes_memory: bool,
) -> bool {
    match inst {
        Inst::Bin { .. }
        | Inst::Un { .. }
        | Inst::Cmp { .. }
        | Inst::Select { .. }
        | Inst::Cast { .. }
        | Inst::Gep { .. }
        | Inst::GlobalAddr { .. } => true,
        Inst::IntrinsicCall { kind, .. } => !kind.has_side_effects(),
        Inst::Load { ptr } => {
            if loop_writes_memory {
                return false;
            }
            points_to_immutable_global(func, *ptr, globals_immutable)
        }
        _ => false,
    }
}

/// Walk a pointer value back through GEPs to see whether it is rooted at an
/// immutable global.
fn points_to_immutable_global(func: &Function, ptr: ValueId, globals_immutable: &[bool]) -> bool {
    let mut cur = ptr;
    loop {
        match &func.value(cur).kind {
            ValueKind::Inst(Inst::Gep { base, .. }) => cur = *base,
            ValueKind::Inst(Inst::GlobalAddr { global }) => {
                return globals_immutable
                    .get(global.index())
                    .copied()
                    .unwrap_or(false)
            }
            _ => return false,
        }
    }
}

/// Run LICM over every defined function of a module.
pub fn run(module: &mut Module) -> usize {
    let immutable: Vec<bool> = module.globals.iter().map(|g| !g.mutable).collect();
    let mut total = 0;
    for f in &mut module.functions {
        if !f.is_declaration && !f.layout.is_empty() {
            total += run_function(&immutable, f);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_ir::{CmpPred, FunctionBuilder, Module, Ty};

    /// Builds: for i in 0..n { acc += exp(k) } where k is a parameter, plus a
    /// load of a global inside the loop.
    fn loop_with_invariant(immutable_global: bool) -> (Module, distill_ir::FuncId) {
        let mut m = Module::new("m");
        let g = m.add_zeroed_global("gain", Ty::F64, !immutable_global);
        let tys: Vec<Ty> = m.globals.iter().map(|g| g.ty.clone()).collect();
        let fid = m.declare_function("f", vec![Ty::I64, Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f).with_global_types(tys);
            let entry = b.create_block("entry");
            let header = b.create_block("header");
            let body = b.create_block("body");
            let exit = b.create_block("exit");
            b.switch_to_block(entry);
            let n = b.param(0);
            let k = b.param(1);
            let zero_i = b.const_i64(0);
            let one_i = b.const_i64(1);
            let zero_f = b.const_f64(0.0);
            b.br(header);
            b.switch_to_block(header);
            let i = b.empty_phi(Ty::I64);
            let acc = b.empty_phi(Ty::F64);
            b.add_phi_incoming(i, entry, zero_i);
            b.add_phi_incoming(acc, entry, zero_f);
            let c = b.cmp(CmpPred::ILt, i, n);
            b.cond_br(c, body, exit);
            b.switch_to_block(body);
            let ek = b.exp(k); // invariant
            let gaddr = b.global_addr(g); // invariant
            let gval = b.load(gaddr); // invariant iff the global is immutable
            let term = b.fmul(ek, gval);
            let acc2 = b.fadd(acc, term);
            let i2 = b.iadd(i, one_i);
            b.add_phi_incoming(i, body, i2);
            b.add_phi_incoming(acc, body, acc2);
            b.br(header);
            b.switch_to_block(exit);
            b.ret(Some(acc));
        }
        (m, fid)
    }

    fn body_inst_count(m: &Module, fid: distill_ir::FuncId) -> usize {
        let f = m.function(fid);
        f.block(distill_ir::BlockId::from_index(2)).insts.len()
    }

    #[test]
    fn hoists_invariant_arithmetic_and_readonly_loads() {
        let (mut m, fid) = loop_with_invariant(true);
        let before = body_inst_count(&m, fid);
        let hoisted = run(&mut m);
        assert!(hoisted >= 3, "expected exp, globaladdr and load to hoist");
        assert!(body_inst_count(&m, fid) < before);
        distill_ir::verify::verify_module(&m).unwrap();
        // The entry (preheader) now contains the hoisted instructions.
        let f = m.function(fid);
        assert!(f.block(distill_ir::BlockId::from_index(0)).insts.len() >= 3);
    }

    #[test]
    fn does_not_hoist_loads_of_mutable_globals() {
        let (mut m, fid) = loop_with_invariant(false);
        run(&mut m);
        let f = m.function(fid);
        // The load must still be inside the body.
        let body = distill_ir::BlockId::from_index(2);
        let load_in_body = f
            .block(body)
            .insts
            .iter()
            .any(|&v| matches!(f.as_inst(v), Some(Inst::Load { .. })));
        assert!(load_in_body);
        distill_ir::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn loop_variant_values_stay_put() {
        let (mut m, fid) = loop_with_invariant(true);
        run(&mut m);
        let f = m.function(fid);
        let body = distill_ir::BlockId::from_index(2);
        // The accumulator update and induction increment depend on phis and
        // must remain in the body.
        let remaining = f.block(body).insts.len();
        assert!(remaining >= 2, "acc update and i increment must remain");
    }
}
