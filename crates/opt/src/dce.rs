//! Dead code elimination.
//!
//! Removes scheduled instructions whose results are never used and which
//! have no side effects. Run repeatedly (chains of dead instructions die one
//! layer per iteration of the internal fixpoint loop).

use distill_ir::{Function, Module, ValueKind};

/// Remove dead instructions from one function; returns how many were removed.
pub fn run_function(func: &mut Function) -> usize {
    let mut removed = 0;
    loop {
        // Mark all used value ids (operands of scheduled instructions and
        // terminators).
        let mut used = vec![false; func.values.len()];
        for b in func.block_order() {
            let blk = func.block(b);
            for &v in &blk.insts {
                if let Some(inst) = func.as_inst(v) {
                    for op in inst.operands() {
                        used[op.index()] = true;
                    }
                }
            }
            if let Some(term) = &blk.term {
                for op in term.operands() {
                    used[op.index()] = true;
                }
            }
        }

        // Unschedule instructions that are unused and effect-free, all in
        // one sweep.
        let mut dead = vec![false; func.values.len()];
        let mut ndead = 0;
        for b in func.block_order() {
            for &v in &func.block(b).insts {
                if used[v.index()] {
                    continue;
                }
                match &func.value(v).kind {
                    ValueKind::Inst(inst) if !inst.has_side_effects() => {
                        dead[v.index()] = true;
                        ndead += 1;
                    }
                    _ => {}
                }
            }
        }
        if ndead == 0 {
            break;
        }
        func.unschedule_if(|v| dead[v.index()]);
        removed += ndead;
    }
    removed
}

/// Run DCE over every defined function of a module.
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
    use distill_ir::{FunctionBuilder, Intrinsic, Module, Ty};

    #[test]
    fn removes_unused_pure_chain() {
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let a = b.fadd(x, x); // dead
            let _c = b.fmul(a, a); // dead, and keeps `a` alive until it dies
            b.ret(Some(x));
        }
        let removed = run(&mut m);
        assert_eq!(removed, 2);
        assert_eq!(m.function(fid).inst_count(), 0);
    }

    #[test]
    fn keeps_stores_and_prng_calls() {
        let mut m = Module::new("m");
        let g = m.add_zeroed_global("state", Ty::array(Ty::I64, 5), true);
        let tys: Vec<Ty> = m.globals.iter().map(|g| g.ty.clone()).collect();
        let fid = m.declare_function("f", vec![Ty::F64], Ty::Void);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f).with_global_types(tys);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let slot = b.alloca(Ty::F64);
            let x = b.param(0);
            b.store(slot, x);
            let state = b.global_addr(g);
            let _r = b.intrinsic(Intrinsic::RandUniform, vec![state]); // result unused but has effects
            b.ret(None);
        }
        let before = m.function(fid).inst_count();
        run(&mut m);
        // Only nothing should be removed: alloca+store are live (store uses
        // alloca), global_addr feeds the PRNG call which has side effects.
        assert_eq!(m.function(fid).inst_count(), before);
    }

    #[test]
    fn keeps_values_used_by_terminators() {
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let y = b.fadd(x, x);
            b.ret(Some(y));
        }
        assert_eq!(run(&mut m), 0);
        assert_eq!(m.function(fid).inst_count(), 1);
    }
}
