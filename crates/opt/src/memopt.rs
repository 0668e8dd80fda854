//! Load and store optimization over module globals.
//!
//! Distill's dynamic-to-static conversion (§3.3) turns model data into
//! read-only and read-write static structures so that a standard optimizer
//! can work across node boundaries. This pass is where ours starts to: it
//! resolves loads and stores to a slot of a global and then, in one
//! reverse-post-order walk over each function,
//!
//! * folds a load of a constant slot of an immutable global to the slot's
//!   initializer,
//! * forwards a store's value to later loads of the same slot,
//! * merges repeated loads of one slot into the first, and
//! * removes a store that a later store to the same slot in the same block
//!   overwrites with no possible read in between.
//!
//! [`resolve`] is the one alias model of the optimizer; [`licm`](crate::licm)
//! uses it too. It is deliberately coarse. Memory is one flat image, and a
//! dynamic GEP index is only checked against the whole image, so it can
//! reach a neighbouring global. Hence a store through a dynamic index or an
//! unresolvable pointer, and any call, forget every tracked slot; a load
//! through one may read any slot, so it keeps every earlier store alive.
//! The PRNG intrinsics read and write the slot their pointer names, so they
//! forget that global only.
//!
//! Across blocks, a block starts from the slots on which all of its
//! predecessors' exit states agree, or from nothing when a predecessor has
//! not been walked yet (a loop header). Store removal stays within a block.

use distill_ir::cfg::Cfg;
use distill_ir::{
    BlockId, ConstPool, Constant, Function, GepIndex, Global, GlobalId, Inst, Module, Replacements,
    Ty, ValueId, ValueKind,
};
use std::collections::HashMap;

/// What a pointer is known to address: a global, and the slot within it
/// when every index on the way there is a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalRef {
    /// The global the pointer is rooted at.
    pub global: GlobalId,
    /// The slot offset within the global, or `None` when a dynamic index
    /// (which may reach any global) lies on the way.
    pub slot: Option<usize>,
}

/// Resolve a pointer through `GlobalAddr` and GEP chains. Returns `None`
/// when the pointer is not rooted at a global (an `alloca`, a parameter, a
/// phi or select, a loaded pointer).
pub fn resolve(func: &Function, ptr: ValueId) -> Option<GlobalRef> {
    let mut cur = ptr;
    let mut slot = Some(0usize);
    loop {
        match &func.value(cur).kind {
            ValueKind::Inst(Inst::GlobalAddr { global }) => {
                return Some(GlobalRef {
                    global: *global,
                    slot,
                })
            }
            ValueKind::Inst(Inst::Gep { base, indices }) => {
                slot = slot
                    .zip(const_offset(func.ty(*base), indices))
                    .map(|(a, b)| a + b);
                cur = *base;
            }
            _ => return None,
        }
    }
}

/// The slot offset of a GEP with constant indices from a base of type
/// `base_ty`; `None` for a dynamic index or an ill-formed path.
fn const_offset(base_ty: &Ty, indices: &[GepIndex]) -> Option<usize> {
    let Ty::Ptr(pointee) = base_ty else {
        return None;
    };
    let mut ty: &Ty = pointee;
    let mut offset = 0;
    for idx in indices {
        match (ty, idx) {
            (Ty::Array(elem, _), GepIndex::Const(i)) => {
                offset += i * elem.slot_count();
                ty = elem;
            }
            (Ty::Struct(fields), GepIndex::Const(i)) if *i < fields.len() => {
                offset += ty.field_offset(*i);
                ty = &fields[*i];
            }
            _ => return None,
        }
    }
    Some(offset)
}

/// A slot of a global: `(global index, slot offset)`.
type Slot = (GlobalId, usize);

/// Per-function walk state.
struct Walk<'a> {
    globals: &'a [Global],
    consts: ConstPool,
    repl: Replacements,
    /// Stores a later store overwrote before any possible read.
    dead_stores: Vec<bool>,
    changes: usize,
}

impl Walk<'_> {
    /// Walk one block from `avail`, the value each tracked slot is known to
    /// hold on entry; returns the slots' values on exit.
    fn block(
        &mut self,
        func: &mut Function,
        b: BlockId,
        mut avail: HashMap<Slot, ValueId>,
    ) -> HashMap<Slot, ValueId> {
        // The last store to each slot in this block that nothing may have
        // read since.
        let mut unread: HashMap<Slot, ValueId> = HashMap::new();
        for i in 0..func.block(b).insts.len() {
            let v = func.block(b).insts[i];
            func.resolve_operands(v, &self.repl);
            match func.as_inst(v) {
                Some(&Inst::Load { ptr }) => match resolve(func, ptr) {
                    Some(GlobalRef {
                        global,
                        slot: Some(slot),
                    }) => {
                        if let Some(to) = self.load(func, v, (global, slot), &avail) {
                            self.repl.insert(v, to);
                            self.changes += 1;
                        } else {
                            avail.insert((global, slot), v);
                            unread.remove(&(global, slot));
                        }
                    }
                    _ => unread.clear(),
                },
                Some(&Inst::Store { ptr, value }) => match resolve(func, ptr) {
                    Some(GlobalRef {
                        global,
                        slot: Some(slot),
                    }) => {
                        if let Some(prev) = unread.insert((global, slot), v) {
                            self.dead_stores[prev.index()] = true;
                            self.changes += 1;
                        }
                        avail.insert((global, slot), value);
                    }
                    _ => avail.clear(),
                },
                Some(Inst::IntrinsicCall { kind, args }) if kind.has_side_effects() => {
                    match args.first().and_then(|&p| resolve(func, p)) {
                        Some(GlobalRef {
                            global,
                            slot: Some(_),
                        }) => {
                            avail.retain(|s, _| s.0 != global);
                            unread.retain(|s, _| s.0 != global);
                        }
                        _ => {
                            avail.clear();
                            unread.clear();
                        }
                    }
                }
                Some(Inst::Call { .. }) => {
                    avail.clear();
                    unread.clear();
                }
                _ => {}
            }
        }
        avail
    }

    /// What load `v` of `slot` can be replaced by: the slot's initializer
    /// when the global is immutable, else the value the slot is known to
    /// hold, if its type is the load's.
    fn load(
        &mut self,
        func: &mut Function,
        v: ValueId,
        slot: Slot,
        avail: &HashMap<Slot, ValueId>,
    ) -> Option<ValueId> {
        let ty = func.ty(v);
        let global = &self.globals[slot.0.index()];
        if !global.mutable {
            let init = global.init.get(slot.1).copied();
            if let Some(c) = init.filter(|c| *c != Constant::Undef && c.ty() == *ty) {
                return Some(self.consts.intern(func, c));
            }
        }
        avail.get(&slot).copied().filter(|&w| func.ty(w) == ty)
    }
}

/// The tracked slots on which every predecessor's exit state agrees; empty
/// when a reachable predecessor has not been walked yet.
fn entry_state(
    cfg: &Cfg,
    exits: &[Option<HashMap<Slot, ValueId>>],
    b: BlockId,
) -> HashMap<Slot, ValueId> {
    let mut preds = cfg.preds_of(b).iter().filter(|p| cfg.is_reachable(**p));
    let Some(first) = preds.next() else {
        return HashMap::new();
    };
    let Some(mut state) = exits[first.index()].clone() else {
        return HashMap::new();
    };
    for p in preds {
        let Some(other) = &exits[p.index()] else {
            return HashMap::new();
        };
        state.retain(|slot, v| other.get(slot) == Some(v));
    }
    state
}

/// Run the pass over one function; returns the number of loads and stores
/// removed.
pub fn run_function(globals: &[Global], func: &mut Function) -> usize {
    if func.layout.is_empty() {
        return 0;
    }
    let cfg = Cfg::new(func);
    let mut walk = Walk {
        globals,
        consts: ConstPool::new(func),
        repl: Replacements::default(),
        dead_stores: vec![false; func.values.len()],
        changes: 0,
    };
    let mut exits: Vec<Option<HashMap<Slot, ValueId>>> = vec![None; func.blocks.len()];
    for &b in &cfg.rpo {
        let entry = entry_state(&cfg, &exits, b);
        exits[b.index()] = Some(walk.block(func, b, entry));
    }
    let Walk {
        repl,
        dead_stores,
        changes,
        ..
    } = walk;
    func.replace_uses(&repl);
    func.unschedule_if(|v| repl.contains(v) || dead_stores.get(v.index()) == Some(&true));
    changes
}

/// Run the pass over every defined function of a module.
pub fn run(module: &mut Module) -> usize {
    let mut total = 0;
    for f in &mut module.functions {
        if !f.is_declaration && !f.layout.is_empty() {
            total += run_function(&module.globals, f);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_ir::{CmpPred, FuncId, FunctionBuilder, Intrinsic};

    /// The globals and callee a test body can touch.
    struct Env {
        /// Mutable `[4 x f64]`.
        a: GlobalId,
        /// Mutable `[2 x i64]` PRNG states.
        r: GlobalId,
        /// Immutable `[2 x f64]` initialized to `[1.5, undef]`.
        k: GlobalId,
        /// An external `ext()`.
        ext: FuncId,
    }

    /// A module whose function `f(i: i64, x: f64, y: f64) -> f64` is built
    /// by `body`, starting in its entry block.
    fn build(body: impl FnOnce(&mut FunctionBuilder, &Env)) -> (Module, FuncId) {
        let mut m = Module::new("m");
        let env = Env {
            a: m.add_zeroed_global("a", Ty::array(Ty::F64, 4), true),
            r: m.add_zeroed_global("r", Ty::array(Ty::I64, 2), true),
            k: m.add_global(
                "k",
                Ty::array(Ty::F64, 2),
                vec![Constant::F64(1.5), Constant::Undef],
                false,
            ),
            ext: m.declare_function("ext", vec![], Ty::Void),
        };
        m.function_mut(env.ext).is_declaration = true;
        let tys = m.globals.iter().map(|g| g.ty.clone()).collect();
        let sigs = m
            .functions
            .iter()
            .map(|f| (f.params.clone(), f.ret_ty.clone()))
            .collect();
        let fid = m.declare_function("f", vec![Ty::I64, Ty::F64, Ty::F64], Ty::F64);
        let mut b = FunctionBuilder::new(m.function_mut(fid))
            .with_global_types(tys)
            .with_signatures(sigs);
        let entry = b.create_block("entry");
        b.switch_to_block(entry);
        body(&mut b, &env);
        (m, fid)
    }

    fn slot(b: &mut FunctionBuilder, g: GlobalId, i: usize) -> ValueId {
        let base = b.global_addr(g);
        b.const_elem_addr(base, i)
    }

    fn dyn_slot(b: &mut FunctionBuilder, g: GlobalId) -> ValueId {
        let base = b.global_addr(g);
        let i = b.param(0);
        b.elem_addr(base, i)
    }

    /// Scheduled `(loads, stores)` of `f`.
    fn memory_ops(m: &Module, f: FuncId) -> (usize, usize) {
        let f = m.function(f);
        let insts = f.layout.iter().flat_map(|b| f.block(*b).insts.iter());
        insts.fold((0, 0), |(l, s), &v| match f.as_inst(v) {
            Some(Inst::Load { .. }) => (l + 1, s),
            Some(Inst::Store { .. }) => (l, s + 1),
            _ => (l, s),
        })
    }

    fn run_verified(m: &mut Module) -> usize {
        let changes = run(m);
        distill_ir::verify::verify_module(m).unwrap();
        changes
    }

    #[test]
    fn forwards_merges_folds_and_drops_overwritten_stores() {
        let (mut m, f) = build(|b, env| {
            let (x, y) = (b.param(1), b.param(2));
            let a0 = slot(b, env.a, 0);
            b.store(a0, x);
            let forwarded = b.load(a0);
            let a1 = slot(b, env.a, 1);
            let first = b.load(a1);
            let merged = b.load(a1);
            let k0 = slot(b, env.k, 0);
            let folded = b.load(k0);
            let a2 = slot(b, env.a, 2);
            b.store(a2, x);
            b.store(a2, y);
            let s = b.fadd(forwarded, first);
            let s = b.fadd(s, merged);
            let s = b.fadd(s, folded);
            b.ret(Some(s));
        });
        assert_eq!(run_verified(&mut m), 4);
        assert_eq!(memory_ops(&m, f), (1, 2));
        let func = m.function(f);
        let k = func
            .values
            .iter()
            .position(|v| matches!(v.kind, ValueKind::Const(Constant::F64(c)) if c == 1.5));
        assert!(k.is_some(), "the immutable slot folds to its initializer");
    }

    #[test]
    fn a_rand_draw_blocks_its_own_global_and_leaves_others_alone() {
        let (mut m, f) = build(|b, env| {
            let (i, x) = (b.param(0), b.param(1));
            let r0 = slot(b, env.r, 0);
            let a0 = slot(b, env.a, 0);
            b.store(r0, i);
            b.store(a0, x);
            let draw = b.intrinsic(Intrinsic::RandNormal, vec![r0]);
            // The draw read the stored state: that store must stay.
            b.store(r0, i);
            let state = b.load(r0); // forwarded from the second store
            let kept = b.load(a0); // forwarded across the draw
            let state = b.cast(distill_ir::CastKind::SiToFp, state, Ty::F64);
            let s = b.fadd(draw, kept);
            let s = b.fadd(s, state);
            b.ret(Some(s));
        });
        assert_eq!(run_verified(&mut m), 2);
        assert_eq!(memory_ops(&m, f), (0, 3));

        // Without the second store, the load after the draw stays.
        let (mut m, f) = build(|b, env| {
            let i = b.param(0);
            let r0 = slot(b, env.r, 0);
            b.store(r0, i);
            let draw = b.intrinsic(Intrinsic::RandNormal, vec![r0]);
            let state = b.load(r0);
            let state = b.cast(distill_ir::CastKind::SiToFp, state, Ty::F64);
            let s = b.fadd(draw, state);
            b.ret(Some(s));
        });
        assert_eq!(run_verified(&mut m), 0);
        assert_eq!(memory_ops(&m, f), (1, 1));
    }

    #[test]
    fn a_dynamic_index_store_forgets_every_slot() {
        let (mut m, f) = build(|b, env| {
            let (i, x, y) = (b.param(0), b.param(1), b.param(2));
            let a0 = slot(b, env.a, 0);
            let r0 = slot(b, env.r, 0);
            b.store(a0, x);
            b.store(r0, i);
            // An out-of-range index may reach `r` as well as `a`.
            let ad = dyn_slot(b, env.a);
            b.store(ad, y);
            let la = b.load(a0);
            let lr = b.load(r0);
            let lr = b.cast(distill_ir::CastKind::SiToFp, lr, Ty::F64);
            let s = b.fadd(la, lr);
            b.ret(Some(s));
        });
        assert_eq!(run_verified(&mut m), 0);
        assert_eq!(memory_ops(&m, f), (2, 3));
    }

    #[test]
    fn a_dynamic_index_load_keeps_earlier_stores_alive() {
        let (mut m, f) = build(|b, env| {
            let (i, x, y) = (b.param(0), b.param(1), b.param(2));
            let a0 = slot(b, env.a, 0);
            let r0 = slot(b, env.r, 0);
            b.store(a0, x);
            b.store(r0, i);
            let ad = dyn_slot(b, env.a);
            let ld = b.load(ad);
            b.store(a0, y);
            b.store(r0, i);
            b.ret(Some(ld));
        });
        assert_eq!(run_verified(&mut m), 0);
        assert_eq!(memory_ops(&m, f), (1, 4));
    }

    #[test]
    fn a_call_clears_the_state() {
        let (mut m, f) = build(|b, env| {
            let (x, y) = (b.param(1), b.param(2));
            let a0 = slot(b, env.a, 0);
            let a1 = slot(b, env.a, 1);
            b.store(a0, x);
            b.call(env.ext, vec![]);
            let l = b.load(a0);
            b.store(a1, x);
            b.call(env.ext, vec![]);
            b.store(a1, y);
            b.ret(Some(l));
        });
        assert_eq!(run_verified(&mut m), 0);
        assert_eq!(memory_ops(&m, f), (1, 3));
    }

    #[test]
    fn no_value_is_forwarded_across_a_type_change() {
        let (mut m, f) = build(|b, env| {
            let x = b.param(1);
            let a0 = slot(b, env.a, 0);
            let st = b.store(a0, x);
            let l = b.load(a0);
            // Store an `i64` through the `f64` pointer: the load must not
            // take its value.
            let i = b.param(0);
            if let Some(Inst::Store { value, .. }) = b.func_mut().as_inst_mut(st) {
                *value = i;
            }
            b.ret(Some(l));
        });
        assert_eq!(run(&mut m), 0);
        assert_eq!(memory_ops(&m, f), (1, 1));
    }

    #[test]
    fn an_undef_immutable_slot_is_not_folded() {
        let (mut m, f) = build(|b, env| {
            let k0 = slot(b, env.k, 0);
            let k1 = slot(b, env.k, 1);
            let folded = b.load(k0);
            let kept = b.load(k1);
            let s = b.fadd(folded, kept);
            b.ret(Some(s));
        });
        assert_eq!(run_verified(&mut m), 1);
        assert_eq!(memory_ops(&m, f), (1, 0));
    }

    #[test]
    fn a_loop_header_starts_empty() {
        let (mut m, f) = build(|b, env| {
            let (x, y) = (b.param(1), b.param(2));
            let header = b.create_block("header");
            let body = b.create_block("body");
            let exit = b.create_block("exit");
            let a0 = slot(b, env.a, 0);
            b.store(a0, x);
            b.br(header);
            b.switch_to_block(header);
            // The back edge stores `y`: the entry's `x` is not known here.
            let l = b.load(a0);
            let c = b.cmp(CmpPred::FLt, l, y);
            b.cond_br(c, body, exit);
            b.switch_to_block(body);
            b.store(a0, y);
            b.br(header);
            b.switch_to_block(exit);
            b.ret(Some(l));
        });
        assert_eq!(run_verified(&mut m), 0);
        assert_eq!(memory_ops(&m, f), (1, 2));
    }

    #[test]
    fn a_join_keeps_only_the_slots_every_path_agrees_on() {
        let (mut m, f) = build(|b, env| {
            let (x, y) = (b.param(1), b.param(2));
            let t = b.create_block("t");
            let u = b.create_block("u");
            let j = b.create_block("j");
            let a0 = slot(b, env.a, 0);
            let a1 = slot(b, env.a, 1);
            b.store(a0, x);
            b.store(a1, x);
            let c = b.cmp(CmpPred::FLt, x, y);
            b.cond_br(c, t, u);
            b.switch_to_block(t);
            b.store(a1, y);
            b.br(j);
            b.switch_to_block(u);
            b.br(j);
            b.switch_to_block(j);
            let agreed = b.load(a0); // `x` on both paths
            let differs = b.load(a1); // `y` or `x`
            let s = b.fadd(agreed, differs);
            b.ret(Some(s));
        });
        assert_eq!(run_verified(&mut m), 1);
        assert_eq!(memory_ops(&m, f), (1, 3));
        let func = m.function(f);
        let j = func.layout[3];
        let sum = *func.block(j).insts.last().unwrap();
        assert_eq!(
            func.as_inst(sum).unwrap().operands()[0],
            func.param_value(1)
        );
    }
}
