//! Function inlining.
//!
//! Inlining is the pass that turns Distill's per-node functions plus the
//! compiled scheduler into one *model-wide* body of code, which is what
//! allows the rest of the pipeline to optimize across node boundaries
//! (Fig. 5b contrasts exactly this against per-node compilation). It is also
//! the mechanism behind whole-model clone detection (§4.4), where two models
//! are compared after aggressively inlining every node into the trial
//! function.

use distill_ir::{
    BlockId, Constant, FuncId, Function, Inst, Module, Terminator, Ty, ValueData, ValueId,
    ValueKind,
};
use std::collections::HashMap;
use std::ops::Range;

/// Inlining thresholds and limits.
#[derive(Debug, Clone, Copy)]
pub struct InlineOptions {
    /// Maximum callee size (instruction count) that will be inlined.
    pub max_callee_insts: usize,
    /// Upper bound on the number of call sites inlined per module run
    /// (protects against pathological growth).
    pub max_inlined_calls: usize,
}

impl Default for InlineOptions {
    fn default() -> Self {
        InlineOptions {
            // Whole-model compilation wants node functions of any realistic
            // size inlined; cognitive-model nodes are typically a few dozen
            // to a few hundred instructions.
            max_callee_insts: 4_000,
            max_inlined_calls: 10_000,
        }
    }
}

/// Inline eligible call sites across the whole module. Returns the number of
/// call sites inlined.
pub fn run(module: &mut Module) -> usize {
    run_with_options(module, InlineOptions::default())
}

/// Inline with explicit options.
pub fn run_with_options(module: &mut Module, opts: InlineOptions) -> usize {
    inline_calls(module, 0..module.functions.len(), opts)
}

/// Inline every call site inside one function (used by clone detection to
/// flatten a model before comparison). Returns the number inlined.
pub fn inline_all_calls_in(module: &mut Module, func: FuncId, opts: InlineOptions) -> usize {
    inline_calls(module, func.index()..func.index() + 1, opts)
}

/// Inline the call sites of the functions in `funcs`, in order, each
/// function's in layout order. Inlining edits only the caller, from the
/// call's block on, so the scan resumes at that block. The exception is a
/// caller that shrank (it inlined an empty callee): calls to it earlier in
/// the range may have become inlinable, so the scan starts over.
fn inline_calls(module: &mut Module, funcs: Range<usize>, opts: InlineOptions) -> usize {
    let mut inlined = 0;
    let (mut func, mut from) = (funcs.start, 0);
    while func < funcs.end {
        let caller = FuncId::from_index(func);
        let Some((pos, block, call)) = next_call(module, caller, from, &opts) else {
            (func, from) = (func + 1, 0);
            continue;
        };
        let before = module.function(caller).inst_count();
        inline_call(module, caller, block, call);
        inlined += 1;
        if inlined >= opts.max_inlined_calls {
            break;
        }
        from = pos;
        if module.function(caller).inst_count() < before {
            (func, from) = (funcs.start, 0);
        }
    }
    inlined
}

fn call_is_inlinable(
    module: &Module,
    caller: FuncId,
    callee: FuncId,
    opts: &InlineOptions,
) -> bool {
    if caller == callee {
        return false;
    }
    let cf = module.function(callee);
    if cf.is_declaration || cf.layout.is_empty() {
        return false;
    }
    cf.inst_count() <= opts.max_callee_insts
}

/// The first inlinable call of `fid` in layout order, from layout position
/// `from` on: the position, the block and the call.
fn next_call(
    module: &Module,
    fid: FuncId,
    from: usize,
    opts: &InlineOptions,
) -> Option<(usize, BlockId, ValueId)> {
    let func = module.function(fid);
    for (pos, &b) in func.layout.iter().enumerate().skip(from) {
        for &v in &func.block(b).insts {
            if let Some(Inst::Call { callee, .. }) = func.as_inst(v) {
                if call_is_inlinable(module, fid, *callee, opts) {
                    return Some((pos, b, v));
                }
            }
        }
    }
    None
}

/// Inline one specific call site, scheduled in `call_block` of `caller`.
///
/// # Panics
/// Panics if `call_value` is not a call instruction scheduled in
/// `call_block`.
pub fn inline_call(
    module: &mut Module,
    caller_id: FuncId,
    call_block: BlockId,
    call_value: ValueId,
) {
    let (callee_id, args) = {
        let caller = module.function(caller_id);
        match caller.as_inst(call_value) {
            Some(Inst::Call { callee, args }) => (*callee, args.clone()),
            other => panic!("inline_call on non-call value: {other:?}"),
        }
    };
    let callee: Function = module.function(callee_id).clone();
    let caller = module.function_mut(caller_id);

    // --- split the calling block at the call site -------------------------
    let call_pos = caller
        .block(call_block)
        .insts
        .iter()
        .position(|&v| v == call_value)
        .expect("call not scheduled in its block");
    let after: Vec<ValueId> = caller.block(call_block).insts[call_pos + 1..].to_vec();
    let orig_term = caller.block(call_block).term.clone();
    let cont_block = caller.add_block(format!("inline.cont.{}", callee.name));
    caller.block_mut(cont_block).insts = after;
    caller.block_mut(cont_block).term = orig_term;
    caller.block_mut(call_block).insts.truncate(call_pos);
    caller.block_mut(call_block).term = None;

    // Phi nodes in the successors of the original terminator must now refer
    // to the continuation block.
    if let Some(term) = caller.block(cont_block).term.clone() {
        for succ in term.successors() {
            let insts = caller.block(succ).insts.clone();
            for v in insts {
                if let Some(Inst::Phi { incoming, .. }) = caller.as_inst_mut(v) {
                    for (p, _) in incoming.iter_mut() {
                        if *p == call_block {
                            *p = cont_block;
                        }
                    }
                }
            }
        }
    }

    // --- clone callee blocks and values into the caller -------------------
    // Callee value index -> caller value.
    let mut value_map: Vec<ValueId> = Vec::with_capacity(callee.values.len());
    let mut block_map: HashMap<BlockId, BlockId> = HashMap::new();

    for cb in &callee.layout {
        let name = format!("inline.{}.{}", callee.name, callee.block(*cb).name);
        let nb = caller.add_block(name);
        block_map.insert(*cb, nb);
    }

    // First pass: create caller values for every callee value. Constants
    // intern as `Function::add_constant` would (the first bit-equal caller
    // constant wins), through an index of the caller's constants built once
    // per call.
    let mut consts: HashMap<(u8, u64), ValueId> = HashMap::new();
    for (i, vd) in caller.values.iter().enumerate() {
        if let ValueKind::Const(c) = &vd.kind {
            consts.entry(c.bits()).or_insert(ValueId::from_index(i));
        }
    }
    for vd in &callee.values {
        let mapped = match &vd.kind {
            ValueKind::Param(p) => args[*p],
            ValueKind::Const(c) => *consts.entry(c.bits()).or_insert_with(|| {
                caller.add_value(ValueData {
                    kind: ValueKind::Const(*c),
                    ty: c.ty(),
                    name: None,
                })
            }),
            ValueKind::Inst(inst) => caller.add_value(ValueData {
                kind: ValueKind::Inst(inst.clone()),
                ty: vd.ty.clone(),
                name: vd.name.clone(),
            }),
        };
        value_map.push(mapped);
    }

    // Second pass: remap operands (and phi incoming blocks) of the cloned
    // instructions.
    for (vd, &mapped_id) in callee.values.iter().zip(&value_map) {
        if !matches!(vd.kind, ValueKind::Inst(_)) {
            continue;
        }
        if let Some(inst) = caller.as_inst_mut(mapped_id) {
            inst.map_operands(|v| value_map[v.index()]);
            if let Inst::Phi { incoming, .. } = inst {
                for (b, _) in incoming.iter_mut() {
                    *b = block_map[b];
                }
            }
        }
    }

    // Schedule the cloned instructions and translate terminators. Returns
    // become branches to the continuation block.
    let mut return_edges: Vec<(BlockId, Option<ValueId>)> = Vec::new();
    for cb in &callee.layout {
        let nb = block_map[cb];
        let src = callee.block(*cb);
        let insts: Vec<ValueId> = src.insts.iter().map(|v| value_map[v.index()]).collect();
        caller.block_mut(nb).insts = insts;
        let term = match src.term.clone().expect("callee block lacks terminator") {
            Terminator::Br(t) => Terminator::Br(block_map[&t]),
            Terminator::CondBr {
                cond,
                then_blk,
                else_blk,
            } => Terminator::CondBr {
                cond: value_map[cond.index()],
                then_blk: block_map[&then_blk],
                else_blk: block_map[&else_blk],
            },
            Terminator::Ret(val) => {
                let mapped = val.map(|v| value_map[v.index()]);
                return_edges.push((nb, mapped));
                Terminator::Br(cont_block)
            }
            Terminator::Unreachable => Terminator::Unreachable,
        };
        caller.block_mut(nb).term = Some(term);
    }

    // --- wire up entry and the return value --------------------------------
    let callee_entry = block_map[&callee.entry_block().expect("callee has no entry")];
    caller.block_mut(call_block).term = Some(Terminator::Br(callee_entry));

    if callee.ret_ty != Ty::Void {
        let ret_value = match return_edges.len() {
            0 => None,
            1 => return_edges[0].1,
            _ => {
                // Merge multiple returns through a phi at the head of the
                // continuation block.
                let incoming: Vec<(BlockId, ValueId)> = return_edges
                    .iter()
                    .filter_map(|(b, v)| v.map(|v| (*b, v)))
                    .collect();
                let phi = caller.add_value(ValueData {
                    kind: ValueKind::Inst(Inst::Phi {
                        ty: callee.ret_ty.clone(),
                        incoming,
                    }),
                    ty: callee.ret_ty.clone(),
                    name: Some(format!("inline.{}.ret", callee.name)),
                });
                caller.block_mut(cont_block).insts.insert(0, phi);
                Some(phi)
            }
        };
        if let Some(rv) = ret_value {
            caller.replace_all_uses(call_value, rv);
        } else {
            // Callee never returns normally; uses of the call are undefined.
            let undef = caller.add_constant(Constant::Undef);
            caller.replace_all_uses(call_value, undef);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_ir::{CmpPred, FunctionBuilder};

    /// Module with `logistic(x)` and a caller `apply_twice(x) = logistic(logistic(x))`.
    fn sample_module() -> (Module, FuncId, FuncId) {
        let mut m = Module::new("m");
        let logistic = m.declare_function("logistic", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(logistic);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let neg = b.fneg(x);
            let ex = b.exp(neg);
            let one = b.const_f64(1.0);
            let den = b.fadd(one, ex);
            let r = b.fdiv(one, den);
            b.ret(Some(r));
        }
        let caller = m.declare_function("apply_twice", vec![Ty::F64], Ty::F64);
        {
            let sigs: Vec<(Vec<Ty>, Ty)> = m
                .functions
                .iter()
                .map(|f| (f.params.clone(), f.ret_ty.clone()))
                .collect();
            let f = m.function_mut(caller);
            let mut b = FunctionBuilder::new(f).with_signatures(sigs);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let a = b.call(logistic, vec![x]);
            let r = b.call(logistic, vec![a]);
            b.ret(Some(r));
        }
        (m, logistic, caller)
    }

    fn has_calls(m: &Module, fid: FuncId) -> bool {
        let f = m.function(fid);
        f.block_order().any(|b| {
            f.block(b)
                .insts
                .iter()
                .any(|&v| matches!(f.as_inst(v), Some(Inst::Call { .. })))
        })
    }

    #[test]
    fn inlines_straightline_callee() {
        let (mut m, _logistic, caller) = sample_module();
        let n = run(&mut m);
        assert_eq!(n, 2);
        assert!(!has_calls(&m, caller));
        distill_ir::verify::verify_module(&m).unwrap();
        // After simplification the caller should be a single block again.
        crate::simplify_cfg::run(&mut m);
        assert_eq!(m.function(caller).layout.len(), 1);
    }

    #[test]
    fn inlined_code_computes_the_same_result_structurally() {
        let (mut m, logistic, caller) = sample_module();
        run(&mut m);
        crate::simplify_cfg::run(&mut m);
        // Twice the callee body: 2 * 4 instructions.
        assert_eq!(
            m.function(caller).inst_count(),
            2 * m.function(logistic).inst_count()
        );
    }

    #[test]
    fn inlines_callee_with_control_flow_and_multiple_returns() {
        let mut m = Module::new("m");
        let abs = m.declare_function("abs", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(abs);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            let neg = b.create_block("neg");
            let pos = b.create_block("pos");
            b.switch_to_block(e);
            let x = b.param(0);
            let zero = b.const_f64(0.0);
            let c = b.cmp(CmpPred::FLt, x, zero);
            b.cond_br(c, neg, pos);
            b.switch_to_block(neg);
            let nx = b.fneg(x);
            b.ret(Some(nx));
            b.switch_to_block(pos);
            b.ret(Some(x));
        }
        let caller = m.declare_function("dist", vec![Ty::F64, Ty::F64], Ty::F64);
        {
            let sigs: Vec<(Vec<Ty>, Ty)> = m
                .functions
                .iter()
                .map(|f| (f.params.clone(), f.ret_ty.clone()))
                .collect();
            let f = m.function_mut(caller);
            let mut b = FunctionBuilder::new(f).with_signatures(sigs);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let y = b.param(1);
            let d = b.fsub(x, y);
            let r = b.call(abs, vec![d]);
            b.ret(Some(r));
        }
        let n = run(&mut m);
        assert_eq!(n, 1);
        assert!(!has_calls(&m, caller));
        distill_ir::verify::verify_module(&m).unwrap();
        // The continuation block must have a phi merging the two returns.
        let f = m.function(caller);
        let has_ret_phi = f.block_order().any(|b| {
            f.block(b)
                .insts
                .iter()
                .any(|&v| matches!(f.as_inst(v), Some(Inst::Phi { .. })))
        });
        assert!(has_ret_phi);
    }

    #[test]
    fn respects_size_threshold() {
        let (mut m, _logistic, caller) = sample_module();
        let n = run_with_options(
            &mut m,
            InlineOptions {
                max_callee_insts: 1,
                max_inlined_calls: 100,
            },
        );
        assert_eq!(n, 0);
        assert!(has_calls(&m, caller));
    }

    #[test]
    fn a_callee_that_shrinks_becomes_inlinable_in_earlier_callers() {
        // `outer` calls `mid`, which is one instruction over the limit until
        // it inlines its call to the empty `noop`. The scan must then return
        // to `outer`, which comes first in the module.
        let mut m = Module::new("m");
        let outer = m.declare_function("outer", vec![Ty::F64], Ty::F64);
        let mid = m.declare_function("mid", vec![Ty::F64], Ty::F64);
        let noop = m.declare_function("noop", vec![], Ty::Void);
        let sigs: Vec<(Vec<Ty>, Ty)> = m
            .functions
            .iter()
            .map(|f| (f.params.clone(), f.ret_ty.clone()))
            .collect();
        {
            let mut b = FunctionBuilder::new(m.function_mut(noop));
            let e = b.create_block("entry");
            b.switch_to_block(e);
            b.ret(None);
        }
        {
            let mut b = FunctionBuilder::new(m.function_mut(mid)).with_signatures(sigs.clone());
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            b.call(noop, vec![]);
            let r = b.fadd(x, x);
            b.ret(Some(r));
        }
        {
            let mut b = FunctionBuilder::new(m.function_mut(outer)).with_signatures(sigs);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let r = b.call(mid, vec![x]);
            b.ret(Some(r));
        }
        let opts = InlineOptions {
            max_callee_insts: 1,
            max_inlined_calls: 100,
        };
        assert_eq!(run_with_options(&mut m, opts), 2);
        assert!(!has_calls(&m, outer));
        assert!(!has_calls(&m, mid));
        distill_ir::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn recursive_functions_are_not_inlined() {
        let mut m = Module::new("m");
        let fact = m.declare_function("fact", vec![Ty::I64], Ty::I64);
        {
            // A (non-terminating, but well-formed) self-call.
            let sigs = vec![(vec![Ty::I64], Ty::I64)];
            let f = m.function_mut(fact);
            let mut b = FunctionBuilder::new(f).with_signatures(sigs);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let n = b.param(0);
            let one = b.const_i64(1);
            let n1 = b.isub(n, one);
            let r = b.call(fact, vec![n1]);
            let out = b.imul(n, r);
            b.ret(Some(out));
        }
        assert_eq!(run(&mut m), 0);
    }
}
