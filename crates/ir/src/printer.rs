//! Textual printing of IR, in an LLVM-flavoured syntax.
//!
//! The printer exists for debugging, for the examples, and for the clone
//! detection reports in `distill-analysis`, which show the matching
//! instruction sequences of equivalent functions (Fig. 3 of the paper).

use crate::function::{Function, Terminator, ValueKind};
use crate::inst::{GepIndex, Inst};
use crate::module::Module;
use std::fmt::Write as _;

/// Render a whole module.
pub fn print_module(module: &Module) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "; module {}", module.name);
    for (id, g) in module.iter_globals() {
        let _ = writeln!(
            out,
            "@{} = {} global {} ; {} slots",
            g.name,
            if g.mutable { "mutable" } else { "constant" },
            g.ty,
            g.ty.slot_count()
        );
        let _ = id;
    }
    if !module.globals.is_empty() {
        out.push('\n');
    }
    for (_, f) in module.iter_functions() {
        out.push_str(&print_function(module, f));
        out.push('\n');
    }
    out
}

/// Render a single function.
pub fn print_function(module: &Module, func: &Function) -> String {
    let mut out = String::new();
    let params: Vec<String> = func
        .params
        .iter()
        .enumerate()
        .map(|(i, t)| format!("{t} %{i}"))
        .collect();
    let _ = writeln!(
        out,
        "define {} @{}({}) {{",
        func.ret_ty,
        func.name,
        params.join(", ")
    );
    for b in func.block_order() {
        let blk = func.block(b);
        let _ = writeln!(out, "{}:    ; {}", b, blk.name);
        for &v in &blk.insts {
            let _ = writeln!(out, "  {}", print_value_def(module, func, v));
        }
        match &blk.term {
            Some(t) => {
                let _ = writeln!(out, "  {}", print_terminator(func, t));
            }
            None => {
                let _ = writeln!(out, "  <missing terminator>");
            }
        }
    }
    out.push_str("}\n");
    out
}

fn operand(func: &Function, v: crate::ValueId) -> String {
    match &func.value(v).kind {
        ValueKind::Const(c) => format!("{c}"),
        _ => format!("{v}"),
    }
}

/// Render the defining line of an instruction value.
pub fn print_value_def(module: &Module, func: &Function, v: crate::ValueId) -> String {
    let data = func.value(v);
    let inst = match &data.kind {
        ValueKind::Inst(i) => i,
        ValueKind::Param(i) => return format!("{v} = param {i}"),
        ValueKind::Const(c) => return format!("{v} = const {c}"),
    };
    let rhs = print_inst(module, func, inst);
    if data.ty == crate::Ty::Void {
        rhs
    } else {
        format!("{v} = {rhs}")
    }
}

/// Render an instruction (without its result binding).
pub fn print_inst(module: &Module, func: &Function, inst: &Inst) -> String {
    let op = |v: &crate::ValueId| operand(func, *v);
    match inst {
        Inst::Bin { op: o, lhs, rhs } => {
            format!(
                "{} {} {}, {}",
                o.mnemonic(),
                func.ty(*lhs),
                op(lhs),
                op(rhs)
            )
        }
        Inst::Un { op: o, val } => format!("{} {} {}", o.mnemonic(), func.ty(*val), op(val)),
        Inst::Cmp { pred, lhs, rhs } => {
            format!(
                "{} {} {}, {}",
                pred.mnemonic(),
                func.ty(*lhs),
                op(lhs),
                op(rhs)
            )
        }
        Inst::Select {
            cond,
            then_val,
            else_val,
        } => format!("select {}, {}, {}", op(cond), op(then_val), op(else_val)),
        Inst::Call { callee, args } => {
            let name = module
                .functions
                .get(callee.index())
                .map(|f| f.name.clone())
                .unwrap_or_else(|| callee.to_string());
            let args: Vec<String> = args.iter().map(&op).collect();
            format!("call @{}({})", name, args.join(", "))
        }
        Inst::IntrinsicCall { kind, args } => {
            let args: Vec<String> = args.iter().map(&op).collect();
            format!("call @{}({})", kind.name(), args.join(", "))
        }
        Inst::Alloca { ty } => format!("alloca {ty}"),
        Inst::Load { ptr } => format!("load {}, {}", func.ty(*ptr).pointee(), op(ptr)),
        Inst::Store { ptr, value } => {
            format!("store {} {}, {}", func.ty(*value), op(value), op(ptr))
        }
        Inst::Gep { base, indices } => {
            let idx: Vec<String> = indices
                .iter()
                .map(|i| match i {
                    GepIndex::Const(c) => c.to_string(),
                    GepIndex::Dyn(v) => op(v),
                })
                .collect();
            format!("getelementptr {}, [{}]", op(base), idx.join(", "))
        }
        Inst::Phi { ty, incoming } => {
            let edges: Vec<String> = incoming
                .iter()
                .map(|(b, v)| format!("[{}, {}]", op(v), b))
                .collect();
            format!("phi {ty} {}", edges.join(", "))
        }
        Inst::Cast { kind, val, to } => {
            format!("{} {} {} to {to}", kind.mnemonic(), func.ty(*val), op(val))
        }
        Inst::GlobalAddr { global } => {
            let name = module
                .globals
                .get(global.index())
                .map(|g| g.name.clone())
                .unwrap_or_else(|| global.to_string());
            format!("globaladdr @{name}")
        }
    }
}

fn print_terminator(func: &Function, term: &Terminator) -> String {
    match term {
        Terminator::Br(b) => format!("br {b}"),
        Terminator::CondBr {
            cond,
            then_blk,
            else_blk,
        } => format!("br {} , {}, {}", operand(func, *cond), then_blk, else_blk),
        Terminator::Ret(Some(v)) => format!("ret {} {}", func.ty(*v), operand(func, *v)),
        Terminator::Ret(None) => "ret void".to_string(),
        Terminator::Unreachable => "unreachable".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::CmpPred;
    use crate::types::Ty;

    #[test]
    fn printed_module_mentions_everything() {
        let mut m = Module::new("demo");
        let g = m.add_zeroed_global("params", Ty::Struct(vec![Ty::F64, Ty::F64]), false);
        let tys: Vec<Ty> = m.globals.iter().map(|g| g.ty.clone()).collect();
        let fid = m.declare_function("logistic", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f).with_global_types(tys);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let gaddr = b.global_addr(g);
            let gain_p = b.field_addr(gaddr, 0);
            let gain = b.load(gain_p);
            let gx = b.fmul(gain, x);
            let neg = b.fneg(gx);
            let e1 = b.exp(neg);
            let one = b.const_f64(1.0);
            let denom = b.fadd(one, e1);
            let r = b.fdiv(one, denom);
            let zero = b.const_f64(0.0);
            let _cmp = b.cmp(CmpPred::FGt, r, zero);
            b.ret(Some(r));
        }
        let text = print_module(&m);
        assert!(text.contains("@params"));
        assert!(text.contains("define f64 @logistic"));
        assert!(text.contains("llvm.exp.f64"));
        assert!(text.contains("fcmp ogt"));
        assert!(text.contains("ret f64"));
    }

    #[test]
    fn terminators_are_printed() {
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![Ty::Bool], Ty::Void);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            let t = b.create_block("t");
            let u = b.create_block("u");
            b.switch_to_block(e);
            let c = b.param(0);
            b.cond_br(c, t, u);
            b.switch_to_block(t);
            b.ret(None);
            b.switch_to_block(u);
            b.unreachable();
        }
        let text = print_function(&m, m.function(fid));
        assert!(text.contains("br %0 , bb1, bb2"));
        assert!(text.contains("ret void"));
        assert!(text.contains("unreachable"));
    }
}
