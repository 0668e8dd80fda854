//! `distill-ir` — the SSA intermediate representation used by the Distill
//! reproduction.
//!
//! The paper lowers cognitive models to LLVM IR and then reuses LLVM's
//! pass and analysis infrastructure. This crate provides the equivalent
//! substrate implemented from scratch: a small, typed, SSA-form IR with
//!
//! * scalar and aggregate [types](Ty) (floats, integers, booleans, pointers,
//!   arrays and structs),
//! * [instructions](Inst) covering arithmetic, comparisons, memory access
//!   (`alloca`/`load`/`store`/`gep`), calls, a family of math and PRNG
//!   [intrinsics](Intrinsic), phi nodes and casts,
//! * [functions](Function) made of basic [blocks](BlockData) with explicit
//!   [terminators](Terminator),
//! * a [module](Module) container with global variables,
//! * an ergonomic [builder](builder::FunctionBuilder),
//! * CFG utilities (predecessors/successors, dominator tree, natural loop
//!   detection) in [`mod@cfg`],
//! * a structural [verifier](verify::verify_function) and a textual
//!   [printer].
//!
//! Memory is modelled in *slots* rather than bytes: every scalar (including
//! pointers) occupies exactly one slot, an array of `n` elements occupies
//! `n × slots(elem)` and a struct occupies the sum of its field sizes. The
//! execution engine in `distill-exec` and the GEP lowering here agree on this
//! layout, which keeps address arithmetic simple while still exercising the
//! same optimization opportunities (scalar replacement, constant offsets,
//! loop-invariant address computation) that the paper relies on.
//!
//! # Example
//!
//! ```
//! use distill_ir::{Module, Ty, builder::FunctionBuilder};
//!
//! let mut module = Module::new("example");
//! let fid = module.declare_function("axpy", vec![Ty::F64, Ty::F64, Ty::F64], Ty::F64);
//! {
//!     let func = module.function_mut(fid);
//!     let mut b = FunctionBuilder::new(func);
//!     let entry = b.create_block("entry");
//!     b.switch_to_block(entry);
//!     let a = b.param(0);
//!     let x = b.param(1);
//!     let y = b.param(2);
//!     let ax = b.fmul(a, x);
//!     let r = b.fadd(ax, y);
//!     b.ret(Some(r));
//! }
//! distill_ir::verify::verify_module(&module).unwrap();
//! ```

pub mod builder;
pub mod cfg;
pub mod constant;
pub mod function;
pub mod inst;
pub mod module;
pub mod printer;
pub mod types;
pub mod verify;

pub use builder::FunctionBuilder;
pub use constant::Constant;
pub use function::{
    BlockData, BlockId, ConstPool, Function, Replacements, Terminator, ValueData, ValueId,
    ValueKind,
};
pub use inst::{BinOp, CastKind, CmpPred, GepIndex, Inst, Intrinsic, UnOp};
pub use module::{FuncId, Global, GlobalId, Module};
pub use types::Ty;
