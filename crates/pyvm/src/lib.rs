//! `distill-pyvm` — the dynamic-language substrate the paper's baselines run
//! on.
//!
//! The paper's baseline is PsyNeuLink executing on CPython (plus the Pyston
//! and PyPy JITs). We cannot ship CPython, so this crate reproduces the
//! *performance-relevant structure* of that execution model:
//!
//! * [`value::DynValue`] — dynamically typed, heap-boxed values: floats,
//!   lists of boxed values, and string-keyed dictionaries with linear-probe
//!   lookup. Node inputs, outputs and parameters all travel through this
//!   representation in baseline mode, exactly the overhead Distill's
//!   dynamic-to-static conversion (§3.3) removes.
//! * [`expr::Expr`] — the computation language node functions are written
//!   in. It plays the role of the Python bytecode of a node's `execute`
//!   method: the baseline interpreter walks it dynamically, while
//!   `distill-codegen` lowers the same AST to IR.
//! * [`interp`] — a tree-walking interpreter over `DynValue` environments
//!   with four execution modes mirroring the paper's §5 environments:
//!   CPython, Pyston, PyPy and PyPy-nojit. The JIT modes are *simulations*
//!   (see [`ExecMode`]): they reproduce the qualitative behaviour the paper
//!   reports — Pyston's modest win from method-level caching, PyPy's
//!   slowdown and out-of-memory failures from trace bookkeeping that grows
//!   with model size, and both JITs' inability to run models containing
//!   PyTorch components.

pub mod expr;
pub mod interp;
pub mod rng;
pub mod value;

pub use expr::{CmpOp, Expr, MathFn, NumBinOp};
pub use interp::{EvalContext, ExecMode, Interpreter, PyVmError};
pub use rng::SplitMix64;
pub use value::DynValue;
