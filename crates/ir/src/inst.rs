//! Instruction set of the Distill IR.

use crate::function::{BlockId, ValueId};
use crate::module::FuncId;
use crate::types::Ty;
use std::fmt;

/// Binary arithmetic and bitwise operations.
///
/// Floating point operations are prefixed `F`; the remaining operations are
/// 64-bit integer operations. Division by zero on the integer ops is a
/// runtime error in the execution engine, mirroring undefined behaviour in
/// LLVM without miscompiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Floating point addition.
    FAdd,
    /// Floating point subtraction.
    FSub,
    /// Floating point multiplication.
    FMul,
    /// Floating point division.
    FDiv,
    /// Floating point remainder (Rust `%` semantics, i.e. `fmod`).
    FRem,
    /// Integer addition (wrapping).
    Add,
    /// Integer subtraction (wrapping).
    Sub,
    /// Integer multiplication (wrapping).
    Mul,
    /// Integer signed division.
    SDiv,
    /// Integer signed remainder.
    SRem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left.
    Shl,
    /// Logical (unsigned) shift right.
    LShr,
    /// Arithmetic (signed) shift right.
    AShr,
}

impl BinOp {
    /// Whether the operation is a floating point operation.
    pub fn is_float(&self) -> bool {
        matches!(
            self,
            BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv | BinOp::FRem
        )
    }

    /// Whether the operation is commutative (used by CSE canonicalization).
    pub fn is_commutative(&self) -> bool {
        matches!(
            self,
            BinOp::FAdd
                | BinOp::FMul
                | BinOp::Add
                | BinOp::Mul
                | BinOp::And
                | BinOp::Or
                | BinOp::Xor
        )
    }

    /// The mnemonic used by the printer.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            BinOp::FAdd => "fadd",
            BinOp::FSub => "fsub",
            BinOp::FMul => "fmul",
            BinOp::FDiv => "fdiv",
            BinOp::FRem => "frem",
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::SDiv => "sdiv",
            BinOp::SRem => "srem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::LShr => "lshr",
            BinOp::AShr => "ashr",
        }
    }
}

/// Unary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Floating point negation.
    FNeg,
    /// Boolean / bitwise negation.
    Not,
}

impl UnOp {
    /// The mnemonic used by the printer.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            UnOp::FNeg => "fneg",
            UnOp::Not => "not",
        }
    }
}

/// Comparison predicates.
///
/// Float comparisons follow LLVM's *ordered* semantics: they are `false`
/// whenever either operand is NaN (except `FNe`, which is `true` on NaN
/// operands, matching Rust's `!=`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpPred {
    /// Float equal (ordered).
    FEq,
    /// Float not-equal.
    FNe,
    /// Float less-than (ordered).
    FLt,
    /// Float less-or-equal (ordered).
    FLe,
    /// Float greater-than (ordered).
    FGt,
    /// Float greater-or-equal (ordered).
    FGe,
    /// Integer equal.
    IEq,
    /// Integer not-equal.
    INe,
    /// Integer signed less-than.
    ILt,
    /// Integer signed less-or-equal.
    ILe,
    /// Integer signed greater-than.
    IGt,
    /// Integer signed greater-or-equal.
    IGe,
}

impl CmpPred {
    /// Whether the predicate compares floats.
    pub fn is_float(&self) -> bool {
        matches!(
            self,
            CmpPred::FEq | CmpPred::FNe | CmpPred::FLt | CmpPred::FLe | CmpPred::FGt | CmpPred::FGe
        )
    }

    /// The predicate with its operands swapped (`a < b` ⇔ `b > a`).
    pub fn swapped(&self) -> CmpPred {
        match self {
            CmpPred::FEq => CmpPred::FEq,
            CmpPred::FNe => CmpPred::FNe,
            CmpPred::FLt => CmpPred::FGt,
            CmpPred::FLe => CmpPred::FGe,
            CmpPred::FGt => CmpPred::FLt,
            CmpPred::FGe => CmpPred::FLe,
            CmpPred::IEq => CmpPred::IEq,
            CmpPred::INe => CmpPred::INe,
            CmpPred::ILt => CmpPred::IGt,
            CmpPred::ILe => CmpPred::IGe,
            CmpPred::IGt => CmpPred::ILt,
            CmpPred::IGe => CmpPred::ILe,
        }
    }

    /// The mnemonic used by the printer.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            CmpPred::FEq => "fcmp oeq",
            CmpPred::FNe => "fcmp une",
            CmpPred::FLt => "fcmp olt",
            CmpPred::FLe => "fcmp ole",
            CmpPred::FGt => "fcmp ogt",
            CmpPred::FGe => "fcmp oge",
            CmpPred::IEq => "icmp eq",
            CmpPred::INe => "icmp ne",
            CmpPred::ILt => "icmp slt",
            CmpPred::ILe => "icmp sle",
            CmpPred::IGt => "icmp sgt",
            CmpPred::IGe => "icmp sge",
        }
    }
}

/// Cast operations between scalar types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastKind {
    /// Signed integer → floating point.
    SiToFp,
    /// Floating point → signed integer (truncating toward zero).
    FpToSi,
    /// `f64` → `f32`.
    FpTrunc,
    /// `f32` → `f64`.
    FpExt,
    /// Boolean → integer zero extension.
    ZExtBool,
    /// Integer → boolean (non-zero test is *not* implied; value must be 0/1).
    TruncBool,
}

impl CastKind {
    /// The mnemonic used by the printer.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            CastKind::SiToFp => "sitofp",
            CastKind::FpToSi => "fptosi",
            CastKind::FpTrunc => "fptrunc",
            CastKind::FpExt => "fpext",
            CastKind::ZExtBool => "zext",
            CastKind::TruncBool => "trunc",
        }
    }
}

/// Math, reduction and PRNG intrinsics.
///
/// The PRNG intrinsics take a pointer to an in-memory generator state (an
/// `[i64 x 4]` xoshiro256++ state plus a cached-normal slot); the paper keeps
/// PRNG state as an explicit read-write parameter so that every grid-search
/// evaluation can replicate and restore it (§3.6), and the intrinsic form
/// preserves that structure in the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// `exp(x)`.
    Exp,
    /// `ln(x)`.
    Log,
    /// `sqrt(x)`.
    Sqrt,
    /// `sin(x)`.
    Sin,
    /// `cos(x)`.
    Cos,
    /// `tanh(x)`.
    Tanh,
    /// `pow(x, y)`.
    Pow,
    /// `|x|`.
    FAbs,
    /// `floor(x)`.
    Floor,
    /// `ceil(x)`.
    Ceil,
    /// `min(x, y)` (propagates the non-NaN operand like `llvm.minnum`).
    FMin,
    /// `max(x, y)`.
    FMax,
    /// Uniform sample in `[0, 1)` drawn from the PRNG state pointed to by the
    /// single pointer operand.
    RandUniform,
    /// Standard normal sample drawn from the PRNG state pointed to by the
    /// single pointer operand.
    RandNormal,
}

impl Intrinsic {
    /// Number of operands the intrinsic expects.
    pub fn arity(&self) -> usize {
        match self {
            Intrinsic::Pow | Intrinsic::FMin | Intrinsic::FMax => 2,
            _ => 1,
        }
    }

    /// Whether the intrinsic reads and writes PRNG state (and therefore has a
    /// side effect that DCE/CSE/LICM must not remove, duplicate or hoist).
    pub fn has_side_effects(&self) -> bool {
        matches!(self, Intrinsic::RandUniform | Intrinsic::RandNormal)
    }

    /// The result type of the intrinsic given its operand type.
    pub fn result_ty(&self) -> Ty {
        Ty::F64
    }

    /// The name used by the printer.
    pub fn name(&self) -> &'static str {
        match self {
            Intrinsic::Exp => "llvm.exp.f64",
            Intrinsic::Log => "llvm.log.f64",
            Intrinsic::Sqrt => "llvm.sqrt.f64",
            Intrinsic::Sin => "llvm.sin.f64",
            Intrinsic::Cos => "llvm.cos.f64",
            Intrinsic::Tanh => "llvm.tanh.f64",
            Intrinsic::Pow => "llvm.pow.f64",
            Intrinsic::FAbs => "llvm.fabs.f64",
            Intrinsic::Floor => "llvm.floor.f64",
            Intrinsic::Ceil => "llvm.ceil.f64",
            Intrinsic::FMin => "llvm.minnum.f64",
            Intrinsic::FMax => "llvm.maxnum.f64",
            Intrinsic::RandUniform => "distill.rand.uniform",
            Intrinsic::RandNormal => "distill.rand.normal",
        }
    }

    /// All intrinsics, for exhaustive testing.
    pub fn all() -> &'static [Intrinsic] {
        &[
            Intrinsic::Exp,
            Intrinsic::Log,
            Intrinsic::Sqrt,
            Intrinsic::Sin,
            Intrinsic::Cos,
            Intrinsic::Tanh,
            Intrinsic::Pow,
            Intrinsic::FAbs,
            Intrinsic::Floor,
            Intrinsic::Ceil,
            Intrinsic::FMin,
            Intrinsic::FMax,
            Intrinsic::RandUniform,
            Intrinsic::RandNormal,
        ]
    }
}

/// A GEP (address computation) index: either a compile-time field/element
/// index or a dynamically computed element index.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GepIndex {
    /// A constant index, valid for both struct fields and array elements.
    Const(usize),
    /// A dynamic `i64` index, valid only for array elements.
    Dyn(ValueId),
}

/// A non-terminator instruction.
///
/// Instructions live in the value arena of their [`Function`]; the
/// instruction's result *is* the value id under which it is stored.
///
/// [`Function`]: crate::function::Function
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// Binary arithmetic: `op lhs, rhs`.
    Bin {
        /// The operation.
        op: BinOp,
        /// Left operand.
        lhs: ValueId,
        /// Right operand.
        rhs: ValueId,
    },
    /// Unary arithmetic: `op val`.
    Un {
        /// The operation.
        op: UnOp,
        /// Operand.
        val: ValueId,
    },
    /// Comparison producing a `Bool`.
    Cmp {
        /// The predicate.
        pred: CmpPred,
        /// Left operand.
        lhs: ValueId,
        /// Right operand.
        rhs: ValueId,
    },
    /// `cond ? then_val : else_val` without control flow.
    Select {
        /// Boolean condition.
        cond: ValueId,
        /// Value when the condition is true.
        then_val: ValueId,
        /// Value when the condition is false.
        else_val: ValueId,
    },
    /// Direct call to another function in the same module.
    Call {
        /// Callee.
        callee: FuncId,
        /// Argument values, one per callee parameter.
        args: Vec<ValueId>,
    },
    /// Math / PRNG intrinsic call.
    IntrinsicCall {
        /// Which intrinsic.
        kind: Intrinsic,
        /// Operands (`arity()` of them; PRNG intrinsics take one pointer).
        args: Vec<ValueId>,
    },
    /// Stack allocation of one value of `ty` in the current frame; yields a
    /// pointer to it.
    Alloca {
        /// Allocated type.
        ty: Ty,
    },
    /// Load a scalar from the pointer operand.
    Load {
        /// Pointer to load from.
        ptr: ValueId,
    },
    /// Store a scalar to the pointer operand. Produces no value.
    Store {
        /// Pointer to store to.
        ptr: ValueId,
        /// Value to store.
        value: ValueId,
    },
    /// Address computation within an aggregate.
    ///
    /// Starting from the pointee type of `base`, each index either selects a
    /// struct field (constant index) or an array element (constant or
    /// dynamic index). The result is a pointer to the selected sub-object.
    Gep {
        /// Base pointer.
        base: ValueId,
        /// Index path.
        indices: Vec<GepIndex>,
    },
    /// SSA phi node merging values from predecessor blocks.
    Phi {
        /// The value's type.
        ty: Ty,
        /// `(predecessor block, incoming value)` pairs.
        incoming: Vec<(BlockId, ValueId)>,
    },
    /// Scalar cast.
    Cast {
        /// Cast kind.
        kind: CastKind,
        /// Operand.
        val: ValueId,
        /// Destination type.
        to: Ty,
    },
    /// The address of a module global; yields a pointer to the global's type.
    GlobalAddr {
        /// The referenced global.
        global: crate::module::GlobalId,
    },
}

impl Inst {
    /// All value operands of the instruction, in a fixed order.
    pub fn operands(&self) -> Vec<ValueId> {
        match self {
            Inst::Bin { lhs, rhs, .. } => vec![*lhs, *rhs],
            Inst::Un { val, .. } => vec![*val],
            Inst::Cmp { lhs, rhs, .. } => vec![*lhs, *rhs],
            Inst::Select {
                cond,
                then_val,
                else_val,
            } => vec![*cond, *then_val, *else_val],
            Inst::Call { args, .. } => args.clone(),
            Inst::IntrinsicCall { args, .. } => args.clone(),
            Inst::Alloca { .. } => vec![],
            Inst::Load { ptr } => vec![*ptr],
            Inst::Store { ptr, value } => vec![*ptr, *value],
            Inst::Gep { base, indices } => {
                let mut ops = vec![*base];
                for idx in indices {
                    if let GepIndex::Dyn(v) = idx {
                        ops.push(*v);
                    }
                }
                ops
            }
            Inst::Phi { incoming, .. } => incoming.iter().map(|(_, v)| *v).collect(),
            Inst::Cast { val, .. } => vec![*val],
            Inst::GlobalAddr { .. } => vec![],
        }
    }

    /// Rewrite every operand through `f` (used by inlining and by passes that
    /// replace values).
    // Inlined into `Function::replace_all_uses`, which calls it once per
    // arena value and is the hottest loop of a cold build. Out of line, its
    // speed swung by a third with code placement alone (benchmark
    // `cold_build`, 49 vs 78 trials/s for two layouts of identical code).
    #[inline]
    pub fn map_operands(&mut self, mut f: impl FnMut(ValueId) -> ValueId) {
        match self {
            Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            Inst::Un { val, .. } | Inst::Cast { val, .. } => *val = f(*val),
            Inst::Select {
                cond,
                then_val,
                else_val,
            } => {
                *cond = f(*cond);
                *then_val = f(*then_val);
                *else_val = f(*else_val);
            }
            Inst::Call { args, .. } | Inst::IntrinsicCall { args, .. } => {
                for a in args {
                    *a = f(*a);
                }
            }
            Inst::Alloca { .. } => {}
            Inst::Load { ptr } => *ptr = f(*ptr),
            Inst::Store { ptr, value } => {
                *ptr = f(*ptr);
                *value = f(*value);
            }
            Inst::Gep { base, indices } => {
                *base = f(*base);
                for idx in indices {
                    if let GepIndex::Dyn(v) = idx {
                        *v = f(*v);
                    }
                }
            }
            Inst::Phi { incoming, .. } => {
                for (_, v) in incoming {
                    *v = f(*v);
                }
            }
            Inst::GlobalAddr { .. } => {}
        }
    }

    /// Whether the instruction has side effects or reads/writes memory and
    /// therefore must not be removed even if its result is unused.
    pub fn has_side_effects(&self) -> bool {
        match self {
            Inst::Store { .. } | Inst::Call { .. } => true,
            Inst::IntrinsicCall { kind, .. } => kind.has_side_effects(),
            _ => false,
        }
    }

    /// Whether the instruction reads from memory (loads are pure but cannot
    /// be reordered across stores by CSE/LICM without an alias check).
    pub fn reads_memory(&self) -> bool {
        matches!(self, Inst::Load { .. } | Inst::Call { .. })
            || matches!(self, Inst::IntrinsicCall { kind, .. } if kind.has_side_effects())
    }

    /// Whether the instruction writes memory.
    pub fn writes_memory(&self) -> bool {
        matches!(self, Inst::Store { .. } | Inst::Call { .. })
            || matches!(self, Inst::IntrinsicCall { kind, .. } if kind.has_side_effects())
    }

    /// Whether this is a phi node.
    pub fn is_phi(&self) -> bool {
        matches!(self, Inst::Phi { .. })
    }
}

impl fmt::Display for GepIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GepIndex::Const(i) => write!(f, "{i}"),
            GepIndex::Dyn(v) => write!(f, "%{}", v.index()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commutativity() {
        assert!(BinOp::FAdd.is_commutative());
        assert!(BinOp::Mul.is_commutative());
        assert!(!BinOp::FSub.is_commutative());
        assert!(!BinOp::SDiv.is_commutative());
    }

    #[test]
    fn float_classification() {
        assert!(BinOp::FMul.is_float());
        assert!(!BinOp::Add.is_float());
        assert!(CmpPred::FLt.is_float());
        assert!(!CmpPred::IGe.is_float());
    }

    #[test]
    fn swapped_predicates_round_trip() {
        for pred in [
            CmpPred::FEq,
            CmpPred::FNe,
            CmpPred::FLt,
            CmpPred::FLe,
            CmpPred::FGt,
            CmpPred::FGe,
            CmpPred::IEq,
            CmpPred::INe,
            CmpPred::ILt,
            CmpPred::ILe,
            CmpPred::IGt,
            CmpPred::IGe,
        ] {
            assert_eq!(pred.swapped().swapped(), pred);
        }
    }

    #[test]
    fn intrinsic_arities() {
        assert_eq!(Intrinsic::Exp.arity(), 1);
        assert_eq!(Intrinsic::Pow.arity(), 2);
        assert_eq!(Intrinsic::FMax.arity(), 2);
        assert!(Intrinsic::RandNormal.has_side_effects());
        assert!(!Intrinsic::Sqrt.has_side_effects());
    }

    #[test]
    fn operand_lists() {
        let v = |i: u32| ValueId::from_index(i as usize);
        let add = Inst::Bin {
            op: BinOp::FAdd,
            lhs: v(0),
            rhs: v(1),
        };
        assert_eq!(add.operands(), vec![v(0), v(1)]);
        let gep = Inst::Gep {
            base: v(2),
            indices: vec![GepIndex::Const(1), GepIndex::Dyn(v(3))],
        };
        assert_eq!(gep.operands(), vec![v(2), v(3)]);
        let store = Inst::Store {
            ptr: v(4),
            value: v(5),
        };
        assert!(store.has_side_effects());
        assert!(!add.has_side_effects());
    }

    #[test]
    fn map_operands_rewrites() {
        let v = |i: u32| ValueId::from_index(i as usize);
        let mut sel = Inst::Select {
            cond: v(0),
            then_val: v(1),
            else_val: v(2),
        };
        sel.map_operands(|x| ValueId::from_index(x.index() + 10));
        assert_eq!(sel.operands(), vec![v(10), v(11), v(12)]);
    }
}
