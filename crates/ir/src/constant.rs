//! Compile-time constants.

use crate::types::Ty;
use std::fmt;

/// A scalar compile-time constant.
///
/// Constants are interned per function by the [`FunctionBuilder`]
/// (structurally identical constants share a value id), and also appear as
/// initializers of module [globals](crate::Global), where a flat slot-ordered
/// vector of `Constant` initializes an aggregate.
///
/// [`FunctionBuilder`]: crate::builder::FunctionBuilder
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Constant {
    /// A 64-bit float constant.
    F64(f64),
    /// A 32-bit float constant.
    F32(f32),
    /// A 64-bit signed integer constant.
    I64(i64),
    /// A boolean constant.
    Bool(bool),
    /// An undefined value of the given... no type payload: undef is typed by
    /// its use context. Reading `Undef` in the execution engine is an error,
    /// which catches uninitialized-memory bugs in lowering.
    Undef,
}

impl Constant {
    /// The IR type of the constant. `Undef` reports `Void` since its type is
    /// contextual.
    pub fn ty(&self) -> Ty {
        match self {
            Constant::F64(_) => Ty::F64,
            Constant::F32(_) => Ty::F32,
            Constant::I64(_) => Ty::I64,
            Constant::Bool(_) => Ty::Bool,
            Constant::Undef => Ty::Void,
        }
    }

    /// Interpret the constant as an `f64` if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Constant::F64(v) => Some(*v),
            Constant::F32(v) => Some(*v as f64),
            Constant::I64(v) => Some(*v as f64),
            Constant::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Constant::Undef => None,
        }
    }

    /// Interpret the constant as an `i64` if it is an integer or boolean.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Constant::I64(v) => Some(*v),
            Constant::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Interpret the constant as a boolean if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Constant::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The constant's kind tag and bit pattern. Two constants have equal
    /// bits exactly when they are [`bit_eq`](Constant::bit_eq), and the
    /// pair hashes, so a pass can index a function's constants by it.
    pub fn bits(&self) -> (u8, u64) {
        match *self {
            Constant::F64(v) => (0, v.to_bits()),
            Constant::F32(v) => (1, u64::from(v.to_bits())),
            Constant::I64(v) => (2, v as u64),
            Constant::Bool(b) => (3, u64::from(b)),
            Constant::Undef => (4, 0),
        }
    }

    /// Structural equality suitable for interning: compares float constants
    /// bit-for-bit so that `0.0` and `-0.0` (and different NaN payloads)
    /// remain distinct constants.
    pub fn bit_eq(&self, other: &Constant) -> bool {
        self.bits() == other.bits()
    }
}

impl fmt::Display for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constant::F64(v) => write!(f, "{v:?}"),
            Constant::F32(v) => write!(f, "{v:?}f"),
            Constant::I64(v) => write!(f, "{v}"),
            Constant::Bool(b) => write!(f, "{b}"),
            Constant::Undef => write!(f, "undef"),
        }
    }
}

impl From<f64> for Constant {
    fn from(v: f64) -> Self {
        Constant::F64(v)
    }
}

impl From<i64> for Constant {
    fn from(v: i64) -> Self {
        Constant::I64(v)
    }
}

impl From<bool> for Constant {
    fn from(v: bool) -> Self {
        Constant::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn types_of_constants() {
        assert_eq!(Constant::F64(1.0).ty(), Ty::F64);
        assert_eq!(Constant::I64(3).ty(), Ty::I64);
        assert_eq!(Constant::Bool(true).ty(), Ty::Bool);
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Constant::F64(2.5).as_f64(), Some(2.5));
        assert_eq!(Constant::I64(7).as_f64(), Some(7.0));
        assert_eq!(Constant::Bool(true).as_i64(), Some(1));
        assert_eq!(Constant::Undef.as_f64(), None);
    }

    #[test]
    fn bit_equality_distinguishes_signed_zero() {
        assert!(Constant::F64(0.0).bit_eq(&Constant::F64(0.0)));
        assert!(!Constant::F64(0.0).bit_eq(&Constant::F64(-0.0)));
        assert!(!Constant::F64(1.0).bit_eq(&Constant::I64(1)));
    }

    #[test]
    fn conversions() {
        assert_eq!(Constant::from(1.5), Constant::F64(1.5));
        assert_eq!(Constant::from(4i64), Constant::I64(4));
        assert_eq!(Constant::from(false), Constant::Bool(false));
    }
}
