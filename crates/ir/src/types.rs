//! Type system for the Distill IR.
//!
//! The type system is deliberately small: the cognitive models the paper
//! targets only ever use floating point scalars, integers (for counters,
//! enum keys and PRNG state), booleans, and statically-shaped aggregates of
//! those. Memory layout is measured in *slots*: every scalar occupies one
//! slot, aggregates are laid out contiguously.

use std::fmt;

/// An IR type.
///
/// Aggregate types own their element types, so `Ty` is a tree. Structs are
/// structural (no names): two structs with the same field types are the same
/// type, which mirrors how Distill's dynamic-to-static conversion produces
/// anonymous parameter and output structures.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Ty {
    /// 64-bit IEEE-754 floating point. The default numeric type of models.
    F64,
    /// 32-bit IEEE-754 floating point, used by the fp32 GPU kernels (Fig. 6).
    F32,
    /// 64-bit signed integer: loop counters, enum keys, PRNG words.
    I64,
    /// 1-bit boolean produced by comparisons and consumed by branches.
    Bool,
    /// The type of instructions that produce no value (e.g. `store`).
    Void,
    /// A pointer to a value of the pointee type.
    Ptr(Box<Ty>),
    /// A fixed-length array of homogeneous elements.
    Array(Box<Ty>, usize),
    /// A structural record with the given field types.
    Struct(Vec<Ty>),
}

impl Ty {
    /// Construct a pointer type to `pointee`.
    pub fn ptr(pointee: Ty) -> Ty {
        Ty::Ptr(Box::new(pointee))
    }

    /// Construct an array type of `len` elements of type `elem`.
    pub fn array(elem: Ty, len: usize) -> Ty {
        Ty::Array(Box::new(elem), len)
    }

    /// Returns `true` for `F64` and `F32`.
    pub fn is_float(&self) -> bool {
        matches!(self, Ty::F64 | Ty::F32)
    }

    /// Returns `true` for `I64`.
    pub fn is_int(&self) -> bool {
        matches!(self, Ty::I64)
    }

    /// Returns `true` for `Bool`.
    pub fn is_bool(&self) -> bool {
        matches!(self, Ty::Bool)
    }

    /// Returns `true` for any pointer type.
    pub fn is_ptr(&self) -> bool {
        matches!(self, Ty::Ptr(_))
    }

    /// Returns `true` for types that occupy exactly one memory slot.
    pub fn is_scalar(&self) -> bool {
        matches!(self, Ty::F64 | Ty::F32 | Ty::I64 | Ty::Bool | Ty::Ptr(_))
    }

    /// Returns `true` for arrays and structs.
    pub fn is_aggregate(&self) -> bool {
        matches!(self, Ty::Array(..) | Ty::Struct(_))
    }

    /// The pointee type of a pointer.
    ///
    /// # Panics
    /// Panics if `self` is not a pointer type.
    pub fn pointee(&self) -> &Ty {
        match self {
            Ty::Ptr(p) => p,
            other => panic!("pointee() on non-pointer type {other}"),
        }
    }

    /// The element type of an array.
    ///
    /// # Panics
    /// Panics if `self` is not an array type.
    pub fn elem(&self) -> &Ty {
        match self {
            Ty::Array(e, _) => e,
            other => panic!("elem() on non-array type {other}"),
        }
    }

    /// The length of an array type, or `None` for other types.
    pub fn array_len(&self) -> Option<usize> {
        match self {
            Ty::Array(_, n) => Some(*n),
            _ => None,
        }
    }

    /// The field types of a struct, or `None` for other types.
    pub fn struct_fields(&self) -> Option<&[Ty]> {
        match self {
            Ty::Struct(fs) => Some(fs),
            _ => None,
        }
    }

    /// Number of memory slots a value of this type occupies.
    ///
    /// Scalars (including pointers) take one slot, `Void` takes zero,
    /// aggregates are the sum of their parts.
    pub fn slot_count(&self) -> usize {
        match self {
            Ty::Void => 0,
            Ty::F64 | Ty::F32 | Ty::I64 | Ty::Bool | Ty::Ptr(_) => 1,
            Ty::Array(elem, n) => elem.slot_count() * n,
            Ty::Struct(fields) => fields.iter().map(Ty::slot_count).sum(),
        }
    }

    /// Byte size of a value of this type, used only by the GPU register /
    /// local-memory pressure model (Fig. 6). `F32` is 4 bytes, every other
    /// scalar 8 bytes.
    pub fn byte_size(&self) -> usize {
        match self {
            Ty::Void => 0,
            Ty::F32 => 4,
            Ty::Bool => 1,
            Ty::F64 | Ty::I64 | Ty::Ptr(_) => 8,
            Ty::Array(elem, n) => elem.byte_size() * n,
            Ty::Struct(fields) => fields.iter().map(Ty::byte_size).sum(),
        }
    }

    /// Slot offset of struct field `idx` within this struct type.
    ///
    /// # Panics
    /// Panics if `self` is not a struct or `idx` is out of range.
    pub fn field_offset(&self, idx: usize) -> usize {
        match self {
            Ty::Struct(fields) => {
                assert!(idx < fields.len(), "field index {idx} out of range");
                fields[..idx].iter().map(Ty::slot_count).sum()
            }
            other => panic!("field_offset() on non-struct type {other}"),
        }
    }

    /// The type of struct field `idx`.
    ///
    /// # Panics
    /// Panics if `self` is not a struct or `idx` is out of range.
    pub fn field_ty(&self, idx: usize) -> &Ty {
        match self {
            Ty::Struct(fields) => &fields[idx],
            other => panic!("field_ty() on non-struct type {other}"),
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::F64 => write!(f, "f64"),
            Ty::F32 => write!(f, "f32"),
            Ty::I64 => write!(f, "i64"),
            Ty::Bool => write!(f, "i1"),
            Ty::Void => write!(f, "void"),
            Ty::Ptr(p) => write!(f, "{p}*"),
            Ty::Array(e, n) => write!(f, "[{n} x {e}]"),
            Ty::Struct(fields) => {
                write!(f, "{{")?;
                for (i, fld) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{fld}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_slot_counts() {
        assert_eq!(Ty::F64.slot_count(), 1);
        assert_eq!(Ty::F32.slot_count(), 1);
        assert_eq!(Ty::I64.slot_count(), 1);
        assert_eq!(Ty::Bool.slot_count(), 1);
        assert_eq!(Ty::ptr(Ty::F64).slot_count(), 1);
        assert_eq!(Ty::Void.slot_count(), 0);
    }

    #[test]
    fn aggregate_slot_counts() {
        let arr = Ty::array(Ty::F64, 8);
        assert_eq!(arr.slot_count(), 8);
        let st = Ty::Struct(vec![Ty::F64, Ty::array(Ty::F64, 3), Ty::I64]);
        assert_eq!(st.slot_count(), 5);
        let nested = Ty::array(st.clone(), 4);
        assert_eq!(nested.slot_count(), 20);
    }

    #[test]
    fn field_offsets() {
        let st = Ty::Struct(vec![Ty::F64, Ty::array(Ty::F64, 3), Ty::I64, Ty::Bool]);
        assert_eq!(st.field_offset(0), 0);
        assert_eq!(st.field_offset(1), 1);
        assert_eq!(st.field_offset(2), 4);
        assert_eq!(st.field_offset(3), 5);
        assert_eq!(*st.field_ty(2), Ty::I64);
    }

    #[test]
    fn byte_sizes_for_gpu_model() {
        assert_eq!(Ty::F32.byte_size(), 4);
        assert_eq!(Ty::F64.byte_size(), 8);
        assert_eq!(Ty::array(Ty::F32, 16).byte_size(), 64);
        assert_eq!(Ty::Struct(vec![Ty::F64, Ty::F32]).byte_size(), 12);
    }

    #[test]
    fn display_round_trip_shapes() {
        assert_eq!(Ty::F64.to_string(), "f64");
        assert_eq!(Ty::ptr(Ty::F64).to_string(), "f64*");
        assert_eq!(Ty::array(Ty::I64, 4).to_string(), "[4 x i64]");
        assert_eq!(Ty::Struct(vec![Ty::F64, Ty::Bool]).to_string(), "{f64, i1}");
    }

    #[test]
    fn predicates() {
        assert!(Ty::F64.is_float());
        assert!(!Ty::I64.is_float());
        assert!(Ty::I64.is_int());
        assert!(Ty::Bool.is_bool());
        assert!(Ty::ptr(Ty::I64).is_ptr());
        assert!(Ty::array(Ty::F64, 2).is_aggregate());
        assert!(Ty::Struct(vec![]).is_aggregate());
        assert!(Ty::ptr(Ty::Void).is_scalar());
    }

    #[test]
    #[should_panic]
    fn pointee_on_scalar_panics() {
        let _ = Ty::F64.pointee();
    }
}
