//! MINT node definitions.

use crate::MintId;
use flick_stablehash::Name;

/// Non-integer atomic kinds.
///
/// Integers get their own representation (value ranges); the remaining
/// atoms are enumerated here.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScalarKind {
    /// Truth value.
    Bool,
    /// 8-bit character.
    Char8,
    /// IEEE-754 single precision.
    Float32,
    /// IEEE-754 double precision.
    Float64,
}

/// Element-count bounds of a MINT array.
///
/// A *fixed* array has `min == max`; a bounded variable array has
/// `max = Some(b)`; an unbounded one has `max = None`.  These bounds
/// feed the back end's storage classification (§3.1): fixed /
/// variable-bounded / variable-unbounded.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LenBound {
    /// Minimum element count.
    pub min: u64,
    /// Maximum element count, if any.
    pub max: Option<u64>,
}

impl LenBound {
    /// A bound for exactly `n` elements.
    #[must_use]
    pub fn fixed(n: u64) -> Self {
        LenBound {
            min: n,
            max: Some(n),
        }
    }

    /// True when the count is statically known.
    #[must_use]
    pub fn is_fixed(self) -> bool {
        self.max == Some(self.min)
    }

    /// The static count, if fixed.
    #[must_use]
    pub fn fixed_len(self) -> Option<u64> {
        if self.is_fixed() {
            Some(self.min)
        } else {
            None
        }
    }
}

/// A typed literal constant value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConstVal {
    /// A signed integer literal.
    Signed(i64),
    /// An unsigned integer literal.
    Unsigned(u64),
}

impl ConstVal {
    /// The value widened to `i64` (panics on unsigned overflow).
    #[must_use]
    pub fn as_i64(self) -> i64 {
        match self {
            ConstVal::Signed(v) => v,
            ConstVal::Unsigned(v) => i64::try_from(v).expect("constant exceeds i64"),
        }
    }

    /// The value as `u64` (panics on negative).
    #[must_use]
    pub fn as_u64(self) -> u64 {
        match self {
            ConstVal::Signed(v) => u64::try_from(v).expect("negative constant"),
            ConstVal::Unsigned(v) => v,
        }
    }
}

/// A node of the MINT graph.
///
/// Note what is *absent*: byte widths on the wire, alignment, byte
/// order, and target-language layout.  A MINT integer says only "a
/// signed value within a 32-bit range"; the encoding chosen by a back
/// end decides how such a value travels.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum MintNode {
    /// No data (empty request/reply, void union arm).
    Void,
    /// An integer constrained to `[min, min + range]`.
    Integer {
        /// Smallest representable value.
        min: i64,
        /// Width of the value interval above `min`.
        range: u64,
    },
    /// A non-integer atomic value.
    Scalar(ScalarKind),
    /// A (fixed or counted variable) array.
    Array {
        /// Element type.
        elem: MintId,
        /// Element-count bounds.
        len: LenBound,
    },
    /// An aggregate of named slots, marshaled in order.
    Struct {
        /// `(name, type)` pairs; names are for humans and DOT dumps.
        slots: Vec<(Name, MintId)>,
    },
    /// A discriminated union.
    Union {
        /// Discriminator type.
        discrim: MintId,
        /// `(discriminator value, body)` arms.
        cases: Vec<(i64, MintId)>,
        /// Body for unlisted discriminator values.
        default: Option<MintId>,
    },
    /// A typed literal constant — e.g. the operation code embedded at a
    /// fixed position in every request message.
    Const {
        /// The constant's type.
        ty: MintId,
        /// The constant's value.
        value: ConstVal,
    },
}

impl MintNode {
    /// An integer node covering the standard `bits`-wide range.
    ///
    /// # Panics
    /// Panics if `bits` is not 8, 16, 32, or 64.
    #[must_use]
    pub fn integer_bits(signed: bool, bits: u32) -> Self {
        assert!(matches!(bits, 8 | 16 | 32 | 64), "unsupported width {bits}");
        if signed {
            let min = match bits {
                8 => i64::from(i8::MIN),
                16 => i64::from(i16::MIN),
                32 => i64::from(i32::MIN),
                _ => i64::MIN,
            };
            let range = match bits {
                8 => u64::from(u8::MAX),
                16 => u64::from(u16::MAX),
                32 => u64::from(u32::MAX),
                _ => u64::MAX,
            };
            MintNode::Integer { min, range }
        } else {
            let range = match bits {
                8 => u64::from(u8::MAX),
                16 => u64::from(u16::MAX),
                32 => u64::from(u32::MAX),
                _ => u64::MAX,
            };
            MintNode::Integer { min: 0, range }
        }
    }

    /// True for atoms (no children).
    #[must_use]
    pub fn is_atomic(&self) -> bool {
        matches!(
            self,
            MintNode::Void | MintNode::Integer { .. } | MintNode::Scalar(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_bound_fixed() {
        assert!(LenBound::fixed(5).is_fixed());
        assert_eq!(LenBound::fixed(5).fixed_len(), Some(5));
        assert!(!LenBound {
            min: 0,
            max: Some(9)
        }
        .is_fixed());
        assert_eq!(LenBound { min: 0, max: None }.fixed_len(), None);
    }

    #[test]
    fn integer_bits_ranges() {
        match MintNode::integer_bits(true, 8) {
            MintNode::Integer { min, range } => {
                assert_eq!(min, -128);
                assert_eq!(range, 255);
            }
            _ => unreachable!(),
        }
        match MintNode::integer_bits(false, 64) {
            MintNode::Integer { min, range } => {
                assert_eq!(min, 0);
                assert_eq!(range, u64::MAX);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    #[should_panic(expected = "unsupported width")]
    fn integer_bits_rejects_odd_width() {
        let _ = MintNode::integer_bits(true, 24);
    }

    #[test]
    fn const_conversions() {
        assert_eq!(ConstVal::Signed(-3).as_i64(), -3);
        assert_eq!(ConstVal::Unsigned(7).as_u64(), 7);
        assert_eq!(ConstVal::Unsigned(7).as_i64(), 7);
    }

    #[test]
    fn atomicity() {
        assert!(MintNode::Void.is_atomic());
        assert!(MintNode::integer_bits(true, 32).is_atomic());
        assert!(!MintNode::Struct { slots: vec![] }.is_atomic());
    }
}
