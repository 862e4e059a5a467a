//! C type representations.

use std::sync::Arc;

use flick_stablehash::{Frame, Name, StableHash};

/// A C type.  Nested types are shared (`Arc`), so a clone copies no
/// subtree: the presentation generator hands one type to every
/// declaration and PRES node that mentions it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CType {
    /// `void`
    Void,
    /// `char`
    Char,
    /// `signed char`
    SChar,
    /// `unsigned char`
    UChar,
    /// `short`
    Short,
    /// `unsigned short`
    UShort,
    /// `int`
    Int,
    /// `unsigned int`
    UInt,
    /// `long`
    Long,
    /// `unsigned long`
    ULong,
    /// `long long`
    LongLong,
    /// `unsigned long long`
    ULongLong,
    /// `float`
    Float,
    /// `double`
    Double,
    /// A typedef or tag reference by name (e.g. `Mail`, `CORBA_long`).
    Named(Name),
    /// `struct <tag>` reference without definition.
    StructRef(Name),
    /// `T *`
    Pointer(Arc<CType>),
    /// `T [n]` / `T []`
    Array(Arc<CType>, Option<u64>),
    /// An inline (anonymous or tagged) struct definition.
    StructDef {
        /// Optional tag.
        tag: Option<Name>,
        /// Members in order.
        fields: Vec<CField>,
    },
    /// A function type (used for pointers to functions).
    Function {
        /// Return type.
        ret: Arc<CType>,
        /// Parameter types.
        params: Vec<CType>,
    },
}

impl CType {
    /// `T *`
    #[must_use]
    pub fn ptr(inner: CType) -> CType {
        CType::Pointer(Arc::new(inner))
    }

    /// A named (typedef) type.
    #[must_use]
    pub fn named(name: impl Into<Name>) -> CType {
        CType::Named(name.into())
    }

    /// `T [len]`
    #[must_use]
    pub fn array(elem: CType, len: u64) -> CType {
        CType::Array(Arc::new(elem), Some(len))
    }

    /// True for arithmetic scalar types (candidates for `memcpy` runs).
    #[must_use]
    pub fn is_scalar(&self) -> bool {
        matches!(
            self,
            CType::Char
                | CType::SChar
                | CType::UChar
                | CType::Short
                | CType::UShort
                | CType::Int
                | CType::UInt
                | CType::Long
                | CType::ULong
                | CType::LongLong
                | CType::ULongLong
                | CType::Float
                | CType::Double
        )
    }
}

impl StableHash for CType {
    fn stable_hash(&self, h: &mut Vec<u8>) {
        match self {
            CType::Void => h.write_tag(0),
            CType::Char => h.write_tag(1),
            CType::SChar => h.write_tag(2),
            CType::UChar => h.write_tag(3),
            CType::Short => h.write_tag(4),
            CType::UShort => h.write_tag(5),
            CType::Int => h.write_tag(6),
            CType::UInt => h.write_tag(7),
            CType::Long => h.write_tag(8),
            CType::ULong => h.write_tag(9),
            CType::LongLong => h.write_tag(10),
            CType::ULongLong => h.write_tag(11),
            CType::Float => h.write_tag(12),
            CType::Double => h.write_tag(13),
            CType::Named(n) => {
                h.write_tag(14);
                n.stable_hash(h);
            }
            CType::StructRef(n) => {
                h.write_tag(15);
                n.stable_hash(h);
            }
            CType::Pointer(inner) => {
                h.write_tag(16);
                inner.stable_hash(h);
            }
            CType::Array(elem, len) => {
                h.write_tag(17);
                elem.stable_hash(h);
                len.stable_hash(h);
            }
            CType::StructDef { tag, fields } => {
                h.write_tag(18);
                tag.stable_hash(h);
                fields.stable_hash(h);
            }
            CType::Function { ret, params } => {
                h.write_tag(19);
                ret.stable_hash(h);
                params.stable_hash(h);
            }
        }
    }
}

/// A struct member.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CField {
    /// Member name.
    pub name: Name,
    /// Member type.
    pub ty: CType,
}

impl StableHash for CField {
    fn stable_hash(&self, h: &mut Vec<u8>) {
        self.name.stable_hash(h);
        self.ty.stable_hash(h);
    }
}

/// A function parameter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CParam {
    /// Parameter name.
    pub name: Name,
    /// Parameter type.
    pub ty: CType,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(
            CType::ptr(CType::Char),
            CType::Pointer(Arc::new(CType::Char))
        );
        assert_eq!(
            CType::array(CType::Int, 4),
            CType::Array(Arc::new(CType::Int), Some(4))
        );
        assert_eq!(CType::named("Mail"), CType::Named("Mail".into()));
    }

    #[test]
    fn stable_hash_distinguishes_structure() {
        use flick_stablehash::hash_of;
        assert_ne!(hash_of(&CType::Int), hash_of(&CType::UInt));
        assert_ne!(
            hash_of(&CType::named("A")),
            hash_of(&CType::StructRef("A".into()))
        );
        assert_eq!(
            hash_of(&CType::ptr(CType::Char)),
            hash_of(&CType::Pointer(Arc::new(CType::Char)))
        );
    }

    #[test]
    fn scalar_predicate() {
        assert!(CType::Int.is_scalar());
        assert!(CType::Double.is_scalar());
        assert!(!CType::Void.is_scalar());
        assert!(!CType::ptr(CType::Int).is_scalar());
        assert!(!CType::named("X").is_scalar());
    }
}
