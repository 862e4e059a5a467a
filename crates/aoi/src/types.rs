//! The AOI type graph.
//!
//! Types live in a [`TypeTable`] arena and refer to one another through
//! [`TypeId`]s, so the graph may be cyclic — ONC RPC permits
//! self-referential types such as linked lists (`node *next`), which the
//! paper calls out as a construct the CORBA *presentation* cannot accept
//! but AOI itself must represent.

use std::fmt;

use flick_stablehash::Name;

/// Index of a [`Type`] within a [`TypeTable`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(u32);

impl TypeId {
    /// Builds an id from a raw arena index.
    #[must_use]
    pub fn from_index(i: usize) -> Self {
        TypeId(u32::try_from(i).expect("more than 2^32 types"))
    }

    /// The raw arena index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Primitive (atomic) AOI types, with IDL-neutral names.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PrimType {
    /// No value; only valid as an operation return type.
    Void,
    /// Boolean truth value.
    Boolean,
    /// 8-bit character.
    Char,
    /// Uninterpreted 8-bit byte (CORBA `octet`, XDR `opaque` element).
    Octet,
    /// Signed 16-bit integer.
    Short,
    /// Unsigned 16-bit integer.
    UShort,
    /// Signed 32-bit integer (CORBA `long`, ONC `int`).
    Long,
    /// Unsigned 32-bit integer.
    ULong,
    /// Signed 64-bit integer (CORBA `long long`, XDR `hyper`).
    LongLong,
    /// Unsigned 64-bit integer.
    ULongLong,
    /// IEEE-754 single precision.
    Float,
    /// IEEE-754 double precision.
    Double,
}

impl PrimType {
    /// Encoded size in bytes under the natural (XDR/CDR) encodings.
    ///
    /// XDR widens sub-word scalars to 4 bytes; that widening is an
    /// *encoding* property handled by back ends, so here we report the
    /// natural width.
    #[must_use]
    pub fn natural_size(self) -> u32 {
        match self {
            PrimType::Void => 0,
            PrimType::Boolean | PrimType::Char | PrimType::Octet => 1,
            PrimType::Short | PrimType::UShort => 2,
            PrimType::Long | PrimType::ULong | PrimType::Float => 4,
            PrimType::LongLong | PrimType::ULongLong | PrimType::Double => 8,
        }
    }

    /// True for the integral types usable as union discriminators.
    #[must_use]
    pub fn is_discriminator(self) -> bool {
        matches!(
            self,
            PrimType::Boolean
                | PrimType::Char
                | PrimType::Short
                | PrimType::UShort
                | PrimType::Long
                | PrimType::ULong
                | PrimType::LongLong
                | PrimType::ULongLong
        )
    }

    /// The IDL-neutral name used by the canonical printer.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PrimType::Void => "void",
            PrimType::Boolean => "boolean",
            PrimType::Char => "char",
            PrimType::Octet => "octet",
            PrimType::Short => "int16",
            PrimType::UShort => "uint16",
            PrimType::Long => "int32",
            PrimType::ULong => "uint32",
            PrimType::LongLong => "int64",
            PrimType::ULongLong => "uint64",
            PrimType::Float => "float32",
            PrimType::Double => "float64",
        }
    }
}

/// A named member of a struct or exception.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Field {
    /// Member name.
    pub name: Name,
    /// Member type.
    pub ty: TypeId,
}

/// A case label of a discriminated union.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnionLabel {
    /// An explicit discriminator value.
    Value(i64),
    /// The `default` arm.
    Default,
}

/// One arm of a discriminated union.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnionCase {
    /// Labels selecting this arm (several `case` labels may share one arm).
    pub labels: Vec<UnionLabel>,
    /// Name of the arm's value member.
    pub name: Name,
    /// Type of the arm (`None` for a `void` arm).
    pub ty: Option<TypeId>,
}

/// An AOI type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Type {
    /// A primitive type.
    Prim(PrimType),
    /// A character string, optionally bounded (`string<64>`).
    String {
        /// Maximum length in characters, if bounded.
        bound: Option<u64>,
    },
    /// A fixed-length array.
    Array {
        /// Element type.
        elem: TypeId,
        /// Exact element count.
        len: u64,
    },
    /// A variable-length array (CORBA `sequence`, XDR `<>` array),
    /// optionally bounded.
    Sequence {
        /// Element type.
        elem: TypeId,
        /// Maximum element count, if bounded.
        bound: Option<u64>,
    },
    /// XDR `opaque<>`/`opaque[n]` — bytes with no character meaning.
    Opaque {
        /// Exact byte count for fixed opaque, or `None` with `bound`
        /// for variable opaque.
        fixed_len: Option<u64>,
        /// Maximum byte count for variable opaque.
        bound: Option<u64>,
    },
    /// A structure.
    Struct {
        /// Scoped name of the struct.
        name: Name,
        /// Members in declaration order.
        fields: Vec<Field>,
    },
    /// A discriminated union.
    Union {
        /// Scoped name of the union.
        name: Name,
        /// Discriminator type (must be integral, boolean, char, or enum).
        discriminator: TypeId,
        /// The arms.
        cases: Vec<UnionCase>,
    },
    /// An enumeration; items are numbered from 0 in order unless an
    /// explicit value is given.
    Enum {
        /// Scoped name of the enum.
        name: Name,
        /// `(name, value)` pairs.
        items: Vec<(Name, i64)>,
    },
    /// A named alias (typedef).  Also the indirection point used to tie
    /// recursive knots: the alias is registered before its target is
    /// complete and patched afterwards.
    Alias {
        /// The typedef'd name.
        name: Name,
        /// The aliased type.
        target: TypeId,
    },
    /// ONC RPC optional data (`type *name`): zero or one value.
    Optional {
        /// The pointed-to type.
        elem: TypeId,
    },
    /// A reference to an object implementing an interface.
    ObjRef {
        /// Scoped interface name.
        interface: Name,
    },
}

impl Type {
    /// Short constructor for a primitive type.
    #[must_use]
    pub fn prim(p: PrimType) -> Self {
        Type::Prim(p)
    }

    /// The name of a named type (struct/union/enum/alias), if any.
    #[must_use]
    pub fn name(&self) -> Option<&str> {
        match self {
            Type::Struct { name, .. }
            | Type::Union { name, .. }
            | Type::Enum { name, .. }
            | Type::Alias { name, .. } => Some(name),
            _ => None,
        }
    }
}

/// Arena of [`Type`]s with a symbol table of named entries.
#[derive(Clone, Debug, Default)]
pub struct TypeTable {
    types: Vec<Type>,
    names: Vec<(Name, TypeId)>,
}

impl TypeTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `ty`, returning its id.  Structurally identical
    /// *primitive* types are shared; aggregates are always fresh.
    pub fn add(&mut self, ty: Type) -> TypeId {
        if let Type::Prim(_) | Type::String { .. } = ty {
            if let Some(i) = self.types.iter().position(|t| *t == ty) {
                return TypeId::from_index(i);
            }
        }
        let id = TypeId::from_index(self.types.len());
        self.types.push(ty);
        id
    }

    /// Interns a primitive.
    pub fn prim(&mut self, p: PrimType) -> TypeId {
        self.add(Type::Prim(p))
    }

    /// Registers `name` as referring to `id` (typedefs, struct tags…).
    pub fn bind_name(&mut self, name: impl Into<Name>, id: TypeId) {
        self.names.push((name.into(), id));
    }

    /// Resolves a bound name.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<TypeId> {
        self.names
            .iter()
            .rev()
            .find(|(n, _)| **n == *name)
            .map(|&(_, id)| id)
    }

    /// The type for `id`.
    ///
    /// # Panics
    /// Panics if `id` is from another table.
    #[must_use]
    pub fn get(&self, id: TypeId) -> &Type {
        &self.types[id.index()]
    }

    /// Mutable access, used by parsers to patch recursive knots.
    ///
    /// # Panics
    /// Panics if `id` is from another table.
    pub fn get_mut(&mut self, id: TypeId) -> &mut Type {
        &mut self.types[id.index()]
    }

    /// Follows [`Type::Alias`] chains to the underlying type id.
    #[must_use]
    pub fn resolve(&self, mut id: TypeId) -> TypeId {
        let mut hops = 0;
        while let Type::Alias { target, .. } = self.get(id) {
            id = *target;
            hops += 1;
            assert!(hops <= self.types.len(), "alias cycle in type table");
        }
        id
    }

    /// Number of types in the arena.
    #[must_use]
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// True if the arena is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Iterates `(id, type)` pairs in arena order.
    pub fn iter(&self) -> impl Iterator<Item = (TypeId, &Type)> {
        self.types
            .iter()
            .enumerate()
            .map(|(i, t)| (TypeId::from_index(i), t))
    }

    /// All `(name, id)` bindings in declaration order.
    #[must_use]
    pub fn bindings(&self) -> &[(Name, TypeId)] {
        &self.names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prim_interning_shares() {
        let mut t = TypeTable::new();
        let a = t.prim(PrimType::Long);
        let b = t.prim(PrimType::Long);
        let c = t.prim(PrimType::Short);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn aggregates_not_shared() {
        let mut t = TypeTable::new();
        let long = t.prim(PrimType::Long);
        let s1 = t.add(Type::Struct {
            name: "P".into(),
            fields: vec![Field {
                name: "x".into(),
                ty: long,
            }],
        });
        let s2 = t.add(Type::Struct {
            name: "P".into(),
            fields: vec![Field {
                name: "x".into(),
                ty: long,
            }],
        });
        assert_ne!(s1, s2);
    }

    #[test]
    fn names_resolve_latest() {
        let mut t = TypeTable::new();
        let a = t.prim(PrimType::Long);
        let b = t.prim(PrimType::Double);
        t.bind_name("x", a);
        t.bind_name("x", b);
        assert_eq!(t.lookup("x"), Some(b));
        assert_eq!(t.lookup("missing"), None);
    }

    #[test]
    fn alias_resolution() {
        let mut t = TypeTable::new();
        let long = t.prim(PrimType::Long);
        let a1 = t.add(Type::Alias {
            name: "MyInt".into(),
            target: long,
        });
        let a2 = t.add(Type::Alias {
            name: "MyInt2".into(),
            target: a1,
        });
        assert_eq!(t.resolve(a2), long);
        assert_eq!(t.resolve(long), long);
    }

    #[test]
    fn recursive_knot_via_patch() {
        // ONC RPC: struct node { int v; node *next; };
        let mut t = TypeTable::new();
        let long = t.prim(PrimType::Long);
        let fwd = t.add(Type::Alias {
            name: "node".into(),
            target: long,
        }); // placeholder
        let opt = t.add(Type::Optional { elem: fwd });
        let node = t.add(Type::Struct {
            name: "node".into(),
            fields: vec![
                Field {
                    name: "v".into(),
                    ty: long,
                },
                Field {
                    name: "next".into(),
                    ty: opt,
                },
            ],
        });
        *t.get_mut(fwd) = Type::Alias {
            name: "node".into(),
            target: node,
        };
        assert_eq!(t.resolve(fwd), node);
    }

    #[test]
    fn prim_properties() {
        assert_eq!(PrimType::Long.natural_size(), 4);
        assert_eq!(PrimType::Double.natural_size(), 8);
        assert!(PrimType::ULong.is_discriminator());
        assert!(!PrimType::Float.is_discriminator());
        assert_eq!(PrimType::Long.name(), "int32");
    }
}
