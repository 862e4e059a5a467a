//! PRES mapping nodes.

use std::fmt;

use flick_cast::CType;
use flick_mint::MintId;
use flick_stablehash::Name;

/// Index of a [`PresNode`] within a [`PresTree`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PresId(u32);

impl PresId {
    fn from_index(i: usize) -> Self {
        PresId(u32::try_from(i).expect("more than 2^32 PRES nodes"))
    }

    /// The raw arena index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PresId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Where unmarshaled storage for presented data may come from.
///
/// These flags encode the *behavioral properties of the presentation*
/// (paper §3.1): stack allocation is valid only when the presentation
/// semantics forbid the server function from keeping a reference after
/// it returns; presenting data in place inside the marshal buffer is
/// valid only for `in` parameters whose encoded and presented formats
/// are identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocSem {
    /// The stub may allocate parameter storage on its runtime stack.
    pub may_use_stack: bool,
    /// The stub may present data in place inside the marshal buffer.
    pub may_use_buffer: bool,
    /// Fallback allocation strategy when neither applies.
    pub fallback: AllocStrategy,
}

impl AllocSem {
    /// The conservative semantics: always heap-allocate.
    #[must_use]
    pub fn heap_only() -> Self {
        AllocSem {
            may_use_stack: false,
            may_use_buffer: false,
            fallback: AllocStrategy::Heap,
        }
    }

    /// The semantics of CORBA-style `in` parameters on the server
    /// side: the work function may not retain references, so stack and
    /// in-buffer presentation are both valid.
    #[must_use]
    pub fn server_in_param() -> Self {
        AllocSem {
            may_use_stack: true,
            may_use_buffer: true,
            fallback: AllocStrategy::Heap,
        }
    }
}

/// Fallback allocator used when optimized storage does not apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocStrategy {
    /// `malloc`/`free` (or the language's allocator).
    Heap,
    /// The presentation's named allocator (e.g. `CORBA_alloc`).
    PresentationAllocator,
}

/// A PRES mapping node: the conversion between one MINT type and one
/// target-language type.  Children describe component conversions.
#[derive(Clone, Debug, PartialEq)]
pub enum PresNode {
    /// No data on either side (void return, empty message).
    Void,
    /// Direct mapping: a MINT atom presents as a C scalar with no
    /// transformation (Figure 2, first example).
    Direct {
        /// The message type.
        mint: MintId,
        /// The presented C type.
        ctype: CType,
    },
    /// An enum presents as a C enum/int; values map one-to-one.
    EnumMap {
        /// The message type (an integer node).
        mint: MintId,
        /// The presented C type (typically a typedef of `unsigned`).
        ctype: CType,
    },
    /// A MINT fixed-length array presents as a C array.
    FixedArray {
        /// The message type (array with fixed bounds).
        mint: MintId,
        /// Element conversion.
        elem: PresId,
        /// Element count.
        len: u64,
        /// The presented C array type.
        ctype: CType,
    },
    /// `OPT_PTR` (Figure 2, second example): a MINT counted array
    /// presents as a C pointer; non-zero count ⇒ pointer to decoded
    /// elements, zero count ⇒ null pointer.
    OptPtr {
        /// The message type (variable array).
        mint: MintId,
        /// Element conversion.
        elem: PresId,
        /// The presented C pointer type.
        ctype: CType,
        /// Allocation semantics for unmarshaled elements.
        alloc: AllocSem,
    },
    /// A MINT counted char array presents as a NUL-terminated `char *`
    /// (the classic C string presentation; marshaling counts the
    /// characters, unmarshaling appends the terminator).
    TerminatedString {
        /// The message type (counted array of char).
        mint: MintId,
        /// Allocation semantics for the unmarshaled string.
        alloc: AllocSem,
    },
    /// A MINT counted array presents as a counted sequence struct
    /// (CORBA's `{_maximum, _length, _buffer}`).
    CountedSeq {
        /// The message type (variable array).
        mint: MintId,
        /// Element conversion.
        elem: PresId,
        /// The presented C struct type (a typedef name).
        ctype: CType,
        /// Name of the length member.
        length_field: Name,
        /// Name of the capacity member.
        maximum_field: Name,
        /// Name of the buffer member.
        buffer_field: Name,
        /// Allocation semantics for unmarshaled elements.
        alloc: AllocSem,
    },
    /// A MINT struct presents as a C struct, member by member.
    StructMap {
        /// The message type (struct).
        mint: MintId,
        /// The presented C struct type (typedef or tag reference).
        ctype: CType,
        /// `(C member name, conversion)` in MINT slot order.
        fields: Vec<(Name, PresId)>,
    },
    /// A MINT union presents as a C `struct { d; union u; }` pair.
    UnionMap {
        /// The message type (union).
        mint: MintId,
        /// The presented C type.
        ctype: CType,
        /// Discriminator conversion.
        discrim: PresId,
        /// Name of the discriminator member.
        discrim_field: Name,
        /// `(label value, member name, conversion)` per arm.
        cases: Vec<(i64, Name, PresId)>,
        /// Default arm, if any.
        default: Option<(Name, PresId)>,
    },
    /// ONC RPC optional data: a MINT boolean-discriminated union of
    /// void/value presents as a nullable C pointer.
    OptionalPtr {
        /// The message type (union over a boolean).
        mint: MintId,
        /// Pointee conversion.
        elem: PresId,
        /// The presented C pointer type.
        ctype: CType,
        /// Allocation semantics for the pointee.
        alloc: AllocSem,
    },
}

impl PresNode {
    /// The MINT node this conversion consumes/produces, if any.
    #[must_use]
    pub fn mint(&self) -> Option<MintId> {
        match self {
            PresNode::Void => None,
            PresNode::Direct { mint, .. }
            | PresNode::EnumMap { mint, .. }
            | PresNode::FixedArray { mint, .. }
            | PresNode::OptPtr { mint, .. }
            | PresNode::TerminatedString { mint, .. }
            | PresNode::CountedSeq { mint, .. }
            | PresNode::StructMap { mint, .. }
            | PresNode::UnionMap { mint, .. }
            | PresNode::OptionalPtr { mint, .. } => Some(*mint),
        }
    }

    /// The presented C type, if the conversion has one.
    #[must_use]
    pub fn ctype(&self) -> Option<&CType> {
        match self {
            PresNode::Void => None,
            PresNode::TerminatedString { .. } => None,
            PresNode::Direct { ctype, .. }
            | PresNode::EnumMap { ctype, .. }
            | PresNode::FixedArray { ctype, .. }
            | PresNode::OptPtr { ctype, .. }
            | PresNode::CountedSeq { ctype, .. }
            | PresNode::StructMap { ctype, .. }
            | PresNode::UnionMap { ctype, .. }
            | PresNode::OptionalPtr { ctype, .. } => Some(ctype),
        }
    }
}

/// Arena of PRES nodes.
#[derive(Clone, Debug, Default)]
pub struct PresTree {
    nodes: Vec<PresNode>,
}

impl PresTree {
    /// An empty tree.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node, returning its id.
    pub fn add(&mut self, node: PresNode) -> PresId {
        let id = PresId::from_index(self.nodes.len());
        self.nodes.push(node);
        id
    }

    /// Reserves a slot for a node whose children are not yet built
    /// (recursive presentations such as ONC linked lists).  Must be
    /// [`PresTree::patch`]ed before use.
    pub fn reserve(&mut self) -> PresId {
        self.add(PresNode::Void)
    }

    /// Replaces a reserved slot.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn patch(&mut self, id: PresId, node: PresNode) {
        self.nodes[id.index()] = node;
    }

    /// The node for `id`.
    ///
    /// # Panics
    /// Panics if `id` is from another tree.
    #[must_use]
    pub fn get(&self, id: PresId) -> &PresNode {
        &self.nodes[id.index()]
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the tree is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_mint::MintGraph;

    #[test]
    fn figure2_example1_direct_int() {
        // Figure 2 example 1: C `int x` ↔ MINT 32-bit integer.
        let mut mint = MintGraph::new();
        let m = mint.i32();
        let mut pres = PresTree::new();
        let p = pres.add(PresNode::Direct {
            mint: m,
            ctype: CType::Int,
        });
        assert_eq!(pres.get(p).mint(), Some(m));
        assert_eq!(pres.get(p).ctype(), Some(&CType::Int));
    }

    #[test]
    fn figure2_example2_opt_ptr_string() {
        // Figure 2 example 2: C `char *str` ↔ MINT counted char array,
        // via an OPT_PTR transformation.
        let mut mint = MintGraph::new();
        let chars = mint.string(None);
        let c8 = mint.char8();
        let mut pres = PresTree::new();
        let elem = pres.add(PresNode::Direct {
            mint: c8,
            ctype: CType::Char,
        });
        let p = pres.add(PresNode::OptPtr {
            mint: chars,
            elem,
            ctype: CType::ptr(CType::Char),
            alloc: AllocSem::heap_only(),
        });
        match pres.get(p) {
            PresNode::OptPtr { ctype, .. } => {
                assert_eq!(*ctype, CType::ptr(CType::Char));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn alloc_semantics_presets() {
        let h = AllocSem::heap_only();
        assert!(!h.may_use_stack && !h.may_use_buffer);
        let s = AllocSem::server_in_param();
        assert!(s.may_use_stack && s.may_use_buffer);
    }

    #[test]
    fn void_has_no_mint_or_ctype() {
        let mut pres = PresTree::new();
        let v = pres.add(PresNode::Void);
        assert_eq!(pres.get(v).mint(), None);
        assert_eq!(pres.get(v).ctype(), None);
    }
}
