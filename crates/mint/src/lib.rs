//! MINT — the *Message INterface Types* intermediate representation
//! (paper §2.2.1).
//!
//! A MINT graph describes every message — requests and replies — that
//! may be exchanged between client and server for an interface.  A node
//! is an atomic type, an aggregate, or a typed literal constant.  MINT
//! deliberately describes *neither* target-language types *nor* wire
//! encodings: it records only the abstract shape and value ranges of
//! message data (e.g. "a signed value within a 32-bit range"), serving
//! as the glue between encoding types (chosen by a back end) and
//! target-language types (chosen by a presentation generator).
//!
//! The graph may be cyclic (self-referential ONC RPC types); knots are
//! tied with [`MintGraph::reserve`] + [`MintGraph::patch`].

pub mod dot;
pub mod hash;
pub mod node;

pub use hash::{subgraph_hash, write_subgraph};
pub use node::{ConstVal, LenBound, MintNode, ScalarKind};

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

pub use flick_stablehash::Name;

/// Index of a [`MintNode`] within a [`MintGraph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MintId(u32);

impl MintId {
    fn from_index(i: usize) -> Self {
        MintId(u32::try_from(i).expect("more than 2^32 MINT nodes"))
    }

    /// The raw arena index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for MintId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// An arena of MINT nodes with hash-consing for acyclic nodes.
///
/// Hash-consing gives structural sharing: the `int32` used by a
/// thousand struct slots is one node, and equality of [`MintId`]s is
/// equality of types for nodes built without [`MintGraph::reserve`].
/// A node lives once, in the arena: the intern table holds only its
/// hash and id.
#[derive(Clone, Debug, Default)]
pub struct MintGraph {
    nodes: Vec<MintNode>,
    /// Hash-cons table: a node's hash to the first interned node with
    /// that hash.  Nodes created via `reserve`/`patch` are not in it.
    interned: HashMap<u64, MintId, BuildHasherDefault<PreHashed>>,
    /// `(hash, id)` of interned nodes whose hash an earlier, different
    /// node already had — empty unless two node hashes collide.
    clashes: Vec<(u64, MintId)>,
    /// Hashes nodes for `interned`.
    state: RandomState,
}

/// The intern table's hasher: its keys already are hashes.
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the intern table is keyed by u64 hashes only")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

impl MintGraph {
    /// An empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `node`, sharing structure with any identical prior node.
    pub fn add(&mut self, node: MintNode) -> MintId {
        self.intern(self.state.hash_one(&node), node)
    }

    /// [`MintGraph::add`] for a node whose hash is `hash`: an equal
    /// node already interned under it, or `node` moved into the arena.
    fn intern(&mut self, hash: u64, node: MintNode) -> MintId {
        let id = MintId::from_index(self.nodes.len());
        match self.interned.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(id);
            }
            Entry::Occupied(first) => {
                let nodes = &self.nodes;
                let same = |id: MintId| nodes[id.index()] == node;
                if same(*first.get()) {
                    return *first.get();
                }
                let clash = self.clashes.iter().find(|&&(h, id)| h == hash && same(id));
                if let Some(&(_, old)) = clash {
                    return old;
                }
                self.clashes.push((hash, id));
            }
        }
        self.nodes.push(node);
        id
    }

    /// Reserves a slot for a node whose children are not yet built
    /// (recursive types).  The placeholder must be [`MintGraph::patch`]ed
    /// before use.
    pub fn reserve(&mut self) -> MintId {
        let id = MintId::from_index(self.nodes.len());
        self.nodes.push(MintNode::Void);
        id
    }

    /// Replaces a reserved slot.  Patched nodes are intentionally not
    /// hash-consed (they may participate in cycles).
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn patch(&mut self, id: MintId, node: MintNode) {
        self.nodes[id.index()] = node;
    }

    /// The node for `id`.
    ///
    /// # Panics
    /// Panics if `id` came from another graph.
    #[must_use]
    pub fn get(&self, id: MintId) -> &MintNode {
        &self.nodes[id.index()]
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes exist.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates `(id, node)` pairs in arena order.
    pub fn iter(&self) -> impl Iterator<Item = (MintId, &MintNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (MintId::from_index(i), n))
    }

    // ---- convenience constructors for the common node shapes ----

    /// Signed 32-bit integer (the paper's Figure 2 example node).
    pub fn i32(&mut self) -> MintId {
        self.add(MintNode::integer_bits(true, 32))
    }

    /// Unsigned 32-bit integer.
    pub fn u32(&mut self) -> MintId {
        self.add(MintNode::integer_bits(false, 32))
    }

    /// Signed 16-bit integer.
    pub fn i16(&mut self) -> MintId {
        self.add(MintNode::integer_bits(true, 16))
    }

    /// Unsigned 16-bit integer.
    pub fn u16(&mut self) -> MintId {
        self.add(MintNode::integer_bits(false, 16))
    }

    /// Signed 64-bit integer.
    pub fn i64(&mut self) -> MintId {
        self.add(MintNode::integer_bits(true, 64))
    }

    /// Unsigned 64-bit integer.
    pub fn u64(&mut self) -> MintId {
        self.add(MintNode::integer_bits(false, 64))
    }

    /// Unsigned 8-bit integer / octet.
    pub fn u8(&mut self) -> MintId {
        self.add(MintNode::integer_bits(false, 8))
    }

    /// 8-bit character.
    pub fn char8(&mut self) -> MintId {
        self.add(MintNode::Scalar(ScalarKind::Char8))
    }

    /// Boolean.
    pub fn boolean(&mut self) -> MintId {
        self.add(MintNode::Scalar(ScalarKind::Bool))
    }

    /// IEEE-754 single.
    pub fn f32(&mut self) -> MintId {
        self.add(MintNode::Scalar(ScalarKind::Float32))
    }

    /// IEEE-754 double.
    pub fn f64(&mut self) -> MintId {
        self.add(MintNode::Scalar(ScalarKind::Float64))
    }

    /// Void (empty message part).
    pub fn void(&mut self) -> MintId {
        self.add(MintNode::Void)
    }

    /// Fixed-length array.
    pub fn array_fixed(&mut self, elem: MintId, len: u64) -> MintId {
        self.add(MintNode::Array {
            elem,
            len: LenBound::fixed(len),
        })
    }

    /// Variable-length counted array with an optional upper bound.
    pub fn array_variable(&mut self, elem: MintId, max: Option<u64>) -> MintId {
        self.add(MintNode::Array {
            elem,
            len: LenBound { min: 0, max },
        })
    }

    /// A counted array of characters — MINT's representation of a
    /// string (Figure 2's second example).
    pub fn string(&mut self, max: Option<u64>) -> MintId {
        let c = self.char8();
        self.array_variable(c, max)
    }

    /// Struct with named slots.
    pub fn structure(&mut self, slots: Vec<(Name, MintId)>) -> MintId {
        self.add(MintNode::Struct { slots })
    }

    /// Discriminated union.
    pub fn union(
        &mut self,
        discrim: MintId,
        cases: Vec<(i64, MintId)>,
        default: Option<MintId>,
    ) -> MintId {
        self.add(MintNode::Union {
            discrim,
            cases,
            default,
        })
    }

    /// A typed literal constant (e.g. an operation's request code).
    pub fn constant(&mut self, ty: MintId, value: ConstVal) -> MintId {
        self.add(MintNode::Const { ty, value })
    }

    /// Renders the subgraph reachable from `root` in Graphviz DOT form.
    #[must_use]
    pub fn to_dot(&self, root: MintId) -> String {
        dot::to_dot(self, root)
    }

    /// Ids reachable from `root` (including `root`), in first-visit order.
    #[must_use]
    pub fn reachable(&self, root: MintId) -> Vec<MintId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut order = Vec::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id.index()], true) {
                continue;
            }
            order.push(id);
            match self.get(id) {
                MintNode::Array { elem, .. } => stack.push(*elem),
                MintNode::Struct { slots } => stack.extend(slots.iter().map(|(_, t)| *t)),
                MintNode::Union {
                    discrim,
                    cases,
                    default,
                } => {
                    stack.push(*discrim);
                    stack.extend(cases.iter().map(|(_, t)| *t));
                    if let Some(d) = default {
                        stack.push(*d);
                    }
                }
                MintNode::Const { ty, .. } => stack.push(*ty),
                MintNode::Void | MintNode::Integer { .. } | MintNode::Scalar(_) => {}
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_shares_atoms_and_aggregates() {
        let mut g = MintGraph::new();
        let a = g.i32();
        let b = g.i32();
        assert_eq!(a, b);
        let s1 = g.structure(vec![("x".into(), a), ("y".into(), a)]);
        let s2 = g.structure(vec![("x".into(), b), ("y".into(), b)]);
        assert_eq!(s1, s2);
        let s3 = g.structure(vec![("x".into(), a)]);
        assert_ne!(s1, s3);
    }

    #[test]
    fn colliding_hashes_keep_distinct_nodes_apart() {
        // Two different nodes under one hash: each gets its own id,
        // and each is found again under that hash.
        let mut g = MintGraph::new();
        let i = g.intern(7, MintNode::integer_bits(true, 32));
        let u = g.intern(7, MintNode::integer_bits(false, 32));
        let c = g.intern(7, MintNode::Scalar(ScalarKind::Char8));
        assert_eq!((i.index(), u.index(), c.index()), (0, 1, 2));
        assert_eq!(g.intern(7, MintNode::integer_bits(false, 32)), u);
        assert_eq!(g.intern(7, MintNode::Scalar(ScalarKind::Char8)), c);
        assert_eq!(g.intern(7, MintNode::integer_bits(true, 32)), i);
        assert_eq!(g.len(), 3);
        assert_eq!(g.clashes.len(), 2);
    }

    #[test]
    fn integer_ranges() {
        let mut g = MintGraph::new();
        let i = g.i32();
        match g.get(i) {
            MintNode::Integer { min, range } => {
                assert_eq!(*min, i64::from(i32::MIN));
                assert_eq!(*range, u64::from(u32::MAX));
            }
            other => panic!("not an integer: {other:?}"),
        }
        let u = g.u16();
        match g.get(u) {
            MintNode::Integer { min, range } => {
                assert_eq!(*min, 0);
                assert_eq!(*range, u64::from(u16::MAX));
            }
            other => panic!("not an integer: {other:?}"),
        }
    }

    #[test]
    fn string_is_counted_char_array() {
        let mut g = MintGraph::new();
        let s = g.string(None);
        match g.get(s) {
            MintNode::Array { elem, len } => {
                assert_eq!(g.get(*elem), &MintNode::Scalar(ScalarKind::Char8));
                assert!(!len.is_fixed());
            }
            other => panic!("not an array: {other:?}"),
        }
    }

    #[test]
    fn recursive_list_via_reserve_patch() {
        let mut g = MintGraph::new();
        let i = g.i32();
        let list = g.reserve();
        let b = g.boolean();
        let v = g.void();
        let opt = g.union(b, vec![(0, v), (1, list)], None);
        let node = g.structure(vec![("v".into(), i), ("next".into(), opt)]);
        let patched = g.get(node).clone();
        g.patch(list, patched);
        let reach = g.reachable(list);
        assert!(reach.contains(&i));
        // The cycle terminates: reachable() must not loop forever (it returned).
    }

    #[test]
    fn reachability_covers_union_arms() {
        let mut g = MintGraph::new();
        let d = g.u32();
        let a = g.f64();
        let b = g.string(Some(8));
        let u = g.union(d, vec![(1, a), (2, b)], Some(a));
        let reach = g.reachable(u);
        assert!(reach.contains(&a) && reach.contains(&b) && reach.contains(&d));
    }

    #[test]
    fn constants_typed() {
        let mut g = MintGraph::new();
        let u = g.u32();
        let c = g.constant(u, ConstVal::Unsigned(3));
        match g.get(c) {
            MintNode::Const { ty, value } => {
                assert_eq!(*ty, u);
                assert_eq!(*value, ConstVal::Unsigned(3));
            }
            other => panic!("not a const: {other:?}"),
        }
    }
}
