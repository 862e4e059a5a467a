//! Stable structural hashing of MINT subgraphs.
//!
//! A [`MintId`](crate::MintId) is an arena index — two semantically
//! identical graphs built in different orders assign different ids, so
//! ids must never leak into a content hash.  This module hashes the
//! *structure* reachable from a root instead: each node contributes a
//! variant tag plus its scalar payload, children are hashed in
//! declaration order, and cycles (reserve/patch knots) are broken with
//! de Bruijn-style back-references — the distance, in enclosing nodes,
//! from the reference back up to the node it re-enters.  Distance is
//! position-independent, so `list -> opt -> list` hashes identically no
//! matter where the knot sits in the arena.

use crate::{MintGraph, MintId, MintNode, ScalarKind};
use flick_stablehash::{digest, Frame, TapeMemo};

/// Digest of the structure reachable from `root`.
#[must_use]
pub fn subgraph_hash(g: &MintGraph, root: MintId) -> u64 {
    let mut tape = Vec::new();
    write_subgraph(g, root, &mut tape, &mut TapeMemo::new(g.len()));
    digest(&tape)
}

/// Appends the stream of the structure reachable from `root` to `tape`
/// (for callers interleaving MINT with other IR content).  `memo`
/// belongs to `g` and `tape`: each cycle-free node walks once, however
/// many roots reach it.
pub fn write_subgraph(g: &MintGraph, root: MintId, tape: &mut Vec<u8>, memo: &mut TapeMemo) {
    // Cycle: the re-entry depth, not the arena id.
    let Some(open) = memo.enter(tape, root.index(), 8) else {
        return;
    };
    match g.get(root) {
        MintNode::Void => tape.write_tag(0),
        MintNode::Integer { min, range } => {
            tape.write_tag(1);
            tape.write_i64(*min);
            tape.write_u64(*range);
        }
        MintNode::Scalar(kind) => {
            tape.write_tag(2);
            tape.write_tag(match kind {
                ScalarKind::Bool => 0,
                ScalarKind::Char8 => 1,
                ScalarKind::Float32 => 2,
                ScalarKind::Float64 => 3,
            });
        }
        MintNode::Array { elem, len } => {
            tape.write_tag(3);
            write_subgraph(g, *elem, tape, memo);
            tape.write_u64(len.min);
            match len.max {
                None => tape.write_tag(0),
                Some(m) => {
                    tape.write_tag(1);
                    tape.write_u64(m);
                }
            }
        }
        MintNode::Struct { slots } => {
            tape.write_tag(4);
            tape.write_u64(slots.len() as u64);
            for (name, slot) in slots {
                tape.write_str(name);
                write_subgraph(g, *slot, tape, memo);
            }
        }
        MintNode::Union {
            discrim,
            cases,
            default,
        } => {
            tape.write_tag(5);
            write_subgraph(g, *discrim, tape, memo);
            tape.write_u64(cases.len() as u64);
            for (val, body) in cases {
                tape.write_i64(*val);
                write_subgraph(g, *body, tape, memo);
            }
            match default {
                None => tape.write_tag(0),
                Some(d) => {
                    tape.write_tag(1);
                    write_subgraph(g, *d, tape, memo);
                }
            }
        }
        MintNode::Const { ty, value } => {
            tape.write_tag(6);
            write_subgraph(g, *ty, tape, memo);
            match value {
                crate::ConstVal::Signed(v) => {
                    tape.write_tag(0);
                    tape.write_i64(*v);
                }
                crate::ConstVal::Unsigned(v) => {
                    tape.write_tag(1);
                    tape.write_u64(*v);
                }
            }
        }
    }
    memo.leave(tape, root.index(), open);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConstVal;

    fn list_graph(extra_atoms: usize) -> (MintGraph, MintId) {
        // A self-referential list, optionally preceded by unrelated
        // nodes so the arena indices shift between the two builds.
        let mut g = MintGraph::new();
        for i in 0..extra_atoms {
            let _ = g.add(MintNode::integer_bits(
                false,
                if i % 2 == 0 { 8 } else { 16 },
            ));
        }
        let i = g.i32();
        let list = g.reserve();
        let b = g.boolean();
        let v = g.void();
        let opt = g.union(b, vec![(0, v), (1, list)], None);
        let node = g.structure(vec![("v".into(), i), ("next".into(), opt)]);
        let patched = g.get(node).clone();
        g.patch(list, patched);
        (g, list)
    }

    #[test]
    fn hash_ignores_arena_positions() {
        let (g1, r1) = list_graph(0);
        let (g2, r2) = list_graph(5);
        assert_ne!(r1, r2, "arenas should differ so the test is meaningful");
        assert_eq!(subgraph_hash(&g1, r1), subgraph_hash(&g2, r2));
    }

    #[test]
    fn hash_terminates_on_cycles_and_sees_structure() {
        let (g, root) = list_graph(0);
        let h1 = subgraph_hash(&g, root);
        // A list of i64 instead of i32 must hash differently.
        let mut g2 = MintGraph::new();
        let i = g2.i64();
        let list = g2.reserve();
        let b = g2.boolean();
        let v = g2.void();
        let opt = g2.union(b, vec![(0, v), (1, list)], None);
        let node = g2.structure(vec![("v".into(), i), ("next".into(), opt)]);
        let patched = g2.get(node).clone();
        g2.patch(list, patched);
        assert_ne!(h1, subgraph_hash(&g2, list));
    }

    #[test]
    fn distinct_shapes_distinct_hashes() {
        let mut g = MintGraph::new();
        let i = g.i32();
        let fixed = g.array_fixed(i, 4);
        let varied = g.array_variable(i, Some(4));
        assert_ne!(subgraph_hash(&g, fixed), subgraph_hash(&g, varied));
        let c1 = g.constant(i, ConstVal::Signed(1));
        let c2 = g.constant(i, ConstVal::Unsigned(1));
        assert_ne!(subgraph_hash(&g, c1), subgraph_hash(&g, c2));
    }
}
