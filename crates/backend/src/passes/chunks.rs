//! `form-chunks` (§3.2 chunking): pack fixed-layout regions.
//!
//! Rewrites any struct or fixed array whose wire layout packs into a
//! [`PlanNode::Packed`] chunk: one space decision and constant-offset
//! stores instead of per-member marshal code.  The rewrite is
//! outermost-wins — once a region packs, its interior never appears as
//! separate plan nodes.  Runs before `coalesce-memcpy`, so a fixed
//! scalar array inside a packable region becomes a run inside the
//! chunk rather than a standalone block copy.
//!
//! A second decision rides on the first: a counted array whose
//! element became one chunk that *tiles* (nonzero size, a multiple of
//! its alignment) is marked `strided`.  Consecutive elements then sit
//! back to back on the wire, so the whole array is one region of
//! `count × stride` bytes — one space check, one truncation check, one
//! alignment — walked by advancing the chunk pointer a constant
//! stride.  Naive lowering routes named aggregates out of line, so at
//! this point the element is usually an `Outline` call; the mark looks
//! through it to the body this pass just packed, and `inline-marshal`
//! later puts that chunk in place.  (A *fixed* array of chunks never
//! survives to be marked: it packs whole, above.)

use std::collections::BTreeSet;

use flick_pres::Name;

use crate::layout::pack;
use crate::mir::{for_each_child, for_each_root, type_name_of, PlanNode, PlanResult, StubPlans};
use crate::passes::{MirPass, PassCx};

pub struct FormChunks;

impl MirPass for FormChunks {
    fn name(&self) -> &'static str {
        "form-chunks"
    }

    fn run(&self, mir: &mut StubPlans, cx: &PassCx) -> PlanResult<u64> {
        let mut decisions = 0;
        for_each_root(mir, |root| chunk_node(root, cx, &mut decisions));
        let tiling_bodies: BTreeSet<Name> = mir
            .outlines
            .iter()
            .filter(|(_, body)| matches!(body, PlanNode::Packed { layout, .. } if layout.tiles()))
            .map(|(key, _)| key.clone())
            .collect();
        for_each_root(mir, |root| {
            mark_strided(root, &tiling_bodies, &mut decisions);
        });
        Ok(decisions)
    }
}

fn chunk_node(node: &mut PlanNode, cx: &PassCx, decisions: &mut u64) {
    let pres = match node {
        PlanNode::Struct { pres, .. } | PlanNode::FixedArray { pres, .. } => Some(*pres),
        _ => None,
    };
    if let Some(pres) = pres {
        if let Some(layout) = pack(cx.presc, cx.enc, pres) {
            *node = PlanNode::Packed {
                layout,
                type_name: type_name_of(cx.presc, pres),
                pres,
            };
            *decisions += 1;
            return; // outermost wins; nothing left to visit inside
        }
    }
    for_each_child(node, |c| chunk_node(c, cx, decisions));
}

fn mark_strided(node: &mut PlanNode, tiling_bodies: &BTreeSet<Name>, decisions: &mut u64) {
    if let PlanNode::CountedArray { elem, strided, .. } = node {
        let elem_tiles = match &**elem {
            PlanNode::Packed { layout, .. } => layout.tiles(),
            PlanNode::Outline { key } => tiling_bodies.contains(key),
            _ => false,
        };
        if elem_tiles {
            *strided = true;
            *decisions += 1;
        }
    }
    for_each_child(node, |c| mark_strided(c, tiling_bodies, decisions));
}
