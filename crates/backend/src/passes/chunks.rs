//! `form-chunks` (§3.2 chunking): pack fixed-layout regions.
//!
//! Rewrites any struct or fixed array whose wire layout packs into a
//! [`PlanNode::Packed`] chunk: one space decision and constant-offset
//! stores instead of per-member marshal code.  The rewrite is
//! outermost-wins — once a region packs, its interior never appears as
//! separate plan nodes.  The chunk keeps the region it replaced, with
//! its outline calls expanded, as the description of the presented
//! value the emitters rebuild.  Runs before `coalesce-memcpy`, so a
//! fixed scalar array inside a packable region becomes a run inside the
//! chunk rather than a standalone block copy.
//!
//! A second decision rides on the first: a counted array whose
//! element became one chunk that *tiles* (nonzero size, a multiple of
//! its alignment) is marked `strided`, and its element class set to
//! the chunk's `Fixed` size — the class `classify-storage`, which runs
//! after this pass and `coalesce-memcpy`, gives it too, and which
//! `coalesce-memcpy`'s image test reads first.  Consecutive elements then sit
//! back to back on the wire, so the whole array is one region of
//! `count × stride` bytes — one space check, one truncation check, one
//! alignment — walked by advancing the chunk pointer a constant
//! stride.  Naive lowering routes named aggregates out of line, so at
//! this point the element is usually an `Outline` call; the mark looks
//! through it to the body this pass just packed, and `inline-marshal`
//! later puts that chunk in place.  (A *fixed* array of chunks never
//! survives to be marked: it packs whole, above.)

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use flick_pres::Name;

use crate::encoding::Encoding;
use crate::layout::{pack, SizeClass};
use crate::mir::{for_each_child, PlanNode, PlanResult, StubPlans};
use crate::passes::{MirPass, PassCx};

pub struct FormChunks;

impl MirPass for FormChunks {
    fn name(&self) -> &'static str {
        "form-chunks"
    }

    fn run(&self, mir: &mut StubPlans, cx: &PassCx) -> PlanResult<u64> {
        let mut decisions = 0;
        for_each_root_beside(mir, |root, outlines| {
            chunk_node(root, outlines, cx.enc, &mut decisions);
        });
        for_each_root_beside(mir, |root, outlines| {
            mark_strided(root, outlines, &mut decisions);
        });
        Ok(decisions)
    }
}

/// Applies `f` to every root plan tree of `mir` — each slot, then each
/// outline body — beside the outline table.  A body is lent to `f` out
/// of the table, so its own entry reads as [`PlanNode::Void`] meanwhile:
/// a fixed region never reaches its own body, and a recursive one
/// neither packs nor tiles.
fn for_each_root_beside(
    mir: &mut StubPlans,
    mut f: impl FnMut(&mut PlanNode, &BTreeMap<Name, PlanNode>),
) {
    let StubPlans {
        stubs, outlines, ..
    } = mir;
    for stub in stubs {
        for msg in [&mut stub.request, &mut stub.reply] {
            for slot in &mut msg.slots {
                f(&mut slot.node, outlines);
            }
        }
    }
    let mut next = outlines.keys().next().cloned();
    while let Some(key) = next {
        let entry = outlines.get_mut(&key).expect("a listed key");
        let mut body = std::mem::replace(entry, PlanNode::Void);
        f(&mut body, outlines);
        *outlines.get_mut(&key).expect("a listed key") = body;
        let after = (Bound::Excluded(&key), Bound::Unbounded);
        next = outlines
            .range::<Name, _>(after)
            .next()
            .map(|(k, _)| k.clone());
    }
}

fn chunk_node(
    node: &mut PlanNode,
    outlines: &BTreeMap<Name, PlanNode>,
    enc: &Encoding,
    decisions: &mut u64,
) {
    if matches!(node, PlanNode::Struct { .. } | PlanNode::FixedArray { .. }) {
        if let Some(layout) = pack(node, outlines, enc) {
            let mut region = std::mem::replace(node, PlanNode::Void);
            expand_outlines(&mut region, outlines);
            *node = PlanNode::Packed {
                layout,
                region: Arc::new(region),
            };
            *decisions += 1;
            return; // outermost wins; nothing left to visit inside
        }
    }
    for_each_child(node, |c| chunk_node(c, outlines, enc, decisions));
}

/// Replaces every outline call under `node` with a copy of its body —
/// a chunk's own region where the body already packed — so a region
/// stands alone.
fn expand_outlines(node: &mut PlanNode, outlines: &BTreeMap<Name, PlanNode>) {
    if let PlanNode::Outline { key } = node {
        // The region packed, so every call in it has a body.
        *node = match &outlines[key.as_str()] {
            PlanNode::Packed { region, .. } => PlanNode::clone(region),
            body => body.clone(),
        };
    }
    for_each_child(node, |c| expand_outlines(c, outlines));
}

fn mark_strided(node: &mut PlanNode, outlines: &BTreeMap<Name, PlanNode>, decisions: &mut u64) {
    if let PlanNode::CountedArray {
        elem,
        elem_class,
        strided,
        ..
    } = node
    {
        let chunk = match &**elem {
            PlanNode::Outline { key } => outlines.get(key),
            elem => Some(elem),
        };
        if let Some(PlanNode::Packed { layout, .. }) = chunk {
            if layout.tiles() {
                // The class `classify-storage` gives the chunk, which
                // `coalesce-memcpy` and the verifier read before it runs.
                (*strided, *elem_class) = (true, SizeClass::Fixed(layout.size));
                *decisions += 1;
            }
        }
    }
    for_each_child(node, |c| mark_strided(c, outlines, decisions));
}
