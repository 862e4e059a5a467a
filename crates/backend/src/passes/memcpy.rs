//! `coalesce-memcpy` (§3.2 data copying): scalar arrays become runs.
//!
//! An array of scalars that tile the wire (`slot == size`: no
//! widening, no per-element padding) marshals as one *run* instead of
//! an element loop.  In the host's byte order the run is a `memcpy`;
//! in a foreign order it is a *swizzle run* — the same
//! [`PlanNode::MemcpyArray`] with a non-native `prim.order`, which the
//! Rust emitter lowers to one bulk swap-copy.  The run's element wire
//! form is the one lowering gave the element's [`PlanNode::Prim`]:
//! byte-wide elements pack (XDR `opaque`, a `char` array), so they run
//! under any encoding, while widened elements (XDR `short` in a 4-byte
//! slot) own only part of their wire bytes and keep the loop.  Enum
//! elements keep it too: a run validates nothing.
//!
//! The same question one level up: a counted array `form-chunks`
//! marked *strided* whose element struct is its own wire image
//! ([`wire_image`]: the presented `#[repr(C)]` struct and the wire
//! chunk coincide byte for byte, or differ only in the order of
//! uniformly wide scalars) becomes an *image run* — the array keeps
//! its [`PlanNode::CountedArray`] shape and gains an `image` mark,
//! which the Rust emitter lowers to the block copy or swap-copy a
//! scalar run gets.  Lowering answered the presentation half of that
//! question on the array (`c_image`); the pass holds it against the
//! element chunk's size, which a strided array's `Fixed` element class
//! is (set by `form-chunks` with the mark: `classify-storage` runs after
//! this pass, and reads the runs it makes).  The image mark rides on the strided one, so disabling either
//! this pass or `form-chunks` keeps the element loop.
//!
//! Also flips [`StubPlans::memcpy`], which governs block copies for
//! scalar runs inside packed chunks at emit time.

use crate::encoding::WirePrim;
use crate::layout::{wire_image, SizeClass};
use crate::mir::{for_each_child, for_each_root, PlanNode, PlanResult, StubPlans};
use crate::passes::{MirPass, PassCx};

pub struct CoalesceMemcpy;

impl MirPass for CoalesceMemcpy {
    fn name(&self) -> &'static str {
        "coalesce-memcpy"
    }

    fn run(&self, mir: &mut StubPlans, cx: &PassCx) -> PlanResult<u64> {
        mir.memcpy = true;
        let mut decisions = 0;
        for_each_root(mir, |root| coalesce_node(root, cx, &mut decisions));
        Ok(decisions)
    }
}

fn coalesce_node(node: &mut PlanNode, cx: &PassCx, decisions: &mut u64) {
    let rewritten = match node {
        PlanNode::FixedArray { len, elem, .. } => {
            elem_run(elem).map(|prim| PlanNode::MemcpyArray {
                prim,
                fields: None,
                fixed_len: Some(*len),
                bound: None,
                counted: false,
            })
        }
        PlanNode::CountedArray {
            bound,
            elem,
            fields,
            ..
        } => elem_run(elem).map(|prim| PlanNode::MemcpyArray {
            prim,
            fields: Some(fields.clone()),
            fixed_len: None,
            bound: *bound,
            counted: true,
        }),
        _ => None,
    };
    if let Some(run) = rewritten {
        *node = run;
        *decisions += 1;
        return;
    }
    if let PlanNode::CountedArray {
        strided: true,
        elem_class: SizeClass::Fixed(size),
        c_image,
        image,
        ..
    } = node
    {
        *image = c_image.and_then(|c| wire_image(&c, *size, cx.enc.order));
        *decisions += u64::from(image.is_some());
    }
    for_each_child(node, |c| coalesce_node(c, cx, decisions));
}

/// The element's wire form, if it is a scalar whose array forms a run.
fn elem_run(elem: &PlanNode) -> Option<WirePrim> {
    match *elem {
        PlanNode::Prim { prim, .. } if prim.forms_run() => Some(prim),
        _ => None,
    }
}
