//! `coalesce-memcpy` (§3.2 data copying): scalar arrays become runs.
//!
//! An array of scalars that tile the wire (`slot == size`: no
//! widening, no per-element padding) marshals as one *run* instead of
//! an element loop.  In the host's byte order the run is a `memcpy`;
//! in a foreign order it is a *swizzle run* — the same
//! [`PlanNode::MemcpyArray`] with a non-native `prim.order`, which the
//! Rust emitter lowers to one bulk swap-copy.  Widened elements (XDR
//! `short`/`char` in 4-byte slots) are not runs: their wire image has
//! bytes no element owns, so they keep the loop.  The pass requeries
//! the element's *presentation* node — the lowered per-element plan
//! uses the widened wire form, which is the wrong question to ask
//! here.
//!
//! The same question one level up: a counted array `form-chunks`
//! marked *strided* whose element struct is its own wire image
//! ([`wire_image`]: the presented `#[repr(C)]` struct and the wire
//! chunk coincide byte for byte, or differ only in the order of
//! uniformly wide scalars) becomes an *image run* — the array keeps
//! its [`PlanNode::CountedArray`] shape and gains an `image` mark,
//! which the Rust emitter lowers to the block copy or swap-copy a
//! scalar run gets.  It rides on the strided mark, so disabling either
//! this pass or `form-chunks` keeps the element loop.
//!
//! Also flips [`StubPlans::memcpy`], which governs block copies for
//! scalar runs inside packed chunks at emit time.

use flick_pres::PresNode;

use crate::encoding::{Encoding, WirePrim};
use crate::layout::wire_image;
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
        PlanNode::FixedArray {
            len,
            elem_pres,
            pres,
            ..
        } => elem_run(cx, *elem_pres).map(|prim| PlanNode::MemcpyArray {
            prim,
            pres: *pres,
            fixed_len: Some(*len),
            bound: None,
            counted: false,
            pad_unit: cx.enc.pad_unit,
            descriptor: descriptor_for(cx.enc, prim),
        }),
        PlanNode::CountedArray {
            bound,
            elem_pres,
            pres,
            ..
        } => elem_run(cx, *elem_pres).map(|prim| PlanNode::MemcpyArray {
            prim,
            pres: *pres,
            fixed_len: None,
            bound: *bound,
            counted: true,
            pad_unit: cx.enc.pad_unit,
            descriptor: descriptor_for(cx.enc, prim),
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
        elem_pres,
        image,
        ..
    } = node
    {
        *image = wire_image(cx.presc, cx.enc, *elem_pres);
        *decisions += u64::from(image.is_some());
    }
    for_each_child(node, |c| coalesce_node(c, cx, decisions));
}

/// The element's wire form, if it is a scalar whose array forms a run.
fn elem_run(cx: &PassCx, elem_pres: flick_pres::PresId) -> Option<WirePrim> {
    if let PresNode::Direct { mint, .. } = cx.presc.pres.get(elem_pres) {
        let prim = cx.enc.elem_prim(&cx.presc.mint, *mint);
        if prim.forms_run() {
            return Some(prim);
        }
    }
    None
}

/// The Mach-style type descriptor for a block-copied element, if the
/// encoding is typed.
fn descriptor_for(enc: &Encoding, prim: WirePrim) -> Option<u8> {
    if !enc.typed_descriptors {
        return None;
    }
    Some(match (prim.size, prim.signed) {
        (1, _) => 9,    // BYTE
        (4, true) => 2, // INTEGER_32
        (4, false) => 2,
        (8, _) => 11, // INTEGER_64
        (2, _) => 2,
        _ => 9,
    })
}
