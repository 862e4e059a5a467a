//! `reuse-slots` (§3.1 taken further): classify slots whose presented
//! value can live entirely in per-call pooled storage.
//!
//! `classify-storage` decides *size* classes; this pass decides
//! *residence*.  A live request slot whose whole conversion tree can
//! be presented without per-call heap allocation — scalars and packed
//! regions (stack), fixed memcpy runs (stack arrays), and top-level
//! strings the receive buffer can back directly — is marked
//! [`SlotStorage::Arena`].  Emitters key their zero-allocation decode
//! bindings off the mark: arena strings borrow from the receive
//! buffer, everything else lands on the stack, and nothing escapes the
//! call.
//!
//! The analysis generalizes the paper's "present data in place"
//! beyond layout-identical scalars: any tree is arena-presentable as
//! long as *every* construction step is allocation-free.  What is
//! not:
//!
//! * counted arrays and counted memcpy runs (a `Vec` must own the
//!   elements);
//! * optional data (the recursive pointee is boxed);
//! * strings below the top level (nested values are built owned), or
//!   top-level strings the buffer cannot back (`borrow_ok: false`);
//! * outline calls whose body is not itself arena-presentable
//!   (recursive bodies never are).
//!
//! Reply slots are left alone here: a reply slot becomes
//! arena-resident only through the `reply-alias` pass, whose `Echoed`
//! contract answers with request bytes.  The verifier re-checks every
//! mark between stages (see `verify::verify_storage`).

use std::collections::{BTreeMap, BTreeSet};

use flick_pres::Name;

use crate::mir::{PlanNode, PlanResult, SlotStorage, StubPlans};
use crate::passes::{MirPass, PassCx};

pub struct ReuseSlots;

/// True when decoding `node` as a *top-level slot* allocates nothing:
/// the one position where a `borrow_ok` string presents in the
/// receive buffer.
pub(crate) fn arena_presentable_slot(node: &PlanNode, outlines: &BTreeMap<Name, PlanNode>) -> bool {
    match node {
        PlanNode::String { borrow_ok, .. } => *borrow_ok,
        _ => arena_presentable_nested(node, outlines, &mut BTreeSet::new()),
    }
}

/// True when decoding `node` as a *nested* value (always built owned)
/// allocates nothing.
fn arena_presentable_nested<'a>(
    node: &'a PlanNode,
    outlines: &'a BTreeMap<Name, PlanNode>,
    visiting: &mut BTreeSet<&'a str>,
) -> bool {
    match node {
        PlanNode::Void | PlanNode::Prim { .. } | PlanNode::Enum { .. } => true,
        // Packed regions decode from one chunk into a stack value.
        PlanNode::Packed { .. } => true,
        // A fixed memcpy run lands in a stack array; a counted one
        // must own a Vec.
        PlanNode::MemcpyArray { fixed_len, .. } => fixed_len.is_some(),
        // Nested strings are built owned regardless of borrow_ok.
        PlanNode::String { .. } => false,
        // Counted arrays own their elements; optionals box theirs.
        PlanNode::CountedArray { .. } | PlanNode::Optional { .. } => false,
        PlanNode::FixedArray { .. } | PlanNode::Struct { .. } | PlanNode::Union { .. } => node
            .children()
            .all(|c| arena_presentable_nested(c, outlines, visiting)),
        PlanNode::Outline { key } => {
            // A recursive body can never be presented flat.
            if !visiting.insert(key) {
                return false;
            }
            let ok = outlines
                .get(key)
                .is_some_and(|body| arena_presentable_nested(body, outlines, visiting));
            visiting.remove(key.as_str());
            ok
        }
    }
}

impl MirPass for ReuseSlots {
    fn name(&self) -> &'static str {
        "reuse-slots"
    }

    fn run(&self, mir: &mut StubPlans, _cx: &PassCx) -> PlanResult<u64> {
        let mut decisions = 0;
        let outlines = &mir.outlines; // presentability reads bodies
        for stub in &mut mir.stubs {
            for slot in &mut stub.request.slots {
                if !slot.live || slot.storage == SlotStorage::Arena {
                    continue;
                }
                if arena_presentable_slot(&slot.node, outlines) {
                    slot.storage = SlotStorage::Arena;
                    decisions += 1;
                }
            }
        }
        Ok(decisions)
    }
}
