//! `classify-storage` (§3.1): assign size classes.
//!
//! Computes each message body's [`SizeClass`] (every slot, with the
//! alignment pads the stub writes between and inside them; the
//! operation's discriminator travels in the transport's header) and
//! each counted array's per-element class from the plan, expanding
//! outline calls.  It runs after `form-chunks` and `coalesce-memcpy`,
//! so a class is read off the chunks and runs the stub is written from
//! ([`message_class`]).  `hoist-checks` and the emitters consume the
//! classes; this pass always runs — even a fully de-optimized pipeline
//! needs element classes for receive-side capacity guards.

use crate::layout::{described, message_class, size_class, SizeClass};
use crate::mir::{for_each_child, for_each_root, PlanNode, PlanResult, StubPlans};
use crate::passes::{MirPass, PassCx};

pub struct ClassifyStorage;

impl MirPass for ClassifyStorage {
    fn name(&self) -> &'static str {
        "classify-storage"
    }

    fn run(&self, mir: &mut StubPlans, cx: &PassCx) -> PlanResult<u64> {
        let mut decisions = 0;
        for stub in &mut mir.stubs {
            for msg in [&mut stub.request, &mut stub.reply] {
                let slots = msg.slots.iter().map(|s| &s.node);
                msg.class = message_class(slots, &mir.outlines, cx.enc);
                msg.hoisted = None;
                msg.hoisted_capped = None;
                msg.by_value = false;
                decisions += 1;
            }
        }
        // An element's class reads outline bodies — a recursive body its
        // own — so every class is computed before the first is written.
        let mut classes = Vec::new();
        for stub in &mir.stubs {
            for slot in stub.request.slots.iter().chain(&stub.reply.slots) {
                elem_classes(&slot.node, mir, cx, &mut classes);
            }
        }
        for body in mir.outlines.values() {
            elem_classes(body, mir, cx, &mut classes);
        }
        let mut classes = classes.into_iter();
        for_each_root(mir, |root| assign(root, &mut classes, &mut decisions));
        Ok(decisions)
    }
}

/// The element class of every counted array under `node`, in the order
/// [`for_each_child`] visits them.
fn elem_classes(node: &PlanNode, mir: &StubPlans, cx: &PassCx, out: &mut Vec<SizeClass>) {
    if let PlanNode::CountedArray { elem, .. } = node {
        // A scalar the array's descriptor describes carries none.
        out.push(match described(cx.enc, elem) {
            Some(prim) => SizeClass::Fixed(u64::from(prim.slot)),
            None => size_class(elem, &mir.outlines, cx.enc),
        });
    }
    for child in node.children() {
        elem_classes(child, mir, cx, out);
    }
}

fn assign(node: &mut PlanNode, classes: &mut impl Iterator<Item = SizeClass>, decisions: &mut u64) {
    if let PlanNode::CountedArray { elem_class, .. } = node {
        *elem_class = classes.next().expect("one class per counted array");
        *decisions += 1;
    }
    for_each_child(node, |c| assign(c, classes, decisions));
}
