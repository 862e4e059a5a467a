//! `inline-marshal` (§3.3): absorb out-of-line marshal calls.
//!
//! Naive lowering routes every named aggregate through an out-of-line
//! body.  This pass expands those call sites back into the stub plan
//! trees, keeping a body out of line only where expansion would not
//! terminate — i.e. along a recursive cycle.  Expansion follows the
//! stub/slot/field order of the plans, and a re-expanded recursive
//! body overwrites any earlier registration (last traversal wins), so
//! the surviving outline set is exactly what a fused inline-as-you-
//! plan lowering would have produced.

use std::collections::BTreeMap;

use crate::mir::{for_each_child, plan_references_outline, PlanNode, PlanResult, StubPlans};
use crate::passes::{MirPass, PassCx};

pub struct InlineMarshal;

impl MirPass for InlineMarshal {
    fn name(&self) -> &'static str {
        "inline-marshal"
    }

    fn run(&self, mir: &mut StubPlans, _cx: &PassCx) -> PlanResult<u64> {
        let library = std::mem::take(&mut mir.outlines);
        let mut kept = BTreeMap::new();
        let mut stack: Vec<String> = Vec::new();
        let mut decisions = 0;
        for stub in &mut mir.stubs {
            for msg in [&mut stub.request, &mut stub.reply] {
                for slot in &mut msg.slots {
                    expand(
                        &mut slot.node,
                        &library,
                        &mut kept,
                        &mut stack,
                        &mut decisions,
                    )?;
                }
            }
        }
        mir.outlines = kept;
        Ok(decisions)
    }
}

fn expand(
    node: &mut PlanNode,
    library: &BTreeMap<String, PlanNode>,
    kept: &mut BTreeMap<String, PlanNode>,
    stack: &mut Vec<String>,
    decisions: &mut u64,
) -> PlanResult<()> {
    if let PlanNode::Outline { key } = node {
        // A call back into a body on the expansion stack is a
        // recursive cycle: it must stay an out-of-line call.
        if stack.iter().any(|k| k == key) {
            return Ok(());
        }
        let Some(body) = library.get(key) else {
            return Err(format!("inline-marshal: unresolved outline key `{key}`"));
        };
        let mut body = body.clone();
        stack.push(key.clone());
        expand(&mut body, library, kept, stack, decisions)?;
        let key = stack.pop().expect("pushed above");
        if plan_references_outline(&body, &key) {
            // Self-recursive: keep the body out of line.
            kept.insert(key.clone(), body);
            *node = PlanNode::Outline { key };
        } else {
            *decisions += 1;
            *node = body;
        }
        return Ok(());
    }
    let mut err = None;
    for_each_child(node, |c| {
        if err.is_none() {
            err = expand(c, library, kept, stack, decisions).err();
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}
