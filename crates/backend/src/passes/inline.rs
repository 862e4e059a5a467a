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

use flick_pres::Name;

use crate::mir::{
    for_each_child, for_each_root, plan_references_outline, PlanNode, PlanResult, StubPlans,
};
use crate::passes::{MirPass, PassCx};

pub struct InlineMarshal;

impl MirPass for InlineMarshal {
    fn name(&self) -> &'static str {
        "inline-marshal"
    }

    fn run(&self, mir: &mut StubPlans, _cx: &PassCx) -> PlanResult<u64> {
        let mut library = std::mem::take(&mut mir.outlines);
        if library.is_empty() {
            return Ok(0);
        }
        // How many times each body will be expanded, so the last
        // expansion can take the library's copy instead of cloning it.
        // (With the outlines taken, the roots of `mir` are its slots.)
        let mut uses = BTreeMap::new();
        let mut stack: Vec<Name> = Vec::new();
        for_each_root(mir, |node| {
            count_uses(node, &library, &mut stack, &mut uses)
        });

        let mut kept = BTreeMap::new();
        let mut decisions = 0;
        let mut result = Ok(());
        for_each_root(mir, |node| {
            if result.is_ok() {
                result = expand(
                    node,
                    &mut library,
                    &mut uses,
                    &mut kept,
                    &mut stack,
                    &mut decisions,
                );
            }
        });
        result?;
        mir.outlines = kept;
        Ok(decisions)
    }
}

/// Counts the expansions [`expand`] will make of each body, by the
/// walk it will make: into a body at every call that is not a call
/// back into the expansion stack.
fn count_uses(
    node: &PlanNode,
    library: &BTreeMap<Name, PlanNode>,
    stack: &mut Vec<Name>,
    uses: &mut BTreeMap<Name, usize>,
) {
    if let PlanNode::Outline { key } = node {
        if stack.contains(key) {
            return;
        }
        if let Some(body) = library.get(key) {
            *uses.entry(key.clone()).or_default() += 1;
            stack.push(key.clone());
            count_uses(body, library, stack, uses);
            stack.pop();
        }
    }
    for child in node.children() {
        count_uses(child, library, stack, uses);
    }
}

fn expand(
    node: &mut PlanNode,
    library: &mut BTreeMap<Name, PlanNode>,
    uses: &mut BTreeMap<Name, usize>,
    kept: &mut BTreeMap<Name, PlanNode>,
    stack: &mut Vec<Name>,
    decisions: &mut u64,
) -> PlanResult<()> {
    if let PlanNode::Outline { key } = node {
        // A call back into a body on the expansion stack is a
        // recursive cycle: it must stay an out-of-line call.
        if stack.contains(key) {
            return Ok(());
        }
        // The body, cloned only when a later site will expand it again.
        let left = uses.get_mut(key.as_str());
        let body = match left {
            Some(left) if *left > 1 => {
                *left -= 1;
                library.get(key.as_str()).cloned()
            }
            _ => library.remove(key.as_str()),
        };
        let Some(mut body) = body else {
            return Err(format!("inline-marshal: unresolved outline key `{key}`"));
        };
        stack.push(key.clone());
        expand(&mut body, library, uses, kept, stack, decisions)?;
        let key = stack.pop().expect("pushed above");
        if plan_references_outline(&body, &key) {
            // Self-recursive: keep the body out of line.
            kept.insert(key, body);
        } else {
            *decisions += 1;
            *node = body;
        }
        return Ok(());
    }
    let mut err = None;
    for_each_child(node, |c| {
        if err.is_none() {
            err = expand(c, library, uses, kept, stack, decisions).err();
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}
