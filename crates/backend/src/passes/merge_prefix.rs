//! `merge-prefix` (§3.4): hoist the common unmarshal prefix across
//! dispatch arms.
//!
//! After `demux-switch` builds the word-wise discrimination trie, many
//! sibling arms begin their unmarshal code identically — in practice
//! with the aligned u32 count word that leads every counted array,
//! memcpy run, and string.  This pass marks the *highest* trie node
//! under which every reachable operation starts with such a count word;
//! the dispatch emitter then decodes that word once, before the word
//! switch, and each arm's first slot consumes the prefetched count
//! instead of re-reading it.  The generated switch carries one shared
//! length read where it previously carried one per arm.
//!
//! Module-wide (it rewrites the demux trie), so like `demux-switch` it
//! is skipped per stub and run over the merged module.  Hoisting is sound because the trie discriminates on the
//! operation *name*, which travels outside the message body: the body
//! stream is at position zero at every trie level, so a read hoisted
//! above the switch sees exactly the bytes each arm would have read.
//! Typed-descriptor encodings (Mach) prefix items with descriptors and
//! are excluded.

use std::collections::HashMap;

use crate::mir::{Demux, DemuxArm, DemuxNode, PlanNode, PlanResult, PrefixStep, StubPlans};
use crate::passes::{MirPass, PassCx};

pub struct MergePrefix;

/// True when the stub's request unmarshal begins with an aligned u32
/// count word (the shape the hoisted prefix read replaces).  Shared
/// with the verifier, which re-checks every hoist after every pass.
pub(crate) fn leads_with_len_u32(mir_stub: &crate::mir::StubPlan) -> bool {
    matches!(
        mir_stub.request.slots.first().map(|s| &s.node),
        Some(
            PlanNode::CountedArray { .. }
                | PlanNode::String { .. }
                | PlanNode::MemcpyArray { counted: true, .. }
        )
    )
}

impl MirPass for MergePrefix {
    fn name(&self) -> &'static str {
        "merge-prefix"
    }

    fn run(&self, mir: &mut StubPlans, cx: &PassCx) -> PlanResult<u64> {
        if cx.enc.typed_descriptors {
            return Ok(0);
        }
        let leads: HashMap<&str, bool> = mir
            .stubs
            .iter()
            .map(|s| (s.op.name.as_str(), leads_with_len_u32(s)))
            .collect();
        let mut decisions = 0;
        if let Demux::Trie(root) = &mut mir.demux {
            hoist(root, &leads, false, &mut decisions);
        }
        Ok(decisions)
    }
}

/// `(reachable leaf ops, all of them lead with a u32 count)`.
fn survey(node: &DemuxNode, leads: &HashMap<&str, bool>) -> (u64, bool) {
    let mut ops = 0;
    let mut all = true;
    for (_, arm) in &node.arms {
        match arm {
            DemuxArm::Op(name) => {
                ops += 1;
                all &= leads.get(name.as_str()).copied().unwrap_or(false);
            }
            DemuxArm::Descend(child) => {
                let (n, a) = survey(child, leads);
                ops += n;
                all &= a;
            }
        }
    }
    (ops, all)
}

fn hoist(
    node: &mut DemuxNode,
    leads: &HashMap<&str, bool>,
    hoisted_above: bool,
    decisions: &mut u64,
) {
    let mut hoisted_here = false;
    if !hoisted_above {
        let (ops, all) = survey(node, leads);
        if ops >= 2 && all {
            node.prefix = vec![PrefixStep::LenU32];
            // One read replaces `ops` per-arm reads.
            *decisions += ops - 1;
            hoisted_here = true;
        }
    }
    for (_, arm) in &mut node.arms {
        if let DemuxArm::Descend(child) = arm {
            hoist(child, leads, hoisted_above || hoisted_here, decisions);
        }
    }
}
