//! `demux-switch` (§3.4): word-wise server demultiplexing.
//!
//! String-discriminated protocols (IIOP) dispatch on the operation
//! name.  Instead of comparing whole strings per operation, this pass
//! builds a discrimination trie that switches on successive 4-byte
//! words of the name, descending only while names share a prefix.
//! The emitters turn the trie into nested integer switches; when the
//! pass is disabled they fall back to a per-name comparison chain.

use crate::mir::{Demux, DemuxArm, DemuxNode, PlanResult, StubPlan, StubPlans};
use crate::passes::{MirPass, PassCx};

pub struct DemuxSwitch;

impl MirPass for DemuxSwitch {
    fn name(&self) -> &'static str {
        "demux-switch"
    }

    fn run(&self, mir: &mut StubPlans, _cx: &PassCx) -> PlanResult<u64> {
        // One dispatch entry per distinct operation: sorted by name
        // (stably, so the first stub of each name stays first) and
        // deduplicated, then ordered level by level as the trie needs.
        let mut ops: Vec<&StubPlan> = mir.stubs.iter().collect();
        ops.sort_by(|a, b| a.op.name.cmp(&b.op.name));
        ops.dedup_by(|later, first| later.op.name == first.op.name);
        let mut nodes = 0;
        let trie = build(&mut ops, 0, &mut nodes);
        mir.demux = Demux::Trie(trie);
        Ok(nodes)
    }
}

/// The native-endian 4-byte word of `name` starting at `at`,
/// zero-padded past the end — the same value the generated `word_at`
/// helper reads from the wire.
pub(crate) fn word_of(name: &[u8], at: usize) -> u32 {
    let mut w = [0u8; 4];
    if at < name.len() {
        let n = (name.len() - at).min(4);
        w[..n].copy_from_slice(&name[at..at + n]);
    }
    u32::from_ne_bytes(w)
}

/// The trie level switching on word `word` of the names of `ops`.
/// Sorting `ops` by that word, stably, lines each arm's operations up
/// contiguously and in ascending word order; each arm descends into its
/// own run of the same slice, so the only allocation per level is its
/// `arms`.
fn build(ops: &mut [&StubPlan], word: usize, nodes: &mut u64) -> DemuxNode {
    *nodes += 1;
    let word_at = |s: &StubPlan| word_of(s.op.wire_name.as_bytes(), word * 4);
    ops.sort_by_key(|s| word_at(s));
    let starts = ops.windows(2).filter(|w| word_at(w[0]) != word_at(w[1]));
    let groups = usize::from(!ops.is_empty()) + starts.count();
    let mut arms = Vec::with_capacity(groups);
    let mut rest = ops;
    while let Some(first) = rest.first() {
        let w = word_at(first);
        let len = rest.iter().take_while(|s| word_at(s) == w).count();
        let (group, tail) = rest.split_at_mut(len);
        let leaf = len == 1 && (word + 1) * 4 >= group[0].op.wire_name.len();
        let arm = if leaf {
            DemuxArm::Op(group[0].op.name.clone())
        } else {
            DemuxArm::Descend(build(group, word + 1, nodes))
        };
        arms.push((w, arm));
        rest = tail;
    }
    DemuxNode {
        word,
        arms,
        prefix: Vec::new(),
    }
}
