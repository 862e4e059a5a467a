//! Writing an arena graph's hash stream once per node.
//!
//! The IR hashes are digests of a byte *stream*: a preorder walk that
//! frames every node and breaks cycles with de Bruijn back-references
//! (the distance, in enclosing nodes, from the reference up to the
//! node it re-enters).  A stream is sequential, so a digest cannot skip
//! a subtree — but the walk can: when the stream goes to a `Vec<u8>`
//! tape first, a node whose stream holds no back-reference wrote bytes
//! that do not depend on where it was reached from, and the next visit
//! copies them instead of walking again.  The digest of the tape is
//! bit for bit the digest the plain walk produced.

use crate::Frame;

/// Which nodes of one arena graph have already written their stream to
/// a tape, and where.
#[derive(Debug)]
pub struct TapeMemo {
    /// Per node: the tape range of its stream, once written cycle-free.
    spans: Vec<Option<(usize, usize)>>,
    /// Nodes being written, outermost first.
    stack: Vec<usize>,
    /// Back-references written so far.
    backrefs: usize,
}

/// A node being written: where its stream began.
#[derive(Debug)]
pub struct Open {
    start: usize,
    backrefs: usize,
}

impl TapeMemo {
    /// A memo for a graph of `nodes` arena slots, nothing written yet.
    #[must_use]
    pub fn new(nodes: usize) -> TapeMemo {
        TapeMemo {
            spans: vec![None; nodes],
            stack: Vec::new(),
            backrefs: 0,
        }
    }

    /// Begins node `id`.  `None` means its stream is on the tape
    /// already — copied from its first writing, or, when `id` is being
    /// written further up, as the back-reference `cycle_tag` plus the
    /// distance.  Otherwise the caller writes the node and calls
    /// [`TapeMemo::leave`].
    pub fn enter(&mut self, tape: &mut Vec<u8>, id: usize, cycle_tag: u8) -> Option<Open> {
        if let Some((lo, hi)) = self.spans[id] {
            tape.extend_from_within(lo..hi);
            return None;
        }
        if let Some(pos) = self.stack.iter().rposition(|&seen| seen == id) {
            tape.write_tag(cycle_tag);
            tape.write_u64((self.stack.len() - pos) as u64);
            self.backrefs += 1;
            return None;
        }
        self.stack.push(id);
        Some(Open {
            start: tape.len(),
            backrefs: self.backrefs,
        })
    }

    /// Ends node `id`, remembering its stream if it wrote no
    /// back-reference (a node on a cycle reads differently from inside
    /// the cycle than from outside, and is walked every time).
    pub fn leave(&mut self, tape: &[u8], id: usize, open: Open) {
        self.stack.pop();
        if self.backrefs == open.backrefs {
            self.spans[id] = Some((open.start, tape.len()));
        }
    }
}
