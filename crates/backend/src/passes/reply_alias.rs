//! `reply-alias` (§3.2 copy avoidance): reuse request bytes for
//! echoed replies.
//!
//! An inout scalar the server leaves untouched, or a return value that
//! echoes an argument (handle-style protocols), re-marshals bytes that
//! already sit — fully decoded and validated — in the request buffer.
//! This pass marks such reply slots with the request slot they alias;
//! the dispatch emitter then changes the server contract to the
//! copy-on-write `Echoed` type: the work function *declares* whether
//! it changed the echoed value.  `Unchanged` answers with a single
//! coalesced `memcpy` of the request byte range; `Changed(v)` takes
//! the normal encode path.  Earlier versions instead snapshotted the
//! decoded value and guarded the byte reuse with a runtime `==` — a
//! clone and a compare per call that cost more than the re-marshal
//! they avoided whenever the value was small and cache-hot.
//!
//! Safety conditions, all re-checked by the MIR verifier after every
//! later pass (so no subsequent rewrite can invalidate a mark):
//!
//! * the wire bytes of the value are position-independent — word
//!   oriented encodings without typed descriptors (XDR, Fluke), where
//!   every slot starts 4-aligned and carries no stream-relative state;
//! * the reply slot's plan is *structurally identical* to the request
//!   slot's plan, and of fixed wire size (`Prim`, `Enum`, `Packed`),
//!   so request and reply byte ranges have identical length and
//!   meaning;
//! * every request slot before the aliased one has a fixed wire size,
//!   so the echoed bytes sit at a static range of the request body
//!   ([`echoed_range`]) and the dispatcher replays that range without
//!   recording where the decode went;
//! * the pairing is unambiguous: same binding name (an inout
//!   parameter), or a `_return` slot with exactly one structurally
//!   equal request slot;
//! * the aliased slot is the reply's *only* slot, so the whole reply
//!   body reduces to one `Echoed` return value (the CoW contract is
//!   per-operation, not per-slot) and the replayed bytes are all of
//!   it — no dead slot's zero fill is owed beside them;
//! * the marked slot is classified [`SlotStorage::Arena`] — an
//!   `Unchanged` reply lives in the request's receive buffer for the
//!   duration of the call and never owns storage.

use crate::mir::{PlanResult, SlotPlan, SlotStorage, StubPlans};
use crate::passes::{MirPass, PassCx};

pub struct ReplyAlias;

/// The byte range `(offset, size)` of request slot `j` in the request
/// body, when every slot up to and including it has a fixed wire size.
pub(crate) fn echoed_range(request: &[SlotPlan], j: usize) -> Option<(u64, u64)> {
    let mut at = 0;
    for slot in request.get(..j)? {
        at += slot.node.fixed_wire_size()?;
    }
    Some((at, request.get(j)?.node.fixed_wire_size()?))
}

/// True when raw wire bytes of a value can be replayed at a different
/// stream offset: every item 4-aligned from the start (XDR/Fluke
/// word-orientation) and no per-item type descriptors.
pub(crate) fn position_independent(enc: &crate::encoding::Encoding) -> bool {
    enc.widen_to_word && !enc.typed_descriptors
}

impl MirPass for ReplyAlias {
    fn name(&self) -> &'static str {
        "reply-alias"
    }

    fn run(&self, mir: &mut StubPlans, cx: &PassCx) -> PlanResult<u64> {
        if !position_independent(cx.enc) {
            return Ok(0);
        }
        let mut decisions = 0;
        for stub in &mut mir.stubs {
            if stub.op.oneway {
                continue;
            }
            // The CoW contract replaces the operation's whole reply
            // with one `Echoed` value, so only sole-reply-slot stubs
            // can carry a mark.
            if stub.reply.slots.len() != 1 {
                continue;
            }
            let request = &stub.request.slots;
            let live_request = || request.iter().enumerate().filter(|(_, s)| s.live);
            for slot in &mut stub.reply.slots {
                if !slot.live || slot.alias.is_some() {
                    continue;
                }
                let target = if slot.name == "_return" {
                    // A return value aliases only when exactly one
                    // request slot could have produced it.
                    let mut matches = live_request().filter(|(_, s)| s.node == slot.node);
                    match (matches.next(), matches.next()) {
                        (Some((i, _)), None) => Some(i),
                        _ => None,
                    }
                } else {
                    // An inout parameter aliases its own request slot.
                    live_request()
                        .find(|(_, s)| s.name == slot.name && s.node == slot.node)
                        .map(|(i, _)| i)
                };
                // The echoed bytes, of a fixed size, must sit at a
                // static range.
                if let Some(i) = target.filter(|&i| echoed_range(request, i).is_some()) {
                    slot.alias = Some(i);
                    // An `Unchanged` reply is answered from the
                    // request's receive buffer: arena residence.
                    slot.storage = SlotStorage::Arena;
                    decisions += 1;
                }
            }
        }
        Ok(decisions)
    }
}
