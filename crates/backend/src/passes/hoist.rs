//! `hoist-checks` (§3.1): one up-front space check per message.
//!
//! A fixed-size message always hoists its sender-side buffer check to
//! a single `ensure(n)`; a bounded message hoists only when the bound
//! is small enough to pre-reserve.  Two forms are recorded:
//!
//! * [`MsgPlan::hoisted`] — used where the message buffer is private
//!   to the stub (message marshal functions): fixed messages hoist at
//!   any size;
//! * [`MsgPlan::hoisted_capped`] — used where pre-reserving a huge
//!   fixed message would be wasteful (the C client stubs): both fixed
//!   and bounded hoists respect the threshold.
//!
//! A message with no static check to hoist — unbounded, or bounded past
//! the threshold — is reserved at run time instead when its size is a
//! cheap function of its values ([`sized_by_value`]): its variable parts
//! are strings, opaque or scalar sequences, and counted arrays of such,
//! through structs and fixed arrays.  [`MsgPlan::by_value`] records it;
//! the Rust encoder derives the size, the constant part plus terms over
//! the values' lengths, from the plan as it emits the one `ensure`.  The
//! reservation is the size, exact where the static-offset analysis knows
//! the offset and at its widest where it does not, so it needs no
//! threshold: it reserves what the message writes, however large.
//! Unions, optionals and recursive bodies keep their per-item checks.
//!
//! The pass also flips [`StubPlans::hoist`], which tells the emitters
//! that per-datum checks inside a hoisted region are covered.
//!
//! [`MsgPlan::by_value`]: crate::mir::MsgPlan::by_value

use crate::layout::{sized_by_value, SizeClass};
use crate::mir::{PlanResult, StubPlans};
use crate::passes::{MirPass, PassCx};

/// Largest bound (bytes) worth pre-reserving: bounded regions no
/// larger than this get a single hoisted check (the paper's 8 KB).
const THRESHOLD: u64 = 8 * 1024;

pub struct HoistChecks;

impl MirPass for HoistChecks {
    fn name(&self) -> &'static str {
        "hoist-checks"
    }

    fn run(&self, mir: &mut StubPlans, _cx: &PassCx) -> PlanResult<u64> {
        mir.hoist = true;
        let mut decisions = 0;
        let outlines = &mir.outlines;
        for stub in &mut mir.stubs {
            for msg in [&mut stub.request, &mut stub.reply] {
                // An empty body has nothing to check.
                msg.hoisted = match msg.class {
                    SizeClass::Fixed(n) => Some(n),
                    SizeClass::Bounded(n) if n <= THRESHOLD => Some(n),
                    _ => None,
                }
                .filter(|&n| n > 0);
                msg.hoisted_capped = msg.hoisted.filter(|&n| n <= THRESHOLD);
                msg.by_value = msg.hoisted.is_none()
                    && msg.class != SizeClass::Fixed(0)
                    && sized_by_value(msg.slots.iter().map(|s| &s.node), outlines);
                if msg.hoisted.is_some() || msg.by_value {
                    decisions += 1;
                }
            }
        }
        Ok(decisions)
    }
}
