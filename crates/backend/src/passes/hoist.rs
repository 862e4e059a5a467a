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
//!   fixed message would be wasteful (client stubs, dispatch replies):
//!   both fixed and bounded hoists respect the threshold.
//!
//! The pass also flips [`StubPlans::hoist`], which tells the emitters
//! that per-datum checks inside a hoisted region are covered.

use crate::layout::SizeClass;
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
        for stub in &mut mir.stubs {
            for msg in [&mut stub.request, &mut stub.reply] {
                msg.hoisted = match msg.class {
                    SizeClass::Fixed(n) => Some(n),
                    SizeClass::Bounded(n) if n <= THRESHOLD => Some(n),
                    _ => None,
                };
                msg.hoisted_capped = msg.class.bound().filter(|&n| n <= THRESHOLD);
                if msg.hoisted.is_some() {
                    decisions += 1;
                }
            }
        }
        Ok(decisions)
    }
}
