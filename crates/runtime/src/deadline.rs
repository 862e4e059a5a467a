//! Wire deadline propagation.
//!
//! A client that gives up after [`crate::client::CallOptions::deadline`]
//! gains nothing from a server that keeps decoding, dispatching, and
//! encoding a reply nobody will read.  This module carries the
//! client's remaining time *budget* across the wire next to the trace
//! context — as extra bytes in the same `FLKT` ONC credential blob and
//! GIOP service-context entry (see [`crate::trace`]) — so every hop
//! can refuse already-expired work before doing it.
//!
//! The mechanism is two thread-local registers, mirroring the trace
//! module's ambient-context design so intermediaries (the transcoding
//! bridge) propagate budgets without being changed:
//!
//! * the **outbound stamp** is set by a generated client stub from its
//!   `CallOptions` for the duration of one call ([`stamp_outbound`]
//!   returns a guard);
//! * the **inbound budget** is noted by `oncrpc::accept_call` /
//!   `giop::get_request_header_ref` when a request carries one
//!   ([`note_inbound`]), together with the arrival instant.
//!
//! When a request header is written, [`outbound_budget_ns`] prefers
//! the explicit stamp (a fresh client call) and otherwise falls back
//! to the inbound budget *minus the time spent here so far* — which is
//! exactly the per-hop decrement: a gateway forwarding a request
//! automatically hands its upstream whatever budget is left.
//!
//! Unlike tracing, deadline handling ignores the collection switch:
//! refusing expired work is a correctness/robustness property, not
//! telemetry.

use std::cell::Cell;
use std::time::{Duration, Instant};

thread_local! {
    /// Explicit budget for the call being encoded, if a client stub
    /// opened a stamp guard.  Nanoseconds.
    static OUTBOUND: Cell<Option<u64>> = const { Cell::new(None) };
    /// Budget carried by the request currently being served on this
    /// thread, with its arrival instant.
    static INBOUND: Cell<Option<(Instant, u64)>> = const { Cell::new(None) };
}

/// Clears the outbound stamp when a client call finishes encoding.
pub struct StampGuard {
    prev: Option<u64>,
}

impl Drop for StampGuard {
    fn drop(&mut self) {
        OUTBOUND.with(|c| c.set(self.prev));
    }
}

/// Declares the time budget for the call about to be encoded on this
/// thread.  Generated client stubs call this with
/// `CallOptions::deadline` just before writing the request header;
/// the header write picks it up via [`outbound_budget_ns`].  Nested
/// stamps restore the outer one on drop.
#[must_use]
pub fn stamp_outbound(budget: Duration) -> StampGuard {
    let ns = u64::try_from(budget.as_nanos()).unwrap_or(u64::MAX);
    let prev = OUTBOUND.with(|c| c.replace(Some(ns)));
    StampGuard { prev }
}

/// Like [`stamp_outbound`], but never promising more than what remains
/// of the inbound budget: a handler calling downstream under its own
/// `CallOptions` still cannot hand the next hop more time than the
/// request it is serving has left.  Generated client stubs use this
/// form; a fresh top-level client (no inbound budget) stamps its
/// deadline unchanged.
#[must_use]
pub fn stamp_capped(budget: Duration) -> StampGuard {
    let ns = u64::try_from(budget.as_nanos()).unwrap_or(u64::MAX);
    let eff = match inbound_remaining_ns() {
        Some(left) => ns.min(left),
        None => ns,
    };
    let prev = OUTBOUND.with(|c| c.replace(Some(eff)));
    StampGuard { prev }
}

/// Records the budget carried by an inbound request, anchored at `now`
/// (its arrival/decode instant).  Called by the header readers.
pub fn note_inbound(now: Instant, budget_ns: u64) {
    INBOUND.with(|c| c.set(Some((now, budget_ns))));
}

/// Forgets any inbound budget.  Called by the header readers when a
/// request arrives *without* a budget, so a stale note from a previous
/// request on this thread can never leak into the next one.
pub fn clear_inbound() {
    INBOUND.with(|c| c.set(None));
}

/// The budget to stamp on an outgoing request header, if any: the
/// explicit outbound stamp when a client stub opened one, otherwise
/// what remains of the inbound budget (the per-hop decrement).  A
/// fully spent inbound budget still propagates as `Some(0)` so the
/// next hop refuses the work rather than doing it.
#[must_use]
pub fn outbound_budget_ns() -> Option<u64> {
    if let Some(ns) = OUTBOUND.with(Cell::get) {
        return Some(ns);
    }
    INBOUND.with(Cell::get).map(|(at, ns)| remaining_ns(at, ns))
}

/// Remaining budget of the request being served on this thread, or
/// `None` when it carried no budget.
#[must_use]
pub fn inbound_remaining_ns() -> Option<u64> {
    INBOUND.with(Cell::get).map(|(at, ns)| remaining_ns(at, ns))
}

/// True when the request being served carried a budget that has
/// already run out.
#[must_use]
pub fn inbound_expired() -> bool {
    inbound_remaining_ns() == Some(0)
}

/// What is left of a budget of `budget_ns` anchored at `at`, saturating
/// at zero.
#[must_use]
pub fn remaining_ns(at: Instant, budget_ns: u64) -> u64 {
    let spent = u64::try_from(at.elapsed().as_nanos()).unwrap_or(u64::MAX);
    budget_ns.saturating_sub(spent)
}

/// True when a budget of `budget_ns` anchored at `at` has run out.
#[must_use]
pub fn expired(at: Instant, budget_ns: u64) -> bool {
    remaining_ns(at, budget_ns) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_guard_scopes_the_outbound_budget() {
        clear_inbound();
        assert_eq!(outbound_budget_ns(), None);
        {
            let _g = stamp_outbound(Duration::from_secs(1));
            assert_eq!(outbound_budget_ns(), Some(1_000_000_000));
            {
                let _inner = stamp_outbound(Duration::from_millis(5));
                assert_eq!(outbound_budget_ns(), Some(5_000_000));
            }
            // Nested stamp restored the outer one.
            assert_eq!(outbound_budget_ns(), Some(1_000_000_000));
        }
        assert_eq!(outbound_budget_ns(), None);
    }

    #[test]
    fn inbound_budget_decrements_toward_zero() {
        note_inbound(Instant::now(), 60_000_000_000);
        let left = inbound_remaining_ns().unwrap();
        assert!(left > 0 && left <= 60_000_000_000);
        assert!(!inbound_expired());

        // An already-ancient anchor is fully spent.
        note_inbound(Instant::now() - Duration::from_secs(2), 1_000_000);
        assert_eq!(inbound_remaining_ns(), Some(0));
        assert!(inbound_expired());
        clear_inbound();
        assert_eq!(inbound_remaining_ns(), None);
    }

    #[test]
    fn outbound_falls_back_to_inbound_remaining() {
        note_inbound(Instant::now(), 60_000_000_000);
        let forwarded = outbound_budget_ns().unwrap();
        assert!(forwarded > 0 && forwarded <= 60_000_000_000);

        // A spent inbound budget still propagates, as zero.
        note_inbound(Instant::now() - Duration::from_secs(2), 1);
        assert_eq!(outbound_budget_ns(), Some(0));

        // An explicit stamp wins over the fallback.
        let _g = stamp_outbound(Duration::from_millis(250));
        assert_eq!(outbound_budget_ns(), Some(250_000_000));
        clear_inbound();
    }

    #[test]
    fn capped_stamp_cannot_exceed_the_inbound_budget() {
        clear_inbound();
        {
            let _g = stamp_capped(Duration::from_secs(5));
            assert_eq!(outbound_budget_ns(), Some(5_000_000_000));
        }
        note_inbound(Instant::now(), 1_000_000); // 1 ms left upstream
        {
            let _g = stamp_capped(Duration::from_secs(5));
            let stamped = outbound_budget_ns().unwrap();
            assert!(
                stamped <= 1_000_000,
                "stamp {stamped} exceeds the serving budget"
            );
        }
        clear_inbound();
    }

    #[test]
    fn zero_budget_is_born_expired() {
        let now = Instant::now();
        assert!(expired(now, 0));
        note_inbound(now, 0);
        assert!(inbound_expired());
        clear_inbound();
    }
}
