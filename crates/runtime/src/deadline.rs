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
//! # The round clock
//!
//! Anchoring every request with its own `clock_gettime` costs more
//! than parsing its header, and the answer is invariant over the
//! frames one read delivered.  So the serving path takes *arrival
//! time* from a per-thread round clock instead of the system clock:
//!
//! * `fabric::ConnDriver::pump` **opens** a round ([`open_round`], an
//!   RAII guard; a pump nested inside a handler on the same thread
//!   saves the enclosing round and restores it on return) and
//!   **refreshes** it ([`RoundGuard::refresh`]) right after a
//!   `read_into` that returned bytes;
//! * the first [`arrival_now`] inside a round — or after a refresh —
//!   reads the clock once and caches the instant; later ones reuse it.
//!   The header readers anchor the inbound budget there and
//!   [`inbound_expired`], the admission check generated stubs make,
//!   compares against the same instant.  A round that dispatches N
//!   budgeted frames therefore reads the clock at most twice (once
//!   for the backlog buffered by earlier rounds, once for what this
//!   round's read brought) where it used to read it 2 N times, and a
//!   round with no budgeted frame reads it not at all;
//! * everything that runs after arbitrary handler time stays
//!   **precise**: [`inbound_remaining_ns`], [`outbound_budget_ns`]'s
//!   inbound fallback, [`stamp_capped`], [`remaining_ns`],
//!   [`expired`].  Each precise reading also advances the round's
//!   instant, so an in-process next hop (a bridge calling its
//!   upstream's `handle_message` directly) is never anchored before
//!   the budget it was handed was computed.
//!
//! The bound this keeps: a request's arrival instant lies **between
//! the read that delivered its bytes and its dispatch** — never
//! earlier, so a frame is never charged for time before it reached
//! this process (which is why one instant is not shared across a
//! worker's whole connection sweep); never later than a clock read at
//! dispatch would be, so the time a frame spent queued behind earlier
//! frames of its batch *is* charged to its budget.  Outside a round
//! (direct `handle_call` loops, unit tests) [`arrival_now`] is
//! `Instant::now()`.
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
    /// The round clock (module doc).
    static ROUND: Cell<Round> = const { Cell::new(Round::Closed) };
}

#[derive(Clone, Copy)]
enum Round {
    /// No pump round is open on this thread.
    Closed,
    /// A round is open and nobody has asked it the time since it
    /// opened or was last refreshed.
    Unread,
    /// The round's arrival instant.
    At(Instant),
}

#[cfg(test)]
thread_local! {
    /// Precise clock reads made by this module on this thread.
    static PRECISE_READS: Cell<u64> = const { Cell::new(0) };
}

/// Precise clock reads made by this module on the calling thread so
/// far; tests pin per-round read counts by differencing it.
#[cfg(test)]
pub(crate) fn precise_reads() -> u64 {
    PRECISE_READS.with(Cell::get)
}

/// The one place this module reads the system clock.  Inside a round
/// the reading becomes the round's instant.
fn precise_now() -> Instant {
    #[cfg(test)]
    PRECISE_READS.with(|c| c.set(c.get() + 1));
    let now = Instant::now();
    ROUND.with(|c| {
        if !matches!(c.get(), Round::Closed) {
            c.set(Round::At(now));
        }
    });
    now
}

/// An open pump round (see [`open_round`]).  Dropping it closes the
/// round, restoring the enclosing round (and its instant) if there was
/// one.
pub struct RoundGuard {
    prev: Round,
}

impl RoundGuard {
    /// Forgets the round's cached instant, so bytes a read just
    /// delivered are never anchored before that read.
    pub fn refresh(&self) {
        ROUND.with(|c| c.set(Round::Unread));
    }
}

impl Drop for RoundGuard {
    fn drop(&mut self) {
        ROUND.with(|c| c.set(self.prev));
    }
}

/// Opens a pump round on this thread: until the guard drops,
/// [`arrival_now`] answers from one cached clock read (module doc).
#[must_use]
pub fn open_round() -> RoundGuard {
    RoundGuard {
        prev: ROUND.with(|c| c.replace(Round::Unread)),
    }
}

/// The arrival instant for a request being dispatched now: the open
/// round's cached instant (read on first use), or the system clock
/// outside a round.  Between the read that delivered the request's
/// bytes and its dispatch, always.
#[must_use]
pub fn arrival_now() -> Instant {
    match ROUND.with(Cell::get) {
        Round::At(t) => t,
        Round::Closed | Round::Unread => precise_now(),
    }
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
/// (its arrival instant — the header readers pass [`arrival_now`]).
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
    inbound_remaining_ns()
}

/// Remaining budget of the request being served on this thread *right
/// now* (a precise clock read), or `None` when it carried no budget.
/// This is what a handler asks mid-work.
#[must_use]
pub fn inbound_remaining_ns() -> Option<u64> {
    INBOUND.with(Cell::get).map(|(at, ns)| remaining_ns(at, ns))
}

/// Was the budget of the request being served already spent when it
/// was dispatched?  The admission question generated stubs ask between
/// header and argument decode: answered against [`arrival_now`], so
/// inside a pump round it costs no clock read.  A handler that wants
/// to know mid-work calls [`inbound_remaining_ns`].
#[must_use]
pub fn inbound_expired() -> bool {
    INBOUND
        .with(Cell::get)
        .is_some_and(|(at, ns)| left_at(arrival_now(), at, ns) == 0)
}

/// What is left at `now` of a budget of `budget_ns` anchored at `at`,
/// saturating at zero (and at the full budget when `now` precedes
/// `at`).
fn left_at(now: Instant, at: Instant, budget_ns: u64) -> u64 {
    let spent = u64::try_from(now.saturating_duration_since(at).as_nanos()).unwrap_or(u64::MAX);
    budget_ns.saturating_sub(spent)
}

/// What is left of a budget of `budget_ns` anchored at `at`, saturating
/// at zero.
#[must_use]
pub fn remaining_ns(at: Instant, budget_ns: u64) -> u64 {
    left_at(precise_now(), at, budget_ns)
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
        // ... and inside a round, where admission reads no clock.
        let _round = open_round();
        note_inbound(arrival_now(), 0);
        let before = precise_reads();
        assert!(inbound_expired());
        assert_eq!(precise_reads(), before);
        clear_inbound();
    }

    #[test]
    fn a_round_reads_the_clock_once_until_refreshed() {
        let before = precise_reads();
        let outside = (arrival_now(), arrival_now());
        assert_eq!(precise_reads() - before, 2, "no round: the system clock");
        {
            let round = open_round();
            let first = arrival_now();
            assert!(first >= outside.1);
            assert_eq!((arrival_now(), arrival_now()), (first, first));
            assert_eq!(precise_reads() - before, 3);
            round.refresh();
            assert_eq!(precise_reads() - before, 3, "forgetting is not reading");
            let second = arrival_now();
            assert!(second >= first);
            assert_eq!(arrival_now(), second);
            assert_eq!(precise_reads() - before, 4);
        }
        let _ = arrival_now();
        assert_eq!(precise_reads() - before, 5, "the guard closed the round");
    }

    #[test]
    fn precise_readings_advance_the_round() {
        let _round = open_round();
        let anchor = arrival_now();
        note_inbound(anchor, 60_000_000_000);
        std::thread::sleep(Duration::from_millis(2));
        let left = inbound_remaining_ns().expect("budget noted");
        assert!(left <= 60_000_000_000 - 2_000_000, "{left} ns left");
        // What this hop hands on was computed at the advanced instant,
        // so that is the earliest an in-process next hop may anchor.
        let before = precise_reads();
        assert!(arrival_now() >= anchor + Duration::from_millis(2));
        assert_eq!(precise_reads(), before);
        clear_inbound();
    }

    #[test]
    fn a_nested_round_restores_the_enclosing_one() {
        let _outer = open_round();
        let outer_at = arrival_now();
        {
            let _inner = open_round();
            std::thread::sleep(Duration::from_millis(1));
            assert!(arrival_now() > outer_at, "the inner round reads for itself");
        }
        let before = precise_reads();
        assert_eq!(arrival_now(), outer_at);
        assert_eq!(precise_reads(), before);
    }
}
