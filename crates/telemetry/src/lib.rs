//! `flick-telemetry` — the observability substrate for the Flick
//! reproduction.
//!
//! The paper's whole argument is quantitative: the optimizations of
//! §3 buy 2–17× marshal throughput.  This crate makes the pipeline
//! *inspectable* so those claims can be checked on any build:
//!
//! * [`Counter`] — a lock-free monotonic counter (one relaxed
//!   `fetch_add` per event);
//! * [`Histogram`] — a fixed array of power-of-two buckets for
//!   latencies and sizes, also lock-free;
//! * [`Registry`] / [`global`] — a process-wide name → metric table
//!   with text and JSON snapshot export.  Registration takes a lock
//!   once per metric; recording never does;
//! * [`TraceReport`] — per-phase wall-time spans plus named decision
//!   counters, used by the compiler for `flickc --timings/--stats`;
//! * [`events`] — the flight recorder: a lock-free ring buffer of
//!   structured request events (trace/span ids, kind, operation,
//!   outcome) with text/JSON dump, a `FLICK_TRACE=path` at-exit dump,
//!   and a postmortem latch for the error paths;
//! * [`enabled`] / [`set_enabled`] — the global runtime switch, and
//!   the only one: every hook in the instrumented crates is compiled
//!   into every build and starts with a single relaxed atomic load of
//!   it, so a running process can be asked what it is doing without a
//!   rebuild or a restart.
//!
//! The crate is intentionally dependency-free (std only) so it can be
//! built offline and linked everywhere, including the runtime hot
//! paths.

pub mod counter;
pub mod events;
pub mod histogram;
pub mod json;
pub mod registry;
pub mod report;

pub use counter::Counter;
pub use events::{Event, EventRing, Outcome};
pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{global, MetricValue, Registry, Snapshot};
pub use report::{Span, TraceReport};

use std::sync::atomic::{AtomicU8, Ordering};
use std::time::Instant;

/// Tri-state so the first call can consult the environment exactly
/// once: 0 = undecided, 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether metric collection is switched on.
///
/// Defaults to the `FLICK_TELEMETRY` environment variable (`1` or
/// `true` enables) and can be overridden with [`set_enabled`] at any
/// time.  While off, a hook costs this one relaxed load and a branch.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        0 => init_from_env(),
        1 => false,
        _ => true,
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var("FLICK_TELEMETRY")
        .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        .unwrap_or(false);
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Switches metric collection on or off for the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Starts a wall-clock measurement iff collection is enabled.
///
/// Pair with [`elapsed_ns`]; keeping the disabled path to a single
/// branch means instrumented code need not check [`enabled`] itself.
#[inline]
#[must_use]
pub fn stopwatch() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Nanoseconds since `start`, saturating at `u64::MAX`; `None` in,
/// zero out (collection was off when the stopwatch started).
#[inline]
#[must_use]
pub fn elapsed_ns(start: Option<Instant>) -> u64 {
    match start {
        Some(t) => u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX),
        None => 0,
    }
}

/// Holds the process-global switch for one test: `cargo test` runs
/// tests side by side, so every test that flips [`set_enabled`] (or
/// reads the postmortem latch behind it) takes this first.  Dropping
/// it restores the switch, then lets the next test in.
#[cfg(test)]
pub(crate) struct SwitchHeld {
    was: bool,
    _turn: std::sync::MutexGuard<'static, ()>,
}

#[cfg(test)]
pub(crate) fn hold_switch(on: bool) -> SwitchHeld {
    static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A test that failed while holding its turn must not fail the rest.
    let turn = TURN
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let was = enabled();
    set_enabled(on);
    SwitchHeld { was, _turn: turn }
}

#[cfg(test)]
impl Drop for SwitchHeld {
    fn drop(&mut self) {
        set_enabled(self.was);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_flag_toggles() {
        let _switch = hold_switch(true);
        assert!(enabled());
        assert!(stopwatch().is_some());
        set_enabled(false);
        assert!(!enabled());
        assert!(stopwatch().is_none());
        assert_eq!(elapsed_ns(None), 0);
    }
}
