//! The flight recorder: a fixed-capacity, lock-free MPSC ring buffer
//! of structured request events.
//!
//! Producers are the runtime trace hooks (client/server spans, wire
//! sends, protocol rejects) and the transport fault injector; the one
//! consumer is a dump — at process exit (`FLICK_TRACE=path`), on
//! demand ([`snapshot`]), or from the [`dump_on_error`] postmortem
//! latch.  The ring holds the last [`JOURNAL_CAPACITY`] events and
//! overwrites the oldest; a postmortem freezes the tail at the moment
//! something went wrong, so "what happened just before the reject" is
//! answerable even after the ring has wrapped past it.
//!
//! Recording is wait-free: one `fetch_add` for a ticket plus a
//! slot-claim CAS.  A writer that finds its slot still claimed by a
//! lapped, stalled writer drops its event (counted in
//! [`dropped_total`]) instead of blocking — the journal is diagnostic,
//! never load-bearing.  When collection is disabled
//! ([`crate::enabled`] false) nothing is allocated or written.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json;

/// Events kept by the global journal (the last N survive).
pub const JOURNAL_CAPACITY: usize = 16 * 1024;

/// Events captured by a [`dump_on_error`] postmortem.
pub const POSTMORTEM_EVENTS: usize = 64;

/// How an event's operation turned out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Not an outcome-bearing event (span open, phase mark, send).
    Info,
    /// The operation completed.
    Ok,
    /// The operation failed (timeout, decode error, refusal).
    Err,
}

impl Outcome {
    /// Short name used by the text and JSON dumps.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Info => "info",
            Outcome::Ok => "ok",
            Outcome::Err => "err",
        }
    }
}

/// One structured record in the flight recorder.
///
/// `kind` is a dotted static label (`client.begin`, `server.phase.decode`,
/// `fault`, ...); `op` names the operation (or the fault/codec kind for
/// runtime-level events).  Span relationships are explicit: a server
/// span's `parent_id` is the client span id it was propagated from, a
/// phase event's `parent_id` is its server span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Monotonic nanoseconds since the journal first recorded.
    pub ts_ns: u64,
    /// Trace id shared by every span of one request (0 = untraced).
    pub trace_id: u64,
    /// This event's span id (0 = not a span).
    pub span_id: u64,
    /// Enclosing span id (0 = root).
    pub parent_id: u64,
    /// Event kind, a static dotted label.
    pub kind: &'static str,
    /// Operation name (or fault kind / codec for runtime events).
    pub op: &'static str,
    /// Byte size the event is about (message size, 0 if n/a).
    pub bytes: u64,
    /// Outcome, for span-closing events.
    pub outcome: Outcome,
}

impl Event {
    /// An all-zero `Info` event for `kind`/`op` — callers fill in the
    /// fields they know.  `ts_ns` is stamped by [`record`].
    #[must_use]
    pub fn new(kind: &'static str, op: &'static str) -> Self {
        Event {
            ts_ns: 0,
            trace_id: 0,
            span_id: 0,
            parent_id: 0,
            kind,
            op,
            bytes: 0,
            outcome: Outcome::Info,
        }
    }
}

const EMPTY: Event = Event {
    ts_ns: 0,
    trace_id: 0,
    span_id: 0,
    parent_id: 0,
    kind: "",
    op: "",
    bytes: 0,
    outcome: Outcome::Info,
};

/// One seqlock-guarded slot.  `seq` encodes the ticket generation:
/// `2t+1` while ticket `t` writes, `2t+2` once stable.
struct Slot {
    seq: AtomicU64,
    data: UnsafeCell<Event>,
}

/// A fixed-capacity MPSC ring of [`Event`]s.
///
/// Multiple producers, snapshot consumers.  See the module docs for
/// the progress guarantees.
pub struct EventRing {
    slots: Box<[Slot]>,
    cursor: AtomicU64,
    dropped: AtomicU64,
}

// Slots are raced on deliberately, with seq numbers detecting torn
// reads; Event is Copy and read back via volatile loads.
unsafe impl Sync for EventRing {}
unsafe impl Send for EventRing {}

impl EventRing {
    /// A ring holding the last `capacity` events (rounded up to 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let slots = (0..capacity)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                data: UnsafeCell::new(EMPTY),
            })
            .collect();
        EventRing {
            slots,
            cursor: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever offered to the ring (including overwritten
    /// and dropped ones).
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Events dropped because a lapped writer still held the slot.
    #[must_use]
    pub fn dropped_total(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Appends one event, overwriting the oldest once full.
    pub fn push(&self, ev: Event) {
        let n = self.slots.len() as u64;
        let t = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(t % n) as usize];
        // Claim the slot from its previous stable generation.  Losing
        // the race means a writer n tickets behind is still mid-write:
        // drop rather than tear its data.
        let prev = if t < n { 0 } else { 2 * (t - n) + 2 };
        if slot
            .seq
            .compare_exchange(prev, 2 * t + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        unsafe { slot.data.get().write_volatile(ev) };
        slot.seq.store(2 * t + 2, Ordering::Release);
    }

    /// A best-effort copy of the ring's contents, oldest first.
    /// Slots mid-write by a concurrent producer are skipped.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Event> {
        let n = self.slots.len() as u64;
        let end = self.cursor.load(Ordering::Acquire);
        let start = end.saturating_sub(n);
        let mut out = Vec::with_capacity((end - start) as usize);
        for t in start..end {
            let slot = &self.slots[(t % n) as usize];
            if slot.seq.load(Ordering::Acquire) != 2 * t + 2 {
                continue; // claimed but unwritten, or already lapped
            }
            let ev = unsafe { slot.data.get().read_volatile() };
            if slot.seq.load(Ordering::Acquire) == 2 * t + 2 {
                out.push(ev);
            }
        }
        out
    }

    /// Empties the ring (test isolation).  Not safe against concurrent
    /// producers — callers serialize around it.
    pub fn reset(&self) {
        for slot in self.slots.iter() {
            slot.seq.store(0, Ordering::Relaxed);
            unsafe { slot.data.get().write_volatile(EMPTY) };
        }
        self.cursor.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
    }
}

/// The process-wide journal.  Allocated on first use; untouched (and
/// unallocated) while collection stays disabled.
#[must_use]
pub fn journal() -> &'static EventRing {
    static JOURNAL: OnceLock<EventRing> = OnceLock::new();
    JOURNAL.get_or_init(|| {
        install_exit_dump();
        EventRing::new(JOURNAL_CAPACITY)
    })
}

fn clock_zero() -> Instant {
    static ZERO: OnceLock<Instant> = OnceLock::new();
    *ZERO.get_or_init(Instant::now)
}

/// Monotonic nanoseconds on the journal clock.
#[must_use]
pub fn now_ns() -> u64 {
    u64::try_from(clock_zero().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Stamps `ev` with the journal clock and appends it to the global
/// journal.  No-op while collection is disabled.
#[inline]
pub fn record(mut ev: Event) {
    if !crate::enabled() {
        return;
    }
    ev.ts_ns = now_ns();
    journal().push(ev);
}

/// A point-in-time copy of the global journal, oldest event first.
#[must_use]
pub fn snapshot() -> Vec<Event> {
    journal().snapshot()
}

/// Postmortem hook: freezes the last [`POSTMORTEM_EVENTS`] journal
/// events (plus the reason) in a latch that [`last_postmortem`]
/// returns, and appends a `postmortem` marker event.  Called from the
/// protocol-error and decode-error paths; returns how many events the
/// capture holds.
pub fn dump_on_error(reason: &'static str) -> usize {
    if !crate::enabled() {
        return 0;
    }
    let mut tail = snapshot();
    let keep = tail.len().saturating_sub(POSTMORTEM_EVENTS);
    tail.drain(..keep);
    let n = tail.len();
    *postmortem_latch()
        .lock()
        .expect("postmortem latch poisoned") = Some((reason, tail));
    record(Event::new("postmortem", reason));
    n
}

/// A latched postmortem capture: the trigger reason plus the journal
/// tail at the moment it fired.
type Postmortem = (&'static str, Vec<Event>);

fn postmortem_latch() -> &'static Mutex<Option<Postmortem>> {
    static LATCH: OnceLock<Mutex<Option<Postmortem>>> = OnceLock::new();
    LATCH.get_or_init(|| Mutex::new(None))
}

/// The most recent [`dump_on_error`] capture, if any.
#[must_use]
pub fn last_postmortem() -> Option<Postmortem> {
    postmortem_latch()
        .lock()
        .expect("postmortem latch poisoned")
        .clone()
}

/// Renders events as fixed-width text, one line each.
#[must_use]
pub fn to_text(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&format!(
            "{:>12} {:016x}/{:016x}<-{:016x} {:<20} {:<16} {:>8}B {}\n",
            e.ts_ns,
            e.trace_id,
            e.span_id,
            e.parent_id,
            e.kind,
            e.op,
            e.bytes,
            e.outcome.name(),
        ));
    }
    out
}

/// Renders events as a JSON array of objects (one per event).
#[must_use]
pub fn to_json(events: &[Event]) -> String {
    let mut out = String::from("[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut o = json::ObjectWriter::new();
        o.u64_field("ts_ns", e.ts_ns)
            .u64_field("trace_id", e.trace_id)
            .u64_field("span_id", e.span_id)
            .u64_field("parent_id", e.parent_id)
            .str_field("kind", e.kind)
            .str_field("op", e.op)
            .u64_field("bytes", e.bytes)
            .str_field("outcome", e.outcome.name());
        out.push_str(&o.finish());
    }
    out.push(']');
    out
}

/// Writes the current journal snapshot to `path` as JSON.
///
/// # Errors
/// Propagates the underlying filesystem error.
pub fn dump_to_path(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, to_json(&snapshot()))
}

/// Installs the `FLICK_TRACE=path` at-exit dump once.  Harmless when
/// the variable is unset.  (Unix only: registration rides libc
/// `atexit`, which std links regardless.)
fn install_exit_dump() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        if trace_path().is_some() {
            #[cfg(unix)]
            unsafe {
                atexit(exit_dump);
            }
        }
    });
}

fn trace_path() -> Option<&'static std::path::PathBuf> {
    static PATH: OnceLock<Option<std::path::PathBuf>> = OnceLock::new();
    PATH.get_or_init(|| std::env::var_os("FLICK_TRACE").map(std::path::PathBuf::from))
        .as_ref()
}

#[cfg(unix)]
extern "C" {
    fn atexit(cb: extern "C" fn()) -> i32;
}

extern "C" fn exit_dump() {
    if let Some(path) = trace_path() {
        let _ = dump_to_path(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: &'static str, span: u64) -> Event {
        Event {
            span_id: span,
            ..Event::new(kind, "op")
        }
    }

    #[test]
    fn ring_keeps_the_last_capacity_events_in_order() {
        let r = EventRing::new(4);
        for i in 0..10u64 {
            r.push(ev("k", i));
        }
        let got: Vec<u64> = r.snapshot().iter().map(|e| e.span_id).collect();
        assert_eq!(got, vec![6, 7, 8, 9]);
        assert_eq!(r.total_recorded(), 10);
        assert_eq!(r.dropped_total(), 0);
    }

    #[test]
    fn ring_reset_empties() {
        let r = EventRing::new(4);
        r.push(ev("k", 1));
        r.reset();
        assert!(r.snapshot().is_empty());
        assert_eq!(r.total_recorded(), 0);
    }

    #[test]
    fn concurrent_producers_lose_nothing_within_capacity() {
        let r = std::sync::Arc::new(EventRing::new(4096));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..512u64 {
                    r.push(ev("k", t * 10_000 + i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.len() as u64 + r.dropped_total(), 4 * 512);
        // Per-producer order is preserved.
        for t in 0..4u64 {
            let mine: Vec<u64> = snap
                .iter()
                .map(|e| e.span_id)
                .filter(|s| s / 10_000 == t)
                .collect();
            assert!(mine.windows(2).all(|w| w[0] < w[1]), "producer {t} order");
        }
    }

    #[test]
    fn record_respects_the_enable_flag_and_stamps_time() {
        let _switch = crate::hold_switch(false);
        let before = journal().total_recorded();
        record(Event::new("test.disabled", "x"));
        assert_eq!(journal().total_recorded(), before);

        crate::set_enabled(true);
        record(Event::new("test.enabled", "x"));
        let snap = snapshot();
        let mine = snap
            .iter()
            .rev()
            .find(|e| e.kind == "test.enabled")
            .expect("recorded");
        assert!(mine.ts_ns > 0 || snap.len() == 1);
    }

    #[test]
    fn text_and_json_dumps_render() {
        let events = vec![
            Event {
                ts_ns: 5,
                trace_id: 1,
                span_id: 2,
                parent_id: 0,
                kind: "client.begin",
                op: "send_ints",
                bytes: 64,
                outcome: Outcome::Info,
            },
            Event {
                outcome: Outcome::Err,
                ..Event::new("client.end", "send_ints")
            },
        ];
        let text = to_text(&events);
        assert!(text.contains("client.begin"));
        assert!(text.contains("send_ints"));
        let json = to_json(&events);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"kind\":\"client.begin\""));
        assert!(json.contains("\"outcome\":\"err\""));
        assert_eq!(to_json(&[]), "[]");
    }

    #[test]
    fn postmortem_latches_the_tail() {
        let _switch = crate::hold_switch(true);
        for i in 0..(POSTMORTEM_EVENTS as u64 + 8) {
            record(ev("test.pm", i));
        }
        let n = dump_on_error("unit-test");
        assert!(n > 0 && n <= POSTMORTEM_EVENTS);
        let (reason, tail) = last_postmortem().expect("latched");
        assert_eq!(reason, "unit-test");
        assert_eq!(tail.len(), n);
    }

    #[test]
    fn dump_to_path_writes_parseable_json() {
        let _switch = crate::hold_switch(true);
        record(Event::new("test.dump", "x"));
        let path = std::env::temp_dir().join(format!("flick-journal-{}.json", std::process::id()));
        dump_to_path(&path).expect("writes");
        let body = std::fs::read_to_string(&path).expect("reads back");
        assert!(body.starts_with('[') && body.ends_with(']'));
        let _ = std::fs::remove_file(&path);
    }
}
