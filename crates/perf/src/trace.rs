//! Spans recorded from outside the program under test.
//!
//! Every span brackets one call from benchmark code into a layer's
//! public function (or the benchmark's own `Server` impl / upstream
//! closure, so the nesting pump → handle_call → handler is visible
//! without touching the runtime).  Spans live in a preallocated
//! thread-local buffer; nothing is formatted or written until the run
//! ends.
//!
//! Span sites are generic over `const ON: bool`: the untraced rigs are
//! monomorphized with `ON = false`, where a guard does nothing, so
//! end-to-end numbers never pay for tracing.
//!
//! A span's *self time* is its duration minus the durations of its
//! direct children.  Reading the clock is not free at this grain, so
//! self times are corrected with two calibrated constants: the part of
//! an empty span's cost that falls inside its own interval, and the
//! part that falls in its parent's.

use std::cell::RefCell;
use std::time::Instant;

/// Span names, one per instrumented boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// One whole operation as the client sees it.
    Call,
    /// Client: deadline stamp + protocol header + generated encode.
    ClientEncode,
    /// Client: record mark / GIOP size + write into the link.
    TransportWrite,
    /// `ConnDriver::pump`.
    Pump,
    /// Generated `handle_call` / `handle_message` (or the hosted
    /// bridge's `on_frame`).
    ServerHandle,
    /// The benchmark's `Server` impl method.
    HandlerWork,
    /// Client: read from the link + frame scan.
    TransportRead,
    /// Client: reply verdict + generated decode.
    ClientDecode,
    /// `Supervisor::forward` around the upstream closure.
    Supervisor,
    /// The upstream closure (generated IIOP server in-process).
    Upstream,
    /// One whole compile (`compile_source` / `recompile`).
    Compile,
}

/// How many [`Name`]s there are.
pub const NAMES: usize = Name::Compile as usize + 1;

const LABELS: [&str; NAMES] = [
    "rpc.call",
    "rpc.client_encode",
    "transport.write",
    "fabric.pump",
    "rpc.server_handle",
    "rpc.handler_work",
    "transport.read",
    "rpc.client_decode",
    "bridge.supervisor",
    "bridge.upstream",
    "compile.total",
];

impl Name {
    /// The span's name in `trace.json`.
    #[must_use]
    pub fn label(self) -> &'static str {
        LABELS[self as usize]
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded span: `{name, start_ns, end_ns, parent, op_id}`.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Which boundary.
    pub name: Name,
    /// Index of the enclosing span in the same batch, if any.
    pub parent: Option<u32>,
    /// The operation this span belongs to.
    pub op_id: u32,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

struct Raw {
    name: Name,
    parent: u32,
    op_id: u32,
    start: Instant,
    end: Instant,
}

struct Tracer {
    epoch: Instant,
    /// Spans of the batch in flight (parents precede children).
    batch: Vec<Raw>,
    /// Innermost open span.
    current: u32,
    op_id: u32,
    /// Spans that did not fit the batch buffer.
    dropped: u64,
    /// The first spans of the run, kept for `trace.json`.
    kept: Vec<Span>,
}

/// Spans one batch may record before further ones are dropped.
const BATCH_CAP: usize = 1 << 16;
/// Spans kept for `trace.json` (the file is a sample, the aggregates
/// see every span).
const KEEP_CAP: usize = 4096;

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Installs an empty tracer on this thread (preallocating its
/// buffers), replacing any previous one.
pub fn install() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            batch: Vec::with_capacity(BATCH_CAP),
            current: NO_PARENT,
            op_id: 0,
            dropped: 0,
            kept: Vec::with_capacity(KEEP_CAP),
        });
    });
}

/// Removes this thread's tracer, returning the spans it kept and how
/// many it had to drop.
pub fn uninstall() -> (Vec<Span>, u64) {
    TRACER.with(|t| {
        t.borrow_mut()
            .take()
            .map_or((Vec::new(), 0), |tr| (tr.kept, tr.dropped))
    })
}

/// An open span; closes when dropped.  Inert when `ON` is false.
pub struct Guard<const ON: bool> {
    idx: u32,
}

/// Opens a span named `name` under the innermost open span.
#[inline]
#[must_use]
pub fn enter<const ON: bool>(name: Name) -> Guard<ON> {
    if !ON {
        return Guard { idx: NO_PARENT };
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let Some(tr) = t.as_mut() else {
            return Guard { idx: NO_PARENT };
        };
        if tr.batch.len() >= BATCH_CAP {
            tr.dropped += 1;
            return Guard { idx: NO_PARENT };
        }
        let idx = tr.batch.len() as u32;
        tr.batch.push(Raw {
            name,
            parent: tr.current,
            op_id: tr.op_id,
            start: tr.epoch,
            end: tr.epoch,
        });
        tr.current = idx;
        // Read the clock last, so the push above lands in the parent's
        // interval and the span's own interval holds only its work.
        tr.batch[idx as usize].start = Instant::now();
        Guard { idx }
    })
}

impl<const ON: bool> Drop for Guard<ON> {
    #[inline]
    fn drop(&mut self) {
        if !ON || self.idx == NO_PARENT {
            return;
        }
        let end = Instant::now();
        TRACER.with(|t| {
            if let Some(tr) = t.borrow_mut().as_mut() {
                let raw = &mut tr.batch[self.idx as usize];
                raw.end = end;
                tr.current = raw.parent;
            }
        });
    }
}

/// Marks the start of the next operation: spans opened from here on
/// carry a new `op_id`.
#[inline]
pub fn next_op<const ON: bool>() {
    if ON {
        TRACER.with(|t| {
            if let Some(tr) = t.borrow_mut().as_mut() {
                tr.op_id = tr.op_id.wrapping_add(1);
            }
        });
    }
}

/// Forgets the spans recorded since the last batch ended (an untimed
/// lead-in op's, which belong to no batch).
pub fn discard_batch() {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            tr.batch.clear();
            tr.current = NO_PARENT;
        }
    });
}

/// Per-name totals over one batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchTotals {
    /// Sum of corrected self times, raw nanoseconds.
    pub self_ns: [f64; NAMES],
    /// Sum of durations, raw nanoseconds.
    pub total_ns: [f64; NAMES],
    /// Spans recorded.
    pub count: [u64; NAMES],
}

/// What an empty span costs, split by where the cost lands.
#[derive(Clone, Copy, Debug, Default)]
pub struct Overhead {
    /// Nanoseconds inside the span's own interval.
    pub inside_ns: f64,
    /// Nanoseconds in the parent's interval, per child.
    pub outside_ns: f64,
}

/// Closes the batch in flight: computes per-name self times (corrected
/// by `overhead`), moves spans into the kept sample while it has room,
/// and clears the batch buffer.
pub fn end_batch(overhead: Overhead) -> BatchTotals {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let mut totals = BatchTotals::default();
        let Some(tr) = t.as_mut() else {
            return totals;
        };
        let n = tr.batch.len();
        let mut self_ns: Vec<f64> = Vec::with_capacity(n);
        for raw in &tr.batch {
            self_ns.push((raw.end - raw.start).as_nanos() as f64 - overhead.inside_ns);
        }
        // Children follow their parents, so one forward pass settles
        // every parent before anything reads it.
        for i in 0..n {
            let raw = &tr.batch[i];
            if raw.parent != NO_PARENT {
                let dur = (raw.end - raw.start).as_nanos() as f64;
                self_ns[raw.parent as usize] -= dur + overhead.outside_ns;
            }
        }
        for (raw, own) in tr.batch.iter().zip(&self_ns) {
            let k = raw.name as usize;
            totals.self_ns[k] += own.max(0.0);
            totals.total_ns[k] +=
                ((raw.end - raw.start).as_nanos() as f64 - overhead.inside_ns).max(0.0);
            totals.count[k] += 1;
        }
        let room = KEEP_CAP - tr.kept.len();
        let epoch = tr.epoch;
        let ns = |at: Instant| (at - epoch).as_nanos() as u64;
        let base = tr.kept.len() as u32;
        // Keep whole batches only, so kept parent indices stay valid.
        if n <= room {
            for raw in &tr.batch {
                tr.kept.push(Span {
                    name: raw.name,
                    parent: (raw.parent != NO_PARENT).then(|| base + raw.parent),
                    op_id: raw.op_id,
                    start_ns: ns(raw.start),
                    end_ns: ns(raw.end),
                });
            }
        }
        tr.batch.clear();
        tr.current = NO_PARENT;
        totals
    })
}

/// Measures what an empty span costs on this host, by recording nested
/// empty spans the same way the workloads do.
#[must_use]
pub fn calibrate() -> Overhead {
    const N: usize = 2000;
    install();
    let mut inside = Vec::with_capacity(8);
    let mut whole = Vec::with_capacity(8);
    for _ in 0..8 {
        let t = Instant::now();
        for _ in 0..N {
            let _g = enter::<true>(Name::HandlerWork);
        }
        let per_span = t.elapsed().as_nanos() as f64 / N as f64;
        let totals = end_batch(Overhead::default());
        let k = Name::HandlerWork as usize;
        inside.push(totals.total_ns[k] / totals.count[k].max(1) as f64);
        whole.push(per_span);
    }
    uninstall();
    let inside_ns = crate::stats::median(&inside);
    Overhead {
        inside_ns,
        outside_ns: (crate::stats::median(&whole) - inside_ns).max(0.0),
    }
}

/// Renders kept spans as the `trace.json` document.
#[must_use]
pub fn to_json(groups: &[(String, Vec<Span>)]) -> String {
    use crate::json::Value;
    let num = |n: u64| Value::Num(n as f64);
    let workloads = groups.iter().map(|(workload, spans)| {
        let spans = spans.iter().map(|s| {
            Value::obj([
                ("name", Value::Str(s.name.label().to_string())),
                ("start_ns", num(s.start_ns)),
                ("end_ns", num(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| num(u64::from(p))),
                ),
                ("op_id", num(u64::from(s.op_id))),
            ])
        });
        (workload.clone(), Value::Arr(spans.collect()))
    });
    Value::obj([
        ("unit", Value::Str("ns".to_string())),
        ("workloads", Value::obj(workloads)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        install();
        next_op::<true>();
        {
            let _call = enter::<true>(Name::Call);
            spin(Duration::from_micros(200));
            {
                let _pump = enter::<true>(Name::Pump);
                spin(Duration::from_micros(300));
                {
                    let _h = enter::<true>(Name::ServerHandle);
                    spin(Duration::from_micros(500));
                }
            }
            {
                let _pump = enter::<true>(Name::Pump);
                spin(Duration::from_micros(100));
            }
        }
        let t = end_batch(Overhead::default());
        let us = |n: Name| t.self_ns[n as usize] / 1000.0;
        // Generous windows: a preempted test thread only adds time.
        assert!(
            (200.0..400.0).contains(&us(Name::Call)),
            "{}",
            us(Name::Call)
        );
        assert!(
            (400.0..600.0).contains(&us(Name::Pump)),
            "{}",
            us(Name::Pump)
        );
        assert!(us(Name::ServerHandle) >= 500.0);
        assert_eq!(t.count[Name::Pump as usize], 2);
        assert!(t.total_ns[Name::Call as usize] >= 1_100_000.0);
        let (kept, dropped) = uninstall();
        assert_eq!(dropped, 0);
        assert_eq!(kept.len(), 4);
        assert_eq!(kept[0].parent, None);
        assert_eq!(kept[1].parent, Some(0));
        assert_eq!(kept[2].parent, Some(1));
        assert_eq!(kept[3].parent, Some(0));
        assert!(kept.iter().all(|s| s.op_id == 1 && s.end_ns >= s.start_ns));
    }

    #[test]
    fn correction_subtracts_both_shares_of_the_overhead() {
        install();
        {
            let _call = enter::<true>(Name::Call);
            let _a = enter::<true>(Name::Pump);
        }
        let raw = end_batch(Overhead::default());
        install();
        {
            let _call = enter::<true>(Name::Call);
            let _a = enter::<true>(Name::Pump);
        }
        let big = Overhead {
            inside_ns: 1e9,
            outside_ns: 1e9,
        };
        let corrected = end_batch(big);
        uninstall();
        assert!(raw.self_ns[Name::Call as usize] >= 0.0);
        // Clamped at zero rather than negative.
        assert_eq!(corrected.self_ns[Name::Call as usize], 0.0);
        assert_eq!(corrected.self_ns[Name::Pump as usize], 0.0);
    }

    #[test]
    fn untraced_guards_record_nothing() {
        install();
        {
            let _g = enter::<false>(Name::Call);
            next_op::<false>();
        }
        let t = end_batch(Overhead::default());
        uninstall();
        assert_eq!(t.count.iter().sum::<u64>(), 0);
    }
}
