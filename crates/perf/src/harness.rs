//! The measuring loop: set-up, exact counts, reference-bracketed
//! batches.
//!
//! A workload is a set of *cells*.  Timed work runs in batches of a
//! fixed op count (sized in set-up to ≤ ~[`BATCH_TARGET_NS`]), cells
//! are visited round-robin batch by batch, and a reference-kernel
//! sample is taken between every two batches.  A batch's per-op time is
//! scaled by its two adjacent samples ([`refk::normalize`]); a cell's
//! value is the median over its batches; a workload's is the geometric
//! mean over its cells.  All of it happens on the calling thread.

use crate::alloc;
use crate::refk;
use crate::stats;
use crate::trace::{self, BatchTotals, Overhead, NAMES};
use std::time::Instant;

/// Target length of one timed batch, nominal nanoseconds.
pub const BATCH_TARGET_NS: f64 = 300_000.0;
/// Largest batch, in ops.
pub const MAX_BATCH_OPS: usize = 4096;
/// Ops per cell in the count pass.
pub const COUNT_OPS: usize = 4096;
/// From-scratch set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// A run whose reference samples spread wider than this (p90/p10) is
/// flagged `disturbed`.
pub const DISTURBED_SPREAD: f64 = 1.5;

/// What one call of [`Cell::run`] did.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOut {
    /// Ops that were refused, mismatched or undecodable.
    pub failed: u64,
    /// Bytes the system emitted (see `bytes_out_per_op`).
    pub bytes_out: u64,
}

/// Name under which a cell reports the median latency of a batch's
/// individual ops, where that is not the batch time over its ops.
pub const P50: &str = "p50_ns";
/// Name of the 99th-percentile companion of [`P50`].
pub const P99: &str = "p99_ns";

/// One code path under measurement, with its inputs and its rig.
pub trait Cell {
    /// The cell's name within its workload, e.g. `onc.ints.256`.
    fn name(&self) -> &str;
    /// Application payload bytes one op carries (no headers).
    fn payload_bytes(&self) -> u64;
    /// Ops per [`run`](Cell::run) call in the count pass (more than
    /// one only where an op needs company, as pipelined calls do).
    fn count_unit(&self) -> usize {
        1
    }
    /// Ops in the count pass.
    fn count_ops(&self) -> usize {
        COUNT_OPS
    }
    /// Runs `ops` operations back to back, checking each one's
    /// structure inline (ids, verdicts, lengths) and keeping the last
    /// one's outputs for [`verify_last`](Cell::verify_last).
    fn run(&mut self, ops: usize) -> RunOut;
    /// Checks the last op's outputs in full against references the
    /// code under test did not produce.  Called outside timed and
    /// counted windows.
    ///
    /// # Errors
    /// A description of the first mismatch.
    fn verify_last(&mut self) -> Result<(), String>;
    /// Raw-nanosecond timings the cell took itself during the last
    /// batch (per-call latencies, phase times the program reports), as
    /// `(name, ns)` pairs.  The harness normalizes each like the batch
    /// and keeps the median over batches.
    fn batch_times(&self, out: &mut Vec<(&'static str, f64)>) {
        let _ = out;
    }
    /// Counters accumulated since the cell was built, as `(name,
    /// value)` pairs; the layer ledger reads them.
    fn diagnostics(&self) -> Vec<(String, f64)> {
        Vec::new()
    }
}

/// Times the steps of one set-up, with a reference sample between
/// them.
pub struct SetupClock {
    refs: Vec<f64>,
    steps: Vec<f64>,
    started: Instant,
}

impl SetupClock {
    /// Starts the clock (after a reference sample).
    #[must_use]
    pub fn start() -> Self {
        let first = refk::sample();
        SetupClock {
            refs: vec![first],
            steps: Vec::new(),
            started: Instant::now(),
        }
    }

    /// Ends the current step and starts the next.
    pub fn step(&mut self) {
        self.steps.push(self.started.elapsed().as_nanos() as f64);
        self.refs.push(refk::sample());
        self.started = Instant::now();
    }

    /// `(normalized, raw)` total seconds over the finished steps.
    #[must_use]
    pub fn totals(&self) -> (f64, f64) {
        let norm: f64 = self
            .steps
            .iter()
            .enumerate()
            .map(|(i, &ns)| refk::normalize(ns, self.refs[i], self.refs[i + 1]))
            .sum();
        (norm / 1e9, self.steps.iter().sum::<f64>() / 1e9)
    }
}

/// A cell with its batch size.
pub struct Sized {
    /// The cell.
    pub cell: Box<dyn Cell>,
    /// Ops per timed batch.
    pub ops: usize,
}

/// Warm-up: runs every cell until pools, caches and buffer capacities
/// are steady (a fixed op count — the rigs reach their steady state
/// within a handful of ops), verifying as it goes.
fn warm(cells: &mut [Box<dyn Cell>], failures: &mut Vec<String>) -> u64 {
    let mut failed = 0;
    for cell in cells {
        let unit = cell.count_unit();
        let rounds = (64 / unit).clamp(2, 8);
        for _ in 0..rounds {
            let out = cell.run(unit);
            failed += out.failed;
            if out.failed > 0 {
                failures.push(format!(
                    "{}: {} op(s) failed in warm-up",
                    cell.name(),
                    out.failed
                ));
            }
            if let Err(e) = cell.verify_last() {
                failed += 1;
                failures.push(format!("{}: {e}", cell.name()));
            }
        }
    }
    failed
}

/// Sizes each cell's batch: the largest power-of-two multiple of its
/// count unit whose batch stays within [`BATCH_TARGET_NS`].
fn size(cells: Vec<Box<dyn Cell>>) -> Vec<Sized> {
    cells
        .into_iter()
        .map(|mut cell| {
            let unit = cell.count_unit();
            let mut trials = Vec::with_capacity(5);
            for _ in 0..5 {
                let before = refk::sample();
                let t = Instant::now();
                cell.run(unit);
                let ns = t.elapsed().as_nanos() as f64;
                let after = refk::sample();
                trials.push(refk::normalize(ns, before, after) / unit as f64);
            }
            let per_op = stats::median(&trials).max(1.0);
            let mut ops = unit;
            while ops * 2 <= MAX_BATCH_OPS.max(unit) && (ops * 2) as f64 * per_op <= BATCH_TARGET_NS
            {
                ops *= 2;
            }
            Sized { cell, ops }
        })
        .collect()
}

/// One finished set-up.
pub struct SetUp {
    /// The cells, warmed and sized.
    pub cells: Vec<Sized>,
    /// Normalized seconds it took.
    pub seconds: f64,
    /// Raw seconds it took.
    pub raw_seconds: f64,
    /// Ops that failed a check while warming.
    pub failed: u64,
}

/// A from-scratch set-up of one workload: `build` makes inputs, links
/// and drivers (stepping the clock between its own stages), then cells
/// are warmed and sized.
pub fn setup(
    build: impl FnOnce(&mut SetupClock) -> Vec<Box<dyn Cell>>,
    failures: &mut Vec<String>,
) -> SetUp {
    let mut clock = SetupClock::start();
    let mut cells = build(&mut clock);
    clock.step();
    let failed = warm(&mut cells, failures);
    clock.step();
    let cells = size(cells);
    clock.step();
    let (seconds, raw_seconds) = clock.totals();
    SetUp {
        cells,
        seconds,
        raw_seconds,
        failed,
    }
}

/// Exact per-op counts from the count pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// Bytes emitted per op, mean over cells.
    pub bytes_out_per_op: f64,
    /// Heap allocation events per op, mean over cells.
    pub allocs_per_op: f64,
    /// Heap bytes requested per op, mean over cells.
    pub alloc_bytes_per_op: f64,
    /// Live-heap high-water mark during counted ops, above the live
    /// heap before the workload was set up.
    pub peak_heap_bytes: usize,
    /// Ops run.
    pub attempted: u64,
    /// Ops that failed a check.
    pub failed: u64,
}

/// Per-cell exact counts, in cell order.
#[derive(Clone, Debug, Default)]
pub struct CellCounts {
    /// The cell's name.
    pub name: String,
    /// Bytes emitted per op.
    pub bytes_out_per_op: f64,
    /// Allocation events per op.
    pub allocs_per_op: f64,
}

/// The count pass: a fixed number of ops per cell (at most `cap`,
/// rounded up to the cell's unit), each one counted under the
/// allocator and then verified in full.  `heap_base` is the live heap
/// before the workload was set up; the peak is reported above it.
pub fn count_pass(
    cells: &mut [Sized],
    cap: usize,
    heap_base: usize,
    failures: &mut Vec<String>,
) -> (Counts, Vec<CellCounts>) {
    let mut total = Counts::default();
    let mut per_cell = Vec::with_capacity(cells.len());
    let (mut bytes_sum, mut allocs_sum, mut alloc_bytes_sum) = (0.0, 0.0, 0.0);
    for sized in cells.iter_mut() {
        let cell = &mut sized.cell;
        let unit = cell.count_unit();
        let ops = match cell.count_ops() {
            full if cap >= full => full,
            _ => cap.div_ceil(unit) * unit,
        };
        let (mut events, mut bytes, mut out_bytes, mut failed) = (0u64, 0u64, 0u64, 0u64);
        for _ in 0..ops / unit {
            alloc::reset_peak();
            let before = alloc::snapshot();
            let out = cell.run(unit);
            let after = alloc::snapshot();
            total.peak_heap_bytes = total
                .peak_heap_bytes
                .max(alloc::peak_live().saturating_sub(heap_base));
            events += after.events - before.events;
            bytes += after.bytes - before.bytes;
            out_bytes += out.bytes_out;
            failed += out.failed;
            if let Err(e) = cell.verify_last() {
                failed += 1;
                if failures.len() < 32 {
                    failures.push(format!("{}: {e}", cell.name()));
                }
            }
        }
        if failed > 0 && failures.len() < 32 {
            failures.push(format!(
                "{}: {failed} of {ops} counted ops failed",
                cell.name()
            ));
        }
        let n = ops as f64;
        bytes_sum += out_bytes as f64 / n;
        allocs_sum += events as f64 / n;
        alloc_bytes_sum += bytes as f64 / n;
        total.attempted += ops as u64;
        total.failed += failed;
        per_cell.push(CellCounts {
            name: cell.name().to_string(),
            bytes_out_per_op: out_bytes as f64 / n,
            allocs_per_op: events as f64 / n,
        });
    }
    let n = cells.len().max(1) as f64;
    total.bytes_out_per_op = bytes_sum / n;
    total.allocs_per_op = allocs_sum / n;
    total.alloc_bytes_per_op = alloc_bytes_sum / n;
    (total, per_cell)
}

/// What the timed pass saw of one cell.
#[derive(Clone, Debug)]
pub struct CellTimes {
    /// The cell's name.
    pub name: String,
    /// Application payload bytes per op.
    pub payload_bytes: u64,
    /// Ops per batch.
    pub ops_per_batch: usize,
    /// Batches behind the medians.
    pub batches: usize,
    /// Median normalized nanoseconds per op.
    pub ns_per_op: f64,
    /// Median raw nanoseconds per op.
    pub raw_ns_per_op: f64,
    /// Median over batches of each normalized [`Cell::batch_times`]
    /// entry.
    pub extra: Vec<(&'static str, f64)>,
    /// Median normalized self time per op, by span name (traced runs).
    pub self_ns: [f64; NAMES],
    /// Spans per op, by span name (traced runs).
    pub spans_per_op: [f64; NAMES],
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// The cell's own diagnostic counters.
    pub diagnostics: Vec<(String, f64)>,
}

impl CellTimes {
    /// The median of the cell's own timing `name`, if it reports one.
    #[must_use]
    pub fn extra(&self, name: &str) -> Option<f64> {
        self.extra.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Median op latency: the cell's own [`P50`] where it reports one,
    /// the batch time over its ops otherwise (depth-1 cells).
    #[must_use]
    pub fn p50_ns(&self) -> f64 {
        self.extra(P50).unwrap_or(self.ns_per_op)
    }

    /// A diagnostic counter by name.
    #[must_use]
    pub fn diagnostic(&self, name: &str) -> Option<f64> {
        self.diagnostics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// The host as the timed pass saw it.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostStats {
    /// Median raw reference sample.
    pub ref_ns: f64,
    /// p90 / p10 of the reference samples.
    pub ref_spread: f64,
    /// Reference samples taken.
    pub samples: usize,
}

impl HostStats {
    /// True when the reference itself moved too much to trust the run.
    #[must_use]
    pub fn disturbed(&self) -> bool {
        self.ref_spread > DISTURBED_SPREAD
    }
}

/// One timed batch, normalized.
struct Batch {
    norm: f64,
    raw: f64,
    extra: Vec<(&'static str, f64)>,
    self_ns: Option<[f64; NAMES]>,
}

#[derive(Default)]
struct Samples {
    batches: Vec<Batch>,
    spans: [u64; NAMES],
    ops: u64,
    failed: u64,
}

/// The timed pass: visits `cells` round-robin in `order` for
/// `seconds`, one reference-bracketed batch at a time.  With
/// `overhead` given, span totals are collected per batch as well.
pub fn timed_pass(
    cells: &mut [Sized],
    order: &[usize],
    seconds: f64,
    overhead: Option<Overhead>,
    failures: &mut Vec<String>,
) -> (Vec<CellTimes>, HostStats) {
    let mut samples: Vec<Samples> = cells.iter().map(|_| Samples::default()).collect();
    let mut refs = Vec::with_capacity(1 << 16);
    let mut own = Vec::new();
    let started = Instant::now();
    let mut before = refk::sample();
    refs.push(before);
    'rounds: loop {
        for &i in order {
            let Sized { cell, ops } = &mut cells[i];
            // The reference sample just evicted the cell's working
            // set.  One untimed op brings it back, so a batch's per-op
            // time does not depend on how many ops share that cost
            // (64 KiB cells read 8-10 % slower at 8 ops a batch than at
            // 16 without it).  One-op batches take it as it comes.
            let lead = if *ops > cell.count_unit() {
                let failed = cell.run(cell.count_unit()).failed;
                if overhead.is_some() {
                    trace::discard_batch();
                }
                failed
            } else {
                0
            };
            let t = Instant::now();
            let out = cell.run(*ops);
            let ns = t.elapsed().as_nanos() as f64;
            let after = refk::sample();
            refs.push(after);
            let totals: Option<BatchTotals> = overhead.map(trace::end_batch);
            let s = &mut samples[i];
            let n = *ops as f64;
            own.clear();
            cell.batch_times(&mut own);
            s.batches.push(Batch {
                norm: refk::normalize(ns, before, after) / n,
                raw: ns / n,
                extra: own
                    .iter()
                    .map(|&(name, raw)| (name, refk::normalize(raw, before, after)))
                    .collect(),
                self_ns: totals.map(|t| t.self_ns.map(|v| refk::normalize(v, before, after) / n)),
            });
            if let Some(t) = totals {
                for k in 0..NAMES {
                    s.spans[k] += t.count[k];
                }
            }
            s.ops += *ops as u64;
            s.failed += out.failed + lead;
            if let Err(e) = cell.verify_last() {
                s.failed += 1;
                if failures.len() < 32 {
                    failures.push(format!("{}: {e}", cell.name()));
                }
            }
            before = after;
        }
        if started.elapsed().as_secs_f64() >= seconds {
            break 'rounds;
        }
    }
    let sorted_refs = stats::sorted(&refs);
    let host = HostStats {
        ref_ns: stats::quantile_sorted(&sorted_refs, 0.5),
        ref_spread: stats::quantile_sorted(&sorted_refs, 0.9)
            / stats::quantile_sorted(&sorted_refs, 0.1),
        samples: refs.len(),
    };
    let times = cells
        .iter()
        .zip(samples)
        .map(|(sized, s)| {
            if s.failed > 0 && failures.len() < 32 {
                failures.push(format!(
                    "{}: {} of {} timed ops failed",
                    sized.cell.name(),
                    s.failed,
                    s.ops
                ));
            }
            let median_of = |f: &dyn Fn(&Batch) -> Option<f64>| {
                let v: Vec<f64> = s.batches.iter().filter_map(f).collect();
                (!v.is_empty()).then(|| stats::median(&v))
            };
            let mut self_ns = [0.0; NAMES];
            let mut spans_per_op = [0.0; NAMES];
            for k in 0..NAMES {
                self_ns[k] = median_of(&|b| b.self_ns.map(|row| row[k])).unwrap_or(0.0);
                spans_per_op[k] = s.spans[k] as f64 / s.ops.max(1) as f64;
            }
            let extra_names: Vec<&'static str> = s
                .batches
                .first()
                .map_or(Vec::new(), |b| b.extra.iter().map(|&(n, _)| n).collect());
            CellTimes {
                name: sized.cell.name().to_string(),
                payload_bytes: sized.cell.payload_bytes(),
                ops_per_batch: sized.ops,
                batches: s.batches.len(),
                ns_per_op: median_of(&|b| Some(b.norm)).unwrap_or(f64::NAN),
                raw_ns_per_op: median_of(&|b| Some(b.raw)).unwrap_or(f64::NAN),
                extra: extra_names
                    .into_iter()
                    .filter_map(|name| {
                        let at =
                            |b: &Batch| b.extra.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
                        Some((name, median_of(&at)?))
                    })
                    .collect(),
                self_ns,
                spans_per_op,
                attempted: s.ops,
                failed: s.failed,
                diagnostics: sized.cell.diagnostics(),
            }
        })
        .collect();
    (times, host)
}
