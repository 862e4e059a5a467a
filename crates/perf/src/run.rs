//! One untraced run of one workload: five set-ups, the count pass,
//! the timed pass, and the seven end-to-end metrics.

use crate::harness::{self, CellCounts, CellTimes, Counts, HostStats};
use crate::inputs::Rng;
use crate::stats;
use crate::workloads;

/// The end-to-end metrics, as `BENCHMARK.json` names them.
#[derive(Clone, Copy, Debug, Default)]
pub struct EndToEnd {
    /// Median of the normalized set-ups, seconds.
    pub setup_s: f64,
    /// 1e9 / normalized ns per op, geomean over cells.
    pub ops_per_s: f64,
    /// Normalized median op latency, geomean over cells, µs.
    pub op_p50_us: f64,
    /// Payload bytes of one op of every cell over the normalized time
    /// they take, MB/s.
    pub payload_mbps: f64,
    /// Exact: bytes emitted per op.
    pub bytes_out_per_op: f64,
    /// Exact: heap allocations per op.
    pub allocs_per_op: f64,
    /// Exact: peak live heap during the count pass, KB.
    pub peak_heap_kb: f64,
}

/// Everything one untraced run of one workload produced.
#[derive(Clone, Debug)]
pub struct WorkloadRun {
    /// The workload.
    pub name: String,
    /// The gated metrics.
    pub e2e: EndToEnd,
    /// Per-cell timings.
    pub cells: Vec<CellTimes>,
    /// Per-cell exact counts.
    pub cell_counts: Vec<CellCounts>,
    /// Workload-level exact counts.
    pub counts: Counts,
    /// The host during the timed pass.
    pub host: HostStats,
    /// Raw (un-normalized) median set-up, seconds.
    pub setup_raw_s: f64,
    /// Raw (un-normalized) ops/s, geomean over cells.
    pub raw_ops_per_s: f64,
    /// Ops attempted in the count and timed passes.
    pub attempted: u64,
    /// Ops that failed a check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

/// How much of a run to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Depth {
    /// [`harness::SETUPS`] set-ups, the count pass, the timed pass:
    /// what the end-to-end metrics come from.
    Full,
    /// One set-up and the timed pass: what the layer ledger needs.
    TimedOnly,
    /// One set-up, 64 counted ops per cell, the timed pass: every
    /// check on, cheap enough for an unoptimized test build.
    Smoke,
}

/// Set-ups, count pass and timed pass of `name`.  `traced` selects the
/// span-recording rigs and collects span totals with that overhead
/// correction.
pub fn run_passes(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: Option<crate::trace::Overhead>,
    depth: Depth,
) -> WorkloadRun {
    let mut failures = Vec::new();
    let (setups, count_cap) = match depth {
        Depth::Full => (harness::SETUPS, usize::MAX),
        Depth::TimedOnly => (1, 0),
        Depth::Smoke => (1, 64),
    };
    let mut setups_norm = Vec::with_capacity(setups);
    let mut setups_raw = Vec::with_capacity(setups);
    let mut cells = Vec::new();
    let (mut heap_base, mut setup_failed) = (0, 0);
    for _ in 0..setups {
        // Each set-up starts from nothing: the previous rig is dropped
        // and this thread's buffer pool emptied first, so pools and
        // links are rebuilt, not reused — whatever ran before in this
        // process.
        drop(std::mem::take(&mut cells));
        flick_runtime::pool::drain();
        heap_base = crate::alloc::live();
        let done = harness::setup(
            |clock| workloads::build(name, seed, traced.is_some(), clock),
            &mut failures,
        );
        cells = done.cells;
        setups_norm.push(done.seconds);
        setups_raw.push(done.raw_seconds);
        setup_failed += done.failed;
    }
    let (counts, cell_counts) = if count_cap > 0 {
        harness::count_pass(&mut cells, count_cap, heap_base, &mut failures)
    } else {
        Default::default()
    };
    if traced.is_some() {
        // Spans recorded so far belong to set-up and counting.
        crate::trace::end_batch(crate::trace::Overhead::default());
    }
    let order = Rng::new(seed, 0x0de4).permutation(cells.len());
    let (times, host) = harness::timed_pass(&mut cells, &order, seconds, traced, &mut failures);

    let geo =
        |f: &dyn Fn(&CellTimes) -> f64| stats::geomean(&times.iter().map(f).collect::<Vec<_>>());
    let ns_per_op = geo(&|c| c.ns_per_op);
    let payload: f64 = times.iter().map(|c| c.payload_bytes as f64).sum();
    let mix_ns: f64 = times.iter().map(|c| c.ns_per_op).sum();
    let e2e = EndToEnd {
        setup_s: stats::median(&setups_norm),
        ops_per_s: 1e9 / ns_per_op,
        op_p50_us: geo(&|c| c.p50_ns()) / 1e3,
        payload_mbps: payload / mix_ns * 1e3,
        bytes_out_per_op: counts.bytes_out_per_op,
        allocs_per_op: counts.allocs_per_op,
        peak_heap_kb: counts.peak_heap_bytes as f64 / 1024.0,
    };
    let timed_attempted: u64 = times.iter().map(|c| c.attempted).sum();
    let timed_failed: u64 = times.iter().map(|c| c.failed).sum();
    WorkloadRun {
        name: name.to_string(),
        e2e,
        raw_ops_per_s: 1e9 / geo(&|c| c.raw_ns_per_op),
        cells: times,
        cell_counts,
        counts,
        host,
        setup_raw_s: stats::median(&setups_raw),
        attempted: counts.attempted + timed_attempted,
        failed: setup_failed + counts.failed + timed_failed,
        failures,
    }
}
