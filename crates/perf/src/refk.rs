//! The frozen reference kernel every timing is scaled by.
//!
//! The guest has no PMU, so a neighbour slowing the host shows up as
//! wall time with nothing to divide it by.  `refk` is that divisor: a
//! fixed piece of work that touches no code of the repository (format,
//! allocate, sort, hash), sampled immediately before and after every
//! timed batch.  A batch is reported as a multiple of its adjacent
//! samples, scaled to [`REF_NOMINAL_NS`] — the paper scales its numbers
//! to the host's measured copy bandwidth for the same reason.
//!
//! The kernel is frozen: its output hash is pinned by a test, and a
//! change to it invalidates every recorded number.

use std::time::Instant;

/// What one sample takes on the "nominal host" all normalized times
/// are expressed on.
pub const REF_NOMINAL_NS: f64 = 40_000.0;

/// Iterations per sample.
const ITERS: usize = 6;
/// Strings formatted, sorted and hashed per iteration.
const SYMS: usize = 64;
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// One sample's worth of work; returns the FNV-1a hash of everything
/// it produced, so the work cannot be optimized away and can be pinned.
#[must_use]
pub fn work() -> u64 {
    let mut state = SEED;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..ITERS {
        let mut syms: Vec<String> = Vec::with_capacity(SYMS);
        for _ in 0..SYMS {
            state = xorshift(state);
            syms.push(format!("sym_{state:x}"));
        }
        syms.sort();
        for s in &syms {
            for b in s.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Times one sample, in raw nanoseconds.
#[must_use]
pub fn sample() -> f64 {
    let t = Instant::now();
    std::hint::black_box(work());
    t.elapsed().as_nanos() as f64
}

/// Scales `raw_ns` measured between reference samples `before` and
/// `after` to nominal-host nanoseconds.
#[must_use]
pub fn normalize(raw_ns: f64, before: f64, after: f64) -> f64 {
    raw_ns / ((before + after) / 2.0) * REF_NOMINAL_NS
}
