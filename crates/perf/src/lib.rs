//! `flick-perf`: the repository's benchmark.
//!
//! Six single-threaded, closed-loop workloads drive the stack from
//! outside, through its public functions only.  Timings are reported
//! on a *nominal host*: every ≤ 300 µs batch is bracketed by a frozen
//! reference kernel ([`refk`]) and reported as a multiple of it, so a
//! neighbour slowing this machine moves both and cancels.  Counts
//! (bytes out, allocations, peak heap) come from a separate
//! fixed-length pass and repeat exactly.  See `README.md` in this
//! crate for the metric glossary and the method.

pub mod alloc;
pub mod cli;
pub mod compare;
pub mod harness;
pub mod inputs;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod refk;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;
