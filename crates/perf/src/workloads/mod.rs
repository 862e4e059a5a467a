//! The six workloads: what each one runs and why it exists.

pub mod bridge;
pub mod compile;
pub mod fanin;
pub mod marshal;
pub mod rpc;

use crate::harness::{Cell, SetupClock};

/// One workload's name and the one-line reason it exists.
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it was chosen.
    pub why: &'static str,
}

/// Every workload, in reporting order.
pub const ALL: [Workload; 6] = [
    Workload {
        name: "marshal",
        why: "stub encode+decode only: MIR passes, emit_rust and runtime buf/xdr/cdr do all the work, so a pass shows here or nowhere",
    },
    Workload {
        name: "rpc_small",
        why: "depth-1 calls with the smallest messages over ONC stream, ONC datagram and GIOP: per-message cost (headers, context blob, framing, admission, demux, pump round) dominates",
    },
    Workload {
        name: "rpc_bulk",
        why: "the same path with 64 KiB messages: bytes copied and marshaled dominate, so a header change must not move it and a copy elimination must",
    },
    Workload {
        name: "fanin",
        why: "2 links x 16 outstanding calls under Limits::tight(): pipelining, reply batching and admission only show with a window open",
    },
    Workload {
        name: "bridge",
        why: "ONC calls through BridgeHandler<Supervisor> to an in-process IIOP server: the only path with generated transcoders, both header codecs and the breaker",
    },
    Workload {
        name: "compile",
        why: "the compiler with zero runtime work: cold corpus, cold 48-operation interface, warm one-operation edit; cold beside warm shows a cache gain that costs the cold path",
    },
];

/// True when `name` is a workload.
#[must_use]
pub fn exists(name: &str) -> bool {
    ALL.iter().any(|w| w.name == name)
}

/// Builds `name`'s cells for `seed`, stepping `clock` between inputs
/// and rigs.  `traced` selects the span-recording rigs.
///
/// # Panics
/// When `name` is not a workload.
pub fn build(name: &str, seed: u64, traced: bool, clock: &mut SetupClock) -> Vec<Box<dyn Cell>> {
    match (name, traced) {
        ("marshal", _) => marshal::build(seed, clock),
        ("rpc_small", false) => rpc::build_small::<false>(seed, clock),
        ("rpc_small", true) => rpc::build_small::<true>(seed, clock),
        ("rpc_bulk", false) => rpc::build_bulk::<false>(seed, clock),
        ("rpc_bulk", true) => rpc::build_bulk::<true>(seed, clock),
        ("fanin", false) => fanin::build::<false>(seed, clock),
        ("fanin", true) => fanin::build::<true>(seed, clock),
        ("bridge", false) => bridge::build::<false>(seed, clock),
        ("bridge", true) => bridge::build::<true>(seed, clock),
        ("compile", false) => compile::build::<false>(seed, clock),
        ("compile", true) => compile::build::<true>(seed, clock),
        (other, _) => panic!("unknown workload `{other}`"),
    }
}
