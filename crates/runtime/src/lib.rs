//! Runtime substrate for Flick-generated stubs.
//!
//! The paper's back ends emit C that runs against a small support
//! library; this crate is the Rust analog, and the Rust stubs emitted
//! by `flick-backend` call directly into it.  It provides:
//!
//! * [`buf`] — the marshal buffer with **reuse between invocations**
//!   and an explicit [`MarshalBuf::ensure`] space check, plus the
//!   chunk writer/reader pair that realizes the paper's *chunking*
//!   optimization (one bounds decision per fixed-layout region,
//!   constant-offset accesses inside it);
//! * [`xdr`] — ONC RPC's External Data Representation (RFC 1832):
//!   big-endian, 4-byte units, padded opaques/strings;
//! * [`cdr`] — CORBA's Common Data Representation as used by IIOP:
//!   naturally aligned primitives in sender-chosen byte order;
//! * [`mach`] — Mach 3 typed messages: a header plus a type descriptor
//!   word before each data item;
//! * [`fluke`] — the Fluke kernel IPC format: the first few words of a
//!   message travel in a register window, the rest in a buffer;
//! * [`giop`] — GIOP/IIOP message, request, and reply headers;
//! * [`oncrpc`] — ONC RPC call/reply headers and TCP record marking;
//! * [`pool`] — thread-local checkout/recycle of marshal buffers so
//!   the warm call path allocates nothing per call, with a bounded
//!   free list and high-water capacity trimming;
//! * [`rng`] — the seeded SplitMix64 PRNG shared by fault injection,
//!   fuzzing, and backoff jitter (the workspace carries no `rand`);
//! * [`reply`] — the [`reply::Echoed`] copy-on-write reply contract
//!   that lets `reply-alias`ed operations answer with request bytes
//!   without a runtime compare;
//! * [`client`] — client-side deadlines, jittered retransmission, and
//!   the structured [`client::RpcError`] for datagram calls;
//! * [`deadline`] — wire deadline propagation: the per-call time
//!   budget a client stamps next to its trace context, decremented
//!   per hop, that lets servers refuse already-expired work;
//! * [`bridge`] — the transcoding gateway: accepts ONC call records,
//!   rewrites their bytes encoding-to-encoding through generated
//!   transcode tables, and forwards them as GIOP requests (and the
//!   replies back) without materializing the presentation;
//! * [`limits`] — per-server/per-fabric resource limits: the framing
//!   caps (configurable, defaulting to the historical 16 MiB
//!   constants) plus the fabric's pipelining and backpressure knobs;
//! * [`fabric`] — the multiplexed serving runtime: per-connection
//!   state machines with request pipelining, reply batching, and
//!   explicit backpressure, driven by thread-per-core worker loops
//!   over any transport implementing [`fabric::Conn`];
//! * [`metrics`] — marshal metrics hooks for the codec hot paths:
//!   one relaxed load and a branch while collection is off
//!   (`flick_telemetry::enabled()`), lock-free recording while on;
//! * [`trace`] — request-level tracing: [`trace::TraceContext`]
//!   propagated on the wire (ONC credential blob, GIOP service
//!   context), client/server spans the generated stubs open, and the
//!   journal events they feed.  Same contract as `metrics`;
//! * [`stats`] — point-in-time observability snapshots (text, JSON,
//!   and a per-operation latency table) for benches and `--stats`.
//!
//! Everything here is deliberately `no_std`-shaped (no I/O): transports
//! live in `flick-transport`.

pub mod bridge;
pub mod buf;
pub mod cdr;
pub mod client;
pub mod deadline;
pub mod error;
pub mod fabric;
pub mod fluke;
pub mod giop;
pub mod limits;
pub mod mach;
pub mod metrics;
pub mod oncrpc;
pub mod pod;
pub mod pool;
pub mod reply;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod xdr;

pub use buf::{ChunkReader, ChunkWriter, MarshalBuf, MsgReader};
pub use error::DecodeError;
pub use limits::Limits;
pub use pool::{checkout, PooledBuf};
pub use reply::Echoed;

/// Rounds `n` up to the next multiple of `align` (a power of two).
#[inline]
#[must_use]
pub fn align_up(n: usize, align: usize) -> usize {
    debug_assert!(align.is_power_of_two());
    (n + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_up_works() {
        assert_eq!(align_up(0, 4), 0);
        assert_eq!(align_up(1, 4), 4);
        assert_eq!(align_up(4, 4), 4);
        assert_eq!(align_up(5, 8), 8);
        assert_eq!(align_up(17, 2), 18);
    }
}
