//! Marshal metrics hooks for the runtime hot paths.
//!
//! Every hook is `#[inline]` and starts with one relaxed load of
//! `flick_telemetry::enabled()`.  While collection is off nothing is
//! registered, counted or allocated; `FLICK_TELEMETRY=1`, or a
//! `set_enabled(true)` at any point in the process's life, registers the
//! handles on the next event and records from there.
//!
//! Event counters are the variants of [`Metric`], bumped with [`inc`] /
//! [`add`].  Encode sites call [`encode_begin`] when message
//! construction starts (e.g. `giop::begin_message`) and [`encode_end`]
//! when the message is complete; `encode_end` without a matching begin
//! still counts the message and its size, it just skips the latency
//! histogram.  Decode sites bracket the work they can see the same way.

use flick_telemetry::{global, Counter, Histogram};
use std::{cell::RefCell, sync::OnceLock, time::Instant};

/// The wire format being measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Codec {
    /// CORBA CDR (GIOP/IIOP messages).
    Cdr,
    /// ONC RPC XDR (record-marked messages).
    Xdr,
    /// Mach 3 typed messages.
    Mach,
    /// Fluke register-window messages.
    Fluke,
}

impl Codec {
    /// Metric-name component.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Codec::Cdr => "cdr",
            Codec::Xdr => "xdr",
            Codec::Mach => "mach",
            Codec::Fluke => "fluke",
        }
    }
}

macro_rules! metrics {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
        /// Every fixed-name event counter the runtime keeps.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Metric {
            $($(#[$doc])* $variant,)*
        }

        impl Metric {
            /// Every variant with its registry name, in declaration
            /// order: `ALL[m as usize]` is `m`'s row.
            pub const ALL: &'static [(Metric, &'static str)] =
                &[$((Metric::$variant, $name)),*];
        }
    };
}

metrics! {
    // Malformed or hostile messages rejected, per codec.
    RejectCdr => "decode.reject.cdr",
    RejectXdr => "decode.reject.xdr",
    RejectMach => "decode.reject.mach",
    RejectFluke => "decode.reject.fluke",
    /// A client retransmitted a call.
    RpcRetry => "rpc.retry",
    /// A client abandoned a call at its deadline.
    RpcTimeout => "rpc.timeout",
    /// A request arrived with its propagated budget already spent.
    RpcExpired => "rpc.expired",
    /// The transcoding gateway forwarded a request end-to-end.
    BridgeForwarded => "bridge.forwarded",
    /// The gateway rejected a request (bad bytes, unknown procedure, dead upstream).
    BridgeRejected => "bridge.rejected",
    /// The gateway served a request through the naive decode-and-re-encode path.
    BridgeFallback => "bridge.fallback",
    /// The bridge's upstream circuit breaker tripped open.
    BreakerOpen => "bridge.breaker.open",
    /// The breaker closed again after a successful probe.
    BreakerClose => "bridge.breaker.close",
    /// A request failed fast while the breaker was open.
    BreakerFastfail => "bridge.breaker.fastfail",
    /// An idempotent-operation retry was spent against the upstream.
    BreakerRetry => "bridge.breaker.retry",
    /// A connection was accepted into a fabric.
    FabricConnOpen => "fabric.conn.open",
    /// A connection closed normally.
    FabricConnClosed => "fabric.conn.closed",
    /// A connection was evicted: framing violation or oversized frame.
    FabricConnEvicted => "fabric.conn.evicted",
    /// A pump round skipped its read: the reply queue was over the limit.
    FabricBackpressure => "fabric.backpressure",
    /// A batch of replies was framed for one coalesced flush.
    FabricBatchFlush => "fabric.batch.flush",
    /// Replies framed, summed over all batches.
    FabricBatchRecords => "fabric.batch.records",
    // Requests shed at admission, by refusal protocol.
    FabricShedOnc => "fabric.shed.onc",
    FabricShedGiop => "fabric.shed.giop",
    /// A connection was closed by a graceful drain.
    FabricDrained => "fabric.drained",
    /// A buffer checkout was served from the thread's free list.
    PoolHit => "pool.hit",
    /// A buffer checkout had to create a buffer.
    PoolMiss => "pool.miss",
    /// A buffer was returned to the free list.
    PoolRecycle => "pool.recycle",
}

/// Counts one `metric` event.
#[inline]
pub fn inc(metric: Metric) {
    add(metric, 1);
}

/// Counts `n` `metric` events.
#[inline]
pub fn add(metric: Metric, n: u64) {
    if !flick_telemetry::enabled() {
        return;
    }
    static HANDLES: OnceLock<Vec<&'static Counter>> = OnceLock::new();
    let handles = HANDLES.get_or_init(|| {
        let r = global();
        Metric::ALL.iter().map(|&(_, n)| r.counter(n)).collect()
    });
    handles[metric as usize].add(n);
}

/// Records one rejected (malformed/hostile) message for `codec` —
/// the `decode.reject.<codec>` counter, a journal event, and the
/// postmortem latch (rejects are exactly the moments a flight
/// recording is for).
#[inline]
pub fn reject(codec: Codec) {
    inc(match codec {
        Codec::Cdr => Metric::RejectCdr,
        Codec::Xdr => Metric::RejectXdr,
        Codec::Mach => Metric::RejectMach,
        Codec::Fluke => Metric::RejectFluke,
    });
    crate::trace::reject_event(codec.name());
}

/// Counts [`Metric::RpcExpired`]; generated servers call it by this name.
#[inline]
pub fn rpc_expired() {
    inc(Metric::RpcExpired);
}

/// One direction of message traffic: a `<base>.{msgs,bytes,size,ns}`
/// quad (`flick_transport::metrics` keeps its send/recv tables in these).
pub struct Dir {
    msgs: &'static Counter,
    bytes: &'static Counter,
    size: &'static Histogram,
    ns: &'static Histogram,
}

impl Dir {
    /// Registers the `<prefix>.<kind>.<op>.*` quads, indexed `[op][kind]`.
    #[must_use]
    pub fn table(prefix: &str, kinds: [&str; 4], ops: [&str; 2]) -> [[Dir; 4]; 2] {
        let r = global();
        ops.map(|op| {
            kinds.map(|kind| {
                let base = format!("{prefix}.{kind}.{op}");
                Dir {
                    msgs: r.counter(&format!("{base}.msgs")),
                    bytes: r.counter(&format!("{base}.bytes")),
                    size: r.histogram(&format!("{base}.size")),
                    ns: r.histogram(&format!("{base}.ns")),
                }
            })
        })
    }

    /// Records one message of `bytes` size that took `ns` nanoseconds
    /// (zero — no stopwatch was running — skips the latency histogram).
    pub fn record(&self, bytes: u64, ns: u64) {
        self.msgs.inc();
        self.bytes.add(bytes);
        self.size.record(bytes);
        if ns > 0 {
            self.ns.record(ns);
        }
    }
}

// Per-thread stopwatches, indexed like the `Dir` table: `[decode][codec]`.
thread_local! {
    static STARTS: RefCell<[[Option<Instant>; 4]; 2]> = const { RefCell::new([[None; 4]; 2]) };
}

#[inline]
fn begin(codec: Codec, decode: bool) {
    if !flick_telemetry::enabled() {
        return;
    }
    STARTS.with(|s| s.borrow_mut()[usize::from(decode)][codec as usize] = Some(Instant::now()));
}

#[inline]
fn end(codec: Codec, decode: bool, bytes: u64) {
    if !flick_telemetry::enabled() {
        return;
    }
    static DIRS: OnceLock<[[Dir; 4]; 2]> = OnceLock::new();
    let dirs = DIRS.get_or_init(|| {
        let codecs = [Codec::Cdr, Codec::Xdr, Codec::Mach, Codec::Fluke];
        Dir::table("runtime", codecs.map(Codec::name), ["encode", "decode"])
    });
    let start = STARTS.with(|s| s.borrow_mut()[usize::from(decode)][codec as usize].take());
    dirs[usize::from(decode)][codec as usize].record(bytes, flick_telemetry::elapsed_ns(start));
}

/// Marks the start of encoding one message.
#[inline]
pub fn encode_begin(codec: Codec) {
    begin(codec, false);
}

/// Records one encoded message of `bytes` total size.
#[inline]
pub fn encode_end(codec: Codec, bytes: u64) {
    end(codec, false, bytes);
}

/// Marks the start of decoding one message.
#[inline]
pub fn decode_begin(codec: Codec) {
    begin(codec, true);
}

/// Records one decoded message of `bytes` total size.
#[inline]
pub fn decode_end(codec: Codec, bytes: u64) {
    end(codec, true, bytes);
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test: the enable flag is process-global, so phases run in order.
    #[test]
    fn hooks_respect_the_enable_flag() {
        let _guard = crate::trace::test_lock();
        // Disabled hooks must not record.  Sibling unit tests record into
        // the same registry when `FLICK_TELEMETRY=1`, so retry a
        // before/after delta until a window without interference: an
        // always-recording hook fails every window.
        flick_telemetry::set_enabled(false);
        let fluke_msgs = || global().snapshot().counter("runtime.fluke.encode.msgs");
        let clean_window = (0..64).any(|_| {
            let before = fluke_msgs();
            encode_begin(Codec::Fluke);
            encode_end(Codec::Fluke, 64);
            fluke_msgs() == before
        });
        assert!(clean_window, "disabled hooks recorded a message");

        flick_telemetry::set_enabled(true);
        encode_begin(Codec::Cdr);
        encode_end(Codec::Cdr, 128);
        decode_end(Codec::Cdr, 128);
        let s = global().snapshot();
        assert!(s.counter("runtime.cdr.encode.msgs").unwrap() >= 1);
        assert!(s.counter("runtime.cdr.encode.bytes").unwrap() >= 128);
        assert!(s.counter("runtime.cdr.decode.msgs").unwrap() >= 1);
        assert!(matches!(
            s.get("runtime.cdr.encode.ns"),
            Some(flick_telemetry::MetricValue::Histogram(h)) if h.count >= 1
        ));

        // Every event counter lands under its own name.
        for (i, &(metric, _)) in Metric::ALL.iter().enumerate() {
            assert_eq!(metric as usize, i, "ALL is in declaration order");
            inc(metric);
        }
        add(Metric::FabricBatchRecords, 2);
        reject(Codec::Xdr);
        rpc_expired();
        let s = global().snapshot();
        for &(_, name) in Metric::ALL {
            assert!(s.counter(name).unwrap() >= 1, "{name}");
        }
        assert!(s.counter("decode.reject.xdr").unwrap() >= 2);
        assert!(s.counter("rpc.expired").unwrap() >= 2);
        assert!(s.counter("fabric.batch.records").unwrap() >= 3);
        flick_telemetry::set_enabled(false);
    }
}
