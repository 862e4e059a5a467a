//! Request-level tracing: wire-propagated trace context and the span
//! hooks generated stubs are stamped with.
//!
//! A request owns one [`TraceContext`] — a `trace_id` shared by every
//! span it causes and a `span_id` naming the current span.  The
//! context rides the wire so the server's spans land in the same trace
//! as the client's:
//!
//! * **ONC RPC** — the call header's credential slot carries an
//!   AUTH-opaque blob (private flavor [`ONC_TRACE_AUTH_FLAVOR`], 16
//!   bytes: trace id + span id, big-endian).  Untouched servers skip
//!   it like any unknown flavor; ours extract it in
//!   [`crate::oncrpc::accept_call`] and echo the context in the reply
//!   verifier.  Client-side correlation stays xid-based —
//!   [`crate::client::call`] matches replies by xid; the blob only
//!   names the trace the exchange belongs to.
//! * **GIOP** — a service-context entry ([`GIOP_TRACE_CONTEXT_ID`])
//!   with the same 16-byte body, written at the head of request and
//!   reply headers and extracted by `get_request_header` /
//!   `get_reply_header`.
//!
//! The span hooks ([`client_begin`], [`server_begin`], [`ClientSpan`],
//! [`ServerSpan`]) follow the [`crate::metrics`] contract: `#[inline]`
//! functions that return after one `flick_telemetry::enabled()` load
//! while collection is off.  When live, spans feed the
//! `rpc.<op>.{rtt,server}` histograms and the event journal
//! (`flick_telemetry::events`).

use flick_telemetry::events::{self, Event, Outcome};
use std::cell::Cell;
use std::time::Instant;

/// Trace/span identifiers carried by one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// Shared by every span of one logical request.
    pub trace_id: u64,
    /// The current span within the trace.
    pub span_id: u64,
}

/// Private ONC auth flavor carrying a trace blob (`"FLKT"`).
pub const ONC_TRACE_AUTH_FLAVOR: u32 = 0x464C_4B54;

/// Registered GIOP service-context id carrying a trace blob (`"FLKT"`).
pub const GIOP_TRACE_CONTEXT_ID: u32 = 0x464C_4B54;

/// Encoded size of a trace blob: two big-endian u64s.
pub const TRACE_BLOB_BYTES: usize = 16;

/// Encoded size of a trace blob extended with a time budget: the
/// 16-byte trace blob plus big-endian budget nanoseconds.  The blob
/// *length* discriminates the two request forms — old peers skip the
/// unknown flavor either way, and readers accept both.
pub const TRACE_BUDGET_BLOB_BYTES: usize = 24;

impl TraceContext {
    /// A fresh root context (new trace id, new span id).
    #[must_use]
    pub fn root() -> Self {
        TraceContext {
            trace_id: next_id(),
            span_id: next_id(),
        }
    }

    /// A child context: same trace, fresh span.
    #[must_use]
    pub fn child(&self) -> Self {
        TraceContext {
            trace_id: self.trace_id,
            span_id: next_id(),
        }
    }

    /// The 16-byte wire form (big-endian, byte-order independent of
    /// the surrounding CDR/XDR stream).
    #[must_use]
    pub fn encode(&self) -> [u8; TRACE_BLOB_BYTES] {
        let mut out = [0u8; TRACE_BLOB_BYTES];
        out[..8].copy_from_slice(&self.trace_id.to_be_bytes());
        out[8..].copy_from_slice(&self.span_id.to_be_bytes());
        out
    }

    /// Parses a wire blob; `None` unless exactly 16 bytes with a
    /// nonzero trace id (hostile zero blobs decode as "untraced").
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != TRACE_BLOB_BYTES {
            return None;
        }
        let trace_id = u64::from_be_bytes(bytes[..8].try_into().expect("len 8"));
        let span_id = u64::from_be_bytes(bytes[8..].try_into().expect("len 8"));
        if trace_id == 0 {
            return None;
        }
        Some(TraceContext { trace_id, span_id })
    }
}

/// Encodes the extended request blob: the trace context (all zeros
/// when untraced) followed by big-endian budget nanoseconds.  Used by
/// the header writers when [`crate::deadline::outbound_budget_ns`] has
/// a budget to carry; without one they fall back to the 16-byte form.
#[must_use]
pub fn encode_budget_blob(
    ctx: Option<TraceContext>,
    budget_ns: u64,
) -> [u8; TRACE_BUDGET_BLOB_BYTES] {
    let mut out = [0u8; TRACE_BUDGET_BLOB_BYTES];
    if let Some(ctx) = ctx {
        out[..TRACE_BLOB_BYTES].copy_from_slice(&ctx.encode());
    }
    out[TRACE_BLOB_BYTES..].copy_from_slice(&budget_ns.to_be_bytes());
    out
}

/// Parses an `FLKT` wire blob of either form: 16 bytes = trace only
/// (legacy peers), 24 bytes = trace + budget nanoseconds.  In the
/// 24-byte form an all-zero trace id decodes as "untraced but
/// budgeted" — clients with collection off still stamp deadlines.  Any other length is hostile and yields neither.
#[must_use]
pub fn decode_wire_blob(bytes: &[u8]) -> (Option<TraceContext>, Option<u64>) {
    match bytes.len() {
        TRACE_BLOB_BYTES => (TraceContext::decode(bytes), None),
        TRACE_BUDGET_BLOB_BYTES => {
            let ctx = TraceContext::decode(&bytes[..TRACE_BLOB_BYTES]);
            let ns = u64::from_be_bytes(bytes[TRACE_BLOB_BYTES..].try_into().expect("len 8"));
            (ctx, Some(ns))
        }
        _ => (None, None),
    }
}

/// A fresh nonzero id from a process-wide SplitMix64 stream: each call
/// advances an atomic counter by the SplitMix64 increment and runs the
/// mix function over it, so ids are unique per process and well mixed
/// without locking.
#[must_use]
pub fn next_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static STATE: AtomicU64 = AtomicU64::new(0x005E_ED0F_F11C_4A11);
    let x = STATE
        .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    if z == 0 {
        1
    } else {
        z
    }
}

/// Server-span phases the generated dispatch code marks off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Argument unmarshal finished.
    Decode,
    /// The server work function returned.
    Work,
    /// Reply marshal finished.
    Encode,
}

impl Phase {
    /// The journal kind for this phase's child-span event.
    #[must_use]
    pub fn kind(self) -> &'static str {
        match self {
            Phase::Decode => "server.phase.decode",
            Phase::Work => "server.phase.work",
            Phase::Encode => "server.phase.encode",
        }
    }
}

thread_local! {
    // The client span currently building/sending a request on this
    // thread — what CallHeader::write / put_request_header stamp
    // onto the wire, and what retry/timeout events attach to.
    static CLIENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
    // The trace context extracted from the most recent inbound
    // request on this thread (None when it carried no blob) —
    // what server spans parent to and replies echo.
    static WIRE_IN: Cell<Option<TraceContext>> = const { Cell::new(None) };
    // The most recent server span on this thread; outlives its
    // ServerSpan so the transport's send event can attach to it.
    static LAST_SERVER: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// The context events outside any span attach to.
const NO_CONTEXT: TraceContext = TraceContext {
    trace_id: 0,
    span_id: 0,
};

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A client span covering one full RPC round trip, retransmissions
/// included.  Created by [`client_begin`] in generated `call_<op>`
/// stubs; while open, [`wire_context`] exposes its context so the call
/// header writers stamp it onto the wire.
pub struct ClientSpan {
    /// Context and start time; `None` when collection was off at
    /// [`client_begin`], which makes every method a no-op.
    live: Option<(TraceContext, Instant)>,
    op: &'static str,
}

/// Opens a client span for `op`.  Free while collection is off.
#[inline]
#[must_use]
pub fn client_begin(op: &'static str) -> ClientSpan {
    if !flick_telemetry::enabled() {
        return ClientSpan { live: None, op };
    }
    let ctx = TraceContext::root();
    CLIENT.with(|c| c.set(Some(ctx)));
    events::record(Event {
        trace_id: ctx.trace_id,
        span_id: ctx.span_id,
        ..Event::new("client.begin", op)
    });
    ClientSpan {
        live: Some((ctx, Instant::now())),
        op,
    }
}

impl ClientSpan {
    /// Closes the span around a finished [`crate::client::call`],
    /// recording the round-trip latency into `rpc.<op>.rtt`, the
    /// outcome event into the journal, and — on a decode-class failure
    /// — the postmortem latch.  Returns `result` unchanged so stubs
    /// can wrap the call expression directly.
    ///
    /// # Errors
    /// Propagates whatever `result` carried.
    #[inline]
    pub fn finish_call(
        self,
        result: Result<Vec<u8>, crate::client::RpcError>,
    ) -> Result<Vec<u8>, crate::client::RpcError> {
        let Some((ctx, start)) = self.live else {
            return result;
        };
        CLIENT.with(|c| c.set(None));
        flick_telemetry::global()
            .histogram(&format!("rpc.{}.rtt", self.op))
            .record(ns_since(start));
        events::record(Event {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            bytes: result.as_ref().map_or(0, |body| body.len() as u64),
            outcome: if result.is_ok() {
                Outcome::Ok
            } else {
                Outcome::Err
            },
            ..Event::new("client.end", self.op)
        });
        if matches!(
            result,
            Err(crate::client::RpcError::Decode(_) | crate::client::RpcError::GarbageArgs)
        ) {
            events::dump_on_error("client.decode");
        }
        result
    }

    /// The span's context, if one is live.
    #[inline]
    #[must_use]
    pub fn context(&self) -> Option<TraceContext> {
        self.live.map(|(ctx, _)| ctx)
    }
}

/// A server span covering one dispatched request, opened by generated
/// dispatch arms.  Parents itself to the wire context the transport
/// header carried (noted by `accept_call` / `get_request_header`).
pub struct ServerSpan {
    /// `None` when collection was off at [`server_begin`], which makes
    /// every method a no-op.
    live: Option<ServerLive>,
    op: &'static str,
}

struct ServerLive {
    ctx: TraceContext,
    parent: u64,
    start: Instant,
    phase_start: Instant,
}

/// Opens a server span for `op`.  Free while collection is off.
#[inline]
#[must_use]
pub fn server_begin(op: &'static str) -> ServerSpan {
    if !flick_telemetry::enabled() {
        return ServerSpan { live: None, op };
    }
    let (ctx, parent) = match WIRE_IN.with(Cell::get) {
        Some(wire) => (wire.child(), wire.span_id),
        None => (TraceContext::root(), 0),
    };
    LAST_SERVER.with(|c| c.set(Some(ctx)));
    events::record(Event {
        trace_id: ctx.trace_id,
        span_id: ctx.span_id,
        parent_id: parent,
        ..Event::new("server.begin", op)
    });
    let start = Instant::now();
    ServerSpan {
        live: Some(ServerLive {
            ctx,
            parent,
            start,
            phase_start: start,
        }),
        op,
    }
}

impl ServerSpan {
    /// Marks the end of `phase`, emitting a child-span event whose
    /// `bytes` is the given size (or the phase's elapsed nanoseconds
    /// when `bytes` is 0).
    #[inline]
    pub fn phase(&mut self, phase: Phase, bytes: u64) {
        let Some(live) = &mut self.live else {
            return;
        };
        let now = Instant::now();
        let ns = u64::try_from((now - live.phase_start).as_nanos()).unwrap_or(u64::MAX);
        live.phase_start = now;
        events::record(Event {
            trace_id: live.ctx.trace_id,
            span_id: next_id(),
            parent_id: live.ctx.span_id,
            bytes: if bytes > 0 { bytes } else { ns },
            ..Event::new(phase.kind(), self.op)
        });
    }

    /// Closes the span: records total service time into
    /// `rpc.<op>.server` and the closing event into the journal.
    #[inline]
    pub fn finish(self, bytes: u64) {
        let Some(live) = &self.live else {
            return;
        };
        flick_telemetry::global()
            .histogram(&format!("rpc.{}.server", self.op))
            .record(ns_since(live.start));
        events::record(Event {
            trace_id: live.ctx.trace_id,
            span_id: live.ctx.span_id,
            parent_id: live.parent,
            bytes,
            outcome: Outcome::Ok,
            ..Event::new("server.end", self.op)
        });
    }
}

/// The context an outbound call header should stamp onto the wire: the
/// client span currently open on this thread, if any.
#[inline]
#[must_use]
pub fn wire_context() -> Option<TraceContext> {
    if !flick_telemetry::enabled() {
        return None;
    }
    CLIENT.with(Cell::get)
}

/// Notes the trace context (or its absence) extracted from an inbound
/// request, for [`server_begin`] to parent to and [`reply_context`] to
/// echo.  Called by the transport-header readers on every request.
#[inline]
pub fn note_wire_context(ctx: Option<TraceContext>) {
    if !flick_telemetry::enabled() {
        return;
    }
    WIRE_IN.with(|c| c.set(ctx));
}

/// The context a reply header should echo: whatever the request
/// carried (noted by [`note_wire_context`]), else `None`.
#[inline]
#[must_use]
pub fn reply_context() -> Option<TraceContext> {
    if !flick_telemetry::enabled() {
        return None;
    }
    WIRE_IN.with(Cell::get)
}

/// Journals one client-side event against the open client span.
#[inline]
fn client_event(kind: &'static str, outcome: Outcome) {
    if !flick_telemetry::enabled() {
        return;
    }
    let ctx = CLIENT.with(Cell::get).unwrap_or(NO_CONTEXT);
    events::record(Event {
        trace_id: ctx.trace_id,
        span_id: ctx.span_id,
        outcome,
        ..Event::new(kind, "")
    });
}

/// Journals one client-side retransmission against the open client
/// span.  Called by [`crate::client::call`].
#[inline]
pub fn client_retry() {
    client_event("client.retry", Outcome::Info);
}

/// Journals one client call abandoned at its deadline.
#[inline]
pub fn client_timeout() {
    client_event("client.timeout", Outcome::Err);
}

/// Journals one message handed to a transport send path, attached to
/// the open client span building the request or, failing that, to the
/// last server span on this thread (the reply being written back).
#[inline]
pub fn wire_send(bytes: u64) {
    if !flick_telemetry::enabled() {
        return;
    }
    let ctx = CLIENT
        .with(Cell::get)
        .or_else(|| LAST_SERVER.with(Cell::get))
        .unwrap_or(NO_CONTEXT);
    events::record(Event {
        trace_id: ctx.trace_id,
        parent_id: ctx.span_id,
        bytes,
        ..Event::new("send", "")
    });
}

/// Journals one protocol-level reject for `codec` and triggers the
/// postmortem latch.  Called by [`crate::metrics::reject`].
#[inline]
pub(crate) fn reject_event(codec: &'static str) {
    if !flick_telemetry::enabled() {
        return;
    }
    let ctx = WIRE_IN.with(Cell::get).unwrap_or(NO_CONTEXT);
    events::record(Event {
        trace_id: ctx.trace_id,
        parent_id: ctx.span_id,
        outcome: Outcome::Err,
        ..Event::new("reject", codec)
    });
    events::dump_on_error("decode.reject");
}

/// Serializes unit tests that toggle the process-global telemetry
/// flag (here, `metrics`, `oncrpc`, `giop`) so one test's disabled
/// window cannot swallow another's recordings.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_nonzero_and_distinct() {
        let a = next_id();
        let b = next_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
        let root = TraceContext::root();
        let child = root.child();
        assert_eq!(child.trace_id, root.trace_id);
        assert_ne!(child.span_id, root.span_id);
    }

    #[test]
    fn blob_roundtrip_and_hostile_rejection() {
        let ctx = TraceContext {
            trace_id: 0x1122_3344_5566_7788,
            span_id: 0x99AA_BBCC_DDEE_FF00,
        };
        let blob = ctx.encode();
        assert_eq!(TraceContext::decode(&blob), Some(ctx));
        assert_eq!(TraceContext::decode(&blob[..15]), None, "short blob");
        assert_eq!(TraceContext::decode(&[0u8; 16]), None, "zero trace id");
        assert_eq!(TraceContext::decode(&[]), None);
    }

    #[test]
    fn budget_blob_roundtrip_in_both_forms() {
        let ctx = TraceContext {
            trace_id: 7,
            span_id: 9,
        };
        // Traced + budgeted.
        let blob = encode_budget_blob(Some(ctx), 1_500_000);
        assert_eq!(decode_wire_blob(&blob), (Some(ctx), Some(1_500_000)));
        // Untraced but budgeted: zero trace id is legitimate here.
        let blob = encode_budget_blob(None, 42);
        assert_eq!(decode_wire_blob(&blob), (None, Some(42)));
        // Legacy 16-byte form: trace only.
        assert_eq!(decode_wire_blob(&ctx.encode()), (Some(ctx), None));
        // Hostile lengths yield neither.
        assert_eq!(decode_wire_blob(&blob[..23]), (None, None));
        assert_eq!(decode_wire_blob(&[]), (None, None));
    }

    #[test]
    fn spans_record_events_and_histograms_when_enabled() {
        let _guard = test_lock();
        flick_telemetry::set_enabled(true);

        // Client span: context exposed for the wire, rtt recorded.
        let span = client_begin("trace_unit_op");
        let ctx = span.context().expect("live span has a context");
        assert_eq!(wire_context(), Some(ctx));
        let out = span.finish_call(Ok(b"body".to_vec()));
        assert!(out.is_ok());
        assert_eq!(wire_context(), None, "span closed, context cleared");

        // Server span parented to a noted wire context.
        note_wire_context(Some(ctx));
        assert_eq!(reply_context(), Some(ctx));
        let mut sspan = server_begin("trace_unit_op");
        sspan.phase(Phase::Decode, 10);
        sspan.phase(Phase::Work, 0);
        sspan.phase(Phase::Encode, 20);
        sspan.finish(30);
        note_wire_context(None);

        let snap = flick_telemetry::global().snapshot();
        for name in ["rpc.trace_unit_op.rtt", "rpc.trace_unit_op.server"] {
            assert!(
                matches!(
                    snap.get(name),
                    Some(flick_telemetry::MetricValue::Histogram(h)) if h.count >= 1
                ),
                "{name} populated"
            );
        }
        let events = flick_telemetry::events::snapshot();
        let sbegin = events
            .iter()
            .rev()
            .find(|e| e.kind == "server.begin" && e.op == "trace_unit_op")
            .expect("server.begin journaled");
        assert_eq!(sbegin.trace_id, ctx.trace_id, "trace id propagated");
        assert_eq!(sbegin.parent_id, ctx.span_id, "parented to wire span");
        assert!(
            events
                .iter()
                .any(|e| e.kind == "server.phase.decode" && e.parent_id == sbegin.span_id),
            "phase child span nests under the server span"
        );
        flick_telemetry::set_enabled(false);
    }

    #[test]
    fn disabled_spans_leave_no_wire_context() {
        let _guard = test_lock();
        flick_telemetry::set_enabled(false);
        let span = client_begin("trace_unit_off");
        assert_eq!(span.context(), None);
        assert_eq!(wire_context(), None);
        assert!(span.finish_call(Ok(Vec::new())).is_ok());
    }
}
