//! Request-level tracing: wire-propagated trace context and the span
//! hooks generated stubs are stamped with.
//!
//! A request owns one [`TraceContext`] — a `trace_id` shared by every
//! span it causes and a `span_id` naming the current span.  The
//! context rides the wire so the server's spans land in the same trace
//! as the client's, next to the request's time budget (see
//! [`crate::deadline`]) in one `FLKT` blob — a [`WireContext`], whose
//! length says what it carries:
//!
//! * **0 bytes** — neither: the classic empty credential or
//!   service-context list;
//! * **16 bytes** — trace id + span id, big-endian (peers that predate
//!   deadlines; replies only ever echo this form);
//! * **24 bytes** — the same 16 plus the budget in nanoseconds, with
//!   an all-zero trace id meaning "untraced but budgeted".
//!
//! Readers accept every form and any other length reads as neither.
//! The blob travels as:
//!
//! * **ONC RPC** — the call header's credential slot (private flavor
//!   [`ONC_TRACE_AUTH_FLAVOR`]).  Untouched servers skip it like any
//!   unknown flavor; ours extract it in [`crate::oncrpc::accept_call`]
//!   and echo the trace in the reply verifier.  Client-side
//!   correlation stays xid-based — [`crate::client::call`] matches
//!   replies by xid; the blob only names the trace the exchange
//!   belongs to.
//! * **GIOP** — a service-context entry ([`GIOP_TRACE_CONTEXT_ID`]),
//!   written at the head of request and reply headers and extracted
//!   by `get_request_header` / `get_reply_header`.
//!
//! This module is the only one that knows the blob's lengths and
//! layout; the protocol modules frame it and ask [`WireContext`].
//!
//! The span hooks ([`client_begin`], [`server_begin`], [`ClientSpan`],
//! [`ServerSpan`]) follow the [`crate::metrics`] contract: `#[inline]`
//! functions that return after one `flick_telemetry::enabled()` load
//! while collection is off.  When live, spans feed the
//! `rpc.<op>.{rtt,server}` histograms and the event journal
//! (`flick_telemetry::events`).

use crate::buf::ChunkWriter;
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

/// Length of the trace-only blob: two big-endian u64s.
const TRACE_BYTES: usize = 16;

/// Length of the budgeted blob: the trace blob plus big-endian budget
/// nanoseconds.
const BUDGETED_BYTES: usize = 24;

/// The `FLKT` context one message carries (module doc): a trace
/// context, a time budget, both, or neither.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireContext {
    /// Trace/span ids, when the sender had a trace open.
    pub trace: Option<TraceContext>,
    /// Budget nanoseconds, when the sender carried a deadline.
    pub budget_ns: Option<u64>,
}

impl WireContext {
    /// What an outbound request carries: the client span open on this
    /// thread and the ambient budget ([`crate::deadline::outbound_budget_ns`]).
    #[inline]
    #[must_use]
    pub(crate) fn outbound() -> Self {
        WireContext {
            trace: wire_context(),
            budget_ns: crate::deadline::outbound_budget_ns(),
        }
    }

    /// What a reply echoes: the trace of the request being answered,
    /// never a budget — nothing downstream of a reply spends one.
    #[inline]
    #[must_use]
    pub(crate) fn reply() -> Self {
        WireContext {
            trace: reply_context(),
            budget_ns: None,
        }
    }

    /// Wire length of a context with or without a trace and a budget:
    /// a budget takes the 24-byte form even when untraced.
    #[must_use]
    pub const fn len_of(traced: bool, budgeted: bool) -> usize {
        match (traced, budgeted) {
            (_, true) => BUDGETED_BYTES,
            (true, false) => TRACE_BYTES,
            (false, false) => 0,
        }
    }

    /// This context's wire length: 0, 16 or 24.
    #[inline]
    #[must_use]
    pub(crate) const fn wire_len(&self) -> usize {
        Self::len_of(self.trace.is_some(), self.budget_ns.is_some())
    }

    /// Writes the [`wire_len`](Self::wire_len) bytes of the blob at
    /// `off` (big-endian, whatever the surrounding stream's order).
    #[inline]
    pub(crate) fn put_at(&self, c: &mut ChunkWriter<'_>, off: usize) {
        if self.wire_len() == 0 {
            return;
        }
        let ids = self.trace.unwrap_or(NO_CONTEXT);
        c.put_u64_be_at(off, ids.trace_id);
        c.put_u64_be_at(off + 8, ids.span_id);
        if let Some(ns) = self.budget_ns {
            c.put_u64_be_at(off + TRACE_BYTES, ns);
        }
    }

    /// Parses a blob; `None` unless it is 16 or 24 bytes long.  A zero
    /// trace id reads as untraced (so hostile zero blobs carry no
    /// trace).
    #[inline]
    #[must_use]
    pub(crate) fn decode(blob: &[u8]) -> Option<Self> {
        let word = |at: usize| u64::from_be_bytes(blob[at..at + 8].try_into().expect("len 8"));
        let budget_ns = match blob.len() {
            TRACE_BYTES => None,
            BUDGETED_BYTES => Some(word(TRACE_BYTES)),
            _ => return None,
        };
        let trace = match word(0) {
            0 => None,
            trace_id => Some(TraceContext {
                trace_id,
                span_id: word(8),
            }),
        };
        Some(WireContext { trace, budget_ns })
    }

    /// Makes this the context of the request being served on this
    /// thread: the trace register holds exactly `trace` (for
    /// [`server_begin`] to parent to and [`reply_context`] to echo),
    /// and the deadline register `budget_ns` anchored at the arrival
    /// instant, or nothing.  The header readers adopt the empty context
    /// before they parse — a refusal written mid-parse must not echo,
    /// and a failed parse must not leave, the previous request's
    /// context — and then what the request carried.
    #[inline]
    pub(crate) fn adopt(self) {
        note_wire_context(self.trace);
        match self.budget_ns {
            Some(ns) => crate::deadline::note_inbound(crate::deadline::arrival_now(), ns),
            None => crate::deadline::clear_inbound(),
        }
    }
}

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
        result: Result<crate::client::ReplyBody, crate::client::RpcError>,
    ) -> Result<crate::client::ReplyBody, crate::client::RpcError> {
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
/// echo.  The header readers note every request through
/// [`WireContext::adopt`].
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

    /// `ctx`'s blob, as the header writers lay it down.
    fn blob_of(ctx: WireContext) -> Vec<u8> {
        let mut buf = crate::MarshalBuf::new();
        ctx.put_at(&mut buf.chunk(ctx.wire_len()), 0);
        buf.into_vec()
    }

    #[test]
    fn blob_roundtrip_and_hostile_rejection() {
        let ctx = TraceContext {
            trace_id: 0x1122_3344_5566_7788,
            span_id: 0x99AA_BBCC_DDEE_FF00,
        };
        let wire = WireContext {
            trace: Some(ctx),
            budget_ns: None,
        };
        let blob = blob_of(wire);
        assert_eq!(blob[..8], ctx.trace_id.to_be_bytes(), "big-endian ids");
        assert_eq!(blob[8..], ctx.span_id.to_be_bytes());
        assert_eq!(WireContext::decode(&blob), Some(wire));
        assert_eq!(WireContext::decode(&blob[..15]), None, "short blob");
        assert_eq!(
            WireContext::decode(&[0u8; 16]),
            Some(WireContext::default()),
            "zero trace id reads as untraced"
        );
        assert_eq!(WireContext::decode(&[]), None);
    }

    /// Asserts the thread adopted `want` as its inbound context: the
    /// trace register exactly, the budget to within a second of
    /// anchoring it.
    fn assert_adopted(want: WireContext, case: &str) {
        assert_eq!(reply_context(), want.trace, "{case}: trace noted");
        let left = crate::deadline::inbound_remaining_ns();
        match (want.budget_ns, left) {
            (None, None) => {}
            (Some(ns), Some(left)) => assert!(ns - left < 1_000_000_000, "{case}: {left} of {ns}"),
            other => panic!("{case}: budget {other:?}"),
        }
    }

    /// A hand-built GIOP Request whose service-context list is one entry
    /// `(id, blob)`.
    fn giop_request_with_context(id: u32, blob: &[u8]) -> Vec<u8> {
        use crate::cdr::{ByteOrder, CdrOut};
        use crate::giop;
        let order = ByteOrder::Little;
        let mut msg = crate::MarshalBuf::new();
        let at = giop::begin_message(&mut msg, order, giop::MsgType::Request);
        let cdr = CdrOut::begin(&msg, order);
        cdr.put_u32(&mut msg, 1); // one service context
        cdr.put_u32(&mut msg, id);
        cdr.put_u32(&mut msg, blob.len() as u32);
        msg.put_bytes(blob);
        cdr.put_u32(&mut msg, 42); // request id
        cdr.put_u8(&mut msg, 1); // response expected
        cdr.put_u32(&mut msg, 0); // empty object key
        cdr.put_string(&mut msg, "op");
        cdr.put_u32(&mut msg, 0); // principal
        giop::finish_message(&mut msg, at, order);
        msg.into_vec()
    }

    /// The GIOP full reader's and peek's readings of `msg`.
    fn giop_readings(msg: &[u8]) -> (WireContext, WireContext) {
        use crate::giop;
        let mut r = crate::MsgReader::new(msg);
        let h = giop::read_header(&mut r).expect("header");
        let cdr = crate::cdr::CdrIn::begin(&r, h.order);
        let full = giop::get_request_header_ref(&mut r, &cdr).expect("request header");
        (
            full.context,
            giop::peek_request(msg).expect("a request").context,
        )
    }

    #[test]
    fn budget_blob_roundtrip_in_both_forms() {
        use crate::cdr::{ByteOrder, CdrIn, CdrOut};
        use crate::oncrpc::{self, CallHeader, ReplyOutcome};
        use crate::{giop, MarshalBuf, MsgReader};

        // The codec alone: every (trace?, budget?) pair, writer -> reader.
        let ctx = TraceContext {
            trace_id: 7,
            span_id: 9,
        };
        for trace in [None, Some(ctx)] {
            for budget_ns in [None, Some(1_500_000)] {
                let wire = WireContext { trace, budget_ns };
                let want = (wire.wire_len() > 0).then_some(wire);
                assert_eq!(WireContext::decode(&blob_of(wire)), want, "{wire:?}");
            }
        }

        let _guard = test_lock();
        flick_telemetry::set_enabled(true);
        let budget = std::time::Duration::from_secs(30);
        let order = ByteOrder::Little;
        let (h, mut reply) = (
            CallHeader {
                xid: 1,
                prog: 9,
                vers: 1,
                proc: 2,
            },
            MarshalBuf::new(),
        );

        // Every pair through the four header codecs, writer -> reader:
        // requests carry both, replies echo the trace only.
        for traced in [false, true] {
            for budgeted in [false, true] {
                crate::deadline::clear_inbound();
                let case = format!("traced={traced} budgeted={budgeted}");
                let span = traced.then(|| client_begin("codec_matrix"));
                let stamp = budgeted.then(|| crate::deadline::stamp_outbound(budget));
                let sent = WireContext {
                    trace: span.as_ref().and_then(ClientSpan::context),
                    budget_ns: budgeted.then_some(budget.as_nanos() as u64),
                };
                let mut call = MarshalBuf::new();
                h.write(&mut call);
                let mut request = MarshalBuf::new();
                let at = giop::begin_message(&mut request, order, giop::MsgType::Request);
                let cdr = CdrOut::begin(&request, order);
                giop::put_request_header(&mut request, &cdr, 42, true, b"k", "op");
                giop::finish_message(&mut request, at, order);
                drop(stamp);
                if let Some(span) = span {
                    let _ = span.finish_call(Ok(crate::pool::checkout().into()));
                }

                // ONC call: the peek and the full reader agree.
                let call = call.into_vec();
                assert_eq!(call.len(), oncrpc::CALL_HEADER_BYTES + sent.wire_len());
                assert_eq!(oncrpc::peek_call(&call).unwrap().context, sent, "{case}");
                oncrpc::accept_call(&call, 9, 1, &mut reply).expect("accepted");
                assert_adopted(sent, &case);
                // ONC reply verifier.
                let mut out = MarshalBuf::new();
                oncrpc::write_reply(&mut out, 1, ReplyOutcome::Success);
                let mut r = MsgReader::new(out.as_slice());
                let (_, _, echoed) = oncrpc::read_reply_verdict_traced(&mut r).unwrap();
                assert_eq!(echoed, sent.trace, "{case}: verifier");

                // GIOP request: the peek and the full reader agree.
                assert_eq!(giop_readings(request.as_slice()), (sent, sent), "{case}");
                assert_adopted(sent, &case);
                // GIOP reply.
                let mut out = MarshalBuf::new();
                let at = giop::begin_message(&mut out, order, giop::MsgType::Reply);
                let cdr = CdrOut::begin(&out, order);
                giop::put_reply_header(&mut out, &cdr, 42, giop::ReplyStatus::NoException);
                giop::finish_message(&mut out, at, order);
                let mut r = MsgReader::new(out.as_slice());
                let rh = giop::read_header(&mut r).unwrap();
                let cdr = CdrIn::begin(&r, rh.order);
                let rh = giop::get_reply_header(&mut r, &cdr).unwrap();
                assert_eq!(rh.trace, sent.trace, "{case}: reply context");
            }
        }

        // Every blob length up to 32, under the FLKT id and a foreign
        // one: the full readers and both peeks read what the codec
        // reads — a 16- or 24-byte FLKT blob, else nothing.
        for foreign in [false, true] {
            for len in 0..=32u8 {
                let blob: Vec<u8> = (1..=len).collect();
                let want = match foreign {
                    false => WireContext::decode(&blob).unwrap_or_default(),
                    true => WireContext::default(),
                };
                let case = format!("foreign={foreign} len={len}");

                let mut rec = MarshalBuf::new();
                for word in [1, 0, oncrpc::RPC_VERSION, 9, 1, 2] {
                    rec.put_u32_be(word);
                }
                let flavor = if foreign { 1 } else { ONC_TRACE_AUTH_FLAVOR };
                rec.put_u32_be(flavor);
                crate::xdr::put_opaque(&mut rec, &blob);
                rec.put_u64_be(0); // verf AUTH_NONE
                let rec = rec.into_vec();
                assert_eq!(oncrpc::peek_call(&rec).unwrap().context, want, "{case}");
                oncrpc::accept_call(&rec, 9, 1, &mut reply).expect("accepted");
                assert_adopted(want, &case);

                let id = if foreign { 7 } else { GIOP_TRACE_CONTEXT_ID };
                let msg = giop_request_with_context(id, &blob);
                assert_eq!(giop_readings(&msg), (want, want), "{case}");
                assert_adopted(want, &case);
            }
        }
        note_wire_context(None);
        crate::deadline::clear_inbound();
        flick_telemetry::set_enabled(false);
    }

    #[test]
    fn spans_record_events_and_histograms_when_enabled() {
        let _guard = test_lock();
        flick_telemetry::set_enabled(true);

        // Client span: context exposed for the wire, rtt recorded.
        let span = client_begin("trace_unit_op");
        let ctx = span.context().expect("live span has a context");
        assert_eq!(wire_context(), Some(ctx));
        let mut body = crate::pool::checkout();
        body.put_bytes(b"body");
        let out = span.finish_call(Ok(body.into()));
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
        assert!(span.finish_call(Ok(crate::pool::checkout().into())).is_ok());
    }
}
