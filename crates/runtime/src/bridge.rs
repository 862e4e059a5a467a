//! The transcoding gateway: ONC RPC on one side, GIOP on the other,
//! bytes rewritten encoding-to-encoding without ever materializing the
//! presentation.
//!
//! A [`Bridge`] accepts one ONC call record, validates its header with
//! the same [`crate::oncrpc::accept_call`] path a generated server
//! uses, rewrites the XDR argument bytes into a CDR GIOP request via a
//! generated transcode function (see `flick-backend`'s
//! `--transcode=SRC:DST` emission), forwards the request over a
//! caller-supplied link, and rewrites the GIOP reply body back into an
//! ONC reply.  Buffers come from the [`crate::pool`], so the warm
//! gateway path allocates nothing per call; a live trace context rides
//! both legs (ONC credential in, GIOP service context out) through the
//! existing [`crate::trace`] plumbing.
//!
//! Error policy mirrors a generated endpoint server: arguments that do
//! not transcode answer `GARBAGE_ARGS`; a call whose propagated budget
//! (see [`crate::deadline`]) is already spent answers `SYSTEM_ERR`
//! without being transcoded or forwarded; an upstream that fails,
//! replies in an unexpected byte order, or raises an exception answers
//! `SYSTEM_ERR`; records too mangled to carry an xid stay silent.
//!
//! The upstream leg is abstracted behind [`UpstreamLink`] (any
//! `FnMut(&[u8]) -> Option<Vec<u8>>` qualifies), and [`Supervisor`]
//! wraps a link in a circuit breaker: consecutive failures open the
//! circuit, opens fail fast without touching the upstream, a
//! jittered-exponential backoff schedules a single half-open probe,
//! and idempotent operations get a bounded retry budget.  A gateway in
//! front of a flapping upstream degrades to cheap `SYSTEM_ERR`s and
//! heals itself when the upstream returns — no restart, no thundering
//! herd of simultaneous probes.

use crate::buf::{MarshalBuf, MsgReader};
use crate::cdr::{ByteOrder, CdrIn, CdrOut};
use crate::error::DecodeError;
use crate::giop;
use crate::metrics::{self, Metric};
use crate::oncrpc::{self, ReplyOutcome};
use crate::rng::SplitMix64;
use flick_telemetry::Counter;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A generated body rewrite: source-encoding bytes in, target-encoding
/// bytes appended to `dst`.
pub type TranscodeFn = fn(&[u8], &mut MarshalBuf) -> Result<(), DecodeError>;

/// One operation's entry in a generated gateway table (`BRIDGE_OPS` in
/// a `--transcode` module).
#[derive(Clone, Copy)]
pub struct BridgeOp {
    /// ONC procedure number (the source-side discriminator).
    pub proc_num: u32,
    /// Wire operation name (the target-side discriminator).
    pub name: &'static str,
    /// True when the operation expects no reply.
    pub oneway: bool,
    /// True when repeating the operation is safe — a retrying link
    /// (see [`Supervisor`]) may resend it after an upstream failure.
    /// Generated tables mark oneways idempotent (ONC datagram
    /// semantics already permit duplicate delivery) and everything
    /// else not, unless the IDL says otherwise.
    pub idempotent: bool,
    /// Fused request rewrite (source → target).
    pub request: TranscodeFn,
    /// Fused reply rewrite (target → source).
    pub reply: TranscodeFn,
    /// Slot-wise request rewrite — the `fuse-transcode` ablation path.
    pub request_naive: TranscodeFn,
    /// Slot-wise reply rewrite.
    pub reply_naive: TranscodeFn,
}

/// The upstream side of a gateway: carries one complete GIOP request
/// message and returns the complete GIOP reply message, or `None` when
/// the upstream failed.  `idempotent` tells the link whether resending
/// the request is safe (it must not retry otherwise).
///
/// Any `FnMut(&[u8]) -> Option<Vec<u8>>` is a link (ignoring the
/// idempotence hint); [`Supervisor`] wraps one with failure handling.
pub trait UpstreamLink {
    /// Forwards `request` upstream, returning the reply bytes.
    fn forward(&mut self, request: &[u8], idempotent: bool) -> Option<Vec<u8>>;
}

impl<F> UpstreamLink for F
where
    F: FnMut(&[u8]) -> Option<Vec<u8>>,
{
    fn forward(&mut self, request: &[u8], _idempotent: bool) -> Option<Vec<u8>> {
        self(request)
    }
}

/// What [`Bridge::handle_record`] did with one inbound record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BridgeOutcome {
    /// `reply` holds a complete ONC reply to send back.
    Replied,
    /// Nothing to send: the record was not answerable (no xid, not a
    /// call) or the operation is oneway.
    Silent,
}

/// Monotonic counters for one bridge instance.  The same events also
/// feed the process-wide `bridge.{forwarded,rejected,fallback}`
/// telemetry counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BridgeCounters {
    /// Requests rewritten and forwarded end-to-end.
    pub forwarded: u64,
    /// Requests refused: hostile or malformed bytes on either leg, an
    /// unknown procedure, or a failed upstream.
    pub rejected: u64,
    /// Requests served through the naive decode-and-re-encode path.
    pub fallback: u64,
}

/// A configured one-direction gateway: ONC clients in, a GIOP server
/// out.
pub struct Bridge {
    ops: &'static [BridgeOp],
    /// `bridge.<op>.{forwarded,rejected,fallback}` counter handles,
    /// parallel to `ops` — the per-operation twins of the global
    /// `bridge.*` counters, so gateway stats line up with the
    /// `rpc.<op>.*` per-op table.  Registered by the first record
    /// counted with collection on: an unobserved bridge holds no heap
    /// for them, an observed one formats no metric names per record.
    op_stats: OnceLock<Box<[[&'static Counter; 3]]>>,
    prog: u32,
    vers: u32,
    object_key: Vec<u8>,
    order: ByteOrder,
    naive: bool,
    counters: BridgeCounters,
}

impl Bridge {
    /// A bridge serving `ops` for ONC program `prog` version `vers`,
    /// addressing the upstream object `object_key` in byte order
    /// `order` (a generated module's `DST_LITTLE_ENDIAN`).  `naive`
    /// routes every body through the slot-wise rewrites — the
    /// `--disable-pass=fuse-transcode` fallback.
    #[must_use]
    pub fn new(
        ops: &'static [BridgeOp],
        prog: u32,
        vers: u32,
        object_key: &[u8],
        order: ByteOrder,
        naive: bool,
    ) -> Self {
        Bridge {
            ops,
            op_stats: OnceLock::new(),
            prog,
            vers,
            object_key: object_key.to_vec(),
            order,
            naive,
            counters: BridgeCounters::default(),
        }
    }

    /// This bridge's counters so far.
    #[must_use]
    pub fn counters(&self) -> BridgeCounters {
        self.counters
    }

    /// Counts `outcome` — one of the three `Bridge*` metrics — globally
    /// and, once the operation is identified, under its per-op twin.
    /// Rejections before that (bad header, unknown procedure) only hit
    /// the global counter.
    fn count(&self, outcome: Metric, op: Option<usize>) {
        if !flick_telemetry::enabled() {
            return;
        }
        metrics::inc(outcome);
        if let Some(op) = op {
            let table = self.op_stats.get_or_init(|| {
                let r = flick_telemetry::global();
                // In the declaration order of the three `Metric::Bridge*`.
                let per_op = |o: &BridgeOp| {
                    ["forwarded", "rejected", "fallback"]
                        .map(|outcome| r.counter(&format!("bridge.{}.{outcome}", o.name)))
                };
                self.ops.iter().map(per_op).collect()
            });
            table[op][outcome as usize - Metric::BridgeForwarded as usize].inc();
        }
    }

    fn reject(&mut self, op: Option<usize>) {
        self.counters.rejected += 1;
        self.count(Metric::BridgeRejected, op);
    }

    /// Handles one unframed ONC call record.  `forward` carries a
    /// complete GIOP request message to the upstream and returns its
    /// complete GIOP reply message (`None` on a dead link).  On
    /// [`BridgeOutcome::Replied`], `reply` holds the unframed ONC reply.
    pub fn handle_record(
        &mut self,
        record: &[u8],
        reply: &mut MarshalBuf,
        forward: &mut dyn UpstreamLink,
    ) -> BridgeOutcome {
        let (header, args) = match oncrpc::accept_call(record, self.prog, self.vers, reply) {
            Ok(ok) => ok,
            Err(answered) => {
                self.reject(None);
                return if answered {
                    BridgeOutcome::Replied
                } else {
                    BridgeOutcome::Silent
                };
            }
        };
        let Some(op_idx) = self.ops.iter().position(|o| o.proc_num == header.proc) else {
            self.reject(None);
            oncrpc::write_reply(reply, header.xid, ReplyOutcome::ProcUnavail);
            return BridgeOutcome::Replied;
        };
        let op = self.ops[op_idx];

        // A budget already spent — born at zero with no fabric peek in
        // front of this bridge, or run out while the frame queued — is
        // refused here, not transcoded for the upstream to refuse.
        if crate::deadline::inbound_expired() {
            self.reject(Some(op_idx));
            metrics::rpc_expired();
            if op.oneway {
                return BridgeOutcome::Silent;
            }
            oncrpc::write_reply(reply, header.xid, ReplyOutcome::SystemErr);
            return BridgeOutcome::Replied;
        }

        // Rewrite the request leg into a pooled GIOP message.
        let mut out = crate::pool::checkout();
        let size_at = giop::begin_message(&mut out, self.order, giop::MsgType::Request);
        let cdr = CdrOut::begin(&out, self.order);
        giop::put_request_header(
            &mut out,
            &cdr,
            header.xid,
            !op.oneway,
            &self.object_key,
            op.name,
        );
        let rewrite = if self.naive {
            op.request_naive
        } else {
            op.request
        };
        if rewrite(args, &mut out).is_err() {
            self.reject(Some(op_idx));
            crate::metrics::reject(crate::metrics::Codec::Xdr);
            oncrpc::write_reply(reply, header.xid, ReplyOutcome::GarbageArgs);
            return BridgeOutcome::Replied;
        }
        giop::finish_message(&mut out, size_at, self.order);

        let response = forward.forward(out.as_slice(), op.idempotent);
        if op.oneway {
            if response.is_some() {
                self.forwarded(op_idx);
            } else {
                self.reject(Some(op_idx));
            }
            return BridgeOutcome::Silent;
        }
        let Some(response) = response else {
            self.reject(Some(op_idx));
            oncrpc::write_reply(reply, header.xid, ReplyOutcome::SystemErr);
            return BridgeOutcome::Replied;
        };

        // Rewrite the reply leg back.  Anything unexpected — parse
        // failure, a byte order this pair was not compiled for, an
        // exception — is a SYSTEM_ERR toward the ONC client.
        match self.transcode_reply(&op, &response, header.xid, reply) {
            Ok(()) => {
                self.forwarded(op_idx);
            }
            Err(()) => {
                self.reject(Some(op_idx));
                reply.clear();
                oncrpc::write_reply(reply, header.xid, ReplyOutcome::SystemErr);
            }
        }
        BridgeOutcome::Replied
    }

    fn forwarded(&mut self, op: usize) {
        self.counters.forwarded += 1;
        self.count(Metric::BridgeForwarded, Some(op));
        if self.naive {
            self.counters.fallback += 1;
            self.count(Metric::BridgeFallback, Some(op));
        }
    }

    /// Parses one GIOP reply message and writes the full ONC success
    /// reply (header + rewritten body) into `reply`.
    fn transcode_reply(
        &self,
        op: &BridgeOp,
        response: &[u8],
        xid: u32,
        reply: &mut MarshalBuf,
    ) -> Result<(), ()> {
        let mut r = MsgReader::new(response);
        let h = giop::read_header(&mut r).map_err(|_| ())?;
        if h.msg_type != giop::MsgType::Reply || h.order != self.order {
            return Err(());
        }
        let cdr = CdrIn::begin(&r, h.order);
        let rh = giop::get_reply_header(&mut r, &cdr).map_err(|_| ())?;
        if rh.request_id != xid || rh.status != giop::ReplyStatus::NoException {
            return Err(());
        }
        reply.clear();
        oncrpc::write_reply(reply, xid, ReplyOutcome::Success);
        let rewrite = if self.naive { op.reply_naive } else { op.reply };
        rewrite(&response[r.pos()..], reply).map_err(|_| ())
    }
}

/// Tuning for a [`Supervisor`]'s circuit breaker.
#[derive(Clone, Copy, Debug)]
pub struct BreakerPolicy {
    /// Consecutive upstream failures that open the circuit.
    pub failure_threshold: u32,
    /// How long the circuit stays open after the first trip; doubles
    /// on every failed half-open probe.
    pub backoff: Duration,
    /// Ceiling on the doubled backoff.
    pub backoff_cap: Duration,
    /// Extra send attempts (beyond the first) granted to *idempotent*
    /// operations while the circuit is closed.
    pub retry_budget: u32,
    /// Seed for the jitter stream.  Deterministic on purpose: chaos
    /// runs replay the same schedule from the same seed.
    pub seed: u64,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            failure_threshold: 5,
            backoff: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(10),
            retry_budget: 1,
            seed: 0x5eed_cafe,
        }
    }
}

/// Where a [`Supervisor`]'s circuit currently stands.
#[derive(Clone, Copy, Debug)]
enum BreakerState {
    /// Healthy; counting consecutive failures toward the threshold.
    Closed { consecutive_failures: u32 },
    /// Tripped: fail fast until `until`, then probe.  `wait` is the
    /// unjittered base delay the next reopen doubles from.
    Open { until: Instant, wait: Duration },
    /// One probe in flight decides: success closes, failure reopens
    /// with a doubled wait.
    HalfOpen { wait: Duration },
}

/// Local event counts for one [`Supervisor`] (the same events feed the
/// process-wide `bridge.breaker.*` telemetry counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Times the circuit tripped open (including reopens).
    pub opened: u64,
    /// Times a half-open probe succeeded and closed the circuit.
    pub closed: u64,
    /// Requests answered failed without touching the upstream because
    /// the circuit was open.
    pub fast_failed: u64,
    /// Idempotent resends after an upstream failure.
    pub retried: u64,
}

/// A self-healing wrapper around an [`UpstreamLink`]: circuit breaker
/// with jittered exponential backoff, plus a bounded retry budget for
/// idempotent operations.
///
/// While open, every forward fails immediately (`None` — the bridge
/// turns that into `SYSTEM_ERR` toward the caller) so a dead upstream
/// costs callers a cheap error instead of a timeout each.  After the
/// backoff elapses exactly one request probes the upstream; success
/// closes the circuit, failure reopens it with the wait doubled (capped
/// and jittered, so a fleet of gateways does not re-probe in lockstep).
pub struct Supervisor<L> {
    inner: L,
    policy: BreakerPolicy,
    state: BreakerState,
    rng: SplitMix64,
    stats: SupervisorStats,
}

impl<L: UpstreamLink> Supervisor<L> {
    /// Wraps `inner` under `policy`.
    #[must_use]
    pub fn new(inner: L, policy: BreakerPolicy) -> Self {
        Supervisor {
            inner,
            policy,
            state: BreakerState::Closed {
                consecutive_failures: 0,
            },
            rng: SplitMix64::new(policy.seed),
            stats: SupervisorStats::default(),
        }
    }

    /// This supervisor's event counts so far.
    #[must_use]
    pub fn stats(&self) -> SupervisorStats {
        self.stats
    }

    /// True while the circuit is open (fast-failing).
    #[must_use]
    pub fn is_open(&self) -> bool {
        matches!(self.state, BreakerState::Open { .. })
    }

    /// Equal-jitter delay: half the base wait guaranteed, the other
    /// half uniformly random, so simultaneous trips spread their
    /// probes instead of re-converging on the upstream together.
    fn jittered(&mut self, wait: Duration) -> Duration {
        let ns = u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX);
        let half = ns / 2;
        Duration::from_nanos(half + self.rng.below(half + 1))
    }

    fn trip(&mut self, wait: Duration) {
        let delay = self.jittered(wait);
        self.state = BreakerState::Open {
            until: Instant::now() + delay,
            wait,
        };
        self.stats.opened += 1;
        metrics::inc(Metric::BreakerOpen);
    }

    fn on_success(&mut self) {
        if matches!(self.state, BreakerState::HalfOpen { .. }) {
            self.stats.closed += 1;
            metrics::inc(Metric::BreakerClose);
        }
        self.state = BreakerState::Closed {
            consecutive_failures: 0,
        };
    }

    fn on_failure(&mut self) {
        match self.state {
            BreakerState::Closed {
                consecutive_failures,
            } => {
                let n = consecutive_failures + 1;
                if n >= self.policy.failure_threshold {
                    self.trip(self.policy.backoff);
                } else {
                    self.state = BreakerState::Closed {
                        consecutive_failures: n,
                    };
                }
            }
            BreakerState::HalfOpen { wait } => {
                // The probe failed: reopen, doubled and capped.
                let doubled = wait
                    .checked_mul(2)
                    .unwrap_or(self.policy.backoff_cap)
                    .min(self.policy.backoff_cap);
                self.trip(doubled.max(self.policy.backoff));
            }
            BreakerState::Open { .. } => {}
        }
    }
}

impl<L: UpstreamLink> UpstreamLink for Supervisor<L> {
    fn forward(&mut self, request: &[u8], idempotent: bool) -> Option<Vec<u8>> {
        if let BreakerState::Open { until, wait } = self.state {
            if Instant::now() < until {
                self.stats.fast_failed += 1;
                metrics::inc(Metric::BreakerFastfail);
                return None;
            }
            self.state = BreakerState::HalfOpen { wait };
        }
        // Half-open grants exactly one probe; retries are for healthy
        // circuits and idempotent operations only.
        let attempts = if idempotent && matches!(self.state, BreakerState::Closed { .. }) {
            1 + self.policy.retry_budget
        } else {
            1
        };
        for attempt in 0..attempts {
            if attempt > 0 {
                self.stats.retried += 1;
                metrics::inc(Metric::BreakerRetry);
            }
            if let Some(response) = self.inner.forward(request, idempotent) {
                self.on_success();
                return Some(response);
            }
            self.on_failure();
            if self.is_open() {
                break;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oncrpc::{CallHeader, ReplyVerdict};

    // A toy pair: one u32 argument and one u32 result, byte-swapped
    // between the legs (XDR big-endian ↔ CDR little-endian).
    fn req_fused(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
        let mut r = MsgReader::new(src);
        let _db = dst.len();
        let v = r.get_u32_be()?;
        dst.align_from(_db, 4);
        dst.put_u32_le(v);
        Ok(())
    }

    fn rep_fused(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
        let mut r = MsgReader::new(src);
        let _sb = r.pos();
        r.align_from(_sb, 4)?;
        let v = r.get_u32_le()?;
        dst.put_u32_be(v);
        Ok(())
    }

    static OPS: &[BridgeOp] = &[
        BridgeOp {
            proc_num: 1,
            name: "bump",
            oneway: false,
            idempotent: false,
            request: req_fused,
            reply: rep_fused,
            request_naive: req_fused,
            reply_naive: rep_fused,
        },
        BridgeOp {
            proc_num: 2,
            name: "poke",
            oneway: true,
            idempotent: true,
            request: req_fused,
            reply: rep_fused,
            request_naive: req_fused,
            reply_naive: rep_fused,
        },
    ];

    fn call_record(proc_num: u32, arg: u32) -> Vec<u8> {
        let mut b = MarshalBuf::new();
        CallHeader {
            xid: 7,
            prog: 0x2000_0001,
            vers: 1,
            proc: proc_num,
        }
        .write(&mut b);
        b.put_u32_be(arg);
        b.into_vec()
    }

    /// A GIOP echo-ish upstream: decodes the request, replies with the
    /// argument + 1.
    fn upstream(msg: &[u8]) -> Option<Vec<u8>> {
        let mut r = MsgReader::new(msg);
        let h = giop::read_header(&mut r).ok()?;
        let cdr = CdrIn::begin(&r, h.order);
        let rh = giop::get_request_header_ref(&mut r, &cdr).ok()?;
        assert_eq!(rh.operation, "bump");
        let base = r.pos();
        r.align_from(base, 4).ok()?;
        let v = cdr.get_u32(&mut r).ok()?;
        let mut out = MarshalBuf::new();
        let at = giop::begin_message(&mut out, h.order, giop::MsgType::Reply);
        let co = CdrOut::begin(&out, h.order);
        giop::put_reply_header(&mut out, &co, rh.request_id, giop::ReplyStatus::NoException);
        co.put_u32(&mut out, v + 1);
        giop::finish_message(&mut out, at, h.order);
        Some(out.into_vec())
    }

    fn bridge(naive: bool) -> Bridge {
        Bridge::new(OPS, 0x2000_0001, 1, b"obj", ByteOrder::Little, naive)
    }

    #[test]
    fn forwards_and_rewrites_both_legs() {
        let mut b = bridge(false);
        let mut reply = MarshalBuf::new();
        let out = b.handle_record(&call_record(1, 41), &mut reply, &mut upstream);
        assert_eq!(out, BridgeOutcome::Replied);
        let data = reply.as_slice();
        let mut r = MsgReader::new(data);
        let (xid, verdict) = oncrpc::read_reply_verdict(&mut r).expect("reply parses");
        assert_eq!((xid, verdict), (7, ReplyVerdict::Success));
        assert_eq!(r.get_u32_be().unwrap(), 42, "result re-encoded as XDR");
        assert!(r.is_exhausted());
        assert_eq!(
            b.counters(),
            BridgeCounters {
                forwarded: 1,
                rejected: 0,
                fallback: 0
            }
        );
    }

    #[test]
    fn naive_mode_counts_fallbacks() {
        // With collection on, so the per-op twins register and count too.
        let _guard = crate::trace::test_lock();
        flick_telemetry::set_enabled(true);
        let mut b = bridge(true);
        let mut reply = MarshalBuf::new();
        b.handle_record(&call_record(1, 1), &mut reply, &mut upstream);
        flick_telemetry::set_enabled(false);
        assert_eq!(
            b.counters(),
            BridgeCounters {
                forwarded: 1,
                rejected: 0,
                fallback: 1
            }
        );
        let s = flick_telemetry::global().snapshot();
        assert!(s.counter("bridge.bump.forwarded").unwrap() >= 1);
        assert!(s.counter("bridge.bump.fallback").unwrap() >= 1);
        assert!(s.counter("bridge.bump.rejected").is_some());
    }

    #[test]
    fn hostile_args_answer_garbage_args_without_forwarding() {
        let mut b = bridge(false);
        let mut reply = MarshalBuf::new();
        let mut rec = call_record(1, 1);
        rec.truncate(rec.len() - 2); // argument word cut short
        let out = b.handle_record(&rec, &mut reply, &mut |_: &[u8]| panic!("must not forward"));
        assert_eq!(out, BridgeOutcome::Replied);
        let mut r = MsgReader::new(reply.as_slice());
        let (_, verdict) = oncrpc::read_reply_verdict(&mut r).unwrap();
        assert_eq!(verdict, ReplyVerdict::GarbageArgs);
        assert_eq!(b.counters().rejected, 1);
    }

    #[test]
    fn dead_or_lying_upstream_answers_system_err() {
        let mut b = bridge(false);
        let mut reply = MarshalBuf::new();
        b.handle_record(&call_record(1, 1), &mut reply, &mut |_: &[u8]| None);
        let mut r = MsgReader::new(reply.as_slice());
        assert_eq!(
            oncrpc::read_reply_verdict(&mut r).unwrap().1,
            ReplyVerdict::SystemErr
        );

        // Garbage reply bytes: also SYSTEM_ERR, not a crash.
        let mut reply = MarshalBuf::new();
        b.handle_record(&call_record(1, 1), &mut reply, &mut |_: &[u8]| {
            Some(vec![0xff; 6])
        });
        let mut r = MsgReader::new(reply.as_slice());
        assert_eq!(
            oncrpc::read_reply_verdict(&mut r).unwrap().1,
            ReplyVerdict::SystemErr
        );
        assert_eq!(b.counters().rejected, 2);
    }

    #[test]
    fn spent_budget_is_refused_without_forwarding() {
        let budgeted = |proc_num: u32, budget: Duration| {
            let _g = crate::deadline::stamp_outbound(budget);
            call_record(proc_num, 41)
        };
        // The budget each forwarded request carried upstream.
        let mut forwarded = Vec::new();
        let mut link = |msg: &[u8]| {
            let mut r = MsgReader::new(msg);
            let h = giop::read_header(&mut r).ok()?;
            let cdr = CdrIn::begin(&r, h.order);
            forwarded.push(
                giop::get_request_header_ref(&mut r, &cdr)
                    .ok()?
                    .context
                    .budget_ns,
            );
            upstream(msg)
        };
        let mut b = bridge(false);
        let mut reply = MarshalBuf::new();

        let out = b.handle_record(&budgeted(1, Duration::ZERO), &mut reply, &mut link);
        assert_eq!(out, BridgeOutcome::Replied);
        let mut r = MsgReader::new(reply.as_slice());
        assert_eq!(
            oncrpc::read_reply_verdict(&mut r).unwrap(),
            (7, ReplyVerdict::SystemErr)
        );
        // A spent oneway has nobody to tell.
        let out = b.handle_record(&budgeted(2, Duration::ZERO), &mut reply, &mut link);
        assert_eq!(out, BridgeOutcome::Silent);
        assert_eq!(b.counters().rejected, 2);

        let live = budgeted(1, Duration::from_secs(30));
        let out = b.handle_record(&live, &mut reply, &mut link);
        assert_eq!(out, BridgeOutcome::Replied);
        let mut r = MsgReader::new(reply.as_slice());
        assert_eq!(
            oncrpc::read_reply_verdict(&mut r).unwrap(),
            (7, ReplyVerdict::Success)
        );
        assert_eq!(b.counters().forwarded, 1);

        // Only the live call went upstream, with what was left of its budget.
        assert!(
            matches!(forwarded[..], [Some(left)] if left > 0 && left <= 30_000_000_000),
            "{forwarded:?}"
        );
        crate::deadline::clear_inbound();
    }

    #[test]
    fn unknown_procedure_and_wrong_program_refuse() {
        let mut b = bridge(false);
        let mut reply = MarshalBuf::new();
        b.handle_record(&call_record(9, 1), &mut reply, &mut |_: &[u8]| {
            panic!("must not forward")
        });
        let mut r = MsgReader::new(reply.as_slice());
        assert_eq!(
            oncrpc::read_reply_verdict(&mut r).unwrap().1,
            ReplyVerdict::ProcUnavail
        );

        let mut wrong = Bridge::new(OPS, 77, 1, b"obj", ByteOrder::Little, false);
        let mut reply = MarshalBuf::new();
        wrong.handle_record(&call_record(1, 1), &mut reply, &mut |_: &[u8]| {
            panic!("must not forward")
        });
        let mut r = MsgReader::new(reply.as_slice());
        assert_eq!(
            oncrpc::read_reply_verdict(&mut r).unwrap().1,
            ReplyVerdict::ProgUnavail
        );
    }

    /// A scriptable upstream: pops one result per call and counts how
    /// often it was actually reached.
    struct ScriptedUpstream {
        script: std::collections::VecDeque<bool>,
        calls: u64,
    }
    impl ScriptedUpstream {
        fn new(script: &[bool]) -> Self {
            ScriptedUpstream {
                script: script.iter().copied().collect(),
                calls: 0,
            }
        }
    }
    impl UpstreamLink for ScriptedUpstream {
        fn forward(&mut self, _request: &[u8], _idempotent: bool) -> Option<Vec<u8>> {
            self.calls += 1;
            if self.script.pop_front().unwrap_or(false) {
                Some(vec![1])
            } else {
                None
            }
        }
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_and_fast_fails() {
        let policy = BreakerPolicy {
            failure_threshold: 2,
            backoff: Duration::from_secs(3600), // never elapses in-test
            retry_budget: 0,
            ..BreakerPolicy::default()
        };
        let mut s = Supervisor::new(ScriptedUpstream::new(&[false; 8]), policy);
        assert!(s.forward(b"req", false).is_none());
        assert!(!s.is_open(), "one failure is below the threshold");
        assert!(s.forward(b"req", false).is_none());
        assert!(s.is_open(), "second consecutive failure trips the circuit");
        for _ in 0..5 {
            assert!(s.forward(b"req", false).is_none());
        }
        assert_eq!(
            s.inner.calls, 2,
            "an open circuit must not touch the upstream"
        );
        assert_eq!(s.stats().opened, 1);
        assert_eq!(s.stats().fast_failed, 5);
    }

    #[test]
    fn breaker_recovers_through_a_half_open_probe() {
        let policy = BreakerPolicy {
            failure_threshold: 1,
            backoff: Duration::ZERO, // elapses immediately: probe next call
            retry_budget: 0,
            ..BreakerPolicy::default()
        };
        // Fail once (trips), then the upstream comes back for good.
        let mut s = Supervisor::new(ScriptedUpstream::new(&[false, true, true]), policy);
        assert!(s.forward(b"req", false).is_none());
        assert!(s.is_open());
        // Backoff already elapsed: this call is the half-open probe,
        // it succeeds, and the circuit closes without a restart.
        assert!(s.forward(b"req", false).is_some());
        assert!(!s.is_open());
        assert!(s.forward(b"req", false).is_some());
        assert_eq!(s.stats().opened, 1);
        assert_eq!(s.stats().closed, 1);
    }

    #[test]
    fn failed_probe_reopens_with_a_doubled_wait() {
        let policy = BreakerPolicy {
            failure_threshold: 1,
            backoff: Duration::ZERO,
            backoff_cap: Duration::from_secs(3600),
            retry_budget: 0,
            ..BreakerPolicy::default()
        };
        let mut s = Supervisor::new(ScriptedUpstream::new(&[false, false, true]), policy);
        assert!(s.forward(b"req", false).is_none()); // trips (wait 0)
        assert!(s.forward(b"req", false).is_none()); // probe fails: reopen
        assert_eq!(s.stats().opened, 2);
        // The reopen escalated from zero to at least the base backoff
        // floor; with a zero base that is still zero, so the next call
        // probes again and heals.
        assert!(s.forward(b"req", false).is_some());
        assert_eq!(s.stats().closed, 1);
    }

    #[test]
    fn retry_budget_applies_only_to_idempotent_ops() {
        let policy = BreakerPolicy {
            failure_threshold: 10,
            retry_budget: 1,
            ..BreakerPolicy::default()
        };
        // Fails once, then succeeds: an idempotent op absorbs the
        // failure inside its retry budget.
        let mut s = Supervisor::new(ScriptedUpstream::new(&[false, true]), policy);
        assert!(s.forward(b"req", true).is_some());
        assert_eq!(s.inner.calls, 2);
        assert_eq!(s.stats().retried, 1);

        // The same shape, not idempotent: one attempt, one failure.
        let mut s = Supervisor::new(ScriptedUpstream::new(&[false, true]), policy);
        assert!(s.forward(b"req", false).is_none());
        assert_eq!(s.inner.calls, 1);
        assert_eq!(s.stats().retried, 0);
    }

    #[test]
    fn a_supervised_bridge_degrades_and_heals_end_to_end() {
        // Dead upstream behind a supervisor: callers get SYSTEM_ERR
        // (fast), and once the upstream returns the same bridge serves
        // again — the self-healing contract, observed from the ONC side.
        let policy = BreakerPolicy {
            failure_threshold: 1,
            backoff: Duration::ZERO,
            retry_budget: 0,
            ..BreakerPolicy::default()
        };
        struct Flapping {
            healthy: bool,
        }
        impl UpstreamLink for Flapping {
            fn forward(&mut self, request: &[u8], _idempotent: bool) -> Option<Vec<u8>> {
                if self.healthy {
                    upstream(request)
                } else {
                    None
                }
            }
        }
        let mut link = Supervisor::new(Flapping { healthy: false }, policy);
        let mut b = bridge(false);
        let mut reply = MarshalBuf::new();

        b.handle_record(&call_record(1, 1), &mut reply, &mut link);
        let mut r = MsgReader::new(reply.as_slice());
        assert_eq!(
            oncrpc::read_reply_verdict(&mut r).unwrap().1,
            ReplyVerdict::SystemErr
        );
        assert!(link.is_open());

        link.inner.healthy = true;
        let mut reply = MarshalBuf::new();
        b.handle_record(&call_record(1, 41), &mut reply, &mut link);
        let mut r = MsgReader::new(reply.as_slice());
        let (_, verdict) = oncrpc::read_reply_verdict(&mut r).unwrap();
        assert_eq!(verdict, ReplyVerdict::Success);
        assert_eq!(r.get_u32_be().unwrap(), 42);
        assert!(!link.is_open(), "the probe healed the circuit");
    }
}
