//! The connection fabric: a multiplexed serving runtime for generated
//! stubs.
//!
//! Flick's generated stubs win on per-call marshal throughput, but a
//! server that drains one connection at a time squanders that speed
//! under concurrent load.  The fabric drives *many* connections per
//! process: an accept loop distributes connections round-robin to
//! thread-per-core workers, and each worker pumps a set of
//! per-connection state machines ([`ConnDriver`]) through
//! read → parse → dispatch → batch → flush rounds.
//!
//! The contract, per connection:
//!
//! * **Pipelining** — up to [`Limits::max_pipeline`] frames may be
//!   outstanding (parsed and dispatched, reply not yet produced) at
//!   once.  Frames carry protocol-level ids (ONC xid, GIOP
//!   request-id), so replies completed out of order by a
//!   [`FrameHandler`] still reach the right requester; the fabric
//!   imposes no head-of-line blocking between requests on one link.
//! * **Batching** — every reply is framed onto the connection's one
//!   output queue as it completes, and a pump round flushes what it
//!   queued together — one writev-style write per round, not one per
//!   reply (`fabric.batch.{flush,records}`).
//! * **Backpressure** — a connection whose queued replies exceed
//!   [`Limits::reply_buf_bytes`] is not *read* until the queue drains
//!   (`fabric.backpressure`), and a connection is never read while its
//!   input buffer still holds a complete undispatched frame — so a
//!   flood of tiny frames cannot outrun dispatch and grow the input
//!   buffer.  Combined with the framing caps (enforced on replies as
//!   well as requests), per-connection memory is bounded by
//!   [`Limits::per_conn_buffer_bound`]; a slow reader stalls itself,
//!   never the process.
//! * **Eviction** — a framing violation (oversized frame, bad magic)
//!   closes the connection immediately (`fabric.conn.evicted`).
//!
//! And process-wide, across connections:
//!
//! * **Deadline enforcement** — a request whose propagated time budget
//!   (see [`crate::deadline`]) arrived already spent is answered with
//!   the protocol's cheap failure *before* any argument decode or
//!   handler work — `SYSTEM_ERR` on ONC streams, a `TIMEOUT` system
//!   exception on GIOP — and silently dropped on datagram transports
//!   (`rpc.expired`).
//! * **Load shedding** — once fabric-wide in-flight requests pass
//!   [`Limits::shed_threshold`], new requests are refused with
//!   `PROG_UNAVAIL` / `TRANSIENT` (`fabric.shed.*`); at
//!   [`Limits::max_inflight_total`] workers stop consuming input
//!   entirely.  Overload costs each refused caller one cheap error,
//!   not the whole process its latency.
//! * **Graceful drain** — [`FabricController::shutdown`] stops
//!   accepting, lets in-flight work complete and flush, then closes;
//!   connections still open past the grace period are force-closed
//!   (`fabric.drained`).
//!
//! Buffers come from [`crate::pool`], so a warm fabric serves its
//! steady state without per-call allocation.  The byte-oriented
//! [`Conn`] trait is implemented by `flick-transport` (this crate
//! stays I/O-free); [`service_handler`] adapts the generated
//! `handle_call` / `handle_message` entry points unchanged, and
//! [`BridgeHandler`] folds the transcoding gateway in as just another
//! connection handler.

use crate::bridge::{Bridge, BridgeOutcome};
use crate::buf::{MarshalBuf, MsgReader};
use crate::cdr::ByteOrder;
use crate::error::DecodeError;
use crate::limits::Limits;
use crate::metrics::Metric;
use crate::oncrpc::{self, RecordExtent};
use crate::{giop, metrics, pool};
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Result of one non-blocking read on a [`Conn`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadStatus {
    /// `n` bytes were appended to the buffer.
    Read(usize),
    /// No bytes available right now; the peer may send more later.
    Empty,
    /// The peer closed its sending side; no more bytes will arrive.
    Closed,
}

/// Result of one non-blocking write on a [`Conn`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteStatus {
    /// `n` bytes were accepted (possibly fewer than offered).
    Wrote(usize),
    /// No room right now; retry after the peer drains.
    Full,
    /// The peer is gone; nothing more can be written.
    Closed,
}

/// A byte-oriented, non-blocking connection the fabric can pump.
///
/// Implemented by `flick-transport`'s stream/datagram endpoints; the
/// runtime defines the trait (not the transports) so the dependency
/// arrow keeps pointing transport → runtime.
pub trait Conn: Send {
    /// Appends at most `max` available bytes to `buf`.
    fn read_into(&mut self, buf: &mut MarshalBuf, max: usize) -> ReadStatus;
    /// Writes a prefix of `bytes`, as much as fits right now.
    fn write_some(&mut self, bytes: &[u8]) -> WriteStatus;
    /// Tears the connection down (both directions).
    fn close(&mut self);
    /// True for datagram-backed connections, where an expired request
    /// is dropped silently (the sender's retransmit is the recovery
    /// path) instead of answered with an error it no longer wants.
    fn is_datagram(&self) -> bool {
        false
    }
}

/// Fabric-wide admission state, shared by every [`ConnDriver`] a
/// [`Fabric`] runs: the in-flight gauge the shed threshold compares
/// against, the overload counters, and the drain latch.
#[derive(Debug, Default)]
struct Shared {
    /// Frames dispatched (or being refused) whose completions have not
    /// yet drained, across all connections.
    inflight: AtomicUsize,
    /// Requests refused at admission because the fabric was over its
    /// shed threshold.
    shed: AtomicU64,
    /// Requests refused (or dropped) because their propagated budget
    /// was already spent on arrival.
    expired: AtomicU64,
    /// Set once by [`FabricController::shutdown`]: stop accepting,
    /// finish what is in flight, flush, close.
    draining: AtomicBool,
    /// When draining, the instant after which workers force-close
    /// connections that have not finished on their own.
    force_close_at: Mutex<Option<Instant>>,
}

/// The wire framing spoken on one connection — and the only place the
/// fabric knows a protocol: how a frame is scanned, peeked, refused and
/// framed back, and what [`Limits::max_frame_bytes`] caps (an ONC
/// record, or a GIOP body behind its 12-byte header).  Everything else
/// (admission, batching, drain) is written once, against these methods.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Framing {
    /// ONC RPC TCP record marking (fragment headers).
    OncRecord,
    /// GIOP messages (self-delimiting 12-byte header).
    Giop,
}

/// What admission control reads off a frame before any decode.
struct Peek {
    /// The request id a refusal echoes (ONC xid, GIOP request id).
    id: u32,
    /// The byte order a GIOP refusal is written in.
    order: ByteOrder,
    /// The propagated budget, if the frame carried one.
    budget_ns: Option<u64>,
    /// False when the frame must not be answered (a GIOP oneway).
    answerable: bool,
}

/// Why admission refused a frame.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Refusal {
    /// Its propagated budget arrived already spent.
    Expired,
    /// The fabric is over its shed threshold.
    Shed,
}

/// What [`Framing::scan`] found at the front of a stream.
enum Scan<'a> {
    /// One complete frame — borrowed, or assembled when an ONC record
    /// arrived in fragments — and the stream bytes it used.
    Frame(Cow<'a, [u8]>, usize),
    /// More bytes are needed.  Once the frame's header is buffered
    /// (every record mark of an ONC record, up to the last), the
    /// stream bytes the whole frame takes.
    Partial(Option<usize>),
}

impl Framing {
    /// Scans for one complete frame at the front of `stream`; `Err` on
    /// a framing violation.
    fn scan<'a>(self, limits: &Limits, stream: &'a [u8]) -> Result<Scan<'a>, DecodeError> {
        match self {
            Framing::OncRecord => Ok(
                match oncrpc::record_extent(stream, limits.max_frame_bytes)? {
                    // One fragment: the payload is borrowed in place.
                    RecordExtent::Whole { payload, used } if used == payload + 4 => {
                        Scan::Frame(Cow::Borrowed(&stream[4..used]), used)
                    }
                    RecordExtent::Whole { payload, used } => Scan::Frame(
                        Cow::Owned(oncrpc::assemble_record(&stream[..used], payload)),
                        used,
                    ),
                    RecordExtent::Partial { used, .. } => Scan::Partial(used),
                },
            ),
            Framing::Giop => {
                if stream.len() < giop::HEADER_BYTES {
                    return Ok(Scan::Partial(None));
                }
                let h = match giop::read_header_limited(
                    &mut MsgReader::new(stream),
                    limits.max_frame_bytes,
                ) {
                    Ok(h) => h,
                    Err(e) if matches!(e.root(), DecodeError::Truncated { .. }) => {
                        return Ok(Scan::Partial(None))
                    }
                    Err(e) => return Err(e),
                };
                let total = giop::HEADER_BYTES + h.size as usize;
                Ok(if stream.len() >= total {
                    Scan::Frame(Cow::Borrowed(&stream[..total]), total)
                } else {
                    Scan::Partial(Some(total))
                })
            }
        }
    }

    /// What admission needs from `frame`, read without decoding it or
    /// touching the thread's registers; `None` when the frame is not a
    /// well-formed request (the handler refuses those itself).
    fn peek(self, frame: &[u8]) -> Option<Peek> {
        match self {
            Framing::OncRecord => oncrpc::peek_call(frame).map(|p| Peek {
                id: p.xid,
                order: ByteOrder::Big,
                budget_ns: p.context.budget_ns,
                answerable: true,
            }),
            Framing::Giop => giop::peek_request(frame).map(|p| Peek {
                id: p.request_id,
                order: p.order,
                budget_ns: p.context.budget_ns,
                answerable: p.response_expected,
            }),
        }
    }

    /// The counter a shed on this framing bumps.
    fn shed_counter(self) -> Metric {
        match self {
            Framing::OncRecord => Metric::FabricShedOnc,
            Framing::Giop => Metric::FabricShedGiop,
        }
    }

    /// Writes the protocol's cheap refusal of a peeked frame into `out`:
    /// `SYSTEM_ERR` / `PROG_UNAVAIL` on ONC, a `TIMEOUT` / `TRANSIENT`
    /// system exception on GIOP.  It carries *no* trace context: the
    /// thread's trace register belongs to whatever frame a handler last
    /// decoded, not this one.
    fn refuse(self, why: Refusal, p: &Peek, out: &mut MarshalBuf) {
        out.clear();
        match self {
            Framing::OncRecord => {
                let outcome = match why {
                    Refusal::Expired => oncrpc::ReplyOutcome::SystemErr,
                    Refusal::Shed => oncrpc::ReplyOutcome::ProgUnavail,
                };
                oncrpc::write_reply_plain(out, p.id, outcome);
            }
            Framing::Giop => {
                let (repo_id, minor) = match why {
                    Refusal::Expired => ("IDL:omg.org/CORBA/TIMEOUT:1.0", 0),
                    Refusal::Shed => ("IDL:omg.org/CORBA/TRANSIENT:1.0", 1),
                };
                giop::write_system_exception_reply(out, p.order, p.id, repo_id, minor);
            }
        }
    }

    /// Frames one completed reply onto `out`.
    fn frame_reply(self, reply: &[u8], out: &mut MarshalBuf) {
        match self {
            Framing::OncRecord => oncrpc::frame_record_into(reply, out),
            // GIOP messages are self-delimiting; append as-is.
            Framing::Giop => out.put_bytes(reply),
        }
    }

    /// The largest reply the framing can carry: the same cap enforced
    /// on inbound frames, so `per_conn_buffer_bound`'s "+ one maximal
    /// reply" term holds on the outbound side too (and, for ONC, the
    /// record mark's 31-bit length stays valid).
    fn reply_cap(self, limits: &Limits) -> usize {
        let cap = match self {
            Framing::OncRecord => limits.max_frame_bytes,
            Framing::Giop => giop::HEADER_BYTES + limits.max_frame_bytes,
        };
        cap.min(0x7fff_ffff)
    }
}

/// Identifies one frame within its connection: frames are numbered in
/// arrival order, and replies may complete in any order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(pub u64);

/// Where a [`FrameHandler`] deposits completed replies: the
/// connection's one outbound queue.
///
/// Each reply is framed onto the queue as it completes — no per-reply
/// allocation, and one copy: a handler that encodes into its own
/// scratch (as [`service_handler`] does) has its reply copied onto the
/// queue behind the record mark or GIOP header — and the driver flushes
/// whatever one pump round queued as a batch.  The queue takes nothing
/// from the pool up front: it grows on its first reply and keeps its
/// storage, for replies are small.  A handler may answer a
/// frame immediately in `on_frame` or hold it and answer from a later
/// `poll` — that is what makes the pipelining window real.
#[derive(Debug)]
pub struct ReplySink {
    queue: pool::PooledBuf,
    framing: Framing,
    /// The largest reply `framing` can carry.
    cap: usize,
    /// Frames completed since the driver last settled its accounting.
    completed: usize,
    /// Of those, the ones that queued a reply.
    records: usize,
    /// A completed reply exceeded `cap`; the connection must go.
    oversized: bool,
}

impl ReplySink {
    fn new(framing: Framing, limits: &Limits) -> Self {
        ReplySink {
            queue: pool::PooledBuf::empty(),
            framing,
            cap: framing.reply_cap(limits),
            completed: 0,
            records: 0,
            oversized: false,
        }
    }

    /// Completes `id` with an unframed reply (an ONC reply record or a
    /// complete GIOP message, matching the connection's framing).  A
    /// reply the framing cannot carry is not queued; it evicts the
    /// connection instead.
    pub fn reply(&mut self, _id: FrameId, bytes: &[u8]) {
        self.completed += 1;
        if bytes.len() > self.cap {
            self.oversized = true;
        } else {
            self.framing.frame_reply(bytes, &mut self.queue);
            self.records += 1;
        }
    }

    /// Completes `id` with no reply on the wire.
    pub fn silent(&mut self, _id: FrameId) {
        self.completed += 1;
    }
}

/// Per-connection request processing plugged into a [`ConnDriver`].
pub trait FrameHandler: Send {
    /// Handles one complete inbound frame (an unframed ONC record or a
    /// complete GIOP message).  Every frame must *eventually* be
    /// completed via `sink` — here or from a later [`poll`].
    ///
    /// [`poll`]: FrameHandler::poll
    fn on_frame(&mut self, id: FrameId, frame: &[u8], sink: &mut ReplySink);

    /// Called once per pump round before reading: deliver any replies
    /// that completed asynchronously since the last round.  The
    /// default does nothing (fully synchronous handlers).
    fn poll(&mut self, sink: &mut ReplySink) {
        let _ = sink;
    }
}

/// Adapts a synchronous request→reply function — the shape of the
/// generated `handle_call`/`handle_message` entry points — into a
/// [`FrameHandler`].  The closure writes its reply into the provided
/// buffer and returns whether one should go out.
///
/// ```ignore
/// let h = service_handler(move |frame, reply| {
///     onc_bench::handle_call(frame, PROG, VERS, reply, &mut srv)
/// });
/// ```
pub fn service_handler<F>(f: F) -> impl FrameHandler
where
    F: FnMut(&[u8], &mut MarshalBuf) -> bool + Send,
{
    struct Sync<F> {
        f: F,
        scratch: MarshalBuf,
    }
    impl<F> FrameHandler for Sync<F>
    where
        F: FnMut(&[u8], &mut MarshalBuf) -> bool + Send,
    {
        fn on_frame(&mut self, id: FrameId, frame: &[u8], sink: &mut ReplySink) {
            self.scratch.clear();
            if (self.f)(frame, &mut self.scratch) {
                sink.reply(id, self.scratch.as_slice());
            } else {
                sink.silent(id);
            }
        }
    }
    Sync {
        f,
        scratch: MarshalBuf::new(),
    }
}

/// The transcoding gateway as a fabric handler: each inbound ONC
/// record is rewritten and forwarded upstream by the wrapped
/// [`Bridge`], and the rewritten reply completes the frame.  One
/// fabric process can host many of these, proxying many ONC→GIOP
/// links alongside ordinary served connections.
pub struct BridgeHandler<F> {
    bridge: Bridge,
    forward: F,
    scratch: MarshalBuf,
}

impl<F> BridgeHandler<F>
where
    F: crate::bridge::UpstreamLink + Send,
{
    /// Wraps `bridge`, forwarding upstream via `forward` — any
    /// [`crate::bridge::UpstreamLink`]: a plain closure (a complete
    /// GIOP request in, the complete GIOP reply out, `None` on a dead
    /// upstream) or a [`crate::bridge::Supervisor`] for a self-healing
    /// link.
    pub fn new(bridge: Bridge, forward: F) -> Self {
        BridgeHandler {
            bridge,
            forward,
            scratch: MarshalBuf::new(),
        }
    }

    /// The wrapped bridge's counters so far.
    #[must_use]
    pub fn counters(&self) -> crate::bridge::BridgeCounters {
        self.bridge.counters()
    }

    /// The wrapped upstream link — e.g. a [`crate::bridge::Supervisor`]
    /// whose breaker stats a harness wants to read out when the
    /// connection settles.
    #[must_use]
    pub fn upstream(&self) -> &F {
        &self.forward
    }
}

impl<F> FrameHandler for BridgeHandler<F>
where
    F: crate::bridge::UpstreamLink + Send,
{
    fn on_frame(&mut self, id: FrameId, frame: &[u8], sink: &mut ReplySink) {
        self.scratch.clear();
        match self
            .bridge
            .handle_record(frame, &mut self.scratch, &mut self.forward)
        {
            BridgeOutcome::Replied => sink.reply(id, self.scratch.as_slice()),
            BridgeOutcome::Silent => sink.silent(id),
        }
    }
}

/// What one [`ConnDriver::pump`] round accomplished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pump {
    /// Bytes moved or frames completed; pump again soon.
    Progress,
    /// Nothing to do right now; the connection is waiting on its peer.
    Idle,
    /// The connection is finished (drained and closed, or evicted).
    Done,
}

/// How a finished connection ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ending {
    Closed,
    Evicted,
}

/// Outcome of one [`ConnDriver::dispatch_frames`] pass.
#[derive(Clone, Copy, Debug)]
struct Dispatched {
    /// Frames parsed and handed to the handler.
    frames: usize,
    /// The pass stopped because `inbuf` holds no complete frame — as
    /// opposed to stopping at the pipelining-window or reply-queue
    /// gate — so reading more bytes is the only way to make progress.
    starved: bool,
    /// When starved on a partial frame whose header is buffered: the
    /// stream bytes that frame takes, from the front of `inbuf`.
    frame_end: Option<usize>,
}

/// The per-connection state machine: owns the connection, its framing,
/// its handler, one pooled inbound buffer and the outbound queue (the
/// [`ReplySink`]).  The inbound buffer holds bulk storage only while a
/// frame is in flight: the [`Conn`] draws it from the thread's pool
/// when bytes arrive (see [`crate::pool::draw`]), and a dispatch pass
/// that drains it releases it.
pub struct ConnDriver {
    conn: Box<dyn Conn>,
    handler: Box<dyn FrameHandler>,
    limits: Limits,
    shared: Arc<Shared>,
    datagram: bool,
    inbuf: pool::PooledBuf,
    sink: ReplySink,
    /// Scratch for synthesized admission refusals.
    refusal: MarshalBuf,
    next_id: u64,
    /// Frames dispatched whose replies have not yet been completed.
    outstanding: usize,
    read_closed: bool,
    ending: Option<Ending>,
}

impl ConnDriver {
    /// A driver over `conn`, speaking `framing`, dispatching to
    /// `handler`, bounded by `limits`.  A standalone driver gets its
    /// own private admission state; drivers run by a [`Fabric`] share
    /// the fabric's.
    #[must_use]
    pub fn new(
        conn: Box<dyn Conn>,
        framing: Framing,
        handler: Box<dyn FrameHandler>,
        limits: Limits,
    ) -> Self {
        Self::with_shared(conn, framing, handler, limits, Arc::default())
    }

    fn with_shared(
        conn: Box<dyn Conn>,
        framing: Framing,
        handler: Box<dyn FrameHandler>,
        limits: Limits,
        shared: Arc<Shared>,
    ) -> Self {
        metrics::inc(Metric::FabricConnOpen);
        let datagram = conn.is_datagram();
        ConnDriver {
            conn,
            handler,
            limits,
            shared,
            datagram,
            inbuf: pool::PooledBuf::empty(),
            sink: ReplySink::new(framing, &limits),
            refusal: MarshalBuf::new(),
            next_id: 0,
            outstanding: 0,
            read_closed: false,
            ending: None,
        }
    }

    /// Framed replies queued but not yet accepted by the connection —
    /// the quantity the backpressure threshold compares against.
    #[must_use]
    pub fn queued_reply_bytes(&self) -> usize {
        self.sink.queue.len()
    }

    /// Inbound bytes buffered but not yet dispatched.  Bounded by one
    /// partial frame plus one read chunk: the driver only reads when
    /// the parser has no complete frame left to dispatch.
    #[must_use]
    pub fn buffered_input_bytes(&self) -> usize {
        self.inbuf.len()
    }

    /// Bytes `inbuf` holds room for: once a frame straddling reads is
    /// whole, its own length, plus whatever of the next frame the same
    /// read brought.
    #[must_use]
    pub fn buffered_input_capacity(&self) -> usize {
        self.inbuf.capacity()
    }

    /// Frames dispatched whose replies are still pending.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    fn finish(&mut self, ending: Ending) -> Pump {
        if self.ending.is_none() {
            self.ending = Some(ending);
            self.conn.close();
            // Whatever was still outstanding will never complete now;
            // release it from the fabric-wide gauge so dead work
            // cannot pin the shed threshold.
            if self.outstanding > 0 {
                self.shared
                    .inflight
                    .fetch_sub(self.outstanding, Ordering::Relaxed);
                self.outstanding = 0;
            }
            match ending {
                Ending::Closed => metrics::inc(Metric::FabricConnClosed),
                Ending::Evicted => metrics::inc(Metric::FabricConnEvicted),
            }
        }
        Pump::Done
    }

    /// Stops reading new requests: the driver finishes once in-flight
    /// work completes and queued replies flush, exactly as if the peer
    /// had half-closed.
    fn begin_drain(&mut self) {
        self.read_closed = true;
    }

    /// Drain grace expired: one last flush attempt, then close.
    fn force_close(&mut self) {
        if self.ending.is_none() {
            let _ = self.flush();
            self.finish(Ending::Closed);
        }
    }

    /// Settles the accounting for every frame the handler completed
    /// since the last call (their replies are already queued).  `Err`
    /// means a handler produced a reply the framing cannot carry; the
    /// connection must be evicted rather than put corrupt or unbounded
    /// bytes on the wire.
    fn drain_sink(&mut self) -> Result<usize, Ending> {
        let completed = std::mem::take(&mut self.sink.completed);
        if completed == 0 {
            return Ok(0);
        }
        debug_assert!(
            completed <= self.outstanding,
            "handler completed frames it was never given"
        );
        self.outstanding = self.outstanding.saturating_sub(completed);
        self.shared.inflight.fetch_sub(completed, Ordering::Relaxed);
        if self.sink.oversized {
            return Err(Ending::Evicted);
        }
        let records = std::mem::take(&mut self.sink.records);
        if records > 0 {
            metrics::inc(Metric::FabricBatchFlush);
            metrics::add(Metric::FabricBatchRecords, records as u64);
        }
        Ok(completed)
    }

    /// Writes as much queued output as the connection will take.
    /// Returns bytes written; `Err` when the peer is gone.
    fn flush(&mut self) -> Result<usize, Ending> {
        let queue = &mut self.sink.queue;
        let mut written = 0;
        while !queue.is_empty() {
            match self.conn.write_some(queue.as_slice()) {
                WriteStatus::Wrote(n) => {
                    queue.drain_front(n);
                    written += n;
                }
                WriteStatus::Full => break,
                WriteStatus::Closed => return Err(Ending::Closed),
            }
        }
        Ok(written)
    }

    /// Parses frames off the front of `inbuf` and dispatches them,
    /// respecting the pipelining window.  Returns what happened, or
    /// `Err` on a framing violation (the connection must be evicted).
    fn dispatch_frames(&mut self) -> Result<Dispatched, DecodeError> {
        let mut consumed = 0;
        let mut frames = 0;
        let mut starved = false;
        let mut frame_end = None;
        loop {
            // The pipelining window, the reply queue, and the
            // fabric-wide hard cap all gate dispatch: consuming a
            // frame commits us to buffering its reply (and, past the
            // hard cap, to work the whole process can no longer
            // afford), so any of them stops consumption.
            if self.outstanding >= self.limits.max_pipeline
                || self.queued_reply_bytes() >= self.limits.reply_buf_bytes
                || self.shared.inflight.load(Ordering::Relaxed) >= self.limits.max_inflight_total
            {
                break;
            }
            let stream = &self.inbuf.as_slice()[consumed..];
            if stream.is_empty() {
                starved = true;
                break;
            }
            let (frame, used) = match self.sink.framing.scan(&self.limits, stream)? {
                Scan::Frame(frame, used) => (frame, used),
                Scan::Partial(end) => {
                    starved = true;
                    frame_end = end;
                    break;
                }
            };
            let id = FrameId(self.next_id);
            self.next_id += 1;
            self.outstanding += 1;
            self.shared.inflight.fetch_add(1, Ordering::Relaxed);
            deliver_frame(
                self.datagram,
                &self.limits,
                &self.shared,
                self.handler.as_mut(),
                &mut self.sink,
                &mut self.refusal,
                id,
                &frame,
            );
            frames += 1;
            consumed += used;
        }
        if consumed > 0 {
            self.inbuf.drain_front(consumed);
            pool::release(&mut self.inbuf, consumed);
        }
        Ok(Dispatched {
            frames,
            starved,
            frame_end,
        })
    }

    /// Parses and dispatches the whole buffered backlog: alternates
    /// dispatch passes with sink drains, so completions from a
    /// synchronous handler reopen the pipelining window within the
    /// round and buffered frames never pile up behind a stale gate.
    /// Returns the progress made and the last pass — whose `starved`
    /// means `inbuf` holds no complete frame and only reading can make
    /// further progress — or `Err` when the connection must be evicted.
    fn dispatch_backlog(&mut self) -> Result<(usize, Dispatched), Ending> {
        let mut progress = 0;
        loop {
            let d = self.dispatch_frames().map_err(|_| Ending::Evicted)?;
            progress += d.frames + self.drain_sink()?;
            if d.frames == 0 || d.starved {
                return Ok((progress, d));
            }
        }
    }

    /// How many bytes the next read may append to `inbuf`, growing it
    /// first where that is safe.  While the front frame's length is
    /// unknown: a full chunk, and a read that overflows `inbuf` grows
    /// it as a `Vec` grows, doubling.  Once its header announces that
    /// the frame ends `frame_end` bytes in, growth stops there:
    ///
    /// * when the bytes that arrived, doubled, reach the frame's end,
    ///   `inbuf` grows to exactly that end — never further on a
    ///   header's word alone;
    /// * a read fills the room `inbuf` already holds and grows nothing;
    /// * a full `inbuf` lets the read double it, which stays within
    ///   the frame, for the read is held to the frame's end.
    ///
    /// So a frame that straddles reads sits in a buffer of its own
    /// length, growth stays geometric, and a peer that announces a
    /// huge frame and stops pins no more than one that does not.
    fn read_room(&mut self, frame_end: Option<usize>) -> usize {
        let chunk = self.limits.read_chunk_bytes;
        let Some(end) = frame_end else {
            return chunk;
        };
        let len = self.inbuf.len();
        if self.inbuf.capacity() < end && end <= 2 * len {
            self.inbuf.ensure_exact(end - len);
        }
        let cap = self.inbuf.capacity();
        if len < cap {
            chunk.min(cap - len)
        } else {
            chunk.min(end - len)
        }
    }

    /// One pump round: flush queued replies, poll the handler for
    /// deferred completions, dispatch the buffered backlog, read only
    /// if the parser is starved for bytes (and not backpressured),
    /// then flush the round's batch.
    pub fn pump(&mut self) -> Pump {
        if self.ending.is_some() {
            return Pump::Done;
        }
        match self.round() {
            Err(ending) => self.finish(ending),
            // A closed, drained, settled connection is finished.  Bytes
            // left in `inbuf` after close are a truncated frame: dropped,
            // as a real socket would.
            Ok(_) if self.read_closed && self.outstanding == 0 && self.sink.queue.is_empty() => {
                self.finish(Ending::Closed)
            }
            Ok(0) => Pump::Idle,
            Ok(_) => Pump::Progress,
        }
    }

    /// The body of [`pump`](Self::pump): the progress one round made,
    /// or how the connection ended (closed by the peer, or evicted for
    /// a framing violation or an uncarriable reply).
    fn round(&mut self) -> Result<usize, Ending> {
        // Every frame this round dispatches takes its arrival time
        // from one clock read (see `deadline`'s round clock).
        let clock = crate::deadline::open_round();

        // 1. Move queued output first: draining the reply queue is
        //    what lifts backpressure.
        let mut progress = self.flush()?;

        // 2. Deferred completions from a pipelining handler.
        self.handler.poll(&mut self.sink);
        progress += self.drain_sink()?;

        // 3. Dispatch whatever is already buffered.
        let (n, d) = self.dispatch_backlog()?;
        progress += n;

        // 4. Read only when dispatch is starved for bytes.  Skipping
        //    the read while `inbuf` still holds a complete frame (the
        //    window or the reply queue gated dispatch) is what bounds
        //    `inbuf` to one partial frame plus one read chunk — a
        //    flood of tiny frames cannot outrun dispatch.
        let backpressured = self.queued_reply_bytes() >= self.limits.reply_buf_bytes;
        if backpressured {
            metrics::inc(Metric::FabricBackpressure);
        } else if d.starved && !self.read_closed {
            let room = self.read_room(d.frame_end);
            match self.conn.read_into(&mut self.inbuf, room) {
                ReadStatus::Read(n) => {
                    // These bytes arrived no earlier than now: never
                    // anchor them at an instant taken before the read.
                    clock.refresh();
                    progress += n + self.dispatch_backlog()?.0;
                }
                ReadStatus::Empty => {}
                ReadStatus::Closed => self.read_closed = true,
            }
        }

        // 5. Batch-flush everything completed this round.
        Ok(progress + self.flush()?)
    }
}

/// Admission control, then dispatch: every consumed frame lands here,
/// already counted in the local window and the fabric-wide gauge, and
/// is either refused cheaply — before any argument decode or handler
/// work — or handed to the handler.
///
/// Two refusal classes, in priority order:
///
/// * **Expired** — the frame's propagated budget arrived already
///   spent.  Answering with real work would burn server time on a
///   reply the caller has stopped waiting for.
/// * **Shed** — the fabric-wide in-flight count (excluding this
///   frame) is at or past [`Limits::shed_threshold`]; the refusal is
///   the protocol's "try elsewhere / later" signal.
///
/// A refused frame gets silence instead of [`Framing::refuse`]'s reply
/// when it must not be answered at all (a GIOP oneway), or when it
/// expired on a datagram connection — the sender's retransmit is the
/// recovery path there, not an error it no longer wants.  Refusals
/// complete through the ordinary sink path so batching, flushing, and
/// accounting treat them like any reply.
#[allow(clippy::too_many_arguments)]
fn deliver_frame(
    datagram: bool,
    limits: &Limits,
    shared: &Shared,
    handler: &mut dyn FrameHandler,
    sink: &mut ReplySink,
    refusal: &mut MarshalBuf,
    id: FrameId,
    frame: &[u8],
) {
    let framing = sink.framing;
    let Some(p) = framing.peek(frame) else {
        return handler.on_frame(id, frame, sink);
    };
    // `inflight` includes this frame (counted by the caller), so
    // "existing work >= threshold" is a strict comparison.
    let why = if p.budget_ns == Some(0) {
        metrics::rpc_expired();
        shared.expired.fetch_add(1, Ordering::Relaxed);
        Refusal::Expired
    } else if shared.inflight.load(Ordering::Relaxed) > limits.shed_threshold {
        metrics::inc(framing.shed_counter());
        shared.shed.fetch_add(1, Ordering::Relaxed);
        Refusal::Shed
    } else {
        return handler.on_frame(id, frame, sink);
    };
    if !p.answerable || (why == Refusal::Expired && datagram) {
        sink.silent(id);
    } else {
        framing.refuse(why, &p, refusal);
        sink.reply(id, refusal.as_slice());
    }
}

/// One accepted connection, ready for a driver.
pub struct Accepted {
    /// The connection itself.
    pub conn: Box<dyn Conn>,
    /// The framing it speaks.
    pub framing: Framing,
    /// The handler serving it.
    pub handler: Box<dyn FrameHandler>,
}

/// Produces connections for [`Fabric::serve`].  `accept` blocks until
/// the next connection; `None` shuts the fabric down once existing
/// connections drain.
pub trait Acceptor: Send {
    /// The next connection, or `None` at shutdown.
    fn accept(&mut self) -> Option<Accepted>;
}

/// Aggregate counters from one [`Fabric::serve`] run.
#[derive(Clone, Debug, Default)]
pub struct FabricStats {
    accepted: Arc<AtomicU64>,
    closed: Arc<AtomicU64>,
    evicted: Arc<AtomicU64>,
    shared: Arc<Shared>,
}

impl FabricStats {
    /// Connections accepted.
    #[must_use]
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Connections that ran to a clean close.
    #[must_use]
    pub fn closed(&self) -> u64 {
        self.closed.load(Ordering::Relaxed)
    }

    /// Connections evicted for framing violations.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Requests refused at admission because the fabric was over its
    /// shed threshold.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shared.shed.load(Ordering::Relaxed)
    }

    /// Requests refused or dropped because their propagated budget was
    /// already spent on arrival.
    #[must_use]
    pub fn expired(&self) -> u64 {
        self.shared.expired.load(Ordering::Relaxed)
    }

    /// Current fabric-wide in-flight request count.
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.shared.inflight.load(Ordering::Relaxed)
    }
}

/// A handle for shutting a running [`Fabric::serve`] down from another
/// thread.  Cloneable and cheap; obtained from [`Fabric::controller`]
/// before calling `serve`.
#[derive(Clone)]
pub struct FabricController {
    shared: Arc<Shared>,
}

impl FabricController {
    /// Initiates a graceful drain: the fabric stops accepting new
    /// connections, existing connections stop *reading* (as if the
    /// peer half-closed), in-flight requests run to completion, their
    /// replies flush, and each connection closes as it settles.
    /// Connections still open after `grace` are force-closed.
    ///
    /// The accept loop learns about the drain the next time its
    /// [`Acceptor`] yields (or returns `None`); a transport whose
    /// accept blocks indefinitely should close its listener as part
    /// of shutdown so the loop can exit promptly.
    pub fn shutdown(&self, grace: Duration) {
        // Deadline first: a worker that observes the flag must find
        // the deadline already published.
        *self
            .shared
            .force_close_at
            .lock()
            .expect("fabric drain lock poisoned") = Some(Instant::now() + grace);
        self.shared.draining.store(true, Ordering::Release);
    }

    /// True once [`shutdown`](Self::shutdown) has been called.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }
}

/// The multiplexed serving runtime: accept loop + thread-per-core
/// workers, each pumping its share of [`ConnDriver`]s.
pub struct Fabric {
    limits: Limits,
    workers: usize,
    shared: Arc<Shared>,
}

impl Fabric {
    /// A fabric with `limits` and one worker per available core.
    ///
    /// # Panics
    /// When `limits` fails [`Limits::validated`] — an incoherent
    /// configuration (a zero cap, a reply queue smaller than one
    /// frame, a shed threshold above the hard stop) would surface as
    /// mysterious evictions or total refusal at runtime, so it is
    /// refused at construction instead.
    #[must_use]
    pub fn new(limits: Limits) -> Self {
        let limits = match limits.validated() {
            Ok(l) => l,
            Err(why) => panic!("incoherent fabric limits: {why}"),
        };
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Fabric {
            limits,
            workers,
            shared: Arc::default(),
        }
    }

    /// Overrides the worker count (tests and benches pin this).
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// A shutdown handle for this fabric, usable from any thread while
    /// [`serve`](Self::serve) runs.  A fabric that has been drained
    /// stays drained; build a new one to serve again.
    #[must_use]
    pub fn controller(&self) -> FabricController {
        FabricController {
            shared: self.shared.clone(),
        }
    }

    /// Serves connections from `acceptor` until it returns `None` (or
    /// a [`FabricController::shutdown`] drain completes) and every
    /// accepted connection finishes.  The accept loop runs on the
    /// calling thread; connections are distributed round-robin to the
    /// workers.
    pub fn serve<A: Acceptor>(&self, mut acceptor: A) -> FabricStats {
        let stats = FabricStats {
            shared: self.shared.clone(),
            ..FabricStats::default()
        };
        std::thread::scope(|scope| {
            let mut senders = Vec::with_capacity(self.workers);
            for _ in 0..self.workers {
                let (tx, rx) = mpsc::channel::<Accepted>();
                senders.push(tx);
                let limits = self.limits;
                let stats = stats.clone();
                scope.spawn(move || worker_loop(&rx, limits, &stats));
            }
            let mut next = 0usize;
            while let Some(mut accepted) = acceptor.accept() {
                if self.shared.draining.load(Ordering::Acquire) {
                    // Draining: refuse the connection and stop
                    // accepting altogether.
                    accepted.conn.close();
                    break;
                }
                stats.accepted.fetch_add(1, Ordering::Relaxed);
                // A worker never exits while its sender lives, so the
                // only send failure is a panicked worker — propagate.
                senders[next % senders.len()]
                    .send(accepted)
                    .expect("fabric worker died");
                next += 1;
            }
            drop(senders); // workers drain and exit
        });
        if self.shared.draining.load(Ordering::Acquire) {
            metrics::inc(Metric::FabricDrained);
        }
        stats
    }
}

fn worker_loop(rx: &mpsc::Receiver<Accepted>, limits: Limits, stats: &FabricStats) {
    let shared = &stats.shared;
    let mut drivers: Vec<ConnDriver> = Vec::new();
    let mut accepting = true;
    let mut draining = false;
    let mut idle_rounds: u32 = 0;
    let drive =
        |a: Accepted| ConnDriver::with_shared(a.conn, a.framing, a.handler, limits, shared.clone());
    loop {
        if !draining && shared.draining.load(Ordering::Acquire) {
            draining = true;
            // Connections queued but never started get closed, not
            // served; live ones stop reading and run down.
            while let Ok(mut a) = rx.try_recv() {
                a.conn.close();
            }
            accepting = false;
            for d in &mut drivers {
                d.begin_drain();
            }
        }
        // Take on every connection queued for this worker.
        while accepting {
            match rx.try_recv() {
                Ok(a) => drivers.push(drive(a)),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => accepting = false,
            }
        }
        if drivers.is_empty() {
            if !accepting {
                return;
            }
            // Idle worker: park until the next connection arrives (or
            // shutdown).  The wait is bounded so a drain initiated
            // while the accept loop is still blocked in its acceptor
            // is noticed promptly.
            match rx.recv_timeout(Duration::from_millis(20)) {
                Ok(a) => drivers.push(drive(a)),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => accepting = false,
            }
            continue;
        }

        if draining {
            let due = shared
                .force_close_at
                .lock()
                .expect("fabric drain lock poisoned")
                .is_some_and(|at| Instant::now() >= at);
            if due {
                for d in &mut drivers {
                    d.force_close();
                }
            }
        }

        let mut any_progress = false;
        drivers.retain_mut(|d| match d.pump() {
            Pump::Progress => {
                any_progress = true;
                true
            }
            Pump::Idle => true,
            Pump::Done => {
                match d.ending {
                    Some(Ending::Evicted) => stats.evicted.fetch_add(1, Ordering::Relaxed),
                    _ => stats.closed.fetch_add(1, Ordering::Relaxed),
                };
                any_progress = true;
                false
            }
        });
        if any_progress {
            idle_rounds = 0;
        } else {
            // Every connection is waiting on its peer.  Yield while
            // the lull is short — under load, peers refill within a
            // few scheduler passes, and a sleep here costs real
            // throughput — then back off exponentially to ~1 ms
            // sleeps so an open-but-quiet connection does not peg a
            // core.  A genuinely idle worker burns through the yield
            // budget in well under a millisecond (nothing else is
            // runnable, so each round is microseconds) and parks.
            idle_rounds += 1;
            if idle_rounds <= 256 {
                std::thread::yield_now();
            } else {
                let exp = (idle_rounds - 256).min(10);
                std::thread::sleep(std::time::Duration::from_micros(1 << exp));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::{self, precise_reads};
    use crate::oncrpc::CallHeader;
    use std::collections::VecDeque;
    use std::sync::Mutex;

    /// An in-memory scripted connection: the test queues inbound
    /// bytes and inspects what the driver wrote.
    #[derive(Default)]
    struct ScriptConn {
        inbound: VecDeque<Vec<u8>>,
        written: Arc<Mutex<Vec<u8>>>,
        /// Bytes the "peer" will accept per write; `usize::MAX` = all.
        accept_per_write: usize,
        closed_after_input: bool,
    }

    impl ScriptConn {
        fn new(chunks: Vec<Vec<u8>>) -> (Self, Arc<Mutex<Vec<u8>>>) {
            let written = Arc::new(Mutex::new(Vec::new()));
            (
                ScriptConn {
                    inbound: chunks.into(),
                    written: written.clone(),
                    accept_per_write: usize::MAX,
                    closed_after_input: true,
                },
                written,
            )
        }
    }

    impl Conn for ScriptConn {
        fn read_into(&mut self, buf: &mut MarshalBuf, max: usize) -> ReadStatus {
            match self.inbound.front_mut() {
                Some(chunk) => {
                    let n = chunk.len().min(max);
                    buf.put_bytes(&chunk[..n]);
                    chunk.drain(..n);
                    if chunk.is_empty() {
                        self.inbound.pop_front();
                    }
                    ReadStatus::Read(n)
                }
                None if self.closed_after_input => ReadStatus::Closed,
                None => ReadStatus::Empty,
            }
        }

        fn write_some(&mut self, bytes: &[u8]) -> WriteStatus {
            if self.accept_per_write == 0 {
                return WriteStatus::Full;
            }
            let n = bytes.len().min(self.accept_per_write);
            self.written.lock().unwrap().extend_from_slice(&bytes[..n]);
            WriteStatus::Wrote(n)
        }

        fn close(&mut self) {}
    }

    /// Echoes each ONC record's payload back as the "reply record".
    fn echo_handler() -> impl FrameHandler {
        service_handler(|frame: &[u8], reply: &mut MarshalBuf| {
            reply.put_bytes(frame);
            true
        })
    }

    fn onc_record(payload: &[u8]) -> Vec<u8> {
        oncrpc::frame_record(payload)
    }

    fn run_to_done(d: &mut ConnDriver) {
        for _ in 0..10_000 {
            if d.pump() == Pump::Done {
                return;
            }
        }
        panic!("driver never finished");
    }

    #[test]
    fn echoes_records_and_batches_replies() {
        let (conn, written) = ScriptConn::new(vec![[
            onc_record(b"alpha"),
            onc_record(b"beta!"),
            onc_record(b"gamma"),
        ]
        .concat()]);
        let mut d = ConnDriver::new(
            Box::new(conn),
            Framing::OncRecord,
            Box::new(echo_handler()),
            Limits::default(),
        );
        run_to_done(&mut d);
        let out = written.lock().unwrap().clone();
        // Three framed reply records, coalesced into the output.
        let (r1, used1) = oncrpc::deframe_record(&out).unwrap();
        let (r2, used2) = oncrpc::deframe_record(&out[used1..]).unwrap();
        let (r3, used3) = oncrpc::deframe_record(&out[used1 + used2..]).unwrap();
        assert_eq!(
            (&r1[..], &r2[..], &r3[..]),
            (&b"alpha"[..], &b"beta!"[..], &b"gamma"[..])
        );
        assert_eq!(used1 + used2 + used3, out.len());
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let rec = onc_record(b"split-me-up");
        let (a, b) = rec.split_at(6);
        let (conn, written) = ScriptConn::new(vec![a.to_vec(), b.to_vec()]);
        let mut d = ConnDriver::new(
            Box::new(conn),
            Framing::OncRecord,
            Box::new(echo_handler()),
            Limits::default(),
        );
        run_to_done(&mut d);
        let out = written.lock().unwrap().clone();
        let (r, _) = oncrpc::deframe_record(&out).unwrap();
        assert_eq!(&r[..], b"split-me-up");
    }

    /// A handler that holds every frame and answers them all, in
    /// reverse arrival order, only when polled after the last one —
    /// an out-of-order pipelining server.
    struct DeferredReverse {
        pending: Vec<(FrameId, Vec<u8>)>,
        expect: usize,
    }

    impl FrameHandler for DeferredReverse {
        fn on_frame(&mut self, id: FrameId, frame: &[u8], _sink: &mut ReplySink) {
            self.pending.push((id, frame.to_vec()));
        }
        fn poll(&mut self, sink: &mut ReplySink) {
            if self.pending.len() >= self.expect {
                for (id, frame) in self.pending.drain(..).rev() {
                    sink.reply(id, &frame);
                }
            }
        }
    }

    #[test]
    fn pipelined_frames_complete_out_of_order() {
        // Three xid-tagged call records arrive back to back; the
        // handler answers them newest-first.  The wire carries the
        // replies in completion order and the xids keep them
        // attributable — exactly the GIOP/ONC pipelining contract.
        let recs: Vec<Vec<u8>> = (0..3u32)
            .map(|i| {
                let mut b = MarshalBuf::new();
                b.put_u32_be(0xA000 + i); // stand-in xid
                b.put_bytes(&[i as u8; 8]);
                onc_record(b.as_slice())
            })
            .collect();
        let (conn, written) = ScriptConn::new(vec![recs.concat()]);
        let mut d = ConnDriver::new(
            Box::new(conn),
            Framing::OncRecord,
            Box::new(DeferredReverse {
                pending: Vec::new(),
                expect: 3,
            }),
            Limits::default(),
        );
        // All three dispatch before any reply exists: that is the
        // pipelining window in action.
        while d.outstanding() < 3 {
            assert_ne!(d.pump(), Pump::Done, "finished before pipeline filled");
        }
        assert_eq!(d.outstanding(), 3);
        run_to_done(&mut d);

        let out = written.lock().unwrap().clone();
        let mut xids = Vec::new();
        let mut at = 0;
        while at < out.len() {
            let (r, used) = oncrpc::deframe_record(&out[at..]).unwrap();
            xids.push(u32::from_be_bytes(r[..4].try_into().unwrap()));
            at += used;
        }
        assert_eq!(xids, vec![0xA002, 0xA001, 0xA000], "completion order");
    }

    #[test]
    fn pipeline_window_caps_outstanding_frames() {
        let limits = Limits {
            max_pipeline: 2,
            ..Limits::default()
        };
        let recs: Vec<u8> = (0..6u8).flat_map(|i| onc_record(&[i; 4])).collect();
        let (conn, _written) = ScriptConn::new(vec![recs]);
        let mut d = ConnDriver::new(
            Box::new(conn),
            Framing::OncRecord,
            // Never replies: the window must clamp dispatch.
            Box::new(DeferredReverse {
                pending: Vec::new(),
                expect: usize::MAX,
            }),
            limits,
        );
        for _ in 0..50 {
            d.pump();
            assert!(d.outstanding() <= 2, "window exceeded: {}", d.outstanding());
        }
        assert_eq!(d.outstanding(), 2);
    }

    #[test]
    fn backpressure_stops_reading_a_slow_consumer() {
        let limits = Limits {
            reply_buf_bytes: 512,
            ..Limits::default()
        };
        // Plenty of requests, a peer that accepts nothing back.
        let big: Vec<u8> = (0..100u8).flat_map(|i| onc_record(&[i; 64])).collect();
        let (mut conn, _written) = ScriptConn::new(vec![big]);
        conn.accept_per_write = 0;
        conn.closed_after_input = false;
        let mut d = ConnDriver::new(
            Box::new(conn),
            Framing::OncRecord,
            Box::new(echo_handler()),
            limits,
        );
        for _ in 0..1000 {
            d.pump();
        }
        // The reply queue stalled at the threshold (plus at most the
        // batch completed in the round that crossed it) instead of
        // swallowing all 100 echoes.
        let bound = limits.per_conn_buffer_bound();
        assert!(d.queued_reply_bytes() > 0);
        assert!(
            d.queued_reply_bytes() <= bound,
            "queued {} exceeds bound {}",
            d.queued_reply_bytes(),
            bound
        );
        assert!(
            d.queued_reply_bytes() < 100 * 68,
            "backpressure never engaged: {}",
            d.queued_reply_bytes()
        );
    }

    #[test]
    fn tiny_frame_flood_cannot_outrun_a_stalled_pipeline() {
        // Thousands of tiny frames arrive for a handler that never
        // completes any of them: the pipeline window fills and stays
        // full.  The driver must stop *reading* — not just stop
        // dispatching — or `inbuf` grows by a chunk per round.
        let limits = Limits {
            max_pipeline: 4,
            read_chunk_bytes: 256,
            ..Limits::default()
        };
        let flood: Vec<u8> = (0..4096u32).flat_map(|_| onc_record(&[7u8; 4])).collect();
        let (mut conn, _written) = ScriptConn::new(vec![flood]);
        conn.closed_after_input = false;
        let mut d = ConnDriver::new(
            Box::new(conn),
            Framing::OncRecord,
            Box::new(DeferredReverse {
                pending: Vec::new(),
                expect: usize::MAX,
            }),
            limits,
        );
        for _ in 0..5_000 {
            d.pump();
            assert!(
                d.buffered_input_bytes() <= 2 * limits.read_chunk_bytes,
                "inbuf grew to {} with the pipeline stalled",
                d.buffered_input_bytes()
            );
        }
        assert_eq!(d.outstanding(), 4);
    }

    #[test]
    fn silent_oneway_flood_keeps_inbuf_bounded() {
        // Oneway frames never trip the reply-queue gate; each round
        // must still consume the whole backlog before reading more.
        let limits = Limits {
            max_pipeline: 4,
            read_chunk_bytes: 256,
            ..Limits::default()
        };
        let flood: Vec<u8> = (0..4096u32).flat_map(|_| onc_record(&[9u8; 4])).collect();
        let (conn, written) = ScriptConn::new(vec![flood]);
        let mut d = ConnDriver::new(
            Box::new(conn),
            Framing::OncRecord,
            Box::new(service_handler(|_: &[u8], _: &mut MarshalBuf| false)),
            limits,
        );
        for _ in 0..100_000 {
            if d.pump() == Pump::Done {
                break;
            }
            assert!(
                d.buffered_input_bytes() <= 2 * limits.read_chunk_bytes,
                "inbuf grew to {} under a oneway flood",
                d.buffered_input_bytes()
            );
        }
        assert_eq!(d.ending, Some(Ending::Closed));
        assert!(written.lock().unwrap().is_empty(), "oneways reply nothing");
    }

    #[test]
    fn oversized_reply_evicts_the_connection() {
        // The backpressure bound's "+ one maximal reply" term only
        // holds if replies respect the framing cap; a handler that
        // violates it loses the connection rather than the bound.  The
        // whole round goes with it: a well-formed reply pipelined ahead
        // of the oversized one never reaches the wire either.
        let limits = Limits {
            max_frame_bytes: 1024,
            ..Limits::default()
        };
        let round = [onc_record(b"hi"), onc_record(b"big")].concat();
        let (conn, written) = ScriptConn::new(vec![round]);
        let stats = FabricStats::default();
        let mut d = ConnDriver::with_shared(
            Box::new(conn),
            Framing::OncRecord,
            Box::new(service_handler(|frame: &[u8], reply: &mut MarshalBuf| {
                match frame {
                    b"big" => reply.put_bytes(&[0u8; 4096]),
                    _ => reply.put_bytes(frame),
                }
                true
            })),
            limits,
            stats.shared.clone(),
        );
        run_to_done(&mut d);
        assert_eq!(d.ending, Some(Ending::Evicted));
        assert!(
            written.lock().unwrap().is_empty(),
            "an evicted round put replies on the wire"
        );
        assert_eq!(stats.inflight(), 0, "eviction released the round's work");
    }

    #[test]
    fn oversized_record_evicts_the_connection() {
        let limits = Limits {
            max_frame_bytes: 1024,
            ..Limits::default()
        };
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&(0x8000_0000u32 | 1_000_000).to_be_bytes());
        hostile.extend_from_slice(&[0; 64]);
        let (conn, _written) = ScriptConn::new(vec![hostile]);
        let mut d = ConnDriver::new(
            Box::new(conn),
            Framing::OncRecord,
            Box::new(echo_handler()),
            limits,
        );
        run_to_done(&mut d);
        assert_eq!(d.ending, Some(Ending::Evicted));
    }

    #[test]
    fn giop_frames_are_scanned_whole() {
        // A GIOP echo: the handler returns the inbound message bytes.
        let mut msg = MarshalBuf::new();
        let order = crate::cdr::ByteOrder::Big;
        let at = giop::begin_message(&mut msg, order, giop::MsgType::Request);
        let cdr = crate::cdr::CdrOut::begin(&msg, order);
        giop::put_request_header(&mut msg, &cdr, 77, true, b"obj", "noop");
        giop::finish_message(&mut msg, at, order);
        let wire = msg.into_vec();

        let (a, b) = wire.split_at(7); // split inside the header
        let (conn, written) = ScriptConn::new(vec![a.to_vec(), b.to_vec()]);
        let mut d = ConnDriver::new(
            Box::new(conn),
            Framing::Giop,
            Box::new(service_handler(|frame: &[u8], reply: &mut MarshalBuf| {
                reply.put_bytes(frame);
                true
            })),
            Limits::default(),
        );
        run_to_done(&mut d);
        assert_eq!(written.lock().unwrap().clone(), wire);
    }

    #[test]
    fn fabric_serves_connections_across_workers() {
        struct VecAcceptor(Vec<Accepted>);
        impl Acceptor for VecAcceptor {
            fn accept(&mut self) -> Option<Accepted> {
                self.0.pop()
            }
        }

        let mut outputs = Vec::new();
        let mut accepted = Vec::new();
        for i in 0..8u32 {
            let mut b = MarshalBuf::new();
            CallHeader {
                xid: i,
                prog: 7,
                vers: 1,
                proc: 1,
            }
            .write(&mut b);
            let (conn, written) = ScriptConn::new(vec![onc_record(b.as_slice())]);
            outputs.push(written);
            accepted.push(Accepted {
                conn: Box::new(conn),
                framing: Framing::OncRecord,
                handler: Box::new(echo_handler()),
            });
        }
        let stats = Fabric::new(Limits::default())
            .workers(3)
            .serve(VecAcceptor(accepted));
        assert_eq!(stats.accepted(), 8);
        assert_eq!(stats.closed(), 8);
        assert_eq!(stats.evicted(), 0);
        assert_eq!(stats.shed(), 0);
        assert_eq!(stats.expired(), 0);
        assert_eq!(stats.inflight(), 0);
        for w in outputs {
            let out = w.lock().unwrap().clone();
            let (r, _) = oncrpc::deframe_record(&out).unwrap();
            assert_eq!(r.len(), oncrpc::CALL_HEADER_BYTES);
        }
    }

    /// A framed, bodiless call carrying whatever budget is ambient.
    fn framed_call(xid: u32) -> Vec<u8> {
        let mut b = MarshalBuf::new();
        CallHeader {
            xid,
            prog: 7,
            vers: 1,
            proc: 1,
        }
        .write(&mut b);
        onc_record(b.as_slice())
    }

    fn budgeted_call(xid: u32, budget: Duration) -> Vec<u8> {
        let _g = deadline::stamp_outbound(budget);
        framed_call(xid)
    }

    /// Panics if the fabric lets a frame through to it.
    fn unreachable_handler() -> impl FrameHandler {
        service_handler(|_: &[u8], _: &mut MarshalBuf| {
            panic!("a refused request reached the handler")
        })
    }

    #[test]
    fn expired_stream_requests_get_system_err_before_the_handler() {
        let (conn, written) = ScriptConn::new(vec![budgeted_call(0xDEAD, Duration::ZERO)]);
        let mut d = ConnDriver::new(
            Box::new(conn),
            Framing::OncRecord,
            Box::new(unreachable_handler()),
            Limits::default(),
        );
        run_to_done(&mut d);
        let out = written.lock().unwrap().clone();
        let (rec, _) = oncrpc::deframe_record(&out).unwrap();
        let mut r = MsgReader::new(&rec);
        let (xid, verdict) = oncrpc::read_reply_verdict(&mut r).unwrap();
        assert_eq!(xid, 0xDEAD);
        assert_eq!(verdict, oncrpc::ReplyVerdict::SystemErr);
    }

    /// A [`ScriptConn`] posing as a datagram transport.
    struct DgramConn(ScriptConn);
    impl Conn for DgramConn {
        fn read_into(&mut self, buf: &mut MarshalBuf, max: usize) -> ReadStatus {
            self.0.read_into(buf, max)
        }
        fn write_some(&mut self, bytes: &[u8]) -> WriteStatus {
            self.0.write_some(bytes)
        }
        fn close(&mut self) {
            self.0.close();
        }
        fn is_datagram(&self) -> bool {
            true
        }
    }

    #[test]
    fn expired_datagram_requests_are_dropped_silently() {
        let (conn, written) = ScriptConn::new(vec![budgeted_call(5, Duration::ZERO)]);
        let mut d = ConnDriver::new(
            Box::new(DgramConn(conn)),
            Framing::OncRecord,
            Box::new(unreachable_handler()),
            Limits::default(),
        );
        run_to_done(&mut d);
        assert_eq!(d.ending, Some(Ending::Closed));
        assert!(
            written.lock().unwrap().is_empty(),
            "a datagram peer must get silence, not an error it no longer wants"
        );
    }

    /// Holds every frame forever and counts what it was given.
    struct CountingHold(Arc<AtomicU64>);
    impl FrameHandler for CountingHold {
        fn on_frame(&mut self, _id: FrameId, _frame: &[u8], _sink: &mut ReplySink) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn overload_sheds_new_calls_with_prog_unavail() {
        let limits = Limits {
            shed_threshold: 1,
            max_inflight_total: 8,
            ..Limits::default()
        };
        let recs: Vec<u8> = (1..=3u32).flat_map(framed_call).collect();
        let (mut conn, written) = ScriptConn::new(vec![recs]);
        conn.closed_after_input = false;
        let handled = Arc::new(AtomicU64::new(0));
        let shared = Arc::new(Shared::default());
        let mut d = ConnDriver::with_shared(
            Box::new(conn),
            Framing::OncRecord,
            Box::new(CountingHold(handled.clone())),
            limits,
            shared.clone(),
        );
        for _ in 0..100 {
            d.pump();
        }
        // The first call is in flight; the other two were shed with a
        // cheap protocol error, not queued behind it.
        assert_eq!(handled.load(Ordering::Relaxed), 1);
        assert_eq!(shared.shed.load(Ordering::Relaxed), 2);
        assert_eq!(shared.inflight.load(Ordering::Relaxed), 1);
        assert_eq!(
            onc_verdicts(&written.lock().unwrap()),
            vec![
                (2, oncrpc::ReplyVerdict::ProgUnavail),
                (3, oncrpc::ReplyVerdict::ProgUnavail),
            ]
        );
    }

    /// A bodiless GIOP Request carrying whatever budget is ambient.
    fn giop_request(id: u32, response_expected: bool) -> Vec<u8> {
        let order = crate::cdr::ByteOrder::Big;
        let mut msg = MarshalBuf::new();
        let at = giop::begin_message(&mut msg, order, giop::MsgType::Request);
        let cdr = crate::cdr::CdrOut::begin(&msg, order);
        giop::put_request_header(&mut msg, &cdr, id, response_expected, b"obj", "noop");
        giop::finish_message(&mut msg, at, order);
        msg.into_vec()
    }

    /// What the wire carried back for one refused frame.
    #[derive(Debug, PartialEq)]
    enum Refused {
        Verdict(oncrpc::ReplyVerdict),
        Exception(&'static str, u32),
        Silence,
    }

    /// Reads the one refusal in `out`, checking it answers request `id`
    /// with no trace context and `COMPLETED_NO`.
    fn refusal_on_wire(framing: Framing, out: &[u8], id: u32) -> Refused {
        if out.is_empty() {
            return Refused::Silence;
        }
        match framing {
            Framing::OncRecord => {
                let (rec, used) = oncrpc::deframe_record(out).unwrap();
                assert_eq!(used, out.len(), "one reply");
                let mut r = MsgReader::new(&rec);
                let (xid, verdict, trace) = oncrpc::read_reply_verdict_traced(&mut r).unwrap();
                assert_eq!((xid, trace), (id, None));
                Refused::Verdict(verdict)
            }
            Framing::Giop => {
                let mut r = MsgReader::new(out);
                let h = giop::read_header(&mut r).unwrap();
                assert_eq!(giop::HEADER_BYTES + h.size as usize, out.len(), "one reply");
                let cdr = crate::cdr::CdrIn::begin(&r, h.order);
                let rh = giop::get_reply_header(&mut r, &cdr).unwrap();
                assert_eq!(
                    (rh.request_id, rh.status, rh.trace),
                    (id, giop::ReplyStatus::SystemException, None)
                );
                let ex = giop::get_system_exception(&mut r, &cdr).unwrap();
                assert_eq!(ex.completed, 1, "COMPLETED_NO");
                let repo_id = [
                    "IDL:omg.org/CORBA/TIMEOUT:1.0",
                    "IDL:omg.org/CORBA/TRANSIENT:1.0",
                ]
                .into_iter()
                .find(|&known| known == ex.repo_id)
                .expect("a refusal exception");
                Refused::Exception(repo_id, ex.minor)
            }
        }
    }

    #[test]
    fn admission_refusal_matrix() {
        use oncrpc::ReplyVerdict::{ProgUnavail, SystemErr};
        use Refused::{Exception, Silence, Verdict};
        const TIMEOUT: &str = "IDL:omg.org/CORBA/TIMEOUT:1.0";
        const TRANSIENT: &str = "IDL:omg.org/CORBA/TRANSIENT:1.0";
        type Row = (
            &'static str,
            Framing,
            bool,
            fn(u32) -> Vec<u8>,
            Refused,
            Refused,
        );
        // (connection, framing, datagram, frame, refusal if expired, refusal if shed)
        let rows: [Row; 4] = [
            (
                "onc stream",
                Framing::OncRecord,
                false,
                framed_call,
                Verdict(SystemErr),
                Verdict(ProgUnavail),
            ),
            (
                "onc datagram",
                Framing::OncRecord,
                true,
                framed_call,
                Silence,
                Verdict(ProgUnavail),
            ),
            (
                "giop two-way",
                Framing::Giop,
                false,
                |id| giop_request(id, true),
                Exception(TIMEOUT, 0),
                Exception(TRANSIENT, 1),
            ),
            (
                "giop oneway",
                Framing::Giop,
                false,
                |id| giop_request(id, false),
                Silence,
                Silence,
            ),
        ];
        let limits = Limits {
            shed_threshold: 1,
            max_inflight_total: 8,
            ..Limits::default()
        };
        for (name, framing, datagram, frame, if_expired, if_shed) in rows {
            for expired in [true, false] {
                let budget = if expired {
                    Duration::ZERO
                } else {
                    ROUND_BUDGET
                };
                let wire = {
                    let _g = deadline::stamp_outbound(budget);
                    frame(0x77)
                };
                let (conn, written) = ScriptConn::new(vec![wire]);
                let conn: Box<dyn Conn> = if datagram {
                    Box::new(DgramConn(conn))
                } else {
                    Box::new(conn)
                };
                let shared = Arc::new(Shared::default());
                if !expired {
                    // Over the threshold: work already in flight elsewhere.
                    shared
                        .inflight
                        .store(limits.shed_threshold, Ordering::Relaxed);
                }
                let mut d = ConnDriver::with_shared(
                    conn,
                    framing,
                    Box::new(unreachable_handler()),
                    limits,
                    shared.clone(),
                );
                run_to_done(&mut d);
                let case = format!("{name}, expired={expired}");
                let want = if expired { &if_expired } else { &if_shed };
                let out = written.lock().unwrap().clone();
                assert_eq!(&refusal_on_wire(framing, &out, 0x77), want, "{case}");
                assert_eq!(
                    (
                        shared.expired.load(Ordering::Relaxed),
                        shared.shed.load(Ordering::Relaxed)
                    ),
                    (u64::from(expired), u64::from(!expired)),
                    "{case}"
                );
                assert_eq!(d.ending, Some(Ending::Closed), "{case}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "incoherent fabric limits")]
    fn incoherent_limits_refuse_to_build_a_fabric() {
        let _ = Fabric::new(Limits {
            shed_threshold: 0,
            ..Limits::default()
        });
    }

    #[test]
    fn shutdown_drains_in_flight_work_then_closes() {
        struct ChanAcceptor(mpsc::Receiver<Accepted>);
        impl Acceptor for ChanAcceptor {
            fn accept(&mut self) -> Option<Accepted> {
                self.0.recv().ok()
            }
        }

        let (mut conn, written) = ScriptConn::new(vec![onc_record(b"ping")]);
        conn.closed_after_input = false; // the peer keeps the link open
        let observed = written.clone();
        let (tx, rx) = mpsc::channel::<Accepted>();
        let fabric = Fabric::new(Limits::default()).workers(1);
        let controller = fabric.controller();
        let driver = std::thread::spawn(move || {
            tx.send(Accepted {
                conn: Box::new(conn),
                framing: Framing::OncRecord,
                handler: Box::new(echo_handler()),
            })
            .unwrap();
            // Wait for the echo: proof the in-flight request completed
            // and flushed before the drain closed anything.
            for _ in 0..1_000_000 {
                if !observed.lock().unwrap().is_empty() {
                    break;
                }
                std::thread::yield_now();
            }
            assert!(
                !observed.lock().unwrap().is_empty(),
                "echo never flushed before shutdown"
            );
            controller.shutdown(Duration::from_millis(500));
            drop(tx); // unblocks the accept loop
        });
        let stats = fabric.serve(ChanAcceptor(rx));
        driver.join().unwrap();
        assert_eq!(stats.accepted(), 1);
        assert_eq!(stats.closed(), 1, "the idle connection drained cleanly");
        assert_eq!(stats.evicted(), 0);
        let out = written.lock().unwrap().clone();
        let (rec, _) = oncrpc::deframe_record(&out).unwrap();
        assert_eq!(&rec[..], b"ping");
    }

    // ---- The round clock (see `deadline`): read counts are pinned by
    // ---- counting clock reads, not by timing.

    const ROUND_BUDGET: Duration = Duration::from_secs(10);
    const ROUND_BUDGET_NS: u64 = ROUND_BUDGET.as_nanos() as u64;

    /// What a generated `handle_call` does ahead of argument decode:
    /// the header, then the admission question.
    fn onc_admission(frame: &[u8], reply: &mut MarshalBuf) -> bool {
        let (h, _) = oncrpc::accept_call(frame, 7, 1, reply).expect("a well-formed call");
        let outcome = if deadline::inbound_expired() {
            oncrpc::ReplyOutcome::SystemErr
        } else {
            oncrpc::ReplyOutcome::Success
        };
        oncrpc::write_reply(reply, h.xid, outcome);
        true
    }

    /// The replies in `out`, as `(xid, verdict)` in wire order.
    fn onc_verdicts(out: &[u8]) -> Vec<(u32, oncrpc::ReplyVerdict)> {
        let mut verdicts = Vec::new();
        let mut at = 0;
        while at < out.len() {
            let (rec, used) = oncrpc::deframe_record(&out[at..]).unwrap();
            verdicts.push(oncrpc::read_reply_verdict(&mut MsgReader::new(&rec)).unwrap());
            at += used;
        }
        verdicts
    }

    #[test]
    fn sixteen_budgeted_onc_frames_in_one_read_cost_one_clock_read() {
        let batch: Vec<u8> = (0..16)
            .flat_map(|x| budgeted_call(x, ROUND_BUDGET))
            .collect();
        let (conn, written) = ScriptConn::new(vec![batch]);
        let mut d = ConnDriver::new(
            Box::new(conn),
            Framing::OncRecord,
            Box::new(service_handler(onc_admission)),
            Limits::default(),
        );
        let before = precise_reads();
        run_to_done(&mut d);
        assert_eq!(precise_reads() - before, 1);
        let expect: Vec<_> = (0..16)
            .map(|x| (x, oncrpc::ReplyVerdict::Success))
            .collect();
        assert_eq!(onc_verdicts(&written.lock().unwrap()), expect);
    }

    #[test]
    fn sixteen_budgeted_giop_frames_in_one_read_cost_one_clock_read() {
        let order = crate::cdr::ByteOrder::Big;
        let request = |id: u32| {
            let _g = deadline::stamp_outbound(ROUND_BUDGET);
            let mut msg = MarshalBuf::new();
            let at = giop::begin_message(&mut msg, order, giop::MsgType::Request);
            let cdr = crate::cdr::CdrOut::begin(&msg, order);
            giop::put_request_header(&mut msg, &cdr, id, true, b"obj", "noop");
            giop::finish_message(&mut msg, at, order);
            msg.into_vec()
        };
        let batch: Vec<u8> = (0..16).flat_map(request).collect();
        let (conn, written) = ScriptConn::new(vec![batch.clone()]);
        let mut d = ConnDriver::new(
            Box::new(conn),
            Framing::Giop,
            // `handle_message`'s preamble, then an echo as the reply.
            Box::new(service_handler(|frame: &[u8], reply: &mut MarshalBuf| {
                let mut r = MsgReader::new(frame);
                let h = giop::read_header(&mut r).unwrap();
                let cdr = crate::cdr::CdrIn::begin(&r, h.order);
                let rh = giop::get_request_header_ref(&mut r, &cdr).unwrap();
                assert_eq!(rh.context.budget_ns, Some(ROUND_BUDGET_NS));
                assert!(!deadline::inbound_expired());
                reply.put_bytes(frame);
                true
            })),
            Limits::default(),
        );
        let before = precise_reads();
        run_to_done(&mut d);
        assert_eq!(precise_reads() - before, 1);
        assert_eq!(*written.lock().unwrap(), batch, "sixteen replies");
    }

    #[test]
    fn unbudgeted_frames_never_read_the_clock() {
        deadline::clear_inbound();
        let batch: Vec<u8> = (0..16).flat_map(framed_call).collect();
        let (conn, written) = ScriptConn::new(vec![batch]);
        let mut d = ConnDriver::new(
            Box::new(conn),
            Framing::OncRecord,
            Box::new(service_handler(onc_admission)),
            Limits::default(),
        );
        let before = precise_reads();
        run_to_done(&mut d);
        assert_eq!(precise_reads() - before, 0);
        assert_eq!(onc_verdicts(&written.lock().unwrap()).len(), 16);
    }

    #[test]
    fn outside_a_round_every_header_reads_the_clock() {
        let framed = budgeted_call(1, ROUND_BUDGET);
        let record = &framed[4..]; // past the record mark
        let mut reply = MarshalBuf::new();
        for _ in 0..3 {
            let before = precise_reads();
            oncrpc::accept_call(record, 7, 1, &mut reply).expect("accepted");
            assert_eq!(precise_reads() - before, 1);
            let left = deadline::inbound_remaining_ns().expect("budget noted");
            assert!(left <= ROUND_BUDGET_NS);
            // The admission check is its own clock read out here.
            assert!(!deadline::inbound_expired());
            assert_eq!(precise_reads() - before, 3);
        }
        deadline::clear_inbound();
    }

    /// Holds every frame until the next `poll` (so the pipelining
    /// window leaves complete frames buffered across pumps); sleeps
    /// 20 ms serving xid 2 and reports what xid 3 observed.
    struct SlowSibling {
        pending: Vec<(FrameId, u32)>,
        /// `(clock reads so far, remaining budget)` seen by xid 3
        /// after its header and admission check.
        seen: Arc<Mutex<Option<(u64, u64)>>>,
    }

    impl FrameHandler for SlowSibling {
        fn on_frame(&mut self, id: FrameId, frame: &[u8], _sink: &mut ReplySink) {
            let mut scratch = MarshalBuf::new();
            let (h, _) = oncrpc::accept_call(frame, 7, 1, &mut scratch).expect("accepted");
            assert!(!deadline::inbound_expired());
            match h.xid {
                2 => std::thread::sleep(Duration::from_millis(20)),
                3 => {
                    let reads = precise_reads();
                    let left = deadline::inbound_remaining_ns().expect("budget noted");
                    *self.seen.lock().unwrap() = Some((reads, left));
                }
                _ => {}
            }
            self.pending.push((id, h.xid));
        }

        fn poll(&mut self, sink: &mut ReplySink) {
            for (id, xid) in self.pending.drain(..) {
                let mut b = MarshalBuf::new();
                oncrpc::write_reply_plain(&mut b, xid, oncrpc::ReplyOutcome::Success);
                sink.reply(id, b.as_slice());
            }
        }
    }

    #[test]
    fn a_frame_is_never_anchored_before_the_read_that_delivered_it() {
        // Read 1 brings xids 0–2; a window of two leaves xid 2
        // buffered.  The next pump dispatches it as backlog (clock
        // read 1, then the 20 ms sleep), is then starved, and reads
        // xid 3 in the same round: the refresh after that read costs
        // clock read 2 and keeps the sibling's sleep off xid 3's
        // budget.
        let first: Vec<u8> = (0..3)
            .flat_map(|x| budgeted_call(x, ROUND_BUDGET))
            .collect();
        let (mut conn, _written) = ScriptConn::new(vec![first, budgeted_call(3, ROUND_BUDGET)]);
        conn.closed_after_input = false;
        let seen = Arc::new(Mutex::new(None));
        let mut d = ConnDriver::new(
            Box::new(conn),
            Framing::OncRecord,
            Box::new(SlowSibling {
                pending: Vec::new(),
                seen: seen.clone(),
            }),
            Limits {
                max_pipeline: 2,
                ..Limits::default()
            },
        );
        d.pump();
        assert_eq!((d.outstanding(), d.buffered_input_bytes() > 0), (2, true));
        let before = precise_reads();
        d.pump();
        let (reads, left) = seen.lock().unwrap().expect("xid 3 was dispatched");
        assert_eq!(
            reads - before,
            2,
            "one read for the backlog, one after the read"
        );
        assert!(
            left > ROUND_BUDGET_NS - 20_000_000,
            "xid 3 was charged its sibling's sleep: {left} ns left"
        );
        deadline::clear_inbound();
    }

    #[test]
    fn a_nested_pump_restores_the_enclosing_round() {
        let (inner_conn, _inner_written) = ScriptConn::new(vec![budgeted_call(9, ROUND_BUDGET)]);
        let mut inner = ConnDriver::new(
            Box::new(inner_conn),
            Framing::OncRecord,
            Box::new(service_handler(onc_admission)),
            Limits::default(),
        );
        let (conn, written) = ScriptConn::new(vec![budgeted_call(1, ROUND_BUDGET)]);
        let mut outer = ConnDriver::new(
            Box::new(conn),
            Framing::OncRecord,
            Box::new(service_handler(
                move |frame: &[u8], reply: &mut MarshalBuf| {
                    let mut scratch = MarshalBuf::new();
                    oncrpc::accept_call(frame, 7, 1, &mut scratch).expect("accepted");
                    let anchored = deadline::arrival_now();
                    std::thread::sleep(Duration::from_millis(1));
                    let before = precise_reads();
                    run_to_done(&mut inner);
                    assert_eq!(precise_reads() - before, 1, "the inner round's own read");
                    // Back in the outer round: its instant, no new read.
                    assert_eq!(deadline::arrival_now(), anchored);
                    assert_eq!(precise_reads() - before, 1);
                    onc_admission(frame, reply)
                },
            )),
            Limits::default(),
        );
        run_to_done(&mut outer);
        assert_eq!(
            onc_verdicts(&written.lock().unwrap()),
            vec![(1, oncrpc::ReplyVerdict::Success)]
        );
    }

    #[test]
    fn admission_is_free_in_an_anchored_round_and_remaining_stays_precise() {
        let (conn, _written) = ScriptConn::new(vec![budgeted_call(1, ROUND_BUDGET)]);
        let mut d = ConnDriver::new(
            Box::new(conn),
            Framing::OncRecord,
            Box::new(service_handler(|frame: &[u8], reply: &mut MarshalBuf| {
                oncrpc::accept_call(frame, 7, 1, reply).expect("accepted");
                let anchored = precise_reads();
                assert!(!deadline::inbound_expired());
                assert_eq!(precise_reads(), anchored, "no clock read to admit");
                std::thread::sleep(Duration::from_millis(5));
                assert!(!deadline::inbound_expired());
                assert_eq!(precise_reads(), anchored);
                let left = deadline::inbound_remaining_ns().expect("budget noted");
                assert_eq!(precise_reads(), anchored + 1);
                assert!(left <= ROUND_BUDGET_NS - 5_000_000, "{left} ns left");
                false
            })),
            Limits::default(),
        );
        run_to_done(&mut d);
    }
}
