//! Zero-allocation steady state: after warmup, a complete ONC echo
//! round trip and a complete GIOP echo round trip perform **zero**
//! per-call heap allocations.
//!
//! The claim composes four mechanisms, each asserted elsewhere and
//! proven end-to-end here under a peak-tracking global allocator:
//!
//! * encode buffers come from the thread-local pool
//!   (`flick_runtime::pool`) and recycle on drop, so the warm path
//!   reuses grown capacity instead of reallocating;
//! * the `reuse-slots` pass classifies the echo argument
//!   arena-resident: a packed stat decodes through a chunk into a
//!   stack value;
//! * the `reply-alias` pass answers an `Echoed::Unchanged` reply with
//!   the request's own bytes (ONC/XDR), and the GIOP request header
//!   parses borrowed (`get_request_header_ref`), so neither server
//!   path builds owned strings or buffers;
//! * all transport headers are plain-old-data.
//!
//! Over a real datagram link the same call allocates nothing either:
//! each datagram crosses in a pooled buffer that recycles on the
//! receiving side, and `client::call` hands the reply body back as a
//! view into the buffer it arrived in.  That holds through the fabric
//! too — a `ConnDriver` serving a `DatagramConn` frames each reply
//! once, onto its one output queue — which is the path `flick-perf`'s
//! `rpc_small` datagram cells measure.
//!
//! "The heap was not touched" is read from the measuring thread's own
//! allocation-event count (see `flick_bench::allocwatch`): the
//! process-wide high-water mark also moves when the test harness
//! prints a result or starts the next test on another thread.

use flick_bench::allocwatch::{self, PeakAlloc};
use flick_bench::data;
use flick_bench::generated::{iiop_bench, onc_bench};
use flick_runtime::cdr::{ByteOrder, CdrIn, CdrOut};
use flick_runtime::client::{CallOptions, Endpoint, RecvOutcome};
use flick_runtime::fabric::{service_handler, ConnDriver, Framing};
use flick_runtime::giop::{self, MsgType, ReplyStatus};
use flick_runtime::oncrpc::{self, CallHeader};
use flick_runtime::{pool, Limits, MarshalBuf, MsgReader};
use flick_transport::chan::Recv;
use flick_transport::datagram::{datagram_pair, DatagramConn, DatagramEnd, DEFAULT_MAX_DATAGRAM};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

const PROG: u32 = 0x2000_0042;
const VERS: u32 = 1;

struct OncId;

impl onc_bench::Server for OncId {
    fn send_ints(&mut self, _v: Vec<i32>) {}
    fn send_rects(&mut self, _v: Vec<onc_bench::Rect>) {}
    fn send_dirents(&mut self, _v: Vec<onc_bench::Dirent>) {}
    fn echo_stat(&mut self, _s: onc_bench::Stat) -> flick_runtime::Echoed<onc_bench::Stat> {
        flick_runtime::Echoed::Unchanged
    }
}

struct IiopId;

impl iiop_bench::Server for IiopId {
    fn send_ints(&mut self, _v: Vec<i32>) {}
    fn send_rects(&mut self, _v: Vec<iiop_bench::Rect>) {}
    fn send_dirents(&mut self, _v: Vec<iiop_bench::Dirent>) {}
    fn echo_stat(&mut self, s: iiop_bench::Stat) -> iiop_bench::Stat {
        // CDR is position-dependent, so no `Echoed` contract here: the
        // reply re-marshals — but entirely through stack storage.
        s
    }
}

/// One complete ONC round trip: pooled client encode, robust server
/// entry (header parse + dispatch + reply marshal), client reply
/// decode.  Mirrors what the generated `call_echo_stat` stub and a
/// datagram server loop do per call, minus the socket.
fn onc_round_trip(stat: &onc_bench::Stat, srv: &mut OncId) -> i32 {
    let mut call = pool::checkout();
    CallHeader {
        xid: 7,
        prog: PROG,
        vers: VERS,
        proc: 4,
    }
    .write(&mut call);
    onc_bench::encode_echo_stat_request(&mut call, stat);

    let mut reply = pool::checkout();
    assert!(onc_bench::handle_call(
        call.as_slice(),
        PROG,
        VERS,
        &mut reply,
        srv
    ));

    let mut r = MsgReader::new(reply.as_slice());
    oncrpc::read_reply(&mut r).expect("reply accepted");
    let (back,) = onc_bench::decode_echo_stat_reply(&mut r).expect("reply decodes");
    back.fields[0]
}

/// One complete GIOP round trip: pooled client encode (full message
/// framing + request header), robust server entry, client reply-header
/// parse + body decode.
fn giop_round_trip(stat: &iiop_bench::Stat, srv: &mut IiopId) -> i32 {
    let order = ByteOrder::Big;
    let mut call = pool::checkout();
    let at = giop::begin_message(&mut call, order, MsgType::Request);
    let out = CdrOut::begin(&call, order);
    giop::put_request_header(&mut call, &out, 7, true, b"key", "echo_stat");
    iiop_bench::encode_echo_stat_request(&mut call, stat);
    giop::finish_message(&mut call, at, order);

    let mut reply = pool::checkout();
    assert!(iiop_bench::handle_message(call.as_slice(), &mut reply, srv));

    let mut r = MsgReader::new(reply.as_slice());
    let h = giop::read_header(&mut r).expect("reply header");
    let cdr = CdrIn::begin(&r, h.order);
    let rh = giop::get_reply_header(&mut r, &cdr).expect("reply ok");
    assert_eq!(rh.status, ReplyStatus::NoException);
    let (back,) = iiop_bench::decode_echo_stat_reply(&mut r).expect("reply decodes");
    back.fields[0]
}

#[test]
fn warm_onc_round_trip_is_allocation_free() {
    let stat = data::onc::stat();
    let mut srv = OncId;
    let want = stat.fields[0];
    // Warmup: grow the pooled buffers, initialize thread-locals and
    // lazies, fault in whatever the first calls need.
    for _ in 0..32 {
        assert_eq!(onc_round_trip(&stat, &mut srv), want);
    }

    let live = allocwatch::live();
    let events = allocwatch::thread_alloc_events();
    allocwatch::reset_peak();
    let mut acc = 0i64;
    for _ in 0..100 {
        acc += i64::from(onc_round_trip(&stat, &mut srv));
    }
    std::hint::black_box(acc);

    // With collection on (`FLICK_TELEMETRY=1`) the span recorder may
    // allocate; the zero-heap claim is about the untraced hot path.
    if flick_telemetry::enabled() {
        return;
    }
    assert_eq!(
        allocwatch::thread_alloc_events() - events,
        0,
        "warm ONC round trips touched the heap ({} B above the warm live total)",
        allocwatch::peak_delta(live)
    );
}

#[test]
fn warm_giop_round_trip_is_allocation_free() {
    let stat = data::iiop::stat();
    let mut srv = IiopId;
    let want = stat.fields[0];
    for _ in 0..32 {
        assert_eq!(giop_round_trip(&stat, &mut srv), want);
    }

    let live = allocwatch::live();
    let events = allocwatch::thread_alloc_events();
    allocwatch::reset_peak();
    let mut acc = 0i64;
    for _ in 0..100 {
        acc += i64::from(giop_round_trip(&stat, &mut srv));
    }
    std::hint::black_box(acc);

    // With collection on (`FLICK_TELEMETRY=1`) the span recorder may
    // allocate; the zero-heap claim is about the untraced hot path.
    if flick_telemetry::enabled() {
        return;
    }
    assert_eq!(
        allocwatch::thread_alloc_events() - events,
        0,
        "warm GIOP round trips touched the heap ({} B above the warm live total)",
        allocwatch::peak_delta(live)
    );
}

/// A datagram client end whose receive side first gives the server its
/// turn on the calling thread, so the whole exchange is counted by
/// the measuring thread's allocation events.
struct ServedEnd {
    client: DatagramEnd,
    server: DatagramEnd,
    srv: std::cell::RefCell<OncId>,
}

impl Endpoint for ServedEnd {
    fn send(&self, payload: &[u8]) -> Result<(), &'static str> {
        Endpoint::send(&self.client, payload)
    }

    fn recv_deadline(&self, timeout: std::time::Duration) -> RecvOutcome {
        if let Recv::Msg(call) = self.server.recv_timeout(std::time::Duration::ZERO) {
            let mut reply = pool::checkout();
            let mut srv = self.srv.borrow_mut();
            assert!(onc_bench::handle_call(
                call.as_slice(),
                PROG,
                VERS,
                &mut reply,
                &mut *srv
            ));
            self.server.send(reply.as_slice()).expect("reply fits");
        }
        self.client.recv_deadline(timeout)
    }
}

/// Warms `ep` with 32 generated `call_echo_stat` calls, then counts the
/// measuring thread's allocation events over 100 more.
fn warm_echo_stat_allocations(ep: &impl Endpoint) -> usize {
    let stat = data::onc::stat();
    let opts = CallOptions::default();
    let call = |xid: u32| {
        let (back,) =
            onc_bench::call_echo_stat(ep, xid, PROG, VERS, &opts, &stat).expect("call completes");
        assert_eq!(back.fields[0], stat.fields[0]);
    };
    for xid in 0..32 {
        call(xid);
    }
    let events = allocwatch::thread_alloc_events();
    for xid in 32..132 {
        call(xid);
    }
    allocwatch::thread_alloc_events() - events
}

#[test]
fn warm_datagram_call_is_allocation_free() {
    let (client, server) = datagram_pair(DEFAULT_MAX_DATAGRAM);
    let events = warm_echo_stat_allocations(&ServedEnd {
        client,
        server,
        srv: std::cell::RefCell::new(OncId),
    });
    if flick_telemetry::enabled() {
        return;
    }
    assert_eq!(
        events, 0,
        "a warm datagram call touched the heap: both datagrams cross in pooled buffers"
    );
}

/// A datagram client end whose receive side first pumps a fabric
/// `ConnDriver` serving the other end — `rpc_small`'s datagram cells.
struct PumpedEnd {
    client: DatagramEnd,
    driver: std::cell::RefCell<ConnDriver>,
}

impl Endpoint for PumpedEnd {
    fn send(&self, payload: &[u8]) -> Result<(), &'static str> {
        Endpoint::send(&self.client, payload)
    }

    fn recv_deadline(&self, timeout: std::time::Duration) -> RecvOutcome {
        self.driver.borrow_mut().pump();
        self.client.recv_deadline(timeout)
    }
}

#[test]
fn warm_fabric_datagram_call_is_allocation_free() {
    let (client, server) = datagram_pair(DEFAULT_MAX_DATAGRAM);
    let mut srv = OncId;
    let driver = ConnDriver::new(
        Box::new(DatagramConn::new(server)),
        Framing::OncRecord,
        Box::new(service_handler(
            move |record: &[u8], reply: &mut MarshalBuf| {
                onc_bench::handle_call(record, PROG, VERS, reply, &mut srv)
            },
        )),
        Limits::default(),
    );
    let events = warm_echo_stat_allocations(&PumpedEnd {
        client,
        driver: std::cell::RefCell::new(driver),
    });
    if flick_telemetry::enabled() {
        return;
    }
    assert_eq!(
        events, 0,
        "a warm call through the fabric touched the heap: replies are framed once, \
         onto the connection's pooled output queue"
    );
}

#[test]
fn pool_telemetry_sees_steady_state_hits() {
    // Independent of the allocator: after one warm call, every
    // checkout is a pool hit and every drop recycles.
    let stat = data::onc::stat();
    let mut srv = OncId;
    onc_round_trip(&stat, &mut srv);
    let free_before = pool::free_buffers();
    assert!(free_before >= 2, "both call buffers recycled");
    onc_round_trip(&stat, &mut srv);
    assert_eq!(
        pool::free_buffers(),
        free_before,
        "steady state neither grows nor shrinks the free list"
    );
}
