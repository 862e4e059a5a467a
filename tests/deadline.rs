//! Wire-deadline edge cases, end to end: generated stubs + the
//! fabric + the in-process transports.
//!
//! The contract under test: a request whose propagated budget is
//! already spent is refused *before* any handler runs — with a cheap
//! `SYSTEM_ERR` on stream transports, and a silent drop on datagram
//! ONC (the client's retransmit/timeout machinery is the recovery
//! path) — while budgets, trace blobs, and plain `AUTH_NONE`
//! credentials all keep interoperating.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use flick_bench::data;
use flick_bench::generated::onc_bench;
use flick_runtime::client::{self, CallOptions, RpcError};
use flick_runtime::fabric::{service_handler, Accepted, Acceptor, Fabric, FrameHandler, Framing};
use flick_runtime::limits::Limits;
use flick_runtime::oncrpc::{self, CallHeader, ReplyVerdict};
use flick_runtime::trace::{WireContext, ONC_TRACE_AUTH_FLAVOR};
use flick_runtime::{deadline, xdr, Echoed, MarshalBuf, MsgReader};
use flick_transport::datagram::{datagram_pair, DatagramConn, DEFAULT_MAX_DATAGRAM};
use flick_transport::listener::{listen, FabricAcceptor};
use flick_transport::stream::{read_record, write_record};

const PROG: u32 = 0x2000_0042;
const VERS: u32 = 1;

/// A server that counts how often any method body actually ran and
/// what inbound budget (if any) it observed.
struct Probe {
    calls: Arc<AtomicU64>,
}

impl onc_bench::Server for Probe {
    fn send_ints(&mut self, _vals: Vec<i32>) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
    fn send_rects(&mut self, _r: Vec<onc_bench::Rect>) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
    fn send_dirents(&mut self, _e: Vec<onc_bench::Dirent>) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
    fn echo_stat(&mut self, _s: onc_bench::Stat) -> Echoed<onc_bench::Stat> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        Echoed::Unchanged
    }
}

/// `srv` behind the generated `handle_call`, as a fabric handler.
fn hosted<S: onc_bench::Server + Send + 'static>(mut srv: S) -> Box<dyn FrameHandler> {
    Box::new(service_handler(
        move |record: &[u8], reply: &mut MarshalBuf| {
            onc_bench::handle_call(record, PROG, VERS, reply, &mut srv)
        },
    ))
}

fn probe_handler(calls: Arc<AtomicU64>) -> Box<dyn FrameHandler> {
    hosted(Probe { calls })
}

/// An `echo_stat` call record carrying `budget` as its wire deadline.
fn budgeted_record(xid: u32, budget: Duration) -> Vec<u8> {
    let _g = deadline::stamp_outbound(budget);
    let mut b = MarshalBuf::new();
    CallHeader {
        xid,
        prog: PROG,
        vers: VERS,
        proc: 4,
    }
    .write(&mut b);
    onc_bench::encode_echo_stat_request(&mut b, &data::onc::stat());
    b.into_vec()
}

/// The same call with no ambient stamp: a plain `AUTH_NONE` peer.
fn plain_record(xid: u32) -> Vec<u8> {
    deadline::clear_inbound();
    let mut b = MarshalBuf::new();
    CallHeader {
        xid,
        prog: PROG,
        vers: VERS,
        proc: 4,
    }
    .write(&mut b);
    onc_bench::encode_echo_stat_request(&mut b, &data::onc::stat());
    b.into_vec()
}

/// A request with a zero budget arriving over a stream is answered
/// `SYSTEM_ERR` before decode or dispatch; the very next request on
/// the same connection is served normally.
#[test]
fn zero_budget_stream_call_is_refused_before_the_handler() {
    let calls = Arc::new(AtomicU64::new(0));
    let (listener, connector) = listen(usize::MAX);
    let fabric = Fabric::new(Limits::default()).workers(1);
    let server = thread::spawn({
        let calls = calls.clone();
        move || {
            fabric.serve(FabricAcceptor::new(
                listener,
                Framing::OncRecord,
                move || probe_handler(calls.clone()),
            ))
        }
    });

    let conn = connector.connect();
    write_record(&conn, &budgeted_record(1, Duration::ZERO));
    write_record(&conn, &budgeted_record(2, Duration::from_secs(30)));

    let mut verdicts = std::collections::HashMap::new();
    for _ in 0..2 {
        let rep = read_record(&conn).expect("reply");
        let mut r = MsgReader::new(&rep);
        let (xid, verdict) = oncrpc::read_reply_verdict(&mut r).expect("reply parses");
        verdicts.insert(xid, verdict);
    }
    assert_eq!(
        verdicts[&1],
        ReplyVerdict::SystemErr,
        "spent budget refused"
    );
    assert_eq!(verdicts[&2], ReplyVerdict::Success, "fresh budget served");
    assert_eq!(
        calls.load(Ordering::Relaxed),
        1,
        "only the fresh-budget call reached a handler"
    );

    drop(conn);
    drop(connector);
    let stats = server.join().expect("fabric");
    assert_eq!(stats.expired(), 1);
}

/// Time a request spends queued in this process behind an earlier
/// frame of the same read is charged to its budget: both frames share
/// the arrival instant of the read that delivered them, so the second
/// one's handler sees the 30 ms its sibling slept already gone.  (An
/// anchor taken at dispatch would hand it the full budget back.)
#[test]
fn queueing_behind_a_slow_sibling_is_charged_to_the_budget() {
    const BUDGET: Duration = Duration::from_secs(10);

    /// First call sleeps; second reports what is left of its budget.
    struct SlowThenProbe {
        calls: u32,
        seen: Arc<AtomicU64>,
    }
    impl onc_bench::Server for SlowThenProbe {
        fn send_ints(&mut self, _vals: Vec<i32>) {}
        fn send_rects(&mut self, _r: Vec<onc_bench::Rect>) {}
        fn send_dirents(&mut self, _e: Vec<onc_bench::Dirent>) {}
        fn echo_stat(&mut self, _s: onc_bench::Stat) -> Echoed<onc_bench::Stat> {
            self.calls += 1;
            if self.calls == 1 {
                thread::sleep(Duration::from_millis(30));
            } else {
                let left = deadline::inbound_remaining_ns().expect("budget is ambient");
                self.seen.store(left, Ordering::Relaxed);
            }
            Echoed::Unchanged
        }
    }

    let seen = Arc::new(AtomicU64::new(u64::MAX));
    let (listener, connector) = listen(usize::MAX);
    let fabric = Fabric::new(Limits::default()).workers(1);
    let server = thread::spawn({
        let seen = seen.clone();
        move || {
            fabric.serve(FabricAcceptor::new(
                listener,
                Framing::OncRecord,
                move || {
                    hosted(SlowThenProbe {
                        calls: 0,
                        seen: seen.clone(),
                    })
                },
            ))
        }
    });

    let conn = connector.connect();
    // One write, so one read delivers both frames.
    conn.write(
        &[
            oncrpc::frame_record(&budgeted_record(1, BUDGET)),
            oncrpc::frame_record(&budgeted_record(2, BUDGET)),
        ]
        .concat(),
    );
    for xid in [1, 2] {
        let rep = read_record(&conn).expect("reply");
        let mut r = MsgReader::new(&rep);
        assert_eq!(
            oncrpc::read_reply_verdict(&mut r).expect("reply parses"),
            (xid, ReplyVerdict::Success)
        );
    }
    let left = seen.load(Ordering::Relaxed);
    assert!(
        left <= (BUDGET - Duration::from_millis(25)).as_nanos() as u64,
        "the second call kept {left} ns of a {BUDGET:?} budget after queueing 30 ms"
    );

    drop(conn);
    drop(connector);
    server.join().expect("fabric");
}

/// One-shot acceptor handing the fabric a single pre-built connection.
struct OneShot(mpsc::Receiver<Accepted>);

impl Acceptor for OneShot {
    fn accept(&mut self) -> Option<Accepted> {
        self.0.recv().ok()
    }
}

/// The same spent-budget request over datagram ONC is dropped
/// *silently* — every retransmission too — so the caller's own
/// deadline machinery reports `Timeout`, exactly as if the datagrams
/// were lost.  Nothing ever reaches a handler.
#[test]
fn zero_budget_datagram_call_times_out_silently() {
    let calls = Arc::new(AtomicU64::new(0));
    let (client_end, server_end) = datagram_pair(DEFAULT_MAX_DATAGRAM);
    let (tx, rx) = mpsc::channel();
    tx.send(Accepted {
        conn: Box::new(DatagramConn::new(server_end)),
        framing: Framing::OncRecord,
        handler: probe_handler(calls.clone()),
    })
    .expect("queue conn");
    drop(tx);

    let fabric = Fabric::new(Limits::default()).workers(1);
    let server = thread::spawn(move || fabric.serve(OneShot(rx)));

    let request = budgeted_record(7, Duration::ZERO);
    let opts = CallOptions {
        deadline: Duration::from_millis(200),
        retries: 2,
        backoff: Duration::from_millis(30),
    };
    let err = client::call(&client_end, 7, &request, &opts).expect_err("must not succeed");
    assert_eq!(err, RpcError::Timeout, "silent drop reads as loss");
    assert_eq!(calls.load(Ordering::Relaxed), 0, "no handler ever ran");

    drop(client_end);
    let stats = server.join().expect("fabric");
    assert!(
        stats.expired() >= 1,
        "every retransmitted datagram was dropped as expired (got {})",
        stats.expired()
    );
}

/// A retransmission is never sent once the call's own deadline has
/// passed.  With a 5 ms deadline and a 50 ms backoff the first window
/// runs out the whole budget, so nobody serving the link must see
/// exactly the one datagram — not a second, already-too-late one.
#[test]
fn a_spent_deadline_is_never_retransmitted() {
    let (client_end, server_end) = datagram_pair(DEFAULT_MAX_DATAGRAM);
    let opts = CallOptions {
        deadline: Duration::from_millis(5),
        retries: 3,
        backoff: Duration::from_millis(50),
    };
    let request = budgeted_record(11, opts.deadline);
    let err = client::call(&client_end, 11, &request, &opts).expect_err("nobody answers");
    assert_eq!(err, RpcError::Timeout);
    let mut sent = 0;
    while let flick_transport::chan::Recv::Msg(_) = server_end.recv_timeout(Duration::ZERO) {
        sent += 1;
    }
    assert_eq!(sent, 1, "a datagram went out after the deadline");
}

/// A client budget larger than the server's drain grace does not keep
/// the server alive: once a drain begins, new requests are never read,
/// no matter how much time their budget would allow.
#[test]
fn drain_ignores_generous_budgets_on_new_work() {
    let calls = Arc::new(AtomicU64::new(0));
    let (listener, connector) = listen(usize::MAX);
    let fabric = Fabric::new(Limits::default()).workers(1);
    let controller = fabric.controller();
    let server = thread::spawn({
        let calls = calls.clone();
        move || {
            fabric.serve(FabricAcceptor::new(
                listener,
                Framing::OncRecord,
                move || probe_handler(calls.clone()),
            ))
        }
    });

    let conn = connector.connect();
    write_record(&conn, &budgeted_record(1, Duration::from_secs(30)));
    let rep = read_record(&conn).expect("pre-drain reply");
    let mut r = MsgReader::new(&rep);
    assert_eq!(
        oncrpc::read_reply_verdict(&mut r).expect("parses"),
        (1, ReplyVerdict::Success)
    );

    // Begin the drain with a short grace, give the worker time to
    // observe it, then offer new work with a 30s budget.
    controller.shutdown(Duration::from_millis(100));
    thread::sleep(Duration::from_millis(150));
    write_record(&conn, &budgeted_record(2, Duration::from_secs(30)));

    assert!(
        read_record(&conn).is_none(),
        "the draining fabric must close, not serve the new request"
    );
    assert_eq!(
        calls.load(Ordering::Relaxed),
        1,
        "only the pre-drain call ran"
    );

    drop(connector);
    let stats = server.join().expect("fabric");
    assert_eq!(stats.closed(), 1, "drained connection closed cleanly");
}

/// Budgeted, trace-only (the 16-byte pre-deadline blob), and plain
/// `AUTH_NONE` requests all interoperate against the same generated
/// server: deadline propagation is strictly additive on the wire.
#[test]
fn budget_blob_is_backward_compatible_with_older_peers() {
    let calls = Arc::new(AtomicU64::new(0));
    let mut srv = Probe {
        calls: calls.clone(),
    };
    let mut reply = MarshalBuf::new();

    // (a) Modern budgeted form: served, and the budget is ambient
    // while the handler runs.
    reply.clear();
    assert!(onc_bench::handle_call(
        &budgeted_record(10, Duration::from_secs(30)),
        PROG,
        VERS,
        &mut reply,
        &mut srv
    ));
    let mut r = MsgReader::new(reply.as_slice());
    assert_eq!(
        oncrpc::read_reply_verdict(&mut r).expect("parses"),
        (10, ReplyVerdict::Success)
    );

    // (b) A peer that never heard of deadlines: plain AUTH_NONE.
    reply.clear();
    assert!(onc_bench::handle_call(
        &plain_record(11),
        PROG,
        VERS,
        &mut reply,
        &mut srv
    ));
    let mut r = MsgReader::new(reply.as_slice());
    assert_eq!(
        oncrpc::read_reply_verdict(&mut r).expect("parses"),
        (11, ReplyVerdict::Success)
    );
    assert_eq!(
        deadline::inbound_remaining_ns(),
        None,
        "a budgetless request must clear any stale inbound budget"
    );

    // (c) Hand-built credentials, so this keeps compiling even as stubs
    // move forward: FLKT blobs of every length up to 32 — among them the
    // 16-byte trace-only form that predates the budgeted 24-byte one —
    // and the same bytes under a foreign flavor.  Every call is served;
    // only a 24-byte FLKT blob carries a budget, and the fabric's peek
    // reads exactly what the server does.
    let mut served = 2;
    for flavor in [ONC_TRACE_AUTH_FLAVOR, 1 /* AUTH_SYS */] {
        for len in 0..=32u8 {
            let xid = 12 + u32::from(len);
            let mut b = MarshalBuf::new();
            for word in [
                xid, 0, /* CALL */
                2, /* RPC version */
                PROG, VERS, 4,
            ] {
                b.put_u32_be(word);
            }
            b.put_u32_be(flavor);
            xdr::put_opaque(&mut b, &(1..=len).collect::<Vec<u8>>());
            b.put_u64_be(0); // verf AUTH_NONE
            onc_bench::encode_echo_stat_request(&mut b, &data::onc::stat());
            let budgeted = flavor == ONC_TRACE_AUTH_FLAVOR
                && usize::from(len) == WireContext::len_of(false, true);
            let case = format!("flavor={flavor:#x} len={len}");
            let peeked = oncrpc::peek_call(b.as_slice()).expect("a call");
            assert_eq!(peeked.context.budget_ns.is_some(), budgeted, "{case}");
            reply.clear();
            assert!(onc_bench::handle_call(
                b.as_slice(),
                PROG,
                VERS,
                &mut reply,
                &mut srv
            ));
            let mut r = MsgReader::new(reply.as_slice());
            assert_eq!(
                oncrpc::read_reply_verdict(&mut r).expect("parses"),
                (xid, ReplyVerdict::Success),
                "{case}"
            );
            assert_eq!(
                deadline::inbound_remaining_ns().is_some(),
                budgeted,
                "{case}"
            );
            served += 1;
        }
    }

    assert_eq!(calls.load(Ordering::Relaxed), served, "every form served");
}
