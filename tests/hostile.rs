//! Hostile-wire exchanges: faulty links, garbage-blasting clients,
//! and the protocol-level error replies that keep servers alive.
//!
//! Companion to `end_to_end.rs` — same stubs and transports, but every
//! scenario here goes out of its way to lose, corrupt, or fabricate
//! messages and asserts the system degrades to *errors*, never to
//! panics or hangs.

use std::thread;
use std::time::Duration;

use flick_bench::data;
use flick_bench::generated::{iiop_bench, onc_bench};
use flick_runtime::cdr::{ByteOrder, CdrIn, CdrOut};
use flick_runtime::client::{CallOptions, RpcError};
use flick_runtime::giop::{self, MsgType, ReplyStatus};
use flick_runtime::oncrpc::{self, CallHeader, ReplyVerdict};
use flick_runtime::{MarshalBuf, MsgReader};
use flick_transport::datagram::{datagram_pair, DEFAULT_MAX_DATAGRAM};
use flick_transport::fault::{FaultConfig, FaultyDatagramEnd, SplitMix64};
use flick_transport::stream::{read_giop, read_record, stream_pair, write_giop, write_record};

const PROG: u32 = 0x2000_0042;
const VERS: u32 = 1;

struct Sink {
    ints: usize,
    echoes: usize,
}

impl onc_bench::Server for Sink {
    fn send_ints(&mut self, vals: Vec<i32>) {
        self.ints += vals.len();
    }
    fn send_rects(&mut self, _r: Vec<onc_bench::Rect>) {}
    fn send_dirents(&mut self, _e: Vec<onc_bench::Dirent>) {}
    fn echo_stat(&mut self, _s: onc_bench::Stat) -> flick_runtime::Echoed<onc_bench::Stat> {
        self.echoes += 1;
        flick_runtime::Echoed::Unchanged
    }
}

struct IiopSink;

impl iiop_bench::Server for IiopSink {
    fn send_ints(&mut self, _vals: Vec<i32>) {}
    fn send_rects(&mut self, _r: Vec<iiop_bench::Rect>) {}
    fn send_dirents(&mut self, _e: Vec<iiop_bench::Dirent>) {}
    fn echo_stat(&mut self, s: iiop_bench::Stat) -> iiop_bench::Stat {
        s
    }
}

/// The acceptance scenario: a datagram client completes 100 calls over
/// a link dropping/duplicating 20% of messages in each direction,
/// purely through the generated stubs' retransmission.
#[test]
fn datagram_client_completes_100_calls_over_lossy_link() {
    flick_telemetry::set_enabled(true);
    let (c_raw, s_raw) = datagram_pair(DEFAULT_MAX_DATAGRAM);
    // 15% drop + 5% duplicate per message, each direction.
    let client = FaultyDatagramEnd::new(c_raw, FaultConfig::lossy(0xC0FFEE, 150, 50));
    let server = FaultyDatagramEnd::new(s_raw, FaultConfig::lossy(0xBEEF, 150, 50));

    let handle = thread::spawn(move || {
        let mut sink = Sink { ints: 0, echoes: 0 };
        let mut reply = MarshalBuf::new();
        while let Some(record) = server.recv() {
            if onc_bench::handle_call(record.as_slice(), PROG, VERS, &mut reply, &mut sink) {
                let _ = server.send(reply.as_slice());
            }
        }
        (sink, server.injected_total())
    });

    let opts = CallOptions {
        deadline: Duration::from_secs(10),
        retries: 20,
        backoff: Duration::from_millis(1),
    };
    let vals = data::onc::ints(16);
    let stat = data::onc::stat();
    for i in 0..100u32 {
        if i % 2 == 0 {
            onc_bench::call_send_ints(&client, 1 + i, PROG, VERS, &opts, &vals)
                .expect("send_ints completes despite losses");
        } else {
            let (echoed,) = onc_bench::call_echo_stat(&client, 1 + i, PROG, VERS, &opts, &stat)
                .expect("echo_stat completes despite losses");
            assert_eq!(echoed, stat, "echo must survive the lossy link intact");
        }
    }
    let injected_client = client.injected_total();
    drop(client); // hang up: server's recv() returns None
    let (sink, injected_server) = handle.join().expect("server thread");

    // Duplicated requests re-execute (at-least-once), so `>=`.
    assert!(sink.ints >= 50 * 16, "all 50 send_ints calls executed");
    assert!(sink.echoes >= 50, "all 50 echo_stat calls executed");
    assert!(
        injected_client + injected_server > 0,
        "the fault plan must actually have fired"
    );

    // With tracing live, the stubs' spans must correlate across the
    // wire: every server span shares its client's trace id (carried in
    // the ONC credential blob), per-phase child spans nest under it,
    // and the rpc.<op> histograms are populated.
    let events = flick_telemetry::events::snapshot();
    for op in ["send_ints", "echo_stat"] {
        let sbegin = events
            .iter()
            .rev()
            .find(|e| e.kind == "server.begin" && e.op == op)
            .unwrap_or_else(|| panic!("server span for {op} journaled"));
        assert_ne!(sbegin.trace_id, 0, "{op} server span has a trace id");
        assert!(
            events
                .iter()
                .any(|e| e.kind == "client.begin" && e.op == op && e.trace_id == sbegin.trace_id),
            "client and server spans share a trace id for {op}"
        );
        assert!(
            events
                .iter()
                .any(|e| e.kind == "server.phase.decode" && e.parent_id == sbegin.span_id),
            "decode phase nests under the server span for {op}"
        );
        assert!(
            events
                .iter()
                .any(|e| e.kind == "server.phase.work" && e.parent_id == sbegin.span_id),
            "work phase nests under the server span for {op}"
        );
    }
    assert!(
        events.iter().any(|e| e.kind == "fault"),
        "injected faults joined the journal"
    );
    let json = flick_runtime::stats::snapshot_json();
    for name in ["\"rpc.send_ints.rtt\"", "\"rpc.echo_stat.rtt\""] {
        assert!(json.contains(name), "stats JSON reports {name}: {json}");
    }
    assert!(
        json.contains("\"percentiles\":{\"p50\":"),
        "histograms embed percentile objects"
    );
    println!("--- per-op latency (lossy link) ---");
    println!("{}", flick_runtime::stats::per_op_table());
}

/// A garbage-blasting client over TCP-style stream: every hostile
/// record gets the right protocol-level refusal, the connection stays
/// up, and a legitimate call still completes afterwards.
#[test]
fn onc_server_survives_garbage_blast() {
    let (client_end, server_end) = stream_pair();
    let server = thread::spawn(move || {
        let mut sink = Sink { ints: 0, echoes: 0 };
        let mut reply = MarshalBuf::new();
        let mut answered = 0u32;
        while let Some(record) = read_record(&server_end) {
            if onc_bench::handle_call(&record, PROG, VERS, &mut reply, &mut sink) {
                write_record(&server_end, reply.as_slice());
                answered += 1;
            }
        }
        (sink, answered)
    });

    let call = |xid: u32, prog: u32, vers: u32, proc: u32| {
        let mut b = MarshalBuf::new();
        CallHeader {
            xid,
            prog,
            vers,
            proc,
        }
        .write(&mut b);
        b
    };
    let verdict_of = |record: &[u8]| {
        let mut r = MsgReader::new(record);
        oncrpc::read_reply_verdict(&mut r).expect("parseable refusal")
    };

    // Wrong program number → PROG_UNAVAIL.
    write_record(&client_end, call(1, PROG + 7, VERS, 1).as_slice());
    let reply = read_record(&client_end).expect("refusal, not a hangup");
    assert_eq!(verdict_of(&reply), (1, ReplyVerdict::ProgUnavail));

    // Wrong version → PROG_MISMATCH advertising the supported range.
    write_record(&client_end, call(2, PROG, 9, 1).as_slice());
    let reply = read_record(&client_end).expect("refusal, not a hangup");
    assert_eq!(
        verdict_of(&reply),
        (
            2,
            ReplyVerdict::ProgMismatch {
                low: VERS,
                high: VERS
            }
        )
    );

    // Unknown procedure → PROC_UNAVAIL.
    write_record(&client_end, call(3, PROG, VERS, 99).as_slice());
    let reply = read_record(&client_end).expect("refusal, not a hangup");
    assert_eq!(verdict_of(&reply), (3, ReplyVerdict::ProcUnavail));

    // Valid header, hostile arguments: a length field claiming 4096
    // ints with no bytes behind it → GARBAGE_ARGS.
    let mut b = call(4, PROG, VERS, 1);
    b.put_u32_be(4096);
    write_record(&client_end, b.as_slice());
    let reply = read_record(&client_end).expect("refusal, not a hangup");
    assert_eq!(verdict_of(&reply), (4, ReplyVerdict::GarbageArgs));

    // Unsupported RPC protocol version → MSG_DENIED / RPC_MISMATCH.
    let mut b = MarshalBuf::new();
    let mut c = b.chunk(24);
    c.put_u32_be_at(0, 5); // xid
    c.put_u32_be_at(4, 0); // CALL
    c.put_u32_be_at(8, 3); // rpcvers 3: not ours
    write_record(&client_end, b.as_slice());
    let reply = read_record(&client_end).expect("denial, not a hangup");
    assert_eq!(
        verdict_of(&reply),
        (5, ReplyVerdict::RpcMismatch { low: 2, high: 2 })
    );

    // Deterministic random garbage (kept shorter than a call header,
    // or stamped as a REPLY): the server stays silent but alive.
    let mut rng = SplitMix64::new(42);
    for _ in 0..64 {
        let n = rng.below(24) as usize;
        let junk: Vec<u8> = (0..n).map(|_| rng.next_u32() as u8).collect();
        write_record(&client_end, &junk);
    }

    // After all that, a legitimate call still round-trips.
    let mut b = call(6, PROG, VERS, 1);
    onc_bench::encode_send_ints_request(&mut b, &data::onc::ints(8));
    write_record(&client_end, b.as_slice());
    let reply = read_record(&client_end).expect("server survived the blast");
    let (xid, verdict) = verdict_of(&reply);
    assert_eq!((xid, verdict), (6, ReplyVerdict::Success));

    client_end.close();
    let (sink, answered) = server.join().expect("server thread");
    assert_eq!(sink.ints, 8, "only the one valid call executed");
    assert_eq!(answered, 6, "five refusals + one success, no junk replies");
}

/// The GIOP mirror: hostile messages draw `MessageError` or a
/// `SystemException` reply, `CloseConnection` is honored, and a valid
/// request afterwards completes.
#[test]
fn giop_server_survives_garbage_blast() {
    let (client_end, server_end) = stream_pair();
    let server = thread::spawn(move || {
        let mut srv = IiopSink;
        let mut reply = MarshalBuf::new();
        while let Some(msg) = read_giop(&server_end) {
            if iiop_bench::handle_message(&msg, &mut reply, &mut srv) {
                write_giop(&server_end, reply.as_slice());
            }
        }
    });

    let request = |id: u32, op: &str, body: &dyn Fn(&mut MarshalBuf)| {
        let order = ByteOrder::Big;
        let mut b = MarshalBuf::new();
        let at = giop::begin_message(&mut b, order, MsgType::Request);
        let out = CdrOut::begin(&b, order);
        giop::put_request_header(&mut b, &out, id, true, b"key", op);
        body(&mut b);
        giop::finish_message(&mut b, at, order);
        b
    };
    let read_exception = |msg: &[u8]| {
        let mut r = MsgReader::new(msg);
        let h = giop::read_header(&mut r).expect("reply header");
        assert_eq!(h.msg_type, MsgType::Reply);
        let cdr = CdrIn::begin(&r, h.order);
        let rh = giop::get_reply_header(&mut r, &cdr).expect("reply body header");
        assert_eq!(rh.status, ReplyStatus::SystemException);
        (
            rh.request_id,
            giop::get_system_exception(&mut r, &cdr).expect("exception body"),
        )
    };

    // Unknown operation → BAD_OPERATION system exception.
    write_giop(
        &client_end,
        request(1, "launch_missiles", &|_| {}).as_slice(),
    );
    let reply = read_giop(&client_end).expect("exception, not a hangup");
    let (id, ex) = read_exception(&reply);
    assert_eq!(id, 1);
    assert_eq!(ex.repo_id, "IDL:omg.org/CORBA/BAD_OPERATION:1.0");

    // Known operation, hostile body: a sequence length with nothing
    // behind it → MARSHAL system exception.
    let hostile = request(2, "send_ints", &|b| b.put_u32_be(1 << 20));
    write_giop(&client_end, hostile.as_slice());
    let reply = read_giop(&client_end).expect("exception, not a hangup");
    let (id, ex) = read_exception(&reply);
    assert_eq!(id, 2);
    assert_eq!(ex.repo_id, "IDL:omg.org/CORBA/MARSHAL:1.0");

    // A parseable header whose request header is garbage (service
    // context count far beyond the bytes present) → MessageError.
    let mut b = MarshalBuf::new();
    let at = giop::begin_message(&mut b, ByteOrder::Big, MsgType::Request);
    b.put_u32_be(u32::MAX); // hostile service-context count
    giop::finish_message(&mut b, at, ByteOrder::Big);
    write_giop(&client_end, b.as_slice());
    let reply = read_giop(&client_end).expect("MessageError, not a hangup");
    let mut r = MsgReader::new(&reply);
    let h = giop::read_header(&mut r).expect("header");
    assert_eq!(h.msg_type, MsgType::MessageError);

    // A valid call still completes after the blast.  With tracing
    // live, open a client span around it so the request's
    // service-context list carries the trace context over the GIOP
    // wire, and assert the reply echoes it back.
    let gspan = {
        flick_telemetry::set_enabled(true);
        flick_runtime::trace::client_begin("echo_stat")
    };
    let ok = request(3, "echo_stat", &|b| {
        iiop_bench::encode_echo_stat_request(b, &data::iiop::stat())
    });
    write_giop(&client_end, ok.as_slice());
    let reply = read_giop(&client_end).expect("server survived the blast");
    let mut r = MsgReader::new(&reply);
    let h = giop::read_header(&mut r).expect("header");
    assert_eq!(h.msg_type, MsgType::Reply);
    let cdr = CdrIn::begin(&r, h.order);
    let rh = giop::get_reply_header(&mut r, &cdr).expect("reply header");
    assert_eq!((rh.request_id, rh.status), (3, ReplyStatus::NoException));
    let ctx = gspan.context().expect("client span carries a context");
    assert_eq!(rh.trace, Some(ctx), "GIOP reply echoes the trace context");
    let events = flick_telemetry::events::snapshot();
    let sbegin = events
        .iter()
        .rev()
        .find(|e| e.kind == "server.begin" && e.trace_id == ctx.trace_id)
        .expect("GIOP server span shares the client's trace id");
    assert_eq!(
        sbegin.parent_id, ctx.span_id,
        "server span is parented to the wire context"
    );
    let _ = gspan.finish_call(Ok(flick_runtime::pool::checkout().into()));
    let (echoed,) = iiop_bench::decode_echo_stat_reply(&mut r).expect("reply body");
    assert_eq!(echoed, data::iiop::stat());

    // CloseConnection is honored: no reply, clean shutdown.
    let mut b = MarshalBuf::new();
    let at = giop::begin_message(&mut b, ByteOrder::Big, MsgType::CloseConnection);
    giop::finish_message(&mut b, at, ByteOrder::Big);
    write_giop(&client_end, b.as_slice());
    client_end.close();
    server.join().expect("server thread exits cleanly");
}

/// Calls against a dead or absent server surface as structured
/// timeouts, not hangs.
#[test]
fn silent_server_times_out_with_structured_error() {
    let (client_end, server_end) = datagram_pair(DEFAULT_MAX_DATAGRAM);
    // The server never answers (but the link stays open).
    let opts = CallOptions {
        deadline: Duration::from_millis(50),
        retries: 2,
        backoff: Duration::from_millis(5),
    };
    let err = onc_bench::call_send_ints(&client_end, 1, PROG, VERS, &opts, &[1, 2, 3])
        .expect_err("nobody home");
    assert_eq!(err, RpcError::Timeout);
    drop(server_end);
}
