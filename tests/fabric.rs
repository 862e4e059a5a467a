//! The connection fabric end-to-end: generated servers hosted on
//! [`flick_runtime::fabric::Fabric`], driven over real in-process
//! links from [`flick_transport::listener`].
//!
//! Companion to `hostile.rs` — the garbage-blast and framing-violation
//! scenarios repeat here against a fabric-hosted server, proving the
//! multiplexed runtime degrades exactly like the thread-per-connection
//! loops: protocol-level refusals for decodable garbage, eviction for
//! framing violations, and never a panic or hang.

use std::thread;

use flick_bench::data;
use flick_bench::generated::{iiop_bench, onc_bench, transcode_bench};
use flick_runtime::bridge::Bridge;
use flick_runtime::cdr::{ByteOrder, CdrIn, CdrOut};
use flick_runtime::fabric::{
    service_handler, BridgeHandler, ConnDriver, Fabric, FrameHandler, Framing, ReadStatus,
    WriteStatus,
};
use flick_runtime::giop::{self, MsgType, ReplyStatus};
use flick_runtime::oncrpc::{self, CallHeader, ReplyVerdict};
use flick_runtime::{Limits, MarshalBuf, MsgReader};
use flick_transport::listener::{listen, FabricAcceptor};
use flick_transport::stream::{read_giop, read_record, stream_pair, write_giop, write_record};

const PROG: u32 = 0x2000_0042;
const VERS: u32 = 1;

struct Sink;

impl onc_bench::Server for Sink {
    fn send_ints(&mut self, _v: Vec<i32>) {}
    fn send_rects(&mut self, _r: Vec<onc_bench::Rect>) {}
    fn send_dirents(&mut self, _e: Vec<onc_bench::Dirent>) {}
    fn echo_stat(&mut self, _s: onc_bench::Stat) -> flick_runtime::Echoed<onc_bench::Stat> {
        flick_runtime::Echoed::Unchanged
    }
}

struct IiopSink;

impl iiop_bench::Server for IiopSink {
    fn send_ints(&mut self, _v: Vec<i32>) {}
    fn send_rects(&mut self, _r: Vec<iiop_bench::Rect>) {}
    fn send_dirents(&mut self, _e: Vec<iiop_bench::Dirent>) {}
    fn echo_stat(&mut self, s: iiop_bench::Stat) -> iiop_bench::Stat {
        s
    }
}

fn onc_handler() -> Box<dyn FrameHandler> {
    let mut srv = Sink;
    Box::new(service_handler(
        move |rec: &[u8], reply: &mut MarshalBuf| {
            onc_bench::handle_call(rec, PROG, VERS, reply, &mut srv)
        },
    ))
}

fn call(xid: u32, prog: u32, vers: u32, proc_num: u32) -> MarshalBuf {
    let mut b = MarshalBuf::new();
    CallHeader {
        xid,
        prog,
        vers,
        proc: proc_num,
    }
    .write(&mut b);
    b
}

fn verdict_of(record: &[u8]) -> (u32, ReplyVerdict) {
    let mut r = MsgReader::new(record);
    oncrpc::read_reply_verdict(&mut r).expect("parseable reply")
}

/// Many concurrent clients, each doing sequential calls through the
/// blocking convenience API, all served by one fabric.
#[test]
fn fabric_hosts_the_generated_onc_server_for_many_clients() {
    let (listener, connector) = listen(64 * 1024);
    let fabric = Fabric::new(Limits::default()).workers(2);
    let server = thread::spawn(move || {
        fabric.serve(FabricAcceptor::new(
            listener,
            Framing::OncRecord,
            onc_handler,
        ))
    });

    let clients = 32;
    thread::scope(|scope| {
        for c in 0..clients {
            let conn = connector.connect();
            scope.spawn(move || {
                let vals = data::onc::ints(16);
                let stat = data::onc::stat();
                for i in 0..10u32 {
                    let xid = (c << 8) | i;
                    let mut b = call(xid, PROG, VERS, if i % 2 == 0 { 1 } else { 4 });
                    if i % 2 == 0 {
                        onc_bench::encode_send_ints_request(&mut b, &vals);
                    } else {
                        onc_bench::encode_echo_stat_request(&mut b, &stat);
                    }
                    write_record(&conn, b.as_slice());
                    let reply = read_record(&conn).expect("reply, not a hangup");
                    let (rxid, verdict) = verdict_of(&reply);
                    assert_eq!((rxid, verdict), (xid, ReplyVerdict::Success));
                    if i % 2 != 0 {
                        let mut r = MsgReader::new(&reply);
                        oncrpc::read_reply(&mut r).expect("accepted");
                        let (back,) =
                            onc_bench::decode_echo_stat_reply(&mut r).expect("echo decodes");
                        assert_eq!(back, stat, "echo survived the fabric");
                    }
                }
            });
        }
    });

    drop(connector);
    let stats = server.join().expect("fabric exits");
    assert_eq!(stats.accepted(), clients as u64);
    assert_eq!(
        stats.closed(),
        clients as u64,
        "every client closed cleanly"
    );
    assert_eq!(stats.evicted(), 0);
}

/// One connection pipelines several xid-tagged calls before reading
/// anything; every reply arrives and matches by xid.
#[test]
fn pipelined_calls_on_one_connection_all_complete() {
    let (listener, connector) = listen(usize::MAX);
    let fabric = Fabric::new(Limits::default()).workers(1);
    let server = thread::spawn(move || {
        fabric.serve(FabricAcceptor::new(
            listener,
            Framing::OncRecord,
            onc_handler,
        ))
    });

    let conn = connector.connect();
    let stat = data::onc::stat();
    let depth = 6u32;
    for i in 0..depth {
        let mut b = call(0xD00 + i, PROG, VERS, 4);
        onc_bench::encode_echo_stat_request(&mut b, &stat);
        write_record(&conn, b.as_slice());
    }
    let mut seen: Vec<u32> = (0..depth)
        .map(|_| {
            let reply = read_record(&conn).expect("pipelined reply");
            let (xid, verdict) = verdict_of(&reply);
            assert_eq!(verdict, ReplyVerdict::Success);
            xid
        })
        .collect();
    seen.sort_unstable();
    assert_eq!(seen, (0xD00..0xD00 + depth).collect::<Vec<_>>());

    drop(conn);
    drop(connector);
    let stats = server.join().expect("fabric exits");
    assert_eq!(stats.evicted(), 0);
}

/// The `hostile.rs` garbage blast replayed against a fabric-hosted
/// server: every decodable hostile record draws the right refusal, the
/// connection survives, and a legitimate call still completes.
#[test]
fn fabric_hosted_server_survives_garbage_blast() {
    let (listener, connector) = listen(usize::MAX);
    let fabric = Fabric::new(Limits::default()).workers(1);
    let server = thread::spawn(move || {
        fabric.serve(FabricAcceptor::new(
            listener,
            Framing::OncRecord,
            onc_handler,
        ))
    });
    let conn = connector.connect();

    // Wrong program number → PROG_UNAVAIL.
    write_record(&conn, call(1, PROG + 7, VERS, 1).as_slice());
    let reply = read_record(&conn).expect("refusal, not a hangup");
    assert_eq!(verdict_of(&reply), (1, ReplyVerdict::ProgUnavail));

    // Wrong version → PROG_MISMATCH advertising the supported range.
    write_record(&conn, call(2, PROG, 9, 1).as_slice());
    let reply = read_record(&conn).expect("refusal, not a hangup");
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
    write_record(&conn, call(3, PROG, VERS, 99).as_slice());
    let reply = read_record(&conn).expect("refusal, not a hangup");
    assert_eq!(verdict_of(&reply), (3, ReplyVerdict::ProcUnavail));

    // Hostile arguments → GARBAGE_ARGS.
    let mut b = call(4, PROG, VERS, 1);
    b.put_u32_be(4096);
    write_record(&conn, b.as_slice());
    let reply = read_record(&conn).expect("refusal, not a hangup");
    assert_eq!(verdict_of(&reply), (4, ReplyVerdict::GarbageArgs));

    // Junk too mangled to answer: consumed silently, connection lives.
    for n in 0..16usize {
        write_record(&conn, &vec![0xA5u8; n]);
    }

    // A legitimate call still round-trips after all of it.
    let mut b = call(5, PROG, VERS, 1);
    onc_bench::encode_send_ints_request(&mut b, &data::onc::ints(8));
    write_record(&conn, b.as_slice());
    let reply = read_record(&conn).expect("server survived the blast");
    assert_eq!(verdict_of(&reply), (5, ReplyVerdict::Success));

    drop(conn);
    drop(connector);
    let stats = server.join().expect("fabric exits");
    assert_eq!(stats.evicted(), 0, "refusals are not evictions");
}

/// A framing violation — a record mark announcing more than the
/// fabric's configured cap — evicts the connection instead of
/// buffering the announced bytes.
#[test]
fn oversized_record_mark_evicts_the_connection() {
    let limits = Limits {
        max_record_bytes: 1024,
        ..Limits::default()
    };
    let (listener, connector) = listen(usize::MAX);
    let fabric = Fabric::new(limits).workers(1);
    let server = thread::spawn(move || {
        fabric.serve(FabricAcceptor::new(
            listener,
            Framing::OncRecord,
            onc_handler,
        ))
    });

    let conn = connector.connect();
    // Final-fragment mark announcing 2048 bytes against a 1024 cap.
    conn.write(&(0x8000_0000u32 | 2048).to_be_bytes());
    assert_eq!(
        read_record(&conn),
        None,
        "evicted connections hang up on the peer"
    );

    drop(conn);
    drop(connector);
    let stats = server.join().expect("fabric exits");
    assert_eq!(stats.evicted(), 1);
}

/// GIOP framing through the fabric: the generated IIOP server answers
/// requests and refuses garbage, hosted behind `Framing::Giop`.
#[test]
fn fabric_hosts_the_generated_giop_server() {
    let (listener, connector) = listen(usize::MAX);
    let fabric = Fabric::new(Limits::default()).workers(1);
    let server = thread::spawn(move || {
        fabric.serve(FabricAcceptor::new(listener, Framing::Giop, || {
            let mut srv = IiopSink;
            Box::new(service_handler(
                move |msg: &[u8], reply: &mut MarshalBuf| {
                    iiop_bench::handle_message(msg, reply, &mut srv)
                },
            ))
        }))
    });

    let conn = connector.connect();
    let order = ByteOrder::Big;
    let mut b = MarshalBuf::new();
    let at = giop::begin_message(&mut b, order, MsgType::Request);
    let out = CdrOut::begin(&b, order);
    giop::put_request_header(&mut b, &out, 11, true, b"key", "echo_stat");
    iiop_bench::encode_echo_stat_request(&mut b, &data::iiop::stat());
    giop::finish_message(&mut b, at, order);
    write_giop(&conn, b.as_slice());

    let reply = read_giop(&conn).expect("GIOP reply through the fabric");
    let mut r = MsgReader::new(&reply);
    let h = giop::read_header(&mut r).expect("header");
    assert_eq!(h.msg_type, MsgType::Reply);
    let cdr = CdrIn::begin(&r, h.order);
    let rh = giop::get_reply_header(&mut r, &cdr).expect("reply header");
    assert_eq!((rh.request_id, rh.status), (11, ReplyStatus::NoException));
    let (echoed,) = iiop_bench::decode_echo_stat_reply(&mut r).expect("body");
    assert_eq!(echoed, data::iiop::stat());

    drop(conn);
    drop(connector);
    server.join().expect("fabric exits");
}

/// The transcoding gateway as a fabric connection handler: an ONC
/// client dials the fabric, the [`BridgeHandler`] rewrites each record
/// to GIOP for the in-process generated IIOP server, and the rewritten
/// XDR reply comes back down the same connection.
#[test]
fn bridge_runs_as_a_fabric_connection_handler() {
    fn upstream(msg: &[u8]) -> Option<Vec<u8>> {
        let mut reply = MarshalBuf::new();
        if iiop_bench::handle_message(msg, &mut reply, &mut IiopSink) {
            Some(reply.as_slice().to_vec())
        } else {
            None
        }
    }
    fn gateway() -> Box<dyn FrameHandler> {
        let order = if transcode_bench::DST_LITTLE_ENDIAN {
            ByteOrder::Little
        } else {
            ByteOrder::Big
        };
        let bridge = Bridge::new(
            transcode_bench::BRIDGE_OPS,
            transcode_bench::PROGRAM,
            transcode_bench::VERSION,
            b"bench-object",
            order,
            false,
        );
        Box::new(BridgeHandler::new(bridge, upstream))
    }

    let (listener, connector) = listen(usize::MAX);
    let fabric = Fabric::new(Limits::default()).workers(1);
    let server = thread::spawn(move || {
        fabric.serve(FabricAcceptor::new(listener, Framing::OncRecord, gateway))
    });

    let conn = connector.connect();
    let stat = data::onc::stat();
    for i in 0..3u32 {
        let mut b = MarshalBuf::new();
        CallHeader {
            xid: 0x6a7e_0000 + i,
            prog: transcode_bench::PROGRAM,
            vers: transcode_bench::VERSION,
            proc: 4,
        }
        .write(&mut b);
        onc_bench::encode_echo_stat_request(&mut b, &stat);
        write_record(&conn, b.as_slice());

        let reply = read_record(&conn).expect("bridged reply");
        let mut r = MsgReader::new(&reply);
        let (xid, verdict) = oncrpc::read_reply_verdict(&mut r).expect("XDR reply");
        assert_eq!((xid, verdict), (0x6a7e_0000 + i, ReplyVerdict::Success));
        let (back,) = onc_bench::decode_echo_stat_reply(&mut r).expect("XDR body");
        assert_eq!(back, stat, "stat survived XDR->CDR->XDR through the fabric");
    }

    drop(conn);
    drop(connector);
    let stats = server.join().expect("fabric exits");
    assert_eq!(stats.closed(), 1);
}

/// A GIOP Request announcing `0xFFFF_FFFF` service contexts is one
/// rejected frame, counted once: the fabric's admission peek counts
/// nothing, and the generated server's refusal is the one count.
#[test]
fn a_hostile_giop_frame_is_rejected_once() {
    flick_telemetry::set_enabled(true);
    let order = ByteOrder::Big;
    let mut b = MarshalBuf::new();
    let at = giop::begin_message(&mut b, order, MsgType::Request);
    let out = CdrOut::begin(&b, order);
    out.put_u32(&mut b, u32::MAX); // service contexts
    out.put_u32(&mut b, 1); // would-be request id
    giop::finish_message(&mut b, at, order);

    let (client, server) = stream_pair();
    let mut driver = ConnDriver::new(
        Box::new(server),
        Framing::Giop,
        Box::new(service_handler(
            move |msg: &[u8], reply: &mut MarshalBuf| {
                iiop_bench::handle_message(msg, reply, &mut IiopSink)
            },
        )),
        Limits::default(),
    );
    let rejects = || {
        flick_telemetry::global()
            .snapshot()
            .counter("decode.reject.cdr")
            .unwrap_or(0)
    };
    let before = rejects();
    assert_eq!(client.try_write(b.as_slice()), WriteStatus::Wrote(b.len()));
    driver.pump();
    assert_eq!(rejects() - before, 1, "one hostile frame, one reject");

    let mut rx = MarshalBuf::new();
    assert!(matches!(
        client.read_available(&mut rx, usize::MAX),
        ReadStatus::Read(_)
    ));
    let h = giop::read_header(&mut MsgReader::new(rx.as_slice())).expect("header");
    assert_eq!(h.msg_type, MsgType::MessageError);
}
