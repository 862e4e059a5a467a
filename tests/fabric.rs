//! The connection fabric end-to-end: generated servers hosted on
//! [`flick_runtime::fabric::Fabric`], driven over real in-process
//! links from [`flick_transport::listener`].
//!
//! Companion to `hostile.rs` — the garbage-blast and framing-violation
//! scenarios repeat here against a fabric-hosted server, proving the
//! multiplexed runtime degrades exactly like the thread-per-connection
//! loops: protocol-level refusals for decodable garbage, eviction for
//! framing violations, and never a panic or hang.  The buffer tests
//! read their own thread's allocations through `flick_bench::allocwatch`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;

use flick_bench::allocwatch::{self, PeakAlloc};
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
use flick_transport::stream::{
    read_giop, read_record, stream_pair, write_giop, write_record, StreamEnd,
};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Held by the tests that count their own thread's allocations and by
/// the one that switches telemetry collection on: with collection on,
/// the span recorder may allocate, so a count is asserted only while
/// collection is off.
static COLLECTION: Mutex<()> = Mutex::new(());

fn collection_lock() -> MutexGuard<'static, ()> {
    COLLECTION.lock().unwrap_or_else(|e| e.into_inner())
}

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
        max_frame_bytes: 1024,
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
    let _collection = collection_lock();
    let was_on = flick_telemetry::enabled();
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
    flick_telemetry::set_enabled(was_on);
}

/// The stream bytes of one frame of `len` bytes under `framing`, its
/// payload zeros: an ONC record of one fragment, or of two with the
/// last mark 104 bytes in (`fragments` = 2), or a GIOP message.  No
/// frame of zeros is a well-formed request, so admission hands it to
/// the handler as it is.
fn frame_of(framing: Framing, fragments: usize, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    match (framing, fragments) {
        (Framing::OncRecord, 1) => {
            out.extend_from_slice(&(0x8000_0000 | (len - 4) as u32).to_be_bytes());
        }
        (Framing::OncRecord, _) => {
            out.extend_from_slice(&100u32.to_be_bytes());
            out.resize(104, 0);
            out.extend_from_slice(&(0x8000_0000 | (len - 108) as u32).to_be_bytes());
        }
        (Framing::Giop, _) => {
            out.extend_from_slice(b"GIOP\x01\x00\x01\x00");
            out.extend_from_slice(&((len - 12) as u32).to_le_bytes());
        }
    }
    out.resize(len, 0);
    out
}

/// A handler that answers nothing and counts the frames it saw — no
/// allocation of its own, so a test can count the fabric's.
fn counting_handler(seen: &Arc<AtomicUsize>) -> Box<dyn FrameHandler> {
    let seen = Arc::clone(seen);
    Box::new(service_handler(move |_: &[u8], _: &mut MarshalBuf| {
        seen.fetch_add(1, Ordering::Relaxed);
        false
    }))
}

/// Pumps `driver` until `seen` reaches `want`.
fn pump_until(driver: &mut ConnDriver, seen: &AtomicUsize, want: usize) {
    for _ in 0..16 {
        if seen.load(Ordering::Relaxed) >= want {
            return;
        }
        driver.pump();
    }
    assert!(
        seen.load(Ordering::Relaxed) >= want,
        "frame {want} not dispatched"
    );
}

/// A frame that straddles reads sits, once dispatched, in a buffer of
/// exactly its own length: its header's announced length stops the
/// buffer's doubling at the frame.  Frames of one chunk plus a byte and
/// of two chunks plus a byte arrive in chunk-sized reads, one after the
/// other on one connection, for each framing (a multi-fragment ONC
/// record's length is known once its last mark is buffered).
///
/// Above the pool's 4 KiB floor (8 KiB chunks) the buffer is the
/// connection's only while the frame is in flight: drawn from the
/// thread's pool for the bytes that arrive, exactly the frame's length
/// once its header is in, and back in the pool when dispatch drains
/// it.  An identical second frame finds its buffers in the pool and is
/// read without touching the heap (a multi-fragment record's assembly
/// aside).
#[test]
fn a_frame_that_straddles_reads_is_buffered_at_its_own_length() {
    let _collection = collection_lock();
    let chunk = 1024;
    let limits = Limits {
        read_chunk_bytes: chunk,
        ..Limits::default()
    };
    let cases = [
        (Framing::OncRecord, 1),
        (Framing::OncRecord, 2),
        (Framing::Giop, 1),
    ];
    // A thread per case: each driver starts from a fresh buffer pool.
    thread::scope(|scope| {
        for (framing, fragments) in cases {
            scope.spawn(move || {
                let (seen_tx, seen) = std::sync::mpsc::channel();
                let handler = service_handler(move |frame: &[u8], _: &mut MarshalBuf| {
                    seen_tx.send(frame.len()).expect("test alive");
                    false
                });
                let (client, server) = stream_pair();
                let mut driver =
                    ConnDriver::new(Box::new(server), framing, Box::new(handler), limits);
                for len in [chunk + 1, 2 * chunk + 1] {
                    client.write(&frame_of(framing, fragments, len));
                    let mut reads = 0;
                    while seen.try_recv().is_err() {
                        driver.pump();
                        reads += 1;
                        assert!(
                            reads <= 8,
                            "{framing:?}/{fragments}: {len}-byte frame not dispatched"
                        );
                    }
                    assert_eq!(driver.buffered_input_bytes(), 0);
                    assert_eq!(
                        driver.buffered_input_capacity(),
                        len,
                        "{framing:?} in {fragments} fragment(s): a {len}-byte frame's buffer"
                    );
                }
            });
        }
    });

    let counting = !flick_telemetry::enabled();
    let chunk = 8192;
    let limits = Limits {
        read_chunk_bytes: chunk,
        ..Limits::default()
    };
    thread::scope(|scope| {
        for (framing, fragments) in cases {
            scope.spawn(move || {
                let seen = Arc::new(AtomicUsize::new(0));
                let (client, server) = stream_pair();
                let mut driver =
                    ConnDriver::new(Box::new(server), framing, counting_handler(&seen), limits);
                let mut frames = 0;
                for len in [chunk + 1, 2 * chunk + 1] {
                    let frame = frame_of(framing, fragments, len);
                    let case = format!("{framing:?} in {fragments} fragment(s), {len} bytes");
                    // The first frame of a length sizes the pool's buffers.
                    client.write(&frame);
                    frames += 1;
                    pump_until(&mut driver, &seen, frames);
                    assert_eq!(driver.buffered_input_bytes(), 0, "{case}");
                    assert_eq!(driver.buffered_input_capacity(), 0, "{case}: at rest");

                    let before = allocwatch::thread_alloc_events();
                    client.write(&frame);
                    driver.pump();
                    assert_eq!(driver.buffered_input_bytes(), chunk, "{case}");
                    assert_eq!(
                        driver.buffered_input_capacity(),
                        len,
                        "{case}: the buffer in flight"
                    );
                    frames += 1;
                    pump_until(&mut driver, &seen, frames);
                    let events = allocwatch::thread_alloc_events() - before;
                    if counting {
                        assert_eq!(events, usize::from(fragments > 1), "{case}: allocations");
                    }
                    assert_eq!(driver.buffered_input_bytes(), 0, "{case}");
                    assert_eq!(driver.buffered_input_capacity(), 0, "{case}: at rest");
                }
            });
        }
    });
}

/// Sixteen connections on one thread each receive a 64 KiB frame, in
/// turn: at rest none of them holds a bulk buffer, so the thread holds
/// two — the pipe's and the input buffer's, back in its pool — instead
/// of two per connection, and once warm a round allocates nothing.
#[test]
fn idle_connections_share_one_bulk_buffer() {
    let _collection = collection_lock();
    if flick_telemetry::enabled() {
        return;
    }
    const CONNS: usize = 16;
    let frame = frame_of(Framing::OncRecord, 1, 64 * 1024);
    thread::scope(|scope| {
        scope.spawn(|| {
            let before = allocwatch::thread_net_bytes();
            let seen = Arc::new(AtomicUsize::new(0));
            let mut links: Vec<(StreamEnd, ConnDriver)> = (0..CONNS)
                .map(|_| {
                    let (client, server) = stream_pair();
                    let handler = counting_handler(&seen);
                    let driver = ConnDriver::new(
                        Box::new(server),
                        Framing::OncRecord,
                        handler,
                        Limits::default(),
                    );
                    (client, driver)
                })
                .collect();
            let mut frames = 0;
            let mut round = |links: &mut Vec<(StreamEnd, ConnDriver)>| {
                for (client, driver) in links.iter_mut() {
                    client.write(&frame);
                    frames += 1;
                    pump_until(driver, &seen, frames);
                }
            };
            round(&mut links);
            let events = allocwatch::thread_alloc_events();
            round(&mut links);
            assert_eq!(
                allocwatch::thread_alloc_events() - events,
                0,
                "a warm round"
            );
            for (_, driver) in &links {
                assert_eq!(driver.buffered_input_capacity(), 0);
            }
            let grown = allocwatch::thread_net_bytes() - before;
            let bound = 2 * frame.len() + CONNS * 4096;
            assert!(
                grown <= bound as isize,
                "{CONNS} idle connections grew the heap by {grown} bytes (bound {bound})"
            );
        });
    });
}

/// One ONC call of `send_ints` with 16 384 ints — a 64 KiB request —
/// from a client on the driver's own thread; returns the reply verdict.
fn bulk_send_ints(
    client: &StreamEnd,
    driver: &mut ConnDriver,
    wire: &MarshalBuf,
    rx: &mut MarshalBuf,
) -> ReplyVerdict {
    client.write(wire.as_slice());
    for _ in 0..8 {
        driver.pump();
        let _ = client.read_available(rx, usize::MAX);
        if let Ok(oncrpc::RecordScan::Complete(reply, _)) =
            oncrpc::scan_record_limited(rx.as_slice(), oncrpc::MAX_RECORD_BYTES)
        {
            let (_, verdict) = verdict_of(reply);
            rx.clear();
            return verdict;
        }
    }
    panic!("no reply to a bulk call");
}

/// A warm 64 KiB stream call with client and server on one thread
/// allocates only what the server's signature owns: `send_ints`'
/// `Vec<i32>`.  The request's pipe storage and the server's input
/// buffer come from the thread's pool and go back to it.
#[test]
fn a_warm_same_thread_bulk_call_allocates_only_the_servers_vec() {
    let _collection = collection_lock();
    if flick_telemetry::enabled() {
        return;
    }
    thread::scope(|scope| {
        scope.spawn(|| {
            let vals: Vec<i32> = (0..16 * 1024).collect();
            let mut req = call(7, PROG, VERS, 1);
            onc_bench::encode_send_ints_request(&mut req, &vals);
            let mut wire = MarshalBuf::new();
            oncrpc::frame_record_into(req.as_slice(), &mut wire);
            let (client, server) = stream_pair();
            let mut driver = ConnDriver::new(
                Box::new(server),
                Framing::OncRecord,
                onc_handler(),
                Limits::default(),
            );
            let mut rx = MarshalBuf::new();
            for _ in 0..3 {
                let verdict = bulk_send_ints(&client, &mut driver, &wire, &mut rx);
                assert_eq!(verdict, ReplyVerdict::Success);
            }
            let before = allocwatch::thread_alloc_events();
            let verdict = bulk_send_ints(&client, &mut driver, &wire, &mut rx);
            assert_eq!(verdict, ReplyVerdict::Success);
            assert_eq!(allocwatch::thread_alloc_events() - before, 1);
        });
    });
}

/// Allocation events per call on the client's and on the server's
/// thread of a two-thread exchange of 64 KiB requests, after warm-up:
/// with 64 KiB replies when `echo`, with 4-byte replies otherwise.
fn cross_thread_allocs_per_call(echo: bool) -> (f64, f64) {
    const WARM: usize = 8;
    const CALLS: usize = 64;
    let frame = frame_of(Framing::OncRecord, 1, 64 * 1024);
    let (client, server) = stream_pair();
    // The server's thread allocation count as it handles frame WARM
    // and frame WARM + CALLS: CALLS whole cycles apart.
    let marks = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
    let server_marks = Arc::clone(&marks);
    let mut frames = 0;
    let handler = service_handler(move |rec: &[u8], reply: &mut MarshalBuf| {
        if frames == WARM || frames == WARM + CALLS {
            let at = usize::from(frames > WARM);
            server_marks[at].store(allocwatch::thread_alloc_events(), Ordering::Relaxed);
        }
        frames += 1;
        if echo {
            reply.put_bytes(rec);
        } else {
            reply.put_u32_be(0);
        }
        true
    });
    let limits = Limits::default();
    let client_events = thread::scope(|scope| {
        scope.spawn(move || {
            let mut driver = ConnDriver::new(
                Box::new(server),
                Framing::OncRecord,
                Box::new(handler),
                limits,
            );
            while driver.pump() != flick_runtime::fabric::Pump::Done {
                thread::yield_now();
            }
        });
        let mut rx = MarshalBuf::new();
        let mut client_marks = [0; 2];
        for i in 0..=WARM + CALLS {
            if i == WARM || i == WARM + CALLS {
                client_marks[usize::from(i > WARM)] = allocwatch::thread_alloc_events();
            }
            client.write(&frame);
            loop {
                let _ = client.read_available(&mut rx, usize::MAX);
                if let Ok(oncrpc::RecordScan::Complete(_, used)) =
                    oncrpc::scan_record_limited(rx.as_slice(), oncrpc::MAX_RECORD_BYTES)
                {
                    rx.drain_front(used);
                    break;
                }
                thread::yield_now();
            }
        }
        client.close();
        client_marks[1] - client_marks[0]
    });
    let server_events = marks[1].load(Ordering::Relaxed) - marks[0].load(Ordering::Relaxed);
    (
        client_events as f64 / CALLS as f64,
        server_events as f64 / CALLS as f64,
    )
}

/// Across threads a pipe's bulk storage follows the bytes: the writer
/// draws it from its own pool, and the read that drains the pipe
/// releases it into the reader's.  With 64 KiB replies the two pools
/// stay balanced and neither thread allocates; with small replies
/// the client's pool runs dry, and each 64 KiB request costs its
/// writer one allocation.
#[test]
fn a_cross_thread_bulk_exchange_allocates_what_the_writers_pool_lacks() {
    let _collection = collection_lock();
    if flick_telemetry::enabled() {
        return;
    }
    let echo = cross_thread_allocs_per_call(true);
    let small = cross_thread_allocs_per_call(false);
    eprintln!(
        "allocations per 64 KiB call (client, server): echo {echo:?}, small replies {small:?}"
    );
    assert_eq!(echo, (0.0, 0.0), "64 KiB replies");
    assert!(small.0 <= 1.0 && small.1 == 0.0, "small replies: {small:?}");
}
