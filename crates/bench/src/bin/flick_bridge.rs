//! `flick-bridge` — the transcoding gateway served on the connection
//! fabric, end to end over the in-process transports: an ONC client
//! speaks record-marked XDR into a fabric-hosted [`BridgeHandler`],
//! the generated `transcode_bench` rewrites re-encode each message,
//! and a generated GIOP server answers behind a circuit-breaking
//! [`Supervisor`].  The run finishes with a controller-driven
//! graceful drain rather than a dropped socket.
//!
//! ```text
//! cargo run --release -p flick-bench --bin flick_bridge -- \
//!     [--calls N] [--naive] [--hostile] [--seed N] [--grace-ms N]
//! ```
//!
//! `--naive` routes every body through the slot-by-slot rewrites (the
//! `--disable-pass=fuse-transcode` ablation); `--hostile` inserts a
//! seeded corrupting [`FaultPlan`] on the client link, demonstrating
//! that the gateway answers protocol errors instead of crashing.
//! Every request carries a propagated wire deadline, so the closing
//! stats also prove no request expired in flight.  With
//! `FLICK_TELEMETRY=1`, the `bridge.{forwarded,rejected,fallback}`
//! counters appear in the closing stats snapshot.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use flick_bench::data;
use flick_bench::generated::{iiop_bench, onc_bench, transcode_bench};
use flick_runtime::bridge::{BreakerPolicy, Bridge, BridgeCounters, Supervisor, UpstreamLink};
use flick_runtime::cdr::ByteOrder;
use flick_runtime::fabric::{BridgeHandler, Fabric, FrameHandler, FrameId, Framing, ReplySink};
use flick_runtime::limits::Limits;
use flick_runtime::oncrpc::{self, CallHeader, ReplyVerdict};
use flick_runtime::{MarshalBuf, MsgReader};
use flick_transport::fault::{FaultConfig, FaultPlan};
use flick_transport::listener::{listen, FabricAcceptor};
use flick_transport::stream::{read_record, write_record};

/// xid of the clean sentinel call that proves every earlier record on
/// the connection has been processed (the fabric serves a connection's
/// records in order).
const SENTINEL_XID: u32 = 0xdead_bea7;

struct Srv;

impl iiop_bench::Server for Srv {
    fn send_ints(&mut self, _vals: Vec<i32>) {}
    fn send_rects(&mut self, _rects: Vec<iiop_bench::Rect>) {}
    fn send_dirents(&mut self, _entries: Vec<iiop_bench::Dirent>) {}
    fn echo_stat(&mut self, s: iiop_bench::Stat) -> iiop_bench::Stat {
        s
    }
}

/// Delegates to the wrapped [`BridgeHandler`] and flushes its bridge
/// counters into a shared accumulator when the fabric drops the
/// connection — the handlers live inside the fabric, so this is how
/// the closing report sees their totals.
struct Metered<F: UpstreamLink + Send> {
    inner: BridgeHandler<F>,
    totals: Arc<Mutex<BridgeCounters>>,
}

impl<F: UpstreamLink + Send> FrameHandler for Metered<F> {
    fn on_frame(&mut self, id: FrameId, frame: &[u8], sink: &mut ReplySink) {
        self.inner.on_frame(id, frame, sink);
    }
}

impl<F: UpstreamLink + Send> Drop for Metered<F> {
    fn drop(&mut self) {
        let c = self.inner.counters();
        let mut t = self.totals.lock().expect("counter lock poisoned");
        t.forwarded += c.forwarded;
        t.rejected += c.rejected;
        t.fallback += c.fallback;
    }
}

fn record(proc_num: u32, xid: u32, body: impl FnOnce(&mut MarshalBuf)) -> Vec<u8> {
    let mut b = MarshalBuf::new();
    CallHeader {
        xid,
        prog: transcode_bench::PROGRAM,
        vers: transcode_bench::VERSION,
        proc: proc_num,
    }
    .write(&mut b);
    body(&mut b);
    b.into_vec()
}

fn main() {
    let mut calls = 1000u32;
    let mut naive = false;
    let mut hostile = false;
    let mut seed = 0xF11C_u64;
    let mut grace = Duration::from_millis(1000);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--calls" => calls = args.next().and_then(|v| v.parse().ok()).unwrap_or(calls),
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).unwrap_or(seed),
            "--grace-ms" => {
                let ms = args.next().and_then(|v| v.parse().ok()).unwrap_or(1000u64);
                grace = Duration::from_millis(ms);
            }
            "--naive" => naive = true,
            "--hostile" => hostile = true,
            other => {
                eprintln!(
                    "unknown flag {other}; usage: flick_bridge \
                     [--calls N] [--naive] [--hostile] [--seed N] [--grace-ms N]"
                );
                std::process::exit(2);
            }
        }
    }

    let order = if transcode_bench::DST_LITTLE_ENDIAN {
        ByteOrder::Little
    } else {
        ByteOrder::Big
    };

    // The fabric hosting the gateway: each accepted connection gets its
    // own bridge and its own supervised (circuit-breaking) upstream to
    // the in-process GIOP server.
    let totals: Arc<Mutex<BridgeCounters>> = Arc::default();
    let (listener, connector) = listen(usize::MAX);
    let fabric = Fabric::new(Limits::default()).workers(2);
    let controller = fabric.controller();
    let make_handler = {
        let totals = totals.clone();
        move || -> Box<dyn FrameHandler> {
            let bridge = Bridge::new(
                transcode_bench::BRIDGE_OPS,
                transcode_bench::PROGRAM,
                transcode_bench::VERSION,
                b"bench-object",
                order,
                naive,
            );
            let mut srv = Srv;
            let upstream = Supervisor::new(
                move |msg: &[u8]| {
                    let mut giop_reply = MarshalBuf::new();
                    iiop_bench::handle_message(msg, &mut giop_reply, &mut srv)
                        .then(|| giop_reply.as_slice().to_vec())
                },
                BreakerPolicy::default(),
            );
            Box::new(Metered {
                inner: BridgeHandler::new(bridge, upstream),
                totals: totals.clone(),
            })
        }
    };
    let server = std::thread::spawn(move || {
        fabric.serve(FabricAcceptor::new(
            listener,
            Framing::OncRecord,
            make_handler,
        ))
    });

    // The client leg: one duplex connection; a reader thread tallies
    // reply verdicts until the drain closes the link.
    let conn = Arc::new(connector.connect());
    let (sentinel_tx, sentinel_rx) = mpsc::channel::<()>();
    let reader = std::thread::spawn({
        let conn = conn.clone();
        move || {
            let (mut answered, mut success) = (0u64, 0u64);
            while let Some(rep) = read_record(&conn) {
                answered += 1;
                let mut r = MsgReader::new(&rep);
                // The reply must always parse as an ONC reply, even for
                // rejects — a gateway that emits garbage fails here.
                let (xid, verdict) =
                    oncrpc::read_reply_verdict(&mut r).expect("gateway reply parses");
                if verdict == ReplyVerdict::Success {
                    success += 1;
                }
                if xid == SENTINEL_XID {
                    let _ = sentinel_tx.send(());
                }
            }
            (answered, success)
        }
    });

    let mut plan: Option<FaultPlan<Vec<u8>>> = hostile.then(|| {
        // 10% truncations + 10% bit flips, deterministic per seed.
        FaultPlan::new(FaultConfig::corrupting(seed, 100, 100))
    });

    type EncodeFn = Box<dyn Fn(&mut MarshalBuf)>;
    let workload: [(u32, EncodeFn); 4] = [
        (
            1,
            Box::new(|b| onc_bench::encode_send_ints_request(b, &data::onc::ints(64))),
        ),
        (
            2,
            Box::new(|b| onc_bench::encode_send_rects_request(b, &data::onc::rects(16))),
        ),
        (
            3,
            Box::new(|b| onc_bench::encode_send_dirents_request(b, &data::onc::dirents(4))),
        ),
        (
            4,
            Box::new(|b| onc_bench::encode_echo_stat_request(b, &data::onc::stat())),
        ),
    ];

    // Every request carries a generous propagated deadline, so the
    // fabric's budget peek runs on each one and the closing stats can
    // prove none expired in flight.
    let t = Instant::now();
    {
        let _budget = flick_runtime::deadline::stamp_outbound(Duration::from_secs(30));
        for i in 0..calls {
            let (proc_num, encode) = &workload[i as usize % workload.len()];
            let rec = record(*proc_num, 0x0b5e_0000 + i, encode);
            match plan.as_mut() {
                Some(p) => {
                    for mutated in p.apply(rec) {
                        write_record(&conn, &mutated);
                    }
                }
                None => write_record(&conn, &rec),
            }
        }
        // The sentinel rides behind the workload uncorrupted; its reply
        // proves the gateway has processed everything ahead of it.
        let rec = record(4, SENTINEL_XID, |b| {
            onc_bench::encode_echo_stat_request(b, &data::onc::stat());
        });
        write_record(&conn, &rec);
    }

    sentinel_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("sentinel reply never arrived");

    // Graceful drain: stop accepting, finish in-flight work, flush,
    // close.  The reader observing EOF (not a reset) is the proof.
    controller.shutdown(grace);
    drop(connector);
    let (answered, success) = reader.join().expect("reader panicked");
    let stats = server.join().expect("fabric panicked");
    let dt = t.elapsed();

    let c = *totals.lock().expect("counter lock poisoned");
    let mode = if naive {
        "naive (fuse-transcode ablated)"
    } else {
        "fused"
    };
    println!("flick-bridge: {mode}, {answered} replies in {dt:.1?}");
    if hostile {
        println!("hostile link: seed={seed}, 10% truncate + 10% bitflip");
    }
    println!(
        "answered {answered} ({success} ok); bridge.forwarded={} bridge.rejected={} bridge.fallback={}",
        c.forwarded, c.rejected, c.fallback
    );
    println!(
        "fabric: accepted={} closed={} evicted={} shed={} expired={}",
        stats.accepted(),
        stats.closed(),
        stats.evicted(),
        stats.shed(),
        stats.expired()
    );
    if answered > 0 && dt.as_secs_f64() > 0.0 {
        println!(
            "{:.0} replies/s through the gateway",
            answered as f64 / dt.as_secs_f64()
        );
    }
    flick_bench::bin_common::emit_telemetry_snapshot();

    // Self-checks: clean runs forward everything (workload + sentinel);
    // hostile runs must have rejected something and still answered the
    // rest; the drain must close the connection cleanly; and no
    // budget-carrying request may have expired in flight.
    let expected = u64::from(calls) + 1;
    if !hostile && (c.forwarded != expected || success != expected) {
        eprintln!("flick-bridge: clean run dropped calls ({c:?}, {success} ok)");
        std::process::exit(1);
    }
    if hostile && (c.rejected == 0 || c.forwarded == 0) {
        eprintln!("flick-bridge: hostile run looks wrong ({c:?})");
        std::process::exit(1);
    }
    if stats.closed() != stats.accepted() || stats.evicted() != 0 {
        eprintln!("flick-bridge: drain did not close cleanly ({stats:?})");
        std::process::exit(1);
    }
    if stats.expired() != 0 {
        eprintln!(
            "flick-bridge: {} requests expired despite 30s budgets",
            stats.expired()
        );
        std::process::exit(1);
    }
}
