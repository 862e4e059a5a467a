//! The traced layer ledger: what each layer costs, measured from
//! outside.
//!
//! Three kinds of row, all normalized like the end-to-end numbers:
//!
//! * **span rows** — every workload is repeated with the
//!   span-recording rigs, and a row is the median over batches of a
//!   span's corrected self time per op;
//! * **replay rows** — functions too short to bracket one call at a
//!   time (`CallHeader::write`, `scan_record_limited`, a 256-byte stub
//!   encode) are run alone in batches, on bytes captured from the same
//!   requests the workloads send;
//! * **side rows** — interleaved ratios against `flick_baselines` and
//!   the naive transcoders, one short threaded `Fabric::serve` run and
//!   a few compiles big enough for the compiler's own lowering threads
//!   (`fabric.mt.*`, `compile.mt.*`: raw and ungated, the only places a
//!   second runnable thread exists).
//!
//! A traced run always fills the whole ledger; the workload it is run
//! for decides which workload the harness rows (`raw.ops_per_s`,
//! `trace.overhead_share`, `trace.accounted_share`, `host.*`,
//! `alloc.bytes_per_op`) describe.

use crate::harness::{self, Cell, CellTimes, RunOut, P99};
use crate::inputs::{self, Rng};
use crate::metrics;
use crate::run::{self, Depth, WorkloadRun};
use crate::stats;
use crate::trace::{self, Name, Span};
use crate::workloads::marshal::{self, Half};
use crate::workloads::rpc::{self, IiopSrv, OncSrv, Seen, BUDGET, PROG, VERS};
use crate::workloads::{self, compile, fanin};
use flick_baselines::orbeline::OrbelineStyle;
use flick_baselines::rpcgen::RpcgenStyle;
use flick_baselines::Marshaler;
use flick_bench::generated::{iiop_bench, onc_bench, transcode_bench};
use flick_runtime::cdr::{ByteOrder, CdrIn, CdrOut};
use flick_runtime::fabric::{Fabric, Framing};
use flick_runtime::giop::{self, MsgType, ReplyStatus};
use flick_runtime::oncrpc::{self, CallHeader, ReplyOutcome};
use flick_runtime::{deadline, Limits, MarshalBuf, MsgReader};
use flick_transport::datagram::{datagram_pair, DEFAULT_MAX_DATAGRAM};
use flick_transport::listener::{listen, FabricAcceptor};
use flick_transport::stream::stream_pair;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Share of a traced run's `--seconds` each part gets.
mod share {
    /// The untraced repeat of the workload the run is for.
    pub const UNTRACED: f64 = 0.12;
    /// Each workload's traced repeat.
    pub const TRACED: f64 = 0.08;
    /// The 28 stub encode/decode cells.
    pub const STUBS: f64 = 0.12;
    /// The replay cells.
    pub const REPLAY: f64 = 0.10;
    /// Flick against the baselines, interleaved.
    pub const BASELINES: f64 = 0.06;
    /// The threaded `Fabric::serve` diagnostic.
    pub const THREADED: f64 = 0.06;
    /// The threaded 48-operation compile diagnostic.
    pub const THREADED_COMPILE: f64 = 0.02;
}

/// A filled ledger.
pub struct Ledger {
    /// Every per-layer metric, in [`metrics::per_layer`] order.
    pub values: Vec<(String, f64, &'static str)>,
    /// Kept spans per workload, for `trace.json`.
    pub spans: Vec<(String, Vec<Span>)>,
    /// Ops attempted across every part.
    pub attempted: u64,
    /// Ops that failed a check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// True when the reference kernel itself moved too much.
    pub disturbed: bool,
}

/// A cell around a closure, for replay rows: `f(ops)` runs `ops`
/// operations and returns how many failed.
struct FnCell<F> {
    name: String,
    f: F,
}

impl<F: FnMut(usize) -> u64> Cell for FnCell<F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn payload_bytes(&self) -> u64 {
        0
    }

    fn run(&mut self, ops: usize) -> RunOut {
        RunOut {
            failed: (self.f)(ops),
            bytes_out: 0,
        }
    }

    fn verify_last(&mut self) -> Result<(), String> {
        Ok(())
    }
}

fn replay(name: &str, f: impl FnMut(usize) -> u64 + 'static) -> Box<dyn Cell> {
    Box::new(FnCell {
        name: name.to_string(),
        f,
    })
}

/// Ops attempted and failed across the ledger's parts.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

/// Warms, sizes and times `cells` for `seconds`, adding what they
/// attempted and failed to `tally`.
fn measure(
    cells: Vec<Box<dyn Cell>>,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> Vec<CellTimes> {
    let mut done = harness::setup(move |_| cells, &mut tally.failures);
    let order = Rng::new(seed, 0x1ed9).permutation(done.cells.len());
    let (times, _host) =
        harness::timed_pass(&mut done.cells, &order, seconds, None, &mut tally.failures);
    tally.attempted += times.iter().map(|c| c.attempted).sum::<u64>();
    tally.failed += done.failed + times.iter().map(|c| c.failed).sum::<u64>();
    times
}

/// One captured request of each kind, as the workloads send them.
struct Captured {
    /// An unframed ONC call record (`send_ints` of 16, stamped).
    onc_record: Vec<u8>,
    /// Its header length with and without the deadline stamp.
    onc_header: (usize, usize),
    /// The same record, record-marked.
    onc_framed: Vec<u8>,
    /// An unframed ONC success reply.
    onc_reply: Vec<u8>,
    /// A complete GIOP request (`send_ints` of 16, stamped).
    giop_request: Vec<u8>,
    /// The four small ONC bodies, by procedure number − 1.
    onc_bodies: [Vec<u8>; 4],
    /// The same four values as CDR bodies, with operation names.
    cdr_bodies: [(&'static str, Vec<u8>); 4],
    /// CDR reply bodies of the four operations.
    cdr_replies: [Vec<u8>; 4],
}

fn capture(seed: u64) -> Captured {
    let mut rng = Rng::new(seed, 0xca97);
    let ints = inputs::ints(&mut rng, rpc::SMALL_INTS);
    let rects = inputs::rects(&mut rng, 16);
    let dirents = inputs::dirents(&mut rng, 4);
    let stat = inputs::stat(&mut rng);
    let body = |f: &dyn Fn(&mut MarshalBuf)| {
        let mut b = MarshalBuf::new();
        f(&mut b);
        b.into_vec()
    };
    let onc_bodies = [
        body(&|b| onc_bench::encode_send_ints_request(b, &ints)),
        body(&|b| onc_bench::encode_send_rects_request(b, &inputs::onc::rects(&rects))),
        body(&|b| onc_bench::encode_send_dirents_request(b, &inputs::onc::dirents(&dirents))),
        body(&|b| onc_bench::encode_echo_stat_request(b, &inputs::onc::stat(&stat))),
    ];
    let cdr_bodies = [
        (
            "send_ints",
            body(&|b| iiop_bench::encode_send_ints_request(b, &ints)),
        ),
        (
            "send_rects",
            body(&|b| iiop_bench::encode_send_rects_request(b, &inputs::iiop::rects(&rects))),
        ),
        (
            "send_dirents",
            body(&|b| iiop_bench::encode_send_dirents_request(b, &inputs::iiop::dirents(&dirents))),
        ),
        (
            "echo_stat",
            body(&|b| iiop_bench::encode_echo_stat_request(b, &inputs::iiop::stat(&stat))),
        ),
    ];
    let cdr_replies = [
        body(&|b| iiop_bench::encode_send_ints_reply(b)),
        body(&|b| iiop_bench::encode_send_rects_reply(b)),
        body(&|b| iiop_bench::encode_send_dirents_reply(b)),
        body(&|b| iiop_bench::encode_echo_stat_reply(b, &inputs::iiop::stat(&stat))),
    ];
    let header = CallHeader {
        xid: 7,
        prog: PROG,
        vers: VERS,
        proc: 1,
    };
    deadline::clear_inbound();
    let plain = body(&|b| header.write(b)).len();
    let (onc_record, stamped, giop_request) = {
        let _budget = deadline::stamp_outbound(BUDGET);
        let mut b = MarshalBuf::new();
        header.write(&mut b);
        let stamped = b.len();
        b.put_bytes(&onc_bodies[0]);
        let order = ByteOrder::native();
        let mut g = MarshalBuf::new();
        let at = giop::begin_message(&mut g, order, MsgType::Request);
        let cdr = CdrOut::begin(&g, order);
        giop::put_request_header(&mut g, &cdr, 7, true, b"bench-object", "send_ints");
        g.put_bytes(&cdr_bodies[0].1);
        giop::finish_message(&mut g, at, order);
        (b.into_vec(), stamped, g.into_vec())
    };
    Captured {
        onc_framed: oncrpc::frame_record(&onc_record),
        onc_header: (stamped, plain),
        onc_reply: body(&|b| oncrpc::write_reply_plain(b, 7, ReplyOutcome::Success)),
        onc_record,
        giop_request,
        onc_bodies,
        cdr_bodies,
        cdr_replies,
    }
}

/// The replay cells: one per short function, on captured bytes.
fn replay_cells(c: &Captured) -> Vec<Box<dyn Cell>> {
    let mut cells = Vec::new();
    let header = CallHeader {
        xid: 7,
        prog: PROG,
        vers: VERS,
        proc: 1,
    };

    cells.push(replay("runtime.context.stamp_ns", |ops| {
        for _ in 0..ops {
            black_box(deadline::stamp_outbound(black_box(BUDGET)));
        }
        0
    }));
    let mut buf = MarshalBuf::new();
    cells.push(replay("runtime.oncrpc.call_header_write_ns", move |ops| {
        let _budget = deadline::stamp_outbound(BUDGET);
        for _ in 0..ops {
            buf.clear();
            black_box(&header).write(&mut buf);
        }
        u64::from(black_box(buf.len()) != oncrpc::BUDGET_CALL_HEADER_BYTES)
    }));
    let (record, mut reply) = (c.onc_record.clone(), MarshalBuf::new());
    cells.push(replay("runtime.oncrpc.accept_call_ns", move |ops| {
        let mut failed = 0;
        for _ in 0..ops {
            failed +=
                u64::from(oncrpc::accept_call(black_box(&record), PROG, VERS, &mut reply).is_err());
        }
        failed
    }));
    let (record, mut out) = (c.onc_record.clone(), MarshalBuf::new());
    cells.push(replay("runtime.oncrpc.frame_record_ns", move |ops| {
        for _ in 0..ops {
            out.clear();
            oncrpc::frame_record_into(black_box(&record), &mut out);
        }
        u64::from(out.len() != record.len() + 4)
    }));
    let framed = c.onc_framed.clone();
    cells.push(replay("runtime.oncrpc.scan_record_ns", move |ops| {
        let mut failed = 0;
        for _ in 0..ops {
            let scan = oncrpc::scan_record_limited(black_box(&framed), oncrpc::MAX_RECORD_BYTES);
            failed += u64::from(!matches!(scan, Ok(oncrpc::RecordScan::Complete(..))));
        }
        failed
    }));
    let onc_reply = c.onc_reply.clone();
    cells.push(replay("runtime.oncrpc.read_reply_verdict_ns", move |ops| {
        let mut failed = 0;
        for _ in 0..ops {
            let verdict = oncrpc::read_reply_verdict(&mut MsgReader::new(black_box(&onc_reply)));
            failed += u64::from(!matches!(verdict, Ok((7, oncrpc::ReplyVerdict::Success))));
        }
        failed
    }));

    let order = ByteOrder::native();
    let mut buf = MarshalBuf::new();
    cells.push(replay("runtime.giop.put_request_header_ns", move |ops| {
        let _budget = deadline::stamp_outbound(BUDGET);
        for _ in 0..ops {
            buf.clear();
            let at = giop::begin_message(&mut buf, order, MsgType::Request);
            let cdr = CdrOut::begin(&buf, order);
            giop::put_request_header(&mut buf, &cdr, 7, true, b"bench-object", "send_ints");
            giop::finish_message(&mut buf, at, order);
        }
        u64::from(black_box(buf.len()) == 0)
    }));
    let request = c.giop_request.clone();
    cells.push(replay("runtime.giop.get_request_header_ns", move |ops| {
        let mut failed = 0;
        for _ in 0..ops {
            let mut r = MsgReader::new(black_box(&request));
            let ok = giop::read_header(&mut r).is_ok_and(|h| {
                let cdr = CdrIn::begin(&r, h.order);
                giop::get_request_header_ref(&mut r, &cdr).is_ok_and(|req| req.request_id == 7)
            });
            failed += u64::from(!ok);
        }
        failed
    }));
    let mut buf = MarshalBuf::new();
    cells.push(replay("runtime.giop.reply_header_ns", move |ops| {
        let mut failed = 0;
        for _ in 0..ops {
            buf.clear();
            let at = giop::begin_message(&mut buf, order, MsgType::Reply);
            let cdr = CdrOut::begin(&buf, order);
            giop::put_reply_header(&mut buf, &cdr, 7, ReplyStatus::NoException);
            giop::finish_message(&mut buf, at, order);
            let mut r = MsgReader::new(black_box(buf.as_slice()));
            let ok = giop::read_header(&mut r).is_ok_and(|h| {
                let cdr = CdrIn::begin(&r, h.order);
                giop::get_reply_header(&mut r, &cdr).is_ok_and(|rh| rh.request_id == 7)
            });
            failed += u64::from(!ok);
        }
        failed
    }));

    // Demultiplexing: the generated dispatchers over the four small
    // bodies in turn (decode and the no-op handler ride along).
    let (bodies, mut reply) = (c.onc_bodies.clone(), MarshalBuf::new());
    let mut srv = OncSrv::<false> {
        seen: Seen::default(),
    };
    let mut turn = 0usize;
    cells.push(replay("stubs.onc.dispatch_ns", move |ops| {
        let mut failed = 0;
        for _ in 0..ops {
            turn = (turn + 1) % 4;
            reply.clear();
            let proc_num = turn as u32 + 1;
            failed += u64::from(
                onc_bench::dispatch(proc_num, black_box(&bodies[turn]), &mut reply, &mut srv)
                    .is_err(),
            );
        }
        failed
    }));
    let (bodies, mut reply) = (c.cdr_bodies.clone(), MarshalBuf::new());
    let mut srv = IiopSrv::<false> {
        seen: Seen::default(),
    };
    let mut turn = 0usize;
    cells.push(replay("stubs.iiop.dispatch_by_name_ns", move |ops| {
        let mut failed = 0;
        for _ in 0..ops {
            turn = (turn + 1) % 4;
            reply.clear();
            let (op, body) = &bodies[turn];
            failed += u64::from(
                iiop_bench::dispatch_by_name(op.as_bytes(), black_box(body), &mut reply, &mut srv)
                    .is_err(),
            );
        }
        failed
    }));

    // Transports: one message in, the same message out.
    let (a, b) = stream_pair();
    let (small, mut rx) = (c.onc_framed.clone(), MarshalBuf::new());
    cells.push(replay("transport.stream.small_ns", move |ops| {
        let mut failed = 0;
        for _ in 0..ops {
            rx.clear();
            a.try_write(black_box(&small));
            b.read_available(&mut rx, usize::MAX);
            failed += u64::from(rx.len() != small.len());
        }
        failed
    }));
    let (a, b) = stream_pair();
    let (bulk, mut rx) = (vec![0x5au8; rpc::BULK_BYTES], MarshalBuf::new());
    cells.push(replay("transport.stream.bulk_ns", move |ops| {
        let mut failed = 0;
        for _ in 0..ops {
            rx.clear();
            a.try_write(black_box(&bulk));
            b.read_available(&mut rx, usize::MAX);
            failed += u64::from(rx.len() != bulk.len());
        }
        failed
    }));
    let (a, b) = datagram_pair(DEFAULT_MAX_DATAGRAM);
    let small = c.onc_record.clone();
    cells.push(replay("transport.datagram.small_ns", move |ops| {
        let mut failed = 0;
        for _ in 0..ops {
            let sent = a.send(black_box(&small)).is_ok();
            let got = b.recv_timeout(Duration::ZERO);
            failed += u64::from(
                !sent || !matches!(got, flick_transport::chan::Recv::Msg(m) if m.len() == small.len()),
            );
        }
        failed
    }));

    // Generated transcoders, fused and naive, interleaved by the
    // round-robin so their ratio sees the same host.
    for (label, naive) in [("fused", false), ("naive", true)] {
        let (bodies, mut dst) = (c.onc_bodies.clone(), MarshalBuf::new());
        let mut turn = 0usize;
        cells.push(replay(&format!("transcode.request.{label}"), move |ops| {
            let mut failed = 0;
            for _ in 0..ops {
                turn = (turn + 1) % 4;
                dst.clear();
                let op = &transcode_bench::BRIDGE_OPS[turn];
                let f = if naive { op.request_naive } else { op.request };
                failed += u64::from(f(black_box(&bodies[turn]), &mut dst).is_err());
            }
            failed
        }));
        let (bodies, mut dst) = (c.cdr_replies.clone(), MarshalBuf::new());
        let mut turn = 0usize;
        cells.push(replay(&format!("transcode.reply.{label}"), move |ops| {
            let mut failed = 0;
            for _ in 0..ops {
                turn = (turn + 1) % 4;
                dst.clear();
                let op = &transcode_bench::BRIDGE_OPS[turn];
                let f = if naive { op.reply_naive } else { op.reply };
                failed += u64::from(f(black_box(&bodies[turn]), &mut dst).is_err());
            }
            failed
        }));
    }
    cells
}

/// Baseline marshalers on the marshal cells' data: marshal + unmarshal
/// through `flick_baselines`, named `<style>.<type>.<size>`.
fn baseline_cells(seed: u64) -> Vec<Box<dyn Cell>> {
    let mut cells = Vec::new();
    for marshal::SizeValues {
        label,
        ints,
        rects,
        dirents,
        ..
    } in marshal::values(seed).0
    {
        let mut m = RpcgenStyle::new();
        let v = ints.clone();
        cells.push(replay(&format!("rpcgen.ints.{label}"), move |ops| {
            let mut failed = 0;
            for _ in 0..ops {
                m.marshal_ints(black_box(&v));
                failed += u64::from(m.unmarshal_ints().len() != v.len());
            }
            failed
        }));
        for style in ["rpcgen", "orbeline"] {
            let mut m: Box<dyn Marshaler> = if style == "rpcgen" {
                Box::new(RpcgenStyle::new())
            } else {
                Box::new(OrbelineStyle::new())
            };
            let v = rects.clone();
            cells.push(replay(&format!("{style}.rects.{label}"), move |ops| {
                let mut failed = 0;
                for _ in 0..ops {
                    m.marshal_rects(black_box(&v));
                    failed += u64::from(m.unmarshal_rects().len() != v.len());
                }
                failed
            }));
            let mut m: Box<dyn Marshaler> = if style == "rpcgen" {
                Box::new(RpcgenStyle::new())
            } else {
                Box::new(OrbelineStyle::new())
            };
            let v = dirents.clone();
            cells.push(replay(&format!("{style}.dirents.{label}"), move |ops| {
                let mut failed = 0;
                for _ in 0..ops {
                    m.marshal_dirents(black_box(&v));
                    failed += u64::from(m.unmarshal_dirents().len() != v.len());
                }
                failed
            }));
        }
    }
    cells
}

/// What the threaded diagnostic saw, raw.
struct Threaded {
    calls_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    failed: u64,
    attempted: u64,
}

/// `Fabric::serve` with one worker on its own thread, the fan-in client
/// on this one, for `seconds`.
fn threaded(seed: u64, seconds: f64) -> Threaded {
    let (listener, connector) = listen(64 * 1024);
    let fabric = Fabric::new(Limits::tight()).workers(1);
    let seen = Seen::default();
    let server = std::thread::spawn(move || {
        fabric.serve(FabricAcceptor::new(
            listener,
            Framing::OncRecord,
            move || rpc::onc_handler::<false>(seen.clone()),
        ))
    });
    let mut client = fanin::FaninCell::<false>::dialed(seed, &connector);
    let started = Instant::now();
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut own = Vec::new();
    while started.elapsed().as_secs_f64() < seconds {
        failed += client.run(fanin::UNIT).failed;
        attempted += fanin::UNIT as u64;
        own.clear();
        client.batch_times(&mut own);
        p50.push(own[0].1);
        p99.push(own[1].1);
    }
    let elapsed = started.elapsed().as_secs_f64();
    drop(client);
    drop(connector);
    let stats = server.join().expect("fabric thread panicked");
    failed += stats.evicted() + stats.shed() + stats.expired();
    Threaded {
        calls_per_s: (attempted - failed.min(attempted)) as f64 / elapsed,
        p50_us: stats::median(&p50) / 1e3,
        p99_us: stats::median(&p99) / 1e3,
        failed,
        attempted,
    }
}

/// Cold compiles of the 48-operation interface — big enough for the
/// compiler to spawn its lowering threads — for `seconds`; returns the
/// raw median nanoseconds and how many compiles were attempted and
/// failed.
fn threaded_compile(seed: u64, seconds: f64) -> (f64, u64, u64) {
    let source = inputs::wide_idl(seed, 0, inputs::WIDE_MT_OPS);
    let started = Instant::now();
    let mut times = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    while attempted < 3 || started.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let out = compile::wide_compiler().compile_source(
            "wide48.idl",
            &source,
            "Wide",
            flick_pres::Side::Server,
        );
        times.push(t.elapsed().as_nanos() as f64);
        attempted += 1;
        failed += u64::from(!out.is_ok_and(|o| o.presc.stubs.len() == inputs::WIDE_MT_OPS));
    }
    (stats::median(&times), attempted, failed)
}

fn clock_ns() -> f64 {
    const N: usize = 20_000;
    let t = Instant::now();
    for _ in 0..N {
        black_box(Instant::now());
    }
    t.elapsed().as_nanos() as f64 / N as f64
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Geometric mean of the positive values of `f` over `cells`.
fn geo(cells: &[&CellTimes], f: impl Fn(&CellTimes) -> f64) -> f64 {
    let v: Vec<f64> = cells.iter().map(|c| f(c)).filter(|&x| x > 0.0).collect();
    if v.is_empty() {
        0.0
    } else {
        stats::geomean(&v)
    }
}

fn with_prefix<'a>(run: &'a WorkloadRun, prefix: &str) -> Vec<&'a CellTimes> {
    run.cells
        .iter()
        .filter(|c| c.name.starts_with(prefix))
        .collect()
}

fn all(run: &WorkloadRun) -> Vec<&CellTimes> {
    run.cells.iter().collect()
}

fn self_of(name: Name) -> impl Fn(&CellTimes) -> f64 {
    move |c| c.self_ns[name as usize]
}

fn self_sum(c: &CellTimes) -> f64 {
    c.self_ns.iter().sum()
}

fn sum_diag(run: &WorkloadRun, name: &str) -> f64 {
    run.cells.iter().filter_map(|c| c.diagnostic(name)).sum()
}

fn mean_diag(run: &WorkloadRun, name: &str) -> f64 {
    let n = run
        .cells
        .iter()
        .filter(|c| c.diagnostic(name).is_some())
        .count();
    sum_diag(run, name) / n.max(1) as f64
}

/// Fills the ledger: a traced run of every workload plus the replay
/// and side rows, in `seconds` overall, reporting harness rows for
/// workload `named`.
///
/// # Panics
/// When a part produces no row the metric table declares — a bug in
/// the ledger, not a measurement.
#[must_use]
pub fn fill(named: &str, seed: u64, seconds: f64) -> Ledger {
    let mut tally = Tally::default();
    let overhead = trace::calibrate();
    let clock = clock_ns();

    // The workload this run is for, untraced, then every workload
    // with the span-recording rigs.
    let untraced = run::run_passes(named, seed, seconds * share::UNTRACED, None, Depth::Full);
    let mut traced: Vec<WorkloadRun> = Vec::new();
    let mut spans = Vec::new();
    for w in &workloads::ALL {
        trace::install();
        traced.push(run::run_passes(
            w.name,
            seed,
            seconds * share::TRACED,
            Some(overhead),
            Depth::TimedOnly,
        ));
        let (kept, _dropped) = trace::uninstall();
        spans.push((w.name.to_string(), kept));
    }
    for r in traced.iter().chain([&untraced]) {
        tally.attempted += r.attempted;
        tally.failed += r.failed;
        tally
            .failures
            .extend(r.failures.iter().map(|f| format!("{}/{f}", r.name)));
    }
    let of = |name: &str| {
        traced
            .iter()
            .find(|r| r.name == name)
            .expect("every workload was traced")
    };
    let (small, bulk, fan, bridge, compile) = (
        of("rpc_small"),
        of("rpc_bulk"),
        of("fanin"),
        of("bridge"),
        of("compile"),
    );

    // Stub halves, replay rows, baselines.
    let mut halves = marshal::cells(seed, Half::Encode, ".encode_ns");
    halves.extend(marshal::cells(seed, Half::Decode, ".decode_ns"));
    let stubs = measure(halves, seed, seconds * share::STUBS, &mut tally);
    let captured = capture(seed);
    let replays = measure(
        replay_cells(&captured),
        seed,
        seconds * share::REPLAY,
        &mut tally,
    );
    let mut versus = marshal::cells(seed, Half::Both, "");
    versus.extend(baseline_cells(seed));
    let versus = measure(versus, seed, seconds * share::BASELINES, &mut tally);
    let mt = threaded(seed, seconds * share::THREADED);
    let (wide48_ns, wide48_attempted, wide48_failed) =
        threaded_compile(seed, seconds * share::THREADED_COMPILE);
    tally.attempted += mt.attempted + wide48_attempted;
    tally.failed += mt.failed + wide48_failed;

    let row = |rows: &[CellTimes], name: &str| {
        rows.iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("no row `{name}`"))
            .ns_per_op
    };
    let speedup = |style: &str, flick: &str| {
        let ratios: Vec<f64> = versus
            .iter()
            .filter_map(|c| {
                let cell = c.name.strip_prefix(style)?;
                Some(c.ns_per_op / row(&versus, &format!("{flick}{cell}")))
            })
            .collect();
        stats::geomean(&ratios)
    };
    let transcode = |leg: &str, label: &str| row(&replays, &format!("transcode.{leg}.{label}"));

    // Harness rows describe the workload this run is for.
    let named_traced = of(named);
    let accounted = if named == "marshal" {
        // No spans inside a stub call: the two halves, timed alone,
        // are what accounts for the whole.
        let shares: Vec<f64> = untraced
            .cells
            .iter()
            .map(|c| {
                let half = |h: &str| row(&stubs, &format!("{}.{h}_ns", c.name));
                (half("encode") + half("decode")) / c.ns_per_op
            })
            .collect();
        stats::geomean(&shares)
    } else {
        let shares: Vec<f64> = untraced
            .cells
            .iter()
            .zip(&named_traced.cells)
            .map(|(plain, spanned)| self_sum(spanned) / plain.ns_per_op)
            .collect();
        stats::geomean(&shares)
    };

    let mut values: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| values.push((name.to_string(), value));
    for c in &stubs {
        put(&format!("stubs.{}", c.name), c.ns_per_op);
    }
    put(
        "stubs.onc.dispatch_ns",
        row(&replays, "stubs.onc.dispatch_ns"),
    );
    put(
        "stubs.iiop.dispatch_by_name_ns",
        row(&replays, "stubs.iiop.dispatch_by_name_ns"),
    );
    put("baselines.rpcgen.speedup_geomean", speedup("rpcgen", "onc"));
    put(
        "baselines.orbeline.speedup_geomean",
        speedup("orbeline", "iiop"),
    );
    for c in replays.iter().filter(|c| c.name.starts_with("runtime.")) {
        put(&c.name, c.ns_per_op);
    }
    put(
        "runtime.context.blob_bytes",
        (captured.onc_header.0 - captured.onc_header.1) as f64,
    );
    for t in ["onc_stream", "onc_dgram", "giop"] {
        put(
            &format!("rpc.small.{t}.call_ns"),
            geo(&with_prefix(small, t), self_sum),
        );
    }
    for t in ["onc_stream", "giop"] {
        put(
            &format!("rpc.bulk.{t}.call_ns"),
            geo(&with_prefix(bulk, t), self_sum),
        );
    }
    for t in ["onc_stream", "onc_dgram", "giop"] {
        let cells = with_prefix(small, t);
        let sum: f64 = cells
            .iter()
            .filter_map(|c| c.diagnostic("header_bytes"))
            .sum();
        put(
            &format!("rpc.small.{t}.header_bytes"),
            sum / cells.len().max(1) as f64,
        );
    }
    put(
        "rpc.client_encode_ns",
        geo(&all(small), self_of(Name::ClientEncode)),
    );
    put(
        "rpc.client_decode_ns",
        geo(&all(small), self_of(Name::ClientDecode)),
    );
    put(
        "rpc.server_handle_self_ns",
        geo(&all(small), self_of(Name::ServerHandle)),
    );
    put(
        "rpc.handler_work_ns",
        geo(&all(small), self_of(Name::HandlerWork)),
    );
    put(
        "transport.stream.small_ns",
        row(&replays, "transport.stream.small_ns"),
    );
    put(
        "transport.stream.bulk_ns_per_kib",
        row(&replays, "transport.stream.bulk_ns") / (rpc::BULK_BYTES / 1024) as f64,
    );
    put(
        "transport.datagram.small_ns",
        row(&replays, "transport.datagram.small_ns"),
    );
    put("fabric.pump_self_ns", geo(&all(fan), self_of(Name::Pump)));
    put("fabric.pumps_per_call", mean_diag(fan, "pumps_per_call"));
    put(
        "fabric.replies_per_read",
        mean_diag(fan, "replies_per_read"),
    );
    put(
        "fabric.call_p99_us",
        geo(&all(fan), |c| c.extra(P99).unwrap_or(0.0)) / 1e3,
    );
    put("fabric.shed_share", mean_diag(fan, "shed_share"));
    put("fabric.expired_share", mean_diag(fan, "expired_share"));
    put("fabric.mt.calls_per_s", mt.calls_per_s);
    put("fabric.mt.call_p50_us", mt.p50_us);
    put("fabric.mt.call_p99_us", mt.p99_us);
    put(
        "bridge.handle_record_self_ns",
        geo(&all(bridge), self_of(Name::ServerHandle)),
    );
    put(
        "bridge.upstream_ns",
        geo(&all(bridge), |c| {
            c.self_ns[Name::Upstream as usize] + c.self_ns[Name::HandlerWork as usize]
        }),
    );
    put(
        "bridge.supervisor_ns",
        geo(&all(bridge), self_of(Name::Supervisor)),
    );
    put("transcode.request_ns", transcode("request", "fused"));
    put("transcode.reply_ns", transcode("reply", "fused"));
    put(
        "transcode.fused_speedup",
        (transcode("request", "naive") + transcode("reply", "naive"))
            / (transcode("request", "fused") + transcode("reply", "fused")),
    );
    put("bridge.fallback_share", mean_diag(bridge, "fallback_share"));
    put("bridge.rejected_share", mean_diag(bridge, "rejected_share"));
    for cell in ["cold.corpus", "cold.wide", "warm.edit1"] {
        put(
            &format!("compile.{cell}_ns"),
            geo(&with_prefix(compile, cell), |c| c.ns_per_op),
        );
    }
    let wide = with_prefix(compile, "cold.wide");
    for phase in ["parse", "presgen", "plan", "emit_rust", "emit_c"] {
        let key = format!("{phase}_ns");
        put(
            &format!("compile.{key}"),
            geo(&wide, |c| c.extra(&key).unwrap_or(0.0)),
        );
    }
    put("compile.mt.wide48_ns", wide48_ns);
    put(
        "compile.cache.hit_share",
        mean_diag(compile, "cache.hit_share"),
    );
    put(
        "compile.gen.rust_bytes",
        mean_diag(compile, "gen.rust_bytes"),
    );
    put("compile.gen.c_bytes", mean_diag(compile, "gen.c_bytes"));
    for pass in flick::PASS_NAMES {
        put(
            &format!("backend.pass.{pass}.decisions"),
            // Over the nine corpus modules and the wide interface.
            sum_diag(compile, &format!("pass.{pass}.decisions")),
        );
    }
    put("alloc.bytes_per_op", untraced.counts.alloc_bytes_per_op);
    put("peak_rss_mb", peak_rss_mb());
    put("host.ref_ns", untraced.host.ref_ns);
    put("host.ref_spread", untraced.host.ref_spread);
    put("host.clock_ns", clock);
    put("raw.ops_per_s", untraced.raw_ops_per_s);
    put(
        "trace.overhead_share",
        1.0 - named_traced.e2e.ops_per_s / untraced.e2e.ops_per_s,
    );
    put("trace.accounted_share", accounted);

    // Report in the declared order, with the declared units.
    let values = metrics::per_layer()
        .into_iter()
        .map(|d| {
            let value = values
                .iter()
                .find(|(name, _)| *name == d.name)
                .unwrap_or_else(|| panic!("the ledger has no `{}`", d.name))
                .1;
            (d.name, value, d.unit)
        })
        .collect();
    tally.failures.truncate(32);
    Ledger {
        values,
        spans,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        disturbed: untraced.host.disturbed(),
    }
}
