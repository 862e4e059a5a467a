//! `overload_soak` — the chaos lane for the overload-safe serving
//! stack: sustained 2x overload against a fabric with admission
//! control, wire deadlines on every call, a seeded corrupting
//! [`FaultPlan`], and a flapping upstream behind the circuit-breaking
//! [`Supervisor`].
//!
//! ```text
//! overload_soak [--clients N] [--calls N] [--seed N] [--json PATH] [--check]
//! ```
//!
//! Two phases, each a fabric serving real connections:
//!
//! 1. **Overload**: N pipelined clients push twice the fabric's
//!    `max_inflight_total` at a deliberately slow service.  Every call
//!    carries a propagated deadline; every 8th is "poison" (a budget
//!    already spent on arrival).  The phase proves sheds happen, shed
//!    *reject latency* stays bounded (p99), every poison call is
//!    refused before the handler sees it, and steady-state memory
//!    stays inside the allocwatch bound.
//! 2. **Breaker**: a fabric-hosted transcoding bridge whose GIOP
//!    upstream flaps dead mid-run.  A seeded bit-flipping link keeps
//!    hostile bytes flowing the whole time.  The phase proves the
//!    breaker opens (fast-fails instead of hammering), then heals
//!    through a half-open probe without any restart.
//!
//! `--json PATH` writes `BENCH_overload.json`; `--check` exits
//! nonzero unless every proof obligation above holds.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use flick_bench::allocwatch;
use flick_bench::data;
use flick_bench::generated::{iiop_bench, onc_bench, transcode_bench};
use flick_runtime::bridge::{
    BreakerPolicy, Bridge, BridgeCounters, Supervisor, SupervisorStats, UpstreamLink,
};
use flick_runtime::cdr::ByteOrder;
use flick_runtime::fabric::{BridgeHandler, Fabric, FrameHandler, FrameId, Framing, ReplySink};
use flick_runtime::limits::Limits;
use flick_runtime::oncrpc::{self, CallHeader, ReplyOutcome, ReplyVerdict};
use flick_runtime::{deadline, MarshalBuf, MsgReader};
use flick_telemetry::Histogram;
use flick_transport::fault::{FaultConfig, FaultPlan};
use flick_transport::listener::{listen, FabricAcceptor};
use flick_transport::stream::{read_record, write_record};

#[global_allocator]
static ALLOC: allocwatch::PeakAlloc = allocwatch::PeakAlloc;

/// Phase-1 program number (the slow service ignores it; the records
/// still carry a plausible header).
const SOAK_PROG: u32 = 0x5afe_0001;

/// Simulated per-call service time of the slow server.
const SERVICE: Duration = Duration::from_micros(30);

// ---------------------------------------------------------------- phase 1

/// A deliberately slow fabric service: each admitted call is held for
/// [`SERVICE`] of serialized virtual service time, then answered
/// `Success`.  Arrival-expired calls reaching the handler are the bug
/// this soak exists to rule out; they are counted and answered
/// `SystemErr` defensively.
struct SlowService {
    held: Vec<(FrameId, u32, Instant)>,
    next_free: Instant,
    arrival_expired: Arc<AtomicU64>,
    scratch: MarshalBuf,
}

impl SlowService {
    fn new(arrival_expired: Arc<AtomicU64>) -> Self {
        SlowService {
            held: Vec::new(),
            next_free: Instant::now(),
            arrival_expired,
            scratch: MarshalBuf::new(),
        }
    }
}

impl FrameHandler for SlowService {
    fn on_frame(&mut self, id: FrameId, frame: &[u8], sink: &mut ReplySink) {
        let Some(peek) = oncrpc::peek_call(frame) else {
            sink.silent(id);
            return;
        };
        if peek.context.budget_ns == Some(0) {
            // The fabric's admission gate must have refused this
            // already; reaching here is the violation the soak hunts.
            self.arrival_expired.fetch_add(1, Ordering::Relaxed);
            self.scratch.clear();
            oncrpc::write_reply(&mut self.scratch, peek.xid, ReplyOutcome::SystemErr);
            sink.reply(id, self.scratch.as_slice());
            return;
        }
        let now = Instant::now();
        self.next_free = self.next_free.max(now) + SERVICE;
        self.held.push((id, peek.xid, self.next_free));
    }

    fn poll(&mut self, sink: &mut ReplySink) {
        let now = Instant::now();
        let scratch = &mut self.scratch;
        self.held.retain(|&(id, xid, due)| {
            if due > now {
                return true;
            }
            scratch.clear();
            oncrpc::write_reply(scratch, xid, ReplyOutcome::Success);
            sink.reply(id, scratch.as_slice());
            false
        });
    }
}

/// One phase-1 client's tallies.
#[derive(Clone, Copy, Debug, Default)]
struct ClientTally {
    ok: u64,
    shed: u64,
    expired_refused: u64,
    violations: u64,
}

fn soak_record(xid: u32, poison: bool) -> Vec<u8> {
    let budget = if poison {
        Duration::ZERO
    } else {
        Duration::from_secs(30)
    };
    let _g = deadline::stamp_outbound(budget);
    let mut b = MarshalBuf::new();
    CallHeader {
        xid,
        prog: SOAK_PROG,
        vers: 1,
        proc: 1,
    }
    .write(&mut b);
    b.into_vec()
}

/// Drives one pipelined client: keeps up to `depth` calls in flight,
/// classifies every reply, and records shed reject latency.
fn drive_soak_client(
    conn: &flick_transport::stream::StreamEnd,
    base_xid: u32,
    calls: u32,
    depth: usize,
    shed_hist: &Histogram,
) -> ClientTally {
    let mut tally = ClientTally::default();
    let mut inflight: HashMap<u32, (Instant, bool)> = HashMap::with_capacity(depth);
    let mut sent = 0u32;
    while sent < calls || !inflight.is_empty() {
        while sent < calls && inflight.len() < depth {
            let xid = base_xid + sent;
            let poison = sent % 8 == 7;
            let rec = soak_record(xid, poison);
            inflight.insert(xid, (Instant::now(), poison));
            write_record(conn, &rec);
            sent += 1;
        }
        let rep = read_record(conn).expect("fabric closed mid-soak");
        let mut r = MsgReader::new(&rep);
        let (xid, verdict) = oncrpc::read_reply_verdict(&mut r).expect("soak reply parses");
        let (at, poison) = inflight.remove(&xid).expect("reply matches a call");
        match verdict {
            ReplyVerdict::Success => {
                tally.ok += 1;
                if poison {
                    // A spent budget completed as Success: the exact
                    // deadline violation the stack must rule out.
                    tally.violations += 1;
                }
            }
            ReplyVerdict::ProgUnavail => {
                tally.shed += 1;
                let ns = u64::try_from(at.elapsed().as_nanos()).unwrap_or(u64::MAX);
                shed_hist.record(ns);
            }
            ReplyVerdict::SystemErr => {
                tally.expired_refused += 1;
                if !poison {
                    tally.violations += 1;
                }
            }
            other => panic!("unexpected soak verdict {other:?}"),
        }
    }
    tally
}

struct OverloadOutcome {
    clients: usize,
    calls_total: u64,
    ok: u64,
    shed: u64,
    expired_refused: u64,
    violations: u64,
    arrival_expired: u64,
    fabric_shed: u64,
    fabric_expired: u64,
    shed_p50_ns: u64,
    shed_p99_ns: u64,
    peak_alloc: usize,
    alloc_bound: usize,
    wall: Duration,
}

fn run_overload(clients: usize, calls_per_client: u32) -> OverloadOutcome {
    let limits = Limits {
        max_frame_bytes: 64 * 1024,
        max_pipeline: 8,
        reply_buf_bytes: 64 * 1024,
        read_chunk_bytes: 16 * 1024,
        max_inflight_total: 64,
        shed_threshold: 32,
    };
    // Demand: clients x pipeline depth = 2x the fabric's hard cap.
    let depth = (2 * limits.max_inflight_total / clients).max(1);
    let link_cap = usize::MAX;

    let arrival_expired = Arc::new(AtomicU64::new(0));
    let (listener, connector) = listen(link_cap);
    let fabric = Fabric::new(limits).workers(2);
    let controller = fabric.controller();
    let server = std::thread::spawn({
        let arrival_expired = arrival_expired.clone();
        move || {
            fabric.serve(FabricAcceptor::new(
                listener,
                Framing::OncRecord,
                move || {
                    Box::new(SlowService::new(arrival_expired.clone())) as Box<dyn FrameHandler>
                },
            ))
        }
    });

    let conns: Vec<_> = (0..clients).map(|_| connector.connect()).collect();
    let shed_hist = Histogram::new();

    let live = allocwatch::live();
    allocwatch::reset_peak();
    let t0 = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let shed_hist = &shed_hist;
        let handles: Vec<_> = conns
            .iter()
            .enumerate()
            .map(|(i, conn)| {
                scope.spawn(move || {
                    drive_soak_client(conn, (i as u32) << 16, calls_per_client, depth, shed_hist)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("soak client panicked"))
            .collect()
    });
    let wall = t0.elapsed();
    let peak_alloc = allocwatch::peak_delta(live);

    controller.shutdown(Duration::from_secs(1));
    drop(connector);
    drop(conns);
    let stats = server.join().expect("fabric panicked");

    let snap = shed_hist.snapshot();
    let sum = |f: fn(&ClientTally) -> u64| tallies.iter().map(f).sum::<u64>();
    OverloadOutcome {
        clients,
        calls_total: u64::from(calls_per_client) * clients as u64,
        ok: sum(|t| t.ok),
        shed: sum(|t| t.shed),
        expired_refused: sum(|t| t.expired_refused),
        violations: sum(|t| t.violations),
        arrival_expired: arrival_expired.load(Ordering::Relaxed),
        fabric_shed: stats.shed(),
        fabric_expired: stats.expired(),
        shed_p50_ns: snap.percentile(0.50),
        shed_p99_ns: snap.percentile(0.99),
        peak_alloc,
        // Per-connection buffers for every client, both pipe
        // directions' chunks, plus fixed slack for client-side
        // bookkeeping (reply Vecs, xid maps, the histogram).
        alloc_bound: clients * limits.per_conn_buffer_bound() + 8 * 1024 * 1024,
        wall,
    }
}

// ---------------------------------------------------------------- phase 2

/// Delegates to the wrapped bridge handler and flushes its counters
/// and the supervisor's breaker stats when the fabric settles the
/// connection.
struct BreakerMetered<F: UpstreamLink + Send> {
    inner: BridgeHandler<Supervisor<F>>,
    out: Arc<Mutex<(BridgeCounters, SupervisorStats)>>,
}

impl<F: UpstreamLink + Send> FrameHandler for BreakerMetered<F> {
    fn on_frame(&mut self, id: FrameId, frame: &[u8], sink: &mut ReplySink) {
        self.inner.on_frame(id, frame, sink);
    }
}

impl<F: UpstreamLink + Send> Drop for BreakerMetered<F> {
    fn drop(&mut self) {
        *self.out.lock().expect("breaker stats lock poisoned") =
            (self.inner.counters(), self.inner.upstream().stats());
    }
}

struct BreakerSrv;

impl iiop_bench::Server for BreakerSrv {
    fn send_ints(&mut self, _vals: Vec<i32>) {}
    fn send_rects(&mut self, _rects: Vec<iiop_bench::Rect>) {}
    fn send_dirents(&mut self, _entries: Vec<iiop_bench::Dirent>) {}
    fn echo_stat(&mut self, s: iiop_bench::Stat) -> iiop_bench::Stat {
        s
    }
}

fn echo_record(xid: u32) -> Vec<u8> {
    let _g = deadline::stamp_outbound(Duration::from_secs(30));
    let mut b = MarshalBuf::new();
    CallHeader {
        xid,
        prog: transcode_bench::PROGRAM,
        vers: transcode_bench::VERSION,
        proc: 4,
    }
    .write(&mut b);
    onc_bench::encode_echo_stat_request(&mut b, &data::onc::stat());
    b.into_vec()
}

/// Like [`echo_record`], but with the argument bytes run through the
/// corrupting plan.  Only the args are exposed to flips: a synchronous
/// caller needs every record to stay *answerable* (a flipped
/// message-type word would be dropped silently per RFC 1831), and the
/// header-corruption paths already have their own async lane
/// (`flick_bridge --hostile`).
fn chaos_record(xid: u32, plan: &mut FaultPlan<Vec<u8>>) -> Vec<u8> {
    let mut rec = {
        let _g = deadline::stamp_outbound(Duration::from_secs(30));
        let mut b = MarshalBuf::new();
        CallHeader {
            xid,
            prog: transcode_bench::PROGRAM,
            vers: transcode_bench::VERSION,
            proc: 4,
        }
        .write(&mut b);
        b.into_vec()
    };
    let mut args = MarshalBuf::new();
    onc_bench::encode_echo_stat_request(&mut args, &data::onc::stat());
    let mut mutated = plan.apply(args.into_vec());
    // A flip-only plan passes exactly one message through.
    rec.extend_from_slice(&mutated.pop().expect("flip-only plan keeps the message"));
    rec
}

struct BreakerOutcome {
    chaos_calls: u64,
    chaos_ok: u64,
    chaos_rejected: u64,
    chaos_injected: u64,
    dead_calls: u64,
    dead_ok: u64,
    calls_to_recover: u64,
    post_recovery_ok: u64,
    opened: u64,
    closed: u64,
    fast_failed: u64,
}

fn run_breaker(seed: u64) -> BreakerOutcome {
    let order = if transcode_bench::DST_LITTLE_ENDIAN {
        ByteOrder::Little
    } else {
        ByteOrder::Big
    };
    let alive = Arc::new(AtomicBool::new(true));
    let flushed: Arc<Mutex<(BridgeCounters, SupervisorStats)>> = Arc::default();

    let (listener, connector) = listen(usize::MAX);
    let fabric = Fabric::new(Limits::default()).workers(1);
    let controller = fabric.controller();
    let make = {
        let alive = alive.clone();
        let flushed = flushed.clone();
        move || -> Box<dyn FrameHandler> {
            let bridge = Bridge::new(
                transcode_bench::BRIDGE_OPS,
                transcode_bench::PROGRAM,
                transcode_bench::VERSION,
                b"bench-object",
                order,
                false,
            );
            let mut srv = BreakerSrv;
            let alive = alive.clone();
            let upstream = Supervisor::new(
                move |msg: &[u8]| {
                    if !alive.load(Ordering::Acquire) {
                        return None;
                    }
                    let mut giop_reply = MarshalBuf::new();
                    iiop_bench::handle_message(msg, &mut giop_reply, &mut srv)
                        .then(|| giop_reply.as_slice().to_vec())
                },
                BreakerPolicy {
                    failure_threshold: 3,
                    backoff: Duration::from_millis(5),
                    backoff_cap: Duration::from_millis(50),
                    retry_budget: 1,
                    seed,
                },
            );
            Box::new(BreakerMetered {
                inner: BridgeHandler::new(bridge, upstream),
                out: flushed.clone(),
            })
        }
    };
    // The bridge faces its clients over ONC record framing; the GIOP
    // leg lives inside the supervised upstream closure.
    let server = std::thread::spawn(move || {
        fabric.serve(FabricAcceptor::new(listener, Framing::OncRecord, make))
    });

    let conn = connector.connect();
    // One synchronous call: write (possibly corrupted) record, read
    // the one reply it is guaranteed (bit flips preserve length, so
    // the gateway can always answer).
    let call = |rec: Vec<u8>| -> ReplyVerdict {
        write_record(&conn, &rec);
        let rep = read_record(&conn).expect("bridge closed mid-soak");
        let mut r = MsgReader::new(&rep);
        let (_, verdict) = oncrpc::read_reply_verdict(&mut r).expect("bridge reply parses");
        verdict
    };

    // Stage 1 — chaos: hostile bytes (seeded single-bit flips) flow
    // through the healthy gateway; it rejects, never crashes.
    let mut plan: FaultPlan<Vec<u8>> = FaultPlan::new(FaultConfig::corrupting(seed, 0, 100));
    let chaos_calls = 200u64;
    let (mut chaos_ok, mut chaos_rejected) = (0u64, 0u64);
    for i in 0..chaos_calls {
        match call(chaos_record(0x0c4a_0000 + i as u32, &mut plan)) {
            ReplyVerdict::Success => chaos_ok += 1,
            _ => chaos_rejected += 1,
        }
    }
    let chaos_injected = plan.injected_total();

    // Stage 2 — the upstream dies: after `failure_threshold` real
    // failures the breaker opens and the rest fast-fail.  Nothing may
    // succeed while the upstream is down.
    alive.store(false, Ordering::Release);
    let dead_calls = 50u64;
    let mut dead_ok = 0u64;
    for i in 0..dead_calls {
        if call(echo_record(0xdead_0000 + i as u32)) == ReplyVerdict::Success {
            dead_ok += 1;
        }
    }

    // Stage 3 — the upstream heals: the next half-open probe after the
    // backoff window must close the circuit, with no restart of the
    // fabric, the connection, or the handler.
    alive.store(true, Ordering::Release);
    let mut calls_to_recover = 0u64;
    loop {
        calls_to_recover += 1;
        assert!(
            calls_to_recover <= 400,
            "breaker failed to recover within 400 calls"
        );
        if call(echo_record(0x4eca_0000 + calls_to_recover as u32)) == ReplyVerdict::Success {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut post_recovery_ok = 0u64;
    for i in 0..20u64 {
        if call(echo_record(0x9057_0000 + i as u32)) == ReplyVerdict::Success {
            post_recovery_ok += 1;
        }
    }

    controller.shutdown(Duration::from_secs(1));
    drop(connector);
    drop(conn);
    server.join().expect("fabric panicked");

    let (_counters, sup) = *flushed.lock().expect("breaker stats lock poisoned");
    BreakerOutcome {
        chaos_calls,
        chaos_ok,
        chaos_rejected,
        chaos_injected,
        dead_calls,
        dead_ok,
        calls_to_recover,
        post_recovery_ok,
        opened: sup.opened,
        closed: sup.closed,
        fast_failed: sup.fast_failed,
    }
}

fn main() {
    let mut clients = 16usize;
    let mut calls = 200u32;
    let mut seed = 0x5eed_50a4_u64;
    let mut json_path: Option<String> = None;
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--clients" => {
                clients = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or(clients);
            }
            "--calls" => calls = args.next().and_then(|v| v.parse().ok()).unwrap_or(calls),
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).unwrap_or(seed),
            "--json" => json_path = args.next(),
            "--check" => check = true,
            other => {
                eprintln!(
                    "unknown flag {other}; usage: overload_soak \
                     [--clients N] [--calls N] [--seed N] [--json PATH] [--check]"
                );
                std::process::exit(2);
            }
        }
    }

    println!("overload: {clients} clients x {calls} calls against a 64-in-flight fabric");
    let over = run_overload(clients, calls);
    println!(
        "  {} calls in {:.1?}: ok={} shed={} expired_refused={} (fabric: shed={} expired={})",
        over.calls_total,
        over.wall,
        over.ok,
        over.shed,
        over.expired_refused,
        over.fabric_shed,
        over.fabric_expired
    );
    println!(
        "  shed reject latency p50={:.1}us p99={:.1}us; violations={} handler_saw_expired={}",
        over.shed_p50_ns as f64 / 1000.0,
        over.shed_p99_ns as f64 / 1000.0,
        over.violations,
        over.arrival_expired
    );
    println!(
        "  peak alloc {} KiB (bound {} KiB)",
        over.peak_alloc / 1024,
        over.alloc_bound / 1024
    );

    println!("breaker: flapping upstream behind the supervised bridge (seed {seed})");
    let brk = run_breaker(seed);
    println!(
        "  chaos: {} calls ({} faults injected), ok={} rejected={}; dead: {} calls, ok={}",
        brk.chaos_calls,
        brk.chaos_injected,
        brk.chaos_ok,
        brk.chaos_rejected,
        brk.dead_calls,
        brk.dead_ok
    );
    println!(
        "  breaker opened={} closed={} fast_failed={}; recovered after {} calls, {}/20 ok after",
        brk.opened, brk.closed, brk.fast_failed, brk.calls_to_recover, brk.post_recovery_ok
    );

    if let Some(path) = &json_path {
        let json = format!(
            "{{\"bench\":\"overload\",\"seed\":{seed},\
             \"overload\":{{\"clients\":{},\"calls\":{},\"ok\":{},\"shed\":{},\
             \"expired_refused\":{},\"violations\":{},\"handler_saw_expired\":{},\
             \"shed_p50_us\":{:.3},\"shed_p99_us\":{:.3},\
             \"peak_alloc_bytes\":{},\"alloc_bound_bytes\":{}}},\
             \"breaker\":{{\"chaos_calls\":{},\"chaos_injected\":{},\"chaos_ok\":{},\"chaos_rejected\":{},\
             \"dead_calls\":{},\"dead_ok\":{},\"opened\":{},\"closed\":{},\
             \"fast_failed\":{},\"calls_to_recover\":{},\"post_recovery_ok\":{}}}}}",
            over.clients,
            over.calls_total,
            over.ok,
            over.shed,
            over.expired_refused,
            over.violations,
            over.arrival_expired,
            over.shed_p50_ns as f64 / 1000.0,
            over.shed_p99_ns as f64 / 1000.0,
            over.peak_alloc,
            over.alloc_bound,
            brk.chaos_calls,
            brk.chaos_injected,
            brk.chaos_ok,
            brk.chaos_rejected,
            brk.dead_calls,
            brk.dead_ok,
            brk.opened,
            brk.closed,
            brk.fast_failed,
            brk.calls_to_recover,
            brk.post_recovery_ok,
        );
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("writing {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }

    if check {
        let mut failed = false;
        let mut require = |ok: bool, what: &str| {
            if !ok {
                eprintln!("CHECK FAILED: {what}");
                failed = true;
            }
        };
        let total = over.ok + over.shed + over.expired_refused;
        require(total == over.calls_total, "every overload call answered");
        require(over.shed > 0, "overload actually shed load");
        require(
            over.shed == over.fabric_shed,
            "client-observed sheds match fabric counters",
        );
        require(
            over.expired_refused == over.fabric_expired,
            "client-observed expiries match fabric counters",
        );
        require(over.violations == 0, "no deadline-violating completion");
        require(
            over.arrival_expired == 0,
            "no arrival-expired request reached a handler",
        );
        require(
            over.shed_p99_ns < 250_000_000,
            "shed reject p99 under 250ms at 2x overload",
        );
        require(
            over.peak_alloc < over.alloc_bound,
            "steady-state memory within the allocwatch bound",
        );
        require(brk.chaos_injected > 0, "chaos stage injected hostile bytes");
        require(
            brk.chaos_ok + brk.chaos_rejected == brk.chaos_calls,
            "every chaos call answered",
        );
        require(
            brk.dead_ok == 0,
            "nothing succeeded while the upstream was dead",
        );
        require(brk.opened >= 1, "breaker opened under sustained failure");
        require(
            brk.closed >= 1,
            "breaker closed again after the upstream healed",
        );
        require(
            brk.fast_failed > 0,
            "open breaker fast-failed instead of hammering",
        );
        require(
            brk.post_recovery_ok == 20,
            "service fully restored after recovery, no restart",
        );
        if failed {
            std::process::exit(1);
        }
        println!("CHECK OK: shed, refused, drained, and healed within bounds");
    }
}
