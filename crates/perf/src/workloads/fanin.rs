//! `fanin`: two links, sixteen calls outstanding on each.
//!
//! Pipelining, reply batching (one flush for many records) and the
//! admission gauge only show with a window open.  Each link has its own
//! `ConnDriver` under `Limits::tight()`; the measuring thread steps
//! client, driver, client, driver round-robin.  A batch starts and ends
//! with empty pipelines, so no call's latency spans a reference sample.

use crate::harness::{Cell, RunOut, SetupClock, P50, P99};
use crate::inputs::Rng;
use crate::stats;
use crate::trace::{enter, next_op, Name};
use crate::workloads::rpc::{self, Op, Seen, BUDGET, PROG, VERS};
use flick_runtime::fabric::{ConnDriver, Framing, ReadStatus, WriteStatus};
use flick_runtime::oncrpc::{self, CallHeader, RecordScan, ReplyVerdict};
use flick_runtime::{deadline, Limits, MarshalBuf, MsgReader};
use flick_transport::listener::StreamConnector;
use flick_transport::stream::{stream_pair, StreamEnd};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Links (≤ `nproc`, so the diagnostic threaded run fits the host).
pub const LINKS: usize = 2;
/// Calls outstanding per link.
pub const DEPTH: usize = 16;
/// Calls per count-pass unit and smallest batch.
pub const UNIT: usize = 256;
/// A batch that makes no progress for this long gives up.
const STALL: Duration = Duration::from_secs(2);

struct Link {
    client: StreamEnd,
    /// The link's driver, pumped by this thread — or `None` when a
    /// `Fabric` worker thread serves the other end.
    driver: Option<ConnDriver>,
    seen: Seen,
    req: MarshalBuf,
    pending_out: MarshalBuf,
    rx: MarshalBuf,
    /// `(xid, enqueued)` of calls awaiting their reply.
    inflight: Vec<(u32, Instant)>,
    next_xid: u32,
    /// Where the last request's body starts in `req`.
    body_at: usize,
}

#[derive(Default)]
struct Tally {
    calls: u64,
    pumps: u64,
    reads: u64,
    replies: u64,
    shed: u64,
    expired: u64,
    bytes_out: u64,
}

/// The pipelined fan-in client.
pub struct FaninCell<const ON: bool> {
    op: Op,
    links: Vec<Link>,
    /// Per-call latencies of the batch in flight, raw ns.
    latencies: Vec<f64>,
    tally: Tally,
}

fn seeded_op(seed: u64) -> (Op, u32) {
    let mut rng = Rng::new(seed, 0xfa21);
    let xid = rng.next_u64() as u32 & 0x0fff_ffff;
    let [send_ints, _, _, _] = rpc::onc_ops(&mut rng, rpc::SMALL_INTS, 0, 0);
    (send_ints, xid)
}

impl<const ON: bool> FaninCell<ON> {
    fn over(op: Op, xid_base: u32, ends: Vec<(StreamEnd, Option<ConnDriver>, Seen)>) -> Self {
        let links = ends
            .into_iter()
            .enumerate()
            .map(|(l, (client, driver, seen))| Link {
                client,
                driver,
                seen,
                req: MarshalBuf::new(),
                pending_out: MarshalBuf::new(),
                rx: MarshalBuf::new(),
                inflight: Vec::with_capacity(DEPTH),
                next_xid: xid_base ^ ((l as u32) << 28),
                body_at: 0,
            })
            .collect();
        FaninCell {
            op,
            links,
            latencies: Vec::with_capacity(crate::harness::MAX_BATCH_OPS),
            tally: Tally::default(),
        }
    }

    /// The workload's rig: each link's other end is a `ConnDriver`
    /// this thread pumps.
    fn new(op: Op, xid_base: u32) -> Self {
        let ends = (0..LINKS)
            .map(|_| {
                let seen = Seen::default();
                let (client, server) = stream_pair();
                let driver = ConnDriver::new(
                    Box::new(server),
                    Framing::OncRecord,
                    rpc::onc_handler::<ON>(seen.clone()),
                    Limits::tight(),
                );
                (client, Some(driver), seen)
            })
            .collect();
        Self::over(op, xid_base, ends)
    }

    /// The same client over links dialed through `connector`, whose
    /// other ends a running `Fabric` serves (the `fabric.mt.*`
    /// diagnostic).
    #[must_use]
    pub fn dialed(seed: u64, connector: &StreamConnector) -> Self {
        let (op, xid) = seeded_op(seed);
        let ends = (0..LINKS)
            .map(|_| (connector.connect(), None, Seen::default()))
            .collect();
        Self::over(op, xid, ends)
    }

    /// One client step on link `l`, then one pump of its driver.
    /// Returns the calls completed, or `Err` on a broken link or a
    /// reply that matches nothing.
    fn step(&mut self, l: usize, to_send: &mut usize) -> Result<usize, ()> {
        let link = &mut self.links[l];
        if *to_send > 0 && link.inflight.len() < DEPTH {
            next_op::<ON>();
            let _s = enter::<ON>(Name::ClientEncode);
            let now = Instant::now();
            while *to_send > 0 && link.inflight.len() < DEPTH {
                let xid = link.next_xid;
                link.next_xid = link.next_xid.wrapping_add(1);
                deadline::clear_inbound();
                let _budget = deadline::stamp_outbound(BUDGET);
                link.req.clear();
                CallHeader {
                    xid,
                    prog: PROG,
                    vers: VERS,
                    proc: self.op.proc_num,
                }
                .write(&mut link.req);
                link.body_at = link.req.len();
                (self.op.encode)(&mut link.req);
                oncrpc::frame_record_into(link.req.as_slice(), &mut link.pending_out);
                link.inflight.push((xid, now));
                *to_send -= 1;
            }
        }
        if !link.pending_out.is_empty() {
            let _s = enter::<ON>(Name::TransportWrite);
            match link.client.try_write(link.pending_out.as_slice()) {
                WriteStatus::Wrote(n) => {
                    self.tally.bytes_out += n as u64;
                    link.pending_out.drain_front(n);
                }
                WriteStatus::Full => {}
                WriteStatus::Closed => return Err(()),
            }
        }
        if let Some(driver) = link.driver.as_mut() {
            let _s = enter::<ON>(Name::Pump);
            driver.pump();
            self.tally.pumps += 1;
        }

        let _s = enter::<ON>(Name::TransportRead);
        match link.client.read_available(&mut link.rx, usize::MAX) {
            ReadStatus::Read(n) => {
                self.tally.reads += 1;
                self.tally.bytes_out += n as u64;
            }
            ReadStatus::Empty => return Ok(0),
            ReadStatus::Closed => return Err(()),
        }
        let now = Instant::now();
        let (mut consumed, mut completed) = (0, 0);
        loop {
            let stream = &link.rx.as_slice()[consumed..];
            let (record, used) = match oncrpc::scan_record_limited(stream, oncrpc::MAX_RECORD_BYTES)
            {
                Ok(RecordScan::Complete(record, used)) => (record, used),
                Ok(RecordScan::Partial) => break,
                Ok(RecordScan::Fragmented) | Err(_) => return Err(()),
            };
            let mut r = MsgReader::new(record);
            let (xid, verdict) = oncrpc::read_reply_verdict(&mut r).map_err(|_| ())?;
            let at = link
                .inflight
                .iter()
                .position(|&(x, _)| x == xid)
                .ok_or(())?;
            let (_, enqueued) = link.inflight.swap_remove(at);
            match verdict {
                ReplyVerdict::Success if (self.op.check_reply)(&mut r) => {
                    self.latencies.push((now - enqueued).as_nanos() as f64);
                }
                ReplyVerdict::ProgUnavail => self.tally.shed += 1,
                ReplyVerdict::SystemErr => self.tally.expired += 1,
                _ => return Err(()),
            }
            self.tally.replies += 1;
            completed += 1;
            consumed += used;
        }
        link.rx.drain_front(consumed);
        Ok(completed)
    }
}

impl<const ON: bool> Cell for FaninCell<ON> {
    fn name(&self) -> &str {
        "links2.depth16.send_ints"
    }

    fn payload_bytes(&self) -> u64 {
        self.op.payload
    }

    fn count_unit(&self) -> usize {
        UNIT
    }

    fn run(&mut self, ops: usize) -> RunOut {
        let bytes_before = self.tally.bytes_out;
        self.latencies.clear();
        let mut to_send = [ops / LINKS; LINKS];
        to_send[0] += ops % LINKS;
        let threaded = self.links.iter().any(|l| l.driver.is_none());
        let (mut done, mut broken) = (0, false);
        let mut idle_since: Option<Instant> = None;
        while done < ops && !broken {
            let mut progress = 0;
            for (l, budget) in to_send.iter_mut().enumerate() {
                match self.step(l, budget) {
                    Ok(n) => progress += n,
                    Err(()) => broken = true,
                }
            }
            done += progress;
            if progress > 0 {
                idle_since = None;
                continue;
            }
            let now = Instant::now();
            if now - *idle_since.get_or_insert(now) > STALL {
                break;
            }
            if threaded {
                // The worker on the other thread holds the next move.
                std::thread::yield_now();
            }
        }
        self.tally.calls += ops as u64;
        RunOut {
            failed: (ops - self.latencies.len().min(ops)) as u64,
            bytes_out: self.tally.bytes_out - bytes_before,
        }
    }

    fn verify_last(&mut self) -> Result<(), String> {
        for link in &self.links {
            let body = &link.req.as_slice()[link.body_at..];
            for (who, bytes) in &self.op.body_refs {
                if body != bytes.as_slice() {
                    return Err(format!("request body differs from the {who} reference"));
                }
            }
            if !link.inflight.is_empty() {
                return Err("a pipeline did not drain".to_string());
            }
            let Some(driver) = &link.driver else { continue };
            if link.seen.load(Ordering::Relaxed) != self.op.expect_seen {
                return Err("a server did not see the value that was sent".to_string());
            }
            if driver.outstanding() != 0 || driver.queued_reply_bytes() != 0 {
                return Err("a driver did not settle".to_string());
            }
        }
        Ok(())
    }

    fn batch_times(&self, out: &mut Vec<(&'static str, f64)>) {
        let sorted = stats::sorted(&self.latencies);
        out.push((P50, stats::quantile_sorted(&sorted, 0.5)));
        out.push((P99, stats::quantile_sorted(&sorted, 0.99)));
    }

    fn diagnostics(&self) -> Vec<(String, f64)> {
        let t = &self.tally;
        let calls = t.calls.max(1) as f64;
        vec![
            ("pumps_per_call".to_string(), t.pumps as f64 / calls),
            (
                "replies_per_read".to_string(),
                t.replies as f64 / t.reads.max(1) as f64,
            ),
            ("shed_share".to_string(), t.shed as f64 / calls),
            ("expired_share".to_string(), t.expired as f64 / calls),
        ]
    }
}

/// Set-up of `fanin`.
pub fn build<const ON: bool>(seed: u64, clock: &mut SetupClock) -> Vec<Box<dyn Cell>> {
    let (send_ints, xid) = seeded_op(seed);
    clock.step();
    vec![Box::new(FaninCell::<ON>::new(send_ints, xid))]
}
