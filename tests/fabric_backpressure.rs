//! Memory bounds under hostile load, proven with the peak-tracking
//! allocator from `flick_bench::allocwatch`:
//!
//! * a slow reader cannot make a fabric connection buffer unbounded
//!   reply bytes — the backpressure contract
//!   ([`flick_runtime::Limits::per_conn_buffer_bound`]) holds for the
//!   whole process, not just per-field accounting;
//! * one pathological large message cannot pin the thread-local buffer
//!   pool's memory — the high-water trimmer decays after the burst;
//! * pooled datagrams crossing between a client thread and a fabric
//!   worker keep both threads' pools bounded, and the heap returns to
//!   where it was once the traffic stops.
//!
//! The tests read the global allocator, so they serialize on a lock.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

use flick_bench::allocwatch::{self, PeakAlloc};
use flick_runtime::client::{self, CallOptions};
use flick_runtime::fabric::{service_handler, Accepted, Acceptor, Fabric, FrameHandler, Framing};
use flick_runtime::oncrpc::{self, CallHeader, ReplyOutcome};
use flick_runtime::pool::DEFAULT_POOL_CAP;
use flick_runtime::{pool, Limits, MarshalBuf};
use flick_transport::datagram::{datagram_pair, DatagramConn, DatagramEnd, DEFAULT_MAX_DATAGRAM};
use flick_transport::listener::{listen, FabricAcceptor};
use flick_transport::stream::{read_record, write_record};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

static SERIAL: Mutex<()> = Mutex::new(());

/// A handler echoing each inbound record verbatim — replies are as
/// large as requests, so an unread reply stream would grow as fast as
/// the client writes.
fn echo_handler() -> Box<dyn FrameHandler> {
    Box::new(service_handler(|rec: &[u8], reply: &mut MarshalBuf| {
        reply.put_bytes(rec);
        true
    }))
}

/// A client floods 2 MiB of echo requests while reading nothing.  If
/// the fabric buffered replies without bound, process memory would
/// grow by megabytes; backpressure (stop reading → bounded pipes →
/// blocked writer) keeps the growth under the per-connection bound
/// plus the two link pipes.  Afterwards the reader drains and every
/// reply arrives — backpressure stalls, it never drops.
#[test]
fn slow_reader_memory_stays_bounded() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());

    let limits = Limits {
        max_record_bytes: 16 * 1024,
        max_message_bytes: 16 * 1024,
        max_pipeline: 4,
        reply_buf_bytes: 16 * 1024,
        read_chunk_bytes: 4 * 1024,
        max_inflight_total: 1024,
        shed_threshold: 768,
    };
    let link_cap = 8 * 1024;
    let (listener, connector) = listen(link_cap);
    let fabric = Fabric::new(limits).workers(1);
    let server = thread::spawn(move || {
        fabric.serve(FabricAcceptor::new(
            listener,
            Framing::OncRecord,
            echo_handler,
        ))
    });

    let conn = connector.connect();
    let payload = vec![0xEDu8; 512];
    let calls = 4096usize; // 4096 * 516 B ≈ 2 MiB of replies if unbounded

    // Warm one round trip so pools, thread-locals, and pipe buffers
    // exist before the measurement starts.
    write_record(&conn, &payload);
    assert_eq!(read_record(&conn).expect("echo").len(), payload.len());

    let live = allocwatch::live();
    allocwatch::reset_peak();

    thread::scope(|scope| {
        let conn = &conn;
        let payload = &payload;
        scope.spawn(move || {
            // Blocking writes: once the fabric stops reading, the
            // bounded pipe fills and this thread stalls — that IS the
            // backpressure reaching the client.
            for _ in 0..calls {
                write_record(conn, payload);
            }
        });

        // Let the flood jam against the unread reply queue, then check
        // the high-water mark before draining anything.
        thread::sleep(Duration::from_millis(100));
        let bound = limits.per_conn_buffer_bound() + 2 * link_cap + 64 * 1024;
        let peak = allocwatch::peak_delta(live);
        assert!(
            peak < bound,
            "slow reader grew process memory by {peak} bytes (bound {bound}); \
             backpressure is not holding"
        );

        // Drain: every flooded call still completes.
        for i in 0..calls {
            let echoed = read_record(conn).unwrap_or_else(|| panic!("reply {i} lost"));
            assert_eq!(echoed.len(), payload.len());
        }
    });

    drop(conn);
    drop(connector);
    let stats = server.join().expect("fabric exits");
    assert_eq!(stats.evicted(), 0, "backpressure must not evict");
}

/// One pathological 4 MiB message through the pooled-buffer path must
/// not pin megabytes in the pool: after two epochs of small traffic
/// the high-water trimmer shrinks the lingering capacity back down.
#[test]
fn pathological_message_does_not_pin_pool_memory() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());

    pool::drain();
    // Small-message steady state.
    for _ in 0..8 {
        let mut b = pool::checkout();
        b.put_bytes(&[7u8; 256]);
    }
    let live_small = allocwatch::live();

    // The pathological message: 4 MiB marshaled through a pooled
    // buffer, recycled like any other call.
    {
        let big = vec![9u8; 4 << 20];
        let mut b = pool::checkout();
        b.put_bytes(&big);
    }
    assert!(
        allocwatch::live() > live_small + (4 << 20) - 4096,
        "the burst capacity is momentarily retained (trim target is hot)"
    );

    // Two epochs of ordinary traffic decay the high-water mark; the
    // lingering giant buffer is trimmed on recycle.
    for _ in 0..2 * 64 + 8 {
        let mut b = pool::checkout();
        b.put_bytes(&[7u8; 256]);
    }

    let live_after = allocwatch::live();
    assert!(
        live_after < live_small + 64 * 1024,
        "pool still pins {} bytes after the burst decayed (baseline {})",
        live_after - live_small,
        live_small
    );
}

/// Hands the fabric one connection, then shuts the accept loop.
struct OneShot(mpsc::Receiver<Accepted>);

impl Acceptor for OneShot {
    fn accept(&mut self) -> Option<Accepted> {
        self.0.recv().ok()
    }
}

const PROG: u32 = 0x2000_0077;

/// The client side of the cross-thread pool test: echo calls, then a
/// one-way flood paced so the link's queue never grows past one burst.
struct DgramClient {
    end: DatagramEnd,
    request: Vec<u8>,
    opts: CallOptions,
    /// Frames the worker's handler has seen.
    seen: Arc<AtomicUsize>,
    sent: usize,
}

impl DgramClient {
    fn echo(&mut self, calls: u32) {
        for xid in 0..calls {
            self.request[..4].copy_from_slice(&xid.to_be_bytes());
            let body = client::call(&self.end, xid, &self.request, &self.opts).expect("echo");
            assert_eq!(body.len(), 64);
            self.sent += 1;
            assert!(
                pool::free_buffers() <= DEFAULT_POOL_CAP,
                "client pool overgrew"
            );
        }
    }

    /// `n` datagrams too short to be a call: the handler drops them.
    fn flood(&mut self, n: usize) {
        for burst in (0..n).step_by(64) {
            for _ in burst..n.min(burst + 64) {
                self.end.send(&[0u8; 16]).expect("fits");
                self.sent += 1;
            }
            while self.seen.load(Ordering::Relaxed) < self.sent {
                thread::yield_now();
            }
            assert!(
                pool::free_buffers() <= DEFAULT_POOL_CAP,
                "client pool overgrew"
            );
        }
    }
}

/// A client thread and a fabric worker trade pooled datagrams: echo
/// calls hand each thread back as many buffers as it sends, and a
/// one-way flood is bounded by the pool cap on the receiving side.
/// Neither pool outgrows its cap, and the heap returns to within a few
/// KiB of where it stood before the run.
#[test]
fn datagram_pools_stay_bounded_across_threads() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());

    let seen = Arc::new(AtomicUsize::new(0));
    let worker_free = Arc::new(AtomicUsize::new(0));
    let handler = {
        let (seen, worker_free) = (seen.clone(), worker_free.clone());
        service_handler(move |record: &[u8], reply: &mut MarshalBuf| {
            seen.fetch_add(1, Ordering::Relaxed);
            worker_free.fetch_max(pool::free_buffers(), Ordering::Relaxed);
            match oncrpc::accept_call(record, PROG, 1, reply) {
                Ok((h, args)) => {
                    oncrpc::write_reply(reply, h.xid, ReplyOutcome::Success);
                    reply.put_bytes(args);
                    true
                }
                Err(replied) => replied,
            }
        })
    };
    let (client_end, server_end) = datagram_pair(DEFAULT_MAX_DATAGRAM);
    let (tx, rx) = mpsc::channel();
    tx.send(Accepted {
        conn: Box::new(DatagramConn::new(server_end)),
        framing: Framing::OncRecord,
        handler: Box::new(handler),
    })
    .expect("queue the connection");
    drop(tx);
    let fabric = Fabric::new(Limits::default()).workers(1);
    let server = thread::spawn(move || fabric.serve(OneShot(rx)));

    let mut request = MarshalBuf::new();
    CallHeader {
        xid: 0,
        prog: PROG,
        vers: 1,
        proc: 1,
    }
    .write(&mut request);
    request.put_bytes(&[0x5a; 64]);
    let mut c = DgramClient {
        end: client_end,
        request: request.into_vec(),
        opts: CallOptions::default(),
        seen,
        sent: 0,
    };
    c.echo(64);
    c.flood(256);
    let live = allocwatch::live();

    c.echo(10_000);
    c.flood(10_000);
    let grew = allocwatch::live().saturating_sub(live);

    drop(c);
    let stats = server.join().expect("fabric exits");
    assert_eq!((stats.closed(), stats.inflight()), (1, 0));
    assert!(
        worker_free.load(Ordering::Relaxed) <= DEFAULT_POOL_CAP,
        "worker pool overgrew"
    );
    // With collection on the span recorder may allocate.
    if !flick_telemetry::enabled() {
        assert!(grew <= 4096, "the run left {grew} bytes behind");
    }
}
