//! One build, one switch: the binary that runs with collection off is
//! the binary that answers `flick_telemetry::set_enabled(true)` later
//! in the same process.  While off, the hooks on a fabric-hosted call
//! path register nothing, count nothing and never touch the heap; once
//! on, the fabric, codec and per-operation server metrics all fill in.
//!
//! Its own test binary: the switch and the allocator are process-global.

use flick_bench::allocwatch::{self, PeakAlloc};
use flick_bench::generated::onc_bench;
use flick_runtime::fabric::{service_handler, ConnDriver, Framing, ReadStatus, WriteStatus};
use flick_runtime::oncrpc::{self, CallHeader};
use flick_runtime::{stats, Limits, MarshalBuf, MsgReader};
use flick_transport::stream::{stream_pair, StreamEnd};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

const PROG: u32 = 0x2000_0042;
const VERS: u32 = 1;

/// One metric from each layer the call path crosses: the fabric pump,
/// the XDR framing codec, and the generated server's per-op span.
const WATCHED: [&str; 3] = [
    "fabric.batch.flush",
    "runtime.xdr.decode.msgs",
    "rpc.send_ints.server",
];

struct Sink;

impl onc_bench::Server for Sink {
    fn send_ints(&mut self, _v: Vec<i32>) {}
    fn send_rects(&mut self, _v: Vec<onc_bench::Rect>) {}
    fn send_dirents(&mut self, _v: Vec<onc_bench::Dirent>) {}
    fn echo_stat(&mut self, _s: onc_bench::Stat) -> flick_runtime::Echoed<onc_bench::Stat> {
        flick_runtime::Echoed::Unchanged
    }
}

/// A depth-1 client and the `ConnDriver` serving it, on one thread.
struct Rig {
    client: StreamEnd,
    driver: ConnDriver,
    req: MarshalBuf,
    wire: MarshalBuf,
    rx: MarshalBuf,
}

impl Rig {
    /// One `send_ints` call: framed request in, one pump round, framed
    /// reply out (left in `rx`).  The array is empty so the generated
    /// server allocates nothing: any heap traffic would be the hooks'.
    fn call(&mut self, xid: u32) {
        self.req.clear();
        CallHeader {
            xid,
            prog: PROG,
            vers: VERS,
            proc: 1,
        }
        .write(&mut self.req);
        onc_bench::encode_send_ints_request(&mut self.req, &[]);
        self.wire.clear();
        oncrpc::frame_record_into(self.req.as_slice(), &mut self.wire);
        assert_eq!(
            self.client.try_write(self.wire.as_slice()),
            WriteStatus::Wrote(self.wire.len())
        );
        self.driver.pump();
        self.rx.clear();
        assert!(matches!(
            self.client.read_available(&mut self.rx, usize::MAX),
            ReadStatus::Read(_)
        ));
        let mut r = MsgReader::new(&self.rx.as_slice()[4..]);
        assert_eq!(oncrpc::read_reply(&mut r).expect("reply accepted"), xid);
    }

    /// Unframes the last reply through `deframe_record`, the client-side
    /// site of the `runtime.xdr.decode.*` hooks (it allocates the
    /// record, so it stays outside the zero-allocation window).
    fn unframe_last_reply(&self) {
        let (record, used) = oncrpc::deframe_record(self.rx.as_slice()).expect("whole reply");
        assert_eq!((record.len() + 4, used), (self.rx.len(), self.rx.len()));
    }
}

/// The value `snapshot_text` prints for `name` (a counter's total or a
/// histogram's count); `None` when the metric was never registered.
fn reading(text: &str, name: &str) -> Option<u64> {
    let rest = text
        .lines()
        .find_map(|l| l.strip_prefix(name).filter(|rest| rest.starts_with(' ')))?;
    let value = rest.split_whitespace().next()?;
    value.strip_prefix("count=").unwrap_or(value).parse().ok()
}

#[test]
fn collection_toggles_in_a_running_process() {
    // Off from the start, whatever `FLICK_TELEMETRY` says.
    flick_telemetry::set_enabled(false);
    let (client, server) = stream_pair();
    let mut sink = Sink;
    let handler = service_handler(move |record: &[u8], reply: &mut MarshalBuf| {
        onc_bench::handle_call(record, PROG, VERS, reply, &mut sink)
    });
    let mut rig = Rig {
        client,
        driver: ConnDriver::new(
            Box::new(server),
            Framing::OncRecord,
            Box::new(handler),
            Limits::default(),
        ),
        req: MarshalBuf::new(),
        wire: MarshalBuf::new(),
        rx: MarshalBuf::new(),
    };

    // Warm the buffers, then 100 calls must leave the heap and the
    // registry exactly as they were.
    for xid in 0..4 {
        rig.call(xid);
    }
    // Counted on this thread only: the harness prints from another
    // one, and the process-wide peak sees that.
    let live = allocwatch::live();
    let events = allocwatch::thread_alloc_events();
    allocwatch::reset_peak();
    for xid in 4..104 {
        rig.call(xid);
    }
    assert_eq!(
        allocwatch::thread_alloc_events() - events,
        0,
        "disabled hooks touched the heap ({} B above the warm live total)",
        allocwatch::peak_delta(live)
    );
    rig.unframe_last_reply();
    let text = stats::snapshot_text();
    for name in WATCHED {
        assert_eq!(reading(&text, name), None, "{name} registered while off");
    }

    // On, same process, same connection: every layer reports.
    flick_telemetry::set_enabled(true);
    for xid in 104..114 {
        rig.call(xid);
        rig.unframe_last_reply();
    }
    let text = stats::snapshot_text();
    for name in WATCHED {
        assert!(
            reading(&text, name).is_some_and(|n| n > 0),
            "{name} not populated after set_enabled(true):\n{text}"
        );
    }
}
