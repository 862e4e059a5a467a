//! `bridge`: ONC calls through the transcoding gateway.
//!
//! One ONC-stream link into a `ConnDriver` hosting
//! `BridgeHandler<Supervisor<_>>` over `transcode_bench::BRIDGE_OPS`;
//! the upstream is the generated IIOP server, in-process.  The only
//! place `emit_transcode` output, both header codecs in one call and
//! the breaker's bookkeeping are on the path.

use crate::harness::{Cell, RunOut, SetupClock};
use crate::inputs::Rng;
use crate::trace::{enter, Name};
use crate::workloads::rpc::{self, IiopSrv, Seen, StreamCell};
use flick_bench::generated::{iiop_bench, transcode_bench};
use flick_runtime::bridge::{BreakerPolicy, Bridge, Supervisor, UpstreamLink};
use flick_runtime::cdr::ByteOrder;
use flick_runtime::fabric::{BridgeHandler, FrameHandler, FrameId, ReplySink};
use flick_runtime::MarshalBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// `forwarded`, `rejected`, `fallback` of the hosted bridge, published
/// after every frame (the handler itself lives inside the driver).
type Published = Arc<[AtomicU64; 3]>;

/// `Supervisor::forward` as a span.
struct SpannedLink<const ON: bool, L>(L);

impl<const ON: bool, L: UpstreamLink> UpstreamLink for SpannedLink<ON, L> {
    fn forward(&mut self, request: &[u8], idempotent: bool) -> Option<Vec<u8>> {
        let _s = enter::<ON>(Name::Supervisor);
        self.0.forward(request, idempotent)
    }
}

/// The shipped `BridgeHandler`, as a `ServerHandle` span.
struct Hosted<const ON: bool, F: UpstreamLink + Send> {
    inner: BridgeHandler<F>,
    published: Published,
}

impl<const ON: bool, F: UpstreamLink + Send> FrameHandler for Hosted<ON, F> {
    fn on_frame(&mut self, id: FrameId, frame: &[u8], sink: &mut ReplySink) {
        {
            let _s = enter::<ON>(Name::ServerHandle);
            self.inner.on_frame(id, frame, sink);
        }
        let c = self.inner.counters();
        for (slot, value) in self
            .published
            .iter()
            .zip([c.forwarded, c.rejected, c.fallback])
        {
            slot.store(value, Ordering::Relaxed);
        }
    }
}

fn handler<const ON: bool>(seen: Seen, published: Published) -> Box<dyn FrameHandler> {
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
    let mut srv = IiopSrv::<ON> { seen };
    let mut giop_reply = MarshalBuf::new();
    let upstream = move |msg: &[u8]| {
        let _s = enter::<ON>(Name::Upstream);
        iiop_bench::handle_message(msg, &mut giop_reply, &mut srv)
            .then(|| giop_reply.as_slice().to_vec())
    };
    let link = SpannedLink::<ON, _>(Supervisor::new(upstream, BreakerPolicy::default()));
    Box::new(Hosted::<ON, _> {
        inner: BridgeHandler::new(bridge, link),
        published,
    })
}

/// A bridged call: the ONC stream client of [`rpc`], plus the
/// gateway's own counters.
struct BridgeCell<const ON: bool> {
    inner: StreamCell<ON>,
    published: Published,
}

impl<const ON: bool> Cell for BridgeCell<ON> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn payload_bytes(&self) -> u64 {
        self.inner.payload_bytes()
    }

    fn run(&mut self, ops: usize) -> RunOut {
        self.inner.run(ops)
    }

    fn verify_last(&mut self) -> Result<(), String> {
        self.inner.verify_last()
    }

    fn diagnostics(&self) -> Vec<(String, f64)> {
        let [forwarded, rejected, fallback] =
            [0, 1, 2].map(|i| self.published[i].load(Ordering::Relaxed) as f64);
        let handled = (forwarded + rejected).max(1.0);
        let mut d = self.inner.diagnostics();
        d.push(("fallback_share".to_string(), fallback / handled));
        d.push(("rejected_share".to_string(), rejected / handled));
        d
    }
}

/// Set-up of `bridge`: the four bench operations at small size (64
/// ints, 16 rects, 4 dirents, one stat).
pub fn build<const ON: bool>(seed: u64, clock: &mut SetupClock) -> Vec<Box<dyn Cell>> {
    let mut rng = Rng::new(seed, 0xb21d);
    let xid = rng.next_u64() as u32 & 0x0fff_ffff;
    let ops = rpc::onc_ops(&mut rng, 64, 16, 4);
    clock.step();
    ops.into_iter()
        .enumerate()
        .map(|(i, op)| {
            let seen = Seen::default();
            let published = Published::default();
            let name = format!("onc_to_iiop.{}", op.name);
            Box::new(BridgeCell::<ON> {
                inner: StreamCell::onc(
                    &name,
                    op,
                    transcode_bench::PROGRAM,
                    transcode_bench::VERSION,
                    handler::<ON>(seen.clone(), published.clone()),
                    seen,
                    xid ^ ((i as u32) << 28),
                ),
                published,
            }) as Box<dyn Cell>
        })
        .collect()
}
