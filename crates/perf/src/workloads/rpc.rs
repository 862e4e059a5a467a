//! `rpc_small` and `rpc_bulk`: depth-1 calls through a `ConnDriver`.
//!
//! One client, one in-memory link, one driver, all stepped by the
//! measuring thread: client encode → call/request header → record mark
//! or GIOP size → link → `ConnDriver::pump` → generated
//! `handle_call`/`handle_message` → reply → verdict + decode.  The two
//! workloads share every layer and use them differently: with the
//! smallest messages per-message cost dominates; with 64 KiB ones the
//! bytes copied and marshaled do.

use crate::harness::{Cell, RunOut, SetupClock};
use crate::inputs::{self, rpcgen_bytes, Enc, RefEncoder, Rng};
use crate::trace::{enter, next_op, Name};
use flick_baselines::Marshaler;
use flick_bench::generated::{iiop_bench, onc_bench};
use flick_runtime::cdr::{ByteOrder, CdrIn, CdrOut};
use flick_runtime::client::{CallOptions, Endpoint, RecvOutcome, RpcError};
use flick_runtime::fabric::{
    service_handler, ConnDriver, FrameHandler, Framing, ReadStatus, WriteStatus,
};
use flick_runtime::giop::{self, MsgType, ReplyStatus};
use flick_runtime::oncrpc::{self, CallHeader, RecordScan, ReplyVerdict};
use flick_runtime::{deadline, Echoed, Limits, MarshalBuf, MsgReader};
use flick_transport::datagram::{datagram_pair, DatagramConn, DatagramEnd, DEFAULT_MAX_DATAGRAM};
use flick_transport::stream::{stream_pair, StreamEnd};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// ONC program the benchmark's servers answer for.
pub const PROG: u32 = 0x2000_0F11;
/// See [`PROG`].
pub const VERS: u32 = 1;
/// The deadline stamped on every call: generous, so it never expires,
/// but present, so the 24-byte context blob rides every request and
/// the fabric's budget peek runs, as in `flick-bridge`.
pub const BUDGET: Duration = Duration::from_secs(30);
/// A call that has not completed after this many pump rounds failed.
const MAX_PUMPS: usize = 64;
const OBJECT_KEY: &[u8] = b"bench-object";

/// What the server-side handler last saw, folded to one word: the
/// client checks it against the value it sent, so a server that
/// decodes garbage and still answers `SUCCESS` is caught.
pub type Seen = Arc<AtomicU64>;

fn fold(len: usize, first: i32, last: i32) -> u64 {
    (len as u64) << 40 ^ u64::from(first as u32) << 8 ^ u64::from(last as u32)
}

/// Instantiates a `Bench` server over one generated module: every
/// method is a `HandlerWork` span that records what it saw and drops
/// its arguments.
macro_rules! bench_server {
    ($srv:ident, $module:ident, $echo:ty, $echoed:expr) => {
        /// The benchmark's `Server` impl for one generated module.
        pub struct $srv<const ON: bool> {
            /// Fingerprint of the last arguments received.
            pub seen: Seen,
        }

        impl<const ON: bool> $module::Server for $srv<ON> {
            fn send_ints(&mut self, vals: Vec<i32>) {
                let _s = enter::<ON>(Name::HandlerWork);
                let fp = fold(
                    vals.len(),
                    vals.first().copied().unwrap_or(0),
                    vals.last().copied().unwrap_or(0),
                );
                self.seen.store(fp, Ordering::Relaxed);
            }

            fn send_rects(&mut self, rects: Vec<$module::Rect>) {
                let _s = enter::<ON>(Name::HandlerWork);
                let fp = fold(
                    rects.len(),
                    rects.first().map_or(0, |r| r.min.x),
                    rects.last().map_or(0, |r| r.max.y),
                );
                self.seen.store(fp, Ordering::Relaxed);
            }

            fn send_dirents(&mut self, entries: Vec<$module::Dirent>) {
                let _s = enter::<ON>(Name::HandlerWork);
                let fp = fold(
                    entries.len(),
                    entries.first().map_or(0, |d| d.info.fields[0]),
                    entries
                        .last()
                        .map_or(0, |d| i32::from(d.name.as_bytes()[0])),
                );
                self.seen.store(fp, Ordering::Relaxed);
            }

            fn echo_stat(&mut self, s: $module::Stat) -> $echo {
                let _s = enter::<ON>(Name::HandlerWork);
                self.seen
                    .store(fold(1, s.fields[0], s.fields[29]), Ordering::Relaxed);
                $echoed(s)
            }
        }
    };
}

bench_server!(OncSrv, onc_bench, Echoed<onc_bench::Stat>, |_s| {
    Echoed::Unchanged
});
bench_server!(IiopSrv, iiop_bench, iiop_bench::Stat, |s| s);

/// An operation called through its generated datagram client stub:
/// `(endpoint, xid, options) → reply matched what was sent`.
pub type StubCall = dyn Fn(&dyn DynEndpoint, u32, &CallOptions) -> Result<bool, RpcError>;

/// One operation with its seeded arguments, as a client needs it.
pub struct Op {
    /// Operation name (the GIOP discriminator).
    pub name: &'static str,
    /// ONC procedure number.
    pub proc_num: u32,
    /// Application payload bytes, both directions.
    pub payload: u64,
    /// Appends the request body.
    pub encode: Box<dyn Fn(&mut MarshalBuf)>,
    /// Decodes the reply body and compares it with what was sent.
    pub check_reply: Box<dyn Fn(&mut MsgReader<'_>) -> bool>,
    /// Calls the operation through the generated datagram client stub.
    pub call: Box<StubCall>,
    /// Reference encodings of the request body.
    pub body_refs: Vec<(&'static str, Vec<u8>)>,
    /// Reply body bytes on the wire.
    pub reply_body: u64,
    /// What the server must have seen.
    pub expect_seen: u64,
}

/// Object-safe face of [`Endpoint`], so [`Op::call`] can be boxed.
pub trait DynEndpoint {
    /// See [`Endpoint::send`].
    fn send(&self, payload: &[u8]) -> Result<(), &'static str>;
    /// See [`Endpoint::recv_deadline`].
    fn recv_deadline(&self, timeout: Duration) -> RecvOutcome;
}

impl Endpoint for &dyn DynEndpoint {
    fn send(&self, payload: &[u8]) -> Result<(), &'static str> {
        (**self).send(payload)
    }

    fn recv_deadline(&self, timeout: Duration) -> RecvOutcome {
        (**self).recv_deadline(timeout)
    }
}

/// What the server's fingerprint must read after it was sent these
/// values (the `bench_server!` methods fold the same three numbers out
/// of their own module's types).
mod expect {
    use super::fold;
    use flick_baselines::types::{Dirent, Rect, Stat};

    pub fn ints(v: &[i32]) -> u64 {
        fold(
            v.len(),
            v.first().copied().unwrap_or(0),
            v.last().copied().unwrap_or(0),
        )
    }

    pub fn rects(v: &[Rect]) -> u64 {
        fold(
            v.len(),
            v.first().map_or(0, |r| r.min.x),
            v.last().map_or(0, |r| r.max.y),
        )
    }

    pub fn dirents(v: &[Dirent]) -> u64 {
        fold(
            v.len(),
            v.first().map_or(0, |d| d.info.fields[0]),
            v.last().map_or(0, |d| i32::from(d.name.as_bytes()[0])),
        )
    }

    pub fn stat(s: &Stat) -> u64 {
        fold(1, s.fields[0], s.fields[29])
    }
}

fn no_stub(_: &dyn DynEndpoint, _: u32, _: &CallOptions) -> Result<bool, RpcError> {
    Err(RpcError::Transport("no datagram stub for this encoding"))
}

/// The ONC/XDR operations over `rng`-seeded arguments: `send_ints` of
/// `ints` integers, `send_rects`, `send_dirents`, `echo_stat`.
#[must_use]
pub fn onc_ops(rng: &mut Rng, ints: usize, rects: usize, dirents: usize) -> [Op; 4] {
    let vals = inputs::ints(rng, ints);
    let base_rects = inputs::rects(rng, rects);
    let base_dirents = inputs::dirents(rng, dirents);
    let base_stat = inputs::stat(rng);
    let xdr = || RefEncoder::new(Enc::Xdr);
    let send_ints = {
        let (a, b) = (vals.clone(), vals.clone());
        Op {
            name: "send_ints",
            proc_num: 1,
            payload: 4 * ints as u64,
            body_refs: vec![
                ("XDR", xdr().ints(&vals).into_bytes()),
                (
                    "rpcgen",
                    rpcgen_bytes(|m| {
                        m.marshal_ints(&vals);
                    }),
                ),
            ],
            reply_body: 0,
            expect_seen: expect::ints(&vals),
            encode: Box::new(move |buf| onc_bench::encode_send_ints_request(buf, &a)),
            check_reply: Box::new(|r| onc_bench::decode_send_ints_reply(r).is_ok()),
            call: Box::new(move |ep, xid, opts| {
                onc_bench::call_send_ints(&ep, xid, PROG, VERS, opts, &b).map(|()| true)
            }),
        }
    };
    let send_rects = {
        let v = inputs::onc::rects(&base_rects);
        Op {
            name: "send_rects",
            proc_num: 2,
            payload: 16 * rects as u64,
            body_refs: vec![
                ("XDR", xdr().rects(&base_rects).into_bytes()),
                (
                    "rpcgen",
                    rpcgen_bytes(|m| {
                        m.marshal_rects(&base_rects);
                    }),
                ),
            ],
            reply_body: 0,
            expect_seen: expect::rects(&base_rects),
            encode: Box::new(move |buf| onc_bench::encode_send_rects_request(buf, &v)),
            check_reply: Box::new(|r| onc_bench::decode_send_rects_reply(r).is_ok()),
            call: Box::new(no_stub),
        }
    };
    let send_dirents = {
        let v = inputs::onc::dirents(&base_dirents);
        Op {
            name: "send_dirents",
            proc_num: 3,
            payload: 256 * dirents as u64,
            body_refs: vec![
                ("XDR", xdr().dirents(&base_dirents).into_bytes()),
                (
                    "rpcgen",
                    rpcgen_bytes(|m| {
                        m.marshal_dirents(&base_dirents);
                    }),
                ),
            ],
            reply_body: 0,
            expect_seen: expect::dirents(&base_dirents),
            encode: Box::new(move |buf| onc_bench::encode_send_dirents_request(buf, &v)),
            check_reply: Box::new(|r| onc_bench::decode_send_dirents_reply(r).is_ok()),
            call: Box::new(no_stub),
        }
    };
    let echo_stat = {
        let s = inputs::onc::stat(&base_stat);
        let (a, b, c) = (s.clone(), s.clone(), s.clone());
        Op {
            name: "echo_stat",
            proc_num: 4,
            payload: 2 * 136,
            body_refs: vec![("XDR", xdr().stat(&base_stat).into_bytes())],
            reply_body: 136,
            expect_seen: expect::stat(&base_stat),
            encode: Box::new(move |buf| onc_bench::encode_echo_stat_request(buf, &a)),
            check_reply: Box::new(move |r| {
                onc_bench::decode_echo_stat_reply(r).is_ok_and(|(got,)| got == b)
            }),
            call: Box::new(move |ep, xid, opts| {
                onc_bench::call_echo_stat(&ep, xid, PROG, VERS, opts, &c).map(|(got,)| got == c)
            }),
        }
    };
    [send_ints, send_rects, send_dirents, echo_stat]
}

/// The IIOP/CDR operations over `rng`-seeded arguments.
#[must_use]
pub fn iiop_ops(rng: &mut Rng, ints: usize, dirents: usize) -> [Op; 3] {
    let vals = inputs::ints(rng, ints);
    let base_dirents = inputs::dirents(rng, dirents);
    let base_stat = inputs::stat(rng);
    let cdr = || RefEncoder::new(Enc::Cdr);
    let send_ints = {
        let a = vals.clone();
        Op {
            name: "send_ints",
            proc_num: 1,
            payload: 4 * ints as u64,
            body_refs: vec![("CDR", cdr().ints(&vals).into_bytes())],
            reply_body: 0,
            expect_seen: expect::ints(&vals),
            encode: Box::new(move |buf| iiop_bench::encode_send_ints_request(buf, &a)),
            check_reply: Box::new(|r| iiop_bench::decode_send_ints_reply(r).is_ok()),
            call: Box::new(no_stub),
        }
    };
    let send_dirents = {
        let v = inputs::iiop::dirents(&base_dirents);
        Op {
            name: "send_dirents",
            proc_num: 3,
            payload: 256 * dirents as u64,
            body_refs: vec![("CDR", cdr().dirents(&base_dirents).into_bytes())],
            reply_body: 0,
            expect_seen: expect::dirents(&base_dirents),
            encode: Box::new(move |buf| iiop_bench::encode_send_dirents_request(buf, &v)),
            check_reply: Box::new(|r| iiop_bench::decode_send_dirents_reply(r).is_ok()),
            call: Box::new(no_stub),
        }
    };
    let echo_stat = {
        let s = inputs::iiop::stat(&base_stat);
        let (a, b) = (s.clone(), s.clone());
        Op {
            name: "echo_stat",
            proc_num: 4,
            payload: 2 * 136,
            body_refs: vec![("CDR", cdr().stat(&base_stat).into_bytes())],
            reply_body: 136,
            expect_seen: expect::stat(&base_stat),
            encode: Box::new(move |buf| iiop_bench::encode_echo_stat_request(buf, &a)),
            check_reply: Box::new(move |r| {
                iiop_bench::decode_echo_stat_reply(r).is_ok_and(|(got,)| got == b)
            }),
            call: Box::new(no_stub),
        }
    };
    [send_ints, send_dirents, echo_stat]
}

/// A handler serving the ONC `Bench` program through the generated
/// `handle_call`, as a `ServerHandle` span.
#[must_use]
pub fn onc_handler<const ON: bool>(seen: Seen) -> Box<dyn FrameHandler> {
    let mut srv = OncSrv::<ON> { seen };
    Box::new(service_handler(
        move |record: &[u8], reply: &mut MarshalBuf| {
            let _s = enter::<ON>(Name::ServerHandle);
            onc_bench::handle_call(record, PROG, VERS, reply, &mut srv)
        },
    ))
}

/// A handler serving the IIOP `Bench` interface through the generated
/// `handle_message`.
#[must_use]
pub fn giop_handler<const ON: bool>(seen: Seen) -> Box<dyn FrameHandler> {
    let mut srv = IiopSrv::<ON> { seen };
    Box::new(service_handler(
        move |msg: &[u8], reply: &mut MarshalBuf| {
            let _s = enter::<ON>(Name::ServerHandle);
            iiop_bench::handle_message(msg, reply, &mut srv)
        },
    ))
}

fn write_all(link: &StreamEnd, mut bytes: &[u8]) -> bool {
    while !bytes.is_empty() {
        match link.try_write(bytes) {
            WriteStatus::Wrote(n) => bytes = &bytes[n..],
            WriteStatus::Full | WriteStatus::Closed => return false,
        }
    }
    true
}

/// What a stream client checks a request against after the fact.
struct Sent {
    /// Offset of the body within `req`.
    body_at: usize,
}

/// Counters every RPC cell keeps.
#[derive(Default)]
struct Tally {
    calls: u64,
    pumps: u64,
    bytes_out: u64,
}

/// A depth-1 client over a byte stream into a `ConnDriver`, speaking
/// ONC record marking or GIOP.
pub struct StreamCell<const ON: bool> {
    name: String,
    giop: bool,
    prog: u32,
    vers: u32,
    op: Op,
    client: StreamEnd,
    driver: ConnDriver,
    seen: Seen,
    req: MarshalBuf,
    wire: MarshalBuf,
    rx: MarshalBuf,
    next_id: u32,
    sent: Sent,
    tally: Tally,
}

impl<const ON: bool> StreamCell<ON> {
    /// An ONC-stream client of `prog`/`vers` into `handler`.
    #[must_use]
    pub fn onc(
        name: &str,
        op: Op,
        prog: u32,
        vers: u32,
        handler: Box<dyn FrameHandler>,
        seen: Seen,
        xid_base: u32,
    ) -> Self {
        Self::new(name, false, op, prog, vers, handler, seen, xid_base)
    }

    /// A GIOP client into `handler`.
    #[must_use]
    pub fn giop(
        name: &str,
        op: Op,
        handler: Box<dyn FrameHandler>,
        seen: Seen,
        id_base: u32,
    ) -> Self {
        Self::new(name, true, op, 0, 0, handler, seen, id_base)
    }

    #[allow(clippy::too_many_arguments)]
    fn new(
        name: &str,
        giop: bool,
        op: Op,
        prog: u32,
        vers: u32,
        handler: Box<dyn FrameHandler>,
        seen: Seen,
        id_base: u32,
    ) -> Self {
        let (client, server) = stream_pair();
        let framing = if giop {
            Framing::Giop
        } else {
            Framing::OncRecord
        };
        StreamCell {
            name: name.to_string(),
            giop,
            prog,
            vers,
            op,
            client,
            driver: ConnDriver::new(Box::new(server), framing, handler, Limits::default()),
            seen,
            req: MarshalBuf::new(),
            wire: MarshalBuf::new(),
            rx: MarshalBuf::new(),
            next_id: id_base,
            sent: Sent { body_at: 0 },
            tally: Tally::default(),
        }
    }

    fn encode_request(&mut self, id: u32) {
        let _s = enter::<ON>(Name::ClientEncode);
        deadline::clear_inbound();
        let _budget = deadline::stamp_outbound(BUDGET);
        self.req.clear();
        if self.giop {
            let order = ByteOrder::native();
            let at = giop::begin_message(&mut self.req, order, MsgType::Request);
            let cdr = CdrOut::begin(&self.req, order);
            giop::put_request_header(&mut self.req, &cdr, id, true, OBJECT_KEY, self.op.name);
            self.sent.body_at = self.req.len();
            (self.op.encode)(&mut self.req);
            giop::finish_message(&mut self.req, at, order);
        } else {
            CallHeader {
                xid: id,
                prog: self.prog,
                vers: self.vers,
                proc: self.op.proc_num,
            }
            .write(&mut self.req);
            self.sent.body_at = self.req.len();
            (self.op.encode)(&mut self.req);
        }
    }

    fn send(&mut self) -> bool {
        let _s = enter::<ON>(Name::TransportWrite);
        if self.giop {
            self.tally.bytes_out += self.req.len() as u64;
            write_all(&self.client, self.req.as_slice())
        } else {
            self.wire.clear();
            oncrpc::frame_record_into(self.req.as_slice(), &mut self.wire);
            self.tally.bytes_out += self.wire.len() as u64;
            write_all(&self.client, self.wire.as_slice())
        }
    }

    /// Reads what the link holds and reports the length of the first
    /// complete reply frame (`Some((payload_at, total))`).
    fn receive(&mut self) -> Result<Option<(usize, usize)>, ()> {
        let _s = enter::<ON>(Name::TransportRead);
        if let ReadStatus::Closed = self.client.read_available(&mut self.rx, usize::MAX) {
            return Err(());
        }
        let stream = self.rx.as_slice();
        if self.giop {
            if stream.len() < giop::HEADER_BYTES {
                return Ok(None);
            }
            let h = giop::read_header(&mut MsgReader::new(stream)).map_err(|_| ())?;
            let total = giop::HEADER_BYTES + h.size as usize;
            Ok((stream.len() >= total).then_some((0, total)))
        } else {
            match oncrpc::scan_record_limited(stream, oncrpc::MAX_RECORD_BYTES) {
                Ok(RecordScan::Complete(_, used)) => Ok(Some((4, used))),
                Ok(RecordScan::Partial) => Ok(None),
                Ok(RecordScan::Fragmented) | Err(_) => Err(()),
            }
        }
    }

    fn decode_reply(&self, frame: &[u8], id: u32) -> bool {
        let _s = enter::<ON>(Name::ClientDecode);
        let mut r = MsgReader::new(frame);
        if self.giop {
            let Ok(h) = giop::read_header(&mut r) else {
                return false;
            };
            if h.msg_type != MsgType::Reply {
                return false;
            }
            let cdr = CdrIn::begin(&r, h.order);
            match giop::get_reply_header(&mut r, &cdr) {
                Ok(rh) if rh.request_id == id && rh.status == ReplyStatus::NoException => {}
                _ => return false,
            }
            let mut body = MsgReader::new(&frame[r.pos()..]);
            (self.op.check_reply)(&mut body)
        } else {
            match oncrpc::read_reply_verdict(&mut r) {
                Ok((xid, ReplyVerdict::Success)) if xid == id => {}
                _ => return false,
            }
            let mut body = MsgReader::new(&frame[r.pos()..]);
            (self.op.check_reply)(&mut body)
        }
    }

    fn one_call(&mut self) -> bool {
        next_op::<ON>();
        let _call = enter::<ON>(Name::Call);
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.encode_request(id);
        if !self.send() {
            return false;
        }
        for _ in 0..MAX_PUMPS {
            {
                let _s = enter::<ON>(Name::Pump);
                self.driver.pump();
            }
            self.tally.pumps += 1;
            match self.receive() {
                Ok(Some((at, total))) => {
                    self.tally.bytes_out += total as u64;
                    let ok = self.decode_reply(&self.rx.as_slice()[at..total], id);
                    self.rx.drain_front(total);
                    return ok;
                }
                Ok(None) => {}
                Err(()) => return false,
            }
        }
        false
    }
}

fn check_body(refs: &[(&'static str, Vec<u8>)], body: &[u8]) -> Result<(), String> {
    for (who, bytes) in refs {
        if body != bytes.as_slice() {
            return Err(format!(
                "request body differs from the {who} reference ({} vs {} bytes)",
                body.len(),
                bytes.len()
            ));
        }
    }
    Ok(())
}

fn rpc_diagnostics(tally: &Tally, op: &Op) -> Vec<(String, f64)> {
    let calls = tally.calls.max(1) as f64;
    let body = (op.body_refs[0].1.len() as u64 + op.reply_body) as f64;
    vec![
        (
            "header_bytes".to_string(),
            tally.bytes_out as f64 / calls - body,
        ),
        ("pumps_per_call".to_string(), tally.pumps as f64 / calls),
    ]
}

impl<const ON: bool> Cell for StreamCell<ON> {
    fn name(&self) -> &str {
        &self.name
    }

    fn payload_bytes(&self) -> u64 {
        self.op.payload
    }

    fn run(&mut self, ops: usize) -> RunOut {
        let before = self.tally.bytes_out;
        let mut failed = 0;
        for _ in 0..ops {
            failed += u64::from(!self.one_call());
        }
        self.tally.calls += ops as u64;
        RunOut {
            failed,
            bytes_out: self.tally.bytes_out - before,
        }
    }

    fn verify_last(&mut self) -> Result<(), String> {
        check_body(
            &self.op.body_refs,
            &self.req.as_slice()[self.sent.body_at..],
        )?;
        if self.seen.load(Ordering::Relaxed) != self.op.expect_seen {
            return Err("the server did not see the value that was sent".to_string());
        }
        if self.driver.outstanding() != 0 || self.driver.queued_reply_bytes() != 0 {
            return Err("the driver did not settle".to_string());
        }
        Ok(())
    }

    fn diagnostics(&self) -> Vec<(String, f64)> {
        rpc_diagnostics(&self.tally, &self.op)
    }
}

/// A datagram endpoint whose receive side pumps the server: the
/// generated `call_*` stubs block in `recv_deadline`, so that is where
/// the one measuring thread gives the `ConnDriver` its turn.
struct PumpEndpoint<const ON: bool> {
    end: DatagramEnd,
    driver: RefCell<ConnDriver>,
    last_sent: RefCell<MarshalBuf>,
    tally: RefCell<Tally>,
}

impl<const ON: bool> DynEndpoint for PumpEndpoint<ON> {
    fn send(&self, payload: &[u8]) -> Result<(), &'static str> {
        let _s = enter::<ON>(Name::TransportWrite);
        let mut last = self.last_sent.borrow_mut();
        last.clear();
        last.put_bytes(payload);
        self.tally.borrow_mut().bytes_out += payload.len() as u64;
        self.end.send(payload).map_err(|_| "datagram too big")
    }

    fn recv_deadline(&self, _timeout: Duration) -> RecvOutcome {
        {
            let _s = enter::<ON>(Name::Pump);
            self.driver.borrow_mut().pump();
        }
        let _s = enter::<ON>(Name::TransportRead);
        let mut tally = self.tally.borrow_mut();
        tally.pumps += 1;
        match self.end.recv_timeout(Duration::ZERO) {
            flick_transport::chan::Recv::Msg(m) => {
                tally.bytes_out += m.len() as u64;
                RecvOutcome::Msg(m)
            }
            flick_transport::chan::Recv::TimedOut => RecvOutcome::TimedOut,
            flick_transport::chan::Recv::Closed => RecvOutcome::Closed,
        }
    }
}

/// A depth-1 client over datagrams, through the generated `call_*`
/// client stubs.
pub struct DgramCell<const ON: bool> {
    name: String,
    op: Op,
    ep: PumpEndpoint<ON>,
    seen: Seen,
    opts: CallOptions,
    next_xid: u32,
}

impl<const ON: bool> DgramCell<ON> {
    /// A datagram client of the ONC `Bench` server.
    #[must_use]
    pub fn new(name: &str, op: Op, xid_base: u32) -> Self {
        let seen = Seen::default();
        let (client, server) = datagram_pair(DEFAULT_MAX_DATAGRAM);
        let driver = ConnDriver::new(
            Box::new(DatagramConn::new(server)),
            Framing::OncRecord,
            onc_handler::<ON>(seen.clone()),
            Limits::default(),
        );
        DgramCell {
            name: name.to_string(),
            op,
            ep: PumpEndpoint {
                end: client,
                driver: RefCell::new(driver),
                last_sent: RefCell::new(MarshalBuf::new()),
                tally: RefCell::new(Tally::default()),
            },
            seen,
            opts: CallOptions {
                deadline: BUDGET,
                ..CallOptions::default()
            },
            next_xid: xid_base,
        }
    }
}

impl<const ON: bool> Cell for DgramCell<ON> {
    fn name(&self) -> &str {
        &self.name
    }

    fn payload_bytes(&self) -> u64 {
        self.op.payload
    }

    fn run(&mut self, ops: usize) -> RunOut {
        let before = self.ep.tally.borrow().bytes_out;
        let mut failed = 0;
        for _ in 0..ops {
            next_op::<ON>();
            let _call = enter::<ON>(Name::Call);
            let xid = self.next_xid;
            self.next_xid = self.next_xid.wrapping_add(1);
            // The client is its own process in spirit: whatever budget
            // the server side of this thread last noted is not its.
            deadline::clear_inbound();
            let ok = (self.op.call)(&self.ep, xid, &self.opts);
            failed += u64::from(ok != Ok(true));
        }
        let mut tally = self.ep.tally.borrow_mut();
        tally.calls += ops as u64;
        RunOut {
            failed,
            bytes_out: tally.bytes_out - before,
        }
    }

    fn verify_last(&mut self) -> Result<(), String> {
        let sent = self.ep.last_sent.borrow();
        let body_at = sent
            .len()
            .checked_sub(self.op.body_refs[0].1.len())
            .ok_or("request shorter than its body")?;
        check_body(&self.op.body_refs, &sent.as_slice()[body_at..])?;
        if self.seen.load(Ordering::Relaxed) != self.op.expect_seen {
            return Err("the server did not see the value that was sent".to_string());
        }
        Ok(())
    }

    fn diagnostics(&self) -> Vec<(String, f64)> {
        rpc_diagnostics(&self.ep.tally.borrow(), &self.op)
    }
}

fn onc_stream<const ON: bool>(name: &str, op: Op, xid_base: u32) -> Box<dyn Cell> {
    let seen = Seen::default();
    Box::new(StreamCell::<ON>::onc(
        name,
        op,
        PROG,
        VERS,
        onc_handler::<ON>(seen.clone()),
        seen,
        xid_base,
    ))
}

fn giop_stream<const ON: bool>(name: &str, op: Op, id_base: u32) -> Box<dyn Cell> {
    let seen = Seen::default();
    Box::new(StreamCell::<ON>::giop(
        name,
        op,
        giop_handler::<ON>(seen.clone()),
        seen,
        id_base,
    ))
}

/// Integers in the small `send_ints`.
pub const SMALL_INTS: usize = 16;

/// Set-up of `rpc_small`: {`onc_stream`,`onc_dgram`,`giop`} ×
/// {`send_ints` of 16 ints, `echo_stat`}.
pub fn build_small<const ON: bool>(seed: u64, clock: &mut SetupClock) -> Vec<Box<dyn Cell>> {
    let mut rng = Rng::new(seed, 0x5a11);
    let xid = rng.next_u64() as u32;
    let [s_ints, _, _, s_stat] = onc_ops(&mut rng, SMALL_INTS, 0, 0);
    let [d_ints, _, _, d_stat] = onc_ops(&mut rng, SMALL_INTS, 0, 0);
    let [g_ints, _, g_stat] = iiop_ops(&mut rng, SMALL_INTS, 0);
    clock.step();
    vec![
        onc_stream::<ON>("onc_stream.send_ints", s_ints, xid),
        onc_stream::<ON>("onc_stream.echo_stat", s_stat, xid ^ 0x1000_0000),
        Box::new(DgramCell::<ON>::new(
            "onc_dgram.send_ints",
            d_ints,
            xid ^ 0x2000_0000,
        )),
        Box::new(DgramCell::<ON>::new(
            "onc_dgram.echo_stat",
            d_stat,
            xid ^ 0x3000_0000,
        )),
        giop_stream::<ON>("giop.send_ints", g_ints, xid ^ 0x4000_0000),
        giop_stream::<ON>("giop.echo_stat", g_stat, xid ^ 0x5000_0000),
    ]
}

/// Payload bytes of one bulk message.
pub const BULK_BYTES: usize = 64 * 1024;

/// Set-up of `rpc_bulk`: {`onc_stream`,`giop`} × {`send_ints`,
/// `send_dirents`} of 64 KiB.
pub fn build_bulk<const ON: bool>(seed: u64, clock: &mut SetupClock) -> Vec<Box<dyn Cell>> {
    let mut rng = Rng::new(seed, 0xb01c);
    let xid = rng.next_u64() as u32;
    let [o_ints, _, o_dirents, _] = onc_ops(&mut rng, BULK_BYTES / 4, 0, BULK_BYTES / 256);
    let [g_ints, g_dirents, _] = iiop_ops(&mut rng, BULK_BYTES / 4, BULK_BYTES / 256);
    clock.step();
    vec![
        onc_stream::<ON>("onc_stream.send_ints", o_ints, xid),
        onc_stream::<ON>("onc_stream.send_dirents", o_dirents, xid ^ 0x1000_0000),
        giop_stream::<ON>("giop.send_ints", g_ints, xid ^ 0x2000_0000),
        giop_stream::<ON>("giop.send_dirents", g_dirents, xid ^ 0x3000_0000),
    ]
}
