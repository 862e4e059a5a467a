//! ONC RPC message headers (RFC 1831) and TCP record marking.
//!
//! A call message is `xid, CALL, rpcvers=2, prog, vers, proc` followed
//! by two empty (`AUTH_NONE`) authenticators; a successful reply is
//! `xid, REPLY, MSG_ACCEPTED, verifier, SUCCESS`.  Over TCP, messages
//! travel in *records*: fragments prefixed by a 31-bit length whose top
//! bit marks the final fragment.
//!
//! When a client trace span is open or the call carries a time budget
//! (see [`crate::trace`], [`crate::deadline`]), the call's credential
//! slot carries the `FLKT` context instead of `AUTH_NONE`: flavor
//! [`crate::trace::ONC_TRACE_AUTH_FLAVOR`] around a
//! [`WireContext`] blob.  Servers that know the flavor extract it
//! (and echo the trace in the reply verifier); everyone else skips it
//! like any unknown credential, so traced, budgeted, and plain peers
//! all interoperate.

use crate::buf::{ChunkWriter, MarshalBuf, MsgReader};
use crate::error::DecodeError;
use crate::trace::{TraceContext, WireContext};
use crate::xdr;

/// RPC protocol version (always 2).
pub const RPC_VERSION: u32 = 2;

/// Encoded size of a call header (6 words + 2 empty auth = 10 words).
pub const CALL_HEADER_BYTES: usize = 40;

/// Encoded size of a call header whose credential carries a time
/// budget (with or without a trace context).
pub const BUDGET_CALL_HEADER_BYTES: usize = CALL_HEADER_BYTES + WireContext::len_of(false, true);

/// Encoded size of a success reply header (3 words + auth + stat).
pub const REPLY_HEADER_BYTES: usize = 24;

/// Encoded size of an accepted reply header whose verifier echoes a
/// trace context.
pub const TRACED_REPLY_HEADER_BYTES: usize = REPLY_HEADER_BYTES + WireContext::len_of(true, false);

/// A call-message header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CallHeader {
    /// Transaction id (matches reply to call).
    pub xid: u32,
    /// Remote program number.
    pub prog: u32,
    /// Program version.
    pub vers: u32,
    /// Procedure number — the demultiplexing discriminator.
    pub proc: u32,
}

impl CallHeader {
    /// Writes the header (fixed layout — a single chunk).  While a
    /// client trace span is open on this thread or a time budget is
    /// ambient (a stub's [`crate::deadline::stamp_outbound`] guard, or
    /// the remainder of the budget the request being served brought
    /// in), the credential slot carries that [`WireContext`] instead
    /// of `AUTH_NONE`.
    pub fn write(&self, buf: &mut MarshalBuf) {
        crate::metrics::encode_begin(crate::metrics::Codec::Xdr);
        let ctx = WireContext::outbound();
        let total = CALL_HEADER_BYTES + ctx.wire_len();
        buf.ensure(total);
        let mut c = buf.chunk(total);
        c.put_u32_be_at(0, self.xid);
        c.put_u32_be_at(4, 0); // CALL
        c.put_u32_be_at(8, RPC_VERSION);
        c.put_u32_be_at(12, self.prog);
        c.put_u32_be_at(16, self.vers);
        c.put_u32_be_at(20, self.proc);
        let verf = put_auth_at(&mut c, 24, ctx);
        c.put_u32_be_at(verf, 0); // verf flavor AUTH_NONE
        c.put_u32_be_at(verf + 4, 0); // verf length 0
    }

    /// Reads and validates a call header.
    pub fn read(r: &mut MsgReader<'_>) -> Result<Self, DecodeError> {
        let c = r.chunk(24)?;
        let xid = c.get_u32_be_at(0);
        if c.get_u32_be_at(4) != 0 {
            return Err(DecodeError::BadHeader("expected CALL message"));
        }
        if c.get_u32_be_at(8) != RPC_VERSION {
            return Err(DecodeError::BadHeader("unsupported RPC version"));
        }
        let prog = c.get_u32_be_at(12);
        let vers = c.get_u32_be_at(16);
        let proc = c.get_u32_be_at(20);
        skip_auth(r)?; // cred
        skip_auth(r)?; // verf
        Ok(CallHeader {
            xid,
            prog,
            vers,
            proc,
        })
    }
}

fn skip_auth(r: &mut MsgReader<'_>) -> Result<(), DecodeError> {
    let _flavor = xdr::get_u32(r)?;
    let len = xdr::get_u32(r)? as usize;
    r.skip(crate::align_up(len, 4))
}

/// Writes the authenticator carrying `ctx` at `off` — `AUTH_NONE` when
/// it is empty, else the `FLKT` flavor around its blob — and returns
/// the offset just past it.
fn put_auth_at(c: &mut ChunkWriter<'_>, off: usize, ctx: WireContext) -> usize {
    let len = ctx.wire_len();
    let flavor = if len == 0 {
        0 // AUTH_NONE
    } else {
        crate::trace::ONC_TRACE_AUTH_FLAVOR
    };
    c.put_u32_be_at(off, flavor);
    c.put_u32_be_at(off + 4, len as u32);
    ctx.put_at(c, off + 8);
    off + 8 + len
}

/// Reads one authenticator like [`skip_auth`], capturing the
/// [`WireContext`] of an `FLKT` flavor.  Any other flavor, or a blob
/// the codec does not know, reads as the empty context.
fn read_auth_context(r: &mut MsgReader<'_>) -> Result<WireContext, DecodeError> {
    let flavor = xdr::get_u32(r)?;
    let len = xdr::get_u32(r)? as usize;
    let body = r.bytes(crate::align_up(len, 4))?;
    Ok(if flavor == crate::trace::ONC_TRACE_AUTH_FLAVOR {
        WireContext::decode(&body[..len]).unwrap_or_default()
    } else {
        WireContext::default()
    })
}

/// Why a reply did not carry results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplyOutcome {
    /// Accepted and executed successfully; results follow.
    Success,
    /// Program number not exported by the server.
    ProgUnavail,
    /// Program exported, but not at the requested version; the served
    /// range follows the status word (RFC 1831 `PROG_MISMATCH`).
    ProgMismatch {
        /// Lowest version served.
        low: u32,
        /// Highest version served.
        high: u32,
    },
    /// Procedure number unknown to the program.
    ProcUnavail,
    /// Arguments could not be decoded.
    GarbageArgs,
    /// The server (or a gateway acting for it) failed internally after
    /// accepting the call — RFC 1831's `SYSTEM_ERR`.
    SystemErr,
    /// The call was rejected outright (auth/version mismatch).
    Denied,
}

impl ReplyOutcome {
    fn accept_stat(self) -> u32 {
        match self {
            ReplyOutcome::Success => 0,
            ReplyOutcome::ProgUnavail => 1,
            ReplyOutcome::ProgMismatch { .. } => 2,
            ReplyOutcome::ProcUnavail => 3,
            ReplyOutcome::GarbageArgs => 4,
            ReplyOutcome::SystemErr => 5,
            ReplyOutcome::Denied => unreachable!("denied is not an accept_stat"),
        }
    }
}

/// Writes a reply header for `outcome` (results follow for `Success`).
///
/// When the request being answered carried a trace context (noted by
/// [`accept_call`]), an accepted reply echoes it in the verifier slot
/// — so a reply is only ever variable-length toward a peer that
/// already parses variable-length verifiers.  Denied replies have no
/// verifier and never echo.
pub fn write_reply(buf: &mut MarshalBuf, xid: u32, outcome: ReplyOutcome) {
    let ctx = if outcome == ReplyOutcome::Denied {
        WireContext::default()
    } else {
        WireContext::reply()
    };
    write_reply_with(buf, xid, outcome, ctx);
}

/// [`write_reply`] that never echoes the thread's noted trace context.
/// The fabric's admission preflight uses it to synthesize shed/expired
/// replies *before* any header decode — at that point the thread-local
/// context still belongs to some previous request and echoing it would
/// mislabel the reply.
pub fn write_reply_plain(buf: &mut MarshalBuf, xid: u32, outcome: ReplyOutcome) {
    write_reply_with(buf, xid, outcome, WireContext::default());
}

fn write_reply_with(buf: &mut MarshalBuf, xid: u32, outcome: ReplyOutcome, ctx: WireContext) {
    crate::metrics::encode_begin(crate::metrics::Codec::Xdr);
    buf.ensure(TRACED_REPLY_HEADER_BYTES + 8);
    {
        let mut c = buf.chunk(REPLY_HEADER_BYTES + ctx.wire_len());
        c.put_u32_be_at(0, xid);
        c.put_u32_be_at(4, 1); // REPLY
        if outcome == ReplyOutcome::Denied {
            c.put_u32_be_at(8, 1); // MSG_DENIED
            c.put_u32_be_at(12, 0); // RPC_MISMATCH
            c.put_u32_be_at(16, RPC_VERSION); // low
            c.put_u32_be_at(20, RPC_VERSION); // high
        } else {
            c.put_u32_be_at(8, 0); // MSG_ACCEPTED
            let stat = put_auth_at(&mut c, 12, ctx); // verifier
            c.put_u32_be_at(stat, outcome.accept_stat());
        }
    }
    if let ReplyOutcome::ProgMismatch { low, high } = outcome {
        let mut c = buf.chunk(8);
        c.put_u32_be_at(0, low);
        c.put_u32_be_at(4, high);
    }
}

/// Reads a reply header; `Ok(xid)` only for successful replies.
pub fn read_reply(r: &mut MsgReader<'_>) -> Result<u32, DecodeError> {
    let c = r.chunk(REPLY_HEADER_BYTES)?;
    let xid = c.get_u32_be_at(0);
    if c.get_u32_be_at(4) != 1 {
        return Err(DecodeError::BadHeader("expected REPLY message"));
    }
    if c.get_u32_be_at(8) != 0 {
        return Err(DecodeError::BadHeader("call denied"));
    }
    if c.get_u32_be_at(20) != 0 {
        return Err(DecodeError::BadHeader(
            "call not executed (accept_stat != SUCCESS)",
        ));
    }
    Ok(xid)
}

/// What a reply actually said — every outcome a well-formed reply can
/// carry, including the error forms [`read_reply`] folds into `Err`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplyVerdict {
    /// `MSG_ACCEPTED` + `SUCCESS`; results follow in the reader.
    Success,
    /// `PROG_UNAVAIL`.
    ProgUnavail,
    /// `PROG_MISMATCH` with the served version range.
    ProgMismatch {
        /// Lowest version served.
        low: u32,
        /// Highest version served.
        high: u32,
    },
    /// `PROC_UNAVAIL`.
    ProcUnavail,
    /// `GARBAGE_ARGS` — the server could not decode our arguments.
    GarbageArgs,
    /// `SYSTEM_ERR` (RFC 1831's accept stat 5).
    SystemErr,
    /// `MSG_DENIED` / `RPC_MISMATCH` with the supported RPC versions.
    RpcMismatch {
        /// Lowest RPC version supported.
        low: u32,
        /// Highest RPC version supported.
        high: u32,
    },
    /// `MSG_DENIED` / `AUTH_ERROR` with the auth status.
    AuthError(u32),
}

/// Reads a reply header in full, returning the xid and the verdict.
/// Unlike [`read_reply`], protocol-level error replies parse cleanly;
/// only malformed bytes return `Err`.
pub fn read_reply_verdict(r: &mut MsgReader<'_>) -> Result<(u32, ReplyVerdict), DecodeError> {
    read_reply_verdict_traced(r).map(|(xid, verdict, _)| (xid, verdict))
}

/// [`read_reply_verdict`] that also surfaces the trace context an
/// accepted reply's verifier echoed, if any.
pub fn read_reply_verdict_traced(
    r: &mut MsgReader<'_>,
) -> Result<(u32, ReplyVerdict, Option<TraceContext>), DecodeError> {
    let at = r.pos();
    let c = r.chunk(12).map_err(|e| e.at(at))?;
    let xid = c.get_u32_be_at(0);
    if c.get_u32_be_at(4) != 1 {
        return Err(DecodeError::BadHeader("expected REPLY message").at(at));
    }
    let mut trace = None;
    let verdict = match c.get_u32_be_at(8) {
        0 => {
            // MSG_ACCEPTED: verifier, then accept_stat (replies only
            // ever echo the trace; a budget there is meaningless).
            trace = read_auth_context(r).map_err(|e| e.at(at))?.trace;
            let stat_at = r.pos();
            let stat = xdr::get_u32(r).map_err(|e| e.at(stat_at))?;
            match stat {
                0 => ReplyVerdict::Success,
                1 => ReplyVerdict::ProgUnavail,
                2 => {
                    let c = r.chunk(8).map_err(|e| e.at(stat_at))?;
                    ReplyVerdict::ProgMismatch {
                        low: c.get_u32_be_at(0),
                        high: c.get_u32_be_at(4),
                    }
                }
                3 => ReplyVerdict::ProcUnavail,
                4 => ReplyVerdict::GarbageArgs,
                5 => ReplyVerdict::SystemErr,
                other => {
                    return Err(DecodeError::BadDiscriminator {
                        value: i64::from(other),
                    }
                    .at(stat_at))
                }
            }
        }
        1 => {
            // MSG_DENIED: reject_stat discriminates the payload.
            let stat_at = r.pos();
            let stat = xdr::get_u32(r).map_err(|e| e.at(stat_at))?;
            match stat {
                0 => {
                    let c = r.chunk(8).map_err(|e| e.at(stat_at))?;
                    ReplyVerdict::RpcMismatch {
                        low: c.get_u32_be_at(0),
                        high: c.get_u32_be_at(4),
                    }
                }
                1 => ReplyVerdict::AuthError(xdr::get_u32(r).map_err(|e| e.at(stat_at))?),
                other => {
                    return Err(DecodeError::BadDiscriminator {
                        value: i64::from(other),
                    }
                    .at(stat_at))
                }
            }
        }
        other => {
            return Err(DecodeError::BadDiscriminator {
                value: i64::from(other),
            }
            .at(at))
        }
    };
    Ok((xid, verdict, trace))
}

/// Validates one inbound call `record` against the served
/// `(prog, vers)`, writing the protocol-level error reply into `reply`
/// when the call must be refused.
///
/// `Ok` hands back the parsed header and the argument bytes.  `Err`
/// means the call was not accepted: `Err(true)` when `reply` now holds
/// an error reply to send, `Err(false)` when the record was too
/// mangled to answer safely (not a call, or no xid to echo).
#[allow(clippy::result_unit_err)]
pub fn accept_call<'a>(
    record: &'a [u8],
    prog: u32,
    vers: u32,
    reply: &mut MarshalBuf,
) -> Result<(CallHeader, &'a [u8]), bool> {
    reply.clear();
    WireContext::default().adopt();
    let mut r = MsgReader::new(record);
    let Ok(c) = r.chunk(24) else {
        return Err(false); // no xid to echo
    };
    let xid = c.get_u32_be_at(0);
    if c.get_u32_be_at(4) != 0 {
        // Not a CALL — never answer (a reply to a reply can loop).
        return Err(false);
    }
    if c.get_u32_be_at(8) != RPC_VERSION {
        write_reply(reply, xid, ReplyOutcome::Denied);
        return Err(true);
    }
    let h = CallHeader {
        xid,
        prog: c.get_u32_be_at(12),
        vers: c.get_u32_be_at(16),
        proc: c.get_u32_be_at(20),
    };
    match read_auth_context(&mut r) {
        Ok(ctx) if skip_auth(&mut r).is_ok() => ctx.adopt(),
        _ => {
            write_reply(reply, xid, ReplyOutcome::GarbageArgs);
            return Err(true);
        }
    }
    if h.prog != prog {
        write_reply(reply, xid, ReplyOutcome::ProgUnavail);
        return Err(true);
    }
    if h.vers != vers {
        write_reply(
            reply,
            xid,
            ReplyOutcome::ProgMismatch {
                low: vers,
                high: vers,
            },
        );
        return Err(true);
    }
    Ok((h, &record[r.pos()..]))
}

/// What [`peek_call`] saw at the front of a call record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CallPeek {
    /// Transaction id to echo in a synthesized refusal.
    pub xid: u32,
    /// What the credential carried.
    pub context: WireContext,
}

/// Cheaply inspects a call record for admission control: the xid and
/// the credential's [`WireContext`], without touching the thread's
/// trace or deadline registers and without validating the rest of the
/// header.  `None` when the record is not a CALL or its credential
/// cannot be read — such records go through [`accept_call`]'s full
/// refusal logic instead.
#[must_use]
pub fn peek_call(record: &[u8]) -> Option<CallPeek> {
    let mut r = MsgReader::new(record);
    let c = r.chunk(24).ok()?;
    if c.get_u32_be_at(4) != 0 {
        return None; // not a CALL
    }
    Some(CallPeek {
        xid: c.get_u32_be_at(0),
        context: read_auth_context(&mut r).ok()?,
    })
}

/// Prefixes `record` with TCP record marking (single final fragment).
pub fn frame_record(record: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(record.len() + 4);
    let mark = 0x8000_0000u32 | record.len() as u32;
    out.extend_from_slice(&mark.to_be_bytes());
    out.extend_from_slice(record);
    crate::metrics::encode_end(crate::metrics::Codec::Xdr, out.len() as u64);
    out
}

/// Appends `record` with TCP record marking (single final fragment) to
/// `out` — the allocation-free form of [`frame_record`].  The
/// connection fabric uses it to coalesce several queued replies into
/// one contiguous flush.
pub fn frame_record_into(record: &[u8], out: &mut MarshalBuf) {
    // The record mark carries a 31-bit length; a larger record would
    // silently corrupt the final-fragment bit.
    assert!(
        record.len() < 0x8000_0000,
        "record of {} bytes exceeds the 31-bit record-mark length",
        record.len()
    );
    out.ensure(record.len() + 4);
    out.put_u32_be(0x8000_0000u32 | record.len() as u32);
    out.put_bytes(record);
    crate::metrics::encode_end(crate::metrics::Codec::Xdr, record.len() as u64 + 4);
}

/// What scanning the front of a byte stream for one record found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordScan<'a> {
    /// A complete single-fragment record: the payload, borrowed from
    /// the stream, plus the total bytes consumed (mark + payload).
    Complete(&'a [u8], usize),
    /// The record starts with a non-final fragment; assemble it with
    /// [`deframe_record_limited`] instead (it may still be truncated).
    Fragmented,
    /// Not enough bytes yet for the mark or the announced payload.
    Partial,
}

/// Zero-copy scan for one record at the front of `stream`.  The common
/// single-final-fragment case borrows the payload straight out of the
/// receive buffer; a mark announcing more than `max_bytes` is an error
/// before any allocation, exactly like [`deframe_record_limited`].
pub fn scan_record_limited(stream: &[u8], max_bytes: usize) -> Result<RecordScan<'_>, DecodeError> {
    if stream.len() < 4 {
        return Ok(RecordScan::Partial);
    }
    let mark = u32::from_be_bytes(stream[..4].try_into().expect("len 4"));
    let last = mark & 0x8000_0000 != 0;
    let len = (mark & 0x7fff_ffff) as usize;
    if len > max_bytes {
        crate::metrics::reject(crate::metrics::Codec::Xdr);
        return Err(DecodeError::BoundExceeded {
            got: len as u64,
            bound: max_bytes as u64,
        });
    }
    if !last {
        return Ok(RecordScan::Fragmented);
    }
    if stream.len() < 4 + len {
        return Ok(RecordScan::Partial);
    }
    Ok(RecordScan::Complete(&stream[4..4 + len], 4 + len))
}

/// Default cap on a record (and on any one fragment): a hostile
/// `0x7fffffff` record mark must not force a 2 GiB allocation before a
/// single payload byte arrives.
pub const MAX_RECORD_BYTES: usize = 16 * 1024 * 1024;

/// Extracts one record from `stream`, returning `(record, consumed)`.
/// Handles multi-fragment records; fragments and the assembled record
/// are capped at [`MAX_RECORD_BYTES`].
pub fn deframe_record(stream: &[u8]) -> Result<(Vec<u8>, usize), DecodeError> {
    deframe_record_limited(stream, MAX_RECORD_BYTES)
}

/// [`deframe_record`] with a caller-chosen record-size cap.  A record
/// mark announcing more than `max_bytes` — alone or accumulated across
/// fragments — is rejected *before* any allocation of that size.  The
/// fragments are copied once, into exactly the record's length, and
/// only when every one of them is buffered.
pub fn deframe_record_limited(
    stream: &[u8],
    max_bytes: usize,
) -> Result<(Vec<u8>, usize), DecodeError> {
    match record_extent(stream, max_bytes)? {
        RecordExtent::Whole { payload, used } => {
            Ok((assemble_record(&stream[..used], payload), used))
        }
        RecordExtent::Partial { needed, .. } => Err(DecodeError::Truncated {
            needed,
            available: stream.len(),
        }),
    }
}

/// How much of one record sits at the front of a stream, found by
/// walking its record marks without copying a byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordExtent {
    /// Every fragment is buffered.
    Whole {
        /// The record's length: the sum of its fragments'.
        payload: usize,
        /// Stream bytes the record takes, marks included.
        used: usize,
    },
    /// More bytes are needed.
    Partial {
        /// The stream length the walk needs next: the next mark, or
        /// the rest of the fragment it is in.
        needed: usize,
        /// Stream bytes the record will take, marks included — known
        /// once its last mark is buffered.
        used: Option<usize>,
    },
}

/// Walks the record marks at the front of `stream` up to the last
/// fragment's, copying nothing: a record that arrives over many reads
/// is assembled once, when it is whole ([`assemble_record`]), not once
/// per read.  A fragment, or the fragments so far, announcing more
/// than `max_bytes` is an error as soon as its mark is buffered.
pub fn record_extent(stream: &[u8], max_bytes: usize) -> Result<RecordExtent, DecodeError> {
    let (mut pos, mut payload) = (0usize, 0usize);
    loop {
        let Some(mark) = stream.get(pos..pos + 4) else {
            return Ok(RecordExtent::Partial {
                needed: pos + 4,
                used: None,
            });
        };
        let mark = u32::from_be_bytes(mark.try_into().expect("len 4"));
        let last = mark & 0x8000_0000 != 0;
        let len = (mark & 0x7fff_ffff) as usize;
        if len > max_bytes || payload + len > max_bytes {
            crate::metrics::reject(crate::metrics::Codec::Xdr);
            return Err(DecodeError::BoundExceeded {
                got: (payload + len) as u64,
                bound: max_bytes as u64,
            });
        }
        pos += 4 + len;
        payload += len;
        if stream.len() < pos {
            return Ok(RecordExtent::Partial {
                needed: pos,
                used: last.then_some(pos),
            });
        }
        if last {
            return Ok(RecordExtent::Whole { payload, used: pos });
        }
    }
}

/// Copies the fragments of `stream`, which holds exactly one whole
/// record of `payload` bytes (its [`RecordExtent::Whole`] extent), into
/// one buffer of exactly that length.
#[must_use]
pub fn assemble_record(stream: &[u8], payload: usize) -> Vec<u8> {
    crate::metrics::decode_begin(crate::metrics::Codec::Xdr);
    let mut record = Vec::with_capacity(payload);
    let mut rest = stream;
    while let [a, b, c, d, tail @ ..] = rest {
        let len = (u32::from_be_bytes([*a, *b, *c, *d]) & 0x7fff_ffff) as usize;
        record.extend_from_slice(&tail[..len]);
        rest = &tail[len..];
    }
    debug_assert_eq!(record.len(), payload, "the extent was not this stream's");
    crate::metrics::decode_end(crate::metrics::Codec::Xdr, stream.len() as u64);
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_header_roundtrip() {
        // The paper's example program number.
        let h = CallHeader {
            xid: 99,
            prog: 0x2000_0001,
            vers: 1,
            proc: 1,
        };
        let mut b = MarshalBuf::new();
        h.write(&mut b);
        assert_eq!(b.len(), CALL_HEADER_BYTES);
        let data = b.into_vec();
        let mut r = MsgReader::new(&data);
        assert_eq!(CallHeader::read(&mut r).unwrap(), h);
        assert!(r.is_exhausted());
    }

    #[test]
    fn success_reply_roundtrip() {
        let mut b = MarshalBuf::new();
        write_reply(&mut b, 7, ReplyOutcome::Success);
        let data = b.into_vec();
        let mut r = MsgReader::new(&data);
        assert_eq!(read_reply(&mut r).unwrap(), 7);
    }

    #[test]
    fn error_replies_rejected_by_reader() {
        for outcome in [
            ReplyOutcome::ProgUnavail,
            ReplyOutcome::ProgMismatch { low: 1, high: 2 },
            ReplyOutcome::ProcUnavail,
            ReplyOutcome::GarbageArgs,
            ReplyOutcome::SystemErr,
            ReplyOutcome::Denied,
        ] {
            let mut b = MarshalBuf::new();
            write_reply(&mut b, 7, outcome);
            let data = b.into_vec();
            let mut r = MsgReader::new(&data);
            assert!(
                read_reply(&mut r).is_err(),
                "{outcome:?} must not read as success"
            );
        }
    }

    #[test]
    fn a_record_is_walked_until_whole_then_assembled_at_its_length() {
        // "hel" (not last) + "lo" (last): 3 + 2 payload, 13 stream bytes.
        let mut stream = vec![0, 0, 0, 3, b'h', b'e', b'l'];
        stream.extend_from_slice(&[0x80, 0, 0, 2, b'l', b'o']);
        let extents: Vec<_> = (0..=stream.len())
            .map(|n| record_extent(&stream[..n], 64).unwrap())
            .collect();
        // The length is unknown until the last mark is buffered...
        assert_eq!(
            extents[10],
            RecordExtent::Partial {
                needed: 11,
                used: None
            }
        );
        assert_eq!(
            extents[11],
            RecordExtent::Partial {
                needed: 13,
                used: Some(13)
            }
        );
        // ...and the record is whole only at its last byte.
        assert_eq!(
            extents[13],
            RecordExtent::Whole {
                payload: 5,
                used: 13
            }
        );
        assert!(extents[..13]
            .iter()
            .all(|e| matches!(e, RecordExtent::Partial { .. })));
        let (rec, used) = deframe_record(&stream).unwrap();
        assert_eq!((rec.as_slice(), used), (&b"hello"[..], 13));
        assert_eq!(rec.capacity(), rec.len(), "assembled once, at its length");
        assert!(matches!(
            record_extent(&stream, 4),
            Err(DecodeError::BoundExceeded { got: 5, bound: 4 })
        ));
    }

    #[test]
    fn record_marking_roundtrip() {
        let framed = frame_record(b"payload");
        assert_eq!(framed.len(), 11);
        assert_eq!(framed[0] & 0x80, 0x80, "final-fragment bit set");
        let (rec, used) = deframe_record(&framed).unwrap();
        assert_eq!(rec, b"payload");
        assert_eq!(used, framed.len());
    }

    #[test]
    fn multi_fragment_record() {
        // Two fragments: "hel" (not last) + "lo" (last).
        let mut stream = Vec::new();
        stream.extend_from_slice(&3u32.to_be_bytes());
        stream.extend_from_slice(b"hel");
        stream.extend_from_slice(&(0x8000_0000u32 | 2).to_be_bytes());
        stream.extend_from_slice(b"lo");
        let (rec, used) = deframe_record(&stream).unwrap();
        assert_eq!(rec, b"hello");
        assert_eq!(used, stream.len());
    }

    #[test]
    fn partial_stream_truncated() {
        let framed = frame_record(b"payload");
        assert!(deframe_record(&framed[..5]).is_err());
        assert!(deframe_record(&[]).is_err());
    }

    #[test]
    fn verdict_roundtrips_every_outcome() {
        let cases = [
            (ReplyOutcome::Success, ReplyVerdict::Success),
            (ReplyOutcome::ProgUnavail, ReplyVerdict::ProgUnavail),
            (
                ReplyOutcome::ProgMismatch { low: 2, high: 5 },
                ReplyVerdict::ProgMismatch { low: 2, high: 5 },
            ),
            (ReplyOutcome::ProcUnavail, ReplyVerdict::ProcUnavail),
            (ReplyOutcome::GarbageArgs, ReplyVerdict::GarbageArgs),
            (ReplyOutcome::SystemErr, ReplyVerdict::SystemErr),
            (
                ReplyOutcome::Denied,
                ReplyVerdict::RpcMismatch {
                    low: RPC_VERSION,
                    high: RPC_VERSION,
                },
            ),
        ];
        for (outcome, want) in cases {
            let mut b = MarshalBuf::new();
            write_reply(&mut b, 31, outcome);
            let data = b.into_vec();
            let mut r = MsgReader::new(&data);
            let (xid, got) = read_reply_verdict(&mut r).expect("well-formed reply");
            assert_eq!(xid, 31);
            assert_eq!(got, want, "{outcome:?}");
        }
    }

    #[test]
    fn verdict_rejects_garbage_with_offsets() {
        let mut r = MsgReader::new(&[0u8; 4]);
        assert!(read_reply_verdict(&mut r).is_err());

        // accept_stat out of range: annotated with its offset.
        let mut b = MarshalBuf::new();
        write_reply(&mut b, 1, ReplyOutcome::Success);
        let mut data = b.into_vec();
        data[23] = 9; // accept_stat = 9
        let mut r = MsgReader::new(&data);
        let err = read_reply_verdict(&mut r).unwrap_err();
        assert_eq!(err.offset(), Some(20));
        assert_eq!(err.root(), &DecodeError::BadDiscriminator { value: 9 });
    }

    #[test]
    fn accept_call_accepts_and_refuses() {
        let mut reply = MarshalBuf::new();
        let mut buf = MarshalBuf::new();
        let h = CallHeader {
            xid: 5,
            prog: 100,
            vers: 2,
            proc: 1,
        };
        h.write(&mut buf);
        buf.put_u32_be(77); // one argument word
        let record = buf.into_vec();

        // Exact match: accepted, args handed back.
        let (got, body) = accept_call(&record, 100, 2, &mut reply).expect("accepted");
        assert_eq!(got, h);
        assert_eq!(body, &77u32.to_be_bytes());

        let verdict_of = |reply: &MarshalBuf| {
            let data = reply.as_slice();
            let mut r = MsgReader::new(data);
            read_reply_verdict(&mut r).expect("reply parses").1
        };

        // Wrong program: PROG_UNAVAIL.
        assert_eq!(accept_call(&record, 101, 2, &mut reply), Err(true));
        assert_eq!(verdict_of(&reply), ReplyVerdict::ProgUnavail);

        // Wrong version: PROG_MISMATCH carrying the served range.
        assert_eq!(accept_call(&record, 100, 3, &mut reply), Err(true));
        assert_eq!(
            verdict_of(&reply),
            ReplyVerdict::ProgMismatch { low: 3, high: 3 }
        );

        // Wrong RPC version: denied.
        let mut bad = record.clone();
        bad[11] = 9; // rpcvers = 9
        assert_eq!(accept_call(&bad, 100, 2, &mut reply), Err(true));
        assert!(matches!(
            verdict_of(&reply),
            ReplyVerdict::RpcMismatch { .. }
        ));

        // Too short for an xid / not a call: silence.
        assert_eq!(accept_call(&[1, 2, 3], 100, 2, &mut reply), Err(false));
        let mut not_call = record;
        not_call[7] = 1; // msg_type = REPLY
        assert_eq!(accept_call(&not_call, 100, 2, &mut reply), Err(false));
    }

    #[test]
    fn hostile_record_mark_rejected_without_allocation() {
        // A lone 0x7fffffff mark (final fragment, 2 GiB length).
        let mark = 0xffff_ffffu32.to_be_bytes();
        let err = deframe_record(&mark).unwrap_err();
        assert_eq!(
            err,
            DecodeError::BoundExceeded {
                got: 0x7fff_ffff,
                bound: MAX_RECORD_BYTES as u64,
            }
        );
        // Many small fragments accumulating past the cap fail too.
        let mut stream = Vec::new();
        for _ in 0..3 {
            stream.extend_from_slice(&(8 * 1024 * 1024u32).to_be_bytes());
            stream.extend_from_slice(&vec![0u8; 8 * 1024 * 1024]);
        }
        stream.extend_from_slice(&0x8000_0000u32.to_be_bytes());
        assert!(matches!(
            deframe_record(&stream),
            Err(DecodeError::BoundExceeded { .. })
        ));
        // A caller-raised cap admits what the default refuses.
        let mut ok = Vec::new();
        ok.extend_from_slice(&(0x8000_0000u32 | 5).to_be_bytes());
        ok.extend_from_slice(b"hello");
        assert!(deframe_record_limited(&ok, 4).is_err());
        assert!(deframe_record_limited(&ok, 5).is_ok());
    }

    #[test]
    fn traced_call_and_reply_carry_the_context() {
        let _guard = crate::trace::test_lock();
        flick_telemetry::set_enabled(true);

        // Client side: an open span stamps the call's credential.
        let span = crate::trace::client_begin("onc_traced_unit");
        let ctx = span.context().expect("span live while enabled");
        let h = CallHeader {
            xid: 77,
            prog: 9,
            vers: 1,
            proc: 2,
        };
        let mut b = MarshalBuf::new();
        h.write(&mut b);
        assert_eq!(
            b.len(),
            CALL_HEADER_BYTES + WireContext::len_of(true, false)
        );
        let record = b.into_vec();
        let _ = span.finish_call(Ok(crate::pool::checkout().into()));

        // Untouched readers still parse the traced header.
        let mut r = MsgReader::new(&record);
        assert_eq!(CallHeader::read(&mut r).unwrap(), h);
        assert!(r.is_exhausted());

        // Server side: context extracted, noted, echoed in the reply.
        let mut reply = MarshalBuf::new();
        let (got, body) = accept_call(&record, 9, 1, &mut reply).expect("accepted");
        assert_eq!(got, h);
        assert!(body.is_empty());
        assert_eq!(crate::trace::reply_context(), Some(ctx));
        let mut out = MarshalBuf::new();
        write_reply(&mut out, 77, ReplyOutcome::Success);
        let data = out.into_vec();
        assert_eq!(data.len(), TRACED_REPLY_HEADER_BYTES);
        let mut r = MsgReader::new(&data);
        let (xid, verdict, echoed) = read_reply_verdict_traced(&mut r).expect("parses");
        assert_eq!(xid, 77);
        assert_eq!(verdict, ReplyVerdict::Success);
        assert_eq!(
            echoed,
            Some(ctx),
            "reply verifier echoes the request's context"
        );

        // With the span closed the next call is classic 40 bytes, and
        // accepting it clears the noted context — the following reply
        // must not echo a stale trace.
        let mut plain = MarshalBuf::new();
        CallHeader {
            xid: 78,
            prog: 9,
            vers: 1,
            proc: 2,
        }
        .write(&mut plain);
        let plain = plain.into_vec();
        assert_eq!(plain.len(), CALL_HEADER_BYTES);
        let mut reply = MarshalBuf::new();
        accept_call(&plain, 9, 1, &mut reply).expect("accepted");
        assert_eq!(crate::trace::reply_context(), None);
        let mut out = MarshalBuf::new();
        write_reply(&mut out, 78, ReplyOutcome::Success);
        assert_eq!(out.len(), REPLY_HEADER_BYTES);
        flick_telemetry::set_enabled(false);
    }

    #[test]
    fn budgeted_call_header_roundtrips_and_propagates() {
        crate::deadline::clear_inbound();
        let h = CallHeader {
            xid: 501,
            prog: 9,
            vers: 1,
            proc: 2,
        };
        let mut b = MarshalBuf::new();
        {
            let _g = crate::deadline::stamp_outbound(std::time::Duration::from_millis(250));
            h.write(&mut b);
        }
        assert_eq!(b.len(), BUDGET_CALL_HEADER_BYTES);
        let record = b.into_vec();

        // Untouched readers still parse the budgeted header.
        let mut r = MsgReader::new(&record);
        assert_eq!(CallHeader::read(&mut r).unwrap(), h);
        assert!(r.is_exhausted());

        // The admission peek sees the xid and budget without parsing.
        assert_eq!(
            peek_call(&record),
            Some(CallPeek {
                xid: 501,
                context: WireContext {
                    trace: None,
                    budget_ns: Some(250_000_000),
                },
            })
        );

        // accept_call notes the inbound budget...
        let mut reply = MarshalBuf::new();
        let (got, body) = accept_call(&record, 9, 1, &mut reply).expect("accepted");
        assert_eq!(got, h);
        assert!(body.is_empty());
        let left = crate::deadline::inbound_remaining_ns().expect("budget noted");
        assert!(left <= 250_000_000);

        // ...and a header written while serving it forwards what is
        // left: the per-hop decrement, with no explicit stamp.
        let mut fwd = MarshalBuf::new();
        CallHeader { xid: 502, ..h }.write(&mut fwd);
        assert_eq!(fwd.len(), BUDGET_CALL_HEADER_BYTES);
        let peek = peek_call(fwd.as_slice()).expect("peeks");
        let forwarded = peek.context.budget_ns.expect("budget forwarded");
        assert!(forwarded <= left, "budget only ever shrinks per hop");

        // Accepting a budgetless call clears the note; the next header
        // is the classic 40 bytes again.
        crate::deadline::clear_inbound();
        let mut p = MarshalBuf::new();
        CallHeader { xid: 504, ..h }.write(&mut p);
        assert_eq!(p.len(), CALL_HEADER_BYTES);
        let plain = p.into_vec();
        assert_eq!(peek_call(&plain).unwrap().context, WireContext::default());
        crate::deadline::note_inbound(std::time::Instant::now(), 1_000_000);
        accept_call(&plain, 9, 1, &mut reply).expect("accepted");
        assert_eq!(crate::deadline::inbound_remaining_ns(), None);
        let mut out = MarshalBuf::new();
        CallHeader { xid: 505, ..h }.write(&mut out);
        assert_eq!(out.len(), CALL_HEADER_BYTES);
    }

    #[test]
    fn plain_reply_never_echoes_ambient_trace() {
        let mut b = MarshalBuf::new();
        write_reply_plain(&mut b, 77, ReplyOutcome::SystemErr);
        assert_eq!(b.len(), REPLY_HEADER_BYTES);
        let data = b.into_vec();
        let mut r = MsgReader::new(&data);
        let (xid, verdict, echoed) = read_reply_verdict_traced(&mut r).expect("parses");
        assert_eq!((xid, verdict, echoed), (77, ReplyVerdict::SystemErr, None));
    }

    #[test]
    fn auth_with_body_skipped() {
        // Hand-build a call header with a 5-byte cred (padded to 8).
        let mut b = MarshalBuf::new();
        let mut c = b.chunk(24);
        c.put_u32_be_at(0, 1);
        c.put_u32_be_at(4, 0);
        c.put_u32_be_at(8, 2);
        c.put_u32_be_at(12, 100);
        c.put_u32_be_at(16, 1);
        c.put_u32_be_at(20, 4);
        xdr::put_u32(&mut b, 1); // cred flavor AUTH_SYS
        xdr::put_opaque(&mut b, &[1, 2, 3, 4, 5]); // cred body (padded)
        xdr::put_u32(&mut b, 0); // verf flavor
        xdr::put_u32(&mut b, 0); // verf len
        let data = b.into_vec();
        let mut r = MsgReader::new(&data);
        let h = CallHeader::read(&mut r).unwrap();
        assert_eq!(h.proc, 4);
        assert!(r.is_exhausted());
    }
}
