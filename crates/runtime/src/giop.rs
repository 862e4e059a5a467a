//! GIOP/IIOP message framing (CORBA 2.0, GIOP 1.0).
//!
//! A GIOP message is a 12-byte header (magic `GIOP`, version, a flags
//! byte whose low bit is the sender's byte order, a message type, and
//! the body size) followed by a CDR-encoded body.  Request bodies
//! begin with a request header (request id, response-expected flag,
//! object key, operation name); reply bodies with a reply header
//! (request id, reply status).
//!
//! When a trace span is live or a request carries a time budget (see
//! [`crate::trace`], [`crate::deadline`]), the otherwise empty
//! service-context list at the head of request and reply headers
//! carries one entry: id [`crate::trace::GIOP_TRACE_CONTEXT_ID`]
//! around a [`WireContext`] blob; replies only ever echo the trace.
//! Readers capture the entry into [`RequestHeader::context`] /
//! [`ReplyHeader::trace`]; any other context id is skipped as before.

use crate::buf::{MarshalBuf, MsgReader};
use crate::cdr::{ByteOrder, CdrIn, CdrOut};
use crate::error::DecodeError;
use crate::trace::{TraceContext, WireContext};

/// Size of the fixed GIOP header.
pub const HEADER_BYTES: usize = 12;

/// Cap on the body size a GIOP header may announce — a hostile size
/// field must not force a giant allocation before any body arrives.
pub const MAX_MESSAGE_BYTES: usize = 16 * 1024 * 1024;

/// GIOP message types (GIOP 1.0).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgType {
    /// A client request.
    Request,
    /// A server reply.
    Reply,
    /// Client cancel (unused here, parsed for completeness).
    CancelRequest,
    /// Locate request (unused here).
    LocateRequest,
    /// Locate reply (unused here).
    LocateReply,
    /// Connection close.
    CloseConnection,
    /// Protocol error.
    MessageError,
}

impl MsgType {
    fn to_u8(self) -> u8 {
        match self {
            MsgType::Request => 0,
            MsgType::Reply => 1,
            MsgType::CancelRequest => 2,
            MsgType::LocateRequest => 3,
            MsgType::LocateReply => 4,
            MsgType::CloseConnection => 5,
            MsgType::MessageError => 6,
        }
    }

    fn from_u8(v: u8) -> Result<Self, DecodeError> {
        Ok(match v {
            0 => MsgType::Request,
            1 => MsgType::Reply,
            2 => MsgType::CancelRequest,
            3 => MsgType::LocateRequest,
            4 => MsgType::LocateReply,
            5 => MsgType::CloseConnection,
            6 => MsgType::MessageError,
            _ => return Err(DecodeError::BadHeader("unknown GIOP message type")),
        })
    }
}

/// Reply status values (GIOP 1.0).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplyStatus {
    /// Operation completed normally.
    NoException,
    /// The operation raised a declared exception.
    UserException,
    /// A CORBA system exception occurred.
    SystemException,
    /// Retry at a different location.
    LocationForward,
}

impl ReplyStatus {
    fn to_u32(self) -> u32 {
        match self {
            ReplyStatus::NoException => 0,
            ReplyStatus::UserException => 1,
            ReplyStatus::SystemException => 2,
            ReplyStatus::LocationForward => 3,
        }
    }

    fn from_u32(v: u32) -> Result<Self, DecodeError> {
        Ok(match v {
            0 => ReplyStatus::NoException,
            1 => ReplyStatus::UserException,
            2 => ReplyStatus::SystemException,
            3 => ReplyStatus::LocationForward,
            _ => return Err(DecodeError::BadHeader("unknown GIOP reply status")),
        })
    }
}

/// Writes a GIOP header with a zero size, returning the offset of the
/// size field to [`finish_message`] later.
pub fn begin_message(buf: &mut MarshalBuf, order: ByteOrder, ty: MsgType) -> usize {
    crate::metrics::encode_begin(crate::metrics::Codec::Cdr);
    let mut c = buf.chunk(HEADER_BYTES);
    c.put_bytes_at(0, b"GIOP");
    c.put_u8_at(4, 1); // major
    c.put_u8_at(5, 0); // minor
    c.put_u8_at(6, order.giop_flag());
    c.put_u8_at(7, ty.to_u8());
    // size at offset 8 patched by finish_message
    buf.len() - 4
}

/// Back-patches the body size into the header written by
/// [`begin_message`].
pub fn finish_message(buf: &mut MarshalBuf, size_at: usize, order: ByteOrder) {
    let body = (buf.len() - size_at - 4) as u32;
    match order {
        ByteOrder::Big => buf.patch_u32_be(size_at, body),
        ByteOrder::Little => buf.patch_u32_le(size_at, body),
    }
    crate::metrics::encode_end(crate::metrics::Codec::Cdr, buf.len() as u64);
}

/// A decoded GIOP header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GiopHeader {
    /// Byte order of the body.
    pub order: ByteOrder,
    /// Message type.
    pub msg_type: MsgType,
    /// Body size in bytes.
    pub size: u32,
}

/// Reads and validates a GIOP header, bounding the announced body
/// size by [`MAX_MESSAGE_BYTES`].
pub fn read_header(r: &mut MsgReader<'_>) -> Result<GiopHeader, DecodeError> {
    read_header_limited(r, MAX_MESSAGE_BYTES)
}

/// Reads and validates a GIOP header against a caller-chosen body
/// cap — servers configured with a [`crate::limits::Limits`] pass
/// their `max_frame_bytes` here (a GIOP frame is this body plus the
/// [`HEADER_BYTES`]-byte header).
pub fn read_header_limited(
    r: &mut MsgReader<'_>,
    max_bytes: usize,
) -> Result<GiopHeader, DecodeError> {
    crate::metrics::decode_begin(crate::metrics::Codec::Cdr);
    let c = r.chunk(HEADER_BYTES)?;
    if c.bytes_at(0, 4) != b"GIOP" {
        return Err(DecodeError::BadHeader("bad GIOP magic"));
    }
    if c.get_u8_at(4) != 1 {
        return Err(DecodeError::BadHeader("unsupported GIOP major version"));
    }
    let order = ByteOrder::from_giop_flag(c.get_u8_at(6));
    let msg_type = MsgType::from_u8(c.get_u8_at(7))?;
    let size = match order {
        ByteOrder::Big => c.get_u32_be_at(8),
        ByteOrder::Little => c.get_u32_le_at(8),
    };
    if size as usize > max_bytes {
        crate::metrics::reject(crate::metrics::Codec::Cdr);
        return Err(DecodeError::BoundExceeded {
            got: u64::from(size),
            bound: max_bytes as u64,
        });
    }
    crate::metrics::decode_end(
        crate::metrics::Codec::Cdr,
        HEADER_BYTES as u64 + u64::from(size),
    );
    Ok(GiopHeader {
        order,
        msg_type,
        size,
    })
}

/// Writes the service-context list: one `FLKT` entry carrying `ctx`,
/// or the classic empty list when `ctx` is empty.
fn put_service_contexts(buf: &mut MarshalBuf, cdr: &CdrOut, ctx: WireContext) {
    let len = ctx.wire_len();
    if len == 0 {
        cdr.put_u32(buf, 0); // empty service context list
        return;
    }
    cdr.put_u32(buf, 1); // one service context
    cdr.put_u32(buf, crate::trace::GIOP_TRACE_CONTEXT_ID);
    cdr.put_u32(buf, len as u32);
    ctx.put_at(&mut buf.chunk(len), 0);
}

/// Writes a GIOP 1.0 request header into an open CDR stream.  While a
/// client trace span is open on this thread, the service-context list
/// carries its context; while a time budget is ambient (an explicit
/// [`crate::deadline::stamp_outbound`], or the remainder of the budget
/// the request being served brought in), the entry carries it too.
pub fn put_request_header(
    buf: &mut MarshalBuf,
    cdr: &CdrOut,
    request_id: u32,
    response_expected: bool,
    object_key: &[u8],
    operation: &str,
) {
    put_service_contexts(buf, cdr, WireContext::outbound());
    cdr.put_u32(buf, request_id);
    cdr.put_u8(buf, u8::from(response_expected));
    cdr.put_u32(buf, object_key.len() as u32);
    buf.put_bytes(object_key);
    cdr.put_string(buf, operation);
    cdr.put_u32(buf, 0); // empty requesting principal
}

/// A decoded request header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestHeader {
    /// Request id chosen by the client.
    pub request_id: u32,
    /// False for oneway requests.
    pub response_expected: bool,
    /// Target object key.
    pub object_key: Vec<u8>,
    /// Operation name — the demultiplexing discriminator.
    pub operation: String,
    /// What the service-context list carried.
    pub context: WireContext,
}

/// A request header presented in the marshal buffer: object key and
/// operation borrow from the received message (§3.1 in-buffer
/// presentation), so parsing allocates nothing.  Generated dispatch
/// loops use this form; [`RequestHeader`] remains for callers that
/// need the header to outlive the message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestHeaderRef<'a> {
    /// Request id chosen by the client.
    pub request_id: u32,
    /// False for oneway requests.
    pub response_expected: bool,
    /// Target object key, borrowed from the message.
    pub object_key: &'a [u8],
    /// Operation name — the demultiplexing discriminator — borrowed
    /// from the message.
    pub operation: &'a str,
    /// What the service-context list carried.
    pub context: WireContext,
}

impl RequestHeaderRef<'_> {
    /// Copies the borrowed fields into an owned [`RequestHeader`].
    #[must_use]
    pub fn to_owned(&self) -> RequestHeader {
        RequestHeader {
            request_id: self.request_id,
            response_expected: self.response_expected,
            object_key: self.object_key.to_vec(),
            operation: self.operation.to_string(),
            context: self.context,
        }
    }
}

/// Reads a request header from an open CDR stream without allocating:
/// the object key and operation name borrow from the message.  Notes
/// the carried trace context and time budget (or their absence) for
/// this thread's server spans, reply headers, and forwarded budgets.
pub fn get_request_header_ref<'a>(
    r: &mut MsgReader<'a>,
    cdr: &CdrIn,
) -> Result<RequestHeaderRef<'a>, DecodeError> {
    WireContext::default().adopt();
    let context = read_service_contexts(r, cdr)?;
    context.adopt();
    // Every field carries its offset so a gateway (or server) refusing
    // the message can report where the bytes went wrong — the borrowed
    // fast path reports exactly like the owned one.
    let at = r.pos();
    let request_id = cdr.get_u32(r).map_err(|e| e.at(at))?;
    let at = r.pos();
    let response_expected = cdr.get_u8(r).map_err(|e| e.at(at))? != 0;
    let at = r.pos();
    let klen = cdr.get_u32(r).map_err(|e| e.at(at))? as usize;
    let object_key = r.bytes(klen).map_err(|e| e.at(at))?;
    let at = r.pos();
    let operation = std::str::from_utf8(cdr.get_string(r).map_err(|e| e.at(at))?)
        .map_err(|_| DecodeError::BadValue("operation name is not UTF-8").at(at))?;
    let at = r.pos();
    let _principal = cdr.get_u32(r).map_err(|e| e.at(at))?;
    Ok(RequestHeaderRef {
        request_id,
        response_expected,
        object_key,
        operation,
        context,
    })
}

/// Reads a request header into owned storage — a copying facade over
/// [`get_request_header_ref`].
pub fn get_request_header(
    r: &mut MsgReader<'_>,
    cdr: &CdrIn,
) -> Result<RequestHeader, DecodeError> {
    Ok(get_request_header_ref(r, cdr)?.to_owned())
}

/// Walks a service-context list, capturing the [`WireContext`] of a
/// well-formed `FLKT` entry and skipping everything else.  Counts
/// whose minimum encoding (8 bytes per context) already exceeds the
/// remaining message are rejected first — a hostile count must not buy
/// `u32::MAX` loop iterations.  Counts nothing: the dispatcher that
/// refuses the message counts the reject, once.
fn read_service_contexts(r: &mut MsgReader<'_>, cdr: &CdrIn) -> Result<WireContext, DecodeError> {
    let at = r.pos();
    let contexts = cdr.get_u32(r)?;
    if contexts as usize > r.remaining() / 8 {
        return Err(DecodeError::BoundExceeded {
            got: u64::from(contexts),
            bound: (r.remaining() / 8) as u64,
        }
        .at(at));
    }
    let mut captured = WireContext::default();
    for _ in 0..contexts {
        // Context id + encapsulated data.
        let id = cdr.get_u32(r)?;
        let at = r.pos();
        let len = cdr.get_u32(r)? as usize;
        let data = r.bytes(len).map_err(|e| e.at(at))?;
        if id == crate::trace::GIOP_TRACE_CONTEXT_ID {
            // A blob the codec does not know is skipped like any other.
            captured = WireContext::decode(data).unwrap_or(captured);
        }
    }
    Ok(captured)
}

/// Writes a GIOP 1.0 reply header into an open CDR stream, echoing the
/// request's trace context (noted by [`get_request_header`]) in the
/// service-context list.  Replies never carry a budget — there is
/// nothing downstream of a reply to spend it.
pub fn put_reply_header(buf: &mut MarshalBuf, cdr: &CdrOut, request_id: u32, status: ReplyStatus) {
    put_service_contexts(buf, cdr, WireContext::reply());
    cdr.put_u32(buf, request_id);
    cdr.put_u32(buf, status.to_u32());
}

/// A decoded reply header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplyHeader {
    /// Echoed request id.
    pub request_id: u32,
    /// Outcome of the request.
    pub status: ReplyStatus,
    /// Trace context echoed by the server, if any.
    pub trace: Option<TraceContext>,
}

/// Reads a reply header from an open CDR stream.
pub fn get_reply_header(r: &mut MsgReader<'_>, cdr: &CdrIn) -> Result<ReplyHeader, DecodeError> {
    let trace = read_service_contexts(r, cdr)?.trace;
    let request_id = cdr.get_u32(r)?;
    let status = ReplyStatus::from_u32(cdr.get_u32(r)?)?;
    Ok(ReplyHeader {
        request_id,
        status,
        trace,
    })
}

/// Writes a complete `MessageError` message — the GIOP-level answer to
/// a request whose header could not be parsed.
pub fn write_message_error(buf: &mut MarshalBuf, order: ByteOrder) {
    let at = begin_message(buf, order, MsgType::MessageError);
    finish_message(buf, at, order);
}

/// What [`peek_request`] saw at the front of a GIOP message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestPeek {
    /// Request id to echo in a synthesized refusal.
    pub request_id: u32,
    /// Body byte order, for encoding the refusal.
    pub order: ByteOrder,
    /// False for oneway requests — a refusal would have no reader.
    pub response_expected: bool,
    /// What the service-context list carried.
    pub context: WireContext,
}

/// Cheaply inspects a GIOP message for admission control: the request
/// id, byte order, response flag, and [`WireContext`], without
/// touching the thread's trace or deadline registers, without
/// validating the rest of the header, and without counting a reject.
/// `None` when the message is not a well-formed GIOP 1.x Request — such
/// messages go through the full dispatch refusal logic instead.
#[must_use]
pub fn peek_request(msg: &[u8]) -> Option<RequestPeek> {
    if msg.len() < HEADER_BYTES || &msg[..4] != b"GIOP" || msg[4] != 1 {
        return None;
    }
    if MsgType::from_u8(msg[7]).ok()? != MsgType::Request {
        return None;
    }
    let order = ByteOrder::from_giop_flag(msg[6]);
    let mut r = MsgReader::new(msg);
    r.skip(HEADER_BYTES).ok()?;
    let cdr = CdrIn::begin(&r, order);
    let context = read_service_contexts(&mut r, &cdr).ok()?;
    let request_id = cdr.get_u32(&mut r).ok()?;
    let response_expected = cdr.get_u8(&mut r).ok()? != 0;
    Some(RequestPeek {
        request_id,
        order,
        response_expected,
        context,
    })
}

/// Writes a complete system-exception Reply message with an *empty*
/// service-context list.  The fabric's admission preflight uses it to
/// synthesize shed/expired refusals before any header decode — at that
/// point the thread-local trace context still belongs to some previous
/// request and echoing it would mislabel the reply.
pub fn write_system_exception_reply(
    buf: &mut MarshalBuf,
    order: ByteOrder,
    request_id: u32,
    repo_id: &str,
    minor: u32,
) {
    let at = begin_message(buf, order, MsgType::Reply);
    let cdr = CdrOut::begin(buf, order);
    put_service_contexts(buf, &cdr, WireContext::default()); // no stale trace
    cdr.put_u32(buf, request_id);
    cdr.put_u32(buf, ReplyStatus::SystemException.to_u32());
    put_system_exception(buf, &cdr, repo_id, minor);
    finish_message(buf, at, order);
}

/// Writes a CORBA system-exception reply *body* (follows a reply
/// header with [`ReplyStatus::SystemException`]): repository id,
/// minor code, completion status `COMPLETED_NO`.
pub fn put_system_exception(buf: &mut MarshalBuf, cdr: &CdrOut, repo_id: &str, minor: u32) {
    cdr.put_string(buf, repo_id);
    cdr.put_u32(buf, minor);
    cdr.put_u32(buf, 1); // COMPLETED_NO
}

/// A decoded system-exception body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SystemException {
    /// Exception repository id, e.g. `IDL:omg.org/CORBA/MARSHAL:1.0`.
    pub repo_id: String,
    /// Minor code.
    pub minor: u32,
    /// Completion status (0 yes, 1 no, 2 maybe).
    pub completed: u32,
}

/// Reads a system-exception body written by [`put_system_exception`].
pub fn get_system_exception(
    r: &mut MsgReader<'_>,
    cdr: &CdrIn,
) -> Result<SystemException, DecodeError> {
    let at = r.pos();
    let repo_id = String::from_utf8(cdr.get_string(r)?.to_vec())
        .map_err(|_| DecodeError::BadValue("exception repo id is not UTF-8").at(at))?;
    let minor = cdr.get_u32(r)?;
    let completed = cdr.get_u32(r)?;
    Ok(SystemException {
        repo_id,
        minor,
        completed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_message_roundtrip() {
        let order = ByteOrder::Big;
        let mut buf = MarshalBuf::new();
        let size_at = begin_message(&mut buf, order, MsgType::Request);
        let cdr = CdrOut::begin(&buf, order);
        put_request_header(&mut buf, &cdr, 42, true, b"mailbox-1", "send");
        cdr.put_u32(&mut buf, 7); // a body datum
        finish_message(&mut buf, size_at, order);

        let data = buf.into_vec();
        let mut r = MsgReader::new(&data);
        let h = read_header(&mut r).unwrap();
        assert_eq!(h.msg_type, MsgType::Request);
        assert_eq!(h.order, ByteOrder::Big);
        assert_eq!(h.size as usize, data.len() - HEADER_BYTES);
        let cin = CdrIn::begin(&r, h.order);
        let rh = get_request_header(&mut r, &cin).unwrap();
        assert_eq!(rh.request_id, 42);
        assert!(rh.response_expected);
        assert_eq!(rh.object_key, b"mailbox-1");
        assert_eq!(rh.operation, "send");
        assert_eq!(cin.get_u32(&mut r).unwrap(), 7);
    }

    #[test]
    fn reply_message_roundtrip_little_endian() {
        let order = ByteOrder::Little;
        let mut buf = MarshalBuf::new();
        let size_at = begin_message(&mut buf, order, MsgType::Reply);
        let cdr = CdrOut::begin(&buf, order);
        put_reply_header(&mut buf, &cdr, 42, ReplyStatus::NoException);
        finish_message(&mut buf, size_at, order);

        let data = buf.into_vec();
        let mut r = MsgReader::new(&data);
        let h = read_header(&mut r).unwrap();
        assert_eq!(h.order, ByteOrder::Little);
        assert_eq!(h.msg_type, MsgType::Reply);
        let cin = CdrIn::begin(&r, h.order);
        let rh = get_reply_header(&mut r, &cin).unwrap();
        assert_eq!(
            rh,
            ReplyHeader {
                request_id: 42,
                status: ReplyStatus::NoException,
                trace: None,
            }
        );
    }

    #[test]
    fn trace_context_rides_the_service_context_list() {
        let _guard = crate::trace::test_lock();
        flick_telemetry::set_enabled(true);
        let order = ByteOrder::Little;

        // Client side: an open span fills the request's context list.
        let span = crate::trace::client_begin("giop_traced_unit");
        let ctx = span.context().expect("span live while enabled");
        let mut buf = MarshalBuf::new();
        let size_at = begin_message(&mut buf, order, MsgType::Request);
        let cdr = CdrOut::begin(&buf, order);
        put_request_header(&mut buf, &cdr, 42, true, b"k", "send");
        finish_message(&mut buf, size_at, order);
        let data = buf.into_vec();
        let _ = span.finish_call(Ok(crate::pool::checkout().into()));

        // Server side: context captured and noted for the reply.
        let mut r = MsgReader::new(&data);
        let h = read_header(&mut r).unwrap();
        let cin = CdrIn::begin(&r, h.order);
        let rh = get_request_header(&mut r, &cin).unwrap();
        assert_eq!(rh.operation, "send");
        assert_eq!(rh.context.trace, Some(ctx));
        assert_eq!(crate::trace::reply_context(), Some(ctx));

        let mut buf = MarshalBuf::new();
        let size_at = begin_message(&mut buf, order, MsgType::Reply);
        let cdr = CdrOut::begin(&buf, order);
        put_reply_header(&mut buf, &cdr, 42, ReplyStatus::NoException);
        finish_message(&mut buf, size_at, order);
        let reply = buf.into_vec();

        let mut r = MsgReader::new(&reply);
        let h = read_header(&mut r).unwrap();
        let cin = CdrIn::begin(&r, h.order);
        let rh = get_reply_header(&mut r, &cin).unwrap();
        assert_eq!(rh.trace, Some(ctx), "reply echoes the request's context");

        crate::trace::note_wire_context(None);
        flick_telemetry::set_enabled(false);
    }

    #[test]
    fn request_header_ref_borrows_from_the_message() {
        let order = ByteOrder::Big;
        let mut buf = MarshalBuf::new();
        let size_at = begin_message(&mut buf, order, MsgType::Request);
        let cdr = CdrOut::begin(&buf, order);
        put_request_header(&mut buf, &cdr, 9, true, b"mailbox-1", "send");
        finish_message(&mut buf, size_at, order);

        let data = buf.into_vec();
        let mut r = MsgReader::new(&data);
        let h = read_header(&mut r).unwrap();
        let cin = CdrIn::begin(&r, h.order);
        let rh = get_request_header_ref(&mut r, &cin).unwrap();
        assert_eq!(rh.request_id, 9);
        assert_eq!(rh.object_key, b"mailbox-1");
        assert_eq!(rh.operation, "send");
        // In-buffer presentation: the borrows point into the message.
        let span = data.as_ptr_range();
        assert!(span.contains(&rh.object_key.as_ptr()));
        assert!(span.contains(&rh.operation.as_ptr()));
        // The owned facade sees the same header.
        assert_eq!(rh.to_owned().operation, "send");
    }

    #[test]
    fn borrowed_header_rejects_carry_offsets() {
        let order = ByteOrder::Big;
        // A request whose body ends right after the (empty) service
        // context list: the request-id read fails, and the borrowed
        // path must say where.
        let mut buf = MarshalBuf::new();
        let at = begin_message(&mut buf, order, MsgType::Request);
        let cdr = CdrOut::begin(&buf, order);
        cdr.put_u32(&mut buf, 0); // empty context list, then nothing
        finish_message(&mut buf, at, order);
        let data = buf.into_vec();
        let mut r = MsgReader::new(&data);
        let h = read_header(&mut r).unwrap();
        let cin = CdrIn::begin(&r, h.order);
        let err = get_request_header_ref(&mut r, &cin).unwrap_err();
        assert_eq!(err.offset(), Some(HEADER_BYTES + 4));
        assert!(matches!(err.root(), DecodeError::Truncated { .. }));

        // Truncation inside the operation name reports the name's
        // offset, matching the owned path byte for byte.
        let mut buf = MarshalBuf::new();
        let at = begin_message(&mut buf, order, MsgType::Request);
        let cdr = CdrOut::begin(&buf, order);
        put_request_header(&mut buf, &cdr, 4, true, b"k", "send");
        finish_message(&mut buf, at, order);
        let data = buf.into_vec();
        let cut = data.len() - 3; // mid-operation-name
        let mut r = MsgReader::new(&data[..cut]);
        let h = read_header(&mut r).unwrap();
        let cin = CdrIn::begin(&r, h.order);
        let borrowed = get_request_header_ref(&mut r, &cin).unwrap_err();
        let mut r = MsgReader::new(&data[..cut]);
        read_header(&mut r).unwrap();
        let owned = get_request_header(&mut r, &cin).unwrap_err();
        assert_eq!(borrowed.offset(), owned.offset());
        assert!(borrowed.offset().is_some());
    }

    #[test]
    fn bad_magic_rejected() {
        let data = [b'B', b'O', b'O', b'M', 1, 0, 0, 0, 0, 0, 0, 0];
        let mut r = MsgReader::new(&data);
        assert!(matches!(
            read_header(&mut r),
            Err(DecodeError::BadHeader("bad GIOP magic"))
        ));
    }

    #[test]
    fn unknown_status_rejected() {
        assert!(ReplyStatus::from_u32(9).is_err());
        assert!(MsgType::from_u8(9).is_err());
    }

    #[test]
    fn hostile_size_field_rejected() {
        let mut data = vec![b'G', b'I', b'O', b'P', 1, 0, 0, 0];
        data.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut r = MsgReader::new(&data);
        assert!(matches!(
            read_header(&mut r),
            Err(DecodeError::BoundExceeded { .. })
        ));
    }

    #[test]
    fn hostile_context_count_rejected_fast() {
        // A request header announcing u32::MAX service contexts in a
        // tiny message must fail on the count itself, not iterate.
        let order = ByteOrder::Big;
        let mut buf = MarshalBuf::new();
        let at = begin_message(&mut buf, order, MsgType::Request);
        let cdr = CdrOut::begin(&buf, order);
        cdr.put_u32(&mut buf, u32::MAX); // contexts
        cdr.put_u32(&mut buf, 1); // would-be request id
        finish_message(&mut buf, at, order);
        let data = buf.into_vec();
        let mut r = MsgReader::new(&data);
        let h = read_header(&mut r).unwrap();
        let cin = CdrIn::begin(&r, h.order);
        let err = get_request_header(&mut r, &cin).unwrap_err();
        assert!(matches!(err.root(), DecodeError::BoundExceeded { .. }));
        assert_eq!(err.offset(), Some(HEADER_BYTES));

        // Reply headers share the guard.
        let mut r = MsgReader::new(&data);
        let h = read_header(&mut r).unwrap();
        let cin = CdrIn::begin(&r, h.order);
        assert!(get_reply_header(&mut r, &cin).is_err());
    }

    #[test]
    fn legitimate_contexts_still_skip() {
        let order = ByteOrder::Big;
        let mut buf = MarshalBuf::new();
        let at = begin_message(&mut buf, order, MsgType::Request);
        let cdr = CdrOut::begin(&buf, order);
        cdr.put_u32(&mut buf, 1); // one context
        cdr.put_u32(&mut buf, 7); // context id
        cdr.put_u32(&mut buf, 4); // data length
        buf.put_bytes(&[1, 2, 3, 4]);
        cdr.put_u32(&mut buf, 42); // request id
        cdr.put_u8(&mut buf, 1);
        cdr.put_u32(&mut buf, 0); // empty object key
        cdr.put_string(&mut buf, "op");
        cdr.put_u32(&mut buf, 0); // principal
        finish_message(&mut buf, at, order);
        let data = buf.into_vec();
        let mut r = MsgReader::new(&data);
        let h = read_header(&mut r).unwrap();
        let cin = CdrIn::begin(&r, h.order);
        let rh = get_request_header(&mut r, &cin).unwrap();
        assert_eq!(rh.request_id, 42);
        assert_eq!(rh.operation, "op");
    }

    #[test]
    fn budgeted_request_roundtrips_and_peeks() {
        crate::deadline::clear_inbound();
        let order = ByteOrder::Little;
        let mut buf = MarshalBuf::new();
        let size_at = begin_message(&mut buf, order, MsgType::Request);
        let cdr = CdrOut::begin(&buf, order);
        {
            let _g = crate::deadline::stamp_outbound(std::time::Duration::from_millis(125));
            put_request_header(&mut buf, &cdr, 42, true, b"k", "send");
        }
        finish_message(&mut buf, size_at, order);
        let data = buf.into_vec();

        // The admission peek sees everything it needs, cheaply.
        assert_eq!(
            peek_request(&data),
            Some(RequestPeek {
                request_id: 42,
                order,
                response_expected: true,
                context: WireContext {
                    trace: None,
                    budget_ns: Some(125_000_000),
                },
            })
        );

        // The full parse notes the inbound budget for this thread.
        let mut r = MsgReader::new(&data);
        let h = read_header(&mut r).unwrap();
        let cin = CdrIn::begin(&r, h.order);
        let rh = get_request_header(&mut r, &cin).unwrap();
        assert_eq!(rh.request_id, 42);
        assert_eq!(rh.context.budget_ns, Some(125_000_000));
        let left = crate::deadline::inbound_remaining_ns().expect("budget noted");
        assert!(left <= 125_000_000);

        // A budgetless request clears the note again.  (Clear the
        // thread first: a header written *while serving* a budgeted
        // request would forward the remaining budget by design.)
        crate::deadline::clear_inbound();
        let mut buf = MarshalBuf::new();
        let size_at = begin_message(&mut buf, order, MsgType::Request);
        let cdr = CdrOut::begin(&buf, order);
        put_request_header(&mut buf, &cdr, 43, true, b"k", "send");
        finish_message(&mut buf, size_at, order);
        let data = buf.into_vec();
        assert_eq!(peek_request(&data).unwrap().context, WireContext::default());
        let mut r = MsgReader::new(&data);
        let h = read_header(&mut r).unwrap();
        let cin = CdrIn::begin(&r, h.order);
        let rh = get_request_header(&mut r, &cin).unwrap();
        assert_eq!(rh.context.budget_ns, None);
        assert_eq!(crate::deadline::inbound_remaining_ns(), None);

        // Peek refuses non-requests outright.
        let mut buf = MarshalBuf::new();
        write_message_error(&mut buf, order);
        assert_eq!(peek_request(buf.as_slice()), None);
        assert_eq!(peek_request(b"GIO"), None);
    }

    #[test]
    fn synthesized_exception_reply_parses_clean() {
        let order = ByteOrder::Big;
        let mut buf = MarshalBuf::new();
        write_system_exception_reply(&mut buf, order, 77, "IDL:omg.org/CORBA/TRANSIENT:1.0", 1);
        let data = buf.into_vec();
        let mut r = MsgReader::new(&data);
        let h = read_header(&mut r).unwrap();
        assert_eq!(h.msg_type, MsgType::Reply);
        let cin = CdrIn::begin(&r, h.order);
        let rh = get_reply_header(&mut r, &cin).unwrap();
        assert_eq!(
            rh,
            ReplyHeader {
                request_id: 77,
                status: ReplyStatus::SystemException,
                trace: None,
            }
        );
        let ex = get_system_exception(&mut r, &cin).unwrap();
        assert_eq!(ex.repo_id, "IDL:omg.org/CORBA/TRANSIENT:1.0");
        assert_eq!(ex.minor, 1);
        assert!(r.is_exhausted());
    }

    #[test]
    fn message_error_and_system_exception_roundtrip() {
        let order = ByteOrder::Little;
        let mut buf = MarshalBuf::new();
        write_message_error(&mut buf, order);
        let data = buf.into_vec();
        let mut r = MsgReader::new(&data);
        let h = read_header(&mut r).unwrap();
        assert_eq!(h.msg_type, MsgType::MessageError);
        assert_eq!(h.size, 0);

        let mut buf = MarshalBuf::new();
        let at = begin_message(&mut buf, order, MsgType::Reply);
        let cdr = CdrOut::begin(&buf, order);
        put_reply_header(&mut buf, &cdr, 6, ReplyStatus::SystemException);
        put_system_exception(&mut buf, &cdr, "IDL:omg.org/CORBA/MARSHAL:1.0", 9);
        finish_message(&mut buf, at, order);
        let data = buf.into_vec();
        let mut r = MsgReader::new(&data);
        let h = read_header(&mut r).unwrap();
        let cin = CdrIn::begin(&r, h.order);
        let rh = get_reply_header(&mut r, &cin).unwrap();
        assert_eq!(rh.status, ReplyStatus::SystemException);
        let ex = get_system_exception(&mut r, &cin).unwrap();
        assert_eq!(ex.repo_id, "IDL:omg.org/CORBA/MARSHAL:1.0");
        assert_eq!(ex.minor, 9);
        assert_eq!(ex.completed, 1);
    }
}
