//! Flick-generated stubs — interface `Mail`, presentation `corba-c`,
//! transport `iiop-tcp`, encoding `cdr-le`.
//! Generated by flick-backend; do not edit.
#![allow(clippy::all, dead_code, unused_variables, unused_mut, unused_imports, unused_parens, non_snake_case, non_camel_case_types)]

use flick_runtime::buf::{MarshalBuf, MsgReader};
use flick_runtime::error::DecodeError;
use flick_runtime::pod;

/// Encodes the `send_request` message body.
pub fn encode_send_request(buf: &mut MarshalBuf, msg: &str) {
    buf.ensure(5 + msg.len()); // whole message, sized by its values
    buf.put_u32_le((msg.len() + 1) as u32);
    buf.put_bytes(msg.as_bytes());
    buf.put_u8(0);
}

/// Decodes the `send_request` message body.
#[inline(always)]
pub fn decode_send_request<'a>(r: &mut MsgReader<'a>) -> Result<(&'a str, ), DecodeError> {
    let _len1 = r.get_u32_le()? as usize;
    if _len1 == 0 { return Err(DecodeError::BadValue("CDR string length must include NUL")); }
    let _bytes2 = &r.bytes(_len1)?[.._len1 - 1];
    let _v3 = std::str::from_utf8(_bytes2).map_err(|_| DecodeError::BadValue("string is not UTF-8"))?; // zero-copy
    Ok((_v3, ))
}

/// Encodes the `send_reply` message body.
#[inline(always)]
pub fn encode_send_reply(buf: &mut MarshalBuf) {
}

/// Decodes the `send_reply` message body.
pub fn decode_send_reply(r: &mut MsgReader<'_>) -> Result<(), DecodeError> {
    Ok(())
}

/// The server-side work interface (implemented by user code).
pub trait Server {
    fn send(&mut self, msg: &str);
}

/// Reads a zero-padded machine word of the discriminator (§3.3:
/// "Flick generates demultiplexing code that examines machine
/// word-size chunks of the discriminator").
#[inline]
fn word_at(s: &[u8], i: usize) -> u32 {
    let mut w = [0u8; 4];
    if i < s.len() {
        let n = (s.len() - i).min(4);
        w[..n].copy_from_slice(&s[i..i + n]);
    }
    u32::from_ne_bytes(w)
}

/// Server dispatch on a string discriminator (the IIOP operation
/// name), demultiplexed word by word with nested switches.
pub fn dispatch_by_name<S: Server>(op: &[u8], body: &[u8], reply: &mut MarshalBuf, srv: &mut S) -> Result<(), DecodeError> {
    match word_at(op, 0) {
        1684956531u32 if op.len() == 4 => { // "send"
            let mut _sspan = flick_runtime::trace::server_begin("send");
            let mut r = MsgReader::new(body);
            let (_v4, ) = decode_send_request(&mut r)?;
            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
            srv.send(_v4);
            _sspan.phase(flick_runtime::trace::Phase::Work, 0);
            _sspan.finish(reply.len() as u64);
            Ok(())
        }
        _ => Err(DecodeError::BadDiscriminator { value: op.len() as i64 }),
    }
}

/// Serves one complete GIOP message.  Unparseable headers answer
/// `MessageError`; unknown operations and argument decode failures
/// answer a `SystemException` reply (`BAD_OPERATION` / `MARSHAL`).
/// Returns true when `reply` holds a message to send back.
pub fn handle_message<S: Server>(msg: &[u8], reply: &mut MarshalBuf, srv: &mut S) -> bool {
    use flick_runtime::cdr::{ByteOrder, CdrIn, CdrOut};
    use flick_runtime::giop::{self, MsgType, ReplyStatus};
    reply.clear();
    let mut r = MsgReader::new(msg);
    let h = match giop::read_header(&mut r) {
        Ok(h) => h,
        Err(_) => {
            flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Cdr);
            giop::write_message_error(reply, ByteOrder::native());
            return true;
        }
    };
    if h.msg_type == MsgType::CloseConnection {
        return false;
    }
    if h.msg_type != MsgType::Request {
        flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Cdr);
        giop::write_message_error(reply, h.order);
        return true;
    }
    let cdr = CdrIn::begin(&r, h.order);
    let req = match giop::get_request_header_ref(&mut r, &cdr) {
        Ok(x) => x,
        Err(_) => {
            flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Cdr);
            giop::write_message_error(reply, h.order);
            return true;
        }
    };
    // A request whose propagated budget is already spent gets the
    // cheap failure, not the work (see flick_runtime::deadline).
    if flick_runtime::deadline::inbound_expired() {
        flick_runtime::metrics::rpc_expired();
        let at = giop::begin_message(reply, h.order, MsgType::Reply);
        let out = CdrOut::begin(reply, h.order);
        giop::put_reply_header(reply, &out, req.request_id, ReplyStatus::SystemException);
        giop::put_system_exception(reply, &out, "IDL:omg.org/CORBA/TIMEOUT:1.0", 0);
        giop::finish_message(reply, at, h.order);
        return req.response_expected;
    }
    if !matches!(req.operation.as_bytes(), b"send") {
        flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Cdr);
        let at = giop::begin_message(reply, h.order, MsgType::Reply);
        let out = CdrOut::begin(reply, h.order);
        giop::put_reply_header(reply, &out, req.request_id, ReplyStatus::SystemException);
        giop::put_system_exception(reply, &out, "IDL:omg.org/CORBA/BAD_OPERATION:1.0", 0);
        giop::finish_message(reply, at, h.order);
        return req.response_expected;
    }
    let at = giop::begin_message(reply, h.order, MsgType::Reply);
    let out = CdrOut::begin(reply, h.order);
    giop::put_reply_header(reply, &out, req.request_id, ReplyStatus::NoException);
    match dispatch_by_name(req.operation.as_bytes(), &msg[r.pos()..], reply, srv) {
        Ok(()) => {
            giop::finish_message(reply, at, h.order);
            req.response_expected
        }
        Err(_e) => {
            flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Cdr);
            reply.clear();
            let at = giop::begin_message(reply, h.order, MsgType::Reply);
            let out = CdrOut::begin(reply, h.order);
            giop::put_reply_header(reply, &out, req.request_id, ReplyStatus::SystemException);
            giop::put_system_exception(reply, &out, "IDL:omg.org/CORBA/MARSHAL:1.0", 0);
            giop::finish_message(reply, at, h.order);
            req.response_expected
        }
    }
}

