//! Flick-generated stubs — interface `Bench`, presentation `corba-c`,
//! transport `iiop-tcp`, encoding `cdr-le`.
//! Generated by flick-backend; do not edit.
#![allow(clippy::all, dead_code, unused_variables, unused_mut, unused_imports, unused_parens, non_snake_case, non_camel_case_types)]

use flick_runtime::buf::{MarshalBuf, MsgReader};
use flick_runtime::error::DecodeError;
use flick_runtime::pod;

/// Presented type `Dirent` (generated).
#[derive(Clone, Debug, PartialEq)]
pub struct Dirent {
    pub name: String,
    pub info: Stat,
}

/// Presented type `Point` (generated).
#[repr(C)]
#[derive(Clone, Debug, PartialEq)]
pub struct Point {
    pub x: i32,
    pub y: i32,
}

/// Presented type `Rect` (generated).
#[repr(C)]
#[derive(Clone, Debug, PartialEq)]
pub struct Rect {
    pub min: Point,
    pub max: Point,
}
// SAFETY: `#[repr(C)]` all the way down, integer and float fields only, and no padding:
// the 16 bytes asserted below are exactly the fields'.
unsafe impl flick_runtime::pod::Pod for Rect {}
const _: () = assert!(std::mem::size_of::<Rect>() == 16);

/// Presented type `Stat` (generated).
#[derive(Clone, Debug, PartialEq)]
pub struct Stat {
    pub fields: [i32; 30],
    pub tag: [u8; 16],
}

/// Encodes the `send_ints_request` message body.
pub fn encode_send_ints_request(buf: &mut MarshalBuf, vals: &[i32]) {
    buf.ensure(4 + vals.len() * 4); // whole message, sized by its values
    buf.put_u32_le(vals.len() as u32);
    buf.put_bytes(pod::bytes_of(&vals[..])); // memcpy run
}

/// Decodes the `send_ints_request` message body.
#[inline(always)]
pub fn decode_send_ints_request(r: &mut MsgReader<'_>) -> Result<(Vec<i32>, ), DecodeError> {
    let _len2 = r.get_u32_le()? as usize;
    let _v1: Vec<i32> = pod::vec_from_bytes(r.run(_len2, 4)?); // memcpy run
    Ok((_v1, ))
}

/// Encodes the `send_ints_reply` message body.
#[inline(always)]
pub fn encode_send_ints_reply(buf: &mut MarshalBuf) {
}

/// Decodes the `send_ints_reply` message body.
pub fn decode_send_ints_reply(r: &mut MsgReader<'_>) -> Result<(), DecodeError> {
    Ok(())
}

/// Encodes the `send_rects_request` message body.
pub fn encode_send_rects_request(buf: &mut MarshalBuf, rects: &[Rect]) {
    buf.ensure(4 + rects.len() * 16); // whole message, sized by its values
    buf.put_u32_le(rects.len() as u32);
    buf.put_bytes(pod::bytes_of(rects)); // image run
}

/// Decodes the `send_rects_request` message body.
#[inline(always)]
pub fn decode_send_rects_request(r: &mut MsgReader<'_>) -> Result<(Vec<Rect>, ), DecodeError> {
    let _len3 = r.get_u32_le()? as usize;
    let _v4: Vec<Rect> = pod::vec_from_bytes(r.run(_len3, 16)?); // image run
    Ok((_v4, ))
}

/// Encodes the `send_rects_reply` message body.
#[inline(always)]
pub fn encode_send_rects_reply(buf: &mut MarshalBuf) {
}

/// Decodes the `send_rects_reply` message body.
pub fn decode_send_rects_reply(r: &mut MsgReader<'_>) -> Result<(), DecodeError> {
    Ok(())
}

/// Encodes the `send_dirents_request` message body.
pub fn encode_send_dirents_request(buf: &mut MarshalBuf, entries: &[Dirent]) {
    let _base = buf.len();
    buf.ensure(4 + entries.iter().map(|_r0| 144 + _r0.name.len()).sum::<usize>()); // whole message, sized by its values
    buf.put_u32_le(entries.len() as u32);
    for _e5 in entries {
        buf.put_u32_le(((&_e5.name[..]).len() + 1) as u32);
        buf.put_bytes((&_e5.name[..]).as_bytes());
        buf.put_u8(0);
        buf.align_from(_base, 4);
        let mut _c6 = buf.chunk(136);
        _c6.put_bytes_at(0, pod::bytes_of(&(&_e5.info).fields[..])); // memcpy run
        _c6.put_bytes_at(120, pod::bytes_of(&(&_e5.info).tag[..])); // memcpy run
    }
}

/// Decodes the `send_dirents_request` message body.
#[inline(always)]
pub fn decode_send_dirents_request(r: &mut MsgReader<'_>) -> Result<(Vec<Dirent>, ), DecodeError> {
    let _base = r.pos();
    let _len7 = r.get_u32_le()? as usize;
    let mut _v8: Vec<Dirent> = Vec::with_capacity(_len7.min(r.remaining() / 141 + 1));
    for _i9 in 0.._len7 {
        let _len10 = r.get_u32_le()? as usize;
        if _len10 == 0 { return Err(DecodeError::BadValue("CDR string length must include NUL")); }
        let _bytes11 = &r.bytes(_len10)?[.._len10 - 1];
        let _v12 = String::from_utf8(_bytes11.to_vec()).map_err(|_| DecodeError::BadValue("string is not UTF-8"))?;
        r.align_from(_base, 4)?;
        let _c13 = r.chunk(136)?; // one truncation check
        let _v14 = Stat { fields: { let mut _a = [0i32; 30]; pod::copy_into(_c13.bytes_at(0, 120), &mut _a); _a }, tag: { let mut _a = [0u8; 16]; pod::copy_into(_c13.bytes_at(120, 16), &mut _a); _a } };
        let _v15 = Dirent { name: _v12, info: _v14 };
        _v8.push(_v15);
    }
    Ok((_v8, ))
}

/// Encodes the `send_dirents_reply` message body.
#[inline(always)]
pub fn encode_send_dirents_reply(buf: &mut MarshalBuf) {
}

/// Decodes the `send_dirents_reply` message body.
pub fn decode_send_dirents_reply(r: &mut MsgReader<'_>) -> Result<(), DecodeError> {
    Ok(())
}

/// Encodes the `echo_stat_request` message body.
pub fn encode_echo_stat_request(buf: &mut MarshalBuf, s: &Stat) {
    buf.ensure(136); // whole message is fixed-size
    let mut _c16 = buf.chunk(136);
    _c16.put_bytes_at(0, pod::bytes_of(&s.fields[..])); // memcpy run
    _c16.put_bytes_at(120, pod::bytes_of(&s.tag[..])); // memcpy run
}

/// Decodes the `echo_stat_request` message body.
#[inline(always)]
pub fn decode_echo_stat_request(r: &mut MsgReader<'_>) -> Result<(Stat, ), DecodeError> {
    let _c17 = r.chunk(136)?; // one truncation check
    let _v18 = Stat { fields: { let mut _a = [0i32; 30]; pod::copy_into(_c17.bytes_at(0, 120), &mut _a); _a }, tag: { let mut _a = [0u8; 16]; pod::copy_into(_c17.bytes_at(120, 16), &mut _a); _a } };
    Ok((_v18, ))
}

/// Encodes the `echo_stat_reply` message body.
#[inline(always)]
pub fn encode_echo_stat_reply(buf: &mut MarshalBuf, _return: &Stat) {
    buf.ensure(136); // whole message is fixed-size
    let mut _c19 = buf.chunk(136);
    _c19.put_bytes_at(0, pod::bytes_of(&_return.fields[..])); // memcpy run
    _c19.put_bytes_at(120, pod::bytes_of(&_return.tag[..])); // memcpy run
}

/// Decodes the `echo_stat_reply` message body.
pub fn decode_echo_stat_reply(r: &mut MsgReader<'_>) -> Result<(Stat, ), DecodeError> {
    let _c20 = r.chunk(136)?; // one truncation check
    let _v21 = Stat { fields: { let mut _a = [0i32; 30]; pod::copy_into(_c20.bytes_at(0, 120), &mut _a); _a }, tag: { let mut _a = [0u8; 16]; pod::copy_into(_c20.bytes_at(120, 16), &mut _a); _a } };
    Ok((_v21, ))
}

/// The server-side work interface (implemented by user code).
pub trait Server {
    fn send_ints(&mut self, vals: Vec<i32>);
    fn send_rects(&mut self, rects: Vec<Rect>);
    fn send_dirents(&mut self, entries: Vec<Dirent>);
    fn echo_stat(&mut self, s: Stat) -> Stat;
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
        1684956531u32 => {
            let mut r = MsgReader::new(body);
            let r = &mut r;
            let _base = r.pos();
            let _plen22 = r.get_u32_le()? as usize; // merge-prefix: shared count for every arm below
            match word_at(op, 4) {
                1667592799u32 => {
                    match word_at(op, 8) {
                        29556u32 if op.len() == 10 => { // "send_rects"
                            let mut _sspan = flick_runtime::trace::server_begin("send_rects");
                            let _len23 = _plen22; // merge-prefix: count decoded above the switch
                            let _v24: Vec<Rect> = pod::vec_from_bytes(r.run(_len23, 16)?); // image run
                            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
                            srv.send_rects(_v24);
                            _sspan.phase(flick_runtime::trace::Phase::Work, 0);
                            _sspan.finish(reply.len() as u64);
                            Ok(())
                        }
                        _ => Err(DecodeError::BadDiscriminator { value: op.len() as i64 }),
                    }
                }
                1919509599u32 => {
                    match word_at(op, 8) {
                        1937010277u32 if op.len() == 12 => { // "send_dirents"
                            let mut _sspan = flick_runtime::trace::server_begin("send_dirents");
                            let _len25 = _plen22; // merge-prefix: count decoded above the switch
                            let mut _v26: Vec<Dirent> = Vec::with_capacity(_len25.min(r.remaining() / 141 + 1));
                            for _i27 in 0.._len25 {
                                let _len28 = r.get_u32_le()? as usize;
                                if _len28 == 0 { return Err(DecodeError::BadValue("CDR string length must include NUL")); }
                                let _bytes29 = &r.bytes(_len28)?[.._len28 - 1];
                                let _v30 = String::from_utf8(_bytes29.to_vec()).map_err(|_| DecodeError::BadValue("string is not UTF-8"))?;
                                r.align_from(_base, 4)?;
                                let _c31 = r.chunk(136)?; // one truncation check
                                let _v32 = Stat { fields: { let mut _a = [0i32; 30]; pod::copy_into(_c31.bytes_at(0, 120), &mut _a); _a }, tag: { let mut _a = [0u8; 16]; pod::copy_into(_c31.bytes_at(120, 16), &mut _a); _a } };
                                let _v33 = Dirent { name: _v30, info: _v32 };
                                _v26.push(_v33);
                            }
                            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
                            srv.send_dirents(_v26);
                            _sspan.phase(flick_runtime::trace::Phase::Work, 0);
                            _sspan.finish(reply.len() as u64);
                            Ok(())
                        }
                        _ => Err(DecodeError::BadDiscriminator { value: op.len() as i64 }),
                    }
                }
                1953392991u32 => {
                    match word_at(op, 8) {
                        115u32 if op.len() == 9 => { // "send_ints"
                            let mut _sspan = flick_runtime::trace::server_begin("send_ints");
                            let _len35 = _plen22; // merge-prefix: count decoded above the switch
                            let _v34: Vec<i32> = pod::vec_from_bytes(r.run(_len35, 4)?); // memcpy run
                            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
                            srv.send_ints(_v34);
                            _sspan.phase(flick_runtime::trace::Phase::Work, 0);
                            _sspan.finish(reply.len() as u64);
                            Ok(())
                        }
                        _ => Err(DecodeError::BadDiscriminator { value: op.len() as i64 }),
                    }
                }
                _ => Err(DecodeError::BadDiscriminator { value: op.len() as i64 }),
            }
        }
        1869112165u32 => {
            match word_at(op, 4) {
                1635021663u32 => {
                    match word_at(op, 8) {
                        116u32 if op.len() == 9 => { // "echo_stat"
                            let mut _sspan = flick_runtime::trace::server_begin("echo_stat");
                            let mut r = MsgReader::new(body);
                            let (_v36, ) = decode_echo_stat_request(&mut r)?;
                            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
                            let _ret = srv.echo_stat(_v36);
                            _sspan.phase(flick_runtime::trace::Phase::Work, 0);
                            encode_echo_stat_reply(reply, (&_ret));
                            _sspan.phase(flick_runtime::trace::Phase::Encode, reply.len() as u64);
                            _sspan.finish(reply.len() as u64);
                            Ok(())
                        }
                        _ => Err(DecodeError::BadDiscriminator { value: op.len() as i64 }),
                    }
                }
                _ => Err(DecodeError::BadDiscriminator { value: op.len() as i64 }),
            }
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
    if !matches!(req.operation.as_bytes(), b"send_ints" | b"send_rects" | b"send_dirents" | b"echo_stat") {
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

