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
#[derive(Clone, Debug, PartialEq)]
pub struct Point {
    pub x: i32,
    pub y: i32,
}

/// Presented type `Rect` (generated).
#[derive(Clone, Debug, PartialEq)]
pub struct Rect {
    pub min: Point,
    pub max: Point,
}

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
    for _e1 in vals.iter().copied() {
        buf.put_u32_le((_e1) as u32);
    }
}

/// Decodes the `send_ints_request` message body.
#[inline(always)]
pub fn decode_send_ints_request(r: &mut MsgReader<'_>) -> Result<(Vec<i32>, ), DecodeError> {
    let _len2 = r.get_u32_le()? as usize;
    let mut _v3: Vec<i32> = Vec::with_capacity(_len2.min(r.remaining() / 4 + 1));
    for _i4 in 0.._len2 {
        let _v5 = r.get_u32_le()? as i32;
        _v3.push(_v5);
    }
    Ok((_v3, ))
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
    let mut _c6 = buf.chunk(rects.len() * 16); // strided chunks: one space check for the run
    for (mut _s7, _e8) in _c6.strides(16).zip(rects) {
        _s7.put_u32_le_at(0, (_e8.min.x) as u32);
        _s7.put_u32_le_at(4, (_e8.min.y) as u32);
        _s7.put_u32_le_at(8, (_e8.max.x) as u32);
        _s7.put_u32_le_at(12, (_e8.max.y) as u32);
    }
}

/// Decodes the `send_rects_request` message body.
#[inline(always)]
pub fn decode_send_rects_request(r: &mut MsgReader<'_>) -> Result<(Vec<Rect>, ), DecodeError> {
    let _len9 = r.get_u32_le()? as usize;
    let _v10: Vec<Rect> = r.strides(_len9, 16)?.map(|_c11| Rect { min: Point { x: _c11.get_u32_le_at(0) as i32, y: _c11.get_u32_le_at(4) as i32 }, max: Point { x: _c11.get_u32_le_at(8) as i32, y: _c11.get_u32_le_at(12) as i32 } }).collect(); // strided chunks: one truncation check for the run
    Ok((_v10, ))
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
    for _e12 in entries {
        buf.put_u32_le(((&_e12.name[..]).len() + 1) as u32);
        buf.put_bytes((&_e12.name[..]).as_bytes());
        buf.put_u8(0);
        buf.align_from(_base, 4);
        let mut _c13 = buf.chunk(136);
        for _i14 in 0..30usize {
            _c13.put_u32_le_at(0 + _i14 * 4, ((&_e12.info).fields[_i14]) as u32);
        }
        for _i15 in 0..16usize {
            _c13.put_u8_at(120 + _i15 * 1, ((&_e12.info).tag[_i15]) as u8);
        }
    }
}

/// Decodes the `send_dirents_request` message body.
#[inline(always)]
pub fn decode_send_dirents_request(r: &mut MsgReader<'_>) -> Result<(Vec<Dirent>, ), DecodeError> {
    let _base = r.pos();
    let _len16 = r.get_u32_le()? as usize;
    let mut _v17: Vec<Dirent> = Vec::with_capacity(_len16.min(r.remaining() / 141 + 1));
    for _i18 in 0.._len16 {
        let _len19 = r.get_u32_le()? as usize;
        if _len19 == 0 { return Err(DecodeError::BadValue("CDR string length must include NUL")); }
        let _bytes20 = &r.bytes(_len19)?[.._len19 - 1];
        let _v21 = String::from_utf8(_bytes20.to_vec()).map_err(|_| DecodeError::BadValue("string is not UTF-8"))?;
        r.align_from(_base, 4)?;
        let _c22 = r.chunk(136)?; // one truncation check
        let _v23 = Stat { fields: { let mut _a = [0i32; 30]; for _i in 0..30usize { _a[_i] = _c22.get_u32_le_at(0 + _i * 4) as i32; } _a }, tag: { let mut _a = [0u8; 16]; for _i in 0..16usize { _a[_i] = _c22.get_u8_at(120 + _i * 1) as u8; } _a } };
        let _v24 = Dirent { name: _v21, info: _v23 };
        _v17.push(_v24);
    }
    Ok((_v17, ))
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
    let mut _c25 = buf.chunk(136);
    for _i26 in 0..30usize {
        _c25.put_u32_le_at(0 + _i26 * 4, (s.fields[_i26]) as u32);
    }
    for _i27 in 0..16usize {
        _c25.put_u8_at(120 + _i27 * 1, (s.tag[_i27]) as u8);
    }
}

/// Decodes the `echo_stat_request` message body.
#[inline(always)]
pub fn decode_echo_stat_request(r: &mut MsgReader<'_>) -> Result<(Stat, ), DecodeError> {
    let _c28 = r.chunk(136)?; // one truncation check
    let _v29 = Stat { fields: { let mut _a = [0i32; 30]; for _i in 0..30usize { _a[_i] = _c28.get_u32_le_at(0 + _i * 4) as i32; } _a }, tag: { let mut _a = [0u8; 16]; for _i in 0..16usize { _a[_i] = _c28.get_u8_at(120 + _i * 1) as u8; } _a } };
    Ok((_v29, ))
}

/// Encodes the `echo_stat_reply` message body.
#[inline(always)]
pub fn encode_echo_stat_reply(buf: &mut MarshalBuf, _return: &Stat) {
    buf.ensure(136); // whole message is fixed-size
    let mut _c30 = buf.chunk(136);
    for _i31 in 0..30usize {
        _c30.put_u32_le_at(0 + _i31 * 4, (_return.fields[_i31]) as u32);
    }
    for _i32 in 0..16usize {
        _c30.put_u8_at(120 + _i32 * 1, (_return.tag[_i32]) as u8);
    }
}

/// Decodes the `echo_stat_reply` message body.
pub fn decode_echo_stat_reply(r: &mut MsgReader<'_>) -> Result<(Stat, ), DecodeError> {
    let _c33 = r.chunk(136)?; // one truncation check
    let _v34 = Stat { fields: { let mut _a = [0i32; 30]; for _i in 0..30usize { _a[_i] = _c33.get_u32_le_at(0 + _i * 4) as i32; } _a }, tag: { let mut _a = [0u8; 16]; for _i in 0..16usize { _a[_i] = _c33.get_u8_at(120 + _i * 1) as u8; } _a } };
    Ok((_v34, ))
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
            let _plen35 = r.get_u32_le()? as usize; // merge-prefix: shared count for every arm below
            match word_at(op, 4) {
                1667592799u32 => {
                    match word_at(op, 8) {
                        29556u32 if op.len() == 10 => { // "send_rects"
                            let mut _sspan = flick_runtime::trace::server_begin("send_rects");
                            let _len36 = _plen35; // merge-prefix: count decoded above the switch
                            let _v37: Vec<Rect> = r.strides(_len36, 16)?.map(|_c38| Rect { min: Point { x: _c38.get_u32_le_at(0) as i32, y: _c38.get_u32_le_at(4) as i32 }, max: Point { x: _c38.get_u32_le_at(8) as i32, y: _c38.get_u32_le_at(12) as i32 } }).collect(); // strided chunks: one truncation check for the run
                            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
                            srv.send_rects(_v37);
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
                            let _len39 = _plen35; // merge-prefix: count decoded above the switch
                            let mut _v40: Vec<Dirent> = Vec::with_capacity(_len39.min(r.remaining() / 141 + 1));
                            for _i41 in 0.._len39 {
                                let _len42 = r.get_u32_le()? as usize;
                                if _len42 == 0 { return Err(DecodeError::BadValue("CDR string length must include NUL")); }
                                let _bytes43 = &r.bytes(_len42)?[.._len42 - 1];
                                let _v44 = String::from_utf8(_bytes43.to_vec()).map_err(|_| DecodeError::BadValue("string is not UTF-8"))?;
                                r.align_from(_base, 4)?;
                                let _c45 = r.chunk(136)?; // one truncation check
                                let _v46 = Stat { fields: { let mut _a = [0i32; 30]; for _i in 0..30usize { _a[_i] = _c45.get_u32_le_at(0 + _i * 4) as i32; } _a }, tag: { let mut _a = [0u8; 16]; for _i in 0..16usize { _a[_i] = _c45.get_u8_at(120 + _i * 1) as u8; } _a } };
                                let _v47 = Dirent { name: _v44, info: _v46 };
                                _v40.push(_v47);
                            }
                            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
                            srv.send_dirents(_v40);
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
                            let _len48 = _plen35; // merge-prefix: count decoded above the switch
                            let mut _v49: Vec<i32> = Vec::with_capacity(_len48.min(r.remaining() / 4 + 1));
                            for _i50 in 0.._len48 {
                                let _v51 = r.get_u32_le()? as i32;
                                _v49.push(_v51);
                            }
                            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
                            srv.send_ints(_v49);
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
                            let (_v52, ) = decode_echo_stat_request(&mut r)?;
                            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
                            let _ret = srv.echo_stat(_v52);
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

