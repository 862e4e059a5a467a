//! Flick-generated stubs — interface `Varied`, presentation `corba-c`,
//! transport `iiop-tcp`, encoding `cdr-le`.
//! Generated by flick-backend; do not edit.
#![allow(clippy::all, dead_code, unused_variables, unused_mut, unused_imports, unused_parens, non_snake_case, non_camel_case_types)]

use flick_runtime::buf::{MarshalBuf, MsgReader};
use flick_runtime::error::DecodeError;
use flick_runtime::pod;

/// Presented type `Sample` (generated).
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    pub color: u32,
    pub shade: Shade,
    pub weight: f32,
    pub precise: f64,
    pub label: String,
}

/// Presented union `Shade` (generated).
#[derive(Clone, Debug, PartialEq)]
pub enum Shade {
    Warm(u8),
    Cool(i32),
    Other(i64, f64),
}

/// Encodes the `put_samples_request` message body.
pub fn encode_put_samples_request(buf: &mut MarshalBuf, samples: &[Sample]) {
    let _base = buf.len();
    buf.ensure(5060); // whole message is bounded (<= threshold)
    buf.put_u32_le(samples.len() as u32);
    for _e1 in samples {
        buf.align_from(_base, 4);
        buf.put_u32_le((_e1.color) as u32);
        match (&_e1.shade) {
            Shade::Warm(_x) => {
                buf.put_u32_le((0) as u32);
                buf.put_u8(((*_x)) as u8);
            }
            Shade::Cool(_x) => {
                buf.put_u32_le((1) as u32);
                buf.put_u32_le(((*_x)) as u32);
            }
            Shade::Other(_d, _x) => {
                buf.put_u32_le(((*_d)) as u32);
                buf.align_from(_base, 8);
                buf.put_u64_le(((*_x)).to_bits());
            }
        }
        buf.align_from(_base, 4);
        buf.put_u32_le((_e1.weight).to_bits());
        buf.align_from(_base, 8);
        buf.put_u64_le((_e1.precise).to_bits());
        buf.put_u32_le(((&_e1.label[..]).len() + 1) as u32);
        buf.put_bytes((&_e1.label[..]).as_bytes());
        buf.put_u8(0);
    }
}

/// Decodes the `put_samples_request` message body.
#[inline(always)]
pub fn decode_put_samples_request(r: &mut MsgReader<'_>) -> Result<(Vec<Sample>, ), DecodeError> {
    let _base = r.pos();
    let _len2 = r.get_u32_le()? as usize;
    if _len2 as u64 > 64 { return Err(DecodeError::BoundExceeded { got: _len2 as u64, bound: 64 }); }
    let mut _v3: Vec<Sample> = Vec::with_capacity(_len2.min(r.remaining() / 26 + 1));
    for _i4 in 0.._len2 {
        r.align_from(_base, 4)?;
        let _v5 = r.get_u32_le()? as u32;
        let _d6 = (r.get_u32_le()? as i32) as i64;
        let _v7 = match _d6 {
            0 => {
                let _v8 = r.get_u8()? as u8;
                Shade::Warm(_v8)
            }
            1 => {
                let _v9 = r.get_u32_le()? as i32;
                Shade::Cool(_v9)
            }
            2 => {
                let _v10 = r.get_u32_le()? as i32;
                Shade::Cool(_v10)
            }
            _other => {
                r.align_from(_base, 8)?;
                let _v11 = f64::from_bits(r.get_u64_le()?);
                Shade::Other(_other, _v11)
            }
        };
        r.align_from(_base, 4)?;
        let _v12 = f32::from_bits(r.get_u32_le()?);
        r.align_from(_base, 8)?;
        let _v13 = f64::from_bits(r.get_u64_le()?);
        let _len14 = r.get_u32_le()? as usize;
        if _len14 as u64 > 32 { return Err(DecodeError::BoundExceeded { got: _len14 as u64, bound: 32 }); }
        if _len14 == 0 { return Err(DecodeError::BadValue("CDR string length must include NUL")); }
        let _bytes15 = &r.bytes(_len14)?[.._len14 - 1];
        let _v16 = String::from_utf8(_bytes15.to_vec()).map_err(|_| DecodeError::BadValue("string is not UTF-8"))?;
        let _v17 = Sample { color: _v5, shade: _v7, weight: _v12, precise: _v13, label: _v16 };
        _v3.push(_v17);
    }
    Ok((_v3, ))
}

/// Encodes the `put_samples_reply` message body.
#[inline(always)]
pub fn encode_put_samples_reply(buf: &mut MarshalBuf) {
}

/// Decodes the `put_samples_reply` message body.
pub fn decode_put_samples_reply(r: &mut MsgReader<'_>) -> Result<(), DecodeError> {
    Ok(())
}

/// Encodes the `put_grid_request` message body.
pub fn encode_put_grid_request(buf: &mut MarshalBuf, g: &[[i32; 4]; 3]) {
    buf.ensure(48); // whole message is fixed-size
    let mut _c18 = buf.chunk(48);
    _c18.put_bytes_at(0, pod::bytes_of(&g[0][..])); // memcpy run
    _c18.put_bytes_at(16, pod::bytes_of(&g[1][..])); // memcpy run
    _c18.put_bytes_at(32, pod::bytes_of(&g[2][..])); // memcpy run
}

/// Decodes the `put_grid_request` message body.
#[inline(always)]
pub fn decode_put_grid_request(r: &mut MsgReader<'_>) -> Result<([[i32; 4]; 3], ), DecodeError> {
    let _c19 = r.chunk(48)?; // one truncation check
    let _v20 = [{ let mut _a = [0i32; 4]; pod::copy_into(_c19.bytes_at(0, 16), &mut _a); _a }, { let mut _a = [0i32; 4]; pod::copy_into(_c19.bytes_at(16, 16), &mut _a); _a }, { let mut _a = [0i32; 4]; pod::copy_into(_c19.bytes_at(32, 16), &mut _a); _a }];
    Ok((_v20, ))
}

/// Encodes the `put_grid_reply` message body.
#[inline(always)]
pub fn encode_put_grid_reply(buf: &mut MarshalBuf) {
}

/// Decodes the `put_grid_reply` message body.
pub fn decode_put_grid_reply(r: &mut MsgReader<'_>) -> Result<(), DecodeError> {
    Ok(())
}

/// Encodes the `tally_request` message body.
pub fn encode_tally_request(buf: &mut MarshalBuf, s: &Shade, strict: u8) {
    buf.ensure(17); // whole message is bounded (<= threshold)
    match s {
        Shade::Warm(_x) => {
            buf.put_u32_le((0) as u32);
            buf.put_u8(((*_x)) as u8);
        }
        Shade::Cool(_x) => {
            buf.put_u32_le((1) as u32);
            buf.put_u32_le(((*_x)) as u32);
        }
        Shade::Other(_d, _x) => {
            buf.put_u32_le(((*_d)) as u32);
            buf.put_zeros(4);
            buf.put_u64_le(((*_x)).to_bits());
        }
    }
    buf.put_u8((strict) as u8);
}

/// Decodes the `tally_request` message body.
#[inline(always)]
pub fn decode_tally_request(r: &mut MsgReader<'_>) -> Result<(Shade, u8, ), DecodeError> {
    let _d21 = (r.get_u32_le()? as i32) as i64;
    let _v22 = match _d21 {
        0 => {
            let _v23 = r.get_u8()? as u8;
            Shade::Warm(_v23)
        }
        1 => {
            let _v24 = r.get_u32_le()? as i32;
            Shade::Cool(_v24)
        }
        2 => {
            let _v25 = r.get_u32_le()? as i32;
            Shade::Cool(_v25)
        }
        _other => {
            r.skip(4)?;
            let _v26 = f64::from_bits(r.get_u64_le()?);
            Shade::Other(_other, _v26)
        }
    };
    let _v27 = r.get_u8()? as u8;
    Ok((_v22, _v27, ))
}

/// Encodes the `tally_reply` message body.
#[inline(always)]
pub fn encode_tally_reply(buf: &mut MarshalBuf, _return: i32) {
    buf.ensure(4); // whole message is fixed-size
    buf.put_u32_le((_return) as u32);
}

/// Decodes the `tally_reply` message body.
pub fn decode_tally_reply(r: &mut MsgReader<'_>) -> Result<(i32, ), DecodeError> {
    let _v28 = r.get_u32_le()? as i32;
    Ok((_v28, ))
}

/// Encodes the `nudge_request` message body.
pub fn encode_nudge_request(buf: &mut MarshalBuf, dx: i16, dy: u16) {
    buf.ensure(4); // whole message is fixed-size
    buf.put_u16_le((dx) as u16);
    buf.put_u16_le((dy) as u16);
}

/// Decodes the `nudge_request` message body.
#[inline(always)]
pub fn decode_nudge_request(r: &mut MsgReader<'_>) -> Result<(i16, u16, ), DecodeError> {
    let _v29 = r.get_u16_le()? as i16;
    let _v30 = r.get_u16_le()? as u16;
    Ok((_v29, _v30, ))
}

/// The server-side work interface (implemented by user code).
pub trait Server {
    fn put_samples(&mut self, samples: Vec<Sample>);
    fn put_grid(&mut self, g: [[i32; 4]; 3]);
    fn tally(&mut self, s: Shade, strict: u8) -> i32;
    fn nudge(&mut self, dx: i16, dy: u16);
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
        1601467760u32 => {
            match word_at(op, 4) {
                1684632167u32 if op.len() == 8 => { // "put_grid"
                    let mut _sspan = flick_runtime::trace::server_begin("put_grid");
                    let mut r = MsgReader::new(body);
                    let (_v31, ) = decode_put_grid_request(&mut r)?;
                    _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
                    srv.put_grid(_v31);
                    _sspan.phase(flick_runtime::trace::Phase::Work, 0);
                    _sspan.finish(reply.len() as u64);
                    Ok(())
                }
                1886216563u32 => {
                    match word_at(op, 8) {
                        7562604u32 if op.len() == 11 => { // "put_samples"
                            let mut _sspan = flick_runtime::trace::server_begin("put_samples");
                            let mut r = MsgReader::new(body);
                            let (_v32, ) = decode_put_samples_request(&mut r)?;
                            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
                            srv.put_samples(_v32);
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
        1734636910u32 => {
            match word_at(op, 4) {
                101u32 if op.len() == 5 => { // "nudge"
                    let mut _sspan = flick_runtime::trace::server_begin("nudge");
                    let mut r = MsgReader::new(body);
                    let (_v33, _v34, ) = decode_nudge_request(&mut r)?;
                    _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
                    srv.nudge(_v33, _v34);
                    _sspan.phase(flick_runtime::trace::Phase::Work, 0);
                    _sspan.finish(reply.len() as u64);
                    Ok(())
                }
                _ => Err(DecodeError::BadDiscriminator { value: op.len() as i64 }),
            }
        }
        1819042164u32 => {
            match word_at(op, 4) {
                121u32 if op.len() == 5 => { // "tally"
                    let mut _sspan = flick_runtime::trace::server_begin("tally");
                    let mut r = MsgReader::new(body);
                    let (_v35, _v36, ) = decode_tally_request(&mut r)?;
                    _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
                    let _ret = srv.tally(_v35, _v36);
                    _sspan.phase(flick_runtime::trace::Phase::Work, 0);
                    encode_tally_reply(reply, _ret);
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
    if !matches!(req.operation.as_bytes(), b"put_samples" | b"put_grid" | b"tally" | b"nudge") {
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

