//! Flick-generated stubs — interface `Bench`, presentation `corba-c`,
//! transport `mach3`, encoding `mach3`.
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
    buf.ensure(4 + flick_runtime::mach::type_bytes(vals.len()) + vals.len() * 4); // whole message, sized by its values
    flick_runtime::mach::put_type(buf, 2, 32, (vals.len()) as u32);
    buf.put_u32_le(vals.len() as u32);
    buf.put_bytes(pod::bytes_of(&vals[..])); // memcpy run
}

/// Decodes the `send_ints_request` message body.
#[inline(always)]
pub fn decode_send_ints_request(r: &mut MsgReader<'_>) -> Result<(Vec<i32>, ), DecodeError> {
    let _desc = flick_runtime::mach::get_type(r)?;
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
    buf.ensure(4 + rects.len() * 32); // whole message, sized by its values
    buf.put_u32_le(rects.len() as u32);
    for _e3 in rects {
        flick_runtime::mach::put_type(buf, 2, 32, (1) as u32);
        buf.put_u32_le(((&_e3.min).x) as u32);
        flick_runtime::mach::put_type(buf, 2, 32, (1) as u32);
        buf.put_u32_le(((&_e3.min).y) as u32);
        flick_runtime::mach::put_type(buf, 2, 32, (1) as u32);
        buf.put_u32_le(((&_e3.max).x) as u32);
        flick_runtime::mach::put_type(buf, 2, 32, (1) as u32);
        buf.put_u32_le(((&_e3.max).y) as u32);
    }
}

/// Decodes the `send_rects_request` message body.
#[inline(always)]
pub fn decode_send_rects_request(r: &mut MsgReader<'_>) -> Result<(Vec<Rect>, ), DecodeError> {
    let _len4 = r.get_u32_le()? as usize;
    let mut _v5: Vec<Rect> = Vec::with_capacity(_len4.min(r.remaining() / 16 + 1));
    for _i6 in 0.._len4 {
        let _desc = flick_runtime::mach::get_type(r)?;
        let _v7 = r.get_u32_le()? as i32;
        let _desc = flick_runtime::mach::get_type(r)?;
        let _v8 = r.get_u32_le()? as i32;
        let _v9 = Point { x: _v7, y: _v8 };
        let _desc = flick_runtime::mach::get_type(r)?;
        let _v10 = r.get_u32_le()? as i32;
        let _desc = flick_runtime::mach::get_type(r)?;
        let _v11 = r.get_u32_le()? as i32;
        let _v12 = Point { x: _v10, y: _v11 };
        let _v13 = Rect { min: _v9, max: _v12 };
        _v5.push(_v13);
    }
    Ok((_v5, ))
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
    buf.ensure(4 + entries.iter().map(|_r0| 151 + flick_runtime::mach::type_bytes(_r0.name.len()) + ((_r0.name.len() + 3) & !3)).sum::<usize>()); // whole message, sized by its values
    buf.put_u32_le(entries.len() as u32);
    for _e14 in entries {
        flick_runtime::mach::put_type(buf, 8, 8, ((&_e14.name[..]).len()) as u32);
        buf.align_from(_base, 4);
        buf.put_u32_le((&_e14.name[..]).len() as u32);
        buf.put_bytes((&_e14.name[..]).as_bytes());
        buf.align_to(4);
        flick_runtime::mach::put_type(buf, 2, 32, (30) as u32);
        buf.put_bytes(pod::bytes_of(&(&(&_e14.info).fields)[..])); // memcpy run
        flick_runtime::mach::put_type(buf, 9, 8, (16) as u32);
        buf.put_bytes(pod::bytes_of(&(&(&_e14.info).tag)[..])); // memcpy run
        buf.align_to(4);
    }
}

/// Decodes the `send_dirents_request` message body.
#[inline(always)]
pub fn decode_send_dirents_request(r: &mut MsgReader<'_>) -> Result<(Vec<Dirent>, ), DecodeError> {
    let _base = r.pos();
    let _len15 = r.get_u32_le()? as usize;
    let mut _v16: Vec<Dirent> = Vec::with_capacity(_len15.min(r.remaining() / 140 + 1));
    for _i17 in 0.._len15 {
        let _desc = flick_runtime::mach::get_type(r)?;
        r.align_from(_base, 4)?;
        let _len18 = r.get_u32_le()? as usize;
        let _bytes19 = r.bytes(_len18)?;
        r.skip((4 - _len18 % 4) % 4)?;
        let _v20 = String::from_utf8(_bytes19.to_vec()).map_err(|_| DecodeError::BadValue("string is not UTF-8"))?;
        let _desc = flick_runtime::mach::get_type(r)?;
        let mut _v21 = [0i32; 30];
        pod::copy_into(r.bytes(120)?, &mut _v21); // memcpy run
        let _desc = flick_runtime::mach::get_type(r)?;
        let mut _v22 = [0u8; 16];
        pod::copy_into(r.bytes(16)?, &mut _v22); // memcpy run
        let _v23 = Stat { fields: _v21, tag: _v22 };
        let _v24 = Dirent { name: _v20, info: _v23 };
        _v16.push(_v24);
    }
    Ok((_v16, ))
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
    buf.ensure(144); // whole message is fixed-size
    flick_runtime::mach::put_type(buf, 2, 32, (30) as u32);
    buf.put_bytes(pod::bytes_of(&(&s.fields)[..])); // memcpy run
    flick_runtime::mach::put_type(buf, 9, 8, (16) as u32);
    buf.put_bytes(pod::bytes_of(&(&s.tag)[..])); // memcpy run
    buf.align_to(4);
}

/// Decodes the `echo_stat_request` message body.
#[inline(always)]
pub fn decode_echo_stat_request(r: &mut MsgReader<'_>) -> Result<(Stat, ), DecodeError> {
    let _desc = flick_runtime::mach::get_type(r)?;
    let mut _v25 = [0i32; 30];
    pod::copy_into(r.bytes(120)?, &mut _v25); // memcpy run
    let _desc = flick_runtime::mach::get_type(r)?;
    let mut _v26 = [0u8; 16];
    pod::copy_into(r.bytes(16)?, &mut _v26); // memcpy run
    let _v27 = Stat { fields: _v25, tag: _v26 };
    Ok((_v27, ))
}

/// Encodes the `echo_stat_reply` message body.
#[inline(always)]
pub fn encode_echo_stat_reply(buf: &mut MarshalBuf, _return: &Stat) {
    buf.ensure(144); // whole message is fixed-size
    flick_runtime::mach::put_type(buf, 2, 32, (30) as u32);
    buf.put_bytes(pod::bytes_of(&(&_return.fields)[..])); // memcpy run
    flick_runtime::mach::put_type(buf, 9, 8, (16) as u32);
    buf.put_bytes(pod::bytes_of(&(&_return.tag)[..])); // memcpy run
    buf.align_to(4);
}

/// Decodes the `echo_stat_reply` message body.
pub fn decode_echo_stat_reply(r: &mut MsgReader<'_>) -> Result<(Stat, ), DecodeError> {
    let _desc = flick_runtime::mach::get_type(r)?;
    let mut _v28 = [0i32; 30];
    pod::copy_into(r.bytes(120)?, &mut _v28); // memcpy run
    let _desc = flick_runtime::mach::get_type(r)?;
    let mut _v29 = [0u8; 16];
    pod::copy_into(r.bytes(16)?, &mut _v29); // memcpy run
    let _v30 = Stat { fields: _v28, tag: _v29 };
    Ok((_v30, ))
}

/// The server-side work interface (implemented by user code).
pub trait Server {
    fn send_ints(&mut self, vals: Vec<i32>);
    fn send_rects(&mut self, rects: Vec<Rect>);
    fn send_dirents(&mut self, entries: Vec<Dirent>);
    fn echo_stat(&mut self, s: Stat) -> Stat;
}

/// Server dispatch on a numeric discriminator (ONC procedure
/// number, Mach message id).  Each arm calls its operation's
/// message functions, which are inlined into it (§3.3).
pub fn dispatch<S: Server>(proc: u32, body: &[u8], reply: &mut MarshalBuf, srv: &mut S) -> Result<(), DecodeError> {
    match proc {
        1u32 => {
            let mut _sspan = flick_runtime::trace::server_begin("send_ints");
            let mut r = MsgReader::new(body);
            let (_v31, ) = decode_send_ints_request(&mut r)?;
            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
            srv.send_ints(_v31);
            _sspan.phase(flick_runtime::trace::Phase::Work, 0);
            _sspan.finish(reply.len() as u64);
            Ok(())
        }
        2u32 => {
            let mut _sspan = flick_runtime::trace::server_begin("send_rects");
            let mut r = MsgReader::new(body);
            let (_v32, ) = decode_send_rects_request(&mut r)?;
            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
            srv.send_rects(_v32);
            _sspan.phase(flick_runtime::trace::Phase::Work, 0);
            _sspan.finish(reply.len() as u64);
            Ok(())
        }
        3u32 => {
            let mut _sspan = flick_runtime::trace::server_begin("send_dirents");
            let mut r = MsgReader::new(body);
            let (_v33, ) = decode_send_dirents_request(&mut r)?;
            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
            srv.send_dirents(_v33);
            _sspan.phase(flick_runtime::trace::Phase::Work, 0);
            _sspan.finish(reply.len() as u64);
            Ok(())
        }
        4u32 => {
            let mut _sspan = flick_runtime::trace::server_begin("echo_stat");
            let mut r = MsgReader::new(body);
            let (_v34, ) = decode_echo_stat_request(&mut r)?;
            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
            let _ret = srv.echo_stat(_v34);
            _sspan.phase(flick_runtime::trace::Phase::Work, 0);
            encode_echo_stat_reply(reply, (&_ret));
            _sspan.phase(flick_runtime::trace::Phase::Encode, reply.len() as u64);
            _sspan.finish(reply.len() as u64);
            Ok(())
        }
        _ => Err(DecodeError::BadDiscriminator { value: i64::from(proc) }),
    }
}

