//! Flick-generated stubs — interface `Bench`, presentation `fluke-c`,
//! transport `fluke`, encoding `fluke`.
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
    buf.ensure(4 + entries.iter().map(|_r0| 140 + ((_r0.name.len() + 3) & !3)).sum::<usize>()); // whole message, sized by its values
    buf.put_u32_le(entries.len() as u32);
    for _e5 in entries {
        buf.put_u32_le((&_e5.name[..]).len() as u32);
        buf.put_bytes((&_e5.name[..]).as_bytes());
        buf.align_to(4);
        let mut _c6 = buf.chunk(136);
        _c6.put_bytes_at(0, pod::bytes_of(&(&_e5.info).fields[..])); // memcpy run
        _c6.put_bytes_at(120, pod::bytes_of(&(&_e5.info).tag[..])); // memcpy run
    }
}

/// Decodes the `send_dirents_request` message body.
#[inline(always)]
pub fn decode_send_dirents_request(r: &mut MsgReader<'_>) -> Result<(Vec<Dirent>, ), DecodeError> {
    let _len7 = r.get_u32_le()? as usize;
    let mut _v8: Vec<Dirent> = Vec::with_capacity(_len7.min(r.remaining() / 140 + 1));
    for _i9 in 0.._len7 {
        let _len10 = r.get_u32_le()? as usize;
        let _bytes11 = r.bytes(_len10)?;
        r.skip((4 - _len10 % 4) % 4)?;
        let _v12 = String::from_utf8(_bytes11.to_vec()).map_err(|_| DecodeError::BadValue("string is not UTF-8"))?;
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
    fn echo_stat(&mut self, s: Stat) -> flick_runtime::Echoed<Stat>;
}

/// Server dispatch on a numeric discriminator (ONC procedure
/// number, Mach message id).  Each arm calls its operation's
/// message functions, which are inlined into it (§3.3).
pub fn dispatch<S: Server>(proc: u32, body: &[u8], reply: &mut MarshalBuf, srv: &mut S) -> Result<(), DecodeError> {
    match proc {
        1u32 => {
            let mut _sspan = flick_runtime::trace::server_begin("send_ints");
            let mut r = MsgReader::new(body);
            let (_v22, ) = decode_send_ints_request(&mut r)?;
            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
            srv.send_ints(_v22);
            _sspan.phase(flick_runtime::trace::Phase::Work, 0);
            _sspan.finish(reply.len() as u64);
            Ok(())
        }
        2u32 => {
            let mut _sspan = flick_runtime::trace::server_begin("send_rects");
            let mut r = MsgReader::new(body);
            let (_v23, ) = decode_send_rects_request(&mut r)?;
            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
            srv.send_rects(_v23);
            _sspan.phase(flick_runtime::trace::Phase::Work, 0);
            _sspan.finish(reply.len() as u64);
            Ok(())
        }
        3u32 => {
            let mut _sspan = flick_runtime::trace::server_begin("send_dirents");
            let mut r = MsgReader::new(body);
            let (_v24, ) = decode_send_dirents_request(&mut r)?;
            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
            srv.send_dirents(_v24);
            _sspan.phase(flick_runtime::trace::Phase::Work, 0);
            _sspan.finish(reply.len() as u64);
            Ok(())
        }
        4u32 => {
            let mut _sspan = flick_runtime::trace::server_begin("echo_stat");
            let mut r = MsgReader::new(body);
            let (_v25, ) = decode_echo_stat_request(&mut r)?;
            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
            let _ret = srv.echo_stat(_v25);
            _sspan.phase(flick_runtime::trace::Phase::Work, 0);
            match _ret {
                flick_runtime::Echoed::Unchanged => reply.put_bytes(&body[0..136]), // reply-alias: reuse request bytes
                flick_runtime::Echoed::Changed(_changed) => encode_echo_stat_reply(reply, (&_changed)),
            }
            _sspan.phase(flick_runtime::trace::Phase::Encode, reply.len() as u64);
            _sspan.finish(reply.len() as u64);
            Ok(())
        }
        _ => Err(DecodeError::BadDiscriminator { value: i64::from(proc) }),
    }
}

