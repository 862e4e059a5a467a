//! Flick-generated stubs — interface `Bench`, presentation `rpcgen-c`,
//! transport `onc-tcp`, encoding `xdr`.
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

/// Out-of-line marshal for `Dirent` (recursive type, or inlining disabled).
pub fn marshal_Dirent(buf: &mut MarshalBuf, v: &Dirent) {
    buf.ensure(8 + (&v.name[..]).len());
    buf.put_u32_be((&v.name[..]).len() as u32);
    buf.put_bytes((&v.name[..]).as_bytes());
    buf.align_to(4);
    marshal_Stat(buf, (&v.info));
}

/// Out-of-line unmarshal for `Dirent`.
pub fn unmarshal_Dirent(r: &mut MsgReader<'_>) -> Result<Dirent, DecodeError> {
    let _len1 = r.get_u32_be()? as usize;
    let _bytes2 = r.bytes(_len1)?;
    r.skip((4 - _len1 % 4) % 4)?;
    let _v3 = String::from_utf8(_bytes2.to_vec()).map_err(|_| DecodeError::BadValue("string is not UTF-8"))?;
    let _v4 = unmarshal_Stat(r)?;
    let _v5 = Dirent { name: _v3, info: _v4 };
    Ok(_v5)
}

/// Out-of-line marshal for `Point` (recursive type, or inlining disabled).
pub fn marshal_Point(buf: &mut MarshalBuf, v: &Point) {
    buf.ensure(4);
    buf.put_u32_be((v.x) as u32);
    buf.ensure(4);
    buf.put_u32_be((v.y) as u32);
}

/// Out-of-line unmarshal for `Point`.
pub fn unmarshal_Point(r: &mut MsgReader<'_>) -> Result<Point, DecodeError> {
    let _v6 = r.get_u32_be()? as i32;
    let _v7 = r.get_u32_be()? as i32;
    let _v8 = Point { x: _v6, y: _v7 };
    Ok(_v8)
}

/// Out-of-line marshal for `Rect` (recursive type, or inlining disabled).
pub fn marshal_Rect(buf: &mut MarshalBuf, v: &Rect) {
    marshal_Point(buf, (&v.min));
    marshal_Point(buf, (&v.max));
}

/// Out-of-line unmarshal for `Rect`.
pub fn unmarshal_Rect(r: &mut MsgReader<'_>) -> Result<Rect, DecodeError> {
    let _v9 = unmarshal_Point(r)?;
    let _v10 = unmarshal_Point(r)?;
    let _v11 = Rect { min: _v9, max: _v10 };
    Ok(_v11)
}

/// Out-of-line marshal for `Stat` (recursive type, or inlining disabled).
pub fn marshal_Stat(buf: &mut MarshalBuf, v: &Stat) {
    buf.ensure(30 * 4 + 4);
    buf.put_swapped(4, pod::bytes_of(&(&v.fields)[..])); // swizzle run
    buf.ensure(16 * 1 + 4);
    buf.put_bytes(pod::bytes_of(&(&v.tag)[..])); // memcpy run
    buf.align_to(4);
}

/// Out-of-line unmarshal for `Stat`.
pub fn unmarshal_Stat(r: &mut MsgReader<'_>) -> Result<Stat, DecodeError> {
    let mut _v12 = [0i32; 30];
    pod::copy_swapped_into(r.bytes(120)?, &mut _v12); // swizzle run
    let mut _v13 = [0u8; 16];
    pod::copy_into(r.bytes(16)?, &mut _v13); // memcpy run
    let _v14 = Stat { fields: _v12, tag: _v13 };
    Ok(_v14)
}

/// Encodes the `send_ints_request` message body.
pub fn encode_send_ints_request(buf: &mut MarshalBuf, vals: &[i32]) {
    buf.ensure(4 + vals.len() * 4); // whole message, sized by its values
    buf.put_u32_be(vals.len() as u32);
    buf.put_swapped(4, pod::bytes_of(&vals[..])); // swizzle run
}

/// Decodes the `send_ints_request` message body.
#[inline(always)]
pub fn decode_send_ints_request(r: &mut MsgReader<'_>) -> Result<(Vec<i32>, ), DecodeError> {
    let _len16 = r.get_u32_be()? as usize;
    let _v15: Vec<i32> = pod::vec_from_swapped(r.run(_len16, 4)?); // swizzle run
    Ok((_v15, ))
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
    buf.put_u32_be(rects.len() as u32);
    for _e17 in rects {
        marshal_Rect(buf, _e17);
    }
}

/// Decodes the `send_rects_request` message body.
#[inline(always)]
pub fn decode_send_rects_request(r: &mut MsgReader<'_>) -> Result<(Vec<Rect>, ), DecodeError> {
    let _len18 = r.get_u32_be()? as usize;
    let mut _v19: Vec<Rect> = Vec::with_capacity(_len18.min(r.remaining() / 16 + 1));
    for _i20 in 0.._len18 {
        let _v21 = unmarshal_Rect(r)?;
        _v19.push(_v21);
    }
    Ok((_v19, ))
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
    buf.put_u32_be(entries.len() as u32);
    for _e22 in entries {
        marshal_Dirent(buf, _e22);
    }
}

/// Decodes the `send_dirents_request` message body.
#[inline(always)]
pub fn decode_send_dirents_request(r: &mut MsgReader<'_>) -> Result<(Vec<Dirent>, ), DecodeError> {
    let _len23 = r.get_u32_be()? as usize;
    let mut _v24: Vec<Dirent> = Vec::with_capacity(_len23.min(r.remaining() / 140 + 1));
    for _i25 in 0.._len23 {
        let _v26 = unmarshal_Dirent(r)?;
        _v24.push(_v26);
    }
    Ok((_v24, ))
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
    marshal_Stat(buf, s);
}

/// Decodes the `echo_stat_request` message body.
#[inline(always)]
pub fn decode_echo_stat_request(r: &mut MsgReader<'_>) -> Result<(Stat, ), DecodeError> {
    let _v27 = unmarshal_Stat(r)?;
    Ok((_v27, ))
}

/// Encodes the `echo_stat_reply` message body.
#[inline(always)]
pub fn encode_echo_stat_reply(buf: &mut MarshalBuf, _return: &Stat) {
    buf.ensure(136); // whole message is fixed-size
    marshal_Stat(buf, _return);
}

/// Decodes the `echo_stat_reply` message body.
pub fn decode_echo_stat_reply(r: &mut MsgReader<'_>) -> Result<(Stat, ), DecodeError> {
    let _v28 = unmarshal_Stat(r)?;
    Ok((_v28, ))
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
            let (_v29, ) = decode_send_ints_request(&mut r)?;
            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
            srv.send_ints(_v29);
            _sspan.phase(flick_runtime::trace::Phase::Work, 0);
            _sspan.finish(reply.len() as u64);
            Ok(())
        }
        2u32 => {
            let mut _sspan = flick_runtime::trace::server_begin("send_rects");
            let mut r = MsgReader::new(body);
            let (_v30, ) = decode_send_rects_request(&mut r)?;
            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
            srv.send_rects(_v30);
            _sspan.phase(flick_runtime::trace::Phase::Work, 0);
            _sspan.finish(reply.len() as u64);
            Ok(())
        }
        3u32 => {
            let mut _sspan = flick_runtime::trace::server_begin("send_dirents");
            let mut r = MsgReader::new(body);
            let (_v31, ) = decode_send_dirents_request(&mut r)?;
            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
            srv.send_dirents(_v31);
            _sspan.phase(flick_runtime::trace::Phase::Work, 0);
            _sspan.finish(reply.len() as u64);
            Ok(())
        }
        4u32 => {
            let mut _sspan = flick_runtime::trace::server_begin("echo_stat");
            let mut r = MsgReader::new(body);
            let (_v32, ) = decode_echo_stat_request(&mut r)?;
            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
            let _ret = srv.echo_stat(_v32);
            _sspan.phase(flick_runtime::trace::Phase::Work, 0);
            encode_echo_stat_reply(reply, (&_ret));
            _sspan.phase(flick_runtime::trace::Phase::Encode, reply.len() as u64);
            _sspan.finish(reply.len() as u64);
            Ok(())
        }
        _ => Err(DecodeError::BadDiscriminator { value: i64::from(proc) }),
    }
}

/// Serves one ONC call `record` for program `prog` version `vers`.
/// Malformed headers, unknown procedures, and argument decode
/// failures answer with the protocol-level error reply
/// (`PROG_UNAVAIL`/`PROG_MISMATCH`/`PROC_UNAVAIL`/`GARBAGE_ARGS`)
/// instead of propagating.  Returns false only when the record was
/// too mangled to answer safely (no reply in `reply`).
pub fn handle_call<S: Server>(record: &[u8], prog: u32, vers: u32, reply: &mut MarshalBuf, srv: &mut S) -> bool {
    use flick_runtime::oncrpc::{self, ReplyOutcome};
    let (h, body) = match oncrpc::accept_call(record, prog, vers, reply) {
        Ok(x) => x,
        Err(replied) => {
            flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Xdr);
            return replied;
        }
    };
    if !matches!(h.proc, 1u32 | 2u32 | 3u32 | 4u32) {
        flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Xdr);
        oncrpc::write_reply(reply, h.xid, ReplyOutcome::ProcUnavail);
        return true;
    }
    // A call whose propagated budget is already spent gets the
    // cheap failure, not the work (see flick_runtime::deadline).
    if flick_runtime::deadline::inbound_expired() {
        flick_runtime::metrics::rpc_expired();
        oncrpc::write_reply(reply, h.xid, ReplyOutcome::SystemErr);
        return true;
    }
    oncrpc::write_reply(reply, h.xid, ReplyOutcome::Success);
    match dispatch(h.proc, body, reply, srv) {
        Ok(()) => true,
        Err(_e) => {
            flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Xdr);
            reply.clear();
            oncrpc::write_reply(reply, h.xid, ReplyOutcome::GarbageArgs);
            true
        }
    }
}

/// Calls `send_ints` over a datagram endpoint with ONC-over-UDP
/// retransmission (deadline/retries/backoff from `opts`; duplicate,
/// stale, and corrupt replies are absorbed by the xid match).
pub fn call_send_ints<E: flick_runtime::client::Endpoint>(ep: &E, xid: u32, prog: u32, vers: u32, opts: &flick_runtime::client::CallOptions, vals: &[i32]) -> Result<(), flick_runtime::client::RpcError> {
    let _cspan = flick_runtime::trace::client_begin("send_ints");
    let mut buf = flick_runtime::pool::checkout(); // recycled on drop
    let _budget = flick_runtime::deadline::stamp_capped(opts.deadline);
    flick_runtime::oncrpc::CallHeader { xid, prog, vers, proc: 1u32 }.write(&mut buf);
    encode_send_ints_request(&mut buf, vals);
    let body = _cspan.finish_call(flick_runtime::client::call(ep, xid, buf.as_slice(), opts))?;
    let mut r = MsgReader::new(&body);
    decode_send_ints_reply(&mut r).map_err(flick_runtime::client::RpcError::Decode)
}

/// Calls `send_rects` over a datagram endpoint with ONC-over-UDP
/// retransmission (deadline/retries/backoff from `opts`; duplicate,
/// stale, and corrupt replies are absorbed by the xid match).
pub fn call_send_rects<E: flick_runtime::client::Endpoint>(ep: &E, xid: u32, prog: u32, vers: u32, opts: &flick_runtime::client::CallOptions, rects: &[Rect]) -> Result<(), flick_runtime::client::RpcError> {
    let _cspan = flick_runtime::trace::client_begin("send_rects");
    let mut buf = flick_runtime::pool::checkout(); // recycled on drop
    let _budget = flick_runtime::deadline::stamp_capped(opts.deadline);
    flick_runtime::oncrpc::CallHeader { xid, prog, vers, proc: 2u32 }.write(&mut buf);
    encode_send_rects_request(&mut buf, rects);
    let body = _cspan.finish_call(flick_runtime::client::call(ep, xid, buf.as_slice(), opts))?;
    let mut r = MsgReader::new(&body);
    decode_send_rects_reply(&mut r).map_err(flick_runtime::client::RpcError::Decode)
}

/// Calls `send_dirents` over a datagram endpoint with ONC-over-UDP
/// retransmission (deadline/retries/backoff from `opts`; duplicate,
/// stale, and corrupt replies are absorbed by the xid match).
pub fn call_send_dirents<E: flick_runtime::client::Endpoint>(ep: &E, xid: u32, prog: u32, vers: u32, opts: &flick_runtime::client::CallOptions, entries: &[Dirent]) -> Result<(), flick_runtime::client::RpcError> {
    let _cspan = flick_runtime::trace::client_begin("send_dirents");
    let mut buf = flick_runtime::pool::checkout(); // recycled on drop
    let _budget = flick_runtime::deadline::stamp_capped(opts.deadline);
    flick_runtime::oncrpc::CallHeader { xid, prog, vers, proc: 3u32 }.write(&mut buf);
    encode_send_dirents_request(&mut buf, entries);
    let body = _cspan.finish_call(flick_runtime::client::call(ep, xid, buf.as_slice(), opts))?;
    let mut r = MsgReader::new(&body);
    decode_send_dirents_reply(&mut r).map_err(flick_runtime::client::RpcError::Decode)
}

/// Calls `echo_stat` over a datagram endpoint with ONC-over-UDP
/// retransmission (deadline/retries/backoff from `opts`; duplicate,
/// stale, and corrupt replies are absorbed by the xid match).
pub fn call_echo_stat<E: flick_runtime::client::Endpoint>(ep: &E, xid: u32, prog: u32, vers: u32, opts: &flick_runtime::client::CallOptions, s: &Stat) -> Result<(Stat, ), flick_runtime::client::RpcError> {
    let _cspan = flick_runtime::trace::client_begin("echo_stat");
    let mut buf = flick_runtime::pool::checkout(); // recycled on drop
    let _budget = flick_runtime::deadline::stamp_capped(opts.deadline);
    flick_runtime::oncrpc::CallHeader { xid, prog, vers, proc: 4u32 }.write(&mut buf);
    encode_echo_stat_request(&mut buf, s);
    let body = _cspan.finish_call(flick_runtime::client::call(ep, xid, buf.as_slice(), opts))?;
    let mut r = MsgReader::new(&body);
    decode_echo_stat_reply(&mut r).map_err(flick_runtime::client::RpcError::Decode)
}

