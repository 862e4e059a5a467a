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
    buf.put_u32_be(vals.len() as u32);
    buf.put_swapped(4, pod::bytes_of(&vals[..])); // swizzle run
}

/// Decodes the `send_ints_request` message body.
#[inline(always)]
pub fn decode_send_ints_request(r: &mut MsgReader<'_>) -> Result<(Vec<i32>, ), DecodeError> {
    let _len2 = r.get_u32_be()? as usize;
    let _v1: Vec<i32> = pod::vec_from_swapped(r.run(_len2, 4)?); // swizzle run
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
    buf.put_u32_be(rects.len() as u32);
    buf.put_swapped(4, pod::bytes_of(rects)); // swizzle image run
}

/// Decodes the `send_rects_request` message body.
#[inline(always)]
pub fn decode_send_rects_request(r: &mut MsgReader<'_>) -> Result<(Vec<Rect>, ), DecodeError> {
    let _len3 = r.get_u32_be()? as usize;
    let _v4: Vec<Rect> = pod::vec_from_swapped_by(4, r.run(_len3, 16)?); // swizzle image run
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
    buf.put_u32_be(entries.len() as u32);
    for _e5 in entries {
        buf.put_u32_be((&_e5.name[..]).len() as u32);
        buf.put_bytes((&_e5.name[..]).as_bytes());
        buf.align_to(4);
        let mut _c6 = buf.chunk(136);
        for _i7 in 0..30usize {
            _c6.put_u32_be_at(0 + _i7 * 4, ((&_e5.info).fields[_i7]) as u32);
        }
        _c6.put_bytes_at(120, pod::bytes_of(&(&_e5.info).tag[..])); // memcpy run
    }
}

/// Decodes the `send_dirents_request` message body.
#[inline(always)]
pub fn decode_send_dirents_request(r: &mut MsgReader<'_>) -> Result<(Vec<Dirent>, ), DecodeError> {
    let _len8 = r.get_u32_be()? as usize;
    let mut _v9: Vec<Dirent> = Vec::with_capacity(_len8.min(r.remaining() / 140 + 1));
    for _i10 in 0.._len8 {
        let _len11 = r.get_u32_be()? as usize;
        let _bytes12 = r.bytes(_len11)?;
        r.skip((4 - _len11 % 4) % 4)?;
        let _v13 = String::from_utf8(_bytes12.to_vec()).map_err(|_| DecodeError::BadValue("string is not UTF-8"))?;
        let _c14 = r.chunk(136)?; // one truncation check
        let _v15 = Stat { fields: { let mut _a = [0i32; 30]; for _i in 0..30usize { _a[_i] = _c14.get_u32_be_at(0 + _i * 4) as i32; } _a }, tag: { let mut _a = [0u8; 16]; pod::copy_into(_c14.bytes_at(120, 16), &mut _a); _a } };
        let _v16 = Dirent { name: _v13, info: _v15 };
        _v9.push(_v16);
    }
    Ok((_v9, ))
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
    buf.ensure(140); // whole message is fixed-size
    let mut _c17 = buf.chunk(136);
    for _i18 in 0..30usize {
        _c17.put_u32_be_at(0 + _i18 * 4, (s.fields[_i18]) as u32);
    }
    _c17.put_bytes_at(120, pod::bytes_of(&s.tag[..])); // memcpy run
    // dead slot `_pad`: never presented, wire gets zero
    buf.put_u32_be((0i32) as u32);
}

/// Decodes the `echo_stat_request` message body.
#[inline(always)]
pub fn decode_echo_stat_request(r: &mut MsgReader<'_>) -> Result<(Stat, ), DecodeError> {
    let _c19 = r.chunk(136)?; // one truncation check
    let _v20 = Stat { fields: { let mut _a = [0i32; 30]; for _i in 0..30usize { _a[_i] = _c19.get_u32_be_at(0 + _i * 4) as i32; } _a }, tag: { let mut _a = [0u8; 16]; pod::copy_into(_c19.bytes_at(120, 16), &mut _a); _a } };
    // dead slot `_pad`: decoded and discarded
    let _v21 = r.get_u32_be()? as i32;
    Ok((_v20, ))
}

/// Encodes the `echo_stat_reply` message body.
#[inline(always)]
pub fn encode_echo_stat_reply(buf: &mut MarshalBuf, _return: &Stat) {
    buf.ensure(136); // whole message is fixed-size
    let mut _c22 = buf.chunk(136);
    for _i23 in 0..30usize {
        _c22.put_u32_be_at(0 + _i23 * 4, (_return.fields[_i23]) as u32);
    }
    _c22.put_bytes_at(120, pod::bytes_of(&_return.tag[..])); // memcpy run
}

/// Decodes the `echo_stat_reply` message body.
pub fn decode_echo_stat_reply(r: &mut MsgReader<'_>) -> Result<(Stat, ), DecodeError> {
    let _c24 = r.chunk(136)?; // one truncation check
    let _v25 = Stat { fields: { let mut _a = [0i32; 30]; for _i in 0..30usize { _a[_i] = _c24.get_u32_be_at(0 + _i * 4) as i32; } _a }, tag: { let mut _a = [0u8; 16]; pod::copy_into(_c24.bytes_at(120, 16), &mut _a); _a } };
    Ok((_v25, ))
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
            let (_v26, ) = decode_send_ints_request(&mut r)?;
            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
            srv.send_ints(_v26);
            _sspan.phase(flick_runtime::trace::Phase::Work, 0);
            _sspan.finish(reply.len() as u64);
            Ok(())
        }
        2u32 => {
            let mut _sspan = flick_runtime::trace::server_begin("send_rects");
            let mut r = MsgReader::new(body);
            let (_v27, ) = decode_send_rects_request(&mut r)?;
            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
            srv.send_rects(_v27);
            _sspan.phase(flick_runtime::trace::Phase::Work, 0);
            _sspan.finish(reply.len() as u64);
            Ok(())
        }
        3u32 => {
            let mut _sspan = flick_runtime::trace::server_begin("send_dirents");
            let mut r = MsgReader::new(body);
            let (_v28, ) = decode_send_dirents_request(&mut r)?;
            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
            srv.send_dirents(_v28);
            _sspan.phase(flick_runtime::trace::Phase::Work, 0);
            _sspan.finish(reply.len() as u64);
            Ok(())
        }
        4u32 => {
            let mut _sspan = flick_runtime::trace::server_begin("echo_stat");
            let mut r = MsgReader::new(body);
            let (_v29, ) = decode_echo_stat_request(&mut r)?;
            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
            let _ret = srv.echo_stat(_v29);
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

