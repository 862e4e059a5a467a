//! Flick-generated stubs — interface `Varied`, presentation `corba-c`,
//! transport `onc-tcp`, encoding `xdr`.
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
    buf.ensure(4100); // whole message is bounded (<= threshold)
    buf.put_u32_be(samples.len() as u32);
    for _e1 in samples {
        buf.put_u32_be((_e1.color) as u32);
        match (&_e1.shade) {
            Shade::Warm(_x) => {
                buf.put_u32_be((0) as u32);
                buf.put_u32_be(((*_x)) as u32);
            }
            Shade::Cool(_x) => {
                buf.put_u32_be((1) as u32);
                buf.put_u32_be(((*_x)) as u32);
            }
            Shade::Other(_d, _x) => {
                buf.put_u32_be(((*_d)) as u32);
                buf.put_u64_be(((*_x)).to_bits());
            }
        }
        buf.put_u32_be((_e1.weight).to_bits());
        buf.put_u64_be((_e1.precise).to_bits());
        buf.put_u32_be((&_e1.label[..]).len() as u32);
        buf.put_bytes((&_e1.label[..]).as_bytes());
        buf.align_to(4);
    }
}

/// Decodes the `put_samples_request` message body.
#[inline(always)]
pub fn decode_put_samples_request(r: &mut MsgReader<'_>) -> Result<(Vec<Sample>, ), DecodeError> {
    let _len2 = r.get_u32_be()? as usize;
    if _len2 as u64 > 64 { return Err(DecodeError::BoundExceeded { got: _len2 as u64, bound: 64 }); }
    let mut _v3: Vec<Sample> = Vec::with_capacity(_len2.min(r.remaining() / 28 + 1));
    for _i4 in 0.._len2 {
        let _v5 = r.get_u32_be()? as u32;
        let _d6 = (r.get_u32_be()? as i32) as i64;
        let _v7 = match _d6 {
            0 => {
                let _v8 = r.get_u32_be()? as u8;
                Shade::Warm(_v8)
            }
            1 => {
                let _v9 = r.get_u32_be()? as i32;
                Shade::Cool(_v9)
            }
            2 => {
                let _v10 = r.get_u32_be()? as i32;
                Shade::Cool(_v10)
            }
            _other => {
                let _v11 = f64::from_bits(r.get_u64_be()?);
                Shade::Other(_other, _v11)
            }
        };
        let _v12 = f32::from_bits(r.get_u32_be()?);
        let _v13 = f64::from_bits(r.get_u64_be()?);
        let _len14 = r.get_u32_be()? as usize;
        if _len14 as u64 > 32 { return Err(DecodeError::BoundExceeded { got: _len14 as u64, bound: 32 }); }
        let _bytes15 = r.bytes(_len14)?;
        r.skip((4 - _len14 % 4) % 4)?;
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
    for _i19 in 0..4usize {
        _c18.put_u32_be_at(0 + _i19 * 4, (g[0][_i19]) as u32);
    }
    for _i20 in 0..4usize {
        _c18.put_u32_be_at(16 + _i20 * 4, (g[1][_i20]) as u32);
    }
    for _i21 in 0..4usize {
        _c18.put_u32_be_at(32 + _i21 * 4, (g[2][_i21]) as u32);
    }
}

/// Decodes the `put_grid_request` message body.
#[inline(always)]
pub fn decode_put_grid_request(r: &mut MsgReader<'_>) -> Result<([[i32; 4]; 3], ), DecodeError> {
    let _c22 = r.chunk(48)?; // one truncation check
    let _v23 = [{ let mut _a = [0i32; 4]; for _i in 0..4usize { _a[_i] = _c22.get_u32_be_at(0 + _i * 4) as i32; } _a }, { let mut _a = [0i32; 4]; for _i in 0..4usize { _a[_i] = _c22.get_u32_be_at(16 + _i * 4) as i32; } _a }, { let mut _a = [0i32; 4]; for _i in 0..4usize { _a[_i] = _c22.get_u32_be_at(32 + _i * 4) as i32; } _a }];
    Ok((_v23, ))
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
    buf.ensure(16); // whole message is bounded (<= threshold)
    match s {
        Shade::Warm(_x) => {
            buf.put_u32_be((0) as u32);
            buf.put_u32_be(((*_x)) as u32);
        }
        Shade::Cool(_x) => {
            buf.put_u32_be((1) as u32);
            buf.put_u32_be(((*_x)) as u32);
        }
        Shade::Other(_d, _x) => {
            buf.put_u32_be(((*_d)) as u32);
            buf.put_u64_be(((*_x)).to_bits());
        }
    }
    buf.put_u32_be((strict) as u32);
}

/// Decodes the `tally_request` message body.
#[inline(always)]
pub fn decode_tally_request(r: &mut MsgReader<'_>) -> Result<(Shade, u8, ), DecodeError> {
    let _d24 = (r.get_u32_be()? as i32) as i64;
    let _v25 = match _d24 {
        0 => {
            let _v26 = r.get_u32_be()? as u8;
            Shade::Warm(_v26)
        }
        1 => {
            let _v27 = r.get_u32_be()? as i32;
            Shade::Cool(_v27)
        }
        2 => {
            let _v28 = r.get_u32_be()? as i32;
            Shade::Cool(_v28)
        }
        _other => {
            let _v29 = f64::from_bits(r.get_u64_be()?);
            Shade::Other(_other, _v29)
        }
    };
    let _v30 = r.get_u32_be()? as u8;
    Ok((_v25, _v30, ))
}

/// Encodes the `tally_reply` message body.
#[inline(always)]
pub fn encode_tally_reply(buf: &mut MarshalBuf, _return: i32) {
    buf.ensure(4); // whole message is fixed-size
    buf.put_u32_be((_return) as u32);
}

/// Decodes the `tally_reply` message body.
pub fn decode_tally_reply(r: &mut MsgReader<'_>) -> Result<(i32, ), DecodeError> {
    let _v31 = r.get_u32_be()? as i32;
    Ok((_v31, ))
}

/// Encodes the `nudge_request` message body.
pub fn encode_nudge_request(buf: &mut MarshalBuf, dx: i16, dy: u16) {
    buf.ensure(8); // whole message is fixed-size
    buf.put_u32_be((dx) as i32 as u32);
    buf.put_u32_be((dy) as u32);
}

/// Decodes the `nudge_request` message body.
#[inline(always)]
pub fn decode_nudge_request(r: &mut MsgReader<'_>) -> Result<(i16, u16, ), DecodeError> {
    let _v32 = r.get_u32_be()? as i32 as i16;
    let _v33 = r.get_u32_be()? as u16;
    Ok((_v32, _v33, ))
}

/// The server-side work interface (implemented by user code).
pub trait Server {
    fn put_samples(&mut self, samples: Vec<Sample>);
    fn put_grid(&mut self, g: [[i32; 4]; 3]);
    fn tally(&mut self, s: Shade, strict: u8) -> i32;
    fn nudge(&mut self, dx: i16, dy: u16);
}

/// Server dispatch on a numeric discriminator (ONC procedure
/// number, Mach message id).  Each arm calls its operation's
/// message functions, which are inlined into it (§3.3).
pub fn dispatch<S: Server>(proc: u32, body: &[u8], reply: &mut MarshalBuf, srv: &mut S) -> Result<(), DecodeError> {
    match proc {
        1u32 => {
            let mut _sspan = flick_runtime::trace::server_begin("put_samples");
            let mut r = MsgReader::new(body);
            let (_v34, ) = decode_put_samples_request(&mut r)?;
            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
            srv.put_samples(_v34);
            _sspan.phase(flick_runtime::trace::Phase::Work, 0);
            _sspan.finish(reply.len() as u64);
            Ok(())
        }
        2u32 => {
            let mut _sspan = flick_runtime::trace::server_begin("put_grid");
            let mut r = MsgReader::new(body);
            let (_v35, ) = decode_put_grid_request(&mut r)?;
            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
            srv.put_grid(_v35);
            _sspan.phase(flick_runtime::trace::Phase::Work, 0);
            _sspan.finish(reply.len() as u64);
            Ok(())
        }
        3u32 => {
            let mut _sspan = flick_runtime::trace::server_begin("tally");
            let mut r = MsgReader::new(body);
            let (_v36, _v37, ) = decode_tally_request(&mut r)?;
            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
            let _ret = srv.tally(_v36, _v37);
            _sspan.phase(flick_runtime::trace::Phase::Work, 0);
            encode_tally_reply(reply, _ret);
            _sspan.phase(flick_runtime::trace::Phase::Encode, reply.len() as u64);
            _sspan.finish(reply.len() as u64);
            Ok(())
        }
        4u32 => {
            let mut _sspan = flick_runtime::trace::server_begin("nudge");
            let mut r = MsgReader::new(body);
            let (_v38, _v39, ) = decode_nudge_request(&mut r)?;
            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
            srv.nudge(_v38, _v39);
            _sspan.phase(flick_runtime::trace::Phase::Work, 0);
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

/// Calls `put_samples` over a datagram endpoint with ONC-over-UDP
/// retransmission (deadline/retries/backoff from `opts`; duplicate,
/// stale, and corrupt replies are absorbed by the xid match).
pub fn call_put_samples<E: flick_runtime::client::Endpoint>(ep: &E, xid: u32, prog: u32, vers: u32, opts: &flick_runtime::client::CallOptions, samples: &[Sample]) -> Result<(), flick_runtime::client::RpcError> {
    let _cspan = flick_runtime::trace::client_begin("put_samples");
    let mut buf = flick_runtime::pool::checkout(); // recycled on drop
    let _budget = flick_runtime::deadline::stamp_capped(opts.deadline);
    flick_runtime::oncrpc::CallHeader { xid, prog, vers, proc: 1u32 }.write(&mut buf);
    encode_put_samples_request(&mut buf, samples);
    let body = _cspan.finish_call(flick_runtime::client::call(ep, xid, buf.as_slice(), opts))?;
    let mut r = MsgReader::new(&body);
    decode_put_samples_reply(&mut r).map_err(flick_runtime::client::RpcError::Decode)
}

/// Calls `put_grid` over a datagram endpoint with ONC-over-UDP
/// retransmission (deadline/retries/backoff from `opts`; duplicate,
/// stale, and corrupt replies are absorbed by the xid match).
pub fn call_put_grid<E: flick_runtime::client::Endpoint>(ep: &E, xid: u32, prog: u32, vers: u32, opts: &flick_runtime::client::CallOptions, g: &[[i32; 4]; 3]) -> Result<(), flick_runtime::client::RpcError> {
    let _cspan = flick_runtime::trace::client_begin("put_grid");
    let mut buf = flick_runtime::pool::checkout(); // recycled on drop
    let _budget = flick_runtime::deadline::stamp_capped(opts.deadline);
    flick_runtime::oncrpc::CallHeader { xid, prog, vers, proc: 2u32 }.write(&mut buf);
    encode_put_grid_request(&mut buf, g);
    let body = _cspan.finish_call(flick_runtime::client::call(ep, xid, buf.as_slice(), opts))?;
    let mut r = MsgReader::new(&body);
    decode_put_grid_reply(&mut r).map_err(flick_runtime::client::RpcError::Decode)
}

/// Calls `tally` over a datagram endpoint with ONC-over-UDP
/// retransmission (deadline/retries/backoff from `opts`; duplicate,
/// stale, and corrupt replies are absorbed by the xid match).
pub fn call_tally<E: flick_runtime::client::Endpoint>(ep: &E, xid: u32, prog: u32, vers: u32, opts: &flick_runtime::client::CallOptions, s: &Shade, strict: u8) -> Result<(i32, ), flick_runtime::client::RpcError> {
    let _cspan = flick_runtime::trace::client_begin("tally");
    let mut buf = flick_runtime::pool::checkout(); // recycled on drop
    let _budget = flick_runtime::deadline::stamp_capped(opts.deadline);
    flick_runtime::oncrpc::CallHeader { xid, prog, vers, proc: 3u32 }.write(&mut buf);
    encode_tally_request(&mut buf, s, strict);
    let body = _cspan.finish_call(flick_runtime::client::call(ep, xid, buf.as_slice(), opts))?;
    let mut r = MsgReader::new(&body);
    decode_tally_reply(&mut r).map_err(flick_runtime::client::RpcError::Decode)
}

