//! Flick-generated stubs — interface `Mail`, presentation `rpcgen-c`,
//! transport `onc-tcp`, encoding `xdr`.
//! Generated by flick-backend; do not edit.
#![allow(clippy::all, dead_code, unused_variables, unused_mut, unused_imports, unused_parens, non_snake_case, non_camel_case_types)]

use flick_runtime::buf::{MarshalBuf, MsgReader};
use flick_runtime::error::DecodeError;
use flick_runtime::pod;

/// Encodes the `send_request` message body.
pub fn encode_send_request(buf: &mut MarshalBuf, msg: &str) {
    buf.ensure(4 + ((msg.len() + 3) & !3)); // whole message, sized by its values
    buf.put_u32_be(msg.len() as u32);
    buf.put_bytes(msg.as_bytes());
    buf.align_to(4);
}

/// Decodes the `send_request` message body.
#[inline(always)]
pub fn decode_send_request(r: &mut MsgReader<'_>) -> Result<(String, ), DecodeError> {
    let _len1 = r.get_u32_be()? as usize;
    let _bytes2 = r.bytes(_len1)?;
    r.skip((4 - _len1 % 4) % 4)?;
    let _v3 = String::from_utf8(_bytes2.to_vec()).map_err(|_| DecodeError::BadValue("string is not UTF-8"))?;
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
    fn send(&mut self, msg: String);
}

/// Server dispatch on a numeric discriminator (ONC procedure
/// number, Mach message id).  Each arm calls its operation's
/// message functions, which are inlined into it (§3.3).
pub fn dispatch<S: Server>(proc: u32, body: &[u8], reply: &mut MarshalBuf, srv: &mut S) -> Result<(), DecodeError> {
    match proc {
        1u32 => {
            let mut _sspan = flick_runtime::trace::server_begin("send");
            let mut r = MsgReader::new(body);
            let (_v4, ) = decode_send_request(&mut r)?;
            _sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);
            srv.send(_v4);
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
    if !matches!(h.proc, 1u32) {
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

/// Calls `send` over a datagram endpoint with ONC-over-UDP
/// retransmission (deadline/retries/backoff from `opts`; duplicate,
/// stale, and corrupt replies are absorbed by the xid match).
pub fn call_send<E: flick_runtime::client::Endpoint>(ep: &E, xid: u32, prog: u32, vers: u32, opts: &flick_runtime::client::CallOptions, msg: &str) -> Result<(), flick_runtime::client::RpcError> {
    let _cspan = flick_runtime::trace::client_begin("send");
    let mut buf = flick_runtime::pool::checkout(); // recycled on drop
    let _budget = flick_runtime::deadline::stamp_capped(opts.deadline);
    flick_runtime::oncrpc::CallHeader { xid, prog, vers, proc: 1u32 }.write(&mut buf);
    encode_send_request(&mut buf, msg);
    let body = _cspan.finish_call(flick_runtime::client::call(ep, xid, buf.as_slice(), opts))?;
    let mut r = MsgReader::new(&body);
    decode_send_reply(&mut r).map_err(flick_runtime::client::RpcError::Decode)
}

