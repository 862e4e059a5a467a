//! Flick-generated transcoder — interface `Bench`, `xdr` → `cdr-le`.
//! Generated by flick-backend; do not edit.
#![allow(clippy::all, dead_code, unused_variables, unused_mut, unused_imports, unused_parens, non_snake_case, non_camel_case_types)]

use flick_runtime::bridge::BridgeOp;
use flick_runtime::buf::{MarshalBuf, MsgReader};
use flick_runtime::error::DecodeError;

/// True when the `fuse-transcode` pass collapsed tiling runs;
/// false for the decode-then-re-encode ablation build.
pub const FUSED: bool = true;
/// Source (client-facing) encoding.
pub const SRC_ENCODING: &str = "xdr";
/// Target (server-facing) encoding.
pub const DST_ENCODING: &str = "cdr-le";
/// Byte-order flag for outgoing GIOP headers on the target side.
pub const DST_LITTLE_ENDIAN: bool = true;
/// ONC RPC program / version on the source side (the wire
/// header carries 32 bits; synthesized CORBA ids truncate).
pub const PROGRAM: u32 = 4219518105u32;
pub const VERSION: u32 = 1u32;

/// Per-operation gateway table consumed by `flick_runtime::bridge`.
pub static BRIDGE_OPS: &[BridgeOp] = &[
    BridgeOp {
        proc_num: 1u32,
        name: "send_ints",
        oneway: false,
        idempotent: false,
        request: transcode_send_ints_request,
        reply: transcode_send_ints_reply,
        request_naive: transcode_send_ints_request_naive,
        reply_naive: transcode_send_ints_reply_naive,
    },
    BridgeOp {
        proc_num: 2u32,
        name: "send_rects",
        oneway: false,
        idempotent: false,
        request: transcode_send_rects_request,
        reply: transcode_send_rects_reply,
        request_naive: transcode_send_rects_request_naive,
        reply_naive: transcode_send_rects_reply_naive,
    },
    BridgeOp {
        proc_num: 3u32,
        name: "send_dirents",
        oneway: false,
        idempotent: false,
        request: transcode_send_dirents_request,
        reply: transcode_send_dirents_reply,
        request_naive: transcode_send_dirents_request_naive,
        reply_naive: transcode_send_dirents_reply_naive,
    },
    BridgeOp {
        proc_num: 4u32,
        name: "echo_stat",
        oneway: false,
        idempotent: false,
        request: transcode_echo_stat_request,
        reply: transcode_echo_stat_reply,
        request_naive: transcode_echo_stat_request_naive,
        reply_naive: transcode_echo_stat_reply_naive,
    },
];

/// Rewrites the `send_ints` request body xdr → cdr-le (fused when the plan is).
pub fn transcode_send_ints_request(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = dst.len();
    let _len1 = r.get_u32_be()? as usize;
    dst.align_from(_db, 4);
    dst.put_u32_le(_len1 as u32);
    if _len1 > 0 {
        dst.align_from(_db, 4);
        dst.put_swapped(4, r.run(_len1, 4)?); // fused: every element swap-copied
    }
    Ok(())
}

/// Rewrites the `send_ints` reply body cdr-le → xdr.
pub fn transcode_send_ints_reply(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, dst);
    Ok(())
}

/// Slot-wise `send_ints` request rewrite (the fuse-transcode ablation path).
pub fn transcode_send_ints_request_naive(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = dst.len();
    let _len1 = r.get_u32_be()? as usize;
    dst.align_from(_db, 4);
    dst.put_u32_le(_len1 as u32);
    let mut _v2: Vec<i32> = Vec::with_capacity(_len1.min(r.remaining() / 4 + 1));
    for _i3 in 0.._len1 {
        _v2.push(r.get_u32_be()? as i32);
    }
    for _e4 in &_v2 {
        dst.align_from(_db, 4);
        dst.put_u32_le((*_e4) as u32);
    }
    Ok(())
}

/// Slot-wise `send_ints` reply rewrite (the fuse-transcode ablation path).
pub fn transcode_send_ints_reply_naive(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, dst);
    Ok(())
}

/// Rewrites the `send_rects` request body xdr → cdr-le (fused when the plan is).
pub fn transcode_send_rects_request(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = dst.len();
    let _len1 = r.get_u32_be()? as usize;
    dst.align_from(_db, 4);
    dst.put_u32_le(_len1 as u32);
    if _len1 > 0 {
        dst.align_from(_db, 4);
        dst.put_swapped(4, r.run(_len1, 16)?); // fused: every element swap-copied
    }
    Ok(())
}

/// Rewrites the `send_rects` reply body cdr-le → xdr.
pub fn transcode_send_rects_reply(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, dst);
    Ok(())
}

/// Slot-wise `send_rects` request rewrite (the fuse-transcode ablation path).
pub fn transcode_send_rects_request_naive(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = dst.len();
    let _len1 = r.get_u32_be()? as usize;
    dst.align_from(_db, 4);
    dst.put_u32_le(_len1 as u32);
    for _i2 in 0.._len1 {
        let _v3 = r.get_u32_be()? as i32;
        dst.align_from(_db, 4);
        dst.put_u32_le((_v3) as u32);
        let _v4 = r.get_u32_be()? as i32;
        dst.align_from(_db, 4);
        dst.put_u32_le((_v4) as u32);
        let _v5 = r.get_u32_be()? as i32;
        dst.align_from(_db, 4);
        dst.put_u32_le((_v5) as u32);
        let _v6 = r.get_u32_be()? as i32;
        dst.align_from(_db, 4);
        dst.put_u32_le((_v6) as u32);
    }
    Ok(())
}

/// Slot-wise `send_rects` reply rewrite (the fuse-transcode ablation path).
pub fn transcode_send_rects_reply_naive(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, dst);
    Ok(())
}

/// Rewrites the `send_dirents` request body xdr → cdr-le (fused when the plan is).
pub fn transcode_send_dirents_request(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = dst.len();
    let _len1 = r.get_u32_be()? as usize;
    dst.align_from(_db, 4);
    dst.put_u32_le(_len1 as u32);
    for _i2 in 0.._len1 {
        let _len3 = r.get_u32_be()? as usize;
        let _bytes4 = r.bytes(_len3)?;
        r.skip((4 - _len3 % 4) % 4)?;
        let _v5 = std::str::from_utf8(_bytes4).map_err(|_| DecodeError::BadValue("string is not UTF-8"))?; // zero-copy
        dst.align_from(_db, 4);
        dst.put_u32_le((_v5.len() + 1) as u32);
        dst.put_bytes(_v5.as_bytes());
        dst.put_u8(0);
        dst.align_from(_db, 4);
        let _c6 = r.bytes(136usize)?; // fused: 46 values, one check and one reservation
        dst.ensure(_c6.len());
        dst.put_swapped(4, &_c6[0..120]);
        dst.put_bytes(&_c6[120..136]);
    }
    Ok(())
}

/// Rewrites the `send_dirents` reply body cdr-le → xdr.
pub fn transcode_send_dirents_reply(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, dst);
    Ok(())
}

/// Slot-wise `send_dirents` request rewrite (the fuse-transcode ablation path).
pub fn transcode_send_dirents_request_naive(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = dst.len();
    let _len1 = r.get_u32_be()? as usize;
    dst.align_from(_db, 4);
    dst.put_u32_le(_len1 as u32);
    for _i2 in 0.._len1 {
        let _len3 = r.get_u32_be()? as usize;
        let _bytes4 = r.bytes(_len3)?;
        r.skip((4 - _len3 % 4) % 4)?;
        let _v5 = String::from_utf8(_bytes4.to_vec()).map_err(|_| DecodeError::BadValue("string is not UTF-8"))?;
        dst.align_from(_db, 4);
        dst.put_u32_le((_v5.len() + 1) as u32);
        dst.put_bytes(_v5.as_bytes());
        dst.put_u8(0);
        for _i6 in 0..30usize {
            let _v7 = r.get_u32_be()? as i32;
            dst.align_from(_db, 4);
            dst.put_u32_le((_v7) as u32);
        }
        for _i8 in 0..16usize {
            let _v9 = r.get_u8()? as u8;
            dst.put_u8((_v9) as u8);
        }
    }
    Ok(())
}

/// Slot-wise `send_dirents` reply rewrite (the fuse-transcode ablation path).
pub fn transcode_send_dirents_reply_naive(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, dst);
    Ok(())
}

/// Rewrites the `echo_stat` request body xdr → cdr-le (fused when the plan is).
pub fn transcode_echo_stat_request(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = dst.len();
    dst.align_from(_db, 4);
    let _c1 = r.bytes(136usize)?; // fused: 46 values, one check and one reservation
    dst.ensure(_c1.len());
    dst.put_swapped(4, &_c1[0..120]);
    dst.put_bytes(&_c1[120..136]);
    Ok(())
}

/// Rewrites the `echo_stat` reply body cdr-le → xdr.
pub fn transcode_echo_stat_reply(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = dst.len();
    r.align_from(_sb, 4)?;
    let _c1 = r.bytes(136usize)?; // fused: 46 values, one check and one reservation
    dst.ensure(_c1.len());
    dst.put_swapped(4, &_c1[0..120]);
    dst.put_bytes(&_c1[120..136]);
    Ok(())
}

/// Slot-wise `echo_stat` request rewrite (the fuse-transcode ablation path).
pub fn transcode_echo_stat_request_naive(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = dst.len();
    for _i1 in 0..30usize {
        let _v2 = r.get_u32_be()? as i32;
        dst.align_from(_db, 4);
        dst.put_u32_le((_v2) as u32);
    }
    for _i3 in 0..16usize {
        let _v4 = r.get_u8()? as u8;
        dst.put_u8((_v4) as u8);
    }
    Ok(())
}

/// Slot-wise `echo_stat` reply rewrite (the fuse-transcode ablation path).
pub fn transcode_echo_stat_reply_naive(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = dst.len();
    for _i1 in 0..30usize {
        r.align_from(_sb, 4)?;
        let _v2 = r.get_u32_le()? as i32;
        dst.put_u32_be((_v2) as u32);
    }
    for _i3 in 0..16usize {
        let _v4 = r.get_u8()? as u8;
        dst.put_u8((_v4) as u8);
    }
    Ok(())
}

/// Dispatches a `request` rewrite on the source procedure number.
pub fn transcode_request(proc_num: u32, src: &[u8], dst: &mut MarshalBuf) -> Result<&'static str, DecodeError> {
    match proc_num {
        1u32 => { transcode_send_ints_request(src, dst)?; Ok("send_ints") }
        2u32 => { transcode_send_rects_request(src, dst)?; Ok("send_rects") }
        3u32 => { transcode_send_dirents_request(src, dst)?; Ok("send_dirents") }
        4u32 => { transcode_echo_stat_request(src, dst)?; Ok("echo_stat") }
        _ => Err(DecodeError::BadHeader("unknown procedure")),
    }
}

/// Dispatches a `request_naive` rewrite on the source procedure number.
pub fn transcode_request_naive(proc_num: u32, src: &[u8], dst: &mut MarshalBuf) -> Result<&'static str, DecodeError> {
    match proc_num {
        1u32 => { transcode_send_ints_request_naive(src, dst)?; Ok("send_ints") }
        2u32 => { transcode_send_rects_request_naive(src, dst)?; Ok("send_rects") }
        3u32 => { transcode_send_dirents_request_naive(src, dst)?; Ok("send_dirents") }
        4u32 => { transcode_echo_stat_request_naive(src, dst)?; Ok("echo_stat") }
        _ => Err(DecodeError::BadHeader("unknown procedure")),
    }
}

/// Dispatches a `reply` rewrite on the source procedure number.
pub fn transcode_reply(proc_num: u32, src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    match proc_num {
        1u32 => transcode_send_ints_reply(src, dst),
        2u32 => transcode_send_rects_reply(src, dst),
        3u32 => transcode_send_dirents_reply(src, dst),
        4u32 => transcode_echo_stat_reply(src, dst),
        _ => Err(DecodeError::BadHeader("unknown procedure")),
    }
}

/// Dispatches a `reply_naive` rewrite on the source procedure number.
pub fn transcode_reply_naive(proc_num: u32, src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    match proc_num {
        1u32 => transcode_send_ints_reply_naive(src, dst),
        2u32 => transcode_send_rects_reply_naive(src, dst),
        3u32 => transcode_send_dirents_reply_naive(src, dst),
        4u32 => transcode_echo_stat_reply_naive(src, dst),
        _ => Err(DecodeError::BadHeader("unknown procedure")),
    }
}

