//! Flick-generated transcoder — interface `Varied`, `cdr-le` → `xdr`.
//! Generated by flick-backend; do not edit.
#![allow(clippy::all, dead_code, unused_variables, unused_mut, unused_imports, unused_parens, non_snake_case, non_camel_case_types)]

use flick_runtime::bridge::BridgeOp;
use flick_runtime::buf::{MarshalBuf, MsgReader};
use flick_runtime::error::DecodeError;

/// True when the `fuse-transcode` pass collapsed tiling runs;
/// false for the decode-then-re-encode ablation build.
pub const FUSED: bool = true;
/// Source (client-facing) encoding.
pub const SRC_ENCODING: &str = "cdr-le";
/// Target (server-facing) encoding.
pub const DST_ENCODING: &str = "xdr";
/// Byte-order flag for outgoing GIOP headers on the target side.
pub const DST_LITTLE_ENDIAN: bool = false;
/// ONC RPC program / version on the source side (the wire
/// header carries 32 bits; synthesized CORBA ids truncate).
pub const PROGRAM: u32 = 2153500668u32;
pub const VERSION: u32 = 1u32;

/// Per-operation gateway table consumed by `flick_runtime::bridge`.
pub static BRIDGE_OPS: &[BridgeOp] = &[
    BridgeOp {
        proc_num: 1u32,
        name: "put_samples",
        oneway: false,
        idempotent: false,
        request: transcode_put_samples_request,
        reply: transcode_put_samples_reply,
        request_naive: transcode_put_samples_request_naive,
        reply_naive: transcode_put_samples_reply_naive,
    },
    BridgeOp {
        proc_num: 2u32,
        name: "put_grid",
        oneway: false,
        idempotent: false,
        request: transcode_put_grid_request,
        reply: transcode_put_grid_reply,
        request_naive: transcode_put_grid_request_naive,
        reply_naive: transcode_put_grid_reply_naive,
    },
    BridgeOp {
        proc_num: 3u32,
        name: "tally",
        oneway: false,
        idempotent: false,
        request: transcode_tally_request,
        reply: transcode_tally_reply,
        request_naive: transcode_tally_request_naive,
        reply_naive: transcode_tally_reply_naive,
    },
    BridgeOp {
        proc_num: 4u32,
        name: "nudge",
        oneway: true,
        idempotent: true,
        request: transcode_nudge_request,
        reply: transcode_nudge_reply,
        request_naive: transcode_nudge_request_naive,
        reply_naive: transcode_nudge_reply_naive,
    },
];

/// Rewrites the `put_samples` request body cdr-le → xdr (fused when the plan is).
pub fn transcode_put_samples_request(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = dst.len();
    r.align_from(_sb, 4)?;
    let _len1 = r.get_u32_le()? as usize;
    if _len1 as u64 > 64 { return Err(DecodeError::BoundExceeded { got: _len1 as u64, bound: 64 }); }
    dst.put_u32_be(_len1 as u32);
    for _i2 in 0.._len1 {
        r.align_from(_sb, 4)?;
        let _v3 = r.get_u32_le()? as u32;
        dst.put_u32_be((_v3) as u32);
        r.align_from(_sb, 4)?;
        let _d4 = (r.get_u32_le()? as i32) as i64;
        dst.put_u32_be((_d4) as u32);
        match _d4 {
            0i64 => {
                let _v5 = r.get_u8()? as u8;
                dst.put_u32_be((_v5) as u32);
            }
            1i64 => {
                r.align_from(_sb, 4)?;
                let _v6 = r.get_u32_le()? as i32;
                dst.put_u32_be((_v6) as u32);
            }
            2i64 => {
                r.align_from(_sb, 4)?;
                let _v7 = r.get_u32_le()? as i32;
                dst.put_u32_be((_v7) as u32);
            }
            _ => {
                r.align_from(_sb, 8)?;
                let _v8 = f64::from_bits(r.get_u64_le()?);
                dst.put_u64_be((_v8).to_bits());
            }
        }
        r.align_from(_sb, 4)?;
        let _v9 = f32::from_bits(r.get_u32_le()?);
        dst.put_u32_be((_v9).to_bits());
        r.align_from(_sb, 8)?;
        let _v10 = f64::from_bits(r.get_u64_le()?);
        dst.put_u64_be((_v10).to_bits());
        r.align_from(_sb, 4)?;
        let _len11 = r.get_u32_le()? as usize;
        if _len11 as u64 > 32 { return Err(DecodeError::BoundExceeded { got: _len11 as u64, bound: 32 }); }
        if _len11 == 0 { return Err(DecodeError::BadValue("CDR string length must include NUL")); }
        let _bytes12 = &r.bytes(_len11)?[.._len11 - 1];
        let _v13 = std::str::from_utf8(_bytes12).map_err(|_| DecodeError::BadValue("string is not UTF-8"))?; // zero-copy
        dst.put_u32_be(_v13.len() as u32);
        dst.put_bytes(_v13.as_bytes());
        dst.put_zeros((4 - _v13.len() % 4) % 4);
    }
    Ok(())
}

/// Rewrites the `put_samples` reply body xdr → cdr-le.
pub fn transcode_put_samples_reply(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, dst);
    Ok(())
}

/// Slot-wise `put_samples` request rewrite (the fuse-transcode ablation path).
pub fn transcode_put_samples_request_naive(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = dst.len();
    r.align_from(_sb, 4)?;
    let _len1 = r.get_u32_le()? as usize;
    if _len1 as u64 > 64 { return Err(DecodeError::BoundExceeded { got: _len1 as u64, bound: 64 }); }
    dst.put_u32_be(_len1 as u32);
    for _i2 in 0.._len1 {
        r.align_from(_sb, 4)?;
        let _v3 = r.get_u32_le()? as u32;
        dst.put_u32_be((_v3) as u32);
        r.align_from(_sb, 4)?;
        let _d4 = (r.get_u32_le()? as i32) as i64;
        dst.put_u32_be((_d4) as u32);
        match _d4 {
            0i64 => {
                let _v5 = r.get_u8()? as u8;
                dst.put_u32_be((_v5) as u32);
            }
            1i64 => {
                r.align_from(_sb, 4)?;
                let _v6 = r.get_u32_le()? as i32;
                dst.put_u32_be((_v6) as u32);
            }
            2i64 => {
                r.align_from(_sb, 4)?;
                let _v7 = r.get_u32_le()? as i32;
                dst.put_u32_be((_v7) as u32);
            }
            _ => {
                r.align_from(_sb, 8)?;
                let _v8 = f64::from_bits(r.get_u64_le()?);
                dst.put_u64_be((_v8).to_bits());
            }
        }
        r.align_from(_sb, 4)?;
        let _v9 = f32::from_bits(r.get_u32_le()?);
        dst.put_u32_be((_v9).to_bits());
        r.align_from(_sb, 8)?;
        let _v10 = f64::from_bits(r.get_u64_le()?);
        dst.put_u64_be((_v10).to_bits());
        r.align_from(_sb, 4)?;
        let _len11 = r.get_u32_le()? as usize;
        if _len11 as u64 > 32 { return Err(DecodeError::BoundExceeded { got: _len11 as u64, bound: 32 }); }
        if _len11 == 0 { return Err(DecodeError::BadValue("CDR string length must include NUL")); }
        let _bytes12 = &r.bytes(_len11)?[.._len11 - 1];
        let _v13 = String::from_utf8(_bytes12.to_vec()).map_err(|_| DecodeError::BadValue("string is not UTF-8"))?;
        dst.put_u32_be(_v13.len() as u32);
        dst.put_bytes(_v13.as_bytes());
        dst.put_zeros((4 - _v13.len() % 4) % 4);
    }
    Ok(())
}

/// Slot-wise `put_samples` reply rewrite (the fuse-transcode ablation path).
pub fn transcode_put_samples_reply_naive(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, dst);
    Ok(())
}

/// Rewrites the `put_grid` request body cdr-le → xdr (fused when the plan is).
pub fn transcode_put_grid_request(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = dst.len();
    r.align_from(_sb, 4)?;
    dst.put_swapped(4, r.bytes(48usize)?); // fused: 12 values swap-copied
    Ok(())
}

/// Rewrites the `put_grid` reply body xdr → cdr-le.
pub fn transcode_put_grid_reply(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, dst);
    Ok(())
}

/// Slot-wise `put_grid` request rewrite (the fuse-transcode ablation path).
pub fn transcode_put_grid_request_naive(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = dst.len();
    for _i1 in 0..3usize {
        for _i2 in 0..4usize {
            r.align_from(_sb, 4)?;
            let _v3 = r.get_u32_le()? as i32;
            dst.put_u32_be((_v3) as u32);
        }
    }
    Ok(())
}

/// Slot-wise `put_grid` reply rewrite (the fuse-transcode ablation path).
pub fn transcode_put_grid_reply_naive(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, dst);
    Ok(())
}

/// Rewrites the `tally` request body cdr-le → xdr (fused when the plan is).
pub fn transcode_tally_request(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = dst.len();
    r.align_from(_sb, 4)?;
    let _d1 = (r.get_u32_le()? as i32) as i64;
    dst.put_u32_be((_d1) as u32);
    match _d1 {
        0i64 => {
            let _v2 = r.get_u8()? as u8;
            dst.put_u32_be((_v2) as u32);
        }
        1i64 => {
            r.align_from(_sb, 4)?;
            let _v3 = r.get_u32_le()? as i32;
            dst.put_u32_be((_v3) as u32);
        }
        2i64 => {
            r.align_from(_sb, 4)?;
            let _v4 = r.get_u32_le()? as i32;
            dst.put_u32_be((_v4) as u32);
        }
        _ => {
            r.align_from(_sb, 8)?;
            let _v5 = f64::from_bits(r.get_u64_le()?);
            dst.put_u64_be((_v5).to_bits());
        }
    }
    let _v6 = r.get_u8()? as u8;
    dst.put_u32_be((_v6) as u32);
    Ok(())
}

/// Rewrites the `tally` reply body xdr → cdr-le.
pub fn transcode_tally_reply(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = dst.len();
    let _v1 = r.get_u32_be()? as i32;
    dst.align_from(_db, 4);
    dst.put_u32_le((_v1) as u32);
    Ok(())
}

/// Slot-wise `tally` request rewrite (the fuse-transcode ablation path).
pub fn transcode_tally_request_naive(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = dst.len();
    r.align_from(_sb, 4)?;
    let _d1 = (r.get_u32_le()? as i32) as i64;
    dst.put_u32_be((_d1) as u32);
    match _d1 {
        0i64 => {
            let _v2 = r.get_u8()? as u8;
            dst.put_u32_be((_v2) as u32);
        }
        1i64 => {
            r.align_from(_sb, 4)?;
            let _v3 = r.get_u32_le()? as i32;
            dst.put_u32_be((_v3) as u32);
        }
        2i64 => {
            r.align_from(_sb, 4)?;
            let _v4 = r.get_u32_le()? as i32;
            dst.put_u32_be((_v4) as u32);
        }
        _ => {
            r.align_from(_sb, 8)?;
            let _v5 = f64::from_bits(r.get_u64_le()?);
            dst.put_u64_be((_v5).to_bits());
        }
    }
    let _v6 = r.get_u8()? as u8;
    dst.put_u32_be((_v6) as u32);
    Ok(())
}

/// Slot-wise `tally` reply rewrite (the fuse-transcode ablation path).
pub fn transcode_tally_reply_naive(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = dst.len();
    let _v1 = r.get_u32_be()? as i32;
    dst.align_from(_db, 4);
    dst.put_u32_le((_v1) as u32);
    Ok(())
}

/// Rewrites the `nudge` request body cdr-le → xdr (fused when the plan is).
pub fn transcode_nudge_request(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = dst.len();
    r.align_from(_sb, 2)?;
    let _v1 = r.get_u16_le()? as i16;
    dst.put_u32_be((_v1) as i32 as u32);
    r.align_from(_sb, 2)?;
    let _v2 = r.get_u16_le()? as u16;
    dst.put_u32_be((_v2) as u32);
    Ok(())
}

/// Rewrites the `nudge` reply body xdr → cdr-le.
pub fn transcode_nudge_reply(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, dst);
    Ok(())
}

/// Slot-wise `nudge` request rewrite (the fuse-transcode ablation path).
pub fn transcode_nudge_request_naive(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = dst.len();
    r.align_from(_sb, 2)?;
    let _v1 = r.get_u16_le()? as i16;
    dst.put_u32_be((_v1) as i32 as u32);
    r.align_from(_sb, 2)?;
    let _v2 = r.get_u16_le()? as u16;
    dst.put_u32_be((_v2) as u32);
    Ok(())
}

/// Slot-wise `nudge` reply rewrite (the fuse-transcode ablation path).
pub fn transcode_nudge_reply_naive(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, dst);
    Ok(())
}

/// Dispatches a `request` rewrite on the source procedure number.
pub fn transcode_request(proc_num: u32, src: &[u8], dst: &mut MarshalBuf) -> Result<&'static str, DecodeError> {
    match proc_num {
        1u32 => { transcode_put_samples_request(src, dst)?; Ok("put_samples") }
        2u32 => { transcode_put_grid_request(src, dst)?; Ok("put_grid") }
        3u32 => { transcode_tally_request(src, dst)?; Ok("tally") }
        4u32 => { transcode_nudge_request(src, dst)?; Ok("nudge") }
        _ => Err(DecodeError::BadHeader("unknown procedure")),
    }
}

/// Dispatches a `request_naive` rewrite on the source procedure number.
pub fn transcode_request_naive(proc_num: u32, src: &[u8], dst: &mut MarshalBuf) -> Result<&'static str, DecodeError> {
    match proc_num {
        1u32 => { transcode_put_samples_request_naive(src, dst)?; Ok("put_samples") }
        2u32 => { transcode_put_grid_request_naive(src, dst)?; Ok("put_grid") }
        3u32 => { transcode_tally_request_naive(src, dst)?; Ok("tally") }
        4u32 => { transcode_nudge_request_naive(src, dst)?; Ok("nudge") }
        _ => Err(DecodeError::BadHeader("unknown procedure")),
    }
}

/// Dispatches a `reply` rewrite on the source procedure number.
pub fn transcode_reply(proc_num: u32, src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    match proc_num {
        1u32 => transcode_put_samples_reply(src, dst),
        2u32 => transcode_put_grid_reply(src, dst),
        3u32 => transcode_tally_reply(src, dst),
        4u32 => transcode_nudge_reply(src, dst),
        _ => Err(DecodeError::BadHeader("unknown procedure")),
    }
}

/// Dispatches a `reply_naive` rewrite on the source procedure number.
pub fn transcode_reply_naive(proc_num: u32, src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {
    match proc_num {
        1u32 => transcode_put_samples_reply_naive(src, dst),
        2u32 => transcode_put_grid_reply_naive(src, dst),
        3u32 => transcode_tally_reply_naive(src, dst),
        4u32 => transcode_nudge_reply_naive(src, dst),
        _ => Err(DecodeError::BadHeader("unknown procedure")),
    }
}

