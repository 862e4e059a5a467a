//! Hostile counts and truncated arrays, under the peak-tracking
//! allocator: a decoder may reserve only what the bytes actually
//! present could encode, and a run whose bytes are missing must fail
//! before it allocates anything.
//!
//! One test function on purpose: the allocator's counters are
//! process-wide, so a second test running on another thread would show
//! up in this one's peaks.

use flick_bench::allocwatch::{self, PeakAlloc};
use flick_bench::data;
use flick_bench::generated::{iiop_bench, onc_bench};
use flick_runtime::{DecodeError, MarshalBuf, MsgReader};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

struct OncSink;

impl onc_bench::Server for OncSink {
    fn send_ints(&mut self, _v: Vec<i32>) {}
    fn send_rects(&mut self, _v: Vec<onc_bench::Rect>) {}
    fn send_dirents(&mut self, _v: Vec<onc_bench::Dirent>) {}
    fn echo_stat(&mut self, _s: onc_bench::Stat) -> flick_runtime::Echoed<onc_bench::Stat> {
        flick_runtime::Echoed::Unchanged
    }
}

struct IiopSink;

impl iiop_bench::Server for IiopSink {
    fn send_ints(&mut self, _v: Vec<i32>) {}
    fn send_rects(&mut self, _v: Vec<iiop_bench::Rect>) {}
    fn send_dirents(&mut self, _v: Vec<iiop_bench::Dirent>) {}
    fn echo_stat(&mut self, s: iiop_bench::Stat) -> iiop_bench::Stat {
        s
    }
}

/// Peak heap growth while `f` runs.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let live = allocwatch::live();
    allocwatch::reset_peak();
    let out = f();
    (out, allocwatch::peak_delta(live))
}

/// One named way into a decoder.
type Site<'a> = (&'a str, &'a mut dyn FnMut() -> Result<(), DecodeError>);

fn is_truncated(e: &DecodeError) -> bool {
    matches!(e.root(), DecodeError::Truncated { .. })
}

/// A 64 KiB dirent-array body whose count claims 2³²−1 entries.  Every
/// zeroed 140 bytes parse as one entry (empty name + stat), so the
/// decoder runs ~468 entries deep before the bytes run out.
fn lying_dirents(count_bytes: [u8; 4]) -> Vec<u8> {
    let mut body = vec![0u8; 64 << 10];
    body[..4].copy_from_slice(&count_bytes);
    body
}

fn hostile_counts_reserve_no_more_than_the_message_holds() {
    // The smallest dirent is 140 wire bytes (141 under CDR) and
    // presents as one `Dirent` value, so an honest decoder's
    // high-water mark is about `len / 140` values — the same order as
    // the message.  Dividing the bytes present by 1 instead reserved
    // 65 537 × 160 B ≈ 10 MiB for this body (and 2.6 GiB for a
    // 16 MiB record).
    let onc = lying_dirents(u32::MAX.to_be_bytes());
    let bound = (onc.len() / 140 + 1) * std::mem::size_of::<onc_bench::Dirent>() + 4096;
    assert!(
        bound < 2 * onc.len(),
        "bound is of the order of the message"
    );

    let (r, peak) = peak_of(|| onc_bench::decode_send_dirents_request(&mut MsgReader::new(&onc)));
    assert!(is_truncated(&r.unwrap_err()));
    assert!(peak <= bound, "ONC decode fn: peak {peak} B > {bound} B");

    let mut reply = MarshalBuf::new();
    let (r, peak) = peak_of(|| onc_bench::dispatch(3, &onc, &mut reply, &mut OncSink));
    assert!(is_truncated(&r.unwrap_err()));
    assert!(peak <= bound, "ONC dispatch arm: peak {peak} B > {bound} B");

    let (r, peak) =
        peak_of(|| onc_bench::dispatch_by_name(b"send_dirents", &onc, &mut reply, &mut OncSink));
    assert!(is_truncated(&r.unwrap_err()));
    assert!(
        peak <= bound,
        "ONC name dispatch: peak {peak} B > {bound} B"
    );

    // CDR: a zero string length is malformed (no NUL), so the decoder
    // stops at the first entry — after reserving.
    let iiop = lying_dirents(u32::MAX.to_ne_bytes());
    let (r, peak) = peak_of(|| iiop_bench::decode_send_dirents_request(&mut MsgReader::new(&iiop)));
    assert!(r.is_err());
    assert!(peak <= bound, "IIOP decode fn: peak {peak} B > {bound} B");
    let (r, peak) =
        peak_of(|| iiop_bench::dispatch_by_name(b"send_dirents", &iiop, &mut reply, &mut IiopSink));
    assert!(r.is_err());
    assert!(
        peak <= bound,
        "IIOP name dispatch: peak {peak} B > {bound} B"
    );

    // Scalar runs and image runs check `count × size` against the
    // bytes present before they reserve at all — in the decode fn and
    // in both dispatch kinds, in either byte order.
    for claim in [u32::MAX, 0x7fff_ffff, 0x4000_0001] {
        let body = lying_dirents(claim.to_be_bytes());
        let (r, peak) = peak_of(|| onc_bench::decode_send_ints_request(&mut MsgReader::new(&body)));
        assert!(is_truncated(&r.unwrap_err()));
        assert_eq!(peak, 0, "swizzle run, claim {claim:#x}");
        // The count is the host's order under IIOP, big-endian under ONC.
        let onc = body;
        let iiop = lying_dirents(claim.to_ne_bytes());
        let sites: [Site<'_>; 6] = [
            ("onc decode fn", &mut || {
                onc_bench::decode_send_rects_request(&mut MsgReader::new(&onc)).map(drop)
            }),
            ("onc dispatch arm", &mut || {
                onc_bench::dispatch(2, &onc, &mut MarshalBuf::new(), &mut OncSink)
            }),
            ("onc word-switch arm", &mut || {
                let reply = &mut MarshalBuf::new();
                onc_bench::dispatch_by_name(b"send_rects", &onc, reply, &mut OncSink)
            }),
            ("iiop decode fn", &mut || {
                iiop_bench::decode_send_rects_request(&mut MsgReader::new(&iiop)).map(drop)
            }),
            ("iiop dispatch arm", &mut || {
                iiop_bench::dispatch(2, &iiop, &mut MarshalBuf::new(), &mut IiopSink)
            }),
            ("iiop word-switch arm", &mut || {
                let reply = &mut MarshalBuf::new();
                iiop_bench::dispatch_by_name(b"send_rects", &iiop, reply, &mut IiopSink)
            }),
        ];
        for (site, decode) in sites {
            let (r, peak) = peak_of(decode);
            assert!(is_truncated(&r.unwrap_err()), "{site}");
            assert_eq!(peak, 0, "image run, {site}, claim {claim:#x}");
        }
    }
}

/// Every strict prefix of `msg` must fail `decode` as a truncation
/// without touching the heap.
fn prefixes_fail_clean(
    what: &str,
    msg: &[u8],
    decode: &mut dyn FnMut(&[u8]) -> Option<DecodeError>,
) {
    let (whole, _) = peak_of(|| decode(msg));
    assert!(whole.is_none(), "{what}: the whole message decodes");
    for cut in 0..msg.len() {
        let (r, peak) = peak_of(|| decode(&msg[..cut]));
        let e = r.unwrap_or_else(|| panic!("{what}: prefix of {cut} B decoded"));
        assert!(is_truncated(&e), "{what}: prefix of {cut} B: {e:?}");
        assert_eq!(peak, 0, "{what}: prefix of {cut} B allocated {peak} B");
    }
}

fn truncated_runs_fail_before_they_allocate() {
    let mut buf = MarshalBuf::new();
    let mut reply = MarshalBuf::new();

    onc_bench::encode_send_ints_request(&mut buf, &data::onc::ints(300));
    let msg = buf.as_slice().to_vec();
    prefixes_fail_clean("onc ints (swizzle run)", &msg, &mut |m| {
        onc_bench::decode_send_ints_request(&mut MsgReader::new(m)).err()
    });
    prefixes_fail_clean("onc ints, dispatch arm", &msg, &mut |m| {
        onc_bench::dispatch(1, m, &mut reply, &mut OncSink).err()
    });
    prefixes_fail_clean("onc ints, word-switch arm", &msg, &mut |m| {
        onc_bench::dispatch_by_name(b"send_ints", m, &mut reply, &mut OncSink).err()
    });

    buf.clear();
    onc_bench::encode_send_rects_request(&mut buf, &data::onc::rects(75));
    let msg = buf.as_slice().to_vec();
    prefixes_fail_clean("onc rects (swizzle image run)", &msg, &mut |m| {
        onc_bench::decode_send_rects_request(&mut MsgReader::new(m)).err()
    });
    prefixes_fail_clean("onc rects, dispatch arm", &msg, &mut |m| {
        onc_bench::dispatch(2, m, &mut reply, &mut OncSink).err()
    });
    prefixes_fail_clean("onc rects, word-switch arm", &msg, &mut |m| {
        onc_bench::dispatch_by_name(b"send_rects", m, &mut reply, &mut OncSink).err()
    });

    buf.clear();
    iiop_bench::encode_send_ints_request(&mut buf, &data::iiop::ints(300));
    let msg = buf.as_slice().to_vec();
    prefixes_fail_clean("iiop ints (memcpy run)", &msg, &mut |m| {
        iiop_bench::decode_send_ints_request(&mut MsgReader::new(m)).err()
    });

    buf.clear();
    iiop_bench::encode_send_rects_request(&mut buf, &data::iiop::rects(75));
    let msg = buf.as_slice().to_vec();
    prefixes_fail_clean("iiop rects (image run)", &msg, &mut |m| {
        iiop_bench::decode_send_rects_request(&mut MsgReader::new(m)).err()
    });
    prefixes_fail_clean("iiop rects, dispatch arm", &msg, &mut |m| {
        iiop_bench::dispatch(2, m, &mut reply, &mut IiopSink).err()
    });
    prefixes_fail_clean("iiop rects, word-switch arm", &msg, &mut |m| {
        iiop_bench::dispatch_by_name(b"send_rects", m, &mut reply, &mut IiopSink).err()
    });
}

#[test]
fn hostile_arrays_stay_within_the_bytes_present() {
    // With collection on (`FLICK_TELEMETRY=1`) the dispatch arms'
    // span recorder may allocate; the bounds here are about the
    // untraced decode path.
    if flick_telemetry::enabled() {
        return;
    }
    hostile_counts_reserve_no_more_than_the_message_holds();
    truncated_runs_fail_before_they_allocate();
}
