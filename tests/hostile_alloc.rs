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
use flick_bench::generated::{
    iiop_bench, mach_bench, mail_iiop, onc_bench, transcode_bench, transcode_varied, varied_iiop,
    varied_onc,
};
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

struct MachSink;

impl mach_bench::Server for MachSink {
    fn send_ints(&mut self, _v: Vec<i32>) {}
    fn send_rects(&mut self, _v: Vec<mach_bench::Rect>) {}
    fn send_dirents(&mut self, _v: Vec<mach_bench::Dirent>) {}
    fn echo_stat(&mut self, s: mach_bench::Stat) -> mach_bench::Stat {
        s
    }
}

struct MailSink;

impl mail_iiop::Server for MailSink {
    fn send(&mut self, _msg: &str) {}
}

struct VariedSink;

impl varied_iiop::Server for VariedSink {
    fn put_samples(&mut self, _s: Vec<varied_iiop::Sample>) {}
    fn put_grid(&mut self, _g: [[i32; 4]; 3]) {}
    fn tally(&mut self, _s: varied_iiop::Shade, _strict: u8) -> i32 {
        0
    }
    fn nudge(&mut self, _dx: i16, _dy: u16) {}
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
    // in the module's one dispatcher, in either byte order.
    for claim in [u32::MAX, 0x7fff_ffff, 0x4000_0001] {
        let body = lying_dirents(claim.to_be_bytes());
        let (r, peak) = peak_of(|| onc_bench::decode_send_ints_request(&mut MsgReader::new(&body)));
        assert!(is_truncated(&r.unwrap_err()));
        assert_eq!(peak, 0, "swizzle run, claim {claim:#x}");
        // The count is the host's order under IIOP, big-endian under ONC.
        let onc = body;
        let iiop = lying_dirents(claim.to_ne_bytes());
        let sites: [Site<'_>; 4] = [
            ("onc decode fn", &mut || {
                onc_bench::decode_send_rects_request(&mut MsgReader::new(&onc)).map(drop)
            }),
            ("onc dispatch arm", &mut || {
                onc_bench::dispatch(2, &onc, &mut MarshalBuf::new(), &mut OncSink)
            }),
            ("iiop decode fn", &mut || {
                iiop_bench::decode_send_rects_request(&mut MsgReader::new(&iiop)).map(drop)
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

/// Every strict prefix of `msg` must fail `decode` as a truncation and
/// leave the heap as it found it.  A decoder that builds owned element
/// values (strings, structs holding them) before the last byte arrives
/// may touch the heap on the way, up to the order of the message; every
/// other decoder must not touch it at all.
fn prefixes_refused(
    what: &str,
    msg: &[u8],
    owned: bool,
    decode: &mut dyn FnMut(&[u8]) -> Option<DecodeError>,
) {
    if !owned {
        return prefixes_fail_clean(what, msg, decode);
    }
    let bound = 8 * msg.len() + 4096;
    let (whole, _) = peak_of(|| decode(msg));
    assert!(whole.is_none(), "{what}: the whole message decodes");
    for cut in 0..msg.len() {
        let live = allocwatch::live();
        let (r, peak) = peak_of(|| decode(&msg[..cut]).map(|e| is_truncated(&e)));
        assert_eq!(r, Some(true), "{what}: prefix of {cut} B");
        assert_eq!(allocwatch::live(), live, "{what}: prefix of {cut} B leaked");
        assert!(
            peak <= bound,
            "{what}: prefix of {cut} B peaked at {peak} B"
        );
    }
}

/// Encodes with `f` into a fresh buffer.
fn encoded(f: impl FnOnce(&mut MarshalBuf)) -> Vec<u8> {
    let mut buf = MarshalBuf::new();
    f(&mut buf);
    buf.as_slice().to_vec()
}

/// What the XDR-to-CDR gateway makes of an ONC stub's body `xdr`: an
/// encoding written apart from the CDR stubs, which keeps every
/// alignment the stubs may drop.  It must be the CDR stub's own `cdr`.
fn through_gateway(
    rewrite: fn(&[u8], &mut MarshalBuf) -> Result<(), DecodeError>,
    xdr: &[u8],
    cdr: &[u8],
) -> Vec<u8> {
    let mut dst = MarshalBuf::new();
    rewrite(xdr, &mut dst).expect("the gateway rewrites a valid body");
    assert_eq!(
        dst.as_slice(),
        cdr,
        "the gateway's bytes are the CDR stub's"
    );
    dst.as_slice().to_vec()
}

/// `$body`, named `$what`, decodes through `$decode` to `$value`, and
/// every strict prefix of it is refused by that decode fn and by each
/// dispatcher closure `$arm` ([`prefixes_refused`], `$owned` as there).
macro_rules! refused {
    ($what:literal, $body:expr, $owned:expr, $decode:path, $value:expr $(, $arm:expr)* $(,)?) => {{
        let body: &[u8] = &$body;
        let back = $decode(&mut MsgReader::new(body)).expect($what);
        assert_eq!(back, $value, "{}: decodes to the value it was made from", $what);
        let decode_fn = &mut |m: &[u8]| $decode(&mut MsgReader::new(m)).err();
        prefixes_refused(concat!($what, ", decode fn"), body, $owned, decode_fn);
        $(prefixes_refused(concat!($what, ", dispatcher"), body, $owned, &mut $arm);)*
    }};
}

fn varied_samples() -> Vec<varied_onc::Sample> {
    (0..12)
        .map(|i: i32| varied_onc::Sample {
            color: (i % 3) as u32,
            shade: match i % 4 {
                0 => varied_onc::Shade::Warm(i as u8),
                1 | 2 => varied_onc::Shade::Cool(i * 3),
                _ => varied_onc::Shade::Other(i64::from(i) + 100, f64::from(i) / 4.0),
            },
            weight: i as f32 * 0.5,
            precise: f64::from(i) * 1.25,
            label: "s".repeat(i as usize % 6),
        })
        .collect()
}

fn iiop_shade(s: &varied_onc::Shade) -> varied_iiop::Shade {
    match *s {
        varied_onc::Shade::Warm(v) => varied_iiop::Shade::Warm(v),
        varied_onc::Shade::Cool(v) => varied_iiop::Shade::Cool(v),
        varied_onc::Shade::Other(d, v) => varied_iiop::Shade::Other(d, v),
    }
}

/// The prefix rule for every request and reply decoder of the CDR and
/// Mach 3 modules, whose alignments the compiler decides statically.
/// The CDR bodies come through the gateway, so an encoder and a decoder
/// that dropped the same alignment wrongly cannot agree unseen.
fn every_strict_prefix_of_a_cdr_or_mach_body_is_truncated() {
    use flick_bench::data::{iiop, mach, onc};

    // `Bench` over IIOP.
    let (ints, rects, dirents, stat) = (
        iiop::ints(300),
        iiop::rects(75),
        iiop::dirents(5),
        iiop::stat(),
    );
    let arm = |op: &'static [u8]| {
        move |m: &[u8]| {
            iiop_bench::dispatch_by_name(op, m, &mut MarshalBuf::new(), &mut IiopSink).err()
        }
    };
    let body = through_gateway(
        transcode_bench::transcode_send_ints_request,
        &encoded(|b| onc_bench::encode_send_ints_request(b, &onc::ints(300))),
        &encoded(|b| iiop_bench::encode_send_ints_request(b, &ints)),
    );
    refused!(
        "iiop send_ints",
        body,
        false,
        iiop_bench::decode_send_ints_request,
        (ints,),
        arm(b"send_ints")
    );
    let body = through_gateway(
        transcode_bench::transcode_send_rects_request,
        &encoded(|b| onc_bench::encode_send_rects_request(b, &onc::rects(75))),
        &encoded(|b| iiop_bench::encode_send_rects_request(b, &rects)),
    );
    refused!(
        "iiop send_rects",
        body,
        false,
        iiop_bench::decode_send_rects_request,
        (rects,),
        arm(b"send_rects")
    );
    let body = through_gateway(
        transcode_bench::transcode_send_dirents_request,
        &encoded(|b| onc_bench::encode_send_dirents_request(b, &onc::dirents(5))),
        &encoded(|b| iiop_bench::encode_send_dirents_request(b, &dirents)),
    );
    refused!(
        "iiop send_dirents",
        body,
        true,
        iiop_bench::decode_send_dirents_request,
        (dirents,),
        arm(b"send_dirents")
    );
    let body = through_gateway(
        transcode_bench::transcode_echo_stat_request,
        &encoded(|b| onc_bench::encode_echo_stat_request(b, &onc::stat())),
        &encoded(|b| iiop_bench::encode_echo_stat_request(b, &stat)),
    );
    refused!(
        "iiop echo_stat",
        body,
        false,
        iiop_bench::decode_echo_stat_request,
        (stat.clone(),),
        arm(b"echo_stat")
    );
    let body = through_gateway(
        transcode_bench::transcode_echo_stat_reply,
        &encoded(|b| onc_bench::encode_echo_stat_reply(b, &onc::stat())),
        &encoded(|b| iiop_bench::encode_echo_stat_reply(b, &stat)),
    );
    refused!(
        "iiop echo_stat reply",
        body,
        false,
        iiop_bench::decode_echo_stat_reply,
        (stat,)
    );

    // `Bench` over Mach 3: a long array takes the three-word descriptor
    // form (more than 0xfff elements), a short one the one-word form.
    let arm = |proc: u32| {
        move |m: &[u8]| mach_bench::dispatch(proc, m, &mut MarshalBuf::new(), &mut MachSink).err()
    };
    for n in [257, 5000] {
        let ints = mach::ints(n);
        let body = encoded(|b| mach_bench::encode_send_ints_request(b, &ints));
        refused!(
            "mach send_ints",
            body,
            false,
            mach_bench::decode_send_ints_request,
            (ints,),
            arm(1)
        );
    }
    let rects = mach::rects(75);
    let body = encoded(|b| mach_bench::encode_send_rects_request(b, &rects));
    refused!(
        "mach send_rects",
        body,
        true,
        mach_bench::decode_send_rects_request,
        (rects,),
        arm(2)
    );
    let dirents = mach::dirents(5);
    let body = encoded(|b| mach_bench::encode_send_dirents_request(b, &dirents));
    refused!(
        "mach send_dirents",
        body,
        true,
        mach_bench::decode_send_dirents_request,
        (dirents,),
        arm(3)
    );
    let stat = mach::stat();
    let body = encoded(|b| mach_bench::encode_echo_stat_request(b, &stat));
    refused!(
        "mach echo_stat",
        body,
        false,
        mach_bench::decode_echo_stat_request,
        (stat.clone(),),
        arm(4)
    );
    let body = encoded(|b| mach_bench::encode_echo_stat_reply(b, &stat));
    refused!(
        "mach echo_stat reply",
        body,
        false,
        mach_bench::decode_echo_stat_reply,
        (stat,)
    );

    // `Mail` over IIOP.
    let body = encoded(|b| mail_iiop::encode_send_request(b, "a letter, not word-sized"));
    refused!(
        "mail send",
        body,
        false,
        mail_iiop::decode_send_request,
        ("a letter, not word-sized",),
        |m: &[u8]| mail_iiop::dispatch_by_name(b"send", m, &mut MarshalBuf::new(), &mut MailSink)
            .err(),
    );

    // `Varied` over IIOP: every union arm, a float after a byte-wide
    // arm, a double after a word, bounded strings of every length mod 4.
    let arm = |op: &'static [u8]| {
        move |m: &[u8]| {
            varied_iiop::dispatch_by_name(op, m, &mut MarshalBuf::new(), &mut VariedSink).err()
        }
    };
    let samples = varied_samples();
    let iiop_samples: Vec<varied_iiop::Sample> = samples
        .iter()
        .map(|s| varied_iiop::Sample {
            color: s.color,
            shade: iiop_shade(&s.shade),
            weight: s.weight,
            precise: s.precise,
            label: s.label.clone(),
        })
        .collect();
    let body = through_gateway(
        transcode_varied::transcode_put_samples_request,
        &encoded(|b| varied_onc::encode_put_samples_request(b, &samples)),
        &encoded(|b| varied_iiop::encode_put_samples_request(b, &iiop_samples)),
    );
    refused!(
        "varied put_samples",
        body,
        true,
        varied_iiop::decode_put_samples_request,
        (iiop_samples,),
        arm(b"put_samples")
    );
    let grid = [[1, -2, 3, -4], [5, -6, 7, -8], [9, -10, 11, -12]];
    let body = through_gateway(
        transcode_varied::transcode_put_grid_request,
        &encoded(|b| varied_onc::encode_put_grid_request(b, &grid)),
        &encoded(|b| varied_iiop::encode_put_grid_request(b, &grid)),
    );
    refused!(
        "varied put_grid",
        body,
        false,
        varied_iiop::decode_put_grid_request,
        (grid,),
        arm(b"put_grid")
    );
    for shade in [
        varied_onc::Shade::Warm(7),
        varied_onc::Shade::Cool(-9),
        varied_onc::Shade::Other(31, -2.5),
    ] {
        let body = through_gateway(
            transcode_varied::transcode_tally_request,
            &encoded(|b| varied_onc::encode_tally_request(b, &shade, 1)),
            &encoded(|b| varied_iiop::encode_tally_request(b, &iiop_shade(&shade), 1)),
        );
        refused!(
            "varied tally",
            body,
            false,
            varied_iiop::decode_tally_request,
            (iiop_shade(&shade), 1),
            arm(b"tally")
        );
    }
    let body = through_gateway(
        transcode_varied::transcode_tally_reply,
        &encoded(|b| varied_onc::encode_tally_reply(b, -77)),
        &encoded(|b| varied_iiop::encode_tally_reply(b, -77)),
    );
    refused!(
        "varied tally reply",
        body,
        false,
        varied_iiop::decode_tally_reply,
        (-77,)
    );
    let body = through_gateway(
        transcode_varied::transcode_nudge_request,
        &encoded(|b| varied_onc::encode_nudge_request(b, -3, 65000)),
        &encoded(|b| varied_iiop::encode_nudge_request(b, -3, 65000)),
    );
    refused!(
        "varied nudge",
        body,
        false,
        varied_iiop::decode_nudge_request,
        (-3, 65000),
        arm(b"nudge")
    );
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

    buf.clear();
    onc_bench::encode_send_rects_request(&mut buf, &data::onc::rects(75));
    let msg = buf.as_slice().to_vec();
    prefixes_fail_clean("onc rects (swizzle image run)", &msg, &mut |m| {
        onc_bench::decode_send_rects_request(&mut MsgReader::new(m)).err()
    });
    prefixes_fail_clean("onc rects, dispatch arm", &msg, &mut |m| {
        onc_bench::dispatch(2, m, &mut reply, &mut OncSink).err()
    });

    buf.clear();
    iiop_bench::encode_send_ints_request(&mut buf, &data::iiop::ints(300));
    let msg = buf.as_slice().to_vec();
    prefixes_fail_clean("iiop ints (memcpy run)", &msg, &mut |m| {
        iiop_bench::decode_send_ints_request(&mut MsgReader::new(m)).err()
    });
    prefixes_fail_clean("iiop ints, word-switch arm", &msg, &mut |m| {
        iiop_bench::dispatch_by_name(b"send_ints", m, &mut reply, &mut IiopSink).err()
    });

    buf.clear();
    iiop_bench::encode_send_rects_request(&mut buf, &data::iiop::rects(75));
    let msg = buf.as_slice().to_vec();
    prefixes_fail_clean("iiop rects (image run)", &msg, &mut |m| {
        iiop_bench::decode_send_rects_request(&mut MsgReader::new(m)).err()
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
    every_strict_prefix_of_a_cdr_or_mach_body_is_truncated();
}
