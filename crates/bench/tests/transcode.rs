//! The generated transcoders held to references outside themselves.
//!
//! `bridge.rs` pins the fused rewrites to their `_naive` twins over the
//! `Bench` workload.  Here the `Varied` gateway module (enums, a
//! three-armed union with a default `double`, floats, widened shorts,
//! bounded strings, a nested fixed array) is held to the *endpoint
//! stubs*: what `varied_onc` encodes must transcode to exactly what
//! `varied_iiop` encodes for the same values, and back through the
//! gateway of the swapped pair (`transcode_varied_rev`).  And every
//! strict prefix of every body is refused as truncated by both paths —
//! the fused one before it writes any data of the region it failed in.

use flick_bench::data;
use flick_bench::generated::{
    iiop_bench, onc_bench, transcode_bench as xb, transcode_varied as xv,
    transcode_varied_rev as xv_back, varied_iiop, varied_onc,
};
use flick_runtime::{DecodeError, MarshalBuf};

type Rewrite = fn(&[u8], &mut MarshalBuf) -> Result<(), DecodeError>;

fn encoded(f: impl FnOnce(&mut MarshalBuf)) -> Vec<u8> {
    let mut b = MarshalBuf::new();
    f(&mut b);
    b.into_vec()
}

/// One `Varied` request: its wire name, the body each endpoint encoder
/// writes for the same values, and the forward rewrites.
struct Varied {
    name: &'static str,
    proc_num: u32,
    xdr: Vec<u8>,
    cdr: Vec<u8>,
    fused: Rewrite,
    naive: Rewrite,
}

/// The same 24 samples in both presentations: every union arm, every
/// enum value, label lengths across the XDR pad cycle — and, in both
/// floats, a quiet and a signaling NaN with payloads and `-0.0`, whose
/// bits every rewrite must carry unchanged.
macro_rules! samples {
    ($m:ident) => {
        (0..24i32)
            .map(|i| $m::Sample {
                color: (i % 3) as u32,
                shade: match i % 4 {
                    0 => $m::Shade::Warm(i as u8),
                    1 => $m::Shade::Cool(-i * 3),
                    2 => $m::Shade::Other(i64::from(i) + 100, f64::from(i) / 4.0),
                    _ => $m::Shade::Other(-7, -0.0),
                },
                weight: match i {
                    5 => f32::from_bits(0x7fc0_1234),
                    9 => f32::from_bits(0x7f80_0001),
                    13 => -0.0,
                    _ => i as f32 * 0.5,
                },
                precise: match i {
                    6 => f64::from_bits(0x7ff8_0000_0000_1234),
                    10 => f64::from_bits(0x7ff0_0000_0000_0001),
                    14 => -0.0,
                    _ => f64::from(i) * -1.25,
                },
                label: "sample-label".chars().take(i as usize % 13).collect(),
            })
            .collect::<Vec<_>>()
    };
}

const GRID: [[i32; 4]; 3] = [
    [1, -2, 0x0102_0304, i32::MIN],
    [5, 6, 7, 8],
    [i32::MAX, -1, 0, 0x7f00_00ff],
];

fn varied_cases() -> Vec<Varied> {
    vec![
        Varied {
            name: "put_samples",
            proc_num: 1,
            xdr: encoded(|b| varied_onc::encode_put_samples_request(b, &samples!(varied_onc))),
            cdr: encoded(|b| varied_iiop::encode_put_samples_request(b, &samples!(varied_iiop))),
            fused: xv::transcode_put_samples_request,
            naive: xv::transcode_put_samples_request_naive,
        },
        Varied {
            name: "put_grid",
            proc_num: 2,
            xdr: encoded(|b| varied_onc::encode_put_grid_request(b, &GRID)),
            cdr: encoded(|b| varied_iiop::encode_put_grid_request(b, &GRID)),
            fused: xv::transcode_put_grid_request,
            naive: xv::transcode_put_grid_request_naive,
        },
        Varied {
            name: "tally",
            proc_num: 3,
            xdr: encoded(|b| {
                varied_onc::encode_tally_request(b, &varied_onc::Shade::Other(9999, 2.5), 1);
            }),
            cdr: encoded(|b| {
                varied_iiop::encode_tally_request(b, &varied_iiop::Shade::Other(9999, 2.5), 1);
            }),
            fused: xv::transcode_tally_request,
            naive: xv::transcode_tally_request_naive,
        },
        Varied {
            name: "nudge",
            proc_num: 4,
            xdr: encoded(|b| varied_onc::encode_nudge_request(b, -300, 0xfffe)),
            cdr: encoded(|b| varied_iiop::encode_nudge_request(b, -300, 0xfffe)),
            fused: xv::transcode_nudge_request,
            naive: xv::transcode_nudge_request_naive,
        },
    ]
}

#[test]
fn varied_bodies_transcode_to_the_iiop_stubs_bytes_and_back() {
    assert!(xv::DST_LITTLE_ENDIAN == cfg!(target_endian = "little"));
    for c in varied_cases() {
        assert_eq!(xv::BRIDGE_OPS[c.proc_num as usize - 1].name, c.name);
        for (path, rewrite) in [("fused", c.fused), ("naive", c.naive)] {
            let mut dst = MarshalBuf::new();
            rewrite(&c.xdr, &mut dst).unwrap_or_else(|e| panic!("{} {path}: {e:?}", c.name));
            assert_eq!(
                dst.as_slice(),
                c.cdr.as_slice(),
                "{} {path}: XDR → CDR must be what the IIOP encoder writes",
                c.name
            );
        }
        // The gateway facing the other way — the swapped pair's module —
        // takes the IIOP encoder's bytes back to the XDR original, on
        // both paths.
        for (path, dispatch) in [
            (
                "fused",
                xv_back::transcode_request as fn(_, &_, &mut _) -> _,
            ),
            ("naive", xv_back::transcode_request_naive),
        ] {
            let mut back = MarshalBuf::new();
            let wire_name = dispatch(c.proc_num, &c.cdr, &mut back)
                .unwrap_or_else(|e| panic!("{} back {path}: {e:?}", c.name));
            assert_eq!(wire_name, c.name);
            assert_eq!(
                back.as_slice(),
                c.xdr.as_slice(),
                "{} {path} CDR → XDR",
                c.name
            );
        }
    }
}

#[test]
fn float_samples_carry_nan_payloads_and_negative_zero_onto_both_wires() {
    // The rewrites are held to the encoders' bytes above; this holds the
    // encoders to the samples' bits, so a NaN quieted or canonicalized
    // on both sides at once cannot pass unseen.
    let c = &varied_cases()[0];
    let has = |body: &[u8], bits: &[u8]| body.windows(bits.len()).any(|w| w == bits);
    for bits in [0x7fc0_1234u32, 0x7f80_0001, 0x8000_0000] {
        assert!(has(&c.xdr, &bits.to_be_bytes()), "f32 {bits:#x} in XDR");
        assert!(has(&c.cdr, &bits.to_ne_bytes()), "f32 {bits:#x} in CDR");
    }
    for bits in [0x7ff8_0000_0000_1234u64, 0x7ff0_0000_0000_0001, 1 << 63] {
        assert!(has(&c.xdr, &bits.to_be_bytes()), "f64 {bits:#x} in XDR");
        assert!(has(&c.cdr, &bits.to_ne_bytes()), "f64 {bits:#x} in CDR");
    }
}

/// Where a body's regions lie, for the bodies simple enough to say
/// exactly how much a fused rewrite may have appended before failing.
enum Regions {
    /// The whole body is one region: a failed rewrite wrote nothing.
    Whole,
    /// A 4-byte count, then one bulk region.
    CountThenBulk,
    /// Regions interleave with strings and slot-wise values; only the
    /// general properties are checked.
    Mixed,
}

#[test]
fn every_strict_prefix_is_refused_as_truncated_before_its_region_is_written() {
    let mut cases: Vec<(String, Vec<u8>, Rewrite, Rewrite, Regions)> = vec![
        (
            "send_ints".into(),
            encoded(|b| onc_bench::encode_send_ints_request(b, &data::onc::ints(64))),
            xb::transcode_send_ints_request,
            xb::transcode_send_ints_request_naive,
            Regions::CountThenBulk,
        ),
        (
            "send_rects".into(),
            encoded(|b| onc_bench::encode_send_rects_request(b, &data::onc::rects(16))),
            xb::transcode_send_rects_request,
            xb::transcode_send_rects_request_naive,
            Regions::CountThenBulk,
        ),
        (
            "send_dirents".into(),
            encoded(|b| onc_bench::encode_send_dirents_request(b, &data::onc::dirents(4))),
            xb::transcode_send_dirents_request,
            xb::transcode_send_dirents_request_naive,
            Regions::Mixed,
        ),
        (
            "echo_stat".into(),
            encoded(|b| onc_bench::encode_echo_stat_request(b, &data::onc::stat())),
            xb::transcode_echo_stat_request,
            xb::transcode_echo_stat_request_naive,
            Regions::Whole,
        ),
        (
            // The CDR stat the IIOP server answers with.
            "echo_stat reply".into(),
            encoded(|b| iiop_bench::encode_echo_stat_request(b, &data::iiop::stat())),
            xb::transcode_echo_stat_reply,
            xb::transcode_echo_stat_reply_naive,
            Regions::Whole,
        ),
    ];
    for c in varied_cases() {
        let regions = if c.name == "put_grid" {
            Regions::Whole
        } else {
            Regions::Mixed
        };
        cases.push((
            format!("varied {}", c.name),
            c.xdr,
            c.fused,
            c.naive,
            regions,
        ));
    }

    for (name, body, fused, naive, regions) in cases {
        let mut full = MarshalBuf::new();
        fused(&body, &mut full).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        for cut in 0..body.len() {
            let mut outs = Vec::new();
            for (path, rewrite) in [("fused", fused), ("naive", naive)] {
                let mut dst = MarshalBuf::new();
                let err = rewrite(&body[..cut], &mut dst)
                    .expect_err(&format!("{name} {path} accepted a {cut}-byte prefix"));
                assert!(
                    matches!(err.root(), DecodeError::Truncated { .. }),
                    "{name} {path} cut at {cut}: {err:?}"
                );
                assert!(
                    full.as_slice().starts_with(dst.as_slice()),
                    "{name} {path} cut at {cut}: partial output is not a prefix of the full one"
                );
                outs.push(dst.len());
            }
            // Same verdict, possibly a different offset: with one check
            // per region the fused path refuses no later than the
            // slot-wise one, and before it writes the region — at most
            // the zero pad that aligns the region's start precedes the
            // check, as it always has for block copies.
            let (wrote, slotwise) = (outs[0], outs[1]);
            let pad = &full.as_slice()[slotwise.min(wrote)..wrote];
            assert!(
                pad.len() < 8 && pad.iter().all(|&b| b == 0),
                "{name} cut at {cut}: fused wrote {wrote}, slot-wise {slotwise}"
            );
            let exactly = match regions {
                Regions::Whole => Some(0),
                Regions::CountThenBulk => Some(4 * usize::from(cut >= 4)),
                Regions::Mixed => None,
            };
            if let Some(n) = exactly {
                assert_eq!(wrote, n, "{name} cut at {cut}: wrote into a failed region");
            }
        }
    }
}
