//! Driver for the CI lane "Extension-pass ablations (--disable-pass)".
//!
//! The lane copies this file next to a `flickc testdata/bench.x
//! --pres rpcgen-c --transport onc-tcp` output (`Bench.rs`), compiles
//! the pair with plain `rustc` against the workspace's release rlibs,
//! and runs it: whichever passes were disabled, the generated stubs
//! must put the rpcgen-style baseline's exact bytes on the wire and
//! decode them back — `crates/bench/tests/roundtrip.rs`'s
//! `flick_onc_wire_matches_rpcgen_wire`, over a module that was
//! generated a moment ago instead of checked in.

#[path = "Bench.rs"]
mod stubs;

use flick_baselines::rpcgen::RpcgenStyle;
use flick_baselines::types::workload;
use flick_baselines::Marshaler;
use flick_runtime::{MarshalBuf, MsgReader};

fn main() {
    let mut base = RpcgenStyle::new();
    let mut buf = MarshalBuf::new();
    for n in [0usize, 1, 3, 77, 4097] {
        let ints = workload::ints(n);
        base.marshal_ints(&ints).expect("rpcgen marshals ints");
        buf.clear();
        stubs::encode_send_ints_request(&mut buf, &ints);
        assert_eq!(buf.as_slice(), base.bytes(), "ints wire, n={n}");
        let (back,) = stubs::decode_send_ints_request(&mut MsgReader::new(buf.as_slice()))
            .expect("ints decode");
        assert_eq!(back, ints, "ints round trip, n={n}");

        let rects: Vec<stubs::rect> = workload::rects(n)
            .iter()
            .map(|r| stubs::rect {
                min: stubs::point { x: r.min.x, y: r.min.y },
                max: stubs::point { x: r.max.x, y: r.max.y },
            })
            .collect();
        base.marshal_rects(&workload::rects(n));
        buf.clear();
        stubs::encode_send_rects_request(&mut buf, &rects);
        assert_eq!(buf.as_slice(), base.bytes(), "rects wire, n={n}");
        let (back,) = stubs::decode_send_rects_request(&mut MsgReader::new(buf.as_slice()))
            .expect("rects decode");
        assert_eq!(back, rects, "rects round trip, n={n}");

        let n = n.min(77);
        let dirents: Vec<stubs::dirent> = workload::dirents(n)
            .into_iter()
            .map(|d| stubs::dirent {
                name: d.name,
                info: stubs::statbuf {
                    fields: d.info.fields,
                    tag: d.info.tag,
                },
            })
            .collect();
        base.marshal_dirents(&workload::dirents(n));
        buf.clear();
        stubs::encode_send_dirents_request(&mut buf, &dirents);
        assert_eq!(buf.as_slice(), base.bytes(), "dirents wire, n={n}");
        let (back,) = stubs::decode_send_dirents_request(&mut MsgReader::new(buf.as_slice()))
            .expect("dirents decode");
        assert_eq!(back, dirents, "dirents round trip, n={n}");
    }
    println!("ablation driver: wire bytes equal the rpcgen baseline");
}
