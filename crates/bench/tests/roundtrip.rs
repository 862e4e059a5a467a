//! Correctness of the compiler-generated stubs: every workload
//! round-trips through every back end, and where two systems share a
//! wire format their bytes are identical.

use flick_baselines::types::workload;
use flick_baselines::Marshaler;
use flick_bench::data;
use flick_bench::generated::{fluke_bench, iiop_bench, mach_bench, onc_bench};
use flick_runtime::{MarshalBuf, MsgReader};

#[test]
fn onc_ints_roundtrip() {
    let vals = data::onc::ints(1000);
    let mut buf = MarshalBuf::new();
    onc_bench::encode_send_ints_request(&mut buf, &vals);
    let mut r = MsgReader::new(buf.as_slice());
    let (back,) = onc_bench::decode_send_ints_request(&mut r).expect("decodes");
    assert_eq!(back, vals);
    assert!(r.is_exhausted());
}

#[test]
fn onc_rects_roundtrip() {
    let rects = data::onc::rects(333);
    let mut buf = MarshalBuf::new();
    onc_bench::encode_send_rects_request(&mut buf, &rects);
    assert_eq!(buf.len(), 4 + 333 * 16);
    let mut r = MsgReader::new(buf.as_slice());
    let (back,) = onc_bench::decode_send_rects_request(&mut r).expect("decodes");
    assert_eq!(back, rects);
}

#[test]
fn onc_dirents_roundtrip_at_256_bytes_each() {
    let dirents = data::onc::dirents(64);
    let mut buf = MarshalBuf::new();
    onc_bench::encode_send_dirents_request(&mut buf, &dirents);
    // The paper: each directory entry encodes to exactly 256 bytes.
    assert_eq!(buf.len(), 4 + 64 * 256);
    let mut r = MsgReader::new(buf.as_slice());
    let (back,) = onc_bench::decode_send_dirents_request(&mut r).expect("decodes");
    assert_eq!(back, dirents);
}

#[test]
fn flick_onc_wire_matches_rpcgen_wire() {
    // Flick's ONC back end and rpcgen's stubs speak the same XDR, so
    // the same data must produce byte-identical messages — this is
    // the interoperability the paper's Table 3 implies.
    let mut base = flick_baselines::rpcgen::RpcgenStyle::new();

    let ints = workload::ints(77);
    base.marshal_ints(&ints).unwrap();
    let mut buf = MarshalBuf::new();
    onc_bench::encode_send_ints_request(&mut buf, &data::onc::ints(77));
    assert_eq!(buf.as_slice(), base.bytes(), "ints wire");

    let mut buf = MarshalBuf::new();
    onc_bench::encode_send_rects_request(&mut buf, &data::onc::rects(19));
    base.marshal_rects(&workload::rects(19));
    assert_eq!(buf.as_slice(), base.bytes(), "rects wire");

    let mut buf = MarshalBuf::new();
    onc_bench::encode_send_dirents_request(&mut buf, &data::onc::dirents(7));
    base.marshal_dirents(&workload::dirents(7));
    assert_eq!(buf.as_slice(), base.bytes(), "dirents wire");
}

#[test]
fn iiop_roundtrips() {
    let vals = data::iiop::ints(513);
    let mut buf = MarshalBuf::new();
    iiop_bench::encode_send_ints_request(&mut buf, &vals);
    let mut r = MsgReader::new(buf.as_slice());
    let (back,) = iiop_bench::decode_send_ints_request(&mut r).expect("decodes");
    assert_eq!(back, vals);

    let rects = data::iiop::rects(100);
    let mut buf = MarshalBuf::new();
    iiop_bench::encode_send_rects_request(&mut buf, &rects);
    let mut r = MsgReader::new(buf.as_slice());
    let (back,) = iiop_bench::decode_send_rects_request(&mut r).expect("decodes");
    assert_eq!(back, rects);

    let dirents = data::iiop::dirents(9);
    let mut buf = MarshalBuf::new();
    iiop_bench::encode_send_dirents_request(&mut buf, &dirents);
    let mut r = MsgReader::new(buf.as_slice());
    let (back,) = iiop_bench::decode_send_dirents_request(&mut r).expect("decodes");
    assert_eq!(back, dirents);
}

#[test]
fn iiop_int_arrays_use_native_order() {
    // GIOP lets the sender choose byte order; the IIOP back end picks
    // native so integer runs block-copy (the memcpy optimization).
    let vals = vec![0x0102_0304i32];
    let mut buf = MarshalBuf::new();
    iiop_bench::encode_send_ints_request(&mut buf, &vals);
    let expect: &[u8] = if cfg!(target_endian = "little") {
        &[1, 0, 0, 0, 4, 3, 2, 1]
    } else {
        &[0, 0, 0, 1, 1, 2, 3, 4]
    };
    assert_eq!(buf.as_slice(), expect);
}

#[test]
fn mach_roundtrips() {
    let vals = data::mach::ints(257);
    let mut buf = MarshalBuf::new();
    mach_bench::encode_send_ints_request(&mut buf, &vals);
    let mut r = MsgReader::new(buf.as_slice());
    let (back,) = mach_bench::decode_send_ints_request(&mut r).expect("decodes");
    assert_eq!(back, vals);

    let dirents = data::mach::dirents(5);
    let mut buf = MarshalBuf::new();
    mach_bench::encode_send_dirents_request(&mut buf, &dirents);
    let mut r = MsgReader::new(buf.as_slice());
    let (back,) = mach_bench::decode_send_dirents_request(&mut r).expect("decodes");
    assert_eq!(back, dirents);
}

#[test]
fn fluke_roundtrips() {
    let rects = data::fluke::rects(40);
    let mut buf = MarshalBuf::new();
    fluke_bench::encode_send_rects_request(&mut buf, &rects);
    let mut r = MsgReader::new(buf.as_slice());
    let (back,) = fluke_bench::decode_send_rects_request(&mut r).expect("decodes");
    assert_eq!(back, rects);
}

#[test]
fn truncated_messages_error_not_panic() {
    let vals = data::onc::ints(100);
    let mut buf = MarshalBuf::new();
    onc_bench::encode_send_ints_request(&mut buf, &vals);
    for cut in [0usize, 1, 3, 4, 7, 100] {
        let mut r = MsgReader::new(&buf.as_slice()[..cut]);
        assert!(
            onc_bench::decode_send_ints_request(&mut r).is_err(),
            "cut at {cut}"
        );
    }
}

#[test]
fn hostile_count_does_not_overallocate() {
    // A message claiming 2^31 elements but holding 4 bytes must fail
    // without first reserving gigabytes.
    let mut buf = MarshalBuf::new();
    buf.put_u32_be(0x7fff_ffff);
    buf.put_u32_be(1);
    let mut r = MsgReader::new(buf.as_slice());
    assert!(onc_bench::decode_send_ints_request(&mut r).is_err());
}

struct CountingServer {
    ints: usize,
    rects: usize,
    dirents: usize,
}

impl onc_bench::Server for CountingServer {
    fn send_ints(&mut self, vals: Vec<i32>) {
        self.ints += vals.len();
    }
    fn send_rects(&mut self, rects: Vec<onc_bench::Rect>) {
        self.rects += rects.len();
    }
    fn send_dirents(&mut self, entries: Vec<onc_bench::Dirent>) {
        self.dirents += entries.len();
    }
    fn echo_stat(&mut self, _s: onc_bench::Stat) -> flick_runtime::Echoed<onc_bench::Stat> {
        flick_runtime::Echoed::Unchanged
    }
}

#[test]
fn numeric_dispatch_routes_by_procedure() {
    let mut srv = CountingServer {
        ints: 0,
        rects: 0,
        dirents: 0,
    };
    let mut reply = MarshalBuf::new();

    let mut buf = MarshalBuf::new();
    onc_bench::encode_send_ints_request(&mut buf, &data::onc::ints(10));
    onc_bench::dispatch(1, buf.as_slice(), &mut reply, &mut srv).expect("ints");

    let mut buf = MarshalBuf::new();
    onc_bench::encode_send_rects_request(&mut buf, &data::onc::rects(20));
    onc_bench::dispatch(2, buf.as_slice(), &mut reply, &mut srv).expect("rects");

    let mut buf = MarshalBuf::new();
    onc_bench::encode_send_dirents_request(&mut buf, &data::onc::dirents(3));
    onc_bench::dispatch(3, buf.as_slice(), &mut reply, &mut srv).expect("dirents");

    assert_eq!((srv.ints, srv.rects, srv.dirents), (10, 20, 3));
    // Unknown procedure rejected.
    assert!(onc_bench::dispatch(99, &[], &mut reply, &mut srv).is_err());
}

struct NameServer {
    hits: Vec<&'static str>,
}

impl iiop_bench::Server for NameServer {
    fn send_ints(&mut self, _vals: Vec<i32>) {
        self.hits.push("ints");
    }
    fn send_rects(&mut self, _rects: Vec<iiop_bench::Rect>) {
        self.hits.push("rects");
    }
    fn send_dirents(&mut self, _entries: Vec<iiop_bench::Dirent>) {
        self.hits.push("dirents");
    }
    fn echo_stat(&mut self, s: iiop_bench::Stat) -> iiop_bench::Stat {
        self.hits.push("echo");
        s
    }
}

#[test]
fn word_wise_name_dispatch_routes_by_operation() {
    // §3.3: the IIOP dispatch demultiplexes the operation-name string
    // in machine-word chunks; `send_ints`/`send_rects`/`send_dirents`
    // share their first word, exercising the nested switch.
    let mut srv = NameServer { hits: vec![] };
    let mut reply = MarshalBuf::new();

    let mut buf = MarshalBuf::new();
    iiop_bench::encode_send_ints_request(&mut buf, &data::iiop::ints(1));
    iiop_bench::dispatch_by_name(b"send_ints", buf.as_slice(), &mut reply, &mut srv).expect("ints");

    let mut buf = MarshalBuf::new();
    iiop_bench::encode_send_rects_request(&mut buf, &data::iiop::rects(1));
    iiop_bench::dispatch_by_name(b"send_rects", buf.as_slice(), &mut reply, &mut srv)
        .expect("rects");

    let mut buf = MarshalBuf::new();
    iiop_bench::encode_send_dirents_request(&mut buf, &data::iiop::dirents(1));
    iiop_bench::dispatch_by_name(b"send_dirents", buf.as_slice(), &mut reply, &mut srv)
        .expect("dirents");

    assert_eq!(srv.hits, ["ints", "rects", "dirents"]);
    // Near-miss names (same first word) are rejected.
    assert!(iiop_bench::dispatch_by_name(b"send_intz", &[], &mut reply, &mut srv).is_err());
    assert!(iiop_bench::dispatch_by_name(b"send_ints_more", &[], &mut reply, &mut srv).is_err());
    assert!(iiop_bench::dispatch_by_name(b"send", &[], &mut reply, &mut srv).is_err());
}

/// A server that keeps the rectangles it is handed, as plain tuples
/// (every generated module has its own `Rect`).
#[derive(Default)]
struct RectSink(Vec<[i32; 4]>);

macro_rules! rect_sink {
    ($module:ident, $stat_reply:ty, $echo:expr) => {
        impl $module::Server for RectSink {
            fn send_ints(&mut self, _vals: Vec<i32>) {}
            fn send_rects(&mut self, rects: Vec<$module::Rect>) {
                self.0 = rects
                    .iter()
                    .map(|r| [r.min.x, r.min.y, r.max.x, r.max.y])
                    .collect();
            }
            fn send_dirents(&mut self, _entries: Vec<$module::Dirent>) {}
            fn echo_stat(&mut self, s: $module::Stat) -> $stat_reply {
                $echo(s)
            }
        }
    };
}
rect_sink!(onc_bench, flick_runtime::Echoed<onc_bench::Stat>, |_| {
    flick_runtime::Echoed::Unchanged
});
rect_sink!(iiop_bench, iiop_bench::Stat, |s| s);

#[test]
fn image_runs_are_byte_identical_with_every_other_implementation() {
    use flick_baselines::orbeline::OrbelineStyle;
    use flick_baselines::rpcgen::RpcgenStyle;
    use flick_bench::generated::{iiop_nomemcpy, onc_nochunk};

    // `send_rects` moves `Vec<Rect>` as one run in `onc_bench`
    // (swap-copied on a little-endian host) and `iiop_bench` (block-
    // copied); the ablated modules still walk it field by field, and
    // the rpcgen- and ORBeline-style baselines datum by datum.  Counts
    // straddle the kernel's 16-byte vector width and its length
    // cut-over.
    for n in [0usize, 1, 15, 16, 17, 4097] {
        let base = workload::rects(n);
        let want: Vec<[i32; 4]> = base
            .iter()
            .map(|r| [r.min.x, r.min.y, r.max.x, r.max.y])
            .collect();
        let mut reply = MarshalBuf::new();

        // --- XDR ---
        let mut run = MarshalBuf::new();
        onc_bench::encode_send_rects_request(&mut run, &data::onc::rects(n));
        let mut looped = MarshalBuf::new();
        onc_nochunk::encode_send_rects_request(&mut looped, &data::onc_nochunk::rects(n));
        assert_eq!(
            run.as_slice(),
            looped.as_slice(),
            "onc vs onc_nochunk, n={n}"
        );
        let mut rpcgen = RpcgenStyle::new();
        rpcgen.marshal_rects(&base);
        assert_eq!(run.as_slice(), rpcgen.bytes(), "onc vs rpcgen, n={n}");
        // ORBeline speaks big-endian CDR, which for a count and longs
        // is XDR byte for byte.
        let mut orb = OrbelineStyle::new();
        orb.marshal_rects(&base);
        assert_eq!(run.as_slice(), orb.bytes(), "onc vs ORBeline, n={n}");
        assert_eq!(rpcgen.unmarshal_rects(), base);
        // Each side decodes the other's bytes to the same values.
        let (back,) = onc_bench::decode_send_rects_request(&mut MsgReader::new(looped.as_slice()))
            .expect("run decoder, loop bytes");
        assert_eq!(back, data::onc::rects(n), "n={n}");
        let (back,) = onc_nochunk::decode_send_rects_request(&mut MsgReader::new(run.as_slice()))
            .expect("loop decoder, run bytes");
        assert_eq!(back, data::onc_nochunk::rects(n), "n={n}");
        // Both dispatch-arm kinds hand the server the same vector.
        let mut sink = RectSink::default();
        onc_bench::dispatch(2, run.as_slice(), &mut reply, &mut sink).expect("numeric");
        assert_eq!(sink.0, want, "onc dispatch, n={n}");
        let mut sink = RectSink::default();
        onc_bench::dispatch_by_name(b"send_rects", run.as_slice(), &mut reply, &mut sink)
            .expect("by name");
        assert_eq!(sink.0, want, "onc dispatch_by_name, n={n}");

        // --- CDR, sender's (native) order ---
        let mut run = MarshalBuf::new();
        iiop_bench::encode_send_rects_request(&mut run, &data::iiop::rects(n));
        let mut looped = MarshalBuf::new();
        iiop_nomemcpy::encode_send_rects_request(&mut looped, &data::iiop_nomemcpy::rects(n));
        assert_eq!(
            run.as_slice(),
            looped.as_slice(),
            "iiop vs iiop_nomemcpy, n={n}"
        );
        // ORBeline's big-endian words are ours, each in host order.
        let words: Vec<u8> = orb
            .bytes()
            .chunks_exact(4)
            .flat_map(|w| u32::from_be_bytes(w.try_into().unwrap()).to_ne_bytes())
            .collect();
        assert_eq!(run.as_slice(), &words[..], "iiop vs ORBeline, n={n}");
        let (back,) = iiop_bench::decode_send_rects_request(&mut MsgReader::new(looped.as_slice()))
            .expect("run decoder, loop bytes");
        assert_eq!(back, data::iiop::rects(n), "n={n}");
        let (back,) = iiop_nomemcpy::decode_send_rects_request(&mut MsgReader::new(run.as_slice()))
            .expect("loop decoder, run bytes");
        assert_eq!(back, data::iiop_nomemcpy::rects(n), "n={n}");
        let mut sink = RectSink::default();
        iiop_bench::dispatch(2, run.as_slice(), &mut reply, &mut sink).expect("numeric");
        assert_eq!(sink.0, want, "iiop dispatch, n={n}");
        let mut sink = RectSink::default();
        iiop_bench::dispatch_by_name(b"send_rects", run.as_slice(), &mut reply, &mut sink)
            .expect("by name");
        assert_eq!(sink.0, want, "iiop dispatch_by_name, n={n}");
    }
}

#[test]
fn dead_slot_drops_the_pad_from_the_wire() {
    use flick_bench::generated::onc_nodeadslot;
    // With `dead-slot` on, the suppressed `_pad` parameter vanishes
    // from the wire: the request is exactly the 136-byte stat record.
    let mut lean = MarshalBuf::new();
    onc_bench::encode_echo_stat_request(&mut lean, &data::onc::stat());
    assert_eq!(lean.len(), 136);

    // With the pass off, the wire still carries the 4-byte pad word
    // (zero-filled on encode, decoded-and-discarded on dispatch).
    let mut fat = MarshalBuf::new();
    onc_nodeadslot::encode_echo_stat_request(&mut fat, &data::onc_nodeadslot::stat());
    assert_eq!(fat.len(), 140);
    assert_eq!(&fat.as_slice()[136..], &[0, 0, 0, 0]);

    // Both shapes round-trip against their own peers.
    let mut r = MsgReader::new(lean.as_slice());
    let (back,) = onc_bench::decode_echo_stat_request(&mut r).expect("lean decodes");
    assert_eq!(back, data::onc::stat());
    let mut r = MsgReader::new(fat.as_slice());
    let (back,) = onc_nodeadslot::decode_echo_stat_request(&mut r).expect("fat decodes");
    assert_eq!(back, data::onc_nodeadslot::stat());
    assert!(r.is_exhausted(), "the pad word is consumed");
}

#[test]
fn reply_alias_reuses_request_bytes_without_changing_the_wire() {
    use flick_bench::generated::onc_noalias;

    // Identity echo: the aliased dispatch may copy the request bytes
    // wholesale, and the wire must be indistinguishable from a full
    // re-marshal (the no-alias ablation produces it the slow way).
    let mut req = MarshalBuf::new();
    onc_bench::encode_echo_stat_request(&mut req, &data::onc::stat());
    let mut reply = MarshalBuf::new();
    let mut srv = CountingServer {
        ints: 0,
        rects: 0,
        dirents: 0,
    };
    onc_bench::dispatch(4, req.as_slice(), &mut reply, &mut srv).expect("echo");
    assert_eq!(
        reply.as_slice(),
        req.as_slice(),
        "reply reuses the request bytes"
    );
    let mut r = MsgReader::new(reply.as_slice());
    let (back,) = onc_bench::decode_echo_stat_reply(&mut r).expect("decodes");
    assert_eq!(back, data::onc::stat());

    struct Id;
    impl onc_noalias::Server for Id {
        fn send_ints(&mut self, _v: Vec<i32>) {}
        fn send_rects(&mut self, _v: Vec<onc_noalias::Rect>) {}
        fn send_dirents(&mut self, _v: Vec<onc_noalias::Dirent>) {}
        fn echo_stat(&mut self, s: onc_noalias::Stat) -> onc_noalias::Stat {
            s
        }
    }
    let mut req2 = MarshalBuf::new();
    onc_noalias::encode_echo_stat_request(&mut req2, &data::onc_noalias::stat());
    let mut reply2 = MarshalBuf::new();
    onc_noalias::dispatch(4, req2.as_slice(), &mut reply2, &mut Id).expect("echo");
    assert_eq!(
        reply2.as_slice(),
        reply.as_slice(),
        "alias on/off must agree on the wire"
    );
}

#[test]
fn reply_alias_falls_back_when_the_server_declares_a_change() {
    // A server that edits the stat answers `Echoed::Changed`, which
    // must skip the byte-reuse path and re-marshal the new value.
    struct Bump;
    impl onc_bench::Server for Bump {
        fn send_ints(&mut self, _v: Vec<i32>) {}
        fn send_rects(&mut self, _v: Vec<onc_bench::Rect>) {}
        fn send_dirents(&mut self, _v: Vec<onc_bench::Dirent>) {}
        fn echo_stat(&mut self, mut s: onc_bench::Stat) -> flick_runtime::Echoed<onc_bench::Stat> {
            s.fields[0] += 1;
            flick_runtime::Echoed::Changed(s)
        }
    }
    let mut req = MarshalBuf::new();
    onc_bench::encode_echo_stat_request(&mut req, &data::onc::stat());
    let mut reply = MarshalBuf::new();
    onc_bench::dispatch(4, req.as_slice(), &mut reply, &mut Bump).expect("echo");
    assert_ne!(reply.as_slice(), req.as_slice());
    let mut r = MsgReader::new(reply.as_slice());
    let (back,) = onc_bench::decode_echo_stat_reply(&mut r).expect("decodes");
    let mut want = data::onc::stat();
    want.fields[0] += 1;
    assert_eq!(back, want);
}

#[test]
fn merge_prefix_dispatch_agrees_with_the_unmerged_ablation() {
    use flick_bench::generated::onc_noprefix;

    // The hoisted shared count must be observationally identical to
    // per-arm decoding across every operation that rides the trie.
    struct Tally(usize, usize, usize);
    impl onc_bench::Server for Tally {
        fn send_ints(&mut self, v: Vec<i32>) {
            self.0 += v.len();
        }
        fn send_rects(&mut self, v: Vec<onc_bench::Rect>) {
            self.1 += v.len();
        }
        fn send_dirents(&mut self, v: Vec<onc_bench::Dirent>) {
            self.2 += v.len();
        }
        fn echo_stat(&mut self, _s: onc_bench::Stat) -> flick_runtime::Echoed<onc_bench::Stat> {
            flick_runtime::Echoed::Unchanged
        }
    }
    struct Tally2(usize, usize, usize);
    impl onc_noprefix::Server for Tally2 {
        fn send_ints(&mut self, v: Vec<i32>) {
            self.0 += v.len();
        }
        fn send_rects(&mut self, v: Vec<onc_noprefix::Rect>) {
            self.1 += v.len();
        }
        fn send_dirents(&mut self, v: Vec<onc_noprefix::Dirent>) {
            self.2 += v.len();
        }
        fn echo_stat(
            &mut self,
            _s: onc_noprefix::Stat,
        ) -> flick_runtime::Echoed<onc_noprefix::Stat> {
            flick_runtime::Echoed::Unchanged
        }
    }

    let mut merged = Tally(0, 0, 0);
    let mut plain = Tally2(0, 0, 0);
    let mut reply = MarshalBuf::new();

    let mut buf = MarshalBuf::new();
    onc_bench::encode_send_ints_request(&mut buf, &data::onc::ints(11));
    onc_bench::dispatch_by_name(b"send_ints", buf.as_slice(), &mut reply, &mut merged)
        .expect("ints");
    onc_noprefix::dispatch_by_name(b"send_ints", buf.as_slice(), &mut reply, &mut plain)
        .expect("ints");

    let mut buf = MarshalBuf::new();
    onc_bench::encode_send_rects_request(&mut buf, &data::onc::rects(5));
    onc_bench::dispatch_by_name(b"send_rects", buf.as_slice(), &mut reply, &mut merged)
        .expect("rects");
    onc_noprefix::dispatch_by_name(b"send_rects", buf.as_slice(), &mut reply, &mut plain)
        .expect("rects");

    let mut buf = MarshalBuf::new();
    onc_bench::encode_send_dirents_request(&mut buf, &data::onc::dirents(2));
    onc_bench::dispatch_by_name(b"send_dirents", buf.as_slice(), &mut reply, &mut merged)
        .expect("dirents");
    onc_noprefix::dispatch_by_name(b"send_dirents", buf.as_slice(), &mut reply, &mut plain)
        .expect("dirents");

    assert_eq!((merged.0, merged.1, merged.2), (11, 5, 2));
    assert_eq!((plain.0, plain.1, plain.2), (11, 5, 2));

    // `echo_stat` does not lead with a count, so it must sit outside
    // the hoisted subtree and still dispatch correctly by name.
    let mut buf = MarshalBuf::new();
    onc_bench::encode_echo_stat_request(&mut buf, &data::onc::stat());
    reply.clear();
    onc_bench::dispatch_by_name(b"echo_stat", buf.as_slice(), &mut reply, &mut merged)
        .expect("echo");
    let mut r = MsgReader::new(reply.as_slice());
    let (back,) = onc_bench::decode_echo_stat_reply(&mut r).expect("decodes");
    assert_eq!(back, data::onc::stat());

    // Truncated bodies still error cleanly through the hoisted read.
    let mut reply = MarshalBuf::new();
    assert!(onc_bench::dispatch_by_name(b"send_ints", &[0, 0], &mut reply, &mut merged).is_err());
}

#[test]
fn generated_in_sync() {
    // The committed generated modules must match what the compiler
    // emits today; regenerate with `cargo run -p flick-bench --bin
    // regen_stubs` after compiler changes.  `generate_all` forces the
    // MIR verifier on, so drift can never come from a malformed
    // intermediate.
    let dir = flick_bench::regen::generated_dir();
    let mut modules = flick_bench::regen::generate_all();
    modules.extend(flick_bench::regen::generate_transcode());
    for (name, fresh) in modules {
        let committed = std::fs::read_to_string(dir.join(name)).unwrap_or_else(|_| String::new());
        assert_eq!(
            committed, fresh,
            "{name} is stale — run `cargo run -p flick-bench --bin regen_stubs`"
        );
    }
}

#[test]
fn golden_stub_hashes_are_stable_across_processes() {
    // The committed manifest was written by an earlier `regen_stubs`
    // process; recomputing the structural hashes here (a different
    // process, possibly a different machine) must reproduce it bit for
    // bit.  The plan cache keys its entries by these hashes, and
    // `flick-perf` checks every cold compile against the manifest.
    let committed = std::fs::read_to_string(flick_bench::regen::golden_hashes_path())
        .expect("testdata/golden_hashes.txt is checked in");
    assert_eq!(
        committed,
        flick_bench::regen::golden_hashes(),
        "stub hashes drifted — run `cargo run -p flick-bench --bin regen_stubs`"
    );
    // The planner hashes a presentation's stubs at once, every shared
    // node written once (the recursive `list_onc` included): the same
    // hashes, one by one.
    for (name, compiled) in flick_bench::regen::compile_all() {
        let p = &compiled.presc;
        let each: Vec<u64> = p
            .stubs
            .iter()
            .map(|s| flick_pres::stub_hash(p, s))
            .collect();
        assert_eq!(flick_pres::stub_hashes(p), each, "{name}");
    }
}

#[test]
fn mir_verifier_accepts_every_bench_configuration() {
    // The roundtrip stubs above come from these exact configurations.
    // Force the MIR verifier on (release test builds skip it by
    // default) so every pipeline's intermediate states are checked
    // between passes, not just its final output.
    let verified = |j: &flick_bench::regen::Job, passes: flick::PassSet, what: &str| {
        let mut compiler = flick::Compiler::new(j.frontend, j.style, j.transport).with_opts(passes);
        compiler.backend.verify_mir = true;
        compiler
            .compile_source(j.file, j.source, j.iface, flick_pres::Side::Server)
            .unwrap_or_else(|e| panic!("{} {what} fails MIR verification: {e}", j.out_name));
    };
    let all = flick::PassSet::all();
    for j in flick_bench::regen::jobs() {
        verified(&j, j.opts, "as checked in");
        if j.opts != all {
            continue;
        }
        // Every pass set `--no-opt` / one `--disable-pass` can name over
        // a canonical module, checked in or not.
        verified(&j, flick::PassSet::none(), "with no optimization");
        for pass in flick::PASS_NAMES {
            if let Ok(passes) = all.without(pass) {
                verified(&j, passes, &format!("without {pass}"));
            }
        }
    }
}
