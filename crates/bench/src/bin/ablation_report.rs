//! Ablation report: the §3 optimization claims, measured one flag at
//! a time against stub variants generated with that optimization
//! disabled (the `onc_no*` / `iiop_nomemcpy` / `iiop_noprefix` modules).
//!
//! Paper claims reproduced here:
//! * §3.1 buffer management: "reduces marshaling times by up to 12%
//!   for large messages containing complex structures";
//! * §3.2 chunking: "can reduce some data marshaling times by 14%";
//! * §3.2 memcpy: "can reduce character string processing times by
//!   60-70%" (measured on dirent names) and is the integer-array win;
//! * §3.3 inlining: "stubs with inlined code can process complex data
//!   up to 60% faster".
//!
//! Usage: `cargo run --release -p flick-bench --bin ablation_report`
//!
//! `--smoke` shrinks every workload so the report finishes in seconds
//! even in a debug build — CI runs it as a does-it-still-measure check;
//! the percentages it prints are not meaningful at those sizes.

use flick_bench::data;
use flick_bench::endtoend::time_one;
use flick_bench::generated::{
    iiop_bench, iiop_nomemcpy, iiop_noprefix, onc_bench, onc_noalias, onc_nochunk, onc_nodeadslot,
    onc_nohoist, onc_noinline, onc_noopt,
};
use flick_runtime::MarshalBuf;

fn report(name: &str, claim: &str, on: std::time::Duration, off: std::time::Duration) {
    let gain = 100.0 * (off.as_secs_f64() - on.as_secs_f64()) / off.as_secs_f64();
    println!(
        "{name:<22} on {:>9.1?}  off {:>9.1?}  improvement {gain:>5.1}%   (paper: {claim})",
        on, off
    );
}

macro_rules! time_encode {
    ($m:ident :: $f:ident, $data:expr) => {{
        let vals = $data;
        let mut buf = MarshalBuf::new();
        time_one(|| {
            buf.clear();
            $m::$f(&mut buf, &vals);
            std::hint::black_box(buf.len());
        })
    }};
}

/// §3.1 is about reserving the whole message's space up front instead
/// of discovering it piecewise.  With a warm, reused buffer the effect
/// vanishes (capacity is already there), so this ablation measures the
/// cold-buffer path: a fresh buffer per message, as a stub's first
/// invocation (or a non-reusing runtime) would see.
fn measure_cold_rects(hoisted: bool, count: usize) -> std::time::Duration {
    // Rect arrays have fixed-size elements, so the hoisted form
    // reserves the entire message in one step before the loop (the
    // §3.1 "work backward from nodes with known requirements"); the
    // unhoisted form discovers the size through ~17 buffer growths.
    let on_data = data::onc::rects(count);
    let off_data = data::onc_nohoist::rects(count);
    time_one(|| {
        let mut buf = MarshalBuf::new();
        if hoisted {
            onc_bench::encode_send_rects_request(&mut buf, &on_data);
        } else {
            onc_nohoist::encode_send_rects_request(&mut buf, &off_data);
        }
        std::hint::black_box(buf.len());
    })
}

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    // Workload size: the paper-scale count normally, a tiny one under
    // `--smoke` (fast even unoptimized, but still through every path).
    let n = |full: usize| if smoke { full.div_ceil(128) } else { full };

    println!("Ablations — each §3 optimization toggled in the generated stubs");
    if smoke {
        println!("(--smoke: shrunk workloads; percentages are not meaningful)");
    }
    println!();

    // §3.1 check hoisting: large message of complex structures,
    // cold-buffer path (see measure_cold_dirents).
    // The unhoisted variant checks free space before every atomic
    // datum — the paper's description of traditional stubs; the
    // hoisted one covers whole regions with single checks.
    let on = time_encode!(
        onc_bench::encode_send_dirents_request,
        data::onc::dirents(n(2048))
    );
    let off = time_encode!(
        onc_nohoist::encode_send_dirents_request,
        data::onc_nohoist::dirents(n(2048))
    );
    report(
        "buffer mgmt (§3.1)",
        "up to 12% on large complex messages",
        on,
        off,
    );

    // §3.2 chunking: rect structures (fixed-layout regions).
    let on = time_encode!(
        onc_bench::encode_send_rects_request,
        data::onc::rects(n(4096))
    );
    let off = time_encode!(
        onc_nochunk::encode_send_rects_request,
        data::onc_nochunk::rects(n(4096))
    );
    report("chunking (§3.2)", "up to 14% on fixed-layout data", on, off);

    // §3.2 memcpy: integer arrays under the native-order encoding.
    let on = time_encode!(
        iiop_bench::encode_send_ints_request,
        data::iiop::ints(n(262_144))
    );
    let off = time_encode!(
        iiop_nomemcpy::encode_send_ints_request,
        data::iiop_nomemcpy::ints(n(262_144))
    );
    report(
        "memcpy ints (§3.2)",
        "the large-array win of Figure 3",
        on,
        off,
    );

    // §3.2 memcpy on character data: dirent names (strings).
    let on = time_encode!(
        iiop_bench::encode_send_dirents_request,
        data::iiop::dirents(n(1024))
    );
    let off = time_encode!(
        iiop_nomemcpy::encode_send_dirents_request,
        data::iiop_nomemcpy::dirents(n(1024))
    );
    report(
        "memcpy strings (§3.2)",
        "60-70% of string processing time",
        on,
        off,
    );

    // §3.3 inlining: complex data through out-of-line per-type calls.
    let on = time_encode!(
        onc_bench::encode_send_dirents_request,
        data::onc::dirents(n(1024))
    );
    let off = time_encode!(
        onc_noinline::encode_send_dirents_request,
        data::onc_noinline::dirents(n(1024))
    );
    report("inlining (§3.3)", "up to 60% on complex data", on, off);

    // §3.1 parameter management: the server work function receives
    // dirent names as borrows of the receive buffer (in-buffer
    // presentation) vs owned copies.  Measured through the dispatch
    // path, which is where the presentation decision lives.
    {
        use flick_bench::endtoend::time_one;
        use flick_bench::generated::{mail_onc, mail_onc_noparam};
        let text: String = std::iter::repeat_n('m', n(1024)).collect();
        let mut req = MarshalBuf::new();
        mail_onc::encode_send_request(&mut req, &text);
        let body = req.as_slice().to_vec();
        struct Borrowing(usize);
        impl mail_onc::Server for Borrowing {
            fn send(&mut self, msg: &str) {
                self.0 += msg.len();
            }
        }
        struct Owning(usize);
        impl mail_onc_noparam::Server for Owning {
            fn send(&mut self, msg: String) {
                self.0 += msg.len();
            }
        }
        let mut reply = MarshalBuf::new();
        let mut b = Borrowing(0);
        let on = time_one(|| {
            reply.clear();
            mail_onc::dispatch(1, &body, &mut reply, &mut b).expect("dispatch");
        });
        let mut o = Owning(0);
        let off = time_one(|| {
            reply.clear();
            mail_onc_noparam::dispatch(1, &body, &mut reply, &mut o).expect("dispatch");
        });
        report(
            "param mgmt (§3.1)",
            "up to 14% less unmarshal time",
            on,
            off,
        );
    }

    // Cold-buffer variant of §3.1: fresh buffer per message, where the
    // single up-front reservation also saves the growth reallocations.
    let on = measure_cold_rects(true, n(65_536));
    let off = measure_cold_rects(false, n(65_536));
    report("buffer mgmt (cold)", "first-invocation path", on, off);

    // ---- this repo's three extension passes, one row each ----

    // dead-slot: the suppressed `_pad` parameter vanishes from the
    // wire, so the echo_stat request is smaller and its encode skips
    // the zero-fill entirely.
    {
        let mut lean = MarshalBuf::new();
        onc_bench::encode_echo_stat_request(&mut lean, &data::onc::stat());
        let mut fat = MarshalBuf::new();
        onc_nodeadslot::encode_echo_stat_request(&mut fat, &data::onc_nodeadslot::stat());
        println!(
            "dead-slot              request {}B -> {}B ({} wire bytes saved per echo_stat)",
            fat.len(),
            lean.len(),
            fat.len() - lean.len()
        );
        let on = time_encode!(onc_bench::encode_echo_stat_request, data::onc::stat());
        let off = time_encode!(
            onc_nodeadslot::encode_echo_stat_request,
            data::onc_nodeadslot::stat()
        );
        report(
            "dead-slot (encode)",
            "no marshal work for unpresented slots",
            on,
            off,
        );
    }

    // merge-prefix: the shared leading count across the `send_*` demux
    // arms is decoded once above the word switch of the GIOP module's
    // dispatcher.  The win is static — fewer decode sites in the
    // generated dispatch — plus a shorter per-dispatch instruction
    // path.
    {
        let merged = include_str!("../generated/iiop_bench.rs");
        let plain = include_str!("../generated/iiop_noprefix.rs");
        // A count read, in the host's byte order.
        let count = |s: &str| s.matches("()? as usize").count();
        println!(
            "merge-prefix           {} length-decode sites -> {} in the generated module",
            count(plain),
            count(merged)
        );
        struct Null;
        impl iiop_bench::Server for Null {
            fn send_ints(&mut self, v: Vec<i32>) {
                std::hint::black_box(v.len());
            }
            fn send_rects(&mut self, _v: Vec<iiop_bench::Rect>) {}
            fn send_dirents(&mut self, _v: Vec<iiop_bench::Dirent>) {}
            fn echo_stat(&mut self, s: iiop_bench::Stat) -> iiop_bench::Stat {
                s
            }
        }
        struct Null2;
        impl iiop_noprefix::Server for Null2 {
            fn send_ints(&mut self, v: Vec<i32>) {
                std::hint::black_box(v.len());
            }
            fn send_rects(&mut self, _v: Vec<iiop_noprefix::Rect>) {}
            fn send_dirents(&mut self, _v: Vec<iiop_noprefix::Dirent>) {}
            fn echo_stat(&mut self, s: iiop_noprefix::Stat) -> iiop_noprefix::Stat {
                s
            }
        }
        let mut buf = MarshalBuf::new();
        iiop_bench::encode_send_ints_request(&mut buf, &data::iiop::ints(n(256)));
        let body = buf.as_slice().to_vec();
        let mut reply = MarshalBuf::new();
        let mut srv = Null;
        let on = time_one(|| {
            reply.clear();
            iiop_bench::dispatch_by_name(b"send_ints", &body, &mut reply, &mut srv)
                .expect("dispatch");
        });
        let mut srv = Null2;
        let off = time_one(|| {
            reply.clear();
            iiop_noprefix::dispatch_by_name(b"send_ints", &body, &mut reply, &mut srv)
                .expect("dispatch");
        });
        report("merge-prefix (demux)", "one shared count decode", on, off);
    }

    // reply-alias: an identity echo's reply is one block copy of the
    // live request bytes instead of a 30-integer re-marshal loop.
    // The copy-on-write `Echoed` contract has the server *declare*
    // whether it mutated the echoed value, so the block-copy path no
    // longer pays the equality guard (a snapshot clone plus a compare
    // per call) that used to cancel the structural win in-cache — the
    // wall-clock row now measures the copy reduction directly.
    {
        let merged = include_str!("../generated/onc_bench.rs");
        let plain = include_str!("../generated/onc_noalias.rs");
        fn arm(s: &str) -> &str {
            // The proc-4 (echo_stat) dispatch arm only.
            let a = s.find("4u32 => {").expect("echo_stat arm");
            let z = s[a..].find("\n        }").expect("arm end");
            &s[a..a + z]
        }
        // 30 loop iterations of the one put_u32_be_at site, plus the
        // tag memcpy: the stores the unaliased reply always executes.
        let stores =
            |s: &str| s.matches("put_u32_be_at").count() * 30 + s.matches("put_bytes_at").count();
        let (on_arm, off_arm) = (arm(merged), arm(plain));
        assert_eq!(
            on_arm.matches("reply-alias: reuse request bytes").count(),
            1,
            "aliased module lost its block-copy path"
        );
        println!(
            "reply-alias            identity reply: {} marshal stores -> 1 block copy \
             (136 request bytes reused)",
            stores(off_arm),
        );
        struct Id;
        impl onc_bench::Server for Id {
            fn send_ints(&mut self, _v: Vec<i32>) {}
            fn send_rects(&mut self, _v: Vec<onc_bench::Rect>) {}
            fn send_dirents(&mut self, _v: Vec<onc_bench::Dirent>) {}
            fn echo_stat(&mut self, _s: onc_bench::Stat) -> flick_runtime::Echoed<onc_bench::Stat> {
                flick_runtime::Echoed::Unchanged
            }
        }
        struct Id2;
        impl onc_noalias::Server for Id2 {
            fn send_ints(&mut self, _v: Vec<i32>) {}
            fn send_rects(&mut self, _v: Vec<onc_noalias::Rect>) {}
            fn send_dirents(&mut self, _v: Vec<onc_noalias::Dirent>) {}
            fn echo_stat(&mut self, s: onc_noalias::Stat) -> onc_noalias::Stat {
                s
            }
        }
        let mut req = MarshalBuf::new();
        onc_bench::encode_echo_stat_request(&mut req, &data::onc::stat());
        let body = req.as_slice().to_vec();
        let mut req2 = MarshalBuf::new();
        onc_noalias::encode_echo_stat_request(&mut req2, &data::onc_noalias::stat());
        let body2 = req2.as_slice().to_vec();
        let mut reply = MarshalBuf::new();
        let mut srv = Id;
        let on = time_one(|| {
            reply.clear();
            onc_bench::dispatch(4, &body, &mut reply, &mut srv).expect("dispatch");
        });
        let mut srv = Id2;
        let off = time_one(|| {
            reply.clear();
            onc_noalias::dispatch(4, &body2, &mut reply, &mut srv).expect("dispatch");
        });
        report(
            "reply-alias (echo)",
            "one block copy; no guard, no snapshot",
            on,
            off,
        );
    }

    // reuse-slots + pooling: steady-state encode with a pooled buffer
    // checkout per call vs a fresh heap allocation per call.  The
    // pooled path is what the generated client stubs run; after warmup
    // the checkout hands back the already-grown buffer and the per-call
    // allocator traffic drops to zero (asserted by tests/zero_alloc.rs).
    {
        let vals = data::onc::rects(n(512));
        // Warm the pool so the measured loop sees only hits.
        drop(flick_runtime::pool::checkout_with(64 * 1024));
        let pooled = time_one(|| {
            let mut buf = flick_runtime::pool::checkout();
            onc_bench::encode_send_rects_request(&mut buf, &vals);
            std::hint::black_box(buf.len());
        });
        let per_call = time_one(|| {
            let mut buf = MarshalBuf::new();
            onc_bench::encode_send_rects_request(&mut buf, &vals);
            std::hint::black_box(buf.len());
        });
        report(
            "buffer pool (reuse)",
            "zero per-call allocations after warmup",
            pooled,
            per_call,
        );
    }

    // fuse-transcode: the gateway's encoding-pair rewrites.  Fused,
    // tiling runs cross behind one check as a copy or a swap-copy and
    // strings re-prefix as borrows; ablated, every slot is read,
    // materialized (strings are
    // heap-allocated), and re-written.  Measured on the request leg of
    // the generated XDR→CDR `send_dirents` rewrite.
    {
        use flick_bench::generated::transcode_bench;
        let mut req = MarshalBuf::new();
        onc_bench::encode_send_dirents_request(&mut req, &data::onc::dirents(n(1024)));
        let body = req.as_slice().to_vec();
        let mut dst = MarshalBuf::new();
        let on = time_one(|| {
            dst.clear();
            transcode_bench::transcode_send_dirents_request(&body, &mut dst).expect("transcodes");
            std::hint::black_box(dst.len());
        });
        let off = time_one(|| {
            dst.clear();
            transcode_bench::transcode_send_dirents_request_naive(&body, &mut dst)
                .expect("transcodes");
            std::hint::black_box(dst.len());
        });
        report(
            "fuse-transcode (gw)",
            "one copy or swap-copy per encoding-pair run",
            on,
            off,
        );
    }

    // Everything together vs everything off.
    let on = time_encode!(
        onc_bench::encode_send_dirents_request,
        data::onc::dirents(n(1024))
    );
    let off = time_encode!(
        onc_noopt::encode_send_dirents_request,
        data::onc_noopt::dirents(n(1024))
    );
    report("all optimizations", "the combined Figure 3 gap", on, off);
}
