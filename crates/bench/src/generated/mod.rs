//! Stub modules generated by the Flick compiler.
//!
//! Every file in this directory is compiler output, checked in so the
//! benchmarks build without a generation step and kept honest by the
//! `generated_in_sync` integration test.  Regenerate with:
//!
//! ```text
//! cargo run -p flick-bench --bin regen_stubs
//! ```

/// `Bench` interface, rpcgen presentation, ONC/XDR over TCP.
#[rustfmt::skip]
pub mod onc_bench;

/// `Bench` interface, CORBA presentation, IIOP/CDR (native order).
#[rustfmt::skip]
pub mod iiop_bench;

/// `Bench` interface, CORBA presentation, Mach 3 typed messages.
#[rustfmt::skip]
pub mod mach_bench;

/// `Bench` interface, Fluke presentation, Fluke IPC encoding.
#[rustfmt::skip]
pub mod fluke_bench;

/// `Mail` interface (paper §1), ONC front end, rpcgen presentation.
#[rustfmt::skip]
pub mod mail_onc;

/// `Mail` interface (paper §1), CORBA front end, IIOP back end.
#[rustfmt::skip]
pub mod mail_iiop;

/// `Varied` coverage interface (unions, enums, bounded types, fixed
/// arrays, all parameter directions), ONC/XDR.
#[rustfmt::skip]
pub mod varied_onc;

/// `Varied` coverage interface, IIOP/CDR.
#[rustfmt::skip]
pub mod varied_iiop;

/// `ListProg` — XDR's recursive linked list through optional data;
/// marshaling is out-of-line (forced by the recursion).
#[rustfmt::skip]
pub mod list_onc;

/// `Bench` transcoding gateway: fused XDR→CDR(native) rewrites plus
/// their slot-by-slot (`fuse-transcode` ablated) twins, driven by the
/// `flick-bridge` binary, the hostile-proxy tests, and the `transcode`
/// ablation row.
#[rustfmt::skip]
pub mod transcode_bench;

/// `Varied` transcoding gateway (XDR→CDR(native)): the executable
/// coverage of unions, enums, floats, widened shorts and nested fixed
/// arrays crossing the gateway, held to the endpoint stubs' bytes.
#[rustfmt::skip]
pub mod transcode_varied;

/// `Varied` transcoding gateway facing the other way (CDR(native)→XDR,
/// the swapped pair): takes the IIOP stubs' bytes back to XDR.
#[rustfmt::skip]
pub mod transcode_varied_rev;

// ---- ablation variants: one §3 optimization disabled each ----

/// `Bench`, ONC/XDR, **all optimizations off** (traditional shape).
#[rustfmt::skip]
pub mod onc_noopt;

/// `Bench`, ONC/XDR, buffer-check hoisting off (§3.1).
#[rustfmt::skip]
pub mod onc_nohoist;

/// `Bench`, ONC/XDR, chunking off (§3.2).
#[rustfmt::skip]
pub mod onc_nochunk;

/// `Bench`, ONC/XDR, marshal inlining off (§3.3; chunking off too,
/// since out-of-line per-type functions preclude cross-field chunks).
#[rustfmt::skip]
pub mod onc_noinline;

/// `Mail`, ONC/XDR, in-buffer parameter presentation off (§3.1).
#[rustfmt::skip]
pub mod mail_onc_noparam;

/// `Bench`, IIOP/CDR, `memcpy` runs off (§3.2).
#[rustfmt::skip]
pub mod iiop_nomemcpy;

/// `Bench`, ONC/XDR, dead-slot elimination off: suppressed wire slots
/// are zero-filled on encode and decoded-and-discarded on dispatch.
#[rustfmt::skip]
pub mod onc_nodeadslot;

/// `Bench`, IIOP/CDR, common-prefix merging off: every word-switch
/// arm re-decodes its own leading count.
#[rustfmt::skip]
pub mod iiop_noprefix;

/// `Bench`, ONC/XDR, reply copy-avoidance off: `echo_stat` re-marshals
/// the reply even when it is byte-identical to the request.
#[rustfmt::skip]
pub mod onc_noalias;
