//! Flick's optimizing back ends: PRES-C → stub implementations
//! (paper §2.3 and §3).
//!
//! A back end is specific to a message encoding and transport but
//! independent of the IDL and presentation rules that produced its
//! input.  All back ends here share one large optimization library —
//! exactly the structure the paper's Table 1 reports — organized as:
//!
//! * [`encoding`] — wire-format descriptions (XDR, CDR big/little
//!   endian, Mach 3 typed, Fluke IPC): primitive sizes, alignment,
//!   byte order, count prefixes, string conventions;
//! * [`layout`] — §3.1 storage classification: every message region is
//!   *fixed*, *variable but bounded*, or *unbounded*;
//! * [`mir`] — the marshal MIR, the IR on which the optimizations run;
//! * [`plan`] — PRES-C → naive MIR lowering, one stub at a time;
//! * [`passes`] — the §3 optimizations as one table of named
//!   [`MirPass`]es, the [`PassSet`] that says which of them run (what
//!   the ablation benchmarks flip to reproduce the paper's §3 claims),
//!   and the one planner that runs them ([`passes::plan_module`]):
//!   buffer-check hoisting, chunk formation, `memcpy` run coalescing,
//!   marshal-code inlining, and the word-wise discriminator switches
//!   of §3.3;
//! * [`cache`] — the in-memory per-stub plan cache a compile session
//!   hands the planner;
//! * [`verify`] — the MIR verifier run between passes in debug/test
//!   builds;
//! * [`emit_c`] — MIR → CAST → C source (the paper's actual output);
//! * [`emit_rust`] — MIR → Rust source against `flick-runtime`,
//!   which the benchmark harness compiles and *executes*.
//!
//! The entry point is [`BackEnd::compile`].

// The emitters and the printer write through (DESIGN "How the emitters
// write"): a `String` formatted only to be appended is refused.
#![deny(clippy::format_push_string)]

pub mod c_header;
pub mod cache;
pub mod emit_c;
pub mod emit_rust;
pub mod emit_transcode;
pub mod encoding;
pub mod layout;
pub mod mir;
pub mod passes;
pub mod plan;
pub mod transcode;
pub mod verify;
mod writer;

pub use c_header::C_RUNTIME_HEADER;
pub use cache::{CacheStats, PlanCache, StubKey};
pub use encoding::{Encoding, WirePrim};
pub use mir::{PlanStats, StubPlans};
pub use passes::{MirDump, MirPass, PassSet, PassSpan, PASS_NAMES};
pub use transcode::{TranscodePlan, TranscodePlans, XcOp, XcPart, XcStats};

use flick_pres::PresC;

/// Lowers `presc` into an encoding-pair rewrite (`src` → `dst`) and
/// emits the generated transcoder module — the `--transcode=SRC:DST`
/// path — beside the plan's fusion statistics.  `fused` mirrors the
/// `fuse-transcode` pass toggle; when off, the primary rewrites are the
/// naive slot-wise ones.
///
/// # Errors
/// Returns a message when an encoding or presentation construct cannot
/// be transcoded (typed-descriptor encodings, non-atomic scalars).
pub fn compile_transcode(
    presc: &PresC,
    src: &Encoding,
    dst: &Encoding,
    fused: bool,
) -> Result<(String, XcStats), String> {
    let plans = transcode::plan(presc, src, dst, fused)?;
    Ok((emit_transcode::emit(&plans), plans.stats))
}

/// Which transport family a back end serves (paper: CORBA IIOP/TCP,
/// ONC/XDR over TCP or UDP, Mach 3 typed messages, Fluke kernel IPC).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// CORBA IIOP over TCP.
    IiopTcp,
    /// ONC RPC over TCP (record-marked).
    OncTcp,
    /// ONC RPC over UDP (datagrams).
    OncUdp,
    /// Mach 3 IPC between ports.
    Mach3,
    /// Fluke kernel IPC (register window).
    Fluke,
}

impl Transport {
    /// The natural encoding for this transport.
    #[must_use]
    pub fn default_encoding(self) -> Encoding {
        match self {
            Transport::IiopTcp => Encoding::cdr_native(),
            Transport::OncTcp | Transport::OncUdp => Encoding::xdr(),
            Transport::Mach3 => Encoding::mach3(),
            Transport::Fluke => Encoding::fluke(),
        }
    }

    /// Stable name used in generated-code banners and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Transport::IiopTcp => "iiop-tcp",
            Transport::OncTcp => "onc-tcp",
            Transport::OncUdp => "onc-udp",
            Transport::Mach3 => "mach3",
            Transport::Fluke => "fluke",
        }
    }
}

/// Which backend step failed — the finer-grained phase that
/// `CompileError` reports (`backend.plan`, `backend.emit-c`, …).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendStep {
    /// Lowering + the MIR pass pipeline.
    Plan,
    /// MIR → CAST.
    EmitC,
    /// CAST → C source text.
    PrintC,
    /// MIR → Rust source.
    EmitRust,
}

impl BackendStep {
    /// The span/phase name of this step.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BackendStep::Plan => "backend.plan",
            BackendStep::EmitC => "backend.emit-c",
            BackendStep::PrintC => "backend.print-c",
            BackendStep::EmitRust => "backend.emit-rust",
        }
    }
}

/// A backend failure, tagged with the step that raised it.
#[derive(Clone, Debug)]
pub struct BackendError {
    /// The failing step.
    pub step: BackendStep,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for BackendError {}

/// A configured back end: encoding + transport + the passes to run.
#[derive(Clone, Debug)]
pub struct BackEnd {
    /// Transport the stubs will speak.
    pub transport: Transport,
    /// Wire encoding (usually `transport.default_encoding()`).
    pub encoding: Encoding,
    /// The passes planning runs (`flickc --no-opt`, `--disable-pass`).
    pub passes: PassSet,
    /// Run the MIR verifier between passes.  Defaults on in debug
    /// builds; stub regeneration turns it on explicitly.
    pub verify_mir: bool,
    /// Dump the MIR (after a named pass, or final) into
    /// [`BackendTrace::mir_dump`].
    pub dump_mir: Option<MirDump>,
}

impl BackEnd {
    /// A back end for `transport` with its natural encoding and all
    /// optimizations enabled.
    #[must_use]
    pub fn new(transport: Transport) -> Self {
        BackEnd {
            transport,
            encoding: transport.default_encoding(),
            passes: PassSet::all(),
            verify_mir: cfg!(debug_assertions),
            dump_mir: None,
        }
    }

    /// Compiles a presentation into stub implementations.
    ///
    /// # Errors
    /// Returns a message when the presentation uses a construct this
    /// back end cannot lower (see `emit_rust` for the Rust subset).
    pub fn compile(&self, presc: &PresC) -> Result<Compiled, String> {
        self.compile_traced(presc)
            .map(|(c, _)| c)
            .map_err(|e| e.message)
    }

    /// Like [`BackEnd::compile`], but also reports per-step and
    /// per-pass wall times and the optimizer's decision counts.
    ///
    /// # Errors
    /// Same as [`BackEnd::compile`], tagged with the failing step.
    pub fn compile_traced(&self, presc: &PresC) -> Result<(Compiled, BackendTrace), BackendError> {
        self.compile_traced_with(presc, None)
    }

    /// Like [`BackEnd::compile_traced`], optionally planning through a
    /// [`PlanCache`]: stubs whose content key is cached are restored
    /// instead of replanned.
    ///
    /// # Errors
    /// Same as [`BackEnd::compile`], tagged with the failing step.
    pub fn compile_traced_with(
        &self,
        presc: &PresC,
        cache: Option<&mut PlanCache>,
    ) -> Result<(Compiled, BackendTrace), BackendError> {
        let plan_err = |message: String| BackendError {
            step: BackendStep::Plan,
            message,
        };

        let plan = |stop_after, cache| {
            passes::plan_module(
                presc,
                &self.encoding,
                self.passes,
                self.verify_mir,
                stop_after,
                cache,
            )
            .map_err(plan_err)
        };
        let t = std::time::Instant::now();
        // A dump after a named pass comes from a planning run of its
        // own, stopped there; the final dump renders the plan the
        // emitters consume.
        let stopped_dump = match &self.dump_mir {
            Some(MirDump { after: Some(pass) }) => Some(mir::dump(&plan(Some(pass), None)?.mir)),
            _ => None,
        };
        let planned = plan(None, cache)?;
        let mir_dump =
            stopped_dump.or_else(|| self.dump_mir.as_ref().map(|_| mir::dump(&planned.mir)));
        let stats = plan::PlanStats::of(&planned.mir);
        let plan_ns = step_ns(t);

        let t = std::time::Instant::now();
        let c_unit = emit_c::emit(presc, &planned.mir, self);
        let emit_c_ns = step_ns(t);

        let t = std::time::Instant::now();
        let c_source = flick_cast::Printer::new().unit(&c_unit);
        let print_c_ns = step_ns(t);

        let t = std::time::Instant::now();
        let rust_source =
            emit_rust::emit(presc, &planned.mir, self).map_err(|message| BackendError {
                step: BackendStep::EmitRust,
                message,
            })?;
        let emit_rust_ns = step_ns(t);

        Ok((
            Compiled {
                c_unit,
                c_source,
                rust_source,
                plans: planned.mir,
            },
            BackendTrace {
                plan_ns,
                emit_c_ns,
                print_c_ns,
                emit_rust_ns,
                stats,
                passes: planned.passes,
                mir_dump,
                cache: planned.cache,
            },
        ))
    }
}

fn step_ns(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Per-step wall times and optimizer decision counts from one
/// [`BackEnd::compile_traced`] run.
#[derive(Clone, Debug, Default)]
pub struct BackendTrace {
    /// Time planning (PRES-C → MIR, including all passes).
    pub plan_ns: u64,
    /// Time lowering plans to CAST.
    pub emit_c_ns: u64,
    /// Time pretty-printing the CAST to C source.
    pub print_c_ns: u64,
    /// Time emitting Rust stub source.
    pub emit_rust_ns: u64,
    /// What the optimizer decided.
    pub stats: plan::PlanStats,
    /// Per-pass breakdown of `plan_ns` (lowering first, then each
    /// scheduled MIR pass in order; zeros for work the cache spared).
    pub passes: Vec<PassSpan>,
    /// The `--dump-mir` rendering, if one was requested.
    pub mir_dump: Option<String>,
    /// What the plan cache did during this compile, when one was in
    /// use.
    pub cache: Option<CacheStats>,
}

/// The artifacts a back end produces for one presentation.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The generated C declarations and stub definitions.
    pub c_unit: flick_cast::CUnit,
    /// Pretty-printed C source.
    pub c_source: String,
    /// Rust stub source against `flick-runtime`.
    pub rust_source: String,
    /// The optimized MIR (exposed for tests and the code-size
    /// accounting of Table 2).
    pub plans: StubPlans,
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_idl::diag::Diagnostics;
    use flick_pres::Side;

    const IDL: &str = r"
        struct Point { long x; long y; };
        struct Rect { Point min; Point max; };
        typedef sequence<Rect> RectSeq;
        interface I { void put(in RectSeq rs); long get(in string k); };
    ";

    fn presc() -> PresC {
        let aoi = flick_frontend_corba::parse_str("t.idl", IDL);
        let mut d = Diagnostics::new();
        flick_presgen::corba_c(&aoi, "I", Side::Client, &mut d).expect("presentation")
    }

    #[test]
    fn cached_compiles_are_byte_identical_to_uncached() {
        let p = presc();
        let be = BackEnd::new(Transport::IiopTcp);
        let (cold, _) = be.compile_traced(&p).expect("uncached");
        let mut cache = PlanCache::new();
        let (first, t1) = be
            .compile_traced_with(&p, Some(&mut cache))
            .expect("cold cached");
        let (warm, t2) = be
            .compile_traced_with(&p, Some(&mut cache))
            .expect("warm cached");
        assert_eq!(cold.c_source, first.c_source);
        assert_eq!(cold.rust_source, first.rust_source);
        assert_eq!(
            first.c_source, warm.c_source,
            "warm recompile must be byte-identical"
        );
        assert_eq!(first.rust_source, warm.rust_source);
        let r1 = t1.cache.expect("cold report");
        assert_eq!((r1.hits, r1.misses), (0, 2));
        let r2 = t2.cache.expect("warm report");
        assert_eq!((r2.hits, r2.misses), (2, 0));
        // The span shape stays the same as an uncached run, so the
        // telemetry pipeline sees a uniform pass list.
        let warm_names: Vec<_> = t2.passes.iter().map(|s| s.name).collect();
        let mut expect = vec!["lower"];
        expect.extend(PASS_NAMES);
        assert_eq!(warm_names, expect);
        let lower = &t2.passes[0];
        assert_eq!((lower.ns, lower.decisions), (0, 0), "nothing replanned");
    }

    #[test]
    fn changing_the_pipeline_invalidates_every_stub() {
        let p = presc();
        let be = BackEnd::new(Transport::IiopTcp);
        let mut cache = PlanCache::new();
        be.compile_traced_with(&p, Some(&mut cache)).expect("cold");
        let mut other = BackEnd::new(Transport::IiopTcp);
        other.passes = other.passes.without("hoist-checks").expect("removable");
        let (_, t) = other
            .compile_traced_with(&p, Some(&mut cache))
            .expect("reconfigured");
        let r = t.cache.expect("report");
        assert_eq!((r.hits, r.misses), (0, 2));
    }
}
