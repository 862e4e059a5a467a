//! Flick — a flexible, optimizing IDL compiler (Rust reproduction).
//!
//! This crate is the kit's front door: it wires together the three
//! compilation phases the paper describes — front ends (CORBA IDL,
//! ONC RPC, MIG), presentation generators (CORBA C, `rpcgen` C,
//! Fluke), and optimizing back ends (IIOP/TCP, ONC/XDR over TCP or
//! UDP, Mach 3, Fluke IPC) — and lets a caller *mix and match* them at
//! compile time:
//!
//! ```
//! use flick::{Compiler, Frontend, Transport};
//! use flick_presgen::Style;
//! use flick_pres::Side;
//!
//! let out = Compiler::new(Frontend::Corba, Style::CorbaC, Transport::IiopTcp)
//!     .compile_source(
//!         "mail.idl",
//!         "interface Mail { void send(in string msg); };",
//!         "Mail",
//!         Side::Client,
//!     )
//!     .expect("compiles");
//! assert!(out.c_source.contains("void Mail_send(Mail obj, char *msg"));
//! assert!(out.rust_source.contains("pub fn encode_send_request"));
//! ```
//!
//! Any front end can feed any presentation generator, and any
//! presentation can feed any back end — fifteen configurations from
//! three + three + five components, which is the paper's whole point.

pub mod session;

pub use flick_backend::{
    BackEnd, BackendStep, CacheStats, Compiled, MirDump, PassSet, PlanCache, Transport, PASS_NAMES,
};
pub use flick_presgen::Style;
pub use session::CompileSession;

use flick_idl::diag::Diagnostics;
use flick_idl::source::SourceFile;
use flick_pres::{PresC, Side};

/// The available front ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Frontend {
    /// CORBA 2.0 IDL.
    Corba,
    /// ONC RPC (`rpcgen` `.x`) definitions.
    Onc,
    /// MIG subsystem definitions (conjoined with the MIG presentation
    /// generator; the `Style` argument is ignored for this front end,
    /// exactly as in the paper's architecture).
    Mig,
}

impl Frontend {
    /// Stable name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Frontend::Corba => "corba",
            Frontend::Onc => "onc",
            Frontend::Mig => "mig",
        }
    }
}

/// Everything a compilation produces.
#[derive(Clone, Debug)]
pub struct CompileOutput {
    /// The intermediate presentation (PRES-C).
    pub presc: PresC,
    /// Generated C stub source.
    pub c_source: String,
    /// Generated Rust stub source (executed by the benchmarks).
    pub rust_source: String,
    /// Pass-level timings and optimizer decision counts.
    pub report: CompileReport,
    /// The MIR rendering requested via `BackEnd::dump_mir`
    /// (`flickc --dump-mir`), if any.
    pub mir_dump: Option<String>,
}

/// Which pipeline phase a compilation failed in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Front-end parsing (IDL → AOI, or MIG → PRES-C directly).
    Parse,
    /// Presentation generation (AOI → PRES-C).
    Presgen,
    /// Back end, tagged with the failing sub-phase (`backend.plan`,
    /// `backend.emit-c`, `backend.print-c`, `backend.emit-rust`).
    Backend(BackendStep),
}

impl Phase {
    /// Stable name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Presgen => "presgen",
            Phase::Backend(step) => step.name(),
        }
    }
}

/// A compilation failure, with rendered diagnostics and structured
/// counts.
#[derive(Clone, Debug)]
pub struct CompileError {
    /// Human-readable report (already includes source excerpts).
    pub report: String,
    /// The phase that failed.
    pub phase: Phase,
    /// Number of error diagnostics.
    pub errors: usize,
    /// Number of warning diagnostics.
    pub warnings: usize,
}

impl CompileError {
    fn from_diags(phase: Phase, diags: &Diagnostics, file: &SourceFile) -> Self {
        let errors = diags.error_count();
        CompileError {
            report: diags.render_all(file),
            phase,
            errors: errors.max(1),
            warnings: diags.len() - errors,
        }
    }
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.report)
    }
}

impl std::error::Error for CompileError {}

/// Pass-level timings and optimizer decision counts for one
/// successful compile, for `flickc --timings` / `--stats`.
#[derive(Clone, Debug)]
pub struct CompileReport {
    /// Front-end name.
    pub frontend: &'static str,
    /// Presentation style name (as recorded in the PRES-C).
    pub style: String,
    /// Transport name.
    pub transport: &'static str,
    /// Spans (`parse`, `presgen`, `backend.plan`, `backend.emit-c`,
    /// `backend.print-c`, `backend.emit-rust`) plus decision counters.
    pub trace: flick_telemetry::TraceReport,
    /// What the session's plan cache did during this compile (`None`
    /// for a one-shot [`Compiler::compile_source`], which has none).
    pub cache: Option<CacheStats>,
}

impl CompileReport {
    /// The trace as text, prefixed with the pipeline configuration.
    #[must_use]
    pub fn to_text(&self) -> String {
        format!(
            "pipeline: {} -> {} -> {}\n{}",
            self.frontend,
            self.style,
            self.transport,
            self.trace.to_text()
        )
    }

    /// The report as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = flick_telemetry::json::ObjectWriter::new();
        o.str_field("frontend", self.frontend)
            .str_field("style", &self.style)
            .str_field("transport", self.transport)
            .raw("trace", &self.trace.to_json());
        o.finish()
    }
}

/// A configured compiler: one front end, one presentation style, one
/// back end.
#[derive(Clone, Debug)]
pub struct Compiler {
    /// Selected front end.
    pub frontend: Frontend,
    /// Selected presentation style (ignored by the MIG front end).
    pub style: Style,
    /// Selected back end.
    pub backend: BackEnd,
}

impl Compiler {
    /// A compiler for the given components with default optimization.
    #[must_use]
    pub fn new(frontend: Frontend, style: Style, transport: Transport) -> Self {
        Compiler {
            frontend,
            style,
            backend: BackEnd::new(transport),
        }
    }

    /// Replaces the set of passes the back end runs (used by ablations).
    #[must_use]
    pub fn with_opts(mut self, passes: PassSet) -> Self {
        self.backend.passes = passes;
        self
    }

    /// Runs all three phases on IDL source text.
    ///
    /// `iface` selects the interface (CORBA scoped name, ONC program
    /// name, or MIG subsystem name) and `side` the presentation side.
    ///
    /// A one-shot compile plans with no cache; a [`CompileSession`]
    /// runs the same path with one.
    ///
    /// # Errors
    /// Returns rendered diagnostics if any phase fails.
    pub fn compile_source(
        &self,
        file_name: &str,
        text: &str,
        iface: &str,
        side: Side,
    ) -> Result<CompileOutput, CompileError> {
        self.compile_with(file_name, text, iface, side, None)
    }

    /// The full pipeline, planning through `cache` when one is given.
    pub(crate) fn compile_with(
        &self,
        file_name: &str,
        text: &str,
        iface: &str,
        side: Side,
        cache: Option<&mut PlanCache>,
    ) -> Result<CompileOutput, CompileError> {
        let file = SourceFile::new(file_name, text);
        let mut diags = Diagnostics::new();
        let (parse_ns, presgen_ns);

        let presc = match self.frontend {
            Frontend::Corba | Frontend::Onc => {
                let t = std::time::Instant::now();
                let aoi = match self.frontend {
                    Frontend::Corba => flick_frontend_corba::parse(&file, &mut diags),
                    _ => flick_frontend_onc::parse(&file, &mut diags),
                };
                parse_ns = step_ns(t);
                if diags.has_errors() {
                    return Err(CompileError::from_diags(Phase::Parse, &diags, &file));
                }
                let t = std::time::Instant::now();
                let presc = self.style.generate(&aoi, iface, side, &mut diags);
                presgen_ns = step_ns(t);
                match presc {
                    Some(p) if !diags.has_errors() => p,
                    _ => return Err(CompileError::from_diags(Phase::Presgen, &diags, &file)),
                }
            }
            Frontend::Mig => {
                // MIG's front end and presentation are conjoined; the
                // one pass is split evenly across both spans so every
                // pipeline reports the same phase names.
                let t = std::time::Instant::now();
                let presc = flick_frontend_mig::parse(&file, side, &mut diags);
                let ns = step_ns(t);
                (parse_ns, presgen_ns) = (ns / 2, ns - ns / 2);
                match presc {
                    Some(p) if !diags.has_errors() => p,
                    _ => return Err(CompileError::from_diags(Phase::Parse, &diags, &file)),
                }
            }
        };

        let (compiled, bt) = self
            .backend
            .compile_traced_with(&presc, cache)
            .map_err(|e| CompileError {
                report: format!("back end: {e}\n"),
                phase: Phase::Backend(e.step),
                errors: 1,
                warnings: 0,
            })?;
        // The report is sized once for what it records: the phases in
        // execution order, then the decision counters.
        let head = [
            ("parse", parse_ns),
            ("presgen", presgen_ns),
            ("backend.plan", bt.plan_ns),
        ];
        let passes = bt.passes.iter().map(|pass| (pass.span, pass.ns));
        let tail = [
            ("backend.emit-c", bt.emit_c_ns),
            ("backend.print-c", bt.print_c_ns),
            ("backend.emit-rust", bt.emit_rust_ns),
        ];
        // The back end's declarations and the presentation's, printed
        // in place between its head and its functions.
        let cast_decls = compiled.c_unit.decls.len() + presc.cast.decls.len();
        let stats = [
            ("mint.nodes", presc.mint.len() as u64),
            ("pres.nodes", presc.pres.len() as u64),
            ("cast.decls", cast_decls as u64),
            ("plan.stubs", bt.stats.stubs),
            ("plan.nodes", bt.stats.plan_nodes),
            ("plan.packed_chunks", bt.stats.packed_chunks),
            ("plan.memcpy_runs", bt.stats.memcpy_runs),
            ("plan.swizzle_runs", bt.stats.swizzle_runs),
            ("plan.strided_arrays", bt.stats.strided_arrays),
            ("plan.outline_calls", bt.stats.outline_calls),
            ("plan.outline_fns", bt.stats.outline_fns),
            ("plan.hoisted_checks", bt.stats.hoisted_checks),
            ("plan.max_inline_depth", bt.stats.max_inline_depth),
        ];
        // Lowering reports stub count via `plan.stubs`; only the named
        // passes carry decision counters.
        let decisions = bt
            .passes
            .iter()
            .filter_map(|pass| Some((pass.counter?, pass.decisions)));
        let cache = bt.cache.as_ref().map(|cr| {
            [
                ("cache.stub.hit", cr.hits),
                ("cache.stub.miss", cr.misses),
                ("cache.stub.evict", cr.evictions),
            ]
        });
        let mut trace = flick_telemetry::TraceReport::with_capacity(
            head.len() + passes.len() + tail.len(),
            stats.len() + decisions.clone().count() + cache.map_or(0, |c| c.len()),
        );
        for (name, ns) in head.into_iter().chain(passes).chain(tail) {
            trace.push_span(name, ns);
        }
        let counters = stats
            .into_iter()
            .chain(decisions)
            .chain(cache.into_iter().flatten());
        for (name, value) in counters {
            trace.set_counter(name, value);
        }
        let report = CompileReport {
            frontend: self.frontend.name(),
            style: presc.style.clone(),
            transport: self.backend.transport.name(),
            trace,
            cache: bt.cache,
        };
        Ok(CompileOutput {
            presc,
            c_source: compiled.c_source,
            rust_source: compiled.rust_source,
            report,
            mir_dump: bt.mir_dump,
        })
    }
}

fn step_ns(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAIL_IDL: &str = "interface Mail { void send(in string msg); };";
    const MAIL_X: &str =
        "program Mail { version V { void send(string msg) = 1; } = 1; } = 0x20000001;";

    #[test]
    fn corba_to_iiop() {
        let out = Compiler::new(Frontend::Corba, Style::CorbaC, Transport::IiopTcp)
            .compile_source("mail.idl", MAIL_IDL, "Mail", Side::Client)
            .expect("compiles");
        assert!(out.c_source.contains("Mail_send"));
        assert_eq!(out.presc.style, "corba-c");
    }

    #[test]
    fn mix_and_match_matrix() {
        // The kit claim: every front end × presentation × transport
        // combination (valid for the input) compiles.
        let transports = [
            Transport::IiopTcp,
            Transport::OncTcp,
            Transport::OncUdp,
            Transport::Mach3,
            Transport::Fluke,
        ];
        let styles = [Style::CorbaC, Style::RpcgenC, Style::FlukeC];
        for (frontend, src) in [(Frontend::Corba, MAIL_IDL), (Frontend::Onc, MAIL_X)] {
            for style in styles {
                for transport in transports {
                    let out = Compiler::new(frontend, style, transport)
                        .compile_source("mail", src, "Mail", Side::Client)
                        .unwrap_or_else(|e| {
                            panic!("{:?}/{:?}/{:?} failed:\n{e}", frontend, style, transport)
                        });
                    assert!(!out.rust_source.is_empty());
                }
            }
        }
    }

    #[test]
    fn mig_pipeline() {
        let out = Compiler::new(Frontend::Mig, Style::CorbaC, Transport::Mach3)
            .compile_source(
                "t.defs",
                "subsystem t 100;\nroutine ping(server : mach_port_t; n : int);\n",
                "t",
                Side::Client,
            )
            .expect("compiles");
        assert_eq!(out.presc.style, "mig-c");
        assert!(out.rust_source.contains("encode_ping_request"));
    }

    #[test]
    fn errors_are_rendered() {
        let err = Compiler::new(Frontend::Corba, Style::CorbaC, Transport::OncTcp)
            .compile_source(
                "bad.idl",
                "interface X { void f(in strang s); };",
                "X",
                Side::Client,
            )
            .unwrap_err();
        assert!(err.report.contains("unknown type"), "{err}");
        assert!(err.report.contains("bad.idl:"), "{err}");
    }

    #[test]
    fn missing_interface_reported() {
        let err = Compiler::new(Frontend::Corba, Style::CorbaC, Transport::OncTcp)
            .compile_source("m.idl", MAIL_IDL, "Nope", Side::Client)
            .unwrap_err();
        assert!(err.report.contains("not found"), "{err}");
    }
}
