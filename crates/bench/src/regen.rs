//! Shared generation logic for the checked-in stub modules — used by
//! the `regen_stubs` binary and by the `generated_in_sync` test.

use flick::{CompileOutput, CompileSession, Compiler, Frontend, PassSet, Style, Transport};
use flick_pres::Side;

/// One module to generate.
#[derive(Clone, Copy)]
pub struct Job {
    /// Output file name under `crates/bench/src/generated/`.
    pub out_name: &'static str,
    /// IDL source text.
    pub source: &'static str,
    /// Display file name for diagnostics.
    pub file: &'static str,
    /// Interface to compile.
    pub iface: &'static str,
    /// Front end.
    pub frontend: Frontend,
    /// Presentation style.
    pub style: Style,
    /// Back end transport.
    pub transport: Transport,
    /// The passes to run (ablation variants drop one each).
    pub opts: PassSet,
}

/// The full generation plan: the nine canonical modules, then the
/// ablation variants (§3 claims) — each a canonical module with passes
/// removed.
///
/// # Panics
/// Panics if a variant row names a module or pass that does not exist.
#[must_use]
pub fn jobs() -> Vec<Job> {
    let mut jobs = vec![
        Job {
            out_name: "onc_bench.rs",
            source: include_str!("../../../testdata/bench.idl"),
            file: "bench.idl",
            iface: "Bench",
            frontend: Frontend::Corba,
            style: Style::RpcgenC,
            transport: Transport::OncTcp,
            opts: PassSet::all(),
        },
        Job {
            out_name: "iiop_bench.rs",
            source: include_str!("../../../testdata/bench.idl"),
            file: "bench.idl",
            iface: "Bench",
            frontend: Frontend::Corba,
            style: Style::CorbaC,
            transport: Transport::IiopTcp,
            opts: PassSet::all(),
        },
        Job {
            out_name: "mach_bench.rs",
            source: include_str!("../../../testdata/bench.idl"),
            file: "bench.idl",
            iface: "Bench",
            frontend: Frontend::Corba,
            style: Style::CorbaC,
            transport: Transport::Mach3,
            opts: PassSet::all(),
        },
        Job {
            out_name: "fluke_bench.rs",
            source: include_str!("../../../testdata/bench.idl"),
            file: "bench.idl",
            iface: "Bench",
            frontend: Frontend::Corba,
            style: Style::FlukeC,
            transport: Transport::Fluke,
            opts: PassSet::all(),
        },
        Job {
            out_name: "mail_onc.rs",
            source: include_str!("../../../testdata/mail.x"),
            file: "mail.x",
            iface: "Mail",
            frontend: Frontend::Onc,
            style: Style::RpcgenC,
            transport: Transport::OncTcp,
            opts: PassSet::all(),
        },
        Job {
            out_name: "mail_iiop.rs",
            source: include_str!("../../../testdata/mail.idl"),
            file: "mail.idl",
            iface: "Mail",
            frontend: Frontend::Corba,
            style: Style::CorbaC,
            transport: Transport::IiopTcp,
            opts: PassSet::all(),
        },
        Job {
            out_name: "varied_onc.rs",
            source: include_str!("../../../testdata/varied.idl"),
            file: "varied.idl",
            iface: "Varied",
            frontend: Frontend::Corba,
            style: Style::CorbaC,
            transport: Transport::OncTcp,
            opts: PassSet::all(),
        },
        Job {
            out_name: "varied_iiop.rs",
            source: include_str!("../../../testdata/varied.idl"),
            file: "varied.idl",
            iface: "Varied",
            frontend: Frontend::Corba,
            style: Style::CorbaC,
            transport: Transport::IiopTcp,
            opts: PassSet::all(),
        },
        Job {
            out_name: "list_onc.rs",
            source: include_str!("../../../testdata/list.x"),
            file: "list.x",
            iface: "ListProg",
            frontend: Frontend::Onc,
            style: Style::RpcgenC,
            transport: Transport::OncTcp,
            opts: PassSet::all(),
        },
    ];
    let off = |passes: &[&str]| {
        passes
            .iter()
            .fold(PassSet::all(), |set, p| set.without(p).expect("removable"))
    };
    for (out_name, base, opts) in [
        ("onc_noopt.rs", "onc_bench.rs", PassSet::none()),
        ("onc_nohoist.rs", "onc_bench.rs", off(&["hoist-checks"])),
        ("onc_nochunk.rs", "onc_bench.rs", off(&["form-chunks"])),
        // Chunking off too: out-of-line per-type functions preclude
        // cross-field chunks.
        (
            "onc_noinline.rs",
            "onc_bench.rs",
            off(&["inline-marshal", "form-chunks"]),
        ),
        // §3.1 parameter management: in-buffer presentation off.
        ("mail_onc_noparam.rs", "mail_onc.rs", off(&["reuse-slots"])),
        (
            "iiop_nomemcpy.rs",
            "iiop_bench.rs",
            off(&["coalesce-memcpy"]),
        ),
        ("onc_nodeadslot.rs", "onc_bench.rs", off(&["dead-slot"])),
        // The hoisted count lives in the word switch, so only a
        // by-name (GIOP) module shows the pass.
        ("iiop_noprefix.rs", "iiop_bench.rs", off(&["merge-prefix"])),
        ("onc_noalias.rs", "onc_bench.rs", off(&["reply-alias"])),
    ] {
        let base = *jobs
            .iter()
            .find(|j| j.out_name == base)
            .expect("a canonical module");
        jobs.push(Job {
            out_name,
            opts,
            ..base
        });
    }
    jobs
}

/// Compiles every job through one incremental [`CompileSession`],
/// reconfiguring the compiler between jobs.  Content-addressed keys
/// make the shared cache sound across the reconfigurations: a job with
/// a different encoding or pass pipeline simply misses.
///
/// # Panics
/// Panics if any compilation fails (the committed IDL is expected to
/// compile).
#[must_use]
pub fn compile_all() -> Vec<(&'static str, CompileOutput)> {
    let mut session: Option<CompileSession> = None;
    jobs()
        .into_iter()
        .map(|j| {
            let mut compiler = Compiler::new(j.frontend, j.style, j.transport).with_opts(j.opts);
            // Regeneration always runs the MIR verifier (even in
            // release builds) so drift in the checked-in stubs can
            // never come from a malformed intermediate.
            compiler.backend.verify_mir = true;
            let s = match session.as_mut() {
                Some(s) => {
                    *s.compiler_mut() = compiler;
                    s
                }
                None => session.insert(CompileSession::new(compiler)),
            };
            let out = s
                // Server side so in-buffer presentation (zero-copy
                // strings) is planned where the paper allows it.
                .compile(j.file, j.source, j.iface, Side::Server)
                .unwrap_or_else(|e| panic!("{}: {e}", j.out_name));
            (j.out_name, out)
        })
        .collect()
}

/// Generates all modules, returning `(name, rust_source)` pairs.
///
/// # Panics
/// Panics if any compilation fails.
#[must_use]
pub fn generate_all() -> Vec<(&'static str, String)> {
    compile_all()
        .into_iter()
        .map(|(name, out)| (name, out.rust_source))
        .collect()
}

/// Generates the transcoding gateway modules with their slot-by-slot
/// twins: `Bench` XDR→CDR(native), exercised by the `flick-bridge`
/// binary, the hostile-proxy tests and the `transcode` ablation row,
/// and `Varied` (unions, enums, floats, widened shorts, nested fixed
/// arrays) both ways — XDR→CDR(native) and the swapped pair, the
/// gateway facing the other way — held to the endpoint stubs' bytes by
/// `tests/transcode.rs`.
///
/// Deliberately not [`Job`]s: gateway modules emit encoding-pair
/// rewrites rather than stubs, so they contribute no stub hashes to
/// the golden manifest.
///
/// # Panics
/// Panics if the committed IDL fails to compile or plan.
#[must_use]
pub fn generate_transcode() -> Vec<(&'static str, String)> {
    use flick_backend::Encoding;
    let module = |file: &str, source: &str, iface: &str, style: Style, src, dst| {
        let out = Compiler::new(Frontend::Corba, style, Transport::OncTcp)
            .compile_source(file, source, iface, Side::Server)
            .unwrap_or_else(|e| panic!("{file}: {e}"));
        let (module, _) = flick_backend::compile_transcode(&out.presc, &src, &dst, true)
            .unwrap_or_else(|e| panic!("{file}: transcode plans: {e}"));
        module
    };
    let bench = include_str!("../../../testdata/bench.idl");
    let varied = include_str!("../../../testdata/varied.idl");
    let (xdr, cdr) = (Encoding::xdr, Encoding::cdr_native);
    vec![
        (
            "transcode_bench.rs",
            module("bench.idl", bench, "Bench", Style::RpcgenC, xdr(), cdr()),
        ),
        (
            "transcode_varied.rs",
            module("varied.idl", varied, "Varied", Style::CorbaC, xdr(), cdr()),
        ),
        (
            "transcode_varied_rev.rs",
            module("varied.idl", varied, "Varied", Style::CorbaC, cdr(), xdr()),
        ),
    ]
}

/// The golden stub-hash manifest: one `module stub hash` line per
/// generated stub, in job order.  Checked in at
/// `testdata/golden_hashes.txt`, this pins [`flick_pres::stub_hashes`]
/// across processes and machines — if the structural hash ever drifts
/// (platform dependence, accidental hasher change), every cached plan
/// keyed by it would silently invalidate, and this file catches it.
///
/// # Panics
/// Panics if any compilation fails.
#[must_use]
pub fn golden_hashes() -> String {
    let mut out = String::from(
        "# Structural stub hashes for the checked-in generated modules.\n\
         # Refresh with: cargo run -p flick-bench --bin regen_stubs\n",
    );
    for (name, compiled) in compile_all() {
        let hashes = flick_pres::stub_hashes(&compiled.presc);
        for (stub, h) in compiled.presc.stubs.iter().zip(hashes) {
            out.push_str(&format!("{name} {stub} {h:016x}\n", stub = stub.name));
        }
    }
    out
}

/// Path of the generated-modules directory in the source tree.
#[must_use]
pub fn generated_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("src/generated")
}

/// Path of the checked-in golden stub-hash manifest.
#[must_use]
pub fn golden_hashes_path() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../testdata/golden_hashes.txt")
}

/// The body encoders of a stub module that reserve their message by
/// value — one `buf.ensure(<constant> + <terms>); // whole message,
/// sized by its values` line — in module order.
#[must_use]
pub fn reserved_by_value(module: &str) -> Vec<&str> {
    let mut encoder = "";
    let mut found = Vec::new();
    for line in module.lines() {
        if let Some(rest) = line.strip_prefix("pub fn ") {
            encoder = rest.split('(').next().unwrap_or(rest);
        }
        let line = line.trim();
        if line.starts_with("buf.ensure(")
            && line.ends_with("// whole message, sized by its values")
        {
            found.push(encoder);
        }
    }
    found
}

/// The whole-message checks a stub module's body encoders hoist, read
/// off the module's text: `(encoder, bytes, fixed)` for every
/// `buf.ensure(N); // whole message is …` line, `fixed` when the
/// message is fixed-size rather than bounded.
#[must_use]
pub fn hoisted_checks(module: &str) -> Vec<(&str, u64, bool)> {
    let mut encoder = "";
    let mut checks = Vec::new();
    for line in module.lines() {
        if let Some(rest) = line.strip_prefix("pub fn ") {
            encoder = rest.split('(').next().unwrap_or(rest);
        }
        let hoisted = line.trim().strip_prefix("buf.ensure(");
        if let Some((n, why)) = hoisted.and_then(|r| r.split_once("); // whole message is ")) {
            let n = n.parse().expect("a constant hoisted check");
            checks.push((encoder, n, why == "fixed-size"));
        }
    }
    checks
}
