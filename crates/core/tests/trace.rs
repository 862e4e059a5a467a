//! Compile tracing: every pipeline configuration reports every phase.

use flick::{Compiler, Frontend, Phase, Style, Transport};
use flick_pres::Side;

const MAIL_IDL: &str = "interface Mail { void send(in string msg); };";
const MAIL_X: &str = "program Mail { version V { void send(string msg) = 1; } = 1; } = 0x20000001;";

const PHASES: [&str; 6] = [
    "parse",
    "presgen",
    "backend.plan",
    "backend.emit-c",
    "backend.print-c",
    "backend.emit-rust",
];

const TRANSPORTS: [Transport; 5] = [
    Transport::IiopTcp,
    Transport::OncTcp,
    Transport::OncUdp,
    Transport::Mach3,
    Transport::Fluke,
];

#[test]
fn all_fifteen_combinations_report_every_phase() {
    // The paper's kit claim: 3 presentations × 5 transports, and every
    // configuration is traced the same way.
    let styles = [Style::CorbaC, Style::RpcgenC, Style::FlukeC];
    let mut combos = 0;
    for style in styles {
        for transport in TRANSPORTS {
            let out = Compiler::new(Frontend::Corba, style, transport)
                .compile_source("mail.idl", MAIL_IDL, "Mail", Side::Client)
                .unwrap_or_else(|e| panic!("{style:?}/{transport:?}: {e}"));
            for phase in PHASES {
                assert!(
                    out.report.trace.has_phase(phase),
                    "{style:?}/{transport:?} missing phase {phase}: {:?}",
                    out.report.trace.spans
                );
            }
            assert_eq!(out.report.transport, transport.name());
            combos += 1;
        }
    }
    assert_eq!(combos, 15);
}

#[test]
fn other_frontends_report_the_same_phases() {
    // The ONC and MIG front ends produce the same span names, so tools
    // consuming --timings need no per-frontend cases.
    let onc = Compiler::new(Frontend::Onc, Style::RpcgenC, Transport::OncTcp)
        .compile_source("mail.x", MAIL_X, "Mail", Side::Client)
        .expect("onc compiles");
    let mig = Compiler::new(Frontend::Mig, Style::CorbaC, Transport::Mach3)
        .compile_source(
            "t.defs",
            "subsystem t 100;\nroutine ping(server : mach_port_t; n : int);\n",
            "t",
            Side::Client,
        )
        .expect("mig compiles");
    for out in [&onc, &mig] {
        for phase in PHASES {
            assert!(out.report.trace.has_phase(phase), "missing {phase}");
        }
    }
    assert_eq!(onc.report.frontend, "onc");
    assert_eq!(mig.report.frontend, "mig");
}

#[test]
fn decision_counters_reflect_the_optimizer() {
    let idl = r"
        struct Point { long x; long y; };
        struct Rect { Point min; Point max; };
        typedef sequence<Rect> RectSeq;
        typedef sequence<long> Ints;
        interface I { void put(in RectSeq rs, in Ints v); };
    ";
    // Native-order CDR so the long sequence qualifies for a memcpy run.
    let out = Compiler::new(Frontend::Corba, Style::CorbaC, Transport::IiopTcp)
        .compile_source("t.idl", idl, "I", Side::Client)
        .expect("compiles");
    let t = &out.report.trace;
    assert!(t.counter("plan.packed_chunks").unwrap() >= 1, "rects chunk");
    assert!(t.counter("plan.memcpy_runs").unwrap() >= 1, "ints memcpy");
    assert!(t.counter("mint.nodes").unwrap() > 0);
    assert!(t.counter("cast.decls").unwrap() > 0);
    assert!(t.counter("plan.hoisted_checks").unwrap() >= 1);

    // Disabling the optimizations changes the recorded decisions.
    let out = Compiler::new(Frontend::Corba, Style::CorbaC, Transport::IiopTcp)
        .with_opts(flick::PassSet::none())
        .compile_source("t.idl", idl, "I", Side::Client)
        .expect("compiles unoptimized");
    let t = &out.report.trace;
    assert_eq!(t.counter("plan.packed_chunks").unwrap(), 0);
    assert_eq!(t.counter("plan.memcpy_runs").unwrap(), 0);
    assert_eq!(t.counter("plan.swizzle_runs").unwrap(), 0);
    assert_eq!(t.counter("plan.strided_arrays").unwrap(), 0);
    assert!(
        t.counter("plan.outline_fns").unwrap() >= 1,
        "aggregates outline"
    );
}

#[test]
fn run_kind_counters_follow_the_wire_order() {
    let idl = r"
        struct Point { long x; long y; };
        struct Rect { Point min; Point max; };
        typedef sequence<Rect> RectSeq;
        typedef sequence<long> Ints;
        interface I { void put(in RectSeq rs, in Ints v); };
    ";
    let counters = |transport: Transport, disabled: &[&str]| {
        let passes = disabled
            .iter()
            .fold(flick::PassSet::all(), |set, p| set.without(p).unwrap());
        let out = Compiler::new(Frontend::Corba, Style::CorbaC, transport)
            .with_opts(passes)
            .compile_source("t.idl", idl, "I", Side::Client)
            .expect("compiles");
        let t = &out.report.trace;
        // `flickc --stats` prints the report's text form.
        let text = out.report.to_text();
        for name in ["plan.swizzle_runs", "plan.strided_arrays"] {
            assert!(text.contains(name), "--stats must print {name}:\n{text}");
        }
        (
            t.counter("plan.memcpy_runs").unwrap(),
            t.counter("plan.swizzle_runs").unwrap(),
            t.counter("plan.strided_arrays").unwrap(),
        )
    };
    // Native-order CDR: the long sequence is a plain memcpy run; the
    // rect sequence is a strided array of 16-byte chunks either way.
    assert_eq!(counters(Transport::IiopTcp, &[]), (1, 0, 1));
    // XDR is big-endian: on a little-endian host the same run is a
    // swizzle run (still counted among the memcpy runs it is a kind of).
    let foreign = u64::from(cfg!(target_endian = "little"));
    assert_eq!(counters(Transport::OncTcp, &[]), (1, foreign, 1));
    // Each decision belongs to its pass.
    assert_eq!(counters(Transport::OncTcp, &["coalesce-memcpy"]), (0, 0, 1));
    assert_eq!(
        counters(Transport::OncTcp, &["form-chunks"]),
        (1, foreign, 0)
    );
}

#[test]
fn plan_phase_breaks_down_into_pass_subspans() {
    // `--timings` shows one dotted sub-span per scheduled MIR pass,
    // and `--stats` one decision counter per pass.
    let out = Compiler::new(Frontend::Corba, Style::CorbaC, Transport::IiopTcp)
        .compile_source("mail.idl", MAIL_IDL, "Mail", Side::Client)
        .expect("compiles");
    let t = &out.report.trace;
    assert!(t.has_phase("backend.plan.lower"), "{:?}", t.spans);
    for pass in flick::PASS_NAMES {
        assert!(
            t.has_phase(&format!("backend.plan.{pass}")),
            "missing sub-span for {pass}: {:?}",
            t.spans
        );
        assert!(
            t.counter(&format!("pass.{pass}.decisions")).is_some(),
            "missing decision counter for {pass}: {:?}",
            t.counters
        );
    }

    // A disabled pass drops out of the breakdown.
    let no_chunks = flick::PassSet::all().without("form-chunks").unwrap();
    let out = Compiler::new(Frontend::Corba, Style::CorbaC, Transport::IiopTcp)
        .with_opts(no_chunks)
        .compile_source("mail.idl", MAIL_IDL, "Mail", Side::Client)
        .expect("compiles without form-chunks");
    let t = &out.report.trace;
    assert!(!t.has_phase("backend.plan.form-chunks"), "{:?}", t.spans);
    assert!(t.has_phase("backend.plan.demux-switch"));
}

#[test]
fn backend_failures_name_the_failing_step() {
    // Asking for a MIR dump after a pass that was disabled fails
    // inside planning, and the error names the backend sub-phase.
    let no_chunks = flick::PassSet::all().without("form-chunks").unwrap();
    let mut compiler =
        Compiler::new(Frontend::Corba, Style::CorbaC, Transport::IiopTcp).with_opts(no_chunks);
    compiler.backend.dump_mir = Some(flick::MirDump {
        after: Some("form-chunks".into()),
    });
    let err = compiler
        .compile_source("mail.idl", MAIL_IDL, "Mail", Side::Client)
        .map(|_| ())
        .unwrap_err();
    assert_eq!(err.phase.name(), "backend.plan", "{}", err.report);
    assert!(err.report.contains("did not run"), "{}", err.report);
}

#[test]
fn report_serializes_to_json_and_text() {
    let out = Compiler::new(Frontend::Corba, Style::CorbaC, Transport::IiopTcp)
        .compile_source("mail.idl", MAIL_IDL, "Mail", Side::Client)
        .expect("compiles");
    let json = out.report.to_json();
    assert!(json.starts_with("{\"frontend\":\"corba\""), "{json}");
    assert!(json.contains("\"transport\":\"iiop-tcp\""));
    assert!(json.contains("\"spans\":[{\"name\":\"parse\""));
    assert!(json.contains("\"plan.stubs\":1"));
    let text = out.report.to_text();
    assert!(text.contains("pipeline: corba -> corba-c -> iiop-tcp"));
    assert!(text.contains("backend.emit-rust"));
}

#[test]
fn failures_carry_phase_and_counts() {
    // Type errors surface while the front end parses.
    let err = Compiler::new(Frontend::Corba, Style::CorbaC, Transport::OncTcp)
        .compile_source(
            "bad.idl",
            "interface X { void f(in strang s); };",
            "X",
            Side::Client,
        )
        .unwrap_err();
    assert_eq!(err.phase, Phase::Parse);
    assert!(err.errors >= 1);
    assert!(err.report.contains("unknown type"));

    // A missing interface is a presentation-generation failure.
    let err = Compiler::new(Frontend::Corba, Style::CorbaC, Transport::OncTcp)
        .compile_source("m.idl", MAIL_IDL, "Nope", Side::Client)
        .unwrap_err();
    assert_eq!(err.phase, Phase::Presgen, "{}", err.report);
    assert!(err.errors >= 1);
}
