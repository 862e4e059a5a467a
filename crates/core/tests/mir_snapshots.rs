//! Golden `--dump-mir` snapshots for the three extension passes.
//!
//! Each test compiles a checked-in interface and compares the MIR
//! rendering after one pass against a golden file in `testdata/mir/`.
//! The snapshots pin down exactly what each pass changes (and, for
//! the IIOP/CDR configurations, what it refuses to change):
//!
//! * `dead-slot` — the suppressed `_pad` slot is gone from the
//!   `echo_stat` request under both encodings;
//! * `merge-prefix` — the demux trie's `send_*` subtree carries a
//!   `prefix=[len-u32]` hoist;
//! * `reply-alias` — `_return` is marked `alias request[0]` under XDR
//!   (position-independent) and deliberately unmarked under CDR
//!   (alignment makes reply offsets differ from request offsets).
//!
//! Two more pin the whole pipeline (after `merge-prefix`, the last
//! pass) under the encodings whose layout rules differ: Mach 3's type
//! descriptors, which no chunk packs across, and Fluke's native-order
//! words.
//!
//! Regenerate after an intentional MIR or pass change with:
//! `FLICK_BLESS_MIR=1 cargo test -p flick --test mir_snapshots`

use flick::{Compiler, Frontend, MirDump, Style, Transport};
use flick_pres::Side;

const BENCH_IDL: &str = include_str!("../../../testdata/bench.idl");
const BENCH_X: &str = include_str!("../../../testdata/bench.x");
const PASSES: [&str; 3] = ["dead-slot", "merge-prefix", "reply-alias"];

fn dump_after(mut compiler: Compiler, file: &str, src: &str, pass: &str) -> String {
    compiler.backend.dump_mir = Some(MirDump {
        after: Some(pass.into()),
    });
    let out = compiler
        .compile_source(file, src, "Bench", Side::Server)
        .unwrap_or_else(|e| panic!("{file} after {pass}: {e}"));
    out.mir_dump.expect("a dump was requested")
}

fn check_snapshot(name: &str, rendered: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../testdata/mir")
        .join(format!("{name}.txt"));
    if std::env::var_os("FLICK_BLESS_MIR").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}; bless with FLICK_BLESS_MIR=1", path.display()));
    assert_eq!(
        rendered,
        golden,
        "MIR after this pass diverged from {}; if the change is \
         intentional, re-bless with FLICK_BLESS_MIR=1",
        path.display()
    );
}

#[test]
fn corba_iiop_snapshots() {
    for pass in PASSES {
        let c = Compiler::new(Frontend::Corba, Style::CorbaC, Transport::IiopTcp);
        let dump = dump_after(c, "bench.idl", BENCH_IDL, pass);
        check_snapshot(&format!("bench_idl_iiop_{pass}"), &dump);
    }
}

#[test]
fn onc_xdr_snapshots() {
    for pass in PASSES {
        let c = Compiler::new(Frontend::Onc, Style::RpcgenC, Transport::OncTcp);
        let dump = dump_after(c, "bench.x", BENCH_X, pass);
        check_snapshot(&format!("bench_x_onc_{pass}"), &dump);
    }
}

#[test]
fn mach3_and_fluke_snapshots() {
    for (transport, name) in [(Transport::Mach3, "mach3"), (Transport::Fluke, "fluke")] {
        let c = Compiler::new(Frontend::Corba, Style::CorbaC, transport);
        let dump = dump_after(c, "bench.idl", BENCH_IDL, "merge-prefix");
        check_snapshot(&format!("bench_idl_{name}_merge-prefix"), &dump);
    }
}

#[test]
fn snapshots_show_each_pass_effect() {
    // Belt and braces beyond byte equality: the properties the goldens
    // exist to pin down, asserted structurally so a re-bless cannot
    // silently lose them.
    let c = || Compiler::new(Frontend::Onc, Style::RpcgenC, Transport::OncTcp);
    let ds = dump_after(c(), "bench.x", BENCH_X, "dead-slot");
    assert!(!ds.contains("_pad"), "dead slot still present:\n{ds}");
    let mp = dump_after(c(), "bench.x", BENCH_X, "merge-prefix");
    assert!(mp.contains("prefix=[len-u32]"), "no hoisted prefix:\n{mp}");
    let ra = dump_after(c(), "bench.x", BENCH_X, "reply-alias");
    assert!(ra.contains("(alias request[0])"), "no alias mark:\n{ra}");

    // CDR alignment is position-dependent, so the alias gate must hold.
    let cdr = Compiler::new(Frontend::Corba, Style::CorbaC, Transport::IiopTcp);
    let ra = dump_after(cdr, "bench.idl", BENCH_IDL, "reply-alias");
    assert!(!ra.contains("alias request"), "alias under CDR:\n{ra}");
}
