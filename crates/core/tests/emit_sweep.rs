//! The emission sweep: every checked-in interface under every
//! presentation, transport, side and pass set, pinned to one digest of
//! what the compiler says about it.
//!
//! The matrix is every `testdata` interface × `--pres` × `--transport`
//! × `--side` × {default, `--no-opt`, each removable pass disabled}.
//! A configuration that compiles is pinned by a digest of its Rust, its
//! C and its final `--dump-mir`; one that fails (some ONC programs have
//! no CORBA or Fluke presentation) by a digest of its error.  Lines are
//! keyed by configuration and sorted, so a change of pipeline order or
//! of the pass list's spelling moves no line it does not change.
//!
//! A change that claims to move no generated byte and no analysis
//! answer leaves `testdata/emit_sweep.golden` as it is.  Rewrite it
//! after an intentional change with
//! `FLICK_BLESS=1 cargo test -p flick --test emit_sweep`.

use flick::{Compiler, Frontend, MirDump, PassSet, Style, Transport, PASS_NAMES};
use flick_pres::Side;

const INPUTS: [(&str, &str, Frontend, &str); 6] = [
    (
        "bench.idl",
        include_str!("../../../testdata/bench.idl"),
        Frontend::Corba,
        "Bench",
    ),
    (
        "mail.idl",
        include_str!("../../../testdata/mail.idl"),
        Frontend::Corba,
        "Mail",
    ),
    (
        "varied.idl",
        include_str!("../../../testdata/varied.idl"),
        Frontend::Corba,
        "Varied",
    ),
    (
        "bench.x",
        include_str!("../../../testdata/bench.x"),
        Frontend::Onc,
        "Bench",
    ),
    (
        "list.x",
        include_str!("../../../testdata/list.x"),
        Frontend::Onc,
        "ListProg",
    ),
    (
        "mail.x",
        include_str!("../../../testdata/mail.x"),
        Frontend::Onc,
        "Mail",
    ),
];

const STYLES: [(&str, Style); 3] = [
    ("corba-c", Style::CorbaC),
    ("rpcgen-c", Style::RpcgenC),
    ("fluke-c", Style::FlukeC),
];

const TRANSPORTS: [(&str, Transport); 5] = [
    ("iiop-tcp", Transport::IiopTcp),
    ("onc-tcp", Transport::OncTcp),
    ("onc-udp", Transport::OncUdp),
    ("mach3", Transport::Mach3),
    ("fluke", Transport::Fluke),
];

const SIDES: [(&str, Side); 2] = [("client", Side::Client), ("server", Side::Server)];

/// The pass sets: the default, `--no-opt`, and the default less each
/// pass that can be disabled, each with its name in the golden file.
fn pass_sets() -> Vec<(String, PassSet)> {
    let mut sets = vec![
        ("default".to_string(), PassSet::all()),
        ("no-opt".to_string(), PassSet::none()),
    ];
    for name in PASS_NAMES {
        if let Ok(set) = PassSet::all().without(name) {
            sets.push((format!("-{name}"), set));
        }
    }
    sets
}

/// One golden line: the configuration, then the digest of what
/// compiling it printed.
fn sweep_line(
    (file, text, frontend, iface): (&str, &str, Frontend, &str),
    (style_name, style): (&str, Style),
    (transport_name, transport): (&str, Transport),
    (side_name, side): (&str, Side),
    (set_name, passes): (&str, PassSet),
) -> String {
    let mut compiler = Compiler::new(frontend, style, transport).with_opts(passes);
    compiler.backend.dump_mir = Some(MirDump { after: None });
    let (kind, digest) = match compiler.compile_source(file, text, iface, side) {
        Ok(out) => {
            let mir = out.mir_dump.unwrap_or_default();
            let streams = [&out.rust_source, "\0", &out.c_source, "\0", &mir];
            ("ok", flick_stablehash::digest(streams.concat().as_bytes()))
        }
        Err(e) => {
            let report = format!("{} {e}", e.phase.name());
            ("error", flick_stablehash::digest(report.as_bytes()))
        }
    };
    format!("{file} {style_name} {transport_name} {side_name} {set_name} {kind} {digest:016x}")
}

#[test]
fn every_configuration_emits_what_the_golden_file_pins() {
    let sets = pass_sets();
    assert_eq!(sets.len(), 12, "default, --no-opt, ten removable passes");
    let mut configs = Vec::new();
    for input in INPUTS {
        for style in STYLES {
            for transport in TRANSPORTS {
                for side in SIDES {
                    for (name, set) in &sets {
                        configs.push((input, style, transport, side, (name.as_str(), *set)));
                    }
                }
            }
        }
    }
    assert_eq!(configs.len(), 2160);
    // Two workers: the sweep is CPU-bound and independent per line.
    let half = configs.len().div_ceil(2);
    let mut lines: Vec<String> = std::thread::scope(|s| {
        let workers: Vec<_> = configs
            .chunks(half)
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&(i, st, t, sd, ps)| sweep_line(i, st, t, sd, ps))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a sweep worker panicked"))
            .collect()
    });
    lines.sort();
    let rendered = lines.join("\n") + "\n";

    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../testdata/emit_sweep.golden");
    if std::env::var_os("FLICK_BLESS").is_some() {
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}; bless with FLICK_BLESS=1", path.display()));
    let moved: Vec<String> = golden
        .lines()
        .zip(rendered.lines())
        .filter(|(g, r)| g != r)
        .map(|(g, r)| format!("  golden {g}\n  now    {r}"))
        .collect();
    assert!(
        moved.is_empty() && golden.lines().count() == lines.len(),
        "{} of {} configurations moved from {} (first ten below); if the \
         change is intentional, re-bless with FLICK_BLESS=1\n{}",
        moved.len(),
        lines.len(),
        path.display(),
        moved
            .iter()
            .take(10)
            .cloned()
            .collect::<Vec<_>>()
            .join("\n")
    );
}
