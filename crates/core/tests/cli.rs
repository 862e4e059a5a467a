//! End-to-end tests for the `flickc` binary.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const MAIL_IDL: &str = "interface Mail { void send(in string msg); };";

fn flickc(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_flickc"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("flickc runs")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flickc-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn write_input(dir: &Path) -> PathBuf {
    let p = dir.join("mail.idl");
    std::fs::write(&p, MAIL_IDL).expect("write input");
    p
}

#[test]
fn help_exits_zero_with_usage() {
    let dir = scratch("help");
    let out = flickc(&["--help"], &dir);
    assert!(out.status.success(), "--help must exit 0: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("usage: flickc"), "{text}");
    assert!(
        text.contains("--timings"),
        "usage documents the new flags: {text}"
    );
    assert!(text.contains("--stats"), "{text}");
}

#[test]
fn bad_flag_fails_with_message() {
    let dir = scratch("badflag");
    let out = flickc(&["--frobnicate"], &dir);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown option `--frobnicate`"), "{err}");
    // The per-pass flags are gone: `--disable-pass=NAME` is the one way
    // to drop a pass.
    let out = flickc(&["--no-hoist", "mail.idl"], &dir);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown option `--no-hoist`"), "{err}");
    assert!(err.contains("usage: flickc"), "{err}");
}

#[test]
fn missing_input_fails() {
    let dir = scratch("noinput");
    let out = flickc(&[], &dir);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no input file"));
}

#[test]
fn compile_errors_exit_nonzero_with_counts() {
    let dir = scratch("compileerr");
    std::fs::write(dir.join("bad.idl"), "interface X { void f(in strang s); };")
        .expect("write bad input");
    let out = flickc(&["bad.idl"], &dir);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error(s)"), "structured failure line: {err}");
    assert!(err.contains("phase `parse`"), "{err}");

    // A back-end failure ends its report before the summary line.
    write_input(&dir);
    let out = flickc(
        &[
            "--disable-pass=hoist-checks",
            "--dump-mir=hoist-checks",
            "mail.idl",
        ],
        &dir,
    );
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("did not run"), "{err}");
    assert_eq!(
        err.lines().last(),
        Some("flickc: 1 error(s), 0 warning(s) in phase `backend.plan`"),
        "{err}"
    );
}

#[test]
fn stdout_emission_and_emit_selection() {
    let dir = scratch("stdout");
    write_input(&dir);
    let out = flickc(&["--emit", "rust", "mail.idl"], &dir);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("pub fn encode_send_request"), "{text}");
    assert!(
        !text.contains("void Mail_send"),
        "C suppressed with --emit rust"
    );
}

#[test]
fn out_dir_writes_c_rust_and_header() {
    let dir = scratch("outdir");
    write_input(&dir);
    let out = flickc(&["-o", "gen", "mail.idl"], &dir);
    assert!(out.status.success(), "{out:?}");
    for f in ["gen/Mail.c", "gen/Mail.rs", "gen/flick_runtime.h"] {
        assert!(dir.join(f).is_file(), "missing {f}");
    }
    let c = std::fs::read_to_string(dir.join("gen/Mail.c")).unwrap();
    assert!(c.contains("Mail_send"));
}

#[test]
fn timings_report_phases_on_stderr() {
    let dir = scratch("timings");
    write_input(&dir);
    let out = flickc(&["--timings", "--emit", "rust", "mail.idl"], &dir);
    assert!(out.status.success(), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    for phase in [
        "parse",
        "presgen",
        "backend.plan",
        "backend.emit-rust",
        "total",
    ] {
        assert!(err.contains(phase), "--timings missing {phase}: {err}");
    }
    // Generated code stays clean on stdout.
    assert!(String::from_utf8_lossy(&out.stdout).contains("encode_send_request"));
}

#[test]
fn stats_json_is_machine_readable() {
    let dir = scratch("statsjson");
    write_input(&dir);
    let out = flickc(&["--stats=json", "--emit", "rust", "mail.idl"], &dir);
    assert!(out.status.success(), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    let json = err
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("one JSON line");
    assert!(json.ends_with('}'), "{json}");
    for needle in [
        "\"frontend\":\"corba\"",
        "\"transport\":\"iiop-tcp\"",
        "\"spans\":[{\"name\":\"parse\"",
        "\"counters\":{",
        "\"plan.stubs\":1",
    ] {
        assert!(json.contains(needle), "missing {needle} in {json}");
    }
}

#[test]
fn passes_flag_lists_pipeline_in_order() {
    let dir = scratch("passes");
    let out = flickc(&["--passes"], &dir);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        text,
        "dead-slot\nreuse-slots\nform-chunks\ncoalesce-memcpy\nclassify-storage\n\
         hoist-checks\nfuse-transcode\ninline-marshal\nreply-alias\ndemux-switch\n\
         merge-prefix\n"
    );
}

#[test]
fn disable_pass_matches_opt_flag() {
    let dir = scratch("disablepass");
    write_input(&dir);
    // `--no-opt` is the pass set with everything removable removed but
    // the demux switch.
    let mut by_pass: Vec<String> = flick::PASS_NAMES
        .iter()
        .filter(|p| !["classify-storage", "demux-switch"].contains(p))
        .map(|p| format!("--disable-pass={p}"))
        .collect();
    assert_eq!(by_pass.len(), 9);
    by_pass.push("mail.idl".to_string());
    let by_pass: Vec<&str> = by_pass.iter().map(String::as_str).collect();
    let by_pass = flickc(&by_pass, &dir);
    let by_flag = flickc(&["--no-opt", "mail.idl"], &dir);
    let default = flickc(&["mail.idl"], &dir);
    assert!(by_flag.status.success(), "{by_flag:?}");
    assert!(by_pass.status.success(), "{by_pass:?}");
    assert!(default.status.success(), "{default:?}");
    assert_eq!(
        by_pass.stdout, by_flag.stdout,
        "nine --disable-pass flags must emit the same C and Rust as --no-opt"
    );
    assert_ne!(
        by_pass.stdout, default.stdout,
        "disabling the optimizations must change the emitted code"
    );
}

#[test]
fn unknown_pass_name_fails_with_diagnostic() {
    let dir = scratch("badpass");
    write_input(&dir);
    let out = flickc(&["--disable-pass=hoist-cheques", "mail.idl"], &dir);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown pass `hoist-cheques`"), "{err}");
    assert!(err.contains("known passes:"), "{err}");

    // The one pass that is an analysis, not an optimization: a real
    // name (`--passes` lists it) that cannot be dropped.
    let out = flickc(&["--disable-pass=classify-storage", "mail.idl"], &dir);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("pass `classify-storage` cannot be disabled"),
        "{err}"
    );
    assert!(err.contains("size-class analysis"), "says why: {err}");
}

#[test]
fn dump_mir_writes_to_stderr() {
    let dir = scratch("dumpmir");
    write_input(&dir);
    let out = flickc(&["--dump-mir", "--emit", "rust", "mail.idl"], &dir);
    assert!(out.status.success(), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("stub"), "MIR dump names the stubs: {err}");
    // Generated code stays clean on stdout.
    assert!(String::from_utf8_lossy(&out.stdout).contains("encode_send_request"));

    let bad = flickc(&["--dump-mir=not-a-pass", "mail.idl"], &dir);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown pass `not-a-pass`"));
    for stop in ["lower", "classify-storage"] {
        let out = flickc(&[&format!("--dump-mir={stop}"), "mail.idl"], &dir);
        assert!(out.status.success(), "--dump-mir={stop}: {out:?}");
    }
}

#[test]
fn stats_json_counters_are_sorted() {
    let dir = scratch("sortedjson");
    write_input(&dir);
    let out = flickc(&["--stats=json", "--emit", "rust", "mail.idl"], &dir);
    assert!(out.status.success(), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    let json = err.lines().find(|l| l.starts_with('{')).expect("JSON line");
    let counters = &json[json.find("\"counters\":{").expect("counters object")..];
    let mut keys: Vec<&str> = counters
        .split('"')
        .skip(3)
        .step_by(2)
        .take_while(|k| !k.is_empty())
        .collect();
    assert!(keys.len() > 3, "{counters}");
    let printed = keys.clone();
    keys.sort_unstable();
    assert_eq!(printed, keys, "counter keys must print sorted");
}

#[test]
fn transcode_mode_emits_a_gateway_module() {
    let dir = scratch("transcode");
    write_input(&dir);
    let out = flickc(&["--transcode=xdr:cdr-le", "mail.idl"], &dir);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("`xdr` → `cdr-le`"), "{text}");
    assert!(text.contains("pub const FUSED: bool = true;"), "{text}");
    assert!(text.contains("BRIDGE_OPS"), "{text}");
    assert!(!text.contains("void Mail_send"), "stubs suppressed: {text}");

    // Ablating the fusion pass flips the generated module to the
    // slot-by-slot rewrites.
    let naive = flickc(
        &[
            "--transcode=xdr:cdr-le",
            "--disable-pass=fuse-transcode",
            "mail.idl",
        ],
        &dir,
    );
    assert!(naive.status.success(), "{naive:?}");
    let text = String::from_utf8_lossy(&naive.stdout);
    assert!(text.contains("pub const FUSED: bool = false;"), "{text}");

    // -o writes <iface>_transcode.rs instead of stubs.
    let written = flickc(&["--transcode=xdr:cdr-le", "-o", "gen", "mail.idl"], &dir);
    assert!(written.status.success(), "{written:?}");
    assert!(dir.join("gen/Mail_transcode.rs").is_file());
    assert!(!dir.join("gen/Mail.rs").exists(), "stub files suppressed");
}

#[test]
fn transcode_rejects_unknown_and_malformed_pairs() {
    let dir = scratch("transcodebad");
    write_input(&dir);
    let out = flickc(&["--transcode=xdr:ebcdic", "mail.idl"], &dir);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown encoding `ebcdic`"), "{err}");
    assert!(err.contains("known encodings:"), "{err}");

    let out = flickc(&["--transcode=xdr", "mail.idl"], &dir);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs SRC:DST"));

    // Typed encodings carry per-item descriptors; there is no fused
    // byte rewrite for them, and the planner must say so.
    let out = flickc(&["--transcode=xdr:mach3", "mail.idl"], &dir);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("flickc: transcode:"));
}

#[test]
fn transcode_stats_report_what_fusion_did() {
    // `pass.fuse-transcode.decisions` is 0 by construction (the pass is
    // a no-op over stub plans); gateway mode reports the plan's effect.
    let dir = scratch("transcodestats");
    std::fs::write(
        dir.join("bench.idl"),
        include_str!("../../../testdata/bench.idl"),
    )
    .expect("write input");
    let counter = |text: &str, name: &str| -> u64 {
        let line = text
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name))
            .unwrap_or_else(|| panic!("--stats missing {name}: {text}"));
        line.split_whitespace().nth(1).unwrap().parse().unwrap()
    };
    let fused = flickc(&["--transcode=xdr:cdr-le", "--stats", "bench.idl"], &dir);
    assert!(fused.status.success(), "{fused:?}");
    let err = String::from_utf8_lossy(&fused.stderr);
    for (name, want) in [
        ("transcode.prim_ops", 0),
        ("transcode.runs", 5),
        ("transcode.run_bytes", 428),
        ("transcode.swapped_bytes", 380),
        ("transcode.bulk_seqs", 2),
        ("transcode.strings", 1),
        ("transcode.outlined", 0),
    ] {
        assert_eq!(counter(&err, name), want, "{name}: {err}");
    }

    let ablated = flickc(
        &[
            "--transcode=xdr:cdr-le",
            "--disable-pass=fuse-transcode",
            "--stats",
            "bench.idl",
        ],
        &dir,
    );
    assert!(ablated.status.success(), "{ablated:?}");
    let err = String::from_utf8_lossy(&ablated.stderr);
    assert_eq!(counter(&err, "transcode.runs"), 0, "{err}");
    assert_eq!(counter(&err, "transcode.bulk_seqs"), 0, "{err}");
    assert!(counter(&err, "transcode.prim_ops") > 0, "{err}");

    // The JSON form carries the same counters; stub mode has none.
    let json = flickc(
        &["--transcode=xdr:cdr-le", "--stats=json", "bench.idl"],
        &dir,
    );
    let err = String::from_utf8_lossy(&json.stderr);
    assert!(err.contains("\"transcode.run_bytes\":428"), "{err}");
    let stubs = flickc(&["--stats", "--emit", "rust", "bench.idl"], &dir);
    assert!(stubs.status.success(), "{stubs:?}");
    let err = String::from_utf8_lossy(&stubs.stderr);
    assert!(!err.lines().any(|l| l.starts_with("transcode.")), "{err}");
}

#[test]
fn stats_text_lists_decision_counters() {
    let dir = scratch("statstext");
    write_input(&dir);
    let out = flickc(&["--stats", "--emit", "rust", "mail.idl"], &dir);
    assert!(out.status.success(), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    for counter in ["mint.nodes", "cast.decls", "plan.hoisted_checks"] {
        assert!(err.contains(counter), "--stats missing {counter}: {err}");
    }
}
