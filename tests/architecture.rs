//! Structural rules of the source tree, checked where the work
//! happens: each test reads files with `std::fs` and refuses a spelling
//! that would bring back a removed mechanism, or put a decision in a
//! second place.  A rule that exempts test code drops a file's
//! `#[cfg(test)]` tail first, from the first line that carries the
//! attribute to the end, as `sed '/#\[cfg(test)\]/,$d'` would.

use std::path::{Path, PathBuf};

/// The checkout's root.
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    let path = root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `text` without its `#[cfg(test)]` tail.
fn non_test(text: &str) -> &str {
    let mut at = 0;
    for line in text.split_inclusive('\n') {
        if line.contains("#[cfg(test)]") {
            return &text[..at];
        }
        at += line.len();
    }
    text
}

/// Every file under `dir`, recursively, relative to the root, sorted.
fn files(dir: &str) -> Vec<String> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        for entry in entries {
            let path = entry.expect("a directory entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut found = Vec::new();
    walk(&root().join(dir), &mut found);
    let mut files: Vec<String> = found
        .iter()
        .map(|p| {
            let rel = p.strip_prefix(root()).expect("under the root");
            rel.to_string_lossy().replace('\\', "/")
        })
        .collect();
    files.sort();
    files
}

/// Every `.rs` file under `dir`, recursively, relative to the root.
fn rust_files(dir: &str) -> Vec<String> {
    let mut files = files(dir);
    files.retain(|f| f.ends_with(".rs"));
    files
}

/// `rel`'s bytes as text, whatever they hold (as `grep -r` reads every
/// file, not only the UTF-8 ones).
fn read_any(rel: &str) -> String {
    let path = root().join(rel);
    let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The `file:line: text` of every line of `text` that `bad` flags.
fn offending(file: &str, text: &str, bad: impl Fn(&str) -> bool) -> Vec<String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| bad(line))
        .map(|(i, line)| format!("{file}:{}: {}", i + 1, line.trim()))
        .collect()
}

/// True when `line` holds `word` followed by anything but an
/// identifier character (the regex `word\b`).
fn has_word(line: &str, word: &str) -> bool {
    line.match_indices(word).any(|(at, _)| {
        let next = line[at + word.len()..].chars().next();
        !next.is_some_and(|c| c.is_alphanumeric() || c == '_')
    })
}

/// The Rust stub emitter, the gateway emitter and the writer under
/// them.
const RUST_EMITTERS: [&str; 3] = [
    "crates/backend/src/writer.rs",
    "crates/backend/src/emit_rust.rs",
    "crates/backend/src/emit_transcode.rs",
];

#[test]
fn the_rust_emitters_write_pieces_not_core_fmt() {
    // Every line goes into one buffer as `Piece`s: no `Display` impl,
    // no `format_args!` or `write!`, no line-formatting helper; and
    // the backend denies `format_push_string` outright.
    let mut bad = Vec::new();
    for file in RUST_EMITTERS {
        bad.extend(offending(file, &read(file), |l| {
            ["impl Display", "format_args!", "write!(", "line_fmt"]
                .iter()
                .any(|s| l.contains(s))
        }));
    }
    assert!(
        bad.is_empty(),
        "core::fmt in a Rust emitter:\n{}",
        bad.join("\n")
    );
    assert!(
        read("crates/backend/src/lib.rs").contains("deny(clippy::format_push_string)"),
        "flick-backend must deny clippy::format_push_string"
    );
}

#[test]
fn no_explicit_depth_writer_api() {
    // The writer tracks nesting itself (`put!` / `open!` / `close`);
    // nothing writes a line at a depth it names.
    let mut bad = Vec::new();
    for file in RUST_EMITTERS {
        bad.extend(offending(file, &read(file), |l| {
            ["line!(", "fn line(", "fn indent(", ".indent("]
                .iter()
                .any(|s| l.contains(s))
        }));
    }
    assert!(
        bad.is_empty(),
        "an explicit-depth writer API:\n{}",
        bad.join("\n")
    );
}

#[test]
fn the_gateway_emitter_defines_no_wire_accessor_of_its_own() {
    // The gateway reads and writes through `emit_rust.rs`'s accessors.
    let file = "crates/backend/src/emit_transcode.rs";
    let text = read(file);
    let bad = offending(file, non_test(&text), |l| {
        ["struct Read", "struct Sfx"]
            .iter()
            .chain(&[
                "fn emit_write",
                "fn read_len",
                "fn src_align",
                "fn dst_align",
            ])
            .any(|w| has_word(l, w))
    });
    assert!(
        bad.is_empty(),
        "a gateway wire accessor:\n{}",
        bad.join("\n")
    );
}

#[test]
fn only_encoding_and_plan_ask_a_scalars_wire_form() {
    // Lowering records every scalar's wire form in the MIR; nothing
    // downstream of it asks the encoding again.
    let allowed = [
        "crates/backend/src/encoding.rs",
        "crates/backend/src/plan.rs",
    ];
    let asking: Vec<String> = rust_files("crates/backend/src")
        .into_iter()
        .filter(|f| !allowed.contains(&f.as_str()))
        .filter(|f| {
            let text = read(f);
            [".prim(", ".elem_prim(", ".prim_for_size("]
                .iter()
                .any(|s| text.contains(s))
        })
        .collect();
    assert!(
        asking.is_empty(),
        "asks an encoding for a scalar's wire form: {asking:?}"
    );
}

/// The checked-in stub modules: every generated module but the
/// gateways.
fn stub_modules() -> Vec<String> {
    let files = rust_files("crates/bench/src/generated").into_iter();
    let stubs = files.filter(|f| !f.ends_with("/mod.rs") && !f.contains("/transcode_"));
    stubs.collect()
}

#[test]
fn a_stub_module_defines_one_dispatcher() {
    // `dispatch_by_name` under CDR, `dispatch` under every other
    // encoding: never both in one module.
    let both: Vec<String> = stub_modules()
        .into_iter()
        .filter(|f| {
            let text = read(f);
            text.contains("pub fn dispatch<") && text.contains("pub fn dispatch_by_name<")
        })
        .collect();
    assert!(both.is_empty(), "two dispatchers: {both:?}");
}

/// The `file:line: op` of every dispatcher arm in `text` that neither
/// calls `decode_<op>_request` nor decodes from a `merge-prefix` count
/// (the one arm shape that decodes in line).
fn arms_decoding_in_line(file: &str, text: &str) -> Vec<String> {
    let mut bad = Vec::new();
    let mut arm: Option<(usize, &str, bool)> = None;
    for (i, line) in text.lines().enumerate() {
        if let Some(rest) = line.split("server_begin(\"").nth(1) {
            let op = rest.split('"').next().unwrap_or_default();
            arm = Some((i + 1, op, false));
        }
        let Some((at, op, called)) = arm.as_mut() else {
            continue;
        };
        let call = ["decode_", op, "_request("].concat();
        *called |= line.contains(&call) || line.contains("merge-prefix: count decoded above");
        if line.contains("_sspan.finish(") {
            if !*called {
                bad.push(format!("{file}:{at}: {op}"));
            }
            arm = None;
        }
    }
    bad
}

#[test]
fn every_dispatcher_arm_calls_its_request_decoder() {
    // One body per message: an arm decodes through the operation's own
    // `decode_<op>_request`, so the dispatcher and a client cannot
    // drift apart; only an arm under a merged prefix decodes in line.
    let mut bad = Vec::new();
    for file in stub_modules() {
        bad.extend(arms_decoding_in_line(&file, &read(&file)));
    }
    assert!(
        bad.is_empty(),
        "dispatcher arms that decode in line:\n{}",
        bad.join("\n")
    );
}

#[test]
fn unsafe_in_the_runtime_is_only_in_pod_rs() {
    // `pod.rs` is the runtime's one home for `unsafe` (the byte views
    // of plain-old-data slices); no other runtime file, test code
    // included, spells it.
    let mut bad = Vec::new();
    for file in rust_files("crates/runtime/src") {
        if file != "crates/runtime/src/pod.rs" {
            bad.extend(offending(&file, &read(&file), |l| l.contains("unsafe")));
        }
    }
    assert!(
        bad.is_empty(),
        "`unsafe` in the runtime outside pod.rs:\n{}",
        bad.join("\n")
    );
}

/// True for a generated module's one allowed `unsafe` line,
/// `unsafe impl flick_runtime::pod::Pod for <Name> {}`.
fn is_pod_impl(line: &str) -> bool {
    let name = line
        .strip_prefix("unsafe impl flick_runtime::pod::Pod for ")
        .and_then(|rest| rest.strip_suffix(" {}"));
    name.is_some_and(|n| !n.is_empty() && n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'))
}

#[test]
fn generated_modules_hold_no_unsafe_but_pod_impls() {
    // A checked-in module asserts an image struct is plain old data and
    // nothing else: every byte view is the runtime's.
    let mut bad = Vec::new();
    for file in rust_files("crates/bench/src/generated") {
        let text = read(&file);
        bad.extend(offending(&file, &text, |l| {
            l.contains("unsafe") && !is_pod_impl(l)
        }));
    }
    assert!(
        bad.is_empty(),
        "`unsafe` in a generated module beyond a Pod impl:\n{}",
        bad.join("\n")
    );
}

#[test]
fn front_ends_and_presgen_share_names_and_read_types_in_place() {
    // A token borrows the source (no `Ident(String)`), and a type is
    // matched where the AOI holds it, never cloned out of its arena
    // (DESIGN "Who owns a name").
    let dirs = [
        "crates/idl/src",
        "crates/frontend-corba/src",
        "crates/frontend-onc/src",
        "crates/frontend-mig/src",
        "crates/presgen/src",
    ];
    let cloned_type = |l: &str| {
        l.match_indices(".types.get(")
            .any(|(at, _)| l[at..].contains(").clone()"))
    };
    let mut bad = Vec::new();
    for file in dirs.iter().flat_map(|d| rust_files(d)) {
        let text = read(&file);
        bad.extend(offending(&file, &text, |l| {
            l.contains("Ident(String") || cloned_type(l)
        }));
    }
    assert!(
        bad.is_empty(),
        "an owned token or a cloned AOI type:\n{}",
        bad.join("\n")
    );
}

/// Files outside the runtime and the generated modules that may spell
/// `unsafe`, and on how many lines.
const UNSAFE_SITES: [(&str, usize, &str); 6] = [
    (
        "crates/stablehash/src/name.rs",
        1,
        "the inline name's unchecked UTF-8 read",
    ),
    (
        "crates/backend/src/emit_rust.rs",
        3,
        "the Pod impl it writes into a module, and the test counting it",
    ),
    (
        "crates/telemetry/src/events.rs",
        6,
        "the lock-free event ring",
    ),
    (
        "crates/bench/src/allocwatch.rs",
        7,
        "a counting global allocator",
    ),
    ("crates/perf/src/alloc.rs", 7, "a counting global allocator"),
    (
        "crates/stablehash/tests/name_contract.rs",
        5,
        "a counting global allocator",
    ),
];

#[test]
fn outside_the_runtime_the_only_unsafe_is_the_inline_name_read() {
    // In the compiler, `unsafe` is one line: `Name`'s read of the bytes
    // it copied whole from `&str`s.  Elsewhere outside the runtime and
    // the generated modules (each held by its own rule) it is only the
    // listed sites, each on exactly as many lines as listed; this file
    // spells the word only to look for it.
    let mut found: Vec<(String, usize)> = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        for file in rust_files(dir) {
            let skip = file.starts_with("crates/runtime/")
                || file.starts_with("crates/bench/src/generated/")
                || file == "tests/architecture.rs";
            let lines = read(&file)
                .lines()
                .filter(|l| has_word(l, "unsafe"))
                .count();
            if !skip && lines > 0 {
                found.push((file, lines));
            }
        }
    }
    let mut listed: Vec<(String, usize)> = UNSAFE_SITES
        .iter()
        .map(|&(file, lines, _)| (file.to_owned(), lines))
        .collect();
    found.sort();
    listed.sort();
    assert_eq!(
        found, listed,
        "`unsafe` outside the runtime, by file and line count; allowed: {UNSAFE_SITES:?}"
    );
}

#[test]
fn the_transports_wake_only_through_chan_wake() {
    // std's `Condvar` pays a futex syscall per notify, waiter or not:
    // every wakeup in the transports goes through the waiter-counted
    // `chan::Wake`, test code included.
    let mut bad = Vec::new();
    for file in rust_files("crates/transport/src") {
        if file != "crates/transport/src/chan.rs" {
            let text = read(&file);
            bad.extend(offending(&file, &text, |l| {
                l.contains("notify_one") || l.contains("notify_all")
            }));
        }
    }
    assert!(
        bad.is_empty(),
        "a bare condvar notify outside chan.rs:\n{}",
        bad.join("\n")
    );
}

#[test]
fn the_header_readers_never_read_the_clock() {
    // A request's arrival time comes from `deadline::arrival_now()`:
    // one clock read per pump round, not two per request.
    let mut bad = Vec::new();
    for file in ["crates/runtime/src/oncrpc.rs", "crates/runtime/src/giop.rs"] {
        let text = read(file);
        bad.extend(offending(file, non_test(&text), |l| {
            l.contains("Instant::now") || l.contains(".elapsed()")
        }));
    }
    assert!(
        bad.is_empty(),
        "a header reader reads the clock:\n{}",
        bad.join("\n")
    );
}

/// True when `line` names a context-blob length or a blob helper (the
/// regex `BLOB|TRACE_BYTES|BUDGETED_BYTES|_blob[a-z_]*\(|TraceContext::(en|de)code`).
fn names_a_blob(line: &str) -> bool {
    let helper = line.match_indices("_blob").any(|(at, _)| {
        let rest = line[at + "_blob".len()..]
            .trim_start_matches(|c: char| c.is_ascii_lowercase() || c == '_');
        rest.starts_with('(')
    });
    helper
        || [
            "BLOB",
            "TRACE_BYTES",
            "BUDGETED_BYTES",
            "TraceContext::encode",
            "TraceContext::decode",
        ]
        .iter()
        .any(|w| line.contains(w))
}

#[test]
fn only_trace_rs_knows_a_context_blob_length() {
    // The FLKT context's 0/16/24-byte forms are `trace::WireContext`'s
    // to know: the protocol modules and the fabric frame it and ask its
    // `wire_len()`.
    let mut bad = Vec::new();
    for file in [
        "crates/runtime/src/oncrpc.rs",
        "crates/runtime/src/giop.rs",
        "crates/runtime/src/fabric.rs",
    ] {
        let text = read(file);
        bad.extend(offending(file, non_test(&text), names_a_blob));
    }
    assert!(
        bad.is_empty(),
        "a context blob length outside trace.rs:\n{}",
        bad.join("\n")
    );
}

#[test]
fn a_datagram_crosses_in_a_pooled_buffer() {
    // No per-message `Vec`: a datagram's payload is a `PooledBuf`.
    let file = "crates/transport/src/datagram.rs";
    let text = read(file);
    let bad = offending(file, non_test(&text), |l| l.contains("to_vec()"));
    assert!(
        bad.is_empty(),
        "a datagram is copied into a Vec:\n{}",
        bad.join("\n")
    );
}

#[test]
fn the_reply_sink_is_a_connections_only_outbound_queue() {
    let file = "crates/runtime/src/fabric.rs";
    let text = read(file);
    let bad = offending(file, non_test(&text), |l| l.contains("outbuf"));
    assert!(
        bad.is_empty(),
        "the fabric stages replies outside the sink:\n{}",
        bad.join("\n")
    );
}

/// The lines of every file under `dirs` (all files, or only `.rs`
/// ones) that hold any of `words` — this file aside, which spells them
/// only to look for them.
fn spelling_anywhere(dirs: &[&str], rust_only: bool, words: &[&str]) -> Vec<String> {
    let mut bad = Vec::new();
    for dir in dirs {
        let listed = if rust_only {
            rust_files(dir)
        } else {
            files(dir)
        };
        for file in listed {
            if file != "tests/architecture.rs" {
                let text = read_any(&file);
                bad.extend(offending(&file, &text, |l| {
                    words.iter().any(|w| l.contains(w))
                }));
            }
        }
    }
    bad
}

#[test]
fn limits_has_one_frame_cap() {
    // ONC's record cap and GIOP's message cap were one frame cap under
    // two names; `Limits::max_frame_bytes` is the only one.
    let mut bad = spelling_anywhere(
        &["crates", "tests"],
        false,
        &["max_record_bytes", "max_message_bytes"],
    );
    let file = "crates/runtime/src/limits.rs";
    let text = read(file);
    let body = text
        .split_once("pub struct Limits {")
        .and_then(|(_, rest)| rest.split_once("\n}"))
        .expect("`pub struct Limits` in limits.rs")
        .0;
    let caps: Vec<&str> = body
        .lines()
        .filter_map(|l| l.trim().strip_prefix("pub ")?.split_once(':'))
        .map(|(field, _)| field)
        .filter(|f| f.starts_with("max_") && f.ends_with("_bytes"))
        .collect();
    if caps != ["max_frame_bytes"] {
        bad.push(format!("{file}: `Limits`' byte caps are {caps:?}"));
    }
    assert!(bad.is_empty(), "a second frame cap:\n{}", bad.join("\n"));
}

#[test]
fn telemetry_hooks_are_not_feature_gated() {
    // One build: the hooks are always compiled in and switched at run
    // time, so no crate declares a feature to gate them.
    let mut bad = spelling_anywhere(
        &["crates", "src", "tests", "examples"],
        false,
        &["feature = \"telemetry\""],
    );
    let manifests: Vec<String> = std::iter::once("Cargo.toml".to_owned())
        .chain(
            files("crates")
                .into_iter()
                .filter(|f| f.ends_with("/Cargo.toml")),
        )
        .collect();
    for file in &manifests {
        let text = read(file);
        bad.extend(offending(file, &text, |l| {
            l.contains("feature = \"telemetry\"") || l.trim() == "[features]"
        }));
    }
    assert!(bad.is_empty(), "a feature-gated hook:\n{}", bad.join("\n"));
}

#[test]
fn passes_are_named_one_way() {
    // Which passes run is one `PassSet`; the option structs, flags and
    // thresholds it replaced stay gone.
    let bad = spelling_anywhere(
        &["crates", "src", "tests", "examples"],
        true,
        &[
            "OptFlags",
            "disabled_passes",
            "param_mgmt",
            "bounded_threshold",
            "Parallelism",
            "from_opts",
        ],
    );
    assert!(
        bad.is_empty(),
        "a second way to name a pass:\n{}",
        bad.join("\n")
    );
}

/// The `file:line: text` of every line of `file` (less its
/// `#[cfg(test)]` tail where `tests_exempt`) that holds any of `words`.
fn spelling_in(file: &str, tests_exempt: bool, words: &[&str]) -> Vec<String> {
    let text = read_any(file);
    let text = if tests_exempt { non_test(&text) } else { &text };
    offending(file, text, |l| words.iter().any(|w| l.contains(w)))
}

#[test]
fn the_gateway_reads_the_stubs_mir_not_the_presentation() {
    // The gateway is planned from the endpoints' naive MIR: it reads no
    // PRES node, and asks no element form or pad of its own.
    let words = ["presc.pres.get", "elem_prim", "trailing_pad"];
    let bad = spelling_in("crates/backend/src/transcode.rs", true, &words);
    assert!(
        bad.is_empty(),
        "the gateway reads PRES:\n{}",
        bad.join("\n")
    );
}

#[test]
fn the_backend_keeps_no_reverse_lists() {
    // A gateway facing the other way is the swapped encoding pair, so a
    // module has request and reply lists only.
    let bad: Vec<String> = rust_files("crates/backend/src")
        .iter()
        .flat_map(|f| spelling_in(f, true, &["_rev", "request_by_name"]))
        .collect();
    assert!(bad.is_empty(), "a reverse list:\n{}", bad.join("\n"));
}

#[test]
fn the_cast_printer_has_no_display_impl_and_no_format_args() {
    // The C printer writes pieces into one buffer, as the Rust
    // emitters do.
    let words = ["impl Display", "format_args!", "writeln!("];
    let bad = spelling_in("crates/cast/src/printer.rs", false, &words);
    assert!(bad.is_empty(), "the printer formats:\n{}", bad.join("\n"));
}

#[test]
fn the_cast_printer_calls_write_only_at_its_float_literal() {
    let file = "crates/cast/src/printer.rs";
    let bad = offending(file, &read(file), |l| {
        l.contains("write!(") && !l.contains("{v:?}")
    });
    assert!(bad.is_empty(), "a `write!` call:\n{}", bad.join("\n"));
}

#[test]
fn the_plan_cache_lives_in_memory_and_has_no_budget() {
    // No plan pickle, no disk tier, no pass budget.
    let words = [
        "serialize_unit",
        "deserialize_unit",
        "CACHE_FORMAT",
        "with_cache_dir",
        "run_budgeted",
        "std::fs",
    ];
    let mut bad = spelling_anywhere(&["crates/backend/src"], false, &words);
    bad.extend(spelling_in("crates/core/src/session.rs", false, &words));
    assert!(bad.is_empty(), "a cache tier:\n{}", bad.join("\n"));
}

#[test]
fn flickc_has_no_per_pass_flag() {
    // `--disable-pass=NAME` is the one way to drop a pass.
    let bad = spelling_in("crates/core/src/bin/flickc.rs", false, &["--no-hoist"]);
    assert!(bad.is_empty(), "a per-pass flag:\n{}", bad.join("\n"));
}

#[test]
fn only_lowering_reads_the_pres_arena() {
    let bad: Vec<String> = files("crates/backend/src")
        .into_iter()
        .filter(|f| f != "crates/backend/src/plan.rs" && read_any(f).contains("pres.get("))
        .collect();
    assert!(bad.is_empty(), "reads the PRES arena: {bad:?}");
}

#[test]
fn the_mir_names_no_pres_id() {
    let bad = spelling_in("crates/backend/src/mir.rs", false, &["PresId"]);
    assert!(bad.is_empty(), "the MIR names PRES:\n{}", bad.join("\n"));
}

#[test]
fn the_plan_cache_restores_by_a_clone() {
    // A cached unit is the plan itself, cloned out: no walk over PRES
    // ids, no expansion record.
    let words = ["for_each_pres_id", "Expansion"];
    let bad = spelling_in("crates/backend/src/cache.rs", false, &words);
    assert!(bad.is_empty(), "a cache expansion:\n{}", bad.join("\n"));
}

#[test]
fn the_helpers_read_as_the_ci_rules_did() {
    assert_eq!(non_test("a\n#[cfg(test)]\nmod t {}\n"), "a\n");
    assert_eq!(non_test("a\nb\n"), "a\nb\n");
    assert!(has_word("struct Read {", "struct Read"));
    assert!(!has_word("struct Reader {", "struct Read"));
    assert!(names_a_blob("let n = put_blob_into(buf);"));
    assert!(names_a_blob("let n = get_blob(buf);"));
    assert!(names_a_blob("x.len() == BUDGETED_BYTES"));
    assert!(names_a_blob("TraceContext::decode(r)"));
    assert!(!names_a_blob("let blob = ctx.wire_len();"));
    assert!(!names_a_blob("let n = has_blob_len;"));
    assert!(has_word("fn read_len", "fn read_len"));
    assert!(rust_files("crates/backend/src")
        .iter()
        .any(|f| f == "crates/backend/src/passes/mod.rs"));
    let arm = |decode: &str| {
        [
            "server_begin(\"f\");",
            decode,
            "srv.f(_v1);",
            "_sspan.finish(reply.len() as u64);",
        ]
        .join("\n")
    };
    assert!(
        arms_decoding_in_line("m", &arm("let (_v1, ) = decode_f_request(&mut r)?;")).is_empty()
    );
    assert!(arms_decoding_in_line(
        "m",
        &arm("let _len2 = _plen1; // merge-prefix: count decoded above the switch")
    )
    .is_empty());
    assert_eq!(
        arms_decoding_in_line("m", &arm("let _v1 = r.get_u32_le()? as i32;")),
        ["m:1: f"]
    );
    let stubs = stub_modules();
    assert!(
        stubs.iter().any(|f| f.ends_with("/iiop_bench.rs")),
        "{stubs:?}"
    );
    assert!(!stubs.iter().any(|f| f.contains("transcode_")), "{stubs:?}");
    assert!(is_pod_impl(
        "unsafe impl flick_runtime::pod::Pod for rect {}"
    ));
    assert!(!is_pod_impl(
        "unsafe impl flick_runtime::pod::Pod for rect { }"
    ));
    assert!(!is_pod_impl(
        "    unsafe impl flick_runtime::pod::Pod for rect {}"
    ));
    assert!(!is_pod_impl("unsafe { std::ptr::read(p) }"));
}
