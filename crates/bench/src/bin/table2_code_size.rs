//! Table 2: object code sizes for the directory-interface stubs.
//!
//! The paper compares compiled stub sizes (plus required marshal
//! library code) across compilers, making the point that Flick's
//! aggressive inlining often *shrinks* total code because the
//! out-of-line call machinery and general-purpose library routines
//! disappear.  We measure the analogous quantity available to a pure
//! source-level reproduction: generated stub code size with inlining
//! on vs off, plus the per-style runtime library share, in source
//! lines and bytes of both C and Rust output.
//!
//! Usage: `cargo run -p flick-bench --bin table2_code_size`

use std::process::Command;

use flick::{Compiler, Frontend, PassSet, Style, Transport};
use flick_backend::C_RUNTIME_HEADER;
use flick_pres::Side;

const DIR_IDL: &str = include_str!("../../../../testdata/bench.idl");

struct Sizes {
    c_lines: usize,
    c_bytes: usize,
    rust_bytes: usize,
    object_bytes: Option<usize>,
}

/// Compiles the generated C with the host C compiler (`-O2 -c`) and
/// returns the object file size — the quantity the paper's Table 2
/// actually reports.  `None` when no C compiler is installed.
fn object_size(c_source: &str, tag: &str) -> Option<usize> {
    let cc = ["cc", "gcc", "clang"]
        .into_iter()
        .find(|c| Command::new(c).arg("--version").output().is_ok())?;
    let dir = std::env::temp_dir().join(format!("flick-table2-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).ok()?;
    std::fs::write(dir.join("flick_runtime.h"), C_RUNTIME_HEADER).ok()?;
    let c_path = dir.join("stubs.c");
    let o_path = dir.join("stubs.o");
    std::fs::write(&c_path, c_source).ok()?;
    let status = Command::new(cc)
        .args(["-std=c99", "-O2", "-c", "-o"])
        .arg(&o_path)
        .arg(&c_path)
        .status()
        .ok()?;
    if !status.success() {
        return None;
    }
    let n = std::fs::metadata(&o_path).ok()?.len() as usize;
    let _ = std::fs::remove_dir_all(&dir);
    Some(n)
}

fn sizes(opts: PassSet, tag: &str) -> Sizes {
    let out = Compiler::new(Frontend::Corba, Style::CorbaC, Transport::OncTcp)
        .with_opts(opts)
        .compile_source("bench.idl", DIR_IDL, "Bench", Side::Client)
        .expect("compiles");
    Sizes {
        c_lines: out.c_source.lines().count(),
        c_bytes: out.c_source.len(),
        rust_bytes: out.rust_source.len(),
        object_bytes: object_size(&out.c_source, tag),
    }
}

fn row(name: &str, s: &Sizes) {
    let obj = s
        .object_bytes
        .map_or_else(|| "n/a".to_string(), |n| n.to_string());
    println!(
        "{:<26} {:>8} {:>9} {:>9} {:>10}",
        name, s.c_lines, s.c_bytes, obj, s.rust_bytes
    );
}

fn main() {
    println!("Table 2 — Stub Code Sizes (directory interface)\n");
    println!(
        "{:<26} {:>8} {:>9} {:>9} {:>10}",
        "Configuration", "C lines", "C bytes", "obj bytes", "Rust bytes"
    );
    let inlined = sizes(PassSet::all(), "inline");
    row("Flick (inlined marshal)", &inlined);
    let call_per_type = PassSet::all()
        .without("inline-marshal")
        .and_then(|set| set.without("form-chunks"))
        .expect("removable passes");
    let no_inline = sizes(call_per_type, "outline");
    row("call-per-type (no inline)", &no_inline);
    let noopt = sizes(PassSet::none(), "noopt");
    row("all optimizations off", &noopt);

    if let (Some(a), Some(b)) = (inlined.object_bytes, no_inline.object_bytes) {
        println!(
            "\ninlined / call-per-type object size: {:.2}x  (paper: inlining\n\
             often *decreases* compiled stub size for interfaces like this)",
            a as f64 / b as f64
        );
    }
}
