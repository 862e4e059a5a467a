//! Table 1: code reuse within the Flick IDL compiler.
//!
//! The paper counts substantive source lines in each phase's shared
//! base library and in each specialized component, showing that
//! presentation generators and back ends are a few percent of the
//! libraries they derive from.  This binary computes the same table
//! for *this* reproduction's source tree.
//!
//! Usage: `cargo run -p flick-bench --bin table1_code_reuse`

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("bench crate lives two levels below the repo root")
        .to_path_buf()
}

/// Counts substantive lines (non-blank, non-comment-only, excluding
/// `#[cfg(test)]` modules) in the `.rs` files under `paths`.
///
/// # Panics
/// Panics, naming the path, if a listed file or directory cannot be
/// read: a stale row must not silently count as zero.
fn count_lines(root: &Path, paths: &[&str]) -> usize {
    let mut total = 0usize;
    for p in paths {
        let full = root.join(p);
        let files: Vec<PathBuf> = if full.is_dir() {
            let mut v = Vec::new();
            collect_rs(&full, &mut v);
            v
        } else {
            vec![full]
        };
        for f in files {
            let text = std::fs::read_to_string(&f)
                .unwrap_or_else(|e| panic!("table 1 lists {}: {e}", f.display()));
            let mut in_tests = false;
            let mut depth = 0i32;
            for line in text.lines() {
                let t = line.trim();
                if t.contains("#[cfg(test)]") {
                    in_tests = true;
                    depth = 0;
                    continue;
                }
                if in_tests {
                    depth += t.matches('{').count() as i32;
                    depth -= t.matches('}').count() as i32;
                    if depth <= 0 && t.contains('}') {
                        in_tests = false;
                    }
                    continue;
                }
                if t.is_empty() || t.starts_with("//") {
                    continue;
                }
                total += 1;
            }
        }
    }
    total
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let rd = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for e in rd.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

fn main() {
    let root = repo_root();
    println!("Table 1 — Code Reuse within this Flick reproduction");
    println!("(substantive Rust lines, tests excluded; percentages are");
    println!(" component lines vs component + base-library lines)\n");
    println!(
        "{:<14} {:<28} {:>7} {:>8}",
        "Phase", "Component", "Lines", "Unique"
    );

    type Component = (&'static str, Vec<&'static str>);
    let phases: Vec<(&str, Vec<Component>)> = vec![
        (
            "Front End",
            vec![
                ("Base Library", vec!["crates/idl/src", "crates/aoi/src"]),
                ("CORBA IDL", vec!["crates/frontend-corba/src"]),
                ("ONC RPC IDL", vec!["crates/frontend-onc/src"]),
                ("MIG", vec!["crates/frontend-mig/src"]),
            ],
        ),
        (
            "Pres. Gen.",
            vec![
                (
                    "Base Library",
                    vec![
                        "crates/mint/src",
                        "crates/cast/src",
                        "crates/pres/src",
                        "crates/presgen/src/build.rs",
                    ],
                ),
                ("CORBA Pres.", vec!["crates/presgen/src/corba.rs"]),
                ("Fluke Pres.", vec!["crates/presgen/src/fluke.rs"]),
                ("ONC RPC rpcgen Pres.", vec!["crates/presgen/src/rpcgen.rs"]),
            ],
        ),
        (
            "Back End",
            vec![
                (
                    "Base Library",
                    vec![
                        "crates/backend/src/layout.rs",
                        "crates/backend/src/mir.rs",
                        "crates/backend/src/plan.rs",
                        "crates/backend/src/passes",
                        "crates/backend/src/verify.rs",
                        "crates/backend/src/cache.rs",
                        "crates/backend/src/transcode.rs",
                        "crates/backend/src/emit_c.rs",
                        "crates/backend/src/c_header.rs",
                        "crates/backend/src/emit_rust.rs",
                        "crates/backend/src/emit_transcode.rs",
                        "crates/backend/src/writer.rs",
                        "crates/runtime/src",
                    ],
                ),
                (
                    "Encodings (IIOP/XDR/Mach/Fluke)",
                    vec!["crates/backend/src/encoding.rs"],
                ),
                ("Transports + driver", vec!["crates/backend/src/lib.rs"]),
            ],
        ),
    ];

    for (phase, comps) in &phases {
        let base = count_lines(&root, &comps[0].1);
        for (i, (name, paths)) in comps.iter().enumerate() {
            let lines = count_lines(&root, paths);
            if i == 0 {
                println!("{:<14} {:<28} {:>7} {:>8}", phase, name, lines, "");
            } else {
                let pct = 100.0 * lines as f64 / (lines + base) as f64;
                println!("{:<14} {:<28} {:>7} {:>7.1}%", "", name, lines, pct);
            }
        }
    }
    println!(
        "\npaper's shape: specializations are small fractions of their base\n\
         library (pres. gens 0-11%, back-end specializations 4-8%; front\n\
         ends larger because each must scan and parse its own language)"
    );
}
