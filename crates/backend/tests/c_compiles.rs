//! Generated C is a complete, compilable translation unit: every
//! interface in the test set passes `cc -fsyntax-only` against the
//! shipped `flick_runtime.h`.  Skipped when no C compiler is present.

use std::io::Write as _;
use std::process::Command;

use flick_backend::{BackEnd, Transport, C_RUNTIME_HEADER};
use flick_idl::diag::Diagnostics;
use flick_pres::Side;

fn cc() -> Option<&'static str> {
    ["cc", "gcc", "clang"]
        .into_iter()
        .find(|cand| Command::new(cand).arg("--version").output().is_ok())
}

fn check_compiles(c_source: &str, tag: &str) {
    let Some(cc) = cc() else {
        eprintln!("no C compiler; skipping");
        return;
    };
    let dir = std::env::temp_dir().join(format!("flick-c-check-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    std::fs::write(dir.join("flick_runtime.h"), C_RUNTIME_HEADER).expect("header");
    let c_path = dir.join("stubs.c");
    std::fs::write(&c_path, c_source).expect("source");
    let out = Command::new(cc)
        .args(["-std=c99", "-fsyntax-only", "-Wall", "-Wno-unused-function"])
        .arg("-I")
        .arg(&dir)
        .arg(&c_path)
        .output()
        .expect("cc runs");
    if !out.status.success() {
        let mut stderr = std::io::stderr();
        let _ = stderr.write_all(&out.stderr);
        panic!("generated C for `{tag}` failed to compile:\n{c_source}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn c_for(idl: &str, iface: &str, t: Transport, tag: &str) {
    let aoi = flick_frontend_corba::parse_str("t.idl", idl);
    for side in [Side::Client, Side::Server] {
        let mut d = Diagnostics::new();
        let p = flick_presgen::corba_c(&aoi, iface, side, &mut d).expect("presentation");
        let out = BackEnd::new(t).compile(&p).expect("backend");
        check_compiles(&out.c_source, tag);
    }
}

/// As [`c_for`], for an ONC `.x` file under the rpcgen presentation.
/// Its client stubs take rpcgen's `CLIENT *` handle, which comes from
/// `<rpc/rpc.h>`; the unit does not include that, so the check declares
/// the handle opaque.
fn rpcgen_c_for(x: &str, program: &str, t: Transport, tag: &str) {
    let aoi = flick_frontend_onc::parse_str("t.x", x);
    for side in [Side::Client, Side::Server] {
        let mut d = Diagnostics::new();
        let p = flick_presgen::rpcgen_c(&aoi, program, side, &mut d).expect("presentation");
        let out = BackEnd::new(t).compile(&p).expect("backend");
        let handle = if side == Side::Client {
            "typedef struct CLIENT CLIENT;\n"
        } else {
            ""
        };
        check_compiles(&(handle.to_owned() + &out.c_source), tag);
    }
}

#[test]
fn mail_c_compiles() {
    c_for(
        "interface Mail { void send(in string msg); };",
        "Mail",
        Transport::IiopTcp,
        "mail",
    );
}

#[test]
fn bench_c_compiles_on_both_onc_and_iiop() {
    let idl = include_str!("../../../testdata/bench.idl");
    c_for(idl, "Bench", Transport::OncTcp, "bench-onc");
    c_for(idl, "Bench", Transport::IiopTcp, "bench-iiop");
}

#[test]
fn a_recursive_rpcgen_struct_compiles() {
    // `struct node { …; node *next; }` names the typedef before
    // `typedef struct node node;` declares it: the member must be
    // spelled `struct node *next`, as `rpcgen -h` spells it.
    let x = include_str!("../../../testdata/list.x");
    rpcgen_c_for(x, "ListProg", Transport::OncTcp, "list-onc");
}

#[test]
fn returns_and_out_params_compile() {
    c_for(
        r"
        struct P { long a; long b; };
        interface Calc {
            long add(in long a, in long b);
            P make(in long a);
            void fetch(in long k, out long v);
        };
        ",
        "Calc",
        Transport::OncTcp,
        "calc",
    );
}

#[test]
fn unions_enums_compile() {
    c_for(
        r"
        enum Kind { K_A, K_B };
        union U switch (long) {
            case 0: long a;
            case 1: double b;
            default: octet raw;
        };
        interface I { void put(in U u, in Kind k); };
        ",
        "I",
        Transport::IiopTcp,
        "union",
    );
}
