//! Front-end equivalence: what the three parsers make of a fixed set
//! of sources — the contract they print and every diagnostic they
//! raise — is pinned in `testdata/frontend_equiv.golden`.
//!
//! The golden file was written by the parsers as they stood *before*
//! tokens borrowed the source (DESIGN "Who owns a name"), so a pass
//! here means the borrowed lexer and the name-sharing parsers changed
//! no printed contract, no message, no span and no recovery count.  It
//! covers every `testdata/*.{idl,x}` file, the MIG sources the
//! `flick-frontend-mig` tests embed, the parsers' negative cases, and
//! the two places a borrowed slice's end is easiest to get wrong: an
//! identifier at end of input and one directly before a `#` directive.
//!
//! `FLICK_BLESS=1 cargo test --test frontend_equiv` rewrites the file.

use std::fmt::Write as _;
use std::path::PathBuf;

use flick_idl::diag::Diagnostics;
use flick_idl::source::SourceFile;
use flick_pres::Side;

const MIG: &[(&str, &str)] = &[
    (
        "timer.defs",
        r"
        subsystem timer 2400;
        type int_array_t = array[] of int;
        routine set_interval(server : mach_port_t; ticks : int);
        routine send_samples(server : mach_port_t; vals : int_array_t);
        simpleroutine poke(server : mach_port_t);
    ",
    ),
    (
        "named.defs",
        r"
            subsystem t 10;
            type buf_t = array[64] of char;
            routine put(server : mach_port_t; b : buf_t);
            ",
    ),
    (
        "ping.defs",
        "subsystem t 100;\nroutine ping(server : mach_port_t; n : int);\n",
    ),
    // Negative cases.
    (
        "arrays_of_arrays.defs",
        r"
            subsystem x 1;
            routine f(server : mach_port_t; m : array[] of array[4] of int);
            ",
    ),
    ("no_port.defs", "subsystem x 1;\nroutine f(a : int);\n"),
    (
        "unknown_type.defs",
        "subsystem x 1;\nroutine f(p : mach_port_t; a : nope_t);\n",
    ),
    (
        "stray.defs",
        "subsystem x 1;\n} junk ;\nroutine f(p : mach_port_t);\n",
    ),
    // Slice ends: identifier at end of input, and before a directive.
    (
        "eof_ident.defs",
        "subsystem x 1;\nroutine f(p : mach_port_t); type tail",
    ),
    (
        "ident_directive.defs",
        "subsystem x 1;\ntype t = int#pragma here\n;\nroutine f(p : mach_port_t; v : t);\n",
    ),
];

const CORBA: &[(&str, &str)] = &[
    (
        "recover.idl",
        r"
            interface A { void f(in strang x); };
            interface B { void g(in long 7); };
            interface C { void ok(in long x); };
            ",
    ),
    ("dup.idl", "interface A { }; interface A { };"),
    ("strang.idl", "interface X { void f(in strang s); };"),
    ("keyword.idl", "interface interface { void struct(in long in); };"),
    ("base.idl", "interface D : Missing, ::Also::Missing { void f(); };"),
    (
        "consts.idl",
        "const long N = 4 * (2 + M); typedef long A[N]; typedef sequence<long, 0> Z;",
    ),
    (
        "lexical.idl",
        "interface L { void f(in string s); }; $ /* open \"also open\n typedef long x;",
    ),
    (
        "strings.idl",
        "#pragma prefix \"org\\texample\"\nconst long C = 'a' + '\\n' + '\\q';\ninterface S {};",
    ),
    (
        "union.idl",
        "union U switch (double) { case 1: long a; case 1: long b; default: long c; default: long d; };
         interface I { oneway long f(out long x) raises (Nope); };",
    ),
    (
        "scoped.idl",
        "module Geo { struct Point { long x; long y; }; enum Kind { A, B, };
           module In { typedef Point P2; const long K = B; }; };
         interface G { Geo::Point f(in Geo::In::P2 p, in ::Geo::Kind k); attribute long a, b; };",
    ),
    ("unsigned.idl", "interface U { void f(in unsigned float x, in sequence<long x); };"),
    ("stray_brace.idl", "} ; interface Ok { void f(); };"),
    // Slice ends: identifier at end of input, and before a directive.
    ("eof_ident.idl", "interface Mail { void send(in string msg); }; typedef long tail"),
    (
        "ident_directive.idl",
        "struct S { long a; }; typedef S before#pragma after\n; interface I { void f(in before b); };",
    ),
    // ... with the identifier's text in the message.
    ("eof_unknown.idl", "interface A { void f(in nope"),
    ("unknown_directive.idl", "interface A { void f(in nope#pragma x\n s); };"),
];

const ONC: &[(&str, &str)] = &[
    (
        "recover.x",
        r"
            struct broken { int 7; };
            program P { version V { void ok(void) = 1; } = 1; } = 8;
            ",
    ),
    ("unnamed.x", "program Mail { version V { void send(string) = 1; } = 1; } = 2;"),
    (
        "types.x",
        "const N = 3; enum color { RED, GREEN = 5, BLUE };
         typedef opaque blob<>; typedef opaque key[N]; typedef opaque bad;
         struct s { unsigned hyper h; unsigned u; struct color c; nope n; string name<N>; s *next; };
         union u switch (int kind) { case RED: int r; case TRUE: void; default: struct { int a; } anon; };
         program P { version V1 { s get(int, color) = 1; } = 1; version V2 { void put(s) = 1; } = 2; } = 9;",
    ),
    ("keyword.x", "typedef int struct; const = 4; typedef void v;"),
    ("values.x", "const A = -MISSING; typedef int arr[A]; typedef int seq<FALSE>;"),
    ("program.x", "program P { nonsense; version V { int (int) = 1; int f(int a = 2; } = ; } = 1;"),
    ("stray_brace.x", "} typedef int ok;"),
    // Slice ends: identifier at end of input, and before a directive.
    ("eof_ident.x", "const N = 4;\ntypedef int last"),
    (
        "ident_directive.x",
        "enum e { A, B#line 3\n}; program P { version V { e f(e) = 1; } = 1; } = 2;",
    ),
    ("eof_unknown.x", "typedef int ok; typedef nope"),
    ("unknown_directive.x", "typedef nope#line 9\n t;"),
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// One case's section of the report: the diagnostics (count, errors,
/// rendered with their spans), then the recovered contract.
fn section(out: &mut String, file: &SourceFile, diags: &Diagnostics, contract: Option<String>) {
    let _ = writeln!(
        out,
        "==== {} ====\ndiagnostics: {} ({} errors)",
        file.name(),
        diags.len(),
        diags.error_count()
    );
    out.push_str(&diags.render_all(file));
    match contract {
        Some(text) => {
            let _ = writeln!(out, "---- contract ----\n{text}");
        }
        None => out.push_str("---- no contract ----\n"),
    }
}

fn report() -> String {
    let mut out = String::new();
    let mut checked_in: Vec<PathBuf> = std::fs::read_dir(root().join("testdata"))
        .expect("testdata/")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "idl" || x == "x"))
        .collect();
    checked_in.sort();
    let checked_in: Vec<(String, String)> = checked_in
        .iter()
        .map(|p| {
            let name = p
                .file_name()
                .expect("a file")
                .to_string_lossy()
                .into_owned();
            (name, std::fs::read_to_string(p).expect("readable"))
        })
        .collect();
    let inline = |cases: &[(&str, &str)]| -> Vec<(String, String)> {
        let owned = |(n, t): &(&str, &str)| (n.to_string(), t.to_string());
        cases.iter().map(owned).collect()
    };
    for (name, text) in checked_in
        .into_iter()
        .chain(inline(CORBA))
        .chain(inline(ONC))
    {
        let file = SourceFile::new(name.as_str(), text);
        let mut diags = Diagnostics::new();
        let aoi = if name.ends_with(".idl") {
            flick_frontend_corba::parse(&file, &mut diags)
        } else {
            flick_frontend_onc::parse(&file, &mut diags)
        };
        section(&mut out, &file, &diags, Some(aoi.to_pretty()));
    }
    for (name, text) in MIG {
        for side in [Side::Client, Side::Server] {
            let file = SourceFile::new(*name, *text);
            let mut diags = Diagnostics::new();
            let presc = flick_frontend_mig::parse(&file, side, &mut diags);
            section(&mut out, &file, &diags, presc.map(|p| p.to_pretty()));
        }
    }
    out
}

#[test]
fn parsers_print_the_contracts_and_diagnostics_they_always_did() {
    let path = root().join("testdata/frontend_equiv.golden");
    let fresh = report();
    if std::env::var_os("FLICK_BLESS").is_some() {
        std::fs::write(&path, &fresh).expect("writable golden file");
    }
    let golden = std::fs::read_to_string(&path).expect("testdata/frontend_equiv.golden");
    if golden != fresh {
        let at = golden
            .lines()
            .zip(fresh.lines())
            .position(|(g, f)| g != f)
            .unwrap_or_else(|| golden.lines().count().min(fresh.lines().count()));
        panic!(
            "front-end output differs from testdata/frontend_equiv.golden at line {}:\n  golden: {:?}\n  fresh:  {:?}",
            at + 1,
            golden.lines().nth(at),
            fresh.lines().nth(at)
        );
    }
}
