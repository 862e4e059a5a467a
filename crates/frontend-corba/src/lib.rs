//! The CORBA IDL front end: parses CORBA 2.0 IDL and produces AOI.
//!
//! Coverage follows what the paper's evaluation needs plus the bulk of
//! the CORBA 2.0 type system: modules, interfaces (with inheritance and
//! forward declarations), `typedef`, `struct`, discriminated `union`,
//! `enum`, `const`, `exception`, `attribute` (incl. `readonly`),
//! `oneway` operations, `raises` clauses, `sequence<>`, bounded and
//! unbounded `string`, and fixed-size arrays.  `#include`/`#pragma`
//! directives are tolerated and skipped (the paper's compiler defers to
//! `cpp`; our tests feed pre-expanded sources).
//!
//! The front end is completely independent of later phases: its output
//! is a high-level network contract suitable for input to any
//! presentation generator and any back end (paper §2.1).

mod parser;

use flick_aoi::Aoi;
use flick_idl::diag::Diagnostics;
use flick_idl::source::SourceFile;

/// Parses CORBA IDL source text into an AOI contract.
///
/// Problems are recorded in `diags`; on error the returned contract
/// contains whatever was recovered (callers must check
/// [`Diagnostics::has_errors`] before using it).
#[must_use]
pub fn parse(file: &SourceFile, diags: &mut Diagnostics) -> Aoi {
    let toks = flick_idl::lex(file, diags);
    let mut p = parser::Parser::new(&toks);
    let aoi = p.parse_specification();
    diags.append(&mut p.cursor.diags);
    if !diags.has_errors() {
        aoi.validate(diags);
    }
    aoi
}

/// Convenience wrapper: parse a string, panicking on any error.
///
/// Intended for tests and examples.
///
/// # Panics
/// Panics with rendered diagnostics if the source has errors.
#[must_use]
pub fn parse_str(name: &str, text: &str) -> Aoi {
    let file = SourceFile::new(name, text);
    let mut diags = Diagnostics::new();
    let aoi = parse(&file, &mut diags);
    assert!(
        !diags.has_errors(),
        "CORBA IDL errors:\n{}",
        diags.render_all(&file)
    );
    aoi
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_aoi::{ParamDir, PrimType, Type, UnionLabel};

    /// The paper's §1 example, verbatim.
    const MAIL: &str = r"
        interface Mail {
            void send(in string msg);
        };
    ";

    #[test]
    fn paper_mail_example() {
        let aoi = parse_str("mail.idl", MAIL);
        let mail = aoi.interface("Mail").expect("Mail parsed");
        assert_eq!(mail.ops.len(), 1);
        let send = mail.op("send").unwrap();
        assert!(!send.oneway);
        assert_eq!(send.params.len(), 1);
        assert_eq!(send.params[0].dir, ParamDir::In);
        assert!(matches!(
            aoi.types.get(aoi.types.resolve(send.params[0].ty)),
            Type::String { bound: None }
        ));
        assert!(matches!(
            aoi.types.get(aoi.types.resolve(send.ret)),
            Type::Prim(PrimType::Void)
        ));
    }

    #[test]
    fn base_types_map() {
        let aoi = parse_str(
            "t.idl",
            r"interface T {
                void f(in long a, in unsigned long b, in short c,
                       in unsigned short d, in octet e, in char g,
                       in boolean h, in float i, in double j,
                       in long long k, in unsigned long long l);
            };",
        );
        let f = aoi.interface("T").unwrap().op("f").unwrap();
        let prims: Vec<PrimType> = f
            .params
            .iter()
            .map(|p| match aoi.types.get(aoi.types.resolve(p.ty)) {
                Type::Prim(pt) => *pt,
                other => panic!("expected prim, got {other:?}"),
            })
            .collect();
        assert_eq!(
            prims,
            [
                PrimType::Long,
                PrimType::ULong,
                PrimType::Short,
                PrimType::UShort,
                PrimType::Octet,
                PrimType::Char,
                PrimType::Boolean,
                PrimType::Float,
                PrimType::Double,
                PrimType::LongLong,
                PrimType::ULongLong,
            ]
        );
    }

    #[test]
    fn typedef_sequence_struct() {
        let aoi = parse_str(
            "d.idl",
            r"
            struct Point { long x; long y; };
            struct Rect { Point min; Point max; };
            typedef sequence<Rect> RectSeq;
            interface Draw { void paint(in RectSeq rects); };
            ",
        );
        let paint = aoi.interface("Draw").unwrap().op("paint").unwrap();
        let seq = aoi.types.resolve(paint.params[0].ty);
        let Type::Sequence { elem, bound: None } = aoi.types.get(seq) else {
            panic!("expected sequence, got {:?}", aoi.types.get(seq));
        };
        let Type::Struct { name, fields } = aoi.types.get(aoi.types.resolve(*elem)) else {
            panic!("expected struct");
        };
        assert_eq!(name, "Rect");
        assert_eq!(fields.len(), 2);
    }

    #[test]
    fn bounded_sequence_and_string() {
        let aoi = parse_str(
            "b.idl",
            r"
            typedef sequence<long, 16> Small;
            typedef string<64> Name;
            interface I { void f(in Small s, in Name n); };
            ",
        );
        let f = aoi.interface("I").unwrap().op("f").unwrap();
        assert!(matches!(
            aoi.types.get(aoi.types.resolve(f.params[0].ty)),
            Type::Sequence {
                bound: Some(16),
                ..
            }
        ));
        assert!(matches!(
            aoi.types.get(aoi.types.resolve(f.params[1].ty)),
            Type::String { bound: Some(64) }
        ));
    }

    #[test]
    fn arrays_in_typedef() {
        let aoi = parse_str(
            "a.idl",
            r"
            typedef long Matrix[4][4];
            interface I { void f(in Matrix m); };
            ",
        );
        let f = aoi.interface("I").unwrap().op("f").unwrap();
        let outer = aoi.types.resolve(f.params[0].ty);
        let Type::Array { elem, len: 4 } = aoi.types.get(outer) else {
            panic!("outer array");
        };
        assert!(matches!(
            aoi.types.get(aoi.types.resolve(*elem)),
            Type::Array { len: 4, .. }
        ));
    }

    #[test]
    fn enums_and_unions() {
        let aoi = parse_str(
            "u.idl",
            r"
            enum Color { RED, GREEN, BLUE };
            union Shade switch (Color) {
                case RED: octet warm;
                case GREEN:
                case BLUE: long cool;
                default: boolean unknown;
            };
            interface I { void f(in Shade s); };
            ",
        );
        let f = aoi.interface("I").unwrap().op("f").unwrap();
        let Type::Union { cases, .. } = aoi.types.get(aoi.types.resolve(f.params[0].ty)) else {
            panic!("expected union");
        };
        assert_eq!(cases.len(), 3);
        assert_eq!(cases[0].labels, vec![UnionLabel::Value(0)]);
        assert_eq!(
            cases[1].labels,
            vec![UnionLabel::Value(1), UnionLabel::Value(2)]
        );
        assert_eq!(cases[2].labels, vec![UnionLabel::Default]);
    }

    #[test]
    fn consts_fold() {
        let aoi = parse_str(
            "c.idl",
            r"
            const long WIDTH = 8;
            const long AREA = WIDTH * WIDTH + 2;
            typedef sequence<long, AREA> Buf;
            interface I { void f(in Buf b); };
            ",
        );
        let f = aoi.interface("I").unwrap().op("f").unwrap();
        assert!(matches!(
            aoi.types.get(aoi.types.resolve(f.params[0].ty)),
            Type::Sequence {
                bound: Some(66),
                ..
            }
        ));
    }

    #[test]
    fn modules_scope_names() {
        let aoi = parse_str(
            "m.idl",
            r"
            module Geo {
                struct Point { long x; long y; };
                interface Map { void mark(in Point p); };
            };
            ",
        );
        let map = aoi.interface("Geo::Map").expect("scoped interface name");
        let p = &map.op("mark").unwrap().params[0];
        let Type::Struct { name, .. } = aoi.types.get(aoi.types.resolve(p.ty)) else {
            panic!("expected struct");
        };
        assert_eq!(name, "Geo::Point");
    }

    #[test]
    fn interface_inheritance_flattens_ops() {
        let aoi = parse_str(
            "i.idl",
            r"
            interface Base { void ping(); };
            interface Derived : Base { void pong(); };
            ",
        );
        let d = aoi.interface("Derived").unwrap();
        assert_eq!(d.parents, ["Base"]);
        assert!(d.op("ping").is_some(), "inherited op present");
        assert!(d.op("pong").is_some());
        // Codes unique after flattening.
        let mut codes: Vec<u64> = d.ops.iter().map(|o| o.request_code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), d.ops.len());
    }

    #[test]
    fn attributes_and_readonly() {
        let aoi = parse_str(
            "at.idl",
            r"interface Acct {
                readonly attribute long balance;
                attribute string owner;
            };",
        );
        let a = aoi.interface("Acct").unwrap();
        assert_eq!(a.attrs.len(), 2);
        assert!(a.attrs[0].readonly);
        assert!(!a.attrs[1].readonly);
    }

    #[test]
    fn oneway_and_raises() {
        let aoi = parse_str(
            "o.idl",
            r"
            exception Failed { string reason; };
            interface I {
                oneway void cast(in long x);
                void risky() raises (Failed);
            };
            ",
        );
        let i = aoi.interface("I").unwrap();
        assert!(i.op("cast").unwrap().oneway);
        let r = i.op("risky").unwrap();
        assert_eq!(r.raises.len(), 1);
        assert_eq!(aoi.exception_by_id(r.raises[0]).name, "Failed");
    }

    #[test]
    fn out_and_inout_params() {
        let aoi = parse_str(
            "p.idl",
            r"interface I { long div(in long a, in long b, out long rem, inout long acc); };",
        );
        let d = aoi.interface("I").unwrap().op("div").unwrap();
        assert_eq!(d.params[2].dir, ParamDir::Out);
        assert_eq!(d.params[3].dir, ParamDir::InOut);
        assert!(matches!(
            aoi.types.get(aoi.types.resolve(d.ret)),
            Type::Prim(PrimType::Long)
        ));
    }

    #[test]
    fn recursive_struct_through_sequence() {
        let aoi = parse_str(
            "r.idl",
            r"
            struct Tree {
                long value;
                sequence<Tree> kids;
            };
            interface I { void put(in Tree t); };
            ",
        );
        let p = &aoi.interface("I").unwrap().op("put").unwrap().params[0];
        let Type::Struct { fields, .. } = aoi.types.get(aoi.types.resolve(p.ty)) else {
            panic!("expected struct");
        };
        let Type::Sequence { elem, .. } = aoi.types.get(aoi.types.resolve(fields[1].ty)) else {
            panic!("expected sequence");
        };
        // The sequence element resolves back to the Tree struct itself.
        assert_eq!(aoi.types.resolve(*elem), aoi.types.resolve(p.ty));
    }

    #[test]
    fn object_references_as_params() {
        let aoi = parse_str(
            "obj.idl",
            r"
            interface Callback { void done(in long status); };
            interface Job { void run(in Callback cb); };
            ",
        );
        let run = aoi.interface("Job").unwrap().op("run").unwrap();
        assert!(matches!(
            aoi.types.get(aoi.types.resolve(run.params[0].ty)),
            Type::ObjRef { interface } if interface == "Callback"
        ));
    }

    #[test]
    fn directives_skipped() {
        let aoi = parse_str(
            "inc.idl",
            "#include <base.idl>\n#pragma prefix \"utah\"\ninterface I { void f(); };",
        );
        assert!(aoi.interface("I").is_some());
    }

    #[test]
    fn forward_interface_declaration() {
        let aoi = parse_str(
            "fw.idl",
            r"
            interface Later;
            interface Now { void touch(in Later x); };
            interface Later { void ping(); };
            ",
        );
        assert!(aoi.interface("Later").unwrap().op("ping").is_some());
        let t = aoi.interface("Now").unwrap().op("touch").unwrap();
        assert!(matches!(
            aoi.types.get(aoi.types.resolve(t.params[0].ty)),
            Type::ObjRef { .. }
        ));
    }

    #[test]
    fn error_recovery_reports_multiple() {
        let file = SourceFile::new(
            "bad.idl",
            r"
            interface A { void f(in strang x); };
            interface B { void g(in long 7); };
            interface C { void ok(in long x); };
            ",
        );
        let mut diags = Diagnostics::new();
        let aoi = parse(&file, &mut diags);
        assert!(diags.error_count() >= 2, "{}", diags.render_all(&file));
        // Recovery preserved the well-formed interface.
        assert!(aoi.interface("C").is_some());
    }

    #[test]
    fn duplicate_interface_rejected() {
        let file = SourceFile::new("dup.idl", "interface A { }; interface A { };");
        let mut diags = Diagnostics::new();
        let _ = parse(&file, &mut diags);
        assert!(diags.has_errors());
    }

    #[test]
    fn the_paper_directory_interface() {
        // The §4 benchmark interface: variable-size directory entries,
        // each a name string plus a fixed 136-byte stat-like struct.
        let aoi = parse_str(
            "dir.idl",
            r"
            struct Stat {
                long fields[30];
                char tag[16];
            };
            struct Dirent {
                string name;
                Stat info;
            };
            typedef sequence<Dirent> DirentSeq;
            interface Directory {
                void send_dirents(in DirentSeq entries);
            };
            ",
        );
        let op = aoi
            .interface("Directory")
            .unwrap()
            .op("send_dirents")
            .unwrap();
        let seq = aoi.types.resolve(op.params[0].ty);
        assert!(matches!(aoi.types.get(seq), Type::Sequence { .. }));
    }
}
