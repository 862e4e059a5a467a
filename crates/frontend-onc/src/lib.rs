//! The ONC RPC front end: parses `rpcgen` `.x` interface definitions
//! (the XDR language of RFC 1832 plus the `program` definitions of
//! RFC 1831) and produces AOI.
//!
//! Coverage: `typedef`, `enum` (explicit values), `struct`, discriminated
//! `union ... switch`, `const`, fixed (`[n]`) and variable (`<n>`/`<>`)
//! arrays, `string<>`, `opaque` (fixed and variable), optional data
//! (`type *name` — XDR's encoding of linked lists), `bool`, `hyper`,
//! and multi-version `program` blocks.  As an accepted `rpcgen`
//! extension, procedure arguments may be named and may number more than
//! one.
//!
//! Equivalent constructs produce the same AOI the CORBA front end
//! would: a `program Mail` with `void send(string msg) = 1;` yields the
//! same canonical contract as the paper's CORBA `Mail` interface — the
//! property that lets one presentation generator serve both IDLs.

mod parser;

use flick_aoi::Aoi;
use flick_idl::diag::Diagnostics;
use flick_idl::source::SourceFile;

/// Parses ONC RPC (`.x`) source text into an AOI contract.
///
/// Problems are recorded in `diags`; the returned contract contains
/// whatever was recovered.
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
/// # Panics
/// Panics with rendered diagnostics if the source has errors.
#[must_use]
pub fn parse_str(name: &str, text: &str) -> Aoi {
    let file = SourceFile::new(name, text);
    let mut diags = Diagnostics::new();
    let aoi = parse(&file, &mut diags);
    assert!(
        !diags.has_errors(),
        "ONC RPC IDL errors:\n{}",
        diags.render_all(&file)
    );
    aoi
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_aoi::{ParamDir, PrimType, Type};

    /// The paper's §1 ONC RPC example, with the argument named as the
    /// common rpcgen extension allows.
    const MAIL_X: &str = r"
        program Mail {
            version MailVers {
                void send(string msg) = 1;
            } = 1;
        } = 0x20000001;
    ";

    #[test]
    fn paper_mail_example() {
        let aoi = parse_str("mail.x", MAIL_X);
        let mail = aoi.interface("Mail").expect("program parsed");
        assert_eq!(mail.program, 0x2000_0001);
        assert_eq!(mail.version, 1);
        let send = mail.op("send").unwrap();
        assert_eq!(send.request_code, 1);
        assert_eq!(send.params.len(), 1);
        assert_eq!(send.params[0].dir, ParamDir::In);
        assert!(matches!(
            aoi.types.get(aoi.types.resolve(send.params[0].ty)),
            Type::String { bound: None }
        ));
    }

    #[test]
    fn same_aoi_as_corba_front_end() {
        // §2.1: "Flick's front ends produce similar AOI representations
        // for equivalent constructs across different IDLs."  For this
        // pair the canonical print is *identical*.
        let onc = parse_str("mail.x", MAIL_X);
        let corba = flick_frontend_corba::parse_str(
            "mail.idl",
            "interface Mail { void send(in string msg); };",
        );
        assert_eq!(onc.to_pretty(), corba.to_pretty());
    }

    #[test]
    fn scalar_types() {
        let aoi = parse_str(
            "s.x",
            r"
            program P { version V {
                void f(int a, unsigned int b, hyper c, unsigned hyper d,
                       float e, double g, bool h) = 1;
            } = 1; } = 100;
            ",
        );
        let f = aoi.interface("P").unwrap().op("f").unwrap();
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
                PrimType::LongLong,
                PrimType::ULongLong,
                PrimType::Float,
                PrimType::Double,
                PrimType::Boolean,
            ]
        );
    }

    #[test]
    fn arrays_fixed_and_variable() {
        let aoi = parse_str(
            "a.x",
            r"
            struct data {
                int fixed[8];
                int var<32>;
                int unbounded<>;
                opaque blob[16];
                opaque stretchy<64>;
                string name<255>;
            };
            program P { version V { void put(data d) = 1; } = 1; } = 7;
            ",
        );
        let put = aoi.interface("P").unwrap().op("put").unwrap();
        let Type::Struct { fields, .. } = aoi.types.get(aoi.types.resolve(put.params[0].ty)) else {
            panic!("expected struct");
        };
        assert!(matches!(
            aoi.types.get(aoi.types.resolve(fields[0].ty)),
            Type::Array { len: 8, .. }
        ));
        assert!(matches!(
            aoi.types.get(aoi.types.resolve(fields[1].ty)),
            Type::Sequence {
                bound: Some(32),
                ..
            }
        ));
        assert!(matches!(
            aoi.types.get(aoi.types.resolve(fields[2].ty)),
            Type::Sequence { bound: None, .. }
        ));
        assert!(matches!(
            aoi.types.get(aoi.types.resolve(fields[3].ty)),
            Type::Opaque {
                fixed_len: Some(16),
                ..
            }
        ));
        assert!(matches!(
            aoi.types.get(aoi.types.resolve(fields[4].ty)),
            Type::Opaque {
                fixed_len: None,
                bound: Some(64)
            }
        ));
        assert!(matches!(
            aoi.types.get(aoi.types.resolve(fields[5].ty)),
            Type::String { bound: Some(255) }
        ));
    }

    #[test]
    fn linked_list_optional() {
        let aoi = parse_str(
            "l.x",
            r"
            struct node {
                int value;
                node *next;
            };
            program P { version V { node head(void) = 1; } = 1; } = 9;
            ",
        );
        let head = aoi.interface("P").unwrap().op("head").unwrap();
        assert!(head.params.is_empty());
        let Type::Struct { fields, .. } = aoi.types.get(aoi.types.resolve(head.ret)) else {
            panic!("expected struct return");
        };
        let Type::Optional { elem } = aoi.types.get(aoi.types.resolve(fields[1].ty)) else {
            panic!("expected optional");
        };
        assert_eq!(aoi.types.resolve(*elem), aoi.types.resolve(head.ret));
    }

    #[test]
    fn enums_and_consts() {
        let aoi = parse_str(
            "e.x",
            r"
            enum state { IDLE = 0, BUSY = 1, DONE = 5 };
            const MAX = 12;
            typedef int slots<MAX>;
            program P { version V { state poll(slots s) = 1; } = 1; } = 3;
            ",
        );
        let poll = aoi.interface("P").unwrap().op("poll").unwrap();
        let Type::Enum { items, .. } = aoi.types.get(aoi.types.resolve(poll.ret)) else {
            panic!("expected enum return");
        };
        assert_eq!(items[2], ("DONE".into(), 5));
        assert!(matches!(
            aoi.types.get(aoi.types.resolve(poll.params[0].ty)),
            Type::Sequence {
                bound: Some(12),
                ..
            }
        ));
    }

    #[test]
    fn xdr_union() {
        let aoi = parse_str(
            "u.x",
            r"
            union result switch (int status) {
                case 0: int value;
                case 1: string error<>;
                default: void;
            };
            program P { version V { result get(void) = 1; } = 1; } = 4;
            ",
        );
        let get = aoi.interface("P").unwrap().op("get").unwrap();
        let Type::Union { cases, .. } = aoi.types.get(aoi.types.resolve(get.ret)) else {
            panic!("expected union return");
        };
        assert_eq!(cases.len(), 3);
        assert!(cases[2].ty.is_none(), "default void arm");
    }

    #[test]
    fn multiple_versions_become_interfaces() {
        let aoi = parse_str(
            "v.x",
            r"
            program Calc {
                version CalcV1 { int add(int a, int b) = 1; } = 1;
                version CalcV2 {
                    int add(int a, int b) = 1;
                    int mul(int a, int b) = 2;
                } = 2;
            } = 0x20000099;
            ",
        );
        // Single-version programs use the program name; multi-version
        // programs qualify with the version name.
        let v1 = aoi.interface("Calc::CalcV1").expect("v1");
        let v2 = aoi.interface("Calc::CalcV2").expect("v2");
        assert_eq!(v1.version, 1);
        assert_eq!(v2.version, 2);
        assert_eq!(v2.ops.len(), 2);
        assert_eq!(v2.op("mul").unwrap().request_code, 2);
    }

    #[test]
    fn procedure_numbers_preserved() {
        let aoi = parse_str(
            "n.x",
            r"program P { version V {
                void a(void) = 3;
                void b(void) = 7;
            } = 1; } = 5;",
        );
        let p = aoi.interface("P").unwrap();
        assert_eq!(p.op("a").unwrap().request_code, 3);
        assert_eq!(p.op("b").unwrap().request_code, 7);
    }

    #[test]
    fn typedef_of_struct() {
        let aoi = parse_str(
            "t.x",
            r"
            struct point { int x; int y; };
            typedef point points<>;
            program P { version V { void draw(points ps) = 1; } = 1; } = 6;
            ",
        );
        let draw = aoi.interface("P").unwrap().op("draw").unwrap();
        let Type::Sequence { elem, .. } = aoi.types.get(aoi.types.resolve(draw.params[0].ty))
        else {
            panic!("expected sequence");
        };
        assert!(matches!(
            aoi.types.get(aoi.types.resolve(*elem)),
            Type::Struct { .. }
        ));
    }

    #[test]
    fn unnamed_args_get_synthesized_names() {
        let aoi = parse_str(
            "un.x",
            r"program Mail { version V { void send(string) = 1; } = 1; } = 2;",
        );
        let send = aoi.interface("Mail").unwrap().op("send").unwrap();
        assert_eq!(send.params.len(), 1);
        assert_eq!(send.params[0].name, "arg");
    }

    #[test]
    fn error_recovery() {
        let file = SourceFile::new(
            "bad.x",
            r"
            struct broken { int 7; };
            program P { version V { void ok(void) = 1; } = 1; } = 8;
            ",
        );
        let mut diags = Diagnostics::new();
        let aoi = parse(&file, &mut diags);
        assert!(diags.has_errors());
        assert!(aoi.interface("P").is_some(), "recovered past bad struct");
    }
}
