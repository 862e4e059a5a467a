//! CAST — the *C Abstract Syntax Tree* intermediate representation
//! (paper §2.2.2).
//!
//! CAST is a straightforward, syntax-derived representation of C
//! declarations, statements, and expressions.  Flick keeps an
//! *explicit* representation of the target-language constructs it emits
//! — unlike traditional IDL compilers, which print code directly — so
//! that presentation generators can associate CAST nodes with MINT
//! nodes and back ends can splice optimized marshal statements into
//! stub bodies before anything is printed.
//!
//! * [`ctype`] — C types ([`CType`]);
//! * [`expr`] — C expressions ([`CExpr`]);
//! * [`stmt`] — C statements ([`CStmt`]);
//! * [`decl`] — file-scope declarations ([`CDecl`]) and functions;
//! * [`printer`] — the pretty printer producing compilable C source.

// The emitters and the printer write through (DESIGN "How the emitters
// write"): a `String` formatted only to be appended is refused.
#![deny(clippy::format_push_string)]

pub mod ctype;
pub mod decl;
pub mod expr;
pub mod printer;
pub mod stmt;

pub use ctype::{CField, CParam, CType};
pub use decl::{CDecl, CFunction, CUnit};
pub use expr::{BinOp, CExpr, UnOp};
pub use flick_stablehash::Name;
pub use printer::Printer;
pub use stmt::{CStmt, SwitchCase};

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end: build the paper's `Mail_send` prototype and print it.
    #[test]
    fn mail_send_prototype_prints() {
        let f = CFunction {
            name: "Mail_send".into(),
            ret: CType::Void,
            params: vec![
                CParam {
                    name: "obj".into(),
                    ty: CType::named("Mail"),
                },
                CParam {
                    name: "msg".into(),
                    ty: CType::ptr(CType::Char),
                },
            ],
            body: None,
        };
        let unit = CUnit {
            decls: vec![CDecl::Function(f)],
        };
        let src = Printer::new().unit(&unit);
        assert_eq!(src.trim(), "void Mail_send(Mail obj, char *msg);");
    }

    /// The variant presentation from §2: an added `len` parameter
    /// changes the programmer's contract but is just another CAST decl.
    #[test]
    fn mail_send_with_len_prints() {
        let f = CFunction {
            name: "Mail_send".into(),
            ret: CType::Void,
            params: vec![
                CParam {
                    name: "obj".into(),
                    ty: CType::named("Mail"),
                },
                CParam {
                    name: "msg".into(),
                    ty: CType::ptr(CType::Char),
                },
                CParam {
                    name: "len".into(),
                    ty: CType::Int,
                },
            ],
            body: None,
        };
        let src = Printer::new().unit(&CUnit {
            decls: vec![CDecl::Function(f)],
        });
        assert_eq!(src.trim(), "void Mail_send(Mail obj, char *msg, int len);");
    }
}
