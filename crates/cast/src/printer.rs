//! The CAST pretty printer: CAST → compilable C source text.
//!
//! Declarator syntax is handled properly: `char *argv[4]` and
//! `int (*fp)(void)` print as C expects, with the name woven into the
//! type.  Expressions are parenthesized by precedence, conservatively
//! adding parentheses where C's grammar is subtle (casts, unaries).
//!
//! Everything prints into the caller's buffer: a declarator, an
//! expression or a run of indentation is a `Display` adaptor spelled
//! where a line mentions it, not a string built for its parent to
//! append.

use std::fmt::{self, Display, Write as _};

use crate::ctype::CType;
use crate::decl::{CDecl, CFunction, CUnit};
use crate::expr::{CExpr, UnOp};
use crate::stmt::{CStmt, SwitchCase};

/// A C pretty printer.  Construct one per unit; printing is pure.
#[derive(Clone, Debug, Default)]
pub struct Printer {
    /// Indent width in spaces.
    pub indent: usize,
}

/// That many spaces.
struct Pad(usize);

impl Display for Pad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:1$}", "", self.0)
    }
}

impl Printer {
    /// A printer with 4-space indentation.
    #[must_use]
    pub fn new() -> Self {
        Printer { indent: 4 }
    }

    /// Prints a full translation unit.
    #[must_use]
    pub fn unit(&self, unit: &CUnit) -> String {
        let mut out = String::new();
        for d in &unit.decls {
            self.decl(&mut out, d);
        }
        out
    }

    /// Prints a single declaration (with trailing newline).
    pub fn decl(&self, out: &mut String, d: &CDecl) {
        let pad = Pad(self.indent);
        let _ = match d {
            CDecl::Include(what) => writeln!(out, "#include {what}"),
            CDecl::Define { name, value } => writeln!(out, "#define {name} {value}"),
            CDecl::Comment(text) => writeln!(out, "/* {text} */"),
            CDecl::Typedef { name, ty } => writeln!(out, "typedef {};", Declarator(ty, name)),
            CDecl::Struct { tag, fields } => {
                let _ = writeln!(out, "struct {tag} {{");
                for f in fields {
                    let _ = writeln!(out, "{pad}{};", Declarator(&f.ty, &f.name));
                }
                writeln!(out, "}};")
            }
            CDecl::Enum { tag, items } => {
                let _ = writeln!(out, "enum {tag} {{");
                for (name, value) in items {
                    let _ = writeln!(out, "{pad}{name} = {value},");
                }
                writeln!(out, "}};")
            }
            CDecl::Var {
                name,
                ty,
                init,
                is_static,
            } => {
                let storage = if *is_static { "static " } else { "" };
                let _ = write!(out, "{storage}{}", Declarator(ty, name));
                if let Some(e) = init {
                    let _ = write!(out, " = {}", Expr(e, 0));
                }
                writeln!(out, ";")
            }
            CDecl::Function(f) => {
                self.function(out, f);
                Ok(())
            }
        };
    }

    fn function(&self, out: &mut String, f: &CFunction) {
        // The function's own declarator — `name(params)` — sits where a
        // variable's name would, inside the return type's.
        let params = Params(f.params.iter().map(|p| Declarator(&p.ty, &p.name)));
        let _ = declarator_raw(out, &f.ret, &format_args!("{}{params}", f.name), true);
        match &f.body {
            None => out.push_str(";\n"),
            Some(body) => {
                out.push_str("\n{\n");
                for s in body {
                    self.stmt(out, s, 1);
                }
                out.push_str("}\n");
            }
        }
    }

    /// Prints a statement at `depth` indentation levels.
    pub fn stmt(&self, out: &mut String, s: &CStmt, depth: usize) {
        let pad = Pad(self.indent * depth);
        let body = |out: &mut String, stmts: &[CStmt]| {
            for t in stmts {
                self.stmt(out, t, depth + 1);
            }
        };
        let _ = match s {
            CStmt::Expr(e) => writeln!(out, "{pad}{};", Expr(e, 0)),
            CStmt::Decl { name, ty, init } => {
                let _ = write!(out, "{pad}{}", Declarator(ty, name));
                if let Some(e) = init {
                    let _ = write!(out, " = {}", Expr(e, 0));
                }
                writeln!(out, ";")
            }
            CStmt::If { cond, then, els } => {
                let _ = writeln!(out, "{pad}if ({}) {{", Expr(cond, 0));
                body(out, then);
                if let Some(e) = els {
                    let _ = writeln!(out, "{pad}}} else {{");
                    body(out, e);
                }
                writeln!(out, "{pad}}}")
            }
            CStmt::While { cond, body: stmts } => {
                let _ = writeln!(out, "{pad}while ({}) {{", Expr(cond, 0));
                body(out, stmts);
                writeln!(out, "{pad}}}")
            }
            CStmt::For {
                init,
                cond,
                step,
                body: stmts,
            } => {
                let _ = writeln!(
                    out,
                    "{pad}for ({}; {}; {}) {{",
                    Maybe(init),
                    Maybe(cond),
                    Maybe(step)
                );
                body(out, stmts);
                writeln!(out, "{pad}}}")
            }
            CStmt::Switch { scrutinee, cases } => {
                let _ = writeln!(out, "{pad}switch ({}) {{", Expr(scrutinee, 0));
                for c in cases {
                    self.case(out, c, depth);
                }
                writeln!(out, "{pad}}}")
            }
            CStmt::Return(None) => writeln!(out, "{pad}return;"),
            CStmt::Return(Some(e)) => writeln!(out, "{pad}return {};", Expr(e, 0)),
            CStmt::Break => writeln!(out, "{pad}break;"),
            CStmt::Goto(l) => writeln!(out, "{pad}goto {l};"),
            CStmt::Label(l) => writeln!(out, "{l}:"),
            CStmt::Block(stmts) => {
                let _ = writeln!(out, "{pad}{{");
                body(out, stmts);
                writeln!(out, "{pad}}}")
            }
            CStmt::Comment(text) => writeln!(out, "{pad}/* {text} */"),
        };
    }

    fn case(&self, out: &mut String, c: &SwitchCase, depth: usize) {
        let pad = Pad(self.indent * depth);
        if c.values.is_empty() {
            let _ = writeln!(out, "{pad}default:");
        } else {
            for v in &c.values {
                let _ = writeln!(out, "{pad}case {v}:");
            }
        }
        for s in &c.body {
            self.stmt(out, s, depth + 1);
        }
        let ends_in_jump = matches!(
            c.body.last(),
            Some(CStmt::Return(_) | CStmt::Goto(_) | CStmt::Break)
        );
        if !ends_in_jump {
            let _ = writeln!(out, "{}break;", Pad(self.indent * (depth + 1)));
        }
    }
}

/// A `for` clause: the expression, or nothing.
struct Maybe<'a>(&'a Option<CExpr>);

impl Display for Maybe<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.as_ref().map_or(Ok(()), |e| Expr(e, 0).fmt(f))
    }
}

/// Renders `ty name` with C declarator syntax.
#[must_use]
pub fn declarator(ty: &CType, name: &str) -> String {
    Declarator(ty, name).to_string()
}

/// `ty name` in C declarator syntax, spelled where it is mentioned.
struct Declarator<'a>(&'a CType, &'a str);

impl Display for Declarator<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        declarator_raw(f, self.0, &self.1, !self.1.is_empty())
    }
}

/// A parenthesized parameter list: `(void)` when empty.
struct Params<I>(I);

impl<I: Iterator + Clone> Display for Params<I>
where
    I::Item: Display,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, p) in self.0.clone().enumerate() {
            write!(f, "{}{p}", if i > 0 { ", " } else { "" })?;
        }
        if self.0.clone().next().is_none() {
            f.write_str("void")?;
        }
        f.write_str(")")
    }
}

/// A declarator reads inside out: each derived type wraps `inner` —
/// what stands where the name would, `named` when that is not empty —
/// and hands it to the type it derives from.
fn declarator_raw(
    out: &mut dyn fmt::Write,
    ty: &CType,
    inner: &dyn Display,
    named: bool,
) -> fmt::Result {
    match ty {
        CType::Pointer(t) => match **t {
            // Pointers to arrays/functions need parens: (*name)[n]
            CType::Array(..) | CType::Function { .. } => {
                declarator_raw(out, t, &format_args!("(*{inner})"), true)
            }
            _ => declarator_raw(out, t, &format_args!("*{inner}"), true),
        },
        CType::Array(t, Some(n)) => declarator_raw(out, t, &format_args!("{inner}[{n}]"), true),
        CType::Array(t, None) => declarator_raw(out, t, &format_args!("{inner}[]"), true),
        CType::Function { ret, params } => {
            let params = Params(params.iter().map(|p| Declarator(p, "")));
            declarator_raw(out, ret, &format_args!("{inner}{params}"), true)
        }
        base => {
            base_type(out, base)?;
            if named {
                write!(out, " {inner}")?;
            }
            Ok(())
        }
    }
}

fn base_type(out: &mut dyn fmt::Write, ty: &CType) -> fmt::Result {
    let text = match ty {
        CType::Void => "void",
        CType::Char => "char",
        CType::SChar => "signed char",
        CType::UChar => "unsigned char",
        CType::Short => "short",
        CType::UShort => "unsigned short",
        CType::Int => "int",
        CType::UInt => "unsigned int",
        CType::Long => "long",
        CType::ULong => "unsigned long",
        CType::LongLong => "long long",
        CType::ULongLong => "unsigned long long",
        CType::Float => "float",
        CType::Double => "double",
        CType::Named(n) => n,
        CType::StructRef(tag) => return write!(out, "struct {tag}"),
        CType::StructDef { tag, fields } => {
            out.write_str("struct")?;
            if let Some(t) = tag {
                write!(out, " {t}")?;
            }
            out.write_str(" { ")?;
            for f in fields {
                write!(out, "{}; ", Declarator(&f.ty, &f.name))?;
            }
            "}"
        }
        CType::Pointer(..) | CType::Array(..) | CType::Function { .. } => {
            unreachable!("handled by declarator_raw")
        }
    };
    out.write_str(text)
}

/// Renders an expression.
#[must_use]
pub fn expr(e: &CExpr) -> String {
    Expr(e, 0).to_string()
}

// Precedence: 0 = top (comma-free context), assignment = 1,
// ternary = 2, binary ops = 3..=12 (BinOp::precedence() + 2),
// unary/cast = 13, postfix = 14, primary = 15.
fn precedence(e: &CExpr) -> u8 {
    match e {
        CExpr::Call { .. }
        | CExpr::Member(..)
        | CExpr::Arrow(..)
        | CExpr::Index(..)
        | CExpr::PostInc(_) => 14,
        CExpr::Unary(..) | CExpr::Cast(..) => 13,
        CExpr::Binary(op, ..) => op.precedence() + 2,
        CExpr::Ternary(..) => 2,
        CExpr::Assign(..) | CExpr::AssignOp(..) => 1,
        _ => 15,
    }
}

/// An expression where an operand of at least the given precedence
/// belongs: parenthesized when it binds more loosely.
struct Expr<'a>(&'a CExpr, u8);

impl Display for Expr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Expr(e, min) = *self;
        let parens = precedence(e) < min;
        if parens {
            f.write_str("(")?;
        }
        match e {
            CExpr::Ident(n) => f.write_str(n),
            CExpr::Int(v) => write!(f, "{v}"),
            CExpr::UInt(v) => write!(f, "{v}u"),
            CExpr::Float(v) => write!(f, "{v:?}"),
            CExpr::Str(s) => write!(f, "\"{}\"", EscapeC(s)),
            CExpr::Char(c) => write!(f, "'{}'", EscapeC(c.encode_utf8(&mut [0; 4]))),
            CExpr::Call { func, args } => {
                write!(f, "{}(", Expr(func, 14))?;
                for (i, a) in args.iter().enumerate() {
                    write!(f, "{}{}", if i > 0 { ", " } else { "" }, Expr(a, 1))?;
                }
                f.write_str(")")
            }
            CExpr::Member(b, name) => write!(f, "{}.{name}", Expr(b, 14)),
            CExpr::Arrow(b, name) => write!(f, "{}->{name}", Expr(b, 14)),
            CExpr::Index(b, i) => write!(f, "{}[{}]", Expr(b, 14), Expr(i, 0)),
            CExpr::PostInc(b) => write!(f, "{}++", Expr(b, 14)),
            CExpr::Unary(op, x) => {
                // Avoid `--x` from Neg(Neg(x)) and `&*` fusions reading badly.
                let adjacent_minus = *op == UnOp::Neg
                    && (matches!(x.as_ref(), CExpr::Unary(UnOp::Neg, _))
                        || matches!(x.as_ref(), CExpr::Int(i) if *i < 0));
                let sep = if adjacent_minus { " " } else { "" };
                write!(f, "{}{sep}{}", op.token(), Expr(x, 13))
            }
            CExpr::Cast(t, x) => write!(f, "({}){}", Declarator(t, ""), Expr(x, 13)),
            CExpr::SizeOfType(t) => write!(f, "sizeof({})", Declarator(t, "")),
            CExpr::Binary(op, l, r) => {
                let p = op.precedence() + 2;
                write!(f, "{} {} {}", Expr(l, p), op.token(), Expr(r, p + 1))
            }
            CExpr::Ternary(c, t, other) => {
                write!(f, "{} ? {} : {}", Expr(c, 3), Expr(t, 2), Expr(other, 2))
            }
            CExpr::Assign(l, r) => write!(f, "{} = {}", Expr(l, 14), Expr(r, 1)),
            CExpr::AssignOp(op, l, r) => {
                write!(f, "{} {}= {}", Expr(l, 14), op.token(), Expr(r, 1))
            }
        }?;
        if parens {
            f.write_str(")")?;
        }
        Ok(())
    }
}

/// `s` with C's escapes for quotes, backslashes and control characters.
struct EscapeC<'a>(&'a str);

impl Display for EscapeC<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in self.0.chars() {
            match c {
                '\\' => f.write_str("\\\\"),
                '"' => f.write_str("\\\""),
                '\'' => f.write_str("\\'"),
                '\n' => f.write_str("\\n"),
                '\t' => f.write_str("\\t"),
                '\r' => f.write_str("\\r"),
                '\0' => f.write_str("\\0"),
                c if (c as u32) < 0x20 => write!(f, "\\x{:02x}", c as u32),
                c => f.write_char(c),
            }?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctype::{CField, CParam};
    use crate::expr::BinOp;

    #[test]
    fn declarators() {
        assert_eq!(declarator(&CType::Int, "x"), "int x");
        assert_eq!(declarator(&CType::ptr(CType::Char), "s"), "char *s");
        assert_eq!(
            declarator(&CType::array(CType::ptr(CType::Char), 4), "argv"),
            "char *argv[4]"
        );
        assert_eq!(
            declarator(&CType::ptr(CType::array(CType::Int, 8)), "p"),
            "int (*p)[8]"
        );
        assert_eq!(
            declarator(
                &CType::ptr(CType::Function {
                    ret: std::sync::Arc::new(CType::Int),
                    params: vec![CType::Void]
                }),
                "fp"
            ),
            "int (*fp)(void)"
        );
        assert_eq!(
            declarator(&CType::StructRef("stat".into()), "st"),
            "struct stat st"
        );
    }

    #[test]
    fn expr_precedence_parens() {
        // (a + b) * c needs parens; a + b * c does not.
        let add = CExpr::ident("a").bin(BinOp::Add, CExpr::ident("b"));
        let e = add.clone().bin(BinOp::Mul, CExpr::ident("c"));
        assert_eq!(expr(&e), "(a + b) * c");
        let e2 = CExpr::ident("a").bin(
            BinOp::Add,
            CExpr::ident("b").bin(BinOp::Mul, CExpr::ident("c")),
        );
        assert_eq!(expr(&e2), "a + b * c");
    }

    #[test]
    fn left_assoc_no_extra_parens() {
        let e = CExpr::ident("a")
            .bin(BinOp::Sub, CExpr::ident("b"))
            .bin(BinOp::Sub, CExpr::ident("c"));
        assert_eq!(expr(&e), "a - b - c");
        // but right-nesting of - must parenthesize
        let e2 = CExpr::ident("a").bin(
            BinOp::Sub,
            CExpr::ident("b").bin(BinOp::Sub, CExpr::ident("c")),
        );
        assert_eq!(expr(&e2), "a - (b - c)");
    }

    #[test]
    fn postfix_chains() {
        let e = CExpr::ident("p")
            .arrow("data")
            .index(CExpr::Int(0))
            .member("x");
        assert_eq!(expr(&e), "p->data[0].x");
        let e = CExpr::ident("ptr").deref().member("f");
        assert_eq!(expr(&e), "(*ptr).f");
    }

    #[test]
    fn calls_and_casts() {
        let e = CExpr::call(
            "memcpy",
            vec![
                CExpr::ident("dst"),
                CExpr::ident("src"),
                CExpr::Int(64).bin(BinOp::Mul, CExpr::SizeOfType(CType::Int)),
            ],
        );
        assert_eq!(expr(&e), "memcpy(dst, src, 64 * sizeof(int))");
        let e = CExpr::ident("buf").cast(CType::ptr(CType::UInt)).deref();
        assert_eq!(expr(&e), "*(unsigned int *)buf");
    }

    #[test]
    fn assignment_and_compound() {
        let e = CExpr::ident("x").assign(CExpr::ident("y").assign(CExpr::Int(1)));
        assert_eq!(expr(&e), "x = y = 1");
        let e = CExpr::AssignOp(
            BinOp::Add,
            Box::new(CExpr::ident("ofs")),
            Box::new(CExpr::Int(4)),
        );
        assert_eq!(expr(&e), "ofs += 4");
    }

    #[test]
    fn statements_indent() {
        let p = Printer::new();
        let mut out = String::new();
        p.stmt(
            &mut out,
            &CStmt::If {
                cond: CExpr::ident("n").bin(BinOp::Gt, CExpr::Int(0)),
                then: vec![CStmt::Return(Some(CExpr::Int(1)))],
                els: Some(vec![CStmt::Return(Some(CExpr::Int(0)))]),
            },
            0,
        );
        assert_eq!(
            out,
            "if (n > 0) {\n    return 1;\n} else {\n    return 0;\n}\n"
        );
    }

    #[test]
    fn switch_prints_break() {
        let p = Printer::new();
        let mut out = String::new();
        p.stmt(
            &mut out,
            &CStmt::Switch {
                scrutinee: CExpr::ident("op"),
                cases: vec![
                    SwitchCase {
                        values: vec![1, 2],
                        body: vec![CStmt::expr(CExpr::call("f", vec![]))],
                    },
                    SwitchCase {
                        values: vec![],
                        body: vec![CStmt::Return(Some(CExpr::Int(-1)))],
                    },
                ],
            },
            0,
        );
        assert!(
            out.contains("case 1:\ncase 2:\n    f();\n    break;"),
            "{out}"
        );
        assert!(out.contains("default:\n    return -1;\n"), "{out}");
        // No break after return.
        assert!(!out.contains("return -1;\n    break"), "{out}");
    }

    #[test]
    fn function_definition_prints() {
        let p = Printer::new();
        let f = CFunction {
            name: "add".into(),
            ret: CType::Int,
            params: vec![
                CParam {
                    name: "a".into(),
                    ty: CType::Int,
                },
                CParam {
                    name: "b".into(),
                    ty: CType::Int,
                },
            ],
            body: Some(vec![CStmt::Return(Some(
                CExpr::ident("a").bin(BinOp::Add, CExpr::ident("b")),
            ))]),
        };
        let mut out = String::new();
        p.function(&mut out, &f);
        assert_eq!(out, "int add(int a, int b)\n{\n    return a + b;\n}\n");
    }

    #[test]
    fn typedef_and_struct_decls() {
        let p = Printer::new();
        let mut out = String::new();
        p.decl(
            &mut out,
            &CDecl::Typedef {
                name: "Mail".into(),
                ty: CType::ptr(CType::Void),
            },
        );
        assert_eq!(out, "typedef void *Mail;\n");
        out.clear();
        p.decl(
            &mut out,
            &CDecl::Struct {
                tag: "point".into(),
                fields: vec![
                    CField {
                        name: "x".into(),
                        ty: CType::Int,
                    },
                    CField {
                        name: "y".into(),
                        ty: CType::Int,
                    },
                ],
            },
        );
        assert_eq!(out, "struct point {\n    int x;\n    int y;\n};\n");
    }

    #[test]
    fn string_escapes() {
        assert_eq!(expr(&CExpr::Str("a\"b\n".into())), "\"a\\\"b\\n\"");
    }
}
