//! The CAST pretty printer: CAST → compilable C source text.
//!
//! Declarator syntax is handled properly: `char *argv[4]` and
//! `int (*fp)(void)` print as C expects, with the name woven into the
//! type.  Expressions are parenthesized by precedence, conservatively
//! adding parentheses where C's grammar is subtle (casts, unaries).
//!
//! Everything is pushed into the caller's buffer as it is produced:
//! no node returns a `String` to its parent, and nothing goes through
//! `core::fmt` but a float literal (DESIGN "How the emitters write").
//! [`decimal`] and [`pad`] are shared with the back end's Rust writer.

use std::fmt::Write as _;

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

/// Sixteen levels of four-space indentation, written as one slice of it.
const SPACES: &str = "                                                                ";

/// Appends `width` spaces.
pub fn pad(out: &mut String, mut width: usize) {
    while width > 0 {
        let n = width.min(SPACES.len());
        out.push_str(&SPACES[..n]);
        width -= n;
    }
}

/// `n`'s decimal digits (ASCII), written into the end of `buf`.
pub fn digits(mut n: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    &buf[at..]
}

/// Appends `n` in decimal, after a `-` when `negative`.
pub fn decimal(out: &mut String, n: u64, negative: bool) {
    if negative {
        out.push('-');
    }
    // ASCII digits, one `char` each: nothing to re-validate.
    out.extend(digits(n, &mut [0; 20]).iter().map(|&d| char::from(d)));
}

/// Appends each of `parts` in turn.
fn push(out: &mut String, parts: &[&str]) {
    for p in parts {
        out.push_str(p);
    }
}

/// Appends `open`, the top-level expression `e`, then `close`.
fn between(out: &mut String, open: &str, e: &CExpr, close: &str) {
    out.push_str(open);
    expr_into(out, e, 0);
    out.push_str(close);
}

fn signed(out: &mut String, v: i64) {
    decimal(out, v.unsigned_abs(), v < 0);
}

/// A guess at the printed size of `decls`: a figure per line, fitted so
/// that the back end's units (every `testdata` file, both sides, with
/// and without optimization) print into it without a regrowth, 3–46 %
/// under it.
#[must_use]
pub fn size_hint(decls: &[CDecl]) -> usize {
    fn stmts(body: &[CStmt]) -> usize {
        body.iter()
            .map(|s| match s {
                CStmt::If { then, els, .. } => 2 + stmts(then) + els.as_deref().map_or(0, stmts),
                CStmt::While { body, .. } | CStmt::For { body, .. } | CStmt::Block(body) => {
                    2 + stmts(body)
                }
                CStmt::Switch { cases, .. } => {
                    2 + cases
                        .iter()
                        .map(|c| 2 + c.values.len() + stmts(&c.body))
                        .sum::<usize>()
                }
                _ => 1,
            })
            .sum()
    }
    let lines: usize = decls
        .iter()
        .map(|d| match d {
            CDecl::Function(CFunction {
                body: Some(body), ..
            }) => 3 + stmts(body),
            CDecl::Struct { fields, .. } => 2 + fields.len(),
            CDecl::Enum { items, .. } => 2 + items.len(),
            _ => 1,
        })
        .sum();
    LINE_BYTES * lines
}

/// Bytes per printed line: the figure that keeps every such unit inside
/// its hint.
const LINE_BYTES: usize = 34;

impl Printer {
    /// A printer with 4-space indentation.
    #[must_use]
    pub fn new() -> Self {
        Printer { indent: 4 }
    }

    /// Prints a full translation unit.
    #[must_use]
    pub fn unit(&self, unit: &CUnit) -> String {
        let mut out = String::with_capacity(size_hint(&unit.decls));
        for d in &unit.decls {
            self.decl(&mut out, d);
        }
        out
    }

    /// Prints a single declaration (with trailing newline).
    pub fn decl(&self, out: &mut String, d: &CDecl) {
        match d {
            CDecl::Include(what) => push(out, &["#include ", what, "\n"]),
            CDecl::Define { name, value } => push(out, &["#define ", name, " ", value, "\n"]),
            CDecl::Comment(text) => push(out, &["/* ", text, " */\n"]),
            CDecl::Typedef { name, ty } => {
                out.push_str("typedef ");
                declarator_into(out, ty, name);
                out.push_str(";\n");
            }
            CDecl::Struct { tag, fields } => {
                push(out, &["struct ", tag, " {\n"]);
                for f in fields {
                    pad(out, self.indent);
                    declarator_into(out, &f.ty, &f.name);
                    out.push_str(";\n");
                }
                out.push_str("};\n");
            }
            CDecl::Enum { tag, items } => {
                push(out, &["enum ", tag, " {\n"]);
                for (name, value) in items {
                    pad(out, self.indent);
                    push(out, &[name, " = "]);
                    signed(out, *value);
                    out.push_str(",\n");
                }
                out.push_str("};\n");
            }
            CDecl::Var {
                name,
                ty,
                init,
                is_static,
            } => {
                if *is_static {
                    out.push_str("static ");
                }
                declarator_into(out, ty, name);
                if let Some(e) = init {
                    between(out, " = ", e, "");
                }
                out.push_str(";\n");
            }
            CDecl::Function(f) => self.function(out, f),
        }
    }

    fn function(&self, out: &mut String, f: &CFunction) {
        // The function's own declarator — `name(params)` — sits where a
        // variable's name would, inside the return type's.
        prefix(out, &f.ret, true);
        out.push_str(&f.name);
        params(out, f.params.iter().map(|p| (&p.ty, &*p.name)));
        suffix(out, &f.ret);
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
        let width = self.indent * depth;
        let body = |out: &mut String, stmts: &[CStmt]| {
            for t in stmts {
                self.stmt(out, t, depth + 1);
            }
        };
        // A block's body, then its closing brace at this statement's depth.
        let close = |out: &mut String, stmts: &[CStmt]| {
            body(out, stmts);
            pad(out, width);
            out.push_str("}\n");
        };
        if let CStmt::Label(l) = s {
            push(out, &[l, ":\n"]);
            return;
        }
        pad(out, width);
        match s {
            CStmt::Expr(e) => between(out, "", e, ";\n"),
            CStmt::Decl { name, ty, init } => {
                declarator_into(out, ty, name);
                if let Some(e) = init {
                    between(out, " = ", e, "");
                }
                out.push_str(";\n");
            }
            CStmt::If { cond, then, els } => {
                between(out, "if (", cond, ") {\n");
                if let Some(e) = els {
                    body(out, then);
                    pad(out, width);
                    out.push_str("} else {\n");
                    close(out, e);
                } else {
                    close(out, then);
                }
            }
            CStmt::While { cond, body: stmts } => {
                between(out, "while (", cond, ") {\n");
                close(out, stmts);
            }
            CStmt::For {
                init,
                cond,
                step,
                body: stmts,
            } => {
                out.push_str("for (");
                for (i, clause) in [init, cond, step].into_iter().enumerate() {
                    if i > 0 {
                        out.push_str("; ");
                    }
                    if let Some(e) = clause {
                        expr_into(out, e, 0);
                    }
                }
                out.push_str(") {\n");
                close(out, stmts);
            }
            CStmt::Switch { scrutinee, cases } => {
                between(out, "switch (", scrutinee, ") {\n");
                for c in cases {
                    self.case(out, c, depth);
                }
                pad(out, width);
                out.push_str("}\n");
            }
            CStmt::Return(None) => out.push_str("return;\n"),
            CStmt::Return(Some(e)) => between(out, "return ", e, ";\n"),
            CStmt::Break => out.push_str("break;\n"),
            CStmt::Goto(l) => push(out, &["goto ", l, ";\n"]),
            CStmt::Block(stmts) => {
                out.push_str("{\n");
                close(out, stmts);
            }
            CStmt::Comment(text) => push(out, &["/* ", text, " */\n"]),
            CStmt::Label(_) => unreachable!("printed unindented above"),
        }
    }

    fn case(&self, out: &mut String, c: &SwitchCase, depth: usize) {
        let width = self.indent * depth;
        if c.values.is_empty() {
            pad(out, width);
            out.push_str("default:\n");
        }
        for v in &c.values {
            pad(out, width);
            out.push_str("case ");
            signed(out, *v);
            out.push_str(":\n");
        }
        for s in &c.body {
            self.stmt(out, s, depth + 1);
        }
        let ends_in_jump = matches!(
            c.body.last(),
            Some(CStmt::Return(_) | CStmt::Goto(_) | CStmt::Break)
        );
        if !ends_in_jump {
            pad(out, width + self.indent);
            out.push_str("break;\n");
        }
    }
}

/// Renders `ty name` with C declarator syntax.
#[must_use]
pub fn declarator(ty: &CType, name: &str) -> String {
    let mut out = String::new();
    declarator_into(&mut out, ty, name);
    out
}

/// `ty name` in C declarator syntax, in three parts: the base type and
/// the derived types' prefixes (innermost first), the name, then the
/// derived types' suffixes (outermost first).  `int (*p)[8]` is
/// `int (*` + `p` + `)[8]`.
fn declarator_into(out: &mut String, ty: &CType, name: &str) {
    prefix(out, ty, !name.is_empty());
    out.push_str(name);
    suffix(out, ty);
}

/// A pointer to an array or a function parenthesizes what it wraps.
fn wraps_in_parens(pointee: &CType) -> bool {
    matches!(pointee, CType::Array(..) | CType::Function { .. })
}

/// What precedes the name: the base type, a space when anything
/// follows it (`named`), then each pointer's `*` (or `(*`).
fn prefix(out: &mut String, ty: &CType, named: bool) {
    match ty {
        CType::Pointer(t) => {
            prefix(out, t, true);
            out.push_str(if wraps_in_parens(t) { "(*" } else { "*" });
        }
        CType::Array(t, _) => prefix(out, t, true),
        CType::Function { ret, .. } => prefix(out, ret, true),
        base => {
            base_type(out, base);
            if named {
                out.push(' ');
            }
        }
    }
}

/// What follows the name: closing parentheses, array bounds and
/// parameter lists.
fn suffix(out: &mut String, ty: &CType) {
    match ty {
        CType::Pointer(t) => {
            if wraps_in_parens(t) {
                out.push(')');
            }
            suffix(out, t);
        }
        CType::Array(t, len) => {
            out.push('[');
            if let Some(n) = len {
                decimal(out, *n, false);
            }
            out.push(']');
            suffix(out, t);
        }
        CType::Function { ret, params: ps } => {
            params(out, ps.iter().map(|p| (p, "")));
            suffix(out, ret);
        }
        _ => {}
    }
}

/// A parenthesized parameter list: `(void)` when empty.
fn params<'a>(out: &mut String, ps: impl ExactSizeIterator<Item = (&'a CType, &'a str)>) {
    out.push('(');
    if ps.len() == 0 {
        out.push_str("void");
    }
    for (i, (ty, name)) in ps.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        declarator_into(out, ty, name);
    }
    out.push(')');
}

fn base_type(out: &mut String, ty: &CType) {
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
        CType::StructRef(tag) => {
            out.push_str("struct ");
            tag
        }
        CType::StructDef { tag, fields } => {
            out.push_str("struct");
            if let Some(t) = tag {
                out.push(' ');
                out.push_str(t);
            }
            out.push_str(" { ");
            for f in fields {
                declarator_into(out, &f.ty, &f.name);
                out.push_str("; ");
            }
            "}"
        }
        CType::Pointer(..) | CType::Array(..) | CType::Function { .. } => {
            unreachable!("handled by prefix")
        }
    };
    out.push_str(text);
}

/// Renders an expression.
#[must_use]
pub fn expr(e: &CExpr) -> String {
    let mut out = String::new();
    expr_into(&mut out, e, 0);
    out
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

/// `e` where an operand of at least precedence `min` belongs:
/// parenthesized when it binds more loosely.
fn expr_into(out: &mut String, e: &CExpr, min: u8) {
    let parens = precedence(e) < min;
    if parens {
        out.push('(');
    }
    match e {
        CExpr::Ident(n) => out.push_str(n),
        CExpr::Int(v) => signed(out, *v),
        CExpr::UInt(v) => {
            decimal(out, *v, false);
            out.push('u');
        }
        // The one use of the formatter: no emitter produces a float.
        CExpr::Float(v) => write!(out, "{v:?}").expect("a String takes every write"),
        CExpr::Str(s) => {
            out.push('"');
            escape_c(out, s);
            out.push('"');
        }
        CExpr::Char(c) => {
            out.push('\'');
            escape_c(out, c.encode_utf8(&mut [0; 4]));
            out.push('\'');
        }
        CExpr::Call { func, args } => {
            expr_into(out, func, 14);
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                expr_into(out, a, 1);
            }
            out.push(')');
        }
        CExpr::Member(b, name) => {
            expr_into(out, b, 14);
            out.push('.');
            out.push_str(name);
        }
        CExpr::Arrow(b, name) => {
            expr_into(out, b, 14);
            out.push_str("->");
            out.push_str(name);
        }
        CExpr::Index(b, i) => {
            expr_into(out, b, 14);
            out.push('[');
            expr_into(out, i, 0);
            out.push(']');
        }
        CExpr::PostInc(b) => {
            expr_into(out, b, 14);
            out.push_str("++");
        }
        CExpr::Unary(op, x) => {
            out.push_str(op.token());
            // Avoid `--x` from Neg(Neg(x)) and from a negative literal.
            let adjacent_minus = *op == UnOp::Neg
                && (matches!(x.as_ref(), CExpr::Unary(UnOp::Neg, _))
                    || matches!(x.as_ref(), CExpr::Int(i) if *i < 0));
            if adjacent_minus {
                out.push(' ');
            }
            expr_into(out, x, 13);
        }
        CExpr::Cast(t, x) => {
            out.push('(');
            declarator_into(out, t, "");
            out.push(')');
            expr_into(out, x, 13);
        }
        CExpr::SizeOfType(t) => {
            out.push_str("sizeof(");
            declarator_into(out, t, "");
            out.push(')');
        }
        CExpr::Binary(op, l, r) => {
            let p = op.precedence() + 2;
            expr_into(out, l, p);
            out.push(' ');
            out.push_str(op.token());
            out.push(' ');
            expr_into(out, r, p + 1);
        }
        CExpr::Ternary(c, t, f) => {
            expr_into(out, c, 3);
            out.push_str(" ? ");
            expr_into(out, t, 2);
            out.push_str(" : ");
            expr_into(out, f, 2);
        }
        CExpr::Assign(l, r) => {
            expr_into(out, l, 14);
            out.push_str(" = ");
            expr_into(out, r, 1);
        }
        CExpr::AssignOp(op, l, r) => {
            expr_into(out, l, 14);
            out.push(' ');
            out.push_str(op.token());
            out.push_str("= ");
            expr_into(out, r, 1);
        }
    }
    if parens {
        out.push(')');
    }
}

/// Appends `s` with C's escapes for quotes, backslashes and control
/// characters.
fn escape_c(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\'' => out.push_str("\\'"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\0' => out.push_str("\\0"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\x");
                out.push(char::from(HEX[c as usize >> 4]));
                out.push(char::from(HEX[c as usize & 0xf]));
            }
            c => out.push(c),
        }
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
