//! The printer's output, pinned case by case: every declaration,
//! statement and expression variant, the declarator shapes that weave a
//! name into a derived type, precedence, escapes and the extreme
//! integer literals.  The expected text is what the printer wrote when
//! it still formatted through `core::fmt`, so a rewrite of the printer
//! must reproduce it byte for byte.

use std::sync::Arc;

use flick_cast::printer::{declarator, expr};
use flick_cast::{
    BinOp, CDecl, CExpr, CField, CFunction, CParam, CStmt, CType, CUnit, Printer, SwitchCase, UnOp,
};

fn id(s: &str) -> CExpr {
    CExpr::ident(s)
}

fn un(op: UnOp, e: CExpr) -> CExpr {
    CExpr::Unary(op, Box::new(e))
}

fn func(ret: CType, params: Vec<CType>) -> CType {
    CType::Function {
        ret: Arc::new(ret),
        params,
    }
}

fn param(name: &str, ty: CType) -> CParam {
    CParam {
        name: name.into(),
        ty,
    }
}

fn field(name: &str, ty: CType) -> CField {
    CField {
        name: name.into(),
        ty,
    }
}

fn stmt(s: &CStmt, depth: usize) -> String {
    let mut out = String::new();
    Printer::new().stmt(&mut out, s, depth);
    out
}

fn decl(d: &CDecl) -> String {
    let mut out = String::new();
    Printer::new().decl(&mut out, d);
    out
}

fn check(cases: &[(String, &str)]) {
    for (i, (got, want)) in cases.iter().enumerate() {
        assert_eq!(got, want, "case {i}");
    }
}

#[test]
fn declarators() {
    let int_ptr = CType::ptr(CType::Int);
    check(&[
        (declarator(&CType::Void, "v"), "void v"),
        (declarator(&CType::SChar, "c"), "signed char c"),
        (declarator(&CType::UChar, "c"), "unsigned char c"),
        (declarator(&CType::Short, "s"), "short s"),
        (declarator(&CType::UShort, "s"), "unsigned short s"),
        (declarator(&CType::UInt, "u"), "unsigned int u"),
        (declarator(&CType::Long, "l"), "long l"),
        (declarator(&CType::ULong, "l"), "unsigned long l"),
        (declarator(&CType::LongLong, "q"), "long long q"),
        (declarator(&CType::ULongLong, "q"), "unsigned long long q"),
        (declarator(&CType::Float, "f"), "float f"),
        (declarator(&CType::Double, "d"), "double d"),
        (declarator(&CType::named("Mail"), "m"), "Mail m"),
        (
            declarator(&CType::StructRef("node".into()), "n"),
            "struct node n",
        ),
        (declarator(&CType::Int, ""), "int"),
        (declarator(&int_ptr, ""), "int *"),
        (declarator(&CType::ptr(int_ptr.clone()), "pp"), "int **pp"),
        // Pointer to array, array of pointers, pointer to pointer to array.
        (
            declarator(&CType::ptr(CType::array(CType::Int, 8)), "p"),
            "int (*p)[8]",
        ),
        (
            declarator(&CType::array(CType::ptr(CType::Char), 4), "argv"),
            "char *argv[4]",
        ),
        (
            declarator(&CType::ptr(CType::ptr(CType::array(CType::Char, 2))), "q"),
            "char (**q)[2]",
        ),
        (
            declarator(&CType::array(CType::array(CType::Int, 3), 2), "m"),
            "int m[2][3]",
        ),
        (
            declarator(&CType::Array(Arc::new(CType::Int), None), "open"),
            "int open[]",
        ),
        (declarator(&CType::array(CType::Int, 4), ""), "int [4]"),
        // Pointer to function, with and without parameters, and one that
        // returns a pointer to an array.
        (
            declarator(&CType::ptr(func(CType::Int, vec![CType::Void])), "fp"),
            "int (*fp)(void)",
        ),
        (
            declarator(&CType::ptr(func(CType::Void, vec![])), "cb"),
            "void (*cb)(void)",
        ),
        (
            declarator(
                &CType::ptr(func(
                    CType::ptr(CType::Char),
                    vec![int_ptr.clone(), CType::array(CType::Int, 2)],
                )),
                "g",
            ),
            "char *(*g)(int *, int [2])",
        ),
        (
            declarator(
                &CType::array(CType::ptr(func(CType::Int, vec![CType::Int])), 3),
                "table",
            ),
            "int (*table[3])(int)",
        ),
        (
            declarator(&CType::ptr(func(CType::Int, vec![CType::Void])), ""),
            "int (*)(void)",
        ),
        (
            declarator(
                &CType::ptr(func(
                    CType::ptr(CType::array(CType::Int, 3)),
                    vec![CType::ptr(func(CType::Void, vec![CType::Int]))],
                )),
                "h",
            ),
            "int (*(*h)(void (*)(int)))[3]",
        ),
        // Inline struct definitions, tagged and anonymous, and one
        // nested inside another.
        (
            declarator(
                &CType::StructDef {
                    tag: None,
                    fields: vec![
                        field("_maximum", CType::UInt),
                        field("_buffer", CType::ptr(CType::named("rect"))),
                    ],
                },
                "seq",
            ),
            "struct { unsigned int _maximum; rect *_buffer; } seq",
        ),
        (
            declarator(
                &CType::StructDef {
                    tag: Some("pair".into()),
                    fields: vec![
                        field("a", CType::array(CType::Int, 2)),
                        field(
                            "in",
                            CType::StructDef {
                                tag: None,
                                fields: vec![field("x", CType::Char)],
                            },
                        ),
                    ],
                },
                "",
            ),
            "struct pair { int a[2]; struct { char x; } in; }",
        ),
        (
            declarator(
                &CType::ptr(CType::StructDef {
                    tag: None,
                    fields: vec![],
                }),
                "e",
            ),
            "struct { } *e",
        ),
    ]);
}

#[test]
fn casts_and_sizeof_of_derived_types() {
    check(&[
        (
            expr(&id("p").cast(CType::ptr(CType::array(CType::Int, 4)))),
            "(int (*)[4])p",
        ),
        (
            expr(&id("f").cast(CType::ptr(func(CType::Void, vec![CType::Int])))),
            "(void (*)(int))f",
        ),
        (
            expr(&CExpr::SizeOfType(CType::array(CType::ptr(CType::Char), 4))),
            "sizeof(char *[4])",
        ),
        (
            expr(&CExpr::SizeOfType(CType::StructRef("stat".into()))),
            "sizeof(struct stat)",
        ),
        (
            expr(&CExpr::SizeOfType(CType::ptr(CType::ptr(CType::Void)))),
            "sizeof(void **)",
        ),
        (
            expr(&id("x").cast(CType::ULongLong)),
            "(unsigned long long)x",
        ),
    ]);
}

#[test]
fn every_expression_variant() {
    check(&[
        (expr(&id("x")), "x"),
        (expr(&CExpr::Int(42)), "42"),
        (expr(&CExpr::Int(-7)), "-7"),
        (expr(&CExpr::Int(0)), "0"),
        (expr(&CExpr::Int(i64::MIN)), "-9223372036854775808"),
        (expr(&CExpr::Int(i64::MAX)), "9223372036854775807"),
        (expr(&CExpr::UInt(0)), "0u"),
        (expr(&CExpr::UInt(u64::MAX)), "18446744073709551615u"),
        (expr(&CExpr::Float(1.5)), "1.5"),
        (expr(&CExpr::Float(0.1)), "0.1"),
        (expr(&CExpr::Float(-2.0)), "-2.0"),
        (expr(&CExpr::Float(1e300)), "1e300"),
        (expr(&CExpr::Str("plain".into())), "\"plain\""),
        (expr(&CExpr::Char('a')), "'a'"),
        (expr(&CExpr::call("f", vec![])), "f()"),
        (
            expr(&CExpr::call("g", vec![id("a"), CExpr::Int(1), id("b")])),
            "g(a, 1, b)",
        ),
        (
            expr(&CExpr::Call {
                func: Box::new(id("fp").deref()),
                args: vec![id("x")],
            }),
            "(*fp)(x)",
        ),
        (expr(&id("s").member("f")), "s.f"),
        (expr(&id("p").arrow("f")), "p->f"),
        (expr(&id("a").index(CExpr::Int(3))), "a[3]"),
        (expr(&un(UnOp::Neg, id("x"))), "-x"),
        (expr(&un(UnOp::Not, id("x"))), "!x"),
        (expr(&un(UnOp::BitNot, id("x"))), "~x"),
        (expr(&id("p").deref()), "*p"),
        (expr(&id("v").addr_of()), "&v"),
        (expr(&un(UnOp::Neg, un(UnOp::Neg, id("x")))), "- -x"),
        (expr(&un(UnOp::Neg, CExpr::Int(-1))), "- -1"),
        (
            expr(&un(UnOp::Neg, CExpr::Int(i64::MIN))),
            "- -9223372036854775808",
        ),
        (expr(&un(UnOp::Not, un(UnOp::Not, id("x")))), "!!x"),
        (expr(&id("p").deref().addr_of()), "&*p"),
        (expr(&CExpr::PostInc(Box::new(id("i")))), "i++"),
        (expr(&id("a").bin(BinOp::Rem, id("b"))), "a % b"),
        (expr(&id("a").assign(id("b"))), "a = b"),
        (
            expr(&CExpr::AssignOp(
                BinOp::Shl,
                Box::new(id("m")),
                Box::new(CExpr::Int(2)),
            )),
            "m <<= 2",
        ),
        (
            expr(&CExpr::Ternary(
                Box::new(id("c")),
                Box::new(id("t")),
                Box::new(id("f")),
            )),
            "c ? t : f",
        ),
    ]);
}

#[test]
fn every_binary_operator() {
    let ops = [
        (BinOp::Add, "+"),
        (BinOp::Sub, "-"),
        (BinOp::Mul, "*"),
        (BinOp::Div, "/"),
        (BinOp::Rem, "%"),
        (BinOp::Shl, "<<"),
        (BinOp::Shr, ">>"),
        (BinOp::BitAnd, "&"),
        (BinOp::BitOr, "|"),
        (BinOp::BitXor, "^"),
        (BinOp::Lt, "<"),
        (BinOp::Le, "<="),
        (BinOp::Gt, ">"),
        (BinOp::Ge, ">="),
        (BinOp::Eq, "=="),
        (BinOp::Ne, "!="),
        (BinOp::And, "&&"),
        (BinOp::Or, "||"),
    ];
    for (op, token) in ops {
        assert_eq!(expr(&id("a").bin(op, id("b"))), format!("a {token} b"));
        let compound = CExpr::AssignOp(op, Box::new(id("a")), Box::new(id("b")));
        assert_eq!(expr(&compound), format!("a {token}= b"));
    }
}

#[test]
fn precedence_and_parentheses() {
    let a_plus_b = || id("a").bin(BinOp::Add, id("b"));
    let tern = |c, t, f| CExpr::Ternary(Box::new(c), Box::new(t), Box::new(f));
    check(&[
        (expr(&a_plus_b().bin(BinOp::Mul, id("c"))), "(a + b) * c"),
        (
            expr(&id("a").bin(BinOp::Add, id("b").bin(BinOp::Mul, id("c")))),
            "a + b * c",
        ),
        (expr(&a_plus_b().bin(BinOp::Sub, id("c"))), "a + b - c"),
        (
            expr(&id("a").bin(BinOp::Sub, id("b").bin(BinOp::Sub, id("c")))),
            "a - (b - c)",
        ),
        (
            expr(&id("a").bin(BinOp::Or, id("b").bin(BinOp::And, id("c")))),
            "a || b && c",
        ),
        (
            expr(&id("a").bin(BinOp::Or, id("b")).bin(BinOp::And, id("c"))),
            "(a || b) && c",
        ),
        (
            expr(
                &id("x")
                    .bin(BinOp::BitAnd, id("m"))
                    .bin(BinOp::Eq, CExpr::Int(0)),
            ),
            "(x & m) == 0",
        ),
        (expr(&un(UnOp::Neg, a_plus_b())), "-(a + b)"),
        (
            expr(&un(UnOp::Not, id("a").bin(BinOp::And, id("b")))),
            "!(a && b)",
        ),
        (expr(&a_plus_b().cast(CType::Int)), "(int)(a + b)"),
        (
            expr(&id("p").cast(CType::ptr(CType::Char)).index(CExpr::Int(1))),
            "((char *)p)[1]",
        ),
        (expr(&CExpr::PostInc(Box::new(id("p"))).deref()), "*p++"),
        (expr(&CExpr::PostInc(Box::new(id("p").deref()))), "(*p)++"),
        (expr(&CExpr::call("f", vec![]).member("x")), "f().x"),
        (expr(&a_plus_b().member("x")), "(a + b).x"),
        (expr(&a_plus_b().index(a_plus_b())), "(a + b)[a + b]"),
        (
            expr(&CExpr::call("f", vec![id("a").assign(id("b")), a_plus_b()])),
            "f(a = b, a + b)",
        ),
        (
            expr(&id("x").assign(tern(id("c"), id("t"), id("f")))),
            "x = c ? t : f",
        ),
        (
            expr(&tern(id("a").assign(id("b")), id("t"), id("f"))),
            "(a = b) ? t : f",
        ),
        (
            expr(&tern(
                id("c"),
                tern(id("d"), id("e"), id("f")),
                tern(id("g"), id("h"), id("i")),
            )),
            "c ? d ? e : f : g ? h : i",
        ),
        (
            expr(&tern(tern(id("a"), id("b"), id("c")), id("t"), id("f"))),
            "(a ? b : c) ? t : f",
        ),
        (
            expr(&id("a").assign(id("b")).bin(BinOp::Add, id("c"))),
            "(a = b) + c",
        ),
        (
            expr(&id("a").assign(id("b")).assign(id("c"))),
            "(a = b) = c",
        ),
        (expr(&a_plus_b().assign(id("c"))), "(a + b) = c"),
        (
            expr(&CExpr::AssignOp(
                BinOp::Add,
                Box::new(id("ofs")),
                Box::new(id("x").assign(CExpr::Int(1))),
            )),
            "ofs += x = 1",
        ),
        (
            expr(&id("buf").cast(CType::ptr(CType::UInt)).deref()),
            "*(unsigned int *)buf",
        ),
        (expr(&un(UnOp::Neg, id("x").cast(CType::Int))), "-(int)x"),
        (
            expr(&id("x").cast(CType::Int).cast(CType::Long)),
            "(long)(int)x",
        ),
        (
            expr(&CExpr::SizeOfType(CType::Int).bin(BinOp::Mul, CExpr::Int(4))),
            "sizeof(int) * 4",
        ),
    ]);
}

#[test]
fn escapes() {
    check(&[
        (expr(&CExpr::Str("a\"b\n".into())), "\"a\\\"b\\n\""),
        (expr(&CExpr::Str("back\\slash".into())), "\"back\\\\slash\""),
        (expr(&CExpr::Str("it's".into())), "\"it\\'s\""),
        (expr(&CExpr::Str("\t\r\0".into())), "\"\\t\\r\\0\""),
        (expr(&CExpr::Str("\u{1}x\u{1f}".into())), "\"\\x01x\\x1f\""),
        (expr(&CExpr::Str("\u{7f}é".into())), "\"\u{7f}é\""),
        (expr(&CExpr::Str(String::new())), "\"\""),
        (expr(&CExpr::Char('\'')), "'\\''"),
        (expr(&CExpr::Char('"')), "'\\\"'"),
        (expr(&CExpr::Char('\n')), "'\\n'"),
        (expr(&CExpr::Char('\0')), "'\\0'"),
        (expr(&CExpr::Char('\u{1b}')), "'\\x1b'"),
        (expr(&CExpr::Char('ß')), "'ß'"),
    ]);
}

#[test]
fn every_statement_variant() {
    let ret = |v| CStmt::Return(Some(CExpr::Int(v)));
    let call = |f: &str| CStmt::expr(CExpr::call(f, vec![]));
    check(&[
        (stmt(&call("f"), 0), "f();\n"),
        (stmt(&call("f"), 2), "        f();\n"),
        (
            stmt(&CStmt::decl("p", CType::ptr(CType::Char)), 1),
            "    char *p;\n",
        ),
        (
            stmt(
                &CStmt::decl_init("t", CType::array(CType::Int, 2), id("init")),
                1,
            ),
            "    int t[2] = init;\n",
        ),
        (
            stmt(
                &CStmt::If {
                    cond: id("n").bin(BinOp::Gt, CExpr::Int(0)),
                    then: vec![ret(1)],
                    els: Some(vec![ret(0)]),
                },
                0,
            ),
            "if (n > 0) {\n    return 1;\n} else {\n    return 0;\n}\n",
        ),
        (
            stmt(
                &CStmt::If {
                    cond: id("x"),
                    then: vec![],
                    els: None,
                },
                1,
            ),
            "    if (x) {\n    }\n",
        ),
        (
            stmt(
                &CStmt::While {
                    cond: id("more"),
                    body: vec![call("step")],
                },
                1,
            ),
            "    while (more) {\n        step();\n    }\n",
        ),
        (
            stmt(
                &CStmt::For {
                    init: Some(id("i").assign(CExpr::Int(0))),
                    cond: Some(id("i").bin(BinOp::Lt, id("n"))),
                    step: Some(CExpr::PostInc(Box::new(id("i")))),
                    body: vec![call("f")],
                },
                0,
            ),
            "for (i = 0; i < n; i++) {\n    f();\n}\n",
        ),
        (
            stmt(
                &CStmt::For {
                    init: None,
                    cond: None,
                    step: None,
                    body: vec![],
                },
                0,
            ),
            "for (; ; ) {\n}\n",
        ),
        (
            stmt(
                &CStmt::Switch {
                    scrutinee: id("op"),
                    cases: vec![
                        SwitchCase {
                            values: vec![1, -2],
                            body: vec![call("f")],
                        },
                        SwitchCase {
                            values: vec![3],
                            body: vec![CStmt::Goto("out".into())],
                        },
                        SwitchCase {
                            values: vec![4],
                            body: vec![call("g"), CStmt::Break],
                        },
                        SwitchCase {
                            values: vec![i64::MIN],
                            body: vec![],
                        },
                        SwitchCase {
                            values: vec![],
                            body: vec![ret(-1)],
                        },
                    ],
                },
                1,
            ),
            "    switch (op) {\n    case 1:\n    case -2:\n        f();\n        break;\n    \
             case 3:\n        goto out;\n    case 4:\n        g();\n        break;\n    \
             case -9223372036854775808:\n        break;\n    default:\n        return -1;\n    }\n",
        ),
        (stmt(&CStmt::Return(None), 1), "    return;\n"),
        (stmt(&ret(7), 1), "    return 7;\n"),
        (stmt(&CStmt::Break, 3), "            break;\n"),
        (stmt(&CStmt::Goto("fail".into()), 1), "    goto fail;\n"),
        (stmt(&CStmt::Label("fail".into()), 2), "fail:\n"),
        (
            stmt(&CStmt::Block(vec![call("a"), CStmt::Block(vec![])]), 1),
            "    {\n        a();\n        {\n        }\n    }\n",
        ),
        (
            stmt(&CStmt::Comment("memcpy run".into()), 2),
            "        /* memcpy run */\n",
        ),
        // Deeper than the indentation a single run of spaces covers.
        (
            stmt(&CStmt::Break, 17),
            &format!("{}break;\n", " ".repeat(68)),
        ),
    ]);
}

#[test]
fn every_declaration_variant() {
    check(&[
        (
            decl(&CDecl::Include("<string.h>".into())),
            "#include <string.h>\n",
        ),
        (
            decl(&CDecl::Define {
                name: "N".into(),
                value: "(4 + 4)".into(),
            }),
            "#define N (4 + 4)\n",
        ),
        (
            decl(&CDecl::Comment("Do not edit.".into())),
            "/* Do not edit. */\n",
        ),
        (
            decl(&CDecl::Typedef {
                name: "Mail".into(),
                ty: CType::ptr(CType::Void),
            }),
            "typedef void *Mail;\n",
        ),
        (
            decl(&CDecl::Typedef {
                name: "handler".into(),
                ty: CType::ptr(func(CType::Int, vec![CType::ptr(CType::named("FLICK_BUF"))])),
            }),
            "typedef int (*handler)(FLICK_BUF *);\n",
        ),
        (
            decl(&CDecl::Typedef {
                name: "long_seq".into(),
                ty: CType::StructDef {
                    tag: None,
                    fields: vec![
                        field("_maximum", CType::UInt),
                        field("_length", CType::UInt),
                        field("_buffer", CType::ptr(CType::Long)),
                    ],
                },
            }),
            "typedef struct { unsigned int _maximum; unsigned int _length; long *_buffer; } long_seq;\n",
        ),
        (
            decl(&CDecl::Struct {
                tag: "node".into(),
                fields: vec![
                    field("value", CType::Int),
                    field("tag", CType::ptr(CType::Char)),
                    field("next", CType::ptr(CType::StructRef("node".into()))),
                    field("pad", CType::array(CType::UChar, 3)),
                ],
            }),
            "struct node {\n    int value;\n    char *tag;\n    struct node *next;\n    \
             unsigned char pad[3];\n};\n",
        ),
        (
            decl(&CDecl::Struct {
                tag: "empty".into(),
                fields: vec![],
            }),
            "struct empty {\n};\n",
        ),
        (
            decl(&CDecl::Enum {
                tag: "Kind".into(),
                items: vec![("K_A".into(), 0), ("K_B".into(), -1), ("K_MIN".into(), i64::MIN)],
            }),
            "enum Kind {\n    K_A = 0,\n    K_B = -1,\n    K_MIN = -9223372036854775808,\n};\n",
        ),
        (
            decl(&CDecl::Var {
                name: "table".into(),
                ty: CType::array(CType::ptr(CType::Char), 2),
                init: None,
                is_static: false,
            }),
            "char *table[2];\n",
        ),
        (
            decl(&CDecl::Var {
                name: "count".into(),
                ty: CType::UInt,
                init: Some(CExpr::UInt(u64::MAX)),
                is_static: true,
            }),
            "static unsigned int count = 18446744073709551615u;\n",
        ),
        (
            decl(&CDecl::Function(CFunction {
                name: "reset".into(),
                ret: CType::Void,
                params: vec![],
                body: None,
            })),
            "void reset(void);\n",
        ),
        (
            decl(&CDecl::Function(CFunction {
                name: "rows".into(),
                ret: CType::ptr(CType::array(CType::Int, 3)),
                params: vec![param("n", CType::Int), param("cb", CType::ptr(func(CType::Void, vec![])))],
                body: None,
            })),
            "int (*rows(int n, void (*cb)(void)))[3];\n",
        ),
        (
            decl(&CDecl::Function(CFunction {
                name: "flick_marshal_node".into(),
                ret: CType::Void,
                params: vec![
                    param("_buf", CType::ptr(CType::named("FLICK_BUF"))),
                    param("_v", CType::ptr(CType::named("node"))),
                ],
                body: Some(vec![
                    CStmt::decl_init("_len1", CType::UInt, CExpr::call("strlen", vec![id("_v").arrow("tag")])),
                    CStmt::If {
                        cond: id("_len1").bin(BinOp::Gt, CExpr::Int(16)),
                        then: vec![CStmt::Return(None)],
                        els: None,
                    },
                ]),
            })),
            "void flick_marshal_node(FLICK_BUF *_buf, node *_v)\n{\n    unsigned int _len1 = \
             strlen(_v->tag);\n    if (_len1 > 16) {\n        return;\n    }\n}\n",
        ),
        (
            decl(&CDecl::Function(CFunction {
                name: "noop".into(),
                ret: CType::Int,
                params: vec![],
                body: Some(vec![]),
            })),
            "int noop(void)\n{\n}\n",
        ),
    ]);
}

#[test]
fn a_unit_is_its_declarations_in_order() {
    let unit = CUnit {
        decls: vec![
            CDecl::Comment("head".into()),
            CDecl::Include("\"flick_runtime.h\"".into()),
            CDecl::Typedef {
                name: "u32".into(),
                ty: CType::UInt,
            },
            CDecl::Var {
                name: "x".into(),
                ty: CType::named("u32"),
                init: Some(CExpr::Int(1)),
                is_static: false,
            },
        ],
    };
    assert_eq!(
        Printer::new().unit(&unit),
        "/* head */\n#include \"flick_runtime.h\"\ntypedef unsigned int u32;\nu32 x = 1;\n"
    );
    assert_eq!(Printer::new().unit(&CUnit::new()), "");
}
