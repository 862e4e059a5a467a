//! Recursive-descent parser for ONC RPC `.x` files.

use std::collections::HashMap;

use flick_aoi::{
    Aoi, Field, Interface, Name, Operation, Param, ParamDir, PrimType, Type, TypeId, UnionCase,
    UnionLabel,
};
use flick_idl::lex::{Token, TokenKind};
use flick_idl::parse::Cursor;

const KEYWORDS: &[&str] = &[
    "typedef",
    "enum",
    "struct",
    "union",
    "switch",
    "case",
    "default",
    "const",
    "program",
    "version",
    "void",
    "int",
    "unsigned",
    "hyper",
    "float",
    "double",
    "quadruple",
    "bool",
    "opaque",
    "string",
    "TRUE",
    "FALSE",
];

/// A parsed XDR declaration: a name (possibly empty; a slice of the
/// source) and its type.
struct Decl<'s> {
    name: &'s str,
    ty: Option<TypeId>, // None for `void`
}

const IDL_NAME: &str = "onc";

/// Identifiers are slices of the source (`'s`) until a declaration
/// stores one: only then is a [`Name`] allocated.
pub(crate) struct Parser<'t, 's> {
    pub(crate) cursor: Cursor<'t, 's>,
    aoi: Aoi,
    consts: HashMap<&'s str, i64>,
}

impl<'t, 's> Parser<'t, 's> {
    pub(crate) fn new(toks: &'t [Token<'s>]) -> Self {
        let mut aoi = Aoi::new(IDL_NAME);
        // Guarantee `void` exists so later phases (attribute expansion)
        // can synthesize operations without mutating the contract.
        aoi.types.prim(PrimType::Void);
        Parser {
            cursor: Cursor::new(toks),
            aoi,
            consts: HashMap::new(),
        }
    }

    pub(crate) fn parse_specification(&mut self) -> Aoi {
        while !self.cursor.at_eof() {
            if let TokenKind::Directive(_) = &self.cursor.peek().kind {
                self.cursor.bump();
                continue;
            }
            let before = self.cursor.pos();
            self.parse_definition();
            if self.cursor.pos() == before {
                // Error recovery stopped on a token no definition can
                // start with (a stray `}`); skip it or loop forever.
                self.cursor.bump();
            }
        }
        std::mem::take(&mut self.aoi)
    }

    fn parse_definition(&mut self) {
        let t = self.cursor.peek();
        match t.kind {
            TokenKind::Ident("typedef") => self.parse_typedef(),
            TokenKind::Ident("enum") => self.parse_enum_def(),
            TokenKind::Ident("struct") => self.parse_struct_def(),
            TokenKind::Ident("union") => self.parse_union_def(),
            TokenKind::Ident("const") => self.parse_const(),
            TokenKind::Ident("program") => return self.parse_program(),
            _ => {
                self.cursor.diags.error(
                    format!("expected a definition, found {}", t.kind.describe()),
                    t.span,
                );
                return self.cursor.recover_to_semi();
            }
        }
        self.expect_semi();
    }

    fn expect_semi(&mut self) {
        if !self.cursor.eat(&TokenKind::Semi) {
            let span = self.cursor.span();
            let found = self.cursor.peek().kind.describe();
            self.cursor
                .diags
                .error(format!("expected `;`, found {found}"), span);
            self.cursor.recover_to_semi();
        }
    }

    fn ident_not_keyword(&mut self, context: &str) -> &'s str {
        let (name, span) = self.cursor.expect_ident(context);
        if KEYWORDS.contains(&name) {
            self.cursor
                .diags
                .error(format!("keyword `{name}` cannot be used as a name"), span);
        }
        name
    }

    // ---- type specifiers ----

    /// Parses a bare type specifier (no declarator suffix).
    fn parse_type_specifier(&mut self) -> Option<TypeId> {
        let t = self.cursor.peek();
        let id = match t.kind {
            TokenKind::Ident("void") => {
                self.cursor.bump();
                return None;
            }
            TokenKind::Ident("unsigned") => {
                self.cursor.bump();
                if self.cursor.eat_kw("hyper") {
                    self.aoi.types.prim(PrimType::ULongLong)
                } else {
                    // bare `unsigned` means `unsigned int`
                    self.cursor.eat_kw("int");
                    self.aoi.types.prim(PrimType::ULong)
                }
            }
            // (`char` is not standard XDR but a common rpcgen extension.)
            TokenKind::Ident(kw @ ("int" | "hyper" | "float" | "double" | "bool" | "char")) => {
                self.cursor.bump();
                self.aoi.types.prim(match kw {
                    "int" => PrimType::Long,
                    "hyper" => PrimType::LongLong,
                    "float" => PrimType::Float,
                    "double" => PrimType::Double,
                    "bool" => PrimType::Boolean,
                    _ => PrimType::Char,
                })
            }
            TokenKind::Ident("string") => {
                // `string` in parameter position (bound optional).
                self.cursor.bump();
                let bound = self.parse_optional_angle_bound();
                self.aoi.types.add(Type::String { bound })
            }
            TokenKind::Ident("enum") => {
                // Anonymous inline enum.
                self.cursor.bump();
                let name = format!("_anon_enum_{}", self.aoi.types.len());
                self.parse_enum_body(name.into())
            }
            TokenKind::Ident("struct") => {
                self.cursor.bump();
                // `struct tag` reference or inline body.
                if self.cursor.peek().kind == TokenKind::LBrace {
                    let name = format!("_anon_struct_{}", self.aoi.types.len());
                    self.parse_struct_body(name.into())
                } else {
                    let tag = self.ident_not_keyword("after `struct`");
                    self.lookup_type(tag)
                }
            }
            TokenKind::Ident(_) => {
                let name = self.ident_not_keyword("as type name");
                self.lookup_type(name)
            }
            _ => {
                self.cursor.diags.error(
                    format!("expected a type, found {}", t.kind.describe()),
                    t.span,
                );
                self.cursor.bump();
                self.aoi.types.prim(PrimType::Long)
            }
        };
        Some(id)
    }

    fn lookup_type(&mut self, name: &str) -> TypeId {
        if let Some(id) = self.aoi.types.lookup(name) {
            id
        } else {
            let span = self.cursor.span();
            self.cursor
                .diags
                .error(format!("unknown type `{name}`"), span);
            self.aoi.types.prim(PrimType::Long)
        }
    }

    /// Parses `<bound>` / `<>` if present; `None` when absent or empty.
    fn parse_optional_angle_bound(&mut self) -> Option<u64> {
        if !self.cursor.eat(&TokenKind::Lt) {
            return None;
        }
        if self.cursor.eat(&TokenKind::Gt) {
            return None;
        }
        let v = self.parse_value("as bound");
        self.cursor.expect(&TokenKind::Gt, "to close bound");
        u64::try_from(v).ok()
    }

    /// Parses a full XDR declaration: `type-specifier declarator`.
    fn parse_declaration(&mut self, context: &str) -> Decl<'s> {
        // `opaque` and `string` have special declarator forms.
        if self.cursor.at_kw("opaque") {
            self.cursor.bump();
            let name = self.ident_not_keyword("as opaque member name");
            let ty = if self.cursor.eat(&TokenKind::LBracket) {
                let n = self.parse_value("as opaque length");
                self.cursor
                    .expect(&TokenKind::RBracket, "to close opaque length");
                self.aoi.types.add(Type::Opaque {
                    fixed_len: u64::try_from(n).ok(),
                    bound: None,
                })
            } else if self.cursor.eat(&TokenKind::Lt) {
                let bound = if self.cursor.eat(&TokenKind::Gt) {
                    None
                } else {
                    let v = self.parse_value("as opaque bound");
                    self.cursor.expect(&TokenKind::Gt, "to close opaque bound");
                    u64::try_from(v).ok()
                };
                self.aoi.types.add(Type::Opaque {
                    fixed_len: None,
                    bound,
                })
            } else {
                let span = self.cursor.span();
                self.cursor
                    .diags
                    .error("opaque requires `[n]` or `<n>`", span);
                self.aoi.types.add(Type::Opaque {
                    fixed_len: None,
                    bound: None,
                })
            };
            return Decl { name, ty: Some(ty) };
        }
        if self.cursor.at_kw("string") && matches!(&self.cursor.peek2().kind, TokenKind::Ident(_)) {
            self.cursor.bump();
            let name = self.ident_not_keyword("as string member name");
            let bound = self.parse_optional_angle_bound();
            let ty = self.aoi.types.add(Type::String { bound });
            return Decl { name, ty: Some(ty) };
        }

        let Some(base) = self.parse_type_specifier() else {
            return Decl { name: "", ty: None }; // void
        };
        // Optional-data pointer?
        if self.cursor.eat(&TokenKind::Star) {
            let name = self.ident_not_keyword(context);
            let ty = self.aoi.types.add(Type::Optional { elem: base });
            return Decl { name, ty: Some(ty) };
        }
        // Name (may be absent in procedure parameter lists).
        let name = match self.cursor.peek().kind {
            TokenKind::Ident(s) if !KEYWORDS.contains(&s) => {
                self.cursor.bump();
                s
            }
            _ => "",
        };
        // Array suffixes.
        let ty = if self.cursor.eat(&TokenKind::LBracket) {
            let n = self.parse_value("as array length");
            self.cursor
                .expect(&TokenKind::RBracket, "to close array length");
            self.aoi.types.add(Type::Array {
                elem: base,
                len: u64::try_from(n).unwrap_or(0),
            })
        } else if self.cursor.peek().kind == TokenKind::Lt {
            let bound = self.parse_optional_angle_bound();
            self.aoi.types.add(Type::Sequence { elem: base, bound })
        } else {
            base
        };
        Decl { name, ty: Some(ty) }
    }

    // ---- definitions ----

    fn parse_typedef(&mut self) {
        self.cursor.bump(); // typedef
        let d = self.parse_declaration("as typedef name");
        let Some(ty) = d.ty else {
            let span = self.cursor.span();
            self.cursor.diags.error("cannot typedef void", span);
            return;
        };
        if d.name.is_empty() {
            let span = self.cursor.span();
            self.cursor.diags.error("typedef requires a name", span);
            return;
        }
        let name = Name::from(d.name);
        let alias = self.aoi.types.add(Type::Alias {
            name: name.clone(),
            target: ty,
        });
        self.aoi.types.bind_name(name, alias);
    }

    fn parse_enum_def(&mut self) {
        self.cursor.bump(); // enum
        let name = Name::from(self.ident_not_keyword("after `enum`"));
        let id = self.parse_enum_body(name.clone());
        self.aoi.types.bind_name(name, id);
    }

    fn parse_enum_body(&mut self, name: Name) -> TypeId {
        let mut items = Vec::new();
        if self.cursor.expect(&TokenKind::LBrace, "to open enum body") {
            let mut next = 0i64;
            loop {
                let iname = self.ident_not_keyword("as enumerator");
                let val = if self.cursor.eat(&TokenKind::Eq) {
                    self.parse_value("as enumerator value")
                } else {
                    next
                };
                next = val + 1;
                self.consts.insert(iname, val);
                items.push((iname.into(), val));
                if !self.cursor.eat(&TokenKind::Comma) {
                    break;
                }
                if self.cursor.peek().kind == TokenKind::RBrace {
                    break;
                }
            }
            self.cursor.expect(&TokenKind::RBrace, "to close enum body");
        }
        self.aoi.types.add(Type::Enum { name, items })
    }

    fn parse_struct_def(&mut self) {
        self.cursor.bump(); // struct
        let name = Name::from(self.ident_not_keyword("after `struct`"));
        // Pre-bind for self-reference (linked lists).
        let placeholder = self.aoi.types.prim(PrimType::Void);
        let fwd = self.aoi.types.add(Type::Alias {
            name: name.clone(),
            target: placeholder,
        });
        self.aoi.types.bind_name(name.clone(), fwd);
        let sid = self.parse_struct_body(name.clone());
        *self.aoi.types.get_mut(fwd) = Type::Alias { name, target: sid };
    }

    fn parse_struct_body(&mut self, name: Name) -> TypeId {
        let mut fields = Vec::new();
        if self
            .cursor
            .expect(&TokenKind::LBrace, "to open struct body")
        {
            while !self.cursor.at_eof() && self.cursor.peek().kind != TokenKind::RBrace {
                let d = self.parse_declaration("as member name");
                match d.ty {
                    Some(ty) if !d.name.is_empty() => fields.push(Field {
                        name: d.name.into(),
                        ty,
                    }),
                    Some(_) => {
                        let span = self.cursor.span();
                        self.cursor
                            .diags
                            .error("struct member requires a name", span);
                        self.cursor.recover_to_semi();
                        continue;
                    }
                    None => {
                        let span = self.cursor.span();
                        self.cursor
                            .diags
                            .error("struct member cannot be void", span);
                    }
                }
                self.expect_semi();
            }
            self.cursor
                .expect(&TokenKind::RBrace, "to close struct body");
        }
        self.aoi.types.add(Type::Struct { name, fields })
    }

    fn parse_union_def(&mut self) {
        self.cursor.bump(); // union
        let name = Name::from(self.ident_not_keyword("after `union`"));
        let placeholder = self.aoi.types.prim(PrimType::Void);
        let fwd = self.aoi.types.add(Type::Alias {
            name: name.clone(),
            target: placeholder,
        });
        self.aoi.types.bind_name(name.clone(), fwd);

        self.cursor.expect_kw("switch", "in union definition");
        self.cursor.expect(&TokenKind::LParen, "after `switch`");
        let disc_decl = self.parse_declaration("as discriminator name");
        self.cursor.expect(&TokenKind::RParen, "to close switch");
        let disc = disc_decl
            .ty
            .unwrap_or_else(|| self.aoi.types.prim(PrimType::Long));

        let mut cases: Vec<UnionCase> = Vec::new();
        if self.cursor.expect(&TokenKind::LBrace, "to open union body") {
            while !self.cursor.at_eof() && self.cursor.peek().kind != TokenKind::RBrace {
                let mut labels = Vec::new();
                loop {
                    if self.cursor.eat_kw("case") {
                        let v = self.parse_value("as case label");
                        self.cursor.expect(&TokenKind::Colon, "after case label");
                        labels.push(UnionLabel::Value(v));
                    } else if self.cursor.eat_kw("default") {
                        self.cursor.expect(&TokenKind::Colon, "after `default`");
                        labels.push(UnionLabel::Default);
                    } else {
                        break;
                    }
                }
                if labels.is_empty() {
                    let span = self.cursor.span();
                    self.cursor
                        .diags
                        .error("expected `case` or `default` in union body", span);
                    self.cursor.recover_to_semi();
                    continue;
                }
                let d = self.parse_declaration("as union arm name");
                self.expect_semi();
                cases.push(UnionCase {
                    labels,
                    name: d.name.into(),
                    ty: d.ty,
                });
            }
            self.cursor
                .expect(&TokenKind::RBrace, "to close union body");
        }
        let uid = self.aoi.types.add(Type::Union {
            name: name.clone(),
            discriminator: disc,
            cases,
        });
        *self.aoi.types.get_mut(fwd) = Type::Alias { name, target: uid };
    }

    fn parse_const(&mut self) {
        self.cursor.bump(); // const
        let name = self.ident_not_keyword("as constant name");
        self.cursor.expect(&TokenKind::Eq, "in constant definition");
        let v = self.parse_value("as constant value");
        self.consts.insert(name, v);
    }

    fn parse_value(&mut self, context: &str) -> i64 {
        let neg = self.cursor.eat(&TokenKind::Minus);
        let t = self.cursor.peek();
        let v = match t.kind {
            TokenKind::Int(v) => {
                self.cursor.bump();
                v as i64
            }
            TokenKind::Ident(name) => {
                self.cursor.bump();
                match name {
                    "TRUE" => 1,
                    "FALSE" => 0,
                    _ => match self.consts.get(name) {
                        Some(v) => *v,
                        None => {
                            self.cursor
                                .diags
                                .error(format!("unknown constant `{name}`"), t.span);
                            0
                        }
                    },
                }
            }
            _ => {
                self.cursor.diags.error(
                    format!("expected value {context}, found {}", t.kind.describe()),
                    t.span,
                );
                self.cursor.bump();
                0
            }
        };
        if neg {
            -v
        } else {
            v
        }
    }

    // ---- program definitions ----

    fn parse_program(&mut self) {
        self.cursor.bump(); // program
        let prog_name = self.ident_not_keyword("after `program`");
        let mut versions: Vec<(&str, Vec<Operation>, u64)> = Vec::new();
        if self
            .cursor
            .expect(&TokenKind::LBrace, "to open program body")
        {
            while !self.cursor.at_eof() && self.cursor.peek().kind != TokenKind::RBrace {
                if !self.cursor.expect_kw("version", "in program body") {
                    self.cursor.recover_to_semi();
                    continue;
                }
                let ver_name = self.ident_not_keyword("after `version`");
                let mut ops = Vec::new();
                if self
                    .cursor
                    .expect(&TokenKind::LBrace, "to open version body")
                {
                    while !self.cursor.at_eof() && self.cursor.peek().kind != TokenKind::RBrace {
                        if let Some(op) = self.parse_procedure() {
                            ops.push(op);
                        }
                    }
                    self.cursor
                        .expect(&TokenKind::RBrace, "to close version body");
                }
                self.cursor.expect(&TokenKind::Eq, "after version body");
                let (vnum, _) = self.cursor.expect_int("as version number");
                self.expect_semi();
                versions.push((ver_name, ops, vnum));
            }
            self.cursor
                .expect(&TokenKind::RBrace, "to close program body");
        }
        self.cursor.expect(&TokenKind::Eq, "after program body");
        let (pnum, _) = self.cursor.expect_int("as program number");
        self.expect_semi();

        let single = versions.len() == 1;
        for (ver_name, ops, vnum) in versions {
            let iface_name = if single {
                Name::from(prog_name)
            } else {
                format!("{prog_name}::{ver_name}").into()
            };
            let mut iface = Interface::new(iface_name);
            iface.program = pnum;
            iface.version = vnum;
            iface.ops = ops;
            self.aoi.add_interface(iface);
        }
    }

    fn parse_procedure(&mut self) -> Option<Operation> {
        let ret = match self.parse_type_specifier() {
            Some(t) => t,
            None => self.aoi.types.prim(PrimType::Void),
        };
        let name = self.ident_not_keyword("as procedure name");
        if name == "<error>" {
            self.cursor.recover_to_semi();
            return None;
        }
        let mut params = Vec::new();
        if self
            .cursor
            .expect(&TokenKind::LParen, "to open procedure arguments")
            && !self.cursor.eat(&TokenKind::RParen)
        {
            let mut index = 0usize;
            loop {
                let d = self.parse_declaration("as argument name");
                if let Some(ty) = d.ty {
                    let pname = if !d.name.is_empty() {
                        Name::from(d.name)
                    } else if index == 0 {
                        Name::from_static("arg")
                    } else {
                        format!("arg{}", index + 1).into()
                    };
                    params.push(Param {
                        name: pname,
                        dir: ParamDir::In,
                        ty,
                    });
                }
                index += 1;
                if !self.cursor.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.cursor
                .expect(&TokenKind::RParen, "to close procedure arguments");
        }
        self.cursor
            .expect(&TokenKind::Eq, "after procedure declaration");
        let (code, _) = self.cursor.expect_int("as procedure number");
        self.expect_semi();
        Some(Operation {
            name: name.into(),
            oneway: false,
            ret,
            params,
            raises: vec![],
            request_code: code,
        })
    }
}
