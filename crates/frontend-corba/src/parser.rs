//! Recursive-descent parser for CORBA 2.0 IDL.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use flick_aoi::{
    Aoi, Attribute, Exception, ExceptionId, Field, Interface, Name, Operation, Param, ParamDir,
    PrimType, Type, TypeId, UnionCase, UnionLabel,
};
use flick_idl::lex::{Token, TokenKind};
use flick_idl::parse::Cursor;

/// Keywords of CORBA IDL.  Identifiers are checked against this set so
/// `interface interface {}` is rejected.
const KEYWORDS: &[&str] = &[
    "module",
    "interface",
    "typedef",
    "struct",
    "union",
    "switch",
    "case",
    "default",
    "enum",
    "const",
    "exception",
    "attribute",
    "readonly",
    "oneway",
    "raises",
    "context",
    "in",
    "out",
    "inout",
    "void",
    "long",
    "short",
    "unsigned",
    "float",
    "double",
    "char",
    "boolean",
    "octet",
    "string",
    "sequence",
    "any",
    "TRUE",
    "FALSE",
];

const IDL_NAME: &str = "corba";

/// Identifiers are slices of the source (`'s`) until a declaration
/// stores one: only then is a [`Name`] allocated.
pub(crate) struct Parser<'t, 's> {
    pub(crate) cursor: Cursor<'t, 's>,
    aoi: Aoi,
    /// Current module path, innermost last.
    scope: Vec<&'s str>,
    /// Folded constant values by scoped name (consts and enum items).
    consts: HashMap<Name, i64>,
    /// Names of all declared (or forward-declared) interfaces.
    interface_names: HashSet<Name>,
    /// Exceptions by scoped name.
    exception_ids: HashMap<Name, ExceptionId>,
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
            scope: Vec::new(),
            consts: HashMap::new(),
            interface_names: HashSet::new(),
            exception_ids: HashMap::new(),
        }
    }

    /// Parses a whole specification, consuming the cursor's tokens.
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

    /// The name a declaration of `name` in the current scope introduces.
    fn scoped(&self, name: &str) -> Name {
        if self.scope.is_empty() {
            Name::from(name)
        } else {
            format!("{}::{}", self.scope.join("::"), name).into()
        }
    }

    /// Resolves `name` against enclosing scopes, innermost first.
    fn resolve_name<T>(&self, name: &str, lookup: impl Fn(&str) -> Option<T>) -> Option<T> {
        for depth in (1..=self.scope.len()).rev() {
            let candidate = format!("{}::{}", self.scope[..depth].join("::"), name);
            if let Some(v) = lookup(&candidate) {
                return Some(v);
            }
        }
        lookup(name)
    }

    fn parse_definition(&mut self) {
        let t = self.cursor.peek();
        match t.kind {
            TokenKind::Ident("module") => self.parse_module(),
            TokenKind::Ident("interface") => self.parse_interface(),
            _ if self.parse_declaration() => {}
            _ => {
                self.cursor.diags.error(
                    format!("expected a definition, found {}", t.kind.describe()),
                    t.span,
                );
                self.cursor.recover_to_semi();
            }
        }
    }

    /// Parses one `typedef`/`struct`/`union`/`enum`/`const`/`exception`
    /// declaration and its `;` — the declarations a specification, a
    /// module and an interface body all admit.  False (nothing
    /// consumed) when the next token starts none of them.
    fn parse_declaration(&mut self) -> bool {
        match self.cursor.peek().kind {
            TokenKind::Ident("typedef") => self.parse_typedef(),
            TokenKind::Ident("struct") => drop(self.parse_struct()),
            TokenKind::Ident("union") => drop(self.parse_union()),
            TokenKind::Ident("enum") => drop(self.parse_enum()),
            TokenKind::Ident("const") => self.parse_const(),
            TokenKind::Ident("exception") => self.parse_exception(),
            _ => return false,
        }
        self.expect_semi();
        true
    }

    fn expect_semi(&mut self) {
        if !self.cursor.eat(&TokenKind::Semi) {
            let span = self.cursor.span();
            let found = self.cursor.peek().kind.describe();
            self.cursor.diags.error(
                format!("expected `;` after definition, found {found}"),
                span,
            );
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

    fn parse_module(&mut self) {
        self.cursor.bump(); // module
        let name = self.ident_not_keyword("after `module`");
        self.scope.push(name);
        if self
            .cursor
            .expect(&TokenKind::LBrace, "to open module body")
        {
            while !self.cursor.at_eof() && self.cursor.peek().kind != TokenKind::RBrace {
                self.parse_definition();
            }
            self.cursor
                .expect(&TokenKind::RBrace, "to close module body");
        }
        self.scope.pop();
        self.expect_semi();
    }

    fn parse_interface(&mut self) {
        self.cursor.bump(); // interface
        let name = self.ident_not_keyword("after `interface`");
        let scoped = self.scoped(name);
        // Forward declaration?
        if self.cursor.eat(&TokenKind::Semi) {
            self.interface_names.insert(scoped);
            return;
        }
        if self.aoi.interface(&scoped).is_some() {
            let span = self.cursor.span();
            self.cursor
                .diags
                .error(format!("duplicate interface `{scoped}`"), span);
        }
        self.interface_names.insert(scoped.clone());
        let mut iface = Interface::new(scoped.clone());
        iface.program = fnv1a(&scoped);
        iface.version = 1;

        // Inheritance: flatten parent operations and attributes.
        if self.cursor.eat(&TokenKind::Colon) {
            loop {
                let pname = self.parse_scoped_name("as inherited interface");
                let resolved =
                    self.resolve_name(&pname, |n| self.aoi.interface(n).map(|i| i.name.clone()));
                match resolved {
                    Some(full) => {
                        let parent = self.aoi.interface(&full).expect("just resolved");
                        iface.ops.extend(parent.ops.iter().cloned());
                        iface.attrs.extend(parent.attrs.iter().cloned());
                        iface.parents.push(full);
                    }
                    None => {
                        let span = self.cursor.span();
                        self.cursor
                            .diags
                            .error(format!("unknown base interface `{pname}`"), span);
                    }
                }
                if !self.cursor.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }

        if self
            .cursor
            .expect(&TokenKind::LBrace, "to open interface body")
        {
            while !self.cursor.at_eof() && self.cursor.peek().kind != TokenKind::RBrace {
                self.parse_export(&mut iface);
            }
            self.cursor
                .expect(&TokenKind::RBrace, "to close interface body");
        }
        // Renumber request codes sequentially after flattening.
        for (i, op) in iface.ops.iter_mut().enumerate() {
            op.request_code = i as u64 + 1;
        }
        self.aoi.add_interface(iface);
        self.expect_semi();
    }

    fn parse_export(&mut self, iface: &mut Interface) {
        match self.cursor.peek().kind {
            TokenKind::Ident("readonly" | "attribute") => {
                self.parse_attribute(iface);
                self.expect_semi();
            }
            _ if self.parse_declaration() => {}
            _ => self.parse_operation(iface),
        }
    }

    fn parse_attribute(&mut self, iface: &mut Interface) {
        let readonly = self.cursor.eat_kw("readonly");
        self.cursor
            .expect_kw("attribute", "in attribute declaration");
        let ty = self.parse_type_spec();
        loop {
            let name = self.ident_not_keyword("as attribute name");
            iface.attrs.push(Attribute {
                name: name.into(),
                ty,
                readonly,
            });
            if !self.cursor.eat(&TokenKind::Comma) {
                break;
            }
        }
    }

    fn parse_operation(&mut self, iface: &mut Interface) {
        let oneway = self.cursor.eat_kw("oneway");
        let ret = self.parse_type_spec();
        let name = self.ident_not_keyword("as operation name");
        let mut op = Operation {
            name: name.into(),
            oneway,
            ret,
            params: Vec::new(),
            raises: Vec::new(),
            request_code: iface.ops.len() as u64 + 1,
        };
        if self
            .cursor
            .expect(&TokenKind::LParen, "to open parameter list")
        {
            if !self.cursor.eat(&TokenKind::RParen) {
                loop {
                    if let Some(p) = self.parse_param() {
                        op.params.push(p);
                    }
                    if !self.cursor.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.cursor
                    .expect(&TokenKind::RParen, "to close parameter list");
            }
        } else {
            self.cursor.recover_to_semi();
            return;
        }
        if self.cursor.eat_kw("raises") {
            self.cursor.expect(&TokenKind::LParen, "after `raises`");
            loop {
                let ename = self.parse_scoped_name("as exception name");
                match self.resolve_name(&ename, |n| self.exception_ids.get(n).copied()) {
                    Some(id) => op.raises.push(id),
                    None => {
                        let span = self.cursor.span();
                        self.cursor
                            .diags
                            .error(format!("unknown exception `{ename}`"), span);
                    }
                }
                if !self.cursor.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.cursor
                .expect(&TokenKind::RParen, "to close raises list");
        }
        if self.cursor.eat_kw("context") {
            // Accept and ignore context clauses.
            self.cursor.expect(&TokenKind::LParen, "after `context`");
            while !self.cursor.at_eof() && !self.cursor.eat(&TokenKind::RParen) {
                self.cursor.bump();
            }
        }
        self.expect_semi();
        iface.ops.push(op);
    }

    fn parse_param(&mut self) -> Option<Param> {
        let dir = if self.cursor.eat_kw("in") {
            ParamDir::In
        } else if self.cursor.eat_kw("out") {
            ParamDir::Out
        } else if self.cursor.eat_kw("inout") {
            ParamDir::InOut
        } else {
            let span = self.cursor.span();
            let found = self.cursor.peek().kind.describe();
            self.cursor.diags.error(
                format!("expected parameter direction `in`, `out`, or `inout`, found {found}"),
                span,
            );
            ParamDir::In
        };
        let ty = self.parse_type_spec();
        let name = self.ident_not_keyword("as parameter name");
        if name == "<error>" {
            // Skip to the next comma or closing paren.
            while !self.cursor.at_eof()
                && self.cursor.peek().kind != TokenKind::Comma
                && self.cursor.peek().kind != TokenKind::RParen
                && self.cursor.peek().kind != TokenKind::Semi
            {
                self.cursor.bump();
            }
            return None;
        }
        Some(Param {
            name: name.into(),
            dir,
            ty,
        })
    }

    // ---- type specifications ----

    fn parse_type_spec(&mut self) -> TypeId {
        let t = self.cursor.peek();
        match t.kind {
            TokenKind::Ident(
                kw @ ("void" | "short" | "float" | "double" | "char" | "boolean" | "octet"),
            ) => {
                self.cursor.bump();
                self.aoi.types.prim(match kw {
                    "void" => PrimType::Void,
                    "short" => PrimType::Short,
                    "float" => PrimType::Float,
                    "double" => PrimType::Double,
                    "char" => PrimType::Char,
                    "boolean" => PrimType::Boolean,
                    _ => PrimType::Octet,
                })
            }
            TokenKind::Ident("long") => {
                self.cursor.bump();
                if self.cursor.eat_kw("long") {
                    self.aoi.types.prim(PrimType::LongLong)
                } else {
                    self.aoi.types.prim(PrimType::Long)
                }
            }
            TokenKind::Ident("unsigned") => {
                self.cursor.bump();
                if self.cursor.eat_kw("short") {
                    self.aoi.types.prim(PrimType::UShort)
                } else if self.cursor.eat_kw("long") {
                    if self.cursor.eat_kw("long") {
                        self.aoi.types.prim(PrimType::ULongLong)
                    } else {
                        self.aoi.types.prim(PrimType::ULong)
                    }
                } else {
                    let span = self.cursor.span();
                    self.cursor
                        .diags
                        .error("expected `short` or `long` after `unsigned`", span);
                    self.aoi.types.prim(PrimType::ULong)
                }
            }
            TokenKind::Ident("string") => {
                self.cursor.bump();
                let bound = if self.cursor.eat(&TokenKind::Lt) {
                    let b = self.parse_positive_const("as string bound");
                    self.cursor.expect(&TokenKind::Gt, "to close string bound");
                    Some(b)
                } else {
                    None
                };
                self.aoi.types.add(Type::String { bound })
            }
            TokenKind::Ident("sequence") => {
                self.cursor.bump();
                self.cursor.expect(&TokenKind::Lt, "after `sequence`");
                let elem = self.parse_type_spec();
                let bound = if self.cursor.eat(&TokenKind::Comma) {
                    Some(self.parse_positive_const("as sequence bound"))
                } else {
                    None
                };
                self.cursor.expect(&TokenKind::Gt, "to close sequence");
                self.aoi.types.add(Type::Sequence { elem, bound })
            }
            TokenKind::Ident("struct") => self.parse_struct(),
            TokenKind::Ident("union") => self.parse_union(),
            TokenKind::Ident("enum") => self.parse_enum(),
            TokenKind::Ident(_) => {
                let name = self.parse_scoped_name("as type name");
                // A named type: typedef/struct/union/enum, or an
                // interface name (=> object reference).
                if let Some(id) = self.resolve_name(&name, |n| self.aoi.types.lookup(n)) {
                    return id;
                }
                if let Some(full) =
                    self.resolve_name(&name, |n| self.interface_names.get(n).cloned())
                {
                    return self.aoi.types.add(Type::ObjRef { interface: full });
                }
                let span = self.cursor.span();
                self.cursor
                    .diags
                    .error(format!("unknown type `{name}`"), span);
                self.aoi.types.prim(PrimType::Long)
            }
            _ => {
                self.cursor.diags.error(
                    format!("expected a type, found {}", t.kind.describe()),
                    t.span,
                );
                self.cursor.bump();
                self.aoi.types.prim(PrimType::Long)
            }
        }
    }

    /// Parses `A::B::C` (leading `::` tolerated) into a joined string —
    /// the source's own text when the name has one part.
    fn parse_scoped_name(&mut self, context: &str) -> Cow<'s, str> {
        let _ = self.cursor.eat(&TokenKind::ColonColon);
        let mut name = Cow::Borrowed(self.cursor.expect_ident(context).0);
        while self.cursor.eat(&TokenKind::ColonColon) {
            let joined = name.to_mut();
            joined.push_str("::");
            joined.push_str(self.cursor.expect_ident(context).0);
        }
        name
    }

    // ---- declarations ----

    fn parse_typedef(&mut self) {
        self.cursor.bump(); // typedef
        let base = self.parse_type_spec();
        loop {
            let name = self.ident_not_keyword("as typedef name");
            let ty = self.parse_array_dims(base);
            let scoped = self.scoped(name);
            let alias = self.aoi.types.add(Type::Alias {
                name: scoped.clone(),
                target: ty,
            });
            self.aoi.types.bind_name(scoped, alias);
            if !self.cursor.eat(&TokenKind::Comma) {
                break;
            }
        }
    }

    /// Applies `[n][m]...` dimensions to `base`, outermost first.
    fn parse_array_dims(&mut self, base: TypeId) -> TypeId {
        let mut dims = Vec::new();
        while self.cursor.eat(&TokenKind::LBracket) {
            dims.push(self.parse_positive_const("as array length"));
            self.cursor
                .expect(&TokenKind::RBracket, "to close array length");
        }
        let mut ty = base;
        for &len in dims.iter().rev() {
            ty = self.aoi.types.add(Type::Array { elem: ty, len });
        }
        ty
    }

    fn parse_struct(&mut self) -> TypeId {
        self.cursor.bump(); // struct
        let name = self.ident_not_keyword("after `struct`");
        let scoped = self.scoped(name);
        // Pre-bind for recursion through sequences.
        let placeholder_target = self.aoi.types.prim(PrimType::Void);
        let fwd = self.aoi.types.add(Type::Alias {
            name: scoped.clone(),
            target: placeholder_target,
        });
        self.aoi.types.bind_name(scoped.clone(), fwd);

        let mut fields = Vec::new();
        if self
            .cursor
            .expect(&TokenKind::LBrace, "to open struct body")
        {
            while !self.cursor.at_eof() && self.cursor.peek().kind != TokenKind::RBrace {
                let fty = self.parse_type_spec();
                loop {
                    let fname = self.ident_not_keyword("as member name");
                    let fty = self.parse_array_dims(fty);
                    fields.push(Field {
                        name: fname.into(),
                        ty: fty,
                    });
                    if !self.cursor.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                if !self.cursor.eat(&TokenKind::Semi) {
                    let span = self.cursor.span();
                    self.cursor
                        .diags
                        .error("expected `;` after struct member", span);
                    self.cursor.recover_to_semi();
                }
            }
            self.cursor
                .expect(&TokenKind::RBrace, "to close struct body");
        }
        let sid = self.aoi.types.add(Type::Struct {
            name: scoped.clone(),
            fields,
        });
        *self.aoi.types.get_mut(fwd) = Type::Alias {
            name: scoped,
            target: sid,
        };
        fwd
    }

    fn parse_union(&mut self) -> TypeId {
        self.cursor.bump(); // union
        let name = self.ident_not_keyword("after `union`");
        let scoped = self.scoped(name);
        let placeholder_target = self.aoi.types.prim(PrimType::Void);
        let fwd = self.aoi.types.add(Type::Alias {
            name: scoped.clone(),
            target: placeholder_target,
        });
        self.aoi.types.bind_name(scoped.clone(), fwd);

        self.cursor.expect_kw("switch", "in union declaration");
        self.cursor.expect(&TokenKind::LParen, "after `switch`");
        let disc = self.parse_type_spec();
        self.cursor
            .expect(&TokenKind::RParen, "to close switch type");

        let mut cases: Vec<UnionCase> = Vec::new();
        if self.cursor.expect(&TokenKind::LBrace, "to open union body") {
            while !self.cursor.at_eof() && self.cursor.peek().kind != TokenKind::RBrace {
                let mut labels = Vec::new();
                loop {
                    if self.cursor.eat_kw("case") {
                        let v = self.parse_const_expr("as case label");
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
                let ety = self.parse_type_spec();
                let ename = self.ident_not_keyword("as union member name");
                let ety = self.parse_array_dims(ety);
                if !self.cursor.eat(&TokenKind::Semi) {
                    let span = self.cursor.span();
                    self.cursor
                        .diags
                        .error("expected `;` after union member", span);
                    self.cursor.recover_to_semi();
                }
                cases.push(UnionCase {
                    labels,
                    name: ename.into(),
                    ty: Some(ety),
                });
            }
            self.cursor
                .expect(&TokenKind::RBrace, "to close union body");
        }
        let uid = self.aoi.types.add(Type::Union {
            name: scoped.clone(),
            discriminator: disc,
            cases,
        });
        *self.aoi.types.get_mut(fwd) = Type::Alias {
            name: scoped,
            target: uid,
        };
        fwd
    }

    fn parse_enum(&mut self) -> TypeId {
        self.cursor.bump(); // enum
        let name = self.ident_not_keyword("after `enum`");
        let scoped = self.scoped(name);
        let mut items = Vec::new();
        if self.cursor.expect(&TokenKind::LBrace, "to open enum body") {
            let mut next = 0i64;
            loop {
                let iname = self.ident_not_keyword("as enumerator");
                let val = next;
                next += 1;
                self.consts.insert(self.scoped(iname), val);
                items.push((iname.into(), val));
                if !self.cursor.eat(&TokenKind::Comma) {
                    break;
                }
                if self.cursor.peek().kind == TokenKind::RBrace {
                    break; // trailing comma
                }
            }
            self.cursor.expect(&TokenKind::RBrace, "to close enum body");
        }
        let id = self.aoi.types.add(Type::Enum {
            name: scoped.clone(),
            items,
        });
        self.aoi.types.bind_name(scoped, id);
        id
    }

    fn parse_const(&mut self) {
        self.cursor.bump(); // const
        let _ty = self.parse_type_spec();
        let name = self.ident_not_keyword("as constant name");
        self.cursor
            .expect(&TokenKind::Eq, "in constant declaration");
        let v = self.parse_const_expr("as constant value");
        self.consts.insert(self.scoped(name), v);
    }

    fn parse_exception(&mut self) {
        self.cursor.bump(); // exception
        let name = self.ident_not_keyword("after `exception`");
        let scoped = self.scoped(name);
        let mut fields = Vec::new();
        if self
            .cursor
            .expect(&TokenKind::LBrace, "to open exception body")
        {
            while !self.cursor.at_eof() && self.cursor.peek().kind != TokenKind::RBrace {
                let fty = self.parse_type_spec();
                let fname = self.ident_not_keyword("as member name");
                let fty = self.parse_array_dims(fty);
                fields.push(Field {
                    name: fname.into(),
                    ty: fty,
                });
                if !self.cursor.eat(&TokenKind::Semi) {
                    let span = self.cursor.span();
                    self.cursor
                        .diags
                        .error("expected `;` after exception member", span);
                    self.cursor.recover_to_semi();
                }
            }
            self.cursor
                .expect(&TokenKind::RBrace, "to close exception body");
        }
        let id = self.aoi.add_exception(Exception {
            name: scoped.clone(),
            fields,
        });
        self.exception_ids.insert(scoped, id);
    }

    // ---- constant expressions ----

    fn parse_positive_const(&mut self, context: &str) -> u64 {
        let span = self.cursor.span();
        let v = self.parse_const_expr(context);
        if v <= 0 {
            self.cursor.diags.error(
                format!("expected a positive constant {context}, got {v}"),
                span,
            );
            1
        } else {
            v as u64
        }
    }

    fn parse_const_expr(&mut self, context: &str) -> i64 {
        self.parse_const_bin(context, 0)
    }

    fn parse_const_bin(&mut self, context: &str, min_prec: u8) -> i64 {
        let mut lhs = self.parse_const_unary(context);
        loop {
            let (prec, op): (u8, fn(i64, i64) -> i64) = match self.cursor.peek().kind {
                TokenKind::Pipe => (1, |a, b| a | b),
                TokenKind::Caret => (2, |a, b| a ^ b),
                TokenKind::Amp => (3, |a, b| a & b),
                TokenKind::Shl => (4, |a, b| a.wrapping_shl(b as u32)),
                TokenKind::Shr => (4, |a, b| a.wrapping_shr(b as u32)),
                TokenKind::Plus => (5, i64::wrapping_add),
                TokenKind::Minus => (5, i64::wrapping_sub),
                TokenKind::Star => (6, i64::wrapping_mul),
                TokenKind::Slash => (6, |a, b| if b == 0 { 0 } else { a / b }),
                TokenKind::Percent => (6, |a, b| if b == 0 { 0 } else { a % b }),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.cursor.bump();
            let rhs = self.parse_const_bin(context, prec + 1);
            lhs = op(lhs, rhs);
        }
        lhs
    }

    fn parse_const_unary(&mut self, context: &str) -> i64 {
        if self.cursor.eat(&TokenKind::Minus) {
            return -self.parse_const_unary(context);
        }
        if self.cursor.eat(&TokenKind::Tilde) {
            return !self.parse_const_unary(context);
        }
        if self.cursor.eat(&TokenKind::LParen) {
            let v = self.parse_const_expr(context);
            self.cursor
                .expect(&TokenKind::RParen, "to close parenthesized constant");
            return v;
        }
        let t = self.cursor.peek();
        match t.kind {
            TokenKind::Int(v) => {
                self.cursor.bump();
                v as i64
            }
            TokenKind::Char(c) => {
                self.cursor.bump();
                c as i64
            }
            TokenKind::Ident("TRUE") => {
                self.cursor.bump();
                1
            }
            TokenKind::Ident("FALSE") => {
                self.cursor.bump();
                0
            }
            TokenKind::Ident(_) => {
                let name = self.parse_scoped_name(context);
                match self.resolve_name(&name, |n| self.consts.get(n).copied()) {
                    Some(v) => v,
                    None => {
                        self.cursor
                            .diags
                            .error(format!("unknown constant `{name}`"), t.span);
                        0
                    }
                }
            }
            _ => {
                self.cursor.diags.error(
                    format!(
                        "expected constant expression {context}, found {}",
                        t.kind.describe()
                    ),
                    t.span,
                );
                self.cursor.bump();
                0
            }
        }
    }
}

/// FNV-1a hash, used to derive a stable transport program identity for
/// CORBA interfaces (which have no programmer-assigned program number).
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
