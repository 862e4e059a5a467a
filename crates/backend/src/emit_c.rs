//! The C stub emitter: marshal plans → CAST → C source.
//!
//! This is the output path the paper describes: the back end splices
//! optimized marshal statements into the CAST declarations produced by
//! the presentation generator and prints a `.c` translation unit.  The
//! generated code targets a small, self-contained runtime API
//! (`flick_ensure`, `flick_chunk`, `flick_put_*`) whose inline
//! definitions are emitted as a prelude, so the output is a complete,
//! compilable unit.
//!
//! The same [`PlanNode`] trees drive this emitter and the Rust one;
//! the chunked stores, hoisted checks, `memcpy` runs, and switch-based
//! demultiplexing are therefore structurally identical in both.  Two
//! run shapes stay loops here: a foreign-order (swizzle) run marshals
//! element by element through `flick_put_*`, and a strided array
//! opens one chunk per element — the C runtime header has no
//! swap-copy kernel, and the C output is the paper-comparison artifact
//! (`table2_code_size`), so it keeps the shape those numbers were
//! taken with.  The Rust emitter carries both optimizations.
//!
//! [`emit`] builds only the back end's declarations; the presentation
//! generator's stay in the [`PresC`], and [`print`] prints them in
//! place, after the unit's head.  Every name the emitter spells itself
//! — its locals and the runtime's entry points — is a static [`Name`]
//! from [`names`], so a mention costs no allocation.

use std::borrow::Cow;

use flick_cast::{
    printer, BinOp, CDecl, CExpr, CFunction, CParam, CStmt, CType, CUnit, Printer, SwitchCase,
};
use flick_pres::{Name, PresC, Stub, StubKind};

use crate::encoding::{Order, StringWire, WirePrim};
use crate::layout::{PackedItem, SizeClass, ValPath};
use crate::plan::{PlanNode, StubPlan, StubPlans};
use crate::BackEnd;

/// The names the emitter spells itself.
mod names {
    use flick_pres::Name;

    /// The marshal buffer every stub, outline function and dispatcher
    /// writes or reads.
    pub(super) const BUF: Name = Name::from_static("_buf");
    /// An outline marshal function's value parameter.
    pub(super) const V: Name = Name::from_static("_v");
    /// The dispatcher's request message.
    pub(super) const MSG: Name = Name::from_static("_msg");
    /// The dispatcher's request code.
    pub(super) const PROC: Name = Name::from_static("_proc");
    /// A client stub's returned value.
    pub(super) const RETURN: Name = Name::from_static("_return");
    /// A presented union's discriminator member.
    pub(super) const DISC: Name = Name::from_static("_d");
    /// A presented union's arms member.
    pub(super) const ARMS: Name = Name::from_static("_u");
    /// The runtime's buffer type and, below, its entry points
    /// (`flick_runtime.h`) and the two C library functions the stubs
    /// call.
    pub(super) const FLICK_BUF: Name = Name::from_static("FLICK_BUF");
    pub(super) const ENSURE: Name = Name::from_static("flick_ensure");
    pub(super) const CHUNK: Name = Name::from_static("flick_chunk");
    pub(super) const PAD: Name = Name::from_static("flick_pad");
    pub(super) const PUT_BYTES: Name = Name::from_static("flick_put_bytes");
    pub(super) const CLIENT_BUF: Name = Name::from_static("flick_client_buf");
    pub(super) const BUF_CLEAR: Name = Name::from_static("flick_buf_clear");
    pub(super) const CALL: Name = Name::from_static("flick_call");
    pub(super) const DECODE_SLOT: Name = Name::from_static("flick_decode_slot");
    pub(super) const MEMCPY: Name = Name::from_static("memcpy");
    pub(super) const STRLEN: Name = Name::from_static("strlen");

    /// `flick_put_*` by scalar row ([`super::put_row`]) and byte order
    /// (big, little).
    pub(super) const PUT: [[&str; 2]; 6] = [
        ["flick_put_u8", "flick_put_u8"],
        ["flick_put_u16_be", "flick_put_u16_le"],
        ["flick_put_u32_be", "flick_put_u32_le"],
        ["flick_put_u64_be", "flick_put_u64_le"],
        ["flick_put_f32_be", "flick_put_f32_le"],
        ["flick_put_f64_be", "flick_put_f64_le"],
    ];
    /// `flick_chunk_put_*`, laid out as [`PUT`].
    pub(super) const CHUNK_PUT: [[&str; 2]; 6] = [
        ["flick_chunk_put_u8", "flick_chunk_put_u8"],
        ["flick_chunk_put_u16_be", "flick_chunk_put_u16_le"],
        ["flick_chunk_put_u32_be", "flick_chunk_put_u32_le"],
        ["flick_chunk_put_u64_be", "flick_chunk_put_u64_le"],
        ["flick_chunk_put_f32_be", "flick_chunk_put_f32_le"],
        ["flick_chunk_put_f64_be", "flick_chunk_put_f64_le"],
    ];
    /// The row of a count prefix (`u32`).
    pub(super) const U32: usize = 2;
}

/// How many declarations open every unit [`emit`] builds — the banner
/// comment and three includes; the presentation's declarations print
/// after them.
const HEAD: usize = 4;

/// Emits the back end's declarations of the C translation unit for the
/// optimized MIR `full` under `be`: the head (banner and includes), the
/// outline marshal functions, the client stubs, the work prototypes and
/// the dispatcher.  The presentation's declarations are not copied in;
/// [`print`] prints them in place.
#[must_use]
pub fn emit(presc: &PresC, full: &StubPlans, be: &BackEnd) -> CUnit {
    let mut unit = CUnit::new();
    unit.push(CDecl::Comment(format!(
        "Flick-generated stubs: interface `{}`, presentation `{}`, transport `{}`, encoding `{}`. Do not edit.",
        presc.interface,
        presc.style,
        be.transport.name(),
        be.encoding.name
    )));
    for header in ["<string.h>", "<stdlib.h>", "\"flick_runtime.h\""] {
        unit.push(CDecl::Include(Cow::Borrowed(header)));
    }
    debug_assert_eq!(unit.decls.len(), HEAD);

    let mut e = CEmitter {
        be,
        hoist: full.hoist,
        memcpy: full.memcpy,
        tmp: 0,
        outlines: full
            .outlines
            .keys()
            .map(|key| (key, Name::from_fmt(format_args!("flick_marshal_{key}"))))
            .collect(),
    };

    // Out-of-line marshal functions: prototypes first (they may call
    // one another in any order), then definitions.  Each body is built
    // once; its prototype is the definition's signature.
    let outlines: Vec<CFunction> = full
        .outlines
        .iter()
        .map(|(key, body)| e.outline_marshal(key, body))
        .collect();
    for f in &outlines {
        unit.push(CDecl::Function(CFunction {
            name: f.name.clone(),
            ret: f.ret.clone(),
            params: f.params.clone(),
            body: None,
        }));
    }
    unit.decls.extend(outlines.into_iter().map(CDecl::Function));

    // The operations this side stubs, each with the presentation's stub
    // and the work function its dispatch arm calls.
    let iface = presc.interface.replace("::", "_");
    let iface = sanitize_c(&iface);
    let ops: Vec<(&StubPlan, &Stub, Name)> = full
        .stubs
        .iter()
        .filter(|plan| plan.kind != StubKind::ServerWork)
        .filter_map(|plan| {
            let stub = presc.stubs.iter().find(|s| plan.name == s.name.as_str())?;
            let work = format!("{iface}_{}_work", sanitize_c(&plan.op.name));
            Some((plan, stub, Name::from(work)))
        })
        .collect();

    // Client stubs.
    for &(plan, stub, _) in &ops {
        unit.push(CDecl::Function(e.client_stub(stub, plan)));
    }

    // Work-function prototypes the dispatch arms call, then the
    // dispatch function itself.
    for (plan, stub, work) in &ops {
        unit.push(CDecl::Function(work_prototype(plan, stub, work)));
    }
    unit.push(CDecl::Function(e.dispatch(&presc.interface, &ops)));
    unit
}

/// Prints the unit [`emit`] built for `presc`, with the presentation's
/// declarations in place after the head: the banner and includes, the
/// presentation's typedefs and structs, then the back end's functions.
#[must_use]
pub fn print(presc: &PresC, unit: &CUnit) -> String {
    let (head, rest) = unit.decls.split_at(HEAD);
    let hint = printer::size_hint(&presc.cast.decls) + printer::size_hint(&unit.decls);
    let mut out = String::with_capacity(hint);
    let p = Printer::new();
    for d in head.iter().chain(&presc.cast.decls).chain(rest) {
        p.decl(&mut out, d);
    }
    out
}

struct CEmitter<'a> {
    be: &'a BackEnd,
    /// Whether the `hoist-checks` pass ran (from [`StubPlans::hoist`]).
    hoist: bool,
    /// Whether the `coalesce-memcpy` pass ran.
    memcpy: bool,
    tmp: usize,
    /// Each outline key's marshal function, in key order.
    outlines: Vec<(&'a Name, Name)>,
}

fn ident(name: &Name) -> CExpr {
    CExpr::Ident(name.clone())
}

fn int(v: impl Into<i64>) -> CExpr {
    CExpr::Int(v.into())
}

/// `f(args…);`
fn call(f: Name, args: Vec<CExpr>) -> CStmt {
    CStmt::expr(CExpr::call(f, args))
}

/// A comment line the emitter spells itself.
fn note(text: &'static str) -> CStmt {
    CStmt::Comment(Cow::Borrowed(text))
}

/// `_<prefix><n>`, the name of the emitter's `n`th local: one
/// allocation, for the name itself.
fn numbered(prefix: &str, n: usize) -> Name {
    let mut digits = [0; 20];
    let parts = [
        "_".as_bytes(),
        prefix.as_bytes(),
        printer::digits(n as u64, &mut digits),
    ];
    let mut text = [0u8; 48];
    let mut end = 0;
    for part in parts {
        text[end..end + part.len()].copy_from_slice(part);
        end += part.len();
    }
    Name::from(std::str::from_utf8(&text[..end]).expect("ASCII"))
}

/// The row of [`names::PUT`] / [`names::CHUNK_PUT`] for a scalar.
fn put_row(prim: WirePrim) -> usize {
    match (prim.slot, prim.float) {
        (_, true) if prim.size == 4 => 4,
        (_, true) => 5,
        (1, _) => 0,
        (2, _) => 1,
        (4, _) => names::U32,
        _ => 3,
    }
}

/// The column of [`names::PUT`] / [`names::CHUNK_PUT`] for a byte order.
fn order_col(order: Order) -> usize {
    match order {
        Order::Big => 0,
        Order::Little => 1,
    }
}

impl<'a> CEmitter<'a> {
    fn fresh(&mut self, prefix: &str) -> Name {
        self.tmp += 1;
        numbered(prefix, self.tmp)
    }

    /// `flick_put_u32_be(_buf, len)`: a count prefix in the encoding's
    /// byte order.
    fn put_count(&self, len: CExpr) -> CStmt {
        let f = names::PUT[names::U32][order_col(self.be.encoding.order)];
        call(Name::from_static(f), vec![ident(&names::BUF), len])
    }

    /// `flick_put_u32_be(_buf, v)`-style call for a primitive.
    fn put_prim(prim: WirePrim, v: CExpr) -> CStmt {
        let f = names::PUT[put_row(prim)][order_col(prim.order)];
        call(Name::from_static(f), vec![ident(&names::BUF), v])
    }

    /// A chunked store at `at` (the chunk pointer plus an offset):
    /// `*(unsigned int *)(_chunk + off) = htonl(v);` expressed through
    /// the runtime's typed chunk helpers.
    fn chunk_put(prim: WirePrim, at: CExpr, v: CExpr) -> CStmt {
        let f = names::CHUNK_PUT[put_row(prim)][order_col(prim.order)];
        call(Name::from_static(f), vec![at, v])
    }

    fn path_to_expr(base: CExpr, path: &ValPath) -> CExpr {
        match path {
            ValPath::Root => base,
            ValPath::Field(p, f) => Self::path_to_expr(base, p).member(f.clone()),
            ValPath::Index(p, i) => Self::path_to_expr(base, p).index(int(*i as i64)),
        }
    }

    /// `flick_ensure(_buf, n)`: one space check.
    fn ensure(n: CExpr) -> CStmt {
        call(names::ENSURE, vec![ident(&names::BUF), n])
    }

    /// `flick_pad(_buf, u)`: zero-fill to the next `u`-byte boundary.
    fn pad_to(u: u8) -> CStmt {
        call(names::PAD, vec![ident(&names::BUF), int(u)])
    }

    /// The trailing pad owed after `n` bytes of packed scalars (XDR
    /// byte arrays): `flick_pad` to the encoding's unit.
    fn trailing_pad(&self, n: u64, out: &mut Vec<CStmt>) {
        let enc = &self.be.encoding;
        if let Some(u) = enc.pad_unit.filter(|_| enc.pad_after(n) > 0) {
            out.push(Self::pad_to(u));
        }
    }

    /// `unsigned int _i; for (_i = 0; _i < len; _i++) { body }`.
    fn counted_for(i: &Name, len: CExpr, body: Vec<CStmt>, out: &mut Vec<CStmt>) {
        out.push(CStmt::decl(i.clone(), CType::UInt));
        out.push(CStmt::For {
            init: Some(ident(i).assign(int(0))),
            cond: Some(ident(i).bin(BinOp::Lt, len)),
            step: Some(CExpr::PostInc(Box::new(ident(i)))),
            body,
        });
    }

    /// `for (_i = 0; _i < len; _i++) { <encode elem of data[_i]> }`.
    fn elem_loop(
        &mut self,
        elem: &PlanNode,
        data: CExpr,
        len: CExpr,
        covered: bool,
        out: &mut Vec<CStmt>,
    ) {
        let i = self.fresh("i");
        let mut body = Vec::new();
        self.encode(elem, data.index(ident(&i)), covered, &mut body);
        Self::counted_for(&i, len, body, out);
    }

    /// The count prefix, the space check hoisted out of the loop when
    /// the element is fixed-size, then the element loop and the pad its
    /// scalars may owe.
    fn counted_loop(
        &mut self,
        elem: &PlanNode,
        elem_fixed: Option<u64>,
        (len, data): (CExpr, CExpr),
        covered: bool,
        out: &mut Vec<CStmt>,
    ) {
        out.push(self.put_count(len.clone()));
        let mut body_covered = covered;
        if let (true, Some(n)) = (self.hoist && !covered, elem_fixed) {
            out.push(note("space check hoisted out of the loop"));
            out.push(Self::ensure(len.clone().bin(BinOp::Mul, int(n as i64))));
            body_covered = true;
        }
        self.elem_loop(elem, data, len, body_covered, out);
        if let Some(prim) = elem.scalar() {
            self.trailing_pad(u64::from(prim.slot), out);
        }
    }

    /// Encode statements for one plan node; `v` is the C expression
    /// for the value (already dereferenced where needed).
    fn encode(&mut self, node: &PlanNode, v: CExpr, covered: bool, out: &mut Vec<CStmt>) {
        match node {
            PlanNode::Void => {}
            PlanNode::Prim { prim, .. }
            | PlanNode::Enum {
                prim: prim @ WirePrim { .. },
            } => {
                if !covered && self.hoist {
                    out.push(Self::ensure(int(prim.slot)));
                }
                out.push(Self::put_prim(*prim, v));
            }
            PlanNode::Packed { layout, .. } => {
                if !covered && self.hoist {
                    out.push(note("fixed region: one space check"));
                    out.push(Self::ensure(int(layout.size as i64)));
                }
                let chunk = self.fresh("chunk");
                out.push(note(
                    "chunk pointer: constant-offset stores (Flick chunking)",
                ));
                out.push(CStmt::decl_init(
                    chunk.clone(),
                    CType::ptr(CType::Char),
                    CExpr::call(
                        names::CHUNK,
                        vec![ident(&names::BUF), int(layout.size as i64)],
                    ),
                ));
                let at = |offset: u64| ident(&chunk).bin(BinOp::Add, int(offset as i64));
                for item in &layout.items {
                    match item {
                        PackedItem::Prim { offset, prim, path } => {
                            let e = Self::path_to_expr(v.clone(), path);
                            out.push(Self::chunk_put(*prim, at(*offset), e));
                        }
                        PackedItem::PrimRun {
                            offset,
                            prim,
                            count,
                            path,
                            ..
                        } => {
                            let e = Self::path_to_expr(v.clone(), path);
                            let bytes = count * u64::from(prim.size);
                            if self.memcpy && prim.memcpy_compatible(prim.size) {
                                out.push(note("memcpy run"));
                                out.push(call(
                                    names::MEMCPY,
                                    vec![at(*offset), e, int(bytes as i64)],
                                ));
                            } else {
                                // One store per element, at
                                // chunk + offset + i*slot.
                                let i = self.fresh("i");
                                let stride = ident(&i).bin(BinOp::Mul, int(prim.slot));
                                let store = Self::chunk_put(
                                    *prim,
                                    at(*offset).bin(BinOp::Add, stride),
                                    e.index(ident(&i)),
                                );
                                Self::counted_for(&i, int(*count as i64), vec![store], out);
                            }
                        }
                    }
                }
            }
            PlanNode::MemcpyArray {
                prim,
                fields,
                fixed_len,
                counted,
                ..
            } => {
                let (len, data): (CExpr, CExpr) = match (fixed_len, fields) {
                    (Some(n), _) => (int(*n as i64), v),
                    (None, Some((len_f, buf_f))) => {
                        (v.clone().member(len_f.clone()), v.member(buf_f.clone()))
                    }
                    (None, None) => unreachable!("a counted run keeps its member names"),
                };
                if !prim.memcpy_compatible(prim.size) {
                    // Swizzle run: C keeps the element loop (see the
                    // module docs).
                    let elem = PlanNode::Prim { prim: *prim };
                    if *counted {
                        let fixed = Some(u64::from(prim.slot));
                        self.counted_loop(&elem, fixed, (len, data), covered, out);
                    } else {
                        self.elem_loop(&elem, data, len, covered, out);
                    }
                    return;
                }
                if !covered && self.hoist {
                    out.push(Self::ensure(
                        int(8).bin(BinOp::Add, len.clone().bin(BinOp::Mul, int(prim.size))),
                    ));
                }
                if *counted {
                    out.push(self.put_count(len.clone()));
                }
                out.push(note("memcpy run"));
                out.push(call(
                    names::PUT_BYTES,
                    vec![
                        ident(&names::BUF),
                        data,
                        len.bin(BinOp::Mul, int(prim.size)),
                    ],
                ));
                if let Some(u) = self.be.encoding.pad_unit {
                    out.push(Self::pad_to(u));
                }
            }
            PlanNode::String { style, .. } => {
                let len = self.fresh("len");
                out.push(CStmt::decl_init(
                    len.clone(),
                    CType::UInt,
                    CExpr::call(names::STRLEN, vec![v.clone()]),
                ));
                if !covered && self.hoist {
                    out.push(Self::ensure(int(8).bin(BinOp::Add, ident(&len))));
                }
                match style {
                    StringWire::CountedPadded => {
                        out.push(self.put_count(ident(&len)));
                        out.push(call(
                            names::PUT_BYTES,
                            vec![ident(&names::BUF), v, ident(&len)],
                        ));
                        if let Some(u) = self.be.encoding.pad_unit {
                            out.push(Self::pad_to(u));
                        }
                    }
                    StringWire::CountedNul => {
                        let with_nul = || ident(&len).bin(BinOp::Add, int(1));
                        out.push(self.put_count(with_nul()));
                        out.push(call(
                            names::PUT_BYTES,
                            vec![ident(&names::BUF), v, with_nul()],
                        ));
                    }
                }
            }
            PlanNode::CountedArray {
                elem,
                elem_class,
                fields,
                ..
            } => {
                let (len_f, buf_f) = fields;
                let members = (v.clone().member(len_f.clone()), v.member(buf_f.clone()));
                let fixed = match elem_class {
                    SizeClass::Fixed(n) => Some(*n),
                    _ => None,
                };
                self.counted_loop(elem, fixed, members, covered, out);
            }
            PlanNode::FixedArray { len, elem, .. } => {
                self.elem_loop(elem, v, int(*len as i64), covered, out);
                if let Some(prim) = elem.scalar() {
                    self.trailing_pad(len * u64::from(prim.slot), out);
                }
            }
            PlanNode::Struct { fields, .. } => {
                for (name, f) in fields {
                    self.encode(f, v.clone().member(name.clone()), covered, out);
                }
            }
            PlanNode::Union {
                disc_prim,
                cases,
                default,
                ..
            } => {
                out.push(Self::put_prim(*disc_prim, v.clone().member(names::DISC)));
                let arms = cases
                    .iter()
                    .map(|(label, name, c)| (vec![*label], name, c))
                    .chain(default.iter().map(|(name, c)| (vec![], name, &**c)));
                let mut switch_cases = Vec::new();
                for (values, name, c) in arms {
                    let mut body = Vec::new();
                    let arm = v.clone().member(names::ARMS).member(name.clone());
                    self.encode(c, arm, covered, &mut body);
                    switch_cases.push(SwitchCase { values, body });
                }
                out.push(CStmt::Switch {
                    scrutinee: v.member(names::DISC),
                    cases: switch_cases,
                });
            }
            PlanNode::Optional { flag, elem, .. } => {
                let mut then = vec![Self::put_prim(*flag, int(1))];
                self.encode(elem, v.clone().deref(), covered, &mut then);
                let els = vec![Self::put_prim(*flag, int(0))];
                out.push(CStmt::If {
                    cond: v.bin(BinOp::Ne, int(0)),
                    then,
                    els: Some(els),
                });
            }
            PlanNode::Outline { key } => {
                let f = self.outline_fn(key);
                out.push(call(f, vec![ident(&names::BUF), v.addr_of()]));
            }
        }
    }

    /// The marshal function of outline `key`.
    fn outline_fn(&self, key: &str) -> Name {
        let at = self
            .outlines
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .expect("every outline call names a planned outline");
        self.outlines[at].1.clone()
    }

    fn outline_marshal(&mut self, key: &Name, body: &PlanNode) -> CFunction {
        let mut stmts = Vec::new();
        self.encode(body, ident(&names::V).deref(), false, &mut stmts);
        CFunction {
            name: self.outline_fn(key),
            ret: CType::Void,
            params: vec![
                CParam {
                    name: names::BUF,
                    ty: CType::ptr(CType::Named(names::FLICK_BUF)),
                },
                CParam {
                    name: names::V,
                    ty: CType::ptr(CType::Named(key.clone())),
                },
            ],
            body: Some(stmts),
        }
    }

    /// The client-side call stub: marshal the request, invoke the
    /// transport, unmarshal the reply (reply unmarshal is delegated to
    /// the runtime's decode helpers to keep the C side compact — the
    /// Rust emitter carries the fully inlined decode path).
    fn client_stub(&mut self, stub: &Stub, plan: &StubPlan) -> CFunction {
        let mut body = Vec::new();
        body.push(CStmt::Comment(Cow::Owned(format!(
            "client stub for operation `{}` (request code {})",
            plan.op.name, plan.op.request_code
        ))));
        body.push(CStmt::decl_init(
            names::BUF,
            CType::ptr(CType::Named(names::FLICK_BUF)),
            CExpr::call(names::CLIENT_BUF, vec![]),
        ));
        body.push(call(names::BUF_CLEAR, vec![ident(&names::BUF)]));

        // §3.1 hoisted whole-message check (decided by `hoist-checks`;
        // the capped form, so fixed-but-huge messages do not
        // pre-reserve).
        let mut covered = false;
        if let Some(n) = plan.request.hoisted_capped {
            body.push(note(match plan.request.class {
                SizeClass::Fixed(_) => "whole message is fixed-size: one check",
                _ => "whole message is bounded: one check",
            }));
            body.push(Self::ensure(int(n as i64)));
            covered = true;
        }
        // Bind plan slots to presentation slots by name, not position:
        // the `dead-slot` pass may have removed plan slots that the
        // presentation still records (as `live: false` bindings).
        for slot in &plan.request.slots {
            if !slot.live {
                // Dead slot with the pass disabled: the wire still
                // carries the field, but no C parameter exists for it —
                // marshal a zero.
                body.push(CStmt::Comment(Cow::Owned(format!(
                    "dead slot `{}`: never presented, wire gets zero",
                    slot.name
                ))));
                self.encode(&slot.node, int(0), covered, &mut body);
                continue;
            }
            let by_ref = stub
                .request
                .slots
                .iter()
                .find(|b| b.c_name == slot.name)
                .is_some_and(|b| b.by_ref);
            let base = if by_ref {
                ident(&slot.name).deref()
            } else {
                ident(&slot.name)
            };
            self.encode(&slot.node, base, covered, &mut body);
        }
        body.push(call(
            names::CALL,
            vec![
                ident(&names::BUF),
                CExpr::UInt(plan.op.request_code),
                CExpr::Str(plan.op.wire_name.to_string()),
            ],
        ));
        if !plan.op.oneway && !plan.reply.slots.is_empty() {
            body.push(note("unmarshal reply values"));
            let mut returns = false;
            for (i, slot) in plan.reply.slots.iter().enumerate() {
                if !slot.live {
                    // Dead reply slot: decode into a scratch local and
                    // discard (no C location exists for it).
                    let scratch = numbered("dead", i);
                    body.push(CStmt::Comment(Cow::Owned(format!(
                        "dead slot `{}`: decoded and discarded",
                        slot.name
                    ))));
                    body.push(CStmt::decl(scratch.clone(), CType::Long));
                    body.push(call(
                        names::DECODE_SLOT,
                        vec![ident(&names::BUF), ident(&scratch).addr_of()],
                    ));
                } else if slot.name == "_return" {
                    // Returned by value: decode into a local.
                    returns = true;
                    body.insert(1, CStmt::decl(names::RETURN, stub.decl.ret.clone()));
                    body.push(call(
                        names::DECODE_SLOT,
                        vec![ident(&names::BUF), ident(&names::RETURN).addr_of()],
                    ));
                } else {
                    // Out parameters are already pointers.
                    body.push(call(
                        names::DECODE_SLOT,
                        vec![ident(&names::BUF), ident(&slot.name)],
                    ));
                }
            }
            if returns {
                body.push(CStmt::Return(Some(ident(&names::RETURN))));
            }
        }
        CFunction {
            name: stub.decl.name.clone(),
            ret: stub.decl.ret.clone(),
            params: stub.decl.params.clone(),
            body: Some(body),
        }
    }

    /// The server dispatch function: a `switch` over the request code
    /// with per-operation unmarshal + work-call + reply marshal inlined
    /// into each arm (§3.3).
    ///
    /// `reply-alias` is deliberately a no-op on this path: the C
    /// dispatch delegates reply marshaling to the work function, so
    /// there are no reply bytes here to alias back to the request and
    /// no place to surface the copy-on-write `Echoed` contract the
    /// Rust server trait carries (a C work function would need an
    /// out-parameter protocol — `*changed` flag plus value — to
    /// declare mutation).  The Rust emitter carries the optimization;
    /// the same applies to `reuse-slots` arena residence, which in C
    /// would map to receive-buffer pointers the work signature cannot
    /// express without that protocol.
    fn dispatch(&mut self, interface: &str, ops: &[(&StubPlan, &Stub, Name)]) -> CFunction {
        let mut cases = Vec::new();
        for (plan, stub, work) in ops {
            let mut body = Vec::new();
            body.push(CStmt::Comment(Cow::Owned(format!(
                "inlined unmarshal + dispatch for `{}`",
                plan.op.name
            ))));
            let mut args = Vec::new();
            for (i, slot) in plan.request.slots.iter().enumerate() {
                let var = numbered("arg", i);
                let decode = call(
                    names::DECODE_SLOT,
                    vec![ident(&names::MSG), ident(&var).addr_of()],
                );
                if !slot.live {
                    // Dead slot with the pass disabled: the wire still
                    // carries the field, so decode it into a scratch
                    // local the work call never sees.
                    body.push(CStmt::Comment(Cow::Owned(format!(
                        "dead slot `{}`: decoded and discarded",
                        slot.name
                    ))));
                    body.push(CStmt::decl(var, CType::Long));
                    body.push(decode);
                    continue;
                }
                // Bind presentation slots by name, not position: the
                // `dead-slot` pass may have removed earlier plan slots.
                let by_ref = stub
                    .request
                    .slots
                    .iter()
                    .find(|b| b.c_name == slot.name)
                    .is_some_and(|b| b.by_ref);
                // Declare a local of the parameter's value type (one
                // pointer stripped for by-ref parameters).
                let param_ty = param_type(stub, &slot.name);
                let (local_ty, pass_by_ref) = match (&param_ty, by_ref) {
                    (CType::Pointer(inner), true) => ((**inner).clone(), true),
                    _ => (param_ty, false),
                };
                body.push(CStmt::decl(var.clone(), local_ty));
                body.push(decode);
                args.push(if pass_by_ref {
                    ident(&var).addr_of()
                } else {
                    ident(&var)
                });
            }
            body.push(call(work.clone(), args));
            body.push(CStmt::Return(Some(int(0))));
            // Scope the arm's locals: each case body becomes a block.
            cases.push(SwitchCase {
                values: vec![plan.op.request_code as i64],
                body: vec![CStmt::Block(body)],
            });
        }
        cases.push(SwitchCase {
            values: vec![],
            body: vec![CStmt::Return(Some(int(-1)))],
        });
        CFunction {
            name: format!("{}_dispatch", interface.replace("::", "_")).into(),
            ret: CType::Int,
            params: vec![
                CParam {
                    name: names::PROC,
                    ty: CType::UInt,
                },
                CParam {
                    name: names::MSG,
                    ty: CType::ptr(CType::Named(names::FLICK_BUF)),
                },
            ],
            body: Some(vec![CStmt::Switch {
                scrutinee: ident(&names::PROC),
                cases,
            }]),
        }
    }
}

/// The presented type of `stub`'s parameter `name` (`int` when the
/// presentation has none).
fn param_type(stub: &Stub, name: &str) -> CType {
    stub.decl
        .params
        .iter()
        .find(|p| p.name == name)
        .map_or(CType::Int, |p| p.ty.clone())
}

/// The prototype of the user-implemented work function `work` the
/// dispatch arm of `plan` calls.
fn work_prototype(plan: &StubPlan, stub: &Stub, work: &Name) -> CFunction {
    let params = plan
        .request
        .slots
        .iter()
        .filter(|slot| slot.live)
        .map(|slot| CParam {
            name: slot.name.clone(),
            ty: param_type(stub, &slot.name),
        })
        .collect();
    CFunction {
        name: work.clone(),
        ret: CType::Void,
        params,
        body: None,
    }
}

/// Replaces non-identifier characters for C names; borrows unless a
/// character has to go.
#[must_use]
pub fn sanitize_c(name: &str) -> Cow<'_, str> {
    let keep = |c: char| c.is_ascii_alphanumeric() || c == '_';
    if name.chars().all(keep) {
        return Cow::Borrowed(name);
    }
    Cow::Owned(
        name.chars()
            .map(|c| if keep(c) { c } else { '_' })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Transport;
    use flick_idl::diag::Diagnostics;
    use flick_pres::Side;

    fn c_for(idl: &str, iface: &str, t: Transport) -> String {
        let aoi = flick_frontend_corba::parse_str("t.idl", idl);
        let mut d = Diagnostics::new();
        let p = flick_presgen::corba_c(&aoi, iface, Side::Client, &mut d).expect("presentation");
        BackEnd::new(t).compile(&p).expect("compiles").c_source
    }

    #[test]
    fn mail_stub_has_expected_signature_and_marshal() {
        let src = c_for(
            "interface Mail { void send(in string msg); };",
            "Mail",
            Transport::OncTcp,
        );
        assert!(
            src.contains("void Mail_send(Mail obj, char *msg, CORBA_Environment *ev)"),
            "{src}"
        );
        assert!(src.contains("strlen(msg)"), "{src}");
        assert!(src.contains("flick_put_bytes(_buf, msg"), "{src}");
        assert!(src.contains("Mail_dispatch"), "{src}");
    }

    #[test]
    fn rect_stub_uses_chunk_pointer() {
        let src = c_for(
            r"
            struct Point { long x; long y; };
            struct Rect { Point min; Point max; };
            typedef sequence<Rect> RectSeq;
            interface I { void put(in RectSeq rs); };
            ",
            "I",
            Transport::OncTcp,
        );
        assert!(src.contains("flick_chunk(_buf, 16)"), "{src}");
        assert!(src.contains("_chunk"), "{src}");
        // Constant offsets through the chunk pointer.
        assert!(src.contains(" + 12"), "{src}");
        // Hoisted loop check.
        assert!(src.contains("space check hoisted out of the loop"), "{src}");
    }

    #[test]
    fn int_array_memcpy_in_native_cdr() {
        let src = c_for(
            "typedef sequence<long> Ints; interface I { void put(in Ints v); };",
            "I",
            Transport::IiopTcp,
        );
        assert!(src.contains("memcpy run"), "{src}");
        assert!(src.contains("flick_put_bytes"), "{src}");
    }

    #[test]
    fn dispatch_switches_on_request_code() {
        let src = c_for(
            "interface I { void a(); void b(); };",
            "I",
            Transport::OncTcp,
        );
        assert!(src.contains("switch (_proc)"), "{src}");
        assert!(src.contains("case 1:"), "{src}");
        assert!(src.contains("case 2:"), "{src}");
        assert!(src.contains("default:"), "{src}");
    }
}
