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

use flick_cast::{BinOp, CDecl, CExpr, CFunction, CParam, CStmt, CType, CUnit, SwitchCase};
use flick_pres::{Name, PresC, StubKind};

use crate::encoding::{Order, StringWire, WirePrim};
use crate::layout::{PackedItem, SizeClass, ValPath};
use crate::plan::{PlanNode, StubPlan, StubPlans};
use crate::BackEnd;

/// Emits the C translation unit for the optimized MIR `full` under
/// `be`.
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
    unit.push(CDecl::Include("<string.h>".into()));
    unit.push(CDecl::Include("<stdlib.h>".into()));
    unit.push(CDecl::Include("\"flick_runtime.h\"".into()));

    // Presentation-level declarations (typedefs, structs) come from
    // the presentation generator's CAST, unchanged.
    for d in &presc.cast.decls {
        unit.push(d.clone());
    }

    let mut e = CEmitter {
        presc,
        be,
        hoist: full.hoist,
        memcpy: full.memcpy,
        tmp: 0,
    };

    // Out-of-line marshal functions: prototypes first (they may call
    // one another in any order), then definitions.
    for (key, body) in &full.outlines {
        let mut f = e.outline_marshal(key, body);
        f.body = None;
        unit.push(CDecl::Function(f));
    }
    for (key, body) in &full.outlines {
        unit.push(CDecl::Function(e.outline_marshal(key, body)));
    }

    // Client stubs.
    for plan in &full.stubs {
        if plan.kind == StubKind::ServerWork {
            continue;
        }
        let Some(stub) = presc.stubs.iter().find(|s| s.name == plan.name) else {
            continue;
        };
        unit.push(CDecl::Function(e.client_stub(stub, plan)));
    }

    // Work-function prototypes the dispatch arms call, then the
    // dispatch function itself.
    for f in e.work_prototypes(presc, &full.stubs) {
        unit.push(CDecl::Function(f));
    }
    unit.push(CDecl::Function(e.dispatch(presc, &full.stubs)));
    unit
}

struct CEmitter<'a> {
    presc: &'a PresC,
    be: &'a BackEnd,
    /// Whether the `hoist-checks` pass ran (from [`StubPlans::hoist`]).
    hoist: bool,
    /// Whether the `coalesce-memcpy` pass ran.
    memcpy: bool,
    tmp: usize,
}

fn ident(s: &str) -> CExpr {
    CExpr::ident(s)
}

impl<'a> CEmitter<'a> {
    fn fresh(&mut self, p: &str) -> String {
        self.tmp += 1;
        format!("_{p}{}", self.tmp)
    }

    fn order_suffix(&self) -> &'static str {
        match self.be.encoding.order {
            Order::Big => "be",
            Order::Little => "le",
        }
    }

    /// `flick_put_u32_be(_buf, v)`-style call for a primitive.
    fn put_prim(&self, prim: WirePrim, v: CExpr) -> CStmt {
        let suffix = match prim.order {
            Order::Big => "be",
            Order::Little => "le",
        };
        let f = match (prim.slot, prim.float) {
            (_, true) if prim.size == 4 => format!("flick_put_f32_{suffix}"),
            (_, true) => format!("flick_put_f64_{suffix}"),
            (1, _) => "flick_put_u8".to_string(),
            (2, _) => format!("flick_put_u16_{suffix}"),
            (4, _) => format!("flick_put_u32_{suffix}"),
            _ => format!("flick_put_u64_{suffix}"),
        };
        CStmt::expr(CExpr::call(f, vec![ident("_buf"), v]))
    }

    /// A chunked store: `*(unsigned int *)(_chunk + off) = htonl(v);`
    /// expressed through the runtime's typed chunk helpers.
    fn chunk_put(&self, prim: WirePrim, off: u64, v: CExpr, chunk: &str) -> CStmt {
        let suffix = match prim.order {
            Order::Big => "be",
            Order::Little => "le",
        };
        let f = match (prim.slot, prim.float) {
            (_, true) if prim.size == 4 => format!("flick_chunk_put_f32_{suffix}"),
            (_, true) => format!("flick_chunk_put_f64_{suffix}"),
            (1, _) => "flick_chunk_put_u8".to_string(),
            (2, _) => format!("flick_chunk_put_u16_{suffix}"),
            (4, _) => format!("flick_chunk_put_u32_{suffix}"),
            _ => format!("flick_chunk_put_u64_{suffix}"),
        };
        CStmt::expr(CExpr::call(
            f,
            vec![ident(chunk).bin(BinOp::Add, CExpr::Int(off as i64)), v],
        ))
    }

    fn path_to_expr(base: CExpr, path: &ValPath) -> CExpr {
        match path {
            ValPath::Root => base,
            ValPath::Field(p, f) => Self::path_to_expr(base, p).member(f.as_str()),
            ValPath::Index(p, i) => Self::path_to_expr(base, p).index(CExpr::Int(*i as i64)),
        }
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
        out.push(CStmt::decl(i.clone(), CType::UInt));
        out.push(CStmt::For {
            init: Some(ident(&i).assign(CExpr::Int(0))),
            cond: Some(ident(&i).bin(BinOp::Lt, len)),
            step: Some(CExpr::PostInc(Box::new(ident(&i)))),
            body,
        });
    }

    /// The count prefix, the space check hoisted out of the loop when
    /// the element is fixed-size, then the element loop.
    fn counted_loop(
        &mut self,
        elem: &PlanNode,
        elem_fixed: Option<u64>,
        (len, data): (CExpr, CExpr),
        covered: bool,
        out: &mut Vec<CStmt>,
    ) {
        out.push(CStmt::expr(CExpr::call(
            format!("flick_put_u32_{}", self.order_suffix()),
            vec![ident("_buf"), len.clone()],
        )));
        let mut body_covered = covered;
        if let (true, Some(n)) = (self.hoist && !covered, elem_fixed) {
            out.push(CStmt::Comment("space check hoisted out of the loop".into()));
            out.push(CStmt::expr(CExpr::call(
                "flick_ensure",
                vec![
                    ident("_buf"),
                    len.clone().bin(BinOp::Mul, CExpr::Int(n as i64)),
                ],
            )));
            body_covered = true;
        }
        self.elem_loop(elem, data, len, body_covered, out);
    }

    /// `(length, buffer)` member names of the counted representation
    /// a run was coalesced from.
    fn seq_members(&self, pres: flick_pres::PresId) -> (Name, Name) {
        match self.presc.pres.get(pres) {
            flick_pres::PresNode::CountedSeq {
                length_field,
                buffer_field,
                ..
            } => (length_field.clone(), buffer_field.clone()),
            _ => (Name::from_static("_length"), Name::from_static("_buffer")),
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
                    out.push(CStmt::expr(CExpr::call(
                        "flick_ensure",
                        vec![ident("_buf"), CExpr::Int(i64::from(prim.slot))],
                    )));
                }
                out.push(self.put_prim(*prim, v));
            }
            PlanNode::Packed { layout, .. } => {
                if !covered && self.hoist {
                    out.push(CStmt::Comment("fixed region: one space check".into()));
                    out.push(CStmt::expr(CExpr::call(
                        "flick_ensure",
                        vec![ident("_buf"), CExpr::Int(layout.size as i64)],
                    )));
                }
                let chunk = self.fresh("chunk");
                out.push(CStmt::Comment(
                    "chunk pointer: constant-offset stores (Flick chunking)".into(),
                ));
                out.push(CStmt::decl_init(
                    chunk.clone(),
                    CType::ptr(CType::Char),
                    CExpr::call(
                        "flick_chunk",
                        vec![ident("_buf"), CExpr::Int(layout.size as i64)],
                    ),
                ));
                for item in &layout.items {
                    match item {
                        PackedItem::Prim { offset, prim, path } => {
                            let e = Self::path_to_expr(v.clone(), path);
                            out.push(self.chunk_put(*prim, *offset, e, &chunk));
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
                                out.push(CStmt::Comment("memcpy run".into()));
                                out.push(CStmt::expr(CExpr::call(
                                    "memcpy",
                                    vec![
                                        ident(&chunk).bin(BinOp::Add, CExpr::Int(*offset as i64)),
                                        e,
                                        CExpr::Int(bytes as i64),
                                    ],
                                )));
                            } else {
                                let i = self.fresh("i");
                                let body = [self.chunk_put(*prim, 0, e.index(ident(&i)), &chunk)];
                                // Rewrite offset into the loop body:
                                // chunk + offset + i*slot.
                                let body = vec![match &body[0] {
                                    CStmt::Expr(CExpr::Call { func, args }) => {
                                        let mut args = args.clone();
                                        args[0] = ident(&chunk)
                                            .bin(BinOp::Add, CExpr::Int(*offset as i64))
                                            .bin(
                                                BinOp::Add,
                                                ident(&i).bin(
                                                    BinOp::Mul,
                                                    CExpr::Int(i64::from(prim.slot)),
                                                ),
                                            );
                                        CStmt::Expr(CExpr::Call {
                                            func: func.clone(),
                                            args,
                                        })
                                    }
                                    other => other.clone(),
                                }];
                                out.push(CStmt::decl(i.clone(), CType::UInt));
                                out.push(CStmt::For {
                                    init: Some(ident(&i).assign(CExpr::Int(0))),
                                    cond: Some(ident(&i).bin(BinOp::Lt, CExpr::Int(*count as i64))),
                                    step: Some(CExpr::PostInc(Box::new(ident(&i)))),
                                    body,
                                });
                            }
                        }
                    }
                }
            }
            PlanNode::MemcpyArray {
                prim,
                pres,
                fixed_len,
                counted,
                pad_unit,
                ..
            } => {
                let (len, data): (CExpr, CExpr) = match fixed_len {
                    Some(n) => (CExpr::Int(*n as i64), v.clone()),
                    None => {
                        let (len_f, buf_f) = self.seq_members(*pres);
                        (
                            v.clone().member(len_f.as_str()),
                            v.clone().member(buf_f.as_str()),
                        )
                    }
                };
                if !prim.memcpy_compatible(prim.size) {
                    // Swizzle run: C keeps the element loop (see the
                    // module docs).
                    let elem = PlanNode::Prim {
                        prim: *prim,
                        descriptor: None,
                    };
                    if *counted {
                        let fixed = Some(u64::from(prim.slot));
                        self.counted_loop(&elem, fixed, (len, data), covered, out);
                    } else {
                        self.elem_loop(&elem, data, len, covered, out);
                    }
                    return;
                }
                if !covered && self.hoist {
                    out.push(CStmt::expr(CExpr::call(
                        "flick_ensure",
                        vec![
                            ident("_buf"),
                            CExpr::Int(8).bin(
                                BinOp::Add,
                                len.clone()
                                    .bin(BinOp::Mul, CExpr::Int(i64::from(prim.size))),
                            ),
                        ],
                    )));
                }
                if *counted {
                    out.push(CStmt::expr(CExpr::call(
                        format!("flick_put_u32_{}", self.order_suffix()),
                        vec![ident("_buf"), len.clone()],
                    )));
                }
                out.push(CStmt::Comment("memcpy run".into()));
                out.push(CStmt::expr(CExpr::call(
                    "flick_put_bytes",
                    vec![
                        ident("_buf"),
                        data,
                        len.bin(BinOp::Mul, CExpr::Int(i64::from(prim.size))),
                    ],
                )));
                if let Some(u) = pad_unit {
                    out.push(CStmt::expr(CExpr::call(
                        "flick_pad",
                        vec![ident("_buf"), CExpr::Int(i64::from(*u))],
                    )));
                }
            }
            PlanNode::String {
                style, pad_unit, ..
            } => {
                let len = self.fresh("len");
                out.push(CStmt::decl_init(
                    len.clone(),
                    CType::UInt,
                    CExpr::call("strlen", vec![v.clone()]),
                ));
                if !covered && self.hoist {
                    out.push(CStmt::expr(CExpr::call(
                        "flick_ensure",
                        vec![ident("_buf"), CExpr::Int(8).bin(BinOp::Add, ident(&len))],
                    )));
                }
                match style {
                    StringWire::CountedPadded => {
                        out.push(CStmt::expr(CExpr::call(
                            format!("flick_put_u32_{}", self.order_suffix()),
                            vec![ident("_buf"), ident(&len)],
                        )));
                        out.push(CStmt::expr(CExpr::call(
                            "flick_put_bytes",
                            vec![ident("_buf"), v, ident(&len)],
                        )));
                        if let Some(u) = pad_unit {
                            out.push(CStmt::expr(CExpr::call(
                                "flick_pad",
                                vec![ident("_buf"), CExpr::Int(i64::from(*u))],
                            )));
                        }
                    }
                    StringWire::CountedNul => {
                        out.push(CStmt::expr(CExpr::call(
                            format!("flick_put_u32_{}", self.order_suffix()),
                            vec![ident("_buf"), ident(&len).bin(BinOp::Add, CExpr::Int(1))],
                        )));
                        out.push(CStmt::expr(CExpr::call(
                            "flick_put_bytes",
                            vec![ident("_buf"), v, ident(&len).bin(BinOp::Add, CExpr::Int(1))],
                        )));
                    }
                }
            }
            PlanNode::CountedArray {
                elem,
                elem_class,
                fields,
                ..
            } => {
                let (len_f, _max_f, buf_f) = fields;
                let members = (v.clone().member(len_f.as_str()), v.member(buf_f.as_str()));
                let fixed = match elem_class {
                    SizeClass::Fixed(n) => Some(*n),
                    _ => None,
                };
                self.counted_loop(elem, fixed, members, covered, out);
            }
            PlanNode::FixedArray { len, elem, .. } => {
                self.elem_loop(elem, v, CExpr::Int(*len as i64), covered, out);
            }
            PlanNode::Struct { fields, .. } => {
                for (name, f) in fields {
                    self.encode(f, v.clone().member(name.as_str()), covered, out);
                }
            }
            PlanNode::Union {
                disc_prim,
                cases,
                default,
                ..
            } => {
                out.push(self.put_prim(*disc_prim, v.clone().member("_d")));
                let mut switch_cases = Vec::new();
                for (label, name, c) in cases {
                    let mut body = Vec::new();
                    self.encode(
                        c,
                        v.clone().member("_u").member(name.as_str()),
                        covered,
                        &mut body,
                    );
                    switch_cases.push(SwitchCase {
                        values: vec![*label],
                        body,
                    });
                }
                if let Some((name, dflt)) = default {
                    let mut body = Vec::new();
                    self.encode(
                        dflt,
                        v.clone().member("_u").member(name.as_str()),
                        covered,
                        &mut body,
                    );
                    switch_cases.push(SwitchCase {
                        values: vec![],
                        body,
                    });
                }
                out.push(CStmt::Switch {
                    scrutinee: v.member("_d"),
                    cases: switch_cases,
                });
            }
            PlanNode::Optional { elem, .. } => {
                let flag = self.be.encoding.prim_for_size(1, false);
                let mut then = vec![self.put_prim(flag, CExpr::Int(1))];
                self.encode(elem, v.clone().deref(), covered, &mut then);
                let els = vec![self.put_prim(flag, CExpr::Int(0))];
                out.push(CStmt::If {
                    cond: v.bin(BinOp::Ne, CExpr::Int(0)),
                    then,
                    els: Some(els),
                });
            }
            PlanNode::Outline { key } => {
                out.push(CStmt::expr(CExpr::call(
                    format!("flick_marshal_{key}"),
                    vec![ident("_buf"), v.addr_of()],
                )));
            }
        }
    }

    fn outline_marshal(&mut self, key: &str, body: &PlanNode) -> CFunction {
        let mut stmts = Vec::new();
        self.encode(body, ident("_v").deref(), false, &mut stmts);
        CFunction {
            name: format!("flick_marshal_{key}").into(),
            ret: CType::Void,
            params: vec![
                CParam {
                    name: Name::from_static("_buf"),
                    ty: CType::ptr(CType::named("FLICK_BUF")),
                },
                CParam {
                    name: Name::from_static("_v"),
                    ty: CType::ptr(CType::named(key)),
                },
            ],
            body: Some(stmts),
        }
    }

    /// The client-side call stub: marshal the request, invoke the
    /// transport, unmarshal the reply (reply unmarshal is delegated to
    /// the runtime's decode helpers to keep the C side compact — the
    /// Rust emitter carries the fully inlined decode path).
    fn client_stub(&mut self, stub: &flick_pres::Stub, plan: &StubPlan) -> CFunction {
        let mut body = Vec::new();
        body.push(CStmt::Comment(format!(
            "client stub for operation `{}` (request code {})",
            plan.op.name, plan.op.request_code
        )));
        body.push(CStmt::decl_init(
            "_buf",
            CType::ptr(CType::named("FLICK_BUF")),
            CExpr::call("flick_client_buf", vec![]),
        ));
        body.push(CStmt::expr(CExpr::call(
            "flick_buf_clear",
            vec![ident("_buf")],
        )));

        // §3.1 hoisted whole-message check (decided by `hoist-checks`;
        // the capped form, so fixed-but-huge messages do not
        // pre-reserve).
        let mut covered = false;
        if let Some(n) = plan.request.hoisted_capped {
            body.push(CStmt::Comment(match plan.request.class {
                SizeClass::Fixed(_) => "whole message is fixed-size: one check".into(),
                _ => "whole message is bounded: one check".into(),
            }));
            body.push(CStmt::expr(CExpr::call(
                "flick_ensure",
                vec![ident("_buf"), CExpr::Int(n as i64)],
            )));
            covered = true;
        }
        // Bind plan slots to presentation slots by name, not position:
        // the `dead-slot` pass may have removed plan slots that the
        // presentation still records (as `live: false` bindings).
        for slot in &plan.request.slots.clone() {
            if !slot.live {
                // Dead slot with the pass disabled: the wire still
                // carries the field, but no C parameter exists for it —
                // marshal a zero.
                body.push(CStmt::Comment(format!(
                    "dead slot `{}`: never presented, wire gets zero",
                    slot.name
                )));
                self.encode(&slot.node.clone(), CExpr::Int(0), covered, &mut body);
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
            self.encode(&slot.node.clone(), base, covered, &mut body);
        }
        body.push(CStmt::expr(CExpr::call(
            "flick_call",
            vec![
                ident("_buf"),
                CExpr::UInt(plan.op.request_code),
                CExpr::Str(plan.op.wire_name.to_string()),
            ],
        )));
        if !plan.op.oneway && !plan.reply.slots.is_empty() {
            body.push(CStmt::Comment("unmarshal reply values".into()));
            let mut ret_decl: Option<CType> = None;
            for (i, slot) in plan.reply.slots.iter().enumerate() {
                if !slot.live {
                    // Dead reply slot: decode into a scratch local and
                    // discard (no C location exists for it).
                    let scratch = format!("_dead{i}");
                    body.push(CStmt::Comment(format!(
                        "dead slot `{}`: decoded and discarded",
                        slot.name
                    )));
                    body.push(CStmt::decl(scratch.clone(), CType::Long));
                    body.push(CStmt::expr(CExpr::call(
                        "flick_decode_slot",
                        vec![ident("_buf"), ident(&scratch).addr_of()],
                    )));
                } else if slot.name == "_return" {
                    // Returned by value: decode into a local.
                    ret_decl = Some(stub.decl.ret.clone());
                    body.insert(1, CStmt::decl("_return", stub.decl.ret.clone()));
                    body.push(CStmt::expr(CExpr::call(
                        "flick_decode_slot",
                        vec![ident("_buf"), ident("_return").addr_of()],
                    )));
                } else {
                    // Out parameters are already pointers.
                    body.push(CStmt::expr(CExpr::call(
                        "flick_decode_slot",
                        vec![ident("_buf"), ident(&slot.name)],
                    )));
                }
            }
            if ret_decl.is_some() {
                body.push(CStmt::Return(Some(ident("_return"))));
            }
        }
        stub.decl.clone_with_body(body)
    }

    /// Prototypes for the user-implemented work functions the
    /// dispatch arms call.
    fn work_prototypes(&mut self, presc: &PresC, plans: &[StubPlan]) -> Vec<CFunction> {
        let mut out = Vec::new();
        for plan in plans {
            if plan.kind == StubKind::ServerWork {
                continue;
            }
            let Some(stub) = presc.stubs.iter().find(|s| s.name == plan.name) else {
                continue;
            };
            let params: Vec<CParam> = plan
                .request
                .slots
                .iter()
                .filter(|slot| slot.live)
                .map(|slot| CParam {
                    name: slot.name.clone(),
                    ty: stub
                        .decl
                        .params
                        .iter()
                        .find(|p| p.name == slot.name)
                        .map_or(CType::Int, |p| p.ty.clone()),
                })
                .collect();
            out.push(CFunction {
                name: format!(
                    "{}_work",
                    crate::emit_c::sanitize_c(&format!(
                        "{}_{}",
                        presc.interface.replace("::", "_"),
                        plan.op.name
                    ))
                )
                .into(),
                ret: CType::Void,
                params,
                body: None,
            });
        }
        out
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
    fn dispatch(&mut self, presc: &PresC, plans: &[StubPlan]) -> CFunction {
        let mut cases = Vec::new();
        for plan in plans {
            if plan.kind == StubKind::ServerWork {
                continue;
            }
            let Some(stub) = presc.stubs.iter().find(|s| s.name == plan.name) else {
                continue;
            };
            let mut body = Vec::new();
            body.push(CStmt::Comment(format!(
                "inlined unmarshal + dispatch for `{}`",
                plan.op.name
            )));
            let mut args = Vec::new();
            for (i, slot) in plan.request.slots.iter().enumerate() {
                let var = format!("_arg{i}");
                if !slot.live {
                    // Dead slot with the pass disabled: the wire still
                    // carries the field, so decode it into a scratch
                    // local the work call never sees.
                    body.push(CStmt::Comment(format!(
                        "dead slot `{}`: decoded and discarded",
                        slot.name
                    )));
                    body.push(CStmt::decl(var.clone(), CType::Long));
                    body.push(CStmt::expr(CExpr::call(
                        "flick_decode_slot",
                        vec![ident("_msg"), ident(&var).addr_of()],
                    )));
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
                let param_ty = stub
                    .decl
                    .params
                    .iter()
                    .find(|p| p.name == slot.name)
                    .map_or(CType::Int, |p| p.ty.clone());
                let (local_ty, pass_by_ref) = match (&param_ty, by_ref) {
                    (CType::Pointer(inner), true) => ((**inner).clone(), true),
                    _ => (param_ty.clone(), false),
                };
                body.push(CStmt::decl(var.clone(), local_ty));
                body.push(CStmt::expr(CExpr::call(
                    "flick_decode_slot",
                    vec![ident("_msg"), ident(&var).addr_of()],
                )));
                args.push(if pass_by_ref {
                    ident(&var).addr_of()
                } else {
                    ident(&var)
                });
            }
            let work = format!(
                "{}_work",
                crate::emit_c::sanitize_c(&format!(
                    "{}_{}",
                    presc.interface.replace("::", "_"),
                    plan.op.name
                ))
            );
            body.push(CStmt::expr(CExpr::call(work, args)));
            body.push(CStmt::Return(Some(CExpr::Int(0))));
            // Scope the arm's locals: each case body becomes a block.
            cases.push(SwitchCase {
                values: vec![plan.op.request_code as i64],
                body: vec![CStmt::Block(body)],
            });
        }
        cases.push(SwitchCase {
            values: vec![],
            body: vec![CStmt::Return(Some(CExpr::Int(-1)))],
        });
        CFunction {
            name: format!("{}_dispatch", presc.interface.replace("::", "_")).into(),
            ret: CType::Int,
            params: vec![
                CParam {
                    name: Name::from_static("_proc"),
                    ty: CType::UInt,
                },
                CParam {
                    name: Name::from_static("_msg"),
                    ty: CType::ptr(CType::named("FLICK_BUF")),
                },
            ],
            body: Some(vec![CStmt::Switch {
                scrutinee: ident("_proc"),
                cases,
            }]),
        }
    }
}

/// Replaces non-identifier characters for C names.
#[must_use]
pub fn sanitize_c(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

trait CloneWithBody {
    fn clone_with_body(&self, body: Vec<CStmt>) -> CFunction;
}

impl CloneWithBody for CFunction {
    fn clone_with_body(&self, body: Vec<CStmt>) -> CFunction {
        CFunction {
            name: self.name.clone(),
            ret: self.ret.clone(),
            params: self.params.clone(),
            body: Some(body),
        }
    }
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
