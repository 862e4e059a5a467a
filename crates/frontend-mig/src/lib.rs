//! The MIG front end, conjoined with its presentation generator.
//!
//! MIG (the Mach Interface Generator) is not a clean network-contract
//! language: its interface definitions carry constructs applicable only
//! to C and to the Mach message/IPC system, so — exactly as the paper
//! describes (§2.1) — this front end does *not* produce AOI.  It
//! translates MIG subsystems **directly into PRES-C**, acting as a
//! fused front end + presentation generator.  The result feeds the
//! ordinary back ends like any other presentation.
//!
//! Supported subset (enough for MIG's expressible domain, which the
//! paper notes is "essentially just scalars and arrays of scalars"):
//!
//! ```text
//! subsystem timer 2400;
//! type int_array_t = array[] of int;
//! routine   set_interval(server : mach_port_t; ticks : int);
//! routine   send_samples(server : mach_port_t; vals : int_array_t);
//! simpleroutine poke(server : mach_port_t);           // no reply
//! ```
//!
//! Routines map to C functions
//! `kern_return_t <subsystem>_<routine>(mach_port_t server, ...)`; the
//! message id of routine *n* is `base_id + n`, as MIG numbers them.

use flick_cast::{CFunction, CParam, CType};
use flick_idl::diag::Diagnostics;
use flick_idl::lex::{Token, TokenKind};
use flick_idl::parse::Cursor;
use flick_idl::source::SourceFile;
use flick_mint::MintGraph;
use flick_pres::{
    AllocSem, MessagePres, Name, OpInfo, ParamBinding, PresC, PresNode, PresTree, Side, Stub,
    StubKind,
};

/// Parses a MIG subsystem definition directly into PRES-C for `side`.
///
/// Problems are recorded in `diags`; returns `None` if the subsystem
/// could not be recovered at all.
#[must_use]
pub fn parse(file: &SourceFile, side: Side, diags: &mut Diagnostics) -> Option<PresC> {
    let toks = flick_idl::lex(file, diags);
    let mut p = MigParser::new(&toks, side);
    let out = p.parse_subsystem();
    diags.append(&mut p.cursor.diags);
    if diags.has_errors() {
        None
    } else {
        out
    }
}

/// Convenience wrapper: parse a string, panicking on any error.
///
/// # Panics
/// Panics with rendered diagnostics if the source has errors.
#[must_use]
pub fn parse_str(name: &str, text: &str, side: Side) -> PresC {
    let file = SourceFile::new(name, text);
    let mut diags = Diagnostics::new();
    let out = parse(&file, side, &mut diags);
    assert!(
        !diags.has_errors(),
        "MIG errors:\n{}",
        diags.render_all(&file)
    );
    out.expect("no errors implies output")
}

/// A parsed MIG argument type.
#[derive(Clone, Debug, PartialEq)]
enum MigType {
    /// `mach_port_t` — the destination port (not message data).
    Port,
    /// `int`
    Int,
    /// `char`
    Char,
    /// `array[] of int` / `array[n] of char`, with optional bound.
    Array {
        /// Element type (`Int` or `Char`).
        elem: Box<MigType>,
        /// Fixed length if `array[n]`, else `None` for `array[]`.
        len: Option<u64>,
    },
}

struct MigParser<'t, 's> {
    cursor: Cursor<'t, 's>,
    side: Side,
    mint: MintGraph,
    pres: PresTree,
    cast: flick_cast::CUnit,
    types: Vec<(&'s str, MigType)>,
    stubs: Vec<Stub>,
    name: &'s str,
    base_id: u64,
    routine_index: u64,
}

impl<'t, 's> MigParser<'t, 's> {
    fn new(toks: &'t [Token<'s>], side: Side) -> Self {
        MigParser {
            cursor: Cursor::new(toks),
            side,
            mint: MintGraph::new(),
            pres: PresTree::new(),
            cast: flick_cast::CUnit::new(),
            types: Vec::new(),
            stubs: Vec::new(),
            name: "",
            base_id: 0,
            routine_index: 0,
        }
    }

    fn parse_subsystem(&mut self) -> Option<PresC> {
        self.cursor
            .expect_kw("subsystem", "at start of MIG definition");
        let (name, _) = self.cursor.expect_ident("as subsystem name");
        self.name = name;
        let (base, _) = self.cursor.expect_int("as subsystem base id");
        self.base_id = base;
        self.cursor
            .expect(&TokenKind::Semi, "after subsystem header");

        while !self.cursor.at_eof() {
            if self.cursor.at_kw("type") {
                self.parse_typedecl();
            } else if self.cursor.at_kw("routine") || self.cursor.at_kw("simpleroutine") {
                self.parse_routine();
            } else if matches!(self.cursor.peek().kind, TokenKind::Directive(_)) {
                self.cursor.bump();
            } else {
                let span = self.cursor.span();
                let found = self.cursor.peek().kind.describe();
                self.cursor.diags.error(
                    format!("expected `type`, `routine`, or `simpleroutine`, found {found}"),
                    span,
                );
                let before = self.cursor.pos();
                self.cursor.recover_to_semi();
                if self.cursor.pos() == before {
                    self.cursor.bump(); // stray `}` — skip or livelock
                }
            }
        }
        Some(PresC {
            side: self.side,
            interface: self.name.to_string(),
            program: self.base_id,
            version: 1,
            mint: std::mem::take(&mut self.mint),
            pres: std::mem::take(&mut self.pres),
            cast: std::mem::take(&mut self.cast),
            stubs: std::mem::take(&mut self.stubs),
            style: "mig-c".to_string(),
        })
    }

    fn parse_typedecl(&mut self) {
        self.cursor.bump(); // type
        let (name, _) = self.cursor.expect_ident("as type name");
        self.cursor.expect(&TokenKind::Eq, "in type declaration");
        if let Some(ty) = self.parse_type() {
            self.types.push((name, ty));
        }
        self.cursor
            .expect(&TokenKind::Semi, "after type declaration");
    }

    fn parse_type(&mut self) -> Option<MigType> {
        let t = self.cursor.peek();
        match t.kind {
            TokenKind::Ident(kw @ ("int" | "char" | "mach_port_t")) => {
                self.cursor.bump();
                Some(match kw {
                    "int" => MigType::Int,
                    "char" => MigType::Char,
                    _ => MigType::Port,
                })
            }
            TokenKind::Ident("array") => {
                self.cursor.bump();
                self.cursor.expect(&TokenKind::LBracket, "after `array`");
                let len = if self.cursor.peek().kind == TokenKind::RBracket {
                    None
                } else {
                    let (n, _) = self.cursor.expect_int("as array length");
                    Some(n)
                };
                self.cursor
                    .expect(&TokenKind::RBracket, "to close array length");
                self.cursor.expect_kw("of", "in array type");
                let elem = self.parse_type()?;
                if !matches!(elem, MigType::Int | MigType::Char) {
                    let span = self.cursor.span();
                    self.cursor.diags.error(
                        "MIG arrays may contain only scalars (the paper: MIG \
                         cannot express arrays of non-atomic types)",
                        span,
                    );
                    return None;
                }
                Some(MigType::Array {
                    elem: Box::new(elem),
                    len,
                })
            }
            TokenKind::Ident(n) => {
                self.cursor.bump();
                match self.types.iter().find(|(tn, _)| *tn == n) {
                    Some((_, ty)) => Some(ty.clone()),
                    None => {
                        self.cursor
                            .diags
                            .error(format!("unknown MIG type `{n}`"), t.span);
                        None
                    }
                }
            }
            _ => {
                self.cursor.diags.error(
                    format!("expected a MIG type, found {}", t.kind.describe()),
                    t.span,
                );
                self.cursor.bump();
                None
            }
        }
    }

    fn parse_routine(&mut self) {
        let oneway = self.cursor.at_kw("simpleroutine");
        self.cursor.bump(); // routine | simpleroutine
        let (rname, _) = self.cursor.expect_ident("as routine name");
        let rname = Name::from(rname);
        self.routine_index += 1;
        let msg_id = self.base_id + self.routine_index;

        let mut params: Vec<(Name, MigType)> = Vec::new();
        if self
            .cursor
            .expect(&TokenKind::LParen, "to open routine arguments")
        {
            while !self.cursor.at_eof() && self.cursor.peek().kind != TokenKind::RParen {
                let (pname, _) = self.cursor.expect_ident("as argument name");
                self.cursor.expect(&TokenKind::Colon, "after argument name");
                if let Some(ty) = self.parse_type() {
                    params.push((pname.into(), ty));
                }
                if !self.cursor.eat(&TokenKind::Semi) {
                    break;
                }
            }
            self.cursor
                .expect(&TokenKind::RParen, "to close routine arguments");
        }
        self.cursor
            .expect(&TokenKind::Semi, "after routine declaration");

        // First port argument is the destination; the rest are data.
        let mut cparams = Vec::new();
        let mut slots = Vec::new();
        let mut mint_slots = Vec::new();
        let mut seen_port = false;
        for (pname, ty) in &params {
            if *ty == MigType::Port && !seen_port {
                seen_port = true;
                cparams.push(CParam {
                    name: pname.clone(),
                    ty: CType::Named(Name::from_static("mach_port_t")),
                });
                continue;
            }
            let (ctype, mint_id, pres_id, by_ref) = self.lower_type(ty);
            cparams.push(CParam {
                name: pname.clone(),
                ty: ctype,
            });
            mint_slots.push((pname.clone(), mint_id));
            slots.push(ParamBinding {
                c_name: pname.clone(),
                pres: pres_id,
                by_ref,
                live: true,
            });
        }
        if !seen_port {
            let span = self.cursor.span();
            self.cursor.diags.error(
                format!("routine `{rname}` has no mach_port_t destination argument"),
                span,
            );
        }

        let request_mint = {
            let u32m = self.mint.u32();
            let c = self
                .mint
                .constant(u32m, flick_mint::ConstVal::Unsigned(msg_id));
            mint_slots.insert(0, (Name::from_static("_op"), c));
            self.mint.structure(mint_slots)
        };
        let reply_mint = self.mint.void();

        let stub_name = format!("{}_{}", self.name, rname);
        let decl = CFunction {
            name: Name::from(stub_name.as_str()),
            ret: CType::Named(Name::from_static("kern_return_t")),
            params: cparams,
            body: None,
        };
        self.stubs.push(Stub {
            name: stub_name,
            kind: if self.side == Side::Server {
                StubKind::ServerWork
            } else if oneway {
                StubKind::OnewaySend
            } else {
                StubKind::ClientCall
            },
            decl,
            request: MessagePres {
                mint: request_mint,
                slots,
            },
            reply: MessagePres {
                mint: reply_mint,
                slots: vec![],
            },
            op: OpInfo {
                name: rname.clone(),
                request_code: msg_id,
                wire_name: rname,
                oneway,
            },
        });
    }

    /// Lowers a MIG data type to (C type, MINT, PRES, by-ref).
    fn lower_type(
        &mut self,
        ty: &MigType,
    ) -> (CType, flick_mint::MintId, flick_pres::PresId, bool) {
        let alloc = if self.side == Side::Server {
            AllocSem::server_in_param()
        } else {
            AllocSem::heap_only()
        };
        match ty {
            MigType::Int => {
                let m = self.mint.i32();
                let p = self.pres.add(PresNode::Direct {
                    mint: m,
                    ctype: CType::Int,
                });
                (CType::Int, m, p, false)
            }
            MigType::Char => {
                let m = self.mint.char8();
                let p = self.pres.add(PresNode::Direct {
                    mint: m,
                    ctype: CType::Char,
                });
                (CType::Char, m, p, false)
            }
            MigType::Port => {
                let m = self.mint.u32();
                let p = self.pres.add(PresNode::Direct {
                    mint: m,
                    ctype: CType::UInt,
                });
                (CType::Named(Name::from_static("mach_port_t")), m, p, false)
            }
            MigType::Array { elem, len } => {
                let (elem_c, elem_m) = match **elem {
                    MigType::Char => (CType::Char, self.mint.char8()),
                    _ => (CType::Int, self.mint.i32()),
                };
                let elem_p = self.pres.add(PresNode::Direct {
                    mint: elem_m,
                    ctype: elem_c.clone(),
                });
                match len {
                    Some(n) => {
                        let m = self.mint.array_fixed(elem_m, *n);
                        let ctype = CType::Array(std::sync::Arc::new(elem_c), Some(*n));
                        let p = self.pres.add(PresNode::FixedArray {
                            mint: m,
                            elem: elem_p,
                            len: *n,
                            ctype: ctype.clone(),
                        });
                        (ctype, m, p, true)
                    }
                    None => {
                        // Variable arrays present as pointer + count —
                        // MIG's classic (data, count) convention maps to
                        // a counted sequence presentation.
                        let m = self.mint.array_variable(elem_m, None);
                        let ctype = CType::ptr(elem_c);
                        let p = self.pres.add(PresNode::CountedSeq {
                            mint: m,
                            elem: elem_p,
                            ctype: ctype.clone(),
                            length_field: Name::from_static("count"),
                            maximum_field: Name::from_static("max"),
                            buffer_field: Name::from_static("data"),
                            alloc,
                        });
                        (ctype, m, p, false)
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIMER: &str = r"
        subsystem timer 2400;
        type int_array_t = array[] of int;
        routine set_interval(server : mach_port_t; ticks : int);
        routine send_samples(server : mach_port_t; vals : int_array_t);
        simpleroutine poke(server : mach_port_t);
    ";

    #[test]
    fn parses_subsystem_to_presc() {
        let p = parse_str("timer.defs", TIMER, Side::Client);
        assert_eq!(p.interface, "timer");
        assert_eq!(p.program, 2400);
        assert_eq!(p.style, "mig-c");
        assert_eq!(p.stubs.len(), 3);
    }

    #[test]
    fn message_ids_follow_base() {
        let p = parse_str("timer.defs", TIMER, Side::Client);
        assert_eq!(p.stubs[0].op.request_code, 2401);
        assert_eq!(p.stubs[1].op.request_code, 2402);
        assert_eq!(p.stubs[2].op.request_code, 2403);
    }

    #[test]
    fn stub_signature_is_mig_shaped() {
        let p = parse_str("timer.defs", TIMER, Side::Client);
        let s = &p.stubs[0];
        assert_eq!(s.name, "timer_set_interval");
        assert_eq!(s.decl.ret, CType::named("kern_return_t"));
        assert_eq!(s.decl.params[0].ty, CType::named("mach_port_t"));
        assert_eq!(s.decl.params[1].ty, CType::Int);
    }

    #[test]
    fn simpleroutine_is_oneway() {
        let p = parse_str("timer.defs", TIMER, Side::Client);
        assert!(p.stubs[2].op.oneway);
        assert_eq!(p.stubs[2].kind, StubKind::OnewaySend);
    }

    #[test]
    fn rejects_arrays_of_arrays() {
        // The paper: "MIG cannot express arrays of non-atomic types."
        let file = SourceFile::new(
            "bad.defs",
            r"
            subsystem x 1;
            routine f(server : mach_port_t; m : array[] of array[4] of int);
            ",
        );
        let mut d = Diagnostics::new();
        let out = parse(&file, Side::Client, &mut d);
        assert!(out.is_none());
        assert!(d.has_errors());
        assert!(d.iter().any(|x| x.message.contains("scalars")));
    }

    #[test]
    fn missing_port_reported() {
        let file = SourceFile::new("bad.defs", "subsystem x 1;\nroutine f(a : int);\n");
        let mut d = Diagnostics::new();
        let _ = parse(&file, Side::Client, &mut d);
        assert!(d.has_errors());
    }

    #[test]
    fn named_types_resolve() {
        let p = parse_str(
            "t.defs",
            r"
            subsystem t 10;
            type buf_t = array[64] of char;
            routine put(server : mach_port_t; b : buf_t);
            ",
            Side::Client,
        );
        let s = &p.stubs[0];
        assert!(matches!(
            p.pres.get(s.request.slots[0].pres),
            PresNode::FixedArray { len: 64, .. }
        ));
    }

    #[test]
    fn compiles_through_mach_backend() {
        // End-to-end: MIG defs → PRES-C → Mach 3 back end.
        let p = parse_str("timer.defs", TIMER, Side::Client);
        let be = flick_backend::BackEnd::new(flick_backend::Transport::Mach3);
        let out = be.compile(&p).expect("backend accepts MIG PRES-C");
        assert!(out.rust_source.contains("encode_send_samples_request"));
        assert!(
            out.rust_source.contains("mach::put_type"),
            "typed descriptors"
        );
    }
}
