//! Lowering from PRES-C to the marshal MIR.
//!
//! Lowering is deliberately *naive*: every value marshals datum by
//! datum, every named aggregate goes out of line, and no storage
//! classes are assigned.  All §3 optimization decisions — check
//! hoisting, chunking, memcpy coalescing, marshal inlining, demux
//! switch formation — are made afterwards by the named passes in
//! [`crate::passes`]; lowering only records the structure.
//!
//! Lowering is also the only backend code that reads the presentation's
//! node arena, so it copies into the plan every fact the later stages
//! need.  It is the one place a scalar's wire form is decided: every
//! [`PlanNode::Prim`] carries it, array elements included, and so do a
//! union's discriminator and an optional's presence flag.  It answers
//! the presentation half of the image predicate for every counted
//! array ([`crate::layout::CImage`]), and records the names the
//! emitters print.  The passes, the verifier, both stub emitters, the
//! plan cache and the encoding-pair gateway ([`crate::transcode`]) read
//! all of it from here rather than asking the presentation or the
//! encoding again.
//!
//! Stubs share no mutable state, so [`lower_stub`] lowers one stub on
//! its own; the planner ([`crate::passes::plan_module`]) calls it per
//! stub and merges the results in presentation order, and the gateway
//! planner lowers each stub once per endpoint encoding.

use std::collections::BTreeMap;

use flick_mint::MintNode;
use flick_pres::{Name, PresC, PresId, PresNode, Stub};

use crate::encoding::Encoding;
use crate::layout::CImage;

pub(crate) use crate::mir::{plan_references_outline, PlanResult};
pub use crate::mir::{
    rust_prim_name, MsgPlan, PlanNode, PlanStats, SlotPlan, SlotStorage, StubPlan, StubPlans,
};

/// Lowers one stub to naive MIR: its plan plus the outline bodies it
/// registers.
///
/// # Errors
/// Returns a message if the stub contains a conversion this planner
/// cannot lower.
pub(crate) fn lower_stub(
    presc: &PresC,
    enc: &Encoding,
    stub: &Stub,
) -> PlanResult<(StubPlan, BTreeMap<Name, PlanNode>)> {
    let mut lw = Lowerer {
        presc,
        enc,
        outlines: BTreeMap::new(),
        in_progress: Vec::new(),
    };
    let request = lw.lower_message(&stub.request)?;
    let reply = lw.lower_message(&stub.reply)?;
    Ok((
        StubPlan {
            name: stub.decl.name.clone(),
            kind: stub.kind,
            op: stub.op.clone(),
            request,
            reply,
        },
        lw.outlines,
    ))
}

struct Lowerer<'a> {
    presc: &'a PresC,
    enc: &'a Encoding,
    outlines: BTreeMap<Name, PlanNode>,
    in_progress: Vec<(PresId, Name)>,
}

/// The key of an aggregate that has no presented name.
fn anon_key(pres: PresId) -> Name {
    Name::from_fmt(format_args!("anon_{}", pres.index()))
}

/// The presented type name of `pres`, if it maps to a named C type.
fn type_name_of(presc: &PresC, pres: PresId) -> Option<Name> {
    match presc.pres.get(pres).ctype() {
        Some(flick_cast::CType::Named(n)) => Some(n.clone()),
        _ => None,
    }
}

impl<'a> Lowerer<'a> {
    fn lower_message(&mut self, msg: &flick_pres::MessagePres) -> PlanResult<MsgPlan> {
        let mut slots = Vec::with_capacity(msg.slots.len());
        for slot in &msg.slots {
            slots.push(SlotPlan {
                name: slot.c_name.clone(),
                by_ref: slot.by_ref,
                live: slot.live,
                alias: None,
                storage: SlotStorage::default(),
                node: self.lower_node(slot.pres)?,
            });
        }
        Ok(MsgPlan {
            // The classify-storage pass computes the real class.
            class: crate::layout::SizeClass::Unbounded,
            hoisted: None,
            hoisted_capped: None,
            slots,
        })
    }

    fn lower_node(&mut self, pres: PresId) -> PlanResult<PlanNode> {
        // Recursion check: a pres node already being lowered must go
        // out of line no matter what the inline pass later decides.
        if let Some((_, key)) = self.in_progress.iter().find(|(p, _)| *p == pres) {
            return Ok(PlanNode::Outline { key: key.clone() });
        }

        // The presentation outlives `self`: read the node in place.
        let presc = self.presc;
        let node = presc.pres.get(pres);

        // Naive lowering outlines *every* named aggregate — the
        // call-per-datum shape of traditional IDL compilers.  The
        // inline-marshal pass re-expands call sites it decides to
        // absorb.
        let is_recursive_candidate = matches!(
            node,
            PresNode::StructMap { .. } | PresNode::UnionMap { .. } | PresNode::OptionalPtr { .. }
        );
        if !is_recursive_candidate {
            return self.lower_node_inner(node, pres);
        }
        let outline_key = type_name_of(presc, pres);
        let force_outline = outline_key.is_some();
        self.in_progress
            .push((pres, outline_key.unwrap_or_else(|| anon_key(pres))));
        let planned = self.lower_node_inner(node, pres);
        let (_, key) = self.in_progress.pop().expect("pushed above");
        let planned = planned?;

        // If anything inside referenced us as an outline, or this is a
        // named aggregate, register the body and return a call.
        if force_outline || plan_references_outline(&planned, &key) {
            self.outlines.insert(key.clone(), planned);
            return Ok(PlanNode::Outline { key });
        }
        Ok(planned)
    }

    fn lower_node_inner(&mut self, node: &PresNode, pres: PresId) -> PlanResult<PlanNode> {
        Ok(match node {
            PresNode::Void => PlanNode::Void,
            PresNode::Direct { mint, .. } => PlanNode::Prim {
                prim: self.enc.prim(&self.presc.mint, *mint),
            },
            PresNode::EnumMap { .. } => PlanNode::Enum {
                prim: self.enc.prim_for_size(4, false),
            },
            PresNode::StructMap { fields, .. } => {
                let mut fs = Vec::with_capacity(fields.len());
                for (name, f) in fields {
                    fs.push((name.clone(), self.lower_node(*f)?));
                }
                PlanNode::Struct {
                    type_name: type_name_of(self.presc, pres).unwrap_or_else(|| anon_key(pres)),
                    fields: fs,
                }
            }
            PresNode::FixedArray { elem, len, .. } => PlanNode::FixedArray {
                len: *len,
                elem: Box::new(self.lower_elem(*elem)?),
                elem_type: self.elem_type_name(*elem),
            },
            PresNode::TerminatedString { mint, alloc, .. } => PlanNode::String {
                bound: self.array_bound(*mint),
                style: self.enc.string_wire,
                borrow_ok: alloc.may_use_buffer,
            },
            PresNode::OptPtr { mint, elem, .. } | PresNode::CountedSeq { mint, elem, .. } => {
                let bound = self.array_bound(*mint);
                let fields = match node {
                    PresNode::CountedSeq {
                        length_field,
                        buffer_field,
                        ..
                    } => (length_field.clone(), buffer_field.clone()),
                    _ => (Name::from_static("_length"), Name::from_static("_buffer")),
                };
                PlanNode::CountedArray {
                    bound,
                    elem: Box::new(self.lower_elem(*elem)?),
                    // The classify-storage pass fills this in.
                    elem_class: crate::layout::SizeClass::Unbounded,
                    c_image: match self.presc.pres.get(*elem) {
                        PresNode::StructMap { .. } => self.c_image(*elem),
                        _ => None,
                    },
                    elem_type: self.elem_type_name(*elem),
                    fields,
                    strided: false,
                    image: None,
                }
            }
            PresNode::UnionMap {
                discrim,
                cases,
                default,
                ..
            } => {
                let disc_prim = match self.presc.pres.get(*discrim) {
                    PresNode::Direct { mint, .. } => self.enc.prim(&self.presc.mint, *mint),
                    PresNode::EnumMap { .. } => self.enc.prim_for_size(4, false),
                    other => return Err(format!("unsupported union discriminator {other:?}")),
                };
                let mut arms = Vec::with_capacity(cases.len());
                for (v, name, c) in cases {
                    arms.push((*v, name.clone(), self.lower_node(*c)?));
                }
                let default = match default {
                    Some((name, d)) => Some((name.clone(), Box::new(self.lower_node(*d)?))),
                    None => None,
                };
                PlanNode::Union {
                    type_name: type_name_of(self.presc, pres).unwrap_or_else(|| anon_key(pres)),
                    disc_prim,
                    cases: arms,
                    default,
                }
            }
            PresNode::OptionalPtr { elem, .. } => PlanNode::Optional {
                flag: self.enc.prim_for_size(1, false),
                elem: Box::new(self.lower_node(*elem)?),
                elem_type: self.elem_type_name(*elem),
            },
        })
    }

    /// Lowers an array element.  A scalar element takes its wire form
    /// as an element ([`Encoding::elem_prim`]): XDR packs byte-wide
    /// elements where it widens a lone byte, so this is where the
    /// stubs, `coalesce-memcpy` and the gateway all learn it.
    fn lower_elem(&mut self, elem: PresId) -> PlanResult<PlanNode> {
        match self.presc.pres.get(elem) {
            PresNode::Direct { mint, .. } => Ok(PlanNode::Prim {
                prim: self.enc.elem_prim(&self.presc.mint, *mint),
            }),
            _ => self.lower_node(elem),
        }
    }

    /// The C layout of the presented value at `pres`, if it holds
    /// nothing but integers and floats and needs no padding.
    fn c_image(&self, pres: PresId) -> Option<CImage> {
        let presc = self.presc;
        match presc.pres.get(pres) {
            PresNode::Direct { mint, .. } => {
                use flick_mint::ScalarKind;
                let size = self.enc.prim(&presc.mint, *mint).size;
                matches!(
                    presc.mint.get(*mint),
                    MintNode::Integer { .. }
                        | MintNode::Scalar(ScalarKind::Float32 | ScalarKind::Float64)
                )
                .then_some(CImage {
                    size: u32::from(size),
                    widths: 1 << size,
                })
            }
            PresNode::FixedArray { elem, len, .. } => {
                let e = self.c_image(*elem)?;
                Some(CImage {
                    size: e.size.checked_mul(u32::try_from(*len).ok()?)?,
                    ..e
                })
            }
            PresNode::StructMap { fields, .. } => {
                let mut c = CImage { size: 0, widths: 0 };
                for (_, f) in fields {
                    let m = self.c_image(*f)?;
                    if !c.size.is_multiple_of(m.align()) {
                        return None; // C pads before this member
                    }
                    c.size = c.size.checked_add(m.size)?;
                    c.widths |= m.widths;
                }
                // Tail padding (or an empty struct) is not an image either.
                (c.size > 0 && c.size.is_multiple_of(c.align())).then_some(c)
            }
            _ => None,
        }
    }

    /// The declared bound of the MINT array at `mint`, if any.
    fn array_bound(&self, mint: flick_mint::MintId) -> Option<u64> {
        match self.presc.mint.get(mint) {
            MintNode::Array { len, .. } => len.max,
            _ => None,
        }
    }

    fn elem_type_name(&self, elem: PresId) -> Name {
        match self.presc.pres.get(elem).ctype() {
            Some(flick_cast::CType::Named(n)) => n.clone(),
            Some(c) => Name::from_static(rust_prim_name(c)),
            None => Name::from_static("u8"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::StringWire;
    use crate::layout::SizeClass;
    use crate::passes::{plan_module, PassSet};
    use flick_idl::diag::Diagnostics;
    use flick_pres::Side;

    fn plan_full(p: &PresC, enc: &Encoding, passes: PassSet) -> StubPlans {
        plan_module(p, enc, passes, true, None, None)
            .expect("plan")
            .mir
    }

    fn plan_for(idl: &str, iface: &str, enc: &Encoding, passes: PassSet) -> Vec<StubPlan> {
        let aoi = flick_frontend_corba::parse_str("t.idl", idl);
        let mut d = Diagnostics::new();
        let p = flick_presgen::corba_c(&aoi, iface, Side::Client, &mut d).expect("presentation");
        plan_full(&p, enc, passes).stubs
    }

    fn all_but(names: &[&str]) -> PassSet {
        names
            .iter()
            .fold(PassSet::all(), |set, n| set.without(n).expect("removable"))
    }

    const RECTS_IDL: &str = r"
        struct Point { long x; long y; };
        struct Rect { Point min; Point max; };
        typedef sequence<Rect> RectSeq;
        interface I { void put(in RectSeq rs); };
    ";

    #[test]
    fn rect_sequence_plans_as_loop_of_chunks() {
        let plans = plan_for(RECTS_IDL, "I", &Encoding::xdr(), PassSet::all());
        let slot = &plans[0].request.slots[0];
        let PlanNode::CountedArray {
            elem, elem_class, ..
        } = &slot.node
        else {
            panic!("expected counted array, got {:?}", slot.node);
        };
        assert_eq!(*elem_class, SizeClass::Fixed(16));
        assert!(
            matches!(**elem, PlanNode::Packed { ref layout, .. } if layout.size == 16),
            "rect element packs into a 16-byte chunk: {elem:?}"
        );
    }

    #[test]
    fn arrays_of_tiling_chunks_are_marked_strided() {
        let strided =
            |idl: &str, enc: &Encoding, passes: PassSet| match &plan_for(idl, "I", enc, passes)[0]
                .request
                .slots[0]
                .node
            {
                PlanNode::CountedArray { strided, .. } => *strided,
                other => panic!("expected counted array, got {other:?}"),
            };
        // 16-byte rects, 4-aligned: consecutive chunks tile.
        assert!(strided(RECTS_IDL, &Encoding::xdr(), PassSet::all()));
        assert!(strided(RECTS_IDL, &Encoding::cdr_le(), PassSet::all()));
        // No chunks, no stride.
        let no_chunks = all_but(&["form-chunks"]);
        assert!(!strided(RECTS_IDL, &Encoding::xdr(), no_chunks));
        // A 5-byte CDR chunk aligned to 4 leaves padding between
        // elements: it packs, but does not tile.
        let ragged = "struct R { long a; char c; }; typedef sequence<R> Rs; \
                      interface I { void put(in Rs rs); };";
        assert!(!strided(ragged, &Encoding::cdr_le(), PassSet::all()));
        // XDR widens the char, so the same struct is 8 bytes and tiles.
        assert!(strided(ragged, &Encoding::xdr(), PassSet::all()));
        // A variable-size element is never strided.
        let var = "struct D { string s; long n; }; typedef sequence<D> Ds; \
                   interface I { void put(in Ds ds); };";
        assert!(!strided(var, &Encoding::xdr(), PassSet::all()));
    }

    #[test]
    fn chunking_off_yields_per_datum_structs() {
        let plans = plan_for(RECTS_IDL, "I", &Encoding::xdr(), all_but(&["form-chunks"]));
        let PlanNode::CountedArray { elem, .. } = &plans[0].request.slots[0].node else {
            panic!("counted array");
        };
        assert!(matches!(**elem, PlanNode::Struct { .. }), "{elem:?}");
    }

    #[test]
    fn int_array_memcpy_depends_on_order() {
        let idl = "typedef sequence<long> Ints; interface I { void put(in Ints v); };";
        let run_order = |enc: &Encoding, passes: PassSet| match &plan_for(idl, "I", enc, passes)[0]
            .request
            .slots[0]
            .node
        {
            PlanNode::MemcpyArray { prim, counted, .. } => {
                assert!(*counted && prim.forms_run(), "{prim:?}");
                Some(prim.order)
            }
            PlanNode::CountedArray { .. } => None,
            other => panic!("unexpected plan {other:?}"),
        };
        // Native-order CDR: a memcpy run.
        let native = run_order(&Encoding::cdr_native(), PassSet::all()).expect("run");
        assert!(native.is_native());
        // Foreign-order CDR and (on a little-endian host) XDR: still
        // one run — a swizzle run, recorded as a non-native order on
        // the same node.
        let foreign = if cfg!(target_endian = "little") {
            Encoding::cdr_be()
        } else {
            Encoding::cdr_le()
        };
        let swizzled = run_order(&foreign, PassSet::all()).expect("foreign order is a run");
        assert!(!swizzled.is_native());
        assert_eq!(
            run_order(&Encoding::xdr(), PassSet::all()),
            Some(Encoding::xdr().order),
            "XDR longs tile their 4-byte slots"
        );
        // memcpy disabled: element loop in either order.
        let no_memcpy = all_but(&["coalesce-memcpy"]);
        assert_eq!(run_order(&Encoding::cdr_native(), no_memcpy), None);
        assert_eq!(run_order(&foreign, no_memcpy), None);
    }

    #[test]
    fn widened_elements_are_not_runs() {
        // XDR carries a `short` in a 4-byte slot: two of every four
        // wire bytes belong to no element, so the array is not a run
        // in any byte order and keeps its element loop.  (Byte-wide
        // elements pack instead of widening — see the octet test.)
        let idl = "typedef sequence<short> Shorts; interface I { void put(in Shorts v); };";
        let plans = plan_for(idl, "I", &Encoding::xdr(), PassSet::all());
        let PlanNode::CountedArray { elem, .. } = &plans[0].request.slots[0].node else {
            panic!(
                "widened shorts must loop: {:?}",
                plans[0].request.slots[0].node
            );
        };
        assert!(
            matches!(**elem, PlanNode::Prim { prim, .. } if prim.size == 2 && prim.slot == 4),
            "{elem:?}"
        );
        // CDR packs shorts at natural size, so there they are a run.
        let plans = plan_for(idl, "I", &Encoding::cdr_be(), PassSet::all());
        assert!(matches!(
            plans[0].request.slots[0].node,
            PlanNode::MemcpyArray { prim, .. } if prim.size == 2
        ));
    }

    #[test]
    fn octet_arrays_always_memcpy() {
        // Byte-wide elements block-copy under any byte order (CDR keeps
        // them packed; XDR pads only at the end of the run).
        let idl = "typedef sequence<octet> Blob; interface I { void put(in Blob b); };";
        for enc in [Encoding::xdr(), Encoding::cdr_be(), Encoding::cdr_le()] {
            let plans = plan_for(idl, "I", &enc, PassSet::all());
            assert!(
                matches!(plans[0].request.slots[0].node, PlanNode::MemcpyArray { .. }),
                "{} should memcpy bytes",
                enc.name
            );
        }
    }

    #[test]
    fn string_plan_styles() {
        let idl = "interface I { void put(in string s); };";
        let plans = plan_for(idl, "I", &Encoding::xdr(), PassSet::all());
        let PlanNode::String { style, .. } = &plans[0].request.slots[0].node else {
            panic!("string plan");
        };
        assert_eq!(*style, StringWire::CountedPadded);
        let plans = plan_for(idl, "I", &Encoding::cdr_be(), PassSet::all());
        let PlanNode::String { style, .. } = &plans[0].request.slots[0].node else {
            panic!("string plan");
        };
        assert_eq!(*style, StringWire::CountedNul);
    }

    #[test]
    fn message_class_covers_slots_and_pads_not_the_discriminator() {
        // The class is what the body encoder writes.  The operation's
        // discriminator travels in the transport's header (the ONC
        // procedure, the GIOP operation, the Mach message id), so it is
        // not counted: two longs are 8 bytes, and the empty reply has
        // no check to hoist.
        let idl = "struct P { long a; long b; }; interface I { void put(in P p); };";
        let plans = plan_for(idl, "I", &Encoding::xdr(), PassSet::all());
        assert_eq!(plans[0].request.class, SizeClass::Fixed(8));
        assert_eq!(plans[0].reply.class, SizeClass::Fixed(0));
        assert_eq!(plans[0].reply.hoisted, None);
        // Alignment pads count: under CDR the octet is followed by 7
        // pad bytes before the double, so the body is 16 bytes, not 9.
        let idl = "struct P { double d; }; interface I { void f(in octet a, in P p); };";
        let plans = plan_for(idl, "I", &Encoding::cdr_le(), PassSet::all());
        assert_eq!(plans[0].request.class, SizeClass::Fixed(16));
        // Where the offset is unknown (past a string) a pad counts at
        // its widest: 4 + up to 9 bytes + up to 7 pad + 8.
        let idl = "interface I { void g(in string<8> s, in double d); };";
        let plans = plan_for(idl, "I", &Encoding::cdr_le(), PassSet::all());
        assert_eq!(plans[0].request.class, SizeClass::Bounded(28));
    }

    #[test]
    fn inlining_off_outlines_named_structs() {
        let aoi = flick_frontend_corba::parse_str("t.idl", RECTS_IDL);
        let mut d = Diagnostics::new();
        let p = flick_presgen::corba_c(&aoi, "I", Side::Client, &mut d).unwrap();
        // The traditional call-per-aggregate shape.
        let outlined = all_but(&["inline-marshal", "form-chunks"]);
        let full = plan_full(&p, &Encoding::xdr(), outlined);
        let PlanNode::CountedArray { elem, .. } = &full.stubs[0].request.slots[0].node else {
            panic!("counted array");
        };
        assert!(
            matches!(**elem, PlanNode::Outline { ref key } if key == "Rect"),
            "{elem:?}"
        );
        assert!(full.outlines.contains_key("Rect"));
        assert!(
            full.outlines.contains_key("Point"),
            "nested aggregate outlined too"
        );
    }

    #[test]
    fn recursion_always_outlines() {
        let aoi = flick_frontend_onc::parse_str(
            "l.x",
            r"
            struct node { int v; node *next; };
            program L { version V { void put(node n) = 1; } = 1; } = 9;
            ",
        );
        let mut d = Diagnostics::new();
        let p = flick_presgen::rpcgen_c(&aoi, "L", Side::Client, &mut d).unwrap();
        // Even with inlining ON, the self-reference goes out of line.
        let full = plan_full(&p, &Encoding::xdr(), PassSet::all());
        assert!(
            full.outlines.contains_key("node"),
            "recursive struct must have an outline body: {:?}",
            full.outlines.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn plan_stats_tally_optimizer_decisions() {
        let aoi = flick_frontend_corba::parse_str("t.idl", RECTS_IDL);
        let mut d = Diagnostics::new();
        let p = flick_presgen::corba_c(&aoi, "I", Side::Client, &mut d).unwrap();

        let full = plan_full(&p, &Encoding::xdr(), PassSet::all());
        let s = PlanStats::of(&full);
        assert_eq!(s.stubs, 1);
        assert!(s.packed_chunks >= 1, "rect elements pack: {s:?}");
        assert!(s.hoisted_checks >= 1, "bounded messages hoist: {s:?}");
        assert_eq!(s.outline_fns, 0);

        // Inlining off: chunks give way to outline calls.
        let outlined = all_but(&["inline-marshal", "form-chunks"]);
        let full = plan_full(&p, &Encoding::xdr(), outlined);
        let s2 = PlanStats::of(&full);
        assert_eq!(s2.packed_chunks, 0);
        assert!(s2.outline_fns >= 2, "Rect and Point outlined: {s2:?}");
        assert!(s2.outline_calls >= 2, "{s2:?}");
    }

    #[test]
    fn mach_encoding_plans_descriptored_array() {
        // A Mach int sequence is one run behind one type descriptor,
        // which is the encoding's to write (INTEGER_32, 32 bits).
        let idl = "typedef sequence<long> Ints; interface I { void put(in Ints v); };";
        let plans = plan_for(idl, "I", &Encoding::mach3(), PassSet::all());
        assert!(
            matches!(
                plans[0].request.slots[0].node,
                PlanNode::MemcpyArray { counted: true, .. }
            ),
            "mach ints plan: {:?}",
            plans[0].request.slots[0].node
        );
        let aoi = flick_frontend_corba::parse_str("t.idl", idl);
        let mut d = Diagnostics::new();
        let p = flick_presgen::corba_c(&aoi, "I", Side::Client, &mut d).expect("presentation");
        let src = crate::BackEnd::new(crate::Transport::Mach3)
            .compile(&p)
            .expect("compiles")
            .rust_source;
        assert!(
            src.contains("flick_runtime::mach::put_type(buf, 2, 32, (v.len()) as u32);"),
            "{src}"
        );
    }
}
