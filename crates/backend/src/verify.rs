//! MIR verifier: structural invariants the emitters rely on.
//!
//! Run between passes in debug/test builds (and wherever
//! `BackEnd::verify_mir` is set, e.g. stub regeneration), so a broken
//! rewrite fails at the pass that introduced it rather than as
//! garbled generated code.  Checks:
//!
//! * every `Outline` call site resolves to a registered body;
//! * every `Packed` layout matches a fresh re-pack of the region the
//!   chunk keeps, its items are in offset order, non-overlapping, and
//!   within the chunk size;
//! * `MemcpyArray` shape consistency (fixed XOR counted; the element
//!   tiles the wire, `slot == size`, in either byte order — a widened
//!   element is never a run);
//! * a `strided` counted array's element is one fixed-size chunk
//!   (directly, or behind an outline call `inline-marshal` has not
//!   absorbed) whose size matches the array's `Fixed(n)` element class
//!   and is a nonzero multiple of its alignment;
//! * an `image` mark sits only on a strided array, after
//!   `coalesce-memcpy` ran, and equals what the image predicate
//!   re-derives from the array's lowered C image and the element
//!   chunk's size — a widened or padded member, a `boolean`, or mixed
//!   scalar widths under a foreign byte order would make the block move
//!   a different wire form;
//! * hoisted message checks agree with the message's size class, and
//!   the capped form never exceeds the uncapped one;
//! * slot liveness: a message's plan slots are an ordered subsequence
//!   of its stub's bindings in the presentation, dropping only *dead*
//!   bindings
//!   (only `dead-slot` may remove work, and only work the PRES
//!   mapping never surfaces);
//! * alias safety: a `reply-alias` mark points at a live request slot
//!   whose plan is still *structurally identical* to the reply slot's,
//!   of fixed wire size and at a static range of the request body (the
//!   slots before it fixed too), as the reply's only slot, under a
//!   position-independent encoding — so a later pass that mutates
//!   either side's plan invalidates the mark and fails verification
//!   instead of emitting a stale byte reuse;
//! * prefix safety: a `merge-prefix` hoist on a demux-trie node
//!   promises that every operation reachable below leads with the
//!   hoisted count, hoists never nest, and typed-descriptor encodings
//!   carry none;
//! * storage safety: a `reuse-slots` arena mark promises the slot's
//!   whole plan presents without owned storage; an arena-classified
//!   reply slot must carry an alias mark (otherwise its value would
//!   escape the call's receive buffer), and an aliased reply must stay
//!   arena-classified (the copy-on-write `Echoed` contract answers
//!   `Unchanged` from the request buffer — owned storage there would
//!   mean a mutation without a copy).

use flick_pres::Stub;

use crate::encoding::Encoding;
use crate::layout::{pack, wire_image, SizeClass};
use crate::mir::{
    Demux, DemuxArm, DemuxNode, MsgPlan, PlanNode, PrefixStep, SlotStorage, StubPlan, StubPlans,
};
use crate::passes::reuse::arena_presentable_slot;
use crate::passes::{reply_alias_echoed_range as echoed_range, reply_alias_position_independent};

/// Checks every invariant over `mir`, holding slot liveness to the
/// bindings of the presentation's `stubs`.
///
/// # Errors
/// Returns a description of the first violated invariant.
pub fn verify(mir: &StubPlans, stubs: &[Stub], enc: &Encoding) -> Result<(), String> {
    for stub in &mir.stubs {
        for (dir, msg) in [("request", &stub.request), ("reply", &stub.reply)] {
            let at = |what: &str| format!("stub {} {dir}: {what}", stub.name);
            if let Some(n) = msg.hoisted {
                match msg.class.bound() {
                    Some(b) if b == n => {}
                    other => {
                        return Err(at(&format!(
                            "hoisted check of {n} bytes disagrees with class bound {other:?}"
                        )))
                    }
                }
            }
            if let Some(n) = msg.hoisted_capped {
                if msg.hoisted != Some(n) {
                    return Err(at(&format!(
                        "capped hoist {n} without matching uncapped hoist {:?}",
                        msg.hoisted
                    )));
                }
            }
            for slot in &msg.slots {
                verify_node(&slot.node, mir, enc)
                    .map_err(|e| at(&format!("slot {}: {e}", slot.name)))?;
            }
            if msg.by_value
                && (msg.hoisted.is_some()
                    || !crate::layout::sized_by_value(
                        msg.slots.iter().map(|s| &s.node),
                        &mir.outlines,
                    ))
            {
                return Err(at(
                    "reserved by value, but hoisted statically or not sized by its values",
                ));
            }
            if let Some(src) = stubs.iter().find(|s| stub.name == s.name.as_str()) {
                let bindings = if dir == "request" {
                    &src.request.slots
                } else {
                    &src.reply.slots
                };
                verify_liveness(msg, bindings).map_err(|e| at(&e))?;
            }
        }
        verify_aliases(stub, enc)?;
        verify_storage(stub, mir)?;
    }
    for (key, body) in &mir.outlines {
        verify_node(body, mir, enc).map_err(|e| format!("outline {key}: {e}"))?;
    }
    if let Demux::Trie(root) = &mir.demux {
        verify_prefixes(root, false, mir, enc)?;
    }
    Ok(())
}

/// Hoisted demux prefixes (`merge-prefix` marks): a prefix promises
/// that *every* operation reachable below decodes exactly those steps
/// first, so the dispatcher may read them once above the word switch.
/// Re-checked after every pass, like alias marks: a later rewrite
/// that changes an arm's leading slot must fail here, not emit a
/// dispatcher that hands a stale count to a slot that never asked.
fn verify_prefixes(
    node: &DemuxNode,
    hoisted_above: bool,
    mir: &StubPlans,
    enc: &Encoding,
) -> Result<(), String> {
    let hoisted_here = !node.prefix.is_empty();
    if hoisted_here {
        if enc.typed_descriptors {
            return Err(format!(
                "demux trie word {}: hoisted prefix under typed-descriptor encoding {}",
                node.word, enc.name
            ));
        }
        if hoisted_above {
            return Err(format!(
                "demux trie word {}: nested hoisted prefixes (an arm would \
                 consume the shared count twice)",
                node.word
            ));
        }
        for step in &node.prefix {
            match step {
                PrefixStep::LenU32 => {}
            }
        }
        verify_arms_lead_with_count(node, mir)?;
    }
    for (_, arm) in &node.arms {
        if let DemuxArm::Descend(child) = arm {
            verify_prefixes(child, hoisted_above || hoisted_here, mir, enc)?;
        }
    }
    Ok(())
}

fn verify_arms_lead_with_count(node: &DemuxNode, mir: &StubPlans) -> Result<(), String> {
    for (_, arm) in &node.arms {
        match arm {
            DemuxArm::Op(name) => {
                let Some(stub) = mir.stubs.iter().find(|s| &s.op.name == name) else {
                    return Err(format!(
                        "demux trie arm dispatches unknown operation `{name}`"
                    ));
                };
                if !crate::passes::merge_prefix::leads_with_len_u32(stub) {
                    return Err(format!(
                        "hoisted prefix above `{name}`, whose request does not \
                         begin with an aligned u32 count",
                    ));
                }
            }
            DemuxArm::Descend(child) => verify_arms_lead_with_count(child, mir)?,
        }
    }
    Ok(())
}

/// Slot liveness: plan slots must be an ordered subsequence of the
/// presentation's bindings, every *live* binding must still have
/// exactly one slot, and each surviving slot's liveness flag must
/// match its binding's.
fn verify_liveness(msg: &MsgPlan, bindings: &[flick_pres::ParamBinding]) -> Result<(), String> {
    let mut next = 0usize;
    for slot in &msg.slots {
        let found = bindings[next..]
            .iter()
            .position(|b| b.c_name == slot.name)
            .map(|off| next + off);
        let Some(i) = found else {
            return Err(format!(
                "slot {} has no binding (or slots are out of binding order)",
                slot.name
            ));
        };
        for skipped in &bindings[next..i] {
            if skipped.live {
                return Err(format!(
                    "live binding {} lost its slot (only dead slots may be removed)",
                    skipped.c_name
                ));
            }
        }
        if slot.live != bindings[i].live {
            return Err(format!(
                "slot {} liveness flag ({}) disagrees with its binding ({})",
                slot.name, slot.live, bindings[i].live
            ));
        }
        next = i + 1;
    }
    for rest in &bindings[next..] {
        if rest.live {
            return Err(format!(
                "live binding {} lost its slot (only dead slots may be removed)",
                rest.c_name
            ));
        }
    }
    Ok(())
}

/// Storage safety for `reuse-slots` marks (see module docs).
fn verify_storage(stub: &StubPlan, mir: &StubPlans) -> Result<(), String> {
    let at = |what: &str| format!("stub {}: {what}", stub.name);
    for slot in &stub.request.slots {
        if slot.storage == SlotStorage::Arena && !arena_presentable_slot(&slot.node, &mir.outlines)
        {
            return Err(at(&format!(
                "request slot {} is arena-classified but its plan cannot \
                 live in the call arena (a decode step must allocate)",
                slot.name
            )));
        }
    }
    for slot in &stub.reply.slots {
        if slot.storage == SlotStorage::Arena && slot.alias.is_none() {
            return Err(at(&format!(
                "reply slot {} is arena-classified without an alias mark: \
                 its value would escape the call's receive buffer",
                slot.name
            )));
        }
        if slot.alias.is_some() && slot.storage != SlotStorage::Arena {
            return Err(at(&format!(
                "aliased reply slot {} lost its arena classification — the \
                 copy-on-write contract would mutate through owned storage \
                 without a copy",
                slot.name
            )));
        }
    }
    Ok(())
}

/// Alias safety for `reply-alias` marks (see module docs).
fn verify_aliases(stub: &crate::mir::StubPlan, enc: &Encoding) -> Result<(), String> {
    let at = |what: &str| format!("stub {}: {what}", stub.name);
    for slot in &stub.request.slots {
        if slot.alias.is_some() {
            return Err(at(&format!(
                "request slot {} carries an alias mark",
                slot.name
            )));
        }
    }
    for slot in &stub.reply.slots {
        let Some(i) = slot.alias else { continue };
        if stub.reply.slots.len() != 1 {
            return Err(at(&format!(
                "reply slot {} aliased in a multi-slot reply (the Echoed \
                 contract replaces the operation's sole reply value)",
                slot.name
            )));
        }
        if !reply_alias_position_independent(enc) {
            return Err(at(&format!(
                "reply slot {} aliased under position-dependent encoding {}",
                slot.name, enc.name
            )));
        }
        let Some(req) = stub.request.slots.get(i) else {
            return Err(at(&format!(
                "reply slot {} aliases out-of-range request slot {i}",
                slot.name
            )));
        };
        if echoed_range(&stub.request.slots, i).is_none() {
            return Err(at(&format!(
                "reply slot {} aliases request slot {} at no static range \
                 (a slot before it has no fixed wire size)",
                slot.name, req.name
            )));
        }
        if !slot.live || !req.live {
            return Err(at(&format!(
                "reply slot {} aliases through a dead slot",
                slot.name
            )));
        }
        if slot.node.fixed_wire_size().is_none() {
            return Err(at(&format!(
                "reply slot {} aliased with a variable-size plan",
                slot.name
            )));
        }
        if slot.node != req.node {
            return Err(at(&format!(
                "reply slot {} no longer structurally matches request slot {} \
                 (a later pass mutated one side after reply-alias ran)",
                slot.name, req.name
            )));
        }
    }
    Ok(())
}

fn verify_node(node: &PlanNode, mir: &StubPlans, enc: &Encoding) -> Result<(), String> {
    match node {
        PlanNode::Outline { key } if !mir.outlines.contains_key(key) => {
            return Err(format!("outline call `{key}` has no registered body"));
        }
        PlanNode::Packed { layout, region } => {
            match pack(region, &mir.outlines, enc) {
                Some(fresh) if fresh == *layout => {}
                Some(_) => {
                    return Err(format!(
                        "packed chunk layout went stale (re-pack of its region differs): \
                         size {} align {}",
                        layout.size, layout.align
                    ))
                }
                None => return Err("packed chunk over a region that no longer packs".into()),
            }
            let mut end = 0u64;
            for item in &layout.items {
                let off = item.offset();
                if off < end {
                    return Err(format!(
                        "packed items overlap: item at offset {off} begins before {end}"
                    ));
                }
                end = off
                    + match item {
                        crate::layout::PackedItem::Prim { prim, .. } => u64::from(prim.size),
                        crate::layout::PackedItem::PrimRun {
                            prim, count, pad, ..
                        } => u64::from(prim.size) * *count + *pad,
                    };
            }
            if end > layout.size {
                return Err(format!(
                    "packed items end at {end}, past the chunk size {}",
                    layout.size
                ));
            }
        }
        PlanNode::MemcpyArray {
            prim,
            fixed_len,
            counted,
            ..
        } => {
            if fixed_len.is_some() == *counted {
                return Err(format!(
                    "memcpy array must be fixed xor counted (fixed_len {fixed_len:?}, \
                     counted {counted})"
                ));
            }
            if !prim.forms_run() {
                return Err(format!(
                    "memcpy array over an element that does not tile the wire \
                     (slot {} != size {}): {prim:?}",
                    prim.slot, prim.size
                ));
            }
        }
        PlanNode::CountedArray {
            strided: false,
            image: Some(_),
            ..
        } => return Err("image run over an array that is not strided".into()),
        PlanNode::CountedArray {
            elem,
            elem_class,
            strided: true,
            c_image,
            image,
            ..
        } => {
            let body = match &**elem {
                PlanNode::Outline { key } => mir.outlines.get(key),
                other => Some(other),
            };
            let Some(PlanNode::Packed { layout, .. }) = body else {
                return Err(format!(
                    "strided array over an element that is not one fixed-size chunk \
                     (element class {elem_class:?})"
                ));
            };
            if *elem_class != SizeClass::Fixed(layout.size) || !layout.tiles() {
                return Err(format!(
                    "strided array whose {}-byte chunk (align {}) does not tile \
                     (element class {elem_class:?})",
                    layout.size, layout.align
                ));
            }
            if image.is_some() {
                let derived = c_image
                    .and_then(|c| wire_image(&c, layout.size, enc.order))
                    .filter(|_| mir.memcpy);
                if derived != *image {
                    return Err(format!(
                        "image run marked {image:?} over a {}-byte chunk whose presented \
                         struct the image predicate gives {derived:?} (coalesce-memcpy ran: {})",
                        layout.size, mir.memcpy
                    ));
                }
            }
        }
        _ => {}
    }
    let mut result = Ok(());
    // Recurse manually so the first error wins.
    match node {
        PlanNode::Struct { fields, .. } => {
            for (name, f) in fields {
                result = verify_node(f, mir, enc).map_err(|e| format!("field {name}: {e}"));
                if result.is_err() {
                    break;
                }
            }
        }
        PlanNode::Union { cases, default, .. } => {
            for (_, name, c) in cases {
                verify_node(c, mir, enc).map_err(|e| format!("case {name}: {e}"))?;
            }
            if let Some((name, d)) = default {
                result = verify_node(d, mir, enc).map_err(|e| format!("default {name}: {e}"));
            }
        }
        PlanNode::CountedArray { elem, .. }
        | PlanNode::FixedArray { elem, .. }
        | PlanNode::Optional { elem, .. } => {
            result = verify_node(elem, mir, enc).map_err(|e| format!("element: {e}"));
        }
        _ => {}
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::{plan_module, PassSet};
    use flick_idl::diag::Diagnostics;
    use flick_pres::{PresC, Side};

    fn full(idl: &str, iface: &str) -> (StubPlans, PresC) {
        let aoi = flick_frontend_corba::parse_str("t.idl", idl);
        let mut d = Diagnostics::new();
        let p = flick_presgen::corba_c(&aoi, iface, Side::Client, &mut d).expect("presentation");
        let mir = plan_module(&p, &Encoding::xdr(), PassSet::all(), true, None, None)
            .expect("plans")
            .mir;
        (mir, p)
    }

    const IDL: &str = r"
        struct Point { long x; long y; };
        struct Rect { Point min; Point max; };
        typedef sequence<Rect> RectSeq;
        interface I { void put(in RectSeq rs); };
    ";

    #[test]
    fn optimized_plans_verify_clean() {
        let (mir, p) = full(IDL, "I");
        verify(&mir, &p.stubs, &Encoding::xdr()).expect("valid MIR");
    }

    #[test]
    fn corrupted_mir_is_rejected() {
        let (mir, p) = full(IDL, "I");
        let enc = Encoding::xdr();

        // Dangling outline call.
        let mut bad = mir.clone();
        bad.stubs[0].request.slots[0].node = PlanNode::Outline {
            key: "NoSuchBody".into(),
        };
        assert!(verify(&bad, &p.stubs, &enc)
            .unwrap_err()
            .contains("no registered body"));

        // Hoist that disagrees with the size class.
        let mut bad = mir.clone();
        bad.stubs[0].request.hoisted = Some(3);
        assert!(verify(&bad, &p.stubs, &enc)
            .unwrap_err()
            .contains("disagrees"));

        // Stale packed layout: shrink the chunk under its items.
        let mut bad = mir;
        fn break_packed(n: &mut PlanNode) -> bool {
            match n {
                PlanNode::Packed { layout, .. } => {
                    layout.size = 1;
                    true
                }
                PlanNode::CountedArray { elem, .. }
                | PlanNode::FixedArray { elem, .. }
                | PlanNode::Optional { elem, .. } => break_packed(elem),
                _ => false,
            }
        }
        assert!(break_packed(&mut bad.stubs[0].request.slots[0].node));
        assert!(verify(&bad, &p.stubs, &enc).is_err());
    }

    #[test]
    fn corrupted_run_and_stride_marks_are_rejected() {
        let idl = r"
            struct Point { long x; long y; };
            struct Rect { Point min; Point max; };
            struct Named { string name; long n; };
            typedef sequence<long> Ints;
            typedef sequence<Rect> RectSeq;
            typedef sequence<Named> NamedSeq;
            interface I { void put(in Ints v, in RectSeq rs, in NamedSeq ns); };
        ";
        let (mir, p) = full(idl, "I");
        let enc = Encoding::xdr();
        verify(&mir, &p.stubs, &enc).expect("clean plans verify");
        let slots = &mir.stubs[0].request.slots;
        assert!(
            matches!(slots[0].node, PlanNode::MemcpyArray { .. }),
            "XDR longs form a run in either byte order: {:?}",
            slots[0].node
        );
        assert!(matches!(
            slots[1].node,
            PlanNode::CountedArray { strided: true, .. }
        ));
        assert!(matches!(
            slots[2].node,
            PlanNode::CountedArray { strided: false, .. }
        ));

        // A run whose element no longer tiles the wire (a widened
        // slot): a swap-copy would move bytes no element owns.
        let mut bad = mir.clone();
        if let PlanNode::MemcpyArray { prim, .. } = &mut bad.stubs[0].request.slots[0].node {
            prim.size = 2;
        }
        assert!(verify(&bad, &p.stubs, &enc)
            .unwrap_err()
            .contains("does not tile the wire"));

        // A stride over a variable-size element: `count × stride`
        // bytes would be the wrong region.
        let mut bad = mir.clone();
        if let PlanNode::CountedArray { strided, .. } = &mut bad.stubs[0].request.slots[2].node {
            *strided = true;
        }
        assert!(verify(&bad, &p.stubs, &enc)
            .unwrap_err()
            .contains("not one fixed-size chunk"));

        // A stride that disagrees with the array's element class.
        let mut bad = mir;
        if let PlanNode::CountedArray { elem_class, .. } = &mut bad.stubs[0].request.slots[1].node {
            *elem_class = SizeClass::Fixed(12);
        }
        assert!(verify(&bad, &p.stubs, &enc)
            .unwrap_err()
            .contains("does not tile"));
    }

    #[test]
    fn corrupted_image_marks_are_rejected() {
        /// Plans `void put(in sequence<T> ts)` under `enc`.
        fn planned(decl: &str, enc: &Encoding) -> (StubPlans, PresC) {
            let idl =
                format!("{decl} typedef sequence<T> Ts; interface I {{ void put(in Ts ts); }};");
            let aoi = flick_frontend_corba::parse_str("t.idl", &idl);
            let mut d = Diagnostics::new();
            let p = flick_presgen::corba_c(&aoi, "I", Side::Client, &mut d).expect("presentation");
            let mir = plan_module(&p, enc, PassSet::all(), true, None, None)
                .expect("plans")
                .mir;
            (mir, p)
        }
        /// The `image` mark of that one (strided) array.
        fn image_of(mir: &mut StubPlans) -> &mut Option<u8> {
            match &mut mir.stubs[0].request.slots[0].node {
                PlanNode::CountedArray {
                    strided: true,
                    image,
                    ..
                } => image,
                other => panic!("expected a strided array, got {other:?}"),
            }
        }
        let foreign = if cfg!(target_endian = "little") {
            Encoding::cdr_be()
        } else {
            Encoding::cdr_le()
        };
        let native = Encoding::cdr_native();

        // The clean case: the pass marks it, and the mark must be the
        // derived one — a block copy where a swap is due is rejected.
        let (mut mir, p) = planned("struct T { long a; long b; };", &foreign);
        assert_eq!(*image_of(&mut mir), Some(4));
        verify(&mir, &p.stubs, &foreign).expect("clean plans verify");
        *image_of(&mut mir) = Some(1);
        assert!(verify(&mir, &p.stubs, &foreign)
            .unwrap_err()
            .contains("image predicate gives Some(4)"));

        // Elements that tile (so they stride) but are no image: the
        // pass leaves them alone, and forcing the mark is rejected.
        let not_images = [
            // A widened `short`: two bytes of every slot are no field's.
            ("struct T { long a; short b; };", Encoding::xdr()),
            // A `boolean` may not move unvalidated.
            ("struct T { long a; boolean b[4]; };", native.clone()),
            // Four pad bytes before the second double, on the wire and
            // in C.
            ("struct T { double d; long a; double e; };", native.clone()),
            // 8- and 4-byte scalars: no one swap width.
            ("struct T { double d; long a; long b; };", foreign.clone()),
        ];
        for (decl, enc) in not_images {
            let (mut mir, p) = planned(decl, &enc);
            assert_eq!(*image_of(&mut mir), None, "{decl}");
            verify(&mir, &p.stubs, &enc).expect("clean plans verify");
            *image_of(&mut mir) = Some(4);
            let err = verify(&mir, &p.stubs, &enc).unwrap_err();
            assert!(err.contains("image predicate gives None"), "{decl}: {err}");
        }

        // The mark rides on the stride, and on the pass having run.
        let (mut mir, p) = planned("struct T { long a; long b; };", &native);
        verify(&mir, &p.stubs, &native).expect("clean plans verify");
        let mut unstrided = mir.clone();
        if let PlanNode::CountedArray { strided, .. } =
            &mut unstrided.stubs[0].request.slots[0].node
        {
            *strided = false;
        }
        assert!(verify(&unstrided, &p.stubs, &native)
            .unwrap_err()
            .contains("not strided"));
        mir.memcpy = false;
        assert!(verify(&mir, &p.stubs, &native)
            .unwrap_err()
            .contains("coalesce-memcpy ran: false"));
    }

    // One `long` parameter, so `_return` has exactly one structural
    // match and `reply-alias` can pair them unambiguously.
    const ECHO_IDL: &str = "interface E { long echo(in long v, in string tag); };";

    #[test]
    fn dropping_a_live_slot_is_rejected() {
        let (mir, p) = full(ECHO_IDL, "E");
        let enc = Encoding::xdr();

        // Only `dead-slot` may remove a slot, and only a dead one.
        let mut bad = mir.clone();
        bad.stubs[0].request.slots.remove(0);
        assert!(
            verify(&bad, &p.stubs, &enc)
                .unwrap_err()
                .contains("lost its slot"),
            "a vanished live slot must fail liveness"
        );

        // A surviving slot must agree with its binding about liveness.
        let mut bad = mir;
        bad.stubs[0].request.slots[0].live = false;
        assert!(verify(&bad, &p.stubs, &enc)
            .unwrap_err()
            .contains("disagrees with its binding"));
    }

    #[test]
    fn corrupted_alias_marks_are_rejected() {
        let (mir, p) = full(ECHO_IDL, "E");
        let enc = Encoding::xdr();
        verify(&mir, &p.stubs, &enc).expect("clean plans verify");
        let aliased = mir
            .stubs
            .iter()
            .any(|s| s.reply.slots.iter().any(|r| r.alias.is_some()));
        assert!(aliased, "reply-alias marks `_return` on an echo under XDR");

        // Alias mark on the request side is never legal.
        let mut bad = mir.clone();
        bad.stubs[0].request.slots[0].alias = Some(0);
        assert!(verify(&bad, &p.stubs, &enc)
            .unwrap_err()
            .contains("carries an alias mark"));

        // Out-of-range request index.
        let mut bad = mir.clone();
        for s in &mut bad.stubs {
            for r in &mut s.reply.slots {
                if r.alias.is_some() {
                    r.alias = Some(99);
                }
            }
        }
        assert!(verify(&bad, &p.stubs, &enc)
            .unwrap_err()
            .contains("out-of-range request slot"));

        // An echoed slot behind a variable-size one has no static range.
        let mut bad = mir.clone();
        for s in &mut bad.stubs {
            let Some(i) = s.reply.slots.iter().find_map(|r| r.alias) else {
                continue;
            };
            let mut before = s.request.slots[i].clone();
            before.node = PlanNode::String {
                bound: None,
                style: crate::encoding::StringWire::CountedPadded,
                borrow_ok: false,
            };
            s.request.slots.insert(i, before);
            s.reply.slots[0].alias = Some(i + 1);
        }
        // (No bindings: the inserted slot is no parameter of `echo`.)
        assert!(verify(&bad, &p.stubs[..0], &enc)
            .unwrap_err()
            .contains("at no static range"));

        // A later pass mutating one side of the pair goes stale.
        let mut bad = mir.clone();
        for s in &mut bad.stubs {
            let Some(i) = s.reply.slots.iter().find_map(|r| r.alias) else {
                continue;
            };
            if let PlanNode::Prim { prim, .. } = &mut s.request.slots[i].node {
                prim.size = 8;
            }
        }
        assert!(verify(&bad, &p.stubs, &enc)
            .unwrap_err()
            .contains("no longer structurally matches"));

        // Position-dependent encodings may never alias.
        let mut cdr = enc.clone();
        cdr.widen_to_word = false;
        assert!(verify(&mir, &p.stubs, &cdr)
            .unwrap_err()
            .contains("position-dependent encoding"));
    }

    #[test]
    fn corrupted_storage_marks_are_rejected() {
        let (mir, p) = full(ECHO_IDL, "E");
        let enc = Encoding::xdr();
        verify(&mir, &p.stubs, &enc).expect("clean plans verify");
        // reuse-slots classifies the scalar request slot arena, and
        // reply-alias classifies the aliased `_return`.
        assert!(
            mir.stubs[0]
                .request
                .slots
                .iter()
                .any(|s| s.storage == SlotStorage::Arena),
            "reuse-slots marks the scalar request slot"
        );

        // An arena mark over a plan that must own storage (here the
        // client-side string, which may not borrow) cannot present in
        // the call arena.
        let mut bad = mir.clone();
        for s in &mut bad.stubs[0].request.slots {
            if matches!(s.node, PlanNode::String { .. }) {
                s.storage = SlotStorage::Arena;
            }
        }
        assert!(verify(&bad, &p.stubs, &enc)
            .unwrap_err()
            .contains("cannot live in the call arena"));

        // An arena-classified reply slot whose alias mark vanished
        // would escape its call scope.
        let mut bad = mir.clone();
        for s in &mut bad.stubs {
            for r in &mut s.reply.slots {
                r.alias = None;
            }
        }
        assert!(verify(&bad, &p.stubs, &enc)
            .unwrap_err()
            .contains("escape the call's receive buffer"));

        // An aliased reply downgraded to owned storage breaks the
        // copy-on-write contract (a mutation without a copy).
        let mut bad = mir.clone();
        for s in &mut bad.stubs {
            for r in &mut s.reply.slots {
                if r.alias.is_some() {
                    r.storage = SlotStorage::Owned;
                }
            }
        }
        assert!(verify(&bad, &p.stubs, &enc)
            .unwrap_err()
            .contains("without a copy"));
    }

    #[test]
    fn alias_in_multi_slot_reply_is_rejected() {
        // Two live reply slots (`_return` and the out parameter): the
        // pass must not mark, and a corrupted mark must not verify.
        let idl = "interface E2 { long pair(in long v, out long w); };";
        let (mir, p) = full(idl, "E2");
        let enc = Encoding::xdr();
        verify(&mir, &p.stubs, &enc).expect("clean plans verify");
        assert!(
            mir.stubs[0].reply.slots.iter().all(|r| r.alias.is_none()),
            "reply-alias must skip multi-slot replies"
        );

        let mut bad = mir.clone();
        let slot = &mut bad.stubs[0].reply.slots[0];
        slot.alias = Some(0);
        slot.storage = SlotStorage::Arena;
        assert!(verify(&bad, &p.stubs, &enc)
            .unwrap_err()
            .contains("multi-slot reply"));
    }

    #[test]
    fn corrupted_prefix_marks_are_rejected() {
        use crate::mir::{Demux, DemuxArm, DemuxNode, PrefixStep};

        // Both operations lead with a counted array, so merge-prefix
        // hoists their shared count at the root of the demux trie.
        let idl = r"
            typedef sequence<long> Ints;
            interface S { void put_a(in Ints a); void put_b(in Ints b); };
        ";
        let (mir, p) = full(idl, "S");
        let enc = Encoding::xdr();
        verify(&mir, &p.stubs, &enc).expect("clean plans verify");
        let Demux::Trie(root) = &mir.demux else {
            panic!("word-wise demux expected");
        };
        assert_eq!(
            root.prefix,
            vec![PrefixStep::LenU32],
            "merge-prefix hoists the shared count at the root"
        );

        // Nesting: a descendant repeating the hoist would make every
        // arm below consume the count twice.
        let mut bad = mir.clone();
        fn mark_first_descendant(n: &mut DemuxNode) -> bool {
            for (_, arm) in &mut n.arms {
                if let DemuxArm::Descend(child) = arm {
                    child.prefix = vec![PrefixStep::LenU32];
                    return true;
                }
            }
            false
        }
        let Demux::Trie(root) = &mut bad.demux else {
            unreachable!()
        };
        assert!(mark_first_descendant(root), "put_* share a word prefix");
        assert!(verify(&bad, &p.stubs, &enc)
            .unwrap_err()
            .contains("nested hoisted prefixes"));

        // Typed-descriptor encodings interleave descriptors with the
        // data, so no shared count ever leads the body.
        assert!(verify(&mir, &p.stubs, &Encoding::mach3())
            .unwrap_err()
            .contains("typed-descriptor encoding"));

        // A hoist above an operation that does not lead with a count
        // (here: a later rewrite replaced the leading counted array).
        let mut bad = mir.clone();
        bad.stubs[0].request.slots[0].node = PlanNode::Prim {
            prim: crate::encoding::WirePrim {
                size: 4,
                slot: 4,
                align: 4,
                order: crate::encoding::Order::Big,
                signed: true,
                float: false,
            },
        };
        assert!(verify(&bad, &p.stubs, &enc)
            .unwrap_err()
            .contains("does not begin with an aligned u32 count"));
    }
}
