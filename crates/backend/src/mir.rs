//! The marshal MIR: the IR on which Flick's optimizations run.
//!
//! Lowering (`crate::plan`) turns each stub's PRES trees into naive
//! [`PlanNode`] trees; the pass pipeline (`crate::passes`) then
//! rewrites them so that the *shape records the optimization
//! decisions*:
//!
//! * a fixed-layout region that packs becomes one [`PlanNode::Packed`]
//!   chunk (§3.2 chunking — constant-offset accesses, one space
//!   decision);
//! * an atomic array whose elements tile the wire becomes a
//!   [`PlanNode::MemcpyArray`] run (§3.2 data copying) — a block copy
//!   in native byte order, one swap-copy otherwise — and a counted
//!   array of fixed-size chunks is marked *strided* (one space check
//!   and one alignment for the whole array), then an *image run* when
//!   the element's presented struct is its own wire image;
//! * whole-message and per-region space requirements are classified
//!   (§3.1) so emitters hoist their buffer checks;
//! * recursion — and, when the inline pass is off, every named
//!   aggregate — is routed through an out-of-line function
//!   ([`PlanNode::Outline`], §3.3).
//!
//! Emitters walk these trees twice per stub, once in the encode
//! direction and once in decode.
//!
//! A plan stands alone: lowering copies into it every fact of the
//! presentation that a pass, the verifier, an emitter or the plan
//! cache reads — wire forms, bounds, names, the C half of the image
//! predicate — so nothing downstream of `crate::plan` looks back into
//! the presentation's node arena, and a plan can be cloned, cached and
//! compared as it is.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use flick_pres::{Name, OpInfo, StubKind};

use crate::encoding::{StringWire, WirePrim};
use crate::layout::{CImage, Packed, SizeClass};

/// A planned conversion for one value.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanNode {
    /// Nothing to marshal.
    Void,
    /// A single scalar (on a typed encoding the emitter writes its
    /// descriptor word first).
    Prim {
        /// Wire form.
        prim: WirePrim,
    },
    /// An enum, wire-encoded as u32.
    Enum {
        /// Wire form of the discriminating integer.
        prim: WirePrim,
    },
    /// A packed fixed-layout region accessed through a chunk pointer.
    Packed {
        /// The computed layout.
        layout: Packed,
        /// The struct or fixed array the chunk replaced, outline calls
        /// expanded: its scalar leaves are `layout.items` in order, and
        /// its types are the presented ones.  Never rewritten once
        /// formed, so copies of the plan share it.
        region: Arc<PlanNode>,
    },
    /// An array of scalars that tile the wire (`slot == size`),
    /// marshaled as one *run*: a block copy when `prim.order` is the
    /// host's, a single swap-copy (a *swizzle run*) when it is not.
    MemcpyArray {
        /// Element wire form.
        prim: WirePrim,
        /// The `(length, buffer)` member names of the counted
        /// representation a counted run came from (C emission).
        fields: Option<(Name, Name)>,
        /// Static element count for fixed arrays; `None` for counted.
        fixed_len: Option<u64>,
        /// Declared bound for counted arrays.
        bound: Option<u64>,
        /// Whether a count prefix travels before the data (the trailing
        /// pad, if any, is the encoding's: [`crate::Encoding::pad_after`]).
        counted: bool,
    },
    /// A string (counted char data).
    String {
        /// Declared bound, if any.
        bound: Option<u64>,
        /// Wire convention (the pad after XDR's bytes is the
        /// encoding's).
        style: StringWire,
        /// Whether the receive side may borrow from the buffer (§3.1
        /// parameter management; set only for server `in` data).
        borrow_ok: bool,
    },
    /// A counted array marshaled element by element.
    CountedArray {
        /// Declared bound, if any.
        bound: Option<u64>,
        /// Per-element plan.
        elem: Box<PlanNode>,
        /// Size class of one element (drives check hoisting: a fixed
        /// element lets the emitter `ensure(count * size)` once).
        elem_class: SizeClass,
        /// The presentation half of the image predicate, answered by
        /// lowering: the C layout of the element's presented struct,
        /// when it is integers and floats with no padding.
        c_image: Option<CImage>,
        /// Rust/C element type name.
        elem_type: Name,
        /// The `(length, buffer)` member names of the counted
        /// representation (C emission).
        fields: (Name, Name),
        /// Set by `form-chunks` when the element is one fixed-size
        /// [`PlanNode::Packed`] chunk whose size is a multiple of its
        /// alignment: consecutive elements then tile the wire, so the
        /// Rust emitter does one space check, one truncation check and
        /// one alignment for the whole array and advances the chunk
        /// pointer by a constant stride.
        strided: bool,
        /// Set by `coalesce-memcpy` on a strided array whose element
        /// struct *is* its wire image ([`crate::layout::wire_image`]):
        /// the array is then an *image run*, moved like a
        /// [`PlanNode::MemcpyArray`] — one block copy when this is
        /// `Some(1)`, one swap-copy of `Some(w)`-byte scalars when the
        /// wire's byte order is foreign.  The C emitter ignores it.
        image: Option<u8>,
    },
    /// A fixed array marshaled element by element (used when the
    /// element is variable-size, or when chunking is disabled).
    FixedArray {
        /// Element count.
        len: u64,
        /// Per-element plan.
        elem: Box<PlanNode>,
        /// Element type name.
        elem_type: Name,
    },
    /// A struct marshaled member by member (variable-size members, or
    /// chunking disabled).
    Struct {
        /// Presented type name.
        type_name: Name,
        /// `(member name, plan)` in order.
        fields: Vec<(Name, PlanNode)>,
    },
    /// A discriminated union.
    Union {
        /// Presented type name.
        type_name: Name,
        /// Discriminator wire form.
        disc_prim: WirePrim,
        /// `(label, member name, plan)` arms.
        cases: Vec<(i64, Name, PlanNode)>,
        /// Default arm.
        default: Option<(Name, Box<PlanNode>)>,
    },
    /// ONC optional data: a presence flag then the value.
    Optional {
        /// Wire form of the presence flag.
        flag: WirePrim,
        /// Pointee plan.
        elem: Box<PlanNode>,
        /// Pointee type name.
        elem_type: Name,
    },
    /// Marshal via an out-of-line function (recursion, or inlining
    /// disabled).
    Outline {
        /// Key into [`StubPlans::outlines`].
        key: Name,
    },
}

impl PlanNode {
    /// The wire form of a single scalar (a [`PlanNode::Prim`] or an
    /// [`PlanNode::Enum`]); `None` for anything else.
    #[must_use]
    pub(crate) fn scalar(&self) -> Option<WirePrim> {
        match *self {
            PlanNode::Prim { prim } | PlanNode::Enum { prim } => Some(prim),
            _ => None,
        }
    }

    /// The bytes every value of this plan occupies on a word-oriented
    /// wire (XDR, Fluke), when that is one number and the bytes can be
    /// replayed elsewhere: a scalar's slot or a chunk's size.
    #[must_use]
    pub(crate) fn fixed_wire_size(&self) -> Option<u64> {
        match self {
            PlanNode::Prim { prim } | PlanNode::Enum { prim } => Some(u64::from(prim.slot)),
            PlanNode::Packed { layout, .. } => Some(layout.size),
            _ => None,
        }
    }

    /// The plans directly beneath this one, in marshal order.
    pub(crate) fn children(&self) -> impl Iterator<Item = &PlanNode> {
        type Parts<'a> = (
            &'a [(Name, PlanNode)],
            &'a [(i64, Name, PlanNode)],
            Option<&'a PlanNode>,
        );
        let (fields, cases, last): Parts = match self {
            PlanNode::Struct { fields, .. } => (fields, &[], None),
            PlanNode::Union { cases, default, .. } => {
                (&[], cases, default.as_ref().map(|(_, d)| &**d))
            }
            PlanNode::CountedArray { elem, .. }
            | PlanNode::FixedArray { elem, .. }
            | PlanNode::Optional { elem, .. } => (&[], &[], Some(&**elem)),
            _ => (&[], &[], None),
        };
        let fields = fields.iter().map(|(_, f)| f);
        fields.chain(cases.iter().map(|(_, _, c)| c)).chain(last)
    }

    /// A lower bound on the bytes one encoded value of this plan
    /// occupies (alignment padding and type descriptors not counted).
    /// Decoders divide the bytes actually present by this to cap the
    /// capacity a wire-supplied element count may reserve, so it must
    /// never overestimate: variable parts count as empty.
    #[must_use]
    pub fn min_wire_size(&self, outlines: &BTreeMap<Name, PlanNode>) -> u64 {
        self.min_size_guarded(outlines, &mut Vec::new())
    }

    fn min_size_guarded<'a>(
        &'a self,
        outlines: &'a BTreeMap<Name, PlanNode>,
        visiting: &mut Vec<&'a str>,
    ) -> u64 {
        match self {
            PlanNode::Void => 0,
            PlanNode::Prim { prim, .. } | PlanNode::Enum { prim } => u64::from(prim.slot),
            PlanNode::Packed { layout, .. } => layout.size,
            PlanNode::MemcpyArray {
                prim, fixed_len, ..
            } => match fixed_len {
                Some(n) => n * u64::from(prim.size),
                None => 4,
            },
            PlanNode::String { style, .. } => match style {
                StringWire::CountedPadded => 4,
                StringWire::CountedNul => 5,
            },
            PlanNode::CountedArray { .. } => 4,
            PlanNode::FixedArray { len, elem, .. } => {
                len * elem.min_size_guarded(outlines, visiting)
            }
            PlanNode::Struct { fields, .. } => fields
                .iter()
                .map(|(_, f)| f.min_size_guarded(outlines, visiting))
                .sum(),
            PlanNode::Union {
                disc_prim,
                cases,
                default,
                ..
            } => {
                let arms = cases
                    .iter()
                    .map(|(_, _, c)| c)
                    .chain(default.iter().map(|(_, d)| &**d));
                u64::from(disc_prim.slot)
                    + arms
                        .map(|a| a.min_size_guarded(outlines, visiting))
                        .min()
                        .unwrap_or(0)
            }
            // The presence flag; an absent pointee adds nothing.
            PlanNode::Optional { .. } => 1,
            PlanNode::Outline { key } => {
                // A body already on the walk is a recursive reference:
                // it adds nothing to the bound.
                if visiting.contains(&key.as_str()) {
                    return 0;
                }
                let Some(body) = outlines.get(key.as_str()) else {
                    return 0;
                };
                visiting.push(key);
                let n = body.min_size_guarded(outlines, visiting);
                visiting.pop();
                n
            }
        }
    }
}

/// Plan for one message direction of one stub.
#[derive(Clone, Debug)]
pub struct MsgPlan {
    /// Whole-message size class (§3.1) — includes the operation
    /// discriminator and every slot, excludes transport headers.
    /// Computed by the `classify-storage` pass.
    pub class: SizeClass,
    /// Whole-message space check hoisted by the `hoist-checks` pass:
    /// `Some(n)` means the sender performs one `ensure(n)` up front
    /// (fixed messages always hoist; bounded ones only under the
    /// threshold).
    pub hoisted: Option<u64>,
    /// Like [`MsgPlan::hoisted`] but capped at the bounded threshold
    /// even for fixed messages — the conservative form used where a
    /// fixed-but-huge message must not pre-reserve (the C client
    /// stubs; the Rust dispatcher writes replies through the message's
    /// encoder, which uses `hoisted`).
    pub hoisted_capped: Option<u64>,
    /// Set by `hoist-checks` where no static check is hoisted but the
    /// body's size is a cheap function of its values
    /// ([`crate::layout::sized_by_value`]): the Rust encoder reserves
    /// it at run time, once, before the first byte — the constant part
    /// plus its strings' and arrays' lengths, derived at emission.
    pub by_value: bool,
    /// Per-slot plans, in marshal order.
    pub slots: Vec<SlotPlan>,
}

/// Where a slot's decoded presentation lives relative to the call.
///
/// Lowering marks everything [`SlotStorage::Owned`]; the `reuse-slots`
/// pass upgrades slots whose whole conversion tree can be presented
/// out of per-call pooled storage (request slots presented in the
/// receive buffer, aliased reply slots answered from request bytes) to
/// [`SlotStorage::Arena`].  Emitters key their zero-allocation forms
/// (borrowed bindings, request-byte replies) off this class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SlotStorage {
    /// The presented value owns heap storage that outlives the call.
    #[default]
    Owned,
    /// The presented value lives in per-call arena storage (the
    /// receive buffer or the pooled reply buffer) and must not escape
    /// the call.
    Arena,
}

/// Plan for one bound value of a message.
#[derive(Clone, Debug)]
pub struct SlotPlan {
    /// The C/Rust-level name the slot binds to.
    pub name: Name,
    /// Whether the C stub receives it through a pointer.
    pub by_ref: bool,
    /// False when the presentation never surfaces this slot in the
    /// generated signature.  Lowering copies the binding's liveness;
    /// the `dead-slot` pass removes dead slots (emitters encode a
    /// zero fill / decode-and-discard while the pass is off).
    pub live: bool,
    /// `Some(i)` when the `reply-alias` pass proved this *reply* slot
    /// byte-identical to request slot `i` whenever the server echoes
    /// the value unchanged: the server declares mutation through the
    /// `Echoed` copy-on-write contract and the emitter answers
    /// `Unchanged` with the request's own bytes — no re-marshal, no
    /// runtime compare.
    pub alias: Option<usize>,
    /// Storage class assigned by the `reuse-slots` pass.
    pub storage: SlotStorage,
    /// The conversion tree.
    pub node: PlanNode,
}

/// The full plan for one stub.
#[derive(Clone, Debug)]
pub struct StubPlan {
    /// Stub (function) name: the presentation's declared C name,
    /// shared, not copied.
    pub name: Name,
    /// Stub role.
    pub kind: StubKind,
    /// Operation metadata (request code, wire name, oneway).
    pub op: OpInfo,
    /// Request-direction plan.
    pub request: MsgPlan,
    /// Reply-direction plan.
    pub reply: MsgPlan,
}

/// The server-side string demultiplexing strategy, built by the
/// `demux-switch` pass (§3.4): either a per-name comparison chain or a
/// word-wise discrimination trie.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Demux {
    /// Compare the whole operation name per stub, in stub order.
    Linear,
    /// Switch on 4-byte words of the operation name.
    Trie(DemuxNode),
}

/// One word-switch level of the demux trie.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DemuxNode {
    /// Which 4-byte word of the name this level switches on.
    pub word: usize,
    /// `(word value, arm)` in ascending word-value order.
    pub arms: Vec<(u32, DemuxArm)>,
    /// Unmarshal steps common to *every* operation reachable from this
    /// node, hoisted by the `merge-prefix` pass so the dispatcher
    /// decodes the shared bytes once instead of per arm.
    pub prefix: Vec<PrefixStep>,
}

/// One hoisted unmarshal step of a merged dispatch prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrefixStep {
    /// An aligned u32 length/count word (the count prefix of a counted
    /// array, memcpy run, or string) — every arm's first slot starts
    /// with one, so the switch reads it once and hands it down.
    LenU32,
}

/// What a matched word leads to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DemuxArm {
    /// A unique operation (wire name) — dispatch after a length check.
    Op(Name),
    /// More than one name shares this prefix: switch on the next word.
    Descend(DemuxNode),
}

/// Plans for every stub of a presentation, plus shared out-of-line
/// marshal functions and the module-wide decisions the pass pipeline
/// made.
#[derive(Clone, Debug)]
pub struct StubPlans {
    /// Per-stub plans in presentation order.
    pub stubs: Vec<StubPlan>,
    /// Out-of-line marshal bodies by key (type name).
    pub outlines: BTreeMap<Name, PlanNode>,
    /// Whether the `hoist-checks` pass ran (emitters fall back to
    /// per-datum space checks when false).
    pub hoist: bool,
    /// Whether the `coalesce-memcpy` pass ran (also governs block
    /// copies inside packed chunks).
    pub memcpy: bool,
    /// String-demux strategy chosen by the `demux-switch` pass.
    pub demux: Demux,
}

/// Optimizer decision counts for one presentation's plans — the §3
/// choices, tallied so `flickc --stats` can show what the optimizer
/// actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Stubs planned.
    pub stubs: u64,
    /// Total plan nodes across all stubs and outlines.
    pub plan_nodes: u64,
    /// Fixed-layout regions turned into chunks (§3.2 chunking).
    pub packed_chunks: u64,
    /// Scalar runs turned into block copies (§3.2 data copying).
    pub memcpy_runs: u64,
    /// `Outline` call sites (recursion, or inlining disabled).
    pub outline_calls: u64,
    /// Distinct out-of-line marshal bodies.
    pub outline_fns: u64,
    /// Messages whose space check hoists to one `ensure` (§3.1 —
    /// whole-message size class is fixed or bounded).
    pub hoisted_checks: u64,
    /// Deepest inlined aggregate nesting in any plan tree.
    pub max_inline_depth: u64,
    /// Reply slots aliased to request storage (`reply-alias`).
    pub aliased_replies: u64,
    /// Unmarshal steps hoisted into demux-trie nodes (`merge-prefix`).
    pub merged_prefix_steps: u64,
    /// Slots classified arena-resident by the `reuse-slots` pass.
    pub arena_slots: u64,
    /// Memcpy runs in a foreign byte order (one swap-copy each).
    pub swizzle_runs: u64,
    /// Counted arrays marked strided by `form-chunks`.
    pub strided_arrays: u64,
}

impl PlanStats {
    /// Tallies the decisions recorded in `plans`.
    #[must_use]
    pub fn of(plans: &StubPlans) -> PlanStats {
        let mut s = PlanStats {
            stubs: plans.stubs.len() as u64,
            ..PlanStats::default()
        };
        s.outline_fns = plans.outlines.len() as u64;
        for stub in &plans.stubs {
            for msg in [&stub.request, &stub.reply] {
                if !matches!(msg.class, SizeClass::Unbounded) {
                    s.hoisted_checks += 1;
                }
                for slot in &msg.slots {
                    s.walk(&slot.node, 0);
                    if slot.storage == SlotStorage::Arena {
                        s.arena_slots += 1;
                    }
                }
            }
            s.aliased_replies += stub
                .reply
                .slots
                .iter()
                .filter(|s| s.alias.is_some())
                .count() as u64;
        }
        for body in plans.outlines.values() {
            s.walk(body, 0);
        }
        if let Demux::Trie(root) = &plans.demux {
            s.count_prefix(root);
        }
        s
    }

    fn count_prefix(&mut self, node: &DemuxNode) {
        self.merged_prefix_steps += node.prefix.len() as u64;
        for (_, arm) in &node.arms {
            if let DemuxArm::Descend(child) = arm {
                self.count_prefix(child);
            }
        }
    }

    fn walk(&mut self, node: &PlanNode, depth: u64) {
        self.plan_nodes += 1;
        self.max_inline_depth = self.max_inline_depth.max(depth);
        match node {
            PlanNode::Packed { .. } => self.packed_chunks += 1,
            PlanNode::MemcpyArray { prim, .. } => {
                self.memcpy_runs += 1;
                self.swizzle_runs += u64::from(!prim.memcpy_compatible(prim.size));
            }
            PlanNode::Outline { .. } => self.outline_calls += 1,
            PlanNode::CountedArray { strided, .. } => {
                self.strided_arrays += u64::from(*strided);
            }
            _ => {}
        }
        for child in node.children() {
            self.walk(child, depth + 1);
        }
    }
}

pub(crate) type PlanResult<T> = Result<T, String>;

/// True if `plan` contains an `Outline` referencing `key` (detects
/// recursive self-references that force the out-of-line form).
pub(crate) fn plan_references_outline(plan: &PlanNode, key: &str) -> bool {
    match plan {
        PlanNode::Outline { key: k } => k == key,
        _ => plan.children().any(|c| plan_references_outline(c, key)),
    }
}

/// Applies `f` to every direct child plan of `node` (passes use this
/// to recurse without re-listing the aggregate arms each time).
pub(crate) fn for_each_child(node: &mut PlanNode, mut f: impl FnMut(&mut PlanNode)) {
    match node {
        PlanNode::Struct { fields, .. } => {
            for (_, c) in fields {
                f(c);
            }
        }
        PlanNode::Union { cases, default, .. } => {
            for (_, _, c) in cases {
                f(c);
            }
            if let Some((_, d)) = default {
                f(d);
            }
        }
        PlanNode::CountedArray { elem, .. }
        | PlanNode::FixedArray { elem, .. }
        | PlanNode::Optional { elem, .. } => f(elem),
        _ => {}
    }
}

/// Applies `f` to every root plan tree of `mir`: each slot of each
/// message, then each outline body.
pub(crate) fn for_each_root(mir: &mut StubPlans, mut f: impl FnMut(&mut PlanNode)) {
    for stub in &mut mir.stubs {
        for msg in [&mut stub.request, &mut stub.reply] {
            for slot in &mut msg.slots {
                f(&mut slot.node);
            }
        }
    }
    for body in mir.outlines.values_mut() {
        f(body);
    }
}

/// The Rust spelling of a presented scalar C type (shared between the
/// planner and the Rust emitter).
#[must_use]
pub fn rust_prim_name(c: &flick_cast::CType) -> &'static str {
    use flick_cast::CType;
    match c {
        CType::Char => "u8",
        CType::SChar => "i8",
        CType::UChar => "u8",
        CType::Short => "i16",
        CType::UShort => "u16",
        CType::Int => "i32",
        CType::UInt => "u32",
        CType::Long => "i64",
        CType::ULong => "u64",
        CType::LongLong => "i64",
        CType::ULongLong => "u64",
        CType::Float => "f32",
        CType::Double => "f64",
        _ => "u8",
    }
}

/// A human-readable rendering of the MIR for `--dump-mir`.
#[must_use]
pub fn dump(mir: &StubPlans) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "mir {{ stubs: {}, outlines: {}, hoist: {}, memcpy: {}, demux: {} }}",
        mir.stubs.len(),
        mir.outlines.len(),
        mir.hoist,
        mir.memcpy,
        match mir.demux {
            Demux::Linear => "linear",
            Demux::Trie(_) => "trie",
        }
    );
    for stub in &mir.stubs {
        let _ = writeln!(
            out,
            "stub {} ({:?}, op {} \"{}\"):",
            stub.name, stub.kind, stub.op.request_code, stub.op.wire_name
        );
        for (dir, msg) in [("request", &stub.request), ("reply", &stub.reply)] {
            let _ = writeln!(
                out,
                "  {dir} class={:?} hoisted={:?} capped={:?}{}",
                msg.class,
                msg.hoisted,
                msg.hoisted_capped,
                if msg.by_value { " by_value" } else { "" }
            );
            for slot in &msg.slots {
                let mut marks = String::new();
                if slot.by_ref {
                    marks.push_str(" (by ref)");
                }
                if !slot.live {
                    marks.push_str(" (dead)");
                }
                if let Some(i) = slot.alias {
                    let _ = write!(marks, " (alias request[{i}])");
                }
                if slot.storage == SlotStorage::Arena {
                    marks.push_str(" (arena)");
                }
                let _ = writeln!(out, "    slot {}{}:", slot.name, marks);
                dump_node(&mut out, &slot.node, 3);
            }
        }
    }
    if let Demux::Trie(root) = &mir.demux {
        dump_trie(&mut out, root, 0);
    }
    for (key, body) in &mir.outlines {
        let _ = writeln!(out, "outline {key}:");
        dump_node(&mut out, body, 1);
    }
    out
}

fn dump_trie(out: &mut String, node: &DemuxNode, depth: usize) {
    let pad = "  ".repeat(depth);
    let prefix = if node.prefix.is_empty() {
        String::new()
    } else {
        format!(
            " prefix=[{}]",
            node.prefix
                .iter()
                .map(|s| match s {
                    PrefixStep::LenU32 => "len-u32",
                })
                .collect::<Vec<_>>()
                .join(", ")
        )
    };
    let _ = writeln!(out, "{pad}trie word {}{prefix}:", node.word);
    for (value, arm) in &node.arms {
        match arm {
            DemuxArm::Op(name) => {
                let _ = writeln!(out, "{pad}  0x{value:08x} -> op \"{name}\"");
            }
            DemuxArm::Descend(child) => {
                let _ = writeln!(out, "{pad}  0x{value:08x} ->");
                dump_trie(out, child, depth + 2);
            }
        }
    }
}

fn dump_node(out: &mut String, node: &PlanNode, depth: usize) {
    let pad = "  ".repeat(depth);
    let line: String = match node {
        PlanNode::Void => "void".into(),
        PlanNode::Prim { prim } => format!("prim {prim:?}"),
        PlanNode::Enum { prim } => format!("enum {prim:?}"),
        PlanNode::Packed { layout, region } => format!(
            "packed size={} align={} items={} type={}",
            layout.size,
            layout.align,
            layout.items.len(),
            match &**region {
                PlanNode::Struct { type_name, .. } => type_name,
                _ => "<anon>",
            }
        ),
        PlanNode::MemcpyArray {
            prim,
            fixed_len,
            bound,
            counted,
            ..
        } => format!(
            "memcpy-array elem={prim:?} fixed_len={fixed_len:?} bound={bound:?} counted={counted}"
        ),
        PlanNode::String {
            bound,
            style,
            borrow_ok,
            ..
        } => {
            format!("string bound={bound:?} style={style:?} borrow_ok={borrow_ok}")
        }
        PlanNode::CountedArray {
            bound,
            elem_class,
            elem_type,
            strided,
            image,
            ..
        } => format!(
            "counted-array bound={bound:?} elem_class={elem_class:?} elem={elem_type}{}{}",
            if *strided { " strided" } else { "" },
            match image {
                None => String::new(),
                Some(1) => " image-run".to_string(),
                Some(w) => format!(" image-run swap={w}"),
            }
        ),
        PlanNode::FixedArray { len, elem_type, .. } => {
            format!("fixed-array len={len} elem={elem_type}")
        }
        PlanNode::Struct {
            type_name, fields, ..
        } => {
            format!("struct {type_name} fields={}", fields.len())
        }
        PlanNode::Union {
            type_name,
            cases,
            default,
            ..
        } => format!(
            "union {type_name} cases={} default={}",
            cases.len(),
            default.is_some()
        ),
        PlanNode::Optional { elem_type, .. } => format!("optional elem={elem_type}"),
        PlanNode::Outline { key } => format!("outline-call {key}"),
    };
    let _ = writeln!(out, "{pad}{line}");
    match node {
        PlanNode::Struct { fields, .. } => {
            for (name, f) in fields {
                let _ = writeln!(out, "{pad}  .{name}:");
                dump_node(out, f, depth + 2);
            }
        }
        PlanNode::Union { cases, default, .. } => {
            for (v, name, c) in cases {
                let _ = writeln!(out, "{pad}  case {v} ({name}):");
                dump_node(out, c, depth + 2);
            }
            if let Some((name, d)) = default {
                let _ = writeln!(out, "{pad}  default ({name}):");
                dump_node(out, d, depth + 2);
            }
        }
        PlanNode::CountedArray { elem, .. }
        | PlanNode::FixedArray { elem, .. }
        | PlanNode::Optional { elem, .. } => dump_node(out, elem, depth + 1),
        _ => {}
    }
}
