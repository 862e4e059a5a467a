//! The Rust stub emitter: marshal plans → executable Rust source.
//!
//! The paper's back ends emit C; this emitter targets Rust against
//! `flick-runtime` so the benchmark harness can *execute* the exact
//! code the optimizer planned.  The same [`PlanNode`] trees drive both
//! emitters, so the optimization decisions — hoisted `ensure`s,
//! chunked constant-offset stores, `memcpy` runs, inlined bodies,
//! word-wise demultiplexing switches — appear identically in both
//! outputs.
//!
//! Generated module shape (per presentation × back end):
//!
//! * presented Rust types (structs/enums mirroring the C presentation);
//! * `encode_<op>_request` / `decode_<op>_request` and the reply pair
//!   for every operation;
//! * out-of-line `marshal_<T>` / `unmarshal_<T>` functions for
//!   recursive types (and for everything when inlining is off);
//! * a `Server` trait plus one dispatcher, on the discriminator the
//!   transport puts on the wire (§3.3): `dispatch_by_name`, the
//!   word-wise switch on the GIOP operation name, under CDR, and
//!   `dispatch`, on the ONC procedure number or Mach message id,
//!   under every other encoding.  An arm calls its operation's
//!   always-inlined message functions (under a `merge-prefix` count
//!   it decodes in line);
//! * the robust server entry that calls it (`handle_message` for
//!   GIOP, `handle_call` for ONC) and ONC's `call_<op>` client stubs.
//!
//! The emitter is a writer (see [`crate::writer`]): the plan and every
//! name in it are borrowed, never cloned, and text goes straight into
//! the one output buffer.  Everything it writes is read off the plan;
//! of the presentation it reads only the module's names.
//!
//! Alignment is decided at compile time wherever the offset is known.
//! The encode and decode walks carry a [`Cursor`] — where the stream
//! stands relative to the message's `_base`, modulo up to 8 — and ask
//! it before every alignment: a provable no-op is not written, a known
//! pad is a constant `put_zeros` / `skip`, and only an unknown offset
//! is aligned at run time (`align_from(_base, k)`).  A function left
//! with no run-time alignment drops its `_base` binding.  Out-of-line
//! bodies take the caller's `_base` as a parameter.  The gateway
//! emitter shares the wire accessors but not the cursor: it keeps
//! every alignment.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashSet};

use flick_pres::{Name, PresC};

use crate::encoding::{Encoding, Order, StringWire, WirePrim};
use crate::layout::{described, run_align, Align, Cursor, PackedItem, SizeClass, ValPath};
use crate::mir::{Demux, DemuxArm, DemuxNode, PrefixStep, SlotPlan, SlotStorage};
use crate::passes::reply_alias_echoed_range as echoed_range;
use crate::plan::{MsgPlan, PlanNode, StubPlan, StubPlans};
use crate::writer::{open, put, CodeWriter, Piece, Show, Tmp};
use crate::BackEnd;

/// Emits the complete Rust module for the optimized MIR `full` under
/// `be`.
///
/// # Errors
/// Returns a message for constructs the Rust emitter cannot express.
pub fn emit(presc: &PresC, full: &StubPlans, be: &BackEnd) -> Result<String, String> {
    let types = Types::collect(full);
    let mut e = Emitter {
        presc,
        be,
        full,
        types: &types,
        w: CodeWriter::with_capacity(size_hint(full, &be.encoding)),
        vals: Vec::new(),
        prefetched_len: None,
        cur: Cursor::UNKNOWN,
        base_used: false,
        described: false,
    };
    e.module()?;
    Ok(e.w.finish())
}

struct Emitter<'a> {
    /// The presentation, for the module's names.
    presc: &'a PresC,
    be: &'a BackEnd,
    /// The module's plans: stubs, out-of-line bodies (capacity guards
    /// size elements through them), which passes ran.
    full: &'a StubPlans,
    types: &'a Types<'a>,
    w: CodeWriter,
    /// The locals an aggregate being decoded has bound so far, a stack:
    /// each aggregate pushes its parts' and pops them into the line
    /// that builds it.
    vals: Vec<Tmp>,
    /// Local holding a count the `merge-prefix` pass hoisted above the
    /// dispatch switch; the next length-prefix read consumes it
    /// instead of re-reading the wire.
    prefetched_len: Option<Tmp>,
    /// Where the walk stands relative to `_base`: what the static-offset
    /// analysis knows at the next byte written or read.
    cur: Cursor,
    /// Whether the innermost `_base` binding has been read by an
    /// alignment computed at run time (see [`Emitter::bind_base`]).
    base_used: bool,
    /// Inside the elements of a Mach 3 array of scalars, whose one
    /// descriptor describes them all ([`layout::described`]).
    described: bool,
}

/// An open `let _base` binding: where its line is, and what the
/// binding it shadows had been used for.
struct BaseScope {
    line: Option<(usize, usize)>,
    outer_used: bool,
}

/// The Rust spelling of a wire primitive's presented value.
pub(crate) fn prim_rust_ty(p: WirePrim) -> &'static str {
    if p.float {
        return if p.size == 4 { "f32" } else { "f64" };
    }
    match (p.size, p.signed) {
        (1, true) => "i8",
        (1, false) => "u8",
        (2, true) => "i16",
        (2, false) => "u16",
        (4, true) => "i32",
        (4, false) => "u32",
        (8, true) => "i64",
        _ => "u64",
    }
}

pub(crate) fn sfx(order: Order) -> &'static str {
    match order {
        Order::Big => "be",
        Order::Little => "le",
    }
}

/// The zero literal of a scalar Rust type.
struct Zero(&'static str);

impl Piece for Zero {
    fn write(&self, out: &mut String) {
        match self.0 {
            "f32" => out.push_str("0.0f32"),
            "f64" => out.push_str("0.0f64"),
            t => {
                out.push('0');
                out.push_str(t);
            }
        }
    }
}

/// A union member's name as its enum variant: first letter upper-cased.
#[derive(Clone, Copy)]
struct Variant<'a>(&'a str);

impl<'a> Variant<'a> {
    fn chars(self) -> impl Iterator<Item = char> + 'a {
        let mut rest = if self.0.is_empty() { "Arm" } else { self.0 }.chars();
        let first = rest.next().into_iter().flat_map(char::to_uppercase);
        first.chain(rest)
    }

    /// Multi-label arms (`case 1: case 2: long cool;`) share one
    /// variant: true when an arm before `cases[i]` already named it.
    fn repeats(cases: &'a [(i64, Name, PlanNode)], i: usize) -> bool {
        let this = Variant(&cases[i].1);
        cases[..i]
            .iter()
            .any(|(_, name, _)| Variant(name).chars().eq(this.chars()))
    }
}

impl Piece for Variant<'_> {
    fn write(&self, out: &mut String) {
        out.extend(self.chars());
    }
}

/// `base` followed by the member and index steps of `path`.
#[derive(Clone, Copy)]
struct Path<'e>(&'e dyn Piece, &'e ValPath);

impl Piece for Path<'_> {
    fn write(&self, out: &mut String) {
        match self.1 {
            ValPath::Root => self.0.write(out),
            ValPath::Field(p, name) => (Path(self.0, p), ".", name).write(out),
            ValPath::Index(p, i) => (Path(self.0, p), "[", i, "]").write(out),
        }
    }
}

// ================= wire accessors =================
//
// The one Rust spelling of each wire operation, shared with the
// gateway emitter.  A stub writes `buf` and reads `r`, aligning both
// against `_base` where its cursor does not know the offset; a gateway
// writes `dst` against `_db` and reads `r` against `_sb`, always.
// Pads are not accessors: a stub pads to its stream's
// offset (`align_to`), a gateway by the count it read (`put_zeros`),
// since its target offset need not be its source's.

/// The accessor width of a primitive's slot (`get_`/`put_` + width).
fn width(p: WirePrim) -> &'static str {
    match (p.float, p.slot) {
        (true, _) if p.size == 4 => "u32",
        (true, _) => "u64",
        (false, 1) => "u8",
        (false, 2) => "u16",
        (false, 4) => "u32",
        _ => "u64",
    }
}

/// True for a signed value widened into a 4-byte slot, which
/// sign-extends through `i32`.
fn widened_signed(p: WirePrim) -> bool {
    !p.float && p.slot == 4 && p.size < 4 && p.signed
}

/// The expression that reads one wire primitive as its presented
/// type: the next one off the reader `r`, or the one at (chunk,
/// offset) of a chunk.
pub(crate) struct Get<'e>(pub WirePrim, pub Option<(Tmp, &'e dyn Piece)>);

impl Piece for Get<'_> {
    fn write(&self, out: &mut String) {
        let Get(p, at) = *self;
        let width = width(p);
        if p.float {
            (prim_rust_ty(p), "::from_bits(").write(out);
        }
        match at {
            Some((c, _)) => (c, ".get_", width).write(out),
            None => ("r.get_", width).write(out),
        }
        if width != "u8" {
            ("_", sfx(p.order)).write(out);
        }
        match at {
            Some((_, off)) => ("_at(", off, ")").write(out),
            None => out.push_str("()?"),
        }
        if p.float {
            out.push(')');
        } else if widened_signed(p) {
            (" as i32 as ", prim_rust_ty(p)).write(out);
        } else {
            (" as ", prim_rust_ty(p)).write(out);
        }
    }
}

/// The statement that stores presented value `.3` as `.0`: appended
/// to the stream `.1` (`buf`, `dst`), or, given an offset `.2`, at that
/// offset of the chunk `.1`.
pub(crate) struct Put<'e>(
    pub WirePrim,
    pub &'e dyn Piece,
    pub Option<&'e dyn Piece>,
    pub &'e dyn Piece,
);

impl Piece for Put<'_> {
    fn write(&self, out: &mut String) {
        let Put(p, to, at, v) = *self;
        let width = width(p);
        (to, ".put_", width).write(out);
        if width != "u8" {
            ("_", sfx(p.order)).write(out);
        }
        match at {
            Some(off) => ("_at(", off, ", (", v).write(out),
            None => ("((", v).write(out),
        }
        if p.float {
            out.push_str(").to_bits());");
        } else if widened_signed(p) {
            out.push_str(") as i32 as u32);");
        } else {
            (") as ", width, ");").write(out);
        }
    }
}

/// Stores the count prefix `len` on the stream `s`.
pub(crate) fn put_len(w: &mut CodeWriter, enc: &Encoding, s: &str, len: &dyn Piece) {
    let order = sfx(enc.len_prefix().order);
    put!(w; s, ".put_u32_", order, "(", len, " as u32);");
}

/// Stores string `v` on the stream `s`: its count, its bytes and, where
/// the count includes one, its NUL.  Returns the unit of the pad a
/// padded string still owes, which is the caller's (see above).
pub(crate) fn put_str(w: &mut CodeWriter, enc: &Encoding, s: &str, v: &dyn Piece) -> Option<u8> {
    let nul = enc.string_wire == StringWire::CountedNul;
    if nul {
        put_len(w, enc, s, &("(", v, ".len() + 1)"));
    } else {
        put_len(w, enc, s, &(v, ".len()"));
    }
    put!(w; s, ".put_bytes(", v, ".as_bytes());");
    if nul {
        put!(w; s, ".put_u8(0);");
    }
    enc.pad_unit.filter(|_| !nul)
}

/// Aligns the write stream `s` to `align` relative to `base`.
/// Word-widening encodings (XDR) stay aligned by construction, so only
/// naturally-aligned ones (CDR) write anything.
pub(crate) fn align_put(w: &mut CodeWriter, enc: &Encoding, s: &str, base: &str, align: u8) {
    if !enc.widen_to_word && align > 1 {
        put!(w; s, ".align_from(", base, ", ", align, ");");
    }
}

/// Aligns the reader `r` to `align` relative to `base`, as
/// [`align_put`] does a write stream.
pub(crate) fn align_get(w: &mut CodeWriter, enc: &Encoding, base: &str, align: u8) {
    if !enc.widen_to_word && align > 1 {
        put!(w; "r.align_from(", base, ", ", align, ")?;");
    }
}

/// The expression that reads a count prefix off `r`.
fn len_get(enc: &Encoding) -> impl Piece {
    ("r.get_u32_", sfx(enc.len_prefix().order), "()? as usize")
}

/// Holds the count in `l` to the declared `bound`.
fn check_bound(w: &mut CodeWriter, l: Tmp, bound: Option<u64>) {
    if let Some(b) = bound {
        put!(w; "if ", l, " as u64 > ", b,
            " { return Err(DecodeError::BoundExceeded { got: ", l, " as u64, bound: ", b,
            " }); }");
    }
}

/// Reads the aligned count prefix of a string or sequence, held to
/// `bound`, into a fresh local.
pub(crate) fn read_len(w: &mut CodeWriter, enc: &Encoding, base: &str, bound: Option<u64>) -> Tmp {
    align_get(w, enc, base, enc.len_prefix().align);
    read_count(w, enc, bound)
}

/// Reads a count prefix the reader already stands aligned for, held to
/// `bound`, into a fresh local.
fn read_count(w: &mut CodeWriter, enc: &Encoding, bound: Option<u64>) -> Tmp {
    let l = w.fresh("len");
    put!(w; "let ", l, " = ", len_get(enc), ";");
    check_bound(w, l, bound);
    l
}

/// Reads the body of a string whose count `l` was just read — its
/// bytes and their pad or NUL — and checks it as UTF-8 into a fresh
/// local: a `&str` borrowed from the receive buffer, or a `String`.
pub(crate) fn read_str(w: &mut CodeWriter, enc: &Encoding, l: Tmp, borrowed: bool) -> Tmp {
    let bytes = w.fresh("bytes");
    match enc.string_wire {
        StringWire::CountedPadded => {
            put!(w; "let ", bytes, " = r.bytes(", l, ")?;");
            if let Some(u) = enc.pad_unit {
                put!(w; "r.skip((", u, " - ", l, " % ", u, ") % ", u, ")?;");
            }
        }
        StringWire::CountedNul => {
            put!(w; "if ", l,
                " == 0 { return Err(DecodeError::BadValue(\"CDR string length must include NUL\")); }");
            put!(w; "let ", bytes, " = &r.bytes(", l, ")?[..", l, " - 1];");
        }
    }
    let v = w.fresh("v");
    if borrowed {
        // §3.1 in-buffer presentation: borrow straight from the
        // receive buffer.
        put!(w; "let ", v, " = std::str::from_utf8(", bytes,
            ").map_err(|_| DecodeError::BadValue(\"string is not UTF-8\"))?; // zero-copy");
    } else {
        put!(w; "let ", v, " = String::from_utf8(", bytes,
            ".to_vec()).map_err(|_| DecodeError::BadValue(\"string is not UTF-8\"))?;");
    }
    v
}

/// The zero literal a dead (never-presented) slot encodes.
fn zero_expr(node: &PlanNode) -> Result<Zero, String> {
    match node {
        PlanNode::Prim { prim, .. } => Ok(Zero(prim_rust_ty(*prim))),
        PlanNode::Enum { .. } => Ok(Zero("u32")),
        other => Err(format!(
            "dead slot with a non-primitive plan {other:?} (presgen only \
             suppresses scalar parameters)"
        )),
    }
}

/// How an encoder is handed a value of `node`'s kind held in a place
/// (a struct member, a returned tuple member): scalars by value,
/// sequences as slices, other aggregates through a borrow.  The pair
/// wraps the place's expression.
fn pass_from_place(node: &PlanNode) -> (&'static str, &'static str) {
    match node {
        PlanNode::Void | PlanNode::Prim { .. } | PlanNode::Enum { .. } => ("", ""),
        PlanNode::String { .. }
        | PlanNode::MemcpyArray {
            fixed_len: None, ..
        }
        | PlanNode::CountedArray { .. } => ("(&", "[..])"),
        _ => ("(&", ")"),
    }
}

/// How an encoder is handed the `_x` a union arm's pattern bound by
/// reference.
fn pass_from_binding(node: &PlanNode) -> &'static str {
    match node {
        PlanNode::Prim { .. } | PlanNode::Enum { .. } => "(*_x)",
        PlanNode::String { .. }
        | PlanNode::MemcpyArray {
            fixed_len: None, ..
        }
        | PlanNode::CountedArray { .. } => "(&_x[..])",
        _ => "_x",
    }
}

/// ` + u - 1) & !(u - 1))`: closes `((n`, rounding `n` up to the pad
/// unit `u`.
struct Round(u8);

impl Piece for Round {
    fn write(&self, out: &mut String) {
        (" + ", self.0 - 1, ") & !", self.0 - 1, ")").write(out);
    }
}

// ================= presented types =================

/// Where a presented type's definition comes from.
enum Def<'a> {
    /// A struct, whether marshaled member by member or the region of a
    /// packed chunk.
    Struct(&'a [(Name, PlanNode)]),
    /// A discriminated union: its arms and default arm.
    Union(
        &'a [(i64, Name, PlanNode)],
        &'a Option<(Name, Box<PlanNode>)>,
    ),
}

/// The module's presented types, settled before a byte is written:
/// definitions are found in plan order but written in name order, and
/// a struct's attributes depend on every image run of the module.
struct Types<'a> {
    /// Definitions by type name; the first plan to mention a name
    /// defines it.
    defs: BTreeMap<&'a str, Def<'a>>,
    /// Structs some image run of this module moves as bytes, with
    /// their wire size: each is declared `Pod` beside its definition.
    images: BTreeMap<&'a str, u64>,
    /// Those structs and every struct nested in one: `#[repr(C)]`.
    repr_c: BTreeSet<&'a str>,
}

impl<'a> Types<'a> {
    fn collect(full: &'a StubPlans) -> Self {
        let mut t = Types {
            defs: BTreeMap::new(),
            images: BTreeMap::new(),
            repr_c: BTreeSet::new(),
        };
        // Every slot's plan and every outline — the image runs first,
        // which decide some of the types' attributes.
        let roots = || {
            let slots = full
                .stubs
                .iter()
                .flat_map(|stub| stub.request.slots.iter().chain(stub.reply.slots.iter()));
            slots.map(|slot| &slot.node).chain(full.outlines.values())
        };
        for node in roots() {
            t.collect_images(node);
        }
        for node in roots() {
            t.collect_types(node);
        }
        t
    }

    /// Records the element struct of every image run under `node`.
    fn collect_images(&mut self, node: &'a PlanNode) {
        match node {
            PlanNode::CountedArray { elem, image, .. } => {
                if let (Some(_), PlanNode::Packed { layout, region }) = (image, &**elem) {
                    if let PlanNode::Struct { type_name, .. } = &**region {
                        self.images.insert(type_name, layout.size);
                        self.mark_repr_c(region);
                    }
                }
                self.collect_images(elem);
            }
            PlanNode::FixedArray { elem, .. } | PlanNode::Optional { elem, .. } => {
                self.collect_images(elem);
            }
            PlanNode::Struct { fields, .. } => {
                for (_, f) in fields {
                    self.collect_images(f);
                }
            }
            PlanNode::Union { cases, default, .. } => {
                for (_, _, c) in cases {
                    self.collect_images(c);
                }
                if let Some((_, d)) = default {
                    self.collect_images(d);
                }
            }
            _ => {}
        }
    }

    /// A struct moved as bytes needs a defined field order, and so
    /// does every struct inside it.
    fn mark_repr_c(&mut self, region: &'a PlanNode) {
        match region {
            PlanNode::Struct {
                type_name, fields, ..
            } => {
                self.repr_c.insert(type_name);
                for (_, f) in fields {
                    self.mark_repr_c(f);
                }
            }
            PlanNode::FixedArray { elem, .. } => self.mark_repr_c(elem),
            _ => {}
        }
    }

    fn collect_types(&mut self, node: &'a PlanNode) {
        match node {
            PlanNode::Packed { region, .. } => self.collect_types(region),
            PlanNode::Struct {
                type_name, fields, ..
            } => {
                if !self.defs.contains_key(type_name.as_str()) {
                    self.defs.insert(type_name, Def::Struct(fields));
                }
                for (_, f) in fields {
                    self.collect_types(f);
                }
            }
            PlanNode::Union {
                type_name,
                cases,
                default,
                ..
            } => {
                if !self.defs.contains_key(type_name.as_str()) {
                    self.defs.insert(type_name, Def::Union(cases, default));
                }
                for (_, _, c) in cases {
                    self.collect_types(c);
                }
                if let Some((_, d)) = default {
                    self.collect_types(d);
                }
            }
            PlanNode::CountedArray { elem, .. }
            | PlanNode::FixedArray { elem, .. }
            | PlanNode::Optional { elem, .. } => self.collect_types(elem),
            _ => {}
        }
    }

    /// The owned Rust type a plan node decodes into.
    fn owned<'e>(&'e self, node: &'e PlanNode) -> Ty<'e> {
        Ty(self, node, false)
    }

    /// The borrowed Rust type an encode function takes for a slot.
    fn borrowed<'e>(&'e self, node: &'e PlanNode) -> Ty<'e> {
        Ty(self, node, true)
    }
}

/// The Rust type of a plan node — owned, or as an encoder borrows it
/// when the flag is set — spelled where it is mentioned.
struct Ty<'e>(&'e Types<'e>, &'e PlanNode, bool);

impl Piece for Ty<'_> {
    fn write(&self, out: &mut String) {
        let Ty(types, node, borrowed) = *self;
        let owned = |node| types.owned(node);
        if borrowed {
            match node {
                PlanNode::Void | PlanNode::Prim { .. } | PlanNode::Enum { .. } => {}
                PlanNode::String { .. } => return out.push_str("&str"),
                PlanNode::MemcpyArray {
                    prim,
                    fixed_len: None,
                    ..
                } => return ("&[", prim_rust_ty(*prim), "]").write(out),
                PlanNode::CountedArray { elem, .. } => return ("&[", owned(elem), "]").write(out),
                _ => out.push('&'),
            }
        }
        match node {
            PlanNode::Void => out.push_str("()"),
            PlanNode::Prim { prim, .. } => out.push_str(prim_rust_ty(*prim)),
            PlanNode::Enum { .. } => out.push_str("u32"),
            PlanNode::Packed { region, .. } => owned(region).write(out),
            PlanNode::MemcpyArray {
                prim, fixed_len, ..
            } => match fixed_len {
                Some(n) => ("[", prim_rust_ty(*prim), "; ", n, "]").write(out),
                None => ("Vec<", prim_rust_ty(*prim), ">").write(out),
            },
            PlanNode::String { .. } => out.push_str("String"),
            PlanNode::CountedArray { elem, .. } => ("Vec<", owned(elem), ">").write(out),
            PlanNode::FixedArray { len, elem, .. } => ("[", owned(elem), "; ", len, "]").write(out),
            PlanNode::Struct { type_name, .. } | PlanNode::Union { type_name, .. } => {
                type_name.write(out)
            }
            PlanNode::Optional { elem, .. } => ("Option<Box<", owned(elem), ">>").write(out),
            PlanNode::Outline { key } => key.write(out),
        }
    }
}

/// A first guess at the module's size, so the output buffer is
/// allocated once: what every module carries, what a stub (its message
/// functions and dispatch arm) and a plan node come to, and what the
/// transport adds — a `call_<op>` stub per ONC operation, or GIOP's
/// `handle_message`, word switch and alignment.  Fitted to the nine
/// canonical modules and a 15-operation interface (the guess lands
/// 3–20 % over); growth covers a module that outruns it.
#[must_use]
pub fn size_hint(full: &StubPlans, enc: &Encoding) -> usize {
    let stats = crate::plan::PlanStats::of(full);
    let (stubs, nodes) = (stats.stubs as usize, stats.plan_nodes as usize);
    let transport = if demuxes_by_name(enc) {
        1664 + 1408 * stubs
    } else if enc.name == "xdr" {
        1536 * stubs
    } else {
        0
    };
    2688 + 1472 * stubs + 128 * nodes + transport
}

impl<'a> Emitter<'a> {
    /// Writes the locals pushed since `base`, comma-separated, and
    /// pops them.
    fn pop_vals(&mut self, base: usize) {
        for (i, v) in self.vals[base..].iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            self.w.push((sep, v));
        }
        self.vals.truncate(base);
    }

    // ================= module assembly =================

    fn module(&mut self) -> Result<(), String> {
        let (be, full, types, presc) = (self.be, self.full, self.types, self.presc);
        self.w
            .push(("//! Flick-generated stubs — interface `", &presc.interface));
        self.w
            .push(("`, presentation `", &presc.style, "`,\n//! transport `"));
        self.w
            .push((be.transport.name(), "`, encoding `", be.encoding.name));
        self.w.push(
            "`.\n\
             //! Generated by flick-backend; do not edit.\n\
             #![allow(clippy::all, dead_code, unused_variables, unused_mut, unused_imports, unused_parens, non_snake_case, non_camel_case_types)]\n\n\
             use flick_runtime::buf::{MarshalBuf, MsgReader};\n\
             use flick_runtime::error::DecodeError;\n\
             use flick_runtime::pod;\n\n",
        );

        for (name, def) in &types.defs {
            self.type_def(name, def);
            self.w.push("\n");
        }

        // Out-of-line marshal functions.
        for (key, body) in &full.outlines {
            self.outline_fns(key, body)?;
        }

        // One stub per operation: the client call stub and the server
        // work stub describe the same messages, so generation keys on
        // the operation, whichever side's presentation we were given.
        let mut seen = HashSet::with_capacity(full.stubs.len());
        let stubs: Vec<&StubPlan> = full
            .stubs
            .iter()
            .filter(|s| seen.insert(s.op.name.as_str()))
            .collect();
        for stub in &stubs {
            self.stub_fns(stub)?;
        }

        self.server_trait(&stubs);
        // One dispatcher, on the discriminator the transport carries:
        // the GIOP operation name, or the ONC / Mach procedure number.
        if demuxes_by_name(&be.encoding) {
            self.dispatch_by_name(&stubs, &full.demux)?;
        } else {
            self.dispatch_numeric(&stubs)?;
        }
        self.robust_entries(&stubs);
        Ok(())
    }

    // ================= hostile-wire entry points =================

    /// Emits the robust server entry (`handle_call` / `handle_message`)
    /// and, for ONC, the retransmitting client stubs (`call_<op>`).
    /// These wrap the module's dispatcher with the protocol-level
    /// error replies a server must send instead of dying on hostile
    /// bytes.  Mach/Fluke encodings have no wire error protocol here,
    /// so they get neither.
    fn robust_entries(&mut self, stubs: &[&StubPlan]) {
        if demuxes_by_name(&self.be.encoding) {
            self.giop_handle_message(stubs);
        } else if self.be.encoding.name == "xdr" {
            self.onc_handle_call(stubs);
            for stub in stubs {
                self.onc_call_stub(stub);
            }
        }
    }

    fn onc_handle_call(&mut self, stubs: &[&StubPlan]) {
        let procs = Show(|out: &mut String| {
            for (i, s) in stubs.iter().enumerate() {
                let sep = if i > 0 { " | " } else { "" };
                (sep, s.op.request_code, "u32").write(out);
            }
        });
        self.w.push(("/// Serves one ONC call `record` for program `prog` version `vers`.\n\
             /// Malformed headers, unknown procedures, and argument decode\n\
             /// failures answer with the protocol-level error reply\n\
             /// (`PROG_UNAVAIL`/`PROG_MISMATCH`/`PROC_UNAVAIL`/`GARBAGE_ARGS`)\n\
             /// instead of propagating.  Returns false only when the record was\n\
             /// too mangled to answer safely (no reply in `reply`).\n\
             pub fn handle_call<S: Server>(record: &[u8], prog: u32, vers: u32, reply: &mut MarshalBuf, srv: &mut S) -> bool {\n\
             \x20   use flick_runtime::oncrpc::{self, ReplyOutcome};\n\
             \x20   let (h, body) = match oncrpc::accept_call(record, prog, vers, reply) {\n\
             \x20       Ok(x) => x,\n\
             \x20       Err(replied) => {\n\
             \x20           flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Xdr);\n\
             \x20           return replied;\n\
             \x20       }\n\
             \x20   };\n\
             \x20   if !matches!(h.proc, ", procs, ") {\n\
             \x20       flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Xdr);\n\
             \x20       oncrpc::write_reply(reply, h.xid, ReplyOutcome::ProcUnavail);\n\
             \x20       return true;\n\
             \x20   }\n\
             \x20   // A call whose propagated budget is already spent gets the\n\
             \x20   // cheap failure, not the work (see flick_runtime::deadline).\n\
             \x20   if flick_runtime::deadline::inbound_expired() {\n\
             \x20       flick_runtime::metrics::rpc_expired();\n\
             \x20       oncrpc::write_reply(reply, h.xid, ReplyOutcome::SystemErr);\n\
             \x20       return true;\n\
             \x20   }\n\
             \x20   oncrpc::write_reply(reply, h.xid, ReplyOutcome::Success);\n\
             \x20   match dispatch(h.proc, body, reply, srv) {\n\
             \x20       Ok(()) => true,\n\
             \x20       Err(_e) => {\n\
             \x20           flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Xdr);\n\
             \x20           reply.clear();\n\
             \x20           oncrpc::write_reply(reply, h.xid, ReplyOutcome::GarbageArgs);\n\
             \x20           true\n\
             \x20       }\n\
             \x20   }\n\
             }\n\n"));
    }

    fn onc_call_stub(&mut self, stub: &StubPlan) {
        if stub.op.oneway {
            return;
        }
        let types = self.types;
        let op = &sanitize(&stub.op.name);
        let args = || stub.request.slots.iter().filter(|s| s.live);
        self.w.push(("/// Calls `", op, "` over a datagram endpoint with ONC-over-UDP\n\
             /// retransmission (deadline/retries/backoff from `opts`; duplicate,\n\
             /// stale, and corrupt replies are absorbed by the xid match).\n\
             pub fn call_", op, "<E: flick_runtime::client::Endpoint>(ep: &E, xid: u32, prog: u32, vers: u32, opts: &flick_runtime::client::CallOptions"));
        for slot in args() {
            let ty = types.borrowed(&slot.node);
            self.w.push((", ", sanitize(&slot.name), ": ", ty));
        }
        self.w.push(") -> Result<(");
        for slot in stub.reply.slots.iter().filter(|s| s.live) {
            self.w.push((types.owned(&slot.node), ", "));
        }
        self.w.push("), flick_runtime::client::RpcError> {\n");
        self.w.nest();
        // Client span around the full round trip: while it is open the
        // call header stamps its trace context onto the wire, and
        // `finish_call` records the outcome and `rpc.<op>.rtt`.  One
        // relaxed load and a branch while collection is off.
        put!(self.w; "let _cspan = flick_runtime::trace::client_begin(\"", op, "\");");
        // Encode buffer from the thread-local pool: after warmup the
        // checkout reuses a grown allocation and recycles it on drop.
        self.w
            .put("let mut buf = flick_runtime::pool::checkout(); // recycled on drop");
        // Deadline stamp: while the guard lives, the call header
        // carries the remaining budget on the wire (capped by any
        // budget the request being served arrived with), so the
        // server can refuse this call once it is already too late.
        self.w
            .put("let _budget = flick_runtime::deadline::stamp_capped(opts.deadline);");
        put!(self.w; "flick_runtime::oncrpc::CallHeader { xid, prog, vers, proc: ",
            stub.op.request_code, "u32 }.write(&mut buf);");
        self.w.indent_here();
        self.w.push(("encode_", op, "_request(&mut buf"));
        for slot in args() {
            self.w.push((", ", sanitize(&slot.name)));
        }
        self.w.push(");\n");
        self.w.put(
            "let body = _cspan.finish_call(flick_runtime::client::call(ep, xid, buf.as_slice(), opts))?;",
        );
        self.w.put("let mut r = MsgReader::new(&body);");
        put!(self.w; "decode_", op,
            "_reply(&mut r).map_err(flick_runtime::client::RpcError::Decode)");
        self.w.close("}");
        self.w.put("");
    }

    fn giop_handle_message(&mut self, stubs: &[&StubPlan]) {
        let ops = Show(|out: &mut String| {
            for (i, s) in stubs.iter().enumerate() {
                let sep = if i > 0 { " | " } else { "" };
                (sep, "b\"", &s.op.wire_name, "\"").write(out);
            }
        });
        self.w.push(("/// Serves one complete GIOP message.  Unparseable headers answer\n\
             /// `MessageError`; unknown operations and argument decode failures\n\
             /// answer a `SystemException` reply (`BAD_OPERATION` / `MARSHAL`).\n\
             /// Returns true when `reply` holds a message to send back.\n\
             pub fn handle_message<S: Server>(msg: &[u8], reply: &mut MarshalBuf, srv: &mut S) -> bool {\n\
             \x20   use flick_runtime::cdr::{ByteOrder, CdrIn, CdrOut};\n\
             \x20   use flick_runtime::giop::{self, MsgType, ReplyStatus};\n\
             \x20   reply.clear();\n\
             \x20   let mut r = MsgReader::new(msg);\n\
             \x20   let h = match giop::read_header(&mut r) {\n\
             \x20       Ok(h) => h,\n\
             \x20       Err(_) => {\n\
             \x20           flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Cdr);\n\
             \x20           giop::write_message_error(reply, ByteOrder::native());\n\
             \x20           return true;\n\
             \x20       }\n\
             \x20   };\n\
             \x20   if h.msg_type == MsgType::CloseConnection {\n\
             \x20       return false;\n\
             \x20   }\n\
             \x20   if h.msg_type != MsgType::Request {\n\
             \x20       flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Cdr);\n\
             \x20       giop::write_message_error(reply, h.order);\n\
             \x20       return true;\n\
             \x20   }\n\
             \x20   let cdr = CdrIn::begin(&r, h.order);\n\
             \x20   let req = match giop::get_request_header_ref(&mut r, &cdr) {\n\
             \x20       Ok(x) => x,\n\
             \x20       Err(_) => {\n\
             \x20           flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Cdr);\n\
             \x20           giop::write_message_error(reply, h.order);\n\
             \x20           return true;\n\
             \x20       }\n\
             \x20   };\n\
             \x20   // A request whose propagated budget is already spent gets the\n\
             \x20   // cheap failure, not the work (see flick_runtime::deadline).\n\
             \x20   if flick_runtime::deadline::inbound_expired() {\n\
             \x20       flick_runtime::metrics::rpc_expired();\n\
             \x20       let at = giop::begin_message(reply, h.order, MsgType::Reply);\n\
             \x20       let out = CdrOut::begin(reply, h.order);\n\
             \x20       giop::put_reply_header(reply, &out, req.request_id, ReplyStatus::SystemException);\n\
             \x20       giop::put_system_exception(reply, &out, \"IDL:omg.org/CORBA/TIMEOUT:1.0\", 0);\n\
             \x20       giop::finish_message(reply, at, h.order);\n\
             \x20       return req.response_expected;\n\
             \x20   }\n\
             \x20   if !matches!(req.operation.as_bytes(), ", ops, ") {\n\
             \x20       flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Cdr);\n\
             \x20       let at = giop::begin_message(reply, h.order, MsgType::Reply);\n\
             \x20       let out = CdrOut::begin(reply, h.order);\n\
             \x20       giop::put_reply_header(reply, &out, req.request_id, ReplyStatus::SystemException);\n\
             \x20       giop::put_system_exception(reply, &out, \"IDL:omg.org/CORBA/BAD_OPERATION:1.0\", 0);\n\
             \x20       giop::finish_message(reply, at, h.order);\n\
             \x20       return req.response_expected;\n\
             \x20   }\n\
             \x20   let at = giop::begin_message(reply, h.order, MsgType::Reply);\n\
             \x20   let out = CdrOut::begin(reply, h.order);\n\
             \x20   giop::put_reply_header(reply, &out, req.request_id, ReplyStatus::NoException);\n\
             \x20   match dispatch_by_name(req.operation.as_bytes(), &msg[r.pos()..], reply, srv) {\n\
             \x20       Ok(()) => {\n\
             \x20           giop::finish_message(reply, at, h.order);\n\
             \x20           req.response_expected\n\
             \x20       }\n\
             \x20       Err(_e) => {\n\
             \x20           flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Cdr);\n\
             \x20           reply.clear();\n\
             \x20           let at = giop::begin_message(reply, h.order, MsgType::Reply);\n\
             \x20           let out = CdrOut::begin(reply, h.order);\n\
             \x20           giop::put_reply_header(reply, &out, req.request_id, ReplyStatus::SystemException);\n\
             \x20           giop::put_system_exception(reply, &out, \"IDL:omg.org/CORBA/MARSHAL:1.0\", 0);\n\
             \x20           giop::finish_message(reply, at, h.order);\n\
             \x20           req.response_expected\n\
             \x20       }\n\
             \x20   }\n\
             }\n\n"));
    }

    // ================= presented types =================

    fn type_def(&mut self, name: &str, def: &Def<'_>) {
        let types = self.types;
        match def {
            Def::Struct(fields) => {
                let repr = if types.repr_c.contains(name) {
                    "#[repr(C)]\n"
                } else {
                    ""
                };
                self.w
                    .push(("/// Presented type `", name, "` (generated).\n", repr));
                open!(self.w; "#[derive(Clone, Debug, PartialEq)]\npub struct ", name, " {");
                for (fname, fplan) in *fields {
                    put!(self.w; "pub ", fname, ": ", types.owned(fplan), ",");
                }
                self.w.close("}");
                if let Some(size) = types.images.get(name) {
                    // The image predicate found no padding on
                    // either side; the assert holds rustc to it.
                    self.w.push((
                        "// SAFETY: `#[repr(C)]` all the way down, integer and float \
                         fields only, and no padding:\n\
                         // the ",
                        size,
                        " bytes asserted below are exactly the fields'.\n\
                         unsafe impl flick_runtime::pod::Pod for ",
                        name,
                        " {}\n",
                    ));
                    put!(self.w; "const _: () = assert!(std::mem::size_of::<", name, ">() == ",
                        size, ");");
                }
            }
            Def::Union(cases, default) => {
                open!(self.w; "/// Presented union `", name,
                    "` (generated).\n#[derive(Clone, Debug, PartialEq)]\npub enum ", name, " {");
                for (i, (_, member, c)) in cases.iter().enumerate() {
                    if Variant::repeats(cases, i) {
                        continue;
                    }
                    let variant = Variant(member);
                    if matches!(c, PlanNode::Void) {
                        put!(self.w; variant, ",");
                    } else {
                        put!(self.w; variant, "(", types.owned(c), "),");
                    }
                }
                if let Some((_, d)) = default {
                    if matches!(**d, PlanNode::Void) {
                        self.w.put("Other(i64),");
                    } else {
                        put!(self.w; "Other(i64, ", types.owned(d), "),");
                    }
                }
                self.w.close("}");
            }
        }
    }

    // ================= per-stub functions =================

    fn stub_fns(&mut self, stub: &StubPlan) -> Result<(), String> {
        let op = sanitize(&stub.op.name);
        self.msg_fns(&(&op, "_request"), &stub.request, true)?;
        if !stub.op.oneway {
            self.msg_fns(&(&op, "_reply"), &stub.reply, false)?;
        }
        Ok(())
    }

    /// Writes a message's encoder and decoder; the half a dispatcher
    /// calls is always inlined, into the switch as §3.3 has it (a bare
    /// `#[inline]` left the numeric dispatcher calling out, 10 % slower).
    fn msg_fns(&mut self, what: &dyn Piece, msg: &MsgPlan, request: bool) -> Result<(), String> {
        let types = self.types;
        let inline = |called: bool| if called { "#[inline(always)]\n" } else { "" };
        // ---- encode ----
        // Dead slots never appear in the generated signature: the PRES
        // mapping hides them whether or not `dead-slot` removed their
        // marshal work.
        let head = (inline(!request), "pub fn encode_", what);
        self.w
            .push(("/// Encodes the `", what, "` message body.\n", head));
        self.w.push("(buf: &mut MarshalBuf");
        for slot in msg.slots.iter().filter(|s| s.live) {
            let ty = types.borrowed(&slot.node);
            self.w.push((", ", sanitize(&slot.name), ": ", ty));
        }
        self.w.push(") {\n");
        self.w.nest();
        let base = self.bind_base("buf.len()", Cursor::START);
        // §3.1: one hoisted check when the whole message is fixed or
        // bounded under the threshold (decided by `hoist-checks`).
        if let Some(n) = msg.hoisted {
            let why = match msg.class {
                SizeClass::Fixed(_) => "fixed-size",
                _ => "bounded (<= threshold)",
            };
            put!(self.w; "buf.ensure(", n, "); // whole message is ", why);
        } else if msg.by_value {
            self.reserve_by_value(msg)?;
        }
        let mut ctx = EncCtx {
            covered: msg.hoisted.is_some() || msg.by_value,
        };
        for slot in &msg.slots {
            if slot.live {
                self.emit_encode(&slot.node, &sanitize(&slot.name), &mut ctx)?;
            } else {
                // Naive path (`dead-slot` off): the wire still carries
                // the slot, zero-filled.
                put!(self.w; "// dead slot `", slot.name, "`: never presented, wire gets zero");
                self.emit_encode(&slot.node, &zero_expr(&slot.node)?, &mut ctx)?;
            }
        }
        self.end_base(base);
        self.w.close("}");
        self.w.put("");

        // ---- decode ----
        // A string taken in place borrows the receive buffer.
        let reader = if msg.slots.iter().any(in_place) {
            "<'a>(r: &mut MsgReader<'a>) -> Result<("
        } else {
            "(r: &mut MsgReader<'_>) -> Result<("
        };
        let head = (inline(request), "pub fn decode_", what, reader);
        self.w
            .push(("/// Decodes the `", what, "` message body.\n", head));
        for slot in msg.slots.iter().filter(|s| s.live) {
            if in_place(slot) {
                self.w.push("&'a str, ");
            } else {
                self.w.push((types.owned(&slot.node), ", "));
            }
        }
        self.w.push("), DecodeError> {\n");
        self.w.nest();
        let base = self.bind_base("r.pos()", Cursor::START);
        let first = self.vals.len();
        for slot in &msg.slots {
            if !slot.live {
                put!(self.w; "// dead slot `", slot.name, "`: decoded and discarded");
            }
            let v = self.emit_decode(&slot.node, in_place(slot))?;
            if slot.live {
                self.vals.push(v);
            }
        }
        self.end_base(base);
        self.w.indent_here();
        self.w.push("Ok((");
        for v in self.vals.drain(first..) {
            self.w.push((v, ", "));
        }
        self.w.push("))\n");
        self.w.close("}");
        self.w.put("");
        Ok(())
    }

    // ================= reserved by value =================

    /// §3.1 for a message `hoist-checks` reserves by value: one
    /// `ensure` before the first byte of what the body writes — its
    /// constant part, then a term for each part whose length is a
    /// value's (`s.len()` and its pad, `v.len() * k`, or a sum over the
    /// elements of `v`).  The walk follows the encoder's steps from
    /// `_base`, so a pad is exact where the static-offset analysis knows
    /// the offset and counts at its widest where it does not.  One walk
    /// writes the terms; the constant, known once they are written, is
    /// put in front of them.
    fn reserve_by_value(&mut self, msg: &MsgPlan) -> Result<(), String> {
        self.w.indent_here();
        self.w.push("buf.ensure(");
        let at = self.w.mark();
        let mut cur = Cursor::START;
        let mut fixed = 0;
        for slot in &msg.slots {
            fixed += self.reserve(&slot.node, &sanitize(&slot.name), &mut cur, 0)?;
        }
        self.w.insert(at, fixed);
        self.w.push("); // whole message, sized by its values\n");
        Ok(())
    }

    /// What the encoder writes for `node`, the value `v`, from `at`,
    /// moving `at` past it: the constant bytes are returned, and each
    /// part whose length is a value's is written as ` + <term>`.
    /// Element sums bind `_r<depth>`.
    fn reserve(
        &mut self,
        node: &PlanNode,
        v: &dyn Piece,
        at: &mut Cursor,
        depth: u64,
    ) -> Result<u64, String> {
        let enc = &self.be.encoding;
        let desc = if enc.typed_descriptors { 4 } else { 0 };
        // One `put_type` of a count only the value knows: 4 or 12 bytes.
        let counted_desc = |w: &mut CodeWriter, at: &mut Cursor| {
            if enc.typed_descriptors {
                *at = at.advance(4);
                w.push((" + flick_runtime::mach::type_bytes(", v, ".len())"));
            }
        };
        let pad = |at: &mut Cursor, to: u8| at.pad(to, enc).0;
        Ok(match node {
            PlanNode::Void => 0,
            PlanNode::Prim { prim } => {
                let d = if self.described { 0 } else { desc };
                *at = at.advance(d);
                let p = pad(at, prim.align);
                *at = at.advance(u64::from(prim.slot));
                d + p + u64::from(prim.slot)
            }
            PlanNode::Enum { prim } => {
                let p = pad(at, prim.align);
                *at = at.advance(u64::from(prim.slot));
                p + u64::from(prim.slot)
            }
            PlanNode::Packed { layout, .. } => {
                let p = pad(at, layout.align.min(8) as u8);
                *at = at.advance(layout.size);
                p + layout.size
            }
            PlanNode::MemcpyArray {
                prim,
                fixed_len: Some(n),
                ..
            } => {
                *at = at.advance(desc);
                let mut fixed = enc.descriptor_bytes(*n);
                if prim.align > 1 {
                    fixed += pad(at, prim.align);
                }
                let bytes = n * u64::from(prim.size);
                *at = at.advance(bytes);
                if self.pad_unit_after(u64::from(prim.slot)).is_some() {
                    fixed += enc.pad_after(bytes);
                }
                *at = at.after_pad(enc, u64::from(prim.slot));
                fixed + bytes
            }
            PlanNode::MemcpyArray { prim, .. } => {
                counted_desc(&mut self.w, at);
                let mut fixed = pad(at, 4) + 4;
                *at = at.advance(4);
                if prim.align > 1 {
                    fixed += pad(at, prim.align);
                }
                let bytes = (v, ".len() * ", prim.size);
                match self.pad_unit_after(u64::from(prim.slot)) {
                    Some(u) => self.w.push((" + ((", bytes, Round(u))),
                    None => self.w.push((" + ", bytes)),
                }
                *at = at
                    .advance_by_multiple(u64::from(prim.size))
                    .after_pad(enc, u64::from(prim.slot));
                fixed
            }
            PlanNode::String { style, .. } => {
                counted_desc(&mut self.w, at);
                let nul = *style == StringWire::CountedNul;
                match enc.pad_unit.filter(|_| !nul) {
                    Some(u) => self.w.push((" + ((", v, ".len()", Round(u))),
                    None => self.w.push((" + ", v, ".len()")),
                }
                let fixed = pad(at, 4) + 4 + u64::from(nul);
                *at = at.advance(4).after_string(enc);
                fixed
            }
            PlanNode::CountedArray { elem, strided, .. } => {
                let described = described(enc, elem).is_some();
                if described {
                    counted_desc(&mut self.w, at);
                }
                let mut fixed = pad(at, 4) + 4;
                *at = at.advance(4);
                if let (true, PlanNode::Packed { layout, .. }) = (*strided, &**elem) {
                    if let Some(a) = run_align(enc, layout.align) {
                        fixed += at.clone().pad(a, enc).0;
                    }
                    self.w.push((" + ", v, ".len() * ", layout.size));
                    *at = at.strided_run(enc, layout);
                    return Ok(fixed);
                }
                let head = at.loop_head(elem, enc);
                if let Some(one) = self.reserve_elements(elem, v, head, depth, described)? {
                    match elem
                        .scalar()
                        .and_then(|p| self.pad_unit_after(u64::from(p.slot)))
                    {
                        Some(u) => self.w.push((" + ((", v, ".len() * ", one, Round(u))),
                        None => self.w.push((" + ", v, ".len() * ", one)),
                    }
                }
                *at = match elem.scalar() {
                    Some(p) => head.after_pad(enc, u64::from(p.slot)),
                    None => head,
                };
                fixed
            }
            PlanNode::FixedArray { len, elem, .. } => {
                let exit = at.after(node, enc);
                let described = described(enc, elem).is_some();
                let mut fixed = 0;
                if described {
                    *at = at.advance(4);
                    fixed += enc.descriptor_bytes(*len);
                }
                let head = at.loop_head(elem, enc);
                if let Some(one) = self.reserve_elements(elem, v, head, depth, described)? {
                    fixed += len * one;
                }
                if let Some(prim) = elem.scalar() {
                    let bytes = len * u64::from(prim.slot);
                    if self.pad_unit_after(bytes).is_some() {
                        fixed += enc.pad_after(bytes);
                    }
                }
                *at = exit;
                fixed
            }
            // A member's length and elements are reached through the
            // place itself: `.len()` and `.iter()` deref as needed.
            PlanNode::Struct { fields, .. } => {
                let mut fixed = 0;
                for (fname, f) in fields {
                    fixed += self.reserve(f, &(v, ".", fname), at, depth)?;
                }
                fixed
            }
            PlanNode::Outline { key } => {
                let full = self.full;
                let body = full
                    .outlines
                    .get(key)
                    .ok_or_else(|| format!("outline `{key}` has no body"))?;
                self.reserve(body, v, at, depth)?
            }
            PlanNode::Union { .. } | PlanNode::Optional { .. } => {
                return Err(format!(
                    "a message reserved by value holds a union or an optional: {node:?}"
                ))
            }
        })
    }

    /// The elements of the array `v` of `elem`s, each sized from the
    /// loop head `head`: `Some(k)`, having written nothing, when every
    /// element writes `k` bytes, else `None` and the term summing each
    /// element's size.
    fn reserve_elements(
        &mut self,
        elem: &PlanNode,
        v: &dyn Piece,
        mut head: Cursor,
        depth: u64,
        described: bool,
    ) -> Result<Option<u64>, String> {
        let outer = std::mem::replace(&mut self.described, described);
        let from = self.w.mark();
        let e = ("_r", depth);
        self.w.push((" + ", v, ".iter().map(|", e, "| "));
        let at = self.w.mark();
        let one = self.reserve(elem, &e, &mut head, depth + 1)?;
        self.described = outer;
        if self.w.mark() == at {
            self.w.cut(from, at);
            return Ok(Some(one));
        }
        self.w.insert(at, one);
        self.w.push(").sum::<usize>()");
        Ok(None)
    }

    // ================= where the cursor is =================

    /// Binds `_base` to the stream's offset `at` (`buf.len()`,
    /// `r.pos()`) where the encoding aligns, and starts the cursor at
    /// `start`.  [`Emitter::end_base`] takes the line back out when no
    /// alignment below it was computed at run time: one move of the
    /// text written since, which costs less than asking the analysis
    /// beforehand.
    fn bind_base(&mut self, at: &str, start: Cursor) -> BaseScope {
        self.cur = start;
        let line = (!self.be.encoding.widen_to_word).then(|| {
            let from = self.w.mark();
            put!(self.w; "let _base = ", at, ";");
            (from, self.w.mark())
        });
        let outer_used = std::mem::replace(&mut self.base_used, false);
        BaseScope { line, outer_used }
    }

    fn end_base(&mut self, scope: BaseScope) {
        if let (Some((from, to)), false) = (scope.line, self.base_used) {
            self.w.cut(from, to);
        }
        self.base_used = scope.outer_used;
    }

    /// Asks the cursor what aligning to `align` takes: nothing, a
    /// constant pad, or (the offset unknown) a pad computed from
    /// `_base`.  Word-widening encodings (XDR) stay aligned by
    /// construction and write none of these.
    fn align_step(&mut self, align: u8) -> Align {
        let step = self.cur.align(align);
        if self.be.encoding.widen_to_word {
            return Align::Nothing;
        }
        if step == Align::Dynamic {
            self.base_used = true;
        }
        step
    }

    /// The caller's `_base` an out-of-line call hands on, if any.
    fn base_arg(&mut self) -> &'static str {
        if self.be.encoding.widen_to_word {
            return "";
        }
        self.base_used = true;
        ", _base"
    }

    /// The loop head for a body marshaling `elem`, entered where the
    /// cursor stands: the state the body is written from.
    fn enter_loop(&mut self, elem: &PlanNode) -> Cursor {
        self.cur = self.cur.loop_head(elem, &self.be.encoding);
        self.cur
    }

    /// Leaves a loop body entered at `head`: the walk's own steps must
    /// agree with the analysis, and past the loop the cursor is where
    /// the head left it.
    fn leave_loop(&mut self, head: Cursor, elem: &PlanNode) {
        debug_assert!(
            self.cur.refines(head.after(elem, &self.be.encoding)),
            "the emitter's cursor {:?} outran the analysis over {elem:?}",
            self.cur
        );
        self.cur = head;
    }

    // ================= encode =================

    fn align_enc(&mut self, align: u8) {
        match self.align_step(align) {
            Align::Nothing => {}
            Align::Pad(n) => put!(self.w; "buf.put_zeros(", n, ");"),
            Align::Dynamic => align_put(&mut self.w, &self.be.encoding, "buf", "_base", align),
        }
    }

    fn mach_descriptor(&mut self, name: u8, bits: u8, count: &dyn Piece) {
        if self.be.encoding.typed_descriptors {
            put!(self.w; "flick_runtime::mach::put_type(buf, ", name, ", ", bits, ", (",
                count, ") as u32);");
            // One word or three: 4 bytes either way, modulo 8.
            self.cur = self.cur.advance(4);
        }
    }

    /// Writes the one descriptor a Mach 3 array of `count` scalar
    /// `elem`s carries, and says whether it did: its elements then carry
    /// none of their own.
    fn array_descriptor(&mut self, elem: &PlanNode, count: &dyn Piece) -> bool {
        let Some(prim) = described(&self.be.encoding, elem) else {
            return false;
        };
        self.mach_descriptor(mach_name(prim), prim.size * 8, count);
        true
    }

    /// Constant-offset stores of every item of `layout` through the
    /// chunk writer `cvar`.
    fn chunk_stores(&mut self, layout: &crate::layout::Packed, vexpr: &dyn Piece, cvar: Tmp) {
        for item in &layout.items {
            match item {
                PackedItem::Prim { offset, prim, path } => {
                    put!(self.w; Put(*prim, &cvar, Some(offset), &Path(vexpr, path)));
                }
                PackedItem::PrimRun {
                    offset,
                    prim,
                    count,
                    path,
                    ..
                } => {
                    let e = Path(vexpr, path);
                    if self.full.memcpy && prim.memcpy_compatible(prim.size) {
                        put!(self.w; cvar, ".put_bytes_at(", offset, ", pod::bytes_of(&", e,
                            "[..])); // memcpy run");
                    } else {
                        let i = self.w.fresh("i");
                        open!(self.w; "for ", i, " in 0..", count, "usize {");
                        let at = (offset, " + ", i, " * ", prim.slot);
                        put!(self.w; Put(*prim, &cvar, Some(&at), &(e, "[", i, "]")));
                        self.w.close("}");
                    }
                }
            }
        }
    }

    /// The one alignment a strided run of `layout` chunks needs, if
    /// any ([`run_align`]): what it takes when the array is not empty,
    /// for the emitted code must skip it for an empty array, whose
    /// elements never aligned either.  Leaves the cursor past the run.
    fn strided_align(&mut self, layout: &crate::layout::Packed) -> Align {
        let entry = self.cur;
        let step = match run_align(&self.be.encoding, layout.align) {
            Some(a) => self.align_step(a),
            None => Align::Nothing,
        };
        self.cur = entry.strided_run(&self.be.encoding, layout);
        step
    }

    /// The encoding's pad unit, when `n` bytes of packed data (a fixed
    /// array's, or one element of a counted array's) can leave the
    /// stream off it, so that a trailing pad is owed.
    fn pad_unit_after(&self, n: u64) -> Option<u8> {
        let enc = &self.be.encoding;
        enc.pad_unit.filter(|_| enc.pad_after(n) > 0)
    }

    /// Writes the trailing pad owed after `n` packed bytes.  Padding
    /// to the stream's offset, it leaves the cursor unknown.
    fn put_pad(&mut self, n: u64) {
        if let Some(u) = self.pad_unit_after(n) {
            put!(self.w; "buf.align_to(", u, ");");
        }
        self.cur = self.cur.after_pad(&self.be.encoding, n);
    }

    /// Skips the trailing pad after a fixed array of `len` elements.
    fn skip_fixed_pad(&mut self, prim: WirePrim, len: u64) {
        let n = len * u64::from(prim.slot);
        let pad = self.be.encoding.pad_after(n);
        if pad > 0 {
            put!(self.w; "r.skip(", pad, ")?;");
        }
        self.cur = self.cur.after_pad(&self.be.encoding, n);
    }

    /// Skips the trailing pad after the `lv` elements of a counted
    /// array.  Its length is the count's, so the cursor is unknown.
    fn skip_counted_pad(&mut self, prim: WirePrim, lv: Tmp) {
        if let Some(u) = self.pad_unit_after(u64::from(prim.slot)) {
            put!(self.w; "r.skip((", u, " - (", lv, " * ", prim.slot, ") % ", u, ") % ", u, ")?;");
        }
        self.cur = self.cur.after_pad(&self.be.encoding, u64::from(prim.slot));
    }

    fn emit_encode(
        &mut self,
        node: &PlanNode,
        vexpr: &dyn Piece,
        ctx: &mut EncCtx,
    ) -> Result<(), String> {
        let hoist = self.full.hoist;
        match node {
            PlanNode::Void => {}
            PlanNode::Prim { prim, .. } => {
                if !self.described {
                    self.mach_descriptor(mach_name(*prim), prim.size * 8, &1);
                }
                self.align_enc(prim.align);
                // Without `hoist-checks` the traditional shape: a space
                // check before every atomic datum (§3.1's unoptimized
                // comparison).
                if !hoist || !ctx.covered {
                    put!(self.w; "buf.ensure(", prim.slot, ");");
                }
                put!(self.w; Put(*prim, &"buf", None, vexpr));
                self.cur = self.cur.advance(u64::from(prim.slot));
            }
            PlanNode::Enum { prim } => {
                self.align_enc(prim.align);
                put!(self.w; Put(*prim, &"buf", None, vexpr));
                self.cur = self.cur.advance(u64::from(prim.slot));
            }
            PlanNode::Packed { layout, .. } => {
                self.align_enc(layout.align.min(8) as u8);
                self.cur = self.cur.advance(layout.size);
                if !hoist {
                    put!(self.w; "buf.ensure(", layout.size, "); // region check (chunk)");
                } else if !ctx.covered {
                    put!(self.w; "buf.ensure(", layout.size, "); // fixed region");
                }
                let cvar = self.w.fresh("c");
                put!(self.w; "let mut ", cvar, " = buf.chunk(", layout.size, ");");
                self.chunk_stores(layout, vexpr, cvar);
            }
            PlanNode::MemcpyArray {
                prim,
                fixed_len,
                counted,
                ..
            } => {
                let len_expr = Show(|out: &mut String| match fixed_len {
                    Some(n) => n.write(out),
                    None => (vexpr, ".len()").write(out),
                });
                self.mach_descriptor(mach_name(*prim), prim.size * 8, &len_expr);
                if *counted {
                    if !hoist {
                        self.w.put("buf.ensure(4);");
                        put!(self.w; "buf.ensure(", vexpr, ".len() * ", prim.size, " + 4);");
                    } else if !ctx.covered {
                        put!(self.w; "buf.ensure(8 + ", vexpr, ".len() * ", prim.size, ");");
                    }
                    self.align_enc(4);
                    put_len(&mut self.w, &self.be.encoding, "buf", &(vexpr, ".len()"));
                    self.cur = self.cur.advance(4);
                } else if !ctx.covered && hoist {
                    put!(self.w; "buf.ensure(", len_expr, " * ", prim.size, " + 4);");
                }
                if prim.align > 1 {
                    self.align_enc(prim.align);
                }
                if prim.memcpy_compatible(prim.size) {
                    put!(self.w; "buf.put_bytes(pod::bytes_of(&", vexpr, "[..])); // memcpy run");
                } else {
                    put!(self.w; "buf.put_swapped(", prim.size, ", pod::bytes_of(&", vexpr,
                        "[..])); // swizzle run");
                }
                self.cur = match fixed_len {
                    Some(n) => self.cur.advance(n * u64::from(prim.size)),
                    None => self.cur.advance_by_multiple(u64::from(prim.size)),
                };
                self.put_pad(u64::from(prim.slot));
            }
            PlanNode::String { .. } => {
                if self.be.encoding.typed_descriptors {
                    self.mach_descriptor(8, 8, &(vexpr, ".len()"));
                }
                if !hoist {
                    self.w.put("buf.ensure(4);");
                } else if !ctx.covered {
                    put!(self.w; "buf.ensure(8 + ", vexpr, ".len());");
                }
                self.align_enc(4);
                if !hoist {
                    put!(self.w; "buf.ensure(", vexpr, ".len() + 4);");
                }
                if let Some(u) = put_str(&mut self.w, &self.be.encoding, "buf", vexpr) {
                    put!(self.w; "buf.align_to(", u, ");");
                }
                let prefix = u64::from(self.be.encoding.len_prefix().slot);
                self.cur = self.cur.advance(prefix).after_string(&self.be.encoding);
            }
            PlanNode::CountedArray {
                elem,
                elem_class,
                strided,
                image,
                ..
            } => {
                let described = self.array_descriptor(elem, &(vexpr, ".len()"));
                self.align_enc(4);
                if !hoist || !ctx.covered {
                    self.w.put("buf.ensure(4);");
                }
                put_len(&mut self.w, &self.be.encoding, "buf", &(vexpr, ".len()"));
                self.cur = self.cur.advance(4);
                if let (true, PlanNode::Packed { layout, .. }) = (*strided, &**elem) {
                    // The whole array is one region of `count × stride`
                    // bytes: one space check, one alignment.
                    match self.strided_align(layout) {
                        Align::Nothing => {}
                        Align::Pad(n) => put!(self.w; "if !", vexpr,
                            ".is_empty() { buf.put_zeros(", n, "); }"),
                        Align::Dynamic => put!(self.w; "if !", vexpr,
                            ".is_empty() { buf.align_from(_base, ", layout.align.min(8), "); }"),
                    }
                    if let Some(swap) = *image {
                        // §3.2 data copying one level up: the presented
                        // structs *are* the region's bytes, so it moves
                        // as a scalar run does — one copy or swap-copy.
                        match swap {
                            1 => put!(self.w; "buf.put_bytes(pod::bytes_of(", vexpr,
                                ")); // image run"),
                            w => put!(self.w; "buf.put_swapped(", w, ", pod::bytes_of(", vexpr,
                                ")); // swizzle image run"),
                        }
                        return Ok(());
                    }
                    // §3.2 chunk pointer advanced by a stride: every
                    // element is a fixed-size sub-chunk of the region.
                    let cvar = self.w.fresh("c");
                    put!(self.w; "let mut ", cvar, " = buf.chunk(", vexpr, ".len() * ",
                        layout.size, "); // strided chunks: one space check for the run");
                    let (svar, evar) = (self.w.fresh("s"), self.w.fresh("e"));
                    open!(self.w; "for (mut ", svar, ", ", evar, ") in ", cvar, ".strides(",
                        layout.size, ").zip(", vexpr, ") {");
                    self.chunk_stores(layout, &evar, svar);
                    self.w.close("}");
                    return Ok(());
                }
                // §3.1: a fixed-size element lets the whole array's
                // space be reserved in one step before the loop.
                let hoisted = match *elem_class {
                    SizeClass::Fixed(n) if hoist && !ctx.covered => {
                        put!(self.w; "buf.ensure(", vexpr, ".len() * ", n,
                            "); // hoisted from the loop");
                        true
                    }
                    _ => false,
                };
                let evar = self.w.fresh("e");
                if matches!(**elem, PlanNode::Prim { .. } | PlanNode::Enum { .. }) {
                    open!(self.w; "for ", evar, " in ", vexpr, ".iter().copied() {");
                } else {
                    open!(self.w; "for ", evar, " in ", vexpr, " {");
                }
                let saved = ctx.covered;
                ctx.covered = ctx.covered || hoisted;
                let outer = std::mem::replace(&mut self.described, described);
                let head = self.enter_loop(elem);
                self.emit_encode(elem, &evar, ctx)?;
                self.leave_loop(head, elem);
                self.described = outer;
                ctx.covered = saved;
                self.w.close("}");
                if let Some(prim) = elem.scalar() {
                    self.put_pad(u64::from(prim.slot));
                }
            }
            PlanNode::FixedArray { len, elem, .. } => {
                // The loop runs exactly `len` times: past it the cursor
                // is where `len` elements leave it, not the loop head.
                let exit = self.cur.after(node, &self.be.encoding);
                let described = self.array_descriptor(elem, len);
                let evar = self.w.fresh("e");
                if matches!(**elem, PlanNode::Prim { .. } | PlanNode::Enum { .. }) {
                    open!(self.w; "for ", evar, " in ", vexpr, ".iter().copied() {");
                } else {
                    open!(self.w; "for ", evar, " in ", vexpr, ".iter() {");
                }
                let outer = std::mem::replace(&mut self.described, described);
                let head = self.enter_loop(elem);
                self.emit_encode(elem, &evar, ctx)?;
                self.leave_loop(head, elem);
                self.described = outer;
                self.w.close("}");
                if let Some(prim) = elem.scalar() {
                    self.put_pad(len * u64::from(prim.slot));
                }
                self.cur = exit;
            }
            PlanNode::Struct { fields, .. } => {
                for (fname, f) in fields {
                    let (pre, post) = pass_from_place(f);
                    self.emit_encode(f, &(pre, vexpr, ".", fname, post), ctx)?;
                }
            }
            PlanNode::Union {
                type_name,
                disc_prim,
                cases,
                default,
            } => {
                self.align_enc(disc_prim.align);
                if !ctx.covered && hoist {
                    put!(self.w; "buf.ensure(", disc_prim.slot, ");");
                }
                open!(self.w; "match ", vexpr, " {");
                // Every arm starts past the discriminator; past the
                // match, the cursor is what all of them agree on.
                let at = self.cur.advance(u64::from(disc_prim.slot));
                let mut end: Option<Cursor> = None;
                // One arm per unique variant; for multi-label arms the
                // first label is the canonical encoding.
                for (i, (label, name, c)) in cases.iter().enumerate() {
                    if Variant::repeats(cases, i) {
                        continue;
                    }
                    let is_void = matches!(c, PlanNode::Void);
                    let bind = if is_void { "" } else { "(_x)" };
                    open!(self.w; type_name, "::", Variant(name), bind, " => {");
                    put!(self.w; Put(*disc_prim, &"buf", None, label));
                    self.cur = at;
                    if !is_void {
                        self.emit_encode(c, &pass_from_binding(c), ctx)?;
                    }
                    end = Some(end.map_or(self.cur, |e| e.join(self.cur)));
                    self.w.close("}");
                }
                if let Some((_, dflt)) = default {
                    let is_void = matches!(**dflt, PlanNode::Void);
                    let bind = if is_void { "" } else { ", _x" };
                    open!(self.w; type_name, "::Other(_d", bind, ") => {");
                    put!(self.w; Put(*disc_prim, &"buf", None, &"(*_d)"));
                    self.cur = at;
                    if !is_void {
                        self.emit_encode(dflt, &pass_from_binding(dflt), ctx)?;
                    }
                    end = Some(end.map_or(self.cur, |e| e.join(self.cur)));
                    self.w.close("}");
                }
                self.w.close("}");
                self.cur = end.unwrap_or(at);
            }
            PlanNode::Optional { flag, elem, .. } => {
                if !ctx.covered && hoist {
                    put!(self.w; "buf.ensure(", flag.slot, ");");
                }
                open!(self.w; "match ", vexpr, " {");
                self.w.open("Some(_inner) => {");
                put!(self.w; Put(*flag, &"buf", None, &"1u8"));
                let at = self.cur.advance(u64::from(flag.slot));
                self.cur = at;
                self.emit_encode(elem, &"(&**_inner)", ctx)?;
                self.cur = self.cur.join(at);
                self.w.close("}");
                self.w.open("None => {");
                put!(self.w; Put(*flag, &"buf", None, &"0u8"));
                self.w.close("}");
                self.w.close("}");
            }
            PlanNode::Outline { key } => {
                let base = self.base_arg();
                put!(self.w; "marshal_", sanitize(key), "(buf", base, ", ", vexpr, ");");
                self.cur = Cursor::UNKNOWN;
            }
        }
        Ok(())
    }

    // ================= decode =================

    fn align_dec(&mut self, align: u8) {
        match self.align_step(align) {
            Align::Nothing => {}
            Align::Pad(n) => put!(self.w; "r.skip(", n, ")?;"),
            Align::Dynamic => align_get(&mut self.w, &self.be.encoding, "_base", align),
        }
    }

    /// Reads (or, when `merge-prefix` hoisted it above the dispatch
    /// switch, reuses) the aligned u32 length prefix, and holds it to
    /// the declared `bound`.  Returns the local holding the count.
    fn read_len_prefix(&mut self, bound: Option<u64>) -> Tmp {
        let Some(pv) = self.prefetched_len.take() else {
            let enc = &self.be.encoding;
            let len = enc.len_prefix();
            self.align_dec(len.align);
            self.cur = self.cur.advance(u64::from(len.slot));
            return read_count(&mut self.w, &self.be.encoding, bound);
        };
        let lv = self.w.fresh("len");
        put!(self.w; "let ", lv, " = ", pv, "; // merge-prefix: count decoded above the switch");
        check_bound(&mut self.w, lv, bound);
        lv
    }

    fn skip_descriptor(&mut self) {
        if self.be.encoding.typed_descriptors {
            self.w.put("let _desc = flick_runtime::mach::get_type(r)?;");
            // One word or three, as the wire says: 4 bytes either way,
            // modulo 8.
            self.cur = self.cur.advance(4);
        }
    }

    /// Emits statements that decode `node`, returning the local
    /// holding the decoded value.
    fn emit_decode(&mut self, node: &PlanNode, borrowed: bool) -> Result<Tmp, String> {
        let types = self.types;
        Ok(match node {
            PlanNode::Void => {
                let v = self.w.fresh("v");
                put!(self.w; "let ", v, " = ();");
                v
            }
            PlanNode::Prim { prim, .. } | PlanNode::Enum { prim } => {
                if matches!(node, PlanNode::Prim { .. }) && !self.described {
                    self.skip_descriptor();
                }
                self.align_dec(prim.align);
                self.cur = self.cur.advance(u64::from(prim.slot));
                let v = self.w.fresh("v");
                put!(self.w; "let ", v, " = ", Get(*prim, None), ";");
                v
            }
            PlanNode::Packed { layout, region } => {
                self.align_dec(layout.align.min(8) as u8);
                self.cur = self.cur.advance(layout.size);
                let cvar = self.w.fresh("c");
                put!(self.w; "let ", cvar, " = r.chunk(", layout.size, ")?; // one truncation check");
                let v = self.w.fresh("v");
                self.w.indent_here();
                self.w.push(("let ", v, " = "));
                self.packed_value(region, &mut layout.items.iter(), cvar)?;
                self.w.push(";\n");
                v
            }
            PlanNode::MemcpyArray {
                prim,
                fixed_len,
                bound,
                ..
            } => {
                self.skip_descriptor();
                let ty = prim_rust_ty(*prim);
                let v = self.w.fresh("v");
                match fixed_len {
                    Some(n) => {
                        if prim.align > 1 {
                            self.align_dec(prim.align);
                        }
                        let bytes = n * u64::from(prim.size);
                        put!(self.w; "let mut ", v, " = [", Zero(ty), "; ", n, "];");
                        let (copy, what) = if prim.memcpy_compatible(prim.size) {
                            ("copy_into", "memcpy")
                        } else {
                            ("copy_swapped_into", "swizzle")
                        };
                        put!(self.w; "pod::", copy, "(r.bytes(", bytes, ")?, &mut ", v, "); // ",
                            what, " run");
                        self.cur = self.cur.advance(bytes);
                        self.skip_fixed_pad(*prim, *n);
                    }
                    None => {
                        let lv = self.read_len_prefix(*bound);
                        if prim.align > 1 {
                            self.align_dec(prim.align);
                        }
                        // One checked `count × size` and one
                        // truncation check for the whole run.
                        let (from, what) = if prim.memcpy_compatible(prim.size) {
                            ("vec_from_bytes", "memcpy")
                        } else {
                            ("vec_from_swapped", "swizzle")
                        };
                        put!(self.w; "let ", v, ": Vec<", ty, "> = pod::", from, "(r.run(", lv,
                            ", ", prim.size, ")?); // ", what, " run");
                        self.cur = self.cur.advance_by_multiple(u64::from(prim.size));
                        self.skip_counted_pad(*prim, lv);
                    }
                }
                v
            }
            PlanNode::String {
                bound, borrow_ok, ..
            } => {
                self.skip_descriptor();
                let lv = self.read_len_prefix(*bound);
                self.cur = self.cur.after_string(&self.be.encoding);
                read_str(&mut self.w, &self.be.encoding, lv, borrowed && *borrow_ok)
            }
            PlanNode::CountedArray {
                bound,
                elem,
                strided,
                image,
                ..
            } => {
                let described = described(&self.be.encoding, elem).is_some();
                if described {
                    self.skip_descriptor();
                }
                let lv = self.read_len_prefix(*bound);
                let v = self.w.fresh("v");
                let ety = types.owned(elem);
                if let (true, PlanNode::Packed { layout, region }) = (*strided, &**elem) {
                    // One checked `count × stride`, one truncation
                    // check and one alignment for the whole array; the
                    // exact-size vector is reserved only once the bytes
                    // are known to be there.
                    match self.strided_align(layout) {
                        Align::Nothing => {}
                        Align::Pad(n) => put!(self.w; "if ", lv, " > 0 { r.skip(", n, ")?; }"),
                        Align::Dynamic => put!(self.w; "if ", lv, " > 0 { r.align_from(_base, ",
                            layout.align.min(8), ")?; }"),
                    }
                    if let Some(swap) = *image {
                        // An image run: the bytes become the vector.
                        let size = layout.size;
                        match swap {
                            1 => put!(self.w; "let ", v, ": Vec<", ety,
                                "> = pod::vec_from_bytes(r.run(", lv, ", ", size,
                                ")?); // image run"),
                            w => put!(self.w; "let ", v, ": Vec<", ety,
                                "> = pod::vec_from_swapped_by(", w, ", r.run(", lv, ", ", size,
                                ")?); // swizzle image run"),
                        }
                        return Ok(v);
                    }
                    let cvar = self.w.fresh("c");
                    self.w.indent_here();
                    self.w
                        .push(("let ", v, ": Vec<", ety, "> = r.strides(", lv));
                    self.w.push((", ", layout.size, ")?.map(|", cvar, "| "));
                    self.packed_value(region, &mut layout.items.iter(), cvar)?;
                    self.w
                        .push(").collect(); // strided chunks: one truncation check for the run\n");
                    return Ok(v);
                }
                // Guard capacity against hostile counts: never reserve
                // more elements than the bytes present could encode,
                // sized by the *smallest* encoding of one element.
                let elem_min = elem.min_wire_size(&self.full.outlines).max(1);
                put!(self.w; "let mut ", v, ": Vec<", ety, "> = Vec::with_capacity(", lv,
                    ".min(r.remaining() / ", elem_min, " + 1));");
                let i = self.w.fresh("i");
                open!(self.w; "for ", i, " in 0..", lv, " {");
                // In-buffer presentation applies only to top-level
                // slots; element values are built owned.
                let outer = std::mem::replace(&mut self.described, described);
                let head = self.enter_loop(elem);
                let ev = self.emit_decode(elem, false)?;
                self.leave_loop(head, elem);
                self.described = outer;
                put!(self.w; v, ".push(", ev, ");");
                self.w.close("}");
                if let Some(prim) = elem.scalar() {
                    self.skip_counted_pad(prim, lv);
                }
                v
            }
            PlanNode::FixedArray { len, elem, .. } => {
                let block = self.w.fresh("v");
                open!(self.w; "let ", block, ": [", types.owned(elem), "; ", len, "] = {");
                let described = described(&self.be.encoding, elem).is_some();
                if described {
                    self.skip_descriptor();
                }
                let outer = std::mem::replace(&mut self.described, described);
                let base = self.vals.len();
                for _ in 0..*len {
                    let ev = self.emit_decode(elem, false)?;
                    self.vals.push(ev);
                }
                self.described = outer;
                self.w.indent_here();
                self.w.push("[");
                self.pop_vals(base);
                self.w.push("]\n");
                self.w.close("};");
                if let Some(prim) = elem.scalar() {
                    self.skip_fixed_pad(prim, *len);
                }
                block
            }
            PlanNode::Struct {
                type_name, fields, ..
            } => {
                let base = self.vals.len();
                for (_, f) in fields {
                    let fv = self.emit_decode(f, false)?;
                    self.vals.push(fv);
                }
                let v = self.w.fresh("v");
                self.w.indent_here();
                self.w.push(("let ", v, " = ", type_name, " { "));
                for (i, ((fname, _), fv)) in fields.iter().zip(self.vals.drain(base..)).enumerate()
                {
                    let sep = if i > 0 { ", " } else { "" };
                    self.w.push((sep, fname, ": ", fv));
                }
                self.w.push(" };\n");
                v
            }
            PlanNode::Union {
                type_name,
                disc_prim,
                cases,
                default,
            } => {
                self.align_dec(disc_prim.align);
                let at = self.cur.advance(u64::from(disc_prim.slot));
                let mut end: Option<Cursor> = None;
                let dv = self.w.fresh("d");
                put!(self.w; "let ", dv, " = (", Get(*disc_prim, None), ") as i64;");
                let v = self.w.fresh("v");
                open!(self.w; "let ", v, " = match ", dv, " {");
                for (label, name, c) in cases {
                    let variant = Variant(name);
                    open!(self.w; label, " => {");
                    self.cur = at;
                    if matches!(c, PlanNode::Void) {
                        put!(self.w; type_name, "::", variant);
                    } else {
                        let cv = self.emit_decode(c, false)?;
                        put!(self.w; type_name, "::", variant, "(", cv, ")");
                    }
                    end = Some(end.map_or(self.cur, |e| e.join(self.cur)));
                    self.w.close("}");
                }
                match default {
                    Some((_, dflt)) => {
                        self.w.open("_other => {");
                        self.cur = at;
                        if matches!(**dflt, PlanNode::Void) {
                            put!(self.w; type_name, "::Other(_other)");
                        } else {
                            let cv = self.emit_decode(dflt, false)?;
                            put!(self.w; type_name, "::Other(_other, ", cv, ")");
                        }
                        end = Some(end.map_or(self.cur, |e| e.join(self.cur)));
                        self.w.close("}");
                    }
                    None => self.w.put(
                        "_other => return Err(DecodeError::BadDiscriminator { value: _other }),",
                    ),
                }
                self.w.close("};");
                self.cur = end.unwrap_or(at);
                v
            }
            PlanNode::Optional { flag, elem, .. } => {
                let fv = self.w.fresh("flag");
                put!(self.w; "let ", fv, " = ", Get(*flag, None), ";");
                let at = self.cur.advance(u64::from(flag.slot));
                self.cur = at;
                let v = self.w.fresh("v");
                open!(self.w; "let ", v, " = match ", fv, " {");
                self.w.put("0 => None,");
                self.w.open("1 => {");
                let ev = self.emit_decode(elem, false)?;
                self.cur = self.cur.join(at);
                put!(self.w; "Some(Box::new(", ev, "))");
                self.w.close("}");
                self.w.put(
                    "_ => return Err(DecodeError::BadValue(\"optional flag must be 0 or 1\")),",
                );
                self.w.close("};");
                v
            }
            PlanNode::Outline { key } => {
                let v = self.w.fresh("v");
                let base = self.base_arg();
                put!(self.w; "let ", v, " = unmarshal_", sanitize(key), "(r", base, ")?;");
                self.cur = Cursor::UNKNOWN;
                v
            }
        })
    }

    /// Writes the decode-side value expression for a packed region:
    /// walks the region the chunk replaced, taking each scalar leaf's
    /// offset from the next of the chunk's `items`, which the packer
    /// laid out in the same order.
    fn packed_value(
        &mut self,
        region: &PlanNode,
        items: &mut std::slice::Iter<'_, PackedItem>,
        cvar: Tmp,
    ) -> Result<(), String> {
        let stale = || format!("packed items out of step with the region at {region:?}");
        match region {
            PlanNode::Void => self.w.push("()"),
            PlanNode::Prim { .. } | PlanNode::Enum { .. } => {
                let Some(&PackedItem::Prim { offset, prim, .. }) = items.next() else {
                    return Err(stale());
                };
                self.w.push(Get(prim, Some((cvar, &offset))));
            }
            PlanNode::FixedArray { len, elem, .. } => {
                if let PlanNode::Prim { prim } = **elem {
                    if prim.forms_run() {
                        let Some(&PackedItem::PrimRun { offset: off, .. }) = items.next() else {
                            return Err(stale());
                        };
                        let z = Zero(prim_rust_ty(prim));
                        self.w.push(("{ let mut _a = [", z, "; ", len, "]; "));
                        if self.full.memcpy && prim.memcpy_compatible(prim.size) {
                            let bytes = len * u64::from(prim.size);
                            let at = (off, ", ", bytes);
                            self.w.push((
                                "pod::copy_into(",
                                cvar,
                                ".bytes_at(",
                                at,
                                "), &mut _a); _a }",
                            ));
                        } else {
                            self.w.push((
                                "for _i in 0..",
                                len,
                                "usize { _a[_i] = ",
                                Get(prim, Some((cvar, &(off, " + _i * ", prim.slot)))),
                                "; } _a }",
                            ));
                        }
                        return Ok(());
                    }
                }
                // Unrolled non-scalar (or padded-slot) elements.
                self.w.push("[");
                for i in 0..*len {
                    if i > 0 {
                        self.w.push(", ");
                    }
                    self.packed_value(elem, items, cvar)?;
                }
                self.w.push("]");
            }
            PlanNode::Struct {
                type_name, fields, ..
            } => {
                self.w.push((type_name, " { "));
                for (i, (fname, f)) in fields.iter().enumerate() {
                    let sep = if i > 0 { ", " } else { "" };
                    self.w.push((sep, fname, ": "));
                    self.packed_value(f, items, cvar)?;
                }
                self.w.push(" }");
            }
            other => return Err(format!("non-fixed node {other:?} inside packed region")),
        }
        Ok(())
    }

    // ================= outlines =================

    fn outline_fns(&mut self, key: &str, body: &PlanNode) -> Result<(), String> {
        let k = sanitize(key);
        let types = self.types;
        self.w.push((
            "/// Out-of-line marshal for `",
            key,
            "` (recursive type, or inlining disabled).\n",
        ));
        // A body aligns against its caller's `_base`, and may be
        // called at any offset: the cursor starts unknown.
        let base = if self.be.encoding.widen_to_word {
            ""
        } else {
            ", _base: usize"
        };
        open!(self.w; "pub fn marshal_", &k, "(buf: &mut MarshalBuf", base, ", v: ",
            types.borrowed(body), ") {");
        self.cur = Cursor::UNKNOWN;
        self.emit_encode(body, &"v", &mut EncCtx { covered: false })?;
        self.w.close("}");
        self.w.put("");

        self.w.push((
            "/// Out-of-line unmarshal for `",
            key,
            "`.\npub fn unmarshal_",
            &k,
        ));
        open!(self.w; "(r: &mut MsgReader<'_>", base, ") -> Result<", types.owned(body),
            ", DecodeError> {");
        self.cur = Cursor::UNKNOWN;
        let v = self.emit_decode(body, false)?;
        put!(self.w; "Ok(", v, ")");
        self.w.close("}");
        self.w.put("");
        Ok(())
    }

    // ================= server scaffolding =================

    fn server_trait(&mut self, stubs: &[&StubPlan]) {
        let types = self.types;
        self.w
            .push("/// The server-side work interface (implemented by user code).\n");
        self.w.open("pub trait Server {");
        for stub in stubs {
            self.w.indent_here();
            self.w.push(("fn ", sanitize(&stub.op.name), "(&mut self"));
            // A dead slot is never presented to the server.
            for slot in stub.request.slots.iter().filter(|s| s.live) {
                self.w.push((", ", sanitize(&slot.name), ": "));
                if in_place(slot) {
                    self.w.push("&str");
                } else {
                    self.w.push(types.owned(&slot.node));
                }
            }
            self.w.push(")");
            self.server_ret(stub);
            self.w.push(";\n");
        }
        self.w.close("}");
        self.w.put("");
    }

    /// Writes ` -> T`, what the server's work function returns, unless
    /// that is nothing.
    fn server_ret(&mut self, stub: &StubPlan) {
        let types = self.types;
        let mut live = stub.reply.slots.iter().filter(|s| s.live);
        let (first, second) = (live.next(), live.next());
        let Some(first) = first.filter(|_| !stub.op.oneway) else {
            return;
        };
        let inner = types.owned(&first.node);
        if second.is_some() {
            self.w.push(" -> (");
            for slot in stub.reply.slots.iter().filter(|s| s.live) {
                self.w.push((types.owned(&slot.node), ", "));
            }
            self.w.push(")");
        } else if first.alias.is_some() {
            // `reply-alias`: the server declares mutation through the
            // copy-on-write `Echoed` contract instead of returning the
            // value unconditionally.
            self.w.push((" -> flick_runtime::Echoed<", inner, ">"));
        } else if !matches!(first.node, PlanNode::Void) {
            self.w.push((" -> ", inner));
        }
    }

    /// One operation's arm: the operation's own message functions
    /// around the server call, so a client agrees on every byte.
    fn dispatch_arm(&mut self, stub: &StubPlan, prefetched: Option<Tmp>) -> Result<(), String> {
        let op = sanitize(&stub.op.name);
        // Server span for this request, parented to the trace context
        // the transport header carried; the phase marks below feed
        // per-phase child spans and `rpc.<op>.server`.
        put!(self.w; "let mut _sspan = flick_runtime::trace::server_begin(\"", op, "\");");
        let base = self.vals.len();
        match prefetched {
            // Under a `merge-prefix` count: in line, with the switch's
            // reader, `_base` and cursor; the first length read is it.
            Some(count) => {
                self.prefetched_len = Some(count);
                for slot in &stub.request.slots {
                    if !slot.live {
                        put!(self.w; "// dead slot `", slot.name, "`: decoded and discarded");
                    }
                    let v = self.emit_decode(&slot.node, in_place(slot))?;
                    if slot.live {
                        self.vals.push(v);
                    }
                    if self.prefetched_len.is_some() {
                        break;
                    }
                }
                if self.prefetched_len.take().is_some() {
                    return Err(format!(
                        "merge-prefix: the first request slot of `{}` does not read the count",
                        stub.op.name
                    ));
                }
            }
            None => {
                self.w.put("let mut r = MsgReader::new(body);");
                self.w.indent_here();
                if stub.request.slots.iter().any(|s| s.live) {
                    self.w.push("let (");
                    for _ in stub.request.slots.iter().filter(|s| s.live) {
                        let v = self.w.fresh("v");
                        self.w.push((v, ", "));
                        self.vals.push(v);
                    }
                    self.w.push(") = ");
                }
                self.w.push(("decode_", &op, "_request(&mut r)?;\n"));
            }
        }
        self.w
            .put("_sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);");
        let live_replies = stub.reply.slots.iter().filter(|s| s.live).count();
        let returns = !stub.op.oneway && live_replies > 0;
        self.w.indent_here();
        self.w
            .push((if returns { "let _ret = " } else { "" }, "srv.", &op, "("));
        self.pop_vals(base);
        self.w.push(");\n");
        self.w
            .put("_sspan.phase(flick_runtime::trace::Phase::Work, 0);");
        if !stub.op.oneway && !stub.reply.slots.is_empty() {
            let alias = stub.reply.slots.iter().find_map(|s| s.alias);
            let encode = Show(|out: &mut String| {
                ("encode_", &op, "_reply(reply").write(out);
                for (i, slot) in stub.reply.slots.iter().filter(|s| s.live).enumerate() {
                    let (pre, post) = pass_from_place(&slot.node);
                    if alias.is_some() {
                        // The `Echoed::Changed` arm binds the mutated value.
                        (", ", pre, "_changed", post).write(out);
                    } else if live_replies == 1 {
                        (", ", pre, "_ret", post).write(out);
                    } else {
                        (", ", pre, "_ret.", i, post).write(out);
                    }
                }
                out.push(')');
            });
            match alias {
                // `reply-alias` (§3.2 copy avoidance): through the
                // copy-on-write `Echoed` contract, `Unchanged` answers
                // with the validated request bytes at their static range.
                Some(j) => {
                    let (at, size) = echoed_range(&stub.request.slots, j)
                        .ok_or("reply-alias: an echoed request slot at no static range")?;
                    self.w.open("match _ret {");
                    put!(self.w; "flick_runtime::Echoed::Unchanged => reply.put_bytes(&body[", at,
                        "..", at + size, "]), // reply-alias: reuse request bytes");
                    put!(self.w; "flick_runtime::Echoed::Changed(_changed) => ", encode, ",");
                    self.w.close("}");
                }
                None => put!(self.w; encode, ";"),
            }
            self.w
                .put("_sspan.phase(flick_runtime::trace::Phase::Encode, reply.len() as u64);");
        }
        self.w.put("_sspan.finish(reply.len() as u64);");
        self.w.put("Ok(())");
        Ok(())
    }

    fn dispatch_numeric(&mut self, stubs: &[&StubPlan]) -> Result<(), String> {
        self.w.push(
            "/// Server dispatch on a numeric discriminator (ONC procedure\n\
             /// number, Mach message id).  Each arm calls its operation's\n\
             /// message functions, which are inlined into it (§3.3).\n",
        );
        self.w.open("pub fn dispatch<S: Server>(proc: u32, body: &[u8], reply: &mut MarshalBuf, srv: &mut S) -> Result<(), DecodeError> {");
        self.w.open("match proc {");
        for stub in stubs {
            open!(self.w; stub.op.request_code, "u32 => {");
            self.dispatch_arm(stub, None)?;
            self.w.close("}");
        }
        self.w
            .put("_ => Err(DecodeError::BadDiscriminator { value: i64::from(proc) }),");
        self.w.close("}");
        self.w.close("}");
        self.w.put("");
        Ok(())
    }

    fn dispatch_by_name(&mut self, stubs: &[&StubPlan], demux: &Demux) -> Result<(), String> {
        match demux {
            Demux::Trie(root) => {
                self.w.push(
                    "/// Reads a zero-padded machine word of the discriminator (§3.3:\n\
                     /// \"Flick generates demultiplexing code that examines machine\n\
                     /// word-size chunks of the discriminator\").\n\
                     #[inline]\nfn word_at(s: &[u8], i: usize) -> u32 {\n\
                     \x20   let mut w = [0u8; 4];\n\
                     \x20   if i < s.len() {\n\
                     \x20       let n = (s.len() - i).min(4);\n\
                     \x20       w[..n].copy_from_slice(&s[i..i + n]);\n\
                     \x20   }\n\
                     \x20   u32::from_ne_bytes(w)\n}\n\n\
                     /// Server dispatch on a string discriminator (the IIOP operation\n\
                     /// name), demultiplexed word by word with nested switches.\n",
                );
                self.w.open(DISPATCH_BY_NAME);
                self.trie_node(root, stubs, None)?;
            }
            Demux::Linear => {
                self.w.push(
                    "/// Server dispatch on a string discriminator (the IIOP operation\n\
                     /// name), compared name by name (`demux-switch` disabled).\n",
                );
                self.w.open(DISPATCH_BY_NAME);
                for stub in stubs {
                    open!(self.w; "if op == &b\"", stub.op.wire_name, "\"[..] {");
                    self.dispatch_arm(stub, None)?;
                    self.w.close("} else");
                }
                self.w.open("{");
                self.w
                    .put("Err(DecodeError::BadDiscriminator { value: op.len() as i64 })");
                self.w.close("}");
            }
        }
        self.w.close("}");
        self.w.put("");
        Ok(())
    }

    /// Generates the §3.3 nested word switches from the demux trie the
    /// `demux-switch` pass built.
    fn trie_node(
        &mut self,
        node: &DemuxNode,
        stubs: &[&StubPlan],
        mut prefetched: Option<Tmp>,
    ) -> Result<(), String> {
        let mut base = None;
        if prefetched.is_none() && !node.prefix.is_empty() {
            // `merge-prefix` hoisted the shared leading count above the
            // word switch: every operation below this node decodes it
            // here, once, instead of per arm.
            self.w.put("let mut r = MsgReader::new(body);");
            self.w.put("let r = &mut r;");
            base = Some(self.bind_base("r.pos()", Cursor::START));
            for step in &node.prefix {
                match step {
                    PrefixStep::LenU32 => {
                        self.align_dec(4);
                        self.cur = self.cur.advance(4);
                        let pv = self.w.fresh("plen");
                        put!(self.w; "let ", pv, " = ", len_get(&self.be.encoding),
                            "; // merge-prefix: shared count for every arm below");
                        prefetched = Some(pv);
                    }
                }
            }
        }
        // Every arm below a merged prefix starts where the prefix ended.
        let at = self.cur;
        open!(self.w; "match word_at(op, ", node.word * 4, ") {");
        for (w, arm) in &node.arms {
            self.cur = at;
            match arm {
                DemuxArm::Op(name) => {
                    let s = stubs
                        .iter()
                        .find(|s| s.op.name == *name)
                        .ok_or_else(|| format!("demux trie names unknown operation `{name}`"))?;
                    open!(self.w; w, "u32 if op.len() == ", s.op.wire_name.len(), " => { // \"",
                        s.op.wire_name, "\"");
                    self.dispatch_arm(s, prefetched)?;
                    self.w.close("}");
                }
                DemuxArm::Descend(child) => {
                    open!(self.w; w, "u32 => {");
                    self.trie_node(child, stubs, prefetched)?;
                    self.w.close("}");
                }
            }
        }
        self.w
            .put("_ => Err(DecodeError::BadDiscriminator { value: op.len() as i64 }),");
        self.w.close("}");
        if let Some(base) = base {
            self.end_base(base);
        }
        Ok(())
    }
}

/// True when the transport names the operation on the wire (GIOP over
/// CDR): the module's one dispatcher switches on that name, not on a
/// procedure number.
fn demuxes_by_name(enc: &Encoding) -> bool {
    matches!(enc.name, "cdr-be" | "cdr-le")
}

/// True when the server takes the slot's string in the receive buffer
/// (§3.1; `reuse-slots`), so its decoder returns a `&str`.
fn in_place(slot: &SlotPlan) -> bool {
    match slot.node {
        PlanNode::String { borrow_ok, .. } => borrow_ok && slot.storage == SlotStorage::Arena,
        _ => false,
    }
}

/// The signature line both string dispatchers open.
const DISPATCH_BY_NAME: &str = "pub fn dispatch_by_name<S: Server>(op: &[u8], body: &[u8], reply: &mut MarshalBuf, srv: &mut S) -> Result<(), DecodeError> {";

struct EncCtx {
    /// True when an enclosing `ensure` already covers this region.
    covered: bool,
}

/// `name` as a Rust identifier: itself, unless a character has to go.
fn sanitize(name: &str) -> Cow<'_, str> {
    let clean = |c: char| c.is_ascii_alphanumeric() || c == '_';
    if name.chars().all(clean) && !name.starts_with(|c: char| c.is_ascii_digit()) {
        return Cow::Borrowed(name);
    }
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    Cow::Owned(out)
}

fn mach_name(prim: WirePrim) -> u8 {
    match (prim.size, prim.float) {
        (4, true) => 25,
        (8, true) => 26,
        (1, _) => 9,
        (8, _) => 11,
        _ => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Transport;
    use flick_idl::diag::Diagnostics;
    use flick_pres::Side;

    fn rust_for(idl: &str, iface: &str, t: Transport) -> String {
        let aoi = flick_frontend_corba::parse_str("t.idl", idl);
        let mut d = Diagnostics::new();
        let p = flick_presgen::corba_c(&aoi, iface, Side::Server, &mut d).expect("presentation");
        let be = BackEnd::new(t);
        be.compile(&p).expect("compiles").rust_source
    }

    const DIR_IDL: &str = r"
        struct Stat { long fields[30]; char tag[16]; };
        struct Dirent { string name; Stat info; };
        typedef sequence<Dirent> DirentSeq;
        interface Directory { void send_dirents(in DirentSeq entries); };
    ";

    #[test]
    fn emits_expected_shapes_for_dirents() {
        let src = rust_for(DIR_IDL, "Directory", Transport::OncTcp);
        assert!(src.contains("pub struct Stat {"), "{src}");
        assert!(src.contains("pub struct Dirent {"), "{src}");
        assert!(src.contains("pub name: String,"), "{src}");
        assert!(src.contains("pub fn encode_send_dirents_request"), "{src}");
        assert!(src.contains("pub fn decode_send_dirents_request"), "{src}");
        // The 136-byte stat chunk (§3.2 chunking).
        assert!(src.contains("buf.chunk(136)"), "{src}");
        assert!(src.contains("r.chunk(136)"), "{src}");
        assert!(src.contains("memcpy run"), "{src}");
        assert!(src.contains("pub fn dispatch<S: Server>"), "{src}");
        assert!(src.contains("1u32 => {"), "{src}");
    }

    #[test]
    fn element_loops_write_and_skip_the_pad_a_run_would() {
        // XDR packs byte-wide array elements and pads the array to its
        // 4-byte unit.  Under `--no-opt` the arrays keep their element
        // loops, which then owe that pad themselves: 5 tag bytes + 3,
        // and a counted blob's computed pad.
        let idl = "struct T { char tag[5]; }; typedef sequence<octet> Blob; \
                   interface I { void put(in T t, in Blob b); };";
        let aoi = flick_frontend_corba::parse_str("t.idl", idl);
        let mut d = Diagnostics::new();
        // Client side: the C unit encodes requests in its call stubs.
        let p = flick_presgen::corba_c(&aoi, "I", Side::Client, &mut d).expect("presentation");
        let mut be = BackEnd::new(Transport::OncTcp);
        be.passes = crate::PassSet::none();
        let out = be.compile(&p).expect("compiles");
        let src = &out.rust_source;
        assert!(
            src.contains("buf.put_u8((_e"),
            "bytes, not widened slots:\n{src}"
        );
        assert_eq!(src.matches("buf.align_to(4);").count(), 2, "{src}");
        assert!(src.contains("r.skip(3)?;"), "{src}");
        assert!(src.contains(" * 1) % 4) % 4)?;"), "{src}");
        assert_eq!(out.c_source.matches("flick_pad(_buf, 4);").count(), 2);
        // CDR pads nothing.
        be.encoding = crate::Encoding::cdr_be();
        let out = be.compile(&p).expect("compiles");
        assert!(!out.rust_source.contains("align_to") && !out.rust_source.contains("r.skip("));
        assert!(!out.c_source.contains("flick_pad"));
    }

    #[test]
    fn negative_labels_and_wide_bounds_spell_in_decimal() {
        // No checked-in interface has either, and both are written by
        // the emitter's own integer pieces.
        let src = rust_for(
            r"union U switch (long) { case -1: long a; case -2147483648: short b; };
              typedef sequence<long, 5000000000> Big;
              interface I { void put(in U u, in Big b); };",
            "I",
            Transport::IiopTcp,
        );
        assert!(src.contains("buf.put_u32_le((-1) as u32);"), "{src}");
        assert!(
            src.contains("buf.put_u32_le((-2147483648) as u32);"),
            "{src}"
        );
        assert!(src.contains("\n        -1 => {\n"), "{src}");
        assert!(src.contains("\n        -2147483648 => {\n"), "{src}");
        assert!(
            src.contains(
                "if _len6 as u64 > 5000000000 { return Err(DecodeError::BoundExceeded \
                 { got: _len6 as u64, bound: 5000000000 }); }"
            ),
            "{src}"
        );
    }

    #[test]
    fn word_switch_demux_generated() {
        let src = rust_for(
            r"interface Multi {
                void send_mail(in long a);
                void send_file(in long a);
                void stop();
            };",
            "Multi",
            Transport::IiopTcp,
        );
        assert!(src.contains("fn word_at"), "{src}");
        // `send_mail` and `send_file` share their first word, so the
        // trie must descend to a second word.
        assert!(src.contains("word_at(op, 4)"), "{src}");
        assert!(src.contains("// \"send_mail\""), "{src}");
    }

    #[test]
    fn each_module_carries_the_one_dispatcher_its_entry_point_calls() {
        // GIOP names the operation on the wire; ONC, Mach 3 and Fluke
        // carry a number.  Exactly one dispatcher is emitted, and the
        // robust entry (where the transport has one) calls it.
        let aoi = flick_frontend_corba::parse_str(
            "bench.idl",
            include_str!("../../../testdata/bench.idl"),
        );
        let mut d = Diagnostics::new();
        let p = flick_presgen::corba_c(&aoi, "Bench", Side::Server, &mut d).expect("presentation");
        for (t, dispatcher, entry) in [
            (
                Transport::IiopTcp,
                "dispatch_by_name",
                Some("handle_message"),
            ),
            (Transport::OncTcp, "dispatch", Some("handle_call")),
            (Transport::OncUdp, "dispatch", Some("handle_call")),
            (Transport::Mach3, "dispatch", None),
            (Transport::Fluke, "dispatch", None),
        ] {
            let src = BackEnd::new(t).compile(&p).expect("compiles").rust_source;
            let defs =
                ["pub fn dispatch<", "pub fn dispatch_by_name<"].map(|d| src.matches(d).count());
            assert_eq!(defs.iter().sum::<usize>(), 1, "{t:?}:\n{src}");
            assert!(src.contains(&format!("pub fn {dispatcher}<")), "{t:?}");
            match entry {
                Some(entry) => {
                    assert!(src.contains(&format!("pub fn {entry}<")), "{t:?}");
                    let call = format!("match {dispatcher}(");
                    assert_eq!(src.matches(&call).count(), 1, "{t:?}:\n{src}");
                }
                None => assert!(!src.contains("match dispatch"), "{t:?}:\n{src}"),
            }
        }
    }

    #[test]
    fn braces_balance() {
        let src = rust_for(DIR_IDL, "Directory", Transport::OncTcp);
        assert_eq!(
            src.matches('{').count(),
            src.matches('}').count(),
            "unbalanced braces:\n{src}"
        );
    }

    #[test]
    fn hoisted_ensure_for_fixed_message() {
        let src = rust_for(
            "struct P { long a; long b; }; interface I { void put(in P p); };",
            "I",
            Transport::OncTcp,
        );
        // Two longs; the procedure number is in the call header.
        assert!(
            src.contains("buf.ensure(8); // whole message is fixed-size"),
            "{src}"
        );
    }

    #[test]
    fn loop_hoisted_ensure_for_fixed_elements() {
        // A 5-byte CDR chunk aligned to 4 does not tile, so the array
        // keeps its loop: one chunk per element.  A union beside it
        // keeps the message from being sized by its values, so the
        // space check is hoisted out in front of the loop.
        let src = rust_for(
            r"
            struct R { long a; char c; };
            typedef sequence<R> Rs;
            union U switch (long) { case 1: long x; };
            interface I { void put(in Rs rs, in U u); };
            ",
            "I",
            Transport::IiopTcp,
        );
        assert!(src.contains("* 5); // hoisted from the loop"), "{src}");
        assert!(src.contains("buf.chunk(5)"), "{src}");
    }

    #[test]
    fn a_message_sized_by_its_values_is_reserved_once() {
        // Without the union the whole message is reserved up front: the
        // count, 5 bytes and an unknown pad of at most 3 per element,
        // then the string's pad (at most 3), count, bytes and NUL — and
        // no check is left inside the loop.
        let src = rust_for(
            r"
            struct R { long a; char c; };
            typedef sequence<R> Rs;
            interface I { void put(in Rs rs, in string s); };
            ",
            "I",
            Transport::IiopTcp,
        );
        let reserve =
            "buf.ensure(12 + rs.len() * 8 + s.len()); // whole message, sized by its values";
        assert!(src.contains(reserve), "{src}");
        let encoder = src
            .split("pub fn encode_put_request")
            .nth(1)
            .expect("encoder");
        let encoder = &encoder[..encoder.find("\n}\n").expect("its end")];
        assert_eq!(encoder.matches("ensure(").count(), 1, "{encoder}");
    }

    fn bench_x_onc(disable: &[&str]) -> String {
        let aoi =
            flick_frontend_onc::parse_str("bench.x", include_str!("../../../testdata/bench.x"));
        let mut d = Diagnostics::new();
        let p = flick_presgen::rpcgen_c(&aoi, "Bench", Side::Server, &mut d).expect("presentation");
        let mut be = BackEnd::new(Transport::OncTcp);
        for pass in disable {
            be.passes = be.passes.without(pass).expect("removable");
        }
        be.compile(&p).expect("compiles").rust_source
    }

    #[test]
    fn foreign_order_int_array_is_one_swizzle_run_at_every_site() {
        if !cfg!(target_endian = "little") {
            return; // XDR is the host's order: plain memcpy runs
        }
        let src = bench_x_onc(&[]);
        // Standalone encode/decode: one kernel call each, behind one
        // checked count × size.
        assert_eq!(
            src.matches("buf.put_swapped(4, pod::bytes_of(&vals[..])); // swizzle run")
                .count(),
            1,
            "{src}"
        );
        assert_eq!(
            src.matches("pod::vec_from_swapped(r.run(").count(),
            1,
            "{src}"
        );
        assert!(!src.contains("for _e1 in vals.iter().copied()"), "{src}");
        // The call stub reaches the kernel through the encode fn, the
        // module's one (numeric) dispatch arm through the decode fn.
        assert!(
            src.contains("encode_send_ints_request(&mut buf, vals);"),
            "{src}"
        );
        assert!(
            src.contains("= decode_send_ints_request(&mut r)?;"),
            "{src}"
        );
        // Pass off: the element loop, and no marker.
        let off = bench_x_onc(&["coalesce-memcpy"]);
        assert!(!off.contains("swizzle run"), "{off}");
        assert!(off.contains(".iter().copied() {"), "{off}");
    }

    #[test]
    fn array_of_chunks_is_one_strided_region() {
        // `rect` is its own wire image, so it takes the run below; a
        // struct with a widened `short` tiles but is no image, and
        // keeps the strided chunks.
        let src = rust_for(
            r"
            struct H { long a; short b; };
            typedef sequence<H> Hs;
            interface I { void put(in Hs hs); };
            ",
            "I",
            Transport::OncTcp,
        );
        assert!(
            src.contains("buf.chunk(hs.len() * 8); // strided chunks: one space check"),
            "{src}"
        );
        assert!(src.contains(".strides(8).zip(hs)"), "{src}");
        // Decode: the standalone fn, which the one dispatcher's arm
        // calls; one truncation check and no capacity guessed from the
        // count.
        assert_eq!(src.matches("r.strides(").count(), 1, "{src}");
        assert!(src.contains("= decode_put_request(&mut r)?;"), "{src}");
        assert!(!src.contains("r.remaining() / 8"), "{src}");
        assert!(
            !src.contains("repr(C)") && !src.contains("pod::Pod"),
            "{src}"
        );
        let off = bench_x_onc(&["form-chunks"]);
        assert!(!off.contains("strided chunks"), "{off}");
        // With `coalesce-memcpy` off the image struct strides too.
        let off = bench_x_onc(&["coalesce-memcpy"]);
        assert!(
            off.contains("buf.chunk(rects.len() * 16); // strided chunks: one space check"),
            "{off}"
        );
        assert_eq!(off.matches("r.strides(").count(), 1, "{off}");
    }

    #[test]
    fn array_of_wire_image_structs_is_one_run_at_every_site() {
        let src = bench_x_onc(&[]);
        let (put, get) = if cfg!(target_endian = "little") {
            (
                "buf.put_swapped(4, pod::bytes_of(rects)); // swizzle image run",
                "pod::vec_from_swapped_by(4, r.run(",
            )
        } else {
            (
                "buf.put_bytes(pod::bytes_of(rects)); // image run",
                "pod::vec_from_bytes(r.run(",
            )
        };
        // Standalone encode/decode; the call stub reaches the run
        // through the encode fn, the one dispatcher's arm through the
        // decode fn.
        assert_eq!(src.matches(put).count(), 1, "{src}");
        assert_eq!(src.matches(get).count(), 1, "{src}");
        assert!(
            src.contains("encode_send_rects_request(&mut buf, rects);"),
            "{src}"
        );
        assert!(
            src.contains("= decode_send_rects_request(&mut r)?;"),
            "{src}"
        );
        assert!(!src.contains("strided chunks"), "{src}");
        // The moved struct and the struct inside it fix their field
        // order; only the moved one is declared plain old data, once,
        // with its size held to the wire's.
        assert!(src.contains("#[repr(C)]\n#[derive(Clone, Debug, PartialEq)]\npub struct point {"));
        assert!(src.contains("#[repr(C)]\n#[derive(Clone, Debug, PartialEq)]\npub struct rect {"));
        assert_eq!(src.matches("#[repr(C)]\n").count(), 2, "{src}");
        assert_eq!(
            src.matches("unsafe impl flick_runtime::pod::Pod for rect {}")
                .count(),
            1,
            "{src}"
        );
        assert_eq!(src.matches("unsafe ").count(), 1, "{src}");
        assert!(
            src.contains("const _: () = assert!(std::mem::size_of::<rect>() == 16);"),
            "{src}"
        );
        // Either pass the decision rides on takes it away, types and all.
        for pass in ["coalesce-memcpy", "form-chunks"] {
            let off = bench_x_onc(&[pass]);
            assert!(!off.contains("image run"), "{off}");
            assert!(
                !off.contains("repr(C)") && !off.contains("pod::Pod"),
                "{off}"
            );
        }
    }

    #[test]
    fn native_order_image_run_is_a_block_copy() {
        // An 8-aligned image: one alignment before the run, skipped
        // when it is empty, then the bytes themselves.  The count
        // leaves the cursor 4 bytes past an 8-byte boundary, so the
        // alignment is a constant pad.
        let src = rust_for(
            r"
            struct S { double d; long n; long m; };
            typedef sequence<S> Ss;
            interface I { void put(in Ss ss); };
            ",
            "I",
            Transport::IiopTcp,
        );
        assert!(
            src.contains("if !ss.is_empty() { buf.put_zeros(4); }"),
            "{src}"
        );
        assert!(
            src.contains("buf.put_bytes(pod::bytes_of(ss)); // image run"),
            "{src}"
        );
        assert!(src.contains(" > 0 { r.skip(4)?; }"), "{src}");
        assert!(!src.contains("align_from"), "{src}");
        // Standalone decode, which the one (word-switch) dispatch arm
        // calls.
        assert_eq!(
            src.matches("pod::vec_from_bytes(r.run(").count(),
            1,
            "{src}"
        );
        assert!(src.contains("= decode_put_request(&mut r)?;"), "{src}");
        assert!(
            src.contains("assert!(std::mem::size_of::<S>() == 16);"),
            "{src}"
        );
    }

    #[test]
    fn wide_chunks_align_once_and_only_when_nonempty() {
        // An 8-aligned CDR chunk (no image: it holds a `boolean`):
        // the per-element alignment becomes one alignment before the
        // run, skipped for an empty array (whose elements never
        // aligned either).  The string before it leaves the offset
        // unknown, so the alignment is computed from `_base`.
        let src = rust_for(
            r"
            struct S { double d; long n; boolean on; char tag[3]; };
            typedef sequence<S> Ss;
            interface I { void put(in string tag, in Ss ss); };
            ",
            "I",
            Transport::IiopTcp,
        );
        assert!(
            src.contains("if !ss.is_empty() { buf.align_from(_base, 8); }"),
            "{src}"
        );
        assert_eq!(src.matches("buf.align_from(_base, 8);").count(), 1, "{src}");
        assert!(src.contains(" > 0 { r.align_from(_base, 8)?; }"), "{src}");
    }

    #[test]
    fn capacity_hint_divides_by_the_smallest_element() {
        // A dirent is a string (4-byte count when empty) plus the
        // 136-byte stat: 140 bytes at least, so a count may reserve at
        // most remaining/140 + 1 elements — not remaining/1.
        let src = rust_for(DIR_IDL, "Directory", Transport::OncTcp);
        assert!(src.contains("r.remaining() / 140 + 1"), "{src}");
        assert!(!src.contains("r.remaining() / 1 + 1"), "{src}");
        // CDR strings carry at least their NUL.
        let src = rust_for(DIR_IDL, "Directory", Transport::IiopTcp);
        assert!(src.contains("r.remaining() / 141 + 1"), "{src}");
    }

    #[test]
    fn strings_borrow_on_server_side() {
        let src = rust_for(
            "interface Mail { void send(in string msg); };",
            "Mail",
            Transport::OncTcp,
        );
        assert!(src.contains("fn send(&mut self, msg: &str)"), "{src}");
        assert!(src.contains("zero-copy"), "{src}");
    }

    #[test]
    fn disabling_reuse_slots_presents_strings_owned() {
        let aoi = flick_frontend_onc::parse_str("mail.x", include_str!("../../../testdata/mail.x"));
        let mut d = Diagnostics::new();
        let p = flick_presgen::rpcgen_c(&aoi, "Mail", Side::Server, &mut d).expect("presentation");
        let mut be = BackEnd::new(Transport::OncTcp);
        be.passes = be.passes.without("reuse-slots").expect("removable");
        let src = be.compile(&p).expect("compiles").rust_source;
        // Without the residence analysis every slot presents owned:
        // §3.1 parameter management off is this pass off.
        assert!(src.contains("fn send(&mut self, msg: String)"), "{src}");
        assert!(!src.contains("fn send(&mut self, msg: &str)"), "{src}");
        // An interface with no top-level `in` string has nothing to
        // present in the buffer, so the pass changes no byte of it.
        assert_eq!(bench_x_onc(&["reuse-slots"]), bench_x_onc(&[]));
    }

    #[test]
    fn aliased_reply_uses_the_echoed_contract() {
        let src = rust_for(
            "interface Echo { long bounce(in long v); };",
            "Echo",
            Transport::OncTcp,
        );
        // Server contract: declare mutation, don't return unconditionally.
        assert!(
            src.contains("fn bounce(&mut self, v: i32) -> flick_runtime::Echoed<i32>"),
            "{src}"
        );
        // Unchanged replays the request byte range; no snapshot clone,
        // no runtime compare survives in the generated code.
        assert!(src.contains("flick_runtime::Echoed::Unchanged =>"), "{src}");
        assert!(src.contains("reply-alias: reuse request bytes"), "{src}");
        assert!(
            src.contains("flick_runtime::Echoed::Changed(_changed) =>"),
            "{src}"
        );
        assert!(!src.contains("reply-alias snapshot"), "{src}");
        // Client call stubs draw their encode buffer from the pool.
        assert!(src.contains("flick_runtime::pool::checkout()"), "{src}");
    }
}
