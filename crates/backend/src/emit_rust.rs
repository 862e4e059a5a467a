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
//! * a `Server` trait plus `dispatch` (numeric discriminators) and
//!   `dispatch_by_name` (word-wise string demultiplex, §3.3).
//!
//! The emitter is a writer (see [`crate::writer`]): the plan, the
//! presentation and every name in them are borrowed, never cloned, and
//! text goes straight into the one output buffer.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt::{self, Display, Write as _};

use flick_pres::{Name, PresC, PresId, PresNode};

use crate::encoding::{Order, StringWire, WirePrim};
use crate::layout::{LayoutCursor, PackedItem, SizeClass, ValPath};
use crate::mir::{Demux, DemuxArm, DemuxNode, PrefixStep, SlotStorage};
use crate::plan::{MsgPlan, PlanNode, StubPlan, StubPlans};
use crate::writer::{line, CodeWriter, Show, Tmp};
use crate::BackEnd;

/// Emits the complete Rust module for the optimized MIR `full` under
/// `be`.
///
/// # Errors
/// Returns a message for constructs the Rust emitter cannot express.
pub fn emit(presc: &PresC, full: &StubPlans, be: &BackEnd) -> Result<String, String> {
    let types = Types::collect(presc, full, be)?;
    let mut e = Emitter {
        be,
        full,
        types: &types,
        w: CodeWriter::with_capacity(size_hint(full)),
        vals: Vec::new(),
        prefetched_len: None,
    };
    e.module()?;
    Ok(e.w.finish())
}

struct Emitter<'a> {
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

impl Display for Zero {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            "f32" => f.write_str("0.0f32"),
            "f64" => f.write_str("0.0f64"),
            t => write!(f, "0{t}"),
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

impl Display for Variant<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.chars().try_for_each(|c| f.write_char(c))
    }
}

/// `base` followed by the member and index steps of `path`.
struct Path<'e>(&'e dyn Display, &'e ValPath);

impl Display for Path<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.1 {
            ValPath::Root => self.0.fmt(f),
            ValPath::Field(p, name) => write!(f, "{}.{name}", Path(self.0, p)),
            ValPath::Index(p, i) => write!(f, "{}[{i}]", Path(self.0, p)),
        }
    }
}

/// The expression that reads one wire primitive: the next one off the
/// reader `r`, or the one at (chunk, offset) of a chunk.
struct Get<'e>(WirePrim, Option<(Tmp, &'e dyn Display)>);

impl Display for Get<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Get(p, at) = *self;
        let width = match (p.float, p.slot) {
            (true, _) if p.size == 4 => "u32",
            (true, _) => "u64",
            (false, 1) => "u8",
            (false, 2) => "u16",
            (false, 4) => "u32",
            _ => "u64",
        };
        if p.float {
            write!(f, "{}::from_bits(", prim_rust_ty(p))?;
        }
        match at {
            Some((c, _)) => write!(f, "{c}.get_{width}")?,
            None => write!(f, "r.get_{width}")?,
        }
        if width != "u8" {
            write!(f, "_{}", sfx(p.order))?;
        }
        match at {
            Some((_, off)) => write!(f, "_at({off})")?,
            None => f.write_str("()?")?,
        }
        if p.float {
            f.write_str(")")
        } else if p.slot == 4 && p.size < 4 && p.signed {
            write!(f, " as i32 as {}", prim_rust_ty(p))
        } else {
            write!(f, " as {}", prim_rust_ty(p))
        }
    }
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

// ================= presented types =================

/// Where a presented type's definition comes from.
enum Def<'a> {
    /// A struct marshaled member by member.
    Struct(&'a [(Name, PlanNode)]),
    /// A discriminated union: its arms and default arm.
    Union(
        &'a [(i64, Name, PlanNode)],
        &'a Option<(Name, Box<PlanNode>)>,
    ),
    /// A struct inside a packed region (packed plans flatten nested
    /// structs, but the *types* still need definitions).
    Packed(&'a [(Name, PresId)]),
}

/// The module's presented types, settled before a byte is written:
/// definitions are found in plan order but written in name order, and
/// a struct's attributes depend on every image run of the module.
struct Types<'a> {
    presc: &'a PresC,
    be: &'a BackEnd,
    /// Definitions by type name; the first plan to mention a name
    /// defines it.
    defs: BTreeMap<&'a str, Def<'a>>,
    /// Structs some image run of this module moves as bytes, with
    /// their wire size: each is declared `Pod` beside its definition.
    images: BTreeMap<&'a str, u64>,
    /// Those structs and every struct nested in one: `#[repr(C)]`.
    repr_c: BTreeSet<&'a str>,
    /// The Rust type of each PRES subtree that sits in a packed region
    /// (scalars, fixed arrays, structs), computed once per node.
    packed_tys: Vec<Option<Cow<'a, str>>>,
}

fn named(c: &flick_cast::CType) -> Option<&str> {
    match c {
        flick_cast::CType::Named(n) => Some(n),
        _ => None,
    }
}

impl<'a> Types<'a> {
    fn collect(presc: &'a PresC, full: &'a StubPlans, be: &'a BackEnd) -> Result<Self, String> {
        let mut t = Types {
            presc,
            be,
            defs: BTreeMap::new(),
            images: BTreeMap::new(),
            repr_c: BTreeSet::new(),
            packed_tys: vec![None; presc.pres.len()],
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
            t.collect_types(node)?;
        }
        Ok(t)
    }

    /// Records the element struct of every image run under `node`.
    fn collect_images(&mut self, node: &'a PlanNode) {
        match node {
            PlanNode::CountedArray { elem, image, .. } => {
                if let (Some(_), PlanNode::Packed { layout, pres, .. }) = (image, &**elem) {
                    if let Some(name) = self.presc.pres.get(*pres).ctype().and_then(named) {
                        self.images.insert(name, layout.size);
                        self.mark_repr_c(*pres);
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
    fn mark_repr_c(&mut self, pres: PresId) {
        match self.presc.pres.get(pres) {
            PresNode::StructMap { ctype, fields, .. } => {
                self.repr_c.extend(named(ctype));
                for (_, f) in fields {
                    self.mark_repr_c(*f);
                }
            }
            PresNode::FixedArray { elem, .. } => self.mark_repr_c(*elem),
            _ => {}
        }
    }

    fn collect_types(&mut self, node: &'a PlanNode) -> Result<(), String> {
        match node {
            PlanNode::Packed { pres, .. } => {
                self.collect_types_pres(*pres)?;
                self.packed_ty(*pres)
            }
            PlanNode::Struct {
                type_name, fields, ..
            } => {
                if !self.defs.contains_key(type_name.as_str()) {
                    self.defs.insert(type_name, Def::Struct(fields));
                }
                for (_, f) in fields {
                    self.collect_types(f)?;
                }
                Ok(())
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
                    self.collect_types(c)?;
                }
                if let Some((_, d)) = default {
                    self.collect_types(d)?;
                }
                Ok(())
            }
            PlanNode::CountedArray { elem, .. }
            | PlanNode::FixedArray { elem, .. }
            | PlanNode::Optional { elem, .. } => self.collect_types(elem),
            _ => Ok(()),
        }
    }

    /// Collects type definitions reachable from a packed PRES subtree.
    fn collect_types_pres(&mut self, pres: PresId) -> Result<(), String> {
        match self.presc.pres.get(pres) {
            PresNode::StructMap { ctype, fields, .. } => {
                let name = named(ctype).ok_or("packed struct without a type name")?;
                if !self.defs.contains_key(name) {
                    self.defs.insert(name, Def::Packed(fields));
                    for (_, f) in fields {
                        self.packed_ty(*f)?;
                    }
                }
                for (_, f) in fields {
                    self.collect_types_pres(*f)?;
                }
                Ok(())
            }
            PresNode::FixedArray { elem, .. } => self.collect_types_pres(*elem),
            _ => Ok(()),
        }
    }

    /// Settles the type of a packed PRES subtree.
    fn packed_ty(&mut self, pres: PresId) -> Result<(), String> {
        if self.packed_tys[pres.index()].is_some() {
            return Ok(());
        }
        let ty = match self.presc.pres.get(pres) {
            PresNode::Direct { mint, .. } => {
                Cow::Borrowed(prim_rust_ty(self.be.encoding.prim(&self.presc.mint, *mint)))
            }
            PresNode::EnumMap { .. } => Cow::Borrowed("u32"),
            PresNode::FixedArray { elem, len, .. } => {
                self.packed_ty(*elem)?;
                Cow::Owned(format!("[{}; {len}]", self.packed(*elem)))
            }
            PresNode::StructMap { ctype, .. } => {
                Cow::Borrowed(named(ctype).ok_or("unnamed struct in packed region")?)
            }
            other => return Err(format!("non-fixed node {other:?} inside packed region")),
        };
        self.packed_tys[pres.index()] = Some(ty);
        Ok(())
    }

    fn packed(&self, pres: PresId) -> &str {
        self.packed_tys[pres.index()]
            .as_deref()
            .expect("collect settled the type of every packed subtree the plans reach")
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

impl Display for Ty<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Ty(types, node, borrowed) = *self;
        let owned = |node| types.owned(node);
        if borrowed {
            match node {
                PlanNode::Void | PlanNode::Prim { .. } | PlanNode::Enum { .. } => {}
                PlanNode::String { .. } => return f.write_str("&str"),
                PlanNode::MemcpyArray {
                    prim,
                    fixed_len: None,
                    ..
                } => return write!(f, "&[{}]", prim_rust_ty(*prim)),
                PlanNode::CountedArray { elem, .. } => return write!(f, "&[{}]", owned(elem)),
                _ => f.write_str("&")?,
            }
        }
        match node {
            PlanNode::Void => f.write_str("()"),
            PlanNode::Prim { prim, .. } => f.write_str(prim_rust_ty(*prim)),
            PlanNode::Enum { .. } => f.write_str("u32"),
            PlanNode::Packed { pres, .. } => f.write_str(types.packed(*pres)),
            PlanNode::MemcpyArray {
                prim, fixed_len, ..
            } => match fixed_len {
                Some(n) => write!(f, "[{}; {n}]", prim_rust_ty(*prim)),
                None => write!(f, "Vec<{}>", prim_rust_ty(*prim)),
            },
            PlanNode::String { .. } => f.write_str("String"),
            PlanNode::CountedArray { elem, .. } => write!(f, "Vec<{}>", owned(elem)),
            PlanNode::FixedArray { len, elem, .. } => write!(f, "[{}; {len}]", owned(elem)),
            PlanNode::Struct { type_name, .. } | PlanNode::Union { type_name, .. } => {
                f.write_str(type_name)
            }
            PlanNode::Optional { elem, .. } => write!(f, "Option<Box<{}>>", owned(elem)),
            PlanNode::Outline { key } => f.write_str(key),
        }
    }
}

/// A first guess at the module's size, so the output buffer is
/// allocated once: what every module carries, plus what a stub and a
/// plan node come to.  A stub's figure is its frames — two message
/// function pairs, two dispatch arms, a call stub — and a node's folds
/// in that a message is emitted in each of them; both were fitted to
/// the checked-in corpus and a 15-operation interface (the guess lands
/// 2–40 % over).  Growth covers a module that outruns it.
fn size_hint(full: &StubPlans) -> usize {
    let stats = crate::plan::PlanStats::of(full);
    3072 + 4608 * stats.stubs as usize + 448 * stats.plan_nodes as usize
}

impl<'a> Emitter<'a> {
    /// Writes the locals pushed since `base`, comma-separated, and
    /// pops them.
    fn pop_vals(&mut self, base: usize) {
        for (i, v) in self.vals[base..].iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(self.w, "{sep}{v}");
        }
        self.vals.truncate(base);
    }

    // ================= module assembly =================

    fn module(&mut self) -> Result<(), String> {
        let (be, full, types) = (self.be, self.full, self.types);
        let _ = write!(
            self.w,
            "//! Flick-generated stubs — interface `{}`, presentation `{}`,\n\
             //! transport `{}`, encoding `{}`.\n\
             //! Generated by flick-backend; do not edit.\n\
             #![allow(clippy::all, dead_code, unused_variables, unused_mut, unused_imports, unused_parens, non_snake_case, non_camel_case_types)]\n\n\
             use flick_runtime::buf::{{MarshalBuf, MsgReader}};\n\
             use flick_runtime::error::DecodeError;\n\
             use flick_runtime::pod;\n\n",
            types.presc.interface,
            types.presc.style,
            be.transport.name(),
            be.encoding.name,
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
        self.dispatch_numeric(&stubs)?;
        self.dispatch_by_name(&stubs, &full.demux)?;
        self.robust_entries(&stubs);
        Ok(())
    }

    // ================= hostile-wire entry points =================

    /// Emits the robust server entry (`handle_call` / `handle_message`)
    /// and, for ONC, the retransmitting client stubs (`call_<op>`).
    /// These wrap the raw `dispatch` paths with the protocol-level
    /// error replies a server must send instead of dying on hostile
    /// bytes.  Mach/Fluke encodings have no wire error protocol here,
    /// so they get neither.
    fn robust_entries(&mut self, stubs: &[&StubPlan]) {
        match self.be.encoding.name {
            "xdr" => {
                self.onc_handle_call(stubs);
                for stub in stubs {
                    self.onc_call_stub(stub);
                }
            }
            "cdr-be" | "cdr-le" => self.giop_handle_message(stubs),
            _ => {}
        }
    }

    fn onc_handle_call(&mut self, stubs: &[&StubPlan]) {
        let procs = Show(|f: &mut fmt::Formatter<'_>| {
            stubs.iter().enumerate().try_for_each(|(i, s)| {
                let sep = if i > 0 { " | " } else { "" };
                write!(f, "{sep}{}u32", s.op.request_code)
            })
        });
        let _ = write!(
            self.w,
            "/// Serves one ONC call `record` for program `prog` version `vers`.\n\
             /// Malformed headers, unknown procedures, and argument decode\n\
             /// failures answer with the protocol-level error reply\n\
             /// (`PROG_UNAVAIL`/`PROG_MISMATCH`/`PROC_UNAVAIL`/`GARBAGE_ARGS`)\n\
             /// instead of propagating.  Returns false only when the record was\n\
             /// too mangled to answer safely (no reply in `reply`).\n\
             pub fn handle_call<S: Server>(record: &[u8], prog: u32, vers: u32, reply: &mut MarshalBuf, srv: &mut S) -> bool {{\n\
             \x20   use flick_runtime::oncrpc::{{self, ReplyOutcome}};\n\
             \x20   let (h, body) = match oncrpc::accept_call(record, prog, vers, reply) {{\n\
             \x20       Ok(x) => x,\n\
             \x20       Err(replied) => {{\n\
             \x20           flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Xdr);\n\
             \x20           return replied;\n\
             \x20       }}\n\
             \x20   }};\n\
             \x20   if !matches!(h.proc, {procs}) {{\n\
             \x20       flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Xdr);\n\
             \x20       oncrpc::write_reply(reply, h.xid, ReplyOutcome::ProcUnavail);\n\
             \x20       return true;\n\
             \x20   }}\n\
             \x20   // A call whose propagated budget is already spent gets the\n\
             \x20   // cheap failure, not the work (see flick_runtime::deadline).\n\
             \x20   if flick_runtime::deadline::inbound_expired() {{\n\
             \x20       flick_runtime::metrics::rpc_expired();\n\
             \x20       oncrpc::write_reply(reply, h.xid, ReplyOutcome::SystemErr);\n\
             \x20       return true;\n\
             \x20   }}\n\
             \x20   oncrpc::write_reply(reply, h.xid, ReplyOutcome::Success);\n\
             \x20   match dispatch(h.proc, body, reply, srv) {{\n\
             \x20       Ok(()) => true,\n\
             \x20       Err(_e) => {{\n\
             \x20           flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Xdr);\n\
             \x20           reply.clear();\n\
             \x20           oncrpc::write_reply(reply, h.xid, ReplyOutcome::GarbageArgs);\n\
             \x20           true\n\
             \x20       }}\n\
             \x20   }}\n\
             }}\n\n"
        );
    }

    fn onc_call_stub(&mut self, stub: &StubPlan) {
        if stub.op.oneway {
            return;
        }
        let types = self.types;
        let op = sanitize(&stub.op.name);
        let args = || stub.request.slots.iter().filter(|s| s.live);
        let _ = write!(
            self.w,
            "/// Calls `{op}` over a datagram endpoint with ONC-over-UDP\n\
             /// retransmission (deadline/retries/backoff from `opts`; duplicate,\n\
             /// stale, and corrupt replies are absorbed by the xid match).\n\
             pub fn call_{op}<E: flick_runtime::client::Endpoint>(ep: &E, xid: u32, prog: u32, vers: u32, opts: &flick_runtime::client::CallOptions"
        );
        for slot in args() {
            let ty = types.borrowed(&slot.node);
            let _ = write!(self.w, ", {}: {ty}", sanitize(&slot.name));
        }
        self.w.push(") -> Result<(");
        for slot in stub.reply.slots.iter().filter(|s| s.live) {
            let _ = write!(self.w, "{}, ", types.owned(&slot.node));
        }
        self.w.push("), flick_runtime::client::RpcError> {\n");
        // Client span around the full round trip: while it is open the
        // call header stamps its trace context onto the wire, and
        // `finish_call` records the outcome and `rpc.<op>.rtt`.  One
        // relaxed load and a branch while collection is off.
        line!(
            self.w,
            1,
            "let _cspan = flick_runtime::trace::client_begin(\"{op}\");"
        );
        // Encode buffer from the thread-local pool: after warmup the
        // checkout reuses a grown allocation and recycles it on drop.
        self.w.line(
            1,
            "let mut buf = flick_runtime::pool::checkout(); // recycled on drop",
        );
        // Deadline stamp: while the guard lives, the call header
        // carries the remaining budget on the wire (capped by any
        // budget the request being served arrived with), so the
        // server can refuse this call once it is already too late.
        self.w.line(
            1,
            "let _budget = flick_runtime::deadline::stamp_capped(opts.deadline);",
        );
        line!(
            self.w,
            1,
            "flick_runtime::oncrpc::CallHeader {{ xid, prog, vers, proc: {}u32 }}.write(&mut buf);",
            stub.op.request_code
        );
        self.w.indent(1);
        let _ = write!(self.w, "encode_{op}_request(&mut buf");
        for slot in args() {
            let _ = write!(self.w, ", {}", sanitize(&slot.name));
        }
        self.w.push(");\n");
        self.w.line(
            1,
            "let body = _cspan.finish_call(flick_runtime::client::call(ep, xid, buf.as_slice(), opts))?;",
        );
        self.w.line(1, "let mut r = MsgReader::new(&body);");
        line!(
            self.w,
            1,
            "decode_{op}_reply(&mut r).map_err(flick_runtime::client::RpcError::Decode)"
        );
        self.w.push("}\n\n");
    }

    fn giop_handle_message(&mut self, stubs: &[&StubPlan]) {
        let ops = Show(|f: &mut fmt::Formatter<'_>| {
            stubs.iter().enumerate().try_for_each(|(i, s)| {
                let sep = if i > 0 { " | " } else { "" };
                write!(f, "{sep}b\"{}\"", s.op.wire_name)
            })
        });
        let _ = write!(
            self.w,
            "/// Serves one complete GIOP message.  Unparseable headers answer\n\
             /// `MessageError`; unknown operations and argument decode failures\n\
             /// answer a `SystemException` reply (`BAD_OPERATION` / `MARSHAL`).\n\
             /// Returns true when `reply` holds a message to send back.\n\
             pub fn handle_message<S: Server>(msg: &[u8], reply: &mut MarshalBuf, srv: &mut S) -> bool {{\n\
             \x20   use flick_runtime::cdr::{{ByteOrder, CdrIn, CdrOut}};\n\
             \x20   use flick_runtime::giop::{{self, MsgType, ReplyStatus}};\n\
             \x20   reply.clear();\n\
             \x20   let mut r = MsgReader::new(msg);\n\
             \x20   let h = match giop::read_header(&mut r) {{\n\
             \x20       Ok(h) => h,\n\
             \x20       Err(_) => {{\n\
             \x20           flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Cdr);\n\
             \x20           giop::write_message_error(reply, ByteOrder::native());\n\
             \x20           return true;\n\
             \x20       }}\n\
             \x20   }};\n\
             \x20   if h.msg_type == MsgType::CloseConnection {{\n\
             \x20       return false;\n\
             \x20   }}\n\
             \x20   if h.msg_type != MsgType::Request {{\n\
             \x20       flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Cdr);\n\
             \x20       giop::write_message_error(reply, h.order);\n\
             \x20       return true;\n\
             \x20   }}\n\
             \x20   let cdr = CdrIn::begin(&r, h.order);\n\
             \x20   let req = match giop::get_request_header_ref(&mut r, &cdr) {{\n\
             \x20       Ok(x) => x,\n\
             \x20       Err(_) => {{\n\
             \x20           flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Cdr);\n\
             \x20           giop::write_message_error(reply, h.order);\n\
             \x20           return true;\n\
             \x20       }}\n\
             \x20   }};\n\
             \x20   // A request whose propagated budget is already spent gets the\n\
             \x20   // cheap failure, not the work (see flick_runtime::deadline).\n\
             \x20   if flick_runtime::deadline::inbound_expired() {{\n\
             \x20       flick_runtime::metrics::rpc_expired();\n\
             \x20       let at = giop::begin_message(reply, h.order, MsgType::Reply);\n\
             \x20       let out = CdrOut::begin(reply, h.order);\n\
             \x20       giop::put_reply_header(reply, &out, req.request_id, ReplyStatus::SystemException);\n\
             \x20       giop::put_system_exception(reply, &out, \"IDL:omg.org/CORBA/TIMEOUT:1.0\", 0);\n\
             \x20       giop::finish_message(reply, at, h.order);\n\
             \x20       return req.response_expected;\n\
             \x20   }}\n\
             \x20   if !matches!(req.operation.as_bytes(), {ops}) {{\n\
             \x20       flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Cdr);\n\
             \x20       let at = giop::begin_message(reply, h.order, MsgType::Reply);\n\
             \x20       let out = CdrOut::begin(reply, h.order);\n\
             \x20       giop::put_reply_header(reply, &out, req.request_id, ReplyStatus::SystemException);\n\
             \x20       giop::put_system_exception(reply, &out, \"IDL:omg.org/CORBA/BAD_OPERATION:1.0\", 0);\n\
             \x20       giop::finish_message(reply, at, h.order);\n\
             \x20       return req.response_expected;\n\
             \x20   }}\n\
             \x20   let at = giop::begin_message(reply, h.order, MsgType::Reply);\n\
             \x20   let out = CdrOut::begin(reply, h.order);\n\
             \x20   giop::put_reply_header(reply, &out, req.request_id, ReplyStatus::NoException);\n\
             \x20   match dispatch_by_name(req.operation.as_bytes(), &msg[r.pos()..], reply, srv) {{\n\
             \x20       Ok(()) => {{\n\
             \x20           giop::finish_message(reply, at, h.order);\n\
             \x20           req.response_expected\n\
             \x20       }}\n\
             \x20       Err(_e) => {{\n\
             \x20           flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Cdr);\n\
             \x20           reply.clear();\n\
             \x20           let at = giop::begin_message(reply, h.order, MsgType::Reply);\n\
             \x20           let out = CdrOut::begin(reply, h.order);\n\
             \x20           giop::put_reply_header(reply, &out, req.request_id, ReplyStatus::SystemException);\n\
             \x20           giop::put_system_exception(reply, &out, \"IDL:omg.org/CORBA/MARSHAL:1.0\", 0);\n\
             \x20           giop::finish_message(reply, at, h.order);\n\
             \x20           req.response_expected\n\
             \x20       }}\n\
             \x20   }}\n\
             }}\n\n"
        );
    }

    // ================= presented types =================

    fn type_def(&mut self, name: &str, def: &Def<'_>) {
        let types = self.types;
        match def {
            Def::Struct(fields) => {
                let _ = write!(
                    self.w,
                    "/// Presented type `{name}` (generated).\n\
                     #[derive(Clone, Debug, PartialEq)]\n\
                     pub struct {name} {{\n"
                );
                for (fname, fplan) in *fields {
                    line!(self.w, 1, "pub {fname}: {},", types.owned(fplan));
                }
                self.w.push("}\n");
            }
            Def::Union(cases, default) => {
                let _ = write!(
                    self.w,
                    "/// Presented union `{name}` (generated).\n\
                     #[derive(Clone, Debug, PartialEq)]\n\
                     pub enum {name} {{\n"
                );
                for (i, (_, member, c)) in cases.iter().enumerate() {
                    if Variant::repeats(cases, i) {
                        continue;
                    }
                    let variant = Variant(member);
                    if matches!(c, PlanNode::Void) {
                        line!(self.w, 1, "{variant},");
                    } else {
                        line!(self.w, 1, "{variant}({}),", types.owned(c));
                    }
                }
                if let Some((_, d)) = default {
                    if matches!(**d, PlanNode::Void) {
                        self.w.line(1, "Other(i64),");
                    } else {
                        line!(self.w, 1, "Other(i64, {}),", types.owned(d));
                    }
                }
                self.w.push("}\n");
            }
            Def::Packed(fields) => {
                let repr = if types.repr_c.contains(name) {
                    "#[repr(C)]\n"
                } else {
                    ""
                };
                let _ = write!(
                    self.w,
                    "/// Presented type `{name}` (generated).\n\
                     {repr}#[derive(Clone, Debug, PartialEq)]\n\
                     pub struct {name} {{\n"
                );
                for (fname, f) in *fields {
                    line!(self.w, 1, "pub {fname}: {},", types.packed(*f));
                }
                self.w.push("}\n");
                if let Some(size) = types.images.get(name) {
                    // The image predicate found no padding on
                    // either side; the assert holds rustc to it.
                    let _ = write!(
                        self.w,
                        "// SAFETY: `#[repr(C)]` all the way down, integer and float \
                         fields only, and no padding:\n\
                         // the {size} bytes asserted below are exactly the fields'.\n\
                         unsafe impl flick_runtime::pod::Pod for {name} {{}}\n\
                         const _: () = assert!(std::mem::size_of::<{name}>() == {size});\n"
                    );
                }
            }
        }
    }

    // ================= per-stub functions =================

    fn stub_fns(&mut self, stub: &StubPlan) -> Result<(), String> {
        let op = sanitize(&stub.op.name);
        self.msg_fns(&format_args!("{op}_request"), &stub.request)?;
        if !stub.op.oneway {
            self.msg_fns(&format_args!("{op}_reply"), &stub.reply)?;
        }
        Ok(())
    }

    fn msg_fns(&mut self, what: &dyn Display, msg: &MsgPlan) -> Result<(), String> {
        let types = self.types;
        // ---- encode ----
        // Dead slots never appear in the generated signature: the PRES
        // mapping hides them whether or not `dead-slot` removed their
        // marshal work.
        let _ = write!(
            self.w,
            "/// Encodes the `{what}` message body.\npub fn encode_{what}(buf: &mut MarshalBuf"
        );
        for slot in msg.slots.iter().filter(|s| s.live) {
            let ty = types.borrowed(&slot.node);
            let _ = write!(self.w, ", {}: {ty}", sanitize(&slot.name));
        }
        self.w.push(") {\n");
        let needs_base = !self.be.encoding.widen_to_word;
        if needs_base {
            self.w.line(1, "let _base = buf.len();");
        }
        // §3.1: one hoisted check when the whole message is fixed or
        // bounded under the threshold (decided by `hoist-checks`).
        if let Some(n) = msg.hoisted {
            let why = match msg.class {
                SizeClass::Fixed(_) => "fixed-size",
                _ => "bounded (<= threshold)",
            };
            line!(self.w, 1, "buf.ensure({n}); // whole message is {why}");
        }
        let mut ctx = EncCtx {
            covered: msg.hoisted.is_some(),
            depth: 1,
        };
        for slot in &msg.slots {
            if slot.live {
                self.emit_encode(&slot.node, &sanitize(&slot.name), &mut ctx)?;
            } else {
                // Naive path (`dead-slot` off): the wire still carries
                // the slot, zero-filled.
                line!(
                    self.w,
                    ctx.depth,
                    "// dead slot `{}`: never presented, wire gets zero",
                    slot.name
                );
                self.emit_encode(&slot.node, &zero_expr(&slot.node)?, &mut ctx)?;
            }
        }
        self.w.push("}\n\n");

        // ---- decode ----
        let _ = write!(
            self.w,
            "/// Decodes the `{what}` message body.\n\
             pub fn decode_{what}(r: &mut MsgReader<'_>) -> Result<("
        );
        for slot in msg.slots.iter().filter(|s| s.live) {
            let _ = write!(self.w, "{}, ", types.owned(&slot.node));
        }
        self.w.push("), DecodeError> {\n");
        if needs_base {
            self.w.line(1, "let _base = r.pos();");
        }
        let base = self.vals.len();
        for slot in &msg.slots {
            if !slot.live {
                line!(
                    self.w,
                    1,
                    "// dead slot `{}`: decoded and discarded",
                    slot.name
                );
            }
            let v = self.emit_decode(&slot.node, 1, false)?;
            if slot.live {
                self.vals.push(v);
            }
        }
        self.w.indent(1);
        self.w.push("Ok((");
        for v in self.vals.drain(base..) {
            let _ = write!(self.w, "{v}, ");
        }
        self.w.push("))\n}\n\n");
        Ok(())
    }

    // ================= encode =================

    fn align_enc(&mut self, align: u8, depth: usize) {
        if !self.be.encoding.widen_to_word && align > 1 {
            line!(self.w, depth, "buf.align_from(_base, {align});");
        }
    }

    /// One store of `v` as `prim`: appended to `buf`, or at `at` =
    /// (chunk, offset) through a chunk writer.
    fn put(&mut self, d: usize, prim: WirePrim, at: Option<(Tmp, &dyn Display)>, v: &dyn Display) {
        let (width, cast) = match (prim.float, prim.slot) {
            (true, _) if prim.size == 4 => ("u32", ".to_bits()"),
            (true, _) => ("u64", ".to_bits()"),
            (false, 1) => ("u8", " as u8"),
            (false, 2) => ("u16", " as u16"),
            (false, 4) if prim.size < 4 && prim.signed => ("u32", " as i32 as u32"),
            (false, 4) => ("u32", " as u32"),
            _ => ("u64", " as u64"),
        };
        self.w.indent(d);
        let _ = match at {
            Some((c, _)) => write!(self.w, "{c}.put_{width}"),
            None => write!(self.w, "buf.put_{width}"),
        };
        if width != "u8" {
            let _ = write!(self.w, "_{}", sfx(prim.order));
        }
        let _ = match at {
            Some((_, off)) => write!(self.w, "_at({off}, "),
            None => write!(self.w, "("),
        };
        let _ = writeln!(self.w, "({v}){cast});");
    }

    fn put_len(&mut self, d: usize, len: &dyn Display) {
        let order = sfx(self.be.encoding.len_prefix().order);
        line!(self.w, d, "buf.put_u32_{order}({len} as u32);");
    }

    fn mach_descriptor(&mut self, name: u8, bits: u8, count: &dyn Display, depth: usize) {
        if self.be.encoding.typed_descriptors {
            line!(
                self.w,
                depth,
                "flick_runtime::mach::put_type(buf, {name}, {bits}, ({count}) as u32);"
            );
        }
    }

    /// Constant-offset stores of every item of `layout` through the
    /// chunk writer `cvar`.
    fn chunk_stores(
        &mut self,
        layout: &crate::layout::Packed,
        vexpr: &dyn Display,
        cvar: Tmp,
        d: usize,
    ) {
        for item in &layout.items {
            match item {
                PackedItem::Prim { offset, prim, path } => {
                    self.put(d, *prim, Some((cvar, offset)), &Path(vexpr, path));
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
                        line!(
                            self.w,
                            d,
                            "{cvar}.put_bytes_at({offset}, pod::bytes_of(&{e}[..])); // memcpy run"
                        );
                    } else {
                        let i = self.w.fresh("i");
                        line!(self.w, d, "for {i} in 0..{count}usize {{");
                        self.put(
                            d + 1,
                            *prim,
                            Some((cvar, &format_args!("{offset} + {i} * {}", prim.slot))),
                            &format_args!("{e}[{i}]"),
                        );
                        self.w.line(d, "}");
                    }
                }
            }
        }
    }

    /// The one alignment a strided run of `align`-aligned chunks
    /// needs, if any.  The count prefix left the stream 4-aligned, so
    /// only wider chunks need one — and the emitted code must skip it
    /// for an empty array, whose elements never aligned either.
    fn run_align(&self, align: u64) -> Option<u64> {
        (!self.be.encoding.widen_to_word && align > 4).then_some(align.min(8))
    }

    /// The encoding's pad unit, when `n` bytes of packed data (a fixed
    /// array's, or one element of a counted array's) can leave the
    /// stream off it, so that a trailing pad is owed.
    fn pad_unit_after(&self, n: u64) -> Option<u8> {
        let enc = &self.be.encoding;
        enc.pad_unit.filter(|_| enc.pad_after(n) > 0)
    }

    /// Writes the trailing pad owed after `n` packed bytes.
    fn put_pad(&mut self, n: u64, d: usize) {
        if let Some(u) = self.pad_unit_after(n) {
            line!(self.w, d, "buf.align_to({u});");
        }
    }

    /// Skips the trailing pad after a fixed array of `len` elements.
    fn skip_fixed_pad(&mut self, prim: WirePrim, len: u64, d: usize) {
        let pad = self.be.encoding.pad_after(len * u64::from(prim.slot));
        if pad > 0 {
            line!(self.w, d, "r.skip({pad})?;");
        }
    }

    /// Skips the trailing pad after the `lv` elements of a counted
    /// array.
    fn skip_counted_pad(&mut self, prim: WirePrim, lv: Tmp, d: usize) {
        if let Some(u) = self.pad_unit_after(u64::from(prim.slot)) {
            line!(
                self.w,
                d,
                "r.skip(({u} - ({lv} * {}) % {u}) % {u})?;",
                prim.slot
            );
        }
    }

    fn emit_encode(
        &mut self,
        node: &PlanNode,
        vexpr: &dyn Display,
        ctx: &mut EncCtx,
    ) -> Result<(), String> {
        let d = ctx.depth;
        let hoist = self.full.hoist;
        match node {
            PlanNode::Void => {}
            PlanNode::Prim { prim, .. } => {
                self.mach_descriptor(mach_name(*prim), prim.size * 8, &1, d);
                self.align_enc(prim.align, d);
                // Without `hoist-checks` the traditional shape: a space
                // check before every atomic datum (§3.1's unoptimized
                // comparison).
                if !hoist || !ctx.covered {
                    line!(self.w, d, "buf.ensure({});", prim.slot);
                }
                self.put(d, *prim, None, vexpr);
            }
            PlanNode::Enum { prim } => {
                self.align_enc(prim.align, d);
                self.put(d, *prim, None, vexpr);
            }
            PlanNode::Packed { layout, .. } => {
                self.align_enc(layout.align.min(8) as u8, d);
                if !hoist {
                    line!(
                        self.w,
                        d,
                        "buf.ensure({}); // region check (chunk)",
                        layout.size
                    );
                } else if !ctx.covered {
                    line!(self.w, d, "buf.ensure({}); // fixed region", layout.size);
                }
                let cvar = self.w.fresh("c");
                line!(self.w, d, "let mut {cvar} = buf.chunk({});", layout.size);
                self.chunk_stores(layout, vexpr, cvar, d);
            }
            PlanNode::MemcpyArray {
                prim,
                fixed_len,
                counted,
                ..
            } => {
                let len_expr = Show(|f: &mut fmt::Formatter<'_>| match fixed_len {
                    Some(n) => write!(f, "{n}"),
                    None => write!(f, "{vexpr}.len()"),
                });
                self.mach_descriptor(mach_name(*prim), prim.size * 8, &len_expr, d);
                if *counted {
                    if !hoist {
                        self.w.line(d, "buf.ensure(4);");
                        line!(self.w, d, "buf.ensure({vexpr}.len() * {} + 4);", prim.size);
                    } else if !ctx.covered {
                        line!(self.w, d, "buf.ensure(8 + {vexpr}.len() * {});", prim.size);
                    }
                    self.align_enc(4, d);
                    self.put_len(d, &format_args!("{vexpr}.len()"));
                } else if !ctx.covered && hoist {
                    line!(self.w, d, "buf.ensure({len_expr} * {} + 4);", prim.size);
                }
                if prim.align > 1 {
                    self.align_enc(prim.align, d);
                }
                if prim.memcpy_compatible(prim.size) {
                    line!(
                        self.w,
                        d,
                        "buf.put_bytes(pod::bytes_of(&{vexpr}[..])); // memcpy run"
                    );
                } else {
                    line!(
                        self.w,
                        d,
                        "buf.put_swapped({}, pod::bytes_of(&{vexpr}[..])); // swizzle run",
                        prim.size
                    );
                }
                self.put_pad(u64::from(prim.slot), d);
            }
            PlanNode::String { style, .. } => {
                if self.be.encoding.typed_descriptors {
                    self.mach_descriptor(8, 8, &format_args!("{vexpr}.len()"), d);
                }
                if !hoist {
                    self.w.line(d, "buf.ensure(4);");
                } else if !ctx.covered {
                    line!(self.w, d, "buf.ensure(8 + {vexpr}.len());");
                }
                self.align_enc(4, d);
                if !hoist {
                    line!(self.w, d, "buf.ensure({vexpr}.len() + 4);");
                }
                match style {
                    StringWire::CountedPadded => {
                        self.put_len(d, &format_args!("{vexpr}.len()"));
                        line!(self.w, d, "buf.put_bytes({vexpr}.as_bytes());");
                        if let Some(u) = self.be.encoding.pad_unit {
                            line!(self.w, d, "buf.align_to({u});");
                        }
                    }
                    StringWire::CountedNul => {
                        self.put_len(d, &format_args!("({vexpr}.len() + 1)"));
                        line!(self.w, d, "buf.put_bytes({vexpr}.as_bytes());");
                        self.w.line(d, "buf.put_u8(0);");
                    }
                }
            }
            PlanNode::CountedArray {
                elem,
                elem_class,
                strided,
                image,
                ..
            } => {
                self.align_enc(4, d);
                if !hoist || !ctx.covered {
                    self.w.line(d, "buf.ensure(4);");
                }
                self.put_len(d, &format_args!("{vexpr}.len()"));
                if let (true, PlanNode::Packed { layout, .. }) = (*strided, &**elem) {
                    // The whole array is one region of `count × stride`
                    // bytes: one space check, one alignment.
                    if let Some(a) = self.run_align(layout.align) {
                        line!(
                            self.w,
                            d,
                            "if !{vexpr}.is_empty() {{ buf.align_from(_base, {a}); }}"
                        );
                    }
                    if let Some(swap) = *image {
                        // §3.2 data copying one level up: the presented
                        // structs *are* the region's bytes, so it moves
                        // as a scalar run does — one copy or swap-copy.
                        match swap {
                            1 => line!(
                                self.w,
                                d,
                                "buf.put_bytes(pod::bytes_of({vexpr})); // image run"
                            ),
                            w => line!(
                                self.w,
                                d,
                                "buf.put_swapped({w}, pod::bytes_of({vexpr})); // swizzle image run"
                            ),
                        }
                        return Ok(());
                    }
                    // §3.2 chunk pointer advanced by a stride: every
                    // element is a fixed-size sub-chunk of the region.
                    let cvar = self.w.fresh("c");
                    line!(
                        self.w,
                        d,
                        "let mut {cvar} = buf.chunk({vexpr}.len() * {}); // strided chunks: one space check for the run",
                        layout.size
                    );
                    let (svar, evar) = (self.w.fresh("s"), self.w.fresh("e"));
                    line!(
                        self.w,
                        d,
                        "for (mut {svar}, {evar}) in {cvar}.strides({}).zip({vexpr}) {{",
                        layout.size
                    );
                    self.chunk_stores(layout, &evar, svar, d + 1);
                    self.w.line(d, "}");
                    return Ok(());
                }
                // §3.1: a fixed-size element lets the whole array's
                // space be reserved in one step before the loop.
                let hoisted = match *elem_class {
                    SizeClass::Fixed(n) if hoist && !ctx.covered => {
                        line!(
                            self.w,
                            d,
                            "buf.ensure({vexpr}.len() * {n}); // hoisted from the loop"
                        );
                        true
                    }
                    _ => false,
                };
                let evar = self.w.fresh("e");
                if matches!(**elem, PlanNode::Prim { .. } | PlanNode::Enum { .. }) {
                    line!(self.w, d, "for {evar} in {vexpr}.iter().copied() {{");
                } else {
                    line!(self.w, d, "for {evar} in {vexpr} {{");
                }
                let saved = ctx.covered;
                ctx.covered = ctx.covered || hoisted;
                ctx.depth = d + 1;
                self.emit_encode(elem, &evar, ctx)?;
                ctx.covered = saved;
                ctx.depth = d;
                self.w.line(d, "}");
                if let Some(prim) = elem.scalar() {
                    self.put_pad(u64::from(prim.slot), d);
                }
            }
            PlanNode::FixedArray { len, elem, .. } => {
                let evar = self.w.fresh("e");
                if matches!(**elem, PlanNode::Prim { .. } | PlanNode::Enum { .. }) {
                    line!(self.w, d, "for {evar} in {vexpr}.iter().copied() {{");
                } else {
                    line!(self.w, d, "for {evar} in {vexpr}.iter() {{");
                }
                ctx.depth = d + 1;
                self.emit_encode(elem, &evar, ctx)?;
                ctx.depth = d;
                self.w.line(d, "}");
                if let Some(prim) = elem.scalar() {
                    self.put_pad(len * u64::from(prim.slot), d);
                }
            }
            PlanNode::Struct { fields, .. } => {
                for (fname, f) in fields {
                    let (pre, post) = pass_from_place(f);
                    self.emit_encode(f, &format_args!("{pre}{vexpr}.{fname}{post}"), ctx)?;
                }
            }
            PlanNode::Union {
                type_name,
                disc_prim,
                cases,
                default,
            } => {
                self.align_enc(disc_prim.align, d);
                if !ctx.covered && hoist {
                    line!(self.w, d, "buf.ensure({});", disc_prim.slot);
                }
                line!(self.w, d, "match {vexpr} {{");
                // One arm per unique variant; for multi-label arms the
                // first label is the canonical encoding.
                for (i, (label, name, c)) in cases.iter().enumerate() {
                    if Variant::repeats(cases, i) {
                        continue;
                    }
                    let is_void = matches!(c, PlanNode::Void);
                    let bind = if is_void { "" } else { "(_x)" };
                    line!(self.w, d + 1, "{type_name}::{}{bind} => {{", Variant(name));
                    ctx.depth = d + 2;
                    self.put(d + 2, *disc_prim, None, label);
                    if !is_void {
                        self.emit_encode(c, &pass_from_binding(c), ctx)?;
                    }
                    ctx.depth = d;
                    self.w.line(d + 1, "}");
                }
                if let Some((_, dflt)) = default {
                    let is_void = matches!(**dflt, PlanNode::Void);
                    let bind = if is_void { "" } else { ", _x" };
                    line!(self.w, d + 1, "{type_name}::Other(_d{bind}) => {{");
                    self.put(d + 2, *disc_prim, None, &"(*_d)");
                    if !is_void {
                        ctx.depth = d + 2;
                        self.emit_encode(dflt, &pass_from_binding(dflt), ctx)?;
                        ctx.depth = d;
                    }
                    self.w.line(d + 1, "}");
                }
                self.w.line(d, "}");
            }
            PlanNode::Optional { elem, .. } => {
                let flag = self.be.encoding.prim_for_size(1, false);
                if !ctx.covered && hoist {
                    line!(self.w, d, "buf.ensure({});", flag.slot);
                }
                line!(self.w, d, "match {vexpr} {{");
                self.w.line(d + 1, "Some(_inner) => {");
                self.put(d + 2, flag, None, &"1u8");
                ctx.depth = d + 2;
                self.emit_encode(elem, &"(&**_inner)", ctx)?;
                ctx.depth = d;
                self.w.line(d + 1, "}");
                self.w.line(d + 1, "None => {");
                self.put(d + 2, flag, None, &"0u8");
                self.w.line(d + 1, "}");
                self.w.line(d, "}");
            }
            PlanNode::Outline { key } => {
                line!(self.w, d, "marshal_{}(buf, {vexpr});", sanitize(key));
            }
        }
        Ok(())
    }

    // ================= decode =================

    fn align_dec(&mut self, align: u8, depth: usize) {
        if !self.be.encoding.widen_to_word && align > 1 {
            line!(self.w, depth, "r.align_from(_base, {align})?;");
        }
    }

    /// Reads (or, when `merge-prefix` hoisted it above the dispatch
    /// switch, reuses) the aligned u32 length prefix, and holds it to
    /// the declared `bound`.  Returns the local holding the count.
    fn read_len_prefix(&mut self, bound: Option<u64>, d: usize) -> Tmp {
        let lv = self.w.fresh("len");
        if let Some(pv) = self.prefetched_len.take() {
            line!(
                self.w,
                d,
                "let {lv} = {pv}; // merge-prefix: count decoded above the switch"
            );
        } else {
            self.align_dec(4, d);
            let order = sfx(self.be.encoding.len_prefix().order);
            line!(self.w, d, "let {lv} = r.get_u32_{order}()? as usize;");
        }
        if let Some(b) = bound {
            line!(
                self.w,
                d,
                "if {lv} as u64 > {b} {{ return Err(DecodeError::BoundExceeded {{ got: {lv} as u64, bound: {b} }}); }}"
            );
        }
        lv
    }

    fn skip_descriptor(&mut self, depth: usize) {
        if self.be.encoding.typed_descriptors {
            self.w
                .line(depth, "let _desc = flick_runtime::mach::get_type(r)?;");
        }
    }

    /// Emits statements that decode `node`, returning the local
    /// holding the decoded value.
    fn emit_decode(&mut self, node: &PlanNode, d: usize, borrowed: bool) -> Result<Tmp, String> {
        let types = self.types;
        Ok(match node {
            PlanNode::Void => {
                let v = self.w.fresh("v");
                line!(self.w, d, "let {v} = ();");
                v
            }
            PlanNode::Prim { prim, .. } | PlanNode::Enum { prim } => {
                if matches!(node, PlanNode::Prim { .. }) {
                    self.skip_descriptor(d);
                }
                self.align_dec(prim.align, d);
                let v = self.w.fresh("v");
                line!(self.w, d, "let {v} = {};", Get(*prim, None));
                v
            }
            PlanNode::Packed { layout, pres, .. } => {
                self.align_dec(layout.align.min(8) as u8, d);
                let cvar = self.w.fresh("c");
                line!(
                    self.w,
                    d,
                    "let {cvar} = r.chunk({})?; // one truncation check",
                    layout.size
                );
                let v = self.w.fresh("v");
                self.w.indent(d);
                let _ = write!(self.w, "let {v} = ");
                self.packed_value(*pres, &mut LayoutCursor::default(), cvar)?;
                self.w.push(";\n");
                v
            }
            PlanNode::MemcpyArray {
                prim,
                fixed_len,
                bound,
                ..
            } => {
                self.skip_descriptor(d);
                let ty = prim_rust_ty(*prim);
                let v = self.w.fresh("v");
                match fixed_len {
                    Some(n) => {
                        let bytes = n * u64::from(prim.size);
                        line!(self.w, d, "let mut {v} = [{}; {n}];", Zero(ty));
                        let (copy, what) = if prim.memcpy_compatible(prim.size) {
                            ("copy_into", "memcpy")
                        } else {
                            ("copy_swapped_into", "swizzle")
                        };
                        line!(
                            self.w,
                            d,
                            "pod::{copy}(r.bytes({bytes})?, &mut {v}); // {what} run"
                        );
                        self.skip_fixed_pad(*prim, *n, d);
                    }
                    None => {
                        let lv = self.read_len_prefix(*bound, d);
                        if prim.align > 1 {
                            self.align_dec(prim.align, d);
                        }
                        // One checked `count × size` and one
                        // truncation check for the whole run.
                        let (from, what) = if prim.memcpy_compatible(prim.size) {
                            ("vec_from_bytes", "memcpy")
                        } else {
                            ("vec_from_swapped", "swizzle")
                        };
                        line!(
                            self.w,
                            d,
                            "let {v}: Vec<{ty}> = pod::{from}(r.run({lv}, {})?); // {what} run",
                            prim.size
                        );
                        self.skip_counted_pad(*prim, lv, d);
                    }
                }
                v
            }
            PlanNode::String {
                bound,
                style,
                borrow_ok,
            } => {
                self.skip_descriptor(d);
                let lv = self.read_len_prefix(*bound, d);
                let bytes = self.w.fresh("bytes");
                match style {
                    StringWire::CountedPadded => {
                        line!(self.w, d, "let {bytes} = r.bytes({lv})?;");
                        if let Some(u) = self.be.encoding.pad_unit {
                            line!(self.w, d, "r.skip(({u} - {lv} % {u}) % {u})?;");
                        }
                    }
                    StringWire::CountedNul => {
                        line!(
                            self.w,
                            d,
                            "if {lv} == 0 {{ return Err(DecodeError::BadValue(\"CDR string length must include NUL\")); }}"
                        );
                        line!(self.w, d, "let {bytes} = &r.bytes({lv})?[..{lv} - 1];");
                    }
                }
                let v = self.w.fresh("v");
                if borrowed && *borrow_ok {
                    // §3.1 in-buffer presentation: borrow straight from
                    // the receive buffer.
                    line!(
                        self.w,
                        d,
                        "let {v} = std::str::from_utf8({bytes}).map_err(|_| DecodeError::BadValue(\"string is not UTF-8\"))?; // zero-copy"
                    );
                } else {
                    line!(
                        self.w,
                        d,
                        "let {v} = String::from_utf8({bytes}.to_vec()).map_err(|_| DecodeError::BadValue(\"string is not UTF-8\"))?;"
                    );
                }
                v
            }
            PlanNode::CountedArray {
                bound,
                elem,
                strided,
                image,
                ..
            } => {
                let lv = self.read_len_prefix(*bound, d);
                let v = self.w.fresh("v");
                let ety = types.owned(elem);
                if let (true, PlanNode::Packed { layout, pres, .. }) = (*strided, &**elem) {
                    // One checked `count × stride`, one truncation
                    // check and one alignment for the whole array; the
                    // exact-size vector is reserved only once the bytes
                    // are known to be there.
                    if let Some(a) = self.run_align(layout.align) {
                        line!(self.w, d, "if {lv} > 0 {{ r.align_from(_base, {a})?; }}");
                    }
                    if let Some(swap) = *image {
                        // An image run: the bytes become the vector.
                        let size = layout.size;
                        match swap {
                            1 => line!(
                                self.w,
                                d,
                                "let {v}: Vec<{ety}> = pod::vec_from_bytes(r.run({lv}, {size})?); // image run"
                            ),
                            w => line!(
                                self.w,
                                d,
                                "let {v}: Vec<{ety}> = pod::vec_from_swapped_by({w}, r.run({lv}, {size})?); // swizzle image run"
                            ),
                        }
                        return Ok(v);
                    }
                    let cvar = self.w.fresh("c");
                    self.w.indent(d);
                    let _ = write!(
                        self.w,
                        "let {v}: Vec<{ety}> = r.strides({lv}, {})?.map(|{cvar}| ",
                        layout.size
                    );
                    self.packed_value(*pres, &mut LayoutCursor::default(), cvar)?;
                    self.w
                        .push(").collect(); // strided chunks: one truncation check for the run\n");
                    return Ok(v);
                }
                // Guard capacity against hostile counts: never reserve
                // more elements than the bytes present could encode,
                // sized by the *smallest* encoding of one element.
                let elem_min = elem.min_wire_size(&self.full.outlines).max(1);
                line!(
                    self.w,
                    d,
                    "let mut {v}: Vec<{ety}> = Vec::with_capacity({lv}.min(r.remaining() / {elem_min} + 1));"
                );
                let i = self.w.fresh("i");
                line!(self.w, d, "for {i} in 0..{lv} {{");
                // In-buffer presentation applies only to top-level
                // slots; element values are built owned.
                let ev = self.emit_decode(elem, d + 1, false)?;
                line!(self.w, d + 1, "{v}.push({ev});");
                self.w.line(d, "}");
                if let Some(prim) = elem.scalar() {
                    self.skip_counted_pad(prim, lv, d);
                }
                v
            }
            PlanNode::FixedArray { len, elem, .. } => {
                let block = self.w.fresh("v");
                line!(
                    self.w,
                    d,
                    "let {block}: [{}; {len}] = {{",
                    types.owned(elem)
                );
                let base = self.vals.len();
                for _ in 0..*len {
                    let ev = self.emit_decode(elem, d + 1, false)?;
                    self.vals.push(ev);
                }
                self.w.indent(d + 1);
                self.w.push("[");
                self.pop_vals(base);
                self.w.push("]\n");
                self.w.line(d, "};");
                if let Some(prim) = elem.scalar() {
                    self.skip_fixed_pad(prim, *len, d);
                }
                block
            }
            PlanNode::Struct {
                type_name, fields, ..
            } => {
                let base = self.vals.len();
                for (_, f) in fields {
                    let fv = self.emit_decode(f, d, false)?;
                    self.vals.push(fv);
                }
                let v = self.w.fresh("v");
                self.w.indent(d);
                let _ = write!(self.w, "let {v} = {type_name} {{ ");
                for (i, ((fname, _), fv)) in fields.iter().zip(self.vals.drain(base..)).enumerate()
                {
                    let sep = if i > 0 { ", " } else { "" };
                    let _ = write!(self.w, "{sep}{fname}: {fv}");
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
                self.align_dec(disc_prim.align, d);
                let dv = self.w.fresh("d");
                let e = Get(*disc_prim, None);
                line!(self.w, d, "let {dv} = ({e}) as i64;");
                let v = self.w.fresh("v");
                line!(self.w, d, "let {v} = match {dv} {{");
                for (label, name, c) in cases {
                    let variant = Variant(name);
                    line!(self.w, d + 1, "{label} => {{");
                    if matches!(c, PlanNode::Void) {
                        line!(self.w, d + 2, "{type_name}::{variant}");
                    } else {
                        let cv = self.emit_decode(c, d + 2, false)?;
                        line!(self.w, d + 2, "{type_name}::{variant}({cv})");
                    }
                    self.w.line(d + 1, "}");
                }
                match default {
                    Some((_, dflt)) => {
                        self.w.line(d + 1, "_other => {");
                        if matches!(**dflt, PlanNode::Void) {
                            line!(self.w, d + 2, "{type_name}::Other(_other)");
                        } else {
                            let cv = self.emit_decode(dflt, d + 2, false)?;
                            line!(self.w, d + 2, "{type_name}::Other(_other, {cv})");
                        }
                        self.w.line(d + 1, "}");
                    }
                    None => {
                        self.w.line(
                            d + 1,
                            "_other => return Err(DecodeError::BadDiscriminator { value: _other }),",
                        );
                    }
                }
                self.w.line(d, "};");
                v
            }
            PlanNode::Optional { elem, .. } => {
                let flag = Get(self.be.encoding.prim_for_size(1, false), None);
                let fv = self.w.fresh("flag");
                line!(self.w, d, "let {fv} = {flag};");
                let v = self.w.fresh("v");
                line!(self.w, d, "let {v} = match {fv} {{");
                self.w.line(d + 1, "0 => None,");
                self.w.line(d + 1, "1 => {");
                let ev = self.emit_decode(elem, d + 2, false)?;
                line!(self.w, d + 2, "Some(Box::new({ev}))");
                self.w.line(d + 1, "}");
                self.w.line(
                    d + 1,
                    "_ => return Err(DecodeError::BadValue(\"optional flag must be 0 or 1\")),",
                );
                self.w.line(d, "};");
                v
            }
            PlanNode::Outline { key } => {
                let v = self.w.fresh("v");
                line!(self.w, d, "let {v} = unmarshal_{}(r)?;", sanitize(key));
                v
            }
        })
    }

    /// Writes the decode-side value expression for a packed region by
    /// walking its PRES subtree with the *same* layout cursor the
    /// packer used, so offsets agree by construction.
    fn packed_value(
        &mut self,
        pres: PresId,
        cur: &mut LayoutCursor,
        cvar: Tmp,
    ) -> Result<(), String> {
        let (presc, enc) = (self.types.presc, &self.be.encoding);
        match presc.pres.get(pres) {
            PresNode::Void => self.w.push("()"),
            PresNode::Direct { .. } | PresNode::EnumMap { .. } => {
                let prim = match presc.pres.get(pres) {
                    PresNode::Direct { mint, .. } => enc.prim(&presc.mint, *mint),
                    _ => enc.prim_for_size(4, false),
                };
                let off = cur.place_prim(prim);
                let _ = write!(self.w, "{}", Get(prim, Some((cvar, &off))));
            }
            PresNode::FixedArray { elem, len, .. } => {
                if let PresNode::Direct { mint, .. } = presc.pres.get(*elem) {
                    let prim = enc.elem_prim(&presc.mint, *mint);
                    if prim.slot == prim.size {
                        let (off, _pad) = cur.place_run(prim, *len, enc);
                        let z = Zero(prim_rust_ty(prim));
                        let _ = write!(self.w, "{{ let mut _a = [{z}; {len}]; ");
                        if self.full.memcpy && prim.memcpy_compatible(prim.size) {
                            let bytes = len * u64::from(prim.size);
                            let _ = write!(
                                self.w,
                                "pod::copy_into({cvar}.bytes_at({off}, {bytes}), &mut _a); _a }}"
                            );
                        } else {
                            let _ = write!(
                                self.w,
                                "for _i in 0..{len}usize {{ _a[_i] = {}; }} _a }}",
                                Get(
                                    prim,
                                    Some((cvar, &format_args!("{off} + _i * {}", prim.slot)))
                                )
                            );
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
                    self.packed_value(*elem, cur, cvar)?;
                }
                self.w.push("]");
            }
            PresNode::StructMap { ctype, fields, .. } => {
                let name = named(ctype).ok_or("unnamed struct in packed region")?;
                let _ = write!(self.w, "{name} {{ ");
                for (i, (fname, f)) in fields.iter().enumerate() {
                    let sep = if i > 0 { ", " } else { "" };
                    let _ = write!(self.w, "{sep}{fname}: ");
                    self.packed_value(*f, cur, cvar)?;
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
        let needs_base = !self.be.encoding.widen_to_word;
        let _ = write!(
            self.w,
            "/// Out-of-line marshal for `{key}` (recursive type, or inlining disabled).\n\
             pub fn marshal_{k}(buf: &mut MarshalBuf, v: {}) {{\n",
            self.types.borrowed(body)
        );
        if needs_base {
            // Out-of-line bodies align against their own entry point;
            // callers align before the call.
            self.w.line(1, "let _base = buf.len();");
        }
        let mut ctx = EncCtx {
            covered: false,
            depth: 1,
        };
        self.emit_encode(body, &"v", &mut ctx)?;
        self.w.push("}\n\n");

        let _ = write!(
            self.w,
            "/// Out-of-line unmarshal for `{key}`.\n\
             pub fn unmarshal_{k}(r: &mut MsgReader<'_>) -> Result<{}, DecodeError> {{\n",
            self.types.owned(body)
        );
        if needs_base {
            self.w.line(1, "let _base = r.pos();");
        }
        let v = self.emit_decode(body, 1, false)?;
        line!(self.w, 1, "Ok({v})");
        self.w.push("}\n\n");
        Ok(())
    }

    // ================= server scaffolding =================

    fn server_trait(&mut self, stubs: &[&StubPlan]) {
        let types = self.types;
        self.w
            .push("/// The server-side work interface (implemented by user code).\n");
        self.w.push("pub trait Server {\n");
        for stub in stubs {
            let _ = write!(self.w, "    fn {}(&mut self", sanitize(&stub.op.name));
            // A dead slot is never presented to the server.
            for slot in stub.request.slots.iter().filter(|s| s.live) {
                let _ = write!(self.w, ", {}: ", sanitize(&slot.name));
                // Borrowed strings when the `reuse-slots` pass
                // classified the slot arena-resident (in-buffer
                // presentation), owned otherwise.
                let _ = match &slot.node {
                    PlanNode::String {
                        borrow_ok: true, ..
                    } if slot.storage == SlotStorage::Arena => write!(self.w, "&str"),
                    other => write!(self.w, "{}", types.owned(other)),
                };
            }
            self.w.push(")");
            self.server_ret(stub);
            self.w.push(";\n");
        }
        self.w.push("}\n\n");
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
        let _ = if second.is_some() {
            self.w.push(" -> (");
            for slot in stub.reply.slots.iter().filter(|s| s.live) {
                let _ = write!(self.w, "{}, ", types.owned(&slot.node));
            }
            write!(self.w, ")")
        } else if first.alias.is_some() {
            // `reply-alias`: the server declares mutation through the
            // copy-on-write `Echoed` contract instead of returning the
            // value unconditionally.
            write!(self.w, " -> flick_runtime::Echoed<{inner}>")
        } else if matches!(first.node, PlanNode::Void) {
            Ok(())
        } else {
            write!(self.w, " -> {inner}")
        };
    }

    fn dispatch_arm(
        &mut self,
        stub: &StubPlan,
        d: usize,
        prefetched: Option<Tmp>,
    ) -> Result<(), String> {
        let op = sanitize(&stub.op.name);
        let needs_base = !self.be.encoding.widen_to_word;
        // Server span for this request, parented to the trace context
        // the transport header carried; the phase marks below feed
        // per-phase child spans and `rpc.<op>.server`.
        line!(
            self.w,
            d,
            "let mut _sspan = flick_runtime::trace::server_begin(\"{op}\");"
        );
        if prefetched.is_none() {
            self.w.line(d, "let mut r = MsgReader::new(body);");
            self.w.line(d, "let r = &mut r;");
            if needs_base {
                self.w.line(d, "let _base = r.pos();");
            }
        }
        // `merge-prefix`: the shared count was decoded above the word
        // switch; the first slot's length read consumes it.
        self.prefetched_len = prefetched;
        let base = self.vals.len();
        for (j, slot) in stub.request.slots.iter().enumerate() {
            if !slot.live {
                line!(
                    self.w,
                    d,
                    "// dead slot `{}`: decoded and discarded",
                    slot.name
                );
            }
            // Request slots whose bytes a `reply-alias` mark reuses get
            // their wire span captured around the decode; an
            // `Unchanged` reply replays that byte range.
            let capture = stub.reply.slots.iter().any(|s| s.alias == Some(j));
            if capture {
                line!(self.w, d, "let _alias_start_{j} = r.pos();");
            }
            // §3.1 reuse analysis: arena-classified slots present in
            // place (borrowed strings, stack values); owned slots
            // allocate.  Dead slots decode borrowed — the value is
            // discarded either way.
            let arena = slot.storage == SlotStorage::Arena || !slot.live;
            let v = self.emit_decode(&slot.node, d, arena)?;
            if capture {
                line!(self.w, d, "let _alias_end_{j} = r.pos();");
            }
            if slot.live {
                self.vals.push(v);
            }
            if j == 0 && self.prefetched_len.take().is_some() {
                return Err(format!(
                    "merge-prefix: hoisted count not consumed by the first \
                     request slot of `{}`",
                    stub.op.name
                ));
            }
        }
        if self.prefetched_len.take().is_some() {
            return Err(format!(
                "merge-prefix: hoisted count above `{}`, which has no request slots",
                stub.op.name
            ));
        }
        let live_replies = stub.reply.slots.iter().filter(|s| s.live).count();
        self.w.line(
            d,
            "_sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);",
        );
        let returns = !stub.op.oneway && live_replies > 0;
        self.w.indent(d);
        let _ = write!(
            self.w,
            "{}srv.{op}(",
            if returns { "let _ret = " } else { "" }
        );
        self.pop_vals(base);
        self.w.push(");\n");
        self.w
            .line(d, "_sspan.phase(flick_runtime::trace::Phase::Work, 0);");
        if returns {
            let single = live_replies == 1;
            if let Some(n) = stub.reply.hoisted_capped {
                line!(self.w, d, "reply.ensure({n});");
            }
            let mut live_i = 0usize;
            for slot in &stub.reply.slots {
                if !slot.live {
                    // Naive dead reply slot: zero-fill the wire.
                    let z = zero_expr(&slot.node)?;
                    self.reply_block(&slot.node, &z, d)?;
                    continue;
                }
                let alias = slot.alias;
                let this = live_i;
                live_i += 1;
                let raw = Show(|f: &mut fmt::Formatter<'_>| {
                    if alias.is_some() {
                        // The `Echoed::Changed` arm binds the mutated value.
                        f.write_str("_changed")
                    } else if single {
                        f.write_str("_ret")
                    } else {
                        write!(f, "_ret.{this}")
                    }
                });
                let (pre, post) = pass_from_place(&slot.node);
                // `reply-alias` (§3.2 copy avoidance): the server
                // declared through the copy-on-write `Echoed` contract
                // whether it mutated the echoed value.  `Unchanged`
                // answers with the already-validated request bytes —
                // no runtime compare, no snapshot clone; `Changed`
                // takes the normal encode path.
                if let Some(jj) = alias {
                    self.w.line(d, "match _ret {");
                    self.w.line(d + 1, "flick_runtime::Echoed::Unchanged => {");
                    line!(
                        self.w,
                        d + 2,
                        "reply.put_bytes(&body[_alias_start_{jj}.._alias_end_{jj}]); \
                         // reply-alias: reuse request bytes"
                    );
                    self.w.line(d + 1, "}");
                    self.w
                        .line(d + 1, "flick_runtime::Echoed::Changed(_changed) => {");
                }
                let inner = if alias.is_some() { d + 2 } else { d };
                self.reply_block(&slot.node, &format_args!("{pre}{raw}{post}"), inner)?;
                if alias.is_some() {
                    self.w.line(d + 1, "}");
                    self.w.line(d, "}");
                }
            }
            self.w.line(
                d,
                "_sspan.phase(flick_runtime::trace::Phase::Encode, reply.len() as u64);",
            );
        }
        self.w.line(d, "_sspan.finish(reply.len() as u64);");
        self.w.line(d, "Ok(())");
        Ok(())
    }

    /// One reply slot's encode, in a block of its own at depth `d`
    /// that renames `reply` to the `buf` every encoder writes to.
    fn reply_block(
        &mut self,
        node: &PlanNode,
        vexpr: &dyn Display,
        d: usize,
    ) -> Result<(), String> {
        self.w.line(d, "{");
        self.w.line(d + 1, "let buf = &mut *reply;");
        if !self.be.encoding.widen_to_word {
            self.w.line(d + 1, "let _base = buf.len();");
        }
        let mut ctx = EncCtx {
            covered: false,
            depth: d + 1,
        };
        self.emit_encode(node, vexpr, &mut ctx)?;
        self.w.line(d, "}");
        Ok(())
    }

    fn dispatch_numeric(&mut self, stubs: &[&StubPlan]) -> Result<(), String> {
        self.w.push(
            "/// Server dispatch on a numeric discriminator (ONC procedure\n\
             /// number, Mach message id).  The unmarshal code for each\n\
             /// operation is inlined into the dispatch function (§3.3).\n\
             pub fn dispatch<S: Server>(proc: u32, body: &[u8], reply: &mut MarshalBuf, srv: &mut S) -> Result<(), DecodeError> {\n\
             \x20   match proc {\n",
        );
        for stub in stubs {
            line!(self.w, 2, "{}u32 => {{", stub.op.request_code);
            self.dispatch_arm(stub, 3, None)?;
            self.w.line(2, "}");
        }
        self.w.push(
            "        _ => Err(DecodeError::BadDiscriminator { value: i64::from(proc) }),\n\
             \x20   }\n}\n\n",
        );
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
                     /// name), demultiplexed word by word with nested switches.\n\
                     pub fn dispatch_by_name<S: Server>(op: &[u8], body: &[u8], reply: &mut MarshalBuf, srv: &mut S) -> Result<(), DecodeError> {\n",
                );
                self.trie_node(root, stubs, 1, None)?;
                self.w.push("}\n\n");
            }
            Demux::Linear => {
                self.w.push(
                    "/// Server dispatch on a string discriminator (the IIOP operation\n\
                     /// name), compared name by name (`demux-switch` disabled).\n\
                     pub fn dispatch_by_name<S: Server>(op: &[u8], body: &[u8], reply: &mut MarshalBuf, srv: &mut S) -> Result<(), DecodeError> {\n",
                );
                for stub in stubs {
                    line!(self.w, 1, "if op == &b\"{}\"[..] {{", stub.op.wire_name);
                    self.dispatch_arm(stub, 2, None)?;
                    self.w.line(1, "} else");
                }
                self.w.line(1, "{");
                self.w.line(
                    2,
                    "Err(DecodeError::BadDiscriminator { value: op.len() as i64 })",
                );
                self.w.line(1, "}");
                self.w.push("}\n\n");
            }
        }
        Ok(())
    }

    /// Generates the §3.3 nested word switches from the demux trie the
    /// `demux-switch` pass built.
    fn trie_node(
        &mut self,
        node: &DemuxNode,
        stubs: &[&StubPlan],
        d: usize,
        mut prefetched: Option<Tmp>,
    ) -> Result<(), String> {
        if prefetched.is_none() && !node.prefix.is_empty() {
            // `merge-prefix` hoisted the shared leading count above the
            // word switch: every operation below this node decodes it
            // here, once, instead of per arm.
            self.w.line(d, "let mut r = MsgReader::new(body);");
            self.w.line(d, "let r = &mut r;");
            if !self.be.encoding.widen_to_word {
                self.w.line(d, "let _base = r.pos();");
            }
            for step in &node.prefix {
                match step {
                    PrefixStep::LenU32 => {
                        self.align_dec(4, d);
                        let pv = self.w.fresh("plen");
                        let order = sfx(self.be.encoding.len_prefix().order);
                        line!(
                            self.w,
                            d,
                            "let {pv} = r.get_u32_{order}()? as usize; // merge-prefix: shared count for every arm below"
                        );
                        prefetched = Some(pv);
                    }
                }
            }
        }
        line!(self.w, d, "match word_at(op, {}) {{", node.word * 4);
        for (w, arm) in &node.arms {
            match arm {
                DemuxArm::Op(name) => {
                    let s = stubs
                        .iter()
                        .find(|s| s.op.name == *name)
                        .ok_or_else(|| format!("demux trie names unknown operation `{name}`"))?;
                    line!(
                        self.w,
                        d + 1,
                        "{w}u32 if op.len() == {} => {{ // \"{}\"",
                        s.op.wire_name.len(),
                        s.op.wire_name
                    );
                    self.dispatch_arm(s, d + 2, prefetched)?;
                    self.w.line(d + 1, "}");
                }
                DemuxArm::Descend(child) => {
                    line!(self.w, d + 1, "{w}u32 => {{");
                    self.trie_node(child, stubs, d + 2, prefetched)?;
                    self.w.line(d + 1, "}");
                }
            }
        }
        self.w.line(
            d + 1,
            "_ => Err(DecodeError::BadDiscriminator { value: op.len() as i64 }),",
        );
        self.w.line(d, "}");
        Ok(())
    }
}

struct EncCtx {
    /// True when an enclosing `ensure` already covers this region.
    covered: bool,
    /// Current indent depth.
    depth: usize,
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
        assert!(
            src.contains("buf.ensure(12); // whole message is fixed-size"),
            "{src}"
        );
    }

    #[test]
    fn loop_hoisted_ensure_for_fixed_elements() {
        // A 5-byte CDR chunk aligned to 4 does not tile, so the array
        // keeps its loop: one chunk per element, the space check
        // hoisted out in front.
        let src = rust_for(
            r"
            struct R { long a; char c; };
            typedef sequence<R> Rs;
            interface I { void put(in Rs rs); };
            ",
            "I",
            Transport::IiopTcp,
        );
        assert!(src.contains("* 5); // hoisted from the loop"), "{src}");
        assert!(src.contains("buf.chunk(5)"), "{src}");
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
        // Standalone encode/decode, the numeric dispatch arm and the
        // merge-prefix word-switch arm: one kernel call each, behind
        // one checked count × size.
        assert_eq!(
            src.matches("buf.put_swapped(4, pod::bytes_of(&vals[..])); // swizzle run")
                .count(),
            1,
            "{src}"
        );
        assert_eq!(
            src.matches("pod::vec_from_swapped(r.run(").count(),
            3,
            "{src}"
        );
        assert!(!src.contains("for _e1 in vals.iter().copied()"), "{src}");
        // The call stub reaches the kernel through the encode fn.
        assert!(
            src.contains("encode_send_ints_request(&mut buf, vals);"),
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
        // Decode: standalone fn + two dispatch arms, one truncation
        // check each and no capacity guessed from the count.
        assert_eq!(src.matches("r.strides(").count(), 3, "{src}");
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
        assert_eq!(off.matches("r.strides(").count(), 3, "{off}");
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
        // Standalone encode/decode and both dispatch-arm kinds; the
        // call stub reaches the run through the encode fn.
        assert_eq!(src.matches(put).count(), 1, "{src}");
        assert_eq!(src.matches(get).count(), 3, "{src}");
        assert!(
            src.contains("encode_send_rects_request(&mut buf, rects);"),
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
        // when it is empty, then the bytes themselves.
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
            src.contains("if !ss.is_empty() { buf.align_from(_base, 8); }"),
            "{src}"
        );
        assert!(
            src.contains("buf.put_bytes(pod::bytes_of(ss)); // image run"),
            "{src}"
        );
        assert!(src.contains(" > 0 { r.align_from(_base, 8)?; }"), "{src}");
        assert_eq!(
            src.matches("pod::vec_from_bytes(r.run(").count(),
            3,
            "{src}"
        );
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
        // aligned either).
        let src = rust_for(
            r"
            struct S { double d; long n; boolean on; char tag[3]; };
            typedef sequence<S> Ss;
            interface I { void put(in Ss ss); };
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
