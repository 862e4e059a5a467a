//! Encoding→encoding transcode plans (the cross-encoding gateway).
//!
//! Everything else in this backend lowers one side of the shape
//! "wire ↔ presentation".  This module generalizes the MIR to target a
//! *pair* of encodings: from the same MINT/PRES-C input it lowers, per
//! operation, a [`TranscodePlan`] whose ops rewrite bytes directly from
//! a source encoding into a target encoding without ever materializing
//! the presentation — the Fisher/Pucella/Reppy interoperability shape.
//!
//! Lowering walks the presentation tree with *both* encoding tables in
//! hand and produces a flat list of [`XcOp`]s per message direction.
//! The raw list is slot-wise: every scalar is a checked
//! copy-with-reswizzle ([`XcOp::Prim`]), every counted region re-reads
//! and re-writes its length prefix, every hostile check the endpoint
//! decoder performs (bounds, NUL conventions, discriminator and
//! optional-flag validity, UTF-8) is retained at the same stream
//! position.  [`fuse`] then runs the transcode analogue of the
//! `coalesce-memcpy` pass under one rule: a *run* ([`XcOp::Run`]) is a
//! maximal span of adjacent scalars that tile both streams — bytes that
//! cross behind one bounds check and one target reservation, each part
//! either copied ([`copyable`]) or swap-copied ([`swappable`], the
//! endpoint stubs' kernel).  Fixed arrays of one tiling run hoist into
//! the run, and counted sequences whose element is one tiling run move
//! `len * size` bytes behind the same bound check.  A run left holding
//! a single swappable scalar goes back to the [`XcOp::Prim`] it was:
//! one checked read-swap-write beats a 4-byte kernel call.
//!
//! Run admissibility is deliberately strict:
//!
//! * sizes and slots must match exactly — an XDR-widened sub-word value
//!   carries four wire bytes but only `size` meaningful ones, and the
//!   naive decode path truncates hostile high bits; a run would
//!   preserve them, so widened slots never join one;
//! * multi-byte values in equal byte order (and all bytes) are copied,
//!   in opposite orders swapped — bit for bit what
//!   decode-then-re-encode does to an integer;
//! * floats never join a run — the unfused path moves them as raw bits
//!   (see the emitter), but they are kept slot-wise so the obligation
//!   stays visible to the verifier;
//! * padding is never copied: XDR pad bytes are rewritten as zeros
//!   ([`XcOp::Pad`]), so hostile nonzero padding cannot leak through
//!   the gateway.
//!
//! [`verify`] re-derives every fusion obligation from scratch, the same
//! contract the pass-pipeline verifier provides for endpoint plans; the
//! naive twin lists (the `--disable-pass=fuse-transcode` fallback) must
//! contain no fused op at all.

use std::collections::BTreeMap;

use flick_mint::{MintId, MintNode};
use flick_pres::{Name, PresC, PresId, PresNode, Stub};

use crate::encoding::{Encoding, WirePrim};
use crate::mir::type_name_of;

/// One run-length-encoded component of a fused run: `count`
/// consecutive values sharing a source and target wire form, all
/// copied or all swapped.
#[derive(Clone, Debug, PartialEq)]
pub struct XcPart {
    /// Wire form on the source encoding.
    pub src: WirePrim,
    /// Wire form on the target encoding.
    pub dst: WirePrim,
    /// Number of consecutive values.
    pub count: u64,
}

impl XcPart {
    /// Bytes this part contributes to its run.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.count * u64::from(self.src.slot)
    }

    /// True when the part crosses through the swap kernel rather than
    /// a plain copy.
    #[must_use]
    pub fn swapped(&self) -> bool {
        swappable(&self.src, &self.dst)
    }
}

/// One step of an encoding→encoding rewrite.
#[derive(Clone, Debug, PartialEq)]
pub enum XcOp {
    /// Re-encode one scalar: read in the source wire form, write in the
    /// target wire form (reswizzling order and slot width as needed).
    Prim {
        /// Source wire form.
        src: WirePrim,
        /// Target wire form.
        dst: WirePrim,
    },
    /// A fused run: `bytes` of wire data that tile both streams and
    /// cross behind one bounds check, each of `parts` by one copy or
    /// one swap-copy.  `parts[0]` carries the run's alignment
    /// requirement (later parts are admitted only at compatible
    /// offsets).
    Run {
        /// Total bytes moved.
        bytes: u64,
        /// Constituent values, run-length encoded.
        parts: Vec<XcPart>,
    },
    /// Trailing padding after a packed run: skip `src` bytes on the
    /// source stream, write `dst` zero bytes on the target stream.
    /// Never fused into a run — hostile nonzero pad bytes must
    /// be rewritten as zeros, exactly as the naive path would.
    Pad {
        /// Source pad bytes to skip.
        src: u64,
        /// Target pad bytes to write (as zeros).
        dst: u64,
    },
    /// A string: re-read the length prefix under `bound`, validate
    /// UTF-8 and the framing convention of each side (XDR counted+pad
    /// vs CDR counted-including-NUL), re-emit under the target framing
    /// without owning the bytes.
    Str {
        /// Declared bound (elements, per the MINT array).
        bound: Option<u64>,
    },
    /// A counted sequence: re-read the length prefix under `bound`,
    /// then transcode `elem` per element.  When `bulk` is `Some(n)`,
    /// fusion proved each element is one tiling `n`-byte run — the
    /// emitter then takes `len * n` bytes behind the same bound check
    /// and one checked multiply.
    /// `src_pad`/`dst_pad` mark XDR-style trailing padding of packed
    /// byte elements.
    Counted {
        /// Declared bound (elements, per the MINT array).
        bound: Option<u64>,
        /// Per-element rewrite.
        elem: Vec<XcOp>,
        /// Fused per-element byte count, if the element collapsed.
        bulk: Option<u64>,
        /// Source stream pads the packed data to its pad unit.
        src_pad: bool,
        /// Target stream pads the packed data to its pad unit.
        dst_pad: bool,
    },
    /// A fixed-length array whose element did not collapse: transcode
    /// `elem` exactly `len` times.
    Fixed {
        /// Element count.
        len: u64,
        /// Per-element rewrite.
        elem: Vec<XcOp>,
    },
    /// A discriminated union: re-encode the discriminator, then the arm
    /// it selects.  Unlisted values without a default arm reject with
    /// `BadDiscriminator`, as the endpoint decoder does.
    Union {
        /// Discriminator wire form on the source encoding.
        src_disc: WirePrim,
        /// Discriminator wire form on the target encoding.
        dst_disc: WirePrim,
        /// `(label value, arm rewrite)` per case.
        cases: Vec<(i64, Vec<XcOp>)>,
        /// Rewrite for unlisted discriminator values, if any.
        default: Option<Vec<XcOp>>,
    },
    /// ONC-style optional data: re-encode the presence flag (valid
    /// values 0/1, anything else rejects), then the pointee if present.
    Opt {
        /// Flag wire form on the source encoding.
        src_flag: WirePrim,
        /// Flag wire form on the target encoding.
        dst_flag: WirePrim,
        /// Pointee rewrite.
        elem: Vec<XcOp>,
    },
    /// Call an out-of-line helper — the recursion back-edge of
    /// self-referential presentations (linked lists).  Helper bodies
    /// live in the plan's per-direction outline tables and are never
    /// fused (each body re-walks one node, calling itself for the
    /// tail).
    Outline {
        /// Helper key (the presentation type name).
        key: Name,
    },
}

/// The per-operation encoding→encoding rewrite, in every direction the
/// generated gateway needs.
///
/// "Forward" is source-encoding→target-encoding (`src → dst` as given
/// to [`plan`]); "reverse" is the opposite.  A gateway bridging an ONC
/// client to a GIOP server uses `request` (forward) on the way in and
/// `reply` (reverse) on the way back; a gateway facing the other way
/// uses the `_rev` pair.
#[derive(Clone, Debug, PartialEq)]
pub struct TranscodePlan {
    /// Operation metadata (shared with the endpoint stubs).
    pub op: flick_pres::OpInfo,
    /// Forward rewrite of the request body (fused when the plan is).
    pub request: Vec<XcOp>,
    /// Reverse rewrite of the reply body (fused when the plan is).
    pub reply: Vec<XcOp>,
    /// Unfused forward request rewrite — the
    /// `--disable-pass=fuse-transcode` fallback, kept for the ablation
    /// and the equivalence tests.
    pub naive_request: Vec<XcOp>,
    /// Unfused reverse reply rewrite.
    pub naive_reply: Vec<XcOp>,
    /// Reverse rewrite of the request body (for a gateway whose
    /// clients speak the *target* encoding).
    pub request_rev: Vec<XcOp>,
    /// Forward rewrite of the reply body.
    pub reply_rev: Vec<XcOp>,
}

/// Aggregate fusion statistics over the forward request/reply rewrites
/// (`flickc --transcode=SRC:DST --stats` prints them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct XcStats {
    /// Slot-wise scalar rewrites remaining after fusion.
    pub prim_ops: u64,
    /// Fused runs.
    pub runs: u64,
    /// Total bytes the runs move (per element, for a bulk sequence).
    pub run_bytes: u64,
    /// The share of `run_bytes` that goes through the swap kernel.
    pub swapped_bytes: u64,
    /// Counted sequences whose elements move in bulk.
    pub bulk_seqs: u64,
    /// String rewrites.
    pub strings: u64,
    /// Out-of-line helper calls.
    pub outlined: u64,
}

impl XcStats {
    /// The statistics as named `--stats` counters, in print order.
    #[must_use]
    pub fn counters(&self) -> [(&'static str, u64); 7] {
        [
            ("transcode.prim_ops", self.prim_ops),
            ("transcode.runs", self.runs),
            ("transcode.run_bytes", self.run_bytes),
            ("transcode.swapped_bytes", self.swapped_bytes),
            ("transcode.bulk_seqs", self.bulk_seqs),
            ("transcode.strings", self.strings),
            ("transcode.outlined", self.outlined),
        ]
    }
}

/// A full interface rewrite: one [`TranscodePlan`] per operation plus
/// the out-of-line helper bodies for each direction.
#[derive(Clone, Debug)]
pub struct TranscodePlans {
    /// Scoped interface name.
    pub interface: String,
    /// Transport program identity (ONC RPC program number).
    pub program: u64,
    /// Transport version.
    pub version: u64,
    /// Source encoding.
    pub src: Encoding,
    /// Target encoding.
    pub dst: Encoding,
    /// Whether the primary op lists were fused (`fuse-transcode` on).
    pub fused: bool,
    /// Per-operation rewrites, in stub order.
    pub stubs: Vec<TranscodePlan>,
    /// Out-of-line helper bodies for the forward (src→dst) direction.
    pub outlines_fwd: BTreeMap<Name, Vec<XcOp>>,
    /// Out-of-line helper bodies for the reverse (dst→src) direction.
    pub outlines_rev: BTreeMap<Name, Vec<XcOp>>,
    /// Fusion statistics over the forward rewrites.
    pub stats: XcStats,
}

/// Lowers every operation of `presc` into an encoding-pair rewrite
/// from `src` to `dst`, fusing when `fused` is set, and verifies the
/// result.
///
/// # Errors
/// Returns a message naming the unsupported construct: typed-descriptor
/// encodings (Mach-style framing interleaves type words with data and
/// has no position-stable rewrite), non-atomic scalars, or a plan that
/// fails its own verification.
pub fn plan(
    presc: &PresC,
    src: &Encoding,
    dst: &Encoding,
    fused: bool,
) -> Result<TranscodePlans, String> {
    for enc in [src, dst] {
        if enc.typed_descriptors {
            return Err(format!(
                "transcode: encoding `{}` frames items with type descriptors; \
                 only xdr/cdr-be/cdr-le streams can be rewritten position-to-position",
                enc.name
            ));
        }
    }

    let mut fwd = Lower::new(presc, src, dst);
    let mut rev = Lower::new(presc, dst, src);
    let mut stubs = Vec::new();
    let mut seen = Vec::new();
    for stub in &presc.stubs {
        if seen.contains(&stub.op.name) {
            continue;
        }
        seen.push(stub.op.name.clone());
        stubs.push(lower_stub(stub, &mut fwd, &mut rev, fused)?);
    }

    let outlines_fwd = fwd.build_outlines()?;
    let outlines_rev = rev.build_outlines()?;

    let mut stats = XcStats::default();
    for s in &stubs {
        count_ops(&s.request, &mut stats);
        count_ops(&s.reply_rev, &mut stats);
    }

    let plans = TranscodePlans {
        interface: presc.interface.clone(),
        program: presc.program,
        version: presc.version,
        src: src.clone(),
        dst: dst.clone(),
        fused,
        stubs,
        outlines_fwd,
        outlines_rev,
        stats,
    };
    verify(&plans)?;
    Ok(plans)
}

fn lower_stub(
    stub: &Stub,
    fwd: &mut Lower<'_>,
    rev: &mut Lower<'_>,
    fused: bool,
) -> Result<TranscodePlan, String> {
    let ctx = |what: &str, e: String| format!("op `{}` {what}: {e}", stub.op.name);
    let raw_request = fwd
        .lower_message(&stub.request)
        .map_err(|e| ctx("request", e))?;
    let raw_reply_fwd = fwd
        .lower_message(&stub.reply)
        .map_err(|e| ctx("reply", e))?;
    let raw_request_rev = rev
        .lower_message(&stub.request)
        .map_err(|e| ctx("request", e))?;
    let raw_reply = rev
        .lower_message(&stub.reply)
        .map_err(|e| ctx("reply", e))?;

    let maybe_fuse = |ops: &[XcOp]| {
        if fused {
            fuse(ops.to_vec())
        } else {
            ops.to_vec()
        }
    };
    Ok(TranscodePlan {
        op: stub.op.clone(),
        request: maybe_fuse(&raw_request),
        reply: maybe_fuse(&raw_reply),
        naive_request: raw_request,
        naive_reply: raw_reply,
        request_rev: maybe_fuse(&raw_request_rev),
        reply_rev: maybe_fuse(&raw_reply_fwd),
    })
}

// ---------------------------------------------------------------------------
// Lowering: presentation tree → raw (unfused) op list, one direction.
// ---------------------------------------------------------------------------

struct Lower<'a> {
    presc: &'a PresC,
    from: &'a Encoding,
    to: &'a Encoding,
    /// Keys of the aggregates currently being walked (cycle guard).
    stack: Vec<Name>,
    /// Recursive presentations demanded as out-of-line helpers.
    demand: BTreeMap<Name, PresId>,
}

impl<'a> Lower<'a> {
    fn new(presc: &'a PresC, from: &'a Encoding, to: &'a Encoding) -> Self {
        Lower {
            presc,
            from,
            to,
            stack: Vec::new(),
            demand: BTreeMap::new(),
        }
    }

    /// Lowers one message: the live slots in marshal order.  Dead slots
    /// (`live: false`) left the wire at the endpoints via the
    /// `dead-slot` pass, so the gateway never sees their bytes; the
    /// transcoder assumes endpoint stubs built with the full pipeline.
    fn lower_message(&mut self, msg: &flick_pres::MessagePres) -> Result<Vec<XcOp>, String> {
        let mut out = Vec::new();
        for slot in &msg.slots {
            if !slot.live {
                continue;
            }
            self.walk(slot.pres, &mut out)?;
        }
        Ok(out)
    }

    fn walk(&mut self, pres: PresId, out: &mut Vec<XcOp>) -> Result<(), String> {
        let presc = self.presc;
        let node = presc.pres.get(pres);
        let is_candidate = matches!(
            node,
            PresNode::StructMap { .. } | PresNode::UnionMap { .. } | PresNode::OptionalPtr { .. }
        );
        if is_candidate {
            let key = type_name_of(presc, pres).unwrap_or_else(|| crate::plan::anon_key(pres));
            if self.stack.contains(&key) {
                self.demand.insert(key.clone(), pres);
                out.push(XcOp::Outline { key });
                return Ok(());
            }
            self.stack.push(key);
        }
        let r = self.walk_inner(node, out);
        if is_candidate {
            self.stack.pop();
        }
        r
    }

    fn walk_inner(&mut self, node: &PresNode, out: &mut Vec<XcOp>) -> Result<(), String> {
        match node {
            PresNode::Void => {}
            PresNode::Direct { mint, .. } => {
                if let Some((src, dst)) = self.atom(*mint)? {
                    out.push(XcOp::Prim { src, dst });
                }
            }
            // Enums travel as a 4-byte unsigned on every encoding
            // (mirrors the endpoint lowering in `plan.rs`).
            PresNode::EnumMap { .. } => out.push(XcOp::Prim {
                src: self.from.prim_for_size(4, false),
                dst: self.to.prim_for_size(4, false),
            }),
            PresNode::FixedArray { elem, len, .. } => {
                self.lower_fixed(*elem, *len, out)?;
            }
            PresNode::TerminatedString { mint, .. } => out.push(XcOp::Str {
                bound: self.array_bound(*mint)?,
            }),
            PresNode::OptPtr { mint, elem, .. } | PresNode::CountedSeq { mint, elem, .. } => {
                self.lower_counted(*mint, *elem, out)?;
            }
            PresNode::StructMap { fields, .. } => {
                for (_, f) in fields {
                    self.walk(*f, out)?;
                }
            }
            PresNode::UnionMap {
                discrim,
                cases,
                default,
                ..
            } => {
                let (src_disc, dst_disc) = match self.presc.pres.get(*discrim) {
                    PresNode::Direct { mint, .. } => match self.atom(*mint)? {
                        Some(pair) => pair,
                        None => return Err("transcode: void union discriminator".into()),
                    },
                    PresNode::EnumMap { .. } => (
                        self.from.prim_for_size(4, false),
                        self.to.prim_for_size(4, false),
                    ),
                    other => {
                        return Err(format!(
                            "transcode: unsupported union discriminator {other:?}"
                        ))
                    }
                };
                let mut arms = Vec::new();
                for (v, _, c) in cases {
                    let mut body = Vec::new();
                    self.walk(*c, &mut body)?;
                    arms.push((*v, body));
                }
                let default = match default {
                    Some((_, d)) => {
                        let mut body = Vec::new();
                        self.walk(*d, &mut body)?;
                        Some(body)
                    }
                    None => None,
                };
                out.push(XcOp::Union {
                    src_disc,
                    dst_disc,
                    cases: arms,
                    default,
                });
            }
            PresNode::OptionalPtr { elem, .. } => {
                let mut body = Vec::new();
                self.walk(*elem, &mut body)?;
                out.push(XcOp::Opt {
                    src_flag: self.from.prim_for_size(1, false),
                    dst_flag: self.to.prim_for_size(1, false),
                    elem: body,
                });
            }
        }
        Ok(())
    }

    fn lower_fixed(&mut self, elem: PresId, len: u64, out: &mut Vec<XcOp>) -> Result<(), String> {
        if let Some((src, dst)) = self.elem_prims(elem)? {
            out.push(XcOp::Fixed {
                len,
                elem: vec![XcOp::Prim { src, dst }],
            });
            let sp = trailing_pad(self.from, src, len);
            let dp = trailing_pad(self.to, dst, len);
            if sp > 0 || dp > 0 {
                out.push(XcOp::Pad { src: sp, dst: dp });
            }
        } else {
            let mut body = Vec::new();
            self.walk(elem, &mut body)?;
            out.push(XcOp::Fixed { len, elem: body });
        }
        Ok(())
    }

    fn lower_counted(
        &mut self,
        mint: MintId,
        elem: PresId,
        out: &mut Vec<XcOp>,
    ) -> Result<(), String> {
        let bound = self.array_bound(mint)?;
        let (body, src_pad, dst_pad) = if let Some((src, dst)) = self.elem_prims(elem)? {
            // Packed byte elements need trailing padding on word-unit
            // streams; wider slots always tile the pad unit already.
            (
                vec![XcOp::Prim { src, dst }],
                self.from.pad_unit.is_some() && src.slot == 1,
                self.to.pad_unit.is_some() && dst.slot == 1,
            )
        } else {
            let mut body = Vec::new();
            self.walk(elem, &mut body)?;
            (body, false, false)
        };
        out.push(XcOp::Counted {
            bound,
            elem: body,
            bulk: None,
            src_pad,
            dst_pad,
        });
        Ok(())
    }

    /// Source/target wire forms of an atomic MINT node; `None` for
    /// void (no bytes).
    fn atom(&self, m: MintId) -> Result<Option<(WirePrim, WirePrim)>, String> {
        match self.presc.mint.get(m) {
            MintNode::Void => Ok(None),
            MintNode::Integer { .. } | MintNode::Scalar(_) => Ok(Some((
                self.from.prim(&self.presc.mint, m),
                self.to.prim(&self.presc.mint, m),
            ))),
            other => Err(format!("transcode: scalar over non-atomic MINT {other:?}")),
        }
    }

    /// Wire forms of an array element if it is a scalar presentation.
    fn elem_prims(&self, elem: PresId) -> Result<Option<(WirePrim, WirePrim)>, String> {
        match self.presc.pres.get(elem) {
            PresNode::Direct { mint, .. } => match self.presc.mint.get(*mint) {
                MintNode::Void => Ok(None),
                MintNode::Integer { .. } | MintNode::Scalar(_) => Ok(Some((
                    self.from.elem_prim(&self.presc.mint, *mint),
                    self.to.elem_prim(&self.presc.mint, *mint),
                ))),
                other => Err(format!("transcode: array of non-atomic MINT {other:?}")),
            },
            PresNode::EnumMap { .. } => Ok(Some((
                self.from.prim_for_size(4, false),
                self.to.prim_for_size(4, false),
            ))),
            _ => Ok(None),
        }
    }

    fn array_bound(&self, m: MintId) -> Result<Option<u64>, String> {
        match self.presc.mint.get(m) {
            MintNode::Array { len, .. } => Ok(len.max),
            other => Err(format!(
                "transcode: counted data over non-array MINT {other:?}"
            )),
        }
    }

    /// Resolves every demanded out-of-line helper to its body,
    /// discovering transitively demanded helpers as it goes.  Bodies
    /// are lowered raw (never fused): they are shared between the
    /// fused and naive emission paths, and recursion dominates their
    /// cost anyway.
    fn build_outlines(&mut self) -> Result<BTreeMap<Name, Vec<XcOp>>, String> {
        let mut done: BTreeMap<Name, Vec<XcOp>> = BTreeMap::new();
        loop {
            let next = self
                .demand
                .iter()
                .find(|(k, _)| !done.contains_key(*k))
                .map(|(k, p)| (k.clone(), *p));
            let Some((key, pres)) = next else {
                return Ok(done);
            };
            self.stack.clear();
            let mut body = Vec::new();
            self.walk(pres, &mut body)?;
            done.insert(key, body);
        }
    }
}

/// Trailing padding after a fixed packed run (mirrors the layout
/// cursor: runs that tile — `slot == size` — pad the stream to the
/// encoding's pad unit; widened elements are already word-multiples).
fn trailing_pad(enc: &Encoding, p: WirePrim, len: u64) -> u64 {
    if p.slot != p.size {
        return 0;
    }
    match enc.pad_unit {
        Some(u) => {
            let data = len * u64::from(p.slot);
            let u = u64::from(u);
            (u - data % u) % u
        }
        None => 0,
    }
}

// ---------------------------------------------------------------------------
// Fusion: the transcode analogue of coalesce-memcpy.
// ---------------------------------------------------------------------------

/// True when a scalar's two wire forms agree byte-for-byte, making a
/// raw copy equivalent to decode-then-re-encode even on hostile input.
#[must_use]
pub fn copyable(src: &WirePrim, dst: &WirePrim) -> bool {
    if src.size != dst.size || src.slot != src.size || dst.slot != dst.size {
        return false;
    }
    if src.float || dst.float {
        return false;
    }
    src.size == 1 || src.order == dst.order
}

/// True when a scalar's two wire forms hold the same bytes in opposite
/// order: both tile their stream (`slot == size`) at an alignment the
/// element size keeps, so a sequence of them is one run that a single
/// swap-copy rewrites — bit for bit what decode-then-re-encode does.
/// Floats stay slot-wise, as in [`copyable`].
#[must_use]
pub fn swappable(src: &WirePrim, dst: &WirePrim) -> bool {
    src.size == dst.size
        && src.forms_run()
        && dst.forms_run()
        && !src.float
        && !dst.float
        && src.size > 1
        && src.order != dst.order
        && src.size.is_multiple_of(src.align.max(1))
        && dst.size.is_multiple_of(dst.align.max(1))
}

/// Fuses a raw op list: collapses adjacent run-forming prims into
/// runs, hoists fixed arrays of one tiling run, marks counted sequences
/// whose element is one tiling run for bulk moves, and lowers what is
/// left of a run that never grew past one swappable scalar.
#[must_use]
pub fn fuse(ops: Vec<XcOp>) -> Vec<XcOp> {
    let mut out = collapse(ops);
    unrun_singletons(&mut out);
    out
}

fn collapse(ops: Vec<XcOp>) -> Vec<XcOp> {
    let mut out: Vec<XcOp> = Vec::new();
    for op in ops {
        match fuse_children(op) {
            XcOp::Prim { src, dst } if copyable(&src, &dst) || swappable(&src, &dst) => {
                append_part(&mut out, XcPart { src, dst, count: 1 });
            }
            XcOp::Run { parts, .. } => {
                for p in parts {
                    append_part(&mut out, p);
                }
            }
            other => out.push(other),
        }
    }
    out
}

/// The op lists nested directly inside `op`.
fn children_mut(op: &mut XcOp) -> Vec<&mut Vec<XcOp>> {
    match op {
        XcOp::Fixed { elem, .. } | XcOp::Counted { elem, .. } | XcOp::Opt { elem, .. } => {
            vec![elem]
        }
        XcOp::Union { cases, default, .. } => {
            cases.iter_mut().map(|(_, b)| b).chain(default).collect()
        }
        _ => Vec::new(),
    }
}

/// Fuses inside an op's children and applies the per-op rewrites
/// (fixed-array hoist, counted bulk marking).
fn fuse_children(mut op: XcOp) -> XcOp {
    for list in children_mut(&mut op) {
        *list = collapse(std::mem::take(list));
    }
    match &mut op {
        XcOp::Fixed { len, elem } if *len > 0 => {
            if let [XcOp::Run { bytes, parts }] = elem.as_slice() {
                if tiles(*bytes, parts) && (parts.len() == 1 || *len * parts.len() as u64 <= 256) {
                    return scale_block(*len, *bytes, parts);
                }
            }
        }
        XcOp::Counted { elem, bulk, .. } => {
            *bulk = match elem.as_slice() {
                [XcOp::Run { bytes, parts }] if tiles(*bytes, parts) => Some(*bytes),
                _ => None,
            };
        }
        _ => {}
    }
    op
}

/// A 4-byte kernel call is slower than one checked read-swap-write: a
/// run that after hoisting and bulk marking still holds a single
/// swappable scalar goes back to the prim it was.  (The element of a
/// bulk sequence is the unit of a `len`-long run, not a singleton.)
fn unrun_singletons(ops: &mut [XcOp]) {
    for op in ops {
        if let XcOp::Run { parts, .. } = op {
            if let [XcPart { src, dst, count: 1 }] = parts[..] {
                if swappable(&src, &dst) {
                    *op = XcOp::Prim { src, dst };
                }
            }
        } else if !matches!(op, XcOp::Counted { bulk: Some(_), .. }) {
            for list in children_mut(op) {
                unrun_singletons(list);
            }
        }
    }
}

/// True when repeating a `bytes`-wide block keeps every part aligned —
/// the hoist/bulk admission rule.
fn tiles(bytes: u64, parts: &[XcPart]) -> bool {
    parts.iter().all(|p| {
        bytes.is_multiple_of(u64::from(p.src.align.max(1)))
            && bytes.is_multiple_of(u64::from(p.dst.align.max(1)))
    })
}

/// A fixed array of one tiling `bytes`-wide run, hoisted to a single
/// `len * bytes` run.
fn scale_block(len: u64, bytes: u64, parts: &[XcPart]) -> XcOp {
    let scaled = if parts.len() == 1 {
        let mut p = parts[0].clone();
        p.count *= len;
        vec![p]
    } else {
        let mut v = Vec::with_capacity(parts.len() * usize::try_from(len).unwrap_or(usize::MAX));
        for _ in 0..len {
            v.extend(parts.iter().cloned());
        }
        v
    };
    XcOp::Run {
        bytes: len * bytes,
        parts: scaled,
    }
}

/// Appends one copyable or swappable part to the op list, extending
/// the trailing run when the part is admissible at the run's current
/// offset: its alignment must not exceed the run head's (the head
/// carries the runtime alignment), and the offset must satisfy it on
/// both streams.
fn append_part(out: &mut Vec<XcOp>, part: XcPart) {
    if let Some(XcOp::Run { bytes, parts }) = out.last_mut() {
        let head = &parts[0];
        let sa = u64::from(part.src.align.max(1));
        let da = u64::from(part.dst.align.max(1));
        if part.src.align <= head.src.align
            && part.dst.align <= head.dst.align
            && *bytes % sa == 0
            && *bytes % da == 0
        {
            let add = part.bytes();
            if let Some(last) = parts.last_mut() {
                if last.src == part.src && last.dst == part.dst {
                    last.count += part.count;
                    *bytes += add;
                    return;
                }
            }
            parts.push(part);
            *bytes += add;
            return;
        }
    }
    let bytes = part.bytes();
    out.push(XcOp::Run {
        bytes,
        parts: vec![part],
    });
}

// ---------------------------------------------------------------------------
// Verification: every fusion obligation re-derived from scratch.
// ---------------------------------------------------------------------------

/// Checks a lowered transcode plan.
///
/// Obligations: fused ops (`Run`, counted `bulk`) appear only in
/// primary lists of a fused plan, never in the naive twins or outline
/// bodies; every part of a run is [`copyable`] or [`swappable`] — so
/// never widened, never a float — and aligned at its offset on both
/// streams, and the run's byte count is the parts' sum; a bulk-marked
/// sequence's element is exactly one tiling run of the marked width;
/// every prim pair agrees on size/signedness/floatness; union labels
/// are unique; every outline key resolves in its direction's helper
/// table.  Pads, strings, discriminators and optional flags are ops of
/// their own and cannot be parts.
///
/// # Errors
/// Returns a message naming the op and the violated obligation.
pub fn verify(plans: &TranscodePlans) -> Result<(), String> {
    for stub in &plans.stubs {
        let op = &stub.op.name;
        let fused = plans.fused;
        check_ops(&stub.request, fused, &plans.outlines_fwd)
            .map_err(|e| format!("op `{op}` request: {e}"))?;
        check_ops(&stub.reply, fused, &plans.outlines_rev)
            .map_err(|e| format!("op `{op}` reply: {e}"))?;
        check_ops(&stub.naive_request, false, &plans.outlines_fwd)
            .map_err(|e| format!("op `{op}` naive request: {e}"))?;
        check_ops(&stub.naive_reply, false, &plans.outlines_rev)
            .map_err(|e| format!("op `{op}` naive reply: {e}"))?;
        check_ops(&stub.request_rev, fused, &plans.outlines_rev)
            .map_err(|e| format!("op `{op}` reverse request: {e}"))?;
        check_ops(&stub.reply_rev, fused, &plans.outlines_fwd)
            .map_err(|e| format!("op `{op}` reverse reply: {e}"))?;
    }
    for (key, body) in &plans.outlines_fwd {
        check_ops(body, false, &plans.outlines_fwd)
            .map_err(|e| format!("forward outline `{key}`: {e}"))?;
    }
    for (key, body) in &plans.outlines_rev {
        check_ops(body, false, &plans.outlines_rev)
            .map_err(|e| format!("reverse outline `{key}`: {e}"))?;
    }
    Ok(())
}

fn check_ops(
    ops: &[XcOp],
    fused_allowed: bool,
    outlines: &BTreeMap<Name, Vec<XcOp>>,
) -> Result<(), String> {
    for op in ops {
        match op {
            XcOp::Prim { src, dst } => {
                if src.size != dst.size || src.signed != dst.signed || src.float != dst.float {
                    return Err(format!(
                        "prim pair disagrees on value shape: {src:?} vs {dst:?}"
                    ));
                }
            }
            XcOp::Run { bytes, parts } => {
                if !fused_allowed {
                    return Err("run in an unfused op list".into());
                }
                check_run(*bytes, parts)?;
            }
            XcOp::Pad { .. } | XcOp::Str { .. } => {}
            XcOp::Counted { elem, bulk, .. } => {
                if let Some(b) = bulk {
                    if !fused_allowed {
                        return Err("bulk-marked sequence in an unfused op list".into());
                    }
                    match elem.as_slice() {
                        [XcOp::Run { bytes, parts }] if bytes == b && tiles(*b, parts) => {}
                        other => {
                            return Err(format!(
                                "bulk mark {b} not backed by one tiling run: {other:?}"
                            ))
                        }
                    }
                }
                check_ops(elem, fused_allowed, outlines)?;
            }
            XcOp::Fixed { elem, .. } => check_ops(elem, fused_allowed, outlines)?,
            XcOp::Union { cases, default, .. } => {
                let mut labels: Vec<i64> = cases.iter().map(|(v, _)| *v).collect();
                labels.sort_unstable();
                labels.dedup();
                if labels.len() != cases.len() {
                    return Err("duplicate union labels".into());
                }
                for (_, b) in cases {
                    check_ops(b, fused_allowed, outlines)?;
                }
                if let Some(d) = default {
                    check_ops(d, fused_allowed, outlines)?;
                }
            }
            XcOp::Opt {
                src_flag,
                dst_flag,
                elem,
            } => {
                if src_flag.size != 1 || dst_flag.size != 1 {
                    return Err("optional flag must be a 1-byte value".into());
                }
                check_ops(elem, fused_allowed, outlines)?;
            }
            XcOp::Outline { key } => {
                if !outlines.contains_key(key) {
                    return Err(format!("outline `{key}` has no helper body"));
                }
            }
        }
    }
    Ok(())
}

fn check_run(bytes: u64, parts: &[XcPart]) -> Result<(), String> {
    let Some(head) = parts.first() else {
        return Err("empty run".into());
    };
    let mut off = 0u64;
    for p in parts {
        if !copyable(&p.src, &p.dst) && !p.swapped() {
            return Err(format!("part neither copyable nor swappable in run: {p:?}"));
        }
        if p.src.align > head.src.align || p.dst.align > head.dst.align {
            return Err("run part over-aligned relative to run head".into());
        }
        if !off.is_multiple_of(u64::from(p.src.align.max(1)))
            || !off.is_multiple_of(u64::from(p.dst.align.max(1)))
        {
            return Err(format!("run part misaligned at offset {off}"));
        }
        off += p.bytes();
    }
    if off != bytes {
        return Err(format!("run byte count {bytes} != part sum {off}"));
    }
    Ok(())
}

fn count_ops(ops: &[XcOp], s: &mut XcStats) {
    for op in ops {
        match op {
            XcOp::Prim { .. } => s.prim_ops += 1,
            XcOp::Run { bytes, parts } => {
                s.runs += 1;
                s.run_bytes += bytes;
                s.swapped_bytes += parts
                    .iter()
                    .filter(|p| p.swapped())
                    .map(XcPart::bytes)
                    .sum::<u64>();
            }
            XcOp::Pad { .. } => {}
            XcOp::Str { .. } => s.strings += 1,
            XcOp::Counted { elem, bulk, .. } => {
                if bulk.is_some() {
                    s.bulk_seqs += 1;
                }
                count_ops(elem, s);
            }
            XcOp::Fixed { elem, .. } => count_ops(elem, s),
            XcOp::Union { cases, default, .. } => {
                for (_, b) in cases {
                    count_ops(b, s);
                }
                if let Some(d) = default {
                    count_ops(d, s);
                }
            }
            XcOp::Opt { elem, .. } => count_ops(elem, s),
            XcOp::Outline { .. } => s.outlined += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_cast::{CFunction, CType, CUnit};
    use flick_mint::MintGraph;
    use flick_pres::{MessagePres, OpInfo, ParamBinding, PresNode, PresTree, Side, StubKind};

    fn live(name: &str, pres: PresId) -> ParamBinding {
        ParamBinding {
            c_name: name.into(),
            pres,
            by_ref: false,
            live: true,
        }
    }

    fn presc_with(
        build: impl FnOnce(&mut MintGraph, &mut PresTree) -> (Vec<ParamBinding>, Vec<ParamBinding>),
    ) -> PresC {
        let mut mint = MintGraph::new();
        let mut pres = PresTree::new();
        let (req, rep) = build(&mut mint, &mut pres);
        let void = mint.void();
        PresC {
            side: Side::Server,
            interface: "T".into(),
            program: 0x2000_0001,
            version: 1,
            mint,
            pres,
            cast: CUnit::default(),
            stubs: vec![Stub {
                name: "t_op".into(),
                kind: StubKind::ServerWork,
                decl: CFunction {
                    name: "t_op".into(),
                    ret: CType::Void,
                    params: vec![],
                    body: None,
                },
                request: MessagePres {
                    mint: void,
                    slots: req,
                },
                reply: MessagePres {
                    mint: void,
                    slots: rep,
                },
                op: OpInfo {
                    name: "t_op".into(),
                    request_code: 1,
                    wire_name: "t_op".into(),
                    oneway: false,
                },
            }],
            style: "test".into(),
        }
    }

    /// The paper's 136-byte dirent shape: struct { i32 fields[30];
    /// char tag[16] }.
    fn stat_presc() -> PresC {
        presc_with(|mint, pres| {
            let i32m = mint.i32();
            let c8 = mint.char8();
            let fields_m = mint.array_fixed(i32m, 30);
            let tag_m = mint.array_fixed(c8, 16);
            let st_m = mint.structure(vec![("fields".into(), fields_m), ("tag".into(), tag_m)]);
            let fe = pres.add(PresNode::Direct {
                mint: i32m,
                ctype: CType::Int,
            });
            let te = pres.add(PresNode::Direct {
                mint: c8,
                ctype: CType::Char,
            });
            let fa = pres.add(PresNode::FixedArray {
                mint: fields_m,
                elem: fe,
                len: 30,
                ctype: CType::named("fields_t"),
            });
            let ta = pres.add(PresNode::FixedArray {
                mint: tag_m,
                elem: te,
                len: 16,
                ctype: CType::named("tag_t"),
            });
            let st = pres.add(PresNode::StructMap {
                mint: st_m,
                ctype: CType::named("stat_t"),
                fields: vec![("fields".into(), fa), ("tag".into(), ta)],
            });
            (vec![live("s", st)], vec![])
        })
    }

    fn has_run(ops: &[XcOp]) -> bool {
        ops.iter().any(|op| match op {
            XcOp::Run { .. } => true,
            XcOp::Counted { elem, bulk, .. } => bulk.is_some() || has_run(elem),
            XcOp::Fixed { elem, .. } | XcOp::Opt { elem, .. } => has_run(elem),
            XcOp::Union { cases, default, .. } => {
                cases.iter().any(|(_, b)| has_run(b))
                    || default.as_ref().is_some_and(|d| has_run(d))
            }
            _ => false,
        })
    }

    #[test]
    fn matching_orders_collapse_stat_to_one_block() {
        // XDR and big-endian CDR lay the 136-byte stat out identically:
        // the whole struct fuses to a single block copy.
        let p = stat_presc();
        let plans = plan(&p, &Encoding::xdr(), &Encoding::cdr_be(), true).unwrap();
        let req = &plans.stubs[0].request;
        match req.as_slice() {
            [XcOp::Run { bytes: 136, parts }] => {
                assert_eq!(parts.len(), 2, "i32 run + byte run: {parts:?}");
                assert_eq!((parts[0].count, parts[0].src.size), (30, 4));
                assert_eq!((parts[1].count, parts[1].src.size), (16, 1));
            }
            other => panic!("expected one 136-byte block, got {other:?}"),
        }
        assert_eq!(plans.stats.runs, 1);
        assert_eq!(plans.stats.run_bytes, 136);
    }

    /// `(count, width, swapped)` of each part of a run.
    fn shape(parts: &[XcPart]) -> Vec<(u64, u8, bool)> {
        parts
            .iter()
            .map(|p| (p.count, p.src.size, p.swapped()))
            .collect()
    }

    #[test]
    fn order_mismatch_moves_stat_as_one_run_of_swapped_and_copied_parts() {
        // XDR (BE) → CDR-LE: the whole stat still crosses behind one
        // check — the 30 i32s through the swap kernel, the 16 tag bytes
        // by plain copy — in both gateway directions.
        let p = stat_presc();
        let plans = plan(&p, &Encoding::xdr(), &Encoding::cdr_le(), true).unwrap();
        let s = &plans.stubs[0];
        for ops in [&s.request, &s.request_rev] {
            match ops.as_slice() {
                [XcOp::Run { bytes: 136, parts }] => {
                    assert_eq!(shape(parts), [(30, 4, true), (16, 1, false)]);
                }
                other => panic!("expected one 136-byte run, got {other:?}"),
            }
        }
        let want = XcStats {
            runs: 1,
            run_bytes: 136,
            swapped_bytes: 120,
            ..XcStats::default()
        };
        assert_eq!(plans.stats, want);
    }

    fn rects_presc() -> PresC {
        presc_with(|mint, pres| {
            let i32m = mint.i32();
            let rect_m = mint.structure(vec![
                ("x".into(), i32m),
                ("y".into(), i32m),
                ("w".into(), i32m),
                ("h".into(), i32m),
            ]);
            let seq_m = mint.array_variable(rect_m, Some(1024));
            let fe = pres.add(PresNode::Direct {
                mint: i32m,
                ctype: CType::Int,
            });
            let rect = pres.add(PresNode::StructMap {
                mint: rect_m,
                ctype: CType::named("rect_t"),
                fields: vec![
                    ("x".into(), fe),
                    ("y".into(), fe),
                    ("w".into(), fe),
                    ("h".into(), fe),
                ],
            });
            let seq = pres.add(PresNode::CountedSeq {
                mint: seq_m,
                elem: rect,
                ctype: CType::named("rect_seq"),
                length_field: "_length".into(),
                maximum_field: "_maximum".into(),
                buffer_field: "_buffer".into(),
                alloc: flick_pres::AllocSem::heap_only(),
            });
            (vec![live("rs", seq)], vec![])
        })
    }

    #[test]
    fn counted_structs_bulk_copy_when_layouts_agree() {
        let p = rects_presc();
        let bulk_elem = |ops: &[XcOp]| match ops {
            [XcOp::Counted {
                bound: Some(1024),
                bulk: Some(16),
                elem,
                ..
            }] => match elem.as_slice() {
                [XcOp::Run { bytes: 16, parts }] => shape(parts),
                other => panic!("expected one 16-byte run per rect, got {other:?}"),
            },
            other => panic!("expected bulk-16 sequence, got {other:?}"),
        };
        let plans = plan(&p, &Encoding::xdr(), &Encoding::cdr_be(), true).unwrap();
        assert_eq!(bulk_elem(&plans.stubs[0].request), [(4, 4, false)]);
        assert_eq!(plans.stats.bulk_seqs, 1);

        // Opposite orders: still one bulk run in both gateway
        // directions, crossing through the swap kernel.
        let plans = plan(&p, &Encoding::xdr(), &Encoding::cdr_le(), true).unwrap();
        assert_eq!(bulk_elem(&plans.stubs[0].request), [(4, 4, true)]);
        assert_eq!(bulk_elem(&plans.stubs[0].request_rev), [(4, 4, true)]);
        assert_eq!((plans.stats.bulk_seqs, plans.stats.prim_ops), (1, 0));
    }

    /// `sequence<T, 1024>` of one scalar.
    fn scalar_seq_presc(elem: impl FnOnce(&mut MintGraph) -> (MintId, CType)) -> PresC {
        presc_with(|mint, pres| {
            let (em, ctype) = elem(mint);
            let seq_m = mint.array_variable(em, Some(1024));
            let e = pres.add(PresNode::Direct { mint: em, ctype });
            let seq = pres.add(PresNode::CountedSeq {
                mint: seq_m,
                elem: e,
                ctype: CType::named("seq_t"),
                length_field: "_length".into(),
                maximum_field: "_maximum".into(),
                buffer_field: "_buffer".into(),
                alloc: flick_pres::AllocSem::heap_only(),
            });
            (vec![live("v", seq)], vec![])
        })
    }

    #[test]
    fn counted_scalars_in_opposite_orders_move_as_one_swap_run() {
        let p = scalar_seq_presc(|m| (m.i32(), CType::Int));
        // XDR → CDR-LE: same 4-byte slots, opposite order.  The element
        // is the unit of a `len`-long run, so it stays a run (not a
        // singleton prim), in both gateway directions; the naive twins
        // stay slot-wise.
        let plans = plan(&p, &Encoding::xdr(), &Encoding::cdr_le(), true).unwrap();
        let s = &plans.stubs[0];
        for ops in [&s.request, &s.request_rev] {
            match ops.as_slice() {
                [XcOp::Counted {
                    bound: Some(1024),
                    bulk: Some(4),
                    elem,
                    ..
                }] => assert!(
                    matches!(elem.as_slice(), [XcOp::Run { bytes: 4, parts }]
                        if shape(parts) == [(1, 4, true)]),
                    "{elem:?}"
                ),
                other => panic!("expected a bulk-4 swap run, got {other:?}"),
            }
        }
        assert!(!has_run(&s.naive_request));
        assert_eq!(plans.stats.bulk_seqs, 1, "stats cover the forward rewrites");
        // Same order: the same shape with a copied part.
        let same = plan(&p, &Encoding::xdr(), &Encoding::cdr_be(), true).unwrap();
        assert!(matches!(
            same.stubs[0].request.as_slice(),
            [XcOp::Counted { bulk: Some(4), elem, .. }]
                if matches!(elem.as_slice(), [XcOp::Run { parts, .. }]
                    if shape(parts) == [(1, 4, false)])
        ));

        // XDR widens a short to a 4-byte slot, CDR keeps two bytes:
        // not one run on either stream.  Floats stay slot-wise.
        for (p, why) in [
            (scalar_seq_presc(|m| (m.i16(), CType::Short)), "widened"),
            (scalar_seq_presc(|m| (m.f64(), CType::Double)), "float"),
        ] {
            let plans = plan(&p, &Encoding::xdr(), &Encoding::cdr_le(), true).unwrap();
            assert!(
                matches!(
                    plans.stubs[0].request.as_slice(),
                    [XcOp::Counted { bulk: None, elem, .. }]
                        if matches!(elem.as_slice(), [XcOp::Prim { .. }])
                ),
                "{why}: {:?}",
                plans.stubs[0].request
            );
        }

        // The verifier re-derives the backing: a bulk mark of the wrong
        // width, or over an element that is not one run, fails.
        let mut bad = plans.clone();
        if let XcOp::Counted { bulk, .. } = &mut bad.stubs[0].request[0] {
            *bulk = Some(8);
        }
        assert!(verify(&bad).unwrap_err().contains("one tiling run"));
        let mut bad = plans;
        let slotwise = bad.stubs[0].naive_request.clone();
        if let XcOp::Counted { elem, .. } = &mut bad.stubs[0].request[0] {
            *elem = slotwise;
        }
        assert!(verify(&bad).unwrap_err().contains("one tiling run"));
    }

    /// A scalar field: its MINT node and C type.
    type Scalar = fn(&mut MintGraph) -> (MintId, CType);
    const I32: Scalar = |m| (m.i32(), CType::Int);
    const I16: Scalar = |m| (m.i16(), CType::Short);

    /// One message of the given fields, each a scalar or a bounded
    /// string (`None`).
    fn fields_presc(fields: Vec<Option<Scalar>>) -> PresC {
        presc_with(|mint, pres| {
            let slots = fields
                .into_iter()
                .enumerate()
                .map(|(i, f)| {
                    let node = match f {
                        Some(f) => {
                            let (m, ctype) = f(mint);
                            PresNode::Direct { mint: m, ctype }
                        }
                        None => PresNode::TerminatedString {
                            mint: mint.string(Some(64)),
                            alloc: flick_pres::AllocSem::heap_only(),
                        },
                    };
                    live(&format!("f{i}"), pres.add(node))
                })
                .collect();
            (slots, vec![])
        })
    }

    #[test]
    fn nested_fixed_arrays_hoist_into_one_run() {
        // typedef long Grid[3][4]: both levels hoist — one 48-byte run
        // of twelve values, swapped or copied as the orders say.
        let p = presc_with(|mint, pres| {
            let i32m = mint.i32();
            let row_m = mint.array_fixed(i32m, 4);
            let grid_m = mint.array_fixed(row_m, 3);
            let e = pres.add(PresNode::Direct {
                mint: i32m,
                ctype: CType::Int,
            });
            let row = pres.add(PresNode::FixedArray {
                mint: row_m,
                elem: e,
                len: 4,
                ctype: CType::named("row_t"),
            });
            let grid = pres.add(PresNode::FixedArray {
                mint: grid_m,
                elem: row,
                len: 3,
                ctype: CType::named("grid_t"),
            });
            (vec![live("g", grid)], vec![])
        });
        for (dst, swapped) in [(Encoding::cdr_le(), true), (Encoding::cdr_be(), false)] {
            let plans = plan(&p, &Encoding::xdr(), &dst, true).unwrap();
            match plans.stubs[0].request.as_slice() {
                [XcOp::Run { bytes: 48, parts }] => {
                    assert_eq!(shape(parts), [(12, 4, swapped)]);
                }
                other => panic!("expected one 48-byte run, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_lone_swappable_scalar_stays_a_prim() {
        // string, long, string: a 4-byte kernel call would be slower
        // than one checked read-swap-write, so the run that never grew
        // goes back to the prim it was.
        let p = fields_presc(vec![None, Some(I32), None]);
        let plans = plan(&p, &Encoding::xdr(), &Encoding::cdr_le(), true).unwrap();
        let req = &plans.stubs[0].request;
        assert!(
            matches!(req.as_slice(), [XcOp::Str { .. }, XcOp::Prim { src, dst }, XcOp::Str { .. }]
                if swappable(src, dst)),
            "{req:?}"
        );
        assert_eq!((plans.stats.prim_ops, plans.stats.runs), (1, 0));
        // A lone copyable scalar is the 4-byte block copy it always was.
        let same = plan(&p, &Encoding::xdr(), &Encoding::cdr_be(), true).unwrap();
        assert!(matches!(
            &same.stubs[0].request[1],
            XcOp::Run { bytes: 4, .. }
        ));
        // Two adjacent scalars are a run worth its check.
        let p = fields_presc(vec![None, Some(I32), Some(I32), None]);
        let plans = plan(&p, &Encoding::xdr(), &Encoding::cdr_le(), true).unwrap();
        assert!(
            matches!(&plans.stubs[0].request[1], XcOp::Run { bytes: 8, parts }
            if shape(parts) == [(2, 4, true)])
        );
    }

    #[test]
    fn runs_mix_swap_widths_and_widened_slots_stay_out() {
        // { long a; short b; short c; }
        let p = fields_presc(vec![Some(I32), Some(I16), Some(I16)]);
        // CDR-LE ↔ CDR-BE: every slot tiles, so all eight bytes are one
        // run with a 4-wide and a 2-wide swapped part.
        for (src, dst) in [
            (Encoding::cdr_le(), Encoding::cdr_be()),
            (Encoding::cdr_be(), Encoding::cdr_le()),
        ] {
            let plans = plan(&p, &src, &dst, true).unwrap();
            match plans.stubs[0].request.as_slice() {
                [XcOp::Run { bytes: 8, parts }] => {
                    assert_eq!(shape(parts), [(1, 4, true), (2, 2, true)]);
                }
                other => panic!("expected one 8-byte run, got {other:?}"),
            }
        }
        // XDR widens the shorts to 4-byte slots: they stay slot-wise,
        // which leaves the long a singleton — a prim again.
        let plans = plan(&p, &Encoding::xdr(), &Encoding::cdr_le(), true).unwrap();
        let req = &plans.stubs[0].request;
        assert!(
            matches!(req.as_slice(), [XcOp::Prim { .. }, XcOp::Prim { src: b, .. }, XcOp::Prim { .. }]
                if b.slot == 4 && b.size == 2),
            "{req:?}"
        );
    }

    #[test]
    fn naive_twins_never_fuse() {
        let p = stat_presc();
        let plans = plan(&p, &Encoding::xdr(), &Encoding::cdr_be(), true).unwrap();
        let s = &plans.stubs[0];
        assert!(!has_run(&s.naive_request));
        assert!(!has_run(&s.naive_reply));
        assert!(has_run(&s.request));

        // With the pass disabled the primary lists match the twins.
        let off = plan(&p, &Encoding::xdr(), &Encoding::cdr_be(), false).unwrap();
        assert_eq!(off.stubs[0].request, off.stubs[0].naive_request);
        assert!(!off.fused);
    }

    #[test]
    fn widened_and_float_slots_refuse_to_fuse() {
        let p = presc_with(|mint, pres| {
            let i16m = mint.i16();
            let f32m = mint.f32();
            let u32m = mint.u32();
            let a = pres.add(PresNode::Direct {
                mint: u32m,
                ctype: CType::UInt,
            });
            let b = pres.add(PresNode::Direct {
                mint: i16m,
                ctype: CType::Short,
            });
            let c = pres.add(PresNode::Direct {
                mint: f32m,
                ctype: CType::Float,
            });
            (vec![live("a", a), live("b", b), live("c", c)], vec![])
        });
        let plans = plan(&p, &Encoding::xdr(), &Encoding::cdr_be(), true).unwrap();
        let req = &plans.stubs[0].request;
        // u32 fuses alone; the widened i16 (4-byte XDR slot vs 2-byte
        // CDR slot) and the float both stay slot-wise.
        assert_eq!(req.len(), 3, "{req:?}");
        assert!(matches!(&req[0], XcOp::Run { bytes: 4, .. }));
        assert!(matches!(&req[1], XcOp::Prim { src, .. } if src.slot == 4 && src.size == 2));
        assert!(matches!(&req[2], XcOp::Prim { src, .. } if src.float));
    }

    #[test]
    fn byte_runs_pad_and_pads_never_fuse() {
        // char[6]: XDR pads to 8, CDR doesn't — the pad op must stay
        // outside the block copy so hostile pad bytes re-zero.
        let p = presc_with(|mint, pres| {
            let c8 = mint.char8();
            let am = mint.array_fixed(c8, 6);
            let e = pres.add(PresNode::Direct {
                mint: c8,
                ctype: CType::Char,
            });
            let a = pres.add(PresNode::FixedArray {
                mint: am,
                elem: e,
                len: 6,
                ctype: CType::named("tag6"),
            });
            (vec![live("t", a)], vec![])
        });
        let plans = plan(&p, &Encoding::xdr(), &Encoding::cdr_be(), true).unwrap();
        let req = &plans.stubs[0].request;
        assert_eq!(req.len(), 2, "{req:?}");
        assert!(matches!(&req[0], XcOp::Run { bytes: 6, .. }));
        assert_eq!(req[1], XcOp::Pad { src: 2, dst: 0 });
        // And the reverse direction mirrors the pad.
        let rev = &plans.stubs[0].request_rev;
        assert_eq!(rev[1], XcOp::Pad { src: 0, dst: 2 });
    }

    #[test]
    fn dead_slots_leave_the_wire_and_strings_keep_bounds() {
        let p = presc_with(|mint, pres| {
            let sm = mint.string(Some(64));
            let i32m = mint.i32();
            let s = pres.add(PresNode::TerminatedString {
                mint: sm,
                alloc: flick_pres::AllocSem::heap_only(),
            });
            let d = pres.add(PresNode::Direct {
                mint: i32m,
                ctype: CType::Int,
            });
            (
                vec![
                    live("msg", s),
                    ParamBinding {
                        c_name: "_pad".into(),
                        pres: d,
                        by_ref: false,
                        live: false,
                    },
                ],
                vec![],
            )
        });
        let plans = plan(&p, &Encoding::xdr(), &Encoding::cdr_be(), true).unwrap();
        assert_eq!(
            plans.stubs[0].request.as_slice(),
            &[XcOp::Str { bound: Some(64) }]
        );
    }

    #[test]
    fn typed_descriptor_encodings_are_rejected() {
        let p = stat_presc();
        let err = plan(&p, &Encoding::mach3(), &Encoding::cdr_be(), true).unwrap_err();
        assert!(err.contains("mach3"), "{err}");
    }

    #[test]
    fn verifier_rejects_corrupt_fusions() {
        let p = stat_presc();
        let good = plan(&p, &Encoding::xdr(), &Encoding::cdr_le(), true).unwrap();
        let corrupt = |f: &dyn Fn(&mut TranscodePlans)| {
            let mut bad = good.clone();
            f(&mut bad);
            verify(&bad).unwrap_err()
        };
        let parts_of = |plans: &mut TranscodePlans, f: &dyn Fn(&mut Vec<XcPart>)| {
            if let XcOp::Run { parts, .. } = &mut plans.stubs[0].request[0] {
                f(parts);
            }
        };

        // Byte count out of step with the parts.
        let e = corrupt(&|bad| {
            if let XcOp::Run { bytes, .. } = &mut bad.stubs[0].request[0] {
                *bytes += 1;
            }
        });
        assert!(e.contains("byte count"), "{e}");

        // A run surviving into an unfused plan, smuggled into the
        // naive twin, or into an outline body.
        let run = good.stubs[0].request[0].clone();
        let e = corrupt(&|bad| bad.fused = false);
        assert!(e.contains("unfused"), "{e}");
        let e = corrupt(&|bad| bad.stubs[0].naive_request.push(run.clone()));
        assert!(e.contains("naive request: run in an unfused"), "{e}");
        let e = corrupt(&|bad| {
            bad.outlines_fwd.insert("node".into(), vec![run.clone()]);
        });
        assert!(e.contains("outline `node`: run in an unfused"), "{e}");

        // An unresolved outline key.
        let e = corrupt(&|bad| {
            bad.stubs[0]
                .request
                .push(XcOp::Outline { key: "nope".into() });
        });
        assert!(e.contains("nope"), "{e}");

        // A widened slot or a float forced into a run: neither kind.
        let e = corrupt(&|bad| parts_of(bad, &|parts| parts[0].src.size = 2));
        assert!(e.contains("neither copyable nor swappable"), "{e}");
        let e = corrupt(&|bad| {
            parts_of(bad, &|parts| {
                parts[0].src.float = true;
                parts[0].dst.float = true;
            });
        });
        assert!(e.contains("neither copyable nor swappable"), "{e}");

        // A swapped part at an offset its alignment does not divide:
        // [i32, u8, i32] puts the second i32 at offset 5.
        let e = corrupt(&|bad| {
            parts_of(bad, &|parts| {
                parts[0].count = 1;
                parts[1].count = 1;
                parts.push(parts[0].clone());
            });
        });
        assert!(e.contains("misaligned at offset 5"), "{e}");
    }

    #[test]
    fn recursive_structs_outline_per_direction() {
        // A linked list: struct node { i32 v; node *next; }.
        let p = presc_with(|mint, pres| {
            let i32m = mint.i32();
            let node_m = mint.structure(vec![("v".into(), i32m)]);
            let vd = pres.add(PresNode::Direct {
                mint: i32m,
                ctype: CType::Int,
            });
            let node_p = pres.reserve();
            let next = pres.add(PresNode::OptionalPtr {
                mint: node_m,
                elem: node_p,
                ctype: CType::ptr(CType::named("node")),
                alloc: flick_pres::AllocSem::heap_only(),
            });
            pres.patch(
                node_p,
                PresNode::StructMap {
                    mint: node_m,
                    ctype: CType::named("node"),
                    fields: vec![("v".into(), vd), ("next".into(), next)],
                },
            );
            (vec![live("head", node_p)], vec![])
        });
        let plans = plan(&p, &Encoding::xdr(), &Encoding::cdr_be(), true).unwrap();
        assert!(plans.outlines_fwd.contains_key("node"), "{plans:?}");
        let body = &plans.outlines_fwd["node"];
        assert!(
            body.iter().any(|op| matches!(op, XcOp::Opt { elem, .. }
                if elem.iter().any(|o| matches!(o, XcOp::Outline { key } if key == "node")))),
            "helper recurses through the optional tail: {body:?}"
        );
        assert!(!has_run(body), "helper bodies stay unfused: {body:?}");
    }
}
