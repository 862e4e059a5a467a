//! §3.1 storage classification and fixed-region packing.
//!
//! Flick analyzes the storage requirements of every message by
//! traversing its MINT/PRES representation, classifying each region as
//! *fixed*, *variable but bounded*, or *variable and unbounded*
//! ([`SizeClass`]).  For fixed regions it computes a *packed layout* —
//! exact offsets for every atomic component ([`Packed`]) — which is
//! what both the single hoisted space check and the §3.2 chunk pointer
//! are built from.
//!
//! Both walks read the lowered MIR, where lowering recorded every
//! scalar's wire form: they ask the [`Encoding`] only how data is
//! framed (padding, type descriptors, count prefixes).  Naive MIR
//! reaches every named aggregate through an outline call; the walks
//! expand those calls, and a call back into a body being expanded is a
//! recursive type — unbounded, and never packed.
//!
//! Between fixed regions, [`Cursor`] carries what is known of the
//! stream's offset: the static-offset analysis the Rust stub emitter
//! asks before every alignment.

use std::collections::BTreeMap;
use std::sync::Arc;

use flick_pres::Name;

use crate::encoding::{Encoding, Order, StringWire, WirePrim};
use crate::mir::PlanNode;

/// A language-neutral path to a value inside a stub (the bridge from
/// packed offsets back to C lvalues / Rust expressions).  Paths to the
/// members of one aggregate share its path: the prefix is allocated
/// once per aggregate, not once per scalar beneath it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValPath {
    /// The root value a plan node describes.
    Root,
    /// A struct member of the inner path.
    Field(Arc<ValPath>, Name),
    /// A constant-index element of a fixed array.
    Index(Arc<ValPath>, u64),
}

impl ValPath {
    /// `self.field`
    #[must_use]
    pub fn field(self, name: impl Into<Name>) -> ValPath {
        ValPath::Field(Arc::new(self), name.into())
    }

    /// `self[i]`
    #[must_use]
    pub fn index(self, i: u64) -> ValPath {
        ValPath::Index(Arc::new(self), i)
    }
}

/// How big a message region is (§3.1's three storage classes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SizeClass {
    /// Exactly this many encoded bytes.
    Fixed(u64),
    /// Variable, but never more than this many bytes.
    Bounded(u64),
    /// No static bound.
    Unbounded,
}

impl SizeClass {
    /// Sequential composition of two regions.
    #[must_use]
    pub fn then(self, other: SizeClass) -> SizeClass {
        use SizeClass::{Bounded, Fixed, Unbounded};
        match (self, other) {
            (Unbounded, _) | (_, Unbounded) => Unbounded,
            (Fixed(a), Fixed(b)) => Fixed(a + b),
            (Fixed(a) | Bounded(a), Fixed(b) | Bounded(b)) => Bounded(a + b),
        }
    }

    /// `n` regions of this class one after another.
    #[must_use]
    fn times(self, n: u64) -> SizeClass {
        match self {
            _ if n == 0 => SizeClass::Fixed(0),
            SizeClass::Fixed(a) => SizeClass::Fixed(a * n),
            SizeClass::Bounded(a) => SizeClass::Bounded(a * n),
            SizeClass::Unbounded => SizeClass::Unbounded,
        }
    }

    /// The static upper bound, if any.
    #[must_use]
    pub fn bound(self) -> Option<u64> {
        match self {
            SizeClass::Fixed(n) | SizeClass::Bounded(n) => Some(n),
            SizeClass::Unbounded => None,
        }
    }
}

/// One atomic component of a packed region.
#[derive(Clone, Debug, PartialEq)]
pub enum PackedItem {
    /// A single scalar at a constant offset.
    Prim {
        /// Offset from the chunk base.
        offset: u64,
        /// Wire form.
        prim: WirePrim,
        /// Where the value lives.
        path: ValPath,
    },
    /// A run of `count` layout-identical scalars — block-copied when
    /// the `memcpy` optimization is on, or loop-stored when off.
    PrimRun {
        /// Offset from the chunk base.
        offset: u64,
        /// Wire form of one element.
        prim: WirePrim,
        /// Element count.
        count: u64,
        /// The array value.
        path: ValPath,
        /// Trailing pad bytes after the run (XDR opaque padding).
        pad: u64,
    },
}

impl PackedItem {
    /// Offset of the item's first byte.
    #[must_use]
    pub fn offset(&self) -> u64 {
        match self {
            PackedItem::Prim { offset, .. } | PackedItem::PrimRun { offset, .. } => *offset,
        }
    }
}

/// A fixed-layout region: exact size plus every component's offset.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Packed {
    /// Total encoded size in bytes (including internal padding).
    pub size: u64,
    /// Largest alignment of any component.
    pub align: u64,
    /// Components in marshal order.
    pub items: Vec<PackedItem>,
}

impl Packed {
    /// True when repeating this chunk keeps every element aligned
    /// (nonzero size, a multiple of the alignment): an array of such
    /// chunks is one contiguous region walked at a constant stride.
    #[must_use]
    pub fn tiles(&self) -> bool {
        self.size > 0 && self.size.is_multiple_of(self.align.max(1))
    }

    /// Places `data` bytes aligned for `prim`, then `pad` bytes of
    /// padding; returns the data's offset.
    fn place(&mut self, prim: WirePrim, data: u64, pad: u64) -> u64 {
        let align = u64::from(prim.align);
        let offset = align_up(self.size, align);
        self.size = offset + data + pad;
        self.align = self.align.max(align.max(1));
        offset
    }
}

/// The outline bodies a walk expands calls through, and the encoding
/// that frames the data.
#[derive(Clone, Copy)]
struct Walk<'a> {
    outlines: &'a BTreeMap<Name, PlanNode>,
    enc: &'a Encoding,
}

/// An outline body being expanded, below the expansions it sits in.
struct Expanding<'a> {
    key: &'a str,
    up: Option<&'a Expanding<'a>>,
}

/// The body an outline call to `key` expands to below `up`: `None` for
/// a key with no body, or for a call back into a body being expanded.
fn expand<'a>(
    outlines: &'a BTreeMap<Name, PlanNode>,
    key: &str,
    mut up: Option<&Expanding<'_>>,
) -> Option<&'a PlanNode> {
    while let Some(e) = up {
        if e.key == key {
            return None;
        }
        up = e.up;
    }
    outlines.get(key)
}

impl<'a> Walk<'a> {
    /// The body an outline call expands to ([`expand`]).
    fn body(&self, key: &str, up: Option<&Expanding<'_>>) -> Option<&'a PlanNode> {
        expand(self.outlines, key, up)
    }

    /// The chunk `form-chunks` makes of `node`: its layout, where that
    /// layout holds wherever the stream stands when the chunk aligns as
    /// the encoding aligns its first scalar — always under a
    /// word-widening encoding, which aligns nothing, and otherwise when
    /// the first scalar is aligned as widely as any.  A chunk led by a
    /// narrower one would be aligned past where that scalar belongs (an
    /// octet-then-double struct after an octet: 24 bytes, where CDR
    /// writes 16 member by member).
    fn chunk(
        self,
        node: &PlanNode,
        path: Option<ValPath>,
        up: Option<&Expanding>,
    ) -> Option<Packed> {
        self.packed(node, path, up).filter(|p| {
            self.enc.widen_to_word
                || self
                    .lead_align(node, up)
                    .is_none_or(|a| u64::from(a).max(1) == p.align)
        })
    }

    /// The alignment of the first scalar a fixed region places, if it
    /// places one.
    fn lead_align(self, node: &PlanNode, up: Option<&Expanding>) -> Option<u8> {
        match node {
            PlanNode::Prim { prim } | PlanNode::Enum { prim } => Some(prim.align),
            PlanNode::FixedArray { len: 0, .. } => None,
            PlanNode::FixedArray { elem, .. } => self.lead_align(elem, up),
            PlanNode::Struct { fields, .. } => {
                fields.iter().find_map(|(_, f)| self.lead_align(f, up))
            }
            PlanNode::Packed { region, .. } => self.lead_align(region, up),
            PlanNode::Outline { key } => {
                let body = self.body(key, up)?;
                self.lead_align(body, Some(&Expanding { key, up }))
            }
            _ => None,
        }
    }

    /// The layout of `node`, recording an item for every scalar when
    /// `path` names the region, only sizing it when `path` is `None`.
    fn packed(
        self,
        node: &PlanNode,
        path: Option<ValPath>,
        up: Option<&Expanding>,
    ) -> Option<Packed> {
        if self.enc.typed_descriptors {
            // Mach-style encodings put a descriptor before every item;
            // only a single primitive run can be chunked, handled by the
            // planner directly.
            return None;
        }
        let mut p = Packed::default();
        self.place(node, path, up, &mut p)?;
        Some(p)
    }

    fn place(
        self,
        node: &PlanNode,
        path: Option<ValPath>,
        up: Option<&Expanding>,
        out: &mut Packed,
    ) -> Option<()> {
        match node {
            PlanNode::Void => {}
            PlanNode::Prim { prim } | PlanNode::Enum { prim } => {
                let offset = out.place(*prim, u64::from(prim.slot), 0);
                if let Some(path) = path {
                    let prim = *prim;
                    out.items.push(PackedItem::Prim { offset, prim, path });
                }
            }
            // A fixed array of scalars that tile the wire becomes one
            // run; anything else unrolls element by element.
            PlanNode::FixedArray { len, elem, .. } => match **elem {
                PlanNode::Prim { prim } if prim.forms_run() => {
                    let data = len * u64::from(prim.size);
                    let pad = self.enc.pad_after(data);
                    let offset = out.place(prim, data, pad);
                    if let Some(path) = path {
                        out.items.push(PackedItem::PrimRun {
                            offset,
                            prim,
                            count: *len,
                            path,
                            pad,
                        });
                    }
                }
                _ => {
                    let array = path.map(Arc::new);
                    for i in 0..*len {
                        let at = array.clone().map(|a| ValPath::Index(a, i));
                        self.place(elem, at, up, out)?;
                    }
                }
            },
            PlanNode::Struct { fields, .. } => {
                let parent = path.map(Arc::new);
                for (name, f) in fields {
                    let member = parent.clone().map(|p| ValPath::Field(p, name.clone()));
                    self.place(f, member, up, out)?;
                }
            }
            PlanNode::Packed { region, .. } => self.place(region, path, up, out)?,
            PlanNode::Outline { key } => {
                let body = self.body(key, up)?;
                self.place(body, path, Some(&Expanding { key, up }), out)?;
            }
            // Everything else is variable-size.
            _ => return None,
        }
        Some(())
    }

    fn class(self, node: &PlanNode, up: Option<&Expanding>) -> SizeClass {
        use SizeClass::{Bounded, Fixed, Unbounded};
        let desc = |count| self.enc.descriptor_bytes(count);
        // A fixed array: the elements' data, padded, under one
        // descriptor for the whole array rather than one per element.
        let fixed = |len: u64, elem: SizeClass| match elem {
            Fixed(n) => {
                let data = (n - desc(1)) * len;
                Fixed(data + self.enc.pad_after(data) + desc(len))
            }
            Bounded(n) => Bounded(n * len),
            Unbounded => Unbounded,
        };
        // A counted array: the count prefix, then at most `bound`
        // elements behind one descriptor.
        let counted = |bound: Option<u64>, elem: SizeClass| match (bound, elem) {
            (Some(b), Fixed(n) | Bounded(n)) => Bounded(4 + n * b + desc(b)),
            _ => Unbounded,
        };
        match node {
            PlanNode::Void => Fixed(0),
            PlanNode::Prim { prim } | PlanNode::Enum { prim } => {
                Fixed(u64::from(prim.slot) + desc(1))
            }
            PlanNode::Packed { layout, .. } => Fixed(layout.size),
            PlanNode::MemcpyArray {
                prim,
                fixed_len: Some(len),
                ..
            } => fixed(*len, Fixed(u64::from(prim.slot) + desc(1))),
            PlanNode::MemcpyArray { prim, bound, .. } => {
                counted(*bound, Fixed(u64::from(prim.slot)))
            }
            PlanNode::FixedArray { len, elem, .. } => fixed(*len, self.class(elem, up)),
            PlanNode::String { bound, style, .. } => match bound {
                Some(b) => {
                    // Count prefix + bytes (+ NUL) + padding, worst case.
                    let body = b + u64::from(*style == StringWire::CountedNul);
                    Bounded(4 + body + self.enc.pad_after(body) + desc(*b))
                }
                None => Unbounded,
            },
            // A scalar element's descriptor is the array's.
            PlanNode::CountedArray { bound, elem, .. } => match **elem {
                PlanNode::Prim { prim } => counted(*bound, Fixed(u64::from(prim.slot))),
                _ => counted(*bound, self.class(elem, up)),
            },
            PlanNode::Struct { fields, .. } => {
                let acc = fields
                    .iter()
                    .fold(Fixed(0), |acc, (_, f)| acc.then(self.class(f, up)));
                // Struct-internal alignment padding: bound by a packing
                // when the struct is fully fixed.
                if let Fixed(_) = acc {
                    if let Some(p) = self.packed(node, None, up) {
                        return Fixed(p.size);
                    }
                }
                acc
            }
            PlanNode::Union {
                disc_prim,
                cases,
                default,
                ..
            } => {
                let arms = cases.iter().map(|(_, _, c)| c);
                let arms = arms.chain(default.as_ref().map(|(_, d)| &**d));
                let mut worst = 0;
                for arm in arms {
                    match self.class(arm, up) {
                        Fixed(n) | Bounded(n) => worst = worst.max(n),
                        Unbounded => return Unbounded,
                    }
                }
                Bounded(u64::from(disc_prim.slot) + desc(1) + worst)
            }
            PlanNode::Optional { elem, .. } => match self.class(elem, up) {
                Fixed(n) | Bounded(n) => Bounded(4 + n),
                Unbounded => Unbounded,
            },
            PlanNode::Outline { key } => match self.body(key, up) {
                Some(body) => self.class(body, Some(&Expanding { key, up })),
                None => Unbounded,
            },
        }
    }
}

/// What the pipeline's later passes make of a naive plan, which is
/// where a message's size class is taken: the stub writes the shapes
/// they leave, and a chunk or a run can pad, or carry Mach 3 type
/// descriptors, differently from the loop or the members it replaced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shapes {
    /// `form-chunks` packs every fixed struct and fixed array into one
    /// chunk, and strides a counted array of tiling chunks.
    pub chunks: bool,
    /// `coalesce-memcpy` makes every scalar array that can run a run.
    pub runs: bool,
}

/// The size walk of a message body: a [`Walk`] that also knows the
/// shapes the pipeline will leave.
#[derive(Clone, Copy)]
struct Sizing<'a> {
    walk: Walk<'a>,
    shapes: Shapes,
}

impl Sizing<'_> {
    /// What the Rust stub writes for `node` from `at`, alignment pads
    /// included, and `at` moved past it: the steps of [`Cursor::after`],
    /// but through outline bodies, which align against the message's
    /// `_base` and so pad as the data would in line.  A pad is exact
    /// where `at` knows the offset and at its widest where it does not.
    fn sized(self, node: &PlanNode, up: Option<&Expanding>, at: &mut Cursor) -> SizeClass {
        use SizeClass::{Bounded, Fixed, Unbounded};
        let enc = self.walk.enc;
        let desc = |count| enc.descriptor_bytes(count);
        match node {
            PlanNode::Void => Fixed(0),
            PlanNode::Prim { prim } => {
                *at = at.advance(desc(1));
                let pad = self.pad(at, prim.align);
                *at = at.advance(u64::from(prim.slot));
                Fixed(desc(1) + u64::from(prim.slot)).then(pad)
            }
            PlanNode::Enum { prim } => {
                let pad = self.pad(at, prim.align);
                *at = at.advance(u64::from(prim.slot));
                pad.then(Fixed(u64::from(prim.slot)))
            }
            PlanNode::Packed { layout, .. } => self.chunk(layout, at),
            PlanNode::MemcpyArray {
                prim,
                fixed_len,
                bound,
                counted,
                ..
            } => self.run(*prim, *fixed_len, *bound, *counted, at),
            PlanNode::String { bound, style, .. } => {
                let Some(b) = *bound else {
                    *at = Cursor::UNKNOWN;
                    return Unbounded;
                };
                *at = at.advance(desc(b));
                let head = Fixed(desc(b)).then(self.count_prefix(at));
                *at = at.after_string(enc);
                head.then(self.padded(b + u64::from(*style == StringWire::CountedNul)))
            }
            PlanNode::CountedArray {
                bound,
                elem,
                strided,
                ..
            } => match (self.run_of(elem), self.stride_of(*strided, elem, up)) {
                (Some(prim), _) => self.run(prim, None, *bound, true, at),
                (None, Some(layout)) => {
                    let head = self.count_prefix(at);
                    let mut full = *at;
                    let pad =
                        run_align(enc, layout.align).map_or(Fixed(0), |a| self.pad(&mut full, a));
                    *at = at.strided_run(enc, &layout);
                    let elems = bound.map_or(Unbounded, |b| Bounded(b * layout.size));
                    head.then(pad).then(elems)
                }
                _ => {
                    let mut head = Fixed(0);
                    if described(enc, elem).is_some() {
                        let Some(b) = *bound else {
                            *at = Cursor::UNKNOWN;
                            return Unbounded;
                        };
                        *at = at.advance(desc(b));
                        head = Fixed(desc(b));
                    }
                    let head = head.then(self.count_prefix(at));
                    *at = at.loop_head(elem, enc);
                    let one = self.sized_elem(elem, up, &mut at.clone());
                    let elems = match (bound, one.bound(), elem.scalar()) {
                        (Some(b), Some(n), Some(prim)) => {
                            *at = at.after_pad(enc, u64::from(prim.slot));
                            self.padded(n * b)
                        }
                        (Some(b), Some(n), None) => Bounded(n * b),
                        _ => Unbounded,
                    };
                    head.then(elems)
                }
            },
            PlanNode::FixedArray { len, elem, .. } => {
                if let Some(layout) = self.chunk_of(node, up) {
                    return self.chunk(&layout, at);
                }
                if let Some(prim) = self.run_of(elem) {
                    return self.run(prim, Some(*len), None, false, at);
                }
                // Element by element while the offset moves (at most
                // sixteen); once an element leaves it as it found it,
                // the rest repeat it.  Past that, every element is sized
                // from the loop head, as the stub writes it.
                let mut size = Fixed(0);
                if described(enc, elem).is_some() {
                    *at = at.advance(desc(*len));
                    size = Fixed(desc(*len));
                }
                for i in 0..*len {
                    let entry = *at;
                    let mut one = self.sized_elem(elem, up, at);
                    size = size.then(one);
                    if *at == entry || i == 15 {
                        if *at != entry {
                            *at = at.loop_head(elem, enc);
                            one = self.sized_elem(elem, up, &mut at.clone());
                        }
                        size = size.then(one.times(len - i - 1));
                        break;
                    }
                }
                if let Some(prim) = elem.scalar() {
                    let data = len * u64::from(prim.slot);
                    size = size.then(Fixed(enc.pad_after(data)));
                    *at = at.after_pad(enc, data);
                }
                size
            }
            PlanNode::Struct { fields, .. } => match self.chunk_of(node, up) {
                Some(layout) => self.chunk(&layout, at),
                None => fields
                    .iter()
                    .fold(Fixed(0), |size, (_, f)| size.then(self.sized(f, up, at))),
            },
            PlanNode::Union {
                disc_prim,
                cases,
                default,
                ..
            } => {
                let head = self.pad(at, disc_prim.align);
                *at = at.advance(u64::from(disc_prim.slot));
                let entry = *at;
                let arms = cases.iter().map(|(_, _, c)| c);
                let arms = arms.chain(default.as_ref().map(|(_, d)| &**d));
                let mut worst = 0;
                let mut end: Option<Cursor> = None;
                for arm in arms {
                    let mut c = entry;
                    let Some(n) = self.sized(arm, up, &mut c).bound() else {
                        *at = Cursor::UNKNOWN;
                        return Unbounded;
                    };
                    worst = worst.max(n);
                    end = Some(end.map_or(c, |e| e.join(c)));
                }
                *at = end.unwrap_or(entry);
                head.then(Bounded(u64::from(disc_prim.slot) + worst))
            }
            PlanNode::Optional { flag, elem, .. } => {
                *at = at.advance(u64::from(flag.slot));
                let mut present = *at;
                let inner = self.sized(elem, up, &mut present);
                *at = at.join(present);
                match inner.bound() {
                    Some(n) => Bounded(u64::from(flag.slot) + n),
                    None => Unbounded,
                }
            }
            PlanNode::Outline { key } => match self.walk.body(key, up) {
                Some(body) => self.sized(body, Some(&Expanding { key, up }), at),
                None => {
                    *at = Cursor::UNKNOWN;
                    Unbounded
                }
            },
        }
    }

    /// One element of an array: [`Sizing::sized`], less the descriptor
    /// of a scalar the array's descriptor describes.
    fn sized_elem(self, elem: &PlanNode, up: Option<&Expanding>, at: &mut Cursor) -> SizeClass {
        match described(self.walk.enc, elem) {
            Some(prim) => {
                let pad = self.pad(at, prim.align);
                *at = at.advance(u64::from(prim.slot));
                pad.then(SizeClass::Fixed(u64::from(prim.slot)))
            }
            None => self.sized(elem, up, at),
        }
    }

    /// The element of a scalar array that `coalesce-memcpy` makes a run.
    fn run_of(self, elem: &PlanNode) -> Option<WirePrim> {
        match *elem {
            PlanNode::Prim { prim } if self.shapes.runs && prim.forms_run() => Some(prim),
            _ => None,
        }
    }

    /// The chunk `form-chunks` packs a fixed struct or fixed array
    /// into (outermost wins, so this is asked on the way down).
    fn chunk_of(self, node: &PlanNode, up: Option<&Expanding>) -> Option<Packed> {
        self.shapes
            .chunks
            .then(|| self.walk.chunk(node, None, up))
            .flatten()
    }

    /// The element chunk of a counted array the stub writes as one
    /// strided run: marked so already, or one `form-chunks` will mark —
    /// an element, seen through its outline call, that packs and tiles.
    fn stride_of(self, strided: bool, elem: &PlanNode, up: Option<&Expanding>) -> Option<Packed> {
        match elem {
            PlanNode::Packed { layout, .. } if strided => Some(layout.clone()),
            PlanNode::Outline { key } => {
                let body = self.walk.body(key, up)?;
                self.stride_of(strided, body, Some(&Expanding { key, up }))
            }
            PlanNode::Struct { .. } | PlanNode::FixedArray { .. } => {
                self.chunk_of(elem, up).filter(Packed::tiles)
            }
            _ => None,
        }
    }

    /// A chunk: one alignment to its widest member, then its bytes.
    fn chunk(self, layout: &Packed, at: &mut Cursor) -> SizeClass {
        let pad = self.pad(at, layout.align.min(8) as u8);
        *at = at.advance(layout.size);
        pad.then(SizeClass::Fixed(layout.size))
    }

    /// A run of `prim`s: `fixed_len` of them, or a counted run of at
    /// most `bound` — one type descriptor, the count, one alignment,
    /// the data and the pad the encoding owes it.
    fn run(
        self,
        prim: WirePrim,
        fixed_len: Option<u64>,
        bound: Option<u64>,
        counted: bool,
        at: &mut Cursor,
    ) -> SizeClass {
        let enc = self.walk.enc;
        let Some(n) = fixed_len.or(bound) else {
            *at = Cursor::UNKNOWN;
            return SizeClass::Unbounded;
        };
        *at = at.advance(enc.descriptor_bytes(n));
        let mut size = SizeClass::Fixed(enc.descriptor_bytes(n));
        if counted {
            size = size.then(self.count_prefix(at));
        }
        size = size.then(self.pad(at, prim.align));
        let data = n * u64::from(prim.size);
        *at = match fixed_len {
            Some(_) => at.advance(data),
            None => at.advance_by_multiple(u64::from(prim.size)),
        };
        *at = at.after_pad(enc, u64::from(prim.slot));
        match fixed_len {
            Some(_) => size.then(SizeClass::Fixed(data + enc.pad_after(data))),
            None => size.then(self.padded(data)),
        }
    }

    /// At most `n` bytes of counted data and the pad the encoding owes
    /// them (data and pad together only grow with the data).
    fn padded(self, n: u64) -> SizeClass {
        SizeClass::Bounded(n + self.walk.enc.pad_after(n))
    }

    /// The pad the stub writes to align `at` to `to`: none under a
    /// word-widening encoding, exact where the offset is known, and at
    /// its widest where it is not.
    fn pad(self, at: &mut Cursor, to: u8) -> SizeClass {
        match at.pad(to, self.walk.enc) {
            (n, true) => SizeClass::Fixed(n),
            (n, false) => SizeClass::Bounded(n),
        }
    }

    /// An aligned count prefix, and `at` moved past it.
    fn count_prefix(self, at: &mut Cursor) -> SizeClass {
        let len = self.walk.enc.len_prefix();
        let pad = self.pad(at, len.align);
        *at = at.advance(u64::from(len.slot));
        pad.then(SizeClass::Fixed(u64::from(len.slot)))
    }
}

/// Attempts to pack `node` into a fixed layout starting at an aligned
/// offset, expanding outline calls through `outlines`.  Returns `None`
/// when the region is variable-size, when the encoding interleaves
/// type descriptors, which defeat cross-field chunking, or when the
/// encoding aligns and the region's first scalar is not its widest.
#[must_use]
pub fn pack(
    node: &PlanNode,
    outlines: &BTreeMap<Name, PlanNode>,
    enc: &Encoding,
) -> Option<Packed> {
    Walk { outlines, enc }.chunk(node, Some(ValPath::Root), None)
}

/// Classifies the size of a message body (§3.1): its `slots` in wire
/// order from `_base`, expanding outline calls through `outlines`, with
/// every alignment pad the stub writes — so a check hoisted to this
/// class never reserves less than the body writes.  The operation's
/// discriminator travels in the transport's header, not the body.
/// The slots may be naive: they are sized in the `shapes` the pipeline
/// will give them.
#[must_use]
pub fn message_class<'n>(
    slots: impl IntoIterator<Item = &'n PlanNode>,
    outlines: &BTreeMap<Name, PlanNode>,
    enc: &Encoding,
    shapes: Shapes,
) -> SizeClass {
    let walk = Sizing {
        walk: Walk { outlines, enc },
        shapes,
    };
    let mut at = Cursor::START;
    slots.into_iter().fold(SizeClass::Fixed(0), |size, node| {
        size.then(walk.sized(node, None, &mut at))
    })
}

/// True when the bytes a message body of `slots` writes are a cheap
/// function of its values — a constant, plus terms over the lengths of
/// its strings, opaque and scalar sequences, and counted arrays of such,
/// through structs and fixed arrays — so its encoder can reserve them
/// once, before the first byte.  A union or an optional (which arm, and
/// whether present, is a value's), or a recursive body, makes it false.
#[must_use]
pub fn sized_by_value<'n>(
    slots: impl IntoIterator<Item = &'n PlanNode>,
    outlines: &BTreeMap<Name, PlanNode>,
) -> bool {
    fn by_value(
        node: &PlanNode,
        outlines: &BTreeMap<Name, PlanNode>,
        up: Option<&Expanding>,
    ) -> bool {
        match node {
            PlanNode::Void
            | PlanNode::Prim { .. }
            | PlanNode::Enum { .. }
            | PlanNode::Packed { .. }
            | PlanNode::MemcpyArray { .. }
            | PlanNode::String { .. } => true,
            PlanNode::CountedArray { elem, .. } | PlanNode::FixedArray { elem, .. } => {
                by_value(elem, outlines, up)
            }
            PlanNode::Struct { fields, .. } => {
                fields.iter().all(|(_, f)| by_value(f, outlines, up))
            }
            PlanNode::Outline { key } => expand(outlines, key, up)
                .is_some_and(|body| by_value(body, outlines, Some(&Expanding { key, up }))),
            PlanNode::Union { .. } | PlanNode::Optional { .. } => false,
        }
    }
    slots.into_iter().all(|node| by_value(node, outlines, None))
}

/// Classifies the encoded size of `node` (§3.1), expanding outline
/// calls through `outlines`.
///
/// Cycles (recursive types) classify as [`SizeClass::Unbounded`].
#[must_use]
pub fn size_class(
    node: &PlanNode,
    outlines: &BTreeMap<Name, PlanNode>,
    enc: &Encoding,
) -> SizeClass {
    Walk { outlines, enc }.class(node, None)
}

/// The presented `#[repr(C)]` layout of an aggregate of integers and
/// floats that needs no padding: the presentation half of the image
/// predicate, which lowering answers for every counted array's element.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CImage {
    /// Bytes; while lowering accumulates it, also the next member's C
    /// offset, since no member placed so far needed padding.
    pub size: u32,
    /// Bit `w` is set when some scalar is `w` bytes wide.
    pub widths: u16,
}

impl CImage {
    /// The largest member alignment: a scalar's is its size, so this
    /// is the widest scalar's width.  (An image holds a scalar.)
    #[must_use]
    pub fn align(&self) -> u32 {
        self.widths.ilog2()
    }
}

/// Decides whether an array element's presented `#[repr(C)]` struct
/// *is* its wire image, given the presentation half `c` (every member
/// an integer or a float, neither C padding nor a nested struct's) and
/// the `wire_size` of the element's packed chunk.  The chunk is its
/// scalars' slots (each at least the scalar's size) plus alignment gaps
/// and run padding, in the same order; it is as small as the scalars
/// alone exactly when no slot is widened (no XDR `short`) and there is
/// no gap or pad — and then both layouts are the same prefix sums.  An
/// array of such structs is then byte for byte the wire's array, and
/// marshals as one run instead of a field-by-field rebuild.  (`boolean`,
/// `char` and enum members never pass the presentation half: a run
/// validates nothing, so it moves only types for which every bit
/// pattern is a value under any presentation.)
///
/// Returns the width of the scalars a foreign byte `order` must reverse
/// — which must then be uniform across the struct — or 1 when the
/// bytes move unchanged (native order, or nothing wider than a byte).
#[must_use]
pub fn wire_image(c: &CImage, wire_size: u64, order: Order) -> Option<u8> {
    if wire_size != u64::from(c.size) {
        return None;
    }
    if order.is_native() || c.widths == 1 << 1 {
        Some(1)
    } else {
        // One swap width for the whole struct, or no run.
        c.widths
            .is_power_of_two()
            .then_some(c.widths.trailing_zeros() as u8)
    }
}

/// Rounds `n` up to a multiple of `align`.
#[must_use]
pub fn align_up(n: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (n + align - 1) & !(align - 1)
}

/// Where a stub's write or read cursor stands, relative to the
/// message's `_base`, as far as the compiler can tell: the offset is
/// `value` modulo `modulus`, a power of two no larger than the widest
/// wire alignment (8).  Modulus 1 knows nothing.
///
/// The static-offset analysis: the chunk gives constant offsets inside
/// a fixed region, and the cursor carries what is known *between*
/// regions.  Scalars, chunks and fixed runs move it by a constant, a
/// counted run by an unknown multiple of its element size, a string
/// padded to a unit by an unknown multiple of the unit, and a
/// NUL-terminated string or padded byte data loses it; a Mach 3
/// descriptor word moves it by 4
/// or 12 bytes, which no modulus up to 8 tells apart.  Emitters ask it
/// before every alignment ([`Cursor::align`]): a provable no-op is not
/// written, a known pad is a constant, and only an unknown offset is
/// computed at run time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cursor {
    modulus: u8,
    value: u8,
}

/// What aligning a [`Cursor`] takes at run time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Align {
    /// Already aligned: nothing to write.
    Nothing,
    /// Exactly this many pad bytes.
    Pad(u8),
    /// The offset is unknown: compute the pad from `_base`.
    Dynamic,
}

impl Cursor {
    /// At `_base` itself: a function's entry, before a byte is
    /// written or read.
    pub const START: Cursor = Cursor {
        modulus: 8,
        value: 0,
    };

    /// Nothing known: after variable-length data, and at the entry of
    /// an out-of-line body, which may be called at any offset.
    pub const UNKNOWN: Cursor = Cursor {
        modulus: 1,
        value: 0,
    };

    /// The cursor `n` bytes further on.
    #[must_use]
    pub fn advance(self, n: u64) -> Cursor {
        // The modulus divides 2^64, so wrapping keeps the residue.
        let mask = u64::from(self.modulus) - 1;
        Cursor {
            value: (u64::from(self.value).wrapping_add(n) & mask) as u8,
            ..self
        }
    }

    /// The cursor an unknown multiple of `n` bytes further on (the
    /// elements of a counted run or strided array, none included).
    #[must_use]
    pub fn advance_by_multiple(self, n: u64) -> Cursor {
        if n == 0 {
            return self;
        }
        let step = 1u64 << n.trailing_zeros().min(3);
        let modulus = u64::from(self.modulus).min(step) as u8;
        Cursor {
            modulus,
            value: self.value & (modulus - 1),
        }
    }

    /// Aligns the cursor to `to` (a power of two) and says what that
    /// takes.  Past an unknown offset the cursor is aligned, and knows
    /// no more than that.
    pub fn align(&mut self, to: u8) -> Align {
        if to <= 1 {
            return Align::Nothing;
        }
        if self.modulus >= to {
            let pad = self.value.wrapping_neg() & (to - 1);
            *self = self.advance(u64::from(pad));
            return if pad == 0 {
                Align::Nothing
            } else {
                Align::Pad(pad)
            };
        }
        *self = Cursor {
            modulus: to.min(8),
            value: 0,
        };
        Align::Dynamic
    }

    /// Aligns the cursor to `to` as a stub does and says what pad that
    /// writes: `(bytes, true)` exactly — none under a word-widening
    /// encoding, which aligns nothing — or, where the offset is unknown,
    /// `(most, false)`, the widest pad it can be.
    pub fn pad(&mut self, to: u8, enc: &Encoding) -> (u64, bool) {
        let known = *self;
        match self.align(to) {
            _ if enc.widen_to_word => (0, true),
            Align::Nothing => (0, true),
            Align::Pad(n) => (u64::from(n), true),
            // The offset is `value` plus a multiple of `modulus`: the
            // nearest one past an aligned offset needs the most pad.
            Align::Dynamic => {
                let nearest = if known.value == 0 {
                    known.modulus
                } else {
                    known.value
                };
                (u64::from(to - nearest), false)
            }
        }
    }

    /// What is known at a point two paths reach (union arms, a present
    /// and an absent optional, a loop's entry and its back edge).
    #[must_use]
    pub fn join(self, other: Cursor) -> Cursor {
        let mut modulus = self.modulus.min(other.modulus);
        while (self.value ^ other.value) & (modulus - 1) != 0 {
            modulus /= 2;
        }
        Cursor {
            modulus,
            value: self.value & (modulus - 1),
        }
    }

    /// True when `self` knows at least what `other` does: every offset
    /// `self` admits, `other` admits too.
    #[must_use]
    pub fn refines(self, other: Cursor) -> bool {
        self.join(other) == other
    }

    /// The state at the head of a loop entered at `self` whose body
    /// marshals one `elem`: the fixpoint of the entry and the back
    /// edge, which is also the state after the loop.  The lattice has
    /// four heights, so this takes at most four rounds; knowing nothing
    /// is a fixpoint at once.
    #[must_use]
    pub fn loop_head(self, elem: &PlanNode, enc: &Encoding) -> Cursor {
        let mut head = self;
        loop {
            let next = head.join(head.after_elem(elem, enc));
            if next == head || next == Cursor::UNKNOWN {
                return next;
            }
            head = next;
        }
    }

    /// The cursor after one value of `node` is marshaled from here, in
    /// wire order — the same steps, alignments included, that the Rust
    /// stub emitter writes for it.
    #[must_use]
    pub fn after(self, node: &PlanNode, enc: &Encoding) -> Cursor {
        let desc = if enc.typed_descriptors { 4 } else { 0 };
        let mut c = self;
        match node {
            PlanNode::Void => {}
            PlanNode::Prim { prim } => {
                c = c.advance(desc);
                c.align(prim.align);
                c = c.advance(u64::from(prim.slot));
            }
            PlanNode::Enum { prim } => {
                c.align(prim.align);
                c = c.advance(u64::from(prim.slot));
            }
            PlanNode::Packed { layout, .. } => {
                c.align(layout.align.min(8) as u8);
                c = c.advance(layout.size);
            }
            PlanNode::MemcpyArray {
                prim,
                fixed_len,
                counted,
                ..
            } => {
                c = c.advance(desc);
                if *counted {
                    c = c.count_prefix(enc);
                }
                c.align(prim.align);
                c = match fixed_len {
                    Some(n) => c.advance(n * u64::from(prim.size)),
                    None => c.advance_by_multiple(u64::from(prim.size)),
                };
                c = c.after_pad(enc, u64::from(prim.slot));
            }
            PlanNode::CountedArray { elem, strided, .. } => {
                if described(enc, elem).is_some() {
                    c = c.advance(desc);
                }
                c = c.count_prefix(enc);
                match (*strided, &**elem) {
                    (true, PlanNode::Packed { layout, .. }) => {
                        c = c.strided_run(enc, layout);
                    }
                    _ => {
                        c = c.loop_head(elem, enc);
                        if let Some(prim) = elem.scalar() {
                            c = c.after_pad(enc, u64::from(prim.slot));
                        }
                    }
                }
            }
            PlanNode::FixedArray { len, elem, .. } => {
                if described(enc, elem).is_some() {
                    c = c.advance(desc);
                }
                for _ in 0..*len {
                    let next = c.after_elem(elem, enc);
                    if next == c {
                        break;
                    }
                    c = next;
                }
                if let Some(prim) = elem.scalar() {
                    c = c.after_pad(enc, len * u64::from(prim.slot));
                }
            }
            PlanNode::Struct { fields, .. } => {
                for (_, f) in fields {
                    c = c.after(f, enc);
                }
            }
            PlanNode::Union {
                disc_prim,
                cases,
                default,
                ..
            } => {
                c.align(disc_prim.align);
                c = c.advance(u64::from(disc_prim.slot));
                let arms = cases.iter().map(|(_, _, a)| a);
                let mut arms = arms.chain(default.as_ref().map(|(_, d)| &**d));
                if let Some(first) = arms.next() {
                    let end = c.after(first, enc);
                    c = arms.fold(end, |end, arm| end.join(c.after(arm, enc)));
                }
            }
            PlanNode::Optional { flag, elem, .. } => {
                c = c.advance(u64::from(flag.slot));
                c = c.join(c.after(elem, enc));
            }
            PlanNode::String { .. } => c = c.advance(desc).count_prefix(enc).after_string(enc),
            // An out-of-line body is of no length known here.
            PlanNode::Outline { .. } => c = Cursor::UNKNOWN,
        }
        c
    }

    /// The cursor after one element `elem` of an array: as
    /// [`Cursor::after`], but a scalar the array's descriptor describes
    /// ([`described`]) carries none of its own.
    #[must_use]
    pub fn after_elem(self, elem: &PlanNode, enc: &Encoding) -> Cursor {
        match described(enc, elem) {
            Some(prim) => {
                let mut c = self;
                c.align(prim.align);
                c.advance(u64::from(prim.slot))
            }
            None => self.after(elem, enc),
        }
    }

    /// After an aligned count prefix.
    #[must_use]
    pub fn count_prefix(mut self, enc: &Encoding) -> Cursor {
        let len = enc.len_prefix();
        self.align(len.align);
        self.advance(u64::from(len.slot))
    }

    /// Past a string's bytes, its aligned count prefix already taken: a
    /// string padded to its encoding's unit (Mach 3, XDR) ends a whole
    /// number of units past the prefix, a NUL-terminated one (CDR)
    /// anywhere.
    #[must_use]
    pub fn after_string(self, enc: &Encoding) -> Cursor {
        match enc.pad_unit {
            Some(u) if enc.string_wire == StringWire::CountedPadded => {
                self.advance_by_multiple(u64::from(u))
            }
            _ => Cursor::UNKNOWN,
        }
    }

    /// After the trailing pad the encoding owes `n` bytes of packed
    /// data, if it owes one: the stubs pad to the stream's offset or by
    /// a count read off the wire, so nothing is known past it.
    #[must_use]
    pub fn after_pad(self, enc: &Encoding, n: u64) -> Cursor {
        if enc.pad_after(n) > 0 {
            Cursor::UNKNOWN
        } else {
            self
        }
    }

    /// After a strided array of `layout` chunks whose count was just
    /// read or written: its one alignment ([`run_align`]), taken only
    /// when the array is not empty, then a whole number of elements.
    #[must_use]
    pub fn strided_run(self, enc: &Encoding, layout: &Packed) -> Cursor {
        let mut full = self;
        if let Some(a) = run_align(enc, layout.align) {
            full.align(a);
        }
        self.join(full.advance_by_multiple(layout.size))
    }
}

/// The scalar an array's one type descriptor describes, when the
/// encoding writes descriptors and the array's elements are scalars:
/// the array carries one descriptor whose count is its length, as a run
/// does, and its elements none of their own — element by element or as
/// a run, one array is one wire form.
#[must_use]
pub fn described(enc: &Encoding, elem: &PlanNode) -> Option<WirePrim> {
    match *elem {
        PlanNode::Prim { prim } if enc.typed_descriptors => Some(prim),
        _ => None,
    }
}

/// The one alignment a strided run of `align`-aligned chunks needs, if
/// any.  The count prefix left the stream 4-aligned, so only wider
/// chunks need one, and word-widening encodings need none.
#[must_use]
pub fn run_align(enc: &Encoding, align: u64) -> Option<u8> {
    (!enc.widen_to_word && align > 4).then_some(align.min(8) as u8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::StubPlans;
    use crate::passes::{plan_module, PassSet};
    use crate::plan::lower_stub;
    use flick_idl::diag::Diagnostics;
    use flick_pres::{PresC, Side};

    fn presc_for(idl: &str, iface: &str) -> PresC {
        let aoi = flick_frontend_corba::parse_str("t.idl", idl);
        let mut d = Diagnostics::new();
        flick_presgen::corba_c(&aoi, iface, Side::Client, &mut d).expect("presentation")
    }

    /// The naive MIR of the first request slot of `p`'s stub `op` (the
    /// sole stub when `None`) under `enc`, beside the outline bodies its
    /// calls reach.
    fn lowered(
        p: &PresC,
        op: Option<&str>,
        enc: &Encoding,
    ) -> (PlanNode, BTreeMap<Name, PlanNode>) {
        let stub = match op {
            Some(op) => p.stubs.iter().find(|s| s.op.name == op).expect("stub"),
            None => &p.stubs[0],
        };
        let (mut plan, outlines) = lower_stub(p, enc, stub).expect("lowers");
        (plan.request.slots.swap_remove(0).node, outlines)
    }

    /// `pack` over the one request slot of `idl`'s interface `I`.
    fn pack_of(idl: &str, enc: &Encoding) -> Option<Packed> {
        let (node, outlines) = lowered(&presc_for(idl, "I"), None, enc);
        pack(&node, &outlines, enc)
    }

    /// The rectangle structure from §4: two points of two longs.
    const RECT_IDL: &str = r"
        struct Point { long x; long y; };
        struct Rect { Point min; Point max; };
        interface I { void put(in Rect r); };
    ";

    #[test]
    fn rect_packs_to_16_bytes() {
        let packed = pack_of(RECT_IDL, &Encoding::xdr()).expect("rect is fixed");
        assert_eq!(packed.size, 16);
        assert_eq!(packed.items.len(), 4);
        let offsets: Vec<u64> = packed.items.iter().map(PackedItem::offset).collect();
        assert_eq!(offsets, [0, 4, 8, 12]);
        // Paths dig through the nested structs.
        match &packed.items[3] {
            PackedItem::Prim { path, .. } => {
                assert_eq!(*path, ValPath::Root.field("max").field("y"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fixed_char_array_becomes_run() {
        // The 16-byte tag inside the paper's stat-like struct.
        let packed = pack_of(
            r"
            struct Stat { long fields[30]; char tag[16]; };
            interface I { void put(in Stat s); };
            ",
            &Encoding::cdr_be(),
        )
        .expect("fixed");
        // 30 longs (one run) + 16 chars (one run) = 2 items, 136 bytes.
        assert_eq!(packed.items.len(), 2);
        assert_eq!(packed.size, 136);
        match &packed.items[1] {
            PackedItem::PrimRun { offset, count, .. } => {
                assert_eq!(*offset, 120);
                assert_eq!(*count, 16);
            }
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn xdr_char_array_packs_as_bytes() {
        // XDR packs byte-wide array elements contiguously (opaque
        // convention), padding the run to a 4-byte boundary: char[5]
        // occupies 8 bytes as one run.
        let packed = pack_of(
            "struct T { char tag[5]; }; interface I { void put(in T t); };",
            &Encoding::xdr(),
        )
        .expect("fixed");
        assert_eq!(packed.items.len(), 1);
        assert_eq!(packed.size, 8);
        match &packed.items[0] {
            PackedItem::PrimRun {
                count: 5, pad: 3, ..
            } => {}
            other => panic!("expected padded byte run, got {other:?}"),
        }
    }

    #[test]
    fn paper_dirent_stat_is_136_bytes_under_xdr() {
        // §4: 30 4-byte integers + one 16-byte character array = 136
        // bytes of encoded data.
        let packed = pack_of(
            "struct Stat { long fields[30]; char tag[16]; }; interface I { void put(in Stat s); };",
            &Encoding::xdr(),
        )
        .unwrap();
        assert_eq!(packed.size, 136);
        assert_eq!(packed.items.len(), 2);
    }

    #[test]
    fn string_defeats_packing() {
        let idl = "struct D { string name; long n; }; interface I { void put(in D d); };";
        assert!(pack_of(idl, &Encoding::xdr()).is_none());
    }

    #[test]
    fn cdr_alignment_padding_counted() {
        // double + char + long: CDR aligns the long to 4 → size 16.
        let idl = "struct M { double d; char c; long n; }; interface I { void put(in M m); };";
        let packed = pack_of(idl, &Encoding::cdr_be()).unwrap();
        assert_eq!(packed.size, 16);
        assert_eq!(packed.items[2].offset(), 12);
        assert_eq!(packed.align, 8);
    }

    #[test]
    fn a_region_led_by_a_narrower_scalar_does_not_chunk_where_the_encoding_aligns() {
        // char + double: aligned for the double, a chunk would put the
        // char where CDR, aligning it alone, does not.
        let idl = "struct M { char c; double d; }; interface I { void put(in M m); };";
        assert_eq!(pack_of(idl, &Encoding::cdr_be()), None);
        // XDR aligns nothing: the char widens to 4, the double follows.
        let packed_xdr = pack_of(idl, &Encoding::xdr()).unwrap();
        assert_eq!(packed_xdr.size, 12);
    }

    #[test]
    fn size_classes() {
        let p = presc_for(
            r"
            struct Fixed { long a; long b; };
            typedef sequence<long, 16> Bounded;
            typedef sequence<long> Unbounded;
            interface I {
                void f(in Fixed x);
                void g(in Bounded x);
                void h(in Unbounded x);
                void s(in string<10> x);
                void u(in string x);
            };
            ",
            "I",
        );
        let enc = Encoding::xdr();
        let class_of = |op: &str| {
            let (node, outlines) = lowered(&p, Some(op), &enc);
            size_class(&node, &outlines, &enc)
        };
        assert_eq!(class_of("f"), SizeClass::Fixed(8));
        assert_eq!(class_of("g"), SizeClass::Bounded(4 + 16 * 4));
        assert_eq!(class_of("h"), SizeClass::Unbounded);
        // string<10>: 4 + 12 (10 padded to 12) = 16.
        assert_eq!(class_of("s"), SizeClass::Bounded(16));
        assert_eq!(class_of("u"), SizeClass::Unbounded);
    }

    #[test]
    fn recursive_type_is_unbounded() {
        let aoi = flick_frontend_onc::parse_str(
            "l.x",
            r"
            struct node { int v; node *next; };
            program L { version V { void put(node n) = 1; } = 1; } = 9;
            ",
        );
        let mut d = Diagnostics::new();
        let p = flick_presgen::rpcgen_c(&aoi, "L", Side::Client, &mut d).unwrap();
        let enc = Encoding::xdr();
        let (node, outlines) = lowered(&p, None, &enc);
        assert!(matches!(node, PlanNode::Outline { .. }), "{node:?}");
        assert_eq!(size_class(&node, &outlines, &enc), SizeClass::Unbounded);
    }

    #[test]
    fn size_class_composition() {
        use SizeClass::{Bounded, Fixed, Unbounded};
        assert_eq!(Fixed(4).then(Fixed(8)), Fixed(12));
        assert_eq!(Fixed(4).then(Bounded(8)), Bounded(12));
        assert_eq!(Bounded(4).then(Fixed(8)), Bounded(12));
        assert_eq!(Fixed(4).then(Unbounded), Unbounded);
        assert_eq!(Unbounded.then(Fixed(1)), Unbounded);
        assert_eq!(Fixed(9).bound(), Some(9));
        assert_eq!(Unbounded.bound(), None);
    }

    /// The image predicate over the request's one `sequence<T>` slot
    /// (any parameter kind: it looks at `T` alone): lowering's C half
    /// against the packed element.
    fn image_of(idl: &str, enc: &Encoding) -> Option<u8> {
        let (node, outlines) = lowered(&presc_for(idl, "I"), None, enc);
        match node {
            PlanNode::CountedArray { c_image, elem, .. } => {
                let wire = pack(&elem, &outlines, enc)?;
                wire_image(&c_image?, wire.size, enc.order)
            }
            other => panic!("expected a sequence parameter, got {other:?}"),
        }
    }

    fn seq_of(decls: &str, elem: &str) -> String {
        format!("{decls} typedef sequence<{elem}> Seq; interface I {{ void put(in Seq s); }};")
    }

    const BENCH_TYPES: &str = r"
        struct Point { long x; long y; };
        struct Rect { Point min; Point max; };
        struct Stat { long fields[30]; char tag[16]; };
        struct Dirent { string name; Stat info; };
    ";

    /// CDR in the order that is not the host's.
    fn foreign_cdr() -> Encoding {
        if cfg!(target_endian = "little") {
            Encoding::cdr_be()
        } else {
            Encoding::cdr_le()
        }
    }

    #[test]
    fn wire_image_of_the_paper_types() {
        let foreign = foreign_cdr();
        // Four longs, nested two by two: the struct is the wire's 16
        // bytes in native order, and four 4-byte swaps away otherwise.
        let rects = seq_of(BENCH_TYPES, "Rect");
        assert_eq!(image_of(&rects, &Encoding::cdr_native()), Some(1));
        assert_eq!(image_of(&rects, &foreign), Some(4));
        let xdr_swap = if cfg!(target_endian = "little") { 4 } else { 1 };
        assert_eq!(image_of(&rects, &Encoding::xdr()), Some(xdr_swap));
        // Stat packs (136 bytes, no padding), but `tag` is `char`s: no
        // image under any encoding.
        let stats = seq_of(BENCH_TYPES, "Stat");
        for enc in [Encoding::xdr(), Encoding::cdr_native(), foreign.clone()] {
            assert_eq!(image_of(&stats, &enc), None, "{}", enc.name);
        }
        // Dirent does not even pack.
        let dirents = seq_of(BENCH_TYPES, "Dirent");
        assert_eq!(image_of(&dirents, &Encoding::xdr()), None);
        assert_eq!(image_of(&dirents, &Encoding::cdr_native()), None);
        // A bare scalar or array element is a scalar run's business.
        assert_eq!(image_of(&seq_of("", "long"), &Encoding::cdr_native()), None);
    }

    #[test]
    fn wire_image_needs_the_c_layout_and_the_wire_to_coincide() {
        let native = Encoding::cdr_native();
        let foreign = foreign_cdr();
        let img = |decl: &str, enc: &Encoding| image_of(&seq_of(decl, "T"), enc);
        // {long; double}: XDR packs the double at 4 where C puts it at
        // 8; CDR agrees with C but both pad four bytes.
        let ld = "struct T { long a; double d; };";
        assert_eq!(img(ld, &Encoding::xdr()), None);
        assert_eq!(img(ld, &native), None);
        // Reordered, XDR's 12 bytes are C's 16 with tail padding; two
        // longs after the double fill it on both sides.
        assert_eq!(
            img("struct T { double d; long a; };", &Encoding::xdr()),
            None
        );
        let dll = "struct T { double d; long a; long b; };";
        assert_eq!(img(dll, &native), Some(1));
        // ... but 8- and 4-byte scalars have no one swap width.
        assert_eq!(img(dll, &foreign), None);
        assert_eq!(
            img("struct T { double d; long long n; };", &foreign),
            Some(8)
        );
        // XDR widens a short to a 4-byte slot; CDR moves it as it is.
        let shorts = "struct T { short a; short b; };";
        assert_eq!(img(shorts, &Encoding::xdr()), None);
        assert_eq!(img(shorts, &native), Some(1));
        assert_eq!(img(shorts, &foreign), Some(2));
        // Octets are integers: alone they need no swap in any order,
        // beside a long they break a foreign order's uniform width.
        let octets = "struct T { octet a[4]; };";
        assert_eq!(img(octets, &foreign), Some(1));
        let mixed = "struct T { long n; octet a[4]; };";
        assert_eq!(img(mixed, &native), Some(1));
        assert_eq!(img(mixed, &foreign), None);
        // XDR pads a byte array to four: {octet[3]; long} has a gap.
        assert_eq!(
            img("struct T { octet a[3]; long n; };", &Encoding::xdr()),
            None
        );
        // Value-constrained members never move unvalidated.
        for member in ["boolean b[4];", "char c[4];", "E e;"] {
            let decl = format!("enum E {{ A, B }}; struct T {{ long n; {member} }};");
            assert_eq!(img(&decl, &native), None, "{member}");
        }
        // Arrays of image structs inside an image struct are fine.
        let nested = "struct P { long x; long y; }; struct T { P corners[2]; float w; float h; };";
        assert_eq!(img(nested, &native), Some(1));
        assert_eq!(img(nested, &foreign), Some(4));
    }

    #[test]
    fn mach_descriptors_defeat_packing() {
        assert!(pack_of(RECT_IDL, &Encoding::mach3()).is_none());
    }

    /// `offset ≡ value (mod modulus)`.
    fn at(modulus: u8, value: u8) -> Cursor {
        Cursor { modulus, value }
    }

    /// The optimized MIR of `idl`'s interface `iface` under `enc`.
    fn planned(idl: &str, iface: &str, enc: &Encoding, passes: PassSet) -> StubPlans {
        plan_module(&presc_for(idl, iface), enc, passes, true, None, None)
            .expect("plans")
            .mir
    }

    /// The request slots of operation `op`.
    fn request<'m>(mir: &'m StubPlans, op: &str) -> Vec<&'m PlanNode> {
        let stub = mir.stubs.iter().find(|s| s.op.name == op).expect("stub");
        stub.request.slots.iter().map(|s| &s.node).collect()
    }

    #[test]
    fn the_lattice_steps_joins_and_aligns() {
        assert_eq!(Cursor::START.advance(13), at(8, 5));
        assert_eq!(at(8, 6).advance_by_multiple(4), at(4, 2));
        assert_eq!(at(8, 6).advance_by_multiple(24), at(8, 6));
        assert_eq!(at(8, 6).advance_by_multiple(3), Cursor::UNKNOWN);
        assert_eq!(at(8, 6).join(at(8, 2)), at(4, 2));
        assert_eq!(at(8, 5).join(at(4, 1)), at(4, 1));
        assert_eq!(at(8, 5).join(at(8, 0)), Cursor::UNKNOWN);
        assert!(at(8, 5).refines(at(4, 1)) && !at(4, 1).refines(at(8, 5)));
        let mut c = at(4, 2);
        assert_eq!(c.align(2), Align::Nothing);
        assert_eq!(c.align(4), Align::Pad(2));
        assert_eq!(c, at(4, 0));
        // Aligning past what is known is computed at run time, and
        // leaves the cursor aligned.
        assert_eq!(c.align(8), Align::Dynamic);
        assert_eq!(c, at(8, 0));
        assert_eq!(c.align(1), Align::Nothing);
    }

    #[test]
    fn the_shade_union_joins_its_arms_to_unknown() {
        // `varied.idl`'s `Shade`: past the 4-byte discriminator, the
        // octet arm ends at 5, the long arm at 8, and the double arm
        // pads to 8 and ends at 16, modulo 8: nothing is common.
        let enc = Encoding::cdr_native();
        let idl = include_str!("../../../testdata/varied.idl");
        let mir = planned(idl, "Varied", &enc, PassSet::all());
        let [shade, strict] = request(&mir, "tally")[..] else {
            panic!("tally takes a Shade and a boolean");
        };
        assert!(matches!(shade, PlanNode::Union { .. }), "{shade:?}");
        assert_eq!(Cursor::START.after(shade, &enc), Cursor::UNKNOWN);
        // The boolean behind it needs no alignment to know that.
        assert_eq!(Cursor::UNKNOWN.after(strict, &enc), Cursor::UNKNOWN);
    }

    #[test]
    fn a_double_after_a_boolean_gets_a_constant_pad() {
        let enc = Encoding::cdr_native();
        let idl = "interface I { void f(in boolean b, in double d); };";
        let mir = planned(idl, "I", &enc, PassSet::all());
        let [b, d] = request(&mir, "f")[..] else {
            panic!("f takes two scalars");
        };
        let mut c = Cursor::START.after(b, &enc);
        assert_eq!(c, at(8, 1));
        assert_eq!(c.align(8), Align::Pad(7));
        assert_eq!(Cursor::START.after(b, &enc).after(d, &enc), at(8, 0));
    }

    #[test]
    fn the_dirent_loop_head_is_word_aligned() {
        // Entered 4 bytes in (past the count), and after an element —
        // a string, then the word-aligned 136-byte stat chunk — back
        // on a word but no longer known modulo 8: the fixpoint is
        // `≡ 0 (mod 4)`, so the element's first alignment is a no-op.
        let enc = Encoding::cdr_native();
        let mir = planned(&seq_of(BENCH_TYPES, "Dirent"), "I", &enc, PassSet::all());
        let [PlanNode::CountedArray { elem, .. }] = request(&mir, "put")[..] else {
            panic!("put takes one sequence");
        };
        let entry = Cursor::START.count_prefix(&enc);
        assert_eq!(entry, at(8, 4));
        let head = entry.loop_head(elem, &enc);
        assert_eq!(head, at(4, 0));
        let mut first = head;
        assert_eq!(first.align(4), Align::Nothing);
    }

    #[test]
    fn an_empty_strided_run_skips_its_alignment() {
        // A 16-byte chunk aligned to 8: a non-empty run pads 4 past
        // the count to an 8-byte boundary and stays on one; an empty
        // run stays 4 past it.  After the run, only the word is known.
        let enc = Encoding::cdr_native();
        let decl = "struct S { double d; long n; boolean on; char tag[3]; };";
        let mir = planned(&seq_of(decl, "S"), "I", &enc, PassSet::all());
        let [seq @ PlanNode::CountedArray {
            elem,
            strided: true,
            ..
        }] = request(&mir, "put")[..]
        else {
            panic!("put takes one strided sequence");
        };
        let PlanNode::Packed { layout, .. } = &**elem else {
            panic!("strided over a chunk");
        };
        assert_eq!(
            (layout.size, layout.align, run_align(&enc, layout.align)),
            (16, 8, Some(8))
        );
        let mut full = at(8, 4);
        assert_eq!(full.align(8), Align::Pad(4));
        assert_eq!(at(8, 4).strided_run(&enc, layout), at(4, 0));
        assert_eq!(Cursor::START.after(seq, &enc), at(4, 0));
        // Entered on an 8-byte boundary, both ways out stay on one.
        assert_eq!(at(8, 0).strided_run(&enc, layout), at(8, 0));
        // XDR widens to words and never aligns a run.
        assert_eq!(run_align(&Encoding::xdr(), 8), None);
    }

    #[test]
    fn past_a_fixed_run_after_a_byte_the_offset_is_known() {
        // Encoders and decoders both align a fixed run: a byte, 3 pad
        // bytes, then the run's 8 bytes, 12 in all from an 8-aligned
        // start.
        let enc = Encoding::cdr_native();
        let passes = PassSet::all().without("form-chunks").expect("removable");
        let idl = "struct T { octet a; long b[2]; }; interface I { void put(in T t); };";
        let mir = planned(idl, "I", &enc, passes);
        let [t] = request(&mir, "put")[..] else {
            panic!("put takes one T");
        };
        assert_eq!(Cursor::START.after(t, &enc), at(8, 4));
    }

    #[test]
    fn an_outline_body_is_unknown_at_entry() {
        // With `inline-marshal` off every named aggregate is marshaled
        // out of line: the call forgets the cursor, and the body, which
        // any caller may enter at any offset, aligns its first field at
        // run time even where the message starts with it — against the
        // caller's `_base`, handed in.
        let enc = Encoding::cdr_native();
        let passes = PassSet::all().without("inline-marshal").expect("removable");
        let mir = planned(RECT_IDL, "I", &enc, passes);
        let [call @ PlanNode::Outline { .. }] = request(&mir, "put")[..] else {
            panic!("put's Rect goes out of line");
        };
        assert_eq!(Cursor::START.after(call, &enc), Cursor::UNKNOWN);
        let mut be = crate::BackEnd::new(crate::Transport::IiopTcp);
        be.passes = passes;
        let src = be
            .compile(&presc_for(RECT_IDL, "I"))
            .expect("compiles")
            .rust_source;
        assert!(
            src.contains("_base: usize, v: &Rect) {\n    buf.align_from(_base, 4);"),
            "{src}"
        );
    }

    #[test]
    fn a_mach_long_form_descriptor_moves_the_cursor_as_a_short_one() {
        // 4 bytes or 12: the same offset modulo 8, from anywhere.
        let mach = Encoding::mach3();
        assert_eq!(mach.descriptor_bytes(0x1000), 12);
        for modulus in [1, 2, 4, 8] {
            for value in 0..modulus {
                let c = at(modulus, value);
                assert_eq!(c.advance(4), c.advance(12));
            }
        }
        // So a long sequence's count, and the data behind it, need no
        // alignment whichever form its descriptor takes.
        let mir = planned(&seq_of("", "long"), "I", &mach, PassSet::all());
        let [run @ PlanNode::MemcpyArray { .. }] = request(&mir, "put")[..] else {
            panic!("put takes one run");
        };
        let mut c = Cursor::START.advance(12);
        assert_eq!(c.align(4), Align::Nothing);
        assert_eq!(Cursor::START.after(run, &mach), at(4, 0));
    }
}
