//! §3.1 storage classification and fixed-region packing.
//!
//! Flick analyzes the storage requirements of every message,
//! classifying each region as *fixed*, *variable but bounded*, or
//! *variable and unbounded* ([`SizeClass`]).  For fixed regions it
//! computes a *packed layout* — exact offsets for every atomic
//! component ([`Packed`]) — which is what both the single hoisted space
//! check and the §3.2 chunk pointer are built from.
//!
//! Every walk reads the lowered MIR, where lowering recorded every
//! scalar's wire form: it asks the [`Encoding`] only how data is framed
//! (padding, type descriptors, count prefixes).  Naive MIR reaches
//! every named aggregate through an outline call; a walk expands those
//! calls, and a call back into a body being expanded is a recursive
//! type — unbounded, and never packed.
//!
//! What the encoder writes for a node, from where the stream stands, is
//! one walk of its steps (`Steps`), read three ways by what it adds
//! up (`Tally`): the message's size class (`classify-storage`, every
//! part at its bound), the Rust encoder's by-value reservation (a term
//! for each part whose length is a value's), and the [`Cursor`], the
//! static-offset analysis the emitter asks before every alignment.
//! Packing ([`pack`]) and the unpadded element class ([`size_class`])
//! are walks of their own.

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
pub(crate) struct Expanding<'a> {
    pub(crate) key: &'a str,
    pub(crate) up: Option<&'a Expanding<'a>>,
}

/// The body an outline call to `key` expands to below `up`: `None` for
/// a key with no body, or for a call back into a body being expanded.
pub(crate) fn expand<'a>(
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

impl Walk<'_> {
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
                let body = expand(self.outlines, key, up)?;
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
                let body = expand(self.outlines, key, up)?;
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
            PlanNode::Outline { key } => match expand(self.outlines, key, up) {
                Some(body) => self.class(body, Some(&Expanding { key, up })),
                None => Unbounded,
            },
        }
    }
}

/// Where a value the walk reaches lives, from the slot it began at.
#[derive(Clone, Copy)]
pub(crate) enum Place<'p> {
    /// The slot's own value.
    Slot,
    /// A member of the aggregate at the inner place.
    Member(&'p Place<'p>, &'p Name),
    /// The element the innermost sum over an array's elements binds.
    Elem,
}

/// A part of a message whose length is a value's (padded to the unit,
/// if any), or that a value picks.
#[derive(Clone, Copy)]
pub(crate) enum Part {
    /// A Mach 3 type descriptor of the value's count: 4 or 12 bytes.
    Desc,
    /// A string's bytes.
    Str(Option<u8>),
    /// These bytes per element: a run's scalars, a strided run's chunks.
    Each(u64, Option<u8>),
    /// A union's or an optional's arm, or a recursive body's: no length
    /// sizes it.
    Unsized,
}

/// How many elements an array holds: exactly this many, or the value's
/// count (at most the bound, and padded to the unit, if any).
#[derive(Clone, Copy)]
pub(crate) enum Count {
    Fixed(u64),
    Value(Option<u64>, Option<u8>),
}

/// What one reading of the encoder's steps ([`Steps`]) adds up.
pub(crate) trait Tally {
    /// `n` bytes whatever the values; at most `n` where not `exact` (a
    /// pad where the offset is not known).
    fn bytes(&mut self, n: u64, exact: bool);
    /// A part of the value at `at`, of at most `most` bytes.
    fn part(&mut self, at: &Place, part: Part, most: Option<u64>);
    /// The elements of the array at `at`, each what `one` tallies.
    fn elements(&mut self, at: &Place, count: Count, one: impl FnOnce(&mut Self));
}

/// The class reading: every part at its bound.
impl Tally for SizeClass {
    fn bytes(&mut self, n: u64, exact: bool) {
        let most = SizeClass::Bounded(n);
        *self = self.then(if exact { SizeClass::Fixed(n) } else { most });
    }

    fn part(&mut self, _: &Place, _: Part, most: Option<u64>) {
        *self = self.then(most.map_or(SizeClass::Unbounded, SizeClass::Bounded));
    }

    fn elements(&mut self, _: &Place, count: Count, one: impl FnOnce(&mut Self)) {
        let mut each = SizeClass::Fixed(0);
        one(&mut each);
        *self = self.then(match (count, each.bound()) {
            (Count::Fixed(n), _) => each.times(n),
            (Count::Value(Some(b), unit), Some(n)) => SizeClass::Bounded(round_to(n * b, unit)),
            (Count::Value(..), _) => SizeClass::Unbounded,
        });
    }
}

/// The cursor reading: only where the steps leave the cursor counts.
impl Tally for () {
    fn bytes(&mut self, _: u64, _: bool) {}
    fn part(&mut self, _: &Place, _: Part, _: Option<u64>) {}
    fn elements(&mut self, _: &Place, _: Count, _: impl FnOnce(&mut Self)) {}
}

/// `n` rounded up to a multiple of `unit`, if any.
fn round_to(n: u64, unit: Option<u8>) -> u64 {
    unit.map_or(n, |u| align_up(n, u64::from(u)))
}

/// The outline bodies a walk is inside of.
type Up<'a> = Option<&'a Expanding<'a>>;

/// The encoder's steps over a plan node, from a [`Cursor`]: the type
/// descriptor, the pad to the data's alignment (exact where the cursor
/// knows the offset, at its widest where not), the count prefix, the
/// data and the trailing pad — what the Rust stub emitter writes.
#[derive(Clone, Copy)]
pub(crate) struct Steps<'a> {
    enc: &'a Encoding,
    /// The bodies outline calls expand to; none for the cursor.
    outlines: Option<&'a BTreeMap<Name, PlanNode>>,
    reading: Reading,
}

/// The readings of the one walk, which part only where one policy
/// would move an answer.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Reading {
    /// Where the emitter's cursor stands ([`Cursor::after`]): a call is
    /// a call, past which it knows nothing, and the cursor past a fixed
    /// array is exact.
    Cursor,
    /// The class `classify-storage` records before `inline-marshal`
    /// runs: a call expands (its body aligns against the caller's
    /// `_base`, as in line), a strided array still calling its element
    /// is the run that pass makes, and a fixed array's elements past
    /// sixteen are sized from the loop head (walked exactly, some
    /// bounded messages would class as fixed: a moved answer).
    Class,
    /// The by-value reservation: a call expands, and every element of a
    /// fixed array is sized from the loop head, as the encoder writes
    /// one expression for all.
    Reservation,
}

impl<'a> Steps<'a> {
    /// The by-value reservation's reading.
    pub(crate) fn reservation(outlines: &'a BTreeMap<Name, PlanNode>, enc: &'a Encoding) -> Self {
        Steps {
            enc,
            outlines: Some(outlines),
            reading: Reading::Reservation,
        }
    }

    /// Tallies into `r` what the encoder writes for `node`, the value at
    /// `v`, from `at`, and moves `at` past it.
    pub(crate) fn walk<R: Tally>(self, node: &PlanNode, v: &Place, at: &mut Cursor, r: &mut R) {
        self.node(node, v, None, at, r);
    }

    fn node<R: Tally>(self, node: &PlanNode, v: &Place, up: Up, at: &mut Cursor, r: &mut R) {
        let enc = self.enc;
        match node {
            PlanNode::Void => {}
            PlanNode::Prim { prim } => {
                self.desc(1, at, r);
                self.item(prim.align, u64::from(prim.slot), at, r);
            }
            PlanNode::Enum { prim } => self.item(prim.align, u64::from(prim.slot), at, r),
            PlanNode::Packed { layout, .. } => {
                self.item(layout.align.min(8) as u8, layout.size, at, r);
            }
            PlanNode::MemcpyArray {
                prim,
                fixed_len: Some(n),
                ..
            } => {
                self.desc(*n, at, r);
                self.pad(at, prim.align, r);
                let data = n * u64::from(prim.size);
                r.bytes(data + enc.pad_after(data), true);
                *at = at.advance(data).after_pad(enc, u64::from(prim.slot));
            }
            PlanNode::MemcpyArray { prim, bound, .. } => {
                self.counted(v, *bound, true, at, r);
                self.pad(at, prim.align, r);
                let (size, unit) = (u64::from(prim.size), enc.unit_after(u64::from(prim.slot)));
                let most = bound.map(|b| round_to(b * size, unit));
                r.part(v, Part::Each(size, unit), most);
                *at = at
                    .advance_by_multiple(size)
                    .after_pad(enc, u64::from(prim.slot));
            }
            PlanNode::String { bound, style, .. } => {
                self.counted(v, *bound, true, at, r);
                let nul = *style == StringWire::CountedNul;
                let unit = enc.pad_unit.filter(|_| !nul);
                r.part(v, Part::Str(unit), bound.map(|b| round_to(b, unit)));
                r.bytes(u64::from(nul), true);
                *at = at.after_string(enc);
            }
            PlanNode::CountedArray {
                bound,
                elem,
                strided,
                ..
            } => {
                self.counted(v, *bound, described(enc, elem).is_some(), at, r);
                if let Some(layout) = self.stride(*strided, elem, up) {
                    // One alignment, taken only when the array is not
                    // empty, then whole chunks.
                    if let Some(a) = run_align(enc, layout.align) {
                        self.pad(&mut { *at }, a, r);
                    }
                    let most = bound.map(|b| b * layout.size);
                    r.part(v, Part::Each(layout.size, None), most);
                    *at = at.strided_run(enc, layout);
                    return;
                }
                let head = at.loop_head(elem, enc);
                let unit = elem
                    .scalar()
                    .and_then(|p| enc.unit_after(u64::from(p.slot)));
                r.elements(v, Count::Value(*bound, unit), |r| {
                    self.elem(elem, up, &mut { head }, r);
                });
                *at = elem
                    .scalar()
                    .map_or(head, |p| head.after_pad(enc, u64::from(p.slot)));
            }
            PlanNode::FixedArray { len, elem, .. } => {
                let uniform = self.reading == Reading::Reservation;
                let exit = uniform.then(|| at.after(node, enc));
                if described(enc, elem).is_some() {
                    self.desc(*len, at, r);
                }
                if uniform {
                    let head = at.loop_head(elem, enc);
                    r.elements(v, Count::Fixed(*len), |r| {
                        self.elem(elem, up, &mut { head }, r);
                    });
                } else {
                    self.each(elem, *len, v, up, at, r);
                }
                if let Some(prim) = elem.scalar() {
                    let data = len * u64::from(prim.slot);
                    r.bytes(enc.pad_after(data), true);
                    *at = at.after_pad(enc, data);
                }
                *at = exit.unwrap_or(*at);
            }
            PlanNode::Struct { fields, .. } => {
                for (name, f) in fields {
                    self.node(f, &Place::Member(v, name), up, at, r);
                }
            }
            PlanNode::Union {
                disc_prim,
                cases,
                default,
                ..
            } => {
                self.pad(at, disc_prim.align, r);
                *at = at.advance(u64::from(disc_prim.slot));
                let arms = cases.iter().map(|(_, _, c)| c);
                let most = self.arms(arms.chain(default.as_ref().map(|(_, d)| &**d)), up, at);
                let most = most.map(|n| u64::from(disc_prim.slot) + n);
                r.part(v, Part::Unsized, most);
            }
            PlanNode::Optional { flag, elem, .. } => {
                *at = at.advance(u64::from(flag.slot));
                let most = self.arms([&**elem, &PlanNode::Void].into_iter(), up, at);
                r.part(v, Part::Unsized, most.map(|n| u64::from(flag.slot) + n));
            }
            PlanNode::Outline { key } => match self.outlines.map(|o| expand(o, key, up)) {
                Some(Some(body)) => self.node(body, v, Some(&Expanding { key, up }), at, r),
                Some(None) => {
                    *at = Cursor::UNKNOWN;
                    r.part(v, Part::Unsized, None);
                }
                None => *at = Cursor::UNKNOWN,
            },
        }
    }

    /// One element of an array: a scalar the array's descriptor
    /// describes ([`described`]) carries none of its own.
    fn elem<R: Tally>(self, elem: &PlanNode, up: Up, at: &mut Cursor, r: &mut R) {
        match described(self.enc, elem) {
            Some(prim) => self.item(prim.align, u64::from(prim.slot), at, r),
            None => self.node(elem, &Place::Elem, up, at, r),
        }
    }

    /// The `len` elements of a fixed array, each from where the one
    /// before left the cursor, until the cursor is back where element
    /// `j` found it: from there a cycle repeats, walked once and tallied
    /// as often as it does.  The cursor takes fifteen states, so the cost
    /// is linear.  The class waits for a fixpoint only, and past sixteen
    /// elements sizes the rest from the loop head.
    fn each<R: Tally>(
        self,
        elem: &PlanNode,
        len: u64,
        v: &Place,
        up: Up,
        at: &mut Cursor,
        r: &mut R,
    ) {
        let mut seen = [Cursor::UNKNOWN; 16];
        for i in 0..len {
            let entry = *at;
            seen[(i as usize).min(15)] = entry;
            self.elem(elem, up, at, r);
            let j = match self.reading {
                Reading::Class if *at != entry && i == 15 => {
                    *at = at.loop_head(elem, self.enc);
                    Some(i)
                }
                Reading::Class => (*at == entry).then_some(i),
                _ => (0..=i.min(15)).find(|&j| seen[j as usize] == *at),
            };
            let Some(j) = j else { continue };
            let (cycle, rest, from) = (i + 1 - j, len - i - 1, *at);
            r.elements(v, Count::Fixed(rest / cycle), |r| {
                let mut c = from;
                (0..cycle).for_each(|_| self.elem(elem, up, &mut c, r));
            });
            (0..rest % cycle).for_each(|_| self.elem(elem, up, at, r));
            return;
        }
    }

    /// The arms of a union or an optional, each classed from `at`: the
    /// widest arm's bytes (`None` where one is unbounded), and `at`
    /// moved to what the ends of all of them agree on.
    fn arms<'n>(
        self,
        arms: impl Iterator<Item = &'n PlanNode>,
        up: Up,
        at: &mut Cursor,
    ) -> Option<u64> {
        let (entry, mut end, mut widest) = (*at, None, Some(0));
        for arm in arms {
            let (mut c, mut size) = (entry, SizeClass::Fixed(0));
            self.node(arm, &Place::Slot, up, &mut c, &mut size);
            widest = widest.zip(size.bound()).map(|(w, n)| w.max(n));
            end = Some(end.map_or(c, |e: Cursor| e.join(c)));
        }
        *at = end.unwrap_or(entry);
        widest
    }

    /// The chunk of a counted array written as one strided run.
    fn stride<'n>(self, strided: bool, elem: &'n PlanNode, up: Up) -> Option<&'n Packed>
    where
        'a: 'n,
    {
        match elem {
            PlanNode::Packed { layout, .. } if strided => Some(layout),
            PlanNode::Outline { key } if self.reading == Reading::Class => {
                let body = expand(self.outlines?, key, up)?;
                self.stride(strided, body, Some(&Expanding { key, up }))
            }
            _ => None,
        }
    }

    /// `n` bytes aligned to `align`: a scalar, a chunk, a count.
    fn item<R: Tally>(self, align: u8, n: u64, at: &mut Cursor, r: &mut R) {
        self.pad(at, align, r);
        r.bytes(n, true);
        *at = at.advance(n);
    }

    /// The type descriptor of an item of `count` elements.
    fn desc<R: Tally>(self, count: u64, at: &mut Cursor, r: &mut R) {
        let n = self.enc.descriptor_bytes(count);
        r.bytes(n, true);
        *at = at.advance(n);
    }

    /// What leads a counted item: the type descriptor of the count of
    /// the value at `v`, at most `b`, where `desc` (4 or 12 bytes, which
    /// move the cursor alike), then the aligned count.
    fn counted<R: Tally>(self, v: &Place, b: Option<u64>, desc: bool, at: &mut Cursor, r: &mut R) {
        if desc && self.enc.typed_descriptors {
            let most = b.map(|b| self.enc.descriptor_bytes(b));
            r.part(v, Part::Desc, most);
            *at = at.advance(4);
        }
        let len = self.enc.len_prefix();
        self.item(len.align, u64::from(len.slot), at, r);
    }

    /// The pad a stub writes to align `at` to `to`: none under a
    /// word-widening encoding, exact where the offset is known, and
    /// otherwise the widest: the offset is `value` plus a multiple of
    /// `modulus`, and the nearest one past an aligned offset needs most.
    fn pad<R: Tally>(self, at: &mut Cursor, to: u8, r: &mut R) {
        let known = *at;
        let (n, exact) = match at.align(to) {
            _ if self.enc.widen_to_word => return,
            Align::Nothing => return,
            Align::Pad(n) => (n, true),
            Align::Dynamic if known.value == 0 => (to - known.modulus, false),
            Align::Dynamic => (to - known.value, false),
        };
        r.bytes(u64::from(n), exact);
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
#[must_use]
pub fn message_class<'n>(
    slots: impl IntoIterator<Item = &'n PlanNode>,
    outlines: &BTreeMap<Name, PlanNode>,
    enc: &Encoding,
) -> SizeClass {
    let steps = Steps {
        enc,
        outlines: Some(outlines),
        reading: Reading::Class,
    };
    let (mut at, mut size) = (Cursor::START, SizeClass::Fixed(0));
    for node in slots {
        steps.walk(node, &Place::Slot, &mut at, &mut size);
    }
    size
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
            let mut next = head;
            Cursor::steps(enc).elem(elem, None, &mut next, &mut ());
            let next = head.join(next);
            if next == head || next == Cursor::UNKNOWN {
                return next;
            }
            head = next;
        }
    }

    /// The cursor after one value of `node` is marshaled from here, in
    /// wire order: the steps the Rust stub emitter writes (`Steps`),
    /// where an outline call is a call, of no length known here.
    #[must_use]
    pub fn after(self, node: &PlanNode, enc: &Encoding) -> Cursor {
        let mut c = self;
        Cursor::steps(enc).walk(node, &Place::Slot, &mut c, &mut ());
        c
    }

    /// The steps walked for the cursor reading.
    fn steps(enc: &Encoding) -> Steps<'_> {
        Steps {
            enc,
            outlines: None,
            reading: Reading::Cursor,
        }
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
        let entry = Cursor::START.advance(4);
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
    fn past_a_fixed_array_the_cursor_is_exact_at_any_length() {
        // After an octet a long pads to 4; from there the longs leave the
        // cursor at 0 and 4 modulo 8 in turn, a cycle the walk jumps
        // rather than stepping through a million elements.
        let enc = Encoding::cdr_native();
        let passes = PassSet::all()
            .without("form-chunks")
            .and_then(|p| p.without("coalesce-memcpy"))
            .expect("removable");
        for (len, end) in [(1_000_000, at(8, 4)), (1_000_001, at(8, 0))] {
            let idl = format!(
                "struct T {{ octet a; long b[{len}]; }}; interface I {{ void put(in T t); }};"
            );
            let mir = planned(&idl, "I", &enc, passes);
            let [t] = request(&mir, "put")[..] else {
                panic!("put takes one T");
            };
            assert_eq!(Cursor::START.after(t, &enc), end, "{len} longs");
        }
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
