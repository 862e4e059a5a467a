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

impl<'a> Walk<'a> {
    /// The body an outline call expands to: `None` for a key with no
    /// body, or for a call back into a body being expanded.
    fn body(&self, key: &str, mut up: Option<&Expanding<'_>>) -> Option<&'a PlanNode> {
        while let Some(e) = up {
            if e.key == key {
                return None;
            }
            up = e.up;
        }
        self.outlines.get(key)
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

/// Attempts to pack `node` into a fixed layout starting at an aligned
/// offset, expanding outline calls through `outlines`.  Returns `None`
/// when the region is variable-size (or when the encoding interleaves
/// type descriptors, which defeat cross-field chunking).
#[must_use]
pub fn pack(
    node: &PlanNode,
    outlines: &BTreeMap<Name, PlanNode>,
    enc: &Encoding,
) -> Option<Packed> {
    Walk { outlines, enc }.packed(node, Some(ValPath::Root), None)
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

#[cfg(test)]
mod tests {
    use super::*;
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
        // char + double: CDR aligns the double to 8 → size 16.
        let idl = "struct M { char c; double d; }; interface I { void put(in M m); };";
        let packed = pack_of(idl, &Encoding::cdr_be()).unwrap();
        assert_eq!(packed.size, 16);
        assert_eq!(packed.items[1].offset(), 8);
        assert_eq!(packed.align, 8);
        // XDR widens the char instead: 4 + pad4 + 8 = 12? No: XDR
        // aligns the 8-byte slot to 4 only.
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
        let mixed = "struct T { octet a[4]; long n; };";
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
}
