//! §3.1 storage classification and fixed-region packing.
//!
//! Flick analyzes the storage requirements of every message by
//! traversing its MINT/PRES representation, classifying each region as
//! *fixed*, *variable but bounded*, or *variable and unbounded*
//! ([`SizeClass`]).  For fixed regions it computes a *packed layout* —
//! exact offsets for every atomic component ([`Packed`]) — which is
//! what both the single hoisted space check and the §3.2 chunk pointer
//! are built from.

use std::sync::Arc;

use flick_pres::{Name, PresC, PresId, PresNode};

use crate::encoding::{Encoding, WirePrim};

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
}

/// Attempts to pack the subtree at `pres` into a fixed layout starting
/// at a `base`-aligned offset.  Returns `None` when the region is
/// variable-size (or when the encoding interleaves type descriptors,
/// which defeat cross-field chunking).
#[must_use]
pub fn pack(presc: &PresC, enc: &Encoding, pres: PresId) -> Option<Packed> {
    if enc.typed_descriptors {
        // Mach-style encodings put a descriptor before every item;
        // only a single primitive run can be chunked, handled by the
        // planner directly.
        return None;
    }
    let mut p = Packed::default();
    pack_into(presc, enc, pres, ValPath::Root, &mut p)?;
    Some(p)
}

fn pack_into(
    presc: &PresC,
    enc: &Encoding,
    pres: PresId,
    path: ValPath,
    out: &mut Packed,
) -> Option<()> {
    match presc.pres.get(pres) {
        PresNode::Void => Some(()),
        PresNode::Direct { mint, .. } => {
            let prim = enc.prim(&presc.mint, *mint);
            push_prim(out, prim, path);
            Some(())
        }
        PresNode::EnumMap { .. } => {
            let prim = enc.prim_for_size(4, false);
            push_prim(out, prim, path);
            Some(())
        }
        PresNode::FixedArray { elem, len, .. } => {
            // A fixed array of directly-mapped scalars becomes one run;
            // anything else unrolls element by element.
            if let PresNode::Direct { mint, .. } = presc.pres.get(*elem) {
                let prim = enc.elem_prim(&presc.mint, *mint);
                push_run(out, prim, *len, path, enc);
                Some(())
            } else {
                let array = Arc::new(path);
                for i in 0..*len {
                    pack_into(presc, enc, *elem, ValPath::Index(array.clone(), i), out)?;
                }
                Some(())
            }
        }
        PresNode::StructMap { fields, .. } => {
            let parent = Arc::new(path);
            for (name, f) in fields {
                let member = ValPath::Field(parent.clone(), name.clone());
                pack_into(presc, enc, *f, member, out)?;
            }
            Some(())
        }
        // Everything else is variable-size.
        PresNode::OptPtr { .. }
        | PresNode::TerminatedString { .. }
        | PresNode::CountedSeq { .. }
        | PresNode::UnionMap { .. }
        | PresNode::OptionalPtr { .. } => None,
    }
}

/// The presented `#[repr(C)]` layout of an aggregate whose wire form
/// has no padding, as [`wire_image`] accumulates it.
struct CImage {
    /// Bytes so far; also the next member's C offset, since no member
    /// placed so far needed padding.
    size: u64,
    /// Largest member alignment (a scalar's is its size).
    align: u64,
    /// Bit `w` is set when some scalar is `w` bytes wide.
    widths: u16,
}

/// Decides whether the presented `#[repr(C)]` struct at `pres` *is*
/// its wire image: its chunk packs, every member is an integer or a
/// float that travels at its own size (`slot == size` — no widened
/// `short`), every member's wire offset is its C offset, and neither
/// layout has a padding byte, nested structs included.  `boolean`,
/// `char` and enum members are excluded even where their width fits: a
/// run validates nothing, so it moves only types for which every bit
/// pattern is a value under any presentation.  An array of such
/// structs is then byte for byte the wire's array, and marshals as one
/// run instead of a field-by-field rebuild.
///
/// Returns the width of the scalars a foreign byte order must reverse
/// — which must then be uniform across the struct — or 1 when the
/// bytes move unchanged (native order, or nothing wider than a byte).
#[must_use]
pub fn wire_image(presc: &PresC, enc: &Encoding, pres: PresId) -> Option<u8> {
    if !matches!(presc.pres.get(pres), PresNode::StructMap { .. }) {
        return None;
    }
    // Presented side: C lays the scalars out back to back, in order.
    let c = c_image(presc, enc, pres)?;
    // Wire side: a chunk is its scalars' slots (each at least the
    // scalar's size) plus alignment gaps and run padding, in the same
    // order.  It is as small as the scalars alone exactly when no slot
    // is widened and there is no gap or pad — and then both layouts
    // are the same prefix sums.
    if pack(presc, enc, pres)?.size != c.size {
        return None;
    }
    if enc.order.is_native() || c.widths == 1 << 1 {
        Some(1)
    } else {
        // One swap width for the whole struct, or no run.
        c.widths
            .is_power_of_two()
            .then_some(c.widths.trailing_zeros() as u8)
    }
}

/// The C layout of the subtree at `pres`, if it needs no padding and
/// holds nothing but integers and floats.
fn c_image(presc: &PresC, enc: &Encoding, pres: PresId) -> Option<CImage> {
    let scalar = |mint: flick_mint::MintId, prim: WirePrim| {
        use flick_mint::{MintNode, ScalarKind};
        matches!(
            presc.mint.get(mint),
            MintNode::Integer { .. } | MintNode::Scalar(ScalarKind::Float32 | ScalarKind::Float64)
        )
        .then_some(CImage {
            size: u64::from(prim.size),
            align: u64::from(prim.size),
            widths: 1 << prim.size,
        })
    };
    match presc.pres.get(pres) {
        PresNode::Direct { mint, .. } => scalar(*mint, enc.prim(&presc.mint, *mint)),
        PresNode::FixedArray { elem, len, .. } => {
            let e = match presc.pres.get(*elem) {
                PresNode::Direct { mint, .. } => scalar(*mint, enc.elem_prim(&presc.mint, *mint))?,
                _ => c_image(presc, enc, *elem)?,
            };
            Some(CImage {
                size: e.size * len,
                ..e
            })
        }
        PresNode::StructMap { fields, .. } => {
            let mut c = CImage {
                size: 0,
                align: 1,
                widths: 0,
            };
            for (_, f) in fields {
                let m = c_image(presc, enc, *f)?;
                if !c.size.is_multiple_of(m.align) {
                    return None; // C pads before this member
                }
                c.size += m.size;
                c.align = c.align.max(m.align);
                c.widths |= m.widths;
            }
            // Tail padding (or an empty struct) is not an image either.
            (c.size > 0 && c.size.is_multiple_of(c.align)).then_some(c)
        }
        _ => None,
    }
}

/// Offset bookkeeping shared by [`pack`] and the emitters' decode
/// walks, so both sides compute identical layouts by construction.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayoutCursor {
    /// Bytes consumed so far (next free offset before alignment).
    pub size: u64,
    /// Largest alignment seen.
    pub align: u64,
}

impl LayoutCursor {
    /// Places one scalar slot; returns its offset.
    pub fn place_prim(&mut self, prim: WirePrim) -> u64 {
        let align = u64::from(prim.align);
        let offset = align_up(self.size, align);
        self.size = offset + u64::from(prim.slot);
        self.align = self.align.max(align.max(1));
        offset
    }

    /// Places a contiguous run of `count` scalars (requires
    /// `slot == size`); returns `(offset, trailing_pad)`.
    pub fn place_run(&mut self, prim: WirePrim, count: u64, enc: &Encoding) -> (u64, u64) {
        debug_assert_eq!(prim.slot, prim.size, "runs must tile exactly");
        let align = u64::from(prim.align);
        let offset = align_up(self.size, align);
        let data = count * u64::from(prim.size);
        let pad = match enc.pad_unit {
            Some(u) => align_up(data, u64::from(u)) - data,
            None => 0,
        };
        self.size = offset + data + pad;
        self.align = self.align.max(align.max(1));
        (offset, pad)
    }
}

fn push_prim(out: &mut Packed, prim: WirePrim, path: ValPath) {
    let mut cur = LayoutCursor {
        size: out.size,
        align: out.align,
    };
    let offset = cur.place_prim(prim);
    out.items.push(PackedItem::Prim { offset, prim, path });
    out.size = cur.size;
    out.align = cur.align;
}

fn push_run(out: &mut Packed, prim: WirePrim, count: u64, path: ValPath, enc: &Encoding) {
    // A run only works when elements tile without per-element padding
    // (slot == size); otherwise unroll into slots.
    if prim.slot == prim.size {
        let mut cur = LayoutCursor {
            size: out.size,
            align: out.align,
        };
        let (offset, pad) = cur.place_run(prim, count, enc);
        out.items.push(PackedItem::PrimRun {
            offset,
            prim,
            count,
            path,
            pad,
        });
        out.size = cur.size;
        out.align = cur.align;
    } else {
        let array = Arc::new(path);
        for i in 0..count {
            push_prim(out, prim, ValPath::Index(array.clone(), i));
        }
    }
}

/// Rounds `n` up to a multiple of `align`.
#[must_use]
pub fn align_up(n: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (n + align - 1) & !(align - 1)
}

/// Classifies the encoded size of the subtree at `pres` (§3.1).
///
/// Cycles (recursive types) classify as [`SizeClass::Unbounded`].
#[must_use]
pub fn size_class(presc: &PresC, enc: &Encoding, pres: PresId) -> SizeClass {
    size_class_inner(presc, enc, pres, &mut Vec::new())
}

fn size_class_inner(
    presc: &PresC,
    enc: &Encoding,
    pres: PresId,
    on_path: &mut Vec<PresId>,
) -> SizeClass {
    if on_path.contains(&pres) {
        return SizeClass::Unbounded;
    }
    on_path.push(pres);
    let r = match presc.pres.get(pres) {
        PresNode::Void => SizeClass::Fixed(0),
        PresNode::Direct { mint, .. } => {
            let p = enc.prim(&presc.mint, *mint);
            SizeClass::Fixed(u64::from(p.slot) + enc.descriptor_bytes(1))
        }
        PresNode::EnumMap { .. } => SizeClass::Fixed(4 + enc.descriptor_bytes(1)),
        PresNode::FixedArray { elem, len, .. }
            if matches!(presc.pres.get(*elem), PresNode::Direct { .. }) =>
        {
            let PresNode::Direct { mint, .. } = presc.pres.get(*elem) else {
                unreachable!()
            };
            let p = enc.elem_prim(&presc.mint, *mint);
            let data = u64::from(p.slot) * len;
            let pad = match enc.pad_unit {
                Some(u) => align_up(data, u64::from(u)) - data,
                None => 0,
            };
            SizeClass::Fixed(data + pad + enc.descriptor_bytes(*len))
        }
        PresNode::FixedArray { elem, len, .. } => {
            match size_class_inner(presc, enc, *elem, on_path) {
                SizeClass::Fixed(n) => {
                    // Descriptor counted once per array, not per element.
                    let elem_data = n - enc.descriptor_bytes(1);
                    let data = elem_data * len;
                    let pad = match enc.pad_unit {
                        Some(u) => align_up(data, u64::from(u)) - data,
                        None => 0,
                    };
                    SizeClass::Fixed(data + pad + enc.descriptor_bytes(*len))
                }
                SizeClass::Bounded(n) => SizeClass::Bounded(n * len),
                SizeClass::Unbounded => SizeClass::Unbounded,
            }
        }
        PresNode::TerminatedString { mint, .. } => {
            let bound = match presc.mint.get(*mint) {
                flick_mint::MintNode::Array { len, .. } => len.max,
                _ => None,
            };
            match bound {
                Some(b) => {
                    // Count prefix + bytes (+ NUL) + padding, worst case.
                    let body = b + u64::from(matches!(
                        enc.string_wire,
                        crate::encoding::StringWire::CountedNul
                    ));
                    let padded = match enc.pad_unit {
                        Some(u) => align_up(body, u64::from(u)),
                        None => body,
                    };
                    SizeClass::Bounded(4 + padded + enc.descriptor_bytes(b))
                }
                None => SizeClass::Unbounded,
            }
        }
        PresNode::OptPtr { mint, elem, .. } | PresNode::CountedSeq { mint, elem, .. } => {
            let bound = match presc.mint.get(*mint) {
                flick_mint::MintNode::Array { len, .. } => len.max,
                _ => None,
            };
            let elem_class = if let PresNode::Direct { mint: em, .. } = presc.pres.get(*elem) {
                SizeClass::Fixed(u64::from(enc.elem_prim(&presc.mint, *em).slot))
            } else {
                size_class_inner(presc, enc, *elem, on_path)
            };
            match (bound, elem_class) {
                (Some(b), SizeClass::Fixed(n) | SizeClass::Bounded(n)) => {
                    SizeClass::Bounded(4 + n * b + enc.descriptor_bytes(b))
                }
                _ => SizeClass::Unbounded,
            }
        }
        PresNode::StructMap { fields, .. } => {
            let mut acc = SizeClass::Fixed(0);
            for (_, f) in fields {
                acc = acc.then(size_class_inner(presc, enc, *f, on_path));
            }
            // Struct-internal alignment padding: bound by a pack() when
            // the struct is fully fixed.
            if let SizeClass::Fixed(_) = acc {
                if let Some(p) = pack(presc, enc, pres) {
                    acc = SizeClass::Fixed(p.size);
                }
            }
            acc
        }
        PresNode::UnionMap {
            discrim,
            cases,
            default,
            ..
        } => {
            let mut worst: u64 = 0;
            let mut any_unbounded = false;
            for (_, _, c) in cases {
                match size_class_inner(presc, enc, *c, on_path) {
                    SizeClass::Fixed(n) | SizeClass::Bounded(n) => worst = worst.max(n),
                    SizeClass::Unbounded => any_unbounded = true,
                }
            }
            if let Some((_, d)) = default {
                match size_class_inner(presc, enc, *d, on_path) {
                    SizeClass::Fixed(n) | SizeClass::Bounded(n) => worst = worst.max(n),
                    SizeClass::Unbounded => any_unbounded = true,
                }
            }
            let d = size_class_inner(presc, enc, *discrim, on_path);
            if any_unbounded {
                SizeClass::Unbounded
            } else {
                match d {
                    SizeClass::Fixed(n) | SizeClass::Bounded(n) => SizeClass::Bounded(n + worst),
                    SizeClass::Unbounded => SizeClass::Unbounded,
                }
            }
        }
        PresNode::OptionalPtr { elem, .. } => match size_class_inner(presc, enc, *elem, on_path) {
            SizeClass::Fixed(n) | SizeClass::Bounded(n) => SizeClass::Bounded(4 + n),
            SizeClass::Unbounded => SizeClass::Unbounded,
        },
    };
    on_path.pop();
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_idl::diag::Diagnostics;
    use flick_pres::Side;

    fn presc_for(idl: &str, iface: &str) -> PresC {
        let aoi = flick_frontend_corba::parse_str("t.idl", idl);
        let mut d = Diagnostics::new();
        flick_presgen::corba_c(&aoi, iface, Side::Client, &mut d).expect("presentation")
    }

    /// The rectangle structure from §4: two points of two longs.
    const RECT_IDL: &str = r"
        struct Point { long x; long y; };
        struct Rect { Point min; Point max; };
        interface I { void put(in Rect r); };
    ";

    #[test]
    fn rect_packs_to_16_bytes() {
        let p = presc_for(RECT_IDL, "I");
        let stub = &p.stubs[0];
        let enc = Encoding::xdr();
        let packed = pack(&p, &enc, stub.request.slots[0].pres).expect("rect is fixed");
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
        let p = presc_for(
            r"
            struct Stat { long fields[30]; char tag[16]; };
            interface I { void put(in Stat s); };
            ",
            "I",
        );
        let enc = Encoding::cdr_be();
        let packed = pack(&p, &enc, p.stubs[0].request.slots[0].pres).expect("fixed");
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
        let p = presc_for(
            "struct T { char tag[5]; }; interface I { void put(in T t); };",
            "I",
        );
        let enc = Encoding::xdr();
        let packed = pack(&p, &enc, p.stubs[0].request.slots[0].pres).expect("fixed");
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
        let p = presc_for(
            "struct Stat { long fields[30]; char tag[16]; }; interface I { void put(in Stat s); };",
            "I",
        );
        let packed = pack(&p, &Encoding::xdr(), p.stubs[0].request.slots[0].pres).unwrap();
        assert_eq!(packed.size, 136);
        assert_eq!(packed.items.len(), 2);
    }

    #[test]
    fn string_defeats_packing() {
        let p = presc_for(
            "struct D { string name; long n; }; interface I { void put(in D d); };",
            "I",
        );
        assert!(pack(&p, &Encoding::xdr(), p.stubs[0].request.slots[0].pres).is_none());
    }

    #[test]
    fn cdr_alignment_padding_counted() {
        // char + double: CDR aligns the double to 8 → size 16.
        let p = presc_for(
            "struct M { char c; double d; }; interface I { void put(in M m); };",
            "I",
        );
        let packed = pack(&p, &Encoding::cdr_be(), p.stubs[0].request.slots[0].pres).unwrap();
        assert_eq!(packed.size, 16);
        assert_eq!(packed.items[1].offset(), 8);
        assert_eq!(packed.align, 8);
        // XDR widens the char instead: 4 + pad4 + 8 = 12? No: XDR
        // aligns the 8-byte slot to 4 only.
        let packed_xdr = pack(&p, &Encoding::xdr(), p.stubs[0].request.slots[0].pres).unwrap();
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
            let stub = p
                .stubs
                .iter()
                .find(|s| s.op.name == op)
                .unwrap_or_else(|| panic!("stub {op}"));
            size_class(&p, &enc, stub.request.slots[0].pres)
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
        assert_eq!(
            size_class(&p, &enc, p.stubs[0].request.slots[0].pres),
            SizeClass::Unbounded
        );
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
    /// (any parameter kind: it looks at `T` alone).
    fn image_of(idl: &str, enc: &Encoding) -> Option<u8> {
        let p = presc_for(idl, "I");
        let slot = p.stubs[0].request.slots[0].pres;
        match p.pres.get(slot) {
            PresNode::CountedSeq { elem, .. } | PresNode::OptPtr { elem, .. } => {
                wire_image(&p, enc, *elem)
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
        let p = presc_for(RECT_IDL, "I");
        assert!(pack(&p, &Encoding::mach3(), p.stubs[0].request.slots[0].pres).is_none());
    }
}
