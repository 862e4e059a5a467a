//! Wire-format descriptions.
//!
//! An [`Encoding`] is the table a back end consults to learn how a
//! MINT atom travels: its encoded size, alignment, byte order, and how
//! counted data is framed.  The layout analysis and plan construction
//! are generic over this table — that is what lets one optimization
//! library serve the IIOP, ONC, Mach, and Fluke back ends.

use flick_mint::{MintGraph, MintId, MintNode, ScalarKind};

/// Byte order of encoded multi-byte primitives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Order {
    /// Big-endian.
    Big,
    /// Little-endian.
    Little,
}

impl Order {
    /// The host's native order.
    #[must_use]
    pub fn native() -> Self {
        if cfg!(target_endian = "little") {
            Order::Little
        } else {
            Order::Big
        }
    }

    /// True when this is the host's native order (a `memcpy`
    /// precondition for multi-byte scalars).
    #[must_use]
    pub fn is_native(self) -> bool {
        self == Self::native()
    }
}

/// How one primitive value is encoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WirePrim {
    /// Bytes of payload actually carrying the value.
    pub size: u8,
    /// Encoded slot size (XDR widens sub-word scalars to 4 bytes).
    pub slot: u8,
    /// Alignment of the slot relative to the stream start.
    pub align: u8,
    /// Byte order.
    pub order: Order,
    /// Signedness matters only for widening (sign- vs zero-extend).
    pub signed: bool,
    /// True for IEEE-754 values (changes the presented Rust/C type,
    /// not the byte layout).
    pub float: bool,
}

impl WirePrim {
    /// True when consecutive elements of this form tile the wire: no
    /// widening and no per-element padding, so every wire byte belongs
    /// to exactly one element.  This is what makes an array a *run*
    /// (`coalesce-memcpy`); whether the run is a plain block copy or a
    /// swap-copy is [`WirePrim::memcpy_compatible`]'s question.
    #[must_use]
    pub fn forms_run(&self) -> bool {
        self.slot == self.size
    }

    /// True when an in-memory array of `elem_size`-byte values can be
    /// block-copied to/from the wire *unchanged*: it forms a run of
    /// same-size elements and multi-byte values are in native order.
    /// A run that fails only the order test is a swizzle run — still
    /// one pass over the array, with each element's bytes reversed.
    #[must_use]
    pub fn memcpy_compatible(&self, elem_size: u8) -> bool {
        self.size == elem_size
            && self.slot == self.size
            && (self.size == 1 || self.order.is_native())
    }
}

/// How strings travel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StringWire {
    /// XDR: u32 byte count, bytes, zero padding to a 4-byte boundary.
    CountedPadded,
    /// CDR: u32 count *including* a NUL terminator, bytes, NUL.
    CountedNul,
}

/// A complete wire-format description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Encoding {
    /// Stable name (`"xdr"`, `"cdr-be"`, `"cdr-le"`, `"mach3"`,
    /// `"fluke"`).
    pub name: &'static str,
    /// Byte order of multi-byte primitives.
    pub order: Order,
    /// Whether sub-word scalars widen to 4-byte slots (XDR) or pack at
    /// natural size and alignment (CDR).
    pub widen_to_word: bool,
    /// String framing.
    pub string_wire: StringWire,
    /// Whether variable data is padded to 4-byte units (XDR).
    pub pad_unit: Option<u8>,
    /// Whether each data item is preceded by a Mach-style type
    /// descriptor word.
    pub typed_descriptors: bool,
}

impl Encoding {
    /// ONC RPC's XDR: big-endian 4-byte units.
    #[must_use]
    pub fn xdr() -> Self {
        Encoding {
            name: "xdr",
            order: Order::Big,
            widen_to_word: true,
            string_wire: StringWire::CountedPadded,
            pad_unit: Some(4),
            typed_descriptors: false,
        }
    }

    /// CDR in forced big-endian order.
    #[must_use]
    pub fn cdr_be() -> Self {
        Encoding {
            name: "cdr-be",
            order: Order::Big,
            widen_to_word: false,
            string_wire: StringWire::CountedNul,
            pad_unit: None,
            typed_descriptors: false,
        }
    }

    /// CDR in forced little-endian order.
    #[must_use]
    pub fn cdr_le() -> Self {
        Encoding {
            name: "cdr-le",
            order: Order::Little,
            widen_to_word: false,
            string_wire: StringWire::CountedNul,
            pad_unit: None,
            typed_descriptors: false,
        }
    }

    /// CDR in the sender's native order (GIOP lets the sender choose —
    /// the configuration that makes `memcpy` runs valid on any host).
    #[must_use]
    pub fn cdr_native() -> Self {
        match Order::native() {
            Order::Big => Self::cdr_be(),
            Order::Little => Self::cdr_le(),
        }
    }

    /// Mach 3 typed messages: native order, per-item descriptors.
    #[must_use]
    pub fn mach3() -> Self {
        Encoding {
            name: "mach3",
            order: Order::native(),
            widen_to_word: false,
            string_wire: StringWire::CountedPadded,
            pad_unit: Some(4),
            typed_descriptors: true,
        }
    }

    /// Fluke IPC: native-order words (the register window is modeled
    /// in the transport; the byte encoding is word-oriented).
    #[must_use]
    pub fn fluke() -> Self {
        Encoding {
            name: "fluke",
            order: Order::native(),
            widen_to_word: true,
            string_wire: StringWire::CountedPadded,
            pad_unit: Some(4),
            typed_descriptors: false,
        }
    }

    /// Looks an encoding up by its stable name (the `--transcode=SRC:DST`
    /// vocabulary; `"cdr-native"` resolves to the host's order).
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        Some(match name {
            "xdr" => Self::xdr(),
            "cdr-be" => Self::cdr_be(),
            "cdr-le" => Self::cdr_le(),
            "cdr-native" => Self::cdr_native(),
            "mach3" => Self::mach3(),
            "fluke" => Self::fluke(),
            _ => return None,
        })
    }

    /// The wire form of a MINT atom.
    ///
    /// # Panics
    /// Panics if `id` is not an atomic node.
    #[must_use]
    pub fn prim(&self, mint: &MintGraph, id: MintId) -> WirePrim {
        let (size, signed): (u8, bool) = match mint.get(id) {
            MintNode::Integer { min, range } => {
                let signed = *min < 0;
                let bytes = match range {
                    r if *r <= u64::from(u8::MAX) => 1,
                    r if *r <= u64::from(u16::MAX) => 2,
                    r if *r <= u64::from(u32::MAX) => 4,
                    _ => 8,
                };
                (bytes, signed)
            }
            MintNode::Scalar(ScalarKind::Bool) => (1, false),
            MintNode::Scalar(ScalarKind::Char8) => (1, false),
            MintNode::Scalar(ScalarKind::Float32) => (4, false),
            MintNode::Scalar(ScalarKind::Float64) => (8, false),
            other => panic!("prim() on non-atomic MINT node {other:?}"),
        };
        let mut p = self.prim_for_size(size, signed);
        p.float = matches!(
            mint.get(id),
            MintNode::Scalar(ScalarKind::Float32 | ScalarKind::Float64)
        );
        p
    }

    /// The wire form for a raw scalar of `size` bytes.
    #[must_use]
    pub fn prim_for_size(&self, size: u8, signed: bool) -> WirePrim {
        let slot = if self.widen_to_word && size < 4 {
            4
        } else {
            size
        };
        WirePrim {
            size,
            slot,
            align: if self.widen_to_word { 4 } else { slot },
            order: self.order,
            signed,
            float: false,
        }
    }

    /// The wire form of a MINT atom *as an array element*.
    ///
    /// Word-oriented encodings widen standalone sub-word scalars, but
    /// byte-wide array elements pack contiguously (XDR `opaque` and
    /// `string`; the paper's 136-byte dirent packs its 16-byte char
    /// array), with trailing padding handled at the array level.
    ///
    /// # Panics
    /// Panics if `id` is not an atomic node.
    #[must_use]
    pub fn elem_prim(&self, mint: &MintGraph, id: MintId) -> WirePrim {
        let mut p = self.prim(mint, id);
        if p.size == 1 {
            p.slot = 1;
            p.align = 1;
        }
        p
    }

    /// Stable digest of every field that shapes generated plans — one
    /// component of the per-stub cache key.  Covers all fields, so two
    /// encodings that plan identically but differ anywhere still get
    /// distinct keys (correct, merely conservative).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        use flick_stablehash::{digest, Frame, StableHash};
        let mut h = Vec::new();
        h.write_str(self.name);
        h.write_tag(match self.order {
            Order::Big => 0,
            Order::Little => 1,
        });
        h.write_bool(self.widen_to_word);
        h.write_tag(match self.string_wire {
            StringWire::CountedPadded => 0,
            StringWire::CountedNul => 1,
        });
        self.pad_unit.stable_hash(&mut h);
        h.write_bool(self.typed_descriptors);
        digest(&h)
    }

    /// The zero bytes that follow `n` bytes of packed data on this
    /// encoding's wire: XDR pads opaque data, strings and byte arrays
    /// to its 4-byte unit, CDR pads nothing.  The one pad rule every
    /// layout, emitter and transcode plan asks.
    #[must_use]
    pub fn pad_after(&self, n: u64) -> u64 {
        self.pad_unit.map_or(0, |u| {
            let u = u64::from(u);
            (u - n % u) % u
        })
    }

    /// The count prefix for variable arrays/strings.
    #[must_use]
    pub fn len_prefix(&self) -> WirePrim {
        self.prim_for_size(4, false)
    }

    /// Bytes a Mach-style descriptor adds before an item of `count`
    /// elements (0 for non-typed encodings).
    #[must_use]
    pub fn descriptor_bytes(&self, count: u64) -> u64 {
        if !self.typed_descriptors {
            0
        } else if count <= u64::from(flick_runtime_short_form_max()) {
            4
        } else {
            12
        }
    }
}

/// Mirror of `flick_runtime::mach::SHORT_FORM_MAX` without the
/// dependency (backend does not link the runtime).
const fn flick_runtime_short_form_max() -> u32 {
    0x0fff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xdr_widens_subword_scalars() {
        let x = Encoding::xdr();
        let mut g = MintGraph::new();
        let c = g.char8();
        let p = x.prim(&g, c);
        assert_eq!((p.size, p.slot, p.align), (1, 4, 4));
        let s = g.i16();
        let p = x.prim(&g, s);
        assert_eq!((p.size, p.slot), (2, 4));
        assert!(p.signed);
    }

    #[test]
    fn cdr_packs_naturally() {
        let c = Encoding::cdr_be();
        let mut g = MintGraph::new();
        let ch = g.char8();
        let p = c.prim(&g, ch);
        assert_eq!((p.size, p.slot, p.align), (1, 1, 1));
        let d = g.f64();
        let p = c.prim(&g, d);
        assert_eq!((p.size, p.slot, p.align), (8, 8, 8));
    }

    #[test]
    fn memcpy_compatibility() {
        // Bytes are always block-copyable.
        let xdr_char = Encoding::cdr_be().prim_for_size(1, false);
        assert!(xdr_char.memcpy_compatible(1));
        // XDR-widened chars are not (1-byte values in 4-byte slots).
        let widened = Encoding::xdr().prim_for_size(1, false);
        assert!(!widened.memcpy_compatible(1));
        // Multi-byte scalars need native order.
        let be32 = Encoding::cdr_be().prim_for_size(4, true);
        let le32 = Encoding::cdr_le().prim_for_size(4, true);
        let native32 = Encoding::cdr_native().prim_for_size(4, true);
        assert!(native32.memcpy_compatible(4));
        if cfg!(target_endian = "little") {
            assert!(!be32.memcpy_compatible(4));
            assert!(le32.memcpy_compatible(4));
        } else {
            assert!(be32.memcpy_compatible(4));
            assert!(!le32.memcpy_compatible(4));
        }
    }

    #[test]
    fn integer_width_from_range() {
        let mut g = MintGraph::new();
        let x = Encoding::xdr();
        let (u8m, i16m, i32m, u32m, u64m) = (g.u8(), g.i16(), g.i32(), g.u32(), g.u64());
        assert_eq!(x.prim(&g, u8m).size, 1);
        assert_eq!(x.prim(&g, i16m).size, 2);
        assert_eq!(x.prim(&g, i32m).size, 4);
        assert_eq!(x.prim(&g, u64m).size, 8);
        assert!(x.prim(&g, i32m).signed);
        assert!(!x.prim(&g, u32m).signed);
    }

    #[test]
    fn pad_after_rounds_to_the_unit() {
        let x = Encoding::xdr();
        let pads: Vec<u64> = (0..=8).map(|n| x.pad_after(n)).collect();
        assert_eq!(pads, [0, 3, 2, 1, 0, 3, 2, 1, 0]);
        assert_eq!(Encoding::cdr_le().pad_after(5), 0);
    }

    #[test]
    fn mach_descriptor_sizes() {
        let m = Encoding::mach3();
        assert_eq!(m.descriptor_bytes(16), 4);
        assert_eq!(m.descriptor_bytes(0x0fff), 4);
        assert_eq!(m.descriptor_bytes(0x1000), 12);
        assert_eq!(Encoding::xdr().descriptor_bytes(1_000_000), 0);
    }

    #[test]
    fn fingerprints_distinguish_encodings() {
        let all = [
            Encoding::xdr(),
            Encoding::cdr_be(),
            Encoding::cdr_le(),
            Encoding::mach3(),
            Encoding::fluke(),
        ];
        let mut fps: Vec<u64> = all.iter().map(Encoding::fingerprint).collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), 5, "the five base encodings must key apart");
        assert_eq!(Encoding::xdr().fingerprint(), Encoding::xdr().fingerprint());
    }

    #[test]
    fn native_cdr_matches_host() {
        assert_eq!(Encoding::cdr_native().order, Order::native());
        assert!(Order::native().is_native());
    }
}
