//! Seeded inputs and the independent references outputs are checked
//! against.
//!
//! Everything the program under test sees is generated here from
//! `--seed`: payload values, xid bases, cell order and the synthetic
//! IDL.  The seed moves *values*, never *sizes* — element counts, name
//! lengths and identifier widths are fixed — so timings measure the
//! same amount of work on every seed and the exact metrics (bytes out,
//! allocations) keep their value from seed to seed.
//!
//! The reference encoders below are written against the XDR and CDR
//! specifications, not against the generated stubs; together with
//! `flick_baselines::RpcgenStyle` they are what "correct" means for a
//! request body.

use flick_baselines::types::{Dirent, Point, Rect, Stat};

/// SplitMix64 — the benchmark's own generator, so inputs cannot drift
/// with the repository's.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a per-purpose `stream` label.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03)))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn int(&mut self) -> i32 {
        self.next_u64() as i32
    }

    fn letter(&mut self, base: u8) -> char {
        (base + self.below(26) as u8) as char
    }

    /// `n` random lowercase letters.
    pub fn lowercase(&mut self, n: usize) -> String {
        (0..n).map(|_| self.letter(b'a')).collect()
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i as u64 + 1) as usize);
        }
        p
    }
}

/// Encoded name length of every generated directory entry: with the
/// 136-byte stat record one entry is exactly 256 XDR bytes, the
/// paper's §4 entry size.
pub const DIRENT_NAME_BYTES: usize = 116;

/// `n` random integers.
pub fn ints(rng: &mut Rng, n: usize) -> Vec<i32> {
    (0..n).map(|_| rng.int()).collect()
}

/// `n` random rectangles.
pub fn rects(rng: &mut Rng, n: usize) -> Vec<Rect> {
    (0..n)
        .map(|_| Rect {
            min: Point {
                x: rng.int(),
                y: rng.int(),
            },
            max: Point {
                x: rng.int(),
                y: rng.int(),
            },
        })
        .collect()
}

/// One random stat record.
pub fn stat(rng: &mut Rng) -> Stat {
    let mut s = Stat::default();
    for f in &mut s.fields {
        *f = rng.int();
    }
    for t in &mut s.tag {
        *t = b'A' + rng.below(26) as u8;
    }
    s
}

/// `n` random directory entries of the fixed encoded size.
pub fn dirents(rng: &mut Rng, n: usize) -> Vec<Dirent> {
    (0..n)
        .map(|_| Dirent {
            name: rng.lowercase(DIRENT_NAME_BYTES),
            info: stat(rng),
        })
        .collect()
}

/// Instantiates converters from the baseline value types into one
/// generated module's presented types (the modules define structurally
/// identical but distinct `Rect`/`Stat`/`Dirent`).
macro_rules! presented {
    ($name:ident, $module:path) => {
        /// Conversions into one generated module's presented types.
        pub mod $name {
            use flick_baselines::types as base;
            use $module as m;

            /// Rectangles in the module's type.
            #[must_use]
            pub fn rects(v: &[base::Rect]) -> Vec<m::Rect> {
                v.iter()
                    .map(|r| m::Rect {
                        min: m::Point {
                            x: r.min.x,
                            y: r.min.y,
                        },
                        max: m::Point {
                            x: r.max.x,
                            y: r.max.y,
                        },
                    })
                    .collect()
            }

            /// One stat record in the module's type.
            #[must_use]
            pub fn stat(s: &base::Stat) -> m::Stat {
                m::Stat {
                    fields: s.fields,
                    tag: s.tag,
                }
            }

            /// Directory entries in the module's type.
            #[must_use]
            pub fn dirents(v: &[base::Dirent]) -> Vec<m::Dirent> {
                v.iter()
                    .map(|d| m::Dirent {
                        name: d.name.clone(),
                        info: stat(&d.info),
                    })
                    .collect()
            }
        }
    };
}

presented!(onc, flick_bench::generated::onc_bench);
presented!(iiop, flick_bench::generated::iiop_bench);

/// The two body encodings the workloads speak.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Enc {
    /// XDR: big-endian, 4-byte units.
    Xdr,
    /// CDR in the host's byte order, aligned from the body start.
    Cdr,
}

/// An independent reference encoder for the four `Bench` request
/// bodies.
pub struct RefEncoder {
    enc: Enc,
    out: Vec<u8>,
}

impl RefEncoder {
    /// An empty encoder for `enc`.
    #[must_use]
    pub fn new(enc: Enc) -> Self {
        RefEncoder {
            enc,
            out: Vec::new(),
        }
    }

    /// The bytes written so far.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }

    fn u32(&mut self, v: u32) {
        match self.enc {
            Enc::Xdr => self.out.extend_from_slice(&v.to_be_bytes()),
            Enc::Cdr => self.out.extend_from_slice(&v.to_ne_bytes()),
        }
    }

    fn i32(&mut self, v: i32) {
        self.u32(v as u32);
    }

    fn pad4(&mut self) {
        let padded = self.out.len().next_multiple_of(4);
        self.out.resize(padded, 0);
    }

    /// `sequence<long>`.
    pub fn ints(mut self, v: &[i32]) -> Self {
        self.u32(v.len() as u32);
        for &x in v {
            self.i32(x);
        }
        self
    }

    /// `sequence<Rect>`.
    pub fn rects(mut self, v: &[Rect]) -> Self {
        self.u32(v.len() as u32);
        for r in v {
            for x in [r.min.x, r.min.y, r.max.x, r.max.y] {
                self.i32(x);
            }
        }
        self
    }

    /// `Stat`: 30 longs and a 16-byte character array.
    pub fn stat(mut self, s: &Stat) -> Self {
        self.pad4();
        for &f in &s.fields {
            self.i32(f);
        }
        self.out.extend_from_slice(&s.tag);
        self
    }

    /// `sequence<Dirent>`: XDR strings are counted and padded, CDR
    /// strings are counted including their terminating NUL.
    pub fn dirents(mut self, v: &[Dirent]) -> Self {
        self.u32(v.len() as u32);
        for d in v {
            self.pad4();
            match self.enc {
                Enc::Xdr => {
                    self.u32(d.name.len() as u32);
                    self.out.extend_from_slice(d.name.as_bytes());
                }
                Enc::Cdr => {
                    self.u32(d.name.len() as u32 + 1);
                    self.out.extend_from_slice(d.name.as_bytes());
                    self.out.push(0);
                }
            }
            self = self.stat(&d.info);
        }
        self
    }
}

/// What `flick_baselines::RpcgenStyle` puts on the wire for one
/// marshal call — the second, independently written XDR reference.
#[must_use]
pub fn rpcgen_bytes(marshal: impl FnOnce(&mut flick_baselines::rpcgen::RpcgenStyle)) -> Vec<u8> {
    let mut m = flick_baselines::rpcgen::RpcgenStyle::new();
    marshal(&mut m);
    m.bytes().to_vec()
}

/// Operations in the synthetic wide interface the `compile` cells
/// use: just under the compiler's parallel-lowering threshold (16
/// stubs).  Above it the compiler spawns helper threads that need the
/// second vCPU, and the 48-operation cell this started as swung by
/// 4–10 % with the neighbour's load while every single-threaded cell
/// beside it stayed within 1 %.
pub const WIDE_OPS: usize = 15;
/// Operations in the interface of the raw, ungated
/// `compile.mt.wide48_ns` row, which does cross that threshold.
pub const WIDE_MT_OPS: usize = 48;
/// Struct types in the synthetic wide interface (each also gets a
/// sequence typedef, for ~2× as many named types).
pub const WIDE_STRUCTS: usize = 12;
/// Index of the operation the warm-recompile cell edits.
pub const WIDE_EDIT_OP: usize = 7;

/// Two index letters for `i`, least significant first: the demux trie
/// orders its arms by the operation name's machine words, whose most
/// significant byte is the last character, so names ending in these
/// letters sort by index whatever the seeded letters before them are.
fn index_letters(i: usize) -> String {
    let lo = (b'a' + (i % 26) as u8) as char;
    let hi = (b'a' + (i / 26) as u8) as char;
    format!("{lo}{hi}")
}

/// The name edit number `edit` gives the edited parameter (fixed
/// width; no other identifier starts with `e`).
#[must_use]
pub fn wide_edit_name(edit: u32) -> String {
    format!("e{:07x}", edit & 0x0fff_ffff)
}

/// The seeded synthetic interface: `ops` operations over
/// [`WIDE_STRUCTS`] struct types, sequences of them, strings and
/// scalars.  Its *structure* is fixed; the seed picks the letters in
/// every identifier (fixed width, index-ordered — see
/// [`index_letters`]), so generated code has the same size and the
/// compiler does the same work on every seed.  `edit` names the
/// parameter of operation [`WIDE_EDIT_OP`]: a different `edit` is a
/// one-operation edit of the same source.
#[must_use]
pub fn wide_idl(seed: u64, edit: u32, ops: usize) -> String {
    let mut rng = Rng::new(seed, 0x1d1);
    let scalars = [
        "long",
        "unsigned long",
        "short",
        "double",
        "boolean",
        "octet",
    ];
    let mut src =
        String::from("// flick-perf synthetic interface (seeded identifiers, fixed structure)\n");
    let mut structs: Vec<String> = Vec::new();
    for s in 0..WIDE_STRUCTS {
        // Struct names lead with their index so the emitters' sorted
        // type tables keep one order on every seed.
        let name = format!("S{}{}", index_letters(s), rng.lowercase(4));
        src.push_str(&format!("struct {name} {{\n"));
        for f in 0..3 + s % 4 {
            let ty = match (s + f) % 5 {
                0 if s > 0 => structs[(s - 1) / 2].clone(),
                1 => "string".to_string(),
                2 => "long".to_string(),
                3 => "double".to_string(),
                _ => scalars[(s + f) % scalars.len()].to_string(),
            };
            let field = format!("f{f}{}", rng.lowercase(3));
            if (s + f) % 7 == 3 {
                src.push_str(&format!("    long {field}[{}];\n", 4 + f));
            } else {
                src.push_str(&format!("    {ty} {field};\n"));
            }
        }
        src.push_str("};\n");
        src.push_str(&format!("typedef sequence<{name}> Q{name};\n"));
        structs.push(name);
    }
    src.push_str("typedef sequence<long> QLong;\ninterface Wide {\n");
    for o in 0..ops {
        let letters = rng.lowercase(2);
        let op = format!("op_wide_{letters}{}", index_letters(o));
        let s = &structs[o % WIDE_STRUCTS];
        let param = if o == WIDE_EDIT_OP {
            wide_edit_name(edit)
        } else {
            format!("p{}", rng.lowercase(7))
        };
        let sig = match o % 6 {
            0 => format!("void {op}(in Q{s} {param})"),
            1 => format!("long {op}(in {s} {param}, in long n)"),
            2 => format!("void {op}(in string {param}, in QLong v)"),
            3 => format!("{s} {op}(in {s} {param})"),
            4 => format!("void {op}(in QLong {param}, in double w, in boolean b)"),
            _ => format!("long {op}(in Q{s} {param}, in string label)"),
        };
        src.push_str(&format!("    {sig};\n"));
    }
    src.push_str("};\n");
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_move_values_not_sizes() {
        let a = dirents(&mut Rng::new(1, 7), 4);
        let b = dirents(&mut Rng::new(2, 7), 4);
        assert_ne!(a, b);
        let ea = RefEncoder::new(Enc::Xdr).dirents(&a).into_bytes();
        let eb = RefEncoder::new(Enc::Xdr).dirents(&b).into_bytes();
        assert_eq!(ea.len(), 4 + 4 * 256);
        assert_eq!(ea.len(), eb.len());
        assert_eq!(
            wide_idl(1, 0, WIDE_OPS).len(),
            wide_idl(2, 9, WIDE_OPS).len()
        );
        assert_ne!(wide_idl(1, 0, WIDE_OPS), wide_idl(2, 0, WIDE_OPS));
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(ints(&mut Rng::new(5, 1), 64), ints(&mut Rng::new(5, 1), 64));
        assert_eq!(wide_idl(5, 3, WIDE_MT_OPS), wide_idl(5, 3, WIDE_MT_OPS));
    }
}
