//! Deterministic structural hashing for the compiler IRs.
//!
//! The incremental compile machinery keys cached per-stub work on the
//! *content* of the IR that feeds it: the PRES/MINT subtrees a stub
//! marshals, the wire encoding, and the pass-pipeline configuration.
//! Rust's `std::hash::Hash`/`DefaultHasher` is explicitly unsuitable
//! for that — its output may change between releases and processes —
//! so this crate provides a tiny fixed algorithm whose digests are
//! stable across runs, processes, and platforms, and a [`StableHash`]
//! trait the IR crates implement structurally (no pointer identity, no
//! arena indices, no map-iteration-order leaks).
//!
//! A hash is the [`digest`] — 64-bit FNV-1a — of a byte *stream* the
//! value writes with explicit length/discriminant framing ([`Frame`]).
//! Framing matters: hashing `"ab"` then `"c"` must differ from `"a"`
//! then `"bc"`, and `Some(0)` must differ from `None` followed by an
//! unrelated zero.  The stream is written to a `Vec<u8>` before it is
//! digested, which is what lets a graph write a shared node once
//! ([`TapeMemo`]) and several streams be digested abreast
//! ([`digest_each`]).

mod name;
mod tape;

pub use name::Name;
pub use tape::{Open, TapeMemo};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The digest of a written stream: 64-bit FNV-1a.
///
/// Not a cryptographic hash — collisions are possible in principle —
/// but the cache it feeds re-emits deterministically on a miss, so a
/// collision can only cause a *stale reuse*, and 64 bits over the few
/// thousand stubs a session sees makes that astronomically unlikely.
#[must_use]
pub fn digest(stream: &[u8]) -> u64 {
    stream.iter().fold(FNV_OFFSET, |state, &b| {
        (state ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// [`digest`] of each of `streams`, in order.
///
/// FNV-1a is a serial chain within one stream — each multiply waits for
/// the one before it — but streams are independent: up to four advance
/// abreast so their multiplies overlap, each lane taking the next
/// stream when its own ends.
#[must_use]
pub fn digest_each(streams: &[&[u8]]) -> Vec<u64> {
    /// `K` equally long runs, one step of each per turn.
    fn abreast<const K: usize>(lanes: &mut [(usize, &[u8])], n: usize, out: &mut [u64]) {
        let mut state = [0; K];
        let mut bytes = [&[][..]; K];
        for k in 0..K {
            let (stream, rest) = &mut lanes[k];
            state[k] = out[*stream];
            (bytes[k], *rest) = rest.split_at(n);
        }
        for i in 0..n {
            for (state, bytes) in state.iter_mut().zip(&bytes) {
                *state = (*state ^ u64::from(bytes[i])).wrapping_mul(FNV_PRIME);
            }
        }
        for k in 0..K {
            out[lanes[k].0] = state[k];
        }
    }
    let mut out = vec![FNV_OFFSET; streams.len()];
    // `(stream, bytes left)` per lane; `next` is the first stream that
    // no lane has taken.
    let mut lanes: Vec<(usize, &[u8])> = Vec::with_capacity(4);
    let mut next = 0;
    loop {
        lanes.retain(|(_, rest)| !rest.is_empty());
        while lanes.len() < 4 && next < streams.len() {
            lanes.push((next, streams[next]));
            next += 1;
        }
        let Some(n) = lanes.iter().map(|(_, rest)| rest.len()).min() else {
            return out;
        };
        match lanes.len() {
            4 => abreast::<4>(&mut lanes, n, &mut out),
            3 => abreast::<3>(&mut lanes, n, &mut out),
            2 => abreast::<2>(&mut lanes, n, &mut out),
            _ => abreast::<1>(&mut lanes, n, &mut out),
        }
    }
}

/// The framing of a hash stream, defined once over the `Vec<u8>` a
/// stream is written to: every variable-length write is preceded by
/// its length, every enum by a discriminant tag.
pub trait Frame {
    /// Appends a `u64` as 8 little-endian bytes.
    fn write_u64(&mut self, v: u64);

    /// Appends an `i64` (two's-complement bytes).
    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    /// Appends a single byte.
    fn write_u8(&mut self, v: u8);

    /// Appends a bool as one byte.
    fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Appends a length-prefixed string.
    fn write_str(&mut self, s: &str);

    /// Appends an enum discriminant tag (frames variant payloads).
    fn write_tag(&mut self, tag: u8) {
        self.write_u8(tag);
    }
}

impl Frame for Vec<u8> {
    fn write_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn write_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.extend_from_slice(s.as_bytes());
    }
}

/// A type whose values hash structurally and deterministically.
///
/// Implementations must depend only on the value's *structure* —
/// never on addresses, arena indices, or unordered-container
/// iteration order — so equal structures hash equally across
/// processes and compiles.
pub trait StableHash {
    /// Appends `self`'s stream to `h`.
    fn stable_hash(&self, h: &mut Vec<u8>);
}

/// One-shot digest of a single value.
#[must_use]
pub fn hash_of<T: StableHash + ?Sized>(v: &T) -> u64 {
    let mut h = Vec::new();
    v.stable_hash(&mut h);
    digest(&h)
}

impl StableHash for u8 {
    fn stable_hash(&self, h: &mut Vec<u8>) {
        h.write_u8(*self);
    }
}

impl StableHash for u64 {
    fn stable_hash(&self, h: &mut Vec<u8>) {
        h.write_u64(*self);
    }
}

impl StableHash for bool {
    fn stable_hash(&self, h: &mut Vec<u8>) {
        h.write_bool(*self);
    }
}

impl StableHash for str {
    fn stable_hash(&self, h: &mut Vec<u8>) {
        h.write_str(self);
    }
}

impl StableHash for String {
    fn stable_hash(&self, h: &mut Vec<u8>) {
        h.write_str(self);
    }
}

impl StableHash for Name {
    fn stable_hash(&self, h: &mut Vec<u8>) {
        h.write_str(self);
    }
}

impl<T: StableHash> StableHash for Option<T> {
    fn stable_hash(&self, h: &mut Vec<u8>) {
        match self {
            None => h.write_tag(0),
            Some(v) => {
                h.write_tag(1);
                v.stable_hash(h);
            }
        }
    }
}

impl<T: StableHash> StableHash for [T] {
    fn stable_hash(&self, h: &mut Vec<u8>) {
        h.write_u64(self.len() as u64);
        for v in self {
            v.stable_hash(h);
        }
    }
}

impl<T: StableHash> StableHash for Vec<T> {
    fn stable_hash(&self, h: &mut Vec<u8>) {
        self.as_slice().stable_hash(h);
    }
}

impl<T: StableHash + ?Sized> StableHash for &T {
    fn stable_hash(&self, h: &mut Vec<u8>) {
        (**self).stable_hash(h);
    }
}

impl<T: StableHash + ?Sized> StableHash for std::sync::Arc<T> {
    fn stable_hash(&self, h: &mut Vec<u8>) {
        (**self).stable_hash(h);
    }
}

impl<A: StableHash, B: StableHash> StableHash for (A, B) {
    fn stable_hash(&self, h: &mut Vec<u8>) {
        self.0.stable_hash(h);
        self.1.stable_hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_fixed_across_processes() {
        // Golden values: if these change, every on-disk cache and the
        // checked-in golden hash file silently invalidate.  Changing
        // the algorithm is allowed but must be deliberate.
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash_of("flick"), hash_of(&"flick".to_string()));
        assert_eq!(hash_of("flick"), hash_of(&Name::from("flick")));
        assert_eq!(hash_of("flick"), hash_of(&Name::from_static("flick")));
    }

    #[test]
    fn framing_distinguishes_concatenations() {
        assert_ne!(hash_of(&("ab", "c")), hash_of(&("a", "bc")));
    }

    #[test]
    fn options_and_tags_frame() {
        assert_ne!(hash_of(&None::<u64>), hash_of(&Some(0u64)));
        assert_ne!(hash_of(&(None::<u64>, 0u64)), hash_of(&Some(0u64)));
    }

    #[test]
    fn streams_digested_abreast_digest_as_alone() {
        // Lengths chosen so lanes end at different times, refill, and
        // thin out to one; empty streams among them.
        let lens = [0usize, 7, 300, 1, 64, 0, 1000, 33, 5, 5, 129];
        let streams: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(s, &n)| (0..n).map(|i| (i * 31 + s * 7) as u8).collect())
            .collect();
        for count in 0..=streams.len() {
            let slices: Vec<&[u8]> = streams[..count].iter().map(Vec::as_slice).collect();
            let alone: Vec<u64> = slices.iter().map(|s| digest(s)).collect();
            assert_eq!(digest_each(&slices), alone, "{count} streams");
        }
    }

    #[test]
    fn vec_length_prefixed() {
        assert_ne!(hash_of(&vec![1u64, 2]), hash_of(&vec![1u64, 2, 0]));
        assert_eq!(hash_of(&vec![7u64]), hash_of(&[7u64][..]));
    }
}
