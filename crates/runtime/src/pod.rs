//! Byte views of plain-old-data scalar slices.
//!
//! The §3.2 `memcpy` optimization block-copies arrays of atomic types
//! whose in-memory and encoded layouts coincide.  This module provides
//! the safe surface for those copies: [`Scalar`] is a sealed trait
//! implemented exactly for the primitive types whose representation
//! has no padding or invalid bit patterns, so viewing them as bytes
//! (and rebuilding them from bytes) is sound.

mod sealed {
    pub trait Sealed {}
}

/// Plain-old-data scalars eligible for block copies.
///
/// # Safety
/// Implemented only for primitives with no padding bytes and for which
/// every bit pattern is a valid value.
pub unsafe trait Scalar: sealed::Sealed + Copy + Default + 'static {}

macro_rules! impl_scalar {
    ($($t:ty),*) => {
        $(
            impl sealed::Sealed for $t {}
            // SAFETY: primitive scalar; no padding; all bit patterns valid.
            unsafe impl Scalar for $t {}
        )*
    };
}

impl_scalar!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

/// The bytes of a scalar slice, in host memory order.
#[inline]
#[must_use]
pub fn bytes_of<T: Scalar>(s: &[T]) -> &[u8] {
    // SAFETY: Scalar types are POD with no padding; the region is the
    // slice's own allocation.
    unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<u8>(), std::mem::size_of_val(s)) }
}

/// Rebuilds a scalar vector from wire bytes (host order).
///
/// Copies (never borrows) so the result is valid regardless of the
/// source's alignment.
///
/// # Panics
/// Panics if `bytes.len()` is not a multiple of `size_of::<T>()`.
#[must_use]
pub fn vec_from_bytes<T: Scalar>(bytes: &[u8]) -> Vec<T> {
    let n = std::mem::size_of::<T>();
    assert_eq!(
        bytes.len() % n,
        0,
        "byte length not a multiple of element size"
    );
    let count = bytes.len() / n;
    let mut out: Vec<T> = vec![T::default(); count];
    // SAFETY: out has exactly `bytes.len()` bytes of POD storage.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), bytes.len());
    }
    out
}

/// Copies wire bytes (host order) into an existing scalar slice.
///
/// # Panics
/// Panics if `bytes.len() != size_of_val(dst)`.
pub fn copy_into<T: Scalar>(bytes: &[u8], dst: &mut [T]) {
    assert_eq!(bytes.len(), std::mem::size_of_val(dst), "length mismatch");
    // SAFETY: dst is POD storage of exactly bytes.len() bytes.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), dst.as_mut_ptr().cast::<u8>(), bytes.len());
    }
}

/// The swizzle-run kernel: copies `src` into `dst`, reversing the
/// bytes of each `width`-byte element — a whole array converted
/// between byte orders in one pass.  The fixed-size `chunks_exact`
/// loops compile to vector byte shuffles; there is no per-element
/// check.
///
/// # Panics
/// Panics if the lengths differ, `width` is not 1, 2, 4 or 8, or the
/// length is not a multiple of `width`.
pub fn swap_copy(width: usize, src: &[u8], dst: &mut [u8]) {
    assert_eq!(
        src.len() % width,
        0,
        "byte length not a multiple of element size"
    );
    assert_eq!(src.len(), dst.len(), "length mismatch");
    macro_rules! swap_as {
        ($int:ty, $n:literal) => {
            for (d, s) in dst.chunks_exact_mut($n).zip(src.chunks_exact($n)) {
                let v = <$int>::from_ne_bytes(s.try_into().expect("exact chunk"));
                d.copy_from_slice(&v.swap_bytes().to_ne_bytes());
            }
        };
    }
    match width {
        1 => dst.copy_from_slice(src),
        2 => swap_as!(u16, 2),
        4 => swap_as!(u32, 4),
        8 => swap_as!(u64, 8),
        _ => panic!("no scalar is {width} bytes wide"),
    }
}

/// The bytes of a scalar slice, writable.
fn bytes_of_mut<T: Scalar>(s: &mut [T]) -> &mut [u8] {
    let len = std::mem::size_of_val(s);
    // SAFETY: Scalar types are POD with no padding and every bit
    // pattern valid, so any bytes written are a valid `T`; the region
    // is the slice's own allocation, exclusively borrowed.
    unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr().cast::<u8>(), len) }
}

/// Rebuilds a scalar vector from wire bytes in the *other* byte
/// order: [`vec_from_bytes`] with every element byte-swapped.
///
/// # Panics
/// Panics if `bytes.len()` is not a multiple of `size_of::<T>()`.
#[must_use]
pub fn vec_from_swapped<T: Scalar>(bytes: &[u8]) -> Vec<T> {
    let n = std::mem::size_of::<T>();
    let mut out: Vec<T> = vec![T::default(); bytes.len() / n];
    swap_copy(n, bytes, bytes_of_mut(&mut out));
    out
}

/// Copies wire bytes in the *other* byte order into an existing
/// scalar slice: [`copy_into`] with every element byte-swapped.
///
/// # Panics
/// Panics if `bytes.len() != size_of_val(dst)`.
pub fn copy_swapped_into<T: Scalar>(bytes: &[u8], dst: &mut [T]) {
    swap_copy(std::mem::size_of::<T>(), bytes, bytes_of_mut(dst));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_roundtrip_ints() {
        let v: Vec<i32> = vec![1, -2, 3, -4];
        let b = bytes_of(&v);
        assert_eq!(b.len(), 16);
        let back: Vec<i32> = vec_from_bytes(b);
        assert_eq!(back, v);
    }

    #[test]
    fn bytes_roundtrip_floats() {
        let v: Vec<f64> = vec![1.5, -2.25];
        let back: Vec<f64> = vec_from_bytes(bytes_of(&v));
        assert_eq!(back, v);
    }

    #[test]
    fn copy_into_array() {
        let src: [i32; 4] = [10, 20, 30, 40];
        let mut dst = [0i32; 4];
        copy_into(bytes_of(&src), &mut dst);
        assert_eq!(dst, src);
    }

    #[test]
    fn byte_slices_identity() {
        let v: Vec<u8> = (0..32).collect();
        assert_eq!(bytes_of(&v), &v[..]);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn misaligned_length_panics() {
        let _: Vec<i32> = vec_from_bytes(&[1, 2, 3]);
    }

    const LENS: [usize; 7] = [0, 1, 3, 15, 16, 17, 4097];

    /// `n` elements of `width` bytes, preceded by `offset` junk bytes
    /// so the payload can start misaligned.
    fn pattern(width: usize, n: usize, offset: usize) -> Vec<u8> {
        (0..offset + n * width)
            .map(|i| (i * 37 + 11) as u8)
            .collect()
    }

    macro_rules! differential {
        ($name:ident, $t:ty, $w:literal) => {
            #[test]
            fn $name() {
                let foreign_to_host = |c: &[u8]| {
                    let a: [u8; $w] = c.try_into().unwrap();
                    if cfg!(target_endian = "little") {
                        <$t>::from_be_bytes(a)
                    } else {
                        <$t>::from_le_bytes(a)
                    }
                };
                let host_to_foreign = |v: $t| {
                    if cfg!(target_endian = "little") {
                        v.to_be_bytes()
                    } else {
                        v.to_le_bytes()
                    }
                };
                for n in LENS {
                    for offset in [0usize, 1] {
                        let raw = pattern($w, n, offset);
                        let wire = &raw[offset..];
                        // Decode side: per-element from_*_bytes.
                        let want: Vec<$t> = wire.chunks_exact($w).map(foreign_to_host).collect();
                        let got: Vec<$t> = vec_from_swapped(wire);
                        assert_eq!(got, want, "decode n={n} offset={offset}");
                        let mut fixed = vec![<$t>::default(); n];
                        copy_swapped_into(wire, &mut fixed);
                        assert_eq!(fixed, want, "fixed decode n={n} offset={offset}");
                        // Encode side: per-element to_*_bytes, into a
                        // destination that is itself misaligned.
                        let mut out = vec![0xAAu8; offset + n * $w];
                        swap_copy($w, bytes_of(&want), &mut out[offset..]);
                        let expect: Vec<u8> =
                            want.iter().flat_map(|v| host_to_foreign(*v)).collect();
                        assert_eq!(&out[offset..], &expect[..], "encode n={n} offset={offset}");
                        assert_eq!(&out[offset..], wire, "swap is an involution");
                        assert!(out[..offset].iter().all(|b| *b == 0xAA));
                    }
                }
            }
        };
    }

    differential!(swap_kernel_matches_per_element_u16, u16, 2);
    differential!(swap_kernel_matches_per_element_i32, i32, 4);
    differential!(swap_kernel_matches_per_element_u64, u64, 8);

    #[test]
    fn swapped_floats_keep_their_bits() {
        let v = [1.5f64, -0.0, f64::NAN, f64::MIN_POSITIVE];
        let mut wire = vec![0u8; 32];
        swap_copy(8, bytes_of(&v), &mut wire);
        let back: Vec<f64> = vec_from_swapped(&wire);
        for (a, b) in v.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn byte_wide_swap_is_a_copy() {
        let src: Vec<u8> = (0..17).collect();
        let mut dst = vec![0u8; 17];
        swap_copy(1, &src, &mut dst);
        assert_eq!(src, dst);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn ragged_swap_length_panics() {
        let _: Vec<i32> = vec_from_swapped(&[1, 2, 3]);
    }

    #[test]
    fn unaligned_source_is_fine() {
        // Take an odd offset into a byte buffer: vec_from_bytes copies,
        // so alignment of the source never matters.
        let bytes: Vec<u8> = (0..17).collect();
        let v: Vec<i32> = vec_from_bytes(&bytes[1..17]);
        assert_eq!(v.len(), 4);
        assert_eq!(bytes_of(&v), &bytes[1..17]);
    }
}
