//! Byte views of plain-old-data slices.
//!
//! The §3.2 `memcpy` optimization block-copies arrays whose in-memory
//! and encoded layouts coincide.  This module provides the safe
//! surface for those copies, and it is the only file under
//! `crates/runtime/src` that contains `unsafe`.  [`Pod`] marks the
//! types whose values are exactly their bytes — the primitive scalars
//! here, and the generated `#[repr(C)]` structs an *image run* moves —
//! so viewing them as bytes (and rebuilding them from bytes) is sound;
//! [`Scalar`] is the sealed subset that is one primitive, whose swap
//! width is its own size.
//!
//! Nothing here fills memory it is about to overwrite: the
//! `vec_from_*` constructors and [`extend_swapped`] reserve, write
//! every byte, then set the length.

use std::mem::{size_of, MaybeUninit};

mod sealed {
    pub trait Sealed {}
}

/// Plain old data: a value is exactly its bytes.
///
/// # Safety
/// `Self` must be a primitive scalar, or a `#[repr(C)]` struct whose
/// fields (nested structs included, each `#[repr(C)]` itself) are all
/// such scalars; it must have no padding bytes, so `size_of::<Self>()`
/// is the sum of its scalars' sizes; every bit pattern must be a valid
/// value; and it must have no drop glue.
pub unsafe trait Pod: Sized + 'static {}

/// Plain-old-data scalars: the [`Pod`] types that are one primitive,
/// so converting byte order reverses `size_of::<Self>()` bytes.
///
/// # Safety
/// Implemented only for primitives with no padding bytes and for which
/// every bit pattern is a valid value.
pub unsafe trait Scalar: sealed::Sealed + Pod + Copy + Default {}

macro_rules! impl_scalar {
    ($($t:ty),*) => {
        $(
            impl sealed::Sealed for $t {}
            // SAFETY: primitive scalar; no padding; all bit patterns valid.
            unsafe impl Pod for $t {}
            // SAFETY: as above, and a single primitive.
            unsafe impl Scalar for $t {}
        )*
    };
}

impl_scalar!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

/// The bytes of a plain-old-data slice, in host memory order.
#[inline]
#[must_use]
pub fn bytes_of<T: Pod>(s: &[T]) -> &[u8] {
    // SAFETY: Pod types have no padding, so every byte of the slice's
    // own allocation is initialized.
    unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<u8>(), std::mem::size_of_val(s)) }
}

/// A vector of `len / size_of::<T>()` elements whose bytes are
/// whatever `fill` writes: reserve, write, set the length — no byte is
/// zero-filled first.  `fill` must initialize the whole slice it is
/// given (both callers are in this file).
fn vec_filled<T: Pod>(len: usize, fill: impl FnOnce(&mut [MaybeUninit<u8>])) -> Vec<T> {
    let n = size_of::<T>();
    assert!(
        n != 0 && len.is_multiple_of(n),
        "byte length not a multiple of element size"
    );
    let count = len / n;
    let mut out: Vec<T> = Vec::with_capacity(count);
    // SAFETY: the allocation holds at least `count` elements, which is
    // `len` bytes, exclusively borrowed through `out`; `MaybeUninit`
    // bytes may be uninitialized.
    fill(unsafe { std::slice::from_raw_parts_mut(out.as_mut_ptr().cast(), len) });
    // SAFETY: `fill` initialized all `len` bytes — `count` elements —
    // and every bit pattern is a valid `T: Pod`.
    unsafe { out.set_len(count) };
    out
}

/// Rebuilds a plain-old-data vector from wire bytes (host order).
///
/// Copies (never borrows) so the result is valid regardless of the
/// source's alignment.  Nothing is zero-filled: the vector's storage
/// is reserved, overwritten by the copy, then given its length.
///
/// # Panics
/// Panics if `bytes.len()` is not a multiple of `size_of::<T>()`.
#[must_use]
pub fn vec_from_bytes<T: Pod>(bytes: &[u8]) -> Vec<T> {
    vec_filled(bytes.len(), |dst| {
        // SAFETY: `dst` is `bytes.len()` writable bytes of a fresh
        // allocation, which cannot overlap `bytes`.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), dst.as_mut_ptr().cast(), bytes.len());
        }
    })
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

/// The one loop body of the swap kernel: reverses the bytes of each
/// `N`-byte element of `src` into `dst`.  The fixed-size chunks have
/// no per-element check, and the loop compiles to whatever byte
/// shuffle the instantiating function's target features offer.
#[inline(always)]
fn swap_elems<const N: usize>(src: &[u8], dst: &mut [MaybeUninit<u8>]) {
    for (d, s) in dst.chunks_exact_mut(N).zip(src.chunks_exact(N)) {
        let mut e: [u8; N] = s.try_into().expect("exact chunk");
        e.reverse();
        for (d, b) in d.iter_mut().zip(e) {
            d.write(b);
        }
    }
}

/// [`swap_elems`] at a checked `width`; a width-1 "swap" is a copy.
#[inline(always)]
fn swap_run(width: usize, src: &[u8], dst: &mut [MaybeUninit<u8>]) {
    match width {
        1 => swap_elems::<1>(src, dst),
        2 => swap_elems::<2>(src, dst),
        4 => swap_elems::<4>(src, dst),
        8 => swap_elems::<8>(src, dst),
        _ => unreachable!("width checked by check_run"),
    }
}

/// The loop body as the build's baseline target compiles it: scalar
/// `bswap`/rotate stores on x86-64 (SSE2 has no byte shuffle), NEON
/// `rev` on aarch64, where it is already baseline.
fn swap_portable(width: usize, src: &[u8], dst: &mut [MaybeUninit<u8>]) {
    swap_run(width, src, dst);
}

/// The same loop body compiled with SSSE3: one `pshufb` per 16 bytes.
///
/// # Safety
/// The CPU must support SSSE3.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "ssse3")]
unsafe fn swap_ssse3(width: usize, src: &[u8], dst: &mut [MaybeUninit<u8>]) {
    swap_run(width, src, dst);
}

/// Runs shorter than this take the portable loop without asking which
/// CPU this is: a record header's worth of scalars is done before the
/// feature test and the out-of-line call would have paid for
/// themselves.
const SHUFFLE_MIN_BYTES: usize = 128;

/// The one argument check of every swap entry point: the width first
/// (so a zero width is a message, not a division by zero), then the
/// length.
///
/// # Panics
/// Panics if `width` is not 1, 2, 4 or 8, or `len` is not a multiple
/// of it.
fn check_run(width: usize, len: usize) {
    assert!(
        matches!(width, 1 | 2 | 4 | 8),
        "no scalar is {width} bytes wide"
    );
    assert!(
        len.is_multiple_of(width),
        "byte length not a multiple of element size"
    );
}

/// The dispatched kernel, behind [`check_run`]: writes every byte of
/// `dst` — which the callers that then `set_len` over it rely on, so
/// the length test is a hard assert.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
fn swap_into(width: usize, src: &[u8], dst: &mut [MaybeUninit<u8>]) {
    assert_eq!(src.len(), dst.len(), "length mismatch");
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if src.len() >= SHUFFLE_MIN_BYTES && std::is_x86_feature_detected!("ssse3") {
        // SAFETY: the CPU reports SSSE3.
        return unsafe { swap_ssse3(width, src, dst) };
    }
    swap_portable(width, src, dst);
}

/// The swizzle-run kernel: copies `src` into `dst`, reversing the
/// bytes of each `width`-byte element — a whole array converted
/// between byte orders in one pass.  One loop body, two
/// instantiations: long runs on a CPU with SSSE3 take the one compiled
/// to byte shuffles, everything else the build's baseline.
///
/// # Panics
/// Panics if `width` is not 1, 2, 4 or 8, the length is not a multiple
/// of `width`, or the lengths differ.
pub fn swap_copy(width: usize, src: &[u8], dst: &mut [u8]) {
    check_run(width, src.len());
    swap_into(width, src, as_uninit(dst));
}

/// Initialized bytes as a destination the kernel may write.
fn as_uninit(bytes: &mut [u8]) -> &mut [MaybeUninit<u8>] {
    // SAFETY: same region and length, and `MaybeUninit<u8>` has `u8`'s
    // layout; the kernel only writes initialized bytes through it, so
    // `bytes` stays initialized.
    unsafe { std::slice::from_raw_parts_mut(bytes.as_mut_ptr().cast(), bytes.len()) }
}

/// Appends `src` to `dst` with the bytes of each `width`-byte element
/// reversed.  The appended region is not zero-filled first: it is
/// reserved, overwritten by the kernel, then counted into the length.
///
/// # Panics
/// Panics if `width` is not 1, 2, 4 or 8, or `src.len()` is not a
/// multiple of it.
#[inline]
pub fn extend_swapped(dst: &mut Vec<u8>, width: usize, src: &[u8]) {
    check_run(width, src.len());
    dst.reserve(src.len());
    swap_into(width, src, &mut dst.spare_capacity_mut()[..src.len()]);
    // SAFETY: `reserve` made room for `src.len()` more bytes and the
    // kernel initialized every one of them.
    unsafe { dst.set_len(dst.len() + src.len()) };
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
    vec_from_swapped_by(size_of::<T>(), bytes)
}

/// Rebuilds a vector of plain-old-data structs from wire bytes in the
/// *other* byte order, where every scalar of `T` is `width` bytes
/// wide: [`vec_from_bytes`] with every `width`-byte scalar
/// byte-swapped.  Nothing is zero-filled: the vector's storage is
/// reserved, overwritten by the kernel, then given its length.
///
/// # Panics
/// Panics if `width` is not 1, 2, 4 or 8, or `size_of::<T>()` is not a
/// multiple of `width`, or `bytes.len()` is not a multiple of
/// `size_of::<T>()`.
#[must_use]
pub fn vec_from_swapped_by<T: Pod>(width: usize, bytes: &[u8]) -> Vec<T> {
    check_run(width, size_of::<T>());
    vec_filled(bytes.len(), |dst| swap_into(width, bytes, dst))
}

/// Copies wire bytes in the *other* byte order into an existing
/// scalar slice: [`copy_into`] with every element byte-swapped.
///
/// # Panics
/// Panics if `bytes.len() != size_of_val(dst)`.
pub fn copy_swapped_into<T: Scalar>(bytes: &[u8], dst: &mut [T]) {
    swap_copy(size_of::<T>(), bytes, bytes_of_mut(dst));
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

    /// The dispatched entry against the portable loop called directly:
    /// whichever instantiation a length selects, the bytes are the
    /// same, and nothing outside the destination is written.
    #[test]
    fn dispatched_kernel_matches_the_portable_loop() {
        for width in [2usize, 4, 8] {
            let cut = SHUFFLE_MIN_BYTES / width;
            let counts = [0, 1, 3, 15, 16, 17, 31, 32, 33, 4097, cut - 1, cut, cut + 1];
            for n in counts {
                for (src_off, dst_off) in [(0usize, 0usize), (1, 0), (0, 1), (1, 1)] {
                    let raw = pattern(width, n, src_off);
                    let src = &raw[src_off..];
                    let mut want = vec![0u8; src.len()];
                    swap_portable(width, src, as_uninit(&mut want));
                    // One guard byte past the end, `dst_off` before.
                    let mut out = vec![0xAAu8; dst_off + src.len() + 1];
                    swap_copy(width, src, &mut out[dst_off..dst_off + src.len()]);
                    let at = format!("width={width} n={n} src+{src_off} dst+{dst_off}");
                    assert_eq!(&out[dst_off..dst_off + src.len()], &want[..], "{at}");
                    assert!(out[..dst_off].iter().all(|b| *b == 0xAA), "{at}");
                    assert_eq!(out[dst_off + src.len()], 0xAA, "{at}");
                    // The appending and the vector-building entries
                    // run the same kernel over unfilled storage.
                    let mut grown = vec![0x55u8; dst_off];
                    extend_swapped(&mut grown, width, src);
                    assert_eq!(&grown[dst_off..], &want[..], "{at}");
                    assert!(grown[..dst_off].iter().all(|b| *b == 0x55), "{at}");
                }
            }
        }
    }

    #[test]
    fn swapped_floats_keep_their_bits_on_either_side_of_the_cut_over() {
        let specials = [1.5f64, -0.0, f64::NAN, f64::MIN_POSITIVE, f64::INFINITY];
        for n in [
            3usize,
            SHUFFLE_MIN_BYTES / 8 - 1,
            SHUFFLE_MIN_BYTES / 8,
            4097,
        ] {
            let v: Vec<f64> = (0..n).map(|i| specials[i % specials.len()]).collect();
            let mut wire = vec![0u8; n * 8];
            swap_copy(8, bytes_of(&v), &mut wire);
            let back: Vec<f64> = vec_from_swapped(&wire);
            assert!(v.iter().zip(&back).all(|(a, b)| a.to_bits() == b.to_bits()));
            let v32: Vec<f32> = v.iter().map(|d| *d as f32).collect();
            let mut buf = Vec::new();
            extend_swapped(&mut buf, 4, bytes_of(&v32));
            let back: Vec<f32> = vec_from_swapped(&buf);
            assert!(v32
                .iter()
                .zip(&back)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    /// What generated code declares for a struct an image run moves.
    #[repr(C)]
    #[derive(Clone, Debug, PartialEq)]
    struct Pair {
        a: i32,
        b: u32,
    }
    // SAFETY: `#[repr(C)]`, two 4-byte scalars, 8 bytes, no padding.
    unsafe impl Pod for Pair {}

    #[test]
    fn struct_images_move_as_runs_in_either_order() {
        for n in [0usize, 1, 15, 16, 17, 4097] {
            let v: Vec<Pair> = (0..n as u32)
                .map(|i| Pair {
                    a: -(i as i32) - 7,
                    b: i.wrapping_mul(0x9E37_79B9),
                })
                .collect();
            // Native order: the bytes are the value.
            let native: Vec<u8> = v
                .iter()
                .flat_map(|p| [p.a.to_ne_bytes(), p.b.to_ne_bytes()].concat())
                .collect();
            assert_eq!(bytes_of(&v), &native[..]);
            assert_eq!(vec_from_bytes::<Pair>(&native), v);
            // Foreign order: every 4-byte scalar reversed; source
            // misaligned by one.
            let mut foreign = vec![0u8];
            extend_swapped(&mut foreign, 4, bytes_of(&v));
            let per_field: Vec<u8> = v
                .iter()
                .flat_map(|p| {
                    let (a, b) = (p.a.swap_bytes(), p.b.swap_bytes());
                    [a.to_ne_bytes(), b.to_ne_bytes()].concat()
                })
                .collect();
            assert_eq!(&foreign[1..], &per_field[..]);
            assert_eq!(vec_from_swapped_by::<Pair>(4, &foreign[1..]), v);
        }
    }

    #[test]
    #[should_panic(expected = "no scalar is 0 bytes wide")]
    fn zero_width_is_a_message_not_a_division() {
        swap_copy(0, &[], &mut []);
    }

    #[test]
    #[should_panic(expected = "no scalar is 3 bytes wide")]
    fn width_is_checked_before_length() {
        extend_swapped(&mut Vec::new(), 3, &[1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn swap_length_mismatch_panics() {
        swap_copy(4, &[1, 2, 3, 4], &mut [0u8; 8]);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn struct_run_must_be_whole_elements() {
        let _: Vec<Pair> = vec_from_swapped_by(4, &[0u8; 12]);
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
