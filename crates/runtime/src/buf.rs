//! The marshal buffer and chunk access.
//!
//! The paper's §3.1 buffer-management optimization hinges on the stub
//! checking free space *once per fixed-layout region* rather than once
//! per atomic datum.  [`MarshalBuf::ensure`] is that single check;
//! [`MarshalBuf::chunk`] then hands out a [`ChunkWriter`] over exactly
//! the reserved region, inside which every store is a constant-offset
//! write through the "chunk pointer" (§3.2's chunking).
//!
//! Buffers are reused between stub invocations ([`MarshalBuf::clear`]
//! keeps capacity), matching the paper's footnote 4.

use crate::error::DecodeError;
use crate::pod;

/// A growable, reusable encode buffer.
#[derive(Clone, Debug, Default)]
pub struct MarshalBuf {
    data: Vec<u8>,
}

/// Adopts a `Vec`'s bytes and storage as they are — how a byte
/// stream lends its ring's storage to the buffer pool.
impl From<Vec<u8>> for MarshalBuf {
    fn from(data: Vec<u8>) -> Self {
        MarshalBuf { data }
    }
}

impl MarshalBuf {
    /// A fresh, empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A buffer with `cap` bytes pre-reserved.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        MarshalBuf {
            data: Vec::with_capacity(cap),
        }
    }

    /// Resets length to zero, *keeping* the allocation for reuse.
    #[inline]
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// The marshal-space check: guarantees `additional` more bytes can
    /// be appended without reallocation.
    #[inline]
    pub fn ensure(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// The exact-growth form of [`MarshalBuf::ensure`]: where the
    /// buffer must grow to hold `additional` more bytes, it grows to
    /// exactly that, with none of `ensure`'s doubling slack — for a
    /// buffer whose final length is known, such as a frame whose header
    /// announced it.  Growing this way by small steps copies the buffer
    /// each time, so it is no substitute for `ensure`.
    #[inline]
    pub fn ensure_exact(&mut self, additional: usize) {
        self.data.reserve_exact(additional);
    }

    /// Current encoded length.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Bytes the buffer can hold without reallocating — what a pooled
    /// buffer's recycle decision is made on.
    #[inline]
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Releases capacity beyond `min_capacity` (never below the
    /// current length).  The pool's high-water trimmer calls this so
    /// one oversized message does not pin its allocation forever.
    #[inline]
    pub fn shrink_to(&mut self, min_capacity: usize) {
        self.data.shrink_to(min_capacity);
    }

    /// True when nothing has been encoded.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Removes the first `n` bytes, shifting the remainder down in
    /// place (no reallocation).  The connection fabric consumes parsed
    /// frames and flushed reply bytes from the front of its pooled
    /// per-connection buffers this way.
    ///
    /// # Panics
    /// Panics if `n` exceeds the current length.
    #[inline]
    pub fn drain_front(&mut self, n: usize) {
        self.data.drain(..n);
    }

    /// The encoded bytes.
    #[inline]
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Consumes the buffer, yielding the encoded bytes.
    #[must_use]
    pub fn into_vec(self) -> Vec<u8> {
        self.data
    }

    /// Opens a fixed-size chunk of `n` bytes at the current end.
    ///
    /// The buffer grows by `n`, *zero-filled*: fixed chunks are small,
    /// and the pad bytes no store covers must read as zero on the
    /// wire.  The returned writer addresses the region by constant
    /// offsets.  Callers should [`MarshalBuf::ensure`] the space
    /// beforehand — `chunk` itself never fails, but hoisting the check
    /// is the whole point.
    #[inline]
    pub fn chunk(&mut self, n: usize) -> ChunkWriter<'_> {
        let start = self.data.len();
        self.data.resize(start + n, 0);
        ChunkWriter {
            s: &mut self.data[start..],
        }
    }

    /// Appends raw bytes (the `memcpy` fast path for atomic arrays).
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
    }

    /// Appends `src` with the bytes of each `width`-byte element
    /// reversed — the swizzle-run counterpart of
    /// [`MarshalBuf::put_bytes`] for arrays whose wire byte order is
    /// not the host's.  Like `put_bytes` it zero-fills nothing: one
    /// reservation, then the swap kernel writes the new bytes in place
    /// ([`pod::extend_swapped`]).
    ///
    /// # Panics
    /// Panics if `width` is not a scalar size (1, 2, 4, 8), or
    /// `src.len()` is not a multiple of it.
    #[inline]
    pub fn put_swapped(&mut self, width: usize, src: &[u8]) {
        pod::extend_swapped(&mut self.data, width, src);
    }

    /// Appends `n` zero bytes (encoding padding).
    #[inline]
    pub fn put_zeros(&mut self, n: usize) {
        self.data.resize(self.data.len() + n, 0);
    }

    /// Pads with zeros so `len` becomes a multiple of `align`.
    #[inline]
    pub fn align_to(&mut self, align: usize) {
        let target = crate::align_up(self.data.len(), align);
        self.data.resize(target, 0);
    }

    /// Appends a big-endian `u32` (checked, per-datum path — the shape
    /// of *unoptimized* stub code; Flick stubs prefer chunked writes).
    #[inline]
    pub fn put_u32_be(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn put_u32_le(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a big-endian `u64`.
    #[inline]
    pub fn put_u64_be(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn put_u64_le(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a big-endian `u16`.
    #[inline]
    pub fn put_u16_be(&mut self, v: u16) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a little-endian `u16`.
    #[inline]
    pub fn put_u16_le(&mut self, v: u16) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    /// Pads with zeros so `len - base` becomes a multiple of `align`
    /// (stream-relative alignment, for CDR bodies that do not start at
    /// offset zero of the buffer).
    #[inline]
    pub fn align_from(&mut self, base: usize, align: usize) {
        let pos = self.data.len() - base;
        let target = crate::align_up(pos, align);
        self.data.resize(base + target, 0);
    }

    /// Appends a single byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    /// Overwrites 4 bytes at `offset` with a big-endian `u32` —
    /// used to back-patch lengths in message headers.
    ///
    /// # Panics
    /// Panics if `offset + 4` exceeds the current length.
    #[inline]
    pub fn patch_u32_be(&mut self, offset: usize, v: u32) {
        self.data[offset..offset + 4].copy_from_slice(&v.to_be_bytes());
    }

    /// Overwrites 4 bytes at `offset` with a little-endian `u32`.
    ///
    /// # Panics
    /// Panics if `offset + 4` exceeds the current length.
    #[inline]
    pub fn patch_u32_le(&mut self, offset: usize, v: u32) {
        self.data[offset..offset + 4].copy_from_slice(&v.to_le_bytes());
    }
}

/// Writes into a fixed-layout region by constant offsets — the
/// runtime realization of a *chunk pointer* (§3.2).
///
/// All stores are plain slice writes; with constant offsets the
/// compiler lowers them to pointer-plus-offset instructions, exactly
/// the code shape the paper attributes to chunking.
#[derive(Debug)]
pub struct ChunkWriter<'a> {
    s: &'a mut [u8],
}

impl ChunkWriter<'_> {
    /// Chunk size in bytes.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.s.len()
    }

    /// True for a zero-length chunk.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.s.is_empty()
    }

    /// Splits the chunk into consecutive `stride`-byte sub-chunks —
    /// the chunk pointer advanced by a stride over an array of
    /// fixed-layout elements.  Each sub-chunk has exactly `stride`
    /// bytes, so constant-offset stores into it need no bounds check.
    ///
    /// # Panics
    /// Panics if `stride` is zero.
    #[inline]
    pub fn strides(&mut self, stride: usize) -> impl Iterator<Item = ChunkWriter<'_>> {
        self.s.chunks_exact_mut(stride).map(|s| ChunkWriter { s })
    }

    /// Stores a big-endian `u32` at `off`.
    #[inline]
    pub fn put_u32_be_at(&mut self, off: usize, v: u32) {
        self.s[off..off + 4].copy_from_slice(&v.to_be_bytes());
    }

    /// Stores a little-endian `u32` at `off`.
    #[inline]
    pub fn put_u32_le_at(&mut self, off: usize, v: u32) {
        self.s[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Stores a big-endian `u64` at `off`.
    #[inline]
    pub fn put_u64_be_at(&mut self, off: usize, v: u64) {
        self.s[off..off + 8].copy_from_slice(&v.to_be_bytes());
    }

    /// Stores a little-endian `u64` at `off`.
    #[inline]
    pub fn put_u64_le_at(&mut self, off: usize, v: u64) {
        self.s[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Stores a big-endian `u16` at `off`.
    #[inline]
    pub fn put_u16_be_at(&mut self, off: usize, v: u16) {
        self.s[off..off + 2].copy_from_slice(&v.to_be_bytes());
    }

    /// Stores a little-endian `u16` at `off`.
    #[inline]
    pub fn put_u16_le_at(&mut self, off: usize, v: u16) {
        self.s[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Stores one byte at `off`.
    #[inline]
    pub fn put_u8_at(&mut self, off: usize, v: u8) {
        self.s[off] = v;
    }

    /// Stores raw bytes starting at `off`.
    #[inline]
    pub fn put_bytes_at(&mut self, off: usize, bytes: &[u8]) {
        self.s[off..off + bytes.len()].copy_from_slice(bytes);
    }

    /// Stores a big-endian IEEE-754 single at `off`.
    #[inline]
    pub fn put_f32_be_at(&mut self, off: usize, v: f32) {
        self.put_u32_be_at(off, v.to_bits());
    }

    /// Stores a big-endian IEEE-754 double at `off`.
    #[inline]
    pub fn put_f64_be_at(&mut self, off: usize, v: f64) {
        self.put_u64_be_at(off, v.to_bits());
    }
}

/// A decode cursor over a received message.
#[derive(Clone, Debug)]
pub struct MsgReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> MsgReader<'a> {
    /// Wraps a received message.
    #[must_use]
    pub fn new(data: &'a [u8]) -> Self {
        MsgReader { data, pos: 0 }
    }

    /// Current read offset from the start of the message.
    #[inline]
    #[must_use]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    #[inline]
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True when the whole message has been consumed.
    #[inline]
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Opens a fixed-layout chunk of `n` bytes: one truncation check,
    /// then infallible constant-offset reads.
    #[inline]
    pub fn chunk(&mut self, n: usize) -> Result<ChunkReader<'a>, DecodeError> {
        Ok(ChunkReader { s: self.take(n)? })
    }

    /// Borrows `n` raw bytes from the message (the zero-copy,
    /// "present data in the marshal buffer" path of §3.1).
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take(n)
    }

    /// Borrows a run of `count` elements of `elem_size` bytes each:
    /// the one place a wire-supplied count meets a multiply.  The
    /// product is checked, so a hostile count is a truncation error,
    /// never a wrapped length.
    #[inline]
    pub fn run(&mut self, count: usize, elem_size: usize) -> Result<&'a [u8], DecodeError> {
        match count.checked_mul(elem_size) {
            Some(n) => self.take(n),
            None => Err(DecodeError::Truncated {
                needed: usize::MAX,
                available: self.remaining(),
            }),
        }
    }

    /// Opens a run of `count` fixed-layout elements of `stride` bytes
    /// each as consecutive chunks: one checked multiply and one
    /// truncation check for the whole array, then infallible
    /// constant-offset reads per element.
    ///
    /// # Panics
    /// Panics if `stride` is zero.
    #[inline]
    pub fn strides(
        &mut self,
        count: usize,
        stride: usize,
    ) -> Result<impl Iterator<Item = ChunkReader<'a>>, DecodeError> {
        Ok(self
            .run(count, stride)?
            .chunks_exact(stride)
            .map(|s| ChunkReader { s }))
    }

    /// Skips `n` bytes (padding).
    #[inline]
    pub fn skip(&mut self, n: usize) -> Result<(), DecodeError> {
        self.take(n).map(|_| ())
    }

    /// Advances to the next multiple of `align` from message start.
    #[inline]
    pub fn align_to(&mut self, align: usize) -> Result<(), DecodeError> {
        let target = crate::align_up(self.pos, align);
        self.skip(target - self.pos)
    }

    /// Reads a big-endian `u32` (per-datum path).
    #[inline]
    pub fn get_u32_be(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn get_u32_le(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian `u64`.
    #[inline]
    pub fn get_u64_be(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes(b.try_into().expect("len 8")))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn get_u64_le(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("len 8")))
    }

    /// Reads a big-endian `u16`.
    #[inline]
    pub fn get_u16_be(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn get_u16_le(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Skips padding so `pos - base` becomes a multiple of `align`.
    #[inline]
    pub fn align_from(&mut self, base: usize, align: usize) -> Result<(), DecodeError> {
        let pos = self.pos - base;
        let target = crate::align_up(pos, align);
        self.skip(target - pos)
    }

    /// Reads one byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
}

/// Reads a fixed-layout region by constant offsets (decode-side chunk
/// pointer).  All methods are infallible: the single truncation check
/// happened in [`MsgReader::chunk`].
#[derive(Clone, Copy, Debug)]
pub struct ChunkReader<'a> {
    s: &'a [u8],
}

impl<'a> ChunkReader<'a> {
    /// Chunk size in bytes.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.s.len()
    }

    /// True for a zero-length chunk.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.s.is_empty()
    }

    /// Loads a big-endian `u32` from `off`.
    #[inline]
    #[must_use]
    pub fn get_u32_be_at(&self, off: usize) -> u32 {
        u32::from_be_bytes(self.s[off..off + 4].try_into().expect("len 4"))
    }

    /// Loads a little-endian `u32` from `off`.
    #[inline]
    #[must_use]
    pub fn get_u32_le_at(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.s[off..off + 4].try_into().expect("len 4"))
    }

    /// Loads a big-endian `u64` from `off`.
    #[inline]
    #[must_use]
    pub fn get_u64_be_at(&self, off: usize) -> u64 {
        u64::from_be_bytes(self.s[off..off + 8].try_into().expect("len 8"))
    }

    /// Loads a big-endian `u16` from `off`.
    #[inline]
    #[must_use]
    pub fn get_u16_be_at(&self, off: usize) -> u16 {
        u16::from_be_bytes(self.s[off..off + 2].try_into().expect("len 2"))
    }

    /// Loads a little-endian `u16` from `off`.
    #[inline]
    #[must_use]
    pub fn get_u16_le_at(&self, off: usize) -> u16 {
        u16::from_le_bytes(self.s[off..off + 2].try_into().expect("len 2"))
    }

    /// Loads a little-endian `u64` from `off`.
    #[inline]
    #[must_use]
    pub fn get_u64_le_at(&self, off: usize) -> u64 {
        u64::from_le_bytes(self.s[off..off + 8].try_into().expect("len 8"))
    }

    /// Loads one byte from `off`.
    #[inline]
    #[must_use]
    pub fn get_u8_at(&self, off: usize) -> u8 {
        self.s[off]
    }

    /// Borrows `n` bytes starting at `off`.
    #[inline]
    #[must_use]
    pub fn bytes_at(&self, off: usize, n: usize) -> &'a [u8] {
        &self.s[off..off + n]
    }

    /// Loads a big-endian IEEE-754 single from `off`.
    #[inline]
    #[must_use]
    pub fn get_f32_be_at(&self, off: usize) -> f32 {
        f32::from_bits(self.get_u32_be_at(off))
    }

    /// Loads a big-endian IEEE-754 double from `off`.
    #[inline]
    #[must_use]
    pub fn get_f64_be_at(&self, off: usize) -> f64 {
        f64::from_bits(self.get_u64_be_at(off))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_keeps_capacity() {
        let mut b = MarshalBuf::with_capacity(128);
        b.put_bytes(&[1; 100]);
        let cap_before = b.data.capacity();
        b.clear();
        assert_eq!(b.len(), 0);
        assert!(b.data.capacity() >= cap_before, "reuse keeps allocation");
    }

    #[test]
    fn chunk_roundtrip() {
        let mut b = MarshalBuf::new();
        b.ensure(16);
        {
            let mut c = b.chunk(16);
            c.put_u32_be_at(0, 0xdead_beef);
            c.put_u16_be_at(4, 0x1234);
            c.put_u8_at(6, 0x56);
            c.put_u64_be_at(8, 0x0102_0304_0506_0708);
        }
        let mut r = MsgReader::new(b.as_slice());
        let c = r.chunk(16).unwrap();
        assert_eq!(c.get_u32_be_at(0), 0xdead_beef);
        assert_eq!(c.get_u16_be_at(4), 0x1234);
        assert_eq!(c.get_u8_at(6), 0x56);
        assert_eq!(c.get_u64_be_at(8), 0x0102_0304_0506_0708);
        assert!(r.is_exhausted());
    }

    #[test]
    fn floats_roundtrip() {
        let mut b = MarshalBuf::new();
        let mut c = b.chunk(12);
        c.put_f32_be_at(0, 1.5);
        c.put_f64_be_at(4, -2.25);
        let mut r = MsgReader::new(b.as_slice());
        let c = r.chunk(12).unwrap();
        assert_eq!(c.get_f32_be_at(0), 1.5);
        assert_eq!(c.get_f64_be_at(4), -2.25);
    }

    #[test]
    fn truncated_chunk_errors() {
        let data = [0u8; 3];
        let mut r = MsgReader::new(&data);
        let e = r.chunk(4).unwrap_err();
        assert_eq!(
            e,
            DecodeError::Truncated {
                needed: 4,
                available: 3
            }
        );
    }

    #[test]
    fn align_and_padding() {
        let mut b = MarshalBuf::new();
        b.put_u8(1);
        b.align_to(4);
        assert_eq!(b.len(), 4);
        b.put_u8(2);
        b.put_zeros(3);
        assert_eq!(b.as_slice(), &[1, 0, 0, 0, 2, 0, 0, 0]);

        let mut r = MsgReader::new(b.as_slice());
        r.get_u8().unwrap();
        r.align_to(4).unwrap();
        assert_eq!(r.pos(), 4);
        assert_eq!(r.get_u8().unwrap(), 2);
    }

    #[test]
    fn patch_length_header() {
        let mut b = MarshalBuf::new();
        b.put_u32_be(0); // placeholder
        b.put_bytes(b"payload");
        let len = (b.len() - 4) as u32;
        b.patch_u32_be(0, len);
        let mut r = MsgReader::new(b.as_slice());
        assert_eq!(r.get_u32_be().unwrap(), 7);
    }

    #[test]
    fn endianness_both() {
        let mut b = MarshalBuf::new();
        b.put_u32_be(0x0102_0304);
        b.put_u32_le(0x0102_0304);
        assert_eq!(b.as_slice(), &[1, 2, 3, 4, 4, 3, 2, 1]);
        let mut r = MsgReader::new(b.as_slice());
        assert_eq!(r.get_u32_be().unwrap(), 0x0102_0304);
        assert_eq!(r.get_u32_le().unwrap(), 0x0102_0304);
    }

    #[test]
    fn zero_copy_bytes_borrow() {
        let data = b"hello world".to_vec();
        let mut r = MsgReader::new(&data);
        let s = r.bytes(5).unwrap();
        assert_eq!(s, b"hello");
        // The borrow points into the original message (in-buffer
        // presentation): same address range.
        assert_eq!(s.as_ptr(), data.as_ptr());
    }

    #[test]
    fn run_checks_the_count_times_size_product() {
        let data = [0u8; 64];
        let mut r = MsgReader::new(&data);
        assert_eq!(r.run(4, 4).unwrap().len(), 16);
        assert_eq!(r.pos(), 16);
        // One byte short of 13 elements: truncated, nothing consumed.
        assert_eq!(
            r.run(13, 4).unwrap_err(),
            DecodeError::Truncated {
                needed: 52,
                available: 48
            }
        );
        assert_eq!(r.pos(), 16);
        // A wire-supplied count whose product wraps `usize` is a
        // truncation error too, never a short read.
        for huge in [usize::MAX / 2, usize::MAX / 4 + 1, usize::MAX] {
            let e = r.run(huge, 4).unwrap_err();
            assert!(
                matches!(e, DecodeError::Truncated { available: 48, .. }),
                "count {huge}: {e:?}"
            );
            assert!(r.strides(huge, 16).is_err());
            assert_eq!(r.pos(), 16);
        }
        assert_eq!(r.run(0, 8).unwrap().len(), 0);
    }

    #[test]
    fn strided_chunks_roundtrip() {
        let mut b = MarshalBuf::new();
        b.put_u8(0xEE); // the run need not start aligned
        let vals = [(1u32, 2u16), (3, 4), (5, 6)];
        {
            let mut c = b.chunk(vals.len() * 8);
            assert_eq!(c.strides(8).count(), 3);
            for (mut s, (a, h)) in c.strides(8).zip(vals) {
                assert_eq!(s.len(), 8);
                s.put_u32_be_at(0, a);
                s.put_u16_le_at(4, h);
            }
        }
        assert_eq!(b.len(), 25);
        let mut r = MsgReader::new(b.as_slice());
        r.skip(1).unwrap();
        let back: Vec<(u32, u16)> = r
            .strides(3, 8)
            .unwrap()
            .map(|c| (c.get_u32_be_at(0), c.get_u16_le_at(4)))
            .collect();
        assert_eq!(back, vals);
        assert!(r.is_exhausted());
        // An empty run opens no chunks and consumes nothing.
        assert_eq!(r.strides(0, 8).unwrap().count(), 0);
    }

    #[test]
    fn put_swapped_appends_one_reversed_run() {
        let mut b = MarshalBuf::new();
        b.put_u8(7);
        b.put_swapped(4, &[1, 2, 3, 4, 5, 6, 7, 8]);
        b.put_swapped(2, &[]);
        assert_eq!(b.as_slice(), &[7, 4, 3, 2, 1, 8, 7, 6, 5]);
    }

    #[test]
    fn reader_skip_and_remaining() {
        let data = [0u8; 10];
        let mut r = MsgReader::new(&data);
        r.skip(4).unwrap();
        assert_eq!(r.remaining(), 6);
        assert!(r.skip(7).is_err());
        assert_eq!(r.remaining(), 6, "failed skip consumes nothing");
    }
}
