//! An in-process, TCP-like byte stream.
//!
//! Bytes written to one endpoint arrive in order at the other, with no
//! message boundaries — exactly the property that forces ONC RPC to
//! use record marking and GIOP to carry message sizes.  Blocking reads
//! make thread-per-peer request/reply exchanges natural.

use crate::chan::{Waiters, Wake};
use flick_runtime::fabric::{Conn, ReadStatus, WriteStatus};
use flick_runtime::{pool, MarshalBuf};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// A pipe's bytes live in a ring that holds bulk storage only while a
/// bulk write is buffered: a write of more than the pool's floor into
/// the empty ring draws its storage from the writing thread's pool,
/// and the read that drains the ring releases it into the reading
/// thread's pool, as a datagram's buffer crosses.  Smaller storage
/// stays with the ring.
#[derive(Default)]
struct PipeState {
    buf: VecDeque<u8>,
    /// The most bytes the ring has held since it was last empty: the
    /// length of the message its storage carried.  A `u32` (saturating)
    /// fits beside `closed` and the waiter counts, so a pipe is no
    /// larger for it.
    carried: u32,
    closed: bool,
    /// Threads parked on `Pipe::ready` / `Pipe::space`.
    readers: Waiters,
    writers: Waiters,
}

impl PipeState {
    /// Lends the ring's storage, as a [`MarshalBuf`], to `f` — O(1)
    /// both ways while the ring is empty.  Out of line: only bulk
    /// writes and drains come here.
    #[cold]
    #[inline(never)]
    fn with_storage(&mut self, f: impl FnOnce(&mut MarshalBuf)) {
        let mut storage = MarshalBuf::from(Vec::from(std::mem::take(&mut self.buf)));
        f(&mut storage);
        self.buf = storage.into_vec().into();
    }

    /// Appends `bytes`, drawing storage for a bulk write into an empty
    /// ring.
    fn put(&mut self, bytes: &[u8]) {
        if pool::is_bulk(bytes.len()) && self.buf.is_empty() && self.buf.capacity() < bytes.len() {
            self.with_storage(|s| pool::draw(s, bytes.len()));
        }
        self.buf.extend(bytes);
        let held = u32::try_from(self.buf.len()).unwrap_or(u32::MAX);
        self.carried = self.carried.max(held);
    }

    /// Moves the first `n` buffered bytes out through `sink`, as the
    /// ring's (at most two) contiguous slices.
    fn take(&mut self, n: usize, mut sink: impl FnMut(&[u8])) {
        let (a, b) = self.buf.as_slices();
        if n <= a.len() {
            sink(&a[..n]);
        } else {
            sink(a);
            sink(&b[..n - a.len()]);
        }
        self.buf.drain(..n);
        if self.buf.is_empty() && pool::is_bulk(self.buf.capacity()) {
            let carried = std::mem::take(&mut self.carried) as usize;
            self.with_storage(|s| pool::release(s, carried));
        }
    }
}

struct Pipe {
    state: Mutex<PipeState>,
    /// Signals bytes available (or close) to blocked readers.
    ready: Wake,
    /// Signals freed capacity (or close) to blocked writers.
    space: Wake,
    /// Buffered-byte bound; `usize::MAX` = unbounded (historical
    /// behavior).  A bounded pipe is what makes backpressure real:
    /// when a fabric stops reading, the pipe fills, and the writing
    /// client blocks.
    cap: usize,
}

impl Pipe {
    fn with_cap(cap: usize) -> Self {
        Pipe {
            state: Mutex::default(),
            ready: Wake::default(),
            space: Wake::default(),
            cap,
        }
    }

    fn write(&self, bytes: &[u8]) {
        let mut done = 0;
        let mut s = self.state.lock().expect("pipe poisoned");
        while done < bytes.len() {
            if s.closed {
                return; // writing to a closed pipe discards, like a dead socket
            }
            let room = self.cap.saturating_sub(s.buf.len());
            if room == 0 {
                s = self.space.wait(s, |s| &mut s.writers);
                continue;
            }
            let n = room.min(bytes.len() - done);
            s.put(&bytes[done..done + n]);
            done += n;
            self.ready.wake_all(&s.readers);
        }
    }

    fn try_write(&self, bytes: &[u8]) -> WriteStatus {
        let mut s = self.state.lock().expect("pipe poisoned");
        if s.closed {
            return WriteStatus::Closed;
        }
        let room = self.cap.saturating_sub(s.buf.len());
        if room == 0 {
            return WriteStatus::Full;
        }
        let n = room.min(bytes.len());
        s.put(&bytes[..n]);
        self.ready.wake_all(&s.readers);
        WriteStatus::Wrote(n)
    }

    fn read_exact(&self, out: &mut [u8]) -> bool {
        let mut s = self.state.lock().expect("pipe poisoned");
        while s.buf.len() < out.len() {
            if s.closed {
                return false;
            }
            s = self.ready.wait(s, |s| &mut s.readers);
        }
        let mut at = 0;
        s.take(out.len(), |part| {
            out[at..at + part.len()].copy_from_slice(part);
            at += part.len();
        });
        self.space.wake_all(&s.writers);
        true
    }

    fn read_available(&self, out: &mut MarshalBuf, max: usize) -> ReadStatus {
        let mut s = self.state.lock().expect("pipe poisoned");
        if s.buf.is_empty() {
            return if s.closed {
                ReadStatus::Closed
            } else {
                ReadStatus::Empty
            };
        }
        let n = s.buf.len().min(max);
        pool::draw(out, n);
        s.take(n, |part| out.put_bytes(part));
        self.space.wake_all(&s.writers);
        ReadStatus::Read(n)
    }

    fn close(&self) {
        let mut s = self.state.lock().expect("pipe poisoned");
        s.closed = true;
        self.ready.wake_all_always();
        self.space.wake_all_always();
    }
}

/// One end of a bidirectional byte stream.
pub struct StreamEnd {
    tx: Arc<Pipe>,
    rx: Arc<Pipe>,
}

impl StreamEnd {
    /// Writes all of `bytes`.  On a [`stream_pair`] this never blocks;
    /// on a [`stream_pair_bounded`] pipe it blocks while the pipe is
    /// full, until the peer reads (or either end closes, which
    /// discards the rest).
    pub fn write(&self, bytes: &[u8]) {
        crate::metrics::sent(crate::metrics::Kind::Stream, bytes.len() as u64);
        self.tx.write(bytes);
    }

    /// Reads exactly `n` bytes, blocking until available.
    /// Returns `None` if the peer closed first.
    #[must_use]
    pub fn read_exact(&self, n: usize) -> Option<Vec<u8>> {
        let mut out = vec![0u8; n];
        self.read_exact_into(&mut out).then_some(out)
    }

    /// Fills `out` exactly, blocking until the bytes are available.
    /// Returns `false` if the peer closed first.
    #[must_use]
    pub fn read_exact_into(&self, out: &mut [u8]) -> bool {
        let clock = flick_telemetry::stopwatch();
        let read = self.rx.read_exact(out);
        if read {
            crate::metrics::received(
                crate::metrics::Kind::Stream,
                out.len() as u64,
                flick_telemetry::elapsed_ns(clock),
            );
        }
        read
    }

    /// Non-blocking write: accepts as much of `bytes` as the pipe's
    /// capacity allows right now (possibly nothing).
    pub fn try_write(&self, bytes: &[u8]) -> WriteStatus {
        let st = self.tx.try_write(bytes);
        if let WriteStatus::Wrote(n) = st {
            crate::metrics::sent(crate::metrics::Kind::Stream, n as u64);
        }
        st
    }

    /// Non-blocking read: appends up to `max` available bytes to
    /// `out`.
    pub fn read_available(&self, out: &mut MarshalBuf, max: usize) -> ReadStatus {
        let st = self.rx.read_available(out, max);
        if let ReadStatus::Read(n) = st {
            crate::metrics::received(crate::metrics::Kind::Stream, n as u64, 0);
        }
        st
    }

    /// Closes this end; the peer's blocked reads return `None`.
    pub fn close(&self) {
        self.tx.close();
        self.rx.close();
    }
}

/// Dropping an end closes it, like dropping a socket: the peer drains
/// any buffered bytes and then observes `Closed` — without this a
/// fabric would pump abandoned connections forever.
impl Drop for StreamEnd {
    fn drop(&mut self) {
        StreamEnd::close(self);
    }
}

/// A [`StreamEnd`] is a fabric connection as-is: the non-blocking
/// read/write pair maps straight onto the pipe primitives.
impl Conn for StreamEnd {
    fn read_into(&mut self, buf: &mut MarshalBuf, max: usize) -> ReadStatus {
        StreamEnd::read_available(self, buf, max)
    }

    fn write_some(&mut self, bytes: &[u8]) -> WriteStatus {
        StreamEnd::try_write(self, bytes)
    }

    fn close(&mut self) {
        StreamEnd::close(self);
    }
}

/// Creates a connected pair of stream endpoints with unbounded
/// buffering.
#[must_use]
pub fn stream_pair() -> (StreamEnd, StreamEnd) {
    stream_pair_with(usize::MAX)
}

/// Creates a connected pair of stream endpoints whose pipes buffer at
/// most `cap` bytes in each direction.  Blocking writes wait for
/// space, so a peer that stops reading stalls its writer — the
/// transport-level half of the fabric's backpressure contract.
#[must_use]
pub fn stream_pair_bounded(cap: usize) -> (StreamEnd, StreamEnd) {
    stream_pair_with(cap)
}

fn stream_pair_with(cap: usize) -> (StreamEnd, StreamEnd) {
    let a = Arc::new(Pipe::with_cap(cap));
    let b = Arc::new(Pipe::with_cap(cap));
    (
        StreamEnd {
            tx: a.clone(),
            rx: b.clone(),
        },
        StreamEnd { tx: b, rx: a },
    )
}

/// Writes an ONC RPC record (record marking) to a stream, framed in a
/// buffer from the thread's pool.
pub fn write_record(s: &StreamEnd, record: &[u8]) {
    let mut framed = pool::checkout_with(record.len() + 4);
    flick_runtime::oncrpc::frame_record_into(record, &mut framed);
    s.write(framed.as_slice());
}

/// Reads one ONC RPC record from a stream (handles multi-fragment
/// records). Returns `None` on close, and on a record mark announcing
/// more than [`flick_runtime::oncrpc::MAX_RECORD_BYTES`] — a hostile
/// `0x7fffffff` mark must not force a 2 GiB allocation, and a framing
/// violation on a byte stream is connection-fatal anyway.
#[must_use]
pub fn read_record(s: &StreamEnd) -> Option<Vec<u8>> {
    read_record_limited(s, flick_runtime::oncrpc::MAX_RECORD_BYTES)
}

/// [`read_record`] with a caller-chosen cap on the assembled record
/// (and on any single fragment).  Each fragment is read straight into
/// the record, so a single-fragment record costs one allocation.
#[must_use]
pub fn read_record_limited(s: &StreamEnd, max_bytes: usize) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    loop {
        let mut mark = [0u8; 4];
        if !s.read_exact_into(&mut mark) {
            return None;
        }
        let mark = u32::from_be_bytes(mark);
        let last = mark & 0x8000_0000 != 0;
        let len = (mark & 0x7fff_ffff) as usize;
        if len > max_bytes || out.len() + len > max_bytes {
            flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Xdr);
            return None;
        }
        let at = out.len();
        out.resize(at + len, 0);
        if !s.read_exact_into(&mut out[at..]) {
            return None;
        }
        if last {
            return Some(out);
        }
    }
}

/// Writes a GIOP message (header already includes the size).
pub fn write_giop(s: &StreamEnd, message: &[u8]) {
    s.write(message);
}

/// Reads one GIOP message from a stream by first reading its 12-byte
/// header, then the body it announces.  Returns the complete message.
/// A header announcing more than
/// [`flick_runtime::giop::MAX_MESSAGE_BYTES`] is rejected inside
/// `read_header` before any body allocation — `None`, like any other
/// framing violation.
#[must_use]
pub fn read_giop(s: &StreamEnd) -> Option<Vec<u8>> {
    read_giop_limited(s, flick_runtime::giop::MAX_MESSAGE_BYTES)
}

/// [`read_giop`] with a caller-chosen cap on the announced body size
/// (a [`flick_runtime::Limits::max_frame_bytes`], read as a GIOP
/// body cap).
#[must_use]
pub fn read_giop_limited(s: &StreamEnd, max_bytes: usize) -> Option<Vec<u8>> {
    use flick_runtime::giop::{self, HEADER_BYTES};
    let mut header = [0u8; HEADER_BYTES];
    if !s.read_exact_into(&mut header) {
        return None;
    }
    let mut r = flick_runtime::MsgReader::new(&header);
    let h = giop::read_header_limited(&mut r, max_bytes).ok()?;
    let mut msg = Vec::with_capacity(HEADER_BYTES + h.size as usize);
    msg.extend_from_slice(&header);
    msg.resize(HEADER_BYTES + h.size as usize, 0);
    s.read_exact_into(&mut msg[HEADER_BYTES..]).then_some(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chan::wakes_issued;
    use std::thread;

    #[test]
    fn bytes_flow_both_ways() {
        let (a, b) = stream_pair();
        a.write(b"hello");
        assert_eq!(b.read_exact(5).unwrap(), b"hello");
        b.write(b"world!");
        assert_eq!(a.read_exact(6).unwrap(), b"world!");
    }

    #[test]
    fn no_message_boundaries() {
        let (a, b) = stream_pair();
        a.write(b"ab");
        a.write(b"cd");
        assert_eq!(b.read_exact(3).unwrap(), b"abc");
        assert_eq!(b.read_exact(1).unwrap(), b"d");
    }

    #[test]
    fn blocking_read_across_threads() {
        let (a, b) = stream_pair();
        let t = thread::spawn(move || b.read_exact(4).unwrap());
        thread::sleep(std::time::Duration::from_millis(10));
        a.write(b"ping");
        assert_eq!(t.join().unwrap(), b"ping");
    }

    #[test]
    fn close_unblocks_reader() {
        let (a, b) = stream_pair();
        let t = thread::spawn(move || b.read_exact(4));
        thread::sleep(std::time::Duration::from_millis(10));
        a.close();
        assert_eq!(t.join().unwrap(), None);
    }

    #[test]
    fn record_marking_roundtrip() {
        let (a, b) = stream_pair();
        write_record(&a, b"first record");
        write_record(&a, b"second");
        assert_eq!(read_record(&b).unwrap(), b"first record");
        assert_eq!(read_record(&b).unwrap(), b"second");
    }

    #[test]
    fn hostile_record_mark_does_not_allocate() {
        let (a, b) = stream_pair();
        // Final-fragment mark announcing 2 GiB with no payload behind.
        a.write(&0xffff_ffffu32.to_be_bytes());
        assert_eq!(read_record(&b), None);

        // A giant GIOP size field dies in read_header the same way.
        let mut hdr = vec![b'G', b'I', b'O', b'P', 1, 0, 0, 0];
        hdr.extend_from_slice(&u32::MAX.to_be_bytes());
        a.write(&hdr);
        assert_eq!(read_giop(&b), None);
    }

    #[test]
    fn record_cap_is_configurable() {
        let (a, b) = stream_pair();
        write_record(&a, &[7u8; 64]);
        assert_eq!(read_record_limited(&b, 32), None);
        let (a, b) = stream_pair();
        write_record(&a, &[7u8; 64]);
        assert_eq!(read_record_limited(&b, 64).unwrap().len(), 64);
    }

    #[test]
    fn bounded_pair_blocks_writer_until_reader_drains() {
        let (a, b) = stream_pair_bounded(8);
        // Non-blocking: fills the 8-byte pipe, then reports Full.
        assert_eq!(a.try_write(&[1; 6]), WriteStatus::Wrote(6));
        assert_eq!(a.try_write(&[2; 6]), WriteStatus::Wrote(2));
        assert_eq!(a.try_write(&[3; 1]), WriteStatus::Full);

        // Blocking write waits for the reader to make room.
        let t = thread::spawn(move || {
            a.write(&[4; 8]);
            a.close();
        });
        let mut got = Vec::new();
        while got.len() < 16 {
            got.extend(b.read_exact(1).unwrap());
        }
        t.join().unwrap();
        assert_eq!(&got[8..], &[4; 8]);
    }

    #[test]
    fn read_exact_spans_the_ring_seam() {
        let (a, b) = stream_pair();
        a.write(&[0, 1, 2, 3, 4, 5]);
        assert_eq!(b.read_exact(5).unwrap(), [0, 1, 2, 3, 4]);
        // The ring (8 slots for six bytes) now wraps: the next read
        // comes out of both of its slices.
        a.write(&[6, 7, 8, 9, 10, 11]);
        assert!(!a.tx.state.lock().unwrap().buf.as_slices().1.is_empty());
        assert_eq!(b.read_exact(7).unwrap(), [5, 6, 7, 8, 9, 10, 11]);
    }

    #[test]
    fn no_wake_without_a_waiter() {
        let (a, b) = stream_pair();
        let mut buf = MarshalBuf::new();
        let before = wakes_issued();
        for _ in 0..10_000 {
            assert_eq!(a.try_write(&[7; 100]), WriteStatus::Wrote(100));
            buf.clear();
            assert_eq!(b.read_available(&mut buf, 4096), ReadStatus::Read(100));
        }
        assert_eq!(wakes_issued(), before, "nobody was parked");
    }

    #[test]
    fn a_parked_reader_and_a_parked_writer_are_woken() {
        let (a, b) = stream_pair_bounded(4);
        let reader = thread::scope(|sc| {
            let t = sc.spawn(|| b.read_exact(4).unwrap());
            // Non-zero only once `read_exact` is inside the condvar
            // wait with the mutex released, i.e. really parked.
            while a.tx.state.lock().unwrap().readers.parked() == 0 {
                thread::yield_now();
            }
            let before = wakes_issued();
            a.write(b"ping");
            assert!(wakes_issued() > before);
            t.join().unwrap()
        });
        assert_eq!(reader, b"ping");

        a.write(b"full");
        thread::scope(|sc| {
            let t = sc.spawn(|| a.write(b"more"));
            while a.tx.state.lock().unwrap().writers.parked() == 0 {
                thread::yield_now();
            }
            let before = wakes_issued();
            assert_eq!(b.read_exact(4).unwrap(), b"full");
            assert!(wakes_issued() > before);
            t.join().unwrap();
        });
        assert_eq!(b.read_exact(4).unwrap(), b"more");
    }

    #[test]
    fn read_available_is_nonblocking() {
        use flick_runtime::MarshalBuf;
        let (a, b) = stream_pair();
        let mut buf = MarshalBuf::new();
        assert_eq!(b.read_available(&mut buf, 16), ReadStatus::Empty);
        a.write(b"abcdef");
        assert_eq!(b.read_available(&mut buf, 4), ReadStatus::Read(4));
        assert_eq!(b.read_available(&mut buf, 16), ReadStatus::Read(2));
        assert_eq!(buf.as_slice(), b"abcdef");
        a.close();
        assert_eq!(b.read_available(&mut buf, 16), ReadStatus::Closed);
    }

    #[test]
    fn giop_framing_roundtrip() {
        use flick_runtime::cdr::ByteOrder;
        use flick_runtime::giop::{begin_message, finish_message, MsgType};
        use flick_runtime::MarshalBuf;

        let mut buf = MarshalBuf::new();
        let at = begin_message(&mut buf, ByteOrder::Big, MsgType::Request);
        buf.put_bytes(b"payload!");
        finish_message(&mut buf, at, ByteOrder::Big);

        let (a, b) = stream_pair();
        write_giop(&a, buf.as_slice());
        let msg = read_giop(&b).unwrap();
        assert_eq!(msg, buf.as_slice());
    }
}
