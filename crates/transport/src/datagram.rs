//! An in-process, UDP-like datagram transport.
//!
//! Messages preserve boundaries; an optional maximum datagram size
//! models UDP's practical limits (the paper notes rpcgen/PowerRPC
//! stubs *fail* on large messages — oversized sends here return an
//! error rather than silently fragmenting).

use crate::chan::{unbounded, Receiver, Sender};
use flick_runtime::PooledBuf;

/// Error returned when a datagram exceeds the socket's maximum size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TooBig {
    /// Attempted payload size.
    pub size: usize,
    /// The socket's limit.
    pub max: usize,
}

impl std::fmt::Display for TooBig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "datagram of {} bytes exceeds maximum {}",
            self.size, self.max
        )
    }
}

impl std::error::Error for TooBig {}

/// One end of a datagram socket pair.  A datagram crosses in a buffer
/// from the sending thread's pool and recycles into the receiving
/// thread's pool when dropped, so request/reply traffic keeps both
/// pools balanced and a warm link allocates nothing.
pub struct DatagramEnd {
    tx: Sender<PooledBuf>,
    rx: Receiver<PooledBuf>,
    max: usize,
}

impl DatagramEnd {
    /// Sends one datagram.
    ///
    /// # Errors
    /// Fails if the payload exceeds the maximum datagram size.
    pub fn send(&self, payload: &[u8]) -> Result<(), TooBig> {
        if payload.len() > self.max {
            return Err(TooBig {
                size: payload.len(),
                max: self.max,
            });
        }
        crate::metrics::sent(crate::metrics::Kind::Datagram, payload.len() as u64);
        let mut msg = flick_runtime::pool::checkout();
        msg.put_bytes(payload);
        self.tx.send(msg);
        Ok(())
    }

    /// Receives one datagram, blocking. `None` when the peer is gone.
    #[must_use]
    pub fn recv(&self) -> Option<PooledBuf> {
        let clock = flick_telemetry::stopwatch();
        let msg = self.rx.recv()?;
        crate::metrics::received(
            crate::metrics::Kind::Datagram,
            msg.len() as u64,
            flick_telemetry::elapsed_ns(clock),
        );
        Some(msg)
    }

    /// Receives one datagram, waiting at most `timeout`.
    #[must_use]
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> crate::chan::Recv<PooledBuf> {
        let clock = flick_telemetry::stopwatch();
        let out = self.rx.recv_timeout(timeout);
        if let crate::chan::Recv::Msg(msg) = &out {
            crate::metrics::received(
                crate::metrics::Kind::Datagram,
                msg.len() as u64,
                flick_telemetry::elapsed_ns(clock),
            );
        }
        out
    }

    /// The maximum datagram size.
    #[must_use]
    pub fn max_size(&self) -> usize {
        self.max
    }
}

impl flick_runtime::client::Endpoint for DatagramEnd {
    fn send(&self, payload: &[u8]) -> Result<(), &'static str> {
        DatagramEnd::send(self, payload).map_err(|_| "datagram too big")
    }

    fn recv_deadline(&self, timeout: std::time::Duration) -> flick_runtime::client::RecvOutcome {
        match self.recv_timeout(timeout) {
            crate::chan::Recv::Msg(m) => flick_runtime::client::RecvOutcome::Msg(m),
            crate::chan::Recv::TimedOut => flick_runtime::client::RecvOutcome::TimedOut,
            crate::chan::Recv::Closed => flick_runtime::client::RecvOutcome::Closed,
        }
    }
}

/// Adapts a [`DatagramEnd`] to the fabric's byte-oriented
/// [`flick_runtime::fabric::Conn`]: inbound datagrams are surfaced as
/// record-marked bytes (one datagram = one final-fragment ONC record),
/// and outbound record-marked bytes are unframed back into one
/// datagram per record.  Drive it with
/// [`flick_runtime::fabric::Framing::OncRecord`].
pub struct DatagramConn {
    end: DatagramEnd,
}

impl DatagramConn {
    /// Wraps `end` for fabric service.
    #[must_use]
    pub fn new(end: DatagramEnd) -> Self {
        DatagramConn { end }
    }
}

impl flick_runtime::fabric::Conn for DatagramConn {
    fn read_into(
        &mut self,
        buf: &mut flick_runtime::MarshalBuf,
        _max: usize,
    ) -> flick_runtime::fabric::ReadStatus {
        // Datagrams are indivisible: `max` bounds stream reads, but a
        // whole datagram is appended or nothing (its size is already
        // capped by the socket's own limit).  The payload's buffer
        // recycles once copied.
        match self.end.rx.try_recv() {
            crate::chan::Recv::Msg(payload) => {
                crate::metrics::received(crate::metrics::Kind::Datagram, payload.len() as u64, 0);
                buf.put_u32_be(0x8000_0000 | payload.len() as u32);
                buf.put_bytes(payload.as_slice());
                flick_runtime::fabric::ReadStatus::Read(payload.len() + 4)
            }
            crate::chan::Recv::TimedOut => flick_runtime::fabric::ReadStatus::Empty,
            crate::chan::Recv::Closed => flick_runtime::fabric::ReadStatus::Closed,
        }
    }

    fn write_some(&mut self, bytes: &[u8]) -> flick_runtime::fabric::WriteStatus {
        use flick_runtime::oncrpc::{scan_record_limited, RecordScan};
        let mut consumed = 0;
        while consumed < bytes.len() {
            match scan_record_limited(&bytes[consumed..], self.end.max) {
                Ok(RecordScan::Complete(payload, used)) => {
                    if self.end.send(payload).is_err() {
                        return flick_runtime::fabric::WriteStatus::Closed;
                    }
                    consumed += used;
                }
                // A partial or fragmented tail behind a sent record
                // waits in the driver's queue for the next round.
                Ok(_) if consumed > 0 => break,
                // The fabric's output queue only ever holds whole
                // single-fragment records, so a partial or multi-
                // fragment record at the *front* can never become a
                // datagram: fail fast rather than livelock on
                // `Full` retries of the same unsendable bytes.
                Ok(RecordScan::Partial | RecordScan::Fragmented) => {
                    return flick_runtime::fabric::WriteStatus::Closed
                }
                Err(_) => return flick_runtime::fabric::WriteStatus::Closed,
            }
        }
        flick_runtime::fabric::WriteStatus::Wrote(consumed)
    }

    fn close(&mut self) {}

    fn is_datagram(&self) -> bool {
        // The fabric drops expired requests silently here: a datagram
        // caller recovers by retransmitting, not by reading an error.
        true
    }
}

/// The classic UDP practical limit the paper's failing stubs ran into.
pub const DEFAULT_MAX_DATAGRAM: usize = 64 * 1024 - 8;

/// Creates a connected datagram socket pair with the given size limit.
#[must_use]
pub fn datagram_pair(max: usize) -> (DatagramEnd, DatagramEnd) {
    let (atx, arx) = unbounded();
    let (btx, brx) = unbounded();
    (
        DatagramEnd {
            tx: atx,
            rx: brx,
            max,
        },
        DatagramEnd {
            tx: btx,
            rx: arx,
            max,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_preserved() {
        let (a, b) = datagram_pair(DEFAULT_MAX_DATAGRAM);
        a.send(b"one").unwrap();
        a.send(b"two").unwrap();
        assert_eq!(b.recv().unwrap().as_slice(), b"one");
        assert_eq!(b.recv().unwrap().as_slice(), b"two");
    }

    #[test]
    fn oversized_datagram_fails() {
        // The paper's Figure 4 note: rpcgen/PowerRPC stubs "signal an
        // error when invoked to marshal large arrays" over UDP.
        let (a, _b) = datagram_pair(1024);
        let big = vec![0u8; 2048];
        assert_eq!(
            a.send(&big).unwrap_err(),
            TooBig {
                size: 2048,
                max: 1024
            }
        );
    }

    #[test]
    fn peer_drop_ends_recv() {
        let (a, b) = datagram_pair(64);
        drop(a);
        assert!(b.recv().is_none());
    }

    #[test]
    fn datagram_conn_speaks_record_marked_bytes() {
        use flick_runtime::fabric::{Conn, ReadStatus, WriteStatus};
        use flick_runtime::MarshalBuf;

        let (client, server) = datagram_pair(DEFAULT_MAX_DATAGRAM);
        let mut conn = DatagramConn::new(server);

        // Inbound datagram surfaces as one final-fragment record.
        client.send(b"ping").unwrap();
        let mut buf = MarshalBuf::new();
        assert_eq!(conn.read_into(&mut buf, 1), ReadStatus::Read(8));
        let (rec, used) = flick_runtime::oncrpc::deframe_record(buf.as_slice()).unwrap();
        assert_eq!((rec.as_slice(), used), (&b"ping"[..], 8));
        assert_eq!(conn.read_into(&mut buf, 1), ReadStatus::Empty);

        // Outbound record-marked bytes become one datagram per record.
        let two: Vec<u8> = [
            flick_runtime::oncrpc::frame_record(b"pong"),
            flick_runtime::oncrpc::frame_record(b"!"),
        ]
        .concat();
        assert_eq!(conn.write_some(&two), WriteStatus::Wrote(two.len()));
        assert_eq!(client.recv().unwrap().as_slice(), b"pong");
        assert_eq!(client.recv().unwrap().as_slice(), b"!");
    }

    #[test]
    fn unsendable_front_record_fails_fast() {
        use flick_runtime::fabric::{Conn, WriteStatus};

        let (_client, server) = datagram_pair(DEFAULT_MAX_DATAGRAM);
        let mut conn = DatagramConn::new(server);

        // A truncated record mark can never complete into a datagram:
        // Closed, not an eternal Full.
        assert_eq!(conn.write_some(&[0x80, 0, 0]), WriteStatus::Closed);

        // Likewise a non-final (multi-fragment) record at the front.
        let mut frag = vec![0x00, 0x00, 0x00, 0x02, 1, 2];
        frag.extend_from_slice(&flick_runtime::oncrpc::frame_record(b"tail"));
        assert_eq!(conn.write_some(&frag), WriteStatus::Closed);
    }
}
