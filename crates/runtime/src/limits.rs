//! Per-server / per-fabric resource limits.
//!
//! The hostile-wire hardening introduced hard framing caps —
//! [`crate::oncrpc::MAX_RECORD_BYTES`] and
//! [`crate::giop::MAX_MESSAGE_BYTES`], both 16 MiB — so a lying length
//! field can never force a giant allocation.  That 16 MiB remains the
//! default, but a serving process wants it *configurable*: a
//! tight-memory gateway hosting thousands of connections budgets a few
//! KiB per link, while a bulk-transfer endpoint may need the full 16
//! MiB.  [`Limits`] carries the one frame cap (each protocol's framing
//! reads it as its own unit: [`crate::fabric::Framing`]) together with the
//! connection-fabric knobs (pipelining depth, reply-queue bound, batch
//! size) and the fabric-wide admission caps (total in-flight work,
//! shed threshold) as one value handed to a server loop or a
//! [`crate::fabric::Fabric`].
//!
//! Every field defaults to today's behavior; [`Limits::tight`] is the
//! small-footprint configuration the fan-in bench exercises.  A
//! hand-built `Limits` should go through [`Limits::validated`] so an
//! incoherent configuration fails loudly at construction instead of
//! surfacing as mysterious runtime evictions — [`crate::fabric::Fabric::new`]
//! does this for you.

/// Resource limits for one server loop or fabric instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Limits {
    /// Cap on one inbound frame, and on one reply: an assembled ONC
    /// record (and any single fragment), or a GIOP message body after
    /// its [`crate::giop::HEADER_BYTES`]-byte header.  Default: 16 MiB,
    /// [`crate::oncrpc::MAX_RECORD_BYTES`] =
    /// [`crate::giop::MAX_MESSAGE_BYTES`].
    pub max_frame_bytes: usize,
    /// Maximum in-flight (decoded but unanswered) requests per
    /// connection — the pipelining window.
    pub max_pipeline: usize,
    /// Backpressure threshold: once a connection's pending encoded
    /// replies exceed this many bytes, the fabric stops *reading* that
    /// connection until the queue drains.
    pub reply_buf_bytes: usize,
    /// Bytes pulled off a connection per pump round — the decode
    /// granularity (and an input-side fairness bound).
    pub read_chunk_bytes: usize,
    /// Hard cap on in-flight requests across the *whole* fabric: at
    /// this level workers stop dispatching entirely until work
    /// completes.  The memory backstop above the shed threshold.
    pub max_inflight_total: usize,
    /// Admission threshold: once fabric-wide in-flight requests reach
    /// this level, new requests are refused with a cheap protocol
    /// error (`PROG_UNAVAIL` / `TRANSIENT`) instead of queueing.
    /// Must not exceed `max_inflight_total`.
    pub shed_threshold: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_frame_bytes: crate::oncrpc::MAX_RECORD_BYTES,
            max_pipeline: 32,
            reply_buf_bytes: 16 * 1024 * 1024,
            read_chunk_bytes: 64 * 1024,
            max_inflight_total: 1024,
            shed_threshold: 768,
        }
    }
}

impl Limits {
    /// Today's defaults — identical to the previously hard-coded caps.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A tight-memory configuration: 64 KiB frames, a short pipeline,
    /// and a small reply queue.  This is what the fan-in bench runs so
    /// thousands of connections fit in a few MiB of buffers.
    #[must_use]
    pub fn tight() -> Self {
        Limits {
            max_frame_bytes: 64 * 1024,
            max_pipeline: 16,
            reply_buf_bytes: 64 * 1024,
            read_chunk_bytes: 8 * 1024,
            max_inflight_total: 256,
            shed_threshold: 192,
        }
    }

    /// Checks the configuration for internal coherence, returning it
    /// unchanged when sound.
    ///
    /// # Errors
    /// A static description of the first incoherence found:
    /// * any zero cap (`max_frame_bytes`, `max_pipeline`,
    ///   `read_chunk_bytes`, `reply_buf_bytes`,
    ///   `max_inflight_total`, `shed_threshold`) — a zero bound can
    ///   admit no work at all;
    /// * `reply_buf_bytes` smaller than the largest admissible frame —
    ///   one maximal reply would overrun the queue it is supposed to
    ///   bound, surfacing as an eviction on a well-behaved peer;
    /// * `shed_threshold` above `max_inflight_total` — shedding would
    ///   never engage below the hard stop, defeating its purpose.
    pub fn validated(self) -> Result<Self, &'static str> {
        if self.max_frame_bytes == 0 {
            return Err("max_frame_bytes is zero: no frame could ever be read");
        }
        if self.max_pipeline == 0 {
            return Err("max_pipeline is zero: no request could ever be dispatched");
        }
        if self.read_chunk_bytes == 0 {
            return Err("read_chunk_bytes is zero: no bytes could ever be read");
        }
        if self.reply_buf_bytes == 0 {
            return Err("reply_buf_bytes is zero: no reply could ever be queued");
        }
        if self.reply_buf_bytes < self.max_frame_bytes {
            return Err(
                "reply_buf_bytes is smaller than the largest admissible frame: \
                 one maximal reply would evict a well-behaved connection",
            );
        }
        if self.max_inflight_total == 0 {
            return Err("max_inflight_total is zero: every request would be refused");
        }
        if self.shed_threshold == 0 {
            return Err("shed_threshold is zero: every request would be shed");
        }
        if self.shed_threshold > self.max_inflight_total {
            return Err("shed_threshold exceeds max_inflight_total: \
                 the hard stop would engage before shedding ever could");
        }
        Ok(self)
    }

    /// Worst-case bytes one connection's fabric buffers may hold:
    /// a partially assembled inbound frame plus one read chunk, the
    /// reply queue at its threshold, plus one maximal reply appended
    /// after the threshold check.  The backpressure test asserts
    /// against this bound.  The inbound term bounds the receive
    /// buffer's capacity, not only its length, once a frame's header
    /// is buffered: the buffer grows to the announced frame and no
    /// further.  The reply queue grows by doubling, as batching needs.
    /// The bound is per frame in flight: at rest, with its input
    /// drained, a connection holds at most the buffer pool's 4 KiB
    /// floor of input storage — bulk storage waits in the thread's
    /// pool until bytes arrive.
    #[must_use]
    pub fn per_conn_buffer_bound(&self) -> usize {
        let frame = self.max_frame_bytes;
        (frame + self.read_chunk_bytes) + (self.reply_buf_bytes + frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_hardcoded_caps() {
        let l = Limits::default();
        assert_eq!(l.max_frame_bytes, crate::oncrpc::MAX_RECORD_BYTES);
        assert_eq!(l.max_frame_bytes, crate::giop::MAX_MESSAGE_BYTES);
        assert_eq!(l.max_frame_bytes, 16 * 1024 * 1024);
    }

    #[test]
    fn tight_is_smaller_everywhere() {
        let d = Limits::default();
        let t = Limits::tight();
        assert!(t.max_frame_bytes < d.max_frame_bytes);
        assert!(t.reply_buf_bytes < d.reply_buf_bytes);
        assert!(t.max_inflight_total < d.max_inflight_total);
        assert!(t.per_conn_buffer_bound() < d.per_conn_buffer_bound());
    }

    #[test]
    fn stock_configurations_validate() {
        assert!(Limits::default().validated().is_ok());
        assert!(Limits::tight().validated().is_ok());
    }

    #[test]
    fn incoherent_configurations_are_refused_with_reasons() {
        let cases: &[(&str, Limits)] = &[
            (
                "max_pipeline",
                Limits {
                    max_pipeline: 0,
                    ..Limits::default()
                },
            ),
            (
                "reply_buf_bytes below the frame cap",
                Limits {
                    reply_buf_bytes: crate::oncrpc::MAX_RECORD_BYTES - 1,
                    ..Limits::default()
                },
            ),
            (
                "zero reply_buf_bytes",
                Limits {
                    reply_buf_bytes: 0,
                    ..Limits::default()
                },
            ),
            (
                "zero read_chunk_bytes",
                Limits {
                    read_chunk_bytes: 0,
                    ..Limits::default()
                },
            ),
            (
                "zero max_frame_bytes",
                Limits {
                    max_frame_bytes: 0,
                    ..Limits::default()
                },
            ),
            (
                "zero max_inflight_total",
                Limits {
                    max_inflight_total: 0,
                    ..Limits::default()
                },
            ),
            (
                "shed_threshold above max_inflight_total",
                Limits {
                    shed_threshold: 2048,
                    max_inflight_total: 1024,
                    ..Limits::default()
                },
            ),
        ];
        for (what, limits) in cases {
            let err = limits
                .validated()
                .expect_err(&format!("{what} must be refused"));
            assert!(!err.is_empty(), "{what}: descriptive error expected");
        }
    }
}
