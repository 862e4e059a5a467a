//! Client-side call machinery: deadlines, retransmission, and
//! structured errors for ONC-over-datagram exchanges.
//!
//! ONC RPC over UDP owns reliability itself: the client retransmits
//! the *same* call (same xid) until a reply with that xid arrives or
//! the deadline passes, and the xid match is what makes duplicated or
//! stale replies harmless.  [`call`] implements exactly that over any
//! [`Endpoint`]; generated `call_<op>` stubs build the request bytes,
//! delegate here, and decode the reply body.

use std::time::{Duration, Instant};

use crate::buf::MsgReader;
use crate::error::DecodeError;
use crate::metrics::Metric;
use crate::oncrpc::{self, ReplyVerdict};
use crate::pool::PooledBuf;

/// Per-call reliability knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CallOptions {
    /// Total time budget for the call, retransmissions included.
    pub deadline: Duration,
    /// Retransmissions after the first send (0 = send once).
    pub retries: u32,
    /// Base wait before the first retransmission; doubles each retry.
    /// The actual wait is equal-jittered — half the base guaranteed,
    /// the other half uniformly random from a stream seeded by the
    /// call's xid — so a fleet of clients that lost replies to the
    /// same overload event does not retransmit in lockstep and
    /// re-create it.
    pub backoff: Duration,
}

impl Default for CallOptions {
    fn default() -> Self {
        CallOptions {
            deadline: Duration::from_secs(2),
            retries: 8,
            backoff: Duration::from_millis(10),
        }
    }
}

/// Why a call failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RpcError {
    /// The deadline passed (retransmissions exhausted or not).
    Timeout,
    /// The server refused the call at the protocol level
    /// (`MSG_DENIED`, `PROG_UNAVAIL`, `PROG_MISMATCH`, `PROC_UNAVAIL`,
    /// `SYSTEM_ERR`).
    Denied(ReplyVerdict),
    /// The server could not decode our arguments (`GARBAGE_ARGS`).
    GarbageArgs,
    /// The server's reply body failed to decode on our side.
    Decode(DecodeError),
    /// The transport refused the exchange (payload too big, link
    /// closed).
    Transport(&'static str),
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Timeout => write!(f, "call timed out"),
            RpcError::Denied(v) => write!(f, "call refused by server: {v:?}"),
            RpcError::GarbageArgs => write!(f, "server could not decode arguments"),
            RpcError::Decode(e) => write!(f, "reply failed to decode: {e}"),
            RpcError::Transport(what) => write!(f, "transport error: {what}"),
        }
    }
}

impl std::error::Error for RpcError {}

/// Outcome of a bounded receive on an [`Endpoint`].
#[derive(Debug)]
pub enum RecvOutcome {
    /// A message arrived in time, in the pooled buffer it crossed in.
    Msg(PooledBuf),
    /// The timeout elapsed with no message.
    TimedOut,
    /// The peer is gone.
    Closed,
}

/// A successful reply's body, left where it arrived: past the reply
/// header in the endpoint's pooled buffer, recycled on drop.
#[derive(Debug)]
pub struct ReplyBody {
    msg: PooledBuf,
    at: usize,
}

impl From<PooledBuf> for ReplyBody {
    fn from(msg: PooledBuf) -> Self {
        ReplyBody { msg, at: 0 }
    }
}

impl std::ops::Deref for ReplyBody {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.msg.as_slice()[self.at..]
    }
}

/// A message-oriented transport a client call can run over.  The
/// datagram ends in `flick-transport` implement this.
pub trait Endpoint {
    /// Sends one request message.
    ///
    /// # Errors
    /// Returns a short description when the transport refuses the send.
    fn send(&self, payload: &[u8]) -> Result<(), &'static str>;

    /// Receives one message, waiting at most `timeout`.
    fn recv_deadline(&self, timeout: Duration) -> RecvOutcome;
}

/// Sends the complete call message `request` (header + arguments) and
/// waits for the matching reply, retransmitting per `opts`.
///
/// Returns the reply *body* — the bytes after a successful reply
/// header, where they arrived.  Replies whose xid differs from `xid`
/// (stale retransmission echoes) and replies too malformed to parse are
/// ignored and the wait continues: on a lossy link a corrupt reply is
/// indistinguishable from a lost one, and the retransmit path is the
/// recovery for both.
///
/// # Errors
/// [`RpcError::Timeout`] when the deadline passes, never retransmitting
/// after it; [`RpcError::Denied`] / [`RpcError::GarbageArgs`] when the
/// server answered with a protocol-level refusal; [`RpcError::Transport`]
/// when the link is closed or refuses the request.
pub fn call(
    ep: &impl Endpoint,
    xid: u32,
    request: &[u8],
    opts: &CallOptions,
) -> Result<ReplyBody, RpcError> {
    // The one clock read of a call whose first reply is the answer:
    // the first attempt's window is derived from it, and the clock is
    // read again only after something went wrong (a retransmission, a
    // stale or corrupt reply).
    let started = Instant::now();
    let mut now = started;
    // Deterministic per-xid jitter stream: reproducible in seeded
    // fault-plan runs, decorrelated across concurrent calls.
    let mut rng = crate::rng::SplitMix64::new(0x726f_7574_655f_6a74 ^ u64::from(xid));
    let mut wait = if opts.backoff.is_zero() {
        Duration::from_millis(1)
    } else {
        opts.backoff
    };
    for attempt in 0..=opts.retries {
        if attempt > 0 {
            // Past the deadline a retransmission is answered too late.
            now = Instant::now();
            if now - started >= opts.deadline {
                break;
            }
            crate::metrics::inc(Metric::RpcRetry);
            crate::trace::client_retry();
        }
        ep.send(request).map_err(RpcError::Transport)?;
        // Drain replies until this attempt's window closes.  The
        // window never extends past the overall deadline.
        let left = opts.deadline.saturating_sub(now - started);
        let window_end = now
            + if attempt == opts.retries {
                left // last attempt: use everything remaining
            } else {
                // Equal jitter: wait/2 guaranteed, wait/2 random.
                let ns = u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX);
                let half = ns / 2;
                Duration::from_nanos(half + rng.below(half + 1)).min(left)
            };
        while now < window_end {
            match ep.recv_deadline(window_end - now) {
                RecvOutcome::TimedOut => break, // retransmit
                RecvOutcome::Closed => return Err(RpcError::Transport("endpoint closed")),
                RecvOutcome::Msg(msg) => {
                    let mut r = MsgReader::new(msg.as_slice());
                    match oncrpc::read_reply_verdict(&mut r) {
                        Ok((got_xid, verdict)) if got_xid == xid => {
                            let at = r.pos();
                            return match verdict {
                                ReplyVerdict::Success => Ok(ReplyBody { msg, at }),
                                ReplyVerdict::GarbageArgs => Err(RpcError::GarbageArgs),
                                refused => Err(RpcError::Denied(refused)),
                            };
                        }
                        // A corrupt reply is treated as lost, a reply
                        // to an earlier call as stale: keep waiting.
                        _ => now = Instant::now(),
                    }
                }
            }
        }
        wait = wait.saturating_mul(2);
    }
    crate::metrics::inc(Metric::RpcTimeout);
    crate::trace::client_timeout();
    Err(RpcError::Timeout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buf::MarshalBuf;
    use crate::oncrpc::{CallHeader, ReplyOutcome};
    use std::cell::RefCell;

    /// A scripted endpoint: each send consumes the next behavior.
    struct Script {
        sends: RefCell<usize>,
        replies: RefCell<Vec<Option<Vec<u8>>>>,
    }

    impl Endpoint for Script {
        fn send(&self, _payload: &[u8]) -> Result<(), &'static str> {
            *self.sends.borrow_mut() += 1;
            Ok(())
        }

        fn recv_deadline(&self, _timeout: Duration) -> RecvOutcome {
            let mut r = self.replies.borrow_mut();
            match r.pop() {
                Some(Some(m)) => {
                    let mut msg = crate::pool::checkout();
                    msg.put_bytes(&m);
                    RecvOutcome::Msg(msg)
                }
                _ => RecvOutcome::TimedOut,
            }
        }
    }

    fn success_reply(xid: u32, body: &[u8]) -> Vec<u8> {
        let mut b = MarshalBuf::new();
        oncrpc::write_reply(&mut b, xid, ReplyOutcome::Success);
        b.put_bytes(body);
        b.into_vec()
    }

    fn request(xid: u32) -> Vec<u8> {
        let mut b = MarshalBuf::new();
        CallHeader {
            xid,
            prog: 1,
            vers: 1,
            proc: 1,
        }
        .write(&mut b);
        b.into_vec()
    }

    fn opts() -> CallOptions {
        CallOptions {
            deadline: Duration::from_millis(200),
            retries: 3,
            backoff: Duration::from_millis(5),
        }
    }

    #[test]
    fn lost_reply_is_retransmitted_through() {
        // First attempt gets nothing; the reply arrives after the
        // first retransmission.  (Replies pop from the back.)
        let ep = Script {
            sends: RefCell::new(0),
            replies: RefCell::new(vec![Some(success_reply(7, b"body")), None]),
        };
        let out = call(&ep, 7, &request(7), &opts()).expect("completes");
        assert_eq!(&*out, b"body");
        assert!(*ep.sends.borrow() >= 2, "must have retransmitted");
    }

    #[test]
    fn stale_and_corrupt_replies_are_ignored() {
        let ep = Script {
            sends: RefCell::new(0),
            replies: RefCell::new(vec![
                Some(success_reply(9, b"real")),
                Some(vec![0xde, 0xad]),         // corrupt
                Some(success_reply(8, b"old")), // stale xid
            ]),
        };
        let out = call(&ep, 9, &request(9), &opts()).expect("completes");
        assert_eq!(&*out, b"real");
    }

    #[test]
    fn garbage_args_and_denials_surface() {
        let mut b = MarshalBuf::new();
        oncrpc::write_reply(&mut b, 3, ReplyOutcome::GarbageArgs);
        let ep = Script {
            sends: RefCell::new(0),
            replies: RefCell::new(vec![Some(b.into_vec())]),
        };
        assert_eq!(
            call(&ep, 3, &request(3), &opts()).err(),
            Some(RpcError::GarbageArgs)
        );

        let mut b = MarshalBuf::new();
        oncrpc::write_reply(&mut b, 4, ReplyOutcome::ProgUnavail);
        let ep = Script {
            sends: RefCell::new(0),
            replies: RefCell::new(vec![Some(b.into_vec())]),
        };
        assert_eq!(
            call(&ep, 4, &request(4), &opts()).err(),
            Some(RpcError::Denied(ReplyVerdict::ProgUnavail))
        );
    }

    #[test]
    fn silence_times_out() {
        let ep = Script {
            sends: RefCell::new(0),
            replies: RefCell::new(Vec::new()),
        };
        let o = CallOptions {
            deadline: Duration::from_millis(30),
            retries: 2,
            backoff: Duration::from_millis(5),
        };
        assert_eq!(call(&ep, 1, &request(1), &o).err(), Some(RpcError::Timeout));
        assert_eq!(*ep.sends.borrow(), 3, "initial send + 2 retries");
    }

    /// Records every receive window the caller asked for.
    struct WindowProbe {
        windows: RefCell<Vec<Duration>>,
    }

    impl Endpoint for WindowProbe {
        fn send(&self, _payload: &[u8]) -> Result<(), &'static str> {
            Ok(())
        }
        fn recv_deadline(&self, timeout: Duration) -> RecvOutcome {
            self.windows.borrow_mut().push(timeout);
            RecvOutcome::TimedOut
        }
    }

    #[test]
    fn retransmit_waits_are_jittered_within_the_backoff_window() {
        let backoff = Duration::from_millis(40);
        let ep = WindowProbe {
            windows: RefCell::new(Vec::new()),
        };
        let o = CallOptions {
            deadline: Duration::from_secs(60),
            retries: 3,
            backoff,
        };
        // Every window times out instantly (no real sleeping), so the
        // recorded durations are the jittered schedule itself.
        assert_eq!(
            call(&ep, 42, &request(42), &o).err(),
            Some(RpcError::Timeout)
        );
        let windows = ep.windows.borrow().clone();
        assert_eq!(windows.len(), 4, "one window per attempt");
        // Equal jitter: each non-final window lands in (base/2, base],
        // with the base doubling per retry.
        let mut base = backoff;
        for (i, w) in windows[..3].iter().enumerate() {
            // A hair of slack for the two Instant::now() reads between
            // computing the window and handing it to recv.
            let floor = base / 2 - Duration::from_millis(2);
            let ceil = base + Duration::from_millis(1);
            assert!(
                *w >= floor && *w <= ceil,
                "window {i} = {w:?} outside ({floor:?}, {ceil:?}]"
            );
            base *= 2;
        }
    }
}
