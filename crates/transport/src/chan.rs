//! A small unbounded MPMC channel on `std::sync` primitives, and the
//! waiter-counted wake primitive it shares with [`crate::stream`].
//!
//! The in-process transports only need four operations — clonable
//! send/receive handles, blocking `recv`, and disconnect detection —
//! so this module provides exactly those on a `Mutex<VecDeque>` plus
//! a [`Wake`], keeping the transport crates free of external
//! dependencies.
//!
//! # The wake protocol
//!
//! std's futex `Condvar` issues a `futex(FUTEX_WAKE)` *syscall* on
//! every `notify_one`/`notify_all`, parked thread or not.  On the
//! single-threaded paths (a fabric pumping `try_write` /
//! `read_available`, a datagram `send` / `try_recv`) nobody ever
//! parks, so an unconditional notify is ~100 ns of kernel entry per
//! message for a waiter that does not exist.  [`Wake`] pairs the
//! condvar with a [`Waiters`] count that lives *inside the state the
//! mutex guards*, under one invariant:
//!
//! * the count changes only with the state mutex held — incremented
//!   just before `Condvar::wait` releases it, decremented once the
//!   wait has re-acquired it, on every exit (wakeup, spurious wakeup,
//!   timeout);
//! * a state change notifies iff the count is non-zero, still holding
//!   the mutex;
//! * close / last-sender disconnect notify unconditionally.
//!
//! A waiter checks its condition and bumps the count in one critical
//! section, and `Condvar::wait` parks and unlocks atomically, so a
//! waker that sees zero is looking at a state no thread is parked on:
//! no wakeup is lost.  `notify_*` appears nowhere else in this crate
//! (CI greps for it).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How many threads are parked on one [`Wake`].  Lives in the
/// mutex-guarded state next to the condition it belongs to, so holding
/// a `&mut` to it is holding the lock.  (`u32`, not `usize`: two of
/// these sit in `stream::Pipe`'s padding without moving its `Arc` into
/// the next malloc size class.)
#[derive(Default)]
pub(crate) struct Waiters(u32);

#[cfg(test)]
impl Waiters {
    /// Lets a test hold its write until the peer thread is parked.
    pub(crate) fn parked(&self) -> u32 {
        self.0
    }
}

/// A `Condvar` that only pays for a wakeup when a thread is parked —
/// see the module docs for the protocol.
#[derive(Default)]
pub(crate) struct Wake(Condvar);

impl Wake {
    /// Parks until woken.  `count` projects the [`Waiters`] that
    /// belongs to this `Wake` out of the guarded state.
    pub(crate) fn wait<'a, S>(
        &self,
        mut guard: MutexGuard<'a, S>,
        count: impl Fn(&mut S) -> &mut Waiters,
    ) -> MutexGuard<'a, S> {
        count(&mut guard).0 += 1;
        let mut guard = self.0.wait(guard).expect("wake mutex poisoned");
        count(&mut guard).0 -= 1;
        guard
    }

    /// [`Wake::wait`] bounded by `timeout`; the flag is `true` when
    /// the wait timed out.
    pub(crate) fn wait_timeout<'a, S>(
        &self,
        mut guard: MutexGuard<'a, S>,
        timeout: Duration,
        count: impl Fn(&mut S) -> &mut Waiters,
    ) -> (MutexGuard<'a, S>, bool) {
        count(&mut guard).0 += 1;
        let (mut guard, res) = self
            .0
            .wait_timeout(guard, timeout)
            .expect("wake mutex poisoned");
        count(&mut guard).0 -= 1;
        (guard, res.timed_out())
    }

    /// Wakes one parked thread, if there is one.
    pub(crate) fn wake_one(&self, waiters: &Waiters) {
        if waiters.0 > 0 {
            self.notify(false);
        }
    }

    /// Wakes every parked thread, if there are any.
    pub(crate) fn wake_all(&self, waiters: &Waiters) {
        if waiters.0 > 0 {
            self.notify(true);
        }
    }

    /// Wakes every parked thread without consulting a count: the
    /// close / disconnect edge is taken once per link, so it can
    /// afford the syscall and need not depend on the count.
    pub(crate) fn wake_all_always(&self) {
        self.notify(true);
    }

    fn notify(&self, all: bool) {
        #[cfg(test)]
        WAKES.with(|w| w.set(w.get() + 1));
        if all {
            self.0.notify_all();
        } else {
            self.0.notify_one();
        }
    }
}

#[cfg(test)]
thread_local! {
    static WAKES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Notifies the calling thread has issued through any [`Wake`] — what
/// the no-wake-without-a-waiter tests here and in `stream` assert on
/// (per thread, because `cargo test` runs tests side by side).
#[cfg(test)]
pub(crate) fn wakes_issued() -> u64 {
    WAKES.with(std::cell::Cell::get)
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    /// Receivers parked on `Inner::ready`.
    parked: Waiters,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    /// Signals a queued message (or disconnect) to blocked receivers.
    ready: Wake,
}

/// The sending half; cloning adds another producer.
pub struct Sender<T> {
    inner: Arc<Inner<T>>,
}

/// The receiving half; cloning adds another consumer.
pub struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

/// Creates an unbounded channel pair.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(Inner {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            parked: Waiters::default(),
        }),
        ready: Wake::default(),
    });
    (
        Sender {
            inner: inner.clone(),
        },
        Receiver { inner },
    )
}

impl<T> Sender<T> {
    /// Enqueues a message; never blocks.
    pub fn send(&self, value: T) {
        let mut s = self.inner.state.lock().expect("channel poisoned");
        s.queue.push_back(value);
        self.inner.ready.wake_one(&s.parked);
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.state.lock().expect("channel poisoned").senders += 1;
        Sender {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut s = self.inner.state.lock().expect("channel poisoned");
        s.senders -= 1;
        if s.senders == 0 {
            // Wake blocked receivers so they observe the disconnect.
            self.inner.ready.wake_all_always();
        }
    }
}

/// Outcome of a bounded receive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Recv<T> {
    /// A message arrived in time.
    Msg(T),
    /// Every sender is gone and the queue is drained.
    Closed,
    /// The timeout elapsed with no message.
    TimedOut,
}

impl<T> Receiver<T> {
    /// Dequeues the next message, blocking until one arrives.
    /// Returns `None` once every sender is gone and the queue drained.
    #[must_use]
    pub fn recv(&self) -> Option<T> {
        let mut s = self.inner.state.lock().expect("channel poisoned");
        loop {
            if let Some(v) = s.queue.pop_front() {
                return Some(v);
            }
            if s.senders == 0 {
                return None;
            }
            s = self.inner.ready.wait(s, |s| &mut s.parked);
        }
    }

    /// Dequeues the next message without blocking: `Msg` when one is
    /// queued, `Closed` after disconnect, `TimedOut` when the queue is
    /// momentarily empty — the polling shape fabric accept loops and
    /// connection adapters need.
    #[must_use]
    pub fn try_recv(&self) -> Recv<T> {
        let mut s = self.inner.state.lock().expect("channel poisoned");
        if let Some(v) = s.queue.pop_front() {
            return Recv::Msg(v);
        }
        if s.senders == 0 {
            return Recv::Closed;
        }
        Recv::TimedOut
    }

    /// Dequeues the next message, waiting at most `timeout` — the
    /// primitive under client call deadlines and retransmission.  The
    /// clock is read only once there is something to wait for: a
    /// queued message, a disconnect and a zero `timeout` all return
    /// without it.
    #[must_use]
    pub fn recv_timeout(&self, timeout: Duration) -> Recv<T> {
        let mut deadline = None;
        let mut s = self.inner.state.lock().expect("channel poisoned");
        loop {
            if let Some(v) = s.queue.pop_front() {
                return Recv::Msg(v);
            }
            if s.senders == 0 {
                return Recv::Closed;
            }
            if timeout.is_zero() {
                return Recv::TimedOut;
            }
            let now = Instant::now();
            let Some(left) = deadline
                .get_or_insert(now + timeout)
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                return Recv::TimedOut;
            };
            let (guard, timed_out) = self.inner.ready.wait_timeout(s, left, |s| &mut s.parked);
            s = guard;
            if timed_out && s.queue.is_empty() {
                return if s.senders == 0 {
                    Recv::Closed
                } else {
                    Recv::TimedOut
                };
            }
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        Receiver {
            inner: self.inner.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order() {
        let (tx, rx) = unbounded();
        tx.send(1);
        tx.send(2);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
    }

    #[test]
    fn disconnect_after_drain() {
        let (tx, rx) = unbounded();
        tx.send(9);
        drop(tx);
        assert_eq!(rx.recv(), Some(9));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn cloned_sender_keeps_channel_open() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(5);
        assert_eq!(rx.recv(), Some(5));
        drop(tx2);
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn blocking_recv_wakes_on_send() {
        let (tx, rx) = unbounded();
        let t = thread::spawn(move || rx.recv());
        thread::sleep(std::time::Duration::from_millis(10));
        tx.send(42);
        assert_eq!(t.join().unwrap(), Some(42));
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = unbounded();
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_millis(5)),
            Recv::TimedOut
        );
        tx.send(1);
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_millis(5)),
            Recv::Msg(1)
        );
        drop(tx);
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_millis(5)),
            Recv::<i32>::Closed
        );
    }

    #[test]
    fn try_recv_never_blocks() {
        let (tx, rx) = unbounded();
        assert_eq!(rx.try_recv(), Recv::<u8>::TimedOut);
        tx.send(3);
        assert_eq!(rx.try_recv(), Recv::Msg(3));
        drop(tx);
        assert_eq!(rx.try_recv(), Recv::<u8>::Closed);
    }

    #[test]
    fn no_wake_without_a_waiter() {
        let (tx, rx) = unbounded();
        let before = wakes_issued();
        for i in 0..10_000u32 {
            tx.send(i);
            assert_eq!(rx.try_recv(), Recv::Msg(i));
            tx.send(i);
            assert_eq!(rx.recv_timeout(Duration::ZERO), Recv::Msg(i));
            assert_eq!(rx.recv_timeout(Duration::ZERO), Recv::TimedOut);
        }
        assert_eq!(wakes_issued(), before, "nobody was parked");
    }

    #[test]
    fn timed_out_wait_leaves_no_waiter_behind() {
        let (tx, rx) = unbounded();
        assert_eq!(rx.recv_timeout(Duration::from_millis(1)), Recv::TimedOut);
        assert_eq!(tx.inner.state.lock().unwrap().parked.parked(), 0);
        let before = wakes_issued();
        tx.send(1);
        assert_eq!(wakes_issued(), before, "the timed-out waiter is gone");
        assert_eq!(rx.recv(), Some(1));
    }

    #[test]
    fn a_parked_receiver_is_woken() {
        let (tx, rx) = unbounded();
        let t = thread::spawn(move || rx.recv());
        // The count is only visible non-zero once `recv` has released
        // the mutex inside the condvar wait, i.e. is really parked.
        while tx.inner.state.lock().unwrap().parked.parked() == 0 {
            thread::yield_now();
        }
        let before = wakes_issued();
        tx.send(7);
        assert_eq!(wakes_issued(), before + 1);
        assert_eq!(t.join().unwrap(), Some(7));
    }

    #[test]
    fn blocking_recv_wakes_on_disconnect() {
        let (tx, rx) = unbounded::<u8>();
        let t = thread::spawn(move || rx.recv());
        thread::sleep(std::time::Duration::from_millis(10));
        drop(tx);
        assert_eq!(t.join().unwrap(), None);
    }
}
