//! The wake protocol under real contention: `chan` and `stream::Pipe`
//! notify only while a waiter count says a thread is parked, so a
//! count that drifts loses a wakeup — and a lost wakeup is a hang, not
//! a wrong answer.  Every case therefore runs under a watchdog that
//! fails the test instead of hanging it.  Run in release (more
//! interleavings per second) and in debug (an unbalanced count
//! overflows its `u32` and panics).
//!
//! The exact "a timed-out wait leaves the count at zero, so the next
//! send issues no wake" assertion needs the `#[cfg(test)]` notify
//! counter and lives beside it, in `chan::tests`.

use flick_transport::chan::{self, Recv};
use flick_transport::stream::stream_pair_bounded;
use std::sync::{mpsc, Barrier};
use std::thread;
use std::time::Duration;

/// Runs `case` on its own thread and fails if it has not finished
/// within `limit` (the stuck thread is abandoned to process exit).
fn watchdog(limit: Duration, case: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    let worker = thread::spawn(move || {
        case();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(limit) {
        Ok(()) => worker.join().expect("case finished"),
        // The sender dropped without sending: the case panicked.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("case panicked"))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("no progress in {limit:?}: a wakeup was lost")
        }
    }
}

const LIMIT: Duration = Duration::from_secs(100);

/// Pipe capacity for the ping-pong; records run to four times this.
const CAP: usize = 64;

fn record(i: u32) -> Vec<u8> {
    let len = 1 + (i as usize * 7) % (4 * CAP);
    (0..len).map(|k| (i as usize + k) as u8).collect()
}

#[test]
fn ping_pong_over_a_bounded_stream() {
    watchdog(LIMIT, || {
        const RECORDS: u32 = 100_000;
        let (a, b) = stream_pair_bounded(CAP);
        // A record longer than the pipe parks its writer on `space`
        // until the reader, itself parked on `ready` between chunks,
        // drains it — both waits, both directions, every record.
        let read = |end: &flick_transport::stream::StreamEnd, want: &[u8]| {
            for chunk in want.chunks(CAP) {
                assert_eq!(end.read_exact(chunk.len()).expect("peer alive"), chunk);
            }
        };
        thread::scope(|sc| {
            sc.spawn(|| {
                for i in 0..RECORDS {
                    let rec = record(i);
                    read(&b, &rec);
                    b.write(&rec);
                }
            });
            for i in 0..RECORDS {
                let rec = record(i);
                a.write(&rec);
                read(&a, &rec);
            }
        });
    });
}

#[test]
fn every_message_is_received_exactly_once() {
    watchdog(LIMIT, || {
        const PRODUCERS: u32 = 4;
        const EACH: u32 = 50_000;
        let (tx, rx) = chan::unbounded::<u32>();
        let mut got = thread::scope(|sc| {
            for p in 0..PRODUCERS {
                let tx = tx.clone();
                sc.spawn(move || {
                    for i in 0..EACH {
                        tx.send(p * EACH + i);
                    }
                });
            }
            drop(tx); // the producers hold the last senders
            let consumers: Vec<_> = (0..2)
                .map(|c| {
                    let rx = rx.clone();
                    sc.spawn(move || {
                        let mut mine = Vec::new();
                        for step in c.. {
                            let out = match step % 3 {
                                0 => rx.recv().map_or(Recv::Closed, Recv::Msg),
                                1 => rx.recv_timeout(Duration::from_millis(1)),
                                _ => rx.try_recv(),
                            };
                            match out {
                                Recv::Msg(v) => mine.push(v),
                                Recv::TimedOut => thread::yield_now(),
                                Recv::Closed => break,
                            }
                        }
                        mine
                    })
                })
                .collect();
            consumers
                .into_iter()
                .flat_map(|c| c.join().expect("consumer finished"))
                .collect::<Vec<u32>>()
        });
        got.sort_unstable();
        assert!(
            got.iter().copied().eq(0..PRODUCERS * EACH),
            "{} messages for {} sent",
            got.len(),
            PRODUCERS * EACH
        );
    });
}

#[test]
fn close_wakes_every_parked_reader_and_writer() {
    watchdog(LIMIT, || {
        for _ in 0..50 {
            let (a, b) = stream_pair_bounded(4);
            let started = Barrier::new(5);
            thread::scope(|sc| {
                // Two writers park on a→b's `space` (16 bytes into a
                // 4-byte pipe nobody reads), two readers on b→a's
                // `ready` (nothing is ever written there).
                for _ in 0..2 {
                    sc.spawn(|| {
                        started.wait();
                        a.write(&[9; 16]);
                    });
                    sc.spawn(|| {
                        started.wait();
                        assert_eq!(a.read_exact(1), None);
                    });
                }
                started.wait();
                // No outside view of "parked": give them a moment, and
                // rely on the rounds to cover the early-close order too.
                thread::sleep(Duration::from_millis(1));
                b.close();
            });
        }
    });
}

#[test]
fn last_sender_drop_wakes_every_parked_receiver() {
    watchdog(LIMIT, || {
        for _ in 0..50 {
            let (tx, rx) = chan::unbounded::<u8>();
            let tx2 = tx.clone();
            let started = Barrier::new(4);
            thread::scope(|sc| {
                for _ in 0..2 {
                    sc.spawn(|| {
                        started.wait();
                        assert_eq!(rx.recv(), None);
                    });
                }
                sc.spawn(|| {
                    started.wait();
                    // Woken by the disconnect, not by its own timeout
                    // (which the watchdog would not outlast).
                    assert_eq!(rx.recv_timeout(Duration::from_secs(3600)), Recv::Closed);
                });
                started.wait();
                thread::sleep(Duration::from_millis(1));
                drop(tx);
                drop(tx2);
            });
        }
    });
}
