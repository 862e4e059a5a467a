//! Buffer checkout/recycle — the §3.1 reuse footnote taken to its
//! steady-state limit.
//!
//! The paper's buffer-management analysis exists to avoid per-call
//! allocation on the marshal hot path; [`MarshalBuf::clear`] already
//! keeps one buffer's capacity across invocations of the *same* stub.
//! This module closes the remaining gap: a thread-local free list of
//! marshal buffers shared by *every* stub on the thread, so a warm
//! call path — client encode, server decode arena, reply encode —
//! performs zero heap allocations per call.
//!
//! [`checkout`] pops a recycled buffer (or lazily creates an empty
//! one); the returned [`PooledBuf`] derefs to [`MarshalBuf`] and
//! recycles its allocation back into the pool on drop.  The free list
//! is bounded by `FLICK_POOL_CAP` (default [`DEFAULT_POOL_CAP`]), and
//! a high-water trimmer shrinks buffers whose capacity grew far past
//! the largest message the thread has recently produced, so one
//! pathological message cannot pin its allocation forever.
//!
//! Checkouts and recycles count into `pool.{hit,miss,recycle}`
//! ([`crate::metrics`]) while collection is on.

use crate::buf::MarshalBuf;
use crate::metrics::{self, Metric};
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// Default cap on how many recycled buffers a thread retains
/// (override with the `FLICK_POOL_CAP` environment variable).
pub const DEFAULT_POOL_CAP: usize = 8;

/// The trimmer never shrinks a buffer below this capacity.
const TRIM_FLOOR: usize = 4096;

/// A recycled buffer whose capacity exceeds `TRIM_SLACK` times the
/// pool's high-water mark is shrunk back before re-entering the free
/// list.
const TRIM_SLACK: usize = 4;

fn pool_cap() -> usize {
    static CAP: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("FLICK_POOL_CAP")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_POOL_CAP)
    })
}

/// The capacity bound the trimmer enforces for a given high-water
/// mark.
#[must_use]
fn trim_bound(high_water: usize) -> usize {
    high_water.saturating_mul(TRIM_SLACK).max(TRIM_FLOOR)
}

/// Recycles per high-water observation epoch: every this many
/// recycles the windows rotate, so the trim target *decays* once a
/// pathological burst is more than two epochs in the past.
const EPOCH_RECYCLES: u32 = 64;

struct Pool {
    free: Vec<MarshalBuf>,
    /// Largest message length recycled in the current epoch.
    recent_hw: usize,
    /// Largest message length recycled in the previous epoch.
    prev_hw: usize,
    /// Recycles counted toward the current epoch so far.
    epoch_used: u32,
}

impl Pool {
    /// The trim target: the largest message seen across the current
    /// and previous epochs.  Two windows, not one, so the target never
    /// drops to zero mid-burst just because an epoch boundary fell in
    /// the middle of it.
    fn high_water(&self) -> usize {
        self.recent_hw.max(self.prev_hw)
    }

    fn observe(&mut self, len: usize) {
        self.recent_hw = self.recent_hw.max(len);
        self.epoch_used += 1;
        if self.epoch_used >= EPOCH_RECYCLES {
            self.prev_hw = self.recent_hw;
            self.recent_hw = 0;
            self.epoch_used = 0;
        }
    }
}

thread_local! {
    static POOL: RefCell<Pool> = const {
        RefCell::new(Pool {
            free: Vec::new(),
            recent_hw: 0,
            prev_hw: 0,
            epoch_used: 0,
        })
    };
}

/// A marshal buffer checked out of the thread's pool.  Dereferences to
/// [`MarshalBuf`]; dropping it recycles the allocation for the next
/// [`checkout`] on this thread.
#[derive(Debug)]
pub struct PooledBuf {
    buf: Option<MarshalBuf>,
}

impl PooledBuf {
    /// Detaches the buffer from the pool: the allocation follows the
    /// returned [`MarshalBuf`] and is never recycled.
    #[must_use]
    pub fn detach(mut self) -> MarshalBuf {
        self.buf.take().expect("buffer present until drop")
    }
}

impl Deref for PooledBuf {
    type Target = MarshalBuf;

    #[inline]
    fn deref(&self) -> &MarshalBuf {
        self.buf.as_ref().expect("buffer present until drop")
    }
}

impl DerefMut for PooledBuf {
    #[inline]
    fn deref_mut(&mut self) -> &mut MarshalBuf {
        self.buf.as_mut().expect("buffer present until drop")
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            // `try_with`: a buffer dropped during thread teardown
            // (after the pool's own destructor) just frees normally.
            let _ = POOL.try_with(|p| recycle_into(&mut p.borrow_mut(), buf));
        }
    }
}

fn recycle_into(pool: &mut Pool, mut buf: MarshalBuf) {
    pool.observe(buf.len());
    if pool.free.len() >= pool_cap() {
        return; // full free list: let the allocation go
    }
    buf.clear();
    let bound = trim_bound(pool.high_water());
    if buf.capacity() > bound {
        buf.shrink_to(bound);
    }
    pool.free.push(buf);
    metrics::inc(Metric::PoolRecycle);
}

/// Checks a cleared buffer out of the thread's pool.  A warm pool
/// returns a recycled allocation (a `pool.hit`); a cold one hands out
/// an empty buffer that allocates on first use (a `pool.miss`).
#[must_use]
pub fn checkout() -> PooledBuf {
    match POOL.with(|p| p.borrow_mut().free.pop()) {
        Some(buf) => {
            metrics::inc(Metric::PoolHit);
            PooledBuf { buf: Some(buf) }
        }
        None => {
            metrics::inc(Metric::PoolMiss);
            PooledBuf {
                buf: Some(MarshalBuf::new()),
            }
        }
    }
}

/// Like [`checkout`], but with at least `cap` bytes pre-reserved —
/// for callers that know the message size up front.
#[must_use]
pub fn checkout_with(cap: usize) -> PooledBuf {
    let mut buf = checkout();
    buf.ensure(cap);
    buf
}

/// Buffers currently resting in this thread's free list (test and
/// diagnostic hook).
#[must_use]
pub fn free_buffers() -> usize {
    POOL.with(|p| p.borrow().free.len())
}

/// Drops every buffer in this thread's free list and resets the
/// high-water windows.
pub fn drain() {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        p.free.clear();
        p.recent_hw = 0;
        p.prev_hw = 0;
        p.epoch_used = 0;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_recycles_the_allocation() {
        drain();
        let mut b = checkout();
        b.put_bytes(&[7; 1000]);
        let cap = b.capacity();
        assert!(cap >= 1000);
        drop(b);
        assert_eq!(free_buffers(), 1);

        let b = checkout();
        assert_eq!(b.len(), 0, "recycled buffers come back cleared");
        assert_eq!(b.capacity(), cap, "the allocation survived recycling");
        assert_eq!(free_buffers(), 0);
    }

    #[test]
    fn detach_keeps_the_buffer_out_of_the_pool() {
        drain();
        let mut b = checkout();
        b.put_u32_be(1);
        let owned = b.detach();
        assert_eq!(owned.len(), 4);
        assert_eq!(free_buffers(), 0);
    }

    #[test]
    fn free_list_is_bounded() {
        drain();
        let held: Vec<PooledBuf> = (0..2 * DEFAULT_POOL_CAP).map(|_| checkout()).collect();
        drop(held);
        assert!(free_buffers() <= pool_cap());
    }

    #[test]
    fn trim_bound_has_a_floor_and_slack() {
        assert_eq!(trim_bound(0), TRIM_FLOOR);
        assert_eq!(trim_bound(10), TRIM_FLOOR);
        assert_eq!(trim_bound(1 << 20), (1 << 20) * TRIM_SLACK);
        // Saturates rather than overflowing on absurd marks.
        assert_eq!(trim_bound(usize::MAX), usize::MAX);
    }

    #[test]
    fn oversized_buffers_are_trimmed_on_recycle() {
        drain();
        // Establish a small high-water mark.
        {
            let mut b = checkout();
            b.put_bytes(&[0; 64]);
        }
        drain();
        let mut pool = Pool {
            free: Vec::new(),
            recent_hw: 64,
            prev_hw: 0,
            epoch_used: 0,
        };
        let mut big = MarshalBuf::with_capacity(1 << 20);
        big.put_bytes(&[1; 32]);
        recycle_into(&mut pool, big);
        assert_eq!(pool.free.len(), 1);
        assert!(
            pool.free[0].capacity() <= trim_bound(64),
            "capacity {} not trimmed to {}",
            pool.free[0].capacity(),
            trim_bound(64)
        );
    }

    #[test]
    fn high_water_decays_after_a_pathological_burst() {
        let mut pool = Pool {
            free: Vec::new(),
            recent_hw: 0,
            prev_hw: 0,
            epoch_used: 0,
        };
        // One 8 MiB message spikes the mark...
        let mut huge = MarshalBuf::with_capacity(8 << 20);
        huge.put_bytes(&[0; 8 << 20]);
        recycle_into(&mut pool, huge);
        assert!(trim_bound(pool.high_water()) >= 8 << 20);

        // ...but two epochs of small traffic let it decay, so the next
        // oversized recycle is trimmed back toward small-message size.
        for _ in 0..2 * EPOCH_RECYCLES {
            pool.free.clear(); // keep the free list from capping recycles
            let mut small = MarshalBuf::new();
            small.put_bytes(&[0; 256]);
            recycle_into(&mut pool, small);
        }
        assert!(
            pool.high_water() <= 256,
            "high water {} still pinned by the old burst",
            pool.high_water()
        );
        pool.free.clear();
        let lingering = MarshalBuf::with_capacity(8 << 20);
        recycle_into(&mut pool, lingering);
        assert!(
            pool.free[0].capacity() <= trim_bound(256),
            "capacity {} not trimmed after decay",
            pool.free[0].capacity()
        );
    }

    #[test]
    fn checkout_with_reserves() {
        drain();
        let b = checkout_with(512);
        assert!(b.capacity() >= 512);
    }

    #[test]
    fn warm_checkout_does_not_grow() {
        drain();
        {
            let mut b = checkout_with(256);
            b.put_bytes(&[3; 200]);
        }
        let mut b = checkout();
        let cap = b.capacity();
        b.ensure(200);
        b.put_bytes(&[4; 200]);
        assert_eq!(b.capacity(), cap, "warm path must not reallocate");
    }
}
