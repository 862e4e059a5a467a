//! The counting global allocator behind the exact metrics.
//!
//! Always installed (timed and counted passes run the same allocator),
//! so `allocs_per_op`, `alloc.bytes_per_op` and `peak_heap_kb` are
//! counts of what the code under test asked the heap for, not samples.
//! Counters are process-wide; the harness reads them around single ops
//! on its one measuring thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Forwards to the system allocator, counting events, bytes, live
/// bytes and the live high-water mark.
pub struct Counting;

static EVENTS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
    EVENTS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(by as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards the caller's layout and pointer
// unchanged to `System`, which upholds the `GlobalAlloc` contract; the
// bookkeeping only touches atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with this `layout`; the
        // caller guarantees `new_size` is valid for its alignment.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// A reading of the allocation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocation events (allocs + growing reallocs) since start.
    pub events: u64,
    /// Bytes requested by those events.
    pub bytes: u64,
}

/// Reads the event and byte counters.
#[must_use]
pub fn snapshot() -> Snapshot {
    Snapshot {
        events: EVENTS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// Bytes currently allocated.
#[must_use]
pub fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Resets the high-water mark to the current live total.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The live-bytes high-water mark since the last [`reset_peak`].
#[must_use]
pub fn peak_live() -> usize {
    PEAK.load(Ordering::Relaxed)
}
