//! Peak-tracking global allocator for allocation-regression harnesses.
//!
//! Two proof obligations share this instrumentation:
//!
//! * the fuzz driver bounds *transient* allocation while decoding one
//!   hostile message (a lying length field must not translate into a
//!   giant buffer);
//! * the zero-allocation steady-state test asserts the warm
//!   marshal/unmarshal path touches the heap *not at all* — after
//!   warmup every byte lives in the buffer pool or on the stack.
//!
//! Install in a binary or integration test with:
//!
//! ```text
//! #[global_allocator]
//! static ALLOC: flick_bench::allocwatch::PeakAlloc =
//!     flick_bench::allocwatch::PeakAlloc;
//! ```
//!
//! then bracket the measured region with [`live`]/[`reset_peak`] and
//! read [`peak_delta`].  `peak_delta(before) == 0` is exactly "no
//! allocation happened": any nonzero `alloc` or growing `realloc`
//! pushes the high-water mark above the prior live total.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Global allocator that tracks live bytes, the high-water mark, and a
/// count of allocation events (allocs + growing reallocs).
pub struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static EVENTS: AtomicUsize = AtomicUsize::new(0);
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's share of [`EVENTS`]: the process-wide counters
    /// also see the test harness printing and spawning on other
    /// threads, so a "this code path never allocates" assertion reads
    /// its own thread's count.
    static THREAD_EVENTS: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed, whichever
    /// thread allocated them.
    static THREAD_NET: Cell<isize> = const { Cell::new(0) };
}

fn count_event() {
    EVENTS.fetch_add(1, Ordering::Relaxed);
    // No destructor is registered for a const-initialized `Cell`, so
    // this never touches a torn-down slot (and never allocates).
    let _ = THREAD_EVENTS.try_with(|n| n.set(n.get() + 1));
}

fn count_net(delta: isize) {
    let _ = THREAD_NET.try_with(|n| n.set(n.get() + delta));
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
            ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
            count_event();
            count_net(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        count_net(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                let grow = new_size - layout.size();
                let live = LIVE.fetch_add(grow, Ordering::Relaxed) + grow;
                PEAK.fetch_max(live, Ordering::Relaxed);
                ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
                count_event();
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
            count_net(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Bytes currently allocated.
pub fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Resets the high-water mark to the current live total; call before
/// the measured region.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak bytes above `before_live` since the last [`reset_peak`].
/// Zero means the measured region performed no heap allocation.
pub fn peak_delta(before_live: usize) -> usize {
    PEAK.load(Ordering::Relaxed).saturating_sub(before_live)
}

/// Allocation events (allocs + growing reallocs) since process start;
/// diff across a region for a more diagnosable failure message.
pub fn alloc_events() -> usize {
    EVENTS.load(Ordering::Relaxed)
}

/// Bytes requested since process start: every allocation's size, and
/// a growing reallocation's new size (what a copying allocator moves).
/// A loop whose differences grow with the square of its input copies
/// quadratically.
pub fn allocated_bytes() -> usize {
    ALLOCATED.load(Ordering::Relaxed)
}

/// Allocation events made by the calling thread since it started.  A
/// zero difference across a region is "this thread did not touch the
/// heap", whatever other threads were doing meanwhile.
pub fn thread_alloc_events() -> usize {
    THREAD_EVENTS.with(Cell::get)
}

/// Bytes the calling thread has allocated minus the bytes it has freed
/// since it started: across a region whose heap work all happens on
/// this thread, the difference is its growth of the live heap, however
/// busy the process's other threads are.
pub fn thread_net_bytes() -> isize {
    THREAD_NET.with(Cell::get)
}
