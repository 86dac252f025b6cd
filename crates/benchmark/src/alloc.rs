//! A counting global allocator with an off switch.
//!
//! `amo_obs::CountingAlloc` counts every allocation with two atomic
//! adds on shared counters. Measured here, that costs `verify_matrix`
//! (39 M allocations in 1.2 s) about 30 % of its wall time, and makes
//! the two-worker `paper_cold` 2.5× slower (17.9 s against 7 s): both
//! workers hammer the same cache line. End-to-end times must be
//! measured with observers off, so the benchmark binary installs this
//! allocator instead: switched off it costs one relaxed load of a flag
//! nobody writes, and it is switched on only around passes whose time
//! is not reported.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The benchmark binary's `#[global_allocator]`: the system allocator,
/// counting allocations only inside [`counted`]. `realloc` and
/// `alloc_zeroed` count as one allocation each, as in
/// `amo_obs::CountingAlloc`.
pub struct SwitchedCountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed counter bump that touches no allocator state.
unsafe impl GlobalAlloc for SwitchedCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        // SAFETY: the caller's contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        // SAFETY: `ptr` came from `System` through this allocator; the
        // caller's contract is passed through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        // SAFETY: the caller's contract is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }
}

/// Run `f` with allocation counting on and return its value with the
/// number of heap allocations made meanwhile, on any thread. Always 0
/// unless [`SwitchedCountingAlloc`] is the global allocator (it is in
/// the benchmark binary, not in unit tests). Not re-entrant.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Relaxed);
    COUNTING.store(true, Relaxed);
    let value = f();
    COUNTING.store(false, Relaxed);
    (value, ALLOCS.load(Relaxed) - before)
}
