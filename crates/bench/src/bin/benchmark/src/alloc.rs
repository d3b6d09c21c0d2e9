//! A counting global allocator. `trace` arms it around the traced
//! replay so each span records how many allocations it made; disarmed,
//! it costs one relaxed load per allocation. The replay runs on one
//! thread apart from `restart`'s fleet recoveries on the `iixml-par`
//! pool, so one shared counter suffices.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

impl Counting {
    #[inline]
    fn note() {
        if ARMED.load(Ordering::Relaxed) {
            COUNT.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a plain atomic and never touches memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::note();
        // SAFETY: same contract as ours, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::note();
        // SAFETY: same contract as ours, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::note();
        // SAFETY: `ptr` came from `System` via this allocator, as the
        // caller guarantees for us.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Starts or stops counting (all threads).
pub fn arm(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

/// Allocations (including reallocations) counted so far, all threads.
pub fn count() -> u64 {
    COUNT.load(Ordering::Relaxed)
}
