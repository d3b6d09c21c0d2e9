//! A counting global allocator, for the bench rows that report
//! allocations. A binary opts in by declaring
//! `#[global_allocator] static ALLOC: iixml_bench::allocs::Counting =
//! iixml_bench::allocs::Counting;` (the `report` binary and this crate's
//! unit tests do); elsewhere [`count`] stays 0. Each thread counts its
//! own allocations in a thread-local cell, so counting shares no cache
//! line between threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // A const-initialized cell without a destructor is always
    // accessible; `try_with` keeps the allocator from panicking anyway.
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
}

/// The system allocator, counting allocations and reallocations.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a thread-local integer and never touches
// memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same contract as ours, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same contract as ours, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` via this allocator, as the
        // caller guarantees for us.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations (including reallocations) the calling thread has made
/// so far.
pub fn count() -> u64 {
    COUNT.with(Cell::get)
}
