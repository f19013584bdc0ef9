//! A counting global allocator. It counts only once [`enable`] has been
//! called (the traced run); the untraced run pays one relaxed load per
//! allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocation events (alloc, zeroed alloc
/// and realloc) while enabled.
pub struct Counting;

fn tick() {
    if ON.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// statistic and touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick();
        // SAFETY: forwarded unchanged (see the impl comment).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tick();
        // SAFETY: forwarded unchanged (see the impl comment).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged (see the impl comment).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick();
        // SAFETY: forwarded unchanged (see the impl comment).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Start counting (process-wide, irreversible).
pub fn enable() {
    ON.store(true, Ordering::Relaxed);
}

/// Allocation events counted so far, across all threads.
pub fn count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
