//! A global allocator that counts the heap acquisitions of the calling thread,
//! for the allocation guards. A test crate includes this file with
//! `#[path = ".../tests/support/counting_alloc.rs"] mod counting_alloc;`, which
//! installs the allocator for that crate, and measures with
//! [`allocations_during`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap acquisitions (`alloc` + `realloc`) made by this thread. Per thread, so
    /// the test harness's own threads do not leak into the measurement.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Runs `f` and returns its result with the number of heap acquisitions
/// (`alloc` + `realloc`) this thread made meanwhile.
pub fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

struct CountingAllocator;

fn count_one() {
    // `try_with`: the allocator outlives thread-local teardown.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised `Cell<u64>` with no
// destructor, so touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: same contract as `System.alloc`, which receives `layout` as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System.dealloc`: `ptr` was handed out by `System`
    // through this allocator with this `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `System.realloc`: `ptr` was handed out by `System`
    // through this allocator with this `layout`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;
