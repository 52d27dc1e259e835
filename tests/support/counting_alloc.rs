//! The counting global allocator behind every "this path does not allocate" assertion in
//! the workspace. A `#[global_allocator]` has to be declared in each binary, so the users
//! (`crates/{runtime,machine,core}/tests/alloc_free_*.rs` and
//! `crates/algos/tests/alloc_lean_kernels.rs`) include this one file with `#[path]` and
//! declare `static GLOBAL: CountingAllocator`.
//!
//! Allocations are counted **per thread**. libtest runs the tests of one binary on
//! concurrent threads, and a thread that hands work to a pool goes on allocating while the
//! pool runs it, so a process-wide count over a measured window also sees whatever the
//! neighbours did meanwhile. A per-thread delta means exactly "this thread allocated
//! between these two reads".

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to [`System`], counting every `alloc`, `alloc_zeroed` and `realloc`.
pub struct CountingAllocator;

thread_local! {
    // `const`-initialised and without a destructor: reading it from inside the allocator
    // neither allocates (no lazy initialisation) nor can find the slot already torn down.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made by the calling thread since it started.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

fn count() {
    THREAD_ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds the `GlobalAlloc`
// contract; the counting touches only a `Cell` in thread-local storage, which does not
// allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}
