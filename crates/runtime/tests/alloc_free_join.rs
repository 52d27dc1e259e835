//! The acceptance test for the allocation-free `join` fast path: a counting global
//! allocator measures heap traffic while a deep unstolen fork-join recursion runs, and the
//! delta must be **zero**.
//!
//! The pool has one worker, so no branch is ever stolen: every `join` pushes its stack job,
//! runs the left branch, pops the job straight back and runs it inline. A warm-up run first
//! absorbs one-time costs (thread-local init, the first injector block); the measured
//! window is entirely inside the installed closure.
//!
//! The count is the **worker's own** (see `tests/support/counting_alloc.rs`), so each
//! assertion reads "this worker's fast path did not allocate". A process-wide count failed
//! about two runs in five: libtest runs these tests on concurrent threads, so a sibling's
//! pool construction landed in the window.
//!
//! The installing thread's own cost is pinned too: a warm `install` allocates its heap job
//! and, once per 32 pushes, an injector block — nothing else.

use rws_runtime::{join, scope, ThreadPoolBuilder};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{thread_allocations, CountingAllocator};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn recursive_sum(lo: u64, hi: u64) -> u64 {
    if hi - lo <= 64 {
        return (lo..hi).sum();
    }
    let mid = lo + (hi - lo) / 2;
    let (a, b) = join(move || recursive_sum(lo, mid), move || recursive_sum(mid, hi));
    a + b
}

#[test]
fn unstolen_join_fast_path_is_allocation_free() {
    let pool = ThreadPoolBuilder::new().threads(1).build();
    // ~1 << 10 joins, recursion depth 10 — far below the deque's initial capacity, so no
    // buffer growth during the measured run.
    let n = 1 << 16;
    // Warm up: first run pays any one-time lazy initialization.
    assert_eq!(pool.install(move || recursive_sum(0, n)), n * (n - 1) / 2);
    let (total, delta) = pool.install(move || {
        let before = thread_allocations();
        let total = recursive_sum(0, n);
        let after = thread_allocations();
        (total, after - before)
    });
    assert_eq!(total, n * (n - 1) / 2);
    assert_eq!(
        delta,
        0,
        "the unstolen join fast path must not allocate (got {delta} \
         allocations for {} joins)",
        (n / 64).max(1)
    );
}

#[test]
fn traced_unstolen_join_fast_path_is_allocation_free() {
    // The flight recorder must not cost the fast path its zero-allocation property: ring
    // slots are preallocated at pool build, and recording an event is two atomic stores
    // into an existing slot. Same measurement as above, on a pool built with `.trace(..)` —
    // and the recorder must actually have been on (events observed), or the assertion
    // would vacuously measure an untraced pool.
    let pool = ThreadPoolBuilder::new().threads(1).trace(1 << 12).build();
    let n = 1 << 16;
    // Warm up: first run pays any one-time lazy initialization.
    assert_eq!(pool.install(move || recursive_sum(0, n)), n * (n - 1) / 2);
    let (total, delta) = pool.install(move || {
        let before = thread_allocations();
        let total = recursive_sum(0, n);
        let after = thread_allocations();
        (total, after - before)
    });
    assert_eq!(total, n * (n - 1) / 2);
    assert_eq!(
        delta, 0,
        "the traced unstolen join fast path must not allocate \
         (got {delta} allocations)"
    );
    let snap = pool.trace_snapshot().expect("traced pool must yield a snapshot");
    assert!(snap.total_recorded() > 0, "the recorder must have observed the measured run");
}

#[test]
fn unstolen_single_spawn_scope_fast_path_is_allocation_free() {
    // The scoped-task analogue of the join assertion: a scope whose (small) spawns fit the
    // inline slots queues them as two-word refs in the scope's own stack frame — no Box,
    // no Arc, no lock. One worker means nothing is stolen: the owner pops every spawn back
    // and runs it itself, and the whole recursion must not allocate once warm.
    fn scoped_sum(lo: u64, hi: u64) -> u64 {
        if hi - lo <= 64 {
            return (lo..hi).sum();
        }
        let mid = lo + (hi - lo) / 2;
        let mut left = 0u64;
        // The canonical single-spawn scope: one spawned branch, one in the body.
        let right = scope(|s| {
            s.spawn(|_| left = scoped_sum(lo, mid));
            scoped_sum(mid, hi)
        });
        left + right
    }
    let pool = ThreadPoolBuilder::new().threads(1).build();
    let n = 1 << 16;
    // Warm up: first run pays any one-time lazy initialization.
    assert_eq!(pool.install(move || scoped_sum(0, n)), n * (n - 1) / 2);
    let (total, delta) = pool.install(move || {
        let before = thread_allocations();
        let total = scoped_sum(0, n);
        let after = thread_allocations();
        (total, after - before)
    });
    assert_eq!(total, n * (n - 1) / 2);
    assert_eq!(
        delta, 0,
        "the unstolen single-spawn scope fast path must not allocate \
         (got {delta} allocations)"
    );
}

#[test]
fn a_warm_install_costs_its_thread_one_allocation() {
    // The closure's outcome comes back through the installer's own frame, so what the
    // installing thread allocates is the boxed job and one 32-slot injector block per 32
    // pushes — the budget `service_wakes.rs` holds a submission to, less the job state.
    const INSTALLS: u64 = 1024;
    let pool = ThreadPoolBuilder::new().threads(1).build();
    (0..8).for_each(|i| assert_eq!(pool.install(move || i), i));
    let before = thread_allocations();
    for i in 0..INSTALLS {
        assert_eq!(pool.install(move || i), i);
    }
    let allocations = thread_allocations() - before;
    let budget = INSTALLS + INSTALLS / 32 + 1;
    assert!(
        allocations <= budget,
        "{INSTALLS} installs cost the installing thread {allocations} allocations (budget {budget})"
    );
}

#[test]
fn allocator_counter_actually_counts() {
    // Guard against the instrument itself silently breaking: a Box must be visible to the
    // thread that made it, and only to that thread.
    let before = thread_allocations();
    let b = std::hint::black_box(Box::new(123u64));
    let after = thread_allocations();
    drop(b);
    assert!(after > before, "counting allocator failed to observe an allocation");
    // A neighbour's allocation, made strictly between two reads here, is not counted here.
    let barrier = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            barrier.wait();
            let before = thread_allocations();
            drop(std::hint::black_box(vec![0u8; 64]));
            assert_eq!(thread_allocations() - before, 1, "a thread sees its own allocation");
            barrier.wait();
        });
        let before = thread_allocations();
        barrier.wait();
        barrier.wait();
        assert_eq!(thread_allocations(), before, "another thread's allocation leaked in");
    });
}
