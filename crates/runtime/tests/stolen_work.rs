//! Work that crosses workers through the steal cells runs exactly once: `join` trees, `scope`
//! spawns and injected jobs on 2- and 4-thread pools, every leaf counted, every sum checked,
//! and every steal counted as one task in each of the pool's three views of it.
//! (`pool.rs`'s `the_private_deque_matches_a_vecdeque_model_under_concurrent_thieves` checks
//! the order in which owner and thieves receive jobs.)

use rws_runtime::{join, scope, ThreadPool};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Leaves per tree.
const LEAVES: usize = 1 << 10;
/// Injected trees per round.
const INJECTED: usize = 16;

/// Sum `lo..hi` over a `join` tree with one leaf per index, counting each leaf's runs.
fn tree(lo: usize, hi: usize, runs: &[AtomicU8]) -> u64 {
    if hi - lo == 1 {
        runs[lo].fetch_add(1, Ordering::Relaxed);
        // A leaf long enough that the other workers find work on offer.
        for _ in 0..64 {
            std::hint::black_box(lo);
        }
        return lo as u64;
    }
    let mid = lo + (hi - lo) / 2;
    let (a, b) = join(|| tree(lo, mid, runs), || tree(mid, hi, runs));
    a + b
}

/// [`tree`], with the root's right half taken by another worker: the left half starts only
/// once the right half has, so the pool steals at least once however its threads are
/// scheduled. (Only one such tree may run at a time: two could wait on each other.)
fn stolen_tree(runs: &[AtomicU8]) -> u64 {
    let started = AtomicBool::new(false);
    let (a, b) = join(
        || {
            while !started.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            tree(0, LEAVES / 2, runs)
        },
        || {
            started.store(true, Ordering::Release);
            tree(LEAVES / 2, LEAVES, runs)
        },
    );
    a + b
}

fn counters() -> Vec<AtomicU8> {
    (0..LEAVES).map(|_| AtomicU8::new(0)).collect()
}

fn each_ran_once(runs: &[AtomicU8], what: &str) {
    for (leaf, r) in runs.iter().enumerate() {
        assert_eq!(r.load(Ordering::Relaxed), 1, "{what}: leaf {leaf}");
    }
}

#[test]
fn join_trees_scope_spawns_and_injected_jobs_each_run_once() {
    let expected = (LEAVES * (LEAVES - 1) / 2) as u64;
    for threads in [2, 4] {
        let pool = ThreadPool::new(threads);

        // One join tree, its root's right half stolen.
        let runs = Arc::new(counters());
        let r = Arc::clone(&runs);
        assert_eq!(pool.install(move || stolen_tree(&r)), expected);
        each_ran_once(&runs, "join tree");

        // A scope whose spawns each run a quarter of a tree.
        let runs = Arc::new(counters());
        let r = Arc::clone(&runs);
        let total = pool.install(move || {
            let total = AtomicU64::new(0);
            scope(|s| {
                for q in 0..4 {
                    let (runs, total) = (&r, &total);
                    s.spawn(move |_| {
                        let sum = tree(q * LEAVES / 4, (q + 1) * LEAVES / 4, runs);
                        total.fetch_add(sum, Ordering::Relaxed);
                    });
                }
            });
            total.into_inner()
        });
        assert_eq!(total, expected);
        each_ran_once(&runs, "scope spawns");

        // Injected jobs, each a whole tree, submitted from outside the pool.
        let runs: Arc<Vec<Vec<AtomicU8>>> = Arc::new((0..INJECTED).map(|_| counters()).collect());
        let total = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicU64::new(0));
        for job in 0..INJECTED {
            let (runs, total, done) = (Arc::clone(&runs), Arc::clone(&total), Arc::clone(&done));
            pool.spawn(move || {
                total.fetch_add(tree(0, LEAVES, &runs[job]), Ordering::Relaxed);
                done.fetch_add(1, Ordering::Release);
            });
        }
        while done.load(Ordering::Acquire) < INJECTED as u64 {
            std::thread::yield_now();
        }
        assert_eq!(total.load(Ordering::Relaxed), expected * INJECTED as u64);
        for r in runs.iter() {
            each_ran_once(r, "injected trees");
        }

        let stats = pool.stats().snapshot();
        let jobs_stolen: u64 = stats.workers.iter().map(|w| w.jobs_stolen).sum();
        assert!(stats.total_steals() > 0, "{threads} threads stole nothing");
        assert_eq!(stats.total_batch_steals(), stats.total_steals(), "one steal, one task");
        assert_eq!(jobs_stolen, stats.total_steals());
    }
}
