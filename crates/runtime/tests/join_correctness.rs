//! Native `join` correctness: balanced and unbalanced recursion, deep nesting, many small
//! joins, and values that must move between threads intact.

use rws_runtime::{join, ThreadPool};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = join(move || fib(n - 1), move || fib(n - 2));
    a + b
}

#[test]
fn nested_unbalanced_joins_compute_fib() {
    let p = ThreadPool::new(4);
    assert_eq!(p.install(|| fib(20)), 6765);
}

fn sum_tree(lo: u64, hi: u64, grain: u64) -> u64 {
    if hi - lo <= grain {
        return (lo..hi).sum();
    }
    let mid = lo + (hi - lo) / 2;
    let (a, b) = join(move || sum_tree(lo, mid, grain), move || sum_tree(mid, hi, grain));
    a + b
}

#[test]
fn balanced_recursion_is_correct_across_thread_counts() {
    for threads in [1usize, 2, 7] {
        let p = ThreadPool::new(threads);
        let n = 300_000u64;
        assert_eq!(p.install(move || sum_tree(0, n, 512)), n * (n - 1) / 2, "{threads} threads");
    }
}

#[test]
fn fine_grained_joins_run_every_leaf_exactly_once() {
    let p = ThreadPool::new(4);
    let counter = Arc::new(AtomicU64::new(0));
    fn touch(counter: Arc<AtomicU64>, lo: u64, hi: u64) {
        if hi - lo == 1 {
            counter.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mid = lo + (hi - lo) / 2;
        let c2 = Arc::clone(&counter);
        join(move || touch(counter, lo, mid), move || touch(c2, mid, hi));
    }
    let c = Arc::clone(&counter);
    p.install(move || touch(c, 0, 2048));
    assert_eq!(counter.load(Ordering::Relaxed), 2048);
}

#[test]
fn join_moves_owned_values_across_branches() {
    let p = ThreadPool::new(3);
    let out = p.install(|| {
        let left = vec![1u32; 1000];
        let right = String::from("payload");
        let (l, r) = join(move || left.iter().sum::<u32>(), move || right.len());
        (l, r)
    });
    assert_eq!(out, (1000, 7));
}

#[test]
fn stolen_branches_execute_exactly_once_under_contention() {
    // Every join's right branch increments the counter once before recursing, so a complete
    // binary recursion of depth d must add exactly 2^d - 1 — any double execution of a
    // stolen stack job (or a lost one) breaks the count. Wide pools on few cores maximize
    // preemption-driven interleavings; repeated runs vary the schedule.
    fn count_tree(counter: &AtomicU64, depth: u32) {
        if depth == 0 {
            return;
        }
        join(
            || count_tree(counter, depth - 1),
            || {
                counter.fetch_add(1, Ordering::Relaxed);
                count_tree(counter, depth - 1);
            },
        );
    }
    let p = ThreadPool::new(8);
    // On a starved host a small tree can occasionally complete on the installed worker
    // before any thief is scheduled, so keep running rounds (each one exact-checked)
    // until steals have demonstrably happened.
    let mut rounds = 0;
    while p.stats().snapshot().total_steals() == 0 {
        rounds += 1;
        assert!(rounds <= 100, "no steal in {rounds} rounds — not contending");
        let depth = 13;
        let count = p.install(move || {
            let counter = AtomicU64::new(0);
            count_tree(&counter, depth);
            counter.load(Ordering::Relaxed)
        });
        assert_eq!(
            count,
            (1 << depth) - 1,
            "round {rounds}: stolen right branches must run exactly once"
        );
    }
}

#[test]
fn steals_occur_when_work_is_wide() {
    let p = ThreadPool::new(4);
    // On a starved host (or with the allocation-free hot path in a release build) one
    // run can finish on the installed worker before any thief is scheduled; repeat —
    // with rounds long enough to outlast an OS scheduling quantum, so on a single CPU
    // the running worker is eventually preempted while work is still queued — until a
    // steal demonstrably happened.
    let mut rounds = 0;
    while p.stats().snapshot().total_steals() == 0 {
        rounds += 1;
        assert!(rounds <= 50, "a wide 4-worker run must steal at least once");
        let n = 8_000_000u64;
        assert_eq!(p.install(move || sum_tree(0, n, 64)), n * (n - 1) / 2);
        assert!(p.stats().snapshot().total_jobs() > 0, "forked jobs must be recorded");
    }
}
