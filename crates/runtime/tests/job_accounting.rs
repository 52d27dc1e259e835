//! Exact job accounting under the single-writer counters: a fork tree of `F` forks counts
//! exactly `F + 1` jobs (the installed root plus one per right branch, whoever ran it), and
//! a reader on another thread never sees a per-worker counter go backwards.
//!
//! The per-worker counters are bumped with a plain load and store by their one writer (see
//! `stats.rs`); a lost update would show as a short count here, a torn or reordered one as
//! a counter that decreases under the reader.

use rws_runtime::{join, PoolStatsSnapshot, ThreadPoolBuilder, WorkerSnapshot};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;

const LEAF: u64 = 64;
const LEAVES: u64 = 1 << 10;
/// Forks in a full binary tree over `LEAVES` leaves.
const FORKS: u64 = LEAVES - 1;
const REPEATS: usize = 50;

fn recursive_sum(lo: u64, hi: u64) -> u64 {
    if hi - lo <= LEAF {
        return (lo..hi).sum();
    }
    let mid = lo + (hi - lo) / 2;
    let (a, b) = join(move || recursive_sum(lo, mid), move || recursive_sum(mid, hi));
    a + b
}

fn fields(w: &WorkerSnapshot) -> [u64; 8] {
    [
        w.steals,
        w.jobs,
        w.failed_steals,
        w.steal_retries,
        w.parks,
        w.batch_steals,
        w.jobs_stolen,
        w.panics_caught,
    ]
}

fn assert_monotone(prev: &PoolStatsSnapshot, now: &PoolStatsSnapshot) {
    for (index, (p, n)) in prev.workers.iter().zip(&now.workers).enumerate() {
        for (field, (before, after)) in fields(p).into_iter().zip(fields(n)).enumerate() {
            assert!(after >= before, "worker {index} counter {field} fell: {before} -> {after}");
        }
    }
}

#[test]
fn a_fork_tree_counts_one_job_per_fork_plus_its_root_while_a_reader_watches() {
    for threads in [1usize, 4] {
        let pool = ThreadPoolBuilder::new().threads(threads).build();
        let stats = pool.stats();
        let stop = AtomicBool::new(false);
        let taken = AtomicU64::new(0);
        thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut prev = stats.snapshot();
                let mut snapshots = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let now = stats.snapshot();
                    assert_monotone(&prev, &now);
                    prev = now;
                    snapshots += 1;
                    taken.store(snapshots, Ordering::Release);
                    thread::yield_now();
                }
                snapshots
            });
            // On a loaded host the trees can all finish before the reader is first
            // scheduled; it must be watching before the first one starts (or have failed).
            while taken.load(Ordering::Acquire) == 0 && !reader.is_finished() {
                thread::yield_now();
            }
            let n = LEAF * LEAVES;
            for repeat in 0..REPEATS {
                let before = stats.snapshot();
                assert_eq!(pool.install(move || recursive_sum(0, n)), n * (n - 1) / 2);
                let delta = stats.snapshot_delta(&before);
                assert_eq!(
                    delta.total_jobs(),
                    FORKS + 1,
                    "{threads} threads, repeat {repeat}: root + one per fork"
                );
            }
            stop.store(true, Ordering::Release);
            assert!(reader.join().expect("reader") > 0, "the reader took snapshots");
        });
        let totals = stats.snapshot();
        let jobs_stolen: u64 = totals.workers.iter().map(|w| w.jobs_stolen).sum();
        assert_eq!(totals.total_jobs(), REPEATS as u64 * (FORKS + 1), "{threads} threads");
        assert_eq!(jobs_stolen, totals.total_steals(), "{threads} threads");
        if threads == 1 {
            assert_eq!(totals.total_steals(), 0, "nobody to steal from");
            assert_eq!(totals.workers[0].jobs, REPEATS as u64 * (FORKS + 1));
        }
    }
}
