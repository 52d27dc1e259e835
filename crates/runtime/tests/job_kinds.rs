//! A queued job is two words with its kind in the low bits of its data pointer, and no drop
//! glue. These tests pin both halves from the outside: the flight recorder labels every job
//! with the kind it was submitted as — whether a worker ran it through the scheduler or a
//! `join` took its own branch back inline — and a pool that is dropped with closures still
//! queued runs them all, so none is leaked.

use rws_runtime::trace::{EventKind, JobKind};
use rws_runtime::{join, scope, ThreadPoolBuilder};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const LEAF: u64 = 64;
const LEAVES: u64 = 1 << 6;
/// Forks in a full binary tree over `LEAVES` leaves.
const FORKS: u64 = LEAVES - 1;

fn recursive_sum(lo: u64, hi: u64) -> u64 {
    if hi - lo <= LEAF {
        return (lo..hi).sum();
    }
    let mid = lo + (hi - lo) / 2;
    let (a, b) = join(move || recursive_sum(lo, mid), move || recursive_sum(mid, hi));
    a + b
}

#[test]
fn the_trace_counts_every_job_under_the_kind_it_was_submitted_as() {
    const TREES: u64 = 8;
    const SPAWNS: u64 = 20;
    const SCOPED: u64 = 16;
    let pool = ThreadPoolBuilder::new().threads(2).trace(1 << 14).build();
    let recorder = pool.trace_recorder().expect("tracing was enabled");

    let n = LEAF * LEAVES;
    for _ in 0..TREES {
        assert_eq!(pool.install(move || recursive_sum(0, n)), n * (n - 1) / 2);
    }
    let spawned = Arc::new(AtomicU64::new(0));
    for _ in 0..SPAWNS {
        let spawned = Arc::clone(&spawned);
        pool.spawn(move || {
            spawned.fetch_add(1, Ordering::Relaxed);
        });
    }
    let scoped = pool.install(|| {
        let ran = AtomicU64::new(0);
        scope(|s| {
            for _ in 0..SCOPED {
                s.spawn(|_| {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        ran.load(Ordering::Relaxed)
    });
    assert_eq!(scoped, SCOPED);
    // Dropping the pool runs what is still queued before the workers exit.
    drop(pool);
    assert_eq!(spawned.load(Ordering::Relaxed), SPAWNS);

    let snapshot = recorder.snapshot();
    assert!(snapshot.lanes.iter().all(|lane| lane.dropped == 0), "the rings overflowed");
    // By raw `aux` code, so a tag outside the three kinds would show as a fourth key.
    let mut starts: BTreeMap<u8, u64> = BTreeMap::new();
    for event in snapshot.events.iter().filter(|e| e.kind == EventKind::JobStart) {
        *starts.entry(event.aux).or_default() += 1;
    }
    let installs = TREES + 1;
    let expected = BTreeMap::from([
        (JobKind::JoinBranch as u8, TREES * FORKS),
        (JobKind::ScopedSpawn as u8, SCOPED),
        (JobKind::InjectedRoot as u8, installs + SPAWNS),
    ]);
    assert_eq!(starts, expected, "job starts by kind code");
}

#[test]
fn a_dropped_pool_runs_and_frees_every_spawned_closure() {
    const SPAWNS: usize = 1_000;
    let owned = Arc::new(());
    let pool = ThreadPoolBuilder::new().threads(2).build();
    for _ in 0..SPAWNS {
        let mine = Arc::clone(&owned);
        pool.spawn(move || drop(mine));
    }
    drop(pool);
    assert_eq!(Arc::strong_count(&owned), 1, "a spawned closure was never run or freed");
}
