//! A panic through every public entry point stays in the job that raised it.
//!
//! Every job kind catches its own unwind — a `spawn`ed closure in its `HeapJob`, a `join`
//! branch or an install in its `StackJob`, a scoped spawn in its scope, a service job in its
//! root wrapper — so no closure's panic ever reaches a worker's scheduling loop. (An unwind
//! that did would abort the process, and this test binary with it.) Each case runs 50 rounds on
//! a 1-thread and on a 2-thread pool, and the pools still compute afterwards.
//!
//! The closures panic with `resume_unwind`, which skips the panic hook, so a passing run
//! prints nothing; the unwind is the same as a `panic!`'s.

use rws_runtime::{
    current_num_threads, join, scope, JobOutcome, JobServer, ParSliceExt, ServiceConfig, ThreadPool,
};
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const ROUNDS: u64 = 50;

/// The payload every planted panic carries, tagged with the case that raised it.
#[derive(Debug, PartialEq)]
struct Boom(u32);

fn boom(case: u32) -> u64 {
    panic::resume_unwind(Box::new(Boom(case)))
}

fn case_of(payload: Box<dyn Any + Send>) -> u32 {
    payload.downcast::<Boom>().expect("the closure's own payload").0
}

/// Run `f`, which must panic, and return its case tag.
fn caught(f: impl FnOnce() -> u64) -> u32 {
    case_of(panic::catch_unwind(AssertUnwindSafe(f)).expect_err("the planted panic surfaces"))
}

/// Give a thief up to 50 ms to take the other branch (signalled by `taken`). On a
/// 1-thread pool nobody can, so do not wait.
fn wait_for_a_thief(taken: &AtomicBool) {
    if current_num_threads() < 2 {
        return;
    }
    let deadline = Instant::now() + Duration::from_millis(50);
    while !taken.load(Ordering::Acquire) && Instant::now() < deadline {
        thread::yield_now();
    }
}

fn recursive_sum(lo: u64, hi: u64) -> u64 {
    if hi - lo <= 64 {
        return (lo..hi).sum();
    }
    let mid = lo + (hi - lo) / 2;
    let (a, b) = join(move || recursive_sum(lo, mid), move || recursive_sum(mid, hi));
    a + b
}

/// One round of every pool entry point, each with a panicking closure.
fn one_round(pool: &Arc<ThreadPool>, spawned: &Arc<AtomicU64>) {
    let joins = pool.install(|| {
        // Unstolen (or stolen, if a thief is quick): either branch panics.
        let left = caught(|| join(|| boom(1), || 0).0);
        let right = caught(|| join(|| 0, || boom(2)).1);
        // The right branch waits to be stolen and panics on the thief.
        let taken = AtomicBool::new(false);
        let stolen_right = caught(|| {
            join(
                || wait_for_a_thief(&taken),
                || {
                    taken.store(true, Ordering::Release);
                    boom(3)
                },
            )
            .1
        });
        // The owner panics while a thief runs the right branch.
        let taken = AtomicBool::new(false);
        let owner_under_theft = caught(|| {
            join(
                || {
                    wait_for_a_thief(&taken);
                    boom(4)
                },
                || taken.store(true, Ordering::Release),
            )
            .0
        });
        [left, right, stolen_right, owner_under_theft]
    });
    assert_eq!(joins, [1, 2, 3, 4]);

    let s = Arc::clone(spawned);
    pool.spawn(move || {
        s.fetch_add(1, Ordering::Relaxed);
        boom(5);
    });

    assert_eq!(case_of(pool.try_install(|| boom(6)).expect_err("cross-thread install")), 6);
    let inner = Arc::clone(pool);
    let inline = pool.install(move || inner.try_install(|| boom(7)).map_err(case_of));
    assert_eq!(inline, Err(7), "an inline install returns the payload");

    let leaf = pool.install(|| {
        let mut v = vec![0u64; 256];
        caught(|| {
            v.par_chunks_mut(16).for_each_indexed(|i, c| {
                if i == 9 {
                    boom(8);
                }
                c.fill(1);
            });
            0
        })
    });
    assert_eq!(leaf, 8);

    let spawn_in_scope = pool.install(|| {
        caught(|| {
            scope(|s| {
                s.spawn(|_| {
                    boom(9);
                })
            });
            0
        })
    });
    assert_eq!(spawn_in_scope, 9);
}

fn every_entry_point_on(threads: usize) {
    let pool = Arc::new(ThreadPool::new(threads));
    let spawned = Arc::new(AtomicU64::new(0));
    for _ in 0..ROUNDS {
        one_round(&pool, &spawned);
    }
    // The spawned jobs' panics are caught and counted by whichever worker ran them.
    let deadline = Instant::now() + Duration::from_secs(30);
    while pool.stats().snapshot().total_panics_caught() < ROUNDS {
        assert!(Instant::now() < deadline, "a spawned panic was never caught");
        thread::yield_now();
    }
    assert_eq!(spawned.load(Ordering::Relaxed), ROUNDS);
    let snap = pool.stats().snapshot();
    assert_eq!(snap.total_panics_caught(), ROUNDS, "only the spawns are quarantined");
    if threads > 1 {
        assert!(snap.total_steals() > 0, "no branch was stolen: the stolen cases were vacuous");
    }
    // The pool still computes.
    let n = 64 * 1024;
    assert_eq!(pool.install(move || recursive_sum(0, n)), n * (n - 1) / 2);
}

#[test]
fn a_panic_through_every_pool_entry_point_stays_in_its_job_on_one_thread() {
    every_entry_point_on(1);
}

#[test]
fn a_panic_through_every_pool_entry_point_stays_in_its_job_on_two_threads() {
    every_entry_point_on(2);
}

#[test]
fn panicking_and_deadline_cut_service_jobs_settle_and_leave_the_server_serving() {
    let server = JobServer::new(ServiceConfig { threads: 2, ..ServiceConfig::default() });
    let panicking: Vec<_> = (0..ROUNDS)
        .map(|_| {
            server.submit(|| {
                boom(10);
            })
        })
        .collect();
    // A job that forks until its 1 ms deadline cuts it at a fork point.
    let cut: Vec<_> = (0..ROUNDS)
        .map(|_| {
            server.submit_with_deadline(
                || loop {
                    join(|| recursive_sum(0, 4096), || recursive_sum(0, 4096));
                },
                Duration::from_millis(1),
            )
        })
        .collect();
    for h in &panicking {
        assert_eq!(h.wait_timeout(Duration::from_secs(60)), Some(JobOutcome::Panicked));
    }
    for h in &cut {
        assert_eq!(h.wait_timeout(Duration::from_secs(60)), Some(JobOutcome::Deadline));
    }
    let ok =
        server.submit(|| assert_eq!(recursive_sum(0, 1 << 16), (1 << 16) * ((1 << 16) - 1) / 2));
    assert_eq!(ok.wait_timeout(Duration::from_secs(60)), Some(JobOutcome::Completed));
    let snap = server.shutdown();
    assert_eq!((snap.panicked, snap.deadline, snap.completed), (ROUNDS, ROUNDS, 1));
}
