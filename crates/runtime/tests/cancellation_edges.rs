//! Cancellation edge cases: the cooperative-token contract at every fork-point flavor,
//! and the first-terminal-outcome-wins arbitration under races.
//!
//! Host note: CI runs on 1 CPU, so every wait is bounded and every assertion tolerates
//! starved scheduling (jobs always settle; only *when* is timing-dependent).

use rws_runtime::cancel;
use rws_runtime::{AdmissionPolicy, JobOutcome, JobServer, ParSliceExt, ServiceConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn server(threads: usize) -> JobServer {
    JobServer::new(ServiceConfig {
        threads,
        queue_capacity: 64,
        admission: AdmissionPolicy::Block,
        ..ServiceConfig::default()
    })
}

#[test]
fn token_is_observed_between_sibling_spawns() {
    let srv = server(2);
    let first_ran = Arc::new(AtomicU64::new(0));
    let second_ran = Arc::new(AtomicU64::new(0));
    let (a, b) = (Arc::clone(&first_ran), Arc::clone(&second_ran));
    let handle = srv.submit_with_deadline(
        move || {
            rws_runtime::scope(|s| {
                s.spawn(|_| {
                    a.fetch_add(1, Ordering::Relaxed);
                });
                // The deadline passes between the siblings: the *next* spawn call is a
                // cancellation point and must unwind before queueing its closure.
                while !cancel::is_cancelled().expect("a service job runs under its flag") {
                    thread::yield_now();
                }
                s.spawn(|_| {
                    b.fetch_add(1, Ordering::Relaxed);
                });
            });
        },
        Duration::from_millis(5),
    );
    assert_eq!(
        handle.wait_timeout(Duration::from_secs(60)),
        Some(JobOutcome::Deadline),
        "the cancellation unwind must surface as the job's outcome"
    );
    let snap = srv.shutdown();
    assert_eq!(first_ran.load(Ordering::Relaxed), 1, "the already-queued sibling still runs");
    assert_eq!(second_ran.load(Ordering::Relaxed), 0, "the post-cancel sibling never queues");
    assert_eq!(snap.deadline, 1);
}

#[test]
fn deadline_bites_mid_par_chunks_mut() {
    let srv = server(2);
    let handle = srv.submit_with_deadline(
        || {
            // Keep sweeping a slice: par_chunks_mut splits through `join`, so every grain
            // boundary is a cancellation point. One sweep is ~ (len/grain) * 1ms of leaf
            // sleeps; the deadline lands inside some sweep, never at a clean boundary.
            let mut data = vec![1u64; 64];
            loop {
                data.par_chunks_mut(1).with_grain(4).for_each(|_| {
                    thread::sleep(Duration::from_millis(1));
                });
            }
        },
        Duration::from_millis(30),
    );
    assert_eq!(
        handle.wait_timeout(Duration::from_secs(60)),
        Some(JobOutcome::Deadline),
        "the deadline must cut the parallel iteration short"
    );
    let snap = srv.shutdown();
    assert_eq!(snap.deadline, 1);
}

#[test]
fn panic_racing_a_deadline_yields_exactly_one_terminal_outcome() {
    // A job that panics right around its own deadline: whichever lands first must win,
    // the other must lose the settle CAS, and the outcome partition must stay exact.
    let srv = server(2);
    let rounds = 30u64;
    let handles: Vec<_> = (0..rounds)
        .map(|i| {
            srv.submit_with_deadline(
                move || {
                    // Jitter the panic around the 2ms budget so some rounds panic first
                    // and some expire first.
                    thread::sleep(Duration::from_micros(500 * (i % 8)));
                    rws_runtime::check_cancel();
                    panic!("racing the deadline");
                },
                Duration::from_millis(2),
            )
        })
        .collect();
    for h in &handles {
        let first = h.wait_timeout(Duration::from_secs(60)).expect("every job settles");
        assert!(
            matches!(first, JobOutcome::Panicked | JobOutcome::Deadline),
            "terminal outcome must be the panic or the deadline, got {first:?}"
        );
        // Exactly one: the outcome is immutable once set.
        for _ in 0..5 {
            assert_eq!(h.outcome(), Some(first), "a settled outcome never changes");
        }
    }
    let snap = srv.shutdown();
    assert_eq!(snap.submitted, rounds);
    assert_eq!(
        snap.completed + snap.panicked + snap.deadline + snap.shed,
        rounds,
        "outcomes partition submissions exactly — no double settle, no loss"
    );
    assert_eq!(snap.completed, 0, "no round can complete: it panics or expires");
}

#[test]
fn deadline_token_follows_stolen_join_branches() {
    // The token is captured into the StackJob at fork, so a branch stolen by another
    // worker still observes the owner's deadline at its own nested forks.
    let srv = server(3);
    let handle = srv.submit_with_deadline(
        || {
            fn spin_forks(depth: u32) {
                if depth == 0 {
                    thread::sleep(Duration::from_millis(1));
                    return;
                }
                rws_runtime::join(|| spin_forks(depth - 1), || spin_forks(depth - 1));
            }
            loop {
                spin_forks(4);
            }
        },
        Duration::from_millis(25),
    );
    assert_eq!(handle.wait_timeout(Duration::from_secs(60)), Some(JobOutcome::Deadline));
    srv.shutdown();
}

#[test]
fn a_deadline_cancels_the_branch_a_thief_is_running() {
    // The owner sits in its left branch until the right branch has started somewhere else,
    // so the right branch is stolen by construction — and it is the only code in the job
    // that ever looks at the token. The supervisor flips the *job's* token when the
    // deadline passes; the job ends in `Deadline` only if the word the thief installed
    // from the fork is that same token.
    let srv = server(2);
    let stolen = Arc::new(AtomicBool::new(false));
    let saw_token = Arc::new(AtomicBool::new(false));
    let (stolen_w, saw_token_w) = (Arc::clone(&stolen), Arc::clone(&saw_token));
    let handle = srv.submit_with_deadline(
        move || {
            let owner = thread::current().id();
            let started = AtomicBool::new(false);
            rws_runtime::join(
                || {
                    while !started.load(Ordering::Acquire) {
                        thread::yield_now();
                    }
                },
                || {
                    stolen_w.store(thread::current().id() != owner, Ordering::Relaxed);
                    saw_token_w.store(cancel::is_cancelled().is_some(), Ordering::Relaxed);
                    started.store(true, Ordering::Release);
                    loop {
                        rws_runtime::check_cancel();
                        thread::sleep(Duration::from_millis(1));
                    }
                },
            );
        },
        Duration::from_millis(250),
    );
    assert_eq!(
        handle.wait_timeout(Duration::from_secs(60)),
        Some(JobOutcome::Deadline),
        "the thief's cancellation unwind travels back through the owner's join"
    );
    assert!(stolen.load(Ordering::Relaxed), "the right branch ran on the other worker");
    assert!(saw_token.load(Ordering::Relaxed), "the thief ran under a token");
    // Both workers' token words are clean again: a fresh job sees only its own, live token.
    for _ in 0..4 {
        let h = srv.submit(|| {
            assert_eq!(cancel::is_cancelled(), Some(false), "own token, still live");
        });
        assert_eq!(h.wait_timeout(Duration::from_secs(60)), Some(JobOutcome::Completed));
    }
    assert_eq!(srv.shutdown().deadline, 1);
}

#[test]
fn a_job_with_no_deadline_never_inherits_its_helpers() {
    // Worker A runs a deadline job whose right branch worker B steals and sleeps in; A
    // finishes its left branch and helps while it waits — with the one job in sight, an
    // `install` from outside the pool. That install has no deadline, so the deadline job's
    // flag, raised while A runs it, must not cut it short.
    let srv = server(2);
    let stolen = Arc::new(AtomicBool::new(false));
    let stolen_w = Arc::clone(&stolen);
    let handle = srv.submit_with_deadline(
        move || {
            let started = AtomicBool::new(false);
            rws_runtime::join(
                || {
                    while !started.load(Ordering::Acquire) {
                        thread::yield_now();
                    }
                },
                || {
                    started.store(true, Ordering::Release);
                    stolen_w.store(true, Ordering::Release);
                    thread::sleep(Duration::from_millis(500));
                },
            );
        },
        Duration::from_millis(20),
    );
    while !stolen.load(Ordering::Acquire) {
        thread::yield_now();
    }
    let installed = srv.pool().try_install(|| {
        for _ in 0..200 {
            rws_runtime::join(|| (), || ());
            thread::sleep(Duration::from_millis(1));
        }
    });
    assert!(installed.is_ok(), "an install runs under no deadline, whoever helps with it");
    assert!(handle.wait_timeout(Duration::from_secs(60)).is_some(), "the deadline job settles");
    srv.shutdown();
}
