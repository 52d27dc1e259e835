//! What a submitted job costs its submitter, pinned as counts rather than timings: wake-ups
//! issued (`ThreadPool::wake_events`, the sleep protocol's event counter — every event is a
//! lock and a `futex` call) and heap allocations on the submitting thread.
//!
//! `JobServer::submit` publishes the job, issues a full fence and looks at the sleeper
//! count: it wakes one worker if one is parked and otherwise makes no system call. Before,
//! every submission broadcast to the pool whoever was awake, so the first test read 63
//! events where it now reads 0.
//!
//! A job the server has served costs it nothing afterwards: the last test serves 2^16 jobs
//! through one server and finds no allocation beyond each job's own two. An injector
//! that kept its consumed slots until it dropped (≈ 30 bytes a job, in one 32-slot block
//! per 32 submissions) would read 2 048 there.

use rws_runtime::{AdmissionPolicy, JobOutcome, JobServer, ServiceConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{thread_allocations, CountingAllocator};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// A 1-worker `Block` server whose queue never fills in these tests.
fn one_worker_server() -> JobServer {
    JobServer::new(ServiceConfig {
        threads: 1,
        queue_capacity: 4096,
        admission: AdmissionPolicy::Block,
        ..ServiceConfig::default()
    })
}

#[test]
fn submissions_to_a_busy_server_wake_nobody() {
    const JOBS: u64 = 64;
    let server = one_worker_server();
    let ran = Arc::new(AtomicU64::new(0));
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();

    // Job 0 holds the only worker: awake, inside a job, registered nowhere as a sleeper.
    let mut handles = Vec::new();
    let r = Arc::clone(&ran);
    handles.push(server.submit(move || {
        started_tx.send(()).expect("the test is listening");
        release_rx.recv().expect("the test releases job 0");
        r.fetch_add(1, Ordering::Relaxed);
    }));
    started_rx.recv().expect("job 0 starts");
    assert_eq!(server.pool().parked_workers(), 0, "the worker is inside job 0");

    let before = server.pool().wake_events();
    for _ in 1..JOBS {
        let r = Arc::clone(&ran);
        handles.push(server.submit(move || {
            r.fetch_add(1, Ordering::Relaxed);
        }));
    }
    assert_eq!(
        server.pool().wake_events() - before,
        0,
        "{} submissions to a server whose only worker is awake must issue no wake-up",
        JOBS - 1
    );

    release_tx.send(()).expect("job 0 is waiting");
    for h in &handles {
        assert_eq!(h.wait(), JobOutcome::Completed);
    }
    assert_eq!(ran.load(Ordering::Relaxed), JOBS, "every queued job ran once job 0 let go");
    assert_eq!(server.shutdown().completed, JOBS);
}

#[test]
fn a_submission_to_a_parked_worker_issues_exactly_one_wake() {
    const ATTEMPTS: usize = 50;
    let server = one_worker_server();
    let pool = server.pool();
    let mut pinned = 0;
    for _ in 0..ATTEMPTS {
        // A parked worker re-registers after every 1 ms backstop tick, so "parked" is only
        // known to have held from this reading to the wake if no tick fell in between —
        // and a tick is counted before the worker looks for the job it will then run.
        let deadline = Instant::now() + Duration::from_secs(10);
        let backstops = loop {
            let backstops = pool.stats().snapshot().total_backstop_wakes();
            if pool.parked_workers() == 1 {
                break backstops;
            }
            assert!(Instant::now() < deadline, "the idle worker never parked");
            std::thread::yield_now();
        };
        let before = pool.wake_events();
        assert_eq!(server.submit(|| {}).wait(), JobOutcome::Completed);
        let wakes = pool.wake_events() - before;
        assert!(wakes <= 1, "one job needs one worker, not {wakes} wake-ups");
        if pool.stats().snapshot().total_backstop_wakes() == backstops {
            assert_eq!(wakes, 1, "the worker was parked throughout: the submission wakes it");
            pinned += 1;
        }
    }
    assert!(pinned > 0, "every one of {ATTEMPTS} submissions raced a backstop tick");
}

#[test]
fn a_submission_costs_its_thread_two_allocations() {
    const JOBS: u64 = 1024;
    let server = one_worker_server();
    let ran = Arc::new(AtomicU64::new(0));
    let submit = |handles: &mut Vec<_>| {
        let r = Arc::clone(&ran);
        handles.push(server.submit(move || {
            r.fetch_add(1, Ordering::Relaxed);
        }));
    };
    // Room for every handle up front, and a few submissions to absorb one-time costs.
    let mut handles = Vec::with_capacity(JOBS as usize + 8);
    (0..8).for_each(|_| submit(&mut handles));

    let before = thread_allocations();
    (0..JOBS).for_each(|_| submit(&mut handles));
    let allocations = thread_allocations() - before;

    // The job's shared state (its deadline flag included) and the boxed closure the
    // injector carries; the injector's `VecDeque` reallocates only when the queue outgrows
    // its peak depth, at most `⌈log2 n⌉ + 1` times for `n` pushes, on the pushing thread.
    let doubling_bound = u64::from(JOBS.next_power_of_two().ilog2()) + 1;
    let budget = 2 * JOBS + doubling_bound + 1;
    assert!(
        allocations <= budget,
        "{JOBS} submissions cost the submitting thread {allocations} allocations (budget {budget})"
    );
    for h in &handles {
        assert_eq!(h.wait(), JobOutcome::Completed);
    }
    assert_eq!(ran.load(Ordering::Relaxed), JOBS + 8);
}

#[test]
fn a_long_lived_server_keeps_nothing_per_job_it_has_served() {
    const ROUND: usize = 64;
    const JOBS: u64 = 1 << 16;
    let server = one_worker_server();
    let ran = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::with_capacity(ROUND);
    // One closed round: submit 64, wait for all. The handles' buffer is reused.
    let mut round = || {
        for _ in 0..ROUND {
            let r = Arc::clone(&ran);
            handles.push(server.submit(move || {
                r.fetch_add(1, Ordering::Relaxed);
            }));
        }
        for h in handles.drain(..) {
            assert_eq!(h.wait(), JobOutcome::Completed);
        }
    };
    // The warm-up round grows the injector's queue to the depth every later round reuses.
    round();

    let before = thread_allocations();
    (0..JOBS / ROUND as u64).for_each(|_| round());
    let overhead = (thread_allocations() - before).saturating_sub(2 * JOBS);

    // Two allocations are the job's own (see the test above), freed once it settles and
    // its handle drops; whatever is left over is what the server keeps per job served.
    assert!(
        overhead <= 16,
        "{JOBS} jobs served in closed rounds of {ROUND} cost the submitting thread {overhead} \
         allocations beyond two a job: the server keeps memory for jobs it has finished"
    );
    assert_eq!(ran.load(Ordering::Relaxed), JOBS + ROUND as u64);
}
