//! Supervision integration: `install`'s panic payloads, a dead worker's in-place restart,
//! and panic quarantine accounting — the runtime-level half of the chaos story (the
//! full streamed-traffic harness lives in `rws-lab`).

use rws_runtime::{
    AdmissionPolicy, FaultPlan, FaultSpec, JobOutcome, JobServer, ServiceConfig, ThreadPool,
    ThreadPoolBuilder,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

#[test]
fn try_install_reports_a_panicking_closure_with_its_original_payload() {
    let pool = ThreadPool::new(2);
    match pool.try_install(|| -> u64 { panic!("the real reason") }) {
        Err(payload) => {
            let msg = payload.downcast::<&'static str>().expect("the original payload type");
            assert_eq!(*msg, "the real reason");
        }
        Ok(r) => panic!("expected the closure's panic, got {r}"),
    }
    // And the happy path still returns values.
    assert_eq!(pool.try_install(|| 6 * 7).unwrap(), 42);
}

#[test]
fn install_resumes_the_original_panic_payload_not_a_recv_error() {
    let pool = ThreadPool::new(2);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.install(|| -> u64 { panic!("original message") })
    }))
    .expect_err("install must panic");
    let msg = caught.downcast::<&'static str>().expect("payload must be the closure's own");
    assert_eq!(*msg, "original message", "no misleading secondary recv panic");
}

#[test]
fn try_install_inline_path_catches_panics_too() {
    // From inside one of the pool's own workers, try_install runs inline — the error
    // contract must be identical.
    let pool = Arc::new(ThreadPool::new(1));
    let inner = Arc::clone(&pool);
    let got = pool.install(move || {
        inner.try_install(|| panic!("inline")).map_err(|p| p.downcast::<&'static str>().ok())
    });
    match got {
        Err(Some(msg)) => assert_eq!(*msg, "inline"),
        _ => panic!("the inline path must return the payload, not unwind the worker"),
    }
}

#[test]
fn dead_workers_are_detected_and_respawned_with_their_jobs_drained() {
    // Two deaths almost immediately (either worker may claim either); each dead loop
    // restarts on its own deque, and whatever was still queued there is counted as drained.
    let plan =
        Arc::new(FaultPlan::new(FaultSpec { death_sweeps: vec![0, 1], ..FaultSpec::default() }));
    let pool = ThreadPoolBuilder::new().threads(2).fault_plan(Arc::clone(&plan)).build();
    let deadline = Instant::now() + Duration::from_secs(30);
    while pool.stats().total_respawns() < 2 {
        assert!(Instant::now() < deadline, "planned deaths never fired or never restarted");
        thread::yield_now();
    }
    assert_eq!(plan.deaths_injected(), 2);
    assert_eq!(pool.stats().total_respawns(), 2, "one restart per death");
    assert_eq!(pool.stats().total_jobs_drained(), 0, "both died before any job was queued");
    // The healed pool serves work (the plan has no deaths left to inject).
    assert_eq!(pool.install(|| 21 * 2), 42);
}

#[test]
fn panic_quarantine_is_health_tracked_per_worker() {
    let pool = ThreadPool::new(1);
    for _ in 0..3 {
        pool.spawn(|| panic!("quarantine me"));
    }
    // The one worker takes the injector in order, so the install runs after the three
    // panics were quarantined and counted.
    assert_eq!(pool.install(|| 5), 5, "the worker survives its quarantined panics");
    assert_eq!(pool.stats().snapshot().workers[0].panics_caught, 3);
}

#[test]
fn server_survives_sustained_panic_storm_with_deaths_and_overload() {
    // A miniature of the lab's chaos scenario: job panics (one in seven panics before it
    // counts its run) + worker deaths + a Shed admission gate under a burst, all settling to
    // terminal outcomes.
    let plan =
        Arc::new(FaultPlan::new(FaultSpec { death_sweeps: vec![50, 500], ..FaultSpec::default() }));
    let server = JobServer::new(ServiceConfig {
        threads: 2,
        queue_capacity: 32,
        admission: AdmissionPolicy::Shed,
        faults: Some(Arc::clone(&plan)),
        ..ServiceConfig::default()
    });
    let executions = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..300)
        .map(|i| {
            let e = Arc::clone(&executions);
            server.submit(move || {
                if i % 7 == 3 {
                    std::panic::resume_unwind(Box::new("planned job panic"));
                }
                e.fetch_add(1, Ordering::Relaxed);
            })
        })
        .collect();
    for h in &handles {
        let outcome = h.wait_timeout(Duration::from_secs(120)).expect("every job settles");
        assert!(matches!(outcome, JobOutcome::Completed | JobOutcome::Panicked | JobOutcome::Shed));
    }
    let snap = server.shutdown();
    assert_eq!(snap.submitted, 300);
    assert_eq!(snap.completed + snap.panicked + snap.shed, 300, "outcome conservation");
    assert_eq!(
        executions.load(Ordering::Relaxed),
        snap.completed,
        "exactly the completed jobs ran their closures — none lost, none twice"
    );
    assert!(snap.panicked > 0, "the planned panics were quarantined");
    assert_eq!(snap.respawns as usize, plan.deaths_injected(), "every death was healed");
}

#[test]
fn deaths_that_fire_during_shutdown_are_counted() {
    // Forty deaths three sweeps apart, the first at a different sweep each round: a death
    // left over when the jobs are done fires when `shutdown` wakes the parked workers, and
    // `shutdown` joins its workers before it counts, so the snapshot holds every restart.
    for round in 0..300u64 {
        let plan = Arc::new(FaultPlan::new(FaultSpec {
            death_sweeps: (0..40).map(|k| round % 7 + 3 * k).collect(),
            ..FaultSpec::default()
        }));
        let server = JobServer::new(ServiceConfig {
            threads: 2,
            faults: Some(Arc::clone(&plan)),
            ..ServiceConfig::default()
        });
        let handles: Vec<_> = (0..8).map(|_| server.submit(|| {})).collect();
        for h in &handles {
            assert_eq!(h.wait(), JobOutcome::Completed);
        }
        let snap = server.shutdown();
        assert_eq!(
            snap.respawns as usize,
            plan.deaths_injected(),
            "round {round}: a death claimed during shutdown went uncounted"
        );
    }
}
