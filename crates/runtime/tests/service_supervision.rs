//! Supervision integration: `install`'s panic payloads and panic quarantine accounting —
//! the runtime-level half of the chaos story (the full streamed-traffic harness lives in
//! `rws-lab`).

use rws_runtime::{AdmissionPolicy, JobOutcome, JobServer, ServiceConfig, ThreadPool};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
fn server_survives_sustained_panic_storm_with_stalls_and_overload() {
    // A miniature of the lab's chaos scenario: job panics (one in seven panics before it
    // counts its run) + stalls (one in thirty sleeps 1 ms before its work: 10 of them) + a
    // Shed admission gate under a burst, all settling to terminal outcomes.
    let server = JobServer::new(ServiceConfig {
        threads: 2,
        queue_capacity: 32,
        admission: AdmissionPolicy::Shed,
        ..ServiceConfig::default()
    });
    let executions = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..300)
        .map(|i| {
            let e = Arc::clone(&executions);
            server.submit(move || {
                if i % 30 == 29 {
                    std::thread::sleep(Duration::from_millis(1));
                }
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
}
