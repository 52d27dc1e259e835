//! Seeded stress tests for the native fork-join kernels (fft, transpose, list ranking)
//! under **oversubscription**: many worker threads on this container's single CPU, so the
//! OS scheduler constantly preempts workers mid-join and steal attempts land on
//! half-drained deques. Like `vendor/crossbeam-deque/tests/stress.rs`, anything
//! probabilistic (observing a steal on a starved host) sits in a bounded retry loop;
//! correctness assertions are unconditional on every run.
//!
//! The panic tests prove the `join` contract the kernels rely on: a panic in one branch —
//! with a real fft/list-ranking kernel running in the sibling — unwinds cleanly through
//! `join` (no deadlock, no poisoned deque), and the pool keeps producing correct results
//! afterwards.

use rand::{rngs::SmallRng, Rng, SeedableRng};
use rws_algos::fft::{fft_native, fft_reference, Complex};
use rws_algos::listrank::{list_ranking_native, list_ranking_reference};
use rws_algos::transpose::{
    bi_to_rm_native, rm_to_bi_native, transpose_native_bi, transpose_reference,
};
use rws_runtime::{join, ThreadPoolBuilder};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

mod support;
use support::random_permutation_list;

/// Worker threads per stress pool — deliberately far above this host's CPU count.
const OVERSUBSCRIBE: usize = 8;
/// Bounded retries for probabilistic observations (a steal on a starved host).
const ATTEMPTS: usize = 10;

fn complex_input(n: usize, rng: &mut SmallRng) -> Vec<Complex> {
    (0..n).map(|_| (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
}

#[test]
fn fft_survives_oversubscription() {
    let pool = ThreadPoolBuilder::new().threads(OVERSUBSCRIBE).build();
    for seed in [1u64, 42, 0xC0FFEE] {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Large enough that one transform outlives the OS scheduling quantum handoffs
        // of an oversubscribed 1-CPU host — a tiny fft completes on the installed
        // worker before any thief even wakes.
        let input = Arc::new(complex_input(4096, &mut rng));
        let expected = fft_reference(&input);
        let mut stolen = false;
        for _ in 0..ATTEMPTS {
            let steals0 = pool.stats().total_steals();
            let on_pool = Arc::clone(&input);
            let got = pool.install(move || fft_native(&on_pool, 16));
            for (a, b) in got.iter().zip(&expected) {
                assert!((a.0 - b.0).abs() < 1e-9 && (a.1 - b.1).abs() < 1e-9, "seed {seed}");
            }
            stolen = stolen || pool.stats().total_steals() > steals0;
            if stolen {
                break;
            }
        }
        assert!(stolen, "no steal observed in {ATTEMPTS} oversubscribed fft runs");
    }
}

#[test]
fn transpose_pipeline_survives_oversubscription() {
    let pool = ThreadPoolBuilder::new().threads(OVERSUBSCRIBE).build();
    let n = 64;
    for seed in [7u64, 99, 0xBAD5EED] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let expected = transpose_reference(&a, n);
        let a = Arc::new(a);
        for _ in 0..3 {
            let on_pool = Arc::clone(&a);
            let got = pool.install(move || {
                let mut bi = rm_to_bi_native(&on_pool, n, 4);
                transpose_native_bi(&mut bi, n, 4);
                bi_to_rm_native(&bi, n, 4)
            });
            assert_eq!(got, expected, "seed {seed}");
        }
    }
}

#[test]
fn list_ranking_survives_oversubscription_with_many_rounds() {
    let pool = ThreadPoolBuilder::new().threads(OVERSUBSCRIBE).build();
    for seed in [3u64, 1234, 0xFEED] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let succ = random_permutation_list(4096, &mut rng);
        let expected = list_ranking_reference(&succ);
        let succ = Arc::new(succ);
        let on_pool = Arc::clone(&succ);
        let got = pool.install(move || list_ranking_native(&on_pool));
        assert_eq!(got, expected, "seed {seed}");
    }
}

#[test]
fn panic_in_a_branch_beside_a_running_fft_unwinds_cleanly() {
    let pool = ThreadPoolBuilder::new().threads(OVERSUBSCRIBE).build();
    let mut rng = SmallRng::seed_from_u64(11);
    let input = Arc::new(complex_input(256, &mut rng));
    let expected = fft_reference(&input);
    for round in 0..5 {
        // One branch runs the real kernel (forking plenty of stealable jobs), the sibling
        // panics. The join must resolve both branches and rethrow on this side of the
        // install, leaving no dangling stack job behind.
        let on_pool = Arc::clone(&input);
        let caught = pool.install(move || {
            catch_unwind(AssertUnwindSafe(|| {
                join(|| fft_native(&on_pool, 16), || panic!("boom {round}"))
            }))
        });
        let payload = caught.expect_err("the panicking branch must rethrow through join");
        let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("boom"), "panic payload preserved, got `{msg}`");
        // The pool is still healthy: the same kernel computes correctly right after.
        let on_pool = Arc::clone(&input);
        let got = pool.install(move || fft_native(&on_pool, 16));
        for (a, b) in got.iter().zip(&expected) {
            assert!((a.0 - b.0).abs() < 1e-9 && (a.1 - b.1).abs() < 1e-9, "round {round}");
        }
    }
}

#[test]
fn panic_in_a_branch_beside_running_list_ranking_unwinds_cleanly() {
    let pool = ThreadPoolBuilder::new().threads(4).build();
    let succ: Vec<usize> = (0..2048).map(|i| (i + 1).min(2047)).collect();
    let expected = list_ranking_reference(&succ);
    let succ = Arc::new(succ);
    for round in 0..5 {
        let on_pool = Arc::clone(&succ);
        let caught = pool.install(move || {
            catch_unwind(AssertUnwindSafe(|| {
                // The panicking branch goes left so the kernel branch is the stack job a
                // thief may be holding when the unwind starts.
                join(|| panic!("ranks {round}"), || list_ranking_native(&on_pool))
            }))
        });
        assert!(caught.is_err(), "round {round}: the panic must surface");
        let on_pool = Arc::clone(&succ);
        assert_eq!(pool.install(move || list_ranking_native(&on_pool)), expected);
    }
}
