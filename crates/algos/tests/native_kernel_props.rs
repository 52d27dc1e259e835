//! Randomized property tests for the native fork-join kernels, in the style of
//! `tests/properties.rs`: seeded [`SmallRng`] case loops (deterministic, with the case
//! seed in every assertion message) standing in for `proptest`, which this offline build
//! cannot depend on.
//!
//! * `fft_native` agrees with the `O(n²)` DFT oracle within epsilon — a *different*
//!   algorithm than the radix-2 reference, so agreement is evidence, not tautology;
//! * the layout conversions round-trip: `bi_to_rm_native ∘ rm_to_bi_native = id`, and each
//!   direction agrees with its sequential reference exactly (pure copies, no arithmetic);
//! * `list_ranking_native` agrees with `list_ranking_reference` on random permutation
//!   lists — both random-order chains (self-loop tail) and full cycles (no fixed point,
//!   where the native kernel must give every node the reference's `2^rounds`).

use rand::{rngs::SmallRng, Rng, SeedableRng};
use rws_algos::fft::{dft_reference, fft_native, Complex};
use rws_algos::listrank::{list_ranking_native, list_ranking_reference};
use rws_algos::transpose::{
    bi_to_rm_native, bi_to_rm_reference, rm_to_bi_native, rm_to_bi_reference, transpose_native_bi,
    transpose_reference,
};

const CASES: u64 = 32;

/// Absolute tolerance against the DFT oracle: the oracle itself accumulates `O(n)` rounding
/// per output point, so this is looser than the kernel-vs-radix-2 parity tolerance.
const DFT_EPS: f64 = 1e-6;

fn random_complex(n: usize, rng: &mut SmallRng) -> Vec<Complex> {
    (0..n).map(|_| (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
}

fn shuffled(n: usize, rng: &mut SmallRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

#[test]
fn fft_native_matches_the_dft_oracle_within_epsilon() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xFF7 + case);
        let n = 1usize << rng.gen_range(0u32..9); // 1 .. 256
        let base = 1usize << rng.gen_range(0u32..5); // 1 .. 16
        let input = random_complex(n, &mut rng);
        let fast = fft_native(&input, base);
        let slow = dft_reference(&input);
        for (k, (a, b)) in fast.iter().zip(&slow).enumerate() {
            assert!(
                (a.0 - b.0).abs() < DFT_EPS && (a.1 - b.1).abs() < DFT_EPS,
                "case {case} (n = {n}, base = {base}), point {k}: {a:?} vs {b:?}"
            );
        }
    }
}

#[test]
fn layout_conversions_round_trip_and_match_references() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1A70 + case);
        let n = 1usize << rng.gen_range(0u32..6); // 1 .. 32
        let base = (1usize << rng.gen_range(0u32..4)).min(n);
        let a: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-100.0..100.0)).collect();
        let bi = rm_to_bi_native(&a, n, base);
        assert_eq!(bi, rm_to_bi_reference(&a, n), "case {case} (n = {n}, base = {base})");
        let back = bi_to_rm_native(&bi, n, base);
        assert_eq!(back, a, "case {case}: bi_to_rm_native ∘ rm_to_bi_native must be id");
        assert_eq!(back, bi_to_rm_reference(&bi, n), "case {case}");
    }
}

#[test]
fn native_transpose_agrees_with_the_reference_on_random_matrices() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x7A05 + case);
        let n = 1usize << rng.gen_range(0u32..6); // 1 .. 32
        let base = (1usize << rng.gen_range(0u32..4)).min(n);
        let a: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut bi = rm_to_bi_native(&a, n, base);
        transpose_native_bi(&mut bi, n, base);
        let got = bi_to_rm_native(&bi, n, base);
        assert_eq!(got, transpose_reference(&a, n), "case {case} (n = {n}, base = {base})");
    }
}

#[test]
fn list_ranking_native_matches_reference_on_random_permutation_lists() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x11577 + case);
        let n = rng.gen_range(1usize..2000);
        let order = shuffled(n, &mut rng);
        // Chain: visit the nodes in shuffled order, tail loops to itself.
        let mut succ = vec![0usize; n];
        for w in order.windows(2) {
            succ[w[0]] = w[1];
        }
        succ[order[n - 1]] = order[n - 1];
        let got = list_ranking_native(&succ);
        assert_eq!(got, list_ranking_reference(&succ), "case {case} (chain, n = {n})");
        // The head is farthest from the tail, the tail at distance 0.
        assert_eq!(got[order[0]], (n - 1) as u64, "case {case}: head rank");
        assert_eq!(got[order[n - 1]], 0, "case {case}: tail rank");

        // Cycle: close the shuffled order into a ring (no fixed point at all).
        let mut ring = vec![0usize; n];
        for w in order.windows(2) {
            ring[w[0]] = w[1];
        }
        ring[order[n - 1]] = order[0];
        assert_eq!(
            list_ranking_native(&ring),
            list_ranking_reference(&ring),
            "case {case} (cycle, n = {n})"
        );
    }
}
