//! The paper's general bounds: steal counts (Theorems 5.1, 6.2, 6.3), block delay
//! (Lemmas 4.4, 4.5), cache misses as a function of steals (Lemmas 3.1, 4.6, 4.7) and the
//! end-to-end runtime bound (Theorem 6.4, Corollary 6.2).

/// Machine parameters used by the formulas (mirrors `rws_machine::MachineConfig` but keeps
/// this crate dependency-light and floating-point).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Params {
    /// Number of processors `p`.
    pub p: f64,
    /// Cache size `M` in words.
    pub m: f64,
    /// Block size `B` in words.
    pub b_words: f64,
    /// Cache-miss cost `b`.
    pub miss_cost: f64,
    /// Steal cost `s`.
    pub steal_cost: f64,
}

impl Params {
    /// Convenience constructor.
    pub fn new(p: usize, m: u64, b_words: u64, miss_cost: u64, steal_cost: u64) -> Self {
        Params {
            p: p as f64,
            m: m as f64,
            b_words: b_words as f64,
            miss_cost: miss_cost as f64,
            steal_cost: steal_cost as f64,
        }
    }
}

fn log2(x: f64) -> f64 {
    x.max(2.0).log2()
}

/// `h(t)` for a general series-parallel computation under Theorem 5.1:
/// `h(t) = O((b/s · E + 1) · T∞)` where `E` is the per-node miss bound.
pub fn h_root_general(t_inf: f64, e_bound: f64, params: &Params) -> f64 {
    (1.0 + params.miss_cost / params.steal_cost * e_bound) * t_inf
}

/// Theorem 5.1: expected/high-probability number of successful steals
/// `S = O(p · h(t) · (1 + a))`.
pub fn steal_bound_general(t_inf: f64, e_bound: f64, a: f64, params: &Params) -> f64 {
    params.p * h_root_general(t_inf, e_bound, params) * (1.0 + a)
}

/// Theorem 5.1 (second part): time spent on steals `O(p · s · h(t) · (1 + a))`.
pub fn steal_time_bound_general(t_inf: f64, e_bound: f64, a: f64, params: &Params) -> f64 {
    params.steal_cost * steal_bound_general(t_inf, e_bound, a, params)
}

/// Theorem 6.1 / Lemmas 6.2, 6.6, 6.9: `h(t)` for a BP computation of size `n`:
/// `O((b+s)/s · log n + b/s · B)` — the improvement over the general bound's `B·log n` term.
pub fn h_root_bp(n: f64, params: &Params) -> f64 {
    let Params { b_words, miss_cost: b, steal_cost: s, .. } = *params;
    (b + s) / s * log2(n) + b / s * b_words.min(n)
}

/// Theorem 6.2: steal bound for BP / HBP computations, `O(p · h(t) · (1 + a))`.
pub fn steal_bound_hbp(h_root: f64, a: f64, params: &Params) -> f64 {
    params.p * h_root * (1.0 + a)
}

/// Theorem 6.3(i): `h(t)` for a Type-2 HBP algorithm with one collection of recursive calls
/// (`c = 1`) and shrink factor such that `s*(n, B)` iterations reach `B`.
pub fn h_root_hbp_c1(t_inf: f64, n: f64, s_star: f64, params: &Params) -> f64 {
    let Params { b_words, miss_cost: b, steal_cost: s, .. } = *params;
    (b + s) / s * t_inf + b / s * b_words.min(n) * s_star.max(1.0)
}

/// Theorem 6.3(ii): `c = 2`, `s(n) = √n` (the FFT / sample-sort recursion):
/// `h(t) = O((b+s)/s · T∞ + b/s · B · log n / log B)`.
pub fn h_root_hbp_c2_sqrt(t_inf: f64, n: f64, params: &Params) -> f64 {
    let Params { b_words, miss_cost: b, steal_cost: s, .. } = *params;
    (b + s) / s * t_inf + b / s * b_words * (log2(n) / log2(b_words)).max(1.0)
}

/// Theorem 6.3(iii): `c = 2`, `s(n) = n/4` (the depth-`n` matrix-multiply recursion on input
/// size `n²`): `h(t) = O((b+s)/s · T∞ + b/s · √(n·B))`.
pub fn h_root_hbp_c2_quarter(t_inf: f64, n: f64, params: &Params) -> f64 {
    let Params { b_words, miss_cost: b, steal_cost: s, .. } = *params;
    (b + s) / s * t_inf + b / s * (n * b_words).sqrt()
}

/// Lemma 4.4: the bound `Y(|τ|, B)` on the number of transfers of a single execution-stack
/// block during the execution of a task of size `size`, for an exactly-linear-space-bounded
/// algorithm with `c` collections of recursive calls. For `s(n) <= (1-γ)n/c` this is
/// `O(min(c·B, |τ|))`.
pub fn y_block_delay(size: f64, c: f64, params: &Params) -> f64 {
    (c * params.b_words).min(size)
}

/// Lemma 4.5 (and the per-steal design principle): total block delay of a Hierarchical Tree
/// Algorithm that undergoes `s_steals` steals is `O(S · B)`.
pub fn block_delay_bound(s_steals: f64, params: &Params) -> f64 {
    s_steals * params.b_words
}

/// Round-boundary block handoff of the Section 7 iterated-round algorithms (list ranking,
/// connected components): each of the `rounds` sequenced passes reads the `state_words` its
/// predecessor wrote wherever that round's leaves happened to execute, so every round
/// boundary can transfer up to `state_words / B` blocks between processors *regardless of
/// the computation's own steal count*. The paper accounts for this by costing each
/// iteration as a fresh primitive (`O(log n)` times the primitive's cost); the
/// per-computation `O(S·B)` block-delay envelope of Lemma 4.5 does not include it, so
/// checks over iterated-round workloads add this term explicitly. Zero on one processor
/// (nothing to hand off).
pub fn iterated_round_handoff(rounds: f64, state_words: f64, params: &Params) -> f64 {
    if params.p <= 1.0 {
        0.0
    } else {
        rounds * state_words / params.b_words
    }
}

/// Lemma 3.1 / Corollaries 3.1, 3.2: cache misses of the matrix-multiply algorithms with `S`
/// steals: `O(n³/(B·√M) + S^{1/3}·n²/B + S)`.
pub fn mm_cache_misses(n: f64, s_steals: f64, params: &Params) -> f64 {
    let seq = n.powi(3) / (params.b_words * params.m.sqrt());
    seq + s_steals.cbrt() * n * n / params.b_words + s_steals
}

/// The sequential cache-miss bound of the matrix-multiply algorithms, `Q = O(n³/(B√M))`.
pub fn mm_sequential_cache_misses(n: f64, params: &Params) -> f64 {
    n.powi(3) / (params.b_words * params.m.sqrt())
}

/// Lemma 4.6: RM→BI conversion with `S` steals incurs `O(n²/B + n·√S)` cache misses.
pub fn rm_to_bi_cache_misses(n: f64, s_steals: f64, params: &Params) -> f64 {
    n * n / params.b_words + n * s_steals.sqrt()
}

/// Lemma 4.7: the log²-depth BI→RM conversion with `S` steals incurs `O((n²/B)·log S)` cache
/// misses.
pub fn bi_to_rm_cache_misses(n: f64, s_steals: f64, params: &Params) -> f64 {
    n * n / params.b_words * log2(s_steals + 2.0)
}

/// Theorem 6.4: the runtime bound
/// `O( W/p + b·Q/p + b·C(S,n)/p + (S/p)(s + b·B) )`.
pub fn runtime_bound(w: f64, q: f64, c_extra: f64, s_steals: f64, params: &Params) -> f64 {
    let Params { p, b_words, miss_cost: b, steal_cost: s, .. } = *params;
    (w + b * q + b * c_extra + s_steals * (s + b * b_words)) / p
}

/// Corollary 6.2: the execution achieves optimal Θ(p) speedup when `s = Θ(b)` and
/// `C(S,n) + S·B = O(Q)`. Returns the ratio `(C + S·B) / Q`; values `O(1)` mean the parallel
/// caching overhead is dominated by the sequential cache misses.
pub fn optimality_ratio(q: f64, c_extra: f64, s_steals: f64, params: &Params) -> f64 {
    if q <= 0.0 {
        return f64::INFINITY;
    }
    (c_extra + s_steals * params.b_words) / q
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        Params::new(8, 4096, 8, 4, 8)
    }

    #[test]
    fn general_bound_grows_with_processors_and_depth() {
        let p = params();
        let base = steal_bound_general(100.0, 8.0, 1.0, &p);
        let more_procs = steal_bound_general(100.0, 8.0, 1.0, &Params { p: 16.0, ..p });
        let deeper = steal_bound_general(200.0, 8.0, 1.0, &p);
        assert!(more_procs > base);
        assert!(deeper > base);
        assert!((more_procs / base - 2.0).abs() < 1e-9, "linear in p");
        assert!((deeper / base - 2.0).abs() < 1e-9, "linear in T∞");
    }

    #[test]
    fn bp_bound_beats_general_bound_for_large_b() {
        // For a BP computation, E = O(B); the general bound pays B·log n while the HBP bound
        // pays B + log n.
        let p = Params::new(8, 65536, 64, 4, 8);
        let n = 1_000_000.0;
        let t_inf = log2(n);
        let general = steal_bound_general(t_inf, p.b_words, 1.0, &p);
        let improved = steal_bound_hbp(h_root_bp(n, &p), 1.0, &p);
        assert!(
            improved < general / 3.0,
            "the Section 6 bound must be substantially smaller: {improved} vs {general}"
        );
    }

    #[test]
    fn hbp_c1_and_c2_formulas_are_ordered_sensibly() {
        let p = params();
        // For the same T∞ and n, the sqrt-shrink recursion has a smaller additive term than
        // the quarter-shrink one (B·log n / log B vs sqrt(nB)) for large n.
        let n = 1u64 << 20;
        let sqrt_h = h_root_hbp_c2_sqrt(100.0, n as f64, &p);
        let quarter_h = h_root_hbp_c2_quarter(100.0, n as f64, &p);
        assert!(sqrt_h < quarter_h);
        // E10 — Theorem 6.3 over n ∈ {2¹⁰, 2¹⁴, 2¹⁸} × B ∈ {8, 64} with T∞ = log²n: the
        // sqrt-shrink recursion has the smallest additive term and the quarter-shrink one the
        // largest (c = 1 ties it at n = 2¹⁰, B = 64: 278), and the gap widens with n.
        for b_words in [8.0, 64.0] {
            let p = Params { b_words, ..params() };
            let mut gap = 0.0;
            for n in [1u64 << 10, 1 << 14, 1 << 18] {
                let n = n as f64;
                let t_inf = log2(n).powi(2);
                let c1 = h_root_hbp_c1(t_inf, n, log2(n) - log2(b_words), &p);
                let sqrt = h_root_hbp_c2_sqrt(t_inf, n, &p);
                let quarter = h_root_hbp_c2_quarter(t_inf, n, &p);
                assert!(sqrt < c1 && c1 <= quarter, "n={n} B={b_words}: {sqrt} {c1} {quarter}");
                assert!(quarter - sqrt > gap, "n={n} B={b_words}: the gap must widen");
                gap = quarter - sqrt;
            }
        }
    }

    #[test]
    fn y_delay_saturates_at_c_times_b() {
        let p = params();
        assert_eq!(y_block_delay(3.0, 2.0, &p), 3.0);
        assert_eq!(y_block_delay(1000.0, 2.0, &p), 16.0);
        assert_eq!(block_delay_bound(10.0, &p), 80.0);
    }

    #[test]
    fn mm_cache_misses_reduce_to_sequential_without_steals() {
        let p = params();
        let n = 256.0;
        let with_zero = mm_cache_misses(n, 0.0, &p);
        let seq = mm_sequential_cache_misses(n, &p);
        assert!((with_zero - seq).abs() < 1e-9);
        assert!(mm_cache_misses(n, 1000.0, &p) > seq);
    }

    #[test]
    fn conversion_bounds_behave() {
        let p = params();
        assert!(rm_to_bi_cache_misses(64.0, 0.0, &p) >= 64.0 * 64.0 / 8.0);
        assert!(rm_to_bi_cache_misses(64.0, 100.0, &p) > rm_to_bi_cache_misses(64.0, 0.0, &p));
        assert!(bi_to_rm_cache_misses(64.0, 100.0, &p) > bi_to_rm_cache_misses(64.0, 1.0, &p));
    }

    #[test]
    fn runtime_bound_scales_inversely_with_p() {
        let p8 = params();
        let p16 = Params { p: 16.0, ..p8 };
        let t8 = runtime_bound(1e6, 1e4, 1e3, 100.0, &p8);
        let t16 = runtime_bound(1e6, 1e4, 1e3, 100.0, &p16);
        assert!((t8 / t16 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn optimality_ratio_flags_excessive_steal_overhead() {
        let p = params();
        assert!(optimality_ratio(1e6, 1e3, 10.0, &p) < 0.01);
        assert!(optimality_ratio(1e3, 1e6, 1e6, &p) > 100.0);
        assert!(optimality_ratio(0.0, 1.0, 1.0, &p).is_infinite());
    }
}
