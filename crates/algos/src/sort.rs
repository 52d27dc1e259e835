//! An HBP sorting computation (Theorem 7.1(iii) workload).
//!
//! The paper's sort is the resource-oblivious sample sort of \[7\] (√n-way decomposition,
//! `T∞ = O(log n log log n)`). Reproducing that algorithm in full is out of scope for this
//! repository (it is the subject of its own paper); as documented in DESIGN.md we substitute
//! an **HBP merge sort**: two recursive calls into a local array followed by a BP merge pass
//! whose leaves write disjoint chunks of the destination. The substitution preserves the
//! properties the analysis needs — limited access, top dominance, exactly linear space, c = 1
//! collection of recursive calls — while its `T∞` is `O(log² n)` instead of
//! `O(log n log log n)`; the steal-bound experiments therefore compare against the bound of
//! Theorem 6.3(i) instantiated for this recursion, which is the honest prediction for the
//! algorithm actually built.

use crate::common::{balanced_levels, Dest};
use rws_dag::builders::BalancedTreeBuilder;
use rws_dag::{Addr, AlgoMeta, Computation, NodeId, Shrink, SpDagBuilder, WorkUnit};
use serde::{Deserialize, Serialize};

/// Configuration of the sorting computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SortConfig {
    /// Number of keys (power of two).
    pub n: usize,
    /// Base-case size (power of two).
    pub base: usize,
}

impl SortConfig {
    /// `n` keys with a base case of 16 (or `n` if smaller).
    pub fn new(n: usize) -> Self {
        SortConfig { n, base: 16.min(n) }
    }

    /// Builder-style: set the base case.
    pub fn with_base(mut self, base: usize) -> Self {
        self.base = base;
        self
    }
}

/// Build the HBP merge-sort computation: input at address 0, output at address `n`.
pub fn sort_computation(cfg: &SortConfig) -> Computation {
    assert!(cfg.n.is_power_of_two() && cfg.base.is_power_of_two() && cfg.base <= cfg.n);
    let mut b = SpDagBuilder::new();
    let root = build_sort(
        &mut b,
        0,
        Dest::Global { base: cfg.n as u64 },
        cfg.n as u64,
        cfg.base as u64,
        0,
    );
    let dag = b.build(root).expect("sort dag must validate");
    let meta = AlgoMeta::hbp2("hbp-mergesort", cfg.n as u64, 1, Shrink::Half)
        .with_base_case(cfg.base as u64);
    Computation::new(dag, meta)
}

/// Sort the `m` keys at global address `src` into `dest`.
fn build_sort(
    b: &mut SpDagBuilder,
    src: u64,
    dest: Dest,
    m: u64,
    base: u64,
    ctx_depth: u32,
) -> NodeId {
    if m <= base {
        let at_depth = ctx_depth + 1;
        // Base case: read the chunk, sort it internally (m log m comparisons, charged as ops),
        // write the destination chunk.
        let mut unit = WorkUnit::compute(m * (64 - m.leading_zeros() as u64).max(1))
            .reads((src..src + m).map(Addr));
        unit = dest.write_range(unit, 0..m, at_depth);
        return b.leaf(unit);
    }
    let h = m / 2;
    // The call's Seq declares a local array holding the two sorted halves.
    let seq_depth = ctx_depth + 1;
    let local = |k: u64| Dest::Local {
        depth: seq_depth,
        offset: u32::try_from(k * h).expect("local offset"),
    };
    let child_depth = seq_depth + balanced_levels(2);
    let left = build_sort(b, src, local(0), h, base, child_depth);
    let right = build_sort(b, src + h, local(1), h, base, child_depth);
    let halves = BalancedTreeBuilder::new(b, 2).combine(
        &[left, right],
        |_, _| WorkUnit::compute(1),
        |_, _| WorkUnit::compute(1),
    );

    // Merge pass: a BP tree whose leaves each produce one destination chunk. The access
    // pattern of a real merge depends on the data; for the cost model each leaf reads one
    // chunk's worth of keys from each half (2·chunk reads) and writes its chunk — the same
    // totals as a real merge, distributed evenly.
    let chunk = base.min(m);
    let chunks = (m / chunk) as usize;
    let levels = balanced_levels(chunks.next_power_of_two());
    let leaf_depth = seq_depth + levels + 1;
    let mut leaves = Vec::with_capacity(chunks);
    for c in 0..chunks as u64 {
        let lo = c * chunk;
        let hi = lo + chunk;
        let half_lo = lo / 2;
        let half_hi = (hi / 2).min(h);
        let mut unit = WorkUnit::compute(chunk);
        unit = local(0).read_range(unit, half_lo..half_hi, leaf_depth);
        unit = local(1).read_range(unit, half_lo..half_hi, leaf_depth);
        unit = dest.write_range(unit, lo..hi, leaf_depth);
        leaves.push(b.leaf(unit));
    }
    let merge = BalancedTreeBuilder::new(b, 2).combine(
        &leaves,
        |_, _| WorkUnit::compute(1),
        |_, _| WorkUnit::compute(1),
    );
    b.seq_with_segment(vec![halves, merge], u32::try_from(m).expect("segment size"))
}

/// Native fork-join merge sort on the `rws-runtime` work-stealing pool.
///
/// The same HBP structure as [`sort_computation`]: the two half sorts are one parallel
/// collection of recursive calls, followed by a merge writing each destination slot exactly
/// once. The local arrays of the whole recursion are two `n`-word buffers allocated once per
/// call — the result and one workspace — both split in half beside each other at every
/// `join`, so the two branches of a fork hold disjoint `&mut` ranges of each. The buffers
/// swap roles level by level: a call's halves are sorted *into* the workspace's halves and
/// merged from there into its destination. A base case of `m ≤ base` keys (any `m`, not
/// only powers of two) forks nothing and branches on no key: it sorts runs of four with a
/// five-comparator network, then merges them bottom-up with the same branch-free merge,
/// alternating between its two buffers and starting in the one that makes the last pass
/// land in its destination. Call from inside [`rws_runtime::ThreadPool::install`] for
/// parallel execution; outside a pool worker the `join`s degrade to sequential calls.
pub fn merge_sort_native(keys: &[u64], base: usize) -> Vec<u64> {
    /// Sort `dst`, given that `src` holds the same keys in the same order; `src` is left
    /// holding the two sorted halves (in a base case, scratch).
    fn msort(src: &mut [u64], dst: &mut [u64], base: usize) {
        if dst.len() <= base {
            sort_leaf(src, dst);
            return;
        }
        let mid = dst.len() / 2;
        let (src_lo, src_hi) = src.split_at_mut(mid);
        let (dst_lo, dst_hi) = dst.split_at_mut(mid);
        rws_runtime::join(|| msort(dst_lo, src_lo, base), || msort(dst_hi, src_hi, base));
        merge(src_lo, src_hi, dst);
    }

    /// The base case: sort `dst`, using `src` (the same keys) as the other buffer of the
    /// bottom-up merge passes. Each pass doubles the run width from 4 and moves every key
    /// to the other buffer, so the runs are formed in `dst` when the pass count is even and
    /// in `src` when it is odd.
    fn sort_leaf(src: &mut [u64], dst: &mut [u64]) {
        const RUN: usize = 4;
        let n = dst.len();
        let passes = n.div_ceil(RUN).next_power_of_two().trailing_zeros();
        let (mut from, mut to) = if passes.is_multiple_of(2) { (dst, src) } else { (src, dst) };
        let mut runs = from.chunks_exact_mut(RUN);
        for run in &mut runs {
            let [a, b, c, d] = run else { unreachable!() };
            let (a1, b1) = ((*a).min(*b), (*a).max(*b));
            let (c1, d1) = ((*c).min(*d), (*c).max(*d));
            let (lo, b2) = (a1.min(c1), a1.max(c1));
            let (c2, hi) = (b1.min(d1), b1.max(d1));
            (*a, *b, *c, *d) = (lo, b2.min(c2), b2.max(c2), hi);
        }
        if let [a, b, rest @ ..] = runs.into_remainder() {
            (*a, *b) = ((*a).min(*b), (*a).max(*b));
            if let [c] = rest {
                let (b1, c1) = ((*b).min(*c), (*b).max(*c));
                (*a, *b, *c) = ((*a).min(b1), (*a).max(b1), c1);
            }
        }
        let mut width = RUN;
        while width < n {
            for (pair, out) in from.chunks(2 * width).zip(to.chunks_mut(2 * width)) {
                if pair.len() > width {
                    let (left, right) = pair.split_at(width);
                    merge(left, right, out);
                } else {
                    out.copy_from_slice(pair);
                }
            }
            std::mem::swap(&mut from, &mut to);
            width *= 2;
        }
    }

    /// Merge two sorted runs into `out` (`out.len() == left.len() + right.len()`), equal
    /// keys keeping `left` first. Two cursors work towards each other — the front one
    /// emits the smallest keys upwards, the back one the largest downwards — so each step
    /// carries two independent compare-select-advance chains instead of one, and neither
    /// branches on a comparison (on random keys that branch is mispredicted every other
    /// step). For `min(len)` steps no run can be exhausted from either side; what is left
    /// in the middle afterwards is the difference of the two lengths (at most one key
    /// here).
    fn merge(left: &[u64], right: &[u64], out: &mut [u64]) {
        let paired = left.len().min(right.len());
        let n = out.len();
        let (mut i, mut j) = (0, 0);
        let (mut p, mut q) = (left.len(), right.len());
        for k in 0..paired {
            let (l, r) = (left[i], right[j]);
            let take_left = l <= r;
            out[k] = if take_left { l } else { r };
            i += usize::from(take_left);
            j += usize::from(!take_left);

            let (l, r) = (left[p - 1], right[q - 1]);
            let take_right = l <= r;
            out[n - 1 - k] = if take_right { r } else { l };
            q -= usize::from(take_right);
            p -= usize::from(!take_right);
        }
        for slot in &mut out[paired..n - paired] {
            if j == q || (i < p && left[i] <= right[j]) {
                *slot = left[i];
                i += 1;
            } else {
                *slot = right[j];
                j += 1;
            }
        }
    }

    let mut sorted = keys.to_vec();
    let mut workspace = keys.to_vec();
    msort(&mut workspace, &mut sorted, base.max(1));
    sorted
}

/// Sequential reference sort (stable).
pub fn sort_reference(keys: &[u64]) -> Vec<u64> {
    let mut v = keys.to_vec();
    v.sort();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    #[test]
    fn every_short_length_sorts_at_every_base_on_every_pool_shape() {
        // Lengths 0..=70 put base cases of every length up to 64 — multiples of the run of
        // four and not, shorter than a run — on either parity of the merge-pass count.
        use crate::common::PoolShape;
        use std::sync::Arc;
        let shapes = PoolShape::all();
        let mut rng = SmallRng::seed_from_u64(31);
        for len in 0..=70usize {
            let inputs: [(&str, Vec<u64>); 4] = [
                ("random", (0..len).map(|_| rng.gen_range(0..u64::MAX)).collect()),
                ("keys in 0..4", (0..len).map(|_| rng.gen_range(0..4)).collect()),
                ("all equal", vec![7; len]),
                ("descending", (0..len as u64).rev().collect()),
            ];
            for (what, keys) in inputs {
                let expected = sort_reference(&keys);
                let keys = Arc::new(keys);
                for base in [1usize, 2, 3, 4, 5, 8, 16, 64] {
                    for shape in &shapes {
                        let on_pool = Arc::clone(&keys);
                        assert_eq!(
                            shape.run(move || merge_sort_native(&on_pool, base)),
                            expected,
                            "{what}, len {len}, base {base}, {}",
                            shape.label
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn native_runner_sorts_outside_a_pool() {
        let mut rng = SmallRng::seed_from_u64(17);
        for len in [0usize, 1, 2, 33, 256, 1000] {
            let keys: Vec<u64> = (0..len).map(|_| rng.gen_range(0..500)).collect();
            assert_eq!(merge_sort_native(&keys, 16), sort_reference(&keys));
        }
    }

    #[test]
    fn dag_structure() {
        let comp = sort_computation(&SortConfig::new(256).with_base(16));
        assert!(comp.check_properties().is_empty());
        assert!(comp.meta.class.is_hbp());
        // Output written exactly once per word; input only read.
        assert_eq!(comp.dag.max_writes_per_global_word(), 1);
        assert_eq!(comp.dag.global_footprint_words(), 2 * 256);
    }

    #[test]
    fn work_is_n_log_n_like() {
        let w256 = sort_computation(&SortConfig::new(256).with_base(16)).dag.work();
        let w1024 = sort_computation(&SortConfig::new(1024).with_base(16)).dag.work();
        let ratio = w1024 as f64 / w256 as f64;
        // 4x the keys => slightly more than 4x the work (n log n), well under 8x.
        assert!(ratio > 3.5 && ratio < 7.0, "ratio {ratio}");
    }

    #[test]
    fn span_grows_polylogarithmically() {
        let s256 = sort_computation(&SortConfig::new(256).with_base(16)).dag.span_nodes();
        let s4096 = sort_computation(&SortConfig::new(4096).with_base(16)).dag.span_nodes();
        assert!(s4096 > s256);
        assert!(
            (s4096 as f64) < (s256 as f64) * 16.0 / 2.0,
            "span must grow far slower than the 16x input growth: {s256} -> {s4096}"
        );
    }
}
