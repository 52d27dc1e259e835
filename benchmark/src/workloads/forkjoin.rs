//! `forkjoin-fine`: a binary `join` tree over 2^27 integers with 1024-element leaves the
//! compiler reduces to a closed form — 131 071 forks of ≈50 ns each, so deque push/pop
//! and the unstolen `join` path are nearly all the work and `rws-algos` does none.
//!
//! Each closed phase runs on *fresh* pools, one per round, so a round's median is a
//! per-pool median: the same tree sits at a different cost from one pool instance to the
//! next (≈5.8 ms or ≈7.4 ms at 1 thread on this host, decided when the pool is built),
//! which a single long-lived pool would hide (`pool.instance_spread` is that spread).

use super::{open_loop_workers, open_loops, stream_seed, Ctx, Workload, SMALL_TREE};
use crate::measure::{closed_loop, timed, timed_cost, Closed, Cost, Ops, Reporter};
use crate::openloop::{drive_sync, OpenLoop, Schedule, WallClock};
use crate::probes::{self, PoolCounters};
use crate::spans::Spans;
use crate::stats;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rws_runtime::{join, ThreadPool, ThreadPoolBuilder};
use std::cell::OnceCell;
use std::hint::black_box;

/// Elements summed per iteration.
pub const N: u64 = 1 << 27;
/// Elements per leaf.
pub const LEAF: u64 = 1024;
/// Forks per iteration: a full binary tree over `N / LEAF` leaves.
pub const FORKS: u64 = N / LEAF - 1;
/// Fresh pools per phase of the traced run; the closed loops use twice as many.
const POOLS: usize = 12;
/// Open-loop rates: a small tree every millisecond finds the pool long parked; one every
/// 125 µs finds it parked only just (a worker parks within microseconds of running dry,
/// and a synchronous `install` cannot be sent faster than it completes).
const IDLE_HZ: f64 = 1_000.0;
const BUSY_HZ: f64 = 8_000.0;

/// The workload program: sum `[lo, hi)` by binary fork-join down to `LEAF`-element leaves.
pub fn recursive_sum(lo: u64, hi: u64) -> u64 {
    if hi - lo <= LEAF {
        return (lo..hi).sum();
    }
    let mid = lo + (hi - lo) / 2;
    let (a, b) = join(move || recursive_sum(lo, mid), move || recursive_sum(mid, hi));
    a + b
}

/// The sum of `[lo, hi)` in closed form.
pub fn closed_form(lo: u64, hi: u64) -> u64 {
    ((u128::from(lo) + u128::from(hi) - 1) * u128::from(hi - lo) / 2) as u64
}

/// The sum of `[lo, hi)` one element at a time: the oracle the closed form is checked
/// against (the leaves rely on the compiler reducing `(lo..hi).sum()`, the oracle must not).
///
/// Multiplying by an opaque 1 puts a 3-cycle multiply on the accumulator's dependency
/// chain, so the loop runs at that chain's latency wherever the linker happens to place
/// it. As a bare add it ran at one or at two cycles an element depending on its alignment,
/// and `setup_s` moved by 60 % between two builds that differed in another file.
pub fn elementwise_sum(lo: u64, hi: u64) -> u64 {
    let one = black_box(1u64);
    (lo..hi).fold(0u64, |acc, x| acc.wrapping_add(x).wrapping_mul(one))
}

/// How one fresh pool is built and observed.
#[derive(Clone, Copy)]
struct Variant {
    /// Flight-recorder capacity (`ThreadPoolBuilder::trace`), if on.
    recorder: Option<usize>,
    /// Whether the harness records spans around this pool's calls.
    spans: bool,
}

const PLAIN: Variant = Variant { recorder: None, spans: false };

/// What one fresh pool measured.
struct PoolRun {
    build_ms: f64,
    closed: Closed,
    counters: PoolCounters,
}

impl PoolRun {
    fn median_ms(&self) -> f64 {
        stats::median(&self.closed.wall_ms)
    }
}

pub struct ForkJoin {
    lo: u64,
    expect: u64,
    expect_small: u64,
    threads: usize,
    open_workers: usize,
    /// The long-lived pool the open-loop phases send their requests to, built and warmed
    /// when first used (the untraced run never does).
    pool: OnceCell<ThreadPool>,
}

impl ForkJoin {
    fn iterate(&self, pool: &ThreadPool, ops: &mut Ops) -> Cost {
        let lo = self.lo;
        let (sum, cost) = timed_cost(|| pool.install(move || recursive_sum(lo, lo + N)));
        ops.check(sum == self.expect);
        cost
    }

    /// Build `pools` fresh pools one after another and give each an equal share of
    /// `budget_s` (after three warm-up iterations). `variant(p)` says how pool `p` is built
    /// and whether its iterations record spans.
    fn fresh_pools(
        &self,
        threads: usize,
        pools: usize,
        budget_s: f64,
        variant: impl Fn(usize) -> Variant,
        ops: &mut Ops,
        spans: &mut Spans,
    ) -> Vec<PoolRun> {
        let per_pool_s = budget_s / pools as f64;
        let mut off = Spans::new(false);
        (0..pools)
            .map(|p| {
                let variant = variant(p);
                let spans = if variant.spans { &mut *spans } else { &mut off };
                let mut builder = ThreadPoolBuilder::new().threads(threads);
                if let Some(capacity) = variant.recorder {
                    builder = builder.trace(capacity);
                }
                let (pool, build_ms) =
                    spans.span("pool.build", p as u64, |_| timed(|| builder.build()));
                for _ in 0..3 {
                    self.iterate(&pool, ops);
                }
                let before = pool.stats().snapshot();
                let closed = closed_loop(per_pool_s, 8, |_| {
                    spans.span("pool.install", p as u64, |_| self.iterate(&pool, ops))
                });
                let counters = PoolCounters::of(&pool.stats().snapshot_delta(&before));
                PoolRun { build_ms, closed, counters }
            })
            .collect()
    }

    fn open_pool(&self) -> &ThreadPool {
        self.pool.get_or_init(|| {
            let pool = ThreadPool::new(self.open_workers);
            let lo = self.lo;
            let warm = pool.install(move || recursive_sum(lo, lo + SMALL_TREE));
            assert_eq!(warm, self.expect_small, "warm-up request returned a wrong sum");
            pool
        })
    }

    fn request(&self, ops: &mut Ops) {
        let lo = self.lo;
        let sum = self.open_pool().install(move || recursive_sum(lo, lo + SMALL_TREE));
        ops.check(sum == self.expect_small);
    }
}

impl Workload for ForkJoin {
    const NAME: &'static str = "forkjoin-fine";
    const ROUNDS: usize = 2 * POOLS;

    fn setup(ctx: &Ctx) -> Self {
        let mut rng = SmallRng::seed_from_u64(stream_seed(ctx.seed, 1));
        let lo = rng.gen_range(0u64..1 << 32);
        let expect = closed_form(lo, lo + N);
        // The closed form of every leaf adds up to the closed form of the whole, and every
        // fourth leaf is checked element by element (all of them would take 0.2 s).
        let leaves = (0..N / LEAF).map(|k| (lo + k * LEAF, lo + (k + 1) * LEAF));
        let by_leaf = leaves.clone().fold(0u64, |acc, (a, b)| acc.wrapping_add(closed_form(a, b)));
        assert_eq!(expect, by_leaf, "closed form of the whole vs the sum over the leaves");
        for (a, b) in leaves.step_by(4) {
            assert_eq!(closed_form(a, b), elementwise_sum(a, b), "leaf [{a}, {b})");
        }
        ForkJoin {
            lo,
            expect,
            expect_small: closed_form(lo, lo + SMALL_TREE),
            threads: ctx.threads,
            open_workers: open_loop_workers(ctx),
            pool: OnceCell::new(),
        }
    }

    /// One fresh pool per round, so a round's median is a per-pool median.
    fn closed(&mut self, wide: bool, budget_s: f64, ops: &mut Ops) -> Closed {
        let threads = if wide { self.threads } else { 1 };
        let mut off = Spans::new(false);
        self.fresh_pools(threads, 1, budget_s, |_| PLAIN, ops, &mut off).remove(0).closed
    }

    fn open(&mut self, busy: bool, budget_s: f64, ops: &mut Ops, spans: &mut Spans) -> OpenLoop {
        let hz = if busy { BUSY_HZ } else { IDLE_HZ };
        drive_sync(&WallClock::start(), Schedule::for_rate(hz, budget_s), |i| {
            spans.span("request", i, |_| self.request(ops));
        })
    }

    fn layers(&mut self, ctx: &Ctx, ops: &mut Ops, spans: &mut Spans, out: &mut Reporter) {
        let share = ctx.seconds / 5.0;
        // Three kinds of T-thread pool in rotation, so host drift falls on all alike:
        // plain, plain with harness spans, and with the runtime's flight recorder on.
        let traced = Variant { spans: true, ..PLAIN };
        let with_recorder = Variant { recorder: Some(1 << 16), ..traced };
        let rotation = self.fresh_pools(
            ctx.threads,
            3 * POOLS,
            3.0 * share,
            |p| [PLAIN, traced, with_recorder][p % 3],
            ops,
            spans,
        );
        let t1: Vec<f64> = self
            .fresh_pools(1, POOLS, share, |_| traced, ops, spans)
            .iter()
            .map(PoolRun::median_ms)
            .collect();
        // Pool medians by kind; the first two kinds are the runtime as shipped.
        let kind = |k: usize| -> Vec<f64> {
            rotation.iter().skip(k).step_by(3).map(PoolRun::median_ms).collect()
        };
        let (plain, spanned, recorded) = (kind(0), kind(1), kind(2));
        let shipped = || rotation.iter().enumerate().filter(|(p, _)| p % 3 < 2).map(|(_, r)| r);

        out.value("join.unstolen_ns", stats::median(&t1) * 1e6 / FORKS as f64);
        out.value("join.forks", FORKS as f64);
        let iterations: u64 = shipped().map(|r| r.closed.wall_ms.len() as u64).sum();
        let mut counters = PoolCounters::default();
        shipped().for_each(|r| counters.add(&r.counters));
        out.value("join.stolen_frac", counters.jobs_stolen as f64 / (iterations * FORKS) as f64);
        counters.report(iterations, out);
        out.timing("pool.build_ms", &shipped().map(|r| r.build_ms).collect::<Vec<f64>>());
        let shipped_ms: Vec<f64> = plain.iter().chain(&spanned).copied().collect();
        out.value("pool.instance_spread", stats::relative_spread(&shipped_ms));
        out.value("pool.instance_spread_t1", stats::relative_spread(&t1));
        out.value("trace.on_wall_rel", stats::median(&recorded) / stats::median(&plain));
        out.value(
            "harness.span_overhead_rel",
            stats::median(&spanned) / stats::median(&plain) - 1.0,
        );

        probes::install_paths(self.open_pool(), spans, out);
        probes::deque(spans, out);
        probes::injector(spans, out);
        probes::trace_record(spans, out);

        open_loops(self, share, ops, spans, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tree_sums_what_the_closed_form_says_with_or_without_a_pool() {
        assert_eq!(FORKS, 131_071);
        let (lo, hi) = (12_345, 12_345 + 8 * LEAF);
        assert_eq!(closed_form(lo, hi), (lo..hi).sum::<u64>());
        assert_eq!(closed_form(lo, hi), elementwise_sum(lo, hi));
        assert_eq!(recursive_sum(lo, hi), closed_form(lo, hi), "off a pool `join` runs inline");
        let pool = ThreadPool::new(2);
        assert_eq!(pool.install(move || recursive_sum(lo, hi)), closed_form(lo, hi));
    }
}
