//! A *pass*: a fixed list of `rws-exec` workloads run one after another through
//! `pool.install`, each output compared with its sequential reference. `kernels-coarse`
//! and `dag-irregular` are both passes; they differ in which layers the kernels lean on.

use super::{open_loop_workers, Ctx};
use crate::measure::{closed_loop, interleaved, timed_cost, Closed, Cost, Ops, Reporter};
use crate::openloop::{drive_sync, OpenLoop, Schedule, WallClock};
use crate::probes::PoolCounters;
use crate::spans::Spans;
use crate::stats;
use rws_exec::{AlgoOutput, SharedWorkload};
use rws_runtime::ThreadPool;
use std::cell::OnceCell;
use std::sync::Arc;

/// One kernel of a pass.
pub struct Kernel {
    /// The `<k>` of its `algos.<k>_ms_p50` row, also its span name.
    pub key: &'static str,
    /// How many times a pass runs it.
    pub repeat: usize,
    /// The instance, built from the seed.
    pub work: SharedWorkload,
    /// `run_reference()` of the instance, computed in set-up.
    pub expect: AlgoOutput,
}

impl Kernel {
    /// Wrap `work`, computing its reference output.
    pub fn new(key: &'static str, repeat: usize, work: SharedWorkload) -> Self {
        let expect = work.run_reference();
        Kernel { key, repeat, work, expect }
    }
}

/// Per-kernel timings of the passes run so far, indexed like the pass's kernels: ms per
/// single run.
pub type KernelTimes = Vec<Vec<f64>>;

/// An ordered list of kernels.
pub struct Pass(pub Vec<Kernel>);

impl Pass {
    /// Run every kernel on `pool` and check every output; returns the summed cost of the
    /// `install` calls (checking happens between the timed calls and is not counted).
    pub fn run(
        &self,
        pool: &ThreadPool,
        iteration: u64,
        ops: &mut Ops,
        spans: &mut Spans,
        mut times: Option<&mut KernelTimes>,
    ) -> Cost {
        let mut total = Cost::default();
        for (k, kernel) in self.0.iter().enumerate() {
            for _ in 0..kernel.repeat {
                let work = Arc::clone(&kernel.work);
                let (output, cost) = spans.span(kernel.key, iteration, |_| {
                    timed_cost(|| pool.install(move || work.run_native()))
                });
                ops.check(output == kernel.expect);
                total = total + cost;
                if let Some(times) = times.as_deref_mut() {
                    times[k].push(cost.wall_ms);
                }
            }
        }
        total
    }

    /// An empty [`KernelTimes`] for this pass.
    pub fn times(&self) -> KernelTimes {
        vec![Vec::new(); self.0.len()]
    }
}

/// A pass with everything its phases need: the small request the open loops send,
/// their rates, and one long-lived pool per thread count. Set-up builds and warms the
/// 1-thread pool, the only one the untraced run uses; the other two are built and warmed
/// when the traced run first asks for them, so no idle worker of theirs adds its periodic
/// wake-ups to the processor time the untraced run reads.
pub struct PassBench {
    /// The closed-loop iteration.
    pub pass: Pass,
    /// The open-loop request: one small kernel.
    pub small: Pass,
    /// Open-loop rate that leaves the pool idle between requests.
    pub idle_hz: f64,
    /// Open-loop rate that keeps the pool from parking.
    pub busy_hz: f64,
    /// The 1-thread pool.
    pub pool_t1: ThreadPool,
    threads: usize,
    open_workers: usize,
    pool: OnceCell<ThreadPool>,
    pool_open: OnceCell<ThreadPool>,
}

/// Run `pass` once on `pool`, untimed: first-touch allocation and thread start-up belong
/// to set-up, not to the first timed iteration.
fn warm(pool: &ThreadPool, pass: &Pass) {
    let (mut ops, mut off) = (Ops::default(), Spans::new(false));
    pass.run(pool, 0, &mut ops, &mut off, None);
    assert_eq!(ops.failed, 0, "a kernel disagrees with its reference during warm-up");
}

impl PassBench {
    /// Build the 1-thread pool and run one untimed pass on it.
    pub fn new(ctx: &Ctx, pass: Pass, small: Pass, idle_hz: f64, busy_hz: f64) -> Self {
        let pool_t1 = ThreadPool::new(1);
        warm(&pool_t1, &pass);
        PassBench {
            pass,
            small,
            idle_hz,
            busy_hz,
            pool_t1,
            threads: ctx.threads,
            open_workers: open_loop_workers(ctx),
            pool: OnceCell::new(),
            pool_open: OnceCell::new(),
        }
    }

    /// The `T`-thread pool.
    pub fn pool(&self) -> &ThreadPool {
        self.pool.get_or_init(|| {
            let pool = ThreadPool::new(self.threads);
            warm(&pool, &self.pass);
            pool
        })
    }

    /// The pool the open loops send to ([`open_loop_workers`] threads).
    pub fn pool_open(&self) -> &ThreadPool {
        self.pool_open.get_or_init(|| {
            let pool = ThreadPool::new(self.open_workers);
            warm(&pool, &self.small);
            pool
        })
    }

    /// A closed loop of passes on the `T`-thread pool (`wide`) or the 1-thread one.
    pub fn closed(&self, wide: bool, budget_s: f64, ops: &mut Ops) -> Closed {
        let pool = if wide { self.pool() } else { &self.pool_t1 };
        let mut off = Spans::new(false);
        closed_loop(budget_s, 2, |i| self.pass.run(pool, i, ops, &mut off, None))
    }

    /// An open loop of small requests to the open-loop pool.
    pub fn open(&self, busy: bool, budget_s: f64, ops: &mut Ops, spans: &mut Spans) -> OpenLoop {
        let hz = if busy { self.busy_hz } else { self.idle_hz };
        drive_sync(&WallClock::start(), Schedule::for_rate(hz, budget_s), |i| {
            self.small.run(self.pool_open(), i, ops, spans, None);
        })
    }

    /// The traced run's shared part, in `seconds`: the pass alternately without and with
    /// spans (`harness.span_overhead_rel`), the pool's counters per pass and each kernel's
    /// `<key>_ms_p50`.
    pub fn layers(&self, seconds: f64, ops: &mut Ops, spans: &mut Spans, out: &mut Reporter) {
        let mut times = self.pass.times();
        let pool = self.pool();
        let before = pool.stats().snapshot();
        let (untraced, traced) = interleaved(seconds, spans, |i, s| {
            s.span("pass", i, |s| self.pass.run(pool, i, ops, s, Some(&mut times)))
        });
        let counters = PoolCounters::of(&pool.stats().snapshot_delta(&before));
        counters.report((untraced.len() + traced.len()) as u64, out);
        for (kernel, ms) in self.pass.0.iter().zip(&times) {
            out.timing(&format!("{}_ms_p50", kernel.key), ms);
        }
        out.value(
            "harness.span_overhead_rel",
            stats::median(&traced) / stats::median(&untraced) - 1.0,
        );
    }
}
