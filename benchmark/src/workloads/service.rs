//! `service-stream`: one `JobServer` fed 64-leaf `join` trees (≈5 µs each) in closed
//! rounds of 64 and, in the traced run, open-loop at 1 000 and 20 000 jobs a second.
//! Injector, `JobServer` and sleep/wake do the work; kernels and the simulator do nothing.
//!
//! The server has `max(1, T − 1)` workers because the load generator — one thread of this
//! process — needs a processor of its own.

use super::forkjoin::{closed_form, elementwise_sum, recursive_sum};
use super::{open_loop_workers, open_loops, stream_seed, Ctx, Workload, SMALL_TREE};
use crate::measure::{closed_loop, interleaved, timed, timed_cost, Closed, Cost, Ops, Reporter};
use crate::openloop::{drive, OpenLoop, Schedule, WallClock};
use crate::probes::{self, PoolCounters};
use crate::spans::Spans;
use crate::stats;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rws_runtime::{AdmissionPolicy, JobHandle, JobOutcome, JobServer, ServiceConfig};
use std::cell::{OnceCell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Jobs per closed round, and the number of distinct job inputs.
const ROUND: usize = 64;
/// Admission capacity (`Block`: a full queue makes the generator wait, never sheds).
const CAPACITY: usize = 256;
/// Result slots: more than can ever be outstanding (`CAPACITY` queued plus running).
const SLOTS: usize = 4096;
/// Closed rounds a 1-worker server serves before a fresh one replaces it. The vendored
/// injector keeps the blocks it has consumed until it is dropped (≈30 bytes a job), so a
/// server that lived for the whole run would make `peak_rss_mb` a count of the jobs the
/// host happened to get through.
const SERVER_ROUNDS: u32 = 256;
const IDLE_HZ: f64 = 1_000.0;
const BUSY_HZ: f64 = 20_000.0;

pub struct Service {
    /// Job `k` sums `[lo + k·2^16, lo + (k+1)·2^16)`.
    lo: u64,
    expect: Vec<u64>,
    /// The `max(1, T − 1)`-worker server, built and warmed when first used (the untraced
    /// run never does).
    server: OnceCell<JobServer>,
    wide_workers: usize,
    /// The 1-worker server the 1-thread rounds run on, and how many it has served.
    server_t1: JobServer,
    served_t1: u32,
    results: Arc<Vec<AtomicU64>>,
}

fn server(workers: usize) -> JobServer {
    JobServer::new(ServiceConfig {
        threads: workers,
        queue_capacity: CAPACITY,
        admission: AdmissionPolicy::Block,
        ..ServiceConfig::default()
    })
}

impl Service {
    fn job_range(&self, k: usize) -> (u64, u64) {
        let lo = self.lo + k as u64 * SMALL_TREE;
        (lo, lo + SMALL_TREE)
    }

    /// Submit job `i` (input `i % ROUND`, result slot `i % SLOTS`).
    fn submit(&self, server: &JobServer, i: u64) -> JobHandle {
        let (lo, hi) = self.job_range(i as usize % ROUND);
        let slot = i as usize % SLOTS;
        self.results[slot].store(0, Ordering::Relaxed);
        let results = Arc::clone(&self.results);
        server.submit(move || results[slot].store(recursive_sum(lo, hi), Ordering::Release))
    }

    fn check(&self, i: u64, outcome: Option<JobOutcome>, ops: &mut Ops) {
        let sum = self.results[i as usize % SLOTS].load(Ordering::Acquire);
        ops.check(outcome == Some(JobOutcome::Completed) && sum == self.expect[i as usize % ROUND]);
    }

    fn wide_server(&self) -> &JobServer {
        self.server.get_or_init(|| {
            let server = server(self.wide_workers);
            let mut warm = Ops::default();
            self.round(&server, &mut warm, None);
            assert_eq!(warm.failed, 0, "a warm-up job did not complete with the right sum");
            server
        })
    }

    /// One closed round: submit 64, wait for all; returns what the round cost.
    fn round(
        &self,
        server: &JobServer,
        ops: &mut Ops,
        mut submit_ns: Option<&mut Vec<f64>>,
    ) -> Cost {
        let (handles, cost) = timed_cost(|| {
            let handles: Vec<JobHandle> = (0..ROUND as u64)
                .map(|i| match submit_ns.as_deref_mut() {
                    Some(ns) => {
                        let (h, ms) = timed(|| self.submit(server, i));
                        ns.push(ms * 1e6);
                        h
                    }
                    None => self.submit(server, i),
                })
                .collect();
            handles.iter().for_each(|h| {
                h.wait();
            });
            handles
        });
        for (i, h) in handles.iter().enumerate() {
            self.check(i as u64, h.outcome(), ops);
        }
        cost
    }

    /// One open-loop phase at `hz`: latency is due time → the generator observing the
    /// job's terminal outcome. A job still unsettled when the drain limit passes fails.
    fn open_loop(&self, hz: f64, seconds: f64, ops: &mut Ops) -> OpenLoop {
        let clock = WallClock::start();
        // `send` queues what `poll` retires; nothing else is shared between the two.
        let outstanding: RefCell<VecDeque<(u64, u64, JobHandle)>> = RefCell::default();
        let mut latency_us = Vec::new();
        let lag_us = drive(
            &clock,
            Schedule::for_rate(hz, seconds),
            |i, due| {
                outstanding.borrow_mut().push_back((i, due, self.submit(self.wide_server(), i)))
            },
            |now| {
                let mut outstanding = outstanding.borrow_mut();
                outstanding.retain(|(i, due, handle)| match handle.outcome() {
                    Some(outcome) => {
                        latency_us.push(now.saturating_sub(*due) as f64 / 1e3);
                        self.check(*i, Some(outcome), ops);
                        false
                    }
                    None => true,
                });
                outstanding.len()
            },
        );
        // Whatever is still unsettled after the drain limit never reached an outcome.
        outstanding.into_inner().iter().for_each(|_| ops.check(false));
        OpenLoop { latency_us, lag_us }
    }
}

impl Workload for Service {
    const NAME: &'static str = "service-stream";

    fn setup(ctx: &Ctx) -> Self {
        let mut rng = SmallRng::seed_from_u64(stream_seed(ctx.seed, 4));
        let lo = rng.gen_range(0u64..1 << 32);
        let mut svc = Service {
            lo,
            expect: Vec::new(),
            server: OnceCell::new(),
            wide_workers: open_loop_workers(ctx),
            server_t1: server(1),
            served_t1: 0,
            results: Arc::new((0..SLOTS).map(|_| AtomicU64::new(0)).collect()),
        };
        svc.expect = (0..ROUND)
            .map(|k| {
                let (lo, hi) = svc.job_range(k);
                let sum = closed_form(lo, hi);
                // The reference, element by element (see forkjoin-fine's set-up), and the
                // tree itself run inline: off a pool `join` runs both branches in turn.
                assert_eq!(
                    sum,
                    elementwise_sum(lo, hi),
                    "job {k}: closed form vs element-wise sum"
                );
                assert_eq!(sum, recursive_sum(lo, hi), "job {k}: closed form vs inline tree");
                sum
            })
            .collect();
        let mut warm = Ops::default();
        svc.round(&svc.server_t1, &mut warm, None);
        assert_eq!(warm.failed, 0, "a warm-up job did not complete with the right sum");
        svc
    }

    /// Closed rounds on the `max(1, T − 1)`-worker server (`wide`) or the 1-worker one;
    /// the rate is jobs, not rounds, per second.
    fn closed(&mut self, wide: bool, budget_s: f64, ops: &mut Ops) -> Closed {
        let mut closed = if wide {
            let server = self.wide_server();
            closed_loop(budget_s, 8, |_| self.round(server, ops, None))
        } else {
            closed_loop(budget_s, 8, |_| {
                if self.served_t1 == SERVER_ROUNDS {
                    self.server_t1 = server(1);
                    self.served_t1 = 0;
                    // Untimed: the new worker's start-up is not a round's cost.
                    self.round(&self.server_t1, ops, None);
                }
                self.served_t1 += 1;
                self.round(&self.server_t1, ops, None)
            })
        };
        closed.rate_per_s *= ROUND as f64;
        closed
    }

    fn open(&mut self, busy: bool, budget_s: f64, ops: &mut Ops, spans: &mut Spans) -> OpenLoop {
        let hz = if busy { BUSY_HZ } else { IDLE_HZ };
        spans.span("service.open_loop", u64::from(busy), |_| self.open_loop(hz, budget_s, ops))
    }

    fn layers(&mut self, ctx: &Ctx, ops: &mut Ops, spans: &mut Spans, out: &mut Reporter) {
        let share = ctx.seconds / 4.0;
        let mut submit_ns = Vec::new();
        let server = self.wide_server();
        let before = server.pool().stats().snapshot();
        let (untraced, traced) = interleaved(2.0 * share, spans, |i, s| {
            s.span("service.round", i, |_| self.round(server, ops, Some(&mut submit_ns)))
        });
        let counters = PoolCounters::of(&server.pool().stats().snapshot_delta(&before));
        counters.report((untraced.len() + traced.len()) as u64, out);
        out.timing("service.submit_ns_p50", &submit_ns);
        out.value(
            "harness.span_overhead_rel",
            stats::median(&traced) / stats::median(&untraced) - 1.0,
        );

        // The job body alone, inline on this thread: what is left of a closed round's
        // per-job wall is the service's own cost.
        let inline_us: Vec<f64> = (0..2000)
            .map(|i| {
                let (lo, hi) = self.job_range(i % ROUND);
                spans.span("service.job_inline", i as u64, |_| {
                    timed(|| recursive_sum(lo, hi)).1 * 1e3
                })
            })
            .collect();
        out.value(
            "service.overhead_us_per_job",
            stats::median(&untraced) * 1e3 / ROUND as f64 - stats::median(&inline_us),
        );

        let [idle, busy] = open_loops(self, 2.0 * share, ops, spans, out);
        out.tail("service.lat_idle_us_p99", &idle.latency_us, 0.99);
        out.tail("service.lat_busy_us_p99", &busy.latency_us, 0.99);

        let snap = self.wide_server().snapshot();
        out.value("service.queue_us_p50", snap.queue.p50_ns as f64 / 1e3);
        out.value("service.queue_us_p99", snap.queue.p99_ns as f64 / 1e3);
        out.value("service.run_us_p50", snap.service.p50_ns as f64 / 1e3);
        out.value("service.completed", snap.completed as f64);
        out.value("service.shed", snap.shed as f64);

        probes::injector(spans, out);
        probes::install_paths(self.wide_server().pool(), spans, out);
    }
}
