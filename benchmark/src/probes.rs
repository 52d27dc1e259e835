//! Micro-loops over single layers, timed from outside through public calls only: the
//! vendored deque and injector, the pool's install / park / build paths, `scope` and
//! `par_iter`, and the flight recorder. Each fills rows of the per-layer sheet in the
//! traced run of the workload whose end-to-end wall that layer should move.

use crate::measure::{timed, Reporter};
use crate::spans::Spans;
use crossbeam_deque::{Injector, Steal, Worker};
use rws_runtime::trace::{EventKind, TraceRecorder};
use rws_runtime::{scope, ParSliceExt, PoolStatsSnapshot, ThreadPool, WorkerSnapshot};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Repeat `batch` (which performs `ops_per_batch` operations) `reps` times and return the
/// median ns per operation.
fn ns_per_op(reps: usize, ops_per_batch: u64, mut batch: impl FnMut()) -> f64 {
    let samples: Vec<f64> =
        (0..reps).map(|_| timed(&mut batch).1 * 1e6 / ops_per_batch as f64).collect();
    crate::stats::median(&samples)
}

/// `vendor/crossbeam-deque`: owner push/pop, uncontended steal, steal-half batches, and the
/// retry rate with one owner and one thief.
pub fn deque(spans: &mut Spans, out: &mut Reporter) {
    const OPS: u64 = 1 << 16;
    const DEPTH: u64 = 64;
    spans.span("deque", 0, |_| {
        let w = Worker::new_lifo();
        let push_pop = ns_per_op(31, OPS, || {
            for i in 0..OPS {
                w.push(black_box(i));
                black_box(w.pop());
            }
        });
        out.value("deque.push_pop_ns", push_pop);

        let s = w.stealer();
        let mut push_ns = 0.0;
        let steal = ns_per_op(31, OPS, || {
            let (_, ms) = timed(|| (0..OPS).for_each(|i| w.push(i)));
            push_ns = ms * 1e6 / OPS as f64;
            for _ in 0..OPS {
                black_box(s.steal());
            }
        });
        // The batch above pushes as well as steals; take the push back out.
        out.value("deque.steal_ns", (steal - push_ns).max(0.0));

        let dest = Worker::new_lifo();
        let batch = ns_per_op(31, OPS, || {
            for _ in 0..OPS / DEPTH {
                (0..DEPTH).for_each(|i| w.push(i));
                while let Steal::Success((_, _moved)) = s.steal_batch_and_pop_counted(&dest) {
                    while dest.pop().is_some() {}
                }
            }
        });
        out.value("deque.steal_batch_ns_per_task", (batch - push_ns).max(0.0));

        // One owner pushing and popping at a shallow depth, one thief stealing as fast as
        // it can: the share of the thief's attempts that lost a race.
        let stop = AtomicBool::new(false);
        let (attempts, retries) = (AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|ts| {
            ts.spawn(|| {
                let (mut a, mut r) = (0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    a += 1;
                    r += u64::from(s.steal().is_retry());
                }
                attempts.store(a, Ordering::Relaxed);
                retries.store(r, Ordering::Relaxed);
            });
            let until = Instant::now() + Duration::from_millis(150);
            while Instant::now() < until {
                for i in 0..1024u64 {
                    w.push(i);
                    w.push(i);
                    black_box(w.pop());
                    black_box(w.pop());
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
        while w.pop().is_some() {}
        let frac =
            retries.load(Ordering::Relaxed) as f64 / attempts.load(Ordering::Relaxed).max(1) as f64;
        out.value("deque.contended_retry_frac", frac);
    });
}

/// The MPMC injector, single-threaded: one push plus one steal.
pub fn injector(spans: &mut Spans, out: &mut Reporter) {
    const OPS: u64 = 1 << 16;
    spans.span("injector", 0, |_| {
        let q = Injector::new();
        let ns = ns_per_op(31, OPS, || {
            for i in 0..OPS {
                q.push(black_box(i));
                black_box(q.steal());
            }
        });
        out.value("injector.push_steal_ns", ns);
    });
}

/// The pool's public counters over a measured region, summed over workers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolCounters {
    steals: u64,
    failed_steals: u64,
    batch_steals: u64,
    steal_retries: u64,
    parks: u64,
    backstop_wakes: u64,
    /// Jobs moved by steals (batch sizes summed).
    pub jobs_stolen: u64,
}

impl PoolCounters {
    /// Sum a [`PoolStatsSnapshot`] delta over its workers.
    pub fn of(delta: &PoolStatsSnapshot) -> Self {
        let sum = |f: fn(&WorkerSnapshot) -> u64| delta.workers.iter().map(f).sum();
        PoolCounters {
            steals: sum(|w| w.steals),
            failed_steals: sum(|w| w.failed_steals),
            batch_steals: sum(|w| w.batch_steals),
            steal_retries: sum(|w| w.steal_retries),
            parks: sum(|w| w.parks),
            backstop_wakes: sum(|w| w.backstop_wakes),
            jobs_stolen: sum(|w| w.jobs_stolen),
        }
    }

    /// Add another region's counters (fresh pools of one phase).
    pub fn add(&mut self, other: &PoolCounters) {
        self.steals += other.steals;
        self.failed_steals += other.failed_steals;
        self.batch_steals += other.batch_steals;
        self.steal_retries += other.steal_retries;
        self.parks += other.parks;
        self.backstop_wakes += other.backstop_wakes;
        self.jobs_stolen += other.jobs_stolen;
    }

    /// Report the `pool.*` and `sleep.*` counter rows per iteration.
    pub fn report(&self, iterations: u64, out: &mut Reporter) {
        let per = |total: u64| total as f64 / iterations.max(1) as f64;
        out.value("pool.steals", per(self.steals));
        out.value("pool.failed_steals", per(self.failed_steals));
        out.value("pool.batch_steals", per(self.batch_steals));
        out.value("pool.steal_retries", per(self.steal_retries));
        out.value("sleep.parks", per(self.parks));
        out.value("sleep.backstop_wakes", per(self.backstop_wakes));
    }
}

/// `pool.install_hot_us_p50`: an empty `install` straight after another, so the pool is
/// still spinning. `sleep.park_to_run_us_p50`: the same call once every worker has parked.
pub fn install_paths(pool: &ThreadPool, spans: &mut Spans, out: &mut Reporter) {
    spans.span("pool.install", 0, |_| {
        let hot: Vec<f64> = (0..2000).map(|_| timed(|| pool.install(|| ())).1 * 1e3).collect();
        out.timing("pool.install_hot_us_p50", &hot);
    });
    spans.span("sleep.park_to_run", 0, |_| {
        let mut cold = Vec::new();
        for _ in 0..100 {
            let give_up = Instant::now() + Duration::from_millis(50);
            while pool.parked_workers() < pool.threads() && Instant::now() < give_up {
                std::thread::yield_now();
            }
            cold.push(timed(|| pool.install(|| ())).1 * 1e3);
        }
        out.timing("sleep.park_to_run_us_p50", &cold);
    });
}

/// `scope.spawn_ns`: one `scope` of empty spawns, per spawn. `par_iter.chunk_ns`: a
/// `par_chunks_mut` pass over small chunks doing one store each, per chunk.
pub fn scope_and_par_iter(pool: &ThreadPool, spans: &mut Spans, out: &mut Reporter) {
    const SPAWNS: u64 = 4096;
    spans.span("scope.spawn", 0, |_| {
        let ns = ns_per_op(31, SPAWNS, || {
            pool.install(|| {
                scope(|s| {
                    for _ in 0..SPAWNS {
                        s.spawn(|_| {
                            black_box(());
                        });
                    }
                })
            })
        });
        out.value("scope.spawn_ns", ns);
    });
    const CHUNKS: u64 = 1 << 14;
    const CHUNK: usize = 16;
    spans.span("par_iter.chunks", 0, |_| {
        let mut data = vec![0u64; CHUNKS as usize * CHUNK];
        let ns = ns_per_op(31, CHUNKS, || {
            let mut v = std::mem::take(&mut data);
            v = pool.install(move || {
                v.par_chunks_mut(CHUNK).with_grain(1).for_each(|c| c[0] = c[0].wrapping_add(1));
                v
            });
            data = v;
        });
        out.value("par_iter.chunk_ns", ns);
    });
}

/// `trace.record_ns`: one event into the flight recorder's ring, through its public API.
pub fn trace_record(spans: &mut Spans, out: &mut Reporter) {
    const EVENTS: u64 = 1 << 16;
    spans.span("trace.record", 0, |_| {
        let rec = TraceRecorder::new(1, 1 << 12);
        let ns = ns_per_op(31, EVENTS, || {
            for i in 0..EVENTS {
                rec.record(0, EventKind::JobStart, 0, black_box(i));
            }
        });
        out.value("trace.record_ns", ns);
    });
}
