//! # rws-runtime
//!
//! A small native randomized work-stealing thread pool, used to demonstrate on real hardware
//! the phenomena the paper models. It follows the paper's scheduling discipline — per-worker
//! deques with bottom push/pop, steals from the top of a uniformly random victim — and
//! exposes per-worker steal counters so experiments can relate measured slowdowns to steal
//! counts.
//!
//! The fork/steal hot path is engineered to cost what the model charges it and nothing more:
//!
//! * **Lock-free deques with steal-half batching** — each worker's queue is a real
//!   Chase–Lev deque (the vendored `crossbeam-deque`) with one discipline, LIFO owner and
//!   FIFO thief: atomic top/bottom indices, one CAS per stolen task with `Steal::Retry` on
//!   lost races, a growable ring buffer, and no locks anywhere: a worker slot keeps its
//!   deque for the pool's life (a respawn hands it to the replacement), so a thief reads
//!   its victim's stealer straight from the pool's table. A thief takes up to *half* the
//!   victim's queue per visit (`steal_batch_and_pop_counted`), running the oldest job and
//!   requeueing the rest locally — the stats separate the paper's per-task steal events
//!   from per-visit [`batch_steals`](PoolStatsSnapshot::total_batch_steals). Every counter
//!   is read through one [`PoolStats::snapshot`].
//! * **Allocation-free `join`** — the right branch of a [`join`] is a *stack job* in the
//!   caller's frame, queued by reference; the unstolen fast path performs zero heap
//!   allocations and takes no lock (asserted by a counting-allocator test), touching only
//!   the deque's indices and this worker's own padded counters. A cross-thread
//!   [`ThreadPool::install`] hands its closure over the same way, from the installer's
//!   frame.
//! * **Parked idle workers** — a worker that finds no work spins briefly and then parks on
//!   the pool's sleep protocol; an idle pool burns no CPU, and a fork wakes sleepers with a
//!   single relaxed load on the producer side.
//! * **Scoped tasks and a parallel iterator** — [`scope()`] generalizes `join` to arbitrary
//!   borrow-friendly fan-out behind one shared atomic completion latch (one boxed job per
//!   spawn; `join` is the one allocation-free fork), and [`par_iter`] builds a rayon-style
//!   `par_chunks_mut` with pool-width-adaptive splitting on top of `join`.
//!
//! On top of the pool sits a supervised **persistent job-server mode** ([`service`]): a
//! long-lived [`JobServer`] accepting streamed root jobs through the pool's locked FIFO
//! injector, with panic quarantine and dead-worker respawn ([`pool`]'s supervision
//! hooks: the replacement inherits the dead worker's deque and its queued jobs), per-job
//! deadlines via a flag in each job's own state that every fork of the job borrows and
//! observes at fork points ([`cancel`]), bounded-queue admission control with
//! load-shedding, and latency histograms ([`hist`]). A compiled-in, default-off fault-injection layer ([`faults`]) drives the
//! chaos harness in `rws-lab` that verifies the recovery invariants.
//!
//! The [`padding`] module provides the cache-line padding wrappers the
//! `prefix_sums_native` example (E19) runs false sharing on: identical workloads run once with
//! per-worker accumulators packed into a single cache line (false sharing) and once with each
//! accumulator padded to its own line.

// Unsafe is confined to the stack-job handoff in `job` (and its use in `pool` and `scope`)
// and to the two one-word thread-locals the fork path reads — the worker word in `pool`, the
// token word in `cancel`: the invariants are documented at each site and covered by the
// stress, correctness, and counting-allocator tests.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod faults;
pub mod hist;
mod job;
pub mod padding;
pub mod par_iter;
pub mod pool;
pub mod scope;
pub mod service;
mod sleep;
pub mod stats;

pub use cancel::check_cancel;
pub use faults::{FaultPlan, FaultSpec, StormSpec, WorkerFault};
pub use hist::{HistogramSnapshot, LatencyHistogram};
pub use padding::{CachePadded, PaddedCounters, UnpaddedCounters};
pub use par_iter::{ParChunksMut, ParSliceExt};
pub use pool::{current_num_threads, join, RespawnReport, ThreadPool, ThreadPoolBuilder};
pub use scope::{scope, Scope};
pub use service::{
    AdmissionPolicy, JobHandle, JobOutcome, JobServer, ServiceConfig, ServiceSnapshot,
};
pub use stats::{PoolStats, PoolStatsSnapshot, WorkerSnapshot};

/// The flight-recorder crate, re-exported so downstream users can consume
/// [`trace::TraceSnapshot`]s from [`pool::ThreadPool::trace_snapshot`] without naming
/// `rws-trace` as a direct dependency.
pub use rws_trace as trace;

/// Waiting on supervision events: [`ThreadPool::wait_health`] re-checks its predicate on
/// every wake of the pool's `health` event count (a worker death, a respawn, a quarantined
/// panic, a heartbeat) until it holds or the timeout passes.
#[cfg(test)]
mod health {
    mod tests {
        use crate::pool::{Shared, WorkerHandle};
        use crate::{join, ThreadPool};
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        use std::thread;
        use std::time::{Duration, Instant};

        /// The pool's shared state, read from one of its workers.
        fn shared_of(pool: &ThreadPool) -> Arc<Shared> {
            pool.install(|| WorkerHandle::with_current(|w| Arc::clone(&w.unwrap().shared)))
        }

        #[test]
        fn wait_until_returns_immediately_on_a_true_predicate() {
            let pool = ThreadPool::new(1);
            let mut checks = 0;
            let held = pool.wait_health(
                || {
                    checks += 1;
                    true
                },
                Duration::ZERO,
            );
            assert!(held);
            assert_eq!(checks, 1, "a true predicate is checked once and never waited on");
            assert_eq!(shared_of(&pool).health().waiters(), 0);
        }

        #[test]
        fn wait_until_times_out_on_a_false_predicate() {
            // The idle worker's heartbeats end each wait early; the loop must wait again
            // until the whole timeout has passed.
            let pool = ThreadPool::new(1);
            let start = Instant::now();
            assert!(!pool.wait_health(|| false, Duration::from_millis(5)));
            assert!(start.elapsed() >= Duration::from_millis(5));
            assert_eq!(shared_of(&pool).health().waiters(), 0);
        }

        #[test]
        fn a_notify_after_the_flag_flips_wakes_the_waiter() {
            let pool = ThreadPool::new(1);
            let shared = shared_of(&pool);
            let flag = AtomicBool::new(false);
            thread::scope(|s| {
                let waiter = s.spawn(|| {
                    pool.wait_health(|| flag.load(Ordering::Acquire), Duration::from_secs(30))
                });
                // Wait for registration so the wake below cannot be skipped as waiter-less.
                while shared.health().waiters() == 0 {
                    thread::yield_now();
                }
                flag.store(true, Ordering::Release);
                shared.health().wake_all();
                assert!(waiter.join().unwrap(), "the event must wake and satisfy the waiter");
            });
        }

        #[test]
        fn notify_without_waiters_is_cheap_and_harmless() {
            // Nobody ever waits on this pool's health: neither its workers' heartbeats nor
            // explicit wakes may take the lock to bump the epoch.
            let pool = ThreadPool::new(2);
            let shared = shared_of(&pool);
            for _ in 0..100 {
                pool.install(|| join(|| (), || ()));
            }
            assert!(
                (0..2).any(|w| pool.stats().snapshot().workers[w].heartbeats > 0),
                "the workers swept"
            );
            for _ in 0..1000 {
                shared.health().wake_all();
            }
            assert_eq!(shared.health().events(), 0, "no waiters, no epoch bumps");
        }
    }
}
