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
//! * **Private deques, one task per steal** — each worker's queue is a plain `VecDeque`
//!   that only its owner touches, LIFO for the owner. Its oldest job sits on offer in the
//!   worker's cache-line-padded steal cell, where a thief takes it with one CAS, never
//!   waiting for the owner: one steal moves exactly one task, the oldest, as in the paper
//!   and the simulator. The owner's push and pop take no fence and no locked instruction
//!   (a pop that finds the deque empty takes the offer back with one CAS, out of line).
//!   Every counter is read through one [`PoolStats::snapshot`].
//! * **Allocation-free `join`** — the right branch of a [`join`] is a *stack job* in the
//!   caller's frame, queued by reference; the unstolen fast path performs zero heap
//!   allocations and takes no lock (asserted by a counting-allocator test), touching only
//!   its own deque, its steal cell's state word and this worker's own padded counters. A
//!   cross-thread [`ThreadPool::install`] hands its closure over the same way, from the
//!   installer's frame.
//! * **Parked idle workers** — a worker that finds no work spins briefly and then parks on
//!   the pool's sleep protocol until a wake: an idle pool burns no CPU and wakes on no
//!   timer, and an offer or a submission wakes a sleeper with a full fence and one load on
//!   the producer side.
//! * **Scoped tasks and a parallel iterator** — [`scope()`] generalizes `join` to arbitrary
//!   borrow-friendly fan-out behind one shared atomic completion latch (one boxed job per
//!   spawn; `join` is the one allocation-free fork), and [`par_iter`] builds a rayon-style
//!   `par_chunks_mut` with pool-width-adaptive splitting on top of `join`.
//!
//! On top of the pool sits a supervised **persistent job-server mode** ([`service`]): a
//! long-lived [`JobServer`] accepting streamed root jobs through the pool's locked FIFO
//! injector, with panic quarantine (every job catches its own unwind, so one that escapes
//! a worker's scheduling loop is a scheduler bug and aborts the process), per-job deadlines
//! via a flag in each job's own state that every fork of the job borrows and observes at
//! fork points ([`cancel`]), bounded-queue admission control with load-shedding, and
//! latency histograms ([`hist`]). The runtime injects no faults: the chaos harness in
//! `rws-lab` verifies the service invariants with traffic of its own making (jobs that
//! panic or stall, overload, injector storms), the same way any caller would.
//!
//! The [`padding`] module provides the cache-line padding wrappers the
//! `prefix_sums_native` example (E19) runs false sharing on: identical workloads run once with
//! per-worker accumulators packed into a single cache line (false sharing) and once with each
//! accumulator padded to its own line.

// Unsafe is confined to the stack-job handoff in `job` (and its use in `pool` and `scope`),
// to the owner's private deque in `pool` and the offered job's hand-over in `steal`, and to
// the two one-word thread-locals the fork path reads — the worker word in `pool`, the token
// word in `cancel`: the invariants are documented at each site and covered by the stress,
// correctness, model and counting-allocator tests.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod hist;
mod job;
pub mod padding;
pub mod par_iter;
pub mod pool;
pub mod scope;
pub mod service;
mod sleep;
pub mod stats;
mod steal;

pub use cancel::check_cancel;
pub use hist::{HistogramSnapshot, LatencyHistogram};
pub use padding::{CachePadded, PaddedCounters, UnpaddedCounters};
pub use par_iter::{ParChunksMut, ParSliceExt};
pub use pool::{current_num_threads, join, ThreadPool, ThreadPoolBuilder};
pub use scope::{scope, Scope};
pub use service::{
    AdmissionPolicy, JobHandle, JobOutcome, JobServer, ServiceConfig, ServiceSnapshot,
};
pub use stats::{PoolStats, PoolStatsSnapshot, WorkerSnapshot};

/// The flight-recorder crate, re-exported so downstream users can consume
/// [`trace::TraceSnapshot`]s from [`pool::ThreadPool::trace_snapshot`] without naming
/// `rws-trace` as a direct dependency.
pub use rws_trace as trace;

#[cfg(test)]
#[path = "../../../tests/support/watchdog.rs"]
mod watchdog;
