//! Supervised persistent job-server mode: a long-lived [`JobServer`] wrapping a
//! [`ThreadPool`] that accepts streamed root jobs and keeps the paper's runtime healthy
//! under faults and overload.
//!
//! Three concerns layer on top of the pool, all off the fork hot path:
//!
//! * **Supervision** — a job's panic is quarantined where it runs (this module's root
//!   wrapper settles it as [`JobOutcome::Panicked`]) and counted per worker, so no panic
//!   ever reaches a worker's scheduling loop and every worker keeps serving. (An unwind out
//!   of that loop can only be a scheduler bug, and aborts the process: see [`crate::pool`].)
//! * **Per-job deadlines** — a submission may carry a budget
//!   ([`JobServer::submit_with_deadline`]); the supervisor keeps a deadline min-heap and
//!   raises the flag in the job's own state when the budget expires. The running job, and
//!   every branch it forks wherever that branch runs, borrows the flag through the thread's
//!   token word ([`cancel`]) and observes it cooperatively at fork points (`join` / `scope`
//!   / `par_chunks_mut` grain boundaries), terminating with [`JobOutcome::Deadline`]; a job
//!   still queued when its deadline fires never runs.
//! * **Admission control** — a bounded occupancy gate with a [`Block`], [`Shed`], or
//!   [`ShedOldest`] policy, plus queue-latency and service-latency histograms
//!   (p50/p99/p999); sheds and expired deadlines are counted in the outcome partition of
//!   [`ServiceSnapshot`].
//!
//! **Exactly-one-terminal-outcome contract**: every submission — admitted, shed at the
//! door, or evicted from the queue — settles to exactly one [`JobOutcome`], arbitrated by
//! a single compare-and-swap. Execution is claimed the same way (`started`), so a job is
//! run exactly once or not at all, never both run and shed. The chaos harness in `rws-lab`
//! drives these invariants with traffic of its own making: jobs that panic, jobs that
//! stall, overload bursts, and injector storms. The server has no fault hook of its own.
//!
//! **Who wakes whom.** A root job passes three waits — a parked worker for the submitted
//! job (`Shared::inject`), a [`Block`] submitter for the slot a starting job frees
//! (`release_slot`), [`JobHandle::wait`] for the settle — plus the supervisor's wait for
//! the next deadline and the shutdown drain. Each is an `EventCount` (`sleep.rs`), so none
//! of them makes a system call unless somebody is asleep on the other side;
//! `docs/ARCHITECTURE.md` ("Every blocking wait") has the table.
//!
//! [`Block`]: AdmissionPolicy::Block
//! [`Shed`]: AdmissionPolicy::Shed
//! [`ShedOldest`]: AdmissionPolicy::ShedOldest

use crate::cancel::{self, CancelPayload};
use crate::hist::{HistogramSnapshot, LatencyHistogram};
use crate::padding::CachePadded;
use crate::pool::{ThreadPool, ThreadPoolBuilder, WorkerHandle};
use crate::sleep::EventCount;
use rws_trace::{EventKind, TraceRecorder};
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread;
use std::time::{Duration, Instant};

/// What happens when a submission arrives and the bounded queue is at capacity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// The submitting thread waits for a slot (backpressure).
    #[default]
    Block,
    /// The new submission is refused immediately with [`JobOutcome::Shed`].
    Shed,
    /// The oldest still-queued job is evicted (settling as [`JobOutcome::Shed`]) and its
    /// slot is handed to the new submission; if nothing is evictable the submitter waits.
    ShedOldest,
}

/// The terminal state of a submission. Exactly one of these is assigned to every
/// submission, exactly once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum JobOutcome {
    /// The job ran to completion.
    Completed = 1,
    /// The job's closure panicked; the panic was quarantined on the worker that ran it.
    Panicked = 2,
    /// The job's deadline expired — either before it started (it never runs) or mid-run at
    /// a cooperative cancellation point.
    Deadline = 3,
    /// Admission refused the job (queue full under [`AdmissionPolicy::Shed`]), evicted it
    /// ([`AdmissionPolicy::ShedOldest`]), or the server was shutting down. The closure
    /// never ran. (Code 5, not 4: recorded traces index their outcome counts by code.)
    Shed = 5,
}

const PENDING: u8 = 0;

fn outcome_from_u8(v: u8) -> Option<JobOutcome> {
    match v {
        1 => Some(JobOutcome::Completed),
        2 => Some(JobOutcome::Panicked),
        3 => Some(JobOutcome::Deadline),
        5 => Some(JobOutcome::Shed),
        _ => None,
    }
}

/// Shared per-submission state: the outcome CAS cell, the run claim, the slot-accounting
/// flag, and the completion signal the handle waits on.
#[derive(Debug)]
struct JobState {
    seq: u64,
    outcome: AtomicU8,
    /// The deadline flag: raised (`Relaxed` — it publishes no other data; the outcome it
    /// leads to is arbitrated by `outcome`'s CAS) once the deadline has passed. The job's
    /// run borrows it through the token word ([`cancel::under`]).
    cancelled: AtomicBool,
    submitted_at: Instant,
    deadline: Option<Instant>,
    /// Execution claim: set by whichever side gets there first — the worker about to run
    /// the closure, or an evictor/deadline-sweeper proving the job will never run.
    started: AtomicBool,
    /// Occupancy-slot accounting: set by whoever disposes of this job's admission slot
    /// (the runner releasing it, or a `ShedOldest` evictor transferring it).
    slot_released: AtomicBool,
    /// Where [`JobHandle::wait`] blocks until `settle` has published `outcome`.
    settled: EventCount,
}

impl JobState {
    fn new(seq: u64, deadline: Option<Instant>) -> Self {
        JobState {
            seq,
            outcome: AtomicU8::new(PENDING),
            cancelled: AtomicBool::new(false),
            submitted_at: Instant::now(),
            deadline,
            started: AtomicBool::new(false),
            slot_released: AtomicBool::new(false),
            settled: EventCount::default(),
        }
    }

    fn outcome(&self) -> Option<JobOutcome> {
        outcome_from_u8(self.outcome.load(Ordering::Acquire))
    }

    /// Claim the right to be this job's executor (or, for an evictor, the proof that
    /// nobody will be). At most one caller ever wins.
    fn claim_run(&self) -> bool {
        self.started.compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire).is_ok()
    }
}

/// A caller's handle to one submission: await it and read its outcome.
#[derive(Clone, Debug)]
pub struct JobHandle {
    state: Arc<JobState>,
}

impl JobHandle {
    /// The submission's server-assigned sequence number.
    pub fn seq(&self) -> u64 {
        self.state.seq
    }

    /// The job's terminal outcome, if it has settled.
    pub fn outcome(&self) -> Option<JobOutcome> {
        self.state.outcome()
    }

    /// Block until the job settles, returning its outcome.
    pub fn wait(&self) -> JobOutcome {
        self.wait_until(None).expect("a wait without a deadline ends only with an outcome")
    }

    /// Block until the job settles or `timeout` elapses.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobOutcome> {
        self.wait_until(Some(Instant::now() + timeout))
    }

    /// The outcome, waiting for it until `deadline` (forever without one). A settled job
    /// answers from the atomic alone, without a lock; an unsettled one blocks on the job's
    /// `EventCount` until the settle wakes it or the deadline passes.
    fn wait_until(&self, deadline: Option<Instant>) -> Option<JobOutcome> {
        let job = &*self.state;
        loop {
            if let Some(outcome) = job.outcome() {
                return Some(outcome);
            }
            if deadline.is_some_and(|at| Instant::now() >= at) {
                return None;
            }
            job.settled.wait_unless(deadline, || job.outcome().is_some());
        }
    }
}

/// Configuration for a [`JobServer`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads (0 = the machine's available parallelism).
    pub threads: usize,
    /// Admission capacity: maximum submissions admitted but not yet started.
    pub queue_capacity: usize,
    /// What to do when the queue is full.
    pub admission: AdmissionPolicy,
    /// Flight-recorder capacity per lane (None = tracing off; see
    /// [`crate::pool::ThreadPoolBuilder::trace`]). Service-job lifecycle events
    /// (enqueue → claim → settle, linked by sequence number) join the pool's scheduler
    /// events in the same recording.
    pub trace: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            threads: 0,
            queue_capacity: 1024,
            admission: AdmissionPolicy::Block,
            trace: None,
        }
    }
}

/// Deadline min-heap entry (BinaryHeap is a max-heap; `Ord` is reversed).
struct DeadlineEntry {
    at: Instant,
    seq: u64,
    job: Weak<JobState>,
}

impl PartialEq for DeadlineEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for DeadlineEntry {}
impl PartialOrd for DeadlineEntry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for DeadlineEntry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed: the heap's max is the earliest deadline.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Written once per submission, by the submitting thread only. The three counter groups
/// of [`ServerState`] are split by who writes them and padded to a line each: laid side by
/// side, every submit invalidated the line a worker was about to settle on and every
/// settle the line the next submit needed — false sharing, the paper's subject, in the
/// server's own accounting.
#[derive(Default)]
struct SubmitCounters {
    /// Next sequence number, which is also the number of submissions so far.
    seq: AtomicU64,
    accepted: AtomicU64,
}

/// Written once per settled job, by whoever settles it — a worker, for every job that ran.
#[derive(Default)]
struct OutcomeCounters {
    completed: AtomicU64,
    panicked: AtomicU64,
    deadline: AtomicU64,
    shed: AtomicU64,
}

/// Written from both sides of every job: raised by its submitter, lowered by its worker.
/// The sharing is real, so the two keep each other's company on one line.
#[derive(Default)]
struct SharedCounters {
    /// Submissions not yet settled.
    in_flight: AtomicU64,
    /// Admitted-but-not-started submissions currently holding a slot.
    occupancy: AtomicUsize,
}

/// Server-side shared state. Job closures capture this (never the `ThreadPool` itself —
/// an `Arc<ThreadPool>` inside a queued job would create a reference cycle through the
/// pool's own injector).
struct ServerState {
    capacity: usize,
    policy: AdmissionPolicy,

    /// The per-job counters, a cache line per set of writers (see [`SubmitCounters`]).
    submit: CachePadded<SubmitCounters>,
    outcomes: CachePadded<OutcomeCounters>,
    both: CachePadded<SharedCounters>,

    /// Where a `Block` submitter waits for `occupancy` to fall below `capacity`.
    admission: EventCount,

    /// FIFO of admitted jobs, maintained only under `ShedOldest` (eviction candidates).
    pending: Mutex<VecDeque<Arc<JobState>>>,
    /// Deadline min-heap the supervisor sweeps.
    deadlines: Mutex<BinaryHeap<DeadlineEntry>>,
    /// Where the supervisor waits for the next deadline (or, with none pending, for a
    /// registration or its stop).
    supervisor: EventCount,
    supervisor_stop: AtomicBool,

    shutdown: AtomicBool,
    /// Where [`JobServer::shutdown`]'s drain waits for `in_flight` to reach zero.
    drain: EventCount,

    /// Submission → execution-start latency (started jobs only).
    queue_hist: LatencyHistogram,
    /// Execution-start → settle latency (started jobs only).
    service_hist: LatencyHistogram,
    /// Submission → settle latency for jobs that never started (shed at the door,
    /// evicted or expired while queued, refused at shutdown). Together with
    /// the pair above, every submission lands in exactly one accounting path:
    /// `queue_hist.count == service_hist.count` (started) and
    /// `queue_hist.count + terminal_hist.count == settled submissions`.
    terminal_hist: LatencyHistogram,
    /// The wrapped pool's flight recorder when tracing is on (shared lanes — service
    /// events interleave with scheduler events in worker order).
    trace: Option<Arc<TraceRecorder>>,
}

impl ServerState {
    /// Settle `job` to `outcome` — the single arbitration point for the
    /// exactly-one-terminal-outcome contract. Returns whether this call won.
    fn settle(&self, job: &JobState, outcome: JobOutcome) -> bool {
        if job
            .outcome
            .compare_exchange(PENDING, outcome as u8, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        match outcome {
            JobOutcome::Completed => &self.outcomes.0.completed,
            JobOutcome::Panicked => &self.outcomes.0.panicked,
            JobOutcome::Deadline => &self.outcomes.0.deadline,
            JobOutcome::Shed => &self.outcomes.0.shed,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.trace_event(EventKind::ServiceSettle, outcome as u8, job.seq);
        if self.both.0.in_flight.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Nothing in flight: wake the shutdown drain, if one waits.
            self.drain.wake_all();
        }
        // The outcome was published by the CAS above.
        job.settled.wake_all();
        true
    }

    /// [`ServerState::settle`] for a job that provably never ran (its execution was
    /// claimed by a shed/evict/deadline path). The winner also records the
    /// submission → settle latency in `terminal_hist`, the accounting lane for
    /// never-started submissions — `queue_hist`/`service_hist` stay started-jobs-only,
    /// so the three histograms partition cleanly by outcome path.
    fn settle_never_ran(&self, job: &JobState, outcome: JobOutcome) -> bool {
        if !self.settle(job, outcome) {
            return false;
        }
        self.terminal_hist.record(job.submitted_at.elapsed().as_nanos() as u64);
        true
    }

    /// Record a service-lifecycle trace event: on a worker's own lane when called from
    /// one (claim/settle on the run path), else on the shared external lane (submitters,
    /// the supervisor, evictors).
    fn trace_event(&self, kind: EventKind, aux: u8, seq: u64) {
        if let Some(t) = &self.trace {
            WorkerHandle::with_current(|w| match w {
                Some(w) => t.record(w.index(), kind, aux, seq),
                None => t.record_external(kind, aux, seq),
            })
        }
    }

    /// Dispose of `job`'s admission slot exactly once. Returns true when this call freed
    /// it (as opposed to an evictor having transferred it already).
    fn release_slot(&self, job: &JobState) -> bool {
        if job.slot_released.swap(true, Ordering::AcqRel) {
            return false;
        }
        self.both.0.occupancy.fetch_sub(1, Ordering::AcqRel);
        self.admission.wake_one();
        true
    }

    /// Pop the oldest evictable pending job: admitted, unstarted, unsettled — and claim
    /// its execution so it provably never runs.
    fn claim_oldest_pending(&self) -> Option<Arc<JobState>> {
        let mut pending = self.pending.lock().unwrap_or_else(|e| e.into_inner());
        while let Some(job) = pending.pop_front() {
            if job.claim_run() {
                return Some(job);
            }
            // Stale entry (already running or settled): drop it and keep scanning — this
            // is also what keeps the deque from accumulating finished jobs.
        }
        None
    }

    fn wake_supervisor(&self) {
        self.supervisor.wake_one();
    }
}

/// Point-in-time accounting of everything a [`JobServer`] has done. The outcome counters
/// partition `submitted` once the server has drained (`shutdown` returns exactly such a
/// snapshot): `submitted == completed + panicked + deadline + shed`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceSnapshot {
    /// Total submissions (admitted or not).
    pub submitted: u64,
    /// Submissions that passed admission.
    pub accepted: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs whose closure panicked.
    pub panicked: u64,
    /// Jobs terminated by their deadline.
    pub deadline: u64,
    /// Submissions shed (refused, evicted, or arriving during shutdown).
    pub shed: u64,
    /// Panics quarantined by workers (pool-wide, includes non-service `spawn`s).
    pub panics_caught: u64,
    /// Submission → execution-start latency distribution (started jobs only).
    pub queue: HistogramSnapshot,
    /// Execution-start → settle latency distribution (started jobs only).
    pub service: HistogramSnapshot,
    /// Submission → settle latency distribution for jobs that never started (shed,
    /// evicted, or expired while queued). `queue.count == service.count`, and
    /// `queue.count + terminal.count` equals settled submissions — the histograms
    /// partition by outcome path instead of folding refusals into service latency.
    pub terminal: HistogramSnapshot,
}

/// A supervised, long-lived job server over a [`ThreadPool`]. See the module docs.
pub struct JobServer {
    state: Arc<ServerState>,
    pool: ThreadPool,
    supervisor: Option<thread::JoinHandle<()>>,
}

impl JobServer {
    /// Start a server (pool workers + one supervisor thread).
    pub fn new(config: ServiceConfig) -> Self {
        let mut builder = ThreadPoolBuilder::new();
        if config.threads > 0 {
            builder = builder.threads(config.threads);
        }
        if let Some(capacity) = config.trace {
            builder = builder.trace(capacity);
        }
        let pool = builder.build();
        let trace = pool.trace_recorder();
        let state = Arc::new(ServerState {
            capacity: config.queue_capacity.max(1),
            policy: config.admission,
            submit: CachePadded::default(),
            outcomes: CachePadded::default(),
            both: CachePadded::default(),
            admission: EventCount::default(),
            pending: Mutex::new(VecDeque::new()),
            deadlines: Mutex::new(BinaryHeap::new()),
            supervisor: EventCount::default(),
            supervisor_stop: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            drain: EventCount::default(),
            queue_hist: LatencyHistogram::new(),
            service_hist: LatencyHistogram::new(),
            terminal_hist: LatencyHistogram::new(),
            trace,
        });
        let supervisor = {
            let state = Arc::clone(&state);
            thread::Builder::new()
                .name("rws-supervisor".into())
                .spawn(move || supervisor_loop(state))
                .expect("failed to spawn supervisor thread")
        };
        JobServer { state, pool, supervisor: Some(supervisor) }
    }

    /// The wrapped pool (stats, trace).
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Submit a root job with no deadline.
    pub fn submit(&self, f: impl FnOnce() + Send + 'static) -> JobHandle {
        self.submit_inner(f, None)
    }

    /// Submit a root job with a budget: once `budget` has passed, the job settles as
    /// [`JobOutcome::Deadline`] at its next cancellation point, or without running if it
    /// has not started.
    pub fn submit_with_deadline(
        &self,
        f: impl FnOnce() + Send + 'static,
        budget: Duration,
    ) -> JobHandle {
        self.submit_inner(f, Some(budget))
    }

    fn submit_inner<F>(&self, f: F, budget: Option<Duration>) -> JobHandle
    where
        F: FnOnce() + Send + 'static,
    {
        let state = &self.state;
        let seq = state.submit.0.seq.fetch_add(1, Ordering::Relaxed);
        let deadline = budget.map(|b| Instant::now() + b);
        let job = Arc::new(JobState::new(seq, deadline));
        let handle = JobHandle { state: Arc::clone(&job) };
        // `settle` decrements in_flight; count every submission in so the counter nets to
        // the number of genuinely unsettled submissions even for shed-at-the-door ones.
        state.both.0.in_flight.fetch_add(1, Ordering::AcqRel);

        // ---- Admission ----
        loop {
            if state.shutdown.load(Ordering::Acquire) {
                job.claim_run(); // never runs
                state.settle_never_ran(&job, JobOutcome::Shed);
                return handle;
            }
            let occ = state.both.0.occupancy.load(Ordering::Acquire);
            if occ < state.capacity {
                if state
                    .both
                    .0
                    .occupancy
                    .compare_exchange(occ, occ + 1, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    break;
                }
                continue;
            }
            match state.policy {
                AdmissionPolicy::Block => {
                    // Every freed slot wakes one blocked submitter. No other wake can end
                    // this wait: `shutdown` and `drop` own the server, so while any
                    // `submit` runs neither can.
                    state.admission.wait_unless(None, || {
                        state.both.0.occupancy.load(Ordering::Acquire) < state.capacity
                    });
                }
                AdmissionPolicy::Shed => {
                    job.claim_run();
                    state.settle_never_ran(&job, JobOutcome::Shed);
                    return handle;
                }
                AdmissionPolicy::ShedOldest => {
                    if let Some(victim) = state.claim_oldest_pending() {
                        state.settle_never_ran(&victim, JobOutcome::Shed);
                        // Transfer the victim's slot to this submission. An unstarted
                        // victim still holds its slot, so the swap always wins here; the
                        // defensive branch covers the (unreachable today) case of racing
                        // an already-released slot.
                        if !victim.slot_released.swap(true, Ordering::AcqRel) {
                            break;
                        }
                    } else {
                        // Everything admitted is already running: nothing to evict, so
                        // behave like Block for a beat.
                        thread::yield_now();
                    }
                }
            }
        }

        // ---- Admitted ----
        state.submit.0.accepted.fetch_add(1, Ordering::Relaxed);
        if state.policy == AdmissionPolicy::ShedOldest {
            let mut pending = state.pending.lock().unwrap_or_else(|e| e.into_inner());
            // Amortized cleanup: drop already-started/settled heads so the deque tracks
            // the (capacity-bounded) set of evictable jobs instead of growing forever.
            while pending
                .front()
                .is_some_and(|j| j.started.load(Ordering::Acquire) || j.outcome().is_some())
            {
                pending.pop_front();
            }
            pending.push_back(Arc::clone(&job));
        }
        if let Some(at) = deadline {
            state.deadlines.lock().unwrap_or_else(|e| e.into_inner()).push(DeadlineEntry {
                at,
                seq,
                job: Arc::downgrade(&job),
            });
            state.wake_supervisor();
        }
        state.trace_event(EventKind::ServiceEnqueue, 0, seq);
        let server = Arc::clone(state);
        let job_for_run = Arc::clone(&job);
        self.pool.spawn(move || run_root_job(&server, &job_for_run, f));
        handle
    }

    /// Current accounting (counters are racy snapshots while jobs are in flight).
    pub fn snapshot(&self) -> ServiceSnapshot {
        let s = &self.state;
        ServiceSnapshot {
            submitted: s.submit.0.seq.load(Ordering::Relaxed),
            accepted: s.submit.0.accepted.load(Ordering::Relaxed),
            completed: s.outcomes.0.completed.load(Ordering::Relaxed),
            panicked: s.outcomes.0.panicked.load(Ordering::Relaxed),
            deadline: s.outcomes.0.deadline.load(Ordering::Relaxed),
            shed: s.outcomes.0.shed.load(Ordering::Relaxed),
            panics_caught: self.pool.stats().snapshot().total_panics_caught(),
            queue: s.queue_hist.snapshot(),
            service: s.service_hist.snapshot(),
            terminal: s.terminal_hist.snapshot(),
        }
    }

    /// Submissions not yet settled.
    pub fn in_flight(&self) -> u64 {
        self.state.both.0.in_flight.load(Ordering::Acquire)
    }

    /// Stop accepting work, drain every in-flight submission to a terminal outcome, stop
    /// the supervisor, join the workers, and return the final accounting.
    pub fn shutdown(mut self) -> ServiceSnapshot {
        let state = &self.state;
        state.shutdown.store(true, Ordering::Release);
        // Drain: every accepted job must settle. Every worker keeps running its loop until
        // the pool stops, so a queued job always finds an executor, and the settle that
        // zeroes `in_flight` wakes the drain.
        //
        // The supervisor deliberately keeps running through this drain — stopping it here
        // would be safe for *queued* jobs (`run_root_job`'s pre-run deadline check settles
        // queued-expired jobs without any sweep) but would leave an already-*running*
        // job's expired deadline uncancelled until it completed on its own.
        let drained = || state.both.0.in_flight.load(Ordering::Acquire) == 0;
        while !drained() {
            state.drain.wait_unless(None, drained);
        }
        // Every job has settled, so nothing below needs the supervisor's sweeps.
        // `supervisor_loop` looks at the stop flag last before it waits, so this
        // raise-then-wake cannot be lost (the same flag-then-wake `Drop` does).
        state.supervisor_stop.store(true, Ordering::Release);
        state.wake_supervisor();
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        // Join the workers before counting: they run what is still queued before they exit
        // (a `spawn` on this server's pool, say), so once they are joined `panics_caught`
        // holds every quarantined panic.
        self.pool.stop();
        self.snapshot()
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        // `shutdown(self)` consumes the server and takes the supervisor; this covers a
        // server dropped without an explicit shutdown.
        self.state.shutdown.store(true, Ordering::Release);
        self.state.supervisor_stop.store(true, Ordering::Release);
        self.state.wake_supervisor();
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }
}

/// The root wrapper every admitted job runs under: claims execution, does the latency
/// accounting, lends the job's deadline flag to the thread's token word for the run
/// (every branch the job forks borrows it from there), quarantines panics, and settles
/// the outcome.
fn run_root_job(server: &Arc<ServerState>, job: &Arc<JobState>, f: impl FnOnce()) {
    if !job.claim_run() {
        // An evictor or deadline sweep claimed this job first: it has settled (or is
        // settling) without running. Slot accounting belongs to whoever claimed it.
        server.release_slot(job);
        return;
    }
    let started_at = Instant::now();
    server.queue_hist.record(started_at.duration_since(job.submitted_at).as_nanos() as u64);
    server.trace_event(EventKind::ServiceClaim, 0, job.seq);
    server.release_slot(job);
    // Expired while queued: raise the flag so the very first cancellation point (below,
    // before the closure runs) converts this into a no-work Deadline outcome.
    if let Some(at) = job.deadline {
        if started_at >= at {
            job.cancelled.store(true, Ordering::Relaxed);
        }
    }
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        cancel::under(Some(&job.cancelled), || {
            cancel::check_cancel();
            f();
        })
    }));
    server.service_hist.record(started_at.elapsed().as_nanos() as u64);
    match result {
        Ok(()) => {
            server.settle(job, JobOutcome::Completed);
        }
        Err(payload) if payload.is::<CancelPayload>() => {
            server.settle(job, JobOutcome::Deadline);
        }
        Err(payload) => {
            // A genuine panic: quarantined here (this catch is inside Job::execute's, so
            // the pool-level catch never sees it) — count it like the pool would.
            WorkerHandle::with_current(|w| {
                if let Some(w) = w {
                    w.shared.stats().record_panic_caught(w.index());
                }
            });
            server.settle(job, JobOutcome::Panicked);
            drop(payload);
        }
    }
}

/// The supervisor: deadline sweeps, on one thread that sleeps until the next deadline or
/// until a registration or its stop wakes it; with no deadline pending, only a wake ends
/// its sleep.
fn supervisor_loop(state: Arc<ServerState>) {
    while !state.supervisor_stop.load(Ordering::Acquire) {
        // Deadline sweep: pop everything due, raise their flags, and settle jobs that
        // provably never started.
        let now = Instant::now();
        let mut next_deadline: Option<Instant> = None;
        {
            let mut heap = state.deadlines.lock().unwrap_or_else(|e| e.into_inner());
            while let Some(entry) = heap.peek() {
                if entry.at > now {
                    next_deadline = Some(entry.at);
                    break;
                }
                let entry = heap.pop().expect("peeked entry");
                if let Some(job) = entry.job.upgrade() {
                    if job.outcome().is_none() {
                        job.cancelled.store(true, Ordering::Relaxed);
                        if job.claim_run() {
                            // Still queued: it never runs; settle and free its slot.
                            state.settle_never_ran(&job, JobOutcome::Deadline);
                            state.release_slot(&job);
                        }
                        // Else: running — the flag does the work at the next fork point.
                    }
                }
            }
        }

        // Up before the next deadline for a stop, or for a deadline registered since the
        // sweep that falls before the one it saw (the registration's wake may have found
        // nobody waiting yet).
        state.supervisor.wait_unless(next_deadline, || {
            state.supervisor_stop.load(Ordering::Acquire)
                || state
                    .deadlines
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .peek()
                    .is_some_and(|entry| next_deadline.is_none_or(|next| entry.at < next))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watchdog;
    use std::sync::atomic::AtomicU64 as TestCounter;

    fn quick_server(threads: usize, capacity: usize, policy: AdmissionPolicy) -> JobServer {
        JobServer::new(ServiceConfig {
            threads,
            queue_capacity: capacity,
            admission: policy,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn jobs_complete_and_counters_partition_submissions() {
        let server = quick_server(2, 64, AdmissionPolicy::Block);
        let ran = Arc::new(TestCounter::new(0));
        let handles: Vec<_> = (0..50)
            .map(|_| {
                let ran = Arc::clone(&ran);
                server.submit(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in &handles {
            assert_eq!(h.wait(), JobOutcome::Completed);
        }
        let snap = server.shutdown();
        assert_eq!(ran.load(Ordering::Relaxed), 50);
        assert_eq!(snap.submitted, 50);
        assert_eq!(snap.completed, 50);
        assert_eq!(
            snap.completed + snap.panicked + snap.deadline + snap.shed,
            snap.submitted,
            "outcomes partition submissions"
        );
        assert_eq!(snap.queue.count, 50, "every started job records queue latency");
        assert_eq!(snap.service.count, 50, "every started job records service latency");
        assert_eq!(snap.terminal.count, 0, "nothing was refused, so no terminal-only path");
    }

    #[test]
    fn panicking_jobs_settle_as_panicked_and_the_server_survives() {
        let server = quick_server(1, 16, AdmissionPolicy::Block);
        let bad = server.submit(|| panic!("job goes down"));
        assert_eq!(bad.wait(), JobOutcome::Panicked);
        let good = server.submit(|| {});
        assert_eq!(good.wait(), JobOutcome::Completed);
        let snap = server.shutdown();
        assert_eq!(snap.panicked, 1);
        assert_eq!(snap.completed, 1);
        assert!(snap.panics_caught >= 1, "the panic is counted per worker");
    }

    #[test]
    fn shed_policy_refuses_overflow_without_running_it() {
        // One worker wedged on a gate keeps the queue full deterministically.
        let server = quick_server(1, 1, AdmissionPolicy::Shed);
        let gate = Arc::new(AtomicBool::new(false));
        let g = Arc::clone(&gate);
        let blocker = server.submit(move || {
            while !g.load(Ordering::Acquire) {
                thread::sleep(Duration::from_millis(1));
            }
        });
        // Wait until the blocker holds the worker (slot released once it starts).
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.state.both.0.occupancy.load(Ordering::Acquire) > 0 {
            assert!(Instant::now() < deadline, "blocker never started");
            thread::yield_now();
        }
        // Now fill the single admission slot with a queued job...
        let queued = server.submit(|| {});
        // ...and overflow: must shed, closure must never run.
        let ran = Arc::new(TestCounter::new(0));
        let r = Arc::clone(&ran);
        let shed = server.submit(move || {
            r.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(shed.outcome(), Some(JobOutcome::Shed), "settled synchronously");
        gate.store(true, Ordering::Release);
        assert_eq!(blocker.wait(), JobOutcome::Completed);
        assert_eq!(queued.wait(), JobOutcome::Completed);
        let snap = server.shutdown();
        assert_eq!(ran.load(Ordering::Relaxed), 0, "a shed job's closure never runs");
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.queue.count, snap.service.count, "started jobs record both latencies");
        assert_eq!(snap.queue.count, 2);
        assert_eq!(snap.terminal.count, 1, "the refused submission lands in terminal only");
        assert!(snap.terminal.max_ns >= 1, "terminal latency is a real submit->settle span");
    }

    #[test]
    fn shed_oldest_evicts_the_queued_victim_and_admits_the_newcomer() {
        let server = quick_server(1, 1, AdmissionPolicy::ShedOldest);
        let gate = Arc::new(AtomicBool::new(false));
        let g = Arc::clone(&gate);
        let blocker = server.submit(move || {
            while !g.load(Ordering::Acquire) {
                thread::sleep(Duration::from_millis(1));
            }
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.state.both.0.occupancy.load(Ordering::Acquire) > 0 {
            assert!(Instant::now() < deadline, "blocker never started");
            thread::yield_now();
        }
        let victim_ran = Arc::new(TestCounter::new(0));
        let v = Arc::clone(&victim_ran);
        let victim = server.submit(move || {
            v.fetch_add(1, Ordering::Relaxed);
        });
        let newcomer = server.submit(|| {});
        assert_eq!(victim.outcome(), Some(JobOutcome::Shed), "oldest queued job evicted");
        gate.store(true, Ordering::Release);
        assert_eq!(blocker.wait(), JobOutcome::Completed);
        assert_eq!(newcomer.wait(), JobOutcome::Completed);
        let snap = server.shutdown();
        assert_eq!(victim_ran.load(Ordering::Relaxed), 0, "evicted job never runs");
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.queue.count, 2, "the evicted job never pollutes queue latency");
        assert_eq!(snap.service.count, 2);
        assert_eq!(snap.terminal.count, 1, "the eviction records submit->settle latency");
    }

    #[test]
    fn queued_job_whose_deadline_expires_never_runs() {
        let server = quick_server(1, 4, AdmissionPolicy::Block);
        let gate = Arc::new(AtomicBool::new(false));
        let g = Arc::clone(&gate);
        let blocker = server.submit(move || {
            while !g.load(Ordering::Acquire) {
                thread::sleep(Duration::from_millis(1));
            }
        });
        let ran = Arc::new(TestCounter::new(0));
        let r = Arc::clone(&ran);
        let doomed = server.submit_with_deadline(
            move || {
                r.fetch_add(1, Ordering::Relaxed);
            },
            Duration::from_millis(10),
        );
        // The supervisor (or the worker's own pre-run check) must expire it while queued.
        let outcome = doomed.wait_timeout(Duration::from_secs(20));
        assert_eq!(outcome, Some(JobOutcome::Deadline));
        gate.store(true, Ordering::Release);
        assert_eq!(blocker.wait(), JobOutcome::Completed);
        let snap = server.shutdown();
        assert_eq!(ran.load(Ordering::Relaxed), 0, "an expired queued job never runs");
        assert_eq!(snap.deadline, 1);
        assert_eq!(snap.terminal.count, 1, "queued-expired jobs are terminal-path only");
        assert_eq!(snap.queue.count, snap.service.count);
    }

    #[test]
    fn running_job_observes_its_deadline_at_fork_points() {
        let server = quick_server(2, 16, AdmissionPolicy::Block);
        let handle = server.submit_with_deadline(
            || {
                // Keep forking until the deadline bites at a `join` entry.
                loop {
                    crate::pool::join(
                        || thread::sleep(Duration::from_millis(1)),
                        || thread::sleep(Duration::from_millis(1)),
                    );
                }
            },
            Duration::from_millis(20),
        );
        assert_eq!(handle.wait_timeout(Duration::from_secs(30)), Some(JobOutcome::Deadline));
        let snap = server.shutdown();
        assert_eq!(snap.deadline, 1);
    }

    #[test]
    fn shutdown_snapshot_partitions_under_mixed_outcomes() {
        let server = quick_server(2, 64, AdmissionPolicy::Block);
        // One job in five panics, by `resume_unwind` (no panic hook, so no backtraces).
        let handles: Vec<_> = (0..100)
            .map(|i| {
                server.submit(move || {
                    if i % 5 == 0 {
                        panic::resume_unwind(Box::new("planned job panic"));
                    }
                })
            })
            .collect();
        for h in &handles {
            let o = h.wait();
            assert!(matches!(o, JobOutcome::Completed | JobOutcome::Panicked));
        }
        let snap = server.shutdown();
        assert_eq!(snap.submitted, 100);
        assert_eq!(snap.panicked, 20, "every planned panic was quarantined");
        assert_eq!(snap.completed, 80);
        assert_eq!(snap.queue.count, 100, "panicked jobs still started (queue latency)");
        assert_eq!(snap.service.count, 100, "panicked jobs record service latency too");
        assert_eq!(snap.terminal.count, 0);
    }

    #[test]
    fn histograms_partition_settled_submissions_by_outcome_path() {
        // Shed policy + a wedged worker: a mix of started and never-started jobs.
        let server = quick_server(1, 1, AdmissionPolicy::Shed);
        let gate = Arc::new(AtomicBool::new(false));
        let g = Arc::clone(&gate);
        let blocker = server.submit(move || {
            while !g.load(Ordering::Acquire) {
                thread::sleep(Duration::from_millis(1));
            }
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.state.both.0.occupancy.load(Ordering::Acquire) > 0 {
            assert!(Instant::now() < deadline, "blocker never started");
            thread::yield_now();
        }
        let queued = server.submit(|| {});
        let refused: Vec<_> = (0..5).map(|_| server.submit(|| {})).collect();
        for h in &refused {
            assert_eq!(h.outcome(), Some(JobOutcome::Shed));
        }
        gate.store(true, Ordering::Release);
        blocker.wait();
        queued.wait();
        let snap = server.shutdown();
        let started = snap.queue.count;
        assert_eq!(started, snap.service.count, "queue and service pair up per started job");
        assert_eq!(
            started + snap.terminal.count,
            snap.submitted,
            "every settled submission is in exactly one accounting path"
        );
        assert_eq!(snap.terminal.count, 5);
    }

    #[test]
    fn no_wait_ever_leans_on_its_fifty_millisecond_recheck() {
        // Two submitters, each waiting on every job it submits, against two workers: the
        // settle and the waiter's registration race 20 000 times. A wake lost there leaves
        // its waiter asleep for good.
        const JOBS_EACH: usize = 10_000;
        watchdog::within(watchdog::LIMIT, "a settle's wake of `JobHandle::wait`", || {
            let server = Arc::new(quick_server(2, 64, AdmissionPolicy::Block));
            let submitters: Vec<_> = (0..2)
                .map(|_| {
                    let server = Arc::clone(&server);
                    thread::spawn(move || {
                        for _ in 0..JOBS_EACH {
                            assert_eq!(server.submit(|| {}).wait(), JobOutcome::Completed);
                        }
                    })
                })
                .collect();
            submitters.into_iter().for_each(|h| h.join().expect("submitter panicked"));
            let server = Arc::into_inner(server).expect("the submitters are joined");
            assert_eq!(server.shutdown().completed, 2 * JOBS_EACH as u64);
        });
    }

    #[test]
    fn a_blocked_submitter_is_woken_by_the_slot_it_waits_for() {
        // Capacity 1: the submitter blocks on nearly every submission, until the worker
        // claims the queued job (50 us of work away) and frees its slot. Were those wakes
        // missing, the first block would last for good.
        const JOBS: usize = 500;
        watchdog::within(watchdog::LIMIT, "`release_slot`'s wake of a `Block` submitter", || {
            let server = quick_server(1, 1, AdmissionPolicy::Block);
            let handles: Vec<_> = (0..JOBS)
                .map(|_| {
                    server.submit(|| {
                        let begun = Instant::now();
                        while begun.elapsed() < Duration::from_micros(50) {
                            std::hint::spin_loop();
                        }
                    })
                })
                .collect();
            for h in &handles {
                assert_eq!(h.wait(), JobOutcome::Completed);
            }
            assert_eq!(server.shutdown().completed, JOBS as u64);
        });
    }

    #[test]
    fn the_supervisor_wakes_for_a_new_deadline_and_for_its_stop() {
        // With no deadline pending the supervisor sleeps until a deadline's registration,
        // `shutdown` or `drop` wakes it.
        let what = "a deadline's registration, `shutdown` or `drop` waking the supervisor";
        watchdog::within(watchdog::LIMIT, what, || {
            let idle_server = || quick_server(1, 1024, AdmissionPolicy::Block);
            let server = idle_server();
            let gate = Arc::new(AtomicBool::new(false));
            let g = Arc::clone(&gate);
            let blocker = server.submit(move || {
                while !g.load(Ordering::Acquire) {
                    thread::sleep(Duration::from_millis(1));
                }
            });
            while server.state.supervisor.waiters() == 0 {
                thread::yield_now();
            }
            // Queued behind the blocker, so only the supervisor's sweep can expire it.
            let doomed = server.submit_with_deadline(|| {}, Duration::from_millis(10));
            let outcome = doomed.wait_timeout(Duration::from_secs(5));
            gate.store(true, Ordering::Release);
            assert_eq!(outcome, Some(JobOutcome::Deadline), "the registration woke the supervisor");
            assert_eq!(blocker.wait(), JobOutcome::Completed);
            for stop in [
                |s: JobServer| {
                    s.shutdown();
                },
                drop::<JobServer>,
            ] {
                let server = idle_server();
                while server.state.supervisor.waiters() == 0 {
                    thread::yield_now();
                }
                stop(server);
            }
            drop(server);
        });
    }

    #[test]
    fn the_drain_is_woken_by_the_last_settle() {
        // The last job settles only once `shutdown`'s drain is asleep, so its settle finds a
        // waiter to wake; without that wake the drain sleeps for good.
        const ROUNDS: usize = 20;
        watchdog::within(watchdog::LIMIT, "the last settle's wake of the drain", || {
            for _ in 0..ROUNDS {
                let server = quick_server(1, 4, AdmissionPolicy::Block);
                let state = Arc::clone(&server.state);
                let s = Arc::clone(&state);
                server.submit(move || {
                    while s.drain.waiters() == 0 {
                        thread::yield_now();
                    }
                });
                server.shutdown();
                assert!(state.drain.events() > 0, "the drain slept and was woken");
            }
        });
    }

    #[test]
    fn traced_server_records_the_service_lifecycle() {
        let server = JobServer::new(ServiceConfig {
            threads: 2,
            queue_capacity: 32,
            trace: Some(4096),
            ..ServiceConfig::default()
        });
        let handles: Vec<_> = (0..20).map(|_| server.submit(|| {})).collect();
        for h in &handles {
            assert_eq!(h.wait(), JobOutcome::Completed);
        }
        // A waiter may return as soon as the outcome is published, before the settling
        // worker records its settle event; `in_flight` drops only after that event.
        while server.state.both.0.in_flight.load(Ordering::Acquire) != 0 {
            thread::yield_now();
        }
        let trace = server.pool().trace_snapshot().expect("tracing is on");
        let snap = server.shutdown();
        let profile = trace.profile();
        assert_eq!(profile.service.enqueued, 20, "one enqueue per submission");
        assert_eq!(profile.service.claimed, 20, "one claim per started job");
        assert_eq!(profile.service.settled, 20, "one settle per submission");
        assert_eq!(
            profile.service.outcomes[JobOutcome::Completed as usize],
            20,
            "settle events carry the outcome"
        );
        assert_eq!(profile.service.queue_pairs, 20, "enqueue->claim pairs by sequence number");
        assert_eq!(profile.service.service_pairs, 20, "claim->settle pairs by sequence number");
        // Two accounting paths, one truth: the trace's pairs and the histograms must
        // agree on population, and on magnitude within the ring's timestamp resolution.
        assert_eq!(snap.queue.count, profile.service.queue_pairs);
        assert_eq!(snap.service.count, profile.service.service_pairs);
        assert!(profile.service.queue_ns > 0);
        assert!(profile.service.service_ns > 0);
    }
}
