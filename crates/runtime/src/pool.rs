//! The native randomized work-stealing thread pool and its fork-join `join` primitive.
//!
//! Workers follow the paper's discipline: each has a private deque; new tasks go to the
//! bottom; an idle worker first drains the global injector, then repeatedly picks a victim
//! uniformly at random and steals one task, the *oldest* in the victim's deque. The deque
//! is a plain `VecDeque` that only its owner touches; the oldest job sits on offer in the
//! owner's steal cell (`steal.rs`), where a thief takes it with one CAS, without waiting for
//! the owner and without touching the deque. [`join`] implements fork-join on top of this
//! with an **allocation-free fast path**: the right branch is a `StackJob` (see `job.rs`) in
//! the caller's own stack frame, pushed into the deque as a two-word `Job` — a tagged
//! pointer to it and its execute function, passed in two registers. When nobody steals it
//! the owner pops it straight back (again in two registers) and runs it inline — no `Box`,
//! no `Arc`, no lock and no fence: the fork reads the thread's worker word and its
//! cancellation word, pushes (and looks at its steal cell with one relaxed load), pops,
//! reads the job's latch once (one acquire load that finds it unset; nothing ever sets or
//! waits on it) and bumps its own job counter with a plain store. `docs/ARCHITECTURE.md`
//! ("What an unstolen fork costs") has the budget and the tests that pin it. Only when a
//! thief takes the branch does the owner wait on the job's atomic latch, helping execute
//! other jobs in the meantime (a blocked join never idles a core) and parking on the pool's
//! `EventCount` (see `sleep.rs`) when there is nothing to help with.

// The unsafe here is confined to the stack-job handoff (see `job.rs` for the invariants), the
// worker word, and the owner's access to its private deque and its steal cell's offer.
#![allow(unsafe_code)]

use crate::cancel::{self, ForkToken};
use crate::job::{Job, JoinResult, Latch, StackJob};
use crate::padding::CachePadded;
use crate::sleep::{EventCount, BACKOFF};
use crate::stats::PoolStats;
use crate::steal::StealCell;
use crossbeam_deque::{Injector, Steal};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use rws_trace::{EventKind, JobKind, TraceRecorder, TraceSnapshot, LADDER_STAGE_PARK};
use std::cell::{Cell, RefCell, UnsafeCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

/// The jobs a worker's deque holds before it first grows: a fork-join nest pushes one per
/// level, so a warm fork never allocates.
const DEQUE_CAPACITY: usize = 64;

pub(crate) struct Shared {
    injector: Injector<Job>,
    /// One per worker, each on a cache line of its own: where its oldest job is on offer.
    cells: Box<[CachePadded<StealCell>]>,
    stats: PoolStats,
    /// Where idle workers park, and owners of stolen branches and scopes wait. Every offer
    /// reads its waiter count (`wake_one`); the line of its own keeps the submitter-written
    /// `injector` off it.
    pub(crate) sleep: CachePadded<EventCount>,
    shutdown: AtomicBool,
    workers: usize,
    /// Optional flight recorder (default off; see [`rws_trace`]). Every hook site below
    /// pays one never-taken branch when this is `None`.
    trace: Option<Arc<TraceRecorder>>,
    /// Where threads outside the pool wait for the closure they installed.
    installers: EventCount,
}

impl Shared {
    fn new(workers: usize, trace: Option<usize>) -> Self {
        Shared {
            injector: Injector::new(),
            cells: (0..workers).map(|_| CachePadded::default()).collect(),
            stats: PoolStats::new(workers),
            sleep: CachePadded::default(),
            shutdown: AtomicBool::new(false),
            workers,
            trace: trace.map(|cap| TraceRecorder::new(workers, cap)),
            installers: EventCount::default(),
        }
    }

    /// Push a job into the global injector and wake one parked worker, if there is one —
    /// the submission path for work arriving from outside a worker of this pool (`spawn`,
    /// cross-thread `install`, and scoped spawns issued off-pool).
    ///
    /// Publish, full fence, look ([`EventCount::wake_one`]): `Injector::push` raises the
    /// queue's length with a `SeqCst` `fetch_add` before it unlocks, and a worker about to
    /// park fences between registering as a sleeper and its last `has_visible_work`. So
    /// either this thread sees the sleeper and wakes it, or the sleeper sees the length
    /// raised and does not park: a job submitted to an idle pool is never left waiting
    /// (`tests/submit_latency.rs`), and one submitted to a busy pool makes no system call
    /// (`tests/service_wakes.rs`). One job needs one worker; if it forks, its
    /// pushes wake the others like any fork's.
    pub(crate) fn inject(&self, job: Job) {
        self.injector.push(job);
        self.sleep.0.wake_one();
    }

    /// Whether any queue visibly holds work a thief could take (the pre-park check, made
    /// after the sleeper's fence: a job injected or offered by a thread that then saw no
    /// sleeper is visible here).
    fn has_visible_work(&self) -> bool {
        !self.injector.is_empty() || self.cells.iter().any(|c| c.0.is_open())
    }

    /// The pool's statistics (service-layer access path).
    pub(crate) fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// The attached flight recorder, if tracing was enabled at build time.
    pub(crate) fn trace(&self) -> Option<&TraceRecorder> {
        self.trace.as_deref()
    }
}

pub(crate) struct WorkerHandle {
    index: usize,
    pub(crate) shared: Arc<Shared>,
    /// The private deque: newest job at the back. Only this worker's thread touches it
    /// (the handle is `!Sync`), through [`WorkerHandle::with_deque`].
    deque: UnsafeCell<VecDeque<Job>>,
    rng: RefCell<SmallRng>,
}

thread_local! {
    /// The calling thread's worker: null on every thread that is not inside `worker_loop`.
    /// One word, `const`-initialised and without a destructor, so reading it is a plain
    /// thread-local load — no lazy-registration check, no borrow flag, no reference count.
    /// Written only by [`CurrentWorker`] (set on entry to `worker_loop`, cleared on exit).
    static CURRENT_WORKER: Cell<*const WorkerHandle> = const { Cell::new(ptr::null()) };
}

/// Number of workers in the pool the calling thread belongs to, or 1 when the caller is not
/// a pool worker (where fork-join primitives degrade to sequential execution). This is what
/// drives the parallel iterators' adaptive grain.
pub fn current_num_threads() -> usize {
    WorkerHandle::with_current(|w| w.map_or(1, |h| h.shared.workers))
}

impl WorkerHandle {
    /// Worker `index`'s handle, with its deque's capacity allocated up front.
    fn new(index: usize, shared: Arc<Shared>) -> Self {
        WorkerHandle {
            index,
            shared,
            deque: UnsafeCell::new(VecDeque::with_capacity(DEQUE_CAPACITY)),
            rng: RefCell::new(SmallRng::seed_from_u64(0x9E3779B9 + index as u64)),
        }
    }

    /// Run `f` with the calling thread's worker handle, when it is a pool worker. This is
    /// the one place the thread's worker word is read: `join`, `scope`, `Scope::spawn`,
    /// `try_install`'s on-this-pool test and the service layer all come through here.
    #[inline]
    pub(crate) fn with_current<R>(f: impl FnOnce(Option<&WorkerHandle>) -> R) -> R {
        let worker = CURRENT_WORKER.get();
        // SAFETY: a non-null slot points at the `WorkerHandle` owned by this thread's
        // `worker_loop` frame. The `CurrentWorker` guard in that frame sets the slot after
        // the handle exists and clears it before the handle is dropped, and nothing runs on
        // a worker thread outside `worker_loop` — so whoever reads a non-null slot is
        // running beneath that frame, and so is `f`, which cannot keep the reference past
        // its own return.
        f(unsafe { worker.as_ref() })
    }

    /// This worker's index in the pool (service-layer access path for per-worker stats).
    pub(crate) fn index(&self) -> usize {
        self.index
    }

    /// Run `f` on this worker's deque.
    #[inline]
    fn with_deque<R>(&self, f: impl FnOnce(&mut VecDeque<Job>) -> R) -> R {
        // SAFETY: the handle is `!Sync`, so only the one thread that holds it reaches the
        // deque, and no `f` passed here calls back into the handle, so this is the deque's
        // only reference.
        f(unsafe { &mut *self.deque.get() })
    }

    /// This worker's steal cell.
    #[inline]
    fn cell(&self) -> &StealCell {
        &self.shared.cells[self.index].0
    }

    /// Kept out of line, like [`WorkerHandle::pop_local`]: one compact function with the
    /// deque operation inlined into it, called from every `join` instance, taking the job
    /// in two registers. Folded into `join` (`#[inline]`) both measure two ways on
    /// `forkjoin-fine`, and the folded shape has not read lower in 9 of 10 pairs
    /// (`docs/ARCHITECTURE.md`, "What an unstolen fork costs").
    ///
    /// The push polls the steal cell with one relaxed load: when a thief took the last offer
    /// (or none was made), the oldest job goes on offer.
    #[inline(never)]
    pub(crate) fn push_local(&self, job: Job) {
        self.with_deque(|d| d.push_back(job));
        if self.cell().is_blocked() {
            self.offer_oldest();
        }
    }

    /// The newest job: the back of the deque or, once that is empty, the offer taken back.
    #[inline(never)]
    fn pop_local(&self) -> Option<Job> {
        match self.with_deque(VecDeque::pop_back) {
            Some(job) => Some(job),
            None => self.reclaim(),
        }
    }

    /// Put the oldest job in the deque on offer, and wake a sleeper to come and take it: a
    /// full fence and one load when nobody is parked, the handshake every wake makes (see
    /// `sleep.rs`). Out of line: it runs when the deque leaves empty and after a steal, not
    /// per fork.
    #[cold]
    #[inline(never)]
    fn offer_oldest(&self) {
        if let Some(job) = self.with_deque(VecDeque::pop_front) {
            // SAFETY: this is the cell's owner, and its caller found the cell blocked.
            unsafe { self.cell().offer(job) };
            self.shared.sleep.0.wake_one();
        }
    }

    /// Take the offer back: the pop path's one CAS, kept out of `pop_local` (which then holds
    /// no locked instruction), since the deque empties only when the fork nest does.
    #[cold]
    #[inline(never)]
    fn reclaim(&self) -> Option<Job> {
        self.cell().reclaim()
    }

    /// Find one job: the newest in the local deque first (re-offering the oldest of what
    /// stays, if a thief took the last offer), then the injector (a locked queue, which never
    /// answers `Retry`), then up to `2 × workers` steal attempts on victims picked uniformly
    /// at random. A steal takes the victim's offer — its oldest job, in recursive
    /// computations the largest, the one the paper's discipline says a thief should run —
    /// and moves exactly that one task.
    ///
    /// `record_failures` gates the failed-steal/retry accounting: the first sweep of an
    /// activity burst (and the first after each wake) records — that is the paper's "active
    /// processor probed and missed" — while the sweeps of the spin and yield rounds do not,
    /// which would otherwise count the backoff's own schedule as failed steals.
    fn find_job(&self, record_failures: bool) -> Option<Job> {
        if let Some(job) = self.pop_local() {
            if self.cell().is_blocked() {
                self.offer_oldest();
            }
            return Some(job);
        }
        if let Steal::Success(job) = self.shared.injector.steal() {
            return Some(job);
        }
        let workers = self.shared.workers;
        if workers > 1 {
            for _ in 0..2 * workers {
                let victim = {
                    let mut rng = self.rng.borrow_mut();
                    let v = rng.gen_range(0..workers - 1);
                    if v >= self.index {
                        v + 1
                    } else {
                        v
                    }
                };
                match self.shared.cells[victim].0.steal(self.index) {
                    Steal::Success(job) => {
                        self.shared.stats.record_steal(self.index);
                        if let Some(t) = self.shared.trace() {
                            t.record(self.index, EventKind::StealOk, 1, victim as u64);
                        }
                        return Some(job);
                    }
                    Steal::Empty => {
                        if record_failures {
                            self.shared.stats.record_failed_steal(self.index);
                            if let Some(t) = self.shared.trace() {
                                t.record(self.index, EventKind::StealEmpty, 0, victim as u64);
                            }
                        }
                    }
                    Steal::Retry => {
                        if record_failures {
                            self.shared.stats.record_retry(self.index);
                            if let Some(t) = self.shared.trace() {
                                t.record(self.index, EventKind::StealRetry, 0, victim as u64);
                            }
                        }
                    }
                }
            }
        }
        None
    }

    fn run_job(&self, job: Job) {
        self.shared.stats.record_job(self.index);
        let kind = job.kind() as u8;
        if let Some(t) = self.shared.trace() {
            t.record(self.index, EventKind::JobStart, kind, 0);
        }
        if job.execute() {
            // A heap job's panic was quarantined inside `execute`; count it against this
            // worker so a supervisor can tell a panic-storm from a healthy pool.
            self.shared.stats.record_panic_caught(self.index);
        }
        if let Some(t) = self.shared.trace() {
            t.record(self.index, EventKind::JobEnd, kind, 0);
        }
    }

    /// One step of the spin→yield→park idle protocol (the schedule is `sleep.rs`'s
    /// `BACKOFF`): the first rounds busy-spin an exponentially growing number of
    /// pause cycles between work-finding sweeps, the next rounds yield the OS slice, and
    /// past the budget the worker parks until a wake. `ready` is the wake condition
    /// re-checked before actually sleeping (see [`EventCount::wait_unless`]). After the
    /// park the caller's next find sweep starts a fresh activity burst (`idle == 0`).
    fn idle_step(&self, idle: &mut u32, ready: impl FnOnce() -> bool) {
        let bk = BACKOFF;
        *idle += 1;
        if *idle <= bk.spin_rounds {
            for _ in 0..bk.spins_for_round(*idle) {
                std::hint::spin_loop();
            }
        } else if *idle <= bk.rounds_before_park() {
            thread::yield_now();
        } else {
            self.shared.stats.record_park(self.index);
            if let Some(t) = self.shared.trace() {
                t.record(self.index, EventKind::Park, LADDER_STAGE_PARK, *idle as u64);
            }
            self.shared.sleep.0.wait_unless(None, ready);
            if let Some(t) = self.shared.trace() {
                t.record(self.index, EventKind::Unpark, 0, 0);
            }
            *idle = 0;
        }
    }

    /// Help-then-park until `done` turns true: run any job we can find; with nothing to
    /// do, spin briefly, then park (woken by new pushes or by the completion that flips
    /// `done` — both the `join` latch and the scope counter notify the pool's sleep on
    /// their final transition).
    pub(crate) fn wait_until(&self, done: impl Fn() -> bool) {
        let mut idle = 0u32;
        while !done() {
            if let Some(job) = self.find_job(idle == 0) {
                idle = 0;
                self.run_job(job);
                continue;
            }
            let shared = &self.shared;
            self.idle_step(&mut idle, || done() || shared.has_visible_work());
        }
    }

    /// [`WorkerHandle::wait_until`] specialized to a stolen `join` branch's latch. Out of
    /// line: one fork in a thousand gets here, and the help loop is large.
    #[cold]
    #[inline(never)]
    fn wait_for_latch(&self, latch: &Latch) {
        self.wait_until(|| latch.probe());
    }
}

/// Publishes the worker in its thread's worker word for the life of `worker_loop` and
/// clears it on the way out, by return or by unwind. That is what makes a non-null worker
/// word a valid pointer (see [`WorkerHandle::with_current`]): the guard borrows the handle,
/// so it cannot outlive it.
struct CurrentWorker<'a>(PhantomData<&'a WorkerHandle>);

impl<'a> CurrentWorker<'a> {
    fn enter(worker: &'a WorkerHandle) -> Self {
        CURRENT_WORKER.set(worker);
        CurrentWorker(PhantomData)
    }
}

impl Drop for CurrentWorker<'_> {
    fn drop(&mut self) {
        CURRENT_WORKER.set(ptr::null());
    }
}

/// The worker's thread. Owns the handle: the thread's worker word points into this frame
/// for exactly as long as the scheduling loop runs.
///
/// Every job catches its own unwind (`spawn`'s `HeapJob`, `StackJob`, `scope`, the
/// service's root wrapper), so an unwind out of `sweep` can only come from the scheduler
/// itself — from `find_job` mid-claim, say — and may have left a deque's invariants broken.
/// Running on could then lose a job or run one twice, so the process aborts instead.
fn worker_loop(handle: WorkerHandle) {
    let _current = CurrentWorker::enter(&handle);
    if panic::catch_unwind(AssertUnwindSafe(|| sweep(&handle))).is_err() {
        eprintln!("rws-runtime: worker {} unwound out of its scheduling loop", handle.index);
        std::process::abort();
    }
}

fn sweep(handle: &WorkerHandle) {
    let mut idle = 0u32;
    loop {
        if let Some(job) = handle.find_job(idle == 0) {
            idle = 0;
            handle.run_job(job);
            continue;
        }
        if handle.shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let shared = &handle.shared;
        handle.idle_step(&mut idle, || {
            shared.shutdown.load(Ordering::Acquire) || shared.has_visible_work()
        });
    }
}

/// Configuration builder for [`ThreadPool`].
#[derive(Clone, Debug)]
pub struct ThreadPoolBuilder {
    threads: usize,
    trace: Option<usize>,
}

impl Default for ThreadPoolBuilder {
    fn default() -> Self {
        ThreadPoolBuilder { threads: num_threads_default(), trace: None }
    }
}

fn num_threads_default() -> usize {
    thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

impl ThreadPoolBuilder {
    /// Start building a pool.
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// Number of worker threads.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enable the flight recorder with `capacity` event slots per lane (rounded up to a
    /// power of two, minimum 8). Default off: without this call every trace hook in the
    /// scheduler is one never-taken branch. See [`rws_trace`] for the event model.
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace = Some(capacity);
        self
    }

    /// Build and start the pool.
    pub fn build(self) -> ThreadPool {
        ThreadPool::with_config(self.threads, self.trace)
    }
}

/// A randomized work-stealing thread pool.
pub struct ThreadPool {
    shared: Arc<Shared>,
    /// One per worker, joined by `stop`.
    handles: Vec<thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// A pool with `threads` workers.
    pub fn new(threads: usize) -> Self {
        Self::with_config(threads, None)
    }

    fn with_config(threads: usize, trace: Option<usize>) -> Self {
        let shared = Arc::new(Shared::new(threads.max(1), trace));
        let handles = (0..shared.workers)
            .map(|index| {
                let handle = WorkerHandle::new(index, Arc::clone(&shared));
                thread::Builder::new()
                    .name(format!("rws-worker-{index}"))
                    .spawn(move || worker_loop(handle))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        ThreadPool { shared, handles }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.shared.workers
    }

    /// Pool statistics (steals, jobs, retries, parks).
    pub fn stats(&self) -> &PoolStats {
        &self.shared.stats
    }

    /// The pool's flight recorder, if [`ThreadPoolBuilder::trace`] enabled one.
    pub fn trace_recorder(&self) -> Option<Arc<TraceRecorder>> {
        self.shared.trace.clone()
    }

    /// Drain and merge the flight recorder's rings into a time-ordered snapshot.
    /// `None` when tracing is off. Non-destructive for concurrent writers: recording
    /// continues while (and after) the snapshot is taken.
    pub fn trace_snapshot(&self) -> Option<TraceSnapshot> {
        self.shared.trace.as_ref().map(|t| t.snapshot())
    }

    /// Number of workers currently parked (an instantaneous, racy reading — useful for
    /// verifying that an idle pool actually sleeps instead of spinning).
    pub fn parked_workers(&self) -> usize {
        self.shared.sleep.0.waiters()
    }

    /// Wake-ups the pool has issued to parked workers so far (an instantaneous reading of
    /// the epoch of the event count they park on) — useful for verifying that publishing
    /// work to a pool whose workers are all awake wakes nobody: every event is a lock and
    /// a `futex` call on the publisher's side.
    pub fn wake_events(&self) -> u64 {
        self.shared.sleep.0.events()
    }

    /// Submit a fire-and-forget job.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.shared.inject(Job::heap(job));
    }

    /// Run `f` on a worker thread and block until it returns. Calls to [`join`] inside `f`
    /// use the pool's work-stealing deques.
    ///
    /// When called from inside one of this pool's own workers, `f` runs inline — queuing it
    /// and blocking on the result would deadlock a single-worker pool (the blocked worker is
    /// the only one that could run the job) and waste a worker on any pool.
    ///
    /// If `f` panics, the panic is resumed here with its **original payload** (as if `f`
    /// had run on this thread); use [`ThreadPool::try_install`] to have it as a value.
    pub fn install<R, F>(&self, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        self.try_install(f).unwrap_or_else(|payload| panic::resume_unwind(payload))
    }

    /// [`ThreadPool::install`] returning a panicking closure's original payload as `Err`.
    pub fn try_install<R, F>(&self, f: F) -> thread::Result<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let on_this_pool =
            WorkerHandle::with_current(|w| w.is_some_and(|h| Arc::ptr_eq(&h.shared, &self.shared)));
        if on_this_pool {
            return panic::catch_unwind(AssertUnwindSafe(f));
        }
        // The same hand-off as a stolen `join` branch. A worker runs every job it takes, so
        // the latch is always set, by the run that writes the outcome. No token: an install
        // runs under none, wherever it was called from.
        let job = StackJob::new(f, &self.shared.installers, ForkToken::none());
        // SAFETY: `job` outlives its queue entry: this frame is not left before the latch is
        // set.
        self.shared.inject(unsafe { job.as_job(JobKind::InjectedRoot) });
        while !job.latch().probe() {
            // The run's `Latch::set` wakes this wait.
            self.shared.installers.wait_unless(None, || job.latch().probe());
        }
        match job.into_result() {
            JoinResult::Ok(r) => Ok(r),
            JoinResult::Panic(payload) => Err(payload),
            JoinResult::Pending => unreachable!("latch set without a result"),
        }
    }

    /// Shut the workers down and join them. They run what is still queued first, so once
    /// this returns every queued job has run and been counted. Idempotent: a second call
    /// joins nothing.
    pub(crate) fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.sleep.0.wake_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Fork-join: run `a` and `b`, potentially in parallel, returning both results.
///
/// Must be called from inside a pool worker (e.g. within [`ThreadPool::install`]); when
/// called from an ordinary thread the two closures simply run sequentially.
///
/// The fast path is allocation-free: the right branch lives in this stack frame and is
/// queued by pointer; if no thief takes it, the owner pops it straight back and runs it
/// inline. If a branch panics, the panic is rethrown on the caller's thread *after* both
/// branches have been resolved (so no stack job is ever left dangling); when both panic,
/// the left branch's payload wins.
pub fn join<RA, RB, A, B>(a: A, b: B) -> (RA, RB)
where
    RA: Send,
    RB: Send,
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
{
    // Cooperative cancellation point: every fork observes the current job's token (one
    // load and a null test when no service-mode token is installed), which is what makes
    // deadlines bite at `join`/`scope`/`par_chunks_mut` grain boundaries. The same word is what
    // the right branch inherits if a thief runs it.
    let token = cancel::fork_point();
    WorkerHandle::with_current(|worker| match worker {
        Some(worker) => join_on_worker(worker, token, a, b),
        // Not on a pool thread: degrade gracefully to sequential execution.
        None => (a(), b()),
    })
}

fn join_on_worker<RA, RB, A, B>(worker: &WorkerHandle, token: ForkToken, a: A, b: B) -> (RA, RB)
where
    RA: Send,
    RB: Send,
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
{
    // `join` already ran its cancellation probe; surface it in the trace so cancellation
    // latency (deadline set → branch observes it) is measurable from a recording alone.
    if let Some(t) = worker.shared.trace() {
        t.record(worker.index, EventKind::CancelCheck, 0, 0);
    }
    // The right branch lives in this frame; the queue holds only a pointer to it. We must
    // not leave this function until the job is out of the queue (reclaimed below) or
    // executed (latch set) — both paths below guarantee that before returning or unwinding.
    let job_b = StackJob::new(b, &worker.shared.sleep.0, token);
    // SAFETY: see above; `id` is the witness that tells our own job from any other.
    let job = unsafe { job_b.as_job(JobKind::JoinBranch) };
    let id = job.id();
    worker.push_local(job);

    // Run the left branch, capturing a panic so an unwind cannot tear down this frame while
    // `job_b`'s reference is still out there.
    let result_a = panic::catch_unwind(AssertUnwindSafe(a));

    // Resolve the right branch.
    let result_b: JoinResult<RB> = loop {
        if job_b.latch().probe() {
            // A thief ran it to completion already.
            break job_b.into_result();
        }
        match worker.pop_local() {
            Some(job) if job.id() == id => {
                // Fast path: nobody stole it — the job is exclusively ours again. `job` is
                // just the two words pointing at `job_b`; dropping it here is inert.
                match result_a {
                    Ok(ra) => {
                        // Still a unit of fork-join work: count it (a plain load and store
                        // on this worker's own padded line — it is the counter's only
                        // writer) so job counts mean "branches executed" regardless of
                        // whether the branch was stolen.
                        worker.shared.stats.record_job(worker.index);
                        if let Some(t) = worker.shared.trace() {
                            t.record(
                                worker.index,
                                EventKind::JobStart,
                                JobKind::JoinBranch as u8,
                                0,
                            );
                        }
                        let rb = unsafe { job_b.run_inline() };
                        if let Some(t) = worker.shared.trace() {
                            t.record(worker.index, EventKind::JobEnd, JobKind::JoinBranch as u8, 0);
                        }
                        return (ra, rb);
                    }
                    Err(payload) => {
                        // The left branch panicked; skip the unexecuted right branch.
                        unsafe { job_b.abandon() };
                        panic::resume_unwind(payload);
                    }
                }
            }
            Some(job) => {
                // With strictly nested joins the top of our deque is always our own job (or
                // empty); tolerate foreign jobs anyway by just running them.
                worker.run_job(job);
            }
            None => {
                // Stolen and in flight: help run other work until the thief finishes.
                worker.wait_for_latch(job_b.latch());
                break job_b.into_result();
            }
        }
    };

    let ra = match result_a {
        Ok(ra) => ra,
        Err(payload) => panic::resume_unwind(payload),
    };
    let rb = match result_b {
        JoinResult::Ok(rb) => rb,
        JoinResult::Panic(payload) => panic::resume_unwind(payload),
        JoinResult::Pending => unreachable!("latch set without a result"),
    };
    (ra, rb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watchdog;
    use std::mem::{offset_of, size_of};
    use std::sync::atomic::{AtomicU64, AtomicU8};
    use std::time::{Duration, Instant};

    fn parallel_sum(pool_threads: usize, n: u64) -> u64 {
        let pool = ThreadPoolBuilder::new().threads(pool_threads).build();
        pool.install(move || recursive_sum(0, n))
    }

    fn recursive_sum(lo: u64, hi: u64) -> u64 {
        if hi - lo <= 1024 {
            return (lo..hi).sum();
        }
        let mid = lo + (hi - lo) / 2;
        let (a, b) = join(move || recursive_sum(lo, mid), move || recursive_sum(mid, hi));
        a + b
    }

    #[test]
    fn recursive_sum_is_correct_on_crossbeam_backend() {
        let n = 200_000u64;
        assert_eq!(parallel_sum(4, n), n * (n - 1) / 2);
    }

    #[test]
    fn single_thread_pool_works() {
        let n = 50_000u64;
        assert_eq!(parallel_sum(1, n), n * (n - 1) / 2);
    }

    #[test]
    fn join_outside_pool_runs_sequentially() {
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn join_borrows_caller_data_without_static_bounds() {
        // The stack-job design admits rayon-style borrowing closures.
        let pool = ThreadPool::new(2);
        let data: Vec<u64> = (0..10_000).collect();
        let total = pool.install(move || {
            fn sum(slice: &[u64]) -> u64 {
                if slice.len() <= 256 {
                    return slice.iter().sum();
                }
                let (l, r) = slice.split_at(slice.len() / 2);
                let (a, b) = join(|| sum(l), || sum(r));
                a + b
            }
            sum(&data)
        });
        assert_eq!(total, 10_000 * 9_999 / 2);
    }

    #[test]
    fn spawn_runs_jobs() {
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.spawn(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        // install() after the spawns acts as a barrier-ish check: it must complete, and by
        // the time everything is processed the counter reaches 100.
        let _ = pool.install(|| 0u64);
        while counter.load(Ordering::Relaxed) < 100 {
            thread::yield_now();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn steals_happen_under_parallel_recursion() {
        let pool = ThreadPoolBuilder::new().threads(4).build();
        let n = 2_000_000u64;
        let total = pool.install(move || recursive_sum(0, n));
        assert_eq!(total, n * (n - 1) / 2);
        assert!(pool.stats().snapshot().total_jobs() > 0);
    }

    #[test]
    fn batch_steal_counters_stay_consistent() {
        let pool = ThreadPoolBuilder::new().threads(4).build();
        let n = 1_000_000u64;
        let total = pool.install(move || recursive_sum(0, n));
        assert_eq!(total, n * (n - 1) / 2);
        let stats = pool.stats().snapshot();
        // A steal moves exactly one task, so all three views agree.
        let jobs_stolen: u64 = stats.workers.iter().map(|w| w.jobs_stolen).sum();
        assert_eq!(jobs_stolen, stats.total_steals());
        assert_eq!(stats.total_batch_steals(), stats.total_steals());
    }

    thread_local! {
        /// The model jobs this thread ran, in order.
        static RAN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    /// A job that counts its runs in `runs[id]` and appends `id` to its thread's `RAN`.
    fn model_job(id: usize, runs: &Arc<Vec<AtomicU8>>) -> Job {
        let runs = Arc::clone(runs);
        Job::heap(move || {
            runs[id].fetch_add(1, Ordering::Relaxed);
            RAN.with(|r| r.borrow_mut().push(id));
        })
    }

    /// The owner's side of `stress.rs`'s `VecDeque` differential, ported to the private
    /// deque: one owner pushes and pops at random (through `push_local`, `pop_local` and
    /// `find_job`, as `join` and the wait loops do) while the other workers run the real
    /// thief path (`find_job`) against it. The owner always runs its newest job, each thief
    /// receives the owner's jobs oldest first, every job runs once, and every steal moves
    /// one task.
    #[test]
    fn the_private_deque_matches_a_vecdeque_model_under_concurrent_thieves() {
        const JOBS: usize = 20_000;
        for (workers, seed) in [(2, 1u64), (2, 42), (4, 0xC0FFEE)] {
            let shared = Arc::new(Shared::new(workers, None));
            let runs: Arc<Vec<AtomicU8>> = Arc::new((0..JOBS).map(|_| AtomicU8::new(0)).collect());
            let done = AtomicBool::new(false);
            // Every thief is running before the owner pushes its first job.
            let started = std::sync::Barrier::new(workers);
            let stolen: Vec<Vec<usize>> = thread::scope(|scope| {
                let thieves: Vec<_> = (1..workers)
                    .map(|index| {
                        let (shared, done, started) = (Arc::clone(&shared), &done, &started);
                        scope.spawn(move || {
                            let thief = WorkerHandle::new(index, shared);
                            started.wait();
                            while !done.load(Ordering::Acquire) {
                                match thief.find_job(true) {
                                    Some(job) => assert!(!job.execute()),
                                    None => thread::yield_now(),
                                }
                            }
                            RAN.with(|r| r.take())
                        })
                    })
                    .collect();
                /// Stops the thieves when the owner is done, or fails.
                struct Stop<'a>(&'a AtomicBool);
                impl Drop for Stop<'_> {
                    fn drop(&mut self) {
                        self.0.store(true, Ordering::Release);
                    }
                }
                let stop = Stop(&done);
                let owner = WorkerHandle::new(0, Arc::clone(&shared));
                started.wait();
                // The owner's jobs not yet run by the owner, oldest first. A thief only ever
                // takes the front, so the back is the owner's newest unless none is left.
                let mut model = VecDeque::new();
                let run_newest = |job: Option<Job>, model: &mut VecDeque<usize>| match job {
                    Some(job) => {
                        assert!(!job.execute());
                        let id = RAN.with(|r| r.borrow_mut().pop()).expect("the job ran here");
                        assert_eq!(Some(id), model.pop_back(), "the owner runs its newest job");
                    }
                    // Every job still in the model went to a thief.
                    None => model.clear(),
                };
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut next = 0;
                while next < JOBS {
                    for _ in 0..(1 + rng.gen_range(0..16usize)).min(JOBS - next) {
                        owner.push_local(model_job(next, &runs));
                        model.push_back(next);
                        next += 1;
                    }
                    // Leave the first offer out until a thief has it, so no round passes
                    // without a steal however the threads are scheduled.
                    while shared.stats.snapshot().total_steals() == 0 {
                        thread::yield_now();
                    }
                    for _ in 0..rng.gen_range(0..8) {
                        let job = if rng.gen_range(0..4) == 0 {
                            owner.find_job(true)
                        } else {
                            owner.pop_local()
                        };
                        run_newest(job, &mut model);
                    }
                }
                while !model.is_empty() {
                    run_newest(owner.find_job(true), &mut model);
                }
                // An offer a thief claimed is run before that thief looks at `done` again.
                drop(stop);
                thieves.into_iter().map(|t| t.join().expect("a thief failed")).collect()
            });
            for (thief, ids) in stolen.iter().enumerate() {
                assert!(
                    ids.windows(2).all(|w| w[0] < w[1]),
                    "thief {thief} received a job younger than a later one (seed {seed})"
                );
            }
            for (id, r) in runs.iter().enumerate() {
                assert_eq!(r.load(Ordering::Relaxed), 1, "job {id} (seed {seed})");
            }
            let stats = shared.stats.snapshot();
            let moved: u64 = stolen.iter().map(|ids| ids.len() as u64).sum();
            assert!(moved > 0, "no job was stolen (seed {seed})");
            let jobs_stolen: u64 = stats.workers.iter().map(|w| w.jobs_stolen).sum();
            assert_eq!(stats.total_steals(), moved, "one steal, one task");
            assert_eq!(stats.total_batch_steals(), moved);
            assert_eq!(jobs_stolen, moved);
        }
    }

    /// The paper's object, in the pool's own hot words: a line two processors write. Each
    /// steal cell (its state word: written by its owner and by thieves; its slot: written by
    /// its owner and by the thief taking the job) fills a line of its own, and the event
    /// count every offer reads is alone on the first line of `Shared`.
    #[test]
    fn steal_cells_and_the_sleep_word_each_sit_alone_on_their_lines() {
        let line = |addr: usize| addr / 64;
        let shared = Arc::new(Shared::new(4, None));
        assert_eq!(Arc::as_ptr(&shared) as usize % 64, 0, "`Shared` starts a line");
        assert_eq!(offset_of!(Shared, sleep), 0);
        assert_eq!(size_of::<CachePadded<EventCount>>(), 64);
        for (field, offset) in [
            ("injector", offset_of!(Shared, injector)),
            ("cells", offset_of!(Shared, cells)),
            ("stats", offset_of!(Shared, stats)),
            ("shutdown", offset_of!(Shared, shutdown)),
            ("workers", offset_of!(Shared, workers)),
            ("trace", offset_of!(Shared, trace)),
            ("installers", offset_of!(Shared, installers)),
        ] {
            assert!(offset >= 64, "`{field}` shares the sleep word's line");
        }
        for (i, cell) in shared.cells.iter().enumerate() {
            let start = cell as *const CachePadded<StealCell> as usize;
            assert_eq!(start % 64, 0, "cell {i} starts a line");
            assert_eq!(size_of::<CachePadded<StealCell>>(), 64, "a cell fills one line");
            let [state, slot] = cell.0.spans();
            assert_eq!((line(state.0), line(state.1 - 1)), (line(start), line(start)));
            assert_eq!((line(slot.0), line(slot.1 - 1)), (line(start), line(start)));
            for (j, other) in shared.cells.iter().enumerate().filter(|&(j, _)| j != i) {
                for (lo, hi) in other.0.spans() {
                    assert!(
                        line(hi - 1) < line(state.0) || line(lo) > line(state.0),
                        "worker {j}'s cell shares worker {i}'s state line"
                    );
                }
            }
        }
    }

    #[test]
    fn nested_install_on_the_same_pool_runs_inline_instead_of_deadlocking() {
        // Regression test: install-from-a-worker used to queue the job and block that worker
        // on the result — on a 1-thread pool the only worker that could run it.
        let pool = Arc::new(ThreadPool::new(1));
        let inner = Arc::clone(&pool);
        let out = pool.install(move || inner.install(|| 40) + 2);
        assert_eq!(out, 42);
    }

    #[test]
    fn install_from_another_pools_worker_still_works() {
        let a = Arc::new(ThreadPool::new(1));
        let b = Arc::new(ThreadPool::new(1));
        let b2 = Arc::clone(&b);
        let out = a.install(move || b2.install(|| 7) * 6);
        assert_eq!(out, 42);
    }

    #[test]
    fn idle_workers_park_instead_of_spinning() {
        let pool = ThreadPool::new(3);
        // Give the freshly started workers time to run out of work and park.
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.parked_workers() < 3 {
            assert!(Instant::now() < deadline, "idle workers never parked");
            thread::sleep(Duration::from_millis(5));
        }
        // And parked workers still wake up for new work.
        assert_eq!(pool.install(|| 21 * 2), 42);
    }

    /// Runs `round` `ROUNDS` times on a 2-worker pool: `round` forks work the other worker
    /// steals and finishes only once the owner has parked, so only the completion's own
    /// wake can end that park. Without it the owner sleeps for good, and the watchdog fails.
    fn parked_owners_are_woken(
        what: &'static str,
        round: impl Fn(&ThreadPool) + Send + Sync + 'static,
    ) {
        const ROUNDS: usize = 40;
        watchdog::within(watchdog::LIMIT, what, move || {
            let pool = Arc::new(ThreadPool::new(2));
            let p = Arc::clone(&pool);
            pool.install(move || (0..ROUNDS).for_each(|_| round(&p)));
        });
    }

    /// Hold the calling worker until `stolen`, then return.
    fn until(stolen: &AtomicBool) {
        while !stolen.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
    }

    /// Return once `events` has a waiter and 100 µs more have passed: long enough for that
    /// waiter to be past its last look and asleep.
    fn after_a_waiter_sleeps_on(events: &EventCount) {
        while events.waiters() == 0 {
            thread::yield_now();
        }
        let registered = Instant::now();
        while registered.elapsed() < Duration::from_micros(100) {
            std::hint::spin_loop();
        }
    }

    /// The thief's half: announce the steal, finish once the owner has parked.
    fn finish_after_the_owner_parks(pool: &ThreadPool, stolen: &AtomicBool) {
        stolen.store(true, Ordering::Release);
        after_a_waiter_sleeps_on(&pool.shared.sleep.0);
    }

    #[test]
    fn a_parked_owner_is_woken_by_its_stolen_branch() {
        parked_owners_are_woken("the stolen branch's `Latch::set`", |pool| {
            let stolen = AtomicBool::new(false);
            join(|| until(&stolen), || finish_after_the_owner_parks(pool, &stolen));
        });
    }

    #[test]
    fn a_parked_scope_owner_is_woken_by_its_last_spawn() {
        parked_owners_are_woken("the last spawn's `CountLatch::set_one`", |pool| {
            let stolen = AtomicBool::new(false);
            crate::scope(|s| {
                s.spawn(|_| finish_after_the_owner_parks(pool, &stolen));
                until(&stolen);
            });
        });
    }

    #[test]
    fn an_installer_is_woken_by_its_closure() {
        // The closure returns only once its installer is asleep: were the wake missing,
        // the installer would sleep for good.
        const ROUNDS: usize = 20;
        watchdog::within(watchdog::LIMIT, "the installed closure's `Latch::set`", || {
            let pool = ThreadPool::new(1);
            for _ in 0..ROUNDS {
                let shared = Arc::clone(&pool.shared);
                pool.install(move || after_a_waiter_sleeps_on(&shared.installers));
            }
        });
    }

    #[test]
    fn panic_in_left_branch_propagates_after_right_resolves() {
        let pool = ThreadPool::new(2);
        let ran_b = Arc::new(AtomicU64::new(0));
        let ran_b2 = Arc::clone(&ran_b);
        let result = pool.install(move || {
            panic::catch_unwind(AssertUnwindSafe(|| {
                join(
                    || panic!("left goes down"),
                    move || {
                        ran_b2.fetch_add(1, Ordering::Relaxed);
                    },
                )
            }))
            .is_err()
        });
        assert!(result, "the panic must surface on the joining thread");
        // Whether b ran (stolen) or was abandoned (reclaimed) is timing-dependent; the pool
        // must simply survive and stay usable.
        assert_eq!(pool.install(|| 5), 5);
    }

    #[test]
    fn panicking_spawned_job_does_not_kill_workers() {
        // Regression test: a heap job's execute must not let its panic unwind the worker
        // (or a join frame the worker is helping from — that would be a use-after-free of
        // the frame's StackJob).
        let pool = ThreadPool::new(1);
        for _ in 0..5 {
            pool.spawn(|| panic!("fire-and-forget failure"));
        }
        // The single worker must survive all five panics and still serve installs.
        assert_eq!(pool.install(|| 6 * 7), 42);
    }

    #[test]
    fn panicking_install_surfaces_at_the_caller() {
        let pool = ThreadPool::new(2);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| -> u64 { panic!("installed closure fails") })
        }));
        assert!(outcome.is_err(), "the caller must observe the panic");
        assert_eq!(pool.install(|| 5), 5, "the pool stays usable afterwards");
    }

    #[test]
    fn panic_in_right_branch_propagates() {
        let pool = ThreadPool::new(2);
        let result = pool.install(|| {
            panic::catch_unwind(AssertUnwindSafe(|| {
                join(|| 1 + 1, || -> u64 { panic!("right goes down") })
            }))
            .is_err()
        });
        assert!(result);
        assert_eq!(pool.install(|| 5), 5);
    }
}
