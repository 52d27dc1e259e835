//! The native randomized work-stealing thread pool and its fork-join `join` primitive.
//!
//! Workers follow the paper's discipline: each has a private deque; new tasks go to the
//! bottom; an idle worker first drains the global injector, then repeatedly picks a victim
//! uniformly at random and steals from the *top* of its deque. [`join`] implements fork-join
//! on top of this with an **allocation-free fast path**: the right branch is a
//! `StackJob` (see `job.rs`) in the caller's own stack frame, pushed into the deque as a
//! two-word reference. When nobody steals it the owner pops it straight back and runs it
//! inline — no `Box`, no `Arc`, no lock and no locked read-modify-write: the
//! fork reads the thread's worker word and its cancellation word, pushes, pops (whose
//! `SeqCst` fence is the path's one serializing instruction), reads the job's latch once
//! (one acquire load that finds it unset; nothing ever sets or waits on it) and bumps its
//! own job counter with a plain store. `docs/ARCHITECTURE.md` ("What an unstolen fork
//! costs") has the budget and the tests that pin it. Only when a thief takes the branch
//! does the owner wait on the job's atomic latch, helping execute other jobs in the meantime
//! (a blocked join never idles a core) and parking on the pool's `EventCount` (see
//! `sleep.rs`) when there is nothing to help with.

// The unsafe here is confined to the stack-job handoff (see `job.rs` for the invariants);
// everything else in the pool is safe code over the lock-free deques.
#![allow(unsafe_code)]

use crate::cancel::{self, ForkToken};
use crate::faults::{FaultPlan, WorkerFault};
use crate::job::{Job, JoinResult, Latch, StackJob};
use crate::sleep::{EventCount, BACKOFF, PARK_BACKSTOP};
use crate::stats::PoolStats;
use crossbeam_deque::{Injector, Steal, Stealer, Worker};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use rws_trace::{
    EventKind, JobKind, TraceRecorder, TraceSnapshot, INJECTOR_ARG, LADDER_STAGE_PARK,
};
use std::any::Any;
use std::cell::{Cell, RefCell, UnsafeCell};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

/// Consecutive `Steal::Retry` results tolerated per victim before trying another.
const STEAL_RETRIES: u32 = 4;

pub(crate) struct Shared {
    injector: Injector<Job>,
    /// Behind `RwLock` so the supervisor can swap in a respawned worker's fresh stealer;
    /// steal-path readers share the lock and only ever contend during a respawn.
    stealers: Vec<RwLock<Stealer<Job>>>,
    stats: PoolStats,
    /// Where idle workers park, and owners of stolen branches and scopes wait.
    pub(crate) sleep: EventCount,
    shutdown: AtomicBool,
    workers: usize,
    /// Liveness flag per worker: lowered by the worker's own [`AliveGuard`] when its
    /// thread exits for any reason (injected death, panic escaping the loop, shutdown).
    /// A supervisor distinguishes shutdown from death by checking `shutdown` first.
    alive: Vec<AtomicBool>,
    /// Optional compiled-in fault schedule (default off; see [`crate::faults`]).
    faults: Option<Arc<FaultPlan>>,
    /// Optional flight recorder (default off; see [`rws_trace`]). Every hook site below
    /// pays one never-taken branch when this is `None`.
    trace: Option<Arc<TraceRecorder>>,
    /// Where threads wait on supervision events (deaths, respawns, panics, heartbeats):
    /// [`ThreadPool::wait_health`]. Free while nobody waits.
    health: EventCount,
    /// Where threads outside the pool wait for the closure they installed.
    installers: EventCount,
}

impl Shared {
    /// Push a job into the global injector and wake one parked worker, if there is one —
    /// the submission path for work arriving from outside a worker of this pool (`spawn`,
    /// cross-thread `install`, and scoped spawns issued off-pool).
    ///
    /// Publish, full fence, look ([`EventCount::wake_one`]): `Injector::push` advances
    /// `tail` with a `SeqCst` `fetch_add` before it writes the slot, and a worker about to
    /// park fences between registering as a sleeper and its last `has_visible_work`. So
    /// either this thread sees the sleeper and wakes it, or the sleeper sees `tail` moved
    /// (a claimed-but-unwritten slot already reads "not empty") and does not park: a job
    /// submitted to an idle pool never waits out the 1 ms park backstop
    /// (`tests/submit_latency.rs`), and one submitted to a busy pool makes no system call
    /// (`tests/service_wakes.rs`). One job needs one worker; if it forks, its pushes wake
    /// the others like any fork's.
    pub(crate) fn inject(&self, job: Job) {
        self.injector.push(job);
        self.sleep.wake_one();
    }

    /// Whether any queue visibly holds work (the pre-park check, made after the sleeper's
    /// fence: a job injected by a thread that then saw no sleeper is visible here; a fork's
    /// push into a deque may be missed, which the sleep protocol's backstop covers).
    fn has_visible_work(&self) -> bool {
        if !self.injector.is_empty() {
            return true;
        }
        self.stealers.iter().any(|s| !s.read().unwrap_or_else(|e| e.into_inner()).is_empty())
    }

    /// The pool's statistics (service-layer access path).
    pub(crate) fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// The attached flight recorder, if tracing was enabled at build time.
    pub(crate) fn trace(&self) -> Option<&TraceRecorder> {
        self.trace.as_deref()
    }

    /// Where supervision waiters sleep (service-layer access path).
    pub(crate) fn health(&self) -> &EventCount {
        &self.health
    }
}

pub(crate) struct WorkerHandle {
    index: usize,
    pub(crate) shared: Arc<Shared>,
    local: Worker<Job>,
    rng: RefCell<SmallRng>,
}

thread_local! {
    /// The calling thread's worker: null on every thread that is not inside `worker_loop`.
    /// One word, `const`-initialised and without a destructor, so reading it is a plain
    /// thread-local load — no lazy-registration check, no borrow flag, no reference count.
    /// Written only by [`AliveGuard`] (set on entry to `worker_loop`, cleared on every exit).
    static CURRENT_WORKER: Cell<*const WorkerHandle> = const { Cell::new(ptr::null()) };
}

/// Number of workers in the pool the calling thread belongs to, or 1 when the caller is not
/// a pool worker (where fork-join primitives degrade to sequential execution). This is what
/// drives the parallel iterators' adaptive grain.
pub fn current_num_threads() -> usize {
    WorkerHandle::with_current(|w| w.map_or(1, |h| h.shared.workers))
}

impl WorkerHandle {
    /// Run `f` with the calling thread's worker handle, when it is a pool worker. This is
    /// the one place the thread's worker word is read: `join`, `scope`, `Scope::spawn`,
    /// `try_install`'s on-this-pool test and the service layer all come through here.
    #[inline]
    pub(crate) fn with_current<R>(f: impl FnOnce(Option<&WorkerHandle>) -> R) -> R {
        let worker = CURRENT_WORKER.get();
        // SAFETY: a non-null slot points at the `WorkerHandle` owned by this thread's
        // `worker_loop` frame. The `AliveGuard` in that frame sets the slot after the handle
        // exists and clears it before the handle is dropped, on every exit path (return,
        // shutdown break, unwind), and nothing runs on a worker thread outside
        // `worker_loop` — so whoever reads a non-null slot is running beneath that frame,
        // and so is `f`, which cannot keep the reference past its own return.
        f(unsafe { worker.as_ref() })
    }

    /// This worker's index in the pool (service-layer access path for per-worker stats).
    pub(crate) fn index(&self) -> usize {
        self.index
    }

    /// Kept out of line, like [`WorkerHandle::pop_local`]: one compact function with the
    /// deque operation inlined into it, called from every `join` instance. Left to itself
    /// LLVM folds both into `join`, and that shape measures two ways on `forkjoin-fine` —
    /// a fifth faster than this one for minutes at a time, a few percent slower for others
    /// — while this one reads the same every run (`docs/ARCHITECTURE.md`, "What an
    /// unstolen fork costs").
    #[inline(never)]
    pub(crate) fn push_local(&self, job: Job) {
        self.local.push(job);
        // One relaxed load when the pool is busy; a real wakeup only if somebody parked.
        self.shared.sleep.notify();
    }

    #[inline(never)]
    fn pop_local(&self) -> Option<Job> {
        self.local.pop()
    }

    /// One batch-steal visit to `victim`: up to half its queue (capped at the deque's
    /// `MAX_BATCH`) moves in a single visit. The oldest job — in recursive computations
    /// the largest, the one the paper's discipline says a thief should run — comes back
    /// directly; the rest land in this worker's own deque, where they are locally
    /// poppable *and* still stealable by everyone else. Returns the popped job and the
    /// total number of jobs moved.
    fn steal_from(&self, victim: usize) -> Steal<(Job, u64)> {
        let stealer = self.shared.stealers[victim].read().unwrap_or_else(|e| e.into_inner());
        match stealer.steal_batch_and_pop_counted(&self.local) {
            Steal::Success((job, k)) => Steal::Success((job, k as u64)),
            Steal::Empty => Steal::Empty,
            Steal::Retry => Steal::Retry,
        }
    }

    /// Find one job: local deque first, then the injector, then a bounded number of random
    /// steal attempts (with a short per-victim retry budget for lost CAS races). A
    /// successful steal is a *batch* (see [`WorkerHandle::steal_from`]): the surplus goes
    /// into our own deque and a sleeper is woken to come and take some of it.
    ///
    /// `record_failures` gates the failed-steal/retry accounting: the first sweep of an
    /// activity burst records (that is the paper's "active processor probed and missed"),
    /// while the subsequent spin rounds and the 1ms park-backstop rechecks do not — an
    /// idle pool would otherwise inflate `failed_steals` by thousands per second of pure
    /// parking noise.
    fn find_job(&self, record_failures: bool) -> Option<Job> {
        if let Some(job) = self.pop_local() {
            return Some(job);
        }
        // The MPMC injector can answer `Retry` under consumer contention; give it the same
        // bounded courtesy the per-victim steal loop gets before moving on to stealing.
        let mut retries = 0;
        loop {
            match self.shared.injector.steal() {
                Steal::Success(job) => return Some(job),
                Steal::Empty => break,
                Steal::Retry => {
                    if record_failures {
                        self.shared.stats.record_retry(self.index);
                        if let Some(t) = self.shared.trace() {
                            t.record(self.index, EventKind::StealRetry, 0, INJECTOR_ARG);
                        }
                    }
                    retries += 1;
                    if retries >= STEAL_RETRIES {
                        break;
                    }
                    std::hint::spin_loop();
                }
            }
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
                let mut retries = 0;
                loop {
                    match self.steal_from(victim) {
                        Steal::Success((job, k)) => {
                            self.shared.stats.record_steal_batch(self.index, k);
                            if let Some(t) = self.shared.trace() {
                                t.record(
                                    self.index,
                                    EventKind::StealOk,
                                    k.min(u8::MAX as u64) as u8,
                                    victim as u64,
                                );
                            }
                            if k > 1 {
                                // Freshly stealable surplus sits in our deque now; one
                                // wake (the usual single relaxed load when nobody is
                                // parked) invites a thief over.
                                self.shared.sleep.notify();
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
                            break;
                        }
                        Steal::Retry => {
                            if record_failures {
                                self.shared.stats.record_retry(self.index);
                                if let Some(t) = self.shared.trace() {
                                    t.record(self.index, EventKind::StealRetry, 0, victim as u64);
                                }
                            }
                            retries += 1;
                            if retries >= STEAL_RETRIES {
                                break;
                            }
                            std::hint::spin_loop();
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
            // A heap job's panic was quarantined inside `execute`; health-track it against
            // this worker so a supervisor can tell a panic-storm from a healthy pool.
            self.shared.stats.record_panic_caught(self.index);
            self.shared.health.wake_all();
        }
        if let Some(t) = self.shared.trace() {
            t.record(self.index, EventKind::JobEnd, kind, 0);
        }
    }

    /// One step of the spin→yield→park idle protocol (the schedule is `sleep.rs`'s
    /// `BACKOFF`): the first rounds busy-spin an exponentially growing number of
    /// pause cycles between work-finding sweeps, the next rounds yield the OS slice, and
    /// past the budget the worker parks. `ready` is the wake condition re-checked before
    /// actually sleeping (see [`EventCount::wait_unless`]). After a meaningful wake
    /// (notification / work visible) the caller's next find sweep starts a fresh activity
    /// burst (`idle == 0`); after a backstop timeout the backoff budget stays spent, so
    /// the worker makes one quiet rescan and goes right back to sleep.
    fn idle_step(&self, idle: &mut u32, ready: impl FnMut() -> bool) {
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
            let notified = self.shared.sleep.wait_unless(PARK_BACKSTOP, ready);
            if !notified {
                // The 1ms backstop timer fired with no notification: count it so tests
                // (and profiles) can assert steady-state runs never lean on the backstop.
                self.shared.stats.record_backstop_wake(self.index);
            }
            if let Some(t) = self.shared.trace() {
                t.record(self.index, EventKind::Unpark, notified as u8, 0);
            }
            *idle = if notified { 0 } else { bk.rounds_before_park() };
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

/// Publishes the worker in its thread's worker word for the life of `worker_loop`, and on
/// the way out — by `return`, by shutdown `break`, or by an unwind escaping the loop —
/// clears the word and lowers the worker's alive flag. Running it on every exit path is what
/// makes the flag a truthful liveness signal for the supervisor, and what makes a non-null
/// worker word a valid pointer (see [`WorkerHandle::with_current`]): the guard borrows the
/// handle, so it cannot outlive it.
struct AliveGuard<'a>(&'a WorkerHandle);

impl<'a> AliveGuard<'a> {
    fn enter(worker: &'a WorkerHandle) -> Self {
        CURRENT_WORKER.set(worker);
        AliveGuard(worker)
    }
}

impl Drop for AliveGuard<'_> {
    fn drop(&mut self) {
        let AliveGuard(worker) = self;
        worker.shared.alive[worker.index].store(false, Ordering::Release);
        if let Some(t) = worker.shared.trace() {
            t.record(worker.index, EventKind::WorkerDead, 0, 0);
        }
        CURRENT_WORKER.set(ptr::null());
        // A dying worker may strand queued jobs in its deque; make sure somebody is awake
        // to notice the work (the supervisor's respawn sweep drains the rest).
        worker.shared.sleep.wake_one();
        worker.shared.health.wake_all();
    }
}

/// The worker's scheduling loop. Owns the handle: the thread's worker word points into this
/// frame for exactly as long as the frame lives.
fn worker_loop(handle: WorkerHandle) {
    let handle = &handle;
    let _alive = AliveGuard::enter(handle);
    let mut idle = 0u32;
    loop {
        // One heartbeat per scheduling sweep: a supervisor that sees the epoch frozen
        // while `alive` is down knows the thread exited (vs. being busy in one long job).
        handle.shared.stats.record_heartbeat(handle.index);
        handle.shared.health.wake_all();
        if let Some(plan) = &handle.shared.faults {
            match plan.poll_worker_sweep() {
                WorkerFault::None => {}
                WorkerFault::Stall(d) => thread::sleep(d),
                // Injected death: leave exactly like a crashed thread would — no drain, no
                // goodbye; the AliveGuard lowers the flag and the supervisor cleans up.
                WorkerFault::Die => return,
            }
        }
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
    faults: Option<Arc<FaultPlan>>,
    trace: Option<usize>,
}

impl Default for ThreadPoolBuilder {
    fn default() -> Self {
        ThreadPoolBuilder { threads: num_threads_default(), faults: None, trace: None }
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

    /// Install a fault-injection schedule (chaos testing; see [`crate::faults`]). Workers
    /// poll the plan once per scheduling sweep; without a plan the poll is a single
    /// never-taken branch.
    pub fn fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
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
        ThreadPool::with_config(self.threads, self.faults, self.trace)
    }
}

/// A randomized work-stealing thread pool.
pub struct ThreadPool {
    shared: Arc<Shared>,
    /// `Option` so the supervisor can `take()` a dead worker's handle to join it before
    /// installing a replacement; `Mutex` because respawns and `Drop` both touch the slots.
    handles: Mutex<Vec<Option<thread::JoinHandle<()>>>>,
}

/// What a [`ThreadPool::respawn_dead_workers`] sweep did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RespawnReport {
    /// Dead workers replaced with fresh threads.
    pub respawned: usize,
    /// Orphaned jobs drained from dead workers' deques back to the injector.
    pub drained_jobs: u64,
}

/// Start one worker thread for slot `index`. `local` is the worker end of the slot's
/// Chase–Lev deque; its matching stealer must already be published in
/// `shared.stealers[index]`.
fn spawn_worker(shared: &Arc<Shared>, index: usize, local: Worker<Job>) -> thread::JoinHandle<()> {
    let shared_for_worker = Arc::clone(shared);
    thread::Builder::new()
        .name(format!("rws-worker-{index}"))
        .spawn(move || {
            // The worker handle is built on its own thread: the crossbeam worker
            // end of the deque and the RNG are thread-local by design.
            worker_loop(WorkerHandle {
                index,
                shared: shared_for_worker,
                local,
                rng: RefCell::new(SmallRng::seed_from_u64(0x9E3779B9 + index as u64)),
            });
        })
        .expect("failed to spawn worker thread")
}

impl ThreadPool {
    /// A pool with `threads` workers.
    pub fn new(threads: usize) -> Self {
        Self::with_config(threads, None, None)
    }

    fn with_config(threads: usize, faults: Option<Arc<FaultPlan>>, trace: Option<usize>) -> Self {
        let threads = threads.max(1);
        let locals: Vec<Worker<Job>> = (0..threads).map(|_| Worker::new_lifo()).collect();
        let stealers: Vec<RwLock<Stealer<Job>>> =
            locals.iter().map(|w| RwLock::new(w.stealer())).collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            stats: PoolStats::new(threads),
            sleep: EventCount::default(),
            shutdown: AtomicBool::new(false),
            workers: threads,
            alive: (0..threads).map(|_| AtomicBool::new(true)).collect(),
            faults,
            trace: trace.map(|cap| TraceRecorder::new(threads, cap)),
            health: EventCount::default(),
            installers: EventCount::default(),
        });
        let handles = locals
            .into_iter()
            .enumerate()
            .map(|(index, local)| Some(spawn_worker(&shared, index, local)))
            .collect();
        ThreadPool { shared, handles: Mutex::new(handles) }
    }

    /// Whether worker `index`'s thread is currently running its loop.
    pub fn worker_alive(&self, index: usize) -> bool {
        self.shared.alive[index].load(Ordering::Acquire)
    }

    /// Number of workers whose threads have exited (excluding an in-progress shutdown,
    /// during which every worker legitimately exits).
    pub fn dead_workers(&self) -> usize {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return 0;
        }
        self.shared.alive.iter().filter(|a| !a.load(Ordering::Acquire)).count()
    }

    /// Supervision sweep: join every dead worker's thread, drain the orphaned jobs left in
    /// its deque back to the injector (so no accepted work is lost), and start a
    /// replacement thread in its slot. Safe to call from any thread; idempotent when
    /// nobody died. No-op during shutdown.
    pub fn respawn_dead_workers(&self) -> RespawnReport {
        let mut report = RespawnReport::default();
        if self.shared.shutdown.load(Ordering::Acquire) {
            return report;
        }
        // Holding the handle table for the whole sweep serializes concurrent supervisors:
        // only one of them drains and respawns any given slot.
        let mut handles = self.handles.lock().unwrap_or_else(|e| e.into_inner());
        for index in 0..self.shared.workers {
            if self.shared.alive[index].load(Ordering::Acquire) {
                continue;
            }
            // Join the dead thread first: afterwards nothing touches the old deque's
            // worker end, so the drain below sees every orphaned job.
            if let Some(h) = handles[index].take() {
                let _ = h.join();
            }
            // Fresh deque for the replacement; publish its stealer, then drain the dead
            // worker's old deque through the stealer we just unseated.
            let local = Worker::new_lifo();
            let old_stealer = std::mem::replace(
                &mut *self.shared.stealers[index].write().unwrap_or_else(|e| e.into_inner()),
                local.stealer(),
            );
            let mut drained = 0u64;
            loop {
                match old_stealer.steal() {
                    Steal::Success(job) => {
                        drained += 1;
                        self.shared.injector.push(job);
                    }
                    Steal::Empty => break,
                    Steal::Retry => std::hint::spin_loop(),
                }
            }
            if drained > 0 {
                self.shared.sleep.wake_all();
            }
            // Raise the flag before the thread exists so a concurrent sweep won't try to
            // respawn the same slot twice.
            self.shared.alive[index].store(true, Ordering::Release);
            handles[index] = Some(spawn_worker(&self.shared, index, local));
            if let Some(t) = self.shared.trace() {
                // The supervisor runs off-pool; the shared external lane takes the event.
                t.record_external(
                    EventKind::WorkerRespawn,
                    drained.min(u8::MAX as u64) as u8,
                    index as u64,
                );
            }
            self.shared.stats.record_respawn(drained);
            report.respawned += 1;
            report.drained_jobs += drained;
        }
        if report.respawned > 0 {
            self.shared.health.wake_all();
        }
        report
    }

    /// Block until `pred` holds, for at most `timeout`; returns whether it did. The
    /// predicate is re-evaluated on every supervision event — a worker death, a respawn,
    /// a quarantined panic, a heartbeat — instead of on a polling timer, so waits resolve
    /// the instant the event lands and cost nothing to the pool while nobody waits. This
    /// is the deterministic replacement for `sleep`-loop polling over [`ThreadPool::dead_workers`]
    /// / [`PoolStats`] in supervision tests and in the service shutdown path.
    pub fn wait_health(&self, mut pred: impl FnMut() -> bool, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if pred() {
                return true;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            self.shared.health.wait_unless(left, &mut pred);
        }
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
        self.shared.sleep.waiters()
    }

    /// Wake-ups the pool has issued to parked workers so far (an instantaneous reading of
    /// the epoch of the event count they park on) — useful for verifying that publishing
    /// work to a pool whose workers are all awake wakes nobody: every event is a lock and
    /// a `futex` call on the publisher's side.
    pub fn wake_events(&self) -> u64 {
        self.shared.sleep.events()
    }

    /// Submit a fire-and-forget job.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.shared.inject(Job::Heap(Box::new(job)));
    }

    /// Run `f` on a worker thread and block until it returns. Calls to [`join`] inside `f`
    /// use the pool's work-stealing deques.
    ///
    /// When called from inside one of this pool's own workers, `f` runs inline — queuing it
    /// and blocking on the result would deadlock a single-worker pool (the blocked worker is
    /// the only one that could run the job) and waste a worker on any pool.
    ///
    /// If `f` panics, the panic is resumed here with its **original payload** (as if `f`
    /// had run on this thread). If the worker executing `f` dies without delivering a
    /// result — an injected death or a crashed thread, never an ordinary closure panic —
    /// this panics with a message saying exactly that; use [`ThreadPool::try_install`] to
    /// handle either case as a value.
    pub fn install<R, F>(&self, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        match self.try_install(f) {
            Ok(r) => r,
            Err(InstallError::Panicked(payload)) => panic::resume_unwind(payload),
            Err(InstallError::Lost) => {
                panic!("worker died before delivering the installed closure's result")
            }
        }
    }

    /// [`ThreadPool::install`] with structured errors: a panicking closure comes back as
    /// [`InstallError::Panicked`] (carrying the original payload) and a worker that dies
    /// with the job in hand as [`InstallError::Lost`], instead of the two being conflated
    /// into one misleading secondary panic.
    pub fn try_install<R, F>(&self, f: F) -> Result<R, InstallError>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let on_this_pool =
            WorkerHandle::with_current(|w| w.is_some_and(|h| Arc::ptr_eq(&h.shared, &self.shared)));
        if on_this_pool {
            return panic::catch_unwind(AssertUnwindSafe(f)).map_err(InstallError::Panicked);
        }
        // The outcome comes back through this frame, which is not left before the latch is
        // set: the heap job is the install's one allocation.
        let slot = InstallSlot {
            outcome: UnsafeCell::new(None),
            latch: Latch::new(&self.shared.installers),
        };
        let delivery = Delivery(&slot);
        self.spawn(move || delivery.run(f));
        while !slot.latch.probe() {
            // Every way the latch gets set wakes this wait; the 50 ms re-check is nothing
            // it relies on.
            self.shared.installers.wait_unless(Duration::from_millis(50), || slot.latch.probe());
        }
        match slot.outcome.into_inner() {
            Some(Ok(r)) => Ok(r),
            Some(Err(payload)) => Err(InstallError::Panicked(payload)),
            // The job was dropped without running: its worker died with it in hand.
            None => Err(InstallError::Lost),
        }
    }
}

/// An installer's result slot, in its `try_install` frame.
struct InstallSlot<R> {
    outcome: UnsafeCell<Option<thread::Result<R>>>,
    latch: Latch,
}

/// The queued half of an install. Dropping it sets the installer's latch — after
/// [`Delivery::run`] has written the closure's outcome, or with the slot still empty
/// ([`InstallError::Lost`]) when the job is dropped without running.
struct Delivery<R>(*const InstallSlot<R>);

// SAFETY: the one field points at the installer's slot, which outlives the delivery — the
// installer does not leave `try_install` before the latch is set, which only the delivery's
// drop does — and what crosses threads through it is the outcome, `Send` with `R`.
unsafe impl<R: Send> Send for Delivery<R> {}

impl<R> Delivery<R> {
    fn run(self, f: impl FnOnce() -> R) {
        let outcome = panic::catch_unwind(AssertUnwindSafe(f));
        // SAFETY: the slot is alive (see `Send` above), and only this job writes it, before
        // the latch is set.
        unsafe { *(*self.0).outcome.get() = Some(outcome) };
    }
}

impl<R> Drop for Delivery<R> {
    fn drop(&mut self) {
        // SAFETY: the latch lives in the slot (see `Send` above) and points into the pool's
        // `Shared`, which the worker holding this job keeps alive.
        unsafe { (*self.0).latch.set() };
    }
}

/// Why [`ThreadPool::try_install`] failed.
pub enum InstallError {
    /// The installed closure panicked; the original payload is carried here.
    Panicked(Box<dyn Any + Send + 'static>),
    /// The worker executing the closure died before delivering a result (the closure may
    /// have partially run). Distinct from [`InstallError::Panicked`]: closure panics are
    /// always caught and transported.
    Lost,
}

impl fmt::Debug for InstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstallError::Panicked(_) => f.write_str("InstallError::Panicked(..)"),
            InstallError::Lost => f.write_str("InstallError::Lost"),
        }
    }
}

impl fmt::Display for InstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstallError::Panicked(_) => f.write_str("installed closure panicked"),
            InstallError::Lost => {
                f.write_str("worker died before delivering the installed closure's result")
            }
        }
    }
}

impl std::error::Error for InstallError {}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.sleep.wake_all();
        let mut handles = self.handles.lock().unwrap_or_else(|e| e.into_inner());
        for h in handles.drain(..).flatten() {
            let _ = h.join();
        }
    }
}

/// Fork-join: run `a` and `b`, potentially in parallel, returning both results.
///
/// Must be called from inside a pool worker (e.g. within [`ThreadPool::install`]); when
/// called from an ordinary thread the two closures simply run sequentially.
///
/// The fast path is allocation-free: the right branch lives in this stack frame and is
/// queued by reference; if no thief takes it, the owner pops it straight back and runs it
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
    // The right branch lives in this frame; the queue holds only a reference to it. We must
    // not leave this function until the reference is out of the queue (reclaimed below) or
    // executed (latch set) — both paths below guarantee that before returning or unwinding.
    let job_b = StackJob::new(b, &worker.shared.sleep, token);
    let job_ref = unsafe { job_b.as_job_ref() };
    worker.push_local(Job::Stack(job_ref));

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
            Some(job) if job.is_ref(&job_ref) => {
                // Fast path: nobody stole it — the job is exclusively ours again. `job` is
                // just the two-word reference; dropping it here is inert.
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
                // With strictly nested joins the top of our deque is always our own ref (or
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
    use std::sync::atomic::AtomicU64;

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
        assert!(pool.stats().total_jobs() > 0);
    }

    #[test]
    fn batch_steal_counters_stay_consistent() {
        let pool = ThreadPoolBuilder::new().threads(4).build();
        let n = 1_000_000u64;
        let total = pool.install(move || recursive_sum(0, n));
        assert_eq!(total, n * (n - 1) / 2);
        let stats = pool.stats();
        // Every steal path is batch-aware, so the two task-level views agree, and a
        // visit never moves fewer than one job.
        assert_eq!(stats.total_jobs_stolen(), stats.total_steals());
        assert!(stats.total_batch_steals() <= stats.total_steals());
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

    /// Runs `round` `ROUNDS` times on a 2-worker pool and fails when a quarter of them or
    /// more ended with the owner sleeping out a park backstop: `round` forks work the other
    /// worker steals and finishes only once the owner has parked, so only the completion's
    /// own wake can end that park early.
    fn parked_owners_are_woken(round: impl Fn(&ThreadPool) + Send + Sync + 'static) {
        const ROUNDS: usize = 40;
        let pool = Arc::new(ThreadPool::new(2));
        let p = Arc::clone(&pool);
        let late = pool.install(move || {
            let me = WorkerHandle::with_current(|w| w.expect("installed on a worker").index);
            let backstops = || p.stats().snapshot().workers[me].backstop_wakes;
            (0..ROUNDS)
                .filter(|_| {
                    let before = backstops();
                    round(&p);
                    backstops() > before
                })
                .count()
        });
        assert!(
            late < ROUNDS / 4,
            "{late} of {ROUNDS} parked owners slept out their park backstop: the completion \
             they waited for did not wake them"
        );
    }

    /// Hold the calling worker until `stolen`, then return.
    fn until(stolen: &AtomicBool) {
        while !stolen.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
    }

    /// Return once `events` has a waiter and a tenth of a park backstop more has passed:
    /// long enough for that waiter to be past its last look and asleep.
    fn after_a_waiter_sleeps_on(events: &EventCount) {
        while events.waiters() == 0 {
            thread::yield_now();
        }
        let registered = Instant::now();
        while registered.elapsed() < PARK_BACKSTOP / 10 {
            std::hint::spin_loop();
        }
    }

    /// The thief's half: announce the steal, finish once the owner has parked.
    fn finish_after_the_owner_parks(pool: &ThreadPool, stolen: &AtomicBool) {
        stolen.store(true, Ordering::Release);
        after_a_waiter_sleeps_on(&pool.shared.sleep);
    }

    #[test]
    fn a_parked_owner_is_woken_by_its_stolen_branch() {
        parked_owners_are_woken(|pool| {
            let stolen = AtomicBool::new(false);
            join(|| until(&stolen), || finish_after_the_owner_parks(pool, &stolen));
        });
    }

    #[test]
    fn a_parked_scope_owner_is_woken_by_its_last_spawn() {
        parked_owners_are_woken(|pool| {
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
        // every install would last the installer's whole 50 ms re-check.
        const ROUNDS: usize = 20;
        let pool = ThreadPool::new(1);
        let late = (0..ROUNDS)
            .filter(|_| {
                let shared = Arc::clone(&pool.shared);
                let finished = pool.install(move || {
                    after_a_waiter_sleeps_on(&shared.installers);
                    Instant::now()
                });
                finished.elapsed() >= Duration::from_millis(25)
            })
            .count();
        assert!(late < ROUNDS / 4, "{late} of {ROUNDS} installers slept out their re-check");
    }

    #[test]
    fn a_health_waiter_is_woken_by_the_next_heartbeat() {
        // One idle worker, so nothing but its backstop sweeps fires a supervision event:
        // were the heartbeat's wake missing, the wait would last its whole 5 s.
        let pool = ThreadPool::new(1);
        let heartbeats = pool.stats().heartbeat_of(0);
        let waiting = Instant::now();
        assert!(
            pool.wait_health(|| pool.stats().heartbeat_of(0) > heartbeats, Duration::from_secs(5))
        );
        assert!(waiting.elapsed() < Duration::from_millis(2500), "waited {:?}", waiting.elapsed());
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
        // Regression test: Job::execute must not let a heap job's panic unwind the worker
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
