//! Job representations for the pool's deques.
//!
//! A queued [`Job`] is two words, `{ data, execute }`, passed in two registers and stored
//! in one 16-byte deque slot: a pointer to the job's payload, whose low two bits carry its
//! flight-recorder [`JobKind`], and the function that runs it. It has no drop glue and no
//! variants: every payload is reached the same way, and whoever pops or steals the job
//! runs it exactly once. The payloads:
//!
//! * [`StackJob`] — the right branch of a `join`, in the **caller's stack frame**: no
//!   `Box`, no `Arc`, no `Mutex`. Exactly-once execution is guaranteed by the deque itself
//!   (each pushed item is popped or stolen exactly once); the atomic [`Latch`] only tells
//!   the owner *when* a stolen branch has finished and carries the result back through an
//!   `UnsafeCell` write that the latch's release/acquire pair orders. A cross-thread
//!   `install` hands its closure over the same way, from the installer's frame through the
//!   injector.
//! * A scoped spawn's box (`scope.rs`), which points back at its scope.
//! * [`HeapJob`] — the cold, fire-and-forget entry point (`spawn`), where nobody waits in a
//!   frame the job could live in: the concrete closure, boxed once.
//!
//! Every payload is 8-aligned, so the two low bits of its address are free for the tag;
//! [`Job::from_raw`] does not compile for a payload type aligned to less than 4.

#![allow(unsafe_code)]

use crate::cancel::{self, ForkToken};
use crate::sleep::EventCount;
use rws_trace::JobKind;
use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The bits of a job's data word that hold its [`JobKind`].
const KIND_BITS: usize = 0b11;

/// A unit of work queued in a worker deque or the injector: a tagged pointer to its payload
/// and the function that consumes it. Not `Copy`: only the one queued value is ever executed,
/// and `join` keeps [`Job::id`] as its identity witness.
pub(crate) struct Job {
    /// The payload's address with its [`JobKind`] in the low two bits.
    data: *const (),
    /// Runs the payload at the untagged address; returns whether a heap job's panic was
    /// caught (see [`Job::execute`]).
    execute: unsafe fn(*const ()) -> bool,
}

// Two words, and `Option<Job>` (the fn pointer's niche) too: `push_local` takes the job in
// two registers and `pop_local` returns it in two, and a deque slot is 16 bytes.
const _: () = assert!(std::mem::size_of::<Job>() == 2 * std::mem::size_of::<usize>());
const _: () = assert!(std::mem::size_of::<Option<Job>>() == std::mem::size_of::<Job>());

// SAFETY: a Job travels from its creator to exactly one executor (owner or thief). Its
// payload is a `StackJob`, `Sync` for exactly that transfer (its closure and result are
// `Send`), a scoped spawn's box of a `Send` closure, or a `HeapJob` of a `Send` closure.
unsafe impl Send for Job {}

impl Job {
    /// A job from its payload's address, the function that consumes it, and the kind the
    /// flight recorder labels it with.
    ///
    /// # Safety
    /// Whatever `data` points to must stay alive until `execute` consumes it, `execute` must
    /// accept exactly that payload, and the job must be executed exactly once (the deque's
    /// pop/steal discipline) or, for a `join` branch, reclaimed by its owner.
    #[inline]
    pub(crate) unsafe fn from_raw<T>(
        data: *const T,
        execute: unsafe fn(*const ()) -> bool,
        kind: JobKind,
    ) -> Job {
        const { assert!(std::mem::align_of::<T>() > KIND_BITS, "no room for the kind tag") };
        Job { data: data.cast::<()>().map_addr(|a| a | kind as usize), execute }
    }

    /// A fire-and-forget closure (`spawn`), boxed once. It runs under no deadline, whatever
    /// the executing worker is helping from, and its panic is caught and dropped with it,
    /// like a detached thread's.
    pub(crate) fn heap<F: FnOnce() + Send + 'static>(func: F) -> Job {
        let boxed = Box::into_raw(Box::new(HeapJob(func)));
        // SAFETY: the box's ownership moves into the job and `HeapJob::execute` reclaims it.
        // A job is never dropped unexecuted — it has no drop glue, so one would leak — since
        // `ThreadPool::stop` runs every queued job before the deques go.
        unsafe { Job::from_raw(boxed, HeapJob::<F>::execute, JobKind::InjectedRoot) }
    }

    /// Execute the job, consuming it. Never unwinds: every payload catches its own panic,
    /// because the executing worker may be *helping* from inside a blocked `join` —
    /// unwinding through that frame would destroy a `StackJob` a thief is still running
    /// (use-after-free) — and an unwind through `worker_loop` aborts the process. A stack
    /// job's payload travels to the owning `join`, which re-throws it, or to the
    /// installer, whose `try_install` returns it (`install` resumes it); a scoped spawn's
    /// goes to its scope.
    ///
    /// Returns `true` when a heap job's panic was quarantined, so the executing worker can
    /// health-track it (`PoolStats::record_panic_caught`). The other kinds report `false`
    /// even when their closure panics: that payload is *delivered*, not swallowed, so it is
    /// the submitter's failure, not this worker's.
    #[inline]
    pub(crate) fn execute(self) -> bool {
        // SAFETY: the constructor's contract — the payload is alive and this is its one
        // execution — and the untagged word is the address it was built from.
        unsafe { (self.execute)(self.data.map_addr(|a| a & !KIND_BITS)) }
    }

    /// The tagged data word: equal for two jobs only if they are the same job. `join` keeps
    /// its branch's id to tell, after popping, whether it got its own branch back.
    #[inline]
    pub(crate) fn id(&self) -> *const () {
        self.data
    }

    /// The flight-recorder job-kind tag its creator stamped on the job: a join branch, a
    /// scoped spawn, or an injected root (`spawn`, or an install's stack job).
    pub(crate) fn kind(&self) -> JobKind {
        JobKind::from_code((self.data.addr() & KIND_BITS) as u8)
    }
}

/// A `spawn`ed closure in its own box: the payload of [`Job::heap`]. 8-aligned whatever the
/// closure's alignment, so its address has room for the kind tag.
#[repr(align(8))]
struct HeapJob<F>(F);

impl<F: FnOnce() + Send> HeapJob<F> {
    /// Reclaim the box, run the closure under no deadline, and report whether it panicked.
    ///
    /// # Safety
    /// `data` must be the `Box<HeapJob<F>>` a [`Job::heap`] was made from, executed once.
    unsafe fn execute(data: *const ()) -> bool {
        let HeapJob(func) = *Box::from_raw(data as *mut HeapJob<F>);
        cancel::under(None, || panic::catch_unwind(AssertUnwindSafe(func))).is_err()
    }
}

/// A set-once completion flag with release/acquire ordering: the owner of a `join` waits on
/// one for a stolen branch, an installer on one for its closure (both are [`StackJob`]s). Setting it wakes the
/// [`EventCount`] its waiter sleeps on.
pub(crate) struct Latch {
    done: AtomicBool,
    events: *const EventCount,
}

impl Latch {
    /// A latch whose waiter sleeps on `events`.
    pub(crate) fn new(events: &EventCount) -> Self {
        Latch { done: AtomicBool::new(false), events }
    }

    /// Whether the latch has been set (acquire: a true result also acquires the setter's
    /// writes, in particular the stolen branch's result).
    #[inline]
    pub(crate) fn probe(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Set the latch and wake its waiter.
    ///
    /// # Safety
    /// The `EventCount` this latch points into must still be alive — true whenever a worker
    /// of the pool sets it, since workers hold the pool's `Shared` alive.
    pub(crate) unsafe fn set(&self) {
        let events = self.events;
        self.done.store(true, Ordering::Release);
        // After the store above the owner may already have returned and destroyed this
        // latch, so `self` must not be touched again; the raw pointer into the long-lived
        // Shared is what keeps the wake safe. All waiters, because the one that cares about
        // this latch may not be the one a single wake would pick; completions of stolen
        // branches are rare enough not to matter.
        (*events).wake_all();
    }
}

/// A counting completion latch: the scoped-task (`scope`) analogue of [`Latch`]. Every
/// spawned task increments it before being queued and decrements it after running; the
/// scope's owner waits until the count drains to zero, and the final decrement wakes the
/// pool's [`EventCount`].
pub(crate) struct CountLatch {
    pending: AtomicUsize,
    /// Null when the latch belongs to a scope created outside any pool (inline execution;
    /// nothing ever waits).
    events: *const EventCount,
}

// Safety: the pointer is only dereferenced by `set_one`, whose safety contract requires the
// pool (and thus the `EventCount`) to be alive; the counter itself is atomic.
unsafe impl Send for CountLatch {}
unsafe impl Sync for CountLatch {}

impl CountLatch {
    pub(crate) fn new(events: Option<&EventCount>) -> Self {
        CountLatch {
            pending: AtomicUsize::new(0),
            events: events.map_or(std::ptr::null(), |e| e as *const EventCount),
        }
    }

    /// Register one more pending task. Called before the task is published to a queue; the
    /// queue push provides the ordering that makes the increment visible to the waiter.
    pub(crate) fn increment(&self) {
        self.pending.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether every registered task has completed (acquire: pairs with the release
    /// decrement in [`CountLatch::set_one`], so the tasks' writes are visible).
    #[inline]
    pub(crate) fn done(&self) -> bool {
        self.pending.load(Ordering::Acquire) == 0
    }

    /// Mark one task complete, waking the owner if this was the last one.
    ///
    /// # Safety
    /// Must pair with a prior [`CountLatch::increment`]; the `EventCount` this latch points
    /// into must still be alive (true whenever a pool worker executes the task, since
    /// workers keep the pool's `Shared` alive). After the decrement the latch's owner may
    /// already have returned and destroyed the latch, so `self` is not touched again — only
    /// the raw pointer is.
    pub(crate) unsafe fn set_one(&self) {
        let events = self.events;
        if self.pending.fetch_sub(1, Ordering::Release) == 1 && !events.is_null() {
            (*events).wake_all();
        }
    }
}

/// The right branch of a `join`, allocated in the caller's stack frame — or an installed
/// closure, in its installer's.
///
/// Lifecycle: the owner creates it, pushes its [`Job`], runs the left branch, and then
/// either pops it back (fast path: takes the closure out and runs it inline — no atomics
/// beyond the deque's own) or, if a thief took it, waits on the latch and reads the result.
/// An installer injects the job and always waits on the latch.
pub(crate) struct StackJob<F, R> {
    latch: Latch,
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<JoinResult<R>>,
    /// The forking thread's token word, captured at fork so a *thief* executing this branch
    /// observes the same deadline the owner does. One borrowed word (null outside service
    /// mode and for an installed closure): the unstolen path never reads it again.
    cancel: ForkToken,
}

/// Outcome of the stolen branch, written by the executor before the latch is set.
pub(crate) enum JoinResult<R> {
    /// Not executed yet.
    Pending,
    /// The branch returned a value.
    Ok(R),
    /// The branch panicked; the payload is rethrown on the owner's thread.
    Panic(Box<dyn Any + Send>),
}

// Safety: the only cross-thread access pattern is one executor writing `func`/`result`
// before the latch release-store, and the owner reading after the latch acquire-load.
unsafe impl<F: Send, R: Send> Sync for StackJob<F, R> {}

impl<F, R> StackJob<F, R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    /// `cancel` is what the fork's cancellation point returned ([`cancel::fork_point`]).
    #[inline]
    pub(crate) fn new(func: F, events: &EventCount, cancel: ForkToken) -> Self {
        StackJob {
            latch: Latch::new(events),
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(JoinResult::Pending),
            cancel,
        }
    }

    pub(crate) fn latch(&self) -> &Latch {
        &self.latch
    }

    /// The queue entry pointing at this job, tagged `kind` for the flight recorder.
    ///
    /// # Safety
    /// The caller must keep `self` alive until the job is either executed (latch set) or
    /// reclaimed by popping it back off the deque — `join` and `try_install` guarantee this
    /// by not returning until one of the two has happened.
    #[inline]
    pub(crate) unsafe fn as_job(&self, kind: JobKind) -> Job {
        Job::from_raw(self as *const Self, Self::execute, kind)
    }

    unsafe fn execute(data: *const ()) -> bool {
        let this = &*(data as *const Self);
        let func = (*this.func.get()).take().expect("stack job executed twice");
        // Install the fork-time word for the branch's run: a thief inherits the owner's
        // deadline, an installed closure runs under none, and a cancellation unwind from
        // inside `func` is captured below like any panic, travelling to the owning `join` as
        // the branch's outcome. The guard drops before the latch is set: after that the
        // owner may return and the flag the word borrows may go.
        // Safety (`install`): the owner does not return before the latch is set below.
        let token = cancel::install(this.cancel);
        let result = match panic::catch_unwind(AssertUnwindSafe(func)) {
            Ok(r) => JoinResult::Ok(r),
            Err(payload) => JoinResult::Panic(payload),
        };
        drop(token);
        *this.result.get() = result;
        this.latch.set();
        false
    }

    /// Fast path: the owner popped its own job back — take the closure out of the job where
    /// it stands (no move of the whole job) and run it inline, returning the value directly
    /// (panics propagate normally; the job is exclusively ours again).
    ///
    /// # Safety
    /// Must only be called after reclaiming the job from the deque.
    #[inline]
    pub(crate) unsafe fn run_inline(&self) -> R {
        let func = (*self.func.get()).take().expect("reclaimed stack job must hold its closure");
        func()
    }

    /// Drop the unexecuted closure (owner reclaimed the job while unwinding from a panic in
    /// the left branch).
    ///
    /// # Safety
    /// Must only be called after reclaiming the job from the deque.
    pub(crate) unsafe fn abandon(&self) {
        drop((*self.func.get()).take());
    }

    /// Take the stolen branch's outcome. Only valid once the latch has been probed `true`.
    pub(crate) fn into_result(self) -> JoinResult<R> {
        debug_assert!(self.latch.probe(), "result taken before the latch was set");
        self.result.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::resume_unwind;

    /// A scoped spawn's payload stand-in: a box of a pointer-aligned value.
    unsafe fn execute_boxed(data: *const ()) -> bool {
        drop(Box::from_raw(data as *mut usize));
        false
    }

    #[test]
    fn each_constructor_reports_its_kind() {
        let events = EventCount::default();
        let stack = StackJob::new(|| 1, &events, ForkToken::none());
        for kind in [JobKind::JoinBranch, JobKind::InjectedRoot] {
            // SAFETY: `stack` outlives the job, which is dropped unexecuted (inert).
            assert_eq!(unsafe { stack.as_job(kind) }.kind(), kind);
        }
        let heap = Job::heap(|| ());
        assert_eq!(heap.kind(), JobKind::InjectedRoot);
        assert!(!heap.execute());
        // SAFETY: the box is consumed by the one execution below.
        let boxed = unsafe {
            Job::from_raw(Box::into_raw(Box::new(7usize)), execute_boxed, JobKind::ScopedSpawn)
        };
        assert_eq!(boxed.kind(), JobKind::ScopedSpawn);
        assert!(!boxed.execute());
    }

    #[test]
    fn execute_reports_only_a_heap_jobs_panic() {
        assert!(Job::heap(|| resume_unwind(Box::new("heap job fails"))).execute());
        assert!(!Job::heap(|| ()).execute());

        let events = EventCount::default();
        let stack = StackJob::new(
            || -> u8 { resume_unwind(Box::new("branch fails")) },
            &events,
            ForkToken::none(),
        );
        // SAFETY: `stack` outlives its one execution.
        assert!(!unsafe { stack.as_job(JobKind::JoinBranch) }.execute(), "delivered, not caught");
        assert!(stack.latch().probe());
        assert!(matches!(stack.into_result(), JoinResult::Panic(_)));
    }

    #[test]
    fn a_join_witness_matches_only_its_own_job() {
        let events = EventCount::default();
        let mine = StackJob::new(|| 1, &events, ForkToken::none());
        let other = StackJob::new(|| 2, &events, ForkToken::none());
        // SAFETY: both stack jobs outlive these jobs, none of which is executed.
        let (id, again, other, as_root) = unsafe {
            (
                mine.as_job(JobKind::JoinBranch).id(),
                mine.as_job(JobKind::JoinBranch).id(),
                other.as_job(JobKind::JoinBranch).id(),
                mine.as_job(JobKind::InjectedRoot).id(),
            )
        };
        assert_eq!(id, again);
        assert_ne!(id, other);
        assert_ne!(id, as_root, "the kind tag is part of the identity");
        let heap = Job::heap(|| ());
        assert_ne!(heap.id(), id);
        heap.execute();
    }
}
