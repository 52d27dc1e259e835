//! Job representations for the pool's deques.
//!
//! The hot path of fork-join execution is [`StackJob`]: the right branch of a `join` lives
//! in the **caller's stack frame** and is pushed into the deque as a [`JobRef`] — two words,
//! no `Box`, no `Arc`, no `Mutex`. Exactly-once execution is guaranteed by the deque itself
//! (each pushed item is popped or stolen exactly once); the atomic [`Latch`] only tells the
//! owner *when* a stolen branch has finished and carries the result back through an
//! `UnsafeCell` write that the latch's release/acquire pair orders.
//!
//! A cross-thread `install` hands its closure over the same way, from the installer's frame
//! through the injector. Heap-allocated jobs ([`Job::Heap`]) remain for the cold,
//! fire-and-forget entry point (`spawn`), where nobody waits in a frame the job could live in.

#![allow(unsafe_code)]

use crate::cancel::{self, ForkToken};
use crate::sleep::EventCount;
use rws_trace::JobKind;
use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A unit of work queued in a worker deque or the injector.
pub(crate) enum Job {
    /// A boxed closure from the cold submission path (`spawn`).
    Heap(Box<dyn FnOnce() + Send + 'static>),
    /// A pointer to a job living in a frame that waits for it: a `join` caller's or an
    /// installer's [`StackJob`], or a scoped spawn's box.
    Stack(JobRef),
}

impl Job {
    /// Execute the job, consuming it. Never unwinds: a panic from a heap job is caught
    /// here, because the executing worker may be *helping* from inside a blocked `join` —
    /// unwinding through that frame would destroy a `StackJob` a thief is still running
    /// (use-after-free) — and an unwind through `worker_loop` aborts the process. A
    /// panicking fire-and-forget `spawn` closure is caught here and dropped with the job,
    /// like a detached thread's. Stack jobs do their own capturing: the payload travels to
    /// the owning `join`, which re-throws it, or to the installer, whose `try_install`
    /// returns it (`install` resumes it).
    ///
    /// Returns `true` when a heap job's panic was quarantined here, so the executing
    /// worker can health-track it (`PoolStats::record_panic_caught`). Stack jobs report
    /// `false` even when their closure panics: that payload is *delivered* to the owning
    /// `join`, not swallowed, so it is the submitter's failure, not this worker's.
    pub(crate) fn execute(self) -> bool {
        match self {
            // A heap job was handed over from outside any fork: it runs under no deadline,
            // whatever the executing worker is helping from.
            Job::Heap(f) => {
                cancel::under(None, || panic::catch_unwind(AssertUnwindSafe(f))).is_err()
            }
            // Safety: a queued JobRef's StackJob is kept alive by its `join` frame until
            // the latch is set, which only `execute` does (after running the closure).
            Job::Stack(r) => {
                unsafe { r.execute() };
                false
            }
        }
    }

    /// Whether this job is the given stack job (pointer identity) — the `join` fast path's
    /// "did I just pop my own right branch?" test.
    #[inline]
    pub(crate) fn is_ref(&self, r: &JobRef) -> bool {
        match self {
            Job::Heap(_) => false,
            Job::Stack(mine) => std::ptr::eq(mine.data, r.data),
        }
    }

    /// The flight-recorder job-kind tag: heap jobs are injected roots; stack jobs carry
    /// the tag their creator stamped on the ref (join branch, scoped spawn, or an install's
    /// injected root).
    pub(crate) fn kind(&self) -> JobKind {
        match self {
            Job::Heap(_) => JobKind::InjectedRoot,
            Job::Stack(r) => r.kind,
        }
    }
}

/// A type-erased pointer to a [`StackJob`] plus its execute function: the two-word queue
/// entry of the allocation-free fork path. `Copy` so the owner can keep an identity witness
/// while the queue holds the working copy (only one of the two is ever executed).
#[derive(Clone, Copy)]
pub(crate) struct JobRef {
    data: *const (),
    execute_fn: unsafe fn(*const ()),
    /// Flight-recorder tag: what kind of work this ref points at. One byte riding along
    /// so `run_job` can label its trace events without a virtual call.
    kind: JobKind,
}

// Safety: a JobRef only travels from the owner's push to exactly one executor (owner or
// thief), and the StackJob it points to is Sync for exactly that transfer (the closure and
// result are `Send`).
unsafe impl Send for JobRef {}

impl JobRef {
    /// A queue entry from a raw data pointer and its execute function. Used by the scoped
    /// spawn machinery (`scope.rs`), whose jobs live in a box whose ownership the ref
    /// carries.
    ///
    /// # Safety
    /// Whatever `data` points to must stay alive until `execute_fn` consumes it, and the
    /// ref must be executed exactly once (the deque's pop/steal discipline).
    pub(crate) unsafe fn from_raw(
        data: *const (),
        execute_fn: unsafe fn(*const ()),
        kind: JobKind,
    ) -> JobRef {
        JobRef { data, execute_fn, kind }
    }

    /// Run the referenced stack job.
    ///
    /// # Safety
    /// The referenced [`StackJob`] must still be alive, and this must be the job's only
    /// executor (guaranteed by the deque's exactly-once pop/steal discipline).
    pub(crate) unsafe fn execute(self) {
        (self.execute_fn)(self.data)
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
/// Lifecycle: the owner creates it, pushes its [`JobRef`], runs the left branch, and then
/// either pops it back (fast path: takes the closure out and runs it inline — no atomics
/// beyond the deque's own) or, if a thief took it, waits on the latch and reads the result.
/// An installer injects the ref and always waits on the latch.
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
    /// The caller must keep `self` alive until the ref is either executed (latch set) or
    /// reclaimed by popping it back off the deque — `join` and `try_install` guarantee this
    /// by not returning until one of the two has happened.
    pub(crate) unsafe fn as_job_ref(&self, kind: JobKind) -> JobRef {
        JobRef { data: self as *const Self as *const (), execute_fn: Self::execute_from_ref, kind }
    }

    unsafe fn execute_from_ref(data: *const ()) {
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
    }

    /// Fast path: the owner popped its own ref back — take the closure out of the job where
    /// it stands (no move of the whole job) and run it inline, returning the value directly
    /// (panics propagate normally; the job is exclusively ours again).
    ///
    /// # Safety
    /// Must only be called after reclaiming the job's ref from the deque.
    #[inline]
    pub(crate) unsafe fn run_inline(&self) -> R {
        let func = (*self.func.get()).take().expect("reclaimed stack job must hold its closure");
        func()
    }

    /// Drop the unexecuted closure (owner reclaimed the ref while unwinding from a panic in
    /// the left branch).
    ///
    /// # Safety
    /// Must only be called after reclaiming the job's ref from the deque.
    pub(crate) unsafe fn abandon(&self) {
        drop((*self.func.get()).take());
    }

    /// Take the stolen branch's outcome. Only valid once the latch has been probed `true`.
    pub(crate) fn into_result(self) -> JoinResult<R> {
        debug_assert!(self.latch.probe(), "result taken before the latch was set");
        self.result.into_inner()
    }
}
