//! Scoped tasks: fork any number of borrow-friendly jobs and join them all at once.
//!
//! [`join`](crate::join) covers strictly binary fork-join; [`scope`] adds arbitrary fan-out,
//! with a branch count known only at run time, rayon-style:
//!
//! ```
//! let mut parts = [0u64; 3];
//! let (a, b, c) = {
//!     let [pa, pb, pc] = &mut parts;
//!     rws_runtime::scope(|s| {
//!         s.spawn(|_| *pa = 1); // may run on any worker of the current pool
//!         s.spawn(|_| *pb = 2);
//!         *pc = 3; // the scope body itself is the "n-th branch"
//!     });
//!     (parts[0], parts[1], parts[2])
//! };
//! assert_eq!(a + b + c, 6);
//! ```
//!
//! The guarantees, in the order the hot path cares about them:
//!
//! * **Borrow-friendly**: spawned closures only need to outlive `'scope`, not `'static` —
//!   they may borrow from the caller's frame because `scope` does not return until every
//!   spawn has completed (a shared atomic `CountLatch` counts them down).
//! * **One boxed job per spawn**: a spawn from a worker of the scope's pool boxes its
//!   closure and pushes it onto that worker's deque as the same two-word `Job` (see
//!   `job.rs`) the `join` fast path uses; a spawn from any other thread is injected. The
//!   allocation-free fork is [`join`](crate::join): a fixed fan-out on a hot path, such as
//!   the kernels' quadrant splits, nests it instead.
//! * **Helping wait**: the owner executes queued work (its own unstolen spawns first —
//!   LIFO pop — then anything it can find or steal) while waiting for the latch, so a
//!   blocked scope never idles a core, and the common unstolen case runs entirely on the
//!   owner.
//! * **Panic aggregation**: a panicking spawn is caught where it ran, recorded in the
//!   scope (first panic wins), and rethrown at the `scope` call after *all* siblings have
//!   finished — a panic poisons its own scope and nothing else; enclosing scopes and the
//!   pool stay healthy.
//!
//! Outside a pool worker, `spawn` degrades to immediate inline execution (the sequential
//! semantics every other primitive in this crate degrades to), still with scope-exit panic
//! aggregation.

// Unsafe is confined to the box handoff; the invariants mirror `job.rs`: a queued Job is
// executed exactly once, the box's ownership travels with the job, and the scope the box
// points back to outlives execution because `scope` waits for the completion latch before
// returning — even when its body unwinds.
#![allow(unsafe_code)]

use crate::cancel::{self, ForkToken};
use crate::job::{CountLatch, Job};
use crate::pool::{Shared, WorkerHandle};
use rws_trace::JobKind;
use std::any::Any;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// A scope for spawning borrow-friendly tasks; created by [`scope`], used through the
/// reference passed to the scope body (and to every spawned closure, so tasks can spawn
/// siblings).
pub struct Scope<'scope> {
    /// The pool whose queues spawned jobs enter; `None` when the scope was opened outside
    /// any pool worker (spawns then run inline).
    pool: Option<Arc<Shared>>,
    /// Pending spawned jobs. The final decrement wakes the pool so a parked owner resumes.
    latch: CountLatch,
    /// First panic from a spawned task, rethrown when the scope closes.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    /// The opening thread's token word, re-installed around every spawned task so deadlines
    /// follow the work onto whichever worker runs it (null outside service mode). Borrowed:
    /// `scope` returns only after every task has finished.
    cancel: ForkToken,
    /// `'scope` is invariant: it must be exactly the lifetime the closures were checked
    /// against, never shortened or lengthened by variance.
    marker: PhantomData<&'scope mut &'scope ()>,
}

// Safety: a &Scope crosses threads inside spawned jobs. The panic store is a mutex, the
// latch is atomic, the pool handle is an Arc, and the token word is only read (its flag
// outlives every task, see `ForkToken`); closure payloads are required to be `Send` by
// `spawn`'s bounds.
unsafe impl Sync for Scope<'_> {}

/// A boxed spawn: the closure and a pointer to its scope (which makes it 8-aligned, room for
/// the job's kind tag). The box travels through the queue as a [`Job`], the same entry a
/// `join` queues.
struct HeapSpawn<F> {
    scope: *const (),
    func: F,
}

impl<'scope> Scope<'scope> {
    fn new(pool: Option<Arc<Shared>>) -> Self {
        // The latch keeps a raw pointer into the pool's EventCount: workers executing this
        // scope's jobs keep the Shared (and thus the EventCount) alive; see CountLatch::set_one.
        let latch = CountLatch::new(pool.as_ref().map(|p| &p.sleep.0));
        Scope {
            pool,
            latch,
            panic: Mutex::new(None),
            cancel: ForkToken::capture(),
            marker: PhantomData,
        }
    }

    /// Spawn a task into the scope. The task may borrow anything that outlives `'scope`
    /// and may itself spawn siblings through the `&Scope` it receives. It runs at some
    /// point before the enclosing [`scope`] call returns — possibly on another worker of
    /// the pool, possibly on the owner while it waits, and (when the scope was opened
    /// outside any pool) immediately, inline.
    ///
    /// A panicking task is caught and rethrown by the enclosing [`scope`] call after all
    /// its siblings have completed; see the module docs.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        // Fork point: observe the current job's cancellation (deadline) before queueing
        // more work — the unwind is aggregated by the enclosing scope like any panic and
        // re-extracted by the service's root wrapper.
        cancel::check_cancel();
        let Some(pool) = &self.pool else {
            // Sequential degradation: no pool anywhere, run it now. Panic semantics stay
            // scope-exit, matching the parallel path.
            let result = panic::catch_unwind(AssertUnwindSafe(|| f(self)));
            if let Err(payload) = result {
                self.record_panic(payload);
            }
            return;
        };
        self.latch.increment();
        let boxed = Box::new(HeapSpawn { scope: self as *const Self as *const (), func: f });
        // Safety: the box's ownership transfers into the job; execute_heap reclaims it. The
        // scope outlives execution because the latch was incremented above and `scope` waits
        // for it.
        let job =
            unsafe { Job::from_raw(Box::into_raw(boxed), execute_heap::<F>, JobKind::ScopedSpawn) };
        // A worker of this pool queues locally; any other thread cannot reach a local deque
        // of this pool, so it injects.
        WorkerHandle::with_current(|worker| match worker.filter(|w| Arc::ptr_eq(&w.shared, pool)) {
            Some(w) => w.push_local(job),
            None => pool.inject(job),
        })
    }

    /// Record a spawned task's panic; the first one wins and is rethrown at scope exit.
    fn record_panic(&self, payload: Box<dyn Any + Send + 'static>) {
        let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send + 'static>> {
        self.panic.lock().unwrap_or_else(|e| e.into_inner()).take()
    }
}

/// Type-erased executor for a boxed spawn: reclaim the box, run the closure, and resolve
/// the scope's bookkeeping. The latch decrement is the very last touch: after it the owner
/// may return from `scope` and invalidate the frame. Returns `false`: a panic is delivered
/// to the scope, not swallowed (see `Job::execute`).
///
/// # Safety
/// `data` must be the `Box<HeapSpawn<F>>` this job was created from, pointing at a live
/// `Scope<'scope>` matching `F`'s checked lifetime, and this must be its only executor.
unsafe fn execute_heap<'scope, F>(data: *const ()) -> bool
where
    F: FnOnce(&Scope<'scope>) + Send + 'scope,
{
    let HeapSpawn { scope, func } = *Box::from_raw(data as *mut HeapSpawn<F>);
    let scope = &*(scope as *const Scope<'scope>);
    // The scope's fork-time word rides along to whichever worker runs the task, so a
    // deadline set on the submitting job cancels its scoped fan-out too. The guard drops
    // before the latch: its last decrement may let `scope` return.
    // Safety (`install`): `scope` waits for the latch this task decrements last.
    let token = cancel::install(scope.cancel);
    let result = panic::catch_unwind(AssertUnwindSafe(|| func(scope)));
    drop(token);
    if let Err(payload) = result {
        scope.record_panic(payload);
    }
    scope.latch.set_one();
    false
}

/// Open a scope, run `op` with it, and return `op`'s result once every task spawned inside
/// has completed.
///
/// Must be called from inside a pool worker (e.g. within
/// [`ThreadPool::install`](crate::ThreadPool::install)) for the spawns to run in parallel;
/// from an ordinary thread they execute inline, sequentially, like every other primitive
/// here. While waiting, the owner helps execute queued work, so a blocked scope never
/// idles a core.
///
/// Panic policy: if `op` itself panics, that panic propagates (after all spawned tasks
/// have still been waited for — their borrows must stay valid through the unwind);
/// otherwise the first panic from a spawned task, if any, is rethrown here.
pub fn scope<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R,
{
    WorkerHandle::with_current(|worker| {
        let s = Scope::new(worker.map(|w| Arc::clone(&w.shared)));
        let result = panic::catch_unwind(AssertUnwindSafe(|| op(&s)));
        if let Some(w) = worker {
            // Help until every spawn has resolved. Mandatory even when `op` panicked:
            // in-queue or in-flight spawns still reference this frame (and `'scope` borrows).
            w.wait_until(|| s.latch.done());
        }
        // Outside a pool, spawns ran inline — the latch never went above zero.
        match result {
            Err(payload) => panic::resume_unwind(payload),
            Ok(value) => match s.take_panic() {
                Some(payload) => panic::resume_unwind(payload),
                None => value,
            },
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn scope_outside_a_pool_runs_spawns_inline() {
        let mut data = [0u64; 8];
        {
            let (a, b) = data.split_at_mut(4);
            scope(|s| {
                s.spawn(|_| a.iter_mut().for_each(|v| *v = 1));
                s.spawn(|_| b.iter_mut().for_each(|v| *v = 2));
            });
        }
        assert_eq!(data, [1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn scope_on_a_pool_runs_every_spawn_exactly_once() {
        let pool = ThreadPool::new(3);
        let count = pool.install(|| {
            let counter = AtomicU64::new(0);
            scope(|s| {
                for _ in 0..64 {
                    s.spawn(|_| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            counter.load(Ordering::Relaxed)
        });
        assert_eq!(count, 64);
    }

    #[test]
    fn spawned_tasks_can_spawn_siblings() {
        let pool = ThreadPool::new(2);
        let count = pool.install(|| {
            let counter = AtomicU64::new(0);
            scope(|s| {
                s.spawn(|s| {
                    counter.fetch_add(1, Ordering::Relaxed);
                    s.spawn(|_| {
                        counter.fetch_add(10, Ordering::Relaxed);
                    });
                });
            });
            counter.load(Ordering::Relaxed)
        });
        assert_eq!(count, 11);
    }

    #[test]
    fn scope_returns_the_body_value() {
        let pool = ThreadPool::new(1);
        let out = pool.install(|| scope(|_| 42));
        assert_eq!(out, 42);
    }
}
