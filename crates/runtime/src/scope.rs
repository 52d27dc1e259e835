//! Scoped tasks: fork any number of borrow-friendly jobs and join them all at once.
//!
//! [`join`](crate::join) covers strictly binary fork-join; the paper's analysis (and the
//! kernels built on it) want arbitrary fan-out. [`scope`] provides it rayon-style:
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
//! * **Allocation-free fast path**: the scope owns [`INLINE_SLOTS`] fixed slots of
//!   [`INLINE_BYTES`] bytes each, living in the `scope` caller's stack frame. A spawn from
//!   a worker of the pool whose closure fits claims a slot and is queued as the same
//!   two-word `JobRef` (see `job.rs`) the `join` fast path uses — no `Box`, no lock. A
//!   single-spawn scope (and the 4-way quadrant fan-outs in `rws-algos`) therefore
//!   allocates nothing, preserving the PR 2 hot-path property; only wider or oversized
//!   fan-outs fall back to boxed jobs.
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

// Unsafe is confined to the slot/box handoff; the invariants mirror `job.rs`: a queued
// JobRef is executed exactly once, and the memory it points into (a slot in the scope
// frame, or a box whose ownership the ref carries) outlives execution because `scope` waits
// for the completion latch before returning — even when its body unwinds.
#![allow(unsafe_code)]

use crate::cancel::{self, ForkToken};
use crate::job::{CountLatch, Job, JobRef};
use crate::pool::{Shared, WorkerHandle};
use rws_trace::JobKind;
use std::any::Any;
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::mem::{align_of, size_of, MaybeUninit};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Number of inline spawn slots per scope: enough for the quadrant (4-way) fan-outs the
/// native kernels use, so their spawns never allocate.
pub const INLINE_SLOTS: usize = 4;

/// Byte capacity of one inline spawn slot. Closures larger than this (or over-aligned
/// beyond 64 bytes) are boxed instead.
pub const INLINE_BYTES: usize = 128;

/// 64-byte-aligned backing store for one inline spawn closure. The bytes are only ever
/// touched through raw pointers (`write`/`read` of the erased closure type), which is why
/// the field looks unread to the compiler.
#[repr(align(64))]
struct SlotStorage(#[allow(dead_code)] [MaybeUninit<u8>; INLINE_BYTES]);

/// One inline spawn slot: a claim flag plus the closure bytes. The slot is reusable — the
/// executor moves the closure out and releases the claim *before* running it, so a
/// sequence of short-lived spawns can keep hitting the same slot.
struct InlineSlot {
    claimed: AtomicBool,
    /// Back-pointer to the owning scope, written at `scope` entry (after the `Scope` value
    /// has reached its final stack address) and read by the type-erased executor.
    scope: UnsafeCell<*const ()>,
    storage: UnsafeCell<SlotStorage>,
}

impl InlineSlot {
    fn new() -> Self {
        InlineSlot {
            claimed: AtomicBool::new(false),
            scope: UnsafeCell::new(std::ptr::null()),
            storage: UnsafeCell::new(SlotStorage([MaybeUninit::uninit(); INLINE_BYTES])),
        }
    }
}

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
    /// The opening thread's cancellation token word, re-installed around every spawned task
    /// so deadlines follow the work onto whichever worker runs it (null outside service
    /// mode). Borrowed: `scope` returns only after every task has finished.
    cancel: ForkToken,
    slots: [InlineSlot; INLINE_SLOTS],
    /// `'scope` is invariant: it must be exactly the lifetime the closures were checked
    /// against, never shortened or lengthened by variance.
    marker: PhantomData<&'scope mut &'scope ()>,
}

// Safety: a &Scope crosses threads inside spawned jobs. The slot storage is guarded by the
// `claimed` flag plus the queue's publish/consume ordering; the panic store is a mutex; the
// latch is atomic; the pool handle is an Arc. Closure payloads are required to be `Send` by
// `spawn`'s bounds.
unsafe impl Sync for Scope<'_> {}

/// A boxed spawn: the fallback when every inline slot is busy or the closure is too big.
/// Carries the scope pointer alongside the closure; the box travels through the queue as a
/// raw [`JobRef`] so heap and inline spawns share one execution path.
struct HeapSpawn<F> {
    scope: *const (),
    func: F,
}

impl<'scope> Scope<'scope> {
    fn new(pool: Option<Arc<Shared>>) -> Self {
        // The latch keeps a raw pointer into the pool's EventCount: workers executing this
        // scope's jobs keep the Shared (and thus the EventCount) alive; see CountLatch::set_one.
        let latch = CountLatch::new(pool.as_ref().map(|p| &p.sleep));
        Scope {
            pool,
            latch,
            panic: Mutex::new(None),
            cancel: ForkToken::capture(),
            slots: [InlineSlot::new(), InlineSlot::new(), InlineSlot::new(), InlineSlot::new()],
            marker: PhantomData,
        }
    }

    /// Write the scope's final address into each slot's back-pointer. Must run after the
    /// `Scope` value has reached the stack location it will keep for its whole life (the
    /// `let` binding in [`scope`]); the value is never moved afterwards.
    fn bind_slots(&self) {
        for slot in &self.slots {
            unsafe { *slot.scope.get() = self as *const Self as *const () };
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
        WorkerHandle::with_current(|worker| {
            let worker = worker.filter(|w| Arc::ptr_eq(&w.shared, pool));
            if let Some(w) = worker {
                if size_of::<F>() <= INLINE_BYTES && align_of::<F>() <= 64 {
                    for slot in &self.slots {
                        // Test before locking: a busy slot costs a load, not an `xchg` that
                        // was bound to lose. The swap alone claims, and its Acquire still
                        // pairs with the executor's Release.
                        if !slot.claimed.load(Ordering::Relaxed)
                            && !slot.claimed.swap(true, Ordering::Acquire)
                        {
                            // Safety: the claim gives us exclusive use of the storage; the
                            // scope (and thus the slot) outlives execution because the latch
                            // was incremented above and `scope` waits for it.
                            let job_ref = unsafe {
                                (slot.storage.get() as *mut F).write(f);
                                JobRef::from_raw(
                                    slot as *const InlineSlot as *const (),
                                    execute_inline::<F>,
                                    JobKind::ScopedSpawn,
                                )
                            };
                            w.push_local(Job::Stack(job_ref));
                            return;
                        }
                    }
                }
            }
            // Heap path: every slot busy, oversized closure, or a spawn arriving from a
            // thread that is not a worker of this pool (which cannot push to a local deque
            // anyway).
            let boxed = Box::new(HeapSpawn { scope: self as *const Self as *const (), func: f });
            // Safety: the box's ownership transfers into the ref; execute_heap reclaims it.
            let job_ref = unsafe {
                JobRef::from_raw(
                    Box::into_raw(boxed) as *const (),
                    execute_heap::<F>,
                    JobKind::ScopedSpawn,
                )
            };
            match worker {
                Some(w) => w.push_local(Job::Stack(job_ref)),
                None => pool.inject(Job::Stack(job_ref)),
            }
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

/// Run a spawned closure and resolve the scope's bookkeeping. The latch decrement is the
/// very last touch: after it the owner may return from `scope` and invalidate the frame.
///
/// # Safety
/// `scope` must point at a live `Scope<'scope>` matching `F`'s checked lifetime, and the
/// caller must be this closure's only executor.
unsafe fn finish_spawned<'scope, F>(scope: *const (), f: F)
where
    F: FnOnce(&Scope<'scope>) + Send + 'scope,
{
    let scope = &*(scope as *const Scope<'scope>);
    // The scope's fork-time token rides along to whichever worker runs the task, so a
    // deadline set on the submitting job cancels its scoped fan-out too.
    // Safety (`inherit`): `scope` waits for the latch this task decrements last.
    let _token = cancel::inherit(scope.cancel);
    let result = panic::catch_unwind(AssertUnwindSafe(|| f(scope)));
    if let Err(payload) = result {
        scope.record_panic(payload);
    }
    scope.latch.set_one();
}

/// Type-erased executor for an inline-slot spawn: move the closure out, release the slot
/// for reuse, then run.
///
/// # Safety
/// `data` must be the slot this `F` was written into, still owned by exactly one queued ref.
unsafe fn execute_inline<'scope, F>(data: *const ())
where
    F: FnOnce(&Scope<'scope>) + Send + 'scope,
{
    let slot = &*(data as *const InlineSlot);
    let f = (slot.storage.get() as *mut F).read();
    let scope = *slot.scope.get();
    // Release after the closure bytes are moved out: a concurrent spawn may now reuse the
    // slot even while `f` is still running.
    slot.claimed.store(false, Ordering::Release);
    finish_spawned(scope, f);
}

/// Type-erased executor for a boxed spawn: reclaim the box, then run.
///
/// # Safety
/// `data` must be the `Box<HeapSpawn<F>>` this ref was created from.
unsafe fn execute_heap<'scope, F>(data: *const ())
where
    F: FnOnce(&Scope<'scope>) + Send + 'scope,
{
    let spawn = Box::from_raw(data as *mut HeapSpawn<F>);
    finish_spawned(spawn.scope, spawn.func);
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
        s.bind_slots();
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
    use std::sync::atomic::AtomicU64;

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
                // More spawns than inline slots: exercises the boxed path too.
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

    #[test]
    fn oversized_closures_take_the_heap_path_and_still_run() {
        let pool = ThreadPool::new(2);
        let total = pool.install(|| {
            let big = [7u8; 2 * INLINE_BYTES];
            let total = AtomicU64::new(0);
            let sink = &total;
            scope(|s| {
                // `move` captures the whole array by value: the closure cannot fit a slot.
                s.spawn(move |_| {
                    sink.fetch_add(big.iter().map(|&b| b as u64).sum(), Ordering::Relaxed);
                });
            });
            total.load(Ordering::Relaxed)
        });
        assert_eq!(total, 7 * 2 * INLINE_BYTES as u64);
    }
}
