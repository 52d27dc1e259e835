//! Life cycle of the thread's worker word: which pool (if any) a `join` forks on.
//!
//! The word is set for exactly the life of a worker's scheduling loop, so: a thread that is
//! not a worker forks on nothing (sequential), a closure installed on pool `b` from a worker
//! of pool `a` forks on `b`, and a closure installed on the pool it already runs on stays
//! inline on that worker.

use rws_runtime::{current_num_threads, join, scope, ThreadPool};
use std::sync::Arc;
use std::thread::{self, ThreadId};

const LEAF: u64 = 64;
/// Forks `recursive_sum(0, N)` makes.
const FORKS: u64 = (1 << 8) - 1;
const N: u64 = LEAF * (FORKS + 1);
const SUM: u64 = N * (N - 1) / 2;

fn recursive_sum(lo: u64, hi: u64) -> u64 {
    if hi - lo <= LEAF {
        return (lo..hi).sum();
    }
    let mid = lo + (hi - lo) / 2;
    let (a, b) = join(move || recursive_sum(lo, mid), move || recursive_sum(mid, hi));
    a + b
}

/// Where `join`'s two branches and a `scope` spawn ran, and what the thread thinks its
/// pool's size is.
fn fork_sites() -> (ThreadId, ThreadId, ThreadId, usize) {
    let (a, b) = join(|| thread::current().id(), || thread::current().id());
    let mut spawned = None;
    scope(|s| s.spawn(|_| spawned = Some(thread::current().id())));
    (a, b, spawned.expect("scope waits for its spawn"), current_num_threads())
}

#[test]
fn a_plain_thread_forks_sequentially_before_and_after_it_owned_a_pool() {
    let me = thread::current().id();
    assert_eq!(fork_sites(), (me, me, me, 1), "never had a pool");
    let pool = ThreadPool::new(2);
    assert_eq!(pool.install(|| recursive_sum(0, N)), SUM);
    assert_eq!(fork_sites(), (me, me, me, 1), "owning a pool does not make a worker");
    drop(pool);
    assert_eq!(fork_sites(), (me, me, me, 1), "pool dropped");
    assert_eq!(recursive_sum(0, N), SUM);
}

#[test]
fn install_on_another_pool_forks_on_that_pool() {
    let a = ThreadPool::new(1);
    let b = Arc::new(ThreadPool::new(1));
    let inner = Arc::clone(&b);
    let (a_before, b_before) =
        (a.stats().snapshot().total_jobs(), b.stats().snapshot().total_jobs());
    assert_eq!(a.install(move || inner.install(|| recursive_sum(0, N))), SUM);
    assert_eq!(
        a.stats().snapshot().total_jobs() - a_before,
        1,
        "a ran the outer closure and nothing else"
    );
    assert_eq!(
        b.stats().snapshot().total_jobs() - b_before,
        FORKS + 1,
        "every fork went to b's deque"
    );
}

#[test]
fn nested_install_on_the_same_pool_forks_inline_on_the_same_worker() {
    let pool = Arc::new(ThreadPool::new(1));
    let inner = Arc::clone(&pool);
    let before = pool.stats().snapshot().total_jobs();
    assert_eq!(pool.install(move || inner.install(|| recursive_sum(0, N))), SUM);
    assert_eq!(
        pool.stats().snapshot().total_jobs() - before,
        FORKS + 1,
        "one root: the inner install queued nothing"
    );
}
