//! Cooperative cancellation for service-mode jobs.
//!
//! A [`CancelToken`] is a shared flag the job server flips when a job's deadline passes;
//! the running job observes it at **fork points** — `join` entry, `Scope::spawn`, and
//! therefore every `par_chunks_mut` grain boundary, since the parallel iterator splits
//! through `join`. The observation unwinds the job with a private `CancelPayload` that
//! rides the existing panic plumbing (stack-job capture, scope aggregation,
//! first-payload-wins) up to the job-server's root wrapper, which settles it as
//! [`JobOutcome::Deadline`] instead of a worker-visible panic. Code outside service mode
//! never pays more than a thread-local read per fork: with no token installed a fork is one
//! load of the thread's token word and one null test, and under a token it still clones
//! nothing — the forked branch borrows the word (`ForkToken`) and only a thief that runs it
//! elsewhere takes a count. Installing a token is free of allocation (the `Arc`'s pointer
//! moves into the slot).
//!
//! Cancellation is **cooperative**: a job that never forks after the flag flips runs to
//! completion, and whichever terminal event lands first — the job's own return, a real
//! panic, or the cancellation unwind — wins the outcome exactly once (the server arbitrates
//! with a single compare-and-swap). That is the semantics the chaos harness pins down with
//! its panic-vs-deadline race tests.
//!
//! [`JobOutcome::Deadline`]: crate::service::JobOutcome::Deadline

// The unsafe here is the thread's token word: a raw `Arc` pointer whose count `enter` /
// `inherit` take and `TokenGuard` gives back (the invariant is stated on `CURRENT`).
#![allow(unsafe_code)]

use std::cell::Cell;
use std::panic;
use std::ptr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[derive(Debug, Default)]
struct CancelInner {
    cancelled: AtomicBool,
}

/// A shared cancellation flag: live until the job server cancels it, cancelled from then on.
/// Cloning shares the flag (it does not fork it).
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl CancelToken {
    /// A fresh, live token.
    pub(crate) fn new() -> Self {
        CancelToken { inner: Arc::default() }
    }

    /// Flip the flag. Idempotent. Relaxed: the flag publishes no other data — a reader only
    /// unwinds on it, and the outcome it settles is arbitrated by the job's own CAS.
    pub(crate) fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the token has been cancelled (relaxed — the cancellation points re-check).
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }
}

/// The unwind payload a cancellation point throws. Private to the crate: the service's
/// root-job wrapper downcasts it back out of the panic plumbing; anything else that
/// catches it (a user's `catch_unwind`) simply swallows the cancellation, which is the
/// documented cooperative contract.
pub(crate) struct CancelPayload;

thread_local! {
    /// The calling thread's token: null when none is installed, otherwise a pointer that
    /// **owns one strong count** of the token's `Arc` (taken by [`enter`] or [`inherit`],
    /// given back by the [`TokenGuard`]). One word, `const`-initialised and without a
    /// destructor, so a fork reads it with a plain thread-local load; no destructor is
    /// needed because guards are stack-scoped — by thread exit every guard has dropped and
    /// the slot is null again.
    static CURRENT: Cell<*const CancelInner> = const { Cell::new(ptr::null()) };
}

/// The token installed on the calling thread, if any (i.e. the calling code is running
/// under a service-mode job that can be cancelled).
#[inline]
pub fn current_token() -> Option<CancelToken> {
    let inner = CURRENT.get();
    if inner.is_null() {
        return None;
    }
    // SAFETY: a non-null slot owns a strong count of an `Arc<CancelInner>` (see `CURRENT`),
    // so the allocation is live; the caller's clone takes a count of its own.
    unsafe {
        Arc::increment_strong_count(inner);
        Some(CancelToken { inner: Arc::from_raw(inner) })
    }
}

/// What a fork captures for the forked branch: the forking thread's token word as it
/// stood at the fork, **borrowed** — no count taken, so an unstolen fork clones nothing and
/// drops nothing. Whoever runs the branch on another thread turns it into an installed
/// token with [`inherit`].
///
/// The borrow is good for as long as the guard that installed the token on the forking
/// thread is alive. Guards are stack-scoped and crate-private, and both `join` and `scope`
/// return only after every branch they forked has finished, so a branch never outlives
/// the guard its fork ran under.
#[derive(Clone, Copy)]
pub(crate) struct ForkToken(*const CancelInner);

impl ForkToken {
    /// The calling thread's token word as it stands: one thread-local load, no check.
    #[inline]
    pub(crate) fn capture() -> ForkToken {
        ForkToken(CURRENT.get())
    }
}

/// The cancellation point every fork goes through: one load of the thread's token word and
/// one test when no token is installed. Under a cancelled token it unwinds with the crate's
/// `CancelPayload`; otherwise it returns the word for the forked branch to inherit.
#[inline]
pub(crate) fn fork_point() -> ForkToken {
    let fork = ForkToken::capture();
    if !fork.0.is_null() {
        // SAFETY: a non-null slot owns a strong count (see `CURRENT`).
        if unsafe { (*fork.0).cancelled.load(Ordering::Relaxed) } {
            throw_cancel();
        }
    }
    fork
}

/// RAII guard restoring the previously installed token. Restoration runs during unwinds
/// too, so a cancellation unwind leaves the executing worker's TLS clean.
pub(crate) struct TokenGuard {
    /// The word to put back, when this guard installed one (`None`: an inert guard).
    restore: Option<*const CancelInner>,
}

/// Install `token` as the calling thread's current token for the guard's lifetime; the
/// slot takes over the count `token` held.
pub(crate) fn enter(token: CancelToken) -> TokenGuard {
    TokenGuard { restore: Some(CURRENT.replace(Arc::into_raw(token.inner))) }
}

/// Install a fork-time token on the thread about to run the forked branch, for the guard's
/// lifetime. With no token at the fork this is an inert guard — the non-service path
/// constructs and drops it without touching TLS.
///
/// # Safety
/// The fork must not have returned: the guard that installed the token on the forking
/// thread is then still alive (see [`ForkToken`]) and holds the count that keeps the
/// pointer valid while this thread takes its own.
#[inline]
pub(crate) unsafe fn inherit(fork: ForkToken) -> TokenGuard {
    if fork.0.is_null() {
        return TokenGuard { restore: None };
    }
    // SAFETY: the caller's contract — the forking thread's guard holds a count, so the
    // pointer is a live `Arc::into_raw` pointer.
    Arc::increment_strong_count(fork.0);
    TokenGuard { restore: Some(CURRENT.replace(fork.0)) }
}

impl Drop for TokenGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(prev) = self.restore {
            // Guards drop in reverse order of creation, so the slot holds what this guard
            // installed.
            let installed = CURRENT.replace(prev);
            // SAFETY: `installed` is non-null and owns the count `enter`/`inherit` took.
            unsafe { drop(Arc::from_raw(installed)) };
        }
    }
}

/// Cooperative cancellation point: a no-op unless the calling thread runs under a
/// cancelled token, in which case it unwinds with the crate's `CancelPayload`. Called at
/// every fork point; safe (and cheap — one TLS read) to call from user code for
/// finer-grained responsiveness inside long leaf computations.
#[inline]
pub fn check_cancel() {
    let _ = fork_point();
}

#[cold]
#[inline(never)]
fn throw_cancel() -> ! {
    panic::panic_any(CancelPayload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!t.is_cancelled());
        u.cancel();
        u.cancel();
        assert!(t.is_cancelled(), "a second cancel leaves the token cancelled");
    }

    #[test]
    fn check_cancel_is_inert_without_a_token() {
        check_cancel(); // no token installed: must not unwind
    }

    #[test]
    fn check_cancel_unwinds_under_a_cancelled_token_and_restores_tls() {
        let t = CancelToken::new();
        t.cancel();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _g = enter(t.clone());
            check_cancel();
        }));
        let payload = result.expect_err("a cancelled token must unwind the check");
        assert!(payload.is::<CancelPayload>(), "the crate's own payload");
        assert!(current_token().is_none(), "the guard must restore TLS through the unwind");
    }

    fn holders(t: &CancelToken) -> usize {
        Arc::strong_count(&t.inner)
    }

    #[test]
    fn each_guard_holds_one_count_and_a_fork_borrows_none() {
        let t = CancelToken::new();
        assert_eq!(holders(&t), 1);
        {
            let _owner = enter(t.clone());
            assert_eq!(holders(&t), 2, "the slot took over the clone's count");
            let fork = fork_point();
            assert_eq!(holders(&t), 2, "a fork borrows the word");
            {
                // SAFETY: `_owner`, the guard the fork ran under, is alive.
                let _thief = unsafe { inherit(fork) };
                assert_eq!(holders(&t), 3, "whoever runs the branch takes its own count");
                drop(current_token().expect("installed"));
            }
            assert_eq!(holders(&t), 2);
        }
        assert_eq!(holders(&t), 1, "back to the holder's own: no leak, no double drop");
        assert!(current_token().is_none());
    }

    #[test]
    fn a_cancellation_unwind_through_nested_guards_gives_every_count_back() {
        let t = CancelToken::new();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _owner = enter(t.clone());
            // SAFETY: `_owner` is alive for the whole closure.
            let _thief = unsafe { inherit(fork_point()) };
            t.cancel();
            check_cancel();
        }));
        assert!(result.is_err(), "the cancelled check unwinds");
        assert_eq!(holders(&t), 1);
        assert!(current_token().is_none());
    }

    #[test]
    fn inheriting_no_token_installs_nothing() {
        // SAFETY: a null fork token borrows nothing.
        let _inert = unsafe { inherit(fork_point()) };
        assert!(current_token().is_none());
    }

    #[test]
    fn guards_nest_and_restore() {
        let outer = CancelToken::new();
        let inner = CancelToken::new();
        {
            let _a = enter(outer.clone());
            {
                let _b = enter(inner.clone());
                assert!(!current_token().unwrap().is_cancelled());
                inner.cancel();
                assert!(current_token().unwrap().is_cancelled());
            }
            // Back to the outer token, which is still live.
            assert!(!current_token().unwrap().is_cancelled());
        }
        assert!(current_token().is_none());
    }
}
