//! Cooperative cancellation for service-mode jobs.
//!
//! A service job's deadline is one flag in the job's own state, which the job server raises
//! when the deadline passes; the running job observes it at **fork points** — `join`
//! entry, `Scope::spawn`, and therefore every `par_chunks_mut` grain boundary, since the
//! parallel iterator splits through `join`. The observation unwinds the job with a private
//! `CancelPayload` that rides the existing panic plumbing (stack-job capture, scope
//! aggregation, first-payload-wins) up to the job-server's root wrapper, which settles it
//! as [`JobOutcome::Deadline`] instead of a worker-visible panic. Code outside service mode
//! never pays more than a thread-local read per fork: with no flag installed a fork is one
//! load of the thread's token word and one null test. The word only ever **borrows** the
//! flag: the root wrapper installs it for the job's run (`under`), a fork copies the word
//! into its branch (`ForkToken`), and whoever runs that branch installs the copy for the
//! branch's run — nothing counts references, nothing allocates.
//!
//! Cancellation is **cooperative**: a job that never forks after the flag is raised runs
//! to completion, and whichever terminal event lands first — the job's own return, a real
//! panic, or the cancellation unwind — wins the outcome exactly once (the server arbitrates
//! with a single compare-and-swap). That is the semantics the chaos harness pins down with
//! its panic-vs-deadline race tests.
//!
//! [`JobOutcome::Deadline`]: crate::service::JobOutcome::Deadline

// The unsafe here is the thread's token word: a raw pointer to a flag its installer keeps
// alive for as long as the word holds it (the invariant is stated on `CURRENT`).
#![allow(unsafe_code)]

use std::cell::Cell;
use std::panic;
use std::ptr;
use std::sync::atomic::{AtomicBool, Ordering};

/// The unwind payload a cancellation point throws. Private to the crate: the service's
/// root-job wrapper downcasts it back out of the panic plumbing; anything else that
/// catches it (a user's `catch_unwind`) simply swallows the cancellation, which is the
/// documented cooperative contract.
pub(crate) struct CancelPayload;

thread_local! {
    /// The calling thread's token word: null when no deadline applies, otherwise a pointer
    /// to the running job's flag, **borrowed** for the life of the [`TokenGuard`] that
    /// installed it (by [`under`], or by [`install`] for a forked branch). One word,
    /// `const`-initialised and without a destructor, so a fork reads it with a plain
    /// thread-local load; it owns nothing, and guards are stack-scoped, so by thread exit
    /// every guard has dropped and the word is null again.
    static CURRENT: Cell<*const AtomicBool> = const { Cell::new(ptr::null()) };
}

/// Whether the calling code's deadline has passed: `Some(raised)` inside a service job
/// (a job submitted without a deadline reads `Some(false)` throughout), `None` where no
/// job's flag is installed — outside a service job, or in work handed over with no
/// deadline, such as an installed closure.
pub fn is_cancelled() -> Option<bool> {
    let word = CURRENT.get();
    // SAFETY: a non-null word points at a flag its installer keeps alive (see `CURRENT`).
    (!word.is_null()).then(|| unsafe { (*word).load(Ordering::Relaxed) })
}

/// What a fork captures for the forked branch: the forking thread's token word as it
/// stood at the fork. Whoever runs the branch on another thread installs it with
/// [`install`].
///
/// The borrow is good for as long as the guard that installed the word on the forking
/// thread is alive. Guards are stack-scoped and crate-private, and both `join` and `scope`
/// return only after every branch they forked has finished, so a branch never outlives
/// the guard its fork ran under.
#[derive(Clone, Copy)]
pub(crate) struct ForkToken(*const AtomicBool);

impl ForkToken {
    /// The calling thread's token word as it stands: one thread-local load, no check.
    #[inline]
    pub(crate) fn capture() -> ForkToken {
        ForkToken(CURRENT.get())
    }

    /// No deadline: what a job handed over from outside any fork runs under (an installed
    /// closure).
    pub(crate) fn none() -> ForkToken {
        ForkToken(ptr::null())
    }
}

/// The cancellation point every fork goes through: one load of the thread's token word and
/// one test when no flag is installed. Under a raised flag it unwinds with the crate's
/// `CancelPayload`; otherwise it returns the word for the forked branch to install.
#[inline]
pub(crate) fn fork_point() -> ForkToken {
    let fork = ForkToken::capture();
    if !fork.0.is_null() {
        // SAFETY: a non-null word points at a flag its installer keeps alive (see `CURRENT`).
        if unsafe { (*fork.0).load(Ordering::Relaxed) } {
            throw_cancel();
        }
    }
    fork
}

/// RAII guard restoring the word its installer replaced. Restoration runs during unwinds
/// too, so a cancellation unwind leaves the executing worker's TLS clean.
pub(crate) struct TokenGuard {
    restore: *const AtomicBool,
}

/// Install a fork-time word on the thread about to run the forked branch, for the guard's
/// lifetime. The word is always replaced — a branch forked with no deadline runs under
/// none, whatever its runner was running under.
///
/// # Safety
/// The fork must not have returned: the guard that installed the word on the forking
/// thread is then still alive (see [`ForkToken`]), and with it the flag.
#[inline]
pub(crate) unsafe fn install(fork: ForkToken) -> TokenGuard {
    TokenGuard { restore: CURRENT.replace(fork.0) }
}

impl Drop for TokenGuard {
    #[inline]
    fn drop(&mut self) {
        // Guards drop in reverse order of creation, so the word holds what this guard
        // installed.
        CURRENT.set(self.restore);
    }
}

/// Run `f` with `flag` as the calling thread's deadline, or with none: the root wrapper
/// of a service job passes the job's flag, and work handed over with no deadline (a
/// `spawn`ed closure) passes `None`, so it never runs under a deadline of whoever helps.
pub(crate) fn under<R>(flag: Option<&AtomicBool>, f: impl FnOnce() -> R) -> R {
    // SAFETY: `flag` is borrowed for this whole call, and the guard drops before the call
    // returns or unwinds out of it.
    let _guard = unsafe { install(ForkToken(flag.map_or(ptr::null(), ptr::from_ref))) };
    f()
}

/// Cooperative cancellation point: a no-op unless the calling thread runs under a raised
/// deadline flag, in which case it unwinds with the crate's `CancelPayload`. Called at
/// every fork point; safe (and cheap — one TLS read) to call from user code for
/// finer-grained responsiveness inside long leaf computations.
#[inline]
pub fn check_cancel() {
    let _ = fork_point();
}

/// A deadline cut is not a panic: `resume_unwind` skips the panic hook, so a cut job
/// prints nothing.
#[cold]
#[inline(never)]
fn throw_cancel() -> ! {
    panic::resume_unwind(Box::new(CancelPayload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn check_cancel_is_inert_without_a_token() {
        check_cancel(); // no flag installed: must not unwind
        assert_eq!(is_cancelled(), None);
    }

    #[test]
    fn check_cancel_unwinds_under_a_cancelled_token_and_restores_tls() {
        let flag = AtomicBool::new(true);
        let result = catch_unwind(AssertUnwindSafe(|| under(Some(&flag), check_cancel)));
        let payload = result.expect_err("a raised flag must unwind the check");
        assert!(payload.is::<CancelPayload>(), "the crate's own payload");
        assert_eq!(is_cancelled(), None, "the guard must restore TLS through the unwind");
    }

    #[test]
    fn a_cancellation_unwind_runs_no_panic_hook() {
        static CANCEL_HOOKS: AtomicUsize = AtomicUsize::new(0);
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().is::<CancelPayload>() {
                CANCEL_HOOKS.fetch_add(1, Ordering::Relaxed);
            }
            previous(info);
        }));
        let flag = AtomicBool::new(true);
        let cut = catch_unwind(AssertUnwindSafe(|| under(Some(&flag), check_cancel)));
        assert!(cut.expect_err("a raised flag must unwind the check").is::<CancelPayload>());
        assert_eq!(CANCEL_HOOKS.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn inheriting_no_token_installs_nothing() {
        let flag = AtomicBool::new(false);
        under(Some(&flag), || {
            // SAFETY: a null fork token borrows nothing.
            let _none = unsafe { install(ForkToken::none()) };
            assert_eq!(is_cancelled(), None, "no deadline replaces the runner's");
            assert_eq!(fork_point().0, ptr::null(), "and a fork under it captures none");
        });
        assert_eq!(is_cancelled(), None);
    }

    #[test]
    fn guards_nest_and_restore() {
        let outer = AtomicBool::new(false);
        let inner = AtomicBool::new(false);
        under(Some(&outer), || {
            under(Some(&inner), || {
                assert_eq!(is_cancelled(), Some(false));
                inner.store(true, Ordering::Relaxed);
                assert_eq!(is_cancelled(), Some(true));
                // A branch forked here and run elsewhere sees the same flag.
                // SAFETY: the fork's installer (`under` above) is alive.
                let _thief = unsafe { install(ForkToken::capture()) };
                assert_eq!(is_cancelled(), Some(true));
            });
            // Back to the outer flag, which is still down.
            assert_eq!(is_cancelled(), Some(false));
        });
        assert_eq!(is_cancelled(), None);
    }
}
