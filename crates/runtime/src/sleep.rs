//! Every blocking wait in the crate, and the idle worker's way down to one.
//!
//! [`EventCount`] is the one way a thread of this crate goes to sleep: an idle worker, the
//! owner of a stolen branch, a `Block` submitter, a `JobHandle` waiter, the supervisor, a
//! shutdown drain, an installer, a supervision waiter. `docs/ARCHITECTURE.md` ("Every
//! blocking wait") lists each instance with who waits, who wakes, the timeout and whether
//! the wake is fenced. [`SleepBackoff`] is the spin → yield ladder an idle worker climbs
//! before it parks on the pool's instance.

use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// How long a parked worker waits before re-checking for work on its own: the backstop for
/// the fork path's unfenced [`EventCount::notify`].
pub(crate) const PARK_BACKSTOP: Duration = Duration::from_millis(1);

/// Shape of the idle protocol's spin→yield→park schedule.
///
/// Each idle *round* is one full work-finding sweep (own deque, injector, random victims) —
/// the expensive part of idling, since every sweep hammers other workers' deque indices.
/// The schedule therefore backs off **between sweeps** exponentially: round `i` of the
/// first `spin_rounds` busy-spins `2^min(i - 1, spin_cap_shift)` pause cycles, the next
/// `yield_rounds` rounds yield the OS slice, and after that the worker parks on the pool's
/// [`EventCount`], where it costs nothing.
pub(crate) struct SleepBackoff {
    /// Exponential busy-spin rounds (work-finding sweeps) before yielding.
    pub(crate) spin_rounds: u32,
    /// Cap on the per-round spin exponent.
    spin_cap_shift: u32,
    /// `thread::yield_now` rounds after the spin rounds, before parking.
    yield_rounds: u32,
}

/// The schedule every pool runs: 6 spin rounds doubling from 1 to 32 pause cycles, then 3
/// yields, then park.
pub(crate) const BACKOFF: SleepBackoff =
    SleepBackoff { spin_rounds: 6, spin_cap_shift: 5, yield_rounds: 3 };

impl SleepBackoff {
    /// Rounds an idle worker survives before parking.
    pub(crate) fn rounds_before_park(&self) -> u32 {
        self.spin_rounds + self.yield_rounds
    }

    /// Busy-spin `std::hint::spin_loop` iterations for 1-based idle round `round`
    /// (saturating at `2^spin_cap_shift`); 0 for rounds past the spin phase.
    pub(crate) fn spins_for_round(&self, round: u32) -> u32 {
        if round == 0 || round > self.spin_rounds {
            0
        } else {
            1u32 << (round - 1).min(self.spin_cap_shift)
        }
    }
}

/// A condition to sleep on whose wakers make no system call while nobody sleeps.
///
/// A waker changes what waiters wait for and then calls [`EventCount::wake_one`] or
/// [`EventCount::wake_all`]: full fence, *then* a look at the waiter count. A waiter
/// registers, issues a full fence, reads the epoch and looks at the condition once more
/// before it blocks ([`EventCount::wait_unless`]). Dekker's handshake: either the waker sees
/// the registration — and bumps the epoch under the lock, which the waiter then finds moved
/// or is woken from — or the waiter's last look sees the change. The notify happens outside
/// the lock, so the woken thread finds it free.
///
/// [`EventCount::notify`] is the one unfenced wake: the fork path's, see there.
#[derive(Debug, Default)]
pub(crate) struct EventCount {
    /// Threads registered in [`EventCount::wait_unless`]. Wakers skip all locking while
    /// this is zero.
    waiters: AtomicUsize,
    /// Bumped by every wake that found a waiter; a waiter sleeps only while it holds the
    /// value read before its last look.
    epoch: Mutex<u64>,
    condvar: Condvar,
}

impl EventCount {
    /// Threads currently registered as (about to be) waiting. Test/diagnostic use.
    pub(crate) fn waiters(&self) -> usize {
        self.waiters.load(Ordering::Acquire)
    }

    /// Wakes issued to a registered waiter so far (the epoch; wraps). Test/diagnostic use.
    pub(crate) fn events(&self) -> u64 {
        *self.epoch.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The fork path's wake: one `Relaxed` load and, only for a registered waiter, a wake of
    /// **one** — one pushed job needs one thief, and waking everyone per fork would turn a
    /// deep serial recursion into a thundering herd.
    ///
    /// Unfenced on purpose, the one wake in the crate that is: the load can pass the push
    /// still in the store buffer (StoreLoad) while a waiter makes its last look, and that
    /// waiter then sleeps out its timeout. Closing it would cost a full fence on **every
    /// fork**. What it can lose is the wake of a *thief*: the pushed job belongs to a worker
    /// that is awake and pops it itself, nobody waits on the thief, and the pool parks with
    /// a [`PARK_BACKSTOP`] timeout.
    #[inline]
    pub(crate) fn notify(&self) {
        if self.waiters.load(Ordering::Relaxed) > 0 {
            self.signal_one();
        }
    }

    /// Wake one waiter, if one is registered. Call after publishing what it waits for.
    pub(crate) fn wake_one(&self) {
        fence(Ordering::SeqCst);
        self.notify();
    }

    /// Wake every waiter, if one is registered. Call after publishing what they wait for;
    /// for waits on conditions of their own (a latch, a job's outcome) sharing one
    /// instance, where the waiter that cares may not be the one a single wake would pick.
    pub(crate) fn wake_all(&self) {
        fence(Ordering::SeqCst);
        if self.waiters.load(Ordering::Relaxed) > 0 {
            self.bump();
            self.condvar.notify_all();
        }
    }

    /// The lock-and-signal half of [`EventCount::notify`], out of line so the inlined half
    /// is one load and one untaken branch per fork.
    #[cold]
    #[inline(never)]
    fn signal_one(&self) {
        self.bump();
        self.condvar.notify_one();
    }

    fn bump(&self) {
        let mut epoch = self.epoch.lock().unwrap_or_else(|e| e.into_inner());
        *epoch = epoch.wrapping_add(1);
    }

    /// Block for at most `timeout`, unless `ready()` holds at the last look before blocking.
    ///
    /// Returns `true` when the wait ended meaningfully — `ready` held, or a wake arrived —
    /// and `false` when only the timeout fired, so a caller can tell a timed re-check from
    /// a wake (the pool counts its backstop wakes). Either way the caller re-checks its
    /// condition: a wake meant for another waiter of the same instance also ends the wait.
    pub(crate) fn wait_unless(&self, timeout: Duration, ready: impl FnOnce() -> bool) -> bool {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        // Registration before the last look, in the one total order of `SeqCst` fences:
        // pairs with the fence a waker issues between its publish and its waiter-count load.
        fence(Ordering::SeqCst);
        // Taking the lock orders this read after any bump already made, so whatever was
        // published before that bump is visible to `ready`.
        let observed = *self.epoch.lock().unwrap_or_else(|e| e.into_inner());
        let notified = ready() || {
            let epoch = self.epoch.lock().unwrap_or_else(|e| e.into_inner());
            let (_epoch, result) = self
                .condvar
                .wait_timeout_while(epoch, timeout, |epoch| *epoch == observed)
                .unwrap_or_else(|e| e.into_inner());
            !result.timed_out()
        };
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        notified
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;
    use std::time::Instant;

    #[test]
    fn notify_wakes_a_sleeper() {
        // Each of the three wakes, issued after the flag flips, ends a wait that would
        // otherwise last 30 s — and reports it as a wake, not a timeout.
        let wakes: [fn(&EventCount); 3] =
            [EventCount::notify, EventCount::wake_one, EventCount::wake_all];
        for wake in wakes {
            let events = Arc::new(EventCount::default());
            let flag = Arc::new(AtomicBool::new(false));
            let (e, f) = (Arc::clone(&events), Arc::clone(&flag));
            let waiter = thread::spawn(move || {
                e.wait_unless(Duration::from_secs(30), || f.load(Ordering::Acquire))
            });
            // Wait for registration so the wake below cannot be skipped as waiter-less.
            while events.waiters() == 0 {
                thread::yield_now();
            }
            flag.store(true, Ordering::Release);
            wake(&events);
            assert!(waiter.join().unwrap(), "the wake must end the wait as notified");
            assert_eq!(events.waiters(), 0);
        }
    }

    #[test]
    fn ready_check_short_circuits_the_park() {
        let events = EventCount::default();
        assert!(events.wait_unless(Duration::from_secs(30), || true));
        assert_eq!(events.waiters(), 0);
    }

    #[test]
    fn a_timeout_returns_not_notified() {
        let events = EventCount::default();
        let start = Instant::now();
        assert!(!events.wait_unless(Duration::from_millis(5), || false));
        assert!(start.elapsed() >= Duration::from_millis(5));
        assert_eq!(events.waiters(), 0);
    }

    #[test]
    fn notify_without_sleepers_is_cheap_and_harmless() {
        let events = EventCount::default();
        for _ in 0..1000 {
            events.notify();
            events.wake_one();
            events.wake_all();
        }
        assert_eq!(events.events(), 0, "no waiter, no epoch bump, no system call");
    }

    #[test]
    fn backoff_schedule_is_exponential_then_capped() {
        let bk = SleepBackoff { spin_rounds: 6, spin_cap_shift: 4, yield_rounds: 2 };
        assert_eq!(
            (1..=8).map(|r| bk.spins_for_round(r)).collect::<Vec<_>>(),
            vec![1, 2, 4, 8, 16, 16, 0, 0],
            "doubling spins, capped at 2^spin_cap_shift, zero in the yield phase"
        );
        assert_eq!(bk.rounds_before_park(), 8);
    }
}
