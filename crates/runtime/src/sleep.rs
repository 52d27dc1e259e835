//! Every blocking wait in the crate, and the idle worker's way down to one.
//!
//! [`EventCount`] is the one way a thread of this crate goes to sleep: an idle worker, the
//! owner of a stolen branch, a `Block` submitter, a `JobHandle` waiter, the supervisor, a
//! shutdown drain, an installer. Every wake is fenced, and a wait ends only on a wake or on
//! its caller's own deadline: nothing re-checks on a timer. `docs/ARCHITECTURE.md` ("Every
//! blocking wait") lists each instance with who waits, who wakes and the test that fails
//! without the wake. [`SleepBackoff`] is the spin → yield ladder an idle worker climbs
//! before it parks on the pool's instance.

use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Shape of the idle protocol's spin→yield→park schedule.
///
/// Each idle *round* is one full work-finding sweep (own deque, injector, random victims) —
/// the expensive part of idling, since every sweep probes other workers' steal cells.
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
/// or is woken from — or the waiter's last look sees the change. So no wake is lost, and no
/// wait needs a timer to rescue one (`tests/sleep_model.rs` explores the handshake on
/// x86-TSO). The notify happens outside the lock, so the woken thread finds it free.
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

    /// Wake one waiter, if one is registered. Call after publishing what it waits for. One
    /// submitted or offered job needs one worker: waking everyone would turn a deep serial
    /// recursion into a thundering herd.
    pub(crate) fn wake_one(&self) {
        fence(Ordering::SeqCst);
        if self.waiters.load(Ordering::Relaxed) > 0 {
            self.bump();
            self.condvar.notify_one();
        }
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

    fn bump(&self) {
        let mut epoch = self.epoch.lock().unwrap_or_else(|e| e.into_inner());
        *epoch = epoch.wrapping_add(1);
    }

    /// Block until a wake arrives, or until `deadline` when the caller has one of its own,
    /// unless `ready()` holds at the last look before blocking. The caller re-checks its
    /// condition either way: a wake meant for another waiter of the same instance also
    /// ends the wait.
    pub(crate) fn wait_unless(&self, deadline: Option<Instant>, ready: impl FnOnce() -> bool) {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        // Registration before the last look, in the one total order of `SeqCst` fences:
        // pairs with the fence a waker issues between its publish and its waiter-count load.
        fence(Ordering::SeqCst);
        // Taking the lock orders this read after any bump already made, so whatever was
        // published before that bump is visible to `ready`.
        let observed = *self.epoch.lock().unwrap_or_else(|e| e.into_inner());
        if !ready() {
            let epoch = self.epoch.lock().unwrap_or_else(|e| e.into_inner());
            let unchanged = |epoch: &mut u64| *epoch == observed;
            // Poisoned or not, the result only hands the guard back.
            match deadline {
                None => drop(self.condvar.wait_while(epoch, unchanged)),
                Some(at) => {
                    let left = at.saturating_duration_since(Instant::now());
                    drop(self.condvar.wait_timeout_while(epoch, left, unchanged));
                }
            }
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn notify_wakes_a_sleeper() {
        // Each wake, issued after the flag flips, ends a wait that has no deadline.
        let wakes: [fn(&EventCount); 2] = [EventCount::wake_one, EventCount::wake_all];
        for wake in wakes {
            let events = Arc::new(EventCount::default());
            let flag = Arc::new(AtomicBool::new(false));
            let (e, f) = (Arc::clone(&events), Arc::clone(&flag));
            let waiter = thread::spawn(move || e.wait_unless(None, || f.load(Ordering::Acquire)));
            // Wait for registration so the wake below cannot be skipped as waiter-less.
            while events.waiters() == 0 {
                thread::yield_now();
            }
            flag.store(true, Ordering::Release);
            wake(&events);
            waiter.join().unwrap();
            assert_eq!(events.waiters(), 0);
        }
    }

    #[test]
    fn ready_check_short_circuits_the_park() {
        let events = EventCount::default();
        events.wait_unless(None, || true);
        assert_eq!(events.waiters(), 0);
    }

    #[test]
    fn a_timeout_returns_not_notified() {
        // The caller's own deadline is the one thing besides a wake that ends a wait.
        let events = EventCount::default();
        let start = Instant::now();
        events.wait_unless(Some(start + Duration::from_millis(5)), || false);
        assert!(start.elapsed() >= Duration::from_millis(5));
        assert_eq!(events.waiters(), 0);
        assert_eq!(events.events(), 0, "no wake was issued");
    }

    #[test]
    fn notify_without_sleepers_is_cheap_and_harmless() {
        let events = EventCount::default();
        for _ in 0..1000 {
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
