//! The pool's spin-then-park idle protocol.
//!
//! An idle worker used to `thread::yield_now()` forever, burning a full core per idle
//! worker. Now it spins a bounded number of rounds (work usually arrives within
//! microseconds under recursive fork-join) and then **parks** on a condvar guarded by an
//! event counter. The other half of the contract is deliberately asymmetric, because
//! producers are the hot path:
//!
//! * A forking worker (deque push) does a single `Relaxed` load of the sleeper count; only
//!   if somebody is actually parked does it take the lock, bump the event counter and
//!   notify — so while the pool is busy, waking costs one untaken branch per fork.
//! * A would-be sleeper first registers in `sleepers` (`SeqCst`), issues a full fence,
//!   re-reads the event counter, runs its final work check, and only then waits — a
//!   producer that bumps the counter after that read is observed by the waiter, and work
//!   published before a bump the sleeper did read is visible to its final check.
//! * A producer off the fork path — a root job pushed into the injector
//!   ([`Sleep::notify_fenced`]), the completion of a stolen `join` branch or of a scope
//!   (`job.rs`) — publishes, issues a full fence, and *then* loads the sleeper count. With
//!   the sleeper's fence that is Dekker's handshake: either the producer sees the sleeper
//!   and wakes it, or the sleeper's final check sees what was published. These are the
//!   wakes somebody is waiting for — a submitted job, the owner of a stolen branch — and
//!   none of them can be lost; they happen once per root job, stolen branch or scope, where
//!   a fence costs a tenth of the broadcast it makes conditional.
//!
//! One window is left open on purpose: the fork path's `push_local` → [`Sleep::notify`]
//! (and the same call where a thief announces the surplus of a batch steal).
//! The forking worker's relaxed sleeper-count load can race a sleeper's registration
//! (StoreLoad reordering — the push may still sit in the store buffer when the sleeper makes
//! its final check), and closing it would cost a full fence on **every fork**, which is
//! exactly the overhead this module exists to avoid. What that race can lose is the wake of
//! a *thief*: the pushed job still belongs to a worker that is awake and will pop it itself,
//! nobody waits on the sleeper, and every park uses a short `wait_timeout`, so the cost is
//! one idle worker joining in up to a millisecond late.

use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// How long a parked worker waits before re-checking for work on its own (the backstop for
/// the fork path's relaxed load; see the module docs).
const PARK_BACKSTOP: Duration = Duration::from_millis(1);

/// Shape of the idle protocol's spin→yield→park schedule.
///
/// Each idle *round* is one full work-finding sweep (own deque, injector, random victims) —
/// the expensive part of idling, since every sweep hammers other workers' deque indices.
/// The schedule therefore backs off **between sweeps** exponentially: round `i` of the
/// first `spin_rounds` busy-spins `2^min(i - 1, spin_cap_shift)` pause cycles, the next
/// `yield_rounds` rounds yield the OS slice, and after that the worker parks on the pool's
/// `Sleep` protocol, where it costs nothing.
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

/// Shared sleep state: an event counter under a mutex, a condvar, and the sleeper count
/// producers check.
#[derive(Debug, Default)]
pub(crate) struct Sleep {
    /// Number of workers registered as (about to be) parked. Producers skip all locking
    /// while this is zero.
    sleepers: AtomicUsize,
    /// Bumped on every notification; a sleeper only waits while the counter holds the value
    /// it read before its final work check.
    event: Mutex<u64>,
    condvar: Condvar,
}

impl Sleep {
    pub(crate) fn new() -> Self {
        Sleep::default()
    }

    /// Number of currently parked (or registering) workers. Test/diagnostic use.
    pub(crate) fn sleepers(&self) -> usize {
        self.sleepers.load(Ordering::Acquire)
    }

    /// Notifications issued so far (the event counter; wraps). Test/diagnostic use.
    pub(crate) fn events(&self) -> u64 {
        *self.event.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Hot-path wakeup for one newly published job: no-op unless somebody is parked, and
    /// then wakes a **single** sleeper — one job needs one thief, and waking the whole
    /// pool per fork would turn a deep serial recursion (everyone else parked) into a
    /// thundering herd. Any remaining sleepers are covered by later notifies and the
    /// backstop timeout.
    #[inline]
    pub(crate) fn notify(&self) {
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            self.wake_one();
        }
    }

    /// Wakeup for work published off the fork path (a root job pushed into the injector):
    /// full fence, *then* look — the submitter's half of the Dekker handshake whose other
    /// half is the fence in [`Sleep::sleep_unless`]. Either this load sees the sleeper
    /// and wakes it, or the sleeper's final work check sees the push; a wake is never
    /// lost, and none is issued when every worker is awake.
    pub(crate) fn notify_fenced(&self) {
        fence(Ordering::SeqCst);
        self.notify();
    }

    /// The lock-and-signal half of [`Sleep::notify`], out of line so the inlined half is
    /// one load and one untaken branch per fork.
    #[cold]
    #[inline(never)]
    fn wake_one(&self) {
        let mut event = self.event.lock().unwrap_or_else(|e| e.into_inner());
        *event = event.wrapping_add(1);
        drop(event);
        self.condvar.notify_one();
    }

    /// Unconditional broadcast wakeup (shutdown, the respawn drain, and latch completions —
    /// where the one waiter that matters may not be the one `notify_one` would pick).
    pub(crate) fn notify_all_now(&self) {
        let mut event = self.event.lock().unwrap_or_else(|e| e.into_inner());
        *event = event.wrapping_add(1);
        drop(event);
        self.condvar.notify_all();
    }

    /// Park the calling worker until notified (or the backstop timeout), unless `ready`
    /// turns true in the final pre-sleep check. `ready` is re-evaluated once per wakeup.
    ///
    /// Returns `true` when the wakeup was meaningful — `ready` held before sleeping, or a
    /// notification arrived — and `false` when only the backstop timer fired, so the
    /// caller can treat a backstop recheck differently (one quiet rescan, no spin burst,
    /// no steal-failure accounting).
    ///
    /// Locking the event mutex here synchronizes with producers' counter bumps, so work
    /// published before a bump we observe is visible to `ready`.
    pub(crate) fn sleep_unless(&self, mut ready: impl FnMut() -> bool) -> bool {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        // Registration before the final look at the queues, in the one total order of
        // `SeqCst` fences: pairs with the fence a publisher issues between its push and
        // its sleeper-count load (`notify_fenced`, the latches in `job.rs`).
        fence(Ordering::SeqCst);
        let observed = *self.event.lock().unwrap_or_else(|e| e.into_inner());
        let mut notified = true;
        if !ready() {
            let mut event = self.event.lock().unwrap_or_else(|e| e.into_inner());
            while *event == observed {
                let (guard, timeout) = self
                    .condvar
                    .wait_timeout(event, PARK_BACKSTOP)
                    .unwrap_or_else(|e| e.into_inner());
                event = guard;
                if timeout.timed_out() {
                    notified = false;
                    break;
                }
            }
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        notified
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn notify_wakes_a_sleeper() {
        let sleep = Arc::new(Sleep::new());
        let woke = Arc::new(AtomicBool::new(false));
        let s = Arc::clone(&sleep);
        let w = Arc::clone(&woke);
        let h = thread::spawn(move || {
            // Sleep until the flag is set; each backstop wakeup re-checks.
            while !w.load(Ordering::Acquire) {
                s.sleep_unless(|| w.load(Ordering::Acquire));
            }
        });
        // Wait until the worker registers, then publish + notify.
        while sleep.sleepers() == 0 {
            thread::yield_now();
        }
        woke.store(true, Ordering::Release);
        sleep.notify();
        h.join().unwrap();
        assert_eq!(sleep.sleepers(), 0);
    }

    #[test]
    fn ready_check_short_circuits_the_park() {
        let sleep = Sleep::new();
        // ready() is true immediately: must return without any notification.
        sleep.sleep_unless(|| true);
        assert_eq!(sleep.sleepers(), 0);
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

    #[test]
    fn notify_without_sleepers_is_cheap_and_harmless() {
        let sleep = Sleep::new();
        for _ in 0..1000 {
            sleep.notify();
        }
        // And an unconditional notify with nobody parked is fine too.
        sleep.notify_all_now();
    }
}
