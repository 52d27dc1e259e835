//! Deterministic fault injection for the chaos harness.
//!
//! A [`FaultPlan`] is a compiled-in, **default-off** schedule of what happens to a worker
//! mid-sweep — the one kind of failure only the runtime can inject: worker deaths and
//! worker stalls. Both are keyed on one monotone counter, the pool-wide scheduling-sweep
//! count, so a chaos run is reproducible: the same scenario claims the same deaths and
//! stalls at the same logical points, regardless of thread timing. A pool without a plan
//! pays one `Option` test per worker sweep (branch predicted never-taken) and nothing on
//! the fork hot path or per submitted job.
//!
//! The traffic a chaos run sends — which jobs panic, when an injector storm hits — is the
//! harness's own business (`rws-lab`'s `chaos` module generates it); the harness then
//! verifies that the service-mode invariants survive both: no accepted job lost or run
//! twice, every submission reaching a terminal outcome, the server staying live after
//! every injected death.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// What the fault plan asks of a worker at one scheduling sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerFault {
    /// Carry on.
    None,
    /// Sleep for the given duration mid-sweep (a GC pause / noisy-neighbor stand-in).
    Stall(Duration),
    /// Unwind out of the worker's scheduling loop as if it crashed (`resume_unwind`, so
    /// no panic hook runs). `worker_loop` catches the unwind and restarts the loop on the
    /// same thread and deque; the jobs queued there stay stealable meanwhile and run after
    /// the restart.
    Die,
}

/// Declarative description of the faults to inject — the plain-data half of a plan,
/// parsed from a chaos scenario. All zero/empty fields mean "don't".
#[derive(Clone, Debug, Default)]
pub struct FaultSpec {
    /// Global scheduling-sweep counts at which one worker (whichever FAAs past the
    /// threshold first) dies. Need not be sorted; the plan sorts them.
    pub death_sweeps: Vec<u64>,
    /// Stall one worker every `stall_every` global sweeps (0 = never).
    pub stall_every: u64,
    /// How long a stalled worker sleeps.
    pub stall: Duration,
    /// Cap on injected stalls (so a long run isn't dominated by sleep).
    pub max_stalls: u64,
}

/// A live, concurrently-pollable fault schedule built from a [`FaultSpec`].
#[derive(Debug)]
pub struct FaultPlan {
    /// Sorted global-sweep thresholds; `deaths_done` indexes the next one to fire.
    death_sweeps: Vec<u64>,
    deaths_done: AtomicUsize,
    stall_every: u64,
    stall: Duration,
    max_stalls: u64,
    stalls_done: AtomicU64,
    /// Global scheduling-sweep counter, FAA'd by every worker's poll.
    sweeps: AtomicU64,
}

impl FaultPlan {
    /// Compile a spec into a pollable plan.
    pub fn new(spec: FaultSpec) -> Self {
        let mut death_sweeps = spec.death_sweeps;
        death_sweeps.sort_unstable();
        FaultPlan {
            death_sweeps,
            deaths_done: AtomicUsize::new(0),
            stall_every: spec.stall_every,
            stall: spec.stall,
            max_stalls: spec.max_stalls,
            stalls_done: AtomicU64::new(0),
            sweeps: AtomicU64::new(0),
        }
    }

    /// Poll from a worker's scheduling sweep: advance the global sweep counter and claim
    /// any fault due at this sweep. At most one worker claims each death (CAS on the
    /// death cursor), so `death_sweeps.len()` deaths total are injected no matter how many
    /// workers race past the thresholds. A claimed death always restarts its worker's loop
    /// before the worker can exit, so once a pool's workers are joined every claimed death
    /// is in its respawn count.
    pub fn poll_worker_sweep(&self) -> WorkerFault {
        let sweep = self.sweeps.fetch_add(1, Ordering::Relaxed);
        let done = self.deaths_done.load(Ordering::Relaxed);
        if done < self.death_sweeps.len()
            && sweep >= self.death_sweeps[done]
            && self
                .deaths_done
                .compare_exchange(done, done + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            return WorkerFault::Die;
        }
        if self.stall_every > 0
            && sweep % self.stall_every == self.stall_every - 1
            && self.stalls_done.fetch_add(1, Ordering::Relaxed) < self.max_stalls
        {
            return WorkerFault::Stall(self.stall);
        }
        WorkerFault::None
    }

    /// Worker deaths injected so far.
    pub fn deaths_injected(&self) -> usize {
        self.deaths_done.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn no_spec_means_no_faults() {
        let plan = FaultPlan::new(FaultSpec::default());
        for _ in 0..10_000 {
            assert_eq!(plan.poll_worker_sweep(), WorkerFault::None);
        }
    }

    #[test]
    fn each_death_fires_exactly_once_across_racing_workers() {
        let plan = Arc::new(FaultPlan::new(FaultSpec {
            death_sweeps: vec![100, 200, 300],
            ..FaultSpec::default()
        }));
        let deaths: usize = thread::scope(|s| {
            (0..4)
                .map(|_| {
                    let plan = Arc::clone(&plan);
                    s.spawn(move || {
                        let mut mine = 0;
                        for _ in 0..1_000 {
                            if plan.poll_worker_sweep() == WorkerFault::Die {
                                mine += 1;
                            }
                        }
                        mine
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(deaths, 3, "every planned death fires exactly once");
        assert_eq!(plan.deaths_injected(), 3);
    }

    #[test]
    fn stalls_respect_cadence_and_cap() {
        let plan = FaultPlan::new(FaultSpec {
            stall_every: 10,
            stall: Duration::from_millis(1),
            max_stalls: 3,
            ..FaultSpec::default()
        });
        let stalls = (0..1_000)
            .filter(|_| matches!(plan.poll_worker_sweep(), WorkerFault::Stall(_)))
            .count();
        assert_eq!(stalls, 3, "the cap bounds injected stalls");
    }
}
