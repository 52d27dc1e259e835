//! Deterministic fault injection for the chaos harness.
//!
//! A [`FaultPlan`] is a compiled-in, **default-off** schedule of worker stalls — the one
//! fault only the runtime can inject, and the one the paper's machine knows: a processor
//! is delayed (a GC pause, a noisy neighbour), it never fails. Stalls are keyed on one
//! monotone counter, the pool-wide scheduling-sweep count, so a chaos run is reproducible:
//! the same scenario stalls at the same logical points, regardless of thread timing. A pool
//! without a plan pays one `Option` test per worker sweep (branch predicted never-taken) and
//! nothing on the fork hot path or per submitted job.
//!
//! The traffic a chaos run sends — which jobs panic, when an injector storm hits — is the
//! harness's own business (`rws-lab`'s `chaos` module generates it); the harness then
//! verifies that the service-mode invariants survive both: no accepted job lost or run
//! twice, every submission reaching a terminal outcome, the server staying live.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Declarative description of the stalls to inject — the plain-data half of a plan,
/// parsed from a chaos scenario. All zero fields mean "don't".
#[derive(Clone, Debug, Default)]
pub struct FaultSpec {
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
        FaultPlan {
            stall_every: spec.stall_every,
            stall: spec.stall,
            max_stalls: spec.max_stalls,
            stalls_done: AtomicU64::new(0),
            sweeps: AtomicU64::new(0),
        }
    }

    /// Poll from a worker's scheduling sweep: advance the global sweep counter and return
    /// how long to stall, if a stall is due at this sweep.
    pub fn poll_worker_sweep(&self) -> Option<Duration> {
        let sweep = self.sweeps.fetch_add(1, Ordering::Relaxed);
        (self.stall_every > 0
            && sweep % self.stall_every == self.stall_every - 1
            && self.stalls_done.fetch_add(1, Ordering::Relaxed) < self.max_stalls)
            .then_some(self.stall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_spec_means_no_faults() {
        let plan = FaultPlan::new(FaultSpec::default());
        for _ in 0..10_000 {
            assert_eq!(plan.poll_worker_sweep(), None);
        }
    }

    #[test]
    fn stalls_respect_cadence_and_cap() {
        let plan = FaultPlan::new(FaultSpec {
            stall_every: 10,
            stall: Duration::from_millis(1),
            max_stalls: 3,
        });
        let stalls = (0..1_000).filter(|_| plan.poll_worker_sweep().is_some()).count();
        assert_eq!(stalls, 3, "the cap bounds injected stalls");
    }
}
