//! Pool statistics: per-worker counters, one cache line per worker.
//!
//! Each worker's counters live together in a single [`CachePadded`] struct so that (a)
//! recording from different workers never false-shares — the very effect the paper analyzes
//! would otherwise be injected by the measurement itself — and (b) one worker's related
//! counters share a line, so recording a steal and a job costs one line, not two.
//!
//! Every counter has **one writer**: the worker's own thread. The recorders are
//! `pub(crate)` and every call site passes the calling worker's own index (a `WorkerHandle`
//! never leaves its thread). That is why they are bumped with a plain load and store
//! (`bump`) rather than a locked read-modify-write — the unstolen `join` path counts a job
//! per fork. Readers on any thread keep their relaxed loads and see each counter monotone.
//!
//! Every per-worker counter is read one way: [`PoolStats::snapshot`] copies them all, and
//! [`PoolStats::snapshot_delta`] attributes a bracketed region; totals are sums over the
//! snapshot's workers.

use crate::padding::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// Add `k` to a counter that only the calling thread ever writes (see the module docs):
/// no `lock` prefix, and wrapping like the `fetch_add` it replaces.
#[inline]
fn bump(counter: &AtomicU64, k: u64) {
    counter.store(counter.load(Ordering::Relaxed).wrapping_add(k), Ordering::Relaxed);
}

/// One worker's counters, padded to a cache line. Written only by that worker's thread.
#[derive(Debug, Default)]
struct WorkerCounters {
    steals: AtomicU64,
    jobs: AtomicU64,
    failed_steals: AtomicU64,
    steal_retries: AtomicU64,
    parks: AtomicU64,
    /// Parks that ended in the 1ms backstop timeout instead of a notification. A handful
    /// around activity edges is normal; a steady-state stream means work is being
    /// published without a wake reaching anyone — the missed-wake class the submit-path
    /// handshake closes (see `Shared::inject`).
    backstop_wakes: AtomicU64,
    /// Successful steal operations. A steal moves one task, so this equals `steals`.
    batch_steals: AtomicU64,
    /// Jobs moved by steal operations. A steal moves one task, so this equals `steals`.
    jobs_stolen: AtomicU64,
    /// Panics this worker caught and quarantined while executing heap jobs — the per-job
    /// quarantine was always there; this makes it *health-tracked* per worker.
    panics_caught: AtomicU64,
}

/// Counters collected by the thread pool.
#[derive(Debug)]
pub struct PoolStats {
    workers: Vec<CachePadded<WorkerCounters>>,
}

/// A point-in-time copy of one worker's counters (see [`PoolStats::snapshot`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// Successful steals, one per migrated task (paper semantics): a steal takes the
    /// victim's oldest job and nothing else.
    pub steals: u64,
    /// Jobs executed.
    pub jobs: u64,
    /// Steal attempts that found the victim empty.
    pub failed_steals: u64,
    /// Steal attempts that found the victim's offer already being taken by another thief
    /// (lost the claim CAS to it, or saw it won).
    pub steal_retries: u64,
    /// Times the worker parked.
    pub parks: u64,
    /// Parks that ended in the backstop timeout rather than a notification.
    pub backstop_wakes: u64,
    /// Successful steal operations: equal to `steals`, since one steal moves one task.
    pub batch_steals: u64,
    /// Jobs moved by steal operations: equal to `steals`, since one steal moves one task.
    pub jobs_stolen: u64,
    /// Panics caught (quarantined) while executing jobs.
    pub panics_caught: u64,
}

impl WorkerSnapshot {
    /// Field-wise `self - prev`, saturating at zero so a snapshot pair taken across a
    /// counter reset (a fresh pool reusing the struct) degrades to zeros, not huge wraps.
    pub fn delta(&self, prev: &WorkerSnapshot) -> WorkerSnapshot {
        WorkerSnapshot {
            steals: self.steals.saturating_sub(prev.steals),
            jobs: self.jobs.saturating_sub(prev.jobs),
            failed_steals: self.failed_steals.saturating_sub(prev.failed_steals),
            steal_retries: self.steal_retries.saturating_sub(prev.steal_retries),
            parks: self.parks.saturating_sub(prev.parks),
            backstop_wakes: self.backstop_wakes.saturating_sub(prev.backstop_wakes),
            batch_steals: self.batch_steals.saturating_sub(prev.batch_steals),
            jobs_stolen: self.jobs_stolen.saturating_sub(prev.jobs_stolen),
            panics_caught: self.panics_caught.saturating_sub(prev.panics_caught),
        }
    }
}

/// A point-in-time copy of every worker's counters. Two snapshots bracket a region of
/// interest; [`PoolStatsSnapshot::delta`] attributes exactly the activity between them to
/// that region — which stays correct when other runs share the pool concurrently only if
/// the caller serializes runs, but is always correct about *the pool as a whole*.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStatsSnapshot {
    /// One entry per worker, indexed by worker id.
    pub workers: Vec<WorkerSnapshot>,
}

impl PoolStatsSnapshot {
    /// Per-worker field-wise `self - prev` (saturating; see [`WorkerSnapshot::delta`]).
    /// Workers present in only one snapshot (a pool rebuilt with a different size) are
    /// ignored rather than misattributed.
    pub fn delta(&self, prev: &PoolStatsSnapshot) -> PoolStatsSnapshot {
        PoolStatsSnapshot {
            workers: self
                .workers
                .iter()
                .zip(prev.workers.iter())
                .map(|(now, then)| now.delta(then))
                .collect(),
        }
    }

    /// Total successful steals across workers.
    pub fn total_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Total jobs executed across workers.
    pub fn total_jobs(&self) -> u64 {
        self.workers.iter().map(|w| w.jobs).sum()
    }

    /// Total fruitless steal attempts (empty probes plus lost claims) across workers.
    pub fn total_failed_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.failed_steals + w.steal_retries).sum()
    }

    /// Total parks across workers.
    pub fn total_parks(&self) -> u64 {
        self.workers.iter().map(|w| w.parks).sum()
    }

    /// Total backstop-timeout wakeups across workers.
    pub fn total_backstop_wakes(&self) -> u64 {
        self.workers.iter().map(|w| w.backstop_wakes).sum()
    }

    /// Total successful steal operations across workers (equal to [`Self::total_steals`]).
    pub fn total_batch_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.batch_steals).sum()
    }

    /// Total panics caught (quarantined) across workers.
    pub fn total_panics_caught(&self) -> u64 {
        self.workers.iter().map(|w| w.panics_caught).sum()
    }
}

impl PoolStats {
    /// Zeroed statistics for `workers` workers.
    pub fn new(workers: usize) -> Self {
        PoolStats { workers: (0..workers).map(|_| CachePadded::default()).collect() }
    }

    /// Record one successful steal by worker `w`: one task moved, in every view.
    pub(crate) fn record_steal(&self, w: usize) {
        let c = &self.workers[w].0;
        bump(&c.steals, 1);
        bump(&c.batch_steals, 1);
        bump(&c.jobs_stolen, 1);
    }

    /// Record a job executed by worker `w`.
    #[inline]
    pub(crate) fn record_job(&self, w: usize) {
        bump(&self.workers[w].0.jobs, 1);
    }

    /// Record a steal attempt by worker `w` that found nothing on offer at the victim.
    pub(crate) fn record_failed_steal(&self, w: usize) {
        bump(&self.workers[w].0.failed_steals, 1);
    }

    /// Record a steal attempt by worker `w` that lost the victim's offer to another thief
    /// (`Steal::Retry`).
    pub(crate) fn record_retry(&self, w: usize) {
        bump(&self.workers[w].0.steal_retries, 1);
    }

    /// Record worker `w` parking after finding no work.
    pub(crate) fn record_park(&self, w: usize) {
        bump(&self.workers[w].0.parks, 1);
    }

    /// Record worker `w` waking from a park because the backstop timer fired, not because
    /// anybody notified it.
    pub(crate) fn record_backstop_wake(&self, w: usize) {
        bump(&self.workers[w].0.backstop_wakes, 1);
    }

    /// Record a panic caught (quarantined) while worker `w` executed a job.
    pub(crate) fn record_panic_caught(&self, w: usize) {
        bump(&self.workers[w].0.panics_caught, 1);
    }

    /// Copy every worker's counters at one point in time (each load is relaxed; the copy
    /// is per-counter atomic, not globally atomic — fine for attribution deltas).
    pub fn snapshot(&self) -> PoolStatsSnapshot {
        PoolStatsSnapshot {
            workers: self
                .workers
                .iter()
                .map(|c| {
                    let c = &c.0;
                    WorkerSnapshot {
                        steals: c.steals.load(Ordering::Relaxed),
                        jobs: c.jobs.load(Ordering::Relaxed),
                        failed_steals: c.failed_steals.load(Ordering::Relaxed),
                        steal_retries: c.steal_retries.load(Ordering::Relaxed),
                        parks: c.parks.load(Ordering::Relaxed),
                        backstop_wakes: c.backstop_wakes.load(Ordering::Relaxed),
                        batch_steals: c.batch_steals.load(Ordering::Relaxed),
                        jobs_stolen: c.jobs_stolen.load(Ordering::Relaxed),
                        panics_caught: c.panics_caught.load(Ordering::Relaxed),
                    }
                })
                .collect(),
        }
    }

    /// [`PoolStats::snapshot`] minus an earlier snapshot: the activity since `prev`,
    /// per worker. The race-free way to attribute counters to one run on a shared pool.
    pub fn snapshot_delta(&self, prev: &PoolStatsSnapshot) -> PoolStatsSnapshot {
        self.snapshot().delta(prev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = PoolStats::new(2);
        s.record_steal(0);
        s.record_steal(1);
        s.record_steal(1);
        s.record_job(0);
        s.record_retry(1);
        s.record_failed_steal(0);
        s.record_failed_steal(1);
        s.record_park(0);
        s.record_backstop_wake(0);
        s.record_backstop_wake(0);
        let snap = s.snapshot();
        assert_eq!(snap.workers.len(), 2);
        assert_eq!(snap.total_steals(), 3);
        assert_eq!(snap.workers[1].steals, 2);
        assert_eq!(snap.total_batch_steals(), 3, "one steal is one operation");
        assert_eq!(snap.workers.iter().map(|w| w.jobs_stolen).sum::<u64>(), 3);
        assert_eq!(snap.total_jobs(), 1);
        assert_eq!(snap.workers[0].jobs, 1);
        assert_eq!(snap.workers[1].steal_retries, 1);
        assert_eq!(snap.total_failed_steals(), 3, "empty probes plus lost claims");
        assert_eq!(snap.total_parks(), 1);
        assert_eq!(snap.total_backstop_wakes(), 2);
        let d = s.snapshot_delta(&PoolStatsSnapshot { workers: vec![Default::default(); 2] });
        assert_eq!(d, snap, "a delta against zeros is the snapshot itself");
    }

    #[test]
    fn a_steal_counts_one_task_in_every_view() {
        let s = PoolStats::new(1);
        s.record_steal(0);
        s.record_steal(0);
        let snap = s.snapshot();
        assert_eq!(snap.total_steals(), 2, "paper view: one event per migrated task");
        assert_eq!(snap.total_batch_steals(), 2, "one operation per steal");
        assert_eq!(snap.workers[0].jobs_stolen, 2);
    }

    #[test]
    fn health_and_service_counters_accumulate() {
        let s = PoolStats::new(2);
        s.record_panic_caught(1);
        let snap = s.snapshot();
        assert_eq!(snap.workers[0].panics_caught, 0);
        assert_eq!(snap.workers[1].panics_caught, 1);
        assert_eq!(snap.total_panics_caught(), 1);
    }

    #[test]
    fn snapshot_delta_isolates_the_bracketed_region() {
        let s = PoolStats::new(2);
        s.record_steal(0);
        s.record_job(1);
        let before = s.snapshot();
        s.record_steal(0);
        s.record_steal(0);
        s.record_job(0);
        s.record_job(1);
        s.record_park(1);
        s.record_failed_steal(0);
        s.record_retry(0);
        let d = s.snapshot_delta(&before);
        assert_eq!(d.total_steals(), 2, "only the bracketed steals count");
        assert_eq!(d.total_jobs(), 2);
        assert_eq!(d.total_parks(), 1);
        assert_eq!(d.total_failed_steals(), 2, "empty probe plus lost claim");
        assert_eq!(d.total_batch_steals(), 2);
        assert_eq!(d.workers[0].jobs_stolen, 2);
        assert_eq!(d.workers[1].jobs, 1);
        // Deltas against a *later* snapshot saturate to zero instead of wrapping.
        let after = s.snapshot();
        let zero = before.delta(&after);
        assert_eq!(zero.total_steals(), 0);
        assert_eq!(zero.total_jobs(), 0);
    }

    #[test]
    fn each_worker_occupies_its_own_cache_line() {
        assert!(std::mem::size_of::<CachePadded<WorkerCounters>>() >= 64);
        assert!(std::mem::align_of::<CachePadded<WorkerCounters>>() >= 64);
    }
}
