//! The normalized execution report shared by all backends.

use rws_core::RunReport;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Which kind of backend produced a report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Backend {
    /// The discrete-event simulator of `rws-core` (time in simulated ticks).
    Simulated,
    /// The native thread pool of `rws-runtime` (time in wall-clock nanoseconds).
    Native,
    /// The multi-process sharded executor of `rws-shard`: N worker subprocesses, each
    /// running the native pool locally (time in wall-clock nanoseconds).
    Sharded,
}

impl Backend {
    /// The unit of [`ExecReport::time_units`] for this backend.
    pub fn time_unit(&self) -> &'static str {
        match self {
            Backend::Simulated => "ticks",
            Backend::Native | Backend::Sharded => "ns",
        }
    }
}

/// Sharded-run detail preserved alongside the normalized counters, mirroring how
/// [`ExecReport::sim`] keeps the full simulator report: how the coordinator partitioned
/// the workload, how dispatch went, and what failure handling happened.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardDetail {
    /// Worker subprocesses the coordinator spawned.
    pub shards: usize,
    /// Native pool threads inside each worker.
    pub threads_per_shard: usize,
    /// Output parts the workload was partitioned into (= jobs to run).
    pub parts: usize,
    /// Job dispatches written to workers, **including** re-dispatches of redistributed
    /// jobs (`parts` when nothing failed).
    pub jobs_dispatched: u64,
    /// Results accepted into the output — exactly one per part; late duplicates from a
    /// redistributed job whose first owner answered after all are dropped, not counted.
    pub jobs_accepted: u64,
    /// Jobs that were re-queued because their shard died before acknowledging them.
    pub redistributed: u64,
    /// Shards that died mid-run (EOF on their pipe, a reported error, or a heartbeat
    /// timeout).
    pub shard_deaths: u64,
    /// Heartbeat messages received across all shards (volatile: timer-driven).
    pub heartbeats: u64,
    /// Accepted results per shard id — the dispatch-policy fingerprint. Sums to
    /// [`ShardDetail::jobs_accepted`].
    pub jobs_per_shard: Vec<u64>,
}

/// One run's results, normalized across backends.
///
/// The simulator's [`RunReport`] and the native pool's `PoolStats` count different things in
/// different units; this schema puts the quantities every experiment needs — how parallel
/// was it (`procs`), how much scheduling happened (`steals`), how much work ran
/// (`work_items`), how long it took (`time_units`) — into one shape, and keeps the full
/// simulator report for backend-specific detail.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExecReport {
    /// The backend that produced this report.
    pub backend: Backend,
    /// Name of the executor instance (e.g. `sim(p=4)`, `native(crossbeam,t=8)`).
    pub executor: String,
    /// Name of the workload that ran.
    pub workload: String,
    /// Simulated processors or native worker threads.
    pub procs: usize,
    /// Successful steals: the simulator's `successful_steals`, or the pool's steal counter
    /// delta over the run.
    pub steals: u64,
    /// Unsuccessful steal attempts: the simulator's `failed_steals`, or — for the native
    /// pool — empty-victim probes plus steal attempts that lost a CAS race
    /// (`Steal::Retry`) over the run. Both count "a processor reached for work and came
    /// back empty-handed", the quantity the paper's steal-cost term charges.
    pub failed_steals: u64,
    /// Work executed: dag operations for the simulator, jobs run for the native pool.
    pub work_items: u64,
    /// Sequential-style cache misses (cold + capacity) over all processors. Simulator only;
    /// the native pool has no cache instrumentation, so native reports record 0.
    pub cache_misses: u64,
    /// Coherence-induced block misses over all processors (simulator only, 0 natively).
    pub block_misses: u64,
    /// Block misses where the invalidating write touched another word of the block — the
    /// paper's false-sharing count (simulator only, 0 natively).
    pub false_sharing_misses: u64,
    /// Elapsed time in the backend's unit ([`Backend::time_unit`]): the simulated makespan,
    /// or wall-clock nanoseconds.
    pub time_units: u64,
    /// Real time the run took on the host (for the simulator this is simulation throughput,
    /// not modeled time).
    pub wall: Duration,
    /// The full simulator report, when the backend was [`Backend::Simulated`].
    pub sim: Option<RunReport>,
    /// Coordinator detail, when the backend was [`Backend::Sharded`].
    pub shard: Option<ShardDetail>,
}

impl ExecReport {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} ran {} on {} procs: {} steals, {} work items, {} {}",
            self.executor,
            self.workload,
            self.procs,
            self.steals,
            self.work_items,
            self.time_units,
            self.backend.time_unit()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(backend: Backend) -> ExecReport {
        ExecReport {
            backend,
            executor: "test".into(),
            workload: "w".into(),
            procs: 4,
            steals: 10,
            failed_steals: 3,
            work_items: 100,
            cache_misses: 7,
            block_misses: 2,
            false_sharing_misses: 1,
            time_units: 1234,
            wall: Duration::from_millis(1),
            sim: None,
            shard: None,
        }
    }

    #[test]
    fn units_follow_the_backend() {
        assert_eq!(Backend::Simulated.time_unit(), "ticks");
        assert_eq!(Backend::Native.time_unit(), "ns");
        assert_eq!(Backend::Sharded.time_unit(), "ns");
    }

    #[test]
    fn derived_metrics_and_summary() {
        let r = report(Backend::Simulated);
        let s = r.summary();
        assert!(s.contains("10 steals") && s.contains("ticks"), "{s}");
    }
}
