//! The sweep engine: expand a [`Scenario`] into concrete runs and execute them through the
//! [`rws_exec::Executor`] trait on each requested backend — sequentially, or fanned out
//! across a pool of `jobs` workers ([`run_scenario`], the `lab --jobs N` path).

use crate::scenario::{BackendChoice, Scenario, SweepAxis};
use rws_core::SimConfig;
use rws_exec::{Computation, ExecReport, Executor, NativeExecutor, SharedWorkload, SimExecutor};
use rws_machine::MachineConfig;
use rws_runtime::trace::TraceSnapshot;
use rws_runtime::{ParSliceExt, ThreadPool};
use rws_shard::ShardedExecutor;

/// One expanded run: the backend, the concrete machine/pool shape, and the seed.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Which backend executes this run.
    pub backend: BackendChoice,
    /// Processors (simulated), worker threads (native), or `shards × shard_threads`
    /// (sharded).
    pub procs: usize,
    /// The simulated machine for this run (also carries the analysis parameters the checks
    /// use; for native runs it is the scenario machine at this run's thread count).
    pub machine: MachineConfig,
    /// Scheduler seed (repetition index on the native and sharded backends).
    pub seed: u64,
    /// The sweep-axis value this run belongs to, if the scenario sweeps
    /// (`(axis name, value)`); `None` for runs a backend-foreign axis does not multiply
    /// (native under `block_words`, sim/native under `shards`, sharded under `procs`).
    pub axis: Option<(&'static str, u64)>,
    /// `(shards, threads_per_shard)` for sharded runs, `None` otherwise.
    pub shard_shape: Option<(usize, usize)>,
}

/// One executed run: its spec and the normalized report.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// The expanded spec that produced this run.
    pub spec: RunSpec,
    /// The backend's normalized report.
    pub report: ExecReport,
}

/// One native run's drained flight recorder (the `lab --trace` path): which expanded run
/// it belongs to plus the time-ordered event snapshot.
#[derive(Clone, Debug)]
pub struct NativeTraceCapture {
    /// The expanded spec of the traced native run.
    pub spec: RunSpec,
    /// The drained, merged event snapshot of that run's (fresh, private) pool.
    pub snapshot: TraceSnapshot,
}

/// All results of one scenario execution.
#[derive(Clone, Debug)]
pub struct LabRun {
    /// The scenario's name.
    pub scenario: String,
    /// The instantiated workload's full name (algorithm + size).
    pub workload: String,
    /// Whether the workload is measured-only: its task structure is data-dependent, so no
    /// paper bound applies and the report carries an explicit label instead of checks.
    pub measured_only: bool,
    /// The dag's work `W` (total operations).
    pub work: u64,
    /// The dag's span `T∞` in nodes (critical-path length the steal bounds use).
    pub t_inf: u64,
    /// One record per executed run, in expansion order.
    pub records: Vec<RunRecord>,
}

/// Expand a scenario into the concrete list of runs the engine will execute:
/// `backends × sweep values × seeds`, in that nesting order.
///
/// The native backend has no simulated-machine parameters, so under a
/// [`SweepAxis::BlockWords`] sweep native runs are *not* multiplied by the axis — they
/// execute once per seed at the scenario's `procs` (with `axis = None`), serving as the
/// wall-clock companion measurement.
pub fn expand(sc: &Scenario) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for &backend in &sc.backends {
        let axis_values: Vec<Option<(&'static str, u64)>> = match (&sc.sweep, backend) {
            (None, _) => vec![None],
            // The shard count is the one knob an axis can turn on the sharded backend;
            // procs/block_words are sim/native parameters, so a sharded run under those
            // axes (like a native run under block_words) executes once per seed.
            (Some(SweepAxis::Procs(vs)), BackendChoice::Sim | BackendChoice::Native) => {
                vs.iter().map(|&p| Some(("procs", p as u64))).collect()
            }
            (Some(SweepAxis::Procs(_)), BackendChoice::Sharded) => vec![None],
            (Some(SweepAxis::BlockWords(vs)), BackendChoice::Sim) => {
                vs.iter().map(|&b| Some(("block_words", b))).collect()
            }
            (Some(SweepAxis::BlockWords(_)), _) => vec![None],
            (Some(SweepAxis::Shards(vs)), BackendChoice::Sharded) => {
                vs.iter().map(|&s| Some(("shards", s as u64))).collect()
            }
            (Some(SweepAxis::Shards(_)), _) => vec![None],
        };
        for axis in axis_values {
            let mut machine = sc.machine.clone();
            let mut procs = sc.procs;
            let mut shard_shape = None;
            match axis {
                Some(("procs", p)) => procs = p as usize,
                Some(("block_words", b)) => machine.block_words = b,
                _ => {}
            }
            if backend == BackendChoice::Sharded {
                let shards = match axis {
                    Some(("shards", s)) => s as usize,
                    _ => sc.shards,
                };
                shard_shape = Some((shards, sc.shard_threads));
                procs = shards * sc.shard_threads;
            }
            machine.procs = procs;
            for &seed in &sc.seeds {
                specs.push(RunSpec {
                    backend,
                    procs,
                    machine: machine.clone(),
                    seed,
                    axis,
                    shard_shape,
                });
            }
        }
    }
    specs
}

/// One simulated run: a fresh seeded scheduler per run is what makes it reproducible —
/// and also what makes simulated runs safe to execute concurrently (the dag they share is
/// read-only). The sweep wants the counts, not the output, so the run takes the dag built
/// once per scenario instead of `Executor::execute`, which would rebuild it and compute
/// the reference output only to drop both.
fn run_sim(spec: &RunSpec, workload: &SharedWorkload, comp: &Computation) -> ExecReport {
    let exec = SimExecutor::new(spec.machine.clone(), SimConfig::with_seed(spec.seed));
    ExecReport { workload: workload.name(), ..exec.run_computation(comp) }
}

/// Execute every expanded run of the scenario and collect the records in expansion order,
/// with up to `jobs` concurrent **simulated** runs.
///
/// * Simulated runs are pure, independent, seeded computations: they fan out across a
///   `jobs`-wide driver pool, one `join` leaf each of a `par_chunks_mut` pass, and land in
///   their expansion-order slot, so the record order (and every simulated measurement in
///   it) is identical whatever `jobs` is. They all finish before the first native run.
/// * Native runs stay **serialized** on the driver thread, in expansion order: an
///   [`ExecReport`]'s native steal/job counters are pool-global deltas over the run, which
///   only attribute correctly while nothing else executes on that pool — and native runs
///   are wall-clock measurements besides, which concurrent siblings would distort. Native
///   pools are still built once per distinct thread count and reused across seeds (pool
///   construction is thread spawning; the runs are what is being measured).
///
/// With `jobs = 1` no extra pool is built and everything runs inline on the caller.
///
/// `trace = Some(capacity)` turns the native flight recorder on: every native run then
/// executes on a **fresh** traced pool (no reuse across seeds — each capture is one run's
/// events, and the recorder epoch restarts) and its drained snapshot is returned alongside
/// the run records, in native execution order. Simulated runs are unaffected; the
/// [`LabRun`] is identical to an untraced sweep's. With `trace = None` the capture list is
/// empty.
pub fn run_scenario(
    sc: &Scenario,
    jobs: usize,
    trace: Option<usize>,
) -> (LabRun, Vec<NativeTraceCapture>) {
    let jobs = jobs.max(1);
    let workload = sc.instantiate();
    let comp = workload.computation();
    let (work, t_inf) = (comp.dag.work(), comp.dag.span_nodes());

    let (records, captures) = if jobs == 1 {
        execute_specs(expand(sc), workload.clone(), &comp, trace)
    } else {
        // `install` needs an owned closure; move the dag and clones in and get the records
        // back out.
        let (sc, workload) = (sc.clone(), workload.clone());
        let driver = ThreadPool::new(jobs);
        driver.install(move || execute_specs(expand(&sc), workload, &comp, trace))
    };

    let lab = LabRun {
        scenario: sc.name.clone(),
        workload: workload.name(),
        measured_only: sc.workload.measured_only(),
        work,
        t_inf,
        records,
    };
    (lab, captures)
}

/// Run every spec: first the simulated runs, one `join` leaf each in a `par_chunks_mut(1)`
/// pass over their `(spec, slot)` pairs (concurrent when the caller is a pool worker,
/// inline otherwise) over the one shared `comp`; then the native and sharded runs,
/// serialized on the calling thread. Each run writes its expansion-order slot, so the
/// returned order never depends on scheduling.
///
/// With `trace = Some(capacity)` every native run gets a fresh traced pool and contributes
/// one [`NativeTraceCapture`]; untraced sweeps keep reusing one pool per thread count.
fn execute_specs(
    specs: Vec<RunSpec>,
    workload: SharedWorkload,
    comp: &Computation,
    trace: Option<usize>,
) -> (Vec<RunRecord>, Vec<NativeTraceCapture>) {
    let mut slots: Vec<Option<RunRecord>> = specs.iter().map(|_| None).collect();
    let mut captures: Vec<NativeTraceCapture> = Vec::new();
    let mut sim = Vec::new();
    let mut native = Vec::new();
    let mut sharded = Vec::new();
    for (spec, slot) in specs.into_iter().zip(slots.iter_mut()) {
        match spec.backend {
            BackendChoice::Sim => sim.push((spec, slot)),
            BackendChoice::Native => native.push((spec, slot)),
            BackendChoice::Sharded => sharded.push((spec, slot)),
        }
    }
    sim.par_chunks_mut(1).with_grain(1).for_each(|pair| {
        let (spec, slot) = &mut pair[0];
        let report = run_sim(spec, &workload, comp);
        **slot = Some(RunRecord { spec: spec.clone(), report });
    });
    let mut native_pool: Option<NativeExecutor> = None;
    for (spec, slot) in native {
        if let Some(capacity) = trace {
            // A traced native run owns its pool: the capture is exactly this run's
            // events, with nothing bled in from sibling seeds.
            let exec = NativeExecutor::with_options(spec.procs, Some(capacity));
            let report = exec.execute(workload.clone()).report;
            let snapshot = exec.trace_snapshot().expect("executor was built with tracing on");
            captures.push(NativeTraceCapture { spec: spec.clone(), snapshot });
            *slot = Some(RunRecord { spec, report });
            continue;
        }
        let reusable = native_pool.as_ref().is_some_and(|p| p.procs() == spec.procs);
        if !reusable {
            native_pool = Some(NativeExecutor::new(spec.procs));
        }
        let report = native_pool.as_ref().expect("just built").execute(workload.clone()).report;
        *slot = Some(RunRecord { spec, report });
    }
    // Sharded runs are wall-clock measurements over real subprocesses: serialized on the
    // driver thread like native runs, after them, in expansion order. The executor is pure
    // configuration, so one per shard shape is plenty.
    for (spec, slot) in sharded {
        let (shards, threads) = spec.shard_shape.expect("sharded specs carry their shape");
        let exec = ShardedExecutor::new(shards).threads_per_shard(threads);
        let report = exec.execute(workload.clone()).report;
        *slot = Some(RunRecord { spec, report });
    }
    let records = slots.into_iter().map(|r| r.expect("every run slot is filled")).collect();
    (records, captures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn parse(text: &str) -> Scenario {
        Scenario::parse(text).expect("test scenario must parse")
    }

    #[test]
    fn expansion_is_backends_times_axis_times_seeds() {
        let sc = parse(
            "name = x\nworkload = prefix-sums\nn = 256\nbackends = sim, native\n\
             seeds = 1, 2\nsweep = procs: 1, 2, 4",
        );
        let specs = expand(&sc);
        assert_eq!(specs.len(), 2 * 3 * 2);
        assert!(specs.iter().all(|s| s.axis.is_some()));
        // The axis drives both the sim machine and the native thread count.
        for s in &specs {
            assert_eq!(s.axis.unwrap().1 as usize, s.procs);
            assert_eq!(s.machine.procs, s.procs);
        }
    }

    #[test]
    fn block_word_sweeps_do_not_multiply_native_runs() {
        let sc = parse(
            "name = x\nworkload = prefix-sums\nn = 256\nbackends = sim, native\n\
             seeds = 7\nprocs = 2\nsweep = block_words: 4, 8, 16",
        );
        let specs = expand(&sc);
        let sim: Vec<_> = specs.iter().filter(|s| s.backend == BackendChoice::Sim).collect();
        let native: Vec<_> = specs.iter().filter(|s| s.backend == BackendChoice::Native).collect();
        assert_eq!(sim.len(), 3, "one sim run per block size");
        assert_eq!(native.len(), 1, "block size does not exist natively");
        assert!(native[0].axis.is_none());
        assert_eq!(sim.iter().map(|s| s.machine.block_words).collect::<Vec<_>>(), vec![4, 8, 16]);
    }

    #[test]
    fn run_scenario_executes_every_spec() {
        let sc = parse(
            "name = tiny\nworkload = prefix-sums\nn = 256\nbackends = sim, native\n\
             seeds = 11\nsweep = procs: 1, 2",
        );
        let (lab, _) = run_scenario(&sc, 1, None);
        assert_eq!(lab.records.len(), 4);
        assert!(lab.work > 0 && lab.t_inf > 0);
        for r in &lab.records {
            assert_eq!(r.report.procs, r.spec.procs);
            assert!(r.report.work_items > 0);
        }
        // Simulated runs are seeded: the same scenario reruns identically.
        let (again, _) = run_scenario(&sc, 1, None);
        for (a, b) in lab.records.iter().zip(&again.records) {
            if a.spec.backend == BackendChoice::Sim {
                assert_eq!(a.report.steals, b.report.steals);
                assert_eq!(a.report.time_units, b.report.time_units);
            }
        }
    }

    #[test]
    fn fanned_out_runs_match_the_sequential_sweep() {
        // `jobs` must change neither the record order nor any deterministic measurement;
        // simulated runs are seeded, so their full reports must be equal field for field.
        let sc = parse(
            "name = fan\nworkload = prefix-sums\nn = 512\nbackends = sim, native\n\
             seeds = 5, 9\nsweep = procs: 1, 2",
        );
        let (sequential, _) = run_scenario(&sc, 1, None);
        let (fanned, _) = run_scenario(&sc, 4, None);
        assert_eq!(sequential.records.len(), fanned.records.len());
        for (a, b) in sequential.records.iter().zip(&fanned.records) {
            assert_eq!(a.spec.backend, b.spec.backend, "expansion order must be preserved");
            assert_eq!(a.spec.procs, b.spec.procs);
            assert_eq!(a.spec.seed, b.spec.seed);
            assert_eq!(a.report.work_items, b.report.work_items);
            if a.spec.backend == BackendChoice::Sim {
                assert_eq!(a.report.steals, b.report.steals);
                assert_eq!(a.report.failed_steals, b.report.failed_steals);
                assert_eq!(a.report.time_units, b.report.time_units);
                assert_eq!(a.report.block_misses, b.report.block_misses);
            }
        }
    }

    #[test]
    fn traced_sweep_captures_agree_with_the_pool_counters() {
        // Two accounting paths, one truth: a traced native run's event-derived profile
        // must report exactly the jobs/steals the run record got from its PoolStats
        // snapshot delta (capacity is large enough that nothing is overwritten).
        let sc = parse(
            "name = traced\nworkload = prefix-sums\nn = 4096\nbackends = native\n\
             seeds = 3, 5\nprocs = 2",
        );
        let (lab, captures) = run_scenario(&sc, 1, Some(1 << 16));
        let native: Vec<_> =
            lab.records.iter().filter(|r| r.spec.backend == BackendChoice::Native).collect();
        assert_eq!(captures.len(), native.len(), "one capture per native run");
        for (record, capture) in native.iter().zip(&captures) {
            assert_eq!(capture.spec.seed, record.spec.seed, "captures ride in execution order");
            assert_eq!(capture.snapshot.total_dropped(), 0, "capacity must hold the whole run");
            let profile = capture.snapshot.profile();
            let jobs: u64 = profile.workers.iter().map(|w| w.jobs).sum();
            let steals: u64 = profile.workers.iter().map(|w| w.steals).sum();
            assert_eq!(jobs, record.report.work_items, "trace jobs == PoolStats delta jobs");
            assert_eq!(steals, record.report.steals, "trace steals == PoolStats delta steals");
        }
        // Tracing must not change what the sweep itself reports.
        let (untraced, no_captures) = run_scenario(&sc, 1, None);
        assert!(no_captures.is_empty(), "an untraced sweep captures nothing");
        for (a, b) in lab.records.iter().zip(&untraced.records) {
            assert_eq!(a.report.work_items, b.report.work_items);
        }
    }

    #[test]
    fn shard_sweeps_multiply_only_the_sharded_backend() {
        let sc = parse(
            "name = x\nworkload = matmul\nn = 16\nbackends = sim, native, sharded\n\
             seeds = 1, 2\nprocs = 2\nshard_threads = 1\nsweep = shards: 1, 2, 3",
        );
        let specs = expand(&sc);
        let sharded: Vec<_> =
            specs.iter().filter(|s| s.backend == BackendChoice::Sharded).collect();
        let others: Vec<_> = specs.iter().filter(|s| s.backend != BackendChoice::Sharded).collect();
        assert_eq!(sharded.len(), 3 * 2, "one sharded run per shard count per seed");
        assert_eq!(others.len(), 2 * 2, "shard count does not exist on sim/native");
        assert!(others.iter().all(|s| s.axis.is_none() && s.shard_shape.is_none()));
        for s in &sharded {
            let (shards, threads) = s.shard_shape.expect("sharded specs carry their shape");
            assert_eq!(s.axis.unwrap(), ("shards", shards as u64));
            assert_eq!(threads, 1);
            assert_eq!(s.procs, shards * threads, "procs is the total worker-thread count");
        }
        // Without a sweep, the scenario's own shard shape applies, once per seed.
        let flat = parse(
            "name = x\nworkload = matmul\nn = 16\nbackends = sharded\nseeds = 7\n\
             shards = 2\nshard_threads = 2",
        );
        let flat_specs = expand(&flat);
        assert_eq!(flat_specs.len(), 1);
        assert_eq!(flat_specs[0].shard_shape, Some((2, 2)));
        assert_eq!(flat_specs[0].procs, 4);
    }

    #[test]
    fn sharded_sweep_runs_end_to_end_with_shard_detail() {
        // Requires the shard-worker binary (any workspace-level `cargo test` builds it;
        // for a bare `cargo test -p rws-lab`, run `cargo build --bins -p rws-shard` first).
        let sc = parse(
            "name = e2e\nworkload = matmul\nn = 16\nbackends = native, sharded\n\
             seeds = 11\nprocs = 2\nshard_threads = 1\nsweep = shards: 1, 2",
        );
        let (lab, _) = run_scenario(&sc, 1, None);
        assert_eq!(lab.records.len(), 3, "one native run + two sharded runs");
        let native = lab.records.iter().find(|r| r.spec.backend == BackendChoice::Native).unwrap();
        let sharded: Vec<_> =
            lab.records.iter().filter(|r| r.spec.backend == BackendChoice::Sharded).collect();
        assert_eq!(sharded.len(), 2);
        assert!(native.report.shard.is_none(), "in-process runs carry no shard detail");
        for r in &sharded {
            let detail = r.report.shard.as_ref().expect("sharded runs carry shard detail");
            let (shards, _) = r.spec.shard_shape.unwrap();
            assert_eq!(detail.shards, shards);
            assert_eq!(detail.jobs_accepted, detail.parts as u64);
            assert_eq!(detail.redistributed, 0, "no faults injected in a plain sweep");
            assert_eq!(detail.shard_deaths, 0);
            assert!(r.report.work_items > 0, "workers really executed on their pools");
        }
    }
}
