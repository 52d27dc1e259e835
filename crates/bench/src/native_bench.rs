//! The native hot-path benchmark suite behind the `native_bench` binary and
//! `BENCH_native.json`.
//!
//! Runs a set of fork-join workloads — plus the DAG-structured family (task-graph
//! workflow, BFS, SpMV, sample sort), whose sparse frontiers and dependency-released
//! bursts stress the idle path the balanced trees never touch — on both deque backends of
//! `rws-runtime` — the
//! lock-free Chase–Lev deque (`chaselev`) and the mutex-protected `SimpleDeque`
//! (`simple`) — across a thread sweep, and records per configuration the median wall time,
//! the pool's steal/retry/park counter deltas, and (when the caller supplies an
//! allocation-counter hook, as the binary's counting global allocator does)
//! allocations-per-fork. The output is the JSON perf trajectory future PRs must beat.
//!
//! Alongside the fork-join rows, [`run_service_suite`] measures the persistent job-server
//! mode ([`rws_runtime::service`]): jobs/sec through the streamed submission pipeline
//! under `Block` admission, and the shed rate plus p99 queue latency under a 4x-capacity
//! `Shed` burst. These land in the document's `service` array and are gated too (exact
//! `submitted` and outcome partition, t=1 walls, bounded shed rate).
//!
//! [`run_sharded_suite`] adds the multi-process rows: the shardable workloads partitioned
//! across `rws-shard` worker subprocesses vs the same kernels on an in-process pool with
//! the same total thread count. The structure (parts, fork counts, a zero-redistribution
//! fault ledger) is deterministic and gated exactly; the walls quantify the multi-process
//! tax and are reported, never gated.
//!
//! The JSON renders through the workspace's one writer, [`rws_lab::json`] (the vendored
//! `serde` is a no-op marker, so emission is hand-rolled — but hand-rolled once, there);
//! the structural [`validate_json`] check runs after every write so a malformed emission
//! fails loudly (in CI, the bench smoke step).
//!
//! The committed baseline is *enforced*, not just recorded: [`gate_against`] compares a
//! fresh run to `BENCH_native.json` under the [`GateConfig`] tolerances, emits a
//! machine-readable `rws-bench-delta/v1` document, and fails on regression — the
//! `native_bench --gate` path CI runs on every PR. [`trajectory_row`] /
//! [`append_trajectory`] maintain the long-run `rws-bench-trajectory/v1` history.

use rws_algos::bfs::{bfs_native, CsrGraph};
use rws_algos::fft::fft_native;
use rws_algos::listrank::list_ranking_native;
use rws_algos::prefix::prefix_sums_native;
use rws_algos::samplesort::sample_sort_native;
use rws_algos::sort::merge_sort_native;
use rws_algos::spmv::{spmv_native, CsrMatrix};
use rws_algos::taskgraph::{layered_random, workflow_native};
use rws_algos::transpose::{bi_to_rm_native, rm_to_bi_native, transpose_native_bi};
use rws_lab::json::{self, obj, Json};
use rws_runtime::{
    join, AdmissionPolicy, DequeBackend, JobServer, ServiceConfig, ServiceSnapshot, ThreadPool,
    ThreadPoolBuilder,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How big the suite's inputs are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SizeClass {
    /// Tiny inputs for CI smoke runs: seconds, not minutes.
    Smoke,
    /// The committed-baseline sizes.
    Full,
}

impl SizeClass {
    /// Parse a `--size` argument.
    pub fn parse(s: &str) -> Option<SizeClass> {
        match s {
            "smoke" => Some(SizeClass::Smoke),
            "full" => Some(SizeClass::Full),
            _ => None,
        }
    }

    /// The size's name as it appears in the JSON.
    pub fn name(self) -> &'static str {
        match self {
            SizeClass::Smoke => "smoke",
            SizeClass::Full => "full",
        }
    }
}

/// Suite configuration.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Input sizes.
    pub size: SizeClass,
    /// Worker-thread counts to sweep.
    pub threads: Vec<usize>,
    /// Timed repetitions per configuration (the median is reported).
    pub repeats: usize,
    /// Untimed warm-up passes per configuration before the timed repeats (at least one
    /// always runs — it also produces the reference checksum): first-touch page faults,
    /// allocator pool growth, and branch-predictor training all land here instead of in
    /// the first timed repeat.
    pub warmup: usize,
}

impl BenchConfig {
    /// The default sweep for a size class (these defaults are recorded in the JSON header,
    /// so a baseline is self-describing).
    pub fn for_size(size: SizeClass) -> Self {
        match size {
            SizeClass::Smoke => BenchConfig { size, threads: vec![1, 4], repeats: 1, warmup: 1 },
            SizeClass::Full => {
                BenchConfig { size, threads: vec![1, 2, 4, 8], repeats: 7, warmup: 2 }
            }
        }
    }
}

/// One (workload, backend, threads) measurement.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Workload name (`recursive-sum`, `matmul`, …).
    pub workload: String,
    /// Deque backend name (`chaselev` or `simple`).
    pub backend: String,
    /// Worker threads in the pool.
    pub threads: usize,
    /// Median wall time over the repeats, nanoseconds.
    pub wall_ns_median: u64,
    /// Fastest repeat, nanoseconds.
    pub wall_ns_min: u64,
    /// Successful steals (pool counter delta, median run) — one event per migrated task,
    /// the paper's view.
    pub steals: u64,
    /// Successful steal *operations* (victim visits; a batch of `k` tasks counts once) —
    /// the CAS-traffic view. `steals / batch_steals` is the average batch size.
    pub batch_steals: u64,
    /// Fork branches executed (pool counter delta, median run).
    pub jobs: u64,
    /// Steal attempts that lost a CAS race (`Steal::Retry`; always 0 on `simple`).
    pub steal_retries: u64,
    /// Times a worker parked during the run.
    pub parks: u64,
    /// Heap allocations observed during the median run (0 when no hook was supplied).
    pub allocs: u64,
    /// Allocations per executed fork branch — the "is `join` really allocation-free"
    /// trajectory number (includes the workload's own result buffers, identical across
    /// backends).
    pub allocs_per_fork: f64,
}

fn backend_name(b: DequeBackend) -> &'static str {
    match b {
        DequeBackend::Crossbeam => "chaselev",
        DequeBackend::Simple => "simple",
    }
}

fn recursive_sum(lo: u64, hi: u64) -> u64 {
    if hi - lo <= 1024 {
        return (lo..hi).sum();
    }
    let mid = lo + (hi - lo) / 2;
    let (a, b) = join(move || recursive_sum(lo, mid), move || recursive_sum(mid, hi));
    a + b
}

/// In-place fork-join matmul: recurse over output row bands, then over column segments of a
/// single row, down to `grain`-column leaves. Unlike `rws_algos::matmul_native_bi` (eight
/// half-size products into local arrays and an addition pass at every node), this
/// decomposition has no local arrays and one-cell leaves, so its wall time actually
/// measures the fork/steal hot path this benchmark exists to track. The fine grain is
/// deliberate: thousands of sub-microsecond tasks are exactly the regime where deque
/// overhead shows.
fn mm_rows(a: &[f64], bt: &[f64], c: &mut [f64], n: usize, row0: usize, grain: usize) {
    let rows = c.len() / n;
    if rows == 1 {
        mm_cols(a, bt, c, n, row0, 0, grain);
        return;
    }
    let mid = rows / 2;
    let (lo, hi) = c.split_at_mut(mid * n);
    join(|| mm_rows(a, bt, lo, n, row0, grain), || mm_rows(a, bt, hi, n, row0 + mid, grain));
}

/// `bt` is B transposed, so a leaf reads contiguous rows of both operands: the leaf stays
/// compute-bound and small, keeping scheduler overhead — the thing under test — visible
/// instead of being buried under strided-access memory stalls.
fn mm_cols(a: &[f64], bt: &[f64], row: &mut [f64], n: usize, i: usize, col0: usize, grain: usize) {
    if row.len() <= grain {
        let arow = &a[i * n..(i + 1) * n];
        for (jj, out) in row.iter_mut().enumerate() {
            let j = col0 + jj;
            let brow = &bt[j * n..(j + 1) * n];
            // Four independent accumulators break the single-sum dependence chain (a
            // serial chain of fused multiply-adds runs at FMA latency, not throughput)
            // and vectorize cleanly; n is a multiple of 4 at both size classes, the
            // remainder loop covers everything else.
            let mut acc = [0.0f64; 4];
            let mut ka = arow.chunks_exact(4);
            let mut kb = brow.chunks_exact(4);
            for (ca, cb) in (&mut ka).zip(&mut kb) {
                acc[0] += ca[0] * cb[0];
                acc[1] += ca[1] * cb[1];
                acc[2] += ca[2] * cb[2];
                acc[3] += ca[3] * cb[3];
            }
            let mut total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
            for (x, y) in ka.remainder().iter().zip(kb.remainder()) {
                total += x * y;
            }
            *out = total;
        }
        return;
    }
    let mid = row.len() / 2;
    let (l, r) = row.split_at_mut(mid);
    join(|| mm_cols(a, bt, l, n, i, col0, grain), || mm_cols(a, bt, r, n, i, col0 + mid, grain));
}

struct WorkloadSpec {
    name: &'static str,
    /// Runs the workload once on the given pool and returns a checksum (forcing the result
    /// to actually be computed). Inputs are generated once, outside every timed window.
    run: Box<dyn Fn(&ThreadPool) -> u64>,
}

fn suite(size: SizeClass) -> Vec<WorkloadSpec> {
    let (sum_n, mm_n, mm_iters, prefix_n, sort_n) = match size {
        SizeClass::Smoke => (1u64 << 18, 32usize, 2usize, 1usize << 14, 1usize << 14),
        SizeClass::Full => (1u64 << 23, 128usize, 10usize, 1usize << 20, 1usize << 20),
    };
    let (fft_n, tr_n, lr_n) = match size {
        SizeClass::Smoke => (1usize << 12, 64usize, 1usize << 14),
        SizeClass::Full => (1usize << 16, 512usize, 1usize << 19),
    };
    // The DAG-structured family: a layered task graph (the idle-path stressor — sparse
    // frontiers, dependency-released bursts), level-synchronized BFS, CSR SpMV, and sample
    // sort. These rows track the scheduler's cost on irregular dependence structure, the
    // regime the fork-join rows above never enter.
    let (dag_layers, dag_width, graph_n, ss_n) = match size {
        SizeClass::Smoke => (5usize, 16usize, 1usize << 12, 1usize << 14),
        SizeClass::Full => (12usize, 96usize, 1usize << 17, 1usize << 20),
    };
    let mm_a: Arc<Vec<f64>> = Arc::new((0..mm_n * mm_n).map(|i| (i % 7) as f64).collect());
    // Stored transposed (see `mm_cols`); as bench input it is simply an arbitrary matrix.
    let mm_bt: Arc<Vec<f64>> = Arc::new((0..mm_n * mm_n).map(|i| (i % 5) as f64).collect());
    let prefix_x: Arc<Vec<i64>> = Arc::new((0..prefix_n as i64).collect());
    let sort_keys: Arc<Vec<u64>> =
        Arc::new((0..sort_n as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect());
    let fft_input: Arc<Vec<(f64, f64)>> = Arc::new(
        (0..fft_n)
            .map(|i| (((i % 17) as f64 - 8.0) / 8.0, ((i % 23) as f64 - 11.0) / 11.0))
            .collect(),
    );
    let tr_rm: Arc<Vec<f64>> = Arc::new((0..tr_n * tr_n).map(|i| (i % 11) as f64).collect());
    let dag_graph = Arc::new(layered_random(0xDA6, dag_layers, dag_width));
    let bfs_graph = Arc::new(CsrGraph::random(0xBF5, graph_n, 4));
    let spmv_m = Arc::new(CsrMatrix::random(0x59A2, graph_n, 7));
    let spmv_x: Arc<Vec<f64>> =
        Arc::new((0..graph_n).map(|i| ((i % 13) as f64 - 6.0) / 6.0).collect());
    let ss_keys: Arc<Vec<u64>> =
        Arc::new((0..ss_n as u64).map(|i| i.wrapping_mul(0x2545_F491_4F6C_DD1D)).collect());
    let ss_buckets = (ss_n as f64).sqrt() as usize;
    // A deterministic permutation chain: visit nodes in a bit-mixed order, self-loop tail.
    let lr_succ: Arc<Vec<usize>> = Arc::new({
        let mut order: Vec<usize> = (0..lr_n).collect();
        order.sort_by_key(|&i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut succ = vec![0usize; lr_n];
        for w in order.windows(2) {
            succ[w[0]] = w[1];
        }
        succ[order[lr_n - 1]] = order[lr_n - 1];
        succ
    });
    vec![
        WorkloadSpec {
            name: "recursive-sum",
            run: Box::new(move |pool| pool.install(move || recursive_sum(0, sum_n))),
        },
        WorkloadSpec {
            name: "matmul",
            run: Box::new(move |pool| {
                let a = Arc::clone(&mm_a);
                let bt = Arc::clone(&mm_bt);
                pool.install(move || {
                    let mut c = vec![0.0f64; mm_n * mm_n];
                    for _ in 0..mm_iters {
                        mm_rows(&a, &bt, &mut c, mm_n, 0, 1);
                    }
                    c.iter().map(|v| v.to_bits()).fold(0u64, u64::wrapping_add)
                })
            }),
        },
        WorkloadSpec {
            name: "prefix-sums",
            run: Box::new(move |pool| {
                let x = Arc::clone(&prefix_x);
                let out = pool.install(move || prefix_sums_native(&x));
                out.last().copied().unwrap_or(0) as u64
            }),
        },
        WorkloadSpec {
            name: "merge-sort",
            run: Box::new(move |pool| {
                let keys = Arc::clone(&sort_keys);
                let sorted = pool.install(move || merge_sort_native(&keys, 512));
                sorted[sorted.len() / 2]
            }),
        },
        WorkloadSpec {
            name: "fft",
            run: Box::new(move |pool| {
                let input = Arc::clone(&fft_input);
                let out = pool.install(move || fft_native(&input, 16));
                // Fold the exact bit patterns: the kernel's evaluation order is fixed
                // regardless of which worker runs each branch, so the checksum is stable.
                out.iter().map(|c| c.0.to_bits() ^ c.1.to_bits()).fold(0u64, u64::wrapping_add)
            }),
        },
        WorkloadSpec {
            name: "transpose-bi",
            run: Box::new(move |pool| {
                let a = Arc::clone(&tr_rm);
                let out = pool.install(move || {
                    let mut bi = rm_to_bi_native(&a, tr_n, 16);
                    transpose_native_bi(&mut bi, tr_n, 16);
                    bi_to_rm_native(&bi, tr_n, 16)
                });
                out.iter().map(|v| v.to_bits()).fold(0u64, u64::wrapping_add)
            }),
        },
        WorkloadSpec {
            name: "list-ranking",
            run: Box::new(move |pool| {
                let succ = Arc::clone(&lr_succ);
                let ranks = pool.install(move || list_ranking_native(&succ));
                ranks.iter().fold(0u64, |acc, &r| acc.wrapping_add(r))
            }),
        },
        WorkloadSpec {
            name: "dag-workflow",
            run: Box::new(move |pool| {
                let g = Arc::clone(&dag_graph);
                let vals = pool.install(move || workflow_native(&g));
                // Node values are schedule-independent (each predecessor contributes its
                // wrapping sum exactly once), so the fold is a stable checksum.
                vals.iter().fold(0u64, |acc, &v| acc.wrapping_add(v))
            }),
        },
        WorkloadSpec {
            name: "bfs",
            run: Box::new(move |pool| {
                let g = Arc::clone(&bfs_graph);
                let dist = pool.install(move || bfs_native(&g, 0));
                dist.iter().fold(0u64, |acc, &d| acc.wrapping_add(d as u64))
            }),
        },
        WorkloadSpec {
            name: "spmv",
            run: Box::new(move |pool| {
                let m = Arc::clone(&spmv_m);
                let x = Arc::clone(&spmv_x);
                let y = pool.install(move || spmv_native(&m, &x));
                // Per-row accumulation is sequential in storage order: bit-identical on
                // every schedule, so exact bit patterns are a safe checksum.
                y.iter().map(|v| v.to_bits()).fold(0u64, u64::wrapping_add)
            }),
        },
        WorkloadSpec {
            name: "sample-sort",
            run: Box::new(move |pool| {
                let keys = Arc::clone(&ss_keys);
                let sorted = pool.install(move || sample_sort_native(&keys, ss_buckets));
                sorted[sorted.len() / 2] ^ sorted.iter().fold(0u64, |a, &k| a.wrapping_add(k))
            }),
        },
    ]
}

struct OneRun {
    wall_ns: u64,
    steals: u64,
    batch_steals: u64,
    jobs: u64,
    retries: u64,
    parks: u64,
    allocs: u64,
}

/// Run the full suite. `alloc_count` reads the process-wide allocation counter (the binary
/// installs a counting global allocator; library callers can pass `|| 0`).
pub fn run_suite(cfg: &BenchConfig, alloc_count: impl Fn() -> u64) -> Vec<BenchRecord> {
    let mut records = Vec::new();
    for spec in suite(cfg.size) {
        for &backend in &[DequeBackend::Crossbeam, DequeBackend::Simple] {
            for &threads in &cfg.threads {
                // One pool per configuration: counters attribute through deltas, and pool
                // construction stays outside every timed window (the hot path is what is
                // being measured, not thread spawning). The untimed warm-up passes absorb
                // first-touch costs; the first also produces the reference checksum.
                let pool = ThreadPoolBuilder::new().threads(threads).backend(backend).build();
                let warm = (spec.run)(&pool);
                for _ in 1..cfg.warmup {
                    let again = (spec.run)(&pool);
                    assert_eq!(again, warm, "{}: nondeterministic checksum", spec.name);
                }
                let mut runs: Vec<OneRun> = Vec::with_capacity(cfg.repeats);
                for _ in 0..cfg.repeats {
                    let steals0 = pool.stats().total_steals();
                    let batch0 = pool.stats().total_batch_steals();
                    let jobs0 = pool.stats().total_jobs();
                    let retries0 = pool.stats().total_retries();
                    let parks0 = pool.stats().total_parks();
                    let allocs0 = alloc_count();
                    let start = Instant::now();
                    let check = (spec.run)(&pool);
                    let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    assert_eq!(check, warm, "{}: nondeterministic checksum", spec.name);
                    runs.push(OneRun {
                        wall_ns,
                        steals: pool.stats().total_steals() - steals0,
                        batch_steals: pool.stats().total_batch_steals() - batch0,
                        jobs: pool.stats().total_jobs() - jobs0,
                        retries: pool.stats().total_retries() - retries0,
                        parks: pool.stats().total_parks() - parks0,
                        allocs: alloc_count() - allocs0,
                    });
                }
                runs.sort_by_key(|r| r.wall_ns);
                let median = &runs[runs.len() / 2];
                records.push(BenchRecord {
                    workload: spec.name.to_string(),
                    backend: backend_name(backend).to_string(),
                    threads,
                    wall_ns_median: median.wall_ns,
                    wall_ns_min: runs[0].wall_ns,
                    steals: median.steals,
                    batch_steals: median.batch_steals,
                    jobs: median.jobs,
                    steal_retries: median.retries,
                    parks: median.parks,
                    allocs: median.allocs,
                    allocs_per_fork: if median.jobs == 0 {
                        0.0
                    } else {
                        median.allocs as f64 / median.jobs as f64
                    },
                });
            }
        }
    }
    records
}

// ------------------------------------------------------------------------------------------
// Service-mode throughput rows
// ------------------------------------------------------------------------------------------

/// One service-mode measurement: streamed root jobs through a supervised [`JobServer`]
/// instead of one `install`ed fork-join tree. These rows track the per-job pipeline cost
/// (submission → MPMC injector → worker → settle) and the admission layer's behaviour
/// under overload — the numbers the job-server subsystem exists to keep honest.
#[derive(Clone, Debug)]
pub struct ServiceBenchRecord {
    /// Scenario name (`service-steady` or `service-overload`).
    pub scenario: String,
    /// Admission policy name (`block`, `shed`, `shed-oldest`).
    pub admission: String,
    /// Worker threads in the server's pool.
    pub threads: usize,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// Submissions per run — fixed by the scenario, so gated exactly.
    pub submitted: u64,
    /// Jobs that ran to completion (median run).
    pub completed: u64,
    /// Submissions refused by admission (median run).
    pub shed: u64,
    /// Median wall time from first submission to last settle, nanoseconds.
    pub wall_ns_median: u64,
    /// Fastest repeat, nanoseconds.
    pub wall_ns_min: u64,
    /// Completed jobs per second on the median run (derived from the gated wall).
    pub jobs_per_sec: f64,
    /// `shed / submitted` on the median run.
    pub shed_rate: f64,
    /// p99 submission → execution-start latency, nanoseconds (reported, not gated).
    pub p99_queue_ns: u64,
    /// p99 execution-start → settle latency, nanoseconds (reported, not gated).
    pub p99_service_ns: u64,
}

fn admission_name(p: AdmissionPolicy) -> &'static str {
    match p {
        AdmissionPolicy::Block => "block",
        AdmissionPolicy::Shed => "shed",
        AdmissionPolicy::ShedOldest => "shed-oldest",
    }
}

struct ServiceScenario {
    name: &'static str,
    admission: AdmissionPolicy,
    queue_capacity: usize,
    jobs: u64,
    /// Per-job busy-spin. Zero on the steady scenario: with no work in the closure, the
    /// wall time is purely the per-job pipeline overhead under test.
    job_spin: Duration,
}

fn service_scenarios(size: SizeClass) -> Vec<ServiceScenario> {
    let (steady_jobs, burst_capacity) = match size {
        SizeClass::Smoke => (1_500u64, 64usize),
        SizeClass::Full => (30_000u64, 256usize),
    };
    vec![
        // Throughput of the bare pipeline: Block admission means every submission is
        // eventually admitted and runs, so submitted/completed/shed are all deterministic.
        ServiceScenario {
            name: "service-steady",
            admission: AdmissionPolicy::Block,
            queue_capacity: 256,
            jobs: steady_jobs,
            job_spin: Duration::ZERO,
        },
        // Admission under a 4x-capacity back-to-back burst of real (spinning) jobs: the
        // queue fills almost immediately and Shed refuses most of the tail. The shed count
        // depends on producer/consumer interleaving, so the gate bounds the shed *rate*
        // instead of demanding exactness.
        ServiceScenario {
            name: "service-overload",
            admission: AdmissionPolicy::Shed,
            queue_capacity: burst_capacity,
            jobs: (burst_capacity * 4) as u64,
            job_spin: Duration::from_micros(20),
        },
    ]
}

/// One timed run: a fresh server, `jobs` submissions, every handle awaited. Returns the
/// wall time (first submission → last settle) and the drained server's final snapshot.
fn service_one_run(sc: &ServiceScenario, threads: usize) -> (u64, ServiceSnapshot) {
    let server = JobServer::new(ServiceConfig {
        threads,
        queue_capacity: sc.queue_capacity,
        admission: sc.admission,
        ..ServiceConfig::default()
    });
    let ran = Arc::new(AtomicU64::new(0));
    let spin = sc.job_spin;
    let start = Instant::now();
    let mut handles = Vec::with_capacity(sc.jobs as usize);
    for _ in 0..sc.jobs {
        let ran = Arc::clone(&ran);
        handles.push(server.submit(move || {
            ran.fetch_add(1, Ordering::Relaxed);
            if !spin.is_zero() {
                let end = Instant::now() + spin;
                while Instant::now() < end {
                    std::hint::spin_loop();
                }
            }
        }));
    }
    for h in &handles {
        h.wait();
    }
    let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let snap = server.shutdown();
    // Free invariant checks on every bench run: no faults are injected here, so the
    // outcome partition is exactly {completed, shed}, and the counted executions (the
    // closure increments `ran`) must equal the completed count — a shed closure never ran.
    assert_eq!(
        snap.completed + snap.shed,
        snap.submitted,
        "{}: outcomes must partition submissions",
        sc.name
    );
    assert_eq!(
        ran.load(Ordering::Relaxed),
        snap.completed,
        "{}: counted executions must equal completions",
        sc.name
    );
    (wall_ns, snap)
}

/// Run the service-mode scenarios across the configured thread sweep. Each repetition uses
/// a fresh server (counters are per-server lifetime, so a fresh one gives clean per-run
/// numbers); the reported record is the median repetition by wall time.
pub fn run_service_suite(cfg: &BenchConfig) -> Vec<ServiceBenchRecord> {
    let mut records = Vec::new();
    for sc in service_scenarios(cfg.size) {
        for &threads in &cfg.threads {
            for _ in 0..cfg.warmup.max(1) {
                service_one_run(&sc, threads);
            }
            let mut runs: Vec<(u64, ServiceSnapshot)> =
                (0..cfg.repeats.max(1)).map(|_| service_one_run(&sc, threads)).collect();
            runs.sort_by_key(|r| r.0);
            let wall_min = runs[0].0;
            let (wall_med, snap) = runs[runs.len() / 2];
            let shed_rate =
                if snap.submitted == 0 { 0.0 } else { snap.shed as f64 / snap.submitted as f64 };
            let jobs_per_sec =
                if wall_med == 0 { 0.0 } else { snap.completed as f64 * 1e9 / wall_med as f64 };
            records.push(ServiceBenchRecord {
                scenario: sc.name.to_string(),
                admission: admission_name(sc.admission).to_string(),
                threads,
                queue_capacity: sc.queue_capacity,
                submitted: snap.submitted,
                completed: snap.completed,
                shed: snap.shed,
                wall_ns_median: wall_med,
                wall_ns_min: wall_min,
                jobs_per_sec,
                shed_rate,
                p99_queue_ns: snap.queue.p99_ns,
                p99_service_ns: snap.service.p99_ns,
            });
        }
    }
    records
}

// ------------------------------------------------------------------------------------------
// Flight-recorder overhead row
// ------------------------------------------------------------------------------------------

/// Ring capacity (events per lane) used by the trace-overhead measurement — the same
/// default `lab --trace` uses, so the measured cost matches what observability users pay.
pub const TRACE_BENCH_CAPACITY: usize = 1 << 16;

/// The flight-recorder overhead measurement: one deterministic workload run twice — on a
/// plain pool and on a pool built with [`ThreadPoolBuilder::trace`] — so the document
/// records what turning tracing on actually costs, and the gate can prove the *off*
/// configuration (the default every other row measures) never pays for the subsystem.
#[derive(Clone, Debug)]
pub struct TraceBenchRecord {
    /// Workload name (`recursive-sum`: the purest fork/join hot path in the suite, where
    /// per-event cost is least diluted by leaf compute).
    pub workload: String,
    /// Worker threads (1: deterministic jobs, wall gateable like the other t=1 rows).
    pub threads: usize,
    /// Ring capacity per recorder lane during the traced runs.
    pub capacity: usize,
    /// Median wall time with tracing off (the gated number), nanoseconds.
    pub wall_ns_off_median: u64,
    /// Median wall time with tracing on (reported, not gated — the cost of opting in).
    pub wall_ns_on_median: u64,
    /// `(on - off) / off`: the relative cost of the flight recorder on this workload.
    pub overhead_rel: f64,
    /// Fork branches per repeat — identical off and on (asserted), gated exactly.
    pub jobs: u64,
    /// Events the recorder accepted across the traced warm-up + repeats.
    pub events_recorded: u64,
    /// Events overwritten before the final snapshot (bounded-ring semantics).
    pub events_dropped: u64,
    /// Fraction of the traced span attributed to running jobs.
    pub busy_frac: f64,
    /// Fraction attributed to steal attempts.
    pub steal_frac: f64,
    /// Fraction attributed to parked waiting.
    pub park_frac: f64,
    /// Residual fraction (scheduler bookkeeping between attributed intervals).
    pub overhead_frac: f64,
}

/// One timed pass of the overhead workload: wall time and the pool's fork-count delta.
fn trace_one_run(pool: &ThreadPool, sum_n: u64, expect: u64) -> (u64, u64) {
    let jobs0 = pool.stats().total_jobs();
    let start = Instant::now();
    let check = pool.install(move || recursive_sum(0, sum_n));
    let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    assert_eq!(check, expect, "trace-overhead: nondeterministic checksum");
    (wall_ns, pool.stats().total_jobs() - jobs0)
}

/// Measure the flight recorder's cost: `recursive-sum` on a 1-thread chaselev pool with
/// tracing off, then on a pool built with `.trace(TRACE_BENCH_CAPACITY)`, medians over
/// `cfg.repeats`. The fork count must be identical in both modes — tracing observes the
/// schedule, it must not change it.
pub fn run_trace_overhead(cfg: &BenchConfig) -> TraceBenchRecord {
    let sum_n: u64 = match cfg.size {
        SizeClass::Smoke => 1 << 18,
        SizeClass::Full => 1 << 23,
    };
    let expect: u64 = (0..sum_n).sum();
    let threads = 1usize;

    let measure = |pool: &ThreadPool| -> (u64, u64) {
        for _ in 0..cfg.warmup.max(1) {
            trace_one_run(pool, sum_n, expect);
        }
        let mut runs: Vec<(u64, u64)> =
            (0..cfg.repeats.max(1)).map(|_| trace_one_run(pool, sum_n, expect)).collect();
        let jobs = runs[0].1;
        assert!(
            runs.iter().all(|&(_, j)| j == jobs),
            "trace-overhead: fork count must be deterministic at t=1"
        );
        runs.sort_by_key(|r| r.0);
        (runs[runs.len() / 2].0, jobs)
    };

    let off_pool =
        ThreadPoolBuilder::new().threads(threads).backend(DequeBackend::Crossbeam).build();
    let (off_median, off_jobs) = measure(&off_pool);

    let on_pool = ThreadPoolBuilder::new()
        .threads(threads)
        .backend(DequeBackend::Crossbeam)
        .trace(TRACE_BENCH_CAPACITY)
        .build();
    let (on_median, on_jobs) = measure(&on_pool);
    assert_eq!(off_jobs, on_jobs, "tracing must not change the fork count");

    let snap = on_pool.trace_snapshot().expect("traced pool must yield a snapshot");
    let profile = snap.profile();
    let span: u64 = profile.workers.iter().map(|w| w.span_ns).sum();
    let attributed = |f: fn(&rws_runtime::trace::WorkerProfile) -> u64| -> f64 {
        if span == 0 {
            0.0
        } else {
            profile.workers.iter().map(f).sum::<u64>() as f64 / span as f64
        }
    };
    TraceBenchRecord {
        workload: "recursive-sum".into(),
        threads,
        capacity: TRACE_BENCH_CAPACITY,
        wall_ns_off_median: off_median,
        wall_ns_on_median: on_median,
        overhead_rel: if off_median == 0 {
            0.0
        } else {
            (on_median as f64 - off_median as f64) / off_median as f64
        },
        jobs: off_jobs,
        events_recorded: snap.total_recorded(),
        events_dropped: snap.total_dropped(),
        busy_frac: attributed(|w| w.busy_ns),
        steal_frac: attributed(|w| w.steal_ns),
        park_frac: attributed(|w| w.park_ns),
        overhead_frac: attributed(|w| w.overhead_ns),
    }
}

// ------------------------------------------------------------------------------------------
// Sharded fork-join rows
// ------------------------------------------------------------------------------------------

/// One multi-process measurement: a shardable fork-join workload partitioned across
/// `shards` worker subprocesses by [`rws_shard::ShardedExecutor`], against the same
/// workload on an in-process pool with the same total thread count. The interesting number
/// is `overhead_rel`: what process spawning, pipe framing, and by-spec input rebuilding
/// cost relative to staying in-process. Walls are reported, not gated (subprocess spawn
/// latency is host-noise-bound); the *structure* — parts, fork counts, a clean fault
/// ledger — is deterministic and gated exactly.
#[derive(Clone, Debug)]
pub struct ShardedBenchRecord {
    /// Workload name (`matmul` or `spmv` — the by-spec-rebuildable demo instances).
    pub workload: String,
    /// Worker subprocesses.
    pub shards: usize,
    /// Native pool threads inside each worker.
    pub threads_per_shard: usize,
    /// Output parts the workload was partitioned into.
    pub parts: usize,
    /// Median sharded wall time over the repeats, nanoseconds.
    pub wall_ns_median: u64,
    /// Fastest sharded repeat, nanoseconds.
    pub wall_ns_min: u64,
    /// Median wall of the same workload on an in-process pool with
    /// `shards × threads_per_shard` threads, nanoseconds.
    pub inproc_wall_ns_median: u64,
    /// `(sharded − in-process) / in-process` on the median walls: the multi-process tax.
    pub overhead_rel: f64,
    /// Fork branches executed across all workers on the median sharded run — deterministic
    /// (a property of the per-part kernels), gated exactly.
    pub work_items: u64,
    /// Jobs redistributed after a shard death on the median run — 0 in this suite (no
    /// faults are injected), gated exactly.
    pub redistributed: u64,
}

/// Run the sharded suite: both shardable workloads × 2 worker subprocesses (1 pool thread
/// each) vs a 2-thread in-process pool. Every sharded run's output is checked against the
/// sequential reference, so a row doubles as a cross-process correctness pass.
///
/// Needs the `shard-worker` binary next to the running one — `cargo build --release -p
/// rws-shard` first (the binary's CI step does), or point `RWS_SHARD_WORKER` at it.
pub fn run_sharded_suite(cfg: &BenchConfig) -> Vec<ShardedBenchRecord> {
    use rws_exec::workloads::{MatMulWorkload, SpmvWorkload};
    use rws_exec::{Executor, NativeExecutor, SharedWorkload};
    use rws_shard::ShardedExecutor;

    let (mm_n, spmv_n) = match cfg.size {
        SizeClass::Smoke => (16usize, 512usize),
        SizeClass::Full => (32, 4096),
    };
    let workloads: Vec<(&str, SharedWorkload)> = vec![
        ("matmul", Arc::new(MatMulWorkload::demo(mm_n, 4))),
        ("spmv", Arc::new(SpmvWorkload::demo(spmv_n))),
    ];
    let (shards, threads_per_shard) = (2usize, 1usize);

    let mut records = Vec::new();
    for (name, workload) in workloads {
        let reference = workload.run_reference();

        // The in-process column: same kernel, same total thread count, one address space.
        let inproc = NativeExecutor::new(shards * threads_per_shard);
        for _ in 0..cfg.warmup.max(1) {
            inproc.execute(Arc::clone(&workload));
        }
        let mut inproc_walls: Vec<u64> = (0..cfg.repeats.max(1))
            .map(|_| {
                let outcome = inproc.execute(Arc::clone(&workload));
                assert_eq!(outcome.output, reference, "{name}: in-process run diverged");
                u64::try_from(outcome.report.wall.as_nanos()).unwrap_or(u64::MAX)
            })
            .collect();
        inproc_walls.sort_unstable();
        let inproc_median = inproc_walls[inproc_walls.len() / 2];

        // The sharded column: a fresh coordinator per repeat (each run spawns and reaps
        // its own worker processes; the executor value is pure configuration).
        let exec = ShardedExecutor::new(shards).threads_per_shard(threads_per_shard);
        for _ in 0..cfg.warmup.max(1) {
            exec.execute(Arc::clone(&workload));
        }
        let mut runs: Vec<(u64, u64, u64, usize)> = (0..cfg.repeats.max(1))
            .map(|_| {
                let outcome = exec.execute(Arc::clone(&workload));
                assert_eq!(outcome.output, reference, "{name}: sharded run diverged");
                let detail = outcome.report.shard.expect("sharded runs carry shard detail");
                assert_eq!(detail.shard_deaths, 0, "{name}: no faults are injected here");
                let wall = u64::try_from(outcome.report.wall.as_nanos()).unwrap_or(u64::MAX);
                (wall, outcome.report.work_items, detail.redistributed, detail.parts)
            })
            .collect();
        runs.sort_unstable_by_key(|r| r.0);
        let wall_min = runs[0].0;
        let (wall_median, work_items, redistributed, parts) = runs[runs.len() / 2];

        records.push(ShardedBenchRecord {
            workload: name.to_string(),
            shards,
            threads_per_shard,
            parts,
            wall_ns_median: wall_median,
            wall_ns_min: wall_min,
            inproc_wall_ns_median: inproc_median,
            overhead_rel: if inproc_median == 0 {
                0.0
            } else {
                (wall_median as f64 - inproc_median as f64) / inproc_median as f64
            },
            work_items,
            redistributed,
        });
    }
    records
}

/// Head-to-head comparison derived from the records: for each (workload, threads), the
/// chaselev-vs-simple speedup on median wall time.
pub fn comparisons(records: &[BenchRecord]) -> Vec<(String, usize, u64, u64, f64)> {
    let mut out = Vec::new();
    for r in records.iter().filter(|r| r.backend == "chaselev") {
        if let Some(s) = records
            .iter()
            .find(|s| s.backend == "simple" && s.workload == r.workload && s.threads == r.threads)
        {
            let speedup = if r.wall_ns_median == 0 {
                1.0
            } else {
                s.wall_ns_median as f64 / r.wall_ns_median as f64
            };
            out.push((r.workload.clone(), r.threads, r.wall_ns_median, s.wall_ns_median, speedup));
        }
    }
    out
}

/// Serialize the suite results as the `BENCH_native.json` document (rendered through the
/// shared [`rws_lab::json`] writer — one escaping and number-formatting path workspace-wide).
/// The `trace` key is emitted as `null`; the binary's full emission path goes through
/// [`to_json_full`], which includes the measured [`TraceBenchRecord`].
pub fn to_json(
    cfg: &BenchConfig,
    records: &[BenchRecord],
    service: &[ServiceBenchRecord],
) -> String {
    to_json_full(cfg, records, service, None, &[])
}

/// Render the trace-overhead measurement as the document's `trace` object.
fn trace_json(t: &TraceBenchRecord) -> Json {
    obj([
        ("workload", t.workload.as_str().into()),
        ("threads", t.threads.into()),
        ("capacity", t.capacity.into()),
        ("wall_ns_off_median", t.wall_ns_off_median.into()),
        ("wall_ns_on_median", t.wall_ns_on_median.into()),
        ("overhead_rel", t.overhead_rel.into()),
        ("jobs", t.jobs.into()),
        ("events_recorded", t.events_recorded.into()),
        ("events_dropped", t.events_dropped.into()),
        ("busy_frac", t.busy_frac.into()),
        ("steal_frac", t.steal_frac.into()),
        ("park_frac", t.park_frac.into()),
        ("overhead_frac", t.overhead_frac.into()),
    ])
}

/// [`to_json`] plus the flight-recorder overhead row (`trace`: an object when measured,
/// `null` when not — the key is always present, so consumers need no probing) and the
/// multi-process `sharded` rows (always present as an array, empty when the suite did not
/// run).
pub fn to_json_full(
    cfg: &BenchConfig,
    records: &[BenchRecord],
    service: &[ServiceBenchRecord],
    trace: Option<&TraceBenchRecord>,
    sharded: &[ShardedBenchRecord],
) -> String {
    let recs: Vec<Json> = records
        .iter()
        .map(|r| {
            obj([
                ("workload", r.workload.as_str().into()),
                ("backend", r.backend.as_str().into()),
                ("threads", r.threads.into()),
                ("wall_ns_median", r.wall_ns_median.into()),
                ("wall_ns_min", r.wall_ns_min.into()),
                ("steals", r.steals.into()),
                ("batch_steals", r.batch_steals.into()),
                ("jobs", r.jobs.into()),
                ("steal_retries", r.steal_retries.into()),
                ("parks", r.parks.into()),
                ("allocs", r.allocs.into()),
                ("allocs_per_fork", r.allocs_per_fork.into()),
            ])
        })
        .collect();
    let svc: Vec<Json> = service
        .iter()
        .map(|r| {
            obj([
                ("scenario", r.scenario.as_str().into()),
                ("admission", r.admission.as_str().into()),
                ("threads", r.threads.into()),
                ("queue_capacity", r.queue_capacity.into()),
                ("submitted", r.submitted.into()),
                ("completed", r.completed.into()),
                ("shed", r.shed.into()),
                ("wall_ns_median", r.wall_ns_median.into()),
                ("wall_ns_min", r.wall_ns_min.into()),
                ("jobs_per_sec", r.jobs_per_sec.into()),
                ("shed_rate", r.shed_rate.into()),
                ("p99_queue_ns", r.p99_queue_ns.into()),
                ("p99_service_ns", r.p99_service_ns.into()),
            ])
        })
        .collect();
    let shd: Vec<Json> = sharded
        .iter()
        .map(|r| {
            obj([
                ("workload", r.workload.as_str().into()),
                ("shards", r.shards.into()),
                ("threads_per_shard", r.threads_per_shard.into()),
                ("parts", r.parts.into()),
                ("wall_ns_median", r.wall_ns_median.into()),
                ("wall_ns_min", r.wall_ns_min.into()),
                ("inproc_wall_ns_median", r.inproc_wall_ns_median.into()),
                ("overhead_rel", r.overhead_rel.into()),
                ("work_items", r.work_items.into()),
                ("redistributed", r.redistributed.into()),
            ])
        })
        .collect();
    let cmps: Vec<Json> = comparisons(records)
        .into_iter()
        .map(|(workload, threads, cl, simple, speedup)| {
            obj([
                ("workload", workload.into()),
                ("threads", threads.into()),
                ("chaselev_ns", cl.into()),
                ("simple_ns", simple.into()),
                ("speedup", speedup.into()),
            ])
        })
        .collect();
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    let caveat = if host == 0 {
        "host parallelism unknown (available_parallelism failed): interpret multi-thread \
         rows against the actual core count of the measuring host"
    } else if host == 1 {
        "1-CPU host: rows with threads > 1 measure oversubscription (OS time-slicing), \
         not parallel speedup; steal/park counters reflect starved scheduling"
    } else {
        "thread counts above host_parallelism measure oversubscription"
    };
    obj([
        // v2: the `service` array (job-server throughput/shedding rows) joined the
        // document; consumers diffing against a v1 baseline must regenerate it.
        ("schema", "rws-bench-native/v2".into()),
        ("size", cfg.size.name().into()),
        ("repeats", cfg.repeats.into()),
        ("warmup", cfg.warmup.into()),
        ("host_parallelism", host.into()),
        ("caveat", caveat.into()),
        ("records", recs.into()),
        ("service", svc.into()),
        ("trace", trace.map(trace_json).unwrap_or(Json::Null)),
        ("sharded", shd.into()),
        ("chaselev_vs_simple", cmps.into()),
    ])
    .render()
}

/// Structural validation of a `BENCH_native.json` document: well-formed JSON (via the
/// shared [`rws_lab::json`] validator) plus this emitter's required keys.
/// Returns a description of the first problem found.
pub fn validate_json(doc: &str) -> Result<(), String> {
    json::validate_with_keys(
        doc,
        &[
            "schema",
            "records",
            "service",
            "trace",
            "sharded",
            "chaselev_vs_simple",
            "wall_ns_median",
            "caveat",
        ],
    )
}

/// Structurally diff a (smoke) run's document against the committed baseline — the CI gate
/// that catches a silently dropped row or a drifted record schema, which plain
/// [`validate_json`] cannot see. The comparison is **forward-compatible**: the baseline's
/// structure must be a *subset* of the run's, so a run emitted by a newer binary (extra
/// top-level keys, extra per-record fields) still checks cleanly against an older committed
/// baseline, while anything the baseline promises that the run dropped fails. Checks:
///
/// 1. every baseline top-level key appears in the run (run-only extras are ignored), and
///    the `schema` tags are identical;
/// 2. every record in both documents carries at least the baseline's per-record field set
///    (a field *missing* from a run record still fails; run-only extra fields pass);
/// 3. every `(workload, backend)` combination in the baseline appears in the run;
/// 4. the run's per-combination record count is uniform (each combination measured at
///    every swept thread count — a single dropped row breaks the uniformity).
///
/// Returns a description of the first mismatch.
pub fn check_against(run_doc: &str, baseline_doc: &str) -> Result<(), String> {
    let run = json::parse(run_doc).map_err(|e| format!("run document: {e}"))?;
    let base = json::parse(baseline_doc).map_err(|e| format!("baseline document: {e}"))?;

    for key in base.keys() {
        if !run.keys().contains(&key) {
            return Err(format!(
                "baseline top-level key `{key}` is missing from the run (run has {:?}) — \
                 a section was silently dropped",
                run.keys()
            ));
        }
    }
    if run.get("schema") != base.get("schema") {
        return Err(format!(
            "schema tags differ: run {:?}, baseline {:?}",
            run.get("schema"),
            base.get("schema")
        ));
    }

    let records = |doc: &Json, which: &str| -> Result<Vec<Json>, String> {
        doc.get("records")
            .and_then(Json::as_array)
            .map(<[Json]>::to_vec)
            .ok_or(format!("{which} document has no `records` array"))
    };
    let run_records = records(&run, "run")?;
    let base_records = records(&base, "baseline")?;
    let reference_fields = base_records
        .first()
        .ok_or("baseline has no records to diff against")?
        .keys()
        .iter()
        .map(|k| k.to_string())
        .collect::<Vec<_>>();
    for (which, recs) in [("run", &run_records), ("baseline", &base_records)] {
        for (i, rec) in recs.iter().enumerate() {
            if let Some(lost) = reference_fields.iter().find(|f| !rec.keys().contains(&f.as_str()))
            {
                return Err(format!(
                    "{which} record {i} field set {:?} lacks `{lost}` from the baseline \
                     schema {:?}",
                    rec.keys(),
                    reference_fields
                ));
            }
        }
    }

    let combo = |rec: &Json| -> Result<(String, String), String> {
        let field = |key: &str| {
            rec.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("record lacks a string `{key}`"))
        };
        Ok((field("workload")?, field("backend")?))
    };
    let mut run_counts: Vec<((String, String), usize)> = Vec::new();
    for rec in &run_records {
        let key = combo(rec)?;
        match run_counts.iter_mut().find(|(k, _)| *k == key) {
            Some((_, n)) => *n += 1,
            None => run_counts.push((key, 1)),
        }
    }
    for rec in &base_records {
        let key = combo(rec)?;
        if !run_counts.iter().any(|(k, _)| *k == key) {
            return Err(format!(
                "workload/backend combination {key:?} present in the baseline is missing \
                 from the run — a row was silently dropped"
            ));
        }
    }
    let expected = run_counts.iter().map(|(_, n)| *n).max().unwrap_or(0);
    for (key, n) in &run_counts {
        if *n != expected {
            return Err(format!(
                "combination {key:?} has {n} record(s) but others have {expected} — \
                 a thread-count row was silently dropped"
            ));
        }
    }

    // The service rows get the same structural treatment: every row carries the baseline's
    // field set, and every baseline scenario appears in the run (the run may sweep fewer
    // thread counts, so only scenario presence — not row counts — is required).
    let service = |doc: &Json, which: &str| -> Result<Vec<Json>, String> {
        doc.get("service")
            .and_then(Json::as_array)
            .map(<[Json]>::to_vec)
            .ok_or(format!("{which} document has no `service` array"))
    };
    let run_service = service(&run, "run")?;
    let base_service = service(&base, "baseline")?;
    if let Some(reference) = base_service.first() {
        let fields = reference.keys();
        for (which, recs) in [("run", &run_service), ("baseline", &base_service)] {
            for (i, rec) in recs.iter().enumerate() {
                if let Some(lost) = fields.iter().find(|f| !rec.keys().contains(f)) {
                    return Err(format!(
                        "{which} service record {i} field set {:?} lacks `{lost}` from the \
                         baseline schema {fields:?}",
                        rec.keys()
                    ));
                }
            }
        }
        for rec in &base_service {
            let name = rec
                .get("scenario")
                .and_then(Json::as_str)
                .ok_or("baseline service record lacks a string `scenario`")?;
            if !run_service.iter().any(|r| r.get("scenario") == rec.get("scenario")) {
                return Err(format!(
                    "service scenario {name:?} present in the baseline is missing from \
                     the run — a row was silently dropped"
                ));
            }
        }
    }

    // And the multi-process `sharded` rows: same field-set rule, with presence matched by
    // workload. Documents predating the sharded suite simply lack the key (the top-level
    // subset check above already handles that direction).
    let sharded_of = |doc: &Json| -> Vec<Json> {
        doc.get("sharded").and_then(Json::as_array).map(<[Json]>::to_vec).unwrap_or_default()
    };
    let run_sharded = sharded_of(&run);
    let base_sharded = sharded_of(&base);
    if let Some(reference) = base_sharded.first() {
        let fields = reference.keys();
        for (which, recs) in [("run", &run_sharded), ("baseline", &base_sharded)] {
            for (i, rec) in recs.iter().enumerate() {
                if let Some(lost) = fields.iter().find(|f| !rec.keys().contains(f)) {
                    return Err(format!(
                        "{which} sharded record {i} field set {:?} lacks `{lost}` from the \
                         baseline schema {fields:?}",
                        rec.keys()
                    ));
                }
            }
        }
        for rec in &base_sharded {
            let name = rec
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("baseline sharded record lacks a string `workload`")?;
            if !run_sharded.iter().any(|r| r.get("workload") == rec.get("workload")) {
                return Err(format!(
                    "sharded workload {name:?} present in the baseline is missing from \
                     the run — a row was silently dropped"
                ));
            }
        }
    }
    Ok(())
}

// ------------------------------------------------------------------------------------------
// The perf-regression gate
// ------------------------------------------------------------------------------------------

/// Tolerances of the perf-regression gate ([`gate_against`]).
///
/// The defaults encode what is actually deterministic on this suite:
///
/// * **`threads = 1` wall times** are gated with a *relative* tolerance — generous
///   (35%) because CI hosts are noisy and shared, yet tight enough that a hot-path change
///   costing 2x fails loudly.
/// * **Deterministic counters** (`jobs` at every thread count; `allocs`, `steals`,
///   `batch_steals`, `steal_retries` at `threads = 1`, where a lone worker never steals)
///   are gated **exactly**: they cannot drift honestly.
/// * **`threads > 1` wall times and parks are not gated at all** — the committed baseline
///   may come from a 1-CPU host (see the document's `caveat`), where those rows measure OS
///   time-slicing, not the scheduler.
/// * **`threads > 1` `steal_retries`** get a loose upper bound (`base · retry_factor +
///   retry_slack`): scheduling-dependent, but an explosion in lost CAS races is precisely
///   the kind of regression batching exists to prevent.
/// * **Service rows** (matched by `(scenario, threads)`): `submitted` and the
///   `completed + shed == submitted` partition are exact; `threads = 1` wall medians use
///   `wall_rel_tol`; the shed rate is bounded above by `baseline + shed_slack` (shedding
///   *less* is the good direction, so no lower bound). `jobs_per_sec` is derived from the
///   gated wall and the p99 latencies are scheduling-noise-bound, so neither is gated
///   directly.
/// * **The trace-overhead row** (when both documents carry one): the *tracing-off* wall is
///   gated with `wall_rel_tol` and `jobs` exactly — proof the always-compiled flight
///   recorder stays free when it is off. The tracing-on wall is reported, not gated.
/// * **Sharded rows** (matched by `(workload, shards, threads_per_shard)`, when both
///   documents carry a `sharded` array): `parts` and `work_items` are exact,
///   `redistributed` must be 0 (a fault-free suite whose workers died is broken), and the
///   walls — sharded and in-process alike — are reported, never gated: subprocess spawn
///   latency is host noise.
#[derive(Clone, Copy, Debug)]
pub struct GateConfig {
    /// Relative tolerance on `threads = 1` median wall times (0.35 = +35%).
    pub wall_rel_tol: f64,
    /// Multiplier on baseline `steal_retries` for `threads > 1` rows.
    pub retry_factor: u64,
    /// Absolute slack added to the `threads > 1` retry bound (covers near-zero baselines).
    pub retry_slack: u64,
    /// Absolute slack on service-row shed rates above the baseline (0.20 = +20 points).
    pub shed_slack: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig { wall_rel_tol: 0.35, retry_factor: 16, retry_slack: 256, shed_slack: 0.20 }
    }
}

/// Gate a run document against the committed baseline. Returns the machine-readable delta
/// document (schema `rws-bench-delta/v1`) and whether the gate passed; `Err` means the
/// documents could not be compared at all (which CI also treats as failure).
///
/// Rows are matched by `(workload, backend, threads)`. Every run row must have a baseline
/// counterpart (a missing one means the suite grew — regenerate `BENCH_native.json`);
/// baseline rows absent from the run are ignored, so CI may gate on a subset sweep. Both
/// documents must carry the same `size` class — comparing smoke walls against full
/// baselines would be meaningless.
pub fn gate_against(
    run_doc: &str,
    baseline_doc: &str,
    gate: &GateConfig,
) -> Result<(String, bool), String> {
    let run = json::parse(run_doc).map_err(|e| format!("run document: {e}"))?;
    let base = json::parse(baseline_doc).map_err(|e| format!("baseline document: {e}"))?;
    if run.get("schema") != base.get("schema") {
        return Err(format!(
            "schema tags differ: run {:?}, baseline {:?}",
            run.get("schema"),
            base.get("schema")
        ));
    }
    if run.get("size") != base.get("size") {
        return Err(format!(
            "size classes differ (run {:?}, baseline {:?}): gate runs must use the \
             baseline's size",
            run.get("size"),
            base.get("size")
        ));
    }
    let records = |doc: &Json, which: &str| -> Result<Vec<Json>, String> {
        doc.get("records")
            .and_then(Json::as_array)
            .map(<[Json]>::to_vec)
            .ok_or(format!("{which} document has no `records` array"))
    };
    let run_records = records(&run, "run")?;
    let base_records = records(&base, "baseline")?;

    let text = |rec: &Json, k: &str| -> Result<String, String> {
        rec.get(k).and_then(Json::as_str).map(str::to_string).ok_or(format!("record lacks `{k}`"))
    };
    let num = |rec: &Json, k: &str| -> Result<u64, String> {
        rec.get(k).and_then(Json::as_u64).ok_or(format!(
            "record lacks a numeric `{k}` — regenerate BENCH_native.json with this binary"
        ))
    };

    let mut rows: Vec<Json> = Vec::new();
    let mut regressions: Vec<String> = Vec::new();
    for rec in &run_records {
        let (w, b) = (text(rec, "workload")?, text(rec, "backend")?);
        let t = num(rec, "threads")?;
        let id = format!("{w}/{b} t={t}");
        let Some(base_rec) = base_records.iter().find(|r| {
            r.get("workload") == rec.get("workload")
                && r.get("backend") == rec.get("backend")
                && r.get("threads") == rec.get("threads")
        }) else {
            return Err(format!(
                "run row {id} has no baseline counterpart — the suite changed; regenerate \
                 BENCH_native.json"
            ));
        };

        let wall_run = num(rec, "wall_ns_median")?;
        let wall_base = num(base_rec, "wall_ns_median")?;
        let wall_rel = if wall_base == 0 {
            0.0
        } else {
            (wall_run as f64 - wall_base as f64) / wall_base as f64
        };
        let mut ok = true;
        if t == 1 && wall_rel > gate.wall_rel_tol {
            ok = false;
            regressions.push(format!(
                "{id}: wall_ns_median {wall_run} vs baseline {wall_base} \
                 ({:+.1}% > +{:.0}%)",
                100.0 * wall_rel,
                100.0 * gate.wall_rel_tol
            ));
        }

        let exact: &[&str] = if t == 1 {
            &["jobs", "allocs", "steals", "batch_steals", "steal_retries"]
        } else {
            &["jobs"]
        };
        let mut counters: Vec<(String, Json)> = Vec::new();
        for key in ["steals", "batch_steals", "jobs", "steal_retries", "allocs"] {
            let (r, bse) = (num(rec, key)?, num(base_rec, key)?);
            counters.push((format!("{key}_run"), r.into()));
            counters.push((format!("{key}_base"), bse.into()));
            if exact.contains(&key) && r != bse {
                ok = false;
                regressions.push(format!("{id}: {key} {r} vs baseline {bse} (gated exact)"));
            }
        }
        if t > 1 {
            let (r, bse) = (num(rec, "steal_retries")?, num(base_rec, "steal_retries")?);
            let bound = bse.saturating_mul(gate.retry_factor).saturating_add(gate.retry_slack);
            if r > bound {
                ok = false;
                regressions.push(format!(
                    "{id}: steal_retries {r} vs baseline {bse} (bound {bound} = \
                     base x{} + {})",
                    gate.retry_factor, gate.retry_slack
                ));
            }
        }

        let mut fields: Vec<(&str, Json)> = vec![
            ("workload", w.as_str().into()),
            ("backend", b.as_str().into()),
            ("threads", Json::U64(t)),
            ("wall_ns_median_run", wall_run.into()),
            ("wall_ns_median_base", wall_base.into()),
            ("wall_rel_delta", wall_rel.into()),
            ("wall_gated", (t == 1).into()),
            ("ok", ok.into()),
        ];
        fields.extend(counters.iter().map(|(k, v)| (k.as_str(), v.clone())));
        rows.push(Json::Obj(fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()));
    }

    // Service rows, matched by (scenario, threads). Same counterpart rule as the compute
    // rows: every run row needs a baseline twin, baseline-only rows are ignored (CI gates
    // a t=1 subset sweep).
    let service_of = |doc: &Json| -> Vec<Json> {
        doc.get("service").and_then(Json::as_array).map(<[Json]>::to_vec).unwrap_or_default()
    };
    let run_service = service_of(&run);
    let base_service = service_of(&base);
    let fnum = |rec: &Json, k: &str| -> Result<f64, String> {
        rec.get(k).and_then(Json::as_f64).ok_or(format!(
            "service record lacks a numeric `{k}` — regenerate BENCH_native.json with \
             this binary"
        ))
    };
    let mut service_rows: Vec<Json> = Vec::new();
    for rec in &run_service {
        let scenario = text(rec, "scenario")?;
        let t = num(rec, "threads")?;
        let id = format!("{scenario} t={t}");
        let Some(base_rec) = base_service.iter().find(|r| {
            r.get("scenario") == rec.get("scenario") && r.get("threads") == rec.get("threads")
        }) else {
            return Err(format!(
                "service row {id} has no baseline counterpart — the suite changed; \
                 regenerate BENCH_native.json"
            ));
        };

        let mut ok = true;
        let (sub_run, sub_base) = (num(rec, "submitted")?, num(base_rec, "submitted")?);
        if sub_run != sub_base {
            ok = false;
            regressions
                .push(format!("{id}: submitted {sub_run} vs baseline {sub_base} (gated exact)"));
        }
        let (completed, shed) = (num(rec, "completed")?, num(rec, "shed")?);
        if completed + shed != sub_run {
            ok = false;
            regressions.push(format!(
                "{id}: completed {completed} + shed {shed} != submitted {sub_run} \
                 (outcome partition broken)"
            ));
        }
        let wall_run = num(rec, "wall_ns_median")?;
        let wall_base = num(base_rec, "wall_ns_median")?;
        let wall_rel = if wall_base == 0 {
            0.0
        } else {
            (wall_run as f64 - wall_base as f64) / wall_base as f64
        };
        if t == 1 && wall_rel > gate.wall_rel_tol {
            ok = false;
            regressions.push(format!(
                "{id}: wall_ns_median {wall_run} vs baseline {wall_base} ({:+.1}% > +{:.0}%)",
                100.0 * wall_rel,
                100.0 * gate.wall_rel_tol
            ));
        }
        let shed_run = fnum(rec, "shed_rate")?;
        let shed_base = fnum(base_rec, "shed_rate")?;
        let bound = shed_base + gate.shed_slack;
        if shed_run > bound {
            ok = false;
            regressions.push(format!(
                "{id}: shed_rate {shed_run:.3} vs baseline {shed_base:.3} \
                 (bound {bound:.3} = base + {:.2})",
                gate.shed_slack
            ));
        }

        service_rows.push(obj([
            ("scenario", scenario.as_str().into()),
            ("threads", Json::U64(t)),
            ("wall_ns_median_run", wall_run.into()),
            ("wall_ns_median_base", wall_base.into()),
            ("wall_rel_delta", wall_rel.into()),
            ("wall_gated", (t == 1).into()),
            ("submitted_run", sub_run.into()),
            ("submitted_base", sub_base.into()),
            ("shed_rate_run", shed_run.into()),
            ("shed_rate_base", shed_base.into()),
            ("shed_rate_bound", bound.into()),
            ("ok", ok.into()),
        ]));
    }

    // The trace-overhead row, when both documents carry one. The *off* wall is the gated
    // number — it is what every untraced row pays, so a regression there means the
    // flight recorder leaked cost into the default path. The on-wall and the attribution
    // fractions are reported in the delta but not gated (opting in is allowed to cost).
    // A `null`/absent trace on either side skips the row, so a pre-trace baseline still
    // gates cleanly until it is regenerated.
    let trace_row = match (run.get("trace"), base.get("trace")) {
        (Some(run_tr @ Json::Obj(_)), Some(base_tr @ Json::Obj(_))) => {
            let mut ok = true;
            let id = "trace-overhead";
            let wall_run = num(run_tr, "wall_ns_off_median")?;
            let wall_base = num(base_tr, "wall_ns_off_median")?;
            let wall_rel = if wall_base == 0 {
                0.0
            } else {
                (wall_run as f64 - wall_base as f64) / wall_base as f64
            };
            if wall_rel > gate.wall_rel_tol {
                ok = false;
                regressions.push(format!(
                    "{id}: tracing-off wall_ns_off_median {wall_run} vs baseline {wall_base} \
                     ({:+.1}% > +{:.0}%)",
                    100.0 * wall_rel,
                    100.0 * gate.wall_rel_tol
                ));
            }
            let (jobs_run, jobs_base) = (num(run_tr, "jobs")?, num(base_tr, "jobs")?);
            if jobs_run != jobs_base {
                ok = false;
                regressions
                    .push(format!("{id}: jobs {jobs_run} vs baseline {jobs_base} (gated exact)"));
            }
            obj([
                ("workload", run_tr.get("workload").cloned().unwrap_or(Json::Null)),
                ("wall_ns_off_median_run", wall_run.into()),
                ("wall_ns_off_median_base", wall_base.into()),
                ("wall_rel_delta", wall_rel.into()),
                ("wall_ns_on_median_run", num(run_tr, "wall_ns_on_median")?.into()),
                ("overhead_rel_run", run_tr.get("overhead_rel").cloned().unwrap_or(Json::Null)),
                ("overhead_rel_base", base_tr.get("overhead_rel").cloned().unwrap_or(Json::Null)),
                ("jobs_run", jobs_run.into()),
                ("jobs_base", jobs_base.into()),
                ("ok", ok.into()),
            ])
        }
        _ => Json::Null,
    };

    // The sharded rows, matched by (workload, shards, threads_per_shard). Structure is
    // gated exactly — parts and fork counts are deterministic functions of the kernels,
    // and a nonzero redistributed count means workers died in a suite that injects no
    // faults. Walls (sharded and in-process) are reported, never gated: subprocess spawn
    // latency is exactly the kind of host noise the t>1 wall exemption exists for. A
    // baseline without a `sharded` key (predating the suite) skips these rows, like a
    // null baseline trace.
    let sharded_of = |doc: &Json| -> Option<Vec<Json>> {
        doc.get("sharded").and_then(Json::as_array).map(<[Json]>::to_vec)
    };
    let mut sharded_rows: Vec<Json> = Vec::new();
    if let (Some(run_sharded), Some(base_sharded)) = (sharded_of(&run), sharded_of(&base)) {
        for rec in &run_sharded {
            let w = text(rec, "workload")?;
            let (s, t) = (num(rec, "shards")?, num(rec, "threads_per_shard")?);
            let id = format!("sharded {w} s={s} t={t}");
            let Some(base_rec) = base_sharded.iter().find(|r| {
                r.get("workload") == rec.get("workload")
                    && r.get("shards") == rec.get("shards")
                    && r.get("threads_per_shard") == rec.get("threads_per_shard")
            }) else {
                return Err(format!(
                    "sharded row {id} has no baseline counterpart — the suite changed; \
                     regenerate BENCH_native.json"
                ));
            };

            let mut ok = true;
            for key in ["parts", "work_items"] {
                let (r, bse) = (num(rec, key)?, num(base_rec, key)?);
                if r != bse {
                    ok = false;
                    regressions.push(format!("{id}: {key} {r} vs baseline {bse} (gated exact)"));
                }
            }
            let redistributed = num(rec, "redistributed")?;
            if redistributed != 0 {
                ok = false;
                regressions.push(format!(
                    "{id}: redistributed {redistributed} != 0 — workers died during a \
                     fault-free bench run"
                ));
            }
            let wall_run = num(rec, "wall_ns_median")?;
            let wall_base = num(base_rec, "wall_ns_median")?;
            sharded_rows.push(obj([
                ("workload", w.as_str().into()),
                ("shards", Json::U64(s)),
                ("threads_per_shard", Json::U64(t)),
                ("wall_ns_median_run", wall_run.into()),
                ("wall_ns_median_base", wall_base.into()),
                ("wall_gated", false.into()),
                ("overhead_rel_run", rec.get("overhead_rel").cloned().unwrap_or(Json::Null)),
                ("overhead_rel_base", base_rec.get("overhead_rel").cloned().unwrap_or(Json::Null)),
                ("parts_run", num(rec, "parts")?.into()),
                ("work_items_run", num(rec, "work_items")?.into()),
                ("redistributed_run", redistributed.into()),
                ("ok", ok.into()),
            ]));
        }
    }

    let pass = regressions.is_empty();
    let delta = obj([
        ("schema", "rws-bench-delta/v1".into()),
        ("size", run.get("size").cloned().unwrap_or(Json::Null)),
        ("wall_rel_tol", gate.wall_rel_tol.into()),
        ("retry_factor", gate.retry_factor.into()),
        ("retry_slack", gate.retry_slack.into()),
        ("shed_slack", gate.shed_slack.into()),
        ("pass", pass.into()),
        (
            "regressions",
            Json::Arr(regressions.iter().map(|r| r.as_str().into()).collect::<Vec<_>>()),
        ),
        ("rows", rows.into()),
        ("service_rows", service_rows.into()),
        ("trace_row", trace_row),
        ("sharded_rows", sharded_rows.into()),
    ])
    .render();
    Ok((delta, pass))
}

/// Structural validation of a delta document emitted by [`gate_against`].
pub fn validate_delta(doc: &str) -> Result<(), String> {
    json::validate_with_keys(
        doc,
        &[
            "schema",
            "pass",
            "regressions",
            "rows",
            "service_rows",
            "trace_row",
            "sharded_rows",
            "wall_rel_tol",
        ],
    )
}

/// Summarize a run document as one trajectory row: the `threads = 1` `chaselev` median
/// wall per workload plus the `threads = 1` service throughputs (the numbers the gate
/// actually protects), stamped with `date` and a free-form `note`.
pub fn trajectory_row(run_doc: &str, date: &str, note: &str) -> Result<Json, String> {
    let run = json::parse(run_doc).map_err(|e| format!("run document: {e}"))?;
    let records =
        run.get("records").and_then(Json::as_array).ok_or("run document has no `records`")?;
    let mut walls: Vec<(String, Json)> = Vec::new();
    for rec in records {
        if rec.get("backend").and_then(Json::as_str) == Some("chaselev")
            && rec.get("threads").and_then(Json::as_u64) == Some(1)
        {
            let w = rec.get("workload").and_then(Json::as_str).ok_or("record lacks `workload`")?;
            let ns = rec.get("wall_ns_median").and_then(Json::as_u64).ok_or("record lacks wall")?;
            walls.push((w.to_string(), ns.into()));
        }
    }
    if walls.is_empty() {
        return Err("run document has no threads=1 chaselev rows to summarize".into());
    }
    let mut svc: Vec<(String, Json)> = Vec::new();
    for rec in run.get("service").and_then(Json::as_array).unwrap_or(&[]) {
        if rec.get("threads").and_then(Json::as_u64) == Some(1) {
            if let (Some(name), Some(jps)) = (
                rec.get("scenario").and_then(Json::as_str),
                rec.get("jobs_per_sec").and_then(Json::as_f64),
            ) {
                svc.push((name.to_string(), jps.into()));
            }
        }
    }
    let mut shd: Vec<(String, Json)> = Vec::new();
    for rec in run.get("sharded").and_then(Json::as_array).unwrap_or(&[]) {
        if let (Some(name), Some(rel)) = (
            rec.get("workload").and_then(Json::as_str),
            rec.get("overhead_rel").and_then(Json::as_f64),
        ) {
            shd.push((name.to_string(), rel.into()));
        }
    }
    let mut fields: Vec<(String, Json)> = vec![
        ("date".into(), date.into()),
        ("note".into(), note.into()),
        ("size".into(), run.get("size").cloned().unwrap_or(Json::Null)),
        ("t1_chaselev_wall_ns".into(), Json::Obj(walls)),
    ];
    // Rows predating the service suite simply lack this key; the history stays appendable.
    if !svc.is_empty() {
        fields.push(("t1_service_jobs_per_sec".into(), Json::Obj(svc)));
    }
    // Same for rows predating the sharded suite: the multi-process tax per workload.
    if !shd.is_empty() {
        fields.push(("sharded_overhead_rel".into(), Json::Obj(shd)));
    }
    Ok(Json::Obj(fields))
}

/// Append `row` to a trajectory document (schema `rws-bench-trajectory/v1`), creating the
/// document when `existing` is `None`. Returns the new document text.
pub fn append_trajectory(existing: Option<&str>, row: Json) -> Result<String, String> {
    let mut rows: Vec<Json> = match existing {
        None => Vec::new(),
        Some(doc) => {
            let parsed = json::parse(doc).map_err(|e| format!("trajectory document: {e}"))?;
            if parsed.get("schema").and_then(Json::as_str) != Some("rws-bench-trajectory/v1") {
                return Err(format!(
                    "trajectory document has schema {:?}, expected rws-bench-trajectory/v1",
                    parsed.get("schema")
                ));
            }
            parsed
                .get("rows")
                .and_then(Json::as_array)
                .map(<[Json]>::to_vec)
                .ok_or("trajectory document has no `rows` array")?
        }
    };
    rows.push(row);
    Ok(obj([("schema", "rws-bench-trajectory/v1".into()), ("rows", rows.into())]).render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(backend: &str, threads: usize, wall: u64) -> BenchRecord {
        BenchRecord {
            workload: "recursive-sum".into(),
            backend: backend.into(),
            threads,
            wall_ns_median: wall,
            wall_ns_min: wall - 10,
            steals: if threads == 1 { 0 } else { 5 },
            batch_steals: if threads == 1 { 0 } else { 2 },
            jobs: 50,
            steal_retries: if threads == 1 { 0 } else { 1 },
            parks: 2,
            allocs: 3,
            allocs_per_fork: 0.06,
        }
    }

    fn service_record(scenario: &str, threads: usize, wall: u64, shed: u64) -> ServiceBenchRecord {
        let submitted = 1000;
        ServiceBenchRecord {
            scenario: scenario.into(),
            admission: if shed == 0 { "block" } else { "shed" }.into(),
            threads,
            queue_capacity: 64,
            submitted,
            completed: submitted - shed,
            shed,
            wall_ns_median: wall,
            wall_ns_min: wall - 5,
            jobs_per_sec: (submitted - shed) as f64 * 1e9 / wall as f64,
            shed_rate: shed as f64 / submitted as f64,
            p99_queue_ns: 500,
            p99_service_ns: 700,
        }
    }

    fn tiny_records() -> Vec<BenchRecord> {
        vec![record("chaselev", 4, 100), record("simple", 4, 150)]
    }

    fn gate_records() -> Vec<BenchRecord> {
        vec![record("chaselev", 1, 1000), record("chaselev", 4, 800), record("simple", 1, 1500)]
    }

    #[test]
    fn json_emission_is_structurally_valid() {
        let cfg = BenchConfig::for_size(SizeClass::Smoke);
        let doc = to_json(&cfg, &tiny_records(), &[]);
        validate_json(&doc).expect("emitted JSON must validate");
        assert!(doc.contains("\"speedup\": 1.500000"));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_json("{").is_err());
        assert!(validate_json("{}").is_err(), "required keys missing");
        assert!(validate_json("{\"schema\": \"x\", \"records\": [}]").is_err());
        let cfg = BenchConfig::for_size(SizeClass::Smoke);
        let good = to_json(&cfg, &tiny_records(), &[]);
        let truncated = &good[..good.len() - 4];
        assert!(validate_json(truncated).is_err());
    }

    #[test]
    fn comparisons_pair_backends() {
        let cmps = comparisons(&tiny_records());
        assert_eq!(cmps.len(), 1);
        let (w, t, cl, simple, speedup) = &cmps[0];
        assert_eq!((w.as_str(), *t, *cl, *simple), ("recursive-sum", 4, 100, 150));
        assert!((speedup - 1.5).abs() < 1e-9);
    }

    #[test]
    fn check_against_accepts_matching_structure_and_catches_drops() {
        let cfg = BenchConfig::for_size(SizeClass::Smoke);
        let full_cfg = BenchConfig::for_size(SizeClass::Full);
        let records = tiny_records();
        let baseline = to_json(&full_cfg, &records, &[]);

        // A structurally identical run (different values are fine) passes.
        let mut faster = records.clone();
        for r in &mut faster {
            r.wall_ns_median /= 2;
        }
        check_against(&to_json(&cfg, &faster, &[]), &baseline).expect("matching structure");

        // Dropping a whole (workload, backend) combination fails.
        let dropped: Vec<BenchRecord> =
            records.iter().filter(|r| r.backend != "simple").cloned().collect();
        let err = check_against(&to_json(&cfg, &dropped, &[]), &baseline).unwrap_err();
        assert!(err.contains("silently dropped"), "{err}");

        // Dropping one thread-count row of one combination breaks count uniformity.
        let mut uneven = records.clone();
        uneven.extend(records.iter().map(|r| BenchRecord { threads: 8, ..r.clone() }));
        uneven.remove(1); // "simple" now has 1 row where "chaselev" has 2
        let err = check_against(&to_json(&cfg, &uneven, &[]), &baseline).unwrap_err();
        assert!(err.contains("thread-count row"), "{err}");

        // A drifted record schema (missing field) fails even though the JSON validates.
        let mut missing_field = to_json(&cfg, &records, &[]);
        missing_field = missing_field.replacen("      \"parks\": 2,\n", "", 1);
        rws_lab::json::validate(&missing_field).expect("still well-formed JSON");
        let err = check_against(&missing_field, &baseline).unwrap_err();
        assert!(err.contains("field set"), "{err}");

        // A different schema tag fails.
        let other_tag = baseline.replacen("rws-bench-native/v2", "rws-bench-native/v3", 1);
        assert!(check_against(&other_tag, &baseline).unwrap_err().contains("schema"));
    }

    #[test]
    fn check_against_covers_the_service_rows() {
        let cfg = BenchConfig::for_size(SizeClass::Smoke);
        let full_cfg = BenchConfig::for_size(SizeClass::Full);
        let records = tiny_records();
        let service = vec![
            service_record("service-steady", 1, 10_000, 0),
            service_record("service-overload", 1, 20_000, 500),
        ];
        let baseline = to_json(&full_cfg, &records, &service);

        // Same structure, different values: passes. A run sweeping fewer thread counts
        // also passes — only scenario presence is required.
        check_against(&to_json(&cfg, &records, &service), &baseline).expect("matching");
        let subset = vec![service[0].clone(), service[1].clone()];
        check_against(&to_json(&cfg, &records, &subset), &baseline).expect("subset sweep");

        // Dropping a scenario fails.
        let dropped = vec![service[0].clone()];
        let err = check_against(&to_json(&cfg, &records, &dropped), &baseline).unwrap_err();
        assert!(err.contains("service-overload") && err.contains("silently dropped"), "{err}");

        // A drifted service-record field set fails.
        let mut missing = to_json(&cfg, &records, &service);
        missing = missing.replacen("      \"p99_queue_ns\": 500,\n", "", 1);
        rws_lab::json::validate(&missing).expect("still well-formed JSON");
        let err = check_against(&missing, &baseline).unwrap_err();
        assert!(err.contains("service record") && err.contains("field set"), "{err}");
    }

    fn trace_record(off: u64, on: u64) -> TraceBenchRecord {
        TraceBenchRecord {
            workload: "recursive-sum".into(),
            threads: 1,
            capacity: TRACE_BENCH_CAPACITY,
            wall_ns_off_median: off,
            wall_ns_on_median: on,
            overhead_rel: (on as f64 - off as f64) / off as f64,
            jobs: 511,
            events_recorded: 1022,
            events_dropped: 0,
            busy_frac: 0.95,
            steal_frac: 0.0,
            park_frac: 0.0,
            overhead_frac: 0.05,
        }
    }

    #[test]
    fn check_against_is_forward_compatible_with_extended_runs() {
        let cfg = BenchConfig::for_size(SizeClass::Smoke);
        let records = tiny_records();
        let service = vec![service_record("service-steady", 1, 10_000, 0)];
        let baseline = to_json(&cfg, &records, &service);

        // A run emitted by a newer binary: an extra top-level section, an extra field on
        // every record and service row, and a measured trace object where the baseline has
        // null. All of it must be ignored — the baseline's structure is still fully there.
        let extended = to_json_full(&cfg, &records, &service, Some(&trace_record(1000, 1100)), &[])
            .replacen(
                "\"schema\": \"rws-bench-native/v2\",",
                "\"schema\": \"rws-bench-native/v2\",\n  \"future_section\": 1,",
                1,
            )
            .replace("\"parks\": 2,", "\"parks\": 2,\n      \"future_counter\": 7,")
            .replace("\"p99_queue_ns\": 500,", "\"p99_queue_ns\": 500,\n      \"p99_spare\": 1,");
        rws_lab::json::validate(&extended).expect("still well-formed JSON");
        check_against(&extended, &baseline).expect("run-side extras are forward-compatible");

        // The reverse direction is NOT tolerated: a baseline promising more than the run
        // delivers means the run dropped something.
        let err = check_against(&baseline, &extended).unwrap_err();
        assert!(err.contains("future_section") && err.contains("missing from the run"), "{err}");
    }

    #[test]
    fn trace_overhead_row_measures_both_modes() {
        let cfg = BenchConfig { size: SizeClass::Smoke, threads: vec![1], repeats: 1, warmup: 1 };
        let t = run_trace_overhead(&cfg);
        assert_eq!(t.threads, 1);
        assert!(t.jobs > 0, "the workload must fork");
        assert!(t.wall_ns_off_median > 0 && t.wall_ns_on_median > 0);
        assert!(t.events_recorded > 0, "the traced pool must record events");
        for frac in [t.busy_frac, t.steal_frac, t.park_frac, t.overhead_frac] {
            assert!((0.0..=1.0).contains(&frac), "attribution fraction out of range: {frac}");
        }
        let doc = to_json_full(&cfg, &tiny_records(), &[], Some(&t), &[]);
        validate_json(&doc).expect("document with a trace row must validate");
        assert!(doc.contains("\"wall_ns_off_median\""), "{doc}");
    }

    #[test]
    fn gate_covers_the_trace_row() {
        let cfg = BenchConfig::for_size(SizeClass::Full);
        let baseline =
            to_json_full(&cfg, &gate_records(), &[], Some(&trace_record(1000, 1100)), &[]);

        // Identical documents pass and the delta carries the populated trace row.
        let (delta, pass) = gate_against(&baseline, &baseline, &GateConfig::default()).unwrap();
        assert!(pass, "identical trace rows must pass:\n{delta}");
        assert!(delta.contains("\"trace_row\"") && delta.contains("overhead_rel_run"), "{delta}");

        // A tracing-off wall regression past the tolerance trips the gate: the flight
        // recorder leaked cost into the default path.
        let slow = to_json_full(&cfg, &gate_records(), &[], Some(&trace_record(1500, 1600)), &[]);
        let (delta, pass) = gate_against(&slow, &baseline, &GateConfig::default()).unwrap();
        assert!(!pass, "a tracing-off slowdown must trip the gate");
        assert!(delta.contains("trace-overhead: tracing-off wall_ns_off_median 1500"), "{delta}");

        // A fork-count drift under tracing trips the gate exactly.
        let mut drifted = trace_record(1000, 1100);
        drifted.jobs += 1;
        let doc = to_json_full(&cfg, &gate_records(), &[], Some(&drifted), &[]);
        let (delta, pass) = gate_against(&doc, &baseline, &GateConfig::default()).unwrap();
        assert!(!pass, "a traced jobs drift must trip the gate");
        assert!(delta.contains("trace-overhead: jobs 512"), "{delta}");

        // A slower tracing-ON wall alone is reported, not gated: opting in may cost.
        let pricier =
            to_json_full(&cfg, &gate_records(), &[], Some(&trace_record(1000, 3000)), &[]);
        let (_, pass) = gate_against(&pricier, &baseline, &GateConfig::default()).unwrap();
        assert!(pass, "the tracing-on wall is not gated");

        // A pre-trace baseline (trace: null) skips the row instead of failing.
        let old_baseline = to_json(&cfg, &gate_records(), &[]);
        let (delta, pass) = gate_against(&baseline, &old_baseline, &GateConfig::default()).unwrap();
        assert!(pass, "a null baseline trace skips the row");
        assert!(delta.contains("\"trace_row\": null"), "{delta}");
    }

    #[test]
    fn smoke_suite_runs_end_to_end_on_both_backends() {
        // The CI smoke path in miniature: tiny sizes, one thread count, validated output.
        let cfg = BenchConfig { size: SizeClass::Smoke, threads: vec![2], repeats: 1, warmup: 1 };
        let records = run_suite(&cfg, || 0);
        assert_eq!(records.len(), 11 * 2, "11 workloads x 2 backends");
        assert!(records.iter().all(|r| r.jobs > 0), "every run must execute forks");
        let doc = to_json(&cfg, &records, &[]);
        validate_json(&doc).expect("smoke suite JSON must validate");
    }

    #[test]
    fn gate_passes_on_an_identical_run() {
        let cfg = BenchConfig::for_size(SizeClass::Full);
        let doc = to_json(&cfg, &gate_records(), &[]);
        let (delta, pass) = gate_against(&doc, &doc, &GateConfig::default()).expect("comparable");
        assert!(pass, "identical documents must pass:\n{delta}");
        validate_delta(&delta).expect("delta document must validate");
        assert!(delta.contains("\"pass\": true"));
    }

    #[test]
    fn gate_trips_on_a_single_thread_slowdown_but_ignores_multithread_walls() {
        let cfg = BenchConfig::for_size(SizeClass::Full);
        let baseline = to_json(&cfg, &gate_records(), &[]);

        // +50% on the t=1 chaselev wall: over the 35% tolerance, must fail.
        let mut slow = gate_records();
        slow[0].wall_ns_median = 1500;
        let (delta, pass) =
            gate_against(&to_json(&cfg, &slow, &[]), &baseline, &GateConfig::default()).unwrap();
        assert!(!pass, "an injected t=1 slowdown must trip the gate");
        assert!(delta.contains("wall_ns_median 1500"), "{delta}");

        // A *bigger* slowdown on the t=4 row alone: walls are not gated there.
        let mut slow_mt = gate_records();
        slow_mt[1].wall_ns_median = 80_000;
        let (_, pass) =
            gate_against(&to_json(&cfg, &slow_mt, &[]), &baseline, &GateConfig::default()).unwrap();
        assert!(pass, "threads > 1 walls are not gated (1-CPU-host caveat)");

        // The tolerance is configurable: +50% passes a 60% gate.
        let loose = GateConfig { wall_rel_tol: 0.6, ..GateConfig::default() };
        let (_, pass) = gate_against(&to_json(&cfg, &slow, &[]), &baseline, &loose).unwrap();
        assert!(pass);
    }

    #[test]
    fn gate_trips_on_deterministic_counter_drift() {
        let cfg = BenchConfig::for_size(SizeClass::Full);
        let baseline = to_json(&cfg, &gate_records(), &[]);

        // jobs is deterministic at every thread count.
        let mut more_jobs = gate_records();
        more_jobs[1].jobs += 1;
        let (delta, pass) =
            gate_against(&to_json(&cfg, &more_jobs, &[]), &baseline, &GateConfig::default())
                .unwrap();
        assert!(!pass, "a jobs drift must trip the gate even at threads > 1");
        assert!(delta.contains("jobs 51"), "{delta}");

        // allocs is gated exactly at t=1 only.
        let mut more_allocs = gate_records();
        more_allocs[0].allocs += 2;
        let (_, pass) =
            gate_against(&to_json(&cfg, &more_allocs, &[]), &baseline, &GateConfig::default())
                .unwrap();
        assert!(!pass, "a t=1 allocation regression must trip the gate");
    }

    #[test]
    fn gate_bounds_multithread_retries_and_tolerates_noise_below_the_bound() {
        let cfg = BenchConfig::for_size(SizeClass::Full);
        let baseline = to_json(&cfg, &gate_records(), &[]);
        // Baseline t=4 retries is 1; bound is 1*16 + 256 = 272.
        let mut noisy = gate_records();
        noisy[1].steal_retries = 200;
        let (_, pass) =
            gate_against(&to_json(&cfg, &noisy, &[]), &baseline, &GateConfig::default()).unwrap();
        assert!(pass, "scheduling noise below the bound passes");
        let mut storm = gate_records();
        storm[1].steal_retries = 100_000;
        let (delta, pass) =
            gate_against(&to_json(&cfg, &storm, &[]), &baseline, &GateConfig::default()).unwrap();
        assert!(!pass, "a retry explosion must trip the gate");
        assert!(delta.contains("steal_retries 100000"), "{delta}");
    }

    #[test]
    fn gate_covers_service_rows() {
        let cfg = BenchConfig::for_size(SizeClass::Full);
        let service = vec![
            service_record("service-steady", 1, 10_000, 0),
            service_record("service-overload", 1, 20_000, 500),
        ];
        let baseline = to_json(&cfg, &gate_records(), &service);

        // Identical documents pass, and the delta carries the service rows.
        let (delta, pass) = gate_against(&baseline, &baseline, &GateConfig::default()).unwrap();
        assert!(pass, "identical service rows must pass:\n{delta}");
        assert!(delta.contains("service_rows") && delta.contains("service-overload"), "{delta}");

        // A t=1 service wall slowdown past the tolerance trips the gate.
        let mut slow = service.clone();
        slow[0].wall_ns_median = 15_000;
        let (delta, pass) =
            gate_against(&to_json(&cfg, &gate_records(), &slow), &baseline, &GateConfig::default())
                .unwrap();
        assert!(!pass, "a service t=1 slowdown must trip the gate");
        assert!(delta.contains("service-steady t=1: wall_ns_median 15000"), "{delta}");

        // `submitted` is exact: the scenario fixes it, so any drift is a harness bug.
        let mut drift = service.clone();
        drift[0].submitted += 1;
        let (delta, pass) = gate_against(
            &to_json(&cfg, &gate_records(), &drift),
            &baseline,
            &GateConfig::default(),
        )
        .unwrap();
        assert!(!pass, "a submitted drift must trip the gate");
        assert!(delta.contains("submitted 1001"), "{delta}");

        // A broken outcome partition (completed + shed != submitted) trips the gate.
        let mut torn = service.clone();
        torn[1].completed -= 1;
        let (delta, pass) =
            gate_against(&to_json(&cfg, &gate_records(), &torn), &baseline, &GateConfig::default())
                .unwrap();
        assert!(!pass, "a torn outcome partition must trip the gate");
        assert!(delta.contains("outcome partition broken"), "{delta}");

        // Shed-rate noise inside the slack passes; an explosion past it fails.
        let shed_variant = |shed: u64| {
            let mut v = service.clone();
            v[1].shed = shed;
            v[1].completed = v[1].submitted - shed;
            v[1].shed_rate = shed as f64 / v[1].submitted as f64;
            to_json(&cfg, &gate_records(), &v)
        };
        let (_, pass) =
            gate_against(&shed_variant(650), &baseline, &GateConfig::default()).unwrap();
        assert!(pass, "shed rate 0.65 is inside base 0.50 + slack 0.20");
        let (delta, pass) =
            gate_against(&shed_variant(900), &baseline, &GateConfig::default()).unwrap();
        assert!(!pass, "shed rate 0.90 must trip the bound");
        assert!(delta.contains("shed_rate 0.900"), "{delta}");
        // Shedding *less* than the baseline is never a regression.
        let (_, pass) = gate_against(&shed_variant(0), &baseline, &GateConfig::default()).unwrap();
        assert!(pass, "a lower shed rate passes");

        // A run service row with no baseline counterpart means the suite changed.
        let grown = vec![service[0].clone(), service_record("service-new", 1, 5_000, 0)];
        let err = gate_against(
            &to_json(&cfg, &gate_records(), &grown),
            &baseline,
            &GateConfig::default(),
        )
        .unwrap_err();
        assert!(err.contains("service-new") && err.contains("regenerate"), "{err}");
    }

    #[test]
    fn service_suite_runs_end_to_end() {
        let cfg = BenchConfig { size: SizeClass::Smoke, threads: vec![1], repeats: 1, warmup: 1 };
        let service = run_service_suite(&cfg);
        assert_eq!(service.len(), 2, "2 scenarios x 1 thread count");
        let steady = service.iter().find(|r| r.scenario == "service-steady").unwrap();
        assert_eq!(steady.shed, 0, "Block admission never sheds");
        assert_eq!(steady.completed, steady.submitted);
        assert!(steady.jobs_per_sec > 0.0);
        let overload = service.iter().find(|r| r.scenario == "service-overload").unwrap();
        assert_eq!(overload.submitted, 4 * overload.queue_capacity as u64);
        assert_eq!(overload.completed + overload.shed, overload.submitted);
        let doc = to_json(&cfg, &[], &service);
        validate_json(&doc).expect("service suite JSON must validate");
    }

    #[test]
    fn gate_requires_comparable_documents() {
        let full = BenchConfig::for_size(SizeClass::Full);
        let smoke = BenchConfig::for_size(SizeClass::Smoke);
        let records = gate_records();
        let baseline = to_json(&full, &records, &[]);

        // Size classes must match.
        let err = gate_against(&to_json(&smoke, &records, &[]), &baseline, &GateConfig::default())
            .unwrap_err();
        assert!(err.contains("size classes differ"), "{err}");

        // A run row with no baseline counterpart means the suite grew.
        let mut extra = records.clone();
        extra.push(BenchRecord { workload: "new-workload".into(), ..records[0].clone() });
        let err = gate_against(&to_json(&full, &extra, &[]), &baseline, &GateConfig::default())
            .unwrap_err();
        assert!(err.contains("regenerate"), "{err}");

        // The reverse — gating a subset sweep against the full baseline — is fine.
        let subset = vec![records[0].clone()];
        let (_, pass) =
            gate_against(&to_json(&full, &subset, &[]), &baseline, &GateConfig::default()).unwrap();
        assert!(pass);
    }

    fn sharded_bench_record(workload: &str, wall: u64) -> ShardedBenchRecord {
        ShardedBenchRecord {
            workload: workload.into(),
            shards: 2,
            threads_per_shard: 1,
            parts: 8,
            wall_ns_median: wall,
            wall_ns_min: wall.saturating_sub(10),
            inproc_wall_ns_median: wall / 2,
            overhead_rel: 1.0,
            work_items: 120,
            redistributed: 0,
        }
    }

    fn doc_with_sharded(cfg: &BenchConfig, sharded: &[ShardedBenchRecord]) -> String {
        to_json_full(cfg, &gate_records(), &[], None, sharded)
    }

    #[test]
    fn gate_covers_sharded_rows_structure_exact_walls_ungated() {
        let cfg = BenchConfig::for_size(SizeClass::Full);
        let sharded = vec![sharded_bench_record("matmul", 1000), sharded_bench_record("spmv", 900)];
        let baseline = doc_with_sharded(&cfg, &sharded);

        // Identical documents pass; the delta carries the sharded rows.
        let (delta, pass) = gate_against(&baseline, &baseline, &GateConfig::default()).unwrap();
        assert!(pass, "identical sharded rows must pass:\n{delta}");
        validate_delta(&delta).expect("delta must validate");
        assert!(
            delta.contains("\"sharded_rows\"") && delta.contains("overhead_rel_run"),
            "{delta}"
        );

        // Walls are never gated, however bad: subprocess spawn latency is host noise.
        let mut slow = sharded.clone();
        slow[0].wall_ns_median = 1_000_000;
        slow[0].overhead_rel = 999.0;
        let (_, pass) =
            gate_against(&doc_with_sharded(&cfg, &slow), &baseline, &GateConfig::default())
                .unwrap();
        assert!(pass, "sharded walls are reported, not gated");

        // The deterministic structure is exact: a fork-count drift trips the gate.
        let mut drift = sharded.clone();
        drift[1].work_items += 1;
        let (delta, pass) =
            gate_against(&doc_with_sharded(&cfg, &drift), &baseline, &GateConfig::default())
                .unwrap();
        assert!(!pass, "a sharded work_items drift must trip the gate");
        assert!(delta.contains("sharded spmv s=2 t=1: work_items 121"), "{delta}");

        // A nonzero redistributed count means workers died in a fault-free run.
        let mut died = sharded.clone();
        died[0].redistributed = 3;
        let (delta, pass) =
            gate_against(&doc_with_sharded(&cfg, &died), &baseline, &GateConfig::default())
                .unwrap();
        assert!(!pass, "redistribution during a bench run must trip the gate");
        assert!(delta.contains("redistributed 3 != 0"), "{delta}");

        // A run row with no baseline counterpart means the suite changed.
        let grown =
            vec![sharded[0].clone(), sharded[1].clone(), sharded_bench_record("prefix", 500)];
        let err = gate_against(&doc_with_sharded(&cfg, &grown), &baseline, &GateConfig::default())
            .unwrap_err();
        assert!(err.contains("sharded prefix") && err.contains("regenerate"), "{err}");

        // A baseline predating the sharded suite (no `sharded` key at all) skips the rows.
        let old_baseline = baseline.replacen("\"sharded\": [", "\"presharded\": [", 1);
        let (delta, pass) =
            gate_against(&doc_with_sharded(&cfg, &sharded), &old_baseline, &GateConfig::default())
                .unwrap();
        assert!(pass, "a pre-sharded baseline skips the rows");
        assert!(delta.contains("\"sharded_rows\": []"), "{delta}");
    }

    #[test]
    fn check_against_covers_the_sharded_rows() {
        let cfg = BenchConfig::for_size(SizeClass::Smoke);
        let sharded = vec![sharded_bench_record("matmul", 1000), sharded_bench_record("spmv", 900)];
        // tiny_records() sweeps uniformly, so the compute-row checks stay out of the way.
        let mk = |shd: &[ShardedBenchRecord]| to_json_full(&cfg, &tiny_records(), &[], None, shd);
        let baseline = mk(&sharded);

        // Same structure, different values: passes.
        let mut faster = sharded.clone();
        faster[0].wall_ns_median = 500;
        check_against(&mk(&faster), &baseline).expect("matching structure");

        // Dropping a sharded workload fails.
        let dropped = vec![sharded[0].clone()];
        let err = check_against(&mk(&dropped), &baseline).unwrap_err();
        assert!(err.contains("spmv") && err.contains("silently dropped"), "{err}");

        // A drifted sharded-record field set fails.
        let mut missing = mk(&sharded);
        missing = missing.replacen("      \"parts\": 8,\n", "", 1);
        rws_lab::json::validate(&missing).expect("still well-formed JSON");
        let err = check_against(&missing, &baseline).unwrap_err();
        assert!(err.contains("sharded record") && err.contains("field set"), "{err}");
    }

    #[test]
    fn sharded_suite_runs_end_to_end() {
        // Subprocess-spawning smoke run. Needs the shard-worker binary: a workspace-level
        // `cargo test` builds it; a bare `cargo test -p rws-bench` needs
        // `cargo build --bins -p rws-shard` first.
        let cfg = BenchConfig { size: SizeClass::Smoke, threads: vec![2], repeats: 1, warmup: 1 };
        let sharded = run_sharded_suite(&cfg);
        assert_eq!(sharded.len(), 2, "matmul + spmv");
        for r in &sharded {
            assert_eq!((r.shards, r.threads_per_shard), (2, 1));
            assert!(r.parts > 0 && r.work_items > 0);
            assert_eq!(r.redistributed, 0);
            assert!(r.wall_ns_median > 0 && r.inproc_wall_ns_median > 0);
        }
        let doc = to_json_full(&cfg, &tiny_records(), &[], None, &sharded);
        validate_json(&doc).expect("document with sharded rows must validate");
        assert!(doc.contains("\"inproc_wall_ns_median\""), "{doc}");
    }

    #[test]
    fn trajectory_rows_accumulate() {
        let cfg = BenchConfig::for_size(SizeClass::Full);
        let service = vec![service_record("service-steady", 1, 10_000, 0)];
        let doc = to_json_full(
            &cfg,
            &gate_records(),
            &service,
            None,
            &[sharded_bench_record("matmul", 1000)],
        );
        let row = trajectory_row(&doc, "2026-08-08", "first entry").expect("summarizable");
        assert!(
            row.render().contains("t1_service_jobs_per_sec"),
            "t=1 service throughput joins the trajectory row"
        );
        assert!(
            row.render().contains("sharded_overhead_rel"),
            "the multi-process tax joins the trajectory row"
        );
        let t1 = append_trajectory(None, row.clone()).expect("fresh document");
        json::validate(&t1).expect("well-formed");
        assert!(t1.contains("rws-bench-trajectory/v1") && t1.contains("first entry"));
        let t2 = append_trajectory(Some(&t1), row).expect("append");
        let parsed = json::parse(&t2).unwrap();
        assert_eq!(parsed.get("rows").and_then(Json::as_array).map(<[Json]>::len), Some(2));
        // Appending to a non-trajectory document is rejected.
        assert!(append_trajectory(Some(&doc), trajectory_row(&doc, "d", "n").unwrap()).is_err());
    }
}
