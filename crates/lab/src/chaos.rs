//! The chaos harness: streamed fault-injected traffic against the supervised
//! [`JobServer`], with structured recovery-invariant verdicts.
//!
//! A chaos scenario reuses the lab's plain `key = value` file format but is its own
//! dialect, selected when the file's first `mode` key, wherever it stands, reads
//! `mode = chaos` (the `lab` binary dispatches on [`is_chaos_scenario`]). Instead of a
//! workload and paper-bound checks it describes a *traffic trace* against a [`JobServer`]
//! and the faults its traffic carries:
//!
//! ```text
//! mode = chaos
//! name = quick
//! threads = 2
//! queue_capacity = 64
//! admission = shed
//! steady_jobs = 600        # paced submissions the server can keep up with
//! burst_jobs = 256         # back-to-back burst, several x queue_capacity
//! panic_every = 4          # seeded: roughly one in four jobs panics
//! stall_every = 50         # seeded: roughly one in 50 jobs stalls its worker first
//! min_panics = 100
//! max_shed_rate = 0.75
//! ```
//!
//! The run drives four phases — paced steady traffic, a batch of tight-deadline jobs (2 ms
//! budgets on up to 1 s of work), an overload burst of at least `burst_jobs / queue_capacity`
//! times the admission window, and a post-chaos probe batch. Every fault is the traffic's
//! own, made by the harness, not by the server: a seeded hash picks roughly one in
//! `panic_every` submissions to panic, another picks roughly one in `stall_every` to sleep
//! 2 ms on its worker before its work (the first 6 picks only), and once
//! `storm_after_accepts` submissions were admitted the harness hammers the injector with a
//! one-shot contention storm (4 threads × 64 pushes). Every submission's closure bumps a
//! per-submission execution counter, so the verdicts are counted facts:
//!
//! * **all-terminal** — every submission reaches a terminal [`JobOutcome`];
//! * **conservation** — the outcome partition sums exactly to `submitted`;
//! * **no-lost-jobs** — every `Completed` job ran its closure exactly once;
//! * **no-duplicate-runs** — no closure ran twice (the settle/claim CAS arbitration);
//! * **shed-never-ran** — a `Shed` submission's closure never ran;
//! * **server-live** — jobs of the probe batch, submitted after the chaos, complete;
//! * **panic-volume** — at least `min_panics` injected panics were quarantined;
//! * **deadline-enforced** — no deadline-phase job completes: each one ends by its deadline,
//!   shed or evicted before it ran, or by an injected panic; and at least `min_deadlines`
//!   jobs end by their deadline;
//! * **shed-rate-bounded** — load-shedding stayed under `max_shed_rate` of submissions.
//!
//! [`run`] returns a [`ChaosReport`] that renders as the validated `rws-chaos-report/v2`
//! JSON document; the `lab` binary exits nonzero on any failed verdict, which is what the
//! CI `chaos-smoke` job gates on. `sabotage` doctors the observed evidence before the
//! verdicts are evaluated (a duplicated execution and a lost outcome) — the CI self-test
//! that proves the harness actually trips.

use crate::json::{self, obj, Json};
use crate::scenario::{err, key_values, parse_num, ScenarioError};
use crate::trace_export;
use rws_runtime::trace::TraceSnapshot;
use rws_runtime::{
    AdmissionPolicy, HistogramSnapshot, JobHandle, JobOutcome, JobServer, ServiceConfig,
    ServiceSnapshot,
};
use std::panic;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// The schema tag of the emitted JSON document.
pub const SCHEMA: &str = "rws-chaos-report/v2";

/// The budget of every deadline-phase job.
const DEADLINE: Duration = Duration::from_millis(2);
/// Busy-work length of a deadline-phase job: far past `DEADLINE` plus any wait for a
/// supervisor sweep to get a CPU, so every deadline-phase job that starts is cut by its
/// deadline and one that completes means the sweep never came. (At 5 ms, 1 run in 10 on
/// a loaded 2-CPU host let every started job finish before a sweep ran.)
const DEADLINE_WORK: Duration = Duration::from_secs(1);
/// How long a stalling job sleeps on its worker before its work.
const STALL: Duration = Duration::from_millis(2);
/// Cap on stalling submissions: the submitter applies only the first `MAX_STALLS` picks.
const MAX_STALLS: u64 = 6;
/// OS threads a contention storm starts, and no-op jobs each of them pushes.
const STORM_THREADS: usize = 4;
const STORM_PUSHES: usize = 64;
/// Overall budget for every submission to settle (generous; CI hosts have 1 CPU).
const SETTLE_TIMEOUT: Duration = Duration::from_secs(120);

/// Quick dispatch test: does the first `mode` key of this scenario text, wherever in the
/// file it stands, read `chaos`? Malformed lines are skipped here; the parser the text
/// dispatches to reports them.
pub fn is_chaos_scenario(text: &str) -> bool {
    key_values(text)
        .flatten()
        .find(|&(_, key, _)| key == "mode")
        .is_some_and(|(_, _, v)| v == "chaos")
}

/// One declarative chaos run: the traffic trace, its faults, and the invariant floors.
#[derive(Clone, Debug)]
pub struct ChaosScenario {
    /// Scenario name (appears in the report and output file names).
    pub name: String,
    /// Seed for the harness's per-job panic and stall hashes.
    pub seed: u64,
    /// Worker threads in the server's pool.
    pub threads: usize,
    /// Admission capacity of the server's bounded queue.
    pub queue_capacity: usize,
    /// Admission policy under overload.
    pub admission: AdmissionPolicy,
    /// Paced submissions the server should keep up with.
    pub steady_jobs: u64,
    /// Pacing between steady submissions.
    pub steady_pace: Duration,
    /// Back-to-back overload submissions (several times `queue_capacity`).
    pub burst_jobs: u64,
    /// Submissions carrying a tight per-job deadline.
    pub deadline_jobs: u64,
    /// Post-chaos probe submissions proving the server is still live.
    pub probe_jobs: u64,
    /// Busy-work length of a steady/burst/probe job.
    pub job_work: Duration,
    /// Panic roughly one in `panic_every` jobs (0 = never).
    pub panic_every: u64,
    /// Stall roughly one in `stall_every` jobs (0 = never; at most `MAX_STALLS` of them).
    pub stall_every: u64,
    /// Admitted submissions after which the harness starts its one-shot injector
    /// contention storm (`None` = no storm).
    pub storm_after_accepts: Option<u64>,
    /// Verdict floor: quarantined job panics the run must reach.
    pub min_panics: u64,
    /// Verdict floor: deadline-terminated jobs the run must reach.
    pub min_deadlines: u64,
    /// Verdict ceiling: shed submissions as a fraction of all submissions.
    pub max_shed_rate: f64,
}

impl ChaosScenario {
    /// Total submissions across all four phases.
    pub fn total_jobs(&self) -> u64 {
        self.steady_jobs + self.burst_jobs + self.deadline_jobs + self.probe_jobs
    }

    /// Parse and validate a chaos scenario file.
    pub fn parse(text: &str) -> Result<ChaosScenario, ScenarioError> {
        let mut mode: Option<String> = None;
        let mut name: Option<String> = None;
        let mut seed = 11u64;
        let mut threads = 2usize;
        let mut queue_capacity = 64usize;
        let mut admission = AdmissionPolicy::Shed;
        let mut steady_jobs = 400u64;
        let mut steady_pace_us = 300u64;
        let mut burst_jobs: Option<u64> = None;
        let mut deadline_jobs = 0u64;
        let mut probe_jobs = 32u64;
        let mut job_work_us = 200u64;
        let mut panic_every = 0u64;
        let mut stall_every = 0u64;
        let mut storm_after_accepts: Option<u64> = None;
        let mut min_panics = 0u64;
        let mut min_deadlines = 0u64;
        let mut max_shed_rate = 1.0f64;

        for entry in key_values(text) {
            let (ln, key, value) = entry?;
            match key {
                "mode" => mode = Some(value.to_string()),
                "name" => name = Some(value.to_string()),
                "seed" => seed = parse_num(ln, key, value)?,
                "threads" => threads = parse_num(ln, key, value)?,
                "queue_capacity" => queue_capacity = parse_num(ln, key, value)?,
                "admission" => {
                    admission = match value {
                        "block" => AdmissionPolicy::Block,
                        "shed" => AdmissionPolicy::Shed,
                        "shed-oldest" => AdmissionPolicy::ShedOldest,
                        other => {
                            return err(
                                ln,
                                format!(
                                    "unknown admission `{other}` (expected block, shed, or \
                                     shed-oldest)"
                                ),
                            )
                        }
                    }
                }
                "steady_jobs" => steady_jobs = parse_num(ln, key, value)?,
                "steady_pace_us" => steady_pace_us = parse_num(ln, key, value)?,
                "burst_jobs" => burst_jobs = Some(parse_num(ln, key, value)?),
                "deadline_jobs" => deadline_jobs = parse_num(ln, key, value)?,
                "probe_jobs" => probe_jobs = parse_num(ln, key, value)?,
                "job_work_us" => job_work_us = parse_num(ln, key, value)?,
                "panic_every" => panic_every = parse_num(ln, key, value)?,
                "stall_every" => stall_every = parse_num(ln, key, value)?,
                "storm_after_accepts" => storm_after_accepts = Some(parse_num(ln, key, value)?),
                "min_panics" => min_panics = parse_num(ln, key, value)?,
                "min_deadlines" => min_deadlines = parse_num(ln, key, value)?,
                "max_shed_rate" => {
                    max_shed_rate =
                        value.parse().ok().filter(|v: &f64| (0.0..=1.0).contains(v)).ok_or(
                            ScenarioError {
                                line: ln,
                                msg: "`max_shed_rate` must be a number in [0, 1]".into(),
                            },
                        )?
                }
                other => return err(ln, format!("unknown chaos key `{other}`")),
            }
        }

        match mode.as_deref() {
            Some("chaos") => {}
            Some(other) => return err(0, format!("mode = {other} is not a chaos scenario")),
            None => return err(0, "missing required key `mode = chaos`"),
        }
        let Some(name) = name else { return err(0, "missing required key `name`") };
        if threads == 0 {
            return err(0, "threads must be at least 1");
        }
        if queue_capacity == 0 {
            return err(0, "queue_capacity must be at least 1");
        }
        if probe_jobs == 0 {
            return err(0, "probe_jobs must be at least 1 (the server-live verdict needs them)");
        }
        if min_panics > 0 && panic_every == 0 {
            return err(0, "min_panics > 0 is unsatisfiable with panic_every = 0");
        }
        if min_deadlines > deadline_jobs {
            return err(
                0,
                format!(
                    "min_deadlines = {min_deadlines} is unsatisfiable: only {deadline_jobs} \
                     deadline_jobs submitted"
                ),
            );
        }
        // Default burst: four admission windows back to back — comfortably past 2x overload.
        let burst_jobs = burst_jobs.unwrap_or(4 * queue_capacity as u64);

        Ok(ChaosScenario {
            name,
            seed,
            threads,
            queue_capacity,
            admission,
            steady_jobs,
            steady_pace: Duration::from_micros(steady_pace_us),
            burst_jobs,
            deadline_jobs,
            probe_jobs,
            job_work: Duration::from_micros(job_work_us),
            panic_every,
            stall_every,
            storm_after_accepts,
            min_panics,
            min_deadlines,
            max_shed_rate,
        })
    }
}

fn admission_name(a: AdmissionPolicy) -> &'static str {
    match a {
        AdmissionPolicy::Block => "block",
        AdmissionPolicy::Shed => "shed",
        AdmissionPolicy::ShedOldest => "shed-oldest",
    }
}

/// One recovery invariant's evaluation.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// Invariant name (stable; CI greps these).
    pub name: &'static str,
    /// The counted evidence, human-readable.
    pub detail: String,
    /// Whether the invariant held.
    pub pass: bool,
}

/// Everything one chaos run observed, plus the evaluated verdicts.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// The scenario that ran.
    pub scenario: ChaosScenario,
    /// The server's final counter/latency snapshot.
    pub snapshot: ServiceSnapshot,
    /// Closure executions observed (sum of per-submission counters).
    pub executions: u64,
    /// Whether the run reached `storm_after_accepts` and the harness launched its storm.
    pub storm: bool,
    /// Stalling closures that actually slept (a shed one never runs).
    pub stalls: u64,
    /// The evaluated recovery invariants.
    pub verdicts: Vec<Verdict>,
    /// Whether the evidence was deliberately doctored (the harness self-test).
    pub sabotaged: bool,
    /// The server pool's drained flight recorder, when the run was traced
    /// ([`run_traced`]); `None` on plain [`run`]s.
    pub trace: Option<TraceSnapshot>,
}

impl ChaosReport {
    /// Whether every invariant held.
    pub fn all_passed(&self) -> bool {
        self.verdicts.iter().all(|v| v.pass)
    }

    /// Number of failed invariants.
    pub fn failed_verdicts(&self) -> usize {
        self.verdicts.iter().filter(|v| !v.pass).count()
    }

    /// Human-readable summary: one header, one line per verdict, one closing line.
    pub fn summary_lines(&self) -> Vec<String> {
        let s = &self.snapshot;
        let mut lines = vec![format!(
            "chaos {}: {} submitted -> {} completed, {} panicked, {} deadline, {} shed{}",
            self.scenario.name,
            s.submitted,
            s.completed,
            s.panicked,
            s.deadline,
            s.shed,
            if self.sabotaged { " [SABOTAGED EVIDENCE]" } else { "" }
        )];
        lines.push(format!(
            "  latency: queue p50={}us p99={}us p999={}us | service p50={}us p99={}us",
            s.queue.p50_ns / 1_000,
            s.queue.p99_ns / 1_000,
            s.queue.p999_ns / 1_000,
            s.service.p50_ns / 1_000,
            s.service.p99_ns / 1_000,
        ));
        if let Some(trace) = &self.trace {
            lines.push(format!(
                "  trace: {} events recorded, {} dropped across {} lanes",
                trace.total_recorded(),
                trace.total_dropped(),
                trace.lanes.len()
            ));
        }
        for v in &self.verdicts {
            lines.push(format!(
                "  {} {}: {}",
                if v.pass { "PASS" } else { "FAIL" },
                v.name,
                v.detail
            ));
        }
        lines.push(format!(
            "{}: {} invariants, {} failed",
            if self.all_passed() { "PASS" } else { "FAIL" },
            self.verdicts.len(),
            self.failed_verdicts()
        ));
        lines
    }

    /// Render the `rws-chaos-report/v2` JSON document. Latency fields and the exact shed
    /// split are wall-clock-dependent; the *verdicts* are the stable, gateable content.
    pub fn to_json(&self) -> String {
        let sc = &self.scenario;
        let s = &self.snapshot;
        let hist = |h: &HistogramSnapshot| {
            obj([
                ("count", h.count.into()),
                ("max_ns", h.max_ns.into()),
                ("p50_ns", h.p50_ns.into()),
                ("p90_ns", h.p90_ns.into()),
                ("p99_ns", h.p99_ns.into()),
                ("p999_ns", h.p999_ns.into()),
            ])
        };
        let shed_rate = if s.submitted == 0 { 0.0 } else { s.shed as f64 / s.submitted as f64 };
        obj([
            ("schema", SCHEMA.into()),
            ("scenario", sc.name.as_str().into()),
            ("seed", sc.seed.into()),
            ("threads", sc.threads.into()),
            ("queue_capacity", sc.queue_capacity.into()),
            ("admission", admission_name(sc.admission).into()),
            (
                "traffic",
                obj([
                    ("steady_jobs", sc.steady_jobs.into()),
                    ("burst_jobs", sc.burst_jobs.into()),
                    ("deadline_jobs", sc.deadline_jobs.into()),
                    ("probe_jobs", sc.probe_jobs.into()),
                    ("total", sc.total_jobs().into()),
                ]),
            ),
            (
                "outcomes",
                obj([
                    ("submitted", s.submitted.into()),
                    ("accepted", s.accepted.into()),
                    ("completed", s.completed.into()),
                    ("panicked", s.panicked.into()),
                    ("deadline", s.deadline.into()),
                    ("shed", s.shed.into()),
                    ("executions", self.executions.into()),
                ]),
            ),
            (
                "faults",
                obj([
                    ("panics_caught", s.panics_caught.into()),
                    ("panic_every", sc.panic_every.into()),
                    ("stall_every", sc.stall_every.into()),
                    ("stalls", self.stalls.into()),
                    ("storm", self.storm.into()),
                ]),
            ),
            ("latency", obj([("queue", hist(&s.queue)), ("service", hist(&s.service))])),
            ("shed_rate", shed_rate.into()),
            ("sabotaged", self.sabotaged.into()),
            // Always present so consumers need no key probing: `null` on untraced runs.
            (
                "trace_summary",
                match &self.trace {
                    Some(snap) => trace_export::trace_summary(snap),
                    None => Json::Null,
                },
            ),
            (
                "invariants",
                Json::Arr(
                    self.verdicts
                        .iter()
                        .map(|v| {
                            obj([
                                ("name", v.name.into()),
                                ("detail", v.detail.as_str().into()),
                                ("pass", v.pass.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "summary",
                obj([
                    ("invariants", self.verdicts.len().into()),
                    ("failed", self.failed_verdicts().into()),
                ]),
            ),
        ])
        .render()
    }
}

/// Validate an emitted chaos-report document: well-formed JSON carrying the schema tag
/// and the required top-level keys.
pub fn validate_chaos_report(doc: &str) -> Result<(), String> {
    json::validate_with_keys(doc, &["schema", "scenario", "outcomes", "invariants", "summary"])?;
    if !doc.contains(SCHEMA) {
        return Err(format!("document does not carry the `{SCHEMA}` schema tag"));
    }
    Ok(())
}

/// splitmix64: a tiny, high-quality mixing function — the standard way to turn a counter
/// into uncorrelated bits without carrying RNG state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Whether the harness makes submission `idx` panic: roughly one in `panic_every`
/// (0 = never), by a seeded hash of the index. Pure, so a scenario panics the same
/// submissions every run.
fn job_panics(seed: u64, panic_every: u64, idx: u64) -> bool {
    panic_every > 0
        && splitmix64(seed ^ idx.wrapping_mul(0xA24B_AED4_963E_E407)).is_multiple_of(panic_every)
}

/// Whether the harness picks submission `idx` to stall: roughly one in `stall_every`
/// (0 = never), by a seeded hash of the index independent of [`job_panics`]'s. Pure, like
/// it; the submitter applies only the first [`MAX_STALLS`] picks.
fn job_stalls(seed: u64, stall_every: u64, idx: u64) -> bool {
    stall_every > 0
        && splitmix64(!seed ^ idx.wrapping_mul(0xE703_7ED1_A0B4_28DB)).is_multiple_of(stall_every)
}

/// Busy-work leaf with cooperative cancellation: spins for `d`, polling the job's token
/// so a deadline can cut it mid-run (the unwind settles the job as `Deadline`).
fn busy(d: Duration) {
    let end = Instant::now() + d;
    while Instant::now() < end {
        rws_runtime::check_cancel();
        std::hint::spin_loop();
    }
}

/// Run a chaos scenario end to end and evaluate the recovery invariants.
///
/// `sabotage` doctors the collected evidence *after* the run and *before* the verdicts —
/// one submission's execution counter is bumped (a duplicated run) and one terminal
/// outcome is erased (a lost job) — so a sabotaged run must FAIL. CI runs this as the
/// self-test proving the harness can trip; it is not a fault *injection* knob (those live
/// in the scenario).
pub fn run(sc: &ChaosScenario, sabotage: bool) -> ChaosReport {
    run_traced(sc, sabotage, None)
}

/// [`run`] with the server pool's flight recorder optionally enabled: `trace =
/// Some(capacity)` records `capacity` events per lane and returns the drained snapshot in
/// [`ChaosReport::trace`] (rendered into the report's `trace_summary` key, and written as
/// full `rws-trace/v2` / Chrome documents by `lab --trace DIR`). The verdicts and every
/// other observable are unaffected by tracing.
pub fn run_traced(sc: &ChaosScenario, sabotage: bool, trace: Option<usize>) -> ChaosReport {
    let server = JobServer::new(ServiceConfig {
        threads: sc.threads,
        queue_capacity: sc.queue_capacity,
        admission: sc.admission,
        trace,
    });
    // The recorder outlives the pool (it is an `Arc`), so the snapshot can be drained
    // after shutdown and still include the shutdown-path events (the final settles).
    let recorder = server.pool().trace_recorder();

    let total = sc.total_jobs() as usize;
    let counts: Arc<Vec<AtomicU32>> = Arc::new((0..total).map(|_| AtomicU32::new(0)).collect());
    let stalled = Arc::new(AtomicU64::new(0));
    let mut stall_picks = 0u64;
    let mut handles: Vec<JobHandle> = Vec::with_capacity(total);
    let overall = Instant::now() + SETTLE_TIMEOUT;
    let left = || overall.saturating_duration_since(Instant::now()).max(Duration::from_millis(1));

    // A submission's index is its server sequence number: the harness is the only submitter.
    let mut submit_work = |idx: usize, work: Duration| {
        let (counts, stalled) = (Arc::clone(&counts), Arc::clone(&stalled));
        let panics = job_panics(sc.seed, sc.panic_every, idx as u64);
        let stalls = stall_picks < MAX_STALLS && job_stalls(sc.seed, sc.stall_every, idx as u64);
        stall_picks += u64::from(stalls);
        move || {
            if stalls {
                thread::sleep(STALL);
                stalled.fetch_add(1, Ordering::Relaxed);
            }
            if panics {
                // `resume_unwind`, not `panic!`: the unwind takes the quarantine path a
                // real panic would, but skips the panic hook — a chaos run panics hundreds
                // of jobs and must not flood stderr with backtraces.
                panic::resume_unwind(Box::new("injected job panic"));
            }
            counts[idx].fetch_add(1, Ordering::Relaxed);
            busy(work);
        }
    };

    let mut storm_due = sc.storm_after_accepts;
    let mut main_terminal = 0u64;
    let (mut probe_terminal, mut probe_completed) = (0u64, 0u64);
    thread::scope(|scope| {
        // After each submission: once `storm_after_accepts` were admitted, threads push no-op
        // jobs straight at the pool's injector, alongside the phases still to come.
        let mut storm_check = || {
            if storm_due.is_some_and(|after| server.snapshot().accepted >= after) {
                storm_due = None;
                let pool = server.pool();
                for _ in 0..STORM_THREADS {
                    scope.spawn(move || (0..STORM_PUSHES).for_each(|_| pool.spawn(|| {})));
                }
            }
        };

        // Phase 1 — steady: paced traffic the server keeps up with (faults fire under it).
        for _ in 0..sc.steady_jobs {
            handles.push(server.submit(submit_work(handles.len(), sc.job_work)));
            storm_check();
            thread::sleep(sc.steady_pace);
        }
        // Phase 2 — deadlines: paced like steady traffic, with work longer than the budget,
        // so the budget must win. Each one waits for a free admission slot (the harness is
        // the server's only submitter), so it is admitted, not shed at the door, even when
        // a stalled worker has let the queue fill.
        for _ in 0..sc.deadline_jobs {
            while server.in_flight() >= sc.queue_capacity as u64 && Instant::now() < overall {
                thread::sleep(Duration::from_micros(50));
            }
            let work = submit_work(handles.len(), DEADLINE_WORK);
            handles.push(server.submit_with_deadline(work, DEADLINE));
            storm_check();
            thread::sleep(sc.steady_pace);
        }
        // Phase 3 — burst: back-to-back submissions several admission windows deep; under a
        // shedding policy this is where load-shedding must engage (and stay bounded).
        for _ in 0..sc.burst_jobs {
            handles.push(server.submit(submit_work(handles.len(), sc.job_work)));
            storm_check();
        }

        // Let the main trace settle before probing liveness.
        main_terminal = handles.iter().filter(|h| h.wait_timeout(left()).is_some()).count() as u64;

        // Phase 4 — probe: the server must still serve fresh work.
        let probe_start = handles.len();
        for _ in 0..sc.probe_jobs {
            handles.push(server.submit(submit_work(handles.len(), sc.job_work)));
            storm_check();
        }
        for h in &handles[probe_start..] {
            match h.wait_timeout(left()) {
                Some(JobOutcome::Completed) => {
                    probe_terminal += 1;
                    probe_completed += 1;
                }
                Some(_) => probe_terminal += 1,
                None => {}
            }
        }
    });
    let storm = sc.storm_after_accepts.is_some() && storm_due.is_none();

    let all_settled = main_terminal + probe_terminal == total as u64;
    let snapshot = if all_settled {
        // Clean path: drain, stop the supervisor, join the workers.
        server.shutdown()
    } else {
        // A submission never settled — that is itself the finding; don't hang in
        // shutdown's drain loop, snapshot the evidence and tear the pool down.
        let snap = server.snapshot();
        drop(server);
        snap
    };

    // The collected evidence, doctored iff this is the harness self-test.
    let mut outcomes: Vec<Option<JobOutcome>> = handles.iter().map(|h| h.outcome()).collect();
    let mut counts: Vec<u32> = counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    if sabotage {
        counts[0] += 2; // a closure that "ran twice"
        *outcomes.last_mut().expect("probe_jobs >= 1") = None; // a submission that "never settled"
    }

    let executions: u64 = counts.iter().map(|&c| u64::from(c)).sum();
    let verdicts = evaluate(sc, &snapshot, &outcomes, &counts, probe_completed);
    ChaosReport {
        scenario: sc.clone(),
        snapshot,
        executions,
        storm,
        stalls: stalled.load(Ordering::Relaxed),
        verdicts,
        sabotaged: sabotage,
        trace: recorder.map(|r| r.snapshot()),
    }
}

fn evaluate(
    sc: &ChaosScenario,
    s: &ServiceSnapshot,
    outcomes: &[Option<JobOutcome>],
    counts: &[u32],
    probe_completed: u64,
) -> Vec<Verdict> {
    let total = outcomes.len() as u64;
    let terminal = outcomes.iter().filter(|o| o.is_some()).count() as u64;
    let settled = s.completed + s.panicked + s.deadline + s.shed;
    let lost = outcomes
        .iter()
        .zip(counts)
        .filter(|(o, &c)| **o == Some(JobOutcome::Completed) && c != 1)
        .count();
    let dup = counts.iter().filter(|&&c| c > 1).count();
    let shed_ran = outcomes
        .iter()
        .zip(counts)
        .filter(|(o, &c)| **o == Some(JobOutcome::Shed) && c != 0)
        .count();
    let shed_rate = if s.submitted == 0 { 0.0 } else { s.shed as f64 / s.submitted as f64 };
    // How the deadline phase's own submissions ended (they follow the steady phase).
    let phase = outcomes.iter().skip(sc.steady_jobs as usize).take(sc.deadline_jobs as usize);
    let ended = |o: JobOutcome| phase.clone().filter(|&&x| x == Some(o)).count();

    vec![
        Verdict {
            name: "all-terminal",
            detail: format!("{terminal}/{total} submissions reached a terminal outcome"),
            pass: terminal == total,
        },
        Verdict {
            name: "conservation",
            detail: format!(
                "completed {} + panicked {} + deadline {} + shed {} = {} of {} submitted",
                s.completed, s.panicked, s.deadline, s.shed, settled, s.submitted
            ),
            pass: settled == s.submitted && s.submitted == total,
        },
        Verdict {
            name: "no-lost-jobs",
            detail: format!("{lost} completed submissions whose closure did not run exactly once"),
            pass: lost == 0,
        },
        Verdict {
            name: "no-duplicate-runs",
            detail: format!("{dup} closures ran more than once"),
            pass: dup == 0,
        },
        Verdict {
            name: "shed-never-ran",
            detail: format!("{shed_ran} shed submissions whose closure ran anyway"),
            pass: shed_ran == 0,
        },
        Verdict {
            name: "server-live",
            detail: format!("{probe_completed}/{} probe jobs completed", sc.probe_jobs),
            pass: probe_completed > 0,
        },
        Verdict {
            name: "panic-volume",
            detail: format!("{} jobs panicked (floor {})", s.panicked, sc.min_panics),
            pass: s.panicked >= sc.min_panics,
        },
        Verdict {
            name: "deadline-enforced",
            detail: format!(
                "{} jobs terminated by their deadline (floor {}); deadline phase: {} by the \
                 deadline, {} shed or evicted first, {} panicked first, {} completed before \
                 a sweep (must be 0)",
                s.deadline,
                sc.min_deadlines,
                ended(JobOutcome::Deadline),
                ended(JobOutcome::Shed),
                ended(JobOutcome::Panicked),
                ended(JobOutcome::Completed),
            ),
            pass: ended(JobOutcome::Completed) == 0 && s.deadline >= sc.min_deadlines,
        },
        Verdict {
            name: "shed-rate-bounded",
            detail: format!(
                "shed {}/{} = {shed_rate:.3} (ceiling {:.3})",
                s.shed, s.submitted, sc.max_shed_rate
            ),
            pass: shed_rate <= sc.max_shed_rate,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = "
        mode = chaos
        name = tiny
        seed = 23
        threads = 2
        queue_capacity = 8
        admission = shed
        steady_jobs = 40
        steady_pace_us = 100
        burst_jobs = 24
        deadline_jobs = 4
        probe_jobs = 8
        job_work_us = 100
        panic_every = 3
        stall_every = 7
        min_panics = 1
        min_deadlines = 1
        max_shed_rate = 0.9
    ";

    #[test]
    fn parses_with_defaults_and_detects_mode() {
        let sc = ChaosScenario::parse(TINY).expect("must parse");
        assert_eq!(sc.name, "tiny");
        assert_eq!(sc.threads, 2);
        assert_eq!(sc.stall_every, 7);
        assert_eq!(sc.total_jobs(), 40 + 24 + 4 + 8);
        assert!(is_chaos_scenario(TINY));
        assert!(!is_chaos_scenario("name = x\nworkload = fft\nn = 64"));
        // The first `mode` key decides, wherever it stands; malformed lines are skipped.
        assert!(is_chaos_scenario("# x\nname = x\nnot a pair\nthreads = 2\nmode = chaos"));
        assert!(!is_chaos_scenario("mode = sim\nmode = chaos"));

        let defaults =
            ChaosScenario::parse("mode = chaos\nname = d\nqueue_capacity = 16").expect("defaults");
        assert_eq!(defaults.burst_jobs, 64, "default burst is four admission windows");
    }

    #[test]
    fn rejects_malformed_and_unsatisfiable_scenarios() {
        for (text, needle) in [
            ("name = x", "mode = chaos"),
            ("mode = chaos", "missing required key `name`"),
            ("mode = chaos\nname = x\nadmission = drop", "unknown admission"),
            ("mode = chaos\nname = x\nbogus = 1", "unknown chaos key"),
            ("mode = chaos\nname = x\nmin_panics = 5", "unsatisfiable"),
            ("mode = chaos\nname = x\nmin_deadlines = 1", "unsatisfiable"),
            ("mode = chaos\nname = x\nmax_shed_rate = 1.5", "[0, 1]"),
            ("mode = chaos\nname = x\nprobe_jobs = 0", "server-live"),
            ("mode = chaos\nname = x\ndeadline_ms = 2", "unknown chaos key `deadline_ms`"),
        ] {
            let e = ChaosScenario::parse(text).expect_err(text);
            assert!(e.to_string().contains(needle), "`{text}` -> `{e}` missing `{needle}`");
        }
    }

    #[test]
    fn tiny_chaos_run_passes_every_invariant_and_validates() {
        let sc = ChaosScenario::parse(TINY).unwrap();
        let report = run(&sc, false);
        assert!(report.all_passed(), "{:?}", report.summary_lines());
        assert!(report.snapshot.panicked >= 1);
        assert!((1..=MAX_STALLS).contains(&report.stalls), "stalls = {}", report.stalls);
        let doc = report.to_json();
        validate_chaos_report(&doc).expect("chaos report must validate");
        assert!(doc.contains(&format!("\"stalls\": {}", report.stalls)), "{doc}");
        for key in ["\"invariants\"", "\"panics_caught\"", "\"p99_ns\"", "\"shed_rate\""] {
            assert!(doc.contains(key), "missing {key} in\n{doc}");
        }
        assert!(doc.contains("\"sabotaged\": false"));
        assert!(doc.contains("\"trace_summary\": null"), "untraced runs carry an explicit null");
    }

    #[test]
    fn traced_chaos_run_embeds_a_consistent_trace_summary() {
        let sc = ChaosScenario::parse(
            "mode = chaos\nname = traced\nthreads = 2\nqueue_capacity = 8\nsteady_jobs = 12\n\
             burst_jobs = 4\nprobe_jobs = 4\njob_work_us = 50\nsteady_pace_us = 50\n\
             stall_every = 5",
        )
        .unwrap();
        let report = run_traced(&sc, false, Some(1 << 14));
        assert!(report.all_passed(), "{:?}", report.summary_lines());
        let trace = report.trace.as_ref().expect("traced run must carry a snapshot");
        assert!(trace.total_recorded() > 0);
        let doc = report.to_json();
        validate_chaos_report(&doc).expect("traced chaos report must validate");
        let parsed = json::parse(&doc).unwrap();
        let summary = parsed.get("trace_summary").expect("trace_summary key");
        assert!(summary.get("schema").is_some(), "summary is an object, not null: {doc}");
        // Two accounting paths, one truth: every submission settles exactly once, and the
        // trace saw each settle (capacity is far above this scenario's event volume).
        let service = |key: &str| summary.get("service").and_then(|s| s.get(key)?.as_u64());
        assert_eq!(service("settled"), Some(report.snapshot.submitted));
        assert_eq!(
            service("enqueued"),
            Some(report.snapshot.accepted),
            "the trace saw every admitted submission enqueued"
        );
        assert!(report.summary_lines().iter().any(|l| l.contains("trace:")));
    }

    #[test]
    fn the_harness_panics_the_same_submissions_every_run() {
        // The committed scenarios' schedules, pinned: the hash, its seed mixing and the
        // submission indexing must not drift, or the scenarios' panic floors lose meaning.
        for (text, count, first) in [
            (
                include_str!("../../../scenarios/chaos_quick.scn"),
                258,
                [1, 5, 12, 15, 23, 25, 31, 38],
            ),
            (include_str!("../../../scenarios/chaos_storm.scn"), 91, [3, 6, 7, 10, 12, 27, 32, 38]),
        ] {
            let sc = ChaosScenario::parse(text).unwrap();
            let hits: Vec<u64> =
                (0..sc.total_jobs()).filter(|&i| job_panics(sc.seed, sc.panic_every, i)).collect();
            assert_eq!((hits.len(), &hits[..8]), (count, &first[..]), "{}", sc.name);
        }
        let schedule = |seed| (0..10_000).filter(|&i| job_panics(seed, 10, i)).collect::<Vec<_>>();
        assert_eq!(schedule(7), schedule(7), "same seed, same panic schedule");
        assert_ne!(schedule(7), schedule(8), "different seed, different schedule");
        // ~1000 expected; splitmix64 is good enough that 3x bounds are safe.
        assert!((300..3000).contains(&schedule(7).len()));
        assert!(!(0..10_000).any(|i| job_panics(7, 0, i)), "panic_every = 0 panics nothing");
    }

    #[test]
    fn the_harness_stalls_the_same_submissions_every_run() {
        let schedule =
            |seed, every| (0..10_000).filter(|&i| job_stalls(seed, every, i)).collect::<Vec<_>>();
        assert_eq!(schedule(7, 10), schedule(7, 10), "same seed, same stall picks");
        assert_ne!(schedule(7, 10), schedule(8, 10), "different seed, different picks");
        assert!((300..3000).contains(&schedule(7, 10).len()));
        let panics = (0..10_000).filter(|&i| job_panics(7, 10, i)).collect::<Vec<_>>();
        assert_ne!(schedule(7, 10), panics, "the stall hash is not the panic hash");
        assert!(schedule(7, 0).is_empty(), "stall_every = 0 stalls nothing");
    }

    #[test]
    fn only_the_first_max_stalls_picks_sleep() {
        // `stall_every = 1` picks every submission; the first six are admitted whatever the
        // workers do (occupancy at submission k is at most k < 8), so exactly six sleep.
        let sc = ChaosScenario::parse(
            "mode = chaos\nname = cap\nthreads = 2\nqueue_capacity = 8\nsteady_jobs = 10\n\
             burst_jobs = 4\nprobe_jobs = 4\njob_work_us = 50\nsteady_pace_us = 50\n\
             stall_every = 1",
        )
        .unwrap();
        let report = run(&sc, false);
        assert!(report.all_passed(), "{:?}", report.summary_lines());
        assert_eq!(report.stalls, MAX_STALLS, "the cap bounds the stalls");
        let none = ChaosScenario { stall_every: 0, ..sc };
        assert_eq!(run(&none, false).stalls, 0, "stall_every = 0 stalls nothing");
    }

    #[test]
    fn the_report_says_whether_the_storm_ran() {
        let base = "mode = chaos\nname = st\nthreads = 2\nqueue_capacity = 8\nsteady_jobs = 10\n\
                    burst_jobs = 4\nprobe_jobs = 4\njob_work_us = 50\nsteady_pace_us = 50\n";
        for (after, ran) in [(1_000, false), (1, true)] {
            let sc = ChaosScenario::parse(&format!("{base}storm_after_accepts = {after}")).unwrap();
            let report = run(&sc, false);
            assert!(report.all_passed(), "{:?}", report.summary_lines());
            assert_eq!(report.storm, ran, "storm_after_accepts = {after}");
            assert!(report.to_json().contains(&format!("\"storm\": {ran}")));
        }
    }

    #[test]
    fn sabotaged_evidence_trips_the_harness() {
        // The CI self-test contract: doctored evidence MUST fail, proving the verdicts
        // are live checks and not rubber stamps.
        let sc = ChaosScenario::parse(
            "mode = chaos\nname = sab\nthreads = 2\nqueue_capacity = 8\nsteady_jobs = 10\n\
             burst_jobs = 4\nprobe_jobs = 4\njob_work_us = 50\nsteady_pace_us = 50",
        )
        .unwrap();
        let report = run(&sc, true);
        assert!(!report.all_passed(), "sabotage must trip at least one verdict");
        assert!(report.failed_verdicts() >= 2, "both the dup and the lost outcome trip");
        assert!(report.sabotaged);
        assert!(report.to_json().contains("\"sabotaged\": true"));
        validate_chaos_report(&report.to_json()).expect("even a failing report validates");
    }
}
