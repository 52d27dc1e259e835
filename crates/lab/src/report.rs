//! The lab report: one scenario's runs and verdicts, as a summary table and as the
//! validated `rws-lab-report/v1` JSON document.
//!
//! JSON schema (all keys always present):
//!
//! ```text
//! {
//!   "schema": "rws-lab-report/v1",
//!   "scenario": <name>, "workload": <full workload name>,
//!   "work": W, "t_inf": T∞, "measured_only": bool,
//!   "runs": [ { "backend", "executor", "procs", "seed", "axis", "axis_value",
//!               "shards", "shard_threads",
//!               "steals", "failed_steals", "work_items", "time_units", "time_unit",
//!               "cache_misses", "block_misses", "false_sharing_misses" } ],
//!   "checks": [ { "run", "name", "measured", "bound", "slack", "ratio", "verdict" } ],
//!   "timing": null | [ { "run", "wall_ns", "steals", "failed_steals" } ],
//!   "summary": { "runs", "checks", "failed" }
//! }
//! ```
//!
//! `axis`/`axis_value` are `null` for unswept runs; `run` indexes into `runs`.
//!
//! **Determinism contract.** Everything outside `timing` is a deterministic function of
//! the scenario: simulated runs are seeded, native `work_items` counts executed fork
//! branches (a property of the kernel, not the schedule), and record order is expansion
//! order whatever `--jobs` level produced it. The *volatile* quantities — wall clocks on
//! every backend, and a native or sharded run's racy steal counters — live only in the
//! `timing` sidecar, emitted on request ([`LabReport::to_json_timed`], `lab --timing`)
//! and `null` otherwise. A default document is therefore byte-identical across
//! invocations and across `--jobs` levels; `steals`/`failed_steals`/`time_units` in a
//! **native** or **sharded** run row are `null`, pointing at the sidecar. Measuring speed
//! belongs to the repository benchmark (`benchmark/`), not the lab report. `shards`/
//! `shard_threads` are `null` on non-sharded rows.
//!
//! Documents emitted before the sidecar existed carried a per-row `wall_ns` and measured
//! native steal counters instead; they still validate (`timing` is optional in
//! [`validate_report`]), but consumers of the volatile quantities should read the
//! `timing` array in current documents.

use crate::checks::{evaluate, CheckRecord};
use crate::json::{self, obj, Json};
use crate::scenario::{BackendChoice, Scenario};
use crate::sweep::{run_scenario, LabRun, NativeTraceCapture};

/// The schema tag of the emitted JSON document.
pub const SCHEMA: &str = "rws-lab-report/v1";

/// All results of one scenario: the executed runs plus the evaluated verdicts.
#[derive(Clone, Debug)]
pub struct LabReport {
    /// The executed runs.
    pub lab: LabRun,
    /// The evaluated checks (simulated runs only; see [`crate::checks`]).
    pub checks: Vec<CheckRecord>,
}

/// Run a scenario end to end: sweep, execute on every backend, evaluate the checks.
pub fn run(sc: &Scenario) -> LabReport {
    run_with_jobs(sc, 1)
}

/// [`run`] with up to `jobs` concurrent simulated runs (native runs stay serialized); see
/// [`crate::sweep::run_scenario`]. The resulting report — and its default JSON emission —
/// is identical for every `jobs` value.
pub fn run_with_jobs(sc: &Scenario, jobs: usize) -> LabReport {
    let (lab, _) = run_scenario(sc, jobs, None);
    let checks = evaluate(sc, &lab);
    LabReport { lab, checks }
}

/// [`run_with_jobs`] with the native flight recorder on: each native run executes on a
/// fresh traced pool and returns its drained event snapshot alongside the report (the
/// `lab --trace DIR` path; see [`crate::sweep::run_scenario`]). The report —
/// and therefore the emitted lab document — is identical to an untraced run's.
pub fn run_with_jobs_traced(
    sc: &Scenario,
    jobs: usize,
    trace_capacity: usize,
) -> (LabReport, Vec<NativeTraceCapture>) {
    let (lab, captures) = run_scenario(sc, jobs, Some(trace_capacity));
    let checks = evaluate(sc, &lab);
    (LabReport { lab, checks }, captures)
}

impl LabReport {
    /// Number of checks whose verdict is `Fail`.
    pub fn failed_checks(&self) -> usize {
        self.checks.iter().filter(|c| !c.check.passed()).count()
    }

    /// Whether every evaluated check passed.
    pub fn all_passed(&self) -> bool {
        self.failed_checks() == 0
    }

    /// Human-readable summary: one line per run, one line per check, one closing line.
    pub fn summary_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        lines.push(format!(
            "scenario {}: {} (W = {}, T_inf = {}){}",
            self.lab.scenario,
            self.lab.workload,
            self.lab.work,
            self.lab.t_inf,
            if self.lab.measured_only { " [measured only: no paper bound applies]" } else { "" }
        ));
        for (i, r) in self.lab.records.iter().enumerate() {
            let axis = match r.spec.axis {
                Some((name, v)) => format!(" {name}={v}"),
                None => String::new(),
            };
            lines.push(format!(
                "  run {i}: {}{axis} seed={} -> {} steals, {} work items, {} {}",
                r.report.executor,
                r.spec.seed,
                r.report.steals,
                r.report.work_items,
                r.report.time_units,
                r.report.backend.time_unit(),
            ));
        }
        for c in &self.checks {
            lines.push(format!("  run {}: {}", c.run, c.check.summary()));
        }
        lines.push(format!(
            "{}: {} runs, {} checks, {} failed",
            if self.all_passed() { "PASS" } else { "FAIL" },
            self.lab.records.len(),
            self.checks.len(),
            self.failed_checks()
        ));
        lines
    }

    /// Render the deterministic `rws-lab-report/v1` JSON document: `timing` is `null` and
    /// every value present is reproducible (always passes [`validate_report`], and is
    /// byte-identical across invocations and `--jobs` levels).
    pub fn to_json(&self) -> String {
        self.render_json(false)
    }

    /// Render the document with the volatile `timing` sidecar populated (wall clocks and
    /// native steal counters — values that differ run to run by nature).
    pub fn to_json_timed(&self) -> String {
        self.render_json(true)
    }

    fn render_json(&self, timed: bool) -> String {
        let runs: Vec<Json> = self
            .lab
            .records
            .iter()
            .map(|r| {
                let (axis, axis_value) = match r.spec.axis {
                    Some((name, v)) => (Json::from(name), Json::from(v)),
                    None => (Json::Null, Json::Null),
                };
                // A native or sharded run's steal counters and elapsed time are
                // schedule- and wall-clock-dependent: deterministic rows carry null and
                // the real measurements ride in the `timing` sidecar.
                let volatile =
                    matches!(r.spec.backend, BackendChoice::Native | BackendChoice::Sharded);
                let gate = |v: Json| if volatile { Json::Null } else { v };
                let (shards, shard_threads) = match r.spec.shard_shape {
                    Some((s, t)) => (Json::from(s), Json::from(t)),
                    None => (Json::Null, Json::Null),
                };
                obj([
                    ("backend", r.spec.backend.name().into()),
                    ("executor", r.report.executor.as_str().into()),
                    ("procs", r.spec.procs.into()),
                    ("seed", r.spec.seed.into()),
                    ("axis", axis),
                    ("axis_value", axis_value),
                    ("shards", shards),
                    ("shard_threads", shard_threads),
                    ("steals", gate(r.report.steals.into())),
                    ("failed_steals", gate(r.report.failed_steals.into())),
                    ("work_items", r.report.work_items.into()),
                    ("time_units", gate(r.report.time_units.into())),
                    ("time_unit", r.report.backend.time_unit().into()),
                    ("cache_misses", r.report.cache_misses.into()),
                    ("block_misses", r.report.block_misses.into()),
                    ("false_sharing_misses", r.report.false_sharing_misses.into()),
                ])
            })
            .collect();
        let timing: Json = if timed {
            Json::Arr(
                self.lab
                    .records
                    .iter()
                    .enumerate()
                    .map(|(i, r)| {
                        obj([
                            ("run", i.into()),
                            (
                                "wall_ns",
                                u64::try_from(r.report.wall.as_nanos()).unwrap_or(u64::MAX).into(),
                            ),
                            ("steals", r.report.steals.into()),
                            ("failed_steals", r.report.failed_steals.into()),
                        ])
                    })
                    .collect(),
            )
        } else {
            Json::Null
        };
        let checks: Vec<Json> = self
            .checks
            .iter()
            .map(|c| {
                obj([
                    ("run", c.run.into()),
                    ("name", c.check.name.as_str().into()),
                    ("measured", c.check.measured.into()),
                    ("bound", c.check.bound.into()),
                    ("slack", c.check.slack.into()),
                    ("ratio", c.check.ratio().into()),
                    ("verdict", c.check.verdict.label().into()),
                ])
            })
            .collect();
        obj([
            ("schema", SCHEMA.into()),
            ("scenario", self.lab.scenario.as_str().into()),
            ("workload", self.lab.workload.as_str().into()),
            ("work", self.lab.work.into()),
            ("t_inf", self.lab.t_inf.into()),
            ("measured_only", self.lab.measured_only.into()),
            ("runs", runs.into()),
            ("checks", checks.into()),
            ("timing", timing),
            (
                "summary",
                obj([
                    ("runs", self.lab.records.len().into()),
                    ("checks", self.checks.len().into()),
                    ("failed", self.failed_checks().into()),
                ]),
            ),
        ])
        .render()
    }
}

/// Validate an emitted lab-report document: structurally well-formed JSON carrying the
/// schema tag and the required top-level keys. `timing` is *not* required: documents
/// emitted before the sidecar existed (which carried `wall_ns` per run row instead) are
/// still valid `rws-lab-report/v1`; the evolution was additive-with-nulls, not a tag bump.
pub fn validate_report(doc: &str) -> Result<(), String> {
    json::validate_with_keys(doc, &["schema", "scenario", "runs", "checks", "summary"])?;
    if !doc.contains(SCHEMA) {
        return Err(format!("document does not carry the `{SCHEMA}` schema tag"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> LabReport {
        let sc = Scenario::parse(
            "name = tiny\nworkload = prefix-sums\nn = 256\nbackends = sim, native\n\
             seeds = 11\nsweep = procs: 1, 2",
        )
        .unwrap();
        run(&sc)
    }

    #[test]
    fn end_to_end_report_validates_and_passes() {
        let report = tiny_report();
        assert_eq!(report.lab.records.len(), 4);
        assert_eq!(report.checks.len(), 2 * 3, "two sim runs x three default checks");
        assert!(report.all_passed(), "{:?}", report.summary_lines());
        let doc = report.to_json();
        validate_report(&doc).expect("emitted lab report must validate");
        for key in
            ["\"axis\"", "\"verdict\"", "\"false_sharing_misses\"", "\"block_misses\"", "\"ratio\""]
        {
            assert!(doc.contains(key), "missing {key} in\n{doc}");
        }
    }

    #[test]
    fn summary_lines_name_every_run_and_check() {
        let report = tiny_report();
        let lines = report.summary_lines();
        assert_eq!(lines.len(), 1 + 4 + 6 + 1);
        assert!(lines.last().unwrap().starts_with("PASS"));
        assert!(lines[1].contains("seed=11"));
    }

    #[test]
    fn measured_only_workloads_are_labeled_not_vacuously_passed() {
        // The honesty contract: a workload the paper's analysis does not cover says so in
        // the summary header and the JSON, and carries zero checks rather than passing
        // checks that were never evaluated.
        let sc = Scenario::parse(
            "name = m\nworkload = sample-sort\nn = 64\nbackends = sim, native\nseeds = 11",
        )
        .unwrap();
        let report = run(&sc);
        assert!(report.checks.is_empty(), "no bound checks on a measured-only workload");
        assert!(report.all_passed(), "zero checks, zero failures");
        let lines = report.summary_lines();
        assert!(
            lines[0].contains("[measured only: no paper bound applies]"),
            "header must carry the label: {}",
            lines[0]
        );
        let doc = report.to_json();
        validate_report(&doc).expect("measured-only report must validate");
        assert!(doc.contains("\"measured_only\": true"), "{doc}");
        // And the covered workloads stay unlabeled.
        let covered = tiny_report();
        assert!(!covered.lab.measured_only);
        assert!(covered.to_json().contains("\"measured_only\": false"));
    }

    #[test]
    fn validate_report_rejects_foreign_documents() {
        assert!(validate_report("{}").is_err());
        assert!(validate_report("not json").is_err());
        let wrong_schema = tiny_report().to_json().replace(SCHEMA, "other/v9");
        assert!(validate_report(&wrong_schema).is_err());
    }

    #[test]
    fn default_document_is_byte_identical_across_invocations_and_jobs_levels() {
        // The determinism contract: wall clocks and racy native counters are excluded by
        // default, so rerunning the same scenario — sequentially or fanned out — emits the
        // same bytes.
        let sc = Scenario::parse(
            "name = tiny\nworkload = prefix-sums\nn = 256\nbackends = sim, native\n\
             seeds = 11\nsweep = procs: 1, 2",
        )
        .unwrap();
        let sequential = run(&sc).to_json();
        let again = run(&sc).to_json();
        let fanned = run_with_jobs(&sc, 4).to_json();
        assert_eq!(sequential, again, "two sequential runs must emit identical documents");
        assert_eq!(sequential, fanned, "--jobs must not change the emitted document");
        assert!(sequential.contains("\"timing\": null"));
    }

    #[test]
    fn sharded_rows_follow_the_determinism_contract() {
        // Sharded rows are volatile like native rows (wall clocks, subprocess scheduling):
        // steals/time_units null, shards/shard_threads populated, and the default document
        // byte-identical across invocations. Needs the shard-worker binary (built by any
        // workspace `cargo test`; else `cargo build --bins -p rws-shard`).
        let sc = Scenario::parse(
            "name = sh\nworkload = spmv\nn = 64\nbackends = sim, sharded\n\
             seeds = 11\nshard_threads = 1\nsweep = shards: 1, 2",
        )
        .unwrap();
        let report = run(&sc);
        let doc = report.to_json();
        validate_report(&doc).expect("sharded report must validate");
        assert!(doc.contains("\"backend\": \"sharded\""), "{doc}");
        assert!(doc.contains("\"shards\": 2"), "{doc}");
        assert!(doc.contains("\"shard_threads\": 1"), "{doc}");
        for r in &report.lab.records {
            match r.spec.backend {
                BackendChoice::Sharded => assert!(r.spec.shard_shape.is_some()),
                _ => assert!(r.spec.shard_shape.is_none()),
            }
        }
        assert_eq!(doc, run(&sc).to_json(), "sharded rows must not leak volatile values");
        // The timed sidecar still carries the real wall clocks for every row.
        let timed = report.to_json_timed();
        assert!(timed.contains("\"wall_ns\""), "{timed}");
    }

    #[test]
    fn timed_document_carries_the_volatile_sidecar() {
        let report = tiny_report();
        let doc = report.to_json_timed();
        validate_report(&doc).expect("timed report must validate");
        assert!(doc.contains("\"wall_ns\""), "{doc}");
        assert!(!doc.contains("\"timing\": null"), "{doc}");
        // Native rows null their volatile columns in both modes; the sidecar has the data.
        let default_doc = report.to_json();
        assert!(default_doc.contains("\"time_units\": null"), "{default_doc}");
        assert!(!default_doc.contains("\"wall_ns\""), "{default_doc}");
    }
}
