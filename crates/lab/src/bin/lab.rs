//! The `lab` CLI: run a scenario file on its declared backends, print the summary, emit
//! the validated `rws-lab-report/v1` JSON document, and exit nonzero if anything — a parse
//! error, a malformed emission, or a bound-check verdict of `Fail` — is wrong.
//!
//! ```text
//! lab <scenario file> [--out PATH] [--jobs N] [--timing] [--trace DIR]
//! lab <chaos scenario> [--out PATH] [--sabotage] [--trace DIR]
//! ```
//!
//! A scenario declaring `mode = chaos` runs the fault-injection harness instead of the
//! sweep engine: streamed traffic against a supervised `JobServer` under the scenario's
//! fault plan, exiting nonzero if any recovery invariant fails. `--sabotage` doctors the
//! collected evidence before the verdicts are evaluated — the run MUST then fail, which
//! is the CI self-test proving the harness actually trips (`--jobs`/`--timing` do not
//! apply to chaos runs and are rejected).
//!
//! `--jobs N` fans independent **simulated** runs out across an `N`-worker driver pool
//! (native runs stay serialized so their wall clocks don't contend); the emitted document
//! is byte-identical whatever `N` is. On a 1-CPU host, jobs above 1 merely time-slice —
//! correctness and output are unaffected, wall time is not improved.
//!
//! `--timing` additionally populates the volatile `timing` sidecar (wall clocks, native
//! steal counters). Without it the document is fully deterministic: rerunning the same
//! scenario emits the same bytes.
//!
//! `--trace DIR` turns on the runtime's flight recorder and writes, per native run (or
//! per chaos run), a full `rws-trace/v1` document plus a Chrome `trace_event` file into
//! `DIR` (`<scenario>_native_<i>.trace.json` / `..._chrome.json`, or `<scenario>.trace.json`
//! for chaos). The trace files are a **sidecar**: the lab report itself stays byte-identical
//! to an untraced run's, and every trace document is validated as it landed on disk.
//!
//! Without `--out` the JSON goes to stdout (the summary always goes to stderr); with
//! `--out` the document is written, re-read from disk, and validated as it landed.
//!
//! Exit codes: `0` all checks passed, `1` a check failed or the report was invalid,
//! `2` usage or scenario-parse error.

use rws_lab::sweep::NativeTraceCapture;
use rws_lab::{chaos, report, trace_export, Scenario};
use std::process::ExitCode;

/// Events per recorder lane under `--trace` (power of two; 16-byte slots, so ~3 MiB per
/// lane — bounded however long the run is, overwrite-oldest beyond that).
const TRACE_CAPACITY: usize = 1 << 16;

fn usage() -> ! {
    eprintln!(
        "usage: lab <scenario file> [--out PATH] [--jobs N] [--timing] [--trace DIR]\n\
                lab <chaos scenario> [--out PATH] [--sabotage] [--trace DIR]"
    );
    std::process::exit(2);
}

/// Emit one document: to `path` when given — written, re-read, and validated as it landed
/// on disk, not as the in-memory string — else validated and printed to stdout. Returns
/// `false` (having said why on stderr) on any failure.
fn emit(doc: &str, path: Option<&str>, validate: fn(&str) -> Result<(), String>) -> bool {
    let Some(path) = path else {
        if let Err(e) = validate(doc) {
            eprintln!("lab: emitted document is malformed: {e}");
            return false;
        }
        print!("{doc}");
        return true;
    };
    if let Err(e) = std::fs::write(path, doc) {
        eprintln!("lab: failed to write {path}: {e}");
        return false;
    }
    let written = match std::fs::read_to_string(path) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("lab: failed to re-read {path}: {e}");
            return false;
        }
    };
    if let Err(e) = validate(&written) {
        eprintln!("lab: {path} is malformed: {e}");
        return false;
    }
    eprintln!("lab: wrote {path}");
    true
}

/// Write one trace snapshot's pair of files (`rws-trace/v1` + Chrome) into `dir`,
/// validating each as it landed on disk. Returns `false` on any failure.
fn write_trace_pair(
    dir: &str,
    stem: &str,
    label: &str,
    snap: &rws_runtime::trace::TraceSnapshot,
) -> bool {
    emit(
        &trace_export::trace_document(snap, label).render(),
        Some(&format!("{dir}/{stem}.trace.json")),
        trace_export::validate_trace_document,
    ) && emit(
        &trace_export::chrome_trace(snap, label).render(),
        Some(&format!("{dir}/{stem}_chrome.json")),
        trace_export::validate_chrome_trace,
    )
}

fn main() -> ExitCode {
    let mut scenario_path: Option<String> = None;
    let mut out: Option<String> = None;
    let mut jobs: usize = 1;
    let mut jobs_given = false;
    let mut timing = false;
    let mut sabotage = false;
    let mut trace_dir: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--jobs" => {
                jobs = it
                    .next()
                    .and_then(|j| j.parse().ok())
                    .filter(|&j| j > 0)
                    .unwrap_or_else(|| usage());
                jobs_given = true;
            }
            "--timing" => timing = true,
            "--sabotage" => sabotage = true,
            "--trace" => trace_dir = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other if scenario_path.is_none() && !other.starts_with('-') => {
                scenario_path = Some(other.to_string())
            }
            _ => usage(),
        }
    }
    let Some(scenario_path) = scenario_path else { usage() };

    let text = match std::fs::read_to_string(&scenario_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("lab: cannot read {scenario_path}: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(dir) = &trace_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("lab: cannot create trace directory {dir}: {e}");
            return ExitCode::from(2);
        }
    }

    if chaos::is_chaos_scenario(&text) {
        if jobs_given || timing {
            eprintln!("lab: --jobs/--timing do not apply to chaos scenarios");
            return ExitCode::from(2);
        }
        return run_chaos(&scenario_path, &text, out.as_deref(), sabotage, trace_dir.as_deref());
    }
    if sabotage {
        eprintln!("lab: --sabotage only applies to chaos scenarios (mode = chaos)");
        return ExitCode::from(2);
    }

    let scenario = match Scenario::parse(&text) {
        Ok(sc) => sc,
        Err(e) => {
            eprintln!("lab: {scenario_path}: {e}");
            return ExitCode::from(2);
        }
    };

    eprintln!(
        "lab: running scenario `{}` ({} on {:?}, {} seed(s), jobs={jobs}{})",
        scenario.name,
        scenario.workload.name(),
        scenario.backends.iter().map(|b| b.name()).collect::<Vec<_>>(),
        scenario.seeds.len(),
        if trace_dir.is_some() { ", traced" } else { "" }
    );
    let (result, captures): (report::LabReport, Vec<NativeTraceCapture>) = match &trace_dir {
        Some(_) => report::run_with_jobs_traced(&scenario, jobs, TRACE_CAPACITY),
        None => (report::run_with_jobs(&scenario, jobs), Vec::new()),
    };
    for line in result.summary_lines() {
        eprintln!("{line}");
    }

    if let Some(dir) = &trace_dir {
        for (i, capture) in captures.iter().enumerate() {
            let stem = format!("{}_native_{i}", scenario.name);
            let label = format!(
                "{} native t={} seed={}",
                scenario.name, capture.spec.procs, capture.spec.seed
            );
            if !write_trace_pair(dir, &stem, &label, &capture.snapshot) {
                return ExitCode::FAILURE;
            }
        }
        if captures.is_empty() {
            eprintln!("lab: --trace had nothing to record (no native runs in this scenario)");
        }
    }

    let doc = if timing { result.to_json_timed() } else { result.to_json() };
    if !emit(&doc, out.as_deref(), report::validate_report) {
        return ExitCode::FAILURE;
    }

    if result.all_passed() {
        ExitCode::SUCCESS
    } else {
        eprintln!("lab: {} bound check(s) FAILED", result.failed_checks());
        ExitCode::FAILURE
    }
}

/// The chaos path: run the fault-injection harness, emit `rws-chaos-report/v1`, exit
/// nonzero on any failed recovery invariant (or malformed emission).
fn run_chaos(
    path: &str,
    text: &str,
    out: Option<&str>,
    sabotage: bool,
    trace_dir: Option<&str>,
) -> ExitCode {
    let scenario = match chaos::ChaosScenario::parse(text) {
        Ok(sc) => sc,
        Err(e) => {
            eprintln!("lab: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "lab: running chaos scenario `{}` ({} jobs on {} threads, capacity {}, {} planned \
         death(s), panic_every = {}{}{})",
        scenario.name,
        scenario.total_jobs(),
        scenario.threads,
        scenario.queue_capacity,
        scenario.death_sweeps.len(),
        scenario.panic_every,
        if sabotage { ", SABOTAGE self-test" } else { "" },
        if trace_dir.is_some() { ", traced" } else { "" }
    );
    let trace = trace_dir.map(|_| TRACE_CAPACITY);
    let result = chaos::run_traced(&scenario, sabotage, trace);
    for line in result.summary_lines() {
        eprintln!("{line}");
    }

    if let Some(dir) = trace_dir {
        let snap = result.trace.as_ref().expect("traced chaos run carries a snapshot");
        let label = format!("{} chaos t={}", scenario.name, scenario.threads);
        if !write_trace_pair(dir, &scenario.name, &label, snap) {
            return ExitCode::FAILURE;
        }
    }

    if !emit(&result.to_json(), out, chaos::validate_chaos_report) {
        return ExitCode::FAILURE;
    }

    if result.all_passed() {
        ExitCode::SUCCESS
    } else {
        eprintln!("lab: {} recovery invariant(s) FAILED", result.failed_verdicts());
        ExitCode::FAILURE
    }
}
