//! Emit `BENCH_native.json`: the native hot-path benchmark comparing the lock-free
//! Chase–Lev deque backend against the mutex-protected `SimpleDeque` across workloads and
//! thread counts, plus the service-mode rows (job-server throughput, shed rate, and p99
//! queue latency — see `run_service_suite`), the flight-recorder overhead row
//! (`run_trace_overhead`: the same workload with tracing off and on, so the gate can prove
//! the always-compiled recorder stays free when it is off), and the multi-process
//! `sharded` rows (`run_sharded_suite`: shardable workloads across worker subprocesses vs
//! in-process — needs the `shard-worker` binary, so build `rws-shard` first).
//!
//! ```text
//! native_bench [--size smoke|full] [--out PATH] [--threads 1,2,4] [--repeats N]
//!              [--warmup N] [--check-against BASELINE.json]
//!              [--gate BASELINE.json] [--delta-out PATH] [--tolerance F]
//!              [--replay RUN.json] [--append-trajectory PATH] [--note STR]
//! ```
//!
//! The process installs a counting global allocator so the suite can report
//! allocations-per-fork (the "is `join` really allocation-free" trajectory number). After
//! writing, the document is re-read and structurally validated; any problem — malformed
//! JSON, a panicking backend — exits nonzero, which is what the CI smoke step checks.
//!
//! `--check-against BASELINE.json` additionally diffs the freshly written document's
//! *structure* against a committed baseline (every baseline record field present, every
//! workload/backend combination present, uniform per-combination row counts), so a
//! silently dropped workload row fails the build instead of shrinking the file unnoticed.
//! The diff is forward-compatible: a run from a newer binary may carry extra sections and
//! fields, but anything the baseline promises must still be there.
//!
//! `--gate BASELINE.json` runs the perf-regression gate: the run document is compared to
//! the baseline under the `GateConfig` tolerances (`--tolerance` overrides the t=1 wall
//! tolerance), the `rws-bench-delta/v1` delta document is written to `--delta-out`
//! (default `BENCH_delta.json`), and any regression exits nonzero. `--replay RUN.json`
//! gates a previously written run document instead of benchmarking again — CI uses it to
//! prove the gate trips on a doctored run without re-measuring.
//!
//! `--append-trajectory PATH` appends a one-row summary of the run (t=1 chaselev medians,
//! stamped with today's UTC date and `--note`) to the `rws-bench-trajectory/v1` history,
//! creating the file on first use.

use rws_bench::native_bench::{
    append_trajectory, check_against, gate_against, run_service_suite, run_sharded_suite,
    run_suite, run_trace_overhead, to_json_full, trajectory_row, validate_json, BenchConfig,
    GateConfig, SizeClass,
};
use std::process::ExitCode;

// The workspace's one counting allocator. `allocs` is the heap traffic of a whole run over
// every worker, and nothing else runs in this process, so it reads the process-wide sum.
#[path = "../../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{process_allocations, CountingAllocator};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn usage() -> ! {
    eprintln!(
        "usage: native_bench [--size smoke|full] [--out PATH] [--threads 1,2,4] [--repeats N] \
         [--warmup N] [--check-against BASELINE.json] [--gate BASELINE.json] \
         [--delta-out PATH] [--tolerance F] [--replay RUN.json] \
         [--append-trajectory PATH] [--note STR]"
    );
    std::process::exit(2);
}

/// Today's UTC date as `YYYY-MM-DD`, from the system clock (civil-from-days conversion; no
/// date dependency in the tree).
fn utc_today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = secs as i64 / 86_400 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

fn main() -> ExitCode {
    let mut size = SizeClass::Full;
    let mut out = String::from("BENCH_native.json");
    let mut threads: Option<Vec<usize>> = None;
    let mut repeats: Option<usize> = None;
    let mut warmup: Option<usize> = None;
    let mut baseline: Option<String> = None;
    let mut gate_baseline: Option<String> = None;
    let mut delta_out = String::from("BENCH_delta.json");
    let mut tolerance: Option<f64> = None;
    let mut replay: Option<String> = None;
    let mut trajectory: Option<String> = None;
    let mut note = String::new();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--size" => {
                size = it.next().and_then(|s| SizeClass::parse(s)).unwrap_or_else(|| usage())
            }
            "--out" => out = it.next().cloned().unwrap_or_else(|| usage()),
            "--threads" => {
                let list = it.next().unwrap_or_else(|| usage());
                let parsed: Result<Vec<usize>, _> =
                    list.split(',').map(|t| t.trim().parse::<usize>()).collect();
                threads = Some(parsed.unwrap_or_else(|_| usage()));
            }
            "--repeats" => {
                repeats = Some(
                    it.next()
                        .and_then(|r| r.parse().ok())
                        .filter(|&r| r > 0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--warmup" => {
                warmup = Some(it.next().and_then(|r| r.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--check-against" => baseline = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--gate" => gate_baseline = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--delta-out" => delta_out = it.next().cloned().unwrap_or_else(|| usage()),
            "--tolerance" => {
                tolerance = Some(
                    it.next()
                        .and_then(|t| t.parse().ok())
                        .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--replay" => replay = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--append-trajectory" => {
                trajectory = Some(it.next().cloned().unwrap_or_else(|| usage()))
            }
            "--note" => note = it.next().cloned().unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }

    let mut cfg = BenchConfig::for_size(size);
    if let Some(t) = threads {
        cfg.threads = t;
    }
    if let Some(r) = repeats {
        cfg.repeats = r;
    }
    if let Some(w) = warmup {
        cfg.warmup = w;
    }

    // The document under inspection: a fresh run (written to --out), or a replayed one.
    let written = if let Some(replay_path) = &replay {
        match std::fs::read_to_string(replay_path) {
            Ok(doc) => {
                eprintln!("native_bench: replaying {replay_path} (no benchmarks run)");
                doc
            }
            Err(e) => {
                eprintln!("native_bench: cannot read replay document {replay_path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        eprintln!(
            "native_bench: size={} threads={:?} repeats={} warmup={} -> {}",
            cfg.size.name(),
            cfg.threads,
            cfg.repeats,
            cfg.warmup,
            out
        );
        let records = run_suite(&cfg, process_allocations);
        for r in &records {
            eprintln!(
                "  {:>13} {:>8} t={}  median {:>12} ns  steals {:>6} ({:>5} batches)  \
                 jobs {:>8}  retries {:>5}  parks {:>4}  allocs/fork {:.4}",
                r.workload,
                r.backend,
                r.threads,
                r.wall_ns_median,
                r.steals,
                r.batch_steals,
                r.jobs,
                r.steal_retries,
                r.parks,
                r.allocs_per_fork
            );
        }
        let service = run_service_suite(&cfg);
        for r in &service {
            eprintln!(
                "  {:>16} {:>6} t={}  median {:>12} ns  {:>9.0} jobs/s  shed {:>4} \
                 (rate {:.3})  p99 queue {:>9} ns",
                r.scenario,
                r.admission,
                r.threads,
                r.wall_ns_median,
                r.jobs_per_sec,
                r.shed,
                r.shed_rate,
                r.p99_queue_ns
            );
        }
        let trace = run_trace_overhead(&cfg);
        eprintln!(
            "  trace-overhead {} t={}  off {:>12} ns  on {:>12} ns  ({:+.1}%)  \
             {} events recorded",
            trace.workload,
            trace.threads,
            trace.wall_ns_off_median,
            trace.wall_ns_on_median,
            100.0 * trace.overhead_rel,
            trace.events_recorded
        );
        // The multi-process rows: shardable workloads across worker subprocesses vs the
        // same kernels in-process. Needs the shard-worker binary next to this one (CI
        // builds rws-shard first); when it is absent, say how to fix it rather than
        // emitting a document missing a section the baseline promises.
        let sharded = run_sharded_suite(&cfg);
        for r in &sharded {
            eprintln!(
                "  sharded {:>8} s={} t={}  median {:>12} ns  in-process {:>12} ns  \
                 ({:+.1}%)  {} parts  jobs {:>8}",
                r.workload,
                r.shards,
                r.threads_per_shard,
                r.wall_ns_median,
                r.inproc_wall_ns_median,
                100.0 * r.overhead_rel,
                r.parts,
                r.work_items
            );
        }
        let doc = to_json_full(&cfg, &records, &service, Some(&trace), &sharded);
        if let Err(e) = std::fs::write(&out, &doc) {
            eprintln!("native_bench: failed to write {out}: {e}");
            return ExitCode::FAILURE;
        }
        // Validate what actually landed on disk, not the in-memory string.
        match std::fs::read_to_string(&out) {
            Ok(w) => {
                eprintln!("native_bench: wrote {out} ({} records)", records.len());
                w
            }
            Err(e) => {
                eprintln!("native_bench: failed to re-read {out}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    if let Err(e) = validate_json(&written) {
        eprintln!("native_bench: run document is malformed: {e}");
        return ExitCode::FAILURE;
    }

    if let Some(baseline_path) = &baseline {
        let baseline_doc = match std::fs::read_to_string(baseline_path) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("native_bench: cannot read baseline {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = check_against(&written, &baseline_doc) {
            eprintln!("native_bench: run does not match the {baseline_path} schema: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("native_bench: run structurally matches {baseline_path}");
    }

    if let Some(trajectory_path) = &trajectory {
        let existing = std::fs::read_to_string(trajectory_path).ok();
        let appended = trajectory_row(&written, &utc_today(), &note)
            .and_then(|row| append_trajectory(existing.as_deref(), row));
        match appended {
            Ok(doc) => {
                if let Err(e) = std::fs::write(trajectory_path, &doc) {
                    eprintln!("native_bench: failed to write {trajectory_path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("native_bench: appended a trajectory row to {trajectory_path}");
            }
            Err(e) => {
                eprintln!("native_bench: trajectory append failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(gate_path) = &gate_baseline {
        let baseline_doc = match std::fs::read_to_string(gate_path) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("native_bench: cannot read gate baseline {gate_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut gate = GateConfig::default();
        if let Some(t) = tolerance {
            gate.wall_rel_tol = t;
        }
        match gate_against(&written, &baseline_doc, &gate) {
            Ok((delta, pass)) => {
                if let Err(e) = std::fs::write(&delta_out, &delta) {
                    eprintln!("native_bench: failed to write {delta_out}: {e}");
                    return ExitCode::FAILURE;
                }
                if pass {
                    eprintln!("native_bench: gate PASS vs {gate_path} (delta: {delta_out})");
                } else {
                    eprintln!("native_bench: gate FAIL vs {gate_path} (delta: {delta_out}):");
                    if let Ok(parsed) = rws_lab::json::parse(&delta) {
                        for r in parsed.get("regressions").and_then(|r| r.as_array()).unwrap_or(&[])
                        {
                            if let Some(s) = r.as_str() {
                                eprintln!("  {s}");
                            }
                        }
                    }
                    return ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("native_bench: gate could not compare the documents: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
