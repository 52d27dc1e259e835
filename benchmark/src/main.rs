//! The repository's benchmark harness. `benchmark/run.sh` builds it and runs it once per
//! workload; `BENCHMARK.json` at the repository root names everything it prints.
//!
//! ```text
//! rws-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--worker <shard-worker>] [--out <dir>]
//! rws-benchmark --compare <dir> [<dir>]      # spreads and A/B agreement (agree.sh)
//! rws-benchmark --list                       # the workload names, one a line
//! ```
//!
//! One run: host canary, set-up (repeated, median reported), the workload with tracing
//! off *or* the traced per-layer run, host canary again, then one JSON object as the last
//! line of standard output: `correct`, `attempted`, `failed`, `metrics`.
//!
//! The untraced run is confined to one processor and reads its timings from the
//! processor-time clock; the traced run is where wall clocks and `T` threads are.

mod compare;
mod host;
mod measure;
mod names;
mod openloop;
mod probes;
mod spans;
mod stats;
mod workloads;

use measure::{timed_cost, Ops, Reporter};
use names::{Sheet, END_TO_END, PER_LAYER, WORKLOADS};
use spans::Spans;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Ctx, Workload};

/// Set-up is repeated and `setup_s` is the median, so one slow thread spawn does not move
/// it: at least `SETUP_REPS` times, and on until `SETUP_SPEND_S` seconds have gone into it
/// or `SETUP_REPS_MAX` repetitions are done — a set-up of a few milliseconds needs many
/// more samples than one of fifty to repeat as closely.
const SETUP_REPS: usize = 5;
const SETUP_REPS_MAX: usize = 200;
const SETUP_SPEND_S: f64 = 0.6;
/// Canary repetitions before and after the workload.
const CALIB_REPS: usize = 9;
/// Share of the traced run's seconds spent on the wall-clock closed loops
/// (`wall_ms_p50`, `wall_t1_ms_p50`, `jobs_per_s`); the rest goes to the layers.
const WALLS_SHARE: f64 = 0.3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    worker: Option<PathBuf>,
    out_dir: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: rws-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--worker <path>] [--out <dir>]\n       rws-benchmark --compare <dir> [<dir>]\n       \
         rws-benchmark --list",
        WORKLOADS.join("|")
    )
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 11,
        seconds: 15.0,
        trace: false,
        worker: None,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--worker" => args.worker = Some(PathBuf::from(value()?)),
            "--out" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if !(args.seconds.is_finite() && args.seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// The one-line result the contract asks for.
fn result_line(sheet: &Sheet, ops: Ops) -> String {
    let metrics: Vec<String> = sheet
        .rows()
        .map(|(def, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                v.unwrap_or(0.0),
                def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.failed == 0 && ops.attempted > 0,
        ops.attempted,
        ops.failed,
        metrics.join(", ")
    )
}

fn run<W: Workload>(args: &Args) -> ExitCode {
    // Read before confinement, which would make it 1.
    let nproc = host::nproc();
    let ctx = Ctx {
        seed: args.seed,
        threads: host::wide_threads(),
        seconds: args.seconds,
        worker: args.worker.clone(),
    };
    // Before any thread or process is started, so that all of them inherit it.
    let pinned = if args.trace { None } else { host::pin_to_current_cpu() };
    let allocator_fixed = host::fix_malloc_thresholds();
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    println!(
        "{:<15} # nproc={} T={} seed={} seconds={} trace={} rustc=\"{}\" commit={}",
        W::NAME,
        nproc,
        ctx.threads,
        ctx.seed,
        ctx.seconds,
        u8::from(args.trace),
        env("RWS_BENCH_RUSTC"),
        env("RWS_BENCH_COMMIT"),
    );
    match pinned {
        Some(cpu) => println!("{:<15} # confined to processor {cpu}", W::NAME),
        None if args.trace => {}
        None => println!("{:<15} # could not be confined to one processor", W::NAME),
    }
    if !allocator_fixed {
        println!("{:<15} # the allocator's thresholds could not be fixed", W::NAME);
    }
    let calib_before = host::calib_ms_p50(CALIB_REPS);

    let mut setup_s = Vec::new();
    let mut workload = None;
    let mut spent_s = 0.0;
    while setup_s.len() < SETUP_REPS || (spent_s < SETUP_SPEND_S && setup_s.len() < SETUP_REPS_MAX)
    {
        drop(workload.take());
        let (built, cost) = timed_cost(|| W::setup(&ctx));
        setup_s.push(cost.cpu_ms / 1e3);
        spent_s += cost.wall_ms / 1e3;
        workload = Some(built);
    }
    let mut workload = workload.expect("SETUP_REPS > 0");

    let mut ops = Ops::default();
    let mut out = Reporter::new(W::NAME, if args.trace { &PER_LAYER } else { &END_TO_END });
    if args.trace {
        workloads::walls(&mut workload, WALLS_SHARE * ctx.seconds, &mut ops, &mut out);
        let ctx = Ctx { seconds: (1.0 - WALLS_SHARE) * ctx.seconds, ..ctx.clone() };
        let mut spans = Spans::new(true);
        workload.layers(&ctx, &mut ops, &mut spans, &mut out);
        let lag = std::mem::take(&mut out.gen_lag_us);
        out.tail("harness.gen_lag_us_p99", &lag, 0.99);
        out.value("harness.calib_ms_p50", calib_before);
        for (name, (count, total_ns, self_ns)) in spans.self_times() {
            out.note(&format!(
                "span {name:<24} n={count:<7} total={:>12.3} ms  self={:>12.3} ms",
                total_ns as f64 / 1e6,
                self_ns as f64 / 1e6
            ));
        }
        let path = args.out_dir.join(format!("spans-{}.json", W::NAME));
        let written = std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| std::fs::write(&path, spans.to_json(W::NAME)));
        match written {
            Ok(()) => {
                out.note(&format!("{} spans written to {}", spans.records().len(), path.display()))
            }
            Err(e) => {
                eprintln!("rws-benchmark: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    } else {
        workloads::measure(&mut workload, &ctx, &mut ops, &mut out);
        out.timing("setup_s", &setup_s);
        let Some(rss) = host::peak_rss_mb() else {
            eprintln!("rws-benchmark: cannot read VmHWM from /proc/self/status");
            return ExitCode::from(2);
        };
        out.value("peak_rss_mb", rss);
    }
    drop(workload);

    let calib_after = host::calib_ms_p50(CALIB_REPS);
    out.note(&format!(
        "host canary harness.calib_ms_p50: before {calib_before:.4} ms, after {calib_after:.4} ms \
         ({:+.1} %)",
        (calib_after / calib_before - 1.0) * 100.0
    ));
    out.note(&format!("operations attempted {}, failed {}", ops.attempted, ops.failed));
    println!("{}", result_line(out.sheet(), ops));
    if ops.failed == 0 && ops.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--list") => {
            WORKLOADS.iter().for_each(|w| println!("{w}"));
            return ExitCode::SUCCESS;
        }
        Some("--compare") => return compare::main(&argv[1..]),
        _ => {}
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rws-benchmark: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "forkjoin-fine" => run::<workloads::forkjoin::ForkJoin>(&args),
        "kernels-coarse" => run::<workloads::kernels::Kernels>(&args),
        "dag-irregular" => run::<workloads::dag::DagIrregular>(&args),
        "service-stream" => run::<workloads::service::Service>(&args),
        "sim-sweep" => run::<workloads::sim::SimSweep>(&args),
        "sharded-cold" => run::<workloads::sharded::Sharded>(&args),
        other => unreachable!("`{other}` passed the WORKLOADS check"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_contract_command_line_parses() {
        let a = parse(&argv("--workload sim-sweep --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("sim-sweep", 7, 12.0, true));
        assert!(parse(&argv("--workload nope --seed 7 --seconds 12 --trace 0")).is_err());
        assert!(parse(&argv("--workload sim-sweep --trace 2")).is_err());
        assert!(parse(&argv("--workload sim-sweep --seconds 0")).is_err());
        assert!(parse(&argv("--workload sim-sweep --seed")).is_err());
    }

    #[test]
    fn every_listed_workload_is_dispatched_under_its_own_name() {
        use workloads::{dag, forkjoin, kernels, service, sharded, sim};
        let names = [
            forkjoin::ForkJoin::NAME,
            kernels::Kernels::NAME,
            dag::DagIrregular::NAME,
            service::Service::NAME,
            sim::SimSweep::NAME,
            sharded::Sharded::NAME,
        ];
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys_and_every_metric() {
        let mut sheet = Sheet::new(&END_TO_END);
        sheet.set("setup_s", 0.25);
        let line = result_line(&sheet, Ops { attempted: 10, failed: 0 });
        assert!(!line.contains('\n'));
        let doc = rws_lab::json::parse(&line).expect("result line is JSON");
        assert_eq!(doc.keys(), ["correct", "attempted", "failed", "metrics"]);
        let metrics = doc.get("metrics").expect("metrics");
        let listed: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(metrics.keys(), listed);
        let setup = metrics.get("setup_s").expect("setup_s");
        assert_eq!(setup.get("value").and_then(rws_lab::json::Json::as_f64), Some(0.25));
        assert_eq!(setup.get("unit").and_then(rws_lab::json::Json::as_str), Some("s"));
        assert!(result_line(&sheet, Ops { attempted: 3, failed: 1 }).contains("\"correct\": false"));
        assert!(result_line(&sheet, Ops::default()).contains("\"correct\": false"));
    }
}
