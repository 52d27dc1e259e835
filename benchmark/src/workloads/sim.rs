//! `sim-sweep`: two simulator-only lab scenarios run end to end through
//! `rws_lab::report` — `rws-machine`, `rws-dag`, `rws-core` and the lab's checks and JSON
//! carry the whole wall and the native runtime almost none. This is the half of the
//! repository `native_bench` never measured. Simulated statistics are exact per seed, so
//! every sweep's document must equal the one computed in set-up byte for byte.
//!
//! "At `T` threads" is `run_with_jobs(scenario, T)` (what `lab --jobs T` does); "at 1" is
//! `report::run`.

use super::{open_loops, Ctx, Workload};
use crate::measure::{closed_loop, interleaved, timed, timed_cost, Closed, Cost, Ops, Reporter};
use crate::openloop::{drive_sync, OpenLoop, Schedule, WallClock};
use crate::spans::Spans;
use crate::stats;
use rws_core::{RwsScheduler, SimConfig};
use rws_dag::SequentialTracer;
use rws_lab::{checks, report, sweep, Scenario};
use rws_machine::{Access, Addr, MachineConfig, MemorySystem, ProcId};

/// Open-loop rates for the small request (a one-run prefix-sums scenario, ≈0.3 ms).
const IDLE_HZ: f64 = 100.0;
const BUSY_HZ: f64 = 1_500.0;

/// A parsed scenario with the document every run of it must reproduce.
struct Case {
    text: String,
    scenario: Scenario,
    reference: String,
}

impl Case {
    fn new(text: String) -> Self {
        let scenario = Scenario::parse(&text).expect("benchmark scenario parses");
        let reference = report::run(&scenario).to_json();
        report::validate_report(&reference).expect("reference document validates");
        Case { text, scenario, reference }
    }

    /// Run the scenario with `jobs` concurrent simulated runs and render it; the
    /// operation fails on any `Fail` verdict or a document that differs from set-up's.
    fn run(&self, jobs: usize, ops: &mut Ops) -> report::LabReport {
        let result = report::run_with_jobs(&self.scenario, jobs);
        ops.check(result.all_passed() && result.to_json() == self.reference);
        result
    }
}

pub struct SimSweep {
    threads: usize,
    sweep: [Case; 2],
    small: Case,
}

impl SimSweep {
    fn iterate(&self, jobs: usize, iteration: u64, ops: &mut Ops, spans: &mut Spans) -> Cost {
        timed_cost(|| {
            for case in &self.sweep {
                spans.span("lab.run", iteration, |_| case.run(jobs, ops));
            }
        })
        .1
    }
}

impl Workload for SimSweep {
    const NAME: &'static str = "sim-sweep";

    fn setup(ctx: &Ctx) -> Self {
        // Scheduler seeds come from the benchmark seed; the lab takes them as they are.
        let (s1, s2) = (ctx.seed, ctx.seed.wrapping_add(12));
        let prefix = format!(
            "name = bench-prefix\nworkload = prefix-sums\nn = 4096\nbackends = sim\n\
             seeds = {s1}, {s2}\nprocs = 8\nsweep = block_words: 4, 8, 16, 32\n\
             checks = steals, block-misses, runtime\n"
        );
        let matmul = format!(
            "name = bench-matmul\nworkload = matmul\nn = 32\nbase = 4\nbackends = sim\n\
             seeds = {s1}\nsweep = procs: 1, 2, 4, 8\n\
             checks = steals, cache-misses, block-misses, runtime\n"
        );
        let small = format!(
            "name = bench-request\nworkload = prefix-sums\nn = 256\nbackends = sim\n\
             seeds = {s1}\nprocs = 2\nchecks = steals, block-misses, runtime\n"
        );
        SimSweep {
            threads: ctx.threads,
            sweep: [Case::new(prefix), Case::new(matmul)],
            small: Case::new(small),
        }
    }

    fn closed(&mut self, wide: bool, budget_s: f64, ops: &mut Ops) -> Closed {
        let jobs = if wide { self.threads } else { 1 };
        closed_loop(budget_s, 2, |i| self.iterate(jobs, i, ops, &mut Spans::new(false)))
    }

    fn open(&mut self, busy: bool, budget_s: f64, ops: &mut Ops, spans: &mut Spans) -> OpenLoop {
        let hz = if busy { BUSY_HZ } else { IDLE_HZ };
        drive_sync(&WallClock::start(), Schedule::for_rate(hz, budget_s), |i| {
            spans.span("lab.run", i, |_| self.small.run(1, ops));
        })
    }

    fn layers(&mut self, ctx: &Ctx, ops: &mut Ops, spans: &mut Spans, out: &mut Reporter) {
        let share = ctx.seconds / 4.0;
        let (untraced, traced) = interleaved(2.0 * share, spans, |i, s| self.iterate(1, i, ops, s));
        let sweep_ms = stats::median(&untraced);
        out.value("harness.span_overhead_rel", stats::median(&traced) / sweep_ms - 1.0);

        // Each layer under `report::run`, called directly, summed over the sweep (medians
        // of `REPS` repetitions).
        const REPS: u64 = 15;
        let med =
            |f: &mut dyn FnMut(u64) -> f64| stats::median(&(0..REPS).map(f).collect::<Vec<f64>>());
        let parse_ms = med(&mut |i| {
            spans.span("lab.parse", i, |_| {
                timed(|| self.sweep.iter().for_each(|c| drop(Scenario::parse(&c.text)))).1
            })
        });
        out.value("lab.parse_us", parse_ms * 1e3);
        let expand_ms = med(&mut |i| {
            spans.span("lab.expand", i, |_| {
                timed(|| self.sweep.iter().for_each(|c| drop(sweep::expand(&c.scenario)))).1
            })
        });
        out.value("lab.expand_us", expand_ms * 1e3);

        let (mut build_ms, mut trace_ms, mut core_ms) = (0.0, 0.0, 0.0);
        let (mut runs, mut work_items) = (0u64, 0u64);
        for case in &self.sweep {
            let workload = case.scenario.instantiate();
            let specs = sweep::expand(&case.scenario);
            // `report::run` builds the dag once for W and T∞ and once more per run.
            let one_build =
                med(&mut |i| spans.span("dag.build", i, |_| timed(|| workload.computation()).1));
            build_ms += one_build * (specs.len() + 1) as f64;
            let comp = workload.computation();
            trace_ms += med(&mut |i| {
                spans.span("dag.seq_trace", i, |_| {
                    timed(|| SequentialTracer::new(&case.scenario.machine).run(&comp.dag)).1
                })
            });
            for spec in &specs {
                let scheduler =
                    RwsScheduler::new(spec.machine.clone(), SimConfig::with_seed(spec.seed));
                work_items += scheduler.run(&comp).work_executed;
                core_ms +=
                    med(&mut |i| spans.span("core.run", i, |_| timed(|| scheduler.run(&comp)).1));
            }
            runs += specs.len() as u64;
        }
        out.value("dag.build_ms", build_ms);
        out.value("dag.seq_trace_ms", trace_ms);
        out.value("core.run_ms", core_ms);
        out.value("core.work_items_per_s", work_items as f64 / (core_ms / 1e3));
        out.value("lab.runs", runs as f64);
        out.value("lab.self_ms", sweep_ms - core_ms - build_ms);

        let results: Vec<report::LabReport> = self.sweep.iter().map(|c| c.run(1, ops)).collect();
        let checks_ms = med(&mut |i| {
            spans.span("lab.checks", i, |_| {
                timed(|| {
                    for (case, result) in self.sweep.iter().zip(&results) {
                        drop(checks::evaluate(&case.scenario, &result.lab));
                    }
                })
                .1
            })
        });
        out.value("lab.checks_us", checks_ms * 1e3);
        let to_json_ms = med(&mut |i| {
            spans.span("lab.to_json", i, |_| {
                timed(|| results.iter().for_each(|r| drop(r.to_json()))).1
            })
        });
        out.value("lab.to_json_ms", to_json_ms);
        let validate_ms = med(&mut |i| {
            spans.span("lab.validate", i, |_| {
                timed(|| {
                    for case in &self.sweep {
                        report::validate_report(&case.reference).expect("reference validates");
                    }
                })
                .1
            })
        });
        out.value("lab.validate_ms", validate_ms);
        let fails: usize = results.iter().map(report::LabReport::failed_checks).sum();
        out.value("lab.verdict_fail", fails as f64);

        // The exact simulated statistics, summed over the sweep: a simulator speed-up
        // must leave every one of these identical for the same seed.
        let sum = |f: fn(&rws_exec::ExecReport) -> u64| -> f64 {
            results.iter().flat_map(|r| &r.lab.records).map(|rec| f(&rec.report)).sum::<u64>()
                as f64
        };
        out.value("sim.steals", sum(|r| r.steals));
        out.value("sim.failed_steals", sum(|r| r.failed_steals));
        out.value("sim.cache_misses", sum(|r| r.cache_misses));
        out.value("sim.block_misses", sum(|r| r.block_misses));
        out.value("sim.false_sharing_misses", sum(|r| r.false_sharing_misses));
        out.value("sim.makespan", sum(|r| r.time_units));

        // `MemorySystem::access_all`: two processors alternately scanning 64 Ki words,
        // reads then writes, so hits, cold misses and coherence traffic all occur.
        const WORDS: u64 = 1 << 16;
        let reads: Vec<Access> = (0..WORDS).map(|w| Access::read(Addr(w))).collect();
        let writes: Vec<Access> = (0..WORDS).map(|w| Access::write(Addr(w))).collect();
        let access_ms = med(&mut |i| {
            spans.span("machine.access_all", i, |_| {
                let mut memory = MemorySystem::new(MachineConfig::small().with_procs(2));
                timed(|| {
                    for proc in [0, 1, 0, 1] {
                        memory.access_all(ProcId(proc), &reads);
                        memory.access_all(ProcId(proc), &writes);
                    }
                })
                .1
            })
        });
        out.value("machine.access_ns", access_ms * 1e6 / (8 * WORDS) as f64);

        open_loops(self, share, ops, spans, out);
    }
}
