//! What the six workloads share: the operation count, the closed-loop runner, the split
//! of a run's seconds into phases, and the reporter that prints every number by name.

use crate::host::cpu_ms;
use crate::names::{MetricDef, Sheet};
use crate::spans::Spans;
use crate::stats;
use std::time::Instant;

/// Operations attempted and failed. An operation is one checked output: a kernel result
/// compared with its reference, a job's outcome, a report's verdicts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ops {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that were wrong, missing, shed, or carried a failing verdict.
    pub failed: u64,
}

impl Ops {
    /// Count one checked output.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// What a timed region cost: the wall time that passed and the processor time the
/// process (with the children it reaped) consumed meanwhile ([`crate::host::cpu_ms`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Cost {
    /// Wall time, ms.
    pub wall_ms: f64,
    /// Processor time, ms.
    pub cpu_ms: f64,
}

impl std::ops::Add for Cost {
    type Output = Cost;
    fn add(self, other: Cost) -> Cost {
        Cost { wall_ms: self.wall_ms + other.wall_ms, cpu_ms: self.cpu_ms + other.cpu_ms }
    }
}

impl std::iter::Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(costs: I) -> Cost {
        costs.fold(Cost::default(), std::ops::Add::add)
    }
}

/// What a closed loop measured.
#[derive(Clone, Debug, Default)]
pub struct Closed {
    /// Timed wall of each iteration, ms.
    pub wall_ms: Vec<f64>,
    /// Processor time of each iteration, ms.
    pub cpu_ms: Vec<f64>,
    /// Iterations per second of timed wall.
    pub rate_per_s: f64,
}

/// Run `iter` back to back until `budget_s` seconds of *timed* wall have passed (and at
/// least `min_iters` iterations). `iter(i)` returns what the iteration's timed region cost
/// and checks its output after stopping the clocks, so verification costs no measured
/// time. The loop's throughput is one rate: iterations per second of timed wall.
pub fn closed_loop(budget_s: f64, min_iters: u64, mut iter: impl FnMut(u64) -> Cost) -> Closed {
    let (mut wall_ms, mut cpu_ms) = (Vec::new(), Vec::new());
    let mut timed_ms = 0.0;
    while timed_ms < budget_s * 1e3 || (wall_ms.len() as u64) < min_iters {
        let cost = iter(wall_ms.len() as u64);
        wall_ms.push(cost.wall_ms);
        cpu_ms.push(cost.cpu_ms);
        timed_ms += cost.wall_ms;
    }
    let rate = wall_ms.len() as f64 / (timed_ms / 1e3);
    Closed { wall_ms, cpu_ms, rate_per_s: rate }
}

/// A closed loop whose even iterations run with spans off and whose odd ones record into
/// `spans`, so host drift during the phase falls on both alike. Returns the untraced and
/// the traced walls; their ratio is `harness.span_overhead_rel`.
pub fn interleaved(
    budget_s: f64,
    spans: &mut Spans,
    mut iter: impl FnMut(u64, &mut Spans) -> Cost,
) -> (Vec<f64>, Vec<f64>) {
    let mut off = Spans::new(false);
    let all =
        closed_loop(budget_s, 16, |i| iter(i, if i % 2 == 0 { &mut off } else { &mut *spans }));
    let pick = |parity: usize| all.wall_ms.iter().skip(parity).step_by(2).copied().collect();
    (pick(0), pick(1))
}

/// Time `f`, returning its result and the elapsed ms.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Time `f` on both clocks. The processor clock is read outside the wall clock, so the
/// two system calls it takes (≈1 µs) never sit inside a wall measurement.
pub fn timed_cost<R>(f: impl FnOnce() -> R) -> (R, Cost) {
    let cpu_start = cpu_ms();
    let (out, wall_ms) = timed(f);
    (out, Cost { wall_ms, cpu_ms: cpu_ms() - cpu_start })
}

/// Prints every number a run produces, by name and with its unit, and keeps the named
/// metrics for the result line.
#[derive(Debug)]
pub struct Reporter {
    workload: &'static str,
    sheet: Sheet,
    /// Generator lag of every open-loop request of the run, µs.
    pub gen_lag_us: Vec<f64>,
}

impl Reporter {
    /// A reporter for `workload` over the metric table `defs`.
    pub fn new(workload: &'static str, defs: &'static [MetricDef]) -> Self {
        Reporter { workload, sheet: Sheet::new(defs), gen_lag_us: Vec::new() }
    }

    /// Record `value` under `name` and print its line; `detail` says how it was read.
    fn emit(&mut self, name: &str, value: f64, detail: &str) {
        self.sheet.set(name, value);
        let unit = self.sheet.rows().find(|(d, _)| d.name == name).map_or("", |(d, _)| d.unit);
        println!("{:<15} {:<34} {:>16.4} {unit}{detail}", self.workload, name, value);
    }

    /// Report a single value under `name`.
    pub fn value(&mut self, name: &str, value: f64) {
        self.emit(name, value, "");
    }

    /// Report the median of `samples` under `name`, with the sample count and the highest
    /// percentile that has at least ten samples beyond it.
    pub fn timing(&mut self, name: &str, samples: &[f64]) -> f64 {
        let s = stats::summarize(samples);
        self.emit(name, s.p50, &format!("  (n={}, {})", s.n, tail_text(&s)));
        s.p50
    }

    /// Report a figure from the samples of each round: every round gives its median, and
    /// the run reports the quartile of those medians on the quiet side — the lower one for
    /// a time, the upper one for a rate. Interference (a neighbour crowding the memory
    /// system, and for a wall clock the processor) only ever adds time and comes in
    /// spells of seconds, so the quiet rounds are the ones that repeat from run to run
    /// (benchmark/README.md has the measurements). The line also shows the plain median
    /// over all samples, the count and the permitted tail, and a second line lists the
    /// round medians.
    pub fn rounds(&mut self, name: &str, rounds: &[Vec<f64>], lower_is_better: bool) -> f64 {
        let medians: Vec<f64> =
            rounds.iter().filter(|r| !r.is_empty()).map(|r| stats::median(r)).collect();
        let (q1, q3) = stats::quartiles(&medians);
        let value = if lower_is_better { q1 } else { q3 };
        let all: Vec<f64> = rounds.iter().flatten().copied().collect();
        let s = stats::summarize(&all);
        let detail = format!(
            "  (quiet quartile of {} round medians; all samples: p50={:.4}, {}, n={})",
            medians.len(),
            s.p50,
            tail_text(&s),
            s.n
        );
        self.emit(name, value, &detail);
        let listed: Vec<String> = medians.iter().map(|m| format!("{m:.4}")).collect();
        self.note(&format!("{name} round medians: {}", listed.join(" ")));
        value
    }

    /// Report the `q` percentile of `samples` under `name`, falling back to the highest
    /// percentile the ten-samples-beyond rule allows.
    pub fn tail(&mut self, name: &str, samples: &[f64], q: f64) {
        let mut v = samples.to_vec();
        stats::sort(&mut v);
        let (used, label) = stats::capped_tail(v.len(), q);
        self.emit(
            name,
            stats::percentile(&v, used),
            &format!("  (n={}, reported at {label})", v.len()),
        );
    }

    /// Print a line that is not a metric.
    pub fn note(&self, text: &str) {
        println!("{:<15} # {text}", self.workload);
    }

    /// The collected metrics.
    pub fn sheet(&self) -> &Sheet {
        &self.sheet
    }
}

/// The permitted tail of a summary, as printed.
fn tail_text(s: &stats::Summary) -> String {
    match s.tail {
        Some((label, v)) if label != "p50" => format!("{label}={v:.4}"),
        _ => "no tail: fewer than ten samples beyond p90".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_add_clock_by_clock() {
        let parts = [Cost { wall_ms: 1.0, cpu_ms: 0.5 }, Cost { wall_ms: 2.0, cpu_ms: 4.0 }];
        assert_eq!(parts.into_iter().sum::<Cost>(), Cost { wall_ms: 3.0, cpu_ms: 4.5 });
        let ((), cost) = timed_cost(|| std::thread::sleep(std::time::Duration::from_millis(20)));
        assert!(cost.wall_ms >= 20.0 && cost.cpu_ms >= 0.0, "asleep: {cost:?}");
    }

    #[test]
    fn ops_count_failures_against_attempts() {
        let mut ops = Ops::default();
        ops.check(true);
        ops.check(false);
        ops.check(true);
        assert_eq!(ops, Ops { attempted: 3, failed: 1 });
    }

    #[test]
    fn closed_loop_spends_its_budget_in_timed_wall_and_reports_one_rate() {
        // Every iteration "takes" 10 ms: a 1 s budget is 100 iterations at 100 per second.
        let mut calls = 0;
        let c = closed_loop(1.0, 1, |i| {
            assert_eq!(i, calls);
            calls += 1;
            Cost { wall_ms: 10.0, cpu_ms: 4.0 }
        });
        assert_eq!(c.wall_ms.len(), 100);
        assert_eq!(c.rate_per_s, 100.0);
        assert_eq!(c.cpu_ms, vec![4.0; 100], "the budget is wall time, whatever the CPU time");
        // A budget shorter than one iteration still runs `min_iters`.
        let c = closed_loop(0.001, 3, |_| Cost { wall_ms: 20.0, cpu_ms: 20.0 });
        assert_eq!(c.wall_ms.len(), 3);
        assert_eq!(c.rate_per_s, 50.0);
    }

    #[test]
    fn a_run_reports_the_quiet_quartile_of_its_round_medians() {
        let mut out = Reporter::new("w", &crate::names::PER_LAYER);
        // Ten rounds with medians 1..=10 (each round: m − 1, m, m + 1).
        let rounds: Vec<Vec<f64>> =
            (1..=10).map(|m| vec![f64::from(m) - 1.0, f64::from(m), f64::from(m) + 1.0]).collect();
        assert_eq!(out.rounds("wall_ms_p50", &rounds, true), 2.75);
        assert_eq!(out.rounds("jobs_per_s", &rounds, false), 8.25);
        // A stall that swallows three whole rounds does not move the quiet quartile.
        let mut stalled = rounds.clone();
        for r in &mut stalled[7..] {
            r.iter_mut().for_each(|ms| *ms *= 5.0);
        }
        assert_eq!(out.rounds("wall_ms_p50", &stalled, true), 2.75);
    }

    #[test]
    fn interleaving_alternates_untraced_and_traced_iterations() {
        let mut spans = Spans::new(true);
        let (untraced, traced) = interleaved(0.0, &mut spans, |i, s| {
            let before = s.records().len();
            s.span("iteration", i, |_| ());
            let wall_ms = if s.records().len() > before { 2.0 } else { 1.0 };
            Cost { wall_ms, cpu_ms: 0.0 }
        });
        assert_eq!((untraced.len(), traced.len()), (8, 8));
        assert!(untraced.iter().all(|&ms| ms == 1.0) && traced.iter().all(|&ms| ms == 2.0));
        let odd: Vec<u64> = spans.records().iter().map(|r| r.iteration).collect();
        assert_eq!(odd, [1, 3, 5, 7, 9, 11, 13, 15]);
    }
}
