//! Paper-bound checks: turn `rws-analysis` formulas into structured [`BoundCheck`]
//! verdicts for every simulated run of a scenario.
//!
//! Checks are evaluated on **simulated** runs only: the bounds are statements about the
//! paper's machine model, and the simulator is the only backend that measures its
//! quantities (steals in the scheduler's sense, cache/block misses, makespan in ticks).
//! Native runs still appear in the report — they are the wall-clock companion — but no
//! verdict is attached to them.

use crate::scenario::{BackendChoice, CheckKind, Scenario, WorkloadKind};
use crate::sweep::LabRun;
use rws_analysis::{self as analysis, BoundCheck, Params};
use rws_exec::ExecReport;
use rws_machine::MachineConfig;

/// One evaluated check, tied to the run (by index into [`LabRun::records`]) it judged.
#[derive(Clone, Debug)]
pub struct CheckRecord {
    /// Index of the judged run in [`LabRun::records`].
    pub run: usize,
    /// The structured verdict.
    pub check: BoundCheck,
}

fn params_of(machine: &MachineConfig) -> Params {
    Params::new(
        machine.procs,
        machine.cache_words,
        machine.block_words,
        machine.miss_cost,
        machine.steal_cost,
    )
}

/// The burst parameter `a` in the steal bounds: `1` gives the expectation-flavored form
/// (`tests/simulator_end_to_end.rs` evaluates the bounds the same way).
const A: f64 = 1.0;

/// The per-algorithm steal bound (Lemma 7.1 / Theorem 7.1 / Theorem 6.3 forms) evaluated
/// at instance size `n`.
fn steal_prediction(kind: WorkloadKind, n: f64, params: &Params) -> f64 {
    match kind {
        WorkloadKind::PrefixSums => analysis::bp_steals(n, A, params),
        WorkloadKind::MatMul => analysis::mm_depth_log2_steals(n, A, params),
        WorkloadKind::MergeSort => analysis::mergesort_steals(n, A, params),
        WorkloadKind::Fft => analysis::sort_fft_steals(n, A, params),
        WorkloadKind::Transpose => analysis::transpose_steals(n, A, params),
        WorkloadKind::ListRank => analysis::list_ranking_steals(n, A, params),
        // SpMV is a single balanced BP pass over row chunks, so the BP steal bound applies
        // with `n` the row count.
        WorkloadKind::Spmv => analysis::bp_steals(n, A, params),
        // Measured-only workloads never reach here: scenario validation rejects any bound
        // check on them, so `sc.checks` is empty for these kinds.
        WorkloadKind::DagWorkflow | WorkloadKind::Bfs | WorkloadKind::SampleSort => {
            unreachable!("measured-only workloads take no steal check")
        }
    }
}

fn evaluate_one(
    sc: &Scenario,
    kind: CheckKind,
    slack: f64,
    report: &ExecReport,
    params: &Params,
) -> BoundCheck {
    let steals = report.steals as f64;
    match kind {
        CheckKind::Steals => {
            let bound = steal_prediction(sc.workload, sc.n as f64, params);
            BoundCheck::new("steals", steals, bound, slack)
        }
        CheckKind::BlockMisses => {
            // Lemma 4.5's envelope: total block delay of a computation that suffered `S`
            // steals is `O(S·B)`. Coherence block misses are bounded by the transfers that
            // delay counts; the additive `p·B` term covers the initial distribution of the
            // root blocks across processors (one warm block per processor), which the
            // asymptotic form absorbs but an exact `S = 0` run would otherwise fail.
            //
            // Iterated-round workloads (Section 7) get one more explicit term — see
            // `iterated_round_handoff`: list ranking's rounds each hand a fresh 2n-word
            // successor/rank state to wherever the next round's leaves run, traffic the
            // per-computation envelope does not model. Added explicitly (like the matmul
            // cold term below) rather than hidden in a larger slack.
            let handoff = match sc.workload {
                WorkloadKind::ListRank => {
                    let n = sc.n as f64;
                    analysis::iterated_round_handoff(n.log2().ceil(), 2.0 * n, params)
                }
                _ => 0.0,
            };
            let bound =
                analysis::block_delay_bound(steals, params) + params.p * params.b_words + handoff;
            BoundCheck::new("block-misses", report.block_misses as f64, bound, slack)
        }
        CheckKind::Runtime => {
            // Theorem 6.4 with every quantity measured on this very run: the makespan must
            // be explained by work, cache-refill work, coherence work and steal work spread
            // over p processors.
            let bound = analysis::runtime_bound(
                report.work_items as f64,
                report.cache_misses as f64,
                report.block_misses as f64,
                steals,
                params,
            );
            BoundCheck::new("runtime", report.time_units as f64, bound, slack)
        }
        CheckKind::CacheMisses => {
            // Lemma 3.1 for the matrix-multiply workload (scenario validation guarantees
            // the workload is matmul), plus the compulsory cold misses of the three n×n
            // matrices (`3n²/B`). The lemma's O absorbs that term because it is dominated
            // once `n ≥ √M`; lab instances are deliberately small, so it is added
            // explicitly rather than hidden in a larger slack.
            let n = sc.n as f64;
            let bound = analysis::mm_cache_misses(n, steals, params) + 3.0 * n * n / params.b_words;
            BoundCheck::new("cache-misses", report.cache_misses as f64, bound, slack)
        }
    }
}

/// Evaluate every configured check against every simulated run of `lab`.
pub fn evaluate(sc: &Scenario, lab: &LabRun) -> Vec<CheckRecord> {
    let mut out = Vec::new();
    for (idx, record) in lab.records.iter().enumerate() {
        if record.spec.backend != BackendChoice::Sim {
            continue;
        }
        let params = params_of(&record.spec.machine);
        for &(kind, slack) in &sc.checks {
            out.push(CheckRecord {
                run: idx,
                check: evaluate_one(sc, kind, slack, &record.report, &params),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::sweep::run_scenario;

    #[test]
    fn simulated_runs_get_one_verdict_per_configured_check() {
        let sc = Scenario::parse(
            "name = c\nworkload = prefix-sums\nn = 512\nbackends = sim, native\n\
             seeds = 11, 23\nsweep = procs: 1, 2",
        )
        .unwrap();
        let (lab, _) = run_scenario(&sc, 1, None);
        let checks = evaluate(&sc, &lab);
        // 2 procs values × 2 seeds sim runs, × 3 default checks; native runs get none.
        assert_eq!(checks.len(), 4 * 3);
        for c in &checks {
            assert_eq!(lab.records[c.run].spec.backend, BackendChoice::Sim);
            assert!(c.check.slack > 0.0);
        }
    }

    #[test]
    fn the_three_paper_checks_pass_on_the_simulator() {
        // The acceptance invariant the CI smoke scenarios rely on: steals, block misses
        // and runtime all within their envelopes on a healthy scheduler, for every
        // workload a scenario can name (matmul has its own test adding cache-misses).
        for (workload, n) in [
            ("prefix-sums", 512),
            ("merge-sort", 512),
            ("fft", 256),
            ("transpose", 32),
            ("list-ranking", 512),
            ("spmv", 512),
        ] {
            let sc = Scenario::parse(&format!(
                "name = c\nworkload = {workload}\nn = {n}\nbackends = sim\n\
                 seeds = 11, 23, 47\nsweep = procs: 1, 2, 4, 8"
            ))
            .unwrap();
            let (lab, _) = run_scenario(&sc, 1, None);
            for c in evaluate(&sc, &lab) {
                assert!(c.check.passed(), "{workload} run {}: {}", c.run, c.check.summary());
            }
        }
    }

    #[test]
    fn matmul_cache_miss_check_applies_lemma_3_1() {
        let sc = Scenario::parse(
            "name = mm\nworkload = matmul\nn = 16\nbackends = sim\nseeds = 11\n\
             sweep = procs: 1, 4\nchecks = steals, cache-misses, block-misses, runtime",
        )
        .unwrap();
        let (lab, _) = run_scenario(&sc, 1, None);
        let checks = evaluate(&sc, &lab);
        assert_eq!(checks.len(), 2 * 4);
        assert!(checks.iter().any(|c| c.check.name == "cache-misses"));
        for c in &checks {
            assert!(c.check.passed(), "run {}: {}", c.run, c.check.summary());
        }
    }

    #[test]
    fn a_broken_measurement_fails_its_verdict() {
        // Sanity that the gate really gates: inflate a measurement far past the envelope.
        let sc = Scenario::parse(
            "name = c\nworkload = prefix-sums\nn = 512\nbackends = sim\nseeds = 11",
        )
        .unwrap();
        let (lab, _) = run_scenario(&sc, 1, None);
        let mut report = lab.records[0].report.clone();
        report.time_units = u64::MAX / 2;
        let params = params_of(&lab.records[0].spec.machine);
        let check = evaluate_one(&sc, CheckKind::Runtime, 4.0, &report, &params);
        assert!(!check.passed());
    }
}
