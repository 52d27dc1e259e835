//! # rws-bench
//!
//! The experiment harness regenerating every quantitative claim of the paper (the index is
//! [`experiments::run`]; each experiment's rustdoc names the lemma or theorem it measures;
//! results are printed, not committed). The `experiments` binary runs one experiment
//! (`e1` … `e20`), a named group, or `all`.
//!
//! Every experiment follows the same pattern: build a computation with `rws-algos`, run it
//! under the `rws-core` scheduler across a parameter sweep, and print measured quantities
//! side by side with the bound predicted by `rws-analysis`. Because the paper is a theory
//! paper with no measured tables, the comparison is about *shape* — scaling exponents, who
//! wins, where crossovers fall — not absolute constants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;

pub use table::Table;

use rws_core::SimConfig;
use rws_dag::{Computation, SequentialTracer};
use rws_exec::{ExecReport, SimExecutor};
use rws_machine::MachineConfig;

/// The simulated executor the experiments sweep with: the given machine, seeded.
pub fn sim_executor(machine: &MachineConfig, seed: u64) -> SimExecutor {
    SimExecutor::new(machine.clone(), SimConfig::with_seed(seed))
}

/// Run `comp` on a `procs`-processor machine with the given seed and return the report.
///
/// Routed through the [`SimExecutor`] backend of `rws-exec`; the full simulator report is
/// unwrapped from the normalized [`ExecReport`] for the experiments that need the paper's
/// detailed counts.
pub fn run_on(comp: &Computation, machine: &MachineConfig, seed: u64) -> rws_core::RunReport {
    run_exec(comp, machine, seed).sim.expect("the simulated backend preserves its RunReport")
}

/// Run `comp` under the simulated backend and return the normalized cross-backend report.
pub fn run_exec(comp: &Computation, machine: &MachineConfig, seed: u64) -> ExecReport {
    sim_executor(machine, seed).run_computation(comp)
}

/// Run `comp` sequentially (one processor) and return its sequential costs (`W`, `Q`).
pub fn sequential_costs(comp: &Computation, machine: &MachineConfig) -> rws_dag::SequentialCosts {
    SequentialTracer::new(machine).run(&comp.dag)
}

/// Average a measurement over `seeds` scheduler runs.
pub fn average_over_seeds<F: Fn(&rws_core::RunReport) -> f64>(
    comp: &Computation,
    machine: &MachineConfig,
    seeds: &[u64],
    f: F,
) -> f64 {
    let total: f64 = seeds.iter().map(|&s| f(&run_on(comp, machine, s))).sum();
    total / seeds.len() as f64
}

/// The default machine used by the experiments (`M = 4096`, `B = 8`, `b = 4`, `s = 8`).
pub fn default_machine(procs: usize) -> MachineConfig {
    MachineConfig::small().with_procs(procs)
}

/// Convert a machine config into the parameter struct the analysis crate uses.
pub fn params_of(machine: &MachineConfig) -> rws_analysis::Params {
    rws_analysis::Params::new(
        machine.procs,
        machine.cache_words,
        machine.block_words,
        machine.miss_cost,
        machine.steal_cost,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rws_algos::prefix::{prefix_sums_computation, PrefixConfig};

    #[test]
    fn helpers_run_a_small_computation() {
        let comp = prefix_sums_computation(&PrefixConfig::new(256));
        let machine = default_machine(4);
        let report = run_on(&comp, &machine, 1);
        assert_eq!(report.work_executed, comp.dag.work());
        let norm = run_exec(&comp, &machine, 1);
        assert_eq!(norm.steals, report.successful_steals);
        assert_eq!(norm.time_units, report.makespan);
        assert_eq!(norm.procs, 4);
        let seq = sequential_costs(&comp, &machine);
        assert!(seq.cache_misses > 0);
        let avg = average_over_seeds(&comp, &machine, &[1, 2, 3], |r| r.successful_steals as f64);
        assert!(avg >= 0.0);
        let p = params_of(&machine);
        assert_eq!(p.p, 4.0);
    }
}
