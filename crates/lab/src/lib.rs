//! # rws-lab
//!
//! The scenario subsystem: every experiment as a **declarative spec** instead of bespoke
//! code. A [`Scenario`] (parsed from a plain `key = value` file, see [`scenario`])
//! describes a workload, a machine or pool shape, a seed list and a sweep axis; the sweep
//! engine ([`sweep`]) expands it into runs and executes them through the
//! [`rws_exec::Executor`] trait on the simulated and/or native backend; the [`checks`]
//! module turns the `rws-analysis` bound formulas into structured pass/fail
//! [`rws_analysis::BoundCheck`] verdicts — the paper's theory as an executable regression
//! suite; and [`report`] emits everything as one validated `rws-lab-report/v1` JSON
//! document.
//!
//! The [`json`] module is the workspace's single hand-rolled JSON writer/validator (the
//! repository benchmark under `benchmark/` renders through it too), and
//! [`trace_export`] renders the runtime's flight-recorder snapshots as `rws-trace/v2`
//! documents and Chrome `trace_event` files (`lab --trace DIR` captures one per native
//! run and per chaos run).
//!
//! The `lab` binary runs a scenario file end to end and exits nonzero on any `Fail`
//! verdict, which is what the CI smoke step gates on:
//!
//! ```text
//! cargo run --release -p rws-lab --bin lab -- scenarios/quick.scn --out LAB_quick.json
//! ```
//!
//! A scenario whose first `mode` key, wherever in the file it stands, reads `mode = chaos`
//! dispatches to the [`chaos`] harness instead: streamed fault-injected traffic against the
//! supervised `rws_runtime::JobServer`, with recovery-invariant verdicts emitted as a
//! `rws-chaos-report/v2` document (the CI `chaos-smoke` job gates on its exit code, and
//! `--sabotage` is the self-test proving the harness trips on doctored evidence).
//!
//! `--jobs N` fans independent simulated runs out across an `N`-worker `rws-runtime` pool
//! (native runs stay serialized for timing only — counter attribution is race-free via
//! `PoolStats::snapshot_delta`, but concurrent native runs would contend for cores and
//! distort each other's wall clocks); the
//! emitted document is byte-identical whatever `N` is, because the volatile measurements
//! (wall clocks, native steal counters) live in an opt-in `--timing` sidecar.
//!
//! ```
//! use rws_lab::{report, Scenario};
//!
//! let sc = Scenario::parse(
//!     "name = demo\nworkload = prefix-sums\nn = 512\nbackends = sim\nseeds = 11\n\
//!      sweep = procs: 1, 2",
//! )
//! .unwrap();
//! let result = report::run(&sc);
//! assert!(result.all_passed());
//! report::validate_report(&result.to_json()).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod checks;
pub mod json;
pub mod report;
pub mod scenario;
pub mod sweep;
pub mod trace_export;

pub use chaos::{ChaosReport, ChaosScenario};
pub use checks::CheckRecord;
pub use report::{LabReport, SCHEMA};
pub use scenario::{BackendChoice, CheckKind, Scenario, ScenarioError, SweepAxis, WorkloadKind};
pub use sweep::{LabRun, NativeTraceCapture, RunRecord, RunSpec};
pub use trace_export::{chrome_trace, trace_document, trace_summary, validate_trace_document};
