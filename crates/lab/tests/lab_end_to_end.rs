//! End-to-end: the committed scenario files under `scenarios/` must parse, run on their
//! declared backends, pass every bound check on the simulator, and emit validated JSON —
//! the same invariant the CI `lab smoke` step gates on through the `lab` binary.

use rws_lab::{report, BackendChoice, Scenario};

fn scenarios_dir() -> std::path::PathBuf {
    // crates/lab/tests -> repo root.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn load(name: &str) -> Scenario {
    let path = scenarios_dir().join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    Scenario::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn committed_scenarios_all_parse() {
    // Same dispatch as the `lab` binary: `mode = chaos` files parse with the chaos
    // dialect, everything else with the classic sweep parser.
    let dir = scenarios_dir();
    let mut count = 0;
    let mut chaos_count = 0;
    for entry in std::fs::read_dir(&dir).expect("scenarios/ must exist") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "scn") {
            let text = std::fs::read_to_string(&path).unwrap();
            if rws_lab::chaos::is_chaos_scenario(&text) {
                rws_lab::ChaosScenario::parse(&text)
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                chaos_count += 1;
            } else {
                Scenario::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            }
            count += 1;
        }
    }
    assert!(count >= 4, "expected the committed scenario set, found {count}");
    assert!(chaos_count >= 2, "expected the committed chaos scenarios, found {chaos_count}");
}

#[test]
fn quick_scenario_runs_both_backends_and_passes() {
    // The CI smoke scenario: both backends, at least three passing verdicts.
    let sc = load("quick.scn");
    assert!(sc.backends.contains(&BackendChoice::Sim));
    assert!(sc.backends.contains(&BackendChoice::Native));
    let result = report::run(&sc);
    let sim_runs =
        result.lab.records.iter().filter(|r| r.spec.backend == BackendChoice::Sim).count();
    let native_runs = result.lab.records.len() - sim_runs;
    assert!(sim_runs > 0 && native_runs > 0, "the same workload must run on both backends");
    assert!(result.checks.len() >= 3, "need at least three bound-check verdicts");
    for kind in ["steals", "block-misses", "runtime"] {
        assert!(result.checks.iter().any(|c| c.check.name == kind), "missing a `{kind}` verdict");
    }
    assert!(result.all_passed(), "{:#?}", result.summary_lines());
    let doc = result.to_json();
    report::validate_report(&doc).expect("quick scenario JSON must validate");
}

#[test]
fn quick_scenario_with_jobs_4_is_byte_identical_to_the_sequential_run() {
    // The `lab --jobs` determinism acceptance: fanning the sweep out across a 4-worker
    // driver pool must emit the exact bytes of the sequential run (expansion-order slots;
    // volatile wall/steal measurements live in the opt-in `timing` sidecar), with every
    // verdict passing on both backends.
    let sc = load("quick.scn");
    let sequential = report::run_with_jobs(&sc, 1);
    let fanned = report::run_with_jobs(&sc, 4);
    assert!(sequential.all_passed(), "{:#?}", sequential.summary_lines());
    assert!(fanned.all_passed(), "{:#?}", fanned.summary_lines());
    let (a, b) = (sequential.to_json(), fanned.to_json());
    report::validate_report(&a).unwrap();
    assert_eq!(a, b, "--jobs 4 must produce a byte-identical rws-lab-report/v1 document");
    // Rerunning at the same jobs level is also byte-stable (cross-invocation determinism).
    assert_eq!(b, report::run_with_jobs(&sc, 4).to_json());
}

#[test]
fn ported_experiment_scenarios_pass_their_checks() {
    // E1/E2 (MM cache misses vs steals) and E8/E9 (BP steal bounds under a block-size
    // sweep) as scenario files: the declarative subsystem subsumes the hand-written
    // experiment functions, now with machine-checked verdicts instead of printed tables.
    for name in ["e1_mm_cache_misses.scn", "e8_steal_bounds.scn"] {
        let sc = load(name);
        let result = report::run(&sc);
        assert!(!result.checks.is_empty(), "{name} must evaluate checks");
        assert!(result.all_passed(), "{name} failed:\n{}", result.summary_lines().join("\n"));
        report::validate_report(&result.to_json()).unwrap();
    }
}

#[test]
fn dag_workload_scenarios_run_with_honest_labels() {
    // The DAG-structured workload family: the three measured-only scenarios carry the
    // explicit "no paper bound applies" label and zero vacuous verdicts; spmv — irregular
    // data but regular BP structure — keeps the full paper checks and passes them.
    for name in ["dag_workflow.scn", "bfs.scn", "samplesort.scn"] {
        let sc = load(name);
        assert!(sc.workload.measured_only(), "{name}");
        assert!(sc.checks.is_empty(), "{name} must not claim paper bounds");
        let result = report::run(&sc);
        assert!(result.checks.is_empty(), "{name}: no verdicts on a measured-only workload");
        assert!(result.all_passed());
        let lines = result.summary_lines();
        assert!(lines[0].contains("[measured only"), "{name}: {}", lines[0]);
        let doc = result.to_json();
        report::validate_report(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(doc.contains("\"measured_only\": true"), "{name}");
    }
    let sc = load("spmv.scn");
    assert!(!sc.workload.measured_only());
    let result = report::run(&sc);
    assert!(!result.checks.is_empty(), "spmv keeps the paper checks");
    for kind in ["steals", "block-misses", "runtime"] {
        assert!(result.checks.iter().any(|c| c.check.name == kind), "missing `{kind}`");
    }
    assert!(result.all_passed(), "spmv failed:\n{}", result.summary_lines().join("\n"));
    report::validate_report(&result.to_json()).unwrap();
}

#[test]
fn native_sweep_scenario_mirrors_the_bench_thread_sweep() {
    // A thread sweep as a scenario: native-only, no sim checks, but every run recorded
    // in the shared JSON schema.
    let sc = load("native_threads.scn");
    assert_eq!(sc.backends, vec![BackendChoice::Native]);
    let result = report::run(&sc);
    assert!(result.checks.is_empty(), "no simulated runs, so no bound verdicts");
    assert!(result.lab.records.len() >= 2);
    let doc = result.to_json();
    report::validate_report(&doc).unwrap();
    assert!(doc.contains("\"backend\": \"native\""));
}
