//! The names the benchmark is known by: workloads, end-to-end metrics and per-layer
//! metrics, each with its unit. `BENCHMARK.json` lists exactly these (a unit test compares
//! the two), and every later change refers to a number by the name given here.

/// A metric's name, unit and which direction is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// The printed name.
    pub name: &'static str,
    /// The printed unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: "lower" }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: "higher" }
}

/// The six workloads, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 6] = [
    "forkjoin-fine",
    "kernels-coarse",
    "dag-irregular",
    "service-stream",
    "sim-sweep",
    "sharded-cold",
];

/// Workloads the harness runs and prints but `BENCHMARK.json` does not offer to the
/// driver, because no end-to-end figure of theirs repeats within a bound: spawning and
/// reaping three hundred processes a run, `sharded-cold`'s processor time read 15.0 ms in
/// one set of ten runs and 20.0 ms in the next, a quarter of an hour later
/// (benchmark/README.md). Its rows of the per-layer sheet are filled by it alone.
pub const UNGATED: [&str; 1] = ["sharded-cold"];

/// End-to-end metrics: measured with tracing off, reported by every workload. The two
/// timings are processor time, not wall time (benchmark/README.md says why).
pub const END_TO_END: [MetricDef; 3] =
    [lower("setup_s", "s"), lower("cpu_t1_ms_p50", "ms"), lower("peak_rss_mb", "MB")];

/// Per-layer metrics: measured in the traced run only. A workload that does not exercise
/// a layer reports 0 for its rows (benchmark/README.md says which workload fills which).
pub const PER_LAYER: [MetricDef; 95] = [
    // Named end to end by the issue, demoted: wall clocks. The driver's two sets of ten
    // runs of the same code spread them by 0.5 to 2.3 times their median on every
    // workload (the bound may be 0.25 at most): on a shared host a wall clock times the
    // neighbours.
    lower("wall_ms_p50", "ms"),
    lower("wall_t1_ms_p50", "ms"),
    higher("jobs_per_s", "1/s"),
    // Named end to end by the issue, demoted: on this host the wake path they time spreads
    // 14–34 % from run to run, more than the largest bound a metric may carry.
    lower("lat_idle_us_p50", "us"),
    lower("lat_busy_us_p50", "us"),
    // vendor/crossbeam-deque
    lower("deque.push_pop_ns", "ns"),
    lower("deque.steal_ns", "ns"),
    lower("deque.steal_batch_ns_per_task", "ns"),
    lower("deque.contended_retry_frac", "ratio"),
    lower("injector.push_steal_ns", "ns"),
    // rws-runtime: pool / join / scope / par_iter
    lower("join.unstolen_ns", "ns"),
    lower("join.forks", "count"),
    lower("join.stolen_frac", "ratio"),
    lower("pool.steals", "count"),
    lower("pool.failed_steals", "count"),
    lower("pool.batch_steals", "count"),
    lower("pool.steal_retries", "count"),
    lower("pool.install_hot_us_p50", "us"),
    lower("pool.build_ms", "ms"),
    lower("pool.instance_spread", "ratio"),
    lower("pool.instance_spread_t1", "ratio"),
    lower("scope.spawn_ns", "ns"),
    lower("par_iter.chunk_ns", "ns"),
    // rws-runtime: sleep
    lower("sleep.parks", "count"),
    lower("sleep.backstop_wakes", "count"),
    lower("sleep.park_to_run_us_p50", "us"),
    // rws-runtime: service
    lower("service.submit_ns_p50", "ns"),
    lower("service.queue_us_p50", "us"),
    lower("service.queue_us_p99", "us"),
    lower("service.run_us_p50", "us"),
    lower("service.overhead_us_per_job", "us"),
    lower("service.lat_idle_us_p99", "us"),
    lower("service.lat_busy_us_p99", "us"),
    higher("service.completed", "count"),
    lower("service.shed", "count"),
    // rws-algos
    lower("algos.merge_sort_ms_p50", "ms"),
    lower("algos.fft_ms_p50", "ms"),
    lower("algos.transpose_ms_p50", "ms"),
    lower("algos.matmul_ms_p50", "ms"),
    lower("algos.prefix_ms_p50", "ms"),
    lower("algos.listrank_ms_p50", "ms"),
    lower("algos.merge_sort_seq_ms_p50", "ms"),
    lower("algos.fft_seq_ms_p50", "ms"),
    lower("algos.transpose_seq_ms_p50", "ms"),
    lower("algos.matmul_seq_ms_p50", "ms"),
    lower("algos.prefix_seq_ms_p50", "ms"),
    lower("algos.listrank_seq_ms_p50", "ms"),
    lower("algos.workflow_ms_p50", "ms"),
    lower("algos.bfs_ms_p50", "ms"),
    lower("algos.spmv_ms_p50", "ms"),
    lower("algos.samplesort_ms_p50", "ms"),
    // rws-exec
    lower("exec.native_overhead_us", "us"),
    lower("exec.by_name_build_ms", "ms"),
    lower("exec.reference_ms", "ms"),
    // rws-shard
    lower("frame.ns_per_byte", "ns/byte"),
    lower("frame.small_roundtrip_ns", "ns"),
    lower("proto.encode_ns_per_byte", "ns/byte"),
    lower("proto.decode_ns_per_byte", "ns/byte"),
    lower("shard.spawn_handshake_ms", "ms"),
    lower("shard.pipe_roundtrip_us", "us"),
    lower("shard.teardown_ms", "ms"),
    lower("shard.execute_matmul_ms_p50", "ms"),
    lower("shard.execute_spmv_ms_p50", "ms"),
    lower("shard.inproc_matmul_ms_p50", "ms"),
    lower("shard.inproc_spmv_ms_p50", "ms"),
    lower("shard.overhead_rel", "ratio"),
    lower("shard.result_bytes", "bytes"),
    lower("shard.heartbeats", "count"),
    lower("shard.redistributed", "count"),
    lower("shard.deaths", "count"),
    lower("shard.unexplained_ms", "ms"),
    // rws-machine / rws-dag / rws-core (host time; sim.* are exact simulated counts)
    lower("machine.access_ns", "ns"),
    lower("dag.build_ms", "ms"),
    lower("dag.seq_trace_ms", "ms"),
    lower("core.run_ms", "ms"),
    higher("core.work_items_per_s", "1/s"),
    lower("sim.steals", "count"),
    lower("sim.failed_steals", "count"),
    lower("sim.cache_misses", "count"),
    lower("sim.block_misses", "count"),
    lower("sim.false_sharing_misses", "count"),
    lower("sim.makespan", "ticks"),
    // rws-lab
    lower("lab.parse_us", "us"),
    lower("lab.expand_us", "us"),
    lower("lab.checks_us", "us"),
    lower("lab.to_json_ms", "ms"),
    lower("lab.validate_ms", "ms"),
    lower("lab.runs", "count"),
    lower("lab.verdict_fail", "count"),
    lower("lab.self_ms", "ms"),
    // rws-trace
    lower("trace.record_ns", "ns"),
    lower("trace.on_wall_rel", "ratio"),
    // the harness itself
    lower("harness.calib_ms_p50", "ms"),
    lower("harness.gen_lag_us_p99", "us"),
    lower("harness.span_overhead_rel", "ratio"),
];

/// The values one run reports, keyed by the names of one of the tables above.
#[derive(Debug)]
pub struct Sheet {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Sheet {
    /// An empty sheet over `defs` ([`END_TO_END`] or [`PER_LAYER`]).
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Sheet { defs, values: vec![None; defs.len()] }
    }

    /// Record `value` under `name`. A name outside the table is a bug in the harness: the
    /// tables are the contract, so it panics rather than print an unlisted metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the benchmark's name table"));
        self.values[i] = Some(if value.is_finite() { value } else { 0.0 });
    }

    /// Every metric of the table in table order; `None` where this run measured nothing.
    pub fn rows(&self) -> impl Iterator<Item = (&'static MetricDef, Option<f64>)> + '_ {
        self.defs.iter().zip(self.values.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rws_lab::json::{self, Json};
    use std::collections::BTreeSet;

    /// Whether `name` fits the contract: starts with a letter or digit, at most 64 of
    /// letters, digits, `_`, `.`, `-`.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    /// Whether `unit` fits the contract: 1 to 16 of letters, digits, `_`, `/`, `%`, `.`, `-`.
    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("missing `{key}`"))
    }

    #[test]
    fn every_name_and_unit_fits_the_contract_and_is_used_once() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS {
            assert!(valid_name(name), "workload name `{name}`");
            assert!(seen.insert(name), "`{name}` is used twice");
        }
        for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(def.name), "metric name `{}`", def.name);
            assert!(valid_unit(def.unit), "unit `{}` of `{}`", def.unit, def.name);
            assert!(matches!(def.better, "lower" | "higher"));
            assert!(seen.insert(def.name), "`{}` is used twice", def.name);
        }
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("lat µs"));
        assert!(!valid_unit("µs"));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_names() {
        let doc = benchmark_json();
        let mut keys = doc.keys();
        keys.sort_unstable();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"],
            "BENCHMARK.json has exactly the contract's keys"
        );

        let workloads = doc.get("workloads").and_then(Json::as_array).expect("workloads");
        let listed: Vec<&str> = workloads.iter().map(|w| field(w, "name")).collect();
        let gated: Vec<&str> = WORKLOADS.into_iter().filter(|w| !UNGATED.contains(w)).collect();
        assert_eq!(listed, gated, "BENCHMARK.json lists every workload but the ungated ones");
        assert!(UNGATED.iter().all(|w| WORKLOADS.contains(w)));
        for w in workloads {
            assert_eq!(w.keys(), ["name", "why"]);
            let why = field(w, "why");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {}", field(w, "name"));
        }

        let check = |key: &str, defs: &[MetricDef], bounded: bool| {
            let entries = doc.get(key).and_then(Json::as_array).expect(key);
            let listed: Vec<(&str, &str, &str)> = entries
                .iter()
                .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
                .collect();
            let ours: Vec<(&str, &str, &str)> =
                defs.iter().map(|d| (d.name, d.unit, d.better)).collect();
            assert_eq!(listed, ours, "`{key}` matches the harness's table");
            for e in entries {
                let bound = e.get("bound").and_then(Json::as_f64);
                if bounded {
                    assert_eq!(e.keys(), ["name", "unit", "better", "bound"]);
                    let bound = bound.expect("bound");
                    assert!(bound > 0.0 && bound <= 0.25, "bound of {}", field(e, "name"));
                } else {
                    assert_eq!(e.keys(), ["name", "unit", "better"]);
                }
            }
        };
        check("end_to_end", &END_TO_END, true);
        check("per_layer", &PER_LAYER, false);

        let setup = doc.get("end_to_end").and_then(Json::as_array).expect("end_to_end");
        let setup = setup.iter().find(|e| field(e, "name") == "setup_s").expect("setup_s");
        assert_eq!((field(setup, "unit"), field(setup, "better")), ("s", "lower"));

        let secs = doc.get("run_seconds").and_then(Json::as_u64).expect("run_seconds");
        assert!((1..=60).contains(&secs));
    }

    #[test]
    fn a_sheet_keeps_table_order_and_refuses_unknown_names() {
        let mut sheet = Sheet::new(&END_TO_END);
        sheet.set("peak_rss_mb", 12.5);
        sheet.set("setup_s", f64::NAN);
        let rows: Vec<(&str, Option<f64>)> = sheet.rows().map(|(d, v)| (d.name, v)).collect();
        assert_eq!(rows[0], ("setup_s", Some(0.0)), "non-finite values are never printed");
        assert_eq!(rows[1], ("cpu_t1_ms_p50", None));
        assert_eq!(rows[2], ("peak_rss_mb", Some(12.5)));
        let caught = std::panic::catch_unwind(move || sheet.set("cpu_t1_ms_p51", 1.0));
        assert!(caught.is_err());
    }
}
