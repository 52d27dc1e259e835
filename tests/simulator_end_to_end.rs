//! End-to-end integration tests: every algorithm of the suite is built, scheduled under
//! randomized work stealing on several machine configurations, and checked against the
//! paper's structural guarantees (work conservation, no sharing costs sequentially, block
//! delay O(S·B), steals within the predicted envelopes, reproducibility).

use rws_algos::fft::{fft_computation, FftConfig};
use rws_algos::listrank::{
    connected_components_computation, list_ranking_computation, ConnectedComponentsConfig,
    ListRankConfig,
};
use rws_algos::matmul::{matmul_computation, MatMulConfig, MmVariant};
use rws_algos::prefix::{prefix_sums_computation, PrefixConfig};
use rws_algos::sort::{sort_computation, SortConfig};
use rws_algos::transpose::{bi_to_rm_computation, rm_to_bi_computation, transpose_bi_computation};
use rws_core::{RunReport, RwsScheduler, SimConfig};
use rws_dag::{Computation, SequentialTracer};
use rws_machine::MachineConfig;

fn suite() -> Vec<(&'static str, Computation)> {
    vec![
        (
            "matmul-inplace",
            matmul_computation(&MatMulConfig { n: 16, base: 4, variant: MmVariant::DepthNInPlace }),
        ),
        (
            "matmul-limited",
            matmul_computation(&MatMulConfig {
                n: 16,
                base: 4,
                variant: MmVariant::DepthNLimitedAccess,
            }),
        ),
        (
            "matmul-log2",
            matmul_computation(&MatMulConfig { n: 16, base: 4, variant: MmVariant::DepthLog2N }),
        ),
        ("prefix-sums", prefix_sums_computation(&PrefixConfig::new(1024))),
        ("transpose", transpose_bi_computation(16, 4)),
        ("rm-to-bi", rm_to_bi_computation(16, 4)),
        ("bi-to-rm", bi_to_rm_computation(16, 4)),
        ("sort", sort_computation(&SortConfig::new(512))),
        ("fft", fft_computation(&FftConfig::new(256))),
        ("list-ranking", list_ranking_computation(&ListRankConfig::new(128))),
        (
            "connected-components",
            connected_components_computation(&ConnectedComponentsConfig::new(64)),
        ),
    ]
}

fn machine(p: usize) -> MachineConfig {
    MachineConfig::small().with_procs(p)
}

#[test]
fn every_algorithm_runs_and_conserves_work_across_processor_counts() {
    for (name, comp) in suite() {
        let work = comp.dag.work();
        for p in [1usize, 3, 8] {
            let report = RwsScheduler::with_machine(machine(p)).run(&comp);
            assert_eq!(report.work_executed, work, "{name} lost or duplicated work at p={p}");
            assert!(report.makespan >= comp.dag.span_ops(), "{name}: makespan below the span");
            assert!(
                report.makespan >= work / p as u64,
                "{name}: makespan below the work lower bound"
            );
        }
    }
}

#[test]
fn sequential_runs_have_no_parallel_cache_costs() {
    for (name, comp) in suite() {
        let report = RwsScheduler::with_machine(machine(1)).run(&comp);
        assert_eq!(report.successful_steals, 0, "{name}");
        assert_eq!(report.block_misses(), 0, "{name}: block misses require sharing");
        assert_eq!(report.false_sharing_misses(), 0, "{name}");
        assert_eq!(report.block_delay(), 0, "{name}");
        let seq = SequentialTracer::new(&machine(1)).run(&comp.dag);
        assert_eq!(report.cache_misses(), seq.cache_misses, "{name}: p=1 must match the tracer");
    }
}

#[test]
fn block_delay_stays_within_the_paper_envelope() {
    // Lemma 4.5 and friends: total block delay = O(S · B) for the Hierarchical Tree
    // Algorithms. The constant covers the O(1) shared blocks per steal; 6 is generous and
    // holds for every algorithm in the suite on this machine.
    let m = machine(8);
    for (name, comp) in suite() {
        let report = RwsScheduler::with_machine(m.clone()).run(&comp);
        let envelope = 6 * (report.successful_steals + 1) * m.block_words;
        assert!(
            report.block_delay() <= envelope,
            "{name}: block delay {} exceeds envelope {} (S = {})",
            report.block_delay(),
            envelope,
            report.successful_steals
        );
    }
}

#[test]
fn steals_scale_with_processors_not_with_work() {
    // Theorem 5.1/6.2: steals are O(p · h(t)) — for a fixed dag, doubling p roughly doubles
    // the steal bound, while steals stay far below the number of dag nodes.
    let comp = prefix_sums_computation(&PrefixConfig::new(4096));
    let mut last = 0.0;
    for p in [2usize, 4, 8] {
        let mut total = 0u64;
        for seed in [1u64, 2, 3] {
            let report = RwsScheduler::new(machine(p), SimConfig::with_seed(seed)).run(&comp);
            total += report.successful_steals;
        }
        let avg = total as f64 / 3.0;
        assert!(avg < comp.dag.len() as f64 / 4.0, "steals must be sparse compared to dag size");
        assert!(avg >= last * 0.8, "steals should not collapse as p grows");
        last = avg;
    }
}

#[test]
fn limited_access_matmul_incurs_fewer_false_sharing_misses_per_steal_than_in_place() {
    let m = machine(8);
    let runs = |variant| {
        let comp = matmul_computation(&MatMulConfig { n: 16, base: 4, variant });
        let mut fs = 0.0;
        let mut steals = 0.0;
        for seed in [5u64, 6, 7] {
            let r = RwsScheduler::new(m.clone(), SimConfig::with_seed(seed)).run(&comp);
            fs += r.false_sharing_misses() as f64;
            steals += r.successful_steals as f64;
        }
        fs / steals.max(1.0)
    };
    let in_place = runs(MmVariant::DepthNInPlace);
    let limited = runs(MmVariant::DepthLog2N);
    // The in-place variant writes every output word n/base times, so stolen subtasks write
    // into blocks their parents keep reusing; the limited-access variants confine this.
    assert!(
        limited <= in_place * 1.5 + 2.0,
        "limited-access MM should not suffer more false sharing per steal: {limited} vs {in_place}"
    );
}

#[test]
fn reports_are_reproducible_for_a_fixed_seed() {
    let comp = sort_computation(&SortConfig::new(256));
    let sched = RwsScheduler::new(machine(4), SimConfig::with_seed(99));
    let a = sched.run(&comp);
    let b = sched.run(&comp);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.successful_steals, b.successful_steals);
    assert_eq!(a.mem, b.mem);
    assert_eq!(a.block_delay(), b.block_delay());
}

#[test]
fn padded_segments_reduce_stack_block_transfers() {
    // Remark 4.1: padding each segment to a whole block removes stack false sharing.
    let comp = matmul_computation(&MatMulConfig {
        n: 16,
        base: 4,
        variant: MmVariant::DepthNLimitedAccess,
    });
    let mut plain_total = 0u64;
    let mut padded_total = 0u64;
    for seed in [11u64, 12, 13] {
        let plain = RwsScheduler::new(machine(8), SimConfig::with_seed(seed)).run(&comp);
        let padded = RwsScheduler::new(machine(8), SimConfig::with_seed(seed).padded()).run(&comp);
        plain_total += plain.stack_block_transfers;
        padded_total += padded.stack_block_transfers;
    }
    assert!(
        padded_total <= plain_total,
        "padding segments must not increase stack-block transfers ({padded_total} vs {plain_total})"
    );
}

#[test]
fn speedup_improves_with_processors_for_wide_computations() {
    let comp = prefix_sums_computation(&PrefixConfig::new(8192));
    let seq = SequentialTracer::new(&machine(1)).run(&comp.dag);
    let s2 = RwsScheduler::with_machine(machine(2)).run(&comp).speedup(seq.time);
    let s8 = RwsScheduler::with_machine(machine(8)).run(&comp).speedup(seq.time);
    assert!(s2 > 1.2, "two processors must help: speedup {s2}");
    assert!(s8 > s2, "eight processors must beat two: {s8} vs {s2}");
}

/// One line per run plus one per processor: every counter a `RunReport` carries. `ProcStats`
/// is rendered through `Debug` so a field added later shows up in the fixture by itself.
fn render_report(label: &str, r: &RunReport) -> String {
    let mut out = format!(
        "{label}: makespan={} steals={} failed_steals={} steal_time={} usurpations={} \
         local_pops={} work={} nodes={} busy={} tasks={} peak_stack={} block_transfers={} \
         stack_transfers={} global_transfers={} max_stack_transfers={} max_global_transfers={}",
        r.makespan,
        r.successful_steals,
        r.failed_steals,
        r.steal_time,
        r.usurpations,
        r.local_pops,
        r.work_executed,
        r.nodes_executed,
        r.busy_time,
        r.tasks_created,
        r.peak_stack_words,
        r.mem.block_transfers,
        r.stack_block_transfers,
        r.global_block_transfers,
        r.max_stack_block_transfers,
        r.max_global_block_transfers,
    );
    if let Some(last) = r.potential_trace.last() {
        out += &format!(" potential_samples={} last={last:?}", r.potential_trace.len());
    }
    out.push('\n');
    for (p, stats) in r.mem.per_proc.iter().enumerate() {
        out += &format!("  P{p} {stats:?}\n");
    }
    out
}

/// The runs the golden fixture covers. The 512-word cache holds 16 to 128 lines, so LRU
/// evictions, upgrades, dirty transfers and both kinds of invalidation all occur.
fn golden_reports() -> String {
    let workloads = [
        ("prefix-sums", prefix_sums_computation(&PrefixConfig::new(1024))),
        (
            "matmul",
            matmul_computation(&MatMulConfig {
                n: 16,
                base: 4,
                variant: MmVariant::DepthNLimitedAccess,
            }),
        ),
        ("merge-sort", sort_computation(&SortConfig::new(512))),
    ];
    let tiny = |p: usize, b: u64| machine(p).with_cache_words(512).with_block_words(b);
    let mut out = String::new();
    for (name, comp) in &workloads {
        for p in [1usize, 2, 4, 8] {
            for b in [4u64, 8, 32] {
                for seed in [3u64, 17] {
                    let report =
                        RwsScheduler::new(tiny(p, b), SimConfig::with_seed(seed)).run(comp);
                    out += &render_report(&format!("{name} p={p} B={b} seed={seed}"), &report);
                }
            }
        }
    }
    let (_, matmul) = &workloads[1];
    let padded = RwsScheduler::new(tiny(4, 8), SimConfig::with_seed(5).padded()).run(matmul);
    out += &render_report("matmul p=4 B=8 seed=5 padded", &padded);
    let tracked = RwsScheduler::new(tiny(4, 8), SimConfig::with_seed(5).with_potential_tracking())
        .run(matmul);
    out += &render_report("matmul p=4 B=8 seed=5 potential", &tracked);
    out
}

#[test]
fn run_reports_match_the_golden_fixture() {
    // Captured from the hash-container simulator before the block-table rewrite: the
    // simulator is an instrument, so a faster one must count exactly what the old one did.
    let expected = include_str!("golden/simulator_reports.txt");
    let actual = golden_reports();
    for (line, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(e, a, "golden fixture line {} differs", line + 1);
    }
    assert_eq!(expected.lines().count(), actual.lines().count(), "fixture length differs");
}
