//! End-to-end integration tests: every algorithm of the suite is built, scheduled under
//! randomized work stealing on several machine configurations, and checked against the
//! paper's structural guarantees (work conservation, no sharing costs sequentially, block
//! delay O(S·B), steals within the predicted envelopes, reproducibility). The claims the lab
//! scenarios cannot state — they need per-block transfers, steal events or peak stack space —
//! are asserted here; README's *Where each claim of the paper is checked* maps E1–E20.

use rws_algos::fft::{fft_computation, FftConfig};
use rws_algos::listrank::{
    connected_components_computation, list_ranking_computation, ConnectedComponentsConfig,
    ListRankConfig,
};
use rws_algos::matmul::{matmul_computation, MatMulConfig, MmVariant};
use rws_algos::prefix::{prefix_sums_computation, PrefixConfig};
use rws_algos::sort::{sort_computation, SortConfig};
use rws_algos::transpose::{bi_to_rm_computation, rm_to_bi_computation, transpose_bi_computation};
use rws_analysis::{self as analysis, Params};
use rws_core::{RunReport, RwsScheduler, SimConfig, StealEvent};
use rws_dag::{Computation, NodeId, SequentialTracer, SpDag};
use rws_machine::MachineConfig;
use std::collections::{HashMap, HashSet};

/// The n = 16, base-4 matrix multiply every matmul test here runs.
fn mm(variant: MmVariant) -> Computation {
    matmul_computation(&MatMulConfig { n: 16, base: 4, variant })
}

fn suite() -> Vec<(&'static str, Computation)> {
    vec![
        ("matmul-inplace", mm(MmVariant::DepthNInPlace)),
        ("matmul-limited", mm(MmVariant::DepthNLimitedAccess)),
        ("matmul-log2", mm(MmVariant::DepthLog2N)),
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

fn params(m: &MachineConfig) -> Params {
    Params::new(m.procs, m.cache_words, m.block_words, m.miss_cost, m.steal_cost)
}

fn run(comp: &Computation, m: &MachineConfig, seed: u64) -> RunReport {
    RwsScheduler::new(m.clone(), SimConfig::with_seed(seed)).run(comp)
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
    // E3/E4 — Lemma 4.5 and friends: total block delay = O(S · B) for the Hierarchical Tree
    // Algorithms. The constant covers the O(1) shared blocks per steal; 6 is generous and
    // holds for every algorithm in the suite on this machine, at every block size. Lemma 4.4
    // bounds each execution-stack block on its own: O(B) transfers (at most 7 measured, by
    // the depth-n limited-access matmul at B = 8).
    let suite = suite();
    for b in [4u64, 8, 16] {
        let m = machine(8).with_block_words(b);
        for (name, comp) in &suite {
            let report = RwsScheduler::with_machine(m.clone()).run(comp);
            let envelope = 6 * (report.successful_steals + 1) * b;
            assert!(
                report.block_delay() <= envelope,
                "{name} B={b}: block delay {} exceeds envelope {} (S = {})",
                report.block_delay(),
                envelope,
                report.successful_steals
            );
            assert!(
                report.max_stack_block_transfers <= b,
                "{name} B={b}: a stack block moved {} times",
                report.max_stack_block_transfers
            );
        }
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
            total += run(&comp, &machine(p), seed).successful_steals;
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
        let comp = mm(variant);
        let mut fs = 0.0;
        let mut steals = 0.0;
        for seed in [5u64, 6, 7] {
            let r = run(&comp, &m, seed);
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
    let comp = mm(MmVariant::DepthNLimitedAccess);
    let mut plain_total = 0u64;
    let mut padded_total = 0u64;
    for seed in [11u64, 12, 13] {
        let plain = run(&comp, &machine(8), seed);
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

#[test]
fn depth_n_matmul_cache_misses_stay_within_lemma_3_1() {
    // E1/E2 — Lemma 3.1 for the depth-n limited-access variant (`e1_mm_cache_misses.scn`
    // checks depth-log²n) in the lab's own form: the bound at the run's steal count plus the
    // 3n²/B compulsory misses the O absorbs. Measured at most 1.7× that.
    let comp = mm(MmVariant::DepthNLimitedAccess);
    for p in [1usize, 2, 4, 8] {
        let m = machine(p);
        let r = run(&comp, &m, 11);
        let bound = analysis::mm_cache_misses(16.0, r.successful_steals as f64, &params(&m))
            + 3.0 * 256.0 / m.block_words as f64;
        assert!(r.cache_misses() as f64 <= 8.0 * bound, "p={p}: {} vs {bound}", r.cache_misses());
    }
}

#[test]
fn layout_conversions_stay_within_lemmas_4_6_and_4_7() {
    // E5/E6 — cache misses of the RM→BI conversion (Lemma 4.6, O(n²/B + n√S)) and of the
    // log²-depth BI→RM conversion (Lemma 4.7, O(n²/B · log S)). Measured at most 1.8×.
    for p in [2usize, 8] {
        let m = machine(p);
        for (name, comp, lemma) in [
            (
                "rm->bi",
                rm_to_bi_computation(16, 4),
                analysis::rm_to_bi_cache_misses as fn(f64, f64, &Params) -> f64,
            ),
            ("bi->rm", bi_to_rm_computation(16, 4), analysis::bi_to_rm_cache_misses),
        ] {
            let r = run(&comp, &m, 11);
            let bound = lemma(16.0, r.successful_steals as f64, &params(&m));
            assert!(
                r.cache_misses() as f64 <= 4.0 * bound,
                "{name} p={p}: {} vs {bound}",
                r.cache_misses()
            );
        }
    }
}

#[test]
fn depth_log2_matmul_steals_less_than_depth_n_and_speeds_up_with_p() {
    // E11/E12 — Lemma 7.1: the depth-log²n variant's steal bound is below the depth-n one's,
    // and inside the optimality region speedup grows with p.
    let limited = mm(MmVariant::DepthNLimitedAccess);
    let log2 = mm(MmVariant::DepthLog2N);
    for p in [4usize, 8] {
        for seed in [11u64, 23, 47, 3, 5] {
            let steals = |comp| run(comp, &machine(p), seed).successful_steals;
            let (fewer, more) = (steals(&log2), steals(&limited));
            assert!(fewer < more, "p={p} seed={seed}: depth-log²n {fewer} vs depth-n {more}");
        }
    }
    for (name, comp) in [("limited", &limited), ("log2", &log2)] {
        let seq = SequentialTracer::new(&machine(1)).run(&comp.dag).time;
        let s = [2usize, 4, 8].map(|p| run(comp, &machine(p), 11).speedup(seq));
        assert!(s[0] < s[1] && s[1] < s[2], "{name}: speedups at p = 2, 4, 8 are {s:?}");
    }
}

#[test]
fn conversion_and_connectivity_steals_stay_within_their_predictions() {
    // E13–E17 — Theorem 7.1 for the two computations no scenario can name (the lab's
    // `transpose` is the BI transpose, and it has no connected-components workload).
    // Measured at most 0.08× the prediction.
    let m = machine(8);
    let p = params(&m);
    for (name, comp, predicted) in [
        ("rm->bi", rm_to_bi_computation(32, 4), analysis::transpose_steals(32.0, 1.0, &p)),
        (
            "connected-components",
            connected_components_computation(&ConnectedComponentsConfig::new(256)),
            analysis::connected_components_steals(256.0, 1.0, &p),
        ),
    ] {
        let steals = run(&comp, &m, 47).successful_steals as f64;
        assert!(steals <= 4.0 * predicted, "{name}: {steals} steals vs {predicted} predicted");
    }
}

fn parents(dag: &SpDag) -> Vec<Option<NodeId>> {
    let mut parent = vec![None; dag.len()];
    for (id, node) in dag.iter() {
        for child in node.children() {
            parent[child.index()] = Some(id);
        }
    }
    parent
}

/// How many consecutive pairs of steal events break Observation 4.1 when the events are
/// grouped by `key`: within a group each stolen fork must lie strictly below the one before.
fn top_down_violations<'a>(
    parent: &[Option<NodeId>],
    events: impl Iterator<Item = &'a StealEvent>,
    key: impl Fn(&StealEvent) -> usize,
) -> usize {
    let below = |mut v: NodeId, above: NodeId| {
        while let Some(p) = parent[v.index()] {
            if p == above {
                return true;
            }
            v = p;
        }
        false
    };
    let mut last = HashMap::new();
    let mut violations = 0;
    for ev in events {
        if let Some(prev) = last.insert(key(ev), ev.par_node) {
            violations += usize::from(!below(ev.par_node, prev));
        }
    }
    violations
}

#[test]
fn the_steals_a_task_suffers_move_down_one_path() {
    // E18 — Observation 4.1 / Figure 1: the steals one task suffers take right children along
    // a single root-to-leaf path, top-down. A steal's victim task is the nearest
    // ancestor-or-self of the stolen fork that is the root or a stolen child; it is split
    // further at sequence boundaries, since the children of a `Seq` run one after another.
    let workloads = [
        prefix_sums_computation(&PrefixConfig::new(1024)),
        prefix_sums_computation(&PrefixConfig::new(4096)),
        mm(MmVariant::DepthLog2N),
        sort_computation(&SortConfig::new(512)),
        fft_computation(&FftConfig::new(256)),
    ];
    for comp in &workloads {
        let parent = parents(&comp.dag);
        for seed in [11u64, 23, 47] {
            let report =
                RwsScheduler::new(machine(8), SimConfig::with_seed(seed).with_steal_events())
                    .run(comp);
            let events = &report.steal_events;
            assert!(events.len() > 1);
            let stolen: HashSet<NodeId> = events.iter().map(|ev| ev.child).collect();
            let task = |ev: &StealEvent| {
                let mut v = ev.par_node;
                while let Some(p) = parent[v.index()] {
                    if stolen.contains(&v) || comp.dag.node(p).is_seq() {
                        break;
                    }
                    v = p;
                }
                v.index()
            };
            assert_eq!(top_down_violations(&parent, events.iter(), task), 0, "seed {seed}");
            // The check can fail: the same events in reverse order, or grouped by the victim
            // processor (which runs many tasks), break it.
            assert!(top_down_violations(&parent, events.iter().rev(), task) > 0);
            assert!(top_down_violations(&parent, events.iter(), |ev| ev.victim.0) > 0);
        }
    }
}

#[test]
fn matmul_stack_space_stays_within_section_3() {
    // E20 — Section 3, "Space Usage": the in-place variant needs the least stack space, and
    // every variant stays within a constant of its bound (in place O(n²), limited access
    // O(n² log p), depth-log²n O(p^{1/3} n²)). Measured at most 3.3×. Which of the two
    // limited-access variants needs more is not asserted: at p = 8 the bounds put depth-log²n
    // lower, the simulator puts it higher at n = 16 and lower at n = 32.
    for p in [1usize, 8] {
        let m = machine(p);
        let peak = |variant| run(&mm(variant), &m, 23).peak_stack_words as f64;
        let in_place = peak(MmVariant::DepthNInPlace);
        let limited = peak(MmVariant::DepthNLimitedAccess);
        let log2 = peak(MmVariant::DepthLog2N);
        assert!(in_place < limited && in_place < log2, "p={p}: {in_place} {limited} {log2}");
        for (words, is_limited, is_log2) in
            [(in_place, false, false), (limited, true, false), (log2, true, true)]
        {
            let bound = analysis::mm_space_words(16.0, is_limited, is_log2, &params(&m));
            assert!(words <= 8.0 * bound, "p={p}: {words} stack words vs {bound}");
        }
    }
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
        ("matmul", mm(MmVariant::DepthNLimitedAccess)),
        ("merge-sort", sort_computation(&SortConfig::new(512))),
    ];
    let tiny = |p: usize, b: u64| machine(p).with_cache_words(512).with_block_words(b);
    let mut out = String::new();
    for (name, comp) in &workloads {
        for p in [1usize, 2, 4, 8] {
            for b in [4u64, 8, 32] {
                for seed in [3u64, 17] {
                    let report = run(comp, &tiny(p, b), seed);
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
