//! The experiments E1–E20: each function measures a quantity on the simulated machine and
//! prints it next to the paper's predicted bound; its rustdoc names the lemma or theorem,
//! and [`run`] maps the ids to the functions.

use crate::table::{fnum, Table};
use crate::{average_over_seeds, default_machine, params_of, run_on, sequential_costs};
use rws_algos::fft::{fft_computation, FftConfig};
use rws_algos::listrank::{
    connected_components_computation, list_ranking_computation, ConnectedComponentsConfig,
    ListRankConfig,
};
use rws_algos::matmul::{matmul_computation, MatMulConfig, MmVariant};
use rws_algos::prefix::{prefix_sums_computation, PrefixConfig};
use rws_algos::sort::{sort_computation, SortConfig};
use rws_algos::transpose::{bi_to_rm_computation, rm_to_bi_computation, transpose_bi_computation};
use rws_analysis as analysis;
use rws_core::{PotentialTracker, RwsScheduler, SimConfig};
use rws_dag::Computation;
use rws_machine::MachineConfig;

const SEEDS: [u64; 3] = [11, 23, 47];

fn mm(n: usize, base: usize, variant: MmVariant) -> Computation {
    matmul_computation(&MatMulConfig { n, base, variant })
}

/// E1/E2 — Lemma 3.1, Corollaries 3.1/3.2: matrix-multiply cache misses vs the number of
/// steals, for both MM variants.
pub fn e1_e2_mm_cache_misses(quick: bool) {
    let n = if quick { 16 } else { 32 };
    let base = 4;
    let mut table = Table::new(
        format!("E1/E2 — MM cache misses vs steals (Lemma 3.1), n = {n}"),
        &["variant", "p", "steals S", "cache misses", "bound(n,M,B,S)", "measured/bound"],
    );
    for variant in [MmVariant::DepthNLimitedAccess, MmVariant::DepthLog2N] {
        let comp = mm(n, base, variant);
        for p in [1usize, 2, 4, 8] {
            let machine = default_machine(p);
            let report = run_on(&comp, &machine, SEEDS[0]);
            let params = params_of(&machine);
            let bound =
                analysis::mm_cache_misses(n as f64, report.successful_steals as f64, &params);
            table.row(vec![
                format!("{variant:?}"),
                p.to_string(),
                report.successful_steals.to_string(),
                report.cache_misses().to_string(),
                fnum(bound),
                fnum(report.cache_misses() as f64 / bound.max(1.0)),
            ]);
        }
    }
    table.print();
    println!("Shape check: measured/bound should stay O(1) (constant across p) for each variant.");
}

/// E3/E4 — Lemmas 4.3/4.4/4.5: block delay per stack block is O(min(B, ...)) and total block
/// delay is O(S · B).
pub fn e3_e4_block_delay(quick: bool) {
    let n = if quick { 16 } else { 32 };
    let mut table = Table::new(
        "E3/E4 — block delay (Lemmas 4.4/4.5): per-block <= O(B), total <= O(S*B)",
        &["algorithm", "B", "p", "S", "max stack blk xfers", "total blk delay", "S*B"],
    );
    for b_words in [4u64, 8, 16] {
        for (name, comp) in [
            ("mm-limited", mm(n, 4, MmVariant::DepthNLimitedAccess)),
            ("prefix-sums", prefix_sums_computation(&PrefixConfig::new(1024))),
        ] {
            let machine = default_machine(8).with_block_words(b_words);
            let report = run_on(&comp, &machine, SEEDS[1]);
            table.row(vec![
                name.to_string(),
                b_words.to_string(),
                "8".to_string(),
                report.successful_steals.to_string(),
                report.max_stack_block_transfers.to_string(),
                report.block_delay().to_string(),
                (report.successful_steals * b_words).to_string(),
            ]);
        }
    }
    table.print();
    println!("Shape check: per-block transfers grow with B but stay bounded; total block delay stays below a small multiple of S*B.");
}

/// E5/E6 — Lemmas 4.6/4.7: layout-conversion cache misses and block delay.
pub fn e5_e6_conversions(quick: bool) {
    let n = if quick { 16 } else { 32 };
    let mut table = Table::new(
        format!("E5/E6 — RM<->BI conversions (Lemmas 4.6/4.7), n = {n}"),
        &["conversion", "p", "S", "cache misses", "bound", "block delay", "S*B"],
    );
    for p in [2usize, 8] {
        let machine = default_machine(p);
        let params = params_of(&machine);
        let fast = rm_to_bi_computation(n, 4);
        let r = run_on(&fast, &machine, SEEDS[0]);
        table.row(vec![
            "rm->bi (tree)".into(),
            p.to_string(),
            r.successful_steals.to_string(),
            r.cache_misses().to_string(),
            fnum(analysis::rm_to_bi_cache_misses(n as f64, r.successful_steals as f64, &params)),
            r.block_delay().to_string(),
            (r.successful_steals * machine.block_words).to_string(),
        ]);
        let slow = bi_to_rm_computation(n, 4);
        let r = run_on(&slow, &machine, SEEDS[0]);
        table.row(vec![
            "bi->rm (log^2)".into(),
            p.to_string(),
            r.successful_steals.to_string(),
            r.cache_misses().to_string(),
            fnum(analysis::bi_to_rm_cache_misses(n as f64, r.successful_steals as f64, &params)),
            r.block_delay().to_string(),
            (r.successful_steals * machine.block_words).to_string(),
        ]);
    }
    table.print();
}

/// E7 — Lemmas 5.1/5.2: the potential function essentially never increases and drops across
/// steal activity.
pub fn e7_potential(quick: bool) {
    let n = if quick { 1024 } else { 4096 };
    let comp = prefix_sums_computation(&PrefixConfig::new(n));
    let machine = default_machine(8);
    let report =
        RwsScheduler::new(machine, SimConfig::with_seed(SEEDS[2]).with_potential_tracking())
            .run(&comp);
    let mut tracker = PotentialTracker::new();
    for s in &report.potential_trace {
        tracker.record(*s);
    }
    let first = report.potential_trace.first().map(|s| s.log2_phi).unwrap_or(0.0);
    let last = report.potential_trace.last().map(|s| s.log2_phi).unwrap_or(0.0);
    let mut table = Table::new(
        "E7 — potential function (Lemmas 5.1/5.2)",
        &["samples", "log2 phi start", "log2 phi end", "non-increasing fraction"],
    );
    table.row(vec![
        report.potential_trace.len().to_string(),
        fnum(first),
        fnum(last),
        fnum(tracker.non_increasing_fraction()),
    ]);
    table.print();
    println!("Shape check: phi decreases monotonically (fraction close to 1.0) from ~h(t) to ~0.");
}

/// E8/E9 — Theorems 5.1 and 6.1/6.2: measured steals vs the general bound and the improved
/// BP bound, as the block size grows.
pub fn e8_e9_steal_bounds(quick: bool) {
    let n = if quick { 2048 } else { 8192 };
    let mut table = Table::new(
        format!("E8/E9 — steals vs bounds for prefix sums (BP), n = {n}"),
        &["B", "p", "measured S", "general bound (Thm 5.1)", "BP bound (Thm 6.2)", "S/BP bound"],
    );
    for b_words in [4u64, 8, 16, 32] {
        let comp = prefix_sums_computation(&PrefixConfig::new(n));
        for p in [4usize, 8] {
            let machine = default_machine(p).with_block_words(b_words).with_cache_words(4096);
            let params = params_of(&machine);
            let s = average_over_seeds(&comp, &machine, &SEEDS, |r| r.successful_steals as f64);
            let t_inf = comp.dag.span_nodes() as f64;
            let general = analysis::steal_bound_general(t_inf, b_words as f64, 1.0, &params);
            let bp =
                analysis::steal_bound_hbp(analysis::h_root_bp(n as f64, &params), 1.0, &params);
            table.row(vec![
                b_words.to_string(),
                p.to_string(),
                fnum(s),
                fnum(general),
                fnum(bp),
                fnum(s / bp.max(1.0)),
            ]);
        }
    }
    table.print();
    println!("Shape check: measured steals stay within a constant factor of the BP bound, which grows like B + log n, far below the general bound's B*log n growth.");
}

/// E10 — Theorem 6.3: the three h(t) formulas for c = 1, c = 2 & s(n) = sqrt(n), c = 2 &
/// s(n) = n/4 (pure formula comparison across n and B).
pub fn e10_h_formulas(_quick: bool) {
    let mut table = Table::new(
        "E10 — Theorem 6.3 h(t) formulas",
        &["n", "B", "c=1 (sort-like)", "c=2 sqrt (FFT)", "c=2 quarter (MM)"],
    );
    for n in [1u64 << 10, 1 << 14, 1 << 18] {
        for b_words in [8u64, 64] {
            let machine = MachineConfig::small().with_block_words(b_words);
            let params = params_of(&machine);
            let t_inf = (n as f64).log2().powi(2);
            let s_star = ((n as f64).log2() - (b_words as f64).log2()).max(1.0);
            table.row(vec![
                n.to_string(),
                b_words.to_string(),
                fnum(analysis::h_root_hbp_c1(t_inf, n as f64, s_star, &params)),
                fnum(analysis::h_root_hbp_c2_sqrt(t_inf, n as f64, &params)),
                fnum(analysis::h_root_hbp_c2_quarter(t_inf, n as f64, &params)),
            ]);
        }
    }
    table.print();
    println!("Shape check: the sqrt-shrink recursion has the smallest additive term, the quarter-shrink (depth-n MM) the largest, and the gap widens with n.");
}

/// E11/E12 — Lemma 7.1: steal counts of the two MM algorithms (the depth-log²n variant
/// steals far less) and the resulting speedups.
pub fn e11_e12_mm_steals_speedup(quick: bool) {
    let n = if quick { 16 } else { 32 };
    let base = 4;
    let mut table = Table::new(
        format!("E11/E12 — MM steals and speedup (Lemma 7.1), n = {n}"),
        &["variant", "p", "S", "predicted S", "makespan", "speedup", "block delay/S"],
    );
    for variant in [MmVariant::DepthNLimitedAccess, MmVariant::DepthLog2N] {
        let comp = mm(n, base, variant);
        let seq = sequential_costs(&comp, &default_machine(1));
        for p in [2usize, 4, 8] {
            let machine = default_machine(p);
            let params = params_of(&machine);
            let report = run_on(&comp, &machine, SEEDS[0]);
            let predicted = match variant {
                MmVariant::DepthNLimitedAccess => {
                    analysis::mm_depth_n_steals(n as f64, 1.0, &params)
                }
                _ => analysis::mm_depth_log2_steals(n as f64, 1.0, &params),
            };
            table.row(vec![
                format!("{variant:?}"),
                p.to_string(),
                report.successful_steals.to_string(),
                fnum(predicted),
                report.makespan.to_string(),
                fnum(report.speedup(seq.time)),
                fnum(report.block_delay_per_steal()),
            ]);
        }
    }
    table.print();
    println!("Shape check: the depth-log²n variant steals far less than the depth-n variant at the same p; speedups grow with p inside the optimality region; block delay per steal stays O(B).");
}

/// E13–E17 — Theorem 7.1 and Section 7: the whole algorithm suite, measured steals vs the
/// per-algorithm predictions, plus the O(S·B) block-delay envelope.
pub fn e13_e17_algorithm_suite(quick: bool) {
    let scale = if quick { 1usize } else { 2 };
    let machine = default_machine(8);
    let params = params_of(&machine);
    let entries: Vec<(&str, Computation, f64)> = vec![
        (
            "prefix-sums (i)",
            prefix_sums_computation(&PrefixConfig::new(2048 * scale)),
            analysis::bp_steals((2048 * scale) as f64, 1.0, &params),
        ),
        (
            "transpose (ii)",
            transpose_bi_computation(32 * scale, 4),
            analysis::transpose_steals((32 * scale) as f64, 1.0, &params),
        ),
        (
            "rm->bi (ii)",
            rm_to_bi_computation(32 * scale, 4),
            analysis::transpose_steals((32 * scale) as f64, 1.0, &params),
        ),
        (
            "hbp-mergesort (iii)",
            sort_computation(&SortConfig::new(1024 * scale)),
            analysis::mergesort_steals((1024 * scale) as f64, 1.0, &params),
        ),
        (
            "fft (iv)",
            fft_computation(&FftConfig::new(1024 * scale)),
            analysis::sort_fft_steals((1024 * scale) as f64, 1.0, &params),
        ),
        (
            "list-ranking",
            list_ranking_computation(&ListRankConfig::new(512 * scale)),
            analysis::list_ranking_steals((512 * scale) as f64, 1.0, &params),
        ),
        (
            "connected-components",
            connected_components_computation(&ConnectedComponentsConfig::new(256 * scale)),
            analysis::connected_components_steals((256 * scale) as f64, 1.0, &params),
        ),
    ];
    let mut table = Table::new(
        "E13–E17 — algorithm suite under RWS (Theorem 7.1), p = 8",
        &["algorithm", "W", "T_inf", "S", "predicted S", "S/pred", "block delay", "S*B"],
    );
    for (name, comp, predicted) in entries {
        let report = run_on(&comp, &machine, SEEDS[2]);
        table.row(vec![
            name.to_string(),
            comp.dag.work().to_string(),
            comp.dag.span_nodes().to_string(),
            report.successful_steals.to_string(),
            fnum(predicted),
            fnum(report.successful_steals as f64 / predicted.max(1.0)),
            report.block_delay().to_string(),
            (report.successful_steals * machine.block_words).to_string(),
        ]);
    }
    table.print();
    println!("Shape check: measured steals stay below the predicted bounds (ratios O(1) and < 1 with the constants elided); block delay stays within a small multiple of S*B for every algorithm.");
}

/// E18 — Observation 4.1 / Figure 1: the steals suffered by any single task are right
/// children along one root-to-leaf path, taken in top-down order.
pub fn e18_steal_structure(quick: bool) {
    let n = if quick { 1024 } else { 4096 };
    let comp = prefix_sums_computation(&PrefixConfig::new(n));
    let machine = default_machine(8);
    let report =
        RwsScheduler::new(machine, SimConfig::with_seed(SEEDS[0]).with_steal_events()).run(&comp);
    // Group steal events by victim task: within one victim, steal times must be increasing
    // and the stolen fork nodes must have strictly increasing dag depth (top-down order).
    let depth = node_depths(&comp);
    let mut by_victim: std::collections::HashMap<u32, Vec<(u64, u32)>> = Default::default();
    for ev in &report.steal_events {
        by_victim
            .entry(ev.victim.0 as u32)
            .or_default()
            .push((ev.time, depth[ev.par_node.index()]));
    }
    let mut ordered_pairs = 0u64;
    let mut total_pairs = 0u64;
    for events in by_victim.values() {
        for w in events.windows(2) {
            total_pairs += 1;
            if w[1].1 >= w[0].1 {
                ordered_pairs += 1;
            }
        }
    }
    let mut table = Table::new(
        "E18 — steal structure along P_tau (Observation 4.1 / Figure 1)",
        &["steal events", "victim groups", "top-down ordered pairs", "total pairs"],
    );
    table.row(vec![
        report.steal_events.len().to_string(),
        by_victim.len().to_string(),
        ordered_pairs.to_string(),
        total_pairs.to_string(),
    ]);
    table.print();
    println!("Shape check: consecutive steals from the same victim overwhelmingly move down the tree (ordered pairs ~= total pairs).");
}

fn node_depths(comp: &Computation) -> Vec<u32> {
    let mut depth = vec![0u32; comp.dag.len()];
    // Children have smaller ids; walk from the root assigning depths.
    let mut stack = vec![(comp.dag.root(), 0u32)];
    while let Some((id, d)) = stack.pop() {
        depth[id.index()] = d;
        for c in comp.dag.node(id).children() {
            stack.push((c, d + 1));
        }
    }
    depth
}

/// E19 — the motivating native experiment: padded vs unpadded per-worker accumulators on the
/// real work-stealing pool (false sharing on actual hardware).
pub fn e19_native_false_sharing(quick: bool) {
    use rws_runtime::padding::Counters;
    use rws_runtime::{PaddedCounters, ThreadPool, UnpaddedCounters};
    use std::sync::Arc;
    use std::time::Instant;

    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8);
    let iters: u64 = if quick { 2_000_000 } else { 10_000_000 };
    let run = |counters: Arc<dyn Counters>| -> f64 {
        let pool = ThreadPool::new(threads);
        let start = Instant::now();
        let mut handles = Vec::new();
        for w in 0..threads {
            let c = Arc::clone(&counters);
            let (tx, rx) = std::sync::mpsc::channel::<()>();
            pool.spawn(move || {
                for _ in 0..iters {
                    c.add(w, 1);
                }
                let _ = tx.send(());
            });
            handles.push(rx);
        }
        for rx in handles {
            let _ = rx.recv();
        }
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(counters.total(), iters * threads as u64);
        elapsed
    };
    let unpadded = run(Arc::new(UnpaddedCounters::new(threads)));
    let padded = run(Arc::new(PaddedCounters::new(threads)));
    let mut table = Table::new(
        format!("E19 — native false sharing, {threads} threads x {iters} increments"),
        &["layout", "seconds", "slowdown vs padded"],
    );
    table.row(vec!["padded (no false sharing)".into(), fnum(padded), fnum(1.0)]);
    table.row(vec![
        "unpadded (false sharing)".into(),
        fnum(unpadded),
        fnum(unpadded / padded.max(1e-9)),
    ]);
    table.print();
    println!("Shape check: the unpadded layout is slower (typically several times) — the real-hardware cost the paper's block-miss model accounts for.");
}

/// E20 — Section 3 "Space Usage": peak simulated stack space of the three MM variants.
pub fn e20_space(quick: bool) {
    let n = if quick { 16 } else { 32 };
    let mut table = Table::new(
        format!("E20 — MM space usage (Section 3), n = {n}"),
        &["variant", "p", "peak stack words", "predicted shape"],
    );
    for variant in [MmVariant::DepthNInPlace, MmVariant::DepthNLimitedAccess, MmVariant::DepthLog2N]
    {
        let comp = mm(n, 4, variant);
        for p in [1usize, 8] {
            let machine = default_machine(p);
            let params = params_of(&machine);
            let report = run_on(&comp, &machine, SEEDS[1]);
            let predicted = analysis::mm_space_words(
                n as f64,
                variant != MmVariant::DepthNInPlace,
                variant == MmVariant::DepthLog2N,
                &params,
            );
            table.row(vec![
                format!("{variant:?}"),
                p.to_string(),
                report.peak_stack_words.to_string(),
                fnum(predicted),
            ]);
        }
    }
    table.print();
    println!("Shape check: in-place uses the least auxiliary space, the limited-access depth-n variant more (grows mildly with p), the depth-log²n variant the most.");
}

/// Run the experiment named `name` (`e1`..`e20`, `all`, or `quick`).
pub fn run(name: &str, quick: bool) {
    match name {
        "e1" | "e2" | "e1_e2" => e1_e2_mm_cache_misses(quick),
        "e3" | "e4" | "e3_e4" => e3_e4_block_delay(quick),
        "e5" | "e6" | "e5_e6" => e5_e6_conversions(quick),
        "e7" => e7_potential(quick),
        "e8" | "e9" | "e8_e9" => e8_e9_steal_bounds(quick),
        "e10" => e10_h_formulas(quick),
        "e11" | "e12" | "e11_e12" => e11_e12_mm_steals_speedup(quick),
        "e13" | "e14" | "e15" | "e16" | "e17" | "e13_e17" => e13_e17_algorithm_suite(quick),
        "e18" => e18_steal_structure(quick),
        "e19" => e19_native_false_sharing(quick),
        "e20" => e20_space(quick),
        "all" | "quick" => {
            let q = quick || name == "quick";
            e1_e2_mm_cache_misses(q);
            e3_e4_block_delay(q);
            e5_e6_conversions(q);
            e7_potential(q);
            e8_e9_steal_bounds(q);
            e10_h_formulas(q);
            e11_e12_mm_steals_speedup(q);
            e13_e17_algorithm_suite(q);
            e18_steal_structure(q);
            e19_native_false_sharing(q);
            e20_space(q);
        }
        other => {
            eprintln!("unknown experiment '{other}'; expected e1..e20, all, or quick");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_formula_experiment_runs() {
        // The cheapest experiment (pure formulas) must run without panicking.
        e10_h_formulas(true);
    }

    #[test]
    fn node_depths_cover_the_dag() {
        let comp = prefix_sums_computation(&PrefixConfig::new(64));
        let depths = node_depths(&comp);
        assert_eq!(depths.len(), comp.dag.len());
        assert_eq!(depths[comp.dag.root().index()], 0);
        assert!(depths.iter().any(|&d| d > 0));
    }
}
