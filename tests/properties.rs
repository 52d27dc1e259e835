//! Randomized property tests over the core data structures and invariants: random
//! series-parallel dags scheduled under RWS conserve work and never deadlock, sequential
//! costs are independent of the machine's processor count, layouts are bijections, and the
//! reference algorithms agree with simple oracles.
//!
//! Originally written against `proptest`; this build environment has no network access to
//! crates.io, so the same properties are exercised with a seeded [`SmallRng`] generator and
//! a fixed case count — fully deterministic, and each assertion message carries the case
//! seed for reproduction.

use rand::{rngs::SmallRng, Rng, SeedableRng};
use rws_algos::layout::{bit_deinterleave, bit_interleave};
use rws_algos::matmul::{from_bi, matmul_bi_reference, matmul_reference, to_bi};
use rws_algos::prefix::prefix_sums_reference;
use rws_algos::sort::{merge_sort_native, sort_reference};
use rws_core::{RwsScheduler, SimConfig};
use rws_dag::{Addr, NodeId, SequentialTracer, SpDag, SpDagBuilder, WorkUnit};
use rws_machine::MachineConfig;

const CASES: u64 = 64;

/// A random series-parallel dag: recursive Seq / Par nesting bounded in depth, leaves
/// performing a few operations and touching a couple of global words.
fn arb_dag(rng: &mut SmallRng) -> SpDag {
    fn gen(b: &mut SpDagBuilder, rng: &mut SmallRng, depth: u32) -> NodeId {
        let choice = if depth >= 4 { 0 } else { rng.gen_range(0..3) };
        match choice {
            1 => {
                let children: Vec<NodeId> =
                    (0..rng.gen_range(1usize..4)).map(|_| gen(b, rng, depth + 1)).collect();
                b.seq(children)
            }
            2 => {
                let l = gen(b, rng, depth + 1);
                let r = gen(b, rng, depth + 1);
                let seg = rng.gen_range(0u32..4);
                b.par_with_segment(WorkUnit::compute(1), WorkUnit::compute(1), l, r, seg)
            }
            _ => {
                let ops = rng.gen_range(1u64..20);
                let addr = Addr(rng.gen_range(0u64..64));
                let unit = if rng.gen_bool(0.5) {
                    WorkUnit::compute(ops).write(addr)
                } else {
                    WorkUnit::compute(ops).read(addr)
                };
                b.leaf(unit)
            }
        }
    }
    let mut b = SpDagBuilder::new();
    let root = gen(&mut b, rng, 0);
    b.build(root).expect("generated dags are structurally valid")
}

#[test]
fn random_dags_conserve_work_under_rws() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(1000 + case);
        let dag = arb_dag(&mut rng);
        let p = rng.gen_range(1usize..6);
        let seed = rng.gen_range(0u64..1000);
        let machine = MachineConfig::small().with_procs(p);
        let report = RwsScheduler::new(machine, SimConfig::with_seed(seed)).run_dag(&dag);
        assert_eq!(report.work_executed, dag.work(), "case {case}");
        assert!(report.makespan >= dag.span_ops(), "case {case}");
        assert_eq!(
            report.tasks_created,
            1 + report.successful_steals + report.local_pops,
            "case {case}"
        );
    }
}

#[test]
fn single_processor_runs_match_the_sequential_tracer() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(2000 + case);
        let dag = arb_dag(&mut rng);
        let b_words = rng.gen_range(1u64..16);
        let machine =
            MachineConfig::small().with_block_words(b_words).with_cache_words(b_words * 64);
        let seq = SequentialTracer::new(&machine).run(&dag);
        let report = RwsScheduler::with_machine(machine.with_procs(1)).run_dag(&dag);
        assert_eq!(report.cache_misses(), seq.cache_misses, "case {case}");
        assert_eq!(report.block_misses(), 0u64, "case {case}");
        assert_eq!(report.makespan, seq.time, "case {case}");
    }
}

#[test]
fn block_misses_never_appear_without_sharing() {
    // Whatever the schedule, the count of block misses can only be nonzero when at least
    // one steal happened.
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(3000 + case);
        let dag = arb_dag(&mut rng);
        let seed = rng.gen_range(0u64..100);
        let machine = MachineConfig::small().with_procs(4);
        let report = RwsScheduler::new(machine, SimConfig::with_seed(seed)).run_dag(&dag);
        if report.successful_steals == 0 {
            assert_eq!(report.block_misses(), 0u64, "case {case}");
        }
    }
}

#[test]
fn bit_interleave_roundtrips() {
    let mut rng = SmallRng::seed_from_u64(4000);
    for _ in 0..1000 {
        let i = rng.gen_range(0u64..65536);
        let j = rng.gen_range(0u64..65536);
        assert_eq!(bit_deinterleave(bit_interleave(i, j)), (i, j), "i={i} j={j}");
    }
}

#[test]
fn bi_layout_roundtrips() {
    let mut rng = SmallRng::seed_from_u64(5000);
    for case in 0..CASES {
        let n = 4;
        let values: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-100.0..100.0)).collect();
        let bi = to_bi(&values, n);
        assert_eq!(from_bi(&bi, n), values, "case {case}");
    }
}

#[test]
fn recursive_matmul_matches_naive() {
    for seed in 0..50u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = 8usize;
        let a: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let expected = matmul_reference(&a, &b, n);
        let got = from_bi(&matmul_bi_reference(&to_bi(&a, n), &to_bi(&b, n), n), n);
        for (x, y) in got.iter().zip(&expected) {
            assert!((x - y).abs() < 1e-9, "seed {seed}: {x} != {y}");
        }
    }
}

#[test]
fn prefix_sums_reference_is_a_running_total() {
    let mut rng = SmallRng::seed_from_u64(6000);
    for case in 0..CASES {
        let len = rng.gen_range(0usize..200);
        let xs: Vec<i64> = (0..len).map(|_| rng.gen_range(-1000i64..1000)).collect();
        let sums = prefix_sums_reference(&xs);
        assert_eq!(sums.len(), xs.len(), "case {case}");
        let mut acc = 0i64;
        for (i, x) in xs.iter().enumerate() {
            acc += x;
            assert_eq!(sums[i], acc, "case {case} index {i}");
        }
    }
}

#[test]
fn merge_sort_native_sorts() {
    let mut rng = SmallRng::seed_from_u64(7000);
    for case in 0..CASES {
        let len = rng.gen_range(0usize..200);
        let xs: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..1000)).collect();
        let base = rng.gen_range(1usize..16);
        assert_eq!(merge_sort_native(&xs, base), sort_reference(&xs), "case {case}");
    }
}
