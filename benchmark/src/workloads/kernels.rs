//! `kernels-coarse`: one pass of the six `rws-algos` fork-join kernels. The kernels and
//! their allocations dominate and the scheduler does little: this is the control on which
//! a deque, `join` or sleep change must show *no change* and a kernel change shows.

use super::pass::{Kernel, Pass, PassBench};
use super::{open_loops, stream_seed, Ctx, Workload};
use crate::measure::{timed, Closed, Ops, Reporter};
use crate::openloop::OpenLoop;
use crate::spans::Spans;
use crate::stats;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rws_algos::matmul::{MatMulConfig, MmVariant};
use rws_exec::workloads::{
    FftWorkload, ListRankWorkload, MatMulWorkload, PrefixWorkload, SortWorkload, TransposeWorkload,
};
use rws_exec::{Executor, NativeExecutor};
use std::sync::Arc;

/// Open-loop rates for the small request (prefix sums over 2^14 elements).
const IDLE_HZ: f64 = 500.0;
const BUSY_HZ: f64 = 4_000.0;

fn floats(rng: &mut SmallRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// A list over `n` nodes visited in a seeded random order; the tail points to itself.
fn random_list(rng: &mut SmallRng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    let mut succ = vec![0; n];
    for pair in order.windows(2) {
        succ[pair[0]] = pair[1];
    }
    succ[order[n - 1]] = order[n - 1];
    succ
}

fn prefix(rng: &mut SmallRng, n: usize) -> PrefixWorkload {
    PrefixWorkload::new((0..n).map(|_| rng.gen_range(-1000i64..1001)).collect(), 8)
}

pub struct Kernels(PassBench);

impl Workload for Kernels {
    const NAME: &'static str = "kernels-coarse";

    fn setup(ctx: &Ctx) -> Self {
        let mut rng = SmallRng::seed_from_u64(stream_seed(ctx.seed, 2));
        let keys = (0..1 << 17).map(|_| rng.gen_range(0u64..100_000)).collect();
        let signal = floats(&mut rng, 1 << 16).into_iter().zip(floats(&mut rng, 1 << 16)).collect();
        let mm = MatMulConfig::new(64, MmVariant::DepthLog2N).with_base(16);
        let (a, b) = (floats(&mut rng, 64 * 64), floats(&mut rng, 64 * 64));
        let pass = Pass(vec![
            Kernel::new("algos.merge_sort", 1, Arc::new(SortWorkload::new(keys, 16))),
            Kernel::new("algos.fft", 1, Arc::new(FftWorkload::new(signal))),
            Kernel::new(
                "algos.transpose",
                1,
                Arc::new(TransposeWorkload::new(floats(&mut rng, 256 * 256), 256, 16)),
            ),
            Kernel::new("algos.matmul", 1, Arc::new(MatMulWorkload::new(a, b, mm))),
            Kernel::new("algos.prefix", 1, Arc::new(prefix(&mut rng, 1 << 20))),
            Kernel::new(
                "algos.listrank",
                1,
                Arc::new(ListRankWorkload::new(random_list(&mut rng, 1 << 17))),
            ),
        ]);
        let small = Pass(vec![Kernel::new("request", 1, Arc::new(prefix(&mut rng, 1 << 14)))]);
        Kernels(PassBench::new(ctx, pass, small, IDLE_HZ, BUSY_HZ))
    }

    fn closed(&mut self, wide: bool, budget_s: f64, ops: &mut Ops) -> Closed {
        self.0.closed(wide, budget_s, ops)
    }

    fn open(&mut self, busy: bool, budget_s: f64, ops: &mut Ops, spans: &mut Spans) -> OpenLoop {
        self.0.open(busy, budget_s, ops, spans)
    }

    fn layers(&mut self, ctx: &Ctx, ops: &mut Ops, spans: &mut Spans, out: &mut Reporter) {
        self.0.layers(ctx.seconds * 0.55, ops, spans, out);
        open_loops(self, ctx.seconds * 0.2, ops, spans, out);

        // The plain sequential reference of each kernel: the single-threaded baseline.
        for kernel in &self.0.pass.0 {
            let seq: Vec<f64> = (0..9)
                .map(|i| {
                    spans.span("algos.reference", i, |_| timed(|| kernel.work.run_reference()).1)
                })
                .collect();
            out.timing(&format!("{}_seq_ms_p50", kernel.key), &seq);
        }

        // What the `Executor` seam adds to a direct `install` of the same kernel: the small
        // request, alternately both ways, so the seam is not lost in a long kernel's noise.
        let exec = NativeExecutor::new(ctx.threads);
        let kernel = &self.0.small.0[0];
        let (mut direct, mut via_exec) = (Vec::new(), Vec::new());
        for i in 0..2000 {
            let mut run_direct = || {
                let work = Arc::clone(&kernel.work);
                direct.push(timed(|| exec.pool().install(move || work.run_native())).1);
            };
            // Whichever goes second finds the pool warmer: take turns.
            if i % 2 == 0 {
                run_direct();
            }
            let work = Arc::clone(&kernel.work);
            let (outcome, ms) = spans.span("exec.native", i, |_| timed(|| exec.execute(work)));
            ops.check(outcome.output == kernel.expect);
            via_exec.push(ms);
            if i % 2 == 1 {
                run_direct();
            }
        }
        out.value(
            "exec.native_overhead_us",
            (stats::median(&via_exec) - stats::median(&direct)) * 1e3,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_random_list_is_one_path_ending_in_a_self_loop() {
        let mut rng = SmallRng::seed_from_u64(5);
        let succ = random_list(&mut rng, 257);
        let tails: Vec<usize> = (0..257).filter(|&i| succ[i] == i).collect();
        assert_eq!(tails.len(), 1);
        let mut indegree = vec![0; 257];
        succ.iter().enumerate().filter(|(i, s)| i != *s).for_each(|(_, &s)| indegree[s] += 1);
        assert_eq!(indegree.iter().filter(|&&d| d == 0).count(), 1, "one head");
        assert!(indegree.iter().all(|&d| d <= 1), "no node has two predecessors");
        let ranks = rws_algos::listrank::list_ranking_reference(&succ);
        assert_eq!(ranks.iter().max(), Some(&256), "the head is n − 1 hops from the tail");
    }
}
