//! `dag-irregular`: the runtime layers `forkjoin-fine` leans on, used the other way —
//! `scope`, `par_iter` and the task-graph runner over sparse, data-dependent frontiers, so
//! thieves and park→wake carry the load instead of the owner's fast path. A steal-path
//! gain that taxes the fast path (or the reverse) shows as the two workloads moving apart.

use super::pass::{Kernel, Pass, PassBench};
use super::{open_loops, stream_seed, Ctx, Workload};
use crate::measure::{Closed, Ops, Reporter};
use crate::openloop::OpenLoop;
use crate::probes;
use crate::spans::Spans;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rws_algos::bfs::CsrGraph;
use rws_algos::spmv::CsrMatrix;
use rws_algos::taskgraph::layered_random;
use rws_exec::workloads::{BfsWorkload, DagWorkflowWorkload, SampleSortWorkload, SpmvWorkload};
use std::sync::Arc;

/// Open-loop rates for the small request (a 4-layer × 16-wide workflow graph).
const IDLE_HZ: f64 = 1_000.0;
const BUSY_HZ: f64 = 8_000.0;

pub struct DagIrregular(PassBench);

impl Workload for DagIrregular {
    const NAME: &'static str = "dag-irregular";

    fn setup(ctx: &Ctx) -> Self {
        let seed = |stream: u64| stream_seed(ctx.seed, 30 + stream);
        let mut rng = SmallRng::seed_from_u64(seed(0));
        let x = (0..1 << 17).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let keys = (0..1 << 16).map(|_| rng.gen_range(0u64..1_000_000)).collect();
        let workflow = |seed, layers, width| {
            Arc::new(DagWorkflowWorkload::new(layered_random(seed, layers, width), 4))
        };
        let pass = Pass(vec![
            Kernel::new("algos.workflow", 20, workflow(seed(1), 12, 96)),
            Kernel::new(
                "algos.bfs",
                1,
                Arc::new(BfsWorkload::new(CsrGraph::random(seed(2), 1 << 17, 4), 0)),
            ),
            Kernel::new(
                "algos.spmv",
                1,
                Arc::new(SpmvWorkload::new(CsrMatrix::random(seed(3), 1 << 17, 7), x)),
            ),
            Kernel::new("algos.samplesort", 1, Arc::new(SampleSortWorkload::new(keys, 1 << 8))),
        ]);
        let small = Pass(vec![Kernel::new("request", 1, workflow(seed(4), 4, 16))]);
        DagIrregular(PassBench::new(ctx, pass, small, IDLE_HZ, BUSY_HZ))
    }

    fn closed(&mut self, wide: bool, budget_s: f64, ops: &mut Ops) -> Closed {
        self.0.closed(wide, budget_s, ops)
    }

    fn open(&mut self, busy: bool, budget_s: f64, ops: &mut Ops, spans: &mut Spans) -> OpenLoop {
        self.0.open(busy, budget_s, ops, spans)
    }

    fn layers(&mut self, ctx: &Ctx, ops: &mut Ops, spans: &mut Spans, out: &mut Reporter) {
        self.0.layers(ctx.seconds * 0.7, ops, spans, out);
        open_loops(self, ctx.seconds * 0.2, ops, spans, out);
        probes::scope_and_par_iter(self.0.pool(), spans, out);
        probes::install_paths(self.0.pool_open(), spans, out);
    }
}
