//! The six workloads. Each one sets up its inputs from the seed, then either measures
//! its end-to-end metrics with tracing off or, in the traced run, fills the rows of the
//! per-layer sheet that belong to the layers it exercises.

use crate::measure::{Closed, Ops, Reporter};
use crate::openloop::OpenLoop;
use crate::spans::Spans;
use std::path::PathBuf;

pub mod dag;
pub mod forkjoin;
pub mod kernels;
pub mod pass;
pub mod service;
pub mod sharded;
pub mod sim;

/// What a run was asked to do.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// The workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// `T`, the wide thread count (`min(nproc, 4)`).
    pub threads: usize,
    /// Seconds of timed region.
    pub seconds: f64,
    /// The `shard-worker` binary `run.sh` built (only `sharded-cold` needs it).
    pub worker: Option<PathBuf>,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// The name `BENCHMARK.json` lists it under.
    const NAME: &'static str;
    /// How many rounds the untraced run's seconds are cut into (see [`measure`]).
    const ROUNDS: usize = 10;

    /// Everything before the timed region: input generation from the seed, reference
    /// outputs, construction and warm-up of the 1-thread pool or server. Timed as
    /// `setup_s`.
    fn setup(ctx: &Ctx) -> Self;

    /// A closed loop of checked iterations for `budget_s` seconds of timed wall, at `T`
    /// threads (`wide`) or at 1.
    fn closed(&mut self, wide: bool, budget_s: f64, ops: &mut Ops) -> Closed;

    /// An open loop of checked small requests for `budget_s` seconds, at the workload's
    /// busy rate or at its idle rate (traced run only).
    fn open(&mut self, busy: bool, budget_s: f64, ops: &mut Ops, spans: &mut Spans) -> OpenLoop;

    /// The traced run: record spans around the calls into each layer and report the
    /// per-layer rows this workload owns, including `harness.span_overhead_rel`.
    fn layers(&mut self, ctx: &Ctx, ops: &mut Ops, spans: &mut Spans, out: &mut Reporter);
}

/// The untraced run: report `cpu_t1_ms_p50`, the processor time of one closed-loop
/// iteration at 1 thread.
///
/// The run's seconds are cut into `ROUNDS` slices; every slice gives the median over its
/// iterations, and the run reports the quartile of those medians on the quiet side
/// ([`Reporter::rounds`]). Processor time already leaves out what the neighbours took of
/// the processor; the quiet quartile also drops the slices in which they crowded the
/// memory system, and (`forkjoin-fine`) the slower of the pool instances.
pub fn measure<W: Workload>(w: &mut W, ctx: &Ctx, ops: &mut Ops, out: &mut Reporter) {
    let slice_s = ctx.seconds / W::ROUNDS as f64;
    let cpu: Vec<Vec<f64>> = (0..W::ROUNDS).map(|_| w.closed(false, slice_s, ops).cpu_ms).collect();
    out.rounds("cpu_t1_ms_p50", &cpu, true);
}

/// The traced run's wall-clock phase, `seconds` long: report `wall_ms_p50` (one iteration
/// at `T` threads), `wall_t1_ms_p50` (at 1) and `jobs_per_s` (iterations per second of
/// timed wall at `T`).
///
/// The two closed loops do not run one after the other but in `ROUNDS` rounds of a slice
/// each, so both metrics' samples are spread over the whole phase, and each metric is read
/// from its quiet rounds ([`Reporter::rounds`]): this host stalls for seconds at a time,
/// and a stall that would swallow one phase whole instead spoils a few rounds of each.
pub fn walls<W: Workload>(w: &mut W, seconds: f64, ops: &mut Ops, out: &mut Reporter) {
    let slice_s = seconds / W::ROUNDS as f64 / 2.0;
    let (mut wide, mut t1, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..W::ROUNDS {
        let closed = w.closed(true, slice_s, ops);
        wide.push(closed.wall_ms);
        rate.push(vec![closed.rate_per_s]);
        t1.push(w.closed(false, slice_s, ops).wall_ms);
    }
    out.rounds("wall_ms_p50", &wide, true);
    out.rounds("wall_t1_ms_p50", &t1, true);
    out.rounds("jobs_per_s", &rate, false);
}

/// The traced run's two open loops, `budget_s` seconds in all: report `lat_idle_us_p50`
/// and `lat_busy_us_p50`, keep the generator's lag, and hand the phases back (idle, busy).
pub fn open_loops<W: Workload>(
    w: &mut W,
    budget_s: f64,
    ops: &mut Ops,
    spans: &mut Spans,
    out: &mut Reporter,
) -> [OpenLoop; 2] {
    [(false, "lat_idle_us_p50"), (true, "lat_busy_us_p50")].map(|(busy, name)| {
        let phase = w.open(busy, budget_s / 2.0, ops, spans);
        out.timing(name, &phase.latency_us);
        out.gen_lag_us.extend_from_slice(&phase.lag_us);
        phase
    })
}

/// The 64-leaf, 1024-element-per-leaf `join` tree every small request is made of
/// (≈5 µs of work): `service-stream`'s job and `forkjoin-fine`'s open-loop request.
pub const SMALL_TREE: u64 = 64 * forkjoin::LEAF;

/// Workers of a pool or server that open-loop requests are sent to: `max(1, T − 1)`. The
/// load generator spins up to each due time, so it needs a processor of its own; with `T`
/// workers beside it the scheduler time-slices them, and whether a worker happens to be
/// still spinning when the next request arrives (6 µs) or has parked (50 µs) becomes luck.
pub fn open_loop_workers(ctx: &Ctx) -> usize {
    ctx.threads.saturating_sub(1).max(1)
}

/// A seed for one input stream of a workload: streams of one run must not share state.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)
}
