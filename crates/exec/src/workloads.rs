//! Ready-made [`Workload`]s for the algorithm suite of `rws-algos`.
//!
//! All workloads run a true fork-join decomposition on the native backend: the native
//! kernels in `rws-algos` mirror the work/span structure of the dags the simulator
//! schedules, so a sim-vs-native comparison of any committed workload compares two
//! executions of the *same* algorithm, not a parallel model against a sequential stub.
//! A workload without such a kernel does not belong in this module.
//!
//! `demo` constructors fill inputs from a seeded [`SmallRng`], so runs are deterministic.
//! Constructors validate instance shapes eagerly (power-of-two sizes where the dag builders
//! require them), so a workload that constructs is runnable on *every* backend.

use crate::workload::{part_range, AlgoOutput, ShardSpec, SharedWorkload, Workload};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use rws_algos::bfs::{bfs_computation, bfs_native, bfs_reference, BfsConfig, CsrGraph};
use rws_algos::fft::{
    dft_reference, fft_computation, fft_native, fft_reference, Complex, FftConfig,
};
use rws_algos::listrank::{
    list_ranking_computation, list_ranking_native, list_ranking_reference, ListRankConfig,
};
use rws_algos::matmul::{
    from_bi, matmul_computation, matmul_native_bi, matmul_reference, to_bi, MatMulConfig, MmVariant,
};
use rws_algos::prefix::{
    prefix_sums_computation, prefix_sums_native, prefix_sums_reference, PrefixConfig,
};
use rws_algos::samplesort::{
    sample_sort_computation, sample_sort_native, sample_sort_reference, SampleSortConfig,
};
use rws_algos::sort::{merge_sort_native, sort_computation, sort_reference, SortConfig};
use rws_algos::spmv::{spmv_computation, spmv_native, spmv_reference, CsrMatrix, SpmvConfig};
use rws_algos::taskgraph::{
    layered_random, workflow_computation, workflow_native, workflow_reference, Levels, TaskGraph,
};
use rws_algos::transpose::{
    bi_to_rm_native, rm_to_bi_native, transpose_bi_computation, transpose_native_bi,
    transpose_reference,
};
use rws_dag::Computation;

fn demo_f64(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// Build the deterministic `demo` instance of the workload kind named `kind` (canonical
/// scenario-file names, e.g. `matmul`, `prefix-sums`) at size `n`. `base` feeds the kinds
/// with a recursion-base parameter (`matmul`, `transpose`; clamped to `n`, 0 = default)
/// and is ignored elsewhere. `None` for an unknown kind name.
///
/// This is the one name→constructor table in the workspace: `rws-lab` scenario parsing
/// resolves workload names through it, and `rws-shard` workers use it to rebuild a
/// [`ShardSpec`]-described instance in their own process (the `demo` constructors are
/// seeded, so every process builds byte-identical inputs from the same spec).
pub fn by_name(kind: &str, n: usize, base: usize) -> Option<SharedWorkload> {
    use std::sync::Arc;
    let clamped = |default: usize| if base == 0 { default.min(n) } else { base.min(n) };
    Some(match kind {
        "prefix-sums" => Arc::new(PrefixWorkload::demo(n)),
        "matmul" => Arc::new(MatMulWorkload::demo(n, clamped(4))),
        "merge-sort" => Arc::new(SortWorkload::demo(n)),
        "fft" => Arc::new(FftWorkload::demo(n)),
        "transpose" => Arc::new(TransposeWorkload::demo(n, clamped(4))),
        "list-ranking" => Arc::new(ListRankWorkload::demo(n)),
        "dag-workflow" => Arc::new(DagWorkflowWorkload::demo(n)),
        "bfs" => Arc::new(BfsWorkload::demo(n)),
        "spmv" => Arc::new(SpmvWorkload::demo(n)),
        "sample-sort" => Arc::new(SampleSortWorkload::demo(n)),
        _ => return None,
    })
}

// ------------------------------------------------------------------------------------------

/// Prefix sums (the paper's canonical BP computation) over an `i64` input.
#[derive(Clone, Debug)]
pub struct PrefixWorkload {
    input: Vec<i64>,
    cfg: PrefixConfig,
}

impl PrefixWorkload {
    /// A workload over the given input; `n` must be a multiple of `chunk` and `n / chunk` a
    /// power of two (validated here so a constructed workload runs on every backend, not
    /// just the ones that happen to build the dag).
    pub fn new(input: Vec<i64>, chunk: usize) -> Self {
        let n = input.len();
        assert!(
            chunk >= 1 && n.is_multiple_of(chunk) && (n / chunk).is_power_of_two(),
            "prefix workload needs n / chunk to be a power of two, got n = {n}, chunk = {chunk}"
        );
        let cfg = PrefixConfig::new(n).with_chunk(chunk);
        PrefixWorkload { input, cfg }
    }

    /// A deterministic demo instance over `n` elements (`n` a power-of-two multiple of 8).
    pub fn demo(n: usize) -> Self {
        let mut rng = SmallRng::seed_from_u64(0xBEEF);
        Self::new((0..n).map(|_| rng.gen_range(-1000i64..1001)).collect(), 8.min(n))
    }
}

impl Workload for PrefixWorkload {
    fn name(&self) -> String {
        format!("prefix-sums(n={})", self.input.len())
    }

    fn computation(&self) -> Computation {
        prefix_sums_computation(&self.cfg)
    }

    fn run_native(&self) -> AlgoOutput {
        AlgoOutput::I64(prefix_sums_native(&self.input))
    }

    fn run_reference(&self) -> AlgoOutput {
        AlgoOutput::I64(prefix_sums_reference(&self.input))
    }
}

// ------------------------------------------------------------------------------------------

/// Matrix multiplication (the paper's running example), row-major `f64` inputs.
#[derive(Clone, Debug)]
pub struct MatMulWorkload {
    a: Vec<f64>,
    b: Vec<f64>,
    cfg: MatMulConfig,
    shard_spec: Option<ShardSpec>,
}

impl MatMulWorkload {
    /// A workload multiplying the row-major `n × n` matrices `a` and `b`.
    pub fn new(a: Vec<f64>, b: Vec<f64>, cfg: MatMulConfig) -> Self {
        assert!(
            cfg.n.is_power_of_two() && cfg.base.is_power_of_two() && cfg.base <= cfg.n,
            "matmul workload needs power-of-two n and base <= n"
        );
        assert_eq!(a.len(), cfg.n * cfg.n);
        assert_eq!(b.len(), cfg.n * cfg.n);
        MatMulWorkload { a, b, cfg, shard_spec: None }
    }

    /// A deterministic demo instance: `n × n` limited-access depth-`log² n` multiply.
    /// Demo instances are rebuildable by name, so they also run on the sharded backend
    /// (rows of `C` partition independently; see [`Workload::shard_spec`]).
    pub fn demo(n: usize, base: usize) -> Self {
        let cfg = MatMulConfig::new(n, MmVariant::DepthLog2N).with_base(base);
        let mut w = Self::new(demo_f64(n * n, 0xA11CE), demo_f64(n * n, 0xB0B), cfg);
        w.shard_spec = Some(ShardSpec { kind: "matmul".into(), n, base });
        w
    }
}

/// Compute rows `[row0, row0 + out.len() / n)` of `C = A × B` (row-major `n × n`) into
/// `out` with a fork-join split over the row range — the per-part matmul kernel of the
/// sharded backend. Plain dot products at the base: a part is a genuinely independent
/// slice of the output, summed in a fixed order.
fn matmul_rows_native(a: &[f64], b: &[f64], n: usize, row0: usize, out: &mut [f64]) {
    let rows = out.len() / n;
    if rows <= 2 {
        for (r, row_out) in out.chunks_mut(n).enumerate() {
            let i = row0 + r;
            for (j, slot) in row_out.iter_mut().enumerate() {
                *slot = (0..n).map(|k| a[i * n + k] * b[k * n + j]).sum();
            }
        }
        return;
    }
    let mid = rows / 2;
    let (lo, hi) = out.split_at_mut(mid * n);
    rws_runtime::join(
        || matmul_rows_native(a, b, n, row0, lo),
        || matmul_rows_native(a, b, n, row0 + mid, hi),
    );
}

impl Workload for MatMulWorkload {
    fn name(&self) -> String {
        format!("matmul(n={},{:?})", self.cfg.n, self.cfg.variant)
    }

    fn computation(&self) -> Computation {
        matmul_computation(&self.cfg)
    }

    fn run_native(&self) -> AlgoOutput {
        let n = self.cfg.n;
        let c_bi = matmul_native_bi(&to_bi(&self.a, n), &to_bi(&self.b, n), n, self.cfg.base);
        AlgoOutput::F64(from_bi(&c_bi, n))
    }

    fn run_reference(&self) -> AlgoOutput {
        AlgoOutput::F64(matmul_reference(&self.a, &self.b, self.cfg.n))
    }

    fn shard_spec(&self) -> Option<ShardSpec> {
        self.shard_spec.clone()
    }

    fn run_native_part(&self, part: usize, parts: usize) -> AlgoOutput {
        let n = self.cfg.n;
        let (r0, r1) = part_range(n, part, parts);
        let mut out = vec![0.0; (r1 - r0) * n];
        matmul_rows_native(&self.a, &self.b, n, r0, &mut out);
        AlgoOutput::F64(out)
    }
}

// ------------------------------------------------------------------------------------------

/// HBP merge sort over `u64` keys.
#[derive(Clone, Debug)]
pub struct SortWorkload {
    keys: Vec<u64>,
    cfg: SortConfig,
}

impl SortWorkload {
    /// A workload sorting the given keys (`keys.len()` a power of two, validated here).
    pub fn new(keys: Vec<u64>, base: usize) -> Self {
        assert!(
            keys.len().is_power_of_two() && base.is_power_of_two() && base <= keys.len(),
            "sort workload needs power-of-two key count and base, got n = {}, base = {base}",
            keys.len()
        );
        let cfg = SortConfig::new(keys.len()).with_base(base);
        SortWorkload { keys, cfg }
    }

    /// A deterministic demo instance over `n` keys.
    pub fn demo(n: usize) -> Self {
        let mut rng = SmallRng::seed_from_u64(0x50FA);
        Self::new((0..n).map(|_| rng.gen_range(0u64..100_000)).collect(), 16.min(n.max(1)))
    }
}

impl Workload for SortWorkload {
    fn name(&self) -> String {
        format!("hbp-mergesort(n={})", self.keys.len())
    }

    fn computation(&self) -> Computation {
        sort_computation(&self.cfg)
    }

    fn run_native(&self) -> AlgoOutput {
        AlgoOutput::U64(merge_sort_native(&self.keys, self.cfg.base))
    }

    fn run_reference(&self) -> AlgoOutput {
        AlgoOutput::U64(sort_reference(&self.keys))
    }
}

// ------------------------------------------------------------------------------------------

/// FFT over a complex input (native side runs the fork-join √n-decomposition kernel).
#[derive(Clone, Debug)]
pub struct FftWorkload {
    input: Vec<Complex>,
    cfg: FftConfig,
}

impl FftWorkload {
    /// A workload transforming the given input (`input.len()` a power of two, validated
    /// here).
    pub fn new(input: Vec<Complex>) -> Self {
        assert!(input.len().is_power_of_two(), "fft workload needs a power-of-two length");
        let cfg = FftConfig::new(input.len());
        FftWorkload { input, cfg }
    }

    /// A deterministic demo instance over `n` points.
    pub fn demo(n: usize) -> Self {
        let re = demo_f64(n, 0xF0F1);
        let im = demo_f64(n, 0xF0F2);
        Self::new(re.into_iter().zip(im).collect())
    }

    fn flatten(out: Vec<Complex>) -> AlgoOutput {
        // Sized up front: a `flat_map`'s lower size hint is 0, so collecting one grows the
        // vector by repeated reallocation.
        let mut flat = Vec::with_capacity(2 * out.len());
        flat.extend(out.into_iter().flat_map(|(re, im)| [re, im]));
        AlgoOutput::F64(flat)
    }

    /// The `O(n²)` DFT oracle, for validating both backends externally.
    pub fn dft(&self) -> AlgoOutput {
        Self::flatten(dft_reference(&self.input))
    }
}

impl Workload for FftWorkload {
    fn name(&self) -> String {
        format!("fft(n={})", self.input.len())
    }

    fn computation(&self) -> Computation {
        fft_computation(&self.cfg)
    }

    fn run_native(&self) -> AlgoOutput {
        Self::flatten(fft_native(&self.input, self.cfg.base))
    }

    fn run_reference(&self) -> AlgoOutput {
        Self::flatten(fft_reference(&self.input))
    }
}

// ------------------------------------------------------------------------------------------

/// Matrix transpose in the bit-interleaved layout (native side runs the quadrant-recursive
/// fork-join kernels: RM→BI conversion, in-place BI transpose, BI→RM conversion).
#[derive(Clone, Debug)]
pub struct TransposeWorkload {
    a: Vec<f64>,
    n: usize,
    base: usize,
}

impl TransposeWorkload {
    /// A workload transposing the row-major `n × n` matrix `a` (`n` and `base` powers of
    /// two, validated here so a constructed workload runs on every backend).
    pub fn new(a: Vec<f64>, n: usize, base: usize) -> Self {
        assert!(
            n.is_power_of_two() && base.is_power_of_two() && base >= 1 && base <= n,
            "transpose workload needs power-of-two n and base <= n, got n = {n}, base = {base}"
        );
        assert_eq!(a.len(), n * n);
        TransposeWorkload { a, n, base }
    }

    /// A deterministic demo instance.
    pub fn demo(n: usize, base: usize) -> Self {
        Self::new(demo_f64(n * n, 0x7A05), n, base)
    }
}

impl Workload for TransposeWorkload {
    fn name(&self) -> String {
        format!("transpose(n={})", self.n)
    }

    fn computation(&self) -> Computation {
        transpose_bi_computation(self.n, self.base)
    }

    fn run_native(&self) -> AlgoOutput {
        // The full native pipeline over the BI layout: convert in, transpose in place,
        // convert back out — three fork-join kernels, all exercised by one run.
        let mut bi = rm_to_bi_native(&self.a, self.n, self.base);
        transpose_native_bi(&mut bi, self.n, self.base);
        AlgoOutput::F64(bi_to_rm_native(&bi, self.n, self.base))
    }

    fn run_reference(&self) -> AlgoOutput {
        AlgoOutput::F64(transpose_reference(&self.a, self.n))
    }
}

// ------------------------------------------------------------------------------------------

/// List ranking (Type-3/4 workload; the simulator runs pointer-jumping rounds, the native
/// side a sparse ruling set).
#[derive(Clone, Debug)]
pub struct ListRankWorkload {
    succ: Vec<usize>,
    cfg: ListRankConfig,
}

impl ListRankWorkload {
    /// A workload ranking the list given by the successor array `succ`.
    pub fn new(succ: Vec<usize>) -> Self {
        let cfg = ListRankConfig::new(succ.len());
        ListRankWorkload { succ, cfg }
    }

    /// A deterministic demo instance over `n` nodes: one chain visiting the nodes in a
    /// seeded shuffled order, its last node a self-loop tail. (The dag depends on `n` only.)
    pub fn demo(n: usize) -> Self {
        let mut rng = SmallRng::seed_from_u64(0x115F);
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        let mut succ = vec![0; n];
        for pair in order.windows(2) {
            succ[pair[0]] = pair[1];
        }
        if let Some(&tail) = order.last() {
            succ[tail] = tail;
        }
        Self::new(succ)
    }
}

impl Workload for ListRankWorkload {
    fn name(&self) -> String {
        format!("list-ranking(n={})", self.succ.len())
    }

    fn computation(&self) -> Computation {
        list_ranking_computation(&self.cfg)
    }

    fn run_native(&self) -> AlgoOutput {
        AlgoOutput::I64(list_ranking_native(&self.succ).into_iter().map(|r| r as i64).collect())
    }

    fn run_reference(&self) -> AlgoOutput {
        AlgoOutput::I64(list_ranking_reference(&self.succ).into_iter().map(|r| r as i64).collect())
    }
}

// ------------------------------------------------------------------------------------------

/// An arbitrary-dependency task graph run one level at a time, each level one balanced pass
/// of `chunk`-node leaves (measured-only: the level widths are data-dependent, so no paper
/// bound applies).
#[derive(Clone, Debug)]
pub struct DagWorkflowWorkload {
    graph: TaskGraph,
    levels: Levels,
    chunk: usize,
}

impl DagWorkflowWorkload {
    /// A workload over the given acyclic task graph. Its level plan is built here, once for
    /// every run; that validates acyclicity eagerly, so a constructed workload runs — and
    /// terminates — on every backend.
    pub fn new(graph: TaskGraph, chunk: usize) -> Self {
        assert!(!graph.is_empty(), "dag-workflow needs at least one node");
        let levels = Levels::new(&graph);
        DagWorkflowWorkload { graph, levels, chunk: chunk.max(1) }
    }

    /// A deterministic demo instance with roughly `n` nodes: a layered random dag,
    /// `log₂ n` layers wide enough to keep a frontier in flight.
    pub fn demo(n: usize) -> Self {
        let layers = (n.max(4).ilog2() as usize).max(2);
        let width = (n / layers).max(1);
        Self::new(layered_random(0xDA6, layers, width), 4)
    }
}

impl Workload for DagWorkflowWorkload {
    fn name(&self) -> String {
        format!("dag-workflow(n={})", self.graph.len())
    }

    fn computation(&self) -> Computation {
        workflow_computation(&self.levels, self.chunk)
    }

    fn run_native(&self) -> AlgoOutput {
        AlgoOutput::U64(workflow_native(&self.levels, self.chunk))
    }

    fn run_reference(&self) -> AlgoOutput {
        AlgoOutput::U64(workflow_reference(&self.graph))
    }
}

// ------------------------------------------------------------------------------------------

/// Level-synchronized BFS on a seeded random graph (measured-only: the frontier is
/// data-dependent, so the balanced fork-join analysis does not apply).
#[derive(Clone, Debug)]
pub struct BfsWorkload {
    graph: CsrGraph,
    cfg: BfsConfig,
}

impl BfsWorkload {
    /// A workload searching `graph` from `src`.
    pub fn new(graph: CsrGraph, src: usize) -> Self {
        assert!(src < graph.vertices(), "bfs source must be a vertex of the graph");
        BfsWorkload { graph, cfg: BfsConfig { src, ..BfsConfig::new() } }
    }

    /// A deterministic demo instance: `n` vertices, ring-connected plus up to 4 random
    /// out-edges per vertex, searched from vertex 0.
    pub fn demo(n: usize) -> Self {
        Self::new(CsrGraph::random(0xBF5, n, 4), 0)
    }
}

impl Workload for BfsWorkload {
    fn name(&self) -> String {
        format!("bfs(n={})", self.graph.vertices())
    }

    fn computation(&self) -> Computation {
        bfs_computation(&self.graph, &self.cfg)
    }

    fn run_native(&self) -> AlgoOutput {
        AlgoOutput::I64(bfs_native(&self.graph, self.cfg.src))
    }

    fn run_reference(&self) -> AlgoOutput {
        AlgoOutput::I64(bfs_reference(&self.graph, self.cfg.src))
    }
}

// ------------------------------------------------------------------------------------------

/// CSR sparse matrix–vector multiply (irregular data, regular structure: one balanced BP
/// pass, so the paper's bound checks still apply in the lab).
#[derive(Clone, Debug)]
pub struct SpmvWorkload {
    matrix: CsrMatrix,
    x: Vec<f64>,
    cfg: SpmvConfig,
    shard_spec: Option<ShardSpec>,
}

impl SpmvWorkload {
    /// A workload multiplying `matrix` by `x` (dimension match validated eagerly).
    pub fn new(matrix: CsrMatrix, x: Vec<f64>) -> Self {
        assert_eq!(x.len(), matrix.ncols, "x must have one entry per matrix column");
        SpmvWorkload { matrix, x, cfg: SpmvConfig::new(), shard_spec: None }
    }

    /// A deterministic demo instance: a seeded random `n × n` matrix (diagonal plus up to
    /// 7 extras per row) against a seeded dense vector. Demo instances are rebuildable by
    /// name, so they also run on the sharded backend (rows of `y` partition
    /// independently; see [`Workload::shard_spec`]).
    pub fn demo(n: usize) -> Self {
        let mut w = Self::new(CsrMatrix::random(0x59A2, n, 7), demo_f64(n, 0x59A3));
        w.shard_spec = Some(ShardSpec { kind: "spmv".into(), n, base: 0 });
        w
    }
}

impl Workload for SpmvWorkload {
    fn name(&self) -> String {
        format!("spmv(n={})", self.matrix.nrows())
    }

    fn computation(&self) -> Computation {
        spmv_computation(&self.matrix, &self.cfg)
    }

    fn run_native(&self) -> AlgoOutput {
        AlgoOutput::F64(spmv_native(&self.matrix, &self.x))
    }

    fn run_reference(&self) -> AlgoOutput {
        AlgoOutput::F64(spmv_reference(&self.matrix, &self.x))
    }

    fn shard_spec(&self) -> Option<ShardSpec> {
        self.shard_spec.clone()
    }

    fn run_native_part(&self, part: usize, parts: usize) -> AlgoOutput {
        // The part's rows, rebased into a matrix of their own, run through `spmv_native`.
        let m = &self.matrix;
        let (r0, r1) = part_range(m.nrows(), part, parts);
        let (e0, e1) = (m.row_starts[r0], m.row_starts[r1]);
        let band = CsrMatrix {
            ncols: m.ncols,
            row_starts: m.row_starts[r0..=r1].iter().map(|&e| e - e0).collect(),
            cols: m.cols[e0..e1].to_vec(),
            vals: m.vals[e0..e1].to_vec(),
        };
        AlgoOutput::F64(spmv_native(&band, &self.x))
    }
}

// ------------------------------------------------------------------------------------------

/// Three-phase sample sort (measured-only: bucket sizes are data-dependent, and the skewed
/// per-bucket fan-out is exactly what the scheduler stress tests lean on).
#[derive(Clone, Debug)]
pub struct SampleSortWorkload {
    keys: Vec<u64>,
    cfg: SampleSortConfig,
}

impl SampleSortWorkload {
    /// A workload sorting the given keys into `buckets` buckets.
    pub fn new(keys: Vec<u64>, buckets: usize) -> Self {
        assert!(!keys.is_empty(), "sample sort needs at least one key");
        SampleSortWorkload { keys, cfg: SampleSortConfig::new(buckets) }
    }

    /// A deterministic demo instance over `n` seeded keys with `√n` buckets.
    pub fn demo(n: usize) -> Self {
        let mut rng = SmallRng::seed_from_u64(0x5A3E);
        let keys = (0..n).map(|_| rng.gen_range(0u64..1_000_000)).collect();
        Self::new(keys, (n as f64).sqrt() as usize)
    }
}

impl Workload for SampleSortWorkload {
    fn name(&self) -> String {
        format!("sample-sort(n={})", self.keys.len())
    }

    fn computation(&self) -> Computation {
        sample_sort_computation(&self.keys, &self.cfg)
    }

    fn run_native(&self) -> AlgoOutput {
        AlgoOutput::U64(sample_sort_native(&self.keys, self.cfg.buckets))
    }

    fn run_reference(&self) -> AlgoOutput {
        AlgoOutput::U64(sample_sort_reference(&self.keys))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Every committed workload at a small demo size — the list each enumerating test
    /// walks, so adding a workload without updating the suite fails loudly here.
    fn full_suite() -> Vec<Box<dyn Workload>> {
        vec![
            Box::new(PrefixWorkload::demo(256)),
            Box::new(MatMulWorkload::demo(8, 2)),
            Box::new(SortWorkload::demo(256)),
            Box::new(FftWorkload::demo(64)),
            Box::new(TransposeWorkload::demo(8, 2)),
            Box::new(ListRankWorkload::demo(64)),
            Box::new(DagWorkflowWorkload::demo(64)),
            Box::new(BfsWorkload::demo(64)),
            Box::new(SpmvWorkload::demo(64)),
            Box::new(SampleSortWorkload::demo(64)),
        ]
    }

    #[test]
    fn demo_inputs_are_deterministic() {
        let a = PrefixWorkload::demo(256);
        let b = PrefixWorkload::demo(256);
        assert_eq!(a.input, b.input);
        let m1 = MatMulWorkload::demo(8, 2);
        let m2 = MatMulWorkload::demo(8, 2);
        assert_eq!(m1.a, m2.a);
        assert_eq!(m1.b, m2.b);
        for (x, y) in full_suite().iter().zip(full_suite().iter()) {
            assert_eq!(x.run_reference(), y.run_reference(), "{}", x.name());
        }
    }

    #[test]
    fn the_list_ranking_demo_is_one_shuffled_chain() {
        // Ranked, one shuffled chain of n nodes reads every distance 0 .. n - 1 once and is
        // not the identity order.
        let n = 256;
        let demo = ListRankWorkload::demo(n);
        let mut ranks = list_ranking_reference(&demo.succ);
        assert_ne!(demo.succ, (0..n).map(|i| (i + 1).min(n - 1)).collect::<Vec<_>>());
        ranks.sort_unstable();
        assert_eq!(ranks, (0..n as u64).collect::<Vec<_>>());
    }

    #[test]
    fn native_matches_reference_for_all_workloads_outside_a_pool() {
        for w in &full_suite() {
            assert_eq!(w.run_native(), w.run_reference(), "{}", w.name());
        }
    }

    #[test]
    fn computations_build_and_validate() {
        for w in &full_suite() {
            let comp = w.computation();
            assert!(comp.check_properties().is_empty(), "{}", w.name());
            assert!(comp.dag.work() > 0);
        }
    }

    #[test]
    fn new_workload_demos_construct_at_the_sweep_floor() {
        // The lab's sweep test instantiates every workload kind at n = 16; the demo
        // constructors must accept it.
        for w in [
            Box::new(DagWorkflowWorkload::demo(16)) as Box<dyn Workload>,
            Box::new(BfsWorkload::demo(16)),
            Box::new(SpmvWorkload::demo(16)),
            Box::new(SampleSortWorkload::demo(16)),
        ] {
            assert_eq!(w.run_native(), w.run_reference(), "{}", w.name());
            assert!(w.computation().check_properties().is_empty(), "{}", w.name());
        }
    }

    #[test]
    fn fft_reference_agrees_with_dft() {
        let w = FftWorkload::demo(32);
        assert_eq!(w.run_reference(), w.dft());
    }

    #[test]
    fn by_name_builds_every_canonical_kind_and_rejects_strangers() {
        for kind in [
            "prefix-sums",
            "matmul",
            "merge-sort",
            "fft",
            "transpose",
            "list-ranking",
            "dag-workflow",
            "bfs",
            "spmv",
            "sample-sort",
        ] {
            let w = by_name(kind, 16, 0).unwrap_or_else(|| panic!("{kind} must resolve"));
            assert_eq!(w.run_native(), w.run_reference(), "{kind}");
        }
        assert!(by_name("quickhull", 16, 0).is_none());
    }

    #[test]
    fn by_name_rebuilds_the_instance_a_shard_spec_describes() {
        // The worker-side contract: feeding a workload's own shard spec back through the
        // registry must yield an instance with identical outputs (the demo constructors
        // are seeded, so "identical" is exact, not just tolerance-equal).
        for w in [
            Arc::new(MatMulWorkload::demo(8, 2)) as SharedWorkload,
            Arc::new(SpmvWorkload::demo(64)),
        ] {
            let spec = w.shard_spec().expect("demo instances are shardable");
            let rebuilt = by_name(&spec.kind, spec.n, spec.base).expect("spec kind resolves");
            assert_eq!(rebuilt.run_reference(), w.run_reference(), "{}", w.name());
            assert_eq!(rebuilt.name(), w.name());
        }
    }

    #[test]
    fn shard_parts_concatenate_to_the_full_native_output() {
        for w in [
            Arc::new(MatMulWorkload::demo(8, 2)) as SharedWorkload,
            Arc::new(SpmvWorkload::demo(100)),
        ] {
            for parts in [1, 2, 3, 7, 16] {
                let joined = AlgoOutput::concat((0..parts).map(|p| w.run_native_part(p, parts)))
                    .expect("same-variant parts");
                assert_eq!(joined, w.run_native(), "{} at {parts} parts", w.name());
                assert_eq!(joined, w.run_reference(), "{} at {parts} parts", w.name());
            }
        }
    }

    #[test]
    fn custom_input_workloads_decline_to_shard() {
        // A workload built from caller-supplied data has no spec another process could
        // rebuild it from; only the seeded demo constructors opt in.
        let custom = MatMulWorkload::new(
            vec![1.0; 16],
            vec![2.0; 16],
            MatMulConfig::new(4, MmVariant::DepthLog2N).with_base(2),
        );
        assert!(custom.shard_spec().is_none());
        assert!(PrefixWorkload::demo(64).shard_spec().is_none(), "prefix has no partition yet");
    }
}
