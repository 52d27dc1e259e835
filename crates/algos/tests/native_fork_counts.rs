//! The fork tree of every native HBP kernel, pinned: on a 1-thread pool the `jobs` counter
//! (fork branches executed) of one call is a pure function of the kernel and its size, and
//! each constant below was captured from the commit *before* the kernels were made
//! allocation-lean (the workflow's, the transpose's and rm→bi's are their dags' fork counts
//! instead of constants, and list ranking's is derived from its passes). A kernel that got
//! faster by forking less — a coarser leaf, a skipped level, a collection flattened into a
//! loop — fails here; one that only changed how it obtains its local arrays does not.

use rws_algos::bfs::{bfs_native, CsrGraph};
use rws_algos::fft::{fft_native, Complex};
use rws_algos::listrank::list_ranking_native;
use rws_algos::matmul::matmul_native_bi;
use rws_algos::prefix::prefix_sums_native;
use rws_algos::samplesort::sample_sort_native;
use rws_algos::sort::merge_sort_native;
use rws_algos::spmv::{spmv_native, CsrMatrix};
use rws_algos::taskgraph::{layered_random, workflow_computation, workflow_native, Levels};
use rws_algos::transpose::{
    bi_to_rm_native, rm_to_bi_computation, rm_to_bi_native, transpose_bi_computation,
    transpose_native_bi,
};
use rws_runtime::ThreadPool;

/// `jobs` executed by one `install` of `kernel` on a fresh 1-thread pool — where a lone
/// worker has nobody to steal from, so the pool's steal counters must all still read zero.
fn jobs_of<R: Send + 'static>(kernel: impl FnOnce() -> R + Send + 'static) -> u64 {
    let pool = ThreadPool::new(1);
    let before = pool.stats().snapshot();
    pool.install(kernel);
    let delta = pool.stats().snapshot_delta(&before);
    let retries: u64 = delta.workers.iter().map(|w| w.steal_retries).sum();
    assert_eq!(
        (delta.total_steals(), delta.total_batch_steals(), retries),
        (0, 0, 0),
        "steals, batch steals and steal retries of a 1-thread pool"
    );
    delta.total_jobs()
}

fn floats(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i % 13) as f64 - 6.0).collect()
}

#[test]
fn merge_sort_fork_count_is_pinned() {
    for (n, base, expected) in [(1usize << 12, 16usize, 256u64), (1 << 14, 16, 1024)] {
        let keys: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        assert_eq!(jobs_of(move || merge_sort_native(&keys, base)), expected, "n = {n}");
    }
}

#[test]
fn fft_fork_count_is_pinned() {
    for (n, base, expected) in [(1usize << 10, 16usize, 781u64), (1 << 12, 16, 1549)] {
        let input: Vec<Complex> = (0..n).map(|i| ((i % 17) as f64, (i % 5) as f64)).collect();
        assert_eq!(jobs_of(move || fft_native(&input, base)), expected, "n = {n}");
    }
}

#[test]
fn transpose_pipeline_fork_count_is_pinned() {
    for (n, base, expected) in [(64usize, 16usize, 55u64), (128, 16, 225)] {
        let a = floats(n * n);
        let pipeline = move || {
            let mut bi = rm_to_bi_native(&a, n, base);
            transpose_native_bi(&mut bi, n, base);
            bi_to_rm_native(&bi, n, base)
        };
        assert_eq!(jobs_of(pipeline), expected, "n = {n}");
    }
}

#[test]
fn transpose_and_rm_to_bi_fork_counts_are_the_dags() {
    // Not pinned but derived: both kernels fork their dag's binary tree with nested `join`s,
    // so their jobs are the dag's forks plus the `install`. The last size is the repository
    // benchmark's (`kernels-coarse`).
    for (n, base) in [(64usize, 16usize), (128, 16), (256, 16)] {
        let forks = transpose_bi_computation(n, base).dag.fork_count();
        let mut bi = floats(n * n);
        assert_eq!(jobs_of(move || transpose_native_bi(&mut bi, n, base)), forks + 1, "n = {n}");
        let forks = rm_to_bi_computation(n, base).dag.fork_count();
        let rm = floats(n * n);
        assert_eq!(jobs_of(move || rm_to_bi_native(&rm, n, base)), forks + 1, "n = {n}");
    }
    // The hand counts at the two smaller sizes: a transpose node forks twice, a swap or an
    // rm→bi node three times.
    assert_eq!(transpose_bi_computation(64, 16).dag.fork_count(), 9);
    assert_eq!(rm_to_bi_computation(64, 16).dag.fork_count(), 15);
    assert_eq!(transpose_bi_computation(128, 16).dag.fork_count(), 35);
    assert_eq!(rm_to_bi_computation(128, 16).dag.fork_count(), 63);
}

#[test]
fn matmul_fork_count_is_pinned() {
    for (n, base, expected) in [(32usize, 8usize, 64u64), (64, 8, 512)] {
        let (a, b) = (floats(n * n), floats(n * n));
        assert_eq!(jobs_of(move || matmul_native_bi(&a, &b, n, base)), expected, "n = {n}");
    }
}

#[test]
fn prefix_sums_fork_count_is_pinned() {
    for (n, expected) in [(1usize << 14, 7u64), (1 << 16, 7)] {
        let x: Vec<i64> = (0..n as i64).collect();
        assert_eq!(jobs_of(move || prefix_sums_native(&x)), expected, "n = {n}");
    }
}

#[test]
fn list_ranking_fork_count_is_pinned() {
    // Derived, not captured: on one worker `par_chunks_mut`'s adaptive grain cuts c >= 4
    // chunks into 4 leaves (3 forks) and c = 1 chunk into one leaf (no fork). The three
    // marking passes and the ranking pass each run n / 256 chunks (16 at 2^12, 64 at 2^14);
    // the walk runs n / 4096 (1, then 4). So 4 × 3 + 0 + the `install` = 13 at 2^12 and
    // 5 × 3 + 1 = 16 at 2^14.
    for (n, expected) in [(1usize << 12, 13u64), (1 << 14, 16)] {
        let succ: Vec<usize> = (0..n).map(|i| (i + 1).min(n - 1)).collect();
        assert_eq!(jobs_of(move || list_ranking_native(&succ)), expected, "n = {n}");
    }
}

// The four irregular kernels. The constants of BFS, SpMV and sample sort were printed by the
// commit *before* their bodies stopped allocating per chunk (one region per leaf of a buffer
// allocated once per call); the workflow's count is derived from its dag. The second size of
// each row is the repository benchmark's (`dag-irregular`).

#[test]
fn workflow_fork_count_is_the_dags() {
    // Not pinned but derived: the pool runs the tree the simulator analyses, one balanced
    // pass of `⌈width / 4⌉` leaves per level, so its jobs are the dag's forks plus the
    // `install`.
    for (layers, width) in [(6usize, 24usize), (12, 96)] {
        let plan = Levels::new(&layered_random(11, layers, width));
        let forks = workflow_computation(&plan, 4).dag.fork_count();
        assert_eq!(jobs_of(move || workflow_native(&plan, 4)), forks + 1, "{layers} x {width}");
    }
}

#[test]
fn bfs_fork_count_is_pinned() {
    for (n, expected) in [(1usize << 13, 20u64), (1 << 17, 33)] {
        let g = CsrGraph::random(11, n, 4);
        assert_eq!(jobs_of(move || bfs_native(&g, 0)), expected, "n = {n}");
    }
}

#[test]
fn spmv_fork_count_is_pinned() {
    for (n, expected) in [(150usize, 3u64), (1 << 17, 4)] {
        let m = CsrMatrix::random(11, n, 7);
        let x = floats(n);
        assert_eq!(jobs_of(move || spmv_native(&m, &x)), expected, "n = {n}");
    }
}

#[test]
fn sample_sort_fork_count_is_pinned() {
    for (n, buckets, expected) in [(600usize, 3usize, 5u64), (1 << 16, 256, 7)] {
        let keys: Vec<u64> =
            (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 1_000_000).collect();
        assert_eq!(jobs_of(move || sample_sort_native(&keys, buckets)), expected, "n = {n}");
    }
}
