//! The native HBP kernels take their local arrays from one workspace per top-level call,
//! split down the recursion beside the data — not from a `Vec` per recursion node. So the
//! number of heap allocations one call makes is a small constant: it does not grow when the
//! input grows fourfold (more nodes, more levels), and it stays under the ceiling stated
//! for each kernel below.
//!
//! Counts are the measuring worker's own (see `tests/support/counting_alloc.rs`) on a
//! 1-thread pool, where no branch is ever stolen and every fork runs inline, after one
//! warm call has paid for lazy one-time set-up.

use rws_algos::bfs::{bfs_native, bfs_reference, CsrGraph};
use rws_algos::fft::{fft_native, Complex};
use rws_algos::listrank::list_ranking_native;
use rws_algos::matmul::matmul_native_bi;
use rws_algos::samplesort::sample_sort_native;
use rws_algos::sort::merge_sort_native;
use rws_algos::spmv::{spmv_native, CsrMatrix};
use rws_algos::taskgraph::{layered_random, workflow_native, Levels};
use rws_algos::transpose::{bi_to_rm_native, rm_to_bi_native, transpose_native_bi};
use rws_runtime::ThreadPool;
use std::sync::Arc;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{thread_allocations, CountingAllocator};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations the pool's worker makes during the second of two calls of `kernel`.
fn allocations_of<R: Send + 'static>(kernel: impl Fn() -> R + Send + Sync + 'static) -> u64 {
    let pool = ThreadPool::new(1);
    let kernel = Arc::new(kernel);
    let warm = Arc::clone(&kernel);
    pool.install(move || drop(warm()));
    pool.install(move || {
        let before = thread_allocations();
        let result = kernel();
        let after = thread_allocations();
        drop(result);
        after - before
    })
}

/// `kernel_at(size)` allocates the same at both sizes, and no more than `ceiling`.
fn assert_constant<K, R>(
    name: &str,
    sizes: [usize; 2],
    ceiling: u64,
    kernel_at: impl Fn(usize) -> K,
) where
    K: Fn() -> R + Send + Sync + 'static,
    R: Send + 'static,
{
    let [small, large] = sizes.map(|size| allocations_of(kernel_at(size)));
    assert_eq!(small, large, "{name}: allocations grew with the input ({sizes:?})");
    assert!(large <= ceiling, "{name}: {large} allocations per call, ceiling {ceiling}");
}

fn floats(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i % 13) as f64 - 6.0).collect()
}

#[test]
fn merge_sort_allocates_its_result_and_one_workspace() {
    assert_constant("merge sort", [1 << 12, 1 << 14], 3, |n| {
        let keys: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        move || merge_sort_native(&keys, 16)
    });
}

#[test]
fn fft_allocates_its_table_result_and_one_workspace() {
    assert_constant("fft", [1 << 10, 1 << 12], 4, |n| {
        let input: Vec<Complex> = (0..n).map(|i| ((i % 17) as f64, (i % 5) as f64)).collect();
        move || fft_native(&input, 16)
    });
}

#[test]
fn transpose_pipeline_allocates_per_kernel_not_per_node() {
    assert_constant("transpose pipeline", [64, 128], 6, |n| {
        let a = floats(n * n);
        move || {
            let mut bi = rm_to_bi_native(&a, n, 16);
            transpose_native_bi(&mut bi, n, 16);
            bi_to_rm_native(&bi, n, 16)
        }
    });
}

#[test]
fn matmul_allocates_its_result_and_one_workspace() {
    assert_constant("matmul", [32, 64], 4, |n| {
        let (a, b) = (floats(n * n), floats(n * n));
        move || matmul_native_bi(&a, &b, n, 8)
    });
}

#[test]
fn list_ranking_allocates_blocks_predecessors_links_and_its_result() {
    // The block table, the predecessor words, the rulers' links and the node words, which
    // become the result in place (as the links become the rulers' ranks).
    assert_constant("list ranking", [1 << 12, 1 << 14], 4, |n| {
        let succ: Vec<usize> = (0..n).map(|i| (i + 1).min(n - 1)).collect();
        move || list_ranking_native(&succ)
    });
}

// The irregular kernels: a leaf writes its own region of a buffer allocated once per call
// (sample sort, SpMV, the workflow) or grown at most once per level (BFS), never a `Vec` of
// its own.

#[test]
fn sample_sort_allocates_per_call_not_per_chunk_or_bucket() {
    // Sample and splitters, `runs`, the offset table and its row handles, bucket sizes,
    // the output and its slice handles.
    assert_constant("sample sort", [1 << 14, 1 << 16], 8, |n| {
        let keys: Vec<u64> =
            (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 1_000_000).collect();
        move || sample_sort_native(&keys, 256)
    });
}

#[test]
fn bfs_allocates_per_level_not_per_frontier_chunk() {
    for n in [1usize << 13, 1 << 17] {
        let g = Arc::new(CsrGraph::random(11, n, 4));
        let levels = bfs_reference(&g, 0).into_iter().max().expect("a vertex") as u64 + 1;
        let allocations = allocations_of(move || bfs_native(&g, 0));
        // Per level: the region handles, and at most one growth each of the discovery
        // buffer and the frontier. Per search: the distances, the visited bitmap `seen`,
        // its previous-level copy `prev` and the first frontier. Few levels grow both
        // buffers, so `+ 2` still covers the four (34 of 41 at 2^13, 43 of 56 at 2^17).
        assert!(
            allocations <= 3 * levels + 2,
            "bfs, n = {n}: {allocations} allocations over {levels} levels"
        );
    }
}

#[test]
fn spmv_allocates_its_result() {
    assert_constant("spmv", [1 << 13, 1 << 17], 1, |n| {
        let m = CsrMatrix::random(11, n, 7);
        let x = floats(n);
        move || spmv_native(&m, &x)
    });
}

#[test]
fn workflow_allocates_its_values_and_its_result() {
    // The level plan is built once per graph, outside the call; a call allocates the values
    // in level order and the result in node-id order (6 x 48 and 12 x 96 nodes).
    assert_constant("workflow", [6, 12], 2, |layers| {
        let plan = Levels::new(&layered_random(11, layers, 8 * layers));
        move || workflow_native(&plan, 4)
    });
}
