//! Scheduler stress through DAG-structured workloads: the shapes that exercise the idle
//! path hardest. A deep chain keeps at most one node runnable, so every other worker
//! cycles through spin → park; a skewed fan-out (one node releasing a wide burst) then
//! demands a prompt wake of the whole parked pool. These tests pin the behaviours the
//! fork-join kernels (balanced trees, mostly-full frontiers) never stress:
//!
//! * correctness of the level-synchronous workflow runner on chain/burst shapes, at every
//!   leaf size, outside a pool and across pool widths;
//! * panic containment: a failing node unwinds out of `Levels::run` without wedging or
//!   poisoning the pool;
//! * BFS's claim of a vertex through `fetch_or` on a shared visited-bitmap word, the one
//!   cross-thread protocol of its leaves: repeated searches on 2 and 4 threads, over a
//!   random graph and over a broom whose wide levels all contend for the same words;
//! * the satellite idle-path claim — steady-state DAG runs are driven by notifications,
//!   not by the 1ms park-backstop timer (a `PoolStats` snapshot's `total_backstop_wakes`
//!   stays flat).

use rws_algos::bfs::{bfs_native, bfs_reference, CsrGraph};
use rws_algos::taskgraph::{
    layered_random, workflow_native, workflow_reference, Levels, TaskGraph,
};
use rws_runtime::ThreadPoolBuilder;
use std::sync::Arc;

/// A spine of `spine` sequential nodes where every `every`-th spine node releases a burst
/// of `width` parallel nodes that all converge into the next spine node — a deep critical
/// path punctuated by skewed fan-outs (the "one heavy frontier" shape).
fn spine_with_bursts(spine: usize, every: usize, width: usize) -> TaskGraph {
    assert!(spine >= 2);
    let bursts = (0..spine - 1).filter(|i| i % every == 0).count();
    let mut g = TaskGraph::new(spine + bursts * width);
    let mut next_burst = spine;
    for i in 0..spine - 1 {
        if i % every == 0 {
            for _ in 0..width {
                g.add_edge(i, next_burst);
                g.add_edge(next_burst, i + 1);
                next_burst += 1;
            }
        } else {
            g.add_edge(i, i + 1);
        }
    }
    g
}

const POOL_WIDTHS: [usize; 3] = [1, 2, 4];

/// A broom: a 300-vertex path into a hub with `leaves` leaves, each pointing back at the
/// hub and on to three of `2 * leaves` twigs (sharing two with its neighbor leaf), which
/// all lead to one sink. Its BFS levels run sparse along the path, dense over the leaves
/// and twigs, and sparse again at the sink.
fn broom(leaves: u32) -> CsrGraph {
    let (hub, twigs) = (300, 301 + leaves);
    let sink = twigs + 2 * leaves;
    let rows = (0..hub)
        .map(|v| vec![v + 1])
        .chain([(hub + 1..twigs).collect()])
        .chain((0..leaves).map(|i| {
            let twig = |k| twigs + (2 * i + k) % (2 * leaves);
            vec![hub, twig(0), twig(1), twig(2)]
        }))
        .chain((twigs..sink).map(|_| vec![sink]))
        .chain([vec![]]);
    let mut g = CsrGraph { row_starts: vec![0], cols: Vec::new() };
    for out in rows {
        g.cols.extend(out);
        g.row_starts.push(g.cols.len() as u32);
    }
    g
}

#[test]
fn bfs_matches_its_reference_under_contended_bitmap_claims() {
    // The frontier chunk of the native kernel is 64 vertices: 3 * 64 + 5 leaves make four
    // chunks, the last a short one, all claiming twigs in shared bitmap words at once.
    const SEARCHES: usize = 100;
    let graphs = [CsrGraph::random(0x57E5, 1 << 14, 4), broom(3 * 64 + 5)].map(Arc::new);
    for threads in [2, 4] {
        let pool = ThreadPoolBuilder::new().threads(threads).build();
        for g in &graphs {
            let expected = bfs_reference(g, 0);
            for run in 0..SEARCHES {
                let on_pool = Arc::clone(g);
                let got = pool.install(move || bfs_native(&on_pool, 0));
                assert!(
                    got == expected,
                    "{threads} threads, {} vertices, search {run}: distances differ",
                    g.vertices()
                );
            }
        }
    }
}

#[test]
fn chain_and_burst_workflows_match_the_reference_on_every_pool_shape() {
    // A nearly pure chain (one burst at the head) and a heavily burst-punctuated spine, whose
    // level order interleaves spine and burst ids: the value semantics must come out
    // schedule-independent at every leaf size, outside a pool and on every width.
    let pools = POOL_WIDTHS.map(|threads| ThreadPoolBuilder::new().threads(threads).build());
    for g in [spine_with_bursts(800, 1000, 8), spine_with_bursts(240, 20, 64)] {
        let expected = workflow_reference(&g);
        let plan = Arc::new(Levels::new(&g));
        for chunk in [1, 3, 4, 64] {
            let what = format!("a {}-node graph, chunk {chunk}", g.len());
            assert_eq!(workflow_native(&plan, chunk), expected, "{what}, no pool");
            for (threads, pool) in POOL_WIDTHS.iter().zip(&pools) {
                let plan = Arc::clone(&plan);
                let got = pool.install(move || workflow_native(&plan, chunk));
                assert_eq!(got, expected, "{what}, {threads} threads");
            }
        }
    }
}

#[test]
fn a_panicking_node_unwinds_cleanly_and_the_pool_survives() {
    // Panic injection from a level body, inside a 16-node burst level (positions 53..69,
    // four leaves of four): the unwind must surface as `try_install`'s `Err`, carrying the
    // original payload (not a pool-internal one), and the same pool must then run
    // a clean pass correctly — panics are quarantined per job, never wedging a worker or
    // leaking a poisoned deque.
    let g = spine_with_bursts(120, 10, 16);
    let plan = Arc::new(Levels::new(&g));
    for threads in POOL_WIDTHS {
        let pool = ThreadPoolBuilder::new().threads(threads).build();
        for round in 0..3 {
            let target = 55 + 5 * round; // vary the failing leaf across rounds
            let pp = Arc::clone(&plan);
            let result = pool.try_install(move || {
                pp.run(4, |i, _| {
                    if i == target {
                        panic!("injected node failure");
                    }
                    std::hint::black_box(i as u64)
                })
            });
            match result {
                Err(payload) => {
                    let msg = payload.downcast::<&'static str>().expect("the original payload");
                    assert_eq!(*msg, "injected node failure");
                }
                Ok(r) => panic!("{threads} threads: expected the node's panic, got {r:?}"),
            }
            // The pool is immediately reusable for a full, correct workflow pass.
            let pc = Arc::clone(&plan);
            assert_eq!(
                pool.install(move || workflow_native(&pc, 4)),
                workflow_reference(&g),
                "{threads} threads: clean run after an injected panic diverged"
            );
        }
    }
}

#[test]
fn steady_state_dag_runs_do_not_lean_on_the_park_backstop() {
    // The counter the submit-path fix made observable: with back-to-back DAG runs keeping
    // the pool saturated in work-arrival notifications, essentially no wake should come
    // from the 1ms backstop timer. Before the fix, every `install` against the
    // between-runs idle pool risked the full backstop tail; now submission broadcasts.
    // The bound is loose (a preempted worker on a loaded 1-CPU CI host can legitimately
    // ride out a timer tick) but far below the one-backstop-per-run a missed-wake
    // submission path produces.
    const RUNS: usize = 200;
    let pool = ThreadPoolBuilder::new().threads(2).build();
    let g = layered_random(7, 6, 16);
    let expected = workflow_reference(&g);
    let plan = Arc::new(Levels::new(&g));
    // Warmup outside the measured window (thread startup, first parks).
    let pw = Arc::clone(&plan);
    assert_eq!(pool.install(move || workflow_native(&pw, 4)), expected);

    let before = pool.stats().snapshot().total_backstop_wakes();
    for _ in 0..RUNS {
        let pr = Arc::clone(&plan);
        assert_eq!(pool.install(move || workflow_native(&pr, 4)), expected);
    }
    let backstops = pool.stats().snapshot().total_backstop_wakes() - before;
    assert!(
        backstops <= (RUNS / 4) as u64,
        "{backstops} backstop wakes across {RUNS} steady-state DAG runs: \
         the pool is leaning on the 1ms timer instead of notifications"
    );
}
