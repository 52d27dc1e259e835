//! A native task-graph runner: execute an arbitrary dependency DAG on the `rws-runtime`
//! work-stealing pool via atomic indegree counting and [`rws_runtime::scope()`] spawns.
//!
//! Unlike the series-parallel computations the rest of the suite builds, a [`TaskGraph`]'s
//! dependencies are unrestricted: any acyclic edge set over `n` nodes. Execution seeds the
//! scope with every zero-indegree root; when a node finishes it decrements each successor's
//! indegree and spawns exactly the successors whose count it drove to zero (the classic
//! last-parent-spawns rule), so a node runs exactly once, after all its predecessors.
//!
//! This is the shape that finally stresses the pool's idle path: a deep chain keeps one
//! worker busy while the rest park, and every dependency resolution is a wake-or-miss
//! event — the workloads built on this runner are what turned the submit-path missed-wake
//! and the silent backstop timer into regression-tested fixes.
//!
//! For the simulator, [`TaskGraph::levels`] exposes the level-synchronized view (longest
//! path from any root): an SP dag cannot encode arbitrary cross edges, so the sim encoding
//! over-approximates with a barrier between consecutive levels, which is exactly the
//! structure the level-synchronized workloads (`bfs`, `dag-workflow`) execute anyway.

use rws_runtime::{scope, Scope};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// An arbitrary dependency DAG over `n` nodes, stored as successor lists plus indegrees.
#[derive(Clone, Debug, Default)]
pub struct TaskGraph {
    succs: Vec<Vec<u32>>,
    indegree: Vec<u32>,
}

impl TaskGraph {
    /// A graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        TaskGraph { succs: vec![Vec::new(); n], indegree: vec![0; n] }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// Add a dependency edge: `to` cannot start until `from` has finished.
    pub fn add_edge(&mut self, from: usize, to: usize) {
        assert!(from < self.len() && to < self.len() && from != to, "edge ({from}, {to})");
        self.succs[from].push(to as u32);
        self.indegree[to] += 1;
    }

    /// The successors of `node`.
    pub fn successors(&self, node: usize) -> &[u32] {
        &self.succs[node]
    }

    /// The number of predecessors of `node`.
    pub fn indegree(&self, node: usize) -> u32 {
        self.indegree[node]
    }

    /// A topological order of the nodes, or `None` if the edge set has a cycle. This is the
    /// sequential mirror of [`TaskGraph::run`]: references iterate it in order.
    pub fn topo_order(&self) -> Option<Vec<usize>> {
        let mut indeg = self.indegree.clone();
        let mut order: Vec<usize> = (0..self.len()).filter(|&v| indeg[v] == 0).collect();
        let mut head = 0;
        while head < order.len() {
            let v = order[head];
            head += 1;
            for &s in &self.succs[v] {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    order.push(s as usize);
                }
            }
        }
        (order.len() == self.len()).then_some(order)
    }

    /// Group the nodes by level (longest path from any root), in level order. This is the
    /// level-synchronized view the simulator encodes: a barrier between consecutive levels
    /// is the tightest series-parallel over-approximation of the edge set.
    ///
    /// Panics if the graph is cyclic.
    pub fn levels(&self) -> Vec<Vec<usize>> {
        let order = self.topo_order().expect("levels() requires an acyclic graph");
        let mut level = vec![0usize; self.len()];
        let mut max_level = 0;
        for &v in &order {
            for &s in &self.succs[v] {
                let cand = level[v] + 1;
                if cand > level[s as usize] {
                    level[s as usize] = cand;
                    max_level = max_level.max(cand);
                }
            }
        }
        let mut groups: Vec<Vec<usize>> =
            vec![Vec::new(); if self.is_empty() { 0 } else { max_level + 1 }];
        for v in 0..self.len() {
            groups[level[v]].push(v);
        }
        groups
    }

    /// Execute every node exactly once, respecting the dependency edges, on the current
    /// pool (sequentially when called outside a pool worker, like every runtime primitive).
    ///
    /// `body(node)` runs after all of `node`'s predecessors have finished; the last
    /// finishing predecessor spawns it. Panics if the graph is cyclic (some nodes can
    /// never run) — and a panicking `body` propagates out of the enclosing scope after
    /// all currently-runnable siblings have settled.
    pub fn run<F>(&self, body: &F)
    where
        F: Fn(usize) + Sync,
    {
        let indeg: Vec<AtomicU32> = self.indegree.iter().map(|&d| AtomicU32::new(d)).collect();
        let indeg_ref = &indeg;
        scope(|s| {
            for v in 0..self.len() {
                if self.indegree[v] == 0 {
                    s.spawn(move |s| run_node(s, self, indeg_ref, body, v));
                }
            }
        });
        // A node ran iff its indegree reached zero, so a residue is a node that never ran —
        // on a cycle or below one. Relaxed: the scope's exit orders every decrement first.
        assert!(
            indeg.iter().all(|d| d.load(Ordering::Relaxed) == 0),
            "task graph has a cycle: not every node became runnable"
        );
    }
}

/// Run one node, then spawn every successor whose indegree this node drove to zero.
fn run_node<'scope, F>(
    s: &Scope<'scope>,
    graph: &'scope TaskGraph,
    indeg: &'scope [AtomicU32],
    body: &'scope F,
    node: usize,
) where
    F: Fn(usize) + Sync,
{
    body(node);
    for &succ in graph.successors(node) {
        // AcqRel: the release half publishes this node's writes to whoever spawns the
        // successor; the acquire half imports every other predecessor's writes when this
        // decrement is the one that reaches zero.
        if indeg[succ as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
            s.spawn(move |s| run_node(s, graph, indeg, body, succ as usize));
        }
    }
}

/// A seeded layered random DAG: `layers` layers of `width` nodes; every node in layer
/// `i > 0` depends on one to three distinct nodes of layer `i - 1` (so the graph is
/// connected level to level and its [`TaskGraph::levels`] match the construction layers).
///
/// Deterministic in `seed` (a self-contained xorshift; no external RNG dependency).
pub fn layered_random(seed: u64, layers: usize, width: usize) -> TaskGraph {
    assert!(layers > 0 && width > 0, "a layered dag needs at least one node");
    let mut g = TaskGraph::new(layers * width);
    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64*: deterministic, well-mixed, dependency-free.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    for layer in 1..layers {
        for col in 0..width {
            let node = layer * width + col;
            let preds = 1 + (next() as usize) % 3.min(width);
            // `col` first keeps every column chained (a guaranteed deep path); the rest
            // are random distinct picks from the previous layer.
            let mut chosen = vec![col];
            while chosen.len() < preds {
                let pick = (next() as usize) % width;
                if !chosen.contains(&pick) {
                    chosen.push(pick);
                }
            }
            for pick in chosen {
                g.add_edge((layer - 1) * width + pick, node);
            }
        }
    }
    g
}

// ------------------------------------------------------------------------------------------
// Workflow value semantics (the `dag-workflow` workload)
// ------------------------------------------------------------------------------------------

/// The per-node seed value of the workflow semantics (a splitmix-style hash of the node
/// id, so no two nodes start equal).
fn node_seed(v: u64) -> u64 {
    let mut z = (v + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// Sequential workflow evaluation: every node's value is its seed hash plus the wrapping
/// sum of its predecessors' values, in topological order. Panics on a cyclic graph.
pub fn workflow_reference(g: &TaskGraph) -> Vec<u64> {
    let order = g.topo_order().expect("workflow_reference requires an acyclic graph");
    let mut acc: Vec<u64> = (0..g.len() as u64).map(node_seed).collect();
    for v in order {
        let val = acc[v];
        for &s in g.successors(v) {
            acc[s as usize] = acc[s as usize].wrapping_add(val);
        }
    }
    acc
}

/// Native workflow evaluation via [`TaskGraph::run`]: each node reads its (by then final)
/// accumulator and pushes it into its successors'. Wrapping addition commutes, and a
/// successor only runs after all its predecessors' pushes, so the result is deterministic
/// on every schedule and equals [`workflow_reference`].
pub fn workflow_native(g: &TaskGraph) -> Vec<u64> {
    let acc: Vec<AtomicU64> = (0..g.len() as u64).map(|v| AtomicU64::new(node_seed(v))).collect();
    g.run(&|v| {
        let val = acc[v].load(Ordering::Acquire);
        for &s in g.successors(v) {
            acc[s as usize].fetch_add(val, Ordering::AcqRel);
        }
    });
    acc.into_iter().map(AtomicU64::into_inner).collect()
}

/// Build the level-synchronized workflow computation: nodes grouped by level (longest path
/// from a root), one balanced parallel pass per level over chunked level nodes, levels
/// sequenced. Each node's leaf reads its predecessors' value words and writes its own value
/// word — written exactly once over the whole computation (limited access). The value array
/// occupies words `0..n`.
pub fn workflow_computation(g: &TaskGraph, chunk: usize) -> rws_dag::Computation {
    use rws_dag::builders::BalancedTreeBuilder;
    use rws_dag::{Addr, AlgoMeta, SpDagBuilder, WorkUnit};
    let n = g.len() as u64;
    assert!(n > 0, "workflow needs at least one node");
    let mut preds: Vec<Vec<u64>> = vec![Vec::new(); g.len()];
    for v in 0..g.len() {
        for &s in g.successors(v) {
            preds[s as usize].push(v as u64);
        }
    }
    let mut b = SpDagBuilder::new();
    let mut rounds = Vec::new();
    for level in g.levels() {
        let leaves: Vec<_> = level
            .chunks(chunk.max(1))
            .map(|nodes| {
                let mut unit = WorkUnit::empty();
                let mut ops = 0u64;
                for &v in nodes {
                    ops += 1 + preds[v].len() as u64;
                    unit = unit.reads(preds[v].iter().map(|&p| Addr(p)));
                    unit = unit.write(Addr(v as u64));
                }
                b.leaf(unit.with_ops(ops))
            })
            .collect();
        rounds.push(BalancedTreeBuilder::new(&mut b, 2).combine(
            &leaves,
            |_, _| WorkUnit::compute(1),
            |_, _| WorkUnit::compute(1),
        ));
    }
    let root = b.seq(rounds);
    let dag = b.build(root).expect("workflow dag must validate");
    let mut meta = AlgoMeta::bp("dag-workflow", n);
    // Level-synchronized with data-dependent level widths: iterated rounds, not balanced —
    // the lab runs this workload measured-only.
    meta.class = rws_dag::AlgoClass::Hierarchical {
        level: 3,
        hbp: false,
        collections: 1,
        shrink: rws_dag::Shrink::Half,
    };
    rws_dag::Computation::new(dag, meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rws_runtime::ThreadPool;
    use std::sync::atomic::AtomicU64;

    fn diamond() -> TaskGraph {
        // 0 -> {1, 2} -> 3
        let mut g = TaskGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        g
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = diamond();
        let order = g.topo_order().expect("diamond is acyclic");
        let pos = |v: usize| order.iter().position(|&x| x == v).unwrap();
        assert!(pos(0) < pos(1) && pos(0) < pos(2));
        assert!(pos(1) < pos(3) && pos(2) < pos(3));
    }

    #[test]
    fn cyclic_graphs_have_no_topo_order() {
        let mut g = TaskGraph::new(2);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        assert!(g.topo_order().is_none());
    }

    #[test]
    fn levels_are_longest_path_depths() {
        let mut g = diamond();
        // A shortcut edge must not shorten node 3's level.
        g.add_edge(0, 3);
        assert_eq!(g.levels(), vec![vec![0], vec![1, 2], vec![3]]);
    }

    #[test]
    fn run_respects_dependencies_and_runs_each_node_once() {
        let pool = ThreadPool::new(4);
        let (g, stamp) = pool.install(|| {
            let g = layered_random(42, 8, 16);
            let stamp: Vec<AtomicU64> = (0..g.len()).map(|_| AtomicU64::new(0)).collect();
            let clock = AtomicU64::new(1);
            g.run(&|v| {
                let t = clock.fetch_add(1, Ordering::AcqRel);
                assert_eq!(stamp[v].swap(t, Ordering::AcqRel), 0, "node {v} ran twice");
            });
            (g, stamp)
        });
        let n = g.len();
        for v in 0..n {
            let tv = stamp[v].load(Ordering::Acquire);
            assert!(tv > 0, "node {v} never ran");
            for &s in g.successors(v) {
                let ts = stamp[s as usize].load(Ordering::Acquire);
                assert!(tv < ts, "edge ({v}, {s}) ran out of order");
            }
        }
    }

    #[test]
    fn run_outside_a_pool_degrades_to_sequential_execution() {
        let g = diamond();
        let count = AtomicU64::new(0);
        g.run(&|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn run_panics_on_a_cycle() {
        let mut g = TaskGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 1);
        g.run(&|_| {});
    }

    #[test]
    fn a_cycle_below_a_runnable_prefix_panics_after_the_prefix_ran() {
        // 0 -> 1 -> 2 runs; 2 -> 3 feeds the cycle 3 -> 4 -> 3; 5 hangs below the cycle.
        let mut g = TaskGraph::new(6);
        for (from, to) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 3), (4, 5)] {
            g.add_edge(from, to);
        }
        let ran = std::sync::Mutex::new(Vec::new());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.run(&|v| ran.lock().unwrap().push(v));
        }));
        let message = *outcome.expect_err("a cyclic graph must panic").downcast::<&str>().unwrap();
        assert!(message.contains("cycle"), "{message}");
        assert_eq!(
            *ran.lock().unwrap(),
            [0, 1, 2],
            "the prefix ran; nothing on or below the cycle"
        );
    }

    #[test]
    fn workflow_native_matches_reference_outside_a_pool() {
        let g = layered_random(13, 6, 10);
        assert_eq!(workflow_native(&g), workflow_reference(&g));
        let single = TaskGraph::new(1);
        assert_eq!(workflow_native(&single), workflow_reference(&single));
    }

    #[test]
    fn workflow_dag_models_the_levels_with_single_writes() {
        let g = layered_random(21, 5, 8);
        let comp = workflow_computation(&g, 4);
        assert!(comp.check_properties().is_empty(), "{:?}", comp.check_properties());
        assert_eq!(comp.dag.max_writes_per_global_word(), 1);
        assert_eq!(
            comp.dag.leaf_count() as usize,
            g.levels().iter().map(|l| l.len().div_ceil(4)).sum::<usize>()
        );
    }

    #[test]
    fn layered_random_is_deterministic_and_layered() {
        let a = layered_random(7, 5, 6);
        let b = layered_random(7, 5, 6);
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.levels(), b.levels());
        assert_eq!(a.levels().len(), 5, "construction layers survive as levels");
        let c = layered_random(8, 5, 6);
        assert!(
            c.edge_count() != a.edge_count() || c.succs != a.succs,
            "a different seed draws a different graph"
        );
    }
}
