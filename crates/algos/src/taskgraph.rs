//! Arbitrary dependency DAGs and the `dag-workflow` workload over them, run natively one
//! level at a time on the `rws-runtime` work-stealing pool.
//!
//! Unlike the series-parallel computations the rest of the suite builds, a [`TaskGraph`]'s
//! dependencies are unrestricted: any acyclic edge set over `n` nodes. [`Levels`] is its
//! level-synchronous plan. A node's level is the longest path to it from any root, so every
//! predecessor sits on an earlier level, and a barrier between consecutive levels is the
//! tightest series-parallel over-approximation of the edge set. The plan is a property of
//! the graph: build it once, where the graph is built, and run it many times.
//!
//! [`Levels::run`] executes one balanced `par_chunks_mut` pass per level, levels in
//! sequence, and every node *pulls* its value from the finished levels below it. Each value
//! word is written once, by the leaf that owns it; there are no atomics and no spawn per
//! node, and the join that ends one level orders it before the next. The native fork tree
//! is therefore the one [`workflow_computation`] builds for the simulator: `⌈width /
//! chunk⌉` leaves per level. The barrier gives up the overlap a dataflow runner gets across
//! levels, but on the layered dags of the benchmark and on a deep spine punctuated by wide
//! bursts a pass per level costs a fraction of one spawn per node.

use rws_runtime::ParSliceExt;

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

    /// A topological order of the nodes, or `None` if the edge set has a cycle.
    /// [`workflow_reference`] iterates it in order.
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
}

/// The level-synchronous plan of a [`TaskGraph`]: its nodes in level order (by id within a
/// level), each with its predecessors given as positions in that order.
#[derive(Clone, Debug)]
pub struct Levels {
    /// The node at each position.
    nodes: Vec<u32>,
    /// Level `l` is positions `starts[l]..starts[l + 1]`.
    starts: Vec<usize>,
    /// Position `i`'s predecessors are `preds[pred_starts[i]..pred_starts[i + 1]]`, by
    /// ascending node id; an edge added twice is listed twice.
    pred_starts: Vec<usize>,
    preds: Vec<u32>,
    /// The workflow seed of each position's node.
    seeds: Vec<u64>,
}

impl Levels {
    /// The plan of `g`. Panics if `g` has a cycle: the nodes on and below it get no level.
    pub fn new(g: &TaskGraph) -> Self {
        // Kahn's algorithm a level at a time: a node joins the next level when its last
        // predecessor is taken, which is one level past the deepest of them.
        let mut indeg = g.indegree.clone();
        let mut nodes: Vec<u32> = (0..g.len() as u32).filter(|&v| indeg[v as usize] == 0).collect();
        let (mut lo, mut starts) = (0, vec![0]);
        while lo < nodes.len() {
            let hi = nodes.len();
            starts.push(hi);
            for i in lo..hi {
                for &s in &g.succs[nodes[i] as usize] {
                    indeg[s as usize] -= 1;
                    if indeg[s as usize] == 0 {
                        nodes.push(s);
                    }
                }
            }
            nodes[hi..].sort_unstable();
            lo = hi;
        }
        assert_eq!(nodes.len(), g.len(), "task graph has a cycle: not every node has a level");
        let mut pos = vec![0u32; g.len()];
        for (i, &v) in nodes.iter().enumerate() {
            pos[v as usize] = i as u32;
        }
        let mut pred_starts = vec![0];
        for &v in &nodes {
            pred_starts.push(pred_starts[pred_starts.len() - 1] + g.indegree[v as usize] as usize);
        }
        let (mut fill, mut preds) = (pred_starts.clone(), vec![0; g.edge_count()]);
        for (v, succs) in g.succs.iter().enumerate() {
            for &s in succs {
                let next = &mut fill[pos[s as usize] as usize];
                preds[*next] = pos[v];
                *next += 1;
            }
        }
        let seeds = nodes.iter().map(|&v| node_seed(v as u64)).collect();
        Levels { nodes, starts, pred_starts, preds, seeds }
    }

    /// The positions of position `i`'s predecessors.
    fn preds(&self, i: usize) -> &[u32] {
        &self.preds[self.pred_starts[i]..self.pred_starts[i + 1]]
    }

    /// Run every level as one balanced pass of `chunk`-position leaves, levels in order, on
    /// the current pool (sequentially outside one), and return the words written, in level
    /// order. `value(i, done)` computes position `i`'s word; `done` holds the words of every
    /// earlier level, and so of all of `i`'s predecessors. A panic in `value` propagates out.
    pub fn run<F>(&self, chunk: usize, value: F) -> Vec<u64>
    where
        F: Fn(usize, &[u64]) -> u64 + Sync,
    {
        let chunk = chunk.max(1);
        let mut words = vec![0; self.nodes.len()];
        for w in self.starts.windows(2) {
            let (done, level) = words[..w[1]].split_at_mut(w[0]);
            let done = &*done;
            level.par_chunks_mut(chunk).with_grain(1).for_each_indexed(|c, slots| {
                for (i, slot) in (w[0] + c * chunk..).zip(slots) {
                    *slot = value(i, done);
                }
            });
        }
        words
    }
}

/// A seeded layered random DAG: `layers` layers of `width` nodes; every node in layer
/// `i > 0` depends on one to three distinct nodes of layer `i - 1` (so the graph is
/// connected level to level and its [`Levels`] match the construction layers).
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
        for &s in &g.succs[v] {
            acc[s as usize] = acc[s as usize].wrapping_add(val);
        }
    }
    acc
}

/// Native workflow evaluation through [`Levels::run`] in leaves of `chunk` nodes: each node
/// pulls its seed plus the wrapping sum of its predecessors' finished values, and the
/// values are then put back in node-id order. Every value is written once and read only by
/// later levels, so the result is the same on every schedule and equals
/// [`workflow_reference`].
pub fn workflow_native(plan: &Levels, chunk: usize) -> Vec<u64> {
    let by_position = plan.run(chunk, |i, done| {
        plan.preds(i).iter().fold(plan.seeds[i], |acc, &p| acc.wrapping_add(done[p as usize]))
    });
    let mut values = vec![0; by_position.len()];
    for (&v, value) in plan.nodes.iter().zip(by_position) {
        values[v as usize] = value;
    }
    values
}

/// Build the level-synchronized workflow computation from the same plan the native run
/// uses: one balanced parallel pass per level over leaves of `chunk` nodes, levels
/// sequenced. Each node's leaf reads its predecessors' value words and writes its own value
/// word — written exactly once over the whole computation (limited access). The value array
/// occupies words `0..n`.
pub fn workflow_computation(plan: &Levels, chunk: usize) -> rws_dag::Computation {
    use rws_dag::builders::BalancedTreeBuilder;
    use rws_dag::{Addr, AlgoMeta, SpDagBuilder, WorkUnit};
    let n = plan.nodes.len() as u64;
    assert!(n > 0, "workflow needs at least one node");
    let chunk = chunk.max(1);
    let word = |i: usize| Addr(plan.nodes[i] as u64);
    let mut b = SpDagBuilder::new();
    let mut rounds = Vec::new();
    for w in plan.starts.windows(2) {
        let leaves: Vec<_> = (w[0]..w[1])
            .step_by(chunk)
            .map(|first| {
                let mut unit = WorkUnit::empty();
                let mut ops = 0u64;
                for i in first..(first + chunk).min(w[1]) {
                    ops += 1 + plan.preds(i).len() as u64;
                    unit = unit.reads(plan.preds(i).iter().map(|&p| word(p as usize)));
                    unit = unit.write(word(i));
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
    use crate::common::PoolShape;
    use std::sync::Arc;

    fn diamond() -> TaskGraph {
        // 0 -> {1, 2} -> 3
        let mut g = TaskGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        g
    }

    fn graph(n: usize, edges: &[(usize, usize)]) -> TaskGraph {
        let mut g = TaskGraph::new(n);
        for &(from, to) in edges {
            g.add_edge(from, to);
        }
        g
    }

    /// The node ids of each level of `g`'s plan, in level order.
    fn levels_of(g: &TaskGraph) -> Vec<Vec<u32>> {
        let plan = Levels::new(g);
        plan.starts.windows(2).map(|w| plan.nodes[w[0]..w[1]].to_vec()).collect()
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
        assert_eq!(levels_of(&g), [vec![0], vec![1, 2], vec![3]]);
        // Level order is not id order: a chain with descending ids. Within a level, nodes
        // are by id whatever order their edges were added in (the dag's leaves depend on it).
        assert_eq!(levels_of(&graph(3, &[(2, 1), (1, 0)])), [vec![2], vec![1], vec![0]]);
        assert_eq!(levels_of(&graph(3, &[(0, 2), (0, 1)])), [vec![0], vec![1, 2]]);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn planning_a_cyclic_graph_panics() {
        // 0 -> 1 -> 2 has levels; 2 -> 3 feeds the cycle 3 -> 4 -> 3; 5 hangs below the cycle.
        Levels::new(&graph(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 3), (4, 5)]));
    }

    #[test]
    fn workflow_native_matches_reference_outside_a_pool() {
        let g = layered_random(13, 6, 10);
        assert_eq!(workflow_native(&Levels::new(&g), 4), workflow_reference(&g));
        let single = TaskGraph::new(1);
        assert_eq!(workflow_native(&Levels::new(&single), 4), workflow_reference(&single));
    }

    #[test]
    fn hand_built_graphs_match_the_reference_at_every_chunk_on_every_pool_shape() {
        // Level order differs from id order in all but the single node; the wide level has
        // more nodes than the largest chunk.
        let wide: Vec<(usize, usize)> =
            (2..=71).flat_map(|v| [(72, v), (v, 0), (v, 1)]).chain([(72, 1)]).collect();
        let cases = [
            ("descending chain", graph(5, &[(4, 3), (3, 2), (2, 1), (1, 0)])),
            ("diamond plus shortcut", graph(4, &[(3, 1), (3, 2), (1, 0), (2, 0), (3, 0)])),
            ("duplicate edges", graph(4, &[(3, 2), (3, 2), (2, 0), (3, 1), (1, 0), (1, 0)])),
            ("isolated nodes", graph(6, &[(5, 2), (2, 0)])),
            ("single node", TaskGraph::new(1)),
            ("level wider than a chunk", graph(73, &wide)),
        ];
        let shapes = PoolShape::all();
        for (what, g) in cases {
            let expected = workflow_reference(&g);
            let plan = Arc::new(Levels::new(&g));
            for chunk in [1, 3, 4, 64] {
                for shape in &shapes {
                    let on_pool = Arc::clone(&plan);
                    assert_eq!(
                        shape.run(move || workflow_native(&on_pool, chunk)),
                        expected,
                        "{what}, chunk {chunk}, {}",
                        shape.label
                    );
                }
            }
        }
    }

    #[test]
    fn workflow_dag_models_the_levels_with_single_writes() {
        let g = layered_random(21, 5, 8);
        let plan = Levels::new(&g);
        let comp = workflow_computation(&plan, 4);
        assert!(comp.check_properties().is_empty(), "{:?}", comp.check_properties());
        assert_eq!(comp.dag.max_writes_per_global_word(), 1);
        assert_eq!(
            comp.dag.leaf_count() as usize,
            plan.starts.windows(2).map(|w| (w[1] - w[0]).div_ceil(4)).sum::<usize>()
        );
    }

    #[test]
    fn layered_random_is_deterministic_and_layered() {
        let a = layered_random(7, 5, 6);
        let b = layered_random(7, 5, 6);
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(levels_of(&a), levels_of(&b));
        assert_eq!(levels_of(&a).len(), 5, "construction layers survive as levels");
        let c = layered_random(8, 5, 6);
        assert!(
            c.edge_count() != a.edge_count() || c.succs != a.succs,
            "a different seed draws a different graph"
        );
    }
}
