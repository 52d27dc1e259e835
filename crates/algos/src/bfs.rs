//! Level-synchronized breadth-first search on seeded random graphs.
//!
//! The first irregular workload of the suite: the frontier's size and shape are data-
//! dependent, so neither the paper's fork-join steal bounds nor its balanced-tree cache
//! analysis applies — the lab runs this workload **measured-only**. What the dag builder
//! does model faithfully is the level-synchronized structure itself: one BP-style pass per
//! BFS level over the exact frontier the input graph produces, with every distance word
//! written exactly once (by the level that discovers it), sequenced by a barrier between
//! levels — the same structure [`bfs_native`] executes for real on the pool.
//!
//! The native kernel runs the top-down half of direction-optimizing BFS (Beamer, Asanović
//! & Patterson, SC 2012) on a 32-bit CSR graph: vertices are claimed in a visited bitmap
//! small enough for L1, and a level that discovers many vertices hands the next level its
//! frontier in vertex-id order, so that level reads the graph monotonically. The bitmap
//! is the one structure every leaf writes, so it is where the kernel's false sharing
//! lives. Distances, level sizes and the fork tree are the dag's; only the order of a
//! frontier that follows a dense level differs from the dag's discovery order.

use crate::common::split_lengths;
use rws_dag::builders::BalancedTreeBuilder;
use rws_dag::{Addr, AlgoMeta, Computation, NodeId, SpDagBuilder, WorkUnit};
use rws_runtime::ParSliceExt;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A directed graph in compressed-sparse-row form, with 32-bit vertex ids and edge
/// offsets: half the bytes per vertex and per edge of a `usize` CSR, which is what keeps
/// a BFS frontier's random reads into `row_starts` and `cols` within a core's L2 at the
/// benchmark's 2^17 vertices.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsrGraph {
    /// `row_starts[v]..row_starts[v + 1]` indexes `cols` with `v`'s out-neighbors.
    pub row_starts: Vec<u32>,
    /// Concatenated adjacency lists.
    pub cols: Vec<u32>,
}

impl CsrGraph {
    /// Number of vertices.
    pub fn vertices(&self) -> usize {
        self.row_starts.len().saturating_sub(1)
    }

    /// Number of edges.
    pub fn edges(&self) -> usize {
        self.cols.len()
    }

    /// The out-neighbors of `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.cols[self.row_starts[v] as usize..self.row_starts[v + 1] as usize]
    }

    /// A seeded random graph over `vertices` vertices: every vertex keeps a ring edge to
    /// its successor (so the graph is connected and every BFS from any source reaches all
    /// of it) plus up to `extra_degree` random out-edges. Deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// If `vertices` is 0 or above `u32::MAX`, or if the graph draws more than `u32::MAX`
    /// edges: vertex ids and edge offsets are stored as `u32`.
    pub fn random(seed: u64, vertices: usize, extra_degree: usize) -> CsrGraph {
        assert!(vertices > 0, "a graph needs at least one vertex");
        assert!(
            u32::try_from(vertices).is_ok(),
            "CsrGraph stores vertex ids as u32: {vertices} vertices do not fit"
        );
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut row_starts = Vec::with_capacity(vertices + 1);
        let mut cols = Vec::new();
        row_starts.push(0);
        // One adjacency buffer for every row: a row holds at most `extra_degree + 1` entries.
        let mut adj = Vec::with_capacity(extra_degree + 1);
        for v in 0..vertices {
            adj.clear();
            adj.push((v + 1) % vertices);
            for _ in 0..(next() as usize) % (extra_degree + 1) {
                adj.push(next() as usize % vertices);
            }
            adj.sort_unstable();
            adj.dedup();
            adj.retain(|&u| u != v);
            // Every id is below `vertices`, which fits in u32.
            cols.extend(adj.iter().map(|&u| u as u32));
            let edges = u32::try_from(cols.len());
            row_starts.push(edges.expect("CsrGraph stores edge offsets as u32: too many edges"));
        }
        CsrGraph { row_starts, cols }
    }
}

/// Sequential BFS distances from `src` (`-1` for unreachable vertices).
pub fn bfs_reference(g: &CsrGraph, src: usize) -> Vec<i64> {
    let mut dist = vec![-1i64; g.vertices()];
    for (level, frontier) in bfs_level_sets(g, src).iter().enumerate() {
        for &v in frontier {
            dist[v] = level as i64;
        }
    }
    dist
}

/// The BFS level sets from `src`: `sets[l]` holds the vertices at distance `l`, each in
/// the deterministic discovery order of a sequential queue BFS. This is the structure the
/// dag builder encodes and the native runner mirrors level by level.
pub fn bfs_level_sets(g: &CsrGraph, src: usize) -> Vec<Vec<usize>> {
    let n = g.vertices();
    assert!(src < n, "source {src} out of range for {n} vertices");
    let mut seen = vec![false; n];
    seen[src] = true;
    let mut sets = vec![vec![src]];
    loop {
        let frontier = sets.last().expect("sets starts non-empty");
        let mut next = Vec::new();
        for &u in frontier {
            for &v in g.neighbors(u) {
                let v = v as usize;
                if !seen[v] {
                    seen[v] = true;
                    next.push(v);
                }
            }
        }
        if next.is_empty() {
            return sets;
        }
        sets.push(next);
    }
}

/// Frontier vertices per chunk of the native level sweep. `par_chunks_mut`'s adaptive grain
/// puts ⌈chunks / (4·T)⌉ chunks in a fork-join leaf on a pool of T workers, so a leaf holds
/// this many vertices or a multiple of it.
const NATIVE_CHUNK: usize = 64;

/// Native level-synchronized BFS on the `rws-runtime` pool.
///
/// Each level fork-joins over chunks of the current frontier. A chunk claims newly
/// discovered vertices by `fetch_or` on their bits of one shared visited bitmap (`n / 8`
/// bytes, which stays in L1 where the distance array would not), so every vertex is
/// claimed exactly once; only the claimant writes the vertex's distance, and it writes
/// the vertex into its own region of one discovery buffer, sized by the chunk's
/// out-degree sum, the most it can discover. After the level's join:
///
/// * a *sparse* level (fewer discoveries than the bitmap has words) compacts the regions,
///   in chunk order, into the next frontier;
/// * a *dense* level rebuilds the next frontier by scanning the bitmap for the bits this
///   level set, which yields it in vertex-id order, so the next level reads `row_starts`
///   and `cols` monotonically.
///
/// Either way a level costs O(|frontier| + its edges) and the next frontier holds the same
/// vertices, so the fork tree (one `par_chunks_mut(1)` pass per level over 64-vertex
/// chunks, ⌈chunks / (4·T)⌉ chunks a leaf on a pool of T workers) depends only on the level
/// sizes, which are the dag's, and on the pool width — never on the schedule. Buffers are
/// reused from level to level. Distances are deterministic whatever the race outcome,
/// which is why the output matches [`bfs_reference`] element for element on any schedule.
pub fn bfs_native(g: &CsrGraph, src: usize) -> Vec<i64> {
    let n = g.vertices();
    assert!(src < n, "source {src} out of range for {n} vertices");
    let words = n.div_ceil(64);
    let dist: Vec<AtomicI64> = (0..n).map(|_| AtomicI64::new(-1)).collect();
    // `seen` holds every claimed vertex; `prev` those claimed before the current level.
    let seen: Vec<AtomicU64> = (0..words).map(|_| AtomicU64::new(0)).collect();
    let mut prev = vec![0u64; words];
    dist[src].store(0, Ordering::Relaxed);
    seen[src / 64].store(1 << (src % 64), Ordering::Relaxed);
    prev[src / 64] = 1 << (src % 64);
    // `src < n <= u32::MAX`: the graph's ids are u32.
    let mut frontier = vec![src as u32];
    let mut discovered: Vec<u32> = Vec::new();
    let mut level = 0i64;
    while !frontier.is_empty() {
        let degree_sum =
            |part: &[u32]| part.iter().map(|&u| g.neighbors(u as usize).len()).sum::<usize>();
        let capacity = degree_sum(&frontier);
        if discovered.len() < capacity {
            discovered.resize(capacity, 0);
        }
        // One discovery region per frontier chunk, with the count of vertices it holds:
        // disjoint `&mut` targets for the fork-join.
        let mut regions: Vec<(&mut [u32], usize)> =
            split_lengths(&mut discovered, frontier.chunks(NATIVE_CHUNK).map(degree_sum))
                .map(|region| (region, 0))
                .collect();
        let (frontier_ref, seen_ref, dist_ref) = (&frontier, &seen, &dist);
        regions.par_chunks_mut(1).for_each_indexed(|i, slot| {
            let (region, found) = &mut slot[0];
            let lo = i * NATIVE_CHUNK;
            let hi = (lo + NATIVE_CHUNK).min(frontier_ref.len());
            for &u in &frontier_ref[lo..hi] {
                for &v in g.neighbors(u as usize) {
                    let (word, bit) = (&seen_ref[v as usize / 64], 1u64 << (v % 64));
                    // Test before locking. A bit is set once and never cleared, so a read
                    // of 1 means `v` is claimed; a read of 0, however stale, goes on to the
                    // `fetch_or`, whose returned bit alone decides who claims `v`.
                    if word.load(Ordering::Relaxed) & bit == 0
                        && word.fetch_or(bit, Ordering::Relaxed) & bit == 0
                    {
                        dist_ref[v as usize].store(level + 1, Ordering::Relaxed);
                        region[*found] = v;
                        *found += 1;
                    }
                }
            }
        });
        let next_len: usize = regions.iter().map(|(_, found)| found).sum();
        frontier.clear();
        frontier.reserve(next_len);
        if next_len >= words {
            // Dense: the scan of `words` words costs no more than the copy it replaces.
            for (w, (seen, prev)) in seen.iter().zip(&mut prev).enumerate() {
                let now = seen.load(Ordering::Relaxed);
                let mut new = now & !*prev;
                *prev = now;
                while new != 0 {
                    // Bits at or past `n` are never set, so the id fits in u32.
                    frontier.push((w * 64) as u32 + new.trailing_zeros());
                    new &= new - 1;
                }
            }
        } else {
            for (region, found) in &regions {
                let region = &region[..*found];
                frontier.extend_from_slice(region);
                for &v in region {
                    prev[v as usize / 64] |= 1 << (v % 64);
                }
            }
        }
        level += 1;
    }
    dist.into_iter().map(AtomicI64::into_inner).collect()
}

/// Configuration for the BFS computation builder.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BfsConfig {
    /// Source vertex.
    pub src: usize,
    /// Frontier vertices per dag leaf.
    pub chunk: usize,
}

impl BfsConfig {
    /// BFS from vertex 0 with the default leaf granularity.
    pub fn new() -> Self {
        BfsConfig { src: 0, chunk: 8 }
    }
}

impl Default for BfsConfig {
    fn default() -> Self {
        BfsConfig::new()
    }
}

/// Build the level-synchronized BFS computation for `g`: one balanced parallel pass per
/// BFS level (over that level's exact frontier), passes sequenced by a barrier.
///
/// Memory layout: the adjacency array occupies words `0..e`; the distance array, in
/// discovery order, occupies the next `n` words, so level `l` writes the contiguous slice
/// its discoveries own and every distance word is written exactly once (limited access).
/// Each leaf reads its frontier vertices' distance words and adjacency ranges and writes
/// the distance words of the vertices those frontier vertices discovered.
pub fn bfs_computation(g: &CsrGraph, cfg: &BfsConfig) -> Computation {
    let n = g.vertices() as u64;
    let e = g.edges() as u64;
    let sets = bfs_level_sets(g, cfg.src);
    // Discovery order: position of each vertex in the concatenated level sets.
    let mut discovery = vec![u64::MAX; g.vertices()];
    let mut discoverer = vec![usize::MAX; g.vertices()];
    let mut pos = 0u64;
    for frontier in &sets {
        for &v in frontier {
            discovery[v] = pos;
            pos += 1;
        }
    }
    for frontier in &sets {
        for &u in frontier {
            for &v in g.neighbors(u) {
                let v = v as usize;
                if discoverer[v] == usize::MAX && discovery[v] > discovery[u] {
                    discoverer[v] = u;
                }
            }
        }
    }
    let dist_base = e;
    let mut b = SpDagBuilder::new();
    let mut rounds: Vec<NodeId> = Vec::new();
    for frontier in &sets {
        let leaves: Vec<NodeId> = frontier
            .chunks(cfg.chunk.max(1))
            .map(|chunk| {
                let mut unit = WorkUnit::compute(0);
                let mut ops = 0u64;
                for &u in chunk {
                    ops += 1 + g.neighbors(u).len() as u64;
                    unit = unit.read(Addr(dist_base + discovery[u]));
                    let lo = g.row_starts[u] as u64;
                    let hi = g.row_starts[u + 1] as u64;
                    unit = unit.reads((lo..hi).map(Addr));
                    for &v in g.neighbors(u) {
                        if discoverer[v as usize] == u {
                            unit = unit.write(Addr(dist_base + discovery[v as usize]));
                        }
                    }
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
    let dag = b.build(root).expect("bfs dag must validate");
    let mut meta = AlgoMeta::bp("bfs", n);
    // Level-synchronized rounds over a data-dependent frontier: iterated like list
    // ranking, but *not* balanced — the paper's HBP analysis does not cover it, which is
    // why the lab treats this workload as measured-only.
    meta.class = rws_dag::AlgoClass::Hierarchical {
        level: 3,
        hbp: false,
        collections: 1,
        shrink: rws_dag::Shrink::Half,
    };
    Computation::new(dag, meta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_distances_on_a_ring() {
        // Pure ring: distance is the forward walk length.
        let g = CsrGraph::random(1, 8, 0);
        let d = bfs_reference(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn random_graph_is_fully_reachable_and_deterministic() {
        let g = CsrGraph::random(42, 256, 4);
        assert_eq!(g, CsrGraph::random(42, 256, 4));
        let d = bfs_reference(&g, 3);
        assert!(d.iter().all(|&x| x >= 0), "the ring edge keeps every vertex reachable");
    }

    #[test]
    fn native_matches_reference_outside_a_pool() {
        for (seed, n, deg) in [(7u64, 1usize, 0usize), (7, 64, 3), (11, 500, 6)] {
            let g = CsrGraph::random(seed, n, deg);
            assert_eq!(bfs_native(&g, 0), bfs_reference(&g, 0), "seed {seed}, n {n}");
        }
    }

    /// A graph over `n` vertices with exactly `edges`, duplicates and self-loops kept.
    fn graph(n: usize, edges: &[(usize, usize)]) -> CsrGraph {
        let mut row_starts = vec![0];
        let mut cols = Vec::new();
        for u in 0..n {
            cols.extend(edges.iter().filter(|e| e.0 == u).map(|e| e.1 as u32));
            row_starts.push(cols.len() as u32);
        }
        CsrGraph { row_starts, cols }
    }

    #[test]
    fn hand_built_graphs_match_the_reference_on_every_pool_shape() {
        use crate::common::PoolShape;
        use std::sync::Arc;
        // A star whose hub alone overflows a frontier chunk; every leaf points back at the
        // hub, at its neighbor leaf and at the same two sinks, so the chunks of the wide
        // level all contend for the sinks. The last vertex is unreachable.
        let leaves = 3 * NATIVE_CHUNK + 5;
        let star: Vec<(usize, usize)> = (1..=leaves)
            .flat_map(|v| [(0, v), (v, 0), (v, 1 + v % leaves), (v, leaves + 1), (v, leaves + 2)])
            .collect();
        // A broom: a 300-vertex path into a hub whose leaves fan out again into twigs that
        // share their ends with the next leaf's and converge on one sink. A level is dense
        // when it discovers at least one vertex per bitmap word (here 14), so the levels
        // run sparse along the path, dense over the leaves and the twigs, and sparse again
        // at the sink.
        let (hub, twigs) = (300, 301 + leaves);
        let sink = twigs + 2 * leaves;
        let broom: Vec<(usize, usize)> = (0..hub)
            .map(|v| (v, v + 1))
            .chain((0..leaves).flat_map(|i| {
                let (leaf, twig) = (hub + 1 + i, |k| twigs + (2 * i + k) % (2 * leaves));
                [(hub, leaf), (leaf, hub), (leaf, twig(0)), (leaf, twig(1)), (leaf, twig(2))]
            }))
            .chain((twigs..sink).map(|t| (t, sink)))
            .collect();
        // 131 vertices, three bitmap words, the last with three live bits. Both wide levels
        // are dense, and the second ends in the partial word at vertex 128, whose path on to
        // 129 and 130 only a frontier rebuilt from that word continues.
        let partial: Vec<(usize, usize)> =
            (1..=64).flat_map(|v| [(0, v), (v, 64 + v)]).chain([(128, 129), (129, 130)]).collect();
        // The small cases state their distances, so the reference is checked too.
        let cases = [
            (
                "unreachable",
                graph(6, &[(0, 1), (1, 2), (3, 4), (4, 3), (5, 0)]),
                0,
                vec![0, 1, 2, -1, -1, -1],
            ),
            (
                "self-loops",
                graph(4, &[(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3)]),
                0,
                vec![0, 1, 2, 3],
            ),
            (
                "duplicate edges",
                graph(4, &[(0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)]),
                0,
                vec![0, 1, 1, 2],
            ),
            ("zero-out-degree source", graph(3, &[(0, 1), (1, 0)]), 2, vec![-1, -1, 0]),
            ("wide star", graph(leaves + 4, &star), 0, vec![]),
            ("wide star from a leaf", graph(leaves + 4, &star), 7, vec![]),
            ("4096-vertex ring", CsrGraph::random(3, 4096, 0), 0, (0..4096).collect()),
            ("broom", graph(sink + 1, &broom), 0, vec![]),
            (
                "dense level in a partial bitmap word",
                graph(131, &partial),
                0,
                [0].into_iter().chain([1; 64]).chain([2; 64]).chain([3, 4]).collect(),
            ),
        ];
        let shapes = PoolShape::all();
        for (what, g, src, stated) in cases {
            let expected = bfs_reference(&g, src);
            assert!(stated.is_empty() || stated == expected, "{what}: reference {expected:?}");
            let g = Arc::new(g);
            for shape in &shapes {
                let on_pool = Arc::clone(&g);
                assert_eq!(
                    shape.run(move || bfs_native(&on_pool, src)),
                    expected,
                    "{what}, {}",
                    shape.label
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "CsrGraph stores vertex ids as u32")]
    fn random_rejects_vertex_ids_beyond_u32_before_allocating() {
        CsrGraph::random(1, u32::MAX as usize + 2, 0);
    }

    #[test]
    fn level_sets_partition_the_reachable_vertices() {
        let g = CsrGraph::random(9, 128, 5);
        let sets = bfs_level_sets(&g, 0);
        let total: usize = sets.iter().map(Vec::len).sum();
        assert_eq!(total, 128, "every vertex is discovered exactly once");
        let d = bfs_reference(&g, 0);
        for (level, set) in sets.iter().enumerate() {
            assert!(set.iter().all(|&v| d[v] == level as i64));
        }
    }

    #[test]
    fn bfs_dag_writes_each_distance_word_once() {
        let g = CsrGraph::random(5, 64, 3);
        let comp = bfs_computation(&g, &BfsConfig::new());
        assert!(comp.check_properties().is_empty(), "{:?}", comp.check_properties());
        assert_eq!(comp.dag.max_writes_per_global_word(), 1);
        assert!(comp.dag.work() > 0);
        // Levels are sequenced: the span reflects the level count, not one flat pass.
        assert_eq!(
            comp.dag.leaf_count() as usize,
            bfs_level_sets(&g, 0).iter().map(|s| s.len().div_ceil(8)).sum::<usize>()
        );
    }
}
