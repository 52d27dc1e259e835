//! List ranking and connected components by iterated rounds (Section 7, last paragraphs).
//!
//! The paper obtains both algorithms by iterating a sorting / list-ranking primitive
//! `O(log n)` times, so their costs are at most `O(log n)` times those of the primitive. We
//! model exactly that structure: the computation is a sequence of `O(log n)` rounds, each a
//! BP computation over the whole instance (pointer jumping for list ranking, label
//! propagation for connected components). Each round writes a fresh output array so the
//! computation stays limited-access.
//!
//! [`list_ranking_native`] does not run those rounds. It ranks by a sparse ruling set in O(n)
//! work: mark every 64th node and every node where lists start or merge as a ruler, walk from
//! each ruler to the next, rank the rulers, then every node from its ruler.
//!
//! What the dag no longer shares with the native kernel: [`list_ranking_computation`]
//! charges `log2 n` pointer-jumping rounds, each a BP scan of contiguous `(succ, rank)`
//! words, about `2n log2 n` word reads in all. The native kernel runs three marking
//! passes, one walk, one short sequential pass and one ranking pass, about `12n` word
//! accesses, and the walk's and two marking passes' accesses go to random nodes, which the
//! dag does not model. Only the instance size and the ranks are common, so `listrank.scn`'s
//! simulator verdicts are about pointer jumping, and its native rows time the ruling set.

use rws_dag::builders::BalancedTreeBuilder;
use rws_dag::{Addr, AlgoMeta, Computation, NodeId, SpDagBuilder, WorkUnit};
use rws_runtime::ParSliceExt;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::{AtomicU32, AtomicU64};

/// Configuration for list ranking.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ListRankConfig {
    /// Number of list nodes (power of two).
    pub n: usize,
    /// Elements per leaf.
    pub chunk: usize,
}

impl ListRankConfig {
    /// `n` elements with chunk 8 (or `n` if smaller).
    pub fn new(n: usize) -> Self {
        ListRankConfig { n, chunk: 8.min(n) }
    }
}

fn bp_round(
    b: &mut SpDagBuilder,
    n: u64,
    chunk: u64,
    read_bases: &[u64],
    write_bases: &[u64],
    reads_per_elem: u64,
) -> NodeId {
    let leaves: Vec<NodeId> = (0..n / chunk)
        .map(|i| {
            let lo = i * chunk;
            let mut unit = WorkUnit::compute(chunk * reads_per_elem.max(1));
            for &base in read_bases {
                unit = unit.reads((base + lo..base + lo + chunk).map(Addr));
            }
            for &base in write_bases {
                unit = unit.writes((base + lo..base + lo + chunk).map(Addr));
            }
            b.leaf(unit)
        })
        .collect();
    BalancedTreeBuilder::new(b, 2).combine(
        &leaves,
        |_, _| WorkUnit::compute(1),
        |_, _| WorkUnit::compute(1),
    )
}

/// Build the list-ranking computation: `log2 n` pointer-jumping rounds, each reading the
/// previous round's successor and rank arrays and writing fresh ones.
pub fn list_ranking_computation(cfg: &ListRankConfig) -> Computation {
    let n = cfg.n as u64;
    let chunk = cfg.chunk as u64;
    assert!(cfg.n.is_power_of_two() && (n / chunk).is_power_of_two() && chunk <= n);
    let rounds = (cfg.n as f64).log2().ceil() as u64;
    let mut b = SpDagBuilder::new();
    // Arrays: succ_0 at 0, rank_0 at n; round i writes succ_{i+1}, rank_{i+1} at 2n(i+1)..
    let mut parts = Vec::new();
    for round in 0..rounds {
        let read_succ = 2 * n * round;
        let read_rank = 2 * n * round + n;
        let write_succ = 2 * n * (round + 1);
        let write_rank = 2 * n * (round + 1) + n;
        parts.push(bp_round(
            &mut b,
            n,
            chunk,
            &[read_succ, read_rank],
            &[write_succ, write_rank],
            2,
        ));
    }
    let root = b.seq(parts);
    let dag = b.build(root).expect("list-ranking dag must validate");
    let mut meta = AlgoMeta::bp("list-ranking", n);
    meta.class = rws_dag::AlgoClass::Hierarchical {
        level: 3,
        hbp: true,
        collections: 1,
        shrink: rws_dag::Shrink::Half,
    };
    Computation::new(dag, meta)
}

/// Configuration for connected components.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnectedComponentsConfig {
    /// Number of vertices (power of two).
    pub vertices: usize,
    /// Number of edges.
    pub edges: usize,
    /// Elements per leaf.
    pub chunk: usize,
}

impl ConnectedComponentsConfig {
    /// A graph with `vertices` vertices and `2 * vertices` edges.
    pub fn new(vertices: usize) -> Self {
        ConnectedComponentsConfig { vertices, edges: 2 * vertices, chunk: 8.min(vertices) }
    }
}

/// Build the connected-components computation: `log2 v` label-propagation rounds, each a BP
/// pass over the edge list reading both endpoints' labels and writing fresh labels.
pub fn connected_components_computation(cfg: &ConnectedComponentsConfig) -> Computation {
    let v = cfg.vertices as u64;
    let e = (cfg.edges as u64).next_power_of_two();
    let chunk = cfg.chunk as u64;
    assert!(cfg.vertices.is_power_of_two());
    let rounds = (cfg.vertices as f64).log2().ceil() as u64;
    let mut b = SpDagBuilder::new();
    // Edge endpoint arrays at 0 and e; the initial labels at 2e; then per round a fresh
    // edge-proposal array (length e) and a fresh label array (length v), so every word is
    // written at most once over the whole computation.
    let initial_labels = 2 * e;
    let round_base = initial_labels + v;
    let stride = e + v;
    let mut parts = Vec::new();
    for round in 0..rounds {
        let read_labels =
            if round == 0 { initial_labels } else { round_base + (round - 1) * stride + e };
        let proposals = round_base + round * stride;
        let write_labels = proposals + e;
        // One pass over the edges (reads endpoints + labels, writes proposals), then a pass
        // over the vertices compacting proposals into the next label array.
        parts.push(bp_round(&mut b, e, chunk, &[0, e, read_labels], &[proposals], 3));
        parts.push(bp_round(&mut b, v, chunk, &[proposals, read_labels], &[write_labels], 1));
    }
    let root = b.seq(parts);
    let dag = b.build(root).expect("connected-components dag must validate");
    let mut meta = AlgoMeta::bp("connected-components", v + e);
    meta.class = rws_dag::AlgoClass::Hierarchical {
        level: 4,
        hbp: true,
        collections: 1,
        shrink: rws_dag::Shrink::Half,
    };
    Computation::new(dag, meta)
}

// ------------------------------------------------------------------------------------------
// Sequential reference
// ------------------------------------------------------------------------------------------

/// Pointer-jumping rounds of [`list_ranking_reference`]: `ceil(log2 n) + 1`, one more than the
/// rounds [`list_ranking_computation`] builds. Only the reference runs rounds; the native
/// kernel uses the count once, for the rank of a node that reaches no fixed point: the
/// reference gives it `2^rounds(n)`, so [`list_ranking_native`] does too.
fn rounds(n: usize) -> usize {
    n.next_power_of_two().trailing_zeros() as usize + 1
}

/// Sequential list ranking: given `succ` (successor indices, with the tail pointing to
/// itself), return the distance of every node from the tail.
///
/// On any successor array (a functional graph: chains, in-trees, rings, rho shapes) the
/// rank of a node is its number of hops to a fixed point, or `2^rounds(n)` if it reaches
/// none, since every round doubles the span a rank covers.
pub fn list_ranking_reference(succ: &[usize]) -> Vec<u64> {
    let n = succ.len();
    let mut s: Vec<usize> = succ.to_vec();
    let mut r: Vec<u64> =
        succ.iter().enumerate().map(|(i, &x)| if x == i { 0 } else { 1 }).collect();
    let (mut next_s, mut next_r) = (vec![0usize; n], vec![0u64; n]);
    for _ in 0..rounds(n) {
        for i in 0..n {
            next_r[i] = r[i] + r[s[i]];
            next_s[i] = s[s[i]];
        }
        std::mem::swap(&mut s, &mut next_s);
        std::mem::swap(&mut r, &mut next_r);
    }
    r
}

// ------------------------------------------------------------------------------------------
// Native kernel: a sparse ruling set
// ------------------------------------------------------------------------------------------

/// Every non-fixed node whose id is a multiple of `STRIDE` is a ruler, so on a random list a
/// walk covers about `STRIDE` nodes (64 measured fastest at n = 2^17).
const STRIDE: usize = 64;
/// Node ids per entry of the block table: the chunk of the marking and ranking passes.
const BLOCK: usize = 256;
/// Blocks per chunk of the walk, so a walk leaf starts about `BLOCK * WALK_BLOCKS / STRIDE`
/// walkers, enough to keep [`WALKERS`] of them busy most of the time.
const WALK_BLOCKS: usize = 16;
/// Walkers a walk leaf advances round-robin: their loads are independent, so the processor
/// overlaps their cache misses instead of waiting out one dependent miss per step.
const WALKERS: usize = 8;

// While rulers are marked, `preds[v]` is 0 if node `v` has no predecessor, `p + 1` if its
// one predecessor is `p`, and `MANY` if it has two or more. From then on each node has a
// word `own[v]` whose top two bits are a tag:
/// The node lies on a ruler's walk: `(ruler index << 32) | hops from the ruler`. A ruler is
/// its own walk's node at 0 hops.
const OWNED: u64 = 0;
/// Not a ruler and not yet walked; the low bits are its successor.
const FREE: u64 = 1 << 62;
/// A ruler whose walk has not started; the low bits are its successor.
const RULER: u64 = 2 << 62;
/// A fixed point, of rank 0.
const FIXED: u64 = 3 << 62;
const TAG: u64 = 3 << 62;
/// Two or more predecessors.
const MANY: u32 = u32::MAX;
/// A node id or a hop count: below 2^30.
const ID: u64 = (1 << 30) - 1;
/// A ruler's link `(end << 32) | hops` while rulers are ranked: `SEEN` once the current
/// ranking walk has passed it, replaced by `DONE | rank` when it is ranked.
const SEEN: u64 = 1 << 62;
const DONE: u64 = 1 << 63;

/// Native fork-join list ranking on the `rws-runtime` work-stealing pool, in O(n) work: a
/// sparse ruling set (the sublist method of Reid-Miller, SPAA 1994, and Helman & JáJá, 2001).
///
/// 1. **Mark rulers.** A ruler is every non-fixed node with no predecessor or with two or
///    more, and every non-fixed node whose id is a multiple of `STRIDE`. Three
///    [`par_chunks_mut`](ParSliceExt::par_chunks_mut) passes over the nodes find them with
///    relaxed stores and no read-modify-write: every node stores itself as its successor's
///    predecessor (the last writer wins), every node that did not win marks its successor
///    as having several, and every node becomes a fixed point, a ruler or a free node, each
///    block of `BLOCK` ids counting its rulers. A sequential prefix over the block table
///    numbers the rulers in id order.
/// 2. **Walk.** A pass over groups of blocks walks from each ruler of the group, `WALKERS`
///    walkers round-robin, and records every node it passes as `(ruler, hops)` until it
///    reaches the next ruler or a fixed point, which ends the ruler's link.
/// 3. **Resolve.** A sequential pass ranks the rulers along their links, the ones whose
///    links close a cycle `2^rounds(n)`.
/// 4. **Rank.** A contiguous pass sets every node's rank to its ruler's rank minus its hops.
///
/// Every node other than a ruler has exactly one predecessor, so exactly one walk reaches
/// it, or none if it lies on a cycle with no ruler (rank `2^rounds(n)`). The ranks are those
/// of [`list_ranking_reference`] on every successor array, whatever the schedule. The walk's
/// scattered stores are relaxed atomics: between passes a `join` orders them, and within
/// the walk a node's word has one writer (a ruler's word also has readers, which stop at it
/// whatever they read). Outside a pool worker the joins run sequentially.
///
/// Each node costs a 4-byte predecessor word, freed before the walk, and an 8-byte word that
/// holds its successor, then its ruler and hops, then its rank, which is returned in place:
/// at n = 2^17 the walk's random accesses stay within 1 MiB, and each reads the successor
/// from the word it then overwrites.
///
/// # Panics
///
/// If `succ` has more than 2^30 nodes, or if a successor is not a node index.
pub fn list_ranking_native(succ: &[usize]) -> Vec<u64> {
    let n = succ.len();
    assert!(
        n <= 1 << 30,
        "list_ranking_native ranks at most 2^30 nodes, got {n}: node ids, hop counts and \
         ruler indices each take 30 bits of a node's word"
    );
    if n == 0 {
        return Vec::new();
    }
    let cycle = 1u64 << rounds(n);
    let ids = |b: usize| b * BLOCK..n.min((b + 1) * BLOCK);
    let mut blocks = vec![0usize; n.div_ceil(BLOCK)];
    let preds: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    blocks.par_chunks_mut(1).for_each_indexed(|b, _| {
        for (i, &s) in ids(b).zip(&succ[ids(b)]) {
            assert!(s < n, "list_ranking_native: successor {s} of node {i} is not below n = {n}");
            if s != i {
                preds[s].store(i as u32 + 1, Relaxed);
            }
        }
    });
    blocks.par_chunks_mut(1).for_each_indexed(|b, _| {
        for (i, &s) in ids(b).zip(&succ[ids(b)]) {
            if s != i && preds[s].load(Relaxed) != i as u32 + 1 {
                preds[s].store(MANY, Relaxed);
            }
        }
    });
    let own: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    blocks.par_chunks_mut(1).for_each_indexed(|b, count| {
        let mut rulers = 0;
        for (v, ((&s, p), word)) in
            ids(b).zip(succ[ids(b)].iter().zip(&preds[ids(b)]).zip(&own[ids(b)]))
        {
            let p = p.load(Relaxed);
            word.store(
                if s == v {
                    FIXED
                } else if p == 0 || p == MANY || v.is_multiple_of(STRIDE) {
                    rulers += 1;
                    RULER | s as u64
                } else {
                    FREE | s as u64
                },
                Relaxed,
            );
        }
        count[0] = rulers;
    });
    drop(preds);
    let mut rulers = 0;
    for first in &mut blocks {
        let count = *first;
        *first = rulers;
        rulers += count;
    }

    let links: Vec<AtomicU64> = (0..rulers).map(|_| AtomicU64::new(0)).collect();
    blocks.par_chunks_mut(WALK_BLOCKS).for_each_indexed(|g, first| {
        let group = g * WALK_BLOCKS * BLOCK..n.min((g + 1) * WALK_BLOCKS * BLOCK);
        walk(&own, &links, group, first[0]);
    });

    let mut links: Vec<u64> = links.into_iter().map(AtomicU64::into_inner).collect();
    resolve(&own, &mut links, cycle);

    let mut own = own;
    own.par_chunks_mut(BLOCK).for_each(|part| {
        for word in part {
            let word = word.get_mut();
            *word = match *word & TAG {
                OWNED => match links[(*word >> 32) as usize] & !DONE {
                    rank if rank == cycle => cycle,
                    rank => rank - (*word & ID),
                },
                // No walk reached it: it lies on a cycle with no ruler.
                FREE => cycle,
                FIXED => 0,
                _ => unreachable!("every ruler's walk starts"),
            };
        }
    });
    own.into_iter().map(AtomicU64::into_inner).collect()
}

/// Walk from every ruler of `group` in id order, numbering them from `first`: `WALKERS`
/// walks at a time, each taking one step per turn, a finished walk's slot taking the next
/// ruler. A walk claims each free node it reaches and stores its link at the first node
/// that is not free.
fn walk(own: &[AtomicU64], links: &[AtomicU64], group: Range<usize>, first: usize) {
    let (mut scan, mut next) = (group.start, first);
    // Per walker: its ruler's index, the node it stands on and its hops from the ruler.
    let mut walkers = [None::<(usize, usize, u64)>; WALKERS];
    loop {
        let mut idle = true;
        for slot in &mut walkers {
            if slot.is_none() {
                while scan < group.end && own[scan].load(Relaxed) & TAG != RULER {
                    scan += 1;
                }
                if scan < group.end {
                    let succ = own[scan].load(Relaxed) & ID;
                    own[scan].store(OWNED | (next as u64) << 32, Relaxed);
                    *slot = Some((next, succ as usize, 1));
                    (scan, next) = (scan + 1, next + 1);
                }
            }
            let Some((ruler, at, hops)) = slot else { continue };
            idle = false;
            let word = own[*at].load(Relaxed);
            if word & TAG == FREE {
                own[*at].store((*ruler as u64) << 32 | *hops, Relaxed);
                (*at, *hops) = ((word & ID) as usize, *hops + 1);
            } else {
                links[*ruler].store((*at as u64) << 32 | *hops, Relaxed);
                *slot = None;
            }
        }
        if idle {
            return;
        }
    }
}

/// Rank every ruler, in place: each link `(end << 32) | hops` becomes `DONE | rank`. From
/// each ruler not yet ranked, a first walk along the links sums the hops to a ranked ruler,
/// a fixed point or a ruler it has already passed (a cycle: rank `cycle`); a second walk
/// hands each ruler it passed its rank.
fn resolve(own: &[AtomicU64], links: &mut [u64], cycle: u64) {
    // The index of the ruler a link ends at, or `None` at a fixed point.
    let next = |link: u64| {
        let word = own[(link >> 32 & ID) as usize].load(Relaxed);
        (word & TAG == OWNED).then_some((word >> 32) as usize)
    };
    for start in 0..links.len() {
        let (mut at, mut hops) = (start, 0);
        let beyond = loop {
            let link = links[at];
            if link & DONE != 0 {
                break link & !DONE;
            }
            if link & SEEN != 0 {
                break cycle;
            }
            links[at] = link | SEEN;
            hops += link & ID;
            match next(link) {
                Some(ruler) => at = ruler,
                None => break 0,
            }
        };
        let mut rank = if beyond == cycle { cycle } else { hops + beyond };
        let mut at = start;
        while links[at] & SEEN != 0 {
            let link = links[at];
            links[at] = DONE | rank;
            if rank != cycle {
                rank -= link & ID;
            }
            match next(link) {
                Some(ruler) => at = ruler,
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use rws_runtime::ThreadPool;
    use std::sync::Arc;

    /// `list_ranking_native` equals `list_ranking_reference` on every successor array of
    /// `cases`, outside a pool and on pools of 1, 2 and 4 workers.
    fn assert_native_matches_reference(shape: &'static str, cases: Vec<Vec<usize>>) {
        let expected: Vec<Vec<u64>> = cases.iter().map(|c| list_ranking_reference(c)).collect();
        let cases = Arc::new((cases, expected));
        let check = move |cases: &(Vec<Vec<usize>>, Vec<Vec<u64>>), threads: usize| {
            for (succ, want) in cases.0.iter().zip(&cases.1) {
                let got = list_ranking_native(succ);
                if let Some(v) = (0..succ.len()).find(|&v| got[v] != want[v]) {
                    let shown = if succ.len() <= 8 { format!(" {succ:?}") } else { String::new() };
                    panic!(
                        "{shape}{shown}, {threads} threads: node {v} ranked {}, reference {}",
                        got[v], want[v]
                    );
                }
            }
        };
        check(&cases, 0);
        for threads in [1, 2, 4] {
            let cases = Arc::clone(&cases);
            ThreadPool::new(threads).install(move || check(&cases, threads));
        }
    }

    /// Swap every multiple of STRIDE at the positions `within` of `order` for a
    /// non-multiple from the positions `from`.
    fn clear_rulers(order: &mut [usize], within: Range<usize>, from: Range<usize>) {
        let mut spare: Vec<usize> = from.filter(|&p| !order[p].is_multiple_of(STRIDE)).collect();
        for p in within {
            if order[p].is_multiple_of(STRIDE) {
                order.swap(p, spare.pop().expect("enough non-multiples to swap in"));
            }
        }
    }

    fn shuffled(n: usize, rng: &mut SmallRng) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        order
    }

    /// Link the nodes of `path` one to the next in `succ`, the last to `end`.
    fn link(succ: &mut [usize], path: &[usize], end: usize) {
        for w in path.windows(2) {
            succ[w[0]] = w[1];
        }
        succ[path[path.len() - 1]] = end;
    }

    #[test]
    fn list_ranking_reference_on_a_chain() {
        // 0 -> 1 -> 2 -> 3 -> 3 (tail).
        let succ = vec![1, 2, 3, 3];
        assert_eq!(list_ranking_reference(&succ), vec![3, 2, 1, 0]);
    }

    #[test]
    fn list_ranking_reference_on_a_reversed_chain() {
        let succ = vec![0, 0, 1, 2];
        assert_eq!(list_ranking_reference(&succ), vec![0, 1, 2, 3]);
    }

    #[test]
    fn native_runner_matches_reference_outside_a_pool() {
        // Outside a pool worker the joins run sequentially; correctness is identical.
        // Chains (with a self-loop tail) have a fixed point; the shuffled ring has none,
        // which is where the kernel must give the reference's `2^rounds(n)`.
        let chain: Vec<usize> = (0..1000).map(|i| (i + 1).min(999)).collect();
        assert_eq!(list_ranking_native(&chain), list_ranking_reference(&chain));
        let ring: Vec<usize> = (0..512).map(|i| (i + 3) % 512).collect();
        assert_eq!(list_ranking_native(&ring), list_ranking_reference(&ring));
        assert_eq!(list_ranking_native(&[]), Vec::<u64>::new());
        assert_eq!(list_ranking_native(&[0]), vec![0]);
    }

    #[test]
    fn an_out_of_range_successor_panics_instead_of_wrapping() {
        // Packed unchecked into a node's 30-bit successor field, 1 << 32 would become 0:
        // node 0 would silently point at itself.
        for succ in [vec![1usize << 32, 0], vec![2, 0]] {
            let err = std::panic::catch_unwind(|| list_ranking_native(&succ))
                .expect_err("an out-of-range successor must panic");
            let msg = err.downcast_ref::<String>().expect("a formatted panic message");
            assert!(msg.contains("is not below n = 2"), "{succ:?}: {msg}");
        }
    }

    #[test]
    fn a_ring_ranks_every_node_two_to_the_rounds() {
        // A ring has no fixed point: each of a 2^k-node ring's k + 1 rounds doubles every
        // rank, the growth the native kernel's 2^30 bound on n comes from. (A one-node ring
        // is a self-loop, i.e. a tail of rank 0.)
        for k in 1..=12 {
            let n = 1usize << k;
            let ring: Vec<usize> = (0..n).map(|i| (i + 1) % n).collect();
            let expected = vec![1u64 << (k + 1); n];
            assert_eq!(list_ranking_native(&ring), expected, "native, n = {n}");
            assert_eq!(list_ranking_reference(&ring), expected, "reference, n = {n}");
        }
    }

    #[test]
    fn list_ranking_dag_has_log_n_rounds() {
        let comp = list_ranking_computation(&ListRankConfig::new(256));
        assert!(comp.check_properties().is_empty());
        // 8 rounds of 32 leaves each.
        assert_eq!(comp.dag.leaf_count(), 8 * 32);
        assert_eq!(comp.dag.max_writes_per_global_word(), 1);
    }

    #[test]
    fn connected_components_dag_structure() {
        let comp = connected_components_computation(&ConnectedComponentsConfig::new(128));
        assert!(comp.check_properties().is_empty());
        assert!(comp.dag.work() > 0);
        assert!(comp.dag.max_writes_per_global_word() <= 2);
        // Rounds are sequenced: the span is much larger than a single BP pass but far less
        // than the work.
        assert!(comp.dag.span_nodes() < comp.dag.work());
    }
    #[test]
    fn native_matches_reference_on_every_functional_graph_up_to_six_nodes() {
        // Every successor array over 1..=6 nodes (6^6 = 46 656 of them at six): chains,
        // in-trees, rings, rho shapes and their disjoint unions, with and without rulers.
        let cases = (1..=6usize)
            .flat_map(|n| {
                (0..n.pow(n as u32)).map(move |mut code| {
                    (0..n)
                        .map(|_| {
                            let s = code % n;
                            code /= n;
                            s
                        })
                        .collect()
                })
            })
            .collect();
        assert_native_matches_reference("every functional graph", cases);
    }

    #[test]
    fn native_matches_reference_on_a_chain_with_no_ruler_for_ten_strides() {
        // A shuffled chain whose positions 1000 .. 1000 + 10 STRIDE hold no multiple of
        // STRIDE: one walk crosses all of them.
        let n = 1 << 14;
        let mut rng = SmallRng::seed_from_u64(48);
        let mut order = shuffled(n, &mut rng);
        let stretch = 1000..1000 + 10 * STRIDE;
        clear_rulers(&mut order, stretch.clone(), stretch.end..n);
        assert!(order[stretch].iter().all(|v| !v.is_multiple_of(STRIDE)));
        let mut succ = vec![0; n];
        link(&mut succ, &order, order[n - 1]);
        assert_native_matches_reference("ten-stride chain", vec![succ]);
    }

    #[test]
    fn native_matches_reference_on_a_broom() {
        // 2^12 heads point at the first node of one trunk of 2^13 nodes: 2^12 rulers whose
        // walks end after one hop, at a node with 2^12 predecessors.
        let (heads, trunk) = (1 << 12, 1 << 13);
        let mut rng = SmallRng::seed_from_u64(49);
        let order = shuffled(heads + trunk, &mut rng);
        let mut succ = vec![0; heads + trunk];
        link(&mut succ, &order[heads..], order[heads + trunk - 1]);
        for &head in &order[..heads] {
            succ[head] = order[heads];
        }
        assert_native_matches_reference("broom", vec![succ]);
    }

    #[test]
    fn native_matches_reference_on_a_list_beside_rings() {
        // One shuffled list of 2^13 nodes beside rings of 2, 3, 63, 64, 1000 and 2^12
        // nodes; the ring of 63 holds no multiple of STRIDE, so it has no ruler at all.
        let rings = [2usize, 3, 63, 64, 1000, 1 << 12];
        let list = 1 << 13;
        let n = list + rings.iter().sum::<usize>();
        let mut rng = SmallRng::seed_from_u64(50);
        let mut order = shuffled(n, &mut rng);
        let mut start = list;
        for len in rings {
            if len == 63 {
                clear_rulers(&mut order, start..start + len, 0..list);
            }
            start += len;
        }
        let mut succ = vec![0; n];
        link(&mut succ, &order[..list], order[list - 1]);
        let mut start = list;
        for len in rings {
            let ring = &order[start..start + len];
            if len == 63 {
                assert!(ring.iter().all(|v| !v.is_multiple_of(STRIDE)), "a ring without a ruler");
            }
            link(&mut succ, ring, ring[0]);
            start += len;
        }
        assert_native_matches_reference("list beside rings", vec![succ]);
    }

    #[test]
    fn native_matches_reference_on_random_trees_and_functional_graphs() {
        // A random in-tree (each node points at a lower id, node 0 at itself: merges
        // everywhere) and uniformly random successor arrays (trees feeding rho-shaped
        // cycles).
        let mut rng = SmallRng::seed_from_u64(51);
        let n = 1 << 13;
        let tree = (0..n).map(|i| if i == 0 { 0 } else { rng.gen_range(0..i) }).collect();
        let random = (0..4).map(|_| (0..n).map(|_| rng.gen_range(0..n)).collect());
        assert_native_matches_reference(
            "random trees and functional graphs",
            std::iter::once(tree).chain(random).collect(),
        );
    }
}
