//! Matrix transposition and layout conversions (Sections 4.3 and 7).
//!
//! * [`transpose_bi_computation`] — in-place transpose of a matrix in BI layout. A BP tree
//!   computation: diagonal tiles transpose themselves, off-diagonal tile pairs swap.
//! * [`rm_to_bi_computation`] — the straightforward tree computation copying row-major tiles
//!   into the (contiguous) BI positions; `W = O(n²)`, `T∞ = O(log n)`, block delay `O(S·B)`
//!   (Lemma 4.6).
//! * [`bi_to_rm_computation`] — the paper's slower but block-miss-frugal conversion
//!   (Lemma 4.7): recursively convert each quadrant into a local array, then merge the four
//!   quadrant-RM arrays into the destination with a tree computation.
//!   `W = O(n² log n)`, `T∞ = O(log² n)`.
//!
//! Each of the three computations also ships as a real fork-join kernel on the
//! `rws-runtime` pool ([`transpose_native_bi`], [`rm_to_bi_native`], [`bi_to_rm_native`]):
//! aligned BI quadrants are contiguous, so the quadrant recursion splits the buffer into
//! disjoint borrowed `&mut` slices and forks with nested `rws_runtime::join`s — the binary
//! fork tree `BalancedTreeBuilder::combine` gives the dag builders, same shape and child
//! order, executed for real.

use crate::common::{balanced_levels, Dest};
use crate::layout::{bi_quadrant_offset, bit_interleave, quad, quads_mut};
use rws_dag::builders::BalancedTreeBuilder;
use rws_dag::{Addr, AlgoMeta, Computation, NodeId, Shrink, SpDagBuilder, WorkUnit};
use rws_runtime::ParSliceExt;

fn combine(b: &mut SpDagBuilder, children: &[NodeId]) -> NodeId {
    BalancedTreeBuilder::new(b, 2).combine(
        children,
        |_, _| WorkUnit::compute(1),
        |_, _| WorkUnit::compute(1),
    )
}

// ------------------------------------------------------------------------------------------
// In-place transpose in BI layout
// ------------------------------------------------------------------------------------------

/// Build the computation transposing an `n × n` matrix stored in BI layout at address 0,
/// with `base × base` leaf tiles.
pub fn transpose_bi_computation(n: usize, base: usize) -> Computation {
    assert!(n.is_power_of_two() && base.is_power_of_two() && base <= n);
    let mut b = SpDagBuilder::new();
    let root = build_transpose(&mut b, 0, n as u64, base as u64);
    let dag = b.build(root).expect("transpose dag must validate");
    Computation::new(
        dag,
        AlgoMeta::bp("transpose-bi", (n * n) as u64).with_base_case((base * base) as u64),
    )
}

fn build_transpose(b: &mut SpDagBuilder, start: u64, m: u64, base: u64) -> NodeId {
    if m <= base {
        // A diagonal tile: read and rewrite every element (in-place transpose of the tile).
        let m2 = m * m;
        let unit = WorkUnit::compute(m2)
            .reads((start..start + m2).map(Addr))
            .writes((start..start + m2).map(Addr));
        return b.leaf(unit);
    }
    let tl = build_transpose(b, start + bi_quadrant_offset(0, m), m / 2, base);
    let br = build_transpose(b, start + bi_quadrant_offset(3, m), m / 2, base);
    let swap = build_swap(
        b,
        start + bi_quadrant_offset(1, m),
        start + bi_quadrant_offset(2, m),
        m / 2,
        base,
    );
    combine(b, &[tl, br, swap])
}

fn build_swap(b: &mut SpDagBuilder, x: u64, y: u64, m: u64, base: u64) -> NodeId {
    if m <= base {
        let m2 = m * m;
        let unit = WorkUnit::compute(2 * m2)
            .reads((x..x + m2).map(Addr))
            .reads((y..y + m2).map(Addr))
            .writes((x..x + m2).map(Addr))
            .writes((y..y + m2).map(Addr));
        return b.leaf(unit);
    }
    // Swapping X with Yᵀ quadrant-wise: X_q swaps with Y_{qᵀ}.
    let children: Vec<NodeId> = [(0u64, 0u64), (1, 2), (2, 1), (3, 3)]
        .iter()
        .map(|&(qx, qy)| {
            build_swap(b, x + bi_quadrant_offset(qx, m), y + bi_quadrant_offset(qy, m), m / 2, base)
        })
        .collect();
    combine(b, &children)
}

/// Sequential reference transpose (row-major in, row-major out).
pub fn transpose_reference(a: &[f64], n: usize) -> Vec<f64> {
    let mut t = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            t[j * n + i] = a[i * n + j];
        }
    }
    t
}

// ------------------------------------------------------------------------------------------
// Native fork-join kernels
// ------------------------------------------------------------------------------------------

/// In-place native fork-join transpose of an `n × n` matrix in BI layout — the same
/// decomposition as [`transpose_bi_computation`]'s dag: diagonal quadrants transpose
/// themselves, the off-diagonal pair swap-transposes, forked as the dag's
/// `Par(tl, Par(br, swap))` over disjoint borrowed quadrant slices. Outside a pool worker
/// the joins run sequentially.
pub fn transpose_native_bi(a: &mut [f64], n: usize, base: usize) {
    assert!(n.is_power_of_two() && base.is_power_of_two() && base >= 1 && base <= n);
    assert_eq!(a.len(), n * n);
    transpose_rec(a, n, base);
}

fn transpose_rec(a: &mut [f64], m: usize, base: usize) {
    if m <= base {
        // A diagonal tile: swap each (i, j) / (j, i) pair within the tile.
        for i in 0..m as u64 {
            for j in (i + 1)..m as u64 {
                a.swap(bit_interleave(i, j) as usize, bit_interleave(j, i) as usize);
            }
        }
        return;
    }
    let [tl, tr, bl, br] = quads_mut(a);
    // The dag's `Par(tl, Par(br, swap))`: the two diagonal recursions, then the swap pair.
    rws_runtime::join(
        || transpose_rec(tl, m / 2, base),
        || {
            rws_runtime::join(
                || transpose_rec(br, m / 2, base),
                || swap_transpose_rec(tr, bl, m / 2, base),
            )
        },
    );
}

/// Set `X ← Yᵀ` and `Y ← Xᵀ` for two disjoint BI-ordered `m × m` tiles; quadrant-wise,
/// `X_q` pairs with `Y_{qᵀ}` (the dag's `build_swap`).
fn swap_transpose_rec(x: &mut [f64], y: &mut [f64], m: usize, base: usize) {
    if m <= base {
        for i in 0..m as u64 {
            for j in 0..m as u64 {
                let xi = bit_interleave(i, j) as usize;
                let yi = bit_interleave(j, i) as usize;
                std::mem::swap(&mut x[xi], &mut y[yi]);
            }
        }
        return;
    }
    let [x0, x1, x2, x3] = quads_mut(x);
    let [y0, y1, y2, y3] = quads_mut(y);
    // The dag's `Par(Par(q0, q1), Par(q2, q3))` over disjoint quadrant borrows.
    rws_runtime::join(
        || {
            rws_runtime::join(
                || swap_transpose_rec(x0, y0, m / 2, base),
                || swap_transpose_rec(x1, y2, m / 2, base),
            )
        },
        || {
            rws_runtime::join(
                || swap_transpose_rec(x2, y1, m / 2, base),
                || swap_transpose_rec(x3, y3, m / 2, base),
            )
        },
    );
}

/// Native fork-join conversion of a row-major `n × n` matrix into a fresh BI-ordered
/// buffer — the fast tree computation of [`rm_to_bi_computation`] (Lemma 4.6): each
/// quadrant of the (contiguous) BI destination is filled by an independent branch reading
/// the corresponding aligned submatrix of the shared row-major source.
pub fn rm_to_bi_native(rm: &[f64], n: usize, base: usize) -> Vec<f64> {
    assert!(n.is_power_of_two() && base.is_power_of_two() && base >= 1 && base <= n);
    assert_eq!(rm.len(), n * n);
    let mut out = vec![0.0; n * n];
    rm_to_bi_rec(rm, n, 0, 0, n, &mut out, base);
    out
}

fn rm_to_bi_rec(
    rm: &[f64],
    n: usize,
    i0: usize,
    j0: usize,
    m: usize,
    out: &mut [f64],
    base: usize,
) {
    if m <= base {
        for di in 0..m {
            for dj in 0..m {
                out[bit_interleave(di as u64, dj as u64) as usize] = rm[(i0 + di) * n + (j0 + dj)];
            }
        }
        return;
    }
    let h = m / 2;
    let [q0, q1, q2, q3] = quads_mut(out);
    // The dag's balanced tree over the four quadrants' tiles: `Par(Par(q0, q1), Par(q2, q3))`.
    rws_runtime::join(
        || {
            rws_runtime::join(
                || rm_to_bi_rec(rm, n, i0, j0, h, q0, base),
                || rm_to_bi_rec(rm, n, i0, j0 + h, h, q1, base),
            )
        },
        || {
            rws_runtime::join(
                || rm_to_bi_rec(rm, n, i0 + h, j0, h, q2, base),
                || rm_to_bi_rec(rm, n, i0 + h, j0 + h, h, q3, base),
            )
        },
    );
}

/// Native fork-join conversion of a BI-ordered `n × n` matrix into a fresh row-major
/// buffer — the paper's log²-depth algorithm of [`bi_to_rm_computation`] (Lemma 4.7): each
/// quadrant converts into its own local array in one parallel collection, then a parallel
/// row-merge pass interleaves quadrant rows into the destination. The local arrays of the
/// whole recursion are one `n²`-word workspace allocated per call: destination and
/// workspace are both split into quarters beside the source's quadrants, and swap roles
/// level by level — a quadrant's local array is the workspace quarter beside it, and the
/// destination quarter (which nobody writes until this level's merge pass) is that
/// quadrant's own workspace.
pub fn bi_to_rm_native(bi: &[f64], n: usize, base: usize) -> Vec<f64> {
    assert!(n.is_power_of_two() && base.is_power_of_two() && base >= 1 && base <= n);
    assert_eq!(bi.len(), n * n);
    let mut out = vec![0.0; n * n];
    let mut workspace = vec![0.0; n * n];
    bi_to_rm_rec(bi, &mut out, &mut workspace, n, base);
    out
}

/// Convert the contiguous BI `m × m` submatrix `bi` into the row-major array `out`, with
/// `ws` (`m²` words, contents unspecified on return) for the local arrays below.
fn bi_to_rm_rec(bi: &[f64], out: &mut [f64], ws: &mut [f64], m: usize, base: usize) {
    if m <= base {
        for (di, row) in out.chunks_mut(m).enumerate() {
            for (dj, v) in row.iter_mut().enumerate() {
                *v = bi[bit_interleave(di as u64, dj as u64) as usize];
            }
        }
        return;
    }
    let h = m / 2;
    let quarter = h * h;
    {
        let [t0, t1, t2, t3] = quads_mut(ws);
        let [o0, o1, o2, o3] = quads_mut(out);
        // The dag's `Par(Par(q0, q1), Par(q2, q3))` over disjoint quarter borrows.
        rws_runtime::join(
            || {
                rws_runtime::join(
                    || bi_to_rm_rec(quad(bi, 0), t0, o0, h, base),
                    || bi_to_rm_rec(quad(bi, 1), t1, o1, h, base),
                )
            },
            || {
                rws_runtime::join(
                    || bi_to_rm_rec(quad(bi, 2), t2, o2, h, base),
                    || bi_to_rm_rec(quad(bi, 3), t3, o3, h, base),
                )
            },
        );
    }
    // Merge pass: one branch per output row; row i (< h) interleaves TL row i and TR row
    // i, row i (>= h) interleaves BL and BR rows (the dag's row-merge tree).
    let (top, bottom) = ws.split_at(2 * quarter);
    out.par_chunks_mut(m).for_each_indexed(|i, row| {
        let (pair, r) = if i < h { (top, i) } else { (bottom, i - h) };
        row[..h].copy_from_slice(&pair[r * h..(r + 1) * h]);
        row[h..].copy_from_slice(&pair[quarter + r * h..quarter + (r + 1) * h]);
    });
}

// ------------------------------------------------------------------------------------------
// RM -> BI conversion (fast tree computation, Lemma 4.6)
// ------------------------------------------------------------------------------------------

/// Build the computation converting an `n × n` row-major matrix at address 0 into BI layout
/// at address `n²`, with `base × base` tiles.
pub fn rm_to_bi_computation(n: usize, base: usize) -> Computation {
    assert!(n.is_power_of_two() && base.is_power_of_two() && base <= n);
    let n2 = (n * n) as u64;
    let mut b = SpDagBuilder::new();
    let tiles = n / base;
    let mut leaves = Vec::with_capacity(tiles * tiles);
    // Leaves in BI order of tiles so each writes a contiguous destination range.
    for tile in 0..(tiles * tiles) as u64 {
        let (ti, tj) = crate::layout::bit_deinterleave(tile);
        let (i0, j0) = (ti * base as u64, tj * base as u64);
        let mut unit = WorkUnit::compute((base * base) as u64);
        for di in 0..base as u64 {
            for dj in 0..base as u64 {
                unit = unit.read(Addr((i0 + di) * n as u64 + (j0 + dj)));
            }
        }
        let dst = n2 + bit_interleave(i0, j0);
        unit = unit.writes((dst..dst + (base * base) as u64).map(Addr));
        leaves.push(b.leaf(unit));
    }
    let root = combine(&mut b, &leaves);
    let dag = b.build(root).expect("rm->bi dag must validate");
    Computation::new(dag, AlgoMeta::bp("rm-to-bi", n2).with_base_case((base * base) as u64))
}

// ------------------------------------------------------------------------------------------
// BI -> RM conversion (the paper's log²-depth, block-miss-frugal version, Lemma 4.7)
// ------------------------------------------------------------------------------------------

/// Build the computation converting an `n × n` BI matrix at address 0 into row-major layout
/// at address `n²` using the paper's recursive algorithm: convert each quadrant into a local
/// array, then merge the four quadrant-RM arrays into the destination row by row.
pub fn bi_to_rm_computation(n: usize, base: usize) -> Computation {
    assert!(n.is_power_of_two() && base.is_power_of_two() && base <= n);
    let n2 = (n * n) as u64;
    let mut b = SpDagBuilder::new();
    let root = build_bi_to_rm(&mut b, 0, Dest::Global { base: n2 }, n as u64, base as u64, 0);
    let dag = b.build(root).expect("bi->rm dag must validate");
    let mut meta =
        AlgoMeta::hbp2("bi-to-rm", n2, 1, Shrink::Quarter).with_base_case((base * base) as u64);
    meta.local_space = rws_dag::SpaceBound::Linear;
    Computation::new(dag, meta)
}

/// Convert the BI submatrix of dimension `m` at `src` into an RM array of `m²` words at
/// `dest` (row-major within the submatrix).
fn build_bi_to_rm(
    b: &mut SpDagBuilder,
    src: u64,
    dest: Dest,
    m: u64,
    base: u64,
    ctx_depth: u32,
) -> NodeId {
    if m <= base {
        let m2 = m * m;
        let at_depth = ctx_depth + 1;
        let mut unit = WorkUnit::compute(m2).reads((src..src + m2).map(Addr));
        unit = dest.write_range(unit, 0..m2, at_depth);
        return b.leaf(unit);
    }
    let h = m / 2;
    let s = h * h;
    // The call's Seq declares a local array holding the four quadrant-RM conversions.
    let seq_depth = ctx_depth + 1;
    let local = |q: u64| Dest::Local {
        depth: seq_depth,
        offset: u32::try_from(q * s).expect("local quadrant offset"),
    };
    let child_depth = seq_depth + balanced_levels(4);
    let quads: Vec<NodeId> = (0..4u64)
        .map(|q| build_bi_to_rm(b, src + bi_quadrant_offset(q, m), local(q), h, base, child_depth))
        .collect();
    let converted = combine(b, &quads);

    // Merge pass: one leaf per output row; row i (< h) interleaves TL row i and TR row i,
    // row i (>= h) interleaves BL and BR rows. Reads are from the local array, writes go to
    // contiguous ranges of the destination: the regular pattern of Section 6.
    let rows = m as usize;
    let levels = balanced_levels(rows.next_power_of_two());
    let leaf_depth = seq_depth + levels + 1;
    let mut row_leaves = Vec::with_capacity(rows);
    for i in 0..m {
        let (left_q, right_q, r) = if i < h { (0, 1, i) } else { (2, 3, i - h) };
        let mut unit = WorkUnit::compute(m);
        unit = local(left_q).read_range(unit, r * h..(r + 1) * h, leaf_depth);
        unit = local(right_q).read_range(unit, r * h..(r + 1) * h, leaf_depth);
        unit = dest.write_range(unit, i * m..(i + 1) * m, leaf_depth);
        row_leaves.push(b.leaf(unit));
    }
    let merge = combine(b, &row_leaves);
    b.seq_with_segment(vec![converted, merge], u32::try_from(4 * s).expect("segment"))
}

/// Sequential reference conversions between RM and BI vectors (for `f64` data).
pub fn rm_to_bi_reference(rm: &[f64], n: usize) -> Vec<f64> {
    crate::matmul::to_bi(rm, n)
}

/// Sequential reference conversion from BI back to RM.
pub fn bi_to_rm_reference(bi: &[f64], n: usize) -> Vec<f64> {
    crate::matmul::from_bi(bi, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_reference_is_involutive() {
        let n = 8;
        let a: Vec<f64> = (0..n * n).map(|x| x as f64).collect();
        let t = transpose_reference(&a, n);
        assert_eq!(transpose_reference(&t, n), a);
        // Entry (i=1, j=0) of the transpose equals entry (i=0, j=1) of the original.
        assert_eq!(t[n], a[1]);
    }

    #[test]
    fn transpose_dag_touches_every_word_once_or_twice() {
        let comp = transpose_bi_computation(16, 4);
        assert!(comp.check_properties().is_empty());
        assert_eq!(comp.dag.global_footprint_words(), 16 * 16);
        // Diagonal tiles write their words once; swapped tiles also once each.
        assert_eq!(comp.dag.max_writes_per_global_word(), 1);
        // Work is Θ(n²).
        let w = comp.dag.work();
        assert!((256..2000).contains(&w), "transpose work should be Θ(n²), got {w}");
    }

    #[test]
    fn transpose_span_is_logarithmic() {
        let small = transpose_bi_computation(16, 4).dag.span_nodes();
        let large = transpose_bi_computation(64, 4).dag.span_nodes();
        assert!(large > small, "more levels, longer critical path");
        assert!(large < small + 60, "span must grow additively: {small} -> {large}");
    }

    #[test]
    fn rm_to_bi_structure() {
        let n = 16;
        let comp = rm_to_bi_computation(n, 4);
        assert!(comp.check_properties().is_empty());
        assert_eq!(comp.dag.leaf_count(), ((n / 4) * (n / 4)) as u64);
        assert_eq!(comp.dag.max_writes_per_global_word(), 1);
        // Reads the whole source and writes the whole destination exactly once.
        assert_eq!(comp.dag.total_global_accesses(), 2 * (n * n) as u64);
    }

    #[test]
    fn bi_to_rm_has_log_squared_structure_and_extra_work() {
        let n = 32;
        let comp = bi_to_rm_computation(n, 4);
        assert!(comp.check_properties().is_empty());
        // W = Θ(n² log n) > the fast conversion's Θ(n²).
        let fast = rm_to_bi_computation(n, 4);
        assert!(comp.dag.work() > fast.dag.work());
        assert_eq!(comp.dag.max_writes_per_global_word(), 1);
        // Output written exactly once per word.
        assert_eq!(comp.dag.global_footprint_words(), 2 * (n * n) as u64);
    }

    #[test]
    fn conversion_references_roundtrip() {
        let n = 8;
        let a: Vec<f64> = (0..n * n).map(|x| x as f64 * 0.5).collect();
        let bi = rm_to_bi_reference(&a, n);
        assert_eq!(bi_to_rm_reference(&bi, n), a);
    }

    #[test]
    fn native_conversions_match_the_references_outside_a_pool() {
        // Outside a pool worker the joins run sequentially; correctness is identical.
        for (n, base) in [(1usize, 1usize), (2, 1), (8, 2), (16, 4), (16, 16)] {
            let a: Vec<f64> = (0..n * n).map(|x| x as f64 * 0.25 - 3.0).collect();
            assert_eq!(rm_to_bi_native(&a, n, base), rm_to_bi_reference(&a, n), "rm->bi n={n}");
            let bi = rm_to_bi_reference(&a, n);
            assert_eq!(bi_to_rm_native(&bi, n, base), a, "bi->rm n={n}");
        }
    }

    #[test]
    fn native_transpose_matches_the_reference_through_the_layout() {
        for (n, base) in [(1usize, 1usize), (4, 2), (8, 2), (16, 4), (8, 8)] {
            let a: Vec<f64> = (0..n * n).map(|x| (x * 7 % 13) as f64).collect();
            let mut bi = rm_to_bi_reference(&a, n);
            transpose_native_bi(&mut bi, n, base);
            assert_eq!(bi_to_rm_reference(&bi, n), transpose_reference(&a, n), "n = {n}");
        }
    }

    #[test]
    fn native_transpose_is_involutive() {
        let (n, base) = (16usize, 4usize);
        let a: Vec<f64> = (0..n * n).map(|x| x as f64).collect();
        let mut bi = rm_to_bi_reference(&a, n);
        transpose_native_bi(&mut bi, n, base);
        transpose_native_bi(&mut bi, n, base);
        assert_eq!(bi_to_rm_reference(&bi, n), a);
    }
}
