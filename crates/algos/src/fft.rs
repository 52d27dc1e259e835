//! FFT via the √n decomposition (Theorem 7.1(iv)).
//!
//! The cache-oblivious FFT treats the length-`n` input as an `r × c` matrix (`r·c = n`,
//! `r ≈ c ≈ √n`), performs `c` column FFTs of size `r` recursively, multiplies by twiddle
//! factors, then performs `r` row FFTs of size `c` — two collections of recursive calls whose
//! sizes shrink as `s(n) = √n`, which is exactly case (ii) of Theorem 6.3. Intermediate
//! results live in a local array so every variable is written O(1) times.
//!
//! [`fft_native`] is the same decomposition run for real on the `rws-runtime` work-stealing
//! pool: each recursion level fork-joins its column-FFT, twiddle, and row-FFT collections
//! over disjoint borrowed chunks of one workspace allocated per top-level call, with the
//! dag's base-case cutoff ending the recursion in an iterative radix-2 leaf that gathers
//! its points bit-reversed and reads its butterfly factors from a small contiguous copy.

use crate::common::{balanced_levels, Dest};
use rws_dag::builders::BalancedTreeBuilder;
use rws_dag::{Addr, AlgoMeta, Computation, NodeId, Shrink, SpDagBuilder, WorkUnit};
use rws_runtime::ParSliceExt;
use serde::{Deserialize, Serialize};

/// Configuration of the FFT computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FftConfig {
    /// Transform length (power of two).
    pub n: usize,
    /// Base-case size (power of two).
    pub base: usize,
}

impl FftConfig {
    /// Length-`n` FFT with base case 16 (or `n` if smaller).
    pub fn new(n: usize) -> Self {
        FftConfig { n, base: 16.min(n) }
    }
}

/// Build the FFT computation: input at address 0, output at address `n` (one simulated word
/// per complex element).
pub fn fft_computation(cfg: &FftConfig) -> Computation {
    assert!(cfg.n.is_power_of_two() && cfg.base.is_power_of_two() && cfg.base <= cfg.n);
    let mut b = SpDagBuilder::new();
    let src = SourceRange::Global { base: 0 };
    let root = build_fft(
        &mut b,
        src,
        Dest::Global { base: cfg.n as u64 },
        cfg.n as u64,
        cfg.base as u64,
        0,
    );
    let dag = b.build(root).expect("fft dag must validate");
    let meta = AlgoMeta::hbp2("fft-sqrt-decomposition", cfg.n as u64, 2, Shrink::Sqrt)
        .with_base_case(cfg.base as u64);
    Computation::new(dag, meta)
}

/// Where a sub-FFT reads its input from (mirror of [`Dest`] for reads).
#[derive(Clone, Copy, Debug)]
enum SourceRange {
    Global { base: u64 },
    Local { depth: u32, offset: u32 },
}

impl SourceRange {
    fn offset(self, delta: u64) -> SourceRange {
        match self {
            SourceRange::Global { base } => SourceRange::Global { base: base + delta },
            SourceRange::Local { depth, offset } => SourceRange::Local {
                depth,
                offset: offset + u32::try_from(delta).expect("source offset"),
            },
        }
    }

    fn read_range(
        self,
        mut unit: WorkUnit,
        range: std::ops::Range<u64>,
        at_depth: u32,
    ) -> WorkUnit {
        match self {
            SourceRange::Global { base } => {
                unit = unit.reads((base + range.start..base + range.end).map(Addr));
                unit
            }
            SourceRange::Local { depth, offset } => {
                let dest = Dest::Local { depth, offset };
                dest.read_range(unit, range, at_depth)
            }
        }
    }
}

/// Build the FFT of `m` elements read from `src`, written to `dest`.
fn build_fft(
    b: &mut SpDagBuilder,
    src: SourceRange,
    dest: Dest,
    m: u64,
    base: u64,
    ctx_depth: u32,
) -> NodeId {
    if m <= base {
        let at_depth = ctx_depth + 1;
        let log_m = (64 - m.leading_zeros() as u64).max(1);
        let mut unit = WorkUnit::compute(m * log_m);
        unit = src.read_range(unit, 0..m, at_depth);
        unit = dest.write_range(unit, 0..m, at_depth);
        return b.leaf(unit);
    }
    // Split m = r * c with r >= c, both powers of two, r <= c * 2.
    let log_m = m.trailing_zeros();
    let r = 1u64 << log_m.div_ceil(2);
    let c = m / r;

    // The call's Seq declares a local array of m words for the column-FFT results.
    let seq_depth = ctx_depth + 1;
    let local = Dest::Local { depth: seq_depth, offset: 0 };
    let local_src = SourceRange::Local { depth: seq_depth, offset: 0 };

    // Collection 1: c column FFTs of size r (input columns are modelled as contiguous ranges;
    // the data is assumed pre-laid-out column-blocked, see the module documentation).
    let col_levels = balanced_levels(c.next_power_of_two() as usize);
    let col_depth = seq_depth + col_levels;
    let cols: Vec<NodeId> = (0..c)
        .map(|j| build_fft(b, src.offset(j * r), local.offset(j * r), r, base, col_depth))
        .collect();
    let cols = combine(b, &cols);

    // Twiddle pass: a BP tree over chunks multiplying each intermediate element by a twiddle
    // factor (read + write of the local array, one op each).
    let chunk = base.min(m);
    let chunks = (m / chunk) as usize;
    let tw_levels = balanced_levels(chunks.next_power_of_two());
    let tw_depth = seq_depth + tw_levels + 1;
    let mut tw_leaves = Vec::with_capacity(chunks);
    for k in 0..chunks as u64 {
        let lo = k * chunk;
        let hi = lo + chunk;
        let mut unit = WorkUnit::compute(chunk);
        unit = local.read_range(unit, lo..hi, tw_depth);
        unit = local.write_range(unit, lo..hi, tw_depth);
        tw_leaves.push(b.leaf(unit));
    }
    let twiddle = combine(b, &tw_leaves);

    // Collection 2: r row FFTs of size c reading the local array and writing the destination.
    let row_levels = balanced_levels(r.next_power_of_two() as usize);
    let row_depth = seq_depth + row_levels;
    let rows: Vec<NodeId> = (0..r)
        .map(|i| build_fft(b, local_src.offset(i * c), dest.offset(i * c), c, base, row_depth))
        .collect();
    let rows = combine(b, &rows);

    b.seq_with_segment(vec![cols, twiddle, rows], u32::try_from(m).expect("segment size"))
}

fn combine(b: &mut SpDagBuilder, children: &[NodeId]) -> NodeId {
    BalancedTreeBuilder::new(b, 2).combine(
        children,
        |_, _| WorkUnit::compute(1),
        |_, _| WorkUnit::compute(1),
    )
}

// ------------------------------------------------------------------------------------------
// Sequential reference on complex data
// ------------------------------------------------------------------------------------------

/// A complex number (re, im).
pub type Complex = (f64, f64);

fn c_add(a: Complex, b: Complex) -> Complex {
    (a.0 + b.0, a.1 + b.1)
}
fn c_sub(a: Complex, b: Complex) -> Complex {
    (a.0 - b.0, a.1 - b.1)
}
fn c_mul(a: Complex, b: Complex) -> Complex {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

/// Iterative radix-2 Cooley–Tukey FFT of a power-of-two-length buffer, in place (the
/// reference path; the native kernel's base case is the table-driven [`fft_leaf`], kept
/// separate so the reference stays an independent oracle).
fn fft_in_place(a: &mut [Complex]) {
    let n = a.len();
    debug_assert!(n.is_power_of_two());
    // Bit-reversal permutation (nothing to do for n = 1).
    let bits = n.trailing_zeros();
    if bits > 0 {
        for i in 0..n {
            let j = ((i as u32).reverse_bits() >> (32 - bits)) as usize;
            if i < j {
                a.swap(i, j);
            }
        }
    }
    let mut len = 2;
    while len <= n {
        let angle = -2.0 * std::f64::consts::PI / len as f64;
        let wlen = (angle.cos(), angle.sin());
        for chunk in a.chunks_mut(len) {
            let mut w = (1.0, 0.0);
            for k in 0..len / 2 {
                let u = chunk[k];
                let v = c_mul(chunk[k + len / 2], w);
                chunk[k] = c_add(u, v);
                chunk[k + len / 2] = c_sub(u, v);
                w = c_mul(w, wlen);
            }
        }
        len *= 2;
    }
}

/// Iterative radix-2 Cooley–Tukey FFT (the correctness oracle).
pub fn fft_reference(input: &[Complex]) -> Vec<Complex> {
    assert!(input.len().is_power_of_two());
    let mut a = input.to_vec();
    fft_in_place(&mut a);
    a
}

/// Precomputed full-circle twiddle table for a length-`n` transform: `tw[x] = ω_n^x`
/// (with `ω_n = e^{-2πi/n}`).
///
/// One table serves the *whole* recursion: every sub-problem size divides `n` (all sizes
/// are powers of two obtained by factoring), so a size-`m` stage reads `ω_m^x` as
/// `tw[x · n/m]` exactly. This replaces a trig evaluation per twiddle-pass element and the
/// base case's repeated `w ·= wlen` recurrence (whose rounding error grows along the
/// butterfly) with a table lookup.
///
/// Only the first octant (`x ≤ n/8`) costs trig calls, one direct evaluation per entry;
/// the rest of the circle is those same values moved by the symmetries of the circle —
/// reflection in the diagonal for the second octant (`cos` and `sin` trade places), a
/// quarter turn (`· -i`) for the second quadrant, a half turn (`· -1`) for the lower half —
/// which permute and negate components and so cost no accuracy.
fn twiddle_table(n: usize) -> Vec<Complex> {
    debug_assert!(n.is_power_of_two());
    let mut tw = vec![(1.0, 0.0); n];
    let (octant, quarter, half) = (n / 8, n / 4, n / 2);
    for x in 0..=octant {
        let angle = 2.0 * std::f64::consts::PI * x as f64 / n as f64;
        let (sin, cos) = angle.sin_cos();
        // Where the two coincide (the diagonal itself; every entry when n < 4 leaves no
        // second octant) the direct value is written last and stands.
        tw[quarter - x] = (sin, -cos);
        tw[x] = (cos, -sin);
    }
    for x in 0..quarter {
        let (re, im) = tw[x];
        tw[x + quarter] = (im, -re);
    }
    for x in 0..half {
        let (re, im) = tw[x];
        tw[x + half] = (-re, -im);
    }
    tw
}

/// Most butterfly factors a leaf copies out of the table at a time. A 16-point leaf with
/// room for 16 or 32 measured ≈ 25 % slower than with 8: the larger array is set up in
/// memory on every call.
const LEAF_FACTORS: usize = 8;

/// The native kernel's base case: the DFT of the `dst.len()`-point sequence viewed by `src`,
/// written to `dst` in natural order by radix-2 butterflies in place.
///
/// Each group of four consecutive bit-reversed slots holds the points `p`, `p + m/2`,
/// `p + m/4` and `p + 3m/4` (`p` the group index reversed in `log2(m) − 2` bits); the leaf
/// gathers those four straight from `src` and runs the length-2 and length-4 stages on them
/// in registers — their factors are 1 and −i, so neither multiplies — before writing the
/// group once. There is no separate bit-reversal or swap pass. Every later stage `len`
/// first copies its factors `ω_len^k = tw[k · tw.len()/len]` (`LEAF_FACTORS` at a time, bit
/// for bit) out of the full-circle table into a contiguous array, so its butterflies read
/// consecutive factors instead of table entries `tw.len()/len` apart (at n = 2^16 a
/// 16-point leaf's factors lie 64 KiB apart, all in one L1 set). `dst.len()` must divide
/// `tw.len()`.
fn fft_leaf(src: Strided<'_>, dst: &mut [Complex], tw: &[Complex]) {
    let m = dst.len();
    debug_assert!(m.is_power_of_two() && tw.len().is_multiple_of(m));
    match m {
        1 => dst[0] = src.get(0),
        2 => {
            let (x0, x1) = (src.get(0), src.get(1));
            (dst[0], dst[1]) = (c_add(x0, x1), c_sub(x0, x1));
        }
        _ => {
            let quarter = m / 4;
            // `q` reversed in log2(quarter) bits; the shift is split in two so that
            // quarter = 1 (a shift by the full word) stays legal.
            let shift = usize::BITS - quarter.trailing_zeros();
            for (q, group) in dst.chunks_exact_mut(4).enumerate() {
                let p = (q.reverse_bits() >> 1) >> (shift - 1);
                let (x0, x1) = (src.get(p), src.get(p + 2 * quarter));
                let (x2, x3) = (src.get(p + quarter), src.get(p + 3 * quarter));
                let (a0, a1) = (c_add(x0, x1), c_sub(x0, x1));
                let (a2, a3) = (c_add(x2, x3), c_sub(x2, x3));
                let a3_by_minus_i = (a3.1, -a3.0);
                group.copy_from_slice(&[
                    c_add(a0, a2),
                    c_add(a1, a3_by_minus_i),
                    c_sub(a0, a2),
                    c_sub(a1, a3_by_minus_i),
                ]);
            }
        }
    }
    let mut factors = [(0.0, 0.0); LEAF_FACTORS];
    let mut len = 8;
    while len <= m {
        let (half, step) = (len / 2, tw.len() / len);
        for k0 in (0..half).step_by(LEAF_FACTORS) {
            let w = &mut factors[..(half - k0).min(LEAF_FACTORS)];
            for (k, f) in (k0..).zip(w.iter_mut()) {
                *f = tw[k * step];
            }
            for chunk in dst.chunks_exact_mut(len) {
                let (lo, hi) = chunk.split_at_mut(half);
                for ((u, v), f) in lo[k0..].iter_mut().zip(&mut hi[k0..]).zip(&*w) {
                    let t = c_mul(*v, *f);
                    (*u, *v) = (c_add(*u, t), c_sub(*u, t));
                }
            }
        }
        len *= 2;
    }
}

// ------------------------------------------------------------------------------------------
// Native fork-join kernel
// ------------------------------------------------------------------------------------------

/// A read-only strided view of a shared complex buffer: element `t` is
/// `data[offset + t * stride]`. Sub-FFT inputs at every level (residue classes of the
/// source, rows of the column-FFT scratch) are exactly such views, so the recursion can
/// borrow instead of gathering eagerly.
#[derive(Clone, Copy)]
struct Strided<'a> {
    data: &'a [Complex],
    offset: usize,
    stride: usize,
}

impl Strided<'_> {
    fn get(&self, t: usize) -> Complex {
        self.data[self.offset + t * self.stride]
    }

    /// The sub-view selecting every `c`-th element starting at element `j` of this view.
    fn class(self, j: usize, c: usize) -> Self {
        Strided { data: self.data, offset: self.offset + j * self.stride, stride: self.stride * c }
    }
}

/// Native fork-join FFT on the `rws-runtime` work-stealing pool — the same √n decomposition
/// as [`fft_computation`]'s dag, executed for real.
///
/// With `m = r·c` (`r ≥ c`, both powers of two, as in the dag builder), one recursion level
/// runs its sequenced parallel collections between the destination and a local array of
/// `m` elements:
///
/// 1. **`c` column FFTs of size `r`** — residue class `j₁` of the input (elements
///    `x[j₁ + c·j₂]`) transforms into row `j₁` of the local array;
/// 2. **the twiddle pass** — entry `(j₁, k₂)` is scaled by `ω_m^{j₁·k₂}` and lands
///    transposed in the destination (still unused at this point), so that
/// 3. **`r` row FFTs of size `c`** — read contiguous destination rows and transform them
///    back into the local array, and a final parallel pass writes `X[k₂ + r·k₁]` into the
///    destination in natural order.
///
/// The local arrays of the whole recursion are one workspace allocated per top-level call
/// (`fft_workspace_len`). A level lays its share out as one chunk per sub-FFT — the
/// sub-FFT's row of the local array followed by that sub-FFT's own workspace and, if it has
/// one, a 64-byte line of padding that keeps the strided passes off power-of-two strides —
/// so handing each parallel branch its chunk (via
/// [`par_chunks_mut`](ParSliceExt::par_chunks_mut)) gives it a disjoint `&mut` borrow of
/// both; the column and the row collection are sequenced and reuse the same words. The
/// recursion bottoms out at `base`, mirroring the dag's base case, in an iterative radix-2
/// leaf that gathers its points into bit-reversed order and runs its first two stages
/// without multiplies. All twiddle factors — the per-level scaling pass and the leaves'
/// butterfly factors alike — come from one precomputed full-circle table
/// (`twiddle_table`) built once per top-level call, replacing per-element trig in the hot
/// passes; a leaf copies each stage's factors out of it into a small contiguous array first.
/// Call from inside [`rws_runtime::ThreadPool::install`] for parallel execution; outside a
/// pool worker the joins degrade to sequential calls.
pub fn fft_native(input: &[Complex], base: usize) -> Vec<Complex> {
    assert!(input.len().is_power_of_two(), "fft length must be a power of two");
    assert!(base.is_power_of_two() && base >= 1, "fft base case must be a power of two");
    let n = input.len();
    let tw = twiddle_table(n);
    let mut out = vec![(0.0, 0.0); n];
    let mut workspace = vec![(0.0, 0.0); fft_workspace_len(n, base)];
    fft_rec(Strided { data: input, offset: 0, stride: 1 }, n, &mut out, &mut workspace, base, &tw);
    out
}

/// Whether a size-`m` transform is a leaf. `m = 2` must be one regardless of `base`: its
/// split is `r = 2`, `c = 1`, whose "column FFT" would be this very problem again.
fn fft_is_leaf(m: usize, base: usize) -> bool {
    m <= base.max(2)
}

/// Split `m = r · c` with `r ≥ c`, both powers of two (the dag builder's split).
fn fft_split(m: usize) -> (usize, usize) {
    let r = 1usize << m.trailing_zeros().div_ceil(2);
    (r, m / r)
}

/// Elements of workspace a size-`m` transform needs: its local array, one chunk per sub-FFT
/// ([`fft_chunk_len`]) — sized for whichever of the two (sequenced) collections needs more.
fn fft_workspace_len(m: usize, base: usize) -> usize {
    if fft_is_leaf(m, base) {
        return 0;
    }
    let (r, c) = fft_split(m);
    (c * fft_chunk_len(r, base)).max(r * fft_chunk_len(c, base))
}

/// Elements of padding after a recursing sub-FFT's chunk: one 64-byte line.
const ROW_PAD: usize = 64 / std::mem::size_of::<Complex>();

/// The chunk of its parent's workspace a size-`sub` sub-FFT gets: its row of the parent's
/// local array, then its own workspace, then — if it has one — [`ROW_PAD`] unused elements.
/// The twiddle and final passes read one element of every chunk in turn; without the pad a
/// chunk is a power of two (8 KiB at n = 2^16) and those reads fall into a handful of cache
/// sets. A leaf's chunk is its row alone, at most `base` elements, and stays unpadded.
fn fft_chunk_len(sub: usize, base: usize) -> usize {
    match fft_workspace_len(sub, base) {
        0 => sub,
        ws => sub + ws + ROW_PAD,
    }
}

/// Transform the `m`-element sequence viewed by `src` into `dst` (natural DFT order), with
/// `ws` holding at least [`fft_workspace_len`]`(m, base)` elements (contents unspecified on
/// entry and return). `tw` is the top-level call's full-circle twiddle table
/// ([`twiddle_table`]); `m` always divides `tw.len()`.
fn fft_rec(
    src: Strided<'_>,
    m: usize,
    dst: &mut [Complex],
    ws: &mut [Complex],
    base: usize,
    tw: &[Complex],
) {
    debug_assert_eq!(dst.len(), m);
    debug_assert!(tw.len().is_multiple_of(m));
    if fft_is_leaf(m, base) {
        fft_leaf(src, dst, tw);
        return;
    }
    let (r, c) = fft_split(m);

    // Collection 1: c column FFTs of size r, one per residue class mod c, each writing
    // the row at the head of its own chunk (the chunk's tail is its workspace).
    let col_chunk = fft_chunk_len(r, base);
    let cols = &mut ws[..c * col_chunk];
    cols.par_chunks_mut(col_chunk).for_each_indexed(|j1, chunk| {
        let (row, sub_ws) = chunk.split_at_mut(r);
        fft_rec(src.class(j1, c), r, row, sub_ws, base, tw);
    });

    // Twiddle pass: column-FFT output (j1, k2) times ω_m^{j1·k2}, read from the table as
    // tw[j1·k2 · tw.len()/m], lands at dst[k2·c + j1] — the r × c transpose, so the row
    // FFTs below read contiguous rows. The index never wraps: j1 < c and k2 < r, so
    // j1·k2 ≤ (c-1)(r-1) < m and the scaled index stays below tw.len(). A destination
    // chunk of r elements is r/c whole rows of that transpose.
    let cols = &*cols;
    let step = tw.len() / m;
    dst.par_chunks_mut(r).for_each_indexed(|chunk_idx, part| {
        for (row_off, row) in part.chunks_mut(c).enumerate() {
            let k2 = chunk_idx * (r / c) + row_off;
            for (j1, d) in row.iter_mut().enumerate() {
                *d = c_mul(cols[j1 * col_chunk + k2], tw[j1 * k2 * step]);
            }
        }
    });

    // Collection 2: r row FFTs of size c; row k2 produces X[k2 + r·k1] for k1 in 0..c at
    // the head of its chunk.
    let twiddled = &*dst;
    let row_chunk = fft_chunk_len(c, base);
    let rows = &mut ws[..r * row_chunk];
    rows.par_chunks_mut(row_chunk).for_each_indexed(|k2, chunk| {
        let (row, sub_ws) = chunk.split_at_mut(c);
        fft_rec(Strided { data: twiddled, offset: k2 * c, stride: 1 }, c, row, sub_ws, base, tw);
    });

    // Final pass: transpose the (r × c) result back into natural order, parallel over
    // disjoint destination chunks. Chunk k1 is exactly X[k2 + r·k1] for k2 in 0..r.
    let rows = &*rows;
    dst.par_chunks_mut(r).for_each_indexed(|k1, part| {
        for (k2, d) in part.iter_mut().enumerate() {
            *d = rows[k2 * row_chunk + k1];
        }
    });
}

/// Naive O(n²) DFT used to validate the FFT reference.
pub fn dft_reference(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut acc = (0.0, 0.0);
            for (j, &x) in input.iter().enumerate() {
                let angle = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                acc = c_add(acc, c_mul(x, (angle.cos(), angle.sin())));
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    #[test]
    fn fft_matches_dft() {
        let mut rng = SmallRng::seed_from_u64(5);
        for n in [1usize, 2, 4, 8, 32] {
            let input: Vec<Complex> =
                (0..n).map(|_| (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect();
            let fast = fft_reference(&input);
            let slow = dft_reference(&input);
            for (a, b) in fast.iter().zip(&slow) {
                assert!((a.0 - b.0).abs() < 1e-6 && (a.1 - b.1).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn native_kernel_matches_the_references_outside_a_pool() {
        // Outside a pool worker the joins run sequentially; correctness is identical.
        let mut rng = SmallRng::seed_from_u64(17);
        for n in (0..=12).map(|k| 1usize << k) {
            let input: Vec<Complex> =
                (0..n).map(|_| (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect();
            for base in [1usize, 2, 4, 8, 16, 32, 64] {
                let fast = fft_native(&input, base);
                let oracle = fft_reference(&input);
                for (a, b) in fast.iter().zip(&oracle) {
                    assert!(
                        (a.0 - b.0).abs() < 1e-9 && (a.1 - b.1).abs() < 1e-9,
                        "n = {n}, base = {base}: {a:?} != {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn native_kernel_of_impulse_is_constant() {
        let mut input = vec![(0.0, 0.0); 64];
        input[0] = (1.0, 0.0);
        for v in fft_native(&input, 4) {
            assert!((v.0 - 1.0).abs() < 1e-9 && v.1.abs() < 1e-9);
        }
    }

    #[test]
    fn table_driven_base_case_matches_the_trig_recurrence() {
        let mut rng = SmallRng::seed_from_u64(29);
        for n in [1usize, 2, 4, 8, 16, 32] {
            // The leaf gathers every third point from offset 1, as a column FFT reads its
            // residue class.
            let data: Vec<Complex> =
                (0..3 * n).map(|_| (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect();
            let input: Vec<Complex> = data.iter().copied().skip(1).step_by(3).collect();
            // A table four times larger than the transform exercises the stride scaling.
            for table_n in [n, 4 * n] {
                let tw = twiddle_table(table_n);
                let mut a = vec![(0.0, 0.0); n];
                fft_leaf(Strided { data: &data, offset: 1, stride: 3 }, &mut a, &tw);
                let mut b = input.clone();
                fft_in_place(&mut b);
                for (x, y) in a.iter().zip(&b) {
                    assert!(
                        (x.0 - y.0).abs() < 1e-9 && (x.1 - y.1).abs() < 1e-9,
                        "n = {n}, table {table_n}: {x:?} != {y:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn recursing_chunks_are_padded_off_power_of_two_strides() {
        // The twiddle and final passes read one element of each of a level's chunks in
        // turn; no chunk holding a sub-FFT's workspace may be a multiple of 4 KiB long (the
        // span of an L1 of 64 sets of 64 bytes), or those reads share a handful of sets.
        let bytes = std::mem::size_of::<Complex>();
        for (n, base) in [(1usize << 16, 16), (1 << 14, 16), (1 << 12, 16), (1 << 12, 4)] {
            let (r, c) = fft_split(n);
            for sub in [r, c] {
                let chunk = fft_chunk_len(sub, base);
                assert!(!fft_is_leaf(sub, base));
                assert_ne!(chunk * bytes % 4096, 0, "n = {n}, base = {base}: {chunk} elements");
            }
        }
        // A leaf's chunk is its row alone.
        assert_eq!(fft_chunk_len(64, 64), 64);
    }

    #[test]
    fn twiddle_table_matches_direct_evaluation_all_round_the_circle() {
        // Every entry, including the seven octants filled by symmetry, is ω_n^x to within
        // an ulp or two of a direct evaluation.
        for n in [1usize, 2, 4, 8, 16, 64, 4096] {
            for (x, w) in twiddle_table(n).into_iter().enumerate() {
                let angle = -2.0 * std::f64::consts::PI * x as f64 / n as f64;
                assert!(
                    (w.0 - angle.cos()).abs() < 1e-15 && (w.1 - angle.sin()).abs() < 1e-15,
                    "n = {n}, x = {x}: {w:?}"
                );
            }
        }
    }

    #[test]
    fn fft_of_impulse_is_constant() {
        let mut input = vec![(0.0, 0.0); 16];
        input[0] = (1.0, 0.0);
        for v in fft_reference(&input) {
            assert!((v.0 - 1.0).abs() < 1e-9 && v.1.abs() < 1e-9);
        }
    }

    #[test]
    fn dag_structure() {
        let comp = fft_computation(&FftConfig { n: 256, base: 16 });
        assert!(comp.check_properties().is_empty());
        assert!(comp.meta.class.is_hbp());
        // Each output word written once; the intermediate lives on stack segments.
        assert_eq!(comp.dag.max_writes_per_global_word(), 1);
        assert_eq!(comp.dag.global_footprint_words(), 2 * 256);
    }

    #[test]
    fn work_is_n_log_n_like_and_span_small() {
        let w256 = fft_computation(&FftConfig { n: 256, base: 16 }).dag.work();
        let w4096 = fft_computation(&FftConfig { n: 4096, base: 16 }).dag.work();
        let ratio = w4096 as f64 / w256 as f64;
        assert!(ratio > 12.0 && ratio < 40.0, "16x input => 16-32x work for n log n, got {ratio}");
        let s256 = fft_computation(&FftConfig { n: 256, base: 16 }).dag.span_nodes();
        let s4096 = fft_computation(&FftConfig { n: 4096, base: 16 }).dag.span_nodes();
        assert!(s4096 < 8 * s256, "span grows polylogarithmically: {s256} -> {s4096}");
    }
}
