//! Matrix memory layouts: row major (RM) and bit interleaved (BI).
//!
//! The bit-interleaved layout recursively stores the top-left quadrant, then the top-right,
//! bottom-left and bottom-right quadrants (Section 3). Its key property is that any aligned
//! `m × m` submatrix (with `m` a power of two) occupies a *contiguous* range of `m²` words,
//! which is what makes the matrix algorithms both cache-efficient and block-miss-frugal: a
//! stolen subtask writes into O(1) blocks shared with its parent.

use serde::{Deserialize, Serialize};

/// Spread the low 32 bits of `x` over the even bit positions of the result (bit `b` moves
/// to bit `2b`): the five-step mask-and-shift doubling, O(1) in the word size.
#[inline]
fn spread(x: u64) -> u64 {
    let mut x = x & 0xFFFF_FFFF;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// Inverse of [`spread`]: gather the even bit positions of `x` into the low 32 bits.
#[inline]
fn compact(x: u64) -> u64 {
    let mut x = x & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x >> 16)) & 0xFFFF_FFFF;
    x
}

/// Interleave the bits of `i` (row) and `j` (column) to produce the BI index of element
/// `(i, j)` of a matrix whose dimension is a power of two. Row bits become the odd (higher)
/// bits so that quadrants are ordered TL, TR, BL, BR. Only the low 32 bits of each
/// coordinate take part. The row term does not depend on `j`, so a tile loop over `j`
/// pays for it once per row.
#[inline]
pub fn bit_interleave(i: u64, j: u64) -> u64 {
    spread(j) | (spread(i) << 1)
}

/// Inverse of [`bit_interleave`]: recover `(i, j)` from a BI index.
#[inline]
pub fn bit_deinterleave(idx: u64) -> (u64, u64) {
    (compact(idx >> 1), compact(idx))
}

/// Supported matrix layouts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatrixLayout {
    /// Row major: element `(i, j)` of an `n × n` matrix is word `i * n + j`.
    RowMajor,
    /// Bit interleaved: element `(i, j)` is word `bit_interleave(i, j)`.
    BitInterleaved,
}

impl MatrixLayout {
    /// Word offset of element `(i, j)` of an `n × n` matrix in this layout.
    pub fn index(&self, i: u64, j: u64, n: u64) -> u64 {
        match self {
            MatrixLayout::RowMajor => i * n + j,
            MatrixLayout::BitInterleaved => bit_interleave(i, j),
        }
    }
}

/// Offset, within a BI-ordered `m × m` submatrix, of its quadrant `q` (0 = TL, 1 = TR,
/// 2 = BL, 3 = BR): each quadrant is a contiguous `(m/2)²`-word range.
pub fn bi_quadrant_offset(q: u64, m: u64) -> u64 {
    debug_assert!(q < 4);
    q * (m / 2) * (m / 2)
}

/// Split a BI-ordered `m × m` buffer into its four contiguous quadrant slices
/// (TL, TR, BL, BR — each `(m/2)²` words). Any buffer laid out as four equal parts beside
/// the quadrants (a workspace, say) splits the same way.
pub(crate) fn quads_mut(s: &mut [f64]) -> [&mut [f64]; 4] {
    let quarter = s.len() / 4;
    let (a, rest) = s.split_at_mut(quarter);
    let (b, rest) = rest.split_at_mut(quarter);
    let (c, d) = rest.split_at_mut(quarter);
    [a, b, c, d]
}

/// Quadrant `q` (0 = TL, 1 = TR, 2 = BL, 3 = BR) of a BI-ordered `m × m` buffer: the shared
/// counterpart of [`quads_mut`].
pub(crate) fn quad(s: &[f64], q: usize) -> &[f64] {
    let quarter = s.len() / 4;
    &s[q * quarter..(q + 1) * quarter]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, one bit at a time: the oracle the O(1) version is checked against.
    fn bit_interleave_by_bits(i: u64, j: u64) -> u64 {
        let mut result = 0u64;
        for bit in 0..32 {
            result |= ((j >> bit) & 1) << (2 * bit);
            result |= ((i >> bit) & 1) << (2 * bit + 1);
        }
        result
    }

    #[test]
    fn interleave_agrees_with_the_bit_loop_and_round_trips() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let max = u64::from(u32::MAX);
        let corners = [(0, 0), (0, max), (max, 0), (max, max)];
        let mut rng = SmallRng::seed_from_u64(0xB17);
        let random: Vec<(u64, u64)> =
            (0..10_000).map(|_| (rng.next_u64() & max, rng.next_u64() & max)).collect();
        for (i, j) in corners.into_iter().chain(random) {
            let idx = bit_interleave(i, j);
            assert_eq!(idx, bit_interleave_by_bits(i, j), "({i:#x}, {j:#x})");
            assert_eq!(bit_deinterleave(idx), (i, j), "({i:#x}, {j:#x})");
        }
        // Bits above the low 32 of a coordinate never took part.
        assert_eq!(bit_interleave(1 << 32 | 5, 1 << 63 | 9), bit_interleave_by_bits(5, 9));
    }

    #[test]
    fn interleave_small_cases() {
        // 2x2 matrix: (0,0)=0 (0,1)=1 (1,0)=2 (1,1)=3 — quadrant order TL, TR, BL, BR.
        assert_eq!(bit_interleave(0, 0), 0);
        assert_eq!(bit_interleave(0, 1), 1);
        assert_eq!(bit_interleave(1, 0), 2);
        assert_eq!(bit_interleave(1, 1), 3);
        // 4x4: element (2, 3) is in the BR quadrant (offset 3*4=12), at local (0,1) -> 12+1.
        assert_eq!(bit_interleave(2, 3), 13);
    }

    #[test]
    fn interleave_is_a_bijection_on_small_matrices() {
        let n = 16u64;
        let mut seen = vec![false; (n * n) as usize];
        for i in 0..n {
            for j in 0..n {
                let idx = bit_interleave(i, j);
                assert!(idx < n * n);
                assert!(!seen[idx as usize], "duplicate BI index");
                seen[idx as usize] = true;
                assert_eq!(bit_deinterleave(idx), (i, j));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn aligned_submatrices_are_contiguous() {
        // The 8x8 submatrix at (8, 0) of a 16x16 matrix occupies one contiguous 64-word range.
        let n = 16u64;
        let (i0, j0, m) = (8u64, 0u64, 8u64);
        let start = bit_interleave(i0, j0);
        let mut indices: Vec<u64> =
            (0..m).flat_map(|di| (0..m).map(move |dj| bit_interleave(i0 + di, j0 + dj))).collect();
        indices.sort_unstable();
        let expected: Vec<u64> = (start..start + m * m).collect();
        assert_eq!(indices, expected);
        let _ = n;
    }

    #[test]
    fn quadrant_offsets() {
        assert_eq!(bi_quadrant_offset(0, 8), 0);
        assert_eq!(bi_quadrant_offset(1, 8), 16);
        assert_eq!(bi_quadrant_offset(2, 8), 32);
        assert_eq!(bi_quadrant_offset(3, 8), 48);
    }

    #[test]
    fn layout_index() {
        assert_eq!(MatrixLayout::RowMajor.index(2, 3, 8), 19);
        assert_eq!(MatrixLayout::BitInterleaved.index(2, 3, 8), bit_interleave(2, 3));
    }

    #[test]
    fn quadrant_decomposition_matches_interleave() {
        // For an aligned submatrix starting at BI offset `start`, quadrant q starts at
        // start + bi_quadrant_offset(q, m).
        let m = 8u64;
        let (i0, j0) = (8u64, 8u64);
        let start = bit_interleave(i0, j0);
        for (q, (qi, qj)) in [(0, (0, 0)), (1, (0, 1)), (2, (1, 0)), (3, (1, 1))] {
            let sub_start = bit_interleave(i0 + qi * m / 2, j0 + qj * m / 2);
            assert_eq!(sub_start, start + bi_quadrant_offset(q, m));
        }
    }
}
