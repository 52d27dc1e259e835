//! A minimal parallel iterator over a slice, in the rayon mold: `par_chunks_mut`, the one
//! shape the native kernels fork over.
//!
//! It recursively halves its slice at chunk boundaries with [`join`] — the same
//! allocation-free binary fork the kernels use by hand — until a piece holds at most
//! **grain** chunks, then processes the piece's chunks sequentially. The default grain is
//! *adaptive*: it targets [`SPLIT_FACTOR`] pieces per worker of the current pool
//! ([`current_num_threads`]), so a wide pool splits finer (more stealable pieces, better
//! balance) and a narrow pool splits coarser (less fork overhead). Pass
//! [`with_grain`](ParChunksMut::with_grain) to pin the leaf size instead — grain 1
//! reproduces the one-fork-per-chunk trees the dag builders emit.
//!
//! Determinism: the split tree's *shape* depends only on the length, the chunk size and the
//! grain (for the default grain, also on the pool width), never on scheduling — so outputs
//! are reproducible run to run on the same configuration.
//!
//! ```
//! use rws_runtime::ParSliceExt;
//!
//! let pool = rws_runtime::ThreadPool::new(2);
//! let data: Vec<u64> = (0..10_000).collect();
//! let total: u64 = pool.install(move || {
//!     // One partial sum per 1 000-element piece, each written by its own leaf.
//!     let mut partials = [0u64; 10];
//!     partials.par_chunks_mut(1).for_each_indexed(|i, p| {
//!         p[0] = data[i * 1_000..(i + 1) * 1_000].iter().sum();
//!     });
//!     partials.iter().sum()
//! });
//! assert_eq!(total, 10_000 * 9_999 / 2);
//! ```

use crate::join;
use crate::pool::current_num_threads;

/// Pieces the adaptive grain targets per pool worker: enough slack for the randomized
/// stealing to balance uneven pieces, few enough that fork overhead stays negligible.
pub const SPLIT_FACTOR: usize = 4;

/// The adaptive leaf size for `len` work items: `len / (SPLIT_FACTOR * pool width)`,
/// rounded up, at least 1. Outside a pool the width is 1, so the tree degrades to a
/// handful of leaves whose `join`s all run sequentially on the caller.
fn adaptive_grain(len: usize, explicit: Option<usize>) -> usize {
    match explicit {
        Some(g) => g.max(1),
        None => len.div_ceil(SPLIT_FACTOR * current_num_threads()).max(1),
    }
}

/// Parallel mutable iterator over `size`-element chunks of a slice (the last chunk may be
/// shorter); see the module docs.
pub struct ParChunksMut<'data, T> {
    slice: &'data mut [T],
    size: usize,
    grain: Option<usize>,
}

/// The entry point, `slice.par_chunks_mut(k)`, on any slice (and anything that derefs to
/// one, like `Vec`).
pub trait ParSliceExt<T> {
    /// Parallel iterator over `size`-element mutable chunks (the last may be shorter).
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T>;
}

impl<T> ParSliceExt<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
        assert!(size > 0, "par_chunks_mut needs a positive chunk size");
        ParChunksMut { slice: self, size, grain: None }
    }
}

impl<'data, T: Send> ParChunksMut<'data, T> {
    /// Pin the leaf size to `grain` *chunks* instead of the adaptive default.
    pub fn with_grain(mut self, grain: usize) -> Self {
        self.grain = Some(grain.max(1));
        self
    }

    /// Apply `f` to every chunk through a mutable borrow, in parallel (chunks are disjoint
    /// by construction).
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        self.for_each_indexed(|_, chunk| f(chunk));
    }

    /// Apply `f` to every `(chunk index, chunk)` through a mutable borrow, in parallel.
    pub fn for_each_indexed<F>(self, f: F)
    where
        F: Fn(usize, &mut [T]) + Sync,
    {
        let chunks = self.slice.len().div_ceil(self.size);
        let grain = adaptive_grain(chunks, self.grain);
        for_each_chunks_mut(self.slice, 0, self.size, grain, &f);
    }
}

/// Fork-join over whole chunks: split at chunk boundaries while more than `grain` chunks
/// remain, then run the leaf's chunks sequentially. `first` is the index of the piece's
/// first chunk in the original slice.
fn for_each_chunks_mut<T, F>(s: &mut [T], first: usize, size: usize, grain: usize, f: &F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunks = s.len().div_ceil(size);
    if chunks <= grain {
        for (k, chunk) in s.chunks_mut(size).enumerate() {
            f(first + k, chunk);
        }
        return;
    }
    let mid = (chunks / 2) * size;
    let (lo, hi) = s.split_at_mut(mid);
    join(
        || for_each_chunks_mut(lo, first, size, grain, f),
        || for_each_chunks_mut(hi, first + chunks / 2, size, grain, f),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn par_chunks_sees_each_chunk_once_with_the_right_index() {
        let pool = ThreadPool::new(2);
        let seen = pool.install(|| {
            let mut data: Vec<usize> = (0..103).collect();
            let seen = AtomicU64::new(0);
            data.par_chunks_mut(10).for_each_indexed(|i, chunk| {
                assert_eq!(chunk[0], i * 10);
                assert!(chunk.len() == 10 || i == 10);
                seen.fetch_add(1, Ordering::Relaxed);
            });
            seen.load(Ordering::Relaxed)
        });
        assert_eq!(seen, 11);
    }

    #[test]
    fn par_chunks_mut_matches_the_sequential_result_for_awkward_shapes() {
        let pool = ThreadPool::new(2);
        for (len, size) in [(0usize, 4usize), (1, 4), (7, 3), (16, 4), (17, 4), (5, 100)] {
            let data = pool.install(move || {
                let mut data = vec![0usize; len];
                data.par_chunks_mut(size).with_grain(1).for_each_indexed(|idx, part| {
                    for (off, v) in part.iter_mut().enumerate() {
                        *v = idx * size + off + 1;
                    }
                });
                data
            });
            let expected: Vec<usize> = (1..=len).collect();
            assert_eq!(data, expected, "len {len}, size {size}");
        }
    }

    #[test]
    fn adaptive_grain_targets_the_pool_width() {
        // Outside a pool: width 1 => one leaf spanning everything.
        assert_eq!(adaptive_grain(1000, None), 1000 / SPLIT_FACTOR);
        assert_eq!(adaptive_grain(3, None), 1);
        assert_eq!(adaptive_grain(0, None), 1);
        // Inside a 4-worker pool the leaves shrink to len / (SPLIT_FACTOR * 4).
        let pool = ThreadPool::new(4);
        let grain = pool.install(|| adaptive_grain(1600, None));
        assert_eq!(grain, 1600 / (SPLIT_FACTOR * 4));
        // An explicit grain wins.
        assert_eq!(adaptive_grain(1000, Some(64)), 64);
        assert_eq!(adaptive_grain(1000, Some(0)), 1);
    }

    #[test]
    fn empty_slices_are_fine() {
        let mut data: [u64; 0] = [];
        data.par_chunks_mut(8).for_each(|_| unreachable!());
    }
}
