//! Minimal parallel iterators over slices, in the rayon mold: `par_iter`, `par_iter_mut`,
//! `par_chunks`, `par_chunks_mut`.
//!
//! Each adapter recursively halves its slice with [`join`] — the same
//! allocation-free binary fork the kernels use by hand — until a piece is at or below the
//! **grain**, then processes the piece sequentially. The default grain is *adaptive*: it
//! targets [`SPLIT_FACTOR`] pieces per worker of the current pool
//! ([`current_num_threads`]), so a wide pool splits finer (more stealable pieces, better
//! balance) and a narrow pool splits coarser (less fork overhead). Pass
//! [`with_grain`](ParIter::with_grain) to pin the leaf size instead — grain 1 on a chunks
//! adapter reproduces the one-fork-per-chunk trees the dag builders emit.
//!
//! Determinism: the split tree's *shape* depends only on the length and the grain (for the
//! default grain, also on the pool width), never on scheduling — so reductions combine in
//! a fixed order and outputs are reproducible run to run on the same configuration.
//!
//! ```
//! use rws_runtime::ParSliceExt;
//!
//! let pool = rws_runtime::ThreadPool::new(2);
//! let data: Vec<u64> = (0..10_000).collect();
//! let total = pool.install(move || {
//!     data.par_iter().map_reduce(|&x| x, |a, b| a + b, 0)
//! });
//! assert_eq!(total, 10_000 * 9_999 / 2);
//! ```

use crate::join;
use crate::pool::current_num_threads;

/// Pieces the adaptive grain targets per pool worker: enough slack for the randomized
/// stealing to balance uneven pieces, few enough that fork overhead stays negligible.
pub const SPLIT_FACTOR: usize = 4;

/// Floor on the adaptive grain of the *element* iterators: never fork a piece of fewer
/// than this many elements. One `join` (a deque push/pop pair plus a possible steal) costs
/// about as much as a few dozen cheap element operations; below that a wide pool on a
/// short slice would spend more time forking than working. Chunk adapters are
/// exempt — their unit of work is a whole chunk, whose cost the element count says
/// nothing about (grain 1 there reproduces the dag builders' one-fork-per-chunk trees).
pub const MIN_SEQ_ELEMENTS: usize = 64;

/// The adaptive leaf size for `len` work items: `len / (SPLIT_FACTOR * pool width)`,
/// rounded up, at least 1. Outside a pool the width is 1, so the tree degrades to a
/// handful of leaves whose `join`s all run sequentially on the caller.
fn adaptive_grain(len: usize, explicit: Option<usize>) -> usize {
    match explicit {
        Some(g) => g.max(1),
        None => len.div_ceil(SPLIT_FACTOR * current_num_threads()).max(1),
    }
}

/// [`adaptive_grain`] with the [`MIN_SEQ_ELEMENTS`] floor applied — the default grain of
/// the per-element adapters. An explicit `with_grain` still wins outright: pinned grains
/// are how the experiments force degenerate split trees on purpose.
fn adaptive_element_grain(len: usize, explicit: Option<usize>) -> usize {
    match explicit {
        Some(g) => g.max(1),
        None => adaptive_grain(len, None).max(MIN_SEQ_ELEMENTS),
    }
}

/// Parallel shared-reference iterator over a slice; see the module docs.
pub struct ParIter<'data, T> {
    slice: &'data [T],
    grain: Option<usize>,
}

/// Parallel mutable iterator over a slice; see the module docs.
pub struct ParIterMut<'data, T> {
    slice: &'data mut [T],
    grain: Option<usize>,
}

/// Parallel iterator over `size`-element chunks of a slice (the last chunk may be
/// shorter); see the module docs.
pub struct ParChunks<'data, T> {
    slice: &'data [T],
    size: usize,
    grain: Option<usize>,
}

/// Parallel mutable iterator over `size`-element chunks of a slice (the last chunk may be
/// shorter); see the module docs.
pub struct ParChunksMut<'data, T> {
    slice: &'data mut [T],
    size: usize,
    grain: Option<usize>,
}

/// Entry points: `slice.par_iter()`, `slice.par_chunks_mut(k)`, … on any slice (and
/// anything that derefs to one, like `Vec`).
pub trait ParSliceExt<T> {
    /// Parallel iterator over shared references.
    fn par_iter(&self) -> ParIter<'_, T>;
    /// Parallel iterator over mutable references.
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T>;
    /// Parallel iterator over `size`-element chunks (the last may be shorter).
    fn par_chunks(&self, size: usize) -> ParChunks<'_, T>;
    /// Parallel iterator over `size`-element mutable chunks (the last may be shorter).
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T>;
}

impl<T> ParSliceExt<T> for [T] {
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter { slice: self, grain: None }
    }

    fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
        ParIterMut { slice: self, grain: None }
    }

    fn par_chunks(&self, size: usize) -> ParChunks<'_, T> {
        assert!(size > 0, "par_chunks needs a positive chunk size");
        ParChunks { slice: self, size, grain: None }
    }

    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
        assert!(size > 0, "par_chunks_mut needs a positive chunk size");
        ParChunksMut { slice: self, size, grain: None }
    }
}

impl<'data, T: Sync> ParIter<'data, T> {
    /// Pin the leaf size to `grain` elements instead of the adaptive default.
    pub fn with_grain(mut self, grain: usize) -> Self {
        self.grain = Some(grain.max(1));
        self
    }

    /// Apply `f` to every element, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&T) + Sync,
    {
        let grain = adaptive_element_grain(self.slice.len(), self.grain);
        for_each_ref(self.slice, grain, &f);
    }

    /// Map every element and combine the results with `reduce` (leaves fold starting from
    /// `identity`). The combine tree is the split tree, so the result is deterministic for
    /// a given length, grain, and pool width — including for non-associative-in-rounding
    /// float reductions.
    pub fn map_reduce<R, M, C>(self, map: M, reduce: C, identity: R) -> R
    where
        R: Send + Sync + Clone,
        M: Fn(&T) -> R + Sync,
        C: Fn(R, R) -> R + Sync,
    {
        let grain = adaptive_element_grain(self.slice.len(), self.grain);
        map_reduce_ref(self.slice, grain, &map, &reduce, &identity)
    }
}

impl<'data, T: Send> ParIterMut<'data, T> {
    /// Pin the leaf size to `grain` elements instead of the adaptive default.
    pub fn with_grain(mut self, grain: usize) -> Self {
        self.grain = Some(grain.max(1));
        self
    }

    /// Apply `f` to every element through a mutable reference, in parallel (the borrows
    /// are disjoint by construction).
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut T) + Sync,
    {
        let grain = adaptive_element_grain(self.slice.len(), self.grain);
        for_each_mut(self.slice, grain, &f);
    }
}

impl<'data, T: Sync> ParChunks<'data, T> {
    /// Pin the leaf size to `grain` *chunks* instead of the adaptive default.
    pub fn with_grain(mut self, grain: usize) -> Self {
        self.grain = Some(grain.max(1));
        self
    }

    /// Apply `f` to every chunk, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&[T]) + Sync,
    {
        self.for_each_indexed(|_, chunk| f(chunk));
    }

    /// Apply `f` to every `(chunk index, chunk)`, in parallel.
    pub fn for_each_indexed<F>(self, f: F)
    where
        F: Fn(usize, &[T]) + Sync,
    {
        let chunks = self.slice.len().div_ceil(self.size);
        let grain = adaptive_grain(chunks, self.grain);
        for_each_chunks(self.slice, 0, self.size, grain, &f);
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

fn for_each_ref<T: Sync, F: Fn(&T) + Sync>(s: &[T], grain: usize, f: &F) {
    if s.len() <= grain {
        s.iter().for_each(f);
        return;
    }
    let (lo, hi) = s.split_at(s.len() / 2);
    join(|| for_each_ref(lo, grain, f), || for_each_ref(hi, grain, f));
}

fn for_each_mut<T: Send, F: Fn(&mut T) + Sync>(s: &mut [T], grain: usize, f: &F) {
    if s.len() <= grain {
        s.iter_mut().for_each(f);
        return;
    }
    let mid = s.len() / 2;
    let (lo, hi) = s.split_at_mut(mid);
    join(|| for_each_mut(lo, grain, f), || for_each_mut(hi, grain, f));
}

fn map_reduce_ref<T, R, M, C>(s: &[T], grain: usize, map: &M, reduce: &C, identity: &R) -> R
where
    T: Sync,
    R: Send + Sync + Clone,
    M: Fn(&T) -> R + Sync,
    C: Fn(R, R) -> R + Sync,
{
    if s.len() <= grain {
        return s.iter().map(map).fold(identity.clone(), reduce);
    }
    let (lo, hi) = s.split_at(s.len() / 2);
    let (a, b) = join(
        || map_reduce_ref(lo, grain, map, reduce, identity),
        || map_reduce_ref(hi, grain, map, reduce, identity),
    );
    reduce(a, b)
}

/// Fork-join over whole chunks: split at chunk boundaries while more than `grain` chunks
/// remain, then run the leaf's chunks sequentially. `first` is the index of the piece's
/// first chunk in the original slice.
fn for_each_chunks<T, F>(s: &[T], first: usize, size: usize, grain: usize, f: &F)
where
    T: Sync,
    F: Fn(usize, &[T]) + Sync,
{
    let chunks = s.len().div_ceil(size);
    if chunks <= grain {
        for (k, chunk) in s.chunks(size).enumerate() {
            f(first + k, chunk);
        }
        return;
    }
    let mid = (chunks / 2) * size;
    let (lo, hi) = s.split_at(mid);
    join(
        || for_each_chunks(lo, first, size, grain, f),
        || for_each_chunks(hi, first + chunks / 2, size, grain, f),
    );
}

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
    fn par_iter_visits_every_element() {
        let pool = ThreadPool::new(3);
        let total = pool.install(|| {
            let data: Vec<u64> = (0..10_000).collect();
            let total = AtomicU64::new(0);
            data.par_iter().for_each(|&x| {
                total.fetch_add(x, Ordering::Relaxed);
            });
            total.load(Ordering::Relaxed)
        });
        assert_eq!(total, 10_000 * 9_999 / 2);
    }

    #[test]
    fn par_iter_mut_writes_every_element() {
        let pool = ThreadPool::new(2);
        let data = pool.install(|| {
            let mut data = vec![0u64; 5000];
            data.par_iter_mut().for_each(|v| *v += 3);
            data
        });
        assert!(data.iter().all(|&v| v == 3));
    }

    #[test]
    fn map_reduce_matches_sequential_and_is_grain_stable() {
        let pool = ThreadPool::new(4);
        for grain in [1usize, 7, 100, 10_000] {
            let (got, expected) = pool.install(move || {
                let data: Vec<i64> = (0..4097).map(|i| (i % 13) - 6).collect();
                let expected: i64 = data.iter().sum();
                (data.par_iter().with_grain(grain).map_reduce(|&x| x, |a, b| a + b, 0), expected)
            });
            assert_eq!(got, expected, "grain {grain}");
        }
    }

    #[test]
    fn par_chunks_sees_each_chunk_once_with_the_right_index() {
        let pool = ThreadPool::new(2);
        let seen = pool.install(|| {
            let data: Vec<usize> = (0..103).collect();
            let seen = AtomicU64::new(0);
            data.par_chunks(10).for_each_indexed(|i, chunk| {
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
    fn element_grain_never_drops_below_the_sequential_floor() {
        // Big slices keep the pure width-adaptive grain…
        assert_eq!(adaptive_element_grain(100_000, None), adaptive_grain(100_000, None));
        // …short ones are floored so a wide pool cannot fork 3-element leaves…
        let pool = ThreadPool::new(4);
        let grain = pool.install(|| adaptive_element_grain(256, None));
        assert_eq!(grain, MIN_SEQ_ELEMENTS, "width-adaptive 16 is floored to 64");
        // …and an explicit grain bypasses the floor entirely.
        assert_eq!(adaptive_element_grain(1000, Some(2)), 2);
    }

    #[test]
    fn empty_slices_are_fine() {
        let data: [u64; 0] = [];
        data.par_iter().for_each(|_| unreachable!());
        let mut data: [u64; 0] = [];
        data.par_chunks_mut(8).for_each(|_| unreachable!());
    }
}
