//! A single processor's private cache: fully associative, LRU replacement, with the
//! bookkeeping needed to classify misses as cold, capacity or coherence (block) misses.
//!
//! Blocks are named by their dense index (see [`crate::index`]). The cache is two flat
//! vectors behind that index: the intrusive [`LruList`] of resident blocks, and one [`Line`]
//! per block this cache has ever held.

use crate::lru::LruList;

/// What this cache knows about one block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Line {
    /// Never resident here: the next miss on it is cold.
    Never,
    /// Resident once, since evicted for capacity.
    Evicted,
    /// Resident once, since invalidated by another processor's write to the word at this
    /// offset of the block: the next miss on it is a *block miss* in the sense of the paper.
    Invalidated(u32),
    /// Resident and unmodified.
    Clean,
    /// Resident and modified.
    Dirty,
}

/// A private cache of `lines` blocks with LRU replacement.
#[derive(Clone, Debug)]
pub(crate) struct Cache {
    resident: LruList,
    lines: Vec<Line>,
}

impl Cache {
    /// Create a cache with capacity for `lines` blocks.
    pub(crate) fn new(lines: usize) -> Self {
        Cache { resident: LruList::new(lines), lines: Vec::new() }
    }

    /// Touch `block` (LRU update). Returns `true` on a hit.
    #[inline]
    pub(crate) fn touch(&mut self, block: u32) -> bool {
        self.resident.touch(block)
    }

    /// Fill `block` into the cache (it must not currently be resident), possibly evicting the
    /// LRU block. Returns the evicted block, if any, with whether it was dirty, and what the
    /// cache knew about `block` until now — which is what classifies the miss.
    pub(crate) fn fill(&mut self, block: u32) -> (Option<(u32, bool)>, Line) {
        debug_assert!(!self.resident.contains(block), "fill() called for a resident block");
        let evicted = self.resident.insert(block).map(|victim| {
            let was_dirty = self.lines[victim as usize] == Line::Dirty;
            self.lines[victim as usize] = Line::Evicted;
            (victim, was_dirty)
        });
        if block as usize >= self.lines.len() {
            self.lines.resize(block as usize + 1, Line::Never);
        }
        (evicted, std::mem::replace(&mut self.lines[block as usize], Line::Clean))
    }

    /// Mark the resident copy of `block` as dirty (modified).
    pub(crate) fn mark_dirty(&mut self, block: u32) {
        debug_assert!(self.resident.contains(block));
        self.lines[block as usize] = Line::Dirty;
    }

    /// Downgrade a dirty copy to clean (after a write-back triggered by a remote read).
    /// Returns `true` if the copy was dirty.
    pub(crate) fn clean(&mut self, block: u32) -> bool {
        let was_dirty = self.lines.get(block as usize) == Some(&Line::Dirty);
        if was_dirty {
            self.lines[block as usize] = Line::Clean;
        }
        was_dirty
    }

    /// Invalidate the resident copy of `block` because another processor wrote the word at
    /// `written_offset` of it. Returns whether a copy was resident, and whether it was dirty.
    pub(crate) fn invalidate(&mut self, block: u32, written_offset: u32) -> (bool, bool) {
        if !self.resident.remove(block) {
            return (false, false);
        }
        let was_dirty = self.lines[block as usize] == Line::Dirty;
        self.lines[block as usize] = Line::Invalidated(written_offset);
        (true, was_dirty)
    }

    /// Resident blocks from most to least recently used.
    #[cfg(test)]
    fn resident_blocks(&self) -> Vec<u32> {
        self.resident.iter_mru().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_and_hit() {
        let mut c = Cache::new(2);
        assert!(!c.touch(1));
        assert_eq!(c.fill(1), (None, Line::Never));
        assert!(c.touch(1));
        assert_eq!(c.resident_blocks(), vec![1]);
    }

    #[test]
    fn capacity_eviction_in_lru_order() {
        let mut c = Cache::new(2);
        c.fill(1);
        c.fill(2);
        assert_eq!(c.fill(3).0, Some((1, false)));
        assert!(!c.touch(1));
        assert_eq!(c.resident_blocks(), vec![3, 2]);
    }

    #[test]
    fn eviction_reports_dirtiness() {
        let mut c = Cache::new(1);
        c.fill(1);
        c.mark_dirty(1);
        assert_eq!(c.fill(2).0, Some((1, true)));
        assert!(!c.clean(1), "an evicted copy is no longer dirty");
    }

    #[test]
    fn cold_vs_capacity_classification() {
        let mut c = Cache::new(1);
        assert_eq!(c.fill(1).1, Line::Never);
        c.fill(2); // evicts 1
        assert_eq!(c.fill(1).1, Line::Evicted, "a refill after eviction is not cold");
    }

    #[test]
    fn invalidation_records_writer_word() {
        let mut c = Cache::new(2);
        c.fill(1);
        let (was_resident, was_dirty) = c.invalidate(1, 5);
        assert!(was_resident);
        assert!(!was_dirty);
        assert!(!c.touch(1));
        assert_eq!(c.fill(1).1, Line::Invalidated(5));
        // The record is consumed by the refill.
        c.invalidate(1, 6);
        c.fill(2);
        assert_eq!(c.fill(1).1, Line::Invalidated(6));
    }

    #[test]
    fn invalidate_dirty_copy() {
        let mut c = Cache::new(2);
        c.fill(1);
        c.mark_dirty(1);
        let (was_resident, was_dirty) = c.invalidate(1, 0);
        assert!(was_resident && was_dirty);
    }

    #[test]
    fn invalidate_absent_block_is_noop() {
        let mut c = Cache::new(2);
        assert_eq!(c.invalidate(9, 0), (false, false));
        c.fill(1);
        c.fill(2);
        c.fill(3); // evicts 1
        assert_eq!(c.invalidate(1, 0), (false, false));
        assert_eq!(c.fill(1).1, Line::Evicted, "an evicted block stays a capacity miss");
    }

    #[test]
    fn clean_downgrades() {
        let mut c = Cache::new(2);
        c.fill(1);
        c.mark_dirty(1);
        assert!(c.clean(1));
        assert!(!c.clean(1));
        assert!(!c.clean(7), "a block this cache never saw is not dirty");
        assert!(c.touch(1), "clean keeps the block resident");
    }

    #[test]
    fn resident_blocks_iterates_mru_first() {
        let mut c = Cache::new(3);
        c.fill(1);
        c.fill(2);
        c.fill(3);
        c.touch(1);
        assert_eq!(c.resident_blocks(), vec![1, 3, 2]);
    }
}
