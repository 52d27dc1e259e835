//! The coherence directory: which caches hold each block, which (if any) holds it modified,
//! and how many cache-to-cache transfers each block has undergone (the paper's block delay,
//! Definition 4.1).
//!
//! The directory owns the [`BlockIndex`], so it is where a block gets its dense index; its
//! own per-block state is two flat vectors behind that index: one [`Entry`] per block, and
//! the sharer sets as one bit vector with a fixed stride of `ceil(p / 64)` words per block.

use crate::addr::{BlockId, ProcId};
use crate::index::BlockIndex;

const NO_PROC: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Entry {
    /// The cache holding a modified copy, or `NO_PROC`. Always a sharer.
    owner: u32,
    /// The cache that most recently received the block (to count cache-to-cache moves).
    last_holder: u32,
    /// How many times this block has moved from one cache to a different cache
    /// (the block delay of Definition 4.1, accumulated over the whole run).
    transfers: u64,
}

/// The coherence directory for the whole machine.
#[derive(Clone, Debug)]
pub(crate) struct Directory {
    index: BlockIndex,
    entries: Vec<Entry>,
    /// `stride` words per block: bit `p` is set while cache `p` holds a copy.
    sharers: Vec<u64>,
    stride: usize,
}

impl Directory {
    /// Create an empty directory for a machine of `procs` processors.
    pub(crate) fn new(procs: usize) -> Self {
        assert!(procs < NO_PROC as usize, "too many processors");
        Directory {
            index: BlockIndex::new(),
            entries: Vec::new(),
            sharers: Vec::new(),
            stride: procs.div_ceil(64),
        }
    }

    /// The dense index of `block`, creating its (unshared, never moved) entry on first sight.
    #[inline]
    pub(crate) fn intern(&mut self, block: BlockId) -> u32 {
        let idx = self.index.intern(block);
        if idx as usize == self.entries.len() {
            self.entries.push(Entry { owner: NO_PROC, last_holder: NO_PROC, transfers: 0 });
            self.sharers.resize(self.sharers.len() + self.stride, 0);
        }
        idx
    }

    /// The cache holding block `idx` modified, if any.
    pub(crate) fn owner(&self, idx: u32) -> Option<ProcId> {
        let owner = self.entries[idx as usize].owner;
        (owner != NO_PROC).then_some(ProcId(owner as usize))
    }

    /// A write by `proc`: its copy of block `idx` is now the modified one, and it is the
    /// block's latest holder.
    pub(crate) fn set_owner(&mut self, idx: u32, proc: ProcId) {
        let e = &mut self.entries[idx as usize];
        e.owner = proc.index() as u32;
        e.last_holder = e.owner;
    }

    /// Record that no cache holds block `idx` modified any more (write-back).
    pub(crate) fn clear_owner(&mut self, idx: u32) {
        self.entries[idx as usize].owner = NO_PROC;
    }

    /// Record that `proc` now holds a copy of block `idx`; counts a cache-to-cache transfer
    /// if the previous holder was a different cache. Returns `true` if one was counted.
    pub(crate) fn record_fill(&mut self, idx: u32, proc: ProcId) -> bool {
        let (word, bit) = self.sharer_bit(idx, proc);
        self.sharers[word] |= bit;
        let e = &mut self.entries[idx as usize];
        let transferred = e.last_holder != NO_PROC && e.last_holder != proc.index() as u32;
        e.transfers += transferred as u64;
        e.last_holder = proc.index() as u32;
        transferred
    }

    /// Record that `proc` dropped its copy of block `idx` (eviction). The ownership is
    /// cleared if `proc` was the owner.
    pub(crate) fn record_eviction(&mut self, idx: u32, proc: ProcId) {
        let (word, bit) = self.sharer_bit(idx, proc);
        self.sharers[word] &= !bit;
        let e = &mut self.entries[idx as usize];
        if e.owner == proc.index() as u32 {
            e.owner = NO_PROC;
        }
    }

    /// A write by `writer`: strike every other cache from the sharers of block `idx`, calling
    /// `invalidate` for each in increasing id order, and clear the ownership of any of them.
    #[inline]
    pub(crate) fn invalidate_others(
        &mut self,
        idx: u32,
        writer: ProcId,
        mut invalidate: impl FnMut(ProcId),
    ) {
        let (writer_word, writer_bit) = self.sharer_bit(idx, writer);
        let first = idx as usize * self.stride;
        for word in first..first + self.stride {
            let keep = if word == writer_word { writer_bit } else { 0 };
            let mut others = self.sharers[word] & !keep;
            self.sharers[word] &= keep;
            while others != 0 {
                invalidate(ProcId((word - first) * 64 + others.trailing_zeros() as usize));
                others &= others - 1;
            }
        }
        let e = &mut self.entries[idx as usize];
        if e.owner != writer.index() as u32 {
            e.owner = NO_PROC;
        }
    }

    /// Total transfers of `block` so far (0 if never referenced).
    pub(crate) fn transfers_of(&self, block: BlockId) -> u64 {
        self.index.find(block).map_or(0, |idx| self.entries[idx as usize].transfers)
    }

    /// Every block seen so far with its transfer count, in first-access order.
    pub(crate) fn block_transfers(&self) -> impl ExactSizeIterator<Item = (BlockId, u64)> + '_ {
        self.index.blocks().iter().zip(&self.entries).map(|(&b, e)| (b, e.transfers))
    }

    /// The caches holding block `idx`, in increasing id order.
    #[cfg(test)]
    fn sharers(&self, idx: u32) -> Vec<usize> {
        let words = &self.sharers[idx as usize * self.stride..][..self.stride];
        (0..self.stride * 64).filter(|p| words[p / 64] & (1 << (p % 64)) != 0).collect()
    }

    fn sharer_bit(&self, idx: u32, proc: ProcId) -> (usize, u64) {
        debug_assert!(proc.index() < self.stride * 64);
        (idx as usize * self.stride + proc.index() / 64, 1 << (proc.index() % 64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procset_insert_remove_contains() {
        let mut d = Directory::new(4);
        let (a, b) = (d.intern(BlockId(10)), d.intern(BlockId(11)));
        d.record_fill(a, ProcId(3));
        d.record_fill(a, ProcId(3));
        assert_eq!(d.sharers(a), vec![3]);
        assert!(d.sharers(b).is_empty(), "sharer bits of neighbouring blocks are separate");
        d.record_eviction(a, ProcId(3));
        d.record_eviction(a, ProcId(3));
        assert!(d.sharers(a).is_empty());
    }

    #[test]
    fn procset_handles_large_ids() {
        // 130 processors: three sharer words per block.
        let mut d = Directory::new(130);
        let (a, b) = (d.intern(BlockId(1)), d.intern(BlockId(2)));
        for p in [0, 64, 129] {
            d.record_fill(a, ProcId(p));
            d.record_fill(b, ProcId(p));
        }
        assert_eq!(d.sharers(a), vec![0, 64, 129]);
        d.set_owner(a, ProcId(129));
        let mut struck = Vec::new();
        d.invalidate_others(a, ProcId(64), |p| struck.push(p.index()));
        assert_eq!(struck, vec![0, 129], "every sharer but the writer, in id order");
        assert_eq!(d.sharers(a), vec![64]);
        assert_eq!(d.owner(a), None, "a struck owner loses the block");
        assert_eq!(d.sharers(b), vec![0, 64, 129], "other blocks are untouched");
    }

    #[test]
    fn fill_counts_transfers_only_across_caches() {
        let mut d = Directory::new(2);
        let blk = d.intern(BlockId(7));
        assert!(!d.record_fill(blk, ProcId(0)), "first fill is not a transfer");
        assert!(!d.record_fill(blk, ProcId(0)), "refill by the same cache is not a transfer");
        assert!(d.record_fill(blk, ProcId(1)), "moving to a different cache is a transfer");
        assert!(d.record_fill(blk, ProcId(0)), "moving back is another transfer");
        assert_eq!(d.transfers_of(BlockId(7)), 2);
        assert_eq!(d.block_transfers().collect::<Vec<_>>(), vec![(BlockId(7), 2)]);
    }

    #[test]
    fn eviction_clears_ownership() {
        let mut d = Directory::new(2);
        let blk = d.intern(BlockId(1));
        d.record_fill(blk, ProcId(0));
        d.set_owner(blk, ProcId(0));
        d.record_eviction(blk, ProcId(0));
        assert!(d.sharers(blk).is_empty());
        assert_eq!(d.owner(blk), None);
    }

    #[test]
    fn transfers_of_unknown_block_is_zero() {
        let d = Directory::new(1);
        assert_eq!(d.transfers_of(BlockId(99)), 0);
    }

    #[test]
    fn tracked_blocks_counts_distinct() {
        let mut d = Directory::new(2);
        for (block, proc) in [(1, 0), (2, 0), (1, 1)] {
            let idx = d.intern(BlockId(block));
            d.record_fill(idx, ProcId(proc));
        }
        assert_eq!(d.block_transfers().len(), 2);
    }
}
