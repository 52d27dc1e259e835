//! Interning of block identifiers into dense indices.
//!
//! Every per-block quantity of the memory system lives in a flat vector indexed by the
//! block's *dense index*, its rank in first-access order. [`BlockIndex`] is the only place a
//! [`BlockId`] is looked up: one open-addressed probe per access. The simulated address space
//! is sparse (globals from 0, one reserved stack region per task from `STACK_REGION_BASE`),
//! so the table is keyed by hash, not by address, and stays proportional to the blocks touched.

use crate::addr::BlockId;

const EMPTY: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Slot {
    block: BlockId,
    index: u32,
}

/// An insert-only map from [`BlockId`] to dense index: linear probing over a power-of-two
/// table kept at most half full, multiplicative (Fibonacci) hashing.
#[derive(Clone, Debug)]
pub(crate) struct BlockIndex {
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`: the hash keeps its top bits.
    shift: u32,
    /// Dense index → block.
    blocks: Vec<BlockId>,
}

impl BlockIndex {
    pub(crate) fn new() -> Self {
        let mut index = BlockIndex { slots: Vec::new(), shift: 0, blocks: Vec::new() };
        index.rebuild(16);
        index
    }

    /// The blocks seen so far, by dense index.
    pub(crate) fn blocks(&self) -> &[BlockId] {
        &self.blocks
    }

    /// The dense index of `block`, if it has been interned.
    pub(crate) fn find(&self, block: BlockId) -> Option<u32> {
        let index = self.slots[self.probe(block)].index;
        (index != EMPTY).then_some(index)
    }

    /// The dense index of `block`, assigning the next one on first sight.
    #[inline]
    pub(crate) fn intern(&mut self, block: BlockId) -> u32 {
        let slot = self.probe(block);
        if self.slots[slot].index != EMPTY {
            return self.slots[slot].index;
        }
        let index = u32::try_from(self.blocks.len()).expect("more than 2^32 blocks touched");
        self.blocks.push(block);
        if self.blocks.len() * 2 > self.slots.len() {
            self.rebuild(self.slots.len() * 2);
        } else {
            self.slots[slot] = Slot { block, index };
        }
        index
    }

    /// The slot holding `block`, or the empty slot where it belongs.
    #[inline]
    fn probe(&self, block: BlockId) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = (block.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        while self.slots[slot].index != EMPTY && self.slots[slot].block != block {
            slot = (slot + 1) & mask;
        }
        slot
    }

    fn rebuild(&mut self, len: usize) {
        self.slots = vec![Slot { block: BlockId(0), index: EMPTY }; len];
        self.shift = 64 - len.trailing_zeros();
        for index in 0..self.blocks.len() {
            let block = self.blocks[index];
            let slot = self.probe(block);
            self.slots[slot] = Slot { block, index: index as u32 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::STACK_REGION_BASE;

    #[test]
    fn indices_are_dense_in_first_seen_order_across_growth() {
        let mut index = BlockIndex::new();
        // Two dense ranges far apart, interleaved: globals and stack blocks.
        let blocks: Vec<BlockId> =
            (0..500u64).flat_map(|i| [BlockId(i), BlockId(STACK_REGION_BASE / 8 + i)]).collect();
        for (expected, &block) in blocks.iter().enumerate() {
            assert_eq!(index.find(block), None);
            assert_eq!(index.intern(block), expected as u32);
        }
        for (expected, &block) in blocks.iter().enumerate() {
            assert_eq!(index.intern(block), expected as u32, "interning is idempotent");
            assert_eq!(index.find(block), Some(expected as u32));
        }
        assert_eq!(index.blocks(), &blocks[..]);
        assert_eq!(index.find(BlockId(7777)), None);
    }
}
