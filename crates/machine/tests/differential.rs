//! Differential test of the block-table [`MemorySystem`] against a naive reference model of
//! the same machine: a `Vec`-scan LRU per cache, ordered maps and sets for everything the
//! real one keeps in flat vectors, and no memo of a processor's last block. Seeded random
//! access streams over small address pools in both regions drive the two side by side;
//! every [`AccessOutcome`], the final [`MemStats`] and every block's transfer count must be
//! equal. Two kinds of stream: one that draws a fresh processor for every access, and one
//! of bursts, where a processor stays on one block while others read and write it.

use rand::{rngs::SmallRng, Rng, SeedableRng};
use rws_machine::addr::STACK_REGION_BASE;
use rws_machine::{Access, AccessOutcome, Addr, BlockId, MachineConfig, MemStats, MemorySystem};
use rws_machine::{MissKind, ProcId, ProcStats};
use std::collections::{BTreeMap, BTreeSet};

#[derive(Default)]
struct RefCache {
    /// Resident `(block, dirty)` lines, most recently used first.
    lines: Vec<(BlockId, bool)>,
    ever_loaded: BTreeSet<BlockId>,
    invalidated_by: BTreeMap<BlockId, Addr>,
}

/// No sharer sets and no owner field: who holds a block, and who holds it modified, is
/// found by scanning every cache.
struct RefMemory {
    block_words: u64,
    lines: usize,
    caches: Vec<RefCache>,
    /// Per block ever filled: the cache that last received it, and its transfer count.
    directory: BTreeMap<BlockId, (Option<usize>, u64)>,
    stats: MemStats,
}

impl RefMemory {
    fn position(&self, q: usize, block: BlockId) -> Option<usize> {
        self.caches[q].lines.iter().position(|l| l.0 == block)
    }

    fn invalidate_others(&mut self, block: BlockId, writer: usize, word: Addr) -> u32 {
        let mut count = 0;
        for q in (0..self.caches.len()).filter(|&q| q != writer) {
            if let Some(pos) = self.position(q, block) {
                let (_, dirty) = self.caches[q].lines.remove(pos);
                self.caches[q].invalidated_by.insert(block, word);
                self.stats.per_proc[q].invalidations_received += 1;
                self.stats.per_proc[q].writebacks += dirty as u64;
                count += 1;
            }
        }
        count
    }

    fn access(&mut self, p: usize, a: Access) -> AccessOutcome {
        let block = a.addr.block(self.block_words);
        let region = a.addr.region();
        let mut out =
            AccessOutcome { block, miss: None, transferred: false, invalidations: 0, region };
        if let Some(pos) = self.position(p, block) {
            let line = self.caches[p].lines.remove(pos);
            self.caches[p].lines.insert(0, line);
            self.stats.per_proc[p].hits += 1;
            if a.write {
                out.invalidations = self.invalidate_others(block, p, a.addr);
                self.stats.per_proc[p].upgrades += (out.invalidations > 0) as u64;
                self.directory.get_mut(&block).expect("filled before").0 = Some(p);
            }
        } else {
            let holds_dirty = |q: &usize| self.caches[*q].lines.contains(&(block, true));
            let remote_owner = (0..self.caches.len()).filter(|&q| q != p).find(holds_dirty);
            if a.write {
                out.invalidations = self.invalidate_others(block, p, a.addr);
            } else if let Some(o) = remote_owner {
                let pos = self.position(o, block).expect("the owner holds the block");
                self.caches[o].lines[pos].1 = false;
                self.stats.per_proc[o].writebacks += 1;
            }
            let cold = self.caches[p].ever_loaded.insert(block);
            let invalidated_by = self.caches[p].invalidated_by.remove(&block);
            if self.caches[p].lines.len() == self.lines {
                let (_, dirty) = self.caches[p].lines.pop().expect("a full cache");
                self.stats.per_proc[p].evictions += 1;
                self.stats.per_proc[p].writebacks += dirty as u64;
            }
            self.caches[p].lines.insert(0, (block, false));
            let (last_holder, transfers) = self.directory.entry(block).or_default();
            out.transferred = last_holder.is_some_and(|h| h != p);
            *transfers += out.transferred as u64;
            *last_holder = Some(p);
            self.stats.block_transfers += out.transferred as u64;
            let stats = &mut self.stats.per_proc[p];
            out.miss = Some(if let Some(word) = invalidated_by {
                stats.block_misses += 1;
                stats.false_sharing_misses += (word != a.addr) as u64;
                MissKind::Invalidation { false_sharing: word != a.addr }
            } else if remote_owner.is_some() {
                stats.block_misses += 1;
                MissKind::DirtyTransfer
            } else if cold {
                stats.cold_misses += 1;
                MissKind::Cold
            } else {
                stats.capacity_misses += 1;
                MissKind::Capacity
            });
        }
        if a.write {
            self.caches[p].lines[0].1 = true;
        }
        out
    }
}

/// The real memory system and the naive model of the same machine, driven side by side.
struct Pair {
    real: MemorySystem,
    naive: RefMemory,
    label: String,
}

impl Pair {
    fn new(procs: usize, lines: usize, block_words: u64) -> Self {
        let config = MachineConfig::small()
            .with_procs(procs)
            .with_cache_words(lines as u64 * block_words)
            .with_block_words(block_words);
        Pair {
            real: MemorySystem::new(config),
            naive: RefMemory {
                block_words,
                lines,
                caches: (0..procs).map(|_| RefCache::default()).collect(),
                directory: BTreeMap::new(),
                stats: MemStats::new(procs),
            },
            label: format!("p={procs} lines={lines} B={block_words}"),
        }
    }

    fn access(&mut self, step: usize, proc: usize, access: Access) {
        assert_eq!(
            self.real.access(ProcId(proc), access),
            self.naive.access(proc, access),
            "{} step {step}: P{proc} {access:?}",
            self.label
        );
    }

    /// Compare the final counters and every block's transfer count; return the counters.
    fn finish(self) -> ProcStats {
        let Pair { real, naive, label } = self;
        assert_eq!(real.stats(), &naive.stats, "{label}");
        assert_eq!(real.block_transfers().len(), naive.directory.len());
        for (block, transfers) in real.block_transfers() {
            assert_eq!(transfers, naive.directory[&block].1, "{label} {block:?}");
            assert_eq!(real.transfers_of(block), transfers);
        }
        real.stats().total()
    }
}

#[test]
fn every_outcome_counter_and_transfer_matches_the_naive_model() {
    let mut seen = ProcStats::default();
    for procs in [1usize, 2, 3, 8, 70] {
        for lines in [1usize, 2, 4, 64] {
            for block_words in [1u64, 4, 8] {
                let mut pair = Pair::new(procs, lines, block_words);
                // Per region, twice the blocks one cache holds (at least six), so lines are
                // evicted, yet few enough that processors keep meeting on the same blocks.
                let pool_words = (2 * lines as u64).max(6) * block_words;
                let seed = (procs * 1000 + lines * 10) as u64 + block_words;
                let mut rng = SmallRng::seed_from_u64(seed);
                for step in 0..6000 {
                    let proc = rng.gen_range(0..procs);
                    let base = if rng.gen_bool(0.5) { 0 } else { STACK_REGION_BASE };
                    let addr = Addr(base + rng.gen_range(0..pool_words));
                    pair.access(step, proc, Access { addr, write: rng.gen_bool(0.4) });
                }
                seen += pair.finish();
            }
        }
    }
    // The streams must have exercised every path the two models could disagree on.
    assert!(seen.capacity_misses > 0 && seen.evictions > 0 && seen.writebacks > 0);
    assert!(seen.upgrades > 0 && seen.invalidations_received > seen.upgrades);
    assert!(seen.false_sharing_misses > 0, "invalidations by a write to another word");
    assert!(seen.block_misses > seen.false_sharing_misses, "true sharing or dirty transfers");
}

/// Bursts: each turn one processor makes a run of 1–16 accesses inside one block, its
/// reads before its writes, while other processors now and then read the block (which
/// downgrades a dirty copy) or write it (which strikes every other copy). A repeat access to
/// a processor's last block is what the real system answers from its memo, and these
/// streams are made of them.
#[test]
fn bursts_on_one_block_match_the_naive_model() {
    let mut seen = ProcStats::default();
    let mut repeats = 0u64;
    for procs in [1usize, 2, 3, 8, 70] {
        for lines in [1usize, 4] {
            for block_words in [1u64, 4, 8] {
                let mut pair = Pair::new(procs, lines, block_words);
                let pool_blocks = (2 * lines as u64).max(6);
                let seed = (procs * 1000 + lines * 10) as u64 + block_words + 7;
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut step = 0;
                while step < 6000 {
                    let proc = rng.gen_range(0..procs);
                    let region = if rng.gen_bool(0.5) { 0 } else { STACK_REGION_BASE };
                    let base = region + rng.gen_range(0..pool_blocks) * block_words;
                    let run = rng.gen_range(1..17);
                    let reads = rng.gen_range(0..run + 1);
                    for i in 0..run {
                        let addr = Addr(base + rng.gen_range(0..block_words));
                        pair.access(step, proc, Access { addr, write: i >= reads });
                        repeats += (i > 0) as u64;
                        step += 1;
                        if procs > 1 && rng.gen_bool(0.2) {
                            let other = (proc + rng.gen_range(1..procs)) % procs;
                            let addr = Addr(base + rng.gen_range(0..block_words));
                            pair.access(step, other, Access { addr, write: rng.gen_bool(0.5) });
                            step += 1;
                        }
                    }
                }
                seen += pair.finish();
            }
        }
    }
    assert!(repeats > seen.accesses() / 2, "most accesses repeat the processor's last block");
    // A write after another processor's read must strike that reader; a repeat access
    // after another processor's write must miss.
    assert!(seen.upgrades > 0 && seen.invalidations_received > 0 && seen.writebacks > 0);
    assert!(seen.false_sharing_misses > 0 && seen.block_misses > seen.false_sharing_misses);
    assert!(seen.capacity_misses > 0, "a one-line cache evicts between bursts");
}
