//! The allocation contract of the simulator's innermost loop: `MemorySystem::access` may
//! extend its flat vectors when a block is seen for the first time, and allocates at no other
//! time — not on a hit, an upgrade, an invalidation, an eviction or a refill.

use rws_machine::addr::STACK_REGION_BASE;
use rws_machine::{Access, Addr, MachineConfig, MemorySystem, ProcId};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{thread_allocations, CountingAllocator};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn accesses_to_blocks_seen_before_do_not_allocate() {
    // 512 lines of 8 words per cache.
    let mut memory = MemorySystem::new(MachineConfig::small().with_procs(2));
    let (p0, p1) = (ProcId(0), ProcId(1));
    // 384 blocks in both regions stay resident; the 1024-block spill range does not fit.
    let resident: Vec<Addr> =
        (0..2048).map(Addr).chain((0..1024).map(|w| Addr(STACK_REGION_BASE + w))).collect();
    let reads: Vec<Access> = resident.iter().map(|&a| Access::read(a)).collect();
    let writes: Vec<Access> = resident.iter().map(|&a| Access::write(a)).collect();
    let spill: Vec<Access> = (1 << 20..(1 << 20) + 8192).map(|w| Access::read(Addr(w))).collect();

    // Warm-up: one scan of everything by both processors, the resident set last.
    for proc in [p0, p1] {
        memory.access_all(proc, &spill);
        memory.access_all(proc, &reads);
    }
    let blocks = memory.block_transfers().len() as u64;
    assert_eq!(blocks, 384 + 1024);
    memory.reset_stats();

    let before = thread_allocations();
    let hits = memory.access_all(p0, &reads);
    let upgrades = memory.access_all(p0, &writes);
    let refills = memory.access_all(p1, &reads);
    let stolen = memory.access_all(p1, &writes);
    let evicting = memory.access_all(p0, &spill);
    let allocations = thread_allocations() - before;

    // The window did what it claims to cover ...
    assert_eq!(hits, (0, 0), "a resident working set only hits");
    assert_eq!(upgrades, (0, 0), "writes to resident blocks hit; the second sharer is struck");
    assert_eq!(memory.stats().proc(p0).upgrades, 384);
    assert_eq!(refills, (0, 384), "the struck sharer takes one block miss per block");
    assert_eq!(stolen, (0, 0));
    assert_eq!(memory.stats().proc(p0).invalidations_received, 384);
    assert_eq!(evicting, (1024, 0), "the spill range no longer fits: capacity misses");
    assert_eq!(memory.stats().proc(p0).evictions, 1024 - 384, "P1 had emptied 384 lines");
    assert_eq!(memory.block_transfers().len() as u64, blocks, "and met no new block");
    // ... and none of it touched the heap.
    assert_eq!(allocations, 0, "MemorySystem::access allocated on a block it had seen before");
}
