//! The allocation contract of the scheduler's event loop: once `Sim::new` has sized its
//! containers, executing a dag node does not allocate — work units are borrowed from the dag,
//! not cloned. Measured as: a one-processor run of a dag with 16 times the nodes, touching
//! the same memory, allocates no more than a handful of times more.

use rws_core::RwsScheduler;
use rws_dag::builders::balanced_par;
use rws_dag::{NodeId, SpDag, SpDagBuilder, WorkUnit};
use rws_machine::{Addr, MachineConfig};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{thread_allocations, CountingAllocator};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// A balanced fork tree over `leaves` leaves; every leaf reads and writes global words out
/// of the same 64 and writes a word of its own two-word stack segment.
fn tree(leaves: u64) -> SpDag {
    let mut b = SpDagBuilder::new();
    let ids: Vec<NodeId> = (0..leaves)
        .map(|i| {
            let unit = WorkUnit::compute(3).read(Addr(i % 64)).write(Addr((i * 7) % 64));
            b.leaf_with_segment(unit.local_write(0, 1), 2)
        })
        .collect();
    let root = balanced_par(&mut b, &ids, 1);
    b.build(root).expect("a well-formed dag")
}

fn allocations_of_one_run(dag: &SpDag) -> u64 {
    let scheduler = RwsScheduler::with_machine(MachineConfig::small().with_procs(1));
    let before = thread_allocations();
    let report = scheduler.run_dag(dag);
    let allocations = thread_allocations() - before;
    assert_eq!(report.work_executed, dag.work());
    allocations
}

#[test]
fn a_run_does_not_allocate_per_node() {
    let (small, large) = (tree(256), tree(4096));
    assert!(large.len() >= 16 * small.len() - 16);
    let (few, many) = (allocations_of_one_run(&small), allocations_of_one_run(&large));
    // The deeper tree may double a frame or segment vector once or twice more; cloning one
    // work unit per node would show up as thousands.
    assert!(
        many <= few + 8,
        "{} nodes took {few} allocations, {} nodes took {many}",
        small.len(),
        large.len()
    );
}
