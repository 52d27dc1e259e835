//! The randomized work-stealing scheduler simulator.
//!
//! The simulator executes a series-parallel dag on `p` virtual processors under the paper's
//! execution model (Section 2): per-processor work queues with bottom push/pop and top
//! steals, uniformly random victim selection, steal cost `s` (failed steals `O(s)`), node
//! execution cost `1` per operation plus `b` per cache or block miss, per-task block-aligned
//! execution stacks (Property 4.3) and usurpation at joins (Definition 4.7).
//!
//! The simulation is a discrete-event loop: processors are kept in a min-heap ordered by the
//! time at which they next become free; the earliest one performs one action (execute a dag
//! node, pop/steal work, or fail a steal) and is re-queued. Memory accesses go through the
//! coherence-aware [`rws_machine::MemorySystem`], which classifies each miss as a cache miss
//! or a block miss (false sharing).
//!
//! ### Fidelity notes
//!
//! * Steals take entries from the *top* of the victim's queue, so the stolen task is always
//!   the shallowest outstanding fork of the victim — Observation 4.1's structure (stolen
//!   tasks are right children along a single path `P_τ`, stolen top-down) emerges naturally
//!   and is checked by `tests/simulator_end_to_end.rs` (E18).
//! * A stolen task receives a fresh, block-aligned stack region; its accesses to segments of
//!   enclosing forks resolve into the victim task's stack, reproducing the stack block
//!   sharing analyzed in Lemmas 4.3/4.4.
//! * When a processor's task suspends at a join whose other side is not finished, the
//!   processor becomes idle; the last processor to reach the join continues the parent task
//!   (a *usurpation* when that processor differs from the one that ran the parent before).
//! * Idle processors whose steal attempts find **all** queues empty are parked and woken when
//!   the next fork pushes an entry; the failed attempts they would have made are accounted
//!   synthetically so steal-time statistics are preserved without simulating billions of
//!   no-op events.

use crate::config::SimConfig;
use crate::deque::{DequeEntry, SimDeque};
use crate::potential::{log2_sum_exp2, HeightAssignment, PotentialSample, PotentialTracker};
use crate::report::{RunReport, StealEvent};
use crate::stack::StackAllocator;
use crate::task::{Frame, JoinState, SegEntry, TaskId, TaskInstance, TaskOrigin};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rws_dag::{Computation, NodeId, SpDag, SpStructure, WorkUnit};
use rws_machine::{Access, Addr, MachineConfig, MemorySystem, ProcId, Region};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Safety limit on the number of scheduler events; a run exceeding it panics (this only
/// triggers on scheduler bugs, never on legitimate computations of sensible size).
const MAX_EVENTS: u64 = 2_000_000_000;

/// Extra words reserved per task stack beyond the dag's worst-case sequential stack need
/// (headroom for block alignment).
const STACK_HEADROOM_WORDS: u64 = 64;

/// The randomized work-stealing scheduler: configure once, run many computations.
#[derive(Clone, Debug)]
pub struct RwsScheduler {
    machine: MachineConfig,
    sim: SimConfig,
}

impl RwsScheduler {
    /// Create a scheduler for the given machine and simulation options.
    pub fn new(machine: MachineConfig, sim: SimConfig) -> Self {
        machine.validate().expect("invalid machine configuration");
        RwsScheduler { machine, sim }
    }

    /// Create a scheduler with default simulation options.
    pub fn with_machine(machine: MachineConfig) -> Self {
        Self::new(machine, SimConfig::default())
    }

    /// The machine configuration.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Run a classified computation.
    pub fn run(&self, computation: &Computation) -> RunReport {
        self.run_dag(&computation.dag)
    }

    /// Run a bare dag.
    pub fn run_dag(&self, dag: &SpDag) -> RunReport {
        Sim::new(&self.machine, &self.sim, dag).run()
    }
}

struct ProcState {
    current: Option<TaskId>,
    time: u64,
    parked: bool,
    park_start: u64,
}

struct Sim<'a> {
    dag: &'a SpDag,
    machine: MachineConfig,
    sim: SimConfig,
    memory: MemorySystem,
    procs: Vec<ProcState>,
    deques: Vec<SimDeque>,
    /// Entries over all deques, so a failed steal need not scan them to decide to park.
    queued_entries: usize,
    tasks: Vec<TaskInstance>,
    joins: Vec<JoinState>,
    stack_alloc: StackAllocator,
    rng: SmallRng,
    heights: Option<HeightAssignment>,
    potential: PotentialTracker,

    successful_steals: u64,
    failed_steals: u64,
    steal_time: u64,
    usurpations: u64,
    local_pops: u64,
    work_executed: u64,
    nodes_executed: u64,
    busy_time: u64,
    steal_events: Vec<StealEvent>,
    finished: bool,
    makespan: u64,
    pushed_entry_flag: bool,
    events: u64,
}

impl<'a> Sim<'a> {
    fn new(machine: &MachineConfig, sim: &SimConfig, dag: &'a SpDag) -> Self {
        let p = machine.procs;
        let mut reserve = dag.sequential_stack_words() + STACK_HEADROOM_WORDS;
        if sim.pad_segments {
            // Every segment can grow to the next block boundary.
            reserve += (dag.max_segment_depth() + 1) * machine.block_words;
        }
        let heights = if sim.track_potential {
            Some(HeightAssignment::new(dag, machine.miss_cost, machine.steal_cost, None))
        } else {
            None
        };
        Sim {
            dag,
            machine: machine.clone(),
            sim: sim.clone(),
            memory: MemorySystem::new(machine.clone()),
            procs: (0..p)
                .map(|_| ProcState { current: None, time: 0, parked: false, park_start: 0 })
                .collect(),
            deques: (0..p).map(|_| SimDeque::new()).collect(),
            queued_entries: 0,
            tasks: Vec::new(),
            joins: vec![JoinState::default(); dag.len()],
            stack_alloc: StackAllocator::new(machine.block_words, reserve),
            rng: SmallRng::seed_from_u64(sim.seed),
            heights,
            potential: PotentialTracker::new(),
            successful_steals: 0,
            failed_steals: 0,
            steal_time: 0,
            usurpations: 0,
            local_pops: 0,
            work_executed: 0,
            nodes_executed: 0,
            busy_time: 0,
            steal_events: Vec::new(),
            finished: false,
            makespan: 0,
            pushed_entry_flag: false,
            events: 0,
        }
    }

    fn run(mut self) -> RunReport {
        // The original task starts on processor 0.
        let root_stack = self.stack_alloc.new_task_stack();
        self.tasks.push(TaskInstance::new(
            TaskId(0),
            TaskOrigin::Root,
            self.dag.root(),
            Vec::new(),
            root_stack,
            None,
        ));
        self.set_current(ProcId(0), TaskId(0));

        let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
        let mut seq = 0u64;
        for p in 0..self.machine.procs {
            heap.push(Reverse((0, seq, p)));
            seq += 1;
        }

        while let Some(Reverse((t, _, p))) = heap.pop() {
            if self.finished {
                break;
            }
            self.events += 1;
            assert!(
                self.events <= MAX_EVENTS,
                "simulation exceeded the configured event limit ({})",
                MAX_EVENTS
            );
            debug_assert_eq!(self.procs[p].time, t, "heap time must match processor time");
            let cost = self.step(ProcId(p));
            self.procs[p].time = t + cost;
            if self.finished {
                self.makespan = self.procs[p].time;
            }
            if self.pushed_entry_flag {
                self.pushed_entry_flag = false;
                let now = self.procs[p].time;
                for q in 0..self.machine.procs {
                    if self.procs[q].parked {
                        self.unpark(q, now);
                        heap.push(Reverse((self.procs[q].time, seq, q)));
                        seq += 1;
                    }
                }
            }
            if self.sim.track_potential && self.events.is_multiple_of(256) {
                self.sample_potential();
            }
            if !self.finished && !self.procs[p].parked {
                heap.push(Reverse((self.procs[p].time, seq, p)));
                seq += 1;
            }
        }
        assert!(self.finished, "scheduler deadlock: computation did not complete");

        // Account for the steal attempts parked processors would have made until completion.
        for q in 0..self.machine.procs {
            if self.procs[q].parked {
                let end = self.makespan;
                self.unpark(q, end);
            }
        }
        self.build_report()
    }

    // ----- per-event actions ---------------------------------------------------------------

    fn step(&mut self, p: ProcId) -> u64 {
        match self.procs[p.index()].current {
            Some(tid) => self.advance_task(p, tid),
            None => self.acquire_work(p),
        }
    }

    fn acquire_work(&mut self, p: ProcId) -> u64 {
        // Own queue first (no steal cost): this only triggers in exotic schedules; normally a
        // processor's queue is empty whenever it is idle.
        if let Some(entry) = self.deques[p.index()].pop_bottom() {
            self.queued_entries -= 1;
            let tid = self.spawn_task(entry, TaskOrigin::LocalPop);
            self.local_pops += 1;
            self.set_current(p, tid);
            return 1;
        }
        if self.machine.procs == 1 {
            self.park(p);
            return 0;
        }
        // Random victim among the other processors.
        let victim = {
            let v = self.rng.gen_range(0..self.machine.procs - 1);
            if v >= p.index() {
                v + 1
            } else {
                v
            }
        };
        if let Some(entry) = self.deques[victim].steal_top() {
            self.queued_entries -= 1;
            self.successful_steals += 1;
            self.steal_time += self.machine.steal_cost;
            self.joins[entry.par_node.index()].right_stolen = true;
            let tid = self.spawn_task(entry, TaskOrigin::Stolen);
            self.set_current(p, tid);
            if self.sim.collect_steal_events {
                self.steal_events.push(StealEvent {
                    time: self.procs[p.index()].time + self.machine.steal_cost,
                    thief: p,
                    victim: ProcId(victim),
                    par_node: entry.par_node,
                    child: entry.child,
                });
            }
            if self.sim.track_potential {
                self.sample_potential();
            }
            self.machine.steal_cost
        } else if self.queued_entries == 0 {
            self.park(p);
            0
        } else {
            self.failed_steals += 1;
            self.steal_time += self.machine.failed_steal_cost;
            self.machine.failed_steal_cost
        }
    }

    fn advance_task(&mut self, p: ProcId, tid: TaskId) -> u64 {
        if let Some(node) = self.tasks[tid.index()].resume_join.take() {
            return self.exec_join_and_pop(p, tid, node);
        }
        // Work units are borrowed from the dag for `'a`, not from `self`.
        let dag = self.dag;
        loop {
            let entering = self.tasks[tid.index()].entering.take();
            if let Some(node) = entering {
                match &dag.node(node).structure {
                    SpStructure::Seq { children, seg_words } => {
                        let (first, seg_words) = (children[0], *seg_words);
                        if seg_words > 0 {
                            self.push_segment(tid, seg_words);
                        }
                        self.tasks[tid.index()].frames.push(Frame::Seq { node, next: 0 });
                        self.tasks[tid.index()].entering = Some(first);
                        continue;
                    }
                    SpStructure::Leaf { work, seg_words } => {
                        self.push_segment(tid, *seg_words);
                        let cost = self.exec_unit(p, tid, work);
                        self.pop_segment(tid);
                        return cost;
                    }
                    SpStructure::Par { fork, left, right, seg_words, .. } => {
                        self.push_segment(tid, *seg_words);
                        let cost = self.exec_unit(p, tid, fork);
                        let chain_len = self.tasks[tid.index()].seg_chain.len() as u32;
                        self.deques[p.index()].push_bottom(DequeEntry {
                            owner_task: tid.0,
                            par_node: node,
                            child: *right,
                            chain_len,
                        });
                        self.queued_entries += 1;
                        self.pushed_entry_flag = true;
                        self.tasks[tid.index()].frames.push(Frame::Par { node });
                        self.tasks[tid.index()].entering = Some(*left);
                        return cost;
                    }
                }
            }
            let frame = self.tasks[tid.index()].frames.pop();
            match frame {
                None => return self.complete_task(p, tid),
                Some(Frame::Seq { node, next }) => {
                    let (children, seg_words) = match &dag.node(node).structure {
                        SpStructure::Seq { children, seg_words } => (children, *seg_words),
                        _ => unreachable!("Seq frame on a non-Seq node"),
                    };
                    let next = next + 1;
                    if (next as usize) < children.len() {
                        let child = children[next as usize];
                        self.tasks[tid.index()].frames.push(Frame::Seq { node, next });
                        self.tasks[tid.index()].entering = Some(child);
                    } else if seg_words > 0 {
                        // The sequence (and the procedure locals it modelled) is finished.
                        self.pop_segment(tid);
                    }
                    continue;
                }
                Some(Frame::Par { node }) => {
                    let right_here = self.deques[p.index()]
                        .peek_bottom()
                        .map(|e| e.par_node == node)
                        .unwrap_or(false);
                    if right_here {
                        let entry = self.deques[p.index()].pop_bottom().expect("peeked entry");
                        self.queued_entries -= 1;
                        debug_assert_eq!(entry.owner_task, tid.0);
                        self.tasks[tid.index()].frames.push(Frame::ParRight { node });
                        self.tasks[tid.index()].entering = Some(entry.child);
                        continue;
                    }
                    let arrived = {
                        let j = &mut self.joins[node.index()];
                        j.arrived += 1;
                        j.arrived
                    };
                    if arrived >= 2 {
                        return self.exec_join_and_pop(p, tid, node);
                    }
                    // Suspend: the thief that finishes the stolen right child will resume us.
                    self.tasks[tid.index()].resume_join = Some(node);
                    self.procs[p.index()].current = None;
                    return 0;
                }
                Some(Frame::ParRight { node }) => {
                    return self.exec_join_and_pop(p, tid, node);
                }
            }
        }
    }

    fn complete_task(&mut self, p: ProcId, tid: TaskId) -> u64 {
        self.procs[p.index()].current = None;
        match self.tasks[tid.index()].parent {
            None => {
                self.finished = true;
                0
            }
            Some((parent, par_node)) => {
                let arrived = {
                    let j = &mut self.joins[par_node.index()];
                    j.arrived += 1;
                    j.arrived
                };
                if arrived >= 2 {
                    // We are the last to reach the join: continue the parent task here.
                    let previous = self.tasks[parent.index()].last_proc;
                    if previous != Some(p) {
                        self.usurpations += 1;
                    }
                    debug_assert!(
                        self.tasks[parent.index()].resume_join.is_some(),
                        "a parent reached by the second child must be suspended at its join"
                    );
                    self.set_current(p, parent);
                }
                0
            }
        }
    }

    fn exec_join_and_pop(&mut self, p: ProcId, tid: TaskId, node: NodeId) -> u64 {
        let dag = self.dag;
        let SpStructure::Par { join, .. } = &dag.node(node).structure else {
            unreachable!("join of a non-Par node")
        };
        let cost = self.exec_unit(p, tid, join);
        self.pop_segment(tid);
        cost
    }

    // ----- helpers -------------------------------------------------------------------------

    fn spawn_task(&mut self, entry: DequeEntry, origin: TaskOrigin) -> TaskId {
        let chain: Vec<SegEntry> = self.tasks[entry.owner_task as usize].seg_chain
            [..entry.chain_len as usize]
            .iter()
            .map(|e| SegEntry { own: false, ..*e })
            .collect();
        let stack = self.stack_alloc.new_task_stack();
        let tid = TaskId(self.tasks.len() as u32);
        self.tasks.push(TaskInstance::new(
            tid,
            origin,
            entry.child,
            chain,
            stack,
            Some((TaskId(entry.owner_task), entry.par_node)),
        ));
        tid
    }

    fn set_current(&mut self, p: ProcId, tid: TaskId) {
        self.tasks[tid.index()].last_proc = Some(p);
        self.procs[p.index()].current = Some(tid);
    }

    fn push_segment(&mut self, tid: TaskId, seg_words: u32) {
        let words = if self.sim.pad_segments && seg_words > 0 {
            (seg_words as u64).div_ceil(self.machine.block_words) * self.machine.block_words
        } else {
            seg_words as u64
        };
        let task = &mut self.tasks[tid.index()];
        let base = task.stack.push_segment(words);
        task.seg_chain.push(SegEntry { base, words, own: true });
    }

    fn pop_segment(&mut self, tid: TaskId) {
        let task = &mut self.tasks[tid.index()];
        let seg = task.seg_chain.pop().expect("segment chain underflow");
        debug_assert!(seg.own, "a task may only pop segments it pushed itself");
        task.stack.pop_segment(seg.words);
    }

    fn exec_unit(&mut self, p: ProcId, tid: TaskId, unit: &WorkUnit) -> u64 {
        let mut cost = unit.base_cost();
        self.work_executed += unit.base_cost();
        self.nodes_executed += 1;
        self.tasks[tid.index()].nodes_executed += 1;
        for a in &unit.global {
            let out = self.memory.access(p, *a);
            if !out.is_hit() {
                cost += self.machine.miss_cost;
            }
        }
        for la in &unit.locals {
            let (base, words) = {
                let chain = &self.tasks[tid.index()].seg_chain;
                let seg = chain[chain.len() - 1 - la.hops as usize];
                (seg.base, seg.words)
            };
            debug_assert!((la.offset as u64) < words, "local access outside its segment");
            let addr = Addr(base + la.offset as u64);
            let out = self.memory.access(p, Access { addr, write: la.write });
            if !out.is_hit() {
                cost += self.machine.miss_cost;
            }
        }
        self.busy_time += cost;
        cost
    }

    fn park(&mut self, p: ProcId) {
        let ps = &mut self.procs[p.index()];
        ps.parked = true;
        ps.park_start = ps.time;
    }

    fn unpark(&mut self, q: usize, now: u64) {
        let fail_cost = self.machine.failed_steal_cost.max(1);
        let ps = &mut self.procs[q];
        let duration = now.saturating_sub(ps.park_start);
        let attempts = duration / fail_cost;
        ps.parked = false;
        ps.time = now;
        self.failed_steals += attempts;
        self.steal_time += attempts * fail_cost;
    }

    fn sample_potential(&mut self) {
        let heights = match &self.heights {
            Some(h) => h,
            None => return,
        };
        let mut exps = Vec::new();
        let mut queued = 0u32;
        for d in &self.deques {
            for e in d.iter() {
                exps.push(heights.log_potential_queued(e.child));
                queued += 1;
            }
        }
        let mut executing = 0u32;
        for ps in &self.procs {
            if let Some(tid) = ps.current {
                let t = &self.tasks[tid.index()];
                // A task descending into a node contributes 2^{h(entry)}; a task that is on
                // its way back up (at or after a join) contributes 2^{h(join)}.
                let contribution = if let Some(n) = t.entering {
                    Some(heights.log_potential_executing(n))
                } else if let Some(n) = t.resume_join {
                    Some(heights.log_potential_at_join(n))
                } else {
                    t.frames.last().map(|f| match f {
                        Frame::Seq { node, .. } => heights.log_potential_executing(*node),
                        Frame::Par { node } | Frame::ParRight { node } => {
                            heights.log_potential_at_join(*node)
                        }
                    })
                };
                if let Some(c) = contribution {
                    exps.push(c);
                    executing += 1;
                }
            }
        }
        let time = self.procs.iter().map(|p| p.time).max().unwrap_or(0);
        self.potential.record(PotentialSample {
            time,
            log2_phi: log2_sum_exp2(&exps),
            queued,
            executing,
            steals_so_far: self.successful_steals,
        });
    }

    fn build_report(self) -> RunReport {
        let block_words = self.machine.block_words;
        let mut stack_transfers = 0u64;
        let mut global_transfers = 0u64;
        let mut max_stack = 0u64;
        let mut max_global = 0u64;
        for (block, transfers) in self.memory.block_transfers() {
            match block.region(block_words) {
                Region::Stack => {
                    stack_transfers += transfers;
                    max_stack = max_stack.max(transfers);
                }
                Region::Global => {
                    global_transfers += transfers;
                    max_global = max_global.max(transfers);
                }
            }
        }
        let peak_stack_words: u64 = self.tasks.iter().map(|t| t.stack.peak_words()).sum();
        RunReport {
            machine: Some(self.machine.clone()),
            makespan: self.makespan,
            successful_steals: self.successful_steals,
            failed_steals: self.failed_steals,
            steal_time: self.steal_time,
            usurpations: self.usurpations,
            local_pops: self.local_pops,
            work_executed: self.work_executed,
            nodes_executed: self.nodes_executed,
            busy_time: self.busy_time,
            mem: self.memory.stats().clone(),
            stack_block_transfers: stack_transfers,
            global_block_transfers: global_transfers,
            max_stack_block_transfers: max_stack,
            max_global_block_transfers: max_global,
            tasks_created: self.tasks.len() as u64,
            peak_stack_words,
            steal_events: self.steal_events,
            potential_trace: self.potential.into_samples(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rws_dag::builders::balanced_par;
    use rws_dag::{SequentialTracer, SpDagBuilder};

    fn machine(p: usize) -> MachineConfig {
        MachineConfig::small().with_procs(p)
    }

    /// A balanced tree of `leaves` leaves, each doing `leaf_ops` operations and writing one
    /// distinct word of a global output array.
    fn tree_dag(leaves: usize, leaf_ops: u64) -> SpDag {
        let mut b = SpDagBuilder::new();
        let leaf_ids: Vec<NodeId> = (0..leaves)
            .map(|i| b.leaf(WorkUnit::compute(leaf_ops).write(Addr(i as u64))))
            .collect();
        let root = balanced_par(&mut b, &leaf_ids, 2);
        b.build(root).unwrap()
    }

    #[test]
    fn single_processor_matches_sequential_costs() {
        let dag = tree_dag(16, 8);
        let report = RwsScheduler::with_machine(machine(1)).run_dag(&dag);
        let seq = SequentialTracer::new(&machine(1)).run(&dag);
        assert_eq!(report.successful_steals, 0);
        assert_eq!(report.work_executed, dag.work());
        assert_eq!(report.cache_misses(), seq.cache_misses);
        assert_eq!(report.block_misses(), 0);
        assert_eq!(report.block_delay(), 0);
        assert_eq!(report.usurpations, 0);
        assert_eq!(report.tasks_created, 1);
        assert_eq!(report.makespan, seq.time);
    }

    #[test]
    fn work_is_conserved_across_processor_counts() {
        let dag = tree_dag(32, 4);
        for p in [1, 2, 3, 4, 7] {
            let report = RwsScheduler::with_machine(machine(p)).run_dag(&dag);
            assert_eq!(report.work_executed, dag.work(), "work must not be lost or duplicated");
            assert_eq!(report.nodes_executed, dag.leaf_count() + 2 * dag.fork_count());
        }
    }

    #[test]
    fn parallel_run_steals_and_speeds_up() {
        let dag = tree_dag(64, 64);
        let seq = SequentialTracer::new(&machine(4)).run(&dag);
        let report = RwsScheduler::with_machine(machine(4)).run_dag(&dag);
        assert!(report.successful_steals > 0, "a 4-processor run of a wide tree must steal");
        assert!(
            report.makespan < seq.time,
            "parallel makespan {} should beat sequential {}",
            report.makespan,
            seq.time
        );
        assert_eq!(report.tasks_created, 1 + report.successful_steals + report.local_pops);
    }

    #[test]
    fn two_heavy_leaves_share_a_block_and_cause_block_misses() {
        // The left side writes word 0 twice (with a long pause in between); the stolen right
        // leaf writes word 1 of the same block in the meantime. The second left write then
        // finds its copy invalidated by a write to a *different* word: false sharing.
        let mut b = SpDagBuilder::new();
        let l1 = b.leaf(WorkUnit::compute(400).write(Addr(0)));
        let l2 = b.leaf(WorkUnit::compute(1).write(Addr(0)));
        let left = b.seq(vec![l1, l2]);
        let r = b.leaf(WorkUnit::compute(1).write(Addr(1)));
        let root = b.par(WorkUnit::compute(1), WorkUnit::compute(1), left, r);
        let dag = b.build(root).unwrap();
        let report = RwsScheduler::with_machine(machine(2)).run_dag(&dag);
        assert_eq!(report.successful_steals, 1);
        assert!(report.block_misses() > 0, "interleaved writes to one block must block-miss");
        assert!(report.false_sharing_misses() > 0, "the writes are to different words");
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let dag = tree_dag(64, 16);
        let sched = RwsScheduler::new(machine(4), SimConfig::with_seed(42));
        let a = sched.run_dag(&dag);
        let b = sched.run_dag(&dag);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.successful_steals, b.successful_steals);
        assert_eq!(a.failed_steals, b.failed_steals);
        assert_eq!(a.mem, b.mem);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let dag = tree_dag(64, 16);
        let a = RwsScheduler::new(machine(4), SimConfig::with_seed(1)).run_dag(&dag);
        let b = RwsScheduler::new(machine(4), SimConfig::with_seed(2)).run_dag(&dag);
        // Not guaranteed in principle, but overwhelmingly likely; this guards against the RNG
        // being ignored.
        assert!(
            a.makespan != b.makespan
                || a.successful_steals != b.successful_steals
                || a.failed_steals != b.failed_steals
        );
    }

    #[test]
    fn steal_events_are_not_recorded_by_default() {
        // The event log is opt-in (`SimConfig::with_steal_events`): a long simulation with
        // the default config must not grow an unbounded per-steal log nobody reads.
        let dag = tree_dag(64, 32);
        let report = RwsScheduler::with_machine(machine(4)).run_dag(&dag);
        assert!(report.successful_steals > 0, "the run must steal for this test to mean anything");
        assert!(report.steal_events.is_empty(), "no steal events without the opt-in flag");
    }

    #[test]
    fn steal_events_are_recorded_when_requested() {
        let dag = tree_dag(32, 32);
        let report =
            RwsScheduler::new(machine(4), SimConfig::default().with_steal_events()).run_dag(&dag);
        assert_eq!(report.steal_events.len() as u64, report.successful_steals);
        for w in report.steal_events.windows(2) {
            assert!(w[0].time <= w[1].time, "steal events are recorded in time order");
        }
    }

    #[test]
    fn potential_is_tracked_and_mostly_non_increasing() {
        let dag = tree_dag(32, 32);
        let report = RwsScheduler::new(machine(4), SimConfig::default().with_potential_tracking())
            .run_dag(&dag);
        assert!(!report.potential_trace.is_empty());
        let mut tracker = PotentialTracker::new();
        for s in &report.potential_trace {
            tracker.record(*s);
        }
        assert!(
            tracker.non_increasing_fraction() > 0.8,
            "potential should essentially never increase"
        );
    }

    #[test]
    fn padded_segments_still_produce_correct_runs() {
        let dag = tree_dag(32, 8);
        let plain = RwsScheduler::new(machine(4), SimConfig::with_seed(3)).run_dag(&dag);
        let padded = RwsScheduler::new(machine(4), SimConfig::with_seed(3).padded()).run_dag(&dag);
        assert_eq!(plain.work_executed, padded.work_executed);
        assert_eq!(plain.nodes_executed, padded.nodes_executed);
    }

    #[test]
    fn stolen_tasks_access_parent_stack_segments() {
        // The right leaf writes into the fork's segment; when it is stolen, that write goes
        // to the victim's stack block — a cross-stack access that must be visible as a
        // transfer of a stack-region block.
        let mut b = SpDagBuilder::new();
        let l = b.leaf(WorkUnit::compute(200).local_write(1, 0));
        let r = b.leaf(WorkUnit::compute(1).local_write(1, 1));
        let root = b.par_with_segment(WorkUnit::compute(1), WorkUnit::compute(1), l, r, 2);
        let dag = b.build(root).unwrap();
        let report = RwsScheduler::with_machine(machine(2)).run_dag(&dag);
        assert_eq!(report.successful_steals, 1);
        assert!(report.stack_block_transfers > 0, "the fork segment's block must move");
    }

    #[test]
    fn usurpation_happens_when_thief_finishes_last() {
        // Left leaf is tiny, right leaf is huge: the owner finishes the left child and
        // suspends; the thief finishes the right child last and usurps the parent task.
        let mut b = SpDagBuilder::new();
        let l = b.leaf(WorkUnit::compute(1));
        let r = b.leaf(WorkUnit::compute(10_000));
        let root = b.par(WorkUnit::compute(1), WorkUnit::compute(1), l, r);
        let dag = b.build(root).unwrap();
        let report = RwsScheduler::with_machine(machine(2)).run_dag(&dag);
        assert_eq!(report.successful_steals, 1);
        assert_eq!(report.usurpations, 1);
    }

    #[test]
    fn makespan_is_at_least_the_critical_path() {
        let dag = tree_dag(64, 16);
        for p in [2, 4, 8] {
            let report = RwsScheduler::with_machine(machine(p)).run_dag(&dag);
            assert!(report.makespan >= dag.span_ops());
            assert!(report.makespan >= dag.work() / p as u64);
        }
    }

    #[test]
    fn seq_composition_executes_in_order_and_completely() {
        // seq(tree, tree): both halves execute; work adds up.
        let mut b = SpDagBuilder::new();
        let leaves1: Vec<NodeId> =
            (0..8).map(|i| b.leaf(WorkUnit::compute(5).write(Addr(i)))).collect();
        let t1 = balanced_par(&mut b, &leaves1, 1);
        let leaves2: Vec<NodeId> =
            (0..8).map(|i| b.leaf(WorkUnit::compute(5).write(Addr(100 + i)))).collect();
        let t2 = balanced_par(&mut b, &leaves2, 1);
        let root = b.seq(vec![t1, t2]);
        let dag = b.build(root).unwrap();
        let report = RwsScheduler::with_machine(machine(3)).run_dag(&dag);
        assert_eq!(report.work_executed, dag.work());
    }

    #[test]
    fn failed_steals_are_counted() {
        // A dag with a long sequential prefix: other processors have nothing to steal for a
        // while, so they must record failed attempts (possibly via parking accounting).
        let mut b = SpDagBuilder::new();
        let prefix = b.leaf(WorkUnit::compute(10_000));
        let leaves: Vec<NodeId> = (0..4).map(|_| b.leaf(WorkUnit::compute(100))).collect();
        let tree = balanced_par(&mut b, &leaves, 1);
        let root = b.seq(vec![prefix, tree]);
        let dag = b.build(root).unwrap();
        let report = RwsScheduler::with_machine(machine(4)).run_dag(&dag);
        assert!(report.failed_steals > 0);
        assert!(report.steal_time > 0);
    }
}
