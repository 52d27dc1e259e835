//! # rws-machine
//!
//! A simulated multicore memory system matching the machine model of
//! *Analysis of Randomized Work Stealing with False Sharing* (Cole & Ramachandran):
//!
//! * `p` processors, each with a **private cache** of `M` words,
//! * a shared memory of unbounded size,
//! * data moved between shared memory and caches in **blocks** (cache lines) of `B` words,
//! * an **invalidation-based coherence rule**: an update by processor `C'` to an entry of a
//!   block `β` resident in processor `C`'s cache invalidates `C`'s copy, so `C` must re-read
//!   `β` the next time it accesses any word of it (the paper's *block miss*, which includes
//!   false sharing).
//!
//! The crate distinguishes, and counts separately, the two kinds of caching cost the paper
//! defines in Section 2.1:
//!
//! * **cache miss** — a read of a block that is not in the cache because it was never read
//!   or because it was evicted to make room (cold / capacity misses). These are the misses
//!   that also occur in a sequential execution.
//! * **block miss** — a miss caused by the block having been invalidated (or migrated) due
//!   to another processor's write. These occur only in parallel executions; the subset where
//!   the invalidating write touched a *different word* than the one now being accessed is
//!   reported as **false sharing**.
//!
//! It also tracks the *block delay* of Definition 4.1: the number of times a block moves
//! from one cache to another.
//!
//! The word-level simulator here is deliberately simple and deterministic; the scheduling
//! and cost model live in `rws-core`.
//!
//! ## How the state is laid out
//!
//! [`MemorySystem::access`] is the simulator's innermost loop, so it hashes once and never
//! allocates except to grow a vector the first time a block is seen. `index` interns the
//! accessed [`BlockId`] into a **dense index** (its rank in first-access order) with one
//! open-addressed probe; nothing else is keyed by address. Behind that index, `coherence`
//! keeps one directory entry per block (owner, last holder, transfer count) and the sharer
//! sets as a bit vector with a stride of `ceil(p / 64)` words per block; `cache` keeps, per
//! private cache, the line state of every block it has held (never / evicted / invalidated
//! by which word / clean / dirty), and `lru` its recency list as a vector of `(prev, next)`
//! links. Memory is proportional to the blocks touched, not to the address space: under 100
//! bytes per block, plus 16 in each cache that has held it or a later-seen block.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
mod cache;
mod coherence;
pub mod config;
mod index;
mod lru;
pub mod memory;
pub mod stats;

pub use addr::{Addr, BlockId, ProcId, Region};
pub use config::MachineConfig;
pub use memory::{Access, AccessOutcome, MemorySystem, MissKind};
pub use stats::{MemStats, ProcStats};
