//! # rws-exec
//!
//! One interface over the execution backends of this repository: the discrete-event
//! randomized work-stealing **simulator** of `rws-core` (the paper's machine model, exact
//! counts of steals / cache misses / block misses), the **native** work-stealing thread
//! pool of `rws-runtime` (real hardware, wall-clock time and steal counters), and — via
//! the `rws-shard` crate — a **sharded** multi-process executor that partitions a
//! workload across worker subprocesses.
//!
//! The pieces:
//!
//! * [`Workload`] — an algorithm instance that can run on any backend: it supplies the
//!   series-parallel dag for the simulator, a fork-join closure for the native pool, a
//!   sequential reference that defines the correct output, and (for the partitionable
//!   kinds) a [`ShardSpec`] plus per-part kernel for the sharded backend;
//! * [`Executor`] — the backend abstraction, implemented by [`SimExecutor`] (wrapping
//!   [`rws_core::RwsScheduler`]), [`NativeExecutor`] (wrapping
//!   [`rws_runtime::ThreadPool`] and its fork-join [`rws_runtime::join`]), and
//!   `rws_shard::ShardedExecutor` (spawned worker subprocesses, one native pool each);
//! * [`ExecReport`] — the normalized result schema: steals, work items and elapsed time in
//!   one shape for every backend, with the full simulator [`rws_core::RunReport`] (or the
//!   coordinator's [`ShardDetail`]) preserved when available;
//! * [`workloads`] — ready-made [`Workload`]s for the algorithm suite of `rws-algos`,
//!   plus the [`workloads::by_name`] registry that rebuilds deterministic demo instances
//!   from a kind name (how shard workers receive jobs by spec instead of by data).
//!
//! This is the seam experiments plug into: anything written against `&dyn Executor` can
//! compare the paper's predicted bounds against simulated and measured behavior, and
//! future backends implement the same trait.
//!
//! ```
//! use rws_exec::{Executor, NativeExecutor, SimExecutor, workloads::PrefixWorkload};
//! use std::sync::Arc;
//!
//! let workload = Arc::new(PrefixWorkload::demo(4096));
//! let sim = SimExecutor::with_procs(4);
//! let native = NativeExecutor::new(4);
//! let a = sim.execute(workload.clone());
//! let b = native.execute(workload);
//! assert_eq!(a.output, b.output); // identical results through one trait
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod executor;
pub mod report;
pub mod workload;
pub mod workloads;

pub use executor::{Executor, NativeExecutor, SimExecutor};
pub use report::{Backend, ExecReport, ShardDetail};
/// The classified dag a [`Workload`] hands the simulator, re-exported so a caller that
/// builds it once (the lab's sweep) can hold it without depending on `rws-dag` itself.
pub use rws_dag::Computation;
pub use workload::{part_range, AlgoOutput, ExecOutcome, ShardSpec, SharedWorkload, Workload};
