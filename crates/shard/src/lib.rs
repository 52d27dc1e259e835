//! # rws-shard
//!
//! A multi-process sharded backend for the executor seam of `rws-exec`: a coordinator
//! ([`ShardedExecutor`]) partitions a workload's index space into contiguous parts and
//! farms them out to N spawned `shard-worker` subprocesses, each running its own
//! `rws-runtime` work-stealing pool. Coordinator and workers speak a hand-rolled
//! length-prefixed pipe protocol — no serialization crates, no sockets — documented
//! byte-for-byte in `docs/PROTOCOL.md` and pinned by `tests/protocol_doc.rs`.
//!
//! The layering, bottom-up:
//!
//! * [`frame`] — `[len: u32 LE][payload]` framing with structured truncation/oversize
//!   errors and a clean-EOF signal (how shard death is detected);
//! * [`proto`] — typed messages (`Hello`/`HelloAck`/`Job`/`JobResult`/`Heartbeat`/
//!   `Shutdown`/`Bye`/`Error`) over frame payloads, with a versioned, magic-prefixed
//!   handshake that both sides refuse on mismatch;
//! * [`worker`] — the subprocess side: handshake, job loop on a native pool, heartbeat
//!   thread; it has no fault hook (the chaos tests' crashes and wedges are signals the
//!   coordinator sends its process);
//! * [`coordinator`] — [`ShardedExecutor`]: windowed round-robin dispatch, shard-death detection
//!   (EOF, error frames, heartbeat timeout), redistribution of unacknowledged jobs, and
//!   aggregation of per-shard statistics into a normalized [`rws_exec::ExecReport`].
//!
//! Workloads cross the process boundary **by spec, not by data**: a job carries
//! `(kind, n, base, part, parts)` and the worker rebuilds the deterministic demo
//! instance through [`rws_exec::workloads::by_name`], so both sides construct an
//! identical workload from a few integers and a name. Only workloads that declare a
//! [`rws_exec::ShardSpec`] can run on this backend; the coordinator reassembles their
//! part outputs in order with [`rws_exec::AlgoOutput::concat`], making the final output
//! identical to an in-process native run (asserted by the executor-parity suite).
//!
//! ```no_run
//! use rws_exec::{Executor, workloads::MatMulWorkload};
//! use rws_shard::ShardedExecutor;
//! use std::sync::Arc;
//!
//! let exec = ShardedExecutor::new(2); // two worker subprocesses
//! let outcome = exec.execute(Arc::new(MatMulWorkload::demo(16, 4)));
//! assert!(outcome.report.shard.is_some());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod coordinator;
pub mod frame;
pub mod proto;
pub mod worker;

pub use coordinator::{ShardedExecutor, DEFAULT_HEARTBEAT_TIMEOUT, DISPATCH_WINDOW};
pub use proto::{JobSpec, Message, MsgType, PartStats, MAGIC, VERSION};
