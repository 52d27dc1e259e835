//! The coordinator: [`ShardedExecutor`], the multi-process backend behind
//! [`rws_exec::Executor`].
//!
//! `execute()` splits the workload's index space into `shards × 4` contiguous parts (see
//! [`rws_exec::part_range`]), spawns one `shard-worker` subprocess per shard, and streams
//! [`crate::proto::Message::Job`] frames to them round-robin, at most [`DISPATCH_WINDOW`]
//! unacknowledged per shard. Results are reassembled in part order with
//! [`rws_exec::AlgoOutput::concat`], so the output is byte-identical to an in-process
//! native run of the same kernels.
//!
//! # Failure model
//!
//! A shard is declared dead on any of: EOF on its stdout pipe (process exit), a failed
//! write to its stdin (broken pipe), an [`crate::proto::Message::Error`] frame, or a
//! heartbeat gap longer than [`DEFAULT_HEARTBEAT_TIMEOUT`] (a wedged-but-alive process, which
//! the coordinator then kills). Death triggers **redistribution**: every job dispatched
//! to that shard and not yet acknowledged goes back to the front of the pending queue
//! and is re-dispatched to the survivors. Because a slow-but-not-dead shard may still
//! deliver a result for a job that was redistributed, the coordinator accepts only the
//! *first* result per job id and drops later duplicates — jobs are at-least-once,
//! acceptance is at-most-once, and the assembled output is exactly one result per part.
//! If every shard dies before the output is complete, `execute` panics with a diagnostic
//! rather than returning a partial result.

use crate::frame::{read_frame, write_frame, FrameError};
use crate::proto::{JobSpec, Message, PartStats, VERSION};
use rws_exec::{
    AlgoOutput, Backend, ExecOutcome, ExecReport, Executor, ShardDetail, SharedWorkload,
};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Max unacknowledged jobs per shard. Two keeps every shard's pipe primed (one computing,
/// one queued) without committing work that a death would force to be redistributed.
pub const DISPATCH_WINDOW: usize = 2;

/// Parts each shard nominally owns: a workload is split into `shards × JOBS_PER_SHARD`.
const JOBS_PER_SHARD: usize = 4;

/// Heartbeat-silence span after which a shard is declared dead.
pub const DEFAULT_HEARTBEAT_TIMEOUT: Duration = Duration::from_millis(1000);

/// Per-shard fault script. The coordinator does the fault to the worker's process itself;
/// the worker has no fault hook.
#[derive(Clone, Copy, Debug, Default)]
struct ShardFault {
    exit_after: Option<u64>,
    stall_after: Option<u64>,
}

impl ShardFault {
    /// On the shard's `results`-th result, do the scripted fault to its process: SIGKILL
    /// for `exit_after`, SIGSTOP (`kill -STOP`) for `stall_after`. Says whether it did.
    fn strike(&self, child: &mut Child, results: u64) -> bool {
        if self.exit_after == Some(results) {
            let _ = child.kill();
            true
        } else if self.stall_after == Some(results) {
            let status = Command::new("kill").arg("-STOP").arg(child.id().to_string()).status();
            assert!(
                status.as_ref().is_ok_and(|s| s.success()),
                "kill -STOP {} failed: {status:?}",
                child.id()
            );
            true
        } else {
            false
        }
    }
}

/// The multi-process sharded executor. Pure configuration — all per-run state lives
/// inside `execute()`, so one instance can run many workloads.
#[derive(Clone, Debug)]
pub struct ShardedExecutor {
    shards: usize,
    threads_per_shard: usize,
    worker_path: Option<PathBuf>,
    faults: Vec<ShardFault>,
}

impl ShardedExecutor {
    /// An executor over `shards` worker subprocesses with one pool thread each.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a sharded executor needs at least one shard");
        ShardedExecutor {
            shards,
            threads_per_shard: 1,
            worker_path: None,
            faults: vec![ShardFault::default(); shards],
        }
    }

    /// Set the native-pool thread count inside each worker.
    pub fn threads_per_shard(mut self, threads: usize) -> Self {
        self.threads_per_shard = threads.max(1);
        self
    }

    /// Override the worker binary path (otherwise discovered next to the current
    /// executable, or via the `RWS_SHARD_WORKER` environment variable).
    pub fn worker_path(mut self, path: PathBuf) -> Self {
        self.worker_path = Some(path);
        self
    }

    /// Chaos knob: kill shard `shard`'s process when its `jobs`-th result arrives. That
    /// result is dropped, as if the process had died sending it, so the shard always dies
    /// holding an unacknowledged job; the coordinator must see the pipe close.
    pub fn fault_exit_after(mut self, shard: usize, jobs: u64) -> Self {
        self.faults[shard].exit_after = Some(jobs);
        self
    }

    /// Chaos knob: stop shard `shard`'s process (SIGSTOP) when its `jobs`-th result
    /// arrives, dropping that result. The wedged process neither answers nor heartbeats
    /// but stays alive: only the heartbeat timeout can catch it.
    pub fn fault_stall_after(mut self, shard: usize, jobs: u64) -> Self {
        self.faults[shard].stall_after = Some(jobs);
        self
    }

    fn resolve_worker(&self) -> PathBuf {
        if let Some(path) = &self.worker_path {
            return path.clone();
        }
        if let Ok(path) = std::env::var("RWS_SHARD_WORKER") {
            return PathBuf::from(path);
        }
        let mut path = std::env::current_exe().expect("cannot locate current executable");
        path.pop();
        // Test binaries live in target/<profile>/deps/; the worker bin sits one up.
        if path.file_name().and_then(|n| n.to_str()) == Some("deps") {
            path.pop();
        }
        path.push("shard-worker");
        assert!(
            path.exists(),
            "shard worker binary not found at {}: build it with `cargo build -p rws-shard` \
             or point RWS_SHARD_WORKER at it",
            path.display()
        );
        path
    }
}

// ------------------------------------------------------------------------------------------
// Per-run state
// ------------------------------------------------------------------------------------------

enum Event {
    Msg(Message),
    Eof,
}

struct ShardState {
    child: Child,
    stdin: Option<ChildStdin>,
    alive: bool,
    last_seen: Instant,
    in_flight: usize,
    accepted: u64,
    /// Results received, accepted or not: what a [`ShardFault`] counts.
    results: u64,
    _reader: thread::JoinHandle<()>,
}

struct Run {
    shards: Vec<ShardState>,
    pending: VecDeque<JobSpec>,
    in_flight: HashMap<u64, (usize, JobSpec)>,
    outputs: Vec<Option<AlgoOutput>>,
    done: usize,
    rr_cursor: usize,
    jobs_dispatched: u64,
    jobs_accepted: u64,
    redistributed: u64,
    shard_deaths: u64,
    heartbeats: u64,
    stats: PartStats,
}

impl Run {
    fn live_count(&self) -> usize {
        self.shards.iter().filter(|s| s.alive).count()
    }

    fn send_job(&mut self, shard: usize, job: &JobSpec) -> bool {
        let state = &mut self.shards[shard];
        let Some(stdin) = state.stdin.as_mut() else { return false };
        write_frame(stdin, &Message::Job(job.clone()).encode()).is_ok()
    }

    /// Declare `shard` dead: kill the process, and requeue its unacknowledged jobs at
    /// the front of the pending queue.
    fn mark_dead(&mut self, shard: usize, why: &str) {
        if !self.shards[shard].alive {
            return;
        }
        self.shards[shard].alive = false;
        self.shards[shard].stdin = None; // close its pipe
        let _ = self.shards[shard].child.kill();
        self.shard_deaths += 1;
        let orphans: Vec<u64> = self
            .in_flight
            .iter()
            .filter(|(_, (owner, _))| *owner == shard)
            .map(|(id, _)| *id)
            .collect();
        eprintln!(
            "sharded: shard {shard} died ({why}); redistributing {} unacknowledged job(s)",
            orphans.len()
        );
        for id in orphans {
            let (_, job) = self.in_flight.remove(&id).expect("orphan id just listed");
            self.pending.push_front(job);
            self.redistributed += 1;
        }
        self.shards[shard].in_flight = 0;
    }

    /// The next live shard after the last one picked whose window has room; `None` when
    /// every live shard's window is full.
    fn pick(&mut self) -> Option<usize> {
        let n = self.shards.len();
        let i = (0..n).map(|step| (self.rr_cursor + step) % n).find(|&i| {
            let s = &self.shards[i];
            s.alive && s.stdin.is_some() && s.in_flight < DISPATCH_WINDOW
        })?;
        self.rr_cursor = i + 1;
        Some(i)
    }

    /// Dispatch pending jobs until the queue drains or every live window is full.
    fn fill(&mut self) {
        while !self.pending.is_empty() {
            let Some(target) = self.pick() else { break };
            let job = self.pending.pop_front().expect("pending non-empty");
            if self.send_job(target, &job) {
                self.shards[target].in_flight += 1;
                self.jobs_dispatched += 1;
                self.in_flight.insert(job.job_id, (target, job));
            } else {
                self.pending.push_front(job);
                self.mark_dead(target, "stdin write failed");
            }
        }
    }
}

impl Executor for ShardedExecutor {
    fn name(&self) -> String {
        format!("sharded(s={},t={})", self.shards, self.threads_per_shard)
    }

    fn backend(&self) -> Backend {
        Backend::Sharded
    }

    fn procs(&self) -> usize {
        self.shards * self.threads_per_shard
    }

    fn execute(&self, workload: SharedWorkload) -> ExecOutcome {
        let spec = workload.shard_spec().unwrap_or_else(|| {
            panic!(
                "workload {} is not shardable: shard_spec() returned None \
                 (only spec-rebuildable demo workloads can cross the process boundary)",
                workload.name()
            )
        });
        let worker = self.resolve_worker();
        let start = Instant::now();
        let parts = self.shards * JOBS_PER_SHARD;

        // Part `i` is job id `i + 1` (0 is reserved for pre-job errors), so a result's
        // slot in the output table follows from its id alone — no lookup needed to
        // detect duplicates after redistribution.
        let pending: VecDeque<JobSpec> = (0..parts)
            .map(|i| JobSpec {
                job_id: i as u64 + 1,
                part: i as u32,
                parts: parts as u32,
                n: spec.n as u64,
                base: spec.base as u64,
                kind: spec.kind.clone(),
            })
            .collect();

        // -- Spawn the shards --------------------------------------------------------
        let (tx, rx) = mpsc::channel::<(usize, Event)>();
        let mut shards = Vec::with_capacity(self.shards);
        for shard in 0..self.shards {
            let mut cmd = Command::new(&worker);
            cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).stderr(Stdio::inherit());
            let mut child = cmd
                .spawn()
                .unwrap_or_else(|e| panic!("cannot spawn shard worker {}: {e}", worker.display()));
            let mut stdin = child.stdin.take().expect("piped stdin");
            let mut stdout = child.stdout.take().expect("piped stdout");
            let tx = tx.clone();
            let reader = thread::spawn(move || loop {
                match read_frame(&mut stdout) {
                    Ok(payload) => match Message::decode(&payload) {
                        Ok(msg) => {
                            if tx.send((shard, Event::Msg(msg))).is_err() {
                                break;
                            }
                        }
                        Err(e) => {
                            eprintln!("sharded: shard {shard} spoke garbage ({e})");
                            let _ = tx.send((shard, Event::Eof));
                            break;
                        }
                    },
                    Err(e) => {
                        if !matches!(e, FrameError::CleanEof) {
                            eprintln!("sharded: shard {shard} pipe failed ({e})");
                        }
                        let _ = tx.send((shard, Event::Eof));
                        break;
                    }
                }
            });
            let hello = Message::Hello {
                version: VERSION,
                shard: shard as u16,
                threads: self.threads_per_shard as u32,
            };
            let alive = write_frame(&mut stdin, &hello.encode()).is_ok();
            shards.push(ShardState {
                child,
                stdin: alive.then_some(stdin),
                alive,
                last_seen: Instant::now(),
                in_flight: 0,
                accepted: 0,
                results: 0,
                _reader: reader,
            });
        }
        drop(tx);

        let mut run = Run {
            shards,
            pending,
            in_flight: HashMap::new(),
            outputs: vec![None; parts],
            done: 0,
            rr_cursor: 0,
            jobs_dispatched: 0,
            jobs_accepted: 0,
            redistributed: 0,
            shard_deaths: 0,
            heartbeats: 0,
            stats: PartStats::default(),
        };

        run.fill();

        // -- Event loop --------------------------------------------------------------
        let tick = Duration::from_millis(20).min(DEFAULT_HEARTBEAT_TIMEOUT / 4);
        while run.done < parts {
            match rx.recv_timeout(tick) {
                Ok((shard, Event::Msg(msg))) => {
                    run.shards[shard].last_seen = Instant::now();
                    match msg {
                        Message::HelloAck { .. } => {}
                        Message::Heartbeat { .. } => run.heartbeats += 1,
                        Message::JobResult { job_id, output, stats } => {
                            let idx = job_id.wrapping_sub(1) as usize;
                            let state = &mut run.shards[shard];
                            state.results += 1;
                            if self.faults[shard].strike(&mut state.child, state.results) {
                                // The fault landed on this result. Dropping it leaves its job
                                // unacknowledged, so the shard dies holding one whatever its
                                // timing; the death is detected the way a real one would be.
                            } else if job_id == 0 || idx >= parts || run.outputs[idx].is_some() {
                                // Duplicate (job was redistributed, both copies ran) or
                                // bogus id: first ack already won, drop this one.
                            } else {
                                if let Some((owner, _)) = run.in_flight.remove(&job_id) {
                                    run.shards[owner].in_flight =
                                        run.shards[owner].in_flight.saturating_sub(1);
                                }
                                run.outputs[idx] = Some(output);
                                run.done += 1;
                                run.jobs_accepted += 1;
                                run.shards[shard].accepted += 1;
                                run.stats.steals += stats.steals;
                                run.stats.failed_steals += stats.failed_steals;
                                run.stats.work_items += stats.work_items;
                                run.stats.wall_ns += stats.wall_ns;
                            }
                        }
                        Message::Error { job_id, message } => {
                            eprintln!(
                                "sharded: shard {shard} reported error on job {job_id}: {message}"
                            );
                            run.mark_dead(shard, "error frame");
                        }
                        Message::Bye => {}
                        other => {
                            eprintln!(
                                "sharded: shard {shard} sent unexpected {:?}",
                                other.msg_type()
                            );
                        }
                    }
                }
                Ok((shard, Event::Eof)) => run.mark_dead(shard, "pipe closed"),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    for shard in 0..self.shards {
                        run.mark_dead(shard, "reader gone");
                    }
                }
            }
            // Heartbeat-silence sweep: catches wedged-but-alive workers.
            let now = Instant::now();
            for shard in 0..self.shards {
                if run.shards[shard].alive
                    && now.duration_since(run.shards[shard].last_seen) > DEFAULT_HEARTBEAT_TIMEOUT
                {
                    run.mark_dead(shard, "heartbeat timeout");
                }
            }
            if run.live_count() == 0 && run.done < parts {
                panic!(
                    "sharded: all {} shard(s) died with {}/{} parts complete \
                     (deaths={}, redistributed={}); see worker diagnostics above",
                    self.shards, run.done, parts, run.shard_deaths, run.redistributed
                );
            }
            run.fill();
        }

        // -- Shutdown ----------------------------------------------------------------
        for state in run.shards.iter_mut().filter(|s| s.alive) {
            if let Some(stdin) = state.stdin.as_mut() {
                let _ = write_frame(stdin, &Message::Shutdown.encode());
            }
            state.stdin = None; // EOF backs up the Shutdown frame
        }
        for state in run.shards.iter_mut() {
            let _ = state.child.wait();
        }
        drop(rx);

        let wall = start.elapsed();
        let output =
            AlgoOutput::concat(run.outputs.into_iter().map(|o| o.expect("all parts complete")))
                .expect("parts share one output variant");

        let detail = ShardDetail {
            shards: self.shards,
            threads_per_shard: self.threads_per_shard,
            parts,
            jobs_dispatched: run.jobs_dispatched,
            jobs_accepted: run.jobs_accepted,
            redistributed: run.redistributed,
            shard_deaths: run.shard_deaths,
            heartbeats: run.heartbeats,
            jobs_per_shard: run.shards.iter().map(|s| s.accepted).collect(),
        };
        let report = ExecReport {
            backend: Backend::Sharded,
            executor: self.name(),
            workload: workload.name(),
            procs: self.procs(),
            steals: run.stats.steals,
            failed_steals: run.stats.failed_steals,
            work_items: run.stats.work_items,
            cache_misses: 0,
            block_misses: 0,
            false_sharing_misses: 0,
            time_units: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
            wall,
            sim: None,
            shard: Some(detail),
        };
        ExecOutcome { report, output }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executor_identity_reflects_the_topology() {
        let exec = ShardedExecutor::new(3).threads_per_shard(2);
        assert_eq!(exec.backend(), Backend::Sharded);
        assert_eq!(exec.procs(), 6);
        assert_eq!(exec.name(), "sharded(s=3,t=2)");
    }
}
