//! The shard worker: the process on the far side of the pipe.
//!
//! `shard-worker` (see `src/bin/shard_worker.rs`) is spawned by the coordinator with its
//! stdin/stdout as the protocol channel and stderr passed through for diagnostics. Its
//! life cycle:
//!
//! 1. **Handshake.** Read one [`Message::Hello`] from stdin; refuse wrong magic or
//!    version with a [`Message::Error`] frame and a nonzero exit (the coordinator treats
//!    that as shard death). Otherwise answer [`Message::HelloAck`] and build one
//!    `rws-runtime` native pool with the thread count the Hello carried.
//! 2. **Job loop.** A reader thread drains stdin into a queue (so queue depth is visible
//!    while a part is computing); the main thread rebuilds each job's workload from its
//!    spec via [`rws_exec::workloads::by_name`], runs the requested part on the pool, and
//!    answers with a [`Message::JobResult`] carrying the output slice and the pool's
//!    snapshot-delta statistics.
//! 3. **Heartbeats.** A third thread emits [`Message::Heartbeat`] every
//!    [`HEARTBEAT_INTERVAL`] with the current queue depth — the coordinator's liveness
//!    signal. It waits out each interval on a stop channel, so a stop ends it at once
//!    rather than at the next beat.
//! 4. **Shutdown.** On [`Message::Shutdown`] (or stdin EOF) the worker answers
//!    [`Message::Bye`] and exits 0.
//!
//! Stdout is shared by the result and heartbeat writers behind a mutex; frames are
//! assembled as single writes (see [`crate::frame`]) so they never interleave.
//!
//! The worker has no fault hook: a crash or a wedge is done to its process from outside
//! (see the coordinator's `fault_exit_after` / `fault_stall_after`).

use crate::frame::{read_frame, write_frame, FrameError};
use crate::proto::{Message, PartStats, VERSION};
use rws_exec::{NativeExecutor, SharedWorkload};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How often the worker emits a heartbeat frame.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(50);

/// Exit code when the handshake is refused (bad magic or version mismatch).
pub const EXIT_HANDSHAKE_REFUSED: i32 = 2;
/// Exit code when a job references an unknown workload kind.
pub const EXIT_BAD_JOB: i32 = 4;

fn send(out: &Mutex<io::Stdout>, msg: &Message) -> io::Result<()> {
    let mut guard = out.lock().unwrap_or_else(|e| e.into_inner());
    write_frame(&mut *guard, &msg.encode())
}

/// Run the worker protocol over this process's stdin/stdout. Returns the process exit
/// code; `shard-worker`'s `main` passes it straight to [`std::process::exit`].
pub fn run_worker() -> i32 {
    let out = Arc::new(Mutex::new(io::stdout()));

    // -- Handshake -------------------------------------------------------------------
    let hello = match read_frame(&mut io::stdin().lock()) {
        Ok(payload) => payload,
        Err(e) => {
            eprintln!("shard-worker: no handshake: {e}");
            return EXIT_HANDSHAKE_REFUSED;
        }
    };
    let (shard, threads) = match Message::decode(&hello) {
        Ok(Message::Hello { shard, threads, .. }) => (shard, threads.max(1)),
        Ok(other) => {
            let _ = send(
                &out,
                &Message::Error {
                    job_id: 0,
                    message: format!("expected Hello, got {:?}", other.msg_type()),
                },
            );
            return EXIT_HANDSHAKE_REFUSED;
        }
        Err(e) => {
            // Covers BadMagic and VersionMismatch: report why, then refuse.
            let _ = send(
                &out,
                &Message::Error { job_id: 0, message: format!("handshake refused: {e}") },
            );
            return EXIT_HANDSHAKE_REFUSED;
        }
    };
    if send(&out, &Message::HelloAck { version: VERSION, shard }).is_err() {
        return EXIT_HANDSHAKE_REFUSED;
    }

    let queue_depth = Arc::new(AtomicU32::new(0));
    let jobs_done = Arc::new(AtomicU64::new(0));

    // -- Reader thread: stdin frames -> job queue ------------------------------------
    let (tx, rx) = mpsc::channel::<Message>();
    let reader_depth = Arc::clone(&queue_depth);
    let reader = thread::spawn(move || loop {
        match read_frame(&mut io::stdin().lock()) {
            Ok(payload) => match Message::decode(&payload) {
                Ok(msg) => {
                    if matches!(msg, Message::Job(_)) {
                        reader_depth.fetch_add(1, Ordering::SeqCst);
                    }
                    let last = matches!(msg, Message::Shutdown);
                    if tx.send(msg).is_err() || last {
                        break;
                    }
                }
                Err(e) => {
                    eprintln!("shard-worker[{shard}]: undecodable frame: {e}");
                    break;
                }
            },
            Err(FrameError::CleanEof) => break,
            Err(e) => {
                eprintln!("shard-worker[{shard}]: stdin failed: {e}");
                break;
            }
        }
    });

    // -- Heartbeat thread ------------------------------------------------------------
    let hb_out = Arc::clone(&out);
    let hb_depth = Arc::clone(&queue_depth);
    let hb_done = Arc::clone(&jobs_done);
    // A message or a hang-up on `stop` ends the thread; only a timeout is a beat.
    let (stop, hb_stop) = mpsc::channel::<()>();
    let heartbeat = thread::spawn(move || {
        while let Err(RecvTimeoutError::Timeout) = hb_stop.recv_timeout(HEARTBEAT_INTERVAL) {
            let msg = Message::Heartbeat {
                queue_depth: hb_depth.load(Ordering::SeqCst),
                jobs_done: hb_done.load(Ordering::SeqCst),
            };
            if send(&hb_out, &msg).is_err() {
                break; // coordinator is gone; the job loop will notice too
            }
        }
    });

    // -- Job loop --------------------------------------------------------------------
    let executor = NativeExecutor::new(threads as usize);
    // Jobs arrive by spec, so consecutive parts of one workload would otherwise rebuild
    // (and re-randomize) the same instance per part; cache the last spec's instance.
    let mut cache: Option<((String, u64, u64), SharedWorkload)> = None;
    let exit_code = loop {
        let msg = match rx.recv() {
            Ok(msg) => msg,
            Err(_) => break 0, // stdin closed: treat like Shutdown
        };
        match msg {
            Message::Job(job) => {
                let key = (job.kind.clone(), job.n, job.base);
                let workload = match &cache {
                    Some((cached_key, wl)) if *cached_key == key => Arc::clone(wl),
                    _ => {
                        let built = rws_exec::workloads::by_name(
                            &job.kind,
                            job.n as usize,
                            job.base as usize,
                        );
                        match built {
                            Some(wl) => {
                                cache = Some((key, Arc::clone(&wl)));
                                wl
                            }
                            None => {
                                let _ = send(
                                    &out,
                                    &Message::Error {
                                        job_id: job.job_id,
                                        message: format!("unknown workload kind {:?}", job.kind),
                                    },
                                );
                                break EXIT_BAD_JOB;
                            }
                        }
                    }
                };
                let pool = executor.pool();
                let before = pool.stats().snapshot();
                let start = Instant::now();
                let part = job.part as usize;
                let parts = job.parts as usize;
                let on_pool = Arc::clone(&workload);
                let output = pool.install(move || on_pool.run_native_part(part, parts));
                let wall = start.elapsed();
                let delta = pool.stats().snapshot_delta(&before);
                let stats = PartStats {
                    steals: delta.total_steals(),
                    failed_steals: delta.total_failed_steals(),
                    work_items: delta.total_jobs(),
                    wall_ns: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
                };
                let result = Message::JobResult { job_id: job.job_id, output, stats };
                if send(&out, &result).is_err() {
                    break 0; // coordinator hung up
                }
                queue_depth.fetch_sub(1, Ordering::SeqCst);
                jobs_done.fetch_add(1, Ordering::SeqCst);
            }
            Message::Shutdown => {
                let _ = send(&out, &Message::Bye);
                break 0;
            }
            // Anything else on a live stream is a coordinator bug; note it and move on.
            other => eprintln!("shard-worker[{shard}]: unexpected {:?}", other.msg_type()),
        }
    };

    drop(stop);
    let _ = heartbeat.join();
    // The reader may still be blocked on stdin (e.g. after a bad job); dropping its
    // handle detaches it — process exit reaps the thread.
    drop(rx);
    drop(reader);
    let _ = io::stdout().flush();
    exit_code
}
