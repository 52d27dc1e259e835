//! `sharded-cold`: the multi-process executor running matmul 128/16 then SpMV 2^15,
//! spawning its worker fleet on every `execute()` as the code does today. Frame, proto,
//! coordinator, worker and the subprocess life-cycle dominate; ROADMAP item 5 says
//! "measure first". The traced run splits an `execute()` into spawn + handshake, pipe
//! round trip, result transfer and teardown by acting as a one-worker coordinator itself,
//! through the public `frame` and `proto` functions.
//!
//! Shard workers rebuild their instance from `(kind, n, base)`, so the inputs are the
//! repository's fixed `demo` instances; the seed decides only which of the pair runs first.

use super::{open_loops, Ctx, Workload};
use crate::measure::{closed_loop, interleaved, timed, timed_cost, Closed, Cost, Ops, Reporter};
use crate::openloop::{drive_sync, OpenLoop, Schedule, WallClock};
use crate::spans::Spans;
use crate::stats;
use rws_exec::workloads::by_name;
use rws_exec::{AlgoOutput, Executor, NativeExecutor, ShardDetail, SharedWorkload};
use rws_shard::frame::{read_frame, write_frame};
use rws_shard::{JobSpec, Message, ShardedExecutor, VERSION};
use std::io::Cursor;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;

const MATMUL: (&str, usize, usize) = ("matmul", 128, 16);
const SPMV: (&str, usize, usize) = ("spmv", 1 << 15, 0);
/// The open-loop request: a cold `execute()` of SpMV over 2^10 rows on two shards.
const SMALL: (&str, usize, usize) = ("spmv", 1 << 10, 0);
/// One cold fleet takes ≈55 ms: 5 a second leave the host idle most of the time, 10 a
/// second keep it busy for more than half of every period.
const IDLE_HZ: f64 = 5.0;
const BUSY_HZ: f64 = 10.0;

struct Instance {
    kind: &'static str,
    work: SharedWorkload,
    expect: AlgoOutput,
}

impl Instance {
    fn new((kind, n, base): (&'static str, usize, usize)) -> Self {
        let work = by_name(kind, n, base).expect("a shardable workload kind");
        let expect = work.run_reference();
        Instance { kind, work, expect }
    }
}

pub struct Sharded {
    worker: PathBuf,
    /// Matmul and SpMV, in the order this seed runs them.
    pair: [Instance; 2],
    small: Instance,
}

impl Sharded {
    fn executor(&self, shards: usize) -> ShardedExecutor {
        ShardedExecutor::new(shards).threads_per_shard(1).worker_path(self.worker.clone())
    }

    /// One cold `execute()`: a wrong output, a redistributed job or a dead shard fails it.
    /// Its cost counts the workers' processor time too: `execute()` waits for every child
    /// it spawned before it returns.
    fn execute(&self, shards: usize, instance: &Instance, ops: &mut Ops) -> (ShardDetail, Cost) {
        let (outcome, cost) =
            timed_cost(|| self.executor(shards).execute(Arc::clone(&instance.work)));
        let detail = outcome.report.shard.expect("a sharded report carries its detail");
        ops.check(
            outcome.output == instance.expect
                && detail.redistributed == 0
                && detail.shard_deaths == 0,
        );
        (detail, cost)
    }

    fn iterate(&self, shards: usize, iteration: u64, ops: &mut Ops, spans: &mut Spans) -> Cost {
        self.pair
            .iter()
            .map(|instance| {
                spans.span("shard.execute", iteration, |_| self.execute(shards, instance, ops).1)
            })
            .sum()
    }
}

impl Workload for Sharded {
    const NAME: &'static str = "sharded-cold";
    /// A cold pair takes ≈116 ms: six rounds keep several pairs in every slice.
    const ROUNDS: usize = 6;

    fn setup(ctx: &Ctx) -> Self {
        let worker = ctx.worker.clone().expect("sharded-cold needs --worker <shard-worker binary>");
        assert!(worker.is_file(), "shard worker binary not found at {}", worker.display());
        let mut pair = [Instance::new(MATMUL), Instance::new(SPMV)];
        if ctx.seed % 2 == 1 {
            pair.swap(0, 1);
        }
        // No warm-up `execute()`: every iteration spawns its fleet cold anyway, and one here
        // would make set-up a 50 ms timer plus the noisiest thing this workload does.
        Sharded { worker, pair, small: Instance::new(SMALL) }
    }

    /// Cold pairs on two shards (`wide`) or on one.
    fn closed(&mut self, wide: bool, budget_s: f64, ops: &mut Ops) -> Closed {
        let shards = if wide { 2 } else { 1 };
        closed_loop(budget_s, 2, |i| self.iterate(shards, i, ops, &mut Spans::new(false)))
    }

    fn open(&mut self, busy: bool, budget_s: f64, ops: &mut Ops, spans: &mut Spans) -> OpenLoop {
        let hz = if busy { BUSY_HZ } else { IDLE_HZ };
        drive_sync(&WallClock::start(), Schedule::for_rate(hz, budget_s), |i| {
            spans.span("shard.execute", i, |_| self.execute(2, &self.small, ops));
        })
    }

    fn layers(&mut self, ctx: &Ctx, ops: &mut Ops, spans: &mut Spans, out: &mut Reporter) {
        let share = ctx.seconds / 4.0;
        let (untraced, traced) = interleaved(share, spans, |i, s| self.iterate(2, i, ops, s));
        out.value(
            "harness.span_overhead_rel",
            stats::median(&traced) / stats::median(&untraced) - 1.0,
        );

        // Per kernel: the cold sharded execute() against the same kernel in process on as
        // many threads (2 shards × 1 thread against one 2-thread pool).
        let native = NativeExecutor::new(2);
        let (mut execute_pair, mut inproc_pair, mut result_bytes) = (0.0, 0.0, 0usize);
        let (mut heartbeats, mut redistributed, mut deaths) = (Vec::new(), 0u64, 0u64);
        for instance in &self.pair {
            let kind = instance.kind;
            let mut sharded = Vec::new();
            for i in 0..20 {
                let (detail, cost) =
                    spans.span("shard.execute", i, |_| self.execute(2, instance, ops));
                sharded.push(cost.wall_ms);
                heartbeats.push(detail.heartbeats as f64);
                redistributed += detail.redistributed;
                deaths += detail.shard_deaths;
            }
            execute_pair += out.timing(&format!("shard.execute_{kind}_ms_p50"), &sharded);
            let inproc: Vec<f64> = (0..50)
                .map(|i| {
                    let work = Arc::clone(&instance.work);
                    let (outcome, ms) =
                        spans.span("exec.native", i, |_| timed(|| native.execute(work)));
                    ops.check(outcome.output == instance.expect);
                    ms
                })
                .collect();
            inproc_pair += out.timing(&format!("shard.inproc_{kind}_ms_p50"), &inproc);
            result_bytes += 8 * instance.expect.len();
        }
        out.value("shard.overhead_rel", execute_pair / inproc_pair);
        out.value("shard.result_bytes", result_bytes as f64);
        out.value("shard.heartbeats", stats::median(&heartbeats));
        out.value("shard.redistributed", redistributed as f64);
        out.value("shard.deaths", deaths as f64);

        // What every shard worker repeats per execute(): rebuild the instance by name.
        let build: Vec<f64> = (0..9)
            .map(|i| {
                spans.span("exec.by_name", i, |_| {
                    timed(|| [MATMUL, SPMV].map(|(kind, n, base)| by_name(kind, n, base))).1
                })
            })
            .collect();
        let build_ms = out.timing("exec.by_name_build_ms", &build);
        let reference: Vec<f64> = (0..9)
            .map(|i| {
                spans.span("exec.reference", i, |_| {
                    timed(|| self.pair.iter().for_each(|p| drop(p.work.run_reference()))).1
                })
            })
            .collect();
        out.timing("exec.reference_ms", &reference);

        let wire = wire_costs(spans, out);
        let life = worker_life_cycle(&self.worker, spans, out);

        // What the workers compute is not the in-process kernel but its row parts
        // (`run_native_part`): all eight of each kernel, on one thread, shared by two shards.
        let single = NativeExecutor::new(1);
        let parts_ms: f64 = self
            .pair
            .iter()
            .map(|instance| {
                let work = Arc::clone(&instance.work);
                spans.span("exec.native_parts", 0, |_| {
                    timed(|| {
                        single
                            .pool()
                            .install(move || (0..8).for_each(|p| drop(work.run_native_part(p, 8))))
                    })
                    .1
                })
            })
            .sum::<f64>()
            / 2.0;

        // Estimated, and the terms overlap: each of the pair's two execute() calls spawns
        // and tears down one fleet; every worker rebuilds its instance by name; every
        // result byte is encoded, framed, read and decoded once. The worker's heartbeat
        // timer, which teardown waits out, runs while all of that happens, so a negative
        // remainder means the work hid under the timer.
        let transfer_ms = result_bytes as f64 * wire.ns_per_result_byte / 1e6;
        let explained =
            2.0 * (life.spawn_handshake_ms + life.teardown_ms) + build_ms + parts_ms + transfer_ms;
        out.value("shard.unexplained_ms", execute_pair - explained);
        out.note(&format!(
            "estimated: execute pair {execute_pair:.2} ms vs 2 x (spawn+handshake {:.2} + teardown {:.2}) + \
             by_name {build_ms:.2} + row parts {parts_ms:.2} + transfer {transfer_ms:.2}",
            life.spawn_handshake_ms, life.teardown_ms
        ));

        open_loops(self, share, ops, spans, out);
    }
}

struct WireCosts {
    /// Encode + frame write + frame read + decode, per byte of a large result.
    ns_per_result_byte: f64,
}

/// `frame` and `proto` on in-memory buffers: no pipe, no process.
fn wire_costs(spans: &mut Spans, out: &mut Reporter) -> WireCosts {
    const REPS: usize = 31;
    let med =
        |f: &mut dyn FnMut() -> f64| stats::median(&(0..REPS).map(|_| f()).collect::<Vec<f64>>());
    spans.span("shard.wire", 0, |_| {
        let payload = vec![0xA5u8; 1 << 20];
        let frame_ms = med(&mut || {
            timed(|| {
                let mut pipe = Vec::with_capacity(payload.len() + 4);
                write_frame(&mut pipe, &payload).expect("in-memory write");
                read_frame(&mut Cursor::new(pipe)).expect("in-memory read")
            })
            .1
        });
        let frame_ns_per_byte = frame_ms * 1e6 / payload.len() as f64;
        out.value("frame.ns_per_byte", frame_ns_per_byte);

        let small = Message::Heartbeat { queue_depth: 1, jobs_done: 2 }.encode();
        let small_ms = med(&mut || {
            timed(|| {
                for _ in 0..1000 {
                    let mut pipe = Vec::with_capacity(small.len() + 4);
                    write_frame(&mut pipe, &small).expect("in-memory write");
                    std::hint::black_box(
                        read_frame(&mut Cursor::new(pipe)).expect("in-memory read"),
                    );
                }
            })
            .1
        });
        out.value("frame.small_roundtrip_ns", small_ms * 1e6 / 1000.0);

        let result = Message::JobResult {
            job_id: 1,
            output: AlgoOutput::F64((0..128 * 1024).map(f64::from).collect()),
            stats: Default::default(),
        };
        let encoded = result.encode();
        let encode_ms = med(&mut || timed(|| result.encode()).1);
        let decode_ms = med(&mut || timed(|| Message::decode(&encoded).expect("decodes")).1);
        let per_byte = |ms: f64| ms * 1e6 / encoded.len() as f64;
        out.value("proto.encode_ns_per_byte", per_byte(encode_ms));
        out.value("proto.decode_ns_per_byte", per_byte(decode_ms));
        WireCosts {
            ns_per_result_byte: frame_ns_per_byte + per_byte(encode_ms) + per_byte(decode_ms),
        }
    })
}

struct LifeCycle {
    spawn_handshake_ms: f64,
    teardown_ms: f64,
}

/// A live worker seen from the coordinator's side of the pipe.
struct Peer {
    child: Child,
    stdin: ChildStdin,
    stdout: ChildStdout,
}

impl Peer {
    fn send(&mut self, msg: &Message) {
        write_frame(&mut self.stdin, &msg.encode()).expect("worker accepts a frame");
    }

    /// The next message that is not a heartbeat (those arrive on a timer).
    fn recv(&mut self) -> Message {
        loop {
            let payload = read_frame(&mut self.stdout).expect("worker sends a frame");
            match Message::decode(&payload).expect("worker speaks the protocol") {
                Message::Heartbeat { .. } => {}
                msg => return msg,
            }
        }
    }
}

/// The subprocess life-cycle, one worker at a time: `Command::spawn` → `HelloAck`, a warm
/// tiny `Job` → `JobResult`, and `Shutdown` sent → child reaped.
fn worker_life_cycle(worker: &PathBuf, spans: &mut Spans, out: &mut Reporter) -> LifeCycle {
    const FLEETS: u64 = 15;
    const ROUND_TRIPS: u64 = 200;
    let (mut handshake, mut round_trip, mut teardown) = (Vec::new(), Vec::new(), Vec::new());
    for fleet in 0..FLEETS {
        let (mut peer, ms) = spans.span("shard.spawn_handshake", fleet, |_| {
            timed(|| {
                let mut child = Command::new(worker)
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::inherit())
                    .spawn()
                    .expect("spawn shard worker");
                let stdin = child.stdin.take().expect("piped stdin");
                let stdout = child.stdout.take().expect("piped stdout");
                let mut peer = Peer { child, stdin, stdout };
                peer.send(&Message::Hello { version: VERSION, shard: 0, threads: 1 });
                assert!(
                    matches!(peer.recv(), Message::HelloAck { .. }),
                    "worker acknowledges Hello"
                );
                peer
            })
        });
        handshake.push(ms);

        let job = |job_id| {
            Message::Job(JobSpec { job_id, part: 0, parts: 1, n: 64, base: 0, kind: "spmv".into() })
        };
        if fleet == 0 {
            spans.span("shard.pipe_roundtrip", fleet, |_| {
                // The first job builds the instance; the rest find it cached.
                peer.send(&job(1));
                assert!(matches!(peer.recv(), Message::JobResult { .. }));
                for id in 0..ROUND_TRIPS {
                    let ((), ms) = timed(|| {
                        peer.send(&job(id + 2));
                        assert!(matches!(peer.recv(), Message::JobResult { .. }));
                    });
                    round_trip.push(ms * 1e3);
                }
            });
        }

        let ((), ms) = spans.span("shard.teardown", fleet, |_| {
            timed(|| {
                let Peer { mut child, stdin, stdout } = peer;
                let mut stdin = stdin;
                write_frame(&mut stdin, &Message::Shutdown.encode())
                    .expect("worker accepts Shutdown");
                drop(stdin);
                let status = child.wait().expect("worker is reaped");
                assert!(status.success(), "worker exits cleanly after Shutdown");
                drop(stdout);
            })
        });
        teardown.push(ms);
    }
    let spawn_handshake_ms = out.timing("shard.spawn_handshake_ms", &handshake);
    out.timing("shard.pipe_roundtrip_us", &round_trip);
    let teardown_ms = out.timing("shard.teardown_ms", &teardown);
    LifeCycle { spawn_handshake_ms, teardown_ms }
}
