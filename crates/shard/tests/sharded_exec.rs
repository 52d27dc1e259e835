//! End-to-end tests of [`rws_shard::ShardedExecutor`]: real `shard-worker` subprocesses,
//! real pipes. `cargo test` builds the workspace's bin targets, so the worker binary is
//! discovered next to the test executable (the coordinator pops the `deps/` dir).

use rws_exec::{workloads, Backend, Executor, SharedWorkload};
use rws_shard::worker::HEARTBEAT_INTERVAL;
use rws_shard::{DispatchPolicy, ShardedExecutor};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn matmul() -> SharedWorkload {
    Arc::new(workloads::MatMulWorkload::demo(16, 4))
}

#[test]
fn every_policy_reproduces_the_reference_output() {
    // Besides the output, the counters a fault-free run fixes: 8 parts, nothing moved, and
    // `work_items` — the jobs the worker pools ran, one per part at 16 x 16 and (one pool
    // thread per shard, a larger instance) two per part at 32 x 32.
    let mut cases: Vec<(ShardedExecutor, SharedWorkload, u64)> =
        [DispatchPolicy::RoundRobin, DispatchPolicy::LeastLoaded, DispatchPolicy::Static]
            .map(|policy| (ShardedExecutor::new(2).policy(policy), matmul(), 8))
            .into();
    let larger = Arc::new(workloads::MatMulWorkload::demo(32, 4));
    cases.push((ShardedExecutor::new(2).threads_per_shard(1), larger, 16));
    for (exec, workload, work_items) in cases {
        let outcome = exec.execute(Arc::clone(&workload));
        assert_eq!(outcome.output, workload.run_reference(), "{} output diverged", exec.name());
        assert_eq!(outcome.report.backend, Backend::Sharded);
        let detail = outcome.report.shard.as_ref().expect("shard detail");
        assert_eq!(detail.shards, 2);
        assert_eq!(detail.parts, 8, "2 shards x default 4 jobs each");
        assert_eq!(detail.jobs_accepted, 8);
        assert_eq!(detail.jobs_dispatched, 8, "no deaths, so no redispatch");
        assert_eq!(detail.redistributed, 0);
        assert_eq!(detail.shard_deaths, 0);
        assert_eq!(detail.jobs_per_shard.iter().sum::<u64>(), 8);
        assert_eq!(outcome.report.work_items, work_items, "{}", exec.name());
    }
}

#[test]
fn spmv_shards_match_the_reference_at_two_and_three_shards() {
    let workload = workloads::by_name("spmv", 512, 0).expect("spmv is registered");
    let reference = workload.run_reference();
    for shards in [2usize, 3] {
        let exec = ShardedExecutor::new(shards).threads_per_shard(2);
        let outcome = exec.execute(Arc::clone(&workload));
        assert_eq!(outcome.output, reference, "{shards}-shard spmv diverged");
        assert_eq!(outcome.report.procs, shards * 2);
        let detail = outcome.report.shard.as_ref().unwrap();
        assert_eq!(detail.jobs_accepted as usize, detail.parts);
    }
}

#[test]
fn killing_a_shard_mid_sweep_loses_no_jobs_and_duplicates_none() {
    // Shard 1 crashes abruptly after its second result, with jobs still unacknowledged.
    // Static dispatch hands it its whole band (parts 4-7) before anything runs, so it dies
    // with two of them unacknowledged: under the windowed policies the survivors can finish
    // the sweep before shard 1 is ever given a second job, and then nothing dies.
    let exec = ShardedExecutor::new(3)
        .jobs_per_shard(4)
        .policy(DispatchPolicy::Static)
        .fault_exit_after(1, 2);
    let workload = matmul();
    let outcome = exec.execute(Arc::clone(&workload));
    assert_eq!(outcome.output, workload.run_reference(), "output survived the crash intact");
    let detail = outcome.report.shard.as_ref().unwrap();
    assert_eq!(detail.parts, 12);
    assert_eq!(detail.shard_deaths, 1, "exactly the scripted crash");
    assert!(detail.redistributed > 0, "the dead shard held unacknowledged jobs that had to move");
    assert_eq!(
        detail.jobs_accepted, 12,
        "exactly one accepted result per part — duplicates dropped, none lost"
    );
    assert!(
        detail.jobs_dispatched > 12,
        "redistributed jobs are dispatched a second time (at-least-once)"
    );
    assert_eq!(detail.jobs_per_shard.len(), 3);
    assert_eq!(detail.jobs_per_shard.iter().sum::<u64>(), 12);
}

#[test]
fn a_wedged_shard_is_caught_by_the_heartbeat_timeout() {
    // Shard 0 stalls (stops answering AND heartbeating) after one result, staying alive:
    // only the heartbeat-silence sweep can catch it.
    let exec = ShardedExecutor::new(2)
        .fault_stall_after(0, 1)
        .heartbeat_timeout(Duration::from_millis(300));
    let workload = matmul();
    let outcome = exec.execute(Arc::clone(&workload));
    assert_eq!(outcome.output, workload.run_reference());
    let detail = outcome.report.shard.as_ref().unwrap();
    assert_eq!(detail.shard_deaths, 1, "the wedged shard was declared dead");
    assert!(detail.redistributed > 0, "its queued jobs moved to the survivor");
    assert_eq!(detail.jobs_accepted as usize, detail.parts);
    assert!(detail.heartbeats > 0, "the run was long enough to see heartbeats");
}

#[test]
fn a_cold_execute_does_not_wait_out_the_heartbeat_timer() {
    // The worker joins its heartbeat thread on the way out. Were that thread to sleep its
    // interval through, every execute would pay what is left of the 50 ms timer after the
    // last result — nearly all of it, against about 2 ms for the whole one-shard execute.
    const RUNS: usize = 12;
    let slow = HEARTBEAT_INTERVAL * 2 / 5;
    let workload = workloads::by_name("spmv", 256, 0).expect("spmv is registered");
    let reference = workload.run_reference();
    let exec = ShardedExecutor::new(1);
    let late = (0..RUNS)
        .filter(|_| {
            let started = Instant::now();
            let outcome = exec.execute(Arc::clone(&workload));
            assert_eq!(outcome.output, reference);
            started.elapsed() >= slow
        })
        .count();
    assert!(late < RUNS / 4, "{late} of {RUNS} one-shard executes took {slow:?} or more");
}

#[test]
#[should_panic(expected = "not shardable")]
fn non_shardable_workloads_are_refused_before_any_spawn() {
    let exec = ShardedExecutor::new(2);
    let _ = exec.execute(Arc::new(workloads::PrefixWorkload::demo(1024)));
}

#[test]
#[should_panic(expected = "died")]
fn losing_every_shard_fails_loudly_rather_than_returning_partial_output() {
    let exec = ShardedExecutor::new(1).fault_exit_after(0, 1);
    let _ = exec.execute(matmul());
}
