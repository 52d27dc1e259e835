//! Correctness of the scoped-task API: borrow-friendly spawns, sibling completion around a
//! panicking task, scope-local poisoning, and the parallel iterators built on top — under
//! oversubscription on the 1-CPU host.

use rws_runtime::{scope, ParSliceExt, ThreadPool};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

#[test]
fn scoped_spawns_borrow_the_callers_frame_on_both_backends() {
    let pool = ThreadPool::new(4);
    let total = pool.install(move || {
        let data: Vec<u64> = (0..100_000).collect();
        let mut partials = [0u64; 4];
        {
            let quarter = data.len() / 4;
            let mut rest: &mut [u64] = &mut partials;
            let mut parts = Vec::new();
            for i in 0..4 {
                let (head, tail) = rest.split_at_mut(1);
                parts.push((head, &data[i * quarter..(i + 1) * quarter]));
                rest = tail;
            }
            scope(|s| {
                // Non-'static: every spawn borrows `data` and writes a disjoint
                // one-element window of `partials`.
                for (out, piece) in parts {
                    s.spawn(move |_| out[0] = piece.iter().sum());
                }
            });
        }
        partials.iter().sum::<u64>()
    });
    assert_eq!(total, 100_000u64 * 99_999 / 2);
}

#[test]
fn panic_in_one_spawn_lets_siblings_finish_and_poisons_only_its_scope() {
    let pool = ThreadPool::new(2);
    let (siblings_ran, outer_ran, caught) = pool.install(|| {
        let siblings = AtomicU64::new(0);
        let outer = AtomicU64::new(0);
        let mut caught = false;
        // The outer scope must be unaffected by the inner scope's poisoning.
        scope(|outer_scope| {
            outer_scope.spawn(|_| {
                outer.fetch_add(1, Ordering::Relaxed);
            });
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                scope(|s| {
                    for _ in 0..8 {
                        s.spawn(|_| {
                            siblings.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                    s.spawn(|_| panic!("one task goes down"));
                });
            }));
            caught = result.is_err();
        });
        (siblings.load(Ordering::Relaxed), outer.load(Ordering::Relaxed), caught)
    });
    assert!(caught, "the inner scope must rethrow its spawn's panic at its own exit");
    assert_eq!(siblings_ran, 8, "all siblings beside the panicking task must still run");
    assert_eq!(outer_ran, 1, "the outer scope completes normally — poisoning is scope-local");
    // The pool survives: workers caught the panic where it ran, nothing unwound a helper.
    assert_eq!(pool.install(|| 6 * 7), 42);
}

#[test]
fn scope_body_panic_still_waits_for_inflight_spawns() {
    // The body's own panic propagates, but only after every spawned task (which may
    // borrow the frame being unwound) has completed.
    let pool = ThreadPool::new(2);
    let (ran, caught) = pool.install(|| {
        let ran = AtomicU64::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                for _ in 0..16 {
                    s.spawn(|_| {
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                }
                panic!("the body itself fails");
            })
        }));
        (ran.load(Ordering::Relaxed), result.is_err())
    });
    assert!(caught);
    assert_eq!(ran, 16);
    assert_eq!(pool.install(|| 1), 1);
}

#[test]
fn deep_nested_scopes_work_under_oversubscription() {
    // 8 workers on the 1-CPU container: heavy time-slicing, stolen and unstolen mixes.
    let pool = ThreadPool::new(8);
    fn count_tree(depth: u32) -> u64 {
        if depth == 0 {
            return 1;
        }
        let (mut a, mut b, mut c) = (0, 0, 0);
        let d = scope(|s| {
            s.spawn(|_| a = count_tree(depth - 1));
            s.spawn(|_| b = count_tree(depth - 1));
            s.spawn(|_| c = count_tree(depth - 1));
            count_tree(depth - 1)
        });
        a + b + c + d + 1
    }
    let total = pool.install(|| count_tree(5));
    // Nodes of a complete 4-ary tree of depth 5: (4^6 - 1) / 3.
    assert_eq!(total, (4u64.pow(6) - 1) / 3);
}

#[test]
fn par_iter_layers_agree_with_sequential_references_on_both_backends() {
    let pool = ThreadPool::new(3);
    let ok = pool.install(move || {
        let data: Vec<i64> = (0..30_000).map(|i| (i * 7) % 23 - 11).collect();
        // map_reduce against the sequential sum.
        let expected: i64 = data.iter().sum();
        let got = data.par_iter().map_reduce(|&x| x, |a, b| a + b, 0);
        // par_iter_mut against a sequential transform.
        let mut doubled = data.clone();
        doubled.par_iter_mut().for_each(|v| *v *= 2);
        let mut chunk_tags = vec![0usize; 30_000];
        chunk_tags.par_chunks_mut(64).for_each_indexed(|i, part| {
            part.iter_mut().for_each(|v| *v = i);
        });
        got == expected
            && doubled.iter().zip(&data).all(|(&d, &x)| d == 2 * x)
            && chunk_tags.iter().enumerate().all(|(j, &tag)| tag == j / 64)
    });
    assert!(ok);
}

#[test]
fn scope_spawn_mixes_with_join_and_par_iter_in_one_computation() {
    // The layers compose: a scope whose tasks use join and par_iter internally.
    let pool = ThreadPool::new(4);
    let (sum_a, sum_b) = pool.install(|| {
        let xs: Vec<u64> = (0..50_000).collect();
        let (mut a, mut b) = (0u64, 0u64);
        {
            let (xs_a, xs_b) = xs.split_at(25_000);
            let (ra, rb) = (&mut a, &mut b);
            scope(|s| {
                s.spawn(move |_| {
                    *ra = xs_a.par_iter().map_reduce(|&x| x, |p, q| p + q, 0);
                });
                let (lo, hi) = rws_runtime::join(
                    || xs_b[..12_500].iter().sum::<u64>(),
                    || xs_b[12_500..].iter().sum::<u64>(),
                );
                *rb = lo + hi;
            });
        }
        (a, b)
    });
    assert_eq!(sum_a + sum_b, 50_000u64 * 49_999 / 2);
}
