//! Cache-line padding wrappers for the real-hardware false-sharing demonstration
//! (`examples/prefix_sums_native.rs`, E19).
//!
//! The paper's block misses are caused by distinct processors writing distinct words of the
//! same cache line. The canonical native demonstration is a set of per-worker counters:
//! packed into one line they ping-pong between cores (false sharing); padded to a line each
//! they do not. [`UnpaddedCounters`] and [`PaddedCounters`] provide the two layouts behind a
//! common interface so benchmarks can run the identical workload on both.

use std::sync::atomic::{AtomicU64, Ordering};

/// A value padded and aligned to a 64-byte cache line (the crossbeam-utils `CachePadded`
/// idiom).
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

impl<T> CachePadded<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        CachePadded(value)
    }

    /// Access the wrapped value.
    pub fn get(&self) -> &T {
        &self.0
    }
}

/// A set of per-worker counters deliberately packed into as few cache lines as possible —
/// concurrent increments from different workers falsely share lines.
#[derive(Debug)]
pub struct UnpaddedCounters {
    counters: Vec<AtomicU64>,
}

/// A set of per-worker counters, each padded to its own cache line — no false sharing.
#[derive(Debug)]
pub struct PaddedCounters {
    counters: Vec<CachePadded<AtomicU64>>,
}

/// Common interface over the two counter layouts.
pub trait Counters: Sync + Send {
    /// Increment worker `i`'s counter `by`.
    fn add(&self, i: usize, by: u64);
    /// Read worker `i`'s counter.
    fn get(&self, i: usize) -> u64;
    /// Sum of all counters.
    fn total(&self) -> u64;
}

impl UnpaddedCounters {
    /// Create counters for `workers` workers.
    pub fn new(workers: usize) -> Self {
        UnpaddedCounters { counters: (0..workers).map(|_| AtomicU64::new(0)).collect() }
    }
}

impl PaddedCounters {
    /// Create counters for `workers` workers.
    pub fn new(workers: usize) -> Self {
        PaddedCounters {
            counters: (0..workers).map(|_| CachePadded::new(AtomicU64::new(0))).collect(),
        }
    }
}

impl Counters for UnpaddedCounters {
    fn add(&self, i: usize, by: u64) {
        self.counters[i].fetch_add(by, Ordering::Relaxed);
    }
    fn get(&self, i: usize) -> u64 {
        self.counters[i].load(Ordering::Relaxed)
    }
    fn total(&self) -> u64 {
        self.counters.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

impl Counters for PaddedCounters {
    fn add(&self, i: usize, by: u64) {
        self.counters[i].0.fetch_add(by, Ordering::Relaxed);
    }
    fn get(&self, i: usize) -> u64 {
        self.counters[i].0.load(Ordering::Relaxed)
    }
    fn total(&self) -> u64 {
        self.counters.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn cache_padded_is_actually_aligned() {
        assert!(std::mem::align_of::<CachePadded<u64>>() >= 64);
        assert!(std::mem::size_of::<CachePadded<u64>>() >= 64);
        let c = CachePadded::new(7u64);
        assert_eq!(*c.get(), 7);
    }

    fn exercise(counters: Arc<dyn Counters>) {
        let workers = 4;
        let mut handles = Vec::new();
        for w in 0..workers {
            let c = Arc::clone(&counters);
            handles.push(thread::spawn(move || {
                for _ in 0..10_000 {
                    c.add(w, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for w in 0..workers {
            assert_eq!(counters.get(w), 10_000);
        }
        assert_eq!(counters.total(), 40_000);
    }

    #[test]
    fn unpadded_counters_count_correctly() {
        exercise(Arc::new(UnpaddedCounters::new(4)));
    }

    #[test]
    fn padded_counters_count_correctly() {
        exercise(Arc::new(PaddedCounters::new(4)));
    }
}
