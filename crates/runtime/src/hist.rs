//! A fixed-bucket log-scale latency histogram — quantiles without crates or allocation
//! after construction.
//!
//! Values (nanoseconds) land in buckets of geometrically growing width: each power-of-two
//! octave is split into `2^SUB_BITS = 8` sub-buckets, so any recorded value is attributed
//! with a relative error below `2^-SUB_BITS` (12.5%) — plenty for p50/p99/p999 service
//! metrics, while the whole table is 512 fixed `AtomicU64`s (4 KiB) shared by every
//! recorder with two relaxed increments per sample (its bucket and the running sum). This
//! is the classic HdrHistogram bucketing scheme reduced to its integer core.
//!
//! **Schema** (documented for the chaos/bench reports that serialize snapshots): bucket
//! `i < 8` covers exactly the value `i`; bucket `i >= 8` with `e = i >> 3` and
//! `s = i & 7` covers `[2^(e+2) + s * 2^(e-1), 2^(e+2) + (s+1) * 2^(e-1))`. Quantiles
//! report a bucket's inclusive **upper edge** — conservative, never flattering.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each octave splits into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
const MASK: u64 = (SUB - 1) as u64;
/// Max index for 64-bit values: octave 63 maps to `(63 - 3 + 1) * 8 + 7 = 495`.
const BUCKETS: usize = 512;

/// Bucket index for a value; monotone in `v`, exact below `2^SUB_BITS`.
fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // floor(log2 v) >= SUB_BITS
    let shift = exp - SUB_BITS;
    (((exp - SUB_BITS + 1) << SUB_BITS) as u64 + ((v >> shift) & MASK)) as usize
}

/// Inclusive upper edge of bucket `i` (the value a quantile falling in `i` reports).
fn upper_edge(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let e = (i >> SUB_BITS) as u32 + SUB_BITS - 1; // the octave: floor(log2) of its values
    let s = (i as u64) & MASK;
    let low = (1u64 << e) + (s << (e - SUB_BITS));
    low + (1u64 << (e - SUB_BITS)) - 1
}

/// A concurrent fixed-memory log-scale histogram of `u64` samples (latencies in ns).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample (relaxed increments; safe from any thread): two locked
    /// read-modify-writes, and a third only for a sample that raises the maximum.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Number of samples recorded (the bucket total).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The value at quantile `q` in `[0, 1]` — the upper edge of the bucket containing
    /// the `ceil(q * count)`-th smallest sample (0 when empty). Error is bounded by the
    /// bucket resolution (12.5% relative), always rounding up.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return upper_edge(i).min(self.max.load(Ordering::Relaxed));
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    /// A consistent-enough point-in-time summary (individual loads are relaxed; take it
    /// when recorders are quiesced for exact numbers).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            count,
            sum_ns: self.sum.load(Ordering::Relaxed),
            max_ns: self.max.load(Ordering::Relaxed),
            p50_ns: self.quantile(0.50),
            p90_ns: self.quantile(0.90),
            p99_ns: self.quantile(0.99),
            p999_ns: self.quantile(0.999),
        }
    }
}

/// A point-in-time summary of a [`LatencyHistogram`], ready for reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (ns) — `sum_ns / count` is the mean.
    pub sum_ns: u64,
    /// Largest sample (ns), exact.
    pub max_ns: u64,
    /// Median (ns), bucket upper edge.
    pub p50_ns: u64,
    /// 90th percentile (ns), bucket upper edge.
    pub p90_ns: u64,
    /// 99th percentile (ns), bucket upper edge.
    pub p99_ns: u64,
    /// 99.9th percentile (ns), bucket upper edge.
    pub p999_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_cover_u64() {
        let mut last = 0usize;
        let mut v = 1u64;
        while v < u64::MAX / 2 {
            let b = bucket_of(v);
            assert!(b >= last, "bucket_of must be monotone at {v}");
            assert!(b < BUCKETS);
            last = b;
            v = v.saturating_mul(2).saturating_add(v / 3 + 1);
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn upper_edge_bounds_its_bucket() {
        for v in [0u64, 1, 7, 8, 9, 100, 1_000, 123_456, 1 << 33, u64::MAX / 3] {
            let b = bucket_of(v);
            let edge = upper_edge(b);
            assert!(edge >= v, "upper edge {edge} must bound {v}");
            // The edge is in the same bucket (it is the last such value).
            assert_eq!(bucket_of(edge), b, "edge of bucket {b} must stay in it (v={v})");
            // Relative error bound: edge < v * (1 + 2^-SUB_BITS) + 1.
            assert!(edge as f64 <= v as f64 * (1.0 + 1.0 / SUB as f64) + 1.0, "v={v}");
        }
    }

    #[test]
    fn exact_for_small_values() {
        let h = LatencyHistogram::new();
        for v in 0..8u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 7);
        assert_eq!(h.count(), 8);
    }

    #[test]
    fn quantiles_on_a_known_distribution() {
        let h = LatencyHistogram::new();
        // 1000 samples: 1..=1000 (think microseconds in ns scale).
        for v in 1..=1000u64 {
            h.record(v * 1_000);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        let p999 = h.quantile(0.999);
        // Upper-edge reporting with 12.5% resolution: within (value, value * 1.125 + 1].
        assert!((500_000..=563_000).contains(&p50), "p50 = {p50}");
        assert!((990_000..=1_120_000).contains(&p99), "p99 = {p99}");
        assert!((999_000..=1_125_000).contains(&p999), "p999 = {p999}");
        assert_eq!(h.snapshot().max_ns, 1_000_000);
        assert_eq!(h.snapshot().count, 1000);
        // The snapshot clamps quantiles at the observed max.
        assert!(h.snapshot().p999_ns <= h.snapshot().max_ns);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = LatencyHistogram::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record((t * 10_000 + i) % 7_777);
                    }
                });
            }
        });
        assert_eq!(h.count(), 40_000);
    }
}
