//! Order statistics for timing samples.
//!
//! Every timing the benchmark reports is a median; tails are reported only up to the
//! highest percentile that still has at least ten samples beyond it, so a "p99" is never
//! one outlier wearing a percentile's name.

/// The percentiles a summary may report, lowest first.
pub const TAILS: [(f64, &str); 4] = [(0.50, "p50"), (0.90, "p90"), (0.99, "p99"), (0.999, "p99.9")];

/// Nearest-rank percentile of an ascending slice: the smallest sample with at least
/// `q × n` samples at or below it. `q` is clamped to `[0, 1]`; an empty slice gives 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort ascending in place (timings are never NaN; a NaN would sort last).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
}

/// Median of unsorted samples, as the mean of the two middle samples when the count is
/// even (what Python's `statistics.median` gives, which is how the driver reads them).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Number of samples strictly beyond the nearest-rank `q` percentile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// The highest entry of [`TAILS`] with at least ten of `n` samples beyond it, if any.
pub fn highest_tail(n: usize) -> Option<(f64, &'static str)> {
    TAILS.iter().rev().find(|(q, _)| samples_beyond(n, *q) >= 10).copied()
}

/// `q` if at least ten of `n` samples lie beyond it, otherwise the highest percentile
/// that does qualify (the median when nothing does): what a `*_p99` row falls back to
/// on a short run, with the label actually used.
pub fn capped_tail(n: usize, q: f64) -> (f64, &'static str) {
    match highest_tail(n) {
        Some((best, label)) if best < q => (best, label),
        Some(_) => TAILS.iter().find(|(t, _)| *t >= q).copied().unwrap_or(TAILS[3]),
        None => TAILS[0],
    }
}

/// The figures printed for one timing: count, median, and the permitted tail.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Highest percentile with ten samples beyond it, with its label, if any.
    pub tail: Option<(&'static str, f64)>,
}

/// Summarise unsorted samples.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut v = samples.to_vec();
    sort(&mut v);
    let tail = highest_tail(v.len()).map(|(q, label)| (label, percentile(&v, q)));
    Summary { n: v.len(), p50: median(&v), tail }
}

/// `(max − min) ÷ median` of a set of medians: how far apart instances of the same thing
/// sit (see `pool.instance_spread`).
pub fn relative_spread(values: &[f64]) -> f64 {
    let (Some(max), Some(min)) =
        (values.iter().copied().reduce(f64::max), values.iter().copied().reduce(f64::min))
    else {
        return 0.0;
    };
    let mid = median(values);
    if mid > 0.0 {
        (max - min) / mid
    } else {
        0.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), which is how the driver reads spreads. Fewer than two values
/// give that value (or 0) twice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let quartile = |k: usize| {
        // Position k(n+1)/4 on a 1-based axis, linear interpolation (and extrapolation
        // at the ends, as Python does).
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (quartile(1), quartile(3))
}

/// Interquartile range ÷ median: the driver's run-to-run spread.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let mid = median(values);
    if values.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_matches_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 100 samples: p90 leaves exactly ten beyond, p99 leaves one.
        assert_eq!(samples_beyond(100, 0.90), 10);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(highest_tail(100), Some((0.90, "p90")));
        // 1000 samples: p99 leaves ten; 999 leaves nine, so it falls back to p90.
        assert_eq!(highest_tail(1000), Some((0.99, "p99")));
        assert_eq!(highest_tail(999), Some((0.90, "p90")));
        assert_eq!(highest_tail(10_000), Some((0.999, "p99.9")));
        // 20 samples: the median has ten beyond; 19 has none that qualifies.
        assert_eq!(highest_tail(20), Some((0.50, "p50")));
        assert_eq!(highest_tail(19), None);
        assert_eq!(highest_tail(0), None);
    }

    #[test]
    fn a_requested_tail_is_capped_by_the_rule() {
        assert_eq!(capped_tail(3000, 0.99), (0.99, "p99"));
        assert_eq!(capped_tail(500, 0.99), (0.90, "p90"));
        assert_eq!(capped_tail(5, 0.99), (0.50, "p50"));
        assert_eq!(capped_tail(100_000, 0.99), (0.99, "p99"));
    }

    #[test]
    fn summary_reports_count_median_and_permitted_tail() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 200);
        assert_eq!(s.p50, 100.5);
        assert_eq!(s.tail, Some(("p90", 180.0)));
        assert_eq!(summarize(&[1.0, 2.0]).tail, None);
    }

    #[test]
    fn spread_of_instances() {
        assert_eq!(relative_spread(&[5.0, 6.0, 7.0]), 2.0 / 6.0);
        assert_eq!(relative_spread(&[]), 0.0);
        assert_eq!(relative_spread(&[4.0]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert_eq!(quartiles(&[]), (0.0, 0.0));
    }

    #[test]
    fn iqr_matches_python_exclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert!((iqr_over_median(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[3.0]), 0.0);
    }
}
