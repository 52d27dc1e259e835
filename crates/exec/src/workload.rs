//! The [`Workload`] trait: an algorithm instance runnable on every backend.

use crate::report::ExecReport;
use rws_dag::Computation;
use std::sync::Arc;

/// The output of one algorithm run, in a comparable form.
///
/// Both backends of an algorithm must produce the same output — this is what the parity
/// tests assert through the `Executor` trait. Floating-point variants compare with a
/// tolerance because the native fork-join runners may sum in a different association order
/// than the sequential reference.
#[derive(Clone, Debug)]
pub enum AlgoOutput {
    /// Signed integers (e.g. prefix sums).
    I64(Vec<i64>),
    /// Unsigned integers (e.g. sorted keys).
    U64(Vec<u64>),
    /// Floating point (e.g. matrix products), compared with tolerance `1e-9`.
    F64(Vec<f64>),
}

impl AlgoOutput {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            AlgoOutput::I64(v) => v.len(),
            AlgoOutput::U64(v) => v.len(),
            AlgoOutput::F64(v) => v.len(),
        }
    }

    /// Whether the output is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Concatenate per-part outputs (in part order) into one output — how the sharded
    /// coordinator reassembles [`Workload::run_native_part`] results. All parts must be
    /// the same variant; `None` on an empty list or a variant mismatch.
    pub fn concat(parts: impl IntoIterator<Item = AlgoOutput>) -> Option<AlgoOutput> {
        let mut parts = parts.into_iter();
        let mut out = parts.next()?;
        for part in parts {
            match (&mut out, part) {
                (AlgoOutput::I64(acc), AlgoOutput::I64(v)) => acc.extend(v),
                (AlgoOutput::U64(acc), AlgoOutput::U64(v)) => acc.extend(v),
                (AlgoOutput::F64(acc), AlgoOutput::F64(v)) => acc.extend(v),
                _ => return None,
            }
        }
        Some(out)
    }
}

impl PartialEq for AlgoOutput {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (AlgoOutput::I64(a), AlgoOutput::I64(b)) => a == b,
            (AlgoOutput::U64(a), AlgoOutput::U64(b)) => a == b,
            (AlgoOutput::F64(a), AlgoOutput::F64(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9)
            }
            _ => false,
        }
    }
}

/// The by-value description of a partitionable workload instance, carried in `rws-shard`'s
/// `Job` wire messages instead of the data itself: a worker subprocess rebuilds the
/// deterministic instance locally via [`crate::workloads::by_name`] (seeded `demo`
/// constructors, so every process builds byte-identical inputs) and computes one output
/// part of it.
///
/// Only workloads whose inputs came from a `demo` constructor can answer one — a workload
/// built from caller-supplied data has no name another process could rebuild it from, and
/// must return `None` from [`Workload::shard_spec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// The canonical workload-kind name [`crate::workloads::by_name`] accepts.
    pub kind: String,
    /// Instance size (the `demo` constructor's `n`).
    pub n: usize,
    /// Recursion base for the kinds that take one; 0 where unused.
    pub base: usize,
}

/// The half-open element range `[start, end)` of part `part` of `parts` over `len`
/// elements: the canonical even split both the coordinator (for bookkeeping) and
/// [`Workload::run_native_part`] implementations use, so every process agrees on the
/// partition boundaries. Ranges may be empty when `parts > len`.
pub fn part_range(len: usize, part: usize, parts: usize) -> (usize, usize) {
    assert!(parts > 0 && part < parts, "part {part} of {parts} is not a valid partition");
    (len * part / parts, len * (part + 1) / parts)
}

/// An algorithm instance that can run on any [`crate::Executor`].
///
/// A workload carries its input data and knows how to express the algorithm three ways:
///
/// * [`Workload::computation`] — the series-parallel dag the simulator schedules;
/// * [`Workload::run_native`] — a fork-join implementation over `rws_runtime::join`,
///   executed on the native pool's workers;
/// * [`Workload::run_reference`] — the sequential oracle defining the correct output.
///
/// The simulator executes the dag's *memory-access structure* (its words are addresses, not
/// values), so the simulated backend reports the reference output as its result; the native
/// backend computes the output for real. Parity between the two is exactly the check that
/// the native decomposition implements the same function the dag models.
pub trait Workload: Send + Sync {
    /// Human-readable workload name (algorithm plus instance size).
    fn name(&self) -> String;

    /// Build the series-parallel dag for the simulated backend.
    fn computation(&self) -> Computation;

    /// Run the algorithm with native fork-join. Called on a pool worker thread, so
    /// `rws_runtime::join` inside it uses the pool's work-stealing deques.
    fn run_native(&self) -> AlgoOutput;

    /// Run the sequential reference implementation.
    fn run_reference(&self) -> AlgoOutput;

    /// How the sharded executor can rebuild this instance in another process, or `None`
    /// (the default) when the workload cannot run sharded — either because its output has
    /// no independent row/element partition or because its inputs did not come from a
    /// seeded `demo` constructor. Implementors returning `Some` must also override
    /// [`Workload::run_native_part`], keeping the invariant that concatenating the parts
    /// `0..parts` (via [`AlgoOutput::concat`]) equals [`Workload::run_native`]'s output.
    fn shard_spec(&self) -> Option<ShardSpec> {
        None
    }

    /// Compute output part `part` of `parts` with native fork-join (the per-job kernel a
    /// shard worker runs; partition boundaries come from [`part_range`]). Only called for
    /// workloads whose [`Workload::shard_spec`] is `Some`; the default panics so a
    /// workload cannot silently claim a partition it does not implement.
    fn run_native_part(&self, part: usize, parts: usize) -> AlgoOutput {
        panic!(
            "workload {} declares no shard partition (shard_spec() is None) but \
             run_native_part({part}, {parts}) was called",
            self.name()
        );
    }
}

/// A workload shared across executors (and movable onto pool worker threads).
pub type SharedWorkload = Arc<dyn Workload>;

/// The result of [`crate::Executor::execute`]: the normalized report plus the output.
#[derive(Clone, Debug)]
pub struct ExecOutcome {
    /// Normalized run statistics.
    pub report: ExecReport,
    /// The algorithm's output on this backend.
    pub output: AlgoOutput,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_outputs_compare_with_tolerance() {
        let a = AlgoOutput::F64(vec![1.0, 2.0]);
        let b = AlgoOutput::F64(vec![1.0 + 1e-12, 2.0 - 1e-12]);
        let c = AlgoOutput::F64(vec![1.0, 2.1]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn concat_reassembles_parts_in_order() {
        let parts =
            vec![AlgoOutput::I64(vec![1, 2]), AlgoOutput::I64(vec![]), AlgoOutput::I64(vec![3])];
        assert_eq!(AlgoOutput::concat(parts), Some(AlgoOutput::I64(vec![1, 2, 3])));
        assert_eq!(AlgoOutput::concat(Vec::new()), None, "no parts, no output");
        let mixed = vec![AlgoOutput::I64(vec![1]), AlgoOutput::U64(vec![2])];
        assert_eq!(AlgoOutput::concat(mixed), None, "variant mismatch is a protocol bug");
    }

    #[test]
    fn part_ranges_tile_the_length_exactly() {
        for (len, parts) in [(10, 3), (0, 2), (4, 8), (64, 1), (17, 17)] {
            let mut covered = 0;
            for part in 0..parts {
                let (start, end) = part_range(len, part, parts);
                assert_eq!(start, covered, "parts must tile contiguously");
                assert!(end >= start && end <= len);
                covered = end;
            }
            assert_eq!(covered, len, "parts must cover every element");
        }
    }

    #[test]
    fn mismatched_kinds_and_lengths_differ() {
        assert_ne!(AlgoOutput::I64(vec![1]), AlgoOutput::U64(vec![1]));
        assert_ne!(AlgoOutput::I64(vec![1]), AlgoOutput::I64(vec![1, 2]));
        assert_eq!(AlgoOutput::U64(vec![3, 4]), AlgoOutput::U64(vec![3, 4]));
        assert!(AlgoOutput::I64(Vec::new()).is_empty());
        assert_eq!(AlgoOutput::F64(vec![0.5]).len(), 1);
    }
}
