//! Shared building blocks for the algorithm dag builders — the destination abstraction
//! (global array vs local array on an enclosing execution-stack segment) — plus the
//! fork-join recursion helpers the native kernels share
//! ([`par_chunks_mut`], [`join4`], `split_lengths`).

use rws_dag::{Addr, WorkUnit};

/// Where a (sub)result is written: a global array or a local array living on the segment of
/// an enclosing dag node.
///
/// `Local::depth` is the *absolute segment depth* of the declaring node: the number of
/// segment-declaring nodes on the path from the dag root to that node, inclusive. Builders
/// track the absolute depth of the node a work unit is attached to and convert to the
/// relative `hops` the dag representation uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dest {
    /// A global array starting at `base`; element `i` is word `base + i`.
    Global {
        /// Base word address.
        base: u64,
    },
    /// A local array on the segment declared by the node at absolute segment depth `depth`,
    /// starting `offset` words into that segment.
    Local {
        /// Absolute segment depth of the declaring node.
        depth: u32,
        /// Word offset of the array within the segment.
        offset: u32,
    },
}

impl Dest {
    /// The destination shifted by `delta` words (e.g. to address a quadrant of a matrix).
    pub fn offset(self, delta: u64) -> Dest {
        match self {
            Dest::Global { base } => Dest::Global { base: base + delta },
            Dest::Local { depth, offset } => {
                Dest::Local { depth, offset: offset + u32::try_from(delta).expect("local offset") }
            }
        }
    }

    /// Add a write of element `i` of this destination to `unit`, given the absolute segment
    /// depth `at_depth` of the node the unit is attached to.
    pub fn write(self, unit: WorkUnit, i: u64, at_depth: u32) -> WorkUnit {
        match self {
            Dest::Global { base } => unit.write(Addr(base + i)),
            Dest::Local { depth, offset } => {
                let hops = hops_between(at_depth, depth);
                unit.local_write(hops, offset + u32::try_from(i).expect("local index"))
            }
        }
    }

    /// Add a read of element `i` of this destination to `unit`, given the absolute segment
    /// depth `at_depth` of the node the unit is attached to.
    pub fn read(self, unit: WorkUnit, i: u64, at_depth: u32) -> WorkUnit {
        match self {
            Dest::Global { base } => unit.read(Addr(base + i)),
            Dest::Local { depth, offset } => {
                let hops = hops_between(at_depth, depth);
                unit.local_read(hops, offset + u32::try_from(i).expect("local index"))
            }
        }
    }

    /// Add writes of elements `range` of this destination to `unit`.
    pub fn write_range(
        self,
        mut unit: WorkUnit,
        range: std::ops::Range<u64>,
        at_depth: u32,
    ) -> WorkUnit {
        for i in range {
            unit = self.write(unit, i, at_depth);
        }
        unit
    }

    /// Add reads of elements `range` of this destination to `unit`.
    pub fn read_range(
        self,
        mut unit: WorkUnit,
        range: std::ops::Range<u64>,
        at_depth: u32,
    ) -> WorkUnit {
        for i in range {
            unit = self.read(unit, i, at_depth);
        }
        unit
    }
}

/// Relative `hops` from a work unit attached to a node at absolute segment depth `at_depth`
/// to the segment declared at absolute depth `target_depth`.
///
/// Panics if the target is deeper than the access site (which would be a builder bug).
pub fn hops_between(at_depth: u32, target_depth: u32) -> u16 {
    assert!(
        target_depth <= at_depth,
        "local access target (depth {target_depth}) must be an ancestor of the access site (depth {at_depth})"
    );
    u16::try_from(at_depth - target_depth).expect("segment nesting too deep")
}

/// Number of fork levels of a balanced binary tree over `k` children when `k` is a power of
/// two (the uniform depth every child sits at).
pub fn balanced_levels(k: usize) -> u32 {
    assert!(k.is_power_of_two(), "balanced_levels requires a power-of-two child count, got {k}");
    k.trailing_zeros()
}

// ------------------------------------------------------------------------------------------
// Native fork-join recursion helpers
// ------------------------------------------------------------------------------------------

/// Apply `f` to every `chunk`-sized piece of `data` (the last piece may be shorter) —
/// the native mirror of the balanced BP trees the dag builders emit over leaf ranges,
/// now a thin front over [`rws_runtime::ParSliceExt::par_chunks_mut`]. Splitting is
/// adaptive: the fork tree bottoms out at roughly `SPLIT_FACTOR` pieces per worker of
/// the current pool instead of one fork per chunk, so fine-grained kernels (fft columns,
/// list-ranking rounds) stop paying a deque push per chunk on narrow pools.
///
/// `f` receives the chunk index and the chunk as a disjoint `&mut` borrow, so parallel
/// branches never alias; shared inputs are read through whatever `&` captures `f` holds.
/// Outside a pool worker the splits all degrade to sequential `join`s on the caller,
/// exactly like every other native kernel.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: &F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk > 0, "par_chunks_mut needs a positive chunk size");
    use rws_runtime::ParSliceExt;
    data.par_chunks_mut(chunk).for_each_indexed(f);
}

/// Run four closures as one parallel collection and return their results — the native
/// mirror of a four-child balanced fork, used by the quadrant-recursive kernels. Ported
/// onto [`rws_runtime::scope()`]: three branches are scoped spawns (all of which fit the
/// scope's inline job slots, so the fan-out stays allocation-free when unstolen) and the
/// fourth runs in the scope body.
pub fn join4<R1, R2, R3, R4>(
    f1: impl FnOnce() -> R1 + Send,
    f2: impl FnOnce() -> R2 + Send,
    f3: impl FnOnce() -> R3 + Send,
    f4: impl FnOnce() -> R4 + Send,
) -> (R1, R2, R3, R4)
where
    R1: Send,
    R2: Send,
    R3: Send,
    R4: Send,
{
    let (mut r1, mut r2, mut r3) = (None, None, None);
    let r4 = rws_runtime::scope(|s| {
        s.spawn(|_| r1 = Some(f1()));
        s.spawn(|_| r2 = Some(f2()));
        s.spawn(|_| r3 = Some(f3()));
        f4()
    });
    (
        r1.expect("scope ran branch 1"),
        r2.expect("scope ran branch 2"),
        r3.expect("scope ran branch 3"),
        r4,
    )
}

/// Split `data` into consecutive disjoint pieces of the given lengths, in order — the
/// regions a flat fork tree's leaves own when they are not all one size. Panics if the
/// lengths add up to more than `data` holds.
pub(crate) fn split_lengths<T, L>(mut rest: &mut [T], lengths: L) -> impl Iterator<Item = &mut [T]>
where
    L: IntoIterator<Item = usize>,
{
    lengths.into_iter().map(move |len| {
        let (piece, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        piece
    })
}

/// Where a kernel's unit test runs it: outside any pool, or installed on a pool of some
/// width.
#[cfg(test)]
pub(crate) struct PoolShape {
    pub(crate) label: String,
    pool: Option<rws_runtime::ThreadPool>,
}

#[cfg(test)]
impl PoolShape {
    /// Outside a pool, then 1-, 2- and 4-thread pools.
    pub(crate) fn all() -> Vec<PoolShape> {
        let mut shapes = vec![PoolShape { label: "no pool".into(), pool: None }];
        for threads in [1, 2, 4] {
            shapes.push(PoolShape {
                label: format!("{threads} threads"),
                pool: Some(rws_runtime::ThreadPool::new(threads)),
            });
        }
        shapes
    }

    pub(crate) fn run<R: Send + 'static>(&self, kernel: impl FnOnce() -> R + Send + 'static) -> R {
        match &self.pool {
            Some(pool) => pool.install(kernel),
            None => kernel(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dest_offset_and_accesses() {
        let g = Dest::Global { base: 100 };
        let unit = g.write(WorkUnit::empty(), 3, 5);
        assert_eq!(unit.global.len(), 1);
        assert_eq!(unit.global[0].addr, Addr(103));
        assert!(unit.global[0].write);

        let l = Dest::Local { depth: 2, offset: 10 };
        let unit = l.read(WorkUnit::empty(), 3, 5);
        assert_eq!(unit.locals.len(), 1);
        assert_eq!(unit.locals[0].hops, 3);
        assert_eq!(unit.locals[0].offset, 13);
        assert!(!unit.locals[0].write);

        let shifted = l.offset(4);
        assert_eq!(shifted, Dest::Local { depth: 2, offset: 14 });
        let gshift = g.offset(4);
        assert_eq!(gshift, Dest::Global { base: 104 });
    }

    #[test]
    fn range_helpers() {
        let g = Dest::Global { base: 0 };
        let unit = g.write_range(WorkUnit::empty(), 0..4, 0);
        assert_eq!(unit.global.len(), 4);
        let l = Dest::Local { depth: 1, offset: 0 };
        let unit = l.read_range(WorkUnit::empty(), 2..5, 3);
        assert_eq!(unit.locals.len(), 3);
        assert!(unit.locals.iter().all(|a| a.hops == 2));
    }

    #[test]
    #[should_panic(expected = "must be an ancestor")]
    fn hops_panics_when_target_is_deeper() {
        hops_between(1, 2);
    }

    #[test]
    fn balanced_levels_powers_of_two() {
        assert_eq!(balanced_levels(1), 0);
        assert_eq!(balanced_levels(2), 1);
        assert_eq!(balanced_levels(4), 2);
        assert_eq!(balanced_levels(8), 3);
    }

    #[test]
    fn par_chunks_mut_visits_every_chunk_exactly_once() {
        for (len, chunk) in [(0usize, 4usize), (1, 4), (7, 3), (16, 4), (17, 4), (5, 100)] {
            let mut data = vec![0usize; len];
            par_chunks_mut(&mut data, chunk, &|idx, part: &mut [usize]| {
                for (off, v) in part.iter_mut().enumerate() {
                    *v = idx * chunk + off + 1;
                }
            });
            let expected: Vec<usize> = (1..=len).collect();
            assert_eq!(data, expected, "len {len}, chunk {chunk}");
        }
    }

    #[test]
    fn join4_returns_all_four_results() {
        let (a, b, c, d) = join4(|| 1, || "two", || 3.0, || vec![4]);
        assert_eq!((a, b, c, d), (1, "two", 3.0, vec![4]));
    }
}
