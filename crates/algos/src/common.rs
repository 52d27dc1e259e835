//! Shared building blocks for the algorithm dag builders — the destination abstraction
//! (global array vs local array on an enclosing execution-stack segment) — plus the
//! fork-join recursion helper the native kernels share (`split_lengths`).

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
// Native fork-join recursion helper
// ------------------------------------------------------------------------------------------

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
}
