//! Nodes of a series-parallel dag.

use crate::access::WorkUnit;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a node within its [`crate::SpDag`] arena.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The series-parallel structure of a node.
///
/// * `Leaf` — a sequential computation (a single node of the paper's dag, or a coarsened
///   base case). It declares a segment of `seg_words` local-variable words on the execution
///   stack for the duration of its execution.
/// * `Seq` — the sequencing construct: the children execute one after another.
/// * `Par` — the parallel construct: a fork node `fork` spawns `left` and `right` which may
///   execute in parallel; the corresponding join node `join` executes after both complete.
///   The fork declares a segment of `seg_words` words which lives until the join completes
///   (this is the segment σ_v of Section 4; the join writes the children's results into it).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SpStructure {
    /// A sequential leaf computation.
    Leaf {
        /// The work performed.
        work: WorkUnit,
        /// Local-variable segment size (words) declared by this leaf.
        seg_words: u32,
    },
    /// Sequential composition of children (executed left to right).
    Seq {
        /// The children, executed in order.
        children: Vec<NodeId>,
        /// Local-variable segment size (words) declared for the duration of the sequence
        /// (this models a procedure whose local arrays live across several steps, e.g. the
        /// result arrays a Type-2 recursive call passes to its sub-calls).
        seg_words: u32,
    },
    /// Binary fork/join parallel composition.
    Par {
        /// Work performed by the fork (down-pass) node before the children are spawned.
        fork: WorkUnit,
        /// Work performed by the join (up-pass) node after both children complete.
        join: WorkUnit,
        /// First child (executed by the forking processor).
        left: NodeId,
        /// Second child (made available for stealing).
        right: NodeId,
        /// Local-variable segment size (words) declared by the fork and released after the
        /// join.
        seg_words: u32,
    },
}

/// A node of the dag: its structure plus an optional user tag (handy for attributing
/// steals or misses to algorithm-level subproblems in experiments).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpNode {
    /// Series-parallel structure and work of this node.
    pub structure: SpStructure,
    /// Optional user tag.
    pub tag: Option<u32>,
}

impl SpNode {
    /// Create an untagged node.
    pub fn new(structure: SpStructure) -> Self {
        SpNode { structure, tag: None }
    }

    /// The size of the execution-stack segment this node declares (0 for `Seq`).
    pub fn seg_words(&self) -> u32 {
        match &self.structure {
            SpStructure::Leaf { seg_words, .. }
            | SpStructure::Par { seg_words, .. }
            | SpStructure::Seq { seg_words, .. } => *seg_words,
        }
    }

    /// Whether this node declares an execution-stack segment. Leaves and forks always do
    /// (possibly of size zero, which still counts for the `hops` numbering of local
    /// accesses); `Seq` nodes declare one only when their segment size is non-zero.
    pub fn declares_segment(&self) -> bool {
        match &self.structure {
            SpStructure::Leaf { .. } | SpStructure::Par { .. } => true,
            SpStructure::Seq { seg_words, .. } => *seg_words > 0,
        }
    }

    /// Child node ids, in execution order (without allocating: the dag walks that size a
    /// simulation call this once per node).
    pub fn children(&self) -> impl Iterator<Item = NodeId> + '_ {
        let (pair, list): ([Option<NodeId>; 2], &[NodeId]) = match &self.structure {
            SpStructure::Leaf { .. } => ([None, None], &[]),
            SpStructure::Seq { children, .. } => ([None, None], children),
            SpStructure::Par { left, right, .. } => ([Some(*left), Some(*right)], &[]),
        };
        pair.into_iter().flatten().chain(list.iter().copied())
    }

    /// Whether this is a leaf.
    pub fn is_leaf(&self) -> bool {
        matches!(self.structure, SpStructure::Leaf { .. })
    }

    /// Whether this is a parallel (fork/join) node.
    pub fn is_par(&self) -> bool {
        matches!(self.structure, SpStructure::Par { .. })
    }

    /// Whether this is a sequencing node.
    pub fn is_seq(&self) -> bool {
        matches!(self.structure, SpStructure::Seq { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_kind_predicates() {
        let leaf = SpNode::new(SpStructure::Leaf { work: WorkUnit::compute(1), seg_words: 2 });
        assert!(leaf.is_leaf() && !leaf.is_par() && !leaf.is_seq());
        assert!(leaf.declares_segment());
        assert_eq!(leaf.seg_words(), 2);
        assert_eq!(leaf.children().count(), 0);

        let seq =
            SpNode::new(SpStructure::Seq { children: vec![NodeId(0), NodeId(1)], seg_words: 0 });
        assert!(seq.is_seq());
        assert!(!seq.declares_segment());
        assert_eq!(seq.seg_words(), 0);
        assert_eq!(seq.children().collect::<Vec<_>>(), vec![NodeId(0), NodeId(1)]);

        let par = SpNode::new(SpStructure::Par {
            fork: WorkUnit::empty(),
            join: WorkUnit::empty(),
            left: NodeId(2),
            right: NodeId(3),
            seg_words: 4,
        });
        assert!(par.is_par());
        assert_eq!(par.children().collect::<Vec<_>>(), vec![NodeId(2), NodeId(3)]);
        assert_eq!(par.seg_words(), 4);
    }

    #[test]
    fn node_id_formatting() {
        assert_eq!(format!("{:?}", NodeId(7)), "n7");
        assert_eq!(NodeId(7).index(), 7);
    }
}
