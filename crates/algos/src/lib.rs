//! # rws-algos
//!
//! The algorithm suite of *Analysis of Randomized Work Stealing with False Sharing* expressed
//! as series-parallel computations over the simulated memory of `rws-machine` / `rws-dag`,
//! plus plain sequential reference implementations on real data.
//!
//! Every algorithm module provides:
//!
//! * a **sequential reference** working on ordinary Rust slices/vectors (tested for
//!   correctness the usual way), and
//! * a **dag builder** returning a classified [`rws_dag::Computation`] whose nodes carry the
//!   algorithm's memory-access structure (global-array addresses plus symbolic
//!   execution-stack accesses), ready to be scheduled by `rws-core` and measured, and
//! * for the flagship workloads ([`matmul`], [`prefix`], [`sort`]) a **native fork-join
//!   runner** built on [`rws_runtime::join`], mirroring the dag's decomposition on real
//!   hardware so the `rws-exec` `Executor` abstraction can run the same algorithm on both
//!   backends (the remaining algorithms run their sequential reference natively until
//!   dedicated kernels land).
//!
//! Algorithms included (paper section in parentheses):
//!
//! | module | algorithm | class |
//! |--------|-----------|-------|
//! | [`matmul`] | depth-`n` matrix multiply, in-place and limited-access variants; depth-`log²n` 8-way matrix multiply (Section 3) | Type-2 HBP |
//! | [`prefix`] | prefix sums as two BP tree passes (Section 6.1, Theorem 7.1(i)) | BP |
//! | [`transpose`] | matrix transpose in bit-interleaved layout; RM→BI and BI→RM layout conversions (Sections 4.3, 7) | BP / Type-2 |
//! | [`sort`] | an HBP merge sort (stand-in for the sample sort of \[7\]; see DESIGN.md) | Type-2 HBP |
//! | [`fft`] | FFT via the √n-decomposition (Theorem 7.1(iv)) | Type-2 HBP |
//! | [`listrank`] | list ranking and connected components by iterated rounds (Section 7) | Type-3/4 |
//! | [`taskgraph`] | arbitrary-dependency task graphs run natively by atomic indegree counting, plus the `dag-workflow` value semantics | irregular (measured-only) |
//! | [`bfs`] | level-synchronized BFS on seeded random graphs | irregular (measured-only) |
//! | [`spmv`] | CSR sparse matrix–vector multiply | BP |
//! | [`samplesort`] | three-phase sample sort with data-dependent buckets | irregular (measured-only) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod common;
pub mod fft;
pub mod layout;
pub mod listrank;
pub mod matmul;
pub mod prefix;
pub mod samplesort;
pub mod sort;
pub mod spmv;
pub mod taskgraph;
pub mod transpose;

pub use common::Dest;
pub use layout::{bit_interleave, MatrixLayout};
