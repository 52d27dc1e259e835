//! # rws-analysis
//!
//! Closed-form evaluations of the paper's bounds, used by the `rws-lab` checks and the
//! repository's tests to compare measured quantities against predictions. All functions return `f64` values with the
//! asymptotic constants taken as 1 — experiments compare *shapes* (scaling exponents, who
//! wins, crossovers), not absolute values.
//!
//! The [`verdict`] module turns such comparisons into structured pass/fail results
//! ([`BoundCheck`]): the form the `rws-lab` scenario subsystem gates CI on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod predictions;
pub mod verdict;

pub use bounds::*;
pub use predictions::*;
pub use verdict::{BoundCheck, Verdict};
