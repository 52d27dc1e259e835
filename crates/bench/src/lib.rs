//! # rws-bench
//!
//! The package that hosts the repository-level `tests/` and `examples/` directories (see
//! `Cargo.toml`): their dependencies span the simulator stack, the native stack, `rws-exec`
//! and `rws-shard`, so they live in a crate of their own. The library itself is empty.
//!
//! Every quantitative claim of the paper is reproduced by a committed `rws-lab` scenario or
//! an asserted test; README's *Where each claim of the paper is checked* maps E1–E20 to them.
