//! Experiment implementations behind the benchmark harness.
//!
//! Every table and figure of the paper's evaluation has a function here that
//! computes it (see EXPERIMENTS.md for the mapping) and returns a
//! [`harness::Outcome`]. The `figures` binary prints, writes and checks
//! them; the performance ledger (`benchmark/`) times the hot operations.

pub mod experiments;
pub mod harness;

pub use experiments::{e1, e10, e12, e13, e2, e3, e4, e5, e6, e7, e8, e9};
