//! Experiment implementations behind the benchmark harness.
//!
//! Every table and figure of the paper's evaluation has a function here that
//! computes it (see EXPERIMENTS.md for the mapping) and returns a
//! [`harness::Outcome`]. The `figures` binary prints, writes and checks
//! them; the performance ledger (`benchmark/`) times the hot operations.

#![warn(unreachable_pub)]

pub mod experiments;
pub mod harness;
