//! Measurement utilities for Potemkin experiments.
//!
//! Every table and figure in the reproduction is computed from the primitives
//! here: named `counter`s, log-bucketed `histogram`s with quantiles,
//! binned `timeseries`, a concurrency/`littles_law` analyzer (the paper's
//! scalability argument is a Little's-law argument: VMs required ≈ arrival
//! rate × VM lifetime), and a plain-text `table` renderer used by the
//! `figures` binary to print paper-style tables.

#![warn(unreachable_pub)]

mod counter;
mod faults;
mod histogram;
mod littles_law;
mod rate;
mod table;
mod timeseries;

pub use counter::CounterSet;
pub use faults::{FaultClass, FaultLedger};
pub use histogram::LogHistogram;
pub use littles_law::ConcurrencyAnalyzer;
pub use rate::RateEstimator;
pub use table::Table;
pub use timeseries::TimeSeries;
