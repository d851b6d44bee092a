//! Potemkin virtual honeyfarm — umbrella crate.
//!
//! A from-scratch Rust reproduction of *"Scalability, Fidelity, and
//! Containment in the Potemkin Virtual Honeyfarm"* (Vrable et al., SOSP
//! 2005). This crate re-exports the workspace's public API under one roof;
//! see the README for the architecture tour and EXPERIMENTS.md for the
//! reproduced evaluation.
//!
//! * [`sim`] — deterministic discrete-event substrate.
//! * [`net`] — packet formats, prefixes, flows, GRE, DNS.
//! * [`obs`] — counters, histograms, time series, Little's-law analysis,
//!   and deterministic tracing.
//! * [`vmm`] — the simulated VMM: flash cloning + delta virtualization.
//! * [`gateway`] — the gateway router: late binding + containment policy.
//! * [`workload`] — telescope radiation, worm models, exploit dialogues.
//! * [`services`] — the interaction plane: protocol detection, the
//!   declarative scenario DSL, session capture; [`interaction`] — the
//!   scenario-driven attacker replay driver.
//! * [`json`] — the shared dependency-free JSON parser.
//! * [`farm`] — the controller composing all of the above.
//! * [`fed`] — the federation routing tier (BGP-style prefix routes, GRE
//!   transit); [`federation`] — the federated multi-farm driver.
//!
//! # Examples
//!
//! ```
//! use potemkin::farm::{FarmConfig, Honeyfarm};
//! use potemkin::net::PacketBuilder;
//! use potemkin::sim::SimTime;
//! use std::net::Ipv4Addr;
//!
//! let mut farm = Honeyfarm::new(FarmConfig::small_test()).unwrap();
//! let probe = PacketBuilder::new(Ipv4Addr::new(6, 6, 6, 6), Ipv4Addr::new(10, 1, 0, 7))
//!     .tcp_syn(4444, 445);
//! farm.inject_external(SimTime::ZERO, probe);
//! assert_eq!(farm.live_vms(), 1);
//! ```

pub use potemkin_core::baseline;
pub use potemkin_core::checkpoint;
pub use potemkin_core::farm;
pub use potemkin_core::fed;
pub use potemkin_core::federation;
pub use potemkin_core::interaction;
pub use potemkin_core::parallel;
pub use potemkin_core::report;
pub use potemkin_core::scenario;
pub use potemkin_core::{ConfigError, Error, FarmError};
pub use potemkin_gateway as gateway;
pub use potemkin_json as json;
pub use potemkin_net as net;
/// An alias of [`obs`], kept only because the performance ledger
/// (`benchmark/src/layers.rs`) names `potemkin::metrics::CounterSet`; it
/// goes when the ledger moves to `potemkin::obs`.
#[doc(hidden)]
pub use potemkin_obs as metrics;
pub use potemkin_obs as obs;
pub use potemkin_services as services;
pub use potemkin_sim as sim;
pub use potemkin_snapshot as snapshot;
pub use potemkin_vmm as vmm;
pub use potemkin_workload as workload;
