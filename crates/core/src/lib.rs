//! The Potemkin honeyfarm controller.
//!
//! This crate is the paper's *system*: it composes the gateway decision
//! engine (`potemkin-gateway`), a pool of VMM servers (`potemkin-vmm`), and
//! guest behaviour into a working honeyfarm.
//!
//! * [`farm`] — [`farm::Honeyfarm`]: executes every [`GatewayAction`]
//!   (flash-cloning on demand, delivering packets into guests, reflecting
//!   contained traffic back into the farm, recycling idle VMs) and models
//!   guest responses (service replies, exploit infection, worm dialogue).
//! * [`scenario`] — [`scenario::TelescopeConfig`], the scenario every run starts
//!   from: farm template, radiation, horizon, sampling and tick intervals.
//! * [`baseline`] — the low-interaction (scripted) responder baseline for
//!   the fidelity comparison.
//! * [`parallel`] — the sharded replay and the crate's one cell world:
//!   `CellWorld` (a farm, a packet slab, the cell fabric, an optional
//!   federation hop and an optional attacker fleet) behind one run loop,
//!   the single caller of the window engine. Every driver below lowers
//!   its config to a [`parallel::ShardedTelescopeConfig`] and runs through it, and
//!   so do a plain telescope replay and an in-farm worm outbreak: one
//!   cell on one worker, the outbreak on a quiet telescope with seed
//!   infections.
//! * [`checkpoint`] — whole-farm checkpoint/restore: crash-consistent
//!   snapshots of that run loop with integrity validation, deterministic
//!   resume, and what-if forks — of plain and federated runs alike.
//! * [`fed`] — the federation routing tier: BGP-style prefix routes, GRE
//!   farm uplinks, the cell/farm layout and global admission control.
//! * [`federation`] — the federated multi-farm telescope: the hop a cell
//!   carries when N member farm clusters sit behind the [`fed`] routing
//!   tier, with cross-farm worm reflection over GRE and byte-identical
//!   merged reports across topology layouts.
//! * [`interaction`] — the interaction-fidelity plane: scenario packs from
//!   `potemkin-services` installed in every cell farm, driven by the
//!   fleet of closed-loop scripted attackers each cell carries, with
//!   per-scenario capture metrics merged deterministically across cells.
//! * [`report`] — aggregated farm statistics.
//!
//! [`GatewayAction`]: potemkin_gateway::GatewayAction
//!
//! # Examples
//!
//! ```
//! use potemkin_core::farm::{FarmConfig, Honeyfarm};
//! use potemkin_net::PacketBuilder;
//! use potemkin_sim::SimTime;
//! use std::net::Ipv4Addr;
//!
//! let mut farm = Honeyfarm::new(FarmConfig::small_test()).unwrap();
//! // A scanner probes a telescope address: a VM materializes and answers.
//! let probe = PacketBuilder::new(Ipv4Addr::new(6, 6, 6, 6), Ipv4Addr::new(10, 1, 0, 77))
//!     .tcp_syn(4444, 445);
//! farm.inject_external(SimTime::ZERO, probe);
//! assert_eq!(farm.live_vms(), 1);
//! let sent = farm.take_outputs();
//! assert!(!sent.is_empty(), "the honeypot answered the scanner");
//! ```

#![warn(unreachable_pub)]

pub mod baseline;
pub mod checkpoint;
mod error;
pub mod farm;
pub mod fed;
pub mod federation;
pub mod interaction;
pub mod parallel;
pub mod report;
pub mod scenario;

pub use error::{Error, FarmError};
pub use potemkin_gateway::ConfigError;
